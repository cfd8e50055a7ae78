//! Property test for the fault-plan JSON format: every plan survives
//! `render_json` → `parse_json` unchanged — seeds, job filters and `nth`
//! counts across their whole integer ranges (beyond 2^53, where a
//! detour through `f64` would round them), probabilities bit for bit.

use octo_faults::{FaultPlan, FaultRule, FaultSite, Trigger};
use proptest::prelude::*;

fn rule_strategy() -> impl Strategy<Value = FaultRule> {
    (
        0..FaultSite::ALL.len(),
        (any::<bool>(), any::<u32>()),
        (any::<bool>(), any::<u64>()),
    )
        .prop_map(|(site, (filtered, job), (nth, n))| FaultRule {
            site: FaultSite::ALL[site],
            job: filtered.then_some(job),
            trigger: if nth {
                Trigger::Nth(n)
            } else {
                Trigger::Probability(n as f64 / u64::MAX as f64)
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_then_parse_is_the_identity(
        seed in any::<u64>(),
        rules in prop::collection::vec(rule_strategy(), 0..6),
    ) {
        let plan = rules.into_iter().fold(FaultPlan::new(seed), FaultPlan::rule);
        let text = plan.render_json();
        prop_assert_eq!(FaultPlan::parse_json(&text), Ok(plan), "{}", text);
    }
}
