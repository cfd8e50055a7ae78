//! Property tests for the histogram math: the quantile path must stay
//! total (no NaN, no division by zero) for every input — including
//! empty.

use octo_obs::Histogram;
use proptest::prelude::*;

/// Strictly increasing bucket bounds drawn from a small universe.
fn bounds_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..10_000, 0..6).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quantile_is_total_and_within_observed_range(
        bounds in bounds_strategy(),
        xs in prop::collection::vec(0u64..20_000, 0..64),
        q_milli in -1000i64..2000,
    ) {
        let q = q_milli as f64 / 1000.0;
        let h = Histogram::new(&bounds);
        for &x in &xs {
            h.observe(x);
        }
        match h.quantile(q) {
            None => prop_assert_eq!(h.count(), 0, "None only for the empty histogram"),
            Some(v) => {
                // The answer is a bucket upper bound or the observed max;
                // either way it never exceeds max(bounds.last, max obs).
                let cap = bounds.last().copied().unwrap_or(0).max(h.max().unwrap());
                prop_assert!(v <= cap, "quantile {v} above cap {cap}");
            }
        }
    }
}
