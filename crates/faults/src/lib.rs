//! Deterministic fault injection and fault-tolerance policies.
//!
//! The OctoPoCs batch runner must survive individual misbehaving jobs: a
//! panicking directed engine, a wedged solver, a flaky replay. This crate
//! provides the two halves of that story:
//!
//! * **Injection** — a seeded [`FaultPlan`] describes *where* and *when*
//!   faults fire. Injection sites scattered through the workspace (solver
//!   entry, directed engine, artifact cache, P4 replay) call
//!   [`should_inject`], which is a no-op unless a per-job [`JobFaults`]
//!   context has been [`install`]ed. Decisions are pure functions of
//!   `(seed, site, job, occurrence)`, so a plan replays byte-for-byte:
//!   two runs with the same plan inject the same faults at the same
//!   program points.
//! * **Tolerance** — a [`RetryPolicy`] with deterministic seeded jitter
//!   that the batch runner uses to re-run jobs whose failure was
//!   *transient* (deadline, hang, injected fault, panic) before
//!   quarantining them.
//!
//! Like `octo-trace`, the injection context is thread-local and costs one
//! TLS read when inactive, so production runs without a fault plan pay
//! almost nothing for the hooks.
//!
//! ```
//! use octo_faults::{FaultPlan, FaultSite, JobFaults};
//! use std::sync::Arc;
//!
//! let plan = Arc::new(FaultPlan::new(42).nth(FaultSite::DirectedPanic, Some(3), 1));
//! let ctx = Arc::new(JobFaults::new(&plan, 3));
//! let _guard = octo_faults::install(&ctx);
//! assert!(octo_faults::should_inject(FaultSite::DirectedPanic)); // 1st occurrence
//! assert!(!octo_faults::should_inject(FaultSite::DirectedPanic)); // 2nd: clean
//! ```

#![warn(missing_docs)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use octo_trace::TraceKind;

/// Number of distinct injection sites (length of [`FaultSite::ALL`]).
pub const SITE_COUNT: usize = 7;

/// A program point where a fault can be injected.
///
/// Each site corresponds to one hook in the workspace; the hook calls
/// [`should_inject`] exactly once per *occurrence* (e.g. once per solver
/// call, once per engine run), and the [`FaultPlan`] decides whether that
/// occurrence fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Solver entry (`solve_in`): the solve is abandoned and returns
    /// `SolveResult::Injected`.
    SolverSolve,
    /// Directed engine entry: the engine panics (exercises panic
    /// isolation end to end).
    DirectedPanic,
    /// Directed engine entry: the engine reports a forced `loop-dead`
    /// outcome without stepping.
    DirectedLoopDead,
    /// Directed engine entry: the engine wedges — responsive to
    /// cancellation but never making progress — until a watchdog or
    /// deadline escalates its `CancelToken`. Skipped (after counting the
    /// occurrence) when the engine has no token, since the hang would
    /// otherwise be unrecoverable.
    DirectedHang,
    /// Artifact cache hit path: the cached value is discarded and
    /// recomputed as if the lookup had missed.
    CacheMiss,
    /// P4 concrete replay: the replay spuriously reports "no crash".
    P4Replay,
    /// Disk blob store publish: the process "dies" between writing the
    /// temp file and the atomic rename, leaving an orphan temp file and
    /// no published blob (the crash-consistency window).
    StoreRename,
}

impl FaultSite {
    /// Every site, in a fixed order (indexes into per-site counters).
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::SolverSolve,
        FaultSite::DirectedPanic,
        FaultSite::DirectedLoopDead,
        FaultSite::DirectedHang,
        FaultSite::CacheMiss,
        FaultSite::P4Replay,
        FaultSite::StoreRename,
    ];

    /// Stable kebab-case label, used in fault-plan JSON, trace events, and
    /// verdict renderings.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::SolverSolve => "solver-solve",
            FaultSite::DirectedPanic => "directed-panic",
            FaultSite::DirectedLoopDead => "directed-loop-dead",
            FaultSite::DirectedHang => "directed-hang",
            FaultSite::CacheMiss => "cache-miss",
            FaultSite::P4Replay => "p4-replay",
            FaultSite::StoreRename => "store-rename",
        }
    }

    /// Inverse of [`FaultSite::label`].
    pub fn from_label(label: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.label() == label)
    }

    fn index(self) -> usize {
        FaultSite::ALL
            .iter()
            .position(|s| *s == self)
            .expect("site in ALL")
    }
}

/// When a matching rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire exactly on the `n`-th occurrence of the site within a job
    /// (1-based). Occurrence counters persist across retry attempts, so a
    /// `Nth(1)` fault fires on the first attempt and *clears* on retry —
    /// the canonical "transient" fault.
    Nth(u64),
    /// Fire each occurrence independently with this probability, decided
    /// by a deterministic hash of `(seed, site, job, occurrence)`.
    /// `0.0` never fires; `1.0` always fires.
    Probability(f64),
}

/// One line of a [`FaultPlan`]: a site, an optional job filter, and a
/// trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// The injection site this rule arms.
    pub site: FaultSite,
    /// Restrict the rule to one job (batch submission index); `None`
    /// matches every job.
    pub job: Option<u32>,
    /// When a matching occurrence fires.
    pub trigger: Trigger,
}

/// A deterministic, replayable description of which faults to inject.
///
/// Build one with the fluent API ([`FaultPlan::nth`],
/// [`FaultPlan::probability`]) or load one from JSON
/// ([`FaultPlan::parse_json`], the format behind
/// `octopocs batch --fault-plan <file>`; see `docs/robustness.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given probability seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// The seed behind probabilistic triggers.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rules, in declaration order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Adds an arbitrary rule.
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Adds a rule firing on the `n`-th occurrence of `site` (optionally
    /// only in job `job`).
    pub fn nth(self, site: FaultSite, job: Option<u32>, n: u64) -> FaultPlan {
        self.rule(FaultRule {
            site,
            job,
            trigger: Trigger::Nth(n),
        })
    }

    /// Adds a rule firing each occurrence of `site` with probability `p`.
    pub fn probability(self, site: FaultSite, job: Option<u32>, p: f64) -> FaultPlan {
        self.rule(FaultRule {
            site,
            job,
            trigger: Trigger::Probability(p),
        })
    }

    /// Decides whether the `occurrence`-th (1-based) hit of `site` in
    /// `job` fires. Pure: same inputs, same answer, forever.
    pub fn decide(&self, site: FaultSite, job: u32, occurrence: u64) -> bool {
        self.rules.iter().any(|r| {
            r.site == site
                && r.job.is_none_or(|j| j == job)
                && match r.trigger {
                    Trigger::Nth(n) => occurrence == n,
                    Trigger::Probability(p) => {
                        if p <= 0.0 {
                            false
                        } else if p >= 1.0 {
                            true
                        } else {
                            let h = splitmix64(
                                self.seed
                                    ^ (site.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                    ^ (u64::from(job) << 32)
                                    ^ occurrence,
                            );
                            (h as f64 / u64::MAX as f64) < p
                        }
                    }
                }
        })
    }

    /// Renders the plan in the same JSON schema [`FaultPlan::parse_json`]
    /// accepts (round-trips exactly).
    pub fn render_json(&self) -> String {
        let mut out = format!("{{\"seed\":{},\"rules\":[", self.seed);
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"site\":\"{}\"", r.site.label()));
            if let Some(j) = r.job {
                out.push_str(&format!(",\"job\":{j}"));
            }
            match r.trigger {
                Trigger::Nth(n) => out.push_str(&format!(",\"nth\":{n}")),
                Trigger::Probability(p) => out.push_str(&format!(",\"probability\":{p}")),
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parses the fault-plan JSON format:
    ///
    /// ```json
    /// {"seed": 42,
    ///  "rules": [{"site": "directed-panic", "job": 2, "nth": 1},
    ///            {"site": "cache-miss", "probability": 0.25}]}
    /// ```
    ///
    /// `seed` and `rules` are required; per rule, `site` plus exactly one
    /// of `nth` / `probability` are required and `job` is optional.
    /// Unknown keys are rejected so typos fail loudly.
    pub fn parse_json(text: &str) -> Result<FaultPlan, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let plan = p.plan()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(plan)
    }
}

/// SplitMix64: the workspace's stock deterministic bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Minimal recursive-descent parser for the fault-plan schema. The build
/// environment has no route to crates.io (no serde), so this follows the
/// workspace convention of hand-rolled renderers and parsers.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'\\' {
                return Err(format!("escape sequences unsupported at byte {}", self.pos));
            }
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_string())?
                    .to_string();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err("unterminated string".to_string())
    }

    /// The text of the number at the cursor (JSON number characters).
    fn number_text(&mut self) -> &str {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("")
    }

    /// An exact non-negative integer: no fraction, no exponent, no
    /// rounding through `f64`.
    fn integer(&mut self, what: &str) -> Result<u64, String> {
        let text = self.number_text();
        text.parse::<u64>()
            .map_err(|_| format!("{what} must be a non-negative integer, got \"{text}\""))
    }

    /// Walks one object, `{"key": value, ...}`, handing each key to
    /// `field` to parse its value. Members must be comma-separated, with
    /// no comma after the last one.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            field(self, &key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn plan(&mut self) -> Result<FaultPlan, String> {
        let mut seed = None;
        let mut rules = None;
        self.object(|p, key| {
            match key {
                "seed" => seed = Some(p.integer("seed")?),
                "rules" => rules = Some(p.rule_array()?),
                other => return Err(format!("unknown fault-plan key \"{other}\"")),
            }
            Ok(())
        })?;
        Ok(FaultPlan {
            seed: seed.ok_or("missing \"seed\"")?,
            rules: rules.ok_or("missing \"rules\"")?,
        })
    }

    fn rule_array(&mut self) -> Result<Vec<FaultRule>, String> {
        self.expect(b'[')?;
        let mut rules = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(rules);
        }
        loop {
            rules.push(self.rule()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(rules);
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn rule(&mut self) -> Result<FaultRule, String> {
        let mut site = None;
        let mut job = None;
        let mut trigger = None;
        self.object(|p, key| {
            if matches!(key, "nth" | "probability") && trigger.is_some() {
                return Err("rule has both \"nth\" and \"probability\"".to_string());
            }
            match key {
                "site" => {
                    let label = p.string()?;
                    site = Some(
                        FaultSite::from_label(&label)
                            .ok_or_else(|| format!("unknown fault site \"{label}\""))?,
                    );
                }
                "job" => {
                    let j = p.integer("job")?;
                    job = Some(u32::try_from(j).map_err(|_| "job out of range".to_string())?);
                }
                "nth" => trigger = Some(Trigger::Nth(p.integer("nth")?)),
                "probability" => {
                    let text = p.number_text();
                    let prob: f64 = text
                        .parse()
                        .map_err(|_| format!("probability must be a number, got \"{text}\""))?;
                    if !(0.0..=1.0).contains(&prob) {
                        return Err(format!("probability must be in [0, 1], got {prob}"));
                    }
                    trigger = Some(Trigger::Probability(prob));
                }
                other => return Err(format!("unknown rule key \"{other}\"")),
            }
            Ok(())
        })?;
        Ok(FaultRule {
            site: site.ok_or("rule missing \"site\"")?,
            job,
            trigger: trigger.ok_or("rule missing \"nth\" or \"probability\"")?,
        })
    }
}

/// Per-job injection state: the plan, the job's submission index, and one
/// occurrence counter per site.
///
/// The batch runner creates one `JobFaults` per job and re-[`install`]s it
/// for every retry attempt, so occurrence counters span attempts — an
/// `Nth(1)` fault fires on the first attempt and passes on the retry.
#[derive(Debug)]
pub struct JobFaults {
    plan: Arc<FaultPlan>,
    job: u32,
    counts: [AtomicU64; SITE_COUNT],
    fired: AtomicU64,
}

impl JobFaults {
    /// A fresh context for `job` under `plan` (all counters zero).
    pub fn new(plan: &Arc<FaultPlan>, job: u32) -> JobFaults {
        JobFaults {
            plan: Arc::clone(plan),
            job,
            counts: Default::default(),
            fired: AtomicU64::new(0),
        }
    }

    /// How many occurrences of `site` this job has hit so far.
    pub fn occurrences(&self, site: FaultSite) -> u64 {
        self.counts[site.index()].load(Ordering::Relaxed)
    }

    /// How many faults actually fired for this job (across all attempts).
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

thread_local! {
    static CTX: RefCell<Option<Arc<JobFaults>>> = const { RefCell::new(None) };
}

/// RAII guard restoring the previously installed context (if any) on drop.
#[must_use = "dropping the guard uninstalls the fault context"]
pub struct FaultGuard {
    prev: Option<Arc<JobFaults>>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        CTX.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Installs `ctx` as the calling thread's fault context until the guard
/// drops. Nested installs restore the outer context.
pub fn install(ctx: &Arc<JobFaults>) -> FaultGuard {
    let prev = CTX.with(|c| c.borrow_mut().replace(Arc::clone(ctx)));
    FaultGuard { prev }
}

/// Whether a fault context is installed on this thread.
pub fn is_active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Counts one occurrence of `site` for the installed job and returns
/// whether the plan fires a fault here. Emits a `FaultInjected` trace
/// event when it does. Always `false` (and counts nothing) when no
/// context is installed — injection sites cost one TLS read in
/// production.
pub fn should_inject(site: FaultSite) -> bool {
    CTX.with(|c| {
        let borrow = c.borrow();
        let Some(ctx) = borrow.as_ref() else {
            return false;
        };
        let occurrence = ctx.counts[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
        if ctx.plan.decide(site, ctx.job, occurrence) {
            ctx.fired.fetch_add(1, Ordering::Relaxed);
            octo_trace::emit(TraceKind::FaultInjected { site: site.label() });
            true
        } else {
            false
        }
    })
}

/// How the batch runner re-runs jobs whose failure was transient
/// (deadline, hang, injected fault, panic) before quarantining them.
///
/// `max_attempts` counts *total* attempts, so `1` (the default) disables
/// retry. Backoff doubles per attempt from `base_backoff` plus a
/// deterministic jitter in `[0, base_backoff)` derived from
/// `jitter_seed`, the job index, and the attempt number — never from
/// wall-clock randomness, so schedules replay exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job (first run included). `0` is treated as 1.
    pub max_attempts: u32,
    /// Base backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Seed for the deterministic jitter added to each backoff.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// No retries: a single attempt, no backoff.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and no backoff.
    pub fn attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// The backoff to sleep after `attempt` (1-based) fails for `job`:
    /// `base * 2^(attempt-1) + jitter(jitter_seed, job, attempt)`.
    pub fn backoff_for(&self, job: u32, attempt: u32) -> Duration {
        let base = u64::try_from(self.base_backoff.as_micros()).unwrap_or(u64::MAX);
        if base == 0 {
            return Duration::ZERO;
        }
        let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
        let jitter =
            splitmix64(self.jitter_seed ^ (u64::from(job) << 32) ^ u64::from(attempt)) % base;
        Duration::from_micros(exp.saturating_add(jitter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::from_label(site.label()), Some(site));
        }
        assert_eq!(FaultSite::from_label("bogus"), None);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let plan = FaultPlan::new(0).nth(FaultSite::SolverSolve, Some(4), 3);
        assert!(!plan.decide(FaultSite::SolverSolve, 4, 1));
        assert!(!plan.decide(FaultSite::SolverSolve, 4, 2));
        assert!(plan.decide(FaultSite::SolverSolve, 4, 3));
        assert!(!plan.decide(FaultSite::SolverSolve, 4, 4));
        // Other jobs and sites unaffected.
        assert!(!plan.decide(FaultSite::SolverSolve, 5, 3));
        assert!(!plan.decide(FaultSite::CacheMiss, 4, 3));
    }

    #[test]
    fn probability_edges_and_determinism() {
        let never = FaultPlan::new(7).probability(FaultSite::CacheMiss, None, 0.0);
        let always = FaultPlan::new(7).probability(FaultSite::CacheMiss, None, 1.0);
        let half = FaultPlan::new(7).probability(FaultSite::CacheMiss, None, 0.5);
        let mut fired = 0;
        for occ in 1..=1000 {
            assert!(!never.decide(FaultSite::CacheMiss, 0, occ));
            assert!(always.decide(FaultSite::CacheMiss, 0, occ));
            let a = half.decide(FaultSite::CacheMiss, 0, occ);
            let b = half.decide(FaultSite::CacheMiss, 0, occ);
            assert_eq!(a, b, "decisions must be deterministic");
            fired += u64::from(a);
        }
        assert!(
            (300..700).contains(&fired),
            "p=0.5 fired {fired}/1000 times"
        );
        // A different seed produces a different firing pattern.
        let other = FaultPlan::new(8).probability(FaultSite::CacheMiss, None, 0.5);
        assert!(
            (1..=1000).any(|occ| half.decide(FaultSite::CacheMiss, 0, occ)
                != other.decide(FaultSite::CacheMiss, 0, occ)),
            "seeds 7 and 8 agreed on all 1000 occurrences"
        );
    }

    #[test]
    fn json_round_trips() {
        let plan = FaultPlan::new(42)
            .nth(FaultSite::DirectedPanic, Some(2), 1)
            .probability(FaultSite::CacheMiss, None, 0.25)
            .nth(FaultSite::DirectedHang, Some(7), 1);
        let json = plan.render_json();
        let back = FaultPlan::parse_json(&json).expect("round-trip parse");
        assert_eq!(back, plan);
        assert_eq!(back.render_json(), json);
    }

    #[test]
    fn parse_accepts_whitespace_and_rejects_garbage() {
        let ok = FaultPlan::parse_json(
            "{ \"seed\" : 1 ,\n \"rules\" : [ { \"site\" : \"p4-replay\" , \"nth\" : 2 } ] }",
        )
        .expect("whitespace tolerated");
        assert_eq!(ok.rules().len(), 1);
        assert_eq!(ok.rules()[0].site, FaultSite::P4Replay);

        assert!(FaultPlan::parse_json("{}").is_err(), "missing keys");
        assert!(
            FaultPlan::parse_json("{\"seed\":1,\"rules\":[],\"x\":0}").is_err(),
            "unknown key"
        );
        assert!(
            FaultPlan::parse_json("{\"seed\":1,\"rules\":[{\"site\":\"nope\",\"nth\":1}]}")
                .is_err(),
            "unknown site"
        );
        assert!(
            FaultPlan::parse_json(
                "{\"seed\":1,\"rules\":[{\"site\":\"cache-miss\",\"nth\":1,\"probability\":0.5}]}"
            )
            .is_err(),
            "both triggers"
        );
        assert!(
            FaultPlan::parse_json("{\"seed\":1,\"rules\":[{\"site\":\"cache-miss\"}]}").is_err(),
            "no trigger"
        );
        assert!(
            FaultPlan::parse_json(
                "{\"seed\":1,\"rules\":[{\"site\":\"cache-miss\",\"probability\":1.5}]}"
            )
            .is_err(),
            "probability out of range"
        );
        assert!(
            FaultPlan::parse_json("{\"seed\":1,\"rules\":[]} x").is_err(),
            "trailing data"
        );
        for (text, why) in [
            ("{\"seed\":1 \"rules\":[]}", "missing comma between members"),
            (
                "{\"seed\":1,\"rules\":[],}",
                "trailing comma after the last member",
            ),
            (
                "{\"seed\":1,\"rules\":[{\"site\":\"p4-replay\",\"nth\":1},]}",
                "trailing comma in the rule array",
            ),
            (
                "{\"seed\":1,\"rules\":[{\"site\":\"p4-replay\" \"nth\":1}]}",
                "missing comma inside a rule",
            ),
            ("{\"seed\":1.5,\"rules\":[]}", "fractional seed"),
            ("{\"seed\":-1,\"rules\":[]}", "negative seed"),
        ] {
            assert!(FaultPlan::parse_json(text).is_err(), "{why}: {text}");
        }
        // An integer-valued probability (as in tests/golden/fault_plan.json)
        // is still a probability.
        let golden = FaultPlan::parse_json(
            "{\"seed\":42,\"rules\":[{\"site\":\"solver-solve\",\"job\":7,\"probability\":1}]}",
        )
        .expect("integer probability");
        assert_eq!(golden.rules()[0].trigger, Trigger::Probability(1.0));
    }

    #[test]
    fn should_inject_is_inert_without_context() {
        assert!(!is_active());
        assert!(!should_inject(FaultSite::SolverSolve));
    }

    #[test]
    fn should_inject_counts_occurrences_across_installs() {
        let plan = Arc::new(FaultPlan::new(0).nth(FaultSite::P4Replay, Some(9), 2));
        let ctx = Arc::new(JobFaults::new(&plan, 9));
        {
            let _g = install(&ctx);
            assert!(is_active());
            assert!(!should_inject(FaultSite::P4Replay)); // occurrence 1
        }
        assert!(!is_active());
        {
            // Re-install (a retry attempt): the counter carries over.
            let _g = install(&ctx);
            assert!(should_inject(FaultSite::P4Replay)); // occurrence 2 fires
            assert!(!should_inject(FaultSite::P4Replay)); // occurrence 3
        }
        assert_eq!(ctx.occurrences(FaultSite::P4Replay), 3);
        assert_eq!(ctx.fired(), 1);
    }

    #[test]
    fn nested_installs_restore_the_outer_context() {
        let plan = Arc::new(FaultPlan::new(0).nth(FaultSite::CacheMiss, None, 1));
        let outer = Arc::new(JobFaults::new(&plan, 1));
        let inner = Arc::new(JobFaults::new(&plan, 2));
        let _a = install(&outer);
        {
            let _b = install(&inner);
            assert!(should_inject(FaultSite::CacheMiss));
        }
        assert_eq!(inner.occurrences(FaultSite::CacheMiss), 1);
        // Back on the outer context: its own counter starts fresh.
        assert!(should_inject(FaultSite::CacheMiss));
        assert_eq!(outer.occurrences(FaultSite::CacheMiss), 1);
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(100),
            jitter_seed: 99,
        };
        for job in 0..8u32 {
            for attempt in 1..=3u32 {
                let a = p.backoff_for(job, attempt);
                assert_eq!(
                    a,
                    p.backoff_for(job, attempt),
                    "jitter must be seeded, not random"
                );
                let exp = 100u64 << (attempt - 1);
                let micros = u64::try_from(a.as_micros()).unwrap();
                assert!(
                    (exp..exp + 100).contains(&micros),
                    "attempt {attempt}: backoff {micros}us outside [{exp}, {})",
                    exp + 100
                );
            }
        }
        // Jitter varies across jobs (not a constant).
        let spread: std::collections::HashSet<u128> = (0..16u32)
            .map(|j| p.backoff_for(j, 1).as_micros())
            .collect();
        assert!(spread.len() > 1, "jitter identical for all jobs");
        assert_eq!(RetryPolicy::default().backoff_for(3, 1), Duration::ZERO);
    }
}
