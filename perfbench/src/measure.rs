//! Percentiles, process counters, the benchmark's own event sink, and
//! the correctness and determinism gate every run passes through.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Mutex;
use std::time::Instant;

use octo_sched::{Event, EventKind, EventSink};
use octopocs::VerificationReport;

use crate::calib;
use crate::gen::Expect;

/// One stretch of a timed pass (a batch, or a segment of the serving
/// loop) and the jobs that finished in it.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub base: Vec<u32>,
    pub service_ms: Vec<f64>,
    pub verdict_ms: Vec<f64>,
    /// Seconds of each set-up repetition timed just before the window.
    pub setup_s: Vec<f64>,
    /// Seconds of the calibration kernel around the window (0 when the
    /// window was not calibrated).
    pub cal_s: f64,
}

impl Window {
    /// This window with its times scaled to the reference host speed (see
    /// `calib`). With `cpu_only`, only the times the CPU spends are
    /// scaled (service and set-up times, CPU time); wall-clock spans that
    /// include the daemon's fixed sleeps (verdict latency, the window's
    /// length) are left as measured. An uncalibrated window is returned
    /// as it is.
    pub fn at_reference(&self, cpu_only: bool) -> Window {
        if self.cal_s <= 0.0 {
            return self.clone();
        }
        let k = calib::REFERENCE_S / self.cal_s;
        let wall_k = if cpu_only { 1.0 } else { k };
        let scale = |v: &[f64], k: f64| v.iter().map(|x| x * k).collect();
        Window {
            wall_s: self.wall_s * wall_k,
            cpu_s: self.cpu_s * k,
            base: self.base.clone(),
            service_ms: scale(&self.service_ms, k),
            verdict_ms: scale(&self.verdict_ms, wall_k),
            setup_s: scale(&self.setup_s, k),
            cal_s: calib::REFERENCE_S,
        }
    }

    /// All of `windows` merged into one.
    pub fn all(windows: &[Window]) -> Window {
        let mut all = Window::default();
        for w in windows {
            all.wall_s += w.wall_s;
            all.cpu_s += w.cpu_s;
            all.base.extend(&w.base);
            all.service_ms.extend(&w.service_ms);
            all.verdict_ms.extend(&w.verdict_ms);
            all.setup_s.extend(&w.setup_s);
        }
        all
    }
}

pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Ascending copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank `q`-quantile of ascending `sorted` (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match rank(sorted.len(), q) {
        0 => 0.0,
        r => sorted[r - 1],
    }
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        ((q * n as f64).ceil() as usize).clamp(1, n)
    }
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// User plus system CPU seconds of this process over all its threads,
/// exited ones included: fields 14 and 15 of `/proc/self/stat`, in the
/// kernel's fixed USER_HZ of 100 ticks per second.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the fields after it start at 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's own event sink: stamps `JobStarted` and `JobFinished`
/// with the benchmark's clock as they arrive.
#[derive(Default)]
pub struct StampSink {
    stamps: Mutex<Vec<(usize, bool, Instant)>>,
}

impl EventSink for StampSink {
    fn emit(&self, event: Event) {
        let started = match event.kind {
            EventKind::JobStarted { .. } => true,
            EventKind::JobFinished { .. } => false,
            _ => return,
        };
        let now = Instant::now();
        self.stamps
            .lock()
            .expect("stamp sink poisoned")
            .push((event.job(), started, now));
    }
}

impl StampSink {
    /// `(started, finished)` of every job that finished, by job index.
    pub fn spans(&self) -> BTreeMap<usize, (Instant, Instant)> {
        let stamps = self.stamps.lock().expect("stamp sink poisoned");
        let mut started = BTreeMap::new();
        let mut spans = BTreeMap::new();
        for &(job, is_start, at) in stamps.iter() {
            if is_start {
                started.insert(job, at);
            } else if let Some(&from) = started.get(&job) {
                spans.insert(job, (from, at));
            }
        }
        spans
    }
}

/// The work one job did, in counts that must repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub steps: u64,
    pub solves: u64,
    pub p1_insts: u64,
    pub p4_insts: u64,
}

impl Counts {
    fn plus(self, other: Counts) -> Counts {
        Counts {
            steps: self.steps + other.steps,
            solves: self.solves + other.solves,
            p1_insts: self.p1_insts + other.p1_insts,
            p4_insts: self.p4_insts + other.p4_insts,
        }
    }

    pub fn minus(self, other: Counts) -> Counts {
        Counts {
            steps: self.steps.wrapping_sub(other.steps),
            solves: self.solves.wrapping_sub(other.solves),
            p1_insts: self.p1_insts.wrapping_sub(other.p1_insts),
            p4_insts: self.p4_insts.wrapping_sub(other.p4_insts),
        }
    }

    pub fn of(report: &VerificationReport) -> Counts {
        let symex = report.symex_stats.as_ref();
        Counts {
            steps: symex.map_or(0, |s| s.total_steps),
            solves: symex.map_or(0, |s| s.solver_calls),
            p1_insts: report.p1_insts,
            p4_insts: report.p4_insts,
        }
    }
}

/// Whether a verdict reproduces its base pair's Table II row.
pub fn verdict_ok(
    expect: &Expect,
    label: &str,
    poc_generated: bool,
    verified: bool,
    quarantined: bool,
) -> bool {
    !quarantined
        && label == expect.label
        && poc_generated == expect.poc_generated
        && verified == expect.verified
}

/// Every job of one base pair, untraced or traced, must do the same work.
/// A run whose counts diverge measures a different program, so it is
/// aborted rather than reported.
#[derive(Default)]
pub struct Gate {
    by_base: BTreeMap<u32, Counts>,
}

impl Gate {
    pub fn check(&mut self, base: u32, job: &str, counts: Counts) -> Result<(), String> {
        match self.by_base.entry(base) {
            Entry::Vacant(slot) => {
                slot.insert(counts);
                Ok(())
            }
            Entry::Occupied(slot) if *slot.get() == counts => Ok(()),
            Entry::Occupied(slot) => Err(format!(
                "determinism gate: {job} did {counts:?}, earlier idx{base:02} jobs did {:?}",
                slot.get()
            )),
        }
    }

    pub fn counts(&self, base: u32) -> Option<Counts> {
        self.by_base.get(&base).copied()
    }

    /// The summed counts of one job of each of `bases` (repeats counted
    /// again), for checking a total that only a daemon's metrics report.
    pub fn total(&self, bases: impl IntoIterator<Item = u32>) -> Result<Counts, String> {
        bases.into_iter().try_fold(Counts::default(), |sum, base| {
            self.counts(base)
                .map(|c| sum.plus(c))
                .ok_or_else(|| format!("determinism gate: no idx{base:02} job was seeded"))
        })
    }
}
