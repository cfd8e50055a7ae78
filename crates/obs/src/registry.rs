//! Lock-free metric primitives and the registry that names them.
//!
//! The hot path never takes a lock: [`MetricsRegistry`] hands out
//! [`Arc`] handles once (registration locks a `Mutex` around a
//! `BTreeMap`), and every subsequent `inc`/`observe` is a relaxed
//! atomic operation. Worker threads can share one registry directly,
//! or keep private registries and [`MetricsRegistry::merge_from`] them
//! at the end of a batch.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the count to `v` if `v` is larger. Mirrors a monotonic
    /// source statistic (cache hits, watchdog firings) into the counter:
    /// re-syncing any number of times, from any thread, never
    /// double-bills.
    pub fn raise_to(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value / high-watermark gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (peak tracking).
    pub fn record_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets are defined by their inclusive upper bounds plus an implicit
/// `+Inf` bucket, Prometheus-style. Observation is two relaxed
/// `fetch_add`s plus min/max maintenance — no locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last one is `+Inf`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first observation.
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive bucket upper bounds.
    /// Bounds must be strictly increasing.
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// The configured bucket upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation, or `None` if the histogram is empty.
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }

    /// Largest observation, or `None` if the histogram is empty.
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// Per-bucket counts including the final `+Inf` bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The q-th quantile (q clamped to `[0, 1]`; NaN treated as 0),
    /// reported as the upper bound of the bucket holding the q-th
    /// observation — or the observed maximum for the `+Inf` bucket.
    ///
    /// Returns `None` when the histogram is empty, so an empty batch
    /// never produces a NaN or a division by zero downstream.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        // Rank of the wanted observation, in [1, count].
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(match self.bounds.get(idx) {
                    Some(&bound) => bound,
                    None => self.max.load(Ordering::Relaxed),
                });
            }
        }
        // Unreachable while count() is consistent with the buckets, but
        // a racing observer should degrade gracefully, not panic.
        Some(self.max.load(Ordering::Relaxed))
    }

    /// Folds another histogram with identical bounds into this one.
    ///
    /// The merged histogram is exactly the histogram of the concatenated
    /// observation streams (bucket counts, count, and sum add; min/max
    /// combine).
    ///
    /// # Panics
    /// If the bucket bounds differ.
    pub fn merge_from(&self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A point-in-time value capture of every registered metric, taken
/// under a single registry lock so the name set is consistent (the
/// values themselves are relaxed loads, like any other read).
///
/// Histograms collapse to their `(count, sum)` pair — enough for rate
/// and mean-latency deltas without copying bucket vectors on every
/// sampling tick.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram `(count, sum)` by name.
    pub histograms: BTreeMap<String, (u64, u64)>,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a short lock and
/// returns an [`Arc`] handle; recording through the handle is lock-free.
/// Names render in sorted order, so JSON and Prometheus output are
/// deterministic for a fixed registration set.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    /// Info-style labels attached to gauges (e.g. a build-info metric's
    /// `version`). Kept out of [`Metric`] so the hot path stays a plain
    /// atomic; renderers consult this map when printing.
    info_labels: Mutex<BTreeMap<String, Vec<(String, String)>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter registered under `name`, creating it at zero
    /// on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.metrics.lock().unwrap();
        let metric = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the gauge registered under `name`, creating it at zero on
    /// first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.metrics.lock().unwrap();
        let metric = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())));
        match metric {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Returns the histogram registered under `name`, creating it with
    /// the given bucket bounds on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different kind or with
    /// different bounds.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut map = self.metrics.lock().unwrap();
        let metric = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))));
        match metric {
            Metric::Histogram(h) => {
                assert_eq!(
                    h.bounds(),
                    bounds,
                    "metric `{name}` re-registered with different bounds"
                );
                Arc::clone(h)
            }
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Registers an info-style metric: a gauge pinned at `1` whose
    /// payload is its labels (Prometheus `foo_info{version="…"} 1`
    /// convention). Re-registration overwrites the labels.
    ///
    /// # Panics
    /// If `name` is already registered as a non-gauge kind.
    pub fn info(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let gauge = self.gauge(name);
        gauge.set(1);
        self.info_labels.lock().unwrap().insert(
            name.to_string(),
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        );
        gauge
    }

    /// The info labels registered for `name`, if any.
    pub fn info_labels(&self, name: &str) -> Option<Vec<(String, String)>> {
        self.info_labels.lock().unwrap().get(name).cloned()
    }

    /// Captures every metric's current value under one lock (see
    /// [`MetricsSnapshot`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), (h.count(), h.sum()));
                }
            }
        }
        snap
    }

    /// Looks up a counter without creating it.
    pub fn get_counter(&self, name: &str) -> Option<Arc<Counter>> {
        match self.metrics.lock().unwrap().get(name) {
            Some(Metric::Counter(c)) => Some(Arc::clone(c)),
            _ => None,
        }
    }

    /// Looks up a gauge without creating it.
    pub fn get_gauge(&self, name: &str) -> Option<Arc<Gauge>> {
        match self.metrics.lock().unwrap().get(name) {
            Some(Metric::Gauge(g)) => Some(Arc::clone(g)),
            _ => None,
        }
    }

    /// Looks up a histogram without creating it.
    pub fn get_histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        match self.metrics.lock().unwrap().get(name) {
            Some(Metric::Histogram(h)) => Some(Arc::clone(h)),
            _ => None,
        }
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.metrics.lock().unwrap().keys().cloned().collect()
    }

    /// Folds `other` into this registry: counters add, gauges keep the
    /// maximum (they track peaks), histograms merge bucket-wise. Metrics
    /// only present in `other` are created here.
    ///
    /// # Panics
    /// If a name is registered with different kinds (or histogram
    /// bounds) in the two registries.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        let theirs = other.metrics.lock().unwrap().clone();
        for (name, metric) in theirs {
            match metric {
                Metric::Counter(c) => self.counter(&name).add(c.get()),
                Metric::Gauge(g) => self.gauge(&name).record_max(g.get()),
                Metric::Histogram(h) => self.histogram(&name, h.bounds()).merge_from(&h),
            }
        }
        let their_labels = other.info_labels.lock().unwrap().clone();
        let mut mine = self.info_labels.lock().unwrap();
        for (name, labels) in their_labels {
            mine.entry(name).or_insert(labels);
        }
    }

    /// Renders every metric as JSON: `{"metrics":[...]}` with one object
    /// per line, sorted by name. Empty histograms render with zeroed
    /// statistics — never NaN and never a division by zero.
    pub fn render_json(&self) -> String {
        let map = self.metrics.lock().unwrap();
        let labels = self.info_labels.lock().unwrap();
        let mut out = String::from("{\"metrics\":[\n");
        let mut first = true;
        for (name, metric) in map.iter() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!(
                        "{{\"name\":\"{name}\",\"type\":\"counter\",\"value\":{}}}",
                        c.get()
                    ));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "{{\"name\":\"{name}\",\"type\":\"gauge\",\"value\":{}",
                        g.get()
                    ));
                    if let Some(pairs) = labels.get(name) {
                        out.push_str(",\"labels\":{");
                        for (i, (k, v)) in pairs.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            out.push_str(&format!(
                                "\"{}\":\"{}\"",
                                label_escape(k),
                                label_escape(v)
                            ));
                        }
                        out.push('}');
                    }
                    out.push('}');
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"name\":\"{name}\",\"type\":\"histogram\",\"count\":{},\"sum\":{},\
                         \"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                        h.count(),
                        h.sum(),
                        h.min().unwrap_or(0),
                        h.max().unwrap_or(0),
                        h.quantile(0.50).unwrap_or(0),
                        h.quantile(0.90).unwrap_or(0),
                        h.quantile(0.99).unwrap_or(0),
                    ));
                    let counts = h.bucket_counts();
                    for (i, count) in counts.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        match h.bounds().get(i) {
                            Some(b) => out.push_str(&format!("{{\"le\":{b},\"count\":{count}}}")),
                            None => out.push_str(&format!("{{\"le\":\"+Inf\",\"count\":{count}}}")),
                        }
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (histogram buckets cumulative, with the standard `_bucket`,
    /// `_sum`, `_count` series).
    pub fn render_prometheus(&self) -> String {
        let map = self.metrics.lock().unwrap();
        let labels = self.info_labels.lock().unwrap();
        let mut out = String::new();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
                }
                Metric::Gauge(g) => match labels.get(name) {
                    Some(pairs) => {
                        let rendered: Vec<String> = pairs
                            .iter()
                            .map(|(k, v)| format!("{}=\"{}\"", label_escape(k), label_escape(v)))
                            .collect();
                        out.push_str(&format!(
                            "# TYPE {name} gauge\n{name}{{{}}} {}\n",
                            rendered.join(","),
                            g.get()
                        ));
                    }
                    None => {
                        out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
                    }
                },
                Metric::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cumulative = 0u64;
                    let counts = h.bucket_counts();
                    for (i, count) in counts.iter().enumerate() {
                        cumulative += count;
                        match h.bounds().get(i) {
                            Some(b) => {
                                out.push_str(&format!("{name}_bucket{{le=\"{b}\"}} {cumulative}\n"))
                            }
                            None => out
                                .push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n")),
                        }
                    }
                    out.push_str(&format!("{name}_sum {}\n", h.sum()));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                }
            }
        }
        out
    }
}

/// Escapes a label key/value for both JSON and the Prometheus text
/// format (quotes, backslashes, newlines — the characters the two
/// grammars share as specials).
fn label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("jobs_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(reg.counter("jobs_total").get(), 5, "same handle by name");
        c.raise_to(3);
        assert_eq!(c.get(), 5, "raise_to never lowers");
        c.raise_to(8);
        c.raise_to(8);
        assert_eq!(c.get(), 8, "raise_to is idempotent");

        let g = reg.gauge("peak_bytes");
        g.record_max(10);
        g.record_max(7);
        assert_eq!(g.get(), 10, "record_max keeps the peak");
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_count_and_quantiles() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 5, 10, 11, 99, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5126);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(5000));
        assert_eq!(h.bucket_counts(), vec![3, 2, 0, 1]);
        assert_eq!(h.quantile(0.0), Some(10));
        assert_eq!(h.quantile(0.5), Some(10));
        assert_eq!(h.quantile(0.75), Some(100));
        // The top observation lives in +Inf: quantile reports the max.
        assert_eq!(h.quantile(1.0), Some(5000));
    }

    #[test]
    fn empty_histogram_yields_none_not_nan() {
        let h = Histogram::new(&[10]);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(f64::NAN), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);

        let reg = MetricsRegistry::new();
        reg.histogram("empty_micros", &[10]);
        let json = reg.render_json();
        assert!(!json.contains("NaN"), "{json}");
        assert!(json.contains("\"count\":0"));
        assert!(json.contains("\"p50\":0"));
    }

    #[test]
    fn quantile_handles_weird_q_values() {
        let h = Histogram::new(&[10]);
        h.observe(3);
        assert_eq!(h.quantile(-1.0), Some(10));
        assert_eq!(h.quantile(2.0), Some(10));
        assert_eq!(h.quantile(f64::NAN), Some(10));
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("steps").add(3);
        b.counter("steps").add(4);
        a.gauge("peak").record_max(10);
        b.gauge("peak").record_max(25);
        b.counter("only_in_b").add(1);
        a.merge_from(&b);
        assert_eq!(a.counter("steps").get(), 7);
        assert_eq!(a.gauge("peak").get(), 25);
        assert_eq!(a.counter("only_in_b").get(), 1);
    }

    #[test]
    fn renderers_are_sorted_and_parseable_shapes() {
        let reg = MetricsRegistry::new();
        reg.counter("zzz_total").inc();
        reg.gauge("aaa_gauge").set(2);
        let h = reg.histogram("mmm_micros", &[10, 100]);
        h.observe(7);

        let json = reg.render_json();
        let a = json.find("aaa_gauge").unwrap();
        let m = json.find("mmm_micros").unwrap();
        let z = json.find("zzz_total").unwrap();
        assert!(a < m && m < z, "sorted by name");
        assert!(json.contains("\"le\":\"+Inf\""));

        let prom = reg.render_prometheus();
        assert!(prom.contains("# TYPE zzz_total counter\nzzz_total 1\n"));
        assert!(prom.contains("mmm_micros_bucket{le=\"10\"} 1"));
        assert!(
            prom.contains("mmm_micros_bucket{le=\"+Inf\"} 1"),
            "cumulative"
        );
        assert!(prom.contains("mmm_micros_count 1"));
    }

    #[test]
    fn concurrent_observation_loses_nothing() {
        let reg = Arc::new(MetricsRegistry::new());
        let h = reg.histogram("lat", &[8, 64]);
        let c = reg.counter("n");
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let (h, c) = (Arc::clone(&h), Arc::clone(&c));
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.observe(t * 31 + i % 100);
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 4000);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.gauge("x");
        reg.counter("x");
    }

    #[test]
    fn info_metric_renders_labels_in_both_formats() {
        let reg = MetricsRegistry::new();
        reg.info("octopocs_build_info", &[("version", "1.2.3")]);
        assert_eq!(reg.gauge("octopocs_build_info").get(), 1);
        assert_eq!(
            reg.info_labels("octopocs_build_info").unwrap(),
            vec![("version".to_string(), "1.2.3".to_string())]
        );

        let prom = reg.render_prometheus();
        assert!(
            prom.contains("octopocs_build_info{version=\"1.2.3\"} 1"),
            "{prom}"
        );
        let json = reg.render_json();
        assert!(json.contains("\"name\":\"octopocs_build_info\""), "{json}");
        assert!(
            json.contains("\"labels\":{\"version\":\"1.2.3\"}"),
            "{json}"
        );
    }

    #[test]
    fn info_labels_survive_merge_and_escape_specials() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        b.info("build_info", &[("version", "a\"b\\c")]);
        a.merge_from(&b);
        assert_eq!(a.gauge("build_info").get(), 1);
        let prom = a.render_prometheus();
        assert!(
            prom.contains("build_info{version=\"a\\\"b\\\\c\"} 1"),
            "{prom}"
        );
    }

    #[test]
    fn snapshot_captures_all_three_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total").add(3);
        reg.gauge("g_depth").set(7);
        let h = reg.histogram("h_micros", &[10]);
        h.observe(4);
        h.observe(40);

        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("c_total"), Some(&3));
        assert_eq!(snap.gauges.get("g_depth"), Some(&7));
        assert_eq!(snap.histograms.get("h_micros"), Some(&(2, 44)));
    }
}
