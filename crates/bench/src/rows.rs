//! Serialisable row types for each regenerated table.

use octo_serve::json::{parse_json, JsonValue};

use crate::json::JsonRow;

fn num(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

fn opt_num(v: Option<f64>) -> JsonValue {
    v.map_or(JsonValue::Null, JsonValue::Num)
}

fn s(v: &str) -> JsonValue {
    JsonValue::Str(v.to_string())
}

fn opt_s(v: &Option<String>) -> JsonValue {
    v.as_ref().map_or(JsonValue::Null, |x| s(x))
}

/// One Table II row as produced by this reproduction.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Table II index.
    pub idx: u32,
    /// Original software (name + version).
    pub s: String,
    /// Target software (name + version).
    pub t: String,
    /// Vulnerability identifier.
    pub vuln_id: String,
    /// CWE class label.
    pub cwe: String,
    /// Measured classification (Type-I/II/III/Failure).
    pub measured: String,
    /// Expected (paper) classification.
    pub expected: String,
    /// Whether `poc'` was generated (`O`/`X` column).
    pub poc_generated: bool,
    /// Whether verification succeeded (`O`/`X` column).
    pub verified: bool,
    /// Pipeline wall-clock seconds.
    pub wall_seconds: f64,
}

impl JsonRow for Table2Row {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("idx", num(f64::from(self.idx))),
            ("s", s(&self.s)),
            ("t", s(&self.t)),
            ("vuln_id", s(&self.vuln_id)),
            ("cwe", s(&self.cwe)),
            ("measured", s(&self.measured)),
            ("expected", s(&self.expected)),
            ("poc_generated", JsonValue::Bool(self.poc_generated)),
            ("verified", JsonValue::Bool(self.verified)),
            ("wall_seconds", num(self.wall_seconds)),
        ]
    }
}

/// One Table III row: context-aware vs context-free taint analysis.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Table II index (1–9, the triggerable pairs).
    pub idx: u32,
    /// Original software.
    pub s: String,
    /// Target software.
    pub t: String,
    /// Whether the context-free baseline verified the vulnerability.
    pub plain_taint_ok: bool,
    /// Whether context-aware taint verified the vulnerability.
    pub context_aware_ok: bool,
}

impl JsonRow for Table3Row {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("idx", num(f64::from(self.idx))),
            ("s", s(&self.s)),
            ("t", s(&self.t)),
            ("plain_taint_ok", JsonValue::Bool(self.plain_taint_ok)),
            ("context_aware_ok", JsonValue::Bool(self.context_aware_ok)),
        ]
    }
}

/// One Table IV row: naive vs directed symbolic execution.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Original software.
    pub s: String,
    /// Target software.
    pub t: String,
    /// Naive elapsed wall seconds (`None` = failed before finishing).
    pub naive_seconds: Option<f64>,
    /// Naive simulated memory (MB); `None` with `naive_mem_error` set
    /// reproduces the paper's `MemError` cell.
    pub naive_ram_mb: Option<f64>,
    /// Whether naive exploration aborted with a memory error.
    pub naive_mem_error: bool,
    /// Directed elapsed wall seconds.
    pub directed_seconds: f64,
    /// Directed simulated memory (MB).
    pub directed_ram_mb: f64,
}

impl JsonRow for Table4Row {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("s", s(&self.s)),
            ("t", s(&self.t)),
            ("naive_seconds", opt_num(self.naive_seconds)),
            ("naive_ram_mb", opt_num(self.naive_ram_mb)),
            ("naive_mem_error", JsonValue::Bool(self.naive_mem_error)),
            ("directed_seconds", num(self.directed_seconds)),
            ("directed_ram_mb", num(self.directed_ram_mb)),
        ]
    }
}

/// One Table V row: elapsed time to verification per tool.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Original software.
    pub s: String,
    /// Target software.
    pub t: String,
    /// AFLFast virtual seconds to verification (`None` = N/A in budget).
    pub aflfast_seconds: Option<f64>,
    /// AFLGo virtual seconds (`None` = N/A; see `aflgo_error`).
    pub aflgo_seconds: Option<f64>,
    /// AFLGo tool error (the Table V `Error†` cell).
    pub aflgo_error: Option<String>,
    /// OctoPoCs seconds to verification.
    pub octopocs_seconds: f64,
}

impl JsonRow for Table5Row {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("s", s(&self.s)),
            ("t", s(&self.t)),
            ("aflfast_seconds", opt_num(self.aflfast_seconds)),
            ("aflgo_seconds", opt_num(self.aflgo_seconds)),
            ("aflgo_error", opt_s(&self.aflgo_error)),
            ("octopocs_seconds", num(self.octopocs_seconds)),
        ]
    }
}

impl Table5Row {
    /// Parses a row back from its [`crate::json::to_json`] form (used to
    /// keep the serialisation round-trip testable without serde).
    pub fn from_json(input: &str) -> Result<Table5Row, String> {
        let doc = parse_json(input)?;
        let get = |k: &str| doc.get(k).ok_or_else(|| format!("missing field {k}"));
        Ok(Table5Row {
            s: get("s")?.as_str().ok_or("s: not a string")?.to_string(),
            t: get("t")?.as_str().ok_or("t: not a string")?.to_string(),
            aflfast_seconds: get("aflfast_seconds")?.as_f64(),
            aflgo_seconds: get("aflgo_seconds")?.as_f64(),
            aflgo_error: get("aflgo_error")?.as_str().map(str::to_string),
            octopocs_seconds: get("octopocs_seconds")?
                .as_f64()
                .ok_or("octopocs_seconds: not a number")?,
        })
    }
}

/// One `trace-overhead` row: corpus batch wall time with the flight
/// recorder off, recording into the ring, or recording plus a Chrome
/// trace export (see `docs/observability.md`).
#[derive(Debug, Clone)]
pub struct TraceOverheadRow {
    /// `"off"`, `"ring"`, or `"chrome-export"`.
    pub mode: String,
    /// Best-of-N batch wall seconds in this mode.
    pub seconds: f64,
    /// Trace events recorded (0 with the recorder off).
    pub events: u64,
    /// Chrome export size in bytes (0 unless exporting).
    pub export_bytes: u64,
    /// Wall-time overhead versus the `off` baseline, percent.
    pub overhead_pct: f64,
}

impl JsonRow for TraceOverheadRow {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("mode", s(&self.mode)),
            ("seconds", num(self.seconds)),
            ("events", num(self.events as f64)),
            ("export_bytes", num(self.export_bytes as f64)),
            ("overhead_pct", num(self.overhead_pct)),
        ]
    }
}

/// One `scope_overhead` row: corpus wall time through the in-process
/// daemon with the octo-scope observability plane off versus serving
/// live HTTP scrapes plus rate sampling (see `docs/observability.md`).
#[derive(Debug, Clone)]
pub struct ScopeOverheadRow {
    /// `"off"` or `"scope"`.
    pub mode: String,
    /// Best-of-N daemon-corpus wall seconds in this mode.
    pub seconds: f64,
    /// `/metrics` + `/jobs/<id>` scrapes served during the best run
    /// (0 with the plane off).
    pub scrapes: u64,
    /// Registry snapshots taken by the rate sampler during the best
    /// run (0 with the plane off).
    pub samples: u64,
    /// Wall-time overhead versus the `off` baseline, percent.
    pub overhead_pct: f64,
}

impl JsonRow for ScopeOverheadRow {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("mode", s(&self.mode)),
            ("seconds", num(self.seconds)),
            ("scrapes", num(self.scrapes as f64)),
            ("samples", num(self.samples as f64)),
            ("overhead_pct", num(self.overhead_pct)),
        ]
    }
}

/// One `clone_throughput` row: fingerprinting / retrieval / scan-expansion
/// throughput over the Table II corpus (see `docs/clone-scanning.md`).
#[derive(Debug, Clone)]
pub struct CloneBenchRow {
    /// `"fingerprint"`, `"retrieve"`, or `"expand"`.
    pub stage: String,
    /// Work items processed per iteration (functions for
    /// `fingerprint`, program pairs for `retrieve`, expanded jobs for
    /// `expand`).
    pub items: u64,
    /// Best-of-N wall seconds for one full pass.
    pub seconds: f64,
    /// `items / seconds` for the best pass.
    pub items_per_sec: f64,
}

impl JsonRow for CloneBenchRow {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("stage", s(&self.stage)),
            ("items", num(self.items as f64)),
            ("seconds", num(self.seconds)),
            ("items_per_sec", num(self.items_per_sec)),
        ]
    }
}

/// One `cache_warm` row: corpus batch wall time against a cold (empty)
/// versus warm (pre-seeded) disk artifact cache (see `docs/caching.md`).
#[derive(Debug, Clone)]
pub struct CacheWarmRow {
    /// `"cold"` or `"warm"`.
    pub mode: String,
    /// Best-of-N batch wall seconds in this mode.
    pub seconds: f64,
    /// Disk-cache hits during the best run (0 cold).
    pub disk_hits: u64,
    /// Blobs published during the best run (0 warm).
    pub disk_writes: u64,
    /// Wall-time saving versus the `cold` baseline, percent (0 cold).
    pub saving_pct: f64,
}

impl JsonRow for CacheWarmRow {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("mode", s(&self.mode)),
            ("seconds", num(self.seconds)),
            ("disk_hits", num(self.disk_hits as f64)),
            ("disk_writes", num(self.disk_writes as f64)),
            ("saving_pct", num(self.saving_pct)),
        ]
    }
}

/// Helper: `O`/`X` cells like the paper's tables.
pub fn ox(b: bool) -> String {
    if b {
        "O".into()
    } else {
        "X".into()
    }
}

/// Helper: optional seconds cell (`N/A` when absent).
pub fn secs(v: Option<f64>) -> String {
    match v {
        Some(s) => format!("{s:.2}"),
        None => "N/A".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::to_json;

    #[test]
    fn cells() {
        assert_eq!(ox(true), "O");
        assert_eq!(ox(false), "X");
        assert_eq!(secs(Some(1.234)), "1.23");
        assert_eq!(secs(None), "N/A");
    }

    #[test]
    fn rows_serialize() {
        let row = Table5Row {
            s: "gif2png".into(),
            t: "gif2png (arti.)".into(),
            aflfast_seconds: Some(201.0),
            aflgo_seconds: None,
            aflgo_error: None,
            octopocs_seconds: 1.0,
        };
        let json = to_json(&row);
        let back = Table5Row::from_json(&json).unwrap();
        assert_eq!(back.s, "gif2png");
        assert_eq!(back.aflfast_seconds, Some(201.0));
        assert_eq!(back.aflgo_seconds, None);
        assert_eq!(back.octopocs_seconds, 1.0);
    }
}
