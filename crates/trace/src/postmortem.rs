//! Post-mortem reports for jobs that ended not-triggerable or on a
//! deadline: what event decided the verdict, where the last state died,
//! and the tail of the flight record.

use crate::TraceEvent;

/// Why a verification job failed to trigger, reconstructed from the
/// flight record and the dying state. Attached to the verification
/// report on any not-triggerable or deadline verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct PostMortem {
    /// The deciding event: `"loop-dead"`, `"program-dead"`, `"unsat"`,
    /// `"ep-unreachable"`, or `"deadline"`.
    pub event: String,
    /// `ep` entries the dying state had stitched when it died.
    pub ep_entries: u32,
    /// Total `ep` entries the crashing path needed (from P1).
    pub total_entries: u32,
    /// Path-condition size of the dying state.
    pub constraints: u64,
    /// The most recent constraint on the dying path, if any.
    pub last_constraint: Option<String>,
    /// One-sentence human explanation of where verification stopped.
    pub detail: String,
    /// The last recorded flight-record events of this job, oldest
    /// first. Empty when no recorder was installed.
    pub tail: Vec<TraceEvent>,
}

impl PostMortem {
    /// Multi-line human rendering (no trailing newline).
    pub fn render_human(&self) -> String {
        let mut out = format!(
            "post-mortem: {} at ep entry {}/{} ({} constraints)",
            self.event, self.ep_entries, self.total_entries, self.constraints
        );
        if let Some(c) = &self.last_constraint {
            out.push_str(&format!("\n  last constraint: {c}"));
        }
        out.push_str(&format!("\n  {}", self.detail));
        if !self.tail.is_empty() {
            out.push_str(&format!("\n  last {} events:", self.tail.len()));
            for e in &self.tail {
                out.push_str(&format!("\n    {}", e.render_human()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlightRecorder, TraceKind};

    fn sample() -> PostMortem {
        let rec = FlightRecorder::new(8);
        rec.record(0, 0, TraceKind::LoopRetry { visits: 9 });
        rec.record(
            0,
            0,
            TraceKind::StateDead {
                reason: "branch-dead",
                ep_entries: 1,
                constraints: 4,
            },
        );
        PostMortem {
            event: "loop-dead".into(),
            ep_entries: 1,
            total_entries: 3,
            constraints: 4,
            last_constraint: Some("f[2] == 0x41".into()),
            detail: "every candidate exceeded the loop budget".into(),
            tail: rec.snapshot(),
        }
    }

    #[test]
    fn human_rendering_names_event_and_entry_count() {
        let text = sample().render_human();
        assert!(text.contains("loop-dead"), "{text}");
        assert!(text.contains("ep entry 1/3"), "{text}");
        assert!(text.contains("last constraint: f[2] == 0x41"), "{text}");
        assert!(text.contains("last 2 events:"), "{text}");
    }
}
