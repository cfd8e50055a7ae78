//! The daemon's durable journal: an append-only file of line-delimited
//! JSON records.
//!
//! Two record kinds, mirroring the wire protocol's types:
//!
//! ```text
//! {"journal":"job","id":3,"job":{…JobSpec fields…}}
//! {"journal":"verdict","id":3,"verdict":{…VerdictSummary fields…}}
//! ```
//!
//! A job is journaled *before* it is enqueued; its verdict is journaled
//! only when it completes for real (cancelled/drained outcomes are
//! deliberately not journaled). On restart the daemon replays the file:
//! jobs with verdicts are restored as done, jobs without are resubmitted
//! under their **original ids**, so a batch interrupted by a crash
//! converges to the same results as an uninterrupted run. A torn final
//! line (the process died mid-append) is ignored and cut off the file,
//! so the next append starts a line of its own; corruption anywhere
//! else is an error.
//!
//! The journal is the only place a job's program text is kept once the
//! job has started: compaction copies the `job` lines of the jobs a
//! restart must run from the file itself.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::parse_json;
use crate::proto::{parse_jobspec, render_jobspec_fields, JobSpec, VerdictSummary};

/// What a journal file contained when it was opened.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every journaled job, in append (= id) order.
    pub jobs: Vec<(u64, JobSpec)>,
    /// Verdicts for the jobs that completed, by id.
    pub verdicts: BTreeMap<u64, VerdictSummary>,
}

/// An open journal. All appends flush before returning so a record is
/// on its way to disk before the daemon acts on it.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` and replays its
    /// existing records. A torn final line is cut off and a final record
    /// that lacks its newline gets one, so the next append starts a line
    /// of its own.
    pub fn open(path: &Path) -> Result<(Journal, Replay), String> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        let mut text = String::new();
        file.read_to_string(&mut text)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        let (replay, whole) = Journal::replay(&text)?;
        let repaired = if whole < text.len() {
            file.set_len(whole as u64)
        } else if !text.is_empty() && !text.ends_with('\n') {
            file.write_all(b"\n")
        } else {
            Ok(())
        };
        repaired.map_err(|e| format!("cannot repair journal tail {}: {e}", path.display()))?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file: Mutex::new(file),
            },
            replay,
        ))
    }

    /// Replays `text`. Also returns the length of its prefix of whole
    /// lines: all of `text` unless the final line is torn.
    fn replay(text: &str) -> Result<(Replay, usize), String> {
        let mut replay = Replay::default();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let last = lines.len().saturating_sub(1);
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match Journal::parse_record(line) {
                Ok(Record::Job { id, job }) => replay.jobs.push((id, job)),
                Ok(Record::Verdict { id, verdict }) => {
                    replay.verdicts.insert(id, verdict);
                }
                // The process died mid-append: a torn final line is
                // expected and dropped. Torn *interior* lines mean the
                // file was corrupted some other way — refuse to guess.
                Err(_) if i == last => return Ok((replay, text.len() - line.len())),
                Err(e) => return Err(format!("journal line {}: {e}", i + 1)),
            }
        }
        Ok((replay, text.len()))
    }

    fn parse_record(line: &str) -> Result<Record, String> {
        let v = parse_json(line)?;
        let kind = v
            .get("journal")
            .and_then(crate::json::JsonValue::as_str)
            .ok_or("missing `journal` tag")?;
        let id = v
            .get("id")
            .and_then(crate::json::JsonValue::as_u64)
            .ok_or("missing `id`")?;
        match kind {
            "job" => {
                let job = v.get("job").ok_or("missing `job`")?;
                Ok(Record::Job {
                    id,
                    job: parse_jobspec(job)?,
                })
            }
            "verdict" => {
                let val = v.get("verdict").ok_or("missing `verdict`")?;
                Ok(Record::Verdict {
                    id,
                    verdict: VerdictSummary::parse(val)?,
                })
            }
            other => Err(format!("unknown journal record `{other}`")),
        }
    }

    /// Appends a job record.
    pub fn record_job(&self, id: u64, job: &JobSpec) -> Result<(), String> {
        self.append(&format!(
            "{{\"journal\":\"job\",\"id\":{id},\"job\":{{{}}}}}\n",
            render_jobspec_fields(job)
        ))
    }

    /// Appends a verdict record.
    pub fn record_verdict(&self, id: u64, verdict: &VerdictSummary) -> Result<(), String> {
        self.append(&format!(
            "{{\"journal\":\"verdict\",\"id\":{id},\"verdict\":{{{}}}}}\n",
            verdict.render_fields()
        ))
    }

    /// Rewrites the journal to hold only the `job` records of the ids in
    /// `incomplete`, copied byte for byte from the file, dropping every
    /// other record. Returns the number of records kept. The
    /// replacement is written to a sibling temp file and atomically
    /// renamed over the journal, so a crash mid-compaction leaves either
    /// the old file or the new one — never a mix. The open handle
    /// switches to the new file, and the append lock is held throughout
    /// so no record can slip between the read and the swap.
    pub fn compact(&self, incomplete: &BTreeSet<u64>) -> Result<u64, String> {
        let mut file = self.file.lock().expect("journal lock poisoned");
        let old = std::fs::read_to_string(&self.path)
            .map_err(|e| format!("cannot read journal {}: {e}", self.path.display()))?;
        let mut text = String::new();
        let mut kept = 0;
        for line in old.split_inclusive('\n') {
            if let Ok(Record::Job { id, .. }) = Journal::parse_record(line) {
                if incomplete.contains(&id) {
                    text.push_str(line);
                    kept += 1;
                }
            }
        }
        let mut tmp_name = self.path.as_os_str().to_os_string();
        tmp_name.push(".compact");
        let tmp = PathBuf::from(tmp_name);
        let write = || -> std::io::Result<File> {
            let mut out = File::create(&tmp)?;
            out.write_all(text.as_bytes())?;
            out.flush()?;
            out.sync_all()?;
            std::fs::rename(&tmp, &self.path)?;
            OpenOptions::new().append(true).open(&self.path)
        };
        match write() {
            Ok(reopened) => {
                *file = reopened;
                Ok(kept)
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(format!(
                    "journal compaction failed ({}): {e}",
                    self.path.display()
                ))
            }
        }
    }

    fn append(&self, line: &str) -> Result<(), String> {
        let mut file = self.file.lock().expect("journal lock poisoned");
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("journal append failed: {e}"))
    }
}

enum Record {
    Job { id: u64, job: JobSpec },
    Verdict { id: u64, verdict: VerdictSummary },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Priority;

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            priority: Priority::Bulk,
            s_text: "func main() {\nentry:\n halt 0\n}\n".to_string(),
            t_text: "func main() {\nentry:\n halt 0\n}\n".to_string(),
            poc_hex: "41".to_string(),
            shared: vec!["f".to_string()],
        }
    }

    fn verdict() -> VerdictSummary {
        VerdictSummary {
            verdict: "Type-I".to_string(),
            poc_generated: true,
            verified: true,
            attempts: 1,
            quarantined: false,
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("octo-serve-journal-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_jobs_and_verdicts_across_reopen() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, replay) = Journal::open(&path).unwrap();
            assert!(replay.jobs.is_empty());
            journal.record_job(1, &spec("a")).unwrap();
            journal.record_job(2, &spec("b")).unwrap();
            journal.record_verdict(1, &verdict()).unwrap();
        }
        let (_journal, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.jobs.len(), 2);
        assert_eq!(replay.jobs[0].0, 1);
        assert_eq!(replay.jobs[0].1, spec("a"));
        assert_eq!(replay.verdicts.len(), 1);
        assert_eq!(replay.verdicts[&1], verdict());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_drops_finished_jobs_and_keeps_incomplete() {
        let path = temp_path("compact");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path).unwrap();
        journal.record_job(1, &spec("a")).unwrap();
        journal.record_verdict(1, &verdict()).unwrap();
        journal.record_job(2, &spec("b")).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        assert_eq!(journal.compact(&BTreeSet::from([2])), Ok(1));
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "journal shrank ({before} -> {after})");
        // Appends after compaction land in the renamed-in file.
        journal.record_verdict(2, &verdict()).unwrap();
        drop(journal);
        let (_j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(replay.jobs[0].0, 2);
        assert_eq!(replay.verdicts.len(), 1);
        assert!(replay.verdicts.contains_key(&2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_to_empty_journal_replays_nothing() {
        let path = temp_path("compact-empty");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path).unwrap();
        journal.record_job(1, &spec("a")).unwrap();
        journal.record_verdict(1, &verdict()).unwrap();
        assert_eq!(journal.compact(&BTreeSet::new()), Ok(0));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        drop(journal);
        let (_j, replay) = Journal::open(&path).unwrap();
        assert!(replay.jobs.is_empty());
        assert!(replay.verdicts.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_dropped_but_interior_corruption_is_an_error() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.record_job(1, &spec("a")).unwrap();
        }
        // Simulate dying mid-append: a truncated record at the end.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"journal\":\"verdict\",\"id\":1,\"verd");
        std::fs::write(&path, &text).unwrap();
        let (_j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.jobs.len(), 1);
        assert!(replay.verdicts.is_empty());

        // The same garbage *before* a valid line is corruption.
        let bad = "{\"journal\":\"verd\n{\"journal\":\"job\",\"id\":1,\"job\":{}}\n";
        std::fs::write(&path, bad).unwrap();
        assert!(Journal::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_append_after_a_torn_tail_starts_its_own_line() {
        let path = temp_path("torn-append");
        let _ = std::fs::remove_file(&path);
        Journal::open(&path)
            .unwrap()
            .0
            .record_job(1, &spec("a"))
            .unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"journal\":\"verdict\",\"id\":1,\"verd");
        std::fs::write(&path, &text).unwrap();
        Journal::open(&path)
            .unwrap()
            .0
            .record_job(2, &spec("b"))
            .unwrap();
        // Job 2 was acknowledged, so the replay must hold it.
        let (journal, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.jobs, vec![(1, spec("a")), (2, spec("b"))]);
        assert!(replay.verdicts.is_empty());
        // One more append leaves every line whole.
        journal.record_verdict(2, &verdict()).unwrap();
        drop(journal);
        let (_j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.jobs, vec![(1, spec("a")), (2, spec("b"))]);
        assert_eq!(replay.verdicts.keys().collect::<Vec<_>>(), vec![&2]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_last_record_without_its_newline_is_kept_and_ended() {
        let path = temp_path("no-newline");
        let _ = std::fs::remove_file(&path);
        Journal::open(&path)
            .unwrap()
            .0
            .record_job(1, &spec("a"))
            .unwrap();
        // A write cut just before its newline leaves a whole record.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        Journal::open(&path)
            .unwrap()
            .0
            .record_verdict(1, &verdict())
            .unwrap();
        let (_j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.jobs, vec![(1, spec("a"))]);
        assert_eq!(replay.verdicts[&1], verdict());
        let _ = std::fs::remove_file(&path);
    }
}
