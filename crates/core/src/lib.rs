//! # octopocs — verification of propagated vulnerable code with reformed PoCs.
//!
//! This crate is the paper's primary contribution: given the original
//! vulnerable software `S`, the propagated software `T`, the original
//! malformed-file PoC, and the shared function set `ℓ` (as a vulnerable
//! clone detector such as VUDDY would report it), [`verify`] decides
//! whether the propagated vulnerability can still be *triggered* in `T`.
//!
//! The pipeline follows §III of the paper exactly:
//!
//! | phase | function | this implementation |
//! |---|---|---|
//! | Preprocessing | find `ep` from the crash backtrace of `S` | [`preprocess`] |
//! | P1 | extract crash primitives `q` via context-aware taint analysis | [`octo_taint`] |
//! | P2 | generate guiding inputs via directed symbolic execution | [`octo_symex::DirectedEngine`] |
//! | P3 | combine `q` and the guiding constraints into `poc'` | [`octo_symex::DirectedEngine`] |
//! | P4 | run `T` on `poc'` and check for the propagated crash | [`pipeline`] |
//!
//! The outcome is a [`Verdict`] in the paper's Table II taxonomy:
//! *Type-I* (the original guiding input already fits `T`), *Type-II* (the
//! guiding input had to change), *Type-III* (verified **not** triggerable:
//! `ep` never called, program-dead, or unsatisfiable constraints), or
//! *Failure*.
//!
//! ```
//! use octo_ir::parse::parse_program;
//! use octo_poc::PocFile;
//! use octopocs::{verify, PipelineConfig, SoftwarePairInput, Verdict};
//!
//! // S reads a byte and passes it to the shared (cloned) function, which
//! // crashes on 0x41. T wraps the same shared function behind a magic
//! // byte check.
//! let s = parse_program(r#"
//! func main() {
//! entry:
//!     fd = open
//!     b = getc fd
//!     call shared(b)
//!     halt 0
//! }
//! func shared(v) {
//! entry:
//!     c = eq v, 0x41
//!     br c, boom, fine
//! boom:
//!     trap 1
//! fine:
//!     ret
//! }
//! "#).expect("valid S");
//! let t = parse_program(r#"
//! func main() {
//! entry:
//!     fd = open
//!     magic = getc fd
//!     ok = eq magic, 0x54
//!     br ok, go, rej
//! go:
//!     b = getc fd
//!     call shared(b)
//!     halt 0
//! rej:
//!     halt 1
//! }
//! func shared(v) {
//! entry:
//!     c = eq v, 0x41
//!     br c, boom, fine
//! boom:
//!     trap 1
//! fine:
//!     ret
//! }
//! "#).expect("valid T");
//! let poc = PocFile::from(&b"A"[..]);
//! let input = SoftwarePairInput {
//!     s: &s,
//!     t: &t,
//!     poc: &poc,
//!     shared: &["shared".to_string()],
//! };
//! let report = verify(&input, &PipelineConfig::default());
//! match report.verdict {
//!     Verdict::Triggered { poc_prime, .. } => {
//!         // T needs the 0x54 magic first, then the crash byte.
//!         assert_eq!(poc_prime.byte(0), 0x54);
//!         assert_eq!(poc_prime.byte(1), 0x41);
//!     }
//!     other => panic!("expected triggered, got {other:?}"),
//! }
//! ```
#![warn(missing_docs)]

pub mod batch;
pub mod blob;
pub mod cli;
pub mod config;
pub mod minimize;
pub mod pipeline;
pub mod preprocess;
pub mod scan;
pub mod service;
pub mod verdict;

pub use batch::{
    corpus_jobs, prefix_cache_key, run_batch, BatchEntry, BatchJob, BatchOptions, BatchReport,
    BatchRuntime, Urgency,
};
pub use config::PipelineConfig;
pub use minimize::{minimize_poc, MinimizeStats};
pub use octo_faults::{FaultPlan, FaultRule, FaultSite, RetryPolicy, Trigger};
pub use octo_sched::WatchdogConfig;
pub use octo_store::{BlobStore, GcReport, StoreStats, VerifyReport};
pub use octo_trace::{FlightRecorder, PostMortem};
pub use pipeline::{
    prepare, verify, verify_prepared, PrepareFailure, PreparedSource, SoftwarePairInput,
    VerificationReport,
};
pub use preprocess::{identify_ep, PreprocessError};
pub use scan::{
    corpus_scan_inputs, expand_scan, run_scan, PairCandidates, ScanExpansion, ScanReport,
    ScanSource, ScanTarget,
};
pub use service::{batch_job_to_spec, spec_to_batch_job, ServeExecutor};
pub use verdict::{FailureReason, NotTriggerableReason, TriggerKind, Verdict};
