//! CAMPAIGN ENGINE: cached, parallel experiment orchestration.
//!
//! The paper's evidence is one differential campaign — sixteen tables
//! and three figures over thousands of
//! program/personality/level/gate configurations. This crate runs it
//! as a job DAG over a persistent artifact cache:
//!
//! * **Declared jobs with explicit dependencies** ([`Campaign`]): an
//!   *output* job produces a text artifact persisted under the results
//!   directory; an *artifact* job produces an in-memory value (a
//!   tuner, a program set, trade-off data) shared by its dependents.
//! * **Content-addressed persistence**: each output job is keyed by an
//!   FNV-1a fingerprint of its inputs — scale knobs, program-set hash,
//!   pass-library fingerprint, and the fingerprints of its
//!   dependencies — under `<results>/.cache/objects`, so a rerun hits
//!   every output that was persisted, whether the earlier run finished
//!   or not, and an edit invalidates exactly the downstream slice of
//!   the DAG.
//! * **A worker pool** ([`run`]): a dependency-respecting ready queue
//!   drained by `std::thread::scope` workers (count from
//!   [`CampaignConfig::workers`], or the available parallelism).
//! * **Loud failures**: each job body runs once, under `catch_unwind`.
//!   Jobs are deterministic, so nothing is retried: a job that fails
//!   or panics is reported `failed` with its message and poisons only
//!   its dependents, while the rest of the campaign completes. Every
//!   start/finish/fingerprint is appended to a write-only JSONL
//!   journal (`<results>/.cache/journal.jsonl`), and all file writes
//!   are temp-file + rename.
//!
//! ```no_run
//! use dt_campaign::{run, Campaign, CampaignConfig};
//!
//! let mut c = Campaign::new();
//! c.artifact("corpus", &[], 0, |_| Ok::<_, String>(vec![1u8, 2, 3]));
//! c.output("report", &["corpus"], 0, |ctx| {
//!     let corpus = ctx.value::<Vec<u8>>("corpus");
//!     Ok(format!("{} inputs\n", corpus.len()))
//! });
//! let outcome = run(c, &CampaignConfig::for_results_dir("results")).unwrap();
//! assert!(outcome.report.success());
//! ```

pub mod engine;
pub mod fingerprint;
pub mod job;
mod journal;
mod store;

pub use engine::{
    run, CampaignConfig, CampaignError, CampaignReport, CampaignRun, JobReport, JobStatus,
};
pub use fingerprint::Fnv;
pub use job::{Campaign, Ctx};
