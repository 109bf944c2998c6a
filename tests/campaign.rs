//! End-to-end campaign integration on the real experiment DAG.
//!
//! Exercises a small subset of the suite (`table03_testsuite` plus the
//! `{tuner, suite_inputs} -> table16_correctness` chain) at tiny knobs through
//! the full `dt_campaign` engine: a cold run, a warm rerun that must be
//! 100% cache hits with bit-identical artifacts, and the state a
//! crashed campaign leaves — only part of the outputs persisted, here
//! by a run restricted to one of them — followed by the full run, which
//! must reuse the persisted output and still converge to identical
//! outputs.
//!
//! Everything lives in one `#[test]` because the experiment knobs are
//! process-wide environment variables.

use std::fs;
use std::path::{Path, PathBuf};

use dt_campaign::JobStatus;

/// The persisted outputs the subset produces, in a fixed order.
const OUTPUTS: &[&str] = &["table03_testsuite", "table16_correctness"];

/// Runs the `only` targets (and their dependency closure) in `dir`.
fn run(dir: &Path, only: &[&str]) -> dt_campaign::CampaignRun {
    let mut config = dt_campaign::CampaignConfig::for_results_dir(dir.to_path_buf());
    config.only = only.iter().map(|s| s.to_string()).collect();
    config.workers = 1;
    config.salt = experiments::campaign::library_fingerprint();
    dt_campaign::run(experiments::campaign::build_campaign(), &config)
        .expect("campaign must be well-formed")
}

fn read_outputs(dir: &Path) -> Vec<String> {
    OUTPUTS
        .iter()
        .map(|id| {
            let path = dir.join(format!("{id}.txt"));
            fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing output {}: {e}", path.display()))
        })
        .collect()
}

#[test]
fn campaign_cold_warm_and_crash_resume() {
    // Tiny knobs: the point is the orchestration, not the science.
    std::env::set_var("DT_SYNTH_N", "2");
    std::env::set_var("DT_FUZZ_ITERS", "4");

    let base: PathBuf = std::env::temp_dir().join(format!("dt-campaign-it-{}", std::process::id()));
    fs::remove_dir_all(&base).ok();
    let dir_a = base.join("a");
    let dir_b = base.join("b");

    // Cold run: the two targets plus the ephemeral suite_inputs and
    // tuner artifacts all execute.
    let cold = run(&dir_a, OUTPUTS);
    assert!(cold.report.success(), "cold run failed: {:?}", cold.report);
    assert_eq!(cold.report.count(JobStatus::Ran), 4, "{:?}", cold.report);
    let golden = read_outputs(&dir_a);
    assert!(
        dir_a.join(".cache/journal.jsonl").is_file(),
        "journal must be written"
    );

    // Warm rerun: every persisted target is served from the cache,
    // nothing executes (the artifacts are demand-pruned away), and the
    // artifacts on disk are bit-identical.
    let warm = run(&dir_a, OUTPUTS);
    assert!(warm.report.success(), "{:?}", warm.report);
    assert_eq!(warm.report.count(JobStatus::Hit), 2, "{:?}", warm.report);
    assert_eq!(
        warm.report.count(JobStatus::Ran),
        0,
        "warm rerun must be 100% cache hits: {:?}",
        warm.report
    );
    assert_eq!(read_outputs(&dir_a), golden, "warm rerun changed outputs");

    // A crashed campaign leaves part of its outputs persisted; a run of
    // table03_testsuite alone leaves exactly that state.
    let partial = run(&dir_b, &OUTPUTS[..1]);
    assert!(partial.report.success(), "{:?}", partial.report);
    assert!(!dir_b.join("table16_correctness.txt").exists());

    // The full run hits the persisted output, runs the rest, and the
    // final artifacts match the cold campaign byte for byte.
    let resumed = run(&dir_b, OUTPUTS);
    assert!(
        resumed.report.success(),
        "resume failed: {:?}",
        resumed.report
    );
    let status = |id: &str| {
        resumed
            .report
            .jobs
            .iter()
            .find(|j| j.id == id)
            .map(|j| j.status)
    };
    assert_eq!(
        status("table03_testsuite"),
        Some(JobStatus::Hit),
        "resume must reuse the persisted output: {:?}",
        resumed.report
    );
    for id in ["suite_inputs", "tuner", "table16_correctness"] {
        assert_eq!(
            status(id),
            Some(JobStatus::Ran),
            "{id}: {:?}",
            resumed.report
        );
    }
    assert_eq!(
        read_outputs(&dir_b),
        golden,
        "resumed campaign diverged from the uninterrupted one"
    );

    fs::remove_dir_all(&base).ok();
}
