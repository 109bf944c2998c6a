//! `campaign`: the ROADMAP's end-to-end number.
//!
//! Set-up declares the experiment DAG
//! ([`experiments::campaign::build_campaign`], which hashes the pass
//! library and program set) and prepares an empty results directory. A
//! round is one cold `dt_campaign::run` with one worker; one op = one
//! job executed, timed by the engine's report. The seed is unused: the
//! campaign's inputs are fixed by its knobs.
//!
//! This is the only workload that writes the content-addressed store and
//! the journal, and the only one that runs Table I's synthetic population
//! and the `table11`/`table12` speed reruns.

use crate::{fnv, Layers, Op, Pinned, Round};
use dt_campaign::{Campaign, CampaignConfig, JobStatus};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Synthetic population size (`DT_SYNTH_N`, the CI knob).
pub const SYNTH_N: &str = "20";
/// Fuzzing iterations per harness (`DT_FUZZ_ITERS`, the CI knob).
pub const FUZZ_ITERS: &str = "200";

/// Every job of the experiment DAG, in declaration order (the per-job
/// layer metrics `campaign.job.<id>_ms`).
pub const JOBS: [&str; 25] = [
    "suite_inputs",
    "tuner",
    "tradeoff_gcc",
    "tradeoff_clang",
    "pareto",
    "autofdo_sweep",
    "table01_methods",
    "table02_libpng",
    "table03_testsuite",
    "table04_quality",
    "table05_gcc_passes",
    "table06_clang_passes",
    "table07_breakdown",
    "table08_tradeoff",
    "table09_gcc_dy",
    "table10_clang_dy",
    "table11_spec_speedup",
    "table12_spec_delta",
    "table13_pareto_dbg",
    "table14_pareto_perf",
    "fig02_pareto",
    "table15_autofdo",
    "fig03_autofdo_spec",
    "fig04_selfcompile",
    "table16_correctness",
];

/// Sets the campaign's scale knobs. The experiments crate reads them
/// from the environment; call this before any other thread starts.
pub fn set_knobs() {
    std::env::set_var("DT_SYNTH_N", SYNTH_N);
    std::env::set_var("DT_FUZZ_ITERS", FUZZ_ITERS);
    std::env::remove_var("DT_WORKLOAD");
    std::env::remove_var("DT_JOBS");
}

/// A declared campaign ready to run cold.
pub struct CampaignInput {
    campaign: Campaign,
    /// Output job ids (those that write `results/<id>.txt`).
    outputs: Vec<String>,
    config: CampaignConfig,
}

/// Set-up: declare the DAG and prepare `results_dir` empty.
pub fn setup(results_dir: &Path) -> CampaignInput {
    setup_only(results_dir, &[])
}

/// [`setup`] restricted to the `only` targets and their dependencies
/// (empty: every output job). Unselected jobs end `skipped`.
pub fn setup_only(results_dir: &Path, only: &[String]) -> CampaignInput {
    let campaign = experiments::campaign::build_campaign();
    let outputs = campaign
        .ids()
        .into_iter()
        .filter(|id| campaign.is_output(id) == Some(true))
        .map(str::to_string)
        .collect();
    let _ = std::fs::remove_dir_all(results_dir);
    std::fs::create_dir_all(results_dir).expect("create campaign results directory");
    let mut config = CampaignConfig::for_results_dir(results_dir);
    config.workers = 1;
    config.salt = experiments::campaign::library_fingerprint();
    config.only = only.to_vec();
    CampaignInput {
        campaign,
        outputs,
        config,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One cold campaign. Every job must end `ran`, and every output's
/// `results/<id>.txt` must match its pinned digest. The per-job split
/// comes from the engine's own report, so tracing costs nothing here.
pub fn round(input: CampaignInput, pinned: &Pinned) -> Round {
    let mut round = Round::default();
    let results_dir: PathBuf = input.config.results_dir.clone();
    let cache_dir = input.config.cache_dir();
    let start = Instant::now();
    let outcome = dt_campaign::run(input.campaign, &input.config);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = match outcome {
        Ok(run) => run.report,
        Err(e) => {
            round.problems.push(format!("campaign could not run: {e}"));
            round.ops.push(Op {
                ms: wall_ms,
                error: Some(e.to_string()),
            });
            return round;
        }
    };
    let layers: &mut Layers = &mut round.layers;
    let mut job_ms = 0.0;
    for job in &report.jobs {
        job_ms += job.duration_ms;
        layers.set(&format!("campaign.job.{}_ms", job.id), job.duration_ms);
        let mut error = (job.status != JobStatus::Ran).then(|| {
            format!(
                "{}: {} {}",
                job.id,
                job.status.name(),
                job.error.as_deref().unwrap_or("")
            )
        });
        if error.is_none() && input.outputs.contains(&job.id) {
            let key = format!("campaign {}", job.id);
            error = match std::fs::read(results_dir.join(format!("{}.txt", job.id))) {
                Ok(text) => {
                    let digest = fnv(&text);
                    round.digests.insert(key.clone(), digest);
                    pinned.check(&key, digest).err()
                }
                Err(e) => Some(format!("{key}: {e}")),
            };
        }
        round.ops.push(Op {
            ms: job.duration_ms,
            error,
        });
    }
    layers.set("campaign.sched_ms", wall_ms - job_ms);
    layers.set("campaign.jobs_ran", report.count(JobStatus::Ran) as f64);
    layers.set("campaign.cache_hits", report.count(JobStatus::Hit) as f64);
    layers.set(
        "campaign.store_bytes",
        dir_bytes(&cache_dir.join("objects")) as f64,
    );
    round.notes.push(report.summary());
    round
}
