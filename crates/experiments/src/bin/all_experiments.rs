//! Runs the whole experiment suite as one cached, parallel campaign
//! (see `dt_campaign` and `experiments::campaign`).
//!
//! Every table/figure is a declared job with explicit dependencies; a
//! worker pool executes the DAG once, caching each output under
//! `results/.cache/` keyed by a fingerprint of its inputs. A rerun with
//! unchanged knobs hits every output already persisted (a warm rerun of
//! a finished campaign executes zero job bodies); a failing job fails
//! on its one attempt, poisons only its dependents, and the exit status
//! reports the partial failure.
//!
//! ```text
//! all_experiments [--only JOB[,JOB...]] [--fresh] [--jobs N]
//!                 [--results DIR] [--list] [--quiet]
//! ```
//!
//! * `--only table05_gcc_passes` — run one job (and its dependency
//!   closure); repeatable / comma-separable.
//! * `--fresh` — evict the cache (objects + journal) first.
//! * `--jobs N` — worker threads (default all cores).
//! * `--results DIR` — output directory (default `results/`).
//! * `--list` — print the DAG (job, kind, dependencies) and exit.
//! * `--quiet` — suppress the per-job JSONL progress on stderr.

use std::process::ExitCode;

struct Cli {
    only: Vec<String>,
    fresh: bool,
    jobs: usize,
    results: String,
    list: bool,
    quiet: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        only: Vec::new(),
        fresh: false,
        jobs: 0,
        results: "results".to_string(),
        list: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires an argument"))
        };
        match arg.as_str() {
            "--only" => cli
                .only
                .extend(take("--only")?.split(',').map(|s| s.trim().to_string())),
            "--fresh" => cli.fresh = true,
            "--jobs" => {
                cli.jobs = take("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs requires a positive integer".to_string())?
            }
            "--results" => cli.results = take("--results")?,
            "--list" => cli.list = true,
            "--quiet" => cli.quiet = true,
            "--help" | "-h" => {
                return Err("usage: all_experiments [--only JOB[,JOB...]] [--fresh] \
                     [--jobs N] [--results DIR] [--list] [--quiet]"
                    .to_string())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let campaign = experiments::campaign::build_campaign();
    if cli.list {
        println!("{:<22} {:<9} dependencies", "job", "kind");
        for id in campaign.ids() {
            let kind = if campaign.is_output(id) == Some(true) {
                "output"
            } else {
                "artifact"
            };
            let deps = campaign.deps(id).unwrap().join(", ");
            println!("{id:<22} {kind:<9} {deps}");
        }
        return ExitCode::SUCCESS;
    }

    let mut config = dt_campaign::CampaignConfig::for_results_dir(cli.results);
    config.only = cli.only;
    config.fresh = cli.fresh;
    config.workers = cli.jobs;
    config.salt = experiments::campaign::library_fingerprint();
    config.progress = !cli.quiet;

    let t0 = std::time::Instant::now();
    let outcome = match dt_campaign::run(campaign, &config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("campaign could not run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = &outcome.report;

    // Human-readable per-job outcomes (skipped jobs omitted).
    for job in &report.jobs {
        if job.status == dt_campaign::JobStatus::Skipped {
            continue;
        }
        let mut line = format!(
            "{:<22} {:<12} {:>8.1}s",
            job.id,
            job.status.name(),
            job.duration_ms / 1000.0
        );
        if let Some(by) = &job.poisoned_by {
            line.push_str(&format!("  <- {by}"));
        }
        eprintln!("{line}");
    }

    // The shared tuner's evaluation telemetry, when it ran this time.
    if let Some(tuner) = outcome.value::<debugtuner::DebugTuner>("tuner") {
        let stats = tuner.stats();
        eprintln!("{}", stats.summary());
        eprintln!("{}", stats.to_json());
    }

    println!("{}", report.summary());
    let failed: Vec<_> = report
        .jobs
        .iter()
        .filter(|j| j.status == dt_campaign::JobStatus::Failed)
        .collect();
    if !failed.is_empty() {
        for job in &failed {
            eprintln!(
                "FAILED {}: {}",
                job.id,
                job.error.as_deref().unwrap_or("unknown error")
            );
        }
    }
    eprintln!("all experiments done in {:.1}s", t0.elapsed().as_secs_f64());
    if report.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
