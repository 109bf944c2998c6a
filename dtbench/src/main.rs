//! Benchmark entry point: runs one workload for a time budget and prints
//! its metrics.
//!
//! ```text
//! dtbench --workload rank|spec|campaign --seed N --seconds S --trace 0|1
//! dtbench --workload rank|spec|campaign --pin      # print pinned digests
//! ```
//!
//! A run repeats rounds (set-up, then a fixed amount of work) and starts
//! another only while the time spent so far plus one more round fits in
//! `--seconds`; at least one round always runs. With `--trace 1` every
//! untraced round is followed by a traced one. Everything before the
//! last line of standard output is a human-readable report; the last
//! line is one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.

use dt_testsuite::spec::Workload;
use dtbench::{
    campaign, median, peak_rss_mb, percentile, rank, spec, Calibration, Layers, Pinned, Round,
    REFERENCE_KERNEL_S,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Where the campaign workload writes its results and store (inside
/// the working directory, removed when the run ends).
const WORK_DIR: &str = ".dtbench_work";

/// `setup_s` is the median of every round's set-up plus repeats made
/// after the last round (and after `peak_rss_mb` is read, so their heap
/// churn cannot move it): at least `MIN_SETUPS` set-ups in all, and cheap
/// set-ups (spec: microseconds, campaign: under a millisecond) repeat
/// until `MIN_SETUP_S` seconds of set-up were timed, at most
/// `MAX_SETUPS` times.
const MIN_SETUPS: usize = 3;
const MIN_SETUP_S: f64 = 0.25;
const MAX_SETUPS: usize = 100_000;

/// Per-layer metrics, `(name, unit)`, in the order `BENCHMARK.json`
/// lists them. Every traced run prints all of them; a layer the
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("bench.trace_overhead_s", "s"),
    ("corpus.input_pipeline_ms", "ms"),
    ("minic.check_ms", "ms"),
    ("minic.analysis_ms", "ms"),
    ("frontend.lower_ms", "ms"),
    ("machine.o0_backend_ms", "ms"),
    ("passes.session_ms", "ms"),
    ("passes.sessions", "count"),
    ("passes.variant_ms", "ms"),
    ("passes.variants", "count"),
    ("passes.prefix_skipped", "count"),
    ("passes.pruned", "count"),
    ("passes.useful_variant_frac", "1"),
    ("debugger.plan_ms", "ms"),
    ("debugger.trace_ms", "ms"),
    ("debugger.traces", "count"),
    ("debugger.break_stops", "count"),
    ("vm.fast_steps", "count"),
    ("metrics.hybrid_ms", "ms"),
    ("metrics.methods_ms", "ms"),
    ("checker.check_ms", "ms"),
    ("core.trace_cache_hits", "count"),
    ("core.rank_ms", "ms"),
    ("passes.compile_o0_ms", "ms"),
    ("passes.compile_cfg_ms", "ms"),
    ("passes.compiles", "count"),
    ("vm.run_o0_ms", "ms"),
    ("vm.run_cfg_ms", "ms"),
    ("vm.runs", "count"),
    ("vm.steps", "count"),
    ("vm.cycles", "count"),
    ("vm.steps_per_s", "1/s"),
    ("vm.distinct_object_frac", "1"),
    ("vm.divergences", "count"),
    ("campaign.sched_ms", "ms"),
    ("campaign.jobs_ran", "count"),
    ("campaign.cache_hits", "count"),
    ("campaign.store_bytes", "bytes"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            args.pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !["rank", "spec", "campaign"].contains(&args.workload.as_str()) {
        return Err("--workload must be rank, spec or campaign".into());
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(args)
}

/// One workload's inputs, as set-up produced them.
enum Input {
    Rank(rank::RankInput),
    Spec(Vec<spec::Gate>),
    Campaign(campaign::CampaignInput),
}

/// Set-up for one round; traced set-ups time their own layers.
fn setup(workload: &str, seed: u64, round_no: usize, layers: Option<&mut Layers>) -> Input {
    match workload {
        "rank" => Input::Rank(match layers {
            Some(l) => rank::setup_traced(seed, l),
            None => rank::setup(seed),
        }),
        "spec" => Input::Spec(spec::setup(seed)),
        _ => Input::Campaign(campaign::setup(
            &Path::new(WORK_DIR).join(format!("campaign-{round_no}")),
        )),
    }
}

/// Runs one round's ops; `rank` and `spec` take a calibration sample
/// between ops, `campaign` cannot be interleaved and relies on the
/// samples around the round.
fn run_round(input: Input, traced: bool, pinned: &Pinned, cal: &mut Calibration) -> Round {
    match (input, traced) {
        (Input::Rank(i), false) => rank::round(&i, pinned, cal),
        (Input::Rank(i), true) => rank::traced_round(&i, pinned, cal),
        (Input::Spec(g), false) => spec::round(&g, Workload::Ref, pinned, cal),
        (Input::Spec(g), true) => spec::traced_round(&g, Workload::Ref, pinned, cal),
        (Input::Campaign(c), _) => campaign::round(c, pinned),
    }
}

/// A finished round with its timings.
struct Timed {
    /// Measured set-up seconds.
    setup_s: f64,
    /// Measured seconds of the round's work, calibration excluded.
    raw_wall_s: f64,
    /// The round's work in reference seconds.
    wall_s: f64,
    round: Round,
}

fn timed_round(
    args: &Args,
    round_no: usize,
    traced: bool,
    pinned: &Pinned,
    cal: &mut Calibration,
) -> Timed {
    let first_sample = cal.samples().len();
    cal.bracket();
    let mut setup_layers = Layers::default();
    let start = Instant::now();
    let input = setup(
        &args.workload,
        args.seed,
        round_no,
        traced.then_some(&mut setup_layers),
    );
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let calibrating = cal.spent();
    let mut round = run_round(input, traced, pinned, cal);
    let raw_wall_s = (start.elapsed() - (cal.spent() - calibrating)).as_secs_f64();
    cal.bracket();
    round.layers.0.extend(setup_layers.0);
    Timed {
        setup_s,
        raw_wall_s,
        wall_s: raw_wall_s * cal.factor(first_sample),
        round,
    }
}

/// The highest whole percentile with at least ten samples above it.
fn tail_percentile(n: usize) -> Option<f64> {
    (n >= 20).then(|| (100.0 * (1.0 - 10.0 / n as f64)).floor())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dtbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "campaign" {
        campaign::set_knobs();
    }
    if args.pin {
        pin(&args);
        let _ = std::fs::remove_dir_all(WORK_DIR);
        return ExitCode::SUCCESS;
    }
    let pinned = Pinned::committed();
    let mut cal = if args.workload == "campaign" {
        Calibration::off()
    } else {
        Calibration::new()
    };

    let start = Instant::now();
    let mut untraced: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    loop {
        let n = untraced.len() * 2;
        untraced.push(timed_round(&args, n, false, &pinned, &mut cal));
        if args.trace {
            traced.push(timed_round(&args, n + 1, true, &pinned, &mut cal));
        }
        let spent = start.elapsed().as_secs_f64();
        if spent + spent / untraced.len() as f64 > args.seconds {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb();
    cal.bracket();
    let mut setup_samples: Vec<f64> = untraced.iter().chain(&traced).map(|t| t.setup_s).collect();
    while setup_samples.len() < MIN_SETUPS
        || (setup_samples.iter().sum::<f64>() < MIN_SETUP_S && setup_samples.len() < MAX_SETUPS)
    {
        let start = Instant::now();
        drop(setup(&args.workload, args.seed, 0, None));
        setup_samples.push(start.elapsed().as_secs_f64());
    }
    cal.bracket();
    let _ = std::fs::remove_dir_all(WORK_DIR);

    // Output checks and consistency between untraced and traced rounds.
    let mut problems: Vec<String> = Vec::new();
    let all = untraced.iter().chain(&traced);
    let attempted: usize = all.clone().map(|t| t.round.ops.len()).sum();
    let errors: Vec<&String> = all
        .clone()
        .flat_map(|t| t.round.ops.iter().filter_map(|op| op.error.as_ref()))
        .collect();
    for t in all.clone() {
        problems.extend(t.round.problems.iter().cloned());
    }
    for t in &traced {
        if t.round.digests != untraced[0].round.digests {
            problems.push("traced re-drive digests differ from the untraced round".into());
        }
        if args.workload == "rank" {
            problems.extend(rank::compare_counts(
                &untraced[0].round.layers,
                &t.round.layers,
            ));
        }
    }
    for &(name, unit) in PER_LAYER {
        let counts: Vec<f64> = traced.iter().map(|t| t.round.layers.get(name)).collect();
        if unit == "count" && counts.windows(2).any(|w| w[0] != w[1]) {
            problems.push(format!(
                "count {name} differs between traced rounds: {counts:?}"
            ));
        }
    }

    let walls: Vec<f64> = untraced.iter().map(|t| t.wall_s).collect();
    let op_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|t| t.round.ops.iter().map(|op| op.ms))
        .collect();
    let wall_s = median(&walls);
    let raw_walls: Vec<f64> = untraced.iter().map(|t| t.raw_wall_s).collect();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "dtbench {} seed={} seconds={} trace={} rounds={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        untraced.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let _ = writeln!(
        report,
        "  untraced round walls: measured {raw_walls:.3?} s, reference {walls:.3?} s"
    );
    let _ = match cal.samples().len() {
        0 => writeln!(report, "  calibration off: times are measured seconds"),
        n => writeln!(
            report,
            "  calibration: {n} kernel samples, mean {:.4} s (reference {REFERENCE_KERNEL_S} s), {:.2} s spent",
            cal.samples().iter().sum::<f64>() / n as f64,
            cal.spent().as_secs_f64()
        ),
    };
    for t in untraced.iter().chain(&traced).take(2) {
        for note in &t.round.notes {
            let _ = writeln!(report, "  {note}");
        }
    }
    let failed = errors.len();
    let fail_frac = failed as f64 / attempted.max(1) as f64;

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall_s).collect();
        for &(name, unit) in PER_LAYER {
            let v = if name == "bench.trace_overhead_s" {
                median(&traced_walls) - wall_s
            } else {
                median(
                    &traced
                        .iter()
                        .map(|t| t.round.layers.get(name))
                        .collect::<Vec<_>>(),
                )
            };
            metrics.push((name.to_string(), v, unit));
        }
        for job in campaign::JOBS {
            let name = format!("campaign.job.{job}_ms");
            let v = median(
                &traced
                    .iter()
                    .map(|t| t.round.layers.get(&name))
                    .collect::<Vec<_>>(),
            );
            metrics.push((name, v, "ms"));
        }
        let _ = writeln!(
            report,
            "  tracing overhead: traced wall {:.3} s - untraced wall {:.3} s",
            median(&traced_walls),
            wall_s
        );
    } else {
        let ops: usize = untraced.iter().map(|t| t.round.ops.len()).sum();
        let setup_measured = median(&setup_samples);
        metrics.push(("setup_s".into(), setup_measured * cal.factor(0), "s"));
        metrics.push(("wall_s".into(), wall_s, "s"));
        metrics.push((
            "ops_per_s".into(),
            ops as f64 / walls.iter().sum::<f64>(),
            "1/s",
        ));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb, "MB"));
        // Reported, not gated: a campaign's jobs range from 0.05 ms to
        // 7 s, so their median lands on a different small job run to run.
        let _ = writeln!(
            report,
            "  op_p50_ms = {:.3} ms over n={} ops (measured, not gated); setup_s: median of {} set-ups, measured {setup_measured:.6} s",
            median(&op_ms),
            op_ms.len(),
            setup_samples.len()
        );
        match tail_percentile(op_ms.len()) {
            Some(p) => {
                let _ = writeln!(
                    report,
                    "  op_tail_ms = p{p} = {:.3} ms (n={}, measured, not gated)",
                    percentile(&op_ms, p),
                    op_ms.len()
                );
            }
            None => {
                let _ = writeln!(
                    report,
                    "  op_tail_ms: fewer than 20 ops, no tail percentile"
                );
            }
        }
    }
    let _ = writeln!(
        report,
        "  fail_frac = {fail_frac} (failed {failed} / attempted {attempted})"
    );
    for e in errors.iter().take(20) {
        let _ = writeln!(report, "  FAILED op: {e}");
    }
    for p in &problems {
        let _ = writeln!(report, "  PROBLEM: {p}");
    }
    for (name, v, unit) in &metrics {
        let _ = writeln!(report, "  {name:<36} {v:>16.6} {unit}");
    }
    print!("{report}");

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && problems.is_empty(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Prints the digests of every op at this commit, in `pinned.txt` form.
fn pin(args: &Args) {
    let no_pins = Pinned::parse("");
    let cal = &mut Calibration::off();
    let rounds: Vec<Round> = match args.workload.as_str() {
        "rank" => vec![rank::round(&rank::setup(args.seed), &no_pins, cal)],
        "spec" => (0..spec::PERMUTATIONS)
            .map(|i| {
                let gates = spec::gates_of_permutation(i, &spec::GATE_SIZES);
                spec::round(&gates, Workload::Ref, &no_pins, cal)
            })
            .collect(),
        _ => {
            let dir = PathBuf::from(WORK_DIR).join("pin");
            vec![campaign::round(campaign::setup(&dir), &no_pins)]
        }
    };
    let mut lines = std::collections::BTreeMap::new();
    for r in &rounds {
        lines.extend(r.digests.iter().map(|(k, v)| (k.clone(), *v)));
    }
    for (key, digest) in lines {
        println!("{key} {digest:016x}");
    }
}
