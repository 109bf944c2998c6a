//! Experiment drivers: one function per paper table/figure.
//!
//! Each `tableNN_*` / `figNN_*` function computes its artifact and
//! returns the formatted text; [`campaign`] declares them as one job
//! DAG, which the `all_experiments` binary runs (`--only <id>` for a
//! single artifact) and saves under `results/`. Scale knobs
//! (environment):
//!
//! * `DT_SYNTH_N` — synthetic population size (default 120; the paper
//!   uses 5000);
//! * `DT_FUZZ_ITERS` — fuzzing iterations per harness (default 1200);
//! * `DT_WORKLOAD` — `test` or `ref` benchmark workloads (default
//!   `test`; use `ref` for the measurement runs).

use debugtuner::{
    dy_family, par_map, pareto_front, suite_corpus, DebugTuner, DyConfig, PerfReport, ProgramInput,
    RunCall, TradeoffPoint, TunerConfig, MEASURE_MAX_STEPS,
};
use dt_metrics::{stats, MethodComparison};
use dt_passes::{OptLevel, PassGate, Personality};
use dt_testsuite::spec::{spec_suite, Workload};
use std::fmt::Write as _;

pub mod campaign;

/// Reads the synthetic-population knob.
pub fn synth_n() -> usize {
    std::env::var("DT_SYNTH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120)
}

/// Reads the fuzzing-iteration knob.
pub fn fuzz_iters() -> u32 {
    std::env::var("DT_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1200)
}

/// Reads the workload knob.
pub fn workload() -> Workload {
    match std::env::var("DT_WORKLOAD").as_deref() {
        Ok("ref") => Workload::Ref,
        _ => Workload::Test,
    }
}

fn gcc_levels() -> &'static [OptLevel] {
    OptLevel::levels_for(Personality::Gcc)
}

fn clang_levels() -> &'static [OptLevel] {
    OptLevel::levels_for(Personality::Clang)
}

/// The change of `v` from `base`, in percent (0 for a non-positive
/// base).
fn pct_change(v: f64, base: f64) -> f64 {
    if base > 0.0 {
        100.0 * (v - base) / base
    } else {
        0.0
    }
}

/// Synthetic programs as tuner inputs (closed programs; two input
/// bytes of entropy).
pub fn synthetic_inputs(n: usize) -> Vec<ProgramInput> {
    let cfg = dt_testsuite::synth::SynthConfig::default();
    (0..n as u64)
        .map(|seed| ProgramInput {
            name: format!("synth{seed}"),
            source: dt_testsuite::synth::generate(seed, &cfg),
            harness: "fuzz_main".into(),
            inputs: vec![vec![seed as u8, 3]],
            entry_args: vec![],
        })
        .collect()
}

/// The real-world suite's tuner inputs, with the size of each corpus
/// before minimization (Table III's reduction column).
pub struct SuiteInputs {
    pub programs: Vec<ProgramInput>,
    /// Fuzzing queue length per program, aligned with `programs`.
    pub queue_lens: Vec<usize>,
}

/// The real-world suite with fuzz-derived inputs (deterministic per
/// `DT_FUZZ_ITERS`, so repeated runs rebuild identical corpora): the
/// one input pipeline a campaign runs.
pub fn suite_inputs() -> SuiteInputs {
    let iterations = fuzz_iters();
    let suite = dt_testsuite::real_world_suite();
    let (programs, queue_lens) = par_map(&suite, TunerConfig::default().threads, |p| {
        let corpus = suite_corpus(p, iterations);
        (corpus.program, corpus.queue_len)
    })
    .into_iter()
    .unzip();
    SuiteInputs {
        programs,
        queue_lens,
    }
}

// ---------------------------------------------------------------- T1

/// Table I: the four measurement methods on the synthetic population,
/// measured on each level's reference build alone.
pub fn table01_methods() -> String {
    let programs = synthetic_inputs(synth_n());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table I — measurement methods on {} synthetic programs (geomean)",
        programs.len()
    );
    let _ =
        writeln!(
        out,
        "{:<9} {:<5} | {:>8} {:>10} {:>8} {:>8} | {:>8} {:>10} {:>8} | {:>8} {:>10} {:>8} {:>8}",
        "compiler", "level",
        "av-stat", "av-statdbg", "av-dyn", "av-hyb",
        "lc-stat", "lc-statdbg", "lc-dyn",
        "pr-stat", "pr-statdbg", "pr-dyn", "pr-hyb"
    );
    let levels = table01_levels(&programs, TunerConfig::default().threads);
    for (personality, level, methods) in levels {
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 11];
        for m in methods {
            for (i, v) in [
                m.static_m.availability,
                m.static_dbg.availability,
                m.dynamic.availability,
                m.hybrid.availability,
                m.static_m.line_coverage,
                m.static_dbg.line_coverage,
                m.dynamic.line_coverage,
                m.static_m.product,
                m.static_dbg.product,
                m.dynamic.product,
                m.hybrid.product,
            ]
            .into_iter()
            .enumerate()
            {
                cols[i].push(v);
            }
        }
        let g = |i: usize| stats::geomean(&cols[i]);
        let _ = writeln!(
            out,
            "{:<9} {:<5} | {:>8.4} {:>10.4} {:>8.4} {:>8.4} | {:>8.4} {:>10.4} {:>8.4} | {:>8.4} {:>10.4} {:>8.4} {:>8.4}",
            personality.name(), level.name(),
            g(0), g(1), g(2), g(3),
            g(4), g(5), g(6),
            g(7), g(8), g(9), g(10)
        );
    }
    out
}

/// Table I's measurements: at every personality and level, each
/// program's four methods ([`DebugTuner::methods`]) in program order.
/// Programs run in parallel on `threads` workers, each on a tuner of
/// its own: the program's `O0` object and baseline serve all its levels
/// and are dropped with the tuner, so at most `threads` programs'
/// artifacts are alive at a time.
fn table01_levels(
    programs: &[ProgramInput],
    threads: usize,
) -> Vec<(Personality, OptLevel, Vec<MethodComparison>)> {
    let levels: Vec<(Personality, OptLevel)> = [Personality::Gcc, Personality::Clang]
        .into_iter()
        .flat_map(|personality| {
            OptLevel::levels_for(personality)
                .iter()
                .map(move |&level| (personality, level))
        })
        .collect();
    let per_program = par_map(programs, threads, |p| {
        let tuner = DebugTuner::new(TunerConfig {
            max_steps_per_input: TABLE01_MAX_STEPS,
            threads: 1,
        });
        levels
            .iter()
            .map(|&(personality, level)| tuner.methods(p, personality, level))
            .collect::<Vec<_>>()
    });
    levels
        .iter()
        .enumerate()
        .map(|(i, &(personality, level))| {
            let methods = per_program.iter().map(|m| m[i]).collect();
            (personality, level, methods)
        })
        .collect()
}

// ---------------------------------------------------------------- T2

/// Table II: hybrid metrics for libpng across levels (the reference
/// builds of the tuner's libpng input).
pub fn table02_libpng(tuner: &DebugTuner, programs: &[ProgramInput]) -> String {
    let p = programs
        .iter()
        .find(|p| p.name == "libpng")
        .expect("libpng is a suite program");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table II — debug information quality on libpng (hybrid)"
    );
    let _ = writeln!(
        out,
        "{:<9} {:<5} {:>14} {:>14} {:>10}",
        "compiler", "level", "avail-of-vars", "line-coverage", "product"
    );
    for personality in [Personality::Gcc, Personality::Clang] {
        for &level in OptLevel::levels_for(personality) {
            let m = tuner.reference(p, personality, level).reference;
            let _ = writeln!(
                out,
                "{:<9} {:<5} {:>14.4} {:>14.4} {:>10.4}",
                personality.name(),
                level.name(),
                m.availability,
                m.line_coverage,
                m.product
            );
        }
    }
    out
}

// ---------------------------------------------------------------- T3

/// Table III: test-suite composition and input statistics, from the
/// campaign's suite inputs and the tuner's `O0` baselines.
pub fn table03_testsuite(tuner: &DebugTuner, suite: &SuiteInputs) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table III — test-suite corpus and coverage statistics");
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>11} {:>10} {:>9} {:>9}",
        "program", "inputs", "%reduction", "steppable", "stepped", "%dbg-cov"
    );
    let mut input_counts = Vec::new();
    let mut reductions = Vec::new();
    let mut steppables = Vec::new();
    let mut steppeds = Vec::new();
    let mut coverages = Vec::new();
    for (p, &queue_len) in suite.programs.iter().zip(&suite.queue_lens) {
        let min = &p.inputs;
        let reduction = 100.0 * (1.0 - min.len() as f64 / queue_len.max(1) as f64);
        let (steppable, stepped) = tuner.o0_coverage(p);
        let cov = 100.0 * stepped as f64 / steppable.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>11.2} {:>10} {:>9} {:>9.2}",
            p.name,
            min.len(),
            reduction,
            steppable,
            stepped,
            cov
        );
        input_counts.push(min.len() as f64);
        reductions.push(reduction);
        steppables.push(steppable as f64);
        steppeds.push(stepped as f64);
        coverages.push(cov);
    }
    let _ = writeln!(
        out,
        "{:<10} {:>7.0} {:>11.2} {:>10.0} {:>9.0} {:>9.2}",
        "average",
        stats::mean(&input_counts),
        stats::mean(&reductions),
        stats::mean(&steppables),
        stats::mean(&steppeds),
        stats::mean(&coverages)
    );
    out
}

// ---------------------------------------------------------------- T4

/// Table IV: product metric per suite program, gcc vs clang.
pub fn table04_quality(tuner: &DebugTuner, programs: &[ProgramInput]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table IV — debug information availability on the test suite (product metric)"
    );
    let _ = writeln!(
        out,
        "{:<10} | {:>5} {:>5} {:>5} {:>5} | {:>5} {:>5} {:>5} | {:>7} {:>7} {:>7}",
        "program", "g-Og", "g-O1", "g-O2", "g-O3", "c-O1", "c-O2", "c-O3", "Δ%O1", "Δ%O2", "Δ%O3"
    );
    let mut col_values: Vec<Vec<f64>> = vec![Vec::new(); 7];
    for p in programs {
        let mut row = Vec::new();
        for &level in gcc_levels() {
            row.push(
                tuner
                    .reference(p, Personality::Gcc, level)
                    .reference
                    .product,
            );
        }
        for &level in clang_levels() {
            row.push(
                tuner
                    .reference(p, Personality::Clang, level)
                    .reference
                    .product,
            );
        }
        for (i, v) in row.iter().enumerate() {
            col_values[i].push(*v);
        }
        let _ = writeln!(
            out,
            "{:<10} | {:>5.2} {:>5.2} {:>5.2} {:>5.2} | {:>5.2} {:>5.2} {:>5.2} | {:>7.2} {:>7.2} {:>7.2}",
            p.name,
            row[0], row[1], row[2], row[3], row[4], row[5], row[6],
            pct_change(row[1], row[4]),
            pct_change(row[2], row[5]),
            pct_change(row[3], row[6]),
        );
    }
    let avg: Vec<f64> = col_values.iter().map(|c| stats::mean(c)).collect();
    let _ = writeln!(
        out,
        "{:<10} | {:>5.2} {:>5.2} {:>5.2} {:>5.2} | {:>5.2} {:>5.2} {:>5.2} | {:>7.2} {:>7.2} {:>7.2}",
        "average",
        avg[0], avg[1], avg[2], avg[3], avg[4], avg[5], avg[6],
        pct_change(avg[1], avg[4]),
        pct_change(avg[2], avg[5]),
        pct_change(avg[3], avg[6]),
    );
    out
}

// ------------------------------------------------------------ T5/T6

/// Tables V/VI: top-10 critical passes per level for one personality.
pub fn table_top_passes(
    tuner: &DebugTuner,
    programs: &[ProgramInput],
    personality: Personality,
) -> String {
    let mut out = String::new();
    let which = if personality == Personality::Gcc {
        "V"
    } else {
        "VI"
    };
    let _ = writeln!(
        out,
        "Table {which} — top 10 critical passes in {} (avg-rank order, %geomean product improvement)",
        personality.name()
    );
    let mut rankings = Vec::new();
    for &level in OptLevel::levels_for(personality) {
        rankings.push((level, tuner.rank_passes(programs, personality, level)));
    }
    for i in 0..10 {
        let mut row = format!("{:>2} ", i + 1);
        for (_, ranking) in &rankings {
            match ranking.entries.get(i) {
                Some(e) => {
                    let _ = write!(
                        row,
                        "| {:<24} {:>6.2} ",
                        e.pass,
                        e.geomean_increment * 100.0
                    );
                }
                None => {
                    let _ = write!(row, "| {:<24} {:>6} ", "-", "-");
                }
            }
        }
        let _ = writeln!(out, "{row}");
    }
    let header: Vec<String> = rankings
        .iter()
        .map(|(l, _)| format!("{:<31}", l.name()))
        .collect();
    out.insert_str(
        out.find('\n').unwrap() + 1,
        &format!("   | {}\n", header.join("| ")),
    );
    out
}

// ---------------------------------------------------------------- T7

/// Table VII: controllable passes per level and effect breakdown.
pub fn table07_breakdown(tuner: &DebugTuner, programs: &[ProgramInput]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table VII — gateable passes per level ( >, =, < effect counts )"
    );
    let _ = writeln!(
        out,
        "{:<9} {:<5} {:>7} {:>5} {:>5} {:>5}",
        "compiler", "level", "passes", ">", "=", "<"
    );
    for personality in [Personality::Gcc, Personality::Clang] {
        for &level in OptLevel::levels_for(personality) {
            let ranking = tuner.rank_passes(programs, personality, level);
            let (pos, neu, neg) = ranking.breakdown();
            let _ = writeln!(
                out,
                "{:<9} {:<5} {:>7} {:>5} {:>5} {:>5}",
                personality.name(),
                level.name(),
                ranking.entries.len(),
                pos,
                neu,
                neg
            );
        }
    }
    out
}

// -------------------------------------------------- T8..T14, Fig 2

/// Everything the trade-off tables need for one personality.
pub struct TradeoffData {
    pub personality: Personality,
    /// Per level: (reference product, reference speedups).
    pub reference: Vec<(OptLevel, f64, PerfReport)>,
    /// Per level, per y: config name, per-program products, avg
    /// product, speedups.
    pub configs: Vec<DyPoint>,
    /// Per-program names, aligned with the product vectors.
    pub program_names: Vec<String>,
}

impl TradeoffData {
    /// The `Ox-dy` point of `level` with `y` disabled passes.
    pub fn point(&self, level: OptLevel, y: usize) -> Option<&DyPoint> {
        self.configs.iter().find(|c| c.level == level && c.y == y)
    }
}

pub struct DyPoint {
    pub name: String,
    pub level: OptLevel,
    pub y: usize,
    pub products: Vec<f64>,
    pub avg_product: f64,
    pub perf: PerfReport,
}

/// The gates measured per level: the level itself, then its `Ox-dy`
/// family.
fn level_and_family_gates(family: &[DyConfig]) -> Vec<PassGate> {
    std::iter::once(PassGate::allow_all())
        .chain(family.iter().map(|cfg| cfg.gate.clone()))
        .collect()
}

/// Computes the full `Ox`/`Ox-dy` matrix for one personality: per
/// level, the ranking, then the speedups of the level and its `Ox-dy`
/// family in one [`DebugTuner::speedups`] call. Once a level's `Ox-dy`
/// products are built it releases the tuner's hold on that level
/// ([`DebugTuner::release_sessions`]): nothing builds from its sessions
/// after that. Fails when a measured binary does not behave like `O0`.
pub fn tradeoff_data(
    tuner: &DebugTuner,
    programs: &[ProgramInput],
    personality: Personality,
) -> Result<TradeoffData, String> {
    let workload = workload();
    let mut reference = Vec::new();
    let mut configs = Vec::new();
    for &level in OptLevel::levels_for(personality) {
        let ranking = tuner.rank_passes(programs, personality, level);
        let evals = tuner.evaluate_all(programs, personality, level);
        let products: Vec<f64> = evals.iter().map(|e| e.reference.product).collect();
        let family = dy_family(level, &ranking);
        let gates = level_and_family_gates(&family);
        let mut perfs = tuner
            .speedups(personality, level, &gates, workload)?
            .into_iter();
        let perf = perfs.next().expect("one report per gate");
        reference.push((level, stats::mean(&products), perf));
        let products = dy_products(tuner, programs, personality, level, &family);
        tuner.release_sessions(personality, level);
        for ((cfg, perf), products) in family.into_iter().zip(perfs).zip(products) {
            configs.push(DyPoint {
                name: cfg.name.clone(),
                level,
                y: cfg.disabled.len(),
                avg_product: stats::mean(&products),
                products,
                perf,
            });
        }
    }
    Ok(TradeoffData {
        personality,
        reference,
        configs,
        program_names: programs.iter().map(|p| p.name.clone()).collect(),
    })
}

/// Each `Ox-dy` config's hybrid product on every program, in program
/// order. The (config, program) pairs run in parallel on the tuner's
/// threads, one [`DebugTuner::evaluate_config`] each.
fn dy_products(
    tuner: &DebugTuner,
    programs: &[ProgramInput],
    personality: Personality,
    level: OptLevel,
    family: &[DyConfig],
) -> Vec<Vec<f64>> {
    let pairs: Vec<(&DyConfig, &ProgramInput)> = family
        .iter()
        .flat_map(|cfg| programs.iter().map(move |p| (cfg, p)))
        .collect();
    let mut products = par_map(&pairs, tuner.config.threads, |&(cfg, p)| {
        tuner
            .evaluate_config(p, personality, level, &cfg.gate)
            .product
    })
    .into_iter();
    family
        .iter()
        .map(|_| products.by_ref().take(programs.len()).collect())
        .collect()
}

/// Table VIII: Δ debuggability and Δ speedup of `Ox-dy` vs `Ox`.
pub fn table08_tradeoff(gcc: &TradeoffData, clang: &TradeoffData) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table VIII — Ox-dy vs Ox: Δ debug availability (top) and Δ speedup (bottom), %"
    );
    // Each Δ block reads one metric of a configuration: its mean
    // product or its geomean speedup.
    type Metric = fn(f64, &PerfReport) -> f64;
    let blocks: [(&str, Metric); 2] = [
        ("Δ debug availability (%)", |product, _| product),
        ("Δ speedup (%)", |_, perf| perf.speedup),
    ];
    for (label, data) in [("gcc", gcc), ("clang", clang)] {
        for (title, metric) in blocks {
            let _ = writeln!(out, "[{label}] {title}");
            for y in [3, 5, 7, 9] {
                let mut row = format!("  Ox-d{y}:");
                for (level, ref_product, ref_perf) in &data.reference {
                    let base = metric(*ref_product, ref_perf);
                    match data.point(*level, y) {
                        Some(p) if base > 0.0 => {
                            let v = metric(p.avg_product, &p.perf);
                            let _ = write!(row, " {:>7.2}", pct_change(v, base));
                        }
                        _ => {
                            let _ = write!(row, " {:>7}", "-");
                        }
                    }
                }
                let _ = writeln!(out, "{row}");
            }
        }
        let levels: Vec<&str> = data.reference.iter().map(|(l, _, _)| l.name()).collect();
        let _ = writeln!(out, "  (columns: {})", levels.join(", "));
    }
    out
}

/// Tables IX/X: per-program quality for `Ox-dy`.
pub fn table_per_program_dy(data: &TradeoffData) -> String {
    let mut out = String::new();
    let which = if data.personality == Personality::Gcc {
        "IX"
    } else {
        "X"
    };
    let _ = writeln!(
        out,
        "Table {which} — per-program product metric for {} Ox-dy configurations",
        data.personality.name()
    );
    for y in [3, 5, 7, 9] {
        let _ = writeln!(out, "[d{y}]");
        let mut header = format!("{:<10}", "program");
        for &(level, _, _) in &data.reference {
            let _ = write!(header, " {:>7}", level.name());
        }
        let _ = writeln!(out, "{header}");
        for (pi, pname) in data.program_names.iter().enumerate() {
            let mut row = format!("{pname:<10}");
            for &(level, _, _) in &data.reference {
                let point = data.point(level, y).expect("config exists");
                let _ = write!(row, " {:>7.4}", point.products[pi]);
            }
            let _ = writeln!(out, "{row}");
        }
        let mut row = format!("{:<10}", "average");
        for &(level, _, _) in &data.reference {
            let point = data.point(level, y).expect("config exists");
            let _ = write!(row, " {:>7.4}", point.avg_product);
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Tables XI/XII: SPEC speedups per benchmark for every configuration.
/// Pure formatting of the speedups [`tradeoff_data`] measured.
pub fn table_spec_speedups(gcc: &TradeoffData, clang: &TradeoffData, relative: bool) -> String {
    let mut out = String::new();
    if relative {
        let _ = writeln!(
            out,
            "Table XII — Ox-dy % speedup change vs reference level, per benchmark"
        );
    } else {
        let _ = writeln!(
            out,
            "Table XI — speedup over O0 per benchmark, standard and Ox-dy configurations"
        );
    }
    for data in [gcc, clang] {
        let _ = writeln!(out, "[{}]", data.personality.name());
        for (level, _, std_perf) in &data.reference {
            let _ = writeln!(out, "  level {}:", level.name());
            let mut header = format!("    {:<16} {:>9}", "benchmark", "standard");
            for y in [3, 5, 7, 9] {
                let _ = write!(header, " {:>9}", format!("d{y}"));
            }
            let _ = writeln!(out, "{header}");
            let dy_perfs: Vec<&PerfReport> = [3usize, 5, 7, 9]
                .into_iter()
                .map(|y| &data.point(*level, y).expect("config exists").perf)
                .collect();
            for (bi, (bname, std_speed)) in std_perf.per_benchmark.iter().enumerate() {
                let mut row = format!("    {:<16} {:>9.4}", bname, std_speed);
                for perf in &dy_perfs {
                    let v = perf.per_benchmark[bi].1;
                    if relative {
                        let _ = write!(row, " {:>9.2}", 100.0 * (v - std_speed) / std_speed);
                    } else {
                        let _ = write!(row, " {:>9.4}", v);
                    }
                }
                let _ = writeln!(out, "{row}");
            }
        }
    }
    out
}

/// Tables XIII/XIV + Figure 2: the Pareto analysis.
pub fn pareto_tables(gcc: &TradeoffData, clang: &TradeoffData) -> (String, String, String) {
    let mut t13 =
        String::from("Table XIII — product metric and Δ% for Ox-dy (Pareto-optimal marked *)\n");
    let mut t14 =
        String::from("Table XIV — speedup over O0 and Δ% for Ox-dy (Pareto-optimal marked *)\n");
    let mut fig =
        String::from("Figure 2 — debuggability vs speedup scatter (x=product, y=speedup)\n");
    for data in [gcc, clang] {
        let mut points: Vec<TradeoffPoint> = Vec::new();
        for (level, prod, perf) in &data.reference {
            points.push(TradeoffPoint::new(level.name(), *prod, perf.speedup));
        }
        for c in &data.configs {
            points.push(TradeoffPoint::new(
                c.name.clone(),
                c.avg_product,
                c.perf.speedup,
            ));
        }
        let front = pareto_front(&mut points);
        let _ = writeln!(t13, "[{}]", data.personality.name());
        let _ = writeln!(t14, "[{}]", data.personality.name());
        let _ = writeln!(fig, "[{}]", data.personality.name());
        for p in &points {
            let star = if p.pareto_optimal { "*" } else { " " };
            // Δ relative to the configuration's base level.
            let base = data
                .reference
                .iter()
                .find(|(l, _, _)| p.name.starts_with(l.name()))
                .map(|(_, prod, perf)| (*prod, perf.speedup));
            let (dq, ds) = base.map_or((0.0, 0.0), |(bp, bs)| {
                (pct_change(p.debug_quality, bp), pct_change(p.speedup, bs))
            });
            let _ = writeln!(
                t13,
                "  {star} {:<8} product {:>7.4}  Δ {:>7.2}%",
                p.name, p.debug_quality, dq
            );
            let _ = writeln!(
                t14,
                "  {star} {:<8} speedup {:>7.4}  Δ {:>7.2}%",
                p.name, p.speedup, ds
            );
            let _ = writeln!(
                fig,
                "  {star} {:<8} ({:.4}, {:.4})",
                p.name, p.debug_quality, p.speedup
            );
        }
        let front_names: Vec<&str> = front.iter().map(|p| p.name.as_str()).collect();
        let _ = writeln!(fig, "  front: {}", front_names.join(" -> "));
    }
    (t13, t14, fig)
}

// ----------------------------------------------- T15, Fig 3, Fig 4

/// Table XV + Figure 3: AutoFDO on the benchmark suite.
pub fn autofdo_spec(
    tuner: &DebugTuner,
    programs: &[ProgramInput],
) -> Result<(String, String), String> {
    let personality = Personality::Clang;
    let level = OptLevel::O2;
    let ranking = tuner.rank_passes(programs, personality, level);
    let gates = level_and_family_gates(&dy_family(level, &ranking));
    let workload = workload();

    let mut t15 = String::from(
        "Table XV — AutoFDO on the benchmark suite: speedup over plain O2, per profiling config\n",
    );
    let mut fig3 = String::from(
        "Figure 3 — relative performance vs O2-AutoFDO (blue: plain O2, orange: best O2-dy AutoFDO)\n",
    );
    let _ = writeln!(
        t15,
        "{:<16} {:>8} | {:>8} {:>7} | {:>8} {:>7} | {:>8} {:>7} | {:>8} {:>7}",
        "benchmark", "O2-fdo", "d3", "+lines%", "d5", "+lines%", "d7", "+lines%", "d9", "+lines%"
    );

    for b in spec_suite() {
        let args = [b.iterations(workload)];
        let call = RunCall {
            entry: b.entry,
            args: &args,
            input: &[],
            max_steps: MEASURE_MAX_STEPS,
        };
        let results = tuner
            .autofdo(b.source, &call, personality, level, &gates)
            .map_err(|e| format!("{}: {e}", b.name))?;
        let (base, dys) = results.split_first().expect("one result per gate");
        let base_speedup = base.speedup();
        let mut row = format!("{:<16} {:>8.4} |", b.name, base_speedup);
        let mut best_dy = base_speedup;
        for r in dys {
            let speedup = r.speedup();
            best_dy = best_dy.max(speedup);
            let extra_lines = 100.0
                * (r.profiling_steppable_lines as f64 - base.profiling_steppable_lines as f64)
                / base.profiling_steppable_lines.max(1) as f64;
            let _ = write!(row, " {:>8.4} {:>7.2} |", speedup, extra_lines);
        }
        let _ = writeln!(t15, "{row}");
        // Figure 3: relative performance normalized to the O2-AutoFDO
        // build (1.0 = O2-AutoFDO; >1 = faster than it). Plain O2's
        // relative performance is fdo_cycles/plain_cycles.
        let plain_rel = base.autofdo_cycles as f64 / base.plain_cycles.max(1) as f64;
        let best_rel = best_dy / base_speedup;
        let _ = writeln!(
            fig3,
            "  {:<16} plain-O2 {:>7.4}   best-dy-fdo {:>7.4} ({:+.2}%)",
            b.name,
            plain_rel,
            best_rel,
            100.0 * (best_rel - 1.0)
        );
    }
    Ok((t15, fig3))
}

/// Figure 4: AutoFDO on the self-compilation workload, O3 profiles.
pub fn fig04_selfcompile(tuner: &DebugTuner, programs: &[ProgramInput]) -> Result<String, String> {
    let personality = Personality::Clang;
    let level = OptLevel::O3;
    let ranking = tuner.rank_passes(programs, personality, level);
    let cc = dt_testsuite::self_compile_program();

    // The "100 compilation steps": concatenated toy sources as input.
    let steps = if workload() == Workload::Ref { 100 } else { 12 };
    let mut input = Vec::new();
    for i in 0..steps {
        let v = i % 10;
        input.extend_from_slice(
            format!(
                "v{v}={};v{}=v{v}*3+{};out v{};",
                i + 1,
                (v + 1) % 10,
                i % 7,
                (v + 1) % 10
            )
            .as_bytes(),
        );
    }

    let mut out =
        String::from("Figure 4 — O3-dy AutoFDO vs O3-AutoFDO on the self-compilation workload\n");
    let call = RunCall {
        entry: "compile_unit",
        args: &[],
        input: &input,
        max_steps: MEASURE_MAX_STEPS,
    };
    let gates = level_and_family_gates(&dy_family(level, &ranking));
    let results = tuner.autofdo(cc.source, &call, personality, level, &gates)?;
    let (base, dys) = results.split_first().expect("one result per gate");
    let base_speedup = base.speedup();
    let _ = writeln!(
        out,
        "  O3-AutoFDO vs plain O3: {:+.2}% (mapped samples {:.1}%)",
        100.0 * (base_speedup - 1.0),
        100.0 * base.mapped_fraction
    );
    for (y, r) in [3, 5, 7, 9].into_iter().zip(dys) {
        let speedup = r.speedup();
        let _ = writeln!(
            out,
            "  O3-d{y}-AutoFDO vs O3-AutoFDO: {:+.2}% (mapped {:.1}%, steppable {:+.2}%)",
            100.0 * (speedup / base_speedup - 1.0),
            100.0 * r.mapped_fraction,
            100.0 * (r.profiling_steppable_lines as f64 - base.profiling_steppable_lines as f64)
                / base.profiling_steppable_lines.max(1) as f64
        );
    }
    Ok(out)
}

// --------------------------------------------------------------- T16

/// Table XVI: debug-info *correctness* defects against O0 ground
/// truth, per personality and level, classified by the checker's
/// taxonomy (wrong / stale / phantom / misplaced). Pure formatting of
/// the tuner's reference-build defect summaries; no variant is built.
pub fn table16_correctness(tuner: &DebugTuner, programs: &[ProgramInput]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table XVI — debug-info correctness defects vs O0 ground truth ({} programs)",
        programs.len()
    );
    let _ = writeln!(
        out,
        "{:<9} {:<5} | {:>6} {:>6} {:>8} {:>10} {:>6} | {:>8} {:>8} {:>8}",
        "compiler",
        "level",
        "wrong",
        "stale",
        "phantom",
        "misplaced",
        "total",
        "lines",
        "values",
        "rate"
    );
    // Aggregate defect count per level across both personalities (the
    // headline "more optimization, more lies" series).
    let mut per_level: Vec<(OptLevel, u32)> = Vec::new();
    for personality in [Personality::Gcc, Personality::Clang] {
        let levels = OptLevel::levels_for(personality);
        let sums = levels.iter().map(|&level| {
            let mut sum = dt_checker::DefectSummary::default();
            for p in programs {
                let s = tuner.reference(p, personality, level).reference_defects;
                sum.wrong += s.wrong;
                sum.stale += s.stale;
                sum.phantom += s.phantom;
                sum.misplaced += s.misplaced;
                sum.lines_checked += s.lines_checked;
                sum.values_checked += s.values_checked;
            }
            sum
        });
        for (&level, sum) in levels.iter().zip(sums) {
            let _ = writeln!(
                out,
                "{:<9} {:<5} | {:>6} {:>6} {:>8} {:>10} {:>6} | {:>8} {:>8} {:>8.4}",
                personality.name(),
                level.name(),
                sum.wrong,
                sum.stale,
                sum.phantom,
                sum.misplaced,
                sum.total(),
                sum.lines_checked,
                sum.values_checked,
                sum.rate()
            );
            match per_level.iter_mut().find(|(l, _)| *l == level) {
                Some((_, t)) => *t += sum.total(),
                None => per_level.push((level, sum.total())),
            }
        }
    }
    per_level.sort_by_key(|(l, _)| *l);
    let _ = writeln!(out, "aggregate defects per level (both personalities):");
    for (level, total) in &per_level {
        let _ = writeln!(out, "  {:<5} {:>6}", level.name(), total);
    }
    out
}

/// Step budget per traced input of the shared experiment tuner
/// ([`make_tuner`]); part of the campaign's `tuner` job key.
const TUNER_MAX_STEPS: u64 = 3_000_000;

/// Step budget per traced input of Table I's tuner; part of the
/// `table01_methods` job key.
const TABLE01_MAX_STEPS: u64 = 2_000_000;

/// Builds a shared tuner sized for the experiment binaries.
pub fn make_tuner() -> DebugTuner {
    DebugTuner::new(TunerConfig {
        max_steps_per_input: TUNER_MAX_STEPS,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuner(threads: usize) -> DebugTuner {
        DebugTuner::new(TunerConfig {
            max_steps_per_input: TABLE01_MAX_STEPS,
            threads,
        })
    }

    fn method_bits(m: &MethodComparison) -> Vec<u64> {
        [m.static_m, m.static_dbg, m.dynamic, m.hybrid]
            .iter()
            .flat_map(|x| [x.availability, x.line_coverage, x.product])
            .map(f64::to_bits)
            .collect()
    }

    /// Table I's per-level method vectors and one level's `Ox-dy`
    /// products are bit-identical on one thread and on two: the
    /// parallel paths return every value in program order.
    #[test]
    fn table01_and_dy_products_do_not_depend_on_thread_count() {
        let programs = synthetic_inputs(5);
        let levels = |threads| -> Vec<_> {
            table01_levels(&programs, threads)
                .into_iter()
                .map(|(personality, level, methods)| {
                    let bits: Vec<_> = methods.iter().map(method_bits).collect();
                    (personality, level, bits)
                })
                .collect()
        };
        let serial = levels(1);
        assert_eq!(serial.len(), 7);
        assert!(serial.iter().all(|(_, _, m)| m.len() == programs.len()));
        assert_eq!(levels(2), serial);

        let (personality, level) = (Personality::Clang, OptLevel::O2);
        let ranking = tuner(2).rank_passes(&programs, personality, level);
        let family = dy_family(level, &ranking);
        assert!(!family.is_empty());
        let products = |threads| -> Vec<Vec<u64>> {
            dy_products(&tuner(threads), &programs, personality, level, &family)
                .iter()
                .map(|ps| ps.iter().map(|p| p.to_bits()).collect())
                .collect()
        };
        let serial = products(1);
        assert_eq!(serial.len(), family.len());
        assert!(serial.iter().all(|ps| ps.len() == programs.len()));
        assert_eq!(products(2), serial);
    }
}
