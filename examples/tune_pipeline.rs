//! Pipeline tuning: rank the gcc passes by debug-information harm on a
//! few real-world suite programs, then derive and evaluate an `O2-d3`
//! configuration — the end-to-end DebugTuner workflow of the paper.
//!
//! ```sh
//! cargo run --release --example tune_pipeline
//! ```

use debugtuner::{dy_config, DebugTuner, ProgramInput};
use dt_passes::{OptLevel, PassGate, Personality};
use dt_testsuite::spec::Workload;

fn main() {
    // A three-program mini-suite (full runs use all 13; see the
    // `experiments` crate).
    let programs: Vec<ProgramInput> = ["zlib", "libpng", "wasm3"]
        .iter()
        .map(|name| {
            let p = dt_testsuite::program(name).expect("suite program");
            println!("fuzzing inputs for {name}...");
            ProgramInput::from_suite(&p, 800)
        })
        .collect();

    let tuner = DebugTuner::default();
    let personality = Personality::Gcc;
    let level = OptLevel::O2;

    // Rank passes by their debug-information impact.
    println!(
        "\nranking {personality} {level} passes over {} programs...",
        programs.len()
    );
    let ranking = tuner.rank_passes(&programs, personality, level);
    println!("top 10 debug-harmful passes:");
    for (i, e) in ranking.entries.iter().take(10).enumerate() {
        println!(
            "  {:>2}. {:<24} geomean improvement when disabled: {:+.2}%  ({}+ {}= {}-)",
            i + 1,
            e.pass,
            e.geomean_increment * 100.0,
            e.positive_programs,
            e.neutral_programs,
            e.negative_programs,
        );
    }

    // Build O2-d3 and compare debuggability + performance.
    let cfg = dy_config(level, &ranking, 3);
    println!("\n{} disables: {:?}", cfg.name, cfg.disabled);

    let reference: Vec<f64> = programs
        .iter()
        .map(|p| tuner.evaluate(p, personality, level).reference.product)
        .collect();
    let tuned: Vec<f64> = programs
        .iter()
        .map(|p| {
            tuner
                .evaluate_config(p, personality, level, &cfg.gate)
                .product
        })
        .collect();
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "debug quality (product): O2 {:.4} -> {} {:.4} ({:+.1}%)",
        avg(&reference),
        cfg.name,
        avg(&tuned),
        100.0 * (avg(&tuned) - avg(&reference)) / avg(&reference)
    );

    let perf_ref =
        debugtuner::measure_speedup(personality, level, &PassGate::allow_all(), Workload::Test);
    let perf_tuned = debugtuner::measure_speedup(personality, level, &cfg.gate, Workload::Test);
    println!(
        "speedup over O0: O2 {:.3}x -> {} {:.3}x ({:+.1}%)",
        perf_ref.speedup,
        cfg.name,
        perf_tuned.speedup,
        100.0 * (perf_tuned.speedup - perf_ref.speedup) / perf_ref.speedup
    );

    let stats = tuner.stats();
    println!("\n{}", stats.summary());
    println!("{}", stats.to_json());
}
