//! Quickstart: compile a MiniC program at two optimization levels,
//! debug both builds, and measure how much debug information the
//! optimizer destroyed.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dt_debugger::BreakPlan;
use dt_minic::analysis::SourceAnalysis;
use dt_passes::{compile_source, CompileOptions, OptLevel, Personality};

const PROGRAM: &str = "\
int checksum(int seed, int byte) {
    int mixed = seed * 31 + byte;
    return mixed & 65535;
}
int fuzz_main() {
    int state = 7;
    int count = 0;
    for (int i = 0; i < in_len(); i++) {
        int b = in(i);
        state = checksum(state, b);
        if (b == 0) {
            count = count + 1;
        }
    }
    out(state);
    out(count);
    return state;
}";

fn main() {
    let inputs: Vec<Vec<u8>> = vec![b"hello\0world\0".to_vec(), b"abc".to_vec()];

    // 1. Build the unoptimized baseline and an -O2 binary.
    let o0 = compile_source(
        PROGRAM,
        &CompileOptions::new(Personality::Gcc, OptLevel::O0),
    )
    .expect("O0 build");
    let o2 = compile_source(
        PROGRAM,
        &CompileOptions::new(Personality::Gcc, OptLevel::O2),
    )
    .expect("O2 build");
    println!(
        "built O0 ({} bytes of .text) and O2 ({} bytes)",
        o0.text.len(),
        o2.text.len()
    );

    // 2. Run both under the debugger: temporary breakpoints on every
    //    line, recording the variables visible at each stop. A
    //    `BreakPlan` precomputes an object's breakpoints once; reuse it
    //    for every session of that object.
    let session = dt_debugger::SessionConfig::default();
    let debug = |obj| {
        let plan = BreakPlan::new(obj);
        dt_debugger::trace_with_plan(obj, "fuzz_main", &inputs, &session, &plan).unwrap()
    };
    let base = debug(&o0);
    let opt = debug(&o2);
    println!(
        "stepped {} lines at O0, {} at O2",
        base.stepped_lines().len(),
        opt.stepped_lines().len()
    );

    // 3. Compute the paper's hybrid quality metrics.
    let parsed = dt_minic::parse(PROGRAM).unwrap();
    let analysis = SourceAnalysis::of(&parsed);
    let metrics = dt_metrics::hybrid(&opt, &base, &analysis);
    println!(
        "O2 debug quality: availability {:.3}, line coverage {:.3}, product {:.3}",
        metrics.availability, metrics.line_coverage, metrics.product
    );

    // 4. Show which variables the debugger lost on a specific line.
    for line in base.stepped_lines() {
        let base_vars = base.vars_at(line).cloned().unwrap_or_default();
        let opt_vars = opt.vars_at(line).cloned().unwrap_or_default();
        let lost: Vec<&String> = base_vars.difference(&opt_vars).collect();
        if !lost.is_empty() {
            println!("  line {line}: lost {lost:?}");
        }
    }
}
