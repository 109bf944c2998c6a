//! Checker smoke test: the differential debug-info oracle must (a)
//! report a clean bill for O0-vs-O0, (b) find stale/wrong-value
//! defects on the pinned gcc CSE regression, and (c) classify
//! identically across repeated runs. CI runs this to catch
//! correctness-oracle regressions end to end.
//!
//! Usage: `cargo run --release --example checker_smoke`

use debugtuner::check_compiled;
use dt_passes::{CompileOptions, OptLevel, Personality};

fn main() {
    let mut failures = 0usize;

    // O0 against itself shows no value lies for any suite program.
    // (Phantom variables are allowed here: O0 loclists cover the whole
    // function, so a variable is visible before its declaration line
    // holding an uninitialized slot — scope over-reporting, not a
    // value divergence.)
    for p in dt_testsuite::real_world_suite() {
        let options = CompileOptions::new(Personality::Gcc, OptLevel::O0);
        let inputs: Vec<Vec<u8>> = p.seeds.iter().map(|s| s.to_vec()).collect();
        let r = check_compiled(p.source, p.harnesses[0], &inputs, &[], &options, 2_000_000)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let s = r.summary;
        if s.wrong + s.stale + s.misplaced != 0 {
            failures += 1;
            println!("{}: O0-vs-O0 reports value lies: {s:?}", p.name);
        }
    }

    // The pinned gcc O2 seed keeps exposing stale + wrong values, and
    // two independent checks agree defect-for-defect.
    let cfg = dt_testsuite::synth::SynthConfig::default();
    let src = dt_testsuite::synth::generate(52, &cfg);
    let options = CompileOptions::new(Personality::Gcc, OptLevel::O2);
    let run = || {
        check_compiled(&src, "fuzz_main", &[vec![52, 9]], &[], &options, 2_000_000)
            .expect("pinned seed compiles")
    };
    let a = run();
    let b = run();
    if a.summary.stale == 0 || a.summary.wrong == 0 {
        failures += 1;
        println!("pinned seed lost its stale/wrong defects: {:?}", a.summary);
    }
    if a.summary != b.summary || a.defects != b.defects {
        failures += 1;
        println!(
            "checker nondeterministic: {:?} vs {:?}",
            a.summary, b.summary
        );
    }

    println!("checker smoke complete: {failures} failures");
    if failures > 0 {
        std::process::exit(1);
    }
}
