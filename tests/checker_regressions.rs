//! End-to-end regressions for the differential debug-info checker.
//!
//! The gcc personality intentionally drops `dbg_value` bindings when
//! CSE/DCE rewrite code (no salvaging, unlike clang), so optimized
//! gcc builds report values that diverge from O0 ground truth. These
//! tests pin a seed where that policy manifests as classified
//! stale/wrong-value defects and assert the classification is
//! deterministic across independent checker runs. The oracle's other
//! side is pinned too: `O0` checked against itself reports no value
//! lies on any suite program.

use debugtuner::{DebugTuner, ProgramInput, TunerConfig};
use dt_checker::DefectClass;
use dt_passes::{CompileOptions, OptLevel, Personality};

/// A one-thread tuner with a 2M-step budget per input.
fn tuner() -> DebugTuner {
    DebugTuner::new(TunerConfig {
        max_steps_per_input: 2_000_000,
        threads: 1,
    })
}

fn program(source: String, harness: &str, inputs: Vec<Vec<u8>>) -> ProgramInput {
    ProgramInput {
        name: harness.into(),
        source,
        harness: harness.into(),
        inputs,
        entry_args: vec![],
    }
}

/// Synth seed 52 at gcc O2: CSE-driven binding drops leave both stale
/// and plain-wrong values behind (verified by scanning seeds 0..60).
const SEED: u64 = 52;

fn checked_report() -> dt_checker::CheckReport {
    let cfg = dt_testsuite::synth::SynthConfig::default();
    let src = dt_testsuite::synth::generate(SEED, &cfg);
    let options = CompileOptions::new(Personality::Gcc, OptLevel::O2);
    tuner()
        .check(
            &program(src, "fuzz_main", vec![vec![SEED as u8, 9]]),
            &options,
        )
        .expect("pinned program compiles and runs at both O0 and O2")
}

#[test]
fn gcc_cse_binding_drops_classify_as_stale_and_wrong() {
    let r = checked_report();
    assert!(
        r.summary.stale >= 1,
        "expected at least one stale value, got {:?}",
        r.summary
    );
    assert!(
        r.summary.wrong >= 1,
        "expected at least one wrong value, got {:?}",
        r.summary
    );
    // Every stale defect carries both the observed (lying) value and
    // the ground-truth expectation, and they must differ.
    for d in r
        .defects
        .iter()
        .filter(|d| d.class == DefectClass::StaleValue)
    {
        assert!(d.var.is_some(), "stale defects name the variable: {d:?}");
        assert_ne!(d.observed, d.expected, "stale means a divergence: {d:?}");
    }
}

#[test]
fn checker_classification_is_deterministic_across_runs() {
    let a = checked_report();
    let b = checked_report();
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.defects, b.defects);
}

/// `O0` against itself shows no value lies for any suite program.
/// Phantom variables are allowed: `O0` loclists cover the whole
/// function, so a variable is visible before its declaration line
/// holding an uninitialized slot. That is scope over-reporting, not a
/// value divergence.
#[test]
fn o0_against_itself_reports_no_value_lies() {
    let options = CompileOptions::new(Personality::Gcc, OptLevel::O0);
    for p in dt_testsuite::real_world_suite() {
        let inputs: Vec<Vec<u8>> = p.seeds.iter().map(|s| s.to_vec()).collect();
        let s = tuner()
            .check(&program(p.source.into(), p.harnesses[0], inputs), &options)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name))
            .summary;
        assert_eq!(
            s.wrong + s.stale + s.misplaced,
            0,
            "{}: O0-vs-O0 reports value lies: {s:?}",
            p.name
        );
    }
}
