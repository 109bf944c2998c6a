//! End-to-end regressions for the differential debug-info checker.
//!
//! The gcc personality intentionally drops `dbg_value` bindings when
//! CSE/DCE rewrite code (no salvaging, unlike clang), so optimized
//! gcc builds report values that diverge from O0 ground truth. These
//! tests pin a seed where that policy manifests as classified
//! stale/wrong-value defects and assert the classification is
//! deterministic across independent checker runs.

use debugtuner::check_compiled;
use dt_checker::DefectClass;
use dt_passes::{CompileOptions, OptLevel, Personality};

/// Synth seed 52 at gcc O2: CSE-driven binding drops leave both stale
/// and plain-wrong values behind (verified by scanning seeds 0..60).
const SEED: u64 = 52;

fn checked_report() -> dt_checker::CheckReport {
    let cfg = dt_testsuite::synth::SynthConfig::default();
    let src = dt_testsuite::synth::generate(SEED, &cfg);
    let options = CompileOptions::new(Personality::Gcc, OptLevel::O2);
    check_compiled(
        &src,
        "fuzz_main",
        &[vec![SEED as u8, 9]],
        &[],
        &options,
        2_000_000,
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
