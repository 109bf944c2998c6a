//! Determinism self-check on a reduced configuration: two traced runs
//! at one seed give exactly equal count metrics, and the traced re-drive
//! reproduces the untraced digests.

use dt_passes::{OptLevel, Personality};
use dt_testsuite::spec::Workload;
use dtbench::{campaign, rank, spec, Calibration, Layers, Pinned};

fn assert_counts_equal(a: &Layers, b: &Layers, names: &[&str]) {
    for name in names {
        assert!(a.get(name) > 0.0, "{name} counted nothing");
        assert_eq!(a.get(name), b.get(name), "{name} differs between runs");
    }
}

#[test]
fn rank_counts_repeat_and_redrive_matches_tuner() {
    let programs: Vec<_> = debugtuner::suite_programs(rank::FUZZ_ITERS)
        .into_iter()
        .take(2)
        .collect();
    let levels = [
        (Personality::Gcc, OptLevel::O2),
        (Personality::Clang, OptLevel::O1),
    ];
    let input = rank::setup_with(programs, &levels, 7);
    let pinned = Pinned::committed();
    let cal = &mut Calibration::new();
    let untraced = rank::round(&input, &pinned, cal);
    let first = rank::traced_round(&input, &pinned, cal);
    let second = rank::traced_round(&input, &pinned, cal);
    // Per-program evaluations are pinned for the full suite; rankings
    // over this subset are not, so only op checks are asserted.
    for op in untraced.ops.iter().chain(&first.ops) {
        assert_eq!(op.error, None);
    }
    assert_eq!(untraced.digests, first.digests);
    assert_eq!(
        rank::compare_counts(&untraced.layers, &first.layers),
        Vec::<String>::new()
    );
    assert_counts_equal(
        &first.layers,
        &second.layers,
        &[
            "passes.variants",
            "passes.prefix_skipped",
            "debugger.break_stops",
            "vm.fast_steps",
        ],
    );
}

#[test]
fn spec_counts_repeat_and_redrive_matches_measure_speedup() {
    let gates = spec::gates_of_permutation(3, &[2, 6]);
    let no_pins = Pinned::parse("");
    let cal = &mut Calibration::new();
    let untraced = spec::round(&gates, Workload::Test, &no_pins, cal);
    let first = spec::traced_round(&gates, Workload::Test, &no_pins, cal);
    let second = spec::traced_round(&gates, Workload::Test, &no_pins, cal);
    assert_eq!(untraced.digests.len(), gates.len());
    assert_eq!(untraced.digests, first.digests);
    assert_eq!(first.layers.get("vm.divergences"), 0.0);
    assert_counts_equal(
        &first.layers,
        &second.layers,
        &["vm.steps", "vm.cycles", "vm.runs"],
    );
}

#[test]
fn campaign_job_set_is_declared_and_counts_repeat() {
    campaign::set_knobs();
    let c = experiments::campaign::build_campaign();
    assert_eq!(c.ids(), campaign::JOBS.to_vec());

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("dtbench-campaign");
    let only = ["table03_testsuite".to_string()];
    let run = |sub: &str| {
        let input = campaign::setup_only(&dir.join(sub), &only);
        campaign::round(input, &Pinned::committed())
    };
    let (a, b) = (run("a"), run("b"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(a.digests, b.digests);
    assert_eq!(a.digests.len(), 1, "one output job ran");
    assert_counts_equal(&a.layers, &b.layers, &["campaign.jobs_ran"]);
    assert_eq!(a.layers.get("campaign.cache_hits"), 0.0);
}
