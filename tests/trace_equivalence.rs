//! Differential coverage of the two debug-session engines: the
//! slow-step reference `trace()` and the fast-path
//! `trace_with_plan` (in-VM breakpoint bitmap, early-exit
//! inputs) must produce field-for-field identical `DebugTrace`s —
//! lines, values, hits, hit_order, inputs_run — on every binary,
//! including ground-truth (`track_dbg_bindings`) sessions.
//!
//! Pinned coverage walks the whole real-world suite and five fixed
//! synthetic programs across both personalities and every
//! optimization level; the proptest drives
//! randomly generated programs with random inputs through random
//! personality/level combinations.

use dt_debugger::{trace, trace_with_plan, BreakPlan, SessionConfig};
use dt_passes::{compile_source, CompileOptions, OptLevel, Personality};
use proptest::prelude::*;

fn session(ground_truth: bool) -> SessionConfig {
    SessionConfig {
        max_steps_per_input: 2_000_000,
        entry_args: vec![],
        ground_truth,
    }
}

/// Every suite program plus five synthetic ones, both personalities,
/// every level, plain and ground-truth sessions: the fast path must
/// match the slow path field-for-field.
#[test]
fn suite_fast_path_matches_slow_step_everywhere() {
    // (name, source, harness, inputs)
    let mut cases: Vec<(String, String, String, Vec<Vec<u8>>)> = dt_testsuite::real_world_suite()
        .iter()
        .map(|p| {
            (
                p.name.to_string(),
                p.source.to_string(),
                p.harnesses[0].to_string(),
                p.seeds.iter().map(|s| s.to_vec()).collect(),
            )
        })
        .collect();
    let shape = dt_testsuite::synth::SynthConfig::default();
    for seed in [3u64, 41, 118, 126, 204] {
        cases.push((
            format!("synth{seed}"),
            dt_testsuite::synth::generate(seed, &shape),
            "fuzz_main".into(),
            vec![vec![seed as u8, 9], vec![], vec![seed as u8 ^ 0x5a; 6]],
        ));
    }
    for (name, source, harness, inputs) in &cases {
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let obj = compile_source(source, &CompileOptions::new(personality, level)).unwrap();
                let plan = BreakPlan::new(&obj);
                for ground_truth in [false, true] {
                    let cfg = session(ground_truth);
                    let slow = trace(&obj, harness, inputs, &cfg).unwrap();
                    let fast = trace_with_plan(&obj, harness, inputs, &cfg, &plan).unwrap();
                    assert_eq!(
                        slow, fast,
                        "{name} {personality:?} {level:?} ground_truth={ground_truth}"
                    );
                }
            }
        }
    }
}

/// The evaluation layer's cached `O0` plan produces the same baseline
/// the slow-step reference engine does (the invariant behind serving
/// ground-truth sessions from the artifact store's fast path).
#[test]
fn artifact_store_baseline_matches_slow_step() {
    let suite = dt_testsuite::real_world_suite();
    let p = suite.iter().find(|p| p.name == "libpng").unwrap();
    let program = debugtuner::ProgramInput {
        name: p.name.to_string(),
        source: p.source.to_string(),
        harness: p.harnesses[0].to_string(),
        inputs: p.seeds.iter().map(|s| s.to_vec()).collect(),
        entry_args: vec![],
    };
    let store = debugtuner::ArtifactStore::new();
    let art = store.source(&program.source).unwrap();
    let base = store
        .baseline(&art, &program.harness, &program.inputs, &[], 2_000_000)
        .unwrap();
    let slow = trace(&art.o0, &program.harness, &program.inputs, &session(true)).unwrap();
    assert_eq!(slow, base.trace);
    let replay = trace_with_plan(
        &art.o0,
        &program.harness,
        &program.inputs,
        &session(true),
        &art.o0_plan,
    )
    .unwrap();
    assert_eq!(slow, replay);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs, random inputs, random personality/level, both
    /// session kinds: slow-step and fast-path traces are identical.
    #[test]
    fn generated_programs_trace_identically(
        seed in 0u64..500,
        byte in 0u8..255,
        combo in 0usize..7,
        ground_truth in proptest::bool::ANY,
    ) {
        let cfg = dt_testsuite::synth::SynthConfig::default();
        let src = dt_testsuite::synth::generate(seed, &cfg);
        let combos = [
            (Personality::Gcc, OptLevel::Og),
            (Personality::Gcc, OptLevel::O1),
            (Personality::Gcc, OptLevel::O2),
            (Personality::Gcc, OptLevel::O3),
            (Personality::Clang, OptLevel::O1),
            (Personality::Clang, OptLevel::O2),
            (Personality::Clang, OptLevel::O3),
        ];
        let (personality, level) = combos[combo];
        let obj = compile_source(&src, &CompileOptions::new(personality, level)).unwrap();
        let inputs = vec![vec![byte, byte ^ 0x5a], vec![], vec![byte.wrapping_mul(3); 4]];
        let scfg = session(ground_truth);
        let slow = trace(&obj, "fuzz_main", &inputs, &scfg).unwrap();
        let fast = trace_with_plan(&obj, "fuzz_main", &inputs, &scfg, &BreakPlan::new(&obj)).unwrap();
        prop_assert_eq!(
            &slow, &fast,
            "seed {} {:?} {:?} ground_truth={}\n{}",
            seed, personality, level, ground_truth, src
        );
    }
}
