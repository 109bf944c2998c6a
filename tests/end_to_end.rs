//! Cross-crate integration tests: source → compiler → VM → debugger →
//! metrics → tuner, end to end.

use debugtuner::ProgramInput;
use dt_passes::{compile_source, CompileOptions, OptLevel, PassGate, Personality};

/// A one-thread tuner with the given step budget per input.
fn serial_tuner(max_steps_per_input: u64) -> debugtuner::DebugTuner {
    debugtuner::DebugTuner::new(debugtuner::TunerConfig {
        max_steps_per_input,
        threads: 1,
    })
}

const PROGRAM: &str = "\
int clamp(int v, int lo, int hi) {
    if (v < lo) { return lo; }
    if (v > hi) { return hi; }
    return v;
}
int fuzz_main() {
    int acc = 0;
    int n = in_len();
    for (int i = 0; i < n; i++) {
        int b = in(i);
        acc = acc + clamp(b, 10, 200);
    }
    out(acc);
    return acc;
}";

fn program_input() -> ProgramInput {
    ProgramInput {
        name: "e2e".into(),
        source: PROGRAM.into(),
        harness: "fuzz_main".into(),
        inputs: vec![vec![5, 100, 250], vec![], vec![42]],
        entry_args: vec![],
    }
}

/// The headline pipeline invariant: O0 is perfect, optimization loses
/// debug info monotonically-ish, and disabling ranked passes recovers
/// some of it.
#[test]
fn quality_degrades_with_optimization_and_recovers_with_tuning() {
    let p = program_input();
    let tuner = debugtuner::DebugTuner::default();

    let e0_ref = serial_tuner(1_000_000).evaluate_config(
        &p,
        Personality::Gcc,
        OptLevel::O0,
        &PassGate::allow_all(),
    );
    assert!(
        (e0_ref.product - 1.0).abs() < 1e-9,
        "O0 against itself is perfect"
    );

    let e1 = tuner.evaluate(&p, Personality::Gcc, OptLevel::O1);
    let e3 = tuner.evaluate(&p, Personality::Gcc, OptLevel::O3);
    assert!(e1.reference.product < 1.0);
    assert!(e3.reference.product <= e1.reference.product + 1e-9);

    // Tuning: disabling the top-3 ranked passes at O3 must improve the
    // metric for this program.
    let ranking = tuner.rank_passes(std::slice::from_ref(&p), Personality::Gcc, OptLevel::O3);
    let cfg = debugtuner::dy_config(OptLevel::O3, &ranking, 3);
    let tuned =
        serial_tuner(1_000_000).evaluate_config(&p, Personality::Gcc, OptLevel::O3, &cfg.gate);
    assert!(
        tuned.product >= e3.reference.product,
        "O3-d3 ({}) must not be worse than O3 ({})",
        tuned.product,
        e3.reference.product
    );
}

/// The return value and output of a run that must finish.
fn run(obj: &dt_machine::Object, input: &[u8]) -> (i64, Vec<i64>) {
    let r =
        dt_vm::Vm::run_finished(obj, "fuzz_main", &[], input, dt_vm::VmConfig::default()).unwrap();
    (r.ret, r.output)
}

/// Semantics are preserved by every level, personality, and single-pass
/// gate for the integration program: every run finishes with `O0`'s
/// return value and output.
#[test]
fn all_configurations_agree_on_outputs() {
    let inputs: Vec<Vec<u8>> = vec![vec![1, 2, 3, 200, 255], vec![]];
    let o0 = compile_source(
        PROGRAM,
        &CompileOptions::new(Personality::Gcc, OptLevel::O0),
    )
    .unwrap();
    let expected: Vec<_> = inputs.iter().map(|i| run(&o0, i)).collect();
    for personality in [Personality::Gcc, Personality::Clang] {
        for &level in OptLevel::levels_for(personality) {
            for pass in dt_passes::pipeline_pass_names(personality, level) {
                let mut opts = CompileOptions::new(personality, level);
                opts.gate = PassGate::disabling([pass]);
                let obj = compile_source(PROGRAM, &opts).unwrap();
                for (i, input) in inputs.iter().enumerate() {
                    assert_eq!(
                        run(&obj, input),
                        expected[i],
                        "{personality} {level} -{pass} input {i}"
                    );
                }
            }
        }
    }
}

/// The whole suite pipeline stays green: fuzz → minimize → evaluate.
#[test]
fn suite_program_pipeline_smoke() {
    let suite = dt_testsuite::program("lighttpd").unwrap();
    let p = ProgramInput::from_suite(&suite, 400);
    assert!(!p.inputs.is_empty());
    let eval = serial_tuner(2_000_000).evaluate(&p, Personality::Clang, OptLevel::O2);
    assert!(eval.reference.product > 0.0 && eval.reference.product < 1.0);
    assert!(eval.stepped_lines_o0 > 10);
    assert!(eval.steppable_lines_o0 >= eval.stepped_lines_o0);
}

/// Synthetic programs score differently from real-world ones on line
/// coverage — the paper's Section II observation.
#[test]
fn synthetic_programs_differ_from_real_world() {
    let synth_cfg = dt_testsuite::synth::SynthConfig::default();
    let mut synth_lc = Vec::new();
    for seed in 0..6u64 {
        let src = dt_testsuite::synth::generate(seed, &synth_cfg);
        let p = ProgramInput {
            name: format!("synth{seed}"),
            source: src,
            harness: "fuzz_main".into(),
            inputs: vec![vec![seed as u8, 1]],
            entry_args: vec![],
        };
        let e = serial_tuner(2_000_000).evaluate(&p, Personality::Gcc, OptLevel::O3);
        synth_lc.push(e.reference.line_coverage);
    }
    let real = dt_testsuite::program("zlib").unwrap();
    let p = ProgramInput::from_suite(&real, 400);
    let e = serial_tuner(3_000_000).evaluate(&p, Personality::Gcc, OptLevel::O3);
    let synth_avg = synth_lc.iter().sum::<f64>() / synth_lc.len() as f64;
    assert!(
        e.reference.line_coverage > synth_avg - 0.35,
        "real-world line coverage ({}) should not collapse below synthetic ({synth_avg})",
        e.reference.line_coverage
    );
}
