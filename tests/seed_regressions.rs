//! Deterministic regression tests for past differential-testing
//! failures, pinned here so they run on every `cargo test` regardless
//! of proptest's case sampling.
//!
//! * Seeds 15 and 118 are the committed proptest regressions
//!   (`tests/proptest_pipeline.proptest-regressions`); they are checked
//!   across *every* personality×level pair, not just the three pairs
//!   the property samples.
//! * Seed 126 under the deep stress shape (6 functions, depth-6
//!   expressions) is the trigger for the code-sinking liveness bug:
//!   both sinking passes used to move a dead first definition past a
//!   live redefinition of the same register, clobbering it in the
//!   successor block (observed as a wrong return value at Clang
//!   O2/O3).
//!
//! The last test pins the parallel variant-evaluation engine to the
//! serial one: a tuner with four threads must produce bit-identical
//! `ProgramEvaluation`s to a one-thread tuner, field for field.

use debugtuner::{DebugTuner, ProgramInput, TunerConfig};
use dt_passes::{compile_source, CompileOptions, OptLevel, Personality};
use dt_testsuite::synth::SynthConfig;

/// The return value and output of a run that must finish.
fn run(obj: &dt_machine::Object, input: &[u8], max_steps: u64) -> (i64, Vec<i64>) {
    let r = dt_vm::Vm::run_finished(
        obj,
        "fuzz_main",
        &[],
        input,
        dt_vm::VmConfig {
            max_steps,
            ..Default::default()
        },
    )
    .expect("runs");
    (r.ret, r.output)
}

/// Compiles `seed` under `shape` at O0 and every personality×level
/// pair, and asserts identical behaviour on each input byte.
fn assert_seed_agrees_everywhere(seed: u64, shape: &SynthConfig, bytes: &[u8], max_steps: u64) {
    let src = dt_testsuite::synth::generate(seed, shape);
    let o0 = compile_source(&src, &CompileOptions::new(Personality::Gcc, OptLevel::O0))
        .expect("O0 compiles");
    for personality in [Personality::Gcc, Personality::Clang] {
        for &level in OptLevel::levels_for(personality) {
            let obj =
                compile_source(&src, &CompileOptions::new(personality, level)).expect("compiles");
            for &b in bytes {
                let input = [b, b ^ 0x5a];
                let expected = run(&o0, &input, max_steps);
                let got = run(&obj, &input, max_steps);
                assert_eq!(
                    got, expected,
                    "seed {seed} {personality:?} {level:?} byte {b} disagrees with O0\n{src}"
                );
            }
        }
    }
}

#[test]
fn pinned_seed_15_agrees_across_all_levels() {
    assert_seed_agrees_everywhere(15, &SynthConfig::default(), &[0, 42, 128, 255], 5_000_000);
}

#[test]
fn pinned_seed_118_agrees_across_all_levels() {
    assert_seed_agrees_everywhere(118, &SynthConfig::default(), &[0, 42, 128, 255], 5_000_000);
}

/// The code-sinking liveness regression: deep multi-function programs
/// leave dead first definitions behind after copy coalescing, and the
/// old used-later scan stopped at a *redefinition* of the sunk
/// register without blocking the sink.
#[test]
fn sink_liveness_regression_seed_126_stress_shape() {
    let shape = SynthConfig {
        functions: 6,
        vars_per_function: 14,
        stmts_per_function: 24,
        max_expr_depth: 6,
    };
    assert_seed_agrees_everywhere(126, &shape, &[0, 3, 55, 90, 177, 255], 20_000_000);
}

/// A tuner with `threads` workers and a 2M-step budget per input.
fn tuner(threads: usize) -> DebugTuner {
    DebugTuner::new(TunerConfig {
        max_steps_per_input: 2_000_000,
        threads,
    })
}

fn suite_input(name: &str) -> ProgramInput {
    let p = dt_testsuite::program(name).expect("suite program");
    ProgramInput::from_suite(&p, 200)
}

/// The parallel evaluation engine must be bit-identical to the serial
/// one: same pass order, same metrics, same relative increments.
#[test]
fn parallel_evaluation_is_bit_identical_to_serial() {
    for name in ["zlib", "libexif"] {
        let program = suite_input(name);
        for (personality, level) in [
            (Personality::Gcc, OptLevel::O2),
            (Personality::Clang, OptLevel::O2),
        ] {
            let serial = tuner(1).evaluate(&program, personality, level);
            let parallel = tuner(4).evaluate(&program, personality, level);

            assert_eq!(parallel.program, serial.program);
            assert_eq!(parallel.reference, serial.reference, "{name} reference");
            assert_eq!(parallel.methods.static_m, serial.methods.static_m);
            assert_eq!(parallel.methods.static_dbg, serial.methods.static_dbg);
            assert_eq!(parallel.methods.dynamic, serial.methods.dynamic);
            assert_eq!(parallel.methods.hybrid, serial.methods.hybrid);
            assert_eq!(parallel.steppable_lines_o0, serial.steppable_lines_o0);
            assert_eq!(parallel.stepped_lines_o0, serial.stepped_lines_o0);
            assert_eq!(
                parallel.effects.len(),
                serial.effects.len(),
                "{name} {personality:?} {level:?} effect count"
            );
            for (p, s) in parallel.effects.iter().zip(serial.effects.iter()) {
                assert_eq!(p.pass, s.pass, "{name} pass order");
                assert_eq!(p.metrics, s.metrics, "{name} pass {} metrics", s.pass);
                assert_eq!(
                    p.relative_increment, s.relative_increment,
                    "{name} pass {} increment",
                    s.pass
                );
            }
        }
    }
}
