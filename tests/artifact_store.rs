//! The tuner's artifact store is keyed by content, and the reference
//! defects it memoizes are the checker's verdict on the reference
//! build (the invariant Table XVI is formatted from).

use debugtuner::{check_compiled, evaluate_program, DebugTuner, ProgramInput, TunerConfig};
use dt_passes::{CompileOptions, OptLevel, PassGate, Personality};

const SRC: &str = "\
int helper(int v) {
    int w = v * 3;
    return w + 1;
}
int fuzz_main() {
    int a = in(0);
    int b = 0;
    if (a > 10) {
        b = helper(a);
    } else {
        b = a - 1;
    }
    out(b);
    return b;
}";

fn named(source: &str, inputs: Vec<Vec<u8>>) -> ProgramInput {
    ProgramInput {
        name: "alias".into(),
        source: source.into(),
        harness: "fuzz_main".into(),
        inputs,
        entry_args: vec![],
    }
}

/// Three programs share one name: two differ only in their inputs, the
/// third in its source. Each must get its own baseline and evaluation,
/// identical to evaluating it alone.
#[test]
fn same_name_different_content_never_aliases() {
    let (personality, level) = (Personality::Gcc, OptLevel::O2);
    let other_source = SRC.replace("int w = v * 3;", "int w = v * 3;\n    w = w - 2;");
    let programs = [
        named(SRC, vec![vec![50]]),
        named(SRC, vec![vec![1]]),
        named(&other_source, vec![vec![50]]),
    ];
    let tuner = DebugTuner::new(TunerConfig {
        max_steps_per_input: 1_000_000,
        threads: 1,
    });
    let json = |e: &debugtuner::ProgramEvaluation| serde_json::to_string(e).unwrap();
    let mut seen = Vec::new();
    for p in &programs {
        let alone = evaluate_program(p, personality, level, 1_000_000);
        let shared = tuner.evaluate(p, personality, level);
        assert_eq!(json(&shared), json(&alone), "evaluation aliased");
        // The explicit-config path reads the same baseline: an empty
        // gate reproduces this program's own reference metrics.
        let m = tuner.evaluate_config(p, personality, level, &PassGate::allow_all());
        assert_eq!(m.product, alone.reference.product, "baseline aliased");
        seen.push(json(&alone));
    }
    // The three really are different evaluations and baselines.
    assert_ne!(seen[0], seen[1]);
    assert_ne!(seen[0], seen[2]);
    let a = tuner.evaluate(&programs[0], personality, level);
    let b = tuner.evaluate(&programs[1], personality, level);
    let c = tuner.evaluate(&programs[2], personality, level);
    assert_ne!(a.stepped_lines_o0, b.stepped_lines_o0);
    assert_ne!(a.steppable_lines_o0, c.steppable_lines_o0);
    let stats = tuner.stats();
    assert_eq!(stats.programs, 3, "one evaluation per content: {stats:?}");
    assert_eq!(stats.eval_cache_hits, 3, "{stats:?}");
}

/// Table XVI sums `ProgramEvaluation::reference_defects`; that must
/// equal a standalone check of the unmodified level at every level.
#[test]
fn reference_defects_equal_check_compiled_at_every_level() {
    let suite = dt_testsuite::real_world_suite();
    let p = suite.iter().find(|p| p.name == "libexif").unwrap();
    let program = ProgramInput {
        name: p.name.to_string(),
        source: p.source.to_string(),
        harness: p.harnesses[0].to_string(),
        inputs: p.seeds.iter().map(|s| s.to_vec()).collect(),
        entry_args: vec![],
    };
    let tuner = DebugTuner::new(TunerConfig {
        max_steps_per_input: 3_000_000,
        ..Default::default()
    });
    for personality in [Personality::Gcc, Personality::Clang] {
        for &level in OptLevel::levels_for(personality) {
            let options = CompileOptions {
                gate: PassGate::allow_all(),
                ..CompileOptions::new(personality, level)
            };
            let checked = check_compiled(
                &program.source,
                &program.harness,
                &program.inputs,
                &program.entry_args,
                &options,
                3_000_000,
            )
            .unwrap();
            let eval = tuner.evaluate(&program, personality, level);
            assert_eq!(
                eval.reference_defects, checked.summary,
                "{personality} {level}"
            );
        }
    }
}
