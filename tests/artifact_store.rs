//! The tuner's artifact store is keyed by content, and the reference
//! defects it memoizes are the checker's verdict on the reference
//! build (the invariant Table XVI is formatted from).

use debugtuner::{DebugTuner, ProgramInput, TunerConfig};
use dt_checker::DefectSummary;
use dt_debugger::SessionConfig;
use dt_minic::analysis::SourceAnalysis;
use dt_passes::{compile_source, CompileOptions, OptLevel, PassGate, Personality};

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
        let alone = DebugTuner::new(TunerConfig {
            max_steps_per_input: 1_000_000,
            threads: 1,
        })
        .evaluate(p, personality, level);
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

/// The checker's verdict on `options`' build of `program`, from
/// scratch: plain `compile_source` builds, slow-step traces (ground
/// truth at `O0`), and `dt_checker::check`. No store, session, or fast
/// path is involved.
fn from_scratch_check(
    program: &ProgramInput,
    options: &CompileOptions,
    max_steps_per_input: u64,
) -> DefectSummary {
    let source = &program.source;
    let analysis = SourceAnalysis::of(&dt_minic::compile_check(source).unwrap());
    let o0 = compile_source(
        source,
        &CompileOptions::new(options.personality, OptLevel::O0),
    )
    .unwrap();
    let obj = compile_source(source, options).unwrap();
    let trace = |obj: &dt_machine::Object, ground_truth| {
        let session = SessionConfig {
            max_steps_per_input,
            entry_args: program.entry_args.clone(),
            ground_truth,
        };
        dt_debugger::trace(obj, &program.harness, &program.inputs, &session).unwrap()
    };
    let base = trace(&o0, true);
    dt_checker::check(&trace(&obj, false), &base, &analysis).summary
}

/// Table XVI sums `ProgramEvaluation::reference_defects`; at every
/// level that must equal a from-scratch check of the unmodified level,
/// and so must the tuner's own `check`.
#[test]
fn reference_defects_equal_a_from_scratch_check_at_every_level() {
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
            let oracle = from_scratch_check(&program, &options, 3_000_000);
            let eval = tuner.evaluate(&program, personality, level);
            assert_eq!(eval.reference_defects, oracle, "{personality} {level}");
            let checked = tuner.check(&program, &options).unwrap();
            assert_eq!(checked.summary, oracle, "{personality} {level}");
        }
    }
}
