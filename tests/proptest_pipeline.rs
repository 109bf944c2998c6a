//! Property-based integration tests: random programs and inputs must
//! behave identically across optimization levels, and the debug
//! metrics must stay within their invariant bounds.

use dt_passes::{
    compile_source, pipeline_pass_names, CompileOptions, CompileSession, OptLevel, PassGate,
    Personality,
};
use proptest::prelude::*;

fn run(obj: &dt_machine::Object, input: &[u8]) -> (i64, Vec<i64>) {
    let r = dt_vm::Vm::run_to_completion(
        obj,
        "fuzz_main",
        &[],
        input,
        dt_vm::VmConfig {
            max_steps: 5_000_000,
            ..Default::default()
        },
    )
    .expect("runs");
    (r.ret, r.output)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential testing of the whole compiler: generated programs
    /// agree between O0 and the highest levels of both personalities.
    #[test]
    fn generated_programs_agree_across_levels(seed in 0u64..500, byte in 0u8..255) {
        let cfg = dt_testsuite::synth::SynthConfig::default();
        let src = dt_testsuite::synth::generate(seed, &cfg);
        let input = [byte, byte ^ 0x5a];
        let o0 = compile_source(&src, &CompileOptions::new(Personality::Gcc, OptLevel::O0)).unwrap();
        let expected = run(&o0, &input);
        for (personality, level) in [
            (Personality::Gcc, OptLevel::Og),
            (Personality::Gcc, OptLevel::O3),
            (Personality::Clang, OptLevel::O3),
        ] {
            let obj = compile_source(&src, &CompileOptions::new(personality, level)).unwrap();
            let got = run(&obj, &input);
            prop_assert_eq!(
                &got, &expected,
                "seed {} {:?} {:?}\n{}", seed, personality, level, src
            );
        }
    }

    /// Metric invariants hold for arbitrary generated programs.
    #[test]
    fn metric_invariants(seed in 0u64..200) {
        let cfg = dt_testsuite::synth::SynthConfig::default();
        let src = dt_testsuite::synth::generate(seed, &cfg);
        let p = debugtuner::ProgramInput {
            name: format!("prop{seed}"),
            source: src,
            harness: "fuzz_main".into(),
            inputs: vec![vec![seed as u8, 9]],
            entry_args: vec![],
        };
        let e = debugtuner::evaluate_program(&p, Personality::Gcc, OptLevel::O2, 2_000_000);
        let m = e.reference;
        prop_assert!((0.0..=1.0).contains(&m.availability));
        prop_assert!((0.0..=1.0).contains(&m.line_coverage));
        prop_assert!((m.product - m.availability * m.line_coverage).abs() < 1e-12);
        // Hybrid availability typically sits at or above dynamic (the
        // refinement removes baseline artifacts) — but it is not a
        // strict per-program invariant: dropping an out-of-scope
        // variable that was visible in *both* builds removes it from
        // numerator and denominator alike and can lower the ratio.
        // Bound the divergence instead of asserting the direction.
        prop_assert!(
            e.methods.hybrid.availability >= e.methods.dynamic.availability - 0.30,
            "hybrid {} vs dynamic {}",
            e.methods.hybrid.availability,
            e.methods.dynamic.availability
        );
        prop_assert!((0.0..=1.0).contains(&e.methods.hybrid.availability));
        // Line coverage is identical between hybrid and dynamic by
        // construction.
        prop_assert!((e.methods.hybrid.line_coverage - e.methods.dynamic.line_coverage).abs() < 1e-12);
    }

    /// The staged-session correctness invariant: for random programs,
    /// personality/level combinations, and random pass-gate subsets, a
    /// checkpoint-resumed variant build is bit-identical
    /// (`Object::content_hash`) to compiling from scratch with the
    /// same options.
    #[test]
    fn session_variants_match_from_scratch(
        seed in 0u64..300,
        combo in 0usize..7,
        mask in 0u64..u64::MAX,
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
        let names = pipeline_pass_names(personality, level);
        let disabled: Vec<&str> = names
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
            .map(|(_, &n)| n)
            .collect();
        let gate = PassGate::disabling(disabled.iter().copied());
        let mut opts = CompileOptions::new(personality, level);
        opts.gate = gate.clone();

        let session = CompileSession::from_source(&src, personality, level, None).unwrap();
        let scratch = compile_source(&src, &opts).unwrap();
        let resumed = session.compile_variant(&gate);
        prop_assert_eq!(
            resumed.content_hash(),
            scratch.content_hash(),
            "seed {} {:?} {:?} gate {:?}",
            seed, personality, level, disabled
        );
        let reference = compile_source(&src, &CompileOptions::new(personality, level)).unwrap();
        prop_assert_eq!(
            session.reference_object().content_hash(),
            reference.content_hash(),
            "seed {} {:?} {:?} reference",
            seed, personality, level
        );
    }

    /// The same invariant for sparse gates of 1–3 names, the shape
    /// that mostly disables passes which left the reference module
    /// unchanged and so reaches the session's early cutoff (optimized
    /// module and reference object reuse), which the half-density
    /// masks above rarely do.
    #[test]
    fn sparse_session_gates_match_from_scratch(
        seed in 0u64..300,
        combo in 0usize..7,
        picks in proptest::collection::vec(0usize..64, 1..=3),
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
        let names = pipeline_pass_names(personality, level);
        let disabled: Vec<&str> = picks.iter().map(|&i| names[i % names.len()]).collect();
        let gate = PassGate::disabling(disabled.iter().copied());
        let mut opts = CompileOptions::new(personality, level);
        opts.gate = gate.clone();

        let session = CompileSession::from_source(&src, personality, level, None).unwrap();
        let scratch = compile_source(&src, &opts).unwrap();
        prop_assert_eq!(
            session.compile_variant(&gate).content_hash(),
            scratch.content_hash(),
            "seed {} {:?} {:?} gate {:?}",
            seed, personality, level, disabled
        );
    }

    /// The paper's ordering invariant (Section II-C): on the product
    /// metric the hybrid method lies between the dynamic method (which
    /// overestimates by crediting baseline artifacts) and the
    /// static-dbg method (which underestimates by ignoring liveness).
    /// Per-program the sandwich is approximate — scope-pruning can
    /// push hybrid slightly past either bound (measured worst case
    /// 0.021 across 200 seeds for both personalities) — so the bound
    /// carries a small tolerance.
    #[test]
    fn hybrid_product_between_dynamic_and_static_dbg(seed in 0u64..200) {
        let cfg = dt_testsuite::synth::SynthConfig::default();
        let src = dt_testsuite::synth::generate(seed, &cfg);
        let p = debugtuner::ProgramInput {
            name: format!("sandwich{seed}"),
            source: src,
            harness: "fuzz_main".into(),
            inputs: vec![vec![seed as u8, 9]],
            entry_args: vec![],
        };
        for personality in [Personality::Gcc, Personality::Clang] {
            let e = debugtuner::evaluate_program(&p, personality, OptLevel::O2, 2_000_000);
            let hybrid = e.methods.hybrid.product;
            let dynamic = e.methods.dynamic.product;
            let static_dbg = e.methods.static_dbg.product;
            let lo = dynamic.min(static_dbg);
            let hi = dynamic.max(static_dbg);
            prop_assert!(
                hybrid >= lo - 0.05 && hybrid <= hi + 0.05,
                "{:?}: hybrid {} outside [{}, {}] (dynamic {}, static-dbg {})",
                personality, hybrid, lo, hi, dynamic, static_dbg
            );
        }
    }
}
