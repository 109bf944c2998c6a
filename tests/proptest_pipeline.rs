//! Property-based integration tests: random programs and inputs must
//! behave identically across optimization levels, and the debug
//! metrics must stay within their invariant bounds. Two pinned,
//! `#[ignore]`d sweeps check the same on every seed of four generator
//! shapes, and build determinism and session equivalence over every
//! gate shape the tuner ships.

use dt_passes::{
    compile_source, pipeline_pass_names, CompileOptions, CompileSession, OptLevel, PassGate,
    Personality,
};
use dt_testsuite::synth::SynthConfig;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs `fuzz_main` on `input`: its return value and output, or why
/// the run did not finish.
fn run(obj: &dt_machine::Object, input: &[u8], max_steps: u64) -> Result<(i64, Vec<i64>), String> {
    let config = dt_vm::VmConfig {
        max_steps,
        ..Default::default()
    };
    let r = dt_vm::Vm::run_finished(obj, "fuzz_main", &[], input, config)?;
    Ok((r.ret, r.output))
}

/// A one-thread tuner with the given step budget per input.
fn serial_tuner(max_steps_per_input: u64) -> debugtuner::DebugTuner {
    debugtuner::DebugTuner::new(debugtuner::TunerConfig {
        max_steps_per_input,
        threads: 1,
    })
}

/// Maps `f` over `items` split round-robin over the machine's cores.
/// Results come back grouped by worker, not in input order.
fn on_all_cores<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    items
                        .iter()
                        .skip(w)
                        .step_by(workers)
                        .map(f)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
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
        let expected = Ok(run(&o0, &input, 5_000_000).unwrap());
        for (personality, level) in [
            (Personality::Gcc, OptLevel::Og),
            (Personality::Gcc, OptLevel::O3),
            (Personality::Clang, OptLevel::O3),
        ] {
            let obj = compile_source(&src, &CompileOptions::new(personality, level)).unwrap();
            let got = run(&obj, &input, 5_000_000);
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
        let e = serial_tuner(2_000_000).evaluate(&p, Personality::Gcc, OptLevel::O2);
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
            let e = serial_tuner(2_000_000).evaluate(&p, personality, OptLevel::O2);
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

        let session = CompileSession::new(dt_frontend::lower_source(&src).unwrap(), personality, level, None);
        let scratch = compile_source(&src, &opts).unwrap();
        let resumed = session.build_variant(&gate).object;
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

        let session = CompileSession::new(dt_frontend::lower_source(&src).unwrap(), personality, level, None);
        let scratch = compile_source(&src, &opts).unwrap();
        prop_assert_eq!(
            session.build_variant(&gate).object.content_hash(),
            scratch.content_hash(),
            "seed {} {:?} {:?} gate {:?}",
            seed, personality, level, disabled
        );
    }
}

/// One generator shape of [`swept_seeds_agree_with_o0_at_every_level`]:
/// seeds `0..seeds`, the levels each seed is compiled at, the input
/// bytes, and the step budget of each run.
struct Sweep {
    shape: SynthConfig,
    seeds: u64,
    levels: &'static [(Personality, OptLevel)],
    bytes: &'static [u8],
    max_steps: u64,
}

/// The differential sweep of the synthetic-program space. Every seed of
/// the default generator shape and of three stress shapes (more
/// functions, deeper expressions, or longer bodies, to reach pass
/// interactions the default shape misses) is compiled at `O0` and at
/// the sweep's levels and run on each input byte `b` as `[b, b ^ 0x5a]`.
/// Every run must finish, and every level must return `O0`'s value and
/// write `O0`'s output. About 30 s in release on two cores, so it is
/// `#[ignore]`d; `scripts/ci.sh` runs it with `--include-ignored`.
#[test]
#[ignore]
fn swept_seeds_agree_with_o0_at_every_level() {
    const EVERY_LEVEL: [(Personality, OptLevel); 8] = [
        (Personality::Gcc, OptLevel::Og),
        (Personality::Gcc, OptLevel::O1),
        (Personality::Gcc, OptLevel::O2),
        (Personality::Gcc, OptLevel::O3),
        (Personality::Clang, OptLevel::Og),
        (Personality::Clang, OptLevel::O1),
        (Personality::Clang, OptLevel::O2),
        (Personality::Clang, OptLevel::O3),
    ];
    const STRESS_LEVELS: [(Personality, OptLevel); 5] = [
        (Personality::Gcc, OptLevel::Og),
        (Personality::Gcc, OptLevel::O2),
        (Personality::Gcc, OptLevel::O3),
        (Personality::Clang, OptLevel::O2),
        (Personality::Clang, OptLevel::O3),
    ];
    let stress = |functions, vars_per_function, stmts_per_function, max_expr_depth| Sweep {
        shape: SynthConfig {
            functions,
            vars_per_function,
            stmts_per_function,
            max_expr_depth,
        },
        seeds: 300,
        levels: &STRESS_LEVELS,
        bytes: &[0, 3, 55, 90, 177, 255],
        max_steps: 20_000_000,
    };
    let sweeps = [
        Sweep {
            shape: SynthConfig::default(),
            seeds: 500,
            levels: &EVERY_LEVEL,
            bytes: &[0, 1, 7, 11, 42, 90, 128, 200, 254, 255],
            max_steps: 5_000_000,
        },
        stress(6, 14, 24, 6),
        stress(2, 4, 40, 2),
        stress(8, 10, 8, 8),
    ];
    let cases: Vec<(usize, u64)> = sweeps
        .iter()
        .enumerate()
        .flat_map(|(i, sweep)| (0..sweep.seeds).map(move |seed| (i, seed)))
        .collect();
    let failures: Vec<String> = on_all_cores(&cases, |&(i, seed)| {
        let sweep = &sweeps[i];
        let src = dt_testsuite::synth::generate(seed, &sweep.shape);
        let o0 = compile_source(&src, &CompileOptions::new(Personality::Gcc, OptLevel::O0))
            .unwrap_or_else(|e| panic!("shape {i} seed {seed} O0: {e:?}"));
        let inputs: Vec<[u8; 2]> = sweep.bytes.iter().map(|&b| [b, b ^ 0x5a]).collect();
        let expected: Vec<_> = inputs
            .iter()
            .map(|input| run(&o0, input, sweep.max_steps))
            .collect();
        let mut failures = Vec::new();
        for &(personality, level) in sweep.levels {
            let obj = compile_source(&src, &CompileOptions::new(personality, level))
                .unwrap_or_else(|e| {
                    panic!("shape {i} seed {seed} {personality:?} {level:?}: {e:?}")
                });
            for (input, want) in inputs.iter().zip(&expected) {
                let got = run(&obj, input, sweep.max_steps);
                if got.is_err() || got != *want {
                    failures.push(format!(
                        "shape {i} seed {seed} {personality:?} {level:?} input {input:?}: \
                         got {got:?}, O0 {want:?}"
                    ));
                    break;
                }
            }
        }
        failures
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "{} disagreements:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The `y` of the nested `Ox-dy`-shaped gates in
/// [`session_and_scratch_builds_are_deterministic_and_agree`].
const DY_SIZES: [usize; 6] = [1, 3, 5, 7, 9, 11];

/// The nested `Ox-dy`-shaped gates of one level: the first `y` names
/// of a shuffle fixed per personality/level, for each `y` in
/// [`DY_SIZES`] the level has names for.
fn dy_gates(personality: Personality, level: OptLevel) -> Vec<(String, PassGate)> {
    let mut names = pipeline_pass_names(personality, level);
    let seed = level as u64 * 2 + u64::from(personality == Personality::Clang);
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..names.len()).rev() {
        names.swap(i, rng.gen_range(0..=i));
    }
    DY_SIZES
        .iter()
        .filter(|&&y| y <= names.len())
        .map(|&y| {
            (
                format!("<d{y}>"),
                PassGate::disabling(names[..y].iter().copied()),
            )
        })
        .collect()
}

/// The sweep of [`session_and_scratch_builds_are_deterministic_and_agree`]
/// over one source. Returns how many gates each session path served:
/// reference reuse, backend only, resumed.
fn sweep_source(name: &str, src: &str) -> [usize; 3] {
    let mut served = [0usize; 3];
    for personality in [Personality::Gcc, Personality::Clang] {
        for &level in OptLevel::levels_for(personality) {
            let session = CompileSession::new(
                dt_frontend::lower_source(src).unwrap(),
                personality,
                level,
                None,
            );
            let names = pipeline_pass_names(personality, level);
            let mut gates: Vec<(String, PassGate)> = vec![("<all>".into(), PassGate::allow_all())];
            for &pass in &names {
                gates.push((pass.to_string(), PassGate::disabling([pass])));
            }
            if names.len() >= 2 {
                gates.push((
                    "<first+last>".into(),
                    PassGate::disabling([names[0], names[names.len() - 1]]),
                ));
                let k = names.len().min(4);
                gates.push((
                    format!("<first {k}>"),
                    PassGate::disabling(names[..k].iter().copied()),
                ));
            }
            gates.extend(dy_gates(personality, level));
            for (gname, gate) in gates {
                let mut opts = CompileOptions::new(personality, level);
                opts.gate = gate.clone();
                let scratch = compile_source(src, &opts).unwrap().content_hash();
                for _ in 0..3 {
                    assert_eq!(
                        compile_source(src, &opts).unwrap().content_hash(),
                        scratch,
                        "{name} {personality:?} {level:?} gate {gname}: nondeterministic build"
                    );
                }
                let built = session.build_variant(&gate);
                assert_eq!(
                    built.object.content_hash(),
                    scratch,
                    "{name} {personality:?} {level:?} gate {gname}: session diverges from scratch"
                );
                let path = match (built.reused_reference, built.reused_optimized) {
                    (true, _) => 0,
                    (false, true) => 1,
                    (false, false) => 2,
                };
                served[path] += 1;
            }
        }
    }
    served
}

/// Exhaustive pinned sweep of build determinism and session
/// equivalence, over the whole suite plus seven synthetic programs,
/// both personalities, every level, and these gates: all passes
/// allowed, each single pass, first+last, the first `k`, and the
/// nested `Ox-dy` gates of [`dy_gates`]. Per gate, four from-scratch
/// builds must share one [`dt_machine::Object::content_hash`] (the
/// content-keyed caches and `.text` pruning rest on it), and the
/// session's build must equal it. Every session path (reference
/// reuse, backend only, resume) must serve at least one gate, so a
/// change that silently disables the early cutoff fails here.
///
/// Sources are split round-robin over the machine's cores. About a
/// minute in release on two cores, so it is `#[ignore]`d;
/// `scripts/ci.sh` runs it with `--include-ignored`.
#[test]
#[ignore]
fn session_and_scratch_builds_are_deterministic_and_agree() {
    let mut srcs: Vec<(String, String)> = dt_testsuite::real_world_suite()
        .iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    let shape = SynthConfig {
        functions: 6,
        vars_per_function: 14,
        stmts_per_function: 24,
        max_expr_depth: 6,
    };
    for seed in [7u64, 77, 204, 15, 118, 126, 321] {
        srcs.push((
            format!("synth{seed}"),
            dt_testsuite::synth::generate(seed, &shape),
        ));
    }

    let served = on_all_cores(&srcs, |(name, src)| sweep_source(name, src));
    let total = |path: usize| served.iter().map(|s| s[path]).sum::<usize>();
    let (reference, backend_only, resumed) = (total(0), total(1), total(2));
    assert!(
        reference > 0 && backend_only > 0 && resumed > 0,
        "a session path served no gate: {reference} reference reuse, \
         {backend_only} backend only, {resumed} resumed"
    );
}
