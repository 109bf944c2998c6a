//! `rank`: the tuner's core loop, closed loop, one client.
//!
//! Set-up builds the 13 real-world programs with fuzz-derived inputs
//! ([`debugtuner::suite_programs`]). A round creates one single-threaded
//! [`DebugTuner`] and evaluates every program at every tuned
//! personality/level in a seed-shuffled order (one op = one
//! [`DebugTuner::evaluate`] call), then ranks the passes of each level
//! with [`rank_passes_across`]. Compilation dominates this workload and
//! the VM's cycle model is off, so it exercises the `passes`, `machine`
//! and `debugger` layers and bypasses the cycle model.
//!
//! The traced round re-drives the call sequence `DebugTuner::evaluate`
//! makes (artifact build, compile session, reference trace, one variant
//! per gateable pass with `.text` pruning and the content-addressed
//! trace cache) with a timer around each crate call, and must reproduce
//! the untraced digests and the tuner's own telemetry counts.

use crate::{json_digest, Calibration, Layers, Op, Pinned, Rng, Round};
use debugtuner::{rank_passes_across, DebugTuner, PassEffect, ProgramEvaluation, ProgramInput};
use dt_checker::DefectSummary;
use dt_debugger::{BreakPlan, DebugTrace, SessionConfig};
use dt_metrics::Metrics;
use dt_minic::analysis::SourceAnalysis;
use dt_passes::{pipeline_pass_names, CompileSession, OptLevel, PassGate, Personality};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Fuzzing iterations per harness for the suite inputs (the campaign's
/// CI knob, so `rank` and `campaign` evaluate the same input sets).
pub const FUZZ_ITERS: u32 = 200;
/// Instruction budget per debugger input (the experiments' setting).
pub const MAX_STEPS: u64 = 3_000_000;

/// Every tuned personality/level: gcc Og/O1/O2/O3, clang O1/O2/O3.
pub fn levels() -> Vec<(Personality, OptLevel)> {
    [Personality::Gcc, Personality::Clang]
        .into_iter()
        .flat_map(|p| OptLevel::levels_for(p).iter().map(move |&l| (p, l)))
        .collect()
}

fn level_key(p: Personality, l: OptLevel) -> String {
    format!("{p}|{l}")
}

/// The inputs of one round: the programs and the seed-shuffled op order
/// (program index, personality, level).
pub struct RankInput {
    pub programs: Vec<ProgramInput>,
    pub order: Vec<(usize, Personality, OptLevel)>,
}

/// Set-up: the suite's fuzz-derived inputs and the shuffled op order.
pub fn setup(seed: u64) -> RankInput {
    setup_with(debugtuner::suite_programs(FUZZ_ITERS), &levels(), seed)
}

/// Set-up with the input pipeline timed per program
/// (`corpus.input_pipeline_ms`); identical inputs to [`setup`].
pub fn setup_traced(seed: u64, layers: &mut Layers) -> RankInput {
    let programs = dt_testsuite::real_world_suite()
        .iter()
        .map(|p| {
            layers.time("corpus.input_pipeline_ms", || {
                ProgramInput::from_suite(p, FUZZ_ITERS)
            })
        })
        .collect();
    setup_with(programs, &levels(), seed)
}

/// Set-up over an explicit program set and level list (tests use a
/// reduced configuration).
pub fn setup_with(
    programs: Vec<ProgramInput>,
    levels: &[(Personality, OptLevel)],
    seed: u64,
) -> RankInput {
    let mut order: Vec<_> = levels
        .iter()
        .flat_map(|&(p, l)| (0..programs.len()).map(move |i| (i, p, l)))
        .collect();
    Rng::new(seed).shuffle(&mut order);
    RankInput { programs, order }
}

/// Evaluations of one round, per level in program order.
type LevelEvals = BTreeMap<String, Vec<Option<ProgramEvaluation>>>;

fn record_eval(
    round: &mut Round,
    pinned: &Pinned,
    evals: &mut LevelEvals,
    input: &RankInput,
    op: (usize, Personality, OptLevel),
    eval: ProgramEvaluation,
    ms: f64,
) {
    let (i, p, l) = op;
    let key = format!("rank {}|{}", input.programs[i].name, level_key(p, l));
    let digest = json_digest(&eval);
    round.digests.insert(key.clone(), digest);
    round.ops.push(Op {
        ms,
        error: pinned.check(&key, digest).err(),
    });
    evals
        .entry(level_key(p, l))
        .or_insert_with(|| vec![None; input.programs.len()])[i] = Some(eval);
}

/// Ranks every level and checks each ranking against its pin.
fn rank_levels(round: &mut Round, pinned: &Pinned, evals: LevelEvals, traced: bool) {
    for (level, evals) in evals {
        let evals: Vec<ProgramEvaluation> = evals.into_iter().flatten().collect();
        let ranking = if traced {
            round
                .layers
                .time("core.rank_ms", || rank_passes_across(&evals))
        } else {
            rank_passes_across(&evals)
        };
        let key = format!("rank-ranking {level}");
        let digest = json_digest(&ranking);
        round.digests.insert(key.clone(), digest);
        if let Err(e) = pinned.check(&key, digest) {
            round.problems.push(e);
        }
    }
}

/// One untraced round through [`DebugTuner::evaluate`].
pub fn round(input: &RankInput, pinned: &Pinned, cal: &mut Calibration) -> Round {
    let mut round = Round::default();
    let tuner = DebugTuner::new(debugtuner::TunerConfig {
        max_steps_per_input: MAX_STEPS,
        threads: 1,
    });
    let mut evals = LevelEvals::new();
    for &op in &input.order {
        let (i, p, l) = op;
        let start = Instant::now();
        let eval = tuner.evaluate(&input.programs[i], p, l);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        record_eval(&mut round, pinned, &mut evals, input, op, eval, ms);
        cal.tick();
    }
    rank_levels(&mut round, pinned, evals, false);
    let s = tuner.stats();
    for (name, v) in [
        ("core.sessions", s.sessions),
        ("core.variants_pruned", s.pruned_variants),
        ("core.traces", s.traces),
        ("core.trace_cache_hits", s.trace_cache_hits),
        ("core.prefix_skipped", s.prefix_passes_skipped),
        ("core.fast_steps", s.fast_steps),
        ("core.break_stops", s.break_stops),
    ] {
        round.layers.set(name, v as f64);
    }
    round.notes.push(format!("tuner stats: {}", s.summary()));
    round
}

/// Program-level artifacts of the traced re-drive (what
/// `debugtuner::ArtifactStore` keeps per program).
struct Artifacts {
    analysis: SourceAnalysis,
    module: dt_ir::Module,
    o0: dt_machine::Object,
    base_trace: DebugTrace,
}

fn count_trace(layers: &mut Layers, stats: &dt_debugger::TraceStats) {
    layers.add("debugger.traces", 1.0);
    layers.add("debugger.break_stops", stats.break_stops as f64);
    layers.add("vm.fast_steps", stats.fast_steps as f64);
}

fn artifacts(layers: &mut Layers, program: &ProgramInput) -> Artifacts {
    let parsed = layers.time("minic.check_ms", || {
        dt_minic::compile_check(&program.source).expect("suite program is valid")
    });
    let analysis = layers.time("minic.analysis_ms", || SourceAnalysis::of(&parsed));
    let module = layers.time("frontend.lower_ms", || {
        dt_frontend::lower_source(&program.source).expect("suite program lowers")
    });
    let o0 = layers.time("machine.o0_backend_ms", || {
        dt_machine::run_backend(&module, &dt_machine::BackendConfig::default())
    });
    let plan = layers.time("debugger.plan_ms", || BreakPlan::new(&o0));
    let session = SessionConfig {
        max_steps_per_input: MAX_STEPS,
        entry_args: program.entry_args.clone(),
        ground_truth: true,
    };
    let (base_trace, stats) = layers.time("debugger.trace_ms", || {
        dt_debugger::trace_with_plan_stats(&o0, &program.harness, &program.inputs, &session, &plan)
            .expect("baseline session")
    });
    count_trace(layers, &stats);
    Artifacts {
        analysis,
        module,
        o0,
        base_trace,
    }
}

/// Plan, trace and hybrid metrics of one object against the baseline.
fn metrics_for(
    layers: &mut Layers,
    obj: &dt_machine::Object,
    program: &ProgramInput,
    art: &Artifacts,
) -> (Metrics, DebugTrace) {
    let session = SessionConfig {
        max_steps_per_input: MAX_STEPS,
        entry_args: program.entry_args.clone(),
        ground_truth: false,
    };
    let plan = layers.time("debugger.plan_ms", || BreakPlan::new(obj));
    let (trace, stats) = layers.time("debugger.trace_ms", || {
        dt_debugger::trace_with_plan_stats(obj, &program.harness, &program.inputs, &session, &plan)
            .expect("debug session runs")
    });
    count_trace(layers, &stats);
    let m = layers.time("metrics.hybrid_ms", || {
        dt_metrics::hybrid(&trace, &art.base_trace, &art.analysis)
    });
    (m, trace)
}

type TraceCache = HashMap<(String, u64), (Metrics, DefectSummary)>;

/// The evaluation of one program at one level, crate call by crate call.
fn evaluate_traced(
    layers: &mut Layers,
    cache: &mut TraceCache,
    program: &ProgramInput,
    art: &Artifacts,
    personality: Personality,
    level: OptLevel,
) -> ProgramEvaluation {
    let session = layers.time("passes.session_ms", || {
        CompileSession::new(art.module.clone(), personality, level, None)
    });
    layers.add("passes.sessions", 1.0);
    let reference_obj = layers.time("passes.session_ms", || session.reference_object());
    let (reference, ref_trace) = metrics_for(layers, &reference_obj, program, art);
    let methods = layers.time("metrics.methods_ms", || {
        dt_metrics::all_methods(
            &reference_obj.debug,
            &ref_trace,
            &art.base_trace,
            &art.analysis,
        )
    });
    let reference_defects = layers.time("checker.check_ms", || {
        dt_checker::check(&ref_trace, &art.base_trace, &art.analysis).summary
    });

    let scope = format!("{}|{personality}|{level}", program.name);
    let mut effects = Vec::new();
    for pass in pipeline_pass_names(personality, level) {
        let built = layers.time("passes.variant_ms", || {
            session.build_variant(&PassGate::disabling([pass]))
        });
        layers.add("passes.variants", 1.0);
        layers.add("passes.prefix_skipped", built.prefix_skipped as f64);
        let variant = built.object;
        if variant.text_eq(&reference_obj) {
            layers.add("passes.pruned", 1.0);
            effects.push(PassEffect {
                pass: pass.to_string(),
                metrics: None,
                relative_increment: 0.0,
                defects: None,
                defect_delta: 0.0,
            });
            continue;
        }
        let key = (scope.clone(), variant.content_hash());
        let (m, defects) = match cache.get(&key) {
            Some(&hit) => {
                layers.add("core.trace_cache_hits", 1.0);
                hit
            }
            None => {
                let (m, trace) = metrics_for(layers, &variant, program, art);
                let defects = layers.time("checker.check_ms", || {
                    dt_checker::check(&trace, &art.base_trace, &art.analysis).summary
                });
                cache.insert(key, (m, defects));
                (m, defects)
            }
        };
        let rel = if reference.product > 0.0 {
            (m.product - reference.product) / reference.product
        } else if m.product > 0.0 {
            1.0
        } else {
            0.0
        };
        effects.push(PassEffect {
            pass: pass.to_string(),
            metrics: Some(m),
            relative_increment: rel,
            defects: Some(defects),
            defect_delta: defects.rate() - reference_defects.rate(),
        });
    }
    ProgramEvaluation {
        program: program.name.clone(),
        reference,
        methods,
        effects,
        steppable_lines_o0: art.o0.debug.steppable_lines().len(),
        stepped_lines_o0: art.base_trace.stepped_lines().len(),
        reference_defects,
    }
}

/// One traced round: the re-drive, timed per crate call.
pub fn traced_round(input: &RankInput, pinned: &Pinned, cal: &mut Calibration) -> Round {
    let mut round = Round::default();
    let mut arts: HashMap<usize, Artifacts> = HashMap::new();
    let mut cache = TraceCache::new();
    let mut evals = LevelEvals::new();
    for &op in &input.order {
        let (i, p, l) = op;
        let program = &input.programs[i];
        let start = Instant::now();
        let layers = &mut round.layers;
        let art = arts.entry(i).or_insert_with(|| artifacts(layers, program));
        let eval = evaluate_traced(layers, &mut cache, program, art, p, l);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        record_eval(&mut round, pinned, &mut evals, input, op, eval, ms);
        cal.tick();
    }
    rank_levels(&mut round, pinned, evals, true);
    let layers = &mut round.layers;
    let variants = layers.get("passes.variants");
    let useful = variants - layers.get("passes.pruned");
    layers.set("passes.useful_variant_frac", useful / variants.max(1.0));
    round
}

/// Checks that the traced re-drive did the same work the tuner reports
/// for the untraced round: same sessions, pruning, traces, cache hits,
/// resumed prefix and VM work.
pub fn compare_counts(untraced: &Layers, traced: &Layers) -> Vec<String> {
    [
        ("core.sessions", "passes.sessions"),
        ("core.variants_pruned", "passes.pruned"),
        ("core.traces", "debugger.traces"),
        ("core.trace_cache_hits", "core.trace_cache_hits"),
        ("core.prefix_skipped", "passes.prefix_skipped"),
        ("core.fast_steps", "vm.fast_steps"),
        ("core.break_stops", "debugger.break_stops"),
    ]
    .into_iter()
    .filter(|&(tuner, redrive)| untraced.get(tuner) != traced.get(redrive))
    .map(|(tuner, redrive)| {
        format!(
            "re-drive count {redrive}={} differs from tuner {tuner}={}",
            traced.get(redrive),
            untraced.get(tuner)
        )
    })
    .collect()
}
