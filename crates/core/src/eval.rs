//! The debug-information evaluation component (Section III-A).
//!
//! The four-stage workflow (builds, baseline trace, reference metrics,
//! one variant per gateable pass) is embarrassingly parallel in its
//! fourth stage: each variant's build + debug-trace session is
//! independent. [`evaluate_program_parallel`] fans that stage out
//! across worker threads, and a content-addressed cache (keyed by
//! [`dt_machine::Object::content_hash`]) lets variants that produce
//! identical binaries share a single trace/metric computation. Both
//! paths produce bit-identical `ProgramEvaluation`s: the ordered
//! parallel map returns results in pass order, so ordering and values
//! never depend on scheduling.
//!
//! Compilation itself is staged: all variant builds of one
//! program/personality/level go through a single checkpointed
//! [`dt_passes::CompileSession`], so a variant disabling pass *p*
//! resumes from the snapshot before *p*'s first occurrence instead of
//! recompiling from source (bit-identical by construction — see
//! `dt_passes::session`). Every derived fact (analysis, `O0` object,
//! ground-truth baseline, sessions, reference halves, evaluations,
//! variant traces) lives in one content-keyed [`ArtifactStore`].
//! Stages 1–3 form the memoized [`ReferenceEvaluation`], which tables
//! that read only the unmodified level get without building any
//! variant.

use crate::artifacts::{program_key, source_key, ArtifactStore, ScopeKey, SourceArtifacts};
use dt_checker::DefectSummary;
use dt_debugger::DebugTrace;
use dt_machine::Object;
use dt_metrics::{MethodComparison, Metrics};
use dt_minic::analysis::SourceAnalysis;
use dt_passes::{
    pipeline_pass_names, CompileSession, OptLevel, PassGate, Personality, VariantBuild,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A program plus the inputs driving its debug sessions.
#[derive(Debug, Clone)]
pub struct ProgramInput {
    pub name: String,
    pub source: String,
    /// Harness entry point.
    pub harness: String,
    pub inputs: Vec<Vec<u8>>,
    pub entry_args: Vec<i64>,
}

/// A suite program's fuzz-derived corpus (Section IV's pipeline).
pub struct SuiteCorpus {
    /// The tuner input: the program plus its minimized input set.
    pub program: ProgramInput,
    /// Fuzzing queue length before minimization.
    pub queue_len: usize,
}

/// Runs the paper's input pipeline over a suite program's `O0` binary:
/// fuzz → cmin → trace-min.
pub fn suite_corpus(p: &dt_testsuite::TestProgram, fuzz_iterations: u32) -> SuiteCorpus {
    let harness = p.harnesses[0].to_string();
    let module = dt_frontend::lower_source(p.source).expect("suite program lowers");
    let o0 = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
    let seeds: Vec<Vec<u8>> = p.seeds.iter().map(|s| s.to_vec()).collect();
    let fuzz_cfg = dt_corpus::FuzzConfig {
        iterations: fuzz_iterations,
        max_len: 48,
        seed: 0xD7 ^ p.name.len() as u64,
        max_steps: 300_000,
        entry_args: Vec::new(),
    };
    let report = dt_corpus::fuzz(&o0, &harness, &seeds, &fuzz_cfg);
    let cmin = dt_corpus::cmin(&o0, &harness, &[], &report.queue, 300_000);
    let inputs = dt_corpus::trace_min(&o0, &harness, &[], &cmin, 2_000_000);
    SuiteCorpus {
        program: ProgramInput {
            name: p.name.to_string(),
            source: p.source.to_string(),
            harness,
            inputs,
            entry_args: Vec::new(),
        },
        queue_len: report.queue.len(),
    }
}

impl ProgramInput {
    /// Builds tuner input from a suite program ([`suite_corpus`]).
    pub fn from_suite(p: &dt_testsuite::TestProgram, fuzz_iterations: u32) -> Self {
        suite_corpus(p, fuzz_iterations).program
    }
}

/// Effect of disabling one pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassEffect {
    pub pass: String,
    /// Hybrid metrics with the pass disabled; `None` when the `.text`
    /// was identical to the reference (variant discarded, Section
    /// III-A's pruning) — the metric then equals the reference's.
    pub metrics: Option<Metrics>,
    /// `(M_{o,t} - M_o) / M_o` on the product metric.
    pub relative_increment: f64,
    /// Correctness-oracle summary of the variant's trace against the
    /// O0 ground truth; `None` when the variant was pruned (the
    /// summary then equals the reference's).
    #[serde(default)]
    pub defects: Option<DefectSummary>,
    /// Variant defect rate minus reference defect rate: negative means
    /// disabling the pass makes the surviving debug info more truthful.
    #[serde(default)]
    pub defect_delta: f64,
}

impl PassEffect {
    /// The product metric of the variant (reference's when pruned).
    pub fn product(&self, reference: &Metrics) -> f64 {
        self.metrics.map_or(reference.product, |m| m.product)
    }
}

/// Full evaluation of one program at one personality/level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProgramEvaluation {
    pub program: String,
    /// Hybrid metrics of the unmodified level (the `M_o` baseline).
    pub reference: Metrics,
    /// All four methods on the unmodified level (feeds Table I-style
    /// comparisons).
    pub methods: dt_metrics::MethodComparison,
    /// One entry per gateable pass.
    pub effects: Vec<PassEffect>,
    /// Steppable lines in the O0 binary / stepped by the input set.
    pub steppable_lines_o0: usize,
    pub stepped_lines_o0: usize,
    /// Correctness-oracle summary of the unmodified level against the
    /// O0 ground truth (the `M_o` baseline's truthfulness).
    #[serde(default)]
    pub reference_defects: DefectSummary,
}

/// The reference half of an evaluation (stages 1–3): the unmodified
/// level's build, its trace against the ground truth, and everything
/// measured on it. [`ProgramEvaluation`] copies these fields; stage 4
/// prunes variants against [`Self::object`].
pub struct ReferenceEvaluation {
    pub reference: Metrics,
    pub methods: MethodComparison,
    pub reference_defects: DefectSummary,
    pub steppable_lines_o0: usize,
    pub stepped_lines_o0: usize,
    /// The unmodified level's object.
    pub object: Object,
    /// The store's source artifacts and baseline it was measured
    /// against, so stage 4 reuses them without another lookup.
    art: Arc<SourceArtifacts>,
    base: Arc<DebugTrace>,
}

/// Computes the hybrid metrics of an object against a baseline trace,
/// counting the session in `store`. Sessions take the fast path (in-VM
/// breakpoint bitmap on a per-object [`dt_debugger::BreakPlan`],
/// early-exit inputs) — bit-identical to the slow-step reference
/// engine by construction, so metrics and rankings are unchanged.
fn metrics_for(
    store: &ArtifactStore,
    obj: &Object,
    program: &ProgramInput,
    base: &DebugTrace,
    analysis: &SourceAnalysis,
    max_steps: u64,
) -> (Metrics, DebugTrace) {
    let session = dt_debugger::SessionConfig {
        max_steps_per_input: max_steps,
        entry_args: program.entry_args.clone(),
        ground_truth: false,
    };
    let (m, trace, _) = store.timed(
        || {
            let plan = dt_debugger::BreakPlan::new(obj);
            let (trace, stats) = dt_debugger::trace_with_plan_stats(
                obj,
                &program.harness,
                &program.inputs,
                &session,
                &plan,
            )
            .expect("debug session runs");
            (dt_metrics::hybrid(&trace, base, analysis), trace, stats)
        },
        |s, ms, (_, _, stats)| s.add_trace(ms, stats),
    );
    (m, trace)
}

/// Builds `gate`'s variant from `session`, counting the build and how
/// much of the pipeline it resumed past.
fn build_variant(store: &ArtifactStore, session: &CompileSession, gate: &PassGate) -> VariantBuild {
    store.timed(
        || session.build_variant(gate),
        |s, ms, built| {
            s.add_build(ms);
            if built.prefix_skipped > 0 {
                s.resumed_variants += 1;
                s.prefix_passes_skipped += built.prefix_skipped as u64;
            }
        },
    )
}

/// The program's source artifacts and its ground-truth baseline trace.
pub(crate) fn program_artifacts(
    store: &ArtifactStore,
    program: &ProgramInput,
    max_steps: u64,
) -> (Arc<SourceArtifacts>, Arc<DebugTrace>) {
    let art = store.source(&program.source).expect("program is valid");
    let base = store
        .baseline(
            &art,
            &program.harness,
            &program.inputs,
            &program.entry_args,
            max_steps,
        )
        .expect("baseline session");
    (art, base)
}

/// Runs the four-stage evaluation workflow for one program, serially.
pub fn evaluate_program(
    program: &ProgramInput,
    personality: Personality,
    level: OptLevel,
    max_steps: u64,
) -> ProgramEvaluation {
    evaluate_program_parallel(program, personality, level, max_steps, 1)
}

/// Runs the four-stage evaluation workflow with the per-pass variant
/// stage fanned out across `threads` workers, through a transient
/// [`ArtifactStore`]. Bit-identical to [`evaluate_program`] for any
/// thread count.
pub fn evaluate_program_parallel(
    program: &ProgramInput,
    personality: Personality,
    level: OptLevel,
    max_steps: u64,
    threads: usize,
) -> ProgramEvaluation {
    evaluate_in(
        &ArtifactStore::new(),
        program,
        personality,
        level,
        max_steps,
        threads,
    )
}

/// The memo key of a program's evaluation at one personality/level.
pub(crate) fn scope_of(
    program: &ProgramInput,
    personality: Personality,
    level: OptLevel,
    max_steps: u64,
) -> ScopeKey {
    let key = program_key(
        source_key(&program.source),
        &program.harness,
        &program.inputs,
        &program.entry_args,
        max_steps,
    );
    (key, personality, level)
}

/// The memoized evaluation behind the free functions and
/// [`crate::DebugTuner::evaluate`]. The memo is keyed by the program's
/// content; the returned evaluation carries the caller's name.
pub(crate) fn evaluate_in(
    store: &ArtifactStore,
    program: &ProgramInput,
    personality: Personality,
    level: OptLevel,
    max_steps: u64,
    threads: usize,
) -> ProgramEvaluation {
    let scope = scope_of(program, personality, level, max_steps);
    let eval = store.evaluation(scope, || {
        store.timed(
            || evaluate_uncached(store, scope, program, max_steps, threads),
            |s, ms, _| {
                s.programs += 1;
                s.wall_ms += ms;
            },
        )
    });
    ProgramEvaluation {
        program: program.name.clone(),
        ..eval
    }
}

/// The memoized reference half (stages 1–3) of the evaluation in
/// `scope`.
pub(crate) fn reference_in(
    store: &ArtifactStore,
    scope: ScopeKey,
    program: &ProgramInput,
    max_steps: u64,
) -> Arc<ReferenceEvaluation> {
    store.reference(scope, || {
        let (_, personality, level) = scope;

        // Stage 1: shared artifacts (parsed analysis, O0 object, the
        // ground-truth baseline trace — reused across personalities,
        // levels, and configs) plus this level's checkpointed compile
        // session, from which the reference build reuses the fully
        // optimized module. The ground-truth baseline records shadow
        // values from the VM so the correctness oracle can diff variant
        // traces against source semantics; variable *visibility* stays
        // loclist-based, so the availability metrics are untouched.
        let (art, base) = program_artifacts(store, program, max_steps);
        let session = store.session(&art, personality, level, None);
        let object = store.timed(|| session.reference_object(), |s, ms, _| s.add_build(ms));

        // Stage 2+3: reference trace and metrics (source-refined by the
        // hybrid metric itself).
        let (reference, ref_trace) =
            metrics_for(store, &object, program, &base, &art.analysis, max_steps);
        ReferenceEvaluation {
            reference,
            methods: dt_metrics::all_methods(&object.debug, &ref_trace, &base, &art.analysis),
            reference_defects: dt_checker::check(&ref_trace, &base, &art.analysis).summary,
            steppable_lines_o0: art.o0.debug.steppable_lines().len(),
            stepped_lines_o0: base.stepped_lines().len(),
            object,
            art,
            base,
        }
    })
}

fn evaluate_uncached(
    store: &ArtifactStore,
    scope: ScopeKey,
    program: &ProgramInput,
    max_steps: u64,
    threads: usize,
) -> ProgramEvaluation {
    let (_, personality, level) = scope;
    let r = reference_in(store, scope, program, max_steps);
    let (analysis, base_trace) = (&r.art.analysis, &*r.base);
    let session = store.session(&r.art, personality, level, None);

    // Stage 4: one variant per gateable pass, with `.text` pruning and
    // content-addressed sharing of trace/metric work. The ordered
    // parallel map keeps the output order (and every value in it)
    // independent of worker scheduling.
    let passes = pipeline_pass_names(personality, level);
    let variant_effect = |&pass: &&str| -> PassEffect {
        let variant = build_variant(store, &session, &PassGate::disabling([pass])).object;
        if variant.text_eq(&r.object) {
            store.count(|s| s.pruned_variants += 1);
            return PassEffect {
                pass: pass.to_string(),
                metrics: None,
                relative_increment: 0.0,
                defects: None,
                defect_delta: 0.0,
            };
        }
        let (m, defects) = store.variant_trace(scope, variant.content_hash(), || {
            let (m, variant_trace) =
                metrics_for(store, &variant, program, base_trace, analysis, max_steps);
            let defects = dt_checker::check(&variant_trace, base_trace, analysis).summary;
            (m, defects)
        });
        let rel = if r.reference.product > 0.0 {
            (m.product - r.reference.product) / r.reference.product
        } else if m.product > 0.0 {
            1.0
        } else {
            0.0
        };
        PassEffect {
            pass: pass.to_string(),
            metrics: Some(m),
            relative_increment: rel,
            defects: Some(defects),
            defect_delta: defects.rate() - r.reference_defects.rate(),
        }
    };
    let effects = crate::par_map(&passes, threads, variant_effect);

    ProgramEvaluation {
        program: program.name.clone(),
        reference: r.reference,
        methods: r.methods,
        effects,
        steppable_lines_o0: r.steppable_lines_o0,
        stepped_lines_o0: r.stepped_lines_o0,
        reference_defects: r.reference_defects,
    }
}

/// Evaluates one explicit configuration (level + gate) for a program,
/// returning the hybrid metrics (used for `Ox-dy` measurements).
///
/// Builds through a transient [`ArtifactStore`]; prefer
/// [`crate::DebugTuner::evaluate_config`] when measuring several
/// configurations of the same program, which shares the baseline
/// artifacts and the checkpointed compile session across calls.
pub fn evaluate_config(
    program: &ProgramInput,
    personality: Personality,
    level: OptLevel,
    gate: &PassGate,
    max_steps: u64,
) -> Metrics {
    evaluate_config_in(
        &ArtifactStore::new(),
        program,
        personality,
        level,
        gate,
        max_steps,
    )
}

/// [`evaluate_config`] against an explicit shared store: the program's
/// artifacts (analysis + `O0` + the ground-truth baseline trace) and
/// the personality/level compile session are reused across calls, and
/// the gated build resumes from a mid-pipeline checkpoint.
pub(crate) fn evaluate_config_in(
    store: &ArtifactStore,
    program: &ProgramInput,
    personality: Personality,
    level: OptLevel,
    gate: &PassGate,
    max_steps: u64,
) -> Metrics {
    let (art, base) = program_artifacts(store, program, max_steps);
    let session = store.session(&art, personality, level, None);
    let obj = build_variant(store, &session, gate).object;
    let (m, _) = metrics_for(store, &obj, program, &base, &art.analysis, max_steps);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> ProgramInput {
        ProgramInput {
            name: "eval-test".into(),
            source: "\
int scale(int v, int k) {
    int r = v * k;
    return r + 1;
}
int fuzz_main() {
    int a = in(0);
    int total = 0;
    for (int i = 0; i < 5; i++) {
        total += scale(a, i);
    }
    if (total > 100) {
        total = 100;
    }
    out(total);
    return total;
}"
            .into(),
            harness: "fuzz_main".into(),
            inputs: vec![vec![9], vec![60]],
            entry_args: vec![],
        }
    }

    #[test]
    fn o1_loses_debug_info_vs_o0() {
        let eval = evaluate_program(&program(), Personality::Gcc, OptLevel::O1, 1_000_000);
        assert!(eval.reference.product < 1.0, "O1 must lose something");
        assert!(eval.reference.product > 0.1, "but not everything");
        assert!(!eval.effects.is_empty());
    }

    #[test]
    fn text_pruning_marks_noop_passes() {
        let eval = evaluate_program(&program(), Personality::Gcc, OptLevel::O1, 1_000_000);
        let pruned = eval.effects.iter().filter(|e| e.metrics.is_none()).count();
        assert!(pruned > 0, "some passes must not affect this tiny program");
    }

    #[test]
    fn some_pass_recovers_debug_info_at_o2() {
        let eval = evaluate_program(&program(), Personality::Gcc, OptLevel::O2, 1_000_000);
        let best = eval
            .effects
            .iter()
            .map(|e| e.relative_increment)
            .fold(f64::MIN, f64::max);
        assert!(
            best > 0.0,
            "disabling some pass must improve the product metric (best {best})"
        );
    }

    #[test]
    fn higher_levels_score_lower() {
        let p = program();
        let e1 = evaluate_program(&p, Personality::Gcc, OptLevel::O1, 1_000_000);
        let e3 = evaluate_program(&p, Personality::Gcc, OptLevel::O3, 1_000_000);
        assert!(
            e3.reference.product <= e1.reference.product + 1e-9,
            "O3 ({}) must not beat O1 ({})",
            e3.reference.product,
            e1.reference.product
        );
    }

    #[test]
    fn evaluate_config_matches_reference_for_empty_gate() {
        let p = program();
        let eval = evaluate_program(&p, Personality::Clang, OptLevel::O2, 1_000_000);
        let m = evaluate_config(
            &p,
            Personality::Clang,
            OptLevel::O2,
            &PassGate::allow_all(),
            1_000_000,
        );
        assert!((m.product - eval.reference.product).abs() < 1e-12);
    }
}
