//! The debug-information evaluation component (Section III-A).
//!
//! The four-stage workflow (builds, baseline trace, reference metrics,
//! one variant per gateable pass) is embarrassingly parallel in its
//! fourth stage: each variant's build + debug-trace session is
//! independent. [`DebugTuner::evaluate`] fans that stage out across
//! worker threads, and a content-addressed cache (keyed by
//! [`dt_machine::Object::content_hash`]) lets variants that produce
//! identical binaries share a single trace/metric computation. Every
//! thread count produces bit-identical `ProgramEvaluation`s: the
//! ordered parallel map returns results in pass order, so ordering and
//! values never depend on scheduling.
//!
//! Compilation itself is staged: all variant builds of one
//! program/personality/level go through a single checkpointed
//! [`dt_passes::CompileSession`], so a variant disabling pass *p*
//! resumes from the snapshot before *p*'s first occurrence instead of
//! recompiling from source (bit-identical by construction — see
//! `dt_passes::session`). Every derived fact (analysis, `O0` object,
//! ground-truth baseline, sessions, reference halves, evaluations,
//! variant traces) lives in one content-keyed
//! [`crate::ArtifactStore`].
//! Stages 1–3 form the memoized [`ReferenceEvaluation`], which tables
//! that read only the unmodified level get without building any
//! variant.

use crate::artifacts::{program_key, source_key, ScopeKey, SourceArtifacts};
use crate::DebugTuner;
use dt_checker::DefectSummary;
use dt_debugger::{BreakPlan, DebugTrace, SessionConfig};
use dt_machine::Object;
use dt_metrics::{MethodComparison, Metrics};
use dt_passes::{pipeline_pass_names, OptLevel, PassGate, Personality};
use serde::Serialize;
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
#[derive(Debug, Clone, Serialize)]
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
    pub defects: Option<DefectSummary>,
    /// Variant defect rate minus reference defect rate: negative means
    /// disabling the pass makes the surviving debug info more truthful.
    pub defect_delta: f64,
}

impl PassEffect {
    /// The product metric of the variant (reference's when pruned).
    pub fn product(&self, reference: &Metrics) -> f64 {
        self.metrics.map_or(reference.product, |m| m.product)
    }
}

/// Full evaluation of one program at one personality/level.
#[derive(Debug, Clone, Serialize)]
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

impl DebugTuner {
    /// The debugger configuration of every non-ground-truth session:
    /// the tuner's step budget and the program's entry arguments.
    pub(crate) fn session_config(&self, entry_args: &[i64]) -> SessionConfig {
        SessionConfig {
            max_steps_per_input: self.config.max_steps_per_input,
            entry_args: entry_args.to_vec(),
            ground_truth: false,
        }
    }

    /// `obj`'s debug trace over the program's inputs. Sessions take the
    /// fast path (in-VM breakpoint bitmap on a per-object [`BreakPlan`],
    /// early-exit inputs) — bit-identical to the slow-step reference
    /// engine by construction, so metrics and rankings are unchanged.
    fn trace_for(&self, obj: &Object, program: &ProgramInput) -> DebugTrace {
        let session = self.session_config(&program.entry_args);
        self.store
            .trace(
                obj,
                &BreakPlan::new(obj),
                &program.harness,
                &program.inputs,
                &session,
            )
            .expect("debug session runs")
    }

    /// The program's source artifacts and its ground-truth baseline
    /// trace.
    fn program_artifacts(&self, program: &ProgramInput) -> (Arc<SourceArtifacts>, Arc<DebugTrace>) {
        let art = self
            .store
            .source(&program.source)
            .expect("program is valid");
        let base = self
            .store
            .baseline(
                &art,
                &program.harness,
                &program.inputs,
                &program.entry_args,
                self.config.max_steps_per_input,
            )
            .expect("baseline session");
        (art, base)
    }

    /// The memo key of a program's evaluation at one personality/level.
    fn scope_of(
        &self,
        program: &ProgramInput,
        personality: Personality,
        level: OptLevel,
    ) -> ScopeKey {
        let key = program_key(
            source_key(&program.source),
            &program.harness,
            &program.inputs,
            &program.entry_args,
            self.config.max_steps_per_input,
        );
        (key, personality, level)
    }

    /// Evaluates one program at one personality/level (cached), fanning
    /// the per-pass variant builds and trace sessions out across
    /// `config.threads` workers. Bit-identical for any thread count.
    pub fn evaluate(
        &self,
        program: &ProgramInput,
        personality: Personality,
        level: OptLevel,
    ) -> ProgramEvaluation {
        self.evaluate_with_threads(program, personality, level, self.config.threads)
    }

    /// [`DebugTuner::evaluate`] on `threads` workers. The memo is keyed
    /// by the program's content; the returned evaluation carries the
    /// caller's name.
    pub(crate) fn evaluate_with_threads(
        &self,
        program: &ProgramInput,
        personality: Personality,
        level: OptLevel,
        threads: usize,
    ) -> ProgramEvaluation {
        let scope = self.scope_of(program, personality, level);
        let eval = self.store.evaluation(scope, || {
            self.store.timed(
                || self.evaluate_uncached(scope, program, threads),
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

    /// The reference half of [`DebugTuner::evaluate`] (cached, stages
    /// 1–3): the unmodified level's metrics, methods, and defects, with
    /// no per-pass variant built. A later `evaluate` of the same
    /// program and level reuses it instead of rebuilding the reference.
    pub fn reference(
        &self,
        program: &ProgramInput,
        personality: Personality,
        level: OptLevel,
    ) -> Arc<ReferenceEvaluation> {
        let scope = self.scope_of(program, personality, level);
        self.store.reference(scope, || {
            // Stage 1: shared artifacts (parsed analysis, O0 object, the
            // ground-truth baseline trace — reused across personalities,
            // levels, and configs) plus this level's checkpointed compile
            // session, from which the reference build reuses the fully
            // optimized module. The ground-truth baseline records shadow
            // values from the VM so the correctness oracle can diff
            // variant traces against source semantics; variable
            // *visibility* stays loclist-based, so the availability
            // metrics are untouched.
            let (art, base) = self.program_artifacts(program);
            let session = self.store.session(&art, personality, level, None);
            let object = self
                .store
                .timed(|| session.reference_object(), |s, ms, _| s.add_build(ms));

            // Stage 2+3: reference trace and metrics (source-refined by
            // the hybrid metric itself, which is one of the methods).
            let ref_trace = self.trace_for(&object, program);
            let methods = dt_metrics::all_methods(&object.debug, &ref_trace, &base, &art.analysis);
            ReferenceEvaluation {
                reference: methods.hybrid,
                methods,
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
        &self,
        scope: ScopeKey,
        program: &ProgramInput,
        threads: usize,
    ) -> ProgramEvaluation {
        let (_, personality, level) = scope;
        let r = self.reference(program, personality, level);
        let (analysis, base_trace) = (&r.art.analysis, &*r.base);
        let session = self.store.session(&r.art, personality, level, None);

        // Stage 4: one variant per gateable pass, with `.text` pruning
        // and content-addressed sharing of trace/metric work. The
        // ordered parallel map keeps the output order (and every value
        // in it) independent of worker scheduling.
        let passes = pipeline_pass_names(personality, level);
        let variant_effect = |&pass: &&str| -> PassEffect {
            let variant = self
                .store
                .build_variant(&session, &PassGate::disabling([pass]))
                .object;
            if variant.text_eq(&r.object) {
                self.store.count(|s| s.pruned_variants += 1);
                return PassEffect {
                    pass: pass.to_string(),
                    metrics: None,
                    relative_increment: 0.0,
                    defects: None,
                    defect_delta: 0.0,
                };
            }
            let (m, defects) = self.store.variant_trace(scope, variant.content_hash(), || {
                let variant_trace = self.trace_for(&variant, program);
                let m = dt_metrics::hybrid(&variant_trace, base_trace, analysis);
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

    /// Evaluates one explicit configuration (level + gate) of a program,
    /// returning the hybrid metrics (used for `Ox-dy` measurements).
    /// The baseline trace, `O0` object, and checkpointed compile
    /// session are reused across calls (and with
    /// [`DebugTuner::evaluate`] runs of the same program), and the
    /// gated build resumes from a mid-pipeline snapshot instead of
    /// recompiling from source.
    pub fn evaluate_config(
        &self,
        program: &ProgramInput,
        personality: Personality,
        level: OptLevel,
        gate: &PassGate,
    ) -> Metrics {
        let (art, base) = self.program_artifacts(program);
        let session = self.store.session(&art, personality, level, None);
        let obj = self.store.build_variant(&session, gate).object;
        dt_metrics::hybrid(&self.trace_for(&obj, program), &base, &art.analysis)
    }

    /// Steppable lines of the program's `O0` binary and the lines its
    /// inputs step (Table III's coverage columns), read from the
    /// ground-truth baseline every evaluation of the program shares.
    pub fn o0_coverage(&self, program: &ProgramInput) -> (usize, usize) {
        let (art, base) = self.program_artifacts(program);
        (
            art.o0.debug.steppable_lines().len(),
            base.stepped_lines().len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TunerConfig;

    fn tuner() -> DebugTuner {
        DebugTuner::new(TunerConfig {
            max_steps_per_input: 1_000_000,
            threads: 1,
        })
    }

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
        let eval = tuner().evaluate(&program(), Personality::Gcc, OptLevel::O1);
        assert!(eval.reference.product < 1.0, "O1 must lose something");
        assert!(eval.reference.product > 0.1, "but not everything");
        assert!(!eval.effects.is_empty());
    }

    #[test]
    fn text_pruning_marks_noop_passes() {
        let eval = tuner().evaluate(&program(), Personality::Gcc, OptLevel::O1);
        let pruned = eval.effects.iter().filter(|e| e.metrics.is_none()).count();
        assert!(pruned > 0, "some passes must not affect this tiny program");
    }

    #[test]
    fn some_pass_recovers_debug_info_at_o2() {
        let eval = tuner().evaluate(&program(), Personality::Gcc, OptLevel::O2);
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
        let e1 = tuner().evaluate(&p, Personality::Gcc, OptLevel::O1);
        let e3 = tuner().evaluate(&p, Personality::Gcc, OptLevel::O3);
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
        let eval = tuner().evaluate(&p, Personality::Clang, OptLevel::O2);
        let m =
            tuner().evaluate_config(&p, Personality::Clang, OptLevel::O2, &PassGate::allow_all());
        assert!((m.product - eval.reference.product).abs() < 1e-12);
    }
}
