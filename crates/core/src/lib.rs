//! DEBUGTUNER: systematic analysis of the impact of individual
//! compiler optimization passes on debug-information quality, and
//! construction of debug-friendly optimization levels (the paper's
//! primary contribution, Section III).
//!
//! The framework has the paper's two components:
//!
//! * **Debug-information evaluation** ([`eval`]): for a program and an
//!   optimization level, build the `O0` baseline and the level's
//!   reference binary plus one variant per gateable pass with that
//!   pass disabled; discard variants whose `.text` equals the
//!   reference (the pass changed nothing); extract temp-breakpoint
//!   debug traces for the rest; compute the hybrid product metric for
//!   each.
//! * **Compiler-configuration tuning** ([`rank`], [`config`]):
//!   aggregate the per-pass relative metric increments across the test
//!   suite by average rank, and derive `Ox-dy` configurations that
//!   disable the top *y* passes (with the paper's special treatment of
//!   the top-level inliner switches). [`pareto`] computes the
//!   debuggability/performance front of Figure 2.
//!
//! ```no_run
//! use debugtuner::{DebugTuner, TunerConfig};
//! use dt_passes::{OptLevel, Personality};
//!
//! let tuner = DebugTuner::new(TunerConfig::default());
//! let programs = debugtuner::suite_programs(400);
//! let ranking = tuner.rank_passes(&programs, Personality::Gcc, OptLevel::O2);
//! for entry in ranking.entries.iter().take(10) {
//!     println!("{}  {:+.2}%", entry.pass, entry.geomean_increment * 100.0);
//! }
//! ```

pub mod artifacts;
pub mod check;
pub mod config;
pub mod eval;
pub mod pareto;
pub mod perf;
pub mod rank;
pub mod telemetry;

pub use artifacts::{ArtifactStore, RunOutcome};
pub use check::{check_compiled, hunt, hunt_variants, HuntConfig, HuntResult};
pub use config::{dy_config, dy_family, DyConfig};
pub use eval::{
    evaluate_program, evaluate_program_parallel, suite_corpus, PassEffect, ProgramEvaluation,
    ProgramInput, ReferenceEvaluation, SuiteCorpus,
};
pub use pareto::{pareto_front, TradeoffPoint};
pub use perf::{measure_speedup, PerfReport, RunCall};
pub use rank::{rank_passes_across, PassRanking, RankEntry};
pub use telemetry::{EvalStats, Telemetry};

use dt_autofdo::AutoFdoResult;
use dt_passes::{OptLevel, PassGate, Personality};
use dt_testsuite::spec::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Global tuner settings.
#[derive(Debug, Clone)]
pub struct TunerConfig {
    /// Instruction budget per debugger input.
    pub max_steps_per_input: u64,
    /// Worker threads for the build/trace matrix.
    pub threads: usize,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            max_steps_per_input: 3_000_000,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

/// The DebugTuner framework instance: the owner of one
/// [`ArtifactStore`], so evaluations, baselines, compile sessions, and
/// variant traces are shared across every table that uses the tuner,
/// and its telemetry counts the work performed vs avoided.
pub struct DebugTuner {
    pub config: TunerConfig,
    store: ArtifactStore,
}

impl DebugTuner {
    /// A tuner with the given settings.
    pub fn new(config: TunerConfig) -> Self {
        DebugTuner {
            config,
            store: ArtifactStore::new(),
        }
    }

    /// A serializable snapshot of the work performed so far (builds,
    /// traces, cache hits, per-stage wall-clock).
    pub fn stats(&self) -> EvalStats {
        self.store.telemetry().snapshot(self.config.threads)
    }

    /// Resets the telemetry counters (the evaluation caches survive).
    pub fn reset_stats(&self) {
        self.store.telemetry().reset();
    }

    /// Evaluates one program at one personality/level (cached), fanning
    /// the per-pass variant builds and trace sessions out across
    /// `config.threads` workers.
    pub fn evaluate(
        &self,
        program: &ProgramInput,
        personality: Personality,
        level: OptLevel,
    ) -> ProgramEvaluation {
        self.evaluate_with_threads(program, personality, level, self.config.threads)
    }

    fn evaluate_with_threads(
        &self,
        program: &ProgramInput,
        personality: Personality,
        level: OptLevel,
        threads: usize,
    ) -> ProgramEvaluation {
        eval::evaluate_in(
            &self.store,
            program,
            personality,
            level,
            self.config.max_steps_per_input,
            threads,
        )
    }

    /// The reference half of [`DebugTuner::evaluate`] (cached): the
    /// unmodified level's metrics, methods, and defects, with no
    /// per-pass variant built. A later `evaluate` of the same program
    /// and level reuses it instead of rebuilding the reference.
    pub fn reference(
        &self,
        program: &ProgramInput,
        personality: Personality,
        level: OptLevel,
    ) -> Arc<ReferenceEvaluation> {
        let max_steps = self.config.max_steps_per_input;
        let scope = eval::scope_of(program, personality, level, max_steps);
        eval::reference_in(&self.store, scope, program, max_steps)
    }

    /// Evaluates one explicit configuration (level + gate) of a program
    /// through the tuner's store: the baseline trace, `O0` object, and
    /// checkpointed compile session are reused across calls (and with
    /// [`DebugTuner::evaluate`] runs of the same program), and the
    /// gated build resumes from a mid-pipeline snapshot instead of
    /// recompiling from source.
    pub fn evaluate_config(
        &self,
        program: &ProgramInput,
        personality: Personality,
        level: OptLevel,
        gate: &PassGate,
    ) -> dt_metrics::Metrics {
        eval::evaluate_config_in(
            &self.store,
            program,
            personality,
            level,
            gate,
            self.config.max_steps_per_input,
        )
    }

    /// Steppable lines of the program's `O0` binary and the lines its
    /// inputs step (Table III's coverage columns), read from the
    /// ground-truth baseline every evaluation of the program shares.
    pub fn o0_coverage(&self, program: &ProgramInput) -> (usize, usize) {
        let max_steps = self.config.max_steps_per_input;
        let (art, base) = eval::program_artifacts(&self.store, program, max_steps);
        (
            art.o0.debug.steppable_lines().len(),
            base.stepped_lines().len(),
        )
    }

    /// The speedup over `O0` of each gate at one personality/level on
    /// the SPEC kernels: one [`PerfReport`] per gate, bit-identical to
    /// [`measure_speedup`] of that gate. Kernels are measured on
    /// `config.threads` workers; each builds all gates from one
    /// transient compile session, and every distinct binary runs once
    /// in the tuner's run memo (so one `O0` run per kernel serves every
    /// call). Fails, naming the kernel, personality, level, and gate,
    /// when a binary does not finish with `O0`'s return value and
    /// output.
    pub fn speedups(
        &self,
        personality: Personality,
        level: OptLevel,
        gates: &[PassGate],
        workload: Workload,
    ) -> Result<Vec<PerfReport>, String> {
        perf::speedups_in(
            &self.store,
            self.config.threads,
            personality,
            level,
            gates,
            workload,
        )
    }

    /// The AutoFDO experiment of `source` on `call` for each profiling
    /// gate, profiling and final builds both at `personality`/`level`:
    /// field for field equal to one [`dt_autofdo::run_autofdo`] per
    /// gate. The plain binary and every profiling binary come from one
    /// transient compile session, each distinct profile gets one
    /// AutoFDO build, and plain and AutoFDO runs go through the run
    /// memo. Fails when a run does not finish or a plain or AutoFDO
    /// binary does not behave like `O0`.
    pub fn autofdo(
        &self,
        source: &str,
        call: &RunCall,
        personality: Personality,
        level: OptLevel,
        profiling_gates: &[PassGate],
    ) -> Result<Vec<AutoFdoResult>, String> {
        perf::autofdo_in(
            &self.store,
            self.config.threads,
            source,
            call,
            personality,
            level,
            profiling_gates,
        )
    }

    /// Evaluates the whole suite in parallel and aggregates the pass
    /// ranking (Section III-B).
    pub fn rank_passes(
        &self,
        programs: &[ProgramInput],
        personality: Personality,
        level: OptLevel,
    ) -> PassRanking {
        let evals = self.evaluate_all(programs, personality, level);
        let rank_start = std::time::Instant::now();
        let ranking = rank_passes_across(&evals);
        self.store.telemetry().record_rank(rank_start.elapsed());
        ranking
    }

    /// Parallel evaluation of many programs. Parallelism is applied
    /// across programs here; each program's own variant fan-out runs
    /// serially inside its worker so the machine is not oversubscribed
    /// with `threads * threads` sessions.
    pub fn evaluate_all(
        &self,
        programs: &[ProgramInput],
        personality: Personality,
        level: OptLevel,
    ) -> Vec<ProgramEvaluation> {
        par_map(programs, self.config.threads, |p| {
            self.evaluate_with_threads(p, personality, level, 1)
        })
    }
}

impl Default for DebugTuner {
    fn default() -> Self {
        Self::new(TunerConfig::default())
    }
}

/// Maps `f` over `items` on up to `threads` scoped workers and returns
/// the results in input order, independent of scheduling. A worker's
/// panic resumes on the caller with its original payload.
pub(crate) fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The 13-program suite as tuner inputs, with fuzzing-derived,
/// minimized input sets (Section IV's pipeline). `fuzz_iterations`
/// bounds the campaign per harness.
pub fn suite_programs(fuzz_iterations: u32) -> Vec<ProgramInput> {
    dt_testsuite::real_world_suite()
        .into_iter()
        .map(|p| ProgramInput::from_suite(&p, fuzz_iterations))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> ProgramInput {
        ProgramInput {
            name: "tiny".into(),
            source: "\
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
}"
            .into(),
            harness: "fuzz_main".into(),
            inputs: vec![vec![50], vec![1]],
            entry_args: vec![],
        }
    }

    #[test]
    fn evaluation_is_cached() {
        let tuner = DebugTuner::default();
        let p = tiny_program();
        let a = tuner.evaluate(&p, Personality::Gcc, OptLevel::O1);
        let b = tuner.evaluate(&p, Personality::Gcc, OptLevel::O1);
        assert_eq!(a.reference.product, b.reference.product);
    }

    /// The staged-session acceptance criteria: evaluation resumes
    /// variant builds from checkpoints (prefix passes skipped > 0),
    /// shares program artifacts across levels, and the tuner's
    /// `evaluate_config` agrees exactly with the fan-out's reference.
    #[test]
    fn evaluation_resumes_variants_and_shares_artifacts() {
        let tuner = DebugTuner::default();
        let p = tiny_program();
        let eval = tuner.evaluate(&p, Personality::Gcc, OptLevel::O2);
        let stats = tuner.stats();
        assert!(stats.sessions >= 1, "no session built: {stats:?}");
        assert!(stats.snapshots > 0);
        assert!(stats.resumed_variants > 0);
        assert!(
            stats.prefix_passes_skipped > 0,
            "checkpoint resume never skipped work: {stats:?}"
        );
        // A second level of the same program hits the artifact store
        // (one O0 build + one ground-truth baseline per program).
        tuner.evaluate(&p, Personality::Gcc, OptLevel::O1);
        assert!(tuner.stats().artifact_hits >= 1);
        // The explicit-config path shares the same session + baseline,
        // so an empty gate reproduces the reference metrics exactly.
        let m = tuner.evaluate_config(&p, Personality::Gcc, OptLevel::O2, &PassGate::allow_all());
        assert_eq!(m.product, eval.reference.product);
    }

    /// `reference` is the reference side of `evaluate` at every level,
    /// builds no variant, and a later `evaluate` reuses it instead of
    /// rebuilding or retracing the reference.
    #[test]
    fn reference_is_the_evaluations_reference_half() {
        let p = tiny_program();
        let config = TunerConfig {
            max_steps_per_input: 1_000_000,
            threads: 1,
        };
        let levels: Vec<(Personality, OptLevel)> = [Personality::Gcc, Personality::Clang]
            .into_iter()
            .flat_map(|p| OptLevel::levels_for(p).iter().map(move |&l| (p, l)))
            .collect();
        let staged = DebugTuner::new(config.clone());
        for &(personality, level) in &levels {
            staged.reference(&p, personality, level);
        }
        let s = staged.stats();
        assert_eq!((s.resumed_variants, s.pruned_variants), (0, 0), "{s:?}");
        // One `O0` build and baseline trace, then one session, one
        // reference build and one reference trace per level.
        let n = levels.len() as u64;
        assert_eq!(
            (s.builds, s.traces, s.sessions),
            (1 + 2 * n, 1 + n, n),
            "{s:?}"
        );

        let alone = DebugTuner::new(config);
        let json = |e: &ProgramEvaluation| serde_json::to_string(e).unwrap();
        for &(personality, level) in &levels {
            let full = alone.evaluate(&p, personality, level);
            let e = staged.evaluate(&p, personality, level);
            assert_eq!(json(&e), json(&full), "{personality} {level}");
            let r = staged.reference(&p, personality, level);
            assert_eq!(r.reference, e.reference);
            assert_eq!(r.methods, e.methods);
            assert_eq!(r.reference_defects, e.reference_defects);
            assert_eq!(r.steppable_lines_o0, e.steppable_lines_o0);
            assert_eq!(r.stepped_lines_o0, e.stepped_lines_o0);
        }
        let (a, b) = (alone.stats(), staged.stats());
        assert_eq!(
            (b.builds, b.traces, b.sessions),
            (a.builds, a.traces, a.sessions),
            "reference then evaluate must equal evaluate alone"
        );
    }

    /// Table III's coverage columns from the shared baseline equal a
    /// plain debug session over the program's `O0` binary.
    #[test]
    fn o0_coverage_matches_a_plain_o0_session() {
        let p = tiny_program();
        let o0 = dt_passes::compile_source(
            &p.source,
            &dt_passes::CompileOptions::new(Personality::Gcc, OptLevel::O0),
        )
        .unwrap();
        let trace = dt_debugger::trace(
            &o0,
            &p.harness,
            &p.inputs,
            &dt_debugger::SessionConfig::default(),
        )
        .unwrap();
        let coverage = DebugTuner::default().o0_coverage(&p);
        assert_eq!(
            coverage,
            (
                o0.debug.steppable_lines().len(),
                trace.stepped_lines().len()
            )
        );
        assert!(coverage.1 > 0);
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let tuner = DebugTuner::new(TunerConfig {
            threads: 4,
            ..Default::default()
        });
        let programs = vec![tiny_program(), {
            let mut p = tiny_program();
            p.name = "tiny2".into();
            p
        }];
        let evals = tuner.evaluate_all(&programs, Personality::Clang, OptLevel::O2);
        assert_eq!(evals.len(), 2);
        assert_eq!(evals[0].reference.product, evals[1].reference.product);
    }
}
