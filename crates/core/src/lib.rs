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

pub use artifacts::ArtifactStore;
pub use check::{check_compiled, hunt, hunt_variants, HuntConfig, HuntResult};
pub use config::{dy_config, dy_family, DyConfig};
pub use eval::{
    evaluate_program, evaluate_program_parallel, PassEffect, ProgramEvaluation, ProgramInput,
};
pub use pareto::{pareto_front, TradeoffPoint};
pub use perf::{measure_speedup, PerfReport};
pub use rank::{rank_passes_across, PassRanking, RankEntry};
pub use telemetry::{EvalStats, Telemetry};

use dt_passes::{OptLevel, PassGate, Personality};
use std::sync::atomic::{AtomicUsize, Ordering};

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
