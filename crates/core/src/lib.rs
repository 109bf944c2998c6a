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

pub use artifacts::{ArtifactStore, Baseline, RunOutcome};
pub use config::{dy_config, dy_family, DyConfig};
pub use eval::{
    suite_corpus, PassEffect, ProgramEvaluation, ProgramInput, ReferenceEvaluation, SuiteCorpus,
};
pub use pareto::{pareto_front, TradeoffPoint};
pub use perf::{measure_speedup, PerfReport, RunCall, MEASURE_MAX_STEPS};
pub use rank::{rank_passes_across, PassRanking, RankEntry};
pub use telemetry::EvalStats;

use dt_passes::{OptLevel, Personality};
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

/// The DebugTuner framework instance and the one entry point of every
/// experiment: evaluation ([`eval`]), checking ([`check`]),
/// and speed and AutoFDO measurement ([`perf`]) are its methods. It owns
/// one [`ArtifactStore`], so evaluations, baselines, compile sessions,
/// variant traces, and runs are shared across every table that uses the
/// tuner, and its [`EvalStats`] count the work performed vs avoided.
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
        EvalStats {
            threads: self.config.threads,
            ..self.store.stats()
        }
    }

    /// Keeps every compile session of `personality`/`level` that the
    /// tuner builds from now on alive until
    /// [`Self::release_sessions`]. Without a hold a session lives only
    /// while an evaluation, a reference half waiting for its
    /// evaluation, or a check uses it, so a caller that comes back to a
    /// level (say, to build its `Ox-dy` configurations with
    /// [`Self::evaluate_config`]) holds it to build each session once.
    /// Holds do not nest.
    pub fn hold_sessions(&self, personality: Personality, level: OptLevel) {
        self.store.hold_sessions(personality, level);
    }

    /// Ends the hold of [`Self::hold_sessions`] on
    /// `personality`/`level` and frees the sessions nothing else uses.
    pub fn release_sessions(&self, personality: Personality, level: OptLevel) {
        self.store.release_sessions(personality, level);
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
        self.store
            .timed(|| rank_passes_across(&evals), |s, ms, _| s.rank_ms += ms)
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
/// panic resumes on the caller with its original payload. This is the
/// one parallel map of the tuner and of the experiments built on it:
/// folds over its result see the items in input order for any thread
/// count.
pub fn par_map<T: Sync, R: Send>(
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
    use dt_passes::PassGate;
    use dt_testsuite::spec::Workload;

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
        assert!(stats.trail_functions > 0);
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
        let levels = all_levels();
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
            untimed(&b),
            untimed(&a),
            "reference then evaluate must equal evaluate alone"
        );

        // Every counter, pinned: only the wall-clock totals vary.
        assert_eq!(
            untimed(&s),
            EvalStats {
                threads: 1,
                builds: 15,
                traces: 8,
                sessions: 7,
                trail_functions: 86,
                artifact_hits: 6,
                fast_steps: 146,
                break_stops: 66,
                inputs_abandoned: 8,
                ..EvalStats::default()
            }
        );
        assert_eq!(
            untimed(&b),
            EvalStats {
                threads: 1,
                programs: 7,
                builds: 156,
                traces: 36,
                trace_cache_hits: 1,
                pruned_variants: 112,
                sessions: 7,
                trail_functions: 86,
                resumed_variants: 138,
                prefix_passes_skipped: 2671,
                functions_cut_off: 426,
                backend_functions_reused: 35,
                artifact_hits: 6,
                fast_steps: 837,
                break_stops: 284,
                inputs_abandoned: 25,
                ..EvalStats::default()
            }
        );
    }

    /// Without a hold a session lives only inside the evaluation that
    /// built it: after each of a shuffled sequence of evaluations no
    /// session is alive, and no key is built twice.
    #[test]
    fn sessions_die_with_their_evaluation_without_a_hold() {
        let mut other = tiny_program();
        other.source = other.source.replace("v * 3", "v * 5");
        let programs = [tiny_program(), other];
        let mut order: Vec<_> = (0..programs.len())
            .flat_map(|i| all_levels().into_iter().map(move |(p, l)| (i, p, l)))
            .collect();
        // A fixed shuffle (Fisher-Yates on a small LCG).
        let mut state = 0x2545_f491_u64;
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let tuner = DebugTuner::new(TunerConfig {
            max_steps_per_input: 1_000_000,
            threads: 2,
        });
        for &(i, personality, level) in &order {
            tuner.evaluate(&programs[i], personality, level);
            assert_eq!(tuner.store.live_sessions(), 0, "{personality} {level}");
        }
        let s = tuner.stats();
        assert_eq!((s.sessions, s.sessions_rebuilt), (order.len() as u64, 0));
    }

    /// A standalone reference half keeps its session for the evaluation
    /// that follows; under a hold, `evaluate` then `evaluate_config` of
    /// one level build one session, and the release frees it. Without
    /// the hold the configuration rebuilds the session.
    #[test]
    fn a_hold_keeps_a_levels_session_until_its_release() {
        let p = tiny_program();
        let (personality, level) = (Personality::Gcc, OptLevel::O2);
        let gate = PassGate::disabling(["dce"]);
        let held = DebugTuner::default();
        held.hold_sessions(personality, level);
        held.reference(&p, personality, level);
        assert_eq!(held.store.live_sessions(), 1);
        held.evaluate(&p, personality, level);
        held.evaluate_config(&p, personality, level, &gate);
        assert_eq!(held.store.live_sessions(), 1);
        let s = held.stats();
        assert_eq!((s.sessions, s.sessions_rebuilt), (1, 0), "{s:?}");
        held.release_sessions(personality, level);
        assert_eq!(held.store.live_sessions(), 0);

        let unheld = DebugTuner::default();
        unheld.reference(&p, personality, level);
        assert_eq!(unheld.store.live_sessions(), 1, "kept for the evaluation");
        unheld.evaluate(&p, personality, level);
        assert_eq!(unheld.store.live_sessions(), 0, "taken by the evaluation");
        unheld.evaluate_config(&p, personality, level, &gate);
        let s = unheld.stats();
        assert_eq!((s.sessions, s.sessions_rebuilt), (2, 1), "{s:?}");
    }

    /// Every (personality, level) pair the tuner measures.
    fn all_levels() -> Vec<(Personality, OptLevel)> {
        [Personality::Gcc, Personality::Clang]
            .into_iter()
            .flat_map(|p| OptLevel::levels_for(p).iter().map(move |&l| (p, l)))
            .collect()
    }

    /// The bit patterns of all twelve numbers of `m`.
    fn method_bits(m: &dt_metrics::MethodComparison) -> Vec<u64> {
        [m.static_m, m.static_dbg, m.dynamic, m.hybrid]
            .iter()
            .flat_map(|x| [x.availability, x.line_coverage, x.product])
            .map(f64::to_bits)
            .collect()
    }

    /// The reference-only path (`methods`: a plain `compile`, no
    /// session, no checker) gives the session path's methods bit for
    /// bit, on suite programs and on synthetic programs, at every
    /// personality and level. It builds no session and traces each
    /// program's baseline once across all its levels.
    #[test]
    fn reference_only_methods_equal_the_sessions() {
        let config = TunerConfig {
            max_steps_per_input: 2_000_000,
            threads: 1,
        };
        let suite = dt_testsuite::real_world_suite();
        let mut programs: Vec<ProgramInput> = ["bzip2", "libexif", "libpng"]
            .into_iter()
            .map(|name| {
                let p = suite.iter().find(|p| p.name == name).unwrap();
                ProgramInput {
                    name: name.into(),
                    source: p.source.into(),
                    harness: p.harnesses[0].into(),
                    inputs: p.seeds.iter().map(|s| s.to_vec()).collect(),
                    entry_args: vec![],
                }
            })
            .collect();
        let synth = dt_testsuite::synth::SynthConfig::default();
        programs.extend([15u64, 118, 126, 321].map(|seed| ProgramInput {
            name: format!("synth{seed}"),
            source: dt_testsuite::synth::generate(seed, &synth),
            harness: "fuzz_main".into(),
            inputs: vec![vec![seed as u8, 3]],
            entry_args: vec![],
        }));
        let levels = all_levels();
        for p in &programs {
            let reference_only = DebugTuner::new(config.clone());
            let staged = DebugTuner::new(config.clone());
            for &(personality, level) in &levels {
                let got = reference_only.methods(p, personality, level);
                let want = staged.reference(p, personality, level).methods;
                assert_eq!(
                    method_bits(&got),
                    method_bits(&want),
                    "{} {personality} {level}",
                    p.name
                );
            }
            // One `O0` build and baseline trace, then one build and
            // one trace per level; no session.
            let n = levels.len() as u64;
            let s = reference_only.stats();
            assert_eq!((s.builds, s.traces, s.sessions), (1 + n, 1 + n, 0), "{s:?}");
            assert_eq!(s.artifact_hits, n - 1, "{s:?}");
        }
    }

    /// Single-flight: `work` done by two threads at once gives the
    /// results and the counters of doing it twice in a row, so the
    /// counters do not depend on scheduling. The second caller of a key
    /// in flight waits for the first caller's value and counts a hit.
    fn assert_single_flight(work: impl Fn(&DebugTuner) -> String + Sync) {
        let config = TunerConfig {
            max_steps_per_input: 1_000_000,
            threads: 2,
        };
        let sequential = DebugTuner::new(config.clone());
        let expected = [work(&sequential), work(&sequential)];
        for _ in 0..3 {
            let concurrent = DebugTuner::new(config.clone());
            let start = std::sync::Barrier::new(2);
            let got: Vec<String> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            work(&concurrent)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(got, expected);
            assert_eq!(untimed(&concurrent.stats()), untimed(&sequential.stats()));
        }
    }

    #[test]
    fn concurrent_evaluations_count_like_sequential_ones() {
        let p = tiny_program();
        assert_single_flight(|tuner| {
            serde_json::to_string(&tuner.evaluate(&p, Personality::Gcc, OptLevel::O2)).unwrap()
        });
    }

    #[test]
    fn concurrent_speedups_count_like_sequential_ones() {
        let gates = [PassGate::allow_all(), PassGate::disabling(["tree-fre"])];
        assert_single_flight(|tuner| {
            let reports = tuner
                .speedups(Personality::Gcc, OptLevel::O2, &gates, Workload::Test)
                .unwrap();
            serde_json::to_string(&reports).unwrap()
        });
    }

    /// The counters of `s` with its wall-clock totals zeroed.
    fn untimed(s: &EvalStats) -> EvalStats {
        EvalStats {
            run_ms: 0.0,
            build_ms: 0.0,
            trace_ms: 0.0,
            rank_ms: 0.0,
            wall_ms: 0.0,
            ..s.clone()
        }
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
