//! Evaluation telemetry: [`EvalStats`], the one declaration of every
//! counter the tuner keeps, and the summary the experiment binaries
//! print.
//!
//! The counters separate *work performed* (builds, debug-trace
//! sessions) from *work avoided* (`.text` pruning, content-addressed
//! trace-cache hits, whole-evaluation cache hits), plus per-stage
//! wall-clock totals summed across workers. The
//! [`crate::ArtifactStore`] keeps one `EvalStats` behind a lock, and
//! each build, trace, run or cache hit updates its fields by name
//! (`ArtifactStore::timed` for timed work).

use serde::Serialize;

/// Serializable evaluation statistics.
///
/// `build_ms`/`trace_ms` are summed across workers (CPU-time-like);
/// `wall_ms` is the elapsed time of the evaluation calls themselves, so
/// with `threads > 1` the stage sums typically exceed the wall time.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct EvalStats {
    /// Worker threads configured for the variant fan-out.
    pub threads: usize,
    /// Programs evaluated (excluding whole-evaluation cache hits).
    pub programs: u64,
    /// Compilations performed (baselines, references, variants).
    pub builds: u64,
    /// Debug-trace sessions actually run.
    pub traces: u64,
    /// Variant trace/metric computations shared via the
    /// content-addressed cache.
    pub trace_cache_hits: u64,
    /// Whole-`ProgramEvaluation` cache hits.
    pub eval_cache_hits: u64,
    /// Variants discarded by the `.text` equality pruning.
    pub pruned_variants: u64,
    /// Checkpointed compile sessions constructed (one per
    /// program/personality/level actually built).
    pub sessions: u64,
    /// Sessions built for a key this tuner had built before, after the
    /// earlier session was freed (nothing held it any more).
    pub sessions_rebuilt: u64,
    /// Function versions the sessions' reference trails retain (each
    /// a function some middle-end stage of a reference build changed).
    pub trail_functions: u64,
    /// Variant builds that resumed from a session checkpoint instead
    /// of recompiling from source.
    pub resumed_variants: u64,
    /// Total mid-pipeline pass instances skipped by checkpoint resume.
    pub prefix_passes_skipped: u64,
    /// (stage, function) pairs of resumed variant builds taken from the
    /// reference trail instead of computed (per-function cut-off).
    pub functions_cut_off: u64,
    /// Functions of variant builds whose machine code was taken from
    /// the reference build instead of generated: the function is the
    /// reference's optimized function and the variant's backend
    /// configuration differs from the reference's only in toggles that
    /// the reference build found leave that function's code unchanged
    /// (`dt_machine::BackendFacts`).
    pub backend_functions_reused: u64,
    /// Source-artifact store hits (parsed analysis + lowered module +
    /// O0 object reused instead of rebuilt).
    pub artifact_hits: u64,
    /// Instructions executed inside `Vm::run_until_break` across all
    /// fast-path debug sessions (debug pseudos excluded).
    pub fast_steps: u64,
    /// Breakpoint stops taken by fast-path debug sessions.
    pub break_stops: u64,
    /// Inputs abandoned mid-run because every temporary breakpoint was
    /// already consumed (early-exit sessions).
    pub inputs_abandoned: u64,
    /// Programs run to completion through the store's run memo (speed
    /// and AutoFDO measurements).
    pub runs: u64,
    /// Runs served from the run memo instead of executed.
    pub run_hits: u64,
    /// VM steps executed by memoized runs (debug pseudos excluded), so
    /// that `run_ms` reads as a VM throughput.
    pub run_steps: u64,
    /// Wall-clock spent in memoized runs, summed across workers.
    pub run_ms: f64,
    /// Wall-clock spent compiling, summed across workers.
    pub build_ms: f64,
    /// Wall-clock spent in debug-trace sessions, summed across
    /// workers.
    pub trace_ms: f64,
    /// Wall-clock spent aggregating rankings.
    pub rank_ms: f64,
    /// Elapsed wall-clock of the evaluation entry points.
    pub wall_ms: f64,
}

impl EvalStats {
    /// Counts one compilation that took `ms`.
    pub(crate) fn add_build(&mut self, ms: f64) {
        self.builds += 1;
        self.build_ms += ms;
    }

    /// Counts one fast-path debug session that took `ms`, with its
    /// per-session VM counters.
    pub(crate) fn add_trace(&mut self, ms: f64, stats: &dt_debugger::TraceStats) {
        self.traces += 1;
        self.trace_ms += ms;
        self.fast_steps += stats.fast_steps;
        self.break_stops += stats.break_stops;
        self.inputs_abandoned += stats.inputs_abandoned;
    }

    /// One-line human summary for experiment binaries.
    pub fn summary(&self) -> String {
        format!(
            "eval stats: {} program(s), {} build(s) ({:.0} ms), {} trace(s) ({:.0} ms), \
             {} trace-cache hit(s), {} eval-cache hit(s), {} pruned variant(s), \
             {} session(s) ({} trail function(s), {} rebuilt), {} resumed variant(s) skipping {} prefix pass(es), \
             {} function(s) cut off, {} backend function(s) reused, {} artifact-store hit(s), {} fast step(s) / {} break stop(s) / \
             {} abandoned input(s), {} run(s) ({} step(s), {:.0} ms), {} run-memo hit(s), \
             {:.0} ms wall on {} thread(s)",
            self.programs,
            self.builds,
            self.build_ms,
            self.traces,
            self.trace_ms,
            self.trace_cache_hits,
            self.eval_cache_hits,
            self.pruned_variants,
            self.sessions,
            self.trail_functions,
            self.sessions_rebuilt,
            self.resumed_variants,
            self.prefix_passes_skipped,
            self.functions_cut_off,
            self.backend_functions_reused,
            self.artifact_hits,
            self.fast_steps,
            self.break_stops,
            self.inputs_abandoned,
            self.runs,
            self.run_steps,
            self.run_ms,
            self.run_hits,
            self.wall_ms,
            self.threads
        )
    }

    /// JSON rendering (for machine-readable experiment logs).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("stats serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_traces_accumulate() {
        let mut s = EvalStats::default();
        s.add_build(2.0);
        s.add_build(3.0);
        for (fast_steps, break_stops, inputs_abandoned) in [(100, 7, 1), (50, 3, 0)] {
            s.add_trace(
                5.0,
                &dt_debugger::TraceStats {
                    fast_steps,
                    break_stops,
                    inputs_abandoned,
                },
            );
        }
        assert_eq!((s.builds, s.build_ms), (2, 5.0));
        assert_eq!((s.traces, s.trace_ms), (2, 10.0));
        assert_eq!(
            (s.fast_steps, s.break_stops, s.inputs_abandoned),
            (150, 10, 1)
        );
    }

    #[test]
    fn summary_and_json_name_the_counters() {
        let s = EvalStats {
            threads: 4,
            builds: 1,
            sessions: 2,
            trail_functions: 5,
            sessions_rebuilt: 1,
            prefix_passes_skipped: 7,
            functions_cut_off: 11,
            backend_functions_reused: 3,
            fast_steps: 150,
            break_stops: 10,
            runs: 2,
            run_steps: 900,
            run_hits: 1,
            ..EvalStats::default()
        };
        let summary = s.summary();
        for part in [
            "1 build(s)",
            "2 session(s) (5 trail function(s), 1 rebuilt)",
            "skipping 7 prefix pass(es)",
            "11 function(s) cut off",
            "3 backend function(s) reused",
            "150 fast step(s)",
            "10 break stop(s)",
            "2 run(s) (900 step(s),",
            "1 run-memo hit(s)",
            "on 4 thread(s)",
        ] {
            assert!(summary.contains(part), "{part:?} missing from {summary}");
        }
        let json = s.to_json();
        for part in [
            r#""sessions":2,"#,
            r#""sessions_rebuilt":1,"#,
            r#""trail_functions":5,"#,
            r#""prefix_passes_skipped":7,"#,
            r#""functions_cut_off":11,"#,
            r#""backend_functions_reused":3,"#,
            r#""run_steps":900,"#,
        ] {
            assert!(json.contains(part), "{part} missing from {json}");
        }
    }
}
