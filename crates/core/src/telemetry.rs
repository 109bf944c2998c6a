//! Evaluation telemetry: lock-free live counters updated by the
//! variant-evaluation workers, and the serializable [`EvalStats`]
//! snapshot the experiment binaries print.
//!
//! The counters separate *work performed* (builds, debug-trace
//! sessions) from *work avoided* (`.text` pruning, content-addressed
//! trace-cache hits, whole-evaluation cache hits), plus per-stage
//! wall-clock totals summed across workers.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Live counters shared by all evaluation workers of a tuner.
#[derive(Debug, Default)]
pub struct Telemetry {
    programs: AtomicU64,
    builds: AtomicU64,
    traces: AtomicU64,
    trace_cache_hits: AtomicU64,
    eval_cache_hits: AtomicU64,
    pruned_variants: AtomicU64,
    sessions: AtomicU64,
    snapshots: AtomicU64,
    resumed_variants: AtomicU64,
    prefix_passes_skipped: AtomicU64,
    artifact_hits: AtomicU64,
    fast_steps: AtomicU64,
    break_stops: AtomicU64,
    inputs_abandoned: AtomicU64,
    build_nanos: AtomicU64,
    trace_nanos: AtomicU64,
    rank_nanos: AtomicU64,
    wall_nanos: AtomicU64,
}

impl Telemetry {
    pub fn record_program(&self) {
        self.programs.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_build(&self, elapsed: Duration) {
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.build_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn record_trace(&self, elapsed: Duration) {
        self.traces.fetch_add(1, Ordering::Relaxed);
        self.trace_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn record_trace_cache_hit(&self) {
        self.trace_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_eval_cache_hit(&self) {
        self.eval_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_pruned_variant(&self) {
        self.pruned_variants.fetch_add(1, Ordering::Relaxed);
    }

    /// A compile session was constructed, retaining `snapshots`
    /// mid-pipeline module checkpoints.
    pub fn record_session(&self, snapshots: u64) {
        self.sessions.fetch_add(1, Ordering::Relaxed);
        self.snapshots.fetch_add(snapshots, Ordering::Relaxed);
    }

    /// A variant build resumed from a session checkpoint (or reused
    /// the optimized module outright), skipping `prefix_skipped`
    /// mid-pipeline stages.
    pub fn record_variant_resume(&self, prefix_skipped: u64) {
        if prefix_skipped > 0 {
            self.resumed_variants.fetch_add(1, Ordering::Relaxed);
            self.prefix_passes_skipped
                .fetch_add(prefix_skipped, Ordering::Relaxed);
        }
    }

    /// A source's artifacts (analysis, lowered module, O0 object)
    /// were served from the shared artifact store.
    pub fn record_artifact_hit(&self) {
        self.artifact_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A fast-path debug session finished: accumulate its per-session
    /// counters (instructions run inside `Vm::run_until_break`,
    /// breakpoint stops, inputs abandoned once the breakpoint set was
    /// exhausted).
    pub fn record_fast_trace(&self, stats: &dt_debugger::TraceStats) {
        self.fast_steps
            .fetch_add(stats.fast_steps, Ordering::Relaxed);
        self.break_stops
            .fetch_add(stats.break_stops, Ordering::Relaxed);
        self.inputs_abandoned
            .fetch_add(stats.inputs_abandoned, Ordering::Relaxed);
    }

    pub fn record_rank(&self, elapsed: Duration) {
        self.rank_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn record_wall(&self, elapsed: Duration) {
        self.wall_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot for reporting (individual counters
    /// are read relaxed; exactness across concurrent updates is not
    /// required for telemetry).
    pub fn snapshot(&self, threads: usize) -> EvalStats {
        let ms = |n: &AtomicU64| n.load(Ordering::Relaxed) as f64 / 1e6;
        EvalStats {
            threads,
            programs: self.programs.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            traces: self.traces.load(Ordering::Relaxed),
            trace_cache_hits: self.trace_cache_hits.load(Ordering::Relaxed),
            eval_cache_hits: self.eval_cache_hits.load(Ordering::Relaxed),
            pruned_variants: self.pruned_variants.load(Ordering::Relaxed),
            sessions: self.sessions.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            resumed_variants: self.resumed_variants.load(Ordering::Relaxed),
            prefix_passes_skipped: self.prefix_passes_skipped.load(Ordering::Relaxed),
            artifact_hits: self.artifact_hits.load(Ordering::Relaxed),
            fast_steps: self.fast_steps.load(Ordering::Relaxed),
            break_stops: self.break_stops.load(Ordering::Relaxed),
            inputs_abandoned: self.inputs_abandoned.load(Ordering::Relaxed),
            build_ms: ms(&self.build_nanos),
            trace_ms: ms(&self.trace_nanos),
            rank_ms: ms(&self.rank_nanos),
            wall_ms: ms(&self.wall_nanos),
        }
    }

    pub fn reset(&self) {
        for c in [
            &self.programs,
            &self.builds,
            &self.traces,
            &self.trace_cache_hits,
            &self.eval_cache_hits,
            &self.pruned_variants,
            &self.sessions,
            &self.snapshots,
            &self.resumed_variants,
            &self.prefix_passes_skipped,
            &self.artifact_hits,
            &self.fast_steps,
            &self.break_stops,
            &self.inputs_abandoned,
            &self.build_nanos,
            &self.trace_nanos,
            &self.rank_nanos,
            &self.wall_nanos,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Serializable evaluation statistics.
///
/// `build_ms`/`trace_ms` are summed across workers (CPU-time-like);
/// `wall_ms` is the elapsed time of the evaluation calls themselves, so
/// with `threads > 1` the stage sums typically exceed the wall time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
    #[serde(default)]
    pub sessions: u64,
    /// Mid-pipeline module snapshots retained across all sessions.
    #[serde(default)]
    pub snapshots: u64,
    /// Variant builds that resumed from a session checkpoint instead
    /// of recompiling from source.
    #[serde(default)]
    pub resumed_variants: u64,
    /// Total mid-pipeline pass instances skipped by checkpoint resume.
    #[serde(default)]
    pub prefix_passes_skipped: u64,
    /// Source-artifact store hits (parsed analysis + lowered module +
    /// O0 object reused instead of rebuilt).
    #[serde(default)]
    pub artifact_hits: u64,
    /// Instructions executed inside `Vm::run_until_break` across all
    /// fast-path debug sessions (debug pseudos excluded).
    #[serde(default)]
    pub fast_steps: u64,
    /// Breakpoint stops taken by fast-path debug sessions.
    #[serde(default)]
    pub break_stops: u64,
    /// Inputs abandoned mid-run because every temporary breakpoint was
    /// already consumed (early-exit sessions).
    #[serde(default)]
    pub inputs_abandoned: u64,
    /// Wall-clock spent compiling, summed across workers.
    pub build_ms: f64,
    /// Wall-clock spent in debug-trace sessions + metric computation,
    /// summed across workers.
    pub trace_ms: f64,
    /// Wall-clock spent aggregating rankings.
    pub rank_ms: f64,
    /// Elapsed wall-clock of the evaluation entry points.
    pub wall_ms: f64,
}

impl EvalStats {
    /// One-line human summary for experiment binaries.
    pub fn summary(&self) -> String {
        format!(
            "eval stats: {} program(s), {} build(s) ({:.0} ms), {} trace(s) ({:.0} ms), \
             {} trace-cache hit(s), {} eval-cache hit(s), {} pruned variant(s), \
             {} session(s) ({} snapshot(s)), {} resumed variant(s) skipping {} prefix pass(es), \
             {} artifact-store hit(s), {} fast step(s) / {} break stop(s) / \
             {} abandoned input(s), {:.0} ms wall on {} thread(s)",
            self.programs,
            self.builds,
            self.build_ms,
            self.traces,
            self.trace_ms,
            self.trace_cache_hits,
            self.eval_cache_hits,
            self.pruned_variants,
            self.sessions,
            self.snapshots,
            self.resumed_variants,
            self.prefix_passes_skipped,
            self.artifact_hits,
            self.fast_steps,
            self.break_stops,
            self.inputs_abandoned,
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
    fn counters_accumulate_and_snapshot() {
        let t = Telemetry::default();
        t.record_program();
        t.record_build(Duration::from_millis(2));
        t.record_build(Duration::from_millis(3));
        t.record_trace(Duration::from_millis(5));
        t.record_trace_cache_hit();
        t.record_pruned_variant();
        let s = t.snapshot(4);
        assert_eq!(s.programs, 1);
        assert_eq!(s.builds, 2);
        assert_eq!(s.traces, 1);
        assert_eq!(s.trace_cache_hits, 1);
        assert_eq!(s.pruned_variants, 1);
        assert_eq!(s.threads, 4);
        assert!(s.build_ms >= 5.0 - 1e-9);
        t.reset();
        assert_eq!(t.snapshot(4).builds, 0);
    }

    #[test]
    fn session_counters_accumulate() {
        let t = Telemetry::default();
        t.record_session(12);
        t.record_session(3);
        t.record_variant_resume(7);
        t.record_variant_resume(0); // no resume: must not count
        t.record_artifact_hit();
        let s = t.snapshot(1);
        assert_eq!(s.sessions, 2);
        assert_eq!(s.snapshots, 15);
        assert_eq!(s.resumed_variants, 1);
        assert_eq!(s.prefix_passes_skipped, 7);
        assert_eq!(s.artifact_hits, 1);
        assert!(s.summary().contains("2 session(s)"));
        assert!(s.summary().contains("skipping 7 prefix pass(es)"));
        t.reset();
        assert_eq!(t.snapshot(1).prefix_passes_skipped, 0);
        assert_eq!(t.snapshot(1).sessions, 0);
    }

    #[test]
    fn fast_trace_counters_accumulate() {
        let t = Telemetry::default();
        t.record_fast_trace(&dt_debugger::TraceStats {
            fast_steps: 100,
            break_stops: 7,
            inputs_abandoned: 1,
        });
        t.record_fast_trace(&dt_debugger::TraceStats {
            fast_steps: 50,
            break_stops: 3,
            inputs_abandoned: 0,
        });
        let s = t.snapshot(1);
        assert_eq!(s.fast_steps, 150);
        assert_eq!(s.break_stops, 10);
        assert_eq!(s.inputs_abandoned, 1);
        assert!(s.summary().contains("150 fast step(s)"));
        assert!(s.summary().contains("10 break stop(s)"));
        t.reset();
        assert_eq!(t.snapshot(1).fast_steps, 0);
    }

    #[test]
    fn stats_json_without_fast_path_fields_still_deserializes() {
        // PR3/PR4-era EvalStats JSON has no fast-path counters; the
        // new fields must default to zero instead of failing.
        let old = r#"{"threads":2,"programs":1,"builds":3,"traces":2,
            "trace_cache_hits":0,"eval_cache_hits":0,"pruned_variants":1,
            "sessions":1,"snapshots":4,"resumed_variants":2,
            "prefix_passes_skipped":5,"artifact_hits":1,
            "build_ms":1.0,"trace_ms":2.0,"rank_ms":0.0,"wall_ms":3.0}"#;
        let s: EvalStats = serde_json::from_str(old).unwrap();
        assert_eq!(s.sessions, 1);
        assert_eq!(s.fast_steps, 0);
        assert_eq!(s.break_stops, 0);
        assert_eq!(s.inputs_abandoned, 0);
    }

    #[test]
    fn stats_json_without_session_fields_still_deserializes() {
        // PR1/PR2-era EvalStats JSON has no session counters; the new
        // fields must default to zero instead of failing.
        let old = r#"{"threads":2,"programs":1,"builds":3,"traces":2,
            "trace_cache_hits":0,"eval_cache_hits":0,"pruned_variants":1,
            "build_ms":1.0,"trace_ms":2.0,"rank_ms":0.0,"wall_ms":3.0}"#;
        let s: EvalStats = serde_json::from_str(old).unwrap();
        assert_eq!(s.builds, 3);
        assert_eq!(s.sessions, 0);
        assert_eq!(s.prefix_passes_skipped, 0);
        assert_eq!(s.artifact_hits, 0);
    }

    #[test]
    fn stats_serialize_round_trip() {
        let t = Telemetry::default();
        t.record_build(Duration::from_millis(1));
        let s = t.snapshot(2);
        let json = s.to_json();
        let back: EvalStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert!(s.summary().contains("1 build"));
    }
}
