//! The one cache of per-program facts.
//!
//! Section III-A's workflow re-derives the same products over and
//! over: every variant evaluation would re-parse the program, rebuild
//! the `O0` baseline, re-trace the ground truth, re-run the pipeline
//! from source, and re-trace binaries it has already traced. The
//! [`ArtifactStore`] keeps exactly one of each:
//!
//! * **source artifacts** ([`SourceArtifacts`]) — the parsed
//!   [`SourceAnalysis`], the lowered IR module, the `O0` object and its
//!   [`BreakPlan`], shared across personalities, levels, input sets,
//!   and gated configurations (the `O0` pipeline is empty for both
//!   personalities, so one `O0` build serves both);
//! * **ground-truth baselines** — the `O0` object's
//!   `SessionConfig::ground_truth` trace over one input set, the single
//!   baseline every evaluation and check diffs against. A failed `O0`
//!   run is memoized as an error (the hunt treats such an input as
//!   uninteresting);
//! * **compile sessions** ([`CompileSession`]) — one checkpointed
//!   pipeline per source/personality/level/profile, shared by the
//!   per-pass variant fan-out and every gated build made afterwards;
//! * **reference halves** ([`ReferenceEvaluation`]) — the unmodified
//!   level's object, metrics, methods, and defects per program and
//!   personality/level, which a full evaluation builds on;
//! * **evaluations** — one [`ProgramEvaluation`] per program and
//!   personality/level;
//! * **variant traces** — the metrics and defect summary of each
//!   distinct variant binary ([`Object::content_hash`]), scoped per
//!   program and personality/level;
//! * **runs** ([`RunOutcome`]) — the outcome of running one binary
//!   ([`Object::content_hash`]) to completion with the cycle model on,
//!   per entry, arguments, input, and step budget. Speed and AutoFDO
//!   measurements run each distinct binary once through it. A run that
//!   fails or does not finish is memoized as an error.
//!
//! Every key is a content digest ([`dt_machine::Fnv1a`]) of what
//! determines the value: the source text, plus the harness, input set,
//! entry arguments, and step budget for anything traced. A program's
//! name is a label only, so two inputs that share a name but not their
//! content never alias a cached value. Lookups are safe under
//! concurrent use; a lost race costs a redundant computation of a
//! bit-identical value, never divergent results. The store also keeps
//! the [`EvalStats`] its work is counted in.

use crate::eval::{ProgramEvaluation, ReferenceEvaluation};
use crate::telemetry::EvalStats;
use dt_checker::DefectSummary;
use dt_debugger::{BreakPlan, DebugTrace, SessionConfig};
use dt_machine::{Fnv1a, Object};
use dt_metrics::Metrics;
use dt_minic::analysis::SourceAnalysis;
use dt_passes::{CompileSession, OptLevel, Personality};
use dt_vm::{ExecResult, Vm, VmConfig};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Everything derivable from one source text alone.
pub struct SourceArtifacts {
    /// Content digest of the source text.
    pub(crate) key: u64,
    pub analysis: SourceAnalysis,
    /// The lowered IR module (seeds compile sessions without
    /// re-lexing/re-parsing/re-lowering).
    pub module: dt_ir::Module,
    /// The `O0` object. Personality-independent: the `O0` pipeline is
    /// empty and the backend configuration is the default for both
    /// personalities (pinned by a unit test below).
    pub o0: Object,
    /// Precomputed breakpoint plan of the `O0` object, shared by every
    /// ground-truth session of this source.
    pub o0_plan: BreakPlan,
}

/// A program's content under a step budget, scoped to one
/// personality/level: the key of its evaluation and, with a variant's
/// [`Object::content_hash`], of its variant traces.
pub(crate) type ScopeKey = (u64, Personality, OptLevel);

/// A source's content, personality, level, and profile content.
type SessionKey = (u64, Personality, OptLevel, Option<u64>);

/// A memoized run: the outcome, or why the run did not finish.
type RunResult = Result<Arc<RunOutcome>, String>;

/// What a completed run of a binary shows: everything the speed and
/// AutoFDO measurements read, and everything two builds of one program
/// must agree on. Only runs that halt [`dt_vm::Halt::Finished`] have an
/// outcome; any other halt is the run's error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// The entry function's return value.
    pub ret: i64,
    /// Content digest of the values the program wrote with `out`.
    pub output_digest: u64,
    /// Cycles under the VM's cost model.
    pub cycles: u64,
}

impl RunOutcome {
    /// The outcome of a finished run ([`Vm::run_finished`]).
    pub(crate) fn of(r: &ExecResult) -> RunOutcome {
        RunOutcome {
            ret: r.ret,
            output_digest: output_digest(&r.output),
            cycles: r.cycles,
        }
    }

    /// Checks that this run behaves like `o0`, the same call's run of
    /// the program's `O0` binary: same return value and same output.
    pub(crate) fn agrees_with(&self, o0: &RunOutcome) -> Result<(), String> {
        if (self.ret, self.output_digest) != (o0.ret, o0.output_digest) {
            return Err(format!(
                "diverges from O0: returned {} (O0 {}), output digest {:016x} (O0 {:016x})",
                self.ret, o0.ret, self.output_digest, o0.output_digest
            ));
        }
        Ok(())
    }
}

/// The shared artifact store. Owned by [`crate::DebugTuner`];
/// free-function entry points create a transient store per call.
#[derive(Default)]
pub struct ArtifactStore {
    stats: Mutex<EvalStats>,
    sources: Mutex<HashMap<u64, Result<Arc<SourceArtifacts>, String>>>,
    baselines: Mutex<HashMap<u64, Result<Arc<DebugTrace>, String>>>,
    sessions: Mutex<HashMap<SessionKey, Arc<CompileSession>>>,
    references: Mutex<HashMap<ScopeKey, Arc<ReferenceEvaluation>>>,
    evaluations: Mutex<HashMap<ScopeKey, ProgramEvaluation>>,
    variant_traces: Mutex<HashMap<(ScopeKey, u64), (Metrics, DefectSummary)>>,
    /// Keyed by the binary's content hash and the call's digest.
    runs: Mutex<HashMap<(u64, u64), RunResult>>,
}

// Values are computed outside the store's locks and nothing that
// holds one can panic, so they are never poisoned.
const POISONED: &str = "artifact store lock poisoned";

/// Looks `key` up in `map`, computing the value on a miss outside the
/// lock. Returns the value and whether it was a hit.
fn memo<K: Hash + Eq, V: Clone>(
    map: &Mutex<HashMap<K, V>>,
    key: K,
    compute: impl FnOnce() -> V,
) -> (V, bool) {
    if let Some(hit) = map.lock().expect(POISONED).get(&key) {
        return (hit.clone(), true);
    }
    let value = compute();
    let mut map = map.lock().expect(POISONED);
    (map.entry(key).or_insert(value).clone(), false)
}

/// Content digest of a source text.
pub(crate) fn source_key(source: &str) -> u64 {
    Fnv1a::new().field(source.as_bytes()).finish()
}

/// Content digest of everything a debug session over a source's
/// binaries depends on besides the binary itself.
pub(crate) fn program_key(
    source_key: u64,
    harness: &str,
    inputs: &[Vec<u8>],
    entry_args: &[i64],
    max_steps: u64,
) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(&source_key.to_le_bytes())
        .field(harness.as_bytes())
        .bytes(&(inputs.len() as u64).to_le_bytes());
    for input in inputs {
        h.field(input);
    }
    h.bytes(&(entry_args.len() as u64).to_le_bytes());
    for arg in entry_args {
        h.bytes(&arg.to_le_bytes());
    }
    h.bytes(&max_steps.to_le_bytes()).finish()
}

/// Content digest of one call of a binary: entry, arguments, input,
/// and step budget.
fn call_key(entry: &str, args: &[i64], input: &[u8], max_steps: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.field(entry.as_bytes())
        .bytes(&(args.len() as u64).to_le_bytes());
    for arg in args {
        h.bytes(&arg.to_le_bytes());
    }
    h.field(input).bytes(&max_steps.to_le_bytes()).finish()
}

fn output_digest(output: &[i64]) -> u64 {
    let mut h = Fnv1a::new();
    for v in output {
        h.bytes(&v.to_le_bytes());
    }
    h.bytes(&(output.len() as u64).to_le_bytes()).finish()
}

fn profile_key(profile: &dt_ir::Profile) -> u64 {
    let mut lines: Vec<_> = profile.line_samples.iter().collect();
    lines.sort_unstable();
    let mut h = Fnv1a::new();
    for (line, n) in lines {
        h.bytes(&line.to_le_bytes()).bytes(&n.to_le_bytes());
    }
    h.bytes(&profile.total_samples.to_le_bytes()).finish()
}

impl ArtifactStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters of all work done through this store.
    pub(crate) fn stats(&self) -> EvalStats {
        self.stats.lock().expect(POISONED).clone()
    }

    /// Updates the counters.
    pub(crate) fn count(&self, count: impl FnOnce(&mut EvalStats)) {
        count(&mut self.stats.lock().expect(POISONED));
    }

    /// Runs `work`, then updates the counters with `count`, which gets
    /// the work's wall-clock milliseconds and its result.
    pub(crate) fn timed<T>(
        &self,
        work: impl FnOnce() -> T,
        count: impl FnOnce(&mut EvalStats, f64, &T),
    ) -> T {
        let start = Instant::now();
        let out = work();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.count(|s| count(s, ms, &out));
        out
    }

    /// The source's shared artifacts, built on first use. Fails when
    /// the source does not compile.
    pub fn source(&self, source: &str) -> Result<Arc<SourceArtifacts>, String> {
        let key = source_key(source);
        let (art, hit) = memo(&self.sources, key, || {
            let parsed = dt_minic::compile_check(source)?;
            let analysis = SourceAnalysis::of(&parsed);
            let module = dt_frontend::lower_source(source)?;
            let o0 = self.timed(
                || dt_machine::run_backend(&module, &dt_machine::BackendConfig::default()),
                |s, ms, _| s.add_build(ms),
            );
            let o0_plan = BreakPlan::new(&o0);
            Ok(Arc::new(SourceArtifacts {
                key,
                analysis,
                module,
                o0,
                o0_plan,
            }))
        });
        if hit {
            self.count(|s| s.artifact_hits += 1);
        }
        art
    }

    /// The ground-truth baseline trace of `src`'s `O0` object over
    /// `inputs`, traced on first use. An `Err` is the failed `O0`
    /// session, memoized like a trace.
    pub fn baseline(
        &self,
        src: &SourceArtifacts,
        harness: &str,
        inputs: &[Vec<u8>],
        entry_args: &[i64],
        max_steps: u64,
    ) -> Result<Arc<DebugTrace>, String> {
        let key = program_key(src.key, harness, inputs, entry_args, max_steps);
        memo(&self.baselines, key, || {
            let session = SessionConfig {
                max_steps_per_input: max_steps,
                entry_args: entry_args.to_vec(),
                ground_truth: true,
            };
            let (trace, _) = self.timed(
                || {
                    dt_debugger::trace_with_plan_stats(
                        &src.o0,
                        harness,
                        inputs,
                        &session,
                        &src.o0_plan,
                    )
                },
                |s, ms, traced| {
                    if let Ok((_, stats)) = traced {
                        s.add_trace(ms, stats);
                    }
                },
            )?;
            Ok(Arc::new(trace))
        })
        .0
    }

    /// The checkpointed compile session for one
    /// source/personality/level/profile, constructing (and counting)
    /// it on first use. Construction runs the full ungated pipeline
    /// once.
    pub(crate) fn session(
        &self,
        src: &SourceArtifacts,
        personality: Personality,
        level: OptLevel,
        profile: Option<&dt_ir::Profile>,
    ) -> Arc<CompileSession> {
        let key = (src.key, personality, level, profile.map(profile_key));
        memo(&self.sessions, key, || {
            Arc::new(self.transient_session(src, personality, level, profile))
        })
        .0
    }

    /// A compile session built for one use and not retained, counted
    /// like [`Self::session`]. Callers that need a source's session for
    /// a handful of builds use it so that memory does not grow with
    /// every source they measure.
    pub(crate) fn transient_session(
        &self,
        src: &SourceArtifacts,
        personality: Personality,
        level: OptLevel,
        profile: Option<&dt_ir::Profile>,
    ) -> CompileSession {
        self.timed(
            || CompileSession::new(src.module.clone(), personality, level, profile.cloned()),
            |s, ms, session| {
                s.add_build(ms);
                s.sessions += 1;
                s.snapshots += session.snapshot_count() as u64;
            },
        )
    }

    /// The outcome of running `obj`'s `entry(args)` on `input` to
    /// completion with the cycle model on (the configuration every
    /// speed and AutoFDO measurement uses), run on first use. The key
    /// is the object's [`Object::content_hash`] plus a digest of
    /// entry, arguments, input, and budget, so identical binaries
    /// built along different paths share one run. A run that cannot
    /// start, traps, or exhausts `max_steps` is memoized as an error
    /// naming its halt.
    pub fn run(
        &self,
        obj: &Object,
        entry: &str,
        args: &[i64],
        input: &[u8],
        max_steps: u64,
    ) -> Result<Arc<RunOutcome>, String> {
        let key = (obj.content_hash(), call_key(entry, args, input, max_steps));
        let (outcome, hit) = memo(&self.runs, key, || {
            let config = VmConfig {
                max_steps,
                ..VmConfig::default()
            };
            let result = self.timed(
                || Vm::run_finished(obj, entry, args, input, config),
                |s, ms, _| {
                    s.runs += 1;
                    s.run_ms += ms;
                },
            );
            Ok(Arc::new(RunOutcome::of(&result?)))
        });
        if hit {
            self.count(|s| s.run_hits += 1);
        }
        outcome
    }

    /// The memoized reference half for `key`, computed on first use.
    pub(crate) fn reference(
        &self,
        key: ScopeKey,
        compute: impl FnOnce() -> ReferenceEvaluation,
    ) -> Arc<ReferenceEvaluation> {
        memo(&self.references, key, || Arc::new(compute())).0
    }

    /// The memoized evaluation for `key`, computed on first use.
    pub(crate) fn evaluation(
        &self,
        key: ScopeKey,
        compute: impl FnOnce() -> ProgramEvaluation,
    ) -> ProgramEvaluation {
        let (eval, hit) = memo(&self.evaluations, key, compute);
        if hit {
            self.count(|s| s.eval_cache_hits += 1);
        }
        eval
    }

    /// The memoized metrics and defect summary of one variant binary
    /// (by [`Object::content_hash`]) within `scope`.
    pub(crate) fn variant_trace(
        &self,
        scope: ScopeKey,
        content_hash: u64,
        compute: impl FnOnce() -> (Metrics, DefectSummary),
    ) -> (Metrics, DefectSummary) {
        let (value, hit) = memo(&self.variant_traces, (scope, content_hash), compute);
        if hit {
            self.count(|s| s.trace_cache_hits += 1);
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_passes::{compile_source, CompileOptions};

    const SRC: &str = "\
int fuzz_main() {
    int a = in(0);
    int b = a * 2 + 1;
    out(b);
    return b;
}";

    /// The store's single `O0` object must be bit-identical to what
    /// either personality's `compile_source` produces at `O0` — the
    /// invariant behind sharing one baseline per source.
    #[test]
    fn o0_is_personality_independent() {
        let store = ArtifactStore::new();
        let art = store.source(SRC).unwrap();
        for personality in [Personality::Gcc, Personality::Clang] {
            let scratch =
                compile_source(SRC, &CompileOptions::new(personality, OptLevel::O0)).unwrap();
            assert_eq!(
                art.o0.content_hash(),
                scratch.content_hash(),
                "{personality} O0 differs from the shared artifact"
            );
        }
    }

    #[test]
    fn artifacts_baselines_and_sessions_are_cached() {
        let store = ArtifactStore::new();
        let a = store.source(SRC).unwrap();
        let b = store.source(SRC).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let inputs = [vec![7]];
        let base1 = store.baseline(&a, "fuzz_main", &inputs, &[], 1_000_000);
        let base2 = store.baseline(&a, "fuzz_main", &inputs, &[], 1_000_000);
        assert!(Arc::ptr_eq(&base1.unwrap(), &base2.unwrap()));
        let s1 = store.session(&a, Personality::Gcc, OptLevel::O2, None);
        let s2 = store.session(&a, Personality::Gcc, OptLevel::O2, None);
        assert!(Arc::ptr_eq(&s1, &s2));
        let snap = store.stats();
        assert_eq!(snap.artifact_hits, 1);
        assert_eq!(snap.traces, 1);
        assert_eq!(snap.sessions, 1);
        assert!(snap.snapshots > 0);
    }

    /// Keys describe content: another input set, step budget, or
    /// profile is another cache entry; a failed `O0` run is memoized
    /// as an error instead of aborting.
    #[test]
    fn keys_describe_content() {
        let store = ArtifactStore::new();
        let art = store.source(SRC).unwrap();
        let a = store.baseline(&art, "fuzz_main", &[vec![7]], &[], 1_000_000);
        let b = store.baseline(&art, "fuzz_main", &[vec![8]], &[], 1_000_000);
        let c = store.baseline(&art, "fuzz_main", &[vec![7]], &[], 999_999);
        assert!(!Arc::ptr_eq(a.as_ref().unwrap(), b.as_ref().unwrap()));
        assert!(!Arc::ptr_eq(a.as_ref().unwrap(), c.as_ref().unwrap()));
        assert!(store
            .baseline(&art, "no_such_harness", &[vec![7]], &[], 1_000_000)
            .is_err());
        let mut profile = dt_ir::Profile::new();
        profile.add(3, 10);
        let plain = store.session(&art, Personality::Gcc, OptLevel::O2, None);
        let profiled = store.session(&art, Personality::Gcc, OptLevel::O2, Some(&profile));
        assert!(!Arc::ptr_eq(&plain, &profiled));
        assert_eq!(store.stats().sessions, 2);
    }

    #[test]
    fn outcomes_agree_only_on_equal_return_and_output() {
        let o0 = RunOutcome {
            ret: 45,
            output_digest: 7,
            cycles: 900,
        };
        let faster = RunOutcome {
            cycles: 300,
            ..o0.clone()
        };
        assert_eq!(faster.agrees_with(&o0), Ok(()));
        for wrong in [
            RunOutcome {
                ret: 46,
                ..faster.clone()
            },
            RunOutcome {
                output_digest: 8,
                ..faster
            },
        ] {
            let err = wrong.agrees_with(&o0).unwrap_err();
            assert!(err.starts_with("diverges from O0: returned"), "{err}");
        }
    }

    const LOOP: &str = "\
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += i; out(s); }
    return s;
}";

    /// One run per distinct (binary, call): a repeat is a memo hit with
    /// the same outcome, another argument or budget is another run, and
    /// a `StepLimit` or a missing entry is an error that is memoized
    /// too.
    #[test]
    fn runs_are_memoized_by_binary_and_call() {
        let store = ArtifactStore::new();
        let art = store.source(LOOP).unwrap();
        let a = store.run(&art.o0, "f", &[10], &[], 1_000_000).unwrap();
        let b = store.run(&art.o0, "f", &[10], &[], 1_000_000).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.ret, 45);
        assert!(a.cycles > 0, "the cycle model is on");
        let c = store.run(&art.o0, "f", &[11], &[], 1_000_000).unwrap();
        assert_ne!((c.ret, c.output_digest), (a.ret, a.output_digest));
        let o2 =
            compile_source(LOOP, &CompileOptions::new(Personality::Gcc, OptLevel::O2)).unwrap();
        let fast = store.run(&o2, "f", &[10], &[], 1_000_000).unwrap();
        assert_eq!((fast.ret, fast.output_digest), (a.ret, a.output_digest));
        assert!(fast.cycles < a.cycles);

        let starved = store.run(&art.o0, "f", &[10], &[], 20);
        let err = starved.unwrap_err();
        assert!(err.contains("StepLimit"), "{err}");
        assert_eq!(store.run(&art.o0, "f", &[10], &[], 20).unwrap_err(), err);
        assert!(store.run(&art.o0, "g", &[10], &[], 1_000_000).is_err());
        let snap = store.stats();
        assert_eq!((snap.runs, snap.run_hits), (5, 2));
    }
}
