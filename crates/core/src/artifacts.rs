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
//! * **ground-truth baselines** ([`Baseline`]) — the `O0` object's
//!   `SessionConfig::ground_truth` trace over one input set, the single
//!   baseline every evaluation and check diffs against, with the
//!   per-program halves of the metrics ([`MetricBaseline`]) and of the
//!   checker ([`GroundTruth`]) prepared from it once. A failed `O0`
//!   run is memoized as an error;
//! * **compile sessions** ([`CompileSession`]) — one checkpointed
//!   pipeline per source/personality/level/profile, shared by the
//!   per-pass variant fan-out and every gated build made while the
//!   session is alive. The store shares a session but does not keep
//!   it: a session lives while a caller's `Arc`, the reference half
//!   waiting for its evaluation, or a hold on its personality/level
//!   ([`crate::DebugTuner::hold_sessions`]) has it, and is freed when the
//!   last of them lets go. A later lookup builds it again and counts
//!   that build in [`EvalStats::sessions_rebuilt`];
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
//! content never alias a cached value. Lookups are single-flight: a
//! second caller for a key that is being computed waits for that value
//! instead of computing it again, so every fact is computed once and
//! the counters do not depend on scheduling.
//!
//! The store also keeps the [`EvalStats`] its work is counted in, and
//! it is the one place that work is done: every build (`compile`,
//! `build_variant`), debug trace (`trace`) and run
//! ([`ArtifactStore::run`]) goes through a method that counts it.

use crate::eval::{ProgramEvaluation, ReferenceEvaluation};
use crate::telemetry::EvalStats;
use dt_checker::{DefectSummary, GroundTruth};
use dt_debugger::{BreakPlan, DebugTrace, SessionConfig};
use dt_machine::{Fnv1a, Object};
use dt_metrics::{MetricBaseline, Metrics};
use dt_minic::analysis::SourceAnalysis;
use dt_passes::{CompileOptions, CompileSession, OptLevel, PassGate, Personality, VariantBuild};
use dt_vm::{ExecResult, Vm, VmConfig};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, Weak};
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

/// The ground truth of one program over one input set: the `O0`
/// object's ground-truth trace and what every variant's metrics and
/// check read of it, prepared once.
pub struct Baseline {
    pub trace: DebugTrace,
    pub metrics: MetricBaseline,
    pub truth: GroundTruth,
}

/// A program's content under a step budget, scoped to one
/// personality/level: the key of its evaluation and, with a variant's
/// [`Object::content_hash`], of its variant traces.
pub(crate) type ScopeKey = (u64, Personality, OptLevel);

/// A source's content, personality, level, and profile content.
type SessionKey = (u64, Personality, OptLevel, Option<u64>);

/// The sessions a hold keeps alive, per held personality/level.
type Holds = HashMap<(Personality, OptLevel), Vec<Arc<CompileSession>>>;

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
    /// The outcome of a finished run ([`dt_vm::ExecResult::finished`]).
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

/// One memo of the store: a slot per key, filled once.
type Memo<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// The shared artifact store, owned by [`crate::DebugTuner`].
#[derive(Default)]
pub struct ArtifactStore {
    stats: Mutex<EvalStats>,
    sources: Memo<u64, Result<Arc<SourceArtifacts>, String>>,
    baselines: Memo<u64, Result<Arc<Baseline>, String>>,
    /// The live sessions; a slot whose session was freed is a miss.
    sessions: Memo<SessionKey, Weak<CompileSession>>,
    /// Every session key built so far, to count rebuilds.
    built_sessions: Mutex<HashSet<SessionKey>>,
    /// The held personality/levels and the sessions built for them
    /// while held.
    held: Mutex<Holds>,
    references: Memo<ScopeKey, Arc<ReferenceEvaluation>>,
    evaluations: Memo<ScopeKey, ProgramEvaluation>,
    variant_traces: Memo<(ScopeKey, u64), (Metrics, DefectSummary)>,
    /// Keyed by the binary's content hash and the call's digest.
    runs: Memo<(u64, u64), RunResult>,
}

// Values are computed outside the store's locks and nothing that
// holds one can panic, so they are never poisoned.
const POISONED: &str = "artifact store lock poisoned";

/// Looks `key` up in `map`, single-flight: the key's slot is taken
/// under the map lock and filled outside it, so a second caller waits
/// for the first caller's value instead of computing it again. Returns
/// the value and whether it was a hit (this caller did not compute
/// it). A compute that panics leaves the slot empty, and the next
/// caller computes it.
fn memo<K: Hash + Eq, V: Clone>(
    map: &Memo<K, V>,
    key: K,
    compute: impl FnOnce() -> V,
) -> (V, bool) {
    memo_live(map, key, |_| true, compute)
}

/// [`memo`] for values that can die in their slot: a filled slot whose
/// value `live` rejects is a miss, and this caller refills it.
fn memo_live<K: Hash + Eq, V: Clone>(
    map: &Memo<K, V>,
    key: K,
    live: impl FnOnce(&V) -> bool,
    compute: impl FnOnce() -> V,
) -> (V, bool) {
    let slot = {
        let mut map = map.lock().expect(POISONED);
        let slot = map.entry(key).or_default();
        if slot.get().is_some_and(|v| !live(v)) {
            *slot = Arc::default();
        }
        Arc::clone(slot)
    };
    let mut computed = false;
    let value = slot.get_or_init(|| {
        computed = true;
        compute()
    });
    (value.clone(), !computed)
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
            let module = dt_frontend::lower_program(&parsed).map_err(|e| e.to_string())?;
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

    /// The ground-truth baseline of `src`'s `O0` object over `inputs`,
    /// traced and prepared on first use. An `Err` is the failed `O0`
    /// session, memoized like a trace.
    pub fn baseline(
        &self,
        src: &SourceArtifacts,
        harness: &str,
        inputs: &[Vec<u8>],
        entry_args: &[i64],
        max_steps: u64,
    ) -> Result<Arc<Baseline>, String> {
        let key = program_key(src.key, harness, inputs, entry_args, max_steps);
        memo(&self.baselines, key, || {
            let session = SessionConfig {
                max_steps_per_input: max_steps,
                entry_args: entry_args.to_vec(),
                ground_truth: true,
            };
            let trace = self.trace(&src.o0, &src.o0_plan, harness, inputs, &session)?;
            Ok(Arc::new(Baseline {
                metrics: MetricBaseline::new(&trace, &src.analysis),
                truth: GroundTruth::new(&trace, &src.analysis),
                trace,
            }))
        })
        .0
    }

    /// A fast-path debug session of `obj` (with `plan`, built from
    /// `obj`) over `inputs`, counted with its per-session VM counters
    /// when it runs.
    pub(crate) fn trace(
        &self,
        obj: &Object,
        plan: &BreakPlan,
        harness: &str,
        inputs: &[Vec<u8>],
        session: &SessionConfig,
    ) -> Result<DebugTrace, String> {
        let (trace, _) = self.timed(
            || dt_debugger::trace_with_plan_stats(obj, harness, inputs, session, plan),
            |s, ms, traced| {
                if let Ok((_, stats)) = traced {
                    s.add_trace(ms, stats);
                }
            },
        )?;
        Ok(trace)
    }

    /// The checkpointed compile session for one
    /// source/personality/level/profile: the live one, or a new one
    /// (counted, and counted as rebuilt when this key was built
    /// before). Construction runs the full ungated pipeline once. The
    /// session is freed when its last holder drops it, unless a hold
    /// on its personality/level keeps it.
    pub(crate) fn session(
        &self,
        src: &SourceArtifacts,
        personality: Personality,
        level: OptLevel,
        profile: Option<&dt_ir::Profile>,
    ) -> Arc<CompileSession> {
        let key = (src.key, personality, level, profile.map(profile_key));
        loop {
            let mut built = None;
            let (session, _) = memo_live(
                &self.sessions,
                key,
                |s| s.strong_count() > 0,
                || {
                    let session =
                        Arc::new(self.transient_session(src, personality, level, profile));
                    if !self.built_sessions.lock().expect(POISONED).insert(key) {
                        self.count(|s| s.sessions_rebuilt += 1);
                    }
                    if let Some(kept) = self
                        .held
                        .lock()
                        .expect(POISONED)
                        .get_mut(&(personality, level))
                    {
                        kept.push(Arc::clone(&session));
                    }
                    let weak = Arc::downgrade(&session);
                    built = Some(session);
                    weak
                },
            );
            // A hit can die between the lookup and this upgrade; the
            // next lookup then refills its slot.
            if let Some(session) = built.or_else(|| session.upgrade()) {
                return session;
            }
        }
    }

    /// Keeps every session of `personality`/`level` that the store
    /// builds from now on alive until [`Self::release_sessions`] of the
    /// same pair. Sessions alive when the hold is taken are not adopted,
    /// and holds do not nest: one release ends the hold.
    pub(crate) fn hold_sessions(&self, personality: Personality, level: OptLevel) {
        self.held
            .lock()
            .expect(POISONED)
            .entry((personality, level))
            .or_default();
    }

    /// Ends the hold on `personality`/`level`, freeing each session it
    /// kept that no other holder has. Releasing a pair that is not
    /// held does nothing.
    pub(crate) fn release_sessions(&self, personality: Personality, level: OptLevel) {
        // Dropped outside the lock.
        let kept = self
            .held
            .lock()
            .expect(POISONED)
            .remove(&(personality, level));
        drop(kept);
    }

    /// How many sessions are alive.
    #[cfg(test)]
    pub(crate) fn live_sessions(&self) -> usize {
        let map = self.sessions.lock().expect(POISONED);
        map.values()
            .filter(|slot| slot.get().is_some_and(|s| s.strong_count() > 0))
            .count()
    }

    /// A compile session built for one use and not shared, counted like
    /// [`Self::session`]. Callers that need a source's session for a
    /// handful of builds use it so that memory does not grow with every
    /// source they measure.
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
                s.trail_functions += session.trail_function_count() as u64;
            },
        )
    }

    /// Compiles `src`'s module under `options` from scratch, counting
    /// the build. For one-off builds that no compile session serves.
    pub(crate) fn compile(&self, src: &SourceArtifacts, options: &CompileOptions) -> Object {
        self.timed(
            || dt_passes::compile(&src.module, options),
            |s, ms, _| s.add_build(ms),
        )
    }

    /// Builds `gate`'s variant from `session`, counting the build and
    /// how much of the pipeline it resumed past.
    pub(crate) fn build_variant(&self, session: &CompileSession, gate: &PassGate) -> VariantBuild {
        self.timed(
            || session.build_variant(gate),
            |s, ms, built| {
                s.add_build(ms);
                if built.prefix_skipped > 0 {
                    s.resumed_variants += 1;
                    s.prefix_passes_skipped += built.prefix_skipped as u64;
                }
                s.functions_cut_off += built.functions_cut_off as u64;
                s.backend_functions_reused += built.backend_functions_reused as u64;
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
                || Vm::run_to_completion(obj, entry, args, input, config),
                |s, ms, result| {
                    s.runs += 1;
                    s.run_ms += ms;
                    if let Ok(r) = result {
                        s.run_steps += r.steps;
                    }
                },
            );
            Ok(Arc::new(RunOutcome::of(&result?.finished(entry)?)))
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
        assert!(snap.trail_functions > 0);
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

    /// Single-flight, with the interleaving forced: the second caller
    /// takes the key's slot while the first is still computing, waits,
    /// and gets the first caller's value as a hit.
    #[test]
    fn a_caller_of_a_key_in_flight_waits_for_its_value() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let map: Memo<u32, u64> = Memo::default();
        let computes = AtomicUsize::new(0);
        let slot_holders = || Arc::strong_count(&map.lock().unwrap()[&7]);
        let (first, second) = std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                memo(&map, 7, || {
                    computes.fetch_add(1, SeqCst);
                    // Finish only once the second caller holds the
                    // slot too (the map, this caller, and it).
                    while slot_holders() < 3 {
                        std::thread::yield_now();
                    }
                    42
                })
            });
            while computes.load(SeqCst) == 0 {
                std::thread::yield_now();
            }
            let second = scope.spawn(|| {
                memo(&map, 7, || {
                    computes.fetch_add(1, SeqCst);
                    43
                })
            });
            (first.join().unwrap(), second.join().unwrap())
        });
        assert_eq!((first, second), ((42, false), (42, true)));
        assert_eq!(computes.into_inner(), 1);
    }

    /// A compute that panics leaves its slot empty and the map lock
    /// unpoisoned, so the next caller computes the value.
    #[test]
    fn a_panicking_compute_leaves_the_slot_empty() {
        let map: Memo<u32, u64> = Memo::default();
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo(&map, 7, || panic!("compute fails"))
        }));
        assert!(failed.is_err());
        assert_eq!(memo(&map, 7, || 42), (42, false));
        assert_eq!(memo(&map, 7, || 43), (42, true));
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
