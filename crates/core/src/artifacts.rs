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
//! * **evaluations** — one [`ProgramEvaluation`] per program and
//!   personality/level;
//! * **variant traces** — the metrics and defect summary of each
//!   distinct variant binary ([`Object::content_hash`]), scoped per
//!   program and personality/level.
//!
//! Every key is a content digest ([`dt_machine::Fnv1a`]) of what
//! determines the value: the source text, plus the harness, input set,
//! entry arguments, and step budget for anything traced. A program's
//! name is a label only, so two inputs that share a name but not their
//! content never alias a cached value. Lookups are safe under
//! concurrent use; a lost race costs a redundant computation of a
//! bit-identical value, never divergent results. The store also owns
//! the [`Telemetry`] its work is recorded in.

use crate::eval::ProgramEvaluation;
use crate::telemetry::Telemetry;
use dt_checker::DefectSummary;
use dt_debugger::{BreakPlan, DebugTrace, SessionConfig};
use dt_machine::{Fnv1a, Object};
use dt_metrics::Metrics;
use dt_minic::analysis::SourceAnalysis;
use dt_passes::{CompileSession, OptLevel, Personality};
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

/// The shared artifact store. Owned by [`crate::DebugTuner`];
/// free-function entry points create a transient store per call.
#[derive(Default)]
pub struct ArtifactStore {
    telemetry: Telemetry,
    sources: Mutex<HashMap<u64, Result<Arc<SourceArtifacts>, String>>>,
    baselines: Mutex<HashMap<u64, Result<Arc<DebugTrace>, String>>>,
    sessions: Mutex<HashMap<SessionKey, Arc<CompileSession>>>,
    evaluations: Mutex<HashMap<ScopeKey, ProgramEvaluation>>,
    variant_traces: Mutex<HashMap<(ScopeKey, u64), (Metrics, DefectSummary)>>,
}

/// Looks `key` up in `map`, computing the value on a miss outside the
/// lock. Returns the value and whether it was a hit.
fn memo<K: Hash + Eq, V: Clone>(
    map: &Mutex<HashMap<K, V>>,
    key: K,
    compute: impl FnOnce() -> V,
) -> (V, bool) {
    // Values are computed outside the lock and nothing that holds it
    // can panic, so it is never poisoned.
    const POISONED: &str = "artifact store lock poisoned";
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
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The source's shared artifacts, built on first use. Fails when
    /// the source does not compile.
    pub fn source(&self, source: &str) -> Result<Arc<SourceArtifacts>, String> {
        let key = source_key(source);
        let (art, hit) = memo(&self.sources, key, || {
            let parsed = dt_minic::compile_check(source)?;
            let analysis = SourceAnalysis::of(&parsed);
            let module = dt_frontend::lower_source(source)?;
            let build_start = Instant::now();
            let o0 = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
            self.telemetry.record_build(build_start.elapsed());
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
            self.telemetry.record_artifact_hit();
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
            let trace_start = Instant::now();
            let (trace, stats) = dt_debugger::trace_with_plan_stats(
                &src.o0,
                harness,
                inputs,
                &session,
                &src.o0_plan,
            )?;
            self.telemetry.record_trace(trace_start.elapsed());
            self.telemetry.record_fast_trace(&stats);
            Ok(Arc::new(trace))
        })
        .0
    }

    /// The checkpointed compile session for one
    /// source/personality/level/profile, constructing (and recording)
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
            let build_start = Instant::now();
            let session =
                CompileSession::new(src.module.clone(), personality, level, profile.cloned());
            self.telemetry.record_build(build_start.elapsed());
            self.telemetry.record_session(session.stats().snapshots);
            Arc::new(session)
        })
        .0
    }

    /// The memoized evaluation for `key`, computed on first use.
    pub(crate) fn evaluation(
        &self,
        key: ScopeKey,
        compute: impl FnOnce() -> ProgramEvaluation,
    ) -> ProgramEvaluation {
        let (eval, hit) = memo(&self.evaluations, key, compute);
        if hit {
            self.telemetry.record_eval_cache_hit();
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
            self.telemetry.record_trace_cache_hit();
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
        let snap = store.telemetry().snapshot(1);
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
        assert_eq!(store.telemetry().snapshot(1).sessions, 2);
    }
}
