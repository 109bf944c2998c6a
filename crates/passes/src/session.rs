//! Staged, checkpointed compilation sessions.
//!
//! The paper's Section III-A workflow builds one binary per gateable
//! pass per program per personality/level — by far the dominant cost
//! of the reproduction. But a variant disabling pass *p* is
//! bit-identical to the reference build up to *p*'s first occurrence
//! in the pipeline: every instance before that point runs with the
//! same module, the same [`PassConfig`], and the same (deterministic)
//! pass implementations. A [`CompileSession`] exploits this by running
//! the ungated pipeline exactly once as an explicit sequence of
//! stages, recording module snapshots keyed by pipeline position plus
//! a content fingerprint per stage, and then building each variant by
//! *resuming* from the snapshot immediately before the first gated
//! instance. Gates that only touch the backend (or nothing at all)
//! reuse the fully optimized module outright and pay only for code
//! generation.
//!
//! Correctness invariant (enforced by `tests/proptest_pipeline.rs` and
//! `examples/session_check.rs`): for every gate,
//! `session.compile_variant(&gate)` is bit-identical
//! ([`Object::content_hash`]) to [`crate::compile_source`] from
//! scratch with the same options. This holds because
//!
//! 1. passes are deterministic functions of `(module, PassConfig)`
//!    (PR 1 removed the last iteration-order nondeterminism),
//! 2. the gate only decides *whether* an instance runs, never *how*,
//!    and
//! 3. the resume point is the first instance the gate disables, so the
//!    skipped prefix is exactly the prefix the from-scratch build
//!    would have executed identically.
//!
//! Snapshot retention is the memory/speed trade-off knob
//! ([`SnapshotRetention`]): `Checkpoints` (default) keeps one module
//! clone per *distinct first-gated position* — the minimal set that
//! can serve every possible gate, because the first instance disabled
//! by a multi-name gate is always the first-gated position of one of
//! its names; `Minimal` keeps no mid-pipeline snapshots, so variants
//! re-run the middle end from the lowered module (still skipping the
//! re-lex/re-parse/re-lower work of a from-scratch build).

use crate::manager::{run_stage, PassConfig, PassGate};
use crate::pipeline::{self, Pipeline};
use crate::{OptLevel, Personality};
use dt_ir::{Module, Profile};
use dt_machine::Object;
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// How many mid-pipeline module snapshots a session retains — the
/// memory/speed trade-off knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotRetention {
    /// Keep a snapshot before the first position each gateable name
    /// disables (the minimal complete set: any gate's first disabled
    /// instance is one of these positions). Memory cost: one module
    /// clone per distinct position; variant cost: suffix passes only.
    #[default]
    Checkpoints,
    /// Keep no mid-pipeline snapshots. Variants that disable a
    /// middle-end pass re-run the whole middle end from the lowered
    /// module; backend-only gates still reuse the optimized module.
    Minimal,
}

/// A retained module state: the module *before* mid instance `index`
/// runs, plus a structural fingerprint of that state.
struct Snapshot {
    index: usize,
    fingerprint: u64,
    module: Module,
}

/// Counters of the work a session performed and avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Module snapshots retained by the session.
    pub snapshots: u64,
    /// Variant builds served.
    pub variants: u64,
    /// Variants resumed past at least one pipeline stage.
    pub resumed_variants: u64,
    /// Variants that reused the fully optimized module outright
    /// (backend-only or empty gates).
    pub full_reuse_variants: u64,
    /// Total mid-pipeline instances skipped by resuming.
    pub prefix_passes_skipped: u64,
}

/// One variant build: the object plus how much pipeline work the
/// session avoided producing it.
pub struct VariantBuild {
    pub object: Object,
    /// Mid-pipeline instances not re-executed thanks to checkpoint
    /// resume (0 when the gate disables the very first instance, or
    /// under [`SnapshotRetention::Minimal`]).
    pub prefix_skipped: usize,
    /// Whether the fully optimized module was reused outright (the
    /// gate touched no middle-end instance).
    pub reused_optimized: bool,
}

/// A staged, checkpointed compilation pipeline for one
/// program/personality/level, shareable across threads (variant
/// builders take `&self`).
pub struct CompileSession {
    personality: Personality,
    level: OptLevel,
    config: PassConfig,
    pipeline: Pipeline,
    /// The lowered module, before any middle-end stage.
    base: Module,
    /// The module after the full ungated middle end.
    optimized: Module,
    /// Snapshots sorted by pipeline position.
    snapshots: Vec<Snapshot>,
    /// Structural fingerprint after each mid stage of the ungated run
    /// (diagnostic: lets determinism checks localize a divergent
    /// stage; resume correctness never depends on these).
    stage_fingerprints: Vec<u64>,
    variants: AtomicU64,
    resumed: AtomicU64,
    full_reuse: AtomicU64,
    skipped: AtomicU64,
}

/// Structural fingerprint of a module (FNV-1a over the printed IR).
/// Stable across identical pipelines; used to key snapshots and to
/// localize nondeterminism, not for correctness decisions.
pub fn module_fingerprint(module: &Module) -> u64 {
    let text = dt_ir::printer::print_module(module);
    dt_machine::Fnv1a::new().bytes(text.as_bytes()).finish()
}

impl CompileSession {
    /// Builds a session with the default snapshot retention.
    pub fn new(
        module: Module,
        personality: Personality,
        level: OptLevel,
        profile: Option<Profile>,
    ) -> Self {
        Self::with_retention(
            module,
            personality,
            level,
            profile,
            SnapshotRetention::default(),
        )
    }

    /// Parses, validates, and lowers MiniC source into a session.
    pub fn from_source(
        src: &str,
        personality: Personality,
        level: OptLevel,
        profile: Option<Profile>,
    ) -> Result<Self, String> {
        Ok(Self::new(
            dt_frontend::lower_source(src)?,
            personality,
            level,
            profile,
        ))
    }

    /// Builds a session, running the full ungated pipeline once and
    /// retaining snapshots per `retention`.
    pub fn with_retention(
        module: Module,
        personality: Personality,
        level: OptLevel,
        profile: Option<Profile>,
        retention: SnapshotRetention,
    ) -> Self {
        let pipeline = pipeline::build(personality, level);
        let config = PassConfig {
            salvage: personality == Personality::Clang,
            profile,
            level,
        };

        // Snapshot positions: the first instance each gateable name
        // disables. The first instance disabled by an arbitrary gate
        // is the smallest first-gated position among its names, so
        // this set serves every gate.
        let mut seen: HashSet<&str> = HashSet::new();
        let mut wanted: BTreeSet<usize> = BTreeSet::new();
        for (i, inst) in pipeline.mid.iter().enumerate() {
            if !inst.gateable {
                continue;
            }
            for name in std::iter::once(inst.name).chain(inst.also_gated_by.iter().copied()) {
                if seen.insert(name) {
                    wanted.insert(i);
                }
            }
        }

        let base = module;
        let mut m = base.clone();
        let mut snapshots = Vec::new();
        let mut stage_fingerprints = Vec::with_capacity(pipeline.mid.len());
        for (i, inst) in pipeline.mid.iter().enumerate() {
            if retention == SnapshotRetention::Checkpoints && wanted.contains(&i) {
                snapshots.push(Snapshot {
                    index: i,
                    fingerprint: module_fingerprint(&m),
                    module: m.clone(),
                });
            }
            run_stage(&mut m, inst, &config);
            stage_fingerprints.push(module_fingerprint(&m));
        }

        CompileSession {
            personality,
            level,
            config,
            pipeline,
            base,
            optimized: m,
            snapshots,
            stage_fingerprints,
            variants: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            full_reuse: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
        }
    }

    pub fn personality(&self) -> Personality {
        self.personality
    }

    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// Mid-pipeline stage count.
    pub fn stage_count(&self) -> usize {
        self.pipeline.mid.len()
    }

    /// Fingerprint after each mid stage of the ungated run.
    pub fn stage_fingerprints(&self) -> &[u64] {
        &self.stage_fingerprints
    }

    /// `(pipeline position, fingerprint)` of each retained snapshot.
    pub fn snapshot_keys(&self) -> Vec<(usize, u64)> {
        self.snapshots
            .iter()
            .map(|s| (s.index, s.fingerprint))
            .collect()
    }

    /// The gateable pass-name universe of this session's pipeline.
    pub fn gateable_names(&self) -> Vec<&'static str> {
        self.pipeline.gateable_names()
    }

    /// The reference object: full ungated pipeline + backend.
    /// Bit-identical to [`crate::compile`] with an all-allowing gate
    /// (does not count toward variant statistics).
    pub fn reference_object(&self) -> Object {
        let backend = self.pipeline.backend_config(&PassGate::allow_all());
        dt_machine::run_backend(&self.optimized, &backend)
    }

    /// Builds one variant under `gate`, resuming from the latest
    /// usable checkpoint. Bit-identical to a from-scratch
    /// [`crate::compile`] of the session's module under the same
    /// options.
    pub fn build_variant(&self, gate: &PassGate) -> VariantBuild {
        self.variants.fetch_add(1, Ordering::Relaxed);
        let backend = self.pipeline.backend_config(gate);
        let first_gated = self.pipeline.mid.iter().position(|inst| !gate.allows(inst));
        let (object, prefix_skipped, reused_optimized) = match first_gated {
            // The gate touches no middle-end instance: reuse the
            // optimized module, pay only for the (gated) backend.
            None => {
                self.full_reuse.fetch_add(1, Ordering::Relaxed);
                let object = dt_machine::run_backend(&self.optimized, &backend);
                (object, self.pipeline.mid.len(), true)
            }
            Some(k) => {
                let (mut m, resume_at) = match self.snapshots.iter().find(|s| s.index == k) {
                    Some(snap) => (snap.module.clone(), k),
                    // Minimal retention: restart the middle end from
                    // the lowered module.
                    None => (self.base.clone(), 0),
                };
                for inst in &self.pipeline.mid[resume_at..] {
                    if gate.allows(inst) {
                        run_stage(&mut m, inst, &self.config);
                    }
                }
                let object = dt_machine::run_backend(&m, &backend);
                (object, resume_at, false)
            }
        };
        if prefix_skipped > 0 {
            self.resumed.fetch_add(1, Ordering::Relaxed);
            self.skipped
                .fetch_add(prefix_skipped as u64, Ordering::Relaxed);
        }
        VariantBuild {
            object,
            prefix_skipped,
            reused_optimized,
        }
    }

    /// [`Self::build_variant`], returning just the object.
    pub fn compile_variant(&self, gate: &PassGate) -> Object {
        self.build_variant(gate).object
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            snapshots: self.snapshots.len() as u64,
            variants: self.variants.load(Ordering::Relaxed),
            resumed_variants: self.resumed.load(Ordering::Relaxed),
            full_reuse_variants: self.full_reuse.load(Ordering::Relaxed),
            prefix_passes_skipped: self.skipped.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_source, pipeline_pass_names, CompileOptions};

    const PROGRAM: &str = "\
int weight(int x) { return x * 3 + 1; }
int f(int n) {
    int total = 0;
    for (int i = 0; i < n; i++) {
        int w = weight(i);
        if (w % 2 == 0) { total += w; } else { total -= 1; }
    }
    return total;
}";

    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompileSession>();
    }

    #[test]
    fn resumed_variants_match_from_scratch_for_every_gate() {
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let session =
                    CompileSession::from_source(PROGRAM, personality, level, None).unwrap();
                let mut opts = CompileOptions::new(personality, level);
                assert_eq!(
                    session.reference_object().content_hash(),
                    compile_source(PROGRAM, &opts).unwrap().content_hash(),
                    "{personality} {level} reference"
                );
                for pass in pipeline_pass_names(personality, level) {
                    opts.gate = PassGate::disabling([pass]);
                    let scratch = compile_source(PROGRAM, &opts).unwrap();
                    let resumed = session.compile_variant(&opts.gate);
                    assert_eq!(
                        resumed.content_hash(),
                        scratch.content_hash(),
                        "{personality} {level} -{pass}"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_name_gates_resume_correctly() {
        let session =
            CompileSession::from_source(PROGRAM, Personality::Gcc, OptLevel::O2, None).unwrap();
        let names = pipeline_pass_names(Personality::Gcc, OptLevel::O2);
        // A gate mixing an early and a late pass, plus one mixing a
        // middle-end and a backend pass.
        for disabled in [
            vec![names[names.len() - 1], names[0]],
            vec!["tree-sink", "schedule-insns2"],
            vec!["expensive-opts", "dce", "reorder-blocks"],
        ] {
            let gate = PassGate::disabling(disabled.iter().copied());
            let mut opts = CompileOptions::new(Personality::Gcc, OptLevel::O2);
            opts.gate = gate.clone();
            assert_eq!(
                session.compile_variant(&gate).content_hash(),
                compile_source(PROGRAM, &opts).unwrap().content_hash(),
                "gate {disabled:?}"
            );
        }
    }

    #[test]
    fn backend_only_gates_reuse_the_optimized_module() {
        let session =
            CompileSession::from_source(PROGRAM, Personality::Gcc, OptLevel::O2, None).unwrap();
        let vb = session.build_variant(&PassGate::disabling(["schedule-insns2"]));
        assert!(
            vb.reused_optimized,
            "backend-only gate must skip the middle end"
        );
        assert_eq!(vb.prefix_skipped, session.stage_count());
        let mut opts = CompileOptions::new(Personality::Gcc, OptLevel::O2);
        opts.gate = PassGate::disabling(["schedule-insns2"]);
        assert_eq!(
            vb.object.content_hash(),
            compile_source(PROGRAM, &opts).unwrap().content_hash()
        );
    }

    #[test]
    fn middle_end_gates_skip_a_prefix() {
        let session =
            CompileSession::from_source(PROGRAM, Personality::Gcc, OptLevel::O2, None).unwrap();
        // `tree-sink` sits deep in the gcc O2 pipeline: resuming must
        // skip every stage before its first occurrence.
        let vb = session.build_variant(&PassGate::disabling(["tree-sink"]));
        assert!(!vb.reused_optimized);
        assert!(vb.prefix_skipped > 3, "skipped only {}", vb.prefix_skipped);
        let stats = session.stats();
        assert_eq!(stats.variants, 1);
        assert_eq!(stats.resumed_variants, 1);
        assert_eq!(stats.prefix_passes_skipped, vb.prefix_skipped as u64);
        assert!(stats.snapshots > 0);
    }

    #[test]
    fn minimal_retention_is_equivalent_but_snapshotless() {
        let module = dt_frontend::lower_source(PROGRAM).unwrap();
        let session = CompileSession::with_retention(
            module,
            Personality::Clang,
            OptLevel::O3,
            None,
            SnapshotRetention::Minimal,
        );
        assert_eq!(session.stats().snapshots, 0);
        for pass in pipeline_pass_names(Personality::Clang, OptLevel::O3) {
            let mut opts = CompileOptions::new(Personality::Clang, OptLevel::O3);
            opts.gate = PassGate::disabling([pass]);
            assert_eq!(
                session.compile_variant(&opts.gate).content_hash(),
                compile_source(PROGRAM, &opts).unwrap().content_hash(),
                "minimal retention -{pass}"
            );
        }
        // Backend-only gates still reuse the optimized module.
        let vb = session.build_variant(&PassGate::disabling(["Machine scheduling"]));
        assert!(vb.reused_optimized);
    }

    #[test]
    fn o0_sessions_have_an_empty_pipeline() {
        let session =
            CompileSession::from_source(PROGRAM, Personality::Gcc, OptLevel::O0, None).unwrap();
        assert_eq!(session.stage_count(), 0);
        let vb = session.build_variant(&PassGate::disabling(["dce"]));
        assert!(vb.reused_optimized);
        assert_eq!(
            vb.object.content_hash(),
            compile_source(
                PROGRAM,
                &CompileOptions::new(Personality::Gcc, OptLevel::O0)
            )
            .unwrap()
            .content_hash()
        );
    }

    #[test]
    fn stage_fingerprints_are_deterministic() {
        let a = CompileSession::from_source(PROGRAM, Personality::Gcc, OptLevel::O3, None).unwrap();
        let b = CompileSession::from_source(PROGRAM, Personality::Gcc, OptLevel::O3, None).unwrap();
        assert_eq!(a.stage_fingerprints(), b.stage_fingerprints());
        assert_eq!(a.snapshot_keys(), b.snapshot_keys());
        assert_eq!(a.stage_count(), a.stage_fingerprints().len());
    }
}
