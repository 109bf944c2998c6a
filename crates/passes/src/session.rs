//! Staged, checkpointed compilation sessions with exact early cutoff.
//!
//! The paper's Section III-A workflow builds one binary per gateable
//! pass per program per personality/level — by far the dominant cost
//! of the reproduction. But a variant disabling pass *p* is
//! bit-identical to the reference build up to *p*'s first occurrence
//! in the pipeline: every instance before that point runs with the
//! same module, the same [`PassConfig`], and the same (deterministic)
//! pass implementations. A [`CompileSession`] exploits this by running
//! the ungated pipeline exactly once as an explicit sequence of
//! stages, recording for every stage whether it changed the module
//! (`changed[i]`, decided by the exact, derived `Module: PartialEq`,
//! so there is no hash collision to confirm) and keeping module
//! snapshots keyed by pipeline position. Each variant is built by
//! *resuming* from the snapshot before the first instance the gate
//! disables *and* that changed the reference module. When there is no
//! such instance the variant's module is the optimized module: the
//! session pays only for code generation, or for nothing at all when
//! the gate leaves the backend configuration as the reference has it,
//! in which case the reference object is handed back.
//!
//! Correctness invariant (enforced by `tests/proptest_pipeline.rs`,
//! whose `#[ignore]`d sweep covers every gate shape the tuner ships):
//! for every gate,
//! `session.build_variant(&gate).object` is bit-identical
//! ([`Object::content_hash`]) to [`crate::compile_source`] from
//! scratch with the same options. This holds because
//!
//! 1. passes are deterministic functions of `(module, PassConfig)`,
//! 2. the gate only decides *whether* an instance runs, never *how*,
//! 3. the resume point is the first instance the gate disables among
//!    those that changed the reference module, so the skipped prefix
//!    is exactly what the from-scratch build would have executed, and
//! 4. skipping an instance that left the reference module unchanged
//!    leaves every later stage's input unchanged, so a disabled no-op
//!    instance inside the skipped prefix does not make it differ.
//!
//! A session keeps one module clone per gateable name's *first
//! changing instance* — the minimal set that can serve every gate:
//! the resume point of a gate is a changing instance one of its names
//! disables, and no earlier changing instance carries that name (it
//! would be disabled too), so it is that name's first changing
//! instance.

use crate::manager::{run_stage, PassConfig, PassGate};
use crate::pipeline::{self, Pipeline};
use crate::{OptLevel, Personality};
use dt_ir::{Module, Profile};
use dt_machine::{BackendConfig, Object};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// One variant build: the object plus how much pipeline work the
/// session avoided producing it.
pub struct VariantBuild {
    pub object: Object,
    /// Mid-pipeline instances not re-executed thanks to checkpoint
    /// resume (0 when the gate disables the very first instance and
    /// that instance changed the reference module).
    pub prefix_skipped: usize,
    /// Whether the fully optimized module was reused outright (the
    /// gate disables no instance that changed the reference module).
    pub reused_optimized: bool,
    /// Whether the reference object itself was handed back: the
    /// optimized module was reused and the gate leaves the backend
    /// configuration unchanged, so no code generation ran.
    pub reused_reference: bool,
}

/// A staged, checkpointed compilation pipeline for one
/// program/personality/level, shareable across threads (variant
/// builders take `&self`).
pub struct CompileSession {
    config: PassConfig,
    pipeline: Pipeline,
    /// The module after the full ungated middle end.
    optimized: Module,
    /// Whether each mid instance changed the reference module
    /// (always `false` for non-gateable instances, which no gate
    /// disables).
    changed: Vec<bool>,
    /// The module before each gateable name's first changing
    /// instance, by position.
    snapshots: HashMap<usize, Module>,
    /// The backend configuration of the ungated build.
    reference_backend: BackendConfig,
    /// The reference object, built on first use.
    reference: OnceLock<Object>,
}

impl CompileSession {
    /// Builds a session, running the full ungated pipeline once,
    /// recording which stages changed the module, and snapshotting the
    /// module before every gateable name's first changing instance.
    pub fn new(
        module: Module,
        personality: Personality,
        level: OptLevel,
        profile: Option<Profile>,
    ) -> Self {
        let pipeline = pipeline::build(personality, level);
        let config = PassConfig {
            salvage: personality == Personality::Clang,
            profile,
            level,
        };

        let mut seen: HashSet<&str> = HashSet::new();
        let mut snapshots = HashMap::new();
        let mut changed = Vec::with_capacity(pipeline.mid.len());
        let mut m = module;
        for (i, inst) in pipeline.mid.iter().enumerate() {
            if !inst.gateable {
                run_stage(&mut m, inst, &config);
                changed.push(false);
                continue;
            }
            let before = m.clone();
            run_stage(&mut m, inst, &config);
            let did_change = before != m;
            changed.push(did_change);
            let names = std::iter::once(inst.name).chain(inst.also_gated_by.iter().copied());
            // `|`, not `||`: every name of the instance is marked seen.
            if did_change && names.fold(false, |first, name| seen.insert(name) | first) {
                snapshots.insert(i, before);
            }
        }

        CompileSession {
            config,
            reference_backend: pipeline.backend_config(&PassGate::allow_all()),
            pipeline,
            optimized: m,
            changed,
            snapshots,
            reference: OnceLock::new(),
        }
    }

    /// Module snapshots the session retains.
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// The reference object: full ungated pipeline + backend, built
    /// once per session. Bit-identical to [`crate::compile`] with an
    /// all-allowing gate.
    pub fn reference_object(&self) -> Object {
        self.reference
            .get_or_init(|| dt_machine::run_backend(&self.optimized, &self.reference_backend))
            .clone()
    }

    /// Builds one variant under `gate`, resuming from the latest
    /// usable checkpoint. Bit-identical to a from-scratch
    /// [`crate::compile`] of the session's module under the same
    /// options.
    pub fn build_variant(&self, gate: &PassGate) -> VariantBuild {
        let backend = self.pipeline.backend_config(gate);
        let resume_at = self
            .pipeline
            .mid
            .iter()
            .zip(&self.changed)
            .position(|(inst, &changed)| changed && !gate.allows(inst));
        let (object, prefix_skipped, reused_optimized, reused_reference) = match resume_at {
            // Every disabled instance left the reference module
            // unchanged: the variant's module is the optimized module,
            // and with the reference backend its object is the
            // reference object.
            None => {
                let reused_reference = backend == self.reference_backend;
                let object = if reused_reference {
                    self.reference_object()
                } else {
                    dt_machine::run_backend(&self.optimized, &backend)
                };
                (object, self.pipeline.mid.len(), true, reused_reference)
            }
            Some(k) => {
                // `k` is the first changing instance of one of the
                // gate's names, so a snapshot was taken right before it.
                let mut m = self.snapshots.get(&k).expect("snapshot at k").clone();
                for inst in &self.pipeline.mid[k..] {
                    if gate.allows(inst) {
                        run_stage(&mut m, inst, &self.config);
                    }
                }
                let object = dt_machine::run_backend(&m, &backend);
                (object, k, false, false)
            }
        };
        VariantBuild {
            object,
            prefix_skipped,
            reused_optimized,
            reused_reference,
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
                let session = CompileSession::new(
                    dt_frontend::lower_source(PROGRAM).unwrap(),
                    personality,
                    level,
                    None,
                );
                let mut opts = CompileOptions::new(personality, level);
                assert_eq!(
                    session.reference_object().content_hash(),
                    compile_source(PROGRAM, &opts).unwrap().content_hash(),
                    "{personality} {level} reference"
                );
                for pass in pipeline_pass_names(personality, level) {
                    opts.gate = PassGate::disabling([pass]);
                    let scratch = compile_source(PROGRAM, &opts).unwrap();
                    let resumed = session.build_variant(&opts.gate).object;
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
        let session = CompileSession::new(
            dt_frontend::lower_source(PROGRAM).unwrap(),
            Personality::Gcc,
            OptLevel::O2,
            None,
        );
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
                session.build_variant(&gate).object.content_hash(),
                compile_source(PROGRAM, &opts).unwrap().content_hash(),
                "gate {disabled:?}"
            );
        }
    }

    #[test]
    fn backend_only_gates_reuse_the_optimized_module() {
        let session = CompileSession::new(
            dt_frontend::lower_source(PROGRAM).unwrap(),
            Personality::Gcc,
            OptLevel::O2,
            None,
        );
        let vb = session.build_variant(&PassGate::disabling(["schedule-insns2"]));
        assert!(
            vb.reused_optimized,
            "backend-only gate must skip the middle end"
        );
        assert_eq!(vb.prefix_skipped, session.pipeline.mid.len());
        let mut opts = CompileOptions::new(Personality::Gcc, OptLevel::O2);
        opts.gate = PassGate::disabling(["schedule-insns2"]);
        assert_eq!(
            vb.object.content_hash(),
            compile_source(PROGRAM, &opts).unwrap().content_hash()
        );
    }

    #[test]
    fn middle_end_gates_skip_a_prefix() {
        let session = CompileSession::new(
            dt_frontend::lower_source(PROGRAM).unwrap(),
            Personality::Gcc,
            OptLevel::O2,
            None,
        );
        // `tree-sink` sits deep in the gcc O2 pipeline: resuming must
        // skip every stage before its first occurrence.
        let vb = session.build_variant(&PassGate::disabling(["tree-sink"]));
        assert!(!vb.reused_optimized);
        assert!(vb.prefix_skipped > 3, "skipped only {}", vb.prefix_skipped);
        assert!(session.snapshot_count() > 0);
    }

    #[test]
    fn gates_disabling_only_no_ops_get_the_reference_object() {
        // Loop-free: the loop header copier has nothing to rotate.
        const LOOP_FREE: &str = "\
int g(int x) { if (x > 2) { return x * 5; } return x + 1; }
int f(int a, int b) { int s = g(a) + g(b); return s * 2; }";
        let session = CompileSession::new(
            dt_frontend::lower_source(LOOP_FREE).unwrap(),
            Personality::Gcc,
            OptLevel::O2,
            None,
        );
        let gate = PassGate::disabling(["tree-ch"]);
        let vb = session.build_variant(&gate);
        assert!(vb.reused_optimized && vb.reused_reference);
        assert_eq!(vb.prefix_skipped, session.pipeline.mid.len());
        let mut opts = CompileOptions::new(Personality::Gcc, OptLevel::O2);
        opts.gate = gate;
        let hash = vb.object.content_hash();
        assert_eq!(hash, session.reference_object().content_hash());
        assert_eq!(
            hash,
            compile_source(LOOP_FREE, &opts).unwrap().content_hash()
        );
    }

    #[test]
    fn snapshots_never_exceed_first_gated_positions() {
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let session = CompileSession::new(
                    dt_frontend::lower_source(PROGRAM).unwrap(),
                    personality,
                    level,
                    None,
                );
                let pipeline = pipeline::build(personality, level);
                let first_gated: HashSet<usize> = pipeline_pass_names(personality, level)
                    .into_iter()
                    .filter_map(|name| {
                        let gate = PassGate::disabling([name]);
                        pipeline.mid.iter().position(|inst| !gate.allows(inst))
                    })
                    .collect();
                assert!(
                    session.snapshot_count() <= first_gated.len(),
                    "{personality} {level}: {} snapshots, {} first-gated positions",
                    session.snapshot_count(),
                    first_gated.len()
                );
            }
        }
    }

    #[test]
    fn o0_sessions_have_an_empty_pipeline() {
        let session = CompileSession::new(
            dt_frontend::lower_source(PROGRAM).unwrap(),
            Personality::Gcc,
            OptLevel::O0,
            None,
        );
        assert_eq!(session.pipeline.mid.len(), 0);
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
}
