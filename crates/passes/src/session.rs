//! Staged compilation sessions that share unchanged functions with
//! the reference build and cut off per function.
//!
//! The paper's Section III-A workflow builds one binary per gateable
//! pass per program per personality/level — by far the dominant cost
//! of the reproduction. A [`CompileSession`] runs the ungated pipeline
//! once and keeps its **trail**: for every middle-end stage, the
//! reference's functions entering it, as [`Arc`]s. A stage that leaves
//! a function unchanged keeps its `Arc`, so the trail holds one copy of
//! each function version, and a row of it is a module by pointer copy.
//! The session also records, per stage, whether it changed the
//! reference module (`changed[i]`, decided by exact function equality,
//! so there is no hash collision to confirm) and the [`ModuleFacts`]
//! the stage's pass read.
//!
//! A variant resumes at the first instance its gate disables among
//! those that changed the reference module, from the trail's row
//! there. When there is no such instance the variant's module is the
//! optimized module: the session pays only for code generation of
//! the functions whose backend code the gate changes, or for nothing
//! at all when it changes none, in which case the reference object is
//! handed back.
//!
//! Correctness invariant (enforced by `tests/proptest_pipeline.rs`,
//! whose `#[ignore]`d sweep covers every gate shape the tuner ships):
//! for every gate,
//! `session.build_variant(&gate).object` is bit-identical
//! ([`Object::content_hash`]) to [`crate::compile_source`] from
//! scratch with the same options. This holds because
//!
//! 1. every per-function result is a deterministic function of its
//!    inputs: a [`crate::manager::FunctionPass`] of (function,
//!    [`ModuleFacts`], [`PassConfig`]), a module pass of (module,
//!    config), the backend of a function of (function,
//!    [`BackendConfig`], globals layout, function table);
//! 2. the gate only decides *whether* an instance runs, never *how*;
//! 3. the resume point is the first instance the gate disables among
//!    those that changed the reference module, so the skipped prefix
//!    is exactly what the from-scratch build would have executed, and
//!    skipping an instance that left the reference module unchanged
//!    leaves every later stage's input unchanged;
//! 4. **cut-off**: in the resumed suffix, a function whose stage input
//!    is the reference's own `Arc` for that stage takes the reference's
//!    output without running the pass, provided the pass reads no
//!    facts or the variant's facts equal the reference's (a module
//!    pass is cut off only when every function is the reference's);
//!    by 1 the pass would have computed an equal function;
//! 5. **re-convergence**: after every stage, a variant function equal
//!    to the reference's output is that `Arc`. A function that the
//!    stage computed, or that the reference's stage changed, is
//!    compared and swapped back when equal; any other function's
//!    relation to the reference is as it was before the stage. So a
//!    function that diverges and later equals the reference again is
//!    cut off from then on;
//! 6. **backend reuse**: the reference build keeps every function's
//!    [`FunctionCode`] and its [`BackendFacts`], found by running each
//!    backend alternative on a copy of the machine IR and comparing.
//!    A variant with the reference's globals and function names takes
//!    the reference's code for every function that is the reference's
//!    optimized `Arc` and whose facts say the variant's
//!    [`BackendConfig`] gives the same code
//!    ([`BackendFacts::same_code`]: the configurations differ only in
//!    passes that were no-ops on the function, a `layout` flag that
//!    gives the same machine IR, `share_spill_slots` on a function
//!    that spilled nothing, and `toplevel_reorder`). Assembly
//!    concatenates the code in emission order as a from-scratch build
//!    does; when every function is reused and `toplevel_reorder` is
//!    the reference's, the object is the reference's.

use crate::manager::ReferenceStage;
use crate::manager::{converge, run_stage, shares_all, ModuleFacts, PassConfig, PassGate};
use crate::pipeline::{self, Pipeline};
use crate::{OptLevel, Personality};
use dt_ir::{Function, Module, Profile};
use dt_machine::{BackendConfig, BackendFacts, FunctionCode, Object};
use std::sync::{Arc, OnceLock};

/// One variant build: the object plus how much work the session
/// avoided producing it.
pub struct VariantBuild {
    pub object: Object,
    /// Mid-pipeline instances not re-executed thanks to checkpoint
    /// resume (0 when the gate disables the very first instance and
    /// that instance changed the reference module).
    pub prefix_skipped: usize,
    /// Whether the fully optimized module was reused outright (the
    /// gate disables no instance that changed the reference module).
    pub reused_optimized: bool,
    /// Whether the reference object itself was handed back: every
    /// optimized function is the reference's, the gate changes no
    /// function's code in the backend (see
    /// [`dt_machine::BackendFacts::same_code`]) and leaves
    /// `toplevel_reorder` as it is, so no code generation ran.
    pub reused_reference: bool,
    /// (stage, function) pairs of the resumed suffix taken from the
    /// trail instead of computed.
    pub functions_cut_off: usize,
    /// Functions whose machine code was taken from the reference build
    /// instead of generated.
    pub backend_functions_reused: usize,
}

/// A staged compilation pipeline for one program/personality/level,
/// shareable across threads (variant builders take `&self`).
pub struct CompileSession {
    config: PassConfig,
    pipeline: Pipeline,
    /// `trail[i]`: the reference's functions entering mid instance
    /// `i`; the last row is the optimized functions.
    trail: Vec<Vec<Arc<Function>>>,
    /// The facts each mid instance read in the reference build.
    facts: Vec<Option<ModuleFacts>>,
    /// The module after the full ungated middle end.
    optimized: Module,
    /// Whether each mid instance changed the reference module
    /// (always `false` for non-gateable instances, which no gate
    /// disables).
    changed: Vec<bool>,
    /// The backend configuration of the ungated build.
    reference_backend: BackendConfig,
    /// The reference object and its functions' code, built on first
    /// use.
    reference: OnceLock<ReferenceBuild>,
}

struct ReferenceBuild {
    /// The object holds every function's code
    /// ([`FunctionCode::from_object`]).
    object: Object,
    /// Every function's `toplevel-reorder` size, by function id.
    sizes: Vec<usize>,
    /// Every function's backend facts under the reference's backend
    /// configuration, by function id.
    facts: Vec<BackendFacts>,
}

impl CompileSession {
    /// Builds a session, running the full ungated pipeline once and
    /// keeping its trail, the facts each stage read, and which stages
    /// changed the module.
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
        };

        let n = pipeline.mid.len();
        let mut trail = Vec::with_capacity(n + 1);
        let mut facts = Vec::with_capacity(n);
        let mut changed = Vec::with_capacity(n);
        let mut m = module;
        for inst in &pipeline.mid {
            // The trail shares every function with `m`, so the stage
            // copies a function before changing it and keeps the
            // `Arc` of one it leaves equal.
            trail.push(m.funcs.clone());
            facts.push(run_stage(&mut m, inst, &config, None).facts);
            let input = &trail[trail.len() - 1];
            changed.push(inst.gateable && !shares_all(&m.funcs, input));
            // A new version stays in the trail: keep it compact.
            for (f, old) in m.funcs.iter_mut().zip(input) {
                if !Arc::ptr_eq(f, old) {
                    Arc::get_mut(f)
                        .expect("a new version is unshared")
                        .shrink_to_fit();
                }
            }
        }
        trail.push(m.funcs.clone());

        CompileSession {
            config,
            reference_backend: pipeline.backend_config(&PassGate::allow_all()),
            pipeline,
            trail,
            facts,
            optimized: m,
            changed,
            reference: OnceLock::new(),
        }
    }

    /// Function versions the reference's stages produced and the trail
    /// retains (the input module's functions are not counted).
    pub fn trail_function_count(&self) -> usize {
        self.trail
            .windows(2)
            .map(|w| {
                w[0].iter()
                    .zip(&w[1])
                    .filter(|(a, b)| !Arc::ptr_eq(a, b))
                    .count()
            })
            .sum()
    }

    fn reference_build(&self) -> &ReferenceBuild {
        self.reference.get_or_init(|| {
            let (globals, _) = dt_machine::lower::global_layout(&self.optimized);
            let (code, facts): (Vec<FunctionCode>, Vec<BackendFacts>) = self
                .optimized
                .funcs
                .iter()
                .map(|f| {
                    dt_machine::compile_function_with_facts(
                        f,
                        &self.optimized,
                        &globals,
                        &self.reference_backend,
                    )
                })
                .unzip();
            let refs: Vec<&FunctionCode> = code.iter().collect();
            let object =
                dt_machine::assemble_module(&self.optimized, &refs, &self.reference_backend);
            let sizes = code.iter().map(|c| c.size).collect();
            ReferenceBuild {
                object,
                sizes,
                facts,
            }
        })
    }

    /// The reference object: full ungated pipeline + backend, built
    /// once per session. Bit-identical to [`crate::compile`] with an
    /// all-allowing gate.
    pub fn reference_object(&self) -> Object {
        self.reference_build().object.clone()
    }

    /// Builds one variant under `gate`, resuming from the trail.
    /// Bit-identical to a from-scratch [`crate::compile`] of the
    /// session's module under the same options.
    pub fn build_variant(&self, gate: &PassGate) -> VariantBuild {
        let backend = self.pipeline.backend_config(gate);
        let resume_at = self.resume_point(gate);
        // Every disabled instance left the reference module unchanged:
        // the variant's module is the optimized module.
        let (resumed, functions_cut_off) = match resume_at {
            None => (None, 0),
            Some(k) => {
                let (m, cut_off) = self.resume(k, gate);
                (Some(m), cut_off)
            }
        };
        let module = resumed.as_ref().unwrap_or(&self.optimized);
        let mut backend_functions_reused = 0;
        // Every function keeps the reference's code, and only assembly
        // reads `toplevel_reorder`: the object is the reference's.
        let reused_reference = shares_all(&module.funcs, &self.optimized.funcs)
            && backend.toplevel_reorder == self.reference_backend.toplevel_reorder
            && self
                .reference_build()
                .facts
                .iter()
                .all(|facts| facts.same_code(&self.reference_backend, &backend));
        let object = if reused_reference {
            self.reference_object()
        } else if self.same_layout(module) {
            let reference = self.reference_build();
            let (globals, _) = dt_machine::lower::global_layout(module);
            let code: Vec<FunctionCode> = module
                .funcs
                .iter()
                .zip(&self.optimized.funcs)
                .enumerate()
                .map(|(fi, (f, optimized))| {
                    if Arc::ptr_eq(f, optimized)
                        && reference.facts[fi].same_code(&self.reference_backend, &backend)
                    {
                        backend_functions_reused += 1;
                        FunctionCode::from_object(&reference.object, fi, reference.sizes[fi])
                    } else {
                        dt_machine::compile_function(f, module, &globals, &backend)
                    }
                })
                .collect();
            let code: Vec<&FunctionCode> = code.iter().collect();
            dt_machine::assemble_module(module, &code, &backend)
        } else {
            dt_machine::run_backend(module, &backend)
        };
        VariantBuild {
            object,
            prefix_skipped: resume_at.unwrap_or(self.pipeline.mid.len()),
            reused_optimized: resume_at.is_none(),
            reused_reference,
            functions_cut_off,
            backend_functions_reused,
        }
    }

    /// The first instance `gate` disables among those that changed the
    /// reference module.
    fn resume_point(&self, gate: &PassGate) -> Option<usize> {
        self.pipeline
            .mid
            .iter()
            .zip(&self.changed)
            .position(|(inst, &changed)| changed && !gate.allows(inst))
    }

    /// Runs the middle end of `gate`'s variant from instance `k` (a
    /// changing instance the gate disables) on, following the trail.
    /// Returns the optimized module and the functions cut off.
    fn resume(&self, k: usize, gate: &PassGate) -> (Module, usize) {
        let mut m = Module {
            funcs: self.trail[k].clone(),
            globals: self.optimized.globals.clone(),
            order: self.optimized.order.clone(),
        };
        let mut cut_off = 0;
        for (i, inst) in self.pipeline.mid.iter().enumerate().skip(k) {
            let reference = ReferenceStage {
                input: &self.trail[i],
                output: &self.trail[i + 1],
                facts: self.facts[i].as_ref(),
            };
            if gate.allows(inst) {
                cut_off += run_stage(&mut m, inst, &self.config, Some(reference)).cut_off;
            } else {
                // The variant's functions stay as they are; one the
                // reference's stage changed into it converges.
                for ((f, input), output) in m
                    .funcs
                    .iter_mut()
                    .zip(reference.input)
                    .zip(reference.output)
                {
                    if !Arc::ptr_eq(input, output) {
                        converge(f, output);
                    }
                }
            }
        }
        (m, cut_off)
    }

    /// Whether `module` has the optimized module's globals and
    /// function names: what lowering reads besides the function.
    fn same_layout(&self, module: &Module) -> bool {
        module.globals == self.optimized.globals
            && module.funcs.len() == self.optimized.funcs.len()
            && module
                .funcs
                .iter()
                .zip(&self.optimized.funcs)
                .all(|(a, b)| a.name == b.name)
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
        assert!(session.trail_function_count() > 0);
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

    /// Four functions, one with a loop, one reading a global, two
    /// straight-line: most single-pass gates change only some of them.
    const MULTI: &str = "\
int scale;
int sq(int x) { return x * x + 1; }
int pick(int a, int b) { if (a > b) { return a - b; } return b - a; }
int sum(int n) {
    int t = 0;
    for (int i = 0; i < n; i++) { t += pick(i, 3) * scale; }
    return t;
}
int top(int n) { int a = sq(n); int b = sum(n); out(a); return a + b; }";

    /// The variant's optimized module (test access to the middle end
    /// of [`CompileSession::build_variant`]).
    fn variant_module(session: &CompileSession, gate: &PassGate) -> Module {
        match session.resume_point(gate) {
            None => session.optimized.clone(),
            Some(k) => session.resume(k, gate).0,
        }
    }

    /// Every trail row shares each function the stage left equal, and
    /// `changed[i]` is exact module inequality.
    #[test]
    fn the_trail_keeps_one_arc_per_function_version() {
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let session = CompileSession::new(
                    dt_frontend::lower_source(MULTI).unwrap(),
                    personality,
                    level,
                    None,
                );
                for (i, w) in session.trail.windows(2).enumerate() {
                    for (a, b) in w[0].iter().zip(&w[1]) {
                        assert!(
                            Arc::ptr_eq(a, b) || **a != **b,
                            "{personality} {level} stage {i}: equal {} copied",
                            a.name
                        );
                    }
                    let differs = w[0].iter().zip(&w[1]).any(|(a, b)| **a != **b);
                    assert_eq!(
                        session.changed[i],
                        session.pipeline.mid[i].gateable && differs,
                        "{personality} {level} stage {i}"
                    );
                }
                assert!(shares_all(
                    session.trail.last().unwrap(),
                    &session.optimized.funcs
                ));
            }
        }
    }

    /// A gate that changes one function leaves every other final
    /// function the reference's `Arc`, and any final function equal to
    /// the reference's is its `Arc`; objects equal from-scratch builds.
    #[test]
    fn gates_changing_one_function_share_the_others() {
        let mut one_changed = 0;
        for personality in [Personality::Gcc, Personality::Clang] {
            for level in [OptLevel::O1, OptLevel::O2] {
                let session = CompileSession::new(
                    dt_frontend::lower_source(MULTI).unwrap(),
                    personality,
                    level,
                    None,
                );
                for pass in pipeline_pass_names(personality, level) {
                    let gate = PassGate::disabling([pass]);
                    let m = variant_module(&session, &gate);
                    let mut differing = 0;
                    for (f, r) in m.funcs.iter().zip(&session.optimized.funcs) {
                        if **f == **r {
                            assert!(
                                Arc::ptr_eq(f, r),
                                "{personality} {level} -{pass}: {} equal but not shared",
                                f.name
                            );
                        } else {
                            differing += 1;
                        }
                    }
                    if differing == 1 {
                        one_changed += 1;
                    }
                    let mut opts = CompileOptions::new(personality, level);
                    opts.gate = gate.clone();
                    assert_eq!(
                        session.build_variant(&gate).object.content_hash(),
                        compile_source(MULTI, &opts).unwrap().content_hash(),
                        "{personality} {level} -{pass}"
                    );
                }
            }
        }
        assert!(one_changed > 0, "no gate changed exactly one function");
    }

    /// A function the gate's resume stage made diverge (the reference
    /// changed it there, the variant did not) and that a later stage
    /// brings back to the reference's function ends as the reference's
    /// `Arc`: only re-convergence can make it one again.
    #[test]
    fn diverged_functions_that_reconverge_get_the_reference_arc_back() {
        let mut reconverged = 0;
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let session = CompileSession::new(
                    dt_frontend::lower_source(MULTI).unwrap(),
                    personality,
                    level,
                    None,
                );
                for pass in pipeline_pass_names(personality, level) {
                    let gate = PassGate::disabling([pass]);
                    let Some(k) = session.resume_point(&gate) else {
                        continue;
                    };
                    let (m, _) = session.resume(k, &gate);
                    let diverged = (0..m.funcs.len())
                        .filter(|&j| !Arc::ptr_eq(&session.trail[k][j], &session.trail[k + 1][j]));
                    let mut any = false;
                    for j in diverged {
                        if Arc::ptr_eq(&m.funcs[j], &session.optimized.funcs[j]) {
                            reconverged += 1;
                            any = true;
                        }
                    }
                    if any {
                        let mut opts = CompileOptions::new(personality, level);
                        opts.gate = gate.clone();
                        assert_eq!(
                            session.build_variant(&gate).object.content_hash(),
                            compile_source(MULTI, &opts).unwrap().content_hash(),
                            "{personality} {level} -{pass}"
                        );
                    }
                }
            }
        }
        assert!(reconverged > 0, "no diverged function re-converged");
    }

    /// Per-function backend reuse matches from-scratch builds for every
    /// single-pass gate and for nested `Ox-dy`-style gates (the first
    /// `y` names disabled together), and it serves some functions.
    #[test]
    fn backend_reuse_matches_from_scratch_builds() {
        let mut reused = 0;
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let session = CompileSession::new(
                    dt_frontend::lower_source(MULTI).unwrap(),
                    personality,
                    level,
                    None,
                );
                let names = pipeline_pass_names(personality, level);
                let singles = names.iter().map(|&name| vec![name]);
                let nested = (2..=names.len()).step_by(3).map(|y| names[..y].to_vec());
                for disabled in singles.chain(nested) {
                    let gate = PassGate::disabling(disabled.iter().copied());
                    let mut opts = CompileOptions::new(personality, level);
                    opts.gate = gate.clone();
                    let built = session.build_variant(&gate);
                    reused += built.backend_functions_reused;
                    assert_eq!(
                        built.object.content_hash(),
                        compile_source(MULTI, &opts).unwrap().content_hash(),
                        "{personality} {level} gate {disabled:?}"
                    );
                }
            }
        }
        assert!(reused > 0, "no variant reused a function's code");
    }

    /// A backend-only gate whose pass is a no-op on some function but
    /// not on all of them takes the reference's code for the no-op
    /// ones, and every backend-only gate still builds what
    /// `compile_source` builds.
    #[test]
    fn backend_only_gates_reuse_functions_their_pass_left_unchanged() {
        let mut partly_reused = 0;
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let session = CompileSession::new(
                    dt_frontend::lower_source(MULTI).unwrap(),
                    personality,
                    level,
                    None,
                );
                let reference = session.reference_object();
                for pass in pipeline_pass_names(personality, level) {
                    let mut opts = CompileOptions::new(personality, level);
                    opts.gate = PassGate::disabling([pass]);
                    let built = session.build_variant(&opts.gate);
                    if !built.reused_optimized || built.reused_reference {
                        continue;
                    }
                    assert_eq!(
                        built.object.content_hash(),
                        compile_source(MULTI, &opts).unwrap().content_hash(),
                        "{personality} {level} -{pass}"
                    );
                    if built.backend_functions_reused > 0 && !built.object.text_eq(&reference) {
                        partly_reused += 1;
                    }
                }
            }
        }
        assert!(partly_reused > 0, "no backend-only gate reused a function");
    }

    /// Every single flip of a backend toggle against `reference`.
    fn toggle_flips(reference: &BackendConfig) -> Vec<(&'static str, BackendConfig)> {
        let flip = |name, f: fn(&mut BackendConfig)| {
            let mut c = reference.clone();
            f(&mut c);
            (name, c)
        };
        vec![
            flip("schedule", |c| c.schedule ^= true),
            flip("sink", |c| c.sink ^= true),
            flip("shrink_wrap", |c| c.shrink_wrap ^= true),
            flip("cfg_cleanup", |c| c.cfg_cleanup ^= true),
            flip("crossjump", |c| c.crossjump ^= true),
            flip("layout", |c| c.layout ^= true),
            flip("share_spill_slots", |c| c.share_spill_slots ^= true),
            flip("toplevel_reorder", |c| c.toplevel_reorder ^= true),
        ]
    }

    /// Checks the reference build's backend facts of every function of
    /// each program at each level: wherever they say a configuration
    /// gives the reference's code, [`dt_machine::compile_function`]
    /// under it does. The configurations are every single toggle flip
    /// and the backend configurations of nested gates (the first and
    /// the last `y` pass names disabled together, as `Ox-dy` nests
    /// them). Returns per flipped toggle how often the facts said
    /// "other code" and "same code".
    fn check_backend_facts(
        programs: &[dt_testsuite::TestProgram],
        levels: &[(Personality, OptLevel)],
    ) -> std::collections::BTreeMap<&'static str, [usize; 2]> {
        let mut outcomes = std::collections::BTreeMap::new();
        for p in programs {
            for &(personality, level) in levels {
                let session = CompileSession::new(
                    dt_frontend::lower_source(p.source).unwrap(),
                    personality,
                    level,
                    None,
                );
                let reference_config = &session.reference_backend;
                let names = pipeline_pass_names(personality, level);
                let nested = (1..=names.len()).flat_map(|y| {
                    [
                        PassGate::disabling(names[..y].iter().copied()),
                        PassGate::disabling(names[names.len() - y..].iter().copied()),
                    ]
                });
                let mut configs = toggle_flips(reference_config);
                configs.extend(
                    nested.map(|gate| ("<nested>", session.pipeline.backend_config(&gate))),
                );
                let module = &session.optimized;
                let (globals, _) = dt_machine::lower::global_layout(module);
                let reference = session.reference_build();
                for (fi, f) in module.funcs.iter().enumerate() {
                    let code =
                        FunctionCode::from_object(&reference.object, fi, reference.sizes[fi]);
                    for (toggle, config) in &configs {
                        let same = reference.facts[fi].same_code(reference_config, config);
                        if same {
                            assert_eq!(
                                dt_machine::compile_function(f, module, &globals, config),
                                code,
                                "{} {personality} {level} {}: {toggle} {config:?}",
                                p.name,
                                f.name
                            );
                        }
                        outcomes.entry(*toggle).or_insert([0, 0])[usize::from(same)] += 1;
                    }
                }
            }
        }
        outcomes
    }

    /// The tier-1 subset of [`backend_facts_are_sound_over_the_suite`].
    #[test]
    fn backend_facts_are_sound_on_two_programs() {
        let suite = dt_testsuite::real_world_suite();
        check_backend_facts(&suite[..2], &[(Personality::Gcc, OptLevel::O2)]);
    }

    /// Every suite function at every personality and level, and every
    /// toggle that changes code sees both outcomes, so the facts are
    /// neither vacuous nor all-or-nothing. Release mode, a few seconds;
    /// `scripts/ci.sh` runs it with `--include-ignored`.
    #[test]
    #[ignore]
    fn backend_facts_are_sound_over_the_suite() {
        let levels: Vec<(Personality, OptLevel)> = [Personality::Gcc, Personality::Clang]
            .into_iter()
            .flat_map(|p| OptLevel::levels_for(p).iter().map(move |&l| (p, l)))
            .collect();
        let outcomes = check_backend_facts(&dt_testsuite::real_world_suite(), &levels);
        for (toggle, [other, same]) in &outcomes {
            assert!(*same > 0, "{toggle}: the facts never say same code");
            if *toggle != "toplevel_reorder" {
                assert!(*other > 0, "{toggle}: the facts always say same code");
            }
        }
        assert_eq!(outcomes["toplevel_reorder"][0], 0, "only assembly reads it");
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
