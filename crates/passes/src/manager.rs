//! The pass traits, pass gate, and the stage runner.
//!
//! Passes are split by what they read. A [`FunctionPass`] sees one
//! function, the [`ModuleFacts`] and the [`PassConfig`]; a
//! [`ModulePass`] (the inliners, `ipa-pure-const`) sees the whole
//! module. One stage runner runs either kind over a module of shared
//! functions with copy on write, following a reference build when a
//! compile session resumes.

use crate::pipeline::Pipeline;
use dt_ir::{Function, Module, Op, Profile};
use std::collections::HashSet;
use std::sync::Arc;

/// Shared, read-only configuration every pass receives.
#[derive(Debug, Clone, Default)]
pub struct PassConfig {
    /// Whether passes salvage debug values on code removal (clang)
    /// instead of dropping them (gcc).
    pub salvage: bool,
    /// AutoFDO profile, if compiling profile-guided.
    pub profile: Option<Profile>,
}

/// Module-wide facts a [`FunctionPass`] may read: everything a pass
/// over one function knows about the rest of the module. A stage
/// computes them once from its input module, before the pass runs on
/// any function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModuleFacts {
    /// Each function's `pure_const` attribute, by function index
    /// (`cse` merges and `dce` deletes calls to pure functions).
    pub pure_const: Vec<bool>,
    /// Whether each global is loaded anywhere in the module, by global
    /// index (`dse` deletes stores to globals nobody loads).
    pub loaded_globals: Vec<bool>,
}

impl ModuleFacts {
    /// The facts of `module` as it stands.
    pub fn of(module: &Module) -> Self {
        let mut loaded_globals = vec![false; module.globals.len()];
        for f in &module.funcs {
            for b in f.block_ids() {
                for inst in &f.block(b).insts {
                    if let Op::LoadGlobal { global, .. } | Op::LoadGIdx { global, .. } = inst.op {
                        loaded_globals[global.index()] = true;
                    }
                }
            }
        }
        ModuleFacts {
            pure_const: module.funcs.iter().map(|f| f.attrs.pure_const).collect(),
            loaded_globals,
        }
    }
}

/// A middle-end pass over one function: the common case. Its result
/// may depend on the function, the [`ModuleFacts`] and the
/// [`PassConfig`], and on nothing else, which is what lets a compile
/// session reuse it per function.
pub trait FunctionPass: Send + Sync {
    /// Applies the pass; returns whether anything changed.
    fn run(&self, f: &mut Function, facts: &ModuleFacts, config: &PassConfig) -> bool;
}

impl<F> FunctionPass for F
where
    F: Fn(&mut Function, &ModuleFacts, &PassConfig) -> bool + Send + Sync,
{
    fn run(&self, f: &mut Function, facts: &ModuleFacts, config: &PassConfig) -> bool {
        self(f, facts, config)
    }
}

/// A middle-end pass that reads or writes several functions at once:
/// only the inliners and `ipa-pure-const`.
pub trait ModulePass: Send + Sync {
    /// Applies the pass; returns whether anything changed. It must
    /// change a function only through [`Module::func_mut`] or
    /// [`Arc::make_mut`], so that the functions it leaves alone stay
    /// shared.
    fn run(&self, module: &mut Module, config: &PassConfig) -> bool;
}

impl<F> ModulePass for F
where
    F: Fn(&mut Module, &PassConfig) -> bool + Send + Sync,
{
    fn run(&self, module: &mut Module, config: &PassConfig) -> bool {
        self(module, config)
    }
}

/// The pass one pipeline stage runs.
#[derive(Clone)]
pub enum Pass {
    /// A pass over one function at a time. A pass that does not
    /// declare `reads_facts` is handed empty [`ModuleFacts`].
    Function {
        pass: Arc<dyn FunctionPass>,
        reads_facts: bool,
    },
    /// A pass over the whole module.
    Module(Arc<dyn ModulePass>),
}

impl Pass {
    /// A function pass that reads no [`ModuleFacts`].
    pub fn function(pass: impl FunctionPass + 'static) -> Self {
        Pass::Function {
            pass: Arc::new(pass),
            reads_facts: false,
        }
    }

    /// A function pass that reads [`ModuleFacts`].
    pub fn function_reading_facts(pass: impl FunctionPass + 'static) -> Self {
        Pass::Function {
            pass: Arc::new(pass),
            reads_facts: true,
        }
    }

    /// A module pass.
    pub fn module(pass: impl ModulePass + 'static) -> Self {
        Pass::Module(Arc::new(pass))
    }
}

/// One named, gateable occurrence of a pass in a pipeline.
#[derive(Clone)]
pub struct PassInstance {
    /// The user-facing flag name (as in the paper's Tables V/VI).
    pub name: &'static str,
    /// Extra gate names that also disable this instance (e.g. gcc's
    /// master `inline` switch disables every inlining variant, and the
    /// `expensive-opts` group gates its member passes).
    pub also_gated_by: &'static [&'static str],
    /// Infrastructure passes (gcc's SSA construction) are not
    /// user-toggleable and are invisible to DebugTuner.
    pub gateable: bool,
    pub pass: Pass,
}

impl PassInstance {
    /// A plain gateable instance.
    pub fn new(name: &'static str, pass: Pass) -> Self {
        PassInstance {
            name,
            also_gated_by: &[],
            gateable: true,
            pass,
        }
    }

    /// An instance additionally controlled by group/master switches.
    pub fn grouped(name: &'static str, also_gated_by: &'static [&'static str], pass: Pass) -> Self {
        PassInstance {
            name,
            also_gated_by,
            gateable: true,
            pass,
        }
    }

    /// A non-toggleable infrastructure instance.
    pub fn infra(name: &'static str, pass: Pass) -> Self {
        PassInstance {
            name,
            also_gated_by: &[],
            gateable: false,
            pass,
        }
    }
}

impl std::fmt::Debug for PassInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassInstance")
            .field("name", &self.name)
            .field("gateable", &self.gateable)
            .finish()
    }
}

/// The pass gate: skip passes by name (our `OptPassGate` analogue).
///
/// Disabling a name disables *every* occurrence of that pass in the
/// pipeline, matching the paper's methodology.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassGate {
    disabled: HashSet<String>,
}

impl PassGate {
    /// A gate with nothing disabled.
    pub fn allow_all() -> Self {
        Self::default()
    }

    /// A gate disabling exactly the given pass names.
    pub fn disabling<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PassGate {
            disabled: names.into_iter().map(Into::into).collect(),
        }
    }

    /// Whether the instance may run.
    pub fn allows(&self, inst: &PassInstance) -> bool {
        if !inst.gateable {
            return true;
        }
        if self.disabled.contains(inst.name) {
            return false;
        }
        !inst
            .also_gated_by
            .iter()
            .any(|g| self.disabled.contains(*g))
    }

    /// Whether a backend pass name is enabled.
    pub fn allows_name(&self, name: &str) -> bool {
        !self.disabled.contains(name)
    }

    /// The disabled names, sorted (for reporting).
    pub fn disabled_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.disabled.iter().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Whether the gate disables nothing.
    pub fn is_empty(&self) -> bool {
        self.disabled.is_empty()
    }
}

/// Runs the middle-end part of a pipeline under a gate.
pub fn run_pipeline(
    module: &mut Module,
    pipeline: &Pipeline,
    gate: &PassGate,
    config: &PassConfig,
) {
    for inst in &pipeline.mid {
        if gate.allows(inst) {
            run_stage(module, inst, config, None);
        }
    }
}

/// The reference build's record of one stage, which a resumed build
/// follows function by function.
#[derive(Clone, Copy)]
pub(crate) struct ReferenceStage<'a> {
    /// The reference's functions entering the stage.
    pub input: &'a [Arc<Function>],
    /// The reference's functions leaving it.
    pub output: &'a [Arc<Function>],
    /// The facts the stage's pass read (`None` when it reads none).
    pub facts: Option<&'a ModuleFacts>,
}

/// What one stage did.
pub(crate) struct StageRun {
    /// The facts the pass read, when it reads them and ran.
    pub facts: Option<ModuleFacts>,
    /// Functions whose output was taken from the reference stage
    /// instead of computed.
    pub cut_off: usize,
}

/// Executes one pipeline stage: the pass and inter-pass hygiene on
/// every function, then the module invariant check. The single
/// stage-execution primitive of [`run_pipeline`] and of the
/// [`crate::session::CompileSession`], so from-scratch and resumed
/// builds run the same per-function steps.
///
/// A function changes only through copy on write ([`update`] or
/// [`Arc::make_mut`]), and an output equal to its input keeps the
/// input's `Arc`. With a `reference`, a function that is the
/// reference's input `Arc` takes the reference's output without
/// running the pass, provided the pass reads no facts or reads the
/// reference's; and a computed function equal to the reference's
/// output is replaced by that `Arc`, restoring sharing.
pub(crate) fn run_stage(
    module: &mut Module,
    inst: &PassInstance,
    config: &PassConfig,
    reference: Option<ReferenceStage>,
) -> StageRun {
    if let Some(r) = reference {
        // The reference's own input module: same functions, and so the
        // same facts (no pass changes the globals).
        if shares_all(&module.funcs, r.input) {
            module.funcs.clone_from_slice(r.output);
            return StageRun {
                facts: None,
                cut_off: module.funcs.len(),
            };
        }
    }
    let mut run = StageRun {
        facts: None,
        cut_off: 0,
    };
    match &inst.pass {
        Pass::Function { pass, reads_facts } => {
            let facts = if *reads_facts {
                ModuleFacts::of(module)
            } else {
                ModuleFacts::default()
            };
            let follows = reference.filter(|r| !reads_facts || r.facts == Some(&facts));
            for (j, f) in module.funcs.iter_mut().enumerate() {
                if let Some(r) = follows {
                    if Arc::ptr_eq(f, &r.input[j]) {
                        *f = Arc::clone(&r.output[j]);
                        run.cut_off += 1;
                        continue;
                    }
                }
                let changed = update(f, |g| {
                    let changed = pass.run(g, &facts, config);
                    cleanup(g) | changed
                });
                if let Some(r) = reference {
                    if changed || !Arc::ptr_eq(&r.input[j], &r.output[j]) {
                        converge(f, &r.output[j]);
                    }
                }
            }
            run.facts = reads_facts.then_some(facts);
        }
        Pass::Module(pass) => {
            let before = module.funcs.clone();
            pass.run(module, config);
            for (j, (f, old)) in module.funcs.iter_mut().zip(&before).enumerate() {
                // Checked first, so that a function the pass left
                // alone is not copied for nothing.
                if has_unreachable_blocks(f) {
                    cleanup(Arc::make_mut(f));
                }
                converge(f, old);
                if let Some(r) = reference {
                    converge(f, &r.output[j]);
                }
            }
        }
    }
    debug_assert_eq!(
        dt_ir::verify_module(module).err(),
        None,
        "after {}",
        inst.name
    );
    run
}

/// Whether every function of `funcs` is the corresponding `Arc` of
/// `reference`.
pub(crate) fn shares_all(funcs: &[Arc<Function>], reference: &[Arc<Function>]) -> bool {
    funcs.len() == reference.len() && funcs.iter().zip(reference).all(|(a, b)| Arc::ptr_eq(a, b))
}

/// Runs `step` on `f` with copy on write: in place when `f` is not
/// shared, otherwise on a copy that replaces `f` only if it differs.
/// Returns whether `f` changed: exactly when it was shared, as `step`
/// reports when not.
fn update(f: &mut Arc<Function>, step: impl FnOnce(&mut Function) -> bool) -> bool {
    if let Some(g) = Arc::get_mut(f) {
        return step(g);
    }
    let mut copy = Function::clone(f);
    if step(&mut copy) && !same_function(&copy, f) {
        *f = Arc::new(copy);
        true
    } else {
        false
    }
}

/// Replaces `f` by `target` when the two are equal but not the same
/// `Arc`.
pub(crate) fn converge(f: &mut Arc<Function>, target: &Arc<Function>) {
    if !Arc::ptr_eq(f, target) && same_function(f, target) {
        *f = Arc::clone(target);
    }
}

/// Function equality, with the cheap size checks first.
fn same_function(a: &Function, b: &Function) -> bool {
    a.vreg_count == b.vreg_count
        && a.blocks.len() == b.blocks.len()
        && a.slots.len() == b.slots.len()
        && a.vars.len() == b.vars.len()
        && a == b
}

/// Whether [`cleanup`] would remove a block of `f`.
fn has_unreachable_blocks(f: &Function) -> bool {
    dt_ir::reachable_mask(f)
        .iter()
        .zip(&f.blocks)
        .any(|(&reachable, b)| !reachable && !b.dead)
}

/// Inter-pass hygiene: removes unreachable blocks so every pass sees a
/// tidy CFG; returns whether it removed any. Not a gateable pass
/// (mirrors cfg-cleanup utilities that real pass managers run
/// implicitly).
pub fn cleanup(f: &mut Function) -> bool {
    dt_ir::remove_unreachable(f)
}

impl Pass {
    /// The whole-module form of the pass, the test oracle of the
    /// per-function stages: a function pass computes the facts once
    /// from the module and runs over every function, with no cleanup
    /// in between.
    #[cfg(test)]
    pub(crate) fn run_whole_module(&self, module: &mut Module, config: &PassConfig) -> bool {
        match self {
            Pass::Function { pass, .. } => run_whole_module(&**pass, module, config),
            Pass::Module(pass) => pass.run(module, config),
        }
    }
}

/// Runs a function pass over every function of `module`, with facts
/// computed once up front (see [`Pass::run_whole_module`]).
#[cfg(test)]
pub(crate) fn run_whole_module(
    pass: &dyn FunctionPass,
    module: &mut Module,
    config: &PassConfig,
) -> bool {
    let facts = ModuleFacts::of(module);
    let mut changed = false;
    for f in &mut module.funcs {
        changed |= pass.run(Arc::make_mut(f), &facts, config);
    }
    changed
}

/// [`cleanup`] over every function of `module`.
#[cfg(test)]
pub(crate) fn cleanup_module(module: &mut Module) {
    for f in &mut module.funcs {
        cleanup(Arc::make_mut(f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() -> Pass {
        Pass::module(|_: &mut Module, _: &PassConfig| false)
    }

    #[test]
    fn gate_disables_by_name() {
        let gate = PassGate::disabling(["inline"]);
        let plain = PassInstance::new("dce", noop());
        let gated = PassInstance::new("inline", noop());
        assert!(gate.allows(&plain));
        assert!(!gate.allows(&gated));
    }

    #[test]
    fn gate_respects_group_switches() {
        let inst = PassInstance::grouped("inline-small-functions", &["inline"], noop());
        assert!(PassGate::allow_all().allows(&inst));
        assert!(!PassGate::disabling(["inline"]).allows(&inst));
        assert!(!PassGate::disabling(["inline-small-functions"]).allows(&inst));
    }

    #[test]
    fn infra_passes_cannot_be_gated() {
        let inst = PassInstance::infra("ssa-build", noop());
        assert!(PassGate::disabling(["ssa-build"]).allows(&inst));
    }

    /// A pass that reports no change must leave the module untouched,
    /// checked on every instance of every reference pipeline over the
    /// real-world suite.
    #[test]
    fn false_change_reports_leave_the_module_unchanged() {
        use crate::{pipeline, OptLevel, Personality};
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let pipeline = pipeline::build(personality, level);
                let config = PassConfig {
                    salvage: personality == Personality::Clang,
                    profile: None,
                };
                for program in dt_testsuite::real_world_suite() {
                    let mut m = dt_frontend::lower_source(program.source).unwrap();
                    for inst in &pipeline.mid {
                        let before = m.clone();
                        if !inst.pass.run_whole_module(&mut m, &config) {
                            assert!(
                                before == m,
                                "{} {personality} {level}: {} returned false but changed the module",
                                program.name,
                                inst.name
                            );
                        }
                        cleanup_module(&mut m);
                    }
                }
            }
        }
    }

    /// A deterministic stand-in for an AutoFDO profile of `source`:
    /// every third line hot, the rest cold.
    fn synthetic_profile(source: &str) -> Profile {
        let mut profile = Profile::new();
        for line in 1..=source.lines().count() as u32 {
            profile.add(line, if line % 3 == 0 { 1000 } else { 1 });
        }
        profile
    }

    /// The pass split's oracle: every stage of the reference pipeline,
    /// run per function with its facts (as [`run_stage`] runs it),
    /// leaves the module equal to the stage run whole-module (the pass
    /// over every function, then cleanup over every function), and a
    /// function the stage leaves equal keeps its `Arc`. Over `programs`
    /// at every personality and level, with and without a profile.
    fn check_pass_split(programs: &[dt_testsuite::TestProgram]) {
        use crate::{pipeline, OptLevel, Personality};
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let pipeline = pipeline::build(personality, level);
                for program in programs {
                    for profile in [None, Some(synthetic_profile(program.source))] {
                        let config = PassConfig {
                            salvage: personality == Personality::Clang,
                            profile,
                        };
                        let mut m = dt_frontend::lower_source(program.source).unwrap();
                        for inst in &pipeline.mid {
                            let before = m.clone();
                            let mut whole = m.clone();
                            inst.pass.run_whole_module(&mut whole, &config);
                            cleanup_module(&mut whole);
                            run_stage(&mut m, inst, &config, None);
                            let at = format!(
                                "{} {personality} {level} (profile: {}) {}",
                                program.name,
                                config.profile.is_some(),
                                inst.name
                            );
                            assert!(m == whole, "{at}: per-function stage differs");
                            for (f, old) in m.funcs.iter().zip(&before.funcs) {
                                assert!(
                                    Arc::ptr_eq(f, old) || **f != **old,
                                    "{at}: {} unchanged but copied",
                                    f.name
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn per_function_stages_match_whole_module_runs_on_a_suite_subset() {
        let suite = dt_testsuite::real_world_suite();
        check_pass_split(&suite[..3]);
    }

    #[test]
    #[ignore = "full suite sweep; run with --include-ignored"]
    fn per_function_stages_match_whole_module_runs_on_the_suite() {
        check_pass_split(&dt_testsuite::real_world_suite());
    }

    #[test]
    fn cleanup_removes_unreachable_blocks() {
        let src = "int f() { return 1; }";
        let mut m = dt_frontend::lower_source(src).unwrap();
        // Orphan block.
        let orphan = m
            .func_mut(dt_ir::FuncId(0))
            .new_block(dt_ir::Terminator::Ret(None));
        assert!(cleanup(m.func_mut(dt_ir::FuncId(0))));
        assert!(m.funcs[0].block(orphan).dead);
        assert!(
            !cleanup(m.func_mut(dt_ir::FuncId(0))),
            "nothing left to remove"
        );
        dt_ir::verify_module(&m).unwrap();
    }
}
