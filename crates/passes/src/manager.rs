//! The pass trait, pass gate, and pipeline runner.

use crate::pipeline::Pipeline;
use crate::OptLevel;
use dt_ir::{Module, Profile};
use std::collections::HashSet;
use std::sync::Arc;

/// Shared, read-only configuration every pass receives.
#[derive(Debug, Clone)]
pub struct PassConfig {
    /// Whether passes salvage debug values on code removal (clang)
    /// instead of dropping them (gcc).
    pub salvage: bool,
    /// AutoFDO profile, if compiling profile-guided.
    pub profile: Option<Profile>,
    /// The optimization level being built (some passes self-tune).
    pub level: OptLevel,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig {
            salvage: false,
            profile: None,
            level: OptLevel::O2,
        }
    }
}

/// A middle-end pass over a whole module.
pub trait ModulePass: Send + Sync {
    /// Applies the pass; returns whether anything changed.
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
    pub pass: Arc<dyn ModulePass>,
}

impl PassInstance {
    /// A plain gateable instance.
    pub fn new(name: &'static str, pass: impl ModulePass + 'static) -> Self {
        PassInstance {
            name,
            also_gated_by: &[],
            gateable: true,
            pass: Arc::new(pass),
        }
    }

    /// An instance additionally controlled by group/master switches.
    pub fn grouped(
        name: &'static str,
        also_gated_by: &'static [&'static str],
        pass: impl ModulePass + 'static,
    ) -> Self {
        PassInstance {
            name,
            also_gated_by,
            gateable: true,
            pass: Arc::new(pass),
        }
    }

    /// A non-toggleable infrastructure instance.
    pub fn infra(name: &'static str, pass: impl ModulePass + 'static) -> Self {
        PassInstance {
            name,
            also_gated_by: &[],
            gateable: false,
            pass: Arc::new(pass),
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

    /// Disables `name`.
    pub fn disable(&mut self, name: &str) {
        self.disabled.insert(name.to_owned());
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
        if !gate.allows(inst) {
            continue;
        }
        run_stage(module, inst, config);
    }
}

/// Executes one pipeline stage: the pass, inter-pass hygiene, and the
/// module invariant check. The single stage-execution primitive shared
/// by [`run_pipeline`] and the checkpointed
/// [`crate::session::CompileSession`], so from-scratch and resumed
/// builds run bit-identical stage sequences.
pub(crate) fn run_stage(module: &mut Module, inst: &PassInstance, config: &PassConfig) {
    inst.pass.run(module, config);
    cleanup(module);
    debug_assert_eq!(
        dt_ir::verify_module(module).err(),
        None,
        "after {}",
        inst.name
    );
}

/// Inter-pass hygiene: removes unreachable blocks so every pass sees a
/// tidy CFG. Not a gateable pass (mirrors cfg-cleanup utilities that
/// real pass managers run implicitly).
pub fn cleanup(module: &mut Module) {
    for f in &mut module.funcs {
        dt_ir::remove_unreachable(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() -> impl ModulePass {
        |_: &mut Module, _: &PassConfig| false
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
                    level,
                };
                for program in dt_testsuite::real_world_suite() {
                    let mut m = dt_frontend::lower_source(program.source).unwrap();
                    for inst in &pipeline.mid {
                        let before = m.clone();
                        if !inst.pass.run(&mut m, &config) {
                            assert!(
                                before == m,
                                "{} {personality} {level}: {} returned false but changed the module",
                                program.name,
                                inst.name
                            );
                        }
                        cleanup(&mut m);
                    }
                }
            }
        }
    }

    #[test]
    fn cleanup_removes_unreachable_blocks() {
        let src = "int f() { return 1; }";
        let mut m = dt_frontend::lower_source(src).unwrap();
        // Orphan block.
        let orphan = m.funcs[0].new_block(dt_ir::Terminator::Ret(None));
        cleanup(&mut m);
        assert!(m.funcs[0].block(orphan).dead);
        dt_ir::verify_module(&m).unwrap();
    }
}
