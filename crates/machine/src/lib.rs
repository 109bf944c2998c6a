//! VISA: the virtual instruction set, machine IR, register allocation,
//! backend transformations, and object-file emission.
//!
//! The backend pipeline is:
//!
//! 1. [`lower::lower_function`] — IR → machine IR ([`mir`]) over
//!    unlimited virtual registers, one machine block per IR block;
//! 2. backend passes ([`opt`]) — instruction scheduling, machine
//!    sinking, shrink-wrapping, control-flow cleanup, cross-jumping,
//!    and block layout. Each is an independent toggle, mirroring gcc's
//!    RTL passes and LLVM's machine passes (the `*`-marked rows of the
//!    paper's Tables V and VI);
//! 3. [`regalloc`] — linear-scan allocation onto 6 allocatable
//!    registers with spill slots (optionally shared,
//!    `ira-share-spill-slots`), producing final linear code;
//! 4. [`emit`] — concatenation of the functions' code, address
//!    assignment, `.text` byte encoding, and debug section
//!    construction: the line-number table from per-instruction
//!    lines and the variable location lists from `dbg.value` pseudo
//!    instructions threaded through allocation.
//!
//! Steps 1–3 work one function at a time ([`compile_function`], whose
//! [`FunctionCode`] a compile session can reuse across builds); only
//! step 4 sees the whole module.
//!
//! The `.text` bytes ([`Object::text`]) are the artifact DebugTuner
//! compares to discard single-pass-disabled builds that did not change
//! the code (Section III-A of the paper).

pub mod emit;
pub mod lower;
pub mod mir;
pub mod object;
pub mod opt;
pub mod preg;
pub mod regalloc;

pub use emit::FunctionCode;
pub use mir::{MBlock, MDbgLoc, MFunction, MInst, MOpKind, MTerm, VR};
pub use object::{FDbgLoc, FInst, FOp, Fnv1a, FuncInfo, Object};
pub use preg::PReg;

use dt_ir::Module;

/// Backend configuration: which backend transformations run and with
/// what options. The pass-pipeline layer (`dt-passes`) fills this from
/// the optimization level and the pass gate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BackendConfig {
    /// Instruction scheduling within blocks (`schedule-insns2`).
    pub schedule: bool,
    /// Machine-level sinking (`Machine code sinking`).
    pub sink: bool,
    /// Shrink-wrapping of parameter setup (`shrink-wrap`).
    pub shrink_wrap: bool,
    /// Machine-level CFG cleanup (`Control Flow Optimizer`).
    pub cfg_cleanup: bool,
    /// Tail merging across predecessors (`crossjumping`).
    pub crossjump: bool,
    /// Profile/probability-driven block placement (`reorder-blocks`,
    /// `Branch Probability Basic Block Placement`).
    pub layout: bool,
    /// Share spill slots between disjoint live ranges
    /// (`ira-share-spill-slots`).
    pub share_spill_slots: bool,
    /// Reorder functions in the object (`toplevel-reorder`).
    pub toplevel_reorder: bool,
}

/// Runs the full backend over an IR module, one function at a time,
/// then assembles the object.
pub fn run_backend(module: &Module, config: &BackendConfig) -> Object {
    let code = backend_code(module, config);
    let code: Vec<&FunctionCode> = code.iter().collect();
    assemble_module(module, &code, config)
}

/// [`compile_function`] over every function of `module`, by function
/// id.
pub fn backend_code(module: &Module, config: &BackendConfig) -> Vec<FunctionCode> {
    let (globals, _) = lower::global_layout(module);
    module
        .funcs
        .iter()
        .map(|f| compile_function(f, module, &globals, config))
        .collect()
}

/// Assembles `module`'s object from its functions' code (by function
/// id), in the module's emission order and globals layout.
pub fn assemble_module(module: &Module, code: &[&FunctionCode], config: &BackendConfig) -> Object {
    let (globals, globals_size) = lower::global_layout(module);
    let order = module.order.iter().map(|id| id.0).collect();
    emit::assemble(code, order, globals, globals_size, config)
}

/// The backend for one function of `module`: lowering, the enabled
/// backend passes, and register allocation. `globals` is the module's
/// [`lower::global_layout`]. The result depends on the function, the
/// configuration, the globals layout and the callees' names, and on
/// nothing else.
pub fn compile_function(
    f: &dt_ir::Function,
    module: &Module,
    globals: &[(u32, u32, i64)],
    config: &BackendConfig,
) -> FunctionCode {
    let mut func = lower::lower_function(f, module, globals);
    optimize_function(&mut func, config);
    FunctionCode::allocate(&func, config.share_spill_slots)
}

/// The backend passes a [`BackendConfig`] toggle skips, in pipeline
/// order: whether the configuration enables each, and the pass.
type TogglePass = (fn(&BackendConfig) -> bool, fn(&mut MFunction));
const TOGGLE_PASSES: [TogglePass; 5] = [
    (|c| c.shrink_wrap, opt::shrinkwrap::run),
    (|c| c.sink, opt::msink::run),
    (|c| c.schedule, opt::msched::run),
    (|c| c.cfg_cleanup, opt::cfopt::run),
    (|c| c.crossjump, opt::crossjump::run),
];

/// Runs the enabled backend passes over one lowered function:
/// everything the backend does to it before register allocation.
pub fn optimize_function(func: &mut MFunction, config: &BackendConfig) {
    for (enabled, run) in TOGGLE_PASSES {
        if enabled(config) {
            run(func);
        }
    }
    opt::layout::run(func, config.layout);
}

/// What one function's backend build under a reference configuration
/// shows about the toggles that would not change its code, found by
/// running the alternatives on a copy and comparing machine IR.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendFacts {
    /// Bit `i`: the `i`-th toggled pass ran and left the machine IR
    /// unchanged.
    noop_passes: u8,
    /// Block layout under the other `layout` flag gives the same
    /// machine IR.
    layout_invariant: bool,
    /// Allocation spilled (the frame outgrew the user slots).
    spilled: bool,
}

impl BackendFacts {
    /// Whether [`compile_function`] under `variant` returns the code it
    /// returned under `reference`, the configuration these facts were
    /// recorded under. Holds when the two differ only in passes that
    /// ran as no-ops (skipping them leaves every later pass's input
    /// unchanged), a `layout` flag that gives the same machine IR,
    /// `share_spill_slots` on a function that spilled nothing (which
    /// intervals spill does not depend on it), and `toplevel_reorder`,
    /// which only assembly reads.
    pub fn same_code(&self, reference: &BackendConfig, variant: &BackendConfig) -> bool {
        // Naming every field makes a new toggle a compile error here.
        let BackendConfig {
            schedule: _,
            sink: _,
            shrink_wrap: _,
            cfg_cleanup: _,
            crossjump: _,
            layout,
            share_spill_slots,
            toplevel_reorder: _,
        } = *variant;
        let passes = TOGGLE_PASSES.iter().enumerate().all(|(i, (enabled, _))| {
            enabled(reference) == enabled(variant)
                || (!enabled(variant) && self.noop_passes & (1 << i) != 0)
        });
        passes
            && (layout == reference.layout || self.layout_invariant)
            && (share_spill_slots == reference.share_spill_slots || !self.spilled)
    }
}

/// [`compile_function`] plus the function's [`BackendFacts`] under
/// `config`. A compile session's reference build runs it once per
/// function; plain builds call [`compile_function`], which compares
/// nothing.
pub fn compile_function_with_facts(
    f: &dt_ir::Function,
    module: &Module,
    globals: &[(u32, u32, i64)],
    config: &BackendConfig,
) -> (FunctionCode, BackendFacts) {
    let mut func = lower::lower_function(f, module, globals);
    let mut facts = BackendFacts::default();
    for (i, (enabled, run)) in TOGGLE_PASSES.iter().enumerate() {
        if enabled(config) {
            let before = func.clone();
            run(&mut func);
            if func == before {
                facts.noop_passes |= 1 << i;
            }
        }
    }
    let mut flipped = func.clone();
    opt::layout::run(&mut flipped, !config.layout);
    opt::layout::run(&mut func, config.layout);
    facts.layout_invariant = flipped == func;
    let code = FunctionCode::allocate(&func, config.share_spill_slots);
    facts.spilled = code.frame_size > func.slot_sizes.iter().sum::<u32>();
    (code, facts)
}
