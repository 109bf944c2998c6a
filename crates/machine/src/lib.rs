//! VISA: the virtual instruction set, machine IR, register allocation,
//! backend transformations, and object-file emission.
//!
//! The backend pipeline is:
//!
//! 1. [`lower::lower_module`] — IR → machine IR ([`mir`]) over
//!    unlimited virtual registers, one machine block per IR block;
//! 2. backend passes ([`opt`]) — instruction scheduling, machine
//!    sinking, shrink-wrapping, control-flow cleanup, cross-jumping,
//!    and block layout. Each is an independent toggle, mirroring gcc's
//!    RTL passes and LLVM's machine passes (the `*`-marked rows of the
//!    paper's Tables V and VI);
//! 3. [`regalloc`] — linear-scan allocation onto 6 allocatable
//!    registers with spill slots (optionally shared,
//!    `ira-share-spill-slots`), producing final linear code;
//! 4. [`emit`] — address assignment, `.text` byte encoding, and debug
//!    section construction: the line-number table from per-instruction
//!    lines and the variable location lists from `dbg.value` pseudo
//!    instructions threaded through allocation.
//!
//! The `.text` bytes are the artifact DebugTuner compares to discard
//! single-pass-disabled builds that did not change the code
//! (Section III-A of the paper).

pub mod emit;
pub mod lower;
pub mod mir;
pub mod object;
pub mod opt;
pub mod preg;
pub mod regalloc;

pub use emit::emit_module;
pub use lower::lower_module;
pub use mir::{MBlock, MDbgLoc, MFunction, MInst, MModule, MOpKind, MTerm, VR};
pub use object::{FDbgLoc, FInst, FOp, Fnv1a, FuncInfo, Object};
pub use preg::PReg;

use dt_ir::Module;

/// Backend configuration: which backend transformations run and with
/// what options. The pass-pipeline layer (`dt-passes`) fills this from
/// the optimization level and the pass gate.
#[derive(Debug, Clone, Default)]
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

/// Runs the full backend over an IR module.
pub fn run_backend(module: &Module, config: &BackendConfig) -> Object {
    let mut mmod = lower_module(module);
    for func in &mut mmod.funcs {
        if config.shrink_wrap {
            opt::shrinkwrap::run(func);
        }
        if config.sink {
            opt::msink::run(func);
        }
        if config.schedule {
            opt::msched::run(func);
        }
        if config.cfg_cleanup {
            opt::cfopt::run(func);
        }
        if config.crossjump {
            opt::crossjump::run(func);
        }
        opt::layout::run(func, config.layout);
    }
    if config.toplevel_reorder {
        opt::reorder_functions(&mut mmod);
    }
    emit_module(&mmod, config)
}
