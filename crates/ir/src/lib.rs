//! Three-address intermediate representation for the DebugTuner compiler.
//!
//! The IR is a conventional CFG-of-basic-blocks representation over
//! unlimited virtual registers (non-SSA: a register may be redefined,
//! which keeps the pass implementations honest about dataflow). Two
//! features make it suitable for studying debug-information loss:
//!
//! * every instruction carries the source line it derives from
//!   (`0` = "no line", the IR analogue of DWARF's line-0 convention);
//! * **debug value intrinsics** ([`Op::DbgValue`]) bind a source
//!   variable to a machine value at a program point, exactly like
//!   `llvm.dbg.value`. Optimization passes must maintain them; the
//!   policy they use (salvage vs. drop) is where the gcc/clang
//!   personalities of the paper differ.
//!
//! Memory is modelled with named *slots* (stack locations for locals
//! and spills) and *globals*; scalar locals start life in slots (the
//! C-at-O0 model) and are promoted to registers by the `mem2reg` pass.
//!
//! Analyses provided: predecessor/successor maps, reverse postorder,
//! dominator tree, natural-loop detection, per-block register liveness,
//! and a structural verifier used in tests and between passes.

pub mod builder;
pub mod cfg;
pub mod dom;
pub mod inst;
pub mod liveness;
pub mod loops;
pub mod module;
pub mod profile;
pub mod verify;

pub use builder::FunctionBuilder;
pub use cfg::{
    postorder, predecessors, reachable_blocks, reachable_mask, remove_unreachable,
    reverse_postorder,
};
pub use dom::DomTree;
pub use inst::{BinOp, DbgLoc, Inst, MemEffect, Op, Terminator, UnOp, Value};
pub use liveness::Liveness;
pub use loops::{Loop, LoopForest};
pub use module::{
    Block, BlockId, FuncId, Function, GlobalId, GlobalInfo, Module, SlotId, SlotInfo, VReg, VarId,
    VarInfo,
};
pub use profile::Profile;
pub use verify::{verify_function, verify_module, VerifyError};
