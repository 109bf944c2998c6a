//! MiniC AST → IR lowering.
//!
//! The frontend produces *O0-shaped* IR, matching what a C compiler
//! emits before any optimization:
//!
//! * every scalar local and parameter gets a dedicated stack-slot home;
//!   assignments store to the slot and uses load from it;
//! * one [`dt_ir::Op::DbgValue`] with a [`dt_ir::DbgLoc::Slot`]
//!   location is emitted at each declaration, which the backend turns
//!   into a whole-function location range — exactly the O0 DWARF
//!   over-approximation (variables visible outside their source live
//!   range) that the paper's hybrid measurement method corrects;
//! * every instruction carries the source line of the construct it
//!   implements, seeding the line-number table.
//!
//! The `mem2reg` pass (in `dt-passes`) later promotes the scalar slots
//! to virtual registers and rewrites the debug intrinsics to
//! per-assignment `dbg.value`s, switching the function to the optimized
//! debug-info regime the rest of the pipeline degrades.

mod lower;

pub use lower::{lower_program, LowerError};

use dt_ir::Module;
use dt_minic::Program;

/// Parses, validates, and lowers MiniC source text in one step.
///
/// # Example
///
/// ```
/// let module = dt_frontend::lower_source("int f(int x) { return x + 1; }").unwrap();
/// assert_eq!(module.funcs.len(), 1);
/// assert_eq!(module.funcs[0].name, "f");
/// ```
pub fn lower_source(src: &str) -> Result<Module, String> {
    let program: Program = dt_minic::compile_check(src)?;
    lower_program(&program).map_err(|e| e.to_string())
}
