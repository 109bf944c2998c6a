//! MiniC: the C-like source language of the DebugTuner reproduction.
//!
//! MiniC is a deliberately small but realistic subset of C used as the
//! source language for every program the framework studies: the 13
//! real-world-shaped test-suite programs, the SPEC-like benchmark
//! kernels, and the Csmith-like synthetic population. It supports:
//!
//! * a single scalar type (`int`, 64-bit signed) and fixed-size arrays,
//! * global and local variables, lexical block scoping,
//! * functions with parameters and recursion,
//! * `if`/`else`, `while`, `do`/`while`, `for`, `break`, `continue`,
//! * short-circuit `&&`/`||` and the ternary operator,
//! * the full C arithmetic/bitwise/comparison operator set,
//! * the I/O builtins `in(i)` (read input byte `i`, `-1` past the end),
//!   `in_len()` (input length) and `out(v)` (append to output).
//!
//! Every AST node carries the source line it came from; this is the
//! ground truth against which debug-information quality is judged.
//!
//! The crate also provides the *static source analysis* of the paper's
//! hybrid measurement method ([`analysis`]): per-line sets of in-scope,
//! defined variables ("definition ranges"), used to correct the
//! DWARF-at-O0 over-approximation described in Section II of the paper.
//!
//! # Example
//!
//! ```
//! use dt_minic::{parse, analysis::SourceAnalysis};
//!
//! let src = r#"
//! int sum(int n) {
//!     int acc = 0;
//!     int i = 0;
//!     while (i < n) {
//!         acc = acc + i;
//!         i = i + 1;
//!     }
//!     return acc;
//! }
//! "#;
//! let program = parse(src).expect("parses");
//! let analysis = SourceAnalysis::of(&program);
//! // `acc` is in scope and defined on the line of `acc = acc + i;`
//! assert!(analysis.defined_at("sum", 6).any(|v| v == "acc"));
//! ```

pub mod analysis;
pub mod ast;
pub mod lexer;
pub mod parser;
pub mod token;
pub mod validate;

pub use ast::{BinOp, Expr, ExprKind, Function, Item, Program, Stmt, StmtKind, UnOp};
pub use lexer::{LexError, Lexer};
pub use parser::{parse, ParseError};
pub use validate::{validate, ValidateError};

/// Parses and validates a MiniC source, returning the program on success.
///
/// This is the entry point used throughout the workspace: parse errors
/// and semantic errors (use of undeclared variables, duplicate
/// declarations, arity mismatches, ...) are both reported.
pub fn compile_check(src: &str) -> Result<Program, String> {
    let program = parse(src).map_err(|e| e.to_string())?;
    validate(&program).map_err(|e| e.to_string())?;
    Ok(program)
}
