//! Instruction combining: constant folding, algebraic simplification,
//! and block-local copy propagation.
//!
//! Registered as clang's `InstCombine` and gcc's `tree-forwprop`. Every
//! simplification rewrites an instruction into a cheaper equivalent
//! (usually a `Copy`), leaving dead code for DCE. Debug values survive
//! unconditionally here — the loss shows up later when DCE erases the
//! leftovers; that indirection matches how these passes interact in
//! real compilers.

use crate::manager::{ModuleFacts, PassConfig};
use dt_ir::{BinOp, Function, Op, UnOp, VReg, Value};

/// Runs combining over every function to a local fixpoint.
pub fn run(f: &mut Function, _facts: &ModuleFacts, _config: &PassConfig) -> bool {
    // Two rounds: copy-prop feeds folding and vice versa.
    let first = combine_function(f);
    combine_function(f) | first
}

/// A block-local fact: the register equals `value` while the walk is
/// in `block` and, when `value` is a register, while that register has
/// `version` definitions.
#[derive(Clone, Copy)]
struct Known {
    block: usize,
    value: Value,
    version: u32,
}

fn combine_function(f: &mut Function) -> bool {
    let mut changed = false;
    let n = f.vreg_count as usize;
    // Per register: its definitions walked so far, and what it is known
    // to equal. A fact goes stale when its block ends or its source is
    // redefined, so nothing is ever removed.
    let mut defs = vec![0u32; n];
    let mut known: Vec<Option<Known>> = vec![None; n];
    for (bi, block) in f.blocks.iter_mut().enumerate() {
        if block.dead {
            continue;
        }
        let lookup = |known: &[Option<Known>], defs: &[u32], r: VReg| {
            let k = known[r.index()].filter(|k| k.block == bi)?;
            match k.value {
                Value::Reg(src) if defs[src.index()] != k.version => None,
                value => Some(value),
            }
        };

        for inst in &mut block.insts {
            // Propagate known values into operands. Debug bindings are
            // only rewritten toward *constants*: redirecting a binding
            // from a variable's long-lived register to the short-lived
            // temporary it was copied from would shrink the variable's
            // location range for no codegen benefit — compilers leave
            // debug uses on the canonical value.
            let is_dbg = inst.op.is_dbg();
            inst.op.for_each_use_mut(|v| {
                if let Value::Reg(r) = v {
                    if let Some(k) = lookup(&known, &defs, *r) {
                        if !is_dbg || matches!(k, Value::Const(_)) {
                            *v = k;
                            changed = true;
                        }
                    }
                }
            });

            // Simplify the operation.
            if let Some(new_op) = simplify(&inst.op) {
                inst.op = new_op;
                changed = true;
            }

            // Update the value map.
            if let Some(d) = inst.op.def() {
                defs[d.index()] += 1;
                known[d.index()] = match inst.op {
                    Op::Copy { src, .. } if src != Value::Reg(d) => Some(Known {
                        block: bi,
                        value: src,
                        version: src.as_reg().map_or(0, |s| defs[s.index()]),
                    }),
                    _ => None,
                };
            }
        }

        // Fold the terminator's condition if known.
        block.term.for_each_use_mut(|v| {
            if let Value::Reg(r) = v {
                if let Some(k) = lookup(&known, &defs, *r) {
                    *v = k;
                    changed = true;
                }
            }
        });
    }
    changed
}

/// Returns the simplified form of `op`, if any.
fn simplify(op: &Op) -> Option<Op> {
    // Full constant folding first.
    if !matches!(
        op,
        Op::Copy {
            src: Value::Const(_),
            ..
        }
    ) {
        if let Some(c) = op.fold_constant() {
            let dst = op.def()?;
            return Some(Op::Copy {
                dst,
                src: Value::Const(c),
            });
        }
    }
    match *op {
        Op::Bin { dst, op, lhs, rhs } => simplify_bin(dst, op, lhs, rhs),
        Op::Un {
            dst,
            op: UnOp::Neg,
            src: Value::Const(c),
        } => Some(Op::Copy {
            dst,
            src: Value::Const(c.wrapping_neg()),
        }),
        Op::Select {
            dst,
            cond: _,
            on_true,
            on_false,
        } if on_true == on_false => Some(Op::Copy { dst, src: on_true }),
        _ => None,
    }
}

fn simplify_bin(dst: VReg, op: BinOp, lhs: Value, rhs: Value) -> Option<Op> {
    use BinOp::*;
    let copy = |src: Value| Some(Op::Copy { dst, src });
    // Canonicalize constants to the right for commutative operators.
    let (lhs, rhs) = match (op.is_commutative(), lhs, rhs) {
        (true, Value::Const(c), r @ Value::Reg(_)) => (r, Value::Const(c)),
        _ => (lhs, rhs),
    };
    match (op, lhs, rhs) {
        // Identity elements.
        (Add | Sub | Or | Xor | Shl | Shr, x, Value::Const(0)) => copy(x),
        (Mul | Div, x, Value::Const(1)) => copy(x),
        (Mul | And, _, Value::Const(0)) => copy(Value::Const(0)),
        (And, x, Value::Const(-1)) => copy(x),
        // x - x = 0, x ^ x = 0.
        (Sub | Xor, Value::Reg(a), Value::Reg(b)) if a == b => copy(Value::Const(0)),
        // x & x = x, x | x = x.
        (And | Or, Value::Reg(a), Value::Reg(b)) if a == b => copy(Value::Reg(a)),
        // Strength reduction: multiply by power of two becomes a shift.
        (Mul, x @ Value::Reg(_), Value::Const(c)) if c > 1 && (c & (c - 1)) == 0 => Some(Op::Bin {
            dst,
            op: Shl,
            lhs: x,
            rhs: Value::Const(c.trailing_zeros() as i64),
        }),
        // Comparisons of a register with itself.
        (Eq | Le | Ge, Value::Reg(a), Value::Reg(b)) if a == b => copy(Value::Const(1)),
        (Ne | Lt | Gt, Value::Reg(a), Value::Reg(b)) if a == b => copy(Value::Const(0)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::run_whole_module;
    use dt_ir::Module;
    use dt_ir::Terminator;

    /// A copy propagates into later uses until its source is
    /// redefined: `%2 = %0` makes `%2 - %1` read `%0`, but after
    /// `%0 = %1 * %1` a use of `%2` stays `%2`.
    #[test]
    fn a_copy_whose_source_is_redefined_stops_propagating() {
        use dt_ir::module::FuncAttrs;
        use dt_ir::{Block, BlockId, FuncId, Inst};
        let reg = |r| Value::Reg(VReg(r));
        let bin = |dst, op, lhs, rhs| Op::Bin {
            dst: VReg(dst),
            op,
            lhs: reg(lhs),
            rhs: reg(rhs),
        };
        let mut b0 = Block::new(Terminator::Ret(Some(reg(4))));
        b0.insts = [
            Op::Copy {
                dst: VReg(2),
                src: reg(0),
            },
            bin(3, BinOp::Sub, 2, 1),
            bin(0, BinOp::Mul, 1, 1),
            bin(4, BinOp::Add, 2, 1),
        ]
        .into_iter()
        .map(Inst::synth)
        .collect();
        let mut f = Function {
            name: "f".into(),
            id: FuncId(0),
            params: vec![VReg(0), VReg(1)],
            blocks: vec![b0],
            entry: BlockId(0),
            vreg_count: 5,
            vars: vec![],
            slots: vec![],
            line: 1,
            end_line: 1,
            attrs: FuncAttrs::default(),
        };
        assert!(combine_function(&mut f));
        let ops: Vec<&Op> = f.blocks[0].insts.iter().map(|i| &i.op).collect();
        assert_eq!(ops[1], &bin(3, BinOp::Sub, 0, 1), "propagated");
        assert_eq!(ops[3], &bin(4, BinOp::Add, 2, 1), "not propagated");
    }

    fn optimized(src: &str) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        run_whole_module(&crate::opt::mem2reg::run, &mut m, &PassConfig::default());
        run_whole_module(&run, &mut m, &PassConfig::default());
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn behaves_like(src: &str, entry: &str, args: &[i64], expected: i64) {
        let m = optimized(src);
        let obj = dt_machine::run_backend(&m, &dt_machine::BackendConfig::default());
        let r = dt_vm::Vm::run_to_completion(&obj, entry, args, &[], dt_vm::VmConfig::default())
            .unwrap();
        assert_eq!(r.ret, expected);
    }

    #[test]
    fn folds_constant_expressions() {
        let m = optimized("int f() { int x = 2 + 3 * 4; return x; }");
        // Some instruction must now be a plain constant 14.
        let has_const = m.funcs[0].blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i.op,
                Op::Copy {
                    src: Value::Const(14),
                    ..
                }
            )
        });
        assert!(has_const);
        behaves_like("int f() { int x = 2 + 3 * 4; return x; }", "f", &[], 14);
    }

    #[test]
    fn propagates_copies_into_terminators() {
        let m = optimized("int f() { int t = 1; if (t) { return 5; } return 6; }");
        // The branch condition must have been folded to a constant.
        let const_branch = m.funcs[0].blocks.iter().any(|b| {
            matches!(
                b.term,
                Terminator::Branch {
                    cond: Value::Const(_),
                    ..
                }
            )
        });
        assert!(const_branch);
        behaves_like(
            "int f() { int t = 1; if (t) { return 5; } return 6; }",
            "f",
            &[],
            5,
        );
    }

    #[test]
    fn algebraic_identities() {
        behaves_like("int f(int x) { return x + 0; }", "f", &[9], 9);
        behaves_like("int f(int x) { return x * 1; }", "f", &[9], 9);
        behaves_like("int f(int x) { return x - x; }", "f", &[9], 0);
        behaves_like("int f(int x) { return (x & x) | 0; }", "f", &[12], 12);
    }

    #[test]
    fn multiply_becomes_shift() {
        let m = optimized("int f(int x) { return x * 8; }");
        let has_shift = m.funcs[0].blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i.op,
                Op::Bin {
                    op: BinOp::Shl,
                    rhs: Value::Const(3),
                    ..
                }
            )
        });
        assert!(has_shift);
        behaves_like("int f(int x) { return x * 8; }", "f", &[5], 40);
    }

    #[test]
    fn division_semantics_preserved() {
        behaves_like("int f(int x) { return x / 0; }", "f", &[5], 0);
        behaves_like("int f() { return 7 / 2 + 7 % 2; }", "f", &[], 4);
    }

    #[test]
    fn dbg_values_follow_copies() {
        let m = optimized("int f() { int x = 41 + 1; out(x); return x; }");
        // x's dbg.value should now reference the folded constant.
        let dbg_const = m.funcs[0].blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i.op,
                Op::DbgValue {
                    loc: dt_ir::DbgLoc::Value(Value::Const(42)),
                    ..
                }
            )
        });
        assert!(dbg_const, "copy propagation must update debug bindings");
    }

    #[test]
    fn no_change_reports_false() {
        let src = "int f(int a, int b) { return a ^ b; }";
        let mut m = dt_frontend::lower_source(src).unwrap();
        run_whole_module(&crate::opt::mem2reg::run, &mut m, &PassConfig::default());
        run_whole_module(&run, &mut m, &PassConfig::default());
        // A second run over already-canonical code changes nothing.
        let before = m.clone();
        run_whole_module(&run, &mut m, &PassConfig::default());
        assert_eq!(before, m);
    }
}
