//! Copy coalescing: gcc's `tree-ter` (temporary expression
//! replacement) and `tree-coalesce-vars`.
//!
//! Collapses the `t = <expr>; x = t` pairs that promotion and
//! expression lowering produce into `x = <expr>`, eliminating the
//! copy. The two gcc flags map to two aggressiveness settings:
//!
//! * **ter** — only coalesces when the destination is not referenced
//!   by a debug binding *between the expression and the copy* (i.e. it
//!   protects observable variable values);
//! * **coalesce-vars** — always coalesces. The destination register
//!   now gets clobbered *earlier* than the source program says, so the
//!   variable's previous value disappears sooner: the location-list
//!   range closes at the hoisted definition. That mechanical
//!   consequence is the pass's measured debug cost at Og.

use crate::manager::{ModuleFacts, PassConfig};
use dt_ir::{Function, Op, Value};

/// Conservative mode (`tree-ter`).
pub fn run_ter(f: &mut Function, _facts: &ModuleFacts, _config: &PassConfig) -> bool {
    coalesce_function(f, false)
}

/// Aggressive mode (`tree-coalesce-vars`).
pub fn run_coalesce(f: &mut Function, _facts: &ModuleFacts, _config: &PassConfig) -> bool {
    coalesce_function(f, true)
}

fn coalesce_function(f: &mut Function, aggressive: bool) -> bool {
    let uses = crate::opt::util::use_counts(f);
    let defs = crate::opt::util::def_counts(f);
    let mut changed = false;

    for bi in 0..f.blocks.len() {
        if f.blocks[bi].dead {
            continue;
        }
        let mut i = 0;
        while i < f.blocks[bi].insts.len() {
            // Looking at a copy `x = t`?
            let Op::Copy {
                dst,
                src: Value::Reg(src),
            } = f.blocks[bi].insts[i].op
            else {
                i += 1;
                continue;
            };
            if dst == src {
                f.blocks[bi].insts.remove(i);
                changed = true;
                continue;
            }
            // `t` must be a single-def, single-use temporary whose
            // definition sits earlier in this block.
            if defs.get(src.index()) != Some(&1) || uses.get(src.index()) != Some(&1) {
                i += 1;
                continue;
            }
            let Some(def_pos) = f.blocks[bi].insts[..i]
                .iter()
                .rposition(|x| x.op.def() == Some(src))
            else {
                i += 1;
                continue;
            };
            // Between the def and the copy, `x` must be neither read
            // nor written (rewriting the def to write `x` moves the
            // clobber up to def_pos).
            let mut conflict = false;
            let mut dbg_reads_dst = false;
            for inst in &f.blocks[bi].insts[def_pos + 1..i] {
                if inst.op.is_dbg() {
                    if let Op::DbgValue {
                        loc: dt_ir::DbgLoc::Value(Value::Reg(r)),
                        ..
                    } = inst.op
                    {
                        dbg_reads_dst |= r == dst;
                    }
                    continue;
                }
                inst.op.for_each_use(|v| conflict |= v == Value::Reg(dst));
                if inst.op.def() == Some(dst) {
                    conflict = true;
                }
            }
            if conflict || (!aggressive && dbg_reads_dst) {
                i += 1;
                continue;
            }
            // Rewrite: def writes x directly; drop the copy. Debug
            // pseudos that referenced t keep working (t == x now), so
            // redirect them — both between def and copy, and *after*
            // the copy until either register is redefined.
            f.blocks[bi].insts[def_pos].op.set_def(dst);
            for inst in &mut f.blocks[bi].insts[def_pos + 1..i] {
                if let Op::DbgValue { loc, .. } = &mut inst.op {
                    if *loc == dt_ir::DbgLoc::Value(Value::Reg(src)) {
                        *loc = dt_ir::DbgLoc::Value(Value::Reg(dst));
                    }
                }
            }
            for inst in &mut f.blocks[bi].insts[i + 1..] {
                if let Op::DbgValue { loc, .. } = &mut inst.op {
                    if *loc == dt_ir::DbgLoc::Value(Value::Reg(src)) {
                        *loc = dt_ir::DbgLoc::Value(Value::Reg(dst));
                    }
                    continue;
                }
                let d = inst.op.def();
                if d == Some(src) || d == Some(dst) {
                    break;
                }
            }
            f.blocks[bi].insts.remove(i);
            changed = true;
            // Do not advance: the next instruction shifted into `i`.
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::run_whole_module;
    use crate::manager::PassConfig;
    use dt_ir::Module;

    fn pipeline(src: &str, aggressive: bool) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        let cfg = PassConfig::default();
        run_whole_module(&crate::opt::mem2reg::run, &mut m, &cfg);
        run_whole_module(&crate::opt::instcombine::run, &mut m, &cfg);
        run_whole_module(&crate::opt::dce::run, &mut m, &cfg);
        if aggressive {
            run_whole_module(&run_coalesce, &mut m, &cfg);
        } else {
            run_whole_module(&run_ter, &mut m, &cfg);
        }
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn copies(m: &Module) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.insts.iter())
            .filter(|i| {
                matches!(
                    i.op,
                    Op::Copy {
                        src: Value::Reg(_),
                        ..
                    }
                )
            })
            .count()
    }

    fn check(m: &Module, args: &[i64], expected: i64) {
        let obj = dt_machine::run_backend(m, &dt_machine::BackendConfig::default());
        let r =
            dt_vm::Vm::run_to_completion(&obj, "f", args, &[], dt_vm::VmConfig::default()).unwrap();
        assert_eq!(r.ret, expected);
    }

    #[test]
    fn expression_copies_collapse() {
        let src = "int f(int a) { int x = a * 3 + 1; return x; }";
        let m = pipeline(src, true);
        assert_eq!(copies(&m), 0, "temp-to-variable copies must be gone");
        check(&m, &[5], 16);
    }

    #[test]
    fn canonicalizes_induction_increments() {
        let src = "int f(int n) { int i = 0; while (i < n) { i = i + 1; } return i; }";
        let m = pipeline(src, true);
        // The increment must now be a direct `i = i + 1`.
        let canonical = m.funcs[0].blocks.iter().flat_map(|b| &b.insts).any(|inst| {
            matches!(
                inst.op,
                Op::Bin {
                    dst,
                    op: dt_ir::BinOp::Add,
                    lhs: Value::Reg(src),
                    rhs: Value::Const(1),
                } if dst == src
            )
        });
        assert!(canonical, "increment should write the variable directly");
        check(&m, &[7], 7);
    }

    #[test]
    fn ter_protects_debug_bindings() {
        // A dbg.value of x between t's def and the copy blocks ter but
        // not coalesce-vars. Construct the shape directly.
        use dt_ir::{DbgLoc, FunctionBuilder, Inst, VReg, VarInfo};
        let build = || {
            let mut b = FunctionBuilder::new("f", 1, 1);
            let var = b.var(VarInfo {
                name: "x".into(),
                is_param: false,
                is_array: false,
                decl_line: 2,
            });
            // %1 = %0 + 1  (t)
            let t = b.bin(dt_ir::BinOp::Add, Value::Reg(VReg(0)), Value::Const(1), 2);
            // x's old value is observed between def and copy.
            b.dbg_value(var, DbgLoc::Value(Value::Reg(VReg(0))), 2);
            // %0 = %1 — wait, copy must write a distinct vreg; make x=%2.
            let x = b.vreg();
            b.push(Inst::new(
                Op::Copy {
                    dst: x,
                    src: Value::Reg(t),
                },
                3,
            ));
            b.ret(Some(Value::Reg(x)), 4);
            let f = b.finish(5);
            let mut m = Module::new();
            m.add_function(f);
            m
        };
        // dbg binding references x? In this shape it references %0, so
        // both modes coalesce. Rebuild with a dbg of x itself:
        let mut m1 = build();
        let mut m2 = build();
        // Patch the dbg to reference the copy destination (%2).
        for m in [&mut m1, &mut m2] {
            for blk in &mut m.func_mut(dt_ir::FuncId(0)).blocks {
                for inst in &mut blk.insts {
                    if let Op::DbgValue { loc, .. } = &mut inst.op {
                        *loc = DbgLoc::Value(Value::Reg(VReg(2)));
                    }
                }
            }
        }
        run_whole_module(&run_ter, &mut m1, &PassConfig::default());
        run_whole_module(&run_coalesce, &mut m2, &PassConfig::default());
        let copies1 = m1.funcs[0].blocks[0]
            .insts
            .iter()
            .filter(|i| {
                matches!(
                    i.op,
                    Op::Copy {
                        src: Value::Reg(_),
                        ..
                    }
                )
            })
            .count();
        let copies2 = m2.funcs[0].blocks[0]
            .insts
            .iter()
            .filter(|i| {
                matches!(
                    i.op,
                    Op::Copy {
                        src: Value::Reg(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(copies1, 1, "ter must protect the observed binding");
        assert_eq!(copies2, 0, "coalesce-vars sacrifices it");
    }

    #[test]
    fn semantics_preserved_in_loops() {
        let src =
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s = s + i * i; } return s; }";
        let m = pipeline(src, true);
        check(&m, &[5], 30);
    }
}
