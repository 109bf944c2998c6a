//! Block-local common-subexpression and redundant-load elimination.
//!
//! Registered as clang's `EarlyCSE` and gcc's `tree-fre` (full
//! redundancy elimination, block-scoped here; the dominator-scoped
//! variant is [`crate::opt::gvn`]). A redundant computation becomes a
//! `Copy` of the earlier result; the copy is later propagated and
//! DCE'd, at which point the duplicated expression's line disappears —
//! the two-step dance real compilers perform.

use crate::manager::{ModuleFacts, PassConfig};
use crate::opt::util::key_operands;
use dt_ir::{Function, MemEffect, Op, UnOp, VReg, Value};
use std::collections::HashMap;

/// Hashable key for a pure expression or a memory read.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    Un(UnOp, Value),
    Bin(dt_ir::BinOp, Value, Value),
    Select(Value, Value, Value),
    LoadSlot(u32),
    LoadIdx(u32, Value),
    LoadGlobal(u32),
    LoadGIdx(u32, Value),
    /// Call to a pure-const function.
    PureCall(u32, Vec<Value>),
}

impl ExprKey {
    /// Whether the expression reads register `r`.
    fn reads(&self, r: VReg) -> bool {
        let r = Value::Reg(r);
        match self {
            ExprKey::Un(_, a) | ExprKey::LoadIdx(_, a) | ExprKey::LoadGIdx(_, a) => *a == r,
            ExprKey::Bin(_, a, b) => *a == r || *b == r,
            ExprKey::Select(a, b, c) => *a == r || *b == r || *c == r,
            ExprKey::PureCall(_, args) => args.contains(&r),
            ExprKey::LoadSlot(_) | ExprKey::LoadGlobal(_) => false,
        }
    }

    fn is_load(&self) -> bool {
        matches!(
            self,
            ExprKey::LoadSlot(_)
                | ExprKey::LoadIdx(..)
                | ExprKey::LoadGlobal(_)
                | ExprKey::LoadGIdx(..)
        )
    }
}

fn key_of(op: &Op, pure_funcs: &[bool]) -> Option<ExprKey> {
    Some(match op {
        Op::Un { op, src, .. } => ExprKey::Un(*op, *src),
        Op::Bin { op, lhs, rhs, .. } => {
            let (a, b) = key_operands(*op, *lhs, *rhs);
            ExprKey::Bin(*op, a, b)
        }
        Op::Select {
            cond,
            on_true,
            on_false,
            ..
        } => ExprKey::Select(*cond, *on_true, *on_false),
        Op::LoadSlot { slot, .. } => ExprKey::LoadSlot(slot.0),
        Op::LoadIdx { slot, index, .. } => ExprKey::LoadIdx(slot.0, *index),
        Op::LoadGlobal { global, .. } => ExprKey::LoadGlobal(global.0),
        Op::LoadGIdx { global, index, .. } => ExprKey::LoadGIdx(global.0, *index),
        Op::Call { callee, args, .. } if pure_funcs.get(callee.index()) == Some(&true) => {
            ExprKey::PureCall(callee.0, args.clone())
        }
        _ => return None,
    })
}

/// Runs block-local CSE over every function.
pub fn run(f: &mut Function, facts: &ModuleFacts, _config: &PassConfig) -> bool {
    cse_function(f, &facts.pure_const)
}

fn cse_function(f: &mut Function, pure_funcs: &[bool]) -> bool {
    let mut changed = false;
    for bi in 0..f.blocks.len() {
        if f.blocks[bi].dead {
            continue;
        }
        let mut avail: HashMap<ExprKey, VReg> = HashMap::new();
        for inst in &mut f.blocks[bi].insts {
            if inst.op.is_dbg() {
                continue;
            }
            // Kill memory-dependent entries on writes/calls/I-O.
            match inst.op.mem_effect() {
                MemEffect::WriteSlot(s) => {
                    avail.retain(|k, _| !matches!(k, ExprKey::LoadSlot(x) | ExprKey::LoadIdx(x, _) if *x == s.0));
                }
                MemEffect::WriteGlobal(g) => {
                    avail.retain(|k, _| !matches!(k, ExprKey::LoadGlobal(x) | ExprKey::LoadGIdx(x, _) if *x == g.0));
                }
                MemEffect::Call(callee) => {
                    if pure_funcs.get(callee.index()) != Some(&true) {
                        avail.retain(|k, _| !k.is_load() && !matches!(k, ExprKey::PureCall(..)));
                    }
                }
                MemEffect::Io
                | MemEffect::None
                | MemEffect::ReadSlot(_)
                | MemEffect::ReadGlobal(_) => {}
            }

            let Some(dst) = inst.op.def() else {
                continue;
            };
            let mut key = key_of(&inst.op, pure_funcs);
            if let Some(&prior) = key.as_ref().and_then(|k| avail.get(k)) {
                if prior != dst {
                    inst.op = Op::Copy {
                        dst,
                        src: Value::Reg(prior),
                    };
                    changed = true;
                    // A copy is no expression to record.
                    key = None;
                }
            }
            // A redefined register invalidates every entry mentioning it.
            avail.retain(|k, v| *v != dst && !k.reads(dst));
            // Record the new expression (after invalidation), unless it
            // read the old `dst`: after `v = v + 1`, `v` no longer holds
            // the value of `v + 1`.
            if let Some(key) = key.filter(|k| !k.reads(dst)) {
                avail.insert(key, dst);
            }
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

    fn pipeline(src: &str) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        let cfg = PassConfig::default();
        run_whole_module(&crate::opt::mem2reg::run, &mut m, &cfg);
        crate::opt::ipa_pure_const::run(&mut m, &cfg);
        run_whole_module(&crate::opt::instcombine::run, &mut m, &cfg);
        run_whole_module(&run, &mut m, &cfg);
        run_whole_module(&crate::opt::instcombine::run, &mut m, &cfg);
        run_whole_module(&crate::opt::dce::run, &mut m, &cfg);
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn count_binops(m: &Module, op: dt_ir::BinOp) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.insts.iter())
            .filter(|i| matches!(&i.op, Op::Bin { op: o, .. } if *o == op))
            .count()
    }

    fn check(src: &str, entry: &str, args: &[i64], expected: i64) -> Module {
        let m = pipeline(src);
        let obj = dt_machine::run_backend(&m, &dt_machine::BackendConfig::default());
        let r = dt_vm::Vm::run_to_completion(&obj, entry, args, &[], dt_vm::VmConfig::default())
            .unwrap();
        assert_eq!(r.ret, expected);
        m
    }

    #[test]
    fn duplicate_expression_computed_once() {
        let m = check(
            "int f(int a, int b) { int x = a * b; int y = a * b; return x + y; }",
            "f",
            &[6, 7],
            84,
        );
        assert_eq!(count_binops(&m, dt_ir::BinOp::Mul), 1);
    }

    #[test]
    fn commutative_operands_match() {
        let m = check(
            "int f(int a, int b) { return a * b + b * a; }",
            "f",
            &[3, 5],
            30,
        );
        assert_eq!(count_binops(&m, dt_ir::BinOp::Mul), 1);
    }

    #[test]
    fn redundant_global_loads_merge() {
        let m = check(
            "int g = 5;\nint f() { int a = g; int b = g; return a + b; }",
            "f",
            &[],
            10,
        );
        let loads = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i.op, Op::LoadGlobal { .. }))
            .count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn stores_kill_load_availability() {
        check(
            "int g = 5;\nint f() { int a = g; g = 9; int b = g; return a * 100 + b; }",
            "f",
            &[],
            509,
        );
    }

    #[test]
    fn impure_calls_kill_loads() {
        check(
            "int g = 1;\nint bump() { g = g + 1; return 0; }\n\
             int f() { int a = g; bump(); int b = g; return a * 10 + b; }",
            "f",
            &[],
            12,
        );
    }

    #[test]
    fn pure_calls_are_merged() {
        let m = check(
            "int sq(int x) { return x * x; }\n\
             int f(int a) { return sq(a) + sq(a); }",
            "f",
            &[5],
            50,
        );
        let calls = m
            .func_by_name("f")
            .unwrap()
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i.op, Op::Call { .. }))
            .count();
        assert_eq!(calls, 1, "second call to a pure function is CSE'd");
    }

    #[test]
    fn an_expression_reading_its_destination_is_not_recorded() {
        use dt_ir::module::FuncAttrs;
        use dt_ir::{BinOp, Block, BlockId, FuncId, Inst, Terminator};
        let add_one = |dst: u32, src: u32| {
            Inst::synth(Op::Bin {
                dst: VReg(dst),
                op: BinOp::Add,
                lhs: Value::Reg(VReg(src)),
                rhs: Value::Const(1),
            })
        };
        // %0 = 3; %1 = %0; %1 = %1 + 1; %2 = %1 + 1; ret %2
        let mut b0 = Block::new(Terminator::Ret(Some(Value::Reg(VReg(2)))));
        b0.insts = vec![
            Inst::synth(Op::Copy {
                dst: VReg(0),
                src: Value::Const(3),
            }),
            Inst::synth(Op::Copy {
                dst: VReg(1),
                src: Value::Reg(VReg(0)),
            }),
            add_one(1, 1),
            add_one(2, 1),
        ];
        let mut f = Function {
            name: "f".into(),
            id: FuncId(0),
            params: vec![],
            blocks: vec![b0],
            entry: BlockId(0),
            vreg_count: 3,
            vars: vec![],
            slots: vec![],
            line: 1,
            end_line: 1,
            attrs: FuncAttrs::default(),
        };
        let before = f.blocks[0].insts.clone();
        assert!(!cse_function(&mut f, &[]), "nothing is redundant");
        assert_eq!(f.blocks[0].insts, before, "`%2 = %1 + 1` is no copy of %1");
    }

    #[test]
    fn redefinition_invalidates_expressions() {
        check(
            "int f(int a) { int x = a + 1; a = 10; int y = a + 1; return x * 100 + y; }",
            "f",
            &[2],
            311,
        );
    }
}
