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

/// A register operand read at one version: the register's number of
/// definitions walked so far (constants are version 0). Redefining a
/// register makes every key that read its old value unmatchable.
type Operand = (Value, u32);

/// The version of the memory a load reads: the stores to its slot or
/// global walked so far, and the non-pure calls walked so far.
type MemVersion = (u32, u32);

/// Hashable key for a pure expression or a memory read, at the
/// versions of what it reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    Un(UnOp, Operand),
    Bin(dt_ir::BinOp, Operand, Operand),
    Select(Operand, Operand, Operand),
    LoadSlot(u32, MemVersion),
    LoadIdx(u32, Operand, MemVersion),
    LoadGlobal(u32, MemVersion),
    LoadGIdx(u32, Operand, MemVersion),
    /// Call to a pure-const function, at the non-pure-call count.
    PureCall(u32, Vec<Operand>, u32),
}

/// The running versions of one function walk. They only grow, so a
/// key or entry recorded before a redefinition, store or call never
/// matches again and nothing has to be removed.
struct Versions {
    defs: Vec<u32>,
    slots: Vec<u32>,
    globals: Vec<u32>,
    calls: u32,
}

impl Versions {
    fn operand(&self, v: Value) -> Operand {
        match v {
            Value::Reg(r) => (v, self.defs[r.index()]),
            Value::Const(_) => (v, 0),
        }
    }

    fn slot(&self, slot: u32) -> MemVersion {
        (epoch(&self.slots, slot), self.calls)
    }

    fn global(&self, global: u32) -> MemVersion {
        (epoch(&self.globals, global), self.calls)
    }
}

fn epoch(epochs: &[u32], i: u32) -> u32 {
    epochs.get(i as usize).copied().unwrap_or(0)
}

fn bump(epochs: &mut Vec<u32>, i: u32) {
    let i = i as usize;
    if i >= epochs.len() {
        epochs.resize(i + 1, 0);
    }
    epochs[i] += 1;
}

fn key_of(op: &Op, pure_funcs: &[bool], v: &Versions) -> Option<ExprKey> {
    Some(match op {
        Op::Un { op, src, .. } => ExprKey::Un(*op, v.operand(*src)),
        Op::Bin { op, lhs, rhs, .. } => {
            let (a, b) = key_operands(*op, *lhs, *rhs);
            ExprKey::Bin(*op, v.operand(a), v.operand(b))
        }
        Op::Select {
            cond,
            on_true,
            on_false,
            ..
        } => ExprKey::Select(v.operand(*cond), v.operand(*on_true), v.operand(*on_false)),
        Op::LoadSlot { slot, .. } => ExprKey::LoadSlot(slot.0, v.slot(slot.0)),
        Op::LoadIdx { slot, index, .. } => {
            ExprKey::LoadIdx(slot.0, v.operand(*index), v.slot(slot.0))
        }
        Op::LoadGlobal { global, .. } => ExprKey::LoadGlobal(global.0, v.global(global.0)),
        Op::LoadGIdx { global, index, .. } => {
            ExprKey::LoadGIdx(global.0, v.operand(*index), v.global(global.0))
        }
        Op::Call { callee, args, .. } if pure_funcs.get(callee.index()) == Some(&true) => {
            let args = args.iter().map(|&a| v.operand(a)).collect();
            ExprKey::PureCall(callee.0, args, v.calls)
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
    let mut v = Versions {
        defs: vec![0; f.vreg_count as usize],
        slots: Vec::new(),
        globals: Vec::new(),
        calls: 0,
    };
    // Each available expression's register, at the version that holds
    // the expression's value.
    let mut avail: HashMap<ExprKey, (VReg, u32)> = HashMap::new();
    for block in f.blocks.iter_mut().filter(|b| !b.dead) {
        avail.clear();
        for inst in &mut block.insts {
            if inst.op.is_dbg() {
                continue;
            }
            // Writes and non-pure calls move the memory versions on.
            match inst.op.mem_effect() {
                MemEffect::WriteSlot(s) => bump(&mut v.slots, s.0),
                MemEffect::WriteGlobal(g) => bump(&mut v.globals, g.0),
                MemEffect::Call(callee) => {
                    if pure_funcs.get(callee.index()) != Some(&true) {
                        v.calls += 1;
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
            let mut key = key_of(&inst.op, pure_funcs, &v);
            if let Some(&(prior, version)) = key.as_ref().and_then(|k| avail.get(k)) {
                if prior != dst && v.defs[prior.index()] == version {
                    inst.op = Op::Copy {
                        dst,
                        src: Value::Reg(prior),
                    };
                    changed = true;
                    // A copy is no expression to record.
                    key = None;
                }
            }
            v.defs[dst.index()] += 1;
            // A key that read the old `dst` is recorded at its old
            // version, so after `v = v + 1` no later `v + 1` matches it.
            if let Some(key) = key {
                avail.insert(key, (dst, v.defs[dst.index()]));
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

    /// A one-block function over `insts`, with parameters `%0` and
    /// `%1` and two scalar slots.
    fn one_block(insts: Vec<Op>, vreg_count: u32) -> Function {
        use dt_ir::module::{FuncAttrs, SlotInfo};
        use dt_ir::{Block, BlockId, FuncId, Inst, Terminator};
        let mut b0 = Block::new(Terminator::Ret(None));
        b0.insts = insts.into_iter().map(Inst::synth).collect();
        Function {
            name: "f".into(),
            id: FuncId(0),
            params: vec![VReg(0), VReg(1)],
            blocks: vec![b0],
            entry: BlockId(0),
            vreg_count,
            vars: vec![],
            slots: vec![SlotInfo { size: 1, var: None }; 2],
            line: 1,
            end_line: 1,
            attrs: FuncAttrs::default(),
        }
    }

    /// The instructions of `f`'s block that `cse_function` turned into
    /// copies, by index.
    fn copied(insts: Vec<Op>, vreg_count: u32, pure_funcs: &[bool]) -> Vec<usize> {
        let mut f = one_block(insts.clone(), vreg_count);
        cse_function(&mut f, pure_funcs);
        let after = f.blocks[0].insts.iter().map(|i| &i.op);
        (after.zip(&insts).enumerate())
            .filter(|(_, (a, b))| a != b)
            .inspect(|(_, (a, _))| assert!(matches!(a, Op::Copy { .. }), "{a:?}"))
            .map(|(i, _)| i)
            .collect()
    }

    fn add(dst: u32, lhs: u32, rhs: u32) -> Op {
        Op::Bin {
            dst: VReg(dst),
            op: dt_ir::BinOp::Add,
            lhs: Value::Reg(VReg(lhs)),
            rhs: Value::Reg(VReg(rhs)),
        }
    }

    fn load(dst: u32, slot: u32) -> Op {
        Op::LoadSlot {
            dst: VReg(dst),
            slot: dt_ir::SlotId(slot),
        }
    }

    fn call(dst: u32, callee: u32) -> Op {
        Op::Call {
            dst: VReg(dst),
            callee: dt_ir::FuncId(callee),
            args: vec![Value::Reg(VReg(0))],
        }
    }

    #[test]
    fn a_redefined_operand_blocks_a_match() {
        // %2 = %0 + %1; %3 = %1 + %0 matches, but not once %0 is redefined.
        assert_eq!(copied(vec![add(2, 0, 1), add(3, 1, 0)], 4, &[]), [1]);
        let redefined = vec![add(2, 0, 1), add(0, 1, 1), add(3, 0, 1)];
        assert_eq!(copied(redefined, 4, &[]), [] as [usize; 0]);
        // Nor does an expression whose register was redefined: %2 no
        // longer holds %0 + %1.
        let clobbered = vec![add(2, 0, 1), add(2, 1, 1), add(3, 0, 1)];
        assert_eq!(copied(clobbered, 4, &[]), [] as [usize; 0]);
    }

    #[test]
    fn a_store_to_a_slot_kills_only_that_slots_loads() {
        let store = Op::StoreSlot {
            slot: dt_ir::SlotId(0),
            src: Value::Const(5),
        };
        let insts = vec![load(2, 0), load(3, 1), store, load(4, 0), load(5, 1)];
        assert_eq!(
            copied(insts, 6, &[]),
            [4],
            "only slot 1's load is redundant"
        );
    }

    #[test]
    fn a_non_pure_call_kills_loads_and_pure_calls() {
        // Function 1 is pure, function 0 is not.
        let pure = [false, true];
        let before = vec![load(2, 0), call(3, 1), load(4, 0), call(5, 1)];
        assert_eq!(copied(before.clone(), 8, &pure), [2, 3]);
        let mut killed = before;
        killed.insert(2, call(6, 0));
        assert_eq!(copied(killed, 8, &pure), [] as [usize; 0]);
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
