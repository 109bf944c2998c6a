//! Loop-invariant code motion.
//!
//! Part of gcc's `tree-loop-optimize` umbrella and clang's `LICM`.
//! Hoists pure computations (and loads from memory the loop provably
//! does not write) into the loop preheader. Hoisted instructions keep
//! their source lines — with temporary breakpoints the line is still
//! stepped (once, in the preheader), so LICM is comparatively gentle
//! on debug info, as the paper's mid-table ranking reflects.

use crate::manager::{ModuleFacts, PassConfig};
use crate::opt::util::{def_counts, ensure_preheader};
use dt_ir::{BitSet, BlockId, DomTree, Function, LoopForest, MemEffect, Op, VReg, Value};

/// Runs LICM over every function.
pub fn run(f: &mut Function, _facts: &ModuleFacts, _config: &PassConfig) -> bool {
    licm_function(f)
}

fn licm_function(f: &mut Function) -> bool {
    let mut changed = false;
    // Recompute loops after each hoisting round (preheaders mutate the
    // CFG); bound the rounds for safety.
    for _ in 0..4 {
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        if forest.loops.is_empty() {
            return changed;
        }
        let mut round_changed = false;
        for l in &forest.loops {
            round_changed |= hoist_from_loop(f, &l.header, &l.latches, &l.blocks);
        }
        changed |= round_changed;
        if !round_changed {
            break;
        }
    }
    changed
}

fn hoist_from_loop(
    f: &mut Function,
    header: &dt_ir::BlockId,
    latches: &[dt_ir::BlockId],
    blocks: &BitSet<BlockId>,
) -> bool {
    // Memory regions written (or possibly written) inside the loop.
    let mut writes_slots = vec![false; f.slots.len()];
    let mut writes_globals: Vec<u32> = Vec::new();
    let mut has_calls = false;
    for b in blocks.iter() {
        for inst in &f.block(b).insts {
            match inst.op.mem_effect() {
                MemEffect::WriteSlot(s) => writes_slots[s.index()] = true,
                MemEffect::WriteGlobal(g) => writes_globals.push(g.0),
                MemEffect::Call(_) => has_calls = true,
                _ => {}
            }
        }
    }

    let defs = def_counts(f);
    // Defs inside the loop.
    let mut loop_defs = BitSet::with_capacity(f.vreg_count as usize);
    for b in blocks.iter() {
        for inst in &f.block(b).insts {
            if let Some(d) = inst.op.def() {
                loop_defs.insert(d);
            }
        }
    }
    let invariant_value = |v: Value, hoisted: &BitSet<VReg>| match v {
        Value::Const(_) => true,
        Value::Reg(r) => !loop_defs.contains(r) || hoisted.contains(r),
    };

    // Scan blocks in index order: the hoist order determines both the
    // preheader's instruction order and (through `hoisted`) which
    // dependent instructions hoist this round.
    let mut hoisted = BitSet::with_capacity(f.vreg_count as usize);
    let mut to_hoist: Vec<dt_ir::Inst> = Vec::new();
    for b in blocks.iter() {
        let mut i = 0;
        while i < f.block(b).insts.len() {
            let inst = &f.block(b).insts[i];
            let hoistable = match &inst.op {
                op if op.is_pure() => true,
                Op::LoadGlobal { global, .. } | Op::LoadGIdx { global, .. } => {
                    !has_calls && !writes_globals.contains(&global.0)
                }
                Op::LoadSlot { slot, .. } | Op::LoadIdx { slot, .. } => {
                    !has_calls && !writes_slots[slot.index()]
                }
                _ => false,
            };
            let single_def = inst
                .op
                .def()
                .is_some_and(|d| defs.get(d.index()) == Some(&1));
            let mut operands_inv = true;
            inst.op
                .for_each_use(|v| operands_inv &= invariant_value(v, &hoisted));
            if hoistable && single_def && operands_inv {
                let d = inst.op.def().unwrap();
                let mut moved = vec![f.block_mut(b).insts.remove(i)];
                // Carry the immediately-following debug binding along.
                while i < f.block(b).insts.len() {
                    let next = &f.block(b).insts[i];
                    let attached = matches!(
                        next.op,
                        Op::DbgValue {
                            loc: dt_ir::DbgLoc::Value(Value::Reg(r)),
                            ..
                        } if r == d
                    );
                    if attached {
                        moved.push(f.block_mut(b).insts.remove(i));
                    } else {
                        break;
                    }
                }
                hoisted.insert(d);
                to_hoist.extend(moved);
            } else {
                i += 1;
            }
        }
    }
    if to_hoist.is_empty() {
        return false;
    }
    let ph = ensure_preheader(f, *header, latches);
    f.block_mut(ph).insts.extend(to_hoist);
    true
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
        run_whole_module(&crate::opt::instcombine::run, &mut m, &cfg);
        run_whole_module(&run, &mut m, &cfg);
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn check(m: &Module, args: &[i64], expected: i64) -> u64 {
        let obj = dt_machine::run_backend(m, &dt_machine::BackendConfig::default());
        let r =
            dt_vm::Vm::run_to_completion(&obj, "f", args, &[], dt_vm::VmConfig::default()).unwrap();
        assert_eq!(r.ret, expected);
        r.cycles
    }

    const HOISTABLE: &str = "int f(int a, int b, int n) {\n\
        int s = 0;\n\
        for (int i = 0; i < n; i++) { s += a * b + i; }\n\
        return s;\n}";

    #[test]
    fn hoisting_preserves_semantics_and_saves_cycles() {
        let m0 = dt_frontend::lower_source(HOISTABLE).unwrap();
        let cfg = PassConfig::default();
        let mut m_base = m0.clone();
        run_whole_module(&crate::opt::mem2reg::run, &mut m_base, &cfg);
        run_whole_module(&crate::opt::instcombine::run, &mut m_base, &cfg);
        let base_cycles = check(&m_base, &[3, 4, 50], 50 * 12 + 49 * 50 / 2);

        let m_licm = pipeline(HOISTABLE);
        let licm_cycles = check(&m_licm, &[3, 4, 50], 50 * 12 + 49 * 50 / 2);
        assert!(
            licm_cycles < base_cycles,
            "hoisting the multiply must save cycles ({licm_cycles} vs {base_cycles})"
        );
    }

    #[test]
    fn invariant_multiply_leaves_the_loop() {
        let m = pipeline(HOISTABLE);
        let f = &m.funcs[0];
        let dom = dt_ir::DomTree::compute(f);
        let forest = dt_ir::LoopForest::compute(f, &dom);
        let l = &forest.loops[0];
        let mul_in_loop = l.blocks.iter().any(|b| {
            f.block(b).insts.iter().any(|i| {
                matches!(
                    i.op,
                    Op::Bin {
                        op: dt_ir::BinOp::Mul,
                        ..
                    }
                )
            })
        });
        assert!(!mul_in_loop, "a*b must be hoisted out");
    }

    #[test]
    fn loop_varying_code_stays() {
        let src =
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i * i; } return s; }";
        let m = pipeline(src);
        check(&m, &[5], 30);
        let f = &m.funcs[0];
        let dom = dt_ir::DomTree::compute(f);
        let forest = dt_ir::LoopForest::compute(f, &dom);
        let l = &forest.loops[0];
        let mul_in_loop = l.blocks.iter().any(|b| {
            f.block(b).insts.iter().any(|i| {
                matches!(
                    i.op,
                    Op::Bin {
                        op: dt_ir::BinOp::Mul,
                        ..
                    }
                )
            })
        });
        assert!(mul_in_loop, "i*i is loop-varying and must stay");
    }

    #[test]
    fn loads_blocked_by_loop_stores() {
        let src = "int g = 10;\n\
                   int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += g; g = g + 1; } return s; }";
        let m = pipeline(src);
        check(&m, &[3], 10 + 11 + 12);
    }

    #[test]
    fn loads_hoisted_when_loop_is_readonly() {
        let src = "int g = 7;\n\
                   int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += g; } return s; }";
        let m = pipeline(src);
        check(&m, &[4], 28);
        let f = &m.funcs[0];
        let dom = dt_ir::DomTree::compute(f);
        let forest = dt_ir::LoopForest::compute(f, &dom);
        let l = &forest.loops[0];
        let load_in_loop = l.blocks.iter().any(|b| {
            f.block(b)
                .insts
                .iter()
                .any(|i| matches!(i.op, Op::LoadGlobal { .. }))
        });
        assert!(!load_in_loop, "the read-only global load must be hoisted");
    }

    #[test]
    fn nested_loops_hoist_outward() {
        let src = "int f(int a, int n) {\n\
            int s = 0;\n\
            for (int i = 0; i < n; i++) {\n\
                for (int j = 0; j < n; j++) { s += a * 7; }\n\
            }\n\
            return s;\n}";
        let m = pipeline(src);
        check(&m, &[2, 3], 9 * 14);
    }
}
