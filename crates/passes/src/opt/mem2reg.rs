//! Promotion of scalar stack slots to virtual registers.
//!
//! This is clang's `SROA` (gateable — disabling it keeps variables in
//! their stack homes, trading performance for excellent debug info)
//! and the non-toggleable SSA-construction step of gcc's pipeline.
//!
//! Debug policy: the declaration-time `dbg.value slot` becomes
//! `dbg.value undef` (the variable has no value until first
//! assignment), and every former store emits a fresh
//! `dbg.value %reg` — switching the variable from the always-available
//! memory regime to the fragile register regime that the rest of the
//! pipeline degrades.

use crate::manager::{ModuleFacts, PassConfig};
use dt_ir::{DbgLoc, Function, Inst, Op, SlotId, VReg, Value};

/// Runs promotion over every function.
pub fn run(f: &mut Function, _facts: &ModuleFacts, _config: &PassConfig) -> bool {
    promote_function(f)
}

fn promote_function(f: &mut Function) -> bool {
    // Promotable: scalar slots only ever accessed as whole words.
    let mut promotable = vec![true; f.slots.len()];
    for (i, s) in f.slots.iter().enumerate() {
        if s.size != 1 {
            promotable[i] = false;
        }
    }
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            match &inst.op {
                Op::LoadIdx { slot, .. } | Op::StoreIdx { slot, .. } => {
                    promotable[slot.index()] = false;
                }
                _ => {}
            }
        }
    }
    if !promotable.iter().any(|&p| p) {
        return false;
    }

    // One register per promoted slot.
    let regs: Vec<Option<VReg>> = promotable
        .iter()
        .map(|&p| p.then(|| f.new_vreg()))
        .collect();
    let slot_var: Vec<Option<dt_ir::VarId>> = f.slots.iter().map(|s| s.var).collect();

    let mut changed = false;
    for bi in 0..f.blocks.len() {
        if f.blocks[bi].dead {
            continue;
        }
        let insts = std::mem::take(&mut f.blocks[bi].insts);
        let mut out = Vec::with_capacity(insts.len());
        for inst in insts {
            match inst.op {
                Op::StoreSlot { slot, src } if regs[slot.index()].is_some() => {
                    let reg = regs[slot.index()].unwrap();
                    out.push(Inst::new(Op::Copy { dst: reg, src }, inst.line));
                    if let Some(var) = slot_var[slot.index()] {
                        let mut dbg = Inst::new(
                            Op::DbgValue {
                                var,
                                loc: DbgLoc::Value(Value::Reg(reg)),
                            },
                            inst.line,
                        );
                        dbg.fused = false;
                        out.push(dbg);
                    }
                    changed = true;
                }
                Op::LoadSlot { dst, slot } if regs[slot.index()].is_some() => {
                    let reg = regs[slot.index()].unwrap();
                    out.push(Inst::new(
                        Op::Copy {
                            dst,
                            src: Value::Reg(reg),
                        },
                        inst.line,
                    ));
                    changed = true;
                }
                Op::DbgValue {
                    var,
                    loc: DbgLoc::Slot(slot),
                } if regs[slot.index()].is_some() => {
                    // Declaration marker: no value until the first store.
                    out.push(Inst::new(
                        Op::DbgValue {
                            var,
                            loc: DbgLoc::Undef,
                        },
                        inst.line,
                    ));
                    changed = true;
                }
                _ => out.push(inst),
            }
        }
        f.blocks[bi].insts = out;
    }

    // Promoted slots are gone from the frame: keep them (ids must stay
    // stable) but shrink them to zero words so frames get smaller.
    for (i, p) in promotable.iter().enumerate() {
        if *p {
            f.slots[SlotId(i as u32).index()].size = 0;
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

    fn promote(src: &str) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        run_whole_module(&run, &mut m, &PassConfig::default());
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn count<F: Fn(&Op) -> bool>(m: &Module, pred: F) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.insts.iter())
            .filter(|i| pred(&i.op))
            .count()
    }

    #[test]
    fn scalar_slots_are_promoted() {
        let m = promote("int f() { int x = 1; x = x + 2; return x; }");
        assert_eq!(count(&m, |o| matches!(o, Op::StoreSlot { .. })), 0);
        assert_eq!(count(&m, |o| matches!(o, Op::LoadSlot { .. })), 0);
    }

    #[test]
    fn stores_emit_register_dbg_values() {
        let m = promote("int f() { int x = 1; x = x + 2; return x; }");
        let reg_dbgs = count(&m, |o| {
            matches!(
                o,
                Op::DbgValue {
                    loc: DbgLoc::Value(Value::Reg(_)),
                    ..
                }
            )
        });
        assert!(reg_dbgs >= 2, "each assignment re-binds the variable");
    }

    #[test]
    fn arrays_are_not_promoted() {
        let m = promote("int f() { int a[4]; a[0] = 1; return a[0]; }");
        assert!(count(&m, |o| matches!(o, Op::StoreIdx { .. })) > 0);
        assert!(count(&m, |o| matches!(o, Op::LoadIdx { .. })) > 0);
        // The array keeps its frame words.
        assert_eq!(m.funcs[0].slots.iter().map(|s| s.size).sum::<u32>(), 4);
    }

    #[test]
    fn promoted_code_still_computes_correctly() {
        let src = "int f(int n) { int s = 0; for (int i = 0; i <= n; i++) { s += i; } return s; }";
        let mut m = dt_frontend::lower_source(src).unwrap();
        run_whole_module(&run, &mut m, &PassConfig::default());
        let obj = dt_machine::run_backend(&m, &dt_machine::BackendConfig::default());
        let r = dt_vm::Vm::run_to_completion(&obj, "f", &[10], &[], dt_vm::VmConfig::default())
            .unwrap();
        assert_eq!(r.ret, 55);
    }

    #[test]
    fn promotion_shrinks_frames() {
        let src = "int f(int a, int b) { int c = a + b; return c * 2; }";
        let m_o0 = dt_frontend::lower_source(src).unwrap();
        let obj0 = dt_machine::run_backend(&m_o0, &dt_machine::BackendConfig::default());
        let m_opt = promote(src);
        let obj1 = dt_machine::run_backend(&m_opt, &dt_machine::BackendConfig::default());
        assert!(
            obj1.funcs[0].frame_size < obj0.funcs[0].frame_size,
            "promotion must shrink the frame ({} -> {})",
            obj0.funcs[0].frame_size,
            obj1.funcs[0].frame_size
        );
    }
}
