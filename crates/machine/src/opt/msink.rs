//! Machine code sinking (`Machine code sinking` in LLVM's backend).
//!
//! Moves a pure computation whose result is used in exactly one
//! successor block into that successor, so the other path never pays
//! for it. Debug model: the `dbg.value` describing the result travels
//! with the instruction, and a `dbg.value undef` is left at the
//! original point — on the path that does not execute the sunk code the
//! variable is now unavailable, and the instruction's line is only
//! stepped when its path runs (the dynamic line-coverage loss the paper
//! attributes to sinking).

use crate::mir::{MDbgLoc, MFunction, MInst, MOpKind, MTerm, VR};
use crate::opt::mliveness;

/// Runs sinking until fixpoint (one pass over blocks is performed;
/// newly created opportunities are left for the next pipeline run, as
/// in real backends).
pub fn run(f: &mut MFunction) {
    let preds = f.preds();
    let live = mliveness::compute(f);

    // Blocks that use each register (excluding debug uses), by vreg.
    let mut use_blocks: Vec<Vec<u32>> = vec![Vec::new(); f.nvregs as usize];
    let mut note_use = |r: VR, b: u32| {
        let e = &mut use_blocks[r as usize];
        if e.last() != Some(&b) {
            e.push(b);
        }
    };
    for b in f.live_blocks() {
        let blk = &f.blocks[b as usize];
        for inst in &blk.insts {
            inst.op.for_each_use(|r| note_use(r, b));
        }
        blk.term.for_each_use(|r| note_use(r, b));
    }

    let block_ids: Vec<u32> = f.live_blocks().collect();
    for b in block_ids {
        let term = f.blocks[b as usize].term.clone();
        let (then_bb, else_bb) = match term {
            MTerm::JCond {
                then_bb, else_bb, ..
            } => (then_bb, else_bb),
            _ => continue,
        };
        // Candidate defs in b, scanned from the end.
        let mut i = f.blocks[b as usize].insts.len();
        while i > 0 {
            i -= 1;
            let inst = f.blocks[b as usize].insts[i].clone();
            if inst.op.is_dbg() || inst.op.has_side_effect() || inst.op.is_load() {
                continue;
            }
            let Some(d) = inst.op.def() else { continue };
            // Operands as evaluated at position `i`.
            let mut operands: Vec<VR> = Vec::new();
            inst.op.for_each_use(|r| operands.push(r));
            // Blocked when `d` is used later in this block (including
            // the terminator), when `d` is redefined later (the
            // successor's use refers to the *later* def, which the sunk
            // instruction would clobber), or when an operand is
            // redefined later (the sunk computation would read the new
            // value).
            let mut blocked = false;
            for later in &f.blocks[b as usize].insts[i + 1..] {
                if later.op.is_dbg() {
                    continue;
                }
                later.op.for_each_use(|r| blocked |= r == d);
                if let Some(ld) = later.op.def() {
                    blocked |= ld == d;
                    blocked |= operands.contains(&ld);
                }
                if blocked {
                    break;
                }
            }
            f.blocks[b as usize]
                .term
                .for_each_use(|r| blocked |= r == d);
            if blocked {
                continue;
            }
            // Which successor uses it?
            let ub = &use_blocks[d as usize];
            let target = if *ub == [then_bb]
                && !live.live_in.row(else_bb as usize).contains(dt_ir::VReg(d))
            {
                then_bb
            } else if *ub == [else_bb]
                && !live.live_in.row(then_bb as usize).contains(dt_ir::VReg(d))
            {
                else_bb
            } else {
                continue;
            };
            // The target must be reached only from b, or the value
            // would be missing on its other entries.
            if preds[target as usize] != [b] {
                continue;
            }
            // The value must not escape the target (conservative: no
            // other block uses it, checked above via ub == [target]).

            // Move the instruction (and its attached dbg.value) to the
            // head of the target; leave dbg.value undef behind.
            let mut moved: Vec<MInst> = vec![f.blocks[b as usize].insts.remove(i)];
            // An attached Dbg pseudo referencing d directly after it?
            while i < f.blocks[b as usize].insts.len() {
                let next = &f.blocks[b as usize].insts[i];
                let attached =
                    matches!(next.op, MOpKind::Dbg { loc: MDbgLoc::Reg(r), .. } if r == d);
                if !attached {
                    break;
                }
                let dbg = f.blocks[b as usize].insts.remove(i);
                if let MOpKind::Dbg { var, .. } = dbg.op {
                    // Leave an undef marker at the original point.
                    let mut undef = MInst::new(
                        MOpKind::Dbg {
                            var,
                            loc: MDbgLoc::Undef,
                        },
                        0,
                    );
                    undef.stmt = false;
                    f.blocks[b as usize].insts.insert(i, undef);
                    i += 1;
                }
                moved.push(dbg);
            }
            for (k, m) in moved.into_iter().enumerate() {
                f.blocks[target as usize].insts.insert(k, m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_module;
    use crate::mir::MModule;

    fn machine(src: &str) -> MModule {
        lower_module(&dt_frontend::lower_source(src).unwrap())
    }

    /// Build a function where a computation is only used in one branch.
    /// (mem2reg would be needed for the O0 slot traffic not to block
    /// sinking, so construct the MIR shape by hand.)
    fn sinkable() -> MFunction {
        use crate::mir::{MBlock, MVarInfo};
        use dt_ir::BinOp;
        let entry_insts = vec![
            MInst::new(MOpKind::GetArg { rd: 0, k: 0 }, 1),
            MInst::new(
                MOpKind::BinImm {
                    op: BinOp::Mul,
                    rd: 1,
                    ra: 0,
                    imm: 7,
                },
                2,
            ),
            {
                let mut d = MInst::new(
                    MOpKind::Dbg {
                        var: 0,
                        loc: MDbgLoc::Reg(1),
                    },
                    2,
                );
                d.stmt = false;
                d
            },
        ];
        let blocks = vec![
            MBlock {
                insts: entry_insts,
                term: MTerm::JCond {
                    rs: 0,
                    then_bb: 1,
                    else_bb: 2,
                    prob_then: None,
                },
                term_line: 3,
                dead: false,
            },
            MBlock {
                insts: vec![MInst::new(MOpKind::Out { rs: 1 }, 4)],
                term: MTerm::Ret(Some(1)),
                term_line: 4,
                dead: false,
            },
            MBlock {
                insts: vec![],
                term: MTerm::Ret(Some(0)),
                term_line: 6,
                dead: false,
            },
        ];
        let mut f = MFunction {
            name: "t".into(),
            blocks,
            entry: 0,
            layout: vec![],
            nvregs: 2,
            slot_sizes: vec![],
            vars: vec![MVarInfo {
                name: "x".into(),
                is_param: false,
                decl_line: 2,
            }],
            decl_line: 1,
            end_line: 7,
            nparams: 1,
            shrink_wrapped: false,
        };
        f.default_layout();
        f
    }

    #[test]
    fn sinks_single_use_computation() {
        let mut f = sinkable();
        run(&mut f);
        // The multiply must now live in block 1, not the entry.
        let entry_has_mul = f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i.op, MOpKind::BinImm { .. }));
        let then_has_mul = f.blocks[1]
            .insts
            .iter()
            .any(|i| matches!(i.op, MOpKind::BinImm { .. }));
        assert!(!entry_has_mul && then_has_mul);
    }

    #[test]
    fn leaves_undef_marker_behind() {
        let mut f = sinkable();
        run(&mut f);
        let undef_in_entry = f.blocks[0].insts.iter().any(|i| {
            matches!(
                i.op,
                MOpKind::Dbg {
                    loc: MDbgLoc::Undef,
                    ..
                }
            )
        });
        assert!(undef_in_entry, "sinking must leave a dbg.value undef");
        // And the real dbg.value moved with the instruction.
        let dbg_in_then = f.blocks[1].insts.iter().any(|i| {
            matches!(
                i.op,
                MOpKind::Dbg {
                    loc: MDbgLoc::Reg(1),
                    ..
                }
            )
        });
        assert!(dbg_in_then);
    }

    #[test]
    fn does_not_sink_values_used_on_both_paths() {
        let mut f = sinkable();
        // Make the else block also use %1.
        f.blocks[2]
            .insts
            .push(MInst::new(MOpKind::Out { rs: 1 }, 6));
        run(&mut f);
        let entry_has_mul = f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i.op, MOpKind::BinImm { .. }));
        assert!(entry_has_mul, "value used on both paths must not sink");
    }

    /// Regression: a *dead* first definition must not sink past a live
    /// redefinition of the same register. The load redefines %1 and
    /// cannot sink itself; sinking the dead multiply would make it
    /// clobber the load's value at the head of the successor.
    #[test]
    fn does_not_sink_dead_def_past_redefinition() {
        let mut f = sinkable();
        f.slot_sizes = vec![1];
        // entry: ... mul %1, %0, 7 ; %1 = frame[0] ; jcond %0
        f.blocks[0]
            .insts
            .insert(2, MInst::new(MOpKind::LdSlot { rd: 1, slot: 0 }, 2));
        run(&mut f);
        let entry_has_mul = f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i.op, MOpKind::BinImm { .. }));
        assert!(
            entry_has_mul,
            "dead def must not sink past a redefinition of its register"
        );
    }

    /// Regression: an instruction must not sink past a redefinition of
    /// one of its *operands* — in the successor it would read the new
    /// value instead of the one at its original program point.
    #[test]
    fn does_not_sink_past_operand_redefinition() {
        use dt_ir::BinOp;
        let mut f = sinkable();
        // entry: ... mul %1, %0, 7 ; add %0, %0, 1 ; jcond %0
        f.blocks[0].insts.insert(
            2,
            MInst::new(
                MOpKind::BinImm {
                    op: BinOp::Add,
                    rd: 0,
                    ra: 0,
                    imm: 1,
                },
                3,
            ),
        );
        run(&mut f);
        let entry_has_mul = f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i.op, MOpKind::BinImm { op: BinOp::Mul, .. }));
        assert!(
            entry_has_mul,
            "instruction must not sink past a redefinition of its operand"
        );
    }

    #[test]
    fn o0_slot_code_is_untouched() {
        let mut mm = machine("int f(int c) { int t = c * 3; if (c) { out(t); } return 0; }");
        let before = mm.funcs[0].clone();
        run(&mut mm.funcs[0]);
        // At O0 the multiply's result goes to a store (side effect), so
        // nothing can sink; the function must be unchanged.
        assert_eq!(before, mm.funcs[0]);
    }
}
