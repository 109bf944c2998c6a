//! Shrink-wrapping (`shrink-wrap` in gcc).
//!
//! When a function begins with a cheap early-exit test, the parameter
//! setup (argument fetches, home-slot stores, and the corresponding
//! `dbg.value`s) is moved off the early path into the "real work"
//! successor, so the early exit pays no prologue. The VM rewards
//! shrink-wrapped functions with cheaper calls.
//!
//! Debug model: parameter locations now start *after* the early-exit
//! branch — in the entry block and on the early path the parameters
//! are invisible, which is the classic complaint about shrink-wrapped
//! frames in gdb.

use crate::mir::{MDbgLoc, MFunction, MInst, MOpKind, MTerm, VR};
use std::collections::HashSet;

/// Applies shrink-wrapping when the entry matches the early-exit shape.
pub fn run(f: &mut MFunction) {
    let entry = f.entry as usize;
    let MTerm::JCond {
        then_bb, else_bb, ..
    } = f.blocks[entry].term
    else {
        return;
    };

    // Identify which successor is a cheap early exit.
    let is_early_exit = |b: u32| {
        let blk = &f.blocks[b as usize];
        matches!(blk.term, MTerm::Ret(_))
            && blk.insts.iter().filter(|i| !i.op.is_dbg()).count() <= 1
    };
    let (early, work) = if is_early_exit(then_bb) && !is_early_exit(else_bb) {
        (then_bb, else_bb)
    } else if is_early_exit(else_bb) && !is_early_exit(then_bb) {
        (else_bb, then_bb)
    } else {
        return;
    };

    // The work block must be entered only from the entry.
    if f.preds()[work as usize] != [f.entry] {
        return;
    }

    // The movable prologue prefix: GetArg / StSlot-of-param-home /
    // param Dbg pseudos, none of whose outputs are consumed by the
    // rest of the entry block, the branch, or the early-exit path.
    let insts = &f.blocks[entry].insts;
    let mut prefix_end = 0;
    let mut moved_regs: HashSet<VR> = HashSet::new();
    let mut moved_slots: HashSet<u32> = HashSet::new();
    for inst in insts {
        match &inst.op {
            MOpKind::GetArg { rd, .. } => {
                moved_regs.insert(*rd);
                prefix_end += 1;
            }
            MOpKind::StSlot { slot, rs } if moved_regs.contains(rs) => {
                moved_slots.insert(*slot);
                prefix_end += 1;
            }
            MOpKind::Dbg { .. } => {
                prefix_end += 1;
            }
            _ => break,
        }
    }
    if prefix_end == 0 || moved_regs.is_empty() {
        return;
    }

    // Nothing after the prefix (in the entry block, its terminator, or
    // the early block) may read the moved registers or slots.
    let reads_moved = |inst: &MInst| {
        let mut bad = false;
        inst.op.for_each_use(|r| bad |= moved_regs.contains(&r));
        match &inst.op {
            MOpKind::LdSlot { slot, .. } | MOpKind::LdIdx { slot, .. } => {
                bad |= moved_slots.contains(slot)
            }
            MOpKind::Dbg {
                loc: MDbgLoc::Reg(r),
                ..
            } => bad |= moved_regs.contains(r),
            MOpKind::Dbg {
                loc: MDbgLoc::Slot(s),
                ..
            } => bad |= moved_slots.contains(s),
            _ => {}
        }
        bad
    };
    for inst in &f.blocks[entry].insts[prefix_end..] {
        if reads_moved(inst) {
            return;
        }
    }
    let mut term_bad = false;
    f.blocks[entry]
        .term
        .for_each_use(|r| term_bad |= moved_regs.contains(&r));
    if term_bad {
        return;
    }
    for inst in &f.blocks[early as usize].insts {
        if reads_moved(inst) {
            return;
        }
    }
    let mut early_term_bad = false;
    f.blocks[early as usize]
        .term
        .for_each_use(|r| early_term_bad |= moved_regs.contains(&r));
    if early_term_bad {
        return;
    }

    // Move the prefix to the head of the work block.
    let prefix: Vec<MInst> = f.blocks[entry].insts.drain(..prefix_end).collect();
    for (k, inst) in prefix.into_iter().enumerate() {
        f.blocks[work as usize].insts.insert(k, inst);
    }
    f.shrink_wrapped = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{MBlock, MVarInfo};

    /// entry: a0 -> %0, store home, dbg; branch on %1 (separate reg)
    fn early_exit_function(early_uses_param: bool) -> MFunction {
        let entry = MBlock {
            insts: vec![
                MInst::new(MOpKind::GetArg { rd: 0, k: 0 }, 1),
                MInst::new(MOpKind::StSlot { slot: 0, rs: 0 }, 1),
                {
                    let mut d = MInst::new(
                        MOpKind::Dbg {
                            var: 0,
                            loc: MDbgLoc::Slot(0),
                        },
                        1,
                    );
                    d.stmt = false;
                    d
                },
                MInst::new(MOpKind::InLen { rd: 1 }, 2),
            ],
            term: MTerm::JCond {
                rs: 1,
                then_bb: 1,
                else_bb: 2,
                prob_then: None,
            },
            term_line: 2,
            dead: false,
        };
        let early = MBlock {
            insts: if early_uses_param {
                vec![MInst::new(MOpKind::LdSlot { rd: 2, slot: 0 }, 3)]
            } else {
                vec![MInst::new(MOpKind::Imm { rd: 2, value: 0 }, 3)]
            },
            term: MTerm::Ret(Some(2)),
            term_line: 3,
            dead: false,
        };
        let work = MBlock {
            insts: vec![
                MInst::new(MOpKind::LdSlot { rd: 3, slot: 0 }, 5),
                MInst::new(MOpKind::Out { rs: 3 }, 5),
            ],
            term: MTerm::Ret(Some(3)),
            term_line: 6,
            dead: false,
        };
        let mut f = MFunction {
            name: "t".into(),
            blocks: vec![entry, early, work],
            entry: 0,
            layout: vec![],
            nvregs: 8,
            slot_sizes: vec![1],
            vars: vec![MVarInfo {
                name: "a".into(),
                is_param: true,
                decl_line: 1,
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
    fn moves_param_setup_off_early_path() {
        let mut f = early_exit_function(false);
        run(&mut f);
        assert!(f.shrink_wrapped);
        // Entry no longer fetches the argument.
        assert!(!f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i.op, MOpKind::GetArg { .. })));
        // The work block does, at its head.
        assert!(matches!(f.blocks[2].insts[0].op, MOpKind::GetArg { .. }));
        // The param's dbg.value moved too.
        assert!(f.blocks[2]
            .insts
            .iter()
            .any(|i| matches!(i.op, MOpKind::Dbg { .. })));
    }

    #[test]
    fn refuses_when_early_path_reads_param() {
        let mut f = early_exit_function(true);
        run(&mut f);
        assert!(!f.shrink_wrapped);
        assert!(matches!(f.blocks[0].insts[0].op, MOpKind::GetArg { .. }));
    }

    #[test]
    fn leaves_functions_without_early_exit_alone() {
        let mut f = early_exit_function(false);
        // Make both successors non-trivial.
        f.blocks[1]
            .insts
            .extend((0..5).map(|_| MInst::new(MOpKind::Imm { rd: 4, value: 1 }, 4)));
        run(&mut f);
        assert!(!f.shrink_wrapped);
    }
}
