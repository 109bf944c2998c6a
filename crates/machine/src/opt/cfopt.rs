//! Machine-level control-flow cleanup (LLVM's `Control Flow Optimizer`
//! / `BranchFolding`).
//!
//! Three rewrites, each removing code and with it line-table rows:
//!
//! * conditional branches whose arms coincide become jumps (the branch
//!   line survives on the jump, but the condition computation usually
//!   dies later in DCE);
//! * empty forwarding blocks are threaded through and deleted (their
//!   terminator line row disappears);
//! * single-predecessor/single-successor block pairs are merged (the
//!   jump between them — and its line — disappears).

use crate::mir::{MFunction, MTerm};

/// Runs the cleanup to a local fixpoint.
pub fn run(f: &mut MFunction) {
    let mut changed = true;
    while changed {
        changed = false;
        changed |= fold_trivial_branches(f);
        changed |= thread_empty_blocks(f);
        changed |= merge_block_chains(f);
        f.default_layout();
    }
}

/// `JCond` with identical arms → `Jmp`.
fn fold_trivial_branches(f: &mut MFunction) -> bool {
    let mut changed = false;
    for b in f.live_blocks().collect::<Vec<_>>() {
        if let MTerm::JCond {
            then_bb, else_bb, ..
        } = f.blocks[b as usize].term
        {
            if then_bb == else_bb {
                f.blocks[b as usize].term = MTerm::Jmp(then_bb);
                changed = true;
            }
        }
    }
    changed
}

/// Blocks containing nothing but `Jmp(t)` are bypassed.
fn thread_empty_blocks(f: &mut MFunction) -> bool {
    let mut changed = false;
    // forward[b] = t if b is an empty forwarding block to t.
    let forward: Vec<Option<u32>> = f
        .blocks
        .iter()
        .enumerate()
        .map(|(i, blk)| match blk.term {
            MTerm::Jmp(t) if !blk.dead && t != i as u32 && blk.insts.is_empty() => Some(t),
            _ => None,
        })
        .collect();

    let resolve = |mut b: u32| {
        // Follow forwarding chains (guard against cycles).
        let mut hops = 0;
        while let Some(t) = forward[b as usize] {
            b = t;
            hops += 1;
            if hops > forward.len() {
                break;
            }
        }
        b
    };

    for b in f.live_blocks().collect::<Vec<_>>() {
        if forward[b as usize].is_some() {
            continue;
        }
        let mut term = f.blocks[b as usize].term.clone();
        let mut local_change = false;
        match &mut term {
            MTerm::Jmp(t) => {
                let r = resolve(*t);
                if r != *t {
                    *t = r;
                    local_change = true;
                }
            }
            MTerm::JCond {
                then_bb, else_bb, ..
            } => {
                let rt = resolve(*then_bb);
                let re = resolve(*else_bb);
                if rt != *then_bb || re != *else_bb {
                    *then_bb = rt;
                    *else_bb = re;
                    local_change = true;
                }
            }
            MTerm::Ret(_) => {}
        }
        if local_change {
            f.blocks[b as usize].term = term;
            changed = true;
        }
    }

    if changed {
        // Remove now-unreachable forwarding blocks.
        remove_unreachable(f);
    }
    changed
}

/// Merges `b -Jmp-> s` where `s` has `b` as its only predecessor.
fn merge_block_chains(f: &mut MFunction) -> bool {
    let mut changed = false;
    loop {
        let preds = f.preds();
        let mut merged = false;
        for b in f.live_blocks().collect::<Vec<_>>() {
            let MTerm::Jmp(s) = f.blocks[b as usize].term else {
                continue;
            };
            if s == b || f.blocks[s as usize].dead || preds[s as usize] != [b] || s == f.entry {
                continue;
            }
            let succ = std::mem::replace(
                &mut f.blocks[s as usize],
                crate::mir::MBlock {
                    insts: vec![],
                    term: MTerm::Ret(None),
                    term_line: 0,
                    dead: true,
                },
            );
            let blk = &mut f.blocks[b as usize];
            blk.insts.extend(succ.insts);
            blk.term = succ.term;
            blk.term_line = succ.term_line;
            merged = true;
            changed = true;
            break; // preds are stale; recompute
        }
        if !merged {
            return changed;
        }
    }
}

fn remove_unreachable(f: &mut MFunction) {
    let reach = f.reachable();
    for (i, blk) in f.blocks.iter_mut().enumerate() {
        if !reach.contains(i) && !blk.dead && i as u32 != f.entry {
            blk.dead = true;
            blk.insts.clear();
            blk.term = MTerm::Ret(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{MBlock, MFunction, MInst, MOpKind};

    fn func(blocks: Vec<MBlock>) -> MFunction {
        let mut f = MFunction {
            name: "t".into(),
            blocks,
            entry: 0,
            layout: vec![],
            nvregs: 8,
            slot_sizes: vec![],
            vars: vec![],
            decl_line: 1,
            end_line: 9,
            nparams: 0,
            shrink_wrapped: false,
        };
        f.default_layout();
        f
    }

    fn block(insts: Vec<MInst>, term: MTerm, line: u32) -> MBlock {
        MBlock {
            insts,
            term,
            term_line: line,
            dead: false,
        }
    }

    #[test]
    fn folds_branch_with_equal_arms() {
        let mut f = func(vec![
            block(
                vec![MInst::new(MOpKind::Imm { rd: 0, value: 1 }, 2)],
                MTerm::JCond {
                    rs: 0,
                    then_bb: 1,
                    else_bb: 1,
                    prob_then: None,
                },
                2,
            ),
            block(vec![], MTerm::Ret(Some(0)), 3),
        ]);
        run(&mut f);
        assert!(matches!(f.blocks[0].term, MTerm::Jmp(_) | MTerm::Ret(_)));
    }

    #[test]
    fn threads_empty_forwarding_blocks() {
        // 0 -> 1 (empty) -> 2
        let mut f = func(vec![
            block(vec![], MTerm::Jmp(1), 2),
            block(vec![], MTerm::Jmp(2), 0),
            block(vec![], MTerm::Ret(None), 4),
        ]);
        run(&mut f);
        // Everything collapses into the entry block.
        assert!(matches!(f.blocks[0].term, MTerm::Ret(None)));
        assert!(f.blocks[1].dead || !f.layout.contains(&1));
    }

    #[test]
    fn merges_single_pred_chains_preserving_insts() {
        let mut f = func(vec![
            block(
                vec![MInst::new(MOpKind::Imm { rd: 0, value: 1 }, 2)],
                MTerm::Jmp(1),
                0,
            ),
            block(
                vec![MInst::new(MOpKind::Out { rs: 0 }, 3)],
                MTerm::Ret(Some(0)),
                4,
            ),
        ]);
        run(&mut f);
        assert_eq!(f.blocks[0].insts.len(), 2);
        assert!(matches!(f.blocks[0].term, MTerm::Ret(Some(0))));
        assert!(f.blocks[1].dead);
    }

    #[test]
    fn diamond_is_not_destroyed() {
        let mut f = func(vec![
            block(
                vec![MInst::new(MOpKind::Imm { rd: 0, value: 1 }, 2)],
                MTerm::JCond {
                    rs: 0,
                    then_bb: 1,
                    else_bb: 2,
                    prob_then: None,
                },
                2,
            ),
            block(
                vec![MInst::new(MOpKind::Out { rs: 0 }, 3)],
                MTerm::Jmp(3),
                0,
            ),
            block(
                vec![MInst::new(MOpKind::Out { rs: 0 }, 5)],
                MTerm::Jmp(3),
                0,
            ),
            block(vec![], MTerm::Ret(None), 7),
        ]);
        run(&mut f);
        // Both arms still exist (they have side effects).
        let live: Vec<u32> = f.live_blocks().collect();
        assert!(live.len() >= 3, "diamond must survive: {live:?}");
    }
}
