//! CFG utilities: successor/predecessor maps and block orderings.

use crate::module::{BlockId, Function};
use std::collections::HashSet;

/// Predecessors of each block (indexed by block id).
pub fn predecessors(f: &Function) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); f.blocks.len()];
    for b in f.block_ids() {
        for s in f.block(b).term.successors() {
            preds[s.index()].push(b);
        }
    }
    preds
}

/// The set of blocks reachable from the entry.
pub fn reachable_blocks(f: &Function) -> HashSet<BlockId> {
    let mut seen = HashSet::new();
    let mut stack = vec![f.entry];
    while let Some(b) = stack.pop() {
        if !seen.insert(b) || f.block(b).dead {
            continue;
        }
        for s in f.block(b).term.successors() {
            if !seen.contains(&s) {
                stack.push(s);
            }
        }
    }
    seen.retain(|b| !f.block(*b).dead);
    seen
}

/// Reachability from the entry as a mask indexed by block id; dead
/// blocks are never reachable. The dense counterpart of
/// [`reachable_blocks`].
pub fn reachable_mask(f: &Function) -> Vec<bool> {
    let mut reach = vec![false; f.blocks.len()];
    let mut stack = vec![f.entry];
    while let Some(b) = stack.pop() {
        let blk = f.block(b);
        if reach[b.index()] || blk.dead {
            continue;
        }
        reach[b.index()] = true;
        stack.extend(blk.term.successors().filter(|s| !reach[s.index()]));
    }
    reach
}

/// Removes every live block that the entry cannot reach; returns
/// whether it removed any.
pub fn remove_unreachable(f: &mut Function) -> bool {
    let reach = reachable_mask(f);
    let mut changed = false;
    for (b, reachable) in reach.into_iter().enumerate() {
        let id = BlockId(b as u32);
        if !reachable && !f.blocks[b].dead && id != f.entry {
            f.remove_block(id);
            changed = true;
        }
    }
    changed
}

/// Postorder over reachable blocks.
pub fn postorder(f: &Function) -> Vec<BlockId> {
    let mut order = Vec::new();
    let mut state: Vec<u8> = vec![0; f.blocks.len()]; // 0 unseen, 1 open, 2 done
                                                      // Iterative DFS with an explicit stack of (block, next-successor).
    let mut stack: Vec<(BlockId, usize)> = vec![(f.entry, 0)];
    state[f.entry.index()] = 1;
    while let Some(&mut (b, ref mut next)) = stack.last_mut() {
        if let Some(s) = f.block(b).term.successors().nth(*next) {
            *next += 1;
            if state[s.index()] == 0 && !f.block(s).dead {
                state[s.index()] = 1;
                stack.push((s, 0));
            }
        } else {
            state[b.index()] = 2;
            order.push(b);
            stack.pop();
        }
    }
    order
}

/// Reverse postorder over reachable blocks (a topological-ish order in
/// which every block precedes its non-back-edge successors).
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let mut po = postorder(f);
    po.reverse();
    po
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Terminator, Value};
    use crate::module::{Block, FuncAttrs, FuncId, Function, VReg};

    /// A diamond: bb0 -> {bb1, bb2} -> bb3.
    fn diamond() -> Function {
        let mut f = Function {
            name: "d".into(),
            id: FuncId(0),
            params: vec![],
            blocks: vec![],
            entry: BlockId(0),
            vreg_count: 1,
            vars: vec![],
            slots: vec![],
            line: 1,
            end_line: 1,
            attrs: FuncAttrs::default(),
        };
        f.blocks.push(Block::new(Terminator::Branch {
            cond: Value::Reg(VReg(0)),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
            prob_then: None,
        }));
        f.blocks.push(Block::new(Terminator::Jump(BlockId(3))));
        f.blocks.push(Block::new(Terminator::Jump(BlockId(3))));
        f.blocks.push(Block::new(Terminator::Ret(None)));
        f
    }

    #[test]
    fn preds_and_succs() {
        let f = diamond();
        assert!(f
            .block(BlockId(0))
            .term
            .successors()
            .eq([BlockId(1), BlockId(2)]));
        let preds = predecessors(&f);
        assert_eq!(preds[3], vec![BlockId(1), BlockId(2)]);
        assert!(preds[0].is_empty());
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_all() {
        let f = diamond();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 4);
        assert_eq!(*rpo.last().unwrap(), BlockId(3));
    }

    #[test]
    fn unreachable_blocks_excluded() {
        let mut f = diamond();
        // Orphan block.
        f.new_block(Terminator::Ret(None));
        let reach = reachable_blocks(&f);
        assert_eq!(reach.len(), 4);
        assert!(!reach.contains(&BlockId(4)));
        assert_eq!(reachable_mask(&f), [true, true, true, true, false]);
        remove_unreachable(&mut f);
        assert!(f.blocks[4].dead && !f.blocks[3].dead);
        assert_eq!(postorder(&f).len(), 4);
    }

    #[test]
    fn dead_blocks_excluded() {
        let mut f = diamond();
        // Retarget bb0 else to bb1 and kill bb2.
        f.block_mut(BlockId(0)).term = Terminator::Branch {
            cond: Value::Reg(VReg(0)),
            then_bb: BlockId(1),
            else_bb: BlockId(1),
            prob_then: None,
        };
        f.remove_block(BlockId(2));
        let reach = reachable_blocks(&f);
        assert!(!reach.contains(&BlockId(2)));
        assert_eq!(reach.len(), 3);
    }
}
