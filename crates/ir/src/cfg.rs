//! CFG utilities: the predecessor map, reachability and block
//! orderings.
//!
//! Every kernel here is dense: indexed by block id, built in a few
//! linear sweeps, and ordered by block id or by the depth-first search,
//! never by a hasher.

use crate::inst::Terminator;
use crate::module::{BlockId, Function};
use std::ops::Index;

/// The predecessors of every block in compressed sparse row form: the
/// predecessors of block `b` are `list[offsets[b]..offsets[b + 1]]`, in
/// ascending block order. A block that branches to `b` on both edges
/// appears twice. Index it by block index (`preds[b.index()]`).
#[derive(Debug, Clone)]
pub struct Preds {
    offsets: Vec<u32>,
    list: Vec<BlockId>,
}

impl Preds {
    /// The number of blocks.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One list per block, for a caller that edits them.
    pub fn to_lists(&self) -> Vec<Vec<BlockId>> {
        (0..self.len()).map(|b| self[b].to_vec()).collect()
    }
}

impl Index<usize> for Preds {
    type Output = [BlockId];

    fn index(&self, b: usize) -> &[BlockId] {
        &self.list[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }
}

/// Predecessors of each live block (dead blocks have none and are
/// nobody's predecessor).
pub fn predecessors(f: &Function) -> Preds {
    let n = f.blocks.len();
    // Count each block's predecessors, take inclusive prefix sums (so
    // `offsets[b]` is the end of `b`'s range), then fill every range
    // back to front: the blocks go in descending order, so each range
    // ends up ascending and `offsets[b]` at its start.
    let mut offsets = vec![0u32; n + 1];
    for blk in f.blocks.iter().filter(|blk| !blk.dead) {
        for s in blk.term.successors() {
            offsets[s.index()] += 1;
        }
    }
    let mut total = 0;
    for o in &mut offsets {
        total += *o;
        *o = total;
    }
    let mut list = vec![BlockId(0); total as usize];
    for (b, blk) in f.blocks.iter().enumerate().rev() {
        if blk.dead {
            continue;
        }
        for s in blk.term.successors() {
            let at = &mut offsets[s.index()];
            *at -= 1;
            list[*at as usize] = BlockId(b as u32);
        }
    }
    Preds { offsets, list }
}

/// Reachability from the entry as a mask indexed by block id; dead
/// blocks are never reachable.
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

/// The `i`-th successor of `term` (then before else).
fn successor(term: &Terminator, i: u8) -> Option<BlockId> {
    match (term, i) {
        (Terminator::Jump(b), 0) => Some(*b),
        (Terminator::Branch { then_bb, .. }, 0) => Some(*then_bb),
        (Terminator::Branch { else_bb, .. }, 1) => Some(*else_bb),
        _ => None,
    }
}

/// Postorder over reachable blocks: a depth-first search from the
/// entry that takes successors in order (then before else).
pub fn postorder(f: &Function) -> Vec<BlockId> {
    let mut order = Vec::with_capacity(f.blocks.len());
    let mut seen = vec![false; f.blocks.len()];
    // Iterative DFS with an explicit stack of (block, next successor).
    let mut stack: Vec<(BlockId, u8)> = vec![(f.entry, 0)];
    seen[f.entry.index()] = true;
    while let Some((b, next)) = stack.last_mut() {
        if let Some(s) = successor(&f.blocks[b.index()].term, *next) {
            *next += 1;
            if !seen[s.index()] && !f.blocks[s.index()].dead {
                seen[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            order.push(*b);
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
    use crate::bitset::BitSet;
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
        assert_eq!(preds[3], [BlockId(1), BlockId(2)]);
        assert!(preds[0].is_empty());
        assert_eq!(preds.to_lists()[1], [BlockId(0)]);
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
        assert_eq!(reachable_mask(&f), [true, true, false, true]);
        assert_eq!(postorder(&f), [BlockId(3), BlockId(1), BlockId(0)]);
        let preds = predecessors(&f);
        assert_eq!(preds[1], [BlockId(0), BlockId(0)], "one entry per edge");
        assert!(preds[2].is_empty());
    }

    #[test]
    fn block_sets_iterate_ascending_and_grow() {
        let members = [200u32, 3, 64, 0, 63, 130];
        let mut s = BitSet::with_capacity(10);
        for &b in &members {
            assert!(s.insert(BlockId(b)));
        }
        assert!(!s.insert(BlockId(64)), "double insert reports no change");
        assert!(s.iter().map(|b| b.0).eq([0, 3, 63, 64, 130, 200]));
        assert_eq!(s.len(), members.len());
        assert!(s.contains(BlockId(200)) && !s.contains(BlockId(1000)));
        let collected: BitSet<BlockId> = [BlockId(5), BlockId(1)].into_iter().collect();
        assert!(collected.iter().eq([BlockId(1), BlockId(5)]));
        assert!(BitSet::<BlockId>::with_capacity(64).is_empty());
    }
}
