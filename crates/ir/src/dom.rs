//! Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

use crate::cfg::{predecessors, reverse_postorder};
use crate::module::{BlockId, Function};

/// The dominator tree of a function's reachable CFG.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator of each block (`idom[entry] == entry`);
    /// `None` for unreachable or dead blocks.
    idom: Vec<Option<BlockId>>,
    rpo: Vec<BlockId>,
    entry: BlockId,
}

impl DomTree {
    /// Computes the dominator tree of `f`.
    pub fn compute(f: &Function) -> Self {
        let rpo = reverse_postorder(f);
        let preds = predecessors(f);
        let mut rpo_pos = vec![usize::MAX; f.blocks.len()];
        for (i, b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
        idom[f.entry.index()] = Some(f.entry);

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue; // not yet processed / unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_pos, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        DomTree {
            idom,
            rpo,
            entry: f.entry,
        }
    }

    /// The immediate dominator of `b` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        if b == self.entry {
            return None;
        }
        self.idom[b.index()]
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.idom[b.index()].is_none() || self.idom[a.index()].is_none() {
            return false; // unreachable blocks dominate nothing
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry {
                return false;
            }
            cur = self.idom[cur.index()].expect("reachable chain");
        }
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom[b.index()].is_some()
    }

    /// Reverse postorder used by the computation.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_pos: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_pos[a.index()] > rpo_pos[b.index()] {
            a = idom[a.index()].expect("processed");
        }
        while rpo_pos[b.index()] > rpo_pos[a.index()] {
            b = idom[b.index()].expect("processed");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Terminator, Value};
    use crate::module::{Block, FuncAttrs, FuncId, Function, VReg};

    fn function_with(blocks: Vec<Block>) -> Function {
        Function {
            name: "t".into(),
            id: FuncId(0),
            params: vec![],
            blocks,
            entry: BlockId(0),
            vreg_count: 1,
            vars: vec![],
            slots: vec![],
            line: 1,
            end_line: 1,
            attrs: FuncAttrs::default(),
        }
    }

    fn branch(t: u32, e: u32) -> Terminator {
        Terminator::Branch {
            cond: Value::Reg(VReg(0)),
            then_bb: BlockId(t),
            else_bb: BlockId(e),
            prob_then: None,
        }
    }

    #[test]
    fn diamond_dominators() {
        // bb0 -> {bb1, bb2} -> bb3
        let f = function_with(vec![
            Block::new(branch(1, 2)),
            Block::new(Terminator::Jump(BlockId(3))),
            Block::new(Terminator::Jump(BlockId(3))),
            Block::new(Terminator::Ret(None)),
        ]);
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dt.idom(BlockId(2)), Some(BlockId(0)));
        assert_eq!(dt.idom(BlockId(3)), Some(BlockId(0)));
        assert!(dt.dominates(BlockId(0), BlockId(3)));
        assert!(!dt.dominates(BlockId(1), BlockId(3)));
        assert!(dt.dominates(BlockId(3), BlockId(3)));
    }

    #[test]
    fn loop_dominators() {
        // bb0 -> bb1 (header) -> {bb2 (body), bb3 (exit)}, bb2 -> bb1
        let f = function_with(vec![
            Block::new(Terminator::Jump(BlockId(1))),
            Block::new(branch(2, 3)),
            Block::new(Terminator::Jump(BlockId(1))),
            Block::new(Terminator::Ret(None)),
        ]);
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(BlockId(2)), Some(BlockId(1)));
        assert_eq!(dt.idom(BlockId(3)), Some(BlockId(1)));
        assert!(dt.dominates(BlockId(1), BlockId(2)));
        assert!(!dt.dominates(BlockId(2), BlockId(3)));
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let f = function_with(vec![
            Block::new(Terminator::Ret(None)),
            Block::new(Terminator::Ret(None)), // orphan
        ]);
        let dt = DomTree::compute(&f);
        assert!(!dt.is_reachable(BlockId(1)));
        assert_eq!(dt.idom(BlockId(1)), None);
        assert!(!dt.dominates(BlockId(1), BlockId(0)));
    }

    #[test]
    fn entry_dominates_everything_reachable() {
        let f = function_with(vec![
            Block::new(branch(1, 2)),
            Block::new(branch(2, 3)),
            Block::new(Terminator::Jump(BlockId(3))),
            Block::new(Terminator::Ret(None)),
        ]);
        let dt = DomTree::compute(&f);
        for b in 0..4 {
            assert!(dt.dominates(BlockId(0), BlockId(b)));
        }
    }
}
