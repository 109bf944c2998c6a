//! Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm,
//! over reverse-postorder positions.

use crate::cfg::{predecessors, reverse_postorder, Preds};
use crate::module::{BlockId, Function};

/// The position of a block outside the reverse postorder (unreachable
/// or dead), and of a dominator not computed yet.
const NONE: u32 = u32::MAX;

/// The dominator tree of a function's reachable CFG. It keeps the
/// predecessor map and the reverse postorder it was computed from, for
/// the analyses built on it ([`crate::LoopForest`]).
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Reverse postorder of the reachable blocks; the entry is first.
    rpo: Vec<BlockId>,
    /// Each block's position in `rpo`, `NONE` for unreachable and dead
    /// blocks.
    pos: Vec<u32>,
    /// The immediate dominator of each reachable block, both as `rpo`
    /// positions (`idom[0] == 0`, the entry). A dominator precedes the
    /// blocks it dominates in `rpo`, so `idom[i] < i` for `i > 0`.
    idom: Vec<u32>,
    preds: Preds,
}

impl DomTree {
    /// Computes the dominator tree of `f`.
    pub fn compute(f: &Function) -> Self {
        let rpo = reverse_postorder(f);
        let preds = predecessors(f);
        let mut pos = vec![NONE; f.blocks.len()];
        for (i, b) in rpo.iter().enumerate() {
            pos[b.index()] = i as u32;
        }
        let mut idom = vec![NONE; rpo.len()];
        idom[0] = 0;

        let mut changed = true;
        while changed {
            changed = false;
            for (i, &b) in rpo.iter().enumerate().skip(1) {
                let mut new_idom = NONE;
                for &p in &preds[b.index()] {
                    let p = pos[p.index()];
                    if p == NONE || idom[p as usize] == NONE {
                        continue; // unreachable / not yet processed
                    }
                    new_idom = if new_idom == NONE {
                        p
                    } else {
                        intersect(&idom, new_idom, p)
                    };
                }
                if new_idom != NONE && idom[i] != new_idom {
                    idom[i] = new_idom;
                    changed = true;
                }
            }
        }

        DomTree {
            rpo,
            pos,
            idom,
            preds,
        }
    }

    /// The immediate dominator of `b` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.pos[b.index()] {
            NONE | 0 => None,
            i => Some(self.rpo[self.idom[i as usize] as usize]),
        }
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (a, mut cur) = (self.pos[a.index()], self.pos[b.index()]);
        if a == NONE || cur == NONE {
            return false; // unreachable blocks dominate nothing
        }
        // Dominators precede: climb while still below `a`.
        while cur > a {
            cur = self.idom[cur as usize];
        }
        cur == a
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.pos[b.index()] != NONE
    }

    /// Reverse postorder used by the computation.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// The predecessor map used by the computation.
    pub fn preds(&self) -> &Preds {
        &self.preds
    }
}

/// The nearest common dominator of two processed `rpo` positions.
fn intersect(idom: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while a > b {
            a = idom[a as usize];
        }
        while b > a {
            b = idom[b as usize];
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
