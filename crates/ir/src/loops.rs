//! Natural-loop detection from back edges in the dominator tree.

use crate::bitset::BitSet;
use crate::dom::DomTree;
use crate::module::{BlockId, Function};

/// A natural loop: a header plus the set of blocks that reach the
/// header's back edges without passing through the header.
#[derive(Debug, Clone)]
pub struct Loop {
    pub header: BlockId,
    /// All blocks in the loop, including the header; iterates in
    /// ascending block order.
    pub blocks: BitSet<BlockId>,
    /// The back-edge sources (latches).
    pub latches: Vec<BlockId>,
    /// Nesting depth (1 = outermost).
    pub depth: u32,
}

impl Loop {
    /// Whether the loop contains block `b`.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(b)
    }
}

/// All natural loops of a function, outermost first.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    pub loops: Vec<Loop>,
}

impl LoopForest {
    /// Detects loops in `f` using `dom` (and its predecessor map).
    pub fn compute(f: &Function, dom: &DomTree) -> Self {
        // Find back edges: an edge (b -> h) where h dominates b. Headers
        // keep the order of their first back edge by source block.
        let mut headers: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for b in f.block_ids() {
            if !dom.is_reachable(b) {
                continue;
            }
            for s in f.block(b).term.successors() {
                if dom.dominates(s, b) {
                    match headers.iter_mut().find(|(h, _)| *h == s) {
                        Some((_, latches)) => latches.push(b),
                        None => headers.push((s, vec![b])),
                    }
                }
            }
        }

        let preds = dom.preds();
        let mut stack: Vec<BlockId> = Vec::new();
        let mut loops = Vec::with_capacity(headers.len());
        for (header, latches) in headers {
            let mut blocks = BitSet::with_capacity(f.blocks.len());
            blocks.insert(header);
            stack.extend_from_slice(&latches);
            while let Some(b) = stack.pop() {
                if blocks.insert(b) {
                    stack.extend(
                        preds[b.index()]
                            .iter()
                            .filter(|&&p| dom.is_reachable(p) && !blocks.contains(p)),
                    );
                }
            }
            loops.push(Loop {
                header,
                blocks,
                latches,
                depth: 1,
            });
        }

        // Nesting depth: a loop is nested in every other loop that
        // contains its header (and is not itself).
        let containers: Vec<u32> = loops
            .iter()
            .map(|l| {
                loops
                    .iter()
                    .filter(|o| o.header != l.header && o.contains(l.header))
                    .count() as u32
                    + 1
            })
            .collect();
        for (l, d) in loops.iter_mut().zip(containers) {
            l.depth = d;
        }
        loops.sort_by_key(|l| l.depth);
        LoopForest { loops }
    }

    /// The innermost loop containing `b`, if any.
    pub fn innermost_containing(&self, b: BlockId) -> Option<&Loop> {
        self.loops
            .iter()
            .filter(|l| l.contains(b))
            .max_by_key(|l| l.depth)
    }
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
    fn single_loop() {
        // bb0 -> bb1(header) -> {bb2(body), bb3}; bb2 -> bb1
        let f = function_with(vec![
            Block::new(Terminator::Jump(BlockId(1))),
            Block::new(branch(2, 3)),
            Block::new(Terminator::Jump(BlockId(1))),
            Block::new(Terminator::Ret(None)),
        ]);
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.header, BlockId(1));
        assert!(l.contains(BlockId(2)));
        assert!(!l.contains(BlockId(0)));
        assert!(l.blocks.iter().eq([BlockId(1), BlockId(2)]));
        assert_eq!(l.latches, vec![BlockId(2)]);
        assert_eq!(l.depth, 1);
    }

    #[test]
    fn nested_loops() {
        // bb0 -> bb1(outer hdr) -> {bb2(inner hdr), bb5}
        // bb2 -> {bb3(inner body), bb4}; bb3 -> bb2; bb4 -> bb1
        let f = function_with(vec![
            Block::new(Terminator::Jump(BlockId(1))),
            Block::new(branch(2, 5)),
            Block::new(branch(3, 4)),
            Block::new(Terminator::Jump(BlockId(2))),
            Block::new(Terminator::Jump(BlockId(1))),
            Block::new(Terminator::Ret(None)),
        ]);
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.loops.len(), 2);
        let with_header = |h| {
            forest
                .loops
                .iter()
                .find(|l| l.header == BlockId(h))
                .unwrap()
        };
        let (outer, inner) = (with_header(1), with_header(2));
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert!(outer.contains(BlockId(3)));
        let depth = |b| {
            forest
                .innermost_containing(BlockId(b))
                .map_or(0, |l| l.depth)
        };
        assert_eq!(depth(3), 2);
        assert_eq!(depth(4), 1);
        assert_eq!(depth(5), 0);
    }

    #[test]
    fn no_loops_in_acyclic_cfg() {
        let f = function_with(vec![
            Block::new(branch(1, 2)),
            Block::new(Terminator::Jump(BlockId(2))),
            Block::new(Terminator::Ret(None)),
        ]);
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert!(forest.loops.is_empty());
        assert!(forest.innermost_containing(BlockId(1)).is_none());
    }

    #[test]
    fn self_loop() {
        let f = function_with(vec![
            Block::new(Terminator::Jump(BlockId(1))),
            Block::new(branch(1, 2)),
            Block::new(Terminator::Ret(None)),
        ]);
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.loops.len(), 1);
        assert_eq!(forest.loops[0].header, BlockId(1));
        assert_eq!(forest.loops[0].latches, vec![BlockId(1)]);
    }
}
