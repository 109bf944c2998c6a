//! Cross-jumping (`crossjumping` in gcc): merge identical instruction
//! tails of two predecessors of a join block.
//!
//! The merged tail is placed in a fresh block executed by both paths.
//! Because the tail now corresponds to *two* source regions, its
//! instructions are attributed to line 0 and debug pseudos inside it
//! are dropped — a pure code-size optimization with a pronounced
//! debug-information cost, which is exactly how the pass behaves in
//! gcc (top-10 debug-harmful at O2/O3 in the paper while barely
//! affecting cycle counts).

use crate::mir::{MBlock, MFunction, MInst, MTerm, VR};
use crate::opt::mliveness;
use dt_ir::{BitRow, VReg};
use std::collections::HashMap;

/// Minimum tail length (in real instructions) worth merging.
const MIN_TAIL: usize = 2;

/// Runs cross-jumping over all join blocks.
pub fn run(f: &mut MFunction) {
    let live = mliveness::compute(f);
    let preds = f.preds();
    let join_blocks: Vec<u32> = f
        .live_blocks()
        .filter(|&b| preds[b as usize].len() >= 2)
        .collect();

    for j in join_blocks {
        // Consider pairs of predecessors that both end in plain jumps.
        let ps: Vec<u32> = preds[j as usize]
            .iter()
            .copied()
            .filter(|&p| matches!(f.blocks[p as usize].term, MTerm::Jmp(t) if t == j))
            .collect();
        if ps.len() < 2 {
            continue;
        }
        let (p1, p2) = (ps[0], ps[1]);
        if p1 == p2 {
            continue;
        }
        let Some(tail_len) = common_tail(f, p1, p2, live.live_in.row(j as usize)) else {
            continue;
        };
        if tail_len < MIN_TAIL {
            continue;
        }
        merge_tails(f, p1, p2, j, tail_len);
    }
    f.default_layout();
}

/// Length (in real instructions) of the maximal mergeable common tail
/// of `p1` and `p2`, comparing operations with a register bijection.
/// Registers that survive into the join must be literally equal.
fn common_tail(f: &MFunction, p1: u32, p2: u32, join_live_in: BitRow<'_, VReg>) -> Option<usize> {
    let a: Vec<&MInst> = f.blocks[p1 as usize]
        .insts
        .iter()
        .filter(|i| !i.op.is_dbg())
        .collect();
    let b: Vec<&MInst> = f.blocks[p2 as usize]
        .insts
        .iter()
        .filter(|i| !i.op.is_dbg())
        .collect();
    // Try the longest candidate suffix first, verifying each forward
    // (so tail-internal definitions are seen before their uses).
    let max_len = a.len().min(b.len());
    for len in (1..=max_len).rev() {
        let mut map: HashMap<VR, VR> = HashMap::new();
        let mut rmap: HashMap<VR, VR> = HashMap::new();
        // Registers defined within the suffix so far. Only these may
        // differ between the two tails (tail-internal temps);
        // everything else is an *input* computed before the tail and
        // must be in the same register on both paths.
        let mut defined_a: std::collections::HashSet<VR> = Default::default();
        let mut defined_b: std::collections::HashSet<VR> = Default::default();
        let mut ok = true;
        for k in 0..len {
            let ia = a[a.len() - len + k];
            let ib = b[b.len() - len + k];
            if !ops_match(
                ia,
                ib,
                &mut map,
                &mut rmap,
                &mut defined_a,
                &mut defined_b,
                join_live_in,
            ) {
                ok = false;
                break;
            }
        }
        if ok {
            return Some(len);
        }
    }
    None
}

/// Structural equality of two machine ops under a register bijection
/// restricted to tail-internal definitions.
#[allow(clippy::too_many_arguments)]
fn ops_match(
    a: &MInst,
    b: &MInst,
    map: &mut HashMap<VR, VR>,
    rmap: &mut HashMap<VR, VR>,
    defined_a: &mut std::collections::HashSet<VR>,
    defined_b: &mut std::collections::HashSet<VR>,
    join_live_in: BitRow<'_, VReg>,
) -> bool {
    // Compare the op with registers masked out, then check the
    // register correspondence.
    let mut a_regs: Vec<VR> = Vec::new();
    let mut b_regs: Vec<VR> = Vec::new();
    let mut a_defs: Vec<VR> = Vec::new();
    let mut b_defs: Vec<VR> = Vec::new();
    let mut a_norm = a.op.clone();
    let mut b_norm = b.op.clone();
    a_norm.for_each_use_mut(|r| {
        a_regs.push(*r);
        *r = 0;
    });
    b_norm.for_each_use_mut(|r| {
        b_regs.push(*r);
        *r = 0;
    });
    if let Some(d) = a_norm.def() {
        a_defs.push(d);
        a_norm.set_def(0);
    }
    if let Some(d) = b_norm.def() {
        b_defs.push(d);
        b_norm.set_def(0);
    }
    if a_norm != b_norm || a_regs.len() != b_regs.len() || a_defs.len() != b_defs.len() {
        return false;
    }
    let consistent = |ra: VR, rb: VR, map: &mut HashMap<VR, VR>, rmap: &mut HashMap<VR, VR>| match (
        map.get(&ra),
        rmap.get(&rb),
    ) {
        (None, None) => {
            map.insert(ra, rb);
            rmap.insert(rb, ra);
            true
        }
        (Some(&m), Some(&rm)) => m == rb && rm == ra,
        _ => false,
    };
    for (&ra, &rb) in a_regs.iter().zip(&b_regs) {
        if ra == rb && !defined_a.contains(&ra) && !defined_b.contains(&rb) {
            continue; // shared input from before the tails
        }
        // Differing (or tail-redefined) registers: both sides must be
        // tail-internal (their defs sit later in the matched suffix,
        // which the backward walk has already visited).
        if !defined_a.contains(&ra) || !defined_b.contains(&rb) {
            return false;
        }
        if !consistent(ra, rb, map, rmap) {
            return false;
        }
    }
    for (&da, &db) in a_defs.iter().zip(&b_defs) {
        // Values observable at the join must be in the same register.
        let a_live = join_live_in.contains(VReg(da));
        let b_live = join_live_in.contains(VReg(db));
        if (a_live || b_live) && da != db {
            return false;
        }
        if da != db && !consistent(da, db, map, rmap) {
            return false;
        }
        defined_a.insert(da);
        defined_b.insert(db);
    }
    true
}

fn merge_tails(f: &mut MFunction, p1: u32, p2: u32, j: u32, tail_len: usize) {
    // Extract p1's tail (keeping its register names), drop its debug
    // pseudos, zero its lines.
    let take_tail = |blk: &mut MBlock, n: usize| -> Vec<MInst> {
        let mut real_seen = 0;
        let mut cut = blk.insts.len();
        for (i, inst) in blk.insts.iter().enumerate().rev() {
            if !inst.op.is_dbg() {
                real_seen += 1;
            }
            if real_seen == n {
                cut = i;
                break;
            }
        }
        blk.insts.split_off(cut)
    };

    let tail = take_tail(&mut f.blocks[p1 as usize], tail_len);
    let _ = take_tail(&mut f.blocks[p2 as usize], tail_len);

    let merged: Vec<MInst> = tail
        .into_iter()
        .filter(|i| !i.op.is_dbg())
        .map(|mut i| {
            i.line = 0; // ambiguous origin
            i.stmt = false;
            i
        })
        .collect();

    let new_bb = f.blocks.len() as u32;
    f.blocks.push(MBlock {
        insts: merged,
        term: MTerm::Jmp(j),
        term_line: 0,
        dead: false,
    });
    f.blocks[p1 as usize].term = MTerm::Jmp(new_bb);
    f.blocks[p1 as usize].term_line = 0;
    f.blocks[p2 as usize].term = MTerm::Jmp(new_bb);
    f.blocks[p2 as usize].term_line = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{MOpKind, MVarInfo};
    use dt_ir::BinOp;

    fn out_inst(rs: VR, line: u32) -> MInst {
        MInst::new(MOpKind::Out { rs }, line)
    }

    fn diamond_with_common_tails() -> MFunction {
        // Both arms end with: r3 = r0 + 1; out(r3)
        let mk_arm = |line: u32, temp: VR| {
            vec![
                MInst::new(
                    MOpKind::BinImm {
                        op: BinOp::Add,
                        rd: temp,
                        ra: 0,
                        imm: 1,
                    },
                    line,
                ),
                out_inst(temp, line + 1),
            ]
        };
        let blocks = vec![
            MBlock {
                insts: vec![MInst::new(MOpKind::GetArg { rd: 0, k: 0 }, 1)],
                term: MTerm::JCond {
                    rs: 0,
                    then_bb: 1,
                    else_bb: 2,
                    prob_then: None,
                },
                term_line: 2,
                dead: false,
            },
            MBlock {
                insts: mk_arm(3, 3),
                term: MTerm::Jmp(3),
                term_line: 0,
                dead: false,
            },
            MBlock {
                insts: mk_arm(6, 4),
                term: MTerm::Jmp(3),
                term_line: 0,
                dead: false,
            },
            MBlock {
                insts: vec![],
                term: MTerm::Ret(Some(0)),
                term_line: 9,
                dead: false,
            },
        ];
        let mut f = MFunction {
            name: "t".into(),
            blocks,
            entry: 0,
            layout: vec![],
            nvregs: 8,
            slot_sizes: vec![],
            vars: vec![MVarInfo {
                name: "x".into(),
                is_param: false,
                decl_line: 3,
            }],
            decl_line: 1,
            end_line: 9,
            nparams: 1,
            shrink_wrapped: false,
        };
        f.default_layout();
        f
    }

    #[test]
    fn merges_common_tails() {
        let mut f = diamond_with_common_tails();
        let before: usize = f
            .blocks
            .iter()
            .map(|b| b.insts.iter().filter(|i| !i.op.is_dbg()).count())
            .sum();
        run(&mut f);
        let after: usize = f
            .blocks
            .iter()
            .filter(|b| !b.dead)
            .map(|b| b.insts.iter().filter(|i| !i.op.is_dbg()).count())
            .sum();
        assert!(
            after < before,
            "cross-jumping must shrink code ({before} -> {after})"
        );
        // The merged tail exists in a new block with line 0.
        let merged = f.blocks.last().unwrap();
        assert!(merged.insts.iter().all(|i| i.line == 0));
    }

    #[test]
    fn different_tails_are_left_alone() {
        let mut f = diamond_with_common_tails();
        // Make the arms differ (different immediate).
        if let MOpKind::BinImm { imm, .. } = &mut f.blocks[2].insts[0].op {
            *imm = 99;
        }
        let before = f.blocks.len();
        run(&mut f);
        assert_eq!(f.blocks.len(), before, "no merge block should appear");
    }

    #[test]
    fn values_live_into_join_must_match_registers() {
        let mut f = diamond_with_common_tails();
        // Make the join use r3 (arm 1's temp) — merging would be unsound
        // because arm 2 computes into r4.
        f.blocks[3].term = MTerm::Ret(Some(3));
        let before = f.blocks.len();
        run(&mut f);
        assert_eq!(
            f.blocks.len(),
            before,
            "tails writing different live-out registers must not merge"
        );
    }
}
