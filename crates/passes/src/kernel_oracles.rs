//! Differential and regression tests of the compiler's dense kernels
//! over the real-world suite at every personality and level:
//!
//! * the shared liveness fixpoint ([`dt_ir::liveness::UseDef::solve`])
//!   against the per-bit fixpoint it replaced, for IR [`Liveness`] after
//!   every middle-end stage and for machine-IR liveness after the
//!   backend passes (the register allocator's view included);
//! * the CFG analyses against the implementations they replaced, after
//!   every middle-end stage: the compressed predecessor map against
//!   per-block lists, the postorder against the `successors().nth()`
//!   search, the dominator tree over RPO positions against the one over
//!   block ids, and the bitset loop bodies against hash-set bodies;
//! * the dense reachability of inter-stage `cleanup` against a hash set;
//! * register-allocation frame sizes, pinned.

use crate::manager::{cleanup_module, PassConfig, PassGate};
use crate::{pipeline, OptLevel, Personality};
use dt_ir::liveness::RegMatrix;
use dt_ir::{BitSet, BlockId, DomTree, Function, Liveness, LoopForest, Module, VReg};
use dt_machine::mir::MFunction;
use std::collections::HashSet;

/// Whether `m` holds the sets `sets`, row by row.
fn rows_equal(m: &RegMatrix, sets: &[BitSet<VReg>]) -> bool {
    sets.iter()
        .enumerate()
        .all(|(b, s)| m.row(b).to_set() == *s)
}

/// The predecessor lists the compressed map replaced.
fn oracle_predecessors(f: &Function) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); f.blocks.len()];
    for b in f.block_ids() {
        for s in f.block(b).term.successors() {
            preds[s.index()].push(b);
        }
    }
    preds
}

/// The set of blocks reachable from the entry, as a hash set.
fn reachable_blocks(f: &Function) -> HashSet<BlockId> {
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

/// The postorder search that took each successor by `nth`.
fn oracle_postorder(f: &Function) -> Vec<BlockId> {
    let mut order = Vec::new();
    let mut state: Vec<u8> = vec![0; f.blocks.len()]; // 0 unseen, 1 open, 2 done
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

/// The dominator tree over block ids that the RPO-position tree
/// replaced.
struct OracleDom {
    idom: Vec<Option<BlockId>>,
    entry: BlockId,
}

impl OracleDom {
    fn compute(f: &Function) -> Self {
        let mut rpo = oracle_postorder(f);
        rpo.reverse();
        let preds = oracle_predecessors(f);
        let mut rpo_pos = vec![usize::MAX; f.blocks.len()];
        for (i, b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
        idom[f.entry.index()] = Some(f.entry);
        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| {
            while a != b {
                while rpo_pos[a.index()] > rpo_pos[b.index()] {
                    a = idom[a.index()].expect("processed");
                }
                while rpo_pos[b.index()] > rpo_pos[a.index()] {
                    b = idom[b.index()].expect("processed");
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        OracleDom {
            idom,
            entry: f.entry,
        }
    }

    fn idom(&self, b: BlockId) -> Option<BlockId> {
        if b == self.entry {
            return None;
        }
        self.idom[b.index()]
    }

    fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.idom[b.index()].is_none() || self.idom[a.index()].is_none() {
            return false;
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
}

/// One loop of the forest with hash-set bodies: header, body, latches,
/// depth.
type OracleLoop = (BlockId, HashSet<BlockId>, Vec<BlockId>, u32);

/// Natural loops with hash-set bodies, outermost first, as the bitset
/// forest replaced them.
fn oracle_loops(f: &Function, dom: &OracleDom) -> Vec<OracleLoop> {
    let preds = oracle_predecessors(f);
    let reachable = |b: BlockId| dom.idom[b.index()].is_some();
    let mut headers: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
    for b in f.block_ids().filter(|&b| reachable(b)) {
        for s in f.block(b).term.successors() {
            if dom.dominates(s, b) {
                match headers.iter_mut().find(|(h, _)| *h == s) {
                    Some((_, latches)) => latches.push(b),
                    None => headers.push((s, vec![b])),
                }
            }
        }
    }
    let mut loops: Vec<OracleLoop> = Vec::new();
    for (header, latches) in headers {
        let mut blocks: HashSet<BlockId> = HashSet::from([header]);
        let mut stack: Vec<BlockId> = latches.clone();
        while let Some(b) = stack.pop() {
            if blocks.insert(b) {
                stack.extend(preds[b.index()].iter().filter(|&&p| reachable(p)));
            }
        }
        loops.push((header, blocks, latches, 1));
    }
    let depths: Vec<u32> = loops
        .iter()
        .map(|l| {
            loops
                .iter()
                .filter(|o| o.0 != l.0 && o.1.contains(&l.0))
                .count() as u32
                + 1
        })
        .collect();
    for (l, d) in loops.iter_mut().zip(depths) {
        l.3 = d;
    }
    loops.sort_by_key(|l| l.3);
    loops
}

/// Checks every dense CFG analysis of `f` against its oracle.
fn check_cfg_analyses(at: &str, f: &Function) {
    let name = &f.name;
    let preds = dt_ir::predecessors(f);
    let lists = oracle_predecessors(f);
    assert_eq!(preds.len(), lists.len(), "{at}: {name} block count");
    assert!(
        (0..lists.len()).all(|b| preds[b] == lists[b][..]),
        "{at}: {name} predecessors differ"
    );
    assert_eq!(
        dt_ir::postorder(f),
        oracle_postorder(f),
        "{at}: {name} postorder differs"
    );

    let dom = DomTree::compute(f);
    let oracle = OracleDom::compute(f);
    let blocks = || (0..f.blocks.len() as u32).map(BlockId);
    for b in blocks() {
        assert_eq!(dom.idom(b), oracle.idom(b), "{at}: {name} idom of {b}");
        assert_eq!(
            dom.is_reachable(b),
            oracle.idom[b.index()].is_some(),
            "{at}: {name} reachability of {b}"
        );
        for a in blocks() {
            assert_eq!(
                dom.dominates(a, b),
                oracle.dominates(a, b),
                "{at}: {name} {a} dominates {b}"
            );
        }
    }

    let forest = LoopForest::compute(f, &dom);
    let loops = oracle_loops(f, &oracle);
    assert_eq!(forest.loops.len(), loops.len(), "{at}: {name} loop count");
    for (l, (header, body, latches, depth)) in forest.loops.iter().zip(&loops) {
        let mut sorted: Vec<BlockId> = body.iter().copied().collect();
        sorted.sort();
        assert!(
            l.header == *header && l.latches == *latches && l.depth == *depth,
            "{at}: {name} loop {header} differs"
        );
        assert!(
            l.blocks.iter().eq(sorted) && l.blocks.len() == body.len(),
            "{at}: {name} loop {header} body differs or is not ascending"
        );
    }
    for b in blocks() {
        let innermost = loops
            .iter()
            .filter(|l| l.1.contains(&b))
            .max_by_key(|l| l.3)
            .map(|l| l.0);
        assert_eq!(
            forest.innermost_containing(b).map(|l| l.header),
            innermost,
            "{at}: {name} innermost loop of {b}"
        );
    }
}

/// The per-bit backward fixpoint: a fresh set per block and sweep,
/// `in = use ∪ (out \ def)` one register at a time, over `order`.
fn per_bit_fixpoint(
    nregs: u32,
    order: &[usize],
    succs: &dyn Fn(usize) -> Vec<usize>,
    uses: &[BitSet<VReg>],
    defs: &[BitSet<VReg>],
) -> (Vec<BitSet<VReg>>, Vec<BitSet<VReg>>) {
    let mut live_in = vec![BitSet::with_capacity(nregs as usize); uses.len()];
    let mut live_out = live_in.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in order {
            let mut out = BitSet::with_capacity(nregs as usize);
            for s in succs(b) {
                out.union_with(&live_in[s]);
            }
            let mut inp = uses[b].clone();
            for r in (0..nregs).map(VReg) {
                if out.contains(r) && !defs[b].contains(r) {
                    inp.insert(r);
                }
            }
            if inp != live_in[b] {
                live_in[b] = inp;
                changed = true;
            }
            live_out[b] = out;
        }
    }
    (live_in, live_out)
}

/// Upward-exposed uses and definitions, one block at a time.
fn use_def(
    nblocks: usize,
    nregs: u32,
    blocks: impl Iterator<Item = (usize, Vec<(Vec<VReg>, Option<VReg>)>)>,
) -> (Vec<BitSet<VReg>>, Vec<BitSet<VReg>>) {
    let mut uses = vec![BitSet::with_capacity(nregs as usize); nblocks];
    let mut defs = uses.clone();
    for (b, steps) in blocks {
        for (reads, write) in steps {
            for r in reads {
                if !defs[b].contains(r) {
                    uses[b].insert(r);
                }
            }
            if let Some(d) = write {
                defs[b].insert(d);
            }
        }
    }
    (uses, defs)
}

/// IR liveness the per-bit way, in postorder.
fn ir_oracle(f: &Function) -> (Vec<BitSet<VReg>>, Vec<BitSet<VReg>>) {
    let regs = |v: dt_ir::Value, out: &mut Vec<VReg>| out.extend(v.as_reg());
    let blocks = f.block_ids().map(|b| {
        let blk = f.block(b);
        let mut steps = Vec::new();
        for inst in blk.insts.iter().filter(|i| !i.op.is_dbg()) {
            let mut reads = Vec::new();
            inst.op.for_each_use(|v| regs(v, &mut reads));
            steps.push((reads, inst.op.def()));
        }
        let mut reads = Vec::new();
        blk.term.for_each_use(|v| regs(v, &mut reads));
        steps.push((reads, None));
        (b.index(), steps)
    });
    let (uses, defs) = use_def(f.blocks.len(), f.vreg_count, blocks);
    let order: Vec<usize> = dt_ir::postorder(f).iter().map(|b| b.index()).collect();
    let succ = |b: usize| f.blocks[b].term.successors().map(|s| s.index()).collect();
    per_bit_fixpoint(f.vreg_count, &order, &succ, &uses, &defs)
}

/// Machine-IR liveness the per-bit way over `blocks`, swept in reverse
/// (`live_blocks()` was the backend passes' order, `layout` the
/// register allocator's).
fn mir_oracle(f: &MFunction, blocks: &[u32]) -> (Vec<BitSet<VReg>>, Vec<BitSet<VReg>>) {
    let steps = blocks.iter().map(|&b| {
        let blk = &f.blocks[b as usize];
        let mut steps: Vec<_> = blk
            .insts
            .iter()
            .map(|i| {
                let mut reads = Vec::new();
                i.op.for_each_use(|r| reads.push(VReg(r)));
                (reads, i.op.def().map(VReg))
            })
            .collect();
        let mut reads = Vec::new();
        blk.term.for_each_use(|r| reads.push(VReg(r)));
        steps.push((reads, None));
        (b as usize, steps)
    });
    let (uses, defs) = use_def(f.blocks.len(), f.nvregs, steps);
    let order: Vec<usize> = blocks.iter().rev().map(|&b| b as usize).collect();
    let succ = |b: usize| f.blocks[b].term.successors().map(|s| s as usize).collect();
    per_bit_fixpoint(f.nvregs, &order, &succ, &uses, &defs)
}

/// Runs every reference pipeline over the suite, calling `stage` on the
/// module after each middle-end pass (before the inter-stage `cleanup`,
/// so unreachable blocks are still there) and `backend` on the lowered
/// functions after the backend passes.
fn walk_suite(
    mut stage: impl FnMut(&str, &Module),
    mut backend: impl FnMut(&str, Personality, OptLevel, &[MFunction]),
) {
    for personality in [Personality::Gcc, Personality::Clang] {
        for &level in OptLevel::levels_for(personality) {
            let pipeline = pipeline::build(personality, level);
            let config = PassConfig {
                salvage: personality == Personality::Clang,
                profile: None,
            };
            for program in dt_testsuite::real_world_suite() {
                let mut m = dt_frontend::lower_source(program.source).unwrap();
                for inst in &pipeline.mid {
                    inst.pass.run_whole_module(&mut m, &config);
                    let at = format!("{} {personality} {level} after {}", program.name, inst.name);
                    stage(&at, &m);
                    cleanup_module(&mut m);
                }
                let backend_config = pipeline.backend_config(&PassGate::default());
                let (globals, _) = dt_machine::lower::global_layout(&m);
                let mm: Vec<MFunction> = m
                    .funcs
                    .iter()
                    .map(|f| {
                        let mut mf = dt_machine::lower::lower_function(f, &m, &globals);
                        dt_machine::optimize_function(&mut mf, &backend_config);
                        mf
                    })
                    .collect();
                let at = format!("{} {personality} {level}", program.name);
                backend(&at, personality, level, &mm);
            }
        }
    }
}

#[test]
fn ir_liveness_and_cleanup_reachability_match_their_oracles_after_every_stage() {
    walk_suite(
        |at, m| {
            for f in &m.funcs {
                let lv = Liveness::compute(f);
                let (live_in, live_out) = ir_oracle(f);
                assert!(
                    rows_equal(&lv.live_in, &live_in) && rows_equal(&lv.live_out, &live_out),
                    "{at}: {} liveness differs from the per-bit fixpoint",
                    f.name
                );
                let mask = dt_ir::reachable_mask(f);
                let set = reachable_blocks(f);
                assert!(
                    (0..f.blocks.len()).all(|b| mask[b] == set.contains(&BlockId(b as u32))),
                    "{at}: {} dense reachability differs",
                    f.name
                );
            }
        },
        |_, _, _, _| {},
    );
}

#[test]
fn cfg_analyses_match_their_oracles_after_every_stage() {
    walk_suite(
        |at, m| {
            for f in &m.funcs {
                check_cfg_analyses(at, f);
            }
        },
        |_, _, _, _| {},
    );
}

#[test]
fn machine_liveness_matches_the_per_bit_oracle_after_the_backend_passes() {
    walk_suite(
        |_, _| {},
        |at, _, _, mm| {
            for f in mm {
                let lv = dt_machine::opt::mliveness::compute(f);
                let live: Vec<u32> = f.live_blocks().collect();
                let (live_in, live_out) = mir_oracle(f, &live);
                assert!(
                    rows_equal(&lv.live_in, &live_in) && rows_equal(&lv.live_out, &live_out),
                    "{at}: {} machine liveness differs from the per-bit fixpoint",
                    f.name
                );
                // The allocator used to solve over the layout only; on
                // laid-out blocks that is the same fixpoint.
                let (layout_in, layout_out) = mir_oracle(f, &f.layout);
                for &b in &f.layout {
                    let b = b as usize;
                    assert!(
                        lv.live_in.row(b).to_set() == layout_in[b]
                            && lv.live_out.row(b).to_set() == layout_out[b],
                        "{at}: {} block {b}: layout-order liveness differs",
                        f.name
                    );
                }
            }
        },
    );
}

/// Frame sizes in words summed over every function, without and with
/// `share_spill_slots`, per personality and level (the reference
/// pipelines over the suite). Pinned from the allocator with hashed
/// interval maps and its own liveness fixpoint.
#[test]
fn share_spill_slots_frame_sizes_are_unchanged_on_the_suite() {
    let mut sums: Vec<(String, u32, u32)> = Vec::new();
    walk_suite(
        |_, _| {},
        |_, personality, level, mm| {
            let key = format!("{personality} {level}");
            if sums.last().map(|s| &s.0) != Some(&key) {
                sums.push((key, 0, 0));
            }
            let entry = sums.last_mut().unwrap();
            for f in mm {
                entry.1 += dt_machine::regalloc::allocate(f, false).frame_size;
                entry.2 += dt_machine::regalloc::allocate(f, true).frame_size;
            }
        },
    );
    let got: Vec<(&str, u32, u32)> = sums.iter().map(|(k, a, b)| (k.as_str(), *a, *b)).collect();
    assert_eq!(got, PINNED_FRAME_SIZES);
}

const PINNED_FRAME_SIZES: &[(&str, u32, u32)] = &[
    ("gcc Og", 329, 274),
    ("gcc O1", 350, 306),
    ("gcc O2", 514, 444),
    ("gcc O3", 542, 457),
    ("clang O1", 176, 164),
    ("clang O2", 402, 341),
    ("clang O3", 443, 379),
];
