//! Differential and regression tests of the compiler's word-parallel
//! kernels over the real-world suite at every personality and level:
//!
//! * the shared liveness fixpoint ([`dt_ir::liveness::UseDef::solve`])
//!   against the per-bit fixpoint it replaced, for IR [`Liveness`] after
//!   every middle-end stage and for machine-IR liveness after the
//!   backend passes (the register allocator's view included);
//! * the dense reachability of inter-stage `cleanup` against
//!   [`dt_ir::reachable_blocks`];
//! * register-allocation frame sizes, pinned.

use crate::manager::{cleanup, PassConfig, PassGate};
use crate::{pipeline, OptLevel, Personality};
use dt_ir::liveness::RegSet;
use dt_ir::{Function, Liveness, Module, VReg};
use dt_machine::mir::{MFunction, MModule, VR};

/// The per-bit backward fixpoint: a fresh set per block and sweep,
/// `in = use ∪ (out \ def)` one register at a time, over `order`.
fn per_bit_fixpoint(
    nregs: u32,
    order: &[usize],
    succs: &dyn Fn(usize) -> Vec<usize>,
    uses: &[RegSet],
    defs: &[RegSet],
) -> (Vec<RegSet>, Vec<RegSet>) {
    let mut live_in = vec![RegSet::new(nregs); uses.len()];
    let mut live_out = live_in.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in order {
            let mut out = RegSet::new(nregs);
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
) -> (Vec<RegSet>, Vec<RegSet>) {
    let mut uses = vec![RegSet::new(nregs); nblocks];
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
fn ir_oracle(f: &Function) -> (Vec<RegSet>, Vec<RegSet>) {
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
fn mir_oracle(f: &MFunction<VR>, blocks: &[u32]) -> (Vec<RegSet>, Vec<RegSet>) {
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
/// so unreachable blocks are still there) and `backend` on the machine
/// module after the backend passes.
fn walk_suite(
    mut stage: impl FnMut(&str, &Module),
    mut backend: impl FnMut(&str, Personality, OptLevel, &MModule<VR>),
) {
    for personality in [Personality::Gcc, Personality::Clang] {
        for &level in OptLevel::levels_for(personality) {
            let pipeline = pipeline::build(personality, level);
            let config = PassConfig {
                salvage: personality == Personality::Clang,
                profile: None,
                level,
            };
            for program in dt_testsuite::real_world_suite() {
                let mut m = dt_frontend::lower_source(program.source).unwrap();
                for inst in &pipeline.mid {
                    inst.pass.run(&mut m, &config);
                    let at = format!("{} {personality} {level} after {}", program.name, inst.name);
                    stage(&at, &m);
                    cleanup(&mut m);
                }
                let backend_config = pipeline.backend_config(&PassGate::default());
                let mm = dt_machine::lower_and_optimize(&m, &backend_config);
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
                    lv.live_in == live_in && lv.live_out == live_out,
                    "{at}: {} liveness differs from the per-bit fixpoint",
                    f.name
                );
                let mask = dt_ir::reachable_mask(f);
                let set = dt_ir::reachable_blocks(f);
                assert!(
                    (0..f.blocks.len()).all(|b| mask[b] == set.contains(&dt_ir::BlockId(b as u32))),
                    "{at}: {} dense reachability differs",
                    f.name
                );
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
            for f in &mm.funcs {
                let lv = dt_machine::opt::mliveness::compute(f);
                let live: Vec<u32> = f.live_blocks().collect();
                let (live_in, live_out) = mir_oracle(f, &live);
                assert!(
                    lv.live_in == live_in && lv.live_out == live_out,
                    "{at}: {} machine liveness differs from the per-bit fixpoint",
                    f.name
                );
                // The allocator used to solve over the layout only; on
                // laid-out blocks that is the same fixpoint.
                let (layout_in, layout_out) = mir_oracle(f, &f.layout);
                for &b in &f.layout {
                    let b = b as usize;
                    assert!(
                        lv.live_in[b] == layout_in[b] && lv.live_out[b] == layout_out[b],
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
            for f in &mm.funcs {
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
