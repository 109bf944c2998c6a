//! Linear-scan register allocation and code linearization.
//!
//! Classic Poletto-style linear scan over live intervals computed from
//! block-level liveness in layout order. Five allocatable registers
//! (`r0..r4`); values live across calls are spilled (all registers are
//! caller-saved); spilled operands are reloaded through the three
//! scratch registers.
//!
//! Debug interaction: `dbg.value` pseudos referencing an allocated
//! virtual register are rewritten to the physical register; pseudos
//! referencing a *spilled* register are rewritten to the frame slot —
//! spilling therefore *improves* variable availability, as it does in
//! real compilers. With `share_spill_slots` (gcc's
//! `ira-share-spill-slots`) disjoint intervals reuse frame words,
//! shrinking frames but making slot-based variable locations die when
//! the slot's next tenant starts.

use crate::mir::{MDbgLoc, MFunction, MInst, MOpKind, MTerm, VR};
use crate::object::{FDbgLoc, FInst, FOp};
use crate::opt::mliveness;
use crate::preg::PReg;

/// Result of allocating one function.
pub struct AllocResult {
    /// Final linear code; jump targets are local instruction indices.
    pub insts: Vec<FInst>,
    /// Frame size in words (user slots + spills).
    pub frame_size: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Assignment {
    Reg(u8),
    /// Frame word offset of the spill slot.
    Spill(u32),
}

/// Allocates registers for `f` and linearizes it along `f.layout`.
pub fn allocate(f: &MFunction, share_spill_slots: bool) -> AllocResult {
    assert!(
        !f.layout.is_empty(),
        "layout must be computed before regalloc"
    );
    assert_eq!(f.layout[0], f.entry, "entry must lead the layout");

    let (intervals, call_positions) = build_intervals(f);
    let user_words: u32 = f.slot_sizes.iter().sum();
    let slot_offsets = slot_offsets(&f.slot_sizes);
    let assignment = run_linear_scan(
        &intervals,
        &call_positions,
        f.nvregs,
        user_words,
        share_spill_slots,
    );

    let max_spill = assignment
        .iter()
        .filter_map(|a| match a {
            Some(Assignment::Spill(off)) => Some(off + 1),
            _ => None,
        })
        .max()
        .unwrap_or(user_words);
    let frame_size = max_spill.max(user_words);

    let insts = rewrite(f, &assignment, &slot_offsets);
    AllocResult { insts, frame_size }
}

/// Prefix-sum word offsets of the user slots.
fn slot_offsets(sizes: &[u32]) -> Vec<u32> {
    let mut offs = Vec::with_capacity(sizes.len());
    let mut cur = 0;
    for &s in sizes {
        offs.push(cur);
        cur += s;
    }
    offs
}

/// Live intervals `(vreg, start, end)` in linear-position space,
/// sorted by start then vreg, plus the call positions (ascending).
fn build_intervals(f: &MFunction) -> (Vec<(VR, u32, u32)>, Vec<u32>) {
    let live = mliveness::compute(f);
    // (start, end) per vreg; a start of `u32::MAX` means no interval.
    let mut range: Vec<(u32, u32)> = vec![(u32::MAX, 0); f.nvregs as usize];
    let mut extend = |r: VR, pos: u32| {
        let (s, e) = &mut range[r as usize];
        *s = (*s).min(pos);
        *e = (*e).max(pos);
    };
    let mut calls = Vec::new();
    let mut pos = 0u32;
    for &b in &f.layout {
        let blk = &f.blocks[b as usize];
        for r in live.live_in.row(b as usize).iter() {
            extend(r.0, pos);
        }
        for inst in &blk.insts {
            if inst.op.is_dbg() {
                continue; // pseudos occupy no position
            }
            inst.op.for_each_use(|r| extend(r, pos));
            if let Some(d) = inst.op.def() {
                extend(d, pos);
            }
            if matches!(inst.op, MOpKind::CallF { .. }) {
                calls.push(pos);
            }
            pos += 1;
        }
        blk.term.for_each_use(|r| extend(r, pos));
        pos += 1; // terminator position
        for r in live.live_out.row(b as usize).iter() {
            extend(r.0, pos);
        }
    }

    let mut intervals: Vec<(VR, u32, u32)> = range
        .into_iter()
        .enumerate()
        .filter(|&(_, (s, _))| s != u32::MAX)
        .map(|(r, (s, e))| (r as VR, s, e))
        .collect();
    intervals.sort_unstable_by_key(|&(r, s, _)| (s, r));
    (intervals, calls)
}

/// Whether a call position lies strictly inside `(start, end)`; a call
/// exactly at either bound does not cross. `calls` is ascending.
fn crosses_call(calls: &[u32], start: u32, end: u32) -> bool {
    let first_after_start = calls.partition_point(|&c| c <= start);
    calls.get(first_after_start).is_some_and(|&c| c < end)
}

/// Assigns every interval a register or a spill slot; the result is
/// indexed by vreg (`None` for vregs without an interval).
fn run_linear_scan(
    intervals: &[(VR, u32, u32)],
    calls: &[u32],
    nvregs: u32,
    spill_base: u32,
    share_spill_slots: bool,
) -> Vec<Option<Assignment>> {
    let mut assignment: Vec<Option<Assignment>> = vec![None; nvregs as usize];
    // (end, vreg, reg, start) for intervals currently holding a register.
    let mut active: Vec<(u32, VR, u8, u32)> = Vec::new();
    let mut free: Vec<u8> = (0..PReg::ALLOCATABLE as u8).rev().collect();

    // Spill-slot pool: (last occupied position, offset) per slot ever
    // allocated in shared mode. A slot is reusable for an interval
    // starting strictly after its current tenant ends.
    let mut slot_pool: Vec<(u32, u32)> = Vec::new();
    let mut next_slot = spill_base;

    let alloc_slot =
        |start: u32, end: u32, slot_pool: &mut Vec<(u32, u32)>, next_slot: &mut u32| {
            if share_spill_slots {
                if let Some(entry) = slot_pool.iter_mut().find(|(e, _)| *e < start) {
                    entry.0 = end;
                    return entry.1;
                }
                let off = *next_slot;
                *next_slot += 1;
                slot_pool.push((end, off));
                off
            } else {
                let s = *next_slot;
                *next_slot += 1;
                s
            }
        };

    for &(v, s, e) in intervals {
        active.retain(|&(end, _, reg, _)| {
            if end < s {
                free.push(reg);
                false
            } else {
                true
            }
        });

        if crosses_call(calls, s, e) {
            let off = alloc_slot(s, e, &mut slot_pool, &mut next_slot);
            assignment[v as usize] = Some(Assignment::Spill(off));
            continue;
        }

        if let Some(reg) = free.pop() {
            active.push((e, v, reg, s));
            assignment[v as usize] = Some(Assignment::Reg(reg));
            continue;
        }

        // All registers busy: spill the interval that ends last.
        let (vi, &(vend, victim, vreg_phys, vstart)) = active
            .iter()
            .enumerate()
            .max_by_key(|(_, &(end, _, _, _))| end)
            .expect("active cannot be empty when no register is free");
        if vend > e {
            // The victim's slot must cover its *whole* interval, which
            // began before the current position.
            let off = alloc_slot(vstart, vend, &mut slot_pool, &mut next_slot);
            assignment[victim as usize] = Some(Assignment::Spill(off));
            active.remove(vi);
            active.push((e, v, vreg_phys, s));
            assignment[v as usize] = Some(Assignment::Reg(vreg_phys));
        } else {
            let off = alloc_slot(s, e, &mut slot_pool, &mut next_slot);
            assignment[v as usize] = Some(Assignment::Spill(off));
        }
    }
    assignment
}

/// Rewrites the function onto physical registers and linearizes it.
fn rewrite(f: &MFunction, assignment: &[Option<Assignment>], slot_offsets: &[u32]) -> Vec<FInst> {
    let mut out: Vec<FInst> = Vec::new();
    // Output index of each laid-out block's first instruction.
    let mut block_start: Vec<u32> = vec![u32::MAX; f.blocks.len()];
    // (out index, target block) pairs needing target resolution.
    let mut fixups: Vec<(usize, u32)> = Vec::new();

    // A vreg without an interval (only a debug pseudo references it)
    // reads as scratch0.
    let assigned = |v: VR| -> Assignment {
        assignment
            .get(v as usize)
            .copied()
            .flatten()
            .unwrap_or(Assignment::Reg(PReg::SCRATCH0.0))
    };

    for (li, &b) in f.layout.iter().enumerate() {
        block_start[b as usize] = out.len() as u32;
        let blk = &f.blocks[b as usize];
        let next_block = f.layout.get(li + 1).copied();

        for inst in &blk.insts {
            rewrite_inst(inst, &assigned, slot_offsets, &mut out);
        }

        // Terminator.
        let tline = blk.term_line;
        match &blk.term {
            MTerm::Jmp(t) => {
                if Some(*t) != next_block {
                    fixups.push((out.len(), *t));
                    out.push(term_inst(FOp::Jmp { target: 0 }, tline));
                }
            }
            MTerm::JCond {
                rs,
                then_bb,
                else_bb,
                ..
            } => {
                let rs = use_reg(*rs, &assigned, PReg::SCRATCH0.0, tline, &mut out);
                if Some(*else_bb) == next_block {
                    fixups.push((out.len(), *then_bb));
                    out.push(term_inst(
                        FOp::JCond {
                            rs,
                            if_nonzero: true,
                            target: 0,
                        },
                        tline,
                    ));
                } else if Some(*then_bb) == next_block {
                    fixups.push((out.len(), *else_bb));
                    out.push(term_inst(
                        FOp::JCond {
                            rs,
                            if_nonzero: false,
                            target: 0,
                        },
                        tline,
                    ));
                } else {
                    fixups.push((out.len(), *then_bb));
                    out.push(term_inst(
                        FOp::JCond {
                            rs,
                            if_nonzero: true,
                            target: 0,
                        },
                        tline,
                    ));
                    fixups.push((out.len(), *else_bb));
                    out.push(term_inst(FOp::Jmp { target: 0 }, 0));
                }
            }
            MTerm::Ret(v) => {
                match v {
                    Some(r) => match assigned(*r) {
                        Assignment::Reg(p) => {
                            if p != PReg::RET.0 {
                                out.push(synth(FOp::Mov {
                                    rd: PReg::RET.0,
                                    rs: p,
                                }));
                            }
                        }
                        Assignment::Spill(off) => out.push(synth(FOp::LdSlot {
                            rd: PReg::RET.0,
                            off,
                        })),
                    },
                    None => out.push(synth(FOp::Imm {
                        rd: PReg::RET.0,
                        value: 0,
                    })),
                }
                out.push(term_inst(FOp::Ret, tline));
            }
        }
    }

    for (idx, target_block) in fixups {
        let t = block_start[target_block as usize];
        assert_ne!(t, u32::MAX, "jump to a block outside the layout");
        match &mut out[idx].op {
            FOp::Jmp { target } | FOp::JCond { target, .. } => *target = t,
            _ => unreachable!(),
        }
    }
    out
}

fn synth(op: FOp) -> FInst {
    FInst {
        op,
        line: 0,
        stmt: false,
        fused: false,
    }
}

fn term_inst(op: FOp, line: u32) -> FInst {
    FInst {
        op,
        line,
        stmt: line != 0,
        fused: false,
    }
}

/// Resolves a use: returns the physical register holding `v`, emitting
/// a reload into `scratch` when `v` is spilled.
fn use_reg(
    v: VR,
    assigned: &dyn Fn(VR) -> Assignment,
    scratch: u8,
    line: u32,
    out: &mut Vec<FInst>,
) -> u8 {
    match assigned(v) {
        Assignment::Reg(p) => p,
        Assignment::Spill(off) => {
            out.push(FInst {
                op: FOp::LdSlot { rd: scratch, off },
                line,
                stmt: false,
                fused: false,
            });
            scratch
        }
    }
}

fn rewrite_inst(
    inst: &MInst,
    assigned: &dyn Fn(VR) -> Assignment,
    slot_offsets: &[u32],
    out: &mut Vec<FInst>,
) {
    let line = inst.line;
    let scratches = [PReg::SCRATCH0.0, PReg::SCRATCH1.0, PReg::SCRATCH2.0];
    let mut scratch_i = 0;
    // Collect the (up to 3) register uses in operand order, reloading
    // spilled ones into successive scratch registers.
    let mut mapped = [0u8; 3];
    let mut nmapped = 0;
    inst.op.for_each_use(|v| {
        let s = scratches[scratch_i.min(2)];
        let r = use_reg(v, assigned, s, line, out);
        if r == s {
            scratch_i += 1;
        }
        mapped[nmapped] = r;
        nmapped += 1;
    });
    let mut next_use = {
        let mut i = 0usize;
        move || {
            let r = mapped[i];
            i += 1;
            r
        }
    };

    // The destination: physical, or computed into scratch0 + stored.
    let (dst, dst_spill): (u8, Option<u32>) = match inst.op.def() {
        Some(d) => match assigned(d) {
            Assignment::Reg(p) => (p, None),
            Assignment::Spill(off) => (PReg::SCRATCH0.0, Some(off)),
        },
        None => (0, None),
    };

    let fop = match &inst.op {
        MOpKind::Imm { value, .. } => Some(FOp::Imm {
            rd: dst,
            value: *value,
        }),
        MOpKind::Mov { .. } => {
            let rs = next_use();
            Some(FOp::Mov { rd: dst, rs })
        }
        MOpKind::Un { op, .. } => {
            let rs = next_use();
            Some(FOp::Un {
                op: *op,
                rd: dst,
                rs,
            })
        }
        MOpKind::Bin { op, .. } => {
            let ra = next_use();
            let rb = next_use();
            Some(FOp::Bin {
                op: *op,
                rd: dst,
                ra,
                rb,
            })
        }
        MOpKind::BinImm { op, imm, .. } => {
            let ra = next_use();
            Some(FOp::BinImm {
                op: *op,
                rd: dst,
                ra,
                imm: *imm,
            })
        }
        MOpKind::Select { .. } => {
            let rc = next_use();
            let ra = next_use();
            let rb = next_use();
            Some(FOp::Select {
                rd: dst,
                rc,
                ra,
                rb,
            })
        }
        MOpKind::LdSlot { slot, .. } => Some(FOp::LdSlot {
            rd: dst,
            off: slot_offsets[*slot as usize],
        }),
        MOpKind::StSlot { slot, .. } => {
            let rs = next_use();
            Some(FOp::StSlot {
                off: slot_offsets[*slot as usize],
                rs,
            })
        }
        MOpKind::LdIdx { slot, len, .. } => {
            let ri = next_use();
            Some(FOp::LdIdx {
                rd: dst,
                off: slot_offsets[*slot as usize],
                ri,
                len: *len,
            })
        }
        MOpKind::StIdx { slot, len, .. } => {
            let ri = next_use();
            let rs = next_use();
            Some(FOp::StIdx {
                off: slot_offsets[*slot as usize],
                ri,
                rs,
                len: *len,
            })
        }
        MOpKind::LdG { addr, .. } => Some(FOp::LdG {
            rd: dst,
            addr: *addr,
        }),
        MOpKind::StG { addr, .. } => {
            let rs = next_use();
            Some(FOp::StG { addr: *addr, rs })
        }
        MOpKind::LdGIdx { base, len, .. } => {
            let ri = next_use();
            Some(FOp::LdGIdx {
                rd: dst,
                base: *base,
                ri,
                len: *len,
            })
        }
        MOpKind::StGIdx { base, len, .. } => {
            let ri = next_use();
            let rs = next_use();
            Some(FOp::StGIdx {
                base: *base,
                ri,
                rs,
                len: *len,
            })
        }
        MOpKind::SetArg { k, .. } => {
            let rs = next_use();
            Some(FOp::SetArg { k: *k, rs })
        }
        MOpKind::GetArg { k, .. } => Some(FOp::GetArg { rd: dst, k: *k }),
        MOpKind::CallF { func } => Some(FOp::CallF { func: *func }),
        MOpKind::CopyRet { rd } => match assigned(*rd) {
            Assignment::Reg(p) => Some(FOp::Mov {
                rd: p,
                rs: PReg::RET.0,
            }),
            Assignment::Spill(off) => Some(FOp::StSlot {
                off,
                rs: PReg::RET.0,
            }),
        },
        MOpKind::In { .. } => {
            let ri = next_use();
            Some(FOp::In { rd: dst, ri })
        }
        MOpKind::InLen { .. } => Some(FOp::InLen { rd: dst }),
        MOpKind::Out { .. } => {
            let rs = next_use();
            Some(FOp::Out { rs })
        }
        MOpKind::Dbg { var, loc } => {
            let floc = match loc {
                MDbgLoc::Reg(v) => match assigned(*v) {
                    Assignment::Reg(p) => FDbgLoc::Reg(p),
                    Assignment::Spill(off) => FDbgLoc::Slot(off),
                },
                MDbgLoc::Slot(s) => FDbgLoc::Slot(slot_offsets[*s as usize]),
                MDbgLoc::Const(c) => FDbgLoc::Const(*c),
                MDbgLoc::Undef => FDbgLoc::Undef,
            };
            Some(FOp::Dbg {
                var: *var,
                loc: floc,
            })
        }
    };

    if let Some(op) = fop {
        let is_copy_ret_spill =
            matches!(inst.op, MOpKind::CopyRet { .. }) && matches!(op, FOp::StSlot { .. });
        out.push(FInst {
            op,
            line,
            stmt: inst.stmt,
            fused: inst.fused,
        });
        // A spilled destination needs the computed scratch stored back
        // (CopyRet stores directly).
        if let Some(off) = dst_spill {
            if !is_copy_ret_spill {
                out.push(FInst {
                    op: FOp::StSlot {
                        off,
                        rs: PReg::SCRATCH0.0,
                    },
                    line,
                    stmt: false,
                    fused: false,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_module;

    fn alloc(src: &str, share: bool) -> Vec<AllocResult> {
        let m = dt_frontend::lower_source(src).unwrap();
        let mm = lower_module(&m);
        mm.funcs.iter().map(|f| allocate(f, share)).collect()
    }

    fn regs_used(r: &AllocResult) -> Vec<u8> {
        let mut regs = std::collections::BTreeSet::new();
        for i in &r.insts {
            if let FOp::Bin { rd, ra, rb, .. } = &i.op {
                regs.extend([*rd, *ra, *rb]);
            }
        }
        regs.into_iter().collect()
    }

    #[test]
    fn simple_function_allocates_registers() {
        let rs = alloc("int f(int a, int b) { return a + b; }", false);
        let r = &rs[0];
        assert!(r.insts.iter().any(|i| matches!(i.op, FOp::GetArg { .. })));
        assert!(r.insts.iter().any(|i| matches!(i.op, FOp::Ret)));
        // Registers stay within the 8-register file.
        for reg in regs_used(r) {
            assert!((reg as usize) < PReg::COUNT);
        }
    }

    #[test]
    fn values_live_across_calls_are_spilled() {
        let rs = alloc(
            "int g(int x) { return x; }\n\
             int f(int a) { int t = a * 2; int u = g(a); return t + u; }",
            false,
        );
        let f = &rs[1];
        // `t` is live across the call to g, so a spill store + reload
        // pair must exist beyond the user slot traffic.
        let stores = f
            .insts
            .iter()
            .filter(|i| matches!(i.op, FOp::StSlot { .. }))
            .count();
        assert!(stores >= 2, "expected spill traffic, got {stores} stores");
        assert!(f.frame_size >= 3, "frame must hold slots + spills");
    }

    #[test]
    fn shared_spill_slots_shrink_frames() {
        // Lots of sequential, short-lived values that cross calls.
        let src = "int g(int x) { return x; }\n\
            int f(int a) {\n\
              int t1 = g(a) + a; out(t1);\n\
              int t2 = g(a) + a; out(t2);\n\
              int t3 = g(a) + a; out(t3);\n\
              int t4 = g(a) + a; out(t4);\n\
              return 0; }";
        let noshare = alloc(src, false)[1].frame_size;
        let share = alloc(src, true)[1].frame_size;
        assert!(
            share <= noshare,
            "sharing must not grow the frame ({share} vs {noshare})"
        );
    }

    #[test]
    fn jump_targets_resolve_to_local_indices() {
        let rs = alloc(
            "int f(int n) { int s = 0; while (s < n) { s = s + 1; } return s; }",
            false,
        );
        let f = &rs[0];
        for i in &f.insts {
            match &i.op {
                FOp::Jmp { target } | FOp::JCond { target, .. } => {
                    assert!((*target as usize) < f.insts.len());
                }
                _ => {}
            }
        }
        // The loop needs at least one backward branch.
        let has_backward = f.insts.iter().enumerate().any(|(idx, i)| match &i.op {
            FOp::Jmp { target } | FOp::JCond { target, .. } => (*target as usize) <= idx,
            _ => false,
        });
        assert!(has_backward);
    }

    #[test]
    fn dbg_pseudos_survive_with_mapped_locations() {
        let rs = alloc("int f() { int x = 42; out(x); return x; }", false);
        let f = &rs[0];
        let dbg_count = f
            .insts
            .iter()
            .filter(|i| matches!(i.op, FOp::Dbg { .. }))
            .count();
        assert!(dbg_count >= 1);
        // O0-style: the location is the variable's home slot.
        assert!(f.insts.iter().any(|i| matches!(
            i.op,
            FOp::Dbg {
                loc: FDbgLoc::Slot(_),
                ..
            }
        )));
    }

    #[test]
    fn calls_at_an_interval_bound_do_not_cross_it() {
        let calls = [3, 7, 12];
        assert!(!crosses_call(&calls, 3, 7), "calls exactly at both bounds");
        assert!(!crosses_call(&calls, 0, 3), "call exactly at the end");
        assert!(!crosses_call(&calls, 12, 20), "call exactly at the start");
        assert!(!crosses_call(&calls, 4, 6), "no call in between");
        assert!(!crosses_call(&calls, 7, 8), "adjacent positions");
        assert!(crosses_call(&calls, 2, 4));
        assert!(crosses_call(&calls, 6, 8));
        assert!(crosses_call(&calls, 0, 20));
        assert!(crosses_call(&calls, 11, 13));
        assert!(!crosses_call(&[], 0, 20));
        // Point intervals never cross.
        assert!(!crosses_call(&calls, 7, 7));
    }

    #[test]
    fn dbg_only_vreg_reads_as_scratch0() {
        use crate::mir::{MBlock, MVarInfo};
        // %1 is referenced by a debug pseudo only, so it has no
        // interval and no assignment.
        let mut f = MFunction {
            name: "t".into(),
            blocks: vec![MBlock {
                insts: vec![
                    MInst::new(MOpKind::Imm { rd: 0, value: 7 }, 1),
                    MInst::new(
                        MOpKind::Dbg {
                            var: 0,
                            loc: MDbgLoc::Reg(1),
                        },
                        1,
                    ),
                ],
                term: MTerm::Ret(Some(0)),
                term_line: 2,
                dead: false,
            }],
            entry: 0,
            layout: vec![],
            nvregs: 2,
            slot_sizes: vec![],
            vars: vec![MVarInfo {
                name: "x".into(),
                is_param: false,
                decl_line: 1,
            }],
            decl_line: 1,
            end_line: 2,
            nparams: 0,
            shrink_wrapped: false,
        };
        f.default_layout();
        let r = allocate(&f, false);
        assert!(r.insts.iter().any(|i| matches!(
            i.op,
            FOp::Dbg {
                var: 0,
                loc: FDbgLoc::Reg(p),
            } if p == PReg::SCRATCH0.0
        )));
        assert_eq!(r.frame_size, 0);
    }

    #[test]
    fn return_value_lands_in_r0() {
        let rs = alloc("int f() { return 7; }", false);
        let f = &rs[0];
        let ret_pos = f
            .insts
            .iter()
            .position(|i| matches!(i.op, FOp::Ret))
            .unwrap();
        // Some instruction before Ret must define r0.
        let defines_r0 = f.insts[..ret_pos].iter().any(|i| {
            matches!(
                i.op,
                FOp::Imm { rd: 0, .. }
                    | FOp::Mov { rd: 0, .. }
                    | FOp::LdSlot { rd: 0, .. }
                    | FOp::Bin { rd: 0, .. }
                    | FOp::BinImm { rd: 0, .. }
            )
        });
        assert!(defines_r0);
    }
}
