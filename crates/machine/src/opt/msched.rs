//! Instruction scheduling within blocks (`schedule-insns2`).
//!
//! List scheduling that hoists loads away from their consumers to hide
//! the VM's load-use stall (+2 cycles when an instruction consumes the
//! result of the immediately preceding load).
//!
//! Debug model: after reordering, any instruction whose source line
//! would step *backwards* relative to the lines already emitted in the
//! block is re-attributed to line 0 — the compiler cannot express a
//! non-monotone walk without confusing the debugger, so it gives the
//! moved instruction no line. This is the dominant back-end loss the
//! paper measures for `schedule-insns2`.

use crate::mir::{MFunction, MInst, VR};

/// Schedules every block of `f`.
pub fn run(f: &mut MFunction) {
    let block_ids: Vec<u32> = f.live_blocks().collect();
    let mut scratch = Scratch::new(f.nvregs);
    for b in block_ids {
        let insts = std::mem::take(&mut f.blocks[b as usize].insts);
        f.blocks[b as usize].insts = schedule_block(insts, &mut scratch);
    }
}

/// Buffers reused across the blocks of one function: dependence state
/// indexed by vreg (only the touched entries are reset after a block)
/// and the dependence graph indexed by unit.
struct Scratch {
    last_def: Vec<Option<usize>>,
    last_uses: Vec<Vec<usize>>,
    touched: Vec<VR>,
    succs: Vec<Vec<usize>>,
    indeg: Vec<usize>,
    /// `seen[j] == i + 1`: the edge `j -> i` is already recorded.
    seen: Vec<usize>,
}

impl Scratch {
    fn new(nvregs: u32) -> Self {
        Scratch {
            last_def: vec![None; nvregs as usize],
            last_uses: vec![Vec::new(); nvregs as usize],
            touched: Vec::new(),
            succs: Vec::new(),
            indeg: Vec::new(),
            seen: Vec::new(),
        }
    }

    /// Empties the graph buffers for a block of `n` units.
    fn start_block(&mut self, n: usize) {
        if self.succs.len() < n {
            self.succs.resize_with(n, Vec::new);
        }
        self.succs[..n].iter_mut().for_each(Vec::clear);
        self.indeg.clear();
        self.indeg.resize(n, 0);
        self.seen.clear();
        self.seen.resize(n, 0);
    }

    /// Records the edge `from -> to` once.
    fn edge(&mut self, from: usize, to: usize) {
        if self.seen[from] != to + 1 {
            self.seen[from] = to + 1;
            self.succs[from].push(to);
            self.indeg[to] += 1;
        }
    }

    fn reset_regs(&mut self) {
        for r in self.touched.drain(..) {
            self.last_def[r as usize] = None;
            self.last_uses[r as usize].clear();
        }
    }
}

/// A schedulable unit: one instruction plus the debug pseudos attached
/// directly after it (they describe its result and must travel with
/// it), as the range `start..end` of the block's instructions. Its
/// index is its original position (the stable tie-break).
struct Unit {
    start: usize,
    end: usize,
    is_load: bool,
    is_barrier: bool,
}

fn schedule_block(insts: Vec<MInst>, sc: &mut Scratch) -> Vec<MInst> {
    // Group instructions into units (inst + trailing Dbg pseudos).
    let mut units: Vec<Unit> = Vec::new();
    for (k, inst) in insts.iter().enumerate() {
        if let Some(last) = units.last_mut() {
            if inst.op.is_dbg() && !last.is_barrier {
                last.end = k + 1;
                continue;
            }
        }
        units.push(Unit {
            start: k,
            end: k + 1,
            is_load: inst.op.is_load(),
            is_barrier: inst.op.has_side_effect() || inst.op.is_dbg(),
        });
    }
    if units.len() < 3 {
        return insts;
    }
    let main = |u: usize| &insts[units[u].start];

    // Dependences: def-use over registers, plus barriers keep total
    // order among themselves and fence everything that follows them.
    // A barrier gets edges from the previous barrier and every unit
    // after it only: everything earlier already precedes that barrier,
    // so readiness (and thus the schedule) is the same as with an edge
    // from every earlier unit.
    let n = units.len();
    sc.start_block(n);
    let mut last_barrier: Option<usize> = None;
    for (i, u) in units.iter().enumerate() {
        let op = &insts[u.start].op;
        // True and anti dependences on registers (main inst only; the
        // attached pseudos reference the same def).
        op.for_each_use(|r| {
            if let Some(d) = sc.last_def[r as usize] {
                sc.edge(d, i);
            }
        });
        if let Some(d) = op.def() {
            if let Some(prev) = sc.last_def[d as usize] {
                sc.edge(prev, i); // output dependence
            }
            for k in 0..sc.last_uses[d as usize].len() {
                let use_i = sc.last_uses[d as usize][k];
                if use_i != i {
                    sc.edge(use_i, i); // anti dependence
                }
            }
        }
        if let Some(b) = last_barrier {
            sc.edge(b, i);
        }
        if u.is_barrier {
            for j in last_barrier.unwrap_or(0)..i {
                sc.edge(j, i);
            }
            last_barrier = Some(i);
        }
        op.for_each_use(|r| {
            sc.last_uses[r as usize].push(i);
            sc.touched.push(r);
        });
        if let Some(d) = op.def() {
            sc.last_def[d as usize] = Some(i);
            sc.last_uses[d as usize].clear();
            sc.touched.push(d);
        }
    }
    sc.reset_regs();

    // Greedy list scheduling: prefer loads (issue them early), then
    // original order. Avoid scheduling a unit that consumes the result
    // of the unit just placed if that unit was a load and an
    // alternative exists. `ready` stays sorted by that preference.
    let key = |i: usize| (!units[i].is_load, i);
    let mut ready: Vec<usize> = (0..n).filter(|&i| sc.indeg[i] == 0).collect();
    ready.sort_by_key(|&i| key(i));
    let mut out_units: Vec<usize> = Vec::with_capacity(n);
    let mut last_placed: Option<usize> = None;
    while !ready.is_empty() {
        // Hazard avoidance: skip units consuming the just-placed load.
        let loaded = last_placed
            .filter(|&lp| units[lp].is_load)
            .map(|lp| main(lp).op.def());
        let pick_pos = match loaded {
            Some(ld) if ready.len() > 1 => ready
                .iter()
                .position(|&i| {
                    let mut consumes = false;
                    main(i).op.for_each_use(|r| consumes |= Some(r) == ld);
                    !consumes
                })
                .unwrap_or(0),
            _ => 0,
        };
        let i = ready.remove(pick_pos);
        out_units.push(i);
        last_placed = Some(i);
        for &s in &sc.succs[i] {
            sc.indeg[s] -= 1;
            if sc.indeg[s] == 0 {
                let pos = ready.partition_point(|&j| key(j) < key(s));
                ready.insert(pos, s);
            }
        }
    }
    debug_assert_eq!(out_units.len(), n);

    // Re-attribute lines: anything stepping backwards becomes line 0.
    let mut result: Vec<MInst> = Vec::with_capacity(insts.len());
    let mut max_line = 0u32;
    for &ui in &out_units {
        let Unit { start, end, .. } = units[ui];
        for (k, inst) in insts[start..end].iter().enumerate() {
            let mut inst = inst.clone();
            if k == 0 && inst.line != 0 {
                if inst.line < max_line {
                    inst.line = 0;
                    inst.stmt = false;
                } else {
                    max_line = inst.line;
                }
            }
            result.push(inst);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_module;
    use crate::mir::MOpKind;
    use dt_ir::BinOp;

    fn machine(src: &str) -> crate::mir::MModule {
        lower_module(&dt_frontend::lower_source(src).unwrap())
    }

    fn schedule(insts: Vec<MInst>) -> Vec<MInst> {
        schedule_block(insts, &mut Scratch::new(4))
    }

    /// Hand-built block: load a; use a; load b; use b — scheduling
    /// should interleave the loads ahead of the uses.
    #[test]
    fn separates_loads_from_uses() {
        let insts = vec![
            MInst::new(MOpKind::LdSlot { rd: 0, slot: 0 }, 2),
            MInst::new(
                MOpKind::BinImm {
                    op: BinOp::Add,
                    rd: 1,
                    ra: 0,
                    imm: 1,
                },
                3,
            ),
            MInst::new(MOpKind::LdSlot { rd: 2, slot: 1 }, 4),
            MInst::new(
                MOpKind::BinImm {
                    op: BinOp::Mul,
                    rd: 3,
                    ra: 2,
                    imm: 2,
                },
                5,
            ),
        ];
        let scheduled = schedule(insts);
        let kinds: Vec<bool> = scheduled.iter().map(|i| i.op.is_load()).collect();
        // Both loads first is the stall-free schedule.
        assert_eq!(kinds, vec![true, true, false, false]);
    }

    #[test]
    fn backwards_lines_become_line_zero() {
        let insts = vec![
            MInst::new(MOpKind::LdSlot { rd: 0, slot: 0 }, 2),
            MInst::new(
                MOpKind::BinImm {
                    op: BinOp::Add,
                    rd: 1,
                    ra: 0,
                    imm: 1,
                },
                3,
            ),
            MInst::new(MOpKind::LdSlot { rd: 2, slot: 1 }, 4),
            MInst::new(
                MOpKind::BinImm {
                    op: BinOp::Mul,
                    rd: 3,
                    ra: 2,
                    imm: 2,
                },
                5,
            ),
        ];
        let scheduled = schedule(insts);
        // The hoisted second load (line 4) now precedes line 3's use;
        // the use at line 3 steps backwards and must lose its line.
        let zeroed = scheduled.iter().filter(|i| i.line == 0).count();
        assert!(zeroed >= 1, "scheduling must zero non-monotone lines");
    }

    #[test]
    fn dependences_are_respected() {
        let mut mm = machine(
            "int f(int a, int b) { int x = a + b; int y = x * 2; int z = y - a; return z; }",
        );
        let f = &mut mm.funcs[0];
        let before: Vec<_> = f.blocks[f.entry as usize]
            .insts
            .iter()
            .filter(|i| !i.op.is_dbg())
            .cloned()
            .collect();
        run(f);
        let after: Vec<_> = f.blocks[f.entry as usize]
            .insts
            .iter()
            .filter(|i| !i.op.is_dbg())
            .cloned()
            .collect();
        assert_eq!(before.len(), after.len());
        // Verify def-before-use still holds for every register.
        let mut defined: std::collections::HashSet<VR> = Default::default();
        for inst in &after {
            inst.op.for_each_use(|r| {
                assert!(
                    defined.contains(&r),
                    "use of {r} before def after scheduling"
                );
            });
            if let Some(d) = inst.op.def() {
                defined.insert(d);
            }
        }
    }

    #[test]
    fn side_effect_order_is_preserved() {
        let mut mm = machine("int f() { out(1); out(2); out(3); return 0; }");
        let f = &mut mm.funcs[0];
        run(f);
        let outs: Vec<i64> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i.op {
                MOpKind::Imm { value, .. } => Some(value),
                _ => None,
            })
            .collect();
        // The immediates feeding out() must stay in order.
        let pos1 = outs.iter().position(|&v| v == 1).unwrap();
        let pos3 = outs.iter().position(|&v| v == 3).unwrap();
        assert!(pos1 < pos3);
    }

    #[test]
    fn dbg_pseudos_travel_with_their_instruction() {
        let insts = vec![
            MInst::new(MOpKind::LdSlot { rd: 0, slot: 0 }, 2),
            MInst::new(
                MOpKind::BinImm {
                    op: BinOp::Add,
                    rd: 1,
                    ra: 0,
                    imm: 1,
                },
                3,
            ),
            {
                let mut d = MInst::new(
                    MOpKind::Dbg {
                        var: 0,
                        loc: crate::mir::MDbgLoc::Reg(1),
                    },
                    3,
                );
                d.stmt = false;
                d
            },
            MInst::new(MOpKind::LdSlot { rd: 2, slot: 1 }, 4),
        ];
        let scheduled = schedule(insts);
        // The Dbg must still directly follow the Add that defines %1.
        let add_pos = scheduled
            .iter()
            .position(|i| matches!(i.op, MOpKind::BinImm { rd: 1, .. }))
            .unwrap();
        assert!(matches!(
            scheduled[add_pos + 1].op,
            MOpKind::Dbg { var: 0, .. }
        ));
    }
}
