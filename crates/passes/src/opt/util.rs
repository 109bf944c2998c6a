//! Shared helpers for the middle-end passes, most importantly the
//! debug-value maintenance machinery.

use dt_ir::{BinOp, BitSet, BlockId, DbgLoc, Function, Inst, Op, VReg, Value};
use std::collections::HashMap;

/// Fixes up debug values after the instruction formerly at `pos` in
/// `block_insts` (which defined `dead` via `removed_op`) has been
/// deleted. Scans forward from `pos` until `dead` is redefined,
/// rewriting `dbg.value`s that still reference it.
///
/// A removed plain `Copy` lets the binding follow the copied value
/// under **both** personalities — gcc's var-tracking propagates debug
/// stmts through copies just like LLVM's salvaging does. Removed
/// *computed* values become undef. The salvage/drop distinction
/// (`PassConfig::salvage`) matters only for the passes (like strength
/// reduction) where LLVM can express the rewrite as a `DIExpression`
/// and gcc cannot.
pub fn fixup_dbg_after_removal(block_insts: &mut [Inst], pos: usize, dead: VReg, removed_op: &Op) {
    let replacement: Option<Value> = match removed_op {
        Op::Copy { src, .. } => Some(*src),
        _ => None,
    };
    for inst in block_insts[pos..].iter_mut() {
        if let Op::DbgValue { loc, .. } = &mut inst.op {
            if *loc == DbgLoc::Value(Value::Reg(dead)) {
                *loc = match replacement {
                    Some(v) => DbgLoc::Value(v),
                    None => DbgLoc::Undef,
                };
            }
            continue;
        }
        if inst.op.def() == Some(dead) {
            break;
        }
    }
}

/// Number of (non-debug) uses of each register across the function.
pub fn use_counts(f: &Function) -> Vec<u32> {
    let mut counts = vec![0u32; f.vreg_count as usize];
    for b in f.block_ids() {
        let blk = f.block(b);
        for inst in &blk.insts {
            if inst.op.is_dbg() {
                continue;
            }
            inst.op.for_each_use(|v| {
                if let Some(r) = v.as_reg() {
                    counts[r.index()] += 1;
                }
            });
        }
        blk.term.for_each_use(|v| {
            if let Some(r) = v.as_reg() {
                counts[r.index()] += 1;
            }
        });
    }
    counts
}

/// A binary expression's operands as the value-numbering passes key
/// them: a commutative operator's operands in [`Value`]'s order, so
/// `a op b` and `b op a` get one key.
pub fn key_operands(op: BinOp, lhs: Value, rhs: Value) -> (Value, Value) {
    if op.is_commutative() && rhs < lhs {
        (rhs, lhs)
    } else {
        (lhs, rhs)
    }
}

/// Number of definitions of each register across the function.
pub fn def_counts(f: &Function) -> Vec<u32> {
    let mut counts = vec![0u32; f.vreg_count as usize];
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            if let Some(d) = inst.op.def() {
                counts[d.index()] += 1;
            }
        }
    }
    counts
}

/// Remaps every register in `op` by adding `vreg_base` (clone-private
/// register space).
pub fn offset_regs(op: &mut Op, vreg_base: u32) {
    if let Some(d) = op.def() {
        op.set_def(VReg(d.0 + vreg_base));
    }
    op.for_each_use_mut(|v| {
        if let Value::Reg(r) = v {
            *v = Value::Reg(VReg(r.0 + vreg_base));
        }
    });
}

/// Ensures loop `l` (by header id) has a dedicated preheader: a block
/// that is the unique non-latch predecessor of the header and ends in
/// an unconditional jump to it. Returns the preheader's id.
pub fn ensure_preheader(
    f: &mut Function,
    header: dt_ir::BlockId,
    latches: &[dt_ir::BlockId],
) -> dt_ir::BlockId {
    // The header's predecessors as `dt_ir::predecessors` lists them:
    // ascending, once per edge.
    let outside: Vec<dt_ir::BlockId> = f
        .block_ids()
        .flat_map(|p| {
            let edges = f.block(p).term.successors().filter(|&s| s == header);
            edges.map(move |_| p)
        })
        .filter(|p| !latches.contains(p))
        .collect();
    if outside.len() == 1 {
        let p = outside[0];
        if matches!(f.block(p).term, dt_ir::Terminator::Jump(t) if t == header) {
            return p;
        }
    }
    let ph = f.new_block(dt_ir::Terminator::Jump(header));
    for p in outside {
        f.block_mut(p).term.for_each_successor_mut(|s| {
            if *s == header {
                *s = ph;
            }
        });
    }
    ph
}

/// A recognized counted-loop induction variable.
#[derive(Debug, Clone, Copy)]
pub struct Induction {
    /// The induction register.
    pub reg: VReg,
    /// Initial value, when the init is a constant copy.
    pub init: Option<i64>,
    /// Step added once per iteration.
    pub step: i64,
    /// Block and instruction index of the in-loop increment.
    pub incr_at: (dt_ir::BlockId, usize),
}

/// Recognizes the canonical induction pattern for the registers of a
/// loop: exactly one in-loop definition, of the form
/// `i = i + <const>`. Candidates come in block order, then instruction
/// order.
pub fn find_inductions(f: &Function, loop_blocks: &BitSet<BlockId>) -> Vec<Induction> {
    use dt_ir::BinOp;
    let mut candidates: Vec<Induction> = Vec::new();
    let mut in_loop_defs = vec![0u32; f.vreg_count as usize];
    for b in loop_blocks.iter() {
        for inst in &f.block(b).insts {
            if let Some(d) = inst.op.def() {
                in_loop_defs[d.index()] += 1;
            }
        }
    }
    for b in loop_blocks.iter() {
        for (ii, inst) in f.block(b).insts.iter().enumerate() {
            if let Op::Bin {
                dst,
                op: BinOp::Add,
                lhs: Value::Reg(src),
                rhs: Value::Const(step),
            } = inst.op
            {
                if dst == src && in_loop_defs[dst.index()] == 1 && step != 0 {
                    candidates.push(Induction {
                        reg: dst,
                        init: None,
                        step,
                        incr_at: (b, ii),
                    });
                }
            }
        }
    }
    // Fill in constant inits from definitions outside the loop.
    for cand in &mut candidates {
        let mut init: Option<Option<i64>> = None; // None = unseen
        for b in f.block_ids() {
            if loop_blocks.contains(b) {
                continue;
            }
            for inst in &f.block(b).insts {
                if inst.op.def() == Some(cand.reg) {
                    let k = match inst.op {
                        Op::Copy {
                            src: Value::Const(k),
                            ..
                        } => Some(k),
                        _ => None,
                    };
                    init = match init {
                        None => Some(k),
                        Some(_) => Some(None), // multiple outside defs
                    };
                }
            }
        }
        cand.init = init.flatten();
    }
    candidates
}

/// Resolves single-def copy chains to their roots: for every register
/// whose only definition is `Copy` of another *stable* register (a
/// never-reassigned parameter or another single-def register), maps it
/// to the transitive source; every other register maps to itself.
/// Indexed by register; a register created afterwards has no entry
/// (use [`root_of`]). Two registers with the same root hold the same
/// value at every point where both are defined — the lightweight
/// value-equivalence both GVN and jump threading need in a non-SSA IR.
pub fn copy_roots(f: &Function) -> Vec<VReg> {
    let defs = def_counts(f);
    let nparams = f.params.len();
    let stable = |r: VReg| {
        if r.index() < nparams {
            defs[r.index()] == 0
        } else {
            defs.get(r.index()) == Some(&1)
        }
    };
    // Direct copy parents.
    let mut parent: Vec<Option<VReg>> = vec![None; f.vreg_count as usize];
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            if let Op::Copy {
                dst,
                src: Value::Reg(s),
            } = inst.op
            {
                if stable(dst) && stable(s) {
                    parent[dst.index()] = Some(s);
                }
            }
        }
    }
    // Follow each chain to its root.
    let copies = parent.iter().flatten().count();
    (0..parent.len())
        .map(|r| {
            let mut cur = VReg(r as u32);
            let mut hops = 0;
            while let Some(p) = parent[cur.index()] {
                cur = p;
                hops += 1;
                if hops > copies {
                    break; // defensive: cycles cannot happen with stable regs
                }
            }
            cur
        })
        .collect()
}

/// The root of `r` in `roots` ([`copy_roots`]); `r` itself for a
/// register newer than the map.
pub fn root_of(roots: &[VReg], r: VReg) -> VReg {
    roots.get(r.index()).copied().unwrap_or(r)
}

/// Registers used (or defined) anywhere in `f` **outside** the given
/// block set, including by terminators. Values in this set must keep
/// their names when a block from the set is cloned; everything else is
/// clone-private and should be renamed to fresh registers (otherwise
/// the clone artificially stretches live ranges across the region and
/// causes spill storms).
pub fn regs_escaping(f: &Function, blocks: &BitSet<BlockId>) -> BitSet<VReg> {
    let mut escaping = BitSet::with_capacity(f.vreg_count as usize);
    for b in f.block_ids() {
        if blocks.contains(b) {
            continue;
        }
        let blk = f.block(b);
        for inst in &blk.insts {
            inst.op.for_each_use(|v| {
                if let Some(r) = v.as_reg() {
                    escaping.insert(r);
                }
            });
            if let Some(d) = inst.op.def() {
                escaping.insert(d);
            }
        }
        blk.term.for_each_use(|v| {
            if let Some(r) = v.as_reg() {
                escaping.insert(r);
            }
        });
    }
    escaping
}

/// Renames the definitions of a cloned instruction sequence: every def
/// not in `keep` gets a fresh register, and subsequent uses inside the
/// clone are remapped. Returns the final rename map so the caller can
/// remap a cloned terminator condition.
pub fn rename_clone_defs(
    f: &mut Function,
    insts: &mut [Inst],
    keep: &BitSet<VReg>,
) -> HashMap<VReg, VReg> {
    let mut map: HashMap<VReg, VReg> = HashMap::new();
    for inst in insts.iter_mut() {
        inst.op.for_each_use_mut(|v| {
            if let Value::Reg(r) = v {
                if let Some(n) = map.get(r) {
                    *v = Value::Reg(*n);
                }
            }
        });
        if let Some(d) = inst.op.def() {
            if keep.contains(d) {
                map.remove(&d);
            } else {
                let fresh = f.new_vreg();
                map.insert(d, fresh);
                inst.op.set_def(fresh);
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_ir::{BinOp, FunctionBuilder, VarInfo};

    #[test]
    fn fixup_salvages_copies_and_drops_computations() {
        let mk = || {
            vec![
                Inst::synth(Op::Copy {
                    dst: VReg(1),
                    src: Value::Reg(VReg(0)),
                }),
                Inst::synth(Op::DbgValue {
                    var: dt_ir::VarId(0),
                    loc: DbgLoc::Value(Value::Reg(VReg(1))),
                }),
            ]
        };
        // Removed copies are tracked through (under both personalities).
        let removed_copy = Op::Copy {
            dst: VReg(1),
            src: Value::Reg(VReg(0)),
        };
        let mut insts = mk();
        fixup_dbg_after_removal(&mut insts, 1, VReg(1), &removed_copy);
        assert!(matches!(
            insts[1].op,
            Op::DbgValue {
                loc: DbgLoc::Value(Value::Reg(VReg(0))),
                ..
            }
        ));
        // Removed computations become undef.
        let removed_bin = Op::Bin {
            dst: VReg(1),
            op: dt_ir::BinOp::Add,
            lhs: Value::Reg(VReg(0)),
            rhs: Value::Const(1),
        };
        let mut insts = mk();
        fixup_dbg_after_removal(&mut insts, 1, VReg(1), &removed_bin);
        assert!(matches!(
            insts[1].op,
            Op::DbgValue {
                loc: DbgLoc::Undef,
                ..
            }
        ));
    }

    #[test]
    fn fixup_stops_at_redefinition() {
        let mut insts = vec![
            Inst::synth(Op::Copy {
                dst: VReg(1),
                src: Value::Const(5),
            }),
            Inst::synth(Op::DbgValue {
                var: dt_ir::VarId(0),
                loc: DbgLoc::Value(Value::Reg(VReg(1))),
            }),
            Inst::synth(Op::Copy {
                dst: VReg(1),
                src: Value::Const(9),
            }),
            Inst::synth(Op::DbgValue {
                var: dt_ir::VarId(0),
                loc: DbgLoc::Value(Value::Reg(VReg(1))),
            }),
        ];
        let removed = Op::Copy {
            dst: VReg(1),
            src: Value::Const(5),
        };
        fixup_dbg_after_removal(&mut insts, 1, VReg(1), &removed);
        // First dbg salvaged to the constant, second untouched (new def).
        assert!(matches!(
            insts[1].op,
            Op::DbgValue {
                loc: DbgLoc::Value(Value::Const(5)),
                ..
            }
        ));
        assert!(matches!(
            insts[3].op,
            Op::DbgValue {
                loc: DbgLoc::Value(Value::Reg(VReg(1))),
                ..
            }
        ));
    }

    #[test]
    fn use_and_def_counts() {
        let mut b = FunctionBuilder::new("f", 1, 1);
        let v = b.var(VarInfo {
            name: "x".into(),
            is_param: false,
            is_array: false,
            decl_line: 2,
        });
        let t = b.bin(BinOp::Add, Value::Reg(VReg(0)), Value::Reg(VReg(0)), 2);
        b.dbg_value(v, DbgLoc::Value(Value::Reg(t)), 2);
        let u = b.bin(BinOp::Mul, Value::Reg(t), Value::Const(2), 3);
        b.ret(Some(Value::Reg(u)), 4);
        let f = b.finish(5);

        let uses = use_counts(&f);
        assert_eq!(uses[VReg(0).index()], 2);
        assert_eq!(uses[t.index()], 1, "debug uses are not counted");
        let defs = def_counts(&f);
        assert_eq!(defs[t.index()], 1);
    }
}
