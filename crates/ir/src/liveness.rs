//! Backward liveness analysis for virtual registers.
//!
//! Debug intrinsic operands do **not** keep a register alive by
//! default; that is precisely how optimized code loses variable values
//! (the register dies, the `dbg.value` dangles, the location list gets
//! a hole). Passes that want debug-aware liveness can opt in.
//!
//! [`UseDef`] holds the one backward-liveness fixpoint of the compiler:
//! IR [`Liveness`] and the backend's machine-IR liveness both fill its
//! per-block use/def sets and call [`UseDef::solve`], which works a
//! 64-register word at a time and returns each direction as one flat
//! word matrix ([`RegMatrix`]) whose rows are [`BitRow`]s, one per block.

use crate::bitset::{word_bit, words_for, BitRow};
use crate::cfg::postorder;
use crate::module::{BlockId, Function, VReg};

/// One register set per block, as a flat word matrix: row `b` is block
/// `b`'s set.
#[derive(Debug, Clone)]
pub struct RegMatrix {
    words: usize,
    bits: Vec<u64>,
}

impl RegMatrix {
    fn new(nblocks: usize, words: usize) -> Self {
        RegMatrix {
            words,
            bits: vec![0; nblocks * words],
        }
    }

    /// Block `b`'s set.
    pub fn row(&self, b: usize) -> BitRow<'_, VReg> {
        BitRow::new(&self.bits[b * self.words..(b + 1) * self.words])
    }
}

/// The liveness transfer `dst = uses ∪ (out \ defs)`, word by word
/// over equally long rows, reusing `dst`'s buffer; returns whether `dst`
/// changed.
fn assign_transfer(dst: &mut [u64], uses: &[u64], out: &[u64], defs: &[u64]) -> bool {
    let mut changed = false;
    for (((a, &u), &o), &d) in dst.iter_mut().zip(uses).zip(out).zip(defs) {
        let new = u | (o & !d);
        changed |= new != *a;
        *a = new;
    }
    changed
}

/// Per-block upward-exposed uses and definitions: the input of the
/// backward-liveness fixpoint. Stored as two flat word matrices, one
/// row per block.
#[derive(Debug, Clone)]
pub struct UseDef {
    nblocks: usize,
    words: usize,
    uses: Vec<u64>,
    defs: Vec<u64>,
}

impl UseDef {
    /// Empty sets for `nblocks` blocks over `nregs` registers.
    pub fn new(nblocks: usize, nregs: u32) -> Self {
        let words = words_for(nregs as usize);
        UseDef {
            nblocks,
            words,
            uses: vec![0; nblocks * words],
            defs: vec![0; nblocks * words],
        }
    }

    fn bit(&self, b: usize, r: VReg) -> (usize, u64) {
        let (w, bit) = word_bit(r.index());
        (b * self.words + w, bit)
    }

    /// Records a read of `r` in block `b` (upward-exposed unless `b`
    /// already defined it). Call in instruction order.
    pub fn read(&mut self, b: usize, r: VReg) {
        let (w, bit) = self.bit(b, r);
        if self.defs[w] & bit == 0 {
            self.uses[w] |= bit;
        }
    }

    /// Records a definition of `r` in block `b`.
    pub fn write(&mut self, b: usize, r: VReg) {
        let (w, bit) = self.bit(b, r);
        self.defs[w] |= bit;
    }

    /// Solves `live_out[b] = ∪ live_in[s]` over `succs(b)` and
    /// `live_in[b] = use[b] ∪ (live_out[b] \ def[b])`, sweeping `order`
    /// until no live-in set changes. The least fixpoint does not depend
    /// on the order, only the number of sweeps does (postorder is best
    /// for a backward problem). Blocks outside `order` keep empty sets.
    /// Returns `(live_in, live_out)`.
    pub fn solve<I: IntoIterator<Item = usize>>(
        &self,
        order: &[usize],
        succs: impl Fn(usize) -> I,
    ) -> (RegMatrix, RegMatrix) {
        let words = self.words;
        let mut live_in = RegMatrix::new(self.nblocks, words);
        let mut live_out = live_in.clone();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in order {
                let r = b * words..(b + 1) * words;
                let out = &mut live_out.bits[r.clone()];
                out.fill(0);
                for s in succs(b) {
                    let succ_in = &live_in.bits[s * words..(s + 1) * words];
                    for (o, &i) in out.iter_mut().zip(succ_in) {
                        *o |= i;
                    }
                }
                changed |= assign_transfer(
                    &mut live_in.bits[r.clone()],
                    &self.uses[r.clone()],
                    out,
                    &self.defs[r],
                );
            }
        }
        (live_in, live_out)
    }
}

/// Per-block live-in/live-out register sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    pub live_in: RegMatrix,
    pub live_out: RegMatrix,
}

impl Liveness {
    /// Computes liveness ignoring debug intrinsic uses (codegen view).
    pub fn compute(f: &Function) -> Self {
        let mut sets = UseDef::new(f.blocks.len(), f.vreg_count);
        for b in f.block_ids() {
            let (blk, bi) = (f.block(b), b.index());
            for inst in &blk.insts {
                if inst.op.is_dbg() {
                    continue;
                }
                inst.op.for_each_use(|v| {
                    if let Some(r) = v.as_reg() {
                        sets.read(bi, r);
                    }
                });
                if let Some(d) = inst.op.def() {
                    sets.write(bi, d);
                }
            }
            blk.term.for_each_use(|v| {
                if let Some(r) = v.as_reg() {
                    sets.read(bi, r);
                }
            });
        }
        // Postorder holds live blocks only.
        let order: Vec<usize> = postorder(f).iter().map(|b| b.index()).collect();
        let (live_in, live_out) =
            sets.solve(&order, |b| f.blocks[b].term.successors().map(|s| s.index()));
        Liveness { live_in, live_out }
    }

    /// Live-out set of block `b`.
    pub fn out(&self, b: BlockId) -> BitRow<'_, VReg> {
        self.live_out.row(b.index())
    }

    /// Live-in set of block `b`.
    pub fn r#in(&self, b: BlockId) -> BitRow<'_, VReg> {
        self.live_in.row(b.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitSet;
    use crate::inst::{BinOp, DbgLoc, Inst, Op, Terminator, Value};
    use crate::module::{Block, FuncAttrs, FuncId, Function, VarId};

    fn simple_loop() -> Function {
        // bb0: %0 = 0; jmp bb1
        // bb1: %1 = %0 + 1; br %1 ? bb1 : bb2
        // bb2: ret %1
        let mut b0 = Block::new(Terminator::Jump(BlockId(1)));
        b0.insts.push(Inst::synth(Op::Copy {
            dst: VReg(0),
            src: Value::Const(0),
        }));
        let mut b1 = Block::new(Terminator::Branch {
            cond: Value::Reg(VReg(1)),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
            prob_then: None,
        });
        b1.insts.push(Inst::synth(Op::Bin {
            dst: VReg(1),
            op: BinOp::Add,
            lhs: Value::Reg(VReg(0)),
            rhs: Value::Const(1),
        }));
        let b2 = Block::new(Terminator::Ret(Some(Value::Reg(VReg(1)))));
        Function {
            name: "l".into(),
            id: FuncId(0),
            params: vec![],
            blocks: vec![b0, b1, b2],
            entry: BlockId(0),
            vreg_count: 2,
            vars: vec![],
            slots: vec![],
            line: 1,
            end_line: 1,
            attrs: FuncAttrs::default(),
        }
    }

    #[test]
    fn loop_carried_value_is_live_around_backedge() {
        let f = simple_loop();
        let lv = Liveness::compute(&f);
        assert!(lv.r#in(BlockId(1)).contains(VReg(0)));
        assert!(
            lv.out(BlockId(1)).contains(VReg(0)),
            "backedge keeps %0 live"
        );
        assert!(lv.out(BlockId(1)).contains(VReg(1)));
        assert!(!lv.r#in(BlockId(0)).contains(VReg(0)));
    }

    #[test]
    fn dbg_uses_ignored_by_default() {
        let mut f = simple_loop();
        // Add a dbg.value of %0 in bb2 (after its last real use).
        f.blocks[2].insts.push(Inst::synth(Op::DbgValue {
            var: VarId(0),
            loc: DbgLoc::Value(Value::Reg(VReg(0))),
        }));
        let lv = Liveness::compute(&f);
        assert!(
            !lv.r#in(BlockId(2)).contains(VReg(0)),
            "liveness must not count debug uses"
        );
    }

    #[test]
    fn regset_operations() {
        let mut s = BitSet::with_capacity(130);
        assert!(s.insert(VReg(0)));
        assert!(s.insert(VReg(129)));
        assert!(!s.insert(VReg(0)), "double insert reports no change");
        assert!(s.contains(VReg(129)));
        assert_eq!(s.len(), 2);
        s.remove(VReg(0));
        assert!(!s.contains(VReg(0)));
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected, vec![VReg(129)]);
    }

    #[test]
    fn regset_iter_yields_members_ascending_across_words() {
        let members = [0u32, 1, 62, 63, 64, 65, 127, 128, 191, 199];
        let mut s = BitSet::with_capacity(200);
        // Insert out of order: iteration order must not depend on it.
        for &r in members.iter().rev() {
            s.insert(VReg(r));
        }
        let got: Vec<u32> = s.iter().map(|r| r.0).collect();
        assert_eq!(got, members);
        let per_bit: Vec<u32> = (0..200).filter(|&r| s.contains(VReg(r))).collect();
        assert_eq!(got, per_bit);
        assert_eq!(s.len(), members.len());
        for &r in &members {
            s.remove(VReg(r));
        }
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let full = {
            let mut f = BitSet::with_capacity(128);
            (0..128).for_each(|r| {
                f.insert(VReg(r));
            });
            f
        };
        assert!(full.iter().map(|r| r.0).eq(0..128), "all-ones words");
    }

    #[test]
    fn assign_transfer_reports_change_only_when_the_set_changed() {
        // Rows of three words, as in a 130-register matrix.
        let set = |regs: &[u32]| {
            let mut row = vec![0u64; words_for(130)];
            for &r in regs {
                let (w, bit) = word_bit(r as usize);
                row[w] |= bit;
            }
            row
        };
        let (uses, out, defs) = (set(&[1, 70]), set(&[2, 3, 70, 129]), set(&[3, 129]));
        let mut live_in = set(&[]);
        let transfer =
            |live_in: &mut Vec<u64>, out: &Vec<u64>| assign_transfer(live_in, &uses, out, &defs);
        assert!(transfer(&mut live_in, &out));
        assert_eq!(live_in, set(&[1, 2, 70]));
        assert!(
            !transfer(&mut live_in, &out),
            "same inputs, same set: no change"
        );
        // A shrinking result is a change too.
        assert!(transfer(&mut live_in, &set(&[])));
        assert_eq!(live_in, set(&[1, 70]));
    }

    #[test]
    fn regset_union() {
        let mut a = BitSet::with_capacity(10);
        let mut b = BitSet::with_capacity(10);
        a.insert(VReg(1));
        b.insert(VReg(2));
        assert!(a.union_with(&b) > 0);
        assert_eq!(a.union_with(&b), 0, "second union is a no-op");
        assert!(a.contains(VReg(1)) && a.contains(VReg(2)));
    }
}
