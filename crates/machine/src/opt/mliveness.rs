//! Block-level register liveness for machine IR, shared by the backend
//! passes (sinking, cross-jumping) and the register allocator.

use crate::mir::MFunction;
use dt_ir::liveness::{RegMatrix, UseDef};
use dt_ir::VReg;

/// Per-block live-in and live-out sets over machine virtual registers.
pub struct MLiveness {
    pub live_in: RegMatrix,
    pub live_out: RegMatrix,
}

/// Computes machine-IR liveness over the live blocks with the shared
/// fixpoint ([`UseDef::solve`]). Debug pseudo operands are ignored
/// (they never extend live ranges); dead blocks keep empty sets.
pub fn compute(f: &MFunction) -> MLiveness {
    let mut sets = UseDef::new(f.blocks.len(), f.nvregs);
    let mut order: Vec<usize> = Vec::new();
    for b in f.live_blocks() {
        let (blk, bi) = (&f.blocks[b as usize], b as usize);
        for inst in &blk.insts {
            inst.op.for_each_use(|r| sets.read(bi, VReg(r)));
            if let Some(def) = inst.op.def() {
                sets.write(bi, VReg(def));
            }
        }
        blk.term.for_each_use(|r| sets.read(bi, VReg(r)));
        order.push(bi);
    }
    // Reverse creation order: most edges point forward, so this is
    // close to postorder.
    order.reverse();
    let (live_in, live_out) = sets.solve(&order, |b| {
        f.blocks[b].term.successors().map(|s| s as usize)
    });
    MLiveness { live_in, live_out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_module;

    #[test]
    fn o0_code_keeps_values_block_local() {
        // At O0 every value goes through a slot, so no vreg should be
        // live across block boundaries (the slot carries the value).
        let src = "int f(int n) { int i = 0; while (i < n) { i = i + 1; } return i; }";
        let m = dt_frontend::lower_source(src).unwrap();
        let mm = lower_module(&m);
        let f = &mm.funcs[0];
        let lv = compute(f);
        for b in f.live_blocks() {
            assert!(
                lv.live_in.row(b as usize).iter().next().is_none(),
                "block {b} has unexpected live-in values at O0"
            );
        }
    }

    #[test]
    fn cross_block_value_is_live() {
        use crate::mir::{MBlock, MInst, MOpKind, MTerm};
        // entry defines %0, block 1 uses it.
        let blocks = vec![
            MBlock {
                insts: vec![MInst::new(MOpKind::Imm { rd: 0, value: 7 }, 1)],
                term: MTerm::Jmp(1),
                term_line: 0,
                dead: false,
            },
            MBlock {
                insts: vec![MInst::new(MOpKind::Out { rs: 0 }, 2)],
                term: MTerm::Ret(None),
                term_line: 3,
                dead: false,
            },
        ];
        let mut f = MFunction {
            name: "t".into(),
            blocks,
            entry: 0,
            layout: vec![],
            nvregs: 1,
            slot_sizes: vec![],
            vars: vec![],
            decl_line: 1,
            end_line: 3,
            nparams: 0,
            shrink_wrapped: false,
        };
        f.default_layout();
        let lv = compute(&f);
        assert!(lv.live_out.row(0).contains(dt_ir::VReg(0)));
        assert!(lv.live_in.row(1).contains(dt_ir::VReg(0)));
        assert!(lv.live_in.row(0).iter().next().is_none());
    }
}
