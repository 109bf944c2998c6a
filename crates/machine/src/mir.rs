//! Machine IR: VISA operations over a generic register type.
//!
//! Before register allocation the register type is [`VR`] (a virtual
//! register index); allocation rewrites everything onto
//! [`crate::preg::PReg`] and linearizes the CFG.

use dt_ir::{BinOp, UnOp};

/// A machine virtual register.
pub type VR = u32;

/// Where a machine-level `dbg.value` pseudo says a variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MDbgLoc<R> {
    /// In a register.
    Reg(R),
    /// In a frame slot (word index).
    Slot(u32),
    /// A known constant.
    Const(i64),
    /// Unrecoverable until the next `dbg.value` for the variable.
    Undef,
}

/// A VISA operation, parameterized over the register type `R`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MOpKind<R> {
    /// `rd = imm`
    Imm { rd: R, value: i64 },
    /// `rd = rs`
    Mov { rd: R, rs: R },
    /// `rd = op rs`
    Un { op: UnOp, rd: R, rs: R },
    /// `rd = ra op rb`
    Bin { op: BinOp, rd: R, ra: R, rb: R },
    /// `rd = ra op imm`
    BinImm { op: BinOp, rd: R, ra: R, imm: i64 },
    /// `rd = cond != 0 ? ra : rb` (branchless conditional move)
    Select { rd: R, rc: R, ra: R, rb: R },
    /// `rd = frame[slot]`
    LdSlot { rd: R, slot: u32 },
    /// `frame[slot] = rs`
    StSlot { slot: u32, rs: R },
    /// `rd = frame[slot + wrap(ri, len)]`
    LdIdx { rd: R, slot: u32, ri: R, len: u32 },
    /// `frame[slot + wrap(ri, len)] = rs`
    StIdx { slot: u32, ri: R, rs: R, len: u32 },
    /// `rd = globals[addr]`
    LdG { rd: R, addr: u32 },
    /// `globals[addr] = rs`
    StG { addr: u32, rs: R },
    /// `rd = globals[base + wrap(ri, len)]`
    LdGIdx { rd: R, base: u32, ri: R, len: u32 },
    /// `globals[base + wrap(ri, len)] = rs`
    StGIdx { base: u32, ri: R, rs: R, len: u32 },
    /// `argbank[k] = rs` (before a call)
    SetArg { k: u8, rs: R },
    /// `rd = argbank[k]` (at function entry)
    GetArg { rd: R, k: u8 },
    /// Call function `func` (module function index). Return value is
    /// left in `r0`; `CopyRet` moves it where the caller wants it.
    CallF { func: u32 },
    /// `rd = r0` immediately after a call.
    CopyRet { rd: R },
    /// `rd = in(ri)`
    In { rd: R, ri: R },
    /// `rd = in_len()`
    InLen { rd: R },
    /// `out(rs)`
    Out { rs: R },
    /// Debug pseudo: variable `var` (function-local debug variable
    /// index) is described by `loc` from here on. Emits no code.
    Dbg { var: u32, loc: MDbgLoc<R> },
}

impl<R: Copy + Eq> MOpKind<R> {
    /// The register defined, if any. `CallF` defines `r0` implicitly
    /// (handled by the allocator's clobber model, not here).
    pub fn def(&self) -> Option<R> {
        match self {
            MOpKind::Imm { rd, .. }
            | MOpKind::Mov { rd, .. }
            | MOpKind::Un { rd, .. }
            | MOpKind::Bin { rd, .. }
            | MOpKind::BinImm { rd, .. }
            | MOpKind::Select { rd, .. }
            | MOpKind::LdSlot { rd, .. }
            | MOpKind::LdIdx { rd, .. }
            | MOpKind::LdG { rd, .. }
            | MOpKind::LdGIdx { rd, .. }
            | MOpKind::GetArg { rd, .. }
            | MOpKind::CopyRet { rd }
            | MOpKind::In { rd, .. }
            | MOpKind::InLen { rd } => Some(*rd),
            _ => None,
        }
    }

    /// Invokes `f` on each register use. Debug pseudo uses are *not*
    /// reported (they must not extend live ranges).
    pub fn for_each_use(&self, mut f: impl FnMut(R)) {
        match self {
            MOpKind::Mov { rs, .. }
            | MOpKind::Un { rs, .. }
            | MOpKind::StSlot { rs, .. }
            | MOpKind::StG { rs, .. }
            | MOpKind::SetArg { rs, .. }
            | MOpKind::Out { rs } => f(*rs),
            MOpKind::Bin { ra, rb, .. } => {
                f(*ra);
                f(*rb);
            }
            MOpKind::BinImm { ra, .. } => f(*ra),
            MOpKind::Select { rc, ra, rb, .. } => {
                f(*rc);
                f(*ra);
                f(*rb);
            }
            MOpKind::LdIdx { ri, .. } | MOpKind::LdGIdx { ri, .. } | MOpKind::In { ri, .. } => {
                f(*ri)
            }
            MOpKind::StIdx { ri, rs, .. } | MOpKind::StGIdx { ri, rs, .. } => {
                f(*ri);
                f(*rs);
            }
            _ => {}
        }
    }

    /// Invokes `f` on each register use, mutably.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut R)) {
        match self {
            MOpKind::Mov { rs, .. }
            | MOpKind::Un { rs, .. }
            | MOpKind::StSlot { rs, .. }
            | MOpKind::StG { rs, .. }
            | MOpKind::SetArg { rs, .. }
            | MOpKind::Out { rs } => f(rs),
            MOpKind::Bin { ra, rb, .. } => {
                f(ra);
                f(rb);
            }
            MOpKind::BinImm { ra, .. } => f(ra),
            MOpKind::Select { rc, ra, rb, .. } => {
                f(rc);
                f(ra);
                f(rb);
            }
            MOpKind::LdIdx { ri, .. } | MOpKind::LdGIdx { ri, .. } | MOpKind::In { ri, .. } => {
                f(ri)
            }
            MOpKind::StIdx { ri, rs, .. } | MOpKind::StGIdx { ri, rs, .. } => {
                f(ri);
                f(rs);
            }
            _ => {}
        }
    }

    /// Rewrites the defined register.
    pub fn set_def(&mut self, new: R) {
        match self {
            MOpKind::Imm { rd, .. }
            | MOpKind::Mov { rd, .. }
            | MOpKind::Un { rd, .. }
            | MOpKind::Bin { rd, .. }
            | MOpKind::BinImm { rd, .. }
            | MOpKind::Select { rd, .. }
            | MOpKind::LdSlot { rd, .. }
            | MOpKind::LdIdx { rd, .. }
            | MOpKind::LdG { rd, .. }
            | MOpKind::LdGIdx { rd, .. }
            | MOpKind::GetArg { rd, .. }
            | MOpKind::CopyRet { rd }
            | MOpKind::In { rd, .. }
            | MOpKind::InLen { rd } => *rd = new,
            _ => panic!("set_def on a defless machine op"),
        }
    }

    /// Whether the op is a debug pseudo.
    pub fn is_dbg(&self) -> bool {
        matches!(self, MOpKind::Dbg { .. })
    }

    /// Whether the op has effects beyond its def (stores, I/O, calls,
    /// argument setup).
    pub fn has_side_effect(&self) -> bool {
        matches!(
            self,
            MOpKind::StSlot { .. }
                | MOpKind::StIdx { .. }
                | MOpKind::StG { .. }
                | MOpKind::StGIdx { .. }
                | MOpKind::SetArg { .. }
                | MOpKind::CallF { .. }
                | MOpKind::CopyRet { .. }
                | MOpKind::GetArg { .. }
                | MOpKind::In { .. }
                | MOpKind::InLen { .. }
                | MOpKind::Out { .. }
        )
    }

    /// Whether the op reads memory (loads). Used by the scheduler's
    /// hazard model.
    pub fn is_load(&self) -> bool {
        matches!(
            self,
            MOpKind::LdSlot { .. }
                | MOpKind::LdIdx { .. }
                | MOpKind::LdG { .. }
                | MOpKind::LdGIdx { .. }
        )
    }
}

/// A machine instruction with debug metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MInst<R> {
    pub op: MOpKind<R>,
    /// Source line (0 = none).
    pub line: u32,
    /// Whether a line-table row for this instruction is a recommended
    /// breakpoint location.
    pub stmt: bool,
    /// SLP fusion: executes paired with the next instruction.
    pub fused: bool,
}

impl<R> MInst<R> {
    pub fn new(op: MOpKind<R>, line: u32) -> Self {
        MInst {
            op,
            line,
            stmt: true,
            fused: false,
        }
    }
}

/// A machine-block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MTerm<R> {
    Jmp(u32),
    /// Branch to `then_bb` if `rs != 0`, else `else_bb`.
    JCond {
        rs: R,
        then_bb: u32,
        else_bb: u32,
        /// Probability (per mille) of taking `then_bb`, if estimated.
        prob_then: Option<u16>,
    },
    Ret(Option<R>),
}

impl<R: Copy> MTerm<R> {
    /// Successor block indices, in order (then before else), without
    /// allocating.
    pub fn successors(&self) -> impl Iterator<Item = u32> + Clone {
        let (first, second) = match *self {
            MTerm::Jmp(t) => (Some(t), None),
            MTerm::JCond {
                then_bb, else_bb, ..
            } => (Some(then_bb), Some(else_bb)),
            MTerm::Ret(_) => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Invokes `f` on the register the terminator reads, if any.
    pub fn for_each_use(&self, mut f: impl FnMut(R)) {
        match self {
            MTerm::JCond { rs, .. } => f(*rs),
            MTerm::Ret(Some(r)) => f(*r),
            _ => {}
        }
    }
}

/// A machine basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MBlock<R> {
    pub insts: Vec<MInst<R>>,
    pub term: MTerm<R>,
    pub term_line: u32,
    pub dead: bool,
}

/// Debug metadata for one variable of a machine function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MVarInfo {
    pub name: String,
    pub is_param: bool,
    pub decl_line: u32,
}

/// A machine function (pre-allocation: `R = VR`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MFunction<R> {
    pub name: String,
    pub blocks: Vec<MBlock<R>>,
    pub entry: u32,
    /// Block emission order; filled by the layout pass (defaults to
    /// creation order of live blocks).
    pub layout: Vec<u32>,
    pub nvregs: u32,
    /// Frame slots inherited from the IR (word sizes). Spill slots are
    /// appended by the allocator.
    pub slot_sizes: Vec<u32>,
    pub vars: Vec<MVarInfo>,
    pub decl_line: u32,
    pub end_line: u32,
    pub nparams: u32,
    /// Shrink-wrapping applied (reduces call overhead in the VM model).
    pub shrink_wrapped: bool,
}

impl<R: Copy + Eq> MFunction<R> {
    /// Iterates over live block indices in creation order.
    pub fn live_blocks(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.dead)
            .map(|(i, _)| i as u32)
    }

    /// Predecessor lists indexed by block.
    pub fn preds(&self) -> Vec<Vec<u32>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in self.live_blocks() {
            for s in self.blocks[b as usize].term.successors() {
                preds[s as usize].push(b);
            }
        }
        preds
    }

    /// Recomputes `layout` as creation order of reachable blocks.
    pub fn default_layout(&mut self) {
        let mut reach = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry];
        while let Some(b) = stack.pop() {
            if reach[b as usize] || self.blocks[b as usize].dead {
                continue;
            }
            reach[b as usize] = true;
            stack.extend(self.blocks[b as usize].term.successors());
        }
        self.layout = (0..self.blocks.len() as u32)
            .filter(|&b| reach[b as usize])
            .collect();
    }
}

/// A machine module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MModule<R = VR> {
    pub funcs: Vec<MFunction<R>>,
    /// Function emission order into the object.
    pub order: Vec<u32>,
    /// Global data area: per-global (base word address, word size, init).
    pub globals: Vec<(u32, u32, i64)>,
    pub globals_size: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_use_queries() {
        let op: MOpKind<VR> = MOpKind::Bin {
            op: BinOp::Add,
            rd: 2,
            ra: 0,
            rb: 1,
        };
        assert_eq!(op.def(), Some(2));
        let mut uses = vec![];
        op.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![0, 1]);
        assert!(!op.has_side_effect());
    }

    #[test]
    fn dbg_pseudo_has_no_uses() {
        let op: MOpKind<VR> = MOpKind::Dbg {
            var: 0,
            loc: MDbgLoc::Reg(5),
        };
        let mut uses = vec![];
        op.for_each_use(|r| uses.push(r));
        assert!(uses.is_empty(), "debug uses must not extend live ranges");
        assert!(op.is_dbg());
    }

    #[test]
    fn loads_and_stores_classified() {
        let ld: MOpKind<VR> = MOpKind::LdSlot { rd: 0, slot: 1 };
        let st: MOpKind<VR> = MOpKind::StG { addr: 0, rs: 1 };
        assert!(ld.is_load() && !ld.has_side_effect());
        assert!(!st.is_load() && st.has_side_effect());
    }

    #[test]
    fn default_layout_skips_unreachable() {
        let blocks = vec![
            MBlock::<VR> {
                insts: vec![],
                term: MTerm::Jmp(2),
                term_line: 0,
                dead: false,
            },
            MBlock {
                insts: vec![],
                term: MTerm::Ret(None),
                term_line: 0,
                dead: false,
            }, // unreachable
            MBlock {
                insts: vec![],
                term: MTerm::Ret(None),
                term_line: 0,
                dead: false,
            },
        ];
        let mut f = MFunction {
            name: "f".into(),
            blocks,
            entry: 0,
            layout: vec![],
            nvregs: 0,
            slot_sizes: vec![],
            vars: vec![],
            decl_line: 1,
            end_line: 2,
            nparams: 0,
            shrink_wrapped: false,
        };
        f.default_layout();
        assert_eq!(f.layout, vec![0, 2]);
        assert_eq!(f.preds()[2], vec![0]);
    }
}
