//! IR instructions, values, terminators, and effect queries.

use crate::module::{FuncId, GlobalId, SlotId, VReg, VarId};

/// The IR reuses MiniC's operator enums so constant folding anywhere in
/// the pipeline agrees exactly with source/VM semantics.
pub use dt_minic::ast::{BinOp, UnOp};

/// An operand: a virtual register or an immediate constant. The
/// derived order (registers by index, then constants by value) is the
/// canonical operand order of commutative expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    Reg(VReg),
    Const(i64),
}

impl Value {
    /// The register, if this is a register operand.
    pub fn as_reg(self) -> Option<VReg> {
        match self {
            Value::Reg(r) => Some(r),
            Value::Const(_) => None,
        }
    }

    /// The constant, if this is an immediate operand.
    pub fn as_const(self) -> Option<i64> {
        match self {
            Value::Const(c) => Some(c),
            Value::Reg(_) => None,
        }
    }
}

impl From<VReg> for Value {
    fn from(r: VReg) -> Self {
        Value::Reg(r)
    }
}

impl From<i64> for Value {
    fn from(c: i64) -> Self {
        Value::Const(c)
    }
}

/// Where a debug intrinsic says a variable's value lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbgLoc {
    /// The variable currently equals this IR value.
    Value(Value),
    /// The variable lives in this stack slot (the O0 model, and arrays).
    Slot(SlotId),
    /// The variable's value is unrecoverable from this point until the
    /// next debug intrinsic for the same variable.
    Undef,
}

/// An IR operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// `dst = src`
    Copy { dst: VReg, src: Value },
    /// `dst = op src`
    Un { dst: VReg, op: UnOp, src: Value },
    /// `dst = lhs op rhs`
    Bin {
        dst: VReg,
        op: BinOp,
        lhs: Value,
        rhs: Value,
    },
    /// `dst = cond != 0 ? on_true : on_false`
    Select {
        dst: VReg,
        cond: Value,
        on_true: Value,
        on_false: Value,
    },
    /// `dst = slot`
    LoadSlot { dst: VReg, slot: SlotId },
    /// `slot = src`
    StoreSlot { slot: SlotId, src: Value },
    /// `dst = slot[index]` (local array; index is wrapped to bounds)
    LoadIdx {
        dst: VReg,
        slot: SlotId,
        index: Value,
    },
    /// `slot[index] = src`
    StoreIdx {
        slot: SlotId,
        index: Value,
        src: Value,
    },
    /// `dst = global`
    LoadGlobal { dst: VReg, global: GlobalId },
    /// `global = src`
    StoreGlobal { global: GlobalId, src: Value },
    /// `dst = global[index]`
    LoadGIdx {
        dst: VReg,
        global: GlobalId,
        index: Value,
    },
    /// `global[index] = src`
    StoreGIdx {
        global: GlobalId,
        index: Value,
        src: Value,
    },
    /// `dst = callee(args...)`
    Call {
        dst: VReg,
        callee: FuncId,
        args: Vec<Value>,
    },
    /// `dst = in(index)`: input byte, or -1 past the end.
    In { dst: VReg, index: Value },
    /// `dst = in_len()`
    InLen { dst: VReg },
    /// `out(src)`
    Out { src: Value },
    /// Debug intrinsic: from this point, variable `var` is described by
    /// `loc`. Generates no code.
    DbgValue { var: VarId, loc: DbgLoc },
}

/// What part of memory an operation touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemEffect {
    None,
    ReadSlot(SlotId),
    WriteSlot(SlotId),
    ReadGlobal(GlobalId),
    WriteGlobal(GlobalId),
    /// Calls may read and write any global memory and perform I/O
    /// (unless the callee is known pure-const).
    Call(FuncId),
    /// Input/output side effect.
    Io,
}

impl Op {
    /// The register defined by this operation, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            Op::Copy { dst, .. }
            | Op::Un { dst, .. }
            | Op::Bin { dst, .. }
            | Op::Select { dst, .. }
            | Op::LoadSlot { dst, .. }
            | Op::LoadIdx { dst, .. }
            | Op::LoadGlobal { dst, .. }
            | Op::LoadGIdx { dst, .. }
            | Op::Call { dst, .. }
            | Op::In { dst, .. }
            | Op::InLen { dst } => Some(*dst),
            Op::StoreSlot { .. }
            | Op::StoreIdx { .. }
            | Op::StoreGlobal { .. }
            | Op::StoreGIdx { .. }
            | Op::Out { .. }
            | Op::DbgValue { .. } => None,
        }
    }

    /// Rewrites the defined register through `f`.
    pub fn set_def(&mut self, new: VReg) {
        match self {
            Op::Copy { dst, .. }
            | Op::Un { dst, .. }
            | Op::Bin { dst, .. }
            | Op::Select { dst, .. }
            | Op::LoadSlot { dst, .. }
            | Op::LoadIdx { dst, .. }
            | Op::LoadGlobal { dst, .. }
            | Op::LoadGIdx { dst, .. }
            | Op::Call { dst, .. }
            | Op::In { dst, .. }
            | Op::InLen { dst } => *dst = new,
            _ => panic!("set_def on an operation without a destination"),
        }
    }

    /// Invokes `f` on every operand (use) of the operation, including
    /// the value described by a debug intrinsic.
    pub fn for_each_use(&self, mut f: impl FnMut(Value)) {
        self.visit_uses(&mut |v| f(*v));
    }

    /// Invokes `f` with mutable access to every operand.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        self.visit_uses_mut(&mut |v| f(v));
    }

    fn visit_uses(&self, f: &mut dyn FnMut(&Value)) {
        // SAFETY-free trick: route through the mutable visitor on a clone
        // would cost; instead duplicate the match.
        match self {
            Op::Copy { src, .. } | Op::Un { src, .. } => f(src),
            Op::Bin { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Op::Select {
                cond,
                on_true,
                on_false,
                ..
            } => {
                f(cond);
                f(on_true);
                f(on_false);
            }
            Op::LoadSlot { .. } | Op::LoadGlobal { .. } | Op::InLen { .. } => {}
            Op::StoreSlot { src, .. } | Op::StoreGlobal { src, .. } | Op::Out { src } => f(src),
            Op::LoadIdx { index, .. } | Op::LoadGIdx { index, .. } => f(index),
            Op::StoreIdx { index, src, .. } | Op::StoreGIdx { index, src, .. } => {
                f(index);
                f(src);
            }
            Op::Call { args, .. } => args.iter().for_each(f),
            Op::In { index, .. } => f(index),
            Op::DbgValue { loc, .. } => {
                if let DbgLoc::Value(v) = loc {
                    f(v);
                }
            }
        }
    }

    fn visit_uses_mut(&mut self, f: &mut dyn FnMut(&mut Value)) {
        match self {
            Op::Copy { src, .. } | Op::Un { src, .. } => f(src),
            Op::Bin { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Op::Select {
                cond,
                on_true,
                on_false,
                ..
            } => {
                f(cond);
                f(on_true);
                f(on_false);
            }
            Op::LoadSlot { .. } | Op::LoadGlobal { .. } | Op::InLen { .. } => {}
            Op::StoreSlot { src, .. } | Op::StoreGlobal { src, .. } | Op::Out { src } => f(src),
            Op::LoadIdx { index, .. } | Op::LoadGIdx { index, .. } => f(index),
            Op::StoreIdx { index, src, .. } | Op::StoreGIdx { index, src, .. } => {
                f(index);
                f(src);
            }
            Op::Call { args, .. } => args.iter_mut().for_each(f),
            Op::In { index, .. } => f(index),
            Op::DbgValue { loc, .. } => {
                if let DbgLoc::Value(v) = loc {
                    f(v);
                }
            }
        }
    }

    /// Whether this is a debug intrinsic.
    pub fn is_dbg(&self) -> bool {
        matches!(self, Op::DbgValue { .. })
    }

    /// The operation's memory/I/O effect.
    pub fn mem_effect(&self) -> MemEffect {
        match self {
            Op::LoadSlot { slot, .. } | Op::LoadIdx { slot, .. } => MemEffect::ReadSlot(*slot),
            Op::StoreSlot { slot, .. } | Op::StoreIdx { slot, .. } => MemEffect::WriteSlot(*slot),
            Op::LoadGlobal { global, .. } | Op::LoadGIdx { global, .. } => {
                MemEffect::ReadGlobal(*global)
            }
            Op::StoreGlobal { global, .. } | Op::StoreGIdx { global, .. } => {
                MemEffect::WriteGlobal(*global)
            }
            Op::Call { callee, .. } => MemEffect::Call(*callee),
            Op::In { .. } | Op::InLen { .. } | Op::Out { .. } => MemEffect::Io,
            _ => MemEffect::None,
        }
    }

    /// Whether the operation has an effect beyond defining its register
    /// (so DCE must keep it even if the register is dead). Calls are
    /// conservatively side-effecting; passes refine this with
    /// `pure_const` attributes.
    pub fn has_side_effect(&self) -> bool {
        matches!(
            self,
            Op::StoreSlot { .. }
                | Op::StoreIdx { .. }
                | Op::StoreGlobal { .. }
                | Op::StoreGIdx { .. }
                | Op::Call { .. }
                | Op::In { .. }
                | Op::InLen { .. }
                | Op::Out { .. }
        )
    }

    /// Whether the operation is a pure computation (no memory, no I/O),
    /// i.e. eligible for CSE/GVN/LICM.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            Op::Copy { .. } | Op::Un { .. } | Op::Bin { .. } | Op::Select { .. }
        )
    }

    /// If the operation computes a constant, folds it.
    pub fn fold_constant(&self) -> Option<i64> {
        match self {
            Op::Copy {
                src: Value::Const(c),
                ..
            } => Some(*c),
            Op::Un {
                op,
                src: Value::Const(c),
                ..
            } => Some(op.eval(*c)),
            Op::Bin {
                op,
                lhs: Value::Const(a),
                rhs: Value::Const(b),
                ..
            } => Some(op.eval(*a, *b)),
            Op::Select {
                cond: Value::Const(c),
                on_true,
                on_false,
                ..
            } => {
                let v = if *c != 0 { on_true } else { on_false };
                v.as_const()
            }
            _ => None,
        }
    }
}

/// An instruction: an operation plus debug metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    pub op: Op,
    /// Source line (0 = no line, DWARF's "line 0" convention).
    pub line: u32,
    /// Set by the SLP vectorizer: this instruction executes fused with
    /// the next one (the VM charges the pair a single issue slot).
    pub fused: bool,
}

impl Inst {
    /// A new instruction at `line`.
    pub fn new(op: Op, line: u32) -> Self {
        Inst {
            op,
            line,
            fused: false,
        }
    }

    /// A new artificial instruction with no source line.
    pub fn synth(op: Op) -> Self {
        Inst::new(op, 0)
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(crate::module::BlockId),
    /// Conditional branch on `cond != 0`.
    Branch {
        cond: Value,
        then_bb: crate::module::BlockId,
        else_bb: crate::module::BlockId,
        /// Estimated probability (per mille) that the branch is taken,
        /// set by `guess-branch-probability` or by AutoFDO profiles.
        prob_then: Option<u16>,
    },
    /// Return, optionally with a value.
    Ret(Option<Value>),
}

impl Terminator {
    /// Successor block ids, in order (then before else), without
    /// allocating.
    pub fn successors(&self) -> impl Iterator<Item = crate::module::BlockId> + Clone {
        let (first, second) = match *self {
            Terminator::Jump(b) => (Some(b), None),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => (Some(then_bb), Some(else_bb)),
            Terminator::Ret(_) => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Invokes `f` with mutable access to each successor id.
    pub fn for_each_successor_mut(&mut self, mut f: impl FnMut(&mut crate::module::BlockId)) {
        match self {
            Terminator::Jump(b) => f(b),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                f(then_bb);
                f(else_bb);
            }
            Terminator::Ret(_) => {}
        }
    }

    /// The condition operand of a branch, if any.
    pub fn cond(&self) -> Option<Value> {
        match self {
            Terminator::Branch { cond, .. } => Some(*cond),
            _ => None,
        }
    }

    /// Invokes `f` on the values used by the terminator.
    pub fn for_each_use(&self, mut f: impl FnMut(Value)) {
        match self {
            Terminator::Branch { cond, .. } => f(*cond),
            Terminator::Ret(Some(v)) => f(*v),
            _ => {}
        }
    }

    /// Invokes `f` with mutable access to the values used.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match self {
            Terminator::Branch { cond, .. } => f(cond),
            Terminator::Ret(Some(v)) => f(v),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::BlockId;

    #[test]
    fn def_and_uses() {
        let op = Op::Bin {
            dst: VReg(2),
            op: BinOp::Add,
            lhs: Value::Reg(VReg(0)),
            rhs: Value::Const(1),
        };
        assert_eq!(op.def(), Some(VReg(2)));
        let mut uses = Vec::new();
        op.for_each_use(|v| uses.push(v));
        assert_eq!(uses, vec![Value::Reg(VReg(0)), Value::Const(1)]);
    }

    #[test]
    fn stores_have_no_def_but_side_effects() {
        let op = Op::StoreGlobal {
            global: GlobalId(0),
            src: Value::Const(3),
        };
        assert_eq!(op.def(), None);
        assert!(op.has_side_effect());
        assert!(!op.is_pure());
    }

    #[test]
    fn dbg_value_uses_its_value() {
        let op = Op::DbgValue {
            var: VarId(0),
            loc: DbgLoc::Value(Value::Reg(VReg(5))),
        };
        let mut uses = Vec::new();
        op.for_each_use(|v| uses.push(v));
        assert_eq!(uses, vec![Value::Reg(VReg(5))]);
        assert!(op.is_dbg());
        assert!(!op.has_side_effect());
    }

    #[test]
    fn rewrite_uses() {
        let mut op = Op::Bin {
            dst: VReg(2),
            op: BinOp::Mul,
            lhs: Value::Reg(VReg(0)),
            rhs: Value::Reg(VReg(0)),
        };
        op.for_each_use_mut(|v| {
            if *v == Value::Reg(VReg(0)) {
                *v = Value::Const(7);
            }
        });
        assert_eq!(op.fold_constant(), Some(49));
    }

    #[test]
    fn constant_folding() {
        let op = Op::Bin {
            dst: VReg(0),
            op: BinOp::Div,
            lhs: Value::Const(10),
            rhs: Value::Const(0),
        };
        assert_eq!(op.fold_constant(), Some(0), "division by zero is total");
        let op = Op::Select {
            dst: VReg(0),
            cond: Value::Const(1),
            on_true: Value::Const(4),
            on_false: Value::Const(9),
        };
        assert_eq!(op.fold_constant(), Some(4));
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Value::Reg(VReg(0)),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
            prob_then: None,
        };
        assert!(t.successors().eq([BlockId(1), BlockId(2)]));
        assert_eq!(Terminator::Ret(None).successors().count(), 0);
    }

    #[test]
    fn terminator_successor_rewrite() {
        let mut t = Terminator::Jump(BlockId(3));
        t.for_each_successor_mut(|b| *b = BlockId(7));
        assert!(t.successors().eq([BlockId(7)]));
    }

    #[test]
    fn mem_effects() {
        assert_eq!(
            Op::LoadSlot {
                dst: VReg(0),
                slot: SlotId(2)
            }
            .mem_effect(),
            MemEffect::ReadSlot(SlotId(2))
        );
        assert_eq!(
            Op::Out {
                src: Value::Const(0)
            }
            .mem_effect(),
            MemEffect::Io
        );
    }
}
