//! A convenience builder for constructing IR functions.
//!
//! Used by the frontend and by tests that need hand-built CFGs.

use crate::inst::{BinOp, DbgLoc, Inst, Op, Terminator, UnOp, Value};
use crate::module::{Block, BlockId, FuncAttrs, FuncId, Function, SlotId, VReg, VarId, VarInfo};

/// Builds one [`Function`] block by block.
///
/// The builder keeps a *current block*; instruction-emitting methods
/// append to it. Every emitting method takes the source line of the
/// construct it implements.
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
    /// Whether the current block has been sealed with a real terminator.
    terminated: bool,
}

impl FunctionBuilder {
    /// Starts a function named `name` with `nparams` parameters. The
    /// parameter registers are `%0..%nparams`.
    pub fn new(name: &str, nparams: usize, line: u32) -> Self {
        let mut func = Function {
            name: name.to_owned(),
            id: FuncId(0),
            params: (0..nparams as u32).map(VReg).collect(),
            blocks: vec![Block::new(Terminator::Ret(None))],
            entry: BlockId(0),
            vreg_count: nparams as u32,
            vars: Vec::new(),
            slots: Vec::new(),
            line,
            end_line: line,
            attrs: FuncAttrs::default(),
        };
        func.blocks[0].term_line = 0;
        FunctionBuilder {
            func,
            current: BlockId(0),
            terminated: false,
        }
    }

    /// The block currently being filled.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// Whether the current block already has a terminator (further
    /// instructions would be unreachable).
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Creates a new (empty, unterminated) block and returns its id.
    pub fn create_block(&mut self) -> BlockId {
        self.func.new_block(Terminator::Ret(None))
    }

    /// Switches the insertion point to `b`.
    pub fn switch_to(&mut self, b: BlockId) {
        self.current = b;
        self.terminated = false;
    }

    /// Allocates a fresh virtual register.
    pub fn vreg(&mut self) -> VReg {
        self.func.new_vreg()
    }

    /// Registers a source variable.
    pub fn var(&mut self, info: VarInfo) -> VarId {
        self.func.new_var(info)
    }

    /// Allocates a stack slot of `size` words for `var`.
    pub fn slot(&mut self, size: u32, var: Option<VarId>) -> SlotId {
        self.func.new_slot(size, var)
    }

    /// Appends a raw instruction to the current block.
    pub fn push(&mut self, inst: Inst) {
        if self.terminated {
            return; // dead code after return/break: silently dropped
        }
        self.func.blocks[self.current.index()].insts.push(inst);
    }

    /// Emits `dst = op(...)` style helpers.
    pub fn copy(&mut self, src: Value, line: u32) -> VReg {
        let dst = self.vreg();
        self.push(Inst::new(Op::Copy { dst, src }, line));
        dst
    }

    pub fn bin(&mut self, op: BinOp, lhs: Value, rhs: Value, line: u32) -> VReg {
        let dst = self.vreg();
        self.push(Inst::new(Op::Bin { dst, op, lhs, rhs }, line));
        dst
    }

    pub fn un(&mut self, op: UnOp, src: Value, line: u32) -> VReg {
        let dst = self.vreg();
        self.push(Inst::new(Op::Un { dst, op, src }, line));
        dst
    }

    /// Emits a debug intrinsic binding `var` to `loc`.
    pub fn dbg_value(&mut self, var: VarId, loc: DbgLoc, line: u32) {
        self.push(Inst::new(Op::DbgValue { var, loc }, line));
    }

    /// Terminates the current block with a jump and leaves the
    /// insertion point on the (now sealed) block.
    pub fn jump(&mut self, target: BlockId, line: u32) {
        self.terminate(Terminator::Jump(target), line);
    }

    /// Terminates the current block with a conditional branch.
    pub fn branch(&mut self, cond: Value, then_bb: BlockId, else_bb: BlockId, line: u32) {
        self.terminate(
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
                prob_then: None,
            },
            line,
        );
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Value>, line: u32) {
        self.terminate(Terminator::Ret(value), line);
    }

    fn terminate(&mut self, term: Terminator, line: u32) {
        if self.terminated {
            return;
        }
        let blk = &mut self.func.blocks[self.current.index()];
        blk.term = term;
        blk.term_line = line;
        self.terminated = true;
    }

    /// Finishes the function. Unterminated blocks keep their default
    /// `ret` terminator (this matches C's implicit return).
    pub fn finish(mut self, end_line: u32) -> Function {
        self.func.end_line = end_line;
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_straight_line_code() {
        let mut b = FunctionBuilder::new("f", 1, 1);
        let p = b.func.params[0];
        let t = b.bin(BinOp::Add, Value::Reg(p), Value::Const(1), 2);
        b.ret(Some(Value::Reg(t)), 3);
        let f = b.finish(4);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 1);
        assert!(matches!(f.blocks[0].term, Terminator::Ret(Some(_))));
        assert_eq!(f.end_line, 4);
    }

    #[test]
    fn instructions_after_terminator_are_dropped() {
        let mut b = FunctionBuilder::new("f", 0, 1);
        b.ret(None, 2);
        let dead = b.copy(Value::Const(1), 3);
        b.ret(Some(Value::Reg(dead)), 4);
        let f = b.finish(5);
        assert!(f.blocks[0].insts.is_empty());
        assert!(matches!(f.blocks[0].term, Terminator::Ret(None)));
    }

    #[test]
    fn multi_block_construction() {
        let mut b = FunctionBuilder::new("f", 1, 1);
        let then_bb = b.create_block();
        let else_bb = b.create_block();
        let join = b.create_block();
        b.branch(Value::Reg(VReg(0)), then_bb, else_bb, 2);
        b.switch_to(then_bb);
        b.jump(join, 3);
        b.switch_to(else_bb);
        b.jump(join, 4);
        b.switch_to(join);
        b.ret(None, 5);
        let f = b.finish(6);
        assert_eq!(f.blocks.len(), 4);
        assert!(f.block(BlockId(0)).term.successors().eq([then_bb, else_bb]));
    }
}
