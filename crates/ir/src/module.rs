//! IR containers: modules, functions, blocks, and their id types.

use crate::inst::{Inst, Terminator};
use std::fmt;
use std::sync::Arc;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }
    };
}

id_type!(
    /// A virtual register.
    VReg,
    "%"
);
id_type!(
    /// A basic-block id within a function.
    BlockId,
    "bb"
);
id_type!(
    /// A source-level variable id within a function (locals and params).
    VarId,
    "var"
);
id_type!(
    /// A stack slot id within a function (scalar homes, arrays, spills).
    SlotId,
    "slot"
);
id_type!(
    /// A global variable id within a module.
    GlobalId,
    "@g"
);
id_type!(
    /// A function id within a module.
    FuncId,
    "@f"
);

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub insts: Vec<Inst>,
    pub term: Terminator,
    /// Source line of the terminator (e.g. the `if`/`while` condition
    /// or the `return`); 0 when unknown.
    pub term_line: u32,
    /// Tombstone flag: dead blocks are skipped by analyses and codegen
    /// but keep their id so other blocks need no renumbering.
    pub dead: bool,
}

impl Block {
    /// A new empty block ending in `term`.
    pub fn new(term: Terminator) -> Self {
        Block {
            insts: Vec::new(),
            term,
            term_line: 0,
            dead: false,
        }
    }
}

/// Metadata for one source-level variable of a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    pub name: String,
    pub is_param: bool,
    pub is_array: bool,
    pub decl_line: u32,
}

/// Metadata for one stack slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotInfo {
    /// Size in 8-byte words (1 for scalars).
    pub size: u32,
    /// The source variable the slot is the home of, if any. Spill slots
    /// introduced by the register allocator have `None`.
    pub var: Option<VarId>,
}

/// Function-level attributes set by interprocedural analyses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncAttrs {
    /// Set by `ipa-pure-const`: no side effects, no memory writes, no
    /// I/O; calls to the function can be CSE'd and dead-call-eliminated.
    pub pure_const: bool,
}

/// A function in IR form.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub name: String,
    pub id: FuncId,
    /// Virtual registers holding the parameters on entry.
    pub params: Vec<VReg>,
    pub blocks: Vec<Block>,
    pub entry: BlockId,
    /// Number of virtual registers allocated so far.
    pub vreg_count: u32,
    pub vars: Vec<VarInfo>,
    pub slots: Vec<SlotInfo>,
    /// Line of the function header in the source.
    pub line: u32,
    /// Line of the closing brace.
    pub end_line: u32,
    pub attrs: FuncAttrs,
}

impl Function {
    /// Allocates a fresh virtual register.
    pub fn new_vreg(&mut self) -> VReg {
        let r = VReg(self.vreg_count);
        self.vreg_count += 1;
        r
    }

    /// Allocates a fresh block with the given terminator, returning its id.
    pub fn new_block(&mut self, term: Terminator) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new(term));
        id
    }

    /// Allocates a new stack slot.
    pub fn new_slot(&mut self, size: u32, var: Option<VarId>) -> SlotId {
        let id = SlotId(self.slots.len() as u32);
        self.slots.push(SlotInfo { size, var });
        id
    }

    /// Registers a new source variable.
    pub fn new_var(&mut self, info: VarInfo) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(info);
        id
    }

    /// The block with id `b`. Panics if out of range.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Mutable access to block `b`.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.index()]
    }

    /// Iterates over the ids of live (non-tombstoned) blocks.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.dead)
            .map(|(i, _)| BlockId(i as u32))
    }

    /// Marks `b` dead. The entry block cannot be removed.
    pub fn remove_block(&mut self, b: BlockId) {
        assert_ne!(b, self.entry, "cannot remove the entry block");
        let blk = self.block_mut(b);
        blk.dead = true;
        blk.insts.clear();
        blk.term = Terminator::Ret(None);
    }

    /// Drops the spare capacity of every vector of the function (for a
    /// copy that is kept for long).
    pub fn shrink_to_fit(&mut self) {
        self.params.shrink_to_fit();
        self.blocks.shrink_to_fit();
        for b in &mut self.blocks {
            b.insts.shrink_to_fit();
        }
        self.vars.shrink_to_fit();
        self.slots.shrink_to_fit();
    }

    /// Total number of instructions in live blocks (excluding debug
    /// intrinsics), a cheap size proxy for inlining heuristics.
    pub fn code_size(&self) -> usize {
        self.block_ids()
            .map(|b| {
                self.block(b)
                    .insts
                    .iter()
                    .filter(|i| !i.op.is_dbg())
                    .count()
                    + 1
            })
            .sum()
    }
}

/// A module-level global variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalInfo {
    pub name: String,
    /// Size in words: 1 for scalars, N for arrays.
    pub size: u32,
    /// Initial value of word 0 (arrays are zero-initialized).
    pub init: i64,
    pub line: u32,
}

/// A whole translation unit in IR form.
///
/// Functions are held behind [`Arc`]s, so cloning a module copies
/// pointers, and modules built from a common ancestor share every
/// function no pass has changed since. A pass that changes a function
/// gets its own copy through [`Module::func_mut`] (copy on write).
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    pub funcs: Vec<Arc<Function>>,
    pub globals: Vec<GlobalInfo>,
    /// Emission order of functions into the object file. The
    /// `toplevel-reorder` pass permutes this; everything else preserves
    /// source order.
    pub order: Vec<FuncId>,
}

impl Module {
    /// An empty module.
    pub fn new() -> Self {
        Module {
            funcs: Vec::new(),
            globals: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Adds a function, returning its id. The function's `id` field is
    /// updated to match.
    pub fn add_function(&mut self, mut f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        f.id = id;
        self.funcs.push(Arc::new(f));
        self.order.push(id);
        id
    }

    /// Adds a global, returning its id.
    pub fn add_global(&mut self, g: GlobalInfo) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(g);
        id
    }

    /// Function lookup by id.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Mutable function lookup by id: copies the function first if
    /// another module still shares it.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        Arc::make_mut(&mut self.funcs[id.index()])
    }

    /// Function lookup by name.
    pub fn func_by_name(&self, name: &str) -> Option<&Function> {
        self.funcs.iter().find(|f| f.name == name).map(|f| &**f)
    }

    /// Total word size of the global data area.
    pub fn globals_size(&self) -> u32 {
        self.globals.iter().map(|g| g.size).sum()
    }
}

impl Default for Module {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Terminator;

    fn empty_function() -> Function {
        Function {
            name: "f".into(),
            id: FuncId(0),
            params: vec![],
            blocks: vec![Block::new(Terminator::Ret(None))],
            entry: BlockId(0),
            vreg_count: 0,
            vars: vec![],
            slots: vec![],
            line: 1,
            end_line: 1,
            attrs: FuncAttrs::default(),
        }
    }

    #[test]
    fn id_display() {
        assert_eq!(VReg(3).to_string(), "%3");
        assert_eq!(BlockId(0).to_string(), "bb0");
        assert_eq!(GlobalId(2).to_string(), "@g2");
    }

    #[test]
    fn vreg_allocation_is_sequential() {
        let mut f = empty_function();
        assert_eq!(f.new_vreg(), VReg(0));
        assert_eq!(f.new_vreg(), VReg(1));
        assert_eq!(f.vreg_count, 2);
    }

    #[test]
    fn dead_blocks_skipped_by_block_ids() {
        let mut f = empty_function();
        let b1 = f.new_block(Terminator::Ret(None));
        f.remove_block(b1);
        let ids: Vec<_> = f.block_ids().collect();
        assert_eq!(ids, vec![BlockId(0)]);
    }

    #[test]
    #[should_panic(expected = "entry block")]
    fn cannot_remove_entry() {
        let mut f = empty_function();
        f.remove_block(BlockId(0));
    }

    #[test]
    fn module_function_registry() {
        let mut m = Module::new();
        let id = m.add_function(empty_function());
        assert_eq!(m.func(id).name, "f");
        assert_eq!(m.func(id).id, id);
        assert!(m.func_by_name("f").is_some());
        assert!(m.func_by_name("g").is_none());
        assert_eq!(m.order, vec![id]);
    }

    #[test]
    fn globals_size_sums_words() {
        let mut m = Module::new();
        m.add_global(GlobalInfo {
            name: "x".into(),
            size: 1,
            init: 7,
            line: 1,
        });
        m.add_global(GlobalInfo {
            name: "buf".into(),
            size: 16,
            init: 0,
            line: 2,
        });
        assert_eq!(m.globals_size(), 17);
    }
}
