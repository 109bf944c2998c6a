//! IR → machine IR lowering (instruction selection).
//!
//! Virtual registers are carried over 1:1; IR constants are either
//! folded into immediate forms (`Imm`, `BinImm`) or materialized into
//! fresh virtual registers. Debug intrinsics map onto machine `Dbg`
//! pseudos unchanged.

use crate::mir::{MBlock, MDbgLoc, MFunction, MInst, MOpKind, MTerm, MVarInfo, VR};
use dt_ir::{DbgLoc, Function, Inst, Module, Op, Terminator, Value};

/// Lowers a whole IR module (the backend itself lowers one function at
/// a time, [`lower_function`]).
#[cfg(test)]
pub(crate) fn lower_module(module: &Module) -> crate::mir::MModule {
    let (globals, globals_size) = global_layout(module);
    let funcs = module
        .funcs
        .iter()
        .map(|f| lower_function(f, module, &globals))
        .collect();

    crate::mir::MModule {
        funcs,
        order: module.order.iter().map(|id| id.0).collect(),
        globals,
        globals_size,
    }
}

/// Lays out the module's globals: per global (base word address, word
/// size, init), bases in declaration order, plus the total word size.
pub fn global_layout(module: &Module) -> (Vec<(u32, u32, i64)>, u32) {
    let mut globals = Vec::with_capacity(module.globals.len());
    let mut base = 0u32;
    for g in &module.globals {
        globals.push((base, g.size, g.init));
        base += g.size;
    }
    (globals, base)
}

struct Lowerer<'a> {
    func: &'a Function,
    globals: &'a [(u32, u32, i64)],
    module: &'a Module,
    next_vreg: VR,
    out: Vec<MInst>,
}

impl Lowerer<'_> {
    fn vreg(&mut self) -> VR {
        let r = self.next_vreg;
        self.next_vreg += 1;
        r
    }

    fn push(&mut self, op: MOpKind, line: u32) {
        self.out.push(MInst::new(op, line));
    }

    /// Materializes `v` into a register.
    fn reg(&mut self, v: Value, line: u32) -> VR {
        match v {
            Value::Reg(r) => r.0,
            Value::Const(c) => {
                let rd = self.vreg();
                // Materialized immediates are artificial: no line, not a
                // statement boundary.
                let mut inst = MInst::new(MOpKind::Imm { rd, value: c }, line);
                inst.stmt = false;
                self.out.push(inst);
                rd
            }
        }
    }

    fn global_base(&self, g: dt_ir::GlobalId) -> (u32, u32) {
        let (base, size, _) = self.globals[g.index()];
        (base, size)
    }

    fn lower_inst(&mut self, inst: &Inst) {
        let line = inst.line;
        let start = self.out.len();
        match &inst.op {
            Op::Copy { dst, src } => match src {
                Value::Reg(r) => self.push(MOpKind::Mov { rd: dst.0, rs: r.0 }, line),
                Value::Const(c) => self.push(
                    MOpKind::Imm {
                        rd: dst.0,
                        value: *c,
                    },
                    line,
                ),
            },
            Op::Un { dst, op, src } => {
                let rs = self.reg(*src, line);
                self.push(
                    MOpKind::Un {
                        op: *op,
                        rd: dst.0,
                        rs,
                    },
                    line,
                );
            }
            Op::Bin { dst, op, lhs, rhs } => match (lhs, rhs) {
                (l, Value::Const(c)) => {
                    let ra = self.reg(*l, line);
                    self.push(
                        MOpKind::BinImm {
                            op: *op,
                            rd: dst.0,
                            ra,
                            imm: *c,
                        },
                        line,
                    );
                }
                (Value::Const(c), Value::Reg(r)) if op.is_commutative() => {
                    self.push(
                        MOpKind::BinImm {
                            op: *op,
                            rd: dst.0,
                            ra: r.0,
                            imm: *c,
                        },
                        line,
                    );
                }
                (l, r) => {
                    let ra = self.reg(*l, line);
                    let rb = self.reg(*r, line);
                    self.push(
                        MOpKind::Bin {
                            op: *op,
                            rd: dst.0,
                            ra,
                            rb,
                        },
                        line,
                    );
                }
            },
            Op::Select {
                dst,
                cond,
                on_true,
                on_false,
            } => {
                let rc = self.reg(*cond, line);
                let ra = self.reg(*on_true, line);
                let rb = self.reg(*on_false, line);
                self.push(
                    MOpKind::Select {
                        rd: dst.0,
                        rc,
                        ra,
                        rb,
                    },
                    line,
                );
            }
            Op::LoadSlot { dst, slot } => self.push(
                MOpKind::LdSlot {
                    rd: dst.0,
                    slot: slot.0,
                },
                line,
            ),
            Op::StoreSlot { slot, src } => {
                let rs = self.reg(*src, line);
                self.push(MOpKind::StSlot { slot: slot.0, rs }, line);
            }
            Op::LoadIdx { dst, slot, index } => {
                let ri = self.reg(*index, line);
                let len = self.func.slots[slot.index()].size;
                self.push(
                    MOpKind::LdIdx {
                        rd: dst.0,
                        slot: slot.0,
                        ri,
                        len,
                    },
                    line,
                );
            }
            Op::StoreIdx { slot, index, src } => {
                let ri = self.reg(*index, line);
                let rs = self.reg(*src, line);
                let len = self.func.slots[slot.index()].size;
                self.push(
                    MOpKind::StIdx {
                        slot: slot.0,
                        ri,
                        rs,
                        len,
                    },
                    line,
                );
            }
            Op::LoadGlobal { dst, global } => {
                let (base, _) = self.global_base(*global);
                self.push(
                    MOpKind::LdG {
                        rd: dst.0,
                        addr: base,
                    },
                    line,
                );
            }
            Op::StoreGlobal { global, src } => {
                let rs = self.reg(*src, line);
                let (base, _) = self.global_base(*global);
                self.push(MOpKind::StG { addr: base, rs }, line);
            }
            Op::LoadGIdx { dst, global, index } => {
                let ri = self.reg(*index, line);
                let (base, len) = self.global_base(*global);
                self.push(
                    MOpKind::LdGIdx {
                        rd: dst.0,
                        base,
                        ri,
                        len,
                    },
                    line,
                );
            }
            Op::StoreGIdx { global, index, src } => {
                let ri = self.reg(*index, line);
                let rs = self.reg(*src, line);
                let (base, len) = self.global_base(*global);
                self.push(MOpKind::StGIdx { base, ri, rs, len }, line);
            }
            Op::Call { dst, callee, args } => {
                assert!(
                    args.len() <= crate::preg::PReg::MAX_ARGS,
                    "more than {} call arguments in `{}` calling `{}`",
                    crate::preg::PReg::MAX_ARGS,
                    self.func.name,
                    self.module.func(*callee).name,
                );
                for (k, a) in args.iter().enumerate() {
                    let rs = self.reg(*a, line);
                    self.push(MOpKind::SetArg { k: k as u8, rs }, line);
                }
                self.push(MOpKind::CallF { func: callee.0 }, line);
                let mut copy = MInst::new(MOpKind::CopyRet { rd: dst.0 }, line);
                copy.stmt = false;
                self.out.push(copy);
            }
            Op::In { dst, index } => {
                let ri = self.reg(*index, line);
                self.push(MOpKind::In { rd: dst.0, ri }, line);
            }
            Op::InLen { dst } => self.push(MOpKind::InLen { rd: dst.0 }, line),
            Op::Out { src } => {
                let rs = self.reg(*src, line);
                self.push(MOpKind::Out { rs }, line);
            }
            Op::DbgValue { var, loc } => {
                let mloc = match loc {
                    DbgLoc::Value(Value::Reg(r)) => MDbgLoc::Reg(r.0),
                    DbgLoc::Value(Value::Const(c)) => MDbgLoc::Const(*c),
                    DbgLoc::Slot(s) => MDbgLoc::Slot(s.0),
                    DbgLoc::Undef => MDbgLoc::Undef,
                };
                let mut inst = MInst::new(
                    MOpKind::Dbg {
                        var: var.0,
                        loc: mloc,
                    },
                    line,
                );
                inst.stmt = false;
                self.out.push(inst);
            }
        }
        // Propagate the SLP fusion flag to the principal lowered op.
        if inst.fused {
            if let Some(main) = self.out[start..].iter_mut().rev().find(|i| !i.op.is_dbg()) {
                main.fused = true;
            }
        }
    }
}

/// Lowers one function of `module`, whose globals are laid out as
/// `globals` ([`global_layout`]). Of the rest of the module it reads
/// only the callees' names.
pub fn lower_function(f: &Function, module: &Module, globals: &[(u32, u32, i64)]) -> MFunction {
    let mut blocks = Vec::with_capacity(f.blocks.len());
    let mut next_vreg = f.vreg_count;

    for (bi, blk) in f.blocks.iter().enumerate() {
        if blk.dead {
            blocks.push(MBlock {
                insts: vec![],
                term: MTerm::Ret(None),
                term_line: 0,
                dead: true,
            });
            continue;
        }
        let mut lw = Lowerer {
            func: f,
            globals,
            module,
            next_vreg,
            out: Vec::with_capacity(blk.insts.len() + 4),
        };
        // Entry block: receive parameters first.
        if bi as u32 == f.entry.0 {
            for (k, p) in f.params.iter().enumerate() {
                let mut inst = MInst::new(
                    MOpKind::GetArg {
                        rd: p.0,
                        k: k as u8,
                    },
                    f.line,
                );
                inst.stmt = false;
                lw.out.push(inst);
            }
        }
        for inst in &blk.insts {
            lw.lower_inst(inst);
        }
        let term = match &blk.term {
            Terminator::Jump(t) => MTerm::Jmp(t.0),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
                prob_then,
            } => match cond {
                Value::Const(c) => MTerm::Jmp(if *c != 0 { then_bb.0 } else { else_bb.0 }),
                Value::Reg(r) => MTerm::JCond {
                    rs: r.0,
                    then_bb: then_bb.0,
                    else_bb: else_bb.0,
                    prob_then: *prob_then,
                },
            },
            Terminator::Ret(v) => match v {
                None => MTerm::Ret(None),
                Some(v) => {
                    let r = lw.reg(*v, blk.term_line);
                    MTerm::Ret(Some(r))
                }
            },
        };
        next_vreg = lw.next_vreg;
        blocks.push(MBlock {
            insts: lw.out,
            term,
            term_line: blk.term_line,
            dead: false,
        });
    }

    let mut mf = MFunction {
        name: f.name.clone(),
        blocks,
        entry: f.entry.0,
        layout: vec![],
        nvregs: next_vreg,
        slot_sizes: f.slots.iter().map(|s| s.size).collect(),
        vars: f
            .vars
            .iter()
            .map(|v| MVarInfo {
                name: v.name.clone(),
                is_param: v.is_param,
                decl_line: v.decl_line,
            })
            .collect(),
        decl_line: f.line,
        end_line: f.end_line,
        nparams: f.params.len() as u32,
        shrink_wrapped: false,
    };
    mf.default_layout();
    mf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::MModule;

    fn lower(src: &str) -> MModule {
        let m = dt_frontend::lower_source(src).unwrap();
        lower_module(&m)
    }

    fn ops_of(m: &MModule, f: usize) -> Vec<&MOpKind> {
        m.funcs[f]
            .blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .map(|i| &i.op)
            .collect()
    }

    #[test]
    fn constants_fold_into_immediates() {
        let m = lower("int f(int x) { return x + 3; }");
        let ops = ops_of(&m, 0);
        assert!(ops
            .iter()
            .any(|o| matches!(o, MOpKind::BinImm { imm: 3, .. })));
    }

    #[test]
    fn params_received_via_getarg() {
        let m = lower("int f(int a, int b) { return a * b; }");
        let ops = ops_of(&m, 0);
        let getargs = ops
            .iter()
            .filter(|o| matches!(o, MOpKind::GetArg { .. }))
            .count();
        assert_eq!(getargs, 2);
        assert_eq!(m.funcs[0].nparams, 2);
    }

    #[test]
    fn calls_lower_to_setarg_call_copyret() {
        let m = lower("int g(int x) { return x; }\nint f() { return g(7); }");
        let ops = ops_of(&m, 1);
        let idx_set = ops
            .iter()
            .position(|o| matches!(o, MOpKind::SetArg { k: 0, .. }))
            .unwrap();
        let idx_call = ops
            .iter()
            .position(|o| matches!(o, MOpKind::CallF { func: 0 }))
            .unwrap();
        let idx_ret = ops
            .iter()
            .position(|o| matches!(o, MOpKind::CopyRet { .. }))
            .unwrap();
        assert!(idx_set < idx_call && idx_call < idx_ret);
    }

    #[test]
    fn globals_get_base_addresses() {
        let m = lower("int a = 1;\nint buf[4];\nint b = 2;\nint f() { return a + buf[1] + b; }");
        assert_eq!(m.globals, vec![(0, 1, 1), (1, 4, 0), (5, 1, 2)]);
        assert_eq!(m.globals_size, 6);
        let ops = ops_of(&m, 0);
        assert!(ops
            .iter()
            .any(|o| matches!(o, MOpKind::LdG { addr: 0, .. })));
        assert!(ops.iter().any(|o| matches!(
            o,
            MOpKind::LdGIdx {
                base: 1,
                len: 4,
                ..
            }
        )));
        assert!(ops
            .iter()
            .any(|o| matches!(o, MOpKind::LdG { addr: 5, .. })));
    }

    #[test]
    fn constant_branches_fold_to_jumps() {
        let m = lower("int f() { while (1) { if (in(0) < 0) { break; } } return 0; }");
        // `while (1)` must not leave a JCond on a constant.
        for f in &m.funcs {
            for b in &f.blocks {
                if let MTerm::JCond { .. } = b.term {
                    // ok, but it must come from the `if`, not the constant
                }
            }
        }
        // At least the constant-cond loop header became Jmp.
        let jmps = m.funcs[0]
            .blocks
            .iter()
            .filter(|b| matches!(b.term, MTerm::Jmp(_)))
            .count();
        assert!(jmps >= 1);
    }

    #[test]
    fn dbg_values_become_pseudos() {
        let m = lower("int f() { int x = 5; return x; }");
        let ops = ops_of(&m, 0);
        assert!(ops.iter().any(|o| matches!(o, MOpKind::Dbg { .. })));
    }

    #[test]
    fn array_ops_carry_length_for_wrapping() {
        let m = lower("int f() { int a[7]; a[9] = 1; return a[2]; }");
        let ops = ops_of(&m, 0);
        assert!(ops
            .iter()
            .any(|o| matches!(o, MOpKind::StIdx { len: 7, .. })));
        assert!(ops
            .iter()
            .any(|o| matches!(o, MOpKind::LdIdx { len: 7, .. })));
    }

    #[test]
    fn layout_defaults_to_reachable_creation_order() {
        let m = lower("int f(int c) { if (c) { out(1); } else { out(2); } return 0; }");
        let f = &m.funcs[0];
        assert!(!f.layout.is_empty());
        assert_eq!(f.layout[0], f.entry);
    }
}
