//! The per-object run plan: [`Object::code`] decoded once into the
//! form the interpreter loop executes.
//!
//! Everything the cycle model needs that depends only on the
//! instruction is resolved here: the base cost (a call site's frame,
//! far-call and shrink-wrap terms included), the registers it reads
//! (the load-use hazard test) and the register it loads. Only a
//! conditional branch's predictor term stays dynamic. A run of debug
//! pseudos records the index of the first real instruction after it,
//! so runs that do not track `dbg.value` bindings hop the whole run at
//! once.
//!
//! Each real instruction also records the *straight-line run* that
//! starts at it: the real instructions up to the next control op
//! (`CallF`, `Ret`, `Jmp`, `JCond`) or the end of the code, pseudos
//! hopped. None of them can halt, trap or branch, and each one's
//! predecessor inside the run is fixed, so the charge of every
//! instruction after the first (load-use stalls and fused waivers
//! included) is static: the plan stores it as the run's `tail`. Only
//! the first instruction's charge depends on the hazard the loop
//! brings into the run. The same backward sweep that finds each
//! pseudo's `next_real` builds the runs, so decoding stays one linear
//! pass.

use dt_ir::{BinOp, UnOp};
use dt_machine::{FInst, FOp, Object};

/// A decoded operation: [`FOp`]'s operands, with a debug pseudo's
/// payload replaced by its hop target (the loop reads the payload from
/// the object only when it tracks bindings).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Imm {
        rd: u8,
        value: i64,
    },
    Mov {
        rd: u8,
        rs: u8,
    },
    Un {
        op: UnOp,
        rd: u8,
        rs: u8,
    },
    Bin {
        op: BinOp,
        rd: u8,
        ra: u8,
        rb: u8,
    },
    BinImm {
        op: BinOp,
        rd: u8,
        ra: u8,
        imm: i64,
    },
    Select {
        rd: u8,
        rc: u8,
        ra: u8,
        rb: u8,
    },
    LdSlot {
        rd: u8,
        off: u32,
    },
    StSlot {
        off: u32,
        rs: u8,
    },
    LdIdx {
        rd: u8,
        off: u32,
        ri: u8,
        len: u32,
    },
    StIdx {
        off: u32,
        ri: u8,
        rs: u8,
        len: u32,
    },
    LdG {
        rd: u8,
        addr: u32,
    },
    StG {
        addr: u32,
        rs: u8,
    },
    LdGIdx {
        rd: u8,
        base: u32,
        ri: u8,
        len: u32,
    },
    StGIdx {
        base: u32,
        ri: u8,
        rs: u8,
        len: u32,
    },
    SetArg {
        k: u8,
        rs: u8,
    },
    GetArg {
        rd: u8,
        k: u8,
    },
    CallF {
        func: u32,
    },
    Ret,
    Jmp {
        target: u32,
    },
    JCond {
        rs: u8,
        if_nonzero: bool,
        target: u32,
    },
    In {
        rd: u8,
        ri: u8,
    },
    InLen {
        rd: u8,
    },
    Out {
        rs: u8,
    },
    /// A debug pseudo; `next_real` is the first non-pseudo index at or
    /// after it (`code.len()` when the code ends in pseudos).
    Dbg {
        next_real: u32,
    },
}

/// One decoded instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    pub(crate) op: Op,
    /// Static cycle charge. A conditional branch adds its taken and
    /// misprediction terms at run time.
    pub(crate) cost: u32,
    /// Registers read, as a mask: the load-use stall applies when it
    /// meets the previous instruction's loaded register.
    pub(crate) reads: u8,
    /// What this instruction leaves for the next one's charge: the
    /// register it loads as a mask in the low byte (0 for non-loads),
    /// and [`FUSED`] when SLP fusion waives the next base cost.
    pub(crate) hazard: u16,
    /// The straight-line run starting here.
    pub(crate) run: Run,
}

/// The straight-line run that starts at a real instruction: what the
/// loop needs to execute it in one go and charge it once.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Run {
    /// Real instructions in the run. 0 for a control op or a pseudo,
    /// and for a run whose length or tail would not fit 32 bits (the
    /// loop never batches those).
    pub(crate) len: u32,
    /// The static charge of the run's instructions after the first.
    pub(crate) tail: u32,
    /// The index after the run's last real instruction, pseudos
    /// skipped: its terminator, or `code.len()`.
    pub(crate) end: u32,
    /// The hazard word the run's last instruction leaves.
    pub(crate) hazard: u16,
}

// Entries stay compact: the loop streams through them. The run fields
// grow an entry from 24 to 40 bytes; a separate table would cost the
// loop a second load at every real instruction it does not batch.
const _: () = assert!(std::mem::size_of::<Step>() == 40);

impl Step {
    /// This instruction's charge after one that left `hazard`, less a
    /// conditional branch's dynamic term: the load-use stall plus the
    /// base cost unless the previous instruction was fused.
    #[inline(always)]
    pub(crate) fn charge_after(&self, hazard: u16) -> u64 {
        let stall = if hazard & self.reads as u16 != 0 {
            2
        } else {
            0
        };
        let base = if hazard & FUSED != 0 { 0 } else { self.cost };
        stall + base as u64
    }
}

/// The [`Step::hazard`] bit of a fused instruction.
pub(crate) const FUSED: u16 = 1 << 8;

/// [`Object::code`] decoded once for the VM, parallel to it. Build one
/// per object and hand it to every run of that object through
/// [`crate::Vm::with_plan`]; [`crate::Vm::new`] builds its own.
#[derive(Debug, Clone)]
pub struct RunPlan {
    pub(crate) steps: Vec<Step>,
}

/// Checks that `r` names one of the 8 registers (or argument slots):
/// the loop indexes the register file without a bounds check.
fn reg(r: u8) -> u8 {
    assert!(r < 8, "register operand {r} outside the register file");
    r
}

/// The mask bit of register `r`.
fn bit(r: u8) -> u8 {
    1 << reg(r)
}

impl RunPlan {
    /// Decodes `obj`'s code. O(code length).
    pub fn new(obj: &Object) -> RunPlan {
        let n = obj.code.len();
        let mut steps = Vec::with_capacity(n);
        let mut next_real = n as u32;
        // The real instruction at `next_real`, with the length and tail
        // of the run starting there unbounded (length 0 when it is a
        // control op).
        let mut next: Option<(Step, u64, u64)> = None;
        // Backwards, so each pseudo sees the next real index and each
        // real instruction the run after it.
        for (i, inst) in obj.code.iter().enumerate().rev() {
            let (op, cost, reads, load_def) = decode(obj, i, inst, next_real);
            let mut step = Step {
                op,
                cost,
                reads,
                hazard: load_def as u16 | if inst.fused { FUSED } else { 0 },
                run: Run::default(),
            };
            if !matches!(op, Op::Dbg { .. }) {
                let control = matches!(
                    op,
                    Op::CallF { .. } | Op::Ret | Op::Jmp { .. } | Op::JCond { .. }
                );
                let (len, tail) = match next {
                    _ if control => (0, 0),
                    Some((after, len, tail)) if len > 0 => {
                        (step.run.end, step.run.hazard) = (after.run.end, after.run.hazard);
                        (len + 1, tail + after.charge_after(step.hazard))
                    }
                    // The run's last instruction.
                    _ => {
                        (step.run.end, step.run.hazard) = (next_real, step.hazard);
                        (1, 0)
                    }
                };
                if let (Ok(len), Ok(tail)) = (u32::try_from(len), u32::try_from(tail)) {
                    (step.run.len, step.run.tail) = (len, tail);
                }
                next = Some((step, len, tail));
                next_real = i as u32;
            }
            steps.push(step);
        }
        steps.reverse();
        RunPlan { steps }
    }
}

/// Decodes instruction `i` of `obj`: the op (a pseudo's hop target is
/// `next_real`), its static cost, the mask of registers it reads, and
/// the mask of the register it loads.
fn decode(obj: &Object, i: usize, inst: &FInst, next_real: u32) -> (Op, u32, u8, u8) {
    match inst.op {
        FOp::Imm { rd, value } => (Op::Imm { rd: reg(rd), value }, 1, 0, 0),
        FOp::Mov { rd, rs } => (Op::Mov { rd: reg(rd), rs }, 1, bit(rs), 0),
        FOp::Un { op, rd, rs } => (
            Op::Un {
                op,
                rd: reg(rd),
                rs,
            },
            1,
            bit(rs),
            0,
        ),
        FOp::Bin { op, rd, ra, rb } => (
            Op::Bin {
                op,
                rd: reg(rd),
                ra,
                rb,
            },
            binop_cost(op),
            bit(ra) | bit(rb),
            0,
        ),
        FOp::BinImm { op, rd, ra, imm } => (
            Op::BinImm {
                op,
                rd: reg(rd),
                ra,
                imm,
            },
            binop_cost(op),
            bit(ra),
            0,
        ),
        FOp::Select { rd, rc, ra, rb } => (
            Op::Select {
                rd: reg(rd),
                rc,
                ra,
                rb,
            },
            2,
            bit(rc) | bit(ra) | bit(rb),
            0,
        ),
        FOp::LdSlot { rd, off } => (Op::LdSlot { rd, off }, 3, 0, bit(rd)),
        FOp::StSlot { off, rs } => (Op::StSlot { off, rs }, 3, bit(rs), 0),
        FOp::LdIdx { rd, off, ri, len } => (Op::LdIdx { rd, off, ri, len }, 4, bit(ri), bit(rd)),
        FOp::StIdx { off, ri, rs, len } => {
            (Op::StIdx { off, ri, rs, len }, 4, bit(ri) | bit(rs), 0)
        }
        FOp::LdG { rd, addr } => (Op::LdG { rd, addr }, 3, 0, bit(rd)),
        FOp::StG { addr, rs } => (Op::StG { addr, rs }, 3, bit(rs), 0),
        FOp::LdGIdx { rd, base, ri, len } => {
            (Op::LdGIdx { rd, base, ri, len }, 4, bit(ri), bit(rd))
        }
        FOp::StGIdx { base, ri, rs, len } => {
            (Op::StGIdx { base, ri, rs, len }, 4, bit(ri) | bit(rs), 0)
        }
        FOp::SetArg { k, rs } => (Op::SetArg { k: reg(k), rs }, 1, bit(rs), 0),
        FOp::GetArg { rd, k } => (
            Op::GetArg {
                rd: reg(rd),
                k: reg(k),
            },
            1,
            0,
            0,
        ),
        FOp::CallF { func } => (Op::CallF { func }, call_cost(obj, i, func), 0, 0),
        FOp::Ret => (Op::Ret, 4, 0, 0),
        FOp::Jmp { target } => (Op::Jmp { target }, 2, 0, 0),
        FOp::JCond {
            rs,
            if_nonzero,
            target,
        } => (
            Op::JCond {
                rs,
                if_nonzero,
                target,
            },
            1,
            bit(rs),
            0,
        ),
        FOp::In { rd, ri } => (Op::In { rd: reg(rd), ri }, 4, bit(ri), 0),
        FOp::InLen { rd } => (Op::InLen { rd: reg(rd) }, 4, 0, 0),
        FOp::Out { rs } => (Op::Out { rs }, 4, bit(rs), 0),
        FOp::Dbg { .. } => (Op::Dbg { next_real }, 0, 0, 0),
    }
}

fn binop_cost(op: BinOp) -> u32 {
    match op {
        BinOp::Mul => 3,
        BinOp::Div | BinOp::Rem => 12,
        _ => 1,
    }
}

/// A call site's cost: base, frame-proportional, far-call penalty
/// (call site more than 4 KiB from the callee), shrink-wrap discount.
/// A call naming no function costs nothing here; it panics when it
/// executes.
fn call_cost(obj: &Object, site: usize, func: u32) -> u32 {
    let Some(info) = obj.funcs.get(func as usize) else {
        return 0;
    };
    let here = obj.addrs.get(site).copied().unwrap_or(u32::MAX);
    let far = (here as i64 - info.low_pc as i64).unsigned_abs() > 4096;
    let cost = 8 + info.frame_size / 8 + if far { 2 } else { 0 };
    if info.shrink_wrapped {
        cost.saturating_sub(2)
    } else {
        cost
    }
}
