//! The reference interpreter and the differential oracle of the VM.
//!
//! `RefVm` is the per-instruction interpreter the engine replaced, kept
//! verbatim as a test oracle: it re-derives every cost on every step
//! (`charge`, `stall_if_uses`), keeps all state in `self`, and hops
//! debug pseudos only when handed a hop table. The tests below run
//! both engines over the real-world suite, the SPEC kernels at `Test`
//! and synthesized programs, at every personality and level, under the
//! cost model on and off, PC sampling, coverage and `dbg` binding
//! tracking, and require equal [`ExecResult`]s field for field, equal
//! `run_until_break` stop sequences with equal shadow values at every
//! stop, and equal armed indices visited by single-stepping. A fast
//! subset runs by default; the full sweep is `#[ignore]`d.

#![allow(dead_code)]

use crate::{ExecResult, Halt, VmConfig, MAX_DEPTH};
use dt_dwarf::Location;
use dt_ir::BitSet;
use dt_machine::{FDbgLoc, FInst, FOp, FuncInfo, Object};
use std::collections::BTreeMap;

/// One call frame.
#[derive(Debug, Clone)]
struct Frame {
    ret_pc: usize,
    frame_base: usize,
    saved_args: [i64; 8],
    func: u32,
    /// Last `dbg.value` binding per function-local variable index.
    /// Only populated when [`VmConfig::track_dbg_bindings`] is set.
    dbg_bindings: BTreeMap<u32, FDbgLoc>,
}

/// An executing VM instance. Use [`Vm::run_to_completion`] for plain
/// runs, or [`Vm::step`] to drive execution instruction by instruction
/// (the debugger does this to implement breakpoints).
pub(crate) struct RefVm<'a> {
    obj: &'a Object,
    config: VmConfig,
    pc: usize,
    regs: [i64; 8],
    args: [i64; 8],
    stack: Vec<i64>,
    frames: Vec<Frame>,
    globals: Vec<i64>,
    input: &'a [u8],
    pub output: Vec<i64>,
    cycles: u64,
    steps: u64,
    next_sample: u64,
    samples: Vec<u32>,
    coverage: Option<BitSet>,
    predictor: Vec<u8>,
    /// Frame base of the current (innermost) frame, maintained on
    /// call/return so the per-instruction memory ops need no
    /// `frames.last()` probe.
    frame_base: usize,
    /// Register defined by the previous instruction, when it was a load.
    last_load_def: Option<u8>,
    /// The next instruction's base cost is waived (SLP fusion).
    fuse_next: bool,
    halted: Option<Halt>,
    current_func: u32,
}

impl<'a> RefVm<'a> {
    /// Creates a VM poised at the entry of function `entry` with the
    /// given call arguments.
    pub fn new(
        obj: &'a Object,
        entry: &str,
        args: &[i64],
        input: &'a [u8],
        config: VmConfig,
    ) -> Result<Self, String> {
        let (fid, info) = obj
            .func_by_name(entry)
            .ok_or_else(|| format!("entry function `{entry}` not found"))?;
        let mut arg_bank = [0i64; 8];
        for (i, a) in args.iter().take(8).enumerate() {
            arg_bank[i] = *a;
        }
        let mut globals = vec![0i64; obj.globals_size as usize];
        for &(base, _size, init) in &obj.globals {
            globals[base as usize] = init;
        }
        let frame_size = info.frame_size as usize;
        let coverage = config.collect_coverage.then(BitSet::new);
        let mut vm = RefVm {
            obj,
            pc: info.start_index as usize,
            regs: [0; 8],
            args: arg_bank,
            stack: vec![0; frame_size],
            frames: vec![Frame {
                ret_pc: usize::MAX,
                frame_base: 0,
                saved_args: [0; 8],
                func: fid,
                dbg_bindings: BTreeMap::new(),
            }],
            globals,
            input,
            output: Vec::new(),
            cycles: 0,
            steps: 0,
            next_sample: config.sample_interval.unwrap_or(u64::MAX),
            samples: Vec::new(),
            coverage,
            predictor: if config.model_cycles {
                vec![1; obj.code.len()]
            } else {
                Vec::new() // only indexed under the cycle model
            },
            frame_base: 0,
            last_load_def: None,
            fuse_next: false,
            halted: None,
            current_func: fid,
            config,
        };
        if let Some(cov) = &mut vm.coverage {
            cov.insert(obj.code.len() * 2 + fid as usize);
        }
        Ok(vm)
    }

    /// Convenience: run `entry(args...)` to completion.
    pub fn run_to_completion(
        obj: &'a Object,
        entry: &str,
        args: &[i64],
        input: &'a [u8],
        config: VmConfig,
    ) -> Result<ExecResult, String> {
        let mut vm = RefVm::new(obj, entry, args, input, config)?;
        while vm.halted.is_none() {
            vm.step();
        }
        Ok(vm.into_result())
    }

    /// [`Vm::run_to_completion`] for callers that need a finished run:
    /// a run that halts other than [`Halt::Finished`] is an error
    /// naming the halt.
    pub fn run_finished(
        obj: &'a Object,
        entry: &str,
        args: &[i64],
        input: &'a [u8],
        config: VmConfig,
    ) -> Result<ExecResult, String> {
        let r = Self::run_to_completion(obj, entry, args, input, config)?;
        if r.halt != Halt::Finished {
            return Err(format!(
                "`{entry}` halted with {:?} after {} steps",
                r.halt, r.steps
            ));
        }
        Ok(r)
    }

    /// The current instruction's byte address.
    pub fn pc_addr(&self) -> u32 {
        self.obj.addrs.get(self.pc).copied().unwrap_or(u32::MAX)
    }

    /// The current instruction index.
    pub fn pc_index(&self) -> usize {
        self.pc
    }

    /// Whether the VM has halted (and why).
    pub fn halt_reason(&self) -> Option<&Halt> {
        self.halted.as_ref()
    }

    /// Instructions executed so far (debug pseudos excluded).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Runs at full speed until the VM halts or reaches an instruction
    /// whose index is in `breaks`, a set of indices into
    /// [`Object::code`]. The test happens
    /// *before* each instruction executes — including the instruction
    /// the VM is currently poised at — so a caller that stops at an
    /// armed index must clear that bit (or step past it) before
    /// resuming, exactly like a debugger removing a temporary
    /// breakpoint. Returns the armed instruction index, or `None` once
    /// halted.
    ///
    /// This is the debugger's fast path: one bit test per instruction
    /// instead of a per-step address probe, with [`Vm::step`]'s exact
    /// semantics (cycle model, step budget, coverage, `dbg` bindings)
    /// in between. Debug pseudos are never armed — they share the byte
    /// address of the next real instruction — so they execute without
    /// any opcode re-match here.
    ///
    /// `skip_pseudos`, when given, is a caller-precomputed hop table
    /// (`skip_pseudos[i]` = first non-pseudo index at or after `i`,
    /// with the identity for real indices and `code.len()` mapped to
    /// itself) letting the loop step over `Dbg` pseudos without
    /// dispatching them at all. Pseudos are zero-size, charge no
    /// cycles, and don't count as steps, so every architectural
    /// outcome is unchanged — pass `None` when
    /// [`VmConfig::track_dbg_bindings`] is set, since bindings only
    /// update when pseudos actually execute.
    pub fn run_until_break(
        &mut self,
        breaks: &BitSet,
        skip_pseudos: Option<&[u32]>,
    ) -> Option<usize> {
        if self.config.model_cycles {
            self.run_until_break_impl::<true>(breaks, skip_pseudos)
        } else {
            self.run_until_break_impl::<false>(breaks, skip_pseudos)
        }
    }

    fn run_until_break_impl<const MODEL: bool>(
        &mut self,
        breaks: &BitSet,
        skip_pseudos: Option<&[u32]>,
    ) -> Option<usize> {
        if let Some(hop) = skip_pseudos {
            if let Some(&j) = hop.get(self.pc) {
                self.pc = j as usize;
            }
            while self.halted.is_none() {
                let pc = self.pc;
                if breaks.contains(pc) {
                    return Some(pc);
                }
                self.step_body::<MODEL>();
                if let Some(&j) = hop.get(self.pc) {
                    self.pc = j as usize;
                }
            }
        } else {
            while self.halted.is_none() {
                let pc = self.pc;
                if breaks.contains(pc) {
                    return Some(pc);
                }
                self.step_body::<MODEL>();
            }
        }
        None
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The module function id currently executing.
    pub fn current_func(&self) -> u32 {
        self.current_func
    }

    /// Reads a debug-info location against live machine state, as a
    /// debugger would. Returns `None` if unreadable.
    pub fn read_location(&self, loc: Location) -> Option<i64> {
        match loc {
            Location::Reg(r) => self.regs.get(r as usize).copied(),
            Location::FrameSlot(off) => {
                let base = self.frames.last()?.frame_base;
                self.stack.get(base + off as usize).copied()
            }
            Location::Global(a) => self.globals.get(a as usize).copied(),
            Location::Const(c) => Some(c),
        }
    }

    /// Resolves the current frame's `dbg.value` bindings against live
    /// machine state, yielding `(function-local var index, value)`
    /// pairs sorted by index. At O0 every binding points at the
    /// variable's home slot, so this is the ground-truth shadow state
    /// of source-variable values. Unresolvable bindings (e.g. a slot
    /// offset past the frame) are skipped. Empty unless the VM was
    /// configured with [`VmConfig::track_dbg_bindings`].
    pub fn shadow_values(&self) -> Vec<(u32, i64)> {
        let Some(frame) = self.frames.last() else {
            return Vec::new();
        };
        frame
            .dbg_bindings
            .iter()
            .filter_map(|(&var, &loc)| {
                let v = match loc {
                    FDbgLoc::Reg(r) => self.regs.get(r as usize).copied()?,
                    FDbgLoc::Slot(off) => {
                        self.stack.get(frame.frame_base + off as usize).copied()?
                    }
                    FDbgLoc::Const(c) => c,
                    FDbgLoc::Undef => return None,
                };
                Some((var, v))
            })
            .collect()
    }

    /// Consumes the VM, producing the final [`ExecResult`].
    pub fn into_result(self) -> ExecResult {
        let halt = self.halted.unwrap_or(Halt::StepLimit);
        ExecResult {
            ret: if halt == Halt::Finished {
                self.regs[0]
            } else {
                0
            },
            cycles: self.cycles,
            steps: self.steps,
            output: self.output,
            samples: self.samples,
            coverage: self.coverage,
            halt,
        }
    }

    fn trap(&mut self, msg: impl Into<String>) {
        self.halted = Some(Halt::Trap(msg.into()));
    }

    fn charge<const MODEL: bool>(&mut self, base: u64) {
        if !MODEL {
            return;
        }
        let cost = if self.fuse_next { 0 } else { base };
        self.fuse_next = false;
        self.cycles += cost;
        while self.cycles >= self.next_sample {
            self.samples.push(self.pc_addr());
            self.next_sample += self.config.sample_interval.unwrap_or(u64::MAX).max(1);
        }
    }

    /// Charges the load-use stall if this instruction consumes the
    /// previous load's destination.
    fn stall_if_uses<const MODEL: bool>(&mut self, used: &[u8]) {
        if !MODEL {
            return;
        }
        if let Some(ld) = self.last_load_def {
            if used.contains(&ld) {
                self.cycles += 2;
            }
        }
    }

    fn wrap_index(ri: i64, len: u32) -> usize {
        // In-bounds indices (the overwhelmingly common case) skip the
        // `rem_euclid` integer division; out-of-range ones wrap to the
        // exact same value it would have produced.
        if (ri as u64) < len as u64 {
            ri as usize
        } else {
            (ri.rem_euclid(len as i64)) as usize
        }
    }

    fn record_branch(&mut self, inst_idx: usize, taken: bool) {
        if let Some(cov) = &mut self.coverage {
            cov.insert(inst_idx * 2 + taken as usize);
        }
    }

    /// Executes one instruction. Does nothing once halted.
    pub fn step(&mut self) {
        if self.config.model_cycles {
            self.step_impl::<true>()
        } else {
            self.step_impl::<false>()
        }
    }

    /// [`Vm::step`] monomorphized on whether the cycle model runs, so
    /// the `MODEL = false` copy compiles with every cost-model branch
    /// statically removed from the dispatch loop.
    fn step_impl<const MODEL: bool>(&mut self) {
        if self.halted.is_some() {
            return;
        }
        self.step_body::<MODEL>();
    }

    /// One instruction, assuming the caller has already checked
    /// [`Vm::halted`] (as both [`Vm::step_impl`] and the
    /// [`Vm::run_until_break`] loop do each iteration).
    fn step_body<const MODEL: bool>(&mut self) {
        if self.steps >= self.config.max_steps {
            self.halted = Some(Halt::StepLimit);
            return;
        }
        let Some(inst) = self.obj.code.get(self.pc) else {
            self.trap(format!("pc {} out of code", self.pc));
            return;
        };
        self.steps += 1;
        let fused = inst.fused;
        let mut next_pc = self.pc + 1;
        let mut new_load_def: Option<u8> = None;

        match &inst.op {
            FOp::Dbg { var, loc } => {
                if self.config.track_dbg_bindings {
                    if let Some(frame) = self.frames.last_mut() {
                        match loc {
                            FDbgLoc::Undef => {
                                frame.dbg_bindings.remove(var);
                            }
                            _ => {
                                frame.dbg_bindings.insert(*var, *loc);
                            }
                        }
                    }
                }
                // Zero-size pseudo: no cycles, keep hazard state.
                self.pc = next_pc;
                self.steps -= 1; // pseudos do not count against budgets
                return;
            }
            FOp::Imm { rd, value } => {
                self.charge::<MODEL>(1);
                self.regs[*rd as usize] = *value;
            }
            FOp::Mov { rd, rs } => {
                self.stall_if_uses::<MODEL>(&[*rs]);
                self.charge::<MODEL>(1);
                self.regs[*rd as usize] = self.regs[*rs as usize];
            }
            FOp::Un { op, rd, rs } => {
                self.stall_if_uses::<MODEL>(&[*rs]);
                self.charge::<MODEL>(1);
                self.regs[*rd as usize] = op.eval(self.regs[*rs as usize]);
            }
            FOp::Bin { op, rd, ra, rb } => {
                self.stall_if_uses::<MODEL>(&[*ra, *rb]);
                self.charge::<MODEL>(binop_cost(*op));
                self.regs[*rd as usize] = op.eval(self.regs[*ra as usize], self.regs[*rb as usize]);
            }
            FOp::BinImm { op, rd, ra, imm } => {
                self.stall_if_uses::<MODEL>(&[*ra]);
                self.charge::<MODEL>(binop_cost(*op));
                self.regs[*rd as usize] = op.eval(self.regs[*ra as usize], *imm);
            }
            FOp::Select { rd, rc, ra, rb } => {
                self.stall_if_uses::<MODEL>(&[*rc, *ra, *rb]);
                self.charge::<MODEL>(2);
                self.regs[*rd as usize] = if self.regs[*rc as usize] != 0 {
                    self.regs[*ra as usize]
                } else {
                    self.regs[*rb as usize]
                };
            }
            FOp::LdSlot { rd, off } => {
                self.charge::<MODEL>(3);
                let base = self.frame_base;
                self.regs[*rd as usize] =
                    self.stack.get(base + *off as usize).copied().unwrap_or(0);
                new_load_def = Some(*rd);
            }
            FOp::StSlot { off, rs } => {
                self.stall_if_uses::<MODEL>(&[*rs]);
                self.charge::<MODEL>(3);
                let idx = self.frame_base + *off as usize;
                if idx < self.stack.len() {
                    self.stack[idx] = self.regs[*rs as usize];
                }
            }
            FOp::LdIdx { rd, off, ri, len } => {
                self.stall_if_uses::<MODEL>(&[*ri]);
                self.charge::<MODEL>(4);
                let idx = self.frame_base
                    + *off as usize
                    + Self::wrap_index(self.regs[*ri as usize], *len);
                self.regs[*rd as usize] = self.stack.get(idx).copied().unwrap_or(0);
                new_load_def = Some(*rd);
            }
            FOp::StIdx { off, ri, rs, len } => {
                self.stall_if_uses::<MODEL>(&[*ri, *rs]);
                self.charge::<MODEL>(4);
                let idx = self.frame_base
                    + *off as usize
                    + Self::wrap_index(self.regs[*ri as usize], *len);
                if idx < self.stack.len() {
                    self.stack[idx] = self.regs[*rs as usize];
                }
            }
            FOp::LdG { rd, addr } => {
                self.charge::<MODEL>(3);
                self.regs[*rd as usize] = self.globals.get(*addr as usize).copied().unwrap_or(0);
                new_load_def = Some(*rd);
            }
            FOp::StG { addr, rs } => {
                self.stall_if_uses::<MODEL>(&[*rs]);
                self.charge::<MODEL>(3);
                if (*addr as usize) < self.globals.len() {
                    self.globals[*addr as usize] = self.regs[*rs as usize];
                }
            }
            FOp::LdGIdx { rd, base, ri, len } => {
                self.stall_if_uses::<MODEL>(&[*ri]);
                self.charge::<MODEL>(4);
                let idx = *base as usize + Self::wrap_index(self.regs[*ri as usize], *len);
                self.regs[*rd as usize] = self.globals.get(idx).copied().unwrap_or(0);
                new_load_def = Some(*rd);
            }
            FOp::StGIdx { base, ri, rs, len } => {
                self.stall_if_uses::<MODEL>(&[*ri, *rs]);
                self.charge::<MODEL>(4);
                let idx = *base as usize + Self::wrap_index(self.regs[*ri as usize], *len);
                if idx < self.globals.len() {
                    self.globals[idx] = self.regs[*rs as usize];
                }
            }
            FOp::SetArg { k, rs } => {
                self.stall_if_uses::<MODEL>(&[*rs]);
                self.charge::<MODEL>(1);
                self.args[*k as usize] = self.regs[*rs as usize];
            }
            FOp::GetArg { rd, k } => {
                self.charge::<MODEL>(1);
                self.regs[*rd as usize] = self.args[*k as usize];
            }
            FOp::CallF { func } => {
                let info = &self.obj.funcs[*func as usize];
                if self.frames.len() >= MAX_DEPTH {
                    self.trap(format!("call-stack overflow calling `{}`", info.name));
                    return;
                }
                // Base + frame-proportional + locality + shrink-wrap.
                let here = self.pc_addr();
                let far = (here as i64 - info.low_pc as i64).unsigned_abs() > 4096;
                let mut cost = 8 + (info.frame_size as u64) / 8 + if far { 2 } else { 0 };
                if info.shrink_wrapped {
                    cost = cost.saturating_sub(2);
                }
                self.charge::<MODEL>(cost);
                if let Some(cov) = &mut self.coverage {
                    cov.insert(self.obj.code.len() * 2 + *func as usize);
                }
                let frame_base = self.stack.len();
                self.stack.resize(frame_base + info.frame_size as usize, 0);
                self.frames.push(Frame {
                    ret_pc: next_pc,
                    frame_base,
                    saved_args: self.args,
                    func: *func,
                    dbg_bindings: BTreeMap::new(),
                });
                self.frame_base = frame_base;
                self.current_func = *func;
                next_pc = info.start_index as usize;
            }
            FOp::Ret => {
                self.charge::<MODEL>(4);
                let frame = self.frames.pop().expect("frame underflow");
                self.stack.truncate(frame.frame_base);
                self.frame_base = self.frames.last().map_or(0, |f| f.frame_base);
                if frame.ret_pc == usize::MAX {
                    self.halted = Some(Halt::Finished);
                    self.pc = 0;
                    return;
                }
                self.args = frame.saved_args;
                self.current_func = self.frames.last().map_or(0, |f| f.func);
                next_pc = frame.ret_pc;
            }
            FOp::Jmp { target } => {
                self.charge::<MODEL>(2);
                next_pc = *target as usize;
            }
            FOp::JCond {
                rs,
                if_nonzero,
                target,
            } => {
                self.stall_if_uses::<MODEL>(&[*rs]);
                let cond = self.regs[*rs as usize] != 0;
                let taken = cond == *if_nonzero;
                if MODEL {
                    // 2-bit predictor (cost-model state only; the
                    // branch outcome never depends on it).
                    let p = &mut self.predictor[self.pc];
                    let predicted_taken = *p >= 2;
                    let mispredict = predicted_taken != taken;
                    if taken {
                        *p = (*p + 1).min(3);
                    } else {
                        *p = p.saturating_sub(1);
                    }
                    let cost = 1 + taken as u64 + if mispredict { 10 } else { 0 };
                    self.charge::<MODEL>(cost);
                }
                self.record_branch(self.pc, taken);
                if taken {
                    next_pc = *target as usize;
                }
            }
            FOp::In { rd, ri } => {
                self.stall_if_uses::<MODEL>(&[*ri]);
                self.charge::<MODEL>(4);
                let i = self.regs[*ri as usize];
                self.regs[*rd as usize] = if i >= 0 && (i as usize) < self.input.len() {
                    self.input[i as usize] as i64
                } else {
                    -1
                };
            }
            FOp::InLen { rd } => {
                self.charge::<MODEL>(4);
                self.regs[*rd as usize] = self.input.len() as i64;
            }
            FOp::Out { rs } => {
                self.stall_if_uses::<MODEL>(&[*rs]);
                self.charge::<MODEL>(4);
                self.output.push(self.regs[*rs as usize]);
            }
        }

        if MODEL {
            self.last_load_def = new_load_def;
            if fused {
                self.fuse_next = true;
            }
        }
        self.pc = next_pc;
    }
}

fn binop_cost(op: dt_ir::BinOp) -> u64 {
    use dt_ir::BinOp::*;
    match op {
        Mul => 3,
        Div | Rem => 12,
        _ => 1,
    }
}

use crate::{RunPlan, Vm};
use dt_passes::{compile_source, CompileOptions, OptLevel, Personality};
use std::hash::{Hash, Hasher};

/// One call of a compiled program.
struct Case {
    name: String,
    obj: Object,
    entry: &'static str,
    args: Vec<i64>,
    input: Vec<u8>,
    max_steps: u64,
}

/// A one-function object `f` of hand-written code (`(op, fused)`),
/// for the loop's exits that compiled programs rarely reach.
pub(crate) fn hand_object(code: Vec<(FOp, bool)>, frame_size: u32) -> Object {
    let code: Vec<FInst> = code
        .into_iter()
        .map(|(op, fused)| FInst {
            op,
            line: 0,
            stmt: false,
            fused,
        })
        .collect();
    let mut addrs = Vec::new();
    let mut addr = 0;
    for inst in &code {
        addrs.push(addr);
        addr += inst.encoded_size();
    }
    Object {
        funcs: vec![FuncInfo {
            name: "f".into(),
            start_index: 0,
            end_index: code.len() as u32,
            low_pc: 0,
            high_pc: addr,
            frame_size,
            nparams: 0,
            shrink_wrapped: false,
            decl_line: 0,
        }],
        code,
        addrs,
        text: Default::default(),
        debug: Default::default(),
        globals: Vec::new(),
        globals_size: 0,
    }
}

pub(crate) fn dbg(var: u32) -> (FOp, bool) {
    (
        FOp::Dbg {
            var,
            loc: FDbgLoc::Const(var as i64),
        },
        false,
    )
}

pub(crate) fn imm(rd: u8, value: i64) -> (FOp, bool) {
    (FOp::Imm { rd, value }, false)
}

/// Hand-built objects for the boundaries of straight-line runs that
/// compiled code reaches only by chance.
fn hand_cases() -> Vec<Case> {
    use dt_ir::BinOp::{Add, Mul, Sub};
    let bin = |op, rd, ra, rb| (FOp::Bin { op, rd, ra, rb }, false);
    let sub1 = |r, fused| {
        (
            FOp::BinImm {
                op: Sub,
                rd: r,
                ra: r,
                imm: 1,
            },
            fused,
        )
    };
    let again = |target| {
        (
            FOp::JCond {
                rs: 0,
                if_nonzero: true,
                target,
            },
            false,
        )
    };
    let ret = (FOp::Ret, false);
    let case = |name: &str, code: Vec<(FOp, bool)>| Case {
        name: format!("hand: {name}"),
        obj: hand_object(code, 2),
        entry: "f",
        args: Vec::new(),
        input: Vec::new(),
        max_steps: 10_000,
    };
    vec![
        // A loop whose run loads a slot and uses it at once: the stall
        // is in the run's static tail, and a run entered after the
        // load (a split by a budget, a sample point or single steps)
        // pays it at its entry.
        case(
            "load-use stall",
            vec![
                imm(0, 9),
                (FOp::LdSlot { rd: 2, off: 0 }, false),
                bin(Add, 1, 2, 0),
                (FOp::StSlot { off: 0, rs: 1 }, false),
                sub1(0, false),
                again(1),
                (FOp::Mov { rd: 0, rs: 1 }, false),
                ret.clone(),
            ],
        ),
        // A fused `Jmp` and a fused `JCond` waive the entry cost of the
        // run after them; a fused op inside a run waives its
        // successor's in the tail, and a fused op right before the
        // `JCond` waives the branch's whole cost, dynamic term included.
        case(
            "fused around runs",
            vec![
                imm(0, 7),
                (FOp::Jmp { target: 2 }, true),
                (FOp::Imm { rd: 1, value: 3 }, true),
                bin(Mul, 2, 1, 0),
                sub1(0, true),
                (
                    FOp::JCond {
                        rs: 0,
                        if_nonzero: true,
                        target: 2,
                    },
                    true,
                ),
                (FOp::Mov { rd: 0, rs: 2 }, false),
                ret.clone(),
            ],
        ),
        // Pseudos at a run's start, inside it and before its
        // terminator.
        case(
            "pseudos inside a run",
            vec![
                imm(0, 5),
                dbg(0),
                (FOp::LdSlot { rd: 1, off: 1 }, false),
                dbg(1),
                dbg(2),
                bin(Add, 1, 1, 0),
                dbg(3),
                (FOp::StSlot { off: 1, rs: 1 }, false),
                sub1(0, false),
                dbg(4),
                again(1),
                (FOp::LdSlot { rd: 0, off: 1 }, false),
                ret.clone(),
            ],
        ),
        // A run that runs off the end of the code, through trailing
        // pseudos: the trap comes at the run's exact steps and cycles.
        case(
            "run off the end",
            vec![
                imm(0, 1),
                dbg(0),
                (FOp::LdSlot { rd: 1, off: 0 }, true),
                bin(Add, 2, 1, 0),
                dbg(1),
            ],
        ),
    ]
}

/// Every personality's `O0` and optimization levels.
fn all_levels() -> Vec<(Personality, OptLevel)> {
    [Personality::Gcc, Personality::Clang]
        .into_iter()
        .flat_map(|p| {
            std::iter::once(OptLevel::O0)
                .chain(OptLevel::levels_for(p).iter().copied())
                .map(move |l| (p, l))
        })
        .collect()
}

fn build(src: &str, p: Personality, l: OptLevel) -> Object {
    compile_source(src, &CompileOptions::new(p, l)).unwrap_or_else(|e| panic!("{p} {l:?}: {e}"))
}

/// The real-world programs selected by `pick`, every harness on every
/// seed.
fn suite_cases(levels: &[(Personality, OptLevel)], pick: &[&str]) -> Vec<Case> {
    let mut cases = Vec::new();
    for prog in dt_testsuite::real_world_suite() {
        if !pick.is_empty() && !pick.contains(&prog.name) {
            continue;
        }
        for &(p, l) in levels {
            let obj = build(prog.source, p, l);
            for &h in prog.harnesses {
                for (k, seed) in prog.seeds.iter().enumerate() {
                    cases.push(Case {
                        name: format!("{}::{h} {p} {l:?} seed {k}", prog.name),
                        obj: obj.clone(),
                        entry: h,
                        args: Vec::new(),
                        input: seed.to_vec(),
                        max_steps: 3_000_000,
                    });
                }
            }
        }
    }
    cases
}

/// The SPEC kernels selected by `pick` on the `Test` workload.
fn spec_cases(levels: &[(Personality, OptLevel)], pick: &[&str]) -> Vec<Case> {
    use dt_testsuite::spec::{spec_suite, Workload};
    let mut cases = Vec::new();
    for b in spec_suite() {
        if !pick.is_empty() && !pick.contains(&b.name) {
            continue;
        }
        for &(p, l) in levels {
            cases.push(Case {
                name: format!("{} {p} {l:?}", b.name),
                obj: build(b.source, p, l),
                entry: b.entry,
                args: vec![b.iterations(Workload::Test)],
                input: Vec::new(),
                max_steps: 80_000_000,
            });
        }
    }
    cases
}

/// Synthesized programs of `seeds`.
fn synth_cases(levels: &[(Personality, OptLevel)], seeds: std::ops::Range<u64>) -> Vec<Case> {
    let cfg = dt_testsuite::synth::SynthConfig::default();
    let mut cases = Vec::new();
    for seed in seeds {
        let src = dt_testsuite::synth::generate(seed, &cfg);
        for &(p, l) in levels {
            cases.push(Case {
                name: format!("synth {seed} {p} {l:?}"),
                obj: build(&src, p, l),
                entry: "fuzz_main",
                args: Vec::new(),
                input: vec![seed as u8, 3],
                max_steps: 10_000_000,
            });
        }
    }
    cases
}

/// The run configurations both engines must agree under.
fn configs(max_steps: u64) -> Vec<(&'static str, VmConfig)> {
    let base = VmConfig {
        max_steps,
        ..VmConfig::default()
    };
    vec![
        ("model on", base.clone()),
        (
            "model off",
            VmConfig {
                model_cycles: false,
                ..base.clone()
            },
        ),
        (
            "sampled",
            VmConfig {
                sample_interval: Some(97),
                ..base.clone()
            },
        ),
        (
            "coverage, model off",
            VmConfig {
                collect_coverage: true,
                model_cycles: false,
                ..base.clone()
            },
        ),
        (
            "tracked, sampled, coverage",
            VmConfig {
                track_dbg_bindings: true,
                sample_interval: Some(97),
                collect_coverage: true,
                ..base.clone()
            },
        ),
        (
            "tracked, model off",
            VmConfig {
                track_dbg_bindings: true,
                model_cycles: false,
                ..base.clone()
            },
        ),
        // Sample points inside straight-line runs.
        (
            "sampled every cycle",
            VmConfig {
                sample_interval: Some(1),
                ..base.clone()
            },
        ),
        (
            "sampled every 3",
            VmConfig {
                sample_interval: Some(3),
                ..base.clone()
            },
        ),
        (
            "sampled every 7, coverage",
            VmConfig {
                sample_interval: Some(7),
                collect_coverage: true,
                ..base
            },
        ),
    ]
}

/// Step budgets that end runs early, inside straight-line runs: every
/// budget up to 40 and a few primes.
fn starved_budgets() -> impl Iterator<Item = u64> {
    (1..=40).chain([53, 97, 211, 1009])
}

fn assert_same(ctx: &str, old: &ExecResult, new: &ExecResult) {
    assert_eq!(old.halt, new.halt, "{ctx}: halt");
    assert_eq!(old.ret, new.ret, "{ctx}: ret");
    assert_eq!(old.steps, new.steps, "{ctx}: steps");
    assert_eq!(old.cycles, new.cycles, "{ctx}: cycles");
    assert_eq!(old.output, new.output, "{ctx}: output");
    assert_eq!(old.samples, new.samples, "{ctx}: samples");
    assert_eq!(old.coverage, new.coverage, "{ctx}: coverage");
}

/// Every `is_stmt` line-table address resolved to its instruction
/// index (the debugger's breakpoint set).
fn armed(obj: &Object) -> BitSet {
    obj.debug
        .line_table
        .rows()
        .iter()
        .filter(|row| row.line != 0 && row.is_stmt)
        .filter_map(|row| obj.index_of_addr(row.addr))
        .collect()
}

/// The reference engine's pseudo hop table: first non-pseudo index at
/// or after each index, `code.len()` mapped to itself.
pub(crate) fn hop_table(obj: &Object) -> Vec<u32> {
    let n = obj.code.len();
    let mut next_real = vec![n as u32; n + 1];
    for i in (0..n).rev() {
        next_real[i] = if matches!(obj.code[i].op, FOp::Dbg { .. }) {
            next_real[i + 1]
        } else {
            i as u32
        };
    }
    next_real
}

/// What a debugger sees at a stop.
type Stop = (usize, u64, u64, usize, Vec<(u32, i64)>);

/// Runs both engines over `case` with a step budget of `max_steps`.
fn check(case: &Case, max_steps: u64) {
    let Case {
        obj,
        entry,
        args,
        input,
        ..
    } = case;
    let plan = RunPlan::new(obj);
    for (cname, cfg) in configs(max_steps) {
        let ctx = format!("{} [{cname}]", case.name);
        let old = RefVm::run_to_completion(obj, entry, args, input, cfg.clone()).unwrap();
        let new = Vm::with_plan(obj, &plan, entry, args, input, cfg)
            .unwrap()
            .run_to_end();
        assert_same(&ctx, &old, &new);
    }

    // Resumed runs: `k` single steps, then the rest in one go, so the
    // loop enters straight-line runs mid-way with whatever hazard the
    // last step left (a load's register, a fused waiver).
    for k in [1, 2, 3, 5, 8, 13] {
        let ctx = format!("{} [resumed after {k} steps]", case.name);
        let cfg = VmConfig {
            max_steps,
            ..VmConfig::default()
        };
        let mut old = RefVm::new(obj, entry, args, input, cfg.clone()).unwrap();
        while old.halt_reason().is_none() && old.steps() < k {
            old.step();
        }
        while old.halt_reason().is_none() {
            old.step();
        }
        let mut new = Vm::with_plan(obj, &plan, entry, args, input, cfg).unwrap();
        for _ in 0..k {
            new.step();
        }
        assert_same(&ctx, &old.into_result(), &new.run_to_end());
    }

    // Temporary-breakpoint walks: stop at each armed index once. The
    // reference hops pseudos through a table unless it tracks bindings,
    // as the debugger drove it.
    let bits = armed(obj);
    let hop = hop_table(obj);
    for (model, track) in [(true, false), (false, false), (true, true), (false, true)] {
        let ctx = format!("{} [break walk, model {model}, tracked {track}]", case.name);
        let cfg = VmConfig {
            max_steps,
            model_cycles: model,
            track_dbg_bindings: track,
            collect_coverage: true,
            ..VmConfig::default()
        };
        let skip = (!track).then_some(hop.as_slice());
        let mut old = RefVm::new(obj, entry, args, input, cfg.clone()).unwrap();
        let mut work = bits.clone();
        let mut old_stops: Vec<Stop> = Vec::new();
        while let Some(i) = old.run_until_break(&work, skip) {
            old_stops.push((
                i,
                old.steps(),
                old.cycles(),
                old.output.len(),
                old.shadow_values(),
            ));
            work.remove(i);
        }
        let mut new = Vm::with_plan(obj, &plan, entry, args, input, cfg).unwrap();
        let mut work = bits.clone();
        let mut new_stops: Vec<Stop> = Vec::new();
        while let Some(i) = new.run_until_break(&work) {
            new_stops.push((
                i,
                new.steps(),
                new.cycles,
                new.output.len(),
                new.shadow_values(),
            ));
            work.remove(i);
        }
        assert_eq!(old_stops, new_stops, "{ctx}: stops");
        assert_same(&ctx, &old.into_result(), &new.into_result());
    }

    // Single-stepping with every breakpoint left armed: the same armed
    // indices are visited in the same order with the same state. The
    // visits are folded into a digest, as there can be millions.
    let cfg = VmConfig {
        max_steps,
        track_dbg_bindings: true,
        ..VmConfig::default()
    };
    let mut old = RefVm::new(obj, entry, args, input, cfg.clone()).unwrap();
    let mut old_visits = std::collections::hash_map::DefaultHasher::new();
    while old.halt_reason().is_none() {
        let i = old.pc_index();
        if bits.contains(i) {
            (i, old.steps(), old.cycles(), old.shadow_values()).hash(&mut old_visits);
        }
        old.step();
    }
    let mut new = Vm::with_plan(obj, &plan, entry, args, input, cfg).unwrap();
    let mut new_visits = std::collections::hash_map::DefaultHasher::new();
    while new.halt_reason().is_none() {
        let i = new.pc_index();
        if bits.contains(i) {
            (i, new.steps(), new.cycles, new.shadow_values()).hash(&mut new_visits);
        }
        new.step();
    }
    assert_eq!(
        old_visits.finish(),
        new_visits.finish(),
        "{} [step walk]: armed visits",
        case.name
    );
    assert_same(
        &format!("{} [step walk]", case.name),
        &old.into_result(),
        &new.into_result(),
    );
}

#[test]
fn engine_matches_reference_on_a_fast_subset() {
    let levels = [
        (Personality::Gcc, OptLevel::O0),
        (Personality::Gcc, OptLevel::O2),
        (Personality::Clang, OptLevel::O3),
    ];
    let cases = suite_cases(&levels, &["libpng", "wasm3"])
        .into_iter()
        .chain(spec_cases(&levels[1..2], &["505.mcf"]))
        .chain(synth_cases(&levels, 0..2))
        .chain(hand_cases());
    for case in cases {
        check(&case, case.max_steps);
        for max_steps in starved_budgets() {
            check(&case, max_steps);
        }
    }
}

#[test]
#[ignore = "full sweep (~20 s in release); scripts/ci.sh runs it"]
fn engine_matches_reference_everywhere() {
    let levels = all_levels();
    let cases = suite_cases(&levels, &[])
        .into_iter()
        .chain(spec_cases(&levels, &[]))
        .chain(synth_cases(&levels, 0..8));
    for case in cases {
        check(&case, case.max_steps);
    }
}
