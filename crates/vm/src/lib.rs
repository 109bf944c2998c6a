//! The VISA virtual machine.
//!
//! Executes assembled [`dt_machine::Object`]s with a deterministic
//! cycle model, so "performance" in the experiments is an exact number
//! rather than wall-clock noise. The model rewards exactly the things
//! the backend passes optimize:
//!
//! * per-op latencies (multiplies and divides are slow, memory slower
//!   than ALU);
//! * a **load-use stall** (+2) when an instruction consumes the result
//!   of the immediately preceding load — what `schedule-insns2` hides;
//! * a 2-bit **branch predictor** with a heavy misprediction penalty
//!   and a +1 taken-branch (fetch-redirect) cost — what block layout
//!   and if-conversion optimize;
//! * call overhead proportional to frame size, with a shrink-wrapping
//!   discount and a "far call" penalty that function reordering
//!   (`toplevel-reorder`) can avoid;
//! * SLP-fused pairs issue as one instruction.
//!
//! The VM also provides the observation hooks the rest of the
//! framework needs: PC sampling (AutoFDO), edge coverage (fuzzing),
//! and a single-step interface with register/frame/global state access
//! (the debugger).

pub mod coverage;

pub use coverage::CoverageMap;

use dt_dwarf::Location;
use dt_machine::{FDbgLoc, FOp, Object};
use std::collections::BTreeMap;

/// Run-time limits and observation switches.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Maximum executed instructions before a [`Halt::StepLimit`].
    pub max_steps: u64,
    /// Record the current PC every `n` cycles.
    pub sample_interval: Option<u64>,
    /// Record branch-outcome edge coverage.
    pub collect_coverage: bool,
    /// Maximum call depth.
    pub max_depth: usize,
    /// Track `dbg.value` bindings per frame so [`Vm::shadow_values`]
    /// can resolve source-variable values against live state. Used by
    /// the correctness checker's ground-truth sessions; off by default
    /// because the bindings cost a map update per debug pseudo.
    pub track_dbg_bindings: bool,
    /// Simulate the microarchitectural cost model (cycle charges,
    /// load-use stalls, the branch predictor, PC sampling). On by
    /// default; performance measurement and AutoFDO need it. Debug
    /// sessions turn it off — architectural state (registers, memory,
    /// control flow, step counts, halt reasons) is bit-identical either
    /// way, only `cycles`/`samples` stay zero/empty.
    pub model_cycles: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            max_steps: 200_000_000,
            sample_interval: None,
            collect_coverage: false,
            max_depth: 512,
            track_dbg_bindings: false,
            model_cycles: true,
        }
    }
}

/// Why execution stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Halt {
    /// The entry function returned.
    Finished,
    /// The step budget was exhausted.
    StepLimit,
    /// A runtime fault (call-stack overflow, missing function, ...).
    Trap(String),
}

/// The outcome of a completed run.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// The entry function's return value (0 on trap).
    pub ret: i64,
    pub cycles: u64,
    pub steps: u64,
    pub output: Vec<i64>,
    /// Sampled PC addresses (when sampling was enabled).
    pub samples: Vec<u32>,
    /// Edge coverage (when enabled).
    pub coverage: Option<CoverageMap>,
    pub halt: Halt,
}

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
pub struct Vm<'a> {
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
    coverage: Option<CoverageMap>,
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

impl<'a> Vm<'a> {
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
        let coverage = config
            .collect_coverage
            .then(|| CoverageMap::new(obj.code.len() * 2 + obj.funcs.len()));
        let mut vm = Vm {
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
            cov.set(obj.code.len() * 2 + fid as usize);
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
        let mut vm = Vm::new(obj, entry, args, input, config)?;
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
    /// whose index is set in `breaks`, a dense bitmap over
    /// [`Object::code`] (bit `i` of `breaks[i / 64]`). The test happens
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
        breaks: &[u64],
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
        breaks: &[u64],
        skip_pseudos: Option<&[u32]>,
    ) -> Option<usize> {
        if let Some(hop) = skip_pseudos {
            if let Some(&j) = hop.get(self.pc) {
                self.pc = j as usize;
            }
            while self.halted.is_none() {
                let pc = self.pc;
                if let Some(word) = breaks.get(pc >> 6) {
                    if word & (1u64 << (pc & 63)) != 0 {
                        return Some(pc);
                    }
                }
                self.step_body::<MODEL>();
                if let Some(&j) = hop.get(self.pc) {
                    self.pc = j as usize;
                }
            }
        } else {
            while self.halted.is_none() {
                let pc = self.pc;
                if let Some(word) = breaks.get(pc >> 6) {
                    if word & (1u64 << (pc & 63)) != 0 {
                        return Some(pc);
                    }
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
            cov.set(inst_idx * 2 + taken as usize);
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
                if self.frames.len() >= self.config.max_depth {
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
                    cov.set(self.obj.code.len() * 2 + *func as usize);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Compiles MiniC source with the unoptimized backend and runs
    /// `entry` to completion.
    fn run(src: &str, entry: &str, args: &[i64], input: &[u8]) -> ExecResult {
        let module = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        Vm::run_to_completion(&obj, entry, args, input, VmConfig::default()).unwrap()
    }

    #[test]
    fn arithmetic_and_return() {
        let r = run(
            "int f(int a, int b) { return a * 10 + b; }",
            "f",
            &[4, 2],
            &[],
        );
        assert_eq!(r.ret, 42);
        assert_eq!(r.halt, Halt::Finished);
        assert!(r.cycles > 0);
    }

    #[test]
    fn loops_and_locals() {
        let r = run(
            "int f(int n) { int s = 0; for (int i = 1; i <= n; i++) { s += i; } return s; }",
            "f",
            &[100],
            &[],
        );
        assert_eq!(r.ret, 5050);
    }

    #[test]
    fn recursion() {
        let r = run(
            "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }",
            "fib",
            &[15],
            &[],
        );
        assert_eq!(r.ret, 610);
    }

    #[test]
    fn globals_persist_across_calls() {
        let r = run(
            "int counter = 0;\nint bump() { counter += 1; return counter; }\n\
             int f() { bump(); bump(); return bump(); }",
            "f",
            &[],
            &[],
        );
        assert_eq!(r.ret, 3);
    }

    #[test]
    fn arrays_wrap_out_of_bounds() {
        let r = run(
            "int f() { int a[4]; a[0] = 10; a[5] = 99; return a[1]; }",
            "f",
            &[],
            &[],
        );
        assert_eq!(r.ret, 99, "index 5 wraps to 1 in a 4-element array");
        let r = run(
            "int f() { int a[4]; a[-1] = 7; return a[3]; }",
            "f",
            &[],
            &[],
        );
        assert_eq!(r.ret, 7, "negative indices wrap from the end");
    }

    #[test]
    fn input_builtins() {
        let r = run(
            "int f() { int n = in_len(); int s = 0; for (int i = 0; i < n; i++) { s += in(i); } return s; }",
            "f",
            &[],
            &[1, 2, 3, 4],
        );
        assert_eq!(r.ret, 10);
        let r = run("int f() { return in(99); }", "f", &[], &[5]);
        assert_eq!(r.ret, -1, "past-the-end reads yield -1");
    }

    #[test]
    fn output_collection() {
        let r = run(
            "int f() { out(10); out(20); out(30); return 0; }",
            "f",
            &[],
            &[],
        );
        assert_eq!(r.output, vec![10, 20, 30]);
    }

    #[test]
    fn division_by_zero_is_total() {
        let r = run("int f(int a) { return a / 0 + a % 0 + 1; }", "f", &[5], &[]);
        assert_eq!(r.ret, 1);
    }

    #[test]
    fn short_circuit_semantics() {
        // `g` traps the test if called: && must not evaluate the rhs.
        let r = run(
            "int called = 0;\nint g() { called = 1; return 1; }\n\
             int f() { int x = 0; if (x && g()) { return 9; } return called; }",
            "f",
            &[],
            &[],
        );
        assert_eq!(r.ret, 0, "rhs of && must not run when lhs is false");
    }

    #[test]
    fn ternary_and_do_while() {
        let r = run(
            "int f(int n) { int i = 0; int s = 0; do { s += n > 5 ? 2 : 1; i++; } while (i < 3); return s; }",
            "f",
            &[9],
            &[],
        );
        assert_eq!(r.ret, 6);
    }

    #[test]
    fn step_limit_halts_infinite_loops() {
        let src = "int f() { while (1) { } return 0; }";
        let module = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let config = VmConfig {
            max_steps: 10_000,
            ..VmConfig::default()
        };
        let r = Vm::run_to_completion(&obj, "f", &[], &[], config).unwrap();
        assert_eq!(r.halt, Halt::StepLimit);
    }

    #[test]
    fn deep_recursion_traps() {
        let src = "int f(int n) { return f(n + 1); }";
        let module = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let r = Vm::run_to_completion(&obj, "f", &[0], &[], VmConfig::default()).unwrap();
        assert!(matches!(r.halt, Halt::Trap(_)));
    }

    #[test]
    fn coverage_distinguishes_branch_outcomes() {
        let src = "int f(int c) { if (c) { out(1); } else { out(2); } return 0; }";
        let module = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let config = VmConfig {
            collect_coverage: true,
            ..VmConfig::default()
        };
        let r1 = Vm::run_to_completion(&obj, "f", &[1], &[], config.clone()).unwrap();
        let r0 = Vm::run_to_completion(&obj, "f", &[0], &[], config).unwrap();
        let c1 = r1.coverage.unwrap();
        let c0 = r0.coverage.unwrap();
        assert!(c1.adds_to(&c0), "different branch outcomes differ");
        assert!(c0.adds_to(&c1));
    }

    #[test]
    fn sampling_collects_pcs() {
        let src =
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i * i; } return s; }";
        let module = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let config = VmConfig {
            sample_interval: Some(100),
            ..VmConfig::default()
        };
        let r = Vm::run_to_completion(&obj, "f", &[500], &[], config).unwrap();
        assert!(r.samples.len() > 10);
        let (_, info) = obj.func_by_name("f").unwrap();
        assert!(r
            .samples
            .iter()
            .all(|&a| a >= info.low_pc && a < info.high_pc));
    }

    #[test]
    fn cycle_counts_are_deterministic() {
        let src =
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += in(i % 7); } return s; }";
        let module = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let a = Vm::run_to_completion(&obj, "f", &[50], &[1, 2, 3], VmConfig::default()).unwrap();
        let b = Vm::run_to_completion(&obj, "f", &[50], &[1, 2, 3], VmConfig::default()).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.ret, b.ret);
    }

    #[test]
    fn shadow_values_track_source_variables_at_o0() {
        let src = "int f() { int x = 7; int y = x * 6; out(y); return y; }";
        let module = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let config = VmConfig {
            track_dbg_bindings: true,
            ..VmConfig::default()
        };
        let mut vm = Vm::new(&obj, "f", &[], &[], config).unwrap();
        while vm.output.is_empty() && vm.halt_reason().is_none() {
            vm.step();
        }
        let shadow = vm.shadow_values();
        let values: Vec<i64> = shadow.iter().map(|&(_, v)| v).collect();
        assert!(values.contains(&7), "x=7 missing from shadow: {shadow:?}");
        assert!(values.contains(&42), "y=42 missing from shadow: {shadow:?}");
        assert!(
            shadow.windows(2).all(|w| w[0].0 < w[1].0),
            "shadow values sorted by var index"
        );
    }

    #[test]
    fn shadow_values_empty_without_tracking() {
        let src = "int f() { int x = 5; out(x); return x; }";
        let module = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let mut vm = Vm::new(&obj, "f", &[], &[], VmConfig::default()).unwrap();
        while vm.output.is_empty() && vm.halt_reason().is_none() {
            vm.step();
        }
        assert!(vm.shadow_values().is_empty());
    }

    #[test]
    fn shadow_bindings_are_per_frame() {
        // The callee's bindings must not leak into the caller's frame.
        let src = "int g(int a) { int t = a + 1; out(t); return t; }\n\
                   int f() { int x = 10; int r = g(x); out(r); return r; }";
        let module = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let config = VmConfig {
            track_dbg_bindings: true,
            ..VmConfig::default()
        };
        let mut vm = Vm::new(&obj, "f", &[], &[], config).unwrap();
        // Run until g's out(t) fires: current frame is g's.
        while vm.output.is_empty() && vm.halt_reason().is_none() {
            vm.step();
        }
        let in_g: Vec<i64> = vm.shadow_values().iter().map(|&(_, v)| v).collect();
        assert!(in_g.contains(&11), "t=11 missing in g: {in_g:?}");
        // Run until f's out(r) fires: back in f's frame.
        while vm.output.len() < 2 && vm.halt_reason().is_none() {
            vm.step();
        }
        let in_f: Vec<i64> = vm.shadow_values().iter().map(|&(_, v)| v).collect();
        assert!(in_f.contains(&10), "x=10 missing in f: {in_f:?}");
        assert!(in_f.contains(&11), "r=11 missing in f: {in_f:?}");
    }

    /// Bitmap over instruction indices with every `is_stmt` line-table
    /// address armed, resolved exactly like the debugger's fast path.
    fn armed_bitmap(obj: &dt_machine::Object) -> Vec<u64> {
        let mut bits = vec![0u64; obj.code.len().div_ceil(64)];
        for row in obj.debug.line_table.rows() {
            if row.line != 0 && row.is_stmt {
                if let Some(idx) = obj.index_of_addr(row.addr) {
                    bits[idx >> 6] |= 1 << (idx & 63);
                }
            }
        }
        bits
    }

    #[test]
    fn armed_break_indices_are_never_dbg_pseudos() {
        // Debug pseudos are zero-size: they share the byte address of
        // the next real instruction, so resolving a breakpoint address
        // to an instruction index must always land on the real
        // instruction. `run_until_break` relies on this to skip
        // pseudos without any opcode re-match.
        for src in [
            "int f() { int x = 7; int y = x * 2; out(y); return y; }",
            "int g(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }\n\
             int f() { int r = g(in(0)); out(r); return r; }",
        ] {
            let module = dt_frontend::lower_source(src).unwrap();
            let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
            let bits = armed_bitmap(&obj);
            let mut armed = 0;
            for (i, inst) in obj.code.iter().enumerate() {
                if bits[i >> 6] & (1 << (i & 63)) != 0 {
                    armed += 1;
                    assert!(
                        !matches!(inst.op, FOp::Dbg { .. }),
                        "armed break index {i} is a Dbg pseudo"
                    );
                }
            }
            assert!(armed > 0, "some indices must be armed");
        }
    }

    #[test]
    fn run_until_break_matches_slow_stepping() {
        let src =
            "int f() { int s = 0; for (int i = 0; i < 5; i++) { s += in(i); } out(s); return s; }";
        let module = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let bits = armed_bitmap(&obj);
        let input = [3u8, 1, 4, 1, 5];

        // Slow walk: record every armed index passed over, stepping one
        // instruction at a time (bits stay armed — no clearing).
        let mut slow = Vm::new(&obj, "f", &[], &input, VmConfig::default()).unwrap();
        let mut slow_stops = Vec::new();
        while slow.halt_reason().is_none() {
            let pc = slow.pc_index();
            if bits[pc >> 6] & (1 << (pc & 63)) != 0 {
                slow_stops.push(pc);
            }
            slow.step();
        }

        // Fast walk: run_until_break with a one-shot clear per stop.
        let mut fast = Vm::new(&obj, "f", &[], &input, VmConfig::default()).unwrap();
        let mut working = bits.clone();
        let mut fast_stops = Vec::new();
        while let Some(idx) = fast.run_until_break(&working, None) {
            fast_stops.push(idx);
            working[idx >> 6] &= !(1 << (idx & 63));
        }
        // Re-arming after stepping past reproduces every slow stop.
        let mut fast2 = Vm::new(&obj, "f", &[], &input, VmConfig::default()).unwrap();
        let mut all_stops = Vec::new();
        while let Some(idx) = fast2.run_until_break(&bits, None) {
            all_stops.push(idx);
            // Step past the armed instruction (armed indices are real
            // instructions, so one counted step moves beyond it).
            let before = fast2.steps();
            while fast2.halt_reason().is_none() && fast2.steps() == before {
                fast2.step();
            }
        }
        assert_eq!(all_stops, slow_stops, "every armed pass-over is a stop");
        // One-shot stops are the distinct prefix subsequence.
        let mut seen = std::collections::HashSet::new();
        let distinct: Vec<usize> = slow_stops
            .iter()
            .copied()
            .filter(|i| seen.insert(*i))
            .collect();
        assert_eq!(fast_stops, distinct);
        // Both executions finish with identical results.
        while fast.halt_reason().is_none() {
            fast.step();
        }
        let (a, b) = (slow.into_result(), fast.into_result());
        assert_eq!(a.ret, b.ret);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn run_until_break_with_no_armed_bits_runs_to_completion() {
        let src =
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i * i; } return s; }";
        let module = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let reference = Vm::run_to_completion(&obj, "f", &[40], &[], VmConfig::default()).unwrap();
        let mut vm = Vm::new(&obj, "f", &[40], &[], VmConfig::default()).unwrap();
        let bits = vec![0u64; obj.code.len().div_ceil(64)];
        assert_eq!(vm.run_until_break(&bits, None), None);
        let r = vm.into_result();
        assert_eq!(r.ret, reference.ret);
        assert_eq!(r.cycles, reference.cycles);
        assert_eq!(r.steps, reference.steps);
        assert_eq!(r.halt, Halt::Finished);
    }

    #[test]
    fn disabling_cycle_model_preserves_architectural_state() {
        let src = "\
int helper(int v) { int w = v * 3; return w - 1; }
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (i - (i / 3) * 3 == 0) { s += helper(i); } else { s -= i; }
    }
    out(s);
    return s;
}";
        let module = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let modeled = Vm::run_to_completion(&obj, "f", &[37], &[], VmConfig::default()).unwrap();
        let plain = Vm::run_to_completion(
            &obj,
            "f",
            &[37],
            &[],
            VmConfig {
                model_cycles: false,
                ..VmConfig::default()
            },
        )
        .unwrap();
        // Registers, memory, control flow, and step counts agree; only
        // the cost model's outputs go dark.
        assert_eq!(plain.ret, modeled.ret);
        assert_eq!(plain.output, modeled.output);
        assert_eq!(plain.steps, modeled.steps);
        assert_eq!(plain.halt, modeled.halt);
        assert_eq!(plain.cycles, 0);
        assert!(modeled.cycles > 0);
    }

    #[test]
    fn read_location_inspects_state() {
        let src = "int f() { int x = 123; out(x); return x; }";
        let module = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let mut vm = Vm::new(&obj, "f", &[], &[], VmConfig::default()).unwrap();
        // Step until the output side effect happened.
        while vm.output.is_empty() && vm.halt_reason().is_none() {
            vm.step();
        }
        // x lives in frame slot 0 at O0.
        assert_eq!(vm.read_location(Location::FrameSlot(0)), Some(123));
        assert_eq!(vm.read_location(Location::Const(9)), Some(9));
    }
}
