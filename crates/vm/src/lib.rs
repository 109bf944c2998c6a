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
//! framework needs: PC sampling (AutoFDO), edge coverage (fuzzing; a
//! [`dt_ir::BitSet`] of coverage points), breakpoints (a `BitSet` of
//! instruction indices) and a single-step interface with
//! register/frame/global state access (the debugger).
//!
//! There is one interpreter loop. It executes a [`RunPlan`], the
//! object's code decoded once with each instruction's static cost and
//! hazard masks, and keeps the hot machine state in locals. Plain runs,
//! [`Vm::run_until_break`] and [`Vm::step`] are that loop with
//! different stop conditions. Plain runs that do not track `dbg.value`
//! bindings also take each *straight-line run* (the real instructions
//! up to the next call, return or jump) in one go, with one charge,
//! whenever the step budget covers it and its charge crosses no sample
//! point; everything else goes one instruction at a time. Both paths
//! execute an op through the same definition, so the results are the
//! same bit for bit.

mod coverage;
mod plan;

pub use plan::RunPlan;

use dt_dwarf::Location;
use dt_ir::{BitRow, BitSet};
use dt_machine::{FDbgLoc, FOp, FuncInfo, Object};
use plan::{Op, FUSED};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Maximum call depth: a call made with this many frames live traps.
pub const MAX_DEPTH: usize = 512;

/// Run-time limits and observation switches.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Maximum executed instructions before a [`Halt::StepLimit`].
    pub max_steps: u64,
    /// Record the current PC every `n` cycles.
    pub sample_interval: Option<u64>,
    /// Record branch-outcome edge coverage.
    pub collect_coverage: bool,
    /// Track `dbg.value` bindings per frame so [`Vm::shadow_values`]
    /// can resolve source-variable values against live state. Used by
    /// the correctness checker's ground-truth sessions; off by default
    /// because the bindings cost a map update per debug pseudo (without
    /// them, the loop hops over runs of pseudos without dispatching).
    pub track_dbg_bindings: bool,
    /// Simulate the microarchitectural cost model (cycle charges,
    /// load-use stalls, the branch predictor, PC sampling). On by
    /// default; performance measurement and AutoFDO need it. Debug
    /// sessions and the fuzzer turn it off — architectural state
    /// (registers, memory, control flow, step counts, halt reasons,
    /// coverage) is bit-identical either way, only `cycles`/`samples`
    /// stay zero/empty.
    pub model_cycles: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            max_steps: 200_000_000,
            sample_interval: None,
            collect_coverage: false,
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
    /// Edge coverage (when enabled): two points per instruction index
    /// for a branch's outcomes (not taken, taken), then one per function
    /// invoked.
    pub coverage: Option<BitSet>,
    pub halt: Halt,
}

impl ExecResult {
    /// This result if the run finished, otherwise an error naming the
    /// halt (`entry` is the function the run called).
    pub fn finished(self, entry: &str) -> Result<ExecResult, String> {
        if self.halt != Halt::Finished {
            return Err(format!(
                "`{entry}` halted with {:?} after {} steps",
                self.halt, self.steps
            ));
        }
        Ok(self)
    }
}

/// One call frame.
#[derive(Debug, Clone)]
struct Frame {
    ret_pc: usize,
    frame_base: usize,
    saved_args: [i64; 8],
    /// Last `dbg.value` binding per function-local variable index.
    /// Only populated when [`VmConfig::track_dbg_bindings`] is set.
    dbg_bindings: BTreeMap<u32, FDbgLoc>,
}

/// Why the interpreter loop returned control.
enum Exit {
    /// Poised at an armed instruction index.
    Break,
    /// The caller's real-instruction budget is spent.
    Budget,
    /// The VM halted.
    Halt(Halt),
}

/// An executing VM instance. Use [`Vm::run_to_completion`] for plain
/// runs, or [`Vm::step`] / [`Vm::run_until_break`] to drive execution
/// (the debugger does this to implement breakpoints).
///
/// Between calls the VM rests on a real instruction: debug pseudos
/// (zero-size, no cycles, no steps) before it have already been hopped
/// over, or dispatched when [`VmConfig::track_dbg_bindings`] is set.
pub struct Vm<'a> {
    obj: &'a Object,
    plan: Cow<'a, RunPlan>,
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
    /// Frame base of the current (innermost) frame.
    frame_base: usize,
    /// The previous instruction's [`plan::Step::hazard`]: the register
    /// it loaded (load-use stall) and whether it was fused (the next
    /// base cost is waived).
    hazard: u16,
    halted: Option<Halt>,
}

impl<'a> Vm<'a> {
    /// Creates a VM poised at the entry of function `entry` with the
    /// given call arguments, decoding `obj` into its own [`RunPlan`].
    /// Callers that run one object many times build the plan once and
    /// use [`Vm::with_plan`].
    pub fn new(
        obj: &'a Object,
        entry: &str,
        args: &[i64],
        input: &'a [u8],
        config: VmConfig,
    ) -> Result<Self, String> {
        Self::start(
            obj,
            Cow::Owned(RunPlan::new(obj)),
            entry,
            args,
            input,
            config,
        )
    }

    /// [`Vm::new`] over a prebuilt plan, which must have been built
    /// from `obj`.
    pub fn with_plan(
        obj: &'a Object,
        plan: &'a RunPlan,
        entry: &str,
        args: &[i64],
        input: &'a [u8],
        config: VmConfig,
    ) -> Result<Self, String> {
        Self::start(obj, Cow::Borrowed(plan), entry, args, input, config)
    }

    fn start(
        obj: &'a Object,
        plan: Cow<'a, RunPlan>,
        entry: &str,
        args: &[i64],
        input: &'a [u8],
        config: VmConfig,
    ) -> Result<Self, String> {
        assert_eq!(
            plan.steps.len(),
            obj.code.len(),
            "run plan built from another object"
        );
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
        let mut vm = Vm {
            obj,
            plan,
            pc: info.start_index as usize,
            regs: [0; 8],
            args: arg_bank,
            stack: vec![0; frame_size],
            frames: vec![Frame {
                ret_pc: usize::MAX,
                frame_base: 0,
                saved_args: [0; 8],
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
            hazard: 0,
            halted: None,
            config,
        };
        if let Some(cov) = &mut vm.coverage {
            cov.insert(coverage::call(obj, fid as usize));
        }
        // Settle on the entry's first real instruction (a budget of no
        // real instruction), so every stop the caller sees is real.
        vm.run::<false, false>(BitRow::new(&[]), 0);
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
        Ok(Vm::new(obj, entry, args, input, config)?.run_to_end())
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
        Self::run_to_completion(obj, entry, args, input, config)?.finished(entry)
    }

    /// Runs until the VM halts and returns the [`ExecResult`].
    pub fn run_to_end(mut self) -> ExecResult {
        self.dispatch::<false>(BitRow::new(&[]), u64::MAX);
        self.into_result()
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
    /// *before* each real instruction executes — including the one the
    /// VM is currently poised at — so a caller that stops at an armed
    /// index must clear that bit (or step past it) before resuming,
    /// exactly like a debugger removing a temporary breakpoint. Debug
    /// pseudos are never stops: they share the byte address of the next
    /// real instruction, so no breakpoint resolves to one. Returns the
    /// armed instruction index, or `None` once halted.
    ///
    /// This is the debugger's fast path: one bit test per instruction
    /// instead of a per-step address probe, with [`Vm::step`]'s exact
    /// semantics (cycle model, step budget, coverage, `dbg` bindings)
    /// in between.
    pub fn run_until_break(&mut self, breaks: &BitSet) -> Option<usize> {
        self.dispatch::<true>(breaks.row(), u64::MAX)
            .then_some(self.pc)
    }

    /// Executes one real instruction, with the debug pseudos after it
    /// (so the VM rests on the next real instruction). Does nothing once
    /// halted.
    pub fn step(&mut self) {
        self.dispatch::<false>(BitRow::new(&[]), 1);
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

    /// [`Vm::run`] with the cycle model chosen by the configuration.
    /// Returns whether it stopped at an armed index.
    fn dispatch<const BREAKS: bool>(&mut self, breaks: BitRow<'_>, budget: u64) -> bool {
        if self.config.model_cycles {
            self.run::<true, BREAKS>(breaks, budget)
        } else {
            self.run::<false, BREAKS>(breaks, budget)
        }
    }

    /// The interpreter loop, monomorphized on whether the cycle model
    /// runs and whether `breaks` is tested (the copies without have
    /// those branches statically removed). Runs until the VM halts,
    /// reaches an index armed in `breaks` (returns `true`), or is about
    /// to execute a real instruction after `budget` of them (debug
    /// pseudos do not count). The hot state lives in locals and is
    /// written back on every exit.
    ///
    /// Per real instruction, in the order of the cost model: the
    /// break test, the step-limit test, the operation, then one charge
    /// of load-use stall (previous load mask AND this instruction's
    /// read mask) plus base cost (waived after a fused instruction),
    /// then the PC samples the charge crossed. Without `BREAKS` and
    /// binding updates, a straight-line run that the steps left cover
    /// and whose charge stays below the next sample point runs back to
    /// back instead and is charged once: the first instruction's charge
    /// from the incoming hazard plus the plan's static tail. Nothing
    /// inside such a run can halt, trap, branch or take a sample, so
    /// the state after it equals the per-instruction path's.
    fn run<const MODEL: bool, const BREAKS: bool>(
        &mut self,
        breaks: BitRow<'_>,
        budget: u64,
    ) -> bool {
        if self.halted.is_some() {
            return false;
        }
        let obj = self.obj;
        let plan = &self.plan.steps[..];
        let track = self.config.track_dbg_bindings;
        let max_steps = self.config.max_steps;
        let interval = self.config.sample_interval.unwrap_or(u64::MAX).max(1);
        let mut pc = self.pc;
        // Real instructions left before `limit`; `steps` is `limit - left`.
        let budget_end = self.steps.saturating_add(budget);
        let limit = max_steps.min(budget_end);
        let mut left = limit.saturating_sub(self.steps);
        let mut cycles = self.cycles;
        let mut regs = self.regs;
        let mut hazard = self.hazard;
        let mut next_sample = self.next_sample;
        let mut frame_base = self.frame_base;

        // At `limit`: return control once the caller's budget is spent
        // (even if the step limit is reached too: the halt belongs to
        // the next instruction), otherwise halt.
        let at_limit = if budget_end <= max_steps {
            Exit::Budget
        } else {
            Exit::Halt(Halt::StepLimit)
        };

        let mut mem = Mem {
            stack: &mut self.stack,
            globals: &mut self.globals,
            args: &mut self.args,
            input: self.input,
            output: &mut self.output,
        };
        // Straight-line runs go in one charge only where nothing may stop
        // the loop or act between their instructions: no break test and
        // no binding updates.
        let batch = !BREAKS && !track;

        let exit = loop {
            let Some(s) = plan.get(pc) else {
                if left == 0 {
                    break at_limit;
                }
                break Exit::Halt(Halt::Trap(format!("pc {pc} out of code")));
            };
            if let Op::Dbg { next_real } = s.op {
                if !track {
                    pc = next_real as usize;
                    continue;
                }
                if limit - left >= max_steps {
                    break Exit::Halt(Halt::StepLimit);
                }
                bind(&mut self.frames, &obj.code[pc].op);
                pc += 1;
                continue;
            }
            // The whole straight-line run starting here, when the budget
            // covers it and its charge crosses no sample point: its ops
            // back to back, then one charge (the entry's, from the
            // incoming hazard, plus the static tail).
            let run = s.run;
            if batch && run.len > 1 && run.len as u64 <= left {
                let charge = if MODEL {
                    s.charge_after(hazard) + run.tail as u64
                } else {
                    0
                };
                if !MODEL || cycles.saturating_add(charge) < next_sample {
                    for t in &plan[pc..run.end as usize] {
                        straight(t.op, &mut regs, frame_base, &mut mem);
                    }
                    pc = run.end as usize;
                    left -= run.len as u64;
                    if MODEL {
                        cycles += charge;
                        hazard = run.hazard;
                    }
                    continue;
                }
            }
            if BREAKS && breaks.contains(pc) {
                break Exit::Break;
            }
            if left == 0 {
                break at_limit;
            }
            left -= 1;
            // A conditional branch's predictor-dependent cost.
            let mut dynamic_cost = 0;
            let mut next_pc = pc + 1;
            // Charges this instruction: stall plus (unless fused away)
            // its cost, then the PC samples the new total crossed.
            macro_rules! charge {
                () => {
                    if MODEL {
                        cycles += s.charge_after(hazard)
                            + if hazard & FUSED != 0 { 0 } else { dynamic_cost };
                        if cycles >= next_sample {
                            let addr = obj.addrs.get(pc).copied().unwrap_or(u32::MAX);
                            next_sample =
                                sample(&mut self.samples, addr, cycles, next_sample, interval);
                        }
                    }
                };
            }
            if !straight(s.op, &mut regs, frame_base, &mut mem) {
                match s.op {
                    Op::CallF { func } => {
                        let info = &obj.funcs[func as usize];
                        if self.frames.len() >= MAX_DEPTH {
                            break Exit::Halt(Halt::Trap(format!(
                                "call-stack overflow calling `{}`",
                                info.name
                            )));
                        }
                        if let Some(cov) = &mut self.coverage {
                            cov.insert(coverage::call(obj, func as usize));
                        }
                        let frame = Frame {
                            ret_pc: next_pc,
                            frame_base: mem.stack.len(),
                            saved_args: *mem.args,
                            dbg_bindings: BTreeMap::new(),
                        };
                        frame_base = push_frame(&mut self.frames, mem.stack, frame, info);
                        next_pc = info.start_index as usize;
                    }
                    Op::Ret => match pop_frame(&mut self.frames, mem.stack, mem.args) {
                        Some((ret_pc, base)) => {
                            frame_base = base;
                            next_pc = ret_pc;
                        }
                        None => {
                            frame_base = 0;
                            charge!();
                            pc = 0;
                            break Exit::Halt(Halt::Finished);
                        }
                    },
                    Op::Jmp { target } => next_pc = target as usize,
                    Op::JCond {
                        rs,
                        if_nonzero,
                        target,
                    } => {
                        let taken = (regs[r(rs)] != 0) == if_nonzero;
                        if MODEL {
                            // 2-bit predictor (cost-model state only; the
                            // branch outcome never depends on it).
                            let p = &mut self.predictor[pc];
                            let mispredict = (*p >= 2) != taken;
                            *p = if taken {
                                (*p + 1).min(3)
                            } else {
                                p.saturating_sub(1)
                            };
                            dynamic_cost = taken as u64 + if mispredict { 10 } else { 0 };
                        }
                        if let Some(cov) = &mut self.coverage {
                            cov.insert(coverage::branch(pc, taken));
                        }
                        if taken {
                            next_pc = target as usize;
                        }
                    }
                    _ => unreachable!("straight-line ops ran above, pseudos were hopped"),
                }
            }
            charge!();
            if MODEL {
                hazard = s.hazard;
            }
            pc = next_pc;
        };

        self.pc = pc;
        self.steps = limit - left;
        self.cycles = cycles;
        self.regs = regs;
        self.hazard = hazard;
        self.next_sample = next_sample;
        self.frame_base = frame_base;
        match exit {
            Exit::Break => true,
            Exit::Budget => false,
            Exit::Halt(h) => {
                self.halted = Some(h);
                false
            }
        }
    }
}

/// The machine state a straight-line op touches besides the register
/// file, borrowed from the [`Vm`] for one call of the loop.
struct Mem<'m> {
    stack: &'m mut Vec<i64>,
    globals: &'m mut [i64],
    args: &'m mut [i64; 8],
    input: &'m [u8],
    output: &'m mut Vec<i64>,
}

/// Executes `op` when it is a straight-line op, one that cannot halt,
/// trap or branch, and says whether it was; control ops and pseudos
/// are left to the caller. The one definition of these ops: the
/// loop's per-instruction path and its batched runs both call it.
#[inline(always)]
fn straight(op: Op, regs: &mut [i64; 8], frame_base: usize, m: &mut Mem) -> bool {
    match op {
        Op::Imm { rd, value } => regs[r(rd)] = value,
        Op::Mov { rd, rs } => regs[r(rd)] = regs[r(rs)],
        Op::Un { op, rd, rs } => regs[r(rd)] = op.eval(regs[r(rs)]),
        Op::Bin { op, rd, ra, rb } => regs[r(rd)] = op.eval(regs[r(ra)], regs[r(rb)]),
        Op::BinImm { op, rd, ra, imm } => regs[r(rd)] = op.eval(regs[r(ra)], imm),
        Op::Select { rd, rc, ra, rb } => {
            regs[r(rd)] = if regs[r(rc)] != 0 {
                regs[r(ra)]
            } else {
                regs[r(rb)]
            }
        }
        Op::LdSlot { rd, off } => {
            regs[r(rd)] = m.stack.get(frame_base + off as usize).copied().unwrap_or(0)
        }
        Op::StSlot { off, rs } => {
            if let Some(w) = m.stack.get_mut(frame_base + off as usize) {
                *w = regs[r(rs)];
            }
        }
        Op::LdIdx { rd, off, ri, len } => {
            let idx = frame_base + off as usize + wrap_index(regs[r(ri)], len);
            regs[r(rd)] = m.stack.get(idx).copied().unwrap_or(0);
        }
        Op::StIdx { off, ri, rs, len } => {
            let idx = frame_base + off as usize + wrap_index(regs[r(ri)], len);
            if let Some(w) = m.stack.get_mut(idx) {
                *w = regs[r(rs)];
            }
        }
        Op::LdG { rd, addr } => regs[r(rd)] = m.globals.get(addr as usize).copied().unwrap_or(0),
        Op::StG { addr, rs } => {
            if let Some(w) = m.globals.get_mut(addr as usize) {
                *w = regs[r(rs)];
            }
        }
        Op::LdGIdx { rd, base, ri, len } => {
            let idx = base as usize + wrap_index(regs[r(ri)], len);
            regs[r(rd)] = m.globals.get(idx).copied().unwrap_or(0);
        }
        Op::StGIdx { base, ri, rs, len } => {
            let idx = base as usize + wrap_index(regs[r(ri)], len);
            if let Some(w) = m.globals.get_mut(idx) {
                *w = regs[r(rs)];
            }
        }
        Op::SetArg { k, rs } => m.args[r(k)] = regs[r(rs)],
        Op::GetArg { rd, k } => regs[r(rd)] = m.args[r(k)],
        Op::In { rd, ri } => {
            let i = regs[r(ri)];
            regs[r(rd)] = if i >= 0 && (i as usize) < m.input.len() {
                m.input[i as usize] as i64
            } else {
                -1
            };
        }
        Op::InLen { rd } => regs[r(rd)] = m.input.len() as i64,
        Op::Out { rs } => m.output.push(regs[r(rs)]),
        Op::CallF { .. } | Op::Ret | Op::Jmp { .. } | Op::JCond { .. } | Op::Dbg { .. } => {
            return false
        }
    }
    true
}

// The loop's rare paths, kept out of line so that its hot state stays
// in registers.

/// Pushes `frame` with the callee's stack words; returns its base.
#[cold]
#[inline(never)]
fn push_frame(
    frames: &mut Vec<Frame>,
    stack: &mut Vec<i64>,
    frame: Frame,
    callee: &FuncInfo,
) -> usize {
    let base = frame.frame_base;
    stack.resize(base + callee.frame_size as usize, 0);
    frames.push(frame);
    base
}

/// Pops the innermost frame, restoring the caller's argument bank.
/// Returns the return index and the caller's frame base, or `None`
/// when the entry function returned.
#[cold]
#[inline(never)]
fn pop_frame(
    frames: &mut Vec<Frame>,
    stack: &mut Vec<i64>,
    args: &mut [i64; 8],
) -> Option<(usize, usize)> {
    let frame = frames.pop().expect("frame underflow");
    stack.truncate(frame.frame_base);
    if frame.ret_pc == usize::MAX {
        return None;
    }
    *args = frame.saved_args;
    Some((frame.ret_pc, frames.last().map_or(0, |f| f.frame_base)))
}

/// Applies debug pseudo `op` to the innermost frame's bindings.
#[cold]
#[inline(never)]
fn bind(frames: &mut [Frame], op: &FOp) {
    if let (FOp::Dbg { var, loc }, Some(frame)) = (op, frames.last_mut()) {
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

/// Records `addr` once per sample point `cycles` has reached; returns
/// the next sample point.
#[cold]
#[inline(never)]
fn sample(samples: &mut Vec<u32>, addr: u32, cycles: u64, mut next: u64, interval: u64) -> u64 {
    while cycles >= next {
        samples.push(addr);
        next += interval;
    }
    next
}

/// Register operand `x` as an index into the register file. The plan
/// checked that `x < 8`, so the mask only spares the bounds check.
#[inline(always)]
fn r(x: u8) -> usize {
    (x & 7) as usize
}

/// The element an index `ri` selects in an array of `len` words: in
/// range as is, otherwise wrapped Euclidean-style.
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

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use oracle::{dbg, hand_object, imm};

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

    /// The instruction indices of every `is_stmt` line-table address,
    /// resolved exactly like the debugger's fast path.
    fn armed_bitmap(obj: &dt_machine::Object) -> BitSet {
        obj.debug
            .line_table
            .rows()
            .iter()
            .filter(|row| row.line != 0 && row.is_stmt)
            .filter_map(|row| obj.index_of_addr(row.addr))
            .collect()
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
                if bits.contains(i) {
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
            if bits.contains(pc) {
                slow_stops.push(pc);
            }
            slow.step();
        }

        // Fast walk: run_until_break with a one-shot clear per stop.
        let mut fast = Vm::new(&obj, "f", &[], &input, VmConfig::default()).unwrap();
        let mut working = bits.clone();
        let mut fast_stops = Vec::new();
        while let Some(idx) = fast.run_until_break(&working) {
            fast_stops.push(idx);
            working.remove(idx);
        }
        // Re-arming after stepping past reproduces every slow stop.
        let mut fast2 = Vm::new(&obj, "f", &[], &input, VmConfig::default()).unwrap();
        let mut all_stops = Vec::new();
        while let Some(idx) = fast2.run_until_break(&bits) {
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
        let bits = BitSet::with_capacity(obj.code.len());
        assert_eq!(vm.run_until_break(&bits), None);
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

    /// Runs `obj` to the end on both engines (the reference hops
    /// pseudos through a table unless bindings are tracked) and checks
    /// they agree; returns the engine's result.
    fn run_both(obj: &Object, config: VmConfig) -> ExecResult {
        let track = config.track_dbg_bindings;
        let mut old = oracle::RefVm::new(obj, "f", &[], &[], config.clone()).unwrap();
        let hop = oracle::hop_table(obj);
        assert_eq!(
            old.run_until_break(&BitSet::new(), (!track).then_some(&hop)),
            None
        );
        let old = old.into_result();
        let new = Vm::run_to_completion(obj, "f", &[], &[], config).unwrap();
        assert_eq!(
            (&old.halt, old.ret, old.steps, old.cycles, &old.output),
            (&new.halt, new.ret, new.steps, new.cycles, &new.output)
        );
        new
    }

    #[test]
    fn step_limit_lands_exactly_on_max_steps_around_pseudos() {
        // Two real instructions, each with pseudos before and after.
        let obj = hand_object(
            vec![dbg(0), imm(0, 7), dbg(1), dbg(2), (FOp::Ret, false), dbg(3)],
            0,
        );
        for track in [false, true] {
            for (max_steps, halt, steps) in [
                (0, Halt::StepLimit, 0),
                (1, Halt::StepLimit, 1),
                (2, Halt::Finished, 2),
                (3, Halt::Finished, 2),
            ] {
                let config = VmConfig {
                    max_steps,
                    track_dbg_bindings: track,
                    ..VmConfig::default()
                };
                let r = run_both(&obj, config);
                assert_eq!((r.halt, r.steps), (halt, steps), "max {max_steps}");
            }
        }
        // An endless loop halts with exactly `max_steps` steps.
        let spin = hand_object(
            vec![dbg(0), imm(0, 1), dbg(1), (FOp::Jmp { target: 0 }, false)],
            0,
        );
        for max_steps in [5, 6, 7] {
            for track in [false, true] {
                let config = VmConfig {
                    max_steps,
                    track_dbg_bindings: track,
                    ..VmConfig::default()
                };
                let r = run_both(&spin, config);
                assert_eq!((r.halt, r.steps), (Halt::StepLimit, max_steps));
            }
        }
        // A breakpoint on the real instruction just past the limit, with
        // pseudos in between: hopped pseudos leave it reachable (one
        // stop, then the halt), dispatched ones hit the limit first.
        let bits = BitSet::from_iter([4]);
        for (track, stops) in [(false, vec![4]), (true, vec![])] {
            let config = VmConfig {
                max_steps: 1,
                track_dbg_bindings: track,
                ..VmConfig::default()
            };
            let mut new = Vm::new(&obj, "f", &[], &[], config.clone()).unwrap();
            let mut old = oracle::RefVm::new(&obj, "f", &[], &[], config).unwrap();
            let hop = oracle::hop_table(&obj);
            let skip = (!track).then_some(&hop[..]);
            let (mut new_stops, mut old_stops) = (Vec::new(), Vec::new());
            while let Some(i) = new.run_until_break(&bits) {
                new_stops.push(i);
                new.step();
            }
            while let Some(i) = old.run_until_break(&bits, skip) {
                old_stops.push(i);
                old.step();
            }
            assert_eq!(
                (&new_stops, &old_stops),
                (&stops, &stops),
                "tracked {track}"
            );
            assert_eq!(new.halt_reason(), Some(&Halt::StepLimit));
            assert_eq!(old.halt_reason(), Some(&Halt::StepLimit));
        }
    }

    #[test]
    fn call_depth_trap_charges_no_call_cost() {
        // `f` calls itself at once: `MAX_DEPTH - 1` calls are charged
        // (8 + 64 / 8 cycles each), then the next call traps: it counts
        // as a step but charges nothing.
        let obj = hand_object(vec![(FOp::CallF { func: 0 }, false), (FOp::Ret, false)], 64);
        let r = run_both(&obj, VmConfig::default());
        assert_eq!(r.halt, Halt::Trap("call-stack overflow calling `f`".into()));
        let calls = MAX_DEPTH as u64 - 1;
        assert_eq!((r.steps, r.cycles, r.ret), (calls + 1, calls * 16, 0));
    }

    #[test]
    fn running_off_the_end_of_code_traps() {
        for (code, pc, steps) in [
            (vec![imm(0, 1)], 1, 1),
            (vec![imm(0, 1), dbg(0), dbg(1)], 3, 1),
            // A straight-line run of three, taken in one go untracked.
            (vec![imm(0, 1), dbg(0), imm(1, 2), imm(2, 3), dbg(1)], 5, 3),
        ] {
            let obj = hand_object(code, 0);
            for track in [false, true] {
                let r = run_both(
                    &obj,
                    VmConfig {
                        track_dbg_bindings: track,
                        ..VmConfig::default()
                    },
                );
                assert_eq!(r.halt, Halt::Trap(format!("pc {pc} out of code")));
                assert_eq!((r.steps, r.cycles), (steps, steps));
            }
        }
    }

    #[test]
    fn fused_pair_then_load_use_stall() {
        // Imm (fused) waives the next Imm's cost; the fused load waives
        // the add's base cost, but the add still stalls on the loaded
        // register: 1 + 0 + 3 + (2 + 0) + 4 cycles.
        let obj = hand_object(
            vec![
                (FOp::Imm { rd: 0, value: 5 }, true),
                imm(1, 6),
                (FOp::LdSlot { rd: 2, off: 0 }, true),
                (
                    FOp::Bin {
                        op: dt_ir::BinOp::Add,
                        rd: 0,
                        ra: 2,
                        rb: 1,
                    },
                    false,
                ),
                (FOp::Ret, false),
            ],
            1,
        );
        let r = run_both(&obj, VmConfig::default());
        assert_eq!(
            (r.halt, r.ret, r.steps, r.cycles),
            (Halt::Finished, 6, 5, 10)
        );
        // Without the fusion flags every base cost is charged.
        let unfused = hand_object(obj.code.iter().map(|i| (i.op.clone(), false)).collect(), 1);
        assert_eq!(
            run_both(&unfused, VmConfig::default()).cycles,
            1 + 1 + 3 + 2 + 1 + 4
        );
    }

    #[test]
    fn step_executes_exactly_one_real_instruction() {
        let obj = hand_object(
            vec![
                dbg(0),
                imm(0, 1),
                dbg(1),
                dbg(2),
                imm(1, 2),
                dbg(3),
                (FOp::Ret, false),
            ],
            0,
        );
        for track in [false, true] {
            let config = VmConfig {
                track_dbg_bindings: track,
                ..VmConfig::default()
            };
            let mut vm = Vm::new(&obj, "f", &[], &[], config).unwrap();
            // Poised past the leading pseudo, on the first real one.
            assert_eq!((vm.pc_index(), vm.steps()), (1, 0));
            vm.step();
            assert_eq!((vm.pc_index(), vm.steps()), (4, 1));
            if track {
                assert_eq!(vm.shadow_values(), vec![(0, 0), (1, 1), (2, 2)]);
            }
            vm.step();
            assert_eq!((vm.pc_index(), vm.steps()), (6, 2));
            assert_eq!(vm.halt_reason(), None);
            vm.step();
            assert_eq!((vm.steps(), vm.halt_reason()), (3, Some(&Halt::Finished)));
            vm.step();
            assert_eq!(vm.steps(), 3, "a halted VM does not step");
        }
    }
}
