//! The debugger simulator: temporary-breakpoint trace extraction.
//!
//! Implements the paper's trace-extraction procedure (Section III-A):
//! plant a *temporary* breakpoint on every line in the binary's
//! line-number table, run the program on every input of the test set
//! in one session, and at each hit record the line plus the variables
//! that are **visible with a value** — i.e. whose location list covers
//! the PC *and* whose location can actually be read from live machine
//! state. Temporary breakpoints make the session cheap: each line is
//! stepped at most once across all inputs.
//!
//! Two execution engines produce the same trace:
//!
//! * [`trace`] — the slow-step reference: drives the VM one [`Vm::step`]
//!   at a time and probes a hash map per instruction. Kept as the
//!   differential baseline the fast path is tested against.
//! * [`trace_with_plan`] — the production fast path:
//!   breakpoint detection happens *inside* the VM
//!   ([`Vm::run_until_break`]) against a dense bitmap over instruction
//!   indices, precomputed once per object as a [`BreakPlan`]. Control
//!   returns to the debugger only at armed indices, and a session
//!   abandons an input (and the rest of the input set) the moment the
//!   last breakpoint is consumed. Both engines produce bit-identical
//!   [`DebugTrace`]s by construction — pinned by differential tests.

use dt_machine::{FOp, Object};
use dt_vm::{Vm, VmConfig};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What the debugger observed at one stepped line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineObservation {
    /// The function whose code hit the breakpoint.
    pub func: String,
    /// Variables of that function visible with a value at the stop.
    pub vars: BTreeSet<String>,
    /// The value the debugger would print for each visible variable
    /// (resolved through the location list against live machine state),
    /// or — in a ground-truth session — the variable's true value per
    /// O0 semantics.
    pub values: BTreeMap<String, i64>,
}

/// A debug trace: one observation per stepped source line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DebugTrace {
    /// Stepped line → observation (first hit wins, as with temporary
    /// breakpoints).
    pub lines: BTreeMap<u32, LineObservation>,
    /// Total breakpoint hits (= distinct stepped lines; each line's
    /// breakpoints are removed on first hit, so every hit is a new
    /// line — asserted at the end of [`trace`]).
    pub hits: u64,
    /// Number of inputs executed to produce the trace.
    pub inputs_run: usize,
    /// Stepped lines in first-hit order. Used by the checker to decide
    /// whether a wrong value is *stale* (held earlier in the run).
    pub hit_order: Vec<u32>,
}

impl DebugTrace {
    /// The set of stepped lines.
    pub fn stepped_lines(&self) -> BTreeSet<u32> {
        self.lines.keys().copied().collect()
    }

    /// The variables observed at `line`, if it was stepped.
    pub fn vars_at(&self, line: u32) -> Option<&BTreeSet<String>> {
        self.lines.get(&line).map(|o| &o.vars)
    }
}

/// Debug-session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Step budget per input (keeps hangs from stalling the analysis).
    pub max_steps_per_input: u64,
    /// Call arguments passed to the harness entry point.
    pub entry_args: Vec<i64>,
    /// Record ground-truth variable values from the VM's shadow state
    /// (per-frame `dbg.value` bindings) instead of what the location
    /// lists claim. Meaningful on O0 builds, where the shadow state is
    /// exact; variable *visibility* stays loclist-based either way, so
    /// availability metrics are unaffected.
    pub ground_truth: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_steps_per_input: 5_000_000,
            entry_args: Vec::new(),
            ground_truth: false,
        }
    }
}

/// Counters from one fast-path debug session (feeds `EvalStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Instructions executed inside [`Vm::run_until_break`] (debug
    /// pseudos excluded, as in the VM's step count).
    pub fast_steps: u64,
    /// Times the VM returned control to the debugger at an armed index.
    pub break_stops: u64,
    /// Inputs abandoned mid-run because the last temporary breakpoint
    /// was consumed (no further hit was possible).
    pub inputs_abandoned: u64,
}

/// A precomputed, reusable breakpoint plan for one [`Object`]: every
/// `is_stmt` line-table address resolved once to an instruction index
/// in a dense bitmap over `obj.code`, plus the side tables a temporary-
/// breakpoint session needs (line per armed index, per-line index
/// groups for clearing) and the per-subprogram value keys `observe`
/// would otherwise rebuild on every hit.
///
/// Construction mirrors the classic address-keyed breakpoint table
/// exactly: rows are inserted in line-table order with last-row-wins
/// per address, then resolved through [`Object::index_of_addr`] — which
/// skips zero-size debug pseudos, so armed indices are always real
/// instructions. The plan itself is immutable; a session clones the
/// bitmap and clears bits as lines are hit, so one plan serves any
/// number of concurrent sessions of the same object.
#[derive(Debug, Clone)]
pub struct BreakPlan {
    /// Pristine armed bitmap over instruction indices (bit `i` of
    /// `bits[i / 64]`).
    bits: Vec<u64>,
    /// Breakpoint line per instruction index (meaningful where armed).
    line_of: Vec<u32>,
    /// Armed instruction indices per line, for temporary-breakpoint
    /// clearing. Mirrors the per-line address groups: an index shared
    /// by two lines' groups is cleared by whichever line hits first.
    indices_of_line: HashMap<u32, Vec<u32>>,
    /// Set bits in `bits`.
    armed: u32,
    /// Breakpoint addresses that resolve to no real instruction (never
    /// hittable, never clearable — they keep a session from declaring
    /// the breakpoint set empty, exactly like stale entries in the
    /// address-keyed table).
    unhittable: u32,
    /// Per-subprogram value keys: the `#k` occurrence suffixes for
    /// shadowed names, hoisted out of the per-hit observation.
    sp_keys: Vec<Vec<String>>,
    /// Pseudo hop table for [`Vm::run_until_break`]: `next_real[i]` is
    /// the first non-pseudo instruction index at or after `i` (identity
    /// for real instructions, `code.len()` maps to itself). Lets
    /// non-ground-truth sessions step over `Dbg` pseudos without
    /// dispatching them.
    next_real: Vec<u32>,
    /// Precomputed observation recipe per armed index: the containing
    /// subprogram and, for every variable whose location list covers
    /// the stop address, its name, value key, and resolved location.
    /// Location lists are pure functions of the address, so only the
    /// `read_location` probe against live machine state remains
    /// per-stop work. Indices outside any subprogram have no entry
    /// (their observation is empty, mirroring [`observe`]).
    obs_of: HashMap<u32, ArmedObs>,
}

/// The address-dependent half of a [`LineObservation`], resolved at
/// plan-build time for one armed instruction index. Holds only indices
/// into the object's debug records (no owned strings), so plan
/// construction allocates nothing per covered variable.
#[derive(Debug, Clone)]
struct ArmedObs {
    /// Index into [`BreakPlan::sp_keys`] (and the object's subprogram
    /// records) of the containing subprogram.
    sp: u32,
    /// `(global var-record index, subprogram-local var index, location)`
    /// of each variable whose loclist covers the stop address, in
    /// record order.
    vars: Vec<(u32, u32, dt_dwarf::Location)>,
}

impl BreakPlan {
    /// Precomputes the plan for `obj`. O(line table + code + vars);
    /// build once and reuse across sessions of the same object.
    pub fn new(obj: &Object) -> BreakPlan {
        // Breakpoints: every is_stmt address of every line (gdb plants
        // one physical breakpoint per matching location — inlined
        // copies, unrolled iterations, ...). Rows are resolved to
        // instruction indices in table order, so re-listed addresses
        // keep the classic last-row-wins line, and real instructions
        // have unique addresses so each armed address maps to exactly
        // one index (pseudos are skipped by `index_of_addr`).
        let mut bits = vec![0u64; obj.code.len().div_ceil(64)];
        let mut line_of = vec![0u32; obj.code.len()];
        let mut indices_of_line: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut unhittable_addrs: BTreeSet<u32> = BTreeSet::new();
        for row in obj.debug.line_table.rows() {
            if row.line == 0 || !row.is_stmt {
                continue;
            }
            match obj.index_of_addr(row.addr) {
                Some(idx) => {
                    bits[idx >> 6] |= 1 << (idx & 63);
                    line_of[idx] = row.line;
                    // Duplicate rows may repeat an index in a line's
                    // group; `clear_line` is idempotent, so that only
                    // costs a re-test.
                    indices_of_line
                        .entry(row.line)
                        .or_default()
                        .push(idx as u32);
                }
                None => {
                    unhittable_addrs.insert(row.addr);
                }
            }
        }
        let armed = bits.iter().map(|w| w.count_ones()).sum::<u32>();
        let unhittable = unhittable_addrs.len() as u32;

        let n = obj.code.len();
        let mut next_real = vec![n as u32; n + 1];
        for i in (0..n).rev() {
            next_real[i] = if matches!(obj.code[i].op, FOp::Dbg { .. }) {
                next_real[i + 1]
            } else {
                i as u32
            };
        }

        // Group variable records by owning subprogram in one pass
        // (`vars_of` filters the whole table per call).
        let mut vars_by_sp: Vec<Vec<u32>> = vec![Vec::new(); obj.debug.subprograms.len()];
        for (i, var) in obj.debug.vars.iter().enumerate() {
            if let Some(group) = vars_by_sp.get_mut(var.subprogram as usize) {
                group.push(i as u32);
            }
        }

        // Value keys per subprogram: a name shadowed across sibling
        // scopes gets an `#k` occurrence suffix so the loclist path and
        // the shadow ground truth always describe the same record
        // (keying by bare name would let the two paths pick different
        // instances and report spurious divergences).
        let sp_keys: Vec<Vec<String>> = vars_by_sp
            .iter()
            .map(|group| {
                let mut name_count: BTreeMap<&str, u32> = BTreeMap::new();
                group
                    .iter()
                    .map(|&g| {
                        let var = &obj.debug.vars[g as usize];
                        let k = name_count.entry(var.name.as_str()).or_insert(0u32);
                        let key = if *k == 0 {
                            var.name.clone()
                        } else {
                            format!("{}#{}", var.name, *k)
                        };
                        *k += 1;
                        key
                    })
                    .collect()
            })
            .collect();

        let mut obs_of: HashMap<u32, ArmedObs> = HashMap::new();
        for (w, &word) in bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let idx = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let addr = obj.addrs[idx];
                if let Some((sp_idx, _)) = obj.debug.subprogram_at(addr) {
                    let vars = vars_by_sp[sp_idx]
                        .iter()
                        .enumerate()
                        .filter_map(|(i, &g)| {
                            obj.debug.vars[g as usize]
                                .loclist
                                .at(addr)
                                .map(|loc| (g, i as u32, loc))
                        })
                        .collect();
                    obs_of.insert(
                        idx as u32,
                        ArmedObs {
                            sp: sp_idx as u32,
                            vars,
                        },
                    );
                }
            }
        }

        BreakPlan {
            bits,
            line_of,
            indices_of_line,
            armed,
            unhittable,
            sp_keys,
            next_real,
            obs_of,
        }
    }

    /// Whether instruction index `idx` carries an armed breakpoint.
    pub fn is_armed(&self, idx: usize) -> bool {
        self.bits
            .get(idx >> 6)
            .is_some_and(|w| w & (1 << (idx & 63)) != 0)
    }

    /// Clears `idx`'s line group in a working bitmap, returning how
    /// many bits were actually cleared (idempotent, like removing
    /// entries from an address-keyed table).
    fn clear_line(&self, line: u32, bits: &mut [u64]) -> u32 {
        let mut cleared = 0;
        if let Some(idxs) = self.indices_of_line.get(&line) {
            for &i in idxs {
                let word = &mut bits[(i as usize) >> 6];
                let mask = 1u64 << (i & 63);
                if *word & mask != 0 {
                    *word &= !mask;
                    cleared += 1;
                }
            }
        }
        cleared
    }
}

fn vm_config_for(config: &SessionConfig) -> VmConfig {
    VmConfig {
        max_steps: config.max_steps_per_input,
        track_dbg_bindings: config.ground_truth,
        ..VmConfig::default()
    }
}

/// Runs a temporary-breakpoint debug session over all `inputs` and
/// returns the merged trace.
///
/// This is the **slow-step reference engine**: it drives the VM one
/// [`Vm::step`] at a time and probes a per-instruction hash map.
/// Production paths use [`trace_with_plan`], which is
/// differentially tested to produce bit-identical traces.
pub fn trace(
    obj: &Object,
    entry: &str,
    inputs: &[Vec<u8>],
    config: &SessionConfig,
) -> Result<DebugTrace, String> {
    let plan = BreakPlan::new(obj);
    // Index-keyed breakpoint table: armed indices are never debug
    // pseudos (they share the next real instruction's address and
    // resolution skips them), so no per-step opcode re-match is needed.
    let mut armed: HashMap<usize, u32> = (0..obj.code.len())
        .filter(|&i| plan.is_armed(i))
        .map(|i| (i, plan.line_of[i]))
        .collect();

    let mut trace = DebugTrace::default();
    let empty: Vec<Vec<u8>> = vec![Vec::new()];
    let inputs: &[Vec<u8>] = if inputs.is_empty() { &empty } else { inputs };

    'inputs: for input in inputs {
        if armed.is_empty() && plan.unhittable == 0 {
            break; // all temporary breakpoints already consumed
        }
        let mut vm = Vm::new(obj, entry, &config.entry_args, input, vm_config_for(config))?;
        while vm.halt_reason().is_none() {
            let idx = vm.pc_index();
            if let Some(line) = armed.get(&idx).copied() {
                let obs = observe(obj, &vm, vm.pc_addr(), config.ground_truth, &plan.sp_keys);
                trace.hits += 1;
                if let std::collections::btree_map::Entry::Vacant(e) = trace.lines.entry(line) {
                    e.insert(obs);
                    trace.hit_order.push(line);
                }
                // Temporary: clear every location of this line.
                if let Some(idxs) = plan.indices_of_line.get(&line) {
                    for &i in idxs {
                        armed.remove(&(i as usize));
                    }
                }
                if armed.is_empty() && plan.unhittable == 0 {
                    // No further hit is possible: abandon this input
                    // (and, via the outer check, the rest of the set).
                    trace.inputs_run += 1;
                    continue 'inputs;
                }
            }
            vm.step();
        }
        trace.inputs_run += 1;
    }
    debug_assert_eq!(
        trace.hits as usize,
        trace.lines.len(),
        "temporary breakpoints: every hit is a distinct line"
    );
    Ok(trace)
}

/// Fast-path session: [`trace`] semantics with in-VM breakpoint
/// detection, against a precomputed plan (`plan` must have been
/// built from `obj`). Bit-identical to [`trace`] by construction.
pub fn trace_with_plan(
    obj: &Object,
    entry: &str,
    inputs: &[Vec<u8>],
    config: &SessionConfig,
    plan: &BreakPlan,
) -> Result<DebugTrace, String> {
    trace_with_plan_stats(obj, entry, inputs, config, plan).map(|(t, _)| t)
}

/// [`trace_with_plan`] returning the session's [`TraceStats`].
pub fn trace_with_plan_stats(
    obj: &Object,
    entry: &str,
    inputs: &[Vec<u8>],
    config: &SessionConfig,
    plan: &BreakPlan,
) -> Result<(DebugTrace, TraceStats), String> {
    let mut bits = plan.bits.clone();
    let mut remaining = plan.armed;
    let mut stats = TraceStats::default();

    let mut trace = DebugTrace::default();
    let empty: Vec<Vec<u8>> = vec![Vec::new()];
    let inputs: &[Vec<u8>] = if inputs.is_empty() { &empty } else { inputs };

    for input in inputs {
        if remaining == 0 && plan.unhittable == 0 {
            break; // all temporary breakpoints already consumed
        }
        // Debug sessions never read the microarchitectural cost model
        // (cycles, stalls, predictor state), so the fast path skips it;
        // architectural state — and therefore the trace — is identical.
        let vm_config = VmConfig {
            model_cycles: false,
            ..vm_config_for(config)
        };
        let mut vm = Vm::new(obj, entry, &config.entry_args, input, vm_config)?;
        // Full speed between breakpoints: the VM tests one bit per
        // instruction and returns only at armed indices. Ground-truth
        // sessions must dispatch `Dbg` pseudos (they update the shadow
        // bindings); everyone else hops over them via the plan's table.
        let skip = (!config.ground_truth).then_some(plan.next_real.as_slice());
        while let Some(idx) = vm.run_until_break(&bits, skip) {
            stats.break_stops += 1;
            let line = plan.line_of[idx];
            let obs = observe_planned(obj, plan, idx, &vm, config.ground_truth);
            trace.hits += 1;
            if let std::collections::btree_map::Entry::Vacant(e) = trace.lines.entry(line) {
                e.insert(obs);
                trace.hit_order.push(line);
            }
            // Temporary: clear every location of this line (including
            // the bit we stopped on, so the resume steps past it).
            remaining -= plan.clear_line(line, &mut bits);
            if remaining == 0 && plan.unhittable == 0 {
                // No further hit is possible anywhere: abandon the rest
                // of this input. The merged trace is unaffected by
                // construction, so this is pure saved work.
                stats.inputs_abandoned += 1;
                break;
            }
        }
        stats.fast_steps += vm.steps();
        trace.inputs_run += 1;
    }
    debug_assert_eq!(
        trace.hits as usize,
        trace.lines.len(),
        "temporary breakpoints: every hit is a distinct line"
    );
    Ok((trace, stats))
}

/// [`observe`] against the plan's precomputed recipe: the containing
/// subprogram and each variable's resolved location were computed at
/// plan-build time, leaving only the live-state `read_location` probes
/// (names and keys are cloned from the object's records at the stop).
fn observe_planned(
    obj: &Object,
    plan: &BreakPlan,
    idx: usize,
    vm: &Vm<'_>,
    ground_truth: bool,
) -> LineObservation {
    let Some(ao) = plan.obs_of.get(&(idx as u32)) else {
        return LineObservation {
            func: String::new(),
            vars: BTreeSet::new(),
            values: BTreeMap::new(),
        };
    };
    let keys = &plan.sp_keys[ao.sp as usize];
    let mut vars = BTreeSet::new();
    let mut values = BTreeMap::new();
    for &(g, local, loc) in &ao.vars {
        if let Some(v) = vm.read_location(loc) {
            vars.insert(obj.debug.vars[g as usize].name.clone());
            if !ground_truth {
                values.insert(keys[local as usize].clone(), v);
            }
        }
    }
    if ground_truth {
        for (var_idx, v) in vm.shadow_values() {
            if let Some(key) = keys.get(var_idx as usize) {
                values.insert(key.clone(), v);
            }
        }
    }
    LineObservation {
        func: obj.debug.subprograms[ao.sp as usize].name.clone(),
        vars,
        values,
    }
}

/// Collects the variables visible with a value at the stop address.
/// `sp_keys` are the precomputed per-subprogram value keys from the
/// object's [`BreakPlan`].
fn observe(
    obj: &Object,
    vm: &Vm<'_>,
    pc: u32,
    ground_truth: bool,
    sp_keys: &[Vec<String>],
) -> LineObservation {
    let Some((sp_idx, sp)) = obj.debug.subprogram_at(pc) else {
        return LineObservation {
            func: String::new(),
            vars: BTreeSet::new(),
            values: BTreeMap::new(),
        };
    };
    let keys = &sp_keys[sp_idx];
    let mut vars = BTreeSet::new();
    let mut values = BTreeMap::new();
    for (i, var) in obj.debug.vars_of(sp_idx).enumerate() {
        if let Some(loc) = var.loclist.at(pc) {
            if let Some(v) = vm.read_location(loc) {
                vars.insert(var.name.clone());
                if !ground_truth {
                    values.insert(keys[i].clone(), v);
                }
            }
        }
    }
    if ground_truth {
        // `dbg.value` var indices are function-local and VarRecords are
        // emitted in the same order, so index n is the n-th record.
        for (var_idx, v) in vm.shadow_values() {
            if let Some(key) = keys.get(var_idx as usize) {
                values.insert(key.clone(), v);
            }
        }
    }
    LineObservation {
        func: sp.name.clone(),
        vars,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_machine::{run_backend, BackendConfig};

    fn object(src: &str) -> Object {
        let m = dt_frontend::lower_source(src).unwrap();
        run_backend(&m, &BackendConfig::default())
    }

    const PROGRAM: &str = "\
int helper(int v) {
    int w = v * 2;
    return w + 1;
}
int main() {
    int x = in(0);
    int y = 0;
    if (x > 10) {
        y = helper(x);
    } else {
        y = x - 1;
    }
    out(y);
    return y;
}";

    #[test]
    fn o0_trace_steps_executed_lines_with_all_vars() {
        let obj = object(PROGRAM);
        let t = trace(&obj, "main", &[vec![50]], &SessionConfig::default()).unwrap();
        // The then-branch ran: lines 6,7,8,9 and helper's 2,3 stepped.
        for line in [2u32, 3, 6, 7, 8, 9, 13] {
            assert!(t.lines.contains_key(&line), "line {line} missing: {t:?}");
        }
        // The else branch did not run.
        assert!(!t.lines.contains_key(&11));
        // At O0, x is visible on its successor lines.
        assert!(t.vars_at(8).unwrap().contains("x"));
        assert!(t.vars_at(13).unwrap().contains("y"));
        assert!(t.vars_at(3).unwrap().contains("w"));
    }

    #[test]
    fn multiple_inputs_accumulate_coverage() {
        let obj = object(PROGRAM);
        let one = trace(&obj, "main", &[vec![50]], &SessionConfig::default()).unwrap();
        let both = trace(
            &obj,
            "main",
            &[vec![50], vec![1]],
            &SessionConfig::default(),
        )
        .unwrap();
        assert!(both.stepped_lines().is_superset(&one.stepped_lines()));
        assert!(both.lines.contains_key(&11), "else branch from input 2");
        assert_eq!(both.inputs_run, 2);
    }

    #[test]
    fn temporary_breakpoints_hit_once() {
        let obj = object(PROGRAM);
        let t = trace(
            &obj,
            "main",
            &[vec![50], vec![60], vec![70]],
            &SessionConfig::default(),
        )
        .unwrap();
        assert_eq!(t.hits as usize, t.lines.len());
    }

    #[test]
    fn observations_name_the_containing_function() {
        let obj = object(PROGRAM);
        let t = trace(&obj, "main", &[vec![50]], &SessionConfig::default()).unwrap();
        assert_eq!(t.lines[&2].func, "helper");
        assert_eq!(t.lines[&6].func, "main");
    }

    #[test]
    fn values_resolve_through_loclists_at_o0() {
        let obj = object(PROGRAM);
        let t = trace(&obj, "main", &[vec![50]], &SessionConfig::default()).unwrap();
        // On line 8 (the if-condition ran; x = 50 already stored).
        assert_eq!(t.lines[&8].values.get("x"), Some(&50));
        // On line 13 (out(y)), y = helper(50) = 101.
        assert_eq!(t.lines[&13].values.get("y"), Some(&101));
        // Inside helper with v = 50, line 3 sees w = 100.
        assert_eq!(t.lines[&3].values.get("w"), Some(&100));
    }

    #[test]
    fn ground_truth_matches_loclist_values_at_o0() {
        // At O0 locations are home slots, so the debugger's view and
        // the shadow state agree wherever both report a value.
        let obj = object(PROGRAM);
        let plain = trace(&obj, "main", &[vec![50]], &SessionConfig::default()).unwrap();
        let cfg = SessionConfig {
            ground_truth: true,
            ..SessionConfig::default()
        };
        let gt = trace(&obj, "main", &[vec![50]], &cfg).unwrap();
        assert_eq!(plain.stepped_lines(), gt.stepped_lines());
        for (line, obs) in &gt.lines {
            let p = &plain.lines[line];
            assert_eq!(obs.vars, p.vars, "visibility stays loclist-based");
            for (name, v) in &obs.values {
                if let Some(pv) = p.values.get(name) {
                    assert_eq!(v, pv, "line {line} var {name}");
                }
            }
        }
    }

    #[test]
    fn hit_order_records_first_hits_in_execution_order() {
        let obj = object(PROGRAM);
        let t = trace(&obj, "main", &[vec![50]], &SessionConfig::default()).unwrap();
        assert_eq!(t.hit_order.len(), t.lines.len());
        let as_set: BTreeSet<u32> = t.hit_order.iter().copied().collect();
        assert_eq!(as_set, t.stepped_lines());
        // main's first line steps before helper's body.
        let pos = |l: u32| t.hit_order.iter().position(|&x| x == l).unwrap();
        assert!(pos(6) < pos(2), "main:6 steps before helper:2");
    }

    #[test]
    fn empty_input_set_runs_once_with_empty_input() {
        let obj = object("int main() { int z = in_len(); out(z); return z; }");
        let t = trace(&obj, "main", &[], &SessionConfig::default()).unwrap();
        assert_eq!(t.inputs_run, 1);
        assert!(!t.lines.is_empty());
    }

    #[test]
    fn hung_programs_are_bounded() {
        let obj = object("int main() { while (1) { } return 0; }");
        let cfg = SessionConfig {
            max_steps_per_input: 10_000,
            ..Default::default()
        };
        let t = trace(&obj, "main", &[vec![]], &cfg).unwrap();
        assert_eq!(t.inputs_run, 1);
    }

    #[test]
    fn fast_path_matches_slow_step_field_for_field() {
        let obj = object(PROGRAM);
        let inputs = vec![vec![50], vec![1], vec![200]];
        for ground_truth in [false, true] {
            let cfg = SessionConfig {
                ground_truth,
                ..SessionConfig::default()
            };
            let slow = trace(&obj, "main", &inputs, &cfg).unwrap();
            let fast = trace_with_plan(&obj, "main", &inputs, &cfg, &BreakPlan::new(&obj)).unwrap();
            assert_eq!(slow, fast, "ground_truth={ground_truth}");
        }
    }

    #[test]
    fn plan_reuse_matches_inline_plan() {
        let obj = object(PROGRAM);
        let plan = BreakPlan::new(&obj);
        let cfg = SessionConfig::default();
        for inputs in [vec![vec![50]], vec![vec![1], vec![60]], vec![]] {
            let fast = trace_with_plan(&obj, "main", &inputs, &cfg, &BreakPlan::new(&obj)).unwrap();
            let reused = trace_with_plan(&obj, "main", &inputs, &cfg, &plan).unwrap();
            assert_eq!(fast, reused);
        }
    }

    #[test]
    fn armed_indices_are_never_dbg_pseudos() {
        let obj = object(PROGRAM);
        let plan = BreakPlan::new(&obj);
        for (i, inst) in obj.code.iter().enumerate() {
            if matches!(inst.op, dt_machine::FOp::Dbg { .. }) {
                assert!(!plan.is_armed(i), "pseudo at index {i} is armed");
            }
        }
        assert!((0..obj.code.len()).any(|i| plan.is_armed(i)));
    }

    #[test]
    fn abandonment_keeps_inputs_run_equal_to_slow_path() {
        // A straight-line program consumes every breakpoint on the
        // first input; both engines must still count all inputs and
        // the fast path must report the abandonment.
        let obj = object("int main() { int z = in_len(); out(z); return z; }");
        let inputs = vec![vec![1], vec![2, 2], vec![3, 3, 3]];
        let cfg = SessionConfig::default();
        let slow = trace(&obj, "main", &inputs, &cfg).unwrap();
        let (fast, stats) =
            trace_with_plan_stats(&obj, "main", &inputs, &cfg, &BreakPlan::new(&obj)).unwrap();
        assert_eq!(slow, fast);
        assert_eq!(stats.inputs_abandoned, 1, "first input abandons mid-run");
        assert_eq!(stats.break_stops, fast.hits);
    }

    #[test]
    fn hung_program_fast_path_is_bounded_and_matches() {
        let obj = object("int main() { int i = 0; while (1) { i = i + 1; } return 0; }");
        let cfg = SessionConfig {
            max_steps_per_input: 10_000,
            ..Default::default()
        };
        let slow = trace(&obj, "main", &[vec![]], &cfg).unwrap();
        let (fast, stats) =
            trace_with_plan_stats(&obj, "main", &[vec![]], &cfg, &BreakPlan::new(&obj)).unwrap();
        assert_eq!(slow, fast);
        assert!(stats.fast_steps > 0);
    }
}
