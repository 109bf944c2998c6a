//! `spec`: speed of candidate `Ox-dy` levels, closed loop, one client.
//!
//! Set-up draws, for gcc `O2` and clang `O2`, a permutation of the
//! level's gateable passes and builds the nested gates that disable its
//! first *y* passes, *y* in [`GATE_SIZES`] — the shape `dy_family`
//! produces. One op measures one gate with [`measure_speedup`] on the
//! `ref` workload: eight kernels compiled from source through
//! `compile_source` at `O0` and at the gate, each run to completion with
//! the VM's cycle model on. Most of the time is in
//! `Vm::run_to_completion`; the tuner and `CompileSession` are bypassed.
//!
//! The seed picks one of [`PERMUTATIONS`] pinned permutations, so every
//! seed's per-kernel speedups are checked against a committed digest.
//! The traced round re-drives `measure_speedup` kernel by kernel, checks
//! each gated build against its `O0` build (same return value, output
//! and halt), and must reproduce the untraced digests.

use crate::{json_digest, Calibration, Layers, Op, Pinned, Rng, Round};
use debugtuner::{measure_speedup, PerfReport};
use dt_passes::Personality;
use dt_passes::{compile_source, pipeline_pass_names, CompileOptions, OptLevel, PassGate};
use dt_testsuite::spec::{spec_suite, Workload};
use dt_vm::{ExecResult, Vm, VmConfig};
use std::collections::HashSet;
use std::time::Instant;

/// Distinct pass permutations per level; the seed selects one.
pub const PERMUTATIONS: u64 = 16;
/// Passes disabled by the gates of one permutation (nested prefixes).
pub const GATE_SIZES: [usize; 6] = [1, 3, 5, 7, 9, 11];
/// The levels whose gates are measured.
pub const LEVELS: [(Personality, OptLevel); 2] = [
    (Personality::Gcc, OptLevel::O2),
    (Personality::Clang, OptLevel::O2),
];

/// One candidate configuration.
#[derive(Debug, Clone)]
pub struct Gate {
    pub personality: Personality,
    pub level: OptLevel,
    pub disabled: Vec<&'static str>,
}

impl Gate {
    /// Pin key: level plus the disabled set, order-independent.
    pub fn key(&self) -> String {
        let mut names = self.disabled.clone();
        names.sort_unstable();
        format!(
            "spec {}|{}|{}",
            self.personality,
            self.level,
            names.join(",")
        )
    }

    fn pass_gate(&self) -> PassGate {
        PassGate::disabling(self.disabled.iter().copied())
    }
}

/// Set-up: the gates of the permutation the seed selects.
pub fn setup(seed: u64) -> Vec<Gate> {
    gates_of_permutation(seed % PERMUTATIONS, &GATE_SIZES)
}

/// The nested gates of permutation `index` at every level in [`LEVELS`].
pub fn gates_of_permutation(index: u64, sizes: &[usize]) -> Vec<Gate> {
    let mut rng = Rng::new(0x5bec ^ index);
    LEVELS
        .iter()
        .flat_map(|&(personality, level)| {
            let mut names = pipeline_pass_names(personality, level);
            rng.shuffle(&mut names);
            sizes
                .iter()
                .map(|&y| Gate {
                    personality,
                    level,
                    disabled: names[..y.min(names.len())].to_vec(),
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

fn report_digest(report: &PerfReport) -> u64 {
    let bits: Vec<(String, u64)> = report
        .per_benchmark
        .iter()
        .map(|(name, speedup)| (name.clone(), speedup.to_bits()))
        .collect();
    json_digest(&bits)
}

fn record(
    round: &mut Round,
    pinned: &Pinned,
    gate: &Gate,
    report: &PerfReport,
    ms: f64,
    mut error: Option<String>,
) {
    let key = gate.key();
    let digest = report_digest(report);
    round.digests.insert(key.clone(), digest);
    if error.is_none() {
        error = pinned.check(&key, digest).err();
    }
    round.ops.push(Op { ms, error });
}

/// One untraced round: `measure_speedup` per gate.
pub fn round(gates: &[Gate], workload: Workload, pinned: &Pinned, cal: &mut Calibration) -> Round {
    let mut round = Round::default();
    for gate in gates {
        let start = Instant::now();
        let report = measure_speedup(gate.personality, gate.level, &gate.pass_gate(), workload);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        record(&mut round, pinned, gate, &report, ms, None);
        cal.tick();
    }
    round
}

fn run(
    layers: &mut Layers,
    name: &str,
    obj: &dt_machine::Object,
    entry: &str,
    iters: i64,
) -> ExecResult {
    let cfg = VmConfig {
        max_steps: 2_000_000_000,
        ..VmConfig::default()
    };
    let r = layers.time(name, || {
        Vm::run_to_completion(obj, entry, &[iters], &[], cfg).expect("kernel entry exists")
    });
    layers.add("vm.runs", 1.0);
    layers.add("vm.steps", r.steps as f64);
    layers.add("vm.cycles", r.cycles as f64);
    r
}

/// One traced round: `measure_speedup` re-driven kernel by kernel, with
/// the behavioural differential against `O0`.
pub fn traced_round(
    gates: &[Gate],
    workload: Workload,
    pinned: &Pinned,
    cal: &mut Calibration,
) -> Round {
    let mut round = Round::default();
    let mut objects: HashSet<u64> = HashSet::new();
    for gate in gates {
        let start = Instant::now();
        let layers = &mut round.layers;
        let mut per_benchmark = Vec::new();
        let mut log_sum = 0.0;
        let mut divergence = None;
        for b in spec_suite() {
            let o0 = layers.time("passes.compile_o0_ms", || {
                compile_source(
                    b.source,
                    &CompileOptions::new(gate.personality, OptLevel::O0),
                )
                .expect("O0 build")
            });
            let mut opts = CompileOptions::new(gate.personality, gate.level);
            opts.gate = gate.pass_gate();
            let obj = layers.time("passes.compile_cfg_ms", || {
                compile_source(b.source, &opts).expect("config build")
            });
            layers.add("passes.compiles", 2.0);
            objects.insert(o0.content_hash());
            objects.insert(obj.content_hash());
            let iters = b.iterations(workload);
            let base = run(layers, "vm.run_o0_ms", &o0, b.entry, iters);
            let cfg = run(layers, "vm.run_cfg_ms", &obj, b.entry, iters);
            if (cfg.ret, &cfg.output, &cfg.halt) != (base.ret, &base.output, &base.halt)
                || base.halt != dt_vm::Halt::Finished
            {
                layers.add("vm.divergences", 1.0);
                divergence.get_or_insert(format!(
                    "{} under {}: O0 gave ret {} halt {:?}, gated build ret {} halt {:?}",
                    b.name,
                    gate.key(),
                    base.ret,
                    base.halt,
                    cfg.ret,
                    cfg.halt
                ));
            }
            let speedup = base.cycles as f64 / (cfg.cycles as f64).max(1.0);
            log_sum += speedup.ln();
            per_benchmark.push((b.name.to_string(), speedup));
        }
        let report = PerfReport {
            speedup: (log_sum / per_benchmark.len() as f64).exp(),
            per_benchmark,
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        record(&mut round, pinned, gate, &report, ms, divergence);
        cal.tick();
    }
    let layers = &mut round.layers;
    let runs = layers.get("vm.runs");
    layers.set(
        "vm.distinct_object_frac",
        objects.len() as f64 / runs.max(1.0),
    );
    let run_s = (layers.get("vm.run_o0_ms") + layers.get("vm.run_cfg_ms")) / 1e3;
    layers.set("vm.steps_per_s", layers.get("vm.steps") / run_s.max(1e-9));
    round
}
