//! A deterministic coverage-guided fuzzer over VISA binaries.
//!
//! AFL-lite: maintain a queue of interesting inputs; repeatedly pick
//! one, mutate it (bit flips, byte sets, arithmetic nudges, length
//! changes, splices), run it with edge coverage, and keep it when it
//! reaches a coverage point no earlier input reached. All randomness
//! flows from a caller-provided seed.

use dt_ir::BitSet;
use dt_machine::Object;
use dt_vm::{RunPlan, Vm, VmConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fuzzing campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of executions to attempt.
    pub iterations: u32,
    /// Maximum input length.
    pub max_len: usize,
    /// RNG seed (campaigns are fully deterministic).
    pub seed: u64,
    /// Per-execution instruction budget.
    pub max_steps: u64,
    /// Arguments passed to the harness entry.
    pub entry_args: Vec<i64>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iterations: 2_000,
            max_len: 96,
            seed: 0x5eed,
            max_steps: 400_000,
            entry_args: Vec::new(),
        }
    }
}

/// Campaign outcome.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The queue: every input that added coverage, in discovery order.
    pub queue: Vec<Vec<u8>>,
    /// Total coverage points reached.
    pub coverage_points: usize,
    /// Executions performed.
    pub executions: u32,
}

/// Runs one execution with coverage, on `plan` (built from `obj`).
/// Coverage is architectural, so the cycle model stays off.
pub fn run_with_coverage(
    obj: &Object,
    plan: &RunPlan,
    entry: &str,
    input: &[u8],
    max_steps: u64,
    entry_args: &[i64],
) -> Option<BitSet> {
    let config = VmConfig {
        max_steps,
        collect_coverage: true,
        model_cycles: false,
        ..VmConfig::default()
    };
    let vm = Vm::with_plan(obj, plan, entry, entry_args, input, config).ok()?;
    vm.run_to_end().coverage
}

/// Runs a fuzzing campaign against `entry` of `obj`.
pub fn fuzz(obj: &Object, entry: &str, seeds: &[Vec<u8>], config: &FuzzConfig) -> FuzzReport {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let plan = RunPlan::new(obj);
    let mut global = BitSet::new();
    let mut queue: Vec<Vec<u8>> = Vec::new();

    // Runs `input` and queues it when it reaches new coverage; says
    // whether it did.
    let mut try_input = |input: Vec<u8>, queue: &mut Vec<Vec<u8>>| -> bool {
        let Some(cov) = run_with_coverage(
            obj,
            &plan,
            entry,
            &input,
            config.max_steps,
            &config.entry_args,
        ) else {
            return false;
        };
        if global.union_with(&cov) > 0 {
            queue.push(input);
            true
        } else {
            false
        }
    };

    // Seeds first (always tried, kept only if they add coverage —
    // except the first, which anchors the queue).
    let mut executions = 0u32;
    for (i, s) in seeds.iter().enumerate() {
        executions += 1;
        let added = try_input(s.clone(), &mut queue);
        if i == 0 && !added && queue.is_empty() {
            queue.push(s.clone());
        }
    }
    if queue.is_empty() {
        executions += 1;
        try_input(vec![0u8; 4], &mut queue);
        if queue.is_empty() {
            queue.push(vec![0u8; 4]);
        }
    }

    while executions < config.iterations {
        executions += 1;
        let parent = &queue[rng.gen_range(0..queue.len())];
        let child = mutate(parent, &queue, config.max_len, &mut rng);
        try_input(child, &mut queue);
    }

    FuzzReport {
        coverage_points: global.len(),
        executions,
        queue,
    }
}

/// One mutation of `parent`.
fn mutate(parent: &[u8], queue: &[Vec<u8>], max_len: usize, rng: &mut SmallRng) -> Vec<u8> {
    let mut out = parent.to_vec();
    // Stack 1..4 mutations, AFL havoc style.
    let count = 1 + rng.gen_range(0..4);
    for _ in 0..count {
        match rng.gen_range(0..7) {
            0 if !out.is_empty() => {
                // Bit flip.
                let i = rng.gen_range(0..out.len());
                out[i] ^= 1 << rng.gen_range(0..8);
            }
            1 if !out.is_empty() => {
                // Random byte.
                let i = rng.gen_range(0..out.len());
                out[i] = rng.gen();
            }
            2 if !out.is_empty() => {
                // Arithmetic nudge.
                let i = rng.gen_range(0..out.len());
                out[i] = out[i].wrapping_add(rng.gen_range(0..16)).wrapping_sub(8);
            }
            3 if out.len() < max_len => {
                // Insert a byte.
                let i = rng.gen_range(0..=out.len());
                out.insert(i, rng.gen());
            }
            4 if out.len() > 1 => {
                // Delete a byte.
                let i = rng.gen_range(0..out.len());
                out.remove(i);
            }
            5 => {
                // Splice with a random queue entry.
                let other = &queue[rng.gen_range(0..queue.len())];
                if !other.is_empty() && !out.is_empty() {
                    let cut_a = rng.gen_range(0..out.len());
                    let cut_b = rng.gen_range(0..other.len());
                    out.truncate(cut_a);
                    out.extend_from_slice(&other[cut_b..]);
                    out.truncate(max_len);
                }
            }
            _ => {
                // Interesting values.
                if !out.is_empty() {
                    let i = rng.gen_range(0..out.len());
                    const INTERESTING: [u8; 8] = [0, 1, 0x7f, 0x80, 0xff, 16, 32, 64];
                    out[i] = INTERESTING[rng.gen_range(0..INTERESTING.len())];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A little parser with guarded branches: fuzzing must find the
    /// magic bytes to reach deeper code.
    const MAZE: &str = "\
int process() {
    if (in(0) != 16) { return 1; }
    if (in(1) != 32) { return 2; }
    if (in(2) < 10) { return 3; }
    out(in(2));
    if (in(3) == 127) { out(99); return 42; }
    return 4;
}";

    fn object() -> Object {
        let m = dt_frontend::lower_source(MAZE).unwrap();
        dt_machine::run_backend(&m, &dt_machine::BackendConfig::default())
    }

    #[test]
    fn campaign_is_deterministic() {
        let obj = object();
        let cfg = FuzzConfig {
            iterations: 800,
            ..Default::default()
        };
        let a = fuzz(&obj, "process", &[vec![0, 0, 0, 0]], &cfg);
        let b = fuzz(&obj, "process", &[vec![0, 0, 0, 0]], &cfg);
        assert_eq!(a.queue, b.queue);
        assert_eq!(a.coverage_points, b.coverage_points);
    }

    #[test]
    fn coverage_grows_past_guards() {
        let obj = object();
        let cfg = FuzzConfig {
            iterations: 4_000,
            ..Default::default()
        };
        let report = fuzz(&obj, "process", &[vec![0, 0, 0, 0]], &cfg);
        assert!(
            report.queue.len() >= 3,
            "the fuzzer must break through several guards: {} inputs",
            report.queue.len()
        );
        // The first guard (77) must have been passed.
        assert!(report.queue.iter().any(|i| i.first() == Some(&16)));
    }

    #[test]
    fn queue_inputs_each_added_coverage() {
        let obj = object();
        let cfg = FuzzConfig {
            iterations: 2_000,
            ..Default::default()
        };
        let report = fuzz(&obj, "process", &[vec![0, 0, 0, 0]], &cfg);
        // Replaying the queue in order: every element adds coverage.
        let mut global = BitSet::new();
        let plan = RunPlan::new(&obj);
        let mut adds = 0;
        for input in &report.queue {
            let cov = run_with_coverage(&obj, &plan, "process", input, 100_000, &[]).unwrap();
            if global.union_with(&cov) > 0 {
                adds += 1;
            }
        }
        assert_eq!(adds, report.queue.len());
    }

    #[test]
    fn hangs_are_survived() {
        let src = "int process() { if (in(0) == 1) { while (1) { } } return 0; }";
        let m = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&m, &dt_machine::BackendConfig::default());
        let cfg = FuzzConfig {
            iterations: 300,
            max_steps: 5_000,
            ..Default::default()
        };
        let report = fuzz(&obj, "process", &[vec![0]], &cfg);
        assert_eq!(report.executions, 300);
    }
}
