//! Corpus minimization: coverage-preserving (`afl-cmin`) and
//! stepped-line set cover (the paper's second pruning).

use crate::fuzzer::run_with_coverage;
use dt_ir::BitSet;
use dt_machine::Object;
use dt_vm::RunPlan;
use std::collections::BTreeSet;

/// Coverage-preserving minimization: a greedy subset of `queue` that
/// covers every edge the full queue covers, trying inputs with the
/// largest coverage first (the afl-cmin strategy).
pub fn cmin(
    obj: &Object,
    entry: &str,
    entry_args: &[i64],
    queue: &[Vec<u8>],
    max_steps: u64,
) -> Vec<Vec<u8>> {
    let plan = RunPlan::new(obj);
    let mut measured: Vec<(usize, BitSet)> = queue
        .iter()
        .enumerate()
        .filter_map(|(i, input)| {
            run_with_coverage(obj, &plan, entry, input, max_steps, entry_args).map(|c| (i, c))
        })
        .collect();
    // Largest coverage first; stable on index for determinism.
    measured.sort_by_key(|(i, c)| (std::cmp::Reverse(c.len()), *i));

    let mut global = BitSet::new();
    let mut kept_indices: Vec<usize> = Vec::new();
    for (i, cov) in measured {
        if global.union_with(&cov) > 0 {
            kept_indices.push(i);
        }
    }
    kept_indices.sort_unstable();
    kept_indices.into_iter().map(|i| queue[i].clone()).collect()
}

/// The set of lines stepped when debugging `input` alone, traced
/// against a precomputed breakpoint plan of `obj`.
fn stepped_lines(
    obj: &Object,
    plan: &dt_debugger::BreakPlan,
    entry: &str,
    entry_args: &[i64],
    input: &[u8],
    max_steps: u64,
) -> BTreeSet<u32> {
    let cfg = dt_debugger::SessionConfig {
        max_steps_per_input: max_steps,
        entry_args: entry_args.to_vec(),
        ..Default::default()
    };
    dt_debugger::trace_with_plan(
        obj,
        entry,
        std::slice::from_ref(&input.to_vec()),
        &cfg,
        plan,
    )
    .map(|t| t.stepped_lines())
    .unwrap_or_default()
}

/// Debug-trace minimization: a greedy set cover over stepped source
/// lines. Inputs with the most unique lines are processed first; any
/// input stepping no new line is discarded (Section IV).
pub fn trace_min(
    obj: &Object,
    entry: &str,
    entry_args: &[i64],
    inputs: &[Vec<u8>],
    max_steps: u64,
) -> Vec<Vec<u8>> {
    // Every input is traced against the same binary: resolve the
    // breakpoint set to instruction indices once.
    let plan = dt_debugger::BreakPlan::new(obj);
    let mut measured: Vec<(usize, BTreeSet<u32>)> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            (
                i,
                stepped_lines(obj, &plan, entry, entry_args, input, max_steps),
            )
        })
        .collect();
    measured.sort_by_key(|(i, lines)| (std::cmp::Reverse(lines.len()), *i));

    let mut covered: BTreeSet<u32> = BTreeSet::new();
    let mut kept_indices = Vec::new();
    for (i, lines) in measured {
        if lines.iter().any(|l| !covered.contains(l)) {
            covered.extend(&lines);
            kept_indices.push(i);
        }
    }
    kept_indices.sort_unstable();
    kept_indices
        .into_iter()
        .map(|i| inputs[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzer::{fuzz, FuzzConfig};

    const PROG: &str = "\
int process() {
    int kind = in(0);
    if (kind == 1) { out(100); return 1; }
    if (kind == 2) { out(200); return 2; }
    if (kind == 3) {
        int s = 0;
        for (int i = 1; i < in_len(); i++) { s += in(i); }
        out(s);
        return 3;
    }
    return 0;
}";

    fn object() -> Object {
        let m = dt_frontend::lower_source(PROG).unwrap();
        dt_machine::run_backend(&m, &dt_machine::BackendConfig::default())
    }

    #[test]
    fn cmin_preserves_total_coverage() {
        let obj = object();
        // A redundant queue: duplicates and subsets.
        let queue: Vec<Vec<u8>> = vec![
            vec![1],
            vec![1, 9],
            vec![2],
            vec![2, 2],
            vec![3, 5, 5],
            vec![3, 9],
            vec![0],
            vec![0, 0],
        ];
        let minimized = cmin(&obj, "process", &[], &queue, 100_000);
        assert!(minimized.len() < queue.len());
        // Union coverage identical.
        let plan = RunPlan::new(&obj);
        let total = |inputs: &[Vec<u8>]| {
            let mut g = BitSet::new();
            for i in inputs {
                let c = crate::fuzzer::run_with_coverage(&obj, &plan, "process", i, 100_000, &[])
                    .unwrap();
                g.union_with(&c);
            }
            g.len()
        };
        assert_eq!(total(&queue), total(&minimized));
    }

    #[test]
    fn trace_min_preserves_stepped_lines() {
        let obj = object();
        let inputs: Vec<Vec<u8>> = vec![
            vec![1],
            vec![1, 1],
            vec![2],
            vec![3, 4],
            vec![3, 4, 4, 4],
            vec![0],
        ];
        let minimized = trace_min(&obj, "process", &[], &inputs, 200_000);
        assert!(minimized.len() < inputs.len());
        let all_lines = |inputs: &[Vec<u8>]| {
            let cfg = dt_debugger::SessionConfig::default();
            dt_debugger::trace(&obj, "process", inputs, &cfg)
                .unwrap()
                .stepped_lines()
        };
        assert_eq!(all_lines(&inputs), all_lines(&minimized));
    }

    #[test]
    fn end_to_end_pipeline_shrinks_fuzz_queues() {
        let obj = object();
        let cfg = FuzzConfig {
            iterations: 3_000,
            max_len: 12,
            ..Default::default()
        };
        let report = fuzz(&obj, "process", &[vec![0, 0]], &cfg);
        let after_cmin = cmin(&obj, "process", &[], &report.queue, 100_000);
        let after_tmin = trace_min(&obj, "process", &[], &after_cmin, 200_000);
        assert!(after_tmin.len() <= after_cmin.len());
        assert!(after_cmin.len() <= report.queue.len());
        assert!(!after_tmin.is_empty());
        // Line coverage survives the whole pipeline.
        let session = dt_debugger::SessionConfig::default();
        let full = dt_debugger::trace(&obj, "process", &report.queue, &session)
            .unwrap()
            .stepped_lines();
        let min = dt_debugger::trace(&obj, "process", &after_tmin, &session)
            .unwrap()
            .stepped_lines();
        assert_eq!(full, min);
    }
}
