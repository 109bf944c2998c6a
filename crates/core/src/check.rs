//! Correctness checks of compiled configurations against the `O0`
//! ground truth, read straight from the [`ArtifactStore`].
//!
//! [`dt_checker::check`] classifies how one optimized trace diverges
//! from the ground-truth trace. The drivers here produce both traces:
//! [`check_compiled`] checks one configuration over a fixed input set,
//! and [`hunt`]/[`hunt_variants`] fuzz optimized builds with the
//! checker as the interestingness oracle (the workflow of "Who is
//! Debugging the Debuggers?" against gdb/lldb). The source analysis,
//! the `O0` build, the baselines, and the level's compile session come
//! from the store, so checking many gates of one program builds each
//! of them once.

use crate::artifacts::ArtifactStore;
use dt_checker::{check, CheckReport, DefectSummary};
use dt_debugger::SessionConfig;
use dt_passes::{CompileOptions, PassGate};
use std::collections::HashSet;

/// Compiles `source` with `options`, traces the build and the `O0`
/// ground truth over `inputs`, and runs [`check`].
pub fn check_compiled(
    source: &str,
    harness: &str,
    inputs: &[Vec<u8>],
    entry_args: &[i64],
    options: &CompileOptions,
    max_steps_per_input: u64,
) -> Result<CheckReport, String> {
    check_in(
        &ArtifactStore::new(),
        source,
        harness,
        inputs,
        entry_args,
        options,
        max_steps_per_input,
    )
}

/// [`check_compiled`] against a shared store.
pub(crate) fn check_in(
    store: &ArtifactStore,
    source: &str,
    harness: &str,
    inputs: &[Vec<u8>],
    entry_args: &[i64],
    options: &CompileOptions,
    max_steps_per_input: u64,
) -> Result<CheckReport, String> {
    let src = store.source(source)?;
    let session = store.session(
        &src,
        options.personality,
        options.level,
        options.profile.as_ref(),
    );
    let opt_obj = session.compile_variant(&options.gate);
    let base = store.baseline(&src, harness, inputs, entry_args, max_steps_per_input)?;
    let config = SessionConfig {
        max_steps_per_input,
        entry_args: entry_args.to_vec(),
        ground_truth: false,
    };
    let opt = dt_debugger::trace_fast(&opt_obj, harness, inputs, &config)?;
    Ok(check(&opt, &base, &src.analysis))
}

/// A defect-hunting fuzzing campaign: coverage-guided fuzzing of the
/// optimized binary with the checker as interestingness oracle.
#[derive(Debug, Clone)]
pub struct HuntConfig {
    pub fuzz: dt_corpus::FuzzConfig,
    /// Step budget for each oracle debug session.
    pub max_steps_per_input: u64,
}

impl Default for HuntConfig {
    fn default() -> Self {
        HuntConfig {
            fuzz: dt_corpus::FuzzConfig {
                iterations: 300,
                ..Default::default()
            },
            max_steps_per_input: 1_000_000,
        }
    }
}

/// Hunt outcome: the fuzzing report plus, for each flagged input, the
/// checker's summary on that input alone.
#[derive(Debug, Clone)]
pub struct HuntResult {
    pub report: dt_corpus::FuzzReport,
    pub defect_inputs: Vec<(Vec<u8>, DefectSummary)>,
}

/// Fuzzes the optimized build of `source`, flagging inputs on which
/// the debugger's view of the optimized binary diverges from the O0
/// ground truth. Deterministic for a fixed [`HuntConfig`].
pub fn hunt(
    source: &str,
    harness: &str,
    options: &CompileOptions,
    seeds: &[Vec<u8>],
    config: &HuntConfig,
) -> Result<HuntResult, String> {
    let gates = [options.gate.clone()];
    let mut results = hunt_variants(source, harness, options, &gates, seeds, config)?;
    Ok(results.pop().expect("one gate, one result"))
}

/// Hunts several gated variants of the same program in one go, one
/// campaign per gate (each identical to a standalone [`hunt`] of that
/// gate). The source artifacts, the level's compile session, and the
/// per-input ground-truth baselines are built once in one store and
/// shared across gates. `options.gate` is ignored; `gates` drives the
/// campaigns.
pub fn hunt_variants(
    source: &str,
    harness: &str,
    options: &CompileOptions,
    gates: &[PassGate],
    seeds: &[Vec<u8>],
    config: &HuntConfig,
) -> Result<Vec<HuntResult>, String> {
    let store = ArtifactStore::new();
    let src = store.source(source)?;
    let session = store.session(
        &src,
        options.personality,
        options.level,
        options.profile.as_ref(),
    );
    let entry_args = &config.fuzz.entry_args;
    let opt_session = SessionConfig {
        max_steps_per_input: config.max_steps_per_input,
        entry_args: entry_args.clone(),
        ground_truth: false,
    };

    let mut results = Vec::with_capacity(gates.len());
    for gate in gates {
        let opt_obj = session.compile_variant(gate);
        // One plan per variant binary, reused across every fuzzed input
        // of this campaign (the hot loop of the hunt).
        let opt_plan = dt_debugger::BreakPlan::new(&opt_obj);
        let mut defect_inputs: Vec<(Vec<u8>, DefectSummary)> = Vec::new();
        let interesting = |input: &[u8]| -> bool {
            let inputs = [input.to_vec()];
            // A failed O0 run makes the input uninteresting, not the
            // hunt a failure.
            let Ok(base) = store.baseline(
                &src,
                harness,
                &inputs,
                entry_args,
                config.max_steps_per_input,
            ) else {
                return false;
            };
            let Ok(opt) =
                dt_debugger::trace_with_plan(&opt_obj, harness, &inputs, &opt_session, &opt_plan)
            else {
                return false;
            };
            let summary = check(&opt, &base, &src.analysis).summary;
            if summary.total() > 0 {
                defect_inputs.push((input.to_vec(), summary));
                true
            } else {
                false
            }
        };
        let report =
            dt_corpus::fuzz_with_oracle(&opt_obj, harness, seeds, &config.fuzz, interesting);
        // The fuzzer deduplicates oracle hits after the oracle returns,
        // so drop the duplicate summaries it never recorded.
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        defect_inputs.retain(|(i, _)| seen.insert(i.clone()));
        results.push(HuntResult {
            report,
            defect_inputs,
        });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_passes::{OptLevel, Personality};

    const SRC: &str = "\
int f() {
    int x = 1;
    int y = 2;
    x = 3;
    out(x + y);
    return x;
}";

    #[test]
    fn check_compiled_is_clean_at_o0() {
        let r = check_compiled(
            SRC,
            "f",
            &[vec![]],
            &[],
            &CompileOptions::new(Personality::Gcc, OptLevel::O0),
            1_000_000,
        )
        .unwrap();
        assert_eq!(r.summary.total(), 0, "O0 vs O0 must be clean: {r:?}");
        assert!(r.summary.lines_checked > 0);
    }

    #[test]
    fn shared_store_matches_check_compiled_and_shares_state() {
        let inputs = [vec![]];
        let store = ArtifactStore::new();
        for gate in [PassGate::allow_all(), PassGate::disabling(["dce"])] {
            let opts = CompileOptions {
                gate: gate.clone(),
                ..CompileOptions::new(Personality::Gcc, OptLevel::O2)
            };
            let one_shot = check_compiled(SRC, "f", &inputs, &[], &opts, 1_000_000).unwrap();
            let shared = check_in(&store, SRC, "f", &inputs, &[], &opts, 1_000_000).unwrap();
            assert_eq!(shared, one_shot, "gate {:?}", gate.disabled_names());
        }
        // One session and one baseline trace served both gates: the
        // only builds are the `O0` object and that session's
        // construction, so both gates' objects came from the session.
        let stats = store.stats();
        assert_eq!((stats.sessions, stats.traces, stats.builds), (1, 1, 2));
    }

    #[test]
    fn hunt_variants_matches_standalone_hunts() {
        let src = "\
int process(int n) {
    int acc = 0;
    for (int i = 0; i < 3; i++) {
        int t = in(i) + n;
        acc += t * 2;
    }
    out(acc);
    return acc;
}";
        let opts = CompileOptions::new(Personality::Gcc, OptLevel::O2);
        let config = HuntConfig {
            fuzz: dt_corpus::FuzzConfig {
                iterations: 60,
                ..Default::default()
            },
            max_steps_per_input: 200_000,
        };
        let seeds = [vec![1, 2, 3]];
        let gates = [PassGate::allow_all(), PassGate::disabling(["tree-sink"])];
        let shared = hunt_variants(src, "process", &opts, &gates, &seeds, &config).unwrap();
        for (gate, combined) in gates.iter().zip(&shared) {
            let solo_opts = CompileOptions {
                gate: gate.clone(),
                ..opts.clone()
            };
            let solo = hunt(src, "process", &solo_opts, &seeds, &config).unwrap();
            assert_eq!(solo.report.queue, combined.report.queue);
            assert_eq!(solo.report.oracle_hits, combined.report.oracle_hits);
            assert_eq!(solo.defect_inputs, combined.defect_inputs);
        }
    }

    #[test]
    fn check_compiled_is_deterministic() {
        let opts = CompileOptions {
            gate: PassGate::default(),
            ..CompileOptions::new(Personality::Gcc, OptLevel::O2)
        };
        let a = check_compiled(SRC, "f", &[vec![]], &[], &opts, 1_000_000).unwrap();
        let b = check_compiled(SRC, "f", &[vec![]], &[], &opts, 1_000_000).unwrap();
        assert_eq!(a, b);
    }
}
