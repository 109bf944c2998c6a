//! Correctness checks of compiled configurations against the `O0`
//! ground truth, read straight from the tuner's
//! [`crate::ArtifactStore`].
//!
//! [`dt_checker::GroundTruth::check`] classifies how one optimized trace diverges
//! from the ground-truth trace. The [`DebugTuner`] methods here produce
//! both traces: [`DebugTuner::check`] checks one configuration over a
//! program's input set, and [`DebugTuner::hunt`] fuzzes gated builds
//! with the checker as the interestingness oracle (the workflow of "Who
//! is Debugging the Debuggers?" against gdb/lldb). The source analysis,
//! the `O0` build, the baselines, and the level's compile session come
//! from the store, so checking many gates of one program builds each of
//! them once, and every variant build and trace is counted in the
//! tuner's [`crate::EvalStats`].

use crate::{DebugTuner, ProgramInput};
use dt_checker::{CheckReport, DefectSummary};
use dt_corpus::{FuzzConfig, FuzzReport};
use dt_debugger::BreakPlan;
use dt_passes::{CompileOptions, PassGate};
use std::collections::HashSet;

/// Hunt outcome: the fuzzing report plus, for each flagged input, the
/// checker's summary on that input alone.
#[derive(Debug, Clone)]
pub struct HuntResult {
    pub report: FuzzReport,
    pub defect_inputs: Vec<(Vec<u8>, DefectSummary)>,
}

impl DebugTuner {
    /// Compiles `program` with `options`, traces the build and the `O0`
    /// ground truth over the program's inputs, and runs the checker
    /// against the store's prepared [`dt_checker::GroundTruth`].
    pub fn check(
        &self,
        program: &ProgramInput,
        options: &CompileOptions,
    ) -> Result<CheckReport, String> {
        let src = self.store.source(&program.source)?;
        let session = self.store.session(
            &src,
            options.personality,
            options.level,
            options.profile.as_ref(),
        );
        let obj = self.store.build_variant(&session, &options.gate).object;
        let base = self.store.baseline(
            &src,
            &program.harness,
            &program.inputs,
            &program.entry_args,
            self.config.max_steps_per_input,
        )?;
        let opt = self.store.trace(
            &obj,
            &BreakPlan::new(&obj),
            &program.harness,
            &program.inputs,
            &self.session_config(&program.entry_args),
        )?;
        Ok(base.truth.check(&opt))
    }

    /// Fuzzes each gated variant of `source` (at `options`' personality,
    /// level, and profile; `options.gate` is ignored), flagging inputs on
    /// which the debugger's view of the variant diverges from the `O0`
    /// ground truth. One campaign per gate, each identical to a hunt of
    /// that gate alone; the source artifacts, the level's compile
    /// session, and the per-input baselines are shared across gates.
    /// Oracle sessions call the harness with `fuzz.entry_args` under the
    /// tuner's step budget. Deterministic for a fixed `fuzz`.
    pub fn hunt(
        &self,
        source: &str,
        harness: &str,
        options: &CompileOptions,
        gates: &[PassGate],
        seeds: &[Vec<u8>],
        fuzz: &FuzzConfig,
    ) -> Result<Vec<HuntResult>, String> {
        let src = self.store.source(source)?;
        let session = self.store.session(
            &src,
            options.personality,
            options.level,
            options.profile.as_ref(),
        );
        let entry_args = &fuzz.entry_args;
        let opt_session = self.session_config(entry_args);

        let mut results = Vec::with_capacity(gates.len());
        for gate in gates {
            let opt_obj = self.store.build_variant(&session, gate).object;
            // One plan per variant binary, reused across every fuzzed
            // input of this campaign (the hot loop of the hunt).
            let opt_plan = BreakPlan::new(&opt_obj);
            let mut defect_inputs: Vec<(Vec<u8>, DefectSummary)> = Vec::new();
            let interesting = |input: &[u8]| -> bool {
                let inputs = [input.to_vec()];
                // A failed O0 run makes the input uninteresting, not the
                // hunt a failure.
                let Ok(base) = self.store.baseline(
                    &src,
                    harness,
                    &inputs,
                    entry_args,
                    self.config.max_steps_per_input,
                ) else {
                    return false;
                };
                let Ok(opt) = self
                    .store
                    .trace(&opt_obj, &opt_plan, harness, &inputs, &opt_session)
                else {
                    return false;
                };
                let summary = base.truth.check(&opt).summary;
                if summary.total() > 0 {
                    defect_inputs.push((input.to_vec(), summary));
                    true
                } else {
                    false
                }
            };
            let report = dt_corpus::fuzz_with_oracle(&opt_obj, harness, seeds, fuzz, interesting);
            // The fuzzer deduplicates oracle hits after the oracle
            // returns, so drop the duplicate summaries it never recorded.
            let mut seen: HashSet<Vec<u8>> = HashSet::new();
            defect_inputs.retain(|(i, _)| seen.insert(i.clone()));
            results.push(HuntResult {
                report,
                defect_inputs,
            });
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TunerConfig;
    use dt_passes::{OptLevel, Personality};

    const SRC: &str = "\
int f() {
    int x = 1;
    int y = 2;
    x = 3;
    out(x + y);
    return x;
}";

    fn tuner(max_steps_per_input: u64) -> DebugTuner {
        DebugTuner::new(TunerConfig {
            max_steps_per_input,
            threads: 1,
        })
    }

    fn program() -> ProgramInput {
        ProgramInput {
            name: "check-test".into(),
            source: SRC.into(),
            harness: "f".into(),
            inputs: vec![vec![]],
            entry_args: vec![],
        }
    }

    #[test]
    fn check_is_clean_at_o0() {
        let r = tuner(1_000_000)
            .check(
                &program(),
                &CompileOptions::new(Personality::Gcc, OptLevel::O0),
            )
            .unwrap();
        assert_eq!(r.summary.total(), 0, "O0 vs O0 must be clean: {r:?}");
        assert!(r.summary.lines_checked > 0);
    }

    /// Checking two gates through one tuner equals checking each through
    /// a fresh tuner, shares the session and the baseline, and counts
    /// both variant builds and both optimized traces.
    #[test]
    fn one_tuner_checks_gates_like_fresh_tuners_and_counts_them() {
        let shared = tuner(1_000_000);
        for gate in [PassGate::allow_all(), PassGate::disabling(["dce"])] {
            let opts = CompileOptions {
                gate: gate.clone(),
                ..CompileOptions::new(Personality::Gcc, OptLevel::O2)
            };
            let alone = tuner(1_000_000).check(&program(), &opts).unwrap();
            let checked = shared.check(&program(), &opts).unwrap();
            assert_eq!(checked, alone, "gate {:?}", gate.disabled_names());
        }
        // One session and one baseline trace served both gates. Builds:
        // the `O0` object, the session, and the two variants. Traces:
        // the baseline and the two variants.
        let stats = shared.stats();
        assert_eq!(
            (stats.sessions, stats.builds, stats.traces),
            (1, 4, 3),
            "{stats:?}"
        );
    }

    #[test]
    fn hunt_over_gates_matches_one_fresh_tuner_per_gate() {
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
        let fuzz = FuzzConfig {
            iterations: 60,
            ..Default::default()
        };
        let seeds = [vec![1, 2, 3]];
        let gates = [PassGate::allow_all(), PassGate::disabling(["tree-sink"])];
        let shared = tuner(200_000)
            .hunt(src, "process", &opts, &gates, &seeds, &fuzz)
            .unwrap();
        assert_eq!(shared.len(), gates.len());
        for (gate, combined) in gates.iter().zip(&shared) {
            let mut solo = tuner(200_000)
                .hunt(
                    src,
                    "process",
                    &opts,
                    std::slice::from_ref(gate),
                    &seeds,
                    &fuzz,
                )
                .unwrap();
            let solo = solo.pop().expect("one gate, one result");
            assert_eq!(solo.report.queue, combined.report.queue);
            assert_eq!(solo.report.oracle_hits, combined.report.oracle_hits);
            assert_eq!(solo.defect_inputs, combined.defect_inputs);
        }
    }

    #[test]
    fn check_is_deterministic() {
        let opts = CompileOptions {
            gate: PassGate::default(),
            ..CompileOptions::new(Personality::Gcc, OptLevel::O2)
        };
        let a = tuner(1_000_000).check(&program(), &opts).unwrap();
        let b = tuner(1_000_000).check(&program(), &opts).unwrap();
        assert_eq!(a, b);
    }
}
