//! Correctness checks of compiled configurations against the `O0`
//! ground truth, read straight from the tuner's
//! [`crate::ArtifactStore`].
//!
//! [`dt_checker::GroundTruth::check`] classifies how one optimized trace diverges
//! from the ground-truth trace. [`DebugTuner::check`] produces both
//! traces and checks one configuration over a program's input set. The
//! source analysis, the `O0` build, the baseline, and the level's
//! compile session come from the store, so checking many gates of one
//! program builds each of them once (the session under
//! [`DebugTuner::hold_sessions`]), and every variant build and trace
//! is counted in the tuner's [`crate::EvalStats`].

use crate::{DebugTuner, ProgramInput};
use dt_checker::CheckReport;
use dt_debugger::BreakPlan;
use dt_passes::CompileOptions;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TunerConfig;
    use dt_passes::{OptLevel, PassGate, Personality};

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
    /// a fresh tuner, shares the held session and the baseline, and
    /// counts both variant builds and both optimized traces.
    #[test]
    fn one_tuner_checks_gates_like_fresh_tuners_and_counts_them() {
        let shared = tuner(1_000_000);
        shared.hold_sessions(Personality::Gcc, OptLevel::O2);
        for gate in [PassGate::allow_all(), PassGate::disabling(["dce"])] {
            let opts = CompileOptions {
                gate: gate.clone(),
                ..CompileOptions::new(Personality::Gcc, OptLevel::O2)
            };
            let alone = tuner(1_000_000).check(&program(), &opts).unwrap();
            let checked = shared.check(&program(), &opts).unwrap();
            assert_eq!(checked, alone, "gate {:?}", gate.disabled_names());
        }
        shared.release_sessions(Personality::Gcc, OptLevel::O2);
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
