//! Performance measurement of configurations on the SPEC-like suite
//! and of AutoFDO builds.
//!
//! [`measure_speedup`] and [`dt_autofdo::run_autofdo`] build and run
//! everything from source on every call; they stay that way as the
//! oracles of the tuner's memoized entry points here
//! ([`crate::DebugTuner::speedups`], [`crate::DebugTuner::autofdo`]).
//! Those build through one transient [`dt_passes::CompileSession`] per
//! program, run each distinct binary once through the store's run memo
//! ([`ArtifactStore::run`]), and check every measured binary against
//! `O0`'s run of the same call: it must finish with the same return
//! value and the same output, or the measurement fails instead of
//! reporting a speedup.

use crate::artifacts::{ArtifactStore, RunOutcome};
use crate::DebugTuner;
use dt_autofdo::{collect_profile, AutoFdoResult};
use dt_machine::Object;
use dt_passes::{compile_source, CompileOptions, OptLevel, PassGate, Personality};
use dt_testsuite::spec::{spec_suite, Benchmark, Workload};
use dt_vm::{Vm, VmConfig};
use serde::Serialize;
use std::sync::Arc;

/// Step budget of every speed run.
const SPEC_MAX_STEPS: u64 = 2_000_000_000;

/// Per-benchmark and aggregate speedups of one configuration.
#[derive(Debug, Clone, Serialize)]
pub struct PerfReport {
    /// (benchmark name, speedup over O0).
    pub per_benchmark: Vec<(String, f64)>,
    /// Geometric-mean speedup over O0.
    pub speedup: f64,
}

fn run_kernel(obj: &Object, b: &Benchmark, workload: Workload) -> Result<RunOutcome, String> {
    let cfg = VmConfig {
        max_steps: SPEC_MAX_STEPS,
        ..VmConfig::default()
    };
    let r = Vm::run_finished(obj, b.entry, &[b.iterations(workload)], &[], cfg)?;
    Ok(RunOutcome::of(&r))
}

/// Measures the speedup over `O0` of a (level, gate) configuration on
/// the full benchmark suite.
///
/// # Panics
///
/// When a binary does not finish, or the configuration's binary does
/// not return `O0`'s value and write `O0`'s output; the message names
/// the kernel, personality, level and gate.
pub fn measure_speedup(
    personality: Personality,
    level: OptLevel,
    gate: &PassGate,
    workload: Workload,
) -> PerfReport {
    let mut per_benchmark = Vec::new();
    let mut log_sum = 0.0;
    for b in spec_suite() {
        let o0 = compile_source(b.source, &CompileOptions::new(personality, OptLevel::O0))
            .expect("O0 build");
        let mut opts = CompileOptions::new(personality, level);
        opts.gate = gate.clone();
        let obj = compile_source(b.source, &opts).expect("config build");
        let label = format!("{} at {personality} {level} {}", b.name, gate_label(gate));
        let base = run_kernel(&o0, &b, workload)
            .unwrap_or_else(|e| panic!("{} at {personality} O0: {e}", b.name));
        let out = run_kernel(&obj, &b, workload).unwrap_or_else(|e| panic!("{label}: {e}"));
        out.agrees_with(&base)
            .unwrap_or_else(|e| panic!("{label} {e}"));
        let speedup = base.cycles as f64 / (out.cycles as f64).max(1.0);
        log_sum += speedup.ln();
        per_benchmark.push((b.name.to_string(), speedup));
    }
    PerfReport {
        speedup: (log_sum / per_benchmark.len() as f64).exp(),
        per_benchmark,
    }
}

/// One call of a program's binaries: entry, arguments, input bytes,
/// and step budget.
#[derive(Debug, Clone, Copy)]
pub struct RunCall<'a> {
    pub entry: &'a str,
    pub args: &'a [i64],
    pub input: &'a [u8],
    pub max_steps: u64,
}

impl RunCall<'_> {
    fn run(&self, store: &ArtifactStore, obj: &Object) -> Result<Arc<RunOutcome>, String> {
        store.run(obj, self.entry, self.args, self.input, self.max_steps)
    }

    /// Runs `obj` and checks that it behaves like `o0`, the outcome of
    /// the program's `O0` binary on this call. `what` names the binary
    /// in the error.
    fn run_like(
        &self,
        store: &ArtifactStore,
        o0: &RunOutcome,
        obj: &Object,
        what: impl Fn() -> String,
    ) -> Result<Arc<RunOutcome>, String> {
        let out = self
            .run(store, obj)
            .map_err(|e| format!("{}: {e}", what()))?;
        out.agrees_with(o0).map_err(|e| format!("{} {e}", what()))?;
        Ok(out)
    }
}

fn gate_label(gate: &PassGate) -> String {
    format!("gate [{}]", gate.disabled_names().join(", "))
}

impl DebugTuner {
    /// The speedup over `O0` of each gate at one personality/level on
    /// the SPEC kernels: one [`PerfReport`] per gate, bit-identical to
    /// [`measure_speedup`] of that gate. Kernels are measured on
    /// `config.threads` workers; each builds all gates from one
    /// transient compile session, and every distinct binary runs once
    /// in the tuner's run memo (so one `O0` run per kernel serves every
    /// call). Fails, naming the kernel, personality, level, and gate,
    /// when a binary does not finish with `O0`'s return value and
    /// output.
    pub fn speedups(
        &self,
        personality: Personality,
        level: OptLevel,
        gates: &[PassGate],
        workload: Workload,
    ) -> Result<Vec<PerfReport>, String> {
        let store = &self.store;
        let kernels = spec_suite();
        let per_kernel = crate::par_map(
            &kernels,
            self.config.threads,
            |b| -> Result<Vec<f64>, String> {
                let src = store.source(b.source)?;
                let args = [b.iterations(workload)];
                let call = RunCall {
                    entry: b.entry,
                    args: &args,
                    input: &[],
                    max_steps: SPEC_MAX_STEPS,
                };
                let o0 = call
                    .run(store, &src.o0)
                    .map_err(|e| format!("{} at O0: {e}", b.name))?;
                let session = store.transient_session(&src, personality, level, None);
                gates
                    .iter()
                    .map(|gate| {
                        // The all-allowing gate gets the session's reference
                        // object.
                        let obj = store.build_variant(&session, gate).object;
                        let run = call.run_like(store, &o0, &obj, || {
                            format!("{} at {personality} {level} {}", b.name, gate_label(gate))
                        })?;
                        Ok(o0.cycles as f64 / (run.cycles as f64).max(1.0))
                    })
                    .collect()
            },
        )
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?;
        // The geomean folds the kernels in `measure_speedup`'s order.
        Ok((0..gates.len())
            .map(|g| {
                let mut per_benchmark = Vec::new();
                let mut log_sum = 0.0;
                for (b, speedups) in kernels.iter().zip(&per_kernel) {
                    log_sum += speedups[g].ln();
                    per_benchmark.push((b.name.to_string(), speedups[g]));
                }
                PerfReport {
                    speedup: (log_sum / per_benchmark.len() as f64).exp(),
                    per_benchmark,
                }
            })
            .collect())
    }

    /// The AutoFDO experiment of `source` on `call` for each profiling
    /// gate, profiling and final builds both at `personality`/`level`:
    /// field for field equal to one [`dt_autofdo::run_autofdo`] per
    /// gate. One transient compile session yields the plain binary (its
    /// reference object) and every profiling binary; profiles are
    /// collected on `config.threads` workers; each distinct profile gets
    /// one AutoFDO build. The plain and AutoFDO runs go through the run
    /// memo. Fails when a run does not finish or a plain or AutoFDO
    /// binary does not behave like `O0`.
    pub fn autofdo(
        &self,
        source: &str,
        call: &RunCall,
        personality: Personality,
        level: OptLevel,
        profiling_gates: &[PassGate],
    ) -> Result<Vec<AutoFdoResult>, String> {
        let (store, threads) = (&self.store, self.config.threads);
        let what = |binary: String| format!("`{}` at {personality} {level}, {binary}", call.entry);
        let src = store.source(source)?;
        let o0 = call
            .run(store, &src.o0)
            .map_err(|e| format!("{}: {e}", what("O0 build".into())))?;
        let session = store.transient_session(&src, personality, level, None);
        let plain = call.run_like(store, &o0, &session.reference_object(), || {
            what("plain build".into())
        })?;
        let profiles = crate::par_map(profiling_gates, threads, |gate| {
            let obj = store.build_variant(&session, gate).object;
            let profile = collect_profile(&obj, call.entry, call.args, call.input, call.max_steps)
                .map_err(|e| format!("{}: {e}", what(format!("profiling {}", gate_label(gate)))))?;
            Ok((obj.debug.steppable_lines().len(), profile))
        })
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?;
        drop(session);

        // Equal profiles give equal AutoFDO builds: build each once.
        let mut distinct: Vec<(&PassGate, &dt_ir::Profile)> = Vec::new();
        let profile_index: Vec<usize> = profiles
            .iter()
            .zip(profiling_gates)
            .map(|((_, profile), gate)| {
                distinct
                    .iter()
                    .position(|(_, p)| *p == profile)
                    .unwrap_or_else(|| {
                        distinct.push((gate, profile));
                        distinct.len() - 1
                    })
            })
            .collect();
        let fdo = crate::par_map(&distinct, threads, |&(gate, profile)| {
            let opts = CompileOptions {
                personality,
                level,
                gate: PassGate::allow_all(),
                profile: Some(profile.clone()),
            };
            let obj = store.timed(
                || dt_passes::compile(&src.module, &opts),
                |s, ms, _| s.add_build(ms),
            );
            call.run_like(store, &o0, &obj, || {
                what(format!("AutoFDO build from {} profile", gate_label(gate)))
            })
        })
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?;

        Ok(profiles
            .iter()
            .zip(profile_index)
            .map(|((steppable, profile), i)| AutoFdoResult {
                plain_cycles: plain.cycles,
                autofdo_cycles: fdo[i].cycles,
                mapped_fraction: profile.mapped_fraction(),
                profiling_steppable_lines: *steppable,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_testsuite::spec;

    #[test]
    fn o2_beats_o0_on_every_benchmark() {
        let report = measure_speedup(
            Personality::Gcc,
            OptLevel::O2,
            &PassGate::allow_all(),
            Workload::Test,
        );
        assert_eq!(report.per_benchmark.len(), 8);
        for (name, speedup) in &report.per_benchmark {
            assert!(*speedup > 1.0, "{name}: speedup {speedup}");
        }
        assert!(report.speedup > 1.3, "aggregate {}", report.speedup);
    }

    #[test]
    fn disabling_passes_costs_performance() {
        let full = measure_speedup(
            Personality::Clang,
            OptLevel::O2,
            &PassGate::allow_all(),
            Workload::Test,
        );
        let gutted = measure_speedup(
            Personality::Clang,
            OptLevel::O2,
            &PassGate::disabling(["SROA", "Inliner", "LICM", "GVN", "EarlyCSE"]),
            Workload::Test,
        );
        assert!(
            gutted.speedup < full.speedup,
            "gutted {} vs full {}",
            gutted.speedup,
            full.speedup
        );
    }

    fn kernel_call<'a>(b: &Benchmark, args: &'a [i64]) -> RunCall<'a> {
        RunCall {
            entry: b.entry,
            args,
            input: &[],
            max_steps: SPEC_MAX_STEPS,
        }
    }

    /// Fault injection: another kernel's binary run on this kernel's
    /// call must be reported as a divergence from `O0`, naming the
    /// binary, and never measured.
    #[test]
    fn another_kernels_binary_diverges_from_o0() {
        let store = ArtifactStore::new();
        let (a, b) = (&spec_suite()[0], &spec_suite()[1]);
        assert_eq!(a.entry, b.entry, "both kernels share an entry point");
        let args = [a.iterations(Workload::Test)];
        let call = kernel_call(a, &args);
        let o0 = call
            .run(&store, &store.source(a.source).unwrap().o0)
            .unwrap();
        let own = compile_source(
            a.source,
            &CompileOptions::new(Personality::Gcc, OptLevel::O2),
        )
        .unwrap();
        assert!(call.run_like(&store, &o0, &own, || "own".into()).is_ok());
        let other = compile_source(
            b.source,
            &CompileOptions::new(Personality::Gcc, OptLevel::O2),
        )
        .unwrap();
        let err = call
            .run_like(&store, &o0, &other, || format!("{} swapped in", b.name))
            .unwrap_err();
        assert!(err.contains("swapped in diverges from O0"), "{err}");
    }

    /// Fault injection: a budget too small for the program is an
    /// explicit `StepLimit` error, memoized like any other run.
    #[test]
    fn starved_budget_is_a_memoized_step_limit_error() {
        let tuner = DebugTuner::new(crate::TunerConfig {
            threads: 1,
            ..Default::default()
        });
        let b = spec::benchmark("505.mcf").unwrap();
        let args = [b.iterations(Workload::Test)];
        let call = RunCall {
            max_steps: 1_000,
            ..kernel_call(&b, &args)
        };
        let gates = [PassGate::allow_all()];
        let run = || tuner.autofdo(b.source, &call, Personality::Clang, OptLevel::O2, &gates);
        let err = run().unwrap_err();
        assert!(
            err.contains("O0 build") && err.contains("StepLimit"),
            "{err}"
        );
        let before = tuner.stats();
        assert_eq!(run().unwrap_err(), err);
        let after = tuner.stats();
        assert_eq!(after.runs, before.runs, "the failed run is not rerun");
        assert_eq!(after.run_hits, before.run_hits + 1);
    }
}
