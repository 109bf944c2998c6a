//! AutoFDO: sampling-based feedback-directed optimization (the
//! paper's Section V-C case study).
//!
//! The pipeline mirrors Chen et al.'s system end to end:
//!
//! 1. **Profile collection** — run the *profiling binary* (built at
//!    some optimization level, with debug info) under the VM's PC
//!    sampler;
//! 2. **Profile construction** — map each sampled address to a source
//!    line through the binary's line-number table. Samples landing in
//!    line-0 regions (code whose line the optimizer destroyed) are
//!    *lost* — this is precisely where debug-information quality
//!    enters the loop;
//! 3. **Profile-guided rebuild** — recompile with the line-keyed
//!    profile; the inliner, unroller, and block layout consult it;
//! 4. **Measure** — cycle count of the final binary on the same
//!    workload.
//!
//! Better debug info in step 1's binary ⇒ higher
//! [`dt_ir::Profile::mapped_fraction`] ⇒ better decisions in step 3 —
//! the paper's claim, reproduced mechanically.

use dt_ir::Profile;
use dt_machine::Object;
use dt_passes::{compile, CompileOptions, OptLevel, PassGate, Personality};
use dt_vm::{Vm, VmConfig};

/// Sampling period in cycles (hardware-counter-like).
pub const SAMPLE_INTERVAL: u64 = 199; // prime, to avoid loop aliasing

/// Collects a sample profile by running `entry(args)` on `obj`. A run
/// that does not finish within `max_steps` (or traps) is an error
/// naming its halt, never a truncated profile.
pub fn collect_profile(
    obj: &Object,
    entry: &str,
    args: &[i64],
    input: &[u8],
    max_steps: u64,
) -> Result<Profile, String> {
    let config = VmConfig {
        max_steps,
        sample_interval: Some(SAMPLE_INTERVAL),
        ..VmConfig::default()
    };
    let result = Vm::run_finished(obj, entry, args, input, config)?;
    let mut profile = Profile::new();
    for addr in result.samples {
        match obj.debug.line_table.line_at(addr) {
            Some(line) => profile.add(line, 1),
            None => profile.add_unmapped(1),
        }
    }
    Ok(profile)
}

/// The outcome of one AutoFDO experiment.
#[derive(Debug, Clone)]
pub struct AutoFdoResult {
    /// Cycles of the plain (non-FDO) final-level build.
    pub plain_cycles: u64,
    /// Cycles of the AutoFDO build.
    pub autofdo_cycles: u64,
    /// Fraction of samples the profile could map to source lines.
    pub mapped_fraction: f64,
    /// Steppable lines in the profiling binary (the paper's Table XV
    /// proxy for debug-information richness).
    pub profiling_steppable_lines: usize,
}

impl AutoFdoResult {
    /// Speedup of the AutoFDO build over the plain build: above 1 when
    /// the AutoFDO build needs fewer cycles.
    pub fn speedup(&self) -> f64 {
        self.plain_cycles as f64 / 1.0_f64.max(self.autofdo_cycles as f64)
    }
}

/// Configuration of one AutoFDO run.
#[derive(Debug, Clone)]
pub struct AutoFdoConfig {
    pub personality: Personality,
    /// Level (and gate) of the *profiling* binary — the paper varies
    /// this (`O2` vs `O2-dy`).
    pub profiling_level: OptLevel,
    pub profiling_gate: PassGate,
    /// Level of the final optimized binary (no gate: production build).
    pub final_level: OptLevel,
    pub max_steps: u64,
}

impl Default for AutoFdoConfig {
    fn default() -> Self {
        AutoFdoConfig {
            personality: Personality::Clang,
            profiling_level: OptLevel::O2,
            profiling_gate: PassGate::allow_all(),
            final_level: OptLevel::O2,
            max_steps: 400_000_000,
        }
    }
}

/// Runs the full AutoFDO pipeline for one program/workload. Fails when
/// the profiling, plain or AutoFDO run does not finish within
/// `config.max_steps`, or when the AutoFDO build diverges from the
/// plain one.
pub fn run_autofdo(
    module: &dt_ir::Module,
    entry: &str,
    args: &[i64],
    input: &[u8],
    config: &AutoFdoConfig,
) -> Result<AutoFdoResult, String> {
    // Profiling binary (with the paper's `-fdebug-info-for-profiling`
    // spirit: our debug info is always fully emitted).
    let profiling_opts = CompileOptions {
        personality: config.personality,
        level: config.profiling_level,
        gate: config.profiling_gate.clone(),
        profile: None,
    };
    let profiling_obj = compile(module, &profiling_opts);
    let profiling_steppable = profiling_obj.debug.steppable_lines().len();

    let profile = collect_profile(&profiling_obj, entry, args, input, config.max_steps)?;
    let mapped_fraction = profile.mapped_fraction();

    // Plain final build.
    let plain_opts = CompileOptions::new(config.personality, config.final_level);
    let plain_obj = compile(module, &plain_opts);
    let vm_cfg = VmConfig {
        max_steps: config.max_steps,
        ..VmConfig::default()
    };
    let plain = Vm::run_finished(&plain_obj, entry, args, input, vm_cfg.clone())?;

    // AutoFDO final build.
    let fdo_opts = CompileOptions {
        personality: config.personality,
        level: config.final_level,
        gate: PassGate::allow_all(),
        profile: Some(profile),
    };
    let fdo_obj = compile(module, &fdo_opts);
    let fdo = Vm::run_finished(&fdo_obj, entry, args, input, vm_cfg)?;
    if plain.ret != fdo.ret || plain.output != fdo.output {
        return Err(format!(
            "AutoFDO build diverges on `{entry}`: {} vs {}",
            plain.ret, fdo.ret
        ));
    }

    Ok(AutoFdoResult {
        plain_cycles: plain.cycles,
        autofdo_cycles: fdo.cycles,
        mapped_fraction,
        profiling_steppable_lines: profiling_steppable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_testsuite::spec::{self, Workload};

    fn module_of(src: &str) -> dt_ir::Module {
        dt_frontend::lower_source(src).unwrap()
    }

    #[test]
    fn speedup_is_plain_over_autofdo_cycles() {
        let r = AutoFdoResult {
            plain_cycles: 300,
            autofdo_cycles: 200,
            mapped_fraction: 1.0,
            profiling_steppable_lines: 0,
        };
        assert_eq!(r.speedup(), 1.5);
        let free = AutoFdoResult {
            autofdo_cycles: 0,
            ..r
        };
        assert_eq!(free.speedup(), 300.0, "a zero-cycle build divides by 1");
    }

    #[test]
    fn profile_maps_hot_lines() {
        let src = "\
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        s += i * i;
    }
    return s;
}";
        let module = module_of(src);
        let obj = dt_passes::compile(
            &module,
            &CompileOptions::new(Personality::Clang, OptLevel::O1),
        );
        let profile = collect_profile(&obj, "f", &[20_000], &[], 10_000_000).unwrap();
        assert!(profile.total_samples > 50);
        assert!(
            profile.mapped_fraction() > 0.3,
            "O1 keeps most lines mappable: {}",
            profile.mapped_fraction()
        );
        // The loop body line (4) must dominate.
        let hot = profile.at(4) + profile.at(3);
        assert!(
            hot as f64 > 0.4 * profile.total_samples as f64,
            "loop lines hold the samples ({hot} of {})",
            profile.total_samples
        );
    }

    #[test]
    fn worse_debug_info_loses_samples() {
        let b = spec::benchmark("557.xz").unwrap();
        let module = module_of(b.source);
        let o1 = dt_passes::compile(
            &module,
            &CompileOptions::new(Personality::Gcc, OptLevel::O1),
        );
        let o3 = dt_passes::compile(
            &module,
            &CompileOptions::new(Personality::Gcc, OptLevel::O3),
        );
        let iters = b.iterations(Workload::Test);
        let p1 = collect_profile(&o1, b.entry, &[iters], &[], 100_000_000).unwrap();
        let p3 = collect_profile(&o3, b.entry, &[iters], &[], 100_000_000).unwrap();
        assert!(
            p3.mapped_fraction() <= p1.mapped_fraction() + 0.05,
            "O3 must not map better than O1 ({} vs {})",
            p3.mapped_fraction(),
            p1.mapped_fraction()
        );
    }

    #[test]
    fn autofdo_end_to_end_preserves_semantics() {
        let b = spec::benchmark("505.mcf").unwrap();
        let module = module_of(b.source);
        let config = AutoFdoConfig {
            max_steps: 100_000_000,
            ..Default::default()
        };
        let iters = b.iterations(Workload::Test);
        let r = run_autofdo(&module, b.entry, &[iters], &[], &config).unwrap();
        assert!(r.plain_cycles > 0 && r.autofdo_cycles > 0);
        assert!(r.mapped_fraction > 0.0);
        assert!(r.profiling_steppable_lines > 10);
    }

    /// A budget too small for the kernel is an error naming the halt,
    /// from the profile collector and from the whole pipeline.
    #[test]
    fn unfinished_runs_are_errors() {
        let b = spec::benchmark("505.mcf").unwrap();
        let module = module_of(b.source);
        let iters = b.iterations(Workload::Test);
        let obj = dt_passes::compile(
            &module,
            &CompileOptions::new(Personality::Clang, OptLevel::O2),
        );
        let err = collect_profile(&obj, b.entry, &[iters], &[], 1_000).unwrap_err();
        assert!(err.contains("StepLimit"), "{err}");
        let config = AutoFdoConfig {
            max_steps: 1_000,
            ..Default::default()
        };
        let err = run_autofdo(&module, b.entry, &[iters], &[], &config).unwrap_err();
        assert!(err.contains("StepLimit"), "{err}");
    }

    #[test]
    fn disabling_passes_in_profiling_stage_adds_steppable_lines() {
        let b = spec::benchmark("531.deepsjeng").unwrap();
        let module = module_of(b.source);
        let base = AutoFdoConfig {
            max_steps: 100_000_000,
            ..Default::default()
        };
        let tuned = AutoFdoConfig {
            profiling_gate: PassGate::disabling([
                "Inliner",
                "JumpThreading",
                "Machine code sinking",
            ]),
            max_steps: 100_000_000,
            ..Default::default()
        };
        let iters = b.iterations(Workload::Test);
        let r_base = run_autofdo(&module, b.entry, &[iters], &[], &base).unwrap();
        let r_tuned = run_autofdo(&module, b.entry, &[iters], &[], &tuned).unwrap();
        assert!(
            r_tuned.profiling_steppable_lines >= r_base.profiling_steppable_lines,
            "disabling harmful passes must not lose steppable lines ({} vs {})",
            r_tuned.profiling_steppable_lines,
            r_base.profiling_steppable_lines
        );
    }
}
