//! The SPEC-CPU-2017-like benchmark set (the paper's 8 C/C++ intrate
//! benchmarks minus 520.omnetpp, which the authors exclude).
//!
//! Every benchmark is a MiniC kernel with an internal deterministic
//! workload generator; the `bench(iterations)` entry point scales with
//! the iteration argument, giving `test` and `ref` workload sizes.

/// Workload size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small: suitable for unit tests and debug builds.
    Test,
    /// Large: the measurement workload (release builds).
    Ref,
}

/// One SPEC-like benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// SPEC-style name (e.g. "505.mcf").
    pub name: &'static str,
    pub source: &'static str,
    /// Entry function (always takes the iteration count).
    pub entry: &'static str,
    iterations_test: i64,
    iterations_ref: i64,
}

impl Benchmark {
    /// The iteration argument for a workload size.
    pub fn iterations(&self, workload: Workload) -> i64 {
        match workload {
            Workload::Test => self.iterations_test,
            Workload::Ref => self.iterations_ref,
        }
    }
}

macro_rules! benchmark {
    ($name:literal, $file:literal, $test:literal, $reference:literal) => {
        Benchmark {
            name: $name,
            source: include_str!(concat!("../programs/", $file)),
            entry: "bench",
            iterations_test: $test,
            iterations_ref: $reference,
        }
    };
}

/// The 8-benchmark suite.
pub fn spec_suite() -> Vec<Benchmark> {
    vec![
        benchmark!("500.perlbench", "spec_perlbench.mc", 6, 60),
        benchmark!("502.gcc", "spec_gcc.mc", 8, 90),
        benchmark!("505.mcf", "spec_mcf.mc", 2, 14),
        benchmark!("523.xalancbmk", "spec_xalancbmk.mc", 8, 80),
        benchmark!("525.x264", "spec_x264.mc", 1, 6),
        benchmark!("531.deepsjeng", "spec_deepsjeng.mc", 2, 16),
        benchmark!("541.leela", "spec_leela.mc", 30, 320),
        benchmark!("557.xz", "spec_xz.mc", 4, 40),
    ]
}

/// Looks up a benchmark by name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    spec_suite().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_parse() {
        for b in spec_suite() {
            let prog =
                dt_minic::compile_check(b.source).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(prog.function(b.entry).is_some(), "{} entry", b.name);
        }
        assert_eq!(spec_suite().len(), 8);
    }

    #[test]
    fn benchmarks_run_and_are_deterministic() {
        for b in spec_suite() {
            let module = dt_frontend::lower_source(b.source).unwrap();
            let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
            let cfg = dt_vm::VmConfig {
                max_steps: 80_000_000,
                ..Default::default()
            };
            let iters = b.iterations(Workload::Test);
            let run = |cfg| {
                dt_vm::Vm::run_finished(&obj, b.entry, &[iters], &[], cfg)
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name))
            };
            let (r1, r2) = (run(cfg.clone()), run(cfg));
            assert_eq!(r1.ret, r2.ret, "{}", b.name);
            assert_eq!(r1.cycles, r2.cycles, "{}", b.name);
        }
    }

    #[test]
    fn optimization_preserves_benchmark_outputs() {
        use dt_passes::{compile_source, CompileOptions, OptLevel, Personality};
        for b in spec_suite() {
            let o0 = compile_source(
                b.source,
                &CompileOptions::new(Personality::Gcc, OptLevel::O0),
            )
            .unwrap();
            let o2 = compile_source(
                b.source,
                &CompileOptions::new(Personality::Clang, OptLevel::O2),
            )
            .unwrap();
            let cfg = dt_vm::VmConfig {
                max_steps: 80_000_000,
                ..Default::default()
            };
            let iters = b.iterations(Workload::Test);
            let run = |obj, cfg| {
                dt_vm::Vm::run_finished(obj, b.entry, &[iters], &[], cfg)
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name))
            };
            let (r0, r2) = (run(&o0, cfg.clone()), run(&o2, cfg));
            assert_eq!(r0.ret, r2.ret, "{}", b.name);
            assert_eq!(r0.output, r2.output, "{}", b.name);
            assert!(
                r2.cycles < r0.cycles,
                "{}: O2 ({}) must beat O0 ({})",
                b.name,
                r2.cycles,
                r0.cycles
            );
        }
    }
}
