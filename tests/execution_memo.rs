//! The tuner's memoized speed and AutoFDO entry points against their
//! uncached oracles.
//!
//! `DebugTuner::speedups` and `DebugTuner::autofdo` build through
//! transient compile sessions, run each distinct binary once through
//! the artifact store's run memo, and measure kernels and profiling
//! gates in parallel. None of that may change a single bit of what
//! `measure_speedup` and `run_autofdo` report, for the standard levels
//! and for the nested multi-pass gates that `Ox-dy` ships.

use debugtuner::{
    measure_speedup, DebugTuner, PerfReport, RunCall, TunerConfig, MEASURE_MAX_STEPS,
};
use dt_autofdo::{run_autofdo, AutoFdoConfig, AutoFdoResult};
use dt_passes::{pipeline_pass_names, OptLevel, PassGate, Personality};
use dt_testsuite::spec::{self, Workload};

fn tuner() -> DebugTuner {
    DebugTuner::new(TunerConfig {
        max_steps_per_input: 3_000_000,
        threads: 2,
    })
}

/// The level itself, then gates disabling the first 2, 5, and 9 of
/// its gateable passes taken from the back of the pipeline (nested,
/// like an `Ox-dy` family).
fn nested_gates(personality: Personality, level: OptLevel) -> Vec<PassGate> {
    let mut names = pipeline_pass_names(personality, level);
    names.reverse();
    std::iter::once(PassGate::allow_all())
        .chain([2, 5, 9].map(|y| PassGate::disabling(names[..y].iter().copied())))
        .collect()
}

fn report_bits(report: &PerfReport) -> (u64, Vec<(String, u64)>) {
    (
        report.speedup.to_bits(),
        report
            .per_benchmark
            .iter()
            .map(|(name, s)| (name.clone(), s.to_bits()))
            .collect(),
    )
}

#[test]
fn speedups_are_bit_equal_to_measure_speedup() {
    let tuner = tuner();
    for (personality, level) in [
        (Personality::Gcc, OptLevel::O2),
        (Personality::Clang, OptLevel::O3),
    ] {
        let gates = nested_gates(personality, level);
        let reports = tuner
            .speedups(personality, level, &gates, Workload::Test)
            .unwrap();
        assert_eq!(reports.len(), gates.len());
        for (gate, report) in gates.iter().zip(&reports) {
            let oracle = measure_speedup(personality, level, gate, Workload::Test);
            assert_eq!(
                report_bits(report),
                report_bits(&oracle),
                "{personality} {level} disabling {:?}",
                gate.disabled_names()
            );
        }
    }
}

fn fields(r: &AutoFdoResult) -> (u64, u64, u64, usize) {
    (
        r.plain_cycles,
        r.autofdo_cycles,
        r.mapped_fraction.to_bits(),
        r.profiling_steppable_lines,
    )
}

/// One SPEC kernel at clang `O2` and the self-compilation program at
/// clang `O3`, each with a repeated gate so that two profiling gates
/// share one profile.
#[test]
fn autofdo_equals_run_autofdo_for_every_profiling_gate() {
    let tuner = tuner();
    let mcf = spec::benchmark("505.mcf").unwrap();
    let cc = dt_testsuite::self_compile_program();
    let mcf_args = [mcf.iterations(Workload::Test)];
    let cc_input = b"v1=4;v2=v1*3+1;out v2;v3=v2+v1;out v3;".to_vec();
    let cases = [
        (
            mcf.source,
            RunCall {
                entry: mcf.entry,
                args: &mcf_args,
                input: &[],
                max_steps: 100_000_000,
            },
            OptLevel::O2,
        ),
        (
            cc.source,
            RunCall {
                entry: "compile_unit",
                args: &[],
                input: &cc_input,
                max_steps: 100_000_000,
            },
            OptLevel::O3,
        ),
    ];
    for (source, call, level) in cases {
        let personality = Personality::Clang;
        let mut gates = nested_gates(personality, level);
        gates.push(gates[1].clone());
        let results = tuner
            .autofdo(source, &call, personality, level, &gates)
            .unwrap();
        assert_eq!(results.len(), gates.len());
        let module = dt_frontend::lower_source(source).unwrap();
        for (gate, r) in gates.iter().zip(&results) {
            let config = AutoFdoConfig {
                personality,
                profiling_level: level,
                profiling_gate: gate.clone(),
                final_level: level,
                max_steps: call.max_steps,
            };
            let oracle = run_autofdo(&module, call.entry, call.args, call.input, &config).unwrap();
            assert_eq!(
                fields(r),
                fields(&oracle),
                "`{}` at {level} profiling without {:?}",
                call.entry,
                gate.disabled_names()
            );
        }
    }
}

/// A repeated identical call adds only memo hits, and one `O0` run
/// per kernel serves every personality, level, and gate.
#[test]
fn repeated_calls_add_only_memo_hits() {
    let tuner = tuner();
    let kernels = spec::spec_suite().len() as u64;
    let gcc = nested_gates(Personality::Gcc, OptLevel::O2);
    let measure = |personality, level, gates: &[PassGate]| {
        tuner
            .speedups(personality, level, gates, Workload::Test)
            .unwrap()
    };
    let first = measure(Personality::Gcc, OptLevel::O2, &gcc);
    let after_first = tuner.stats();
    assert!(after_first.runs > kernels);
    assert!(after_first.runs <= kernels * (1 + gcc.len() as u64));
    assert_eq!(
        after_first.runs + after_first.run_hits,
        kernels * (1 + gcc.len() as u64),
        "one O0 run and one run per gate per kernel, each run or hit"
    );

    let again = measure(Personality::Gcc, OptLevel::O2, &gcc);
    let after_again = tuner.stats();
    assert_eq!(after_again.runs, after_first.runs, "nothing ran again");
    assert_eq!(
        after_again.run_hits - after_first.run_hits,
        kernels * (1 + gcc.len() as u64)
    );
    for (a, b) in first.iter().zip(&again) {
        assert_eq!(report_bits(a), report_bits(b));
    }

    // Another personality and level: every kernel's `O0` run is a hit.
    let clang = [PassGate::allow_all()];
    measure(Personality::Clang, OptLevel::O3, &clang);
    let after_clang = tuner.stats();
    assert!(after_clang.runs - after_again.runs <= kernels);
    assert!(after_clang.run_hits - after_again.run_hits >= kernels);

    // AutoFDO on a kernel's `O2` plain binary hits the speed runs of
    // the same binary and call.
    let b = &spec::spec_suite()[0];
    let args = [b.iterations(Workload::Test)];
    let call = RunCall {
        entry: b.entry,
        args: &args,
        input: &[],
        max_steps: MEASURE_MAX_STEPS,
    };
    measure(Personality::Clang, OptLevel::O2, &clang);
    let before = tuner.stats();
    let gates = [PassGate::allow_all()];
    let run = || {
        tuner
            .autofdo(b.source, &call, Personality::Clang, OptLevel::O2, &gates)
            .unwrap()
    };
    let first = run();
    let mid = tuner.stats();
    assert_eq!(mid.runs - before.runs, 1, "only the AutoFDO build ran");
    assert_eq!(mid.run_hits - before.run_hits, 2, "O0 and plain were hits");
    let again = run();
    let after = tuner.stats();
    assert_eq!(after.runs, mid.runs);
    assert_eq!(after.run_hits - mid.run_hits, 3);
    assert_eq!(fields(&first[0]), fields(&again[0]));
}
