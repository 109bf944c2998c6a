//! The experiment suite as a declared job DAG.
//!
//! [`build_campaign`] turns every `tableNN_*`/`figNN_*` driver into a
//! [`dt_campaign`] job with explicit dependencies, and promotes the
//! heavy shared intermediates — the fuzz-derived suite inputs, the
//! [`DebugTuner`] instance, the per-personality trade-off matrices,
//! the Pareto triple, and the AutoFDO sweep — to first-class artifact
//! jobs instead of local variables of one `main`. The engine then
//! gives the whole suite parallel execution, persistent caching (a
//! rerun hits every output already persisted), and partial-failure
//! isolation for free.
//!
//! Each output job's cache fingerprint folds in exactly the inputs it
//! depends on:
//!
//! * the scale knobs it reads (`DT_SYNTH_N`, `DT_FUZZ_ITERS`,
//!   `DT_WORKLOAD`) and the step budgets its tuners trace with;
//! * the program-set hash ([`program_set_fingerprint`]: real-world
//!   suite, benchmark suite, and self-compile sources);
//! * the pass-library fingerprint ([`library_fingerprint`], applied as
//!   the campaign salt): the pass roster and order of every level, so
//!   adding, removing or reordering a pass invalidates the cache. It
//!   does not cover pass *bodies*: after editing a pass, run with
//!   `--fresh`;
//! * its dependencies' fingerprints (folded in by the engine).

use crate::{
    autofdo_spec, fig04_selfcompile, fuzz_iters, make_tuner, pareto_tables, suite_inputs, synth_n,
    table01_methods, table02_libpng, table03_testsuite, table04_quality, table07_breakdown,
    table08_tradeoff, table16_correctness, table_per_program_dy, table_spec_speedups,
    table_top_passes, tradeoff_data, workload, SuiteInputs, TradeoffData,
};
use debugtuner::DebugTuner;
use dt_campaign::{Campaign, Ctx, Fnv};
use dt_passes::{OptLevel, Personality};
use dt_testsuite::spec::Workload;
use std::sync::Arc;

/// Bumped whenever the campaign's fingerprint semantics change, so
/// stale cache objects from an older scheme can never be served.
const CAMPAIGN_SCHEMA_VERSION: u64 = 1;

/// Fingerprint of the optimization-pass library: every personality and
/// level's middle-end and backend pass sequence. A pass added,
/// removed, or reordered changes the key and invalidates every cached
/// experiment.
pub fn library_fingerprint() -> u64 {
    let mut h = Fnv::new();
    h.write_u64(CAMPAIGN_SCHEMA_VERSION);
    for personality in [Personality::Gcc, Personality::Clang] {
        h.write_str(personality.name());
        for &level in OptLevel::levels_for(personality) {
            h.write_str(level.name());
            for name in dt_passes::pipeline_pass_names(personality, level) {
                h.write_str(name);
            }
            for name in dt_passes::backend_pass_names(personality, level) {
                h.write_str(name);
            }
        }
    }
    h.finish()
}

/// Fingerprint of the program population every experiment draws from:
/// the real-world suite (sources, harnesses, fuzz seeds), the
/// benchmark suite, and the self-compilation program.
pub fn program_set_fingerprint() -> u64 {
    let mut h = Fnv::new();
    for p in dt_testsuite::real_world_suite() {
        h.write_str(p.name).write_str(p.source);
        for harness in p.harnesses {
            h.write_str(harness);
        }
        for seed in p.seeds {
            h.write_bytes(seed).write_bytes(&[0xfe]);
        }
    }
    for b in dt_testsuite::spec::spec_suite() {
        h.write_str(b.name).write_str(b.source).write_str(b.entry);
    }
    let cc = dt_testsuite::self_compile_program();
    h.write_str(cc.name).write_str(cc.source);
    h.finish()
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::Ref => "ref",
        Workload::Test => "test",
    }
}

/// The full experiment DAG over the current knob settings
/// (`DT_SYNTH_N`, `DT_FUZZ_ITERS`, `DT_WORKLOAD` are read once, here).
pub fn build_campaign() -> Campaign {
    // Knob contributions to job fingerprints.
    let table01_key = Fnv::new()
        .write_str("synth")
        .write_usize(synth_n())
        .write_str("table01-steps")
        .write_u64(crate::TABLE01_MAX_STEPS)
        .finish();
    let corpus_key = Fnv::new()
        .write_str("corpus")
        .write_u64(fuzz_iters() as u64)
        .write_u64(program_set_fingerprint())
        .finish();
    let workload_key = Fnv::new()
        .write_str("workload")
        .write_str(workload_name(workload()))
        .finish();
    let tuner_key = Fnv::new()
        .write_str("tuner-steps")
        .write_u64(crate::TUNER_MAX_STEPS)
        .finish();

    let mut c = Campaign::new();

    // ---- Shared artifacts ------------------------------------------
    c.artifact("suite_inputs", &[], corpus_key, |_| {
        Ok::<_, String>(suite_inputs())
    });
    c.artifact("tuner", &[], tuner_key, |_| {
        // Every level a trade-off job tunes is held from here, before
        // any job evaluates, until that job has built the level's
        // `Ox-dy` variants: the jobs that reach the level first and
        // the trade-off job then share one session per program.
        let tuner = make_tuner();
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                tuner.hold_sessions(personality, level);
            }
        }
        Ok::<_, String>(tuner)
    });
    for (id, personality) in [
        ("tradeoff_gcc", Personality::Gcc),
        ("tradeoff_clang", Personality::Clang),
    ] {
        c.artifact(id, SUITE, workload_key, move |ctx| {
            let (tuner, suite) = tuner_and_suite(ctx);
            tradeoff_data(&tuner, &suite.programs, personality)
        });
    }
    // Multi-output artifacts hold one text per output job.
    c.artifact("pareto", TRADEOFFS, 0, |ctx| {
        let (gcc, clang) = tradeoffs(ctx);
        let (t13, t14, fig02) = pareto_tables(&gcc, &clang);
        Ok::<_, String>(vec![t13, t14, fig02])
    });
    c.artifact("autofdo_sweep", SUITE, workload_key, |ctx| {
        let (tuner, suite) = tuner_and_suite(ctx);
        let (t15, fig03) = autofdo_spec(&tuner, &suite.programs)?;
        Ok(vec![t15, fig03])
    });

    // ---- Reference-build, corpus and tuner-backed tables -----------
    c.output("table01_methods", &[], table01_key, |_| {
        Ok(table01_methods())
    });
    let suite_tables: [(&str, SuiteTable); 6] = [
        ("table02_libpng", |t, s| table02_libpng(t, &s.programs)),
        ("table03_testsuite", table03_testsuite),
        ("table04_quality", |t, s| table04_quality(t, &s.programs)),
        ("table05_gcc_passes", |t, s| {
            table_top_passes(t, &s.programs, Personality::Gcc)
        }),
        ("table06_clang_passes", |t, s| {
            table_top_passes(t, &s.programs, Personality::Clang)
        }),
        ("table07_breakdown", |t, s| {
            table07_breakdown(t, &s.programs)
        }),
    ];
    for (id, table) in suite_tables {
        c.output(id, SUITE, 0, on_suite(table));
    }

    // ---- Trade-off tables ------------------------------------------
    c.output("table08_tradeoff", TRADEOFFS, 0, |ctx| {
        let (gcc, clang) = tradeoffs(ctx);
        Ok(table08_tradeoff(&gcc, &clang))
    });
    for (id, dep) in [
        ("table09_gcc_dy", "tradeoff_gcc"),
        ("table10_clang_dy", "tradeoff_clang"),
    ] {
        c.output(id, &[dep], 0, move |ctx| {
            Ok(table_per_program_dy(&ctx.value::<TradeoffData>(dep)))
        });
    }
    for (id, relative) in [
        ("table11_spec_speedup", false),
        ("table12_spec_delta", true),
    ] {
        c.output(id, TRADEOFFS, workload_key, move |ctx| {
            let (gcc, clang) = tradeoffs(ctx);
            Ok(table_spec_speedups(&gcc, &clang, relative))
        });
    }

    // ---- Pareto triple and AutoFDO ---------------------------------
    for (id, dep, part) in [
        ("table13_pareto_dbg", "pareto", 0),
        ("table14_pareto_perf", "pareto", 1),
        ("fig02_pareto", "pareto", 2),
        ("table15_autofdo", "autofdo_sweep", 0),
        ("fig03_autofdo_spec", "autofdo_sweep", 1),
    ] {
        c.output(id, &[dep], 0, move |ctx| {
            Ok(ctx.value::<Vec<String>>(dep)[part].clone())
        });
    }
    c.output("fig04_selfcompile", SUITE, workload_key, |ctx| {
        let (tuner, suite) = tuner_and_suite(ctx);
        fig04_selfcompile(&tuner, &suite.programs)
    });

    // ---- Correctness -----------------------------------------------
    c.output(
        "table16_correctness",
        SUITE,
        0,
        on_suite(|t, s| table16_correctness(t, &s.programs)),
    );

    c
}

/// Dependencies of a job that reads the tuner and the suite inputs.
const SUITE: &[&str] = &["tuner", "suite_inputs"];
/// Dependencies of a job that reads both trade-off matrices.
const TRADEOFFS: &[&str] = &["tradeoff_gcc", "tradeoff_clang"];

/// A table drawn from the tuner and the suite inputs alone.
type SuiteTable = fn(&DebugTuner, &SuiteInputs) -> String;

fn tuner_and_suite(ctx: &Ctx) -> (Arc<DebugTuner>, Arc<SuiteInputs>) {
    (ctx.value("tuner"), ctx.value("suite_inputs"))
}

fn tradeoffs(ctx: &Ctx) -> (Arc<TradeoffData>, Arc<TradeoffData>) {
    (ctx.value("tradeoff_gcc"), ctx.value("tradeoff_clang"))
}

/// The body of an output job that formats `table`.
fn on_suite(table: SuiteTable) -> impl Fn(&Ctx) -> Result<String, String> + Send + Sync {
    move |ctx| {
        let (tuner, suite) = tuner_and_suite(ctx);
        Ok(table(&tuner, &suite))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_within_a_process() {
        assert_eq!(library_fingerprint(), library_fingerprint());
        assert_eq!(program_set_fingerprint(), program_set_fingerprint());
        assert_ne!(library_fingerprint(), program_set_fingerprint());
    }

    #[test]
    fn campaign_declares_every_results_artifact() {
        let c = build_campaign();
        // The whole DAG in declaration order: id, whether it is a
        // persisted output (one historical results file each) or a
        // shared in-memory artifact, and its dependencies.
        const SUITE: &[&str] = &["tuner", "suite_inputs"];
        const TRADEOFFS: &[&str] = &["tradeoff_gcc", "tradeoff_clang"];
        let expected: [(&str, bool, &[&str]); 25] = [
            ("suite_inputs", false, &[]),
            ("tuner", false, &[]),
            ("tradeoff_gcc", false, SUITE),
            ("tradeoff_clang", false, SUITE),
            ("pareto", false, TRADEOFFS),
            ("autofdo_sweep", false, SUITE),
            ("table01_methods", true, &[]),
            ("table02_libpng", true, SUITE),
            ("table03_testsuite", true, SUITE),
            ("table04_quality", true, SUITE),
            ("table05_gcc_passes", true, SUITE),
            ("table06_clang_passes", true, SUITE),
            ("table07_breakdown", true, SUITE),
            ("table08_tradeoff", true, TRADEOFFS),
            ("table09_gcc_dy", true, &["tradeoff_gcc"]),
            ("table10_clang_dy", true, &["tradeoff_clang"]),
            ("table11_spec_speedup", true, TRADEOFFS),
            ("table12_spec_delta", true, TRADEOFFS),
            ("table13_pareto_dbg", true, &["pareto"]),
            ("table14_pareto_perf", true, &["pareto"]),
            ("fig02_pareto", true, &["pareto"]),
            ("table15_autofdo", true, &["autofdo_sweep"]),
            ("fig03_autofdo_spec", true, &["autofdo_sweep"]),
            ("fig04_selfcompile", true, SUITE),
            ("table16_correctness", true, SUITE),
        ];
        let ids = c.ids();
        assert_eq!(
            ids,
            expected.iter().map(|&(id, _, _)| id).collect::<Vec<_>>()
        );
        for (id, output, deps) in expected {
            assert_eq!(c.is_output(id), Some(output), "{id} kind");
            assert_eq!(c.deps(id).unwrap(), deps, "{id} dependencies");
        }
        let outputs = expected.iter().filter(|&&(_, output, _)| output).count();
        assert_eq!(outputs, 19, "16 tables + 3 figures");
    }
}
