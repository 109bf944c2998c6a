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
use debugtuner::{DebugTuner, ProgramInput};
use dt_campaign::{Campaign, Fnv};
use dt_passes::{OptLevel, Personality};
use dt_testsuite::spec::Workload;

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
    c.artifact("tuner", &[], tuner_key, |_| Ok::<_, String>(make_tuner()));
    c.artifact(
        "tradeoff_gcc",
        &["tuner", "suite_inputs"],
        workload_key,
        |ctx| {
            let tuner = ctx.value::<DebugTuner>("tuner");
            let suite = ctx.value::<SuiteInputs>("suite_inputs");
            tradeoff_data(&tuner, &suite.programs, Personality::Gcc)
        },
    );
    c.artifact(
        "tradeoff_clang",
        &["tuner", "suite_inputs"],
        workload_key,
        |ctx| {
            let tuner = ctx.value::<DebugTuner>("tuner");
            let suite = ctx.value::<SuiteInputs>("suite_inputs");
            tradeoff_data(&tuner, &suite.programs, Personality::Clang)
        },
    );
    c.artifact("pareto", &["tradeoff_gcc", "tradeoff_clang"], 0, |ctx| {
        let gcc = ctx.value::<TradeoffData>("tradeoff_gcc");
        let clang = ctx.value::<TradeoffData>("tradeoff_clang");
        Ok::<_, String>(pareto_tables(&gcc, &clang))
    });
    c.artifact(
        "autofdo_sweep",
        &["tuner", "suite_inputs"],
        workload_key,
        |ctx| {
            let tuner = ctx.value::<DebugTuner>("tuner");
            let suite = ctx.value::<SuiteInputs>("suite_inputs");
            autofdo_spec(&tuner, &suite.programs)
        },
    );

    let on_suite = |f: fn(&DebugTuner, &[ProgramInput]) -> String| {
        move |ctx: &dt_campaign::Ctx| {
            let tuner = ctx.value::<DebugTuner>("tuner");
            let suite = ctx.value::<SuiteInputs>("suite_inputs");
            Ok(f(&tuner, &suite.programs))
        }
    };

    // ---- Reference-build and corpus tables -------------------------
    c.output("table01_methods", &[], table01_key, |_| {
        Ok(table01_methods())
    });
    c.output(
        "table02_libpng",
        &["tuner", "suite_inputs"],
        0,
        on_suite(table02_libpng),
    );
    c.output("table03_testsuite", &["tuner", "suite_inputs"], 0, |ctx| {
        let tuner = ctx.value::<DebugTuner>("tuner");
        Ok(table03_testsuite(
            &tuner,
            &ctx.value::<SuiteInputs>("suite_inputs"),
        ))
    });

    // ---- Tuner-backed tables ---------------------------------------
    c.output(
        "table04_quality",
        &["tuner", "suite_inputs"],
        0,
        on_suite(table04_quality),
    );
    c.output("table05_gcc_passes", &["tuner", "suite_inputs"], 0, |ctx| {
        let tuner = ctx.value::<DebugTuner>("tuner");
        let suite = ctx.value::<SuiteInputs>("suite_inputs");
        Ok(table_top_passes(&tuner, &suite.programs, Personality::Gcc))
    });
    c.output(
        "table06_clang_passes",
        &["tuner", "suite_inputs"],
        0,
        |ctx| {
            let tuner = ctx.value::<DebugTuner>("tuner");
            let suite = ctx.value::<SuiteInputs>("suite_inputs");
            Ok(table_top_passes(
                &tuner,
                &suite.programs,
                Personality::Clang,
            ))
        },
    );
    c.output(
        "table07_breakdown",
        &["tuner", "suite_inputs"],
        0,
        on_suite(table07_breakdown),
    );

    // ---- Trade-off tables ------------------------------------------
    c.output(
        "table08_tradeoff",
        &["tradeoff_gcc", "tradeoff_clang"],
        0,
        |ctx| {
            let gcc = ctx.value::<TradeoffData>("tradeoff_gcc");
            let clang = ctx.value::<TradeoffData>("tradeoff_clang");
            Ok(table08_tradeoff(&gcc, &clang))
        },
    );
    c.output("table09_gcc_dy", &["tradeoff_gcc"], 0, |ctx| {
        Ok(table_per_program_dy(
            &ctx.value::<TradeoffData>("tradeoff_gcc"),
        ))
    });
    c.output("table10_clang_dy", &["tradeoff_clang"], 0, |ctx| {
        Ok(table_per_program_dy(
            &ctx.value::<TradeoffData>("tradeoff_clang"),
        ))
    });
    c.output(
        "table11_spec_speedup",
        &["tradeoff_gcc", "tradeoff_clang"],
        workload_key,
        |ctx| {
            let gcc = ctx.value::<TradeoffData>("tradeoff_gcc");
            let clang = ctx.value::<TradeoffData>("tradeoff_clang");
            Ok(table_spec_speedups(&gcc, &clang, false))
        },
    );
    c.output(
        "table12_spec_delta",
        &["tradeoff_gcc", "tradeoff_clang"],
        workload_key,
        |ctx| {
            let gcc = ctx.value::<TradeoffData>("tradeoff_gcc");
            let clang = ctx.value::<TradeoffData>("tradeoff_clang");
            Ok(table_spec_speedups(&gcc, &clang, true))
        },
    );

    // ---- Pareto triple ---------------------------------------------
    type ParetoTriple = (String, String, String);
    c.output("table13_pareto_dbg", &["pareto"], 0, |ctx| {
        Ok(ctx.value::<ParetoTriple>("pareto").0.clone())
    });
    c.output("table14_pareto_perf", &["pareto"], 0, |ctx| {
        Ok(ctx.value::<ParetoTriple>("pareto").1.clone())
    });
    c.output("fig02_pareto", &["pareto"], 0, |ctx| {
        Ok(ctx.value::<ParetoTriple>("pareto").2.clone())
    });

    // ---- AutoFDO ---------------------------------------------------
    c.output("table15_autofdo", &["autofdo_sweep"], 0, |ctx| {
        Ok(ctx.value::<(String, String)>("autofdo_sweep").0.clone())
    });
    c.output("fig03_autofdo_spec", &["autofdo_sweep"], 0, |ctx| {
        Ok(ctx.value::<(String, String)>("autofdo_sweep").1.clone())
    });
    c.output(
        "fig04_selfcompile",
        &["tuner", "suite_inputs"],
        workload_key,
        |ctx| {
            let tuner = ctx.value::<DebugTuner>("tuner");
            let suite = ctx.value::<SuiteInputs>("suite_inputs");
            fig04_selfcompile(&tuner, &suite.programs)
        },
    );

    // ---- Correctness -----------------------------------------------
    c.output(
        "table16_correctness",
        &["tuner", "suite_inputs"],
        0,
        on_suite(table16_correctness),
    );

    c
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
        // Every persisted job id matches one historical results file.
        let outputs: Vec<&str> = c
            .ids()
            .iter()
            .copied()
            .filter(|id| c.is_output(id) == Some(true))
            .collect();
        assert_eq!(outputs.len(), 19, "16 tables + 3 figures");
        for id in [
            "table01_methods",
            "table08_tradeoff",
            "table16_correctness",
            "fig02_pareto",
            "fig04_selfcompile",
        ] {
            assert!(outputs.contains(&id), "missing output job {id}");
        }
        // Shared artifacts are first-class ephemeral jobs.
        for id in [
            "suite_inputs",
            "tuner",
            "tradeoff_gcc",
            "tradeoff_clang",
            "pareto",
            "autofdo_sweep",
        ] {
            assert_eq!(c.is_output(id), Some(false), "artifact job {id}");
        }
        // Spot-check the dependency shape.
        assert_eq!(
            c.deps("table08_tradeoff").unwrap(),
            ["tradeoff_gcc".to_string(), "tradeoff_clang".to_string()]
        );
        for id in ["table02_libpng", "table03_testsuite", "table16_correctness"] {
            assert_eq!(
                c.deps(id).unwrap(),
                ["tuner".to_string(), "suite_inputs".to_string()],
                "{id}"
            );
        }
    }
}
