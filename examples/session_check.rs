//! Staged-session equivalence check: every variant a checkpointed
//! [`CompileSession`] builds — resumed from a mid-pipeline snapshot,
//! built from the reused optimized module, or handed back as the
//! reference object by the session's early cutoff — must be
//! bit-identical to compiling the same gated configuration from
//! scratch ([`dt_machine::Object::content_hash`]). It covers the whole
//! suite plus three synthetic programs, both personalities, every
//! level, every single-pass gate, a few multi-pass gates, and the
//! nested `Ox-dy`-shaped gates `dy_family` ships: the first y ∈ {1, 3,
//! 5, 7, 9, 11} names of a shuffle fixed per level. The summary line
//! counts the gates served by each session path, so a log shows the
//! cutoff's coverage.
//!
//! Usage: `cargo run --release --example session_check`

use dt_passes::{
    compile_source, pipeline_pass_names, CompileOptions, CompileSession, OptLevel, PassGate,
    Personality,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The `y` of the nested `Ox-dy` gates.
const DY_SIZES: [usize; 6] = [1, 3, 5, 7, 9, 11];

/// The nested `Ox-dy`-shaped gates of one level: the first `y` names
/// of a shuffle fixed per personality/level, for each `y` in
/// [`DY_SIZES`] the level has names for.
fn dy_gates(personality: Personality, level: OptLevel) -> Vec<(String, PassGate)> {
    let mut names = pipeline_pass_names(personality, level);
    let seed = level as u64 * 2 + u64::from(personality == Personality::Clang);
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..names.len()).rev() {
        names.swap(i, rng.gen_range(0..=i));
    }
    DY_SIZES
        .iter()
        .filter(|&&y| y <= names.len())
        .map(|&y| {
            (
                format!("<d{y}>"),
                PassGate::disabling(names[..y].iter().copied()),
            )
        })
        .collect()
}

fn main() {
    let mut srcs: Vec<(String, String)> = dt_testsuite::real_world_suite()
        .iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    let shape = dt_testsuite::synth::SynthConfig {
        functions: 6,
        vars_per_function: 14,
        stmts_per_function: 24,
        max_expr_depth: 6,
    };
    for seed in [7u64, 77, 204] {
        srcs.push((
            format!("synth{seed}"),
            dt_testsuite::synth::generate(seed, &shape),
        ));
    }

    let mut failures = 0usize;
    let mut variants = 0usize;
    let mut skipped = 0u64;
    // Gates served by each session path.
    let (mut reference, mut backend_only, mut resumed) = (0usize, 0usize, 0usize);
    for (name, src) in &srcs {
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let session = CompileSession::from_source(src, personality, level, None).unwrap();

                let names = pipeline_pass_names(personality, level);
                let mut gates: Vec<(String, PassGate)> =
                    vec![("<all>".into(), PassGate::allow_all())];
                for &pass in &names {
                    gates.push((pass.to_string(), PassGate::disabling([pass])));
                }
                // A few multi-pass gates (first+last, and a prefix).
                if names.len() >= 2 {
                    gates.push((
                        "<first+last>".into(),
                        PassGate::disabling([names[0], names[names.len() - 1]]),
                    ));
                    let k = names.len().min(4);
                    gates.push((
                        format!("<first {k}>"),
                        PassGate::disabling(names[..k].iter().copied()),
                    ));
                }
                gates.extend(dy_gates(personality, level));
                for (gname, gate) in gates {
                    let mut opts = CompileOptions::new(personality, level);
                    opts.gate = gate.clone();
                    let scratch = compile_source(src, &opts).unwrap().content_hash();
                    variants += 1;
                    let built = session.build_variant(&gate);
                    match (built.reused_reference, built.reused_optimized) {
                        (true, _) => reference += 1,
                        (false, true) => backend_only += 1,
                        (false, false) => resumed += 1,
                    }
                    if built.object.content_hash() != scratch {
                        failures += 1;
                        println!(
                            "{name} {personality:?} {level:?} gate {gname}: \
                             session DIVERGES from scratch build"
                        );
                    }
                }
                skipped += session.stats().prefix_passes_skipped;
            }
        }
        eprintln!("{name}: checked");
    }
    println!(
        "session check complete: {variants} gate(s) \
         ({reference} reference reuse, {backend_only} backend only, {resumed} resumed), \
         {skipped} prefix pass(es) skipped, {failures} divergent builds"
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
