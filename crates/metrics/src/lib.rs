//! Debug-information quality metrics (Section II of the paper).
//!
//! Four measurement methods over the same three metrics (availability
//! of variables, line coverage, and their product):
//!
//! * [`dynamic`] — Assaiante et al.: compare the optimized binary's
//!   debug trace against the unoptimized baseline trace. Prone to
//!   *underestimation*: the O0 baseline inherits DWARF's whole-range
//!   variable locations, inflating the denominator.
//! * [`static_method`] — Stinnett & Kell: no execution; compare the
//!   binary's location lists against source-level definition ranges.
//!   Prone to *overestimation*: counts debug info for code that never
//!   materializes in a debugging session.
//! * [`static_dbg`] — the paper's refined static variant: restricts
//!   the static baseline to lines actually stepped in the unoptimized
//!   binary.
//! * [`hybrid`] — the paper's contribution: dynamic traces with the
//!   baseline *refined by static source analysis*, removing variables
//!   the debugger shows outside their source definition range.
//!
//! All scores are in `[0, 1]`; aggregation across programs uses the
//! geometric mean ([`stats`]).
//!
//! The dynamic and hybrid methods compare every variant of a program
//! against the same baseline. [`MetricBaseline`] holds what the
//! baseline and the source analysis decide (each base line's unrefined
//! and refined denominators), built once per baseline; [`dynamic`],
//! [`hybrid`] and [`all_methods`] build one and score a single trace
//! with it.

pub mod stats;

use dt_debugger::DebugTrace;
use dt_dwarf::{DebugInfo, LineTable, LocList};
use dt_minic::analysis::SourceAnalysis;
use serde::Serialize;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// The three core metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Metrics {
    /// Average per-line ratio of variables visible with a value,
    /// optimized vs. baseline.
    pub availability: f64,
    /// Fraction of baseline-stepped lines still steppable.
    pub line_coverage: f64,
    /// `availability * line_coverage` — the paper's main quality score.
    pub product: f64,
}

impl Metrics {
    fn new(availability: f64, line_coverage: f64) -> Self {
        Metrics {
            availability,
            line_coverage,
            product: availability * line_coverage,
        }
    }

    /// The perfect score (O0 against itself).
    pub fn perfect() -> Self {
        Metrics::new(1.0, 1.0)
    }
}

/// The dynamic method of Assaiante et al. (baseline = O0 trace as-is).
pub fn dynamic(opt: &DebugTrace, base: &DebugTrace) -> Metrics {
    MetricBaseline::new(base, &SourceAnalysis::default())
        .score(opt)
        .dynamic
}

/// The paper's hybrid method: the baseline's per-line variable sets
/// are intersected with the static definition ranges, removing the
/// DWARF-at-O0 artifacts before comparing.
pub fn hybrid(opt: &DebugTrace, base: &DebugTrace, analysis: &SourceAnalysis) -> Metrics {
    MetricBaseline::new(base, analysis).score(opt).hybrid
}

/// The dynamic and hybrid scores of one trace against one baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceScores {
    pub dynamic: Metrics,
    pub hybrid: Metrics,
}

/// One stepped line of the baseline: its variables and which of them
/// the source analysis keeps in the hybrid denominator.
#[derive(Debug, Clone)]
struct BaseLine {
    line: u32,
    /// The baseline's visible variables, in name order, each with
    /// whether it is defined and in scope at the line. Names are
    /// shared across lines.
    vars: Vec<(Arc<str>, bool)>,
    /// Variables of `vars` in the refined (hybrid) denominator.
    refined: usize,
}

/// The per-program half of [`dynamic`] and [`hybrid`]: the baseline's
/// stepped lines with their unrefined and refined denominators, built
/// once from the `O0` trace and the source analysis. Every variant of
/// the program is scored against it in one pass over the base lines,
/// bit-identical to scoring it against the trace.
#[derive(Debug, Clone)]
pub struct MetricBaseline {
    /// In ascending line order.
    lines: Vec<BaseLine>,
}

impl MetricBaseline {
    /// Prepares `base`, the `O0` trace, with `analysis`, the source's
    /// scope analysis (which only the hybrid half reads).
    pub fn new(base: &DebugTrace, analysis: &SourceAnalysis) -> Self {
        let mut names: HashSet<Arc<str>> = HashSet::new();
        let lines = base
            .lines
            .iter()
            .map(|(&line, obs)| {
                let in_range: Vec<&str> = analysis.defined_at(&obs.func, line).collect();
                let vars: Vec<(Arc<str>, bool)> = obs
                    .vars
                    .iter()
                    .map(|v| (intern(&mut names, v), in_range.contains(&v.as_str())))
                    .collect();
                let refined = vars.iter().filter(|(_, kept)| *kept).count();
                BaseLine {
                    line,
                    vars,
                    refined,
                }
            })
            .collect();
        MetricBaseline { lines }
    }

    /// Scores `opt` under both the dynamic and the hybrid method.
    pub fn score(&self, opt: &DebugTrace) -> TraceScores {
        if self.lines.is_empty() {
            return TraceScores {
                dynamic: Metrics::perfect(),
                hybrid: Metrics::perfect(),
            };
        }
        // Per-line ratios, summed in ascending line order.
        let (mut common, mut dynamic_sum, mut hybrid_sum) = (0usize, 0.0f64, 0.0f64);
        for base in &self.lines {
            let Some(obs) = opt.lines.get(&base.line) else {
                continue;
            };
            common += 1;
            let (mut all, mut refined) = (0usize, 0usize);
            for (var, kept) in &base.vars {
                if obs.vars.contains(&**var) {
                    all += 1;
                    refined += usize::from(*kept);
                }
            }
            dynamic_sum += ratio(all, base.vars.len());
            hybrid_sum += ratio(refined, base.refined);
        }
        let line_coverage = common as f64 / self.lines.len() as f64;
        let availability = |sum: f64| {
            if common == 0 {
                // Nothing steppable in common: no state can be inspected.
                0.0
            } else {
                sum / common as f64
            }
        };
        TraceScores {
            dynamic: Metrics::new(availability(dynamic_sum), line_coverage),
            hybrid: Metrics::new(availability(hybrid_sum), line_coverage),
        }
    }

    /// All four methods for `opt`, whose binary's debug info is
    /// `opt_debug` (Table I).
    pub fn methods(
        &self,
        opt_debug: &DebugInfo,
        opt: &DebugTrace,
        analysis: &SourceAnalysis,
    ) -> MethodComparison {
        let stepped: BTreeSet<u32> = self.lines.iter().map(|l| l.line).collect();
        let scores = self.score(opt);
        MethodComparison {
            static_m: static_method(opt_debug, analysis),
            static_dbg: static_dbg(opt_debug, analysis, &stepped),
            dynamic: scores.dynamic,
            hybrid: scores.hybrid,
        }
    }
}

/// `name`'s shared copy in `names`, added on first use.
fn intern(names: &mut HashSet<Arc<str>>, name: &str) -> Arc<str> {
    if let Some(shared) = names.get(name) {
        return Arc::clone(shared);
    }
    let shared: Arc<str> = Arc::from(name);
    names.insert(Arc::clone(&shared));
    shared
}

/// A line's availability: the share of its denominator still visible,
/// or 1 when the denominator is empty.
fn ratio(num: usize, denom: usize) -> f64 {
    if denom == 0 {
        1.0
    } else {
        num as f64 / denom as f64
    }
}

/// The purely static method of Stinnett & Kell: compares binary debug
/// info against source definition ranges without running anything.
pub fn static_method(debug: &DebugInfo, analysis: &SourceAnalysis) -> Metrics {
    static_inner(debug, analysis, None)
}

/// The `static-dbg` variant: the static method with its baseline
/// restricted to `base_lines`, the lines stepped in the unoptimized
/// binary, so that all four methods judge the same, debuggable code.
pub fn static_dbg(
    debug: &DebugInfo,
    analysis: &SourceAnalysis,
    base_lines: &BTreeSet<u32>,
) -> Metrics {
    static_inner(debug, analysis, Some(base_lines))
}

fn static_inner(
    debug: &DebugInfo,
    analysis: &SourceAnalysis,
    restrict: Option<&BTreeSet<u32>>,
) -> Metrics {
    // Line coverage: steppable lines over lines-with-code (or over the
    // restricted baseline set).
    let steppable = debug.steppable_lines();
    let (covered, universe) = match restrict {
        Some(base_lines) => (steppable.intersection(base_lines).count(), base_lines.len()),
        None => {
            let mut code_lines: BTreeSet<u32> = BTreeSet::new();
            for f in analysis.functions() {
                code_lines.extend(&f.code_lines);
                code_lines.insert(f.line);
            }
            (
                steppable.intersection(&code_lines).count(),
                code_lines.len(),
            )
        }
    };
    let line_coverage = if universe == 0 {
        1.0
    } else {
        covered as f64 / universe as f64
    };

    // Availability: per variable, lines its locations cover vs. its
    // source definition range.
    let mut ratios = Vec::new();
    for (sp_idx, sp) in debug.subprograms.iter().enumerate() {
        let Some(fa) = analysis.function(&sp.name) else {
            continue;
        };
        for var in debug.vars_of(sp_idx) {
            let Some(def) = fa.var(&var.name) else {
                continue;
            };
            let mut source_range: BTreeSet<u32> = fa
                .code_lines
                .iter()
                .copied()
                .filter(|&l| def.covers(l))
                .collect();
            if let Some(base_lines) = restrict {
                source_range.retain(|l| base_lines.contains(l));
            }
            if source_range.is_empty() {
                continue;
            }
            let bin_lines = lines_covered(&var.loclist, &debug.line_table);
            let hit = source_range.intersection(&bin_lines).count();
            ratios.push(hit as f64 / source_range.len() as f64);
        }
    }
    let availability = if ratios.is_empty() {
        1.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    };
    Metrics::new(availability, line_coverage)
}

/// The set of source lines whose code overlaps the location list.
pub fn lines_covered(loclist: &LocList, table: &LineTable) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    let rows = table.rows();
    for range in loclist.ranges() {
        // The row in effect at range.lo.
        let idx = rows.partition_point(|r| r.addr <= range.lo);
        if idx > 0 {
            let r = rows[idx - 1];
            if r.line != 0 {
                out.insert(r.line);
            }
        }
        // All rows starting inside the range.
        for r in &rows[idx..] {
            if r.addr >= range.hi {
                break;
            }
            if r.line != 0 {
                out.insert(r.line);
            }
        }
    }
    out
}

/// All four methods computed at once, for the Table I comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MethodComparison {
    pub static_m: Metrics,
    pub static_dbg: Metrics,
    pub dynamic: Metrics,
    pub hybrid: Metrics,
}

/// Computes every method for one (optimized binary, baseline) pair.
pub fn all_methods(
    opt_debug: &DebugInfo,
    opt_trace: &DebugTrace,
    base_trace: &DebugTrace,
    analysis: &SourceAnalysis,
) -> MethodComparison {
    MetricBaseline::new(base_trace, analysis).methods(opt_debug, opt_trace, analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_debugger::LineObservation;
    use dt_passes::{pipeline_pass_names, CompileSession, OptLevel, PassGate, Personality};
    use std::collections::BTreeMap;

    fn obs(func: &str, vars: &[&str]) -> LineObservation {
        LineObservation {
            func: func.into(),
            vars: vars.iter().map(|s| s.to_string()).collect(),
            values: BTreeMap::new(),
        }
    }

    fn trace(lines: Vec<(u32, LineObservation)>) -> DebugTrace {
        let map: BTreeMap<u32, LineObservation> = lines.into_iter().collect();
        DebugTrace {
            hits: map.len() as u64,
            inputs_run: 1,
            hit_order: map.keys().copied().collect(),
            lines: map,
        }
    }

    #[test]
    fn identical_traces_score_perfect() {
        let base = trace(vec![(2, obs("f", &["x"])), (3, obs("f", &["x", "y"]))]);
        let m = dynamic(&base.clone(), &base);
        assert_eq!(m.availability, 1.0);
        assert_eq!(m.line_coverage, 1.0);
        assert_eq!(m.product, 1.0);
    }

    #[test]
    fn lost_lines_reduce_coverage() {
        let base = trace(vec![
            (2, obs("f", &["x"])),
            (3, obs("f", &["x"])),
            (4, obs("f", &["x"])),
            (5, obs("f", &["x"])),
        ]);
        let opt = trace(vec![(2, obs("f", &["x"])), (4, obs("f", &["x"]))]);
        let m = dynamic(&opt, &base);
        assert_eq!(m.line_coverage, 0.5);
        assert_eq!(m.availability, 1.0);
        assert_eq!(m.product, 0.5);
    }

    #[test]
    fn lost_variables_reduce_availability() {
        let base = trace(vec![(2, obs("f", &["x", "y"])), (3, obs("f", &["x", "y"]))]);
        let opt = trace(vec![(2, obs("f", &["x"])), (3, obs("f", &["x", "y"]))]);
        let m = dynamic(&opt, &base);
        assert_eq!(m.line_coverage, 1.0);
        assert!((m.availability - 0.75).abs() < 1e-9);
    }

    #[test]
    fn extra_optimized_vars_do_not_exceed_one() {
        let base = trace(vec![(2, obs("f", &["x"]))]);
        let opt = trace(vec![(2, obs("f", &["x", "phantom"]))]);
        let m = dynamic(&opt, &base);
        assert_eq!(m.availability, 1.0);
    }

    #[test]
    fn hybrid_refines_baseline_with_source_ranges() {
        // Source: y is declared in a block ending at line 5; the O0
        // trace shows it on line 7 too (the DWARF artifact).
        let src = "\
int f() {
    int x = 1;
    {
        int y = 2;
        x = y;
    }
    out(x);
    return x;
}";
        let program = dt_minic::parse(src).unwrap();
        let analysis = SourceAnalysis::of(&program);
        let base = trace(vec![
            (2, obs("f", &["x"])),
            (4, obs("f", &["x", "y"])),
            (5, obs("f", &["x", "y"])),
            (7, obs("f", &["x", "y"])), // y is an O0 artifact here
            (8, obs("f", &["x", "y"])),
        ]);
        // The optimized build loses y everywhere.
        let opt = trace(vec![
            (2, obs("f", &["x"])),
            (4, obs("f", &["x"])),
            (5, obs("f", &["x"])),
            (7, obs("f", &["x"])),
            (8, obs("f", &["x"])),
        ]);
        let dyn_m = dynamic(&opt, &base);
        let hyb_m = hybrid(&opt, &base, &analysis);
        assert!(
            hyb_m.availability > dyn_m.availability,
            "hybrid must not punish losses outside the source range \
             (hybrid {} vs dynamic {})",
            hyb_m.availability,
            dyn_m.availability
        );
        // Lines 7/8: y is out of scope, so losing it costs nothing in
        // the hybrid view; lines 4/5 still count the real loss.
        let expected = (1.0 + 0.5 + 0.5 + 1.0 + 1.0) / 5.0;
        assert!((hyb_m.availability - expected).abs() < 1e-9);
    }

    #[test]
    fn empty_baseline_is_perfect() {
        let base = trace(vec![]);
        let opt = trace(vec![]);
        assert_eq!(dynamic(&opt, &base).product, 1.0);
    }

    #[test]
    fn disjoint_traces_score_zero() {
        let base = trace(vec![(2, obs("f", &["x"]))]);
        let opt = trace(vec![(9, obs("f", &["x"]))]);
        let m = dynamic(&opt, &base);
        assert_eq!(m.line_coverage, 0.0);
        assert_eq!(m.product, 0.0);
    }

    #[test]
    fn lines_covered_maps_ranges_through_table() {
        use dt_dwarf::{LineRow, LocRange, Location};
        let mut table = LineTable::new();
        for (addr, line) in [(0u32, 2u32), (10, 3), (20, 4), (30, 5)] {
            table.push(LineRow {
                addr,
                line,
                is_stmt: true,
            });
        }
        let mut list = LocList::new();
        list.push(LocRange {
            lo: 5,
            hi: 25,
            loc: Location::Reg(1),
        });
        let lines = lines_covered(&list, &table);
        // Covers tail of line 2 (addr 5-9), line 3, and head of line 4.
        assert_eq!(lines.into_iter().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    /// End-to-end: O0 object measured against itself must be perfect
    /// under every method's dynamic parts, and static availability
    /// should be high.
    #[test]
    fn o0_self_comparison_end_to_end() {
        let src = "\
int f(int n) {
    int acc = 0;
    int i = 0;
    while (i < n) {
        acc = acc + i;
        i = i + 1;
    }
    out(acc);
    return acc;
}";
        let module = dt_frontend::lower_source(src).unwrap();
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let t = dt_debugger::trace(
            &obj,
            "f",
            &[vec![]],
            &dt_debugger::SessionConfig {
                entry_args: vec![5],
                ..Default::default()
            },
        )
        .unwrap();
        let program = dt_minic::parse(src).unwrap();
        let analysis = SourceAnalysis::of(&program);
        let cmp = all_methods(&obj.debug, &t, &t, &analysis);
        assert_eq!(cmp.dynamic.product, 1.0);
        assert_eq!(cmp.hybrid.product, 1.0);
        assert!(cmp.static_dbg.availability > 0.5);
        assert!(cmp.static_m.line_coverage > 0.5);
    }

    /// The replaced trace-against-trace implementation of [`dynamic`]
    /// (`refine` = `None`) and [`hybrid`], kept as the oracle of
    /// [`MetricBaseline`].
    fn compare_traces(
        opt: &DebugTrace,
        base: &DebugTrace,
        refine: Option<&SourceAnalysis>,
    ) -> Metrics {
        let base_lines = base.stepped_lines();
        if base_lines.is_empty() {
            return Metrics::perfect();
        }
        let opt_lines = opt.stepped_lines();
        let common: Vec<u32> = base_lines.intersection(&opt_lines).copied().collect();
        let line_coverage = common.len() as f64 / base_lines.len() as f64;

        let mut ratios = Vec::with_capacity(common.len());
        for &line in &common {
            let base_obs = &base.lines[&line];
            let mut denom: BTreeSet<&str> = base_obs.vars.iter().map(String::as_str).collect();
            if let Some(analysis) = refine {
                let in_range: BTreeSet<&str> = analysis.defined_at(&base_obs.func, line).collect();
                denom.retain(|v| in_range.contains(v));
            }
            if denom.is_empty() {
                ratios.push(1.0);
                continue;
            }
            let opt_vars = &opt.lines[&line].vars;
            let num = denom.iter().filter(|v| opt_vars.contains(**v)).count();
            ratios.push(num as f64 / denom.len() as f64);
        }
        let availability = if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        };
        Metrics::new(availability, line_coverage)
    }

    fn bits(m: Metrics) -> [u64; 3] {
        [
            m.availability.to_bits(),
            m.line_coverage.to_bits(),
            m.product.to_bits(),
        ]
    }

    /// The prepared baseline scores `opt` bit for bit like the oracle.
    fn assert_matches_oracle(
        label: &str,
        opt: &DebugTrace,
        base: &DebugTrace,
        analysis: &SourceAnalysis,
    ) {
        let scores = MetricBaseline::new(base, analysis).score(opt);
        assert_eq!(
            bits(scores.dynamic),
            bits(compare_traces(opt, base, None)),
            "{label}: dynamic"
        );
        assert_eq!(
            bits(scores.hybrid),
            bits(compare_traces(opt, base, Some(analysis))),
            "{label}: hybrid"
        );
    }

    /// Calls `visit` with each suite program's `O0` ground-truth trace
    /// over its seeds and, at every given personality/level, the trace
    /// of the reference build and of every distinct single-pass variant
    /// (the traces the tuner scores).
    fn for_each_suite_trace(
        programs: &[dt_testsuite::TestProgram],
        levels: &[(Personality, OptLevel)],
        mut visit: impl FnMut(&str, &DebugTrace, &DebugTrace, &SourceAnalysis),
    ) {
        for p in programs {
            let analysis = SourceAnalysis::of(&p.parse());
            let module = dt_frontend::lower_source(p.source).unwrap();
            let inputs: Vec<Vec<u8>> = p.seeds.iter().map(|s| s.to_vec()).collect();
            let trace = |obj: &dt_machine::Object, ground_truth: bool| {
                let config = dt_debugger::SessionConfig {
                    max_steps_per_input: 3_000_000,
                    ground_truth,
                    ..Default::default()
                };
                let plan = dt_debugger::BreakPlan::new(obj);
                dt_debugger::trace_with_plan(obj, p.harnesses[0], &inputs, &config, &plan).unwrap()
            };
            let o0 = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
            let base = trace(&o0, true);
            visit(&format!("{} O0", p.name), &base, &base, &analysis);
            for &(personality, level) in levels {
                let session = CompileSession::new(module.clone(), personality, level, None);
                let gates = std::iter::once(("<reference>", PassGate::allow_all())).chain(
                    pipeline_pass_names(personality, level)
                        .into_iter()
                        .map(|pass| (pass, PassGate::disabling([pass]))),
                );
                let mut seen = std::collections::HashSet::new();
                for (gate_name, gate) in gates {
                    let obj = session.build_variant(&gate).object;
                    if seen.insert(obj.content_hash()) {
                        let label = format!("{} {personality} {level} -{gate_name}", p.name);
                        visit(&label, &trace(&obj, false), &base, &analysis);
                    }
                }
            }
        }
    }

    fn all_levels() -> Vec<(Personality, OptLevel)> {
        [Personality::Gcc, Personality::Clang]
            .into_iter()
            .flat_map(|p| OptLevel::levels_for(p).iter().map(move |&l| (p, l)))
            .collect()
    }

    /// The tier-1 subset of [`prepared_baselines_match_the_oracle_over_the_suite`].
    #[test]
    fn prepared_baselines_match_the_oracle_on_two_programs() {
        let suite = dt_testsuite::real_world_suite();
        for_each_suite_trace(
            &suite[..2],
            &[(Personality::Gcc, OptLevel::O2)],
            assert_matches_oracle,
        );
    }

    /// Every suite program at every personality and level: the `O0`
    /// baseline against the reference trace and every single-pass
    /// variant trace. Release mode, a few seconds; `scripts/ci.sh` runs
    /// it with `--include-ignored`.
    #[test]
    #[ignore]
    fn prepared_baselines_match_the_oracle_over_the_suite() {
        let mut visited = 0;
        for_each_suite_trace(
            &dt_testsuite::real_world_suite(),
            &all_levels(),
            |label, opt, base, analysis| {
                assert_matches_oracle(label, opt, base, analysis);
                visited += 1;
            },
        );
        assert!(visited > 13 * 7, "only {visited} traces compared");
    }

    proptest::proptest! {
        /// Metrics always land in [0, 1] and product = a * c.
        #[test]
        fn metrics_bounded(base_lines in proptest::collection::btree_set(1u32..40, 1..20),
                           keep_ratio in 0.0f64..1.0) {
            let base = trace(base_lines.iter().map(|&l| (l, obs("f", &["x", "y"]))).collect());
            let kept: Vec<(u32, LineObservation)> = base_lines
                .iter()
                .enumerate()
                .filter(|(i, _)| (*i as f64) < keep_ratio * base_lines.len() as f64)
                .map(|(_, &l)| (l, obs("f", &["x"])))
                .collect();
            let opt = trace(kept);
            let m = dynamic(&opt, &base);
            proptest::prop_assert!((0.0..=1.0).contains(&m.availability));
            proptest::prop_assert!((0.0..=1.0).contains(&m.line_coverage));
            proptest::prop_assert!((m.product - m.availability * m.line_coverage).abs() < 1e-12);
        }
    }
}
