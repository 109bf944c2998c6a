//! Differential debug-info *correctness* oracle.
//!
//! DebugTuner's metrics measure how much debug information survives
//! optimization; this crate asks whether the surviving information is
//! **true**. It diffs a debug trace of an optimized binary against the
//! ground-truth trace of the O0 build (same source, same inputs) and
//! classifies every divergence into the defect taxonomy of the related
//! work ("Who is Debugging the Debuggers?", "Where Did My Variable
//! Go?"):
//!
//! * **wrong value** — the debugger prints a value for a variable that
//!   differs from the variable's true value at that line;
//! * **stale value** — a wrong value that equals the variable's true
//!   value at an *earlier* point of the run (a location list left
//!   pointing at an out-of-date home, the classic dropped-`dbg.value`
//!   symptom);
//! * **phantom variable** — a value is reported for a variable outside
//!   its source-level scope, and the value is one the variable never
//!   held (in-scope-looking garbage, per `minic`'s per-line scope
//!   analysis);
//! * **misplaced line** — the optimized binary stops on a line the O0
//!   run never reached on the same inputs (line-table damage from
//!   code motion).
//!
//! The O0 trace is recorded with [`dt_debugger::SessionConfig::ground_truth`]
//! so its values come from the VM's shadow state rather than from
//! location lists — the oracle's baseline is the source semantics, not
//! another debugger view.
//!
//! Every variant of a program is checked against the same ground
//! truth, so what the `O0` trace and the source analysis decide (first
//! hits, held values, in-scope names) is built once as a
//! [`GroundTruth`]; [`check`] builds one and checks a single trace.
//!
//! This crate is the pure trace-diff classifier. Producing the traces
//! (compiling and the `O0` ground truth, behind `DebugTuner::check`)
//! lives with the rest of the compile-and-cache state in `debugtuner`'s
//! artifact store.

use dt_debugger::DebugTrace;
use dt_minic::analysis::SourceAnalysis;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// The defect taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefectClass {
    WrongValue,
    StaleValue,
    PhantomVariable,
    MisplacedLine,
}

/// One classified divergence between an optimized trace and the O0
/// ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Defect {
    pub class: DefectClass,
    /// Function the stop was attributed to.
    pub func: String,
    pub line: u32,
    /// The offending variable (`None` for misplaced lines).
    pub var: Option<String>,
    /// What the debugger printed.
    pub observed: Option<i64>,
    /// The ground-truth value (`None` when none exists, e.g. phantoms).
    pub expected: Option<i64>,
}

/// Defect counts per class plus the comparison volume behind them.
/// `Copy` so it can ride along in caches next to `Metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DefectSummary {
    pub wrong: u32,
    pub stale: u32,
    pub phantom: u32,
    pub misplaced: u32,
    /// Stepped lines examined.
    pub lines_checked: u32,
    /// Variable values compared (or scope-screened).
    pub values_checked: u32,
}

impl DefectSummary {
    /// Total classified defects.
    pub fn total(&self) -> u32 {
        self.wrong + self.stale + self.phantom + self.misplaced
    }

    /// Defects per comparison opportunity, in `[0, 1]`.
    pub fn rate(&self) -> f64 {
        let opportunities = (self.lines_checked + self.values_checked).max(1);
        self.total() as f64 / opportunities as f64
    }
}

/// The oracle's verdict on one optimized trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Classified defects, ordered by line then variable.
    pub defects: Vec<Defect>,
    pub summary: DefectSummary,
}

/// Diffs an optimized-binary trace against the O0 ground-truth trace
/// and classifies every divergence. Both traces must come from the
/// same source and input set; `base` should be recorded with
/// [`dt_debugger::SessionConfig::ground_truth`] on the O0 build.
pub fn check(opt: &DebugTrace, base: &DebugTrace, analysis: &SourceAnalysis) -> CheckReport {
    GroundTruth::new(base, analysis).check(opt)
}

/// One stepped line of the ground-truth trace.
#[derive(Debug, Clone)]
struct TruthLine {
    line: u32,
    /// First-hit position of the line in the run (the temporal order
    /// the staleness test needs).
    pos: usize,
    /// Index into [`GroundTruth::funcs`] of the function the stop was
    /// attributed to.
    func: usize,
    /// The true value of each variable at the line, in name order.
    values: Vec<(Arc<str>, i64)>,
    /// Names of the variables defined and in scope at the line, per the
    /// source analysis of the line's function.
    in_scope: Vec<Arc<str>>,
}

/// Every value each variable of one function ever held in the
/// ground-truth run, with the earliest position it held it (for
/// staleness).
type Held = HashMap<Arc<str>, BTreeMap<i64, usize>>;

/// The per-program half of [`check`]: what the ground-truth trace and
/// the source analysis say, built once per baseline and shared by the
/// checks of every variant of the program.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// In ascending line order.
    lines: Vec<TruthLine>,
    /// Per function named by a line: its name and what its variables
    /// held.
    funcs: Vec<(String, Held)>,
}

/// `name`'s shared copy in `names`, added on first use: the lines of a
/// ground truth name the same few variables over and over.
fn intern(names: &mut HashSet<Arc<str>>, name: &str) -> Arc<str> {
    if let Some(shared) = names.get(name) {
        return Arc::clone(shared);
    }
    let shared: Arc<str> = Arc::from(name);
    names.insert(Arc::clone(&shared));
    shared
}

impl GroundTruth {
    /// Prepares `base`, the `O0` ground-truth trace, with `analysis`,
    /// the source's scope analysis.
    pub fn new(base: &DebugTrace, analysis: &SourceAnalysis) -> Self {
        let base_pos: HashMap<u32, usize> = base
            .hit_order
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, i))
            .collect();
        let mut names: HashSet<Arc<str>> = HashSet::new();
        let mut funcs: Vec<(String, Held)> = Vec::new();
        let mut lines = Vec::with_capacity(base.lines.len());
        for (&line, obs) in &base.lines {
            let pos = base_pos[&line];
            let func = match funcs.iter().position(|(name, _)| *name == obs.func) {
                Some(i) => i,
                None => {
                    funcs.push((obs.func.clone(), HashMap::new()));
                    funcs.len() - 1
                }
            };
            let mut values = Vec::with_capacity(obs.values.len());
            for (var, &v) in &obs.values {
                let var = intern(&mut names, var);
                let held = funcs[func].1.entry(Arc::clone(&var)).or_default();
                let earliest = held.entry(v).or_insert(pos);
                *earliest = (*earliest).min(pos);
                values.push((var, v));
            }
            lines.push(TruthLine {
                line,
                pos,
                func,
                values,
                in_scope: analysis
                    .defined_at(&obs.func, line)
                    .map(|name| intern(&mut names, name))
                    .collect(),
            });
        }
        GroundTruth { lines, funcs }
    }

    /// Diffs `opt`, a trace of an optimized build over the baseline's
    /// inputs, against the ground truth and classifies every divergence.
    pub fn check(&self, opt: &DebugTrace) -> CheckReport {
        let mut defects = Vec::new();
        let mut summary = DefectSummary::default();

        for (&line, obs) in &opt.lines {
            summary.lines_checked += 1;
            let Ok(at) = self.lines.binary_search_by_key(&line, |l| l.line) else {
                summary.misplaced += 1;
                defects.push(Defect {
                    class: DefectClass::MisplacedLine,
                    func: obs.func.clone(),
                    line,
                    var: None,
                    observed: None,
                    expected: None,
                });
                continue;
            };
            let truth = &self.lines[at];
            let (func, held) = &self.funcs[truth.func];
            if obs.func != *func {
                // The line exists in both runs but is attributed to a
                // different function (cross-function code motion); value
                // comparison would be meaningless.
                continue;
            }
            for (var, &observed) in &obs.values {
                // Trace keys carry an `#k` occurrence suffix for shadowed
                // names; scope queries use the bare source name.
                let bare = var.split('#').next().unwrap_or(var);
                let held = held.get(var.as_str());
                if !truth.in_scope.iter().any(|name| **name == *bare) {
                    summary.values_checked += 1;
                    // Reporting a value the variable genuinely held
                    // nearby is benign scope widening; a value it never
                    // held is a phantom.
                    if !held.is_some_and(|vals| vals.contains_key(&observed)) {
                        summary.phantom += 1;
                        defects.push(Defect {
                            class: DefectClass::PhantomVariable,
                            func: obs.func.clone(),
                            line,
                            var: Some(var.clone()),
                            observed: Some(observed),
                            expected: None,
                        });
                    }
                    continue;
                }
                let Ok(at) = truth.values.binary_search_by(|(name, _)| (**name).cmp(var)) else {
                    continue; // no ground truth at this line: cannot judge
                };
                let expected = truth.values[at].1;
                summary.values_checked += 1;
                if observed == expected {
                    continue;
                }
                let is_stale = held
                    .and_then(|vals| vals.get(&observed))
                    .is_some_and(|&p| p < truth.pos);
                let class = if is_stale {
                    summary.stale += 1;
                    DefectClass::StaleValue
                } else {
                    summary.wrong += 1;
                    DefectClass::WrongValue
                };
                defects.push(Defect {
                    class,
                    func: obs.func.clone(),
                    line,
                    var: Some(var.clone()),
                    observed: Some(observed),
                    expected: Some(expected),
                });
            }
        }

        CheckReport { defects, summary }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_debugger::{DebugTrace, LineObservation};
    use dt_passes::{pipeline_pass_names, CompileSession, OptLevel, PassGate, Personality};
    use std::collections::BTreeSet;

    fn obs(func: &str, values: &[(&str, i64)]) -> LineObservation {
        LineObservation {
            func: func.into(),
            vars: values
                .iter()
                .map(|(n, _)| n.to_string())
                .collect::<BTreeSet<_>>(),
            values: values
                .iter()
                .map(|(n, v)| (n.to_string(), *v))
                .collect::<BTreeMap<_, _>>(),
        }
    }

    fn trace_of(lines: Vec<(u32, LineObservation)>) -> DebugTrace {
        let hit_order: Vec<u32> = lines.iter().map(|(l, _)| *l).collect();
        DebugTrace {
            lines: lines.into_iter().collect(),
            hits: hit_order.len() as u64,
            inputs_run: 1,
            hit_order,
        }
    }

    /// First-hit position of every stepped line (the temporal order the
    /// staleness test needs).
    fn hit_positions(trace: &DebugTrace) -> HashMap<u32, usize> {
        trace
            .hit_order
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, i))
            .collect()
    }

    /// The replaced trace-against-trace implementation of [`check`], kept
    /// as the oracle of [`GroundTruth`].
    fn check_oracle(opt: &DebugTrace, base: &DebugTrace, analysis: &SourceAnalysis) -> CheckReport {
        let base_pos = hit_positions(base);

        // Every value each variable ever held in the ground-truth run, and
        // the earliest position it held each one (for staleness).
        let mut held: HashMap<(&str, &str), BTreeSet<i64>> = HashMap::new();
        let mut earliest: HashMap<(&str, &str, i64), usize> = HashMap::new();
        for (line, obs) in &base.lines {
            let pos = base_pos[line];
            for (var, &v) in &obs.values {
                held.entry((&obs.func, var)).or_default().insert(v);
                earliest
                    .entry((&obs.func, var, v))
                    .and_modify(|p| *p = (*p).min(pos))
                    .or_insert(pos);
            }
        }

        let mut defects = Vec::new();
        let mut summary = DefectSummary::default();

        for (&line, obs) in &opt.lines {
            summary.lines_checked += 1;
            let Some(base_obs) = base.lines.get(&line) else {
                summary.misplaced += 1;
                defects.push(Defect {
                    class: DefectClass::MisplacedLine,
                    func: obs.func.clone(),
                    line,
                    var: None,
                    observed: None,
                    expected: None,
                });
                continue;
            };
            if obs.func != base_obs.func {
                // The line exists in both runs but is attributed to a
                // different function (cross-function code motion); value
                // comparison would be meaningless.
                continue;
            }
            let line_pos = base_pos[&line];
            for (var, &observed) in &obs.values {
                // Trace keys carry an `#k` occurrence suffix for shadowed
                // names; scope queries use the bare source name.
                let bare = var.split('#').next().unwrap_or(var);
                let in_scope = analysis
                    .defined_at(&obs.func, line)
                    .any(|name| name == bare);
                if !in_scope {
                    summary.values_checked += 1;
                    let ever_held = held
                        .get(&(obs.func.as_str(), var.as_str()))
                        .is_some_and(|vals| vals.contains(&observed));
                    // Reporting a value the variable genuinely held nearby
                    // is benign scope widening; a value it never held is a
                    // phantom.
                    if !ever_held {
                        summary.phantom += 1;
                        defects.push(Defect {
                            class: DefectClass::PhantomVariable,
                            func: obs.func.clone(),
                            line,
                            var: Some(var.clone()),
                            observed: Some(observed),
                            expected: None,
                        });
                    }
                    continue;
                }
                let Some(&expected) = base_obs.values.get(var) else {
                    continue; // no ground truth at this line: cannot judge
                };
                summary.values_checked += 1;
                if observed == expected {
                    continue;
                }
                let is_stale = earliest
                    .get(&(obs.func.as_str(), var.as_str(), observed))
                    .is_some_and(|&p| p < line_pos);
                let class = if is_stale {
                    summary.stale += 1;
                    DefectClass::StaleValue
                } else {
                    summary.wrong += 1;
                    DefectClass::WrongValue
                };
                defects.push(Defect {
                    class,
                    func: obs.func.clone(),
                    line,
                    var: Some(var.clone()),
                    observed: Some(observed),
                    expected: Some(expected),
                });
            }
        }

        CheckReport { defects, summary }
    }

    fn analysis_of(src: &str) -> SourceAnalysis {
        SourceAnalysis::of(&dt_minic::compile_check(src).unwrap())
    }

    /// Calls `visit` with each suite program's `O0` ground-truth trace
    /// over its seeds and, at every given personality/level, the trace
    /// of the reference build and of every distinct single-pass variant
    /// (the traces the tuner checks).
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

    /// The ground truth reports exactly what the oracle reports,
    /// defects included; returns how many defects that was.
    fn assert_matches_oracle(
        label: &str,
        opt: &DebugTrace,
        base: &DebugTrace,
        analysis: &SourceAnalysis,
    ) -> u32 {
        let report = GroundTruth::new(base, analysis).check(opt);
        assert_eq!(report, check_oracle(opt, base, analysis), "{label}");
        report.summary.total()
    }

    /// The tier-1 subset of [`ground_truth_matches_the_oracle_over_the_suite`].
    #[test]
    fn ground_truth_matches_the_oracle_on_two_programs() {
        let suite = dt_testsuite::real_world_suite();
        for_each_suite_trace(
            &suite[..2],
            &[(Personality::Gcc, OptLevel::O2)],
            |label, opt, base, analysis| {
                assert_matches_oracle(label, opt, base, analysis);
            },
        );
    }

    /// Every suite program at every personality and level: the `O0`
    /// baseline against the reference trace and every single-pass
    /// variant trace. Release mode, a few seconds; `scripts/ci.sh` runs
    /// it with `--include-ignored`.
    #[test]
    #[ignore]
    fn ground_truth_matches_the_oracle_over_the_suite() {
        let levels: Vec<(Personality, OptLevel)> = [Personality::Gcc, Personality::Clang]
            .into_iter()
            .flat_map(|p| OptLevel::levels_for(p).iter().map(move |&l| (p, l)))
            .collect();
        let (mut visited, mut defects) = (0, 0);
        for_each_suite_trace(
            &dt_testsuite::real_world_suite(),
            &levels,
            |label, opt, base, analysis| {
                defects += assert_matches_oracle(label, opt, base, analysis);
                visited += 1;
            },
        );
        assert!(visited > 13 * 7, "only {visited} traces compared");
        assert!(defects > 0, "no trace had a defect to compare");
    }

    const SRC: &str = "\
int f() {
    int x = 1;
    int y = 2;
    x = 3;
    out(x + y);
    return x;
}";

    #[test]
    fn identical_traces_have_no_defects() {
        let base = trace_of(vec![
            (2, obs("f", &[])),
            (3, obs("f", &[("x", 1)])),
            (4, obs("f", &[("x", 1), ("y", 2)])),
            (5, obs("f", &[("x", 3), ("y", 2)])),
        ]);
        let r = check(&base.clone(), &base, &analysis_of(SRC));
        assert!(r.defects.is_empty());
        assert_eq!(r.summary.total(), 0);
        assert!(r.summary.values_checked > 0);
    }

    #[test]
    fn stale_values_are_distinguished_from_wrong() {
        let base = trace_of(vec![
            (3, obs("f", &[("x", 1)])),
            (4, obs("f", &[("x", 1), ("y", 2)])),
            (5, obs("f", &[("x", 3), ("y", 2)])),
        ]);
        // At line 5 the debugger shows x's *old* value 1 (stale) and a
        // fabricated y = 99 (wrong).
        let opt = trace_of(vec![
            (3, obs("f", &[("x", 1)])),
            (4, obs("f", &[("x", 1), ("y", 2)])),
            (5, obs("f", &[("x", 1), ("y", 99)])),
        ]);
        let r = check(&opt, &base, &analysis_of(SRC));
        assert_eq!(r.summary.stale, 1);
        assert_eq!(r.summary.wrong, 1);
        let stale = r
            .defects
            .iter()
            .find(|d| d.class == DefectClass::StaleValue)
            .unwrap();
        assert_eq!(stale.var.as_deref(), Some("x"));
        assert_eq!(stale.observed, Some(1));
        assert_eq!(stale.expected, Some(3));
    }

    #[test]
    fn misplaced_lines_are_flagged() {
        let base = trace_of(vec![(3, obs("f", &[("x", 1)]))]);
        let opt = trace_of(vec![(3, obs("f", &[("x", 1)])), (42, obs("f", &[]))]);
        let r = check(&opt, &base, &analysis_of(SRC));
        assert_eq!(r.summary.misplaced, 1);
        assert_eq!(r.defects.len(), 1);
        assert_eq!(r.defects[0].class, DefectClass::MisplacedLine);
        assert_eq!(r.defects[0].line, 42);
    }

    #[test]
    fn phantoms_require_a_never_held_value() {
        // `y` is declared on line 3, so it is out of scope on line 2.
        let base = trace_of(vec![
            (2, obs("f", &[])),
            (4, obs("f", &[("x", 1), ("y", 2)])),
        ]);
        // Reporting y = 2 on line 2 is benign (it held 2 later in the
        // same frame); y = 77 is a phantom.
        let benign = trace_of(vec![(2, obs("f", &[("y", 2)]))]);
        let r = check(&benign, &base, &analysis_of(SRC));
        assert_eq!(r.summary.phantom, 0, "{:?}", r.defects);

        let phantom = trace_of(vec![(2, obs("f", &[("y", 77)]))]);
        let r = check(&phantom, &base, &analysis_of(SRC));
        assert_eq!(r.summary.phantom, 1);
        assert_eq!(r.defects[0].class, DefectClass::PhantomVariable);
    }
}
