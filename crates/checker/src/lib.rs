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
//! This crate is the pure trace-diff classifier. Producing the traces
//! (compiling, the `O0` ground truth, and the fuzzing `hunt` drivers)
//! lives with the rest of the compile-and-cache state in `debugtuner`'s
//! artifact store.

use dt_debugger::DebugTrace;
use dt_minic::analysis::SourceAnalysis;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// The defect taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DefectClass {
    WrongValue,
    StaleValue,
    PhantomVariable,
    MisplacedLine,
}

/// One classified divergence between an optimized trace and the O0
/// ground truth.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckReport {
    /// Classified defects, ordered by line then variable.
    pub defects: Vec<Defect>,
    pub summary: DefectSummary,
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

/// Diffs an optimized-binary trace against the O0 ground-truth trace
/// and classifies every divergence. Both traces must come from the
/// same source and input set; `base` should be recorded with
/// [`dt_debugger::SessionConfig::ground_truth`] on the O0 build.
pub fn check(opt: &DebugTrace, base: &DebugTrace, analysis: &SourceAnalysis) -> CheckReport {
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

#[cfg(test)]
mod tests {
    use super::*;
    use dt_debugger::{DebugTrace, LineObservation};
    use std::collections::{BTreeMap, BTreeSet};

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

    fn analysis_of(src: &str) -> SourceAnalysis {
        SourceAnalysis::of(&dt_minic::compile_check(src).unwrap())
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
