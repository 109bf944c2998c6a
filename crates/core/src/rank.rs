//! Cross-program pass ranking (Section III-B).
//!
//! Per program, passes are ranked by their relative product-metric
//! increment; no-effect passes share an identical low rank and
//! negative passes rank below them. The global ranking orders passes
//! by their *average per-program rank* (robust to outliers), and also
//! reports the geometric mean of the relative increment for display,
//! exactly as Tables V and VI do.

use crate::eval::ProgramEvaluation;
use serde::Serialize;
use std::collections::HashMap;

/// One row of the global ranking.
#[derive(Debug, Clone, Serialize)]
pub struct RankEntry {
    pub pass: String,
    /// Average per-program rank (lower = more debug-harmful).
    pub avg_rank: f64,
    /// Geometric mean across programs of `M_{o,t} / M_o`, minus one.
    pub geomean_increment: f64,
    /// Programs in which disabling the pass improved the metric.
    pub positive_programs: usize,
    pub negative_programs: usize,
    pub neutral_programs: usize,
    /// Correctness dimension: mean across programs of the variant's
    /// defect-rate delta vs the reference (negative = disabling the
    /// pass makes the surviving debug info more truthful). Reported
    /// alongside availability; does not influence the ordering.
    pub mean_defect_delta: f64,
    /// Programs in which disabling the pass strictly reduced the
    /// defect rate.
    pub defect_reducing_programs: usize,
}

/// The aggregated ranking.
#[derive(Debug, Clone, Serialize)]
pub struct PassRanking {
    /// Entries sorted by ascending `avg_rank`.
    pub entries: Vec<RankEntry>,
    pub programs: usize,
}

impl PassRanking {
    /// The top-`k` pass names.
    pub fn top(&self, k: usize) -> Vec<&str> {
        self.entries
            .iter()
            .take(k)
            .map(|e| e.pass.as_str())
            .collect()
    }

    /// Counts of passes with positive / neutral / negative average
    /// effect (the paper's Table VII breakdown).
    pub fn breakdown(&self) -> (usize, usize, usize) {
        let mut pos = 0;
        let mut neu = 0;
        let mut neg = 0;
        for e in &self.entries {
            if e.geomean_increment > 1e-9 {
                pos += 1;
            } else if e.geomean_increment < -1e-9 {
                neg += 1;
            } else {
                neu += 1;
            }
        }
        (pos, neu, neg)
    }
}

/// Aggregates per-program evaluations into the global ranking.
pub fn rank_passes_across(evals: &[ProgramEvaluation]) -> PassRanking {
    assert!(!evals.is_empty(), "ranking needs at least one program");
    // The union of pass names across all evaluations, in first-seen
    // order: evaluations from different levels (or personalities) gate
    // different pipelines, and a pass must not drop out of the table
    // just because the first program's pipeline lacks it.
    let mut pass_names: Vec<String> = Vec::new();
    for eval in evals {
        for e in &eval.effects {
            if !pass_names.contains(&e.pass) {
                pass_names.push(e.pass.clone());
            }
        }
    }

    // Per-program ranks.
    let mut rank_sums: HashMap<&str, f64> = HashMap::new();
    let mut ratio_logs: HashMap<&str, f64> = HashMap::new();
    let mut seen: HashMap<&str, usize> = HashMap::new();
    let mut pos: HashMap<&str, usize> = HashMap::new();
    let mut neg: HashMap<&str, usize> = HashMap::new();
    let mut neu: HashMap<&str, usize> = HashMap::new();
    let mut defect_delta_sums: HashMap<&str, f64> = HashMap::new();
    let mut defect_reducing: HashMap<&str, usize> = HashMap::new();

    for eval in evals {
        for e in &eval.effects {
            let p = e.pass.as_str();
            *defect_delta_sums.entry(p).or_insert(0.0) += e.defect_delta;
            if e.defect_delta < -1e-12 {
                *defect_reducing.entry(p).or_insert(0) += 1;
            }
        }
        // Sort this program's effects: positive first by magnitude,
        // then neutral (shared rank), then negative.
        let mut order: Vec<(&str, f64)> = eval
            .effects
            .iter()
            .map(|e| (e.pass.as_str(), e.relative_increment))
            .collect();
        order.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite increments"));

        let positives = order.iter().filter(|(_, r)| *r > 1e-9).count();
        let neutral_rank = positives as f64 + 1.0;
        let mut neg_seen = 0usize;
        for (i, (pass, rel)) in order.iter().enumerate() {
            let rank = if *rel > 1e-9 {
                (i + 1) as f64
            } else if *rel < -1e-9 {
                // Negatives rank below every neutral.
                neg_seen += 1;
                eval.effects.len() as f64 + neg_seen as f64
            } else {
                neutral_rank
            };
            *rank_sums.entry(pass).or_insert(0.0) += rank;
            *ratio_logs.entry(pass).or_insert(0.0) += (1.0 + rel).max(1e-4).ln();
            *seen.entry(pass).or_insert(0) += 1;
            let bucket = if *rel > 1e-9 {
                &mut pos
            } else if *rel < -1e-9 {
                &mut neg
            } else {
                &mut neu
            };
            *bucket.entry(pass).or_insert(0) += 1;
        }
    }

    let mut entries: Vec<RankEntry> = pass_names
        .iter()
        .map(|p| {
            let p = p.as_str();
            // Average over the evaluations whose pipeline contains the
            // pass; every name in the union appears at least once.
            let n = seen.get(p).copied().unwrap_or(1).max(1) as f64;
            RankEntry {
                pass: p.to_string(),
                avg_rank: rank_sums.get(p).copied().unwrap_or(0.0) / n,
                geomean_increment: (ratio_logs.get(p).copied().unwrap_or(0.0) / n).exp() - 1.0,
                positive_programs: pos.get(p).copied().unwrap_or(0),
                negative_programs: neg.get(p).copied().unwrap_or(0),
                neutral_programs: neu.get(p).copied().unwrap_or(0),
                mean_defect_delta: defect_delta_sums.get(p).copied().unwrap_or(0.0) / n,
                defect_reducing_programs: defect_reducing.get(p).copied().unwrap_or(0),
            }
        })
        .collect();
    entries.sort_by(|a, b| {
        a.avg_rank
            .partial_cmp(&b.avg_rank)
            .expect("finite ranks")
            .then_with(|| {
                b.geomean_increment
                    .partial_cmp(&a.geomean_increment)
                    .unwrap()
            })
    });

    PassRanking {
        entries,
        programs: evals.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::PassEffect;
    use dt_metrics::Metrics;

    fn eval_with(effects: Vec<(&str, f64)>) -> ProgramEvaluation {
        let reference = dt_metrics::hybrid(
            &dt_debugger::DebugTrace::default(),
            &dt_debugger::DebugTrace::default(),
            &dt_minic::analysis::SourceAnalysis::default(),
        );
        ProgramEvaluation {
            program: "p".into(),
            reference,
            methods: dt_metrics::MethodComparison {
                static_m: reference,
                static_dbg: reference,
                dynamic: reference,
                hybrid: reference,
            },
            effects: effects
                .into_iter()
                .map(|(pass, rel)| PassEffect {
                    pass: pass.into(),
                    metrics: (rel != 0.0).then_some(Metrics {
                        availability: 0.5,
                        line_coverage: 0.5,
                        product: 0.25 * (1.0 + rel),
                    }),
                    relative_increment: rel,
                    defects: None,
                    defect_delta: 0.0,
                })
                .collect(),
            steppable_lines_o0: 0,
            stepped_lines_o0: 0,
            reference_defects: Default::default(),
        }
    }

    #[test]
    fn positive_passes_rank_first_negatives_last() {
        let ranking = rank_passes_across(&[eval_with(vec![
            ("small", 0.02),
            ("big", 0.20),
            ("noop", 0.0),
            ("harmful", -0.05),
        ])]);
        let order: Vec<&str> = ranking.entries.iter().map(|e| e.pass.as_str()).collect();
        assert_eq!(order[0], "big");
        assert_eq!(order[1], "small");
        assert_eq!(*order.last().unwrap(), "harmful");
    }

    #[test]
    fn average_rank_smooths_outliers() {
        // `steady` is rank 2 everywhere; `spiky` is rank 1 once and
        // last twice: steady must come out ahead.
        let evals = vec![
            eval_with(vec![("steady", 0.05), ("spiky", 0.50), ("third", 0.06)]),
            eval_with(vec![("steady", 0.05), ("spiky", -0.01), ("third", 0.06)]),
            eval_with(vec![("steady", 0.05), ("spiky", -0.01), ("third", 0.06)]),
        ];
        let ranking = rank_passes_across(&evals);
        let pos = |name: &str| ranking.entries.iter().position(|e| e.pass == name).unwrap();
        assert!(pos("steady") < pos("spiky"));
    }

    #[test]
    fn geomean_increment_is_multiplicative() {
        let evals = vec![eval_with(vec![("p", 0.10)]), eval_with(vec![("p", 0.10)])];
        let ranking = rank_passes_across(&evals);
        assert!((ranking.entries[0].geomean_increment - 0.10).abs() < 1e-9);
    }

    #[test]
    fn breakdown_counts() {
        let ranking = rank_passes_across(&[eval_with(vec![
            ("a", 0.1),
            ("b", 0.0),
            ("c", -0.1),
            ("d", 0.2),
        ])]);
        assert_eq!(ranking.breakdown(), (2, 1, 1));
    }
}
