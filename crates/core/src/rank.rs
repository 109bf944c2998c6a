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

/// One pass's sums and counts over the programs whose pipeline runs it.
#[derive(Default)]
struct Tally {
    rank_sum: f64,
    ratio_log_sum: f64,
    programs: usize,
    positive: usize,
    negative: usize,
    neutral: usize,
    defect_delta_sum: f64,
    defect_reducing: usize,
}

/// Aggregates per-program evaluations into the global ranking.
pub fn rank_passes_across(evals: &[ProgramEvaluation]) -> PassRanking {
    assert!(!evals.is_empty(), "ranking needs at least one program");
    // One tally per name in the union of pass names across all
    // evaluations, in first-seen order: evaluations from different
    // levels (or personalities) gate different pipelines, and a pass
    // must not drop out of the table just because the first program's
    // pipeline lacks it.
    let mut names: Vec<&str> = Vec::new();
    let mut tallies: Vec<Tally> = Vec::new();

    for eval in evals {
        let rows: Vec<usize> = eval
            .effects
            .iter()
            .map(|e| {
                names.iter().position(|&n| n == e.pass).unwrap_or_else(|| {
                    names.push(&e.pass);
                    tallies.push(Tally::default());
                    names.len() - 1
                })
            })
            .collect();
        for (e, &row) in eval.effects.iter().zip(&rows) {
            let t = &mut tallies[row];
            t.defect_delta_sum += e.defect_delta;
            if e.defect_delta < -1e-12 {
                t.defect_reducing += 1;
            }
        }
        // Sort this program's effects: positive first by magnitude,
        // then neutral (shared rank), then negative.
        let mut order: Vec<(usize, f64)> = rows
            .iter()
            .zip(&eval.effects)
            .map(|(&row, e)| (row, e.relative_increment))
            .collect();
        order.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite increments"));

        let positives = order.iter().filter(|(_, r)| *r > 1e-9).count();
        let neutral_rank = positives as f64 + 1.0;
        let mut neg_seen = 0usize;
        for (i, &(row, rel)) in order.iter().enumerate() {
            let t = &mut tallies[row];
            let rank = if rel > 1e-9 {
                t.positive += 1;
                (i + 1) as f64
            } else if rel < -1e-9 {
                // Negatives rank below every neutral.
                t.negative += 1;
                neg_seen += 1;
                eval.effects.len() as f64 + neg_seen as f64
            } else {
                t.neutral += 1;
                neutral_rank
            };
            t.rank_sum += rank;
            t.ratio_log_sum += (1.0 + rel).max(1e-4).ln();
            t.programs += 1;
        }
    }

    // Averages run over the evaluations whose pipeline contains the
    // pass; every name in the union appears at least once.
    let mut entries: Vec<RankEntry> = names
        .iter()
        .zip(&tallies)
        .map(|(&pass, t)| {
            let n = t.programs as f64;
            RankEntry {
                pass: pass.to_string(),
                avg_rank: t.rank_sum / n,
                geomean_increment: (t.ratio_log_sum / n).exp() - 1.0,
                positive_programs: t.positive,
                negative_programs: t.negative,
                neutral_programs: t.neutral,
                mean_defect_delta: t.defect_delta_sum / n,
                defect_reducing_programs: t.defect_reducing,
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
        let effects: Vec<_> = effects.into_iter().map(|(p, rel)| (p, rel, 0.0)).collect();
        eval_of(&effects)
    }

    /// One program's evaluation from `(pass, relative increment,
    /// defect delta)` triples.
    fn eval_of(effects: &[(&str, f64, f64)]) -> ProgramEvaluation {
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
                .iter()
                .map(|&(pass, rel, defect_delta)| PassEffect {
                    pass: pass.into(),
                    metrics: (rel != 0.0).then_some(Metrics {
                        availability: 0.5,
                        line_coverage: 0.5,
                        product: 0.25 * (1.0 + rel),
                    }),
                    relative_increment: rel,
                    defects: None,
                    defect_delta,
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

    #[test]
    fn every_entry_field_is_pinned() {
        // Three pipelines: `licm` is missing from the second program and
        // `dse` runs only in the third, so both the union of names and
        // the per-pass divisor matter. Increments are positive, neutral
        // (including a tie) and negative; defect deltas fall on both
        // sides of -1e-12.
        let evals = [
            eval_of(&[
                ("cse", 0.12, -0.03),
                ("licm", 0.0, 0.0),
                ("sched", -0.04, 0.02),
                ("inline", 0.30, -1e-13),
            ]),
            eval_of(&[
                ("inline", 0.05, -2e-12),
                ("cse", 0.0, 0.01),
                ("sched", 0.07, -0.5),
            ]),
            eval_of(&[
                ("sched", -0.2, 0.0),
                ("dse", 0.12, -0.01),
                ("cse", 0.12, 0.0),
                ("licm", -0.01, 3e-12),
                ("inline", 0.0, -1e-12),
            ]),
        ];
        let ranking = rank_passes_across(&evals);
        assert_eq!(ranking.programs, 3);
        let got: Vec<(&str, [u64; 3], [usize; 4])> = ranking
            .entries
            .iter()
            .map(|e| {
                (
                    e.pass.as_str(),
                    [
                        e.avg_rank.to_bits(),
                        e.geomean_increment.to_bits(),
                        e.mean_defect_delta.to_bits(),
                    ],
                    [
                        e.positive_programs,
                        e.neutral_programs,
                        e.negative_programs,
                        e.defect_reducing_programs,
                    ],
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                (
                    "dse",
                    [0x3ff0000000000000, 0x3fbeb851eb851ec0, 0xbf847ae147ae147b],
                    [1, 0, 0, 1],
                ),
                (
                    "inline",
                    [0x4000000000000000, 0x3fbbfa4830f30b60, 0xbd722db838af71df],
                    [2, 1, 0, 1],
                ),
                (
                    "cse",
                    [0x4002aaaaaaaaaaab, 0x3fb417408e02f3f0, 0xbf7b4e81b4e81b4d],
                    [2, 1, 0, 1],
                ),
                (
                    "sched",
                    [0x4011555555555555, 0xbfb037180377e110, 0xbfc47ae147ae147b],
                    [1, 0, 2, 1],
                ),
                (
                    "licm",
                    [0x4012000000000000, 0xbf74880d9b23ad80, 0x3d7a636641c4df1a],
                    [0, 1, 1, 0],
                ),
            ]
        );
    }
}
