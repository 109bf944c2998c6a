//! `Ox-dy` configuration construction (Section V-B).

use crate::rank::PassRanking;
use dt_passes::{OptLevel, PassGate};

/// A derived debug-friendly configuration.
#[derive(Debug, Clone)]
pub struct DyConfig {
    /// Display name, e.g. `O2-d5`.
    pub name: String,
    pub level: OptLevel,
    /// The passes the configuration disables.
    pub disabled: Vec<String>,
    pub gate: PassGate,
}

/// The top-level inliner switches the paper excludes from `Ox-dy`
/// construction: the inliner's measured harm is mostly indirect
/// (enabling later passes) and its performance cost is out of
/// proportion, so only the finer-grained gcc inline flags stay
/// eligible.
fn is_master_inline(pass: &str) -> bool {
    pass == "inline" || pass == "Inliner"
}

/// Builds the `Ox-dy` configuration: disable the top `y` ranked
/// passes, skipping the master inliner switches.
pub fn dy_config(level: OptLevel, ranking: &PassRanking, y: usize) -> DyConfig {
    let disabled: Vec<String> = ranking
        .entries
        .iter()
        .filter(|e| !is_master_inline(&e.pass))
        .take(y)
        .map(|e| e.pass.clone())
        .collect();
    DyConfig {
        name: format!("{level}-d{y}"),
        level,
        gate: PassGate::disabling(disabled.iter().cloned()),
        disabled,
    }
}

/// The paper's standard `d3/d5/d7/d9` family for one level.
pub fn dy_family(level: OptLevel, ranking: &PassRanking) -> Vec<DyConfig> {
    [3, 5, 7, 9]
        .into_iter()
        .map(|y| dy_config(level, ranking, y))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::{PassRanking, RankEntry};

    fn ranking(names: &[&str]) -> PassRanking {
        PassRanking {
            entries: names
                .iter()
                .enumerate()
                .map(|(i, n)| RankEntry {
                    pass: n.to_string(),
                    avg_rank: i as f64 + 1.0,
                    geomean_increment: 0.1 / (i as f64 + 1.0),
                    positive_programs: 1,
                    negative_programs: 0,
                    neutral_programs: 0,
                    mean_defect_delta: 0.0,
                    defect_reducing_programs: 0,
                })
                .collect(),
            programs: 1,
        }
    }

    #[test]
    fn takes_top_y_passes() {
        let r = ranking(&["a", "b", "c", "d", "e"]);
        let cfg = dy_config(OptLevel::O2, &r, 3);
        assert_eq!(cfg.disabled, vec!["a", "b", "c"]);
        assert_eq!(cfg.name, "O2-d3");
        assert!(!cfg.gate.allows_name("b"));
        assert!(cfg.gate.allows_name("d"));
    }

    #[test]
    fn master_inline_is_skipped() {
        let r = ranking(&["inline", "schedule-insns2", "Inliner", "dce", "dse"]);
        let cfg = dy_config(OptLevel::O3, &r, 3);
        assert_eq!(cfg.disabled, vec!["schedule-insns2", "dce", "dse"]);
    }

    #[test]
    fn family_produces_nested_configs() {
        let r = ranking(&["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"]);
        let family = dy_family(OptLevel::O1, &r);
        assert_eq!(family.len(), 4);
        assert_eq!(family[0].disabled.len(), 3);
        assert_eq!(family[3].disabled.len(), 9);
        // Nested: every d3 pass is also in d9.
        for p in &family[0].disabled {
            assert!(family[3].disabled.contains(p));
        }
    }
}
