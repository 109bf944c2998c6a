//! The debuggability/performance trade-off front (Figure 2).

/// One configuration's position in the trade-off space.
#[derive(Debug, Clone)]
pub struct TradeoffPoint {
    /// Configuration name (`O2`, `O1-d5`, ...).
    pub name: String,
    /// Hybrid product metric (suite average).
    pub debug_quality: f64,
    /// Speedup over O0 (suite geomean).
    pub speedup: f64,
    /// Filled by [`pareto_front`].
    pub pareto_optimal: bool,
}

impl TradeoffPoint {
    pub fn new(name: impl Into<String>, debug_quality: f64, speedup: f64) -> Self {
        TradeoffPoint {
            name: name.into(),
            debug_quality,
            speedup,
            pareto_optimal: false,
        }
    }

    /// Whether `other` dominates `self` (at least as good on both
    /// axes, strictly better on one).
    pub fn dominated_by(&self, other: &TradeoffPoint) -> bool {
        other.debug_quality >= self.debug_quality
            && other.speedup >= self.speedup
            && (other.debug_quality > self.debug_quality || other.speedup > self.speedup)
    }
}

/// Marks the Pareto-optimal points and returns the front, sorted by
/// ascending debug quality (the x axis of Figure 2).
pub fn pareto_front(points: &mut [TradeoffPoint]) -> Vec<TradeoffPoint> {
    for i in 0..points.len() {
        let dominated = points
            .iter()
            .enumerate()
            .any(|(j, other)| j != i && points[i].dominated_by(other));
        points[i].pareto_optimal = !dominated;
    }
    let mut front: Vec<TradeoffPoint> = points
        .iter()
        .filter(|p| p.pareto_optimal)
        .cloned()
        .collect();
    front.sort_by(|a, b| a.debug_quality.partial_cmp(&b.debug_quality).unwrap());
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_keeps_non_dominated_points() {
        let mut pts = vec![
            TradeoffPoint::new("O3", 0.40, 2.6),
            TradeoffPoint::new("O1", 0.55, 2.2),
            TradeoffPoint::new("Og", 0.62, 2.0),
            TradeoffPoint::new("bad", 0.50, 1.9), // dominated by O1
            TradeoffPoint::new("O1-d5", 0.63, 2.1),
        ];
        let front = pareto_front(&mut pts);
        let names: Vec<&str> = front.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["O3", "O1", "O1-d5"]);
        assert!(!pts.iter().find(|p| p.name == "bad").unwrap().pareto_optimal);
        assert!(
            !pts.iter().find(|p| p.name == "Og").unwrap().pareto_optimal,
            "Og is dominated by O1-d5 — the paper's headline result"
        );
    }

    #[test]
    fn identical_points_both_survive() {
        let mut pts = vec![
            TradeoffPoint::new("a", 0.5, 2.0),
            TradeoffPoint::new("b", 0.5, 2.0),
        ];
        let front = pareto_front(&mut pts);
        assert_eq!(front.len(), 2);
    }

    #[test]
    fn single_point_is_optimal() {
        let mut pts = vec![TradeoffPoint::new("only", 0.1, 1.0)];
        assert_eq!(pareto_front(&mut pts).len(), 1);
    }
}
