//! Aggregation statistics (geometric and arithmetic means), as used
//! throughout the paper's tables.

/// Floor applied to scores before taking logarithms, so that a single
/// zero does not annihilate a geometric mean (matches the usual
/// practice in the measurement literature).
pub const GEO_EPSILON: f64 = 1e-4;

/// Geometric mean of `xs` (empty input → 1.0).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(GEO_EPSILON).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Arithmetic mean (used for per-benchmark speedup averages).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn geomean_handles_zero() {
        let g = geomean(&[0.0, 1.0]);
        assert!(g > 0.0 && g < 1.0);
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    proptest::proptest! {
        #[test]
        fn geomean_between_min_and_max(xs in proptest::collection::vec(0.01f64..10.0, 1..30)) {
            let g = geomean(&xs);
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(0.0f64, f64::max);
            proptest::prop_assert!(g >= min - 1e-9 && g <= max + 1e-9);
        }
    }
}
