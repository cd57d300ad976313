//! Summary statistics (mean, standard deviation, min, max, coefficient of
//! variation) used to report performance predictability: the paper's whole
//! point is to shrink the variance of a sensitive VM's performance across
//! co-location scenarios.

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of `values`. Empty input yields an all-zero
    /// summary with `count == 0`.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        Summary {
            count,
            mean,
            stddev: variance.sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Coefficient of variation (stddev / mean); `0` when the mean is zero.
    /// The paper's "performance predictability" improves as this shrinks.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.stddev / self.mean
        }
    }

    /// Peak-to-peak spread (max - min).
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::of(&[5.0, 5.0, 5.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.coefficient_of_variation(), 0.0);
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.coefficient_of_variation() - 0.4).abs() < 1e-12);
        assert_eq!(s.range(), 7.0);
    }

    #[test]
    fn empty_sample() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn predictability_improves_when_variance_shrinks() {
        let unpredictable = Summary::of(&[1.0, 0.5, 0.9, 0.4]);
        let predictable = Summary::of(&[0.95, 0.97, 0.96, 0.98]);
        assert!(predictable.coefficient_of_variation() < unpredictable.coefficient_of_variation());
    }
}
