//! Simple labelled time series, used by the trace figures (Fig. 2, Fig. 5).

/// A `(time, value)` series with a label, e.g. "LLC misses per tick, alone".
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    label: String,
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        TimeSeries {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// The series label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends a point.
    pub fn push(&mut self, time: f64, value: f64) {
        self.points.push((time, value));
    }

    /// The recorded points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The values only.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|(_, v)| *v).collect()
    }

    /// Mean of the values (`0` for an empty series).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|(_, v)| v).sum::<f64>() / self.points.len() as f64
        }
    }

    /// Maximum value (`0` for an empty series).
    pub fn max(&self) -> f64 {
        self.points.iter().map(|(_, v)| *v).fold(0.0, f64::max)
    }

    /// Renders the series as a gnuplot-friendly two-column block.
    pub fn to_table(&self) -> String {
        let mut out = format!("# {}\n", self.label);
        for (t, v) in &self.points {
            out.push_str(&format!("{t:.3}\t{v:.3}\n"));
        }
        out
    }
}

impl FromIterator<(f64, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        TimeSeries {
            label: String::from("series"),
            points: iter.into_iter().collect(),
        }
    }
}

impl Extend<(f64, f64)> for TimeSeries {
    fn extend<I: IntoIterator<Item = (f64, f64)>>(&mut self, iter: I) {
        self.points.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut s = TimeSeries::new("llcm");
        s.push(0.0, 10.0);
        s.push(1.0, 20.0);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.points()[1], (1.0, 20.0));
        assert_eq!(s.values(), vec![10.0, 20.0]);
        assert_eq!(s.label(), "llcm");
    }

    #[test]
    fn statistics() {
        let mut s = TimeSeries::new("x");
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
        s.extend(vec![(0.0, 2.0), (1.0, 4.0), (2.0, 6.0)]);
        assert!((s.mean() - 4.0).abs() < 1e-12);
        assert_eq!(s.max(), 6.0);
    }

    #[test]
    fn collect_and_table_rendering() {
        let s: TimeSeries = vec![(0.0, 1.0), (1.0, 2.0)].into_iter().collect();
        assert_eq!(s.len(), 2);
        let table = s.to_table();
        assert!(table.starts_with("# series\n"));
        assert!(table.contains("0.000\t1.000"));
        assert!(table.contains("1.000\t2.000"));
    }
}
