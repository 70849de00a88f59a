//! Time-series collection (Fig. 2 style data).

use std::fmt::Write as _;

/// A named series of `(x, y)` samples, e.g. "dead blocks" sampled against
/// "online accesses".
///
/// # Example
///
/// ```
/// use aboram_stats::TimeSeries;
///
/// let mut s = TimeSeries::new("mcf", "online accesses", "dead blocks");
/// s.push(1_000_000.0, 2.5e6);
/// s.push(2_000_000.0, 4.1e6);
/// assert_eq!(s.len(), 2);
/// assert!(s.to_csv().starts_with("online accesses,dead blocks"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    x_label: String,
    y_label: String,
    samples: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with axis labels.
    pub fn new(
        name: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        TimeSeries {
            name: name.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            samples: Vec::new(),
        }
    }

    /// The series name (typically a benchmark or scheme name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    pub fn push(&mut self, x: f64, y: f64) {
        self.samples.push((x, y));
    }

    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples.
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }

    /// Mean of y over the trailing `n` samples (used to report "stable"
    /// values the way the paper quotes post-warm-up numbers).
    pub fn tail_mean(&self, n: usize) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let start = self.samples.len().saturating_sub(n.max(1));
        let tail = &self.samples[start..];
        Some(tail.iter().map(|&(_, y)| y).sum::<f64>() / tail.len() as f64)
    }

    /// Averages several series point-wise (they must share x grids), e.g.
    /// the "average of all benchmarks" line in Fig. 2.
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty or the series have differing lengths.
    pub fn average(name: impl Into<String>, series: &[TimeSeries]) -> TimeSeries {
        assert!(!series.is_empty(), "cannot average zero series");
        let len = series[0].len();
        assert!(series.iter().all(|s| s.len() == len), "series length mismatch");
        let mut out = TimeSeries::new(name, series[0].x_label.clone(), series[0].y_label.clone());
        for i in 0..len {
            let x = series[0].samples[i].0;
            let y = series.iter().map(|s| s.samples[i].1).sum::<f64>() / series.len() as f64;
            out.push(x, y);
        }
        out
    }

    /// Renders the series as two-column CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{},{}", self.x_label, self.y_label);
        for &(x, y) in &self.samples {
            let _ = writeln!(out, "{x},{y}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_inspect() {
        let mut s = TimeSeries::new("a", "x", "y");
        assert!(s.is_empty());
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.samples()[0], (1.0, 10.0));
    }

    #[test]
    fn tail_mean_windows() {
        let mut s = TimeSeries::new("a", "x", "y");
        for i in 0..10 {
            s.push(i as f64, i as f64);
        }
        assert_eq!(s.tail_mean(2), Some(8.5));
        assert_eq!(s.tail_mean(100), Some(4.5));
        assert_eq!(TimeSeries::new("e", "x", "y").tail_mean(3), None);
    }

    #[test]
    fn average_of_series() {
        let mut a = TimeSeries::new("a", "x", "y");
        let mut b = TimeSeries::new("b", "x", "y");
        a.push(0.0, 2.0);
        a.push(1.0, 4.0);
        b.push(0.0, 6.0);
        b.push(1.0, 8.0);
        let avg = TimeSeries::average("avg", &[a, b]);
        assert_eq!(avg.samples(), &[(0.0, 4.0), (1.0, 6.0)]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn average_rejects_mismatched() {
        let mut a = TimeSeries::new("a", "x", "y");
        a.push(0.0, 1.0);
        let b = TimeSeries::new("b", "x", "y");
        let _ = TimeSeries::average("avg", &[a, b]);
    }

    #[test]
    fn csv_round_shape() {
        let mut s = TimeSeries::new("a", "t", "v");
        s.push(1.0, 2.0);
        assert_eq!(s.to_csv(), "t,v\n1,2\n");
    }
}
