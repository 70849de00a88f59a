//! Scalar summaries: means, normalization, min/avg/max tracking.

/// Arithmetic mean of a slice; `0.0` for an empty slice.
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of a slice of positive values; `0.0` for an empty slice.
///
/// Normalized performance results across benchmark suites are conventionally
/// summarized with the geometric mean.
///
/// # Panics
///
/// Panics in debug builds if any value is non-positive.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    debug_assert!(values.iter().all(|&v| v > 0.0), "geometric mean needs positive values");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Streaming min/avg/max tracker (Fig. 12's three lifetime lines).
///
/// # Example
///
/// ```
/// use aboram_stats::MinAvgMax;
///
/// let mut t = MinAvgMax::default();
/// t.record(10.0);
/// t.record(2.0);
/// t.record(6.0);
/// assert_eq!(t.min(), Some(2.0));
/// assert_eq!(t.max(), Some(10.0));
/// assert_eq!(t.avg(), Some(6.0));
/// assert_eq!(t.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MinAvgMax {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl MinAvgMax {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.sum += value;
        self.count += 1;
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation, if any were recorded.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any were recorded.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, if any were recorded.
    pub fn avg(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Merges another tracker's observations into this one.
    pub fn merge(&mut self, other: &MinAvgMax) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert_eq!(arithmetic_mean(&[]), 0.0);
        assert_eq!(arithmetic_mean(&[1.0, 3.0]), 2.0);
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_reports_none() {
        let t = MinAvgMax::new();
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
        assert_eq!(t.avg(), None);
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn merge_combines() {
        let mut a = MinAvgMax::new();
        a.record(1.0);
        let mut b = MinAvgMax::new();
        b.record(9.0);
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(9.0));
        assert_eq!(a.avg(), Some(5.0));
        // Merging an empty tracker changes nothing.
        a.merge(&MinAvgMax::new());
        assert_eq!(a.count(), 3);
        // Merging into an empty tracker copies.
        let mut c = MinAvgMax::new();
        c.merge(&a);
        assert_eq!(c.count(), 3);
    }
}
