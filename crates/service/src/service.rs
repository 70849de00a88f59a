//! The latency reporting the load generators share.

/// Latency distribution summary for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyReport {
    /// Completions observed.
    pub count: usize,
    /// Mean latency.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst case.
    pub max: u64,
}

impl LatencyReport {
    /// Summarizes a latency sample; `None` when empty.
    pub fn from_latencies(mut lat: Vec<u64>) -> Option<Self> {
        if lat.is_empty() {
            return None;
        }
        lat.sort_unstable();
        let count = lat.len();
        let sum: u64 = lat.iter().sum();
        Some(LatencyReport {
            count,
            mean: sum as f64 / count as f64,
            p50: percentile(&lat, 50.0),
            p95: percentile(&lat, 95.0),
            p99: percentile(&lat, 99.0),
            max: *lat.last().unwrap(),
        })
    }
}

/// Nearest-rank percentile over an ascending-sorted sample.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile rank out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_report_percentiles() {
        let lat: Vec<u64> = (1..=100).collect();
        let r = LatencyReport::from_latencies(lat).unwrap();
        assert_eq!(r.count, 100);
        assert_eq!(r.p50, 50);
        assert_eq!(r.p95, 95);
        assert_eq!(r.p99, 99);
        assert_eq!(r.max, 100);
        assert!((r.mean - 50.5).abs() < 1e-9);
        assert_eq!(LatencyReport::from_latencies(vec![]), None);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[42], 50.0), 42);
        assert_eq!(percentile(&[42], 99.0), 42);
    }
}
