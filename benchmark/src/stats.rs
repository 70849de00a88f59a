//! Small order statistics the harness reports with.

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile not above `wanted` that still has at least ten
/// samples beyond it, so a reported tail is never a single outlier (with 60
/// samples a "p99" is the maximum). Falls back to the median.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    const CANDIDATES: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    CANDIDATES
        .into_iter()
        .find(|&p| p <= wanted && n > 0 && samples_beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile over a histogram (`counts[v]` samples of value
/// `v`), the sorted-sample rule of `aboram_service::percentile`.
pub fn histogram_percentile(counts: &[u64], p: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    assert!(total > 0, "percentile of an empty histogram");
    let rank = ((p / 100.0 * total as f64).ceil() as u64).clamp(1, total);
    let mut acc = 0;
    for (value, &count) in counts.iter().enumerate() {
        acc += count;
        if acc >= rank {
            return value as u64;
        }
    }
    unreachable!("rank is at most the total")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_keeps_ten_samples_beyond() {
        // 60 samples: p99 would be the maximum; p75 leaves 15 beyond.
        assert_eq!(supported_percentile(60, 99.0), 75.0);
        // 1 000 samples: exactly ten lie beyond p99.
        assert_eq!(supported_percentile(1_000, 99.0), 99.0);
        assert_eq!(supported_percentile(999, 99.0), 95.0);
        // The picker never exceeds what was asked for.
        assert_eq!(supported_percentile(1_000_000, 99.0), 99.0);
        assert_eq!(supported_percentile(1_000_000, 99.99), 99.99);
        // Too few samples for any tail: the median.
        assert_eq!(supported_percentile(12, 99.0), 50.0);
        for n in [20usize, 60, 999, 1_000, 10_000, 200_000] {
            let p = supported_percentile(n, 99.0);
            assert!(p == 50.0 || samples_beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn histogram_percentile_matches_sorted_sample_rule() {
        let sample: Vec<u64> = vec![1, 1, 2, 5, 5, 5, 9, 9, 9, 9];
        let mut counts = vec![0u64; 10];
        for &v in &sample {
            counts[v as usize] += 1;
        }
        for p in [1.0, 10.0, 50.0, 60.0, 61.0, 99.0, 100.0] {
            assert_eq!(histogram_percentile(&counts, p), aboram_service::percentile(&sample, p));
        }
    }
}
