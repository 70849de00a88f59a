//! Per-tree-level accumulators (Fig. 3, Fig. 10 style data).

use std::fmt::Write as _;

/// An accumulator with one `u64` bin per tree level.
///
/// # Example
///
/// ```
/// use aboram_stats::LevelHistogram;
///
/// let mut h = LevelHistogram::new("reshuffles", 24);
/// h.add(23, 10);
/// h.add(23, 5);
/// assert_eq!(h.get(23), 15);
/// assert_eq!(h.total(), 15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelHistogram {
    name: String,
    bins: Vec<u64>,
}

impl LevelHistogram {
    /// Creates a histogram with `levels` zeroed bins.
    pub fn new(name: impl Into<String>, levels: u8) -> Self {
        LevelHistogram { name: name.into(), bins: vec![0; levels as usize] }
    }

    /// The histogram's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of levels (bins).
    pub fn levels(&self) -> u8 {
        self.bins.len() as u8
    }

    /// Adds `amount` to the bin for `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range (caller bug).
    pub fn add(&mut self, level: u8, amount: u64) {
        self.bins[level as usize] += amount;
    }

    /// Subtracts `amount` from the bin for `level`, saturating at zero.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range (caller bug).
    pub fn sub(&mut self, level: u8, amount: u64) {
        let bin = &mut self.bins[level as usize];
        *bin = bin.saturating_sub(amount);
    }

    /// Current value of the bin for `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range (caller bug).
    pub fn get(&self, level: u8) -> u64 {
        self.bins[level as usize]
    }

    /// Sum over all bins.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// All bins, root (level 0) first.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Appends one zeroed bin — an auto-scaling tree grew a level.
    pub fn push_level(&mut self) {
        self.bins.push(0);
    }

    /// Element-wise accumulation of `other` into `self` (windowed telemetry
    /// snapshots merge shards this way).
    ///
    /// # Panics
    ///
    /// Panics if the level counts differ (caller bug).
    pub fn merge(&mut self, other: &LevelHistogram) {
        assert_eq!(self.levels(), other.levels(), "level count mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }

    /// Element-wise `self - base`, saturating at zero per bin — the delta
    /// between two snapshots of a monotone accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the level counts differ (caller bug).
    pub fn delta(&self, base: &LevelHistogram) -> LevelHistogram {
        assert_eq!(self.levels(), base.levels(), "level count mismatch");
        let mut out = LevelHistogram::new(self.name.clone(), self.levels());
        for (i, (a, b)) in self.bins.iter().zip(&base.bins).enumerate() {
            out.bins[i] = a.saturating_sub(*b);
        }
        out
    }

    /// Element-wise sum of several histograms (suite averages use this and
    /// then divide).
    ///
    /// # Panics
    ///
    /// Panics if `hists` is empty or level counts differ.
    pub fn sum(name: impl Into<String>, hists: &[LevelHistogram]) -> LevelHistogram {
        assert!(!hists.is_empty());
        let levels = hists[0].levels();
        assert!(hists.iter().all(|h| h.levels() == levels), "level count mismatch");
        let mut out = LevelHistogram::new(name, levels);
        for h in hists {
            for (i, v) in h.bins.iter().enumerate() {
                out.bins[i] += v;
            }
        }
        out
    }

    /// Renders as CSV: `level,value` rows with a header.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("level,");
        let _ = writeln!(out, "{}", self.name);
        for (i, v) in self.bins.iter().enumerate() {
            let _ = writeln!(out, "{i},{v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_get() {
        let mut h = LevelHistogram::new("x", 4);
        h.add(0, 3);
        h.add(3, 7);
        h.sub(3, 2);
        h.sub(1, 100); // saturates
        assert_eq!(h.get(0), 3);
        assert_eq!(h.get(1), 0);
        assert_eq!(h.get(3), 5);
        assert_eq!(h.total(), 8);
    }

    #[test]
    #[should_panic]
    fn out_of_range_level_panics() {
        let mut h = LevelHistogram::new("x", 4);
        h.add(4, 1);
    }

    #[test]
    fn sum_elementwise() {
        let mut a = LevelHistogram::new("a", 2);
        let mut b = LevelHistogram::new("b", 2);
        a.add(0, 1);
        b.add(0, 2);
        b.add(1, 5);
        let s = LevelHistogram::sum("s", &[a, b]);
        assert_eq!(s.bins(), &[3, 5]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LevelHistogram::new("a", 3);
        let mut b = LevelHistogram::new("b", 3);
        a.add(0, 1);
        b.add(0, 2);
        b.add(2, 4);
        a.merge(&b);
        assert_eq!(a.bins(), &[3, 0, 4]);
    }

    #[test]
    fn delta_subtracts_saturating() {
        let mut now = LevelHistogram::new("x", 3);
        let mut base = LevelHistogram::new("x", 3);
        now.add(0, 5);
        now.add(1, 2);
        base.add(0, 3);
        base.add(1, 7); // base larger: saturates to 0
        let d = now.delta(&base);
        assert_eq!(d.bins(), &[2, 0, 0]);
        assert_eq!(d.name(), "x");
    }

    #[test]
    #[should_panic(expected = "level count mismatch")]
    fn merge_rejects_mismatched_levels() {
        let mut a = LevelHistogram::new("a", 2);
        let b = LevelHistogram::new("b", 3);
        a.merge(&b);
    }

    #[test]
    fn csv_shape() {
        let mut h = LevelHistogram::new("dead", 2);
        h.add(1, 9);
        assert_eq!(h.to_csv(), "level,dead\n0,0\n1,9\n");
    }
}
