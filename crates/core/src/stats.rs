//! Protocol-level statistics the paper's figures are built from.

use aboram_stats::{LevelHistogram, MinAvgMax, RecoveryStats};
use aboram_tree::Level;
use std::collections::HashMap;

/// Counters and trackers maintained by the Ring ORAM engine.
///
/// * dead-block census per level (Fig. 2, Fig. 3),
/// * reshuffles per level (Fig. 10),
/// * dead-block lifetimes per level (Fig. 12, opt-in),
/// * S-extension success ratio (Fig. 14),
/// * operation counts and stash pressure.
#[derive(Debug, Clone, PartialEq)]
pub struct OramStats {
    levels: u8,
    /// User-visible online accesses (excludes background dummies).
    pub user_accesses: u64,
    /// Dummy accesses injected for background eviction.
    pub background_accesses: u64,
    /// evictPath operations performed.
    pub evict_paths: u64,
    /// earlyReshuffle operations, per level.
    pub reshuffles: LevelHistogram,
    /// Current dead (invalid) physical slots, per level.
    pub dead_blocks: LevelHistogram,
    /// Bucket refreshes at DR levels that successfully extended S.
    pub extensions_done: u64,
    /// Bucket refreshes at DR levels (extension attempts).
    pub extensions_attempted: u64,
    /// Dead-block lifetime per level, in online accesses (populated only
    /// when lifetime tracking is enabled).
    pub lifetimes: Vec<MinAvgMax>,
    /// Death timestamps of currently dead physical slots, keyed by
    /// `(bucket, own-slot)` — present only when lifetime tracking is on.
    death_times: Option<HashMap<(u64, u8), u64>>,
    /// Number of readPaths served entirely from the stash.
    pub stash_hits: u64,
    /// Block reads that resolved to a remote (borrowed) slot — the traffic
    /// whose scattered addresses cause DR's row-buffer overhead (§V-D).
    pub remote_slot_reads: u64,
    /// Histogram of stash occupancy sampled after every user access
    /// (bucket i counts samples with occupancy i; last bucket saturates).
    stash_occupancy: Vec<u64>,
    /// Fault-recovery counters (all zero unless fault injection is active).
    pub recovery: RecoveryStats,
    /// Blocks the data path sealed into memory: one per rebuilt slot whose
    /// plaintext is not the zero block (dummies and zero blocks keep no
    /// bytes, so they cost no seal).
    pub blocks_sealed: u64,
    /// Blocks the data path verified and decrypted: one per block fetch.
    pub blocks_opened: u64,
}

impl OramStats {
    /// Creates zeroed statistics for a tree of `levels` levels.
    pub fn new(levels: u8, track_lifetimes: bool) -> Self {
        OramStats {
            levels,
            user_accesses: 0,
            background_accesses: 0,
            evict_paths: 0,
            reshuffles: LevelHistogram::new("earlyReshuffles", levels),
            dead_blocks: LevelHistogram::new("dead blocks", levels),
            extensions_done: 0,
            extensions_attempted: 0,
            lifetimes: vec![MinAvgMax::new(); levels as usize],
            death_times: track_lifetimes.then(HashMap::new),
            stash_hits: 0,
            remote_slot_reads: 0,
            stash_occupancy: vec![0; 1024],
            recovery: RecoveryStats::new(),
            blocks_sealed: 0,
            blocks_opened: 0,
        }
    }

    /// Records one stash-occupancy sample.
    pub fn sample_stash(&mut self, occupancy: usize) {
        let i = occupancy.min(self.stash_occupancy.len() - 1);
        self.stash_occupancy[i] += 1;
    }

    /// The smallest occupancy `x` such that at least `p` (0..=1) of the
    /// samples are ≤ `x` — e.g. `stash_percentile(0.999)` for tail sizing.
    pub fn stash_percentile(&self, p: f64) -> Option<usize> {
        let total: u64 = self.stash_occupancy.iter().sum();
        if total == 0 {
            return None;
        }
        let target = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, &count) in self.stash_occupancy.iter().enumerate() {
            acc += count;
            if acc >= target {
                return Some(i);
            }
        }
        Some(self.stash_occupancy.len() - 1)
    }

    /// Mean sampled stash occupancy.
    pub fn stash_mean(&self) -> f64 {
        let total: u64 = self.stash_occupancy.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 =
            self.stash_occupancy.iter().enumerate().map(|(i, &c)| i as u64 * c).sum();
        weighted as f64 / total as f64
    }

    /// Total online accesses including background dummies (the paper's
    /// x-axis unit).
    pub fn online_accesses(&self) -> u64 {
        self.user_accesses + self.background_accesses
    }

    /// Total dead slots across the tree right now.
    pub fn dead_total(&self) -> u64 {
        self.dead_blocks.total()
    }

    /// Fraction of DR refreshes that extended S (Fig. 14's ratio).
    pub fn extension_ratio(&self) -> f64 {
        if self.extensions_attempted == 0 {
            0.0
        } else {
            self.extensions_done as f64 / self.extensions_attempted as f64
        }
    }

    /// Records the death of a physical slot at `level`.
    pub fn slot_died(&mut self, level: Level, bucket_raw: u64, slot: u8, now: u64) {
        self.dead_blocks.add(level.0, 1);
        if let Some(map) = &mut self.death_times {
            map.insert((bucket_raw, slot), now);
        }
    }

    /// Records the revival (home-bucket rewrite) of a dead slot.
    pub fn slot_revived(&mut self, level: Level, bucket_raw: u64, slot: u8, now: u64) {
        self.dead_blocks.sub(level.0, 1);
        if let Some(map) = &mut self.death_times {
            if let Some(died) = map.remove(&(bucket_raw, slot)) {
                self.lifetimes[level.0 as usize].record((now - died) as f64);
            }
        }
    }

    /// Records the early *reuse* of a dead slot by remote allocation: ends
    /// its lifetime sample without removing it from the dead census (the
    /// slot still counts as reclaimed-dead space until its home rewrites
    /// it).
    pub fn slot_reused(&mut self, level: Level, bucket_raw: u64, slot: u8, now: u64) {
        if let Some(map) = &mut self.death_times {
            if let Some(died) = map.remove(&(bucket_raw, slot)) {
                self.lifetimes[level.0 as usize].record((now - died) as f64);
            }
        }
    }

    /// Number of tree levels covered.
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Extends every per-level tracker with one zeroed leaf-level slot —
    /// an auto-scaling tree grew a level. Accumulated history for the
    /// existing levels is preserved (level ids are depths from the root,
    /// which a grow never changes).
    pub(crate) fn grow_level(&mut self) {
        self.levels += 1;
        self.reshuffles.push_level();
        self.dead_blocks.push_level();
        self.lifetimes.push(MinAvgMax::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_census_and_lifetimes() {
        let mut s = OramStats::new(4, true);
        s.slot_died(Level(3), 10, 0, 100);
        s.slot_died(Level(3), 10, 1, 150);
        assert_eq!(s.dead_total(), 2);
        s.slot_revived(Level(3), 10, 0, 400);
        assert_eq!(s.dead_total(), 1);
        let lt = &s.lifetimes[3];
        assert_eq!(lt.count(), 1);
        assert_eq!(lt.avg(), Some(300.0));
    }

    #[test]
    fn lifetimes_disabled_skips_tracking() {
        let mut s = OramStats::new(4, false);
        s.slot_died(Level(2), 5, 0, 10);
        s.slot_revived(Level(2), 5, 0, 90);
        assert_eq!(s.lifetimes[2].count(), 0, "no lifetime samples when disabled");
        assert_eq!(s.dead_total(), 0, "census still maintained");
    }

    #[test]
    fn extension_ratio() {
        let mut s = OramStats::new(4, false);
        assert_eq!(s.extension_ratio(), 0.0);
        s.extensions_attempted = 4;
        s.extensions_done = 3;
        assert!((s.extension_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn online_access_accounting() {
        let mut s = OramStats::new(4, false);
        s.user_accesses = 10;
        s.background_accesses = 2;
        assert_eq!(s.online_accesses(), 12);
    }
}

#[cfg(test)]
mod stash_sampling_tests {
    use super::*;

    #[test]
    fn percentiles_and_mean() {
        let mut s = OramStats::new(4, false);
        assert_eq!(s.stash_percentile(0.5), None);
        for occ in [1usize, 2, 3, 4, 100] {
            s.sample_stash(occ);
        }
        assert_eq!(s.stash_percentile(0.0), Some(1));
        assert_eq!(s.stash_percentile(0.5), Some(3));
        assert_eq!(s.stash_percentile(1.0), Some(100));
        assert!((s.stash_mean() - 22.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_samples_saturate() {
        let mut s = OramStats::new(4, false);
        s.sample_stash(1_000_000);
        assert_eq!(s.stash_percentile(1.0), Some(1023));
    }
}
