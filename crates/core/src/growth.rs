//! Lazy capacity growth: the [`DynamicTree`] controller and the
//! deterministic leaf-relabel functions.
//!
//! Growing an `L`-level tree to `L + 1` levels doubles the leaf space.
//! The binary-tree addressing makes this cheap: a block mapped to leaf
//! `p` extends to leaf `2p + b` for a fresh bit `b`, and because
//! `bucket_on_path(path, level) = leaf >> (levels - 1 - level)` the block's
//! path through all *existing* levels is unchanged — every block already
//! resident in a bucket is still on its own path after the grow. No block
//! needs to move; only labels (client-side) and the per-bucket persisted
//! metadata need refreshing.
//!
//! The relabel bit is a *pure function* of `(seed, old_levels, block)` so
//! that any party holding the seed — the engine, a differential test, or
//! the service layer translating a stale recursive-posmap entry — derives
//! the same extended label without communicating ([`extend_label`]).
//!
//! The metadata refresh is the *relocation backlog*: after a grow, every
//! pre-existing bucket must be rewritten once under the new geometry (its
//! stored labels re-encrypted against the new leaf space, and its slot
//! count upgraded where the per-level configuration changed). The
//! [`DynamicTree`] controller tracks that backlog as a bitset and doles
//! out a bounded number of bucket refreshes per access — no access ever
//! blocks on a resize.

use crate::BlockId;

/// Derives the deterministic leaf-extension bit for `block` when a tree
/// grows from `old_levels` to `old_levels + 1` levels (splitmix64-style
/// mix of the seed, the epoch's level count and the block id).
fn growth_bit(seed: u64, old_levels: u8, block: BlockId) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(old_levels)))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(block.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z & 1
}

/// Extends a leaf label recorded when the tree had `from_levels` levels to
/// the leaf space of `to_levels` levels by replaying every epoch's
/// `growth_bit`. Identity when `from_levels == to_levels`.
pub fn extend_label(label: u64, from_levels: u8, to_levels: u8, seed: u64, block: BlockId) -> u64 {
    debug_assert!(from_levels <= to_levels);
    let mut leaf = label;
    for lv in from_levels..to_levels {
        leaf = (leaf << 1) | growth_bit(seed, lv, block);
    }
    leaf
}

/// Per-engine growth state: epochs performed plus the relocation backlog.
///
/// The backlog is a bitset over the bucket ids that existed before the
/// most recent grow. A set bit means the bucket's persisted image still
/// reflects the old geometry; it is cleared either by the incremental
/// drain (a bounded number of bucket refreshes folded into each access)
/// or for free when the bucket is rebuilt by the ordinary protocol
/// (eviction or early reshuffle rewrite the whole bucket anyway).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicTree {
    /// Completed growth epochs (level additions).
    epochs: u64,
    /// One bit per bucket raw id; set = persisted image predates the grow.
    stale: Vec<u64>,
    /// Number of set bits in `stale`.
    remaining: u64,
    /// Drain cursor: all raw ids below it are clear.
    cursor: u64,
    /// Buckets refreshed by the incremental drain (not by normal rebuilds).
    relocations: u64,
}

impl DynamicTree {
    /// Fresh controller: no epochs, empty backlog.
    pub fn new() -> Self {
        DynamicTree { epochs: 0, stale: Vec::new(), remaining: 0, cursor: 0, relocations: 0 }
    }

    /// Records a grow: every bucket in `0..old_bucket_count` becomes
    /// stale. Stacking a second grow onto an undrained backlog is legal —
    /// the new (larger) backlog subsumes the old one because label reads
    /// are routed through the position map, never through stale storage.
    pub fn begin_epoch(&mut self, old_bucket_count: u64) {
        self.epochs += 1;
        let words = old_bucket_count.div_ceil(64) as usize;
        self.stale.clear();
        self.stale.resize(words, !0u64);
        // Clear the padding bits past the last bucket.
        let tail = (old_bucket_count % 64) as usize;
        if tail != 0 {
            if let Some(last) = self.stale.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        self.remaining = old_bucket_count;
        self.cursor = 0;
    }

    /// Completed growth epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Buckets whose persisted image still predates the last grow.
    pub fn backlog(&self) -> u64 {
        self.remaining
    }

    /// Buckets refreshed by the incremental drain.
    pub fn relocations(&self) -> u64 {
        self.relocations
    }

    /// Clears `raw` from the backlog if present; returns whether it was
    /// set. Called by the ordinary rebuild path, which refreshes the
    /// bucket as a side effect.
    pub fn clear_if_stale(&mut self, raw: u64) -> bool {
        let (w, b) = ((raw / 64) as usize, raw % 64);
        match self.stale.get_mut(w) {
            Some(word) if *word & (1u64 << b) != 0 => {
                *word &= !(1u64 << b);
                self.remaining -= 1;
                true
            }
            _ => false,
        }
    }

    /// Takes the next stale bucket for the incremental drain, clearing it
    /// and counting the relocation. Returns `None` once the backlog is
    /// empty.
    pub fn take_next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        let total_bits = (self.stale.len() * 64) as u64;
        while self.cursor < total_bits {
            let (w, b) = ((self.cursor / 64) as usize, self.cursor % 64);
            let word = self.stale[w] >> b;
            if word == 0 {
                // Skip to the next word boundary.
                self.cursor = (self.cursor | 63) + 1;
                continue;
            }
            let raw = self.cursor + u64::from(word.trailing_zeros());
            self.cursor = raw + 1;
            let (w, b) = ((raw / 64) as usize, raw % 64);
            self.stale[w] &= !(1u64 << b);
            self.remaining -= 1;
            self.relocations += 1;
            return Some(raw);
        }
        // Cursor exhausted but bits remain below it (cleared-and-re-marked
        // patterns cannot produce this; defensive reset).
        self.cursor = 0;
        self.take_next()
    }
}

impl Default for DynamicTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_label_is_deterministic_and_prefix_preserving() {
        for block in 0..64u64 {
            let l8 = block % 128;
            let l10 = extend_label(l8, 8, 10, 42, block);
            // Two single steps equal one double step.
            let step = extend_label(extend_label(l8, 8, 9, 42, block), 9, 10, 42, block);
            assert_eq!(l10, step);
            // The old label is the high bits of the new one.
            assert_eq!(l10 >> 2, l8);
            assert_eq!(extend_label(l8, 8, 8, 42, block), l8, "identity at equal levels");
        }
    }

    #[test]
    fn growth_bits_are_mixed() {
        let ones: u64 = (0..1000).map(|b| growth_bit(7, 9, b)).sum();
        assert!((300..700).contains(&ones), "biased growth bits: {ones}/1000");
        assert_ne!(
            (0..64).map(|b| growth_bit(1, 8, b)).collect::<Vec<_>>(),
            (0..64).map(|b| growth_bit(2, 8, b)).collect::<Vec<_>>(),
            "seed must matter"
        );
    }

    #[test]
    fn backlog_drains_exactly_once_per_bucket() {
        let mut dt = DynamicTree::new();
        dt.begin_epoch(130);
        assert_eq!(dt.backlog(), 130);
        assert!(!dt.clear_if_stale(130), "past the epoch's buckets");
        // Ordinary rebuild clears a few for free.
        assert!(dt.clear_if_stale(5));
        assert!(!dt.clear_if_stale(5), "second clear is a no-op");
        let mut seen = Vec::new();
        while let Some(raw) = dt.take_next() {
            seen.push(raw);
        }
        assert_eq!(seen.len(), 129);
        assert!(!seen.contains(&5));
        assert_eq!(dt.backlog(), 0);
        assert_eq!(dt.relocations(), 129);
        assert!(dt.take_next().is_none());
    }

    #[test]
    fn stacked_epochs_subsume_the_backlog() {
        let mut dt = DynamicTree::new();
        dt.begin_epoch(10);
        for _ in 0..4 {
            dt.take_next();
        }
        dt.begin_epoch(21);
        assert_eq!(dt.epochs(), 2);
        assert_eq!(dt.backlog(), 21, "second epoch re-marks everything");
        let mut n = 0;
        while dt.take_next().is_some() {
            n += 1;
        }
        assert_eq!(n, 21);
    }
}
