//! The on-chip stash.
//!
//! Blocks live in dense, contiguous arrays — ids and labels side by side,
//! one position per buffered block, plus a payload column only when the
//! engine has a data path — so an evictPath's scan reads nothing but the
//! label array. Every position is also threaded onto one of at most
//! 2^[`BIN_BITS`] doubly-linked *bins*, keyed by the top bits of its leaf
//! label. A stash label always equals the block's position-map label, so
//! every caller knows the label of the block it looks up: a lookup walks
//! that label's bin, and an earlyReshuffle's lone bucket reads only the bins
//! under it. See DESIGN.md §8, "Stash layout and the one-pass eviction
//! plan".

use crate::{BlockId, BLOCK_BYTES};
use aboram_telemetry as telemetry;
use aboram_tree::PathId;

/// One block buffered in the stash: its current path label and (optionally)
/// its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StashBlock {
    /// The block's logical id.
    pub block: BlockId,
    /// The path the block is mapped to.
    pub label: PathId,
    /// Block contents when the data path is enabled; zeroes otherwise.
    pub data: [u8; BLOCK_BYTES],
}

/// Label bits that choose a block's bin: 64 bins, or one per leaf on a tree
/// with fewer leaves.
const BIN_BITS: u8 = 6;
/// The end of a bin list.
const NIL: u32 = u32::MAX;

/// A position's neighbours on its bin list ([`NIL`] at either end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link {
    prev: u32,
    next: u32,
}

/// Fixed-capacity stash with peak-occupancy tracking.
///
/// Ring ORAM's stash buffers blocks between a readPath and a later eviction.
/// Overflow is a protocol failure; the CB baseline prevents it with
/// background eviction above a threshold (§III-C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stash {
    /// Dense storage: position `i` holds block `ids[i]` with `labels[i]`
    /// (and `data[i]`). A removal moves the last position into the vacated
    /// one.
    ids: Vec<BlockId>,
    labels: Vec<PathId>,
    /// The payload column: index for index with `ids` when the stash keeps
    /// payloads, never allocated when it does not.
    data: Vec<[u8; BLOCK_BYTES]>,
    /// Position `i`'s neighbours on the bin of `labels[i]`.
    links: Vec<Link>,
    /// Each bin's first position, or [`NIL`].
    heads: Vec<u32>,
    /// Leaf bits of a label (`levels − 1`).
    leaf_bits: u8,
    keep_data: bool,
    capacity: usize,
    peak: usize,
}

impl Stash {
    /// Creates an empty stash with the given capacity for a tree of
    /// `levels` levels. Payloads are kept only with `keep_data` (the
    /// engine's data path); without it every payload reads as zeroes.
    pub fn new(capacity: usize, levels: u8, keep_data: bool) -> Self {
        let mut stash = Stash {
            ids: Vec::new(),
            labels: Vec::new(),
            data: Vec::new(),
            links: Vec::new(),
            heads: Vec::new(),
            leaf_bits: 0,
            keep_data,
            capacity,
            peak: 0,
        };
        stash.set_levels(levels);
        stash
    }

    /// Sizes the bins for a tree of `levels` levels, every bin empty.
    fn set_levels(&mut self, levels: u8) {
        self.leaf_bits = levels.saturating_sub(1);
        self.heads.clear();
        self.heads.resize(1 << self.bin_bits(), NIL);
    }

    /// Current number of buffered blocks.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the stash holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest occupancy ever observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Whether occupancy currently exceeds the stash's capacity — the
    /// condition the engine reports as [`crate::OramError::StashOverflow`].
    pub fn overflowed(&self) -> bool {
        self.len() > self.capacity
    }

    /// Label bits that choose a bin on this tree.
    #[inline]
    fn bin_bits(&self) -> u8 {
        self.leaf_bits.min(BIN_BITS)
    }

    /// The bin of `label`: its top [`bin_bits`](Self::bin_bits) bits.
    #[inline]
    fn bin(&self, label: PathId) -> usize {
        (label.leaf() >> (self.leaf_bits - self.bin_bits())) as usize
    }

    /// The position of `block`, looked up on the bin of `label`.
    #[inline]
    fn find(&self, block: BlockId, label: PathId) -> Option<usize> {
        let mut pos = self.heads[self.bin(label)];
        while pos != NIL {
            let at = pos as usize;
            if self.ids[at] == block {
                return Some(at);
            }
            pos = self.links[at].next;
        }
        None
    }

    /// Puts position `pos` at the head of its label's bin.
    #[inline]
    fn link(&mut self, pos: usize) {
        let bin = self.bin(self.labels[pos]);
        let head = self.heads[bin];
        self.links[pos] = Link { prev: NIL, next: head };
        if head != NIL {
            self.links[head as usize].prev = pos as u32;
        }
        self.heads[bin] = pos as u32;
    }

    /// Takes position `pos` off its label's bin.
    #[inline]
    fn unlink(&mut self, pos: usize) {
        let Link { prev, next } = self.links[pos];
        if prev == NIL {
            let bin = self.bin(self.labels[pos]);
            self.heads[bin] = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if next != NIL {
            self.links[next as usize].prev = prev;
        }
    }

    /// Points the neighbours of position `pos` back at it, after a removal
    /// moved a block (and its link) there.
    #[inline]
    fn relink(&mut self, pos: usize) {
        let Link { prev, next } = self.links[pos];
        if prev == NIL {
            let bin = self.bin(self.labels[pos]);
            self.heads[bin] = pos as u32;
        } else {
            self.links[prev as usize].next = pos as u32;
        }
        if next != NIL {
            self.links[next as usize].prev = pos as u32;
        }
    }

    /// Buffers a block that is not in the stash.
    pub fn insert(&mut self, block: BlockId, label: PathId, data: &[u8; BLOCK_BYTES]) {
        debug_assert!(self.find(block, label).is_none(), "block {block} is already buffered");
        debug_assert!(self.ids.len() < NIL as usize);
        self.ids.push(block);
        self.labels.push(label);
        if self.keep_data {
            self.data.push(*data);
        }
        self.links.push(Link { prev: NIL, next: NIL });
        self.link(self.ids.len() - 1);
        self.peak = self.peak.max(self.ids.len());
    }

    /// Replaces the payload of `block`, buffered under `label` (a no-op
    /// without a payload column). Returns whether the block is buffered.
    pub fn set_data(&mut self, block: BlockId, label: PathId, data: &[u8; BLOCK_BYTES]) -> bool {
        let Some(pos) = self.find(block, label) else { return false };
        if self.keep_data {
            self.data[pos] = *data;
        }
        true
    }

    #[inline]
    fn block_at(&self, pos: usize) -> StashBlock {
        StashBlock {
            block: self.ids[pos],
            label: self.labels[pos],
            data: self.data.get(pos).copied().unwrap_or([0; BLOCK_BYTES]),
        }
    }

    /// Whether `block` is buffered under `label`.
    #[inline]
    pub fn contains(&self, block: BlockId, label: PathId) -> bool {
        self.find(block, label).is_some()
    }

    /// Looks up `block`, buffered under `label`, without removing it.
    pub fn get(&self, block: BlockId, label: PathId) -> Option<StashBlock> {
        self.find(block, label).map(|pos| self.block_at(pos))
    }

    /// Moves `block` from label `from` to label `to` (a block remap while
    /// in the stash). Returns whether the block is buffered under `from`.
    pub fn relabel(&mut self, block: BlockId, from: PathId, to: PathId) -> bool {
        let Some(pos) = self.find(block, from) else { return false };
        self.unlink(pos);
        self.labels[pos] = to;
        self.link(pos);
        true
    }

    /// Replaces every buffered block's label with `label_of(block)` on a
    /// tree of `levels` levels — the client-side relabel of a tree grow —
    /// and re-bins them all.
    pub fn relabel_all(&mut self, levels: u8, mut label_of: impl FnMut(BlockId) -> PathId) {
        self.set_levels(levels);
        for pos in 0..self.ids.len() {
            self.labels[pos] = label_of(self.ids[pos]);
            self.link(pos);
        }
    }

    /// Removes and returns `block`, buffered under `label`.
    pub fn remove(&mut self, block: BlockId, label: PathId) -> Option<StashBlock> {
        let pos = self.find(block, label)?;
        self.unlink(pos);
        let removed = StashBlock {
            block: self.ids.swap_remove(pos),
            label: self.labels.swap_remove(pos),
            data: if self.keep_data { self.data.swap_remove(pos) } else { [0; BLOCK_BYTES] },
        };
        self.links.swap_remove(pos);
        if pos < self.ids.len() {
            self.relink(pos);
        }
        Some(removed)
    }

    /// Iterates over buffered blocks in dense-position order: insertion
    /// order, except that each removal moves the then-last block into the
    /// vacated position. The order is a function of the operation history
    /// alone, so two engines with one history hold their blocks in one order.
    pub fn iter(&self) -> impl Iterator<Item = StashBlock> + '_ {
        (0..self.ids.len()).map(|pos| self.block_at(pos))
    }

    /// The evictPath scan ("searches the entire stash", §III-A), once per
    /// rebuild: decides which blocks go to which of `tiers` buckets.
    ///
    /// The buckets being rebuilt are numbered root-ward to leaf-ward as
    /// tiers `0..tiers` (an evictPath's levels). `deepest(label)` is the
    /// deepest tier a block with that label may live in — it may then live
    /// in every shallower tier too — or `None` if no rebuilt bucket may hold
    /// it; `cap(tier)` is the tier's real-block capacity. Tiers are filled
    /// deepest first, each with the `cap` smallest not-yet-placed ids that
    /// may live there, which is exactly what a per-tier filter → sort →
    /// truncate over the shrinking stash selects. The chosen ids are left in
    /// `plan` (see [`EvictionPlan::picks`]); the stash itself is not
    /// modified, and the plan is stale once it is.
    pub fn plan_eviction(
        &self,
        tiers: usize,
        mut cap: impl FnMut(usize) -> usize,
        mut deepest: impl FnMut(PathId) -> Option<usize>,
        plan: &mut EvictionPlan,
    ) {
        assert!(tiers <= usize::from(u8::MAX), "eviction over {tiers} tiers");
        telemetry::counter_add("stash.scan_passes", 1);
        telemetry::counter_add("stash.scanned_blocks", self.labels.len() as u64);

        // The one pass over the labels: the blocks some rebuilt bucket may
        // hold, compacted (a rejected block's entry is overwritten by the
        // next one), each with its deepest tier.
        let n = self.ids.len();
        plan.found.resize(n, 0);
        plan.depth.resize(n, 0);
        let mut found = 0;
        for (&label, &block) in self.labels.iter().zip(&self.ids) {
            let tier = deepest(label);
            debug_assert!(tier.is_none_or(|t| t < tiers));
            plan.found[found] = block;
            plan.depth[found] = tier.unwrap_or(0) as u8;
            found += usize::from(tier.is_some());
        }
        // Group them by tier, deepest group first, so the blocks that may
        // live in tier `t` are a prefix of `plan.ids`.
        plan.ends.clear();
        plan.ends.resize(tiers, 0);
        let (found, depth) = (&plan.found[..found], &plan.depth[..found]);
        for &tier in depth {
            plan.ends[usize::from(tier)] += 1;
        }
        let mut start = 0;
        for end in plan.ends.iter_mut().rev() {
            start += std::mem::replace(end, start);
        }
        plan.ids.resize(found.len(), 0);
        for (&tier, &block) in depth.iter().zip(found) {
            let at = &mut plan.ends[usize::from(tier)];
            plan.ids[*at] = block;
            *at += 1;
        }
        // Fill deepest first. `placed..ends[t]` are the unplaced blocks that
        // may live in tier `t`; its picks are moved to the front of that
        // window, so `plan.ids` ends up holding every tier's picks back to
        // back, deepest tier first.
        plan.pick_ends.clear();
        plan.pick_ends.resize(tiers, 0);
        let mut placed = 0;
        for t in (0..tiers).rev() {
            let window = &mut plan.ids[placed..plan.ends[t]];
            let take = cap(t).min(window.len());
            smallest_to_front(window, take);
            placed += take;
            plan.pick_ends[t] = placed;
        }
    }

    /// The earlyReshuffle plan: the `cap` smallest ids among the blocks the
    /// lone bucket `index` of `level` may hold — those whose label lies
    /// under it — left in `plan` as its only tier ([`EvictionPlan::picks`]
    /// of tier 0). Reads only the bins under the bucket: one bin, filtered,
    /// at a level at or below the bin bits; every bin of its subtree,
    /// unfiltered, above them. The picks are the ones
    /// [`plan_eviction`](Self::plan_eviction) makes over one tier.
    pub fn plan_bucket(&self, level: u8, index: u64, cap: usize, plan: &mut EvictionPlan) {
        debug_assert!(level <= self.leaf_bits && index < 1 << level);
        telemetry::counter_add("stash.scan_passes", 1);
        plan.ids.clear();
        let bits = self.bin_bits();
        let mut scanned = 0;
        if level >= bits {
            let shift = self.leaf_bits - level;
            let mut pos = self.heads[(index >> (level - bits)) as usize];
            while pos != NIL {
                let at = pos as usize;
                if self.labels[at].leaf() >> shift == index {
                    plan.ids.push(self.ids[at]);
                }
                scanned += 1;
                pos = self.links[at].next;
            }
        } else {
            let first = (index << (bits - level)) as usize;
            for &head in &self.heads[first..first + (1 << (bits - level))] {
                let mut pos = head;
                while pos != NIL {
                    plan.ids.push(self.ids[pos as usize]);
                    scanned += 1;
                    pos = self.links[pos as usize].next;
                }
            }
        }
        telemetry::counter_add("stash.scanned_blocks", scanned);
        let take = cap.min(plan.ids.len());
        smallest_to_front(&mut plan.ids, take);
        plan.pick_ends.clear();
        plan.pick_ends.push(take);
    }

    /// Checks that the bins and the dense arrays describe the same set:
    /// every block is on its label's bin exactly once, the lists link both
    /// ways, the payload column matches the mode, and no id is buffered
    /// twice.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let n = self.ids.len();
        let payloads = if self.keep_data { n } else { 0 };
        if self.labels.len() != n || self.links.len() != n || self.data.len() != payloads {
            return Err(format!(
                "stash arrays disagree: {n} ids, {} labels, {} links, {} payloads (want {payloads})",
                self.labels.len(),
                self.links.len(),
                self.data.len()
            ));
        }
        if self.heads.len() != 1 << self.bin_bits() {
            return Err(format!(
                "stash has {} bins for {} leaf bits",
                self.heads.len(),
                self.leaf_bits
            ));
        }
        let mut seen = vec![false; n];
        for (bin, &head) in self.heads.iter().enumerate() {
            let (mut prev, mut pos) = (NIL, head);
            while pos != NIL {
                let at = pos as usize;
                if at >= n || seen[at] {
                    return Err(format!(
                        "stash bin {bin} reaches position {pos} twice or past the end"
                    ));
                }
                seen[at] = true;
                if self.bin(self.labels[at]) != bin || self.links[at].prev != prev {
                    return Err(format!(
                        "stash block {} at position {at} is misfiled",
                        self.ids[at]
                    ));
                }
                (prev, pos) = (pos, self.links[at].next);
            }
        }
        if let Some(at) = seen.iter().position(|&s| !s) {
            return Err(format!("stash block {} at position {at} is on no bin", self.ids[at]));
        }
        let mut ids = self.ids.clone();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("stash buffers block {} twice", w[0]));
        }
        Ok(())
    }

    /// Addresses and capacities of every buffer the stash owns, the payload
    /// column last, for steady-state allocation checks.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> [(usize, usize); 5] {
        use crate::buffer_of as of;
        [of(&self.ids), of(&self.labels), of(&self.links), of(&self.heads), of(&self.data)]
    }
}

/// Moves the `take` smallest ids of `window` to its front, in ascending
/// order. A bucket takes a handful of blocks, so this keeps the best `take`
/// seen so far sorted in place and tests every other id against the largest
/// of them — one comparison for all but a few — instead of partitioning.
fn smallest_to_front(window: &mut [BlockId], take: usize) {
    let (best, rest) = window.split_at_mut(take);
    let Some(last) = take.checked_sub(1) else { return };
    best.sort_unstable();
    for id in rest {
        if *id < best[last] {
            // The displaced id stays in the window, for a shallower tier.
            std::mem::swap(id, &mut best[last]);
            let mut at = last;
            while at > 0 && best[at] < best[at - 1] {
                best.swap(at, at - 1);
                at -= 1;
            }
        }
    }
}

/// The outcome of [`Stash::plan_eviction`] or [`Stash::plan_bucket`], and
/// the buffers they work in — kept by the engine so a rebuild allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct EvictionPlan {
    /// The ids some rebuilt bucket may hold, in dense-position order (an
    /// evictPath's plan only).
    found: Vec<BlockId>,
    /// `found`'s deepest tiers, index for index.
    depth: Vec<u8>,
    /// Per tier: one past the last id in `ids` that may live there.
    ends: Vec<usize>,
    /// `found` grouped by tier (a lone bucket's candidates); after planning,
    /// the picks of every tier back to back from the front.
    ids: Vec<BlockId>,
    /// Per tier: one past its last pick in `ids` (its picks start where the
    /// next deeper tier's end).
    pick_ends: Vec<usize>,
}

impl EvictionPlan {
    /// The blocks chosen for `tier`, in ascending id order.
    pub fn picks(&self, tier: usize) -> &[BlockId] {
        let start = self.pick_ends.get(tier + 1).copied().unwrap_or(0);
        &self.ids[start..self.pick_ends[tier]]
    }

    /// Addresses and capacities of the plan's buffers, for steady-state
    /// allocation checks.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> [(usize, usize); 5] {
        use crate::buffer_of as of;
        [of(&self.found), of(&self.depth), of(&self.ends), of(&self.ids), of(&self.pick_ends)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aboram_tree::{Level, LevelConfig, TreeGeometry};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    /// A tree of 11 levels: 1 024 leaves, 16 per bin.
    const LEVELS: u8 = 11;

    fn l(leaf: u64) -> PathId {
        PathId::new(leaf)
    }

    fn payload(id: BlockId) -> [u8; BLOCK_BYTES] {
        [id as u8; BLOCK_BYTES]
    }

    #[test]
    fn insert_get_remove() {
        let mut s = Stash::new(10, LEVELS, true);
        assert!(s.is_empty());
        s.insert(1, l(5), &payload(1));
        assert_eq!(s.get(1, l(5)), Some(StashBlock { block: 1, label: l(5), data: payload(1) }));
        assert!(s.get(1, l(1000)).is_none(), "a lookup walks the given label's bin only");
        assert_eq!(s.len(), 1);
        assert!(s.set_data(1, l(5), &payload(9)));
        assert_eq!(s.get(1, l(5)).unwrap().data, payload(9), "set_data replaces the payload");
        assert!(!s.set_data(2, l(5), &payload(2)));
        assert_eq!(s.remove(1, l(5)).unwrap().data, payload(9));
        assert!(s.remove(1, l(5)).is_none());
        assert!(!s.contains(1, l(5)));

        let mut bare = Stash::new(10, LEVELS, false);
        bare.insert(1, l(5), &payload(1));
        assert!(bare.set_data(1, l(5), &payload(9)));
        assert_eq!(bare.get(1, l(5)).unwrap().data, [0; BLOCK_BYTES], "no column, zero payloads");
        assert_eq!(bare.remove(1, l(5)).unwrap().data, [0; BLOCK_BYTES]);
    }

    #[test]
    fn relabel_in_place() {
        let mut s = Stash::new(10, LEVELS, false);
        s.insert(3, l(1), &payload(3));
        assert!(s.relabel(3, l(1), l(7)), "within one bin");
        assert_eq!(s.get(3, l(7)).unwrap().label, l(7));
        assert!(s.relabel(3, l(7), l(1000)), "across bins");
        assert!(!s.contains(3, l(7)));
        assert_eq!(s.get(3, l(1000)).unwrap().label, l(1000));
        assert!(!s.relabel(99, l(0), l(1)));
        s.insert(4, l(1), &payload(4));
        s.relabel_all(LEVELS + 1, |b| l(b * 500));
        assert_eq!(s.get(3, l(1500)).unwrap().label, l(1500));
        assert_eq!(s.get(4, l(2000)).unwrap().label, l(2000));
        s.validate().unwrap();
    }

    #[test]
    fn peak_and_overflow_tracking() {
        let mut s = Stash::new(2, LEVELS, false);
        s.insert(1, l(0), &payload(1));
        s.insert(2, l(0), &payload(2));
        assert!(!s.overflowed());
        s.insert(3, l(0), &payload(3));
        assert!(s.overflowed());
        assert_eq!(s.peak(), 3);
        s.remove(1, l(0));
        s.remove(2, l(0));
        assert!(!s.overflowed());
        assert_eq!(s.peak(), 3, "peak is sticky");
    }

    #[test]
    fn iteration_follows_dense_order() {
        let mut s = Stash::new(10, LEVELS, false);
        for id in [5, 2, 9, 7] {
            s.insert(id, l(id * 100), &payload(id));
        }
        s.remove(2, l(200));
        let order: Vec<BlockId> = s.iter().map(|e| e.block).collect();
        assert_eq!(order, vec![5, 7, 9], "the last block fills the vacated position");
        s.validate().unwrap();
    }

    #[test]
    fn single_bucket_plan_takes_the_smallest_matching_ids() {
        let mut s = Stash::new(10, LEVELS, false);
        for (id, leaf) in [(5, 1), (2, 1), (9, 3), (4, 1)] {
            s.insert(id, l(leaf), &payload(id));
        }
        let mut plan = EvictionPlan::default();
        let leaf_level = LEVELS - 1;
        s.plan_bucket(leaf_level, 1, 2, &mut plan);
        assert_eq!(plan.picks(0), [2, 4]);
        s.plan_bucket(leaf_level, 1, 8, &mut plan);
        assert_eq!(plan.picks(0), [2, 4, 5], "filtered and sorted");
        s.plan_bucket(0, 0, 8, &mut plan);
        assert_eq!(plan.picks(0), [2, 4, 5, 9], "the root reads every bin");
        assert_eq!(s.len(), 4, "planning removes nothing");
    }

    /// What the engines did before the plan existed: per tier, deepest
    /// first, filter the (shrinking) stash, sort the ids, truncate.
    fn per_level_scan(
        mut stash: HashMap<BlockId, PathId>,
        caps: &[usize],
        deepest: impl Fn(PathId) -> Option<usize>,
    ) -> Vec<Vec<BlockId>> {
        let mut picks = vec![Vec::new(); caps.len()];
        for t in (0..caps.len()).rev() {
            let mut ids: Vec<BlockId> = stash
                .iter()
                .filter(|(_, &label)| deepest(label).is_some_and(|d| d >= t))
                .map(|(&id, _)| id)
                .collect();
            ids.sort_unstable();
            ids.truncate(caps[t]);
            for id in &ids {
                stash.remove(id);
            }
            picks[t] = ids;
        }
        picks
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Trees of 2–16 levels put the lone bucket's level above, at and
        /// below the bin bits, and include trees with fewer leaf bits than
        /// `BIN_BITS`.
        #[test]
        fn one_pass_plan_matches_per_level_scan(
            levels in 2usize..=16,
            // 0: leaves spread over the tree, 1: clustered on four leaves,
            // 2: all on one leaf, 3: a mix of the three, 4: empty stash.
            shape in 0u8..5,
            raw_blocks in proptest::collection::vec((0u64..2_000, any::<u64>(), 0u8..3), 0..300),
            raw_path in any::<u64>(),
            all_caps in proptest::collection::vec(0usize..=6, 16),
        ) {
            let geo = TreeGeometry::uniform(levels as u8, LevelConfig::new(2, 1)).unwrap();
            let leaves = geo.leaf_count();
            let (path, caps) = (PathId::new(raw_path % leaves), &all_caps[..levels]);
            let mut stash = Stash::new(300, levels as u8, false);
            let mut reference = HashMap::new();
            for &(id, raw_leaf, kind) in raw_blocks.iter().filter(|_| shape != 4) {
                let leaf = match if shape == 3 { kind } else { shape } {
                    0 => raw_leaf % leaves,
                    1 => raw_leaf % leaves.min(4),
                    _ => leaves - 1,
                };
                // A repeated id is a remap, which may move it between bins.
                match reference.insert(id, l(leaf)) {
                    Some(old) => prop_assert!(stash.relabel(id, old, l(leaf))),
                    None => stash.insert(id, l(leaf), &payload(id)),
                }
            }
            stash.validate().map_err(TestCaseError::fail)?;
            let mut plan = EvictionPlan::default();

            // evictPath: one tier per level of the path.
            let deepest = |label| Some(usize::from(geo.common_prefix_levels(label, path)) - 1);
            stash.plan_eviction(levels, |t| caps[t], deepest, &mut plan);
            let want = per_level_scan(reference.clone(), caps, deepest);
            for (t, want) in want.iter().enumerate() {
                prop_assert_eq!(plan.picks(t), &want[..], "level {} of {}", t, levels);
            }

            // earlyReshuffle: the lone bucket at each level of the path, with
            // the plan's buffers reused.
            for level in 0..levels {
                let bucket = geo.bucket_on_path(path, Level(level as u8));
                let on_path = |label| geo.bucket_is_on_path(bucket, label).then_some(0);
                stash.plan_bucket(level as u8, bucket.index_in_level(), caps[level], &mut plan);
                let want = per_level_scan(reference.clone(), &caps[level..=level], on_path);
                prop_assert_eq!(plan.picks(0), &want[0][..], "bucket at level {}", level);
            }
            prop_assert_eq!(stash.len(), reference.len());
        }

        /// Inserts, payload updates, removals and relabels (which move blocks
        /// between bins) against a map, with and without a payload column.
        #[test]
        fn index_matches_a_btreemap_model(
            keep_data in any::<bool>(),
            ops in proptest::collection::vec((0u8..4, 0u64..96, 0u64..1024), 0..600),
        ) {
            let mut stash = Stash::new(16, LEVELS, keep_data);
            let mut model: BTreeMap<BlockId, StashBlock> = BTreeMap::new();
            for &(op, id, leaf) in &ops {
                let data = if keep_data { [leaf as u8 ^ id as u8; BLOCK_BYTES] } else { [0; BLOCK_BYTES] };
                let held = model.get(&id).map(|e| e.label);
                match (op, held) {
                    (0 | 1, None) => {
                        stash.insert(id, l(leaf), &data);
                        model.insert(id, StashBlock { block: id, label: l(leaf), data });
                    }
                    (0 | 1, Some(label)) => {
                        prop_assert!(stash.set_data(id, label, &data));
                        model.get_mut(&id).unwrap().data = data;
                    }
                    (2, held) => {
                        prop_assert_eq!(stash.remove(id, held.unwrap_or(l(leaf))), model.remove(&id));
                    }
                    (_, held) => {
                        prop_assert_eq!(stash.relabel(id, held.unwrap_or(l(leaf)), l(leaf)), held.is_some());
                        if let Some(e) = model.get_mut(&id) {
                            e.label = l(leaf);
                        }
                    }
                }
                prop_assert_eq!(stash.len(), model.len());
                let label = model.get(&id).map_or(l(leaf), |e| e.label);
                prop_assert_eq!(stash.get(id, label), model.get(&id).copied());
                stash.validate().map_err(TestCaseError::fail)?;
            }
            let mut dense: Vec<StashBlock> = stash.iter().collect();
            dense.sort_unstable_by_key(|e| e.block);
            prop_assert_eq!(dense, model.into_values().collect::<Vec<_>>());
        }
    }
}
