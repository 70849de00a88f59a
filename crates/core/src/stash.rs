//! The on-chip stash.
//!
//! Blocks live in dense, contiguous arrays — ids, labels and payloads side
//! by side, one position per buffered block — so the eviction scan reads
//! nothing but the label array. An open-addressed table maps a block id to
//! its dense position; it is sized by the stash's occupancy, never by the
//! number of blocks in the tree. See DESIGN.md §8, "Stash layout and the
//! one-pass eviction plan".

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

/// Marks a free slot of the id → position table.
const EMPTY: u32 = u32::MAX;
/// Smallest table; kept at most half full, so it covers 8 blocks.
const MIN_TABLE: usize = 16;
/// Multiplier of the table's hash (2⁶⁴ / φ): consecutive ids land far apart.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fixed-capacity stash with peak-occupancy tracking.
///
/// Ring ORAM's stash buffers blocks between a readPath and a later eviction.
/// Overflow is a protocol failure; the CB baseline prevents it with
/// background eviction above a threshold (§III-C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stash {
    /// Dense storage: position `i` holds block `ids[i]` with `labels[i]` and
    /// `data[i]`. A removal moves the last position into the vacated one.
    ids: Vec<BlockId>,
    labels: Vec<PathId>,
    data: Vec<[u8; BLOCK_BYTES]>,
    /// Open-addressed id → position table (linear probing, power-of-two
    /// length, at most half full). A slot holds a dense position or
    /// [`EMPTY`]; the key of a slot is `ids[position]`.
    table: Vec<u32>,
    capacity: usize,
    peak: usize,
}

impl Stash {
    /// Creates an empty stash with the given capacity.
    pub fn new(capacity: usize) -> Self {
        Stash {
            ids: Vec::new(),
            labels: Vec::new(),
            data: Vec::new(),
            table: vec![EMPTY; MIN_TABLE],
            capacity,
            peak: 0,
        }
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

    /// The table slot an id's probe sequence starts at.
    #[inline]
    fn home(&self, block: BlockId) -> usize {
        // The top log2(len) bits of the product; len ≥ MIN_TABLE keeps the
        // shift below 64.
        (block.wrapping_mul(HASH_MUL) >> (64 - self.table.len().trailing_zeros())) as usize
    }

    /// The table slot holding `block`, or the free slot its probe ends at.
    #[inline]
    fn probe(&self, block: BlockId) -> (usize, Option<usize>) {
        let mask = self.table.len() - 1;
        let mut slot = self.home(block);
        loop {
            let pos = self.table[slot];
            if pos == EMPTY {
                return (slot, None);
            }
            if self.ids[pos as usize] == block {
                return (slot, Some(pos as usize));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the table and re-enters every dense position.
    fn grow_table(&mut self) {
        let len = self.table.len() * 2;
        self.table.clear();
        self.table.resize(len, EMPTY);
        for pos in 0..self.ids.len() {
            let (slot, _) = self.probe(self.ids[pos]);
            self.table[slot] = pos as u32;
        }
    }

    /// Inserts or updates a block. Returns the previous copy, if any.
    pub fn insert(&mut self, entry: StashBlock) -> Option<StashBlock> {
        let (mut slot, found) = self.probe(entry.block);
        if let Some(pos) = found {
            let prev = self.block_at(pos);
            self.labels[pos] = entry.label;
            self.data[pos] = entry.data;
            return Some(prev);
        }
        if (self.ids.len() + 1) * 2 > self.table.len() {
            self.grow_table();
            slot = self.probe(entry.block).0;
        }
        self.table[slot] = self.ids.len() as u32;
        self.ids.push(entry.block);
        self.labels.push(entry.label);
        self.data.push(entry.data);
        self.peak = self.peak.max(self.ids.len());
        None
    }

    #[inline]
    fn block_at(&self, pos: usize) -> StashBlock {
        StashBlock { block: self.ids[pos], label: self.labels[pos], data: self.data[pos] }
    }

    /// Whether `block` is buffered.
    #[inline]
    pub fn contains(&self, block: BlockId) -> bool {
        self.probe(block).1.is_some()
    }

    /// Looks up a block without removing it.
    pub fn get(&self, block: BlockId) -> Option<StashBlock> {
        self.probe(block).1.map(|pos| self.block_at(pos))
    }

    /// Updates the label of a buffered block (block remap while in stash).
    pub fn relabel(&mut self, block: BlockId, label: PathId) -> bool {
        match self.probe(block).1 {
            Some(pos) => {
                self.labels[pos] = label;
                true
            }
            None => false,
        }
    }

    /// Replaces every buffered block's label with `label_of(block)` — the
    /// client-side relabel of a tree grow.
    pub fn relabel_all(&mut self, mut label_of: impl FnMut(BlockId) -> PathId) {
        for (label, &block) in self.labels.iter_mut().zip(&self.ids) {
            *label = label_of(block);
        }
    }

    /// Removes and returns a block.
    pub fn remove(&mut self, block: BlockId) -> Option<StashBlock> {
        let (slot, found) = self.probe(block);
        let pos = found?;
        // Backward-shift deletion: close the gap so every remaining key is
        // still reachable from its home slot without tombstones.
        let mask = self.table.len() - 1;
        let (mut hole, mut next) = (slot, (slot + 1) & mask);
        while self.table[next] != EMPTY {
            let home = self.home(self.ids[self.table[next] as usize]);
            // The entry may move into the hole unless its home lies
            // (cyclically) after the hole.
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.table[hole] = self.table[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.table[hole] = EMPTY;

        let last = self.ids.len() - 1;
        if pos != last {
            let (moved_slot, _) = self.probe(self.ids[last]);
            self.table[moved_slot] = pos as u32;
        }
        Some(StashBlock {
            block: self.ids.swap_remove(pos),
            label: self.labels.swap_remove(pos),
            data: self.data.swap_remove(pos),
        })
    }

    /// Iterates over buffered blocks in dense-position order: insertion
    /// order, except that each removal moves the then-last block into the
    /// vacated position. The order is a function of the operation history
    /// alone, so two engines with one history hold their blocks in one order.
    pub fn iter(&self) -> impl Iterator<Item = StashBlock> + '_ {
        (0..self.ids.len()).map(|pos| self.block_at(pos))
    }

    /// The eviction scan ("searches the entire stash", §III-A), once per
    /// rebuild: decides which blocks go to which of `tiers` buckets.
    ///
    /// The buckets being rebuilt are numbered root-ward to leaf-ward as
    /// tiers `0..tiers` (an evictPath's levels; a lone bucket is tier 0).
    /// `deepest(label)` is the deepest tier a block with that label may live
    /// in — it may then live in every shallower tier too — or `None` if no
    /// rebuilt bucket may hold it; `cap(tier)` is the tier's real-block
    /// capacity. Tiers are filled deepest first, each with the `cap`
    /// smallest not-yet-placed ids that may live there, which is exactly
    /// what a per-tier filter → sort → truncate over the shrinking stash
    /// selects. The chosen ids are left in `plan` (see
    /// [`EvictionPlan::picks`]); the stash itself is not modified, and the
    /// plan is stale once it is.
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
        // next one), each with its deepest tier. A lone tier needs no
        // grouping, so its candidates go straight to `plan.ids`.
        let n = self.ids.len();
        let lone = tiers == 1;
        let found_ids = if lone { &mut plan.ids } else { &mut plan.found };
        found_ids.resize(n, 0);
        plan.depth.resize(n, 0);
        let mut found = 0;
        for (&label, &block) in self.labels.iter().zip(&self.ids) {
            let tier = deepest(label);
            debug_assert!(tier.is_none_or(|t| t < tiers));
            found_ids[found] = block;
            plan.depth[found] = tier.unwrap_or(0) as u8;
            found += usize::from(tier.is_some());
        }
        plan.ends.clear();
        plan.ends.resize(tiers, 0);
        if lone {
            plan.ends[0] = found;
        } else {
            // Group them by tier, deepest group first, so the blocks that
            // may live in tier `t` are a prefix of `plan.ids`.
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

    /// Checks that the table and the dense arrays describe the same set:
    /// every position is reachable through its id, every occupied slot
    /// names a distinct position, and no id is buffered twice.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let n = self.ids.len();
        if self.labels.len() != n || self.data.len() != n {
            return Err(format!(
                "stash arrays disagree: {n} ids, {} labels, {} payloads",
                self.labels.len(),
                self.data.len()
            ));
        }
        if !self.table.len().is_power_of_two() || n * 2 > self.table.len() {
            return Err(format!("stash table of {} slots holds {n} blocks", self.table.len()));
        }
        let occupied = self.table.iter().filter(|&&pos| pos != EMPTY).count();
        if occupied != n {
            return Err(format!("stash table has {occupied} entries for {n} blocks"));
        }
        // With `n` occupied slots, `n` positions each found under its own
        // id makes slot ↔ position a bijection; a duplicated id would
        // resolve to one position only.
        for (pos, &block) in self.ids.iter().enumerate() {
            if self.probe(block).1 != Some(pos) {
                return Err(format!("stash block {block} at position {pos} is not indexed there"));
            }
        }
        Ok(())
    }

    /// Addresses and capacities of every buffer the stash owns, for
    /// steady-state allocation checks.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> [(usize, usize); 4] {
        use crate::buffer_of as of;
        [of(&self.ids), of(&self.labels), of(&self.data), of(&self.table)]
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

/// The outcome of [`Stash::plan_eviction`], and the buffers it works in —
/// kept by the engine so a rebuild allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct EvictionPlan {
    /// The ids some rebuilt bucket may hold, in dense-position order (unused
    /// by a lone tier).
    found: Vec<BlockId>,
    /// `found`'s deepest tiers, index for index.
    depth: Vec<u8>,
    /// Per tier: one past the last id in `ids` that may live there.
    ends: Vec<usize>,
    /// `found` grouped by tier; after planning, the picks of every tier
    /// back to back from the front.
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

    fn blk(id: BlockId, leaf: u64) -> StashBlock {
        StashBlock { block: id, label: PathId::new(leaf), data: [id as u8; BLOCK_BYTES] }
    }

    #[test]
    fn insert_get_remove() {
        let mut s = Stash::new(10);
        assert!(s.is_empty());
        assert!(s.insert(blk(1, 5)).is_none());
        assert_eq!(s.get(1).unwrap().label, PathId::new(5));
        assert_eq!(s.len(), 1);
        let old = s.insert(blk(1, 9)).unwrap();
        assert_eq!(old.label, PathId::new(5));
        assert_eq!(s.len(), 1, "re-insert replaces");
        assert!(s.remove(1).is_some());
        assert!(s.remove(1).is_none());
        assert!(!s.contains(1));
    }

    #[test]
    fn relabel_in_place() {
        let mut s = Stash::new(10);
        s.insert(blk(3, 1));
        assert!(s.relabel(3, PathId::new(7)));
        assert_eq!(s.get(3).unwrap().label, PathId::new(7));
        assert!(!s.relabel(99, PathId::new(0)));
        s.insert(blk(4, 1));
        s.relabel_all(|b| PathId::new(b * 10));
        assert_eq!(s.get(3).unwrap().label, PathId::new(30));
        assert_eq!(s.get(4).unwrap().label, PathId::new(40));
    }

    #[test]
    fn peak_and_overflow_tracking() {
        let mut s = Stash::new(2);
        s.insert(blk(1, 0));
        s.insert(blk(2, 0));
        assert!(!s.overflowed());
        s.insert(blk(3, 0));
        assert!(s.overflowed());
        assert_eq!(s.peak(), 3);
        s.remove(1);
        s.remove(2);
        assert!(!s.overflowed());
        assert_eq!(s.peak(), 3, "peak is sticky");
    }

    #[test]
    fn iteration_follows_dense_order() {
        let mut s = Stash::new(10);
        for id in [5, 2, 9, 7] {
            s.insert(blk(id, 0));
        }
        s.remove(2);
        let order: Vec<BlockId> = s.iter().map(|e| e.block).collect();
        assert_eq!(order, vec![5, 7, 9], "the last block fills the vacated position");
    }

    #[test]
    fn single_bucket_plan_takes_the_smallest_matching_ids() {
        let mut s = Stash::new(10);
        for (id, leaf) in [(5, 1), (2, 1), (9, 3), (4, 1)] {
            s.insert(blk(id, leaf));
        }
        let mut plan = EvictionPlan::default();
        s.plan_eviction(1, |_| 2, |p| (p.leaf() == 1).then_some(0), &mut plan);
        assert_eq!(plan.picks(0), [2, 4]);
        s.plan_eviction(1, |_| 8, |p| (p.leaf() == 1).then_some(0), &mut plan);
        assert_eq!(plan.picks(0), [2, 4, 5], "filtered and sorted");
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
            let mut stash = Stash::new(300);
            let mut reference = HashMap::new();
            for &(id, raw_leaf, kind) in raw_blocks.iter().filter(|_| shape != 4) {
                let leaf = match if shape == 3 { kind } else { shape } {
                    0 => raw_leaf % leaves,
                    1 => raw_leaf % leaves.min(4),
                    _ => leaves - 1,
                };
                stash.insert(blk(id, leaf));
                reference.insert(id, PathId::new(leaf));
            }
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
                stash.plan_eviction(1, |_| caps[level], on_path, &mut plan);
                let want = per_level_scan(reference.clone(), &caps[level..=level], on_path);
                prop_assert_eq!(plan.picks(0), &want[0][..], "bucket at level {}", level);
            }
            prop_assert_eq!(stash.len(), reference.len());
        }

        #[test]
        fn index_matches_a_btreemap_model(
            ops in proptest::collection::vec((0u8..4, 0u64..96, 0u64..1024), 0..600),
        ) {
            let mut stash = Stash::new(16);
            let mut model: BTreeMap<BlockId, StashBlock> = BTreeMap::new();
            for &(op, id, leaf) in &ops {
                // Ids 64 apart share the low bits a weaker hash would use.
                let id = id * 64;
                match op {
                    0 | 1 => prop_assert_eq!(stash.insert(blk(id, leaf)), model.insert(id, blk(id, leaf))),
                    2 => prop_assert_eq!(stash.remove(id), model.remove(&id)),
                    _ => {
                        let hit = model.get_mut(&id).map(|e| e.label = PathId::new(leaf)).is_some();
                        prop_assert_eq!(stash.relabel(id, PathId::new(leaf)), hit);
                    }
                }
                prop_assert_eq!(stash.len(), model.len());
                prop_assert_eq!(stash.get(id), model.get(&id).copied());
                stash.validate().map_err(TestCaseError::fail)?;
            }
            let mut dense: Vec<StashBlock> = stash.iter().collect();
            dense.sort_unstable_by_key(|e| e.block);
            prop_assert_eq!(dense, model.into_values().collect::<Vec<_>>());
        }
    }
}
