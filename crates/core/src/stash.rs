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
//! under it. A rebuild holds the blocks it reads off its own buckets beside
//! the stash ([`Held`]) rather than in it: the plans take them as
//! candidates next to the stash's own, and only those no rebuilt bucket
//! takes are admitted. See DESIGN.md §8, "Stash layout and the one-pass
//! eviction plan".

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

#[cfg(test)]
thread_local! {
    /// Inserts plus removals on this thread, for the tests that count a
    /// rebuild's stash traffic.
    pub(crate) static MOVES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
        #[cfg(test)]
        MOVES.with(|m| m.set(m.get() + 1));
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
        #[cfg(test)]
        MOVES.with(|m| m.set(m.get() + 1));
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

    /// Counts the blocks `held` beside the stash toward its peak, as if
    /// they were buffered: a rebuild's read phase holds them in flight.
    pub(crate) fn note_held(&mut self, held: &Held) {
        self.peak = self.peak.max(self.ids.len() + held.len());
    }

    /// Buffers every block of `held` no rebuilt bucket took, in the order
    /// they were read, and empties `held`.
    pub(crate) fn admit(&mut self, held: &mut Held) {
        for i in 0..held.ids.len() {
            let block = held.ids[i];
            if block != TAKEN {
                self.insert(block, held.labels[i], held.payload(i));
            }
        }
        held.truncate(0);
    }

    /// The evictPath scan ("searches the entire stash", §III-A), once per
    /// rebuild: decides which blocks go to which of `tiers` buckets.
    ///
    /// The candidates are the stash's blocks and the blocks `held` beside it
    /// (a rebuild's read phase; none for Path ORAM), which count as scanned.
    /// The buckets being rebuilt are numbered root-ward to leaf-ward as
    /// tiers `0..tiers` (an evictPath's levels). `deepest(label)` is the
    /// deepest tier a block with that label may live in — it may then live
    /// in every shallower tier too — or `None` if no rebuilt bucket may hold
    /// it; `cap(tier)` is the tier's real-block capacity. Tiers are filled
    /// deepest first, each with the `cap` smallest not-yet-placed ids that
    /// may live there, which is exactly what a per-tier filter → sort →
    /// truncate over the shrinking stash ∪ held selects. The chosen blocks
    /// are left in `plan` (see [`EvictionPlan::picks`]); neither the stash
    /// nor `held` is modified, and the plan is stale once either is.
    pub fn plan_eviction(
        &self,
        held: &Held,
        tiers: usize,
        mut cap: impl FnMut(usize) -> usize,
        mut deepest: impl FnMut(PathId) -> Option<usize>,
        plan: &mut EvictionPlan,
    ) {
        assert!(tiers <= usize::from(u8::MAX), "eviction over {tiers} tiers");
        telemetry::counter_add("stash.scan_passes", 1);
        telemetry::counter_add("stash.scanned_blocks", (self.labels.len() + held.len()) as u64);

        // The one pass over the labels: the blocks some rebuilt bucket may
        // hold, compacted (a rejected block's entry is overwritten by the
        // next one), each with its deepest tier.
        let n = self.ids.len() + held.len();
        plan.found.resize(n, Pick(0));
        plan.depth.resize(n, 0);
        let mut found = 0;
        let mut consider = |label, pick| {
            let tier = deepest(label);
            debug_assert!(tier.is_none_or(|t| t < tiers));
            plan.found[found] = pick;
            plan.depth[found] = tier.unwrap_or(0) as u8;
            found += usize::from(tier.is_some());
        };
        for (&label, &block) in self.labels.iter().zip(&self.ids) {
            consider(label, Pick::stash(block));
        }
        for (i, &label) in held.labels.iter().enumerate() {
            consider(label, held.pick(i));
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
        plan.ids.resize(found.len(), Pick(0));
        for (&tier, &pick) in depth.iter().zip(found) {
            let at = &mut plan.ends[usize::from(tier)];
            plan.ids[*at] = pick;
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
    /// under it, in the stash or `held` beside it — left in `plan` as its
    /// only tier ([`EvictionPlan::picks`] of tier 0). Reads only the bins
    /// under the bucket: one bin, filtered, at a level at or below the bin
    /// bits; every bin of its subtree, unfiltered, above them. A held block
    /// counts as scanned where it would if it were on its bin. The picks are
    /// the ones [`plan_eviction`](Self::plan_eviction) makes over one tier.
    pub fn plan_bucket(
        &self,
        held: &Held,
        level: u8,
        index: u64,
        cap: usize,
        plan: &mut EvictionPlan,
    ) {
        debug_assert!(level <= self.leaf_bits && index < 1 << level);
        telemetry::counter_add("stash.scan_passes", 1);
        plan.ids.clear();
        let bits = self.bin_bits();
        let shift = self.leaf_bits - level;
        let mut scanned = 0;
        let lone_bin = (level >= bits).then(|| (index >> (level - bits)) as usize);
        if let Some(bin) = lone_bin {
            let mut pos = self.heads[bin];
            while pos != NIL {
                let at = pos as usize;
                if self.labels[at].leaf() >> shift == index {
                    plan.ids.push(Pick::stash(self.ids[at]));
                }
                scanned += 1;
                pos = self.links[at].next;
            }
        } else {
            let first = (index << (bits - level)) as usize;
            for &head in &self.heads[first..first + (1 << (bits - level))] {
                let mut pos = head;
                while pos != NIL {
                    plan.ids.push(Pick::stash(self.ids[pos as usize]));
                    scanned += 1;
                    pos = self.links[pos as usize].next;
                }
            }
        }
        // A held block is scanned where it would be if it were buffered: on
        // the lone bin read, or, above the bin bits, under the bucket.
        for (i, &label) in held.labels.iter().enumerate() {
            let under = label.leaf() >> shift == index;
            if under {
                plan.ids.push(held.pick(i));
            }
            scanned += u64::from(lone_bin.map_or(under, |bin| self.bin(label) == bin));
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

/// A held id once a rebuilt bucket took the block.
const TAKEN: BlockId = BlockId::MAX;

/// The blocks a rebuild's read phase fetched off the buckets it rebuilds,
/// held beside the stash instead of in it: ids and position-map labels
/// index for index, plus a payload column only when the engine has a data
/// path (without one, payloads read as zeroes). The plans take them as
/// candidates next to the stash's own; a block no rebuilt bucket takes
/// enters the stash at the end (`Stash::admit`), so the list is empty at
/// every operation boundary. Kept in the engine's scratch so a rebuild
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Held {
    /// Block ids in read order; [`TAKEN`] once a bucket took the block.
    ids: Vec<BlockId>,
    labels: Vec<PathId>,
    /// Index for index with `ids` when payloads are held, else empty.
    data: Vec<[u8; BLOCK_BYTES]>,
}

impl Held {
    /// Holds `block`, mapped to `label`, with its payload if the engine
    /// keeps payloads. Either every block carries one or none does.
    pub(crate) fn push(&mut self, block: BlockId, label: PathId, data: Option<&[u8; BLOCK_BYTES]>) {
        debug_assert!(block < 1 << Pick::ID_BITS, "block {block} cannot be picked");
        debug_assert!(self.ids.len() < usize::from(Pick::STASH), "too many held blocks");
        debug_assert_eq!(self.data.len(), if data.is_some() { self.ids.len() } else { 0 });
        self.ids.push(block);
        self.labels.push(label);
        if let Some(data) = data {
            self.data.push(*data);
        }
    }

    /// Number of blocks held (taken ones included).
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Forgets every block held after the first `len` — the blocks of a
    /// bucket whose read failed, which stay in that bucket.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.ids.truncate(len);
        self.labels.truncate(len);
        self.data.truncate(len);
    }

    /// Takes held block `i` for a rebuilt bucket: returns its id and label
    /// and marks it taken, so [`Stash::admit`] skips it.
    pub(crate) fn take(&mut self, i: usize) -> (BlockId, PathId) {
        let block = std::mem::replace(&mut self.ids[i], TAKEN);
        debug_assert!(block != TAKEN, "held block {i} taken twice");
        (block, self.labels[i])
    }

    /// Held block `i`'s payload (zeroes without a payload column).
    pub(crate) fn payload(&self, i: usize) -> &[u8; BLOCK_BYTES] {
        self.data.get(i).unwrap_or(&[0; BLOCK_BYTES])
    }

    /// Held block `i` as a plan candidate.
    #[inline]
    fn pick(&self, i: usize) -> Pick {
        Pick((self.ids[i] << Pick::SOURCE_BITS) | i as u64)
    }

    /// Addresses and capacities of the held buffers, the payload column
    /// last, for steady-state allocation checks.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> [(usize, usize); 3] {
        use crate::buffer_of as of;
        [of(&self.ids), of(&self.labels), of(&self.data)]
    }
}

/// One block a plan chose: its id, and where it is — in the stash, or held
/// block `i` beside it. Packed as `id << 16 | source` so picks order as
/// their ids do (ids are distinct across the stash and the held list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Pick(u64);

impl Pick {
    const SOURCE_BITS: u32 = 16;
    /// The source of a stash block; a held block's is its index, below it.
    const STASH: u16 = u16::MAX;
    /// Ids fit in the rest: below 2^48, far above any tree's block count
    /// (at most `Z' < 2^8` per bucket and `2^29` buckets).
    const ID_BITS: u32 = 64 - Self::SOURCE_BITS;

    #[inline]
    fn stash(block: BlockId) -> Pick {
        debug_assert!(block < 1 << Self::ID_BITS, "block {block} cannot be picked");
        Pick((block << Self::SOURCE_BITS) | u64::from(Self::STASH))
    }

    /// The chosen block's id.
    #[inline]
    pub fn block(self) -> BlockId {
        self.0 >> Self::SOURCE_BITS
    }

    /// The chosen block's index in the held list, or `None` for a stash
    /// block.
    #[inline]
    pub fn held(self) -> Option<usize> {
        let source = self.0 as u16;
        (source != Self::STASH).then_some(usize::from(source))
    }
}

/// Moves the `take` smallest picks of `window` to its front, in ascending
/// order. A bucket takes a handful of blocks, so this keeps the best `take`
/// seen so far sorted in place and tests every other id against the largest
/// of them — one comparison for all but a few — instead of partitioning.
fn smallest_to_front(window: &mut [Pick], take: usize) {
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
    /// The blocks some rebuilt bucket may hold, stash blocks in
    /// dense-position order, then held ones (an evictPath's plan only).
    found: Vec<Pick>,
    /// `found`'s deepest tiers, index for index.
    depth: Vec<u8>,
    /// Per tier: one past the last id in `ids` that may live there.
    ends: Vec<usize>,
    /// `found` grouped by tier (a lone bucket's candidates); after planning,
    /// the picks of every tier back to back from the front.
    ids: Vec<Pick>,
    /// Per tier: one past its last pick in `ids` (its picks start where the
    /// next deeper tier's end).
    pick_ends: Vec<usize>,
}

impl EvictionPlan {
    /// The blocks chosen for `tier`, in ascending id order.
    pub fn picks(&self, tier: usize) -> &[Pick] {
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

    fn ids(picks: &[Pick]) -> Vec<BlockId> {
        picks.iter().map(|p| p.block()).collect()
    }

    /// The `stash.scanned_blocks` that `f` adds.
    fn scanned(f: impl FnOnce()) -> u64 {
        let (collector, _) = telemetry::Collector::to_shared_buffer();
        telemetry::install(collector);
        f();
        telemetry::uninstall().unwrap().registry().counter("stash.scanned_blocks")
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
        let (mut plan, none) = (EvictionPlan::default(), Held::default());
        let leaf_level = LEVELS - 1;
        s.plan_bucket(&none, leaf_level, 1, 2, &mut plan);
        assert_eq!(ids(plan.picks(0)), [2, 4]);
        s.plan_bucket(&none, leaf_level, 1, 8, &mut plan);
        assert_eq!(ids(plan.picks(0)), [2, 4, 5], "filtered and sorted");
        s.plan_bucket(&none, 0, 0, 8, &mut plan);
        assert_eq!(ids(plan.picks(0)), [2, 4, 5, 9], "the root reads every bin");
        assert_eq!(s.len(), 4, "planning removes nothing");
    }

    #[test]
    fn held_blocks_count_toward_the_peak_and_only_untaken_ones_are_admitted() {
        let mut s = Stash::new(4, LEVELS, true);
        s.insert(1, l(0), &payload(1));
        let mut held = Held::default();
        for id in [7, 3, 5] {
            held.push(id, l(id * 100), Some(&payload(id)));
        }
        s.note_held(&held);
        assert_eq!((s.len(), s.peak()), (1, 4), "held blocks are in flight");

        let mut plan = EvictionPlan::default();
        s.plan_bucket(&held, 0, 0, 2, &mut plan);
        let picks = plan.picks(0).to_vec();
        assert_eq!(ids(&picks), [1, 3]);
        assert_eq!((picks[0].held(), picks[1].held()), (None, Some(1)), "held 3 is index 1");
        assert_eq!(held.take(1), (3, l(300)));
        assert_eq!(held.payload(1), &payload(3));

        s.admit(&mut held);
        assert!(held.is_empty());
        let order: Vec<BlockId> = s.iter().map(|e| e.block).collect();
        assert_eq!(order, [1, 7, 5], "untaken blocks enter in read order");
        assert_eq!(s.get(5, l(500)).unwrap().data, payload(5), "with their payloads");
        assert_eq!(s.peak(), 4);
        s.validate().unwrap();
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
            let (mut plan, none) = (EvictionPlan::default(), Held::default());

            // evictPath: one tier per level of the path.
            let deepest = |label| Some(usize::from(geo.common_prefix_levels(label, path)) - 1);
            stash.plan_eviction(&none, levels, |t| caps[t], deepest, &mut plan);
            let want = per_level_scan(reference.clone(), caps, deepest);
            for (t, want) in want.iter().enumerate() {
                prop_assert_eq!(&ids(plan.picks(t)), want, "level {} of {}", t, levels);
            }

            // earlyReshuffle: the lone bucket at each level of the path, with
            // the plan's buffers reused.
            for level in 0..levels {
                let bucket = geo.bucket_on_path(path, Level(level as u8));
                let on_path = |label| geo.bucket_is_on_path(bucket, label).then_some(0);
                let index = bucket.index_in_level();
                stash.plan_bucket(&none, level as u8, index, caps[level], &mut plan);
                let want = per_level_scan(reference.clone(), &caps[level..=level], on_path);
                prop_assert_eq!(&ids(plan.picks(0)), &want[0], "bucket at level {}", level);
            }
            prop_assert_eq!(stash.len(), reference.len());
        }

        /// Planning over the stash and a held list picks what planning over
        /// a stash the held blocks were admitted to picks, and scans as many
        /// blocks: for an evictPath's plan and a lone bucket's at every level
        /// of the path, with held lists that are empty (Path ORAM's call),
        /// partial or everything.
        #[test]
        fn held_candidates_plan_as_if_admitted(
            levels in 2usize..=16,
            // 0: no held blocks, 1: about half held, 2: every block held.
            held_share in 0u8..3,
            raw_blocks in proptest::collection::vec((0u64..2_000, any::<u64>(), 0u8..3), 0..300),
            raw_path in any::<u64>(),
            all_caps in proptest::collection::vec(0usize..=6, 16),
        ) {
            let geo = TreeGeometry::uniform(levels as u8, LevelConfig::new(2, 1)).unwrap();
            let leaves = geo.leaf_count();
            let (path, caps) = (PathId::new(raw_path % leaves), &all_caps[..levels]);
            let mut stash = Stash::new(300, levels as u8, false);
            let mut held = Held::default();
            let mut seen = std::collections::HashSet::new();
            for &(id, raw_leaf, kind) in &raw_blocks {
                if !seen.insert(id) {
                    continue;
                }
                // Spread over the tree, near the path, or on it: held blocks
                // come off the rebuilt buckets, so they cluster there.
                let leaf = match kind {
                    0 => raw_leaf % leaves,
                    1 => (path.leaf() ^ (raw_leaf % 8)) % leaves,
                    _ => path.leaf(),
                };
                if held_share == 2 || held_share == 1 && raw_leaf % 2 == 0 {
                    held.push(id, l(leaf), None);
                } else {
                    stash.insert(id, l(leaf), &payload(id));
                }
            }
            let mut admitted = stash.clone();
            admitted.admit(&mut held.clone());
            let none = Held::default();
            let (mut plan, mut want) = (EvictionPlan::default(), EvictionPlan::default());
            // Every pick names the block where it is.
            let sourced = |picks: &[Pick]| {
                picks.iter().all(|p| match p.held() {
                    Some(i) => held.ids[i] == p.block(),
                    None => stash.ids.contains(&p.block()),
                })
            };

            let deepest = |label| Some(usize::from(geo.common_prefix_levels(label, path)) - 1);
            let got = scanned(|| stash.plan_eviction(&held, levels, |t| caps[t], deepest, &mut plan));
            let wanted =
                scanned(|| admitted.plan_eviction(&none, levels, |t| caps[t], deepest, &mut want));
            prop_assert_eq!(got, wanted, "evictPath scanned blocks");
            for t in 0..levels {
                prop_assert_eq!(ids(plan.picks(t)), ids(want.picks(t)), "level {} of {}", t, levels);
                prop_assert!(sourced(plan.picks(t)), "level {} of {}", t, levels);
            }

            for (level, &cap) in caps.iter().enumerate() {
                let index = geo.bucket_on_path(path, Level(level as u8)).index_in_level();
                let got = scanned(|| stash.plan_bucket(&held, level as u8, index, cap, &mut plan));
                let wanted =
                    scanned(|| admitted.plan_bucket(&none, level as u8, index, cap, &mut want));
                prop_assert_eq!(got, wanted, "bucket at level {} scanned blocks", level);
                prop_assert_eq!(ids(plan.picks(0)), ids(want.picks(0)), "bucket at level {}", level);
                prop_assert!(sourced(plan.picks(0)), "bucket at level {}", level);
            }
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
