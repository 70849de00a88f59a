//! Bucket metadata (Table I): Ring ORAM's block/slot bookkeeping plus
//! AB-ORAM's remote-allocation extensions, and the bit-exact layout
//! accounting behind the §VIII-H storage-overhead claim.
//!
//! A bucket is one fixed-size plain record, [`BucketMeta`], with no heap
//! behind it — the in-memory counterpart of the paper's single 64 B
//! metadata block, and exactly 64 bytes itself (DESIGN.md §8 "The bucket
//! record" has the byte table). Real entries are inline parallel arrays
//! sized to `Z' = 5`: `addr` as a `u32` block id, and one `u32` word holding
//! the entry's leaf `label` (bits 0–27) and its logical slot `ptr` (bits
//! 28–31). Borrowed remote slots are packed to 32 bits each (`bucket << 4 |
//! index`, capacity 2, the largest `dynamic_s_extension` any scheme
//! configures), and slot validity, real-block occupancy and the slot-status
//! lifecycle are four `u16` bitset words (16 logical slots per bucket). The
//! mask accessors widen to `u64` so mask combining and [`nth_set_bit`]
//! selection stay single register ops. All records of a tree live
//! contiguously in one `Vec`: construction is one allocation, not two per
//! bucket, and a grown level reserves exactly its own records.
//!
//! What the record cannot hold is refused when the engine is configured
//! (`check_record_capacity`, called from
//! [`OramConfig::geometry`](crate::OramConfig::geometry)), as a typed
//! [`OramError::BadParameter`] — never a panic on the access path.

use crate::error::OramError;
use crate::BlockId;
use aboram_tree::{BucketId, Level, PathId, SlotId, TreeGeometry};

/// Physical-slot lifecycle under AB-ORAM (§V-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotStatus {
    /// Written at the last reshuffle; content live until read.
    Refreshed,
    /// Content consumed by a readPath; space reclaimable.
    Dead,
    /// Handed to the DeadQ / a remote bucket; the home bucket must not
    /// touch it.
    Allocated,
}

/// Metadata for one real block mapped into a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealEntry {
    /// The block's logical address (`addr` in Table I).
    pub addr: BlockId,
    /// The block's current path (`label`).
    pub label: PathId,
    /// Logical slot index inside the bucket (`ptr`).
    pub ptr: u8,
}

/// A `u64` with the low `n` bits set — the all-slots mask for an `n`-slot
/// bucket (`n < 64`).
#[inline]
pub const fn low_mask(n: u8) -> u64 {
    (1u64 << n) - 1
}

/// Index of the `n`-th set bit of `mask` (0-based, counting from the least
/// significant bit). Equivalent to indexing the ascending list of set-bit
/// positions — which is exactly how slot-candidate lists used to be built —
/// so selection through this function consumes the same RNG draws and picks
/// the same slot as the old `Vec`-based scan.
///
/// # Panics
///
/// Debug-asserts that `mask` has more than `n` set bits.
#[inline]
pub fn nth_set_bit(mut mask: u64, n: usize) -> u8 {
    debug_assert!((mask.count_ones() as usize) > n, "nth_set_bit({mask:#x}, {n}) out of range");
    for _ in 0..n {
        mask &= mask - 1; // Clear the lowest set bit.
    }
    mask.trailing_zeros() as u8
}

/// Metadata of one bucket: a fixed-size record, no heap behind it.
///
/// The bucket exposes a *logical* slot space: its own physical slots
/// (possibly fewer than the paper's `Z` under DR) plus any slots borrowed
/// from the level's DeadQ. Logical slot `i` resolves to the bucket's own
/// physical slot `i` when `i < own_slots`, otherwise to borrowed slot `i -
/// own_slots` — this is the extra address-mapping level of Fig. 5(b), kept
/// in cleartext.
///
/// Unused array elements are kept zero, so two records describing the same
/// bucket state are equal byte for byte (`==` is the derived field
/// comparison). `#[repr(C)]` fixes the field order — the words every
/// readPath touches (`addr`, the masks, the counters) come first, in the
/// record's leading 34 bytes — at natural (4-byte) alignment; DESIGN.md §8
/// records why the record must not be over-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C)]
pub struct BucketMeta {
    /// `addr` of each real entry (first `n_entries` live): block ids stay
    /// below `real_block_count(MAX_LEVELS)` < 2³².
    addr: [u32; Self::MAX_REAL],
    /// Validity bitmap over logical slots.
    valid: u16,
    /// Occupancy bitmap: bit `i` set iff some entry's `ptr == i`.
    real: u16,
    /// Own slots whose content was consumed by a readPath.
    dead: u16,
    /// Own slots handed to the DeadQ / a remote bucket this epoch.
    allocated: u16,
    /// `count`: readPaths absorbed since the last refresh.
    pub count: u8,
    /// `dynamicS`: dummy budget chosen at the last refresh.
    pub dynamic_s: u8,
    /// Number of own physical slots.
    own_slots: u8,
    /// Number of logical slots at the last refresh.
    pub logical_slots: u8,
    /// Real blocks currently mapped here (≤ `Z'`).
    n_entries: u8,
    /// Remote slots currently borrowed (≤ `R`).
    n_borrowed: u8,
    /// `label | ptr << 28` of each real entry: its leaf index (below 2²⁷
    /// at `MAX_LEVELS`) and its logical slot (below `MAX_SLOTS`).
    slot: [u32; Self::MAX_REAL],
    /// Remote physical slots backing logical slots `own_slots..` — the
    /// paper's `remoteAddr`/`remoteInd` pairs, packed `bucket << 4 | index`.
    /// Remote slots hold reserved dummies only; real blocks always live in
    /// own slots (see DESIGN.md on why this is the only capacity-consistent
    /// reading).
    borrowed: [u32; Self::MAX_BORROWED],
}

// The record is the engine's per-bucket memory cost: the paper's one 64 B
// metadata block, at natural alignment (DESIGN.md §8 on why not `align(64)`).
const _: () = assert!(std::mem::size_of::<BucketMeta>() == 64);
const _: () = assert!(std::mem::align_of::<BucketMeta>() == 4);

/// Bit position of `ptr` in an entry's `slot` word; `label` is the bits below.
const PTR_SHIFT: u32 = 28;
/// The `label` bits of an entry's `slot` word.
const LABEL_MASK: u32 = (1 << PTR_SHIFT) - 1;

impl BucketMeta {
    /// Real entries one record holds — the paper's `Z' = 5`.
    pub const MAX_REAL: usize = 5;
    /// Borrowed remote slots one record holds: the largest
    /// `dynamic_s_extension` any [`Scheme`](crate::Scheme) configures (the
    /// Table-I bit accounting, [`MetadataLayout`], provisions `R = 6`).
    pub const MAX_BORROWED: usize = 2;
    /// Logical slots (own + borrowed) the 16-bit mask words cover.
    pub const MAX_SLOTS: u8 = 16;
    /// Deepest tree whose bucket ids fit a packed borrowed slot (28 bits),
    /// whose leaf indices fit an entry's 28 `label` bits and whose block ids
    /// fit a 32-bit `addr`.
    pub const MAX_LEVELS: u8 = 28;

    /// Whether `slot` fits the 32-bit packing `bucket << 4 | index`.
    #[inline]
    fn packs(slot: SlotId) -> bool {
        slot.bucket.raw() < 1 << Self::MAX_LEVELS && slot.index < Self::MAX_SLOTS
    }

    /// Creates metadata for a bucket with `own_slots` physical slots, all
    /// slots initially refreshed and invalid (empty tree). `own_slots` is at
    /// most [`MAX_SLOTS`](Self::MAX_SLOTS) for any geometry
    /// [`OramConfig::geometry`](crate::OramConfig::geometry) returns.
    pub fn new(own_slots: u8) -> Self {
        BucketMeta { own_slots, logical_slots: own_slots, ..Self::default() }
    }

    /// Whether logical slot `logical` resolves to a borrowed (remote) slot.
    #[inline]
    pub fn is_remote(&self, logical: u8) -> bool {
        logical >= self.own_slots
    }

    /// Number of own physical slots (excludes borrowed).
    #[inline]
    pub fn own_slots(&self) -> u8 {
        self.own_slots
    }

    /// Whether logical slot `i` still holds unread content.
    #[inline]
    pub fn is_valid(&self, i: u8) -> bool {
        self.valid & (1 << i) != 0
    }

    /// Marks logical slot `i` valid/invalid.
    #[inline]
    pub fn set_valid(&mut self, i: u8, v: bool) {
        if v {
            self.valid |= 1 << i;
        } else {
            self.valid &= !(1 << i);
        }
    }

    /// Marks the first `n` logical slots valid and the rest invalid — a
    /// bucket's state right after a rebuild.
    #[inline]
    pub fn set_all_valid(&mut self, n: u8) {
        self.valid = low_mask(n) as u16;
    }

    /// Number of valid logical slots.
    #[inline]
    pub fn valid_count(&self) -> u8 {
        self.valid.count_ones() as u8
    }

    /// Bitmap of valid logical slots.
    #[inline]
    pub fn valid_mask(&self) -> u64 {
        u64::from(self.valid) & low_mask(self.logical_slots)
    }

    /// Bitmap of valid logical slots that hold no real block — the dummy
    /// candidates a readPath picks from.
    #[inline]
    pub fn dummy_mask(&self) -> u64 {
        self.valid_mask() & !u64::from(self.real)
    }

    /// Bitmap of logical slots holding a real block — the union of the
    /// entries' `ptr` bits.
    #[inline]
    pub fn real_mask(&self) -> u64 {
        u64::from(self.real)
    }

    /// Bitmap of logical slots with no real block mapped (free for a new
    /// entry), regardless of validity.
    #[inline]
    pub fn unoccupied_mask(&self) -> u64 {
        !u64::from(self.real) & low_mask(self.logical_slots)
    }

    /// The status of own slot `j`.
    #[inline]
    pub fn status(&self, j: u8) -> SlotStatus {
        debug_assert!(j < self.own_slots);
        let bit = 1u16 << j;
        if self.dead & bit != 0 {
            SlotStatus::Dead
        } else if self.allocated & bit != 0 {
            SlotStatus::Allocated
        } else {
            SlotStatus::Refreshed
        }
    }

    /// Sets the status of own slot `j`.
    #[inline]
    pub fn set_status(&mut self, j: u8, st: SlotStatus) {
        debug_assert!(j < self.own_slots);
        let bit = 1u16 << j;
        self.dead &= !bit;
        self.allocated &= !bit;
        match st {
            SlotStatus::Dead => self.dead |= bit,
            SlotStatus::Allocated => self.allocated |= bit,
            SlotStatus::Refreshed => {}
        }
    }

    /// Bitmap of own slots currently `Dead` — gatherDEADs' scan.
    #[inline]
    pub fn dead_mask(&self) -> u64 {
        u64::from(self.dead)
    }

    /// Bitmap of own slots not `Refreshed` (dead or allocated) — the
    /// rebuild-time census scan.
    #[inline]
    pub fn not_refreshed_mask(&self) -> u64 {
        u64::from(self.dead | self.allocated)
    }

    /// Resets every own slot to `Refreshed` (a rebuild's rewrite).
    #[inline]
    pub fn reset_statuses(&mut self) {
        self.dead = 0;
        self.allocated = 0;
    }

    /// The real entry at storage index `i` (below `entries().len()`),
    /// assembled from the parallel arrays.
    #[inline]
    pub fn entry_at(&self, i: usize) -> RealEntry {
        let slot = self.slot[i];
        RealEntry {
            addr: BlockId::from(self.addr[i]),
            label: PathId::new(u64::from(slot & LABEL_MASK)),
            ptr: (slot >> PTR_SHIFT) as u8,
        }
    }

    /// The real entries currently mapped here, by value, in storage order:
    /// [`push_entry`](Self::push_entry) appends and
    /// [`take_at`](Self::take_at) moves the last entry into the hole
    /// (`swap_remove`). The order is observable — a rebuild's read phase
    /// issues its block reads in it — so it is part of the engine's fixed
    /// point.
    #[inline]
    pub fn entries(&self) -> impl ExactSizeIterator<Item = RealEntry> + '_ {
        (0..usize::from(self.n_entries)).map(|i| self.entry_at(i))
    }

    /// Maps a new real entry into the bucket.
    ///
    /// # Panics
    ///
    /// Panics when the record already holds [`MAX_REAL`](Self::MAX_REAL)
    /// entries — an engine bug: the engine maps at most `Z'` blocks per
    /// bucket, and [`OramConfig::geometry`](crate::OramConfig::geometry)
    /// refuses a `Z'` above the capacity.
    #[inline]
    pub fn push_entry(&mut self, e: RealEntry) {
        debug_assert!(self.real & (1 << e.ptr) == 0, "slot {} double-mapped", e.ptr);
        debug_assert!(e.addr <= u64::from(u32::MAX), "block {} exceeds 32 bits", e.addr);
        debug_assert!(e.label.leaf() <= u64::from(LABEL_MASK), "label {} exceeds 28 bits", e.label);
        debug_assert!(e.ptr < Self::MAX_SLOTS, "ptr {} exceeds 4 bits", e.ptr);
        let i = usize::from(self.n_entries);
        self.addr[i] = e.addr as u32;
        self.slot[i] = e.label.leaf() as u32 | u32::from(e.ptr) << PTR_SHIFT;
        self.n_entries += 1;
        self.real |= 1 << e.ptr;
    }

    /// Unmaps every real entry.
    #[inline]
    pub fn clear_entries(&mut self) {
        self.addr = [0; Self::MAX_REAL];
        self.slot = [0; Self::MAX_REAL];
        self.n_entries = 0;
        self.real = 0;
    }

    /// Storage index of the entry for `block`, if present here.
    #[inline]
    pub fn entry_index(&self, block: BlockId) -> Option<usize> {
        self.addr[..usize::from(self.n_entries)].iter().position(|&a| BlockId::from(a) == block)
    }

    /// The real entry stored for `block`, if present here.
    #[inline]
    pub fn entry_of(&self, block: BlockId) -> Option<RealEntry> {
        self.entry_index(block).map(|i| self.entry_at(i))
    }

    /// Removes and returns the entry at storage index `i` (below
    /// `entries().len()`); the last entry takes its place (see
    /// [`entries`](Self::entries) on why the order matters).
    #[inline]
    pub fn take_at(&mut self, i: usize) -> RealEntry {
        let e = self.entry_at(i);
        let last = usize::from(self.n_entries) - 1;
        self.addr[i] = self.addr[last];
        self.slot[i] = self.slot[last];
        self.addr[last] = 0;
        self.slot[last] = 0;
        self.n_entries -= 1;
        self.real &= !(1 << e.ptr);
        e
    }

    /// Storage index of the real entry (if any) whose `ptr` is logical slot
    /// `i`.
    #[inline]
    pub fn slot_entry_index(&self, i: u8) -> Option<usize> {
        if self.real & (1 << i) == 0 {
            return None;
        }
        self.slot[..usize::from(self.n_entries)]
            .iter()
            .position(|&w| w >> PTR_SHIFT == u32::from(i))
    }

    /// Number of remote slots currently borrowed.
    #[inline]
    pub fn borrowed_len(&self) -> u8 {
        self.n_borrowed
    }

    /// The `i`-th borrowed slot — the physical home of logical slot
    /// `own_slots + i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`borrowed_len`](Self::borrowed_len)
    /// (engine bug).
    #[inline]
    pub fn borrowed_slot(&self, i: u8) -> SlotId {
        let packed = self.borrowed[..usize::from(self.n_borrowed)][usize::from(i)];
        SlotId::new(BucketId::new(u64::from(packed >> 4)), (packed & 0xf) as u8)
    }

    /// The borrowed slots, in logical-slot order.
    #[inline]
    pub fn borrowed(&self) -> impl ExactSizeIterator<Item = SlotId> + '_ {
        (0..self.n_borrowed).map(|i| self.borrowed_slot(i))
    }

    /// Appends a borrowed slot (the next logical slot past the current
    /// ones). `logical_slots` is the caller's to update.
    ///
    /// # Panics
    ///
    /// Panics when the record already holds
    /// [`MAX_BORROWED`](Self::MAX_BORROWED) slots — an engine bug: a rebuild
    /// borrows at most the level's `r`, and
    /// [`OramConfig::geometry`](crate::OramConfig::geometry) refuses an `r`
    /// above the capacity.
    #[inline]
    pub fn push_borrowed(&mut self, slot: SlotId) {
        debug_assert!(Self::packs(slot), "{slot} does not pack into 32 bits");
        self.borrowed[usize::from(self.n_borrowed)] =
            (slot.bucket.raw() as u32) << 4 | u32::from(slot.index);
        self.n_borrowed += 1;
    }

    /// Drops every borrowed slot (a rebuild starts a new epoch).
    #[inline]
    pub fn clear_borrowed(&mut self) {
        self.borrowed = [0; Self::MAX_BORROWED];
        self.n_borrowed = 0;
    }

    /// readPath budget left before an earlyReshuffle is due, under a
    /// sustained budget of `budget` accesses.
    #[inline]
    pub fn needs_reshuffle(&self, budget: u8) -> bool {
        self.count >= budget
    }

    /// Re-sizes the bucket's own physical slot count — the post-grow
    /// refresh, when the level's configuration changed because the
    /// bucket's offset from the leaves shifted. Callers rebuild the
    /// bucket immediately afterwards, so the occupancy bitmaps are
    /// reconstructed under the new width.
    pub fn set_own_slots(&mut self, own: u8) {
        self.own_slots = own;
        self.logical_slots = own + self.n_borrowed;
    }
}

/// Refuses a geometry whose buckets the fixed-size [`BucketMeta`] record
/// cannot hold: more than [`BucketMeta::MAX_REAL`] real or
/// [`BucketMeta::MAX_BORROWED`] borrowed entries per bucket, more than
/// [`BucketMeta::MAX_SLOTS`] logical slots (`Z + r`), or more than
/// [`BucketMeta::MAX_LEVELS`] levels (bucket ids and leaf indices must stay
/// below 2²⁸, block ids below 2³²). Called wherever an engine geometry is
/// derived, so the record's array bounds are never met on the access path.
///
/// # Errors
///
/// Returns [`OramError::BadParameter`] naming the offending parameter
/// (`levels`, `z_real`, `dynamic_s_extension` or `z_total`).
pub(crate) fn check_record_capacity(geometry: &TreeGeometry) -> Result<(), OramError> {
    check_record_levels("levels", geometry.levels())?;
    for l in 0..geometry.levels() {
        let cfg = geometry.level_config(Level(l));
        let r = u16::from(cfg.dynamic_s_extension);
        let limits = [
            ("z_real", u16::from(cfg.z_real), BucketMeta::MAX_REAL as u16, "real entries"),
            ("dynamic_s_extension", r, BucketMeta::MAX_BORROWED as u16, "borrowed slots"),
            ("z_total", u16::from(cfg.z_total()) + r, u16::from(BucketMeta::MAX_SLOTS), "slots"),
        ];
        for (name, got, max, what) in limits {
            if got > max {
                return Err(OramError::BadParameter {
                    name,
                    reason: format!("level {l}: {got} exceeds the bucket record's {max} {what}"),
                });
            }
        }
    }
    Ok(())
}

/// The level-count half of [`check_record_capacity`], usable before a
/// geometry exists (`name` is the parameter reported: `levels` or
/// `growth.max_levels`).
pub(crate) fn check_record_levels(name: &'static str, levels: u8) -> Result<(), OramError> {
    if levels > BucketMeta::MAX_LEVELS {
        return Err(OramError::BadParameter {
            name,
            reason: format!(
                "{levels} levels exceed the {} the bucket record addresses (bucket ids and \
                 labels are 28 bits, block ids 32)",
                BucketMeta::MAX_LEVELS
            ),
        });
    }
    Ok(())
}

/// All bucket metadata plus resolution of logical slots to physical slots.
///
/// The records live contiguously in one `Vec`, in heap order: the initial
/// tree is one allocation, and an auto-scaling tree's grown level appends its
/// records. What must not move on growth is a bucket's *simulated* address,
/// which `PhysicalLayout::grow` keeps; the host copy a grow may make of the
/// records is a few dozen bytes per bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetadataStore {
    buckets: Vec<BucketMeta>,
}

impl MetadataStore {
    /// Initializes metadata for every bucket of `geometry`, in one
    /// allocation of exactly that many records.
    pub fn new(geometry: &TreeGeometry) -> Self {
        let count = geometry.bucket_count();
        let mut buckets = Vec::with_capacity(count as usize);
        buckets.extend((0..count).map(|raw| {
            BucketMeta::new(geometry.level_config(BucketId::new(raw).level()).z_total())
        }));
        MetadataStore { buckets }
    }

    /// Appends `count` copies of `meta`, a grown level's records, reserving
    /// exactly them.
    pub(crate) fn append_level(&mut self, meta: BucketMeta, count: usize) {
        self.buckets.reserve_exact(count);
        self.buckets.resize(self.buckets.len() + count, meta);
    }

    /// Borrow the metadata of `bucket`.
    #[inline]
    pub fn get(&self, bucket: BucketId) -> &BucketMeta {
        &self.buckets[bucket.raw() as usize]
    }

    /// Loads the leading word of every listed bucket's record in one tight
    /// loop and discards it. The loads do not depend on each other, so
    /// their cache misses overlap here instead of stalling, one by one, the
    /// protocol steps that read each record first.
    #[inline]
    pub fn touch(&self, buckets: &[BucketId]) {
        let mut fold = 0;
        for &bucket in buckets {
            let m = self.get(bucket);
            fold ^= m.addr[0] ^ u32::from(m.count);
        }
        std::hint::black_box(fold);
    }

    /// Mutably borrow the metadata of `bucket`.
    #[inline]
    pub fn get_mut(&mut self, bucket: BucketId) -> &mut BucketMeta {
        &mut self.buckets[bucket.raw() as usize]
    }

    /// Resolves a bucket's logical slot to its physical location: the
    /// logical space is the bucket's own slots followed by its borrowed
    /// slots (the Fig. 5(b) mapping).
    ///
    /// # Panics
    ///
    /// Panics if `logical` is out of range for the bucket (engine bug).
    #[inline]
    pub fn resolve(&self, bucket: BucketId, logical: u8) -> SlotId {
        let meta = self.get(bucket);
        let own = meta.own_slots();
        if logical < own {
            SlotId::new(bucket, logical)
        } else {
            meta.borrowed_slot(logical - own)
        }
    }
}

/// Closed-form bit widths of the Table I metadata fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetadataLayout {
    /// `Z'` (real-capable slots).
    pub z_real: u8,
    /// `Z` (physical bucket size).
    pub z_total: u8,
    /// `S` (reserved dummies).
    pub s_dummies: u8,
    /// Tree levels `L`.
    pub levels: u8,
    /// Number of protected blocks.
    pub n_block: u64,
    /// Number of buckets.
    pub n_bucket: u64,
    /// `R`: max remote-allocated blocks per bucket.
    pub r_remote: u8,
}

impl MetadataLayout {
    /// Layout for the paper's configuration at tree level granularity.
    pub fn for_geometry(geometry: &TreeGeometry, level: Level, r_remote: u8) -> Self {
        let cfg = geometry.level_config(level);
        MetadataLayout {
            z_real: cfg.z_real,
            z_total: cfg.z_total(),
            s_dummies: cfg.s_dummies,
            levels: geometry.levels(),
            n_block: geometry.paper_real_block_count(cfg.z_real),
            n_bucket: geometry.bucket_count(),
            r_remote,
        }
    }

    /// Bits of the baseline Ring ORAM metadata
    /// (`count + addr + label + ptr + valid`, Table I).
    pub fn ring_bits(&self) -> u64 {
        let log_s = ceil_log2(u64::from(self.s_dummies.max(2)));
        let log_nblock = ceil_log2(self.n_block);
        let log_z = ceil_log2(u64::from(self.z_total.max(2)));
        let zr = u64::from(self.z_real);
        log_s
            + zr * log_nblock
            + zr * (u64::from(self.levels) + 1)
            + zr * log_z
            + u64::from(self.z_total)
    }

    /// Extra bits AB-ORAM adds
    /// (`remote + remoteAddr + remoteInd + dynamicS + status`, Table I).
    pub fn aboram_extra_bits(&self) -> u64 {
        let r = u64::from(self.r_remote);
        let log_nbucket = ceil_log2(self.n_bucket);
        let log_z = ceil_log2(u64::from(self.z_total.max(2)));
        let log_s = ceil_log2(u64::from(self.s_dummies.max(2)));
        r + r * log_nbucket + r * log_z + log_s + u64::from(self.z_total) * 2
    }

    /// Total AB-ORAM metadata bits per bucket.
    pub fn aboram_total_bits(&self) -> u64 {
        self.ring_bits() + self.aboram_extra_bits()
    }
}

fn ceil_log2(v: u64) -> u64 {
    u64::from(64 - (v.max(2) - 1).leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aboram_tree::LevelConfig;
    use proptest::prelude::*;

    /// The representation the record replaced — an entry `Vec`, a borrowed
    /// `Vec` and `u64` mask words — kept as the oracle for
    /// `record_matches_the_vec_model`.
    #[derive(Debug, Default)]
    struct VecModel {
        entries: Vec<RealEntry>,
        borrowed: Vec<SlotId>,
        valid: u64,
        real: u64,
        dead: u64,
        allocated: u64,
        own_slots: u8,
        logical_slots: u8,
    }

    impl VecModel {
        fn push_entry(&mut self, e: RealEntry) {
            self.real |= 1 << e.ptr;
            self.entries.push(e);
        }

        fn take_entry(&mut self, block: BlockId) -> Option<RealEntry> {
            let i = self.entries.iter().position(|e| e.addr == block)?;
            let e = self.entries.swap_remove(i);
            self.real &= !(1 << e.ptr);
            Some(e)
        }

        fn entry_at_slot(&self, i: u8) -> Option<RealEntry> {
            self.entries.iter().find(|e| e.ptr == i).copied()
        }

        fn set_status(&mut self, j: u8, st: SlotStatus) {
            self.dead &= !(1 << j);
            self.allocated &= !(1 << j);
            match st {
                SlotStatus::Dead => self.dead |= 1 << j,
                SlotStatus::Allocated => self.allocated |= 1 << j,
                SlotStatus::Refreshed => {}
            }
        }

        fn status(&self, j: u8) -> SlotStatus {
            if self.dead & (1 << j) != 0 {
                SlotStatus::Dead
            } else if self.allocated & (1 << j) != 0 {
                SlotStatus::Allocated
            } else {
                SlotStatus::Refreshed
            }
        }

        fn valid_mask(&self) -> u64 {
            self.valid & low_mask(self.logical_slots)
        }
    }

    proptest! {
        /// Random operation sequences drive the inline record and the
        /// `Vec`-backed model side by side: same `entries()` order (the
        /// `swap_remove` order is observable through the rebuild read
        /// phase), same lookups, same masks and same slot resolution.
        #[test]
        fn record_matches_the_vec_model(
            own in 1u8..=16,
            ops in proptest::collection::vec((0u8..9, any::<u64>()), 1..200),
        ) {
            let mut m = BucketMeta::new(own);
            let mut v = VecModel { own_slots: own, logical_slots: own, ..VecModel::default() };
            let room = (BucketMeta::MAX_SLOTS - own).min(BucketMeta::MAX_BORROWED as u8);
            for (op, arg) in ops {
                let block = arg % 48;
                match op {
                    0 => {
                        let free = m.unoccupied_mask() & low_mask(own);
                        let full = v.entries.len() == BucketMeta::MAX_REAL;
                        if !full && free != 0 && m.entry_of(block).is_none() {
                            let n = (arg >> 8) as usize % free.count_ones() as usize;
                            // Leaves stay below 2²⁷ at `MAX_LEVELS`.
                            let label = PathId::new(arg >> 16 & ((1 << 27) - 1));
                            let e = RealEntry { addr: block, label, ptr: nth_set_bit(free, n) };
                            m.push_entry(e);
                            v.push_entry(e);
                        }
                    }
                    1 => {
                        let taken = m.entry_index(block).map(|i| m.take_at(i));
                        prop_assert_eq!(taken, v.take_entry(block));
                    }
                    2 => {
                        let want = v.entries.iter().find(|e| e.addr == block).copied();
                        prop_assert_eq!(m.entry_of(block), want);
                    }
                    3 => {
                        let slot = (arg % 16) as u8;
                        let found = m.slot_entry_index(slot).map(|i| m.entry_at(i));
                        prop_assert_eq!(found, v.entry_at_slot(slot));
                    }
                    4 => {
                        m.clear_entries();
                        v.entries.clear();
                        v.real = 0;
                    }
                    5 => {
                        // A rebuild's refill: drop the old epoch's borrowed
                        // slots, borrow up to the room the masks leave.
                        m.clear_borrowed();
                        v.borrowed.clear();
                        for i in 0..arg % (u64::from(room) + 1) {
                            let word = arg.rotate_left(7 * i as u32 + 3);
                            let bucket = BucketId::new(word % (1 << 28));
                            let slot = SlotId::new(bucket, (word >> 40) as u8 % 16);
                            m.push_borrowed(slot);
                            v.borrowed.push(slot);
                        }
                        m.logical_slots = own + m.borrowed_len();
                        v.logical_slots = own + v.borrowed.len() as u8;
                        m.set_all_valid(m.logical_slots);
                        v.valid = low_mask(v.logical_slots);
                    }
                    6 => {
                        let i = (arg % u64::from(m.logical_slots)) as u8;
                        let on = arg >> 32 & 1 == 1;
                        m.set_valid(i, on);
                        v.valid = if on { v.valid | 1 << i } else { v.valid & !(1 << i) };
                    }
                    7 => {
                        let j = (arg % u64::from(own)) as u8;
                        let st = [SlotStatus::Refreshed, SlotStatus::Dead, SlotStatus::Allocated]
                            [(arg >> 32) as usize % 3];
                        m.set_status(j, st);
                        v.set_status(j, st);
                    }
                    _ => {
                        m.reset_statuses();
                        v.dead = 0;
                        v.allocated = 0;
                        m.count = arg as u8;
                        m.dynamic_s = (arg >> 8) as u8;
                    }
                }
                prop_assert_eq!(m.entries().collect::<Vec<_>>(), v.entries.clone());
                prop_assert_eq!(m.borrowed().collect::<Vec<_>>(), v.borrowed.clone());
                prop_assert_eq!(m.real_mask(), v.real);
                prop_assert_eq!(m.valid_mask(), v.valid_mask());
                prop_assert_eq!(m.valid_count(), v.valid.count_ones() as u8);
                prop_assert_eq!(m.dummy_mask(), v.valid_mask() & !v.real);
                prop_assert_eq!(m.unoccupied_mask(), !v.real & low_mask(v.logical_slots));
                prop_assert_eq!(m.dead_mask(), v.dead);
                prop_assert_eq!(m.not_refreshed_mask(), v.dead | v.allocated);
                for j in 0..own {
                    prop_assert_eq!(m.status(j), v.status(j));
                }
                for i in 0..m.logical_slots {
                    prop_assert_eq!(m.is_valid(i), v.valid & (1 << i) != 0);
                    prop_assert_eq!(m.is_remote(i), i >= v.own_slots);
                }
            }
        }
    }

    /// A record at every capacity limit at once — 5 entries, 2 borrowed, 16
    /// logical slots, and the widest block id and leaf an accepted geometry
    /// produces (a `MAX_LEVELS`-level tree) — reads every field back
    /// unchanged, and a removal leaves no stale bytes behind (`==` compares
    /// every array element, used or not).
    #[test]
    fn a_full_record_holds_every_limit() {
        let deepest =
            crate::OramConfig::builder(BucketMeta::MAX_LEVELS, crate::Scheme::Ab).build().unwrap();
        let top_block = deepest.real_block_count() - 1;
        let top_leaf = deepest.geometry().unwrap().leaf_count() - 1;
        assert_eq!((top_block, top_leaf), (671_088_636, (1 << 27) - 1));

        let mut m = BucketMeta::new(14);
        let pushed: Vec<RealEntry> = (0..5u8)
            .map(|i| RealEntry {
                addr: top_block - u64::from(i),
                label: PathId::new(top_leaf - u64::from(i)),
                ptr: 13 - i,
            })
            .collect();
        for &e in &pushed {
            m.push_entry(e);
        }
        for i in 0..2u8 {
            m.push_borrowed(SlotId::new(BucketId::new((1 << 28) - 1 - u64::from(i)), 15 - i));
        }
        m.logical_slots = 16;
        m.set_all_valid(16);
        m.set_status(0, SlotStatus::Dead);
        m.set_status(1, SlotStatus::Allocated);
        m.count = 9;
        m.dynamic_s = 11;
        assert_eq!(m.valid_mask(), 0xffff);
        assert_eq!(m.borrowed_slot(1), SlotId::new(BucketId::new((1 << 28) - 2), 14));
        assert_eq!(m.entries().collect::<Vec<_>>(), pushed);
        assert_eq!(m.slot_entry_index(9), Some(4));

        let mut rebuilt = m;
        let taken = rebuilt.take_at(rebuilt.entry_index(top_block - 1).unwrap());
        assert_eq!(rebuilt.entries().map(|e| e.ptr).collect::<Vec<_>>(), [13, 9, 11, 10]);
        let mut want = m;
        want.clear_entries();
        for e in m.entries().filter(|e| e.addr != taken.addr) {
            want.push_entry(e);
        }
        // Same set, different order: the order is part of the record.
        assert_ne!(rebuilt, want);
    }

    #[test]
    fn validity_bitmap_roundtrip() {
        let mut m = BucketMeta::new(8);
        assert_eq!(m.valid_count(), 0);
        m.set_valid(0, true);
        m.set_valid(7, true);
        assert!(m.is_valid(0) && m.is_valid(7) && !m.is_valid(3));
        assert_eq!(m.valid_count(), 2);
        m.set_valid(0, false);
        assert_eq!(m.valid_count(), 1);
    }

    #[test]
    fn entries_and_slots() {
        let mut m = BucketMeta::new(8);
        m.logical_slots = 8;
        m.push_entry(RealEntry { addr: 42, label: PathId::new(3), ptr: 2 });
        for i in 0..4 {
            m.set_valid(i, true);
        }
        assert_eq!(m.entry_of(42).unwrap().ptr, 2);
        assert_eq!(m.slot_entry_index(2), Some(0));
        assert!(m.slot_entry_index(3).is_none());
        // Dummy candidates exclude the real slot.
        assert_eq!(m.dummy_mask(), 0b1011);
        assert_eq!(m.valid_mask(), 0b1111);
        assert_eq!(m.take_at(m.entry_index(42).unwrap()).addr, 42);
        assert!(m.entry_of(42).is_none());
        assert_eq!(m.dummy_mask(), 0b1111, "freed slot rejoins the dummy pool");
    }

    #[test]
    fn nth_set_bit_matches_ascending_enumeration() {
        let mask: u64 = 0b1011_0100_1010_0010;
        let ascending: Vec<u8> = (0..16).filter(|&i| mask & (1 << i) != 0).collect();
        for (n, &want) in ascending.iter().enumerate() {
            assert_eq!(nth_set_bit(mask, n), want);
        }
        assert_eq!(nth_set_bit(1, 0), 0);
        assert_eq!(nth_set_bit(0x8000, 0), 15);
        assert_eq!(nth_set_bit(1u64 << 40, 0), 40, "beyond the old u16 width");
    }

    #[test]
    fn low_mask_widths() {
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(3), 0b111);
        assert_eq!(low_mask(16), u64::from(u16::MAX));
        assert_eq!(low_mask(40), (1u64 << 40) - 1);
    }

    #[test]
    fn status_masks_track_lifecycle() {
        let mut m = BucketMeta::new(6);
        assert_eq!(m.status(0), SlotStatus::Refreshed);
        assert_eq!(m.not_refreshed_mask(), 0);
        m.set_status(2, SlotStatus::Dead);
        m.set_status(4, SlotStatus::Dead);
        assert_eq!(m.dead_mask(), 0b10100);
        m.set_status(2, SlotStatus::Allocated);
        assert_eq!(m.status(2), SlotStatus::Allocated);
        assert_eq!(m.dead_mask(), 0b10000);
        assert_eq!(m.not_refreshed_mask(), 0b10100);
        m.reset_statuses();
        assert_eq!(m.not_refreshed_mask(), 0);
        assert_eq!(m.status(4), SlotStatus::Refreshed);
    }

    #[test]
    fn unoccupied_mask_complements_entries() {
        let mut m = BucketMeta::new(4);
        assert_eq!(m.unoccupied_mask(), 0b1111);
        m.push_entry(RealEntry { addr: 1, label: PathId::new(0), ptr: 0 });
        m.push_entry(RealEntry { addr: 2, label: PathId::new(0), ptr: 3 });
        assert_eq!(m.unoccupied_mask(), 0b0110);
        m.clear_entries();
        assert_eq!(m.unoccupied_mask(), 0b1111);
        assert_eq!(m.entries().len(), 0);
    }

    #[test]
    fn store_resolves_borrowed_slots() {
        let geo = TreeGeometry::uniform(4, LevelConfig::new(2, 1)).unwrap();
        let mut store = MetadataStore::new(&geo);
        assert_eq!(store.buckets.len(), 15);
        let b = BucketId::from_level_index(Level(3), 2);
        let foreign = SlotId::new(BucketId::from_level_index(Level(3), 5), 1);
        {
            let m = store.get_mut(b);
            m.push_borrowed(foreign);
            m.logical_slots = m.own_slots() + 1;
        }
        assert_eq!(store.resolve(b, 0), SlotId::new(b, 0));
        assert_eq!(store.resolve(b, 3), foreign);
    }

    #[test]
    fn remote_boundary_is_own_slot_count() {
        let mut m = BucketMeta::new(6);
        m.push_borrowed(SlotId::new(BucketId::new(3), 1));
        m.logical_slots = 7;
        assert!(!m.is_remote(5));
        assert!(m.is_remote(6));
    }

    /// §VIII-H: Ring metadata ≈ 33 B, AB-ORAM extra ≤ 28 B with R = 6, both
    /// fitting one 64 B block.
    #[test]
    fn paper_metadata_fits_one_block() {
        let geo = TreeGeometry::uniform(24, LevelConfig::new(5, 7)).unwrap();
        let layout = MetadataLayout::for_geometry(&geo, Level(23), 6);
        let ring_bytes = layout.ring_bits() as f64 / 8.0;
        let extra_bytes = layout.aboram_extra_bits() as f64 / 8.0;
        assert!(
            (30.0..=37.0).contains(&ring_bytes),
            "ring metadata {ring_bytes:.1} B vs paper's 33 B"
        );
        assert!(extra_bytes <= 28.0, "AB extra {extra_bytes:.1} B vs paper's 28 B budget");
        assert!(layout.aboram_total_bits() <= 64 * 8);
    }

    #[test]
    fn ceil_log2_basics() {
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(1 << 24), 24);
    }
}
