//! Physical byte layout of the ORAM tree in (simulated) main memory.
//!
//! The data region lays buckets out level by level, each bucket occupying
//! `Z_level` consecutive 64-byte blocks; the metadata region is a dense array
//! of one 64-byte metadata block per bucket, placed after the data region.
//! This mirrors how Ring ORAM implementations place the "separate small
//! metadata tree" (§III-B) and is what gives AB-ORAM's remote allocation its
//! measurable DRAM row-buffer effect: a remote slot lives at a different
//! physical address than the in-place slot it replaces.

use crate::error::GeometryError;
use crate::geometry::TreeGeometry;
use crate::path::{BucketId, Level, SlotId};

/// Size of one data block (a cache line), in bytes.
pub const BLOCK_BYTES: u64 = 64;

/// Size reserved for one bucket's metadata, in bytes. The paper keeps Ring
/// ORAM's 33 B plus AB-ORAM's 28 B of additional metadata within one block
/// (§VIII-H), so a single 64 B access covers a bucket's metadata.
pub const METADATA_BLOCK_BYTES: u64 = 64;

/// A physical byte address of one slot (or metadata block) in the simulated
/// memory, used as the DRAM request address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotAddr(pub u64);

impl SlotAddr {
    /// The raw byte address.
    pub const fn byte(self) -> u64 {
        self.0
    }
}

/// Precomputed physical layout for one [`TreeGeometry`].
///
/// Construction is `O(levels)`; address computations are `O(1)`.
///
/// # Example
///
/// ```
/// use aboram_tree::{TreeGeometry, LevelConfig, PhysicalLayout, BucketId, SlotId};
///
/// let geo = TreeGeometry::uniform(4, LevelConfig::new(5, 3)).unwrap();
/// let layout = PhysicalLayout::new(&geo);
/// let root_slot0 = layout.slot_addr(SlotId::new(BucketId::new(0), 0)).unwrap();
/// assert_eq!(root_slot0.byte(), 0);
/// // Total footprint: 15 buckets * 8 slots * 64 B data + 15 * 64 B metadata.
/// assert_eq!(layout.total_bytes(), 15 * 8 * 64 + 15 * 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalLayout {
    levels: u8,
    /// Per-level slot-base table: byte address a bucket's slot 0 *would*
    /// have if the level started at raw bucket index 0, i.e.
    /// `base_byte(level) - first_raw(level) * z * BLOCK_BYTES` in wrapping
    /// arithmetic. Lets [`slot_addr`](PhysicalLayout::slot_addr) use
    /// `bucket.raw()` directly instead of recomputing `index_in_level`.
    level_slot_base: Vec<u64>,
    /// Bucket stride (`Z * BLOCK_BYTES`) at each level, in bytes.
    level_stride: Vec<u64>,
    /// Physical slots per bucket (`Z`) at each level *in the contiguous
    /// region the level was first laid out with* — slot indices below this
    /// resolve through the base table.
    level_z: Vec<u8>,
    /// Current per-level slot capacity including appended extents
    /// (`== level_z` until the layout grows).
    level_z_cap: Vec<u8>,
    /// First byte of the (contiguous) metadata region.
    metadata_base: u64,
    bucket_count: u64,
    /// Buckets whose metadata lives in the contiguous region at
    /// `metadata_base` (the construction-time bucket count).
    meta_contiguous: u64,
    /// Appended slot extents from capacity growth (segmented-vector style:
    /// existing addresses are never moved, new space is appended past the
    /// high-water mark). Empty for fixed-capacity layouts.
    ext_slots: Vec<SlotExtent>,
    /// Appended metadata extents, one per growth epoch.
    ext_meta: Vec<MetaExtent>,
    /// First unassigned byte; `== total_bytes()`.
    high_water: u64,
}

/// One appended range of slot indices for every bucket of one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotExtent {
    level: u8,
    /// First slot index this extent covers.
    first_index: u8,
    /// Number of slot indices covered per bucket.
    count: u8,
    /// First byte of the extent (slot `first_index` of the level's bucket 0).
    base: u64,
}

/// One appended range of metadata blocks for newly added buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MetaExtent {
    /// First raw bucket id this extent covers.
    first_raw: u64,
    /// Number of buckets covered.
    count: u64,
    base: u64,
}

impl PhysicalLayout {
    /// Builds the layout for `geometry`.
    pub fn new(geometry: &TreeGeometry) -> Self {
        let levels = geometry.levels();
        let mut level_slot_base = Vec::with_capacity(levels as usize);
        let mut level_stride = Vec::with_capacity(levels as usize);
        let mut level_z = Vec::with_capacity(levels as usize);
        let mut next_block = 0u64;
        for l in 0..levels {
            let level = Level(l);
            let z = geometry.level_config(level).z_total();
            let stride = u64::from(z) * BLOCK_BYTES;
            let first_raw = (1u64 << l) - 1;
            // May wrap below zero for non-uniform trees; slot_addr's matching
            // wrapping_add cancels it exactly for every in-range bucket.
            level_slot_base
                .push((next_block * BLOCK_BYTES).wrapping_sub(first_raw.wrapping_mul(stride)));
            level_stride.push(stride);
            level_z.push(z);
            next_block += geometry.buckets_at_level(level) * u64::from(z);
        }
        let metadata_base = next_block * BLOCK_BYTES;
        let bucket_count = geometry.bucket_count();
        PhysicalLayout {
            levels,
            level_slot_base,
            level_stride,
            level_z_cap: level_z.clone(),
            level_z,
            metadata_base,
            bucket_count,
            meta_contiguous: bucket_count,
            ext_slots: Vec::new(),
            ext_meta: Vec::new(),
            high_water: metadata_base + bucket_count * METADATA_BLOCK_BYTES,
        }
    }

    /// Grows the layout in place to cover `geometry`, which must have
    /// exactly one more level. Every address handed out before the grow is
    /// preserved byte-for-byte: new space — the new leaf level's slots and
    /// metadata, plus extra slots for existing levels whose `Z` increased
    /// under the new geometry — is appended past the high-water mark
    /// (segmented growth, never a relayout). Levels whose `Z` *decreased*
    /// keep their allocated capacity; the engine simply stops using the
    /// surplus slots.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::BadLevelCount`] unless
    /// `geometry.levels() == self.levels() + 1`.
    pub fn grow(&mut self, geometry: &TreeGeometry) -> Result<(), GeometryError> {
        if geometry.levels() != self.levels + 1 {
            return Err(GeometryError::BadLevelCount { levels: geometry.levels() });
        }
        // Extend existing levels whose bucket capacity increased.
        for l in 0..self.levels {
            let z_new = geometry.level_config(Level(l)).z_total();
            let cap = self.level_z_cap[l as usize];
            if z_new > cap {
                let count = z_new - cap;
                self.ext_slots.push(SlotExtent {
                    level: l,
                    first_index: cap,
                    count,
                    base: self.high_water,
                });
                self.high_water += (1u64 << l) * u64::from(count) * BLOCK_BYTES;
                self.level_z_cap[l as usize] = z_new;
            }
        }
        // The new leaf level gets a contiguous region of its own, addressed
        // through the base table like any construction-time level.
        let leaf = geometry.levels() - 1;
        let z = geometry.level_config(Level(leaf)).z_total();
        let stride = u64::from(z) * BLOCK_BYTES;
        let first_raw = (1u64 << leaf) - 1;
        self.level_slot_base.push(self.high_water.wrapping_sub(first_raw.wrapping_mul(stride)));
        self.level_stride.push(stride);
        self.level_z.push(z);
        self.level_z_cap.push(z);
        self.high_water += (1u64 << leaf) * u64::from(z) * BLOCK_BYTES;
        // Metadata blocks for the new buckets.
        let old_count = self.bucket_count;
        let new_count = geometry.bucket_count();
        self.ext_meta.push(MetaExtent {
            first_raw: old_count,
            count: new_count - old_count,
            base: self.high_water,
        });
        self.high_water += (new_count - old_count) * METADATA_BLOCK_BYTES;
        self.bucket_count = new_count;
        self.levels = geometry.levels();
        Ok(())
    }

    /// Current slot capacity of buckets at `level`, including appended
    /// extents.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level_capacity(&self, level: Level) -> u8 {
        self.level_z_cap[level.0 as usize]
    }

    /// Byte address of a data slot.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::BucketOutOfRange`] or
    /// [`GeometryError::SlotOutOfRange`] for invalid identifiers.
    #[inline]
    pub fn slot_addr(&self, slot: SlotId) -> Result<SlotAddr, GeometryError> {
        let raw = slot.bucket.raw();
        if raw >= self.bucket_count {
            return Err(GeometryError::BucketOutOfRange {
                bucket: raw,
                buckets: self.bucket_count,
            });
        }
        let l = slot.bucket.level().0 as usize;
        let z = self.level_z[l];
        if slot.index < z {
            let byte = self.level_slot_base[l]
                .wrapping_add(raw.wrapping_mul(self.level_stride[l]))
                .wrapping_add(u64::from(slot.index) * BLOCK_BYTES);
            return Ok(SlotAddr(byte));
        }
        // Growth extents are rare (one per changed level per epoch), so a
        // linear scan stays O(1) in practice.
        for e in &self.ext_slots {
            if usize::from(e.level) == l
                && slot.index >= e.first_index
                && slot.index < e.first_index + e.count
            {
                let index_in_level = raw - ((1u64 << e.level) - 1);
                let byte = e.base
                    + (index_in_level * u64::from(e.count) + u64::from(slot.index - e.first_index))
                        * BLOCK_BYTES;
                return Ok(SlotAddr(byte));
            }
        }
        Err(GeometryError::SlotOutOfRange { slot: slot.index, z_total: self.level_z_cap[l] })
    }

    /// Appends the [`slot_addr`](Self::slot_addr) of every slot in `slots`
    /// to `out`, in order.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`slot_addr`](Self::slot_addr); on error
    /// `out` keeps the addresses appended before the offending slot.
    pub fn slot_addrs(
        &self,
        slots: &[SlotId],
        out: &mut Vec<SlotAddr>,
    ) -> Result<(), GeometryError> {
        out.reserve(slots.len());
        for &slot in slots {
            out.push(self.slot_addr(slot)?);
        }
        Ok(())
    }

    /// Byte address of a bucket's metadata block.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::BucketOutOfRange`] for invalid buckets.
    #[inline]
    pub fn metadata_addr(&self, bucket: BucketId) -> Result<SlotAddr, GeometryError> {
        if bucket.raw() >= self.bucket_count {
            return Err(GeometryError::BucketOutOfRange {
                bucket: bucket.raw(),
                buckets: self.bucket_count,
            });
        }
        let raw = bucket.raw();
        if raw < self.meta_contiguous {
            return Ok(SlotAddr(self.metadata_base + raw * METADATA_BLOCK_BYTES));
        }
        for e in &self.ext_meta {
            if raw >= e.first_raw && raw < e.first_raw + e.count {
                return Ok(SlotAddr(e.base + (raw - e.first_raw) * METADATA_BLOCK_BYTES));
            }
        }
        unreachable!("bucket {raw} below bucket_count but outside every metadata extent")
    }

    /// Total simulated memory footprint: data region plus metadata region
    /// plus any growth extents.
    pub fn total_bytes(&self) -> u64 {
        self.high_water
    }

    /// Bytes occupied by the data region alone.
    pub fn data_bytes(&self) -> u64 {
        self.metadata_base
    }

    /// Number of levels in the underlying geometry.
    pub fn levels(&self) -> u8 {
        self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::LevelConfig;

    fn layout(levels: u8) -> (TreeGeometry, PhysicalLayout) {
        let geo = TreeGeometry::uniform(levels, LevelConfig::new(5, 3).with_overlap(4)).unwrap();
        let l = PhysicalLayout::new(&geo);
        (geo, l)
    }

    #[test]
    fn addresses_are_unique_and_block_aligned() {
        let geo = TreeGeometry::uniform(5, LevelConfig::new(2, 1))
            .unwrap()
            .override_bottom_levels(2, LevelConfig::new(2, 3))
            .unwrap();
        let layout = PhysicalLayout::new(&geo);
        let mut seen = std::collections::HashSet::new();
        for b in 0..geo.bucket_count() {
            let bucket = BucketId::new(b);
            let z = geo.level_config(bucket.level()).z_total();
            for s in 0..z {
                let a = layout.slot_addr(SlotId::new(bucket, s)).unwrap();
                assert_eq!(a.byte() % BLOCK_BYTES, 0);
                assert!(seen.insert(a.byte()), "duplicate address {}", a.byte());
            }
            let m = layout.metadata_addr(bucket).unwrap();
            assert!(seen.insert(m.byte()), "metadata collides with data");
        }
        assert_eq!(seen.len() as u64 * BLOCK_BYTES, layout.total_bytes());
    }

    #[test]
    fn non_uniform_levels_pack_densely() {
        // 3 levels: root Z=8, middle Z=8, leaves Z=6.
        let geo = TreeGeometry::uniform(3, LevelConfig::new(5, 3))
            .unwrap()
            .override_bottom_levels(1, LevelConfig::new(5, 1))
            .unwrap();
        let layout = PhysicalLayout::new(&geo);
        // data blocks: 1*8 + 2*8 + 4*6 = 48
        assert_eq!(layout.data_bytes(), 48 * BLOCK_BYTES);
        let leaf0 = BucketId::from_level_index(Level(2), 0);
        let addr = layout.slot_addr(SlotId::new(leaf0, 0)).unwrap();
        assert_eq!(addr.byte(), 24 * BLOCK_BYTES);
    }

    #[test]
    fn batched_slot_addrs_match_scalar_everywhere() {
        // Non-uniform tree plus one growth epoch: the batch helper must
        // agree with the scalar form on contiguous levels, across level
        // boundaries, on scattered (remote-style) inputs, and inside
        // growth extents.
        let small = TreeGeometry::uniform(4, LevelConfig::new(5, 3))
            .unwrap()
            .override_bottom_levels(2, LevelConfig::new(5, 1))
            .unwrap();
        let big = TreeGeometry::uniform(5, LevelConfig::new(5, 3))
            .unwrap()
            .override_bottom_levels(2, LevelConfig::new(5, 1))
            .unwrap();
        let mut layout = PhysicalLayout::new(&small);
        layout.grow(&big).unwrap();

        let mut slots = Vec::new();
        for b in 0..big.bucket_count() {
            let bucket = BucketId::new(b);
            for s in 0..layout.level_capacity(bucket.level()) {
                slots.push(SlotId::new(bucket, s));
            }
        }
        // A scattered tail re-visits earlier buckets out of level order.
        let scatter: Vec<SlotId> = slots.iter().rev().step_by(7).copied().collect();
        slots.extend(scatter);

        let mut batched = Vec::new();
        layout.slot_addrs(&slots, &mut batched).unwrap();
        let scalar: Vec<SlotAddr> = slots.iter().map(|&s| layout.slot_addr(s).unwrap()).collect();
        assert_eq!(batched, scalar);

        // Errors match the scalar form and preserve the prefix.
        let bad = [slots[0], SlotId::new(BucketId::new(big.bucket_count()), 0)];
        let mut out = Vec::new();
        assert!(layout.slot_addrs(&bad, &mut out).is_err());
        assert_eq!(out, vec![scalar[0]]);
    }

    #[test]
    fn out_of_range_rejected() {
        let (geo, layout) = layout(4);
        let bad_bucket = BucketId::new(geo.bucket_count());
        assert!(layout.slot_addr(SlotId::new(bad_bucket, 0)).is_err());
        assert!(layout.metadata_addr(bad_bucket).is_err());
        let ok_bucket = BucketId::new(0);
        assert!(layout.slot_addr(SlotId::new(ok_bucket, 8)).is_err());
        assert!(layout.slot_addr(SlotId::new(ok_bucket, 7)).is_ok());
    }

    #[test]
    fn growth_preserves_every_existing_address() {
        let small = TreeGeometry::uniform(4, LevelConfig::new(5, 3))
            .unwrap()
            .override_bottom_levels(2, LevelConfig::new(5, 1))
            .unwrap();
        // Growing shifts the small-bucket band down: old level 2 returns to
        // Z = 8, the new leaf level and old level 3 get Z = 6.
        let big = TreeGeometry::uniform(5, LevelConfig::new(5, 3))
            .unwrap()
            .override_bottom_levels(2, LevelConfig::new(5, 1))
            .unwrap();
        let mut layout = PhysicalLayout::new(&small);
        let meta_before: Vec<u64> = (0..small.bucket_count())
            .map(|b| layout.metadata_addr(BucketId::new(b)).unwrap().byte())
            .collect();
        let slots_before: Vec<u64> = (0..small.bucket_count())
            .flat_map(|b| {
                let bucket = BucketId::new(b);
                let z = small.level_config(bucket.level()).z_total();
                (0..z).map(move |s| (bucket, s))
            })
            .map(|(bucket, s)| layout.slot_addr(SlotId::new(bucket, s)).unwrap().byte())
            .collect();

        layout.grow(&big).unwrap();
        assert_eq!(layout.levels(), 5);

        // Pre-existing slot and metadata addresses are byte-identical.
        let slots_after: Vec<u64> = (0..small.bucket_count())
            .flat_map(|b| {
                let bucket = BucketId::new(b);
                let z = small.level_config(bucket.level()).z_total();
                (0..z).map(move |s| (bucket, s))
            })
            .map(|(bucket, s)| layout.slot_addr(SlotId::new(bucket, s)).unwrap().byte())
            .collect();
        assert_eq!(slots_before, slots_after, "grow moved an existing slot");
        let meta_after: Vec<u64> = (0..small.bucket_count())
            .map(|b| layout.metadata_addr(BucketId::new(b)).unwrap().byte())
            .collect();
        assert_eq!(meta_before, meta_after, "grow moved existing metadata");

        // Every address under the grown geometry is unique and aligned.
        let mut seen = std::collections::HashSet::new();
        for b in 0..big.bucket_count() {
            let bucket = BucketId::new(b);
            let z = big.level_config(bucket.level()).z_total();
            for s in 0..z.max(layout.level_capacity(bucket.level())) {
                if s < layout.level_capacity(bucket.level()) {
                    let a = layout.slot_addr(SlotId::new(bucket, s)).unwrap().byte();
                    assert_eq!(a % BLOCK_BYTES, 0);
                    assert!(seen.insert(a), "duplicate slot address {a}");
                }
            }
            let m = layout.metadata_addr(bucket).unwrap().byte();
            assert!(seen.insert(m), "metadata address {m} collides");
        }
        assert!(seen.len() as u64 * BLOCK_BYTES <= layout.total_bytes());
        // Old level 2 (Z 6 → 8) resolves its two appended slots.
        let l2 = BucketId::from_level_index(Level(2), 1);
        assert_eq!(layout.level_capacity(Level(2)), 8);
        assert!(layout.slot_addr(SlotId::new(l2, 7)).is_ok());
        assert!(layout.slot_addr(SlotId::new(l2, 8)).is_err());
    }

    #[test]
    fn grow_requires_exactly_one_more_level() {
        let (geo, mut l) = layout(4);
        assert!(l.grow(&geo).is_err(), "same level count rejected");
        let too_big = TreeGeometry::uniform(6, LevelConfig::new(5, 3).with_overlap(4)).unwrap();
        assert!(l.grow(&too_big).is_err());
    }

    #[test]
    fn paper_footprint_8gb_tree() {
        // §VII: 24 levels, Z = 8, 64 B blocks → (2^24 - 1) * 8 * 64 B ≈ 8 GB.
        let (_, layout) = layout(24);
        assert_eq!(layout.data_bytes(), ((1u64 << 24) - 1) * 8 * 64);
    }
}
