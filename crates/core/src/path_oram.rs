//! Path ORAM (§III-A) — the substrate protocol Ring ORAM builds on, kept as
//! an independent engine for cross-protocol comparisons (IR-ORAM was
//! originally a Path ORAM optimization; §VIII-A discusses the contrast).
//!
//! Path ORAM services every request with a full read-path / write-path pair:
//! `L × Z` block reads and writes per access, against Ring ORAM's one block
//! per bucket online. The engine shares the stash, position-map and
//! geometry substrates with [`crate::RingOram`].

use crate::config::OramConfig;
use crate::error::OramError;
use crate::fault::{FaultSite, BACKOFF_BASE_CYCLES, MAX_FAULT_RETRIES};
use crate::posmap::PositionMap;
use crate::sink::{MemorySink, OramOp};
use crate::stash::{EvictionPlan, Held, Stash};
use crate::{BlockId, BLOCK_BYTES};
use aboram_stats::RecoveryStats;
use aboram_telemetry::{self as telemetry, Phase};
use aboram_tree::{BucketId, Level, PathId, PhysicalLayout, SlotAddr, TreeGeometry};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-bucket state: which real blocks currently sit in the bucket, each
/// with its path label and (when the data path is on) its contents.
#[derive(Debug, Clone, Default)]
struct PathBucket {
    blocks: Vec<(BlockId, PathId, [u8; BLOCK_BYTES])>,
}

/// A Path ORAM engine.
///
/// # Example
///
/// ```
/// use aboram_core::{OramConfig, Scheme, PathOram, CountingSink, OramOp};
///
/// let cfg = OramConfig::builder(10, Scheme::PlainRing).build().unwrap();
/// let mut oram = PathOram::new(&cfg).unwrap();
/// let mut sink = CountingSink::new();
/// oram.access(3, &mut sink).unwrap();
/// // Path ORAM reads and writes whole paths.
/// assert!(sink.total(OramOp::ReadPath) > 10);
/// ```
#[derive(Debug)]
pub struct PathOram {
    cfg: OramConfig,
    geo: TreeGeometry,
    layout: PhysicalLayout,
    posmap: PositionMap,
    buckets: Vec<PathBucket>,
    stash: Stash,
    /// The write-back's eviction plan, kept for its buffers.
    plan: EvictionPlan,
    rng: StdRng,
    accesses: u64,
    recovery: RecoveryStats,
    store_data: bool,
}

impl PathOram {
    /// Builds the engine and bulk-loads all blocks.
    ///
    /// Path ORAM uses the whole bucket for real blocks (`Z' = Z`), at 50 %
    /// load; the configured geometry's `z_real` is the per-bucket capacity.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors; fails with
    /// [`OramError::BadParameter`] for a growth-enabled configuration (the
    /// reference engine has a fixed capacity) and with
    /// [`OramError::StashOverflow`] if bulk load cannot place the blocks.
    pub fn new(cfg: &OramConfig) -> Result<Self, OramError> {
        if cfg.growth.is_some() {
            return Err(OramError::BadParameter {
                name: "growth",
                reason: "Path ORAM is a fixed-capacity reference engine".to_string(),
            });
        }
        let geo = cfg.geometry()?;
        let layout = PhysicalLayout::new(&geo);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let blocks = cfg.real_block_count();
        let posmap = PositionMap::new_random(blocks, geo.leaf_count(), &mut rng);
        let mut engine = PathOram {
            cfg: cfg.clone(),
            buckets: vec![PathBucket::default(); geo.bucket_count() as usize],
            geo,
            layout,
            posmap,
            stash: Stash::new(cfg.stash_capacity, cfg.levels, cfg.store_data),
            plan: EvictionPlan::default(),
            rng,
            accesses: 0,
            recovery: RecoveryStats::new(),
            store_data: cfg.store_data,
        };
        engine.bulk_load()?;
        Ok(engine)
    }

    fn bulk_load(&mut self) -> Result<(), OramError> {
        let levels = self.geo.levels();
        for block in 0..self.posmap.len() {
            let label = self.posmap.path_of(block);
            let mut placed = false;
            for l in (0..levels).rev() {
                let bucket = self.geo.bucket_on_path(label, Level(l));
                let cap = usize::from(self.geo.level_config(Level(l)).z_real);
                let pb = &mut self.buckets[bucket.raw() as usize];
                if pb.blocks.len() < cap {
                    pb.blocks.push((block, label, [0; BLOCK_BYTES]));
                    placed = true;
                    break;
                }
            }
            if !placed {
                self.stash.insert(block, label, &[0; BLOCK_BYTES]);
                if self.stash.overflowed() {
                    return Err(OramError::StashOverflow { capacity: self.stash.capacity() });
                }
            }
        }
        Ok(())
    }

    /// Total accesses performed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Fault-recovery counters (all zero unless the sink injects faults).
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Re-issues a faulted transfer with exponential backoff until the sink
    /// reports it clean, or fails with [`OramError::RetriesExhausted`].
    fn retry_transfer(
        &mut self,
        addr: SlotAddr,
        site: FaultSite,
        op: OramOp,
        online: bool,
        level: u8,
        sink: &mut impl MemorySink,
    ) -> Result<(), OramError> {
        telemetry::span(Phase::RecoveryRetry);
        for attempt in 0..MAX_FAULT_RETRIES {
            self.recovery.backoff_cycles += BACKOFF_BASE_CYCLES << attempt;
            telemetry::event("retry", Phase::RecoveryRetry, level, u64::from(attempt));
            match site {
                FaultSite::Data | FaultSite::Metadata => {
                    self.recovery.integrity_retries += 1;
                    sink.read(addr, op, online);
                    telemetry::mem_read(Phase::RecoveryRetry, level);
                }
                FaultSite::WriteAck => {
                    self.recovery.write_retries += 1;
                    sink.write(addr, op, online);
                    telemetry::mem_write(Phase::RecoveryRetry, level);
                }
            }
            if sink.poll_fault(addr, site).is_none() {
                return Ok(());
            }
        }
        telemetry::dump_ring("retries_exhausted");
        Err(OramError::RetriesExhausted { address: addr.byte(), attempts: MAX_FAULT_RETRIES })
    }

    /// Reads one path slot with integrity verification and bounded retry.
    fn read_slot(
        &mut self,
        addr: SlotAddr,
        level: u8,
        sink: &mut impl MemorySink,
    ) -> Result<(), OramError> {
        sink.read(addr, OramOp::ReadPath, true);
        telemetry::mem_read(Phase::ReadPath, level);
        if sink.poll_fault(addr, FaultSite::Data).is_some() {
            self.recovery.integrity_faults_detected += 1;
            telemetry::event("data_fault", Phase::RecoveryRetry, level, addr.byte());
            self.retry_transfer(addr, FaultSite::Data, OramOp::ReadPath, true, level, sink)?;
            self.recovery.integrity_faults_recovered += 1;
        }
        Ok(())
    }

    /// Writes one path slot, re-issuing on a dropped-write fault.
    fn write_slot(
        &mut self,
        addr: SlotAddr,
        level: u8,
        sink: &mut impl MemorySink,
    ) -> Result<(), OramError> {
        sink.write(addr, OramOp::ReadPath, false);
        telemetry::mem_write(Phase::ReadPath, level);
        if sink.poll_fault(addr, FaultSite::WriteAck).is_some() {
            self.recovery.dropped_writes_detected += 1;
            telemetry::event("write_dropped", Phase::RecoveryRetry, level, addr.byte());
            self.retry_transfer(addr, FaultSite::WriteAck, OramOp::ReadPath, false, level, sink)?;
            self.recovery.dropped_writes_recovered += 1;
        }
        Ok(())
    }

    /// One full Path ORAM access: read path, remap, write path (§III-A).
    ///
    /// # Errors
    ///
    /// Returns [`OramError::BlockOutOfRange`] or
    /// [`OramError::StashOverflow`].
    pub fn access(&mut self, block: BlockId, sink: &mut impl MemorySink) -> Result<(), OramError> {
        self.access_inner(block, None, sink).map(|_| ())
    }

    /// Reads `block`'s contents through the full protocol.
    ///
    /// # Errors
    ///
    /// Fails with [`OramError::DataPathDisabled`] unless the configuration
    /// enabled `store_data`; otherwise same failure modes as
    /// [`access`](Self::access).
    pub fn read(
        &mut self,
        block: BlockId,
        sink: &mut impl MemorySink,
    ) -> Result<[u8; BLOCK_BYTES], OramError> {
        if !self.store_data {
            return Err(OramError::DataPathDisabled);
        }
        self.access_inner(block, None, sink)?
            .ok_or(OramError::Internal { context: "enabled data path returned no block" })
    }

    /// Writes `data` to `block` through the full protocol.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`read`](Self::read).
    pub fn write(
        &mut self,
        block: BlockId,
        data: [u8; BLOCK_BYTES],
        sink: &mut impl MemorySink,
    ) -> Result<(), OramError> {
        if !self.store_data {
            return Err(OramError::DataPathDisabled);
        }
        self.access_inner(block, Some(data), sink).map(|_| ())
    }

    fn access_inner(
        &mut self,
        block: BlockId,
        new_data: Option<[u8; BLOCK_BYTES]>,
        sink: &mut impl MemorySink,
    ) -> Result<Option<[u8; BLOCK_BYTES]>, OramError> {
        if block >= self.posmap.len() {
            return Err(OramError::BlockOutOfRange { block, count: self.posmap.len() });
        }
        self.accesses += 1;
        telemetry::span(Phase::ReadPath);
        let recovery_before = self.recovery;
        let label = self.posmap.path_of(block);
        let new_label = self.posmap.remap(block, &mut self.rng);
        let path: Vec<BucketId> = self.geo.path_buckets(label).collect();

        // (1) Read path: all Z slots of every bucket into the stash.
        let mut slot_ids = Vec::new();
        let mut slot_bytes = Vec::new();
        for &bucket in &path {
            let z = self.geo.level_config(bucket.level()).z_total();
            if self.off_chip(bucket) {
                slot_ids.clear();
                slot_ids.extend((0..z).map(|s| aboram_tree::SlotId::new(bucket, s)));
                slot_bytes.clear();
                self.layout.slot_addrs(&slot_ids, &mut slot_bytes)?;
                for &addr in &slot_bytes {
                    self.read_slot(addr, bucket.level().0, sink)?;
                }
            }
            let pb = &mut self.buckets[bucket.raw() as usize];
            for (b, l, d) in pb.blocks.drain(..) {
                self.stash.insert(b, l, &d);
            }
        }
        // (2) Remap, then serve the request from the stash (the whole path
        // was just pulled in, so the target is guaranteed to be there).
        self.stash.relabel(block, label, new_label);
        let served = if self.store_data {
            let cur = self
                .stash
                .get(block, new_label)
                .ok_or(OramError::Internal { context: "target block missing after path read" })?;
            let out = cur.data;
            if let Some(data) = new_data {
                self.stash.set_data(block, new_label, &data);
            }
            Some(out)
        } else {
            None
        };
        if self.stash.overflowed() {
            return Err(OramError::StashOverflow { capacity: self.stash.capacity() });
        }

        // (3) Write path, leaf to root, greedily placing matching blocks:
        // one pass over the stash plans every level (tier = level).
        let geo = &self.geo;
        self.stash.plan_eviction(
            &Held::default(),
            usize::from(geo.levels()),
            |tier| usize::from(geo.level_config(Level(tier as u8)).z_real),
            |l| Some(usize::from(geo.common_prefix_levels(l, label)) - 1),
            &mut self.plan,
        );
        for &bucket in path.iter().rev() {
            let level = bucket.level();
            for pick in self.plan.picks(usize::from(level.0)) {
                let b = pick.block();
                let e = self
                    .stash
                    .remove(b, self.posmap.path_of(b))
                    .ok_or(OramError::Internal { context: "eviction candidate left the stash" })?;
                self.buckets[bucket.raw() as usize].blocks.push((e.block, e.label, e.data));
            }
            let z = self.geo.level_config(level).z_total();
            if self.off_chip(bucket) {
                slot_ids.clear();
                slot_ids.extend((0..z).map(|s| aboram_tree::SlotId::new(bucket, s)));
                slot_bytes.clear();
                self.layout.slot_addrs(&slot_ids, &mut slot_bytes)?;
                for &addr in &slot_bytes {
                    self.write_slot(addr, level.0, sink)?;
                }
            }
        }
        if self.recovery != recovery_before {
            self.recovery.degraded_accesses += 1;
        }
        Ok(served)
    }

    /// Checks that a block is findable (stash or its path) — test hook.
    pub fn check_block_reachable(&self, block: BlockId) -> bool {
        if block >= self.posmap.len() {
            return false;
        }
        let label = self.posmap.path_of(block);
        if self.stash.contains(block, label) {
            return true;
        }
        self.geo.path_buckets(label).any(|bucket| {
            self.buckets[bucket.raw() as usize].blocks.iter().any(|(b, ..)| *b == block)
        })
    }

    fn off_chip(&self, bucket: BucketId) -> bool {
        bucket.level().0 >= self.cfg.treetop_levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::sink::{CountingSink, OramOp};
    use rand::{Rng, SeedableRng};

    fn engine(levels: u8) -> PathOram {
        let cfg = OramConfig::builder(levels, Scheme::PlainRing).seed(5).build().unwrap();
        PathOram::new(&cfg).unwrap()
    }

    #[test]
    fn all_blocks_reachable_after_bulk_load_and_churn() {
        let mut oram = engine(10);
        let mut sink = CountingSink::new();
        let blocks = ((1u64 << 10) - 1) * 5 / 2;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..3_000 {
            oram.access(rng.gen_range(0..blocks), &mut sink).unwrap();
        }
        for b in 0..blocks {
            assert!(oram.check_block_reachable(b), "block {b} lost");
        }
    }

    #[test]
    fn access_costs_full_paths() {
        let mut oram = engine(10);
        let mut sink = CountingSink::new();
        oram.access(0, &mut sink).unwrap();
        // With treetop level 1 cached: 9 off-chip buckets x Z = 12, read + write.
        assert_eq!(sink.reads(OramOp::ReadPath), 9 * 12);
        assert_eq!(sink.writes(OramOp::ReadPath), 9 * 12);
    }

    #[test]
    fn stash_stays_small_at_half_load() {
        let mut oram = engine(12);
        let mut sink = CountingSink::new();
        let blocks = ((1u64 << 12) - 1) * 5 / 2;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            oram.access(rng.gen_range(0..blocks), &mut sink).unwrap();
        }
        assert!(
            oram.stash_len() < 50,
            "Path ORAM stash should stay small, got {}",
            oram.stash_len()
        );
    }

    #[test]
    fn invalid_block_rejected() {
        let mut oram = engine(10);
        let mut sink = CountingSink::new();
        assert!(oram.access(u64::MAX, &mut sink).is_err());
    }

    #[test]
    fn accesses_counted() {
        let mut oram = engine(10);
        let mut sink = CountingSink::new();
        for b in 0..7 {
            oram.access(b, &mut sink).unwrap();
        }
        assert_eq!(oram.accesses(), 7);
    }

    #[test]
    fn growth_config_is_refused() {
        let cfg = OramConfig::builder(8, Scheme::PlainRing)
            .growth(crate::config::GrowthConfig::up_to(10))
            .build()
            .unwrap();
        let err = PathOram::new(&cfg).unwrap_err();
        assert!(matches!(err, OramError::BadParameter { name: "growth", .. }), "{err:?}");
    }
}
