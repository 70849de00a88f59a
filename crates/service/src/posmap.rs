//! The real recursive position map: a chain of Ring ORAM trees.
//!
//! The engine keeps every block's position in an in-memory [`PositionMap`]
//! (`aboram_core::PositionMap`) — the paper's model, where posmap lookups
//! are on-chip and free. A *serving* system cannot assume that: at
//! production scale the position map itself is protected data, stored
//! recursively in smaller ORAM trees (Path ORAM §6 / Freecursive ORAM).
//! This module builds that chain for real:
//!
//! * posmap tree *k* stores the positions of tree *k − 1*'s blocks
//!   (tree 0 = the data tree), packed [`ENTRIES_PER_BLOCK`] entries per
//!   64 B block;
//! * the ladder shrinks ×8 per level until the top tree's own positions
//!   fit in a small on-chip root table (`root_max_entries`);
//! * every lookup walks coarsest → finest: each level fetches the child's
//!   claimed position and — in the *same* access, via the engine's managed
//!   read-modify-write — overwrites the entry with the child's freshly
//!   drawn next position, so one request costs exactly one access per
//!   chain level.
//!
//! The client (this module) draws all new positions from its own RNG
//! *before* the accesses run, which is what makes the write-parent-first
//! walk possible; the engine's internal map remains the ground truth, and
//! every entry fetched from the chain is asserted against it
//! ([`PosMapStats::verified_entries`] counts those checks).

use crate::lane::{Arrival, Lane, Op};
use aboram_core::{BlockId, OramConfig, OramError, Scheme, StorageBackend, BLOCK_BYTES};
use aboram_tree::PathId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Backend constructor the chain uses for each of its trees, so the
/// ladder runs timed or untimed to match the store it serves.
pub type BackendFactory<'a> =
    dyn FnMut(&OramConfig) -> Result<Box<dyn StorageBackend>, OramError> + 'a;

/// Bytes per packed position entry (a full leaf label).
pub const ENTRY_BYTES: usize = 8;

/// Position entries packed into one 64 B ORAM block.
pub const ENTRIES_PER_BLOCK: u64 = (BLOCK_BYTES / ENTRY_BYTES) as u64;

/// Shape and seeding of the recursion ladder.
#[derive(Debug, Clone)]
pub struct RecursionConfig {
    /// The chain stops once a level's block count fits this on-chip root
    /// table (the serving analogue of `PlbConfig::onchip_posmap_bytes`).
    pub root_max_entries: u64,
    /// Scheme for the posmap trees themselves. Defaults to `Baseline`:
    /// posmap trees are small and uniform, and the space-reduction schemes
    /// target the big data tree.
    pub scheme: Scheme,
    /// Seed for the per-tree engines and the position-drawing RNG.
    pub seed: u64,
}

impl Default for RecursionConfig {
    fn default() -> Self {
        RecursionConfig { root_max_entries: 64, scheme: Scheme::Baseline, seed: 1 }
    }
}

/// Counters the service layer and the accounting cross-check consume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PosMapStats {
    /// Chain walks performed (one per real store access).
    pub requests: u64,
    /// Real posmap-tree ORAM accesses (excludes the data tree).
    pub tree_accesses: u64,
    /// Dummy posmap-tree accesses (miss hiding and batch padding).
    pub dummy_tree_accesses: u64,
    /// Chain entries checked against engine ground truth — every fetched
    /// entry is verified, so this equals `requests × chain depth`.
    pub verified_entries: u64,
    /// Data-tree level growths observed by the chain's owner. The ladder
    /// is pre-sized for the data tree's capacity ceiling, so a growth
    /// changes no chain shape — entries written before it are translated
    /// by deterministic label replay instead.
    pub level_grows: u64,
}

/// A chain of Ring ORAM trees resolving data-block positions.
///
/// `trees[0]` is the finest tree (entries for data blocks);
/// `trees.last()` is the coarsest, whose own block positions live in the
/// on-chip `root` table.
pub struct RecursivePosMap {
    trees: Vec<Box<dyn StorageBackend>>,
    /// `counts[k]` = blocks tracked at level `k` (level 0 = data blocks).
    counts: Vec<u64>,
    root: Vec<u64>,
    rng: StdRng,
    stats: PosMapStats,
    /// The inline lane the public walk runs on; inside a store, the
    /// store's lane is passed in instead.
    lane: Lane,
}

impl std::fmt::Debug for RecursivePosMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecursivePosMap")
            .field("counts", &self.counts)
            .field("root_entries", &self.root.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Smallest tree that holds `blocks` protected blocks under the §VII
/// half-capacity convention, with the engine's 8-level floor.
fn levels_for(blocks: u64) -> u8 {
    let mut l: u8 = 8;
    while ((1u64 << l) - 1) * 5 / 2 < blocks {
        l += 1;
    }
    l
}

impl RecursivePosMap {
    /// Builds the ladder over `data_blocks` blocks and initializes every
    /// chain entry from ground truth: `data_position` reports the data
    /// engine's current assignment per block (posmap trees report their
    /// own via their engines). `make_backend` constructs each tree's
    /// backend, so the chain runs timed or untimed to match the store.
    ///
    /// Finest-level entries are *opaque* to the chain: the store encodes
    /// whatever it needs into the u64 (an auto-scaling store packs a tree
    /// depth next to the leaf so entries survive data-tree growth); the
    /// chain stores, swaps and returns them verbatim. For an auto-scaling
    /// store, `data_blocks` is the capacity *ceiling*, so the ladder shape
    /// — and hence the per-request access pattern — never changes when the
    /// data tree grows; entries for not-yet-materialized blocks hold
    /// whatever `data_position` returns for them and are overwritten on
    /// first insert.
    ///
    /// # Errors
    ///
    /// Propagates engine construction/protocol errors.
    pub fn new(
        data_blocks: u64,
        data_position: &dyn Fn(BlockId) -> u64,
        cfg: &RecursionConfig,
        make_backend: &mut BackendFactory<'_>,
    ) -> Result<Self, OramError> {
        assert!(data_blocks > 0, "cannot build a posmap over zero blocks");
        assert!(cfg.root_max_entries > 0, "root table must hold at least one entry");
        let mut counts = vec![data_blocks];
        while *counts.last().unwrap() > cfg.root_max_entries {
            counts.push(counts.last().unwrap().div_ceil(ENTRIES_PER_BLOCK));
        }

        let mut trees: Vec<Box<dyn StorageBackend>> = Vec::with_capacity(counts.len() - 1);
        for (k, &blocks) in counts.iter().enumerate().skip(1) {
            let levels = levels_for(blocks);
            let seed = cfg.seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64));
            let tree_cfg =
                OramConfig::builder(levels, cfg.scheme).store_data(true).seed(seed).build()?;
            trees.push(make_backend(&tree_cfg)?);
        }

        let root = match trees.last() {
            None => (0..data_blocks).map(data_position).collect(),
            Some(top) => {
                let engine = top.engine();
                (0..*counts.last().unwrap())
                    .map(|b| engine.position_of(b).map(|p| p.leaf()))
                    .collect::<Result<_, _>>()?
            }
        };

        let mut pm = RecursivePosMap {
            trees,
            counts,
            root,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x5DEE_CE66_D5DE_ECE6),
            stats: PosMapStats::default(),
            lane: Lane::default(),
        };
        pm.load_initial_entries(data_position)?;
        Ok(pm)
    }

    /// Writes ground-truth positions into every chain entry. Each write is
    /// a managed access pinned to the block's *current* position, so the
    /// load changes no assignments and the trees stay mutually consistent
    /// regardless of load order.
    fn load_initial_entries(
        &mut self,
        data_position: &dyn Fn(BlockId) -> u64,
    ) -> Result<(), OramError> {
        for k in 1..self.counts.len() {
            let tree = k - 1;
            for b in 0..self.counts[k] {
                let mut payload = [0u8; BLOCK_BYTES];
                for slot in 0..ENTRIES_PER_BLOCK {
                    let child = b * ENTRIES_PER_BLOCK + slot;
                    if child >= self.counts[k - 1] {
                        break;
                    }
                    let pos = if k == 1 {
                        data_position(child)
                    } else {
                        self.trees[k - 2].engine().position_of(child)?.leaf()
                    };
                    let off = slot as usize * ENTRY_BYTES;
                    payload[off..off + ENTRY_BYTES].copy_from_slice(&pos.to_le_bytes());
                }
                let own = self.trees[tree].engine().position_of(b)?;
                self.trees[tree].access_managed(0, b, Some(own), &mut |data| *data = payload)?;
            }
        }
        Ok(())
    }

    /// Walks the chain for `data_block`: returns the (opaque) entry the
    /// chain holds for it and records `new_data_entry` in its finest-tree
    /// slot (or the root, for a chainless map). Every intermediate entry
    /// is verified against its engine's ground truth and remapped to a
    /// position drawn from this map's RNG. `start` is the walk's arrival
    /// time; the returned clock is when the finest level's access
    /// completed, i.e. when the data-tree access may begin.
    ///
    /// # Errors
    ///
    /// Propagates engine protocol errors, and returns
    /// [`OramError::PosMapDiverged`] if a chain entry disagrees with engine
    /// ground truth — the consistency check is always on. A walk that fails
    /// below the root has already remapped the levels above the bad entry,
    /// so the map must not be used again.
    pub fn resolve_and_remap(
        &mut self,
        data_block: BlockId,
        new_data_entry: u64,
        start: u64,
    ) -> Result<(u64, u64), OramError> {
        let mut lane = std::mem::take(&mut self.lane);
        lane.open_inline();
        let mut arrival = Arrival::At(start);
        let claimed = self.resolve(&mut lane, &mut arrival, data_block, new_data_entry);
        let done = lane.chain_done(arrival);
        self.lane = lane;
        Ok((claimed?, done))
    }

    /// [`resolve_and_remap`](Self::resolve_and_remap) on `lane`: the chain's
    /// first access arrives per `arrival`, which is left for the access
    /// after the walk. Posmap tree `t` is the lane's tree `t + 1`.
    pub(crate) fn resolve(
        &mut self,
        lane: &mut Lane,
        arrival: &mut Arrival,
        data_block: BlockId,
        new_data_entry: u64,
    ) -> Result<u64, OramError> {
        assert!(data_block < self.counts[0], "data block out of range");
        self.stats.requests += 1;
        let d = self.trees.len();

        // Block ids along the chain: ids[0] = the data block, ids[k] = the
        // posmap block holding ids[k-1]'s entry.
        let mut ids = vec![data_block];
        for k in 1..=d {
            ids.push(ids[k - 1] / ENTRIES_PER_BLOCK);
        }

        if d == 0 {
            let claimed = self.root[data_block as usize];
            self.root[data_block as usize] = new_data_entry;
            return Ok(claimed);
        }

        // Draw each level's next position up front — the parent records it
        // before the child access runs.
        let new_pos: Vec<u64> = (0..d)
            .map(|k| {
                let leaves = self.trees[k].engine().geometry().leaf_count();
                self.rng.gen_range(0..leaves)
            })
            .collect();

        // Root: verify and swap the top tree's entry.
        let top = ids[d] as usize;
        let claimed_top = PathId::new(self.root[top]);
        if claimed_top != self.trees[d - 1].engine().position_of(ids[d])? {
            return Err(OramError::PosMapDiverged { tree: d, block: ids[d] });
        }
        self.stats.verified_entries += 1;
        self.root[top] = new_pos[d - 1];

        let mut claimed = claimed_top.leaf();
        for k in (1..=d).rev() {
            let tree = k - 1;
            let child_id = ids[k - 1];
            let slot = (child_id % ENTRIES_PER_BLOCK) as usize;
            let child_new = if k == 1 { new_data_entry } else { new_pos[k - 2] };
            let op = Op::Managed {
                block: ids[k],
                position: PathId::new(new_pos[k - 1]),
                mutate: &mut |payload| {
                    let off = slot * ENTRY_BYTES;
                    payload[off..off + ENTRY_BYTES].copy_from_slice(&child_new.to_le_bytes());
                },
            };
            let payload = lane.access(k, self.trees[tree].as_mut(), arrival, op)?;
            self.stats.tree_accesses += 1;
            let payload = payload.expect("managed access always returns the payload");
            let off = slot * ENTRY_BYTES;
            claimed = u64::from_le_bytes(payload[off..off + ENTRY_BYTES].try_into().unwrap());
            if k >= 2 {
                if PathId::new(claimed) != self.trees[tree - 1].engine().position_of(child_id)? {
                    return Err(OramError::PosMapDiverged { tree: k - 1, block: child_id });
                }
                self.stats.verified_entries += 1;
            }
            // k == 1: the claim is about the data block; the store decodes
            // and verifies it against the data engine (this module cannot
            // see it, and the entry encoding is the store's business).
        }
        Ok(claimed)
    }

    /// Records `n` data-tree level growths in the stats block. The ladder
    /// itself is unaffected (it is pre-sized for the capacity ceiling).
    pub fn note_level_grows(&mut self, n: u64) {
        self.stats.level_grows += n;
    }

    /// One bus-indistinguishable dummy walk on `lane` (a dummy access per
    /// chain level, coarsest → finest; arrivals as in
    /// [`resolve`](Self::resolve)).
    pub(crate) fn dummy(
        &mut self,
        lane: &mut Lane,
        arrival: &mut Arrival,
    ) -> Result<(), OramError> {
        for tree in (0..self.trees.len()).rev() {
            lane.access(tree + 1, self.trees[tree].as_mut(), arrival, Op::Dummy)?;
            self.stats.dummy_tree_accesses += 1;
        }
        Ok(())
    }

    /// The chain's trees, finest first: the lane's trees `1..`.
    pub(crate) fn trees_mut(&mut self) -> impl Iterator<Item = &mut dyn StorageBackend> {
        self.trees.iter_mut().map(|tree| tree.as_mut() as &mut dyn StorageBackend)
    }

    /// Number of off-chip posmap trees in the chain.
    pub fn chain_depth(&self) -> usize {
        self.trees.len()
    }

    /// Blocks tracked per level (index 0 = data blocks).
    pub fn level_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Entries resident in the on-chip root table.
    pub fn root_entries(&self) -> usize {
        self.root.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PosMapStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aboram_core::UntimedBackend;

    fn untimed() -> impl FnMut(&OramConfig) -> Result<Box<dyn StorageBackend>, OramError> {
        |cfg: &OramConfig| Ok(Box::new(UntimedBackend::new(cfg)?) as Box<dyn StorageBackend>)
    }

    #[test]
    fn ladder_shrinks_to_the_root() {
        // 637 data blocks → 80 entries-blocks → 10 → fits a 64-entry root.
        let positions = |_b: BlockId| 0u64;
        let cfg = RecursionConfig::default();
        let pm = RecursivePosMap::new(637, &positions, &cfg, &mut untimed()).unwrap();
        assert_eq!(pm.level_counts(), &[637, 80, 10]);
        assert_eq!(pm.chain_depth(), 2);
        assert_eq!(pm.root_entries(), 10);
    }

    #[test]
    fn tiny_population_needs_no_trees() {
        let positions = |b: BlockId| b % 4;
        let cfg = RecursionConfig::default();
        let mut pm = RecursivePosMap::new(8, &positions, &cfg, &mut untimed()).unwrap();
        assert_eq!(pm.chain_depth(), 0);
        let (claimed, done) = pm.resolve_and_remap(5, 3, 7).unwrap();
        assert_eq!(claimed, 1);
        assert_eq!(done, 7, "no trees, no time");
        let (claimed2, _) = pm.resolve_and_remap(5, 0, 7).unwrap();
        assert_eq!(claimed2, 3, "recorded entry read back");
    }

    #[test]
    fn chain_walk_verifies_and_advances_time() {
        let positions = |_b: BlockId| 2u64;
        let cfg = RecursionConfig::default();
        let mut pm = RecursivePosMap::new(637, &positions, &cfg, &mut untimed()).unwrap();
        let (claimed, done) = pm.resolve_and_remap(123, 9, 0).unwrap();
        assert_eq!(claimed, 2, "initial entry came from data ground truth");
        assert!(done > 0, "two tree accesses take time");
        let stats = pm.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.tree_accesses, 2);
        assert_eq!(stats.verified_entries, 2, "root + intermediate entry checked");
        // Read the entry back: the chain must return what we recorded.
        let (claimed2, _) = pm.resolve_and_remap(123, 1, done).unwrap();
        assert_eq!(claimed2, 9);
    }

    #[test]
    fn a_corrupted_root_entry_is_a_typed_error_not_an_abort() {
        let positions = |_b: BlockId| 2u64;
        let cfg = RecursionConfig::default();
        let mut pm = RecursivePosMap::new(637, &positions, &cfg, &mut untimed()).unwrap();
        // Data block 123 resolves through block 15 of tree 1 and block 1 of
        // tree 2, whose position the root holds.
        pm.root[1] ^= 1;
        let err = pm.resolve_and_remap(123, 9, 0).unwrap_err();
        assert_eq!(err, OramError::PosMapDiverged { tree: 2, block: 1 });
        assert_eq!(pm.stats().tree_accesses, 0, "refused before any tree was touched");
        let (claimed, _) = pm.resolve_and_remap(5, 9, 0).unwrap();
        assert_eq!(claimed, 2, "walks under the other root entries are unharmed");
    }

    #[test]
    fn finest_entries_are_opaque_to_the_chain() {
        // An auto-scaling store packs a depth tag into the high byte; the
        // chain must round-trip arbitrary u64s verbatim.
        let tagged = |b: BlockId| (9u64 << 56) | (b % 7);
        let cfg = RecursionConfig::default();
        let mut pm = RecursivePosMap::new(637, &tagged, &cfg, &mut untimed()).unwrap();
        let next = (10u64 << 56) | 42;
        let (claimed, done) = pm.resolve_and_remap(200, next, 0).unwrap();
        assert_eq!(claimed, (9u64 << 56) | (200 % 7));
        let (claimed2, _) = pm.resolve_and_remap(200, 0, done).unwrap();
        assert_eq!(claimed2, next, "depth-tagged entry survived the round trip");
    }
}
