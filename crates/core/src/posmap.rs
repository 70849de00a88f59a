//! The position map: block → path assignments.

use crate::BlockId;
use aboram_tree::PathId;
use rand::rngs::StdRng;
use rand::Rng;

/// Maps every protected block to the tree path it currently lives on.
///
/// The real hardware keeps this in an on-chip PLB/PosMap hierarchy
/// (Table III: 64 KB PLB + 512 KB PosMap, recursively stored); position-map
/// accesses are on-chip and generate no DRAM traffic in the paper's model,
/// so this simulation keeps the whole map in memory and charges no cycles.
/// A leaf index takes 4 bytes: the engine's deepest tree
/// ([`BucketMeta::MAX_LEVELS`](crate::BucketMeta::MAX_LEVELS) levels) has
/// 2²⁷ leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionMap {
    paths: Vec<u32>,
    leaves: u64,
}

impl PositionMap {
    /// Creates a map for `blocks` blocks over `leaves` leaves, assigning
    /// every block an independent uniformly random path.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is not a power of two or not at most 2³².
    pub fn new_random(blocks: u64, leaves: u64, rng: &mut StdRng) -> Self {
        assert!(leaves.is_power_of_two(), "leaf count must be a power of two");
        assert!(leaves <= 1 << u32::BITS, "leaf indices must fit 32 bits");
        let paths = (0..blocks).map(|_| rng.gen_range(0..leaves) as u32).collect();
        PositionMap { paths, leaves }
    }

    /// Number of mapped blocks.
    pub fn len(&self) -> u64 {
        self.paths.len() as u64
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Current path of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range (validated at the engine boundary).
    pub fn path_of(&self, block: BlockId) -> PathId {
        PathId::new(u64::from(self.paths[block as usize]))
    }

    /// Remaps `block` to a fresh uniformly random path and returns it
    /// (the *block remap* step of every ORAM access).
    pub fn remap(&mut self, block: BlockId, rng: &mut StdRng) -> PathId {
        let new = rng.gen_range(0..self.leaves);
        self.paths[block as usize] = new as u32;
        PathId::new(new)
    }

    /// Remaps `block` to a caller-chosen path (the *managed remap* used by
    /// an external recursive position map, which draws new positions from
    /// its own RNG so it can record them before the access happens).
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of the leaf range (validated at the engine
    /// boundary).
    pub(crate) fn set_path(&mut self, block: BlockId, path: PathId) {
        assert!(path.leaf() < self.leaves, "path label out of range");
        self.paths[block as usize] = path.leaf() as u32;
    }

    /// Number of leaves paths may point at.
    pub fn leaves(&self) -> u64 {
        self.leaves
    }

    /// Doubles the leaf space for a one-level grow, relabeling every
    /// block's path via `extend(block, old_leaf) -> new_leaf` (the
    /// deterministic [`crate::extend_label`] replay).
    pub(crate) fn grow_one_level<F: Fn(BlockId, u64) -> u64>(&mut self, extend: F) {
        let new_leaves = self.leaves * 2;
        for (b, p) in self.paths.iter_mut().enumerate() {
            let leaf = extend(b as u64, u64::from(*p));
            debug_assert!(leaf < new_leaves, "relabel escaped the new leaf space");
            *p = leaf as u32;
        }
        self.leaves = new_leaves;
    }

    /// Appends a new block (id = current length) mapped to `path` —
    /// capacity-growth insert.
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of the leaf range.
    pub(crate) fn push(&mut self, path: PathId) {
        assert!(path.leaf() < self.leaves, "path label out of range");
        self.paths.push(path.leaf() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_init_covers_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let pm = PositionMap::new_random(10_000, 64, &mut rng);
        assert_eq!(pm.len(), 10_000);
        assert!(!pm.is_empty());
        for b in 0..10_000 {
            assert!(pm.path_of(b).leaf() < 64);
        }
        // All leaves hit at this density.
        let mut seen = [false; 64];
        for b in 0..10_000 {
            seen[pm.path_of(b).leaf() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn remap_changes_assignment_eventually() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut pm = PositionMap::new_random(1, 1 << 16, &mut rng);
        let before = pm.path_of(0);
        let after = pm.remap(0, &mut rng);
        assert_eq!(pm.path_of(0), after);
        // With 2^16 leaves a collision is vanishingly unlikely.
        assert_ne!(before, after);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn leaves_must_be_power_of_two() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = PositionMap::new_random(10, 100, &mut rng);
    }
}
