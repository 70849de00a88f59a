//! The tree geometry: level count plus per-level bucket configurations.

use crate::error::GeometryError;
use crate::level::LevelConfig;
use crate::path::{BucketId, Level, PathBuckets, PathId};
use crate::space::{LevelSpace, SpaceReport};

/// Shape of an ORAM tree: number of levels and the bucket configuration of
/// each level.
///
/// Uniform trees (classic Path/Ring ORAM) use the same [`LevelConfig`]
/// everywhere; AB-ORAM's NS and DR schemes override the configuration of the
/// bottom levels. Construct with [`TreeGeometry::uniform`] and refine with
/// [`TreeGeometry::override_bottom_levels`] /
/// [`TreeGeometry::override_level_range`].
///
/// # Example
///
/// ```
/// use aboram_tree::{TreeGeometry, LevelConfig};
///
/// // AB scheme on a 24-level CB tree: Z = 6 for L18..=L20, Z = 5 for L21..=L23.
/// let cb = LevelConfig::new(5, 3).with_overlap(4);
/// let geo = TreeGeometry::uniform(24, cb)
///     .unwrap()
///     .override_level_range(18, 20, LevelConfig::new(5, 1).with_overlap(4).with_dynamic_extension(2))
///     .unwrap()
///     .override_level_range(21, 23, LevelConfig::new(5, 0).with_overlap(4).with_dynamic_extension(2))
///     .unwrap();
/// assert_eq!(geo.level_config(aboram_tree::Level(23)).z_total(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeGeometry {
    levels: u8,
    configs: Vec<LevelConfig>,
}

impl TreeGeometry {
    /// Maximum supported level count (the paper's tree is 24 levels; 40
    /// comfortably covers any study while keeping `u64` arithmetic exact).
    pub const MAX_LEVELS: u8 = 40;

    /// Creates a geometry in which every level uses `config`.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::BadLevelCount`] when `levels` is outside
    /// `2..=40`, or [`GeometryError::EmptyBucket`] when the configuration has
    /// zero total slots.
    pub fn uniform(levels: u8, config: LevelConfig) -> Result<Self, GeometryError> {
        Self::from_level_configs(levels, vec![config; levels as usize])
    }

    /// Creates a geometry from an explicit per-level configuration list,
    /// ordered from the root (index 0) to the leaves.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::BadLevelCount`] for unsupported level counts,
    /// [`GeometryError::ConfigLengthMismatch`] when the list length differs
    /// from `levels`, and [`GeometryError::EmptyBucket`] if any level has
    /// zero total slots.
    pub fn from_level_configs(
        levels: u8,
        configs: Vec<LevelConfig>,
    ) -> Result<Self, GeometryError> {
        if !(2..=Self::MAX_LEVELS).contains(&levels) {
            return Err(GeometryError::BadLevelCount { levels });
        }
        if configs.len() != levels as usize {
            return Err(GeometryError::ConfigLengthMismatch { levels, configs: configs.len() });
        }
        if let Some(level) = configs.iter().position(|c| c.z_total() == 0) {
            return Err(GeometryError::EmptyBucket { level: level as u8 });
        }
        Ok(TreeGeometry { levels, configs })
    }

    /// Replaces the configuration of the `count` levels closest to the
    /// leaves. Consumes and returns `self` for chaining.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::BadLevelCount`] when `count` exceeds the
    /// number of levels, or [`GeometryError::EmptyBucket`] when the new
    /// configuration has zero slots.
    pub fn override_bottom_levels(
        self,
        count: u8,
        config: LevelConfig,
    ) -> Result<Self, GeometryError> {
        if count > self.levels {
            return Err(GeometryError::BadLevelCount { levels: count });
        }
        let (first, last) = (self.levels - count, self.levels - 1);
        self.override_level_range(first, last, config)
    }

    /// Replaces the configuration for levels `first..=last` (inclusive,
    /// root-relative). Consumes and returns `self` for chaining.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::BadLevelCount`] when the range is invalid for
    /// this tree, or [`GeometryError::EmptyBucket`] when the new
    /// configuration has zero slots.
    pub fn override_level_range(
        mut self,
        first: u8,
        last: u8,
        config: LevelConfig,
    ) -> Result<Self, GeometryError> {
        if first > last || last >= self.levels {
            return Err(GeometryError::BadLevelCount { levels: last });
        }
        if config.z_total() == 0 {
            return Err(GeometryError::EmptyBucket { level: first });
        }
        for l in first..=last {
            self.configs[l as usize] = config;
        }
        Ok(self)
    }

    /// Number of tree levels (`L` in the paper).
    #[inline]
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Number of leaves, i.e. number of distinct paths: `2^(L-1)`.
    #[inline]
    pub fn leaf_count(&self) -> u64 {
        1u64 << (self.levels - 1)
    }

    /// Total number of buckets: `2^L - 1`.
    #[inline]
    pub fn bucket_count(&self) -> u64 {
        (1u64 << self.levels) - 1
    }

    /// Number of buckets at `level`: `2^level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range (a programming error in the caller).
    #[inline]
    pub fn buckets_at_level(&self, level: Level) -> u64 {
        assert!(level.0 < self.levels, "level {level} out of range");
        1u64 << level.0
    }

    /// The configuration of `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range (a programming error in the caller).
    #[inline]
    pub fn level_config(&self, level: Level) -> LevelConfig {
        self.configs[level.0 as usize]
    }

    /// Validates a path id against this tree.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::PathOutOfRange`] if `path.leaf()` is not
    /// below [`TreeGeometry::leaf_count`].
    pub fn check_path(&self, path: PathId) -> Result<(), GeometryError> {
        if path.leaf() >= self.leaf_count() {
            Err(GeometryError::PathOutOfRange { path: path.leaf(), leaves: self.leaf_count() })
        } else {
            Ok(())
        }
    }

    /// Iterates over the buckets on `path`, root first.
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range; validate with
    /// [`TreeGeometry::check_path`] at trust boundaries.
    pub fn path_buckets(&self, path: PathId) -> PathBuckets {
        assert!(
            path.leaf() < self.leaf_count(),
            "{path} out of range for {} leaves",
            self.leaf_count()
        );
        PathBuckets::new(path.leaf(), self.levels)
    }

    /// The bucket at `level` on `path`.
    ///
    /// # Panics
    ///
    /// Panics if `path` or `level` is out of range.
    #[inline]
    pub fn bucket_on_path(&self, path: PathId, level: Level) -> BucketId {
        assert!(path.leaf() < self.leaf_count());
        assert!(level.0 < self.levels);
        let index = path.leaf() >> (self.levels - 1 - level.0);
        BucketId::from_level_index(level, index)
    }

    /// Whether `bucket` lies on `path`.
    #[inline]
    pub fn bucket_is_on_path(&self, bucket: BucketId, path: PathId) -> bool {
        let level = bucket.level();
        level.0 < self.levels && self.bucket_on_path(path, level) == bucket
    }

    /// Number of levels shared by the two paths, counting from the root.
    ///
    /// The result is in `1..=levels`: every pair of paths shares at least the
    /// root. Path ORAM / Ring ORAM eviction uses this to place a block as
    /// deep as possible: a stash block mapped to `p1` may be written into any
    /// bucket of the eviction path `p2` at level `< common_prefix_levels`.
    #[inline]
    pub fn common_prefix_levels(&self, p1: PathId, p2: PathId) -> u8 {
        debug_assert!(p1.leaf() < self.leaf_count() && p2.leaf() < self.leaf_count());
        let diff = p1.leaf() ^ p2.leaf();
        let leaf_bits = (self.levels - 1) as u32;
        let first_diff_bit =
            if diff == 0 { leaf_bits } else { leaf_bits - (64 - diff.leading_zeros()) };
        // Bits agree above the first differing bit; the root adds one level.
        (first_diff_bit as u8) + 1
    }

    /// Computes the closed-form space report for this geometry.
    ///
    /// `real_block_count` is the amount of protected user data (in blocks);
    /// the paper uses `2^(L-1) * Z' * 50%` of the *baseline* `Z'`.
    pub fn space_report(&self, real_block_count: u64) -> SpaceReport {
        let per_level: Vec<LevelSpace> = (0..self.levels)
            .map(|l| {
                let level = Level(l);
                let cfg = self.level_config(level);
                let buckets = self.buckets_at_level(level);
                LevelSpace::new(level, buckets, cfg)
            })
            .collect();
        SpaceReport::new(per_level, real_block_count)
    }

    /// The paper's convention for the protected user-data size: half of the
    /// baseline `Z'` slots across every bucket, `(2^L - 1) * Z' / 2` blocks
    /// (§VII: ≈ 2.5 GB for the 24-level tree), which makes the utilization of
    /// a uniform tree exactly `(Z' * 50%) / Z` as in §III-B.
    pub fn paper_real_block_count(&self, baseline_z_real: u8) -> u64 {
        self.bucket_count() * u64::from(baseline_z_real) / 2
    }

    /// Total physical slots across the whole tree.
    pub fn total_slots(&self) -> u64 {
        (0..self.levels)
            .map(|l| {
                self.buckets_at_level(Level(l)) * u64::from(self.level_config(Level(l)).z_total())
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cb() -> LevelConfig {
        LevelConfig::new(5, 3).with_overlap(4)
    }

    #[test]
    fn uniform_tree_counts() {
        let geo = TreeGeometry::uniform(24, cb()).unwrap();
        assert_eq!(geo.levels(), 24);
        assert_eq!(geo.leaf_count(), 1 << 23);
        assert_eq!(geo.bucket_count(), (1 << 24) - 1);
        assert_eq!(geo.total_slots(), ((1u64 << 24) - 1) * 8);
    }

    #[test]
    fn rejects_bad_levels_and_empty_buckets() {
        assert!(matches!(
            TreeGeometry::uniform(1, cb()),
            Err(GeometryError::BadLevelCount { levels: 1 })
        ));
        assert!(matches!(
            TreeGeometry::uniform(41, cb()),
            Err(GeometryError::BadLevelCount { levels: 41 })
        ));
        assert!(matches!(
            TreeGeometry::uniform(8, LevelConfig::new(0, 0)),
            Err(GeometryError::EmptyBucket { level: 0 })
        ));
    }

    #[test]
    fn config_length_must_match() {
        let err = TreeGeometry::from_level_configs(4, vec![cb(); 3]).unwrap_err();
        assert!(matches!(err, GeometryError::ConfigLengthMismatch { levels: 4, configs: 3 }));
    }

    #[test]
    fn bottom_override_changes_only_bottom() {
        let small = LevelConfig::new(5, 1).with_overlap(4);
        let geo =
            TreeGeometry::uniform(24, cb()).unwrap().override_bottom_levels(6, small).unwrap();
        for l in 0..18 {
            assert_eq!(geo.level_config(Level(l)), cb());
        }
        for l in 18..24 {
            assert_eq!(geo.level_config(Level(l)), small);
        }
    }

    #[test]
    fn range_override_validates() {
        let geo = TreeGeometry::uniform(8, cb()).unwrap();
        assert!(geo.clone().override_level_range(3, 8, cb()).is_err());
        assert!(geo.clone().override_level_range(5, 3, cb()).is_err());
        assert!(geo.override_level_range(3, 5, LevelConfig::new(0, 0)).is_err());
    }

    #[test]
    fn bucket_on_path_agrees_with_iterator() {
        let geo = TreeGeometry::uniform(10, cb()).unwrap();
        let path = PathId::new(397);
        let via_iter: Vec<_> = geo.path_buckets(path).collect();
        for (l, b) in via_iter.iter().enumerate() {
            assert_eq!(geo.bucket_on_path(path, Level(l as u8)), *b);
            assert!(geo.bucket_is_on_path(*b, path));
        }
    }

    #[test]
    fn common_prefix_levels_basics() {
        let geo = TreeGeometry::uniform(4, cb()).unwrap();
        // Same path shares all 4 levels.
        assert_eq!(geo.common_prefix_levels(PathId::new(5), PathId::new(5)), 4);
        // Leaves 0 (000) and 7 (111) share only the root.
        assert_eq!(geo.common_prefix_levels(PathId::new(0), PathId::new(7)), 1);
        // Leaves 4 (100) and 5 (101) share root + two more levels.
        assert_eq!(geo.common_prefix_levels(PathId::new(4), PathId::new(5)), 3);
    }

    #[test]
    fn check_path_range() {
        let geo = TreeGeometry::uniform(4, cb()).unwrap();
        assert!(geo.check_path(PathId::new(7)).is_ok());
        assert!(geo.check_path(PathId::new(8)).is_err());
    }

    #[test]
    fn paper_real_block_count_convention() {
        let geo = TreeGeometry::uniform(24, cb()).unwrap();
        // (2^24 - 1) * 5 / 2 blocks * 64 B ≈ 2.5 GiB as stated in §VII.
        let bytes = geo.paper_real_block_count(5) * 64;
        let target = 2u64 * 1024 * 1024 * 1024 + 512 * 1024 * 1024;
        assert!(target.abs_diff(bytes) < 1024, "bytes = {bytes}");
    }
}
