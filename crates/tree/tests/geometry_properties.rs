//! Property-based tests of the tree geometry crate.

use aboram_tree::{
    reverse_lex_path, BucketId, Level, LevelConfig, PathId, PhysicalLayout, SlotId, TreeGeometry,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// common_prefix_levels is symmetric, bounded, and consistent with
    /// bucket sharing.
    #[test]
    fn common_prefix_properties(levels in 2u8..16, a in any::<u64>(), b in any::<u64>()) {
        let geo = TreeGeometry::uniform(levels, LevelConfig::new(2, 1)).unwrap();
        let pa = PathId::new(a % geo.leaf_count());
        let pb = PathId::new(b % geo.leaf_count());
        let fwd = geo.common_prefix_levels(pa, pb);
        prop_assert_eq!(fwd, geo.common_prefix_levels(pb, pa));
        prop_assert!(fwd >= 1 && fwd <= levels);
        // The paths share a bucket at exactly the levels below `fwd`.
        for l in 0..levels {
            let same = geo.bucket_on_path(pa, Level(l)) == geo.bucket_on_path(pb, Level(l));
            prop_assert_eq!(same, l < fwd, "level {}", l);
        }
    }

    /// Space accounting sums per-level contributions exactly.
    #[test]
    fn space_report_sums(levels in 2u8..20, z_real in 1u8..6, s in 0u8..8) {
        let cfg = LevelConfig::new(z_real, s);
        let geo = TreeGeometry::uniform(levels, cfg).unwrap();
        let rep = geo.space_report(100);
        let manual: u64 = (0..levels)
            .map(|l| (1u64 << l) * u64::from(cfg.z_total()))
            .sum();
        prop_assert_eq!(rep.total_slots(), manual);
        prop_assert_eq!(rep.total_bytes(), manual * 64);
        prop_assert_eq!(geo.total_slots(), manual);
    }

    /// Physical layout: metadata and data regions never overlap, and the
    /// total footprint is exactly data + one block per bucket.
    #[test]
    fn layout_regions_disjoint(levels in 2u8..12, z_real in 1u8..5, s in 0u8..5) {
        let geo = TreeGeometry::uniform(levels, LevelConfig::new(z_real, s)).unwrap();
        let layout = PhysicalLayout::new(&geo);
        prop_assert_eq!(
            layout.total_bytes(),
            layout.data_bytes() + geo.bucket_count() * 64
        );
        for raw in [0, geo.bucket_count() / 2, geo.bucket_count() - 1] {
            let m = layout.metadata_addr(BucketId::new(raw)).unwrap();
            prop_assert!(m.byte() >= layout.data_bytes());
        }
    }

    /// Bucket ids round-trip through (level, index) for any valid bucket.
    #[test]
    fn bucket_id_roundtrip(raw in 0u64..(1 << 20)) {
        let b = BucketId::new(raw);
        let rebuilt = BucketId::from_level_index(b.level(), b.index_in_level());
        prop_assert_eq!(b, rebuilt);
        if raw > 0 {
            let parent = b.parent().unwrap();
            prop_assert_eq!(parent.level().index(), b.level().index() - 1);
        }
    }

    /// Reverse-lex is a bijection over any aligned window of one period.
    #[test]
    fn reverse_lex_bijective(levels in 2u8..14, offset in any::<u64>()) {
        let leaves = 1u64 << (levels - 1);
        let start = offset % (1 << 20);
        let mut seen = std::collections::HashSet::new();
        for g in start..start + leaves {
            prop_assert!(seen.insert(reverse_lex_path(g, levels).leaf()));
        }
    }

    /// Slot addressing rejects exactly the out-of-range slots.
    #[test]
    fn slot_bounds(levels in 2u8..10, z_real in 1u8..5, s in 0u8..5, probe in 0u8..20) {
        let geo = TreeGeometry::uniform(levels, LevelConfig::new(z_real, s)).unwrap();
        let layout = PhysicalLayout::new(&geo);
        let bucket = BucketId::new(geo.bucket_count() - 1);
        let z = geo.level_config(bucket.level()).z_total();
        let result = layout.slot_addr(SlotId::new(bucket, probe));
        prop_assert_eq!(result.is_ok(), probe < z);
    }

    /// `slot_addrs` over an arbitrary slot sequence (same-bucket runs, bucket
    /// and level switches, repeats) equals one `slot_addr` call per slot —
    /// on a fresh layout and on one grown by a level, where the sequence
    /// mixes construction-time slots with slots in appended extents — and an
    /// out-of-range slot mid-list leaves `out` holding exactly the prefix
    /// before it.
    #[test]
    fn batched_slot_addrs_match_scalar(
        levels in 3u8..9,
        z_real in 1u8..5,
        s_top in 0u8..4,
        s_bottom in 0u8..4,
        bottom in 1u8..3,
        grown in any::<bool>(),
        picks in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..200),
        bad_at in any::<u64>(),
        bad_bucket in any::<bool>(),
    ) {
        let shape = |levels: u8| {
            TreeGeometry::uniform(levels, LevelConfig::new(z_real, s_top))
                .unwrap()
                .override_bottom_levels(bottom, LevelConfig::new(z_real, s_bottom))
                .unwrap()
        };
        let mut geo = shape(levels);
        let mut layout = PhysicalLayout::new(&geo);
        if grown {
            // With `s_top > s_bottom` the small-bucket band moves down a
            // level, so the level leaving it gains an appended slot extent.
            geo = shape(levels + 1);
            layout.grow(&geo).unwrap();
        }
        let mut slots: Vec<SlotId> = picks
            .into_iter()
            .map(|(braw, s)| {
                let bucket = BucketId::new(braw % geo.bucket_count());
                SlotId::new(bucket, s % layout.level_capacity(bucket.level()))
            })
            .collect();
        // Every level's last slot next to its slot 0: wherever growth
        // appended an extent, the list holds both kinds.
        for l in 0..geo.levels() {
            let bucket = BucketId::from_level_index(Level(l), 0);
            slots.push(SlotId::new(bucket, layout.level_capacity(Level(l)) - 1));
            slots.push(SlotId::new(bucket, 0));
        }

        let mut batched = Vec::new();
        layout.slot_addrs(&slots, &mut batched).unwrap();
        let scalar: Vec<_> = slots.iter().map(|&s| layout.slot_addr(s).unwrap()).collect();
        prop_assert_eq!(&batched, &scalar);

        let at = (bad_at % slots.len() as u64) as usize;
        let bad = if bad_bucket {
            SlotId::new(BucketId::new(geo.bucket_count()), 0)
        } else {
            SlotId::new(slots[at].bucket, layout.level_capacity(slots[at].bucket.level()))
        };
        slots.insert(at, bad);
        let mut out = Vec::new();
        let err = layout.slot_addr(bad).unwrap_err();
        prop_assert_eq!(layout.slot_addrs(&slots, &mut out), Err(err));
        prop_assert_eq!(&out[..], &scalar[..at]);
    }
}
