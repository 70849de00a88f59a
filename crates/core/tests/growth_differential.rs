//! The auto-scaling test wall: a grown tree must be *functionally*
//! indistinguishable from a tree built at the final capacity — across all
//! six paper schemes.
//!
//! Two layers of evidence:
//!
//! 1. **Grown vs prebuilt differential** — grow 8 → 9 levels under load,
//!    drain the relocation backlog, and check the grown tree against a
//!    fixed 9-level twin fed the same logical writes: identical data
//!    digests (every block byte-for-byte), identical structural shape
//!    (levels, leaf count, protocol invariants), bounded stash on both.
//! 2. **Property test** — incremental relocation progress: the backlog
//!    never grows during a drain, shrinks by a bounded amount per access,
//!    and reaches zero.

use aboram_core::{
    AccessKind, CountingSink, GrowthConfig, OramConfig, RingOram, Scheme, BLOCK_BYTES,
    RELOCS_PER_ACCESS,
};
use proptest::prelude::*;
use std::collections::HashMap;

const SCHEMES: [Scheme; 6] =
    [Scheme::PlainRing, Scheme::Baseline, Scheme::Ir, Scheme::DR, Scheme::NS, Scheme::Ab];

fn payload(block: u64) -> [u8; BLOCK_BYTES] {
    let mut p = [0u8; BLOCK_BYTES];
    p[..8].copy_from_slice(&block.to_le_bytes());
    p[8] = 0xA5;
    p
}

/// Builds an auto-scaling engine at `levels` with ceiling `max`, fills it
/// with known payloads, inserts past capacity until it has grown to `max`,
/// writes the new blocks too, then drains the relocation backlog with
/// plain accesses. Returns the engine and the block → payload shadow.
fn grow_under_load(scheme: Scheme, seed: u64) -> (RingOram, HashMap<u64, [u8; BLOCK_BYTES]>) {
    let cfg = OramConfig::builder(8, scheme)
        .store_data(true)
        .seed(seed)
        .growth(GrowthConfig::up_to(9))
        .build()
        .unwrap();
    let mut oram = RingOram::new(&cfg).unwrap();
    let mut sink = CountingSink::new();
    let mut shadow = HashMap::new();

    let start = oram.block_count();
    for b in 0..start {
        oram.write(b, payload(b), &mut sink).unwrap();
        shadow.insert(b, payload(b));
    }
    // Insert past the starting capacity: the first insert triggers the
    // 8 → 9 grow, and the rest land in the new level's headroom.
    for _ in 0..24 {
        let b = oram.insert_block(None).unwrap();
        oram.write(b, payload(b), &mut sink).unwrap();
        shadow.insert(b, payload(b));
    }
    assert_eq!(oram.config().levels, 9, "one insert past capacity grows the tree");
    assert_eq!(oram.growth_state().epochs(), 1);

    // Fold the relocation backlog into ordinary accesses until drained.
    let mut i = 0u64;
    while oram.growth_state().backlog() > 0 {
        oram.access(AccessKind::Read, i % oram.block_count(), None, &mut sink).unwrap();
        i += 1;
        assert!(i < 200_000, "backlog failed to drain");
    }
    (oram, shadow)
}

/// Layer 1: the grown tree serves exactly the bytes a fixed tree built at
/// the final capacity serves, for every scheme.
#[test]
fn grown_tree_matches_prebuilt_at_final_capacity() {
    for scheme in SCHEMES {
        let (mut grown, shadow) = grow_under_load(scheme, 41);

        // The prebuilt twin: 9 fixed levels, same seed, same logical
        // writes in the same order.
        let fixed_cfg = OramConfig::builder(9, scheme).store_data(true).seed(41).build().unwrap();
        let mut fixed = RingOram::new(&fixed_cfg).unwrap();
        let mut sink = CountingSink::new();
        let mut blocks: Vec<u64> = shadow.keys().copied().collect();
        blocks.sort_unstable();
        for &b in &blocks {
            fixed.write(b, shadow[&b], &mut sink).unwrap();
        }

        // Structural equivalence.
        assert_eq!(grown.config().levels, fixed.config().levels, "{scheme:?}");
        assert_eq!(
            grown.geometry().leaf_count(),
            fixed.geometry().leaf_count(),
            "{scheme:?}: leaf count"
        );
        assert_eq!(grown.growth_state().backlog(), 0, "{scheme:?}: drained");

        // Data digest: every block reads back the shadow payload on BOTH
        // engines — the grown tree lost nothing and invented nothing.
        let mut gsink = CountingSink::new();
        for &b in &blocks {
            assert_eq!(grown.read(b, &mut gsink).unwrap(), shadow[&b], "{scheme:?}: grown {b}");
            assert_eq!(fixed.read(b, &mut sink).unwrap(), shadow[&b], "{scheme:?}: fixed {b}");
        }

        // Stash stays bounded on both sides and every protocol invariant
        // holds after the full sweep.
        assert!(grown.stash_len() <= 200, "{scheme:?}: grown stash {}", grown.stash_len());
        assert!(fixed.stash_len() <= 200, "{scheme:?}: fixed stash {}", fixed.stash_len());
        grown.validate_invariants().unwrap();
        fixed.validate_invariants().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Incremental relocation progress: after a forced grow, the backlog
    /// never increases during the drain, each access retires a bounded
    /// number of stale buckets, and the backlog reaches zero.
    #[test]
    fn relocation_backlog_drains_incrementally(
        seed in 1u64..500,
        scheme_idx in 0usize..6,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let cfg = OramConfig::builder(8, scheme)
            .store_data(true)
            .seed(seed)
            .growth(GrowthConfig::up_to(10))
            .build()
            .unwrap();
        let mut oram = RingOram::new(&cfg).unwrap();
        let mut sink = CountingSink::new();
        oram.grow_level().unwrap();

        let mut prev = oram.growth_state().backlog();
        prop_assert!(prev > 0, "a grow marks the pre-existing buckets stale");
        // An access retires `RELOCS_PER_ACCESS` buckets from the drain
        // queue, plus whatever stale buckets its own path traffic happens
        // to refresh in passing (bounded by the buckets a read + evict +
        // reshuffle can touch).
        let relocs = u64::from(RELOCS_PER_ACCESS);
        let slack = relocs + 4 * u64::from(oram.config().levels);
        let mut i = 0u64;
        while oram.growth_state().backlog() > 0 {
            oram.access(AccessKind::Read, i % oram.block_count(), None, &mut sink).unwrap();
            let now = oram.growth_state().backlog();
            prop_assert!(now <= prev, "backlog grew during drain: {} -> {}", prev, now);
            prop_assert!(prev - now <= slack, "unbounded per-access work: {} -> {}", prev, now);
            prev = now;
            i += 1;
            prop_assert!(i < 100_000, "backlog failed to drain");
        }
        prop_assert_eq!(oram.growth_state().backlog(), 0);
        oram.validate_invariants().unwrap();
    }
}
