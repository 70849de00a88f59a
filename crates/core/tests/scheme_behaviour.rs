//! Cross-scheme behavioural tests: the protocol-level claims each scheme
//! makes, checked against its baseline.

use aboram_core::{AccessKind, CountingSink, OramConfig, OramOp, RingOram, Scheme};
use rand::{Rng, SeedableRng};

fn churn(scheme: Scheme, levels: u8, accesses: u64) -> (RingOram, CountingSink) {
    let cfg = OramConfig::builder(levels, scheme).seed(11).build().unwrap();
    let mut oram = RingOram::new(&cfg).unwrap();
    let mut sink = CountingSink::new();
    let blocks = cfg.real_block_count();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for _ in 0..accesses {
        oram.access(AccessKind::Read, rng.gen_range(0..blocks), None, &mut sink).unwrap();
    }
    (oram, sink)
}

/// §V-C1 strategy (1): DR+ extends buckets beyond the baseline budget and
/// must therefore reshuffle *less* than the baseline at the extended levels.
#[test]
fn drplus_cuts_reshuffles_below_baseline() {
    let accesses = 60_000;
    let (base, _) = churn(Scheme::Baseline, 12, accesses);
    let (plus, _) = churn(Scheme::DrPlus { bottom_levels: 6 }, 12, accesses);
    let leaf = 11;
    let b = base.stats().reshuffles.get(leaf);
    let p = plus.stats().reshuffles.get(leaf);
    assert!(
        (p as f64) < 0.8 * b as f64,
        "DR+ leaf reshuffles ({p}) should undercut Baseline ({b})"
    );
    // And it saves no space (strategy 1's trade-off).
    let base_cfg = OramConfig::builder(12, Scheme::Baseline).build().unwrap();
    let plus_cfg = OramConfig::builder(12, Scheme::DrPlus { bottom_levels: 6 }).build().unwrap();
    assert_eq!(
        base_cfg.geometry().unwrap().total_slots(),
        plus_cfg.geometry().unwrap().total_slots()
    );
}

/// Ring ORAM's headline: online traffic per access is one block per
/// off-chip bucket, independent of the scheme — space optimizations must
/// not touch it. With no background eviction, a user access's readPath
/// costs exactly `levels − treetop_levels` block reads.
#[test]
fn online_cost_is_scheme_independent() {
    let schemes =
        [Scheme::PlainRing, Scheme::Baseline, Scheme::Ir, Scheme::DR, Scheme::NS, Scheme::Ab];
    for scheme in schemes {
        let (oram, sink) = churn(scheme, 12, 5_000);
        let (stats, cfg) = (oram.stats(), oram.config());
        assert_eq!(stats.background_accesses, 0, "{scheme}");
        let per_access = u64::from(cfg.levels - cfg.treetop_levels);
        assert_eq!(sink.reads(OramOp::ReadPath), stats.user_accesses * per_access, "{scheme}");
    }
}

/// The dead-block census is always bounded by the tree's slot count and
/// never goes negative (no double counting through gather/borrow cycles).
#[test]
fn dead_census_bounded() {
    for scheme in [Scheme::DR, Scheme::Ab] {
        let (oram, _) = churn(scheme, 12, 40_000);
        let dead = oram.stats().dead_total();
        let slots = oram.geometry().total_slots();
        assert!(dead < slots, "{scheme}: census {dead} out of {slots}");
        assert!(dead > 0, "{scheme}: steady state has dead blocks");
    }
}

/// Remote reads occur only at extension levels (bottom six).
#[test]
fn remote_traffic_is_bottom_level_only() {
    let (oram, _) = churn(Scheme::DR, 14, 30_000);
    // The stat counts reads through borrowed logical slots, which exist
    // only on extension levels. Verify via metadata: no borrowed slots
    // above the boundary.
    let boundary = 14 - 6;
    for raw in 0..oram.geometry().bucket_count() {
        let bucket = aboram_tree::BucketId::new(raw);
        if bucket.level().0 < boundary {
            // No public accessor for metadata here; geometry is the check.
            assert!(!oram.geometry().level_config(bucket.level()).has_dynamic_extension());
        }
    }
    assert!(oram.stats().remote_slot_reads > 0);
}

/// Stash percentile tracking: the p999 occupancy sits below the hard
/// capacity for every scheme at steady state.
#[test]
fn stash_tail_within_capacity() {
    for scheme in [Scheme::Baseline, Scheme::Ab] {
        let (oram, _) = churn(scheme, 12, 40_000);
        let p999 = oram.stats().stash_percentile(0.999).unwrap();
        assert!(p999 <= oram.config().stash_capacity, "{scheme}: p999 stash occupancy {p999}");
        assert!(oram.stats().stash_mean() < p999 as f64 + 1.0);
    }
}
