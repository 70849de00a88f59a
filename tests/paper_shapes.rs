//! Regression tests pinning the paper's qualitative result shapes: these
//! are the claims EXPERIMENTS.md reports, asserted at test scale so a
//! protocol regression that would silently change a figure fails CI.

use aboram::core::{AccessKind, CountingSink, OramConfig, RingOram, Scheme};
use aboram::stats::LevelHistogram;
use rand::{Rng, SeedableRng};

/// Builds an engine, warms it by `warmup` uniform reads
/// ([`RingOram::warm_up`]), then runs `accesses` more.
fn run_warm(scheme: Scheme, levels: u8, warmup: u64, accesses: u64) -> RingOram {
    let cfg = OramConfig::builder(levels, scheme).seed(42).build().unwrap();
    let mut oram = RingOram::new(&cfg).unwrap();
    oram.warm_up(warmup, 0xaaaa).unwrap();
    let mut sink = CountingSink::new();
    let blocks = cfg.real_block_count();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for _ in 0..accesses {
        oram.access(AccessKind::Read, rng.gen_range(0..blocks), None, &mut sink).unwrap();
    }
    oram
}

/// Fig. 8a/8b at L = 24: the headline space numbers, exact.
#[test]
fn fig8_space_numbers() {
    let norm = |scheme: Scheme| {
        let base = OramConfig::paper_scale(Scheme::Baseline).build().unwrap();
        let base = base.geometry().unwrap().space_report(base.real_block_count());
        let cfg = OramConfig::paper_scale(scheme).build().unwrap();
        let rep = cfg.geometry().unwrap().space_report(cfg.real_block_count());
        (rep.normalized_to(&base), rep.utilization())
    };
    let (dr, dr_util) = norm(Scheme::DR);
    assert!((dr - 0.754).abs() < 0.002);
    assert!((dr_util - 0.415).abs() < 0.002);
    let (ns, _) = norm(Scheme::NS);
    assert!((ns - 0.8125).abs() < 1e-6);
    let (ab, ab_util) = norm(Scheme::Ab);
    assert!((ab - 0.6445).abs() < 0.001, "AB space reduction ~36 %");
    assert!((ab_util - 0.485).abs() < 0.002, "AB utilization ~48.5 %");
}

/// The harness's default warm-up: two reverse-lexicographic eviction sweeps
/// of the leaf level (A = 5 accesses per evictPath).
fn warmup(levels: u8) -> u64 {
    2 * 5 * (1 << (levels - 1))
}

/// The engine's reshuffles per level over `accesses` reads after the
/// default warm-up, not counting the warm-up's own.
fn window_reshuffles(scheme: Scheme, levels: u8, accesses: u64, warm: u64) -> LevelHistogram {
    let start = run_warm(scheme, levels, warm, 0).stats().reshuffles.clone();
    run_warm(scheme, levels, warm, accesses).stats().reshuffles.delta(&start)
}

/// A steady-state Baseline reshuffles its leaf level as often as level
/// L − 3: within 5 %. A cold engine's leaf buckets are still filling, so
/// its leaf count lags (2 549 against 2 829 at L = 12, 60 000 reads; warm,
/// 2 845 against 2 839).
fn baseline_is_flat(reshuffles: &LevelHistogram, levels: u8) -> bool {
    let (leaf, upper) = (reshuffles.get(levels - 1) as f64, reshuffles.get(levels - 3) as f64);
    (leaf - upper).abs() < 0.05 * upper
}

/// Fig. 10 shape, on warm engines: Baseline is flat across the bottom
/// levels; DR's reshuffle count stays near Baseline; NS's jumps at its two
/// shrunken levels; AB's is elevated on its bottom three.
#[test]
fn fig10_reshuffle_shape() {
    let levels = 12u8;
    let accesses = 60_000;
    let window = |scheme| window_reshuffles(scheme, levels, accesses, warmup(levels));
    let (base, dr, ns) = (window(Scheme::Baseline), window(Scheme::DR), window(Scheme::NS));

    assert!(baseline_is_flat(&base, levels), "warm Baseline not flat: {:?}", base.bins());
    let cold = window_reshuffles(Scheme::Baseline, levels, accesses, 0);
    assert!(!baseline_is_flat(&cold, levels), "the bound cannot tell cold from warm");
    let [b, d, n] = [&base, &dr, &ns].map(|r| r.get(levels - 1) as f64);
    assert!(d < 1.5 * b, "DR leaf reshuffles ({d}) should stay near Baseline ({b})");
    assert!(n > 1.8 * b, "NS leaf reshuffles ({n}) should spike vs Baseline ({b})");
    // NS's untouched levels stay near Baseline.
    let untouched = levels - 3;
    let b_u = base.get(untouched) as f64;
    let n_u = ns.get(untouched) as f64;
    assert!((n_u - b_u).abs() < 0.3 * b_u, "NS untouched level near Baseline");
}

/// Fig. 14, on warm engines: DR extends nearly all refreshes; AB extends a
/// clear majority but fewer than DR (paper: ~100 % vs 74 %).
#[test]
fn fig14_extension_ordering() {
    let ratio = |scheme| {
        let [start, end] = [0, 80_000].map(|n| run_warm(scheme, 12, warmup(12), n).stats().clone());
        let done = end.extensions_done - start.extensions_done;
        done as f64 / (end.extensions_attempted - start.extensions_attempted) as f64
    };
    let (dr_ratio, ab_ratio) = (ratio(Scheme::DR), ratio(Scheme::Ab));
    assert!(dr_ratio > 0.85, "DR extension ratio {dr_ratio}");
    assert!(ab_ratio > 0.55, "AB extension ratio {ab_ratio}");
    assert!(dr_ratio > ab_ratio, "DR must extend more often than AB");
}

/// Fig. 2/3 shape: the dead-block census stabilizes (stops growing) and
/// concentrates at the bottom levels.
#[test]
fn fig2_fig3_dead_block_shape() {
    let mid = run_warm(Scheme::PlainRing, 12, 0, 60_001).stats().dead_total();
    let oram = run_warm(Scheme::PlainRing, 12, 0, 120_000);
    let end = oram.stats().dead_total();
    assert!(mid > 0);
    let growth = (end as f64 - mid as f64).abs() / mid as f64;
    assert!(growth < 0.10, "dead census should be stable after warm-up (grew {growth:.3})");
    // Bottom two levels hold the majority of dead blocks.
    let bottom: u64 = (10..12).map(|l| oram.stats().dead_blocks.get(l)).sum();
    assert!(bottom as f64 > 0.6 * end as f64, "dead blocks concentrate near the leaves");
}

/// §VI-C: the attacker success rate tracks 1/L for Baseline and AB alike.
#[test]
fn fig7_security_rates() {
    for scheme in [Scheme::Baseline, Scheme::Ab] {
        let cfg = OramConfig::builder(12, scheme).seed(3).build().unwrap();
        let report = aboram::core::attack_success_rate(&cfg, 30_000).unwrap();
        let rate = report.success_rate();
        let ideal = report.ideal_rate();
        assert!((rate - ideal).abs() < 0.2 * ideal, "{scheme}: rate {rate:.5} vs ideal {ideal:.5}");
    }
}

/// Table I / §VIII-H: both metadata layouts fit one 64 B block.
#[test]
fn table1_metadata_budget() {
    use aboram::tree::{Level, LevelConfig, TreeGeometry};
    let geo = TreeGeometry::uniform(24, LevelConfig::new(5, 7)).unwrap();
    let layout = aboram::core::MetadataLayout::for_geometry(&geo, Level(23), 6);
    assert!(layout.aboram_total_bits() <= 512);
}
