//! Full-pipeline integration: synthetic LLC-miss workload → ORAM
//! controller → cycle-level DRAM, spanning all five crates.

use aboram::core::{OramConfig, Scheme, TimingDriver};
use aboram::dram::DramConfig;
use aboram::trace::{profiles, TraceGenerator};

#[test]
fn pipeline_produces_consistent_reports() {
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "x264").unwrap();
    let cfg = OramConfig::builder(10, Scheme::Ab).seed(2).build().unwrap();
    let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
    driver.warm_up(2_000).unwrap();

    let mut gen = TraceGenerator::new(&profile, 7);
    let report = driver.run((0..500).map(|_| gen.next_record())).unwrap();

    assert_eq!(report.records, 500);
    assert_eq!(report.user_accesses, 500, "one ORAM access per LLC miss");
    assert!(report.exec_cycles > 0);
    assert!(report.evict_paths >= 99, "evictPath every A = 5 accesses");
    assert!(report.bytes_transferred > 0);
    assert!(report.row_hit_rate > 0.0 && report.row_hit_rate < 1.0);
    // The breakdown accounts for every op class the run used.
    assert!(report.breakdown.total() > 0);
    let total_frac: f64 =
        aboram::core::OramOp::ALL.iter().map(|&op| report.breakdown.fraction(op)).sum();
    assert!((total_frac - 1.0).abs() < 1e-9);
}

#[test]
fn warmup_state_carries_into_timed_run() {
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
    let cfg = OramConfig::builder(10, Scheme::DR).seed(2).build().unwrap();

    let mut cold = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
    let mut gen = TraceGenerator::new(&profile, 7);
    let cold_report = cold.run((0..400).map(|_| gen.next_record())).unwrap();

    let mut warm = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
    warm.warm_up(10_000).unwrap();
    let mut gen = TraceGenerator::new(&profile, 7);
    let warm_report = warm.run((0..400).map(|_| gen.next_record())).unwrap();

    // Reports cover the timed window only; warm-up shows up through protocol
    // state (dead blocks, extension behaviour), not inflated counters.
    assert_eq!(cold_report.records, warm_report.records);
    assert_eq!(warm_report.user_accesses, 400);
}

#[test]
fn path_oram_costs_more_online_bandwidth_than_ring() {
    use aboram::core::AccessKind;
    use aboram::core::{CountingSink, OramOp, PathOram, RingOram};
    let cfg = OramConfig::builder(10, Scheme::PlainRing).seed(2).build().unwrap();

    let mut ring = RingOram::new(&cfg).unwrap();
    let mut ring_sink = CountingSink::new();
    let mut path = PathOram::new(&cfg).unwrap();
    let mut path_sink = CountingSink::new();
    for b in 0..200u64 {
        ring.access(AccessKind::Read, b, None, &mut ring_sink).unwrap();
        path.access(b, &mut path_sink).unwrap();
    }
    let ring_online = ring_sink.reads(OramOp::ReadPath);
    let path_online = path_sink.reads(OramOp::ReadPath);
    // Ring ORAM reads 1 block/bucket online; Path ORAM reads Z = 12.
    assert!(
        path_online > 8 * ring_online,
        "Path ORAM online reads ({path_online}) should dwarf Ring's ({ring_online})"
    );
}
