//! Serial vs access-pipelined differential suite.
//!
//! Cross-access pipelining (DESIGN.md §15) may only change *when* accesses'
//! DRAM requests are released onto the twin — never what the protocol does
//! and never the request set an access emits. This suite forces pipeline
//! depths 1 and 4 onto every golden scheme, replays the same fixed trace,
//! and asserts the protocol outcomes are identical:
//!
//! * the engines compare equal (`RingOram`'s `==`: position map, stash,
//!   bucket metadata, RNG stream, statistics — every protocol state field);
//! * every report field describing protocol work (accesses, evictions,
//!   reshuffles, stash peak, bytes moved) is equal;
//! * only the cycle-flavored fields may differ, and pipelining is never
//!   slower end-to-end: `response_latency_cycles` (completion minus issue,
//!   the latency a requester observes) must not grow. `online_latency_cycles`
//!   (completion minus DRAM release) is deliberately *not* bounded here —
//!   pipelining moves queueing delay from before the release point to after
//!   it, so that per-access figure can tick up even as every response
//!   arrives earlier.
//!
//! This is the obliviousness argument made executable: the request *set*
//! per access is unchanged (same addresses, kinds, priorities), so an
//! adversary observing the address bus per access learns nothing new; only
//! the inter-access issue schedule moves, and that schedule is already
//! public (it is a deterministic function of public timing).

use aboram::core::{RingOram, Scheme, SimulationReport, TimingDriver};
use aboram::dram::DramConfig;
use aboram::golden;
use aboram::trace::{profiles, TraceGenerator};

/// A shortened window keeps the full 7-scheme × 2-depth grid in seconds.
const RECORDS: usize = 200;
const WARMUP: u64 = 500;

fn run_depth(scheme: Scheme, depth: u8) -> (SimulationReport, RingOram) {
    let cfg = golden::case_config(scheme).expect("golden config builds");
    let mut driver = TimingDriver::new(&cfg, DramConfig::default()).expect("driver builds");
    driver.set_pipeline_depth(depth);
    driver.warm_up(WARMUP).expect("warm-up runs");
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf profile");
    let mut gen = TraceGenerator::new(&profile, golden::GOLDEN_SEED);
    let report = driver.run((0..RECORDS).map(|_| gen.next_record())).expect("timed window runs");
    (report, driver.oram_mut().clone())
}

#[test]
fn pipeline_depths_agree_on_everything_but_cycles() {
    for (name, scheme) in golden::cases() {
        let (serial, serial_engine) = run_depth(scheme, 1);
        let (deep, deep_engine) = run_depth(scheme, 4);

        assert!(
            serial_engine == deep_engine,
            "{name}: pipeline depth leaked into protocol state (the engines differ)"
        );
        assert_eq!(serial.records, deep.records, "{name}: records");
        assert_eq!(serial.instructions, deep.instructions, "{name}: instructions");
        assert_eq!(serial.user_accesses, deep.user_accesses, "{name}: user accesses");
        assert_eq!(
            serial.background_accesses, deep.background_accesses,
            "{name}: background accesses"
        );
        assert_eq!(serial.evict_paths, deep.evict_paths, "{name}: evict paths");
        assert_eq!(serial.early_reshuffles, deep.early_reshuffles, "{name}: early reshuffles");
        assert_eq!(serial.stash_peak, deep.stash_peak, "{name}: stash peak");
        assert_eq!(
            serial.bytes_transferred, deep.bytes_transferred,
            "{name}: the request set per access must be unchanged"
        );
        // End-to-end latency is the one thing allowed to move, and only
        // downward: overlapping independent accesses can hide queueing
        // but must never add any on the requester-visible path.
        assert!(
            deep.response_latency_cycles <= serial.response_latency_cycles,
            "{name}: pipelining added requester-visible latency ({} > {})",
            deep.response_latency_cycles,
            serial.response_latency_cycles
        );
        assert!(
            deep.exec_cycles <= serial.exec_cycles,
            "{name}: pipelining stretched the wall clock ({} > {})",
            deep.exec_cycles,
            serial.exec_cycles
        );
    }
}

/// Depth 1 *is* the classic serialized controller: forcing it produces a
/// report and engine bit-identical to a driver that was never touched.
#[test]
fn depth_one_is_bitexact_with_untouched_driver() {
    for (name, scheme) in golden::cases() {
        let (forced, forced_engine) = run_depth(scheme, 1);

        let cfg = golden::case_config(scheme).expect("config");
        let mut driver = TimingDriver::new(&cfg, DramConfig::default()).expect("driver");
        driver.warm_up(WARMUP).expect("warm-up");
        let profile =
            profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf profile");
        let mut gen = TraceGenerator::new(&profile, golden::GOLDEN_SEED);
        let default_report =
            driver.run((0..RECORDS).map(|_| gen.next_record())).expect("timed window");

        assert_eq!(default_report, forced, "{name}: depth-1 run != untouched run");
        assert!(*driver.oram_mut() == forced_engine, "{name}: depth-1 engine != untouched engine");
    }
}
