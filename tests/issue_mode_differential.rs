//! Serial vs channel-parallel differential suite.
//!
//! The scheme alone selects the issue order: AB issues in program order,
//! AB-CP (AB's protocol and RNG stream) groups each access by channel and
//! overlaps decryption with the remaining DRAM occupancy. The channel-
//! parallel order may only change *when* one access's DRAM requests are
//! issued and how the crypto pipeline is charged — never what the protocol
//! does. This suite runs AB and AB-CP on the same fixed trace and asserts:
//!
//! * every report field describing protocol work (accesses, evictions,
//!   reshuffles, stash peak, bytes moved) is equal across the two;
//! * AB-CP's online latency is strictly lower: the overlap is wired;
//! * each timed engine compares equal (`RingOram`'s `==`: position map,
//!   stash, bucket metadata, RNG stream, statistics) to the same warmed
//!   engine after an untimed [`CountingSink`] replay of the same records,
//!   so no timing reaches protocol state, in either order.
//!
//! This is the obliviousness argument made executable: the request *set*
//! per access is unchanged (same addresses, kinds, priorities, arrival
//! cycle), so an adversary observing the address bus per access learns
//! nothing new; only the intra-access issue order moves.

use aboram::core::{AccessKind, CountingSink, RingOram, Scheme, SimulationReport, TimingDriver};
use aboram::dram::DramConfig;
use aboram::golden;
use aboram::trace::{profiles, MemOp, TraceGenerator, TraceRecord};

/// A shortened window keeps both runs and their replays in seconds.
const RECORDS: usize = 200;
const WARMUP: u64 = 500;

/// The fixed trace both schemes replay.
fn records() -> Vec<TraceRecord> {
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf profile");
    let mut gen = TraceGenerator::new(&profile, golden::GOLDEN_SEED);
    (0..RECORDS).map(|_| gen.next_record()).collect()
}

/// Times `trace` on `scheme`'s golden configuration, and replays it untimed
/// on a clone of the same warmed engine: the report, the timed engine and
/// the untimed one.
fn run_scheme(scheme: Scheme, trace: &[TraceRecord]) -> (SimulationReport, RingOram, RingOram) {
    let cfg = golden::case_config(scheme).expect("golden config builds");
    let mut driver = TimingDriver::new(&cfg, DramConfig::default()).expect("driver builds");
    driver.warm_up(WARMUP).expect("warm-up runs");
    let mut untimed = driver.oram_mut().clone();
    let report = driver.run(trace.iter().copied()).expect("timed window runs");

    let (blocks, mut sink) = (untimed.block_count(), CountingSink::new());
    for rec in trace {
        let kind = match rec.op {
            MemOp::Read => AccessKind::Read,
            MemOp::Write => AccessKind::Write,
        };
        untimed.access(kind, (rec.addr / 64) % blocks, None, &mut sink).expect("replay runs");
    }
    (report, driver.oram_mut().clone(), untimed)
}

#[test]
fn issue_modes_agree_on_everything_but_cycles() {
    let trace = records();
    let (serial, serial_engine, serial_replay) = run_scheme(Scheme::Ab, &trace);
    let (parallel, parallel_engine, parallel_replay) = run_scheme(Scheme::AbChannelPar, &trace);

    assert!(serial_engine == serial_replay, "AB: timing leaked into protocol state");
    assert!(parallel_engine == parallel_replay, "AB-CP: timing leaked into protocol state");

    assert_eq!(serial.records, parallel.records, "records");
    assert_eq!(serial.instructions, parallel.instructions, "instructions");
    assert_eq!(serial.user_accesses, parallel.user_accesses, "user accesses");
    assert_eq!(serial.background_accesses, parallel.background_accesses, "background accesses");
    assert_eq!(serial.evict_paths, parallel.evict_paths, "evict paths");
    assert_eq!(serial.early_reshuffles, parallel.early_reshuffles, "early reshuffles");
    assert_eq!(serial.stash_peak, parallel.stash_peak, "stash peak");
    assert_eq!(
        serial.bytes_transferred, parallel.bytes_transferred,
        "the request set per access must be unchanged"
    );
    // Cycle totals are the one thing allowed to move, and only downward on
    // the user-visible path: the overlapped crypto drain can hide latency
    // but never add any, and with several online reads per access
    // completing at distinct cycles it must hide some.
    assert!(
        parallel.online_latency_cycles < serial.online_latency_cycles,
        "overlap hid nothing: AB-CP {} vs AB {}",
        parallel.online_latency_cycles,
        serial.online_latency_cycles
    );
}
