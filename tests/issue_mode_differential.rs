//! Serial vs channel-parallel differential suite.
//!
//! The channel-parallel issue mode may only change *when* one access's DRAM
//! requests are issued and how the crypto pipeline is charged — never what
//! the protocol does. This suite forces both issue modes onto every golden
//! scheme, replays the same fixed trace, and asserts the protocol outcomes
//! are identical:
//!
//! * the engines compare equal (`RingOram`'s `==`: position map, stash,
//!   bucket metadata, RNG stream, statistics — every protocol state field);
//! * every report field describing protocol work (accesses, evictions,
//!   reshuffles, stash peak, bytes moved) is equal;
//! * only the cycle-flavored fields (`exec_cycles`,
//!   `online_latency_cycles`) may differ, and the parallel mode is never
//!   slower on the user-visible critical path.
//!
//! This is the obliviousness argument made executable: the request *set*
//! per access is unchanged (same addresses, kinds, priorities, arrival
//! cycle), so an adversary observing the address bus per access learns
//! nothing new; only the intra-access issue order moves.

use aboram::core::{IssueMode, RingOram, SimulationReport, TimingDriver};
use aboram::dram::DramConfig;
use aboram::golden;
use aboram::trace::{profiles, TraceGenerator};

/// A shortened window keeps the full 7-scheme × 2-mode grid in seconds.
const RECORDS: usize = 200;
const WARMUP: u64 = 500;

fn run_mode(scheme: aboram::core::Scheme, mode: IssueMode) -> (SimulationReport, RingOram) {
    let cfg = golden::case_config(scheme).expect("golden config builds");
    let mut driver = TimingDriver::new(&cfg, DramConfig::default()).expect("driver builds");
    driver.set_issue_mode(mode);
    driver.warm_up(WARMUP).expect("warm-up runs");
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf profile");
    let mut gen = TraceGenerator::new(&profile, golden::GOLDEN_SEED);
    let report = driver.run((0..RECORDS).map(|_| gen.next_record())).expect("timed window runs");
    (report, driver.oram_mut().clone())
}

#[test]
fn issue_modes_agree_on_everything_but_cycles() {
    for (name, scheme) in golden::cases() {
        let (serial, serial_engine) = run_mode(scheme, IssueMode::Serial);
        let (parallel, parallel_engine) = run_mode(scheme, IssueMode::ChannelParallel);

        assert!(
            serial_engine == parallel_engine,
            "{name}: issue mode leaked into protocol state (the engines differ)"
        );
        assert_eq!(serial.records, parallel.records, "{name}: records");
        assert_eq!(serial.instructions, parallel.instructions, "{name}: instructions");
        assert_eq!(serial.user_accesses, parallel.user_accesses, "{name}: user accesses");
        assert_eq!(
            serial.background_accesses, parallel.background_accesses,
            "{name}: background accesses"
        );
        assert_eq!(serial.evict_paths, parallel.evict_paths, "{name}: evict paths");
        assert_eq!(serial.early_reshuffles, parallel.early_reshuffles, "{name}: early reshuffles");
        assert_eq!(serial.stash_peak, parallel.stash_peak, "{name}: stash peak");
        assert_eq!(
            serial.bytes_transferred, parallel.bytes_transferred,
            "{name}: the request set per access must be unchanged"
        );
        // Cycle totals are the one thing allowed to move, and only downward
        // on the user-visible path: the overlapped crypto drain can hide
        // latency but never add any.
        assert!(
            parallel.online_latency_cycles <= serial.online_latency_cycles,
            "{name}: channel-parallel mode added critical-path latency ({} > {})",
            parallel.online_latency_cycles,
            serial.online_latency_cycles
        );
        assert!(
            parallel.online_latency_cycles < serial.online_latency_cycles,
            "{name}: overlap hid nothing — the parallel drain is not wired"
        );
    }
}

/// The scheme-driven default matches the forced mode: an `AbChannelPar`
/// driver left alone produces exactly what forcing `ChannelParallel` onto
/// it produces, and its protocol outcomes match serial AB's.
#[test]
fn abcp_defaults_match_forced_parallel_and_ab_protocol() {
    let (forced, forced_engine) =
        run_mode(aboram::core::Scheme::AbChannelPar, IssueMode::ChannelParallel);

    let cfg = golden::case_config(aboram::core::Scheme::AbChannelPar).expect("config");
    let mut driver = TimingDriver::new(&cfg, DramConfig::default()).expect("driver");
    assert_eq!(driver.issue_mode(), IssueMode::ChannelParallel, "scheme must set the mode");
    driver.warm_up(WARMUP).expect("warm-up");
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf");
    let mut gen = TraceGenerator::new(&profile, golden::GOLDEN_SEED);
    let default_report = driver.run((0..RECORDS).map(|_| gen.next_record())).expect("timed window");

    assert_eq!(default_report, forced, "default AB-CP run != forced ChannelParallel run");
    assert!(*driver.oram_mut() == forced_engine, "default AB-CP engine != forced one");

    // Protocol work matches serial AB run under AB's own config: AbChannelPar
    // shares AB's geometry, engine behavior and RNG stream.
    let (ab, _) = run_mode(aboram::core::Scheme::Ab, IssueMode::Serial);
    assert_eq!(ab.user_accesses, forced.user_accesses);
    assert_eq!(ab.evict_paths, forced.evict_paths);
    assert_eq!(ab.early_reshuffles, forced.early_reshuffles);
    assert_eq!(ab.bytes_transferred, forced.bytes_transferred);
    assert_eq!(ab.stash_peak, forced.stash_peak);
}
