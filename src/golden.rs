//! Golden-trace equivalence harness.
//!
//! A *golden trace* is the [`SimulationReport`] a fixed-seed, fixed-scale
//! timing run produces for one scheme, serialized to canonical JSON together
//! with an FNV-1a digest. The fixtures under `tests/golden/` were generated
//! from the pre-optimization engine; `tests/golden_traces.rs` asserts the
//! current engine reproduces them byte-for-byte, which is what lets the hot
//! path be rewritten aggressively (bitset metadata scans, scratch-buffer
//! reuse, batched DRAM issue) with proof that observable behaviour — cycle
//! counts, stash statistics, reshuffle counts, traffic attribution — did not
//! move by a single bit.
//!
//! ## Blessing workflow
//!
//! Fixtures are regenerated (only when a change is *supposed* to alter
//! behaviour, e.g. a protocol fix) by running:
//!
//! ```text
//! BLESS=1 cargo test --test golden_traces
//! ```
//!
//! and committing the rewritten `tests/golden/*.json`. A normal test run
//! never writes; it fails with a field-by-field diff when a digest diverges.

use crate::core::{OramConfig, OramError, Scheme, SimulationReport, TimingDriver};
use crate::dram::DramConfig;
use crate::stats::fnv1a64;
use crate::trace::{profiles, TraceGenerator};

/// Tree levels used by every golden case (small enough that all six schemes
/// replay in seconds, deep enough that DR/NS/AB bottom-level overrides and
/// the DeadQ machinery are all exercised).
pub const GOLDEN_LEVELS: u8 = 10;

/// Untimed protocol warm-up accesses before the timed window.
pub const GOLDEN_WARMUP: u64 = 3_000;

/// Timed trace records per case.
pub const GOLDEN_RECORDS: usize = 600;

/// RNG seed shared by the engine, warm-up and trace generator.
pub const GOLDEN_SEED: u64 = 0x601D_7ACE;

/// The seven golden schemes: plain Ring ORAM, the CB evaluation baseline,
/// the paper's four evaluated optimizations, and the channel-parallel AB
/// variant (same protocol as AB, overlapped timing path).
pub fn cases() -> [(&'static str, Scheme); 7] {
    [
        ("ring", Scheme::PlainRing),
        ("baseline", Scheme::Baseline),
        ("ir", Scheme::Ir),
        ("dr", Scheme::DR),
        ("ns", Scheme::NS),
        ("ab", Scheme::Ab),
        ("abcp", Scheme::AbChannelPar),
    ]
}

/// The configuration one golden case is built from.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn case_config(scheme: Scheme) -> Result<OramConfig, OramError> {
    OramConfig::builder(GOLDEN_LEVELS, scheme).seed(GOLDEN_SEED).build()
}

/// Runs one golden case end to end: build, warm up, replay the fixed trace.
///
/// # Errors
///
/// Propagates configuration and protocol errors.
pub fn run_case(scheme: Scheme) -> Result<SimulationReport, OramError> {
    let cfg = case_config(scheme)?;
    let mut driver = TimingDriver::new(&cfg, DramConfig::default())?;
    driver.warm_up(GOLDEN_WARMUP)?;
    replay_trace(driver)
}

/// [`run_case`] with integrity verification armed for the timed window: MAC
/// tags are checked on every fetch and folded into the per-level digest
/// chain. Fault-free, this must reproduce the unverified golden fixtures
/// bit-identically — verification is pure shadow computation whose cycle
/// cost is already inside the crypto pipeline charge.
///
/// # Errors
///
/// Propagates configuration and protocol errors.
pub fn run_case_verified(scheme: Scheme) -> Result<SimulationReport, OramError> {
    let cfg = case_config(scheme)?;
    let mut driver = TimingDriver::new(&cfg, DramConfig::default())?;
    driver.warm_up(GOLDEN_WARMUP)?;
    driver.enable_integrity();
    replay_trace(driver)
}

fn replay_trace(mut driver: TimingDriver) -> Result<SimulationReport, OramError> {
    let profile =
        profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf profile present");
    let mut gen = TraceGenerator::new(&profile, GOLDEN_SEED);
    driver.run((0..GOLDEN_RECORDS).map(|_| gen.next_record()))
}

/// Canonical JSON serialization of a golden case. Every field is an exact
/// integer (floats are carried as IEEE-754 bit patterns), so byte equality
/// of two serializations is bit equality of the underlying reports.
pub fn digest_json(name: &str, scheme: Scheme, report: &SimulationReport) -> String {
    let body = format!(
        concat!(
            "  \"scheme\": \"{scheme}\",\n",
            "  \"levels\": {levels},\n",
            "  \"warmup\": {warmup},\n",
            "  \"timed_records\": {timed},\n",
            "  \"seed\": {seed},\n",
            "  \"records\": {records},\n",
            "  \"instructions\": {instructions},\n",
            "  \"exec_cycles\": {exec_cycles},\n",
            "  \"bus_cycles\": [{bc0}, {bc1}, {bc2}, {bc3}, {bc4}],\n",
            "  \"bytes_transferred\": {bytes},\n",
            "  \"row_hit_rate_bits\": {row_bits},\n",
            "  \"user_accesses\": {users},\n",
            "  \"background_accesses\": {bg},\n",
            "  \"evict_paths\": {evicts},\n",
            "  \"early_reshuffles\": {reshuffles},\n",
            "  \"stash_peak\": {stash_peak}"
        ),
        scheme = scheme,
        levels = GOLDEN_LEVELS,
        warmup = GOLDEN_WARMUP,
        timed = GOLDEN_RECORDS,
        seed = GOLDEN_SEED,
        records = report.records,
        instructions = report.instructions,
        exec_cycles = report.exec_cycles,
        bc0 = report.breakdown.bus_cycles[0],
        bc1 = report.breakdown.bus_cycles[1],
        bc2 = report.breakdown.bus_cycles[2],
        bc3 = report.breakdown.bus_cycles[3],
        bc4 = report.breakdown.bus_cycles[4],
        bytes = report.bytes_transferred,
        row_bits = report.row_hit_rate.to_bits(),
        users = report.user_accesses,
        bg = report.background_accesses,
        evicts = report.evict_paths,
        reshuffles = report.early_reshuffles,
        stash_peak = report.stash_peak,
    );
    let digest = fnv1a64(body.as_bytes());
    format!("{{\n  \"name\": \"{name}\",\n{body},\n  \"digest\": \"{digest:016x}\"\n}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_changes_with_any_field() {
        let mut r = SimulationReport {
            records: 1,
            instructions: 2,
            exec_cycles: 3,
            breakdown: Default::default(),
            bytes_transferred: 4,
            row_hit_rate: 0.5,
            user_accesses: 5,
            background_accesses: 6,
            evict_paths: 7,
            early_reshuffles: 8,
            stash_peak: 9,
            online_latency_cycles: 10,
            response_latency_cycles: 11,
            recovery: crate::stats::RecoveryStats::new(),
            health: crate::stats::HealthState::Healthy,
        };
        let a = digest_json("x", Scheme::Baseline, &r);
        r.exec_cycles += 1;
        let b = digest_json("x", Scheme::Baseline, &r);
        assert_ne!(a, b);
    }
}
