//! Seeded fault injection for chaos-testing the ORAM engine.
//!
//! A [`FaultPlan`] is a deterministic schedule of memory faults derived from
//! a single seed. Wrapping any [`MemorySink`] in a [`FaultInjectingSink`]
//! makes the engine's verification sites observe those faults through
//! [`MemorySink::poll_fault`]:
//!
//! * **bit flips** on fetched data blocks — detected by the per-block MAC
//!   when the engine opens the sealed block;
//! * **metadata corruption** on bucket-metadata fetches — detected by the
//!   metadata MAC;
//! * **dropped writes** — detected by the DDR4 write-CRC acknowledgment;
//! * **channel stalls** — transient windows during which a DRAM channel
//!   accepts no commands (modelled inside `aboram-dram`; the timing driver
//!   installs the plan's [`stall_schedule`](FaultPlan::stall_schedule)).
//!
//! Faults are decided at *poll* time, i.e. exactly at the points where the
//! engine verifies a transfer. Two consequences: every injected integrity
//! fault is detected by construction (dummy blocks, whose content is never
//! interpreted, are not polled — a flipped dummy is harmless and
//! unobservable); and with no plan installed the default `poll_fault`
//! returns `false` without consuming randomness, so fault-free runs are
//! bit-identical to runs built without this module.

use crate::sink::{MemorySink, OramOp};
use aboram_stats::RecoveryStats;
use aboram_tree::SlotAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maximum re-issues of a faulted transfer before an engine gives up with
/// [`crate::OramError::RetriesExhausted`] — or, with integrity verification
/// armed, climbs to the next rung of the recovery ladder (redundant-slot
/// refetch, then escalated eviction plus graceful degradation).
pub const MAX_FAULT_RETRIES: u32 = 6;

/// Backoff charged (to the recovery stats — the simulator never sleeps)
/// before retry `i` is `BACKOFF_BASE_CYCLES << i`.
pub const BACKOFF_BASE_CYCLES: u64 = 32;

/// Redundant-slot refetches attempted after bounded retry is exhausted —
/// the second rung of the integrity-verified recovery ladder. Only engines
/// with the verifier armed climb past plain retries.
pub const REDUNDANT_REFETCHES: u32 = 2;

/// Where a fault may be observed — the engine's verification sites. A
/// channel stall is not polled: it is scheduled into the DRAM twin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// MAC verification of a fetched data block.
    Data,
    /// Verification of a fetched metadata record.
    Metadata,
    /// Write-CRC acknowledgment of a completed write burst.
    WriteAck,
}

/// Per-site fault rates and the channel-stall shape of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a verified data fetch arrives bit-flipped.
    pub data_bit_flip: f64,
    /// Probability a metadata fetch arrives corrupted.
    pub metadata_corruption: f64,
    /// Probability a write burst is dropped.
    pub dropped_write: f64,
    /// Number of channel-stall events to schedule.
    pub stall_events: u32,
    /// Duration of each stall window, in CPU cycles.
    pub stall_duration: u64,
    /// Stall start times are placed uniformly in `[0, stall_horizon)`.
    pub stall_horizon: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            data_bit_flip: 0.002,
            metadata_corruption: 0.001,
            dropped_write: 0.001,
            stall_events: 4,
            stall_duration: 20_000,
            stall_horizon: 2_000_000,
        }
    }
}

/// One scheduled channel-unavailability window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelStall {
    /// Index of the stalled channel.
    pub channel: usize,
    /// CPU cycle the window opens.
    pub at: u64,
    /// Window length in CPU cycles.
    pub duration: u64,
}

/// Salt separating the stall-schedule RNG from the poll RNG, so computing
/// the schedule never perturbs the poll stream.
const STALL_SALT: u64 = 0x5f43_12d9_a5a5_0001;

/// A deterministic, seeded fault schedule.
///
/// Two plans built from the same seed and config produce identical
/// [`draw`](FaultPlan::draw) sequences and identical
/// [`stall_schedule`](FaultPlan::stall_schedule)s, so a faulty run replays
/// exactly.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
    rng: StdRng,
}

impl FaultSite {
    /// The site's recovery counters: faults detected, faults recovered and
    /// re-issues on the retry rung.
    pub(crate) fn counters(self, r: &mut RecoveryStats) -> (&mut u64, &mut u64, &mut u64) {
        match self {
            FaultSite::Data => (
                &mut r.integrity_faults_detected,
                &mut r.integrity_faults_recovered,
                &mut r.integrity_retries,
            ),
            FaultSite::Metadata => (
                &mut r.metadata_faults_detected,
                &mut r.metadata_faults_recovered,
                &mut r.metadata_retries,
            ),
            FaultSite::WriteAck => (
                &mut r.dropped_writes_detected,
                &mut r.dropped_writes_recovered,
                &mut r.write_retries,
            ),
        }
    }

    /// The telemetry event a faulted poll at this site emits.
    pub(crate) fn event(self) -> &'static str {
        match self {
            FaultSite::Data => "data_fault",
            FaultSite::Metadata => "metadata_fault",
            FaultSite::WriteAck => "write_dropped",
        }
    }
}

impl FaultPlan {
    /// A plan with the default fault rates.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, FaultConfig::default())
    }

    /// A plan with explicit fault rates.
    pub fn with_config(seed: u64, cfg: FaultConfig) -> Self {
        FaultPlan { seed, cfg, rng: StdRng::seed_from_u64(seed) }
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault rates in force.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Decides whether the transfer being verified at `site` faults.
    /// Consumes one RNG draw per call (none when the site's rate is zero),
    /// so the fault sequence is a pure function of the seed and the
    /// engine's deterministic poll order.
    pub fn draw(&mut self, site: FaultSite) -> bool {
        let p = match site {
            FaultSite::Data => self.cfg.data_bit_flip,
            FaultSite::Metadata => self.cfg.metadata_corruption,
            FaultSite::WriteAck => self.cfg.dropped_write,
        };
        if p <= 0.0 {
            return false;
        }
        self.rng.gen_bool(p.min(1.0))
    }

    /// The plan's channel-stall schedule for a memory system with
    /// `channels` channels. Derived from a dedicated RNG, so calling this
    /// (any number of times) never changes the poll stream.
    pub fn stall_schedule(&self, channels: usize) -> Vec<ChannelStall> {
        if channels == 0 || self.cfg.stall_events == 0 || self.cfg.stall_duration == 0 {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ STALL_SALT);
        (0..self.cfg.stall_events)
            .map(|_| ChannelStall {
                channel: rng.gen_range(0..channels),
                at: rng.gen_range(0..self.cfg.stall_horizon.max(1)),
                duration: self.cfg.stall_duration,
            })
            .collect()
    }
}

/// Running totals of faults a [`FaultInjectingSink`] has injected, used by
/// the chaos tests to assert that every injected fault was detected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Data-block bit flips injected.
    pub bit_flips: u64,
    /// Metadata corruptions injected.
    pub metadata_corruptions: u64,
    /// Write drops injected.
    pub dropped_writes: u64,
}

impl InjectedFaults {
    /// Total injected faults of any kind.
    pub fn total(&self) -> u64 {
        self.bit_flips + self.metadata_corruptions + self.dropped_writes
    }
}

/// Composes fault injection over any [`MemorySink`].
///
/// Reads and writes pass through unchanged; the engine's verification polls
/// consult the installed [`FaultPlan`]. With no plan (the default), the
/// wrapper is transparent — every poll answers `false` without touching a
/// random stream.
#[derive(Debug)]
pub struct FaultInjectingSink<S> {
    inner: S,
    plan: Option<FaultPlan>,
    injected: InjectedFaults,
}

impl<S: MemorySink> FaultInjectingSink<S> {
    /// Wraps `inner` with fault injection disabled.
    pub fn new(inner: S) -> Self {
        FaultInjectingSink { inner, plan: None, injected: InjectedFaults::default() }
    }

    /// Wraps `inner` with `plan` active.
    pub fn with_plan(inner: S, plan: FaultPlan) -> Self {
        FaultInjectingSink { inner, plan: Some(plan), injected: InjectedFaults::default() }
    }

    /// Installs (or clears) the fault plan.
    pub fn set_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped sink.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Faults injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.injected
    }
}

impl<S: MemorySink> MemorySink for FaultInjectingSink<S> {
    fn read(&mut self, addr: SlotAddr, op: OramOp, online: bool) {
        self.inner.read(addr, op, online);
    }

    fn write(&mut self, addr: SlotAddr, op: OramOp, online: bool) {
        self.inner.write(addr, op, online);
    }

    fn read_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        self.inner.read_batch(addrs, op, online);
    }

    fn write_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        self.inner.write_batch(addrs, op, online);
    }

    fn poll_fault(&mut self, _addr: SlotAddr, site: FaultSite) -> bool {
        let faulted = self.plan.as_mut().is_some_and(|plan| plan.draw(site));
        if faulted {
            *match site {
                FaultSite::Data => &mut self.injected.bit_flips,
                FaultSite::Metadata => &mut self.injected.metadata_corruptions,
                FaultSite::WriteAck => &mut self.injected.dropped_writes,
            } += 1;
        }
        faulted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountingSink;

    #[test]
    fn same_seed_draws_identical_fault_sequences() {
        let mut a = FaultPlan::new(0xfeed);
        let mut b = FaultPlan::new(0xfeed);
        let sites = [FaultSite::Data, FaultSite::Metadata, FaultSite::WriteAck];
        for i in 0..10_000 {
            let site = sites[i % sites.len()];
            assert_eq!(a.draw(site), b.draw(site), "draw {i} diverged");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::new(1);
        let mut b = FaultPlan::new(2);
        let mut diverged = false;
        for _ in 0..50_000 {
            if a.draw(FaultSite::Data) != b.draw(FaultSite::Data) {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "different seeds should produce different schedules");
    }

    #[test]
    fn draw_respects_rates() {
        let cfg = FaultConfig {
            data_bit_flip: 1.0,
            metadata_corruption: 0.0,
            dropped_write: 0.5,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::with_config(9, cfg);
        assert!(plan.draw(FaultSite::Data));
        assert!(!plan.draw(FaultSite::Metadata), "rate 0 never faults");
        let hits = (0..1_000).filter(|_| plan.draw(FaultSite::WriteAck)).count();
        assert!((300..700).contains(&hits), "rate 0.5 produced {hits}/1000 faults");
    }

    #[test]
    fn stall_schedule_is_stable_and_in_bounds() {
        let plan = FaultPlan::new(77);
        let a = plan.stall_schedule(4);
        let b = plan.stall_schedule(4);
        assert_eq!(a, b, "schedule must not depend on call count");
        assert_eq!(a.len(), plan.config().stall_events as usize);
        for s in &a {
            assert!(s.channel < 4);
            assert!(s.at < plan.config().stall_horizon);
            assert_eq!(s.duration, plan.config().stall_duration);
        }
        assert!(plan.stall_schedule(0).is_empty());
        // Computing schedules must not have consumed poll randomness.
        let mut x = FaultPlan::new(77);
        let mut y = plan.clone();
        for _ in 0..1_000 {
            assert_eq!(x.draw(FaultSite::Data), y.draw(FaultSite::Data));
        }
    }

    #[test]
    fn sink_without_plan_is_transparent() {
        let mut sink = FaultInjectingSink::new(CountingSink::new());
        sink.read(SlotAddr(0), OramOp::ReadPath, true);
        sink.write(SlotAddr(64), OramOp::EvictPath, false);
        assert!(!sink.poll_fault(SlotAddr(0), FaultSite::Data));
        assert_eq!(sink.injected().total(), 0);
        assert_eq!(sink.inner().grand_total(), 2, "traffic passes through");
    }

    #[test]
    fn sink_counts_injected_faults_by_kind() {
        let cfg = FaultConfig {
            data_bit_flip: 1.0,
            metadata_corruption: 1.0,
            dropped_write: 1.0,
            ..FaultConfig::default()
        };
        let mut sink =
            FaultInjectingSink::with_plan(CountingSink::new(), FaultPlan::with_config(3, cfg));
        for site in [FaultSite::Data, FaultSite::Metadata, FaultSite::WriteAck] {
            assert!(sink.poll_fault(SlotAddr(0), site));
        }
        let inj = sink.injected();
        assert_eq!(inj.bit_flips, 1);
        assert_eq!(inj.metadata_corruptions, 1);
        assert_eq!(inj.dropped_writes, 1);
        assert_eq!(inj.total(), 3);
    }
}
