//! Cycle-level simulation driver: trace CPU → ORAM controller → DRAM.
//!
//! Reproduces the paper's USIMM-based methodology (§VII): a trace-driven
//! core (fetch 4 / ROB 256) issues LLC misses; each miss becomes one Ring
//! ORAM access whose online portion blocks the core while maintenance
//! traffic drains in the background; a cycle-level DRAM model arbitrates
//! everything. Execution time, the Fig. 8c operation breakdown and the
//! Fig. 9 bandwidth numbers all come from here.
//!
//! A run has two stages. The *engine stage* runs the protocol on each
//! record and stages the requests it emits — decoded, row-run and in release
//! order; the *timing stage* gates and releases each staged access through
//! the controller and times it. No cycle reaches the engine stage, so it runs
//! ahead on a second thread; the telemetry hooks it fires there travel back
//! with its batch and reach the collector just before the timing stage times
//! their record (DESIGN.md §16).

use crate::config::OramConfig;
use crate::controller::AccessController;
use crate::error::OramError;
use crate::fault::{FaultInjectingSink, FaultPlan, InjectedFaults};
use crate::recursion::PosMapHierarchy;
use crate::ring::{AccessKind, RingOram};
use crate::sink::{OramOp, StagedBatch, Stager};
use aboram_dram::{DramConfig, MemorySystem, RobCpu};
use aboram_stats::{HealthState, RecoveryStats};
use aboram_telemetry::Captured;
use aboram_trace::{MemOp, TraceRecord};
use std::sync::mpsc;

/// Trace records per batch the run-ahead engine stage hands the timing
/// stage. Two batches circulate, so the engine is at most two batches ahead.
const BATCH: usize = 32;

/// Bus-cycle attribution per protocol operation (Fig. 8c's stacked bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BreakdownReport {
    /// Data-bus cycles consumed by each [`OramOp`] (indexed by tag).
    pub bus_cycles: [u64; 5],
}

impl BreakdownReport {
    /// Total attributed bus cycles.
    pub fn total(&self) -> u64 {
        self.bus_cycles.iter().sum()
    }

    /// The fraction of traffic belonging to `op`.
    pub fn fraction(&self, op: OramOp) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.bus_cycles[op.tag() as usize] as f64 / t as f64
        }
    }
}

/// End-of-run results of one timing simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Trace records executed.
    pub records: u64,
    /// Instructions the trace represents (gaps plus memory ops).
    pub instructions: u64,
    /// Execution time in CPU cycles (all instructions retired).
    pub exec_cycles: u64,
    /// Per-operation bus attribution.
    pub breakdown: BreakdownReport,
    /// Total bytes moved on the memory bus.
    pub bytes_transferred: u64,
    /// DRAM row-buffer hit rate.
    pub row_hit_rate: f64,
    /// User ORAM accesses performed.
    pub user_accesses: u64,
    /// Background (dummy) accesses injected.
    pub background_accesses: u64,
    /// evictPath operations.
    pub evict_paths: u64,
    /// earlyReshuffle operations (all levels).
    pub early_reshuffles: u64,
    /// Peak stash occupancy.
    pub stash_peak: usize,
    /// Sum over timed records of each access's user-visible critical-path
    /// latency — online reads plus the decrypt/verify pipeline — in CPU
    /// cycles. [`exec_cycles`](Self::exec_cycles) tracks controller
    /// occupancy (maintenance traffic included); this tracks what the core
    /// actually waits on, which is where the channel-parallel issue mode's
    /// crypto/DRAM overlap shows up.
    pub online_latency_cycles: u64,
    /// Sum over timed records of each access's *response* latency — from
    /// the cycle the core issued the miss to the cycle its data exited the
    /// decrypt/verify pipeline — in CPU cycles. Unlike
    /// [`online_latency_cycles`](Self::online_latency_cycles) (which starts
    /// counting when the controller accepts the access) this includes the
    /// queueing delay behind earlier accesses, so it is the metric the
    /// access-pipelined mode improves: starting access *i+1* under access
    /// *i*'s writeback removes queueing the serial controller charges.
    pub response_latency_cycles: u64,
    /// Fault-recovery counters accumulated during the timed window (all
    /// zero unless fault injection was enabled).
    pub recovery: RecoveryStats,
    /// Engine health at the end of the run: `Degraded` when any fault
    /// exhausted the recovery ladder and a subtree was poisoned (integrity
    /// mode only; always `Healthy` otherwise).
    pub health: HealthState,
}

impl SimulationReport {
    /// Achieved bandwidth in bytes per CPU cycle.
    pub fn bandwidth(&self) -> f64 {
        if self.exec_cycles == 0 {
            0.0
        } else {
            self.bytes_transferred as f64 / self.exec_cycles as f64
        }
    }

    /// Instructions per cycle — the USIMM-style performance summary (tiny
    /// under ORAM, which is the point the paper's slowdown plots make).
    pub fn ipc(&self) -> f64 {
        if self.exec_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.exec_cycles as f64
        }
    }

    /// Mean user-visible access latency in CPU cycles (online reads plus
    /// crypto pipeline, averaged over the timed records).
    pub fn mean_online_latency(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.online_latency_cycles as f64 / self.records as f64
        }
    }

    /// Mean issue-to-data response latency in CPU cycles (controller
    /// queueing included, averaged over the timed records) — the
    /// batch-completion metric the access-pipelined mode moves.
    pub fn mean_response_latency(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.response_latency_cycles as f64 / self.records as f64
        }
    }
}

/// Drives an LLC-miss trace through a [`RingOram`] engine over the
/// cycle-level memory system.
///
/// # Example
///
/// ```
/// use aboram_core::{OramConfig, Scheme, TimingDriver};
/// use aboram_dram::DramConfig;
/// use aboram_trace::{TraceGenerator, profiles};
///
/// let cfg = OramConfig::builder(10, Scheme::Baseline).build().unwrap();
/// let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
/// let profile = &profiles::spec2017()[0];
/// let mut gen = TraceGenerator::new(profile, 1);
/// let report = driver.run((0..200).map(|_| gen.next_record())).unwrap();
/// assert!(report.exec_cycles > 0);
/// assert!(report.user_accesses == 200);
/// ```
#[derive(Debug)]
pub struct TimingDriver {
    engine: Engine,
    /// The ORAM controller: decides when each access issues and completes.
    ctl: AccessController,
    cpu: RobCpu,
}

/// The engine stage: the protocol and all it consults, writing to a
/// stager. Nothing here reads a cycle.
#[derive(Debug)]
struct Engine {
    oram: RingOram,
    /// Optional recursive position-map model (extension study; the paper
    /// keeps the posmap fully on-chip).
    posmap_model: Option<PosMapHierarchy>,
    /// The fault plan's injector over the stager: a fault poll is answered
    /// here, where the engine asks it.
    sink: FaultInjectingSink<Stager>,
}

/// Trace records on their way through the two stages, with the accesses the
/// engine staged for them. Batches are refilled, never reallocated, once
/// warm.
#[derive(Debug, Default)]
struct Batch {
    records: Vec<TraceRecord>,
    /// One committed access per record the engine completed.
    staged: StagedBatch,
    /// The engine error that ended the batch, at record `staged.len()`.
    error: Option<OramError>,
    /// With telemetry on the calling thread: the hooks the engine fired
    /// staging the batch, each record's beginning at its `record_mark`.
    hooks: Option<Captured>,
}

impl Batch {
    /// Empties the batch and refills it with up to `len` records; false
    /// when the trace had none left.
    fn refill(&mut self, trace: &mut impl Iterator<Item = TraceRecord>, len: usize) -> bool {
        self.staged.clear();
        self.records.clear();
        self.records.extend(trace.take(len));
        !self.records.is_empty()
    }
}

impl Engine {
    /// Runs `batch`'s accesses in trace order, staging each one and
    /// capturing its hooks into the batch's. An error ends the batch: the
    /// stager abandons the failing access at its boundary, so the timing
    /// stage never sees a partial access.
    fn stage(&mut self, batch: &mut Batch, block_count: u64) {
        let Batch { records, staged, error, hooks } = batch;
        std::mem::swap(self.sink.inner_mut().batch_mut(), staged);
        aboram_telemetry::capture(hooks.as_mut(), || {
            for rec in records.iter() {
                aboram_telemetry::record_mark();
                let result = self.access(rec, block_count);
                if let Err(e) = self.sink.inner_mut().end_access(result) {
                    *error = Some(e);
                    break;
                }
            }
        });
        std::mem::swap(self.sink.inner_mut().batch_mut(), staged);
    }

    /// One trace record's protocol work: every LLC miss (read or writeback)
    /// is one ORAM access.
    fn access(&mut self, rec: &TraceRecord, block_count: u64) -> Result<(), OramError> {
        let block = (rec.addr / 64) % block_count;
        let kind = match rec.op {
            MemOp::Read => AccessKind::Read,
            MemOp::Write => AccessKind::Write,
        };
        // Recursive position-map fetches (extension study) precede the data
        // access: each PLB miss is one more full access, timed with it and
        // released under the same start cycle (a serial release preserves
        // their parent→child program order).
        if let Some(model) = &mut self.posmap_model {
            for _ in 0..model.access(block) {
                self.oram.dummy_access(&mut self.sink)?;
            }
        }
        self.oram.access(kind, block, None, &mut self.sink)?;
        Ok(())
    }
}

/// What the timing stage sums over a run.
#[derive(Debug, Default)]
struct Totals {
    records: u64,
    instructions: u64,
    online_latency_cycles: u64,
    response_latency_cycles: u64,
}

/// The timing stage: takes each access `batch` staged through the core and
/// the controller's gates and release, and adds it to `totals`. Each
/// record's engine hooks are replayed just before it is timed, so the
/// collector sees one thread's order: record *i*'s engine hooks, then its
/// timing hooks, then record *i + 1*'s. A failed record's hooks come last.
fn time(ctl: &mut AccessController, cpu: &mut RobCpu, batch: &mut Batch, totals: &mut Totals) {
    for (rec, access) in batch.records.iter().zip(batch.staged.iter()) {
        if let Some(hooks) = &mut batch.hooks {
            hooks.replay_record();
        }
        let issue = cpu.issue_op(rec.inst_gap);
        let (start, done) = ctl.finish(issue, access);
        if rec.op == MemOp::Read {
            cpu.complete_read_at(done);
        }
        totals.records += 1;
        totals.instructions += u64::from(rec.inst_gap) + 1;
        totals.online_latency_cycles += done.saturating_sub(start);
        totals.response_latency_cycles += done.saturating_sub(issue);
    }
    if let Some(hooks) = &mut batch.hooks {
        hooks.replay();
    }
}

impl TimingDriver {
    /// Builds the driver with the Table III core model (fetch 4, ROB 256)
    /// and default crypto-engine latency.
    ///
    /// # Errors
    ///
    /// Propagates ORAM construction errors.
    pub fn new(cfg: &OramConfig, dram: DramConfig) -> Result<Self, OramError> {
        Ok(Self::from_oram(RingOram::new(cfg)?, dram))
    }

    /// Builds a driver around an existing (e.g. pre-warmed) engine — lets a
    /// parameter sweep warm the protocol state once and reuse it across
    /// timed runs.
    pub fn from_oram(oram: RingOram, dram: DramConfig) -> Self {
        let ctl = AccessController::new(MemorySystem::new(dram), oram.config().scheme.issue_mode());
        let engine =
            Engine { oram, posmap_model: None, sink: FaultInjectingSink::new(ctl.stager()) };
        TimingDriver { engine, ctl, cpu: RobCpu::new(4, 256) }
    }

    /// Sets the access-pipeline depth: the maximum number of concurrently
    /// in-flight accesses. Depth 1 (the default, and `0` clamps to it) is
    /// the classic serialized controller — a window of one, so an access
    /// starts only after the previous one drained in full. Depth > 1 lets
    /// access *i+1*'s read phase issue while access *i*'s eviction/writeback
    /// and decrypt/verify pipeline drain, bounded by true dependencies: the
    /// stash hand-off (an access starts no earlier than the previous
    /// access's last online DRAM reply), `(channel, bank, row)` footprint
    /// conflicts (same bucket/slot or posmap-ladder reuse forces the earlier
    /// access's reads of that row to complete), and the window itself. The
    /// request set and intra-access order of every access are the same at
    /// every depth — only the inter-access issue schedule shifts, which is
    /// already public — and changing the depth quiesces the window first
    /// (DESIGN.md §15).
    pub fn set_pipeline_depth(&mut self, depth: u8) {
        self.ctl.set_depth(depth);
        // The stager commits every access for the controller's issue mode
        // and depth.
        self.engine.sink.inner_mut().configure(self.ctl.issue_mode(), self.ctl.depth());
    }

    /// Activates chaos testing: installs `plan`'s channel-stall schedule
    /// into the memory system and arms the engine's fault injector, so the
    /// next [`run`](Self::run) executes under the plan's fault schedule. The
    /// resulting [`SimulationReport::recovery`] block quantifies the
    /// degraded-mode overhead.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        let channels = usize::from(self.ctl.memory().config().channels);
        for s in plan.stall_schedule(channels) {
            self.ctl.memory_mut().inject_channel_stall(s.channel, s.at, s.duration);
        }
        self.engine.sink.set_plan(Some(plan));
    }

    /// Faults the injector has introduced so far (zero without
    /// [`enable_faults`](Self::enable_faults)).
    pub fn injected_faults(&self) -> InjectedFaults {
        self.engine.sink.injected()
    }

    /// Arms integrity verification on the engine: per-bucket MAC tags are
    /// checked on every readPath / evictPath / earlyReshuffle fetch and
    /// folded into the stash-rooted per-level digest chain, and faulted
    /// transfers go through the full recovery ladder (redundant refetch,
    /// escalated eviction, graceful degradation) instead of aborting.
    /// Idempotent; a fault-free verified run is bit-identical to an
    /// unverified one.
    pub fn enable_integrity(&mut self) {
        self.engine.oram.enable_integrity();
    }

    /// Engine health: `Degraded` once any fault exhausts the recovery
    /// ladder under integrity verification, `Healthy` otherwise.
    pub fn health(&self) -> HealthState {
        self.engine.oram.health()
    }

    /// Enables the recursive position-map extension: PLB misses charge
    /// additional (dummy) ORAM accesses, quantifying the cost the paper's
    /// on-chip-posmap assumption hides.
    pub fn enable_posmap_recursion(&mut self, cfg: crate::recursion::PlbConfig) {
        let blocks = self.engine.oram.config().real_block_count();
        self.engine.posmap_model = Some(PosMapHierarchy::new(blocks, cfg));
    }

    /// The recursive position-map model, if enabled.
    pub fn posmap_model(&self) -> Option<&PosMapHierarchy> {
        self.engine.posmap_model.as_ref()
    }

    /// Access to the engine (stats inspection, warm-up by protocol access).
    pub fn oram_mut(&mut self) -> &mut RingOram {
        &mut self.engine.oram
    }

    /// The underlying memory system's statistics (final after
    /// [`run`](Self::run) returns; used e.g. by the energy model).
    pub fn memory_stats(&self) -> &aboram_dram::MemoryStats {
        self.ctl.memory().stats()
    }

    /// [`RingOram::warm_up`] under this driver's salt: no timed traffic.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors (stash overflow).
    pub fn warm_up(&mut self, accesses: u64) -> Result<(), OramError> {
        self.engine.oram.warm_up(accesses, 0x3aa3_5717)
    }

    /// The executor: the engine stage on a scoped worker thread, the timing
    /// stage and the trace here. Two batches circulate through two bounded
    /// channels, so the engine stages one batch while this thread times the
    /// other. With telemetry on here, each batch carries the hooks the
    /// engine fired back with it. An engine error ends its batch: the
    /// accesses before it are timed, then the error is returned.
    fn run_ahead(
        &mut self,
        trace: &mut impl Iterator<Item = TraceRecord>,
        block_count: u64,
    ) -> Result<Totals, OramError> {
        let TimingDriver { engine, ctl, cpu } = self;
        std::thread::scope(|s| {
            let (to_engine, engine_rx) = mpsc::sync_channel::<Batch>(2);
            let (to_timing, timing_rx) = mpsc::sync_channel::<Batch>(2);
            s.spawn(move || {
                for mut batch in engine_rx {
                    engine.stage(&mut batch, block_count);
                    let failed = batch.error.is_some();
                    if to_timing.send(batch).is_err() || failed {
                        break;
                    }
                }
            });
            // The staging buffers are allocated here, at a capacity that holds
            // a batch of the benchmark's accesses, so the worker seldom grows
            // one.
            let mut in_flight = 0;
            let traced = aboram_telemetry::enabled();
            for _ in 0..2 {
                let staged = StagedBatch::with_capacity(BATCH);
                let hooks = traced.then(Captured::default);
                let mut batch = Batch { staged, hooks, ..Batch::default() };
                if batch.refill(trace, BATCH) && to_engine.send(batch).is_ok() {
                    in_flight += 1;
                }
            }
            let mut totals = Totals::default();
            while in_flight > 0 {
                // Fails only if the worker panicked: the scope re-raises it.
                let Ok(mut batch) = timing_rx.recv() else { break };
                in_flight -= 1;
                time(ctl, cpu, &mut batch, &mut totals);
                if let Some(e) = batch.error.take() {
                    return Err(e);
                }
                if batch.refill(trace, BATCH) && to_engine.send(batch).is_ok() {
                    in_flight += 1;
                }
            }
            Ok(totals)
        })
    }

    /// Runs the trace to completion and reports results. The engine stage
    /// runs ahead of the timing stage on a second thread.
    ///
    /// # Errors
    ///
    /// Propagates ORAM protocol errors (overflow, integrity). The accesses
    /// before the failing one are timed; the failing one is not.
    pub fn run(
        &mut self,
        trace: impl IntoIterator<Item = TraceRecord>,
    ) -> Result<SimulationReport, OramError> {
        // Populated blocks, not tree capacity: identical for fixed-capacity
        // engines (fully materialized at construction), and the only valid
        // address range for a partially filled auto-scaling tree.
        let block_count = self.engine.oram.block_count();
        // Telemetry run header: the constant per-request bus occupancy (in
        // CPU cycles) lets the perf-report pipeline turn request counts into
        // exact bus-cycle attributions.
        {
            let dram_cfg = self.ctl.memory().config();
            let burst_cpu = dram_cfg.to_cpu_cycles(dram_cfg.timing.burst);
            let cfg = self.engine.oram.config();
            aboram_telemetry::begin_run(&cfg.scheme.to_string(), cfg.levels, burst_cpu);
        }
        // Bus cycles already attributed before this run (driver reuse): the
        // end-of-run telemetry summary reports the delta.
        let bus0: u64 = {
            let mem = self.ctl.memory().stats();
            OramOp::ALL.iter().map(|op| mem.bus_cycles_for_tag(op.tag())).sum()
        };
        // Per-channel/per-bank occupancy already accumulated before this run
        // (driver reuse): end-of-run histograms report the delta.
        let (ch_req0, ch_bus0, bank_req0) = {
            let mem = self.ctl.memory().stats();
            (
                mem.requests_by_channel().to_vec(),
                mem.bus_cycles_by_channel().to_vec(),
                mem.requests_by_bank().to_vec(),
            )
        };
        // Snapshot so the report covers the timed window only, not warm-up.
        let (users0, bg0, evicts0, resh0, recovery0) = {
            let s = self.engine.oram.stats();
            (
                s.user_accesses,
                s.background_accesses,
                s.evict_paths,
                s.reshuffles.total(),
                s.recovery,
            )
        };
        let mut trace = trace.into_iter().fuse();
        let totals = self.run_ahead(&mut trace, block_count)?;

        // The controller is free once every in-flight access's maintenance
        // traffic has been serviced.
        let exec_cycles = self.cpu.finish().max(self.ctl.quiesce());
        self.ctl.memory_mut().drain();
        let mem = self.ctl.memory().stats();
        let mut breakdown = BreakdownReport::default();
        for op in OramOp::ALL {
            breakdown.bus_cycles[op.tag() as usize] = mem.bus_cycles_for_tag(op.tag());
        }
        // Per-channel/per-bank occupancy for this run (delta against the
        // pre-run snapshot), surfaced as per-level histograms the perf
        // report renders directly. Levels are u8; bank ids past 255 (not
        // reachable with the twin's configurations) would saturate.
        let emit_delta = |name: &'static str, now: &[u64], before: &[u64]| {
            for (i, &v) in now.iter().enumerate() {
                let delta = v - before.get(i).copied().unwrap_or(0);
                if delta > 0 {
                    aboram_telemetry::observe_level(name, i.min(255) as u8, delta);
                }
            }
        };
        emit_delta("dram.channel_requests", mem.requests_by_channel(), &ch_req0);
        emit_delta("dram.channel_bus_cycles", mem.bus_cycles_by_channel(), &ch_bus0);
        emit_delta("dram.bank_requests", mem.requests_by_bank(), &bank_req0);
        aboram_telemetry::end_run(exec_cycles, breakdown.total() - bus0);
        let oram = &self.engine.oram;
        let s = oram.stats();
        Ok(SimulationReport {
            records: totals.records,
            instructions: totals.instructions,
            exec_cycles,
            breakdown,
            bytes_transferred: mem.bytes_transferred(),
            row_hit_rate: mem.row_hit_rate(),
            user_accesses: s.user_accesses - users0,
            background_accesses: s.background_accesses - bg0,
            evict_paths: s.evict_paths - evicts0,
            early_reshuffles: s.reshuffles.total() - resh0,
            stash_peak: oram.stash_peak(),
            online_latency_cycles: totals.online_latency_cycles,
            response_latency_cycles: totals.response_latency_cycles,
            recovery: s.recovery.since(&recovery0),
            health: oram.health(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use aboram_trace::{profiles, TraceGenerator};

    fn small_run(scheme: Scheme, n: usize) -> SimulationReport {
        let cfg = OramConfig::builder(10, scheme).seed(7).build().unwrap();
        let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
        let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
        let mut gen = TraceGenerator::new(&profile, 3);
        driver.run((0..n).map(|_| gen.next_record())).unwrap()
    }

    #[test]
    fn produces_nonzero_timing_and_traffic() {
        let r = small_run(Scheme::Baseline, 300);
        assert_eq!(r.records, 300);
        assert_eq!(r.user_accesses, 300);
        assert!(r.exec_cycles > 0);
        assert!(r.bytes_transferred > 0);
        assert!(r.evict_paths >= 300 / 5 - 1);
        assert!(r.breakdown.total() > 0);
        assert!(r.breakdown.fraction(OramOp::ReadPath) > 0.0);
        assert!(r.breakdown.fraction(OramOp::EvictPath) > 0.0);
        assert!(r.bandwidth() > 0.0);
    }

    #[test]
    fn oram_latency_dominates_plain_dram() {
        // An ORAM access takes thousands of cycles; 100 accesses must take
        // far longer than 100 plain DRAM reads would.
        let r = small_run(Scheme::Baseline, 100);
        assert!(r.exec_cycles > 100 * 200, "exec = {}", r.exec_cycles);
    }

    #[test]
    fn ab_scheme_runs_end_to_end() {
        let r = small_run(Scheme::Ab, 300);
        assert_eq!(r.user_accesses, 300);
        assert!(r.early_reshuffles > 0, "shrunken buckets must reshuffle");
    }

    #[test]
    fn channel_parallel_is_no_slower_and_work_identical_to_ab() {
        let ab = small_run(Scheme::Ab, 300);
        let cp = small_run(Scheme::AbChannelPar, 300);
        // Identical protocol work: same request set, only issue order and
        // crypto charging differ.
        assert_eq!(ab.user_accesses, cp.user_accesses);
        assert_eq!(ab.evict_paths, cp.evict_paths);
        assert_eq!(ab.early_reshuffles, cp.early_reshuffles);
        assert_eq!(ab.bytes_transferred, cp.bytes_transferred);
        assert_eq!(ab.stash_peak, cp.stash_peak);
        // The overlapped crypto drain can only remove exposed latency, and
        // with ~10 online reads per access completing at distinct cycles it
        // must actually remove some: the serialized pipeline tail the serial
        // mode charges after the last DRAM reply is hidden behind earlier
        // replies.
        assert!(cp.exec_cycles <= ab.exec_cycles, "cp {} > ab {}", cp.exec_cycles, ab.exec_cycles);
        assert!(
            cp.online_latency_cycles < ab.online_latency_cycles,
            "overlap saved nothing: cp {} vs ab {}",
            cp.online_latency_cycles,
            ab.online_latency_cycles
        );
    }

    fn small_run_depth(scheme: Scheme, n: usize, depth: u8) -> SimulationReport {
        let cfg = OramConfig::builder(10, scheme).seed(7).build().unwrap();
        let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
        driver.set_pipeline_depth(depth);
        let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
        let mut gen = TraceGenerator::new(&profile, 3);
        driver.run((0..n).map(|_| gen.next_record())).unwrap()
    }

    #[test]
    fn pipelined_run_is_work_identical_and_no_slower() {
        for scheme in [Scheme::Ab, Scheme::AbChannelPar] {
            let serial = small_run_depth(scheme, 300, 1);
            let deep = small_run_depth(scheme, 300, 4);
            // Timing never feeds back into the protocol: the request set and
            // every protocol counter are identical at any depth.
            assert_eq!(serial.user_accesses, deep.user_accesses, "{scheme:?}");
            assert_eq!(serial.evict_paths, deep.evict_paths, "{scheme:?}");
            assert_eq!(serial.early_reshuffles, deep.early_reshuffles, "{scheme:?}");
            assert_eq!(serial.bytes_transferred, deep.bytes_transferred, "{scheme:?}");
            assert_eq!(serial.stash_peak, deep.stash_peak, "{scheme:?}");
            // Overlapping access i+1's reads with access i's writeback drain
            // can only remove issue-to-data queueing delay, and with ~60
            // writebacks per evictPath it must remove a lot of it.
            assert!(
                deep.response_latency_cycles < serial.response_latency_cycles,
                "{scheme:?}: pipelining saved nothing: depth4 {} vs depth1 {}",
                deep.response_latency_cycles,
                serial.response_latency_cycles
            );
            assert!(
                deep.exec_cycles <= serial.exec_cycles,
                "{scheme:?}: depth4 {} > depth1 {}",
                deep.exec_cycles,
                serial.exec_cycles
            );
        }
    }

    #[test]
    fn depth_one_is_bitexact_with_default_and_depth_zero_clamps() {
        let default = small_run(Scheme::Ab, 200);
        let explicit = small_run_depth(Scheme::Ab, 200, 1);
        let clamped = small_run_depth(Scheme::Ab, 200, 0);
        assert_eq!(default, explicit);
        assert_eq!(default, clamped);
    }

    #[test]
    fn dram_request_state_is_bounded_by_the_window_not_the_run() {
        let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
        for (scheme, depth) in [
            (Scheme::Ab, 1u8),
            (Scheme::AbChannelPar, 1),
            (Scheme::Ab, 4),
            (Scheme::AbChannelPar, 4),
        ] {
            let cfg = OramConfig::builder(10, scheme).seed(11).build().unwrap();
            let mut d = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
            d.set_pipeline_depth(depth);
            let mut gen = TraceGenerator::new(&profile, 5);
            let blocks = d.engine.oram.block_count();
            let (mut batch, mut totals) = (Batch::default(), Totals::default());
            let mut largest = 0u64;
            for i in 0..5_000 {
                let before = d.ctl.requests_issued();
                // One record through both stages, so the twin is observed
                // between records.
                batch.refill(&mut std::iter::once(gen.next_record()), 1);
                d.engine.stage(&mut batch, blocks);
                time(&mut d.ctl, &mut d.cpu, &mut batch, &mut totals);
                assert!(batch.error.is_none());
                largest = largest.max(d.ctl.requests_issued() - before);
                let tracked = d.ctl.memory().tracked_requests() as u64;
                assert!(
                    tracked <= u64::from(depth) * largest,
                    "{scheme:?} depth {depth} record {i}: {tracked} live slots, largest access {largest}"
                );
            }

            // `run` ends quiesced: no slot survives it, after 100 records or
            // after 10× the traffic.
            for records in [100, 1_000] {
                d.run((0..records).map(|_| gen.next_record())).unwrap();
                assert_eq!(d.ctl.memory().tracked_requests(), 0, "{scheme:?} depth {depth}");
            }
        }
    }

    #[test]
    fn an_access_the_engine_fails_reaches_no_release() {
        // Every other data fetch flips and no verifier is armed: a run ends
        // with `RetriesExhausted` part-way through an access.
        let flips = crate::fault::FaultConfig {
            data_bit_flip: 0.5,
            metadata_corruption: 0.0,
            dropped_write: 0.0,
            stall_events: 0,
            ..Default::default()
        };
        let plan = || FaultPlan::with_config(23, flips);
        let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
        let records: Vec<_> = {
            let mut gen = TraceGenerator::new(&profile, 3);
            (0..400).map(|_| gen.next_record()).collect()
        };
        for (depth, traced) in [(1u8, false), (1, true), (4, false), (4, true)] {
            let cfg = OramConfig::builder(10, Scheme::Ab).seed(7).build().unwrap();
            let mut d = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
            d.set_pipeline_depth(depth);
            d.enable_faults(plan());
            let blocks = d.engine.oram.block_count();
            // The same engine and poll stream over a counting sink.
            let mut reference = d.engine.oram.clone();
            let mut counted = FaultInjectingSink::with_plan(crate::CountingSink::new(), plan());
            let mut emit = |rec: &TraceRecord| {
                let before = counted.inner().grand_total();
                let kind = if rec.op == MemOp::Read { AccessKind::Read } else { AccessKind::Write };
                let result = reference.access(kind, (rec.addr / 64) % blocks, None, &mut counted);
                (result.is_ok(), counted.inner().grand_total() - before)
            };
            let mut earlier = 0;
            let failing = records.iter().position(|rec| match emit(rec) {
                (true, n) => {
                    earlier += n;
                    false
                }
                (false, partial) => {
                    assert!(partial > 0, "the access fails after emitting requests");
                    true
                }
            });
            let failing = failing.expect("the plan exhausts a retry");
            assert!(failing > BATCH, "the failure is past the first batch");

            let (collector, trace) = aboram_telemetry::Collector::to_shared_buffer();
            if traced {
                aboram_telemetry::install(collector);
            }
            assert!(d.run(records.iter().copied()).is_err());
            assert_eq!(d.ctl.requests_issued(), earlier, "the twin saw the earlier accesses only");
            d.ctl.quiesce();
            assert!(d.ctl.is_idle(), "depth {depth}: the controller is at rest");
            let stager = d.engine.sink.inner();
            assert!(stager.is_idle(), "depth {depth}: nothing of the failed access is staged");
            let next = records[failing + 1];
            let issued = d.ctl.requests_issued();
            d.run([next]).expect("the next access completes");
            let (ok, own) = emit(&next);
            assert!(ok);
            assert_eq!(d.ctl.requests_issued() - issued, own, "it releases only its own requests");
            if traced {
                aboram_telemetry::uninstall();
                assert!(trace.contents().contains("retries_exhausted"), "the ring was dumped");
            }
        }
    }
}

#[cfg(test)]
mod recursion_tests {
    use super::*;
    use crate::config::Scheme;
    use crate::recursion::PlbConfig;
    use aboram_trace::{profiles, TraceGenerator};

    #[test]
    fn posmap_recursion_adds_accesses_and_time() {
        let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
        // A small on-chip budget forces recursion even at test scale.
        let tiny = PlbConfig { plb_bytes: 1024, onchip_posmap_bytes: 1024, entry_bytes: 4 };
        let cfg = OramConfig::builder(10, Scheme::Baseline).seed(7).build().unwrap();

        let mut plain = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
        let mut gen = TraceGenerator::new(&profile, 3);
        let r_plain = plain.run((0..200).map(|_| gen.next_record())).unwrap();

        let mut recursive = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
        recursive.enable_posmap_recursion(tiny);
        let mut gen = TraceGenerator::new(&profile, 3);
        let r_rec = recursive.run((0..200).map(|_| gen.next_record())).unwrap();

        assert!(r_rec.user_accesses > r_plain.user_accesses, "posmap fetches add accesses");
        assert!(r_rec.exec_cycles > r_plain.exec_cycles, "and they cost time");
        assert!(recursive.posmap_model().unwrap().total_misses() > 0);
    }
}
