//! `trace_mcf_serial` and `trace_lbm_pipe`: `TimingDriver::run`.
//!
//! `trace_mcf_serial` is the paper's Fig. 8 configuration (AB, serialized
//! controller, a read-dominated pointer chase that keeps the ROB-256 core
//! blocked, so the controller runs back to back): the engine is about half
//! the host time and `core::{sink, driver}` plus `dram` do the rest.
//! `trace_lbm_pipe` drives the same layers the other way — channel-parallel
//! staged issue, a depth-4 in-flight window, crypto carried across accesses,
//! non-blocking writes — so a gain for one issue path that costs the other
//! shows as a split between the two rows.

use super::{
    gate_engine, micro, repeated_setup, report_host_rate, report_ring_counters, warmed_engine,
    Mode, Outcome, Pace, Plan,
};
use crate::ladder::Ladder;
use crate::recsink::RecordingSink;
use crate::spans::{SpanId, Tracer, ROOT};
use aboram_core::{
    AccessKind, CountingSink, HealthState, OramError, OramOp, RingOram, Scheme, SimulationReport,
    TimingDriver,
};
use aboram_dram::{DramConfig, MemorySystem, Priority};
use aboram_trace::{MemOp, TraceGenerator, TraceRecord};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Which of the driver's two latency sums a workload reports as
/// `sim_lat_*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Latency {
    /// Core issue → data out of the crypto pipeline, queueing included.
    Response,
    /// Controller accept → data out of the crypto pipeline.
    Online,
}

/// One trace-driven workload.
#[derive(Debug)]
pub struct TraceWorkload {
    profile: &'static str,
    scheme: Scheme,
    pipeline_depth: u8,
    latency: Latency,
}

pub const MCF_SERIAL: TraceWorkload = TraceWorkload {
    profile: "mcf",
    scheme: Scheme::Ab,
    pipeline_depth: 1,
    latency: Latency::Response,
};
/// lbm's writes are posted: the core runs ahead of the controller and only
/// its one read per ~1 500 records waits for the backlog, so issue-to-data
/// latency measures how the reads happen to be spaced (±8 % between seeds),
/// not the program. Accept-to-data latency is well-conditioned, and it is
/// what the burst model and the issue mode move.
pub const LBM_PIPE: TraceWorkload = TraceWorkload {
    profile: "lbm",
    scheme: Scheme::AbChannelPar,
    pipeline_depth: 4,
    latency: Latency::Online,
};

/// Records of the AB-vs-Baseline execution-time comparison (Fig. 8's ~1.04).
const NORM_RECORDS: u64 = 50_000;
/// The paper's AB execution time normalized to Baseline.
const PAPER_TIME_NORM: f64 = 1.04;
/// Chunks recorded between two replays, bounding the recorded stream.
const REPLAY_CHUNKS: u64 = 4;

impl TraceWorkload {
    fn generator(&self, seed: u64) -> TraceGenerator {
        TraceGenerator::new(&micro::profile(self.profile), seed)
    }

    fn driver(&self, oram: RingOram) -> TimingDriver {
        let mut driver = TimingDriver::from_oram(oram, DramConfig::default());
        driver.set_pipeline_depth(self.pipeline_depth);
        driver
    }
}

/// The driver's mapping of a trace record onto an engine access.
fn engine_access(rec: &TraceRecord, blocks: u64) -> (AccessKind, u64) {
    let kind = match rec.op {
        MemOp::Read => AccessKind::Read,
        MemOp::Write => AccessKind::Write,
    };
    (kind, (rec.addr / 64) % blocks)
}

/// Feeds `ops` generated records to `TimingDriver::run` and watches it
/// from outside: the driver asks for record *i + 1* when it is done with
/// record *i*, so the gap between two `next` calls is the host time of one
/// record and the time inside `next` is the generator's.
struct Feed<'a, const TRACE: bool> {
    gen: TraceGenerator,
    ops: u64,
    fed: u64,
    pace: Pace,
    reads: u64,
    tracer: &'a mut Tracer,
    parent: SpanId,
    handed_over_ns: u64,
}

impl<'a, const TRACE: bool> Feed<'a, TRACE> {
    /// Builds the feed and starts its clock: run it at once.
    fn new(
        gen: TraceGenerator,
        ops: u64,
        chunk: u64,
        tracer: &'a mut Tracer,
        parent: SpanId,
    ) -> Self {
        let pace = Pace::start(ops, chunk);
        Feed { gen, ops, fed: 0, pace, reads: 0, tracer, parent, handed_over_ns: 0 }
    }

    /// Runs the driver over the feed; the last chunk ends after the driver's
    /// end-of-run drain.
    fn run(&mut self, driver: &mut TimingDriver) -> Result<SimulationReport, OramError> {
        let report = driver.run(self.by_ref());
        self.pace.finish();
        report
    }
}

impl<const TRACE: bool> Iterator for Feed<'_, TRACE> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let i = self.fed;
        let asked_ns = if TRACE { self.tracer.now() } else { 0 };
        if TRACE && i > 0 {
            self.tracer.record_op("driver.run", self.parent, i - 1, self.handed_over_ns, asked_ns);
        }
        if i == self.ops {
            return None;
        }
        // Asking for record `i` means records `0..i` are done.
        if i > 0 {
            self.pace.tick(i);
        }
        self.fed += 1;
        let rec = self.gen.next_record();
        self.reads += u64::from(rec.op == MemOp::Read);
        if TRACE {
            self.handed_over_ns = self.tracer.now();
            self.tracer.record_op(
                "trace.next_record",
                self.parent,
                i,
                asked_ns,
                self.handed_over_ns,
            );
        }
        Some(rec)
    }
}

pub fn run(w: &TraceWorkload, plan: Plan, tracer: &mut Tracer) -> Result<Outcome, OramError> {
    let mut out = Outcome { attempted: plan.ops, ..Outcome::default() };
    let setup_span = tracer.open("setup", ROOT);
    let (oram, setup_s) = repeated_setup(plan.setups(5), || warmed_engine(w.scheme, plan.seed))?;
    tracer.close(setup_span);
    out.values.set("setup_s", setup_s);
    let warmed = (plan.mode == Mode::Traced).then(|| oram.clone());
    let mut driver = w.driver(oram);

    let before = driver.oram_mut().stats().clone();
    let window_span = tracer.open("window", ROOT);
    let mut feed =
        Feed::<false>::new(w.generator(plan.seed), plan.ops, plan.chunk(), tracer, window_span);
    let report = feed.run(&mut driver);
    let Feed { pace, reads, .. } = feed;
    tracer.close(window_span);
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            out.failed = plan.ops;
            out.violations.push(format!("TimingDriver::run aborted: {e}"));
            return Ok(out);
        }
    };
    report_host_rate(&mut out, &pace, &plan);
    gate_engine(&mut out, &before, driver.oram_mut(), plan.ops);
    out.gate(report.records == plan.ops && report.user_accesses == plan.ops, || {
        format!("driver reports {} records, {} accesses", report.records, report.user_accesses)
    });
    out.gate(report.health == HealthState::Healthy, || format!("engine is {:?}", report.health));

    let per_op = |count: u64| count as f64 / plan.ops as f64;
    let mean_latency = match w.latency {
        Latency::Response => report.mean_response_latency(),
        Latency::Online => report.mean_online_latency(),
    };
    let v = &mut out.values;
    v.set("sim_cycles_per_op", per_op(report.exec_cycles));
    // The driver exposes latency sums, not samples: the percentile rows
    // repeat the mean on the trace workloads.
    v.set("sim_lat_mean_cycles", mean_latency);
    v.set("sim_lat_p50_cycles", mean_latency);
    v.set("sim_lat_p99_cycles", mean_latency);
    v.set("trace.read_share", per_op(reads));

    v.set("driver.sim_online_lat_mean_cycles", report.mean_online_latency());
    v.set("driver.sim_ipc", report.ipc());
    v.set("driver.sim_bytes_per_op", per_op(report.bytes_transferred));
    let share = |op| report.breakdown.fraction(op);
    v.set("driver.bus_share_readpath", share(OramOp::ReadPath));
    v.set("driver.bus_share_evictpath", share(OramOp::EvictPath));
    v.set("driver.bus_share_reshuffle", share(OramOp::EarlyReshuffle));
    v.set("driver.bus_share_metadata", share(OramOp::Metadata));
    v.set("driver.bus_share_background", share(OramOp::BackgroundEvict));

    let mem = driver.memory_stats();
    let requests = mem.total_requests();
    let online = mem.by_priority(Priority::Online);
    v.set("ring.transfers_per_op", per_op(requests));
    v.set("ring.online_transfers_per_op", per_op(online));
    v.set("dram.requests_per_op", per_op(requests));
    v.set("dram.sim_cycles_per_request", report.exec_cycles as f64 / requests as f64);
    v.set("dram.row_hit_rate", mem.row_hit_rate());
    v.set("dram.online_share", online as f64 / requests as f64);
    let by_channel = mem.requests_by_channel();
    let busiest = by_channel.iter().copied().max().unwrap_or(0) as f64;
    v.set("dram.channel_imbalance", busiest * by_channel.len() as f64 / requests as f64);
    v.set("dram.stall_cycles", mem.stall_cycles() as f64);
    report_ring_counters(&mut out, &before, driver.oram_mut(), plan.ops);

    if let Some(warmed) = warmed {
        drop(driver);
        ladder(w, &mut out, &warmed, plan, pace.best_ns_per_op(), tracer)?;
    }
    Ok(out)
}

/// Rungs: `TraceGenerator::next_record` alone → `RingOram::access` over a
/// `CountingSink` on the same block sequence → the same over the recording
/// sink, whose stream is replayed into a bare `MemorySystem` → the full
/// `TimingDriver::run`; then the traced pass and the Baseline comparison.
/// Each rung is timed by its fastest chunk, like the window.
fn ladder(
    w: &TraceWorkload,
    out: &mut Outcome,
    warmed: &RingOram,
    plan: Plan,
    window_ns: f64,
    tracer: &mut Tracer,
) -> Result<(), OramError> {
    let (ops, chunk) = (plan.prefix(), plan.chunk());
    let blocks = warmed.block_count();
    let mut ladder = Ladder::default();

    let span = tracer.open("rung.trace", ROOT);
    let mut gen = w.generator(plan.seed);
    let mut pace = Pace::start(ops, chunk);
    for i in 0..ops {
        black_box(gen.next_record());
        pace.tick(i + 1);
    }
    tracer.close(span);
    ladder.rung("trace", pace.best_ns_per_op());

    let mut engine = warmed.clone();
    let span = tracer.open("rung.ring", ROOT);
    let mut gen = w.generator(plan.seed);
    let mut counting = CountingSink::new();
    let mut pace = Pace::start(ops, chunk);
    for i in 0..ops {
        let (kind, block) = engine_access(&gen.next_record(), blocks);
        engine.access(kind, block, None, &mut counting)?;
        pace.tick(i + 1);
    }
    tracer.close(span);
    ladder.rung("ring", pace.best_ns_per_op());

    let mut engine = warmed.clone();
    let span = tracer.open("rung.dram", ROOT);
    let mut gen = w.generator(plan.seed);
    let mut recording = RecordingSink::new();
    let mut mem = MemorySystem::new(DramConfig::default());
    let (mut now, mut recorded, mut replayed) = (0u64, 0u64, 0u64);
    let mut best_replay = Duration::MAX;
    let mut completions: Vec<Vec<u64>> = Vec::new();
    let batch = REPLAY_CHUNKS * chunk;
    for first in (0..ops).step_by(batch as usize) {
        recording.clear();
        for _ in 0..batch {
            let (kind, block) = engine_access(&gen.next_record(), blocks);
            engine.access(kind, block, None, &mut recording)?;
            recording.end_access();
        }
        if first == 0 {
            // Completion vectors for the crypto-burst probe, from a scratch
            // replay so collecting them stays out of the timed one.
            let mut scratch = MemorySystem::new(DramConfig::default());
            let mut online_ids = Vec::new();
            recording.replay(&mut scratch, &mut 0, Some(&mut online_ids));
            completions = online_ids
                .iter()
                .map(|ids| ids.iter().map(|&id| scratch.completion_time(id)).collect())
                .collect();
        }
        recorded += recording.requests();
        let started = Instant::now();
        replayed += recording.replay(&mut mem, &mut now, None);
        best_replay = best_replay.min(started.elapsed());
    }
    tracer.close(span);
    out.gate(recorded == counting.grand_total() && replayed == recorded, || {
        format!(
            "the engine emitted {} requests, {recorded} were recorded, {replayed} replayed",
            counting.grand_total()
        )
    });
    let replay_ns_per_op = best_replay.as_secs_f64() * 1e9 / batch as f64;
    ladder.stack("dram", replay_ns_per_op);

    let mut driver = w.driver(warmed.clone());
    let span = tracer.open("rung.driver", ROOT);
    let mut feed = Feed::<false>::new(w.generator(plan.seed), ops, chunk, tracer, span);
    feed.run(&mut driver)?;
    let untraced = feed.pace;
    tracer.close(span);
    ladder.rung("driver", untraced.best_ns_per_op());

    let mut driver = w.driver(warmed.clone());
    let span = tracer.open("traced.driver", ROOT);
    let mut feed = Feed::<true>::new(w.generator(plan.seed), ops, chunk, tracer, span);
    feed.run(&mut driver)?;
    let traced = feed.pace;
    tracer.close(span);
    drop(driver);

    let v = &mut out.values;
    v.set("trace.host_ns_per_record", ladder.self_ns("trace"));
    v.set("ring.host_ns_per_op", ladder.self_ns("ring"));
    v.set("dram.host_ns_per_request", replay_ns_per_op * ops as f64 / replayed as f64);
    v.set("driver.host_self_ns_per_op", ladder.self_ns("driver"));
    v.set("crypto.host_ns_per_burst", micro::burst_ns(&completions));

    // Fig. 8's execution-time comparison on this workload's own settings.
    let span = tracer.open("norm_vs_baseline", ROOT);
    let records = NORM_RECORDS.min(plan.ops);
    let exec_cycles = |oram: RingOram| -> Result<u64, OramError> {
        let mut gen = w.generator(plan.seed);
        Ok(w.driver(oram).run((0..records).map(|_| gen.next_record()))?.exec_cycles)
    };
    let ab = exec_cycles(warmed.clone())?;
    let baseline = exec_cycles(warmed_engine(Scheme::Baseline, plan.seed)?.0)?;
    tracer.close(span);
    let norm = ab as f64 / baseline as f64;
    out.values.set("driver.sim_time_norm_vs_baseline", norm);
    out.notes.push(format!(
        "driver.sim_time_norm_vs_baseline: {norm:.4} over the first {records} records \
         (paper Fig. 8: ~{PAPER_TIME_NORM} for AB on a serialized controller)"
    ));

    micro::report_common(out, plan.seed, Some(micro::OwnGenerator::TraceRecords), tracer);
    micro::report_bench(out, &ladder, window_ns, &untraced, &traced);
    Ok(())
}
