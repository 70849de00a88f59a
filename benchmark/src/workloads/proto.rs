//! `proto_uniform`: the engine alone.
//!
//! `RingOram::access(Read, uniform block)` on `Scheme::Ab` over a
//! `CountingSink`, closed loop, one caller. The engine (`tree` plus
//! `core::{ring, metadata, stash, deadq}`) does all of the host work; the
//! DRAM twin, the crypto model and the service are bypassed, so a change to
//! any of those must show nothing here. This is also the loop every warm-up
//! and the protocol-level figure bins run.

use super::{
    gate_engine, micro, repeated_setup, report_host_rate, report_ring_counters, warmed_engine,
    Mode, Outcome, Pace, Plan,
};
use crate::ladder::Ladder;
use crate::spans::{SpanId, Tracer, ROOT};
use crate::stats;
use aboram_core::{
    AccessKind, CountingSink, OramError, RingOram, Scheme, UNTIMED_CYCLES_PER_TRANSFER,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// What one pass over the engine measured.
struct Window {
    pace: Pace,
    failed: u64,
    sink: CountingSink,
    /// `latency[t]` accesses whose closed-loop response took `t` transfers.
    latency: Vec<u64>,
}

fn blocks_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x5052_4F54_4F00_0001)
}

/// Drives `ops` uniform reads. With `TRACE`, every access is a span under
/// `parent`.
fn drive<const TRACE: bool>(
    oram: &mut RingOram,
    seed: u64,
    ops: u64,
    chunk: u64,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Window {
    let mut rng = blocks_rng(seed);
    let blocks = oram.block_count();
    let mut sink = CountingSink::new();
    let mut latency: Vec<u64> = Vec::new();
    let mut failed = 0;
    // The untimed cost model: the caller issues when the previous reply
    // returns, and the access starts once the controller has drained the
    // previous access's offline transfers. Response = that wait + this
    // access's online transfers.
    let (mut online_seen, mut total_seen, mut offline_before) = (0u64, 0u64, 0u64);
    let mut pace = Pace::start(ops, chunk);
    for i in 0..ops {
        let block = rng.gen_range(0..blocks);
        let started = if TRACE { tracer.now() } else { 0 };
        let reply = oram.access(AccessKind::Read, black_box(block), None, &mut sink);
        if TRACE {
            let ended = tracer.now();
            tracer.record_op("ring.access", parent, i, started, ended);
        }
        failed += u64::from(black_box(reply).is_err());
        let (online, total) = (sink.online_total(), sink.grand_total());
        let response = (offline_before + (online - online_seen)) as usize;
        if latency.len() <= response {
            latency.resize(response + 1, 0);
        }
        latency[response] += 1;
        offline_before = (total - total_seen) - (online - online_seen);
        (online_seen, total_seen) = (online, total);
        pace.tick(i + 1);
    }
    Window { pace, failed, sink, latency }
}

pub fn run(plan: Plan, tracer: &mut Tracer) -> Result<Outcome, OramError> {
    let mut out = Outcome { attempted: plan.ops, ..Outcome::default() };
    let setup_span = tracer.open("setup", ROOT);
    let (mut oram, setup_s) =
        repeated_setup(plan.setups(5), || warmed_engine(Scheme::Ab, plan.seed))?;
    tracer.close(setup_span);
    out.values.set("setup_s", setup_s);
    let warmed = (plan.mode == Mode::Traced).then(|| oram.clone());

    let before = oram.stats().clone();
    let window_span = tracer.open("window", ROOT);
    let w = drive::<false>(&mut oram, plan.seed, plan.ops, plan.chunk(), tracer, window_span);
    tracer.close(window_span);
    report_host_rate(&mut out, &w.pace, &plan);
    out.failed = w.failed;
    gate_engine(&mut out, &before, &oram, plan.ops);

    let per_op = |count: u64| count as f64 / plan.ops as f64;
    let cycles = UNTIMED_CYCLES_PER_TRANSFER as f64;
    let v = &mut out.values;
    v.set("sim_cycles_per_op", cycles * per_op(w.sink.grand_total()));
    let responses: u64 = w.latency.iter().enumerate().map(|(t, &n)| t as u64 * n).sum();
    v.set("sim_lat_mean_cycles", cycles * per_op(responses));
    v.set("sim_lat_p50_cycles", cycles * stats::histogram_percentile(&w.latency, 50.0) as f64);
    let tail = stats::supported_percentile(plan.ops as usize, 99.0);
    v.set("sim_lat_p99_cycles", cycles * stats::histogram_percentile(&w.latency, tail) as f64);
    out.notes.push(format!(
        "sim_lat_*: untimed cost model ({UNTIMED_CYCLES_PER_TRANSFER} cycles per transfer), \
         {} samples, tail reported at p{tail}",
        plan.ops
    ));
    v.set("ring.transfers_per_op", per_op(w.sink.grand_total()));
    v.set("ring.online_transfers_per_op", per_op(w.sink.online_total()));
    v.set("trace.read_share", 1.0);
    report_ring_counters(&mut out, &before, &oram, plan.ops);

    if let Some(warmed) = warmed {
        drop(oram);
        ladder(&mut out, &warmed, plan, w.pace.best_ns_per_op(), tracer);
    }
    Ok(out)
}

/// Rungs: uniform block draws alone → the engine over a `CountingSink`;
/// then the traced pass. All on the input's prefix, each from a clone of the
/// warmed engine, each timed by its fastest chunk like the window.
fn ladder(out: &mut Outcome, warmed: &RingOram, plan: Plan, window_ns: f64, tracer: &mut Tracer) {
    let (ops, chunk) = (plan.prefix(), plan.chunk());
    let mut ladder = Ladder::default();

    let span = tracer.open("rung.gen", ROOT);
    let mut rng = blocks_rng(plan.seed);
    let blocks = warmed.block_count();
    let mut pace = Pace::start(ops, chunk);
    for i in 0..ops {
        black_box(rng.gen_range(0..blocks));
        pace.tick(i + 1);
    }
    tracer.close(span);
    ladder.rung("gen", pace.best_ns_per_op());

    let mut engine = warmed.clone();
    let span = tracer.open("rung.ring", ROOT);
    let untraced = drive::<false>(&mut engine, plan.seed, ops, chunk, tracer, span).pace;
    tracer.close(span);
    ladder.rung("ring", untraced.best_ns_per_op());

    let mut engine = warmed.clone();
    let span = tracer.open("traced.ring", ROOT);
    let traced = drive::<true>(&mut engine, plan.seed, ops, chunk, tracer, span).pace;
    tracer.close(span);

    out.values.set("ring.host_ns_per_op", ladder.self_ns("ring"));
    micro::report_common(out, plan.seed, None, tracer);
    micro::report_bench(out, &ladder, window_ns, &untraced, &traced);
}
