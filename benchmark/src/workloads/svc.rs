//! `svc_zipf_dram`: the key-value service under an open-loop load.
//!
//! `BatchingFrontEnd` over an `ObliviousStore` on the DRAM twin, Zipf(0.99)
//! keys, 90 % get / 10 % put. Clients are independent, so arrivals follow a
//! schedule — one every [`ARRIVAL_GAP`] simulated cycles, 75 % of the batch
//! slots — and never wait for replies. This is the only workload where
//! `service::{batch, store, posmap}`, `core::backend::TimedBackend`, the
//! data path and `BlockCipher` run: a depth-4 recursion ladder makes every
//! slot five tree accesses. The period is chosen so batch service is about
//! half of it: latency is sensitive to the backend, yet no backlog forms.

use super::{
    gate_engine, micro, repeated_setup, report_host_rate, report_ring_counters, setup_pieces, Mode,
    Outcome, Pace, Plan, LEVELS,
};
use crate::ladder::Ladder;
use crate::shadow::{value_of, ShadowMap};
use crate::spans::{SpanId, Tracer, ROOT};
use crate::stats;
use aboram_core::{OramConfig, OramError, Scheme, StorageBackend, TimedBackend, UntimedBackend};
use aboram_dram::DramConfig;
use aboram_service::{
    percentile, BackendKind, BatchConfig, BatchingFrontEnd, ObliviousStore, RecursionConfig,
    RecursivePosMap, Request, StoreConfig,
};
use aboram_trace::{KeyDist, KeySampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Keys pre-loaded before the schedule goes live.
const KEYS: u32 = 16_384;
/// Simulated cycles between two arrivals: six per period.
const ARRIVAL_GAP: u64 = 4_000;
const PUT_SHARE: f64 = 0.1;
const PIPELINE_DEPTH: u8 = 4;
const BATCH: BatchConfig =
    BatchConfig { batch_size: 8, period: 24_000, queue_capacity: 256, pipelined: false };

fn store_config(backend: BackendKind) -> StoreConfig {
    StoreConfig { backend, pipeline_depth: PIPELINE_DEPTH, ..StoreConfig::new(LEVELS, Scheme::Ab) }
}

fn timed() -> BackendKind {
    BackendKind::Timed(DramConfig::default())
}

fn key_of(rank: u32) -> Vec<u8> {
    format!("key{rank:08}").into_bytes()
}

/// A store holding every key at version 0, and its set-up time by piece.
fn loaded_store(backend: BackendKind) -> Result<(ObliviousStore, Vec<Duration>), OramError> {
    let started = Instant::now();
    let mut store = ObliviousStore::new(&store_config(backend))?;
    let construction = started.elapsed();
    let mut pace = Pace::start(u64::from(KEYS), u64::from(KEYS) / 256);
    for rank in 0..KEYS {
        let value = value_of(rank, 0).to_vec();
        store.rmw_at(store.now(), &key_of(rank), &mut |_| Some(value.clone()))?;
        pace.tick(u64::from(rank) + 1);
    }
    Ok((store, setup_pieces(construction, &pace)))
}

/// A loaded store behind the batching front-end, its schedule live.
fn loaded_front_end(backend: BackendKind) -> Result<(BatchingFrontEnd, Vec<Duration>), OramError> {
    let (store, pieces) = loaded_store(backend)?;
    let now = store.now();
    let mut fe = BatchingFrontEnd::new(store, BATCH);
    fe.activate_at(now);
    Ok((fe, pieces))
}

/// The generated input: which key each request touches and whether it
/// writes.
struct Requests {
    sampler: KeySampler,
    rng: StdRng,
}

impl Requests {
    fn new(seed: u64) -> Self {
        Requests {
            sampler: KeySampler::new(KeyDist::Zipf { s: 0.99 }, u64::from(KEYS)),
            rng: StdRng::seed_from_u64(seed ^ 0x5356_435A_4950_4601),
        }
    }

    fn next(&mut self) -> (u32, bool) {
        let rank = self.sampler.draw(&mut self.rng) as u32;
        (rank, self.rng.gen_bool(PUT_SHARE))
    }
}

fn build_request(rank: u32, put_value: Option<Vec<u8>>) -> Request {
    match put_value {
        Some(value) => Request::Put { key: key_of(rank), value },
        None => Request::Get { key: key_of(rank) },
    }
}

/// What one pass over the front-end measured.
struct Window {
    pace: Pace,
    /// `Completion::latency()` of every completed request.
    latencies: Vec<u64>,
    /// Σ (batch launch − arrival) over completed requests.
    queue_wait: u64,
    /// Σ (batch end − batch launch) over launched batches.
    service: u64,
    batches: u64,
    puts: u64,
    rejected: u64,
    mismatched: u64,
    outstanding: u64,
}

/// Launches the next scheduled batch and checks what it completed.
fn launch<const TRACE: bool>(
    fe: &mut BatchingFrontEnd,
    shadow: &mut ShadowMap,
    w: &mut Window,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<(), OramError> {
    let at = fe.next_launch();
    let started = if TRACE { tracer.now() } else { 0 };
    let completions = fe.advance_to(at)?;
    if TRACE {
        let ended = tracer.now();
        tracer.record_op("batch.advance_to", parent, w.batches, started, ended);
    }
    // Without per-slot stamping every request completes at the batch's end;
    // an all-dummy batch ends at the store's latest completion.
    let end = completions.first().map_or(fe.store().now().max(at), |c| c.done);
    w.service += end - at;
    w.batches += 1;
    for c in &completions {
        w.latencies.push(c.latency());
        w.queue_wait += at - c.arrived;
        w.mismatched += u64::from(!shadow.check(c.id, c.value.as_deref()));
    }
    Ok(())
}

/// Offers `ops` requests on the arrival schedule, launching every batch
/// when it falls due, then drains the queue. With `TRACE`, every public
/// call is a span under `parent`.
fn drive<const TRACE: bool>(
    fe: &mut BatchingFrontEnd,
    seed: u64,
    ops: u64,
    chunk: u64,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<Window, OramError> {
    let mut requests = Requests::new(seed);
    let mut shadow = ShadowMap::new(KEYS as usize);
    // Arrival times are simulated, so the generator is never late.
    let origin = fe.next_launch() - BATCH.period;
    let mut w = Window {
        latencies: Vec::with_capacity(ops as usize),
        queue_wait: 0,
        service: 0,
        batches: 0,
        puts: 0,
        rejected: 0,
        mismatched: 0,
        outstanding: 0,
        pace: Pace::start(ops, chunk),
    };
    for i in 0..ops {
        let now = origin + (i + 1) * ARRIVAL_GAP;
        while fe.next_launch() < now {
            launch::<TRACE>(fe, &mut shadow, &mut w, tracer, parent)?;
        }
        let built = if TRACE { tracer.now() } else { 0 };
        let (rank, is_put) = requests.next();
        let request = build_request(rank, is_put.then(|| shadow.next_put_value(rank).to_vec()));
        let offered = if TRACE { tracer.now() } else { 0 };
        let ticket = fe.submit(now, request);
        if TRACE {
            let accepted = tracer.now();
            tracer.record_op("request.build", parent, i, built, offered);
            tracer.record_op("batch.submit", parent, i, offered, accepted);
        }
        match ticket {
            Ok(ticket) => shadow.accept(ticket, rank, is_put),
            Err(_) => w.rejected += 1,
        }
        w.puts += u64::from(is_put);
        while fe.next_launch() <= now {
            launch::<TRACE>(fe, &mut shadow, &mut w, tracer, parent)?;
        }
        // The last chunk ends after the queue has drained.
        if i + 1 < ops {
            w.pace.tick(i + 1);
        }
    }
    while fe.queue_len() > 0 {
        launch::<TRACE>(fe, &mut shadow, &mut w, tracer, parent)?;
    }
    w.pace.finish();
    w.outstanding = shadow.outstanding();
    Ok(w)
}

pub fn run(plan: Plan, tracer: &mut Tracer) -> Result<Outcome, OramError> {
    let mut out = Outcome { attempted: plan.ops, ..Outcome::default() };
    let setup_span = tracer.open("setup", ROOT);
    let (mut fe, setup_s) = repeated_setup(plan.setups(3), || loaded_front_end(timed()))?;
    tracer.close(setup_span);
    out.values.set("setup_s", setup_s);

    let engine_before = fe.store().data_engine().stats().clone();
    let (store_before, posmap_before) = (fe.store().stats(), fe.store().posmap().stats());
    let window_span = tracer.open("window", ROOT);
    let mut w = drive::<false>(&mut fe, plan.seed, plan.ops, plan.chunk(), tracer, window_span)?;
    tracer.close(window_span);
    report_host_rate(&mut out, &w.pace, &plan);

    let completed = w.latencies.len() as u64;
    out.failed = w.rejected + w.mismatched + w.outstanding;
    out.notes.push(format!(
        "open loop: {} offered, {completed} completed, {} rejected, {} read-backs disagree with \
         the shadow map, {} never completed; generator lateness 0 cycles (simulated arrivals)",
        plan.ops, w.rejected, w.mismatched, w.outstanding
    ));
    let slots = w.batches * BATCH.batch_size as u64;
    gate_engine(&mut out, &engine_before, fe.store().data_engine(), slots);

    let per_request = |count: u64| count as f64 / completed.max(1) as f64;
    w.latencies.sort_unstable();
    let tail = stats::supported_percentile(w.latencies.len(), 99.0);
    let v = &mut out.values;
    v.set("sim_cycles_per_op", per_request(w.service));
    v.set("sim_lat_mean_cycles", per_request(w.latencies.iter().sum()));
    v.set("sim_lat_p50_cycles", percentile(&w.latencies, 50.0) as f64);
    v.set("sim_lat_p99_cycles", percentile(&w.latencies, tail) as f64);
    out.notes.push(format!("sim_lat_*: {completed} samples, tail reported at p{tail}"));
    v.set("trace.read_share", 1.0 - w.puts as f64 / plan.ops as f64);

    let front = fe.stats();
    let service_mean = w.service as f64 / w.batches as f64;
    v.set("batch.coalesced_share", front.coalesced as f64 / front.accepted.max(1) as f64);
    v.set("batch.dummy_slot_share", front.dummy_slots as f64 / slots as f64);
    v.set("batch.rejected", front.rejected as f64);
    v.set("batch.queue_wait_mean_cycles", per_request(w.queue_wait));
    v.set("batch.service_mean_cycles", service_mean);
    v.set("batch.busy_frac", service_mean / BATCH.period as f64);

    let store = fe.store().stats();
    let real = store.data_accesses - store_before.data_accesses;
    let dummy = store.dummy_data_accesses - store_before.dummy_data_accesses;
    v.set("store.data_accesses", real as f64);
    v.set("store.dummy_share", dummy as f64 / (real + dummy) as f64);
    v.set("store.misses", (store.misses - store_before.misses) as f64);

    let posmap = fe.store().posmap().stats();
    v.set("posmap.chain_depth", fe.store().posmap().chain_depth() as f64);
    v.set(
        "posmap.tree_accesses_per_request",
        per_request(posmap.tree_accesses - posmap_before.tree_accesses),
    );
    v.set(
        "posmap.dummy_tree_accesses_per_request",
        per_request(posmap.dummy_tree_accesses - posmap_before.dummy_tree_accesses),
    );
    v.set(
        "posmap.verified_entries",
        (posmap.verified_entries - posmap_before.verified_entries) as f64,
    );
    report_ring_counters(&mut out, &engine_before, fe.store().data_engine(), completed.max(1));

    if plan.mode == Mode::Traced {
        drop(fe);
        ladder(&mut out, plan, w.pace.best_ns_per_op(), tracer)?;
    }
    Ok(out)
}

/// A data tree alone behind `backend`, every key's block written once —
/// the history the store's own data tree has after its pre-load.
fn loaded_data_tree(
    mut backend: Box<dyn StorageBackend>,
) -> Result<Box<dyn StorageBackend>, OramError> {
    backend.set_pipeline_depth(PIPELINE_DEPTH);
    let mut at = 0;
    for rank in 0..KEYS {
        data_tree_access(backend.as_mut(), &mut at, rank, Some(&value_of(rank, 0)))?;
    }
    Ok(backend)
}

/// One request against a data tree alone: a managed access on the key's
/// block, closed loop. Returns its simulated latency.
fn data_tree_access(
    backend: &mut dyn StorageBackend,
    at: &mut u64,
    rank: u32,
    put_value: Option<&[u8]>,
) -> Result<u64, OramError> {
    let reply = backend.access_managed(*at, u64::from(rank), None, &mut |payload| {
        if let Some(value) = put_value {
            payload[..value.len()].copy_from_slice(value);
        }
    })?;
    let latency = reply.done - *at;
    *at = reply.done;
    black_box(reply.data);
    Ok(latency)
}

/// A request's put value in the rungs below the front-end, which have no
/// shadow map to version it.
fn rung_request(requests: &mut Requests, i: u64) -> (u32, Request) {
    let (rank, is_put) = requests.next();
    (rank, build_request(rank, is_put.then(|| value_of(rank, i as u32).to_vec())))
}

/// Times `ops` requests against a loaded data tree alone. Returns the pace
/// and the mean simulated latency.
fn data_tree_rung(
    name: &'static str,
    backend: Box<dyn StorageBackend>,
    plan: Plan,
    tracer: &mut Tracer,
) -> Result<(Pace, f64), OramError> {
    let ops = plan.prefix();
    let mut backend = loaded_data_tree(backend)?;
    let span = tracer.open(name, ROOT);
    let mut requests = Requests::new(plan.seed);
    let (mut at, mut latency) = (backend.free_at(), 0u64);
    let mut pace = Pace::start(ops, plan.chunk());
    for i in 0..ops {
        let (rank, request) = rung_request(&mut requests, i);
        let value = match &request {
            Request::Put { value, .. } => Some(value.as_slice()),
            Request::Get { .. } => None,
        };
        latency += data_tree_access(backend.as_mut(), &mut at, rank, value)?;
        pace.tick(i + 1);
    }
    tracer.close(span);
    Ok((pace, latency as f64 / ops as f64))
}

/// Times `ops` requests through a freshly loaded front-end over `backend`.
fn front_end_rung<const TRACE: bool>(
    name: &'static str,
    backend: BackendKind,
    plan: Plan,
    tracer: &mut Tracer,
) -> Result<Pace, OramError> {
    let (mut fe, _) = loaded_front_end(backend)?;
    let span = tracer.open(name, ROOT);
    let w = drive::<TRACE>(&mut fe, plan.seed, plan.prefix(), plan.chunk(), tracer, span)?;
    tracer.close(span);
    Ok(w.pace)
}

/// Rungs: `KeySampler::draw` + request build → `UntimedBackend` on the data
/// tree alone (+ a bare `RecursivePosMap` walk, timed in isolation) →
/// `ObliviousStore::rmw_at` on an untimed store → `BatchingFrontEnd` on an
/// untimed store → `BatchingFrontEnd` on the timed store; then the traced
/// pass. A `TimedBackend` data tree alone is a side rung for `backend.*`.
/// Each rung is timed by its fastest chunk, like the window.
fn ladder(
    out: &mut Outcome,
    plan: Plan,
    window_ns: f64,
    tracer: &mut Tracer,
) -> Result<(), OramError> {
    let (ops, chunk) = (plan.prefix(), plan.chunk());
    let mut ladder = Ladder::default();

    let span = tracer.open("rung.gen", ROOT);
    let mut requests = Requests::new(plan.seed);
    let mut pace = Pace::start(ops, chunk);
    for i in 0..ops {
        black_box(rung_request(&mut requests, i));
        pace.tick(i + 1);
    }
    tracer.close(span);
    ladder.rung("gen", pace.best_ns_per_op());

    let data_cfg = OramConfig::builder(LEVELS, Scheme::Ab).store_data(true).build()?;
    let (untimed_tree, _) =
        data_tree_rung("rung.ring", Box::new(UntimedBackend::new(&data_cfg)?), plan, tracer)?;
    ladder.rung("ring", untimed_tree.best_ns_per_op());
    let (timed_tree, timed_latency) = data_tree_rung(
        "side.timed_backend",
        Box::new(TimedBackend::new(&data_cfg, DramConfig::default())?),
        plan,
        tracer,
    )?;

    // A bare chain over as many blocks as the data tree protects, walked
    // once per key first, like the store's pre-load.
    let mut make = |cfg: &OramConfig| -> Result<Box<dyn StorageBackend>, OramError> {
        Ok(Box::new(UntimedBackend::new(cfg)?))
    };
    let mut chain = RecursivePosMap::new(
        data_cfg.real_block_count(),
        &|block| block,
        &RecursionConfig::default(),
        &mut make,
    )?;
    let mut at = 0;
    for rank in 0..KEYS {
        at = chain.resolve_and_remap(u64::from(rank), 0, at)?.1;
    }
    let span = tracer.open("side.posmap", ROOT);
    let mut requests = Requests::new(plan.seed);
    let mut pace = Pace::start(ops, chunk);
    for i in 0..ops {
        let (rank, request) = rung_request(&mut requests, i);
        black_box(request);
        at = chain.resolve_and_remap(u64::from(rank), i, at)?.1;
        pace.tick(i + 1);
    }
    tracer.close(span);
    drop(chain);
    ladder.stack("posmap", pace.best_ns_per_op() - ladder.self_ns("gen"));

    let (mut store, _) = loaded_store(BackendKind::Untimed)?;
    let span = tracer.open("rung.store", ROOT);
    let mut requests = Requests::new(plan.seed);
    let mut pace = Pace::start(ops, chunk);
    for i in 0..ops {
        let (rank, is_put) = requests.next();
        let mut put = is_put.then(|| value_of(rank, i as u32).to_vec());
        black_box(store.rmw_at(store.now(), &key_of(rank), &mut |_| put.take())?);
        pace.tick(i + 1);
    }
    tracer.close(span);
    drop(store);
    ladder.rung("store", pace.best_ns_per_op());

    let batch = front_end_rung::<false>("rung.batch", BackendKind::Untimed, plan, tracer)?;
    ladder.rung("batch", batch.best_ns_per_op());
    let untraced = front_end_rung::<false>("rung.timed", timed(), plan, tracer)?;
    ladder.rung("timed", untraced.best_ns_per_op());
    let traced = front_end_rung::<true>("traced.timed", timed(), plan, tracer)?;

    let v = &mut out.values;
    v.set("trace.host_ns_per_key", ladder.self_ns("gen"));
    v.set("ring.host_ns_per_op", ladder.self_ns("ring"));
    v.set("backend.untimed_host_ns_per_op", ladder.self_ns("ring"));
    v.set("backend.timed_host_ns_per_op", timed_tree.best_ns_per_op() - ladder.self_ns("gen"));
    v.set("backend.timed_sim_lat_mean_cycles", timed_latency);
    v.set("posmap.host_ns_per_resolve", ladder.self_ns("posmap"));
    v.set("store.host_self_ns_per_request", ladder.self_ns("store"));
    v.set("batch.host_self_ns_per_request", ladder.self_ns("batch"));

    micro::report_common(out, plan.seed, Some(micro::OwnGenerator::Keys), tracer);
    micro::report_bench(out, &ladder, window_ns, &untraced, &traced);
    Ok(())
}
