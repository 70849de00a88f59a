//! The four workloads and what they share: sizes, warm-up, the outcome of
//! one run, and the probes every traced run repeats.

pub mod micro;
pub mod proto;
pub mod svc;
pub mod trace;

use crate::metrics::Values;
use crate::spans::Tracer;
use aboram_core::{AccessKind, CountingSink, OramConfig, OramError, OramStats, RingOram, Scheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Tree levels of every data tree in the benchmark.
pub const LEVELS: u8 = 14;

/// Uniform warm-up accesses before statistics start (2 · 2¹³ · 5), so every
/// measured window opens in ORAM steady state.
pub const WARMUP_ACCESSES: u64 = 81_920;

/// Chunks per measured window (see [`Pace`]): 0.1 % of the ops, ≈ 20 ms.
pub const CHUNKS: u64 = 1_000;

/// The lower rungs and the traced pass run on this share of the input.
pub const PREFIX_DIVISOR: u64 = 10;

/// The workload names, in `BENCHMARK.json` order, with the operations each
/// measures per second of `--seconds`: its throughput on the 2-core
/// reference host, rounded down, so a window lasts about `--seconds` there.
/// Sizes are a pure function of `--seconds`, never of the clock, so the
/// simulated metrics repeat exactly for a seed.
pub const WORKLOADS: [(&str, u64); 4] = [
    ("proto_uniform", 100_000),
    ("trace_mcf_serial", 50_000),
    ("trace_lbm_pipe", 25_000),
    ("svc_zipf_dram", 7_000),
];

/// How a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics: tracing off, set-up repeated.
    Untraced,
    /// Per-layer metrics: the same full window, then the ladder and a
    /// traced pass on a prefix of the same input.
    Traced,
}

/// Input of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Operations in the measured window.
    pub ops: u64,
    pub mode: Mode,
}

impl Plan {
    /// Operations the ladder's rungs and the traced pass run.
    pub fn prefix(&self) -> u64 {
        (self.ops / PREFIX_DIVISOR).max(1)
    }

    /// Operations per chunk, in the window and in every ladder rung.
    pub fn chunk(&self) -> u64 {
        (self.ops / CHUNKS).max(1)
    }

    /// How often set-up runs in the untraced run, which reports its time;
    /// `repeats` is what the workload can afford.
    pub fn setups(&self, repeats: usize) -> usize {
        match self.mode {
            Mode::Untraced => repeats,
            Mode::Traced => 1,
        }
    }
}

/// Result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the run measured.
    pub values: Values,
    /// Correctness-gate violations, empty on a correct run.
    pub violations: Vec<String>,
    /// Human-readable context lines for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Records a gate violation unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Runs `workload` under `plan`.
pub fn run(workload: &str, plan: Plan, tracer: &mut Tracer) -> Result<Outcome, OramError> {
    let mut out = match workload {
        "proto_uniform" => proto::run(plan, tracer),
        "trace_mcf_serial" => trace::run(&trace::MCF_SERIAL, plan, tracer),
        "trace_lbm_pipe" => trace::run(&trace::LBM_PIPE, plan, tracer),
        "svc_zipf_dram" => svc::run(plan, tracer),
        other => unreachable!("workload `{other}` was validated by the CLI"),
    }?;
    micro::gate_space(&mut out);
    Ok(out)
}

/// Host time of one set-up, piece by piece: construction first, then each
/// chunk of the warm-up loop.
pub fn setup_pieces(construction: Duration, warm_up: &Pace) -> Vec<Duration> {
    let mut pieces = vec![construction];
    pieces.extend(warm_up.marks.windows(2).map(|w| w[1] - w[0]));
    pieces
}

/// A fresh `LEVELS`-level engine, warmed with [`WARMUP_ACCESSES`] uniform
/// reads drawn from `seed`, and its set-up time by piece.
pub fn warmed_engine(scheme: Scheme, seed: u64) -> Result<(RingOram, Vec<Duration>), OramError> {
    let started = Instant::now();
    let cfg = OramConfig::builder(LEVELS, scheme).build()?;
    let mut oram = RingOram::new(&cfg)?;
    let construction = started.elapsed();
    let mut sink = CountingSink::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5741_524D_5550_0001);
    let blocks = oram.block_count();
    let mut pace = Pace::start(WARMUP_ACCESSES, WARMUP_ACCESSES / 320);
    for i in 0..WARMUP_ACCESSES {
        oram.access(AccessKind::Read, rng.gen_range(0..blocks), None, &mut sink)?;
        pace.tick(i + 1);
    }
    Ok((oram, setup_pieces(construction, &pace)))
}

/// Runs `setup` `times` times, dropping each result before the next starts
/// so peak RSS holds one instance, and returns the last instance with the
/// set-up time in seconds.
///
/// Every repetition does the same work piece for piece, so the time is the
/// sum over the pieces (a few ms each) of each piece's fastest repetition:
/// the minimum-time estimate at a grain a burst of interference rarely
/// covers in every repetition. (A warm-up is not stationary — host time per
/// access triples as the tree ages — so its fastest chunk cannot stand for
/// the others the way a window's can.) A slow phase of the host that outlasts
/// all repetitions still shows: `setup_s` moved by 20–40 % between a quiet
/// and a noisy half hour, which is why it has the widest bound.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<(T, Vec<Duration>), OramError>,
) -> Result<(T, f64), OramError> {
    let mut fastest: Vec<Duration> = Vec::new();
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let (state, pieces) = setup()?;
        last = Some(state);
        if fastest.is_empty() {
            fastest = pieces;
        } else {
            assert_eq!(fastest.len(), pieces.len(), "repetitions do the same work");
            for (best, took) in fastest.iter_mut().zip(pieces) {
                *best = (*best).min(took);
            }
        }
    }
    let secs = fastest.iter().sum::<Duration>().as_secs_f64();
    Ok((last.expect("set-up runs at least once"), secs))
}

/// Marks the host clock every `chunk` operations of a timed loop.
///
/// Every host time the benchmark reports is the **fastest chunk's**: on this
/// shared host interference only ever slows a chunk down, and does so for
/// seconds at a time, so the best chunk estimates the program's own speed
/// far more steadily (spread between runs ≈ 4 %) than the loop's mean or its
/// median chunk (≈ 17–21 %).
#[derive(Debug)]
pub struct Pace {
    chunk: u64,
    marks: Vec<Instant>,
}

impl Pace {
    /// Starts the clock of a loop that will [`tick`](Self::tick) `ops` times.
    pub fn start(ops: u64, chunk: u64) -> Self {
        let mut marks = Vec::with_capacity((ops / chunk) as usize + 1);
        marks.push(Instant::now());
        Pace { chunk, marks }
    }

    /// Call after each operation with the number done so far.
    #[inline]
    pub fn tick(&mut self, done: u64) {
        if done.is_multiple_of(self.chunk) {
            self.marks.push(Instant::now());
        }
    }

    /// Marks the end of a loop whose last operation does not end a chunk.
    pub fn finish(&mut self) {
        self.marks.push(Instant::now());
    }

    /// Host ns per op of the fastest full chunk.
    pub fn best_ns_per_op(&self) -> f64 {
        let best = self.marks.windows(2).map(|w| w[1] - w[0]).min().expect("a loop has a chunk");
        best.as_secs_f64() * 1e9 / self.chunk as f64
    }

    /// From the first mark to the last.
    pub fn elapsed(&self) -> Duration {
        *self.marks.last().expect("started") - self.marks[0]
    }
}

/// Reports a window's host throughput: the fastest chunk's rate as
/// `host_ops_per_s`, and a note with the distribution beside it.
pub fn report_host_rate(out: &mut Outcome, pace: &Pace, plan: &Plan) {
    let mut rates: Vec<f64> =
        pace.marks.windows(2).map(|w| pace.chunk as f64 / (w[1] - w[0]).as_secs_f64()).collect();
    rates.sort_by(f64::total_cmp);
    let window = pace.elapsed().as_secs_f64();
    out.values.set("host_ops_per_s", 1e9 / pace.best_ns_per_op());
    let q = |p: f64| rates[((rates.len() - 1) as f64 * p).round() as usize];
    out.notes.push(format!(
        "window: {} ops in {window:.3} s host time, mean {:.0} ops/s; rate of its {} chunks: \
         min {:.0} p25 {:.0} median {:.0} p75 {:.0} p99 {:.0} best {:.0} ops/s",
        plan.ops,
        plan.ops as f64 / window,
        rates.len(),
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.99),
        q(1.0),
    ));
}

/// The `ring.*` counters over a window, from the engine's public stats
/// before and after it, per `ops` operations.
pub fn report_ring_counters(out: &mut Outcome, before: &OramStats, engine: &RingOram, ops: u64) {
    let after = engine.stats();
    let per_op = |delta: u64| delta as f64 / ops as f64;
    let v = &mut out.values;
    v.set("ring.evict_paths_per_op", per_op(after.evict_paths - before.evict_paths));
    v.set(
        "ring.early_reshuffles_per_op",
        per_op(after.reshuffles.total() - before.reshuffles.total()),
    );
    v.set("ring.background_per_op", per_op(after.background_accesses - before.background_accesses));
    v.set("ring.remote_reads_per_op", per_op(after.remote_slot_reads - before.remote_slot_reads));
    let attempted = after.extensions_attempted - before.extensions_attempted;
    let done = after.extensions_done - before.extensions_done;
    v.set(
        "ring.extension_ratio",
        if attempted == 0 { 0.0 } else { done as f64 / attempted as f64 },
    );
    v.set("ring.dead_total", after.dead_total() as f64);
    v.set("ring.stash_peak", engine.stash_peak() as f64);
    v.set("ring.stash_p99", after.stash_percentile(0.99).unwrap_or(0) as f64);
}

/// The gate every engine workload shares: structural invariants hold and
/// the engine served exactly the window's operations.
pub fn gate_engine(out: &mut Outcome, before: &OramStats, engine: &RingOram, ops: u64) {
    if let Err(violation) = engine.validate_invariants() {
        out.violations.push(format!("validate_invariants: {violation}"));
    }
    let served = engine.stats().user_accesses - before.user_accesses;
    out.gate(served == ops, || format!("engine served {served} user accesses, window had {ops}"));
}
