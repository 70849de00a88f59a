//! Service-layer load benchmark — the `aboram-service` oblivious KV store
//! under open- and closed-loop load generators.
//!
//! Four isolated tenants run concurrently, one executor cell each:
//!
//! * `alpha` — AB scheme, Zipf(0.99) keys (the YCSB skew), **open loop**:
//!   arrivals on a fixed clock regardless of completions, offered load at
//!   the batch schedule's slot capacity. Skew feeds the front-end's
//!   same-key coalescing.
//! * `beta` — Baseline scheme, same open-loop Zipf load, so the two paper
//!   endpoints face identical traffic.
//! * `gamma` — AB, uniform keys, **closed loop**: a fixed window of
//!   requests in flight; each completion immediately triggers the next
//!   submission.
//! * `delta` — AB on the cycle-accurate DRAM twin (`TimedBackend`),
//!   open-loop Zipf at half load: the same protocol under a real memory
//!   clock.
//!
//! Every tenant resolves positions through the **real recursive position
//! map** (a chain of Ring ORAM trees — see `aboram-service`); the report
//! includes per-tenant chain evidence (depth, ladder shape, tree accesses,
//! entries verified against the engine's ground truth).
//!
//! All reported numbers are functions of simulated clocks and per-cell
//! seeded RNGs only, so the report is byte-identical for any `--jobs` /
//! `ABORAM_JOBS` setting.
//!
//! `--smoke` runs a seconds-scale configuration and asserts the acceptance
//! conditions (nonzero throughput, active recursion chain, parseable
//! latency report) — the CI entry point. `--pipeline` adds a
//! serialized-vs-access-pipelined comparison pair on the DRAM twin (depth
//! 4, per-slot completion stamping) and `--channel-par` a serial-vs-
//! channel-parallel one; each asserts its second tenant's p50/p99 are never
//! worse. `--grow` adds an auto-scaling-vs-fixed-capacity pair.

use aboram_bench::{derive_cell_seed, emit, fail, CellExecutor, Experiment};
use aboram_core::{OramError, Scheme};
use aboram_dram::DramConfig;
use aboram_service::{
    BackendKind, BatchConfig, BatchingFrontEnd, Completion, LatencyReport, ObliviousStore, Request,
    StoreConfig,
};
use aboram_stats::Table;
use aboram_trace::{KeyDist, KeySampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a load generator paces submissions.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Open loop: one arrival every `gap` cycles, completions be damned.
    Open { gap: u64 },
    /// Closed loop: at most `window` requests in flight.
    Closed { window: usize },
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Open { .. } => write!(f, "open"),
            Mode::Closed { window } => write!(f, "closed({window})"),
        }
    }
}

/// One tenant's workload cell.
struct TenantCell {
    name: &'static str,
    scheme: Scheme,
    dist: KeyDist,
    mode: Mode,
    backend: BackendKind,
    batch: BatchConfig,
    /// Cross-access pipeline depth for the store's timed backends
    /// (DESIGN.md §15); 1 = the classic serialized controller.
    pipeline_depth: u8,
}

/// Run scale (full vs `--smoke`).
struct Scale {
    levels: u8,
    keys: u64,
    requests: u64,
}

/// Everything the report needs from one tenant's run.
struct TenantResult {
    completed: u64,
    rejected: u64,
    coalesced: u64,
    batches: u64,
    chain_depth: usize,
    ladder: Vec<u64>,
    tree_accesses: u64,
    verified: u64,
    elapsed: u64,
    lat: LatencyReport,
}

impl TenantResult {
    /// Requests completed per million simulated cycles.
    fn throughput(&self) -> f64 {
        self.completed as f64 * 1e6 / self.elapsed as f64
    }
}

fn key_of(k: u64) -> Vec<u8> {
    format!("key-{k:05}").into_bytes()
}

/// Draws the next request: 90 % gets, 10 % puts (a YCSB-B-style read-heavy
/// mix), keys from the tenant's distribution.
fn next_request(sampler: &KeySampler, rng: &mut StdRng, seq: u64) -> Request {
    let key = key_of(sampler.draw(rng));
    if rng.gen_range(0..10u32) == 0 {
        Request::Put { key, value: format!("v{seq}").into_bytes() }
    } else {
        Request::Get { key }
    }
}

/// One tenant's run: a store built from `cfg` behind a `batch` front end,
/// pre-loaded with keys `0..preload` so the measured window serves mostly
/// hits, then `requests` requests drawn from `next_request` (given each
/// one's sequence number) under `mode`, then drained. Deterministic in its
/// arguments: all clocks are simulated. Returns the result and the front end.
fn run_load(
    cfg: &StoreConfig,
    batch: BatchConfig,
    preload: u64,
    mode: Mode,
    requests: u64,
    mut next_request: impl FnMut(u64) -> Request,
) -> Result<(TenantResult, BatchingFrontEnd), OramError> {
    let mut fe = BatchingFrontEnd::new(ObliviousStore::new(cfg)?, batch);
    for k in 0..preload {
        let store = fe.store_mut();
        let value = format!("v{k}").into_bytes();
        store.rmw_at(store.now(), &key_of(k), &mut |_| Some(value.clone()))?;
    }
    // Bring the fixed schedule live.
    fe.activate_at(fe.store().now());
    let start = fe.next_launch();

    let mut latencies: Vec<u64> = Vec::with_capacity(requests as usize);
    let mut last_done = start;
    let mut collect = |done: Vec<Completion>| {
        for c in done {
            latencies.push(c.latency());
            last_done = last_done.max(c.done);
        }
    };
    match mode {
        Mode::Open { gap } => {
            for i in 0..requests {
                let now = start + i * gap;
                // Open loop: rejections are the admission controller doing
                // its job under overload, not an error.
                let _ = fe.submit(now, next_request(i));
                collect(fe.advance_to(now)?);
            }
        }
        Mode::Closed { window } => {
            assert!(
                window <= batch.queue_capacity,
                "a closed loop never outruns its own admission control"
            );
            let mut submitted = 0u64;
            while submitted < requests.min(window as u64) {
                fe.submit(start, next_request(submitted)).expect("window fits the queue");
                submitted += 1;
            }
            let mut now = start;
            while submitted < requests {
                now += batch.period;
                let done = fe.advance_to(now)?;
                for c in &done {
                    // Each completion immediately triggers the next request.
                    if submitted < requests {
                        fe.submit(c.done, next_request(submitted)).expect("window fits the queue");
                        submitted += 1;
                    }
                }
                collect(done);
            }
        }
    }
    collect(fe.drain()?);

    let stats = fe.stats();
    let posmap = fe.store().posmap();
    let pm_stats = posmap.stats();
    let result = TenantResult {
        completed: latencies.len() as u64,
        rejected: stats.rejected,
        coalesced: stats.coalesced,
        batches: stats.batches,
        chain_depth: posmap.chain_depth(),
        ladder: posmap.level_counts().to_vec(),
        tree_accesses: pm_stats.tree_accesses,
        verified: pm_stats.verified_entries,
        elapsed: last_done.saturating_sub(start).max(1),
        lat: LatencyReport::from_latencies(latencies).expect("completions exist"),
    };
    Ok((result, fe))
}

/// Runs one tenant cell to completion. Deterministic in `(cell, scale,
/// seed)`: all clocks are simulated and the RNG is seeded per cell.
fn run_tenant(cell: &TenantCell, scale: &Scale, seed: u64) -> Result<TenantResult, OramError> {
    let mut cfg = StoreConfig::new(scale.levels, cell.scheme);
    cfg.seed = seed;
    cfg.backend = cell.backend;
    cfg.pipeline_depth = cell.pipeline_depth;
    let sampler = KeySampler::new(cell.dist, scale.keys);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10AD_10AD_10AD_10AD);
    let next = |seq| next_request(&sampler, &mut rng, seq);
    Ok(run_load(&cfg, cell.batch, scale.keys, cell.mode, scale.requests, next)?.0)
}

/// Growth-comparison scale (`--grow`).
struct GrowScale {
    /// Levels the auto-scaling tenant starts at.
    start_levels: u8,
    /// Growth ceiling — and the fixed tenant's (born-at-capacity) size.
    max_levels: u8,
    /// Keys pre-loaded before the measured window opens.
    preload: u64,
    /// Keys the measured window loads the store toward.
    target_keys: u64,
}

/// Runs one growth-comparison tenant: an open-loop load that alternates
/// fresh-key puts (filling the store toward `target_keys`, which drives
/// the auto-scaling tenant through its level grows mid-run) with gets of
/// already-loaded keys. `auto` starts at `start_levels` and grows lazily;
/// otherwise the store is born at the final capacity.
///
/// Returns the tenant result plus `(level grows, final data-tree levels)`.
fn run_grow_tenant(
    auto: bool,
    gs: &GrowScale,
    seed: u64,
) -> Result<(TenantResult, u64, u8), OramError> {
    let mut cfg = if auto {
        StoreConfig::auto_scaling(gs.start_levels, gs.max_levels, Scheme::Ab)
    } else {
        StoreConfig::new(gs.max_levels, Scheme::Ab)
    };
    cfg.seed = seed;
    let batch =
        BatchConfig { batch_size: 8, period: 25_000, queue_capacity: 256, pipelined: false };
    let mode = Mode::Open { gap: batch.period / batch.batch_size as u64 };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6B0B_6B0B_6B0B_6B0B);
    let mut next_key = gs.preload;
    let next = |i: u64| {
        if i.is_multiple_of(2) && next_key < gs.target_keys {
            // Fresh key: exercises the insert path (and, on the auto
            // tenant, the growth trigger).
            let key = key_of(next_key);
            next_key += 1;
            Request::Put { key, value: format!("v{i}").into_bytes() }
        } else {
            Request::Get { key: key_of(rng.gen_range(0..next_key)) }
        }
    };
    let requests = (gs.target_keys - gs.preload) * 2;
    let (result, fe) = run_load(&cfg, batch, gs.preload, mode, requests, next)?;
    let grows = fe.store().posmap().stats().level_grows;
    Ok((result, grows, fe.store().data_engine().config().levels))
}

/// A tenant on the cycle-accurate DRAM twin: open-loop Zipf(0.99), four
/// arrivals per batch period.
fn dram_tenant(
    name: &'static str,
    scheme: Scheme,
    batch: BatchConfig,
    pipeline_depth: u8,
) -> TenantCell {
    TenantCell {
        name,
        scheme,
        dist: KeyDist::Zipf { s: 0.99 },
        mode: Mode::Open { gap: batch.period / 4 },
        backend: BackendKind::Timed(DramConfig::default()),
        batch,
        pipeline_depth,
    }
}

/// The report text of one comparison pair.
struct PairReport {
    heading: &'static str,
    blurb: &'static str,
    title: &'static str,
    /// The table's second column: its header and each tenant's value.
    column: (&'static str, fn(&TenantCell) -> String),
    /// What the second tenant changes, for the assertions' messages.
    what: &'static str,
}

/// Runs a comparison pair (`--channel-par`, `--pipeline`) on one seed, so
/// both tenants face the same request stream, and returns its report
/// section. Asserts that the second tenant completes as many requests as
/// the first with p50 and p99 no worse.
fn run_pair(
    pair: &[TenantCell; 2],
    scale: &Scale,
    seed: u64,
    executor: &CellExecutor,
    report: &PairReport,
) -> String {
    let pr = executor.run((0..pair.len()).collect(), |i, _| run_tenant(&pair[i], scale, seed));
    let pr: Vec<TenantResult> = pr.into_iter().collect::<Result<_, _>>().unwrap_or_else(failed);
    let (column, label) = report.column;
    let mut table = Table::new(
        report.title,
        &["tenant", column, "reqs", "req/Mcyc", "p50", "p95", "p99", "max"],
    );
    for (cell, r) in pair.iter().zip(&pr) {
        table.row(
            &[cell.name, &label(cell)],
            &[
                r.completed as f64,
                r.throughput(),
                r.lat.p50 as f64,
                r.lat.p95 as f64,
                r.lat.p99 as f64,
                r.lat.max as f64,
            ],
        );
    }

    let (base, other) = (&pr[0], &pr[1]);
    let what = report.what;
    assert_eq!(base.completed, other.completed, "{what} changed the completion count");
    assert!(
        other.lat.p50 <= base.lat.p50 && other.lat.p99 <= base.lat.p99,
        "{what} must not add latency: {} p50/p99 {}/{} vs {} {}/{}",
        pair[1].name,
        other.lat.p50,
        other.lat.p99,
        pair[0].name,
        base.lat.p50,
        base.lat.p99
    );
    format!("{}{}{}", report.heading, report.blurb, table.to_markdown())
}

/// This binary's one failure path (see [`fail`]).
fn failed<T>(e: OramError) -> T {
    fail("svc_bench", e)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let grow = args.iter().any(|a| a == "--grow");
    let channel_par = args.iter().any(|a| a == "--channel-par");
    let pipeline = args.iter().any(|a| a == "--pipeline");
    let env = Experiment::from_env();
    let _telemetry = aboram_bench::telemetry_from_env();

    // Service trees are deliberately shallower than the figure trees: the
    // recursion chain multiplies every request by (depth + 1) ORAM
    // accesses, and the ladder shape is already exercised at L ≤ 12.
    let scale = if smoke {
        Scale { levels: 9, keys: 24, requests: 60 }
    } else {
        Scale { levels: env.levels.min(12), keys: 192, requests: 800 }
    };

    // Untimed accesses cost ~4 cycles per 64 B transfer; a full batch
    // (batch_size slots × chain depth + 1 accesses) fits well inside the
    // period, so the schedule never falls behind the store clock. The DRAM
    // twin charges real memory latencies, hence the longer period.
    let period = 25_000u64;
    let timed_period = 150_000u64;
    let batch_size = 8usize;
    let full_gap = period / batch_size as u64;
    let open = BatchConfig { batch_size, period, queue_capacity: 256, pipelined: false };
    let timed =
        BatchConfig { batch_size, period: timed_period, queue_capacity: 256, pipelined: false };
    let tenants = [
        TenantCell {
            name: "alpha",
            scheme: Scheme::Ab,
            dist: KeyDist::Zipf { s: 0.99 },
            mode: Mode::Open { gap: full_gap },
            backend: BackendKind::Untimed,
            batch: open,
            pipeline_depth: 1,
        },
        TenantCell {
            name: "beta",
            scheme: Scheme::Baseline,
            dist: KeyDist::Zipf { s: 0.99 },
            mode: Mode::Open { gap: full_gap },
            backend: BackendKind::Untimed,
            batch: open,
            pipeline_depth: 1,
        },
        TenantCell {
            name: "gamma",
            scheme: Scheme::Ab,
            dist: KeyDist::Uniform,
            mode: Mode::Closed { window: 16 },
            backend: BackendKind::Untimed,
            batch: BatchConfig { batch_size, period, queue_capacity: 64, pipelined: false },
            pipeline_depth: 1,
        },
        dram_tenant("delta", Scheme::Ab, timed, 1),
    ];

    let executor = CellExecutor::from_env_or_args(&args);
    eprintln!("[svc_bench: {} tenants on {} worker(s)]", tenants.len(), executor.jobs());
    let results = executor.run((0..tenants.len()).collect(), |i, _| {
        let r = run_tenant(&tenants[i], &scale, derive_cell_seed(env.seed, i as u64))?;
        eprintln!("[{} done: {} completions]", tenants[i].name, r.completed);
        Ok(r)
    });
    let results: Vec<TenantResult> =
        results.into_iter().collect::<Result<_, _>>().unwrap_or_else(failed);

    let mut table = Table::new(
        "Service-layer load benchmark — latency in simulated cycles",
        &[
            "tenant",
            "scheme",
            "keys",
            "loop",
            "backend",
            "reqs",
            "req/Mcyc",
            "p50",
            "p95",
            "p99",
            "max",
            "coalesced",
            "rejected",
        ],
    );
    for (cell, r) in tenants.iter().zip(&results) {
        let backend = match cell.backend {
            BackendKind::Untimed => "untimed",
            BackendKind::Timed(_) => "dram",
        };
        table.row(
            &[
                cell.name,
                &cell.scheme.to_string(),
                &cell.dist.to_string(),
                &cell.mode.to_string(),
                backend,
            ],
            &[
                r.completed as f64,
                r.throughput(),
                r.lat.p50 as f64,
                r.lat.p95 as f64,
                r.lat.p99 as f64,
                r.lat.max as f64,
                r.coalesced as f64,
                r.rejected as f64,
            ],
        );
    }

    let mut out = String::from("# Service-layer load benchmark (svc_bench)\n\n");
    out.push_str(&format!(
        "data trees: L{}; working set: {} keys (pre-loaded); {} requests per tenant; \
         batch schedule: {} slots every {} cycles (untimed tenants)\n\n",
        scale.levels, scale.keys, scale.requests, batch_size, period
    ));
    out.push_str(&table.to_markdown());
    out.push_str("\nRecursive position map (per tenant):\n\n");
    for (cell, r) in tenants.iter().zip(&results) {
        out.push_str(&format!(
            "- {}: chain depth {}, ladder {:?}, {} posmap tree accesses across {} batches, \
             {} fetched entries verified against the engine's ground truth\n",
            cell.name, r.chain_depth, r.ladder, r.tree_accesses, r.batches, r.verified
        ));
    }
    out.push_str(
        "\nLatencies count queueing plus service; every request in a batch completes at the \
         batch end (the batch is the privacy unit). The report is a pure function of the seed \
         and the simulated clocks — any `ABORAM_JOBS` value reproduces it byte-identically.\n",
    );

    if grow {
        // Auto-scaling vs born-at-capacity, same workload: the de-amortized
        // growth tax shows up directly in the tail.
        let gs = if smoke {
            GrowScale { start_levels: 8, max_levels: 10, preload: 512, target_keys: 1024 }
        } else {
            GrowScale { start_levels: 9, max_levels: 15, preload: 1024, target_keys: 1 << 16 }
        };
        eprintln!("[svc_bench: --grow comparison pair]");
        let pair = executor.run(vec![true, false], |_, auto| {
            let r = run_grow_tenant(auto, &gs, derive_cell_seed(env.seed, 0x6B0B))?;
            eprintln!("[grow tenant auto={auto} done: {} completions]", r.0.completed);
            Ok(r)
        });
        let pair: Vec<(TenantResult, u64, u8)> =
            pair.into_iter().collect::<Result<_, _>>().unwrap_or_else(failed);
        let (g, g_grows, g_levels) = &pair[0];
        let (f, _, f_levels) = &pair[1];

        let mut gt = Table::new(
            "Auto-scaling vs fixed capacity — identical workload, latency in simulated cycles",
            &["tenant", "levels", "reqs", "req/Mcyc", "p50", "p95", "p99", "max", "rejected"],
        );
        for (name, levels, r) in [("grow", g_levels, g), ("fixed", f_levels, f)] {
            gt.row(
                &[name, &format!("{}", levels)],
                &[
                    r.completed as f64,
                    r.throughput(),
                    r.lat.p50 as f64,
                    r.lat.p95 as f64,
                    r.lat.p99 as f64,
                    r.lat.max as f64,
                    r.rejected as f64,
                ],
            );
        }
        out.push_str("\n## Auto-scaling (`--grow`)\n\n");
        out.push_str(&format!(
            "grow tenant: starts at L{} ({} keys pre-loaded), loaded toward {} keys, grew {} \
             level(s) to L{} mid-run; fixed tenant: born at L{}. Both serve the same open-loop \
             put/get interleaving, so the gap between the rows is exactly the de-amortized \
             growth tax (incremental relocations folded into ordinary accesses).\n\n",
            gs.start_levels, gs.preload, gs.target_keys, g_grows, g_levels, f_levels
        ));
        out.push_str(&gt.to_markdown());

        assert!(*g_grows >= 1, "--grow tenant never grew: check the target/threshold");
        assert!(
            g.lat.p99 <= 2 * f.lat.p99,
            "growth tax blew the tail budget: grow p99 {} > 2x fixed p99 {}",
            g.lat.p99,
            f.lat.p99
        );
    }

    if channel_par {
        // Serial AB vs channel-parallel AB: the only difference is the
        // issue mode, so the latency gap is exactly what the
        // channel-parallel drain and crypto/DRAM overlap buy end-to-end
        // (queueing included).
        eprintln!("[svc_bench: --channel-par comparison pair]");
        let pair = [
            dram_tenant("serial", Scheme::Ab, timed, 1),
            dram_tenant("chan-par", Scheme::AbChannelPar, timed, 1),
        ];
        out.push_str(&run_pair(
            &pair,
            &scale,
            derive_cell_seed(env.seed, 0xC9A2),
            &executor,
            &PairReport {
                heading: "\n## Channel-parallel issue mode (`--channel-par`)\n\n",
                blurb: "Both tenants run AB's protocol on the DRAM twin with the same seed and \
                        request stream; `chan-par` issues each access's requests grouped by \
                        channel and overlaps decryption with in-flight DRAM, so any latency gap \
                        is the issue mode's doing.\n\n",
                title: "Serial vs channel-parallel issue — DRAM twin, latency in simulated cycles",
                column: ("scheme", |cell| cell.scheme.to_string()),
                what: "channel-parallel issue",
            },
        ));
    }

    if pipeline {
        // Serialized vs access-pipelined AB: the pipelined tenant overlaps
        // access i+1's reads with access i's writeback drain (depth 4,
        // DESIGN.md §15) and stamps each request with its own slot's
        // completion rather than the flat batch end, so the latency gap is
        // exactly what cross-access pipelining buys end-to-end.
        eprintln!("[svc_bench: --pipeline comparison pair]");
        let pair = [
            dram_tenant("serial", Scheme::Ab, timed, 1),
            dram_tenant("pipelined", Scheme::Ab, BatchConfig { pipelined: true, ..timed }, 4),
        ];
        out.push_str(&run_pair(
            &pair,
            &scale,
            derive_cell_seed(env.seed, 0x9199),
            &executor,
            &PairReport {
                heading: "\n## Access pipelining (`--pipeline`)\n\n",
                blurb: "Both tenants run AB's protocol on the DRAM twin with the same seed and \
                        request stream; `pipelined` holds up to 4 accesses in flight \
                        (write-after-read hazards and the stash hand-off still order dependent \
                        work) and stamps per-slot completions, so any latency gap is the \
                        pipeline's doing.\n\n",
                title: "Serialized vs access-pipelined execution — DRAM twin, latency in \
                        simulated cycles",
                column: ("depth", |cell| cell.pipeline_depth.to_string()),
                what: "pipelining",
            },
        ));
    }

    emit(if smoke { "svc_bench_smoke.md" } else { "svc_bench.md" }, &out);

    if smoke {
        for (cell, r) in tenants.iter().zip(&results) {
            assert!(r.completed > 0, "{}: no completions", cell.name);
            assert!(r.throughput() > 0.0, "{}: zero throughput", cell.name);
            assert!(r.chain_depth >= 1, "{}: recursion chain inactive", cell.name);
            assert!(r.tree_accesses > 0, "{}: no posmap tree traffic", cell.name);
            assert!(r.lat.p50 <= r.lat.p95 && r.lat.p95 <= r.lat.p99, "{}: bad report", cell.name);
        }
        println!("SMOKE OK");
    }
}
