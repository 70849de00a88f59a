//! A batch released on the lane's helper equals one released in place, and
//! telemetry changes neither. A timed store releases a front-end batch's
//! tree accesses on its lane's helper thread, or — with
//! [`ObliviousStore::release_inline`] — each one inline (DESIGN.md §16).
//! Both run the same stage and release halves in the same per-tree order, so
//! every completion, counter, DRAM statistic and engine state must be
//! identical. A collector on the calling thread must see the same registry
//! either way, the helper's hooks carried back with each spent message, and
//! must change no result.

use crate::{
    BackendKind, BatchConfig, BatchingFrontEnd, Completion, FrontEndStats, ObliviousStore,
    PosMapStats, Request, StoreConfig, StoreStats,
};
use aboram_core::{OramError, Scheme, StorageBackend};
use aboram_dram::{DramConfig, MemoryStats};
use aboram_telemetry::Collector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where a store's front-end batches are released, and whether a telemetry
/// collector is installed on the calling thread meanwhile.
#[derive(Debug, Clone, Copy)]
struct Executor {
    inline: bool,
    traced: bool,
}

impl Executor {
    const ALL: [Executor; 4] = [
        Executor { inline: false, traced: false },
        Executor { inline: true, traced: false },
        Executor { inline: false, traced: true },
        Executor { inline: true, traced: true },
    ];

    /// Runs `f` on `store`'s front end under this executor. Returns what `f`
    /// returned and, when traced, the registry's counters and histograms.
    fn run<T>(
        self,
        mut store: ObliviousStore,
        batch: BatchConfig,
        f: impl FnOnce(&mut BatchingFrontEnd) -> T,
    ) -> (BatchingFrontEnd, T, Option<String>) {
        if self.inline {
            store.release_inline();
        }
        let mut fe = BatchingFrontEnd::new(store, batch);
        if self.traced {
            aboram_telemetry::install(Collector::to_shared_buffer().0);
        }
        let out = f(&mut fe);
        let registry = self.traced.then(|| {
            let collector = aboram_telemetry::uninstall().expect("collector was installed");
            let registry = collector.registry();
            format!("{:?}\n{:?}", registry.run_counter_deltas(), registry.run_hist_deltas())
        });
        (fe, out, registry)
    }
}

/// Zipf(0.99) over `n` ranks, by inverse CDF.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize) -> Self {
        let mut total = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                total += 1.0 / (r as f64).powf(0.99);
                total
            })
            .collect::<Vec<_>>();
        Zipf(cdf.into_iter().map(|c| c / total).collect())
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        self.0.partition_point(|&c| c < u) as u64
    }
}

fn key_of(rank: u64) -> Vec<u8> {
    format!("key-{rank}").into_bytes()
}

/// A 60/25/15 mix of gets and puts of Zipf-ranked keys, only some of them
/// loaded, and puts of fresh keys: hits, misses, updates, inserts and (the
/// hot keys) coalesced duplicates.
fn request(zipf: &Zipf, rng: &mut StdRng, i: u64) -> Request {
    let value = format!("v{i}").into_bytes();
    match rng.gen_range(0..20) {
        0..=11 => Request::Get { key: key_of(zipf.sample(rng)) },
        12..=16 => Request::Put { key: key_of(zipf.sample(rng)), value },
        _ => Request::Put { key: format!("fresh-{i}").into_bytes(), value },
    }
}

#[derive(Debug, Clone, Copy)]
struct Case {
    scheme: Scheme,
    depth: u8,
    pipelined: bool,
    auto_scaling: bool,
    closed_loop: bool,
}

/// Everything a run leaves behind that a release could have touched.
#[derive(Debug, PartialEq)]
struct Outcome {
    completions: Vec<Completion>,
    front_end: FrontEndStats,
    store: StoreStats,
    posmap: PosMapStats,
    now: u64,
    level_grows_at_start: u64,
    /// Per tree: its DRAM statistics, its full drain, every block's
    /// position.
    trees: Vec<(MemoryStats, u64, Vec<u64>)>,
}

/// A timed store holding the Zipf ranks below `keys`; an auto-scaling one
/// is also filled to within a few inserts of its first growth.
fn timed_store(case: &Case, keys: u64) -> ObliviousStore {
    let mut cfg = if case.auto_scaling {
        StoreConfig::auto_scaling(8, 10, case.scheme)
    } else {
        StoreConfig::new(8, case.scheme)
    };
    cfg.backend = BackendKind::Timed(DramConfig::default());
    cfg.pipeline_depth = case.depth;
    cfg.seed = 4_242;
    let mut store = ObliviousStore::new(&cfg).unwrap();
    let fill = if case.auto_scaling { store.materialized() - keys - 6 } else { 0 };
    let keys = (0..keys).map(key_of).chain((0..fill).map(|i| format!("fill-{i}").into_bytes()));
    for key in keys {
        store.rmw_at(store.now(), &key, &mut |_| Some(b"init".to_vec())).unwrap();
    }
    store
}

/// Every tree's DRAM statistics, drain cycle and block positions, after
/// checking its engine's invariants.
fn tree_states(store: &mut ObliviousStore) -> Vec<(MemoryStats, u64, Vec<u64>)> {
    store
        .timed_trees()
        .into_iter()
        .map(|tree| {
            let drained = tree.quiesce();
            let engine = tree.engine();
            engine.validate_invariants().unwrap();
            let positions = (0..engine.block_count())
                .map(|block| engine.position_of(block).unwrap().leaf())
                .collect();
            (tree.memory().stats().clone(), drained, positions)
        })
        .collect()
}

fn run(case: Case, executor: Executor) -> (Outcome, Option<String>) {
    const REQUESTS: u64 = 120;
    let store = timed_store(&case, 40);
    let level_grows_at_start = store.posmap().stats().level_grows;
    let batch = BatchConfig {
        batch_size: 4,
        period: 30_000,
        queue_capacity: 32,
        pipelined: case.pipelined,
    };
    let zipf = Zipf::new(120);
    let mut rng = StdRng::seed_from_u64(99);

    let (mut fe, completions, registry) = executor.run(store, batch, |fe| {
        fe.activate_at(fe.store().now());
        let start = fe.next_launch();
        let mut completions = Vec::new();
        if case.closed_loop {
            let mut submitted = 0;
            while submitted < 6 {
                fe.submit(start, request(&zipf, &mut rng, submitted)).unwrap();
                submitted += 1;
            }
            let mut now = start;
            while submitted < REQUESTS {
                now += batch.period;
                let done = fe.advance_to(now).unwrap();
                for c in &done {
                    if submitted < REQUESTS {
                        fe.submit(c.done, request(&zipf, &mut rng, submitted)).unwrap();
                        submitted += 1;
                    }
                }
                completions.extend(done);
            }
        } else {
            // Open loop at 75 % of the slots; a full queue rejects.
            let gap = batch.period * 4 / 3 / batch.batch_size as u64;
            for i in 0..REQUESTS {
                let now = start + i * gap;
                let _ = fe.submit(now, request(&zipf, &mut rng, i));
                completions.extend(fe.advance_to(now).unwrap());
            }
        }
        completions.extend(fe.drain().unwrap());
        completions
    });

    let front_end = fe.stats();
    let store = fe.store_mut();
    let outcome = Outcome {
        front_end,
        store: store.stats(),
        posmap: store.posmap().stats(),
        now: store.now(),
        level_grows_at_start,
        trees: tree_states(store),
        completions,
    };
    (outcome, registry)
}

#[test]
fn the_helper_releases_exactly_what_inline_does() {
    for scheme in [Scheme::Ab, Scheme::AbChannelPar] {
        for depth in [1, 4] {
            for pipelined in [false, true] {
                for auto_scaling in [false, true] {
                    for closed_loop in [false, true] {
                        let case = Case { scheme, depth, pipelined, auto_scaling, closed_loop };
                        let [helper, inline, traced_helper, traced_inline] =
                            Executor::ALL.map(|executor| run(case, executor));
                        assert_eq!(helper.0, inline.0, "{case:?}");
                        assert_eq!(helper.0, traced_helper.0, "a collector changed it: {case:?}");
                        assert_eq!(helper.0, traced_inline.0, "{case:?}");
                        let registry = traced_helper.1.expect("traced");
                        assert_eq!(Some(&registry), traced_inline.1.as_ref(), "{case:?}");
                        for name in ["controller.gate.", "pipeline.occupancy", "stash.scan_passes"]
                        {
                            assert!(registry.contains(name), "{name} missing: {case:?}");
                        }

                        let helper = helper.0;
                        let s = helper.store;
                        assert!(s.data_accesses > 0 && s.dummy_data_accesses > 0, "{case:?}");
                        assert!(s.inserts > 0 && s.misses > 0, "{case:?}");
                        assert!(helper.front_end.coalesced > 0, "{case:?}");
                        assert!(helper.trees.len() >= 3, "a ladder of posmap trees: {case:?}");
                        if auto_scaling {
                            assert_eq!(helper.level_grows_at_start, 0, "{case:?}");
                            assert!(helper.posmap.level_grows > 0, "grows mid-run: {case:?}");
                        }
                    }
                }
            }
        }
    }
}

/// Requests each tree's DRAM twin has been handed: serviced plus queued.
fn requests_issued(store: &mut ObliviousStore) -> Vec<u64> {
    store
        .timed_trees()
        .into_iter()
        .map(|tree| tree.memory().stats().total_requests() + tree.memory().pending() as u64)
        .collect()
}

/// A full fixed-capacity store, then a batch whose second slot inserts a
/// new key: the insert fails after the first slot's chain was staged.
/// Returns the error, each twin's requests after it, and the next batch.
fn fail_mid_batch(
    executor: Executor,
    launch_first_slot_only: bool,
) -> (Option<OramError>, Vec<u64>, Vec<Completion>) {
    let case = Case {
        scheme: Scheme::Ab,
        depth: 4,
        pipelined: true,
        auto_scaling: false,
        closed_loop: false,
    };
    let mut store = timed_store(&case, 0);
    let capacity = store.capacity();
    for rank in 0..capacity {
        store.rmw_at(store.now(), &key_of(rank), &mut |_| Some(b"v".to_vec())).unwrap();
    }
    let before = requests_issued(&mut store);
    let batch = BatchConfig { batch_size: 4, period: 30_000, queue_capacity: 8, pipelined: true };

    let (_, out, _) = executor.run(store, batch, |fe| {
        fe.activate_at(fe.store().now());
        let at = fe.next_launch();
        fe.submit(at - 2, Request::Get { key: key_of(1) }).unwrap();
        let err = if launch_first_slot_only {
            // The reference: the failing batch's first slot, alone, on the
            // synchronous API.
            fe.store_mut().rmw_at(at, &key_of(1), &mut |_| None).unwrap();
            None
        } else {
            fe.submit(at - 1, Request::Put { key: key_of(capacity), value: b"x".to_vec() })
                .unwrap();
            fe.submit(at - 1, Request::Get { key: key_of(2) }).unwrap();
            Some(fe.advance_to(at).unwrap_err())
        };
        let after = requests_issued(fe.store_mut());
        let issued = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        if launch_first_slot_only {
            return (err, issued, Vec::new());
        }
        fe.submit(at, Request::Get { key: key_of(3) }).unwrap();
        fe.submit(at, Request::Get { key: key_of(capacity + 1) }).unwrap();
        (err, issued, fe.advance_to(at + batch.period).unwrap())
    });
    out
}

#[test]
fn an_engine_error_mid_batch_releases_the_slots_before_it() {
    let [helper, inline, traced_helper, _] = Executor::ALL;
    let (helper_err, helper_issued, helper_next) = fail_mid_batch(helper, false);
    let (inline_err, inline_issued, inline_next) = fail_mid_batch(inline, false);
    let (traced_err, traced_issued, traced_next) = fail_mid_batch(traced_helper, false);
    for err in [&helper_err, &inline_err, &traced_err] {
        assert!(matches!(err, Some(OramError::CapacityExhausted { .. })), "{err:?}");
    }
    assert_eq!(helper_issued, inline_issued, "every twin saw the same accesses");
    assert_eq!(helper_issued, traced_issued, "with a collector too");
    let (_, first_slot, _) = fail_mid_batch(helper, true);
    assert_eq!(helper_issued, first_slot, "exactly the first slot's chain was released");
    assert!(first_slot.iter().all(|&n| n > 0));
    assert_eq!(helper_next.len(), 2);
    assert_eq!(helper_next, inline_next, "the next batch completes identically");
    assert_eq!(helper_next, traced_next);
}
