//! Property-based tests of the service layer: for arbitrary get/put
//! interleavings the oblivious store must agree with a plain `HashMap`,
//! across all six paper schemes and both backend twins, through the
//! batching front-end — and the real recursion chain must agree with the
//! core crate's accounting model.

use aboram_core::{OramConfig, PlbConfig, PosMapHierarchy, Scheme};
use aboram_dram::DramConfig;
use aboram_service::{
    BackendKind, BatchConfig, BatchingFrontEnd, ObliviousStore, Request, StoreConfig,
    ROOT_MAX_ENTRIES,
};
use proptest::prelude::*;
use std::collections::HashMap;

const SCHEMES: [Scheme; 6] =
    [Scheme::PlainRing, Scheme::Baseline, Scheme::Ir, Scheme::DR, Scheme::NS, Scheme::Ab];

#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    Put(u8, Vec<u8>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6).prop_map(Op::Get),
        ((0u8..6), proptest::collection::vec(any::<u8>(), 0..12)).prop_map(|(k, v)| Op::Put(k, v)),
    ]
}

fn key(idx: u8) -> Vec<u8> {
    format!("key-{idx}").into_bytes()
}

/// Replays `ops` against `store` and a `HashMap` model in lockstep,
/// asserting every get agrees.
fn check_against_model(store: &mut ObliviousStore, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    for op in ops {
        match op {
            Op::Get(k) => {
                prop_assert_eq!(store.get(&key(*k)), model.get(&key(*k)).cloned());
            }
            Op::Put(k, v) => {
                store.put(&key(*k), v);
                model.insert(key(*k), v.clone());
            }
        }
    }
    // Final sweep: every key the model knows reads back identically.
    for k in 0u8..6 {
        prop_assert_eq!(store.get(&key(k)), model.get(&key(k)).cloned());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings agree with the model under every paper scheme
    /// (untimed backend).
    #[test]
    fn store_matches_model_all_schemes(
        ops in proptest::collection::vec(arb_op(), 1..30),
        seed in 1u64..1000,
    ) {
        for scheme in SCHEMES {
            let mut cfg = StoreConfig::new(8, scheme);
            cfg.seed = seed;
            let mut store = ObliviousStore::new(&cfg).unwrap();
            check_against_model(&mut store, &ops)?;
            store.data_engine().validate_invariants().unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Auto-scaling stores keep agreeing with the model through level
    /// growth, under every paper scheme: preload enough distinct keys to
    /// fill the starting tree and then the grown one, then replay a random
    /// interleaving.
    #[test]
    fn auto_scaling_store_matches_model_across_growth(
        ops in proptest::collection::vec(arb_op(), 1..30),
        seed in 1u64..1000,
    ) {
        for scheme in SCHEMES {
            let mut cfg = StoreConfig::auto_scaling(8, 10, scheme);
            cfg.seed = seed;
            let mut store = ObliviousStore::new(&cfg).unwrap();

            // The 9-level capacity plus a few: the first insert past the
            // materialized tree grows 8 → 9, the first past 9 levels' worth
            // grows 9 → 10.
            let nine = OramConfig::builder(9, scheme).build().unwrap().real_block_count();
            let fill = nine + 4;
            for i in 0..fill {
                store.put(format!("fill-{i}").as_bytes(), &i.to_le_bytes());
            }
            let grows = store.posmap().stats().level_grows;
            prop_assert!(grows >= 2, "expected two growth events, saw {}", grows);

            check_against_model(&mut store, &ops)?;
            // Preloaded keys survive both growths.
            for i in (0..fill).step_by(97) {
                prop_assert_eq!(
                    store.get(format!("fill-{i}").as_bytes()),
                    Some(i.to_le_bytes().to_vec())
                );
            }
            store.data_engine().validate_invariants().unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The cycle-accurate twin serves identical contents (spot-checked on
    /// the baseline and the paper's combined scheme — the protocol layer is
    /// backend-independent, the clock is not).
    #[test]
    fn timed_backend_matches_model(
        ops in proptest::collection::vec(arb_op(), 1..16),
        seed in 1u64..1000,
    ) {
        for scheme in [Scheme::Baseline, Scheme::Ab] {
            let mut cfg = StoreConfig::new(8, scheme);
            cfg.seed = seed;
            cfg.backend = BackendKind::Timed(DramConfig::default());
            let mut store = ObliviousStore::new(&cfg).unwrap();
            check_against_model(&mut store, &ops)?;
            prop_assert!(store.now() > 0, "the DRAM twin charges cycles");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched, coalesced execution is sequentially consistent: every get
    /// (including duplicates sharing one slot) observes exactly what a
    /// serial arrival-order replay produces.
    #[test]
    fn batching_agrees_with_serial_replay(
        ops in proptest::collection::vec(arb_op(), 1..40),
        batch_size in 1usize..6,
        seed in 1u64..1000,
    ) {
        let mut cfg = StoreConfig::new(8, Scheme::Ab);
        cfg.seed = seed;
        let store = ObliviousStore::new(&cfg).unwrap();
        let mut fe = BatchingFrontEnd::new(
            store,
            BatchConfig { batch_size, period: 10_000, queue_capacity: ops.len() + 1, pipelined: false },
        );

        // Submit everything up front; ids are issued in arrival order.
        let mut expected: HashMap<u64, Option<Vec<u8>>> = HashMap::new();
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            let now = i as u64;
            match op {
                Op::Get(k) => {
                    let id = fe.submit(now, Request::Get { key: key(*k) }).unwrap();
                    expected.insert(id, model.get(&key(*k)).cloned());
                }
                Op::Put(k, v) => {
                    let id = fe
                        .submit(now, Request::Put { key: key(*k), value: v.clone() })
                        .unwrap();
                    expected.insert(id, None);
                    model.insert(key(*k), v.clone());
                }
            }
        }

        let done = fe.drain().unwrap();
        prop_assert_eq!(done.len(), ops.len(), "every accepted request completes");
        for c in &done {
            prop_assert_eq!(&c.value, expected.get(&c.id).unwrap());
            prop_assert!(c.done >= c.arrived);
        }
        // The whole run was served by full fixed-size batches.
        let stats = fe.stats();
        prop_assert_eq!(
            stats.real_slots + stats.dummy_slots,
            stats.batches * batch_size as u64,
            "every batch was padded to exactly batch_size"
        );
        prop_assert_eq!(
            stats.real_slots + stats.coalesced,
            ops.len() as u64,
            "every request either owned a slot or coalesced into one"
        );
    }
}

/// The real chain and `PosMapHierarchy` (the core crate's accounting
/// model) describe the same recursion: identical ladder depth, and — with
/// the PLB disabled so the model pays full depth like the cacheless chain
/// — identical extra-access counts up to the model's singleton-cache hits.
#[test]
fn real_chain_matches_accounting_model() {
    let cfg = StoreConfig::new(9, Scheme::Ab);
    let mut store = ObliviousStore::new(&cfg).unwrap();
    let depth = store.posmap().chain_depth() as u64;

    let data_blocks = store.capacity();
    let model_cfg =
        PlbConfig { plb_bytes: 0, onchip_posmap_bytes: ROOT_MAX_ENTRIES * 8, entry_bytes: 8 };
    let mut model = PosMapHierarchy::new(data_blocks, model_cfg);
    assert_eq!(
        u64::from(model.offchip_levels()),
        depth,
        "real ladder and accounting ladder disagree on depth"
    );

    // Same logical access sequence on both sides: key i occupies block i
    // (the store's free list allocates in order).
    let n: u64 = 200;
    let mut model_extra = 0u64;
    for i in 0..n {
        store.put(format!("k{}", i % 40).as_bytes(), &i.to_le_bytes());
        model_extra += u64::from(model.access(i % 40));
    }
    let real_extra = store.posmap().stats().tree_accesses;
    assert_eq!(real_extra, n * depth, "the chain pays full depth on every access");
    // The zero-byte PLB still holds one residual entry, so the model may
    // hit occasionally; the two counts must agree within 5 %.
    let diff = real_extra.abs_diff(model_extra);
    assert!(
        diff * 20 <= real_extra,
        "accounting model diverged: real {real_extra}, model {model_extra}"
    );
}

/// Two stores with the same seed serve byte-identical replies on the same
/// workload — the determinism contract the parallel bench cells rely on.
#[test]
fn identical_seeds_replay_identically() {
    let run = || {
        let mut cfg = StoreConfig::new(8, Scheme::Ab);
        cfg.seed = 77;
        let mut store = ObliviousStore::new(&cfg).unwrap();
        let mut log = Vec::new();
        for i in 0u32..30 {
            store.put(format!("k{}", i % 7).as_bytes(), &i.to_le_bytes());
            log.push((store.get(format!("k{}", (i + 3) % 7).as_bytes()), store.now()));
        }
        log
    };
    assert_eq!(run(), run());
}
