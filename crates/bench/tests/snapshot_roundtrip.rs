//! Property test for the engine snapshot's core claim: for every scheme,
//! snapshotting an engine mid-run, restoring it and continuing is
//! indistinguishable — bit for bit — from never having snapshotted at all.
//! The final engine snapshots (stats, RNG stream, tree and metadata state)
//! and the continuation's memory-traffic counts must match exactly.

use aboram_core::{AccessKind, CountingSink, OramConfig, OramOp, RingOram, Scheme};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SCHEMES: [Scheme; 6] =
    [Scheme::PlainRing, Scheme::Baseline, Scheme::Ir, Scheme::DR, Scheme::NS, Scheme::Ab];

/// Drives `n` uniform reads from `seed` into `oram`, counting traffic.
fn drive(oram: &mut RingOram, sink: &mut CountingSink, seed: u64, n: u64) {
    let blocks = oram.config().real_block_count();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        oram.access(AccessKind::Read, rng.gen_range(0..blocks), None, sink)
            .expect("protocol access ok");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_restore_run_equals_straight_line_run(
        scheme_idx in 0usize..SCHEMES.len(),
        seed in 0u64..1_000_000,
        warmup in 50u64..300,
        tail in 20u64..150,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let cfg = OramConfig::builder(10, scheme).seed(seed).build().expect("config");
        let warm_seed = seed ^ 0xaaaa;
        let tail_seed = seed ^ 0x7717;

        // Straight line: warm-up then tail on one engine, no snapshot.
        let mut straight = RingOram::new(&cfg).expect("engine builds");
        drive(&mut straight, &mut CountingSink::new(), warm_seed, warmup);
        let mut straight_sink = CountingSink::new();
        drive(&mut straight, &mut straight_sink, tail_seed, tail);

        // Round trip: identical warm-up, snapshot, restore, then the tail.
        let mut warmed = RingOram::new(&cfg).expect("engine builds");
        drive(&mut warmed, &mut CountingSink::new(), warm_seed, warmup);
        let snapshot = warmed.snapshot().expect("snapshot");
        drop(warmed);
        let mut restored = RingOram::restore(&cfg, &snapshot).expect("restore");
        restored.validate_invariants().expect("restored engine is sound");
        let mut restored_sink = CountingSink::new();
        drive(&mut restored, &mut restored_sink, tail_seed, tail);

        prop_assert_eq!(
            straight.snapshot().expect("snapshot"),
            restored.snapshot().expect("snapshot"),
            "{}: final engine state diverged after a snapshot round trip", scheme
        );
        for op in OramOp::ALL {
            prop_assert_eq!(
                straight_sink.total(op),
                restored_sink.total(op),
                "{}: {} traffic diverged in the continuation", scheme, op.name()
            );
        }
    }
}
