//! Retirement is bookkeeping only: the same randomized request stream, with
//! the same completion-time queries in the same order, yields identical
//! cycles, statistics and scheduler state whether or not the caller retires
//! along the way — and a retire never takes a slot somebody can still need.

use aboram_dram::{DramConfig, MemOpKind, MemorySystem, Priority, RequestId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn retirement_moves_no_cycle_no_statistic_and_no_scheduler_state() {
    let cfg = DramConfig::default();
    // Retires cut short by a request still queued on another channel.
    let mut stopped_early = 0u32;
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plain = MemorySystem::new(cfg);
        let mut retiring = MemorySystem::new(cfg);
        let mut ids: Vec<RequestId> = Vec::new();
        let mut now = 0u64;
        for _ in 0..1_500 {
            now += rng.gen_range(0..400u64);
            let kind = if rng.gen_bool(0.4) { MemOpKind::Write } else { MemOpKind::Read };
            let pri = if rng.gen_bool(0.3) { Priority::Online } else { Priority::Offline };
            let tag = rng.gen_range(0..5u32);
            let n = rng.gen_range(1..=12usize);
            let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 20) * 64).collect();
            let a: Vec<_> =
                plain.enqueue_batch(kind, addrs.iter().copied(), pri, tag, now).collect();
            let b: Vec<_> =
                retiring.enqueue_batch(kind, addrs.iter().copied(), pri, tag, now).collect();
            assert_eq!(a, b, "retirement must not disturb id minting");
            ids.extend(a);

            let mark = ids.len() - retiring.tracked_requests();
            let action = rng.gen_range(0..5u32);
            if action == 1 || action == 2 {
                // Action 2 asks for the newest id: its channel runs up to it
                // while the other channels keep theirs queued.
                let at = if action == 2 { ids.len() - 1 } else { rng.gen_range(mark..ids.len()) };
                assert_eq!(plain.completion_time(ids[at]), retiring.completion_time(ids[at]));
            }
            if action >= 2 {
                let bound = if action == 2 { ids.len() } else { rng.gen_range(mark..=ids.len()) };
                let below = ids.get(bound).copied().unwrap_or_else(|| retiring.next_request_id());
                retiring.retire(below);
                let new_mark = ids.len() - retiring.tracked_requests();
                assert!((mark..=bound).contains(&new_mark), "the mark only moves up to the bound");
                assert!(
                    retiring.tracked_requests() >= retiring.pending(),
                    "a queued request lost its slot"
                );
                if action == 2 && new_mark < bound {
                    assert!(retiring.pending() > 0, "only an unresolved id stops a retire");
                    stopped_early += 1;
                }
            }
        }

        let mark = ids.len() - retiring.tracked_requests();
        for &id in &ids[mark..] {
            assert_eq!(plain.completion_time(id), retiring.completion_time(id));
        }
        plain.drain();
        retiring.drain();
        assert_eq!(plain.stats(), retiring.stats());
        retiring.retire(retiring.next_request_id());
        assert_eq!(retiring.tracked_requests(), 0);
        assert_eq!(plain.tracked_requests(), ids.len(), "a caller that never retires keeps all");

        // What the drained schedulers still hold (open rows, bus and activate
        // cursors) decides when later requests complete: a further burst is
        // served at identical cycles.
        for _ in 0..400 {
            now += rng.gen_range(0..40u64);
            let kind = if rng.gen_bool(0.4) { MemOpKind::Write } else { MemOpKind::Read };
            let pri = if rng.gen_bool(0.3) { Priority::Online } else { Priority::Offline };
            let addr = rng.gen_range(0..1u64 << 20) * 64;
            let a = plain.enqueue(kind, addr, pri, 0, now);
            let b = retiring.enqueue(kind, addr, pri, 0, now);
            assert_eq!(a, b, "ids keep counting across the final retire");
            assert_eq!(plain.completion_time(a), retiring.completion_time(b));
        }
        plain.drain();
        retiring.drain();
        assert_eq!(plain.stats(), retiring.stats());
    }
    assert!(stopped_early > 100, "the stream must exercise the stop: {stopped_early}");
}
