//! The batching front-end: fixed-schedule oblivious request batches.
//!
//! Individual requests leak through *when* they run, not just where they
//! touch memory. The front-end closes that channel with a fixed schedule:
//! a batch of exactly [`BatchConfig::batch_size`] accesses launches every
//! [`BatchConfig::period`] cycles whether clients sent 0 or 100 requests —
//! real slots serve queued keys, the remainder is padded with dummy
//! requests that are bus-indistinguishable from real ones. Concurrent
//! requests to the *same* key coalesce into one slot (they share a single
//! ORAM access, applied in arrival order), and a bounded queue provides
//! admission control: when it is full, new requests are rejected at
//! submission instead of silently stretching latency.
//!
//! Every request in a batch completes at the batch's end — the batch is
//! the privacy unit, so per-request finish times reveal nothing about
//! which slot was real.
//!
//! A batch is staged slot by slot on the calling thread — the engines'
//! protocol work, the values the slots observe, the cipher — while a timed
//! store releases the staged accesses into its DRAM twins on its helper
//! thread (see [`ObliviousStore`]'s module docs). The front-end waits once,
//! after the last slot, for the slots' completion times: the batch's end,
//! the per-slot stamps of [`BatchConfig::pipelined`] and the store's clock
//! all need them.

use crate::store::{ObliviousStore, MAX_VALUE_BYTES};
use aboram_core::OramError;
use std::collections::VecDeque;

/// Fixed batch schedule and queue bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Distinct-key slots per batch; shortfall is dummy-padded.
    pub batch_size: usize,
    /// Cycles between batch launches (the first launches at `period`).
    pub period: u64,
    /// Queue bound for admission control.
    pub queue_capacity: usize,
    /// Per-access completion stamping for pipelined stores. The default
    /// (`false`) stamps every request with the batch's end time — the
    /// batch is the privacy unit. `true` stamps each request with its own
    /// slot's completion: the finish time reveals the request's slot
    /// position within the batch *to its own requester only* (the bus
    /// schedule is unchanged — every batch still issues `batch_size`
    /// indistinguishable accesses in the same fixed order), and in
    /// exchange the latency benefit of an access-pipelined backend becomes
    /// visible per request instead of being flattened to the slowest slot.
    pub pipelined: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { batch_size: 8, period: 50_000, queue_capacity: 64, pipelined: false }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Look up a key.
    Get {
        /// The key.
        key: Vec<u8>,
    },
    /// Insert or overwrite a key.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value (at most [`MAX_VALUE_BYTES`] bytes).
        value: Vec<u8>,
    },
}

impl Request {
    /// The key this request addresses.
    pub fn key(&self) -> &[u8] {
        match self {
            Request::Get { key } | Request::Put { key, .. } => key,
        }
    }
}

/// A finished request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Ticket returned by [`BatchingFrontEnd::submit`].
    pub id: u64,
    /// Submission time.
    pub arrived: u64,
    /// Completion time: the batch's end (identical for every request in
    /// the batch) by default, or the request's own slot completion when
    /// per-access stamping is on (see [`BatchConfig::pipelined`]).
    pub done: u64,
    /// The observed value: for a get, the value at its point in the
    /// batch's arrival order (`None` on miss); always `None` for a put.
    pub value: Option<Vec<u8>>,
}

impl Completion {
    /// Queueing plus service latency.
    pub fn latency(&self) -> u64 {
        self.done.saturating_sub(self.arrived)
    }
}

/// The queue was full; the request was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionRejected;

impl std::fmt::Display for AdmissionRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("request queue full")
    }
}

impl std::error::Error for AdmissionRejected {}

/// Front-end counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontEndStats {
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests bounced by admission control.
    pub rejected: u64,
    /// Batches launched (including all-dummy ones).
    pub batches: u64,
    /// Slots that served real keys.
    pub real_slots: u64,
    /// Slots padded with dummy requests.
    pub dummy_slots: u64,
    /// Requests that shared another request's slot (same-key coalescing).
    pub coalesced: u64,
}

struct Queued {
    id: u64,
    arrived: u64,
    req: Request,
}

/// A fixed-schedule batching front-end over one [`ObliviousStore`].
pub struct BatchingFrontEnd {
    store: ObliviousStore,
    cfg: BatchConfig,
    queue: VecDeque<Queued>,
    next_id: u64,
    next_launch: u64,
    stats: FrontEndStats,
}

impl std::fmt::Debug for BatchingFrontEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchingFrontEnd")
            .field("cfg", &self.cfg)
            .field("queued", &self.queue.len())
            .field("next_launch", &self.next_launch)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl BatchingFrontEnd {
    /// Wraps `store` with schedule `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on a zero batch size, period, or queue capacity.
    pub fn new(store: ObliviousStore, cfg: BatchConfig) -> Self {
        assert!(cfg.batch_size > 0, "batch size must be nonzero");
        assert!(cfg.period > 0, "batch period must be nonzero");
        assert!(cfg.queue_capacity > 0, "queue capacity must be nonzero");
        BatchingFrontEnd {
            store,
            cfg,
            queue: VecDeque::new(),
            next_id: 0,
            next_launch: cfg.period,
            stats: FrontEndStats::default(),
        }
    }

    /// Moves the schedule origin so the next batch launches at the first
    /// tick strictly after `now`, without running the skipped batches —
    /// service bring-up. The fixed schedule begins when the service goes
    /// live (after pre-loading the store), and the activation time depends
    /// only on initialization, never on client traffic.
    ///
    /// # Panics
    ///
    /// Panics once requests are queued: skipping scheduled batches after
    /// accepting traffic would make the schedule workload-dependent.
    pub fn activate_at(&mut self, now: u64) {
        assert!(self.queue.is_empty(), "activate the schedule before accepting traffic");
        self.next_launch = (now / self.cfg.period + 1) * self.cfg.period;
    }

    /// Offers a request at time `now`. Returns a completion ticket, or
    /// rejects if the queue is full.
    ///
    /// # Errors
    ///
    /// [`AdmissionRejected`] when the queue is at capacity.
    ///
    /// # Panics
    ///
    /// Panics if a put's value exceeds [`MAX_VALUE_BYTES`].
    pub fn submit(&mut self, now: u64, req: Request) -> Result<u64, AdmissionRejected> {
        if let Request::Put { value, .. } = &req {
            assert!(value.len() <= MAX_VALUE_BYTES, "value exceeds {MAX_VALUE_BYTES} bytes");
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            self.stats.rejected += 1;
            return Err(AdmissionRejected);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(Queued { id, arrived: now, req });
        self.stats.accepted += 1;
        Ok(id)
    }

    /// Runs every batch scheduled at or before `now` (empty slots run as
    /// dummies — the schedule is workload-independent) and returns the
    /// completions.
    ///
    /// # Errors
    ///
    /// Propagates engine protocol errors.
    pub fn advance_to(&mut self, now: u64) -> Result<Vec<Completion>, OramError> {
        let mut out = Vec::new();
        while self.next_launch <= now {
            let at = self.next_launch;
            out.extend(self.launch_one(at)?);
            self.next_launch += self.cfg.period;
        }
        Ok(out)
    }

    /// Keeps launching scheduled batches until the queue is empty —
    /// end-of-run draining.
    ///
    /// # Errors
    ///
    /// Propagates engine protocol errors.
    pub fn drain(&mut self) -> Result<Vec<Completion>, OramError> {
        let mut out = Vec::new();
        while !self.queue.is_empty() {
            let at = self.next_launch;
            out.extend(self.launch_one(at)?);
            self.next_launch += self.cfg.period;
        }
        Ok(out)
    }

    /// One batch at launch time `at`: coalesce, serve, pad, stamp.
    fn launch_one(&mut self, at: u64) -> Result<Vec<Completion>, OramError> {
        self.stats.batches += 1;

        // Pull eligible requests (arrived by launch time) into per-key
        // groups, FIFO by first arrival. A key already in the batch keeps
        // absorbing its later requests (coalescing) even once all
        // distinct-key slots are claimed.
        let mut groups: Vec<(Vec<u8>, Vec<Queued>)> = Vec::new();
        let mut rest: VecDeque<Queued> = VecDeque::new();
        for q in self.queue.drain(..) {
            if q.arrived > at {
                rest.push_back(q);
                continue;
            }
            if let Some((_, items)) = groups.iter_mut().find(|(k, _)| k == q.req.key()) {
                self.stats.coalesced += 1;
                items.push(q);
            } else if groups.len() < self.cfg.batch_size {
                groups.push((q.req.key().to_vec(), vec![q]));
            } else {
                rest.push_back(q);
            }
        }
        self.queue = rest;

        // Stage every slot, then wait once for the slots' `done`s: a timed
        // store releases the slots on its helper thread meanwhile. An engine
        // error ends the batch; the slots before it are still released.
        let mut observed = Vec::with_capacity(groups.len());
        self.store.open_batch(at, true);
        let staged = self.stage_slots(&groups, &mut observed);
        let dones = self.store.close_batch();
        staged?;

        // The batch is the privacy unit: everything completes together —
        // unless per-access stamping was opted into (see
        // [`BatchConfig::pipelined`]), which keeps each slot's own
        // completion time.
        let batch_end = dones.iter().copied().fold(at, u64::max);
        let mut completions = Vec::new();
        for ((_, items), (observed, &done)) in groups.iter().zip(observed.into_iter().zip(dones)) {
            let done = if self.cfg.pipelined { done } else { batch_end };
            for (q, value) in items.iter().zip(observed) {
                completions.push(Completion { id: q.id, arrived: q.arrived, done, value });
            }
        }
        Ok(completions)
    }

    /// Stages one slot per group, then pads to the fixed batch size with
    /// dummy slots, pushing what each group's requests observed.
    fn stage_slots(
        &mut self,
        groups: &[(Vec<u8>, Vec<Queued>)],
        observed: &mut Vec<Vec<Option<Vec<u8>>>>,
    ) -> Result<(), OramError> {
        for (key, items) in groups {
            self.stats.real_slots += 1;
            // One ORAM access serves the whole group: apply the group's
            // operations in arrival order against the in-flight value.
            let mut seen: Vec<Option<Vec<u8>>> = Vec::with_capacity(items.len());
            self.store.slot_rmw(key, &mut |current| {
                let mut cur = current;
                let mut wrote = false;
                for q in items {
                    match &q.req {
                        Request::Get { .. } => seen.push(cur.clone()),
                        Request::Put { value, .. } => {
                            cur = Some(value.clone());
                            wrote = true;
                            seen.push(None);
                        }
                    }
                }
                if wrote {
                    cur
                } else {
                    None
                }
            })?;
            observed.push(seen);
        }

        // Pad to the fixed batch size: the bus sees `batch_size` requests
        // no matter what the clients did.
        for _ in groups.len()..self.cfg.batch_size {
            self.stats.dummy_slots += 1;
            self.store.slot_dummy()?;
        }
        Ok(())
    }

    /// The wrapped store.
    pub fn store(&self) -> &ObliviousStore {
        &self.store
    }

    /// Mutable store access (pre-loading, audits).
    pub fn store_mut(&mut self) -> &mut ObliviousStore {
        &mut self.store
    }

    /// The schedule in force.
    pub fn config(&self) -> BatchConfig {
        self.cfg
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Launch time of the next scheduled batch.
    pub fn next_launch(&self) -> u64 {
        self.next_launch
    }

    /// Front-end counters.
    pub fn stats(&self) -> FrontEndStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use aboram_core::Scheme;

    fn front(batch_size: usize, period: u64, capacity: usize) -> BatchingFrontEnd {
        let store = ObliviousStore::new(&StoreConfig::new(8, Scheme::Ab)).unwrap();
        let cfg = BatchConfig { batch_size, period, queue_capacity: capacity, pipelined: false };
        BatchingFrontEnd::new(store, cfg)
    }

    fn get(key: &[u8]) -> Request {
        Request::Get { key: key.to_vec() }
    }

    fn put(key: &[u8], value: &[u8]) -> Request {
        Request::Put { key: key.to_vec(), value: value.to_vec() }
    }

    #[test]
    fn coalesced_duplicates_share_one_slot_and_agree() {
        let mut fe = front(4, 1_000, 16);
        fe.submit(0, put(b"k", b"v1")).unwrap();
        fe.submit(1, get(b"k")).unwrap();
        fe.submit(2, get(b"k")).unwrap();
        fe.submit(3, get(b"other")).unwrap();
        let done = fe.advance_to(1_000).unwrap();
        assert_eq!(done.len(), 4);
        let k_gets: Vec<_> = done.iter().filter(|c| c.id == 1 || c.id == 2).collect();
        assert!(k_gets.iter().all(|c| c.value.as_deref() == Some(b"v1".as_slice())));
        assert_eq!(done.iter().find(|c| c.id == 3).unwrap().value, None, "miss");
        let stats = fe.stats();
        assert_eq!(stats.real_slots, 2, "four requests, two distinct keys");
        assert_eq!(stats.coalesced, 2);
        assert_eq!(stats.dummy_slots, 2, "padded to batch_size = 4");
        assert!(done.iter().all(|c| c.done == done[0].done), "batch completes as one unit");
    }

    #[test]
    fn batch_order_applies_within_a_slot() {
        let mut fe = front(2, 500, 16);
        fe.submit(0, get(b"x")).unwrap();
        fe.submit(1, put(b"x", b"a")).unwrap();
        fe.submit(2, get(b"x")).unwrap();
        fe.submit(3, put(b"x", b"b")).unwrap();
        fe.submit(4, get(b"x")).unwrap();
        let done = fe.advance_to(500).unwrap();
        let value = |id: u64| done.iter().find(|c| c.id == id).unwrap().value.clone();
        assert_eq!(value(0), None, "before the first put");
        assert_eq!(value(2).as_deref(), Some(b"a".as_slice()));
        assert_eq!(value(4).as_deref(), Some(b"b".as_slice()));
        assert_eq!(fe.store().len(), 1);
        assert_eq!(fe.stats().real_slots, 1, "five requests, one access");
    }

    #[test]
    fn admission_control_bounces_when_full() {
        let mut fe = front(2, 1_000, 3);
        for i in 0..3 {
            fe.submit(i, get(format!("k{i}").as_bytes())).unwrap();
        }
        assert_eq!(fe.submit(3, get(b"k3")), Err(AdmissionRejected));
        assert_eq!(fe.stats().rejected, 1);
        fe.advance_to(1_000).unwrap();
        fe.submit(4, get(b"k3")).unwrap();
    }

    #[test]
    fn schedule_is_workload_independent() {
        let mut fe = front(3, 100, 16);
        let done = fe.advance_to(350).unwrap();
        assert!(done.is_empty(), "no requests, no completions");
        let stats = fe.stats();
        assert_eq!(stats.batches, 3, "batches at 100, 200, 300 ran anyway");
        assert_eq!(stats.dummy_slots, 9, "every slot was a dummy");
    }

    #[test]
    fn overflow_requests_wait_for_the_next_batch() {
        let mut fe = front(2, 1_000, 16);
        for i in 0..5u64 {
            fe.submit(i, get(format!("k{i}").as_bytes())).unwrap();
        }
        let first = fe.advance_to(1_000).unwrap();
        assert_eq!(first.len(), 2, "two distinct-key slots");
        assert_eq!(fe.queue_len(), 3);
        let second = fe.advance_to(2_000).unwrap();
        assert_eq!(second.len(), 2);
        let third = fe.advance_to(3_000).unwrap();
        assert_eq!(third.len(), 1);
        assert!(third[0].latency() >= 2_000, "third-batch request waited two periods");
    }

    #[test]
    fn activation_skips_the_preload_era() {
        let mut fe = front(2, 1_000, 16);
        fe.store_mut().put(b"warm", b"v");
        fe.activate_at(12_345);
        assert_eq!(fe.next_launch(), 13_000, "next tick strictly after activation");
        fe.submit(13_000, get(b"warm")).unwrap();
        let done = fe.advance_to(13_000).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].value.as_deref(), Some(b"v".as_slice()));
        assert_eq!(fe.stats().batches, 1, "the preload-era backlog never ran");
    }

    #[test]
    fn pipelined_stamping_exposes_per_slot_completions() {
        use crate::store::BackendKind;
        use aboram_dram::DramConfig;

        let run = |pipelined: bool, depth: u8| {
            let mut store_cfg = StoreConfig::new(8, Scheme::Ab);
            store_cfg.backend = BackendKind::Timed(DramConfig::default());
            store_cfg.pipeline_depth = depth;
            let store = ObliviousStore::new(&store_cfg).unwrap();
            let cfg = BatchConfig { batch_size: 4, period: 1_000, queue_capacity: 16, pipelined };
            let mut fe = BatchingFrontEnd::new(store, cfg);
            for i in 0..4u64 {
                fe.submit(i, put(format!("k{i}").as_bytes(), b"v")).unwrap();
            }
            fe.advance_to(1_000).unwrap()
        };

        let flat = run(false, 1);
        assert!(flat.iter().all(|c| c.done == flat[0].done), "batch-end stamping by default");

        let piped = run(true, 4);
        assert_eq!(piped.len(), 4);
        assert!(
            piped.iter().any(|c| c.done != piped[0].done),
            "per-access stamping differentiates slot completions"
        );
        let max_piped = piped.iter().map(|c| c.done).max().unwrap();
        let flat_end = flat[0].done;
        assert!(
            max_piped <= flat_end,
            "pipelined batch finishes no later: {max_piped} vs {flat_end}"
        );
    }

    #[test]
    fn a_timed_batch_blocks_once_and_the_synchronous_api_never() {
        use crate::store::BackendKind;
        use aboram_dram::DramConfig;

        // Slots × ladder depth: 2 × 2 posmap trees, then 8 × 3.
        for (levels, batch_size, depth) in [(8, 2, 2), (11, 8, 3)] {
            let mut store_cfg = StoreConfig::new(levels, Scheme::Ab);
            store_cfg.backend = BackendKind::Timed(DramConfig::default());
            let mut store = ObliviousStore::new(&store_cfg).unwrap();
            for k in 0..64u64 {
                store.rmw_at(store.now(), &k.to_le_bytes(), &mut |_| Some(vec![1])).unwrap();
            }
            store.rmw_at(store.now(), b"absent", &mut |_| None).unwrap();
            assert_eq!(store.lane_counts().lane.spawns, 0, "the synchronous API stays inline");

            let cfg =
                BatchConfig { batch_size, period: 4_000, queue_capacity: 64, pipelined: false };
            let mut fe = BatchingFrontEnd::new(store, cfg);
            fe.activate_at(fe.store().now());
            let batches: usize = if batch_size == 2 { 1_000 } else { 50 };
            for i in 0..batches {
                let at = fe.next_launch();
                fe.submit(at - 1, get(&(i as u64 % 80).to_le_bytes())).unwrap();
                fe.advance_to(at).unwrap();
            }
            let counts = fe.store().lane_counts();
            assert_eq!(fe.store().posmap().chain_depth(), depth);
            assert_eq!(counts.lane.spawns, 1, "one helper for the store's lifetime");
            assert_eq!(counts.threaded_batches, batches, "every batch ran on the helper");
            assert_eq!(counts.lane.waits, batches, "one wait per batch, whatever its size");

            let helper = counts.lane.helper_alive;
            assert!(helper.upgrade().is_some(), "the helper lives while the store does");
            drop(fe);
            assert!(helper.upgrade().is_none(), "dropping the store joins its helper");
        }
    }

    #[test]
    fn drain_empties_the_queue() {
        let mut fe = front(2, 1_000, 64);
        for i in 0..9u64 {
            fe.submit(0, put(format!("k{i}").as_bytes(), b"v")).unwrap();
        }
        let done = fe.drain().unwrap();
        assert_eq!(done.len(), 9);
        assert_eq!(fe.queue_len(), 0);
        assert_eq!(fe.store().len(), 9);
    }
}
