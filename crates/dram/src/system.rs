//! The multi-channel memory system façade.

use crate::channel::{Channel, MemOpKind, Priority, RequestId};
use crate::config::DramConfig;
use crate::mapping::DecodedAddr;
use crate::stats::MemoryStats;

/// Number of distinct traffic tags the statistics track. Tags are opaque to
/// the memory system; the ORAM layer uses them to attribute traffic to
/// readPath / evictPath / earlyReshuffle / background eviction / metadata.
pub(crate) const TAG_SLOTS: usize = 8;

/// A multi-channel DRAM system with per-channel FR-FCFS scheduling.
///
/// Usage contract: callers enqueue requests with **non-decreasing arrival
/// times** (the natural order of a trace-driven simulation) and may then ask
/// for any request's [`completion_time`](MemorySystem::completion_time),
/// which lazily runs the affected channel forward until that request has
/// been serviced.
///
/// A request's slot (9 B) lives until its owner calls
/// [`retire`](MemorySystem::retire) past it; a caller that never retires may
/// query every id for the whole run and pays memory proportional to the run
/// length. Retirement is bookkeeping only: it never runs a channel, so the
/// simulated schedule and [`MemoryStats`] are the same with or without it.
///
/// # Example
///
/// ```
/// use aboram_dram::{DramConfig, MemorySystem, MemOpKind, Priority};
///
/// let mut mem = MemorySystem::new(DramConfig::default());
/// let a = mem.enqueue(MemOpKind::Read, 0, Priority::Online, 0, 0);
/// let b = mem.enqueue(MemOpKind::Read, 64, Priority::Online, 0, 0);
/// assert!(mem.completion_time(b) > mem.completion_time(a));
/// // Both are resolved and nobody will ask again: forget them.
/// mem.retire(mem.next_request_id());
/// assert_eq!(mem.tracked_requests(), 0);
/// mem.drain();
/// assert_eq!(mem.stats().total_requests(), 2);
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    cfg: DramConfig,
    channels: Vec<Channel>,
    stats: MemoryStats,
    /// Raw id of slot 0 of the two tables below: the retirement mark. Ids
    /// are dense and monotonic, so request `id` lives at `id - base`.
    base: u64,
    /// Completion cycle per live request ([`NOT_DONE`] until scheduled).
    completions: Vec<u64>,
    /// Owning channel per live request.
    routing: Vec<u8>,
}

/// Sentinel for "not yet scheduled" in [`MemorySystem::completions`].
/// Completion cycles are CPU cycles and can never reach `u64::MAX`.
const NOT_DONE: u64 = u64::MAX;

/// The contiguous block of [`RequestId`]s minted by one
/// [`MemorySystem::enqueue_batch`] or [`MemorySystem::enqueue_decoded`] call,
/// in issue order.
#[derive(Debug, Clone)]
pub struct RequestIdRange {
    next: u64,
    end: u64,
}

impl Iterator for RequestIdRange {
    type Item = RequestId;

    #[inline]
    fn next(&mut self) -> Option<RequestId> {
        if self.next < self.end {
            let id = RequestId(self.next);
            self.next += 1;
            Some(id)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.next) as usize;
        (n, Some(n))
    }

    /// Constant time, so a holder of the range can address its `n`-th
    /// request without keeping an id per request.
    #[inline]
    fn nth(&mut self, n: usize) -> Option<RequestId> {
        self.next = self.end.min(self.next.saturating_add(n as u64));
        self.next()
    }
}

impl ExactSizeIterator for RequestIdRange {}

/// Refuses a geometry the address map cannot divide by.
fn check_geometry(cfg: &DramConfig) {
    assert!(
        cfg.channels > 0 && cfg.ranks > 0 && cfg.banks > 0 && cfg.row_bytes >= 64,
        "invalid DRAM geometry: channels, ranks and banks must be non-zero and row_bytes at \
         least one 64 B line (got {} x {} x {}, {} B rows)",
        cfg.channels,
        cfg.ranks,
        cfg.banks,
        cfg.row_bytes,
    );
}

impl MemorySystem {
    /// Creates a memory system from a configuration.
    ///
    /// # Panics
    ///
    /// "invalid DRAM geometry" — `channels`, `ranks` or `banks` is zero, or
    /// `row_bytes` is below one 64 B line. Checked once, here, so address
    /// decoding never divides by zero.
    pub fn new(cfg: DramConfig) -> Self {
        check_geometry(&cfg);
        let channels = (0..cfg.channels).map(|_| Channel::new(&cfg)).collect();
        let banks = cfg.banks_per_channel() as usize;
        MemorySystem {
            cfg,
            channels,
            stats: MemoryStats::new(TAG_SLOTS, usize::from(cfg.channels), banks),
            base: 0,
            completions: Vec::new(),
            routing: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The decoded location a request at physical `addr` would route to:
    /// [`DramConfig::decode`] under this system's configuration.
    pub fn decode_addr(&self, addr: u64) -> DecodedAddr {
        self.cfg.decode(addr)
    }

    /// Enqueues a 64-byte request at physical `addr`, arriving at CPU cycle
    /// `now`, and returns its handle. `tag` attributes the traffic in
    /// [`MemoryStats`] (values `0..8`).
    pub fn enqueue(
        &mut self,
        kind: MemOpKind,
        addr: u64,
        priority: Priority,
        tag: u32,
        now: u64,
    ) -> RequestId {
        let (id, channel) = self.enqueue_inner(kind, addr, priority, tag, now);
        let depth = self.channels[channel as usize].queue_depth();
        aboram_telemetry::gauge("dram.queue_depth", depth as f64);
        id
    }

    /// Enqueues a batch of same-kind requests in slice order (one bucket's
    /// commands), returning their contiguous id range. Identical semantics
    /// to calling [`enqueue`](MemorySystem::enqueue) per address, except the
    /// `dram.queue_depth` gauge is sampled once after the batch (its
    /// last-value reading is the same either way).
    pub fn enqueue_batch(
        &mut self,
        kind: MemOpKind,
        addrs: impl IntoIterator<Item = u64>,
        priority: Priority,
        tag: u32,
        now: u64,
    ) -> RequestIdRange {
        let start = self.next_request_id().0;
        let mut last_channel = None;
        for addr in addrs {
            last_channel = Some(self.enqueue_inner(kind, addr, priority, tag, now).1);
        }
        self.batch_ids(start, last_channel)
    }

    /// Enqueues one access's worth of requests whose addresses the caller
    /// already decoded with [`DramConfig::decode`] (or
    /// [`decode_addr`](MemorySystem::decode_addr)), in iteration order,
    /// returning their contiguous id range. Each item is `(kind, location,
    /// priority, tag, count)`: `count` requests alike (none when zero), which
    /// a channel queues as one run. Identical semantics to calling
    /// [`enqueue`](MemorySystem::enqueue) `count` times per item on the
    /// address that decodes to `location`, except that nothing is decoded
    /// again and the `dram.queue_depth` gauge is sampled once after the batch
    /// (as in [`enqueue_batch`](MemorySystem::enqueue_batch)).
    ///
    /// # Panics
    ///
    /// "outside this geometry" — a location's channel, bank or rank does not
    /// exist under this configuration (it was decoded by another memory
    /// system, or built by hand).
    ///
    /// # Example
    ///
    /// ```
    /// use aboram_dram::{DramConfig, MemorySystem, MemOpKind, Priority};
    ///
    /// let cfg = DramConfig::default();
    /// let addrs = [0, cfg.row_bytes, 64];
    /// let mut staged = MemorySystem::new(cfg);
    /// // An issue layer decodes once, reorders by location, then releases
    /// // two reads of each.
    /// let mut access: Vec<_> = addrs.iter().map(|&a| staged.decode_addr(a)).collect();
    /// access.sort_by_key(|d| (d.channel, d.bank, d.row));
    /// let ids = staged.enqueue_decoded(
    ///     access.iter().map(|&d| (MemOpKind::Read, d, Priority::Online, 0, 2)),
    ///     100,
    /// );
    /// assert_eq!(ids.len(), 6);
    ///
    /// // The same requests, one `enqueue` at a time in that order.
    /// let mut single = MemorySystem::new(cfg);
    /// for a in [0, 0, 64, 64, cfg.row_bytes, cfg.row_bytes] {
    ///     single.enqueue(MemOpKind::Read, a, Priority::Online, 0, 100);
    /// }
    /// for id in ids {
    ///     assert_eq!(staged.completion_time(id), single.completion_time(id));
    /// }
    /// ```
    pub fn enqueue_decoded(
        &mut self,
        requests: impl IntoIterator<Item = (MemOpKind, DecodedAddr, Priority, u32, u32)>,
        now: u64,
    ) -> RequestIdRange {
        let start = self.next_request_id().0;
        let mut last_channel = None;
        for (kind, at, priority, tag, count) in requests {
            assert!(
                at.channel < self.cfg.channels
                    && u64::from(at.bank) < self.cfg.banks_per_channel()
                    && at.rank < self.cfg.ranks,
                "decoded address {at:?} lies outside this geometry"
            );
            if count > 0 {
                self.enqueue_at(kind, at, priority, tag, count as usize, now);
                last_channel = Some(at.channel);
            }
        }
        self.batch_ids(start, last_channel)
    }

    /// Closes a batch that began at raw id `start`: samples the queue-depth
    /// gauge on the channel of its last request and returns its id range.
    fn batch_ids(&self, start: u64, last_channel: Option<u8>) -> RequestIdRange {
        if let Some(ch) = last_channel {
            let depth = self.channels[ch as usize].queue_depth();
            aboram_telemetry::gauge("dram.queue_depth", depth as f64);
        }
        RequestIdRange { next: start, end: self.next_request_id().0 }
    }

    fn enqueue_inner(
        &mut self,
        kind: MemOpKind,
        addr: u64,
        priority: Priority,
        tag: u32,
        now: u64,
    ) -> (RequestId, u8) {
        let decoded = self.cfg.decode(addr);
        (self.enqueue_at(kind, decoded, priority, tag, 1, now), decoded.channel)
    }

    /// Enqueues `count` (≥ 1) requests alike at `at`, returning the first's id.
    fn enqueue_at(
        &mut self,
        kind: MemOpKind,
        at: DecodedAddr,
        priority: Priority,
        tag: u32,
        count: usize,
        now: u64,
    ) -> RequestId {
        let id = self.next_request_id();
        self.routing.resize(self.routing.len() + count, at.channel);
        self.completions.resize(self.completions.len() + count, NOT_DONE);
        let ids = id.0..id.0 + count as u64;
        self.channels[at.channel as usize].enqueue(ids, kind, priority, tag, at, now);
        id
    }

    /// The id the next enqueued request will get — one past the newest id
    /// minted so far, so `retire(next_request_id())` covers every request.
    pub fn next_request_id(&self) -> RequestId {
        RequestId(self.base + self.routing.len() as u64)
    }

    /// Requests whose completion/routing slot is still held: everything
    /// enqueued and not yet [`retire`](MemorySystem::retire)d.
    pub fn tracked_requests(&self) -> usize {
        self.routing.len()
    }

    /// Forgets the longest fully-resolved prefix of requests with ids below
    /// `below`. A request is resolved once a
    /// [`completion_time`](MemorySystem::completion_time) query or a
    /// [`drain`](MemorySystem::drain) has scheduled it; the first unresolved
    /// id stops the retirement, so a still-queued request is never lost.
    ///
    /// The caller asserts that nobody will ask for a retired id's completion
    /// time again (doing so panics). Nothing else observes retirement: no
    /// channel runs, no statistic moves, and ids keep counting from where
    /// they were.
    pub fn retire(&mut self, below: RequestId) {
        let limit = (below.0.saturating_sub(self.base) as usize).min(self.completions.len());
        let n = self.completions[..limit].iter().take_while(|&&done| done != NOT_DONE).count();
        self.completions.drain(..n);
        self.routing.drain(..n);
        self.base += n as u64;
    }

    /// Returns the CPU cycle at which `id` finishes its data burst, running
    /// the owning channel forward as needed. The answer is memoized until
    /// the request is retired.
    ///
    /// # Panics
    ///
    /// Both are caller bugs:
    ///
    /// * "never enqueued" — `id` is at or past
    ///   [`next_request_id`](MemorySystem::next_request_id) (a handle from
    ///   another memory system);
    /// * "already retired" — `id` is below the mark a
    ///   [`retire`](MemorySystem::retire) call advanced.
    #[inline]
    pub fn completion_time(&mut self, id: RequestId) -> u64 {
        let slot = match id.0.checked_sub(self.base) {
            None => panic!("request {id:?} already retired"),
            Some(slot) if slot < self.routing.len() as u64 => slot as usize,
            Some(_) => panic!("request {id:?} never enqueued"),
        };
        match self.completions[slot] {
            NOT_DONE => self.run_until(id, self.routing[slot]),
            done => done,
        }
    }

    /// Runs `channel` forward until it has serviced `id`, recording every
    /// completion on the way.
    fn run_until(&mut self, id: RequestId, channel: u8) -> u64 {
        loop {
            match self.channels[channel as usize].schedule_one(&mut self.stats) {
                Some((done_id, t)) => {
                    // Queued requests are unresolved, hence never retired.
                    self.completions[(done_id.0 - self.base) as usize] = t;
                    if done_id == id {
                        return t;
                    }
                }
                None => panic!("request {id:?} never scheduled — channel drained"),
            }
        }
    }

    /// Services everything still queued on every channel.
    pub fn drain(&mut self) {
        for ch in &mut self.channels {
            while let Some((id, t)) = ch.schedule_one(&mut self.stats) {
                self.completions[(id.0 - self.base) as usize] = t;
            }
        }
    }

    /// Injects a transient stall fault on `channel`: no command may issue
    /// during `[at, at + duration)` CPU cycles. Requests whose service would
    /// start inside the window are pushed past it (and counted in
    /// [`MemoryStats::stall_events`]). Returns `false` if `channel` is out
    /// of range or `duration` is zero.
    pub fn inject_channel_stall(&mut self, channel: usize, at: u64, duration: u64) -> bool {
        if duration == 0 {
            return false;
        }
        match self.channels.get_mut(channel) {
            Some(ch) => {
                ch.inject_stall(at, duration);
                true
            }
            None => false,
        }
    }

    /// Total requests currently waiting across all channels.
    pub fn pending(&self) -> usize {
        self.channels.iter().map(Channel::queue_depth).sum()
    }

    /// Aggregated statistics (valid counts reflect serviced requests; call
    /// [`drain`](MemorySystem::drain) first for end-of-run totals).
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_stops_at_the_first_unresolved_request() {
        let cfg = DramConfig::default();
        let mut mem = MemorySystem::new(cfg);
        // Ids 0 and 2 on channel 0, id 1 on another channel.
        mem.enqueue(MemOpKind::Read, 0, Priority::Online, 0, 0);
        let b = mem.enqueue(MemOpKind::Read, cfg.row_bytes, Priority::Online, 0, 0);
        let c = mem.enqueue(MemOpKind::Read, 64, Priority::Online, 0, 0);
        let tc = mem.completion_time(c);
        mem.retire(mem.next_request_id());
        assert_eq!(mem.tracked_requests(), 2, "id 1 is still queued: only id 0 may go");
        assert_eq!(mem.completion_time(c), tc, "a resolved id behind the stop stays memoized");
        let tb = mem.completion_time(b);
        mem.retire(b);
        assert_eq!(mem.tracked_requests(), 2, "retiring below the mark again is a no-op");
        mem.retire(c);
        assert_eq!(mem.tracked_requests(), 1, "the bound is exclusive");
        mem.retire(mem.next_request_id());
        assert_eq!(mem.tracked_requests(), 0);
        let d = mem.enqueue(MemOpKind::Read, 128, Priority::Online, 0, tb.max(tc));
        assert_eq!(d, RequestId(3), "ids keep counting across retirement");
        assert!(mem.completion_time(d) > tc);
    }

    #[test]
    #[should_panic(expected = "already retired")]
    fn completion_time_of_a_retired_request_panics() {
        let mut mem = MemorySystem::new(DramConfig::default());
        let id = mem.enqueue(MemOpKind::Read, 0, Priority::Online, 0, 0);
        mem.completion_time(id);
        mem.retire(mem.next_request_id());
        mem.completion_time(id);
    }

    #[test]
    #[should_panic(expected = "never enqueued")]
    fn completion_time_of_an_unknown_request_panics() {
        let mut mem = MemorySystem::new(DramConfig::default());
        mem.enqueue(MemOpKind::Read, 0, Priority::Online, 0, 0);
        mem.completion_time(RequestId(1));
    }

    #[test]
    #[should_panic(expected = "invalid DRAM geometry")]
    fn zero_channels_are_refused_at_construction() {
        MemorySystem::new(DramConfig { channels: 0, ..DramConfig::default() });
    }

    #[test]
    #[should_panic(expected = "invalid DRAM geometry")]
    fn zero_ranks_are_refused_at_construction() {
        MemorySystem::new(DramConfig { ranks: 0, ..DramConfig::default() });
    }

    #[test]
    #[should_panic(expected = "invalid DRAM geometry")]
    fn zero_banks_are_refused_at_construction() {
        MemorySystem::new(DramConfig { banks: 0, ..DramConfig::default() });
    }

    #[test]
    #[should_panic(expected = "invalid DRAM geometry")]
    fn a_row_shorter_than_a_line_is_refused_at_construction() {
        MemorySystem::new(DramConfig { row_bytes: 63, ..DramConfig::default() });
    }

    #[test]
    #[should_panic(expected = "outside this geometry")]
    fn enqueue_decoded_refuses_a_location_from_a_wider_geometry() {
        let cfg = DramConfig::default();
        let wide = MemorySystem::new(DramConfig { channels: 8, ..cfg });
        let at = wide.decode_addr(7 * cfg.row_bytes);
        let request = (MemOpKind::Read, at, Priority::Online, 0, 1);
        MemorySystem::new(cfg).enqueue_decoded([request], 0);
    }

    #[test]
    fn enqueue_decoded_is_enqueue_without_the_decode() {
        let cfg = DramConfig::default();
        let (mut batch, mut single) = (MemorySystem::new(cfg), MemorySystem::new(cfg));
        assert_eq!(batch.enqueue_decoded([], 5).len(), 0, "an empty access mints no id");
        // Runs of 0–3 requests; some continue the run before them.
        let reqs: Vec<_> = (0..300u64)
            .map(|i| {
                let kind = if i % 3 == 0 { MemOpKind::Write } else { MemOpKind::Read };
                let prio = if i % 4 == 0 { Priority::Offline } else { Priority::Online };
                let addr = (i / 2 * 37 % 512) * 64 + (i % 5) * cfg.row_bytes;
                (kind, addr, prio, (i % 5) as u32, (i % 7 % 4) as u32)
            })
            .collect();
        for (round, access) in reqs.chunks(60).enumerate() {
            let now = 10 + round as u64 * 900;
            let decoded = access.iter().map(|&(k, a, p, t, n)| (k, batch.decode_addr(a), p, t, n));
            let ids = batch.enqueue_decoded(decoded.collect::<Vec<_>>(), now);
            let requests =
                access.iter().flat_map(|&(k, a, p, t, n)| (0..n).map(move |_| (k, a, p, t)));
            let singles: Vec<_> =
                requests.map(|(k, a, p, t)| single.enqueue(k, a, p, t, now)).collect();
            assert!(ids.clone().eq(singles));
            for id in ids {
                assert_eq!(single.completion_time(id), batch.completion_time(id));
            }
        }
        batch.drain();
        single.drain();
        assert_eq!(batch.stats(), single.stats());
        // Both schedulers were left in the same state: a further burst is
        // served at identical cycles.
        for i in 0..200u64 {
            let kind = if i % 4 == 0 { MemOpKind::Write } else { MemOpKind::Read };
            let (addr, now) = ((i * 53 % 512) * 64 + (i % 7) * cfg.row_bytes, 5_000 + i * 7);
            let a = batch.enqueue(kind, addr, Priority::Online, 1, now);
            let b = single.enqueue(kind, addr, Priority::Online, 1, now);
            assert_eq!(a, b);
            assert_eq!(batch.completion_time(a), single.completion_time(b));
        }
        batch.drain();
        single.drain();
        assert_eq!(batch.stats(), single.stats());
    }

    #[test]
    fn a_request_id_range_addresses_its_nth_id_directly() {
        let mut mem = MemorySystem::new(DramConfig::default());
        mem.enqueue(MemOpKind::Read, 0, Priority::Online, 0, 0);
        let ids =
            mem.enqueue_batch(MemOpKind::Read, (1..6).map(|i| i * 64), Priority::Online, 0, 0);
        let all: Vec<_> = ids.clone().collect();
        assert_eq!(all.len(), 5);
        for (n, &id) in all.iter().enumerate() {
            assert_eq!(ids.clone().nth(n), Some(id));
        }
        let mut rest = ids.clone();
        assert_eq!(rest.nth(3), Some(all[3]));
        assert_eq!((rest.len(), rest.next(), rest.next()), (1, Some(all[4]), None));
        assert_eq!(ids.clone().nth(5), None);
        assert_eq!(ids.clone().nth(usize::MAX), None);
    }

    #[test]
    fn requests_route_to_all_channels() {
        let cfg = DramConfig::default();
        let mut mem = MemorySystem::new(cfg);
        // Page-interleave: one row's worth per channel; step a row at a time.
        for i in 0..8u64 {
            mem.enqueue(MemOpKind::Read, i * cfg.row_bytes, Priority::Online, 0, 0);
        }
        mem.drain();
        assert_eq!(mem.stats().total_requests(), 8);
    }

    #[test]
    fn per_channel_and_per_bank_counters_cover_the_geometry() {
        let cfg = DramConfig::default();
        let banks = cfg.banks_per_channel() as usize;
        let mut mem = MemorySystem::new(cfg);
        assert_eq!(mem.stats().requests_by_channel(), [0; 4], "idle channels read zero");
        assert_eq!(mem.stats().bus_cycles_by_channel(), [0; 4]);
        assert_eq!(mem.stats().requests_by_bank(), vec![0; 4 * banks]);
        // Bank 0 of channel 0 and bank 0 of channel 1: two banks, two counters.
        for addr in [0, cfg.row_bytes] {
            let at = mem.decode_addr(addr);
            assert_eq!((u64::from(at.channel), at.bank), (addr / cfg.row_bytes, 0));
            mem.enqueue(MemOpKind::Read, addr, Priority::Online, 0, 0);
        }
        mem.drain();
        let stats = mem.stats();
        assert_eq!(stats.requests_by_channel(), [1, 1, 0, 0]);
        assert_eq!((stats.requests_by_bank()[0], stats.requests_by_bank()[banks]), (1, 1));
        assert_eq!(stats.requests_by_bank().iter().sum::<u64>(), 2);
    }

    #[test]
    fn parallel_channels_overlap_in_time() {
        let cfg = DramConfig::default();
        // Two reads on different channels complete at (almost) the same
        // cycle; two on the same channel serialize on the bus.
        let mut mem = MemorySystem::new(cfg);
        let a = mem.enqueue(MemOpKind::Read, 0, Priority::Online, 0, 0);
        let b = mem.enqueue(MemOpKind::Read, cfg.row_bytes, Priority::Online, 0, 0);
        let ta = mem.completion_time(a);
        let tb = mem.completion_time(b);
        assert_eq!(ta, tb, "independent channels should not serialize");

        let mut mem2 = MemorySystem::new(cfg);
        let c = mem2.enqueue(MemOpKind::Read, 0, Priority::Online, 0, 0);
        let d = mem2.enqueue(MemOpKind::Read, 64, Priority::Online, 0, 0);
        let tc = mem2.completion_time(c);
        let td = mem2.completion_time(d);
        assert!(td > tc, "same-channel requests serialize on the data bus");
    }

    #[test]
    fn drain_empties_queues() {
        let mut mem = MemorySystem::new(DramConfig::default());
        for i in 0..100u64 {
            mem.enqueue(MemOpKind::Write, i * 64, Priority::Offline, 1, i);
        }
        assert!(mem.pending() > 0);
        mem.drain();
        assert_eq!(mem.pending(), 0);
        assert_eq!(mem.stats().writes(), 100);
        assert!(mem.stats().bus_cycles_for_tag(1) > 0);
    }

    #[test]
    fn channel_stall_delays_only_that_channel() {
        let cfg = DramConfig::default();
        let mut mem = MemorySystem::new(cfg);
        assert!(mem.inject_channel_stall(0, 0, 10_000));
        assert!(!mem.inject_channel_stall(usize::MAX, 0, 100), "bad channel rejected");
        assert!(!mem.inject_channel_stall(0, 0, 0), "zero duration rejected");
        let a = mem.enqueue(MemOpKind::Read, 0, Priority::Online, 0, 0);
        let b = mem.enqueue(MemOpKind::Read, cfg.row_bytes, Priority::Online, 0, 0);
        assert!(mem.completion_time(a) >= 10_000, "stalled channel waits out the window");
        assert!(mem.completion_time(b) < 10_000, "other channels are unaffected");
        assert_eq!(mem.stats().stall_events(), 1);
    }

    #[test]
    fn completion_time_is_memoized() {
        let mut mem = MemorySystem::new(DramConfig::default());
        let id = mem.enqueue(MemOpKind::Read, 0, Priority::Online, 0, 0);
        let t1 = mem.completion_time(id);
        let t2 = mem.completion_time(id);
        assert_eq!(t1, t2);
    }

    #[test]
    fn sequential_burst_approaches_peak_bandwidth() {
        let cfg = DramConfig::default();
        let mut mem = MemorySystem::new(cfg);
        // Stream 4 rows per channel back-to-back.
        let lines = cfg.lines_per_row() * u64::from(cfg.channels) * 4;
        for i in 0..lines {
            mem.enqueue(MemOpKind::Read, i * 64, Priority::Online, 0, 0);
        }
        mem.drain();
        let elapsed = mem.stats().last_completion();
        let bw = mem.stats().bandwidth(elapsed);
        let peak = cfg.peak_bytes_per_cpu_cycle();
        assert!(bw > 0.7 * peak, "streaming bandwidth {bw:.2} too far from peak {peak:.2}");
    }

    #[test]
    fn random_traffic_has_lower_row_hit_rate_than_streaming() {
        let cfg = DramConfig::default();
        let mut seq = MemorySystem::new(cfg);
        for i in 0..2048u64 {
            seq.enqueue(MemOpKind::Read, i * 64, Priority::Online, 0, 0);
        }
        seq.drain();

        let mut rng_state = 0x1234_5678u64;
        let mut rnd = MemorySystem::new(cfg);
        for _ in 0..2048 {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = (rng_state >> 16) % (1 << 30);
            rnd.enqueue(MemOpKind::Read, addr & !63, Priority::Online, 0, 0);
        }
        rnd.drain();

        assert!(seq.stats().row_hit_rate() > 0.9);
        assert!(rnd.stats().row_hit_rate() < seq.stats().row_hit_rate());
    }
}
