//! Per-channel FR-FCFS scheduler with banks, row buffers and a write queue.

use crate::config::DramConfig;
use crate::mapping::DecodedAddr;
use crate::stats::{MemoryStats, RowBufferOutcome};
use std::collections::VecDeque;

/// Direction of a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpKind {
    /// Data travels memory → controller.
    Read,
    /// Data travels controller → memory.
    Write,
}

/// Scheduling class of a request.
///
/// Online requests sit on the processor's critical path (Ring ORAM
/// readPath); offline requests are protocol maintenance (evictPath,
/// earlyReshuffle, background eviction) and are served only when no online
/// read is waiting — unless the write queue hits its high watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Critical-path request.
    Online,
    /// Background/maintenance request.
    Offline,
}

/// Handle for a request issued to the [`crate::MemorySystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub(crate) u64);

#[derive(Debug, Clone, Copy)]
struct Pending {
    id: RequestId,
    kind: MemOpKind,
    priority: Priority,
    tag: u32,
    addr: DecodedAddr,
    arrival: u64,
}

/// One request queue with its *arrived cursor*.
///
/// `items` is in enqueue order. Arrivals are non-decreasing (the usage
/// contract) and ids increase monotonically, so it stays sorted by
/// `(arrival, id)` — exactly the FR-FCFS tie-break order — and the requests
/// that have arrived by the channel clock form a prefix. The clock only moves
/// forward, so that prefix only grows at its end and shrinks by removals
/// inside it: the cursor is advanced as the clock moves and decremented per
/// removal, never recomputed.
#[derive(Debug, Default)]
struct Queue {
    items: Vec<Pending>,
    /// `items[..arrived]` arrived at or before the clock last passed to
    /// [`advance`](Queue::advance).
    arrived: usize,
    /// Online-class requests among `items[..arrived]`.
    arrived_online: usize,
}

impl Queue {
    /// Extends the arrived prefix to every request with `arrival <= time`.
    fn advance(&mut self, time: u64) {
        while let Some(p) = self.items.get(self.arrived) {
            if p.arrival > time {
                break;
            }
            self.arrived_online += usize::from(p.priority == Priority::Online);
            self.arrived += 1;
        }
    }

    /// Order-preserving removal (keeps the `(arrival, id)` sort) of a
    /// request inside the arrived prefix — the only place the scheduler
    /// picks from.
    fn remove(&mut self, index: usize) -> Pending {
        debug_assert!(index < self.arrived, "only an arrived request is ever scheduled");
        let p = self.items.remove(index);
        self.arrived -= 1;
        self.arrived_online -= usize::from(p.priority == Priority::Online);
        p
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest CPU cycle the bank can accept its next column command
    /// (tCCD-spaced, so open-row bursts pipeline back-to-back).
    cmd_ready: u64,
    /// End of the last data burst (a precharge must wait for this).
    data_end: u64,
    /// End of the last write burst to this bank (write-recovery modelling).
    last_write_end: u64,
}

/// Timing constants pre-converted to CPU cycles.
#[derive(Debug, Clone, Copy)]
struct CpuTiming {
    rcd: u64,
    rp: u64,
    cas: u64,
    wr: u64,
    wtr: u64,
    burst: u64,
    faw: u64,
    refi: u64,
    rfc: u64,
}

/// One DRAM channel: banks, data bus, read/write queues, FR-FCFS policy.
#[derive(Debug)]
pub(crate) struct Channel {
    t: CpuTiming,
    banks: Vec<Bank>,
    /// Sliding window of the four most recent activates per rank (tFAW).
    act_history: Vec<VecDeque<u64>>,
    bus_free_at: u64,
    last_burst_was_write: bool,
    /// The channel clock. Monotone: no update ever moves it back.
    time: u64,
    /// Queued reads. The scheduler leans on the [`Queue`] ordering: arrived
    /// requests form a prefix, and a forward scan can stop at the first row
    /// hit of the winning class.
    reads: Queue,
    /// Queued writes (among them evictions issued while the processor still
    /// waits on the access — the online class exists on this queue too).
    writes: Queue,
    /// Latest arrival time ever enqueued: what the next arrival may not
    /// precede.
    max_arrival: u64,
    draining: bool,
    high_mark: usize,
    low_mark: usize,
    closed_page: bool,
    ignore_priority: bool,
    /// Injected fault windows `(start, end)` during which the channel is
    /// unavailable (transient stall, e.g. a DIMM retraining event). Kept
    /// sorted by start; empty in normal operation.
    stalls: Vec<(u64, u64)>,
}

impl Channel {
    pub(crate) fn new(cfg: &DramConfig) -> Self {
        let r = cfg.cpu_clock_ratio;
        let t = CpuTiming {
            rcd: cfg.timing.t_rcd * r,
            rp: cfg.timing.t_rp * r,
            cas: cfg.timing.t_cas * r,
            wr: cfg.timing.t_wr * r,
            wtr: cfg.timing.t_wtr * r,
            burst: cfg.timing.burst * r,
            faw: cfg.timing.t_faw * r,
            refi: cfg.timing.t_refi * r,
            rfc: cfg.timing.t_rfc * r,
        };
        Channel {
            t,
            banks: vec![Bank::default(); cfg.banks_per_channel() as usize],
            act_history: vec![VecDeque::with_capacity(4); usize::from(cfg.ranks)],
            bus_free_at: 0,
            last_burst_was_write: false,
            time: 0,
            reads: Queue::default(),
            writes: Queue::default(),
            max_arrival: 0,
            draining: false,
            high_mark: cfg.write_queue_high,
            low_mark: cfg.write_queue_low,
            closed_page: cfg.page_policy == crate::config::PagePolicy::Closed,
            ignore_priority: cfg.ignore_priority,
            stalls: Vec::new(),
        }
    }

    /// Registers an injected stall window `[at, at + duration)` during which
    /// no command may issue on this channel.
    pub(crate) fn inject_stall(&mut self, at: u64, duration: u64) {
        if duration == 0 {
            return;
        }
        self.stalls.push((at, at + duration));
        self.stalls.sort_unstable();
    }

    pub(crate) fn enqueue(
        &mut self,
        id: RequestId,
        kind: MemOpKind,
        priority: Priority,
        tag: u32,
        addr: DecodedAddr,
        arrival: u64,
    ) {
        debug_assert!(
            arrival >= self.max_arrival,
            "arrival times must be non-decreasing (the MemorySystem contract)"
        );
        let p = Pending { id, kind, priority, tag, addr, arrival };
        self.max_arrival = self.max_arrival.max(arrival);
        match kind {
            MemOpKind::Read => self.reads.items.push(p),
            MemOpKind::Write => self.writes.items.push(p),
        }
    }

    pub(crate) fn queue_depth(&self) -> usize {
        self.reads.items.len() + self.writes.items.len()
    }

    /// FR-FCFS pick over a queue's (non-empty) arrived prefix: online class
    /// first — when any arrived request is online, that class dominates the
    /// pick key and offline entries cannot win — then row hits, then oldest
    /// `(arrival, id)`. Because the queue is already in `(arrival, id)`
    /// order, the scan walks forward and stops at the *first row hit* of the
    /// winning class — any later hit has a larger arrival key, and any
    /// earlier non-hit loses to a hit — falling back to the first entry of
    /// the class when nothing hits. With the row locality of batched
    /// per-bucket ORAM traffic this makes the pick near-constant instead of
    /// a full-queue key scan.
    fn pick_index(&self, queue: &Queue) -> usize {
        let restrict_online = !self.ignore_priority && queue.arrived_online > 0;
        let mut first_of_class = None;
        for (i, p) in queue.items[..queue.arrived].iter().enumerate() {
            if restrict_online && p.priority == Priority::Offline {
                continue;
            }
            if first_of_class.is_none() {
                first_of_class = Some(i);
            }
            let bank = &self.banks[p.addr.bank as usize];
            if bank.open_row == Some(p.addr.row) {
                return i;
            }
        }
        first_of_class.expect("the chosen queue holds an arrived request of the winning class")
    }

    /// Schedules the next request, returning `(id, completion_cycle)`.
    /// Returns `None` when both queues are empty.
    pub(crate) fn schedule_one(&mut self, stats: &mut MemoryStats) -> Option<(RequestId, u64)> {
        self.reads.advance(self.time);
        self.writes.advance(self.time);
        if self.reads.arrived + self.writes.arrived == 0 {
            // Nothing has arrived yet at the channel clock: idle forward to
            // the earliest arrival (the front of one of the queues), which
            // is later than the clock.
            self.time = match (self.reads.items.first(), self.writes.items.first()) {
                (Some(r), Some(w)) => r.arrival.min(w.arrival),
                (Some(r), None) => r.arrival,
                (None, Some(w)) => w.arrival,
                (None, None) => return None,
            };
            self.reads.advance(self.time);
            self.writes.advance(self.time);
        }
        let eligible_reads = self.reads.arrived > 0;
        let eligible_writes = self.writes.arrived > 0;
        let online_waiting = !self.ignore_priority && self.reads.arrived_online > 0;

        // Watermark-driven write drain with online-read preemption.
        let queued_writes = self.writes.items.len();
        if queued_writes >= self.high_mark {
            self.draining = true;
        }
        if queued_writes <= self.low_mark {
            self.draining = false;
        }
        // Reads go first unless none has arrived, the write queue is full, or
        // a drain is under way and no online read waits. Something has
        // arrived, so the queue chosen holds an arrived request.
        let use_writes = !eligible_reads
            || (eligible_writes
                && (queued_writes >= self.high_mark || (self.draining && !online_waiting)));

        let p = if use_writes {
            let index = self.pick_index(&self.writes);
            self.writes.remove(index)
        } else {
            let index = self.pick_index(&self.reads);
            self.reads.remove(index)
        };
        let completion = self.service(&p, stats);
        Some((p.id, completion))
    }

    /// Pushes a command time out of any refresh window (`[k·tREFI − tRFC,
    /// k·tREFI)` for `k ≥ 1`): all banks are unavailable while the rank
    /// refreshes.
    fn refresh_adjust(&self, t: u64) -> u64 {
        if self.t.refi == 0 {
            return t;
        }
        let pos = t % self.t.refi;
        if pos >= self.t.refi - self.t.rfc {
            t - pos + self.t.refi
        } else {
            t
        }
    }

    /// Pushes a command time out of any injected stall window. Windows are
    /// sorted by start, so one forward pass lands on the first free cycle
    /// even when pushing past one window enters the next.
    fn stall_adjust(&self, mut t: u64) -> u64 {
        for &(from, until) in &self.stalls {
            if t >= from && t < until {
                t = until;
            }
        }
        t
    }

    fn service(&mut self, p: &Pending, stats: &mut MemoryStats) -> u64 {
        let bank_index = p.addr.bank as usize;
        let rank = p.addr.rank as usize;
        let base = self.refresh_adjust(self.time.max(p.arrival));
        // Injected stalls compose with refresh: clear the stall window, then
        // re-check refresh once (a stall may push the command into one).
        let after_stall = self.stall_adjust(base);
        let start = if after_stall > base {
            stats.record_stall(after_stall - base);
            self.refresh_adjust(after_stall)
        } else {
            base
        };
        let bank = self.banks[bank_index];
        let mut ready = start.max(bank.cmd_ready);

        let outcome = match bank.open_row {
            Some(row) if row == p.addr.row => RowBufferOutcome::Hit,
            Some(_) => RowBufferOutcome::Conflict,
            None => RowBufferOutcome::Miss,
        };

        if outcome != RowBufferOutcome::Hit {
            if outcome == RowBufferOutcome::Conflict {
                // Precharge waits for the last burst and write recovery.
                ready = ready.max(bank.data_end).max(bank.last_write_end + self.t.wr);
                ready += self.t.rp;
            }
            // tFAW: the fifth activate in any window waits.
            let history = &mut self.act_history[rank];
            if history.len() == 4 {
                let oldest = *history.front().expect("len checked");
                ready = ready.max(oldest + self.t.faw);
                history.pop_front();
            }
            history.push_back(ready);
            ready += self.t.rcd;
            self.banks[bank_index].open_row = Some(p.addr.row);
        }

        let mut data_start = (ready + self.t.cas).max(self.bus_free_at);
        if self.last_burst_was_write && p.kind == MemOpKind::Read {
            data_start += self.t.wtr;
        }
        let completion = data_start + self.t.burst;

        self.bus_free_at = completion;
        self.last_burst_was_write = p.kind == MemOpKind::Write;
        let b = &mut self.banks[bank_index];
        // The column command issued at data_start - tCAS; the next one may
        // follow tCCD (= burst) later, letting open-row bursts pipeline.
        b.cmd_ready = (data_start + self.t.burst).saturating_sub(self.t.cas);
        b.data_end = completion;
        if p.kind == MemOpKind::Write {
            b.last_write_end = completion;
        }
        if self.closed_page {
            // Auto-precharge: the row closes after the burst; the next
            // access activates a fresh row after tRP (plus write recovery).
            b.open_row = None;
            let recovery = if p.kind == MemOpKind::Write { self.t.wr } else { 0 };
            b.cmd_ready = completion + recovery + self.t.rp;
        }
        // Advance the channel clock to this request's column-command time:
        // the next command may issue while this data burst is still in
        // flight (command/data pipelining), and requests that arrived in the
        // meantime become eligible for the next decision.
        self.time = self.time.max(data_start.saturating_sub(self.t.cas));

        stats.record(
            p.kind,
            p.priority,
            p.tag,
            outcome,
            self.t.burst,
            completion,
            p.addr.channel,
            p.addr.bank,
        );
        completion
    }
}

/// Counters sized for `cfg`, as [`crate::MemorySystem::new`] builds them.
#[cfg(test)]
fn stats_for(cfg: &DramConfig) -> MemoryStats {
    let banks = cfg.banks_per_channel() as usize;
    MemoryStats::new(crate::system::TAG_SLOTS, usize::from(cfg.channels), banks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DramConfig, Channel, MemoryStats) {
        let cfg = DramConfig::default();
        let ch = Channel::new(&cfg);
        let stats = stats_for(&cfg);
        (cfg, ch, stats)
    }

    fn addr_of(cfg: &DramConfig, a: u64) -> DecodedAddr {
        cfg.decode(a)
    }

    #[test]
    fn row_hit_is_cheaper_than_miss() {
        let (cfg, mut ch, mut stats) = setup();
        let a0 = addr_of(&cfg, 0);
        let a1 = addr_of(&cfg, 64); // same row under page interleave
        ch.enqueue(RequestId(0), MemOpKind::Read, Priority::Online, 0, a0, 0);
        let (_, t0) = ch.schedule_one(&mut stats).unwrap();
        ch.enqueue(RequestId(1), MemOpKind::Read, Priority::Online, 0, a1, 0);
        let (_, t1) = ch.schedule_one(&mut stats).unwrap();
        let miss_latency = t0;
        let hit_latency = t1 - t0;
        assert!(hit_latency < miss_latency, "hit {hit_latency} vs miss {miss_latency}");
        assert_eq!(stats.row_outcomes(RowBufferOutcome::Hit), 1);
        assert_eq!(stats.row_outcomes(RowBufferOutcome::Miss), 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let (cfg, mut ch, mut stats) = setup();
        let a0 = addr_of(&cfg, 0);
        // Same bank, different row: jump by banks_per_channel * channels rows.
        let stride = cfg.row_bytes * u64::from(cfg.channels) * cfg.banks_per_channel();
        let a1 = addr_of(&cfg, stride);
        assert_eq!((a0.channel, a0.bank), (a1.channel, a1.bank));
        assert_ne!(a0.row, a1.row);
        ch.enqueue(RequestId(0), MemOpKind::Read, Priority::Online, 0, a0, 0);
        let (_, t0) = ch.schedule_one(&mut stats).unwrap();
        ch.enqueue(RequestId(1), MemOpKind::Read, Priority::Online, 0, a1, 0);
        let (_, t1) = ch.schedule_one(&mut stats).unwrap();
        assert!(t1 - t0 > t0, "conflict must cost more than a cold miss");
        assert_eq!(stats.row_outcomes(RowBufferOutcome::Conflict), 1);
    }

    #[test]
    fn online_reads_bypass_offline_backlog() {
        let (cfg, mut ch, mut stats) = setup();
        // Queue several offline reads, then one online read, all at t = 0.
        for i in 0..6u64 {
            ch.enqueue(
                RequestId(i),
                MemOpKind::Read,
                Priority::Offline,
                0,
                addr_of(&cfg, i * cfg.row_bytes * 16),
                0,
            );
        }
        ch.enqueue(RequestId(99), MemOpKind::Read, Priority::Online, 0, addr_of(&cfg, 640), 0);
        let (first, _) = ch.schedule_one(&mut stats).unwrap();
        assert_eq!(first, RequestId(99), "online read must be served first");
    }

    #[test]
    fn writes_wait_for_drain_mode() {
        let (cfg, mut ch, mut stats) = setup();
        ch.enqueue(RequestId(0), MemOpKind::Write, Priority::Offline, 0, addr_of(&cfg, 0), 0);
        ch.enqueue(RequestId(1), MemOpKind::Read, Priority::Online, 0, addr_of(&cfg, 64), 0);
        let (first, _) = ch.schedule_one(&mut stats).unwrap();
        assert_eq!(first, RequestId(1), "reads bypass a shallow write queue");
        let (second, _) = ch.schedule_one(&mut stats).unwrap();
        assert_eq!(second, RequestId(0), "write drains when no read is waiting");
    }

    #[test]
    fn full_write_queue_forces_drain() {
        let (cfg, mut ch, mut stats) = setup();
        for i in 0..cfg.write_queue_high as u64 {
            ch.enqueue(
                RequestId(i),
                MemOpKind::Write,
                Priority::Offline,
                0,
                addr_of(&cfg, i * 64),
                0,
            );
        }
        ch.enqueue(RequestId(1000), MemOpKind::Read, Priority::Online, 0, addr_of(&cfg, 0), 0);
        let (first, _) = ch.schedule_one(&mut stats).unwrap();
        assert!(first != RequestId(1000), "a full write queue must drain ahead of reads");
    }

    #[test]
    fn requests_respect_arrival_times() {
        let (cfg, mut ch, mut stats) = setup();
        ch.enqueue(RequestId(0), MemOpKind::Read, Priority::Online, 0, addr_of(&cfg, 0), 10_000);
        let (_, done) = ch.schedule_one(&mut stats).unwrap();
        assert!(done >= 10_000, "service cannot begin before arrival");
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::config::{DramConfig, PagePolicy};
    use crate::stats::RowBufferOutcome;

    #[test]
    fn closed_page_never_hits_or_conflicts() {
        let cfg = DramConfig { page_policy: PagePolicy::Closed, ..DramConfig::default() };
        let mut ch = Channel::new(&cfg);
        let mut stats = stats_for(&cfg);
        for i in 0..32u64 {
            // Alternate same-row and different-row addresses.
            let addr = if i % 2 == 0 { 0 } else { cfg.row_bytes * 64 };
            ch.enqueue(RequestId(i), MemOpKind::Read, Priority::Online, 0, cfg.decode(addr), 0);
        }
        while ch.schedule_one(&mut stats).is_some() {}
        assert_eq!(stats.row_outcomes(RowBufferOutcome::Hit), 0);
        assert_eq!(stats.row_outcomes(RowBufferOutcome::Conflict), 0);
        assert_eq!(stats.row_outcomes(RowBufferOutcome::Miss), 32);
    }

    #[test]
    fn closed_page_streaming_is_slower_than_open() {
        let run = |policy| {
            let cfg = DramConfig { page_policy: policy, ..DramConfig::default() };
            let mut ch = Channel::new(&cfg);
            let mut stats = stats_for(&cfg);
            for i in 0..256u64 {
                ch.enqueue(
                    RequestId(i),
                    MemOpKind::Read,
                    Priority::Online,
                    0,
                    cfg.decode(i * 64 * 4), // stride within rows
                    0,
                );
            }
            let mut last = 0;
            while let Some((_, t)) = ch.schedule_one(&mut stats) {
                last = last.max(t);
            }
            last
        };
        assert!(run(PagePolicy::Closed) > run(PagePolicy::Open));
    }

    #[test]
    fn ignore_priority_serves_fifo() {
        let cfg = DramConfig { ignore_priority: true, ..DramConfig::default() };
        let mut ch = Channel::new(&cfg);
        let mut stats = stats_for(&cfg);
        // Offline arrives first to a different row; online second.
        ch.enqueue(RequestId(0), MemOpKind::Read, Priority::Offline, 0, cfg.decode(1 << 20), 0);
        ch.enqueue(RequestId(1), MemOpKind::Read, Priority::Online, 0, cfg.decode(2 << 20), 0);
        let (first, _) = ch.schedule_one(&mut stats).unwrap();
        assert_eq!(first, RequestId(0), "FIFO order when priorities are ignored");
    }
}

#[cfg(test)]
mod stall_tests {
    use super::*;
    use crate::config::DramConfig;

    #[test]
    fn requests_are_pushed_past_stall_windows() {
        let cfg = DramConfig::default();
        let mut ch = Channel::new(&cfg);
        let mut stats = stats_for(&cfg);
        ch.inject_stall(0, 5_000);
        ch.enqueue(RequestId(0), MemOpKind::Read, Priority::Online, 0, cfg.decode(0), 100);
        let (_, done) = ch.schedule_one(&mut stats).unwrap();
        assert!(done >= 5_000, "completion {done} inside stall window ending at 5000");
        assert_eq!(stats.stall_events(), 1);
        assert!(stats.stall_cycles() >= 4_900);
    }

    #[test]
    fn adjacent_windows_compose() {
        let cfg = DramConfig::default();
        let mut ch = Channel::new(&cfg);
        // Deliberately inject out of order; windows are kept sorted.
        ch.inject_stall(2_000, 1_000);
        ch.inject_stall(500, 1_500);
        assert_eq!(ch.stall_adjust(600), 3_000, "push lands in the second window");
        assert_eq!(ch.stall_adjust(3_000), 3_000, "window end is free");
        assert_eq!(ch.stall_adjust(100), 100, "before any window");
    }

    #[test]
    fn zero_duration_stall_is_ignored() {
        let cfg = DramConfig::default();
        let mut ch = Channel::new(&cfg);
        let mut stats = stats_for(&cfg);
        ch.inject_stall(0, 0);
        ch.enqueue(RequestId(0), MemOpKind::Read, Priority::Online, 0, cfg.decode(0), 0);
        ch.schedule_one(&mut stats).unwrap();
        assert_eq!(stats.stall_events(), 0);
    }
}

#[cfg(test)]
mod refresh_tests {
    use super::*;
    use crate::config::DramConfig;

    #[test]
    fn commands_avoid_refresh_windows() {
        let cfg = DramConfig::default();
        let mut ch = Channel::new(&cfg);
        let mut stats = stats_for(&cfg);
        let refi = cfg.timing.t_refi * cfg.cpu_clock_ratio;
        let rfc = cfg.timing.t_rfc * cfg.cpu_clock_ratio;
        // A request arriving inside the refresh window waits for it to end.
        let inside = refi - rfc / 2;
        ch.enqueue(RequestId(0), MemOpKind::Read, Priority::Online, 0, cfg.decode(0), inside);
        let (_, done) = ch.schedule_one(&mut stats).unwrap();
        assert!(done >= refi, "completion {done} inside refresh window ending at {refi}");
    }

    #[test]
    fn disabling_refresh_removes_the_stall() {
        let mut cfg = DramConfig::default();
        cfg.timing.t_refi = 0;
        let refi = DramConfig::default().timing.t_refi * cfg.cpu_clock_ratio;
        let mut ch = Channel::new(&cfg);
        let mut stats = stats_for(&cfg);
        ch.enqueue(RequestId(0), MemOpKind::Read, Priority::Online, 0, cfg.decode(0), refi);
        let (_, done) = ch.schedule_one(&mut stats).unwrap();
        // Latency is just activate + CAS + burst from arrival.
        let expect = refi + (11 + 11 + 4) * cfg.cpu_clock_ratio;
        assert_eq!(done, expect);
    }
}

#[cfg(test)]
mod cursor_tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// How often the reference met the two queue shapes the cursors exist
    /// for, counted where it decides.
    #[derive(Debug, Default)]
    struct Shapes {
        /// Decisions over a queue only part of which had arrived: a burst
        /// landed ahead of the clock while older requests were still queued.
        partial: u32,
        /// Write drains that began with part of the write queue yet to
        /// arrive: the high watermark was crossed mid-burst.
        mid_burst_drain: u32,
    }

    /// The scheduler as it was before the cursors, kept as the oracle: per
    /// decision it recomputes each queue's arrived prefix (a binary search on
    /// the clock) and the online-class test (a scan of that prefix) from
    /// scratch. It drives a [`Channel`] for its clock, banks and bus
    /// ([`Channel::service`]) and neither reads nor maintains its cursors.
    #[allow(clippy::if_same_then_else)] // the decision chain, case by case as it was
    fn reference_schedule_one(
        ch: &mut Channel,
        stats: &mut MemoryStats,
        shapes: &mut Shapes,
    ) -> Option<(RequestId, u64)> {
        if ch.queue_depth() == 0 {
            return None;
        }
        loop {
            let earliest = match (ch.reads.items.first(), ch.writes.items.first()) {
                (Some(r), Some(w)) => r.arrival.min(w.arrival),
                (Some(r), None) => r.arrival,
                (None, Some(w)) => w.arrival,
                (None, None) => unreachable!("queue depth checked"),
            };
            ch.time = ch.time.max(earliest);
            let (time, ignore_priority) = (ch.time, ch.ignore_priority);
            let arrived = |queue: &[Pending]| queue.partition_point(|p| p.arrival <= time);
            let online = |arrived: &[Pending]| {
                !ignore_priority && arrived.iter().any(|p| p.priority == Priority::Online)
            };
            let (reads, writes) = (&ch.reads.items, &ch.writes.items);
            let (reads_end, writes_end) = (arrived(reads), arrived(writes));
            let online_waiting = online(&reads[..reads_end]);

            let was_draining = ch.draining;
            if writes.len() >= ch.high_mark {
                ch.draining = true;
            }
            if writes.len() <= ch.low_mark {
                ch.draining = false;
            }
            let use_writes = if reads.is_empty() {
                true
            } else if writes.is_empty() {
                false
            } else if reads_end == 0 {
                true
            } else if writes.len() >= ch.high_mark && writes_end > 0 {
                true
            } else {
                ch.draining && !online_waiting && writes_end > 0
            };

            let (queue, end) = if use_writes { (writes, writes_end) } else { (reads, reads_end) };
            let restrict_online = online(&queue[..end]);
            let mut pick = None;
            for (i, p) in queue[..end].iter().enumerate() {
                if restrict_online && p.priority == Priority::Offline {
                    continue;
                }
                if ch.banks[p.addr.bank as usize].open_row == Some(p.addr.row) {
                    pick = Some(i);
                    break;
                }
                pick = pick.or(Some(i));
            }
            let Some(index) = pick else {
                ch.time = ch.time.max(queue.first().expect("chosen queue non-empty").arrival);
                continue;
            };
            shapes.partial += u32::from(reads_end < reads.len() || writes_end < writes.len());
            shapes.mid_burst_drain +=
                u32::from(!was_draining && ch.draining && writes_end < writes.len());
            let queue = if use_writes { &mut ch.writes.items } else { &mut ch.reads.items };
            let p = queue.remove(index);
            return Some((p.id, ch.service(&p, stats)));
        }
    }

    /// `(write, online, bank selector, row, arrival step)`.
    type Req = (bool, bool, usize, u64, u64);
    /// `(gap to the burst's arrival, burst, decisions taken after it)`.
    type Step = (u64, Vec<Req>, usize);

    /// A script of enqueue bursts interleaved with scheduling decisions:
    /// arrivals never decrease and land both behind and ahead of the channel
    /// clock, and fewer decisions than requests are taken on average so the
    /// queues build up across bursts.
    fn script() -> impl Strategy<Value = Vec<Step>> {
        let gap = prop_oneof![Just(0u64), 1u64..300, 1_000u64..5_000];
        let step = prop_oneof![Just(0u64), Just(0u64), Just(0u64), 1u64..40];
        let req = (any::<bool>(), any::<bool>(), 0usize..3, 0u64..3, step);
        proptest::collection::vec((gap, proptest::collection::vec(req, 0..24), 0usize..16), 1..32)
    }

    /// Small watermarks so drains start and stop within a script; refresh on.
    fn config(ignore_priority: bool) -> DramConfig {
        let cfg = DramConfig { write_queue_high: 10, write_queue_low: 3, ..DramConfig::default() };
        DramConfig { ignore_priority, ..cfg }
    }

    /// Plays `script` into the cursor scheduler and the reference side by
    /// side, comparing every decision, the drain and the statistics.
    fn play(
        script: &[Step],
        stall: (u64, u64),
        ignore_priority: bool,
    ) -> Result<Shapes, TestCaseError> {
        let cfg = config(ignore_priority);
        let (mut cursor, mut reference) = (Channel::new(&cfg), Channel::new(&cfg));
        let (mut cursor_stats, mut reference_stats) = (stats_for(&cfg), stats_for(&cfg));
        cursor.inject_stall(stall.0, stall.1);
        reference.inject_stall(stall.0, stall.1);
        let mut shapes = Shapes::default();
        let (mut arrival, mut next_id) = (0, 0);
        for (gap, burst, decisions) in script {
            arrival += gap;
            for &(write, online, bank, row, step) in burst {
                arrival += step;
                let kind = if write { MemOpKind::Write } else { MemOpKind::Read };
                let priority = if online { Priority::Online } else { Priority::Offline };
                // Two banks of rank 0 and one of rank 1.
                let bank = [0, 1, u16::from(cfg.banks) + 1][bank];
                let rank = (bank / u16::from(cfg.banks)) as u8;
                let addr = DecodedAddr { channel: 0, bank, row, rank };
                let tag = (next_id % 5) as u32;
                cursor.enqueue(RequestId(next_id), kind, priority, tag, addr, arrival);
                reference.enqueue(RequestId(next_id), kind, priority, tag, addr, arrival);
                next_id += 1;
            }
            for _ in 0..*decisions {
                let want =
                    reference_schedule_one(&mut reference, &mut reference_stats, &mut shapes);
                prop_assert_eq!(cursor.schedule_one(&mut cursor_stats), want);
            }
        }
        loop {
            let want = reference_schedule_one(&mut reference, &mut reference_stats, &mut shapes);
            prop_assert_eq!(cursor.schedule_one(&mut cursor_stats), want);
            if want.is_none() {
                break;
            }
        }
        prop_assert_eq!(&cursor_stats, &reference_stats);
        prop_assert_eq!(cursor_stats.total_requests(), next_id);
        prop_assert_eq!((cursor.reads.arrived, cursor.reads.arrived_online), (0, 0));
        prop_assert_eq!((cursor.writes.arrived, cursor.writes.arrived_online), (0, 0));
        Ok(shapes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The incremental cursors decide exactly as a from-scratch
        /// recomputation does: same `(id, completion)` stream, same
        /// statistics, across bursts that arrive ahead of the clock, a stall
        /// window, refresh, and with the priority classes on or ignored.
        #[test]
        fn arrived_cursors_match_a_recomputing_reference(
            script in script(),
            stall in (0u64..20_000, 0u64..3_000),
            ignore_priority in any::<bool>(),
        ) {
            play(&script, stall, ignore_priority)?;
        }
    }

    /// The generator reaches what the cursors are for: most scripts hold
    /// decisions over a partially arrived queue (the depth > 1 shape — a
    /// burst arriving while older requests are queued), and many start a
    /// write drain with the rest of the burst still to arrive.
    #[test]
    fn generated_scripts_reach_the_partially_arrived_shapes() {
        let mut rng = TestRng::for_test("generated_scripts_reach_the_partially_arrived_shapes");
        let (mut partial, mut mid_burst_drain) = (0, 0);
        for _ in 0..64 {
            let shapes = play(&script().generate(&mut rng), (0, 0), false).expect("equal streams");
            partial += u32::from(shapes.partial > 0);
            mid_burst_drain += u32::from(shapes.mid_burst_drain > 0);
        }
        assert!(partial >= 48 && mid_burst_drain >= 16, "{partial} / {mid_burst_drain} of 64");
    }
}
