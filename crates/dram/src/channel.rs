//! Per-channel FR-FCFS scheduler with banks, row buffers and a write queue.

use crate::config::DramConfig;
use crate::mapping::DecodedAddr;
use crate::stats::{MemoryStats, RowBufferOutcome};
use std::ops::Range;

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

/// Queued requests with consecutive ids `head .. end` that share one
/// location, kind, priority, tag and arrival: the unit a [`Queue`] holds.
/// Its members are alike in everything a pick looks at, so the scheduler
/// decides per entry and serves the entry's head.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The oldest member not yet served.
    head: u64,
    /// One past the newest member.
    end: u64,
    kind: MemOpKind,
    priority: Priority,
    tag: u32,
    addr: DecodedAddr,
    arrival: u64,
}

/// One request queue with its *arrived cursor*.
///
/// `entries` is in enqueue order. Arrivals are non-decreasing (the usage
/// contract) and ids increase monotonically, so its requests — each entry's
/// members in id order, entry after entry — stay sorted by `(arrival, id)`,
/// exactly the FR-FCFS tie-break order, and the requests that have arrived
/// by the channel clock form a prefix. An entry's members share an arrival,
/// so that prefix is a prefix of entries. The clock only moves forward, so
/// it only grows at its end and shrinks by removals inside it: the cursor is
/// advanced as the clock moves and decremented when an entry's last member
/// is served, never recomputed.
#[derive(Debug, Default)]
struct Queue {
    entries: Vec<Entry>,
    /// Requests queued: the members of every entry.
    len: usize,
    /// `entries[..arrived]` arrived at or before the clock last passed to
    /// [`advance`](Queue::advance).
    arrived: usize,
    /// Online-class entries among `entries[..arrived]`.
    arrived_online: usize,
}

impl Queue {
    /// Appends `entry`'s requests, as new members of the tail entry when
    /// they continue it.
    fn push(&mut self, entry: Entry) {
        self.len += (entry.end - entry.head) as usize;
        if let Some(tail) = self.entries.last_mut() {
            if tail.end == entry.head
                && (tail.addr, tail.priority, tail.tag, tail.arrival)
                    == (entry.addr, entry.priority, entry.tag, entry.arrival)
            {
                tail.end = entry.end;
                return;
            }
        }
        self.entries.push(entry);
    }

    /// Extends the arrived prefix to every entry with `arrival <= time`.
    fn advance(&mut self, time: u64) {
        while let Some(e) = self.entries.get(self.arrived) {
            if e.arrival > time {
                break;
            }
            self.arrived_online += usize::from(e.priority == Priority::Online);
            self.arrived += 1;
        }
    }

    /// Serves the head of an entry inside the arrived prefix — the only
    /// place the scheduler picks from — and returns it as an entry of one.
    /// The entry goes, order preserved, with its last member.
    fn pop(&mut self, index: usize) -> Entry {
        debug_assert!(index < self.arrived, "only an arrived request is ever scheduled");
        self.len -= 1;
        let entry = &mut self.entries[index];
        let served = Entry { end: entry.head + 1, ..*entry };
        entry.head += 1;
        if entry.head == entry.end {
            self.entries.remove(index);
            self.arrived -= 1;
            self.arrived_online -= usize::from(served.priority == Priority::Online);
        }
        served
    }
}

/// The four most recent activates of one rank (tFAW), in a ring.
#[derive(Debug, Clone, Copy, Default)]
struct ActivateWindow {
    times: [u64; 4],
    /// Activates recorded so far; the next goes to slot `count % 4`, which
    /// holds the oldest of the last four once there are four.
    count: u64,
}

impl ActivateWindow {
    /// Records an activate the bank is ready to issue at `ready` and returns
    /// when it issues: the fifth activate in any `faw` window waits.
    fn activate(&mut self, ready: u64, faw: u64) -> u64 {
        let slot = (self.count % 4) as usize;
        let at = if self.count >= 4 { ready.max(self.times[slot] + faw) } else { ready };
        self.times[slot] = at;
        self.count += 1;
        at
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
    /// The four most recent activates per rank (tFAW).
    activates: Vec<ActivateWindow>,
    /// The first multiple of tREFI above the last time
    /// [`refresh_adjust`](Channel::refresh_adjust) saw: the end of the refresh
    /// window that time is in or before. Those times never decrease.
    refresh_end: u64,
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
            activates: vec![ActivateWindow::default(); usize::from(cfg.ranks)],
            refresh_end: t.refi,
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

    /// Queues requests `ids` (one or more, newer than every queued id), alike
    /// in everything else.
    pub(crate) fn enqueue(
        &mut self,
        ids: Range<u64>,
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
        debug_assert!(!ids.is_empty());
        self.max_arrival = self.max_arrival.max(arrival);
        let entry = Entry { head: ids.start, end: ids.end, kind, priority, tag, addr, arrival };
        match kind {
            MemOpKind::Read => self.reads.push(entry),
            MemOpKind::Write => self.writes.push(entry),
        }
    }

    pub(crate) fn queue_depth(&self) -> usize {
        self.reads.len + self.writes.len
    }

    /// FR-FCFS pick over a queue's (non-empty) arrived prefix: online class
    /// first — when any arrived request is online, that class dominates the
    /// pick key and offline requests cannot win — then row hits, then oldest
    /// `(arrival, id)`. Because the queue is already in `(arrival, id)`
    /// order, the scan walks forward and stops at the *first row hit* of the
    /// winning class — any later hit has a larger arrival key, and any
    /// earlier non-hit loses to a hit — falling back to the first request of
    /// the class when nothing hits. An entry's members share class and row,
    /// and its head is the oldest of them, so the scan visits entries and
    /// returns the index of the one whose head wins. With the row locality of
    /// batched per-bucket ORAM traffic this makes the pick near-constant
    /// instead of a full-queue key scan.
    fn pick_index(&self, queue: &Queue) -> usize {
        let restrict_online = !self.ignore_priority && queue.arrived_online > 0;
        let mut first_of_class = None;
        for (i, e) in queue.entries[..queue.arrived].iter().enumerate() {
            if restrict_online && e.priority == Priority::Offline {
                continue;
            }
            if first_of_class.is_none() {
                first_of_class = Some(i);
            }
            let bank = &self.banks[e.addr.bank as usize];
            if bank.open_row == Some(e.addr.row) {
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
            self.time = match (self.reads.entries.first(), self.writes.entries.first()) {
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
        let queued_writes = self.writes.len;
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
            self.writes.pop(index)
        } else {
            let index = self.pick_index(&self.reads);
            self.reads.pop(index)
        };
        let completion = self.service(&p, stats);
        Some((RequestId(p.head), completion))
    }

    /// Pushes a command time out of any refresh window (`[k·tREFI − tRFC,
    /// k·tREFI)` for `k ≥ 1`): all banks are unavailable while the rank
    /// refreshes. `t` may not precede the last time passed here — true of
    /// every call, as [`service`](Channel::service) makes them — so the
    /// window's end is carried from call to call and recomputed only when `t`
    /// passes it.
    fn refresh_adjust(&mut self, t: u64) -> u64 {
        if self.t.refi == 0 {
            return t;
        }
        debug_assert!(t + self.t.refi >= self.refresh_end, "refresh times never decrease");
        if t >= self.refresh_end {
            self.refresh_end = t - t % self.t.refi + self.t.refi;
        }
        if t + self.t.rfc >= self.refresh_end {
            self.refresh_end
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

    /// Serves `p`, the one request of an entry [`Queue::pop`] returned.
    #[inline]
    fn service(&mut self, p: &Entry, stats: &mut MemoryStats) -> u64 {
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
            ready = self.activates[rank].activate(ready, self.t.faw) + self.t.rcd;
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
        ch.enqueue(0..1, MemOpKind::Read, Priority::Online, 0, a0, 0);
        let (_, t0) = ch.schedule_one(&mut stats).unwrap();
        ch.enqueue(1..2, MemOpKind::Read, Priority::Online, 0, a1, 0);
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
        ch.enqueue(0..1, MemOpKind::Read, Priority::Online, 0, a0, 0);
        let (_, t0) = ch.schedule_one(&mut stats).unwrap();
        ch.enqueue(1..2, MemOpKind::Read, Priority::Online, 0, a1, 0);
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
                i..i + 1,
                MemOpKind::Read,
                Priority::Offline,
                0,
                addr_of(&cfg, i * cfg.row_bytes * 16),
                0,
            );
        }
        ch.enqueue(99..100, MemOpKind::Read, Priority::Online, 0, addr_of(&cfg, 640), 0);
        let (first, _) = ch.schedule_one(&mut stats).unwrap();
        assert_eq!(first, RequestId(99), "online read must be served first");
    }

    #[test]
    fn writes_wait_for_drain_mode() {
        let (cfg, mut ch, mut stats) = setup();
        ch.enqueue(0..1, MemOpKind::Write, Priority::Offline, 0, addr_of(&cfg, 0), 0);
        ch.enqueue(1..2, MemOpKind::Read, Priority::Online, 0, addr_of(&cfg, 64), 0);
        let (first, _) = ch.schedule_one(&mut stats).unwrap();
        assert_eq!(first, RequestId(1), "reads bypass a shallow write queue");
        let (second, _) = ch.schedule_one(&mut stats).unwrap();
        assert_eq!(second, RequestId(0), "write drains when no read is waiting");
    }

    #[test]
    fn full_write_queue_forces_drain() {
        let (cfg, mut ch, mut stats) = setup();
        for i in 0..cfg.write_queue_high as u64 {
            ch.enqueue(i..i + 1, MemOpKind::Write, Priority::Offline, 0, addr_of(&cfg, i * 64), 0);
        }
        ch.enqueue(1000..1001, MemOpKind::Read, Priority::Online, 0, addr_of(&cfg, 0), 0);
        let (first, _) = ch.schedule_one(&mut stats).unwrap();
        assert!(first != RequestId(1000), "a full write queue must drain ahead of reads");
    }

    #[test]
    fn activate_ring_is_a_sliding_window_of_four() {
        let faw = 128;
        let (mut ring, mut window) = (ActivateWindow::default(), std::collections::VecDeque::new());
        let (mut ready, mut state) = (0u64, 7u64);
        for _ in 0..1_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ready += (state >> 33) % 96;
            // As before the ring: pop the oldest of four, wait on it, push.
            let mut want = ready;
            if window.len() == 4 {
                want = want.max(window.pop_front().unwrap() + faw);
            }
            window.push_back(want);
            assert_eq!(ring.activate(ready, faw), want);
        }
    }

    #[test]
    fn requests_respect_arrival_times() {
        let (cfg, mut ch, mut stats) = setup();
        ch.enqueue(0..1, MemOpKind::Read, Priority::Online, 0, addr_of(&cfg, 0), 10_000);
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
            ch.enqueue(i..i + 1, MemOpKind::Read, Priority::Online, 0, cfg.decode(addr), 0);
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
                    i..i + 1,
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
        ch.enqueue(0..1, MemOpKind::Read, Priority::Offline, 0, cfg.decode(1 << 20), 0);
        ch.enqueue(1..2, MemOpKind::Read, Priority::Online, 0, cfg.decode(2 << 20), 0);
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
        ch.enqueue(0..1, MemOpKind::Read, Priority::Online, 0, cfg.decode(0), 100);
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
        ch.enqueue(0..1, MemOpKind::Read, Priority::Online, 0, cfg.decode(0), 0);
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
        ch.enqueue(0..1, MemOpKind::Read, Priority::Online, 0, cfg.decode(0), inside);
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
        ch.enqueue(0..1, MemOpKind::Read, Priority::Online, 0, cfg.decode(0), refi);
        let (_, done) = ch.schedule_one(&mut stats).unwrap();
        // Latency is just activate + CAS + burst from arrival.
        let expect = refi + (11 + 11 + 4) * cfg.cpu_clock_ratio;
        assert_eq!(done, expect);
    }

    proptest::proptest! {
        /// The carried window end adjusts as the modulo formula does, over
        /// non-decreasing times that step within a window, across one and
        /// across many, and onto window edges.
        #[test]
        fn carried_refresh_window_matches_the_modulo_formula(
            steps in proptest::collection::vec(
                proptest::prop_oneof![0u64..64, 0u64..30_000, 0u64..1_000_000],
                1..200,
            ),
        ) {
            let mut ch = Channel::new(&DramConfig::default());
            let (refi, rfc) = (ch.t.refi, ch.t.rfc);
            let formula = |t: u64| {
                let pos = t % refi;
                if pos >= refi - rfc { t - pos + refi } else { t }
            };
            let mut t = 0;
            for step in steps {
                t += step;
                proptest::prop_assert_eq!(ch.refresh_adjust(t), formula(t), "t = {}", t);
                if step % 2 == 0 {
                    // Onto the next window edge: its first cycle, or its end
                    // from inside it.
                    let pos = t % refi;
                    t += if pos < refi - rfc { refi - rfc - pos } else { refi - pos };
                    proptest::prop_assert_eq!(ch.refresh_adjust(t), formula(t), "t = {}", t);
                }
            }
        }
    }
}

#[cfg(test)]
mod cursor_tests {
    use super::*;
    use crate::config::PagePolicy;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// How often a script met the queue shapes the cursors and the entries
    /// exist for.
    #[derive(Debug, Default)]
    struct Shapes {
        /// Decisions over a queue only part of which had arrived: a burst
        /// landed ahead of the clock while older requests were still queued.
        partial: u32,
        /// Write drains that began with part of the write queue yet to
        /// arrive: the high watermark was crossed mid-burst.
        mid_burst_drain: u32,
        /// Requests that extended an entry whose head had already been
        /// served.
        extended_after_served: u32,
    }

    /// The scheduler as it was before the cursors and the entries, kept as
    /// the oracle. It keeps its own per-request queues (each request an entry
    /// of one), and per decision it recomputes each queue's arrived prefix (a
    /// binary search on the clock) and the online-class test (a scan of that
    /// prefix) from scratch, scans requests and takes the one it picks out
    /// with `Vec::remove`. It drives a [`Channel`] whose own queues stay
    /// empty for its clock, banks, bus and drain flag ([`Channel::service`]).
    struct Reference {
        ch: Channel,
        reads: Vec<Entry>,
        writes: Vec<Entry>,
    }

    impl Reference {
        fn new(cfg: &DramConfig) -> Self {
            Reference { ch: Channel::new(cfg), reads: Vec::new(), writes: Vec::new() }
        }

        fn enqueue(
            &mut self,
            id: u64,
            kind: MemOpKind,
            priority: Priority,
            tag: u32,
            addr: DecodedAddr,
            arrival: u64,
        ) {
            let request = Entry { head: id, end: id + 1, kind, priority, tag, addr, arrival };
            match kind {
                MemOpKind::Read => self.reads.push(request),
                MemOpKind::Write => self.writes.push(request),
            }
        }

        #[allow(clippy::if_same_then_else)] // the decision chain, case by case as it was
        fn schedule_one(
            &mut self,
            stats: &mut MemoryStats,
            shapes: &mut Shapes,
        ) -> Option<(RequestId, u64)> {
            let ch = &mut self.ch;
            loop {
                let earliest = match (self.reads.first(), self.writes.first()) {
                    (Some(r), Some(w)) => r.arrival.min(w.arrival),
                    (Some(r), None) => r.arrival,
                    (None, Some(w)) => w.arrival,
                    (None, None) => return None,
                };
                ch.time = ch.time.max(earliest);
                let (time, ignore_priority) = (ch.time, ch.ignore_priority);
                let arrived = |queue: &[Entry]| queue.partition_point(|p| p.arrival <= time);
                let online = |arrived: &[Entry]| {
                    !ignore_priority && arrived.iter().any(|p| p.priority == Priority::Online)
                };
                let (reads, writes) = (&self.reads, &self.writes);
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

                let (queue, end) =
                    if use_writes { (writes, writes_end) } else { (reads, reads_end) };
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
                let queue = if use_writes { &mut self.writes } else { &mut self.reads };
                let p = queue.remove(index);
                return Some((RequestId(p.head), ch.service(&p, stats)));
            }
        }
    }

    /// A run of requests as a stager releases them back to back:
    /// `((write, online, bank selector, row, tag), (members, id stride, ids
    /// skipped before it, arrival step before it), (from, change))`. Members
    /// share one location, kind, priority, tag and arrival, except that from
    /// member `from` on one of them changes (`change` 0 kind, 1 priority, 2
    /// tag, 3 arrival; above 3, none). A stride above one, or skipped ids,
    /// leave the ids between to other channels.
    type Run = ((bool, bool, usize, u64, u32), (usize, u64, u64, u64), (usize, u8));
    /// `(requests resuming the last run, gap to the burst's arrival, burst,
    /// decisions taken after it)`. Resumed requests continue the last run of
    /// the previous burst — its attributes, its arrival, its id stride — after
    /// the decisions that followed it.
    type Step = (u64, u64, Vec<Run>, usize);

    /// A script of enqueue bursts interleaved with scheduling decisions:
    /// arrivals never decrease and land both behind and ahead of the channel
    /// clock; runs are short or long (up to 23 requests), interleave across
    /// three banks of two ranks and, by their ids, across channels, and some
    /// resume after decisions served part of them; and fewer decisions than
    /// requests are taken on average so the queues build up across bursts.
    fn script() -> impl Strategy<Value = Vec<Step>> {
        let resume = prop_oneof![Just(0u64), 1u64..8];
        let gap = prop_oneof![Just(0u64), 1u64..300, 1_000u64..5_000];
        let at = (any::<bool>(), any::<bool>(), 0usize..3, 0u64..3, 0u32..2);
        let members = prop_oneof![1usize..4, 1usize..4, 4usize..24];
        let stride = prop_oneof![Just(1u64), Just(1u64), Just(1u64), 2u64..4];
        let skip = prop_oneof![Just(0u64), Just(0u64), 1u64..4];
        let step = prop_oneof![Just(0u64), Just(0u64), Just(0u64), 1u64..40];
        let run = (at, (members, stride, skip, step), (0usize..24, 0u8..8));
        let burst = proptest::collection::vec(run, 0..6);
        proptest::collection::vec((resume, gap, burst, 0usize..24), 1..32)
    }

    /// Small watermarks so drains start and stop within a script; refresh on.
    fn config(ignore_priority: bool, closed_page: bool) -> DramConfig {
        let page_policy = if closed_page { PagePolicy::Closed } else { PagePolicy::Open };
        let cfg = DramConfig { write_queue_high: 10, write_queue_low: 3, ..DramConfig::default() };
        DramConfig { ignore_priority, page_policy, ..cfg }
    }

    /// Plays `script` into the channel and the reference side by side,
    /// comparing every decision, the drain and the statistics.
    fn play(script: &[Step], stall: (u64, u64), cfg: DramConfig) -> Result<Shapes, TestCaseError> {
        let (mut channel, mut reference) = (Channel::new(&cfg), Reference::new(&cfg));
        let (mut channel_stats, mut reference_stats) = (stats_for(&cfg), stats_for(&cfg));
        channel.inject_stall(stall.0, stall.1);
        reference.ch.inject_stall(stall.0, stall.1);
        let mut shapes = Shapes::default();
        // The id the channel's tail entry of each queue (reads, writes) began
        // with, to tell whether a request extends an entry part-served.
        let mut entry_first = [0u64; 2];
        let (mut arrival, mut next_id) = (0, 0);
        // The last request's `(write, online, tag, location)` and its run's
        // id stride: what a resumed run continues.
        let mut last = None;
        for &(resume, gap, ref runs, decisions) in script {
            // Enqueues `n` requests alike, `stride` ids apart: consecutive
            // ids in one call, as a release hands a run over, else one by one.
            let mut push = |(write, online, tag, addr): (bool, bool, u32, DecodedAddr),
                            arrival,
                            n: u64,
                            stride: u64,
                            next_id: &mut u64| {
                let kind = if write { MemOpKind::Write } else { MemOpKind::Read };
                let priority = if online { Priority::Online } else { Priority::Offline };
                let (calls, ids) = if stride == 1 { (u64::from(n > 0), n) } else { (n, 1) };
                for _ in 0..calls {
                    let id = *next_id;
                    let queue = if write { &channel.writes } else { &channel.reads };
                    let first = &mut entry_first[usize::from(write)];
                    match queue.entries.last() {
                        Some(tail)
                            if tail.end == id
                                && (tail.addr, tail.priority, tail.tag, tail.arrival)
                                    == (addr, priority, tag, arrival) =>
                        {
                            shapes.extended_after_served += u32::from(tail.head > *first);
                        }
                        _ => *first = id,
                    }
                    channel.enqueue(id..id + ids, kind, priority, tag, addr, arrival);
                    for id in id..id + ids {
                        reference.enqueue(id, kind, priority, tag, addr, arrival);
                    }
                    *next_id += ids * stride;
                }
            };
            if let Some((request, stride)) = last {
                push(request, arrival, resume, stride, &mut next_id);
            }
            arrival += gap;
            for &((write, online, bank, row, tag), (members, stride, skip, step), change) in runs {
                arrival += step;
                next_id += skip;
                // Two banks of rank 0 and one of rank 1.
                let bank = [0, 1, u16::from(cfg.banks) + 1][bank];
                let rank = (bank / u16::from(cfg.banks)) as u8;
                let mut request = (write, online, tag, DecodedAddr { channel: 0, bank, row, rank });
                let (members, before) = (members as u64, change.0.min(members) as u64);
                push(request, arrival, before, stride, &mut next_id);
                if before < members {
                    match change.1 {
                        0 => request.0 = !request.0,
                        1 => request.1 = !request.1,
                        2 => request.2 ^= 1,
                        3 => arrival += 1,
                        _ => {}
                    }
                }
                push(request, arrival, members - before, stride, &mut next_id);
                last = Some((request, stride));
            }
            for _ in 0..decisions {
                let want = reference.schedule_one(&mut reference_stats, &mut shapes);
                prop_assert_eq!(channel.schedule_one(&mut channel_stats), want);
            }
        }
        loop {
            let want = reference.schedule_one(&mut reference_stats, &mut shapes);
            prop_assert_eq!(channel.schedule_one(&mut channel_stats), want);
            if want.is_none() {
                break;
            }
        }
        prop_assert_eq!(&channel_stats, &reference_stats);
        for queue in [&channel.reads, &channel.writes] {
            prop_assert!(queue.entries.is_empty() && queue.len == 0);
            prop_assert_eq!((queue.arrived, queue.arrived_online), (0, 0));
        }
        Ok(shapes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The channel's entries and incremental cursors decide exactly as a
        /// per-request, from-scratch recomputation does: same `(id,
        /// completion)` stream, same statistics, across long and short runs
        /// with a kind, priority, tag or arrival change inside, interleaved
        /// across banks and channels, bursts that arrive ahead of the clock,
        /// a stall window, refresh, with the priority classes on or ignored
        /// and with open or closed pages.
        #[test]
        fn arrived_cursors_match_a_recomputing_reference(
            script in script(),
            stall in (0u64..20_000, 0u64..3_000),
            policy in (any::<bool>(), any::<bool>()),
        ) {
            play(&script, stall, config(policy.0, policy.1))?;
        }
    }

    /// The generator reaches what the cursors and entries are for: most
    /// scripts hold decisions over a partially arrived queue (the depth > 1
    /// shape — a burst arriving while older requests are queued), many start
    /// a write drain with the rest of the burst still to arrive, and a fair
    /// share extend an entry whose head was already served.
    #[test]
    fn generated_scripts_reach_the_partially_arrived_shapes() {
        let mut rng = TestRng::for_test("generated_scripts_reach_the_partially_arrived_shapes");
        let (mut partial, mut mid_burst_drain, mut extended) = (0, 0, 0);
        for _ in 0..64 {
            let script = script().generate(&mut rng);
            let shapes = play(&script, (0, 0), config(false, false)).expect("equal streams");
            partial += u32::from(shapes.partial > 0);
            mid_burst_drain += u32::from(shapes.mid_burst_drain > 0);
            extended += u32::from(shapes.extended_after_served > 0);
        }
        assert!(
            partial >= 48 && mid_burst_drain >= 16 && extended >= 12,
            "{partial} / {mid_burst_drain} / {extended} of 64"
        );
    }
}
