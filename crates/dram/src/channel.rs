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
    time: u64,
    /// Queued reads in enqueue order. Arrivals are non-decreasing (the
    /// usage contract) and ids increase monotonically, so each queue stays
    /// sorted by `(arrival, id)` — exactly the FR-FCFS tie-break order.
    /// The scheduler leans on this: arrived requests form a prefix, and a
    /// forward scan can stop at the first row hit of the winning class.
    reads: Vec<Pending>,
    /// Queued writes, same ordering invariant as [`reads`](Self::reads).
    writes: Vec<Pending>,
    /// Latest arrival time ever enqueued. Once the channel clock reaches
    /// this watermark every queued request has arrived and the eligibility
    /// checks collapse to constant-time counter reads.
    max_arrival: u64,
    /// Queued online-class reads. Maintained on enqueue/dequeue so the
    /// fast path answers "is an online read waiting?" without a scan.
    online_reads_pending: usize,
    /// Queued online-class writes (evictions issued while the processor
    /// still waits on the access), for the same constant-time class check
    /// on the write queue.
    online_writes_pending: usize,
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
            reads: Vec::new(),
            writes: Vec::new(),
            max_arrival: 0,
            online_reads_pending: 0,
            online_writes_pending: 0,
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
            MemOpKind::Read => {
                if priority == Priority::Online {
                    self.online_reads_pending += 1;
                }
                self.reads.push(p);
            }
            MemOpKind::Write => {
                if priority == Priority::Online {
                    self.online_writes_pending += 1;
                }
                self.writes.push(p);
            }
        }
    }

    pub(crate) fn has_pending(&self) -> bool {
        !self.reads.is_empty() || !self.writes.is_empty()
    }

    pub(crate) fn queue_depth(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// Index one past the last arrived request in a queue: queues are
    /// sorted by arrival, so the arrived set is always a prefix. Once the
    /// channel clock has passed [`max_arrival`](Channel::max_arrival) the
    /// whole queue has arrived and the binary search is skipped.
    fn arrived_prefix(&self, queue: &[Pending]) -> usize {
        if self.time >= self.max_arrival {
            queue.len()
        } else {
            queue.partition_point(|p| p.arrival <= self.time)
        }
    }

    /// FR-FCFS pick over the arrived prefix `queue[..end]`: online class
    /// first, then row hits, then oldest `(arrival, id)`. Because the queue
    /// is already in `(arrival, id)` order, the scan walks forward and
    /// stops at the *first row hit* of the winning class — any later hit
    /// has a larger arrival key, and any earlier non-hit loses to a hit —
    /// falling back to the first entry of the class when nothing hits.
    /// With the row locality of batched per-bucket ORAM traffic this makes
    /// the pick near-constant instead of a full-queue key scan.
    fn pick_index(&self, queue: &[Pending], end: usize, restrict_online: bool) -> Option<usize> {
        let mut first_of_class = None;
        for (i, p) in queue[..end].iter().enumerate() {
            if restrict_online && p.priority == Priority::Offline {
                continue;
            }
            if first_of_class.is_none() {
                first_of_class = Some(i);
            }
            let bank = &self.banks[p.addr.bank as usize];
            if bank.open_row == Some(p.addr.row) {
                return Some(i);
            }
        }
        first_of_class
    }

    /// Schedules the next request, returning `(id, completion_cycle)`.
    /// Returns `None` when both queues are empty.
    pub(crate) fn schedule_one(&mut self, stats: &mut MemoryStats) -> Option<(RequestId, u64)> {
        if !self.has_pending() {
            return None;
        }
        loop {
            // If nothing has arrived yet at the channel clock, idle forward
            // to the earliest arrival (the front of one of the queues).
            if self.time < self.max_arrival {
                let earliest = match (self.reads.first(), self.writes.first()) {
                    (Some(r), Some(w)) => r.arrival.min(w.arrival),
                    (Some(r), None) => r.arrival,
                    (None, Some(w)) => w.arrival,
                    (None, None) => unreachable!("has_pending checked"),
                };
                if self.time < earliest {
                    self.time = earliest;
                }
            }
            let reads_end = self.arrived_prefix(&self.reads);
            let writes_end = self.arrived_prefix(&self.writes);
            let eligible_reads = reads_end > 0;
            let eligible_writes = writes_end > 0;
            let online_waiting = !self.ignore_priority
                && if reads_end == self.reads.len() {
                    self.online_reads_pending > 0
                } else {
                    self.reads[..reads_end].iter().any(|p| p.priority == Priority::Online)
                };

            // Watermark-driven write drain with online-read preemption.
            if self.writes.len() >= self.high_mark {
                self.draining = true;
            }
            if self.writes.len() <= self.low_mark {
                self.draining = false;
            }
            let use_writes = if self.reads.is_empty() {
                true
            } else if self.writes.is_empty() {
                false
            } else if !eligible_reads {
                // time >= earliest guarantees something arrived: a write.
                true
            } else if self.writes.len() >= self.high_mark && eligible_writes {
                true
            } else {
                self.draining && !online_waiting && eligible_writes
            };

            // Class restriction: when any arrived request in the chosen
            // queue is online, the online class dominates the pick key and
            // offline entries cannot win.
            let pick = if use_writes {
                let online_write_waiting = !self.ignore_priority
                    && if writes_end == self.writes.len() {
                        self.online_writes_pending > 0
                    } else {
                        self.writes[..writes_end].iter().any(|p| p.priority == Priority::Online)
                    };
                self.pick_index(&self.writes, writes_end, online_write_waiting)
            } else {
                self.pick_index(&self.reads, reads_end, online_waiting)
            };
            let Some(index) = pick else {
                // The chosen queue has nothing arrived yet; idle forward to
                // its earliest arrival (its front) and re-decide.
                let queue = if use_writes { &self.writes } else { &self.reads };
                let next = queue.first().expect("chosen queue non-empty").arrival;
                self.time = self.time.max(next);
                continue;
            };
            // Order-preserving removal keeps the (arrival, id) sort.
            let p = if use_writes { self.writes.remove(index) } else { self.reads.remove(index) };
            if p.priority == Priority::Online {
                match p.kind {
                    MemOpKind::Read => self.online_reads_pending -= 1,
                    MemOpKind::Write => self.online_writes_pending -= 1,
                }
            }
            let completion = self.service(&p, stats);
            return Some((p.id, completion));
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::decode;

    fn setup() -> (DramConfig, Channel, MemoryStats) {
        let cfg = DramConfig::default();
        let ch = Channel::new(&cfg);
        (cfg, ch, MemoryStats::new(8))
    }

    fn addr_of(cfg: &DramConfig, a: u64) -> DecodedAddr {
        decode(cfg, a)
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
    use crate::mapping::decode;
    use crate::stats::{MemoryStats, RowBufferOutcome};

    #[test]
    fn closed_page_never_hits_or_conflicts() {
        let cfg = DramConfig { page_policy: PagePolicy::Closed, ..DramConfig::default() };
        let mut ch = Channel::new(&cfg);
        let mut stats = MemoryStats::new(4);
        for i in 0..32u64 {
            // Alternate same-row and different-row addresses.
            let addr = if i % 2 == 0 { 0 } else { cfg.row_bytes * 64 };
            ch.enqueue(RequestId(i), MemOpKind::Read, Priority::Online, 0, decode(&cfg, addr), 0);
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
            let mut stats = MemoryStats::new(4);
            for i in 0..256u64 {
                ch.enqueue(
                    RequestId(i),
                    MemOpKind::Read,
                    Priority::Online,
                    0,
                    decode(&cfg, i * 64 * 4), // stride within rows
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
        let mut stats = MemoryStats::new(4);
        // Offline arrives first to a different row; online second.
        ch.enqueue(RequestId(0), MemOpKind::Read, Priority::Offline, 0, decode(&cfg, 1 << 20), 0);
        ch.enqueue(RequestId(1), MemOpKind::Read, Priority::Online, 0, decode(&cfg, 2 << 20), 0);
        let (first, _) = ch.schedule_one(&mut stats).unwrap();
        assert_eq!(first, RequestId(0), "FIFO order when priorities are ignored");
    }
}

#[cfg(test)]
mod stall_tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::mapping::decode;
    use crate::stats::MemoryStats;

    #[test]
    fn requests_are_pushed_past_stall_windows() {
        let cfg = DramConfig::default();
        let mut ch = Channel::new(&cfg);
        let mut stats = MemoryStats::new(4);
        ch.inject_stall(0, 5_000);
        ch.enqueue(RequestId(0), MemOpKind::Read, Priority::Online, 0, decode(&cfg, 0), 100);
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
        let mut stats = MemoryStats::new(4);
        ch.inject_stall(0, 0);
        ch.enqueue(RequestId(0), MemOpKind::Read, Priority::Online, 0, decode(&cfg, 0), 0);
        ch.schedule_one(&mut stats).unwrap();
        assert_eq!(stats.stall_events(), 0);
    }
}

#[cfg(test)]
mod refresh_tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::mapping::decode;
    use crate::stats::MemoryStats;

    #[test]
    fn commands_avoid_refresh_windows() {
        let cfg = DramConfig::default();
        let mut ch = Channel::new(&cfg);
        let mut stats = MemoryStats::new(4);
        let refi = cfg.timing.t_refi * cfg.cpu_clock_ratio;
        let rfc = cfg.timing.t_rfc * cfg.cpu_clock_ratio;
        // A request arriving inside the refresh window waits for it to end.
        let inside = refi - rfc / 2;
        ch.enqueue(RequestId(0), MemOpKind::Read, Priority::Online, 0, decode(&cfg, 0), inside);
        let (_, done) = ch.schedule_one(&mut stats).unwrap();
        assert!(done >= refi, "completion {done} inside refresh window ending at {refi}");
    }

    #[test]
    fn disabling_refresh_removes_the_stall() {
        let mut cfg = DramConfig::default();
        cfg.timing.t_refi = 0;
        let refi = DramConfig::default().timing.t_refi * cfg.cpu_clock_ratio;
        let mut ch = Channel::new(&cfg);
        let mut stats = MemoryStats::new(4);
        ch.enqueue(RequestId(0), MemOpKind::Read, Priority::Online, 0, decode(&cfg, 0), refi);
        let (_, done) = ch.schedule_one(&mut stats).unwrap();
        // Latency is just activate + CAS + burst from arrival.
        let expect = refi + (11 + 11 + 4) * cfg.cpu_clock_ratio;
        assert_eq!(done, expect);
    }
}
