//! Memory back-ends for the ORAM engine.
//!
//! The engine emits every off-chip block/metadata access through the
//! [`MemorySink`] trait. Two implementations cover the paper's two
//! evaluation modes:
//!
//! * [`CountingSink`] — protocol-level runs (dead-block studies, reshuffle
//!   counts, security experiment) where only traffic *counts* matter;
//! * [`TimingSink`] — cycle-level runs backed by the `aboram-dram` memory
//!   system, producing execution times, breakdowns and bandwidth.

use crate::config::IssueMode;
use crate::fault::{FaultKind, FaultSite};
use aboram_dram::{
    AddressMapping, DecodedAddr, MemOpKind, MemorySystem, Priority, RequestId, RequestIdRange,
};
use aboram_telemetry::Phase;
use aboram_tree::SlotAddr;

/// Which protocol operation a memory access belongs to. Used both as the
/// DRAM traffic tag (Fig. 8c breakdown) and for per-op counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OramOp {
    /// Online access servicing a user request (§III-B).
    ReadPath,
    /// Background path reshuffle, every `A` accesses.
    EvictPath,
    /// Bucket reshuffle after exhausting its dummy budget.
    EarlyReshuffle,
    /// Dummy accesses injected to relieve stash pressure (§III-C).
    BackgroundEvict,
    /// Bucket metadata reads/writes.
    Metadata,
}

impl OramOp {
    /// All operation kinds, in tag order.
    pub const ALL: [OramOp; 5] = [
        OramOp::ReadPath,
        OramOp::EvictPath,
        OramOp::EarlyReshuffle,
        OramOp::BackgroundEvict,
        OramOp::Metadata,
    ];

    /// Stable small integer for DRAM traffic attribution.
    pub fn tag(self) -> u32 {
        match self {
            OramOp::ReadPath => 0,
            OramOp::EvictPath => 1,
            OramOp::EarlyReshuffle => 2,
            OramOp::BackgroundEvict => 3,
            OramOp::Metadata => 4,
        }
    }

    /// The telemetry phase traffic tagged with this op reports under.
    pub fn phase(self) -> Phase {
        match self {
            OramOp::ReadPath => Phase::ReadPath,
            OramOp::EvictPath => Phase::EvictPath,
            OramOp::EarlyReshuffle => Phase::EarlyReshuffle,
            OramOp::BackgroundEvict => Phase::BackgroundEvict,
            OramOp::Metadata => Phase::Metadata,
        }
    }

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            OramOp::ReadPath => "readPath",
            OramOp::EvictPath => "evictPath",
            OramOp::EarlyReshuffle => "earlyReshuffle",
            OramOp::BackgroundEvict => "backgroundEvict",
            OramOp::Metadata => "metadata",
        }
    }
}

/// Receiver of the engine's off-chip memory accesses.
///
/// `online` marks requests on the processor's critical path (readPath block
/// and metadata fetches); everything else is maintenance traffic the memory
/// scheduler may defer.
pub trait MemorySink {
    /// One 64 B read at `addr`.
    fn read(&mut self, addr: SlotAddr, op: OramOp, online: bool);
    /// One 64 B write at `addr`.
    fn write(&mut self, addr: SlotAddr, op: OramOp, online: bool);
    /// A batch of 64 B reads, issued in slice order. Semantically identical
    /// to calling [`read`](Self::read) once per address (the default does
    /// exactly that); a sink that only counts overrides it to add the
    /// bucket's worth of commands at once.
    fn read_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        for &addr in addrs {
            self.read(addr, op, online);
        }
    }
    /// A batch of 64 B writes, issued in slice order (see
    /// [`read_batch`](Self::read_batch)).
    fn write_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        for &addr in addrs {
            self.write(addr, op, online);
        }
    }
    /// Asks whether the transfer being verified at `addr` faulted. The
    /// engine calls this at its verification sites (MAC check of a fetched
    /// block, metadata check, write-CRC acknowledgment); a
    /// [`crate::FaultInjectingSink`] answers from its fault plan. The
    /// default — used by every ordinary sink — reports no fault without
    /// consuming any randomness, keeping fault-free runs bit-identical.
    fn poll_fault(&mut self, _addr: SlotAddr, _site: FaultSite) -> Option<FaultKind> {
        None
    }
}

/// A sink that only counts traffic (protocol-level evaluation mode).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingSink {
    reads: [u64; 5],
    writes: [u64; 5],
    online: u64,
    offline: u64,
}

impl CountingSink {
    /// Creates a zeroed counter sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads recorded for `op`.
    pub fn reads(&self, op: OramOp) -> u64 {
        self.reads[op.tag() as usize]
    }

    /// Writes recorded for `op`.
    pub fn writes(&self, op: OramOp) -> u64 {
        self.writes[op.tag() as usize]
    }

    /// Total accesses recorded for `op`.
    pub fn total(&self, op: OramOp) -> u64 {
        self.reads(op) + self.writes(op)
    }

    /// Total accesses across all ops.
    pub fn grand_total(&self) -> u64 {
        OramOp::ALL.iter().map(|&o| self.total(o)).sum()
    }

    /// Accesses flagged online.
    pub fn online_total(&self) -> u64 {
        self.online
    }

    /// Accesses flagged offline.
    pub fn offline_total(&self) -> u64 {
        self.offline
    }
}

impl MemorySink for CountingSink {
    fn read(&mut self, _addr: SlotAddr, op: OramOp, online: bool) {
        self.reads[op.tag() as usize] += 1;
        if online {
            self.online += 1;
        } else {
            self.offline += 1;
        }
    }

    fn write(&mut self, _addr: SlotAddr, op: OramOp, online: bool) {
        self.writes[op.tag() as usize] += 1;
        if online {
            self.online += 1;
        } else {
            self.offline += 1;
        }
    }

    fn read_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        let n = addrs.len() as u64;
        self.reads[op.tag() as usize] += n;
        if online {
            self.online += n;
        } else {
            self.offline += n;
        }
    }

    fn write_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        let n = addrs.len() as u64;
        self.writes[op.tag() as usize] += n;
        if online {
            self.online += n;
        } else {
            self.offline += n;
        }
    }
}

/// A sink backed by the cycle-level DRAM model.
///
/// The sink *stages* every request the engine emits and hands nothing to the
/// memory system on its own: the access controller, once it has seen the
/// whole access and fixed its arrival cycle, releases it as one batch
/// (`release_at`) — the only way a request reaches DRAM — and is told when
/// each of its online reads, the access's critical path, completes.
///
/// The issue mode picks the release *order* only. [`IssueMode::Serial`]
/// releases in program order. [`IssueMode::ChannelParallel`] groups the
/// access by DRAM channel and orders `(bank, row)` within each channel — the
/// issue order a controller that sees the whole access up front would choose
/// for row locality. The request *set* is identical (same addresses, kinds,
/// priorities, tags, arrival cycle); only the intra-access order the
/// per-channel FR-FCFS schedulers break same-cycle ties in changes, so the
/// externally observable access pattern is unchanged (DESIGN.md §14).
///
/// A staged request is one record from the engine's emit to its release. The
/// engine emits a bucket's slots back to back, so an access is staged — and
/// ordered — as *row runs*: consecutive requests the address map sends to one
/// `(channel, bank, row)`, decoded and keyed once per run. An access is
/// ordered at most once — each run's location packed into one integer key,
/// the `(key, first program index)` runs sorted — and that one ordering
/// serves the release order, the write footprint and the window entry's read
/// list alike. It is paid for only when something consumes it: a serial
/// release whose entry no later access will check (a window of one) enqueues
/// the records as staged (DESIGN.md §15).
#[derive(Debug)]
pub struct TimingSink {
    memory: MemorySystem,
    now: u64,
    issue_mode: IssueMode,
    /// Radices of the packed location key, from the memory geometry: banks
    /// per channel, and one more than the largest row any address decodes
    /// to. See [`location_key`](TimingSink::location_key).
    key_banks: u64,
    key_rows: u64,
    /// Bytes of consecutive address space the address map decodes to one
    /// location: a whole row under [`AddressMapping::PageInterleave`], one
    /// 64 B line under [`AddressMapping::LineInterleave`] (whose next line is
    /// on another channel). Such spans tile the address space from zero.
    run_span: u64,
    /// The run a request may still join: the first byte of the span its
    /// requests fall in, and their one decoded location. The next request
    /// extends it, undecoded, if it falls in the same span. `None` when
    /// nothing is staged, or once the runs have been sorted.
    open_run: Option<(u64, DecodedAddr)>,
    /// The access being staged, in program order.
    staged: Vec<StagedRequest>,
    /// `staged` cut into row runs: in program order while staging, in
    /// `(key, first)` order — the one ordering an access is given — once
    /// `open_run` is `None`. Emptied by the release.
    runs: Vec<RowRun>,
    /// The distinct location keys `staged` writes, ascending — what
    /// in-flight reads are checked against. Scratch of
    /// [`conflict_gate`](TimingSink::conflict_gate).
    write_keys: Vec<u64>,
    /// Read lists of resolved window entries, kept for the next release.
    spare: Vec<Vec<(u64, u32)>>,
}

/// One access in the controller's in-flight window: its requests' ids
/// (contiguous, so `first id + len`) and — when a later access can enter the
/// window beside it — its *reads* as `(location key, position in ids)` in
/// ascending key order: the locations a later access's writeback must not
/// overwrite before they are served (write-after-read, the one DRAM-level
/// hazard the window has to order explicitly; see
/// [`TimingSink::conflict_gate`]).
#[derive(Debug)]
pub(crate) struct InflightAccess {
    pub(crate) ids: RequestIdRange,
    pub(crate) reads: Vec<(u64, u32)>,
}

/// The id of the request at position `pos` of a released batch.
fn id_at(ids: &RequestIdRange, pos: usize) -> RequestId {
    ids.clone().nth(pos).expect("one id per request of the batch")
}

/// One staged DRAM request: everything the release needs.
#[derive(Debug, Clone, Copy)]
struct StagedRequest {
    kind: MemOpKind,
    tag: u32,
    online: bool,
    at: DecodedAddr,
}

/// `len` consecutively staged requests, from program index `first`, that
/// share one location. Ordered by `(key, first)`: runs of one key are
/// disjoint, ascending index ranges, so sorting the runs and expanding each
/// in place is sorting the requests by `(key, program index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RowRun {
    key: u64,
    first: u32,
    len: u32,
    has_write: bool,
}

impl RowRun {
    /// The run's program indices.
    fn range(&self) -> std::ops::Range<usize> {
        self.first as usize..(self.first + self.len) as usize
    }
}

impl TimingSink {
    /// Wraps a memory system (serial issue mode).
    pub fn new(memory: MemorySystem) -> Self {
        let cfg = memory.config();
        let key_banks = cfg.banks_per_channel();
        // Both address maps compute `row = line / (lines per row × channels
        // × banks)`, rounding down at each step, so no 64-bit address decodes
        // to a row above `(u64::MAX / 64) / lines_per_row_index`.
        let lines_per_row_index =
            cfg.lines_per_row().saturating_mul(u64::from(cfg.channels) * key_banks);
        let key_rows = (u64::MAX / 64) / lines_per_row_index + 1;
        let run_span = match cfg.mapping {
            AddressMapping::PageInterleave => cfg.lines_per_row() * 64,
            AddressMapping::LineInterleave => 64,
        };
        TimingSink {
            memory,
            now: 0,
            issue_mode: IssueMode::Serial,
            key_banks,
            key_rows,
            run_span,
            open_run: None,
            staged: Vec::new(),
            runs: Vec::new(),
            write_keys: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Packs a decoded `(channel, bank, row)` into one integer that orders
    /// exactly as the tuple does: `(channel × banks + bank) × rows + row`.
    /// The radices come from the geometry (`rows` exceeds every decodable
    /// row), so the packing is lossless for every configuration and address,
    /// and its largest value, below `2^58 + channels × banks`, fits a `u64`.
    pub(crate) fn location_key(&self, at: DecodedAddr) -> u64 {
        debug_assert!(u64::from(at.bank) < self.key_banks && at.row < self.key_rows);
        (u64::from(at.channel) * self.key_banks + u64::from(at.bank)) * self.key_rows + at.row
    }

    /// Sets the order releases hand requests to the memory system in. An
    /// access is ordered as a whole at its release, by the mode then in
    /// force, so no request is ever reordered across a mode switch.
    pub fn set_issue_mode(&mut self, mode: IssueMode) {
        self.issue_mode = mode;
    }

    /// The issue mode in force.
    pub fn issue_mode(&self) -> IssueMode {
        self.issue_mode
    }

    /// Fixes the staged access's ordering, once: sorts the runs by `(key,
    /// first index)`. Runs are distinct in that pair, so the unstable sort is
    /// the permutation a stable sort of the requests on the key alone gives —
    /// same-location requests keep their program order. Sorting closes the
    /// last run (it may no longer be last): a request staged afterwards
    /// starts a new one, and the runs are sorted again.
    fn order_staged(&mut self) {
        if self.open_run.take().is_some() {
            self.runs.sort_unstable();
        }
    }

    /// The one hand-off to the memory system: moves the clock to `cycle`,
    /// releases the staged access as one batch arriving at that cycle, and
    /// returns it as a window entry. The controller stages the whole access,
    /// resolves its dependency gates against the staged footprint, and only
    /// then knows the arrival cycle. `cycle` must be ≥ the last timestamp
    /// (the memory model's non-decreasing contract).
    ///
    /// A serial-mode release preserves program order; a channel-parallel
    /// release follows the key order, i.e. groups by channel and orders
    /// `(bank, row)` within each channel. `list_reads` says whether the entry
    /// can still be in the window when a later access checks write-after-read
    /// conflicts; only then are its reads listed (see [`InflightAccess`]).
    ///
    /// `online_done` is overwritten with the completion cycle of each online
    /// read (unordered): the controller charges the crypto burst after the
    /// latest one (serial issue) or folds them through
    /// [`aboram_crypto::CryptoLatency::overlapped_exit_from`]
    /// (channel-parallel issue).
    ///
    /// The controller owns the entry's requests from here on: it resolves
    /// them ([`resolve_inflight`](TimingSink::resolve_inflight)) and retires
    /// them from the memory system once the access leaves its window.
    pub(crate) fn release_at(
        &mut self,
        cycle: u64,
        list_reads: bool,
        online_done: &mut Vec<u64>,
    ) -> InflightAccess {
        debug_assert!(cycle >= self.now, "release_at must not move the clock backwards");
        self.now = cycle;
        online_done.clear();
        let mut reads = self.spare.pop().unwrap_or_default();
        let parallel = self.issue_mode == IssueMode::ChannelParallel;
        let ordered = parallel || list_reads;
        if ordered {
            self.order_staged();
        }
        let (staged, runs) = (&self.staged, &self.runs);
        let request = |r: &StagedRequest| {
            let priority = if r.online { Priority::Online } else { Priority::Offline };
            (r.kind, r.at, priority, r.tag)
        };
        let ids = if parallel {
            let in_key_order = runs.iter().flat_map(|run| &staged[run.range()]).map(request);
            self.memory.enqueue_decoded(in_key_order, cycle)
        } else {
            self.memory.enqueue_decoded(staged.iter().map(request), cycle)
        };
        if ordered {
            let mut rank = 0;
            for run in runs {
                for i in run.range() {
                    let r = &staged[i];
                    if r.kind == MemOpKind::Read {
                        let pos = if parallel { rank } else { i };
                        if r.online {
                            online_done.push(self.memory.completion_time(id_at(&ids, pos)));
                        }
                        if list_reads {
                            reads.push((run.key, pos as u32));
                        }
                    }
                    rank += 1;
                }
            }
        } else {
            // Program order and nothing to list: no ordering was needed.
            for (pos, r) in staged.iter().enumerate() {
                if r.online && r.kind == MemOpKind::Read {
                    online_done.push(self.memory.completion_time(id_at(&ids, pos)));
                }
            }
        }
        self.staged.clear();
        self.runs.clear();
        self.open_run = None;
        InflightAccess { ids, reads }
    }

    /// Resolves an in-flight access to its full completion cycle — the
    /// latest completion over all of its requests, reads and writebacks
    /// alike. Forcing the lazy completion times here is what makes the
    /// window-overflow gate a true dependency. The entry's read list is kept
    /// for the next release, so a steady window allocates nothing.
    pub(crate) fn resolve_inflight(&mut self, mut entry: InflightAccess) -> u64 {
        let done = entry.ids.map(|id| self.memory.completion_time(id)).max().unwrap_or(0);
        entry.reads.clear();
        self.spare.push(entry.reads);
        done
    }

    /// The earliest cycle at which the staged access may issue without
    /// overwriting a location an access in `window` has not finished reading:
    /// the latest completion over exactly the entries' reads in the
    /// `(channel, bank, row)` rows the staged access writes (zero when
    /// disjoint, or when nothing is in flight — an empty window costs no
    /// ordering). Both sides are in ascending key order, so one merge per
    /// entry finds them.
    ///
    /// Write-after-read is the one DRAM-level hazard the window orders
    /// explicitly. Read-after-write needs no gate — a read of a location
    /// with a pending writeback is served from the controller's write
    /// queue (and the protocol state it would observe is already on chip:
    /// the stash hand-off gate runs strictly later than the forwarding
    /// point). Write-after-write needs none either: per-bank queues serve
    /// same-row writes in arrival order. Gating on the conflicting
    /// access's *writes* would instead re-serialize the controller — every
    /// pair of paths shares rows near the root, and offline writebacks are
    /// deprioritized to the end of the drain.
    pub(crate) fn conflict_gate<'a>(
        &mut self,
        window: impl IntoIterator<Item = &'a InflightAccess>,
    ) -> u64 {
        let mut window = window.into_iter().peekable();
        if window.peek().is_none() {
            return 0;
        }
        self.order_staged();
        self.write_keys.clear();
        for run in &self.runs {
            if run.has_write && self.write_keys.last() != Some(&run.key) {
                self.write_keys.push(run.key);
            }
        }
        let (writes, mut gate) = (&self.write_keys, 0);
        for entry in window {
            let mut w = 0;
            for &(key, pos) in &entry.reads {
                while w < writes.len() && writes[w] < key {
                    w += 1;
                }
                if w == writes.len() {
                    break;
                }
                if writes[w] == key {
                    let read = id_at(&entry.ids, pos as usize);
                    gate = gate.max(self.memory.completion_time(read));
                }
            }
        }
        gate
    }

    /// The arrival cycle of the most recent release.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether nothing is staged: every emitted request has been released.
    pub fn is_idle(&self) -> bool {
        self.staged.is_empty()
    }

    /// Access to the underlying memory system (stats, drain).
    pub fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// Mutable access to the underlying memory system.
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.memory
    }

    fn stage(&mut self, kind: MemOpKind, addr: SlotAddr, online: bool, op: OramOp) {
        let (byte, write) = (addr.byte(), kind == MemOpKind::Write);
        let at = match self.open_run {
            Some((base, at)) if byte.wrapping_sub(base) < self.run_span => {
                let run = self.runs.last_mut().expect("the open run is the last one");
                run.len += 1;
                run.has_write |= write;
                at
            }
            _ => {
                let at = self.memory.decode_addr(byte);
                let first =
                    u32::try_from(self.staged.len()).expect("an access of under 2^32 requests");
                self.runs.push(RowRun {
                    key: self.location_key(at),
                    first,
                    len: 1,
                    has_write: write,
                });
                self.open_run = Some((byte - byte % self.run_span, at));
                at
            }
        };
        self.staged.push(StagedRequest { kind, tag: op.tag(), online, at });
    }
}

impl MemorySink for TimingSink {
    fn read(&mut self, addr: SlotAddr, op: OramOp, online: bool) {
        self.stage(MemOpKind::Read, addr, online, op);
    }

    fn write(&mut self, addr: SlotAddr, op: OramOp, online: bool) {
        self.stage(MemOpKind::Write, addr, online, op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aboram_dram::{AddressMapping, DramConfig};
    use proptest::prelude::*;

    impl TimingSink {
        /// Address and capacity of every buffer the staged path reuses: the
        /// three the sink keeps, then the read lists — its spares and the
        /// `in_window` ones a controller holds — sorted. Stable once a run
        /// is warm.
        pub(crate) fn buffers<'a>(
            &'a self,
            in_window: impl Iterator<Item = &'a InflightAccess>,
        ) -> Vec<(usize, usize)> {
            let lists = self.spare.iter().chain(in_window.map(|e| &e.reads));
            let mut lists: Vec<_> = lists.map(|v| (v.as_ptr() as usize, v.capacity())).collect();
            lists.sort_unstable();
            let mut all = vec![
                (self.staged.as_ptr() as usize, self.staged.capacity()),
                (self.runs.as_ptr() as usize, self.runs.capacity()),
                (self.write_keys.as_ptr() as usize, self.write_keys.capacity()),
            ];
            all.extend(lists);
            all
        }
    }

    #[test]
    fn counting_sink_attributes_per_op() {
        let mut s = CountingSink::new();
        s.read(SlotAddr(0), OramOp::ReadPath, true);
        s.read(SlotAddr(64), OramOp::Metadata, true);
        s.write(SlotAddr(0), OramOp::EvictPath, false);
        s.write(SlotAddr(64), OramOp::EvictPath, false);
        assert_eq!(s.reads(OramOp::ReadPath), 1);
        assert_eq!(s.total(OramOp::EvictPath), 2);
        assert_eq!(s.grand_total(), 4);
        assert_eq!(s.online_total(), 2);
        assert_eq!(s.offline_total(), 2);
    }

    #[test]
    fn timing_sink_tracks_online_reads() {
        let mut s = TimingSink::new(MemorySystem::new(DramConfig::default()));
        s.read(SlotAddr(0), OramOp::ReadPath, true);
        s.read(SlotAddr(4096), OramOp::EvictPath, false);
        s.write(SlotAddr(128), OramOp::EvictPath, false);
        assert_eq!(s.memory().pending(), 0, "nothing reaches DRAM before the release");
        let mut online = vec![7];
        let entry = s.release_at(100, false, &mut online);
        assert_eq!((s.now(), entry.ids.len()), (100, 3));
        assert!(online.len() == 1 && online[0] > 100, "the one online read's reply: {online:?}");
        s.memory_mut().drain();
        assert_eq!(s.memory().stats().total_requests(), 3);
    }

    #[test]
    fn channel_parallel_staging_preserves_the_request_set() {
        let mk = || TimingSink::new(MemorySystem::new(DramConfig::default()));
        let addrs: Vec<SlotAddr> = (0..16).map(|i| SlotAddr(i * 4096 + 64)).collect();

        let mut serial = mk();
        let mut par = mk();
        par.set_issue_mode(IssueMode::ChannelParallel);
        let mut done = [0, 0];
        for (s, done) in [&mut serial, &mut par].into_iter().zip(&mut done) {
            for &a in &addrs {
                s.read(a, OramOp::Metadata, true);
            }
            s.read_batch(&addrs, OramOp::ReadPath, true);
            s.write_batch(&addrs, OramOp::EvictPath, false);
            assert!(!s.is_idle(), "requests stay staged until the release");
            // The latest online completion exists in both modes (values may
            // differ; the request set may be serviced in a different order).
            let mut times = Vec::new();
            let entry = s.release_at(10, false, &mut times);
            assert_eq!(times.len(), 32);
            assert!(times.iter().max().copied().unwrap_or(0) > 10);
            *done = s.resolve_inflight(entry);
            assert!(s.is_idle());
            s.memory_mut().drain();
        }
        assert!(done[0] > 10 && done[1] > 10);
        let (a, b) = (serial.memory().stats(), par.memory().stats());
        assert_eq!(a.total_requests(), b.total_requests());
        assert_eq!(a.reads(), b.reads());
        assert_eq!(a.writes(), b.writes());
        for op in OramOp::ALL {
            assert_eq!(a.requests_for_tag(op.tag()), b.requests_for_tag(op.tag()));
        }
        assert_eq!(
            a.requests_by_channel().iter().sum::<u64>(),
            b.requests_by_channel().iter().sum::<u64>(),
        );
    }

    #[test]
    fn each_request_is_recorded_once_and_retired_by_its_owner() {
        // One owner: a release hands every id to the window entry, the sink
        // keeps none, and the entry's holder ends the requests' life in the
        // twin once it resolved them.
        let addrs: Vec<SlotAddr> = (0..6).map(|i| SlotAddr(i * 4096)).collect();
        let mut sink = TimingSink::new(MemorySystem::new(DramConfig::default()));
        sink.read_batch(&addrs[..2], OramOp::Metadata, false);
        sink.read_batch(&addrs[2..4], OramOp::ReadPath, true);
        sink.write_batch(&addrs[4..], OramOp::EvictPath, false);
        assert_eq!(sink.memory().tracked_requests(), 0, "staged, not yet DRAM's");
        let mut online = Vec::new();
        let entry = sink.release_at(10, true, &mut online);
        assert!(entry.ids.len() == 6 && entry.reads.len() == 4 && online.len() == 2);
        assert!(sink.memory().tracked_requests() == 6 && sink.is_idle());

        let next = sink.memory().next_request_id();
        sink.memory_mut().retire(next);
        assert!(sink.memory().tracked_requests() > 0, "unresolved, so not retired");
        assert!(sink.resolve_inflight(entry) > 10);
        sink.memory_mut().retire(next);
        assert_eq!(sink.memory().tracked_requests(), 0);

        // A window of one lists no reads; the ids are handed over all the same.
        sink.read_batch(&addrs, OramOp::ReadPath, true);
        let unlisted = sink.release_at(20, false, &mut online);
        assert!(unlisted.ids.len() == 6 && unlisted.reads.is_empty() && online.len() == 6);
    }

    /// One request of a hand-built access.
    #[derive(Debug, Clone, Copy)]
    struct Req {
        addr: u64,
        write: bool,
        online: bool,
        op: OramOp,
    }

    /// A bucket-shaped burst — `(row, first line, slots, write mask, online
    /// mask, op)`: 3–8 consecutive lines of one of a few rows, each slot a read
    /// or a write, online or not. Locations repeat within and across accesses,
    /// bursts of one row meet back to back, and one row run can hold both
    /// kinds.
    type Burst = (u64, u64, u64, u8, u8, usize);

    fn arb_burst() -> impl Strategy<Value = Burst> {
        (0u64..12, any::<u64>(), 3u64..=8, any::<u8>(), any::<u8>(), 0usize..5)
    }

    /// Lays the bursts out under `cfg`: burst row `r` is DRAM page `base_row +
    /// r × spread` (a `spread` of the channel count pins a page-interleaved
    /// access to one channel).
    fn build(cfg: &DramConfig, bursts: &[Burst], spread: u64, base_row: u64) -> Vec<Req> {
        let mut access = Vec::new();
        for &(row, first, slots, writes, onlines, op) in bursts {
            let first = first % (cfg.lines_per_row() - slots + 1);
            for slot in 0..slots {
                access.push(Req {
                    addr: (base_row + row * spread) * cfg.row_bytes + (first + slot) * 64,
                    write: writes >> slot & 1 == 1,
                    online: onlines >> slot & 1 == 1,
                    op: OramOp::ALL[op],
                });
            }
        }
        access
    }

    fn emit(sink: &mut TimingSink, access: &[Req]) {
        for r in access {
            if r.write {
                sink.write(SlotAddr(r.addr), r.op, r.online);
            } else {
                sink.read(SlotAddr(r.addr), r.op, r.online);
            }
        }
    }

    fn location(mem: &MemorySystem, r: &Req) -> (u8, u16, u64) {
        let d = mem.decode_addr(r.addr);
        (d.channel, d.bank, d.row)
    }

    /// The reference release order: program order, or a *stable* sort on the
    /// `(channel, bank, row)` tuple under channel-parallel issue.
    fn reference_order(mem: &MemorySystem, access: &[Req], mode: IssueMode) -> Vec<Req> {
        let mut order = access.to_vec();
        if mode == IssueMode::ChannelParallel {
            order.sort_by_key(|r| location(mem, r));
        }
        order
    }

    /// The reference release: decode, order, one `enqueue` per request.
    fn reference_release(mem: &mut MemorySystem, order: &[Req], now: u64) -> Vec<RequestId> {
        let enqueue = |r: &Req| {
            let kind = if r.write { MemOpKind::Write } else { MemOpKind::Read };
            let pri = if r.online { Priority::Online } else { Priority::Offline };
            mem.enqueue(kind, r.addr, pri, r.op.tag(), now)
        };
        order.iter().map(enqueue).collect()
    }

    /// Table III and a geometry none of whose radices is a power of two, each
    /// under both address maps.
    fn configs() -> impl Iterator<Item = DramConfig> {
        let table_iii = DramConfig::default();
        let odd = DramConfig { channels: 3, ranks: 3, banks: 5, row_bytes: 1536, ..table_iii };
        [table_iii, odd].into_iter().flat_map(|geometry| {
            [AddressMapping::PageInterleave, AddressMapping::LineInterleave]
                .map(|mapping| DramConfig { mapping, ..geometry })
        })
    }

    /// What the staged access was cut into, as `(first, len, has_write)`.
    fn runs(sink: &TimingSink) -> Vec<(u32, u32, bool)> {
        sink.runs.iter().map(|run| (run.first, run.len, run.has_write)).collect()
    }

    #[test]
    fn a_buckets_consecutive_slots_stage_one_run() {
        let page = DramConfig::default();
        let bucket: Vec<SlotAddr> =
            (0..8).map(|slot| SlotAddr(3 * page.row_bytes + slot * 64)).collect();
        let mut sink = TimingSink::new(MemorySystem::new(page));
        sink.read_batch(&bucket[..5], OramOp::ReadPath, true);
        assert_eq!(runs(&sink), [(0, 5, false)]);
        // The same row again, now written: still the one run, holding both kinds.
        sink.write_batch(&bucket[5..], OramOp::EvictPath, false);
        assert_eq!(runs(&sink), [(0, 8, true)]);
        // The row's last line and the next row's first are neighbours in the
        // address space and one channel apart: the run ends at the boundary.
        sink.read(SlotAddr(4 * page.row_bytes - 64), OramOp::Metadata, true);
        sink.read(SlotAddr(4 * page.row_bytes), OramOp::Metadata, true);
        assert_eq!(runs(&sink), [(0, 9, true), (9, 1, false)]);
        // Every run member carries the run's one decoded location.
        let decoded = |r: &StagedRequest| sink.location_key(r.at);
        for run in &sink.runs {
            assert!(sink.staged[run.range()].iter().all(|r| decoded(r) == run.key));
        }

        // Line interleave sends neighbouring lines to different channels: the
        // memo holds one line, so only a repeat of that line extends a run.
        let line = DramConfig { mapping: AddressMapping::LineInterleave, ..page };
        let mut sink = TimingSink::new(MemorySystem::new(line));
        sink.read_batch(&bucket, OramOp::ReadPath, true);
        assert_eq!(runs(&sink).len(), 8);
        sink.write(bucket[7], OramOp::EvictPath, false);
        assert_eq!(runs(&sink)[7..], [(7, 2, true)]);
        let mut channels: Vec<_> = sink.staged[..4].iter().map(|r| r.at.channel).collect();
        channels.dedup();
        assert_eq!(channels.len(), 4, "neighbouring lines sit on four channels");
    }

    #[test]
    fn staging_after_the_runs_were_ordered_starts_a_new_run() {
        let cfg = DramConfig::default();
        let row = |r: u64| SlotAddr(r * cfg.row_bytes);
        let mut sink = TimingSink::new(MemorySystem::new(cfg));
        sink.read(row(9), OramOp::ReadPath, true);
        sink.read(row(1), OramOp::ReadPath, true);
        let entry = sink.release_at(0, true, &mut Vec::new());
        // The gate orders the runs; the last one staged is no longer last.
        for r in [9, 1] {
            sink.write(row(r), OramOp::EvictPath, false);
        }
        assert!(sink.conflict_gate([&entry]) > 0);
        assert_eq!(runs(&sink), [(1, 1, true), (0, 1, true)]);
        // Row 9 again: a new run, not an extension of the run now in front.
        sink.write(row(9), OramOp::EvictPath, false);
        assert_eq!(runs(&sink), [(1, 1, true), (0, 1, true), (2, 1, true)]);
        sink.release_at(1, true, &mut Vec::new());
        assert_eq!(runs(&sink), [], "the release sorted again, then emptied the runs");
        assert!(sink.open_run.is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `key(a) < key(b)` exactly when the `(channel, bank, row)` tuples
        /// order that way, for both address maps, a geometry with no
        /// power-of-two radix, and addresses up to the top of the range.
        #[test]
        fn location_key_orders_as_the_tuple(
            pairs in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u64..4096), 1..64),
        ) {
            for cfg in configs() {
                let sink = TimingSink::new(MemorySystem::new(cfg));
                let tuple = |addr| {
                    let d = sink.memory().decode_addr(addr);
                    ((d.channel, d.bank, d.row), sink.location_key(d))
                };
                for &(a, b, near) in &pairs {
                    // Far apart, neighbours, and both against the top.
                    for (a, b) in [(a, b), (a, a.wrapping_add(near * 64)), (a, u64::MAX - near)] {
                        let ((ta, ka), (tb, kb)) = (tuple(a), tuple(b));
                        prop_assert_eq!(ka.cmp(&kb), ta.cmp(&tb), "{:#x} vs {:#x}", a, b);
                    }
                }
            }
        }

        /// The sink's release against a reference kept here: same ids, same
        /// completion cycle per id, same online reads, same statistics and a
        /// twin left in the same state (a probe burst afterwards completes at
        /// the same cycles) — under both issue modes, listing reads or not,
        /// over every geometry and address map of [`configs`].
        #[test]
        fn staged_release_matches_a_one_request_at_a_time_reference(
            accesses in proptest::collection::vec(
                (proptest::collection::vec(arb_burst(), 0..9), any::<bool>(), 0u64..3_000),
                1..8,
            ),
        ) {
            let modes = [IssueMode::Serial, IssueMode::ChannelParallel];
            for cfg in configs() {
                for (mode, list_reads) in modes.into_iter().flat_map(|m| [(m, false), (m, true)]) {
                    let mut sink = TimingSink::new(MemorySystem::new(cfg));
                    sink.set_issue_mode(mode);
                    let mut reference = MemorySystem::new(cfg);
                    let mut now = 0;
                    for (bursts, one_channel, gap) in &accesses {
                        let spread = if *one_channel { u64::from(cfg.channels) } else { 1 };
                        let access = build(&cfg, bursts, spread, 0);
                        now += gap;
                        let order = reference_order(&reference, &access, mode);
                        let want = reference_release(&mut reference, &order, now);

                        emit(&mut sink, &access);
                        // Under line interleave no two lines share a run.
                        let merged = sink.runs.iter().any(|run| {
                            access[run.range()].windows(2).any(|w| w[0].addr / 64 != w[1].addr / 64)
                        });
                        prop_assert!(cfg.mapping == AddressMapping::PageInterleave || !merged);
                        let mut online_done = Vec::new();
                        let entry = sink.release_at(now, list_reads, &mut online_done);
                        let ids: Vec<_> = entry.ids.clone().collect();
                        prop_assert_eq!(&ids, &want, "{:?} list_reads={}", mode, list_reads);
                        // The window entry lists exactly the reads, by
                        // location then issue order — or nothing.
                        let mut reads: Vec<_> = (order.iter().zip(&want))
                            .filter(|(r, _)| list_reads && !r.write)
                            .map(|(r, &id)| (location(&reference, r), id))
                            .collect();
                        reads.sort();
                        let listed = entry.reads.iter().map(|&(_, pos)| ids[pos as usize]);
                        prop_assert!(listed.eq(reads.iter().map(|&(_, id)| id)));
                        prop_assert!(entry.reads.windows(2).all(|w| w[0] < w[1]));

                        let mut online: Vec<_> = (order.iter().zip(&want))
                            .filter(|(r, _)| r.online && !r.write)
                            .map(|(_, &id)| reference.completion_time(id))
                            .collect();
                        online.sort();
                        online_done.sort();
                        prop_assert_eq!(&online_done, &online);

                        for id in ids {
                            let got = sink.memory_mut().completion_time(id);
                            prop_assert_eq!(got, reference.completion_time(id), "{:?}", id);
                        }
                        sink.resolve_inflight(entry);
                    }
                    prop_assert!(sink.is_idle());
                    sink.memory_mut().drain();
                    reference.drain();
                    prop_assert_eq!(sink.memory().stats(), reference.stats());
                    for i in 0..64u64 {
                        let (kind, addr) = (MemOpKind::Read, i * 65 * 64);
                        let a = sink.memory_mut().enqueue(kind, addr, Priority::Online, 0, now);
                        let b = reference.enqueue(kind, addr, Priority::Online, 0, now);
                        let got = sink.memory_mut().completion_time(a);
                        prop_assert_eq!(got, reference.completion_time(b), "probe {}", i);
                    }
                }
            }
        }

        /// The merged gate against brute force — "every read of the entry
        /// whose row the staged access writes" — on entries that are disjoint
        /// from, overlap, or repeat the rows written: same cycle, and the twin
        /// left in the same state, over every geometry and address map.
        #[test]
        fn merged_conflict_gate_matches_brute_force(
            first in proptest::collection::vec(arb_burst(), 0..12),
            second in proptest::collection::vec(arb_burst(), 0..12),
            disjoint in any::<bool>(),
            parallel in any::<bool>(),
        ) {
            let mode = if parallel { IssueMode::ChannelParallel } else { IssueMode::Serial };
            for cfg in configs() {
                // Past every row `first` can decode to, under either map.
                let apart = if disjoint { 12 * u64::from(cfg.channels) * cfg.banks_per_channel() } else { 0 };
                let first = build(&cfg, &first, 1, 0);
                let second = build(&cfg, &second, 1, apart);
                let mk = || {
                    let mut sink = TimingSink::new(MemorySystem::new(cfg));
                    sink.set_issue_mode(mode);
                    emit(&mut sink, &first);
                    let entry = sink.release_at(100, true, &mut Vec::new());
                    emit(&mut sink, &second);
                    (sink, entry)
                };

                let (mut merged, entry) = mk();
                let gate = merged.conflict_gate([&entry]);

                let (mut brute, entry) = mk();
                let mem = brute.memory_mut();
                let written: Vec<_> =
                    second.iter().filter(|r| r.write).map(|r| location(mem, r)).collect();
                let mut want = 0;
                for (r, id) in reference_order(mem, &first, mode).iter().zip(entry.ids.clone()) {
                    if !r.write && written.contains(&location(mem, r)) {
                        want = want.max(mem.completion_time(id));
                    }
                }

                prop_assert_eq!(gate, want, "{:?}", cfg.mapping);
                prop_assert!(!disjoint || gate == 0, "disjoint rows never gate");
                prop_assert_eq!(merged.memory().stats(), brute.memory().stats());
                prop_assert_eq!(
                    merged.memory().tracked_requests(),
                    brute.memory().tracked_requests()
                );
                prop_assert_eq!(merged.memory().pending(), brute.memory().pending());
            }
        }
    }

    #[test]
    fn op_tags_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for op in OramOp::ALL {
            assert!(seen.insert(op.tag()));
            assert!(!op.name().is_empty());
        }
    }
}
