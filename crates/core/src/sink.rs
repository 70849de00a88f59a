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
use aboram_dram::{DecodedAddr, MemOpKind, MemorySystem, Priority, RequestId, RequestIdRange};
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
    /// exactly that); sinks backed by the memory system override it to issue
    /// the whole bucket's worth of commands as one batch.
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
/// The access controller sets the CPU timestamp with
/// [`set_now`](TimingSink::set_now) before each ORAM access; online reads are
/// collected so it can ask when the access's critical path completed
/// ([`drain_online_read_times`](TimingSink::drain_online_read_times)).
///
/// In [`IssueMode::ChannelParallel`] the sink stages each access's requests
/// instead of enqueueing them immediately, then releases them to the memory
/// system grouped by DRAM channel and ordered `(bank, row)` within each
/// channel — the issue order a controller that sees the whole access up
/// front would choose for row locality. The request *set* is identical to
/// serial mode (same addresses, kinds, priorities, tags, arrival cycle);
/// only the intra-access order the per-channel FR-FCFS schedulers break
/// same-cycle ties in changes, so the externally observable access pattern
/// is unchanged (DESIGN.md §14).
///
/// In *pipelined* operation (access-pipeline depth > 1) the sink stages under
/// *both* issue modes: the access controller decides the access's final
/// arrival cycle only after seeing its staged footprint (to resolve
/// `(channel, bank, row)` conflicts against in-flight accesses), then
/// releases the whole access. A serial-mode release preserves program order,
/// so a pipelined serial release enqueues exactly what immediate issue at the
/// same cycle would (DESIGN.md §15).
///
/// A staged request is one record from the engine's emit to its release: it
/// is address-decoded once, its `(channel, bank, row)` location packed into
/// one integer key, and the access's one key ordering serves the release
/// order, the write footprint and the window entry's read list alike.
#[derive(Debug)]
pub struct TimingSink {
    memory: MemorySystem,
    now: u64,
    online_reads: Vec<RequestId>,
    /// Undrained requests the sink owns: everything issued except the
    /// accesses [`release_at`](TimingSink::release_at) handed to the
    /// controller's window.
    all_requests: Vec<RequestId>,
    issue_mode: IssueMode,
    pipelined: bool,
    /// Radices of the packed location key, from the memory geometry: banks
    /// per channel, and one more than the largest row any address decodes
    /// to. See [`location_key`](TimingSink::location_key).
    key_banks: u64,
    key_rows: u64,
    /// The access being staged, in program order.
    staged: Vec<StagedRequest>,
    /// `staged` as `(location key, program index)` in ascending order: the
    /// one ordering an access is given. Current exactly when it is as long
    /// as `staged`; emptied, with `write_keys`, by the release.
    order: Vec<(u64, u32)>,
    /// The distinct location keys `staged` writes, ascending (pipelined
    /// operation only) — what in-flight reads are checked against.
    write_keys: Vec<u64>,
    /// Read lists of resolved window entries, kept for the next release.
    spare: Vec<Vec<(u64, u32)>>,
}

/// One access in an access-pipelined in-flight window: its requests' ids
/// (contiguous, so `first id + len`) and its *reads* as `(location key,
/// position in ids)` in ascending key order — the locations a later access's
/// writeback must not overwrite before they are served (write-after-read,
/// the one DRAM-level hazard the window has to order explicitly; see
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

/// One staged DRAM request: everything the release needs, decoded once.
#[derive(Debug, Clone, Copy)]
struct StagedRequest {
    kind: MemOpKind,
    priority: Priority,
    tag: u32,
    online: bool,
    at: DecodedAddr,
    /// [`TimingSink::location_key`] of `at`.
    key: u64,
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
        TimingSink {
            memory,
            now: 0,
            online_reads: Vec::new(),
            all_requests: Vec::new(),
            issue_mode: IssueMode::Serial,
            pipelined: false,
            key_banks,
            key_rows,
            staged: Vec::new(),
            order: Vec::new(),
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

    /// Sets how requests are handed to the memory system. Switching modes
    /// requires no other state change; the access boundary is forced first
    /// so no request is ever reordered across a mode switch.
    pub fn set_issue_mode(&mut self, mode: IssueMode) {
        self.access_boundary();
        self.issue_mode = mode;
    }

    /// The issue mode in force.
    pub fn issue_mode(&self) -> IssueMode {
        self.issue_mode
    }

    /// Turns access-pipelined staging on or off. While on, requests are
    /// staged under *both* issue modes and released by
    /// [`release_at`](TimingSink::release_at) once the controller has fixed
    /// the access's arrival cycle. The access boundary is forced first so no
    /// request crosses the switch.
    pub(crate) fn set_pipelined(&mut self, on: bool) {
        self.access_boundary();
        self.pipelined = on;
    }

    /// Whether requests are staged until the access boundary instead of
    /// enqueued as the engine emits them: always under channel-parallel
    /// issue, and under serial issue while pipelined (the boundary releases
    /// in program order) so the controller can inspect the footprint before
    /// fixing arrival.
    fn stages(&self) -> bool {
        self.pipelined || self.issue_mode == IssueMode::ChannelParallel
    }

    /// Fixes the staged access's ordering, once: sorts its `(key, program
    /// index)` pairs and reads the write footprint off them. The pairs are
    /// distinct, so the unstable sort is the permutation a stable sort on the
    /// key alone gives — same-location requests keep their program order.
    fn order_staged(&mut self) {
        if self.order.len() == self.staged.len() {
            return;
        }
        self.order.clear();
        self.order.extend(self.staged.iter().enumerate().map(|(i, r)| (r.key, i as u32)));
        self.order.sort_unstable();
        self.write_keys.clear();
        if self.pipelined {
            for &(key, i) in &self.order {
                let write = self.staged[i as usize].kind == MemOpKind::Write;
                if write && self.write_keys.last() != Some(&key) {
                    self.write_keys.push(key);
                }
            }
        }
    }

    /// Releases the staged access to the memory system as one batch and
    /// returns its ids. A serial-mode release preserves program order; a
    /// channel-parallel release follows the key order, i.e. groups by
    /// channel and orders `(bank, row)` within each channel. With `reads`,
    /// also lists the access's reads for a window entry (see
    /// [`InflightAccess`]).
    fn release_staged(&mut self, mut reads: Option<&mut Vec<(u64, u32)>>) -> RequestIdRange {
        self.order_staged();
        let parallel = self.issue_mode == IssueMode::ChannelParallel;
        let (staged, order) = (&self.staged, &self.order);
        let request = |r: &StagedRequest| (r.kind, r.at, r.priority, r.tag);
        let ids = if parallel {
            let in_key_order = order.iter().map(|&(_, i)| request(&staged[i as usize]));
            self.memory.enqueue_decoded(in_key_order, self.now)
        } else {
            self.memory.enqueue_decoded(staged.iter().map(request), self.now)
        };
        for (rank, &(key, i)) in order.iter().enumerate() {
            let r = &staged[i as usize];
            if r.kind == MemOpKind::Read {
                let pos = if parallel { rank } else { i as usize };
                if r.online {
                    self.online_reads.push(id_at(&ids, pos));
                }
                if let Some(reads) = reads.as_deref_mut() {
                    reads.push((key, pos as u32));
                }
            }
        }
        self.staged.clear();
        self.order.clear();
        self.write_keys.clear();
        ids
    }

    /// The single access-boundary choke point: every staged request of the
    /// current access is released to the memory system here, and every
    /// operation that ends or inspects an access (clock moves, drains, mode
    /// switches) funnels through this helper. The released ids stay the
    /// sink's to drain; only [`release_at`](TimingSink::release_at) hands
    /// an access over.
    fn access_boundary(&mut self) {
        if !self.staged.is_empty() {
            let ids = self.release_staged(None);
            self.all_requests.extend(ids);
        }
    }

    /// Sets the arrival timestamp for subsequent requests. Timestamps must
    /// be non-decreasing (the memory model's contract). Staged requests
    /// belong to the access that issued them, so the boundary is forced
    /// before the clock moves.
    pub fn set_now(&mut self, cycle: u64) {
        self.access_boundary();
        self.now = cycle;
    }

    /// Pipelined release: moves the clock to `cycle` *first*, then releases
    /// the staged access so it arrives at that cycle, and hands it over as a
    /// window entry. This is the one boundary whose staged requests belong
    /// to the access *being released* rather than a finished one — the
    /// controller stages the whole access, resolves its dependency gates
    /// against the staged footprint, and only then knows the arrival cycle.
    /// `cycle` must be ≥ the last timestamp (the memory model's
    /// non-decreasing contract).
    ///
    /// The controller owns the entry's requests from here on: it resolves
    /// them ([`resolve_inflight`](TimingSink::resolve_inflight)) and retires
    /// them from the memory system once the access leaves its window.
    pub(crate) fn release_at(&mut self, cycle: u64) -> InflightAccess {
        debug_assert!(cycle >= self.now, "release_at must not move the clock backwards");
        self.now = cycle;
        let mut reads = self.spare.pop().unwrap_or_default();
        let ids = self.release_staged(Some(&mut reads));
        InflightAccess { ids, reads }
    }

    /// Resolves an in-flight access to its full completion cycle — the
    /// latest completion over all of its requests, reads and writebacks
    /// alike. Forcing the lazy completion times here is what makes the
    /// pipeline's window-overflow gate a true dependency. The entry's read
    /// list is kept for the next release, so a steady window allocates
    /// nothing.
    pub(crate) fn resolve_inflight(&mut self, mut entry: InflightAccess) -> u64 {
        let done = entry.ids.map(|id| self.memory.completion_time(id)).max().unwrap_or(0);
        entry.reads.clear();
        self.spare.push(entry.reads);
        done
    }

    /// The earliest cycle at which the staged access may issue without
    /// overwriting a location `entry` has not finished reading: the latest
    /// completion over exactly `entry`'s reads in the `(channel, bank, row)`
    /// rows the staged access writes (zero when disjoint). Both sides are in
    /// ascending key order, so one merge finds them.
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
    pub(crate) fn conflict_gate(&mut self, entry: &InflightAccess) -> u64 {
        self.order_staged();
        let (writes, mut w, mut gate) = (&self.write_keys, 0, 0);
        for &(key, pos) in &entry.reads {
            while w < writes.len() && writes[w] < key {
                w += 1;
            }
            if w == writes.len() {
                break;
            }
            if writes[w] == key {
                gate = gate.max(self.memory.completion_time(id_at(&entry.ids, pos as usize)));
            }
        }
        gate
    }

    /// Schedules every pending online read and appends each one's completion
    /// cycle to `into` (unordered), clearing the pending list. The
    /// controller charges the crypto burst after the latest one (serial
    /// issue) or folds the individual completions through
    /// [`aboram_crypto::CryptoLatency::overlapped_exit_from`]
    /// (channel-parallel issue).
    pub fn drain_online_read_times(&mut self, into: &mut Vec<u64>) {
        self.access_boundary();
        into.clear();
        for i in 0..self.online_reads.len() {
            into.push(self.memory.completion_time(self.online_reads[i]));
        }
        self.online_reads.clear();
    }

    /// Schedules *every* request issued since the last drain, clears the
    /// pending list and returns the latest completion cycle (at least
    /// `floor`).
    ///
    /// The drained ids are dead — nothing holds them any more — so the
    /// memory system retires them: at depth 1 this is where an access's
    /// per-request state ends. Online reads still awaiting
    /// [`drain_online_read_times`](TimingSink::drain_online_read_times) bound
    /// the retirement. Ids the access controller took into its in-flight
    /// window (depth > 1) are its to retire; it never mixes the two drains,
    /// quiescing the window before dropping to depth 1.
    pub fn drain_all_requests(&mut self, floor: u64) -> u64 {
        self.access_boundary();
        let mut done = floor;
        for &id in &self.all_requests {
            done = done.max(self.memory.completion_time(id));
        }
        self.all_requests.clear();
        let live = self.online_reads.iter().min().copied();
        self.memory.retire(live.unwrap_or_else(|| self.memory.next_request_id()));
        done
    }

    /// The arrival timestamp set by the last [`set_now`](TimingSink::set_now).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether every issued request has been drained (no ids pending a
    /// completion-time query, nothing staged). Snapshots require this.
    pub fn is_idle(&self) -> bool {
        self.online_reads.is_empty() && self.all_requests.is_empty() && self.staged.is_empty()
    }

    /// Access to the underlying memory system (stats, drain).
    pub fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// Mutable access to the underlying memory system.
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.memory
    }
}

impl TimingSink {
    fn stage(&mut self, kind: MemOpKind, addr: u64, priority: Priority, tag: u32, online: bool) {
        let at = self.memory.decode_addr(addr);
        let key = self.location_key(at);
        self.staged.push(StagedRequest { kind, priority, tag, online, at, key });
    }

    fn issue(&mut self, kind: MemOpKind, addr: u64, priority: Priority, tag: u32, online: bool) {
        if self.stages() {
            return self.stage(kind, addr, priority, tag, online);
        }
        let id = self.memory.enqueue(kind, addr, priority, tag, self.now);
        if online && kind == MemOpKind::Read {
            self.online_reads.push(id);
        }
        self.all_requests.push(id);
    }
}

impl MemorySink for TimingSink {
    fn read(&mut self, addr: SlotAddr, op: OramOp, online: bool) {
        let pri = if online { Priority::Online } else { Priority::Offline };
        self.issue(MemOpKind::Read, addr.byte(), pri, op.tag(), online);
    }

    fn write(&mut self, addr: SlotAddr, op: OramOp, online: bool) {
        let pri = if online { Priority::Online } else { Priority::Offline };
        self.issue(MemOpKind::Write, addr.byte(), pri, op.tag(), online);
    }

    fn read_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        let pri = if online { Priority::Online } else { Priority::Offline };
        if self.stages() {
            for &addr in addrs {
                self.stage(MemOpKind::Read, addr.byte(), pri, op.tag(), online);
            }
            return;
        }
        let ids = self.memory.enqueue_batch(
            MemOpKind::Read,
            addrs.iter().map(|a| a.byte()),
            pri,
            op.tag(),
            self.now,
        );
        if online {
            self.online_reads.extend(ids.clone());
        }
        self.all_requests.extend(ids);
    }

    fn write_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        let pri = if online { Priority::Online } else { Priority::Offline };
        if self.stages() {
            for &addr in addrs {
                self.stage(MemOpKind::Write, addr.byte(), pri, op.tag(), online);
            }
            return;
        }
        let ids = self.memory.enqueue_batch(
            MemOpKind::Write,
            addrs.iter().map(|a| a.byte()),
            pri,
            op.tag(),
            self.now,
        );
        self.all_requests.extend(ids);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aboram_dram::{AddressMapping, DramConfig};
    use proptest::prelude::*;

    impl TimingSink {
        /// Address and capacity of every buffer the staged path reuses: the
        /// five the sink keeps, then the read lists — its spares and the
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
                (self.order.as_ptr() as usize, self.order.capacity()),
                (self.write_keys.as_ptr() as usize, self.write_keys.capacity()),
                (self.online_reads.as_ptr() as usize, self.online_reads.capacity()),
                (self.all_requests.as_ptr() as usize, self.all_requests.capacity()),
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
        s.set_now(100);
        s.read(SlotAddr(0), OramOp::ReadPath, true);
        s.read(SlotAddr(4096), OramOp::EvictPath, false);
        s.write(SlotAddr(128), OramOp::EvictPath, false);
        let mut online = Vec::new();
        s.drain_online_read_times(&mut online);
        assert_eq!(online.len(), 1);
        assert!(online[0] > 100);
        s.drain_online_read_times(&mut online);
        assert!(online.is_empty(), "drained");
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
        for s in [&mut serial, &mut par] {
            s.set_now(10);
            for &a in &addrs {
                s.read(a, OramOp::Metadata, true);
            }
            s.read_batch(&addrs, OramOp::ReadPath, true);
            s.write_batch(&addrs, OramOp::EvictPath, false);
        }
        assert!(!par.is_idle(), "requests stay staged until a drain");

        let (mut serial_times, mut times) = (Vec::new(), Vec::new());
        serial.drain_online_read_times(&mut serial_times);
        par.drain_online_read_times(&mut times);
        assert_eq!(times.len(), serial_times.len());
        // The latest online completion exists in both modes (values may
        // differ; the request set may be serviced in a different order).
        let serial_done = serial_times.iter().max().copied().unwrap_or(0);
        assert!(times.iter().max().copied().unwrap_or(0) > 0 && serial_done > 10);

        serial.drain_all_requests(serial_done);
        par.drain_all_requests(10);
        assert!(serial.is_idle() && par.is_idle());
        for s in [&mut serial, &mut par] {
            s.memory_mut().drain();
        }
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
    fn pipelined_serial_release_matches_immediate_issue() {
        // A pipelined serial-mode access staged and released at cycle `t`
        // must enqueue the identical request sequence (order, kinds,
        // arrival) as unpipelined serial issue at the same `t` — depth-1
        // pipelining is the legacy schedule by construction.
        let mk = || TimingSink::new(MemorySystem::new(DramConfig::default()));
        let addrs: Vec<SlotAddr> = (0..12).map(|i| SlotAddr(i * 4096 + 128)).collect();

        let mut plain = mk();
        plain.set_now(50);
        for &a in &addrs {
            plain.read(a, OramOp::ReadPath, true);
        }
        plain.write_batch(&addrs, OramOp::EvictPath, false);

        let mut piped = mk();
        piped.set_pipelined(true);
        for &a in &addrs {
            piped.read(a, OramOp::ReadPath, true);
        }
        piped.write_batch(&addrs, OramOp::EvictPath, false);
        assert!(!piped.is_idle(), "requests stay staged until release");
        piped.order_staged();
        let fp = &piped.write_keys;
        assert!(!fp.is_empty() && fp.windows(2).all(|w| w[0] < w[1]), "sorted distinct footprint");
        let entry = piped.release_at(50);

        let (a, b) = (plain.drain_all_requests(0), piped.resolve_inflight(entry));
        assert_eq!(a, b, "identical completion schedule");
        for s in [&mut plain, &mut piped] {
            s.memory_mut().drain();
        }
        assert_eq!(
            plain.memory().stats().total_requests(),
            piped.memory().stats().total_requests()
        );
        assert_eq!(
            plain.memory().stats().bytes_transferred(),
            piped.memory().stats().bytes_transferred()
        );
    }

    #[test]
    fn each_request_is_recorded_once_and_retired_by_its_owner() {
        let addrs: Vec<SlotAddr> = (0..6).map(|i| SlotAddr(i * 4096)).collect();

        // Unpipelined: the sink owns the ids until `drain_all_requests`,
        // which retires all but the online reads still awaiting their drain.
        let mut plain = TimingSink::new(MemorySystem::new(DramConfig::default()));
        plain.read_batch(&addrs[..2], OramOp::Metadata, false);
        plain.read_batch(&addrs[2..4], OramOp::ReadPath, true);
        plain.write_batch(&addrs[4..], OramOp::EvictPath, false);
        assert_eq!(plain.all_requests.len(), 6);
        plain.drain_all_requests(0);
        assert_eq!(plain.memory().tracked_requests(), 4, "ids from the first online read on stay");
        let mut online = Vec::new();
        plain.drain_online_read_times(&mut online);
        assert_eq!(online.len(), 2);
        plain.drain_all_requests(0);
        assert!(plain.is_idle());
        assert_eq!(plain.memory().tracked_requests(), 0);

        // Pipelined: a release hands the ids over and leaves their lifetime
        // to the caller; any other boundary keeps them the sink's.
        let mut piped = TimingSink::new(MemorySystem::new(DramConfig::default()));
        piped.set_pipelined(true);
        piped.write_batch(&addrs, OramOp::EvictPath, false);
        let taken = piped.release_at(10);
        assert!(taken.ids.len() == 6 && taken.reads.is_empty());
        assert!(piped.all_requests.is_empty() && piped.is_idle());
        piped.drain_all_requests(0);
        assert_eq!(piped.memory().tracked_requests(), 6, "unresolved, so not the sink's to retire");
        piped.resolve_inflight(taken);
        piped.write_batch(&addrs, OramOp::EvictPath, false);
        piped.set_now(20);
        assert!(piped.all_requests.len() == 6 && !piped.is_idle());
        assert!(piped.drain_all_requests(0) > 10 && piped.is_idle());
        assert_eq!(piped.memory().tracked_requests(), 0);
    }

    /// One request of a hand-built access.
    #[derive(Debug, Clone, Copy)]
    struct Req {
        addr: u64,
        write: bool,
        online: bool,
        op: OramOp,
    }

    /// A request over a few rows, so locations repeat within and across
    /// accesses; `spread` 4 under the default map pins a whole access to one
    /// channel.
    fn arb_req() -> impl Strategy<Value = (u64, u64, bool, bool, usize)> {
        (0u64..12, 0u64..128, any::<bool>(), any::<bool>(), 0usize..5)
    }

    fn build(reqs: &[(u64, u64, bool, bool, usize)], spread: u64, base_row: u64) -> Vec<Req> {
        let row_bytes = DramConfig::default().row_bytes;
        reqs.iter()
            .map(|&(row, line, write, online, op)| Req {
                addr: (base_row + row * spread) * row_bytes + line * 64,
                write,
                online,
                op: OramOp::ALL[op],
            })
            .collect()
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

    /// Table III, and a geometry none of whose radices is a power of two.
    fn geometries() -> [DramConfig; 2] {
        let table_iii = DramConfig::default();
        [table_iii, DramConfig { channels: 3, ranks: 3, banks: 5, row_bytes: 1536, ..table_iii }]
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
            for geometry in geometries() {
                for mapping in [AddressMapping::PageInterleave, AddressMapping::LineInterleave] {
                    let sink = TimingSink::new(MemorySystem::new(DramConfig { mapping, ..geometry }));
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
        }

        /// The sink's release against a reference kept here: same ids, same
        /// completion cycle per id, same online reads, same statistics and a
        /// twin left in the same state (a probe burst afterwards completes at
        /// the same cycles) — under both issue modes, pipelined or not.
        #[test]
        fn staged_release_matches_a_one_request_at_a_time_reference(
            accesses in proptest::collection::vec(
                (proptest::collection::vec(arb_req(), 0..48), any::<bool>(), 0u64..3_000),
                1..10,
            ),
        ) {
            for mode in [IssueMode::Serial, IssueMode::ChannelParallel] {
                for pipelined in [false, true] {
                    let mut sink = TimingSink::new(MemorySystem::new(DramConfig::default()));
                    sink.set_issue_mode(mode);
                    sink.set_pipelined(pipelined);
                    let mut reference = MemorySystem::new(DramConfig::default());
                    let mut now = 0;
                    for (reqs, one_channel, gap) in &accesses {
                        let access = build(reqs, if *one_channel { 4 } else { 1 }, 0);
                        now += gap;
                        let order = reference_order(&reference, &access, mode);
                        let want = reference_release(&mut reference, &order, now);

                        let ids: Vec<RequestId> = if pipelined {
                            emit(&mut sink, &access);
                            let entry = sink.release_at(now);
                            let ids: Vec<_> = entry.ids.clone().collect();
                            // The window entry lists exactly the reads, by
                            // location then issue order.
                            let mut reads: Vec<_> = (order.iter().zip(&want))
                                .filter(|(r, _)| !r.write)
                                .map(|(r, &id)| (location(&reference, r), id))
                                .collect();
                            reads.sort();
                            let listed = entry.reads.iter().map(|&(_, pos)| ids[pos as usize]);
                            prop_assert!(listed.eq(reads.iter().map(|&(_, id)| id)));
                            prop_assert!(entry.reads.windows(2).all(|w| w[0] < w[1]));
                            sink.resolve_inflight(entry);
                            ids
                        } else {
                            sink.set_now(now);
                            emit(&mut sink, &access);
                            sink.access_boundary();
                            std::mem::take(&mut sink.all_requests)
                        };
                        prop_assert_eq!(&ids, &want, "{:?} pipelined={}", mode, pipelined);

                        let mut online: Vec<_> = (order.iter().zip(&want))
                            .filter(|(r, _)| r.online && !r.write)
                            .map(|(_, &id)| id)
                            .collect();
                        online.sort();
                        sink.online_reads.sort();
                        prop_assert_eq!(&sink.online_reads, &online);
                        sink.online_reads.clear();

                        for id in ids {
                            let got = sink.memory_mut().completion_time(id);
                            prop_assert_eq!(got, reference.completion_time(id), "{:?}", id);
                        }
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
        /// left in the same state.
        #[test]
        fn merged_conflict_gate_matches_brute_force(
            first in proptest::collection::vec(arb_req(), 0..64),
            second in proptest::collection::vec(arb_req(), 0..64),
            disjoint in any::<bool>(),
            parallel in any::<bool>(),
        ) {
            let mode = if parallel { IssueMode::ChannelParallel } else { IssueMode::Serial };
            let first = build(&first, 1, 0);
            let second = build(&second, 1, if disjoint { 12 } else { 0 });
            let mk = || {
                let mut sink = TimingSink::new(MemorySystem::new(DramConfig::default()));
                sink.set_issue_mode(mode);
                sink.set_pipelined(true);
                emit(&mut sink, &first);
                let entry = sink.release_at(100);
                emit(&mut sink, &second);
                (sink, entry)
            };

            let (mut merged, entry) = mk();
            let gate = merged.conflict_gate(&entry);

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

            prop_assert_eq!(gate, want);
            prop_assert!(!disjoint || gate == 0, "disjoint rows never gate");
            prop_assert_eq!(merged.memory().stats(), brute.memory().stats());
            prop_assert_eq!(merged.memory().tracked_requests(), brute.memory().tracked_requests());
            prop_assert_eq!(merged.memory().pending(), brute.memory().pending());
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
