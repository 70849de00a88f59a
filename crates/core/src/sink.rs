//! Memory back-ends for the ORAM engine.
//!
//! The engine emits every off-chip block/metadata access through the
//! [`MemorySink`] trait. Two implementations cover the paper's two
//! evaluation modes:
//!
//! * [`CountingSink`] — protocol-level runs (dead-block studies, reshuffle
//!   counts, security experiment) where only traffic *counts* matter;
//! * [`Stager`] — cycle-level runs backed by the `aboram-dram` memory
//!   system, producing execution times, breakdowns and bandwidth.
//!
//! The cycle-level path has two halves, split where the clock enters. The
//! [`Stager`] is timing-free: it decodes, row-runs and orders each access
//! the engine emits and commits it, at the access boundary, into a
//! [`StagedBatch`] — on whichever thread runs the engine. The release half
//! ([`Releaser`], owned by [`crate::controller::AccessController`]) holds the
//! clock and the DRAM twin: it merges a staged access's write footprint
//! against the in-flight window (the WAR gate), hands the access to the twin
//! in one `enqueue_decoded`, and queries its online reads' completions
//! (DESIGN.md §15–16).

use crate::config::IssueMode;
use crate::fault::{FaultKind, FaultSite};
use aboram_dram::{
    AddressMapping, DecodedAddr, DramConfig, MemOpKind, MemorySystem, Priority, RequestId,
    RequestIdRange,
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
}

impl MemorySink for CountingSink {
    fn read(&mut self, _addr: SlotAddr, op: OramOp, online: bool) {
        self.reads[op.tag() as usize] += 1;
        if online {
            self.online += 1;
        }
    }

    fn write(&mut self, _addr: SlotAddr, op: OramOp, online: bool) {
        self.writes[op.tag() as usize] += 1;
        if online {
            self.online += 1;
        }
    }

    fn read_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        let n = addrs.len() as u64;
        self.reads[op.tag() as usize] += n;
        if online {
            self.online += n;
        }
    }

    fn write_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        let n = addrs.len() as u64;
        self.writes[op.tag() as usize] += n;
        if online {
            self.online += n;
        }
    }
}

/// The flag byte of one staged request: the op's tag in bits 0–2, then the
/// write and online flags.
const TAG: u8 = 7;
const WRITE: u8 = 1 << 3;
const ONLINE: u8 = 1 << 4;

/// Requests one access is sized for: a [`StagedBatch`] reserves this many
/// per access, and a [`Stager`]'s scratch four times as many, for the
/// largest accesses (an eviction with reshuffles). The benchmark's accesses
/// average ≈ 90 requests in ≈ 45 row runs. Both are reserved where they are
/// built, so the engine's thread seldom grows — and fragments — them.
const ACCESS_REQUESTS: usize = 128;

/// How a [`Stager`] commits an access, fixed by the controller's issue mode
/// and depth. The controller releases an access only under the layout it
/// was committed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Layout {
    /// Released in `(channel, bank, row)` order ([`IssueMode::ChannelParallel`])
    /// rather than in program order.
    parallel: bool,
    /// The window can hold a later access beside this one (depth > 1): the
    /// access carries its write footprint and read list for the WAR gate.
    windowed: bool,
}

impl Layout {
    pub(crate) fn of(mode: IssueMode, depth: u8) -> Self {
        Layout { parallel: mode == IssueMode::ChannelParallel, windowed: depth > 1 }
    }
}

/// The timing-free half of the timed path: the [`MemorySink`] the engine
/// writes into.
///
/// The stager decodes, keys and orders every request the engine emits and
/// hands nothing to the memory system: at each access boundary it commits
/// the access into a [`StagedBatch`], and the access controller releases
/// it from there — the controller's release half is the only way a request
/// reaches DRAM. Nothing the stager computes depends on a cycle: only on
/// the request stream, the address map, the issue mode and whether the
/// in-flight window is deeper than one. So it runs wherever the engine
/// runs, on the trace driver's worker thread or inline in a
/// [`crate::TimedBackend`] (DESIGN.md §15–16).
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
/// The engine emits a bucket's slots back to back, so an access is staged —
/// and ordered — as *row runs*: consecutive requests the address map sends to
/// one `(channel, bank, row)`, decoded and keyed once per run. An access is
/// ordered once, when it is committed — each run's location packed into one
/// integer key, the `(key, first program index)` runs sorted — and that one
/// ordering serves the release order, the write footprint and the read list
/// alike. It is paid for only when something consumes it: a serial access
/// committed for a window of one keeps its runs as staged (DESIGN.md §15).
#[derive(Debug)]
pub struct Stager {
    dram: DramConfig,
    layout: Layout,
    /// Radices of the packed location key, from the memory geometry: banks
    /// per channel, and one more than the largest row any address decodes
    /// to. See [`location_key`](Stager::location_key).
    key_banks: u64,
    key_rows: u64,
    /// Bytes of consecutive address space the address map decodes to one
    /// location: a whole row under [`AddressMapping::PageInterleave`], one
    /// 64 B line under [`AddressMapping::LineInterleave`] (whose next line is
    /// on another channel). Such spans tile the address space from zero.
    run_span: u64,
    /// The first byte of the span the last run's requests fall in: the next
    /// request extends that run, undecoded, if it falls in the same span.
    /// `None` when nothing is staged.
    open_span: Option<u64>,
    /// The open access's requests' flag bytes, in program order.
    flags: Vec<u8>,
    /// The open access cut into row runs, in program order.
    runs: Vec<RowRun>,
    /// Scratch of a commit: `(key, index)` of each run, sorted.
    order: Vec<(u64, u32)>,
    /// The committed accesses.
    batch: StagedBatch,
}

/// `len` consecutively staged requests, from program index `first`, that
/// share one location. A commit orders them by `(key, first)`: runs of one
/// key are disjoint, ascending index ranges, so ordering the runs and
/// expanding each in place is sorting the requests by `(key, program
/// index)`.
#[derive(Debug, Clone, Copy)]
struct RowRun {
    key: u64,
    first: u32,
    len: u32,
    at: DecodedAddr,
    has_read: bool,
    has_write: bool,
}

impl RowRun {
    /// The run's program indices.
    fn range(&self) -> std::ops::Range<usize> {
        self.first as usize..(self.first + self.len) as usize
    }
}

impl Stager {
    /// A stager for `dram`'s geometry and address map, committing for serial
    /// issue into a window of one until [`configure`](Self::configure)d. The
    /// geometry must be one [`MemorySystem::new`] accepts.
    pub(crate) fn new(dram: DramConfig) -> Self {
        let key_banks = dram.banks_per_channel();
        // Both address maps compute `row = line / (lines per row × channels
        // × banks)`, rounding down at each step, so no 64-bit address decodes
        // to a row above `(u64::MAX / 64) / lines_per_row_index`.
        let lines_per_row_index =
            dram.lines_per_row().saturating_mul(u64::from(dram.channels) * key_banks);
        let key_rows = (u64::MAX / 64) / lines_per_row_index + 1;
        let run_span = match dram.mapping {
            AddressMapping::PageInterleave => dram.lines_per_row() * 64,
            AddressMapping::LineInterleave => 64,
        };
        Stager {
            dram,
            layout: Layout::default(),
            key_banks,
            key_rows,
            run_span,
            open_span: None,
            flags: Vec::with_capacity(4 * ACCESS_REQUESTS),
            runs: Vec::with_capacity(2 * ACCESS_REQUESTS),
            order: Vec::with_capacity(2 * ACCESS_REQUESTS),
            batch: StagedBatch::default(),
        }
    }

    /// Commits later accesses for `mode` and a window of `depth`: the
    /// controller's, which can change only between accesses.
    pub(crate) fn configure(&mut self, mode: IssueMode, depth: u8) {
        debug_assert!(self.is_idle(), "reconfigured part-way through an access");
        self.layout = Layout::of(mode, depth);
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

    /// The access boundary: commits what the engine staged since the last
    /// one when `result` says the engine completed the access, and abandons
    /// it when the engine failed part-way through, so a failed access never
    /// rides out with a later one. Returns `result`.
    pub(crate) fn end_access<T, E>(&mut self, result: Result<T, E>) -> Result<T, E> {
        if result.is_ok() {
            self.commit();
        }
        self.flags.clear();
        self.runs.clear();
        self.open_span = None;
        result
    }

    /// Whether nothing is staged since the last access boundary.
    pub(crate) fn is_idle(&self) -> bool {
        self.flags.is_empty()
    }

    /// The committed accesses.
    pub(crate) fn batch_mut(&mut self) -> &mut StagedBatch {
        &mut self.batch
    }

    /// Appends the open access to the batch in release order, with what its
    /// release and the WAR gate read off the one ordering (DESIGN.md §15):
    /// each read met in the `(key, first)` walk of the runs, with its release
    /// position, is an online read to query or an entry of the read list,
    /// and the runs with a write are the ascending write footprint. A serial
    /// access for a window of one needs none of that and is not sorted.
    fn commit(&mut self) {
        let Layout { parallel, windowed } = self.layout;
        let batch = &mut self.batch;
        let base = batch.ends.last().copied().unwrap_or_default().write_keys;
        if !parallel {
            batch.runs.extend(self.runs.iter().map(|run| (run.at, run.len)));
            batch.flags.extend_from_slice(&self.flags);
            if !windowed {
                let online =
                    (0..).zip(&self.flags).filter(|&(_, f)| f & (WRITE | ONLINE) == ONLINE);
                batch.online.extend(online.map(|(pos, _)| pos));
            }
        }
        if parallel || windowed {
            // Runs are staged in program order, so sorting `(key, index)`
            // pairs sorts the runs by `(key, first)`.
            self.order.clear();
            self.order.extend((0..).zip(&self.runs).map(|(i, run)| (run.key, i)));
            self.order.sort_unstable();
            let (mut rank, mut last_key) = (0, None);
            for &(_, i) in &self.order {
                let run = &self.runs[i as usize];
                let flags = &self.flags[run.range()];
                if parallel {
                    // Runs of one location are adjacent now: release them as one.
                    match batch.runs.last_mut() {
                        Some((_, len)) if last_key == Some(run.key) => *len += run.len,
                        _ => batch.runs.push((run.at, run.len)),
                    }
                    last_key = Some(run.key);
                    batch.flags.extend_from_slice(flags);
                }
                if windowed && run.has_write && batch.write_keys[base..].last() != Some(&run.key) {
                    batch.write_keys.push(run.key);
                }
                for (i, f) in (0..).zip(flags).filter(|_| run.has_read) {
                    if f & WRITE == 0 {
                        let pos = if parallel { rank + i } else { run.first + i };
                        if f & ONLINE != 0 {
                            batch.online.push(pos);
                        }
                        if windowed {
                            batch.reads.push((run.key, pos));
                        }
                    }
                }
                rank += run.len;
            }
        }
        batch.ends.push(Ends {
            runs: batch.runs.len(),
            flags: batch.flags.len(),
            online: batch.online.len(),
            write_keys: batch.write_keys.len(),
            reads: batch.reads.len(),
            layout: self.layout,
        });
    }

    #[inline]
    fn stage(&mut self, write: bool, addr: SlotAddr, online: bool, op: OramOp) {
        let byte = addr.byte();
        match self.open_span {
            Some(base) if byte.wrapping_sub(base) < self.run_span => {
                let run = self.runs.last_mut().expect("the open span is the last run's");
                run.len += 1;
                run.has_read |= !write;
                run.has_write |= write;
            }
            _ => self.open_run(byte, write),
        }
        let flags =
            op.tag() as u8 | if write { WRITE } else { 0 } | if online { ONLINE } else { 0 };
        self.flags.push(flags);
    }

    /// Decodes and keys `byte`, which no open run covers, and opens the run
    /// it starts.
    fn open_run(&mut self, byte: u64, write: bool) {
        let at = self.dram.decode(byte);
        let first = u32::try_from(self.flags.len()).expect("an access of under 2^32 requests");
        let key = self.location_key(at);
        self.runs.push(RowRun { key, first, len: 1, at, has_read: !write, has_write: write });
        self.open_span = Some(byte - byte % self.run_span);
    }
}

impl MemorySink for Stager {
    fn read(&mut self, addr: SlotAddr, op: OramOp, online: bool) {
        self.stage(false, addr, online, op);
    }

    fn write(&mut self, addr: SlotAddr, op: OramOp, online: bool) {
        self.stage(true, addr, online, op);
    }
}

/// Committed accesses, flat and back to back, for the access controller to
/// release in order. Each holds its requests in release order — one decoded
/// location per row run and one byte per request for kind, tag and online —
/// the release positions of its online reads, and, when the window can hold
/// a later access beside it, its ascending write keys and its `(key,
/// position)` read list. Cleared, never shrunk, so a reused batch allocates
/// nothing once warm.
#[derive(Debug, Default)]
pub struct StagedBatch {
    /// Where each access's parts end in the buffers below.
    ends: Vec<Ends>,
    /// Row runs in release order.
    runs: Vec<StagedRun>,
    /// One flag byte per request, in release order.
    flags: Vec<u8>,
    /// Release positions of the online reads, in the order they are queried.
    online: Vec<u32>,
    write_keys: Vec<u64>,
    reads: Vec<(u64, u32)>,
}

/// One committed access's ends in a [`StagedBatch`]'s buffers.
#[derive(Debug, Clone, Copy, Default)]
struct Ends {
    runs: usize,
    flags: usize,
    online: usize,
    write_keys: usize,
    reads: usize,
    layout: Layout,
}

/// A row run of a committed access: its one location and its number of
/// requests.
type StagedRun = (DecodedAddr, u32);

impl StagedBatch {
    /// An empty batch with room for `accesses` accesses of
    /// [`ACCESS_REQUESTS`] requests before any buffer grows.
    pub(crate) fn with_capacity(accesses: usize) -> Self {
        let requests = accesses * ACCESS_REQUESTS;
        StagedBatch {
            ends: Vec::with_capacity(accesses),
            runs: Vec::with_capacity(requests / 2),
            flags: Vec::with_capacity(requests),
            online: Vec::with_capacity(requests / 4),
            write_keys: Vec::with_capacity(requests / 4),
            reads: Vec::with_capacity(requests / 2),
        }
    }

    /// Committed accesses.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no access is committed.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Forgets every access, keeping the allocations.
    pub fn clear(&mut self) {
        self.ends.clear();
        self.runs.clear();
        self.flags.clear();
        self.online.clear();
        self.write_keys.clear();
        self.reads.clear();
    }

    /// The `i`-th committed access.
    pub(crate) fn get(&self, i: usize) -> StagedAccess<'_> {
        let (from, to) =
            (i.checked_sub(1).map_or_else(Ends::default, |j| self.ends[j]), self.ends[i]);
        StagedAccess {
            layout: to.layout,
            runs: &self.runs[from.runs..to.runs],
            flags: &self.flags[from.flags..to.flags],
            online: &self.online[from.online..to.online],
            write_keys: &self.write_keys[from.write_keys..to.write_keys],
            reads: &self.reads[from.reads..to.reads],
        }
    }

    /// The committed accesses, in commit order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = StagedAccess<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// One committed access, as its release reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StagedAccess<'a> {
    pub(crate) layout: Layout,
    runs: &'a [StagedRun],
    flags: &'a [u8],
    /// Release positions of the online reads.
    online: &'a [u32],
    /// The distinct location keys the access writes, ascending.
    write_keys: &'a [u64],
    /// `(location key, release position)` of every read, ascending.
    reads: &'a [(u64, u32)],
}

impl<'a> StagedAccess<'a> {
    /// The requests in release order, as `enqueue_decoded` takes them.
    fn requests(self) -> Requests<'a> {
        let at = DecodedAddr { channel: 0, bank: 0, row: 0, rank: 0 };
        Requests { runs: self.runs.iter(), flags: self.flags.iter(), left: 0, at }
    }
}

/// A staged access's requests in release order: each flag byte with its
/// run's location.
struct Requests<'a> {
    runs: std::slice::Iter<'a, StagedRun>,
    flags: std::slice::Iter<'a, u8>,
    /// Requests left in the current run, at `at`.
    left: usize,
    at: DecodedAddr,
}

impl Iterator for Requests<'_> {
    type Item = (MemOpKind, DecodedAddr, Priority, u32);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let &f = self.flags.next()?;
        if self.left == 0 {
            let &(at, len) = self.runs.next().expect("every request is in a run");
            (self.at, self.left) = (at, len as usize);
        }
        self.left -= 1;
        let kind = if f & WRITE != 0 { MemOpKind::Write } else { MemOpKind::Read };
        let priority = if f & ONLINE != 0 { Priority::Online } else { Priority::Offline };
        Some((kind, self.at, priority, u32::from(f & TAG)))
    }
}

/// The release half of the timed path, owned by the access controller: the
/// DRAM twin, the clock, and the read lists of resolved window entries,
/// kept for the next release.
#[derive(Debug)]
pub(crate) struct Releaser {
    memory: MemorySystem,
    now: u64,
    spare: Vec<Vec<(u64, u32)>>,
}

/// One access in the controller's in-flight window: its requests' ids
/// (contiguous, so `first id + len`) and — when a later access can enter the
/// window beside it — its *reads* as `(location key, position in ids)` in
/// ascending key order: the locations a later access's writeback must not
/// overwrite before they are served (write-after-read, the one DRAM-level
/// hazard the window has to order explicitly; see
/// [`Releaser::conflict_gate`]).
#[derive(Debug)]
pub(crate) struct InflightAccess {
    pub(crate) ids: RequestIdRange,
    pub(crate) reads: Vec<(u64, u32)>,
}

/// The id of the request at position `pos` of a released batch.
fn id_at(ids: &RequestIdRange, pos: usize) -> RequestId {
    ids.clone().nth(pos).expect("one id per request of the batch")
}

impl Releaser {
    /// Wraps a memory system.
    pub(crate) fn new(memory: MemorySystem) -> Self {
        Releaser { memory, now: 0, spare: Vec::new() }
    }

    /// The one hand-off to the memory system: moves the clock to `cycle`,
    /// releases `access` as one batch arriving at that cycle, and returns it
    /// as a window entry. The controller resolves the access's dependency
    /// gates against its staged footprint, and only then knows the arrival
    /// cycle. `cycle` must be ≥ the last timestamp (the memory model's
    /// non-decreasing contract).
    ///
    /// `online_done` is overwritten with the completion cycle of each online
    /// read (unordered): the controller charges the crypto burst after the
    /// latest one (serial issue) or folds them through
    /// [`aboram_crypto::CryptoLatency::overlapped_exit_from`]
    /// (channel-parallel issue).
    ///
    /// The controller owns the entry's requests from here on: it resolves
    /// them ([`resolve_inflight`](Releaser::resolve_inflight)) and retires
    /// them from the memory system once the access leaves its window.
    pub(crate) fn release_at(
        &mut self,
        cycle: u64,
        access: StagedAccess<'_>,
        online_done: &mut Vec<u64>,
    ) -> InflightAccess {
        debug_assert!(cycle >= self.now, "release_at must not move the clock backwards");
        self.now = cycle;
        let ids = self.memory.enqueue_decoded(access.requests(), cycle);
        online_done.clear();
        for &pos in access.online {
            online_done.push(self.memory.completion_time(id_at(&ids, pos as usize)));
        }
        let mut reads = self.spare.pop().unwrap_or_default();
        reads.extend_from_slice(access.reads);
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

    /// The earliest cycle at which `access` may issue without overwriting a
    /// location an access in `window` has not finished reading: the latest
    /// completion over exactly the entries' reads in the `(channel, bank,
    /// row)` rows the access writes (zero when disjoint, or when nothing is
    /// in flight). Both sides are in ascending key order, so one merge per
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
        access: &StagedAccess<'_>,
    ) -> u64 {
        let (writes, mut gate) = (access.write_keys, 0);
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
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// The underlying memory system (stats, drain).
    pub(crate) fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// Mutable access to the underlying memory system.
    pub(crate) fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Address and capacity of a buffer.
    fn buffer<T>(v: &Vec<T>) -> (usize, usize) {
        (v.as_ptr() as usize, v.capacity())
    }

    impl Stager {
        /// Address and capacity of every buffer the stager reuses: the open
        /// access's three, then its batch's. Stable once a run is warm.
        pub(crate) fn buffers(&self) -> Vec<(usize, usize)> {
            let b = &self.batch;
            vec![
                buffer(&self.flags),
                buffer(&self.runs),
                buffer(&self.order),
                buffer(&b.ends),
                buffer(&b.runs),
                buffer(&b.flags),
                buffer(&b.online),
                buffer(&b.write_keys),
                buffer(&b.reads),
            ]
        }

        /// Commits the access staged since the last boundary.
        pub(crate) fn commit_access(&mut self) {
            self.end_access(Ok::<(), ()>(())).unwrap();
        }
    }

    impl Releaser {
        /// Address and capacity of every read list the release half
        /// circulates — its spares and the `in_window` ones a controller
        /// holds — sorted. Stable once a run is warm.
        pub(crate) fn buffers<'a>(
            &'a self,
            in_window: impl Iterator<Item = &'a InflightAccess>,
        ) -> Vec<(usize, usize)> {
            let mut lists: Vec<_> =
                self.spare.iter().chain(in_window.map(|e| &e.reads)).map(buffer).collect();
            lists.sort_unstable();
            lists
        }
    }

    /// A stager over `cfg` committing for `mode` and `depth`.
    fn stager(cfg: DramConfig, mode: IssueMode, depth: u8) -> Stager {
        let mut stager = Stager::new(cfg);
        stager.configure(mode, depth);
        stager
    }

    /// That stager and a release half over the same geometry: the two halves
    /// a controller pairs.
    fn halves(cfg: DramConfig, mode: IssueMode, depth: u8) -> (Stager, Releaser) {
        (stager(cfg, mode, depth), Releaser::new(MemorySystem::new(cfg)))
    }

    /// Commits the staged access and releases it at `cycle`.
    fn release(
        stager: &mut Stager,
        releaser: &mut Releaser,
        cycle: u64,
        online_done: &mut Vec<u64>,
    ) -> InflightAccess {
        stager.commit_access();
        let entry = releaser.release_at(cycle, stager.batch.get(0), online_done);
        stager.batch.clear();
        entry
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
    }

    #[test]
    fn timing_sink_tracks_online_reads() {
        let (mut s, mut r) = halves(DramConfig::default(), IssueMode::Serial, 1);
        s.read(SlotAddr(0), OramOp::ReadPath, true);
        s.read(SlotAddr(4096), OramOp::EvictPath, false);
        s.write(SlotAddr(128), OramOp::EvictPath, false);
        s.commit_access();
        assert_eq!(r.memory().pending(), 0, "nothing reaches DRAM before the release");
        let mut online = vec![7];
        let entry = r.release_at(100, s.batch.get(0), &mut online);
        assert_eq!((r.now(), entry.ids.len()), (100, 3));
        assert!(online.len() == 1 && online[0] > 100, "the one online read's reply: {online:?}");
        r.memory_mut().drain();
        assert_eq!(r.memory().stats().total_requests(), 3);
    }

    #[test]
    fn channel_parallel_staging_preserves_the_request_set() {
        let addrs: Vec<SlotAddr> = (0..16).map(|i| SlotAddr(i * 4096 + 64)).collect();
        let mut stats = Vec::new();
        for mode in [IssueMode::Serial, IssueMode::ChannelParallel] {
            let (mut s, mut r) = halves(DramConfig::default(), mode, 1);
            for &a in &addrs {
                s.read(a, OramOp::Metadata, true);
            }
            s.read_batch(&addrs, OramOp::ReadPath, true);
            s.write_batch(&addrs, OramOp::EvictPath, false);
            assert!(!s.is_idle(), "requests stay staged until the boundary");
            // The latest online completion exists in both modes (values may
            // differ; the request set may be serviced in a different order).
            let mut times = Vec::new();
            let entry = release(&mut s, &mut r, 10, &mut times);
            assert!(s.is_idle());
            assert_eq!(times.len(), 32);
            assert!(times.iter().max().copied().unwrap_or(0) > 10);
            assert!(r.resolve_inflight(entry) > 10);
            r.memory_mut().drain();
            stats.push(r.memory().stats().clone());
        }
        let (a, b) = (&stats[0], &stats[1]);
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
        // One owner: a release hands every id to the window entry, the
        // release half keeps none, and the entry's holder ends the requests'
        // life in the twin once it resolved them.
        let addrs: Vec<SlotAddr> = (0..6).map(|i| SlotAddr(i * 4096)).collect();
        let (mut stager, mut r) = halves(DramConfig::default(), IssueMode::Serial, 4);
        stager.read_batch(&addrs[..2], OramOp::Metadata, false);
        stager.read_batch(&addrs[2..4], OramOp::ReadPath, true);
        stager.write_batch(&addrs[4..], OramOp::EvictPath, false);
        stager.commit_access();
        assert_eq!(r.memory().tracked_requests(), 0, "staged, not yet DRAM's");
        let mut online = Vec::new();
        let entry = r.release_at(10, stager.batch.get(0), &mut online);
        stager.batch.clear();
        assert!(entry.ids.len() == 6 && entry.reads.len() == 4 && online.len() == 2);
        assert_eq!(r.memory().tracked_requests(), 6);

        let next = r.memory().next_request_id();
        r.memory_mut().retire(next);
        assert!(r.memory().tracked_requests() > 0, "unresolved, so not retired");
        assert!(r.resolve_inflight(entry) > 10);
        r.memory_mut().retire(next);
        assert_eq!(r.memory().tracked_requests(), 0);

        // Committed for a window of one, an access lists no reads; the ids
        // are handed over all the same.
        stager.configure(IssueMode::Serial, 1);
        stager.read_batch(&addrs, OramOp::ReadPath, true);
        let unlisted = release(&mut stager, &mut r, 20, &mut online);
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

    fn emit(sink: &mut impl MemorySink, access: &[Req]) {
        for r in access {
            if r.write {
                sink.write(SlotAddr(r.addr), r.op, r.online);
            } else {
                sink.read(SlotAddr(r.addr), r.op, r.online);
            }
        }
    }

    fn location(cfg: &DramConfig, r: &Req) -> (u8, u16, u64) {
        let d = cfg.decode(r.addr);
        (d.channel, d.bank, d.row)
    }

    /// The reference release order: program order, or a *stable* sort on the
    /// `(channel, bank, row)` tuple under channel-parallel issue.
    fn reference_order(cfg: &DramConfig, access: &[Req], mode: IssueMode) -> Vec<Req> {
        let mut order = access.to_vec();
        if mode == IssueMode::ChannelParallel {
            order.sort_by_key(|r| location(cfg, r));
        }
        order
    }

    /// A request as the reference enqueues it.
    fn request(r: &Req) -> (MemOpKind, Priority, u32) {
        let kind = if r.write { MemOpKind::Write } else { MemOpKind::Read };
        let pri = if r.online { Priority::Online } else { Priority::Offline };
        (kind, pri, r.op.tag())
    }

    /// The reference release: decode, order, one `enqueue` per request.
    fn reference_release(mem: &mut MemorySystem, order: &[Req], now: u64) -> Vec<RequestId> {
        let enqueue = |r: &Req| {
            let (kind, pri, tag) = request(r);
            mem.enqueue(kind, r.addr, pri, tag, now)
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

    /// What the open access was cut into, as `(first, len, has_write)`.
    fn runs(stager: &Stager) -> Vec<(u32, u32, bool)> {
        stager.runs.iter().map(|run| (run.first, run.len, run.has_write)).collect()
    }

    #[test]
    fn a_buckets_consecutive_slots_stage_one_run() {
        let page = DramConfig::default();
        let bucket: Vec<SlotAddr> =
            (0..8).map(|slot| SlotAddr(3 * page.row_bytes + slot * 64)).collect();
        let mut stager = Stager::new(page);
        stager.read_batch(&bucket[..5], OramOp::ReadPath, true);
        assert_eq!(runs(&stager), [(0, 5, false)]);
        // The same row again, now written: still the one run, holding both kinds.
        stager.write_batch(&bucket[5..], OramOp::EvictPath, false);
        assert_eq!(runs(&stager), [(0, 8, true)]);
        // The row's last line and the next row's first are neighbours in the
        // address space and one channel apart: the run ends at the boundary.
        let (last, next) = (SlotAddr(4 * page.row_bytes - 64), SlotAddr(4 * page.row_bytes));
        stager.read(last, OramOp::Metadata, true);
        stager.read(next, OramOp::Metadata, true);
        assert_eq!(runs(&stager), [(0, 9, true), (9, 1, false)]);
        // Every request of a run decodes to the run's one location and key.
        let staged: Vec<_> = bucket.iter().chain([&last, &next]).map(|a| a.byte()).collect();
        for run in &stager.runs {
            assert_eq!(stager.location_key(run.at), run.key);
            assert!(staged[run.range()].iter().all(|&a| page.decode(a) == run.at));
        }

        // Line interleave sends neighbouring lines to different channels: the
        // memo holds one line, so only a repeat of that line extends a run.
        let line = DramConfig { mapping: AddressMapping::LineInterleave, ..page };
        let mut stager = Stager::new(line);
        stager.read_batch(&bucket, OramOp::ReadPath, true);
        assert_eq!(runs(&stager).len(), 8);
        stager.write(bucket[7], OramOp::EvictPath, false);
        assert_eq!(runs(&stager)[7..], [(7, 2, true)]);
        let mut channels: Vec<_> = stager.runs[..4].iter().map(|run| run.at.channel).collect();
        channels.dedup();
        assert_eq!(channels.len(), 4, "neighbouring lines sit on four channels");
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
                let stager = Stager::new(cfg);
                let tuple = |addr| {
                    let d = cfg.decode(addr);
                    ((d.channel, d.bank, d.row), stager.location_key(d))
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

        /// Staged, then released, against a reference kept here: the same
        /// requests in the same release order, the same ids, the same
        /// completion cycle per id, the same online reads, the same
        /// statistics and a twin left in the same state (a probe burst
        /// afterwards completes at the same cycles) — under both issue modes,
        /// for a window of one and a deeper one, over every geometry and
        /// address map of [`configs`]. Every access is staged on another
        /// thread and released on this one, as the trace driver does.
        #[test]
        fn staged_release_matches_a_one_request_at_a_time_reference(
            accesses in proptest::collection::vec(
                (proptest::collection::vec(arb_burst(), 0..9), any::<bool>(), 0u64..3_000),
                1..8,
            ),
        ) {
            let modes = [IssueMode::Serial, IssueMode::ChannelParallel];
            for cfg in configs() {
                let built: Vec<_> = accesses
                    .iter()
                    .map(|(bursts, one_channel, gap)| {
                        let spread = if *one_channel { u64::from(cfg.channels) } else { 1 };
                        (build(&cfg, bursts, spread, 0), *gap)
                    })
                    .collect();
                for (mode, depth) in modes.into_iter().flat_map(|m| [(m, 1), (m, 4)]) {
                    let list_reads = depth > 1;
                    let (batch, merged) = std::thread::scope(|s| {
                        s.spawn(|| {
                            let mut stager = stager(cfg, mode, depth);
                            let mut merged = false;
                            for (access, _) in &built {
                                emit(&mut stager, access);
                                // Under line interleave no two lines share a run.
                                merged |= stager.runs.iter().any(|run| {
                                    access[run.range()].windows(2).any(|w| w[0].addr / 64 != w[1].addr / 64)
                                });
                                stager.commit_access();
                            }
                            (stager.batch, merged)
                        })
                        .join()
                        .unwrap()
                    });
                    prop_assert!(cfg.mapping == AddressMapping::PageInterleave || !merged);
                    prop_assert_eq!(batch.len(), built.len());

                    let mut releaser = Releaser::new(MemorySystem::new(cfg));
                    let mut reference = MemorySystem::new(cfg);
                    let mut now = 0;
                    for ((access, gap), staged) in built.iter().zip(batch.iter()) {
                        now += gap;
                        let order = reference_order(&cfg, access, mode);
                        let want = reference_release(&mut reference, &order, now);
                        let expected = order.iter().map(|r| {
                            let (kind, pri, tag) = request(r);
                            (kind, cfg.decode(r.addr), pri, tag)
                        });
                        prop_assert!(staged.requests().eq(expected), "{:?} depth {}", mode, depth);
                        // A channel-parallel release holds one run per location.
                        let distinct = staged.runs.windows(2).all(|w| w[0].0 != w[1].0);
                        prop_assert!(mode == IssueMode::Serial || distinct);

                        let mut online_done = Vec::new();
                        let entry = releaser.release_at(now, staged, &mut online_done);
                        let ids: Vec<_> = entry.ids.clone().collect();
                        prop_assert_eq!(&ids, &want, "{:?} depth {}", mode, depth);
                        // The window entry lists exactly the reads, by
                        // location then issue order — or nothing.
                        let mut reads: Vec<_> = (order.iter().zip(&want))
                            .filter(|(r, _)| list_reads && !r.write)
                            .map(|(r, &id)| (location(&cfg, r), id))
                            .collect();
                        reads.sort();
                        let listed = entry.reads.iter().map(|&(_, pos)| ids[pos as usize]);
                        prop_assert!(listed.eq(reads.iter().map(|&(_, id)| id)));
                        prop_assert!(entry.reads.windows(2).all(|w| w[0] < w[1]));
                        // And the write footprint, the distinct written
                        // locations ascending — or nothing.
                        let keys = Stager::new(cfg);
                        let mut written: Vec<_> = access
                            .iter()
                            .filter(|r| list_reads && r.write)
                            .map(|r| keys.location_key(cfg.decode(r.addr)))
                            .collect();
                        written.sort_unstable();
                        written.dedup();
                        prop_assert_eq!(staged.write_keys, &written[..]);

                        let mut online: Vec<_> = (order.iter().zip(&want))
                            .filter(|(r, _)| r.online && !r.write)
                            .map(|(_, &id)| reference.completion_time(id))
                            .collect();
                        online.sort();
                        online_done.sort();
                        prop_assert_eq!(&online_done, &online);

                        for id in ids {
                            let got = releaser.memory_mut().completion_time(id);
                            prop_assert_eq!(got, reference.completion_time(id), "{:?}", id);
                        }
                        releaser.resolve_inflight(entry);
                    }
                    releaser.memory_mut().drain();
                    reference.drain();
                    prop_assert_eq!(releaser.memory().stats(), reference.stats());
                    for i in 0..64u64 {
                        let (kind, addr) = (MemOpKind::Read, i * 65 * 64);
                        let a = releaser.memory_mut().enqueue(kind, addr, Priority::Online, 0, now);
                        let b = reference.enqueue(kind, addr, Priority::Online, 0, now);
                        let got = releaser.memory_mut().completion_time(a);
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
                    let (mut stager, mut releaser) = halves(cfg, mode, 4);
                    emit(&mut stager, &first);
                    let entry = release(&mut stager, &mut releaser, 100, &mut Vec::new());
                    emit(&mut stager, &second);
                    stager.commit_access();
                    (stager, releaser, entry)
                };

                let (stager, mut merged, entry) = mk();
                let gate = merged.conflict_gate([&entry], &stager.batch.get(0));

                let (_, mut brute, entry) = mk();
                let mem = brute.memory_mut();
                let written: Vec<_> =
                    second.iter().filter(|r| r.write).map(|r| location(&cfg, r)).collect();
                let mut want = 0;
                for (r, id) in reference_order(&cfg, &first, mode).iter().zip(entry.ids.clone()) {
                    if !r.write && written.contains(&location(&cfg, r)) {
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
