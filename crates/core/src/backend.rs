//! Storage backends: the engines behind the oblivious service layer.
//!
//! The service layer (`aboram-service`) drives block-level ORAM accesses
//! without caring whether time is simulated cycle-accurately or just
//! accounted. [`StorageBackend`] is that seam: the engine plus a clock.
//!
//! * [`TimedBackend`] is the cycle-accurate twin and the one timed engine:
//!   the engine, its stager and the access controller (DRAM twin, crypto
//!   model, in-flight window). [`crate::TimingDriver`] is this backend plus a
//!   trace-driven core; here the caller supplies request arrival times and
//!   reads back completion times, so a load generator measures real queueing
//!   latency on the simulated memory system.
//!   Each access has a *stage* half (the engine's protocol work, committed
//!   by the stager) and a *release* half (the controller's gates and the
//!   DRAM twin, which fix its `done`); the [`StorageBackend`] methods run
//!   both inline, and a caller that times elsewhere stages with
//!   [`TimedBackend::stage_managed`] / [`TimedBackend::stage_dummy`] and
//!   releases through a lent [`ReleaseHalf`] — the same two halves, so the
//!   same cycles. The service's store releases its batches that way, on a
//!   [`crate::Lane`]'s helper thread, and so does the trace driver's run.
//! * [`UntimedBackend`] runs the identical protocol over a
//!   [`CountingSink`] and charges a fixed cost per 64 B transfer — orders
//!   of magnitude faster, with the same access *pattern* and the same
//!   returned data, for functional tests and high-volume load studies.
//!
//! Both backends serialize accesses the way the ORAM controller does: at
//! pipeline depth 1 an access begins no earlier than the previous access's
//! maintenance traffic finished draining, and its user-visible completion
//! (`done`) covers the online reads plus the crypto pipeline.

use crate::config::OramConfig;
use crate::controller::AccessController;
use crate::error::OramError;
use crate::fault::{FaultInjectingSink, FaultPlan, InjectedFaults};
use crate::ring::{PayloadMutator, RingOram};
use crate::sink::{CountingSink, StagedAccess, StagedBatch, Stager};
use crate::{BlockId, BLOCK_BYTES};
use aboram_dram::{DramConfig, MemorySystem};
use aboram_tree::PathId;

/// Timing outcome of one backend access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendReply {
    /// The fetched payload (pre-`mutate` for managed accesses; `None` for
    /// dummy accesses).
    pub data: Option<[u8; BLOCK_BYTES]>,
    /// User-visible completion time: online reads plus crypto pipeline.
    pub done: u64,
}

/// A block store serving ORAM accesses on a simulated or accounted clock.
///
/// `start` is the request's arrival time in the backend's clock domain; the
/// access actually begins once the controller admits it — no earlier than
/// `start`. Implementations must be deterministic: identical call
/// sequences produce identical replies and identical engine state.
pub trait StorageBackend {
    /// One user access, managed: caller-chosen remap target plus an in-stash
    /// read-modify-write of the payload (see [`RingOram::access_managed`]). A
    /// write is an overwrite `mutate`, a read one that changes nothing.
    ///
    /// # Errors
    ///
    /// Propagates engine protocol errors.
    fn access_managed(
        &mut self,
        start: u64,
        block: BlockId,
        new_position: Option<PathId>,
        mutate: &mut PayloadMutator<'_>,
    ) -> Result<BackendReply, OramError>;

    /// One dummy access — bus-indistinguishable from a real one; used to
    /// pad batches and to hide misses.
    ///
    /// # Errors
    ///
    /// Propagates engine protocol errors.
    fn dummy_access(&mut self, start: u64) -> Result<BackendReply, OramError>;

    /// Appends a new zeroed block to the store, lazily growing the tree
    /// when the configured utilization threshold would be crossed (see
    /// [`RingOram::insert_block`]). Inserts are bookkeeping, not bus
    /// traffic, so they cost no backend time.
    ///
    /// # Errors
    ///
    /// Propagates [`OramError::CapacityExhausted`] /
    /// [`OramError::StashOverflow`] from the engine.
    fn insert_block(&mut self, position: Option<PathId>) -> Result<BlockId, OramError> {
        self.engine_mut().insert_block(position)
    }

    /// The engine behind this backend.
    fn engine(&self) -> &RingOram;

    /// Mutable engine access (warm-up, stats inspection).
    fn engine_mut(&mut self) -> &mut RingOram;

    /// The floor no later access starts below. For a [`TimedBackend`] that
    /// is the cycle its in-flight window opened on — zero, or the full drain
    /// of the last [`quiesce`](TimedBackend::quiesce) — not the drain of the
    /// accesses still in the window; an [`UntimedBackend`] has no window and
    /// reports when its last access's traffic ends.
    fn free_at(&self) -> u64;

    /// Sets the access-pipeline depth: the maximum number of concurrently
    /// in-flight accesses. Depth 1 (the default, and `0` clamps to it) is
    /// the classic serialized controller, a window of one: an access begins
    /// only after the previous one's maintenance traffic drained. Depth > 1
    /// lets an access's read phase issue while up to `depth - 1` earlier
    /// accesses' eviction/writeback and decrypt/verify traffic drain,
    /// bounded by the same true-dependency gates as
    /// [`crate::TimingDriver::set_pipeline_depth`]. Changing the depth
    /// quiesces the window first, so the switch never reorders requests.
    /// Backends without a cycle-level pipeline ignore the knob.
    fn set_pipeline_depth(&mut self, _depth: u8) {}

    /// The cycle-accurate backend this is, if it is one: its stage and
    /// release halves can then run apart (see [`TimedBackend`]).
    fn timed_mut(&mut self) -> Option<&mut TimedBackend> {
        None
    }
}

/// Cycle-accurate backend: the engine over the DRAM twin (see module docs).
///
/// Each access has a *stage* half — the engine's protocol work on the
/// [`Stager`], committed into a [`StagedBatch`] — and a *release* half — the
/// [`ReleaseHalf`]'s gates and hand-off to the DRAM twin, which fix its
/// `done`. [`StorageBackend`]'s methods run both, inline. A caller that times
/// many backends' accesses elsewhere stages them with
/// [`stage_managed`](Self::stage_managed) / [`stage_dummy`](Self::stage_dummy)
/// and releases them through the [`ReleaseHalf`] it borrowed with
/// [`lend_release`](Self::lend_release): the same two halves, in the same
/// order, so every cycle is the same.
#[derive(Debug)]
pub struct TimedBackend {
    oram: RingOram,
    /// The engine's sink: each access is staged on the stager, and a fault
    /// poll is answered by the fault plan, if one is armed.
    sink: Sink,
    /// The release half; `None` while it is lent out.
    release: Option<ReleaseHalf>,
}

/// The sink a [`TimedBackend`]'s engine writes to.
pub(crate) type Sink = FaultInjectingSink<Stager>;

/// A [`TimedBackend`]'s release half: its access controller, with the DRAM
/// twin and the in-flight window. It holds no reference to the engine, so
/// it may be lent to another thread and released into there, then returned.
#[derive(Debug)]
pub struct ReleaseHalf {
    ctl: AccessController,
}

impl ReleaseHalf {
    /// Releases `access`, staged by the backend this half belongs to, which
    /// arrived at cycle `arrival`: returns the cycle it started and its
    /// `done`.
    pub fn finish(&mut self, arrival: u64, access: StagedAccess<'_>) -> (u64, u64) {
        self.ctl.finish(arrival, access)
    }
}

impl TimedBackend {
    /// Builds a backend with a fresh engine for `cfg` over `dram`.
    ///
    /// # Errors
    ///
    /// Propagates ORAM construction errors.
    pub fn new(cfg: &OramConfig, dram: DramConfig) -> Result<Self, OramError> {
        Ok(Self::from_oram(RingOram::new(cfg)?, dram))
    }

    /// Wraps an existing (e.g. pre-warmed) engine. The issue mode follows
    /// the engine's scheme (`Scheme::issue_mode`), so an `AbChannelPar`
    /// tenant gets the channel-parallel drain end to end.
    pub fn from_oram(oram: RingOram, dram: DramConfig) -> Self {
        let ctl = AccessController::new(MemorySystem::new(dram), oram.config().scheme.issue_mode());
        let release = Some(ReleaseHalf { ctl });
        let mut backend = TimedBackend { oram, sink: Sink::new(Stager::new(dram)), release };
        // Configures the stager for the controller's issue mode.
        backend.set_pipeline_depth(1);
        backend
    }

    fn ctl(&self) -> &AccessController {
        &self.release.as_ref().expect("the release half is lent out").ctl
    }

    fn ctl_mut(&mut self) -> &mut AccessController {
        &mut self.release.as_mut().expect("the release half is lent out").ctl
    }

    /// Arms `plan`: installs its channel-stall schedule into the DRAM twin
    /// and lets it answer the engine's fault polls from the next access on.
    pub(crate) fn enable_faults(&mut self, plan: FaultPlan) {
        let memory = self.ctl_mut().memory_mut();
        for s in plan.stall_schedule(usize::from(memory.config().channels)) {
            memory.inject_channel_stall(s.channel, s.at, s.duration);
        }
        self.sink.set_plan(Some(plan));
    }

    /// Faults the armed plan has injected so far (zero without one).
    pub(crate) fn injected_faults(&self) -> InjectedFaults {
        self.sink.injected()
    }

    /// Resolves every in-flight access, folds the completions into
    /// [`free_at`](StorageBackend::free_at) and returns it: the full drain.
    pub fn quiesce(&mut self) -> u64 {
        self.ctl_mut().quiesce()
    }

    /// The DRAM twin: its statistics and the requests still queued.
    pub fn memory(&self) -> &MemorySystem {
        self.ctl().memory()
    }

    /// Lends out the release half. Until it is
    /// [`return`](Self::return_release)ed only the stage half may run: the
    /// `stage_*` methods and the engine accessors.
    ///
    /// # Panics
    ///
    /// Panics if it is lent out already.
    pub fn lend_release(&mut self) -> ReleaseHalf {
        self.release.take().expect("the release half is lent out")
    }

    /// Takes back the release half [`lend_release`](Self::lend_release) lent.
    pub fn return_release(&mut self, release: ReleaseHalf) {
        debug_assert!(self.release.is_none(), "a second release half");
        self.release = Some(release);
    }

    /// The stage half of a managed access (see
    /// [`StorageBackend::access_managed`]): runs the engine and commits the
    /// access to `staged` for its [`ReleaseHalf`]. Returns the fetched
    /// payload, pre-`mutate`.
    ///
    /// # Errors
    ///
    /// Propagates engine protocol errors; the failed access is not staged.
    pub fn stage_managed(
        &mut self,
        staged: &mut StagedBatch,
        block: BlockId,
        new_position: Option<PathId>,
        mutate: &mut PayloadMutator<'_>,
    ) -> Result<[u8; BLOCK_BYTES], OramError> {
        self.stage_into(staged, |oram, sink| oram.access_managed(block, new_position, mutate, sink))
    }

    /// The stage half of a dummy access (see
    /// [`StorageBackend::dummy_access`]).
    ///
    /// # Errors
    ///
    /// Propagates engine protocol errors; the failed access is not staged.
    pub fn stage_dummy(&mut self, staged: &mut StagedBatch) -> Result<(), OramError> {
        self.stage_into(staged, |oram, sink| oram.dummy_access(sink).map(drop))
    }

    /// The stage half: runs one engine access on the sink and commits it
    /// to the stager's batch. An access the engine fails part-way through is
    /// abandoned at the stager's boundary: no release ever sees it.
    fn stage<T>(
        &mut self,
        access: impl FnOnce(&mut RingOram, &mut Sink) -> Result<T, OramError>,
    ) -> Result<T, OramError> {
        let result = access(&mut self.oram, &mut self.sink);
        self.sink.inner_mut().end_access(result)
    }

    /// [`stage`](Self::stage), committing to `staged` instead.
    pub(crate) fn stage_into<T>(
        &mut self,
        staged: &mut StagedBatch,
        access: impl FnOnce(&mut RingOram, &mut Sink) -> Result<T, OramError>,
    ) -> Result<T, OramError> {
        std::mem::swap(self.sink.inner_mut().batch_mut(), staged);
        let result = self.stage(access);
        std::mem::swap(self.sink.inner_mut().batch_mut(), staged);
        result
    }

    /// Both halves inline: stages one engine access, then releases it.
    fn timed(
        &mut self,
        arrival: u64,
        access: impl FnOnce(&mut RingOram, &mut Sink) -> Result<Option<[u8; BLOCK_BYTES]>, OramError>,
    ) -> Result<BackendReply, OramError> {
        let data = self.stage(access)?;
        let release = self.release.as_mut().expect("the release half is lent out");
        let staged = self.sink.inner_mut().batch_mut();
        let (_, done) = release.finish(arrival, staged.get(0));
        staged.clear();
        Ok(BackendReply { data, done })
    }

    /// Whether nothing is in flight on the controller and nothing of an
    /// access is staged part-way.
    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        self.ctl().is_idle() && self.sink.inner().is_idle()
    }

    /// Requests handed to the DRAM twin so far.
    #[cfg(test)]
    pub(crate) fn requests_issued(&self) -> u64 {
        self.ctl().requests_issued()
    }
}

impl StorageBackend for TimedBackend {
    fn access_managed(
        &mut self,
        start: u64,
        block: BlockId,
        new_position: Option<PathId>,
        mutate: &mut PayloadMutator<'_>,
    ) -> Result<BackendReply, OramError> {
        self.timed(start, |oram, sink| {
            oram.access_managed(block, new_position, mutate, sink).map(Some)
        })
    }

    fn dummy_access(&mut self, start: u64) -> Result<BackendReply, OramError> {
        self.timed(start, |oram, sink| oram.dummy_access(sink).map(|_| None))
    }

    fn engine(&self) -> &RingOram {
        &self.oram
    }

    fn engine_mut(&mut self) -> &mut RingOram {
        &mut self.oram
    }

    fn free_at(&self) -> u64 {
        self.ctl().free_at()
    }

    fn set_pipeline_depth(&mut self, depth: u8) {
        let ctl = self.ctl_mut();
        ctl.set_depth(depth);
        let (mode, depth) = (ctl.issue_mode(), ctl.depth());
        // The stager commits every access for the controller's issue mode
        // and depth.
        self.sink.inner_mut().configure(mode, depth);
    }

    fn timed_mut(&mut self) -> Option<&mut TimedBackend> {
        Some(self)
    }
}

/// Cost charged per 64 B transfer by the untimed backend's accounting
/// clock. The value is arbitrary but fixed: latencies are meaningful
/// relative to each other, not to the DRAM twin's cycles.
pub const UNTIMED_CYCLES_PER_TRANSFER: u64 = 4;

/// Fast accounted backend: the same protocol over a [`CountingSink`], with
/// a constant [`UNTIMED_CYCLES_PER_TRANSFER`] charged per 64 B transfer.
#[derive(Debug)]
pub struct UntimedBackend {
    oram: RingOram,
    sink: CountingSink,
    free_at: u64,
}

impl UntimedBackend {
    /// Builds a backend with a fresh engine for `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates ORAM construction errors.
    pub fn new(cfg: &OramConfig) -> Result<Self, OramError> {
        Ok(Self::from_oram(RingOram::new(cfg)?))
    }

    /// Wraps an existing (e.g. pre-warmed) engine.
    pub fn from_oram(oram: RingOram) -> Self {
        UntimedBackend { oram, sink: CountingSink::new(), free_at: 0 }
    }

    fn finish(
        &mut self,
        at: u64,
        online0: u64,
        total0: u64,
        data: Option<[u8; BLOCK_BYTES]>,
    ) -> BackendReply {
        let online = self.sink.online_total() - online0;
        let total = self.sink.grand_total() - total0;
        self.free_at = at + total * UNTIMED_CYCLES_PER_TRANSFER;
        BackendReply { data, done: at + online * UNTIMED_CYCLES_PER_TRANSFER }
    }
}

impl StorageBackend for UntimedBackend {
    fn access_managed(
        &mut self,
        start: u64,
        block: BlockId,
        new_position: Option<PathId>,
        mutate: &mut PayloadMutator<'_>,
    ) -> Result<BackendReply, OramError> {
        let at = start.max(self.free_at);
        let (online0, total0) = (self.sink.online_total(), self.sink.grand_total());
        let data = self.oram.access_managed(block, new_position, mutate, &mut self.sink)?;
        Ok(self.finish(at, online0, total0, Some(data)))
    }

    fn dummy_access(&mut self, start: u64) -> Result<BackendReply, OramError> {
        let at = start.max(self.free_at);
        let (online0, total0) = (self.sink.online_total(), self.sink.grand_total());
        self.oram.dummy_access(&mut self.sink)?;
        Ok(self.finish(at, online0, total0, None))
    }

    fn engine(&self) -> &RingOram {
        &self.oram
    }

    fn engine_mut(&mut self) -> &mut RingOram {
        &mut self.oram
    }

    fn free_at(&self) -> u64 {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::fault::FaultConfig;
    use crate::ring::AccessKind;

    fn cfg() -> OramConfig {
        OramConfig::builder(8, Scheme::Ab).store_data(true).seed(5).build().unwrap()
    }

    #[test]
    fn both_backends_round_trip_data() {
        let mut timed = TimedBackend::new(&cfg(), DramConfig::default()).unwrap();
        let mut untimed = UntimedBackend::new(&cfg()).unwrap();
        let payload = [0x5A; BLOCK_BYTES];
        for backend in [&mut timed as &mut dyn StorageBackend, &mut untimed] {
            let w = backend.access_managed(0, 3, None, &mut |p| *p = payload).unwrap();
            assert!(w.done > 0);
            let r = backend.access_managed(w.done, 3, None, &mut |_| {}).unwrap();
            assert_eq!(r.data, Some(payload));
            assert!(r.done > w.done, "the second access completes after the first");
        }
        assert!(untimed.free_at() > 0, "the accounted clock's cursor moved");
        assert_eq!(timed.free_at(), 0, "the window's floor moves only at a quiesce");
        assert!(timed.quiesce() > 0 && timed.free_at() == timed.quiesce());
    }

    #[test]
    fn managed_access_mutates_in_one_access() {
        let mut backend = UntimedBackend::new(&cfg()).unwrap();
        backend.access_managed(0, 7, None, &mut |p| *p = [1; BLOCK_BYTES]).unwrap();
        let accesses0 = backend.engine().stats().user_accesses;
        let reply = backend.access_managed(0, 7, Some(PathId::new(0)), &mut |d| d[0] = 99).unwrap();
        assert_eq!(reply.data.unwrap()[0], 1, "managed access returns the pre-mutate payload");
        assert_eq!(backend.engine().stats().user_accesses, accesses0 + 1, "one access total");
        assert_eq!(backend.engine().position_of(7).unwrap(), PathId::new(0), "forced remap");
        let read = backend.access_managed(backend.free_at(), 7, None, &mut |_| {}).unwrap();
        assert_eq!(read.data.unwrap()[0], 99, "mutation persisted");
    }

    #[test]
    fn pipelined_backend_round_trips_and_cuts_queueing() {
        let run = |depth: u8| {
            let mut b = TimedBackend::new(&cfg(), DramConfig::default()).unwrap();
            b.set_pipeline_depth(depth);
            let payload = [0x7E; BLOCK_BYTES];
            b.access_managed(0, 3, None, &mut |p| *p = payload).unwrap();
            // A burst of back-to-back arrivals: queueing dominates.
            let mut sum = 0u64;
            let mut last = 0u64;
            for i in 0..24u64 {
                let r = b.access_managed(i, i % 8, None, &mut |_| {}).unwrap();
                sum += r.done - i;
                last = last.max(r.done);
            }
            assert_eq!(
                b.access_managed(last, 3, None, &mut |_| {}).unwrap().data,
                Some(payload),
                "depth {depth}: data survives pipelining"
            );
            let quiesced = b.quiesce();
            assert!(quiesced >= last, "quiesce covers every in-flight writeback");
            sum
        };
        let serial = run(1);
        let piped = run(4);
        assert!(piped < serial, "pipelining saved nothing: depth4 {piped} vs depth1 {serial}");
    }

    #[test]
    fn timed_backend_matches_a_bare_controller_cycle_for_cycle() {
        // The adapter adds nothing to the schedule: the same engine and
        // access sequence at the same arrival cycles yields the identical
        // `(start, done)` stream through a bare controller and through the
        // backend, at either depth and across a depth 1 → 4 → 1 switch, under
        // either issue mode.
        for scheme in [Scheme::Ab, Scheme::AbChannelPar] {
            for depths in [[1u8, 1, 1], [4, 4, 4], [1, 4, 1]] {
                let cfg = OramConfig::builder(8, scheme).store_data(true).seed(5).build().unwrap();
                let mut oram = RingOram::new(&cfg).unwrap();
                let mut bare = AccessController::new(
                    MemorySystem::new(DramConfig::default()),
                    scheme.issue_mode(),
                );
                // Configured at the first depth below, before its first use.
                let mut stager = Stager::new(DramConfig::default());
                let mut backend = TimedBackend::new(&cfg, DramConfig::default()).unwrap();
                for i in 0..192u64 {
                    if i % 64 == 0 {
                        let depth = depths[i as usize / 64];
                        bare.set_depth(depth);
                        stager.configure(bare.issue_mode(), bare.depth());
                        backend.set_pipeline_depth(depth);
                    }
                    // Bursts of back-to-back arrivals, then an idle gap.
                    let arrival = (i / 8) * 20_000 + i % 8;
                    let (block, payload) = (i % 23, [i as u8; BLOCK_BYTES]);
                    let reply = match i % 4 {
                        0 => {
                            oram.access_managed(block, None, &mut |p| *p = payload, &mut stager)
                                .unwrap();
                            backend.access_managed(arrival, block, None, &mut |p| *p = payload)
                        }
                        1 => {
                            oram.dummy_access(&mut stager).unwrap();
                            backend.dummy_access(arrival)
                        }
                        2 => {
                            oram.access_managed(block, None, &mut |d| d[0] ^= 1, &mut stager)
                                .unwrap();
                            backend.access_managed(arrival, block, None, &mut |d| d[0] ^= 1)
                        }
                        _ => {
                            oram.access_managed(block, None, &mut |_| {}, &mut stager).unwrap();
                            backend.access_managed(arrival, block, None, &mut |_| {})
                        }
                    }
                    .unwrap();
                    stager.commit_access();
                    let staged = stager.batch_mut();
                    let (start, done) = bare.finish(arrival, staged.get(0));
                    staged.clear();
                    assert_eq!(
                        (backend.ctl().now(), reply.done),
                        (start, done),
                        "{scheme:?} depths {depths:?} access {i}"
                    );
                }
                assert_eq!(backend.quiesce(), bare.quiesce(), "{scheme:?} depths {depths:?}");
            }
        }
    }

    #[test]
    fn timed_backend_keeps_dram_request_state_bounded() {
        for (scheme, depth) in [
            (Scheme::Ab, 1u8),
            (Scheme::AbChannelPar, 1),
            (Scheme::Ab, 4),
            (Scheme::AbChannelPar, 4),
        ] {
            let cfg = OramConfig::builder(8, scheme).store_data(true).seed(5).build().unwrap();
            let mut b = TimedBackend::new(&cfg, DramConfig::default()).unwrap();
            b.set_pipeline_depth(depth);
            let mut largest = 0u64;
            for i in 0..2_000u64 {
                let before = b.requests_issued();
                match i % 3 {
                    0 => {
                        b.access_managed(i * 50, i % 23, None, &mut |p| *p = [i as u8; BLOCK_BYTES])
                    }
                    1 => b.dummy_access(i * 50),
                    _ => b.access_managed(i * 50, i % 23, None, &mut |_| {}),
                }
                .unwrap();
                largest = largest.max(b.requests_issued() - before);
                let tracked = b.memory().tracked_requests() as u64;
                assert!(
                    tracked <= u64::from(depth) * largest,
                    "{scheme:?} depth {depth} access {i}"
                );
            }
            b.quiesce();
            assert_eq!(b.memory().tracked_requests(), 0, "{scheme:?} depth {depth}");
        }
    }

    #[test]
    fn an_access_the_engine_fails_is_dropped_unreleased() {
        // Every other data fetch flips and no verifier is armed: an access
        // ends with `RetriesExhausted` after it emitted requests.
        let flips = FaultConfig {
            data_bit_flip: 0.5,
            metadata_corruption: 0.0,
            dropped_write: 0.0,
            stall_events: 0,
            ..FaultConfig::default()
        };
        for depth in [1u8, 4] {
            let mut b = TimedBackend::new(&cfg(), DramConfig::default()).unwrap();
            b.set_pipeline_depth(depth);
            b.enable_faults(FaultPlan::with_config(5, flips));
            let mut reference = b.engine().clone();
            let mut counted = FaultInjectingSink::with_plan(
                CountingSink::new(),
                FaultPlan::with_config(5, flips),
            );
            let mut earlier = 0;
            let failing = (0..200u64).find(|&i| {
                let before = counted.inner().grand_total();
                let want = reference.access(AccessKind::Read, i % 23, None, &mut counted);
                let got =
                    b.timed(i * 50, |oram, sink| oram.access(AccessKind::Read, i % 23, None, sink));
                assert_eq!(want.is_ok(), got.is_ok(), "access {i}");
                let emitted = counted.inner().grand_total() - before;
                if want.is_ok() {
                    earlier += emitted;
                } else {
                    assert!(emitted > 0, "the access fails after emitting requests");
                }
                want.is_err()
            });
            assert!(failing.expect("the plan exhausts a retry") > 0);
            assert_eq!(b.requests_issued(), earlier, "the twin saw the earlier accesses only");
            assert_eq!(b.injected_faults(), counted.injected(), "depth {depth}");
            b.quiesce();
            assert!(b.is_idle(), "depth {depth}: nothing in flight, nothing staged");
            let (issued, counted0) = (b.requests_issued(), counted.inner().grand_total());
            b.access_managed(b.free_at(), 3, None, &mut |_| {}).expect("the next access completes");
            reference.access(AccessKind::Read, 3, None, &mut counted).unwrap();
            let own = counted.inner().grand_total() - counted0;
            assert_eq!(b.requests_issued() - issued, own, "depth {depth}");
        }
    }

    #[test]
    fn controller_serializes_early_arrivals() {
        let mut backend = UntimedBackend::new(&cfg()).unwrap();
        backend.access_managed(0, 1, None, &mut |_| {}).unwrap();
        let busy_until = backend.free_at();
        // Arrives while the controller is busy: starts at free_at, not 1.
        let b = backend.access_managed(1, 2, None, &mut |_| {}).unwrap();
        assert!(busy_until > 1 && b.done > busy_until);
    }
}
