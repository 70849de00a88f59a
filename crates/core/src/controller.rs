//! The ORAM access controller: the one place that decides when an access
//! may issue.
//!
//! The paper's methodology (§VII) has a single ORAM controller between the
//! core and DRAM. [`AccessController`] is that controller and the whole
//! release half of the timed path: it owns the release clock, the DRAM twin,
//! the crypto-latency model, the access-pipeline depth and the in-flight
//! window.
//! [`crate::TimedBackend`] owns it, and with it the one stager kept
//! configured alike; the backend's callers — the service's store, and
//! [`crate::TimingDriver`], which is the backend plus a ROB core — keep no
//! issue state of their own.
//!
//! One access is engine call(s) on a [`Stager`](crate::Stager) configured
//! for this controller's issue mode and depth, which decode, row-run
//! and order its requests and commit them at the access boundary, then
//! `finish(arrival, access)`, which releases the staged access and returns
//! `(start, done)`: the cycle the access's requests reached DRAM and the
//! cycle its data left the decrypt/verify pipeline. Staging is timing-free,
//! so it may run ahead, on another thread; what happens here needs the
//! clock. `start` is the latest of the arrival, monotone-start, stash
//! hand-off, floor, window-overflow, WAR-conflict and crypto-idle gates, and
//! each release counts the gate that set it (`controller.gate.<name>`); the
//! crypto carry additionally holds `done`. DESIGN.md §15 tabulates each
//! gate, the dependency it enforces and the field carrying it.
//!
//! Every depth takes the same path. The whole access is staged, its
//! footprint inspected, and the gates fix its start before the one release.
//! Depth 1 — the classic serialized controller — is a window of one: its
//! overflow gate resolves the previous access in full, and the access then
//! enters an empty window, so it also waits for the crypto pipeline to idle.
//!
//! The controller also ends each request's life in the DRAM twin
//! ([`MemorySystem::retire`]): an access's ids live in its window entry and
//! are retired once the entry has been resolved and popped, by the overflow
//! gate or by [`quiesce`](AccessController::quiesce). Live per-request state
//! is therefore bounded by depth × access size.

use crate::config::IssueMode;
use crate::sink::{Layout, StagedAccess};
use aboram_crypto::CryptoLatency;
use aboram_dram::{MemorySystem, RequestId, RequestIdRange};
use std::collections::VecDeque;

/// See the module docs.
#[derive(Debug)]
pub(crate) struct AccessController {
    memory: MemorySystem,
    /// The release clock: the start cycle of the most recent access.
    now: u64,
    /// Read lists of resolved window entries, kept for the next release.
    spare: Vec<Vec<(u64, u32)>>,
    issue_mode: IssueMode,
    crypto: CryptoLatency,
    /// Maximum concurrently in-flight accesses; 1 = the classic serialized
    /// controller.
    depth: u8,
    /// The floor the in-flight window opened on: zero, or the full drain the
    /// last [`quiesce`](Self::quiesce) folded the window into.
    free_at: u64,
    /// In-flight accesses whose maintenance traffic is still draining.
    window: VecDeque<InflightAccess>,
    /// Previous access's last online DRAM reply — the stash hand-off gate
    /// (its decrypt/verify tail may still be draining).
    prev_online_done: u64,
    /// The crypto pipeline's last exit cycle, carried across in-flight
    /// accesses. An access entering an empty window waits for it and zeroes
    /// it: serialized accesses each find the pipeline idle.
    crypto_exit: u64,
    /// Scratch: online-read completion times of the access just released.
    completions: Vec<u64>,
}

/// One access in the controller's in-flight window: its requests' ids
/// (contiguous, so `first id + len`) and — when a later access can enter the
/// window beside it — its *reads* as `(location key, position in ids)` in
/// ascending key order: the locations a later access's writeback must not
/// overwrite before they are served (write-after-read, the one DRAM-level
/// hazard the window has to order explicitly; see [`conflict_gate`]).
#[derive(Debug)]
pub(crate) struct InflightAccess {
    pub(crate) ids: RequestIdRange,
    pub(crate) reads: Vec<(u64, u32)>,
}

/// The id of the request at position `pos` of a released batch.
fn id_at(ids: &RequestIdRange, pos: usize) -> RequestId {
    ids.clone().nth(pos).expect("one id per request of the batch")
}

/// The earliest cycle at which `access` may issue without overwriting a
/// location an access in `window` has not finished reading: the latest
/// completion, in `memory`, over exactly the entries' reads in the
/// `(channel, bank, row)` rows the access writes (zero when disjoint, or
/// when nothing is in flight). Both sides are in ascending key order, so one
/// merge per entry finds them.
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
    memory: &mut MemorySystem,
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
                gate = gate.max(memory.completion_time(id_at(&entry.ids, pos as usize)));
            }
        }
    }
    gate
}

impl AccessController {
    /// A depth-1 controller over `memory` with the default crypto model.
    pub(crate) fn new(memory: MemorySystem, issue_mode: IssueMode) -> Self {
        AccessController {
            memory,
            now: 0,
            spare: Vec::new(),
            issue_mode,
            crypto: CryptoLatency::default(),
            depth: 1,
            free_at: 0,
            window: VecDeque::new(),
            prev_online_done: 0,
            crypto_exit: 0,
            completions: Vec::new(),
        }
    }

    /// The DRAM twin.
    pub(crate) fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// Requests handed to the DRAM twin so far: serviced plus queued.
    #[cfg(test)]
    pub(crate) fn requests_issued(&self) -> u64 {
        self.memory().stats().total_requests() + self.memory().pending() as u64
    }

    /// Mutable DRAM twin (stall injection, final drain).
    pub(crate) fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.memory
    }

    /// The issue mode the scheme selected.
    pub(crate) fn issue_mode(&self) -> IssueMode {
        self.issue_mode
    }

    /// Sets the access-pipeline depth (`0` clamps to 1). A change of depth
    /// quiesces first, so the switch never reorders requests: a lowered
    /// window would hold more than it may, and an entry released into a
    /// window of one lists no reads for a wider window's WAR gate.
    pub(crate) fn set_depth(&mut self, depth: u8) {
        let depth = depth.max(1);
        if depth != self.depth {
            self.quiesce();
        }
        self.depth = depth;
    }

    /// The access-pipeline depth in force.
    pub(crate) fn depth(&self) -> u8 {
        self.depth
    }

    /// The floor the window opened on (see the `free_at` field).
    pub(crate) fn free_at(&self) -> u64 {
        self.free_at
    }

    /// The release clock: the start cycle of the most recent access.
    #[cfg(test)]
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// The online-read completion cycles the last release left.
    #[cfg(test)]
    pub(crate) fn completions(&self) -> &[u64] {
        &self.completions
    }

    /// Whether nothing is undrained or in flight (true after
    /// [`quiesce`](Self::quiesce)).
    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        self.window.is_empty()
    }

    /// Releases `access`, staged for this controller, which arrived at cycle
    /// `arrival`: charges the crypto pipeline on its online reads and
    /// returns `(start, done)`. The user's load completes at `done`;
    /// maintenance traffic keeps draining in the window.
    pub(crate) fn finish(&mut self, arrival: u64, access: StagedAccess<'_>) -> (u64, u64) {
        let start = self.release(arrival, access);

        // The user-visible critical path: the online reads plus the crypto
        // pipeline on the returned blocks.
        let n = self.completions.len() as u64;
        let last = self.completions.iter().max().copied().unwrap_or(0).max(start);
        let mut done = start;
        if n > 0 {
            // Serial issue: the whole burst enters the pipeline after the
            // last reply, floored by a still-busy pipeline.
            let serial_done = last + self.crypto.burst_cycles(n);
            done = match self.issue_mode {
                IssueMode::Serial => serial_done.max(self.crypto_exit + n * self.crypto.per_block),
                // Channel-parallel issue: each block enters as its channel
                // returns it, so only the tail DRAM couldn't hide is exposed.
                IssueMode::ChannelParallel => {
                    let done = self
                        .crypto
                        .overlapped_exit_from(self.crypto_exit, &mut self.completions)
                        .max(start);
                    aboram_telemetry::counter_add(
                        "crypto.overlap_saved_cycles",
                        serial_done.saturating_sub(done),
                    );
                    aboram_telemetry::counter_add("crypto.overlapped_blocks", n);
                    done
                }
            };
            self.crypto_exit = done;
        }
        self.prev_online_done = last;
        aboram_telemetry::observe_level("pipeline.occupancy", self.window.len().min(255) as u8, 1);
        (start, done)
    }

    /// Fixes the access's start cycle from its dependency gates, counts the
    /// gate that set it (the first, in the order below, to reach the latest
    /// cycle) and releases the access to the DRAM twin and into the window,
    /// leaving its online reads' reply cycles in `completions`.
    fn release(&mut self, arrival: u64, access: StagedAccess<'_>) -> u64 {
        debug_assert_eq!(
            access.layout,
            Layout::of(self.issue_mode, self.depth),
            "an access staged for another issue mode or depth"
        );
        let mut start = (arrival, "controller.gate.arrival");
        let mut hold = |until: u64, gate: &'static str| {
            if until > start.0 {
                start = (until, gate);
            }
        };
        hold(self.now, "controller.gate.monotone_start");
        hold(self.prev_online_done, "controller.gate.stash_hand_off");
        hold(self.free_at, "controller.gate.floor");
        // Window overflow: the oldest in-flight access must fully complete
        // before a (depth+1)-th access may enter.
        while self.window.len() >= usize::from(self.depth) {
            let oldest = self.window.pop_front().expect("non-empty window");
            hold(self.resolve_inflight(oldest), "controller.gate.window_overflow");
        }
        // The accesses that left the window are resolved and nothing holds
        // their ids any more: end their per-request state in the DRAM twin.
        let oldest_live = self.window.iter().find_map(|e| e.ids.clone().next());
        let memory = &mut self.memory;
        memory.retire(oldest_live.unwrap_or_else(|| memory.next_request_id()));
        // Write-after-read: this access's writebacks must not land in a
        // `(channel, bank, row)` an in-flight access has not finished
        // reading. RAW and WAW need no gate (see [`conflict_gate`]).
        hold(conflict_gate(memory, &self.window, &access), "controller.gate.war_conflict");
        // Crypto idle: with nothing in flight there is no carry to thread
        // through, so the access waits for the pipeline to idle instead.
        if self.window.is_empty() {
            hold(std::mem::take(&mut self.crypto_exit), "controller.gate.crypto_idle");
        }
        let (start, gate) = start;
        aboram_telemetry::counter_add(gate, 1);
        let entry = self.release_at(start, access);
        self.window.push_back(entry);
        start
    }

    /// The one hand-off to the memory system: moves the clock to `cycle`,
    /// releases `access` as one batch arriving at that cycle, and returns it
    /// as a window entry. [`release`](Self::release) resolves the access's
    /// dependency gates against its staged footprint, and only then knows
    /// the arrival cycle. `cycle` must be ≥ the last timestamp (the memory
    /// model's non-decreasing contract).
    ///
    /// `completions` is overwritten with the completion cycle of each online
    /// read (unordered): [`finish`](Self::finish) charges the crypto burst
    /// after the latest one (serial issue) or folds them through
    /// [`CryptoLatency::overlapped_exit_from`] (channel-parallel issue).
    ///
    /// The caller owns the entry's requests from here on: it resolves them
    /// ([`resolve_inflight`](Self::resolve_inflight)) and retires them from
    /// the memory system once the access leaves its window.
    pub(crate) fn release_at(&mut self, cycle: u64, access: StagedAccess<'_>) -> InflightAccess {
        debug_assert!(cycle >= self.now, "release_at must not move the clock backwards");
        self.now = cycle;
        let ids = self.memory.enqueue_decoded(access.requests(), cycle);
        self.completions.clear();
        for &pos in access.online {
            self.completions.push(self.memory.completion_time(id_at(&ids, pos as usize)));
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

    /// Resolves every in-flight access, folds the completions into
    /// `free_at` and returns it. The controller is then at rest: empty
    /// window, idle crypto pipeline, and — every id being resolved and
    /// unheld — no live request in the DRAM twin.
    pub(crate) fn quiesce(&mut self) -> u64 {
        let mut free = self.free_at.max(self.prev_online_done).max(self.crypto_exit);
        while let Some(entry) = self.window.pop_front() {
            free = free.max(self.resolve_inflight(entry));
        }
        let memory = self.memory_mut();
        memory.retire(memory.next_request_id());
        self.free_at = free;
        self.prev_online_done = 0;
        self.crypto_exit = 0;
        free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer_of;
    use crate::sink::{MemorySink, OramOp, Stager};
    use aboram_dram::{DramConfig, MemOpKind, Priority};
    use aboram_telemetry::Collector;
    use aboram_tree::SlotAddr;
    use proptest::prelude::*;

    /// A controller and the stager its accesses are staged on, kept
    /// configured alike.
    #[derive(Debug)]
    struct Rig {
        ctl: AccessController,
        stager: Stager,
    }

    impl Rig {
        fn set_depth(&mut self, depth: u8) {
            self.ctl.set_depth(depth);
            self.stager.configure(self.ctl.issue_mode(), self.ctl.depth());
        }

        /// Commits the access staged since the last call and finishes it.
        fn finish(&mut self, arrival: u64) -> (u64, u64) {
            self.stager.commit_access();
            let batch = self.stager.batch_mut();
            let times = self.ctl.finish(arrival, batch.get(0));
            batch.clear();
            times
        }
    }

    impl std::ops::Deref for Rig {
        type Target = AccessController;

        fn deref(&self) -> &AccessController {
            &self.ctl
        }
    }

    impl std::ops::DerefMut for Rig {
        fn deref_mut(&mut self) -> &mut AccessController {
            &mut self.ctl
        }
    }

    fn controller(depth: u8, mode: IssueMode, crypto: CryptoLatency) -> Rig {
        let mut ctl = AccessController::new(MemorySystem::new(DramConfig::default()), mode);
        // The tests replace the default crypto model to isolate the DRAM
        // gates or the crypto ones.
        ctl.crypto = crypto;
        // `set_depth` configures the stager for the controller.
        let mut rig = Rig { stager: Stager::new(*ctl.memory().config()), ctl };
        rig.set_depth(depth);
        rig
    }

    /// The first `lines` 64 B lines of DRAM page `p`. Under the
    /// page-interleaved map one page is one `(channel, bank, row)`, and
    /// distinct pages are distinct rows.
    fn page(p: u64, lines: u64) -> Vec<SlotAddr> {
        let row_bytes = DramConfig::default().row_bytes;
        (0..lines).map(|l| SlotAddr(p * row_bytes + l * 64)).collect()
    }

    /// `lines` lines on each of four pages starting at `p` — one per channel.
    fn pages(p: u64, lines: u64) -> Vec<SlotAddr> {
        (p..p + 4).flat_map(|p| page(p, lines)).collect()
    }

    /// One hand-built access: online reads, offline reads, offline writes.
    fn access(
        ctl: &mut Rig,
        arrival: u64,
        online: &[SlotAddr],
        offline: &[SlotAddr],
        writes: &[SlotAddr],
    ) -> (u64, u64) {
        let sink = &mut ctl.stager;
        sink.read_batch(online, OramOp::ReadPath, true);
        sink.read_batch(offline, OramOp::EvictPath, false);
        sink.write_batch(writes, OramOp::EvictPath, false);
        ctl.finish(arrival)
    }

    /// Runs one access under a telemetry collector: its result and the one
    /// gate its release counted.
    fn gated<T>(access: impl FnOnce() -> T) -> (T, &'static str) {
        aboram_telemetry::install(Collector::to_shared_buffer().0);
        let times = access();
        let collector = aboram_telemetry::uninstall().expect("installed above");
        let mut gates = collector.registry().run_counter_deltas();
        gates.retain(|(name, _)| name.starts_with("controller.gate."));
        assert!(gates.len() == 1 && gates[0].1 == 1, "one gate per release: {gates:?}");
        (times, &gates[0].0["controller.gate.".len()..])
    }

    /// Latest completion over the window entry's requests: all of them, or
    /// only its reads in the `(channel, bank, row)` of `row_of`.
    fn completion_of(ctl: &mut Rig, entry: usize, row_of: Option<SlotAddr>) -> u64 {
        let e = &ctl.window[entry];
        let ids: Vec<_> = match row_of {
            None => e.ids.clone().collect(),
            Some(addr) => {
                let key = ctl.stager.location_key(ctl.memory().decode_addr(addr.byte()));
                let in_row = e.reads.iter().filter(|&&(k, _)| k == key);
                in_row.map(|&(_, pos)| e.ids.clone().nth(pos as usize).unwrap()).collect()
            }
        };
        ids.into_iter().map(|id| ctl.memory_mut().completion_time(id)).max().unwrap()
    }

    #[test]
    fn issue_gate_serializes_depth_one_on_the_full_drain() {
        let mut ctl = controller(1, IssueMode::Serial, CryptoLatency::default());
        let ((start, done), gate) =
            gated(|| access(&mut ctl, 100, &page(0, 1), &[], &pages(8, 16)));
        assert_eq!((start, gate), (100, "arrival"), "an idle controller starts at arrival");
        let drained = completion_of(&mut ctl, 0, None);
        assert!(drained > done, "writebacks drain after the load completed");
        let ((early, early_done), gate) = gated(|| access(&mut ctl, 0, &page(1, 1), &[], &[]));
        assert_eq!(
            (early, gate),
            (drained, "window_overflow"),
            "an early arrival waits for the previous access's full drain"
        );
        // Nothing but the load: the decrypt tail is what is still draining.
        assert!(completion_of(&mut ctl, 0, None) < early_done);
        let ((idle, idle_done), gate) = gated(|| access(&mut ctl, 0, &page(2, 1), &[], &[]));
        assert_eq!((idle, gate), (early_done, "crypto_idle"), "and for the pipeline to idle");
        assert_eq!(idle_done - idle, early_done - early, "which it then finds idle");
        let late_arrival = idle_done + 1_000;
        let ((late, _), gate) = gated(|| access(&mut ctl, late_arrival, &page(3, 1), &[], &[]));
        assert_eq!((late, gate), (late_arrival, "arrival"));
        assert_eq!(ctl.window.len(), 1, "a window of one keeps only the last access in flight");
    }

    #[test]
    fn window_overflow_waits_for_the_oldest_access_at_depth_two() {
        let run = |depth: u8| {
            let mut ctl = controller(depth, IssueMode::Serial, CryptoLatency::free());
            let first = access(&mut ctl, 0, &page(0, 1), &[], &pages(8, 64));
            let second = access(&mut ctl, 0, &page(1, 1), &[], &page(16, 1));
            let hand_off = ctl.prev_online_done;
            let oldest_done = completion_of(&mut ctl, 0, None);
            let (third, gate) = gated(|| access(&mut ctl, 0, &page(2, 1), &[], &page(17, 1)));
            (first, second, hand_off, oldest_done, third.0, gate)
        };
        let (first2, second2, hand_off2, oldest_done, third2, gate2) = run(2);
        let (first3, second3, hand_off3, _, third3, gate3) = run(3);
        assert_eq!((first2, second2, hand_off2), (first3, second3, hand_off3));
        assert!(oldest_done > hand_off2, "the first access's writebacks outlast the hand-off");
        assert_eq!(third3, hand_off3, "with room in the window only the hand-off binds");
        assert_eq!(third2, oldest_done, "a full window admits the third access as the first ends");
        assert_eq!((gate2, gate3), ("window_overflow", "stash_hand_off"));
    }

    #[test]
    fn monotone_start_holds_for_out_of_order_arrivals() {
        let mut ctl = controller(4, IssueMode::Serial, CryptoLatency::free());
        let mut last = 0;
        for (i, arrival) in [5_000, 10, 2_000, 0].into_iter().enumerate() {
            let ((start, _), gate) =
                gated(|| access(&mut ctl, arrival, &[], &[], &page(8 + i as u64, 1)));
            assert!(start >= last && start >= arrival, "start {start} after {last}");
            assert_eq!(ctl.now(), start);
            assert_eq!(gate, if i == 0 { "arrival" } else { "monotone_start" });
            last = start;
        }
        assert_eq!(last, 5_000, "later, earlier-stamped arrivals start no sooner");
    }

    #[test]
    fn stash_hand_off_waits_for_the_last_online_reply_not_the_crypto_exit() {
        for crypto in [CryptoLatency::free(), CryptoLatency::default()] {
            let mut ctl = controller(4, IssueMode::Serial, crypto);
            let (_, done) = access(&mut ctl, 0, &page(0, 4), &[], &pages(8, 64));
            let ((next, _), gate) = gated(|| access(&mut ctl, 0, &page(1, 1), &[], &page(16, 1)));
            assert_eq!((next, gate), (done - crypto.burst_cycles(4), "stash_hand_off"));
            assert!(ctl.quiesce() > next, "the writebacks it overlapped were still draining");
        }
    }

    #[test]
    fn war_conflict_gates_on_a_shared_row_and_not_on_disjoint_rows() {
        let run = |write_page: u64| {
            let mut ctl = controller(4, IssueMode::Serial, CryptoLatency::free());
            let (_, hand_off) = access(&mut ctl, 0, &page(0, 1), &page(5, 16), &[]);
            let row_read = completion_of(&mut ctl, 0, Some(page(5, 1)[0]));
            let ((start, _), gate) =
                gated(|| access(&mut ctl, 0, &page(1, 1), &[], &page(write_page, 1)));
            (hand_off, row_read, start, gate)
        };
        let (hand_off, row_read, shared, gate) = run(5);
        assert!(row_read > hand_off, "the offline reads outlast the hand-off");
        assert_eq!(shared, row_read, "a writeback into a row still being read waits for the read");
        assert_eq!(gate, "war_conflict");
        let (hand_off, _, disjoint, gate) = run(6);
        assert_eq!(disjoint, hand_off, "a disjoint writeback starts at the hand-off");
        assert_eq!(gate, "stash_hand_off");
    }

    #[test]
    fn steady_state_pipelined_access_allocates_nothing() {
        // Every buffer on the staged path — the stager's staging scratch and
        // staged batch, the read lists circulating between the window and
        // the controller's spares, the controller's own scratch — is the
        // same allocation, at the same capacity, after 1 000 more accesses.
        let buffers = |rig: &Rig| {
            let mut all = rig.stager.buffers();
            let mut lists: Vec<_> = rig
                .spare
                .iter()
                .chain(rig.window.iter().map(|e| &e.reads))
                .map(buffer_of)
                .collect();
            lists.sort_unstable();
            all.extend(lists);
            all.push((rig.completions.as_ptr() as usize, rig.completions.capacity()));
            all.push((0, rig.window.capacity()));
            all
        };
        for (depth, mode) in [
            (1, IssueMode::Serial),
            (1, IssueMode::ChannelParallel),
            (4, IssueMode::Serial),
            (4, IssueMode::ChannelParallel),
        ] {
            let mut ctl = controller(depth, mode, CryptoLatency::default());
            let run = |ctl: &mut Rig, range: std::ops::Range<u64>| {
                for i in range {
                    let (online, offline) = (page(i % 7, 1 + i % 3), pages(8 + i % 5, 1 + i % 4));
                    let writes = pages(8 + (i + 2) % 5, 2 + i % 6);
                    access(ctl, i * 50, &online, &offline, &writes);
                }
            };
            run(&mut ctl, 0..240);
            let warm = buffers(&ctl);
            assert_eq!(ctl.window.len(), usize::from(depth), "{mode:?}: the window is full");
            run(&mut ctl, 240..1_240);
            assert_eq!(buffers(&ctl), warm, "{mode:?} depth {depth}: a buffer moved or grew");
        }
    }

    #[test]
    fn crypto_carry_delays_an_access_behind_a_busy_pipeline() {
        let slow = CryptoLatency::new(40, 50);
        for mode in [IssueMode::Serial, IssueMode::ChannelParallel] {
            let mut ctl = controller(4, mode, slow);
            let (_, first) = access(&mut ctl, 0, &page(0, 8), &[], &[]);
            let (_, second) = access(&mut ctl, 0, &page(1, 1), &[], &[]);
            assert_eq!(second, first + slow.per_block, "{mode:?}: one retire slot behind");
            assert!(
                second > ctl.prev_online_done + slow.pipeline_fill,
                "{mode:?}: an idle pipeline would have been done earlier"
            );
        }
    }

    #[test]
    fn depth_zero_clamps_to_the_serialized_controller() {
        let mut ctl = controller(0, IssueMode::Serial, CryptoLatency::default());
        assert_eq!(ctl.depth(), 1);
        access(&mut ctl, 0, &page(0, 1), &[], &pages(8, 16));
        let drained = completion_of(&mut ctl, 0, None);
        assert_eq!(access(&mut ctl, 0, &page(1, 1), &[], &[]).0, drained);
    }

    #[test]
    fn lowering_the_depth_quiesces_first() {
        let mut ctl = controller(4, IssueMode::ChannelParallel, CryptoLatency::default());
        access(&mut ctl, 0, &page(0, 2), &[], &pages(8, 64));
        let (_, done) = access(&mut ctl, 0, &page(1, 2), &[], &pages(12, 64));
        assert_eq!(ctl.window.len(), 2);
        assert_eq!(ctl.free_at(), 0, "the window's traffic is not folded in yet");
        let drained = completion_of(&mut ctl, 0, None).max(completion_of(&mut ctl, 1, None));
        ctl.set_depth(1);
        assert!(ctl.is_idle() && ctl.crypto_exit == 0 && ctl.prev_online_done == 0);
        assert_eq!(ctl.memory().tracked_requests(), 0);
        assert!(drained > done, "every in-flight writeback is covered");
        assert_eq!(ctl.free_at(), drained, "the floor the new window opens on");
        let ((start, _), gate) = gated(|| access(&mut ctl, 0, &page(2, 1), &[], &[]));
        assert_eq!((start, gate), (drained, "floor"));
        assert_eq!(ctl.window.len(), 1);
    }

    /// One request of the oracle's hand-built accesses: `(row, line, write,
    /// online)` over a few rows on all four channels, so locations repeat
    /// within and across accesses.
    type OracleReq = (u64, u64, bool, bool);

    /// Where the oracle's clock starts: late enough that the serial crypto
    /// charge's `n × per_block` floor, counted from cycle zero on an idle
    /// pipeline, binds for no model below.
    const ORACLE_EPOCH: u64 = 1_000;

    /// The one traffic tag both sides of the oracle attribute requests to.
    const ORACLE_OP: OramOp = OramOp::EvictPath;

    fn oracle_addr((row, line, ..): OracleReq) -> u64 {
        row * DramConfig::default().row_bytes + line * 64
    }

    /// The serialized controller the window of one replaced, over a bare
    /// memory system: each request is enqueued, one at a time, at
    /// `max(arrival, previous drain)`; an access is done when its online
    /// reads left an idle crypto pipeline, and drained when that and every
    /// request completed. Returns the `(start, done)` stream and the last
    /// drain.
    fn reference_serialized(
        mem: &mut MemorySystem,
        mode: IssueMode,
        crypto: CryptoLatency,
        accesses: &[(Vec<OracleReq>, u64)],
    ) -> (Vec<(u64, u64)>, u64) {
        let (mut times, mut drained, mut at) = (Vec::new(), 0, ORACLE_EPOCH);
        for (reqs, gap) in accesses {
            at += gap;
            let start = drained.max(at);
            let mut reqs = reqs.clone();
            if mode == IssueMode::ChannelParallel {
                reqs.sort_by_key(|&r| {
                    let d = mem.decode_addr(oracle_addr(r));
                    (d.channel, d.bank, d.row)
                });
            }
            let enqueue = |&r: &OracleReq| {
                let (_, _, write, online) = r;
                let kind = if write { MemOpKind::Write } else { MemOpKind::Read };
                let pri = if online { Priority::Online } else { Priority::Offline };
                (mem.enqueue(kind, oracle_addr(r), pri, ORACLE_OP.tag(), start), online && !write)
            };
            let ids: Vec<_> = reqs.iter().map(enqueue).collect();
            let online = ids.iter().filter(|(_, online)| *online);
            let mut replies: Vec<_> = online.map(|&(id, _)| mem.completion_time(id)).collect();
            let done = match (replies.iter().max(), mode) {
                (None, _) => start,
                (Some(last), IssueMode::Serial) => last + crypto.burst_cycles(replies.len() as u64),
                (Some(_), IssueMode::ChannelParallel) => {
                    crypto.overlapped_exit_from(0, &mut replies)
                }
            };
            drained = ids.iter().map(|&(id, _)| mem.completion_time(id)).fold(done, u64::max);
            times.push((start, done));
        }
        (times, drained)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A window of one is the serialized controller: the same `(start,
        /// done)` stream, the same drain and the same DRAM statistics as the
        /// reference above, for early and late arrivals, under both issue
        /// modes, with a default, a free and a retire-bound crypto model.
        #[test]
        fn depth_one_matches_a_reference_serialized_controller(
            accesses in proptest::collection::vec(
                (
                    proptest::collection::vec(
                        (0u64..12, 0u64..128, any::<bool>(), any::<bool>()),
                        0..40,
                    ),
                    0u64..4_000,
                ),
                1..12,
            ),
        ) {
            let cryptos =
                [CryptoLatency::default(), CryptoLatency::free(), CryptoLatency::new(10, 400)];
            for mode in [IssueMode::Serial, IssueMode::ChannelParallel] {
                for crypto in cryptos {
                    let mut reference = MemorySystem::new(DramConfig::default());
                    let (want, drained) =
                        reference_serialized(&mut reference, mode, crypto, &accesses);

                    let mut ctl = controller(1, mode, crypto);
                    let mut at = ORACLE_EPOCH;
                    let finish = |(reqs, gap): &(Vec<OracleReq>, u64)| {
                        at += gap;
                        for &r @ (_, _, write, online) in reqs {
                            let addr = SlotAddr(oracle_addr(r));
                            if write {
                                ctl.stager.write(addr, ORACLE_OP, online);
                            } else {
                                ctl.stager.read(addr, ORACLE_OP, online);
                            }
                        }
                        ctl.finish(at)
                    };
                    let got: Vec<_> = accesses.iter().map(finish).collect();
                    prop_assert_eq!(&got, &want, "{:?} {:?}", mode, crypto);
                    prop_assert_eq!(ctl.quiesce(), drained, "{:?} {:?}", mode, crypto);
                    reference.drain();
                    ctl.memory_mut().drain();
                    prop_assert_eq!(ctl.memory().stats(), reference.stats());
                    prop_assert_eq!(ctl.memory().tracked_requests(), 0);
                }
            }
        }
    }
}
