//! The store's timing lane: where its trees' accesses are released.
//!
//! Every tree access a request makes is one stage half (the engine's
//! protocol work, the data path and the stager's commit) and one release
//! half (the tree's [`ReleaseHalf`]: its gates, DRAM twin and crypto model,
//! which fix the access's `done`). An access arrives either at a cycle —
//! the first access of a request's chain, at the request's start — or when
//! the previous access of its chain completes. No stage half reads a cycle,
//! so the two halves can run apart.
//!
//! The lane has two executors over those same two halves:
//!
//! * **inline** — each access is staged and released at once, on the
//!   calling thread, through the backend's own [`StorageBackend`] methods.
//!   The synchronous store API and untimed stores use it;
//! * **threaded** — a batch on a timed store lends every tree's release half
//!   to a long-lived helper thread, which the lane spawns on first use and
//!   joins when it drops. The calling thread stages each access and sends
//!   it, with its tree and its [`Arrival`], as soon as it is committed; the
//!   helper releases it while the calling thread stages the next ones.
//!   Closing the batch is the one blocking wait: the release halves come
//!   home with every access's `done`. A release half lent while a telemetry
//!   collector is installed on the calling thread captures the hooks its
//!   releases fire on the helper; returning it at close replays them into
//!   that collector.
//!
//! Each tree's release half sees the same accesses, in the same order, at
//! the same arrivals under both executors, so every cycle is identical. The
//! trees' DRAM twins are private to them, so the order across trees does
//! not matter. Nor does it for telemetry: the helper's hooks replay tree by
//! tree after the batch's staging hooks, but a store marks no record and
//! begins no run, so they reach only the registry, whose counters and
//! histograms are sums.

use aboram_core::{
    BlockId, OramError, PayloadMutator, ReleaseHalf, StagedBatch, StorageBackend, BLOCK_BYTES,
};
use aboram_tree::PathId;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// When a tree access reaches its release half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// At this cycle: the first access of a chain.
    At(u64),
    /// When the previous access of the chain completes.
    AfterPrevious,
}

/// One tree access, as its chain asks for it.
pub(crate) enum Op<'a, 'm> {
    /// A managed access: remap `block` to `position` and `mutate` its
    /// payload in the stash.
    Managed { block: BlockId, position: PathId, mutate: &'a mut PayloadMutator<'m> },
    /// A dummy access.
    Dummy,
}

/// One staged access on its way to the helper.
#[derive(Debug)]
struct Staged {
    tree: usize,
    arrival: Arrival,
    /// The access, alone.
    access: StagedBatch,
}

/// What a threaded batch lends the helper and gets back when it closes:
/// the trees' release halves and the `done` of every access released.
#[derive(Debug, Default)]
struct Loan {
    releases: Vec<ReleaseHalf>,
    dones: Vec<u64>,
}

enum ToHelper {
    Open(Loan),
    Release(Staged),
    Close,
}

/// The helper thread and its channels.
struct Helper {
    to: mpsc::Sender<ToHelper>,
    /// The loan, back at each close: the one receive that blocks.
    closed: mpsc::Receiver<Loan>,
    /// Each released access's batch, emptied for the next access, so that
    /// a few batches circulate rather than one per access of the batch.
    /// Only ever polled.
    spent: mpsc::Receiver<StagedBatch>,
    thread: std::thread::JoinHandle<()>,
}

/// Spare batches a lane keeps across batches; more are dropped at close.
const SPARE: usize = 16;

/// How long a receiver polls before it blocks. The two threads hand off
/// every few microseconds, and waking a blocked thread costs tens of them
/// on a virtual machine whose idle CPU has halted.
const POLL: Duration = Duration::from_micros(100);

/// Receives from `rx`: polls for up to [`POLL`], yielding the CPU between
/// polls — on one core the other thread runs meanwhile — then blocks.
fn recv<T>(rx: &mpsc::Receiver<T>) -> Result<T, mpsc::RecvError> {
    let started = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(mpsc::TryRecvError::Empty) if started.elapsed() < POLL => {
                std::thread::yield_now();
            }
            Err(mpsc::TryRecvError::Empty) => return rx.recv(),
            Err(mpsc::TryRecvError::Disconnected) => return Err(mpsc::RecvError),
        }
    }
}

/// When a chain whose next access would arrive per `arrival` reaches it:
/// the cycle the chain started at, or `previous_done`.
fn arrival_cycle(arrival: Arrival, previous_done: u64) -> u64 {
    match arrival {
        Arrival::At(at) => at,
        Arrival::AfterPrevious => previous_done,
    }
}

/// The helper's loop: releases each access under the open loan and hands
/// the loan back at close. Ends when the lane hangs up.
fn serve(
    closed: mpsc::Sender<Loan>,
    spent: mpsc::Sender<StagedBatch>,
    from: mpsc::Receiver<ToHelper>,
) {
    let (mut loan, mut last_done) = (Loan::default(), 0);
    while let Ok(msg) = recv(&from) {
        let sent = match msg {
            ToHelper::Open(open) => {
                loan = open;
                Ok(())
            }
            ToHelper::Release(Staged { tree, arrival, mut access }) => {
                let arrival = arrival_cycle(arrival, last_done);
                last_done = loan.releases[tree].finish(arrival, &access);
                loan.dones.push(last_done);
                access.clear();
                spent.send(access).map_err(drop)
            }
            ToHelper::Close => closed.send(std::mem::take(&mut loan)).map_err(drop),
        };
        if sent.is_err() {
            break;
        }
    }
}

/// See the module docs. Tree indices are the store's: 0 is the data tree,
/// `k` the `k`-th posmap tree.
#[derive(Default)]
pub(crate) struct Lane {
    helper: Option<Helper>,
    /// Whether the open batch is threaded.
    threaded: bool,
    /// The open batch's `done`s, one per access in stage order; on the
    /// helper, with the release halves, while a threaded batch is open.
    loan: Loan,
    /// Inline: the `done` of the last access released.
    last_done: u64,
    /// Threaded: emptied batches to stage accesses into.
    spare: Vec<StagedBatch>,
    /// Accesses staged since the batch opened.
    accesses: usize,
    #[cfg(test)]
    counts: LaneCounts,
}

/// What the lane's hand-offs cost, for tests.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneCounts {
    /// Helper threads spawned.
    pub(crate) spawns: usize,
    /// Times the calling thread blocked on the helper.
    pub(crate) waits: usize,
    /// Batches opened threaded.
    pub(crate) threaded_batches: usize,
    /// Dropped once the helper thread's closure has ended.
    pub(crate) helper_alive: std::sync::Weak<()>,
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("helper", &self.helper.is_some())
            .field("threaded", &self.threaded)
            .finish_non_exhaustive()
    }
}

impl Lane {
    /// Opens a batch released inline.
    pub(crate) fn open_inline(&mut self) {
        debug_assert!(!self.threaded, "a batch is open on the helper");
        self.loan.dones.clear();
        self.accesses = 0;
    }

    /// Opens a batch released on the helper: every tree's release half, in
    /// tree order, goes to it until [`close`](Self::close). Spawns the
    /// helper on first use.
    ///
    /// # Panics
    ///
    /// Panics if a tree is not a timed backend.
    pub(crate) fn open_threaded<'a>(
        &mut self,
        trees: impl Iterator<Item = &'a mut dyn StorageBackend>,
    ) {
        self.open_inline();
        self.threaded = true;
        let timed = |tree: &'a mut dyn StorageBackend| {
            tree.timed_mut().expect("a threaded batch runs on timed trees").lend_release()
        };
        self.loan.releases.extend(trees.map(timed));
        let loan = std::mem::take(&mut self.loan);
        self.send(ToHelper::Open(loan));
        #[cfg(test)]
        {
            self.counts.threaded_batches += 1;
        }
    }

    /// Accesses staged since the batch opened; the next one's index in
    /// [`close`](Self::close)'s `done`s.
    pub(crate) fn accesses(&self) -> usize {
        self.accesses
    }

    /// Closes the batch: a threaded one hands its last chain over, waits for
    /// the helper to release it, and returns each release half to its tree.
    /// Returns the `done` of every access staged in the batch, in order.
    pub(crate) fn close<'a>(
        &mut self,
        trees: impl Iterator<Item = &'a mut dyn StorageBackend>,
    ) -> &[u64] {
        if std::mem::take(&mut self.threaded) {
            self.send(ToHelper::Close);
            let helper = self.helper.as_ref().expect("a threaded batch has a helper");
            self.loan = recv(&helper.closed).expect("the timing lane's helper panicked");
            #[cfg(test)]
            {
                self.counts.waits += 1;
            }
            self.spare.extend(helper.spent.try_iter());
            self.spare.truncate(SPARE);
            for (tree, release) in trees.zip(self.loan.releases.drain(..)) {
                tree.timed_mut().expect("lent by a timed tree").return_release(release);
            }
        }
        &self.loan.dones
    }

    /// One access on `tree` (`backend`), arriving per `arrival`, which then
    /// reads [`Arrival::AfterPrevious`] for the chain's next access. Returns
    /// the fetched payload (`None` for a dummy).
    ///
    /// # Errors
    ///
    /// Propagates engine protocol errors: the failed access is neither
    /// staged nor released, the ones before it are.
    pub(crate) fn access(
        &mut self,
        tree: usize,
        backend: &mut dyn StorageBackend,
        arrival: &mut Arrival,
        op: Op<'_, '_>,
    ) -> Result<Option<[u8; BLOCK_BYTES]>, OramError> {
        let arrival = std::mem::replace(arrival, Arrival::AfterPrevious);
        let data = if self.threaded {
            let timed = backend.timed_mut().expect("a threaded batch runs on timed trees");
            let mut access = self.spare_batch();
            let data = match op {
                Op::Managed { block, position, mutate } => {
                    timed.stage_managed(&mut access, block, Some(position), mutate).map(Some)
                }
                Op::Dummy => timed.stage_dummy(&mut access).map(|()| None),
            };
            if data.is_err() {
                self.spare.push(access);
                return data;
            }
            self.send(ToHelper::Release(Staged { tree, arrival, access }));
            data?
        } else {
            let start = self.chain_done(arrival);
            let reply = match op {
                Op::Managed { block, position, mutate } => {
                    backend.access_managed(start, block, Some(position), mutate)?
                }
                Op::Dummy => backend.dummy_access(start)?,
            };
            self.last_done = reply.done;
            self.loan.dones.push(reply.done);
            reply.data
        };
        self.accesses += 1;
        Ok(data)
    }

    /// Inline, when a chain whose next access would arrive per `arrival` is
    /// done: the cycle it started at, or its last access's `done`.
    pub(crate) fn chain_done(&self, arrival: Arrival) -> u64 {
        debug_assert!(!self.threaded, "a threaded chain's dones are on the helper");
        arrival_cycle(arrival, self.last_done)
    }

    /// An empty batch to stage an access into: one the helper has released,
    /// else a spare one, else a new one.
    fn spare_batch(&mut self) -> StagedBatch {
        let spent = self.helper.as_ref().and_then(|helper| helper.spent.try_recv().ok());
        spent.or_else(|| self.spare.pop()).unwrap_or_default()
    }

    fn send(&mut self, msg: ToHelper) {
        let helper = self.helper.get_or_insert_with(|| {
            let (to, from) = mpsc::channel();
            let (to_closed, closed) = mpsc::channel();
            let (to_spent, spent) = mpsc::channel();
            #[cfg(test)]
            let alive = {
                let alive = std::sync::Arc::new(());
                self.counts.spawns += 1;
                self.counts.helper_alive = std::sync::Arc::downgrade(&alive);
                alive
            };
            let thread = std::thread::Builder::new()
                .name("timing-lane".into())
                .spawn(move || {
                    #[cfg(test)]
                    let _alive = alive;
                    serve(to_closed, to_spent, from);
                })
                .expect("spawn the timing lane's helper");
            Helper { to, closed, spent, thread }
        });
        helper.to.send(msg).expect("the timing lane's helper panicked");
    }

    /// The lane's hand-off counters.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> LaneCounts {
        self.counts.clone()
    }
}

impl Drop for Lane {
    /// Hangs up on the helper and joins it: no helper outlives its store.
    fn drop(&mut self) {
        if let Some(Helper { to, closed, spent, thread }) = self.helper.take() {
            drop((to, closed, spent));
            // A helper that panicked already failed the batch it served.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests;
