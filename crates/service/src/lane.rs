//! The store's side of the timing lane: where its trees' accesses are
//! released.
//!
//! Every tree access a request makes is one stage half (the engine's
//! protocol work, the data path and the stager's commit) and one release
//! half (the tree's [`ReleaseHalf`]: its gates, DRAM twin and crypto model,
//! which fix the access's `done`). An access arrives either at a cycle —
//! the first access of a request's chain, at the request's start — or when
//! the previous access of its chain completes.
//!
//! A batch runs one of two ways over those same two halves:
//!
//! * **inline** — each access is staged and released at once, on the
//!   calling thread, through the backend's own [`StorageBackend`] methods.
//!   The synchronous store API and untimed stores use it;
//! * **threaded** — a batch on a timed store lends every tree's release half
//!   to the store's [`aboram_core::Lane`], whose release rule is
//!   [`Releases`]. The calling thread stages each access into a message of
//!   its own and sends it, with its tree and its [`Arrival`], as soon as it
//!   is committed; the lane's helper releases it while the calling thread
//!   stages the next ones. Closing the batch is the one wait: the release
//!   halves come home with every access's `done`, and the hooks the
//!   releases fired reach the calling thread's collector in the inline
//!   order.
//!
//! Each tree's release half sees the same accesses, in the same order, at
//! the same arrivals either way, so every cycle is identical. The trees'
//! DRAM twins are private to them, so the order across trees does not
//! matter.

use aboram_core::{
    BlockId, OramError, PayloadMutator, Release, ReleaseHalf, StagedAccess, StorageBackend,
    BLOCK_BYTES,
};
use aboram_tree::PathId;

/// When a tree access reaches its release half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// At this cycle: the first access of a chain.
    At(u64),
    /// When the previous access of the chain completes.
    AfterPrevious,
}

impl Arrival {
    /// The cycle a chain whose previous access was done at `previous_done`
    /// reaches this access.
    fn cycle(self, previous_done: u64) -> u64 {
        match self {
            Arrival::At(at) => at,
            Arrival::AfterPrevious => previous_done,
        }
    }
}

/// One tree access, as its chain asks for it.
pub(crate) enum Op<'a, 'm> {
    /// A managed access: remap `block` to `position` and `mutate` its
    /// payload in the stash.
    Managed { block: BlockId, position: PathId, mutate: &'a mut PayloadMutator<'m> },
    /// A dummy access.
    Dummy,
}

/// The store's release rule, and the `done`s of an inline batch: the trees'
/// release halves in tree order (lent only while a threaded batch is open),
/// and the `done` of every access released, in stage order.
#[derive(Debug, Default)]
pub(crate) struct Releases {
    halves: Vec<ReleaseHalf>,
    dones: Vec<u64>,
    /// The `done` of the last access released.
    last_done: u64,
}

impl Release for Releases {
    type Job = (usize, Arrival);

    /// Releases an access on `tree`, arriving per `arrival`, starting from
    /// the chain's last `done`.
    fn release(&mut self, &(tree, arrival): &(usize, Arrival), access: StagedAccess<'_>) {
        let start = arrival.cycle(self.last_done);
        self.last_done = self.halves[tree].finish(start, access).1;
        self.dones.push(self.last_done);
    }
}

/// See the module docs. Tree indices are the store's: 0 is the data tree,
/// `k` the `k`-th posmap tree.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    helper: aboram_core::Lane<Releases>,
    /// Whether the open batch is threaded.
    threaded: bool,
    /// The open batch's `done`s; on the helper, with the release halves,
    /// while a threaded batch is open.
    releases: Releases,
    /// Accesses staged since the batch opened.
    accesses: usize,
    /// Batches opened threaded.
    #[cfg(test)]
    threaded_batches: usize,
}

/// What the lane's hand-offs cost, for tests.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct LaneCounts {
    /// The helper's spawns, waits and liveness.
    pub(crate) lane: aboram_core::LaneCounts,
    /// Batches opened threaded.
    pub(crate) threaded_batches: usize,
}

impl Lane {
    /// Opens a batch released inline.
    pub(crate) fn open_inline(&mut self) {
        debug_assert!(!self.threaded, "a batch is open on the helper");
        self.releases.dones.clear();
        self.accesses = 0;
    }

    /// Opens a batch released on the helper: every tree's release half, in
    /// tree order, goes to it until [`close`](Self::close).
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
        self.releases.halves.extend(trees.map(timed));
        self.helper.open(std::mem::take(&mut self.releases));
        #[cfg(test)]
        {
            self.threaded_batches += 1;
        }
    }

    /// Accesses staged since the batch opened; the next one's index in
    /// [`close`](Self::close)'s `done`s.
    pub(crate) fn accesses(&self) -> usize {
        self.accesses
    }

    /// Closes the batch: a threaded one waits for the helper to release its
    /// accesses and returns each release half to its tree. Returns the
    /// `done` of every access staged in the batch, in order.
    pub(crate) fn close<'a>(
        &mut self,
        trees: impl Iterator<Item = &'a mut dyn StorageBackend>,
    ) -> &[u64] {
        if std::mem::take(&mut self.threaded) {
            self.releases = self.helper.close();
            for (tree, half) in trees.zip(self.releases.halves.drain(..)) {
                tree.timed_mut().expect("lent by a timed tree").return_release(half);
            }
        }
        &self.releases.dones
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
            let mut msg = self.helper.message();
            let data = msg.stage((tree, arrival), |staged| match op {
                Op::Managed { block, position, mutate } => {
                    timed.stage_managed(staged, block, Some(position), mutate).map(Some)
                }
                Op::Dummy => timed.stage_dummy(staged).map(|()| None),
            });
            // Sent even when the access failed, so that its hooks follow the
            // releases of the accesses before it.
            self.helper.send(msg);
            data?
        } else {
            let start = self.chain_done(arrival);
            let reply = match op {
                Op::Managed { block, position, mutate } => {
                    backend.access_managed(start, block, Some(position), mutate)?
                }
                Op::Dummy => backend.dummy_access(start)?,
            };
            self.releases.last_done = reply.done;
            self.releases.dones.push(reply.done);
            reply.data
        };
        self.accesses += 1;
        Ok(data)
    }

    /// Inline, when a chain whose next access would arrive per `arrival` is
    /// done: the cycle it started at, or its last access's `done`.
    pub(crate) fn chain_done(&self, arrival: Arrival) -> u64 {
        debug_assert!(!self.threaded, "a threaded chain's dones are on the helper");
        arrival.cycle(self.releases.last_done)
    }

    /// The lane's hand-off counters.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> LaneCounts {
        LaneCounts { lane: self.helper.counts(), threaded_batches: self.threaded_batches }
    }
}

#[cfg(test)]
mod tests;
