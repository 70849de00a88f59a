//! The timing lane: the one executor that releases staged accesses on a
//! second thread.
//!
//! Every timed access is one stage half — the engine's protocol work,
//! committed by the [`Stager`](crate::Stager) into a [`StagedBatch`] — and
//! one release half — the access controller's gates, DRAM twin and crypto
//! model, which fix its cycles. No stage half reads a cycle, so the halves
//! can run apart. A lane runs them apart: the caller stages accesses into
//! [`Message`]s on its own thread and [`send`](Lane::send)s each; a helper
//! thread the lane spawns on first use, and joins when it drops, releases
//! them under the caller's *release rule* ([`Release`]) and hands each
//! message back, spent, for reuse. A run [`open`](Lane::open)s by lending
//! the rule — the state the releases need, such as the controller — to the
//! helper, and [`close`](Lane::close)s by waiting for it back.
//!
//! Two callers share this executor and differ only in the rule: the trace
//! driver's releases an access at the cycle its ROB core issues the miss,
//! the store's when the previous access of its request's chain is done.
//! How many accesses a message holds and how many may be out at once is the
//! caller's choice: the driver sends 32 records a message with two out, the
//! store one access a message with no bound.
//!
//! **Telemetry crosses with the message.** The hooks staging fires are
//! captured into the message (record marks included). The helper, capturing
//! into the same message, replays access *i*'s stage hooks and then fires
//! its release hooks; a spent message's hooks are replayed on the calling
//! thread when it comes back. Messages come back in the order they were
//! sent, so a collector there sees one thread's order: access *i*'s stage
//! hooks, its release hooks, then access *i + 1*'s — the order an inline
//! release gives. The hooks of an access that failed to stage come last.
//!
//! **Waits poll, then block.** The two threads hand off every few
//! microseconds, and waking a blocked thread costs tens of them on a
//! virtual machine whose idle CPU has halted, so a receiver polls for up to
//! [`POLL`], yielding between polls — on one core the other thread runs
//! meanwhile — before it blocks.

use crate::sink::{StagedAccess, StagedBatch};
use aboram_telemetry::Captured;
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A lane's release rule: the state its helper releases accesses into, lent
/// for a run, and what it does with each staged access.
pub trait Release: Send + 'static {
    /// What the stage side records about each access for its release.
    type Job: Send + 'static;

    /// Releases `access`, which was staged for `job`.
    fn release(&mut self, job: &Self::Job, access: StagedAccess<'_>);
}

/// Staged accesses on their way to the helper: each one's job and, while a
/// collector is installed on the staging thread, the hooks staging fired.
/// Emptied, never shrunk, by its release, so a warm lane's messages allocate
/// nothing.
#[derive(Debug)]
pub struct Message<J> {
    staged: StagedBatch,
    jobs: Vec<J>,
    hooks: Option<Captured>,
}

impl<J> Default for Message<J> {
    fn default() -> Self {
        Message { staged: StagedBatch::default(), jobs: Vec::new(), hooks: None }
    }
}

impl<J> Message<J> {
    /// Accesses staged into the message.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no access is staged into the message.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs `stage` — one access's stage half, committing the access to the
    /// batch it is given — with its hooks captured into the message, and
    /// records `job` for the access when it succeeds. An access that fails
    /// is not committed, but its hooks stay: they replay after the
    /// releases of the accesses before it.
    pub fn stage<T, E>(
        &mut self,
        job: J,
        stage: impl FnOnce(&mut StagedBatch) -> Result<T, E>,
    ) -> Result<T, E> {
        let result = aboram_telemetry::capture(self.hooks.as_mut(), || stage(&mut self.staged));
        if result.is_ok() {
            self.jobs.push(job);
        }
        debug_assert_eq!(self.staged.len(), self.jobs.len(), "one committed access per stage");
        result
    }

    /// Releases every access under `rule`, in stage order, and empties the
    /// message. With hooks, access *i*'s stage hooks replay, into the
    /// message, just before its release fires its own there.
    pub(crate) fn release<R: Release<Job = J>>(&mut self, rule: &mut R) {
        let Message { staged, jobs, hooks } = self;
        let mut stage_hooks = hooks.as_mut().map(std::mem::take);
        aboram_telemetry::capture(hooks.as_mut(), || {
            for (i, job) in jobs.iter().enumerate() {
                if let Some(stage_hooks) = &mut stage_hooks {
                    stage_hooks.replay_record();
                }
                rule.release(job, staged.get(i));
            }
            if let Some(stage_hooks) = &mut stage_hooks {
                stage_hooks.replay();
            }
        });
        staged.clear();
        jobs.clear();
    }

    /// Replays, on this thread, the hooks the message carried back.
    fn replay(&mut self) {
        if let Some(hooks) = &mut self.hooks {
            hooks.replay();
        }
    }
}

/// Most messages a lane makes. Every message is either with the caller, on
/// its way to the helper or back, or spare, so the channels below never
/// fill; past it, [`Lane::message`] waits for a spent one. The driver keeps
/// two out; a store batch stages a chain of a few accesses per slot and
/// takes spent messages back as it stages.
const MESSAGES: usize = 64;

/// How long a receiver polls before it blocks (see the module docs).
const POLL: Duration = Duration::from_micros(100);

/// Receives from `rx`: polls for up to [`POLL`], yielding the CPU between
/// polls, then blocks.
fn recv<T>(rx: &Receiver<T>) -> Result<T, mpsc::RecvError> {
    let started = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(TryRecvError::Empty) if started.elapsed() < POLL => std::thread::yield_now(),
            Err(TryRecvError::Empty) => return rx.recv(),
            Err(TryRecvError::Disconnected) => return Err(mpsc::RecvError),
        }
    }
}

const PANICKED: &str = "the timing lane's helper panicked";

/// What the helper is sent. The rule travels boxed, so that a channel slot
/// is the size of a message, not of the largest rule.
enum ToHelper<R: Release> {
    Open(Box<R>),
    Release(Message<R::Job>),
    Close,
}

/// The helper thread and its channels. They are bounded, so their buffers
/// are allocated once, at the spawn, and never fill (see [`MESSAGES`]).
struct Helper<R: Release> {
    to: SyncSender<ToHelper<R>>,
    /// The rule, back at each close.
    closed: Receiver<Box<R>>,
    /// Each released message, emptied for reuse.
    spent: Receiver<Message<R::Job>>,
    thread: JoinHandle<()>,
}

/// The helper's loop: releases each message under the open run's rule,
/// hands it back spent, and hands the rule back at close. Ends when the
/// lane hangs up.
fn serve<R: Release>(
    closed: SyncSender<Box<R>>,
    spent: SyncSender<Message<R::Job>>,
    from: Receiver<ToHelper<R>>,
) {
    let mut rule = None;
    while let Ok(msg) = recv(&from) {
        let sent = match msg {
            ToHelper::Open(open) => {
                rule = Some(open);
                Ok(())
            }
            ToHelper::Release(mut msg) => {
                msg.release(&mut **rule.as_mut().expect("a run is open"));
                spent.send(msg).map_err(drop)
            }
            ToHelper::Close => closed.send(rule.take().expect("a run is open")).map_err(drop),
        };
        if sent.is_err() {
            break;
        }
    }
}

/// What a lane's hand-offs have cost.
#[derive(Debug, Clone, Default)]
pub struct LaneCounts {
    /// Helper threads spawned.
    pub spawns: usize,
    /// Times the calling thread waited on the helper: each
    /// [`close`](Lane::close) and [`spent`](Lane::spent).
    pub waits: usize,
    /// Dropped once the helper thread's closure has ended.
    pub helper_alive: Weak<()>,
}

/// See the module docs.
pub struct Lane<R: Release> {
    helper: Option<Helper<R>>,
    /// Emptied messages to stage into.
    spare: Vec<Message<R::Job>>,
    /// Messages made so far.
    messages: usize,
    /// Messages sent and not yet handed back.
    out: usize,
    counts: LaneCounts,
}

impl<R: Release> Default for Lane<R> {
    fn default() -> Self {
        let counts = LaneCounts::default();
        Lane { helper: None, spare: Vec::new(), messages: 0, out: 0, counts }
    }
}

impl<R: Release> std::fmt::Debug for Lane<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("helper", &self.helper.is_some())
            .field("messages", &self.messages)
            .finish_non_exhaustive()
    }
}

impl<R: Release> Lane<R> {
    /// Opens a run: lends `rule` to the helper, spawning it on first use.
    /// Until [`close`](Self::close) every message sent is released under it.
    pub fn open(&mut self, rule: R) {
        self.send_to_helper(ToHelper::Open(Box::new(rule)));
    }

    /// An empty message to stage into: one the helper has handed back, else
    /// a spare one, else a new one — or, once the lane has made 64, the next
    /// one the helper hands back. It carries hooks exactly when telemetry is
    /// on on this thread.
    pub fn message(&mut self) -> Message<R::Job> {
        let mut msg = match self.helper.as_ref().and_then(|helper| helper.spent.try_recv().ok()) {
            Some(mut spent) => {
                self.out -= 1;
                spent.replay();
                spent
            }
            None => match self.spare.pop() {
                Some(spare) => spare,
                None if self.messages < MESSAGES => {
                    self.messages += 1;
                    Message::default()
                }
                None => self.spent(),
            },
        };
        if aboram_telemetry::enabled() {
            msg.hooks.get_or_insert_with(Captured::default);
        } else {
            msg.hooks = None;
        }
        msg
    }

    /// Waits for the helper to hand back the oldest message still out,
    /// spent, and replays its hooks here. Only while a message is out.
    pub fn spent(&mut self) -> Message<R::Job> {
        self.counts.waits += 1;
        self.out -= 1;
        let helper = self.helper.as_ref().expect("a message is out");
        let mut msg = recv(&helper.spent).expect(PANICKED);
        msg.replay();
        msg
    }

    /// Hands `msg` to the helper to release.
    pub fn send(&mut self, msg: Message<R::Job>) {
        self.out += 1;
        self.send_to_helper(ToHelper::Release(msg));
    }

    /// Messages sent and not yet handed back.
    pub fn out(&self) -> usize {
        self.out
    }

    /// Closes the run: waits for the helper to release every message sent
    /// and hand the rule back, replays here the hooks of every message
    /// still out, in order, and returns the rule.
    ///
    /// # Panics
    ///
    /// Panics if the helper panicked.
    pub fn close(&mut self) -> R {
        self.send_to_helper(ToHelper::Close);
        self.counts.waits += 1;
        let helper = self.helper.as_ref().expect("a run is open");
        let rule = recv(&helper.closed).expect(PANICKED);
        for mut msg in helper.spent.try_iter() {
            msg.replay();
            self.spare.push(msg);
        }
        self.out = 0;
        *rule
    }

    /// The lane's hand-off counters.
    pub fn counts(&self) -> LaneCounts {
        self.counts.clone()
    }

    fn send_to_helper(&mut self, msg: ToHelper<R>) {
        let counts = &mut self.counts;
        let helper = self.helper.get_or_insert_with(|| {
            // Open, every message, close.
            let (to, from) = mpsc::sync_channel(MESSAGES + 2);
            let (to_closed, closed) = mpsc::sync_channel(1);
            let (to_spent, spent) = mpsc::sync_channel(MESSAGES);
            let alive = Arc::new(());
            counts.spawns += 1;
            counts.helper_alive = Arc::downgrade(&alive);
            let thread = std::thread::Builder::new()
                .name("timing-lane".into())
                .spawn(move || {
                    let _alive = alive;
                    serve(to_closed, to_spent, from);
                })
                .expect("spawn the timing lane's helper");
            Helper { to, closed, spent, thread }
        });
        helper.to.send(msg).unwrap_or_else(|_| panic!("{PANICKED}"));
    }
}

impl<R: Release> Drop for Lane<R> {
    /// Hangs up on the helper and joins it: no helper outlives its lane.
    fn drop(&mut self) {
        if let Some(Helper { to, closed, spent, thread }) = self.helper.take() {
            drop((to, closed, spent));
            // A helper that panicked already failed the run it served.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{MemorySink, OramOp, Stager};
    use aboram_dram::DramConfig;
    use aboram_tree::SlotAddr;

    /// A rule that counts its releases, the first of which waits for `go`.
    struct Gated {
        go: Option<Receiver<()>>,
        released: usize,
    }

    impl Release for Gated {
        type Job = ();

        fn release(&mut self, _: &(), _: StagedAccess<'_>) {
            if let Some(go) = self.go.take() {
                go.recv().expect("the test sends the go-ahead");
            }
            self.released += 1;
        }
    }

    #[test]
    fn past_its_messages_a_lane_waits_for_a_spent_one() {
        let (go, gate) = mpsc::channel();
        let mut lane = Lane::default();
        lane.open(Gated { go: Some(gate), released: 0 });
        let mut stager = Stager::new(DramConfig::default());
        for _ in 0..MESSAGES {
            let mut msg = lane.message();
            msg.stage((), |staged| {
                std::mem::swap(stager.batch_mut(), staged);
                stager.read(SlotAddr(0), OramOp::ReadPath, true);
                let committed = stager.end_access(Ok::<(), ()>(()));
                std::mem::swap(stager.batch_mut(), staged);
                committed
            })
            .unwrap();
            lane.send(msg);
        }
        // The helper holds the first release, so no message has come back:
        // the next one is the first to come back once it goes ahead.
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            go.send(()).unwrap();
        });
        let msg = lane.message();
        assert!(msg.is_empty());
        assert_eq!((lane.messages, lane.counts.waits), (MESSAGES, 1));
        opener.join().unwrap();
        lane.send(msg);
        assert_eq!(lane.close().released, MESSAGES);
    }
}
