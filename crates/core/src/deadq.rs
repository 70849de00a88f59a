//! AB-ORAM's per-level DeadQ FIFO queues (§V-B2).

use aboram_tree::{Level, SlotId};
use std::collections::VecDeque;

/// One DeadQ entry: the physical location of a reclaimed dead slot — the
/// paper's `{slotAddr, slotInd}` pair, carried here as a [`SlotId`].
pub type DeadSlot = SlotId;

/// The set of on-chip FIFO queues tracking recently generated dead blocks,
/// one per bottom tree level.
///
/// The queues do not try to capture *all* dead blocks (the paper sizes them
/// at 1000 entries); they only need to supply enough reclaimed slots for the
/// S-extensions performed at evictPath/earlyReshuffle time.
///
/// # Example
///
/// ```
/// use aboram_core::DeadQueues;
/// use aboram_tree::{BucketId, Level, SlotId};
///
/// // Track the bottom 2 levels of a 4-level tree, 8 entries each.
/// let mut q = DeadQueues::new(4, 2, 8);
/// assert!(q.tracks(Level(3)) && q.tracks(Level(2)) && !q.tracks(Level(1)));
/// let slot = SlotId::new(BucketId::from_level_index(Level(3), 5), 2);
/// assert!(q.enqueue(slot));
/// assert_eq!(q.dequeue(Level(3)), Some(slot));
/// assert_eq!(q.dequeue(Level(3)), None);
/// ```
#[derive(Debug, Clone)]
pub struct DeadQueues {
    /// Index 0 corresponds to `first_level`.
    queues: Vec<VecDeque<DeadSlot>>,
    first_level: u8,
    capacity: usize,
    enqueued: u64,
    dequeued: u64,
    rejected_full: u64,
}

impl DeadQueues {
    /// Creates queues for the bottom `tracked_levels` levels of a
    /// `levels`-level tree, each holding up to `capacity` entries.
    pub fn new(levels: u8, tracked_levels: u8, capacity: usize) -> Self {
        let tracked = tracked_levels.min(levels);
        DeadQueues {
            queues: vec![VecDeque::with_capacity(capacity.min(1024)); tracked as usize],
            first_level: levels - tracked,
            capacity,
            enqueued: 0,
            dequeued: 0,
            rejected_full: 0,
        }
    }

    /// Whether `level` has a queue.
    pub fn tracks(&self, level: Level) -> bool {
        level.0 >= self.first_level && (level.0 - self.first_level) < self.queues.len() as u8
    }

    /// Enqueues a dead slot on its level's queue. Returns `false` (and drops
    /// the entry) when the level is untracked or its queue is full — both
    /// are public knowledge, so no information is leaked by the drop (§VI-A).
    pub fn enqueue(&mut self, slot: DeadSlot) -> bool {
        let level = slot.bucket.level();
        if !self.tracks(level) {
            return false;
        }
        let q = &mut self.queues[(level.0 - self.first_level) as usize];
        if q.len() >= self.capacity {
            self.rejected_full += 1;
            return false;
        }
        q.push_back(slot);
        self.enqueued += 1;
        true
    }

    /// Dequeues the oldest dead slot at `level`, if any.
    pub fn dequeue(&mut self, level: Level) -> Option<DeadSlot> {
        if !self.tracks(level) {
            return None;
        }
        let q = &mut self.queues[(level.0 - self.first_level) as usize];
        let slot = q.pop_front();
        if slot.is_some() {
            self.dequeued += 1;
        }
        slot
    }

    /// Iterates the queued entries at `level`, oldest first (empty for
    /// untracked levels) — the invariant checker's view into the queues.
    pub fn entries(&self, level: Level) -> impl Iterator<Item = &DeadSlot> {
        let idx =
            if self.tracks(level) { Some((level.0 - self.first_level) as usize) } else { None };
        idx.into_iter().flat_map(move |i| self.queues[i].iter())
    }

    /// Configured per-level capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue length at `level` (0 for untracked levels).
    pub fn len(&self, level: Level) -> usize {
        if self.tracks(level) {
            self.queues[(level.0 - self.first_level) as usize].len()
        } else {
            0
        }
    }

    /// Whether every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Total entries ever enqueued.
    pub fn total_enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Entries dropped because a queue was full.
    pub fn total_rejected(&self) -> u64 {
        self.rejected_full
    }

    /// Shifts the tracked window down one level for a tree grow
    /// (`levels` → `levels + 1`): the topmost tracked level leaves the
    /// window — its queued entries are dropped, which is public knowledge
    /// exactly like a full-queue drop (§VI-A) — and a fresh empty queue is
    /// appended for the new leaf level.
    pub(crate) fn grow_level(&mut self) {
        self.first_level += 1;
        if !self.queues.is_empty() {
            self.queues.remove(0);
            self.queues.push(VecDeque::with_capacity(self.capacity.min(1024)));
        }
    }

    /// First tracked level (queue index 0) — snapshot serialization.
    pub(crate) fn first_level(&self) -> u8 {
        self.first_level
    }

    /// Number of tracked levels — snapshot serialization.
    pub(crate) fn tracked_levels(&self) -> u8 {
        self.queues.len() as u8
    }

    /// Lifetime counters `(enqueued, dequeued, rejected_full)` — snapshot
    /// serialization.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (self.enqueued, self.dequeued, self.rejected_full)
    }

    /// Overwrites the lifetime counters — snapshot restore.
    pub(crate) fn restore_counters(&mut self, enqueued: u64, dequeued: u64, rejected_full: u64) {
        self.enqueued = enqueued;
        self.dequeued = dequeued;
        self.rejected_full = rejected_full;
    }

    /// Appends an entry to its level's queue without touching the lifetime
    /// counters — snapshot restore replays queue contents with this, then
    /// sets the counters separately via
    /// [`restore_counters`](Self::restore_counters).
    pub(crate) fn push_restored(&mut self, slot: DeadSlot) {
        let level = slot.bucket.level();
        debug_assert!(self.tracks(level), "restored entry on untracked level {level}");
        self.queues[(level.0 - self.first_level) as usize].push_back(slot);
    }

    /// On-chip footprint in bytes, at the paper's entry width: one entry is
    /// a bucket address plus a slot index. §VIII-H sizes 6 levels × 1000
    /// entries at 21 KB, i.e. ~3.5 B per entry packed; we report the same
    /// packed figure.
    pub fn onchip_bytes(&self) -> u64 {
        // log2(N_bucket) + log2(Z) bits ≈ 24 + 4 = 28 bits per entry.
        let bits_per_entry = 28u64;
        self.queues.len() as u64 * self.capacity as u64 * bits_per_entry / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aboram_tree::BucketId;

    fn slot(level: u8, index_in_level: u64, s: u8) -> DeadSlot {
        SlotId::new(BucketId::from_level_index(Level(level), index_in_level), s)
    }

    #[test]
    fn fifo_order_per_level() {
        let mut q = DeadQueues::new(6, 3, 10);
        let a = slot(5, 0, 0);
        let b = slot(5, 1, 1);
        q.enqueue(a);
        q.enqueue(b);
        assert_eq!(q.dequeue(Level(5)), Some(a));
        assert_eq!(q.dequeue(Level(5)), Some(b));
    }

    #[test]
    fn untracked_levels_rejected() {
        let mut q = DeadQueues::new(6, 2, 10);
        assert!(!q.tracks(Level(3)));
        assert!(!q.enqueue(slot(3, 0, 0)));
        assert_eq!(q.dequeue(Level(3)), None);
        assert_eq!(q.len(Level(3)), 0);
    }

    #[test]
    fn capacity_bound_drops_and_counts() {
        let mut q = DeadQueues::new(6, 1, 2);
        assert!(q.enqueue(slot(5, 0, 0)));
        assert!(q.enqueue(slot(5, 1, 0)));
        assert!(!q.enqueue(slot(5, 2, 0)));
        assert_eq!(q.total_rejected(), 1);
        assert_eq!(q.len(Level(5)), 2);
    }

    #[test]
    fn levels_are_independent() {
        let mut q = DeadQueues::new(8, 3, 10);
        q.enqueue(slot(7, 0, 0));
        q.enqueue(slot(6, 0, 0));
        assert_eq!(q.len(Level(7)), 1);
        assert_eq!(q.len(Level(6)), 1);
        assert_eq!(q.len(Level(5)), 0);
        assert!(q.dequeue(Level(5)).is_none());
        assert!(!q.is_empty());
    }

    #[test]
    fn grow_shifts_the_tracked_window() {
        let mut q = DeadQueues::new(6, 3, 10);
        q.enqueue(slot(3, 0, 0)); // first tracked level
        q.enqueue(slot(5, 0, 0)); // leaf
        q.grow_level();
        assert!(!q.tracks(Level(3)), "topmost tracked level left the window");
        assert!(q.tracks(Level(6)), "new leaf level is tracked");
        assert_eq!(q.len(Level(3)), 0);
        assert_eq!(q.len(Level(5)), 1, "surviving level keeps its entries");
        assert_eq!(q.len(Level(6)), 0);
        assert_eq!(q.total_enqueued(), 2, "lifetime counters untouched");
    }

    #[test]
    fn onchip_budget_matches_paper() {
        // §VIII-H: 6 levels × 1000 entries ≈ 21 KB on chip.
        let q = DeadQueues::new(24, 6, 1000);
        let kb = q.onchip_bytes() as f64 / 1024.0;
        assert!((kb - 20.5).abs() < 1.0, "DeadQ footprint {kb:.1} KB");
    }
}
