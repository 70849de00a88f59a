//! Trace-driven processor front end: the USIMM core model of Table III
//! (fetch width 4, 256-entry ROB, non-blocking writes).

use std::collections::VecDeque;

/// A reorder-buffer-limited trace CPU.
///
/// The model replays a memory trace: between misses the core fetches the
/// recorded instruction gap at `fetch_width` instructions per cycle; demand
/// reads occupy the ROB until their data returns, so the core may run at
/// most `rob_entries` instructions ahead of the oldest outstanding read.
/// Writes retire through a write buffer and never block.
///
/// # Example
///
/// ```
/// use aboram_dram::RobCpu;
///
/// let mut cpu = RobCpu::new(4, 256);
/// let issue = cpu.issue_op(400);           // 401 instructions at 4/cycle
/// assert_eq!(issue, 100);
/// cpu.complete_read_at(5_000);             // that op was a 5000-cycle read
/// let next = cpu.issue_op(400);            // gap exceeds ROB: core stalls
/// assert!(next > 5_000);
/// ```
#[derive(Debug, Clone)]
pub struct RobCpu {
    fetch_width: u64,
    rob_entries: u64,
    /// Current cycle of the fetch stage.
    cycle: u64,
    /// Instructions fetched so far.
    fetched: u64,
    /// Sub-cycle instruction remainder (instructions not yet charged a cycle).
    carry: u64,
    /// Outstanding reads: (instruction index, completion cycle).
    inflight: VecDeque<(u64, u64)>,
    /// Completion cycle of the most recently finished read.
    last_read_done: u64,
}

impl RobCpu {
    /// Creates a core with the given fetch width and ROB capacity.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(fetch_width: u32, rob_entries: u32) -> Self {
        assert!(fetch_width > 0 && rob_entries > 0);
        RobCpu {
            fetch_width: u64::from(fetch_width),
            rob_entries: u64::from(rob_entries),
            cycle: 0,
            fetched: 0,
            carry: 0,
            inflight: VecDeque::new(),
            last_read_done: 0,
        }
    }

    /// The fetch stage's current cycle.
    pub fn now(&self) -> u64 {
        self.cycle
    }

    /// Fetches `gap` non-memory instructions plus the memory operation
    /// itself and returns the cycle at which the memory op issues.
    ///
    /// If fetching would move more than the ROB capacity past an outstanding
    /// read, the core stalls until that read completes.
    pub fn issue_op(&mut self, gap: u32) -> u64 {
        let mut remaining = u64::from(gap) + 1;
        while remaining > 0 {
            // How far may we fetch before the ROB fills against the oldest read?
            let limit = match self.inflight.front() {
                Some(&(inst, _)) => (inst + self.rob_entries).saturating_sub(self.fetched),
                None => remaining,
            };
            if limit == 0 {
                // Stall: wait for the oldest read, then retire it.
                let (_, done) = self.inflight.pop_front().expect("front checked");
                self.cycle = self.cycle.max(done);
                self.retire_completed();
                continue;
            }
            let step = remaining.min(limit);
            self.fetched += step;
            self.carry += step;
            self.cycle += self.carry / self.fetch_width;
            self.carry %= self.fetch_width;
            remaining -= step;
            self.retire_completed();
        }
        self.cycle
    }

    /// Declares that the op issued by the previous [`issue_op`](Self::issue_op)
    /// call is a demand read completing at `cycle`.
    pub fn complete_read_at(&mut self, cycle: u64) {
        self.inflight.push_back((self.fetched, cycle));
        self.last_read_done = self.last_read_done.max(cycle);
    }

    /// Drains the ROB: returns the cycle at which every fetched instruction
    /// has retired (end-of-run execution time).
    pub fn finish(&mut self) -> u64 {
        while let Some((_, done)) = self.inflight.pop_front() {
            self.cycle = self.cycle.max(done);
        }
        self.cycle
    }

    /// Drops reads that completed at or before the current cycle.
    fn retire_completed(&mut self) {
        while matches!(self.inflight.front(), Some(&(_, done)) if done <= self.cycle) {
            self.inflight.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_rate_is_width_per_cycle() {
        let mut cpu = RobCpu::new(4, 256);
        assert_eq!(cpu.issue_op(399), 100); // 400 instructions / 4
        assert_eq!(cpu.issue_op(399), 200);
    }

    #[test]
    fn outstanding_read_blocks_past_rob() {
        let mut cpu = RobCpu::new(4, 256);
        cpu.issue_op(0);
        cpu.complete_read_at(10_000);
        // 255 more instructions fit in the ROB...
        let t = cpu.issue_op(254);
        assert!(t < 10_000);
        // ...but the next fetch must wait for the read.
        let t = cpu.issue_op(100);
        assert!(t >= 10_000);
    }

    #[test]
    fn short_read_does_not_stall() {
        let mut cpu = RobCpu::new(4, 256);
        cpu.issue_op(0);
        cpu.complete_read_at(1); // returns immediately
        let t = cpu.issue_op(1023);
        assert_eq!(t, 256);
    }

    #[test]
    fn serialized_long_reads_dominate_runtime() {
        // With ORAM-scale latencies the runtime approaches reads * latency.
        let mut cpu = RobCpu::new(4, 256);
        let latency = 5_000u64;
        let mut done = 0;
        for _ in 0..10 {
            let issue = cpu.issue_op(100);
            done = issue.max(done) + latency;
            cpu.complete_read_at(done);
        }
        let end = cpu.finish();
        assert!(end >= 10 * latency, "end = {end}");
    }

    #[test]
    fn writes_never_block() {
        let mut cpu = RobCpu::new(4, 8);
        // Issue many ops without registering reads: pure writes.
        let mut last = 0;
        for _ in 0..100 {
            last = cpu.issue_op(3);
        }
        assert_eq!(last, 100);
    }

    #[test]
    fn finish_waits_for_all_reads() {
        let mut cpu = RobCpu::new(4, 256);
        cpu.issue_op(0);
        cpu.complete_read_at(42_000);
        assert_eq!(cpu.finish(), 42_000);
    }

    #[test]
    #[should_panic]
    fn zero_width_rejected() {
        let _ = RobCpu::new(0, 256);
    }
}
