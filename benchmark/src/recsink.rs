//! A recording [`MemorySink`] and its replay into a bare [`MemorySystem`].
//!
//! The ladder's DRAM rung needs the engine's request stream without the
//! engine: the engine runs once over this sink, then the recorded stream is
//! replayed so the DRAM twin's host cost is timed alone.

use aboram_core::{MemorySink, OramOp};
use aboram_dram::{MemOpKind, MemorySystem, Priority, RequestId};
use aboram_tree::SlotAddr;

/// One sink call: `len` consecutive entries of `RecordingSink::addrs`.
#[derive(Debug, Clone, Copy)]
struct Call {
    kind: MemOpKind,
    tag: u32,
    online: bool,
    len: u32,
}

/// Records every request the engine emits, batch structure and access
/// boundaries included.
#[derive(Debug, Default)]
pub struct RecordingSink {
    addrs: Vec<u64>,
    calls: Vec<Call>,
    /// `calls.len()` at the end of each access.
    access_ends: Vec<usize>,
}

impl RecordingSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the end of one engine access.
    pub fn end_access(&mut self) {
        self.access_ends.push(self.calls.len());
    }

    /// Requests recorded so far.
    pub fn requests(&self) -> u64 {
        self.addrs.len() as u64
    }

    /// Forgets the recorded stream, keeping the allocations.
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.calls.clear();
        self.access_ends.clear();
    }

    fn push(&mut self, kind: MemOpKind, addrs: &[SlotAddr], op: OramOp, online: bool) {
        self.addrs.extend(addrs.iter().map(|a| a.byte()));
        self.calls.push(Call { kind, tag: op.tag(), online, len: addrs.len() as u32 });
    }

    /// Replays the stream the way the serialized controller issues it: each
    /// access's calls are enqueued as batches at `now`, every queue is
    /// drained, and the clock moves to the latest completion. Returns the
    /// number of requests enqueued. With `online_reads`, also collects each
    /// access's online-read ids.
    pub fn replay(
        &self,
        mem: &mut MemorySystem,
        now: &mut u64,
        mut online_reads: Option<&mut Vec<Vec<RequestId>>>,
    ) -> u64 {
        let mut enqueued = 0u64;
        let mut next_addr = 0usize;
        let mut first_call = 0usize;
        for &end in &self.access_ends {
            let mut online = online_reads.as_ref().map(|_| Vec::new());
            for call in &self.calls[first_call..end] {
                let addrs = &self.addrs[next_addr..next_addr + call.len as usize];
                next_addr += addrs.len();
                let priority = if call.online { Priority::Online } else { Priority::Offline };
                let ids =
                    mem.enqueue_batch(call.kind, addrs.iter().copied(), priority, call.tag, *now);
                enqueued += ids.len() as u64;
                if let (Some(online), true) = (&mut online, call.online) {
                    if call.kind == MemOpKind::Read {
                        online.extend(ids.clone());
                    }
                }
            }
            mem.drain();
            *now = (*now).max(mem.stats().last_completion());
            if let (Some(all), Some(online)) = (&mut online_reads, online) {
                all.push(online);
            }
            first_call = end;
        }
        enqueued
    }
}

impl MemorySink for RecordingSink {
    fn read(&mut self, addr: SlotAddr, op: OramOp, online: bool) {
        self.push(MemOpKind::Read, &[addr], op, online);
    }

    fn write(&mut self, addr: SlotAddr, op: OramOp, online: bool) {
        self.push(MemOpKind::Write, &[addr], op, online);
    }

    fn read_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        self.push(MemOpKind::Read, addrs, op, online);
    }

    fn write_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        self.push(MemOpKind::Write, addrs, op, online);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aboram_core::{AccessKind, CountingSink, OramConfig, RingOram, Scheme};
    use aboram_dram::DramConfig;

    #[test]
    fn records_what_a_counting_sink_counts_and_replays_all_of_it() {
        let cfg = OramConfig::builder(10, Scheme::Ab).build().unwrap();
        let mut counted = RingOram::new(&cfg).unwrap();
        let mut recorded = counted.clone();
        let mut counting = CountingSink::new();
        let mut recording = RecordingSink::new();
        let blocks = counted.block_count();
        for i in 0..300u64 {
            let block = (i * 7919) % blocks;
            counted.access(AccessKind::Read, block, None, &mut counting).unwrap();
            recorded.access(AccessKind::Read, block, None, &mut recording).unwrap();
            recording.end_access();
        }
        assert_eq!(recording.requests(), counting.grand_total());

        let mut mem = MemorySystem::new(DramConfig::default());
        let mut now = 0;
        let mut online = Vec::new();
        let enqueued = recording.replay(&mut mem, &mut now, Some(&mut online));
        assert_eq!(enqueued, counting.grand_total());
        assert_eq!(mem.stats().total_requests(), counting.grand_total());
        assert_eq!(mem.stats().by_priority(Priority::Online), counting.online_total());
        assert_eq!(online.len(), 300);
        assert!(now > 0, "the replay clock advanced");

        recording.clear();
        assert_eq!(recording.requests(), 0);
        assert_eq!(recording.replay(&mut mem, &mut now, None), 0);
    }
}
