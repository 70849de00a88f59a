//! Memory-system statistics: row-buffer behaviour, bandwidth, per-tag
//! traffic (the inputs to Fig. 8c's breakdown and Fig. 9's bandwidth plot).

use crate::channel::{MemOpKind, Priority};

/// What a request found in the row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowBufferOutcome {
    /// Target row already open.
    Hit,
    /// Bank idle/closed: activate only.
    Miss,
    /// Different row open: precharge + activate.
    Conflict,
}

/// Aggregated counters for a [`crate::MemorySystem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryStats {
    reads: u64,
    writes: u64,
    online: u64,
    offline: u64,
    hits: u64,
    misses: u64,
    conflicts: u64,
    /// Data-bus busy cycles attributed to each opaque tag value.
    bus_cycles_by_tag: Vec<u64>,
    /// Requests per tag.
    requests_by_tag: Vec<u64>,
    last_completion: u64,
    /// Requests delayed by an injected channel-stall fault.
    stall_events: u64,
    /// Cycles requests spent pushed past injected stall windows.
    stall_cycles: u64,
    /// Requests serviced per channel (index = channel id).
    requests_by_channel: Vec<u64>,
    /// Data-bus busy cycles per channel (index = channel id).
    bus_cycles_by_channel: Vec<u64>,
    /// Requests serviced per bank (index = global bank id,
    /// `channel × banks_per_channel + bank`).
    requests_by_bank: Vec<u64>,
    banks_per_channel: usize,
}

impl MemoryStats {
    /// Creates counters able to attribute traffic to tags `0..tags`, over a
    /// geometry of `channels` channels of `banks_per_channel` banks each. The
    /// per-channel and per-bank tables are sized here, once, so an idle
    /// channel or bank reads zero rather than being absent.
    pub fn new(tags: usize, channels: usize, banks_per_channel: usize) -> Self {
        MemoryStats {
            reads: 0,
            writes: 0,
            online: 0,
            offline: 0,
            hits: 0,
            misses: 0,
            conflicts: 0,
            bus_cycles_by_tag: vec![0; tags],
            requests_by_tag: vec![0; tags],
            last_completion: 0,
            stall_events: 0,
            stall_cycles: 0,
            requests_by_channel: vec![0; channels],
            bus_cycles_by_channel: vec![0; channels],
            requests_by_bank: vec![0; channels * banks_per_channel],
            banks_per_channel,
        }
    }

    pub(crate) fn record_stall(&mut self, delay_cycles: u64) {
        self.stall_events += 1;
        self.stall_cycles += delay_cycles;
        aboram_telemetry::counter_add("dram.stall_events", 1);
        aboram_telemetry::counter_add("dram.stall_cycles", delay_cycles);
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn record(
        &mut self,
        kind: MemOpKind,
        priority: Priority,
        tag: u32,
        outcome: RowBufferOutcome,
        burst_cycles: u64,
        completion: u64,
        channel: u8,
        bank: u16,
    ) {
        match kind {
            MemOpKind::Read => self.reads += 1,
            MemOpKind::Write => self.writes += 1,
        }
        match priority {
            Priority::Online => self.online += 1,
            Priority::Offline => self.offline += 1,
        }
        match outcome {
            RowBufferOutcome::Hit => self.hits += 1,
            RowBufferOutcome::Miss => self.misses += 1,
            RowBufferOutcome::Conflict => {
                self.conflicts += 1;
                aboram_telemetry::counter_add("dram.bank_conflicts", 1);
            }
        }
        let t = tag as usize;
        if t < self.bus_cycles_by_tag.len() {
            self.bus_cycles_by_tag[t] += burst_cycles;
            self.requests_by_tag[t] += 1;
        }
        let channel = usize::from(channel);
        self.requests_by_channel[channel] += 1;
        self.bus_cycles_by_channel[channel] += burst_cycles;
        self.requests_by_bank[channel * self.banks_per_channel + usize::from(bank)] += 1;
        self.last_completion = self.last_completion.max(completion);
    }

    /// Merges counters from another instance (used to sum channels).
    ///
    /// # Panics
    ///
    /// "one geometry" — the two instances were created for different channel
    /// or bank counts, so their per-channel and per-bank tables do not align.
    pub fn merge(&mut self, other: &MemoryStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.online += other.online;
        self.offline += other.offline;
        self.hits += other.hits;
        self.misses += other.misses;
        self.conflicts += other.conflicts;
        for (a, b) in self.bus_cycles_by_tag.iter_mut().zip(&other.bus_cycles_by_tag) {
            *a += b;
        }
        for (a, b) in self.requests_by_tag.iter_mut().zip(&other.requests_by_tag) {
            *a += b;
        }
        self.last_completion = self.last_completion.max(other.last_completion);
        self.stall_events += other.stall_events;
        self.stall_cycles += other.stall_cycles;
        assert_eq!(
            (self.requests_by_channel.len(), self.banks_per_channel),
            (other.requests_by_channel.len(), other.banks_per_channel),
            "merged statistics must cover one geometry"
        );
        for (a, b) in self.requests_by_channel.iter_mut().zip(&other.requests_by_channel) {
            *a += b;
        }
        for (a, b) in self.bus_cycles_by_channel.iter_mut().zip(&other.bus_cycles_by_channel) {
            *a += b;
        }
        for (a, b) in self.requests_by_bank.iter_mut().zip(&other.requests_by_bank) {
            *a += b;
        }
    }

    /// Total requests serviced.
    pub fn total_requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Serviced read count.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Serviced write count.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Serviced requests in the given priority class.
    pub fn by_priority(&self, p: Priority) -> u64 {
        match p {
            Priority::Online => self.online,
            Priority::Offline => self.offline,
        }
    }

    /// Count of the given row-buffer outcome.
    pub fn row_outcomes(&self, o: RowBufferOutcome) -> u64 {
        match o {
            RowBufferOutcome::Hit => self.hits,
            RowBufferOutcome::Miss => self.misses,
            RowBufferOutcome::Conflict => self.conflicts,
        }
    }

    /// Row-buffer hit rate over all serviced requests.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.total_requests();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Data-bus busy cycles attributed to `tag`.
    pub fn bus_cycles_for_tag(&self, tag: u32) -> u64 {
        self.bus_cycles_by_tag.get(tag as usize).copied().unwrap_or(0)
    }

    /// Requests attributed to `tag`.
    pub fn requests_for_tag(&self, tag: u32) -> u64 {
        self.requests_by_tag.get(tag as usize).copied().unwrap_or(0)
    }

    /// Total bytes moved (64 B per request).
    pub fn bytes_transferred(&self) -> u64 {
        self.total_requests() * 64
    }

    /// Completion cycle of the last request serviced.
    pub fn last_completion(&self) -> u64 {
        self.last_completion
    }

    /// Requests serviced per channel, indexed by channel id: one entry per
    /// channel of the geometry, zero for a channel that serviced nothing.
    pub fn requests_by_channel(&self) -> &[u64] {
        &self.requests_by_channel
    }

    /// Data-bus busy cycles per channel, indexed by channel id.
    pub fn bus_cycles_by_channel(&self) -> &[u64] {
        &self.bus_cycles_by_channel
    }

    /// Requests serviced per bank, indexed by the global bank id
    /// `channel × banks_per_channel + bank` (`bank` as in
    /// [`crate::DecodedAddr::bank`]): one entry per bank of the geometry.
    pub fn requests_by_bank(&self) -> &[u64] {
        &self.requests_by_bank
    }

    /// Requests that were delayed by an injected channel-stall fault.
    pub fn stall_events(&self) -> u64 {
        self.stall_events
    }

    /// Total cycles requests were pushed back by injected stall windows.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Achieved bandwidth in bytes per cycle over `elapsed_cycles`.
    pub fn bandwidth(&self, elapsed_cycles: u64) -> f64 {
        if elapsed_cycles == 0 {
            0.0
        } else {
            self.bytes_transferred() as f64 / elapsed_cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = MemoryStats::new(4, 2, 4);
        s.record(MemOpKind::Read, Priority::Online, 1, RowBufferOutcome::Hit, 16, 100, 0, 2);
        s.record(MemOpKind::Write, Priority::Offline, 1, RowBufferOutcome::Conflict, 16, 250, 1, 2);
        assert_eq!(s.total_requests(), 2);
        assert_eq!(s.reads(), 1);
        assert_eq!(s.writes(), 1);
        assert_eq!(s.by_priority(Priority::Online), 1);
        assert_eq!(s.row_outcomes(RowBufferOutcome::Hit), 1);
        assert_eq!(s.bus_cycles_for_tag(1), 32);
        assert_eq!(s.requests_for_tag(1), 2);
        assert_eq!(s.bytes_transferred(), 128);
        assert_eq!(s.last_completion(), 250);
        assert_eq!(s.row_hit_rate(), 0.5);
        assert_eq!(
            (s.requests_by_channel(), s.bus_cycles_by_channel()),
            (&[1, 1][..], &[16, 16][..])
        );
        // Bank 2 of channel 0 and bank 2 of channel 1 are different banks.
        assert_eq!(s.requests_by_bank(), [0, 0, 1, 0, 0, 0, 1, 0]);
    }

    #[test]
    fn out_of_range_tag_is_ignored_not_panicking() {
        let mut s = MemoryStats::new(1, 1, 1);
        s.record(MemOpKind::Read, Priority::Online, 9, RowBufferOutcome::Miss, 16, 10, 0, 0);
        assert_eq!(s.bus_cycles_for_tag(9), 0);
        assert_eq!(s.total_requests(), 1);
    }

    #[test]
    fn merge_sums() {
        let mut a = MemoryStats::new(2, 4, 8);
        let mut b = MemoryStats::new(2, 4, 8);
        a.record(MemOpKind::Read, Priority::Online, 0, RowBufferOutcome::Hit, 16, 50, 0, 0);
        b.record(MemOpKind::Read, Priority::Online, 0, RowBufferOutcome::Hit, 16, 80, 3, 7);
        a.merge(&b);
        assert_eq!(a.total_requests(), 2);
        assert_eq!(a.bus_cycles_for_tag(0), 32);
        assert_eq!(a.last_completion(), 80);
        assert_eq!(a.requests_by_channel(), [1, 0, 0, 1]);
        assert_eq!((a.requests_by_bank()[0], a.requests_by_bank()[3 * 8 + 7]), (1, 1));
    }

    #[test]
    #[should_panic(expected = "one geometry")]
    fn merging_across_geometries_is_refused() {
        MemoryStats::new(2, 4, 8).merge(&MemoryStats::new(2, 4, 16));
    }

    #[test]
    fn bandwidth_math() {
        let mut s = MemoryStats::new(1, 1, 1);
        for _ in 0..10 {
            s.record(MemOpKind::Read, Priority::Online, 0, RowBufferOutcome::Hit, 16, 160, 0, 0);
        }
        assert!((s.bandwidth(160) - 4.0).abs() < 1e-12);
        assert_eq!(s.bandwidth(0), 0.0);
    }
}
