//! DRAM organization and timing configuration.

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagePolicy {
    /// Leave rows open after an access (default; rewards locality, the
    /// policy USIMM models and the one AB-ORAM's remote-allocation
    /// overhead discussion assumes).
    Open,
    /// Auto-precharge after every access: every request pays activate +
    /// CAS, none pay conflicts. Useful as a locality-sensitivity ablation.
    Closed,
}

/// DDR timing parameters, in memory-bus cycles.
///
/// Defaults are DDR3-1600 (800 MHz bus, Table III) values for a 2 Gb part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// ACT-to-RD/WR delay.
    pub t_rcd: u64,
    /// PRE-to-ACT delay.
    pub t_rp: u64,
    /// RD-to-data (CAS latency).
    pub t_cas: u64,
    /// Minimum row-open time before PRE. Configured but not yet enforced:
    /// no timing rule reads it.
    pub t_ras: u64,
    /// Write recovery before a PRE after a write.
    pub t_wr: u64,
    /// Write-to-read turnaround on the same rank.
    pub t_wtr: u64,
    /// Data-bus occupancy of one burst (BL8 at DDR: 4 bus cycles).
    pub burst: u64,
    /// Four-activate window.
    pub t_faw: u64,
    /// Average refresh interval (0 disables refresh modelling).
    pub t_refi: u64,
    /// Refresh cycle time: the bank group is unavailable this long per
    /// refresh.
    pub t_rfc: u64,
}

impl Default for DramTiming {
    fn default() -> Self {
        DramTiming {
            t_rcd: 11,
            t_rp: 11,
            t_cas: 11,
            t_ras: 28,
            t_wr: 12,
            t_wtr: 6,
            burst: 4,
            t_faw: 32,
            // 7.8 us at 800 MHz; tRFC for a 2 Gb part.
            t_refi: 6240,
            t_rfc: 128,
        }
    }
}

/// Full memory-system configuration (Table III defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: u8,
    /// Ranks per channel.
    pub ranks: u8,
    /// Banks per rank.
    pub banks: u8,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// DDR timing set (in bus cycles).
    pub timing: DramTiming,
    /// CPU cycles per memory-bus cycle (3.2 GHz core / 800 MHz bus = 4).
    pub cpu_clock_ratio: u64,
    /// Write-queue high watermark: start draining writes.
    pub write_queue_high: usize,
    /// Write-queue low watermark: stop draining writes.
    pub write_queue_low: usize,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// When `true`, the scheduler ignores the online/offline priority
    /// classes (FIFO-with-row-hits only) — the ablation showing maintenance
    /// traffic landing on the critical path.
    pub ignore_priority: bool,
}

impl Default for DramConfig {
    /// Table III: 4 channels, 800 MHz DDR3; 2 ranks × 8 banks, 8 KB rows.
    fn default() -> Self {
        DramConfig {
            channels: 4,
            ranks: 2,
            banks: 8,
            row_bytes: 8 * 1024,
            timing: DramTiming::default(),
            cpu_clock_ratio: 4,
            write_queue_high: 48,
            write_queue_low: 16,
            page_policy: PagePolicy::Open,
            ignore_priority: false,
        }
    }
}

impl DramConfig {
    /// Cache lines per DRAM row.
    pub fn lines_per_row(&self) -> u64 {
        self.row_bytes / 64
    }

    /// Banks addressable within one channel (`ranks * banks`).
    pub fn banks_per_channel(&self) -> u64 {
        u64::from(self.ranks) * u64::from(self.banks)
    }

    /// Converts bus cycles to CPU cycles.
    pub fn to_cpu_cycles(&self, bus_cycles: u64) -> u64 {
        bus_cycles * self.cpu_clock_ratio
    }

    /// Peak data bandwidth in bytes per CPU cycle across all channels
    /// (64 B per `burst` bus cycles per channel).
    pub fn peak_bytes_per_cpu_cycle(&self) -> f64 {
        u64::from(self.channels) as f64 * 64.0 / self.to_cpu_cycles(self.timing.burst) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iii() {
        let c = DramConfig::default();
        assert_eq!(c.channels, 4);
        assert_eq!(c.cpu_clock_ratio, 4);
        assert_eq!(c.lines_per_row(), 128);
        assert_eq!(c.banks_per_channel(), 16);
        assert_eq!(c.to_cpu_cycles(11), 44);
    }

    #[test]
    fn peak_bandwidth_is_sane() {
        // 4 channels * 64 B / 16 CPU cycles = 16 B/cycle.
        let c = DramConfig::default();
        assert!((c.peak_bytes_per_cpu_cycle() - 16.0).abs() < 1e-12);
    }
}
