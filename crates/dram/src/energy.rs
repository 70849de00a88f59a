//! DRAM energy accounting, after USIMM's power model.
//!
//! Energy is charged per command class from datasheet current profiles
//! (IDD values folded into per-operation energies) plus background power
//! for the time the devices are powered:
//!
//! * activate/precharge pair — row charge/restore energy per row miss or
//!   conflict;
//! * read/write burst — per 64 B transfer;
//! * refresh — per tREFI window;
//! * background — static power integrated over elapsed time, scaled by the
//!   number of powered devices, which is proportional to the memory
//!   footprint: this is where AB-ORAM's 36 % smaller tree shows up as an
//!   energy win.

use crate::stats::{MemoryStats, RowBufferOutcome};

/// Per-operation energy parameters, in picojoules (DDR3-1600 x8 device
/// class, folded to per-64 B-transaction granularity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy of one activate + precharge pair (row miss or conflict).
    pub act_pre_pj: f64,
    /// Energy of one 64 B read burst.
    pub read_pj: f64,
    /// Energy of one 64 B write burst.
    pub write_pj: f64,
    /// Energy of one refresh operation (per rank).
    pub refresh_pj: f64,
    /// Background power per gigabyte of powered DRAM, in milliwatts.
    pub background_mw_per_gb: f64,
    /// CPU clock in GHz (converts cycles to seconds).
    pub cpu_ghz: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            act_pre_pj: 3000.0,
            read_pj: 2100.0,
            write_pj: 2300.0,
            refresh_pj: 27000.0,
            background_mw_per_gb: 80.0,
            cpu_ghz: 3.2,
        }
    }
}

/// An energy report computed from end-of-run [`MemoryStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Dynamic energy: activates, reads, writes (nanojoules).
    pub dynamic_nj: f64,
    /// Refresh energy (nanojoules).
    pub refresh_nj: f64,
    /// Background energy for the powered footprint (nanojoules).
    pub background_nj: f64,
}

impl EnergyReport {
    /// Computes the report for a run.
    ///
    /// `elapsed_cycles` is the execution time; `footprint_bytes` is the
    /// powered memory (the ORAM tree + metadata); `refi_cycles` is the
    /// refresh interval in CPU cycles (0 disables refresh energy);
    /// `ranks` is the total rank count refreshing.
    pub fn compute(
        params: &EnergyParams,
        stats: &MemoryStats,
        elapsed_cycles: u64,
        footprint_bytes: u64,
        refi_cycles: u64,
        ranks: u64,
    ) -> Self {
        let acts = stats.row_outcomes(RowBufferOutcome::Miss)
            + stats.row_outcomes(RowBufferOutcome::Conflict);
        let dynamic_pj = acts as f64 * params.act_pre_pj
            + stats.reads() as f64 * params.read_pj
            + stats.writes() as f64 * params.write_pj;

        let refreshes =
            if refi_cycles == 0 { 0.0 } else { elapsed_cycles as f64 / refi_cycles as f64 };
        let refresh_pj = refreshes * ranks as f64 * params.refresh_pj;

        let seconds = elapsed_cycles as f64 / (params.cpu_ghz * 1e9);
        let gb = footprint_bytes as f64 / (1u64 << 30) as f64;
        // mW·s = mJ; mJ → nJ is a factor of 1e6.
        let background_nj = params.background_mw_per_gb * gb * seconds * 1e6;

        EnergyReport {
            dynamic_nj: dynamic_pj / 1000.0,
            refresh_nj: refresh_pj / 1000.0,
            background_nj,
        }
    }

    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.dynamic_nj + self.refresh_nj + self.background_nj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{MemOpKind, Priority};

    fn stats_with(reads: u64, writes: u64, hits: u64) -> MemoryStats {
        let mut s = MemoryStats::new(1, 1, 1);
        for i in 0..reads {
            let outcome = if i < hits { RowBufferOutcome::Hit } else { RowBufferOutcome::Miss };
            s.record(MemOpKind::Read, Priority::Online, 0, outcome, 16, 100, 0, 0);
        }
        for _ in 0..writes {
            s.record(MemOpKind::Write, Priority::Offline, 0, RowBufferOutcome::Hit, 16, 100, 0, 0);
        }
        s
    }

    #[test]
    fn dynamic_energy_counts_activates_and_bursts() {
        let p = EnergyParams::default();
        let s = stats_with(10, 5, 4); // 6 misses among the reads
        let r = EnergyReport::compute(&p, &s, 0, 0, 0, 0);
        let expect = (6.0 * p.act_pre_pj + 10.0 * p.read_pj + 5.0 * p.write_pj) / 1000.0;
        assert!((r.dynamic_nj - expect).abs() < 1e-9);
        assert_eq!(r.refresh_nj, 0.0);
        assert_eq!(r.background_nj, 0.0);
    }

    #[test]
    fn background_scales_with_footprint() {
        let p = EnergyParams::default();
        let s = stats_with(0, 0, 0);
        let small = EnergyReport::compute(&p, &s, 3_200_000, 1 << 30, 0, 0);
        let large = EnergyReport::compute(&p, &s, 3_200_000, 2 << 30, 0, 0);
        assert!(large.background_nj > 1.9 * small.background_nj);
        // 1 ms at 80 mW/GB with 1 GB = 80 µJ = 80_000 nJ.
        assert!((small.background_nj - 80_000.0).abs() / 80_000.0 < 0.01);
    }

    #[test]
    fn refresh_energy_follows_interval() {
        let p = EnergyParams::default();
        let s = stats_with(0, 0, 0);
        let r = EnergyReport::compute(&p, &s, 6240 * 4 * 10, 0, 6240 * 4, 8);
        // 10 refresh windows x 8 ranks.
        assert!((r.refresh_nj - 10.0 * 8.0 * p.refresh_pj / 1000.0).abs() < 1e-6);
    }

    #[test]
    fn per_access_division() {
        let p = EnergyParams::default();
        let s = stats_with(4, 0, 4);
        let r = EnergyReport::compute(&p, &s, 0, 0, 0, 0);
        // Four row hits: no activates, so each read costs one burst.
        assert!((r.total_nj() / 4.0 - p.read_pj / 1000.0).abs() < 1e-9);
    }
}
