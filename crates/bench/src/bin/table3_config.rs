//! Table III — the evaluated system configuration.
//!
//! Prints the processor, DRAM and ORAM parameters this reproduction uses
//! and how each maps to the paper's Table III.

use aboram_bench::{emit, Experiment};
use aboram_core::{Scheme, DEADQ_LEVELS, EVICT_RATE_A};
use aboram_dram::DramConfig;

fn main() {
    let env = Experiment::from_env();
    let dram = DramConfig::default();
    let cfg = env.config(Scheme::Baseline).expect("config");

    let out = format!(
        "# Table III — system configuration\n\n\
         | parameter | paper | this run |\n|---|---|---|\n\
         | fetch width / ROB | 4 / 256 | 4 / 256 |\n\
         | memory channels | 4 | {} |\n\
         | DRAM clock | 800 MHz | 800 MHz (cpu:bus ratio {}) |\n\
         | L1 / L2 | 4-way 64 KB / 8-way 256 KB | same (aboram-trace cache model) |\n\
         | LLC | 16-way 2 MB | same |\n\
         | ORAM tree levels | 24 | {} (set ABORAM_LEVELS=24 for paper scale) |\n\
         | bucket / block size | Z per scheme / 64 B | same |\n\
         | stash entries | 300 | {} |\n\
         | treetop cache | top 10 of 24 levels | top {} of {} levels |\n\
         | on-chip PLB/PosMap | 64 KB / 512 KB | modelled as on-chip (no DRAM traffic) |\n\
         | evictPath rate A | 5 | {} |\n\
         | DeadQ | 6 levels x 1000 entries | {} levels x {} entries |\n",
        dram.channels,
        dram.cpu_clock_ratio,
        cfg.levels,
        cfg.stash_capacity,
        cfg.treetop_levels,
        cfg.levels,
        EVICT_RATE_A,
        DEADQ_LEVELS,
        cfg.deadq_capacity,
    );
    emit("table3_config.md", &out);
}
