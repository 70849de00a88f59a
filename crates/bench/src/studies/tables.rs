//! Tables I, III and IV: closed forms, the configuration, and the trace calibration.

use super::markdown_and_csv;
use crate::{Experiment, Measurements, Rendered, Study};
use aboram_core::{DeadQueues, MetadataLayout, Scheme, DEADQ_LEVELS, EVICT_RATE_A};
use aboram_dram::DramConfig;
use aboram_stats::Table;
use aboram_trace::{profiles, MpkiMeter, TraceGenerator};
use aboram_tree::{Level, LevelConfig, TreeGeometry};

/// Table I + §VIII-H — bucket metadata layout and storage overhead.
///
/// Prints the bit width of every metadata field for Ring ORAM and AB-ORAM
/// at the paper's parameters, verifies both fit a 64 B metadata block with
/// `R = 6`, and reports the on-chip DeadQ footprint (paper: 21 KB).
pub const TABLE1_METADATA: Study =
    Study { name: "table1_metadata", windows: |_| Ok(Vec::new()), render: table1 };

fn table1(_: &Experiment, _: &Measurements) -> Rendered {
    // Paper parameters: plain Ring ORAM typical setting at L = 24, R = 6.
    let geo = TreeGeometry::uniform(24, LevelConfig::new(5, 7))?;
    let layout = MetadataLayout::for_geometry(&geo, Level(23), 6);

    let mut table = Table::new(
        "Table I — bucket metadata widths (bits), L = 24, Z' = 5, Z = 12, R = 6",
        &["field", "Ring ORAM", "AB-ORAM extra"],
    );
    let log = |v: u64| (64 - (v.max(2) - 1).leading_zeros()) as f64;
    let zr = 5.0;
    let z = 12.0;
    table.row(&["count"], &[log(7), 0.0]);
    table.row(&["addr"], &[zr * log(layout.n_block), 0.0]);
    table.row(&["label"], &[zr * 25.0, 0.0]);
    table.row(&["ptr"], &[zr * log(12), 0.0]);
    table.row(&["valid"], &[z, 0.0]);
    table.row(&["remote"], &[0.0, 6.0]);
    table.row(&["remoteAddr"], &[0.0, 6.0 * log(layout.n_bucket)]);
    table.row(&["remoteInd"], &[0.0, 6.0 * log(12)]);
    table.row(&["dynamicS"], &[0.0, log(7)]);
    table.row(&["status"], &[0.0, z * 2.0]);
    table.row(&["TOTAL"], &[layout.ring_bits() as f64, layout.aboram_extra_bits() as f64]);

    let ring_bytes = layout.ring_bits() as f64 / 8.0;
    let extra_bytes = layout.aboram_extra_bits() as f64 / 8.0;
    let deadq = DeadQueues::new(24, 6, 1000);

    let mut out = String::from("# Table I — metadata organization\n\n");
    out.push_str(&table.to_markdown());
    out.push_str(&format!(
        "\n§VIII-H storage overhead check:\n\
         - Ring ORAM metadata : {ring_bytes:.1} B   (paper: ~33 B)\n\
         - AB-ORAM additions  : {extra_bytes:.1} B   (paper: ≤28 B with R = 6)\n\
         - total              : {:.1} B of a 64 B metadata block -> fits: {}\n\
         - on-chip DeadQ      : {:.1} KB for 6 levels x 1000 entries (paper: 21 KB)\n",
        ring_bytes + extra_bytes,
        (ring_bytes + extra_bytes) <= 64.0,
        deadq.onchip_bytes() as f64 / 1024.0,
    ));
    Ok(vec![("table1_metadata.md", out)])
}

/// Table III — the evaluated system configuration.
///
/// Prints the processor, DRAM and ORAM parameters this reproduction uses
/// and how each maps to the paper's Table III.
pub const TABLE3_CONFIG: Study =
    Study { name: "table3_config", windows: |_| Ok(Vec::new()), render: table3 };

fn table3(env: &Experiment, _: &Measurements) -> Rendered {
    let dram = DramConfig::default();
    let cfg = env.config(Scheme::Baseline)?;

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
    Ok(vec![("table3_config.md", out)])
}

/// Table IV — the evaluated benchmarks and their read/write MPKI.
///
/// Generates each synthetic benchmark's trace and measures its MPKI,
/// verifying the generators are calibrated to the paper's Table IV.
pub const TABLE4_BENCHMARKS: Study =
    Study { name: "table4_benchmarks", windows: |_| Ok(Vec::new()), render: table4 };

fn table4(env: &Experiment, _: &Measurements) -> Rendered {
    let records = 100_000;
    let mut table = Table::new(
        "Table IV — benchmark MPKI: paper vs generated",
        &["benchmark", "paper read", "gen read", "paper write", "gen write"],
    );
    for profile in profiles::spec2017() {
        let mut gen = TraceGenerator::new(&profile, env.seed);
        let mut meter = MpkiMeter::new();
        for _ in 0..records {
            meter.observe(&gen.next_record());
        }
        table.row(
            &[profile.name],
            &[profile.read_mpki, meter.read_mpki(), profile.write_mpki, meter.write_mpki()],
        );
    }
    let out = format!(
        "# Table IV — evaluated benchmarks\n\n{records} records generated per benchmark\n\n{}",
        markdown_and_csv(&table, "")
    );
    Ok(vec![("table4_benchmarks.md", out)])
}
