//! End-to-end performance simulation: a synthetic SPEC-like LLC-miss trace
//! drives the ORAM controller, and the cycle-level DRAM model produces
//! execution times — the paper's §VII methodology in one binary, comparing
//! Baseline and AB.
//!
//! Run with: `cargo run --release --example trace_simulation`

use aboram::core::{OramConfig, OramError, OramOp, Scheme, TimingDriver};
use aboram::dram::DramConfig;
use aboram::trace::{profiles, TraceGenerator, TraceRecord};

fn main() -> Result<(), OramError> {
    let profile =
        profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf is in Table IV");
    println!(
        "workload: {} (read MPKI {}, write MPKI {})",
        profile.name, profile.read_mpki, profile.write_mpki
    );

    // Stage 1: the trace generator emits LLC misses at Table IV's MPKI, the
    // same stream the paper's Pin traces hand the memory controller.
    let llc_misses: Vec<TraceRecord> = TraceGenerator::new(&profile, 2024).take_records(4_000);

    // Stage 2: replay the miss trace through each scheme.
    let mut results = Vec::new();
    for scheme in [Scheme::Baseline, Scheme::Ab] {
        let cfg = OramConfig::builder(13, scheme).seed(11).build()?;
        let mut driver = TimingDriver::new(&cfg, DramConfig::default())?;
        let report = driver.run(llc_misses.iter().copied())?;
        println!(
            "\n{scheme}: {} accesses in {} Mcycles",
            report.user_accesses,
            report.exec_cycles / 1_000_000
        );
        println!("  bandwidth        : {:.2} B/cycle", report.bandwidth());
        println!("  row-buffer hits  : {:.1} %", 100.0 * report.row_hit_rate);
        println!("  evictPaths       : {}", report.evict_paths);
        println!("  earlyReshuffles  : {}", report.early_reshuffles);
        println!("  traffic breakdown:");
        for op in OramOp::ALL {
            println!("    {:16}: {:.1} %", op.name(), 100.0 * report.breakdown.fraction(op));
        }
        results.push((scheme, report));
    }

    // Stage 3: the paper's comparison — AB trades a few percent of time for
    // a ~36 % smaller tree.
    let base = &results[0].1;
    let ab = &results[1].1;
    let slowdown = ab.exec_cycles as f64 / base.exec_cycles as f64;
    println!("\nAB vs Baseline: {:.3}x execution time", slowdown);

    let base_cfg = OramConfig::builder(13, Scheme::Baseline).build()?;
    let ab_cfg = OramConfig::builder(13, Scheme::Ab).build()?;
    let bs = base_cfg.geometry()?.space_report(base_cfg.real_block_count());
    let abs = ab_cfg.geometry()?.space_report(ab_cfg.real_block_count());
    println!("AB vs Baseline: {:.3}x tree size", abs.normalized_to(&bs));
    Ok(())
}
