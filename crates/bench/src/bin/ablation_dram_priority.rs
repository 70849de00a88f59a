//! Ablation: online/offline DRAM priority classes.
//!
//! The memory scheduler serves readPath traffic ahead of maintenance
//! traffic; disabling the distinction (pure FR-FCFS) puts reshuffles on the
//! user's critical path. This binary measures the online-latency cost of
//! removing the priority classes, for Baseline and AB.

use aboram_bench::{emit, CellExecutor, Experiment};
use aboram_core::{Scheme, TimingDriver};
use aboram_dram::DramConfig;
use aboram_stats::Table;
use aboram_trace::profiles;

fn main() {
    let env = Experiment::from_env();
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf");

    // Warm each scheme once; its two (priority mode) cells clone the warmed
    // engine, as Fig. 8's benchmark cells do.
    let schemes = [Scheme::Baseline, Scheme::Ab];
    let executor = CellExecutor::from_env();
    let warmed = executor.run(schemes.to_vec(), |_, scheme| {
        eprintln!("[warming {scheme}]");
        env.warmed_oram(scheme).expect("warm-up ok")
    });
    let grid: Vec<(usize, bool)> =
        (0..schemes.len()).flat_map(|k| [(k, false), (k, true)]).collect();
    let cycles = executor.run(grid, |_, (k, ignore)| {
        eprintln!("[{}, ignore_priority={ignore}]", schemes[k]);
        let dram = DramConfig { ignore_priority: ignore, ..DramConfig::default() };
        let driver = TimingDriver::from_oram(warmed[k].clone(), dram);
        env.timed_run_on(driver, &profile).expect("run ok").exec_cycles
    });

    let mut table = Table::new(
        "DRAM priority ablation — execution time with vs without online priority",
        &["scheme", "with priority (Mcycles)", "without (Mcycles)", "slowdown from removing"],
    );
    for (k, scheme) in schemes.into_iter().enumerate() {
        let (with, without) = (cycles[2 * k], cycles[2 * k + 1]);
        table.row(
            &[&scheme.to_string()],
            &[with as f64 / 1e6, without as f64 / 1e6, without as f64 / with as f64],
        );
    }

    let mut out = String::from("# Ablation — online/offline DRAM priority\n\n");
    out.push_str(&format!("tree: {} levels; {} timed records (mcf)\n\n", env.levels, env.timed));
    out.push_str(&table.to_markdown());
    out.push_str(
        "\nexpected: removing the priority classes lets maintenance bursts delay online reads.\n",
    );
    emit("ablation_dram_priority.md", &out);
}
