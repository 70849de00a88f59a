//! Extension study — DRAM energy per scheme.
//!
//! §III-D motivates space reduction partly through power/energy: a smaller
//! tree means fewer powered devices. This study combines the timing runs
//! with the USIMM-style energy model: dynamic (activate/read/write),
//! refresh, and footprint-proportional background energy.

use aboram_bench::{emit, CellExecutor, Experiment};
use aboram_core::{Scheme, TimingDriver};
use aboram_dram::{DramConfig, EnergyParams, EnergyReport};
use aboram_stats::Table;
use aboram_trace::{profiles, TraceGenerator};
use aboram_tree::PhysicalLayout;

fn main() {
    let env = Experiment::from_env();
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf");
    let params = EnergyParams::default();
    let dram = DramConfig::default();
    let refi_cycles = dram.timing.t_refi * dram.cpu_clock_ratio;
    let ranks = u64::from(dram.channels) * u64::from(dram.ranks);

    let mut table = Table::new(
        "DRAM energy per scheme (mcf timed window)",
        &["scheme", "dynamic uJ", "refresh uJ", "background uJ", "total uJ", "norm. total"],
    );
    // One warm-and-time cell per scheme, fanned out over the executor.
    let schemes = Scheme::evaluated();
    let energies = CellExecutor::from_env().run(schemes.clone(), |_, scheme| {
        eprintln!("[warming {scheme}]");
        let oram = env.warmed_oram(scheme).expect("warm-up ok");
        let footprint = PhysicalLayout::new(oram.geometry()).total_bytes();
        let mut driver = TimingDriver::from_oram(oram, dram);
        let mut gen = TraceGenerator::new(&profile, env.seed);
        let report = driver.run((0..env.timed).map(|_| gen.next_record())).expect("run ok");
        // The driver drained the memory system; its stats are final.
        EnergyReport::compute(
            &params,
            driver.memory_stats(),
            report.exec_cycles,
            footprint,
            refi_cycles,
            ranks,
        )
    });
    let base_total = energies[0].total_nj();
    for (scheme, energy) in schemes.iter().zip(&energies) {
        table.row(
            &[&scheme.to_string()],
            &[
                energy.dynamic_nj / 1000.0,
                energy.refresh_nj / 1000.0,
                energy.background_nj / 1000.0,
                energy.total_nj() / 1000.0,
                energy.total_nj() / base_total,
            ],
        );
    }

    let mut out = String::from("# Extension — DRAM energy\n\n");
    out.push_str(&format!("tree: {} levels; {} timed records (mcf)\n\n", env.levels, env.timed));
    out.push_str(&table.to_markdown());
    out.push_str("\nAB's smaller footprint cuts background energy proportionally to its 36 % space reduction; dynamic energy tracks the traffic differences of Fig. 8c.\n");
    emit("ext_energy.md", &out);
}
