//! Fig. 11 — sensitivity of DR to the starting level.
//!
//! `DR-Lk` applies dead-block reclaim from level `k` down to the leaves
//! (paper: DR-L18 … DR-L23 on the 24-level tree; here expressed as the
//! number of bottom levels). Space savings shrink as fewer levels
//! participate, while execution time stays near Baseline.

use aboram_bench::{emit, telemetry_from_env, CellExecutor, Experiment};
use aboram_core::Scheme;
use aboram_stats::Table;
use aboram_trace::profiles;

fn main() {
    let env = Experiment::from_env();
    let _telemetry = telemetry_from_env();
    let base_space = env.space_report(Scheme::Baseline).expect("config");
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf");

    // One cell per config, fanned out over the executor: the baseline, DR
    // with 6..1 bottom levels (table order), and the channel-parallel AB
    // reference row last.
    let schemes: Vec<Scheme> = std::iter::once(Scheme::Baseline)
        .chain((1..=6u8).rev().map(|bottom| Scheme::Dr { bottom_levels: bottom }))
        .chain(std::iter::once(Scheme::AbChannelPar))
        .collect();
    let cells = CellExecutor::from_env().run(schemes, |_, scheme| {
        eprintln!("[{scheme} warm-up + run]");
        let oram = env.warmed_oram(scheme).expect("warm-up ok");
        let ext = oram.stats().extension_ratio();
        let report = env.timed_run(oram, &profile).expect("timed run ok");
        (ext, report)
    });
    let base_report = &cells[0].1;

    let mut table = Table::new(
        "Fig. 11 — DR sensitivity to the number of participating bottom levels",
        &["config", "normalized space", "normalized time", "extension ratio"],
    );
    table.row(&["Baseline"], &[1.0, 1.0, 0.0]);
    for (i, bottom) in (1..=6u8).rev().enumerate() {
        let scheme = Scheme::Dr { bottom_levels: bottom };
        let paper_level = 24 - bottom; // the paper's DR-L<k> naming
        let space = env.normalized_space(scheme, &base_space).expect("config");
        let (ext, report) = &cells[i + 1];
        table.row(
            &[&format!("DR-L{paper_level}")],
            &[space, report.exec_cycles as f64 / base_report.exec_cycles as f64, *ext],
        );
    }
    // Channel-parallel AB reference point (last cell).
    let (cp_ext, cp) = cells.last().expect("AB-CP cell present");
    table.row(
        &["AB-CP (ref)"],
        &[
            env.normalized_space(Scheme::AbChannelPar, &base_space).expect("config"),
            cp.exec_cycles as f64 / base_report.exec_cycles as f64,
            *cp_ext,
        ],
    );

    let mut out = String::from("# Fig. 11 — DR sensitivity analysis\n\n");
    out.push_str(&format!("tree: {} levels (configs named for the L = 24 tree)\n\n", env.levels));
    out.push_str(&table.to_markdown());
    out.push_str("\npaper shape: space savings grow as DR starts higher (DR-L18 best at 0.75x); time stays within a few % of Baseline; top levels are not worth reclaiming.\n");
    out.push_str("\nCSV:\n");
    out.push_str(&table.to_csv());
    emit("fig11_dr_sensitivity.md", &out);
}
