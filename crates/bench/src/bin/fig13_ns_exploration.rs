//! Fig. 13 — NS design exploration.
//!
//! Sweeps `Ly-Sx` (shrink S by `x` for the bottom `y` levels) on the CB
//! baseline and reports normalized space and time. The paper picks L2-S2
//! for NS and L3-S1 for AB from this sweep; aggressive settings like L3-S3
//! degrade performance sharply.

use aboram_bench::{emit, telemetry_from_env, CellExecutor, Experiment};
use aboram_core::Scheme;
use aboram_stats::Table;
use aboram_trace::profiles;

fn main() {
    let env = Experiment::from_env();
    let _telemetry = telemetry_from_env();
    let base_space = env.space_report(Scheme::Baseline).expect("config");
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf");

    // One cell per config, fanned out over the executor: the baseline, the
    // full Ly-Sx sweep in table order, and the channel-parallel AB reference
    // row last.
    let schemes: Vec<Scheme> = std::iter::once(Scheme::Baseline)
        .chain(
            (1..=3u8)
                .flat_map(|y| (1..=3u8).map(move |x| Scheme::Ns { bottom_levels: y, shrink: x })),
        )
        .chain(std::iter::once(Scheme::AbChannelPar))
        .collect();
    let reports = CellExecutor::from_env().run(schemes, |_, scheme| {
        eprintln!("[{scheme} warm-up + run]");
        env.warmed_timed(scheme, &profile).expect("timed run ok")
    });
    let base_report = &reports[0];

    let mut table = Table::new(
        "Fig. 13 — NS exploration (Ly-Sx on the CB baseline)",
        &["config", "normalized space", "normalized time"],
    );
    table.row(&["Baseline"], &[1.0, 1.0]);
    for y in 1..=3u8 {
        for x in 1..=3u8 {
            let scheme = Scheme::Ns { bottom_levels: y, shrink: x };
            let space = env.normalized_space(scheme, &base_space).expect("config");
            let report = &reports[usize::from((y - 1) * 3 + x)];
            table.row(
                &[&format!("L{y}-S{x}")],
                &[space, report.exec_cycles as f64 / base_report.exec_cycles as f64],
            );
        }
    }
    // Channel-parallel AB reference point (last cell).
    let cp = reports.last().expect("AB-CP cell present");
    table.row(
        &["AB-CP (ref)"],
        &[
            env.normalized_space(Scheme::AbChannelPar, &base_space).expect("config"),
            cp.exec_cycles as f64 / base_report.exec_cycles as f64,
        ],
    );

    let mut out = String::from("# Fig. 13 — NS design exploration\n\n");
    out.push_str(&format!("tree: {} levels; timed on mcf\n\n", env.levels));
    out.push_str(&table.to_markdown());
    out.push_str("\npaper choice: L2-S2 for NS, L3-S1 inside AB; L3-S3 shows large degradation.\n");
    out.push_str("\nCSV:\n");
    out.push_str(&table.to_csv());
    emit("fig13_ns_exploration.md", &out);
}
