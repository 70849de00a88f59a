//! Fig. 4 — the motivational space/performance trade-off.
//!
//! On the plain Ring ORAM tree (Z = 12, S = 7), reduce S by 3 for the last
//! `x` levels (`L-x`) and report (top) the space demand normalized to the
//! unmodified baseline and (bottom) the slowdown. The paper finds space
//! savings saturating around L-3 while the performance loss stays a few
//! percent and grows roughly linearly with `x`.

use aboram_bench::{emit, telemetry_from_env, CellExecutor, Experiment};
use aboram_core::Scheme;
use aboram_stats::Table;
use aboram_trace::profiles;

fn main() {
    let env = Experiment::from_env();
    let _telemetry = telemetry_from_env();
    let base_space = env.space_report(Scheme::PlainRing).expect("valid config");

    // Timed cells, fanned out together: the baseline, every L-x shrink, and
    // the channel-parallel AB reference row last (the sweep rows index
    // positionally).
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf");
    let schemes: Vec<Scheme> = std::iter::once(Scheme::PlainRing)
        .chain((1..=7u8).map(|x| Scheme::RingShrink { bottom_levels: x }))
        .chain(std::iter::once(Scheme::AbChannelPar))
        .collect();
    let reports = CellExecutor::from_env().run(schemes, |_, scheme| {
        eprintln!("[warm-up + timed run: {scheme}]");
        env.warmed_timed(scheme, &profile).expect("timed run ok")
    });
    let base_report = &reports[0];

    let mut table = Table::new(
        "Fig. 4 — space and slowdown for L-x (plain Ring ORAM, S -> S-3 on last x levels)",
        &["config", "normalized space", "slowdown"],
    );
    table.row(&["baseline"], &[1.0, 1.0]);
    for x in 1..=7u8 {
        let scheme = Scheme::RingShrink { bottom_levels: x };
        let space = env.normalized_space(scheme, &base_space).expect("valid config");
        let report = &reports[usize::from(x)];
        let slowdown = report.exec_cycles as f64 / base_report.exec_cycles as f64;
        table.row(&[&format!("L-{x}")], &[space, slowdown]);
    }
    // Channel-parallel AB reference point (last cell): where the paper's
    // full design lands on the same space/slowdown axes.
    let cp = reports.last().expect("AB-CP cell present");
    table.row(
        &["AB-CP (ref)"],
        &[
            env.normalized_space(Scheme::AbChannelPar, &base_space).expect("valid config"),
            cp.exec_cycles as f64 / base_report.exec_cycles as f64,
        ],
    );

    let mut out = String::from("# Fig. 4 — motivational space/performance trade-off\n\n");
    out.push_str(&format!(
        "tree: {} levels, timed window {} records (mcf)\n\n",
        env.levels, env.timed
    ));
    out.push_str(&table.to_markdown());
    out.push_str("\nCSV:\n");
    out.push_str(&table.to_csv());
    out.push_str(
        "\npaper shape: space saturates near L-3; slowdown grows ~linearly, ~4 % at L-3.\n",
    );
    emit("fig04_motivation_tradeoff.md", &out);
}
