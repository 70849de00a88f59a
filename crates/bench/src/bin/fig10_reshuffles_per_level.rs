//! Fig. 10 — number of earlyReshuffles across the levels, per scheme.
//!
//! Paper shape: DR stays closest to Baseline thanks to the S extension; NS
//! jumps at the two shrunken levels; AB sits between, elevated over its
//! bottom three levels.

use aboram_bench::{emit, telemetry_from_env, ChurnKind, Experiment};
use aboram_core::Scheme;
use aboram_stats::Table;

fn main() {
    let env = Experiment::from_env();
    let _telemetry = telemetry_from_env();
    let show_levels = 8.min(env.levels);
    let mut headers: Vec<String> = vec!["scheme".to_string()];
    for l in (env.levels - show_levels)..env.levels {
        headers.push(format!("L{l}"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!("Fig. 10 — earlyReshuffles per level ({} accesses)", env.protocol_accesses),
        &header_refs,
    );

    for scheme in Scheme::evaluated() {
        eprintln!("[running {scheme}]");
        let mut run = env.protocol_run(scheme, ChurnKind::Uniform).expect("engine builds");
        run.advance(env.protocol_accesses).expect("protocol ok");
        let r = &run.oram.stats().reshuffles;
        let row: Vec<f64> =
            ((env.levels - show_levels)..env.levels).map(|l| r.get(l) as f64).collect();
        table.row(&[&scheme.to_string()], &row);
    }

    let mut out = String::from("# Fig. 10 — reshuffles across the levels\n\n");
    out.push_str(&format!("tree: {} levels; bottom {} levels shown\n\n", env.levels, show_levels));
    out.push_str(&table.to_markdown());
    out.push_str("\npaper shape: DR ~= Baseline; NS spikes at its two shrunken levels; AB elevated on its bottom three.\n");
    out.push_str("\nCSV:\n");
    out.push_str(&table.to_csv());
    emit("fig10_reshuffles_per_level.md", &out);
}
