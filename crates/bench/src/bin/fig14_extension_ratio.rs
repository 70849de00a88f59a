//! Fig. 14 — AB-ORAM's capability to extend the S value.
//!
//! Reports the fraction of bucket refreshes at DR levels that successfully
//! borrowed the full `r = 2` reclaimed dead slots, for DR and AB, per
//! benchmark. The paper measures ~100 % for DR and ~74 % for AB, and notes
//! the ratio is application-independent.

use aboram_bench::{emit, telemetry_from_env, CellExecutor, ChurnKind, Experiment};
use aboram_core::Scheme;
use aboram_stats::Table;
use aboram_trace::profiles;

fn main() {
    let env = Experiment::from_env();
    let _telemetry = telemetry_from_env();
    let mut table = Table::new("Fig. 14 — S-extension success ratio", &["benchmark", "DR", "AB"]);
    let suite: Vec<_> = profiles::spec2017();
    // Every (benchmark × scheme) cell builds its own engine from its own
    // seed: fan them all out, then assemble the table from the ordered
    // results.
    let schemes = [Scheme::DR, Scheme::Ab];
    let grid: Vec<(usize, Scheme)> =
        (0..suite.len()).flat_map(|p| schemes.map(|scheme| (p, scheme))).collect();
    let cells = CellExecutor::from_env().run(grid, |_, (p, scheme)| {
        eprintln!("[benchmark {} / {scheme}]", suite[p].name);
        let mut run = env.protocol_run(scheme, ChurnKind::Trace(&suite[p])).expect("engine builds");
        // Warm up so the DeadQ economy reaches steady state, then measure
        // the extension ratio over the steady window only.
        run.advance(env.warmup.min(env.protocol_accesses)).expect("protocol ok");
        let (att0, done0) =
            (run.oram.stats().extensions_attempted, run.oram.stats().extensions_done);
        run.advance(env.protocol_accesses).expect("protocol ok");
        let att = run.oram.stats().extensions_attempted - att0;
        let done = run.oram.stats().extensions_done - done0;
        if att == 0 {
            0.0
        } else {
            done as f64 / att as f64
        }
    });
    let mut sums = [0.0f64; 2];
    for (profile, ratios) in suite.iter().zip(cells.chunks(schemes.len())) {
        for (sum, ratio) in sums.iter_mut().zip(ratios) {
            *sum += ratio;
        }
        table.row(&[profile.name], ratios);
    }
    let n = suite.len() as f64;
    table.row(&["average"], &[sums[0] / n, sums[1] / n]);

    let mut out = String::from("# Fig. 14 — extension-ratio analysis\n\n");
    out.push_str(&format!(
        "tree: {} levels; {} accesses per cell\n\n",
        env.levels, env.protocol_accesses
    ));
    out.push_str(&table.to_markdown());
    out.push_str("\npaper: DR extends nearly all allocations; AB reaches ~74 %; both application-independent.\n");
    out.push_str("\nCSV:\n");
    out.push_str(&table.to_csv());
    emit("fig14_extension_ratio.md", &out);
}
