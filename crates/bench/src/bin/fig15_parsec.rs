//! Fig. 15 — generalizability over PARSEC-like applications.
//!
//! Repeats the main performance experiment with the PARSEC suite. Space
//! results are workload-independent; DR/AB should again land within a few
//! percent of Baseline.

use aboram_bench::{emit, env_knob, telemetry_from_env, CellExecutor, Experiment};
use aboram_core::Scheme;
use aboram_stats::{geometric_mean, Table};
use aboram_trace::profiles;

fn main() {
    let env = Experiment::from_env();
    let _telemetry = telemetry_from_env();
    let bench_count = env_knob("ABORAM_BENCHES", usize::MAX);
    let suite: Vec<_> = profiles::parsec().into_iter().take(bench_count).collect();

    let executor = CellExecutor::from_env();
    let warmed: Vec<_> = executor.run(Scheme::evaluated(), |_, scheme| {
        eprintln!("[warming {scheme}]");
        (scheme, env.warmed_oram(scheme).expect("warm-up ok"))
    });

    let grid: Vec<(usize, usize)> =
        (0..suite.len()).flat_map(|p| (0..warmed.len()).map(move |k| (p, k))).collect();
    let reports = executor.run(grid, |_, (p, k)| {
        let report = env.timed_run(warmed[k].1.clone(), &suite[p]).expect("timed run ok");
        eprintln!("[benchmark {} / {}]", suite[p].name, warmed[k].0);
        report
    });

    let scheme_labels: Vec<String> = warmed.iter().map(|(s, _)| s.to_string()).collect();
    let headers: Vec<&str> =
        std::iter::once("benchmark").chain(scheme_labels.iter().map(String::as_str)).collect();
    let mut table = Table::new("Fig. 15 — PARSEC normalized execution time", &headers);
    let mut norms: Vec<Vec<f64>> = vec![Vec::new(); warmed.len()];
    for (p, profile) in suite.iter().enumerate() {
        let mut exec = vec![0f64; warmed.len()];
        for k in 0..warmed.len() {
            exec[k] = reports[p * warmed.len() + k].exec_cycles as f64;
        }
        let normalized: Vec<f64> = exec.iter().map(|e| e / exec[0]).collect();
        for (k, v) in normalized.iter().enumerate() {
            norms[k].push(*v);
        }
        table.row(&[profile.name], &normalized);
    }
    table.row(&["geomean"], &norms.iter().map(|v| geometric_mean(v)).collect::<Vec<_>>());

    let base = env.space_report(Scheme::Baseline).expect("config");
    let mut space =
        Table::new("Fig. 15 — space (workload-independent)", &["scheme", "normalized space"]);
    for scheme in Scheme::evaluated() {
        let norm = env.normalized_space(scheme, &base).expect("config");
        space.row(&[&scheme.to_string()], &[norm]);
    }

    let mut out = String::from("# Fig. 15 — PARSEC generalizability\n\n");
    out.push_str(&format!(
        "tree: {} levels; timed window {} records/benchmark\n\n",
        env.levels, env.timed
    ));
    out.push_str(&table.to_markdown());
    out.push('\n');
    out.push_str(&space.to_markdown());
    out.push_str(
        "\npaper: space savings identical to SPEC; DR ~3 % and AB ~4 % overhead on PARSEC.\n",
    );
    out.push_str("\nCSV:\n");
    out.push_str(&table.to_csv());
    emit("fig15_parsec.md", &out);
}
