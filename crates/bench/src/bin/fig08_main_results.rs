//! Fig. 8 — the paper's main result: (a) normalized space consumption,
//! (b) space utilization, (c) normalized execution time with a breakdown by
//! protocol operation, for Baseline / IR / DR / NS / AB. Also emits the
//! Fig. 9 bandwidth comparison, which comes from the same runs.
//!
//! Scale with `ABORAM_LEVELS`, `ABORAM_WARMUP`, `ABORAM_TIMED`; restrict the
//! benchmark list with `ABORAM_BENCHES=<n>`; set the worker count with
//! `ABORAM_JOBS` (cells are deterministic, so the tables are byte-identical
//! for any jobs count).

use aboram_bench::{emit, env_knob, space_report_of, telemetry_from_env, CellExecutor, Experiment};
use aboram_core::{OramConfig, OramOp, Scheme};
use aboram_stats::{geometric_mean, Table};
use aboram_trace::profiles;

fn main() {
    let env = Experiment::from_env();
    let _telemetry = telemetry_from_env();
    let bench_count = env_knob("ABORAM_BENCHES", usize::MAX);

    // ---- Fig. 8a / 8b: closed-form space, at this scale and at L = 24.
    let mut space = Table::new(
        "Fig. 8a/8b — normalized space and utilization",
        &[
            "scheme",
            "norm. space (this L)",
            "util % (this L)",
            "norm. space (L=24)",
            "util % (L=24)",
        ],
    );
    let base_here = env.space_report(Scheme::Baseline).expect("config");
    let base_24 = OramConfig::paper_scale(Scheme::Baseline).build().expect("config");
    let base_24 = space_report_of(&base_24).expect("geometry");
    for scheme in Scheme::evaluated() {
        let here = env.space_report(scheme).expect("config");
        let paper = OramConfig::paper_scale(scheme).build().expect("config");
        let paper = space_report_of(&paper).expect("geometry");
        space.row(
            &[&scheme.to_string()],
            &[
                here.normalized_to(&base_here),
                100.0 * here.utilization(),
                paper.normalized_to(&base_24),
                100.0 * paper.utilization(),
            ],
        );
    }

    // ---- Fig. 8c: timed runs. Warm each scheme once, reuse across
    // benchmarks (the protocol steady state is benchmark-independent).
    let suite: Vec<_> = profiles::spec2017().into_iter().take(bench_count).collect();
    // Per-benchmark tables are one column per evaluated scheme; the header
    // follows the scheme list so new schemes (AB-CP) join automatically.
    let schemes = Scheme::evaluated();
    let scheme_labels: Vec<String> = schemes.iter().map(ToString::to_string).collect();
    let per_scheme_headers: Vec<&str> =
        std::iter::once("benchmark").chain(scheme_labels.iter().map(String::as_str)).collect();
    let mut time = Table::new("Fig. 8c — normalized execution time", &per_scheme_headers);
    let mut breakdown = Table::new(
        "Fig. 8c breakdown — bus-cycle share per operation (suite average)",
        &["scheme", "readPath %", "evictPath %", "earlyReshuffle %", "bgEvict %", "metadata %"],
    );
    let mut bandwidth = Table::new("Fig. 9 — bandwidth relative to Baseline", &per_scheme_headers);
    let mut latency = Table::new(
        "Fig. 8d (extension) — mean access latency in CPU cycles (online reads + crypto)",
        &per_scheme_headers,
    );

    let executor = CellExecutor::from_env();
    let warmed: Vec<_> = executor.run(Scheme::evaluated(), |_, scheme| {
        eprintln!("[warming {scheme}]");
        (scheme, env.warmed_oram(scheme).expect("warm-up ok"))
    });

    // Every (benchmark × scheme) timed window is an independent cell: fan
    // them all out at once, then assemble the tables from the ordered
    // results exactly as the sequential loops did.
    let grid: Vec<(usize, usize)> =
        (0..suite.len()).flat_map(|p| (0..warmed.len()).map(move |k| (p, k))).collect();
    let reports = executor.run(grid, |_, (p, k)| {
        let report = env.timed_run(warmed[k].1.clone(), &suite[p]).expect("timed run ok");
        eprintln!("[benchmark {} / {}]", suite[p].name, warmed[k].0);
        report
    });

    let mut norm_by_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut frac_sums = vec![[0.0f64; 5]; schemes.len()];
    let mut lat_sums = vec![0.0f64; schemes.len()];
    for (p, profile) in suite.iter().enumerate() {
        let mut exec = vec![0f64; schemes.len()];
        let mut bw = vec![0f64; schemes.len()];
        let mut lat = vec![0f64; schemes.len()];
        for k in 0..warmed.len() {
            let report = &reports[p * warmed.len() + k];
            exec[k] = report.exec_cycles as f64;
            bw[k] = report.bandwidth();
            lat[k] = report.mean_online_latency();
            lat_sums[k] += lat[k];
            for (j, op) in OramOp::ALL.into_iter().enumerate() {
                frac_sums[k][j] += report.breakdown.fraction(op);
            }
        }
        let base = exec[0];
        let base_bw = bw[0];
        let normalized: Vec<f64> = exec.iter().map(|e| e / base).collect();
        for (k, n) in normalized.iter().enumerate() {
            norm_by_scheme[k].push(*n);
        }
        time.row(&[profile.name], &normalized);
        bandwidth.row(&[profile.name], &bw.iter().map(|b| b / base_bw).collect::<Vec<_>>());
        latency.row(&[profile.name], &lat);
    }
    let means: Vec<f64> = norm_by_scheme.iter().map(|v| geometric_mean(v)).collect();
    time.row(&["geomean"], &means);
    for (k, (scheme, _)) in warmed.iter().enumerate() {
        let n = suite.len() as f64;
        breakdown.row(
            &[&scheme.to_string()],
            &[
                100.0 * frac_sums[k][0] / n,
                100.0 * frac_sums[k][1] / n,
                100.0 * frac_sums[k][2] / n,
                100.0 * frac_sums[k][3] / n,
                100.0 * frac_sums[k][4] / n,
            ],
        );
    }

    let mut out = String::from("# Fig. 8 — main space and performance results\n\n");
    out.push_str(&format!(
        "tree: {} levels; warm-up {} accesses/scheme; timed window {} records/benchmark\n\n",
        env.levels, env.warmup, env.timed
    ));
    out.push_str(&space.to_markdown());
    out.push('\n');
    out.push_str(&time.to_markdown());
    out.push('\n');
    out.push_str(&breakdown.to_markdown());
    out.push('\n');
    out.push_str(&latency.to_markdown());
    out.push_str("\npaper: DR 0.75x space / +3 % time; NS 0.81x / ~0 %; AB 0.645x / +4 %; IR ~1.0x space / +4 % time.\n");
    let at = |scheme| schemes.iter().position(|&s| s == scheme);
    if let (Some(ab), Some(cp)) = (at(Scheme::Ab), at(Scheme::AbChannelPar)) {
        let n = suite.len() as f64;
        out.push_str(&abcp_relation(
            env.levels,
            (lat_sums[ab] / n, lat_sums[cp] / n),
            (means[ab], means[cp]),
        ));
    }
    out.push_str("\nCSV (Fig. 8c):\n");
    out.push_str(&time.to_csv());
    emit("fig08_main_results.md", &out);

    let mut out9 = String::from("# Fig. 9 — bandwidth impact\n\n");
    out9.push_str(&bandwidth.to_markdown());
    out9.push_str("\npaper: AB increases bandwidth usage by ~1 % on average.\n");
    out9.push_str("\nCSV:\n");
    out9.push_str(&bandwidth.to_csv());
    emit("fig09_bandwidth.md", &out9);
}

/// The AB-CP caption, computed from this run's numbers: how AB-CP's suite
/// mean access latency and geomean execution time compare with AB's.
fn abcp_relation(
    levels: u8,
    (lat_ab, lat_cp): (f64, f64),
    (time_ab, time_cp): (f64, f64),
) -> String {
    let versus = |ab: f64, cp: f64| {
        let pct = 100.0 * (cp / ab - 1.0);
        match pct.partial_cmp(&0.0) {
            Some(std::cmp::Ordering::Greater) => format!("{pct:.1} % higher than"),
            Some(std::cmp::Ordering::Less) => format!("{:.1} % lower than", -pct),
            _ => "equal to".to_string(),
        }
    };
    format!(
        "AB-CP is AB with channel-parallel issue + crypto/DRAM overlap: identical space; at L = \
         {levels} its mean access latency is {} AB's ({lat_cp:.0} vs {lat_ab:.0} cycles, suite \
         mean) and its geomean execution time is {} AB's ({time_cp:.4} vs {time_ab:.4}).\n",
        versus(lat_ab, lat_cp),
        versus(time_ab, time_cp),
    )
}
