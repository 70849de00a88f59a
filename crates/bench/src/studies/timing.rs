//! The timed studies of §VII: Figs. 4, 8 (with 9), 11, 13 and 15.

use super::{markdown_and_csv, mcf, mcf_windows, timed_windows};
use crate::{env_knob, space_report_of, Experiment, Measurements, Rendered, Study, Window};
use aboram_core::{OramConfig, OramError, OramOp, Scheme};
use aboram_stats::{geometric_mean, Table};
use aboram_trace::{profiles, BenchmarkProfile};

/// Fig. 4 — the motivational space/performance trade-off.
///
/// On the plain Ring ORAM tree (Z = 12, S = 7), reduce S by 3 for the last
/// `x` levels (`L-x`) and report (top) the space demand normalized to the
/// unmodified baseline and (bottom) the slowdown. The paper finds space
/// savings saturating around L-3 while the performance loss stays a few
/// percent and grows roughly linearly with `x`.
pub const FIG04_MOTIVATION_TRADEOFF: Study = Study {
    name: "fig04_motivation_tradeoff",
    windows: |env| mcf_windows(env, &fig04_schemes()),
    render: fig04,
};

/// The plain Ring ORAM baseline, every L-x shrink, and the paper's AB
/// reference point: where its full design lands on the same axes.
fn fig04_schemes() -> Vec<Scheme> {
    std::iter::once(Scheme::PlainRing)
        .chain((1..=7u8).map(|x| Scheme::RingShrink { bottom_levels: x }))
        .chain(std::iter::once(Scheme::Ab))
        .collect()
}

fn fig04(env: &Experiment, measured: &Measurements) -> Rendered {
    let mut table = Table::new(
        "Fig. 4 — space and slowdown for L-x (plain Ring ORAM, S -> S-3 on last x levels)",
        &["config", "normalized space", "slowdown"],
    );
    table.row(&["baseline"], &[1.0, 1.0]);
    for (label, row) in normalized_to_first(env, measured, &fig04_schemes(), |s| s.to_string())? {
        table.row(&[&label], &row[..2]);
    }
    let out = format!(
        "# Fig. 4 — motivational space/performance trade-off\n\n\
         tree: {} levels, timed window {} records (mcf)\n\n{}\n\
         paper shape: space saturates near L-3; slowdown grows ~linearly, ~4 % at L-3.\n",
        env.levels,
        env.timed,
        markdown_and_csv(&table, "")
    );
    Ok(vec![("fig04_motivation_tradeoff.md", out)])
}

/// Fig. 8 — the paper's main result: (a) normalized space consumption,
/// (b) space utilization, (c) normalized execution time with a breakdown by
/// protocol operation, for Baseline / IR / DR / NS / AB. Also emits the
/// Fig. 9 bandwidth comparison, which comes from the same runs.
///
/// Scale with `ABORAM_LEVELS`, `ABORAM_WARMUP`, `ABORAM_TIMED`; restrict the
/// benchmark list with `ABORAM_BENCHES=<n>`.
pub const FIG08_MAIN_RESULTS: Study = Study {
    name: "fig08_main_results",
    windows: |env| timed_windows(env, &first_benches(profiles::spec2017()), &Scheme::evaluated()),
    render: fig08,
};

fn fig08(env: &Experiment, measured: &Measurements) -> Rendered {
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
    let base_here = env.space_report(Scheme::Baseline)?;
    let base_24 = space_report_of(&OramConfig::paper_scale(Scheme::Baseline).build()?)?;
    for scheme in Scheme::evaluated() {
        let here = env.space_report(scheme)?;
        let paper = space_report_of(&OramConfig::paper_scale(scheme).build()?)?;
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

    // ---- Fig. 8c: timed windows, one column per evaluated scheme; the
    // header follows the scheme list so new schemes (AB-CP) join
    // automatically.
    let suite = first_benches(profiles::spec2017());
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

    let mut norm_by_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut frac_sums = vec![[0.0f64; 5]; schemes.len()];
    let mut lat_sums = vec![0.0f64; schemes.len()];
    for profile in &suite {
        let reports: Vec<_> = schemes.iter().map(|&s| measured.report(s, profile)).collect();
        let (base, base_bw) = (reports[0].exec_cycles as f64, reports[0].bandwidth());
        let normalized: Vec<f64> = reports.iter().map(|r| r.exec_cycles as f64 / base).collect();
        let lat: Vec<f64> = reports.iter().map(|r| r.mean_online_latency()).collect();
        for (k, report) in reports.iter().enumerate() {
            norm_by_scheme[k].push(normalized[k]);
            lat_sums[k] += lat[k];
            for (j, op) in OramOp::ALL.into_iter().enumerate() {
                frac_sums[k][j] += report.breakdown.fraction(op);
            }
        }
        time.row(&[profile.name], &normalized);
        let bw: Vec<f64> = reports.iter().map(|r| r.bandwidth() / base_bw).collect();
        bandwidth.row(&[profile.name], &bw);
        latency.row(&[profile.name], &lat);
    }
    let means: Vec<f64> = norm_by_scheme.iter().map(|v| geometric_mean(v)).collect();
    time.row(&["geomean"], &means);
    let n = suite.len() as f64;
    for (label, fracs) in scheme_labels.iter().zip(&frac_sums) {
        breakdown.row(&[label.as_str()], &fracs.map(|f| 100.0 * f / n));
    }

    let tables = [&space, &time, &breakdown, &latency].map(Table::to_markdown).join("\n");
    let mut out = format!(
        "# Fig. 8 — main space and performance results\n\n\
         tree: {} levels; warm-up {} accesses/scheme; timed window {} records/benchmark\n\n\
         {tables}\npaper: DR 0.75x space / +3 % time; NS 0.81x / ~0 %; AB 0.645x / +4 %; IR ~1.0x space / +4 % time.\n",
        env.levels, env.warmup, env.timed
    );
    let at = |scheme| schemes.iter().position(|&s| s == scheme);
    if let (Some(ab), Some(cp)) = (at(Scheme::Ab), at(Scheme::AbChannelPar)) {
        out.push_str(&abcp_relation(
            env.levels,
            (lat_sums[ab] / n, lat_sums[cp] / n),
            (means[ab], means[cp]),
        ));
    }
    out.push_str("\nCSV (Fig. 8c):\n");
    out.push_str(&time.to_csv());

    let note = "\npaper: AB increases bandwidth usage by ~1 % on average.\n";
    let out9 = format!("# Fig. 9 — bandwidth impact\n\n{}", markdown_and_csv(&bandwidth, note));
    Ok(vec![("fig08_main_results.md", out), ("fig09_bandwidth.md", out9)])
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

/// Fig. 11 — sensitivity of DR to the starting level.
///
/// `DR-Lk` applies dead-block reclaim from level `k` down to the leaves
/// (paper: DR-L18 … DR-L23 on the 24-level tree; here expressed as the
/// number of bottom levels). Space savings shrink as fewer levels
/// participate, while execution time stays near Baseline.
pub const FIG11_DR_SENSITIVITY: Study = Study {
    name: "fig11_dr_sensitivity",
    windows: |env| mcf_windows(env, &fig11_schemes()),
    render: fig11,
};

/// The baseline, DR with 6..1 bottom levels (table order), and the
/// paper's AB reference point.
fn fig11_schemes() -> Vec<Scheme> {
    std::iter::once(Scheme::Baseline)
        .chain((1..=6u8).rev().map(|bottom| Scheme::Dr { bottom_levels: bottom }))
        .chain(std::iter::once(Scheme::Ab))
        .collect()
}

fn fig11(env: &Experiment, measured: &Measurements) -> Rendered {
    let mut table = Table::new(
        "Fig. 11 — DR sensitivity to the number of participating bottom levels",
        &["config", "normalized space", "normalized time", "extension ratio"],
    );
    table.row(&["Baseline"], &[1.0, 1.0, 0.0]);
    // The paper's DR-L<k> naming.
    let label = |s| match s {
        Scheme::Dr { bottom_levels } => format!("DR-L{}", 24 - bottom_levels),
        _ => s.to_string(),
    };
    for (label, row) in normalized_to_first(env, measured, &fig11_schemes(), label)? {
        table.row(&[&label], &row);
    }
    let note = "\npaper shape: space savings grow as DR starts higher (DR-L18 best at 0.75x); time stays within a few % of Baseline; top levels are not worth reclaiming.\n";
    let out = format!(
        "# Fig. 11 — DR sensitivity analysis\n\n\
         tree: {} levels (configs named for the L = 24 tree)\n\n{}",
        env.levels,
        markdown_and_csv(&table, note)
    );
    Ok(vec![("fig11_dr_sensitivity.md", out)])
}

/// Fig. 13 — NS design exploration.
///
/// Sweeps `Ly-Sx` (shrink S by `x` for the bottom `y` levels) on the CB
/// baseline and reports normalized space and time. The paper picks L2-S2
/// for NS and L3-S1 for AB from this sweep; aggressive settings like L3-S3
/// degrade performance sharply.
pub const FIG13_NS_EXPLORATION: Study = Study {
    name: "fig13_ns_exploration",
    windows: |env| mcf_windows(env, &fig13_schemes()),
    render: fig13,
};

/// The baseline, the full Ly-Sx sweep in table order, and the
/// paper's AB reference point.
fn fig13_schemes() -> Vec<Scheme> {
    let sweep =
        (1..=3u8).flat_map(|y| (1..=3u8).map(move |x| Scheme::Ns { bottom_levels: y, shrink: x }));
    std::iter::once(Scheme::Baseline).chain(sweep).chain(std::iter::once(Scheme::Ab)).collect()
}

fn fig13(env: &Experiment, measured: &Measurements) -> Rendered {
    let mut table = Table::new(
        "Fig. 13 — NS exploration (Ly-Sx on the CB baseline)",
        &["config", "normalized space", "normalized time"],
    );
    table.row(&["Baseline"], &[1.0, 1.0]);
    let label = |s| match s {
        Scheme::Ns { bottom_levels: y, shrink: x } => format!("L{y}-S{x}"),
        _ => s.to_string(),
    };
    for (label, row) in normalized_to_first(env, measured, &fig13_schemes(), label)? {
        table.row(&[&label], &row[..2]);
    }
    let note = "\npaper choice: L2-S2 for NS, L3-S1 inside AB; L3-S3 shows large degradation.\n";
    let out = format!(
        "# Fig. 13 — NS design exploration\n\ntree: {} levels; timed on mcf\n\n{}",
        env.levels,
        markdown_and_csv(&table, note)
    );
    Ok(vec![("fig13_ns_exploration.md", out)])
}

/// Fig. 15 — generalizability over PARSEC-like applications.
///
/// Repeats the main performance experiment with the PARSEC suite. Space
/// results are workload-independent; DR/AB should again land within a few
/// percent of Baseline.
pub const FIG15_PARSEC: Study = Study {
    name: "fig15_parsec",
    windows: |env| timed_windows(env, &first_benches(profiles::parsec()), &Scheme::evaluated()),
    render: fig15,
};

fn fig15(env: &Experiment, measured: &Measurements) -> Rendered {
    let suite = first_benches(profiles::parsec());
    let schemes = Scheme::evaluated();
    let scheme_labels: Vec<String> = schemes.iter().map(ToString::to_string).collect();
    let headers: Vec<&str> =
        std::iter::once("benchmark").chain(scheme_labels.iter().map(String::as_str)).collect();
    let mut table = Table::new("Fig. 15 — PARSEC normalized execution time", &headers);
    let mut norms: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for profile in &suite {
        let exec: Vec<f64> =
            schemes.iter().map(|&s| measured.report(s, profile).exec_cycles as f64).collect();
        let normalized: Vec<f64> = exec.iter().map(|e| e / exec[0]).collect();
        norms.iter_mut().zip(&normalized).for_each(|(norm, v)| norm.push(*v));
        table.row(&[profile.name], &normalized);
    }
    table.row(&["geomean"], &norms.iter().map(|v| geometric_mean(v)).collect::<Vec<_>>());

    let base = env.space_report(Scheme::Baseline)?;
    let mut space =
        Table::new("Fig. 15 — space (workload-independent)", &["scheme", "normalized space"]);
    for scheme in schemes {
        space.row(&[&scheme.to_string()], &[env.normalized_space(scheme, &base)?]);
    }

    let out = format!(
        "# Fig. 15 — PARSEC generalizability\n\n\
         tree: {} levels; timed window {} records/benchmark\n\n{}\n{}\n\
         paper: space savings identical to SPEC; DR ~3 % and AB ~4 % overhead on PARSEC.\n\n\
         CSV:\n{}",
        env.levels,
        env.timed,
        table.to_markdown(),
        space.to_markdown(),
        table.to_csv()
    );
    Ok(vec![("fig15_parsec.md", out)])
}

/// `suite`, cut to its first `ABORAM_BENCHES` benchmarks.
fn first_benches(suite: Vec<BenchmarkProfile>) -> Vec<BenchmarkProfile> {
    suite.into_iter().take(env_knob("ABORAM_BENCHES", usize::MAX)).collect()
}

/// The rows Figs. 4, 11 and 13 share, for every scheme after the first: its
/// `label` ("AB (ref)" for the paper's AB reference point), then space and mcf
/// execution time, both normalized to the first scheme's, and the warmed
/// engine's extension ratio.
fn normalized_to_first(
    env: &Experiment,
    measured: &Measurements,
    schemes: &[Scheme],
    label: impl Fn(Scheme) -> String,
) -> Result<Vec<(String, [f64; 3])>, OramError> {
    let mcf = mcf();
    let base_space = env.space_report(schemes[0])?;
    let base_cycles = measured.report(schemes[0], &mcf).exec_cycles as f64;
    schemes[1..]
        .iter()
        .map(|&scheme| {
            let m = measured.get(&Window::timed(env.warm(scheme)?, &mcf));
            let time = m.report.exec_cycles as f64 / base_cycles;
            let space = env.normalized_space(scheme, &base_space)?;
            let label = if scheme == Scheme::Ab { "AB (ref)".into() } else { label(scheme) };
            Ok((label, [space, time, m.extension_ratio]))
        })
        .collect()
}
