//! The protocol-level (untimed) studies: Figs. 2, 3, 7, 10, 12 and 14.
//! All but Fig. 7 read churn windows: Fig. 2 plots the transient of a cold
//! engine, the others describe the steady state of a warm one.

use super::markdown_and_csv;
use crate::{Cell, Churn, Churned, Experiment, Measurements, Rendered, Study, Window};
use aboram_core::{attack_success_rate, OramConfig, OramError, Scheme};
use aboram_stats::{LevelHistogram, Table, TimeSeries};
use aboram_trace::{profiles, BenchmarkProfile};
use aboram_tree::Level;

/// Fig. 2 — dead blocks over time.
///
/// Tracks the total number of dead blocks in the ORAM tree as online
/// accesses proceed, for the three benchmarks the paper plots
/// ([`profiles::fig2_benchmarks`]: mcf, lbm, xz) and the average of the
/// whole SPEC-like suite, on the plain Ring ORAM setting the paper's
/// motivation section uses. The paper's curve rises quickly and stabilizes
/// (~18 % of tree space for the 24-level, Z = 12 tree).
pub const FIG02_DEAD_BLOCKS_OVER_TIME: Study =
    Study { name: "fig02_dead_blocks_over_time", windows: fig02_windows, render: fig02 };

/// One trace churn per benchmark on a cold plain Ring ORAM engine.
fn fig02_windows(env: &Experiment) -> Result<Vec<Window>, OramError> {
    let cell = Cell::cold(env.config(Scheme::PlainRing)?);
    let window = |p| Window::churn(cell.clone(), Churn::Trace(p), env.protocol_accesses);
    Ok(profiles::spec2017().into_iter().map(window).collect())
}

fn fig02(env: &Experiment, measured: &Measurements) -> Rendered {
    // The motivational study uses the plain Ring ORAM tree (Z = 12, S = 7).
    let total_slots = env.config(Scheme::PlainRing)?.geometry()?.total_slots();
    let suite = profiles::spec2017();
    let windows = fig02_windows(env)?;
    let mut all_series: Vec<TimeSeries> = Vec::new();
    for (profile, window) in suite.iter().zip(&windows) {
        let mut series = TimeSeries::new(profile.name, "online accesses", "dead blocks");
        for &(online, dead) in &measured.churned(window).dead_samples {
            series.push(online as f64, dead as f64);
        }
        all_series.push(series);
    }
    let average = TimeSeries::average("average", &all_series);

    let mut out = String::from("# Fig. 2 — dead blocks over time\n\n");
    out.push_str(&format!(
        "tree: {} levels (plain Ring ORAM, Z = 12); total slots = {total_slots}\n\n",
        env.levels
    ));
    for name in profiles::fig2_benchmarks() {
        let s = all_series.iter().find(|s| s.name() == name).expect("benchmark in suite");
        out.push_str(&format!("## {name}\n\n{}\n", s.to_csv()));
    }
    out.push_str(&format!("## average (all {} benchmarks)\n\n{}\n", suite.len(), average.to_csv()));

    let stable = average.tail_mean(5).unwrap_or(0.0);
    let pct = 100.0 * (stable / total_slots as f64);
    out.push_str(&format!(
        "\nstabilized dead blocks: {stable:.0} ({pct:.1} % of tree slots; paper: ~18 % at L = 24)\n"
    ));
    Ok(vec![("fig02_dead_blocks_over_time.md", out)])
}

/// Fig. 3 — dead blocks across the tree levels.
///
/// After a long run, reports the number of dead blocks at each level (bars)
/// alongside the number of buckets at that level (line). The paper finds
/// ~2.1 dead blocks per bucket at the last level of the plain Ring ORAM
/// tree.
pub const FIG03_DEAD_BLOCKS_PER_LEVEL: Study =
    Study { name: "fig03_dead_blocks_per_level", windows: fig03_windows, render: fig03 };

/// A mixed churn per representative benchmark on the warm plain Ring ORAM
/// engine: the 50/50 trace/uniform mix covers the whole block space like
/// the paper's 400 M-access run.
fn fig03_windows(env: &Experiment) -> Result<Vec<Window>, OramError> {
    let cell = env.warm(Scheme::PlainRing)?;
    let suite = profiles::spec2017();
    let window = |name| {
        let profile = suite.iter().find(|p| p.name == name).expect("benchmark");
        Window::churn(cell.clone(), Churn::Mixed(profile.clone()), env.protocol_accesses)
    };
    Ok(["mcf", "lbm", "xz", "x264"].map(window).into())
}

fn fig03(env: &Experiment, measured: &Measurements) -> Rendered {
    let geo = env.config(Scheme::PlainRing)?.geometry()?;
    // Average the per-level census at the end of each window.
    let histograms: Vec<LevelHistogram> =
        fig03_windows(env)?.iter().map(|w| measured.churned(w).end.dead_blocks.clone()).collect();
    let sum = LevelHistogram::sum("dead blocks", &histograms);

    let mut table = Table::new(
        "Fig. 3 — dead blocks per level (suite average)",
        &["level", "dead blocks", "buckets", "dead per bucket"],
    );
    for l in 0..env.levels {
        let dead = sum.get(l) as f64 / histograms.len() as f64;
        let buckets = geo.buckets_at_level(Level(l)) as f64;
        table.row(&[&format!("L{l}")], &[dead, buckets, dead / buckets]);
    }
    let leaf = env.levels - 1;
    let last =
        sum.get(leaf) as f64 / histograms.len() as f64 / geo.buckets_at_level(Level(leaf)) as f64;
    let note =
        format!("\nlast level: {last:.2} dead blocks per bucket (paper: ~2.1 at L = 24, Z = 12)\n");
    let out = format!(
        "# Fig. 3 — dead blocks across the levels\n\ntree: {} levels (plain Ring ORAM), warmed by \
         {} uniform reads; census after {} mixed reads per benchmark\n\n{}",
        env.levels,
        env.warmup,
        env.protocol_accesses,
        markdown_and_csv(&table, &note)
    );
    Ok(vec![("fig03_dead_blocks_per_level.md", out)])
}

/// Fig. 7 — empirical security analysis (§VI-C).
///
/// For every benchmark, measures the success rate of an attacker who
/// observes each readPath and guesses uniformly which of the L returned
/// blocks is the real one, under Baseline and AB-ORAM. Both must track the
/// ideal rate 1/L (the paper reports 0.041665 vs 0.041670 at L = 24).
pub const FIG07_SECURITY: Study =
    Study { name: "fig07_security", windows: |_| Ok(Vec::new()), render: fig07 };

fn fig07(env: &Experiment, _: &Measurements) -> Rendered {
    let accesses = env.protocol_accesses / 4;
    let mut table = Table::new(
        "Fig. 7 — attacker success rate per benchmark",
        &["benchmark", "Baseline", "AB-ORAM"],
    );
    let mut sums = [0.0f64; 2];
    let suite = profiles::spec2017();
    for (i, profile) in suite.iter().enumerate() {
        let mut rates = [0.0f64; 2];
        for (k, scheme) in [Scheme::Baseline, Scheme::Ab].into_iter().enumerate() {
            let cfg = OramConfig::builder(env.levels, scheme)
                .seed(env.seed.wrapping_add(i as u64))
                .build()?;
            rates[k] = attack_success_rate(&cfg, accesses)?.success_rate();
            sums[k] += rates[k];
        }
        table.row(&[profile.name], &[rates[0], rates[1]]);
    }
    let n = suite.len() as f64;
    table.row(&["average"], &[sums[0] / n, sums[1] / n]);

    let out = format!(
        "# Fig. 7 — empirical security analysis\n\n\
         tree: {} levels; {accesses} observed accesses per cell; ideal rate 1/L = {:.6}\n\n{}",
        env.levels,
        1.0 / f64::from(env.levels),
        markdown_and_csv(&table, "")
    );
    Ok(vec![("fig07_security.md", out)])
}

/// Fig. 10 — number of earlyReshuffles across the levels, per scheme.
///
/// Paper shape: DR stays closest to Baseline thanks to the S extension; NS
/// jumps at the two shrunken levels; AB sits between, elevated over its
/// bottom three levels.
pub const FIG10_RESHUFFLES_PER_LEVEL: Study =
    Study { name: "fig10_reshuffles_per_level", windows: fig10_windows, render: fig10 };

/// The schemes of Fig. 10: the evaluated ones but AB-CP, which runs AB's
/// protocol and RNG stream and so reshuffles exactly as AB does.
fn fig10_schemes() -> Vec<Scheme> {
    Scheme::evaluated().into_iter().filter(|&s| s != Scheme::AbChannelPar).collect()
}

/// A uniform churn on each scheme's warm engine.
fn fig10_windows(env: &Experiment) -> Result<Vec<Window>, OramError> {
    let window = |s| Ok(Window::churn(env.warm(s)?, Churn::Uniform, env.protocol_accesses));
    fig10_schemes().into_iter().map(window).collect()
}

fn fig10(env: &Experiment, measured: &Measurements) -> Rendered {
    let show_levels = 8.min(env.levels);
    let shown = (env.levels - show_levels)..env.levels;
    let headers: Vec<String> = shown.clone().map(|l| format!("L{l}")).collect();
    let header_refs: Vec<&str> =
        std::iter::once("scheme").chain(headers.iter().map(String::as_str)).collect();
    let mut table = Table::new(
        format!("Fig. 10 — earlyReshuffles per level ({} accesses)", env.protocol_accesses),
        &header_refs,
    );

    for (scheme, window) in fig10_schemes().into_iter().zip(fig10_windows(env)?) {
        let c = measured.churned(&window);
        let r = c.end.reshuffles.delta(&c.start.reshuffles);
        let row: Vec<f64> = shown.clone().map(|l| r.get(l) as f64).collect();
        table.row(&[&scheme.to_string()], &row);
    }

    let note = "\npaper shape: DR ~= Baseline; NS spikes at its two shrunken levels; AB elevated on its bottom three.\n";
    let out = format!(
        "# Fig. 10 — reshuffles across the levels\n\ntree: {} levels, each scheme warmed by {} \
         uniform reads; bottom {show_levels} levels shown\n\n{}",
        env.levels,
        env.warmup,
        markdown_and_csv(&table, note)
    );
    Ok(vec![("fig10_reshuffles_per_level.md", out)])
}

/// Fig. 12 — dead-block lifetime across tree levels.
///
/// Runs the Baseline with lifetime tracking enabled and reports the
/// min / average / max lifetime (in online accesses) of dead blocks per
/// level. Paper shape: near-zero lifetimes above the bottom six levels,
/// orders-of-magnitude larger averages close to the leaves — the
/// observation motivating per-level DeadQ queues.
pub const FIG12_DEAD_BLOCK_LIFETIME: Study =
    Study { name: "fig12_dead_block_lifetime", windows: fig12_windows, render: fig12 };

/// A uniform churn on the warm, lifetime-tracked Baseline engine.
fn fig12_windows(env: &Experiment) -> Result<Vec<Window>, OramError> {
    let config = OramConfig::builder(env.levels, Scheme::Baseline)
        .seed(env.seed)
        .track_lifetimes(true)
        .build()?;
    let cell = Cell { config, warmup: env.warmup };
    Ok(vec![Window::churn(cell, Churn::Uniform, env.protocol_accesses)])
}

fn fig12(env: &Experiment, measured: &Measurements) -> Rendered {
    let stats = &measured.churned(&fig12_windows(env)?[0]).end;
    let mut table = Table::new(
        "Fig. 12 — dead-block lifetime per level (online accesses)",
        &["level", "min", "avg", "max", "samples"],
    );
    for (l, t) in stats.lifetimes.iter().enumerate().take(env.levels.into()) {
        let [min, avg, max] = [t.min(), t.avg(), t.max()].map(|v| v.unwrap_or(0.0));
        table.row(&[&format!("L{l}")], &[min, avg, max, t.count() as f64]);
    }
    let note = "\npaper shape: levels near the root reclaim almost immediately; average lifetime grows orders of magnitude toward the leaves.\n";
    let out = format!(
        "# Fig. 12 — dead-block lifetime analysis\n\n\
         tree: {} levels, Baseline scheme; every reclaim over the {} warm-up and {} window \
         accesses (uniform reads)\n\n{}",
        env.levels,
        env.warmup,
        env.protocol_accesses,
        markdown_and_csv(&table, note)
    );
    Ok(vec![("fig12_dead_block_lifetime.md", out)])
}

/// Fig. 14 — AB-ORAM's capability to extend the S value.
///
/// Reports the fraction of bucket refreshes at DR levels that successfully
/// borrowed the full `r = 2` reclaimed dead slots, for DR and AB, per
/// benchmark. The paper measures ~100 % for DR and ~74 % for AB, and notes
/// the ratio is application-independent.
pub const FIG14_EXTENSION_RATIO: Study =
    Study { name: "fig14_extension_ratio", windows: fig14_windows, render: fig14 };

/// A trace churn per (benchmark × scheme) on the warm DR and AB engines,
/// benchmark-major.
fn fig14_windows(env: &Experiment) -> Result<Vec<Window>, OramError> {
    let cells = [env.warm(Scheme::DR)?, env.warm(Scheme::Ab)?];
    let windows = |p: BenchmarkProfile| {
        cells.clone().map(|c| Window::churn(c, Churn::Trace(p.clone()), env.protocol_accesses))
    };
    Ok(profiles::spec2017().into_iter().flat_map(windows).collect())
}

fn fig14(env: &Experiment, measured: &Measurements) -> Rendered {
    let mut table = Table::new("Fig. 14 — S-extension success ratio", &["benchmark", "DR", "AB"]);
    let suite = profiles::spec2017();
    // The extension ratio over each window only.
    let ratio = |w: &Window| {
        let Churned { start, end, .. } = measured.churned(w);
        let attempted = end.extensions_attempted - start.extensions_attempted;
        (end.extensions_done - start.extensions_done) as f64 / attempted.max(1) as f64
    };
    let cells: Vec<f64> = fig14_windows(env)?.iter().map(ratio).collect();
    let mut sums = [0.0f64; 2];
    for (profile, ratios) in suite.iter().zip(cells.chunks(2)) {
        for (sum, ratio) in sums.iter_mut().zip(ratios) {
            *sum += ratio;
        }
        table.row(&[profile.name], ratios);
    }
    let n = suite.len() as f64;
    table.row(&["average"], &[sums[0] / n, sums[1] / n]);

    let note = "\npaper: DR extends nearly all allocations; AB reaches ~74 %; both application-independent.\n";
    let out = format!(
        "# Fig. 14 — extension-ratio analysis\n\ntree: {} levels, each scheme warmed by {} uniform \
         reads; ratio over {} trace reads per cell\n\n{}",
        env.levels,
        env.warmup,
        env.protocol_accesses,
        markdown_and_csv(&table, note)
    );
    Ok(vec![("fig14_extension_ratio.md", out)])
}
