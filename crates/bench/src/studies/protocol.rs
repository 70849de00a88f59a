//! The protocol-level (untimed) studies: Figs. 2, 3, 7, 10, 12 and 14.

use super::markdown_and_csv;
use crate::{CellExecutor, ChurnKind, Experiment, Measurements, Rendered, Study};
use aboram_core::{attack_success_rate, OramConfig, OramError, Scheme};
use aboram_stats::{LevelHistogram, Table, TimeSeries};
use aboram_trace::profiles;
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
    Study { name: "fig02_dead_blocks_over_time", windows: |_| Vec::new(), render: fig02 };

fn fig02(env: &Experiment, _: &CellExecutor, _: &Measurements) -> Rendered {
    // The motivational study uses the plain Ring ORAM tree (Z = 12, S = 7).
    let total_slots = env.config(Scheme::PlainRing)?.geometry()?.total_slots();
    let total_accesses = env.protocol_accesses;
    let samples = 40u64;
    let sample_every = (total_accesses / samples).max(1);

    let mut all_series: Vec<TimeSeries> = Vec::new();
    let suite = profiles::spec2017();
    for profile in &suite {
        let mut run = env.protocol_run(Scheme::PlainRing, ChurnKind::Trace(profile))?;
        let mut series = TimeSeries::new(profile.name, "online accesses", "dead blocks");
        run.advance_with(total_accesses, |i, oram| {
            if i % sample_every == 0 {
                series
                    .push(oram.stats().online_accesses() as f64, oram.stats().dead_total() as f64);
            }
        })?;
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
    Study { name: "fig03_dead_blocks_per_level", windows: |_| Vec::new(), render: fig03 };

fn fig03(env: &Experiment, _: &CellExecutor, _: &Measurements) -> Rendered {
    let geo = env.config(Scheme::PlainRing)?.geometry()?;

    // Average the per-level census over a few representative benchmarks.
    // The 50/50 trace/uniform mix covers the whole block space like the
    // paper's 400 M-access run.
    let suite = profiles::spec2017();
    let picks = ["mcf", "lbm", "xz", "x264"];
    let mut histograms: Vec<LevelHistogram> = Vec::new();
    for name in picks {
        let profile = suite.iter().find(|p| p.name == name).expect("benchmark");
        let mut run = env.protocol_run(Scheme::PlainRing, ChurnKind::Mixed(profile))?;
        run.advance(env.protocol_accesses)?;
        histograms.push(run.oram.stats().dead_blocks.clone());
    }
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
    let out =
        format!("# Fig. 3 — dead blocks across the levels\n\n{}", markdown_and_csv(&table, &note));
    Ok(vec![("fig03_dead_blocks_per_level.md", out)])
}

/// Fig. 7 — empirical security analysis (§VI-C).
///
/// For every benchmark, measures the success rate of an attacker who
/// observes each readPath and guesses uniformly which of the L returned
/// blocks is the real one, under Baseline and AB-ORAM. Both must track the
/// ideal rate 1/L (the paper reports 0.041665 vs 0.041670 at L = 24).
pub const FIG07_SECURITY: Study =
    Study { name: "fig07_security", windows: |_| Vec::new(), render: fig07 };

fn fig07(env: &Experiment, _: &CellExecutor, _: &Measurements) -> Rendered {
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
    Study { name: "fig10_reshuffles_per_level", windows: |_| Vec::new(), render: fig10 };

fn fig10(env: &Experiment, _: &CellExecutor, _: &Measurements) -> Rendered {
    let show_levels = 8.min(env.levels);
    let shown = (env.levels - show_levels)..env.levels;
    let headers: Vec<String> = shown.clone().map(|l| format!("L{l}")).collect();
    let header_refs: Vec<&str> =
        std::iter::once("scheme").chain(headers.iter().map(String::as_str)).collect();
    let mut table = Table::new(
        format!("Fig. 10 — earlyReshuffles per level ({} accesses)", env.protocol_accesses),
        &header_refs,
    );

    for scheme in Scheme::evaluated() {
        eprintln!("[running {scheme}]");
        let mut run = env.protocol_run(scheme, ChurnKind::Uniform)?;
        run.advance(env.protocol_accesses)?;
        let r = &run.oram.stats().reshuffles;
        let row: Vec<f64> = shown.clone().map(|l| r.get(l) as f64).collect();
        table.row(&[&scheme.to_string()], &row);
    }

    let note = "\npaper shape: DR ~= Baseline; NS spikes at its two shrunken levels; AB elevated on its bottom three.\n";
    let out = format!(
        "# Fig. 10 — reshuffles across the levels\n\ntree: {} levels; bottom {show_levels} levels \
         shown\n\n{}",
        env.levels,
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
    Study { name: "fig12_dead_block_lifetime", windows: |_| Vec::new(), render: fig12 };

fn fig12(env: &Experiment, _: &CellExecutor, _: &Measurements) -> Rendered {
    let cfg = OramConfig::builder(env.levels, Scheme::Baseline)
        .seed(env.seed)
        .track_lifetimes(true)
        .build()?;
    let accesses = env.protocol_accesses.max(env.warmup);
    eprintln!("[running {} accesses with lifetime tracking]", accesses);
    let mut run = env.protocol_run_with(cfg, ChurnKind::Uniform)?;
    run.advance(accesses)?;
    let oram = &run.oram;

    let mut table = Table::new(
        "Fig. 12 — dead-block lifetime per level (online accesses)",
        &["level", "min", "avg", "max", "samples"],
    );
    for (l, t) in oram.stats().lifetimes.iter().enumerate().take(env.levels.into()) {
        let [min, avg, max] = [t.min(), t.avg(), t.max()].map(|v| v.unwrap_or(0.0));
        table.row(&[&format!("L{l}")], &[min, avg, max, t.count() as f64]);
    }
    let note = "\npaper shape: levels near the root reclaim almost immediately; average lifetime grows orders of magnitude toward the leaves.\n";
    let out = format!(
        "# Fig. 12 — dead-block lifetime analysis\n\n\
         tree: {} levels, {accesses} accesses, Baseline scheme\n\n{}",
        env.levels,
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
    Study { name: "fig14_extension_ratio", windows: |_| Vec::new(), render: fig14 };

fn fig14(env: &Experiment, executor: &CellExecutor, _: &Measurements) -> Rendered {
    let mut table = Table::new("Fig. 14 — S-extension success ratio", &["benchmark", "DR", "AB"]);
    let suite: Vec<_> = profiles::spec2017();
    // Every (benchmark × scheme) cell builds its own engine from its own
    // seed: fan them all out, then assemble the table from the ordered
    // results.
    let schemes = [Scheme::DR, Scheme::Ab];
    let grid: Vec<(usize, Scheme)> =
        (0..suite.len()).flat_map(|p| schemes.map(|scheme| (p, scheme))).collect();
    let cells = executor.run(grid, |_, (p, scheme)| {
        eprintln!("[benchmark {} / {scheme}]", suite[p].name);
        let mut run = env.protocol_run(scheme, ChurnKind::Trace(&suite[p]))?;
        // Warm up so the DeadQ economy reaches steady state, then measure
        // the extension ratio over the steady window only.
        run.advance(env.warmup.min(env.protocol_accesses))?;
        let (att0, done0) =
            (run.oram.stats().extensions_attempted, run.oram.stats().extensions_done);
        run.advance(env.protocol_accesses)?;
        let att = run.oram.stats().extensions_attempted - att0;
        let done = run.oram.stats().extensions_done - done0;
        Ok(if att == 0 { 0.0 } else { done as f64 / att as f64 })
    });
    let cells = cells.into_iter().collect::<Result<Vec<f64>, OramError>>()?;
    let mut sums = [0.0f64; 2];
    for (profile, ratios) in suite.iter().zip(cells.chunks(schemes.len())) {
        for (sum, ratio) in sums.iter_mut().zip(ratios) {
            *sum += ratio;
        }
        table.row(&[profile.name], ratios);
    }
    let n = suite.len() as f64;
    table.row(&["average"], &[sums[0] / n, sums[1] / n]);

    let note = "\npaper: DR extends nearly all allocations; AB reaches ~74 %; both application-independent.\n";
    let out = format!(
        "# Fig. 14 — extension-ratio analysis\n\ntree: {} levels; {} accesses per cell\n\n{}",
        env.levels,
        env.protocol_accesses,
        markdown_and_csv(&table, note)
    );
    Ok(vec![("fig14_extension_ratio.md", out)])
}
