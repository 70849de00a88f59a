//! Ablation studies for the design decisions DESIGN.md calls out:
//!
//! 1. DeadQ capacity — where is the extension-ratio knee?
//! 2. Treetop cache depth — how much traffic does the on-chip top save?
//! 3. Background-eviction threshold — stash pressure vs dummy-access cost.
//!
//! Each sweep runs the protocol at a fixed scale and reports the metric the
//! decision trades against. Sweep points are independent cells and fan out
//! over the `CellExecutor` (`ABORAM_JOBS`).

use aboram_bench::{emit, telemetry_from_env, CellExecutor, ChurnKind, Experiment};
use aboram_core::{CountingSink, OramConfig, OramOp, RingOram, Scheme};
use aboram_stats::Table;

fn main() {
    let env = Experiment::from_env();
    let _telemetry = telemetry_from_env();
    let accesses = env.protocol_accesses / 2;

    // Every sweep point is an independent protocol cell. Collect them all
    // in report order, fan them out over the executor, then assemble the
    // tables from the ordered results.
    let deadq_caps = [16usize, 64, 256, 1000, 4096];
    let treetops: Vec<u8> = [1u8, 2, 4, 6, 8].into_iter().filter(|&t| t < env.levels).collect();
    let thresholds = [150usize, 200, 225, 250, 275];
    let strategies = [Scheme::Baseline, Scheme::DR, Scheme::DrPlus { bottom_levels: 6 }];

    let mut cells: Vec<(OramConfig, u64)> = Vec::new();
    for cap in deadq_caps {
        let cfg = OramConfig::builder(env.levels, Scheme::Ab)
            .seed(env.seed)
            .deadq_capacity(cap)
            .build()
            .expect("config");
        cells.push((cfg, accesses));
    }
    for &top in &treetops {
        let cfg = OramConfig::builder(env.levels, Scheme::Ab)
            .seed(env.seed)
            .treetop_levels(top)
            .build()
            .expect("config");
        cells.push((cfg, accesses / 2));
    }
    for threshold in thresholds {
        let cfg = OramConfig::builder(env.levels, Scheme::Ab)
            .seed(env.seed)
            .stash(300, threshold)
            .build()
            .expect("config");
        cells.push((cfg, accesses / 2));
    }
    for scheme in strategies {
        cells.push((env.config(scheme).expect("config"), accesses / 2));
    }
    cells.push((env.config(Scheme::Ab).expect("config"), accesses / 2));

    let results: Vec<(RingOram, CountingSink)> =
        CellExecutor::from_env().run(cells, |i, (cfg, n)| {
            let mut run = env.protocol_run_with(cfg, ChurnKind::Uniform).expect("engine builds");
            run.advance(n).expect("protocol ok");
            eprintln!("[cell {i}: {} done]", run.cfg.scheme);
            (run.oram, run.sink)
        });
    let mut results = results.into_iter();
    let mut out = String::from("# Ablation sweeps\n\n");

    // 1. DeadQ capacity.
    let mut q = Table::new(
        "DeadQ capacity vs AB extension ratio",
        &["capacity", "extension ratio", "rejected enqueues"],
    );
    for cap in deadq_caps {
        let (oram, _) = results.next().expect("deadq cell");
        q.row(
            &[&cap.to_string()],
            &[oram.stats().extension_ratio(), oram.deadqs().total_rejected() as f64],
        );
    }
    out.push_str(&q.to_markdown());

    // 2. Treetop depth.
    let mut t = Table::new(
        "Treetop cache depth vs off-chip traffic (AB)",
        &["cached levels", "off-chip accesses per user access"],
    );
    for top in treetops {
        let (oram, sink) = results.next().expect("treetop cell");
        let per_access = sink.grand_total() as f64 / oram.stats().online_accesses() as f64;
        t.row(&[&top.to_string()], &[per_access]);
    }
    out.push('\n');
    out.push_str(&t.to_markdown());

    // 3. Background-eviction threshold.
    let mut g = Table::new(
        "Background-eviction threshold vs dummy accesses and stash peak (AB)",
        &["threshold", "bg accesses per 1k user", "stash peak"],
    );
    for threshold in thresholds {
        let (oram, _) = results.next().expect("threshold cell");
        let bg_rate =
            1000.0 * oram.stats().background_accesses as f64 / oram.stats().user_accesses as f64;
        g.row(&[&threshold.to_string()], &[bg_rate, oram.stash_peak() as f64]);
    }
    out.push('\n');
    out.push_str(&g.to_markdown());

    // 4. §V-C1 strategy (1) vs strategy (2): DR+ extends beyond the
    // baseline for performance instead of saving space.
    let mut s1 = Table::new(
        "DR strategies: (1) extend beyond baseline (DR+) vs (2) shrink-and-recover (DR)",
        &["scheme", "normalized space", "reshuffles per 1k accesses", "extension ratio"],
    );
    let base_space = env.space_report(Scheme::Baseline).expect("config");
    for scheme in strategies {
        let space = env.normalized_space(scheme, &base_space).expect("config");
        let (oram, _) = results.next().expect("strategy cell");
        let resh =
            1000.0 * oram.stats().reshuffles.total() as f64 / oram.stats().online_accesses() as f64;
        s1.row(&[&scheme.to_string()], &[space, resh, oram.stats().extension_ratio()]);
    }
    out.push('\n');
    out.push_str(&s1.to_markdown());

    // 5. Traffic mix summary for context.
    let (oram, sink) = results.next().expect("traffic-mix cell");
    let mut m = Table::new(
        "AB traffic mix at default parameters",
        &["operation", "accesses per user access"],
    );
    for op in OramOp::ALL {
        m.row(&[op.name()], &[sink.total(op) as f64 / oram.stats().user_accesses as f64]);
    }
    out.push('\n');
    out.push_str(&m.to_markdown());

    emit("ablation_sweeps.md", &out);
}
