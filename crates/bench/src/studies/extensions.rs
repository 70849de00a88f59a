//! The ablations and extensions beyond the paper.

use super::{mcf, mcf_windows};
use crate::{CellExecutor, ChurnKind, Experiment, Measurements, Rendered, Study, Window};
use aboram_core::{
    CountingSink, OramConfig, OramError, OramOp, PlbConfig, PosMapHierarchy, RingOram, Scheme,
};
use aboram_dram::{DramConfig, EnergyParams, EnergyReport};
use aboram_service::{ObliviousStore, StoreConfig, ROOT_MAX_ENTRIES};
use aboram_stats::Table;

/// Ablation studies for the design decisions DESIGN.md calls out:
///
/// 1. DeadQ capacity — where is the extension-ratio knee?
/// 2. Treetop cache depth — how much traffic does the on-chip top save?
/// 3. Background-eviction threshold — stash pressure vs dummy-access cost.
///
/// Each sweep runs the protocol at a fixed scale and reports the metric the
/// decision trades against. Sweep points are independent cells and fan out
/// over the `CellExecutor` (`ABORAM_JOBS`).
pub const ABLATION_SWEEPS: Study =
    Study { name: "ablation_sweeps", windows: |_| Vec::new(), render: sweeps };

fn sweeps(env: &Experiment, executor: &CellExecutor, _: &Measurements) -> Rendered {
    let accesses = env.protocol_accesses / 2;
    let ab = || OramConfig::builder(env.levels, Scheme::Ab).seed(env.seed);
    // A sweep's points are independent protocol cells: fan them out, then
    // fill the table from the ordered results.
    let run = |cfgs: Vec<Result<OramConfig, OramError>>, n: u64| {
        let cfgs = cfgs.into_iter().collect::<Result<Vec<_>, _>>()?;
        let cells = executor.run(cfgs, |_, cfg| {
            let mut run = env.protocol_run_with(cfg, ChurnKind::Uniform)?;
            run.advance(n)?;
            Ok((run.oram, run.sink))
        });
        cells.into_iter().collect::<Result<Vec<(RingOram, CountingSink)>, OramError>>()
    };

    // 1. DeadQ capacity.
    let deadq_caps = [16usize, 64, 256, 1000, 4096];
    let mut q = Table::new(
        "DeadQ capacity vs AB extension ratio",
        &["capacity", "extension ratio", "rejected enqueues"],
    );
    let cells = run(deadq_caps.map(|cap| ab().deadq_capacity(cap).build()).into(), accesses)?;
    for (cap, (oram, _)) in deadq_caps.iter().zip(&cells) {
        let rejected = oram.deadqs().total_rejected() as f64;
        q.row(&[&cap.to_string()], &[oram.stats().extension_ratio(), rejected]);
    }

    // 2. Treetop depth.
    let treetops: Vec<u8> = [1u8, 2, 4, 6, 8].into_iter().filter(|&t| t < env.levels).collect();
    let mut t = Table::new(
        "Treetop cache depth vs off-chip traffic (AB)",
        &["cached levels", "off-chip accesses per user access"],
    );
    let cells =
        run(treetops.iter().map(|&top| ab().treetop_levels(top).build()).collect(), accesses / 2)?;
    for (top, (oram, sink)) in treetops.iter().zip(&cells) {
        let per_access = sink.grand_total() as f64 / oram.stats().online_accesses() as f64;
        t.row(&[&top.to_string()], &[per_access]);
    }

    // 3. Background-eviction threshold.
    let thresholds = [150usize, 200, 225, 250, 275];
    let mut g = Table::new(
        "Background-eviction threshold vs dummy accesses and stash peak (AB)",
        &["threshold", "bg accesses per 1k user", "stash peak"],
    );
    let cells = run(thresholds.map(|th| ab().stash(300, th).build()).into(), accesses / 2)?;
    for (threshold, (oram, _)) in thresholds.iter().zip(&cells) {
        let bg_rate =
            1000.0 * oram.stats().background_accesses as f64 / oram.stats().user_accesses as f64;
        g.row(&[&threshold.to_string()], &[bg_rate, oram.stash_peak() as f64]);
    }

    // 4. §V-C1 strategy (1) vs strategy (2): DR+ extends beyond the
    // baseline for performance instead of saving space. 5. The AB traffic
    // mix for context, from the last cell.
    let strategies =
        [Scheme::Baseline, Scheme::DR, Scheme::DrPlus { bottom_levels: 6 }, Scheme::Ab];
    let mut s1 = Table::new(
        "DR strategies: (1) extend beyond baseline (DR+) vs (2) shrink-and-recover (DR)",
        &["scheme", "normalized space", "reshuffles per 1k accesses", "extension ratio"],
    );
    let base_space = env.space_report(Scheme::Baseline)?;
    let cells = run(strategies.map(|scheme| env.config(scheme)).into(), accesses / 2)?;
    for (&scheme, (oram, _)) in strategies.iter().zip(&cells).take(3) {
        let space = env.normalized_space(scheme, &base_space)?;
        let resh =
            1000.0 * oram.stats().reshuffles.total() as f64 / oram.stats().online_accesses() as f64;
        s1.row(&[&scheme.to_string()], &[space, resh, oram.stats().extension_ratio()]);
    }
    let (oram, sink) = &cells[3];
    let mut m = Table::new(
        "AB traffic mix at default parameters",
        &["operation", "accesses per user access"],
    );
    for op in OramOp::ALL {
        m.row(&[op.name()], &[sink.total(op) as f64 / oram.stats().user_accesses as f64]);
    }

    let tables = [q, t, g, s1, m].map(|table| table.to_markdown());
    Ok(vec![("ablation_sweeps.md", format!("# Ablation sweeps\n\n{}", tables.join("\n")))])
}

/// Ablation: online/offline DRAM priority classes.
///
/// The memory scheduler serves readPath traffic ahead of maintenance
/// traffic; disabling the distinction (pure FR-FCFS) puts reshuffles on the
/// user's critical path. This study measures the online-latency cost of
/// removing the priority classes, for Baseline and AB.
pub const ABLATION_DRAM_PRIORITY: Study =
    Study { name: "ablation_dram_priority", windows: priority_windows, render: priority };

/// The schemes of the priority and position-map extensions.
const BASELINE_AND_AB: [Scheme; 2] = [Scheme::Baseline, Scheme::Ab];

/// The mcf window of `scheme` with or without the priority classes.
fn priority_window(scheme: Scheme, ignore_priority: bool) -> Window {
    let dram = DramConfig { ignore_priority, ..DramConfig::default() };
    Window { dram, ..Window::new(scheme, &mcf()) }
}

fn priority_windows(_: &Experiment) -> Vec<Window> {
    let modes = |s| [false, true].map(|ignore| priority_window(s, ignore));
    BASELINE_AND_AB.into_iter().flat_map(modes).collect()
}

fn priority(env: &Experiment, _: &CellExecutor, measured: &Measurements) -> Rendered {
    let mut table = Table::new(
        "DRAM priority ablation — execution time with vs without online priority",
        &["scheme", "with priority (Mcycles)", "without (Mcycles)", "slowdown from removing"],
    );
    for scheme in BASELINE_AND_AB {
        let [with, without] = [false, true]
            .map(|ignore| measured.get(&priority_window(scheme, ignore)).report.exec_cycles);
        table.row(
            &[&scheme.to_string()],
            &[with as f64 / 1e6, without as f64 / 1e6, without as f64 / with as f64],
        );
    }

    let mut out = String::from("# Ablation — online/offline DRAM priority\n\n");
    out.push_str(&format!("tree: {} levels; {} timed records (mcf)\n\n", env.levels, env.timed));
    out.push_str(&table.to_markdown());
    out.push_str(
        "\nexpected: removing the priority classes lets maintenance bursts delay online reads.\n",
    );
    Ok(vec![("ablation_dram_priority.md", out)])
}

/// Extension study — recursive position-map cost.
///
/// The paper (and Table III) keeps the position map on-chip, following the
/// PLB design of Freecursive ORAM. This study quantifies what that
/// assumption hides: with the recursive posmap enabled, PLB misses become
/// additional ORAM accesses. Run for Baseline and AB across PLB budgets.
///
/// A second section cross-checks the accounting model against the **real**
/// recursion chain in `aboram-service` (an actual ladder of Ring ORAM
/// trees serving position entries): same ladder depth, and — with the PLB
/// zeroed so the model pays full depth like the cacheless chain — the same
/// extra accesses per request.
pub const EXT_POSMAP_RECURSION: Study =
    Study { name: "ext_posmap_recursion", windows: posmap_windows, render: posmap };

/// The posmap models per scheme: on-chip (the paper's), then two PLB and
/// on-chip posmap budgets.
fn posmap_models() -> [(&'static str, Option<PlbConfig>); 3] {
    let plb = |plb_kb: u64, posmap_kb: u64| {
        Some(PlbConfig {
            plb_bytes: plb_kb * 1024,
            onchip_posmap_bytes: posmap_kb * 1024,
            entry_bytes: 4,
        })
    };
    [
        ("on-chip (paper)", None),
        ("PLB 64K/posmap 512K", plb(64, 512)),
        ("PLB 16K/posmap 64K", plb(16, 64)),
    ]
}

fn posmap_windows(_: &Experiment) -> Vec<Window> {
    let mcf = mcf();
    BASELINE_AND_AB
        .into_iter()
        .flat_map(|s| posmap_models().map(|(_, plb)| Window { plb, ..Window::new(s, &mcf) }))
        .collect()
}

fn posmap(env: &Experiment, _: &CellExecutor, measured: &Measurements) -> Rendered {
    let mcf = mcf();
    let mut table = Table::new(
        "Recursive position-map extension — execution time vs on-chip budget",
        &["scheme", "posmap model", "exec Mcycles", "accesses per user access", "PLB hit %"],
    );
    for scheme in BASELINE_AND_AB {
        for (label, plb) in posmap_models() {
            let m = measured.get(&Window { plb, ..Window::new(scheme, &mcf) });
            let report = &m.report;
            let row = match m.plb_hit_rate {
                None => [report.exec_cycles as f64 / 1e6, 1.0, 100.0],
                Some(hit_rate) => [
                    report.exec_cycles as f64 / 1e6,
                    report.user_accesses as f64 / report.records as f64,
                    100.0 * hit_rate,
                ],
            };
            table.row(&[&scheme.to_string(), label], &row);
        }
    }

    let mut out = String::from("# Extension — recursive position map\n\n");
    out.push_str(&format!("tree: {} levels; {} timed records (mcf)\n\n", env.levels, env.timed));
    out.push_str(&table.to_markdown());
    out.push_str("\nAt test scale the posmap often fits on-chip; shrink the budgets (or raise ABORAM_LEVELS) to see recursion costs appear.\n\n");
    out.push_str(&real_chain_cross_check(env)?);
    Ok(vec![("ext_posmap_recursion.md", out)])
}

/// Runs the same logical access sequence through the real recursion chain
/// (`aboram_service::RecursivePosMap` under an `ObliviousStore`) and the
/// accounting model, and tabulates both sides' extra accesses per request.
///
/// The model's `PlbConfig` is matched to the chain: 8-byte entries, the
/// on-chip budget equal to the chain's root table, and a zero-byte PLB so
/// the model pays full ladder depth the way the cacheless chain does: both
/// sides must count exactly the same extra accesses.
fn real_chain_cross_check(env: &Experiment) -> Result<String, OramError> {
    let levels = env.levels.min(12);
    let accesses: u64 = 1_000;
    let keys: u64 = 128;
    let mut table = Table::new(
        "Accounting model vs real recursion chain (aboram-service)",
        &["scheme", "chain depth", "model depth", "real extra/req", "model extra/req", "delta %"],
    );
    for scheme in BASELINE_AND_AB {
        let mut cfg = StoreConfig::new(levels, scheme);
        cfg.seed = env.seed;
        let mut store = ObliviousStore::new(&cfg)?;
        let depth = store.posmap().chain_depth() as u64;

        let model_cfg =
            PlbConfig { plb_bytes: 0, onchip_posmap_bytes: ROOT_MAX_ENTRIES * 8, entry_bytes: 8 };
        let mut model = PosMapHierarchy::new(store.capacity(), model_cfg);
        let model_depth = u64::from(model.offchip_levels());
        assert_eq!(model_depth, depth, "ladder depth must agree before counting accesses");

        // Key k occupies block k: the store's free list allocates in order,
        // so both sides see the same logical block sequence.
        let mut model_extra = 0u64;
        for i in 0..accesses {
            let k = i % keys;
            store.put(format!("k{k}").as_bytes(), &i.to_le_bytes());
            model_extra += u64::from(model.access(k));
        }
        let real_extra = store.posmap().stats().tree_accesses;
        assert_eq!(real_extra, accesses * depth, "the chain pays full depth every request");
        assert_eq!(model_extra, real_extra, "{scheme}: model diverged from the real chain");
        let delta = 100.0 * (real_extra as f64 - model_extra as f64) / real_extra as f64;
        table.row(
            &[&scheme.to_string()],
            &[
                depth as f64,
                model_depth as f64,
                real_extra as f64 / accesses as f64,
                model_extra as f64 / accesses as f64,
                delta,
            ],
        );
    }
    let mut out = String::from("## Cross-check — accounting model vs real chain\n\n");
    out.push_str(&format!(
        "service store: L{levels} data tree, {keys}-key working set, {accesses} requests\n\n"
    ));
    out.push_str(&table.to_markdown());
    out.push_str(
        "\nThe analytical model and the real ladder of posmap ORAM trees agree exactly on \
         recursion depth and on extra accesses per request (both asserted).\n",
    );
    Ok(out)
}

/// Extension study — DRAM energy per scheme.
///
/// §III-D motivates space reduction partly through power/energy: a smaller
/// tree means fewer powered devices. This study combines the timing runs
/// with the USIMM-style energy model: dynamic (activate/read/write),
/// refresh, and footprint-proportional background energy.
pub const EXT_ENERGY: Study =
    Study { name: "ext_energy", windows: |_| mcf_windows(Scheme::evaluated()), render: energy };

fn energy(env: &Experiment, _: &CellExecutor, measured: &Measurements) -> Rendered {
    let params = EnergyParams::default();
    let dram = DramConfig::default();
    let refi_cycles = dram.timing.t_refi * dram.cpu_clock_ratio;
    let ranks = u64::from(dram.channels) * u64::from(dram.ranks);

    let mut table = Table::new(
        "DRAM energy per scheme (mcf timed window)",
        &["scheme", "dynamic uJ", "refresh uJ", "background uJ", "total uJ", "norm. total"],
    );
    let energies: Vec<(Scheme, EnergyReport)> = mcf_windows(Scheme::evaluated())
        .iter()
        .map(|window| {
            let m = measured.get(window);
            let energy = EnergyReport::compute(
                &params,
                &m.memory,
                m.report.exec_cycles,
                m.footprint_bytes,
                refi_cycles,
                ranks,
            );
            (window.scheme, energy)
        })
        .collect();
    let base_total = energies[0].1.total_nj();
    for (scheme, energy) in &energies {
        table.row(
            &[&scheme.to_string()],
            &[
                energy.dynamic_nj / 1000.0,
                energy.refresh_nj / 1000.0,
                energy.background_nj / 1000.0,
                energy.total_nj() / 1000.0,
                energy.total_nj() / base_total,
            ],
        );
    }

    let mut out = String::from("# Extension — DRAM energy\n\n");
    out.push_str(&format!("tree: {} levels; {} timed records (mcf)\n\n", env.levels, env.timed));
    out.push_str(&table.to_markdown());
    out.push_str("\nAB's smaller footprint cuts background energy proportionally to its 36 % space reduction; dynamic energy tracks the traffic differences of Fig. 8c.\n");
    Ok(vec![("ext_energy.md", out)])
}
