//! The ablations and extensions beyond the paper.

use super::{mcf, mcf_windows};
use crate::{Cell, Churn, Experiment, Measurements, Rendered, Run, Study, Window};
use aboram_core::{OramConfig, OramError, OramOp, PlbConfig, PosMapHierarchy, Scheme};
use aboram_dram::{DramConfig, EnergyParams, EnergyReport};
use aboram_service::{ObliviousStore, StoreConfig, ROOT_MAX_ENTRIES};
use aboram_stats::Table;

/// Ablation studies for the design decisions DESIGN.md calls out:
///
/// 1. DeadQ capacity — where is the extension-ratio knee?
/// 2. Treetop cache depth — how much traffic does the on-chip top save?
/// 3. Background-eviction threshold — stash pressure vs dummy-access cost.
///
/// Each sweep point is a cold cell churned by uniform reads at a fixed
/// scale, and the table reports the metric the decision trades against.
pub const ABLATION_SWEEPS: Study = Study {
    name: "ablation_sweeps",
    windows: |env| Ok(sweep_windows(env)?.concat()),
    render: sweeps,
};

/// The DeadQ capacities swept.
const DEADQ_CAPACITIES: [usize; 5] = [16, 64, 256, 1000, 4096];
/// The background-eviction thresholds swept (stash capacity 300).
const BG_THRESHOLDS: [usize; 5] = [150, 200, 225, 250, 275];
/// §V-C1 strategy (1) vs strategy (2): DR+ extends beyond the baseline for
/// performance instead of saving space; AB's cell also gives the traffic mix.
const STRATEGIES: [Scheme; 4] =
    [Scheme::Baseline, Scheme::DR, Scheme::DrPlus { bottom_levels: 6 }, Scheme::Ab];

/// The treetop depths swept that fit the tree.
fn treetops(env: &Experiment) -> Vec<u8> {
    [1u8, 2, 4, 6, 8].into_iter().filter(|&t| t < env.levels).collect()
}

/// The windows of the four sweeps, one list per table: a uniform churn on
/// a cold cell per sweep point.
fn sweep_windows(env: &Experiment) -> Result<[Vec<Window>; 4], OramError> {
    let accesses = env.protocol_accesses / 2;
    let ab = || OramConfig::builder(env.levels, Scheme::Ab).seed(env.seed);
    let churns = |cfgs: Vec<Result<OramConfig, OramError>>, n| {
        let churn = |cfg| Window::churn(Cell::cold(cfg), Churn::Uniform, n);
        cfgs.into_iter().map(|cfg| cfg.map(churn)).collect::<Result<Vec<_>, _>>()
    };
    Ok([
        churns(DEADQ_CAPACITIES.map(|cap| ab().deadq_capacity(cap).build()).into(), accesses)?,
        churns(
            treetops(env).iter().map(|&t| ab().treetop_levels(t).build()).collect(),
            accesses / 2,
        )?,
        churns(BG_THRESHOLDS.map(|th| ab().stash(300, th).build()).into(), accesses / 2)?,
        churns(STRATEGIES.map(|scheme| env.config(scheme)).into(), accesses / 2)?,
    ])
}

fn sweeps(env: &Experiment, measured: &Measurements) -> Rendered {
    let [deadq, treetop, threshold, strategy] =
        sweep_windows(env)?.map(|ws| ws.iter().map(|w| measured.churned(w)).collect::<Vec<_>>());

    // 1. DeadQ capacity.
    let mut q = Table::new(
        "DeadQ capacity vs AB extension ratio",
        &["capacity", "extension ratio", "rejected enqueues"],
    );
    for (cap, c) in DEADQ_CAPACITIES.iter().zip(&deadq) {
        q.row(&[&cap.to_string()], &[c.end.extension_ratio(), c.deadq_rejected as f64]);
    }

    // 2. Treetop depth.
    let mut t = Table::new(
        "Treetop cache depth vs off-chip traffic (AB)",
        &["cached levels", "off-chip accesses per user access"],
    );
    for (top, c) in treetops(env).iter().zip(&treetop) {
        let per_access = c.sink.grand_total() as f64 / c.end.online_accesses() as f64;
        t.row(&[&top.to_string()], &[per_access]);
    }

    // 3. Background-eviction threshold.
    let mut g = Table::new(
        "Background-eviction threshold vs dummy accesses and stash peak (AB)",
        &["threshold", "bg accesses per 1k user", "stash peak"],
    );
    for (threshold, c) in BG_THRESHOLDS.iter().zip(&threshold) {
        let bg_rate = 1000.0 * c.end.background_accesses as f64 / c.end.user_accesses as f64;
        g.row(&[&threshold.to_string()], &[bg_rate, c.stash_peak as f64]);
    }

    // 4. The DR strategies. 5. The AB traffic mix for context, from the
    // last cell.
    let mut s1 = Table::new(
        "DR strategies: (1) extend beyond baseline (DR+) vs (2) shrink-and-recover (DR)",
        &["scheme", "normalized space", "reshuffles per 1k accesses", "extension ratio"],
    );
    let base_space = env.space_report(Scheme::Baseline)?;
    for (&scheme, c) in STRATEGIES.iter().zip(&strategy).take(3) {
        let space = env.normalized_space(scheme, &base_space)?;
        let resh = 1000.0 * c.end.reshuffles.total() as f64 / c.end.online_accesses() as f64;
        s1.row(&[&scheme.to_string()], &[space, resh, c.end.extension_ratio()]);
    }
    let ab = strategy[3];
    let mut m = Table::new(
        "AB traffic mix at default parameters",
        &["operation", "accesses per user access"],
    );
    for op in OramOp::ALL {
        m.row(&[op.name()], &[ab.sink.total(op) as f64 / ab.end.user_accesses as f64]);
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

/// The mcf window of `scheme` with the given DRAM twin and posmap model.
fn mcf_window(
    env: &Experiment,
    scheme: Scheme,
    dram: DramConfig,
    plb: Option<PlbConfig>,
) -> Result<Window, OramError> {
    Ok(Window { cell: env.warm(scheme)?, run: Run::Timed { profile: mcf(), dram, plb } })
}

/// The mcf window of each scheme with, then without, the priority classes.
fn priority_windows(env: &Experiment) -> Result<Vec<Window>, OramError> {
    let dram = |ignore_priority| DramConfig { ignore_priority, ..DramConfig::default() };
    let modes = |s| [false, true].map(|ignore| mcf_window(env, s, dram(ignore), None));
    BASELINE_AND_AB.into_iter().flat_map(modes).collect()
}

fn priority(env: &Experiment, measured: &Measurements) -> Rendered {
    let mut table = Table::new(
        "DRAM priority ablation — execution time with vs without online priority",
        &["scheme", "with priority (Mcycles)", "without (Mcycles)", "slowdown from removing"],
    );
    for (scheme, pair) in BASELINE_AND_AB.iter().zip(priority_windows(env)?.chunks(2)) {
        let [with, without] = [0, 1].map(|i| measured.get(&pair[i]).report.exec_cycles);
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

fn posmap_windows(env: &Experiment) -> Result<Vec<Window>, OramError> {
    let models = |s| posmap_models().map(|(_, plb)| mcf_window(env, s, DramConfig::default(), plb));
    BASELINE_AND_AB.into_iter().flat_map(models).collect()
}

fn posmap(env: &Experiment, measured: &Measurements) -> Rendered {
    let mut table = Table::new(
        "Recursive position-map extension — execution time vs on-chip budget",
        &["scheme", "posmap model", "exec Mcycles", "accesses per user access", "PLB hit %"],
    );
    for scheme in BASELINE_AND_AB {
        for (label, plb) in posmap_models() {
            let m = measured.get(&mcf_window(env, scheme, DramConfig::default(), plb)?);
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
pub const EXT_ENERGY: Study = Study {
    name: "ext_energy",
    windows: |env| mcf_windows(env, &Scheme::evaluated()),
    render: energy,
};

fn energy(env: &Experiment, measured: &Measurements) -> Rendered {
    let params = EnergyParams::default();
    let dram = DramConfig::default();
    let refi_cycles = dram.timing.t_refi * dram.cpu_clock_ratio;
    let ranks = u64::from(dram.channels) * u64::from(dram.ranks);

    let mut table = Table::new(
        "DRAM energy per scheme (mcf timed window)",
        &["scheme", "dynamic uJ", "refresh uJ", "background uJ", "total uJ", "norm. total"],
    );
    let energies: Vec<(Scheme, EnergyReport)> = mcf_windows(env, &Scheme::evaluated())?
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
            (window.cell.config.scheme, energy)
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
