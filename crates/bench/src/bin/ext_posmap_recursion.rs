//! Extension study — recursive position-map cost.
//!
//! The paper (and Table III) keeps the position map on-chip, following the
//! PLB design of Freecursive ORAM. This study quantifies what that
//! assumption hides: with the recursive posmap enabled, PLB misses become
//! additional ORAM accesses. Run for Baseline and AB across PLB budgets.
//!
//! A second section cross-checks the accounting model against the **real**
//! recursion chain in `aboram-service` (an actual ladder of Ring ORAM
//! trees serving position entries): same ladder depth, and — with the PLB
//! zeroed so the model pays full depth like the cacheless chain — the same
//! extra accesses per request.

use aboram_bench::{emit, Experiment};
use aboram_core::{PlbConfig, PosMapHierarchy, Scheme, TimingDriver};
use aboram_dram::DramConfig;
use aboram_service::{ObliviousStore, StoreConfig, ROOT_MAX_ENTRIES};
use aboram_stats::Table;
use aboram_trace::{profiles, TraceGenerator};

fn main() {
    let env = Experiment::from_env();
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf");

    let mut table = Table::new(
        "Recursive position-map extension — execution time vs on-chip budget",
        &["scheme", "posmap model", "exec Mcycles", "accesses per user access", "PLB hit %"],
    );
    for scheme in [Scheme::Baseline, Scheme::Ab] {
        eprintln!("[warming {scheme}]");
        let oram = env.warmed_oram(scheme).expect("warm-up ok");

        // On-chip posmap (the paper's model).
        let mut base_driver = TimingDriver::from_oram(oram.clone(), DramConfig::default());
        let mut gen = TraceGenerator::new(&profile, env.seed);
        let base = base_driver.run((0..env.timed).map(|_| gen.next_record())).expect("run ok");
        table.row(
            &[&scheme.to_string(), "on-chip (paper)"],
            &[base.exec_cycles as f64 / 1e6, 1.0, 100.0],
        );

        for (label, plb_kb, posmap_kb) in
            [("PLB 64K/posmap 512K", 64u64, 512u64), ("PLB 16K/posmap 64K", 16, 64)]
        {
            let cfg = PlbConfig {
                plb_bytes: plb_kb * 1024,
                onchip_posmap_bytes: posmap_kb * 1024,
                entry_bytes: 4,
            };
            let mut driver = TimingDriver::from_oram(oram.clone(), DramConfig::default());
            driver.enable_posmap_recursion(cfg);
            let mut gen = TraceGenerator::new(&profile, env.seed);
            let report = driver.run((0..env.timed).map(|_| gen.next_record())).expect("run ok");
            let model = driver.posmap_model().expect("enabled");
            table.row(
                &[&scheme.to_string(), label],
                &[
                    report.exec_cycles as f64 / 1e6,
                    report.user_accesses as f64 / report.records as f64,
                    100.0 * model.plb_hit_rate(),
                ],
            );
            eprintln!("[{scheme} {label} done]");
        }
    }

    let mut out = String::from("# Extension — recursive position map\n\n");
    out.push_str(&format!("tree: {} levels; {} timed records (mcf)\n\n", env.levels, env.timed));
    out.push_str(&table.to_markdown());
    out.push_str("\nAt test scale the posmap often fits on-chip; shrink the budgets (or raise ABORAM_LEVELS) to see recursion costs appear.\n\n");
    out.push_str(&real_chain_cross_check(&env));
    emit("ext_posmap_recursion.md", &out);
}

/// Runs the same logical access sequence through the real recursion chain
/// (`aboram_service::RecursivePosMap` under an `ObliviousStore`) and the
/// accounting model, and tabulates both sides' extra accesses per request.
///
/// The model's `PlbConfig` is matched to the chain: 8-byte entries, the
/// on-chip budget equal to the chain's root table, and a zero-byte PLB so
/// the model pays full ladder depth the way the cacheless chain does: both
/// sides must count exactly the same extra accesses.
fn real_chain_cross_check(env: &Experiment) -> String {
    let levels = env.levels.min(12);
    let accesses: u64 = 1_000;
    let keys: u64 = 128;
    let mut table = Table::new(
        "Accounting model vs real recursion chain (aboram-service)",
        &["scheme", "chain depth", "model depth", "real extra/req", "model extra/req", "delta %"],
    );
    for scheme in [Scheme::Baseline, Scheme::Ab] {
        let mut cfg = StoreConfig::new(levels, scheme);
        cfg.seed = env.seed;
        let mut store = ObliviousStore::new(&cfg).expect("store");
        let depth = store.posmap().chain_depth() as u64;

        let model_cfg =
            PlbConfig { plb_bytes: 0, onchip_posmap_bytes: ROOT_MAX_ENTRIES * 8, entry_bytes: 8 };
        let mut model = PosMapHierarchy::new(store.capacity(), model_cfg);
        assert_eq!(
            u64::from(model.offchip_levels()),
            depth,
            "ladder depth must agree before counting accesses"
        );

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
                f64::from(model.offchip_levels()),
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
    out
}
