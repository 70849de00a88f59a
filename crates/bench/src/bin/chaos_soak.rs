//! Chaos soak campaign: randomized fault injection across every scheme,
//! fault site and rate, with a recovered-or-reported guarantee.
//!
//! Each cell of the (scheme × site-subset × rate) grid runs the same
//! deterministic read/write workload twice on a `store_data` engine with
//! integrity verification armed: once fault-free (the golden run) and once
//! under a seeded [`FaultPlan`]. The harness then asserts that every
//! injected fault was either
//!
//! * **recovered bit-exactly** — the data digest *and* the stash-rooted
//!   integrity root digest match the golden run, and every detected fault
//!   is counted recovered — or
//! * **reported** — unrecovered faults appear in `RecoveryStats`, health is
//!   `Degraded`, the poisoned-subtree map is non-empty, and the root digest
//!   diverges from the golden run.
//!
//! A fault that is neither (silently absorbed) fails the campaign with a
//! nonzero exit. Outcomes are appended as a JSONL fault-outcome ledger
//! (`results/chaos_ledger.jsonl` by default) via the `aboram-telemetry`
//! collector, and aggregate totals land in `results/recovery_summary.txt`
//! where `run_all` picks them up for its end-of-suite summary.
//!
//! ```text
//! cargo run --release -p aboram-bench --bin chaos_soak
//! cargo run --release -p aboram-bench --bin chaos_soak -- --smoke --seed 42
//! cargo run --release -p aboram-bench --bin chaos_soak -- --jobs 4 --ledger out.jsonl
//! ```

use aboram_bench::{derive_cell_seed, emit, refuse, CellExecutor};
use aboram_core::{
    AccessKind, CountingSink, FaultConfig, FaultInjectingSink, FaultPlan, HealthState, OramConfig,
    OramError, RecoveryStats, Scheme, BLOCK_BYTES,
};
use aboram_stats::{fnv1a64, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Soak scale: small enough that the full grid finishes in minutes, deep
/// enough that every level class (treetop, middle, bottom) is exercised.
const SOAK_LEVELS: u8 = 9;
const SOAK_ACCESSES: u64 = 1_500;
const SMOKE_LEVELS: u8 = 8;
const SMOKE_ACCESSES: u64 = 120;

/// All six schemes of the golden harness — the soak covers the whole
/// protocol family, not just the paper's evaluated subset.
const SCHEMES: [Scheme; 6] =
    [Scheme::PlainRing, Scheme::Baseline, Scheme::Ir, Scheme::DR, Scheme::NS, Scheme::Ab];

/// Named site subsets: which of (data, metadata, write-ack) fault.
const SITE_SETS: [(&str, [bool; 3]); 4] = [
    ("all", [true, true, true]),
    ("data", [true, false, false]),
    ("metadata", [false, true, false]),
    ("write-ack", [false, false, true]),
];

/// Swept per-poll fault rates. The storm rate (0.9) is high enough that
/// runs of consecutive faults exhaust the recovery ladder, so the campaign
/// exercises the degraded/reported path, not just clean recovery.
const RATES: [f64; 3] = [0.002, 0.02, 0.9];
const SMOKE_RATES: [f64; 2] = [0.01, 0.9];

#[derive(Debug, Clone, Copy)]
struct Cell {
    scheme: Scheme,
    sites: (&'static str, [bool; 3]),
    rate: f64,
}

/// How one cell's injected faults were resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The plan injected nothing (rates too low for this workload).
    Clean,
    /// Every fault recovered; digests bit-identical to the golden run.
    Recovered,
    /// Ladder exhausted somewhere; degradation reported, never absorbed.
    Reported,
    /// Injected faults left no trace — the failure the soak exists to catch.
    Silent,
}

impl Outcome {
    fn as_str(self) -> &'static str {
        match self {
            Outcome::Clean => "clean",
            Outcome::Recovered => "recovered",
            Outcome::Reported => "reported",
            Outcome::Silent => "silent",
        }
    }
}

#[derive(Debug)]
struct CellReport {
    cell: Cell,
    outcome: Outcome,
    injected: u64,
    recovery: RecoveryStats,
    health: HealthState,
    poisoned: u64,
    /// Why a cell was classified `Silent` (or failed outright).
    complaint: Option<String>,
}

/// The digests one workload run produces: an FNV fold of every read's
/// returned bytes, plus the integrity verifier's stash-rooted root.
struct RunDigest {
    data: u64,
    root: u64,
    recovery: RecoveryStats,
    health: HealthState,
    poisoned: u64,
    injected: u64,
}

fn fault_config(sites: [bool; 3], rate: f64) -> FaultConfig {
    FaultConfig {
        data_bit_flip: if sites[0] { rate } else { 0.0 },
        metadata_corruption: if sites[1] { rate } else { 0.0 },
        dropped_write: if sites[2] { rate } else { 0.0 },
        // Channel stalls are a timing-model concern; the soak runs
        // protocol-mode cells (no DRAM twin), so none are scheduled.
        stall_events: 0,
        ..FaultConfig::default()
    }
}

/// Runs the cell's deterministic read/write workload on a fresh
/// integrity-armed engine, optionally under a fault plan.
fn drive(
    cfg: &OramConfig,
    accesses: u64,
    access_seed: u64,
    plan: Option<FaultPlan>,
) -> Result<RunDigest, OramError> {
    let mut oram = aboram_bench::Cell::cold(cfg.clone()).build()?;
    oram.enable_integrity();
    let mut sink = FaultInjectingSink::new(CountingSink::new());
    sink.set_plan(plan);
    let mut rng = StdRng::seed_from_u64(access_seed);
    let blocks = cfg.real_block_count();
    let mut data_digest = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..accesses {
        let block = rng.gen_range(0..blocks);
        if i % 3 == 0 {
            let mut payload = [0u8; BLOCK_BYTES];
            payload[..8].copy_from_slice(&(i ^ block).to_le_bytes());
            payload[8..16].copy_from_slice(&block.to_le_bytes());
            oram.access(AccessKind::Write, block, Some(payload), &mut sink)?;
        } else {
            let got = oram.access(AccessKind::Read, block, None, &mut sink)?;
            if let Some(bytes) = got {
                data_digest = fnv1a64(&bytes) ^ data_digest.rotate_left(1);
            }
        }
    }
    let verifier = oram.integrity().expect("verifier armed above");
    Ok(RunDigest {
        data: data_digest,
        root: verifier.root_digest(),
        recovery: oram.stats().recovery,
        health: oram.health(),
        poisoned: verifier.poisoned_subtrees().len() as u64,
        injected: sink.injected().total(),
    })
}

/// Runs one grid cell (golden + faulted) and classifies the outcome.
fn run_cell(index: usize, cell: Cell, levels: u8, accesses: u64, seed: u64) -> CellReport {
    let fail = |msg: String| CellReport {
        cell,
        outcome: Outcome::Silent,
        injected: 0,
        recovery: RecoveryStats::new(),
        health: HealthState::Healthy,
        poisoned: 0,
        complaint: Some(msg),
    };
    let cfg = match OramConfig::builder(levels, cell.scheme)
        .seed(derive_cell_seed(seed, index as u64))
        .store_data(true)
        .build()
    {
        Ok(cfg) => cfg,
        Err(e) => return fail(format!("config: {e}")),
    };
    let access_seed = derive_cell_seed(seed ^ 0xacce_55ed, index as u64);
    let golden = match drive(&cfg, accesses, access_seed, None) {
        Ok(g) => g,
        Err(e) => return fail(format!("golden run: {e}")),
    };
    if !golden.recovery.is_clean() || golden.injected != 0 {
        return fail("golden run was not fault-free".to_string());
    }
    let plan_seed = derive_cell_seed(seed ^ 0xfa17_5eed, index as u64);
    let plan = FaultPlan::with_config(plan_seed, fault_config(cell.sites.1, cell.rate));
    let faulted = match drive(&cfg, accesses, access_seed, Some(plan)) {
        Ok(f) => f,
        Err(e) => return fail(format!("faulted run aborted instead of degrading: {e}")),
    };

    let r = faulted.recovery;
    let mut complaint = None;
    let outcome = if faulted.injected == 0 {
        if faulted.data != golden.data || faulted.root != golden.root {
            complaint = Some("zero-fault run diverged from golden digests".to_string());
            Outcome::Silent
        } else {
            Outcome::Clean
        }
    } else if r.unrecovered_faults == 0 {
        // Everything claims recovered: the claim must be bit-exact and
        // every detection must be accounted as a recovery.
        if faulted.data == golden.data
            && faulted.root == golden.root
            && faulted.health.is_healthy()
            && r.faults_detected() > 0
            && r.faults_detected() == r.faults_recovered()
        {
            Outcome::Recovered
        } else {
            complaint = Some(format!(
                "{} fault(s) injected but neither bit-exact nor reported \
                 (detected {}, recovered {}, data {}, root {})",
                faulted.injected,
                r.faults_detected(),
                r.faults_recovered(),
                if faulted.data == golden.data { "ok" } else { "DIVERGED" },
                if faulted.root == golden.root { "ok" } else { "DIVERGED" },
            ));
            Outcome::Silent
        }
    } else {
        // Ladder exhaustion must be loudly reported: degraded health, a
        // poisoned subtree, and a tainted (diverged) root digest.
        if !faulted.health.is_healthy() && faulted.poisoned > 0 && faulted.root != golden.root {
            Outcome::Reported
        } else {
            complaint = Some(format!(
                "{} unrecovered fault(s) under-reported (health {}, {} poisoned, root {})",
                r.unrecovered_faults,
                faulted.health,
                faulted.poisoned,
                if faulted.root == golden.root { "UNCHANGED" } else { "tainted" },
            ));
            Outcome::Silent
        }
    };
    if faulted.data != golden.data {
        complaint.get_or_insert_with(|| "returned data diverged from golden run".to_string());
    }
    CellReport {
        cell,
        outcome: if complaint.is_some() { Outcome::Silent } else { outcome },
        injected: faulted.injected,
        recovery: r,
        health: faulted.health,
        poisoned: faulted.poisoned,
        complaint,
    }
}

fn ledger_line(index: usize, rep: &CellReport) -> String {
    let r = &rep.recovery;
    format!(
        concat!(
            "{{\"cell\":{},\"scheme\":\"{}\",\"sites\":\"{}\",\"rate\":{},",
            "\"injected\":{},\"detected\":{},\"recovered\":{},\"retries\":{},",
            "\"redundant_refetches\":{},\"unrecovered\":{},\"escalated_evictions\":{},",
            "\"backoff_cycles\":{},\"poisoned_subtrees\":{},\"health\":\"{}\",",
            "\"outcome\":\"{}\"}}\n"
        ),
        index,
        rep.cell.scheme,
        rep.cell.sites.0,
        rep.cell.rate,
        rep.injected,
        r.faults_detected(),
        r.faults_recovered(),
        r.retries(),
        r.redundant_refetches,
        r.unrecovered_faults,
        r.escalated_evictions,
        r.backoff_cycles,
        rep.poisoned,
        rep.health,
        rep.outcome.as_str(),
    )
}

struct Args {
    smoke: bool,
    seed: u64,
    ledger: String,
}

fn parse_args(args: &[String]) -> Args {
    let mut out =
        Args { smoke: false, seed: 2023, ledger: "results/chaos_ledger.jsonl".to_string() };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => out.smoke = true,
            "--seed" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| refuse("--seed needs a value"));
                out.seed = v.parse().unwrap_or_else(|_| refuse(format!("bad seed {v:?}")));
            }
            "--ledger" => {
                i += 1;
                out.ledger =
                    args.get(i).unwrap_or_else(|| refuse("--ledger needs a path")).to_string();
            }
            "--jobs" => i += 1, // consumed by CellExecutor::from_env_or_args
            "--help" | "-h" => refuse(
                "usage: chaos_soak [--smoke] [--seed <n>] [--jobs <n>] [--ledger <out.jsonl>]",
            ),
            other => refuse(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    out
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw);
    let executor = CellExecutor::from_env_or_args(&raw);
    type SiteSets = &'static [(&'static str, [bool; 3])];
    let (levels, accesses, rates, site_sets): (u8, u64, &[f64], SiteSets) = if args.smoke {
        (SMOKE_LEVELS, SMOKE_ACCESSES, &SMOKE_RATES, &SITE_SETS[..1])
    } else {
        (SOAK_LEVELS, SOAK_ACCESSES, &RATES, &SITE_SETS[..])
    };

    let mut cells = Vec::new();
    for &scheme in &SCHEMES {
        for &sites in site_sets {
            for &rate in rates {
                cells.push(Cell { scheme, sites, rate });
            }
        }
    }
    eprintln!(
        "[chaos_soak{}] {} cells (6 schemes x {} site set(s) x {} rate(s)) · L={levels} · \
         {accesses} accesses/run · seed {} · {} worker(s)",
        if args.smoke { " --smoke" } else { "" },
        cells.len(),
        site_sets.len(),
        rates.len(),
        args.seed,
        executor.jobs(),
    );

    let seed = args.seed;
    let reports = executor.run(cells, |index, cell| run_cell(index, cell, levels, accesses, seed));

    // Fault-outcome ledger, one JSONL record per cell in grid order.
    if let Some(dir) = std::path::Path::new(&args.ledger).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match aboram_telemetry::Collector::to_file(std::path::Path::new(&args.ledger)) {
        Ok(mut collector) => {
            for (i, rep) in reports.iter().enumerate() {
                collector.append_raw(&ledger_line(i, rep));
            }
            if collector.flush().is_ok() {
                eprintln!("[fault-outcome ledger -> {}]", args.ledger);
            }
        }
        Err(e) => eprintln!("warning: could not open ledger {} ({e})", args.ledger),
    }

    let mut table = Table::new(
        format!("Chaos soak — fault outcomes (seed {})", args.seed),
        &["scheme", "sites", "rate", "injected", "recovered", "unrecovered", "outcome"],
    );
    let mut totals = RecoveryStats::new();
    let mut injected_total = 0u64;
    let mut counts = [0u64; 4]; // clean / recovered / reported / silent
    let mut silent: Vec<String> = Vec::new();
    for (i, rep) in reports.iter().enumerate() {
        totals.merge(&rep.recovery);
        injected_total += rep.injected;
        counts[match rep.outcome {
            Outcome::Clean => 0,
            Outcome::Recovered => 1,
            Outcome::Reported => 2,
            Outcome::Silent => 3,
        }] += 1;
        if let Some(c) = &rep.complaint {
            silent.push(format!(
                "cell {i} ({} / {} / rate {}): {c}",
                rep.cell.scheme, rep.cell.sites.0, rep.cell.rate
            ));
        }
        table.row(
            &[&rep.cell.scheme.to_string(), rep.cell.sites.0, &format!("{}", rep.cell.rate)],
            &[
                rep.injected as f64,
                rep.recovery.faults_recovered() as f64,
                rep.recovery.unrecovered_faults as f64,
                // 0 clean / 1 recovered / 2 reported / 3 silent; the
                // outcome string itself lives in the JSONL ledger.
                rep.outcome as u8 as f64,
            ],
        );
    }

    let summary = format!(
        "chaos soak (seed {seed}): {cells} cells, {injected_total} fault(s) injected; \
         outcomes: {clean} clean / {recovered} recovered / {reported} reported / {silent_n} silent\n\
         {totals}\n",
        seed = args.seed,
        cells = reports.len(),
        clean = counts[0],
        recovered = counts[1],
        reported = counts[2],
        silent_n = counts[3],
    );
    emit("chaos_soak.md", &format!("{}\n{summary}", table.to_markdown()));
    if std::fs::create_dir_all("results").is_ok() {
        if let Err(e) = std::fs::write("results/recovery_summary.txt", &summary) {
            eprintln!("warning: could not write results/recovery_summary.txt ({e})");
        }
    }
    eprint!("{summary}");

    if counts[3] > 0 {
        for line in &silent {
            eprintln!("SILENT ABSORPTION: {line}");
        }
        std::process::exit(1);
    }
    assert!(
        counts[1] + counts[2] > 0,
        "the campaign injected faults into no cell — rates or scale are broken"
    );
}
