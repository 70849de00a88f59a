//! `aboram` — command-line front end for the AB-ORAM simulator.
//!
//! Subcommands:
//!
//! * `space [--levels L]` — closed-form space/utilization table for every
//!   scheme (Fig. 8a/8b as a calculator).
//! * `simulate --scheme S [--levels L] [--trace FILE | --benchmark NAME]
//!   [--records N] [--warmup N] [--faults SEED] [--telemetry OUT.jsonl]` —
//!   run a timing simulation and print the report. `--trace` accepts a
//!   USIMM-format text trace; `--faults` enables seeded fault injection
//!   (see DESIGN.md §6); `--telemetry` exports a phase-level JSONL trace
//!   consumable by the `perf_report` binary (see DESIGN.md §7).
//! * `gen-trace --benchmark NAME --records N [--out FILE]` — export a
//!   synthetic Table IV workload in USIMM format.
//! * `security --scheme S [--accesses N]` — run the §VI-C attacker
//!   experiment.
//! * `serve-demo [--scheme S] [--levels L] [--requests N] [--batch B]
//!   [--period P] [--timed]` — run the oblivious key-value service layer
//!   (`aboram-service`): a store with a real recursive position map behind
//!   a fixed-schedule batching front-end, fed a Zipf workload; prints the
//!   latency/throughput summary and the recursion-chain evidence.
//!
//! Examples:
//!
//! ```text
//! aboram space --levels 24
//! aboram gen-trace --benchmark mcf --records 100000 --out mcf.trace
//! aboram simulate --scheme ab --trace mcf.trace --warmup 500000
//! aboram security --scheme ab --accesses 200000
//! ```

use aboram::core::{attack_success_rate, FaultPlan, OramConfig, OramOp, Scheme, TimingDriver};
use aboram::dram::DramConfig;
use aboram::stats::Table;
use aboram::trace::io::{parse_trace, write_trace};
use aboram::trace::{profiles, TraceGenerator, TraceRecord};
use std::io::BufReader;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "space" => cmd_space(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "gen-trace" => cmd_gen_trace(&args[1..]),
        "security" => cmd_security(&args[1..]),
        "serve-demo" => cmd_serve_demo(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  aboram space      [--levels L]
  aboram simulate   --scheme S [--levels L] [--trace FILE | --benchmark NAME]
                    [--records N] [--warmup N] [--faults SEED]
                    [--telemetry OUT.jsonl]
  aboram gen-trace  --benchmark NAME --records N [--out FILE]
  aboram security   --scheme S [--levels L] [--accesses N]
  aboram serve-demo [--scheme S] [--levels L] [--requests N] [--batch B]
                    [--period P] [--timed]

schemes: ring | baseline | ir | dr | ns | ab | abcp | dr+";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn parse_scheme(s: &str) -> Result<Scheme, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "ring" => Scheme::PlainRing,
        "baseline" | "cb" => Scheme::Baseline,
        "ir" => Scheme::Ir,
        "dr" => Scheme::DR,
        "ns" => Scheme::NS,
        "ab" => Scheme::Ab,
        "abcp" | "ab-cp" => Scheme::AbChannelPar,
        "dr+" | "drplus" => Scheme::DrPlus { bottom_levels: 6 },
        other => return Err(format!("unknown scheme `{other}`")),
    })
}

fn parse_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("invalid value for {name}: `{v}`")),
        None => Ok(default),
    }
}

fn cmd_space(args: &[String]) -> Result<(), String> {
    let levels: u8 = parse_num(args, "--levels", 24)?;
    let base = OramConfig::builder(levels, Scheme::Baseline).build().map_err(|e| e.to_string())?;
    let base_rep =
        base.geometry().map_err(|e| e.to_string())?.space_report(base.real_block_count());
    let mut t = Table::new(
        format!("space demand, L = {levels}"),
        &["scheme", "tree MiB", "normalized", "utilization %"],
    );
    for scheme in [
        Scheme::PlainRing,
        Scheme::Baseline,
        Scheme::Ir,
        Scheme::DR,
        Scheme::NS,
        Scheme::Ab,
        Scheme::DrPlus { bottom_levels: 6 },
    ] {
        let cfg = OramConfig::builder(levels, scheme).build().map_err(|e| e.to_string())?;
        let rep = cfg.geometry().map_err(|e| e.to_string())?.space_report(cfg.real_block_count());
        t.row(
            &[&scheme.to_string()],
            &[
                rep.total_bytes() as f64 / (1 << 20) as f64,
                rep.normalized_to(&base_rep),
                100.0 * rep.utilization(),
            ],
        );
    }
    println!("{}", t.to_markdown());
    Ok(())
}

fn load_or_generate(args: &[String], records: usize) -> Result<Vec<TraceRecord>, String> {
    if let Some(path) = flag(args, "--trace") {
        let file = std::fs::File::open(&path).map_err(|e| format!("{path}: {e}"))?;
        let recs = parse_trace(BufReader::new(file)).map_err(|e| e.to_string())?;
        Ok(recs.into_iter().take(records).collect())
    } else {
        let name = flag(args, "--benchmark").unwrap_or_else(|| "mcf".to_string());
        let profile = profiles::spec2017()
            .into_iter()
            .chain(profiles::parsec())
            .find(|p| p.name == name)
            .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
        let mut gen = TraceGenerator::new(&profile, 2023);
        Ok(gen.take_records(records))
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let scheme = parse_scheme(&flag(args, "--scheme").ok_or("--scheme is required")?)?;
    let levels: u8 = parse_num(args, "--levels", 16)?;
    let records: usize = parse_num(args, "--records", 10_000)?;
    let warmup: u64 = parse_num(args, "--warmup", 200_000)?;
    let trace = load_or_generate(args, records)?;

    let _telemetry_guard = match flag(args, "--telemetry") {
        Some(path) => {
            eprintln!("[telemetry trace -> {path}]");
            Some(
                aboram::telemetry::install_to_path(std::path::Path::new(&path))
                    .map_err(|e| format!("{path}: {e}"))?,
            )
        }
        None => None,
    };
    let cfg = OramConfig::builder(levels, scheme).build().map_err(|e| e.to_string())?;
    let mut driver = TimingDriver::new(&cfg, DramConfig::default()).map_err(|e| e.to_string())?;
    if let Some(seed) = flag(args, "--faults") {
        let seed: u64 = seed.parse().map_err(|_| format!("bad fault seed `{seed}`"))?;
        eprintln!("[fault injection on, seed {seed}]");
        driver.enable_faults(FaultPlan::new(seed));
    }
    eprintln!("[warming {warmup} accesses]");
    driver.warm_up(warmup).map_err(|e| e.to_string())?;
    eprintln!("[replaying {} records]", trace.len());
    let report = driver.run(trace).map_err(|e| e.to_string())?;

    println!("scheme            : {scheme}");
    println!("tree levels       : {levels}");
    println!("records           : {}", report.records);
    println!("execution cycles  : {}", report.exec_cycles);
    println!("bandwidth         : {:.2} B/cycle", report.bandwidth());
    println!("row-buffer hits   : {:.1} %", 100.0 * report.row_hit_rate);
    println!("evictPaths        : {}", report.evict_paths);
    println!("earlyReshuffles   : {}", report.early_reshuffles);
    println!("background evicts : {}", report.background_accesses);
    println!("stash peak        : {}", report.stash_peak);
    println!("traffic breakdown :");
    for op in OramOp::ALL {
        println!("  {:16}: {:5.1} %", op.name(), 100.0 * report.breakdown.fraction(op));
    }
    println!("{}", report.recovery);
    Ok(())
}

fn cmd_gen_trace(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--benchmark").ok_or("--benchmark is required")?;
    let records: usize = parse_num(args, "--records", 100_000)?;
    let profile = profiles::spec2017()
        .into_iter()
        .chain(profiles::parsec())
        .find(|p| p.name == name)
        .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let mut gen = TraceGenerator::new(&profile, 2023);
    let recs = gen.take_records(records);
    match flag(args, "--out") {
        Some(path) => {
            let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
            write_trace(std::io::BufWriter::new(file), &recs).map_err(|e| e.to_string())?;
            eprintln!("wrote {} records to {path}", recs.len());
        }
        None => write_trace(std::io::stdout().lock(), &recs).map_err(|e| e.to_string())?,
    }
    Ok(())
}

fn cmd_serve_demo(args: &[String]) -> Result<(), String> {
    use aboram::service::{
        BackendKind, BatchConfig, BatchingFrontEnd, LatencyReport, ObliviousStore, Request,
        StoreConfig,
    };
    use aboram::trace::{KeyDist, KeySampler};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let scheme = match flag(args, "--scheme") {
        Some(s) => parse_scheme(&s)?,
        None => Scheme::Ab,
    };
    let levels: u8 = parse_num(args, "--levels", 10)?;
    let requests: u64 = parse_num(args, "--requests", 200)?;
    let batch: usize = parse_num(args, "--batch", 8)?;
    let period: u64 = parse_num(
        args,
        "--period",
        if args.iter().any(|a| a == "--timed") { 150_000 } else { 25_000 },
    )?;
    let keys: u64 = 64;
    if batch == 0 || period == 0 {
        return Err("--batch and --period must be nonzero".into());
    }

    let mut cfg = StoreConfig::new(levels, scheme);
    if args.iter().any(|a| a == "--timed") {
        cfg.backend = BackendKind::Timed(DramConfig::default());
    }
    let store = ObliviousStore::new(&cfg).map_err(|e| e.to_string())?;
    let mut fe = BatchingFrontEnd::new(
        store,
        BatchConfig { batch_size: batch, period, queue_capacity: 256, pipelined: false },
    );

    eprintln!("[pre-loading {keys} keys]");
    for k in 0..keys {
        fe.store_mut().put(format!("key-{k:03}").as_bytes(), format!("value-{k}").as_bytes());
    }
    let live_at = fe.store().now();
    fe.activate_at(live_at);
    let start = fe.next_launch();

    eprintln!("[serving {requests} Zipf(0.99) requests, batch {batch} every {period} cycles]");
    let sampler = KeySampler::new(KeyDist::Zipf { s: 0.99 }, keys);
    let mut rng = StdRng::seed_from_u64(2023);
    let gap = period / batch as u64;
    let mut latencies = Vec::new();
    let mut last_done = start;
    for i in 0..requests {
        let now = start + i * gap;
        let key = format!("key-{:03}", sampler.draw(&mut rng)).into_bytes();
        let req = if rng.gen_range(0..10u32) == 0 {
            Request::Put { key, value: format!("v{i}").into_bytes() }
        } else {
            Request::Get { key }
        };
        let _ = fe.submit(now, req);
        for c in fe.advance_to(now).map_err(|e| e.to_string())? {
            latencies.push(c.latency());
            last_done = last_done.max(c.done);
        }
    }
    for c in fe.drain().map_err(|e| e.to_string())? {
        latencies.push(c.latency());
        last_done = last_done.max(c.done);
    }

    let completed = latencies.len() as u64;
    let elapsed = last_done.saturating_sub(start).max(1);
    let lat = LatencyReport::from_latencies(latencies).ok_or("no completions")?;
    let stats = fe.stats();
    let posmap = fe.store().posmap();
    println!(
        "scheme            : {scheme} (L{levels}, {} backend)",
        if matches!(cfg.backend, BackendKind::Timed(_)) {
            "cycle-accurate DRAM"
        } else {
            "untimed"
        }
    );
    println!("keys stored       : {}", fe.store().len());
    println!("requests served   : {completed}");
    println!("throughput        : {:.1} req/Mcycle", completed as f64 * 1e6 / elapsed as f64);
    println!("latency p50/p95/p99 : {} / {} / {} cycles", lat.p50, lat.p95, lat.p99);
    println!(
        "batches           : {} ({} real slots, {} dummy, {} coalesced, {} rejected)",
        stats.batches, stats.real_slots, stats.dummy_slots, stats.coalesced, stats.rejected
    );
    println!(
        "posmap chain      : depth {}, ladder {:?}, root {} entries",
        posmap.chain_depth(),
        posmap.level_counts(),
        posmap.root_entries()
    );
    println!(
        "posmap traffic    : {} tree accesses, {} entries verified vs ground truth",
        posmap.stats().tree_accesses,
        posmap.stats().verified_entries
    );
    Ok(())
}

fn cmd_security(args: &[String]) -> Result<(), String> {
    let scheme = parse_scheme(&flag(args, "--scheme").ok_or("--scheme is required")?)?;
    let levels: u8 = parse_num(args, "--levels", 16)?;
    let accesses: u64 = parse_num(args, "--accesses", 100_000)?;
    let cfg = OramConfig::builder(levels, scheme).build().map_err(|e| e.to_string())?;
    let report = attack_success_rate(&cfg, accesses).map_err(|e| e.to_string())?;
    println!("scheme          : {scheme}");
    println!("accesses        : {}", report.accesses);
    println!("attacker rate   : {:.6}", report.success_rate());
    println!("ideal rate 1/L  : {:.6}", report.ideal_rate());
    Ok(())
}
