//! Degraded-mode overhead: runs every evaluated scheme over the same timed
//! trace twice — fault-free and under a seeded fault-injection plan — and
//! reports the execution-time overhead the recovery layer pays, alongside
//! the recovery counters proving what it absorbed.
//!
//! Usage:
//!
//! ```sh
//! chaos --faults <seed> [--records <n>] [--rate <per-poll probability>]
//!       [--telemetry <out.jsonl>]
//! ```
//!
//! Scale further with the usual `ABORAM_LEVELS` / `ABORAM_WARMUP` /
//! `ABORAM_TIMED` environment knobs.

use aboram_bench::{emit, fail, refuse, Experiment};
use aboram_core::{FaultConfig, FaultPlan, Scheme, TimingDriver};
use aboram_dram::DramConfig;
use aboram_stats::Table;
use aboram_trace::{profiles, TraceGenerator};

struct Args {
    fault_seed: u64,
    records: Option<usize>,
    rate: Option<f64>,
    telemetry: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args { fault_seed: 2023, records: None, rate: None, telemetry: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take =
            |what: &str| it.next().unwrap_or_else(|| refuse(format!("{flag} needs {what}")));
        match flag.as_str() {
            "--faults" => {
                let v = take("a seed");
                args.fault_seed = v.parse().unwrap_or_else(|_| refuse(format!("bad seed {v:?}")));
            }
            "--records" => {
                let v = take("a count");
                args.records =
                    Some(v.parse().unwrap_or_else(|_| refuse(format!("bad count {v:?}"))));
            }
            "--rate" => {
                let v = take("a probability");
                let rate = v.parse().ok().filter(|r: &f64| (0.0..=1.0).contains(r));
                args.rate =
                    Some(rate.unwrap_or_else(|| refuse(format!("rate {v:?} not in [0, 1]"))));
            }
            "--telemetry" => {
                args.telemetry = Some(take("an output path"));
            }
            "--help" | "-h" => refuse(
                "usage: chaos --faults <seed> [--records <n>] [--rate <p>] [--telemetry <out>]",
            ),
            other => refuse(format!("unknown flag {other:?}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let _telemetry = match &args.telemetry {
        Some(path) => {
            eprintln!("[telemetry trace -> {path}]");
            Some(
                aboram_telemetry::install_to_path(std::path::Path::new(path))
                    .unwrap_or_else(|e| refuse(format!("{path}: {e}"))),
            )
        }
        None => aboram_bench::telemetry_from_env(),
    };
    let mut env = Experiment::from_env();
    if let Some(n) = args.records {
        env.timed = n;
    }
    let mut fc = FaultConfig::default();
    if let Some(r) = args.rate {
        fc.data_bit_flip = r;
        fc.metadata_corruption = r / 2.0;
        fc.dropped_write = r / 2.0;
    }
    let profile = profiles::spec2017().into_iter().next().expect("benchmark profile");
    eprintln!(
        "[chaos] seed {} · {} levels · {} records · benchmark {}",
        args.fault_seed, env.levels, env.timed, profile.name
    );

    let mut overhead = Table::new(
        format!("Chaos — degraded-mode overhead (fault seed {})", args.fault_seed),
        &["scheme", "clean cycles", "faulted cycles", "overhead %", "degraded accesses"],
    );
    let mut recovery = Table::new(
        "Chaos — recovery counters (faulted runs)",
        &["scheme", "injected", "detected", "recovered", "retries", "escalations", "backoff cyc"],
    );

    for scheme in Scheme::evaluated() {
        eprintln!("[warming {scheme}]");
        let warmed = env.warmed_oram(scheme).unwrap_or_else(|e| fail("chaos", e));

        let run = |plan: Option<FaultPlan>| {
            let mut driver = TimingDriver::from_oram(warmed.clone(), DramConfig::default());
            if let Some(plan) = plan {
                driver.enable_faults(plan);
            }
            let mut gen = TraceGenerator::new(&profile, env.seed);
            driver
                .run((0..env.timed).map(|_| gen.next_record()))
                .map(|report| (report, driver.injected_faults()))
        };

        let (clean, _) =
            run(None).unwrap_or_else(|e| refuse(format!("{scheme}: fault-free run failed: {e}")));
        let (faulted, injected) = match run(Some(FaultPlan::with_config(args.fault_seed, fc))) {
            Ok(r) => r,
            Err(e) => refuse(format!(
                "{scheme}: fault plan (seed {}, rate {:?}) is unsurvivable: {e}\n\
                 lower --rate: each retry must succeed with probability 1-p",
                args.fault_seed, args.rate
            )),
        };
        assert!(clean.recovery.is_clean(), "{scheme}: fault-free run must report clean recovery");
        assert_eq!(
            faulted.recovery.faults_detected(),
            faulted.recovery.faults_recovered(),
            "{scheme}: chaos run left unrecovered faults"
        );

        let pct = 100.0 * (faulted.exec_cycles as f64 / clean.exec_cycles as f64 - 1.0);
        overhead.row(
            &[&scheme.to_string()],
            &[
                clean.exec_cycles as f64,
                faulted.exec_cycles as f64,
                pct,
                faulted.recovery.degraded_accesses as f64,
            ],
        );
        let r = faulted.recovery;
        recovery.row(
            &[&scheme.to_string()],
            &[
                injected.total() as f64,
                r.faults_detected() as f64,
                r.faults_recovered() as f64,
                r.retries() as f64,
                r.escalated_evictions as f64,
                r.backoff_cycles as f64,
            ],
        );
    }

    emit("chaos_overhead.md", &format!("{}\n{}", overhead.to_markdown(), recovery.to_markdown()));
}
