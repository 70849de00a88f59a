//! Runs the entire experiment suite — every figure and table binary plus
//! the ablations — on a small thread pool. Independent binaries run
//! concurrently (each writes its own file under `results/`); the worker
//! count comes from `ABORAM_JOBS`, defaulting to the machine's available
//! parallelism capped at the suite size.
//!
//! `cargo run --release -p aboram-bench --bin run_all`
//!
//! Set `ABORAM_JOBS=1` to reproduce the old sequential behaviour (cheap
//! protocol studies first, expensive timing sweeps last — workers claim
//! binaries in list order, so a single worker walks it unchanged).

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const BINARIES: &[&str] = &[
    // Tables and closed-form results (seconds).
    "table1_metadata",
    "table3_config",
    "table4_benchmarks",
    // Protocol-level studies (minutes).
    "fig02_dead_blocks_over_time",
    "fig03_dead_blocks_per_level",
    "fig07_security",
    "fig10_reshuffles_per_level",
    "fig12_dead_block_lifetime",
    "fig14_extension_ratio",
    // Timing studies (tens of minutes in total).
    "fig04_motivation_tradeoff",
    "fig11_dr_sensitivity",
    "fig13_ns_exploration",
    "fig08_main_results",
    "fig15_parsec",
    // Ablations and extensions.
    "ablation_sweeps",
    "ablation_dram_priority",
    "ext_posmap_recursion",
    "ext_energy",
    // Service layer: oblivious KV store under open/closed-loop load.
    "svc_bench",
    // Robustness: full fault-injection campaign over every scheme.
    "chaos_soak",
];

fn job_count() -> usize {
    // jobs_from_env logs (once) when the available_parallelism probe fails
    // and the pool falls back to a single worker.
    aboram_bench::jobs_from_env().min(BINARIES.len())
}

fn main() {
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
        .expect("executable directory");
    let started = Instant::now();
    let jobs = job_count();
    eprintln!("[{} experiments on {jobs} worker(s)]", BINARIES.len());

    let next = AtomicUsize::new(0);
    let failures: Mutex<Vec<&str>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&name) = BINARIES.get(i) else { break };
                let t0 = Instant::now();
                eprintln!("[{}/{}] {name}", i + 1, BINARIES.len());
                // Capture output so concurrent binaries don't interleave;
                // a failing binary's output is replayed immediately, not
                // discovered at the end-of-suite summary.
                match Command::new(exe_dir.join(name)).output() {
                    Ok(out) if out.status.success() => {
                        eprintln!("      {name} done in {:.0}s", t0.elapsed().as_secs_f64());
                    }
                    Ok(out) => {
                        eprintln!(
                            "      {name} FAILED with {}\n--- {name} stdout ---\n{}\n--- {name} stderr ---\n{}",
                            out.status,
                            String::from_utf8_lossy(&out.stdout).trim_end(),
                            String::from_utf8_lossy(&out.stderr).trim_end(),
                        );
                        failures.lock().expect("failure list").push(name);
                    }
                    Err(e) => {
                        eprintln!("      {name} could not launch: {e}");
                        failures.lock().expect("failure list").push(name);
                    }
                }
            });
        }
    });

    let failures = failures.into_inner().expect("failure list");
    // The chaos_soak child leaves its aggregate fault/recovery totals here;
    // surface them in the summary so one glance covers the run.
    let recovery = std::fs::read_to_string("results/recovery_summary.txt")
        .map(|s| s.trim_end().to_string())
        .unwrap_or_else(|_| "chaos soak: no summary (chaos_soak did not run)".to_string());
    eprintln!(
        "\nsuite finished in {:.1} min; {} failures{}\n{recovery}",
        started.elapsed().as_secs_f64() / 60.0,
        failures.len(),
        if failures.is_empty() { String::new() } else { format!(": {failures:?}") }
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
