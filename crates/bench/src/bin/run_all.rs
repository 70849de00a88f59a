//! Runs the entire experiment suite: every study of
//! [`aboram_bench::studies::ALL`] in this process — their timed windows
//! measured as one union, each configuration warmed once, and their files
//! byte-identical to the study binaries' own — then `svc_bench` and
//! `chaos_soak` one after the other, without the `ABORAM_TELEMETRY` trace
//! (which holds one run per distinct window).
//!
//! `cargo run --release -p aboram-bench --bin run_all`

use aboram_bench::{run_studies, studies, telemetry_from_env, CellExecutor, Experiment};
use std::process::Command;
use std::time::Instant;

fn main() {
    let started = Instant::now();
    let env = Experiment::from_env();
    let executor = CellExecutor::from_env();
    eprintln!("[{} studies on {} worker(s)]", studies::ALL.len(), executor.jobs());
    let mut failures = {
        let _telemetry = telemetry_from_env();
        run_studies("run_all", &env, &executor, studies::ALL)
    };

    let exe = std::env::current_exe().expect("executable path");
    for name in ["svc_bench", "chaos_soak"] {
        eprintln!("[{name}]");
        match Command::new(exe.with_file_name(name)).env_remove("ABORAM_TELEMETRY").status() {
            Ok(status) if status.success() => {}
            outcome => {
                let why =
                    outcome.map_or_else(|e| format!("could not launch: {e}"), |s| s.to_string());
                eprintln!("error: {name}: {why}");
                failures.push(name);
            }
        }
    }

    // chaos_soak leaves its aggregate fault/recovery totals here; surface
    // them in the summary so one glance covers the run.
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
