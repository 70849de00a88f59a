//! Golden-digest equivalence check for the simulator's hot path.
//!
//! `--check-golden` replays every golden case from `aboram::golden` and
//! compares its digest against the committed fixture under `tests/golden/`,
//! exiting 1 on any divergence. The warm-up goes through the snapshot
//! cache, so running this twice exercises both the cold (populate) and
//! warm (restore) paths; CI runs it both ways so a performance change —
//! or a cache bug — that moves behaviour by even one bit fails the build.
//!
//! `--evict-cache` force-evicts every snapshot cache entry first, so
//! `--evict-cache --check-golden` replays the golden cases on the
//! guaranteed-cold path even when earlier runs populated the cache — CI's
//! third replay flavor. `--check-golden --integrity` replays with the
//! integrity verifier armed (per-fetch MAC checks, per-level digest chain):
//! fault-free verification must not move a single bit.
//!
//! Host time is measured by the repo's benchmark (`benchmark/README.md`),
//! not here.
//!
//! ```text
//! cargo run --release -p aboram-bench --bin hotpath_bench -- --check-golden
//! cargo run --release -p aboram-bench --bin hotpath_bench -- --evict-cache --check-golden
//! cargo run --release -p aboram-bench --bin hotpath_bench -- --check-golden --integrity
//! ```

use aboram_bench::{cache_dir, evict_all, warmed_engine_cached};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    if has("--evict-cache") {
        let evicted = evict_all(&cache_dir());
        eprintln!("[evicted {evicted} snapshot cache entr(ies) — cold path guaranteed]");
    }
    if !has("--check-golden") {
        eprintln!("usage: hotpath_bench --check-golden [--integrity] [--evict-cache]");
        std::process::exit(2);
    }
    check_golden(has("--integrity"));
}

/// Replays every golden case and compares against the committed fixtures.
/// Warm-ups go through the snapshot cache, so consecutive runs check the
/// cold and warm paths respectively. With `integrity` set, the timed window
/// replays with the integrity verifier armed — MAC checks on every fetch —
/// which a fault-free run must reproduce bit-identically (verification is
/// pure shadow computation; its cycle cost lives inside the existing
/// crypto-pipeline charge).
fn check_golden(integrity: bool) {
    let root = std::env::var("ABORAM_GOLDEN_DIR").unwrap_or_else(|_| {
        // Default: tests/golden relative to the workspace root (CI runs from
        // the checkout root; `cargo run -p` keeps the invocation cwd).
        "tests/golden".to_string()
    });
    let mut failed = false;
    for (name, scheme) in aboram::golden::cases() {
        let cfg = aboram::golden::case_config(scheme).expect("golden config builds");
        let warm_seed = aboram::golden::warm_up_seed(&cfg);
        let oram = warmed_engine_cached(&cfg, aboram::golden::GOLDEN_WARMUP, warm_seed)
            .expect("golden warm-up runs");
        let report = if integrity {
            aboram::golden::run_case_from_verified(oram).expect("verified golden case runs")
        } else {
            aboram::golden::run_case_from(oram).expect("golden case runs")
        };
        let got = aboram::golden::digest_json(name, scheme, &report);
        let path = std::path::Path::new(&root).join(format!("{name}.json"));
        match std::fs::read_to_string(&path) {
            Ok(want) if want == got => println!("ok   {name}"),
            Ok(want) => {
                failed = true;
                println!("FAIL {name}: digest diverged from {}", path.display());
                for (g, w) in got.lines().zip(want.lines()) {
                    if g != w {
                        println!("  fixture: {w}\n  current: {g}");
                    }
                }
            }
            Err(e) => {
                failed = true;
                println!("FAIL {name}: cannot read {} ({e})", path.display());
            }
        }
    }
    if failed {
        eprintln!(
            "golden digests diverged — if intentional, re-bless via BLESS=1 \
                   cargo test --test golden_traces and commit the fixtures"
        );
        std::process::exit(1);
    }
    println!(
        "all golden digests match{}",
        if integrity { " (integrity verification armed)" } else { "" }
    );
}
