//! Golden-trace equivalence suite.
//!
//! Each scheme's fixed-seed timing run must reproduce the committed fixture
//! under `tests/golden/` byte for byte. The fixtures were generated from the
//! engine *before* the hot-path optimization (bitset metadata scans,
//! scratch-buffer reuse, batched DRAM issue), so a pass proves the optimized
//! engine is observationally identical on cycle counts, traffic attribution,
//! stash statistics and reshuffle counts.
//!
//! Regenerate intentionally with `BLESS=1 cargo test --test golden_traces`
//! (see `aboram::golden` for the policy on when blessing is legitimate).

use aboram::golden;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.json"))
}

fn blessing() -> bool {
    std::env::var("BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn golden_digests_match_fixtures() {
    let mut failures = Vec::new();
    for (name, scheme) in golden::cases() {
        let report = golden::run_case(scheme).expect("golden case runs");
        let got = golden::digest_json(name, scheme, &report);
        let path = fixture_path(name);
        if blessing() {
            std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir tests/golden");
            std::fs::write(&path, &got).expect("write fixture");
            eprintln!("[blessed {}]", path.display());
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {} ({e}); run BLESS=1", path.display()));
        if got != want {
            failures.push(format!(
                "scheme {name}: digest diverged from {}\n--- fixture\n{want}\n--- current\n{got}",
                path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// Integrity verification is pure shadow computation: replaying every golden
/// case with the verifier armed — per-fetch MAC checks folded into the
/// per-level digest chain — must reproduce the unverified fixtures
/// bit-identically, and a fault-free run must end healthy.
#[test]
fn integrity_armed_replay_matches_fixtures() {
    let mut failures = Vec::new();
    for (name, scheme) in golden::cases() {
        let report = golden::run_case_verified(scheme).expect("verified golden case runs");
        assert!(report.health.is_healthy(), "{name}: fault-free verified run degraded");
        let got = golden::digest_json(name, scheme, &report);
        let path = fixture_path(name);
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {} ({e}); run BLESS=1", path.display()));
        if got != want {
            failures.push(format!(
                "scheme {name}: verified replay diverged from {}\n--- fixture\n{want}\n--- \
                 current\n{got}",
                path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The golden runner itself is deterministic: two back-to-back runs of the
/// same case serialize identically (guards against hidden global state —
/// thread-local RNGs, leftover telemetry — leaking into the digest).
#[test]
fn golden_runner_is_deterministic() {
    let (name, scheme) = golden::cases()[5];
    let a = golden::digest_json(name, scheme, &golden::run_case(scheme).unwrap());
    let b = golden::digest_json(name, scheme, &golden::run_case(scheme).unwrap());
    assert_eq!(a, b);
}

/// Two traced runs on one collector: an AB-CP (channel-parallel) driver at depth 4
/// with the posmap model recursing, its windows cut every 16 records (so
/// mid-batch), then a run on the same driver that ends in
/// `RetriesExhausted` and dumps the ring log.
fn telemetry_trace() -> String {
    use aboram_core::{
        FaultConfig, FaultPlan, OramConfig, OramError, PlbConfig, Scheme, TimingDriver,
    };
    use aboram_dram::DramConfig;
    use aboram_trace::{profiles, TraceGenerator};

    let (collector, buf) = aboram_telemetry::Collector::to_shared_buffer();
    aboram_telemetry::install(collector.window_every(16));
    let cfg =
        OramConfig::builder(10, Scheme::AbChannelPar).seed(golden::GOLDEN_SEED).build().unwrap();
    let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
    driver.set_pipeline_depth(4);
    driver.enable_posmap_recursion(PlbConfig {
        plb_bytes: 1024,
        onchip_posmap_bytes: 1024,
        entry_bytes: 4,
    });
    driver.warm_up(1_000).unwrap();
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
    let mut gen = TraceGenerator::new(&profile, 3);
    driver.run((0..200).map(|_| gen.next_record())).unwrap();

    // One data fetch in five flips and no verifier is armed.
    let flips = FaultConfig {
        data_bit_flip: 0.2,
        metadata_corruption: 0.0,
        dropped_write: 0.0,
        stall_events: 0,
        ..FaultConfig::default()
    };
    driver.enable_faults(FaultPlan::with_config(3, flips));
    let err = driver.run((0..400).map(|_| gen.next_record())).unwrap_err();
    assert!(matches!(err, OramError::RetriesExhausted { .. }), "{err:?}");
    let mut collector = aboram_telemetry::uninstall().expect("collector was installed");
    collector.flush().unwrap();
    buf.contents()
}

/// The telemetry trace's order is pinned like the digests: every hook,
/// window cut and ring dump lands where `tests/golden/telemetry.jsonl`
/// has it, byte for byte.
#[test]
fn telemetry_trace_matches_fixture() {
    let got = telemetry_trace();
    assert!(got.contains("\"t\":\"win\"") && got.contains("\"t\":\"ringdump\""), "{got}");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/telemetry.jsonl");
    if blessing() {
        std::fs::write(&path, &got).expect("write fixture");
        eprintln!("[blessed {}]", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); run BLESS=1", path.display()));
    if let Some((i, (w, g))) = want.lines().zip(got.lines()).enumerate().find(|(_, (w, g))| w != g)
    {
        panic!("line {}: fixture\n{w}\ncurrent\n{g}", i + 1);
    }
    assert_eq!(want.lines().count(), got.lines().count(), "trace length");
    assert!(want == got, "the trace differs from {}", path.display());
}
