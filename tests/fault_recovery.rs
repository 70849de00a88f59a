//! Chaos suite: the fault-injection harness drives the engines through
//! seeded schedules of bit-flips, metadata corruption, dropped writes and
//! channel stalls, and the recovery layer must absorb all of it —
//! no panics, every injected integrity fault detected and retried,
//! logical results identical to a fault-free run, and bit-identical
//! behaviour when injection is off.

use aboram::core::{
    CountingSink, FaultConfig, FaultInjectingSink, FaultPlan, OramConfig, RingOram, Scheme,
    TimingDriver,
};
use aboram::dram::DramConfig;
use aboram::trace::{profiles, TraceGenerator};
use rand::{Rng, SeedableRng};

fn pattern(block: u64, version: u32) -> [u8; 64] {
    let mut d = [0u8; 64];
    d[..8].copy_from_slice(&block.to_le_bytes());
    d[8..12].copy_from_slice(&version.to_le_bytes());
    for (i, b) in d.iter_mut().enumerate().skip(12) {
        *b = (block as u8).wrapping_mul(31).wrapping_add(i as u8);
    }
    d
}

/// Rates high enough that a few-thousand-access run sees hundreds of
/// faults of every kind; the chance of blowing the retry budget stays
/// negligible (p^6 per detected fault).
fn aggressive() -> FaultConfig {
    FaultConfig {
        data_bit_flip: 0.01,
        metadata_corruption: 0.01,
        dropped_write: 0.01,
        ..FaultConfig::default()
    }
}

#[test]
fn chaos_run_recovers_under_every_scheme() {
    for scheme in [Scheme::Baseline, Scheme::DR, Scheme::NS, Scheme::Ab] {
        let cfg = OramConfig::builder(10, scheme).store_data(true).seed(13).build().unwrap();
        let mut oram = RingOram::new(&cfg).unwrap();
        let mut sink = FaultInjectingSink::with_plan(
            CountingSink::new(),
            FaultPlan::with_config(42, aggressive()),
        );
        let blocks = cfg.real_block_count();

        let targets: Vec<u64> = (0..blocks).step_by(41).collect();
        for &b in &targets {
            oram.write(b, pattern(b, 0), &mut sink).unwrap();
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..1_500 {
            oram.read(rng.gen_range(0..blocks), &mut sink).unwrap();
        }
        for &b in &targets {
            assert_eq!(oram.read(b, &mut sink).unwrap(), pattern(b, 0), "{scheme}: block {b}");
        }

        let rec = oram.stats().recovery;
        let injected = sink.injected();
        assert!(injected.total() > 0, "{scheme}: schedule injected nothing");
        assert!(!rec.is_clean(), "{scheme}: faults injected but none detected");
        assert!(rec.faults_detected() > 0, "{scheme}: no faults detected");
        assert_eq!(
            rec.faults_detected(),
            rec.faults_recovered(),
            "{scheme}: every detected fault must be recovered"
        );
        // Injection happens only at the engine's verification sites, so the
        // engine sees (at least) every scheduled fault; retries may draw more.
        assert!(
            injected.total() >= rec.faults_detected(),
            "{scheme}: detected {} faults but only {} were injected",
            rec.faults_detected(),
            injected.total()
        );
        assert!(rec.retries() >= rec.faults_detected(), "{scheme}: recovery without retries");
        assert!(rec.backoff_cycles > 0, "{scheme}: retries must charge backoff");
        assert!(rec.degraded_accesses > 0, "{scheme}: degraded accesses untracked");
    }
}

#[test]
fn recovered_reads_match_fault_free_run() {
    let cfg = OramConfig::builder(10, Scheme::Ab).store_data(true).seed(21).build().unwrap();
    let blocks = cfg.real_block_count();

    let mut clean = RingOram::new(&cfg).unwrap();
    let mut clean_sink = CountingSink::new();
    let mut faulty = RingOram::new(&cfg).unwrap();
    let mut faulty_sink = FaultInjectingSink::with_plan(
        CountingSink::new(),
        FaultPlan::with_config(99, aggressive()),
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for step in 0..2_000u32 {
        let b = rng.gen_range(0..blocks);
        if rng.gen_bool(0.4) {
            let d = pattern(b, step);
            clean.write(b, d, &mut clean_sink).unwrap();
            faulty.write(b, d, &mut faulty_sink).unwrap();
        } else {
            let want = clean.read(b, &mut clean_sink).unwrap();
            let got = faulty.read(b, &mut faulty_sink).unwrap();
            assert_eq!(got, want, "step {step}: degraded-mode read diverged on block {b}");
        }
    }
    assert!(faulty_sink.injected().total() > 0, "chaos run saw no faults");
    // Retries re-issue transfers, so the degraded run costs strictly more
    // traffic than the clean one — but never a different answer.
    assert!(
        faulty_sink.inner().grand_total() > clean_sink.grand_total(),
        "recovery should add retry traffic"
    );
}

#[test]
fn same_fault_seed_replays_identically() {
    let cfg = OramConfig::builder(10, Scheme::DR).store_data(true).seed(5).build().unwrap();
    let blocks = cfg.real_block_count();

    let run = |fault_seed: u64| {
        let mut oram = RingOram::new(&cfg).unwrap();
        let mut sink = FaultInjectingSink::with_plan(
            CountingSink::new(),
            FaultPlan::with_config(fault_seed, aggressive()),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..1_000 {
            oram.read(rng.gen_range(0..blocks), &mut sink).unwrap();
        }
        (oram.stats().recovery, sink.injected(), sink.inner().clone())
    };

    let (rec_a, inj_a, sink_a) = run(1234);
    let (rec_b, inj_b, sink_b) = run(1234);
    assert_eq!(rec_a, rec_b, "same seed must replay identical recovery stats");
    assert_eq!(inj_a, inj_b, "same seed must inject the identical schedule");
    assert_eq!(sink_a, sink_b, "same seed must generate identical traffic");

    let (rec_c, inj_c, _) = run(4321);
    assert!(
        (rec_a, inj_a) != (rec_c, inj_c),
        "different fault seeds should produce different schedules"
    );
}

#[test]
fn disabled_injection_is_bit_identical_to_plain_sink() {
    let cfg = OramConfig::builder(10, Scheme::Ab).store_data(true).seed(77).build().unwrap();
    let blocks = cfg.real_block_count();

    let mut plain = RingOram::new(&cfg).unwrap();
    let mut plain_sink = CountingSink::new();
    let mut wrapped = RingOram::new(&cfg).unwrap();
    let mut wrapped_sink = FaultInjectingSink::new(CountingSink::new());

    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    for step in 0..1_500u32 {
        let b = rng.gen_range(0..blocks);
        if rng.gen_bool(0.3) {
            let d = pattern(b, step);
            plain.write(b, d, &mut plain_sink).unwrap();
            wrapped.write(b, d, &mut wrapped_sink).unwrap();
        } else {
            assert_eq!(
                plain.read(b, &mut plain_sink).unwrap(),
                wrapped.read(b, &mut wrapped_sink).unwrap()
            );
        }
    }
    assert_eq!(
        wrapped_sink.inner(),
        &plain_sink,
        "a plan-less FaultInjectingSink must be invisible to the engine"
    );
    assert_eq!(wrapped_sink.injected().total(), 0);
    assert!(plain.stats().recovery.is_clean());
    assert!(wrapped.stats().recovery.is_clean());
    assert_eq!(plain.stash_len(), wrapped.stash_len());
}

/// Per-site fault detection under the integrity verifier: with exactly one
/// site faulting at a moderate rate, every fault is detected, counted under
/// that site alone, recovered on the retry rung, and the stash-rooted
/// digest chain still matches a fault-free run bit-for-bit (recovered
/// faults leave no trace).
#[test]
fn integrity_recovers_each_fault_site_bit_exactly() {
    let only = |data_bit_flip, metadata_corruption, dropped_write| FaultConfig {
        data_bit_flip,
        metadata_corruption,
        dropped_write,
        ..FaultConfig::default()
    };
    let site_configs = [
        ("data", only(0.02, 0.0, 0.0)),
        ("metadata", only(0.0, 0.02, 0.0)),
        ("write-ack", only(0.0, 0.0, 0.02)),
    ];
    let cfg = OramConfig::builder(9, Scheme::Ab).store_data(true).seed(17).build().unwrap();
    let blocks = cfg.real_block_count();

    let run = |plan: Option<FaultPlan>| {
        let mut oram = RingOram::new(&cfg).unwrap();
        oram.enable_integrity();
        let mut sink = FaultInjectingSink::new(CountingSink::new());
        sink.set_plan(plan);
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for step in 0..1_200u32 {
            let b = rng.gen_range(0..blocks);
            if step % 3 == 0 {
                oram.write(b, pattern(b, step), &mut sink).unwrap();
            } else {
                oram.read(b, &mut sink).unwrap();
            }
        }
        let root = oram.integrity().unwrap().root_digest();
        let (r, inj) = (oram.stats().recovery, sink.injected());
        // Faults detected, recovered, retried and injected, per site in
        // `site_configs` order.
        let counts = [
            [r.integrity_faults_detected, r.metadata_faults_detected, r.dropped_writes_detected],
            [r.integrity_faults_recovered, r.metadata_faults_recovered, r.dropped_writes_recovered],
            [r.integrity_retries, r.metadata_retries, r.write_retries],
            [inj.bit_flips, inj.metadata_corruptions, inj.dropped_writes],
        ];
        (root, r, oram.health(), counts)
    };

    let (clean_root, clean_rec, clean_health, clean_counts) = run(None);
    assert!(clean_rec.is_clean());
    assert!(clean_health.is_healthy());
    assert_eq!(clean_counts, [[0; 3]; 4]);

    for (i, (site, fc)) in site_configs.into_iter().enumerate() {
        let (root, rec, health, counts) = run(Some(FaultPlan::with_config(404, fc)));
        let [detected, recovered, retries, injected] = counts.map(|c| c[i]);
        assert!(injected > 0 && detected > 0, "{site}: no fault injected or detected");
        assert_eq!(detected, recovered, "{site}: unrecovered faults");
        assert!(retries >= detected, "{site}: a fault recovered without a retry");
        for j in (0..3).filter(|&j| j != i) {
            assert_eq!(counts.map(|c| c[j]), [0; 4], "{site}: a fault was counted under site {j}");
        }
        assert_eq!(rec.unrecovered_faults, 0, "{site}: ladder should not exhaust at 2%");
        assert!(health.is_healthy(), "{site}: recovered faults must not degrade health");
        assert_eq!(root, clean_root, "{site}: recovered faults must leave no digest trace");
    }
}

/// A fault storm (90% of polls faulting) exhausts the bounded ladder on some
/// fetches. With the verifier armed the engine must keep running — degraded
/// health, poisoned subtrees, a tainted root — instead of erroring out.
#[test]
fn storm_degrades_gracefully_instead_of_aborting() {
    let storm = FaultConfig {
        data_bit_flip: 0.9,
        metadata_corruption: 0.9,
        dropped_write: 0.9,
        ..FaultConfig::default()
    };
    let cfg = OramConfig::builder(9, Scheme::Baseline).store_data(true).seed(29).build().unwrap();
    let blocks = cfg.real_block_count();

    let mut oram = RingOram::new(&cfg).unwrap();
    oram.enable_integrity();
    let mut sink =
        FaultInjectingSink::with_plan(CountingSink::new(), FaultPlan::with_config(505, storm));
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    for step in 0..600u32 {
        let b = rng.gen_range(0..blocks);
        // Every access must complete: the ladder absorbs exhaustion.
        if step % 3 == 0 {
            oram.write(b, pattern(b, step), &mut sink).unwrap();
        } else {
            oram.read(b, &mut sink).unwrap();
        }
    }

    let rec = oram.stats().recovery;
    assert!(rec.unrecovered_faults > 0, "storm never exhausted the ladder");
    assert!(rec.redundant_refetches > 0, "ladder skipped the redundant-refetch rung");
    assert!(rec.escalated_evictions > 0, "ladder skipped the escalated-eviction rung");
    assert!(!oram.health().is_healthy(), "unrecovered faults must degrade health");
    let verifier = oram.integrity().unwrap();
    assert!(!verifier.poisoned_subtrees().is_empty(), "degradation must map poisoned subtrees");
    assert!(verifier.first_tainted_level().is_some(), "taint must record the level it hit");
}

/// Without the verifier, ladder behaviour is unchanged from before: a storm
/// that defeats every retry surfaces `RetriesExhausted` instead of degrading.
#[test]
fn storm_without_integrity_still_errors() {
    let storm = FaultConfig { data_bit_flip: 1.0, ..FaultConfig::default() };
    let cfg = OramConfig::builder(9, Scheme::Baseline).store_data(true).seed(29).build().unwrap();
    let blocks = cfg.real_block_count();

    let mut oram = RingOram::new(&cfg).unwrap();
    let mut sink =
        FaultInjectingSink::with_plan(CountingSink::new(), FaultPlan::with_config(505, storm));
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let err = (0..600u32)
        .find_map(|_| oram.read(rng.gen_range(0..blocks), &mut sink).err())
        .expect("a certain-fault storm must exhaust retries without the verifier");
    assert!(
        matches!(err, aboram::core::OramError::RetriesExhausted { .. }),
        "expected RetriesExhausted, got {err:?}"
    );
    assert!(oram.health().is_healthy(), "health stays untracked without the verifier");
}

#[test]
fn timing_driver_reports_recovery_and_tolerates_stalls() {
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
    let cfg = OramConfig::builder(10, Scheme::Ab).seed(2).build().unwrap();
    let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
    // Short horizon so the stall windows overlap the run; stalls only delay
    // service, so the run must still complete with consistent accounting.
    let faults = FaultConfig {
        stall_events: 8,
        stall_duration: 10_000,
        stall_horizon: 500_000,
        ..aggressive()
    };
    driver.enable_faults(FaultPlan::with_config(31, faults));

    let mut gen = TraceGenerator::new(&profile, 7);
    let report = driver.run((0..400).map(|_| gen.next_record())).unwrap();

    assert_eq!(report.records, 400);
    assert!(report.exec_cycles > 0);
    assert!(driver.injected_faults().total() > 0, "driver schedule injected nothing");
    assert!(report.recovery.faults_detected() > 0, "report missed the recovery counters");
    assert_eq!(report.recovery.faults_detected(), report.recovery.faults_recovered());

    // A fault-free driver over the same trace reports clean recovery.
    let mut clean = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
    let mut gen = TraceGenerator::new(&profile, 7);
    let clean_report = clean.run((0..400).map(|_| gen.next_record())).unwrap();
    assert!(clean_report.recovery.is_clean());
    assert!(
        report.exec_cycles >= clean_report.exec_cycles,
        "degraded mode should not run faster than fault-free"
    );
}
