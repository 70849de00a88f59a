//! Telemetry's zero-perturbation contract (DESIGN.md §7): instrumentation
//! consumes no engine randomness and changes no protocol decision, so a
//! fixed-seed timing run produces a bit-identical [`SimulationReport`]
//! whether or not a collector is installed — and with none installed, the
//! hooks are pure branch-not-taken overhead. The same holds for the service
//! path: a pipelined [`TimedBackend`] replies identically either way.
//!
//! The driver has one executor either way: the engine stage runs ahead on
//! the calling thread, which captures its hooks into each message for the
//! lane's helper to replay before the release hooks it fires, and the spent
//! message carries them all back (DESIGN.md §16). The grid below holds a
//! traced driver to an untraced one's results.

use aboram_core::{
    AccessKind, BackendReply, CountingSink, FaultInjectingSink, FaultPlan, InjectedFaults, Message,
    OramConfig, OramError, PlbConfig, PosMapHierarchy, ReleaseHalf, RingOram, Scheme,
    SimulationReport, StagedBatch, Stager, StorageBackend, TimedBackend, TimingDriver,
};
use aboram_dram::{DramConfig, MemorySystem, RobCpu};
use aboram_telemetry::{Captured, Collector};
use aboram_trace::{profiles, MemOp, TraceGenerator, TraceRecord};

/// Everything that crosses to the lane's helper — the driver's core and
/// controller (its DRAM twin), a store's release halves, the messages of
/// staged accesses with their jobs and captured hooks — and what comes back,
/// is `Send`; and a driver, engine and all, may move between threads.
const _: () = {
    const fn send<T: Send>() {}
    send::<TimingDriver>();
    send::<RingOram>();
    send::<PosMapHierarchy>();
    send::<FaultInjectingSink<Stager>>();
    send::<RobCpu>();
    send::<MemorySystem>();
    send::<ReleaseHalf>();
    send::<Message<(u32, MemOp)>>();
    send::<StagedBatch>();
    send::<TraceRecord>();
    send::<OramError>();
    send::<Captured>();
};

fn fixed_run(scheme: Scheme, instrument: bool) -> (SimulationReport, Option<String>) {
    let buf = instrument.then(|| {
        let (collector, buf) = Collector::to_shared_buffer();
        aboram_telemetry::install(collector);
        buf
    });
    let cfg = OramConfig::builder(12, scheme).seed(77).build().unwrap();
    let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
    driver.warm_up(3_000).unwrap();
    let profile = profiles::spec2017().into_iter().next().unwrap();
    let mut gen = TraceGenerator::new(&profile, 77);
    let report = driver.run((0..400).map(|_| gen.next_record())).unwrap();
    let trace = buf.map(|buf| {
        let mut c = aboram_telemetry::uninstall().expect("collector was installed");
        c.flush().unwrap();
        buf.contents()
    });
    (report, trace)
}

#[test]
fn telemetry_does_not_perturb_fixed_seed_runs() {
    for scheme in [Scheme::PlainRing, Scheme::Ab] {
        let (plain, none) = fixed_run(scheme, false);
        assert!(none.is_none());
        let (instrumented, trace) = fixed_run(scheme, true);
        assert_eq!(
            plain, instrumented,
            "{scheme}: an installed collector must not change the simulation"
        );
        // And the instrumented run actually produced a trace: one run
        // header, per-phase request counts, and a closing summary.
        let trace = trace.unwrap();
        assert!(trace.contains("\"t\":\"run\""), "missing run header:\n{trace}");
        assert!(trace.contains("\"t\":\"counts\""), "missing phase counts:\n{trace}");
        assert!(trace.contains("\"t\":\"sum\""), "missing run summary:\n{trace}");
        for counter in ["stash.scan_passes", "stash.scanned_blocks"] {
            assert!(trace.contains(&format!("\"name\":\"{counter}\"")), "missing {counter}");
        }
    }
}

/// The eviction scan runs once per rebuild — an evictPath (periodic,
/// background or escalated) or an earlyReshuffle — and never once per
/// bucket: the registry's pass count equals the protocol's own counters.
#[test]
fn the_stash_is_scanned_once_per_rebuild() {
    // The second configuration's low threshold forces background evictions.
    for (scheme, stash) in [(Scheme::Ab, None), (Scheme::Baseline, Some((120, 25)))] {
        let mut builder = OramConfig::builder(10, scheme).seed(77);
        if let Some((capacity, threshold)) = stash {
            builder = builder.stash(capacity, threshold);
        }
        let mut oram = RingOram::new(&builder.build().unwrap()).unwrap();
        let mut sink = CountingSink::new();
        aboram_telemetry::install(Collector::to_shared_buffer().0);
        for i in 0..4_000u64 {
            oram.access(AccessKind::Read, (i * 37) % 1_000, None, &mut sink).unwrap();
        }
        let collector = aboram_telemetry::uninstall().expect("collector was installed");
        let stats = oram.stats();
        assert_eq!(stash.is_some(), stats.background_accesses > 0, "{scheme}");
        let rebuilds = stats.evict_paths
            + stats.background_accesses
            + stats.recovery.escalated_evictions
            + stats.reshuffles.total();
        let passes = collector.registry().counter("stash.scan_passes");
        assert_eq!(passes, rebuilds, "{scheme}: one pass per rebuild");
        let scanned = collector.registry().counter("stash.scanned_blocks");
        assert!(scanned > 0 && scanned <= passes * oram.stash_peak() as u64, "{scheme}");
    }
}

#[test]
fn repeated_uninstrumented_runs_are_deterministic() {
    let (a, _) = fixed_run(Scheme::Ab, false);
    let (b, _) = fixed_run(Scheme::Ab, false);
    assert_eq!(a, b, "the fixed-seed simulation itself must be reproducible");
}

/// One fixed-seed service-shaped run on a depth-4 [`TimedBackend`]: the
/// reply stream, the engine, and (when instrumented) whether the controller
/// reported window occupancy.
fn fixed_backend_run(instrument: bool) -> (Vec<BackendReply>, RingOram, bool) {
    if instrument {
        aboram_telemetry::install(Collector::to_shared_buffer().0);
    }
    let cfg =
        OramConfig::builder(10, Scheme::AbChannelPar).store_data(true).seed(77).build().unwrap();
    let mut backend = TimedBackend::new(&cfg, DramConfig::default()).unwrap();
    backend.set_pipeline_depth(4);
    let replies = (0..300u64)
        .map(|i| backend.access_managed(i * 500, (i * 37) % 256, None, &mut |_| {}).unwrap())
        .collect();
    backend.quiesce();
    let occupancy = instrument && {
        let collector = aboram_telemetry::uninstall().expect("collector was installed");
        let hists = collector.registry().run_hist_deltas();
        hists.iter().any(|h| h.name() == "pipeline.occupancy" && h.total() == 300)
            && collector.registry().counter("crypto.overlapped_blocks") > 0
    };
    (replies, backend.engine().clone(), occupancy)
}

/// The driver's batch, in trace records.
const BATCH: usize = 32;

/// What one driver ends a sequence of runs with.
#[derive(Debug, PartialEq)]
struct Outcome {
    reports: Vec<SimulationReport>,
    injected: InjectedFaults,
    /// The engine, armed verifier included.
    engine: RingOram,
}

/// One grid cell run over traces of every length around the batch size, on
/// one driver, with or without a collector installed. The driver runs its
/// first lengths into a window of one and then switches to the cell's
/// depth, which the stager must pick up for the accesses it stages from
/// then on.
fn cell_runs(scheme: Scheme, depth: u8, faults: bool, recursion: bool, traced: bool) -> Outcome {
    let cfg = OramConfig::builder(9, scheme).seed(41).build().unwrap();
    let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
    if faults {
        driver.enable_faults(FaultPlan::new(41));
        driver.enable_integrity();
    }
    if recursion {
        // A small on-chip budget forces recursion at test scale.
        driver.enable_posmap_recursion(PlbConfig {
            plb_bytes: 256,
            onchip_posmap_bytes: 256,
            entry_bytes: 4,
        });
    }
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
    let mut gen = TraceGenerator::new(&profile, 41);
    if traced {
        aboram_telemetry::install(Collector::to_shared_buffer().0);
    }
    let mut reports = Vec::new();
    for (i, n) in [0, 1, BATCH - 1, BATCH, BATCH + 1, 1_000].into_iter().enumerate() {
        if i == 3 {
            driver.set_pipeline_depth(depth);
        }
        reports.push(driver.run((0..n).map(|_| gen.next_record())).unwrap());
    }
    if traced {
        aboram_telemetry::uninstall().expect("collector was installed");
    }
    assert_eq!(
        recursion,
        driver.posmap_model().is_some_and(|m| m.total_misses() > 0),
        "the posmap model recursed"
    );
    let injected = driver.injected_faults();
    assert_eq!(faults, injected.total() > 0, "the plan injected faults");
    Outcome { reports, injected, engine: driver.oram_mut().clone() }
}

#[test]
fn an_installed_collector_changes_no_result() {
    for scheme in [Scheme::Baseline, Scheme::Ab, Scheme::AbChannelPar] {
        for depth in [1, 4] {
            for faults in [false, true] {
                for recursion in [false, true] {
                    let cell = |traced| cell_runs(scheme, depth, faults, recursion, traced);
                    assert!(
                        cell(false) == cell(true),
                        "{scheme} depth {depth} faults {faults} recursion {recursion}"
                    );
                }
            }
        }
    }
}

#[test]
fn telemetry_does_not_perturb_a_pipelined_timed_backend() {
    let (plain_replies, plain_engine, _) = fixed_backend_run(false);
    let (replies, engine, occupancy) = fixed_backend_run(true);
    assert_eq!(plain_replies, replies, "an installed collector must not change any reply");
    assert!(plain_engine == engine, "nor the engine state");
    assert!(occupancy, "the controller reports occupancy and overlap for service runs too");
}
