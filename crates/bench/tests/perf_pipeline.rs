//! End-to-end check of the perf-report pipeline (DESIGN.md §7): measure a
//! plain Ring and an AB-ORAM timed window with a collector installed,
//! parse the JSONL it wrote, and verify the per-phase cycle attribution
//! sums to the DRAM-reported bus total within 1 % for every run.

use aboram_bench::{measure, CellExecutor, Experiment, Window};
use aboram_core::Scheme;
use aboram_telemetry::{parse_trace, render_report, Collector, Phase};
use std::io::BufReader;

#[test]
fn phase_attribution_matches_bus_total_within_one_percent() {
    let env = Experiment { levels: 11, warmup: 2_000, timed: 300, protocol_accesses: 0, seed: 5 };
    let profile = aboram_trace::profiles::spec2017().into_iter().next().unwrap();

    let (collector, buf) = Collector::to_shared_buffer();
    aboram_telemetry::install(collector);
    let windows =
        [Scheme::PlainRing, Scheme::Ab].map(|s| Window::timed(env.warm(s).unwrap(), &profile));
    measure(&env, &CellExecutor::with_jobs(2), &windows).expect("timed windows run");
    let mut c = aboram_telemetry::uninstall().expect("collector was installed");
    c.flush().unwrap();

    let runs = parse_trace(BufReader::new(buf.contents().as_bytes())).expect("trace parses");
    assert_eq!(runs.len(), 2, "one run per scheme");
    assert_eq!(runs[0].scheme, "Ring");
    for run in &runs {
        assert!(run.complete, "{}: run summary missing", run.scheme);
        assert_eq!(run.records, 300);
        assert!(run.bus_cycles > 0 && run.exec_cycles > 0);
        assert!(run.phase_cycles(Phase::ReadPath) > 0, "{}: no readPath traffic", run.scheme);
        let err = run.attribution_error();
        assert!(
            err <= 0.01,
            "{}: attributed {} vs bus {} ({:.3} % off)",
            run.scheme,
            run.attributed_cycles(),
            run.bus_cycles,
            100.0 * err
        );
    }

    // The rendered report prints the breakdown and flags both runs OK.
    let report = render_report(&runs);
    assert_eq!(report.matches("OK: within 1 %").count(), 2, "report:\n{report}");
    assert!(report.contains("readPath"), "report lacks a phase table:\n{report}");
}
