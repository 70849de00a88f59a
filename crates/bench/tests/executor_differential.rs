//! Differential checks for the parallel cell executor and the study runner
//! on it: the jobs count must never move a single bit of any observable
//! output. A fig08-shaped (profile × scheme) window list is measured at
//! `jobs=1` and `jobs=4` and the assembled result table, the telemetry JSONL
//! trace and the golden-case digests are compared byte for byte.

use aboram_bench::{measure, CellExecutor, Experiment, Run, Window};
use aboram_core::Scheme;
use aboram_telemetry::Collector;
use aboram_trace::profiles;
use std::path::Path;

/// Measures `windows` on `jobs` workers and returns the table of their
/// execution cycles plus the telemetry trace the runs produced.
fn measured_grid(env: &Experiment, windows: &[Window], jobs: usize) -> (String, String) {
    let (collector, buf) = Collector::to_shared_buffer();
    aboram_telemetry::install(collector);
    let measured = measure(env, &CellExecutor::with_jobs(jobs), windows).expect("windows run");
    let mut c = aboram_telemetry::uninstall().expect("collector still installed");
    c.flush().expect("flush");
    let mut table = String::from("| benchmark | scheme | exec cycles |\n|---|---|---|\n");
    for w in windows {
        let cycles = measured.get(w).report.exec_cycles;
        let Run::Timed { profile, .. } = &w.run else { unreachable!("timed windows only") };
        table.push_str(&format!("| {} | {} | {cycles} |\n", profile.name, w.cell.config.scheme));
    }
    assert_eq!(buf.contents().matches("\"run\"").count(), measured.timed.len());
    (table, buf.take())
}

/// A small fig08-shaped window list (2 profiles × 3 schemes) at jobs 1 and 4.
#[test]
fn jobs_count_never_moves_a_bit_in_tables_or_telemetry() {
    let env =
        Experiment { levels: 10, warmup: 1_500, timed: 200, protocol_accesses: 0, seed: 0xD1FF };
    let suite: Vec<_> = profiles::spec2017().into_iter().take(2).collect();
    let schemes = [Scheme::Baseline, Scheme::DR, Scheme::Ab];
    let windows: Vec<Window> = suite
        .iter()
        .flat_map(|p| schemes.map(|s| Window::timed(env.warm(s).unwrap(), p)))
        .collect();
    let (table_seq, trace_seq) = measured_grid(&env, &windows, 1);
    assert!(trace_seq.contains("\"run\""), "telemetry captured runs:\n{trace_seq}");
    let (table_par, trace_par) = measured_grid(&env, &windows, 4);
    assert_eq!(table_seq, table_par, "result table depends on jobs count");
    assert_eq!(trace_seq, trace_par, "telemetry trace depends on jobs count");
}

/// A deliberately lopsided window list — one scheme with four windows and a
/// duplicate, others with one or two. Cell costs differ by a factor of four,
/// so at `jobs > 1` cells finish out of claim order — which must still never
/// reorder (or change) a byte of output.
#[test]
fn lopsided_grid_is_byte_identical_at_jobs_1_3_8() {
    let env =
        Experiment { levels: 10, warmup: 1_000, timed: 150, protocol_accesses: 0, seed: 0x3E16 };
    let p: Vec<_> = profiles::spec2017().into_iter().take(4).collect();
    let windows: Vec<Window> = [
        (Scheme::Baseline, 0),
        (Scheme::Ab, 0),
        (Scheme::Ab, 1),
        (Scheme::DR, 1),
        (Scheme::Ab, 2),
        (Scheme::Ab, 0),
        (Scheme::Baseline, 2),
        (Scheme::Ab, 3),
        (Scheme::Ir, 3),
    ]
    .map(|(s, i)| Window::timed(env.warm(s).unwrap(), &p[i]))
    .into();
    let (table_seq, trace_seq) = measured_grid(&env, &windows, 1);
    assert_eq!(trace_seq.matches("\"run\"").count(), 8, "one run per distinct window");
    for jobs in [3, 8] {
        let (table, trace) = measured_grid(&env, &windows, jobs);
        assert_eq!(table_seq, table, "jobs={jobs}: result table depends on jobs count");
        assert_eq!(trace_seq, trace, "jobs={jobs}: telemetry trace depends on jobs count");
    }
}

/// Runs a (scheme × stall-seed) grid of timing cells whose fault plans
/// schedule channel stalls only (no data faults), so the per-bank ordered
/// queues absorb bursts of delayed service, and returns the assembled
/// report table plus the telemetry trace.
fn stall_schedule_grid(jobs: usize) -> (String, String) {
    use aboram_bench::derive_cell_seed;
    use aboram_core::{FaultConfig, FaultPlan, OramConfig, TimingDriver};
    use aboram_dram::DramConfig;
    use aboram_trace::TraceGenerator;

    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").expect("mcf");
    let stalls = FaultConfig {
        stall_events: 6,
        stall_duration: 8_000,
        stall_horizon: 400_000,
        ..FaultConfig::default()
    };
    let grid: Vec<(Scheme, u64)> =
        [Scheme::Baseline, Scheme::DR, Scheme::Ab].iter().flat_map(|&s| [(s, 0), (s, 1)]).collect();

    let (collector, buf) = Collector::to_shared_buffer();
    aboram_telemetry::install(collector);
    let reports = CellExecutor::with_jobs(jobs).run(grid.clone(), |index, (scheme, _)| {
        let cfg = OramConfig::builder(9, scheme).seed(0x57A1).build().expect("config builds");
        let mut driver = TimingDriver::new(&cfg, DramConfig::default()).expect("driver builds");
        driver
            .enable_faults(FaultPlan::with_config(derive_cell_seed(0x57A1, index as u64), stalls));
        let mut gen = TraceGenerator::new(&profile, 11);
        driver.run((0..300).map(|_| gen.next_record())).expect("stalled run completes")
    });
    let mut c = aboram_telemetry::uninstall().expect("collector still installed");
    c.flush().expect("flush");

    let mut table = String::from("| scheme | seed | exec cycles | bytes | detected |\n");
    for ((scheme, salt), report) in grid.iter().zip(&reports) {
        table.push_str(&format!(
            "| {scheme} | {salt} | {} | {} | {} |\n",
            report.exec_cycles,
            report.bytes_transferred,
            report.recovery.faults_detected()
        ));
    }
    (table, buf.take())
}

/// Channel-stall schedules only delay service inside the per-bank ordered
/// queues — they must not open a scheduling race: cycle counts and the
/// telemetry trace are byte-identical at jobs=1 and jobs=4.
#[test]
fn stall_schedules_are_byte_identical_across_jobs_counts() {
    let (table_seq, trace_seq) = stall_schedule_grid(1);
    assert!(table_seq.lines().count() > 1, "grid produced rows:\n{table_seq}");
    assert!(trace_seq.contains("\"run\""), "telemetry captured runs:\n{trace_seq}");
    let (table_par, trace_par) = stall_schedule_grid(4);
    assert_eq!(table_seq, table_par, "stalled cycle counts depend on jobs count");
    assert_eq!(trace_seq, trace_par, "stalled telemetry depends on jobs count");
}

#[test]
fn golden_digests_identical_at_any_jobs_count() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let cases = aboram::golden::cases();

    let digest_grid = |jobs: usize| {
        CellExecutor::with_jobs(jobs).run(cases.to_vec(), |_, (name, scheme)| {
            let report = aboram::golden::run_case(scheme).expect("golden case runs");
            aboram::golden::digest_json(name, scheme, &report)
        })
    };

    let sequential = digest_grid(1);
    for ((name, _), got) in cases.iter().zip(&sequential) {
        let want = std::fs::read_to_string(fixtures.join(format!("{name}.json")))
            .expect("committed golden fixture");
        assert_eq!(&want, got, "{name}: jobs=1 digest diverged from the committed fixture");
    }
    assert_eq!(sequential, digest_grid(4), "golden digests depend on jobs count");
}
