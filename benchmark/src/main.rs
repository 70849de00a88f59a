//! The repository's benchmark (ISSUE 11): four long workloads, two clocks,
//! and a layer ladder that attributes host time from outside.
//!
//! ```text
//! aboram-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! aboram-benchmark --selfcheck
//! ```
//!
//! One process measures one workload on one thread. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the same window, then the layer
//! ladder and a traced pass, prints the per-layer metrics and writes
//! `benchmark/out/trace_<workload>.json`. The last line of standard output
//! is the machine-readable result. See `benchmark/README.md`.

mod host;
mod ladder;
mod metrics;
mod recsink;
mod selfcheck;
mod shadow;
mod spans;
mod stats;
mod workloads;

use metrics::{Clock, MetricDef, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Mode, Outcome, Plan, WORKLOADS};

/// The seed every recorded baseline in `benchmark/README.md` used.
const DEFAULT_SEED: u64 = 20_230_225;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    mode: Mode,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: aboram-benchmark --workload <{}> [--seed N] [--seconds 1..=60] [--trace 0|1]\n       \
         aboram-benchmark --selfcheck",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        mode: Mode::Untraced,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.mode = match value.as_str() {
                    "0" => Mode::Untraced,
                    "1" => Mode::Traced,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.0 == parsed.workload) {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    if !(1..=60).contains(&parsed.seconds) {
        return Err(format!("--seconds {} is outside 1..=60", parsed.seconds));
    }
    Ok(parsed)
}

/// `benchmark/out` from the repository root, `out` from inside `benchmark/`.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn print_table(title: &str, table: &[MetricDef], out: &Outcome, keep: impl Fn(&MetricDef) -> bool) {
    println!("{title}");
    for m in table.iter().filter(|m| keep(m)) {
        let clock = match m.clock {
            Clock::Host => "host",
            Clock::Sim | Clock::SimTraced => "sim",
        };
        println!("  {:<40} {:>22} {:<7} [{clock}]", m.name, out.values.get(m.name), m.unit);
    }
}

fn run_workload(args: &Args) -> ExitCode {
    let rate = WORKLOADS.iter().find(|w| w.0 == args.workload).expect("validated").1;
    let plan = Plan { seed: args.seed, ops: rate * args.seconds, mode: args.mode };
    println!(
        "workload {} seed {} ops {} ({} s at {rate} ops per second of --seconds) trace {}",
        args.workload,
        args.seed,
        plan.ops,
        args.seconds,
        u8::from(args.mode == Mode::Traced)
    );
    println!("{}", host::fingerprint());

    let before = host::calibrate_in_child();
    let mut tracer = Tracer::new();
    let mut out = match workloads::run(&args.workload, plan, &mut tracer) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: aborted: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let after = host::calibrate_in_child();
    out.values.set("peak_rss_mib", host::peak_rss_mib());
    out.values.set("host.nproc", host::nproc() as f64);
    if let (Some(b), Some(a)) = (before, after) {
        println!(
            "calibration before/after the run: 64 MiB pointer chase {:.2}/{:.2} ns per load, \
             LCG loop {:.3}/{:.3} ns per step",
            b.chase_ns, a.chase_ns, b.alu_ns, a.alu_ns
        );
        out.values.set("host.calib_chase_ns", (b.chase_ns + a.chase_ns) / 2.0);
        out.values.set("host.calib_alu_ns", (b.alu_ns + a.alu_ns) / 2.0);
    } else {
        println!("calibration: the child process could not run");
    }

    let traced = args.mode == Mode::Traced;
    print_table("end-to-end metrics", END_TO_END, &out, |_| true);
    print_table(
        if traced {
            "per-layer metrics"
        } else {
            "per-layer simulated counters (host times: --trace 1)"
        },
        PER_LAYER,
        &out,
        |m| traced || m.clock == Clock::Sim,
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    println!("note: host-clock figures have no external reference; compare them only between runs on one host, with the calibration lines beside them");
    for violation in &out.violations {
        println!("VIOLATION: {violation}");
    }
    println!(
        "failed_op_share {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    );
    println!("sim_digest {:016x}", out.values.sim_digest());

    if traced {
        let path = out_dir().join(format!("trace_{}.json", args.workload));
        match tracer.write_json(&path, &args.workload, args.seed) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        out.values.json_object(if traced { PER_LAYER } else { END_TO_END })
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(host::CALIBRATE_FLAG) => {
            let c = host::calibrate();
            println!("{} {}", c.chase_ns, c.alu_ns);
            ExitCode::SUCCESS
        }
        Some("--selfcheck") => selfcheck::run(),
        _ => match parse(&args) {
            Ok(args) => run_workload(&args),
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                ExitCode::from(64)
            }
        },
    }
}
