//! `perf_report` — render telemetry JSONL traces into per-phase /
//! per-level cycle-breakdown tables (DESIGN.md §7).
//!
//! Usage:
//!
//! ```sh
//! perf_report [--flamegraph] trace1.jsonl [trace2.jsonl ...]
//! ```
//!
//! Each input is a trace produced by `aboram simulate --telemetry <out>`
//! or any bench binary run with `ABORAM_TELEMETRY=<out>`; all runs found
//! across the inputs are reported in order, so a Ring trace and an AB
//! trace can be compared side by side from one invocation. Every
//! breakdown ends with a consistency line cross-checking the phase-
//! attributed bus cycles against the cycles the DRAM model reported
//! (they must agree within 1 %).
//!
//! `--flamegraph` additionally writes `results/flamegraph.folded` in the
//! collapsed-stack format (`scheme;L<level>;<phase> <bus-cycles>`), ready
//! for `inferno-flamegraph`, `flamegraph.pl` or a speedscope import.

use aboram_bench::{emit, refuse};
use aboram_telemetry::{fold_flamegraph, parse_trace, render_report, RunTrace};
use std::io::BufReader;

fn main() {
    let mut flamegraph = false;
    let paths: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| {
            if a == "--flamegraph" {
                flamegraph = true;
                false
            } else {
                true
            }
        })
        .collect();
    if paths.is_empty() || paths.iter().any(|p| p == "--help" || p == "-h") {
        refuse("usage: perf_report [--flamegraph] <trace.jsonl> [more traces ...]");
    }
    let mut runs: Vec<RunTrace> = Vec::new();
    for path in &paths {
        let file =
            std::fs::File::open(path).unwrap_or_else(|e| refuse(format!("error: {path}: {e}")));
        let parsed = parse_trace(BufReader::new(file))
            .unwrap_or_else(|e| refuse(format!("error: {path}: {e}")));
        eprintln!("[{path}: {} run(s)]", parsed.len());
        runs.extend(parsed);
    }
    let report = render_report(&runs);
    emit("perf_report.md", &report);
    if flamegraph {
        emit("flamegraph.folded", &fold_flamegraph(&runs));
    }
    if runs.iter().any(|r| r.complete && r.attribution_error() > 0.01) {
        eprintln!("error: a run's phase attribution diverges from the DRAM-reported total");
        std::process::exit(1);
    }
}
