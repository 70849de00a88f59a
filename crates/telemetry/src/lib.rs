//! Phase-level tracing, metrics registry and perf-report pipeline for the
//! AB-ORAM simulator.
//!
//! The crate has four layers:
//!
//! * [`Phase`] — the protocol-phase taxonomy traffic is labeled with
//!   (readPath, evictPath, earlyReshuffle, background eviction, metadata,
//!   DeadQ reclaim, remote allocation, recovery retries).
//! * [`Registry`] — named counters, gauges and per-level histograms with
//!   window/run delta snapshots, reusing `aboram-stats` accumulators.
//! * [`Collector`] + the free-function hooks ([`begin_run`], [`mem_read`],
//!   [`span`], [`counter_add`], …) — a thread-local sink instrumented code
//!   reports through. With no collector installed every hook is a single
//!   thread-local `bool` read; hooks never consume engine randomness, so
//!   fault-free runs are bit-identical with telemetry on or off. Work a
//!   thread hands to another [`capture`]s its hooks there, and they are
//!   replayed from the [`Captured`] buffer into the owner's collector.
//! * [`report`] — parses the exported JSONL trace back into [`RunTrace`]s
//!   and renders per-phase / per-level cycle-breakdown tables (the
//!   `perf_report` bench binary drives this).
//!
//! Cycle attribution leans on a property of the DRAM model: every 64 B
//! request occupies the data bus for a constant burst (exported in the run
//! header), so request counts × burst reproduce the timing driver's
//! per-tag bus totals exactly, and the report can cross-check itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod jsonl;
pub mod phase;
pub mod registry;
pub mod report;
pub mod ring_log;

pub use collector::{
    begin_run, capture, counter_add, dump_ring, enabled, end_run, event, gauge, install,
    install_to_path, mem_read, mem_write, observe_level, record_mark, span, uninstall, Captured,
    Collector, SharedBuffer, TelemetryGuard, DEFAULT_WINDOW_RECORDS,
};
pub use phase::{Phase, PHASE_COUNT};
pub use registry::Registry;
pub use report::{fold_flamegraph, parse_trace, render_report, CellCounts, RunTrace};
pub use ring_log::{Event, RingLog, DEFAULT_RING_CAPACITY};
