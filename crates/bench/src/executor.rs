//! Deterministic parallel cell executor.
//!
//! Every figure and table is a grid of independent (scheme × workload ×
//! config) simulation cells. [`CellExecutor`] fans those cells out over a
//! scoped thread pool while keeping every observable output identical to a
//! sequential run:
//!
//! * **Results** are collected into slots indexed by cell position, so the
//!   caller assembles tables in the original cell order no matter which
//!   worker finished first.
//! * **Determinism** comes from the cells themselves: each cell seeds its
//!   own RNGs from its configuration (or from [`derive_cell_seed`]), never
//!   from shared mutable state, so the jobs count cannot move a single bit
//!   of any simulated result.
//! * **Telemetry** is captured per cell. When the calling thread has a
//!   collector installed (see `telemetry_from_env`), each cell runs under
//!   its own [`aboram_telemetry::Collector`] writing to an in-memory
//!   buffer; after the grid completes, the buffers are drained *in cell
//!   order* into the caller's collector. The resulting JSONL trace is
//!   byte-identical for any jobs count, including `--jobs 1`.
//!
//! # Scheduling
//!
//! Workers claim cells in grid order through one atomic cursor, so a
//! single-worker executor walks the grid exactly like a sequential loop.
//! Claim order never touches results: they are keyed by grid position, so
//! any jobs count produces byte-identical output.
//!
//! The worker count follows the `run_all` convention: `ABORAM_JOBS` (or a
//! `--jobs N` flag where a binary accepts one), defaulting to the machine's
//! available parallelism and clamped to it — oversubscription cannot speed
//! up CPU-bound cells and only distorts wall-clock timings. A failed
//! `available_parallelism` probe logs the fallback to one worker once
//! instead of silently serializing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// Resolves the default worker count, logging (once per process) when the
/// parallelism probe fails and the pool falls back to a single worker.
pub fn default_jobs() -> usize {
    static WARN_ONCE: Once = Once::new();
    match std::thread::available_parallelism() {
        Ok(n) => n.get(),
        Err(e) => {
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "warning: available_parallelism probe failed ({e}); \
                     falling back to 1 worker (set ABORAM_JOBS to override)"
                );
            });
            1
        }
    }
}

/// Reads the worker count from `ABORAM_JOBS`, falling back to
/// [`default_jobs`] when it is unset or zero. An unparsable value is
/// refused like every scale knob (see `Experiment::from_env`), and requests
/// beyond the machine's available parallelism are clamped: simulation
/// cells are CPU-bound, so oversubscribing physical cores cannot finish a
/// grid sooner — it only inflates per-cell wall-clock time.
pub fn jobs_from_env() -> usize {
    match crate::env_knob("ABORAM_JOBS", 0usize) {
        0 => default_jobs(),
        n => clamp_jobs(n),
    }
}

/// Clamps a requested worker count to available parallelism (see
/// [`jobs_from_env`]). When the probe fails the request is honoured as-is.
fn clamp_jobs(requested: usize) -> usize {
    match std::thread::available_parallelism() {
        Ok(cap) => requested.clamp(1, cap.get()),
        Err(_) => requested.max(1),
    }
}

/// Derives an independent per-cell seed from a base seed and a cell index
/// using the SplitMix64 finalizer — the scheme cells should use when they
/// need a seed that is unique per grid position rather than shared from the
/// experiment configuration. Pure function of `(base, index)`, so the
/// derived stream is identical for any jobs count.
#[must_use]
pub fn derive_cell_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fixed-width scoped thread pool for simulation cells.
#[derive(Debug, Clone, Copy)]
pub struct CellExecutor {
    jobs: usize,
}

impl CellExecutor {
    /// An executor with exactly `jobs` workers (floored at one). No
    /// parallelism clamp is applied here — callers sizing from user input
    /// should go through [`CellExecutor::from_env`] or
    /// [`CellExecutor::from_env_or_args`].
    pub fn with_jobs(jobs: usize) -> Self {
        CellExecutor { jobs: jobs.max(1) }
    }

    /// An executor sized by `ABORAM_JOBS` / available parallelism.
    pub fn from_env() -> Self {
        Self::with_jobs(jobs_from_env())
    }

    /// Like [`CellExecutor::from_env`], but a `--jobs N` pair in `args`
    /// takes precedence over the environment. The flag is clamped to
    /// available parallelism and refused when unparsable, like `ABORAM_JOBS`
    /// (see [`jobs_from_env`]); `--jobs 0` defers to the environment.
    pub fn from_env_or_args(args: &[String]) -> Self {
        let flag = args.iter().position(|a| a == "--jobs").map(|i| {
            let text = args.get(i + 1).map_or("", String::as_str);
            crate::knob_or_refuse::<usize>("--jobs", text)
        });
        match flag {
            Some(n) if n > 0 => Self::with_jobs(clamp_jobs(n)),
            _ => Self::from_env(),
        }
    }

    /// The worker count this executor fans out to.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes `f(index, cell)` for every cell, returning the results in
    /// cell order. Workers claim cells through an atomic cursor, so a
    /// single-worker executor walks the grid in order exactly like a
    /// sequential loop. A panicking cell propagates to the caller.
    ///
    /// When the calling thread has a telemetry collector installed, each
    /// cell records into a private collector and the per-cell traces are
    /// appended to the caller's collector in cell order afterwards (see the
    /// module docs for the byte-identity argument).
    pub fn run<T, R, F>(&self, cells: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let traced = aboram_telemetry::enabled();
        let caller_collector = if traced { aboram_telemetry::uninstall() } else { None };

        let n = cells.len();
        let workers = self.jobs.min(n.max(1));
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
        // One result slot per cell: the value plus its captured telemetry.
        type ResultSlot<R> = Mutex<Option<(R, Option<String>)>>;
        let results: Vec<ResultSlot<R>> = (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let cell = slots[i]
                            .lock()
                            .expect("cell slot lock")
                            .take()
                            .expect("cell claimed exactly once");
                        let buf = traced.then(|| {
                            let (collector, buf) = aboram_telemetry::Collector::to_shared_buffer();
                            aboram_telemetry::install(collector);
                            buf
                        });
                        let result = f(i, cell);
                        let trace = buf.map(|b| {
                            if let Some(mut c) = aboram_telemetry::uninstall() {
                                let _ = c.flush();
                            }
                            b.take()
                        });
                        *results[i].lock().expect("result slot lock") = Some((result, trace));
                    })
                })
                .collect();
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });

        let mut out = Vec::with_capacity(n);
        let mut traces = Vec::with_capacity(if traced { n } else { 0 });
        for slot in results {
            let (result, trace) =
                slot.into_inner().expect("result slot lock").expect("every cell ran");
            out.push(result);
            if traced {
                traces.push(trace);
            }
        }
        if let Some(mut collector) = caller_collector {
            for text in traces.into_iter().flatten() {
                collector.append_raw(&text);
            }
            let _ = collector.flush();
            aboram_telemetry::install(collector);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order() {
        for jobs in [1, 2, 3, 4, 7, 8] {
            // With a second worker, cell 0 finishes only after cell 1 has:
            // completion order differs from grid order, result order must not.
            let (tx, rx) = std::sync::mpsc::channel();
            let rx = Mutex::new(rx);
            let cells: Vec<usize> = (0..23).collect();
            let out = CellExecutor::with_jobs(jobs).run(cells, |i, c| {
                assert_eq!(i, c);
                match i {
                    0 if jobs > 1 => rx.lock().expect("receiver").recv().expect("cell 1 ran"),
                    1 => tx.send(()).expect("receiver alive"),
                    _ => {}
                }
                c * 10
            });
            assert_eq!(out, (0..23).map(|i| i * 10).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u64> = CellExecutor::with_jobs(4).run(Vec::<u64>::new(), |_, c| c);
        assert!(out.is_empty());
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let a = derive_cell_seed(2023, 0);
        let b = derive_cell_seed(2023, 1);
        assert_ne!(a, b);
        assert_eq!(a, derive_cell_seed(2023, 0), "pure function of (base, index)");
        assert_ne!(derive_cell_seed(2024, 0), a, "base seed participates");
    }

    #[test]
    fn telemetry_merges_in_cell_order_for_any_jobs_count() {
        let trace_for = |jobs: usize| {
            let (collector, buf) = aboram_telemetry::Collector::to_shared_buffer();
            aboram_telemetry::install(collector);
            CellExecutor::with_jobs(jobs).run((0u64..6).collect(), |_, c| {
                aboram_telemetry::begin_run("cell", 2, 16);
                aboram_telemetry::counter_add("executor.test_cell", c + 1);
                aboram_telemetry::end_run(c, 0);
            });
            let mut c = aboram_telemetry::uninstall().expect("collector still installed");
            c.flush().expect("flush");
            buf.take()
        };
        let sequential = trace_for(1);
        assert!(sequential.contains("executor.test_cell"), "{sequential}");
        for jobs in [2, 4] {
            assert_eq!(trace_for(jobs), sequential, "jobs={jobs} trace must be byte-identical");
        }
    }
}
