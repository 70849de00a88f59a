//! Deterministic parallel cell executor with cost-aware work stealing.
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
//! Grids are heterogeneous: a Baseline warm-up cell costs ~1.6× an AB cell
//! (measured — see `crate::CostModel`), and sweep grids mix access counts
//! that differ by orders of magnitude. Claiming cells in grid order lets an
//! expensive cell land on the last worker and stretch the run by its full
//! length. [`CellExecutor::run_weighted`] therefore schedules by predicted
//! cost: cells are sorted longest-first and striped across per-worker
//! queues; each worker drains its own queue front-to-back (most expensive
//! first — the classic LPT heuristic), and a worker whose queue runs dry
//! *steals from the tail* of another's, picking up the cheapest remaining
//! cell where the double-claim races are shortest. Scheduling order never
//! touches results: they are keyed by grid position, so any jobs count and
//! any steal interleaving produce byte-identical output.
//! [`CellExecutor::run`] is the uniform-cost special case (stable sort →
//! original grid order).
//!
//! The worker count follows the `run_all` convention: `ABORAM_JOBS` (or a
//! `--jobs N` flag where a binary accepts one), defaulting to the machine's
//! available parallelism and clamped to it — oversubscription cannot speed
//! up CPU-bound cells and only distorts wall-clock timings. A failed
//! `available_parallelism` probe logs the fallback to one worker once
//! instead of silently serializing.

use std::collections::VecDeque;
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
/// [`default_jobs`]. Zero and unparsable values are ignored, and requests
/// beyond the machine's available parallelism are clamped: simulation
/// cells are CPU-bound, so oversubscribing physical cores cannot finish a
/// grid sooner — it only inflates per-cell wall-clock time.
pub fn jobs_from_env() -> usize {
    std::env::var("ABORAM_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .map_or_else(default_jobs, clamp_jobs)
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
    /// available parallelism like `ABORAM_JOBS` (see [`jobs_from_env`]).
    pub fn from_env_or_args(args: &[String]) -> Self {
        let flag = args
            .iter()
            .position(|a| a == "--jobs")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n > 0);
        match flag {
            Some(n) => Self::with_jobs(clamp_jobs(n)),
            None => Self::from_env(),
        }
    }

    /// The worker count this executor fans out to.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes `f(index, cell)` for every cell, returning the results in
    /// cell order. Equivalent to [`CellExecutor::run_weighted`] with a
    /// uniform cost, so cells are claimed in grid order and a single-worker
    /// executor walks the grid exactly like the old sequential loops. A
    /// panicking cell propagates to the caller.
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
        self.run_weighted(cells, |_, _| 1, f)
    }

    /// Executes `f(index, cell)` for every cell with cost-aware scheduling:
    /// `cost(index, &cell)` predicts each cell's relative expense (see
    /// `crate::CostModel::predict`), expensive cells start first, and idle
    /// workers steal the cheapest remaining cells from other workers'
    /// queue tails. Results (and merged telemetry) still come back in grid
    /// order — scheduling affects wall-clock only, never a byte of output.
    pub fn run_weighted<T, R, C, F>(&self, cells: Vec<T>, cost: C, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        C: Fn(usize, &T) -> u64,
        F: Fn(usize, T) -> R + Sync,
    {
        let traced = aboram_telemetry::enabled();
        let caller_collector = if traced { aboram_telemetry::uninstall() } else { None };

        let n = cells.len();
        let costs: Vec<u64> = cells.iter().enumerate().map(|(i, c)| cost(i, c)).collect();
        let order = schedule_order(&costs);
        let workers = self.jobs.min(n.max(1));
        // Stripe the longest-first order round-robin across per-worker
        // queues: every worker starts on one of the most expensive cells
        // and keeps its own queue sorted longest-first.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new(order.iter().copied().skip(w).step_by(workers).collect()))
            .collect();
        let slots: Vec<Mutex<Option<T>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
        // One result slot per cell: the value plus its captured telemetry.
        type ResultSlot<R> = Mutex<Option<(R, Option<String>)>>;
        let results: Vec<ResultSlot<R>> = (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let slots = &slots;
                    let results = &results;
                    let f = &f;
                    scope.spawn(move || loop {
                        // Own queue first (front = most expensive remaining),
                        // then steal the cheapest cell from another worker's
                        // tail.
                        let mut claimed = queues[w].lock().expect("queue lock").pop_front();
                        if claimed.is_none() {
                            for offset in 1..workers {
                                let victim = (w + offset) % workers;
                                claimed = queues[victim].lock().expect("queue lock").pop_back();
                                if claimed.is_some() {
                                    break;
                                }
                            }
                        }
                        let Some(i) = claimed else { break };
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

/// The claim order for a grid with the given predicted costs: indices
/// sorted longest-first, original grid order breaking ties — so a uniform
/// cost degenerates to grid order and the sort is fully deterministic.
fn schedule_order(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].cmp(&costs[a]).then(a.cmp(&b)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order() {
        for jobs in [1, 2, 4, 7] {
            let cells: Vec<usize> = (0..23).collect();
            let out = CellExecutor::with_jobs(jobs).run(cells, |i, c| {
                assert_eq!(i, c);
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
    fn weighted_run_returns_results_in_grid_order() {
        // Heterogeneous costs, including ties and zeros, at several worker
        // counts: scheduling must never reorder results.
        let costs = [5u64, 0, 900, 900, 3, 42, 0, 17_000, 1, 1];
        for jobs in [1, 2, 3, 8] {
            let cells: Vec<usize> = (0..costs.len()).collect();
            let out = CellExecutor::with_jobs(jobs).run_weighted(
                cells,
                |i, _| costs[i],
                |i, c| {
                    assert_eq!(i, c);
                    c * 10
                },
            );
            assert_eq!(out, (0..costs.len()).map(|i| i * 10).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn schedule_order_is_longest_first_with_stable_ties() {
        assert_eq!(schedule_order(&[5, 9, 9, 1]), vec![1, 2, 0, 3]);
        assert_eq!(schedule_order(&[1, 1, 1]), vec![0, 1, 2], "uniform cost keeps grid order");
        assert!(schedule_order(&[]).is_empty());
    }

    #[test]
    fn longest_first_ordering_reduces_makespan_on_a_synthetic_grid() {
        // Simulate greedy list scheduling (each cell goes to the earliest-
        // free worker) for a claim order over synthetic costs.
        fn makespan(order: &[usize], costs: &[u64], workers: usize) -> u64 {
            let mut free_at = vec![0u64; workers];
            for &i in order {
                let w = (0..workers).min_by_key(|&w| free_at[w]).expect("worker");
                free_at[w] += costs[i];
            }
            free_at.into_iter().max().unwrap_or(0)
        }
        // Grid-order's worst case: the expensive cell arrives last and runs
        // alone after everything else finished.
        let costs = [1u64, 1, 1, 1, 1, 1, 10];
        let grid_order: Vec<usize> = (0..costs.len()).collect();
        let lpt = makespan(&schedule_order(&costs), &costs, 2);
        let naive = makespan(&grid_order, &costs, 2);
        assert_eq!(lpt, 10, "expensive cell starts first, cheap cells pack the other worker");
        assert_eq!(naive, 3 + 10, "grid order leaves the straggler for the end");
        assert!(lpt < naive);
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
