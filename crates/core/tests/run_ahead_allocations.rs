//! The run-ahead path allocates per run, not per record (DESIGN.md §16,
//! "What crosses the thread"): a process-wide counting `#[global_allocator]`
//! counts every allocation both stages make — the engine and stager on this
//! thread, the core, controller and DRAM twin on the lane's helper — while a
//! warm `TimingDriver` runs 2 000 and then 20 000 records. The two counts
//! must agree within a small constant: what each run allocates, plus the
//! odd message buffer an unusually large access grows. One allocation per
//! record would put them 18 000 apart.
//!
//! The counter is process-wide because the helper is another thread, so
//! this binary holds a single test: nothing else may allocate while it
//! counts.

use aboram_core::{OramConfig, Scheme, TimingDriver};
use aboram_dram::DramConfig;
use aboram_trace::{profiles, TraceGenerator, TraceRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations and reallocations made by every thread of the process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's own arguments,
// so `System`'s guarantees carry over unchanged; the bookkeeping is one
// relaxed atomic add, which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block; `new_size`
        // is the caller's, under `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Allocations `run` makes.
fn allocations(run: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    run();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// How far apart the two runs' counts may be: a few message buffers growing
/// for an access larger than the shorter run met.
const SLACK: u64 = 8;

#[test]
fn a_warm_run_ahead_driver_allocates_per_run_not_per_record() {
    let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
    for (scheme, depth) in [(Scheme::Ab, 1), (Scheme::AbChannelPar, 4)] {
        let cfg = OramConfig::builder(10, scheme).seed(29).build().unwrap();
        let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
        driver.set_pipeline_depth(depth);
        driver.warm_up(5_000).unwrap();
        // The records exist before counting starts.
        let mut gen = TraceGenerator::new(&profile, 29);
        let records: Vec<TraceRecord> = (0..26_000).map(|_| gen.next_record()).collect();
        let (warm, rest) = records.split_at(4_000);
        let (short, long) = rest.split_at(2_000);
        // Warm: every buffer that outlives a run reaches its steady size.
        driver.run(warm.iter().copied()).unwrap();

        let per_short = allocations(|| {
            driver.run(short.iter().copied()).unwrap();
        });
        let per_long = allocations(|| {
            driver.run(long.iter().copied()).unwrap();
        });
        println!("{scheme} depth {depth}: {per_short} allocations for 2 000 records, {per_long} for 20 000");
        assert!(
            per_long <= per_short + SLACK,
            "{scheme} depth {depth}: {per_short} allocations for 2 000 records, {per_long} for 20 000"
        );
        assert!(per_short < 100, "{scheme} depth {depth}: {per_short} allocations per run");
    }
}
