//! The engine's memory is one fixed record per bucket (DESIGN.md §8 "The
//! bucket record"): a counting `#[global_allocator]` builds and warms an AB
//! engine at two tree sizes and checks that the number of live allocations
//! does not depend on the bucket count, and that live bytes grow by no more
//! than a record plus the position map's share per added bucket. These are
//! counts that repeat exactly, so they gate the property without a host
//! clock. The census is per thread, so the harness and any test added beside
//! this one cannot disturb it.

use aboram_core::{AccessKind, BucketMeta, CountingSink, OramConfig, RingOram, Scheme};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const _: () = assert!(std::mem::size_of::<BucketMeta>() == 64);

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Live (allocations, bytes) made by this thread while counting.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

struct CensusAllocator;

fn record(allocations: i64, bytes: i64) {
    // `try_with`: the allocator also runs while a thread is being torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = LIVE.try_with(|live| {
                let (a, b) = live.get();
                live.set((a + allocations, b + bytes));
            });
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's own arguments,
// so `System`'s guarantees carry over unchanged; the bookkeeping touches only
// `Cell`s in const-initialised thread-locals, which neither allocate nor
// register a destructor (no reentry into the allocator).
unsafe impl GlobalAlloc for CensusAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(1, layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-1, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` block; `new_size`
        // is the caller's, under `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(0, new_size as i64 - layout.size() as i64);
        }
        p
    }
}

#[global_allocator]
static CENSUS: CensusAllocator = CensusAllocator;

/// Live (allocations, bytes) held by a warmed `Scheme::Ab` engine of
/// `levels` levels, and its bucket count.
fn census(levels: u8) -> (i64, i64, i64) {
    let cfg = OramConfig::builder(levels, Scheme::Ab).seed(7).build().unwrap();
    let start = LIVE.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let mut oram = RingOram::new(&cfg).unwrap();
    let mut sink = CountingSink::new();
    let blocks = oram.block_count();
    for i in 0..20_000u64 {
        let block = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % blocks;
        oram.access(AccessKind::Read, block, None, &mut sink).unwrap();
    }
    COUNTING.with(|on| on.set(false));
    let end = LIVE.with(Cell::get);
    assert!(oram.stats().reshuffles.total() > 0 && oram.stats().evict_paths > 0);
    (end.0 - start.0, end.1 - start.1, oram.geometry().bucket_count() as i64)
}

#[test]
fn live_allocations_do_not_depend_on_the_bucket_count() {
    let (small_allocs, small_bytes, small_buckets) = census(10);
    let (large_allocs, large_bytes, large_buckets) = census(14);
    println!("L = 10: {small_allocs} live allocations, {small_bytes} B, {small_buckets} buckets");
    println!("L = 14: {large_allocs} live allocations, {large_bytes} B, {large_buckets} buckets");

    // One slab of records, one position map, per-level tables: a 16× larger
    // tree holds the same handful of allocations (the `Vec`-backed bucket
    // held about two per bucket — 32 550 at L = 14).
    assert!(
        (large_allocs - small_allocs).abs() <= 16,
        "live allocations follow the bucket count: {small_allocs} at L = 10, {large_allocs} at L = 14"
    );
    assert!(large_allocs < 128, "{large_allocs} live allocations at L = 14");

    // Per added bucket: one 64 B record plus the position map's share (2.5
    // blocks × 4 B), ≈ 74 B; the `Vec`-backed bucket cost about 340 B.
    let per_bucket = (large_bytes - small_bytes) / (large_buckets - small_buckets);
    assert!(per_bucket <= 80, "{per_bucket} live bytes per added bucket");
    assert!(
        per_bucket >= std::mem::size_of::<BucketMeta>() as i64,
        "{per_bucket}: census is blind"
    );
}
