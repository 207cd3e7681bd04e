//! Test-only support: a counting global allocator.
//!
//! The flat-memory hot path (event arena, SoA runs, word-width clock
//! ops) promises **zero allocations per delivered message** once a run
//! reaches steady state. Timing benchmarks can regress silently when an
//! allocation sneaks back in; counting allocations makes the property a
//! unit test instead.
//!
//! Usage, from an integration test (the workspace's is the cost table,
//! `tests/cost_table/mod.rs` — test binaries only, so the allocator
//! override cannot leak into production code):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: msgorder_testkit::CountingAlloc = msgorder_testkit::CountingAlloc;
//!
//! let before = msgorder_testkit::allocations();
//! hot_path();
//! assert_eq!(msgorder_testkit::allocations() - before, 0);
//! ```
//!
//! Counts are global and monotone. Tests in one binary share them, so
//! measure deltas, not absolutes, and keep guarded sections free of
//! other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static LARGEST_REQUEST: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every call that produces
/// or grows a block.
///
/// Install it with `#[global_allocator]` in a test binary and read the
/// counters through [`allocations`] / [`allocated_bytes`] /
/// [`largest_request`]. A
/// reallocation that grows a buffer counts as one allocation (matching the number of calls into the allocator, the
/// quantity the zero-alloc guards bound).
pub struct CountingAlloc;

// SAFETY: delegates every operation unchanged to `System`; the counter
// updates are lock-free atomics, safe inside the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LARGEST_REQUEST.fetch_max(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LARGEST_REQUEST.fetch_max(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocator calls that produced (or grew) a block so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes requested so far (grows monotonically; frees do not
/// subtract).
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Runs `f` and returns `(result, the largest single request during
/// f)`: the size of the biggest block allocated, or grown to, in bytes —
/// what bounds a peak that one buffer sets, such as a matrix.
///
/// Single-threaded sections only, as for [`counting`]; calls do not nest.
pub fn largest_request<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let outside = LARGEST_REQUEST.swap(0, Ordering::Relaxed);
    let out = f();
    let largest = LARGEST_REQUEST.fetch_max(outside, Ordering::Relaxed);
    (out, largest)
}

/// Runs `f` and returns `(result, allocations during f)`.
///
/// Single-threaded sections only: the counters are process-global, so
/// concurrent allocations elsewhere would be attributed to `f`.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}
