//! A counting wrapper around the system allocator, behind the
//! `*.allocs_per_tuple` metrics.
//!
//! The counters are process-wide atomics, so allocations made by the
//! program's own worker threads are counted too. Counting is off
//! unless a traced rung turns it on: the end-to-end runs pay one
//! relaxed load of a read-only flag per allocation and never write a
//! shared cache line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: none of these publishes other data, hence `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Install with `#[global_allocator]` in the binary (and in a test
/// binary that wants to count).
pub struct CountingAlloc;

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are touched
// only through atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and bytes requested while counting was on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

/// Zero the counters (once per rung).
pub fn reset() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
}

/// Turn counting on or off. The traced driver turns it on around the
/// calls into the layer and off around its own bookkeeping.
pub fn counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

pub fn read() -> AllocCount {
    AllocCount {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Count what `f` allocates (on any thread) from a zeroed counter.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    reset();
    counting(true);
    let r = f();
    counting(false);
    (r, read())
}
