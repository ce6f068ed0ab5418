//! Counting global allocator: a pass-through to [`System`] that tallies
//! every allocation event (alloc, alloc_zeroed, realloc) in one atomic, so
//! the driver can report exact heap allocations per unit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNT: AtomicU64 = AtomicU64::new(0);

/// The `#[global_allocator]` shim.
pub struct CountingAlloc;

// SAFETY: every operation is delegated unchanged to `System`; the only extra
// work is an atomic add, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Relaxed: the tally publishes no other data; readers only need
        // the count itself, read after the counted work has been joined.
        COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed); // Relaxed: see `alloc`.
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed); // Relaxed: see `alloc`.
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation events since process start, across all threads.
pub fn count() -> u64 {
    COUNT.load(Ordering::SeqCst)
}
