//! A counting global allocator for the integration tests that assert on
//! allocation behaviour.  A test binary opts in with
//!
//! ```ignore
//! mod common;
//! #[global_allocator]
//! static ALLOC: common::CountingAlloc = common::CountingAlloc;
//! ```
//!
//! and reads [`largest_alloc`] ("no allocation sized by hostile input")
//! or [`large_allocs`] ("allocations grow with batches, not frames").

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations of at least this many bytes count as large: a field
/// frame's worth.
pub const LARGE: usize = 4096;

/// Forwards to the system allocator, recording the largest request and
/// the number of large ones.
pub struct CountingAlloc;

static LARGEST_ALLOC: AtomicUsize = AtomicUsize::new(0);
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    LARGEST_ALLOC.fetch_max(size, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The largest single allocation the test binary ever asked for.
#[allow(dead_code)] // each test binary reads the counter it asserts on
pub fn largest_alloc() -> usize {
    LARGEST_ALLOC.load(Ordering::Relaxed)
}

/// How many allocations of at least [`LARGE`] bytes the test binary has
/// made so far (every thread).
#[allow(dead_code)]
pub fn large_allocs() -> usize {
    LARGE_ALLOCS.load(Ordering::Relaxed)
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is relaxed counters that own no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
