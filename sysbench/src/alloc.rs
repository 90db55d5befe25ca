//! A counting global allocator for the bench binary.
//!
//! Counts are exact, not sampled: while a [`Scope`] is alive every
//! allocation of every thread is counted, so the allocations of one
//! designated slice divide by its operations to an exact per-operation
//! figure that repeats from run to run. Outside a scope the cost is
//! one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(bytes: usize) {
    // Relaxed: the counters publish no other data; `Scope` reads them
    // only after the counted work has been joined or waited for.
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counting touches only atomics and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and requested bytes seen while a scope was open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub calls: u64,
    pub bytes: u64,
}

/// Counting is on from [`Scope::open`] to [`Scope::close`]. Scopes do
/// not nest; the bench opens one around the timed window of one slice.
pub struct Scope(());

impl Scope {
    pub fn open() -> Scope {
        CALLS.store(0, Ordering::Relaxed);
        BYTES.store(0, Ordering::Relaxed);
        let was = ENABLED.swap(true, Ordering::SeqCst);
        assert!(!was, "allocation scopes do not nest");
        Scope(())
    }

    pub fn close(self) -> Counts {
        ENABLED.store(false, Ordering::SeqCst);
        Counts {
            calls: CALLS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }
}
