//! The counting global allocator behind every allocation-pin test.
//!
//! A test binary installs it with one safe line,
//!
//! ```text
//! #[global_allocator]
//! static GLOBAL: alloccount::Counting = alloccount::Counting;
//! ```
//!
//! and reads what a closure allocated with [`counted`]. The rules the
//! pins rely on (`tests/counting.rs` checks them):
//!
//! - every `alloc` counts one block of `layout.size()` bytes;
//! - a grown buffer counts one block of its new size: `realloc` is the
//!   trait's default, `alloc`, copy, `dealloc`;
//! - a `dealloc` counts nothing.
//!
//! The counters are process-wide, so each pin test binary holds one
//! `#[test]`: a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// [`System`], counting the blocks and bytes it is asked for.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counting;

// SAFETY: defers every request to `System` unchanged; the counters are
// statistics and publish nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// `(allocations, bytes)` requested by any thread while `f` ran. Reads
/// zero unless the binary installed [`Counting`] as its global
/// allocator.
pub fn counted(f: impl FnOnce()) -> (usize, usize) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    f();
    (
        ALLOCS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}
