//! A counting global allocator shared by the serving binaries.
//!
//! The workspace's perf contract is "zero heap allocations on the
//! steady-state query path", and the way it is enforced is by counting
//! every allocation the process performs. The server and router
//! binaries register this allocator so the **stats frame can report
//! their allocation counts over the wire**, letting a remote load
//! generator gate on "allocations per request" without sharing an
//! address space with them (`loadgen --check-allocs` in the CI smoke
//! jobs does exactly this; `crates/bench/tests/zero_alloc.rs` registers
//! it too and runs the same gate in one process under `cargo test`).
//!
//! Registering the allocator is the binary's choice (a library must
//! not impose a global allocator); call [`mark_installed`] from `main`
//! right after declaring it so [`counting_installed`] — and the wire
//! stats frame — can distinguish "zero allocations" from "nobody is
//! counting":
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: iloc_server::alloc_count::CountingAllocator =
//!     iloc_server::alloc_count::CountingAllocator;
//!
//! fn main() {
//!     iloc_server::alloc_count::mark_installed();
//!     // ...
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Counts every heap allocation the process performs. `dealloc` is
/// intentionally not counted: the invariant under test is "the hot
/// path requests no new memory", and growth shows up in `alloc` /
/// `realloc` / `alloc_zeroed` only.
pub struct CountingAllocator;

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocations counted so far (0 when the allocator was never
/// registered — check [`counting_installed`] to tell the difference).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Records that the binary registered [`CountingAllocator`] as its
/// global allocator; the stats frame reports this flag alongside the
/// count.
pub fn mark_installed() {
    INSTALLED.store(true, Ordering::Relaxed);
}

/// `true` when the process counts allocations (i.e. [`mark_installed`]
/// was called by a binary that registered the allocator).
pub fn counting_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}
