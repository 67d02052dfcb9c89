//! Window I/O allocates per run, not per window: a kernel that reuses its
//! window buffer, returns fixed-size arrays from its compute function and
//! hands them to `put_window` uncollected runs twice the blocks with about
//! the same number of heap allocations. Counted by a global allocator that
//! counts on the calling thread only, so tests running in parallel on other
//! threads do not disturb the count.

use cgsim::graphs::{all_apps, Backend, RunSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised and without `Drop`: touching it never allocates,
    // so the allocator below cannot recurse into itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; its frees go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no heap memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, and
        // the caller's guarantees for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn window_io_allocates_per_run_not_per_window() {
    for app in all_apps() {
        // IIR takes one 2 048-sample window per iteration and its cascade
        // builds a few buffers per window: a handful of allocations per
        // 8 KiB, off the per-element hot path this test guards.
        if app.name() == "IIR" {
            continue;
        }
        // Cooperative and compiled: the engines that run every kernel on
        // the calling thread, where the counter sees them.
        for backend in [Backend::Cooperative, Backend::Compiled] {
            let spec = RunSpec::for_graph(app.name()).backend(backend);
            let run = |blocks| {
                allocations(|| {
                    app.run_spec(&spec, blocks)
                        .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
                })
            };
            run(8); // first-run set-up out of the way
            let (eight, sixteen) = (run(8), run(16));
            assert!(
                sixteen <= eight + 16,
                "{} under {backend:?}: {eight} allocations at 8 blocks, {sixteen} at 16",
                app.name()
            );
        }
    }
}
