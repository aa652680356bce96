//! Live-heap accounting for the traced in-process run.
//!
//! The harness's global allocator forwards to the system allocator and,
//! while a [`Window`] is open on the current thread, tracks that
//! thread's live heap bytes and their peak. Heap growth across a layer
//! is exact and repeatable, where the process's resident set is not:
//! freed pages are reused or kept by the allocator. The pipeline under
//! measurement is single-threaded, so per-thread counts are complete,
//! and tests running on other threads cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The counting allocator installed as the harness's global allocator.
pub struct Counting;

thread_local! {
    // Const-initialized and free of destructors, so reading them inside
    // the allocator never allocates and never observes a torn-down key.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn record(delta: i64) {
    let _ = ENABLED.try_with(|on| {
        if on.get() {
            let live = LIVE.with(|l| {
                l.set(l.get() + delta);
                l.get()
            });
            PEAK.with(|p| p.set(p.get().max(live)));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's pointer
// and layout unchanged and returns its result unchanged; the counters
// are thread-local cells that never touch the allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (every allocation goes
        // through this type) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        record(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's guarantees on
        // `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// A counting window on the current thread: live-heap growth and peak
/// since [`Window::open`]. Counting stops when the window drops.
pub struct Window {
    base: i64,
}

impl Window {
    /// Switches counting on and resets the peak to the current level.
    pub fn open() -> Window {
        let base = LIVE.with(Cell::get);
        PEAK.with(|p| p.set(base));
        ENABLED.with(|on| on.set(true));
        Window { base }
    }

    /// Heap bytes allocated on this thread since the window opened and
    /// not yet freed, less bytes freed that were allocated before it.
    pub fn grown(&self) -> i64 {
        LIVE.with(Cell::get) - self.base
    }

    /// Highest [`grown`](Self::grown) value since the window opened.
    pub fn peak(&self) -> i64 {
        PEAK.with(Cell::get) - self.base
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        ENABLED.with(|on| on.set(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_tracks_growth_and_peak() {
        let w = Window::open();
        let big = vec![0u8; 1 << 20];
        let held = vec![1u8; 1 << 16];
        drop(big);
        assert_eq!(w.peak(), (1 << 20) + (1 << 16));
        assert_eq!(w.grown(), 1 << 16);
        drop(held);
        assert_eq!(w.grown(), 0);
    }
}
