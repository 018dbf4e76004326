//! A counting global allocator for allocation-regression gates.
//!
//! The simulation is deterministic and single-threaded, so the number
//! of allocator calls for a fixed scenario is a stable, reproducible
//! metric — and "zero allocations per steady-state round" is a property
//! a test can assert exactly. This module promotes the PR-3 counting
//! allocator (formerly private to `e10-romio/tests/alloc_count.rs`)
//! into a reusable gauge that any bin or test can install:
//!
//! ```ignore
//! use e10_simcore::alloc_gauge::{self, CountingAlloc};
//!
//! #[global_allocator]
//! static A: CountingAlloc = CountingAlloc;
//!
//! let (n, _) = alloc_gauge::count(|| expensive_scenario());
//! println!("allocator calls: {n}");
//! ```
//!
//! Counting covers `alloc` and `realloc` (a `realloc` is a fresh
//! allocator round-trip even when it resizes in place); `dealloc` is
//! free. Counting is per thread: [`enable`] turns it on for the calling
//! thread only, and [`allocs`] and [`reset`] read and zero that
//! thread's counter. So tests that count in parallel (libtest runs
//! them on several threads) never see each other's allocations, and a
//! bench that counts on its main thread ignores idle pool workers. A
//! simulation runs on the thread that calls `run`, so counting on that
//! thread sees all of it.
//!
//! When `CountingAlloc` is *not* installed as the global allocator the
//! helpers still run the closure; they just report 0 — callers that
//! require real numbers can check [`is_installed`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Threads with counting enabled. Zero (the common case) keeps the
/// allocator's fast path to this one relaxed load.
static COUNTING_THREADS: AtomicUsize = AtomicUsize::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);
static BT_LO: AtomicU64 = AtomicU64::new(u64::MAX);
static BT_HI: AtomicU64 = AtomicU64::new(u64::MAX);

thread_local! {
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
    /// Whether this thread counts its allocator calls.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// This thread's allocator calls since its last [`reset`].
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Debug aid for allocation hunts: print a backtrace for every counted
/// allocation whose ordinal falls in `[lo, hi)`. `RUST_BACKTRACE=1`
/// must be set for symbols. Disabled (the default) it costs one atomic
/// load per counted allocation.
pub fn trace_range(lo: u64, hi: u64) {
    BT_LO.store(lo, Ordering::Relaxed);
    BT_HI.store(hi, Ordering::Relaxed);
}

/// Count one allocator call if this thread is counting. Only reached
/// while some thread is. The backtrace hook's own allocations are not
/// counted, so ordinals match an untraced run.
fn note_alloc() {
    if !COUNTING.with(Cell::get) || IN_HOOK.with(Cell::get) {
        return;
    }
    let n = ALLOCS.with(|c| {
        let n = c.get();
        c.set(n + 1);
        n
    });
    if n >= BT_LO.load(Ordering::Relaxed) && n < BT_HI.load(Ordering::Relaxed) {
        IN_HOOK.with(|f| f.set(true));
        eprintln!(
            "alloc #{n} at:\n{}",
            std::backtrace::Backtrace::force_capture()
        );
        IN_HOOK.with(|f| f.set(false));
    }
}

/// A `System`-backed allocator that counts `alloc`/`realloc` calls
/// made by threads with counting enabled. Install with
/// `#[global_allocator]`.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING_THREADS.load(Ordering::Relaxed) != 0 {
            note_alloc();
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING_THREADS.load(Ordering::Relaxed) != 0 {
            note_alloc();
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

impl CountingAlloc {
    /// `const` constructor so the static can note its installation.
    /// (Installation detection relies on the first `alloc` call; this
    /// exists for symmetry and future flags.)
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

/// Record that a `CountingAlloc` is the process allocator. Called by
/// [`count`]'s self-check; bins may call it once at startup.
pub fn mark_installed() {
    INSTALLED.store(true, Ordering::Relaxed);
}

/// Whether counting observed any traffic yet (a proxy for "the gauge
/// allocator is really installed").
pub fn is_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Allocator calls the calling thread made since its last [`reset`]
/// while counting was enabled on it.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Zero the calling thread's counter.
pub fn reset() {
    ALLOCS.with(|c| c.set(0));
}

/// Enable counting on the calling thread (idempotent).
pub fn enable() {
    if !COUNTING.with(|c| c.replace(true)) {
        COUNTING_THREADS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Disable counting on the calling thread (idempotent).
pub fn disable() {
    if COUNTING.with(|c| c.replace(false)) {
        COUNTING_THREADS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Count the calling thread's allocator calls across `f`, returning
/// `(calls, f())`.
///
/// Resets the counter, so it measures `f` alone; nesting is not
/// supported (the inner `count` would clobber the outer window).
/// Allocations `f` makes on other threads are not counted.
pub fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    reset();
    enable();
    let out = f();
    disable();
    let n = allocs();
    if n > 0 {
        mark_installed();
    }
    (n, out)
}
