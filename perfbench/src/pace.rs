//! Host time scaled to the host's speed at the moment it was spent.
//!
//! A shared host's speed wanders by a third over seconds to minutes as
//! its neighbours come and go, and no run is long enough to average
//! that out: two runs of the same code minutes apart differ by as much
//! as a real regression would. So while a timed step runs, the
//! benchmark keeps timing a small fixed probe next to it, on the same
//! thread: one when the step starts, then one every [`PROBE_EVERY`]
//! allocator calls the step makes, run by [`PacedAlloc`], the process
//! allocator. A step's scaled time is its host time without the
//! probes, divided by the probes' mean time and multiplied by
//! [`NOMINAL_PROBE_S`]: the step's host time on a host where a probe
//! takes that long. It moves when the program does, not when the host
//! does.
//!
//! Probes fall at fixed points in the program's work, not at fixed
//! host times: a probe evicts some of the program's cache, and on a
//! slow host, probes at fixed times would fall more often per unit of
//! work and slow it further.
//!
//! The probe is shaped like the simulator's own work rather than like
//! a tight loop, because the host's neighbours slow pointer-chasing,
//! allocation-heavy code more than arithmetic: ordered-map inserts and
//! removals, hash-map inserts of boxed values, many small allocations
//! and frees. It uses only the standard library and a fixed hasher, so
//! every probe does the same work and no change to the program changes
//! it. Its own allocations go straight to the system allocator: they
//! are neither counted by the allocation gauge nor probed again.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use e10_simcore::alloc_gauge::CountingAlloc;

/// Host seconds of one probe on the nominal host, about what it takes
/// on the 2-CPU 2.1 GHz Xeon microVM the benchmark was tuned on.
/// Scaled times are relative to this.
pub const NOMINAL_PROBE_S: f64 = 0.0007;

/// Allocator calls between two probes: 95 to 1,300 probes in a
/// repetition, 7 to 70 in a set-up sample, by workload.
pub const PROBE_EVERY: u64 = 8192;
/// Keys one probe inserts.
const PROBE_KEYS: u64 = 2_500;

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static PROBES: AtomicU64 = AtomicU64::new(0);
static PROBE_NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while a probe runs on this thread.
    static IN_PROBE: Cell<bool> = const { Cell::new(false) };
}

/// [`CountingAlloc`] that runs the probe while a step is being paced.
pub struct PacedAlloc;

/// Whether this call is the probe's own; otherwise runs a probe if
/// one is due.
fn before_call() -> bool {
    if IN_PROBE.with(Cell::get) {
        return true;
    }
    if ARMED.load(Ordering::Relaxed)
        && (CALLS.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(PROBE_EVERY)
    {
        run_probe();
    }
    false
}

/// Run and record one probe.
fn run_probe() {
    IN_PROBE.with(|p| p.set(true));
    let ns = probe().as_nanos() as u64;
    IN_PROBE.with(|p| p.set(false));
    PROBES.fetch_add(1, Ordering::Relaxed);
    PROBE_NS.fetch_add(ns, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PacedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if before_call() {
            unsafe { System.alloc(layout) }
        } else {
            unsafe { CountingAlloc.alloc(layout) }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if before_call() {
            unsafe { System.realloc(ptr, layout, new_size) }
        } else {
            unsafe { CountingAlloc.realloc(ptr, layout, new_size) }
        }
    }
}

/// The fixed probe.
fn probe() -> Duration {
    let t0 = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut tree: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut map: HashMap<u64, Box<[u64; 4]>, BuildHasherDefault<DefaultHasher>> =
        HashMap::default();
    for i in 0..PROBE_KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        tree.entry(x & 0xFFF).or_default().push(i);
        map.insert(x & 0x3FF, Box::new([i; 4]));
        if i % 3 == 0 {
            tree.remove(&((x >> 20) & 0xFFF));
        }
    }
    std::hint::black_box((&tree, &map));
    drop((tree, map));
    t0.elapsed()
}

/// One paced step.
pub struct Paced {
    /// Host seconds of the step, probes included.
    pub host_s: f64,
    /// Host seconds the probes took.
    pub probe_s: f64,
    /// Probes run, at least one.
    pub probes: u64,
}

impl Paced {
    /// Host seconds of one probe, on average over the step.
    pub fn probe_mean_s(&self) -> f64 {
        self.probe_s / self.probes as f64
    }

    /// The step's host seconds without the probes, scaled to the
    /// nominal host.
    pub fn scaled_s(&self) -> f64 {
        (self.host_s - self.probe_s) * NOMINAL_PROBE_S / self.probe_mean_s()
    }
}

/// Run `f` with a probe first and then every [`PROBE_EVERY`] allocator
/// calls it makes.
pub fn paced<R>(f: impl FnOnce() -> R) -> (R, Paced) {
    CALLS.store(0, Ordering::Relaxed);
    PROBES.store(0, Ordering::Relaxed);
    PROBE_NS.store(0, Ordering::Relaxed);
    let t0 = Instant::now();
    run_probe();
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    let host_s = t0.elapsed().as_secs_f64();
    let paced = Paced {
        host_s,
        probe_s: PROBE_NS.load(Ordering::Relaxed) as f64 / 1e9,
        probes: PROBES.load(Ordering::Relaxed),
    };
    (out, paced)
}
