//! Heap-allocation regression guard for the two-phase hot paths.
//!
//! The simulation is deterministic and single-threaded, so the number
//! of allocator calls for a fixed scenario is a stable, reproducible
//! metric. The counting allocator itself lives in
//! `e10_simcore::alloc_gauge`; this test installs it and gates two
//! properties:
//!
//! 1. an absolute budget on the fixed 8-rank scenario (a reintroduced
//!    per-piece clone or per-collective `to_vec()` blows the ceiling), and
//! 2. **zero marginal allocations per steady-state round**: doubling
//!    the number of two-phase rounds must not change the allocator-call
//!    count at all. Warm-up rounds may grow scratch buffers to their
//!    high-water mark; after that, every round reuses them.
//! 3. **O(p) marginal allocations per crash-tolerant round**
//!    (`e10_coll_timeout > 0`): each round's fault-tolerant size
//!    exchange sends every rank its row and shares one combined
//!    matrix, so a round costs at most `2·p + 16` allocator calls, not
//!    the O(p²) of a per-rank copy of the matrix.
//! 4. **O(p) marginal allocations per round on the Analytic collective
//!    backend** (the one paper-scale runs use): its size exchange moves
//!    only each rank's non-zero counts through the rendezvous, so a
//!    round costs at most `2·p + 16` allocator calls, not the O(p²) of
//!    a dense p×p matrix. Gates 1–3 run on the Algorithmic backend.
//!
//! Counting is per thread (see `alloc_gauge`), so these tests may run
//! in parallel.
//!
//! Debug aid: set `E10_ALLOC_BT=lo:hi` (plus `RUST_BACKTRACE=1`) to
//! print a backtrace for every counted allocation whose ordinal falls
//! in `[lo, hi)` — see `alloc_gauge::trace_range`.

use e10_mpisim::CollBackend;
use e10_simcore::alloc_gauge::{self, CountingAlloc};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

const ALGO: CollBackend = CollBackend::Algorithmic;

fn install_bt_hook() {
    if let Ok(spec) = std::env::var("E10_ALLOC_BT") {
        if let Some((lo, hi)) = spec.split_once(':') {
            if let (Ok(lo), Ok(hi)) = (lo.parse(), hi.parse()) {
                alloc_gauge::trace_range(lo, hi);
            }
        }
    }
}

/// How a scenario sets the degraded-mode hints.
#[derive(Clone, Copy)]
enum Tolerance {
    /// Not set at all.
    Unset,
    /// The three degraded-mode knobs set *explicitly at their default
    /// values* (`e10_coll_timeout = 0`, `e10_pfs_max_retries = 4`,
    /// `e10_pfs_retry_base_us = 2000`): parsing and wiring them must
    /// not wake any of the tolerance machinery.
    Defaults,
    /// The crash-tolerant engine on (`e10_coll_timeout = 40`).
    On,
}

/// A fixed interleaved collective write of `ranks` ranks on 4 nodes
/// with the given collective backend; `blocks` interleaved 10 KB
/// blocks per rank (rounds scale with it). Returns rounds.
fn collective_write_scenario(
    backend: CollBackend,
    ranks: usize,
    blocks: u64,
    cache: bool,
    tol: Tolerance,
) -> u64 {
    use e10_mpisim::{FlatType, Info};
    use std::cell::Cell;
    use std::rc::Rc;
    let rounds = Rc::new(Cell::new(0u64));
    let rounds2 = Rc::clone(&rounds);
    e10_simcore::run(async move {
        let mut spec = e10_romio::TestbedSpec::small(ranks, 4);
        spec.backend = backend;
        let tb = spec.build();
        let handles: Vec<_> = tb
            .ctxs()
            .into_iter()
            .map(|ctx| {
                let rounds = Rc::clone(&rounds2);
                e10_simcore::spawn(async move {
                    let info = Info::from_pairs([
                        ("romio_cb_write", "enable"),
                        ("cb_buffer_size", "65536"),
                    ]);
                    if cache {
                        info.set("e10_cache", "enable");
                        info.set("e10_cache_flush_flag", "flush_immediate");
                        // Streaming eviction keeps the cache-file extent
                        // index and stream log bounded; without it the
                        // cache metadata grows with every round and no
                        // zero-allocation steady state can exist.
                        info.set("e10_cache_evict", "enable");
                        // Bounded sync queue: without it the staging
                        // backlog (queued extents, in-flight messages,
                        // cache-file extent churn) grows with run
                        // length and its containers keep doubling —
                        // bounded backlog is what makes a
                        // zero-allocation steady state well-defined.
                        info.set("e10_cache_sync_depth", "4");
                    }
                    match tol {
                        Tolerance::Unset => {}
                        Tolerance::Defaults => {
                            info.set("e10_coll_timeout", "0");
                            info.set("e10_pfs_max_retries", "4");
                            info.set("e10_pfs_retry_base_us", "2000");
                        }
                        Tolerance::On => {
                            info.set("e10_coll_timeout", "40");
                        }
                    }
                    let f = e10_romio::AdioFile::open(&ctx, "/gfs/alloc", &info, true)
                        .await
                        .unwrap();
                    let rank = ctx.comm.rank();
                    let blocks: Vec<(u64, u64)> = (0..blocks)
                        .map(|i| ((i * ranks as u64 + rank as u64) * 10_000, 10_000))
                        .collect();
                    let view = e10_mpisim::FileView::new(&FlatType::indexed(blocks), 0);
                    let r = e10_romio::write_at_all(
                        &f,
                        &view,
                        &e10_romio::DataSpec::FileGen { seed: 77 },
                    )
                    .await;
                    assert_eq!(r.error_code, 0);
                    assert!(r.rounds > 1);
                    rounds.set(r.rounds as u64);
                    f.close().await;
                })
            })
            .collect();
        e10_simcore::join_all(handles).await;
    });
    rounds.get()
}

#[test]
fn collective_write_allocation_budget() {
    // Warm-up outside the counted window (lazy statics, first-touch
    // buffers), then the measured run.
    collective_write_scenario(ALGO, 8, 16, false, Tolerance::Unset);
    let (n, _) =
        alloc_gauge::count(|| collective_write_scenario(ALGO, 8, 16, false, Tolerance::Unset));
    println!("collective_write_scenario allocator calls: {n}");
    // Seed (pre-optimisation) count: see CHANGES.md. The ceiling is
    // well above the optimised count; a reintroduced per-round clone
    // or per-collective to_vec() blows well past it.
    assert!(n < 80_000, "allocation regression: {n} allocator calls");
}

/// The 8-rank steady-state probe: marginal allocations per collective
/// round must be exactly zero (scratch reaches its high-water mark
/// during warm-up rounds and is reused thereafter).
#[test]
fn steady_state_rounds_allocate_nothing() {
    install_bt_hook();
    for cache in [false, true] {
        // Warm-up run (lazy statics, thread-locals).
        collective_write_scenario(ALGO, 8, 16, cache, Tolerance::Unset);
        let (a1, r1) =
            alloc_gauge::count(|| collective_write_scenario(ALGO, 8, 16, cache, Tolerance::Unset));
        let (a2, r2) =
            alloc_gauge::count(|| collective_write_scenario(ALGO, 8, 32, cache, Tolerance::Unset));
        assert!(r2 > r1, "round doubling failed: {r1} vs {r2}");
        let marginal = (a2 as i64 - a1 as i64) as f64 / (r2 - r1) as f64;
        println!(
            "cache={cache}: rounds {r1}->{r2}, allocs {a1}->{a2}, marginal {marginal:.2}/round"
        );
        assert_eq!(
            a2, a1,
            "steady-state rounds must not allocate (cache={cache}): \
             {a1} allocs over {r1} rounds vs {a2} over {r2} ({marginal:.2}/round)"
        );
    }
}

/// The same steady-state gate with the degraded-mode hints explicitly
/// at their defaults: crash tolerance off (`e10_coll_timeout = 0`) and
/// the PFS retry policy pinned to its built-in values. The tolerance
/// machinery must add exactly zero allocator calls per round when off.
#[test]
fn steady_state_with_tolerance_hints_off_allocates_nothing() {
    install_bt_hook();
    for cache in [false, true] {
        collective_write_scenario(ALGO, 8, 16, cache, Tolerance::Defaults);
        let (a1, r1) = alloc_gauge::count(|| {
            collective_write_scenario(ALGO, 8, 16, cache, Tolerance::Defaults)
        });
        let (a2, r2) = alloc_gauge::count(|| {
            collective_write_scenario(ALGO, 8, 32, cache, Tolerance::Defaults)
        });
        assert!(r2 > r1, "round doubling failed: {r1} vs {r2}");
        let marginal = (a2 as i64 - a1 as i64) as f64 / (r2 - r1) as f64;
        println!(
            "cache={cache} degraded-hints: rounds {r1}->{r2}, allocs {a1}->{a2}, \
             marginal {marginal:.2}/round"
        );
        assert_eq!(
            a2, a1,
            "tolerance machinery at defaults must not allocate (cache={cache}): \
             {a1} allocs over {r1} rounds vs {a2} over {r2} ({marginal:.2}/round)"
        );
    }
}

/// The crash-tolerant engine (`e10_coll_timeout > 0`, no failures) on
/// 16 ranks: marginal allocator calls per round must stay O(p). Each
/// round's size exchange costs every rank one row of `p` sizes; a
/// per-rank copy of the combined p×p matrix would cost at least
/// `(p - 1)(p + 1)` more.
#[test]
fn tolerant_rounds_allocate_linearly_in_ranks() {
    install_bt_hook();
    const P: usize = 16;
    collective_write_scenario(ALGO, P, 8, false, Tolerance::On);
    let (a1, r1) =
        alloc_gauge::count(|| collective_write_scenario(ALGO, P, 8, false, Tolerance::On));
    let (a2, r2) =
        alloc_gauge::count(|| collective_write_scenario(ALGO, P, 16, false, Tolerance::On));
    assert!(r2 > r1, "round doubling failed: {r1} vs {r2}");
    let marginal = (a2 as f64 - a1 as f64) / (r2 - r1) as f64;
    println!("tolerant p={P}: rounds {r1}->{r2}, allocs {a1}->{a2}, marginal {marginal:.2}/round");
    let budget = (2 * P + 16) as f64;
    assert!(
        marginal <= budget,
        "tolerant rounds must allocate O(p): {marginal:.2} allocator calls per round \
         over {r1}->{r2} rounds, budget {budget}"
    );
}

/// The same write on the Analytic backend at 16 ranks: marginal
/// allocator calls per round must stay O(p). Each rank sends its
/// non-zero counts as one small vector; a dense exchange would gather
/// all `p²` entries every round.
#[test]
fn analytic_rounds_allocate_linearly_in_ranks() {
    install_bt_hook();
    const P: usize = 16;
    let ana = CollBackend::Analytic;
    collective_write_scenario(ana, P, 8, false, Tolerance::Unset);
    let (a1, r1) =
        alloc_gauge::count(|| collective_write_scenario(ana, P, 8, false, Tolerance::Unset));
    let (a2, r2) =
        alloc_gauge::count(|| collective_write_scenario(ana, P, 16, false, Tolerance::Unset));
    assert!(r2 > r1, "round doubling failed: {r1} vs {r2}");
    let marginal = (a2 as f64 - a1 as f64) / (r2 - r1) as f64;
    println!("analytic p={P}: rounds {r1}->{r2}, allocs {a1}->{a2}, marginal {marginal:.2}/round");
    let budget = (2 * P + 16) as f64;
    assert!(
        marginal <= budget,
        "analytic rounds must allocate O(p): {marginal:.2} allocator calls per round \
         over {r1}->{r2} rounds, budget {budget}"
    );
}
