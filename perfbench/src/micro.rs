//! Standalone host timings of each layer's hot public functions, the
//! calls `crates/bench/benches/microbench.rs` exercises, made outside
//! any workload simulation. Each figure is the median over `SAMPLES`
//! batches of host nanoseconds per call.

use std::hint::black_box;
use std::time::Instant;

use e10_mpisim::{launch, CollBackend, FileView, FlatType, WorldSpec};
use e10_romio::{FdStrategy, FileDomains};
use e10_simcore::{run, sleep, spawn, water_fill, SimDuration};
use e10_storesim::{ExtentMap, Source};

const SAMPLES: usize = 5;

/// Median host ns per call of `batch`, which makes `calls` calls.
fn ns_per_call(calls: u64, mut batch: impl FnMut()) -> f64 {
    let mut xs: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    xs.sort_by(f64::total_cmp);
    xs[SAMPLES / 2]
}

fn strided_map(n: u64) -> ExtentMap {
    let mut m = ExtentMap::new();
    for i in 0..n {
        m.insert(i * 128, 64, Source::gen_at(1, i * 128));
    }
    m
}

fn alltoall_ns(backend: CollBackend) -> f64 {
    const ROUNDS: u64 = 4;
    ns_per_call(ROUNDS, || {
        run(async move {
            let mut spec = WorldSpec::for_tests(32, 8);
            spec.backend = backend;
            launch(spec, |comm| async move {
                let v: Vec<u64> = (0..comm.size() as u64).collect();
                for _ in 0..ROUNDS {
                    black_box(comm.alltoall(v.clone(), 8).await);
                }
            })
            .await
        });
    })
}

/// Every standalone timing, named as in `BENCHMARK.json`.
pub fn timings() -> Vec<(&'static str, f64)> {
    let timer_events = 100_000u32;
    let tasks = 10_000u64;
    let caps: Vec<Option<f64>> = (0..64)
        .map(|i| (i % 3 == 0).then_some(1e6 + i as f64))
        .collect();
    let lookup_map = strided_map(10_000);
    let flat = FlatType::vector(65_536, 1024, 4096);
    let view = FileView::new(&flat, 0);
    vec![
        (
            "simcore.timer_event_ns",
            ns_per_call(timer_events.into(), || {
                run(async move {
                    for _ in 0..timer_events {
                        sleep(SimDuration::from_nanos(10)).await;
                    }
                })
            }),
        ),
        (
            "simcore.spawn_join_ns",
            ns_per_call(tasks, || {
                let acc = run(async move {
                    let hs: Vec<_> = (0..tasks)
                        .map(|i| {
                            spawn(async move {
                                sleep(SimDuration::from_nanos(i % 97)).await;
                                i
                            })
                        })
                        .collect();
                    let mut acc = 0u64;
                    for h in hs {
                        acc = acc.wrapping_add(h.await);
                    }
                    acc
                });
                black_box(acc);
            }),
        ),
        (
            "simcore.water_fill_ns",
            ns_per_call(10_000, || {
                for _ in 0..10_000 {
                    black_box(water_fill(1e9, black_box(&caps)));
                }
            }),
        ),
        (
            "storesim.extent_insert_ns",
            ns_per_call(10_000, || {
                black_box(strided_map(10_000).extent_count());
            }),
        ),
        (
            "storesim.extent_lookup_ns",
            ns_per_call(10_000, || {
                for _ in 0..10_000 {
                    black_box(lookup_map.lookup(black_box(300_000), 100_000).len());
                }
            }),
        ),
        (
            "mpisim.subarray_flatten_ns",
            ns_per_call(100, || {
                for _ in 0..100 {
                    let f = FlatType::subarray(
                        black_box(&[256, 256, 256]),
                        &[64, 64, 64],
                        &[64, 128, 0],
                        8,
                    );
                    black_box(f.runs().len());
                }
            }),
        ),
        (
            "mpisim.window_query_ns",
            ns_per_call(10_000, || {
                for _ in 0..10_000 {
                    black_box(
                        view.pieces_in_window(black_box(120_000_000), black_box(124_000_000))
                            .len(),
                    );
                }
            }),
        ),
        (
            "mpisim.alltoall_algorithmic_ns",
            alltoall_ns(CollBackend::Algorithmic),
        ),
        (
            "mpisim.alltoall_analytic_ns",
            alltoall_ns(CollBackend::Analytic),
        ),
        (
            "romio.fd_partition_ns",
            ns_per_call(1_000, || {
                for _ in 0..1_000 {
                    let fds = FileDomains::compute(
                        black_box(0),
                        black_box(32 << 30),
                        512,
                        FdStrategy::StripeAligned,
                        4 << 20,
                    );
                    black_box(fds.max_size());
                }
            }),
        ),
    ]
}
