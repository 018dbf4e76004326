//! The four benchmark workloads and one repetition of each.
//!
//! Every repetition builds a fresh simulated cluster, runs the
//! workload to completion and verifies what it wrote (and read) before
//! it counts. Two workloads go through `run_workload` (the paper's
//! multi-file workflow); the other two drive romio's public API
//! directly, so the benchmark can time each collective call.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use e10_bench::{hints_for, Case};
use e10_mpisim::{FileView, Info};
use e10_romio::{
    read_at_all, write_at_all, AdioFile, Breakdown, DataSpec, Phase, Profiler, ReadAllResult,
    RomioHints, Testbed, TestbedSpec,
};
use e10_simcore::trace::{install_with_metrics, MetricsRegistry, MetricsSnapshot, RingSink};
use e10_simcore::{join_all, now, spawn, RunStats, SimDuration};
use e10_storesim::Source;
use e10_workloads::{run_workload, CollPerf, FlashIo, RunConfig, Workload};

use crate::spans::SpanLog;

/// Collective buffer size of every workload (the paper's `_4M` column).
const CB_SIZE: u64 = 4 << 20;
/// Files per `run_workload` repetition.
const FILES: usize = 2;
/// Events the traced repetition's ring sink keeps (the `TraceConfig`
/// default).
const RING_CAPACITY: usize = 1 << 16;
/// The aggregator phases reported as `romio.sim.<phase>_{mean,max}_s`.
const PHASES: [Phase; 10] = [
    Phase::OpenColl,
    Phase::OffsetExchange,
    Phase::NodeAggGather,
    Phase::ShuffleAlltoall,
    Phase::ShuffleWaitall,
    Phase::CollBufAssembly,
    Phase::Write,
    Phase::PostWrite,
    Phase::NotHiddenSync,
    Phase::Close,
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// coll_perf, 512 ranks on 64 nodes, SSD cache on: the paper's
    /// headline cell (`probe 64 4 enabled`).
    CollperfCache,
    /// Flash-IO checkpoint, 512/64, cache off: PFS and fabric carry
    /// the load while the cache layer idles.
    FlashioNocache,
    /// coll_perf 512/64 written with node aggregation through an NVM
    /// cache, synced, then read back collectively from the cache.
    ReadbackNodeaggNvm,
    /// coll_perf 256/32 written through the crash-tolerant collective
    /// with no faults injected.
    TolerantWrite256,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::CollperfCache,
        Kind::FlashioNocache,
        Kind::ReadbackNodeaggNvm,
        Kind::TolerantWrite256,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CollperfCache => "collperf_cache",
            Kind::FlashioNocache => "flashio_nocache",
            Kind::ReadbackNodeaggNvm => "readback_nodeagg_nvm",
            Kind::TolerantWrite256 => "tolerant_write_256",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Compute nodes; every node runs 8 ranks.
    fn nodes(self) -> usize {
        match self {
            Kind::TolerantWrite256 => 32,
            _ => 64,
        }
    }

    fn spec(self, seed: u64) -> TestbedSpec {
        let mut spec = TestbedSpec::deep_er();
        spec.nodes = self.nodes();
        spec.procs = 8 * spec.nodes;
        spec.seed = seed;
        spec
    }

    fn workload(self) -> Rc<dyn Workload> {
        match self {
            Kind::FlashioNocache => Rc::new(FlashIo::paper_checkpoint_512()),
            // The paper's per-rank block (8³ chunks of 128 KiB) on 256 ranks.
            Kind::TolerantWrite256 => Rc::new(CollPerf {
                grid: CollPerf::grid_for(256),
                ..CollPerf::paper_512()
            }),
            _ => Rc::new(CollPerf::paper_512()),
        }
    }

    fn hints(self) -> Info {
        let case = match self {
            Kind::FlashioNocache => Case::Disabled,
            _ => Case::Enabled,
        };
        let info = hints_for(case, self.nodes(), CB_SIZE);
        match self {
            Kind::ReadbackNodeaggNvm => {
                info.set("e10_two_phase", "node_agg");
                info.set("e10_cache_class", "nvm");
                info.set("e10_cache_read", "enable");
                info.set("romio_cb_read", "enable");
            }
            Kind::TolerantWrite256 => {
                info.set("e10_coll_timeout", "5000");
            }
            _ => {}
        }
        info
    }
}

/// What one verified repetition produced.
pub struct Rep {
    /// Simulated perceived bandwidth, GB/s.
    pub sim_gb_s: f64,
    /// Bytes the application wrote.
    pub bytes_written: u64,
    /// The simulated outputs that must repeat exactly for a fixed
    /// seed: bandwidth, every per-phase virtual time and the bytes
    /// the PFS wrote, as bit patterns.
    pub fingerprint: Vec<u64>,
    /// Model-side per-layer readings: name as in `BENCHMARK.json`,
    /// value, unit.
    pub layer: Vec<(String, f64, &'static str)>,
    /// The registry of a traced repetition.
    pub metrics: Option<MetricsSnapshot>,
}

/// The workload-specific part of a repetition.
struct Outcome {
    sim_gb_s: f64,
    bytes_written: u64,
    aggs: Breakdown,
    cache_read_hits: u64,
    t_c: f64,
    not_hidden: f64,
}

/// Build the testbed and construct the workload (every rank's file
/// views and the parsed hints) without running it: the set-up a user
/// pays before a cell's simulation starts.
pub fn setup(kind: Kind, seed: u64) -> usize {
    e10_simcore::run(async move {
        let tb = kind.spec(seed).build();
        let wl = kind.workload();
        RomioHints::parse(&kind.hints()).expect("benchmark hints are valid");
        let pieces: usize = (0..wl.procs())
            .flat_map(|r| wl.writes(r))
            .map(|v| v.pieces().len())
            .sum();
        tb.world.comms.len() + pieces
    })
}

/// Run one repetition: build, run, verify. Returns the repetition
/// with its executor statistics; `Err` carries why it failed (a
/// panic, an error code or a failed check).
pub fn run_rep(
    kind: Kind,
    seed: u64,
    traced: bool,
    spans: &Rc<SpanLog>,
) -> Result<(Rep, RunStats), String> {
    let rep_id = spans.begin_rep(if traced { "rep.traced" } else { "rep" });
    let log = Rc::clone(spans);
    let res = catch_unwind(AssertUnwindSafe(|| {
        e10_simcore::run_with_stats(async move { rep_body(kind, seed, traced, log).await })
    }));
    let virt_end = res
        .as_ref()
        .map_or(0.0, |(_, st)| st.end_time.as_secs_f64());
    spans.end_rep(rep_id, virt_end);
    match res {
        Ok((out, stats)) => out.map(|rep| (rep, stats)),
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            Err(format!("panicked: {msg}"))
        }
    }
}

async fn rep_body(kind: Kind, seed: u64, traced: bool, spans: Rc<SpanLog>) -> Result<Rep, String> {
    let registry = Rc::new(MetricsRegistry::new());
    let guard = traced
        .then(|| install_with_metrics(Rc::new(RingSink::new(RING_CAPACITY)), Rc::clone(&registry)));
    let tb = spans.time("TestbedSpec::build", || kind.spec(seed).build());
    let out = match kind {
        Kind::CollperfCache | Kind::FlashioNocache => {
            drive_workflow(kind, &tb, seed, &spans).await?
        }
        Kind::ReadbackNodeaggNvm | Kind::TolerantWrite256 => {
            drive_api(kind, &tb, seed, &spans).await?
        }
    };
    let metrics = guard.map(|g| {
        let snap = registry.snapshot();
        drop(g);
        snap
    });

    let pfs_bytes = tb.pfs.bytes_written();
    let lat = tb.pfs.target_write_latencies();
    let chunks: u64 = lat.iter().map(|t| t.count()).sum();
    let lat_mean = lat.iter().map(|t| t.sum()).sum::<f64>() / chunks.max(1) as f64;
    let lat_max = lat
        .iter()
        .filter(|t| t.count() > 0)
        .map(|t| t.max())
        .fold(0.0, f64::max);
    let (grants, contended) = tb.pfs.lock_contention();

    let mut fingerprint = vec![out.sim_gb_s.to_bits(), pfs_bytes.to_bits()];
    for p in Phase::ALL {
        fingerprint.push(out.aggs.mean(p).to_bits());
        fingerprint.push(out.aggs.max(p).to_bits());
    }
    let mut layer: Vec<(String, f64, &'static str)> = vec![
        ("netsim.core_bytes".into(), tb.world.net.core_bytes(), "B"),
        ("pfs.bytes_written".into(), pfs_bytes, "B"),
        ("pfs.chunk_latency_mean_s".into(), lat_mean, "s"),
        ("pfs.chunk_latency_max_s".into(), lat_max, "s"),
        ("pfs.lock_grants".into(), grants as f64, "count"),
        ("pfs.lock_contended".into(), contended as f64, "count"),
        (
            "romio.cache_read_hit_bytes".into(),
            out.cache_read_hits as f64,
            "B",
        ),
        ("workloads.t_c_s".into(), out.t_c, "s"),
        ("workloads.not_hidden_s".into(), out.not_hidden, "s"),
    ];
    for p in PHASES {
        let l = p.label();
        layer.push((format!("romio.sim.{l}_mean_s"), out.aggs.mean(p), "s"));
        layer.push((format!("romio.sim.{l}_max_s"), out.aggs.max(p), "s"));
    }
    Ok(Rep {
        sim_gb_s: out.sim_gb_s,
        bytes_written: out.bytes_written,
        fingerprint,
        layer,
        metrics,
    })
}

/// The paper's workflow: `FILES` files, 30 s compute between phases,
/// Eq. 2 bandwidth. Verification runs here rather than inside
/// `run_workload`, so its host cost is timed on its own.
async fn drive_workflow(
    kind: Kind,
    tb: &Testbed,
    seed: u64,
    spans: &SpanLog,
) -> Result<Outcome, String> {
    let wl = kind.workload();
    let file_bytes = wl.file_size();
    let mut cfg = RunConfig::paper(kind.hints(), &format!("/gfs/{}", kind.name()));
    cfg.files = FILES;
    cfg.compute_delay = SimDuration::from_secs(30);
    cfg.seed_base = seed;
    cfg.verify = false;
    let out = spans
        .time_async("run_workload", run_workload(tb, wl, &cfg))
        .await;
    spans.time("verify_gen", || {
        (0..FILES).try_for_each(|k| {
            let path = format!("{}.{k}", cfg.path_prefix);
            tb.pfs
                .file_extents(&path)
                .ok_or_else(|| format!("{path} missing after the run"))?
                .verify_gen(seed + k as u64, 0, file_bytes)
                .map_err(|e| format!("verification of {path} failed: {e}"))
        })
    })?;
    Ok(Outcome {
        sim_gb_s: out.gb_s(),
        bytes_written: out.total_bytes,
        aggs: out.breakdown_aggs,
        cache_read_hits: 0,
        t_c: out.phases.iter().map(|p| p.t_c).sum(),
        not_hidden: out.phases.iter().map(|p| p.not_hidden).sum(),
    })
}

/// What one rank of an API-driven repetition reports.
struct RankOut {
    /// Virtual seconds from the barrier before the first write to the
    /// end of close.
    secs: f64,
    cache_hits: u64,
    profiler: Profiler,
    is_agg: bool,
}

/// One file through romio's public API on every rank:
/// open → `write_at_all` → `file_sync` → [barrier → `read_at_all`] →
/// close, then the PFS copy is verified. The bandwidth is the bytes
/// moved (written, plus read for a read-back) over the slowest rank's
/// virtual time from the barrier before the write to the end of close.
async fn drive_api(
    kind: Kind,
    tb: &Testbed,
    seed: u64,
    spans: &Rc<SpanLog>,
) -> Result<Outcome, String> {
    let read_back = kind == Kind::ReadbackNodeaggNvm;
    let wl = kind.workload();
    let path = format!("/gfs/{}", kind.name());
    let hints = kind.hints();
    let handles: Vec<_> = tb
        .ctxs()
        .into_iter()
        .map(|ctx| {
            let (wl, spans, path, hints) = (
                Rc::clone(&wl),
                Rc::clone(spans),
                path.clone(),
                hints.clone(),
            );
            spawn(async move {
                let views = wl.writes(ctx.comm.rank());
                let f = spans
                    .time_async("AdioFile::open", AdioFile::open(&ctx, &path, &hints, true))
                    .await
                    .map_err(|e| format!("open failed: {e:?}"))?;
                ctx.comm.barrier().await;
                let t0 = now();
                for v in &views {
                    let w = spans
                        .time_async(
                            "write_at_all",
                            write_at_all(&f, v, &DataSpec::FileGen { seed }),
                        )
                        .await;
                    if w.error_code != 0 {
                        return Err(format!("write_at_all error code {}", w.error_code));
                    }
                }
                spans.time_async("file_sync", f.file_sync()).await;
                let mut cache_hits = 0;
                if read_back {
                    ctx.comm.barrier().await;
                    for v in &views {
                        let r = spans.time_async("read_at_all", read_at_all(&f, v)).await;
                        check_read(&r, v, seed)?;
                        cache_hits += r.cache_hits;
                    }
                }
                spans.time_async("close", f.close()).await;
                Ok(RankOut {
                    secs: now().since(t0).as_secs_f64(),
                    cache_hits,
                    profiler: f.profiler().clone(),
                    is_agg: f.my_agg_index().is_some(),
                })
            })
        })
        .collect();
    let ranks = join_all(handles)
        .await
        .into_iter()
        .collect::<Result<Vec<RankOut>, String>>()?;

    let file_bytes = wl.file_size();
    spans.time("verify_gen", || {
        tb.pfs
            .file_extents(&path)
            .ok_or_else(|| format!("{path} missing after the run"))?
            .verify_gen(seed, 0, file_bytes)
            .map_err(|e| format!("verification of {path} failed: {e}"))
    })?;
    let cache_read_hits: u64 = ranks.iter().map(|r| r.cache_hits).sum();
    if read_back && cache_read_hits == 0 {
        return Err("read-back was not served from the cache".into());
    }
    let secs = ranks.iter().map(|r| r.secs).fold(0.0, f64::max);
    let moved = if read_back {
        2 * file_bytes
    } else {
        file_bytes
    };
    let agg_profs: Vec<Profiler> = ranks
        .iter()
        .filter(|r| r.is_agg)
        .map(|r| r.profiler.clone())
        .collect();
    Ok(Outcome {
        sim_gb_s: moved as f64 / secs / 1e9,
        bytes_written: file_bytes,
        aggs: Breakdown::from_profilers(&agg_profs),
        cache_read_hits,
        t_c: 0.0,
        not_hidden: 0.0,
    })
}

/// The read-back oracle, checked structurally like
/// `ExtentMap::verify_gen` checks the write side: every returned piece
/// must be generator stream `seed` at the identity mapping
/// (`origin == file_off`), must sit where the view maps its buffer
/// offset, the pieces must tile the buffer in order, and together
/// they must cover the whole view.
fn check_read(r: &ReadAllResult, view: &FileView, seed: u64) -> Result<(), String> {
    if r.error_code != 0 {
        return Err(format!("read_at_all error code {}", r.error_code));
    }
    let vps = view.pieces();
    let mut buf = 0;
    for p in &r.pieces {
        match p.payload.src {
            Source::Gen { seed: s, origin } if s == seed && origin == p.file_off => {}
            ref other => {
                return Err(format!(
                    "read piece at file offset {} holds {other:?}",
                    p.file_off
                ))
            }
        }
        if p.buf_off != buf {
            return Err(format!("read piece at buffer {} expected {buf}", p.buf_off));
        }
        let i = vps.partition_point(|v| v.buf_off + v.len <= p.buf_off);
        let mapped = vps.get(i).map(|v| v.file_off + (p.buf_off - v.buf_off));
        if mapped != Some(p.file_off) {
            return Err(format!(
                "read piece at buffer {} came from file offset {}, view maps {mapped:?}",
                p.buf_off, p.file_off
            ));
        }
        buf += p.payload.len;
    }
    if buf != view.total_bytes() || r.bytes != buf {
        return Err(format!(
            "read returned {buf} bytes ({} reported), view holds {}",
            r.bytes,
            view.total_bytes()
        ));
    }
    Ok(())
}
