//! The repository benchmark: host cost, memory and simulated bandwidth
//! of one paper-scale E10 cell, with per-layer attribution.
//!
//! ```text
//! e10-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload, single-threaded, so each workload's
//! memory high-water mark is its own. `--seed` feeds the testbed's
//! jitter streams (`TestbedSpec::seed`) and the data generator.
//!
//! * `--trace 0` times untraced repetitions for `--seconds` and reports
//!   the end-to-end metrics: `cell_host_s` (median host seconds of one
//!   repetition: testbed build, the workload, verification),
//!   `setup_s` (median of set-up samples taken between repetitions),
//!   `peak_rss_mb` (`VmHWM`) and `sim_gb_s` (simulated perceived
//!   bandwidth). Both times are paced: scaled to the host's speed while
//!   they ran, as a probe timed alongside measures it (see `pace`).
//! * `--trace 1` runs one untraced repetition under the counting
//!   allocator, one traced repetition (ring sink plus metrics
//!   registry), and the standalone timings of `micro`, and reports the
//!   per-layer metrics. The spans of both repetitions are written to
//!   `.bench_out/`.
//!
//! A repetition fails if it panics, returns a non-zero error code,
//! fails verification, or its simulated outputs differ from the first
//! repetition's. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod micro;
mod pace;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use e10_bench::Json;
use e10_simcore::alloc_gauge;
use e10_simcore::trace::MetricsSnapshot;

use spans::SpanLog;
use workloads::{run_rep, setup, Kind, Rep};

#[global_allocator]
static A: pace::PacedAlloc = pace::PacedAlloc;

/// `setup_s` is the median over samples taken before every
/// repetition, `SETUP_SAMPLES_PER_REP` at a time, so they see the same
/// host conditions as the repetitions. A sample is the mean of
/// `SETUP_BATCH` consecutive set-ups: one set-up takes about a
/// millisecond, too short to time alone.
const SETUP_SAMPLES_PER_REP: usize = 3;
const SETUP_BATCH: usize = 20;

/// One `setup_s` sample: host seconds per set-up, as measured (probes
/// included) and paced.
fn setup_sample(args: &Args) -> (f64, f64) {
    let ((), p) = pace::paced(|| {
        for _ in 0..SETUP_BATCH {
            std::hint::black_box(setup(args.kind, args.seed));
        }
    });
    let per = |s: f64| s / SETUP_BATCH as f64;
    (per(p.host_s), per(p.scaled_s()))
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if ["--workload", "--seed", "--seconds", "--trace"].contains(&k.as_str()) => {
                flags.insert(k.as_str(), v.as_str());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let kind = Kind::parse(name).ok_or_else(|| {
        let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, not {t:?}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// On-CPU seconds of the calling thread.
fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// The process's resident-set high-water mark, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// One repetition, timed on the host clock and on the thread's CPU.
struct Timed {
    out: Result<(Rep, e10_simcore::RunStats), String>,
    host_s: f64,
    cpu_s: f64,
}

fn timed_rep(args: &Args, traced: bool, spans: &Rc<SpanLog>) -> Timed {
    let (t0, c0) = (Instant::now(), thread_cpu_s());
    let out = run_rep(args.kind, args.seed, traced, spans);
    Timed {
        out,
        host_s: t0.elapsed().as_secs_f64(),
        cpu_s: thread_cpu_s() - c0,
    }
}

/// Metric name → (value, unit), in report order.
type Metrics = Vec<(String, f64, &'static str)>;

fn print_result(attempted: u64, failed: u64, metrics: &Metrics) {
    let doc = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::F64(*value)), ("unit", Json::str(*unit))]),
                )
            })),
        ),
    ]);
    println!("{}", doc.render());
}

/// `--trace 0`: set-up samples and an untraced repetition, in turn,
/// for `--seconds`, every one paced.
fn end_to_end(args: &Args) -> Result<(u64, u64, Metrics), String> {
    let spans = Rc::new(SpanLog::new());
    let start = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<Rep> = None;
    let (mut raw_setups, mut setups) = (Vec::new(), Vec::new());
    let (mut hosts, mut paced, mut probes, mut cpu) = (Vec::new(), Vec::new(), Vec::new(), 0.0);
    loop {
        let round = Instant::now();
        for _ in 0..SETUP_SAMPLES_PER_REP {
            let (raw, scaled) = setup_sample(args);
            raw_setups.push(raw);
            setups.push(scaled);
        }
        let (t, p) = pace::paced(|| timed_rep(args, false, &spans));
        attempted += 1;
        match t.out {
            Ok((rep, _))
                if first
                    .as_ref()
                    .is_none_or(|f| f.fingerprint == rep.fingerprint) =>
            {
                hosts.push(t.host_s);
                paced.push(p.scaled_s());
                probes.push(p.probe_mean_s());
                cpu += t.cpu_s;
                first.get_or_insert(rep);
            }
            Ok(_) => {
                failed += 1;
                eprintln!("repetition {attempted}: simulated outputs differ from repetition 1");
            }
            Err(e) => {
                failed += 1;
                eprintln!("repetition {attempted} failed: {e}");
            }
        }
        // Stop when another round as long as this one would overrun
        // the budget.
        if start.elapsed().as_secs_f64() + round.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }
    let first = first.ok_or("no repetition succeeded")?;
    eprintln!("set-up s per set-up, per sample: host {raw_setups:?}, paced {setups:?}");
    eprintln!(
        "{}: {attempted} repetitions, {failed} failed, host s (probes included) {hosts:?}, \
         paced s {paced:?}, mean probe s {probes:?}, on-CPU/wall {:.3}, {} host CPUs",
        args.kind.name(),
        cpu / hosts.iter().sum::<f64>(),
        host_cpus()
    );
    eprintln!(
        "medians: host s {:.4}, paced s {:.4}, set-up host s {:.6}",
        median(&hosts),
        median(&paced),
        median(&raw_setups)
    );
    let metrics = vec![
        ("cell_host_s".into(), median(&paced), "s"),
        ("setup_s".into(), median(&setups), "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ("sim_gb_s".into(), first.sim_gb_s, "GB/s"),
    ];
    Ok((attempted, failed, metrics))
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Per-layer metrics copied from the traced repetition's registry:
/// (metric, counter, unit). Counters that never fired read 0.
const TRACED_COUNTERS: [(&str, &str, &str); 19] = [
    ("netsim.messages", "netsim.messages", "count"),
    ("netsim.bytes", "netsim.bytes", "B"),
    ("netsim.local_copy_bytes", "netsim.local_copy_bytes", "B"),
    ("storesim.ssd_write_bytes", "ssd.write_bytes", "B"),
    ("storesim.nvm_write_bytes", "nvm.write_bytes", "B"),
    ("storesim.nvm_read_bytes", "nvm.read_bytes", "B"),
    ("pfs.write_chunks", "pfs.write_chunks", "count"),
    ("pfs.read_chunks", "pfs.read_chunks", "count"),
    ("pfs.rpc_retries", "pfs.rpc_retries", "count"),
    ("mpisim.shuffle_msgs", "coll.shuffle.msgs", "count"),
    ("mpisim.shuffle_bytes", "coll.shuffle.bytes", "B"),
    ("mpisim.remote_msgs", "coll.shuffle.remote_msgs", "count"),
    ("mpisim.remote_bytes", "coll.shuffle.remote_bytes", "B"),
    (
        "mpisim.node_agg_merged_reqs",
        "coll.node_agg.merged_reqs",
        "count",
    ),
    ("mpisim.ft_attempts", "coll.ft.attempts", "count"),
    ("mpisim.ft_redo_attempts", "coll.ft.redo_attempts", "count"),
    (
        "mpisim.ft_aborted_attempts",
        "coll.ft.aborted_attempts",
        "count",
    ),
    ("romio.cache_bytes_cached", "cache.bytes_cached", "B"),
    ("romio.cache_bytes_synced", "cache.bytes_synced", "B"),
];

/// Host seconds of the benchmark's own calls in the untraced
/// repetition: (metric, call). 0 where the call was not made.
const CALL_HOST_S: [(&str, &str); 5] = [
    ("storesim.verify_host_s", "verify_gen"),
    ("romio.write_at_all_host_s", "write_at_all"),
    ("romio.read_at_all_host_s", "read_at_all"),
    ("romio.file_sync_host_s", "file_sync"),
    ("workloads.run_workload_host_s", "run_workload"),
];

/// `--trace 1`: one untraced repetition under the counting allocator,
/// one traced repetition, and the standalone timings. Fails if either
/// repetition fails; counts a traced repetition whose simulated
/// outputs differ from the untraced one as failed.
fn per_layer(args: &Args) -> Result<(u64, u64, Metrics), String> {
    let spans = Rc::new(SpanLog::new());
    alloc_gauge::reset();
    alloc_gauge::enable();
    let base = timed_rep(args, false, &spans);
    alloc_gauge::disable();
    let allocs = alloc_gauge::allocs() as f64;
    let traced = timed_rep(args, true, &spans);

    let out_dir = ".bench_out";
    let out_path = format!("{out_dir}/spans-{}-{}.jsonl", args.kind.name(), args.seed);
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&out_path, spans.to_jsonl()))
    {
        eprintln!("cannot write {out_path}: {e}");
    }

    let (rep, stats) = base
        .out
        .map_err(|e| format!("untraced repetition failed: {e}"))?;
    let (trep, _) = traced
        .out
        .map_err(|e| format!("traced repetition failed: {e}"))?;
    let failed = u64::from(trep.fingerprint != rep.fingerprint);
    if failed > 0 {
        eprintln!("tracing changed the simulated outputs");
    }
    let snap = trep.metrics.unwrap_or_default();
    let c = |name: &str| counter(&snap, name);
    let events = stats.events_fired as f64;
    let mut m: Metrics = vec![
        ("simcore.events".into(), events, "count"),
        (
            "simcore.host_ns_per_event".into(),
            base.host_s * 1e9 / events,
            "ns",
        ),
        (
            "simcore.tasks_spawned".into(),
            stats.tasks_spawned as f64,
            "count",
        ),
        (
            "simcore.events_batched".into(),
            stats.events_batched as f64,
            "count",
        ),
        ("simcore.heap_peak".into(), stats.heap_peak as f64, "count"),
        (
            "simcore.wakes_coalesced".into(),
            stats.wakes_coalesced as f64,
            "count",
        ),
        ("simcore.allocs".into(), allocs, "count"),
        ("simcore.allocs_per_event".into(), allocs / events, "count"),
    ];
    m.extend(
        TRACED_COUNTERS
            .iter()
            .map(|&(name, counter, unit)| (name.into(), c(counter), unit)),
    );
    m.extend(
        CALL_HOST_S
            .iter()
            .map(|&(name, call)| (name.into(), spans.host_s("rep", call), "s")),
    );
    let ft_attempts = c("coll.ft.attempts");
    m.extend([
        (
            "mpisim.ft_useful_ratio".into(),
            ratio(ft_attempts - c("coll.ft.redo_attempts"), ft_attempts),
            "ratio",
        ),
        (
            "romio.cache_write_stall_s".into(),
            c("cache.write_stall_ns") / 1e9,
            "s",
        ),
        // Share of the written bytes the cache accepted. (The arbiter's
        // admit/refused counters fire only for watermark-managed jobs.)
        (
            "romio.cache_admit_ratio".into(),
            ratio(c("cache.write_bytes"), rep.bytes_written as f64),
            "ratio",
        ),
        (
            "bench.trace_overhead_pct".into(),
            (traced.host_s - base.host_s) / base.host_s * 100.0,
            "%",
        ),
        ("bench.host_cpus".into(), host_cpus() as f64, "count"),
        (
            "bench.cpu_wall_ratio".into(),
            base.cpu_s / base.host_s,
            "ratio",
        ),
    ]);
    m.extend(rep.layer);
    m.extend(
        micro::timings()
            .into_iter()
            .map(|(name, ns)| (name.into(), ns, "ns")),
    );
    Ok((2, failed, m))
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0.0, |&(_, v)| v as f64)
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e10-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let res = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match res {
        Ok((attempted, failed, metrics)) => {
            print_result(attempted, failed, &metrics);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e10-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
