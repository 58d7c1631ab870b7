//! The repository benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-bench --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process runs one named workload as a closed loop of sweeps (the
//! next sweep starts when the previous one returned) on at most `nproc`
//! (and at most 2) sweep jobs, checks every output, prints each metric by
//! name with its unit and provenance, and ends with one JSON result line.
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the executor and the traced runner back to back and
//! reports per-layer metrics. See `perfbench/README.md`.

mod metrics;
mod trace;
mod traced;
mod workloads;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ssm_engine::WORKER_THREAD_PREFIX;
use ssm_stats::{Bucket, Counters, ProtoActivity};
use ssm_sweep::{Cell, CellRecord, CellStatus, Sweep, SweepOpts, SweepRun, CACHE_FILE};

use metrics::{Report, END_TO_END, END_TO_END_INFO, PER_LAYER};
use workloads::{check, figure_table, speedup_geomean, Outcome, Reference, Tally, Workload};

/// Upper bound on sweep jobs, whatever the host offers.
const MAX_JOBS: usize = 2;
/// Set-ups measured per run (median reported): many for the cheap ones,
/// two cold fills for `cache-warm`.
const SETUP_REPEATS: usize = 25;
const FILL_REPEATS: usize = 2;
/// Samples a p95 needs so that ten of them lie beyond it.
const P95_MIN_SAMPLES: usize = 200;
/// Per-cell wall-time limit handed to the executor.
const CELL_TIMEOUT: Duration = Duration::from_secs(60);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        jobs: std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(MAX_JOBS),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: perfbench --workload <grid-bench|sweep-small|cache-warm> --seed N --seconds N --trace 0|1"
        );
        std::process::exit(2);
    });
    quiet_cell_panics();
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Panics of simulation and traced-runner threads become failed cells,
/// reported by label; keep their backtraces off the terminal.
fn quiet_cell_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let name = std::thread::current().name().unwrap_or("").to_string();
        if !(name.starts_with(WORKER_THREAD_PREFIX) || name.starts_with(traced::THREAD_PREFIX)) {
            previous(info);
        }
    }));
}

/// Everything a run needs before its first timed sweep.
struct Setup {
    cells: Vec<Cell>,
    reference: Option<Reference>,
    /// The store every warm rerun reads (`cache-warm` only).
    warm_dir: Option<PathBuf>,
    /// Cold-fill records in canonical form, by hash (`cache-warm` only).
    fill: Option<HashMap<String, CellRecord>>,
}

/// The benchmark's directory; the repository root is its parent.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let work = bench_dir()
        .join("out")
        .join(format!("{}-{}", w.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} jobs={} nproc={nproc}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.jobs
    );
    println!("why: {}", w.why());
    println!(
        "seed: sets only the fault seed of the fault cells{}",
        if w == Workload::GridBench {
            " (this workload has none)"
        } else {
            ""
        }
    );
    println!(
        "model: simulated numbers come from an unvalidated model of the cluster; \
         there is no hardware reference and no error figure"
    );
    let result = if args.trace {
        run_traced(args, &work)
    } else {
        run_untraced(args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Builds the cell list, loads the reference, runs the warm-up sweep and,
/// for `cache-warm`, fills the cache with a cold sweep. Returns the set-up
/// and its wall time.
fn set_up(
    args: &Args,
    work: &Path,
    attempt: usize,
    tally: &mut Tally,
) -> Result<(Setup, f64), String> {
    let w = args.workload;
    let started = Instant::now();
    let cells = w.cells(args.seed);
    let hashes: std::collections::HashSet<String> = cells.iter().map(Cell::hash).collect();
    if hashes.len() != cells.len() {
        return Err(format!("{} enumerates duplicate cells", w.name()));
    }
    let reference = match w {
        Workload::GridBench => Some(Reference::load(
            &bench_dir().join("..").join("results").join("rdma.txt"),
        )?),
        _ => None,
    };
    let warmup = sweep(&workloads::warmup_cells(), None, work, args.jobs);
    check(&outcomes(&warmup), None, None, tally);
    let (warm_dir, fill) = if w == Workload::CacheWarm {
        let dir = work.join(format!("warm-{attempt}"));
        let _ = std::fs::remove_dir_all(&dir);
        let run = sweep(&cells, Some(&dir), &dir, args.jobs);
        check(&outcomes(&run), None, None, tally);
        let fill = run
            .outcomes
            .iter()
            .filter_map(|o| match &o.status {
                CellStatus::Done(rec) => Some((o.hash.clone(), rec.canonical())),
                _ => None,
            })
            .collect();
        (Some(dir), Some(fill))
    } else {
        (None, None)
    };
    let setup = Setup {
        cells,
        reference,
        warm_dir,
        fill,
    };
    Ok((setup, started.elapsed().as_secs_f64()))
}

/// One sweep through the executor. `cache` = `None` runs uncached.
fn sweep(cells: &[Cell], cache: Option<&Path>, summary_dir: &Path, jobs: usize) -> SweepRun {
    let opts = SweepOpts {
        jobs,
        cache: cache.is_some(),
        results_dir: cache.unwrap_or(summary_dir).to_path_buf(),
        timeout: Some(CELL_TIMEOUT),
        retries: 0,
        progress: false,
        summary: true,
        batching: true,
    };
    Sweep::enumerate(cells).options(opts).run()
}

/// A sweep run as check input.
fn outcomes(run: &SweepRun) -> Vec<Outcome<'_>> {
    run.outcomes
        .iter()
        .map(|o| {
            let r = match &o.status {
                CellStatus::Done(rec) => Ok(rec),
                CellStatus::Failed(e) => Err(e.as_str()),
                CellStatus::TimedOut(_) => Err("timed out"),
            };
            (&o.cell, r)
        })
        .collect()
}

/// One closed-loop iteration: a sweep plus its Figure-3-style table.
struct Iteration {
    run: SweepRun,
    /// Wall time of `Sweep::run` alone.
    sweep_s: f64,
    /// Wall time of the sweep and the table together (one rerun).
    rerun_s: f64,
    cache_bytes: u64,
}

fn iterate(args: &Args, setup: &Setup, work: &Path, n: usize) -> Iteration {
    let fresh = work.join(format!("cold-{n}"));
    let cache = match args.workload {
        Workload::GridBench => None,
        Workload::SweepSmall => Some(fresh.as_path()),
        Workload::CacheWarm => setup.warm_dir.as_deref(),
    };
    let started = Instant::now();
    let run = sweep(&setup.cells, cache, work, args.jobs);
    let sweep_s = started.elapsed().as_secs_f64();
    let table = figure_table(&setup.cells, |c| run.speedup(c)).render();
    std::hint::black_box(table);
    let rerun_s = started.elapsed().as_secs_f64();
    let cache_bytes = cache
        .and_then(|d| std::fs::metadata(d.join(CACHE_FILE)).ok())
        .map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(&fresh);
    Iteration {
        run,
        sweep_s,
        rerun_s,
        cache_bytes,
    }
}

fn run_untraced(args: &Args, work: &Path) -> Result<String, String> {
    let w = args.workload;
    let mut setup_tally = Tally::default();
    let repeats = if w == Workload::CacheWarm {
        FILL_REPEATS
    } else {
        SETUP_REPEATS
    };
    let mut setup_times = Vec::new();
    let mut setup = None;
    for attempt in 0..repeats {
        let (s, t) = set_up(args, work, attempt, &mut setup_tally)?;
        setup_times.push(t);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut reruns_s = Vec::new();
    let mut rates = Vec::new();
    let mut geomean = None;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    while reruns_s.len() < w.min_sweeps() || started.elapsed() < budget {
        let it = iterate(args, &setup, work, reruns_s.len());
        reruns_s.push(it.rerun_s);
        let outs = outcomes(&it.run);
        let ok_before = tally.ok;
        check(
            &outs,
            setup.reference.as_ref(),
            setup.fill.as_ref(),
            &mut tally,
        );
        rates.push((tally.ok - ok_before) as f64 / it.rerun_s);
        if w == Workload::GridBench {
            geomean = speedup_geomean(&outs);
        }
    }

    let timed_s: f64 = reruns_s.iter().sum();
    let mut r = Report::default();
    r.set(
        "setup_s",
        median(&setup_times),
        format!("median of {} set-ups", setup_times.len()),
    );
    r.set(
        "cells_per_s",
        median(&rates),
        format!(
            "median over {} sweeps of verified cells / sweep wall time; {} cells in {timed_s:.3} s",
            rates.len(),
            tally.ok
        ),
    );
    let ms: Vec<f64> = reruns_s.iter().map(|s| s * 1e3).collect();
    r.set(
        "rerun_ms_p50",
        quantile(&ms, 0.5),
        format!("n={}", ms.len()),
    );
    let p95_note = if ms.len() >= P95_MIN_SAMPLES {
        format!("n={}", ms.len())
    } else {
        format!("n={}: fewer than 10 samples lie beyond p95", ms.len())
    };
    r.set("rerun_ms_p95", quantile(&ms, 0.95), p95_note);
    r.set(
        "peak_rss_mb",
        peak_rss_mb()?,
        "VmHWM at exit, includes set-up",
    );
    r.set(
        "failed_frac",
        tally.failed() as f64 / tally.attempted.max(1) as f64,
        format!("base: {} cells attempted", tally.attempted),
    );
    match geomean {
        Some(g) => r.set(
            "sim_speedup_geomean",
            g,
            "base: 39 parallel cells vs their sequential baselines",
        ),
        None => r.set(
            "sim_speedup_geomean",
            0.0,
            "not measured: grid-bench only (failing cells would bias it here)",
        ),
    }
    r.print(END_TO_END);
    r.print(END_TO_END_INFO);
    println!(
        "host: {} threads alive at exit after {} sweeps",
        proc_status("Threads:")?,
        reruns_s.len()
    );
    println!(
        "set-up: {} cells failed, {} of them the known defect",
        setup_tally.failed(),
        setup_tally.failed() - setup_tally.unexpected()
    );
    if setup_tally.unexpected() > 0 {
        setup_tally.print();
    }
    tally.print();
    let correct = tally.correct() && setup_tally.unexpected() == 0;
    Ok(r.json_line(END_TO_END, correct, tally.attempted, tally.failed()))
}

/// Counts summed over the records of cells simulated (not served from the
/// cache) by the executor.
#[derive(Default)]
struct Totals {
    counters: Counters,
    buckets: [u64; 6],
    host_ms: u64,
    threads_spawned: u64,
    threads_reused: u64,
    /// Per protocol label: counters, protocol-bucket cycles, activity.
    per_protocol: HashMap<&'static str, (Counters, u64, ProtoActivity)>,
}

impl Totals {
    fn add(&mut self, rec: &CellRecord) {
        self.counters = self.counters.merge(&rec.counters);
        for row in &rec.per_proc {
            for (sum, v) in self.buckets.iter_mut().zip(row) {
                *sum += v;
            }
        }
        self.host_ms += rec.host_ms;
        self.threads_spawned += rec.threads_spawned;
        self.threads_reused += rec.threads_reused;
        let proto_cycles: u64 = rec
            .per_proc
            .iter()
            .map(|row| row[bucket_index(Bucket::Protocol)])
            .sum();
        let e = self
            .per_protocol
            .entry(rec.cell.protocol.label())
            .or_default();
        e.0 = e.0.merge(&rec.counters);
        e.1 += proto_cycles;
        e.2 = e.2.merge(&rec.activity);
    }

    fn bucket(&self, b: Bucket) -> u64 {
        self.buckets[bucket_index(b)]
    }
}

fn bucket_index(b: Bucket) -> usize {
    Bucket::ALL
        .iter()
        .position(|k| *k == b)
        .expect("bucket in Bucket::ALL")
}

fn run_traced(args: &Args, work: &Path) -> Result<String, String> {
    let w = args.workload;
    let mut tally = Tally::default();
    let mut setup_tally = Tally::default();
    let (setup, _) = set_up(args, work, 0, &mut setup_tally)?;
    let half = Duration::from_secs(args.seconds).div_f64(2.0);

    // The executor, untraced: counts and the reference wall time.
    let mut totals = Totals::default();
    let (mut sweep_s, mut untraced_s, mut cache_bytes) = (0.0, 0.0, 0u64);
    let (mut executed, mut cached, mut failed, mut attempted, mut verified) = (0, 0, 0, 0, 0);
    let mut last_run = None;
    let mut iterations = 0usize;
    let started = Instant::now();
    while iterations == 0 || started.elapsed() < half {
        let it = iterate(args, &setup, work, iterations);
        check(
            &outcomes(&it.run),
            setup.reference.as_ref(),
            setup.fill.as_ref(),
            &mut tally,
        );
        for o in &it.run.outcomes {
            attempted += 1;
            if let CellStatus::Done(rec) = &o.status {
                verified += u64::from(rec.verified);
                if !o.cached {
                    totals.add(rec);
                }
            }
        }
        executed += it.run.executed;
        cached += it.run.cached;
        failed += it.run.failed;
        sweep_s += it.sweep_s;
        untraced_s += it.rerun_s;
        cache_bytes += it.cache_bytes;
        last_run = Some(it.run);
        iterations += 1;
    }
    let last_run = last_run.expect("at least one iteration");

    // The traced runner over the same cells.
    let epoch = Instant::now();
    let mut spans = Vec::new();
    let mut traced_s = 0.0;
    let mut passes = 0u64;
    let mut last_pass = None;
    let started = Instant::now();
    while passes == 0 || started.elapsed() < half {
        let fresh = work.join(format!("traced-{passes}"));
        let cache = match w {
            Workload::GridBench => None,
            Workload::SweepSmall => Some(fresh.as_path()),
            Workload::CacheWarm => setup.warm_dir.as_deref(),
        };
        let pass = traced::traced_pass(
            &setup.cells,
            cache,
            work,
            &last_run,
            args.jobs,
            epoch,
            passes,
        )?;
        let _ = std::fs::remove_dir_all(&fresh);
        let outs: Vec<Outcome> = setup
            .cells
            .iter()
            .zip(&pass.results)
            .map(|(c, r)| (c, r.as_ref().map_err(String::as_str)))
            .collect();
        check(
            &outs,
            setup.reference.as_ref(),
            setup.fill.as_ref(),
            &mut tally,
        );
        traced_s += pass.wall_s;
        spans.extend(pass.spans.iter().cloned());
        last_pass = Some(pass);
        passes += 1;
    }
    let last_pass = last_pass.expect("at least one pass");
    let (probe_spans, broken) =
        traced::codec_probe(&setup.cells, &last_pass.results, epoch, (passes + 1) * 64);
    for label in &broken {
        println!("failed {label}: record changed in an encode/decode round trip");
    }

    let n = iterations as f64;
    let p = passes as f64;
    let agg = trace::aggregate(&spans);
    let probe = trace::aggregate(&probe_spans);
    let by_name = |name: &str| -> trace::Agg {
        let mut a = trace::Agg::default();
        for ((k, _), v) in agg.iter().chain(probe.iter()) {
            if *k == name {
                a.calls += v.calls;
                a.total_ns += v.total_ns;
                a.self_ns += v.self_ns;
                a.durations_ns.extend(&v.durations_ns);
            }
        }
        a
    };
    let calls_note = |a: &trace::Agg| format!("mean of {} calls", a.calls);

    let mut r = Report::default();
    // sweep
    r.set(
        "sweep.run_s",
        sweep_s / n,
        format!("per sweep, {iterations} sweeps"),
    );
    r.set(
        "sweep.busy_frac",
        totals.host_ms as f64 * 1e-3 / (sweep_s * args.jobs as f64),
        format!(
            "base: sum of CellRecord.host_ms over sweep.run_s x {} jobs",
            args.jobs
        ),
    );
    r.set(
        "sweep.cells_executed",
        executed as f64 / n,
        "per sweep, failed cells included",
    );
    r.set("sweep.cells_cached", cached as f64 / n, "per sweep");
    r.set("sweep.cells_failed", failed as f64 / n, "per sweep");
    r.set(
        "sweep.cache_bytes",
        cache_bytes as f64 / n,
        "cache file after a sweep",
    );
    for (metric, span, unit_ns) in [
        ("sweep.hash_us", "sweep.hash", 1e3),
        ("sweep.store_open_ms", "sweep.store_open", 1e6),
        ("sweep.store_get_us", "sweep.store_get", 1e3),
        ("sweep.store_append_us", "sweep.store_append", 1e3),
        ("sweep.record_encode_us", "sweep.record_encode", 1e3),
        ("sweep.record_decode_us", "sweep.record_decode", 1e3),
        ("sweep.summary_ms", "sweep.summary", 1e6),
        ("stats.render_ms", "stats.render", 1e6),
    ] {
        let a = by_name(span);
        r.set(metric, a.mean(unit_ns), calls_note(&a));
    }
    // apps
    let build = by_name("apps.build");
    r.set(
        "apps.build_ms",
        build.total_ns as f64 * 1e-6 / p,
        format!("per traced pass, {} builds", build.calls),
    );
    r.set(
        "apps.verified_frac",
        verified as f64 / attempted.max(1) as f64,
        format!("base: {attempted} cells attempted"),
    );
    // core
    let core_run = by_name("core.run");
    let baseline = by_name("core.baseline");
    r.set(
        "core.run_s",
        core_run.self_ns as f64 * 1e-9 / p,
        format!("self time per traced pass, {} runs", core_run.calls),
    );
    r.set(
        "core.run_ms_p50",
        quantile(
            &core_run
                .durations_ns
                .iter()
                .map(|&d| d as f64 * 1e-6)
                .collect::<Vec<_>>(),
            0.5,
        ),
        format!("n={}", core_run.calls),
    );
    r.set(
        "core.baseline_s",
        baseline.total_ns as f64 * 1e-9 / p,
        format!("per traced pass, {} baselines", baseline.calls),
    );
    let cost = run_cost(&last_pass);
    r.set(
        "core.ns_per_sim_op",
        per(cost.run_ns as f64, cost.run_ops),
        format!(
            "base: core.run self time over its {} sim ops, completed runs of the last pass",
            cost.run_ops
        ),
    );
    // engine
    let c = &totals.counters;
    r.set("engine.handoffs", c.handoffs as f64 / n, "per sweep");
    r.set("engine.sim_ops", c.sim_ops as f64 / n, "per sweep");
    r.set(
        "engine.batched_op_ratio",
        c.ops_batched as f64 / c.sim_ops.max(1) as f64,
        format!("base: engine.sim_ops={}", c.sim_ops as f64 / n),
    );
    r.set("engine.flush_sync", c.flush_sync as f64 / n, "per sweep");
    r.set("engine.flush_miss", c.flush_miss as f64 / n, "per sweep");
    r.set("engine.flush_cap", c.flush_cap as f64 / n, "per sweep");
    r.set(
        "engine.threads_spawned",
        totals.threads_spawned as f64 / n,
        "per sweep",
    );
    r.set(
        "engine.threads_reused",
        totals.threads_reused as f64 / n,
        "per sweep",
    );
    r.set(
        "engine.us_per_handoff",
        per(cost.all_ns as f64 * 1e-3, cost.handoffs),
        format!(
            "base: core.run + core.baseline self time over their {} handoffs, completed runs of the last pass",
            cost.handoffs
        ),
    );
    // net
    r.set("net.messages", c.messages as f64 / n, "per sweep");
    r.set("net.bytes", c.bytes as f64 / n, "per sweep");
    r.set(
        "net.retransmissions",
        c.retransmissions as f64 / n,
        "per sweep",
    );
    r.set(
        "net.dup_suppressed",
        c.dup_suppressed as f64 / n,
        "per sweep",
    );
    r.set(
        "net.faults_injected",
        c.faults_injected() as f64 / n,
        "per sweep",
    );
    let sends = c.messages + c.retransmissions;
    r.set(
        "net.delivery_ratio",
        if sends == 0 {
            1.0
        } else {
            c.messages as f64 / sends as f64
        },
        format!(
            "base: net.messages + net.retransmissions = {}",
            sends as f64 / n
        ),
    );
    r.set(
        "net.data_wait_cycles",
        totals.bucket(Bucket::DataWait) as f64 / n,
        "per sweep, summed over processors",
    );
    // mem
    r.set(
        "mem.cache_stall_cycles",
        totals.bucket(Bucket::CacheStall) as f64 / n,
        "per sweep, summed over processors",
    );
    r.set(
        "mem.local_accesses",
        c.local_accesses as f64 / n,
        "per sweep",
    );
    // proto
    r.set(
        "proto.lock_wait_cycles",
        totals.bucket(Bucket::LockWait) as f64 / n,
        "per sweep, summed over processors",
    );
    r.set(
        "proto.barrier_wait_cycles",
        totals.bucket(Bucket::BarrierWait) as f64 / n,
        "per sweep, summed over processors",
    );
    r.set(
        "proto.lock_acquires",
        c.lock_acquires as f64 / n,
        "per sweep",
    );
    r.set("proto.barriers", c.barriers as f64 / n, "per sweep");
    r.set("proto.remote_reads", c.remote_reads as f64 / n, "per sweep");
    r.set(
        "proto.remote_writes",
        c.remote_writes as f64 / n,
        "per sweep",
    );
    // hlrc, sc, rdma
    // Protocol label, then its run_s, proto_cycles, fetches and
    // invalidations metric names.
    const PROTOCOL_METRICS: [(&str, [&str; 4]); 3] = [
        (
            "HLRC",
            [
                "hlrc.run_s",
                "hlrc.proto_cycles",
                "hlrc.fetches",
                "hlrc.invalidations",
            ],
        ),
        (
            "SC",
            [
                "sc.run_s",
                "sc.proto_cycles",
                "sc.fetches",
                "sc.invalidations",
            ],
        ),
        (
            "RDMA",
            [
                "rdma.run_s",
                "rdma.proto_cycles",
                "rdma.fetches",
                "rdma.invalidations",
            ],
        ),
    ];
    for (label, [run_s, proto_cycles_m, fetches, invalidations]) in PROTOCOL_METRICS {
        let (pc, proto_cycles, act) = totals.per_protocol.get(label).cloned().unwrap_or_default();
        let (run_ns, runs) = agg
            .iter()
            .filter(|((name, tag), _)| *name == "core.run" && *tag == label)
            .fold((0u64, 0u64), |(ns, k), (_, a)| {
                (ns + a.total_ns, k + a.calls)
            });
        r.set(
            run_s,
            run_ns as f64 * 1e-9 / p,
            format!("per traced pass, {runs} runs"),
        );
        r.set(
            proto_cycles_m,
            proto_cycles as f64 / n,
            "per sweep, summed over processors",
        );
        r.set(fetches, pc.fetches as f64 / n, "per sweep");
        r.set(invalidations, pc.invalidations as f64 / n, "per sweep");
        if label == "HLRC" {
            r.set("hlrc.diffs", pc.diffs as f64 / n, "per sweep");
            r.set("hlrc.diff_words", pc.diff_words as f64 / n, "per sweep");
            r.set("hlrc.twins", pc.twins as f64 / n, "per sweep");
            r.set(
                "hlrc.write_notices",
                pc.write_notices as f64 / n,
                "per sweep",
            );
            r.set(
                "hlrc.diff_cycles",
                (act.diff_create + act.diff_apply) as f64 / n,
                "per sweep, diff creation + application",
            );
            r.set("hlrc.mprotect_cycles", act.mprotect as f64 / n, "per sweep");
        }
    }
    // the traced run
    r.set(
        "trace.wall_s",
        traced_s / p,
        format!("per traced pass, {passes} passes"),
    );
    r.set(
        "trace.untraced_wall_s",
        untraced_s / n,
        format!("per executor sweep + table, {iterations} sweeps"),
    );
    r.set(
        "trace.gap_frac",
        (traced_s / p - untraced_s / n) / (untraced_s / n),
        "base: trace.untraced_wall_s; tracing overhead plus executor work the traced runner skips",
    );
    r.print(PER_LAYER);

    // Per-layer self time of the traced passes, and the spans themselves.
    let out = bench_dir().join("out");
    let mut self_times = Vec::new();
    for (layer, s) in trace::layer_self_s(&spans) {
        println!("self {layer:<8} {:>12.6} s per traced pass", s / p);
        self_times.push(format!("\"{layer}\":{}", s / p));
    }
    let self_file = out.join(format!("trace-{}-self.json", w.name()));
    std::fs::write(
        &self_file,
        format!("{{\"self_s_per_pass\":{{{}}}}}\n", self_times.join(",")),
    )
    .map_err(|e| format!("cannot write {}: {e}", self_file.display()))?;
    let trace_file = out.join(format!("trace-{}.jsonl", w.name()));
    let mut all = spans;
    all.extend(probe_spans);
    std::fs::write(&trace_file, trace::render_jsonl(&all, &last_pass.hashes))
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
    println!("spans: {} written to {}", all.len(), trace_file.display());
    tally.print();
    if setup_tally.unexpected() > 0 {
        setup_tally.print();
    }
    let correct = tally.correct() && setup_tally.unexpected() == 0 && broken.is_empty();
    Ok(r.json_line(PER_LAYER, correct, tally.attempted, tally.failed()))
}

/// Host time and counts of the runs a traced pass simulated to
/// completion (failed runs and records served from the store are left
/// out), so each per-op cost divides time by the work done in it.
#[derive(Default)]
struct RunCost {
    /// `core.run` time and sim ops of the non-baseline cells.
    run_ns: u64,
    run_ops: u64,
    /// `core.run` + `core.baseline` time and handoffs of every cell.
    all_ns: u64,
    handoffs: u64,
}

fn run_cost(pass: &traced::TracedPass) -> RunCost {
    let mut cost = RunCost::default();
    for s in &pass.spans {
        let Some(Ok(rec)) = s.cell.and_then(|i| pass.results.get(i as usize)) else {
            continue;
        };
        match s.name {
            "core.run" => {
                cost.run_ns += s.dur_ns();
                cost.run_ops += rec.counters.sim_ops;
            }
            "core.baseline" => {}
            _ => continue,
        }
        cost.all_ns += s.dur_ns();
        cost.handoffs += rec.counters.handoffs;
    }
    cost
}

/// `total / count`, or 0 when nothing was counted (no completed run).
fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile (0 for an empty sample).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    Ok(proc_status("VmHWM:")? / 1024.0)
}

/// A numeric field of `/proc/self/status` (kB fields in kB).
fn proc_status(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert!(
            (quantile(&(1..=101).map(f64::from).collect::<Vec<_>>(), 0.95) - 96.0).abs() < 1e-9
        );
    }
}
