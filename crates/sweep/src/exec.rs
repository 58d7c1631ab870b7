//! The parallel sweep executor.
//!
//! Cells are embarrassingly parallel: each simulation is single-threaded
//! under the engine's baton, shares no mutable state with its neighbours,
//! and is deterministic. The executor therefore fans unique, uncached
//! cells out over a pool of OS threads (std only) that pull from one
//! shared cursor, with:
//!
//! * **panic capture** — a diverging application/configuration reports as
//!   a failed cell instead of killing the sweep (the global panic hook is
//!   taught to stay quiet for sweep-owned threads);
//! * **wall-time limits** — a cell that exceeds `--timeout` is abandoned
//!   (its detached simulation thread's eventual result is discarded) and
//!   reported as timed out;
//! * **deterministic ordering** — results come back in cell-enumeration
//!   order regardless of completion order;
//! * **caching** — completed cells append to the [`ResultStore`] as they
//!   finish, so an interrupted sweep resumes where it stopped;
//! * **progress** — a live stderr line (done/total, cache hits, failures,
//!   ETA).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

use ssm_apps::catalog;
use ssm_core::{FaultSpec, Protocol, SimBuilder};
use ssm_engine::{panic_text, WorkerSet, WORKER_THREAD_PREFIX};

use crate::cell::Cell;
use crate::json::Json;
use crate::record::CellRecord;
use crate::store::{ResultStore, SUMMARY_FILE};

/// How a cell ended.
// `Done` dwarfs the other variants, but it is also the overwhelmingly
// common case; boxing it would cost an allocation per cell for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CellStatus {
    /// Completed (possibly with a verification failure — see
    /// [`CellRecord::verified`]).
    Done(CellRecord),
    /// The simulation panicked (deadlock, bad configuration, app bug).
    Failed(String),
    /// The per-cell wall-time limit expired.
    TimedOut(Duration),
}

/// One cell's outcome within a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The cell.
    pub cell: Cell,
    /// The cell's cache hash.
    pub hash: String,
    /// Whether the result came from the on-disk cache.
    pub cached: bool,
    /// How many execution attempts the final status took (1 unless
    /// `--retries` re-ran the cell; cached outcomes report the attempt
    /// count recorded when the cell was first simulated).
    pub attempts: u64,
    /// The outcome.
    pub status: CellStatus,
}

/// Options controlling one sweep execution.
#[derive(Debug, Clone)]
pub struct SweepOpts {
    /// Worker threads (cells in flight at once).
    pub jobs: usize,
    /// Read/write the on-disk cache (`false` = always execute, never
    /// persist).
    pub cache: bool,
    /// Results directory (cache + summary).
    pub results_dir: PathBuf,
    /// Per-cell wall-time limit.
    pub timeout: Option<Duration>,
    /// Extra execution attempts for cells that panic or time out (0 = a
    /// failure is final on the first try).
    pub retries: u32,
    /// Emit live progress to stderr.
    pub progress: bool,
    /// Write `bench_summary.json` after the sweep.
    pub summary: bool,
    /// Batched baton handoffs inside each simulation (default on;
    /// simulated results are byte-identical either way — see
    /// `ssm-core::driver`).
    pub batching: bool,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            jobs: std::thread::available_parallelism().map_or(1, usize::from),
            cache: true,
            results_dir: PathBuf::from("results"),
            timeout: None,
            retries: 0,
            progress: true,
            summary: true,
            batching: true,
        }
    }
}

/// The outcome of a sweep: per-cell results in enumeration order plus
/// execution statistics.
#[derive(Debug)]
pub struct SweepRun {
    /// Unique cells in first-occurrence order.
    pub outcomes: Vec<CellOutcome>,
    pub(crate) index: HashMap<String, usize>,
    /// Cells actually simulated during this run.
    pub executed: usize,
    /// Cells served from the cache.
    pub cached: usize,
    /// Cells that failed or timed out.
    pub failed: usize,
    /// Detached simulation threads abandoned by timed-out attempts. Each
    /// one keeps running (and holding memory) until its simulation
    /// finishes or the process exits — a nonzero count means the process
    /// is carrying zombie work.
    pub abandoned_threads: usize,
    /// Host wall time of the whole sweep, milliseconds.
    pub host_ms: u64,
}

impl SweepRun {
    /// The completed record for `cell`, if it succeeded (here or in the
    /// cache).
    pub fn record(&self, cell: &Cell) -> Option<&CellRecord> {
        match &self.outcomes.get(*self.index.get(&cell.hash())?)?.status {
            CellStatus::Done(rec) => Some(rec),
            _ => None,
        }
    }

    /// The outcome for `cell` (including failures), if it was in the
    /// sweep.
    pub fn outcome(&self, cell: &Cell) -> Option<&CellOutcome> {
        self.outcomes.get(*self.index.get(&cell.hash())?)
    }

    /// Speedup of `cell` against its application's sequential baseline
    /// (the one-processor ideal cell, which the sweep must also contain).
    pub fn speedup(&self, cell: &Cell) -> Option<f64> {
        let r = self.record(cell)?;
        let base = self.record(&Cell::baseline(&cell.app, cell.scale))?;
        if r.total_cycles == 0 {
            return None;
        }
        Some(base.total_cycles as f64 / r.total_cycles as f64)
    }

    /// Writes `bench_summary.json` into `dir`: sweep totals plus one entry
    /// per cell (speedup when a baseline is available, wall cycles,
    /// verification, host time). This is the repo's machine-readable
    /// benchmark-trajectory output.
    ///
    /// The file is written beside its final name and renamed over it, so a
    /// sweep killed mid-write leaves the previous summary whole. There is
    /// no fsync: the summary is rewritten by every sweep.
    pub fn write_summary(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let cells: Vec<Json> = self
            .outcomes
            .iter()
            .map(|o| {
                let mut fields = vec![
                    ("hash".to_string(), Json::Str(o.hash.clone())),
                    ("label".to_string(), Json::Str(o.cell.label())),
                    ("cell".to_string(), o.cell.to_json()),
                    ("cached".to_string(), Json::Bool(o.cached)),
                    ("attempts".to_string(), Json::Int(o.attempts)),
                ];
                match &o.status {
                    CellStatus::Done(rec) => {
                        fields.push(("status".to_string(), Json::Str("done".to_string())));
                        fields.push(("total_cycles".to_string(), Json::Int(rec.total_cycles)));
                        fields.push(("verified".to_string(), Json::Bool(rec.verified)));
                        fields.push(("host_ms".to_string(), Json::Int(rec.host_ms)));
                        if o.cell.has_faults() {
                            let c = &rec.counters;
                            fields.push((
                                "recovery".to_string(),
                                Json::Obj(vec![
                                    ("retransmissions".to_string(), Json::Int(c.retransmissions)),
                                    ("dup_suppressed".to_string(), Json::Int(c.dup_suppressed)),
                                    (
                                        "faults_injected".to_string(),
                                        Json::Int(c.faults_injected()),
                                    ),
                                ]),
                            ));
                        }
                        if let Some(s) = self.speedup(&o.cell) {
                            fields.push(("speedup".to_string(), Json::Num(s)));
                        }
                        let avg = rec.avg_breakdown();
                        fields.push((
                            "breakdown".to_string(),
                            Json::Obj(
                                ssm_stats::Bucket::ALL
                                    .iter()
                                    .map(|b| (b.label().to_string(), Json::Int(avg.get(*b))))
                                    .collect(),
                            ),
                        ));
                        let c = &rec.counters;
                        fields.push((
                            "engine".to_string(),
                            Json::Obj(vec![
                                ("handoffs".to_string(), Json::Int(c.handoffs)),
                                ("sim_ops".to_string(), Json::Int(c.sim_ops)),
                                ("ops_batched".to_string(), Json::Int(c.ops_batched)),
                                ("flush_sync".to_string(), Json::Int(c.flush_sync)),
                                ("flush_miss".to_string(), Json::Int(c.flush_miss)),
                                ("flush_cap".to_string(), Json::Int(c.flush_cap)),
                                ("flush_end".to_string(), Json::Int(c.flush_end)),
                                (
                                    "threads_spawned".to_string(),
                                    Json::Int(rec.threads_spawned),
                                ),
                                ("threads_reused".to_string(), Json::Int(rec.threads_reused)),
                            ]),
                        ));
                    }
                    CellStatus::Failed(e) => {
                        fields.push(("status".to_string(), Json::Str("failed".to_string())));
                        fields.push(("error".to_string(), Json::Str(e.clone())));
                    }
                    CellStatus::TimedOut(d) => {
                        fields.push(("status".to_string(), Json::Str("timeout".to_string())));
                        fields.push(("timeout_ms".to_string(), Json::Int(d.as_millis() as u64)));
                    }
                }
                Json::Obj(fields)
            })
            .collect();
        let summary = Json::Obj(vec![
            (
                "schema".to_string(),
                Json::Str("ssm-sweep-summary/1".to_string()),
            ),
            (
                "cells_total".to_string(),
                Json::Int(self.outcomes.len() as u64),
            ),
            (
                "cells_executed".to_string(),
                Json::Int(self.executed as u64),
            ),
            ("cells_cached".to_string(), Json::Int(self.cached as u64)),
            ("cells_failed".to_string(), Json::Int(self.failed as u64)),
            (
                "abandoned_threads".to_string(),
                Json::Int(self.abandoned_threads as u64),
            ),
            ("host_ms".to_string(), Json::Int(self.host_ms)),
            ("cells".to_string(), Json::Arr(cells)),
        ]);
        let path = dir.join(SUMMARY_FILE);
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, summary.render() + "\n")?;
        std::fs::rename(&tmp, &path)
    }
}

/// Builds and runs the simulation for one cell. Panics propagate to the
/// caller (the executor turns them into failed cells). `workers` is an
/// optional shared [`WorkerSet`] to recycle execution contexts across
/// cells, `batching` the engine's handoff batching; neither affects
/// simulated results.
pub fn execute_with(
    cell: &Cell,
    workers: Option<&WorkerSet>,
    batching: bool,
) -> Result<CellRecord, String> {
    let spec =
        catalog::by_name(&cell.app).ok_or_else(|| format!("unknown application {:?}", cell.app))?;
    let started = Instant::now();
    let workload = spec.build(cell.scale);
    let mut builder = SimBuilder::new(cell.protocol)
        .procs(cell.procs)
        .sc_block(cell.sc_block.unwrap_or(spec.sc_block))
        .home_policy(cell.homes)
        .batching(batching);
    if let Some(ws) = workers {
        builder = builder.workers(ws.clone());
    }
    if cell.protocol != Protocol::Ideal {
        builder = builder.comm(cell.comm.params()).proto(cell.proto.costs());
    }
    if cell.has_faults() {
        builder = builder.faults(FaultSpec::at(cell.fault_rate_ppm, cell.fault_seed));
    }
    let result = builder.run(workload.as_ref());
    Ok(CellRecord::from_run(
        cell.clone(),
        &result,
        started.elapsed().as_millis() as u64,
    ))
}

/// Number of sweep cells currently in flight (used by the panic filter).
static ACTIVE_CELLS: AtomicUsize = AtomicUsize::new(0);

/// Installs (once per process) a panic hook that suppresses the default
/// backtrace spew for panics on sweep-owned threads — the pooled
/// `ssm-worker-N` threads that run the per-cell guard jobs and, with
/// them, the engine's application threads (coroutines on the guard's own
/// thread, or pooled workers of their own off x86_64 Linux) — while cells
/// are in flight. The panic
/// still unwinds and is reported as a failed cell; every other thread
/// keeps the previous hook's behavior.
fn install_panic_filter() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let name = std::thread::current().name().unwrap_or("").to_string();
            let owned =
                name.starts_with(WORKER_THREAD_PREFIX) && ACTIVE_CELLS.load(Ordering::SeqCst) > 0;
            if !owned {
                previous(info);
            }
        }));
    });
}

/// Runs one cell, re-running a panicked or timed-out attempt up to
/// `retries` extra times. Returns the final status, the number of attempts
/// made, and how many timed-out attempts left a detached simulation behind
/// (each timeout abandons its busy worker whether or not a retry follows).
fn execute_with_retries(
    cell: &Cell,
    workers: &WorkerSet,
    opts: &SweepOpts,
) -> (CellStatus, u64, usize) {
    let mut attempts = 0u64;
    let mut abandoned = 0usize;
    loop {
        attempts += 1;
        let (c, ws, batching) = (cell.clone(), workers.clone(), opts.batching);
        let status = run_guarded(workers, opts.timeout, move || {
            execute_with(&c, Some(&ws), batching)
        });
        if matches!(status, CellStatus::TimedOut(_)) {
            abandoned += 1;
        }
        if matches!(status, CellStatus::Done(_)) || attempts > opts.retries as u64 {
            return (status, attempts, abandoned);
        }
    }
}

/// The guard around one cell execution: a leased worker thread, panic
/// capture, and the wall-time limit. Returns the status (never panics).
/// Takes the work as a closure so the guard itself is testable with
/// arbitrary workloads.
///
/// The result is delivered by the worker's *completion* closure, which
/// runs only after the worker has re-registered itself as idle — so by
/// the time this returns, the guard's worker (and, once the simulation's
/// own `ThreadPool` has dropped, its application workers) are parked and
/// ready for the next cell. That ordering is what makes "zero fresh
/// spawns on the second cell" deterministic.
fn run_guarded(
    workers: &WorkerSet,
    timeout: Option<Duration>,
    work: impl FnOnce() -> Result<CellRecord, String> + Send + 'static,
) -> CellStatus {
    let (tx, rx) = channel();
    ACTIVE_CELLS.fetch_add(1, Ordering::SeqCst);
    workers.submit(Box::new(move || {
        let out = match catch_unwind(AssertUnwindSafe(work)) {
            Ok(r) => r,
            Err(payload) => Err(panic_text(&*payload)),
        };
        Box::new(move || {
            let _ = tx.send(out);
        })
    }));
    let received = match timeout {
        Some(t) => rx.recv_timeout(t),
        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
    };
    let status = match received {
        Ok(Ok(rec)) => CellStatus::Done(rec),
        Ok(Err(e)) => CellStatus::Failed(e),
        Err(RecvTimeoutError::Timeout) => {
            // Abandon the attempt: its completion will land on a dropped
            // receiver, and its worker stays busy (unavailable for lease)
            // until the simulation finishes. A late panic on the zombie's
            // threads may print, which is acceptable for an
            // already-reported cell.
            drop(rx);
            ACTIVE_CELLS.fetch_sub(1, Ordering::SeqCst);
            return CellStatus::TimedOut(timeout.expect("timeout fired"));
        }
        Err(RecvTimeoutError::Disconnected) => {
            CellStatus::Failed("cell worker vanished without a result".to_string())
        }
    };
    ACTIVE_CELLS.fetch_sub(1, Ordering::SeqCst);
    status
}

struct Progress {
    total: usize,
    done: usize,
    executed: usize,
    failed: usize,
    abandoned: usize,
    started: Instant,
}

impl Progress {
    fn report(&self, enabled: bool) {
        if !enabled {
            return;
        }
        let eta = if self.executed > 0 && self.done < self.total {
            let per_cell = self.started.elapsed().as_secs_f64() / self.executed as f64;
            let remaining = (self.total - self.done) as f64;
            format!(", ETA {:.0}s", per_cell * remaining)
        } else {
            String::new()
        };
        let failures = if self.failed > 0 {
            format!(", {} failed", self.failed)
        } else {
            String::new()
        };
        eprintln!(
            "[ssm-sweep] {}/{} cells{failures}{eta}",
            self.done, self.total
        );
    }
}

/// Deduplicates `cells` by hash, first occurrence wins, preserving
/// enumeration order. Returns the hash→slot index and the unique
/// `(cell, hash)` list — the shared front half of both the local executor
/// and the shard coordinator.
pub(crate) fn dedup_cells(cells: &[Cell]) -> (HashMap<String, usize>, Vec<(Cell, String)>) {
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut unique: Vec<(Cell, String)> = Vec::new();
    for cell in cells {
        let hash = cell.hash();
        index.entry(hash.clone()).or_insert_with(|| {
            unique.push((cell.clone(), hash));
            unique.len() - 1
        });
    }
    (index, unique)
}

/// The in-process executor behind [`crate::Sweep::run`]: executes `cells`
/// (deduplicated by hash, first occurrence wins) and returns the outcomes
/// in enumeration order.
///
/// Cached cells are served from the [`ResultStore`] without executing;
/// fresh results are appended to it as they complete. With
/// `opts.summary`, the sweep's `bench_summary.json` is (re)written at the
/// end.
pub(crate) fn run_local(cells: &[Cell], opts: &SweepOpts) -> SweepRun {
    install_panic_filter();
    let sweep_started = Instant::now();

    let (index, unique) = dedup_cells(cells);

    let store = if opts.cache {
        match ResultStore::open(&opts.results_dir) {
            Ok(s) => {
                if s.skipped() > 0 {
                    eprintln!(
                        "[ssm-sweep] warning: skipped {} unreadable cache line(s)",
                        s.skipped()
                    );
                }
                Some(s)
            }
            Err(e) => {
                eprintln!(
                    "[ssm-sweep] warning: cache disabled ({} unopenable: {e})",
                    opts.results_dir.display()
                );
                None
            }
        }
    } else {
        None
    };

    let mut statuses: Vec<Option<(CellStatus, u64)>> = vec![None; unique.len()];
    let mut cached_flags: Vec<bool> = vec![false; unique.len()];
    let mut misses: Vec<usize> = Vec::new();
    let mut cached = 0usize;
    for (i, (_, hash)) in unique.iter().enumerate() {
        if let Some(rec) = store.as_ref().and_then(|s| s.get(hash)) {
            let attempts = rec.attempts;
            statuses[i] = Some((CellStatus::Done(rec), attempts));
            cached_flags[i] = true;
            cached += 1;
        } else {
            misses.push(i);
        }
    }

    let jobs = opts.jobs.max(1).min(misses.len().max(1));
    if opts.progress {
        eprintln!(
            "[ssm-sweep] {} cells ({} unique): {} cached, {} to run on {} worker(s)",
            cells.len(),
            unique.len(),
            cached,
            misses.len(),
            jobs
        );
    }

    // Workers claim misses in enumeration order through one shared cursor,
    // so none idles while an unstarted cell remains. `fetch_add` hands each
    // index out exactly once under any ordering, and the cursor publishes
    // no data (results go through the mutex), so `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);

    // State shared by the workers: per-cell status slots, the open cache,
    // and progress accounting. One lock, taken once per finished cell.
    type SharedState<'a> = (
        &'a mut Vec<Option<(CellStatus, u64)>>,
        Option<ResultStore>,
        Progress,
    );
    let shared_results: Mutex<SharedState> = Mutex::new((
        &mut statuses,
        store,
        Progress {
            total: unique.len(),
            done: cached,
            executed: 0,
            failed: 0,
            abandoned: 0,
            started: Instant::now(),
        },
    ));
    let unique_ref = &unique;
    let (misses, cursor) = (&misses, &cursor);
    let shared = &shared_results;

    // One worker set per sweep: the per-cell guard jobs lease OS threads
    // from it and every simulation leases its application threads'
    // stacks (or threads, off x86_64 Linux), so cell N+1 recycles cell
    // N's instead of creating its own. Dropping the set at the end of the
    // run lets its parked workers exit.
    let workers = WorkerSet::new();
    let workers_ref = &workers;

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(move || {
                while let Some(&i) = misses.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let (cell, _) = &unique_ref[i];
                    let (mut status, attempts, abandoned) =
                        execute_with_retries(cell, workers_ref, opts);
                    if let CellStatus::Done(rec) = &mut status {
                        rec.attempts = attempts;
                    }
                    let mut guard = shared.lock().expect("results");
                    let (results, store, progress) = &mut *guard;
                    if let CellStatus::Done(rec) = &status {
                        if let Some(s) = store.as_mut() {
                            if let Err(e) = s.append(rec.clone()) {
                                eprintln!("[ssm-sweep] warning: cache append failed: {e}");
                            }
                        }
                    } else {
                        progress.failed += 1;
                    }
                    progress.abandoned += abandoned;
                    results[i] = Some((status, attempts));
                    progress.done += 1;
                    progress.executed += 1;
                    progress.report(opts.progress);
                }
            });
        }
    });

    let (executed, failed, abandoned_threads) = {
        let (_, _, progress) = shared_results.into_inner().expect("results");
        (progress.executed, progress.failed, progress.abandoned)
    };

    let outcomes: Vec<CellOutcome> = unique
        .iter()
        .zip(statuses.iter_mut())
        .zip(cached_flags.iter())
        .map(|(((cell, hash), status), &was_cached)| {
            let (status, attempts) = status.take().expect("every cell resolved");
            CellOutcome {
                cell: cell.clone(),
                hash: hash.clone(),
                cached: was_cached,
                attempts,
                status,
            }
        })
        .collect();

    let run = SweepRun {
        outcomes,
        index,
        executed,
        cached,
        failed,
        abandoned_threads,
        host_ms: sweep_started.elapsed().as_millis() as u64,
    };
    if opts.summary {
        if let Err(e) = run.write_summary(&opts.results_dir) {
            eprintln!("[ssm-sweep] warning: summary write failed: {e}");
        }
    }
    if opts.progress {
        let zombies = if run.abandoned_threads > 0 {
            format!(
                ", {} abandoned thread(s) still running",
                run.abandoned_threads
            )
        } else {
            String::new()
        };
        eprintln!(
            "[ssm-sweep] sweep complete: {} cells ({} executed, {} cached, {} failed{zombies}) in {:.1}s",
            run.outcomes.len(),
            run.executed,
            run.cached,
            run.failed,
            run.host_ms as f64 / 1000.0
        );
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_apps::catalog::Scale;
    use ssm_core::LayerConfig;
    use ssm_stats::{Counters, ProtoActivity};

    fn dummy_record() -> CellRecord {
        CellRecord {
            cell: Cell::new("FFT", Protocol::Hlrc, LayerConfig::base(), 2, Scale::Test),
            total_cycles: 1,
            per_proc: vec![[1, 0, 0, 0, 0, 0]; 2],
            activity: ProtoActivity::default(),
            counters: Counters::default(),
            verified: true,
            verify_error: None,
            host_ms: 0,
            attempts: 1,
            threads_spawned: 0,
            threads_reused: 0,
        }
    }

    fn opts_with(timeout: Option<Duration>, retries: u32) -> SweepOpts {
        SweepOpts {
            timeout,
            retries,
            cache: false,
            progress: false,
            summary: false,
            ..SweepOpts::default()
        }
    }

    #[test]
    fn summary_replaces_the_old_file_whole() {
        let dir = std::env::temp_dir().join(format!("ssm-sweep-summary-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SUMMARY_FILE);
        let old = "x".repeat(64 << 10);
        std::fs::write(&path, &old).unwrap();
        let mut reader = std::fs::File::open(&path).unwrap();
        let run = SweepRun {
            outcomes: Vec::new(),
            index: HashMap::new(),
            executed: 0,
            cached: 0,
            failed: 0,
            abandoned_threads: 0,
            host_ms: 7,
        };
        run.write_summary(&dir).unwrap();
        // The old file was replaced, not rewritten in place: a reader that
        // opened it before still reads it whole.
        let mut seen = String::new();
        std::io::Read::read_to_string(&mut reader, &mut seen).unwrap();
        assert!(seen == old, "the old summary was rewritten in place");
        let text = std::fs::read_to_string(&path).unwrap();
        let json = Json::parse(text.trim_end()).unwrap();
        assert_eq!(json.get("host_ms").and_then(Json::as_u64), Some(7));
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [SUMMARY_FILE], "no temp file may remain");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn guard_passes_results_through() {
        let workers = WorkerSet::new();
        let rec = dummy_record();
        let want = rec.clone();
        match run_guarded(&workers, None, move || Ok(rec)) {
            CellStatus::Done(got) => assert_eq!(got, want),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn guard_captures_panics_as_failed_cells() {
        install_panic_filter(); // keep the test log free of backtrace spew
        let workers = WorkerSet::new();
        match run_guarded(&workers, None, || panic!("cell exploded: {}", 7)) {
            CellStatus::Failed(msg) => assert!(msg.contains("cell exploded: 7"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        // The panic unwound through the leased worker; the set hands out a
        // fresh one and the caller keeps going.
        match run_guarded(&workers, None, || Err("soft failure".to_string())) {
            CellStatus::Failed(msg) => assert_eq!(msg, "soft failure"),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn guard_enforces_wall_time_limit() {
        let workers = WorkerSet::new();
        let limit = Duration::from_millis(20);
        let status = run_guarded(&workers, Some(limit), move || {
            // Far beyond the limit; the guard abandons this thread.
            std::thread::sleep(Duration::from_secs(5));
            Ok(dummy_record())
        });
        assert_eq!(status, CellStatus::TimedOut(limit));
    }

    #[test]
    fn retries_rerun_failed_cells_and_count_attempts() {
        install_panic_filter();
        let workers = WorkerSet::new();
        // An unknown app fails deterministically on every attempt: with 2
        // retries the executor makes 3 attempts, then gives up.
        let cell = Cell::new(
            "No-Such-App",
            Protocol::Hlrc,
            LayerConfig::base(),
            2,
            Scale::Test,
        );
        let (status, attempts, abandoned) =
            execute_with_retries(&cell, &workers, &opts_with(None, 2));
        assert!(matches!(status, CellStatus::Failed(_)), "{status:?}");
        assert_eq!(attempts, 3);
        assert_eq!(abandoned, 0, "failures abandon no threads");
        // A healthy cell succeeds on the first attempt regardless of the
        // retry budget.
        let ok = Cell::new("FFT", Protocol::Hlrc, LayerConfig::base(), 2, Scale::Test);
        let (status, attempts, abandoned) =
            execute_with_retries(&ok, &workers, &opts_with(None, 2));
        assert!(matches!(status, CellStatus::Done(_)), "{status:?}");
        assert_eq!((attempts, abandoned), (1, 0));
    }

    #[test]
    fn timed_out_attempts_count_abandoned_threads() {
        // Each timed-out attempt detaches its simulation thread; the
        // retry loop must count every one of them.
        let workers = WorkerSet::new();
        let cell = Cell::new("FFT", Protocol::Hlrc, LayerConfig::base(), 2, Scale::Test);
        let timeout = Some(Duration::from_nanos(1));
        let (status, attempts, abandoned) =
            execute_with_retries(&cell, &workers, &opts_with(timeout, 1));
        if matches!(status, CellStatus::TimedOut(_)) {
            assert_eq!(attempts, 2);
            assert_eq!(abandoned, 2);
        } else {
            // A 1ns budget losing the race is wildly unlikely but not
            // impossible on a loaded host; a completed run must then
            // report a clean first attempt.
            assert!(abandoned < 2);
        }
    }

    #[test]
    fn unknown_application_is_a_failed_cell() {
        let cell = Cell::new(
            "No-Such-App",
            Protocol::Hlrc,
            LayerConfig::base(),
            2,
            Scale::Test,
        );
        let err = execute_with(&cell, None, true).expect_err("unknown app");
        assert!(err.contains("No-Such-App"), "{err}");
    }
}
