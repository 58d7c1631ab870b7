//! The shard coordinator: partitions a sweep, launches worker
//! subprocesses, retries stragglers, and merges shard caches back into
//! the main results directory.
//!
//! The coordinator is any bench binary invoked with `--shards N`. Each
//! worker is the *same* binary re-invoked with `--worker --shard i/N
//! --results <shard dir>`: it recomputes the identical cell enumeration,
//! keeps only its hash-modulus slice, and streams records into its own
//! JSONL shard cache. Because shard membership is a pure function of the
//! cell hash, coordinator and workers agree on the partition without any
//! communication; the caches are the only channel.
//!
//! A shard is *complete* when every cell it owns has a record in its
//! cache, whatever the worker's exit status — a worker that crashed after
//! finishing its last cell still counts. Incomplete shards are relaunched
//! with exponential backoff up to `--shard-retries` times; cells still
//! missing after that surface as failed outcomes, mirroring how the local
//! executor reports a panicked cell.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::cell::Cell;
use crate::exec::{dedup_cells, CellOutcome, CellStatus, SweepOpts, SweepRun};
use crate::json::Json;
use crate::merge::merge_caches;
use crate::shard::{shard_of, ShardSpec};
use crate::store::{ResultStore, SUMMARY_FILE};

/// Prints a fatal coordinator error and exits with status 1.
fn fatal(msg: &str) -> ! {
    eprintln!("[ssm-sweep] fatal: {msg}");
    std::process::exit(1);
}

/// The original argv minus the coordinator-only flags, the prefix every
/// worker command line is rebuilt from. `--shards`/`--shard-retries` must
/// be stripped or workers would recurse into coordinators.
fn forwarded_args() -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--shards" | "--shard-retries" => {
                let _ = args.next();
            }
            _ => out.push(a),
        }
    }
    out
}

/// What one worker's `bench_summary.json` reports.
struct ShardReport {
    executed: usize,
    abandoned: usize,
    /// hash → (status, error, timeout_ms, attempts) for non-done cells.
    failures: HashMap<String, (String, String, u64, u64)>,
}

fn read_shard_summary(dir: &Path) -> Option<ShardReport> {
    let text = std::fs::read_to_string(dir.join(SUMMARY_FILE)).ok()?;
    let j = Json::parse(text.trim()).ok()?;
    let mut failures = HashMap::new();
    for cell in j.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
        let status = cell.get("status").and_then(Json::as_str).unwrap_or("");
        if status == "done" {
            continue;
        }
        let hash = match cell.get("hash").and_then(Json::as_str) {
            Some(h) => h.to_string(),
            None => continue,
        };
        failures.insert(
            hash,
            (
                status.to_string(),
                cell.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                cell.get("timeout_ms").and_then(Json::as_u64).unwrap_or(0),
                cell.get("attempts").and_then(Json::as_u64).unwrap_or(1),
            ),
        );
    }
    Some(ShardReport {
        executed: j.get("cells_executed").and_then(Json::as_u64).unwrap_or(0) as usize,
        abandoned: j
            .get("abandoned_threads")
            .and_then(Json::as_u64)
            .unwrap_or(0) as usize,
        failures,
    })
}

/// Hashes from `owned` still missing from the shard cache at `dir`.
fn missing_in(dir: &Path, owned: &[(usize, String)]) -> Vec<String> {
    match ResultStore::open(dir) {
        Ok(store) => owned
            .iter()
            .filter(|(_, h)| !store.contains(h))
            .map(|(_, h)| h.clone())
            .collect(),
        Err(_) => owned.iter().map(|(_, h)| h.clone()).collect(),
    }
}

/// Runs `cells` as `shards` subprocess shards and merges the results.
/// See the module docs for the protocol; called via
/// [`crate::Sweep::run`].
pub(crate) fn run_coordinator(
    cells: &[Cell],
    opts: &SweepOpts,
    shards: usize,
    shard_retries: u32,
) -> SweepRun {
    assert!(opts.cache, "the shard coordinator requires the cache");
    let started = Instant::now();
    let (index, unique) = dedup_cells(cells);

    let main_store = match ResultStore::open(&opts.results_dir) {
        Ok(s) => s,
        Err(e) => fatal(&format!(
            "cannot open cache under {}: {e}",
            opts.results_dir.display()
        )),
    };
    let pre_hits: Vec<bool> = unique.iter().map(|(_, h)| main_store.contains(h)).collect();

    // Partition the unique cells; `owned[s]` lists (slot, hash) per shard.
    let specs: Vec<ShardSpec> = (0..shards)
        .map(|i| ShardSpec::new(i, shards).expect("validated shard count"))
        .collect();
    let mut owned: Vec<Vec<(usize, String)>> = vec![Vec::new(); shards];
    for (i, (_, hash)) in unique.iter().enumerate() {
        owned[shard_of(hash, shards)].push((i, hash.clone()));
    }

    // Seed each shard cache with the main cache's hits for its cells, so
    // workers only execute what no prior run (sharded or not) has done.
    for spec in &specs {
        if owned[spec.index].is_empty() {
            continue;
        }
        let dir = spec.dir(&opts.results_dir);
        let mut store = match ResultStore::open(&dir) {
            Ok(s) => s,
            Err(e) => fatal(&format!("cannot open shard cache {}: {e}", dir.display())),
        };
        for (_, hash) in &owned[spec.index] {
            if !store.contains(hash) {
                if let Some(rec) = main_store.get(hash) {
                    if let Err(e) = store.append(rec) {
                        fatal(&format!("cannot seed shard cache {}: {e}", dir.display()));
                    }
                }
            }
        }
    }

    let exe = std::env::current_exe().unwrap_or_else(|e| fatal(&format!("current_exe: {e}")));
    let base_args = forwarded_args();

    let mut pending: Vec<usize> = specs
        .iter()
        .filter(|s| !missing_in(&s.dir(&opts.results_dir), &owned[s.index]).is_empty())
        .map(|s| s.index)
        .collect();
    if opts.progress {
        eprintln!(
            "[ssm-sweep] coordinator: {} cells over {} shard(s), {} shard(s) need work",
            unique.len(),
            shards,
            pending.len()
        );
    }

    let mut spawned: Vec<bool> = vec![false; shards];
    let mut attempt = 0u32;
    while !pending.is_empty() && attempt <= shard_retries {
        if attempt > 0 {
            let backoff = Duration::from_millis(100u64 << attempt.min(4));
            if opts.progress {
                eprintln!(
                    "[ssm-sweep] retrying {} incomplete shard(s) after {:?} (attempt {}/{})",
                    pending.len(),
                    backoff,
                    attempt + 1,
                    shard_retries + 1
                );
            }
            std::thread::sleep(backoff);
        }
        // Launch every pending shard, then reap them in index order; the
        // subprocesses run concurrently in between.
        let mut children = Vec::new();
        for &s in &pending {
            let spec = specs[s];
            let dir = spec.dir(&opts.results_dir);
            if opts.progress {
                eprintln!(
                    "[ssm-sweep] shard {}: launching worker ({} cell(s))",
                    spec.label(),
                    owned[s].len()
                );
            }
            let child = Command::new(&exe)
                .args(&base_args)
                .arg("--worker")
                .arg("--shard")
                .arg(spec.label())
                .arg("--results")
                .arg(&dir)
                .arg("--jobs")
                .arg(opts.jobs.to_string())
                .arg("--quiet")
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn();
            match child {
                Ok(c) => {
                    spawned[s] = true;
                    children.push((s, c));
                }
                Err(e) => eprintln!("[ssm-sweep] shard {}: spawn failed: {e}", spec.label()),
            }
        }
        let mut still_pending = Vec::new();
        for (s, child) in children {
            let spec = specs[s];
            let out = match child.wait_with_output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("[ssm-sweep] shard {}: wait failed: {e}", spec.label());
                    still_pending.push(s);
                    continue;
                }
            };
            // Completeness is judged by the cache, not the exit status: a
            // worker that died after its last append still delivered.
            let missing = missing_in(&spec.dir(&opts.results_dir), &owned[s]);
            if missing.is_empty() {
                continue;
            }
            eprintln!(
                "[ssm-sweep] shard {}: incomplete ({} cell(s) missing, worker exit {:?})",
                spec.label(),
                missing.len(),
                out.status.code()
            );
            for stream in [&out.stdout, &out.stderr] {
                let text = String::from_utf8_lossy(stream);
                for line in text.lines() {
                    eprintln!("[ssm-sweep]   worker: {line}");
                }
            }
            still_pending.push(s);
        }
        pending = still_pending;
        attempt += 1;
    }

    // Fold worker-side statistics into the coordinator's totals. Only
    // shards launched *this run* contribute — a skipped (fully cached)
    // shard's summary describes some earlier run.
    let mut executed = 0usize;
    let mut abandoned_threads = 0usize;
    let mut failures: HashMap<String, (String, String, u64, u64)> = HashMap::new();
    for spec in &specs {
        if !spawned[spec.index] {
            continue;
        }
        if let Some(report) = read_shard_summary(&spec.dir(&opts.results_dir)) {
            executed += report.executed;
            abandoned_threads += report.abandoned;
            failures.extend(report.failures);
        }
    }

    let shard_dirs: Vec<PathBuf> = specs
        .iter()
        .filter(|s| !owned[s.index].is_empty())
        .map(|s| s.dir(&opts.results_dir))
        .collect();
    let merge = match merge_caches(&opts.results_dir, &shard_dirs) {
        Ok(m) => m,
        Err(e) => fatal(&e.to_string()),
    };
    if opts.progress {
        eprintln!(
            "[ssm-sweep] merged {} shard cache(s): {} new record(s), {} duplicate(s)",
            shard_dirs.len(),
            merge.added,
            merge.duplicates
        );
    }

    let merged = match ResultStore::open(&opts.results_dir) {
        Ok(s) => s,
        Err(e) => fatal(&format!("cannot reopen merged cache: {e}")),
    };
    let mut failed = 0usize;
    let outcomes: Vec<CellOutcome> = unique
        .iter()
        .enumerate()
        .map(|(i, (cell, hash))| {
            let (status, attempts) = match merged.get(hash) {
                Some(rec) => {
                    let attempts = rec.attempts;
                    (CellStatus::Done(rec), attempts)
                }
                None => {
                    failed += 1;
                    match failures.get(hash) {
                        Some((kind, _, ms, attempts)) if kind == "timeout" => {
                            (CellStatus::TimedOut(Duration::from_millis(*ms)), *attempts)
                        }
                        Some((_, error, _, attempts)) => {
                            (CellStatus::Failed(error.clone()), *attempts)
                        }
                        None => (
                            CellStatus::Failed(format!(
                                "shard {}/{} produced no result for this cell",
                                shard_of(hash, shards),
                                shards
                            )),
                            1,
                        ),
                    }
                }
            };
            CellOutcome {
                cell: cell.clone(),
                hash: hash.clone(),
                cached: pre_hits[i],
                attempts,
                status,
            }
        })
        .collect();

    // `host_ms` is zeroed so the merged summary is byte-identical across
    // runs and shard counts; the real wall time goes to stderr below.
    let run = SweepRun {
        outcomes,
        index,
        executed,
        cached: pre_hits.iter().filter(|&&c| c).count(),
        failed,
        abandoned_threads,
        host_ms: 0,
    };
    if opts.summary {
        if let Err(e) = run.write_summary(&opts.results_dir) {
            eprintln!("[ssm-sweep] warning: summary write failed: {e}");
        }
    }
    if opts.progress {
        let zombies = if run.abandoned_threads > 0 {
            format!(", {} abandoned thread(s) in workers", run.abandoned_threads)
        } else {
            String::new()
        };
        eprintln!(
            "[ssm-sweep] sweep complete: {} cells ({} executed, {} cached, {} failed{zombies}) in {:.1}s",
            run.outcomes.len(),
            run.executed,
            run.cached,
            run.failed,
            started.elapsed().as_secs_f64()
        );
    }
    run
}
