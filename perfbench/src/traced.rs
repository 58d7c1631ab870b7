//! The traced runner: runs a workload's cells through the layers' public
//! entry points — the same steps the sweep executor takes — recording one
//! span per call.
//!
//! Per pass: open the store (`sweep.store_open`), then per cell hash it
//! (`sweep.hash`) and look it up (`sweep.store_get`) on the calling thread;
//! then the misses run on `jobs` threads: build the application
//! (`apps.build`), simulate (`core.run`, tagged with the protocol, or
//! `core.baseline` through `sequential_baseline`), make the record
//! (`sweep.record`) and append it (`sweep.store_append`); finally the
//! summary (`sweep.summary`) and the Figure-3-style table (`stats.render`).
//! What the executor does and this runner does not — the per-cell guard
//! job on a leased worker, progress accounting, deduplication — shows in
//! the gap between the traced and untraced wall times.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ssm_apps::catalog;
use ssm_core::{sequential_baseline, FaultSpec, Protocol, SimBuilder};
use ssm_engine::WorkerSet;
use ssm_sweep::{Cell, CellRecord, Json, ResultStore, SweepRun};

use crate::trace::{Recorder, Span};
use crate::workloads::{self, figure_table, is_baseline, Outcome};

/// Name prefix of the traced runner's threads (their panics are reported
/// as failed cells, not printed).
pub const THREAD_PREFIX: &str = "perfbench-trace-";

/// What one runner thread hands back: its spans and the cells it ran.
type ThreadOutput = (Vec<Span>, Vec<(usize, Result<CellRecord, String>)>);

/// One traced pass over a workload's cells.
#[derive(Debug)]
pub struct TracedPass {
    pub wall_s: f64,
    /// Per cell, in enumeration order: its record or why it has none.
    pub results: Vec<Result<CellRecord, String>>,
    pub spans: Vec<Span>,
    /// Cell hashes, the shared id of each cell's spans.
    pub hashes: Vec<String>,
}

/// Runs one traced pass. `cache_dir` is the store to use (`None` = no
/// cache); the summary written is `summary_of`'s, the executor's run of
/// the same cells, since only the executor produces a [`SweepRun`].
/// `pass` keeps span ids unique across passes sharing `epoch`.
pub fn traced_pass(
    cells: &[Cell],
    cache_dir: Option<&Path>,
    summary_dir: &Path,
    summary_of: &SweepRun,
    jobs: usize,
    epoch: Instant,
    pass: u64,
) -> Result<TracedPass, String> {
    let started = Instant::now();
    let thread_base = pass * 64;
    let mut main = Recorder::new(thread_base, epoch, None);
    let (results, thread_spans, hashes) = main.span("sweep.traced", "", None, |main| {
        let store = match cache_dir {
            Some(dir) => Some(
                main.span("sweep.store_open", "", None, |_| ResultStore::open(dir))
                    .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?,
            ),
            None => None,
        };

        // Hash and look up every cell on this thread, as the executor does
        // before it starts its workers.
        let mut results: Vec<Option<Result<CellRecord, String>>> = vec![None; cells.len()];
        let mut hashes = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let id = Some(i as u32);
            main.span("sweep.cell", "", id, |r| {
                let hash = r.span("sweep.hash", "", id, |_| cell.hash());
                if let Some(s) = &store {
                    if let Some(rec) = r.span("sweep.store_get", "", id, |_| s.get(&hash)) {
                        results[i] = Some(Ok(rec));
                    }
                }
                hashes.push(hash);
            });
        }

        // Run the misses on `jobs` threads.
        let misses: Vec<usize> = (0..cells.len()).filter(|&i| results[i].is_none()).collect();
        let next = AtomicUsize::new(0);
        let store = Mutex::new(store);
        let workers = WorkerSet::new();
        let root = main.current();
        let mut done: Vec<ThreadOutput> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs.max(1) as u64)
                .map(|t| {
                    let (misses, next, store, workers) = (&misses, &next, &store, &workers);
                    std::thread::Builder::new()
                        .name(format!("{THREAD_PREFIX}{t}"))
                        .spawn_scoped(scope, move || {
                            let mut rec = Recorder::new(thread_base + 1 + t, epoch, root);
                            let mut out = Vec::new();
                            loop {
                                let k = next.fetch_add(1, Ordering::SeqCst);
                                let Some(&i) = misses.get(k) else { break };
                                let id = Some(i as u32);
                                let r = rec.span("sweep.cell", "", id, |r| {
                                    run_cell(r, &cells[i], id, workers, store)
                                });
                                out.push((i, r));
                            }
                            (rec.into_spans(), out)
                        })
                        .expect("spawn traced runner thread")
                })
                .collect();
            for h in handles {
                done.push(h.join().expect("traced runner thread"));
            }
        });
        let mut spans_of_threads = Vec::new();
        for (spans, out) in done {
            spans_of_threads.extend(spans);
            for (i, r) in out {
                results[i] = Some(r);
            }
        }
        let results: Vec<Result<CellRecord, String>> = results
            .into_iter()
            .map(|r| r.expect("every cell resolved"))
            .collect();

        main.span("sweep.summary", "", None, |_| {
            summary_of
                .write_summary(summary_dir)
                .map_err(|e| format!("summary write failed: {e}"))
        })?;
        let outcomes: Vec<Outcome> = cells
            .iter()
            .zip(&results)
            .map(|(c, r)| (c, r.as_ref().map_err(String::as_str)))
            .collect();
        let speedups = workloads::speedups(&outcomes);
        let table = main.span("stats.render", "", None, |_| {
            figure_table(cells, |c| speedups.get(&c.label()).copied()).render()
        });
        std::hint::black_box(table);
        Ok::<_, String>((results, spans_of_threads, hashes))
    })?;
    let wall_s = started.elapsed().as_secs_f64();
    let mut spans = main.into_spans();
    spans.extend(thread_spans);
    Ok(TracedPass {
        wall_s,
        results,
        spans,
        hashes,
    })
}

/// One cell through `apps`, `core` and the store, as `execute_with` maps
/// a cell onto the simulator.
fn run_cell(
    r: &mut Recorder,
    cell: &Cell,
    id: Option<u32>,
    workers: &WorkerSet,
    store: &Mutex<Option<ResultStore>>,
) -> Result<CellRecord, String> {
    let spec =
        catalog::by_name(&cell.app).ok_or_else(|| format!("unknown application {:?}", cell.app))?;
    let started = Instant::now();
    let workload = r.span("apps.build", "", id, |_| spec.build(cell.scale));
    let result = if is_baseline(cell) {
        r.span("core.baseline", "", id, |_| {
            catch_unwind(AssertUnwindSafe(|| sequential_baseline(workload.as_ref())))
        })
    } else {
        let mut builder = SimBuilder::new(cell.protocol)
            .procs(cell.procs)
            .sc_block(cell.sc_block.unwrap_or(spec.sc_block))
            .home_policy(cell.homes)
            .workers(workers.clone());
        if cell.protocol != Protocol::Ideal {
            builder = builder.comm(cell.comm.params()).proto(cell.proto.costs());
        }
        if cell.has_faults() {
            builder = builder.faults(FaultSpec::at(cell.fault_rate_ppm, cell.fault_seed));
        }
        r.span("core.run", cell.protocol.label(), id, |_| {
            catch_unwind(AssertUnwindSafe(|| builder.run(workload.as_ref())))
        })
    };
    let result = result.map_err(panic_message)?;
    let host_ms = started.elapsed().as_millis() as u64;
    let record = r.span("sweep.record", "", id, |_| {
        CellRecord::from_run(cell.clone(), &result, host_ms)
    });
    r.span("sweep.store_append", "", id, |_| {
        match store.lock().expect("store lock poisoned").as_mut() {
            Some(s) => s.append(record.clone()),
            None => Ok(()),
        }
    })
    .map_err(|e| format!("cache append failed: {e}"))?;
    Ok(record)
}

/// Encodes every record to its cache line and decodes it back, one span
/// each, outside any timed pass. Returns the spans and the labels of
/// records that did not survive the round trip.
pub fn codec_probe(
    cells: &[Cell],
    results: &[Result<CellRecord, String>],
    epoch: Instant,
    thread: u64,
) -> (Vec<Span>, Vec<String>) {
    let mut r = Recorder::new(thread, epoch, None);
    let mut broken = Vec::new();
    r.span("sweep.codec_probe", "", None, |r| {
        for (i, rec) in results.iter().enumerate() {
            let Ok(rec) = rec else { continue };
            let id = Some(i as u32);
            let line = r.span("sweep.record_encode", "", id, |_| rec.to_json().render());
            let back = r.span("sweep.record_decode", "", id, |_| {
                Json::parse(&line).and_then(|j| CellRecord::from_json(&j))
            });
            if back.as_ref() != Ok(rec) {
                broken.push(cells[i].label());
            }
        }
    });
    (r.into_spans(), broken)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "panic with non-string payload".to_string()
    }
}
