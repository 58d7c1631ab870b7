//! A sweep's pooled workers exit when `Sweep::run` returns, and a sweep
//! starts no OS thread per simulated processor.
//!
//! Linux only (threads are counted in `/proc`), and one test per binary
//! on purpose: the count covers every pooled worker of the process, so no
//! other test may spawn workers while this one counts.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use ssm_apps::catalog::Scale;
use ssm_core::{LayerConfig, Protocol};
use ssm_engine::WORKER_THREAD_PREFIX;
use ssm_sweep::{Cell, CellStatus, Sweep, SweepOpts};

const PROCS: usize = 16;
const JOBS: usize = 2;

/// Pooled worker threads alive in this process: tasks whose name carries
/// the worker prefix. A thread leaves `/proc/self/task` once it has exited.
fn live_worker_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with(WORKER_THREAD_PREFIX))
        .count()
}

/// Waits up to ten seconds for the live-worker count to reach `n`.
fn settles_at(n: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if live_worker_threads() == n {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

#[test]
fn sweep_workers_exit_after_the_run() {
    assert_eq!(live_worker_threads(), 0);
    let cells: Vec<Cell> = [
        "FFT",
        "LU-Contiguous",
        "Ocean-Contiguous",
        "Barnes-original",
    ]
    .iter()
    .flat_map(|app| {
        [Protocol::Hlrc, Protocol::Sc].map(|p| {
            Cell::new(
                app,
                p,
                LayerConfig::parse("AO").expect("AO preset"),
                PROCS,
                Scale::Test,
            )
        })
    })
    .collect();
    let run = Sweep::enumerate(&cells)
        .options(SweepOpts {
            jobs: JOBS,
            cache: false,
            progress: false,
            summary: false,
            ..SweepOpts::default()
        })
        .run();
    for o in &run.outcomes {
        assert!(matches!(o.status, CellStatus::Done(_)), "{:?}", o.status);
    }
    let live = live_worker_threads();
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        // Simulated processors are fibers on the guard workers' own
        // threads: the sweep never had more workers than jobs.
        assert!(live <= JOBS, "{live} workers outlived a {JOBS}-job sweep");
    }
    drop(run);
    assert!(
        settles_at(0),
        "{} sweep workers never exited",
        live_worker_threads()
    );
}
