//! Pooled workers exit once their `WorkerSet` is gone.
//!
//! Linux only (threads are counted in `/proc`), and one test per binary
//! on purpose: the count covers every pooled worker of the process, so no
//! other test may spawn workers while this one counts.
#![cfg(target_os = "linux")]

use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use ssm_engine::{Completion, WorkerSet, WORKER_THREAD_PREFIX};

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
fn workers_exit_when_their_set_is_gone() {
    assert_eq!(live_worker_threads(), 0);

    // Three parked workers: three jobs held at a gate force three spawns.
    let set = WorkerSet::new();
    let (done_tx, done_rx) = channel::<()>();
    let gates: Vec<_> = (0..3)
        .map(|_| {
            let (gate_tx, gate_rx) = channel::<()>();
            let done = done_tx.clone();
            set.submit(Box::new(move || -> Completion {
                let _ = gate_rx.recv();
                Box::new(move || {
                    let _ = done.send(());
                })
            }));
            gate_tx
        })
        .collect();
    for gate in &gates {
        gate.send(()).expect("worker waiting at its gate");
    }
    for _ in 0..3 {
        done_rx.recv().expect("job completed");
    }
    assert_eq!(set.idle_count(), 3);
    assert_eq!(live_worker_threads(), 3);
    drop(set);
    assert!(settles_at(0), "parked workers exit when the set drops");

    // A worker abandoned mid-job (as a timed-out sweep cell leaves it)
    // outlives its set only until the job ends, also when the job itself
    // holds the last handle to the set.
    for job_holds_the_set in [false, true] {
        let set = WorkerSet::new();
        let held = job_holds_the_set.then(|| set.clone());
        let (gate_tx, gate_rx) = channel::<()>();
        set.submit(Box::new(move || -> Completion {
            let _ = gate_rx.recv();
            drop(held);
            Box::new(|| {})
        }));
        drop(set);
        // (A new thread names itself, so wait for the name to show.)
        assert!(settles_at(1), "the busy worker outlives its set");
        gate_tx.send(()).expect("worker waiting at its gate");
        assert!(settles_at(0), "the abandoned worker exits after its job");
    }
}
