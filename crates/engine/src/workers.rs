//! A reusable pool of OS worker threads and fiber stacks.
//!
//! Spawning an OS thread per simulated processor per simulation is the
//! dominant setup cost of small sweep cells: a test-scale cell finishes in
//! milliseconds, but pays for `nprocs` thread spawns and joins every time.
//! A [`WorkerSet`] keeps workers parked between jobs so consecutive
//! simulations (and retry attempts) reuse the same OS threads. On x86_64
//! Linux, where simulated processors are fibers rather than threads, the
//! set parks their mapped stacks in the same way (see
//! `crate::threads::coro`); its OS workers then run only the callers' own
//! jobs, such as a sweep's per-cell guards.
//!
//! A job runs to completion on one worker and then hands back a
//! *completion* closure. The worker re-registers itself as idle **before**
//! running the completion — so by the time the submitter observes the
//! job's result (the completion is how results are delivered), the worker
//! is already available for reuse. This ordering is what makes "zero fresh
//! spawns on the next simulation" deterministic rather than a race.
//!
//! Workers are detached. A parked worker's job channel has exactly one
//! sender, and it sits on the set's idle list; a busy worker carries it
//! (it arrived with the job) until it re-parks. So when the last
//! [`WorkerSet`] handle drops, the idle workers' channels close and the
//! threads exit on their own. A worker abandoned mid-job (e.g. a timed-out
//! sweep cell) is simply unavailable until its job finishes, after which
//! it re-idles, or exits if the set is gone. Parked stacks are unmapped
//! with the set.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, Weak};

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use crate::fiber::Stack;

/// What a worker runs: the job body, returning the completion closure the
/// worker invokes after re-parking itself.
pub type Job = Box<dyn FnOnce() -> Completion + Send + 'static>;

/// Delivered after the worker is back on the idle list.
pub type Completion = Box<dyn FnOnce() + Send + 'static>;

/// Thread-name prefix of pooled workers (`ssm-worker-<n>`).
pub const WORKER_THREAD_PREFIX: &str = "ssm-worker-";

/// A job together with the worker's own job sender, which the worker puts
/// back on the idle list when it re-parks.
struct Lease {
    job: Job,
    tx: Sender<Lease>,
}

struct Inner {
    idle: Mutex<Vec<Sender<Lease>>>,
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    stacks: Mutex<Vec<Stack>>,
    stack_size: usize,
}

/// A shared, recyclable set of OS worker threads (and, on x86_64 Linux,
/// fiber stacks).
///
/// Cloning is cheap (`Arc` inside); all clones feed the same idle list.
#[derive(Clone)]
pub struct WorkerSet {
    inner: Arc<Inner>,
}

impl WorkerSet {
    /// Creates an empty set. Workers get an 8 MiB stack (recursive
    /// applications such as Barnes-Hut need more than the platform default
    /// for spawned threads).
    pub fn new() -> Self {
        WorkerSet {
            inner: Arc::new(Inner {
                idle: Mutex::new(Vec::new()),
                #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
                stacks: Mutex::new(Vec::new()),
                stack_size: 8 << 20,
            }),
        }
    }

    /// Number of workers currently parked and available.
    pub fn idle_count(&self) -> usize {
        self.inner.idle.lock().expect("idle list").len()
    }

    /// Runs `job` on an idle worker, spawning a fresh one only if none is
    /// parked. Returns `true` if an existing worker was reused.
    pub fn submit(&self, job: Job) -> bool {
        // A parked worker never exits while its sender is on the idle list,
        // but stay defensive and fall through to a fresh spawn on send
        // failure.
        let mut job = job;
        loop {
            let recycled = self.inner.idle.lock().expect("idle list").pop();
            match recycled {
                Some(tx) => match tx.send(Lease {
                    job,
                    tx: tx.clone(),
                }) {
                    Ok(()) => return true,
                    Err(err) => job = err.0.job,
                },
                None => break,
            }
        }
        self.spawn_worker(job);
        false
    }

    /// Takes a parked fiber stack, if any.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    pub(crate) fn take_stack(&self) -> Option<Stack> {
        self.inner.stacks.lock().expect("stack list").pop()
    }

    /// Parks a fiber stack for the next pool.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    pub(crate) fn put_stack(&self, stack: Stack) {
        // Called from `Drop`: a poisoned list is still a valid list.
        let mut stacks = self.inner.stacks.lock().unwrap_or_else(|e| e.into_inner());
        stacks.push(stack);
    }

    fn spawn_worker(&self, first_job: Job) {
        static WORKER_SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = WORKER_SEQ.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::<Lease>();
        let weak: Weak<Inner> = Arc::downgrade(&self.inner);
        std::thread::Builder::new()
            .name(format!("{WORKER_THREAD_PREFIX}{seq}"))
            .stack_size(self.inner.stack_size)
            .spawn(move || {
                let mut next = Some(Lease { job: first_job, tx });
                // Parked: the only sender is on the idle list, so `recv`
                // fails once the set is gone.
                while let Some(Lease { job, tx }) = next.take().or_else(|| rx.recv().ok()) {
                    let completion = catch_unwind(AssertUnwindSafe(job));
                    // Re-park *before* delivering the result, so observers
                    // of the completion can immediately reuse this worker.
                    // With the set gone, drop the sender and exit after
                    // delivering.
                    let parked = match weak.upgrade() {
                        Some(inner) => {
                            inner.idle.lock().expect("idle list").push(tx);
                            true
                        }
                        None => false,
                    };
                    if let Ok(done) = completion {
                        done();
                    }
                    if !parked {
                        return;
                    }
                }
            })
            .expect("failed to spawn pooled worker thread");
    }
}

impl Default for WorkerSet {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WorkerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerSet")
            .field("idle", &self.idle_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel as result_channel;

    fn run_on(set: &WorkerSet, value: u32) -> (bool, u32) {
        let (tx, rx) = result_channel();
        let reused = set.submit(Box::new(move || {
            let out = value * 2;
            Box::new(move || {
                let _ = tx.send(out);
            })
        }));
        (reused, rx.recv().expect("job result"))
    }

    #[test]
    fn first_job_spawns_then_reuses() {
        let set = WorkerSet::new();
        let (reused, out) = run_on(&set, 1);
        assert!(!reused);
        assert_eq!(out, 2);
        // The completion fired after re-parking, so reuse is guaranteed.
        for i in 2..5 {
            let (reused, out) = run_on(&set, i);
            assert!(reused, "job {i} should reuse the parked worker");
            assert_eq!(out, i * 2);
        }
        assert_eq!(set.idle_count(), 1);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let set = WorkerSet::new();
        // A panic in the job body is caught by the worker loop; the thread
        // re-parks (with no completion delivered).
        let reused = set.submit(Box::new(|| -> Completion { panic!("job exploded") }));
        assert!(!reused);
        // Wait for the worker to re-park, then reuse it.
        for _ in 0..500 {
            if set.idle_count() == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let (reused, out) = run_on(&set, 21);
        assert!(reused, "worker should survive a panicking job");
        assert_eq!(out, 42);
    }

    #[test]
    fn concurrent_submits_get_distinct_workers() {
        let set = WorkerSet::new();
        let (gate_tx, gate_rx) = result_channel::<()>();
        let (done_tx, done_rx) = result_channel::<()>();
        // First job blocks until released, so the second must spawn fresh.
        let dt = done_tx.clone();
        set.submit(Box::new(move || {
            gate_rx.recv().expect("gate");
            Box::new(move || {
                let _ = dt.send(());
            })
        }));
        let reused = set.submit(Box::new(move || {
            Box::new(move || {
                let _ = done_tx.send(());
            })
        }));
        assert!(!reused, "busy worker must not be handed a second job");
        gate_tx.send(()).expect("release");
        done_rx.recv().expect("first done");
        done_rx.recv().expect("second done");
    }
}
