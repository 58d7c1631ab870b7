//! Execution-driven application threads.
//!
//! The paper uses augmint to run real application code and intercept its
//! memory references. We achieve the same effect with a *baton* scheme:
//! every simulated processor's program runs as its own thread of control
//! with its own stack, but a strict handover protocol guarantees that at
//! most one of these threads — or the simulator itself — executes at any
//! instant:
//!
//! 1. the simulator calls [`ThreadPool::resume`] for the thread it wants to
//!    advance;
//! 2. the application thread runs until it performs a simulated operation
//!    (a shared read/write, a lock, a barrier, a block of computation),
//!    which calls [`Yielder::yield_op`]; that hands the operation — and the
//!    baton — back to the simulator and parks the thread;
//! 3. the simulator models the operation in simulated time and later resumes
//!    the thread again.
//!
//! Consequences:
//!
//! * the interleaving of application threads is chosen entirely by the
//!   simulator (by simulated time), so runs are **deterministic**;
//! * application code may freely share a single data store without
//!   synchronization, because real-time concurrency never happens (the
//!   `ssm-proto` crate relies on this for its shared-memory store).
//!
//! # Backends
//!
//! Two implementations of the same surface ([`ThreadPool`], [`Yielder`],
//! [`Resumed`], [`ThreadId`]) produce identical [`Resumed`] sequences:
//!
//! * [`coro`] (x86_64 Linux, the default there) — every thread is a
//!   stackful coroutine on the resuming OS thread. A handoff is a register
//!   swap; no simulated processor owns an OS thread.
//! * [`os`] (every target; the default elsewhere) — every thread is a
//!   pooled OS thread and the baton is a pair of channels, so a handoff
//!   costs two OS context switches. It is also the reference the
//!   coroutine backend is tested against.
//!
//! Both lease their execution contexts (stacks or OS threads) from a
//! [`WorkerSet`](crate::WorkerSet), so consecutive simulations reuse them,
//! and both accept **batched handoffs**: [`Yielder::yield_batch`] hands a
//! whole *run* of operations to the simulator in one exchange
//! ([`Resumed::Batch`]); the caller decides which operations may legally
//! be grouped (see `ssm-proto`'s batching `Proc` and `ssm-core`'s driver,
//! which replays a batch one operation per scheduling step, preserving
//! exact simulated order).
//!
//! Threads that return normally report [`Resumed::Finished`]; a panic inside
//! application code is captured and re-thrown in the simulator with the
//! thread's message, so test failures surface in the right place. Dropping
//! a pool cancels its parked threads: each unwinds from its pending yield,
//! running its destructors.

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub mod coro;
pub mod os;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use coro::{ThreadPool, Yielder};
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub use os::{ThreadPool, Yielder};

/// Identifies a thread within its [`ThreadPool`] (dense, starting at 0).
///
/// In this workspace thread `i` is simulated processor `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// What a resumed thread did with its time slice.
#[derive(Debug, PartialEq, Eq)]
pub enum Resumed<R> {
    /// The thread yielded a simulated operation and is parked again.
    Op(R),
    /// The thread yielded a whole run of operations in one handoff and is
    /// parked again. The `u32` tag is opaque to the engine: the yielding
    /// layer uses it to record *why* the run ended (sync, miss, cap, …).
    Batch(Vec<R>, u32),
    /// The thread's closure returned; it must not be resumed again.
    Finished,
}

/// The message of a caught panic: its `String` or `&str` payload.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

#[cfg(test)]
mod tests {
    use super::{Resumed, ThreadId};
    use crate::WorkerSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Counts its drops, to observe destructors of cancelled threads.
    struct DropCount(Arc<AtomicUsize>);

    impl Drop for DropCount {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// One step of a differential-test script.
    #[derive(Clone, Debug)]
    enum Step {
        Op(u32),
        Batch(Vec<u32>, u32),
        Panic(&'static str),
    }

    /// What the driver observed for one resume.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Resumed(Resumed<u32>),
        Panicked(String),
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        super::panic_text(&*payload)
    }

    /// Every test of this module, instantiated once per backend.
    macro_rules! backend_tests {
        ($name:ident, $backend:ident) => {
            mod $name {
                use super::*;
                use crate::threads::$backend::ThreadPool;

                #[test]
                fn single_thread_round_trip() {
                    let mut pool: ThreadPool<u32> = ThreadPool::new();
                    let t = pool.spawn(|y| {
                        for i in 0..5 {
                            y.yield_op(i);
                        }
                    });
                    for i in 0..5 {
                        assert_eq!(pool.resume(t), Resumed::Op(i));
                    }
                    assert_eq!(pool.resume(t), Resumed::Finished);
                    assert!(pool.is_finished(t));
                }

                #[test]
                fn batched_yield_round_trip() {
                    let mut pool: ThreadPool<u32> = ThreadPool::new();
                    let t = pool.spawn(|y| {
                        y.yield_batch(vec![1, 2, 3], 9);
                        y.yield_op(4);
                        y.yield_batch(Vec::new(), 0); // empty batches are legal
                    });
                    assert_eq!(pool.resume(t), Resumed::Batch(vec![1, 2, 3], 9));
                    assert_eq!(pool.resume(t), Resumed::Op(4));
                    assert_eq!(pool.resume(t), Resumed::Batch(Vec::new(), 0));
                    assert_eq!(pool.resume(t), Resumed::Finished);
                }

                #[test]
                fn interleaving_is_simulator_controlled() {
                    let mut pool: ThreadPool<(usize, u32)> = ThreadPool::new();
                    let a = pool.spawn(|y| {
                        for i in 0..3 {
                            y.yield_op((0, i));
                        }
                    });
                    let b = pool.spawn(|y| {
                        for i in 0..3 {
                            y.yield_op((1, i));
                        }
                    });
                    // Alternate; the observed order is exactly the resume order.
                    let mut seen = Vec::new();
                    for _ in 0..3 {
                        if let Resumed::Op(op) = pool.resume(a) {
                            seen.push(op);
                        }
                        if let Resumed::Op(op) = pool.resume(b) {
                            seen.push(op);
                        }
                    }
                    assert_eq!(seen, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
                }

                #[test]
                fn threads_share_state_without_locks() {
                    // Each thread reads, yields, then writes when next
                    // resumed; resuming each to completion in turn leaves
                    // no overlapping windows, so no update is lost.
                    let counter = Arc::new(AtomicUsize::new(0));
                    let mut pool: ThreadPool<()> = ThreadPool::new();
                    let mut tids = Vec::new();
                    for _ in 0..4 {
                        let c = counter.clone();
                        tids.push(pool.spawn(move |y| {
                            for _ in 0..10 {
                                let v = c.load(Ordering::Relaxed);
                                y.yield_op(());
                                c.store(v + 1, Ordering::Relaxed);
                            }
                        }));
                    }
                    for &t in &tids {
                        while pool.resume(t) != Resumed::Finished {}
                    }
                    assert_eq!(counter.load(Ordering::Relaxed), 40);
                }

                #[test]
                fn pools_sharing_a_worker_set_recycle_threads() {
                    let workers = WorkerSet::new();
                    let run_one = |ws: &WorkerSet| {
                        let mut pool: ThreadPool<u32> = ThreadPool::with_workers(ws.clone());
                        let tids: Vec<ThreadId> =
                            (0..3).map(|i| pool.spawn(move |y| y.yield_op(i))).collect();
                        for &t in &tids {
                            let _ = pool.resume(t);
                            assert_eq!(pool.resume(t), Resumed::Finished);
                        }
                        pool.thread_stats()
                    };
                    assert_eq!(run_one(&workers), (3, 0), "cold set spawns every thread");
                    assert_eq!(run_one(&workers), (0, 3), "warm set spawns none");
                    assert_eq!(run_one(&workers), (0, 3), "and stays warm");
                }

                #[test]
                fn canceled_threads_return_to_the_worker_set() {
                    let workers = WorkerSet::new();
                    {
                        let mut pool: ThreadPool<()> = ThreadPool::with_workers(workers.clone());
                        let t = pool.spawn(|y| {
                            y.yield_op(());
                            y.yield_op(());
                        });
                        let _ = pool.resume(t);
                        // Dropped mid-simulation: the parked thread cancels
                        // and its context goes back to the set.
                    }
                    let mut pool: ThreadPool<()> = ThreadPool::with_workers(workers);
                    let t = pool.spawn(|y| y.yield_op(()));
                    let _ = pool.resume(t);
                    assert_eq!(pool.resume(t), Resumed::Finished);
                    assert_eq!(pool.thread_stats(), (0, 1), "canceled context was reused");
                }

                #[test]
                fn dropping_mid_simulation_runs_parked_destructors() {
                    let workers = WorkerSet::new();
                    let drops = Arc::new(AtomicUsize::new(0));
                    {
                        let mut pool: ThreadPool<u32> = ThreadPool::with_workers(workers.clone());
                        for i in 0..4 {
                            let guard = DropCount(drops.clone());
                            pool.spawn(move |y| {
                                let guard = guard;
                                let _on_stack = DropCount(guard.0.clone());
                                for k in 0.. {
                                    y.yield_op(i * 100 + k);
                                }
                            });
                        }
                        // T0 and T1 are parked mid-program, T2 ran to its
                        // first yield, T3 never started.
                        for t in 0..3 {
                            assert_eq!(pool.resume(ThreadId(t)), Resumed::Op(t as u32 * 100));
                        }
                        assert_eq!(pool.resume(ThreadId(0)), Resumed::Op(1));
                        assert_eq!(drops.load(Ordering::SeqCst), 0);
                    }
                    // Three started threads drop two guards each, the
                    // unstarted one only its captured guard.
                    assert_eq!(drops.load(Ordering::SeqCst), 3 * 2 + 1);
                    let mut pool: ThreadPool<()> = ThreadPool::with_workers(workers);
                    for _ in 0..4 {
                        pool.spawn(|_| {});
                    }
                    assert_eq!(pool.thread_stats(), (0, 4), "every context was returned");
                }

                #[test]
                #[should_panic(expected = "simulated thread T0 panicked: boom")]
                fn app_panic_propagates() {
                    let mut pool: ThreadPool<()> = ThreadPool::new();
                    let t = pool.spawn(|y| {
                        y.yield_op(());
                        panic!("boom");
                    });
                    let _ = pool.resume(t);
                    let _ = pool.resume(t);
                }

                #[test]
                fn driver_panic_with_parked_threads_reraises_the_original() {
                    let drops = Arc::new(AtomicUsize::new(0));
                    let d = drops.clone();
                    let caught = catch_unwind(AssertUnwindSafe(move || {
                        let mut pool: ThreadPool<()> = ThreadPool::new();
                        for _ in 0..3 {
                            let guard = DropCount(d.clone());
                            let t = pool.spawn(move |y| {
                                let _guard = guard;
                                loop {
                                    y.yield_op(());
                                }
                            });
                            let _ = pool.resume(t);
                        }
                        panic!("driver gave up");
                    }));
                    let msg = panic_message(caught.expect_err("the driver panicked"));
                    assert_eq!(msg, "driver gave up");
                    assert_eq!(drops.load(Ordering::SeqCst), 3, "parked threads unwound");
                }

                #[test]
                fn drop_with_parked_threads_does_not_hang() {
                    let mut pool: ThreadPool<()> = ThreadPool::new();
                    let t = pool.spawn(|y| {
                        y.yield_op(());
                        y.yield_op(());
                    });
                    let _ = pool.resume(t);
                    drop(pool); // thread is parked inside the first yield: must not hang
                }

                #[test]
                fn spawn_does_not_run_until_resumed() {
                    use std::sync::atomic::AtomicBool;
                    let ran = Arc::new(AtomicBool::new(false));
                    let r = ran.clone();
                    let mut pool: ThreadPool<()> = ThreadPool::new();
                    let t = pool.spawn(move |_| {
                        r.store(true, Ordering::SeqCst);
                    });
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    assert!(!ran.load(Ordering::SeqCst));
                    assert_eq!(pool.resume(t), Resumed::Finished);
                    assert!(ran.load(Ordering::SeqCst));
                }

                /// Runs `scripts` (one per thread), resuming in `schedule`
                /// order and skipping threads that already ended; drops
                /// the pool after `stop_after` resumes. Returns what the
                /// driver saw and how many closures were dropped.
                pub(super) fn run_script(
                    scripts: &[Vec<Step>],
                    schedule: &[usize],
                    stop_after: usize,
                ) -> (Vec<(usize, Seen)>, usize) {
                    let drops = Arc::new(AtomicUsize::new(0));
                    let mut seen = Vec::new();
                    let mut pool: ThreadPool<u32> = ThreadPool::new();
                    for script in scripts {
                        let script = script.clone();
                        let guard = DropCount(drops.clone());
                        pool.spawn(move |y| {
                            let _guard = guard;
                            for step in script {
                                match step {
                                    Step::Op(v) => y.yield_op(v),
                                    Step::Batch(ops, tag) => y.yield_batch(ops, tag),
                                    // Unwinds without the panic hook, which
                                    // would print from the OS backend's
                                    // worker threads.
                                    Step::Panic(msg) => {
                                        std::panic::resume_unwind(Box::new(msg.to_string()))
                                    }
                                }
                            }
                        });
                    }
                    let mut ended = vec![false; scripts.len()];
                    for &t in schedule {
                        if seen.len() == stop_after {
                            break;
                        }
                        if ended[t] {
                            continue;
                        }
                        let out = catch_unwind(AssertUnwindSafe(|| pool.resume(ThreadId(t))));
                        let out = match out {
                            Ok(r) => Seen::Resumed(r),
                            Err(p) => Seen::Panicked(panic_message(p)),
                        };
                        ended[t] =
                            matches!(out, Seen::Resumed(Resumed::Finished) | Seen::Panicked(_));
                        assert_eq!(pool.is_finished(ThreadId(t)), ended[t]);
                        seen.push((t, out));
                    }
                    drop(pool);
                    (seen, drops.load(Ordering::SeqCst))
                }
            }
        };
    }

    backend_tests!(os_backend, os);
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    backend_tests!(coro_backend, coro);

    /// A deterministic xorshift stream for the differential scripts.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut s = seed.max(1);
        move |n| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % n
        }
    }

    /// Random scripts of ops, tagged batches (empty ones included) and
    /// panics, on a random resume schedule that may stop early.
    fn scripted_case(seed: u64) -> (Vec<Vec<Step>>, Vec<usize>, usize) {
        let mut r = rng(seed);
        let threads = 1 + r(6) as usize;
        let scripts: Vec<Vec<Step>> = (0..threads)
            .map(|t| {
                let len = r(12) as usize;
                (0..len)
                    .map(|i| match r(10) {
                        0..=4 => Step::Op((t * 1000 + i) as u32),
                        5..=7 => Step::Batch(
                            (0..r(5) as u32).map(|k| k * 7 + i as u32).collect(),
                            r(4) as u32,
                        ),
                        8 => Step::Batch(Vec::new(), 3),
                        _ => Step::Panic(if t % 2 == 0 {
                            "even thread failed"
                        } else {
                            "odd thread failed"
                        }),
                    })
                    .collect()
            })
            .collect();
        let schedule: Vec<usize> = (0..threads * 16)
            .map(|_| r(threads as u64) as usize)
            .collect();
        let stop_after = if r(3) == 0 {
            r(threads as u64 * 8) as usize
        } else {
            usize::MAX
        };
        (scripts, schedule, stop_after)
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn backends_agree_on_scripted_runs() {
        for seed in 1..=200 {
            let (scripts, schedule, stop_after) = scripted_case(seed);
            let os = os_backend::run_script(&scripts, &schedule, stop_after);
            let coro = coro_backend::run_script(&scripts, &schedule, stop_after);
            assert_eq!(os, coro, "seed {seed}: backends diverged on {scripts:?}");
            assert_eq!(
                coro.1,
                scripts.len(),
                "seed {seed}: every closure dropped once"
            );
        }
    }
}
