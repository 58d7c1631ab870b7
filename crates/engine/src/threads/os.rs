//! The OS-thread backend: every simulated processor is a pooled OS
//! thread, and a channel baton hands control back and forth.
//!
//! [`ThreadPool::resume`] sends a wake-up to the thread it advances and
//! blocks on the request channel; the thread runs until its next
//! [`Yielder::yield_op`]/[`Yielder::yield_batch`], which sends the request
//! and blocks on its wake-up channel. Each handoff therefore costs two OS
//! context switches. Threads are leased from a [`WorkerSet`], so
//! consecutive pools sharing one set recycle parked OS threads.
//!
//! This is the engine's backend on targets without the fiber switch, and
//! the reference the coroutine backend is tested against everywhere.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};

use super::{panic_text, Resumed, ThreadId};
use crate::workers::{Completion, WorkerSet};

enum Req<R, C> {
    Op(R),
    Batch(Vec<R>, C),
    Finished,
    Panicked(String),
}

/// Sentinel unwind payload used to silently cancel a parked thread when the
/// pool is dropped early (e.g. a test aborts a simulation midway).
struct Canceled;

/// The application-side handle: lets application code hand operations to the
/// simulator. One `Yielder` is passed to each spawned closure.
pub struct Yielder<R, C> {
    tid: ThreadId,
    resume_rx: Receiver<()>,
    req_tx: Sender<(ThreadId, Req<R, C>)>,
}

impl<R, C> Yielder<R, C> {
    /// This thread's id (equals its simulated processor number).
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// Hands `op` (and the baton) to the simulator; returns when the
    /// simulator resumes this thread.
    ///
    /// # Panics
    ///
    /// Unwinds (with a silent cancellation payload, caught by the pool's
    /// thread wrapper) if the pool was dropped.
    pub fn yield_op(&self, op: R) {
        self.hand_over(Req::Op(op));
    }

    /// Hands a whole batch of operations (and the baton) to the simulator
    /// in **one** exchange; returns when the simulator, having processed
    /// every operation of the batch, resumes this thread. `tag` travels
    /// with the batch untouched (see [`Resumed::Batch`]).
    ///
    /// # Panics
    ///
    /// As [`Yielder::yield_op`].
    pub fn yield_batch(&self, ops: Vec<R>, tag: C) {
        self.hand_over(Req::Batch(ops, tag));
    }

    fn hand_over(&self, req: Req<R, C>) {
        if self.req_tx.send((self.tid, req)).is_err() || self.resume_rx.recv().is_err() {
            panic::resume_unwind(Box::new(Canceled));
        }
    }
}

struct Slot {
    resume_tx: Sender<()>,
    finished: bool,
}

/// Tracks how many of this pool's jobs are still running on workers, so
/// `Drop` can quiesce before the pool's state goes away.
struct PendingJobs {
    count: Mutex<usize>,
    zero: Condvar,
}

impl PendingJobs {
    fn new() -> Arc<Self> {
        Arc::new(PendingJobs {
            count: Mutex::new(0),
            zero: Condvar::new(),
        })
    }

    fn inc(&self) {
        *self.count.lock().expect("pending jobs") += 1;
    }

    fn dec(&self) {
        let mut n = self.count.lock().expect("pending jobs");
        *n -= 1;
        if *n == 0 {
            self.zero.notify_all();
        }
    }

    fn wait_zero(&self) {
        let mut n = self.count.lock().expect("pending jobs");
        while *n > 0 {
            n = self.zero.wait(n).expect("pending jobs");
        }
    }
}

/// Owns the application threads and the baton.
///
/// # Example
///
/// ```rust
/// use ssm_engine::threads::os::ThreadPool;
/// use ssm_engine::Resumed;
///
/// let mut pool: ThreadPool<u32, u32> = ThreadPool::new();
/// let a = pool.spawn(|y| {
///     y.yield_op(1);
///     y.yield_batch(vec![2, 3], 7);
/// });
/// assert_eq!(pool.resume(a), Resumed::Op(1));
/// assert_eq!(pool.resume(a), Resumed::Batch(vec![2, 3], 7));
/// assert_eq!(pool.resume(a), Resumed::Finished);
/// ```
pub struct ThreadPool<R, C> {
    slots: Vec<Slot>,
    req_rx: Receiver<(ThreadId, Req<R, C>)>,
    req_tx: Sender<(ThreadId, Req<R, C>)>,
    workers: WorkerSet,
    pending: Arc<PendingJobs>,
    spawned: usize,
    reused: usize,
}

impl<R: Send + 'static, C: Send + 'static> ThreadPool<R, C> {
    /// Creates an empty pool with a private [`WorkerSet`]. Application
    /// threads get an 8 MiB stack (recursive applications such as
    /// Barnes-Hut need more than the platform default for spawned
    /// threads).
    pub fn new() -> Self {
        Self::with_workers(WorkerSet::new())
    }

    /// Creates an empty pool that leases its OS threads from `workers`, so
    /// consecutive pools sharing one set recycle parked threads instead of
    /// spawning.
    pub fn with_workers(workers: WorkerSet) -> Self {
        let (req_tx, req_rx) = channel();
        ThreadPool {
            slots: Vec::new(),
            req_rx,
            req_tx,
            workers,
            pending: PendingJobs::new(),
            spawned: 0,
            reused: 0,
        }
    }

    /// Spawns `f` parked: it will not execute until first resumed.
    pub fn spawn<F>(&mut self, f: F) -> ThreadId
    where
        F: FnOnce(&Yielder<R, C>) + Send + 'static,
    {
        let tid = ThreadId(self.slots.len());
        let (resume_tx, resume_rx) = channel();
        let yielder = Yielder {
            tid,
            resume_rx,
            req_tx: self.req_tx.clone(),
        };
        let req_tx = self.req_tx.clone();
        let pending = self.pending.clone();
        pending.inc();
        let job = Box::new(move || -> Completion {
            // Park until the first resume; a closed channel means the pool
            // is gone and the job just retires.
            if yielder.resume_rx.recv().is_err() {
                return Box::new(move || pending.dec());
            }
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&yielder)));
            let msg = match result {
                Ok(()) => Some(Req::Finished),
                // Silent cancellation: nobody is listening.
                Err(payload) if payload.is::<Canceled>() => None,
                Err(payload) => Some(Req::Panicked(panic_text(&*payload))),
            };
            let tid = yielder.tid;
            // The worker runs this *after* re-parking itself, so whoever
            // receives the message can immediately reuse the worker.
            Box::new(move || {
                if let Some(msg) = msg {
                    let _ = req_tx.send((tid, msg));
                }
                pending.dec();
            })
        });
        if self.workers.submit(job) {
            self.reused += 1;
        } else {
            self.spawned += 1;
        }
        self.slots.push(Slot {
            resume_tx,
            finished: false,
        });
        tid
    }

    /// Number of threads spawned so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no threads were spawned.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether `tid` has finished (its closure returned or panicked).
    pub fn is_finished(&self, tid: ThreadId) -> bool {
        self.slots[tid.0].finished
    }

    /// How many of this pool's threads required a fresh OS thread spawn,
    /// and how many reused a parked worker from the pool's [`WorkerSet`].
    pub fn thread_stats(&self) -> (usize, usize) {
        (self.spawned, self.reused)
    }

    /// Hands the baton to thread `tid` and blocks until it yields an
    /// operation (or a batch) or finishes.
    ///
    /// # Panics
    ///
    /// * if `tid` already finished,
    /// * if the application thread panicked — the panic message is rethrown
    ///   here, prefixed with the thread id.
    pub fn resume(&mut self, tid: ThreadId) -> Resumed<R, C> {
        let slot = &mut self.slots[tid.0];
        assert!(!slot.finished, "resumed finished thread {tid}");
        slot.resume_tx
            .send(())
            .expect("simulated thread disappeared without reporting");
        let (from, req) = self
            .req_rx
            .recv()
            .expect("simulated thread disappeared without reporting");
        debug_assert_eq!(from, tid, "baton protocol violated: wrong thread ran");
        match req {
            Req::Op(op) => Resumed::Op(op),
            Req::Batch(ops, tag) => Resumed::Batch(ops, tag),
            Req::Finished => {
                self.slots[tid.0].finished = true;
                Resumed::Finished
            }
            Req::Panicked(msg) => {
                self.slots[tid.0].finished = true;
                panic!("simulated thread {tid} panicked: {msg}")
            }
        }
    }
}

impl<R: Send + 'static, C: Send + 'static> Default for ThreadPool<R, C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R, C> Drop for ThreadPool<R, C> {
    fn drop(&mut self) {
        // Wake every parked thread with a closed channel so it cancels
        // itself, then wait for all of this pool's jobs to retire — after
        // that, every leased worker is back on the set's idle list and no
        // application code from this simulation is still running.
        for slot in &mut self.slots {
            // Dropping the sender closes the channel.
            let (dead_tx, _) = channel();
            slot.resume_tx = dead_tx;
        }
        self.pending.wait_zero();
    }
}

impl<R, C> std::fmt::Debug for ThreadPool<R, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.slots.len())
            .field(
                "finished",
                &self.slots.iter().filter(|s| s.finished).count(),
            )
            .field("spawned", &self.spawned)
            .field("reused", &self.reused)
            .finish()
    }
}
