//! The coroutine backend: every simulated processor is a fiber on the
//! resuming thread.
//!
//! Each spawned closure runs on its own 8 MiB `fiber::Stack`, leased from the
//! pool's [`WorkerSet`]. [`ThreadPool::resume`] switches into the fiber on
//! the caller's OS thread; [`Yielder::yield_op`] and
//! [`Yielder::yield_batch`] leave the operation in a one-slot mailbox and
//! switch back. A handoff is a register swap, not two trips through the
//! OS scheduler, and no simulated processor owns an OS thread.
//!
//! The baton is structural here: only one fiber or the simulator can be
//! on the CPU, because they all share one OS thread.

use std::cell::Cell;
use std::rc::Rc;

use super::{panic_text, Resumed, ThreadId};
use crate::fiber::{Exit, Fiber, Stack, Suspender};
use crate::workers::WorkerSet;

/// What a suspended fiber leaves for [`ThreadPool::resume`].
type Mailbox<R, C> = Rc<Cell<Option<Resumed<R, C>>>>;

/// The application-side handle: lets application code hand operations to the
/// simulator. One `Yielder` is passed to each spawned closure.
pub struct Yielder<R, C> {
    tid: ThreadId,
    suspender: Suspender,
    mailbox: Mailbox<R, C>,
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
    /// Unwinds (with a silent cancellation payload, caught below the
    /// closure) if the pool is dropped while this thread is parked.
    pub fn yield_op(&self, op: R) {
        self.hand_over(Resumed::Op(op));
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
        self.hand_over(Resumed::Batch(ops, tag));
    }

    fn hand_over(&self, msg: Resumed<R, C>) {
        self.mailbox.set(Some(msg));
        self.suspender.suspend();
    }
}

struct Slot {
    fiber: Fiber,
    finished: bool,
}

/// Owns the application threads and the baton.
///
/// # Example
///
/// ```rust
/// use ssm_engine::{ThreadPool, Resumed};
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
    mailbox: Mailbox<R, C>,
    workers: WorkerSet,
    spawned: usize,
    reused: usize,
}

impl<R: Send + 'static, C: Send + 'static> ThreadPool<R, C> {
    /// Creates an empty pool with a private [`WorkerSet`]. Application
    /// threads get an 8 MiB stack (recursive applications such as
    /// Barnes-Hut need more than a small default).
    pub fn new() -> Self {
        Self::with_workers(WorkerSet::new())
    }

    /// Creates an empty pool that leases its stacks from `workers`, so
    /// consecutive pools sharing one set reuse mapped stacks instead of
    /// mapping fresh ones.
    pub fn with_workers(workers: WorkerSet) -> Self {
        ThreadPool {
            slots: Vec::new(),
            mailbox: Rc::new(Cell::new(None)),
            workers,
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
        let stack = match self.workers.take_stack() {
            Some(stack) => {
                self.reused += 1;
                stack
            }
            None => {
                self.spawned += 1;
                Stack::new()
            }
        };
        let mailbox = self.mailbox.clone();
        let fiber = Fiber::new(
            stack,
            Box::new(move |suspender| {
                f(&Yielder {
                    tid,
                    suspender,
                    mailbox,
                })
            }),
        );
        self.slots.push(Slot {
            fiber,
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

    /// How many of this pool's threads needed a freshly mapped stack, and
    /// how many reused one parked in the pool's [`WorkerSet`].
    pub fn thread_stats(&self) -> (usize, usize) {
        (self.spawned, self.reused)
    }

    /// Hands the baton to thread `tid` and runs it until it yields an
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
        match slot.fiber.resume() {
            Exit::Suspended => self
                .mailbox
                .take()
                .expect("baton protocol violated: thread parked without a request"),
            Exit::Returned(outcome) => {
                slot.finished = true;
                if let Err(payload) = outcome {
                    panic!("simulated thread {tid} panicked: {}", panic_text(&*payload));
                }
                Resumed::Finished
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
        // Cancel every parked thread (its closure unwinds from the pending
        // yield, running destructors on its own stack) and park the stacks
        // in the set for the next pool.
        for slot in self.slots.drain(..) {
            self.workers.put_stack(slot.fiber.into_stack());
        }
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
