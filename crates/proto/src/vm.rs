//! The programming-model API that application code runs against.
//!
//! Applications are ordinary Rust functions that receive a [`Proc`] — the
//! handle for "this simulated processor". Every shared-memory access, lock,
//! barrier and block of computation goes through it; each call may hand the
//! baton to the simulator (see `ssm-engine::threads`).
//!
//! `compute` calls are *accumulated* locally and flushed on the next real
//! operation, so tight loops that interleave arithmetic with shared reads
//! cost only one baton handover per shared access.
//!
//! With a [`crate::HintBoard`] installed ([`Proc::batched`]), the handle
//! goes further: operations that the hints predict will complete locally —
//! `Compute` blocks, reads/writes of pages whose last access sent no
//! messages, and lock releases — are *buffered* and handed to the
//! simulator as one batch ([`ssm_engine::Yielder::yield_batch`]). The
//! driver replays the batch one operation per scheduling step, in issue
//! order, so simulated results are byte-identical to the unbatched run
//! (see `hint.rs` for why hint accuracy cannot affect results). A batch
//! is flushed — one baton handoff — when:
//!
//! * a **sync** operation is issued (`Lock`, `Barrier`): the thread must
//!   block until the simulator grants it ([`Flush::Sync`]);
//! * a read/write **misses** in the hints: the thread blocks so the hint
//!   is fresh when it resumes ([`Flush::Miss`]);
//! * the batch reaches [`BATCH_CAP`] operations ([`Flush::Cap`]);
//! * the thread body returns ([`Flush::End`]).

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use ssm_engine::Yielder;

use crate::hint::HintBoard;
use crate::shmem::{BarrierId, LockId};

/// An operation yielded by an application thread to the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The processor computes for `c` cycles (1-IPC model: `c` instructions).
    Compute(u64),
    /// Read `bytes` bytes at `addr` in the shared address space.
    Read { addr: u64, bytes: u64 },
    /// Write `bytes` bytes at `addr` in the shared address space.
    Write { addr: u64, bytes: u64 },
    /// Acquire a lock.
    Lock(LockId),
    /// Release a lock.
    Unlock(LockId),
    /// Enter a barrier episode.
    Barrier(BarrierId),
}

/// Most operations a batch may hold before it is handed over anyway —
/// bounds both the driver's queue memory and how far a thread can run
/// ahead of simulated time.
pub const BATCH_CAP: usize = 256;

/// Why a batch was handed over: the tag of its
/// [`ssm_engine::Resumed::Batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// A sync operation (`Lock`/`Barrier`) ended the run.
    Sync,
    /// A read/write missed in the locality hints.
    Miss,
    /// The batch reached [`BATCH_CAP`] operations.
    Cap,
    /// The thread body returned.
    End,
}

/// Batching state, present only when the driver installs a hint board.
struct BatchState {
    ops: RefCell<Vec<Op>>,
    board: Arc<HintBoard>,
}

/// The per-processor handle passed to application code.
pub struct Proc<'a> {
    y: &'a Yielder<Op, Flush>,
    pid: usize,
    nprocs: usize,
    pending: Cell<u64>,
    batch: Option<BatchState>,
}

impl<'a> Proc<'a> {
    /// Wraps a yielder; used by the simulation driver when spawning
    /// application threads. Every operation is one baton handoff.
    pub fn new(y: &'a Yielder<Op, Flush>, pid: usize, nprocs: usize) -> Self {
        Proc {
            y,
            pid,
            nprocs,
            pending: Cell::new(0),
            batch: None,
        }
    }

    /// Like [`Proc::new`], but accumulates hint-predicted-local operations
    /// into batches (see module docs). Simulated results are identical;
    /// only the number of baton handoffs changes.
    pub fn batched(
        y: &'a Yielder<Op, Flush>,
        pid: usize,
        nprocs: usize,
        board: Arc<HintBoard>,
    ) -> Self {
        Proc {
            y,
            pid,
            nprocs,
            pending: Cell::new(0),
            batch: Some(BatchState {
                ops: RefCell::new(Vec::new()),
                board,
            }),
        }
    }

    /// This processor's id, `0..nprocs`.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Number of processors in the run.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Charges `cycles` of computation (deferred until the next operation).
    pub fn compute(&self, cycles: u64) {
        self.pending.set(self.pending.get() + cycles);
    }

    /// Flushes deferred computation; called automatically before any other
    /// operation and by the driver when the thread body returns. In
    /// batching mode the `Compute` op joins the current batch instead of
    /// forcing a handoff.
    pub fn flush(&self) {
        let c = self.pending.replace(0);
        if c > 0 {
            match &self.batch {
                None => self.y.yield_op(Op::Compute(c)),
                Some(b) => self.buffer(b, Op::Compute(c)),
            }
        }
    }

    /// Buffers `op` into the current batch, handing it over if the cap is
    /// reached.
    fn buffer(&self, b: &BatchState, op: Op) {
        let mut ops = b.ops.borrow_mut();
        ops.push(op);
        if ops.len() >= BATCH_CAP {
            let batch = std::mem::take(&mut *ops);
            drop(ops);
            self.y.yield_batch(batch, Flush::Cap);
        }
    }

    /// Buffers `op` as the *last* operation of the current batch and hands
    /// the whole run over; the thread blocks until the simulator has
    /// replayed every buffered operation.
    fn seal(&self, b: &BatchState, op: Op, cause: Flush) {
        let mut batch = std::mem::take(&mut *b.ops.borrow_mut());
        batch.push(op);
        self.y.yield_batch(batch, cause);
    }

    /// Simulated shared-memory read of `[addr, addr+bytes)`.
    pub fn touch_read(&self, addr: u64, bytes: u64) {
        self.flush();
        let op = Op::Read { addr, bytes };
        match &self.batch {
            None => self.y.yield_op(op),
            Some(b) if b.board.predicts_read_hit(self.pid, addr, bytes) => self.buffer(b, op),
            Some(b) => self.seal(b, op, Flush::Miss),
        }
    }

    /// Simulated shared-memory write of `[addr, addr+bytes)`.
    pub fn touch_write(&self, addr: u64, bytes: u64) {
        self.flush();
        let op = Op::Write { addr, bytes };
        match &self.batch {
            None => self.y.yield_op(op),
            Some(b) if b.board.predicts_write_hit(self.pid, addr, bytes) => self.buffer(b, op),
            Some(b) => self.seal(b, op, Flush::Miss),
        }
    }

    /// Acquires `lock` (blocks in simulated time until granted).
    pub fn lock(&self, lock: LockId) {
        self.flush();
        let op = Op::Lock(lock);
        match &self.batch {
            None => self.y.yield_op(op),
            Some(b) => self.seal(b, op, Flush::Sync),
        }
    }

    /// Releases `lock`. Non-blocking, so in batching mode it joins the
    /// batch: the driver still replays it in issue order, before any
    /// waiter is granted the lock.
    pub fn unlock(&self, lock: LockId) {
        self.flush();
        let op = Op::Unlock(lock);
        match &self.batch {
            None => self.y.yield_op(op),
            Some(b) => self.buffer(b, op),
        }
    }

    /// Enters `barrier`; returns when all processors have arrived.
    pub fn barrier(&self, barrier: BarrierId) {
        self.flush();
        let op = Op::Barrier(barrier);
        match &self.batch {
            None => self.y.yield_op(op),
            Some(b) => self.seal(b, op, Flush::Sync),
        }
    }

    /// Hands over whatever remains buffered; called by the driver when the
    /// thread body returns. (Equivalent to [`Proc::flush`] when batching
    /// is off.)
    pub fn finish(&self) {
        self.flush();
        if let Some(b) = &self.batch {
            let batch = std::mem::take(&mut *b.ops.borrow_mut());
            if !batch.is_empty() {
                self.y.yield_batch(batch, Flush::End);
            }
        }
    }

    /// Convenience: run `f` under `lock`.
    pub fn with_lock<R>(&self, lock: LockId, f: impl FnOnce() -> R) -> R {
        self.lock(lock);
        let r = f();
        self.unlock(lock);
        r
    }
}

impl std::fmt::Debug for Proc<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proc")
            .field("pid", &self.pid)
            .field("nprocs", &self.nprocs)
            .field("pending_compute", &self.pending.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_engine::{Resumed, ThreadPool};

    #[test]
    fn compute_batches_until_flush() {
        let mut pool: ThreadPool<Op, Flush> = ThreadPool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 0, 1);
            p.compute(10);
            p.compute(5);
            p.touch_read(0, 4); // flush(15) then read
            p.compute(3);
            p.flush();
        });
        assert_eq!(pool.resume(t), Resumed::Op(Op::Compute(15)));
        assert_eq!(pool.resume(t), Resumed::Op(Op::Read { addr: 0, bytes: 4 }));
        assert_eq!(pool.resume(t), Resumed::Op(Op::Compute(3)));
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn lock_ops_in_order() {
        let mut pool: ThreadPool<Op, Flush> = ThreadPool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 2, 4);
            assert_eq!(p.pid(), 2);
            assert_eq!(p.nprocs(), 4);
            p.with_lock(LockId(7), || {});
            p.barrier(BarrierId(1));
        });
        assert_eq!(pool.resume(t), Resumed::Op(Op::Lock(LockId(7))));
        assert_eq!(pool.resume(t), Resumed::Op(Op::Unlock(LockId(7))));
        assert_eq!(pool.resume(t), Resumed::Op(Op::Barrier(BarrierId(1))));
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn zero_compute_is_elided() {
        let mut pool: ThreadPool<Op, Flush> = ThreadPool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 0, 1);
            p.compute(0);
            p.touch_write(8, 8);
        });
        assert_eq!(pool.resume(t), Resumed::Op(Op::Write { addr: 8, bytes: 8 }));
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn batched_proc_accumulates_predicted_hits() {
        let board = Arc::new(HintBoard::new(1, 1 << 16));
        board.observe_local(0, 0, crate::PAGE_SIZE, true); // page 0: read+write local
        let b = board.clone();
        let mut pool: ThreadPool<Op, Flush> = ThreadPool::new();
        let t = pool.spawn(move |y| {
            let p = Proc::batched(y, 0, 1, b);
            p.compute(10);
            p.touch_read(0, 4); // hit: buffered
            p.touch_write(8, 4); // hit: buffered
            p.touch_read(8192, 4); // page 2: no hint -> MISS seals the batch
            p.finish();
        });
        assert_eq!(
            pool.resume(t),
            Resumed::Batch(
                vec![
                    Op::Compute(10),
                    Op::Read { addr: 0, bytes: 4 },
                    Op::Write { addr: 8, bytes: 4 },
                    Op::Read {
                        addr: 8192,
                        bytes: 4
                    },
                ],
                Flush::Miss
            )
        );
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn sync_ops_seal_and_unlock_batches() {
        let board = Arc::new(HintBoard::new(1, 1 << 16));
        let b = board.clone();
        let mut pool: ThreadPool<Op, Flush> = ThreadPool::new();
        let t = pool.spawn(move |y| {
            let p = Proc::batched(y, 0, 1, b);
            p.compute(5);
            p.lock(LockId(1)); // sync: seals [Compute, Lock]
            p.compute(7);
            p.unlock(LockId(1)); // non-blocking: buffered
            p.barrier(BarrierId(0)); // sync: seals [Compute, Unlock, Barrier]
            p.compute(1);
            p.finish(); // END flush of the tail
        });
        assert_eq!(
            pool.resume(t),
            Resumed::Batch(vec![Op::Compute(5), Op::Lock(LockId(1))], Flush::Sync)
        );
        assert_eq!(
            pool.resume(t),
            Resumed::Batch(
                vec![
                    Op::Compute(7),
                    Op::Unlock(LockId(1)),
                    Op::Barrier(BarrierId(0)),
                ],
                Flush::Sync
            )
        );
        assert_eq!(
            pool.resume(t),
            Resumed::Batch(vec![Op::Compute(1)], Flush::End)
        );
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn cap_flushes_long_runs() {
        let board = Arc::new(HintBoard::new(1, 1 << 16));
        board.observe_local(0, 0, crate::PAGE_SIZE, false);
        let b = board.clone();
        let mut pool: ThreadPool<Op, Flush> = ThreadPool::new();
        let t = pool.spawn(move |y| {
            let p = Proc::batched(y, 0, 1, b);
            for _ in 0..BATCH_CAP + 1 {
                p.touch_read(0, 4);
            }
            p.finish();
        });
        match pool.resume(t) {
            Resumed::Batch(ops, cause) => {
                assert_eq!(ops.len(), BATCH_CAP);
                assert_eq!(cause, Flush::Cap);
            }
            other => panic!("expected CAP batch, got {other:?}"),
        }
        assert_eq!(
            pool.resume(t),
            Resumed::Batch(vec![Op::Read { addr: 0, bytes: 4 }], Flush::End)
        );
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn empty_finish_yields_nothing() {
        let board = Arc::new(HintBoard::new(1, 1 << 16));
        let b = board.clone();
        let mut pool: ThreadPool<Op, Flush> = ThreadPool::new();
        let t = pool.spawn(move |y| {
            let p = Proc::batched(y, 0, 1, b);
            p.finish();
        });
        assert_eq!(pool.resume(t), Resumed::Finished);
    }
}
