//! The execution-driven simulation loop.
//!
//! The driver owns the [`Machine`], the protocol and the application
//! threads, and advances them in simulated-time order: at every step it
//! resumes the *ready* processor with the smallest clock, hands the
//! operation it yields to the protocol, and attributes the elapsed window
//! to the right time bucket.
//!
//! # Window accounting
//!
//! For every operation window `[t0, t1]` the protocol has already charged
//! some cycles to this processor's buckets (protocol work, cache stalls).
//! The driver charges the *remainder* `t1 - t0 - charged` to the
//! operation's designated bucket (data wait for reads/writes, lock wait for
//! lock operations, barrier wait for barriers). Handler service performed
//! for other nodes lands in this processor's Protocol bucket at the moment
//! it executes, so bucket sums track wall time closely (small deviations
//! can occur when a handler slips into an already-closed window; the
//! remainder rule saturates at zero).
//!
//! # Batched handoffs
//!
//! With batching enabled (the default), threads run against a
//! hint-carrying [`Proc`] that hands whole *runs* of operations to the
//! driver in one baton exchange. The driver keeps each received batch per
//! processor and replays it in place **one operation per scheduling
//! step**: a step either takes the batch's next operation or — only when
//! the batch is used up — resumes the thread for more. The operation
//! stream each processor feeds the protocol, and the order the scheduler
//! interleaves the processors, are therefore exactly those of an
//! unbatched run, and every simulated result is byte-identical; only the
//! handoff counters differ. Hints are learned here (an access that sent
//! zero messages marks its pages local for that processor) and revoked
//! by the machine on protocol invalidation.

use std::hint::select_unpredictable;
use std::sync::Arc;

use ssm_engine::{Cycles, Resumed, ThreadId, ThreadPool, WorkerSet};
use ssm_proto::{
    Flush, HintBoard, Machine, Op, Proc, Protocol as ProtocolTrait, Workload, World, WorldShape,
};
use ssm_stats::Bucket;

use crate::result::RunResult;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    Ready,
    Blocked {
        since: Cycles,
        bucket_total_before: u64,
        bucket: Bucket,
    },
    Done,
}

/// Runs `workload` under `protocol` on every processor of an
/// already-built [`Machine`] and returns the measured result.
///
/// `workers` recycles application-thread stacks (OS threads off x86_64
/// Linux) from a shared set instead of creating them per run; `batching`
/// accumulates hint-predicted-local operations into one baton handoff per
/// run (see [`ssm_proto::vm`]). Neither affects simulated results.
///
/// # Panics
///
/// * if the workload does not return exactly one thread body per
///   processor,
/// * on deadlock (every unfinished processor blocked — e.g. a barrier that
///   not all processors reach),
/// * if an application thread panics.
pub fn run_simulation(
    protocol: &mut dyn ProtocolTrait,
    workload: &dyn Workload,
    mut machine: Machine,
    workers: Option<WorkerSet>,
    batching: bool,
) -> RunResult {
    let nprocs = machine.nprocs();
    let mut world = World::new(workload.mem_bytes());
    let bodies = workload.spawn(&mut world, nprocs);
    assert_eq!(
        bodies.len(),
        nprocs,
        "workload must produce one thread body per processor"
    );
    let shape = WorldShape {
        heap_bytes: world.used().max(1),
        nlocks: world.lock_count() as usize,
        nbarriers: world.barrier_count() as usize,
    };
    protocol.init(&machine, &shape);

    let board = if batching {
        let board = Arc::new(HintBoard::new(nprocs, shape.heap_bytes));
        machine.set_hint_board(board.clone());
        Some(board)
    } else {
        None
    };

    let mut pool: ThreadPool<Op, Flush> = match workers {
        Some(ws) => ThreadPool::with_workers(ws),
        None => ThreadPool::new(),
    };
    for (pid, body) in bodies.into_iter().enumerate() {
        let board = board.clone();
        pool.spawn(move |y| {
            let proc = match board {
                Some(board) => Proc::batched(y, pid, nprocs, board),
                None => Proc::new(y, pid, nprocs),
            };
            body(&proc);
            proc.finish();
        });
    }

    let m = &mut machine;
    let mut state = vec![PState::Ready; nprocs];
    // The rest of the last batch each processor handed over, not yet
    // replayed: the received buffer and its cursor.
    let mut queued: Vec<std::vec::IntoIter<Op>> =
        (0..nprocs).map(|_| Vec::new().into_iter()).collect();
    let mut pick = Pick::new(&m.clock);
    let mut done = 0usize;
    while done < nprocs {
        let Some(p) = pick.next() else {
            let blocked: Vec<String> = (0..nprocs)
                .filter(|&q| !matches!(state[q], PState::Done))
                .map(|q| format!("P{q}@{}", m.clock[q]))
                .collect();
            panic!(
                "simulation deadlock in {}: all unfinished processors blocked: {}",
                workload.name(),
                blocked.join(", ")
            );
        };

        // One operation per step: replay from the processor's batch, and
        // only hand the baton over when the batch is used up.
        let next = match queued[p].next() {
            Some(op) => Some(op),
            None => {
                m.counters_mut(p).handoffs += 1;
                match pool.resume(ThreadId(p)) {
                    Resumed::Finished => None,
                    Resumed::Op(op) => Some(op),
                    Resumed::Batch(ops, cause) => {
                        let c = m.counters_mut(p);
                        c.ops_batched += ops.len() as u64;
                        match cause {
                            Flush::Sync => c.flush_sync += 1,
                            Flush::Miss => c.flush_miss += 1,
                            Flush::Cap => c.flush_cap += 1,
                            Flush::End => c.flush_end += 1,
                        }
                        queued[p] = ops.into_iter();
                        queued[p].next()
                    }
                }
            }
        };

        match next {
            None => {
                protocol.finished(m, p);
                state[p] = PState::Done;
                done += 1;
            }
            Some(op) => {
                m.counters_mut(p).sim_ops += 1;
                let t0 = m.clock[p];
                let before = m.breakdowns()[p].total();
                let msgs_before = m.counters()[p].messages;
                match op {
                    Op::Compute(c) => {
                        let (_, end) = m.occupy_cpu(p, t0, c);
                        m.charge(p, Bucket::Busy, c);
                        m.clock[p] = end;
                    }
                    Op::Read { addr, bytes } => {
                        let t = protocol.read(m, p, addr, bytes);
                        settle(m, p, t0, t, before, Bucket::DataWait);
                        observe(&board, m, p, msgs_before, addr, bytes, false);
                    }
                    Op::Write { addr, bytes } => {
                        let t = protocol.write(m, p, addr, bytes);
                        settle(m, p, t0, t, before, Bucket::DataWait);
                        observe(&board, m, p, msgs_before, addr, bytes, true);
                    }
                    Op::Lock(l) => match protocol.lock(m, p, l) {
                        Some(t) => settle(m, p, t0, t, before, Bucket::LockWait),
                        None => {
                            state[p] = PState::Blocked {
                                since: t0,
                                bucket_total_before: before,
                                bucket: Bucket::LockWait,
                            }
                        }
                    },
                    Op::Unlock(l) => {
                        let t = protocol.unlock(m, p, l);
                        settle(m, p, t0, t, before, Bucket::LockWait);
                    }
                    Op::Barrier(b) => match protocol.barrier(m, p, b) {
                        Some(t) => settle(m, p, t0, t, before, Bucket::BarrierWait),
                        None => {
                            state[p] = PState::Blocked {
                                since: t0,
                                bucket_total_before: before,
                                bucket: Bucket::BarrierWait,
                            }
                        }
                    },
                }
            }
        }
        pick.set(p, (state[p] == PState::Ready).then_some(m.clock[p]));

        // Deliver protocol wakeups (lock grants, barrier releases).
        for (q, t) in m.take_wakeups() {
            let PState::Blocked {
                since,
                bucket_total_before,
                bucket,
            } = state[q]
            else {
                panic!("protocol woke P{q}, which is not blocked");
            };
            settle(m, q, since, t, bucket_total_before, bucket);
            state[q] = PState::Ready;
            pick.set(q, Some(m.clock[q]));
        }
    }

    let total_cycles = m.clock.iter().copied().max().unwrap_or(0);
    let activity = m
        .activities()
        .iter()
        .fold(ssm_stats::ProtoActivity::default(), |a, b| a.merge(b));
    let counters = m
        .counters()
        .iter()
        .fold(ssm_stats::Counters::default(), |a, b| a.merge(b));
    let trace = m.take_trace();
    let (threads_spawned, threads_reused) = pool.thread_stats();
    RunResult {
        app: workload.name(),
        protocol: protocol.name().to_string(),
        nprocs,
        total_cycles,
        per_proc: m.breakdowns().to_vec(),
        activity,
        counters,
        verify_error: workload.verify().err(),
        trace,
        threads_spawned: threads_spawned as u64,
        threads_reused: threads_reused as u64,
    }
}

/// The scheduler's choice: the ready processor with the smallest
/// `(clock, pid)`, so ties break toward the lower pid (determinism).
///
/// The driver keeps one key per processor up to date through
/// [`Pick::set`]: its clock while it is ready, [`NOT_READY`] otherwise.
/// The pid is the key's index, not packed into it, so no two pairs can
/// share a key. A rescan is one pass over the keys in pid order, keeping
/// the smallest pair and the runner-up with selects, not branches: in that
/// order a later pair sorts first only on a strictly smaller clock.
///
/// The pick is cached with its *rival*, a lower bound on the other
/// processors' pairs, and reused while its own pair stays below the rival.
/// A step changes only the picked processor, so the cache usually
/// survives it; [`Pick::set`] lowers the rival when another processor's
/// pair drops below it (a pair that rises leaves the bound valid).
#[derive(Debug)]
struct Pick {
    keys: Vec<Cycles>,
    /// The last pick and its rival.
    cached: Option<(usize, (Cycles, usize))>,
}

/// The key of a processor that is blocked or done. No ready processor has
/// it: a clock that large would take 2^64 simulated cycles to reach.
const NOT_READY: Cycles = Cycles::MAX;

impl Pick {
    /// Every processor ready, at its clock in `clock`.
    fn new(clock: &[Cycles]) -> Self {
        Pick {
            keys: clock.to_vec(),
            cached: None,
        }
    }

    /// Records that processor `p` is ready at `clock`, or not ready
    /// (`None`). Call it after every change to `p`'s clock or readiness.
    fn set(&mut self, p: usize, clock: Option<Cycles>) {
        debug_assert!(
            clock != Some(NOT_READY),
            "P{p}'s clock reached the end of time"
        );
        let key = clock.unwrap_or(NOT_READY);
        self.keys[p] = key;
        if let Some((pick, rival)) = &mut self.cached {
            if *pick != p {
                *rival = (*rival).min((key, p));
            }
        }
    }

    /// The ready processor with the smallest `(clock, pid)`, or `None` if
    /// none is ready.
    fn next(&mut self) -> Option<usize> {
        if let Some((p, rival)) = self.cached {
            if (self.keys[p], p) < rival {
                return Some(p);
            }
        }
        let (mut best, mut rival) = ((NOT_READY, 0), (NOT_READY, 0));
        for (q, &key) in self.keys.iter().enumerate() {
            let lower = key < best.0;
            let second = select_unpredictable(key < rival.0, (key, q), rival);
            rival = select_unpredictable(lower, best, second);
            best = select_unpredictable(lower, (key, q), best);
        }
        self.cached = (best.0 != NOT_READY).then_some((best.1, rival));
        self.cached.map(|(p, _)| p)
    }
}

/// Hint learning: an access that completed without `p` sending a single
/// message is local; mark its pages so the thread-side `Proc` can batch
/// the next access. (Pure host-time policy — see `ssm-proto::hint`.)
fn observe(
    board: &Option<Arc<HintBoard>>,
    m: &Machine,
    p: usize,
    msgs_before: u64,
    addr: u64,
    bytes: u64,
    write: bool,
) {
    if let Some(board) = board {
        if m.counters()[p].messages == msgs_before {
            board.observe_local(p, addr, bytes, write);
        }
    }
}

/// The window rule: advances `p`'s clock to `t1` and charges to `bucket`
/// whatever part of `[t0, t1)` was not charged since the breakdown total
/// was `before`.
fn settle(m: &mut Machine, p: usize, t0: Cycles, t1: Cycles, before: u64, bucket: Bucket) {
    let t1 = t1.max(t0);
    let elapsed = t1 - t0;
    let charged = m.breakdowns()[p].total() - before;
    m.charge(p, bucket, elapsed.saturating_sub(charged));
    m.clock[p] = t1;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a tiny seeded generator.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The cached pick agrees with a full `(clock, pid)` scan on random
    /// runs of clock advances (often by zero, so clocks tie), blocks,
    /// wakeups, finishes and moves of other ready processors, on up to 64
    /// processors. Clocks start at 0 or at 2^60 and above, spread across
    /// a multiple of 2^48 or 2^63 or near `u64::MAX`, so a key that keeps
    /// fewer clock or pid bits aliases and fails.
    #[test]
    fn cached_pick_matches_full_scan() {
        #[derive(Clone, Copy, PartialEq)]
        enum S {
            Ready,
            Blocked,
            Done,
        }
        for seed in 0..400u64 {
            let mut rng = seed;
            let n = 1 + (splitmix(&mut rng) % 64) as usize;
            let base = match seed % 4 {
                0 => 0,
                1 => (1 << 60) + (1 << 48) - 1024,
                2 => (1 << 63) - 1024,
                _ => u64::MAX - (1 << 20),
            };
            let mut clock: Vec<Cycles> = (0..n).map(|_| base + splitmix(&mut rng) % 2048).collect();
            let mut state = vec![S::Ready; n];
            let mut pick = Pick::new(&clock);
            for step in 0..2_000 {
                let got = pick.next();
                let want = (0..n)
                    .filter(|&q| state[q] == S::Ready)
                    .min_by_key(|&q| (clock[q], q));
                assert_eq!(got, want, "seed {seed}, step {step}, clocks {clock:?}");
                let r = splitmix(&mut rng);
                if let Some(p) = got {
                    match r % 16 {
                        0 => state[p] = S::Blocked,
                        1 => state[p] = S::Done,
                        k => clock[p] += k % 3,
                    }
                    pick.set(p, (state[p] == S::Ready).then_some(clock[p]));
                }
                let blocked: Vec<usize> = (0..n).filter(|&q| state[q] == S::Blocked).collect();
                if !blocked.is_empty() && (got.is_none() || (r >> 8).is_multiple_of(4)) {
                    let q = blocked[(r >> 16) as usize % blocked.len()];
                    clock[q] += (r >> 32) % 4;
                    state[q] = S::Ready;
                    pick.set(q, Some(clock[q]));
                }
                // Another ready processor moves by -2..=2 cycles (the driver
                // never does this, but `set` allows it).
                let q = (r >> 40) as usize % n;
                if (r >> 12).is_multiple_of(8) && state[q] == S::Ready {
                    clock[q] = (clock[q] + (r >> 48) % 5).saturating_sub(2);
                    pick.set(q, Some(clock[q]));
                }
                if state.iter().all(|&s| s == S::Done) {
                    break;
                }
            }
        }
    }
}
