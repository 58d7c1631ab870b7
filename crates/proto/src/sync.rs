//! The synchronization layer shared by every protocol: a FIFO lock table,
//! an episode-counting barrier table, and the [`SyncManager`] that places
//! each lock and barrier at a manager node and charges the messages of the
//! plain lock and barrier protocol.
//!
//! The tables hold *semantic* state only (who holds what, who waits). The
//! manager adds the message and cost pattern common to HLRC, SC and RDMA;
//! each protocol wraps it with its own consistency actions (release
//! flushes, write notices, ownership handoffs).

use ssm_engine::Cycles;

use crate::machine::{Activity, Machine};
use crate::protocol::WorldShape;
use crate::shmem::{BarrierId, LockId};

/// State of one lock.
#[derive(Debug, Clone, Default)]
struct LockState {
    holder: Option<usize>,
    waiters: Vec<usize>, // FIFO
}

/// A FIFO lock table covering `LockId(0)..LockId(n)`.
///
/// # Example
///
/// ```rust
/// use ssm_proto::{LockTable, LockId};
/// let mut t = LockTable::new(1);
/// assert!(t.acquire(LockId(0), 3));        // granted immediately
/// assert!(!t.acquire(LockId(0), 5));       // queued
/// assert_eq!(t.release(LockId(0), 3), Some(5)); // handed to the waiter
/// assert_eq!(t.release(LockId(0), 5), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    locks: Vec<LockState>,
}

impl LockTable {
    /// Creates a table of `n` free locks.
    pub fn new(n: usize) -> Self {
        LockTable {
            locks: vec![LockState::default(); n],
        }
    }

    /// Number of locks.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// Attempts to acquire for processor `p`. Returns `true` if granted
    /// immediately, `false` if `p` was queued.
    ///
    /// # Panics
    ///
    /// Panics if `p` already holds or already waits for the lock.
    pub fn acquire(&mut self, lock: LockId, p: usize) -> bool {
        let s = &mut self.locks[lock.0 as usize];
        assert_ne!(s.holder, Some(p), "recursive lock acquire by P{p}");
        assert!(!s.waiters.contains(&p), "duplicate lock wait by P{p}");
        if s.holder.is_none() {
            s.holder = Some(p);
            true
        } else {
            s.waiters.push(p);
            false
        }
    }

    /// Releases the lock held by `p`. Returns the next holder if a waiter
    /// was queued (the lock is handed over directly, FIFO).
    ///
    /// # Panics
    ///
    /// Panics if `p` does not hold the lock.
    pub fn release(&mut self, lock: LockId, p: usize) -> Option<usize> {
        let s = &mut self.locks[lock.0 as usize];
        assert_eq!(s.holder, Some(p), "P{p} released a lock it does not hold");
        if s.waiters.is_empty() {
            s.holder = None;
            None
        } else {
            let next = s.waiters.remove(0);
            s.holder = Some(next);
            Some(next)
        }
    }

    /// Current holder of `lock`, if any.
    pub fn holder(&self, lock: LockId) -> Option<usize> {
        self.locks[lock.0 as usize].holder
    }

    /// Number of processors queued on `lock`.
    pub fn waiters(&self, lock: LockId) -> usize {
        self.locks[lock.0 as usize].waiters.len()
    }
}

/// State of one barrier.
#[derive(Debug, Clone, Default)]
struct BarrierState {
    arrived: Vec<usize>,
    episode: u64,
}

/// An episode-counting barrier table covering `BarrierId(0)..BarrierId(n)`.
///
/// # Example
///
/// ```rust
/// use ssm_proto::{BarrierTable, BarrierId};
/// let mut t = BarrierTable::new(1, 2);
/// assert_eq!(t.arrive(BarrierId(0), 0), None);
/// assert_eq!(t.arrive(BarrierId(0), 1), Some(vec![0, 1]));
/// assert_eq!(t.episodes(BarrierId(0)), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BarrierTable {
    barriers: Vec<BarrierState>,
    nprocs: usize,
}

impl BarrierTable {
    /// Creates a table of `n` barriers for `nprocs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs == 0`.
    pub fn new(n: usize, nprocs: usize) -> Self {
        assert!(nprocs > 0);
        BarrierTable {
            barriers: vec![BarrierState::default(); n],
            nprocs,
        }
    }

    /// Number of barriers.
    pub fn len(&self) -> usize {
        self.barriers.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.barriers.is_empty()
    }

    /// Records `p`'s arrival. Returns `Some(arrival_order)` — every
    /// processor in arrival order — if `p` completed the episode (the
    /// barrier then resets for reuse), `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `p` arrives twice in one episode.
    pub fn arrive(&mut self, barrier: BarrierId, p: usize) -> Option<Vec<usize>> {
        let s = &mut self.barriers[barrier.0 as usize];
        assert!(
            !s.arrived.contains(&p),
            "P{p} arrived twice at barrier {barrier:?}"
        );
        s.arrived.push(p);
        if s.arrived.len() == self.nprocs {
            s.episode += 1;
            Some(std::mem::take(&mut s.arrived))
        } else {
            None
        }
    }

    /// How many processors are currently waiting at `barrier`.
    pub fn waiting(&self, barrier: BarrierId) -> usize {
        self.barriers[barrier.0 as usize].arrived.len()
    }

    /// Completed episodes of `barrier`.
    pub fn episodes(&self, barrier: BarrierId) -> u64 {
        self.barriers[barrier.0 as usize].episode
    }
}

/// The context a processor sends a message to a manager from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFrom {
    /// Application context: the send overhead counts as the operation's wait.
    App,
    /// Handler context: the send overhead is Protocol time.
    Handler,
}

/// A completed barrier episode, handed to the last arrival's protocol.
#[derive(Debug, PartialEq, Eq)]
pub struct Episode {
    /// The barrier's manager node.
    pub mgr: usize,
    /// When the manager has handled the latest arrival.
    start: Cycles,
    /// Every participant, in arrival order.
    procs: Vec<usize>,
}

impl Episode {
    /// Releases the episode for its last arrival `p`: `send(m, q, t)`
    /// releases `q` from a manager free at `t` and returns `(manager free
    /// again, q released)`. Wakes the other participants, counts one
    /// barrier for `p` and returns `p`'s completion.
    pub fn release(
        self,
        m: &mut Machine,
        p: usize,
        mut send: impl FnMut(&mut Machine, usize, Cycles) -> (Cycles, Cycles),
    ) -> Cycles {
        let (mut t_mgr, mut mine) = (self.start, self.start);
        for q in self.procs {
            let (free, t_q) = send(m, q, t_mgr);
            t_mgr = free;
            if q == p {
                mine = t_q;
            } else {
                m.wake(q, t_q);
            }
        }
        m.counters_mut(p).barriers += 1;
        mine
    }
}

/// The distributed lock manager and barrier manager. Lock and barrier `i`
/// live at node `i % nprocs`. Requests, release notices, arrivals, plain
/// grants and plain barrier releases are `ctrl_bytes` control messages
/// handled at their destination; a request to the local manager costs one
/// `handler_base`, a grant or release to it nothing.
#[derive(Debug, Default)]
pub struct SyncManager {
    nprocs: usize,
    ctrl_bytes: u64,
    locks: LockTable,
    barriers: BarrierTable,
    /// Per barrier: when the manager handled the episode's latest arrival.
    latest: Vec<Cycles>,
}

impl SyncManager {
    /// Creates the managers of `shape`'s locks and barriers.
    pub fn new(nprocs: usize, shape: &WorldShape, ctrl_bytes: u64) -> Self {
        SyncManager {
            nprocs,
            ctrl_bytes,
            locks: LockTable::new(shape.nlocks),
            barriers: BarrierTable::new(shape.nbarriers, nprocs),
            latest: vec![0; shape.nbarriers],
        }
    }

    /// Manager node of `lock`.
    pub fn lock_home(&self, lock: LockId) -> usize {
        lock.0 as usize % self.nprocs
    }

    /// Manager node of `barrier`.
    pub fn barrier_home(&self, barrier: BarrierId) -> usize {
        barrier.0 as usize % self.nprocs
    }

    /// Direct access to the lock table (test setup hook).
    pub fn locks_mut(&mut self) -> &mut LockTable {
        &mut self.locks
    }

    /// `p` requests `lock`: counts the acquire and sends the request.
    /// Returns when the manager handled it if the lock is granted at once
    /// (the protocol then grants it), `None` if `p` was queued.
    pub fn request(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Option<Cycles> {
        m.counters_mut(p).lock_acquires += 1;
        let now = m.clock[p];
        let (_, t_mgr) = self.to_manager(m, p, self.lock_home(lock), now, SendFrom::App);
        self.locks.acquire(lock, p).then_some(t_mgr)
    }

    /// The plain grant from `lock`'s manager, free at `t_mgr`, to `w`.
    /// Returns when `w` holds the lock.
    pub fn grant(&self, m: &mut Machine, lock: LockId, w: usize, t_mgr: Cycles) -> Cycles {
        self.control(m, self.lock_home(lock), w, t_mgr).1
    }

    /// `p` releases `lock` at `t`, sending the notice from `from`. Returns
    /// `p`'s completion and, if a waiter was queued, that next holder with
    /// when the manager handled the notice, for the protocol's grant.
    pub fn release(
        &mut self,
        m: &mut Machine,
        p: usize,
        lock: LockId,
        t: Cycles,
        from: SendFrom,
    ) -> (Cycles, Option<(usize, Cycles)>) {
        let (local, t_mgr) = self.to_manager(m, p, self.lock_home(lock), t, from);
        (local, self.locks.release(lock, p).map(|next| (next, t_mgr)))
    }

    /// `p` arrives at `barrier` at `t`. Returns the completed episode if
    /// `p` is the last arrival.
    pub fn arrive(
        &mut self,
        m: &mut Machine,
        p: usize,
        barrier: BarrierId,
        t: Cycles,
    ) -> Option<Episode> {
        let mgr = self.barrier_home(barrier);
        let (_, t_arr) = self.to_manager(m, p, mgr, t, SendFrom::App);
        let latest = &mut self.latest[barrier.0 as usize];
        *latest = (*latest).max(t_arr);
        let procs = self.barriers.arrive(barrier, p)?;
        let start = std::mem::take(&mut self.latest[barrier.0 as usize]);
        Some(Episode { mgr, start, procs })
    }

    /// The plain barrier release, one control message per participant.
    /// Returns the last arrival `p`'s completion.
    pub fn release_all(&self, m: &mut Machine, p: usize, episode: Episode) -> Cycles {
        let mgr = episode.mgr;
        episode.release(m, p, |m, q, t| self.control(m, mgr, q, t))
    }

    /// A control message from `p` at `t` to manager `mgr`. Returns `(p
    /// free, handled at mgr)`.
    fn to_manager(
        &self,
        m: &mut Machine,
        p: usize,
        mgr: usize,
        t: Cycles,
        from: SendFrom,
    ) -> (Cycles, Cycles) {
        if mgr == p {
            let t = m.proto_work(p, t, m.costs().handler_base, Activity::Handler);
            return (t, t);
        }
        let (local, arr) = match from {
            SendFrom::App => m.send_from_app(p, t, mgr, self.ctrl_bytes),
            SendFrom::Handler => m.send_from_handler(p, t, mgr, self.ctrl_bytes),
        };
        (local, m.handle_request(mgr, arr, 0))
    }

    /// A control message from manager `mgr` at `t` to `q`. Returns `(mgr
    /// free, handled at q)`.
    fn control(&self, m: &mut Machine, mgr: usize, q: usize, t: Cycles) -> (Cycles, Cycles) {
        if mgr == q {
            return (t, t);
        }
        let (local, arr) = m.send_from_handler(mgr, t, q, self.ctrl_bytes);
        (local, m.handle_request(q, arr, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::ProtoCosts;
    use ssm_mem::MemConfig;
    use ssm_net::CommParams;
    use ssm_stats::Bucket;

    fn machine(n: usize) -> Machine {
        Machine::new(
            n,
            CommParams::achievable(),
            ProtoCosts::original(),
            MemConfig::pentium_pro_like(),
        )
    }

    /// Two locks and one barrier over `n` processors, 32-byte messages.
    fn manager(n: usize) -> SyncManager {
        let shape = WorldShape {
            heap_bytes: 0,
            nlocks: 2,
            nbarriers: 1,
        };
        SyncManager::new(n, &shape, 32)
    }

    #[test]
    fn local_request_costs_one_handler_and_no_message() {
        let (mut m, mut s) = (machine(2), manager(2));
        m.clock[0] = 100;
        let hb = m.costs().handler_base;
        // LockId(0) is managed at node 0.
        assert_eq!(s.request(&mut m, 0, LockId(0)), Some(100 + hb));
        assert_eq!(m.counters()[0].messages, 0);
        assert_eq!(m.counters()[0].lock_acquires, 1);
        assert_eq!(m.breakdowns()[0].get(Bucket::Protocol), hb);
    }

    #[test]
    fn remote_request_costs_one_message_and_a_handler_at_the_manager() {
        let (mut m, mut s) = (machine(2), manager(2));
        // LockId(1) is managed at node 1.
        let t = s.request(&mut m, 0, LockId(1)).expect("free lock");
        let mut by_hand = machine(2);
        let (_, arr) = by_hand.send_from_app(0, 0, 1, 32);
        assert_eq!(t, by_hand.handle_request(1, arr, 0));
        assert_eq!((m.counters()[0].messages, m.counters()[0].bytes), (1, 32));
        // An application send: no Protocol time at the requester.
        assert_eq!(m.breakdowns()[0].get(Bucket::Protocol), 0);
        let handler = m.comm().msg_handling + m.costs().handler(0);
        assert_eq!(m.breakdowns()[1].get(Bucket::Protocol), handler);
    }

    #[test]
    fn release_returns_the_queued_waiter_and_the_manager_time() {
        let (mut m, mut s) = (machine(2), manager(2));
        assert!(s.request(&mut m, 1, LockId(1)).is_some());
        assert_eq!(s.request(&mut m, 0, LockId(1)), None);
        // The holder is the manager: the notice is one local handler.
        let t_mgr = 100_000 + m.costs().handler_base;
        let (local, next) = s.release(&mut m, 1, LockId(1), 100_000, SendFrom::App);
        assert_eq!((local, next), (t_mgr, Some((0, t_mgr))));
        assert_eq!(s.locks_mut().holder(LockId(1)), Some(0));
        assert_eq!(
            s.release(&mut m, 0, LockId(1), t_mgr, SendFrom::App).1,
            None
        );
    }

    #[test]
    fn only_the_last_arrival_gets_the_episode() {
        let (mut m, mut s) = (machine(3), manager(3));
        assert_eq!(s.arrive(&mut m, 1, BarrierId(0), 0), None);
        assert_eq!(s.arrive(&mut m, 2, BarrierId(0), 0), None);
        let ep = s.arrive(&mut m, 0, BarrierId(0), 0).expect("last arrival");
        assert_eq!((ep.mgr, ep.procs.clone()), (0, vec![1, 2, 0]));
        // The episode starts once the manager has handled every arrival.
        assert!(ep.start > m.costs().handler_base);
        // The barrier resets for the next episode.
        assert_eq!(s.arrive(&mut m, 0, BarrierId(0), ep.start), None);
    }

    #[test]
    fn plain_release_wakes_every_other_arrival_and_counts_one_barrier() {
        let (mut m, mut s) = (machine(3), manager(3));
        for p in [0, 2] {
            assert_eq!(s.arrive(&mut m, p, BarrierId(0), 0), None);
        }
        let ep = s.arrive(&mut m, 1, BarrierId(0), 0).expect("last arrival");
        let sent = m.counters()[0].messages;
        let start = ep.start;
        let done = s.release_all(&mut m, 1, ep);
        assert!(done > start);
        let mut woken: Vec<usize> = m.take_wakeups().iter().map(|&(q, _)| q).collect();
        woken.sort_unstable();
        assert_eq!(woken, vec![0, 2]);
        // The manager (node 0) messages each of the two other participants.
        assert_eq!(m.counters()[0].messages - sent, 2);
        let barriers: Vec<u64> = m.counters().iter().map(|c| c.barriers).collect();
        assert_eq!(barriers, vec![0, 1, 0]);
    }

    #[test]
    fn lock_fifo_handover() {
        let mut t = LockTable::new(2);
        assert!(t.acquire(LockId(1), 0));
        assert!(!t.acquire(LockId(1), 1));
        assert!(!t.acquire(LockId(1), 2));
        assert_eq!(t.waiters(LockId(1)), 2);
        assert_eq!(t.release(LockId(1), 0), Some(1));
        assert_eq!(t.holder(LockId(1)), Some(1));
        assert_eq!(t.release(LockId(1), 1), Some(2));
        assert_eq!(t.release(LockId(1), 2), None);
        assert_eq!(t.holder(LockId(1)), None);
    }

    #[test]
    fn independent_locks() {
        let mut t = LockTable::new(2);
        assert!(t.acquire(LockId(0), 0));
        assert!(t.acquire(LockId(1), 1));
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn release_without_hold_panics() {
        let mut t = LockTable::new(1);
        let _ = t.release(LockId(0), 0);
    }

    #[test]
    #[should_panic(expected = "recursive")]
    fn recursive_acquire_panics() {
        let mut t = LockTable::new(1);
        assert!(t.acquire(LockId(0), 0));
        let _ = t.acquire(LockId(0), 0);
    }

    #[test]
    fn barrier_reuse_across_episodes() {
        let mut t = BarrierTable::new(1, 3);
        assert_eq!(t.arrive(BarrierId(0), 2), None);
        assert_eq!(t.arrive(BarrierId(0), 0), None);
        assert_eq!(t.waiting(BarrierId(0)), 2);
        assert_eq!(t.arrive(BarrierId(0), 1), Some(vec![2, 0, 1]));
        assert_eq!(t.waiting(BarrierId(0)), 0);
        // Second episode works after reset.
        assert_eq!(t.arrive(BarrierId(0), 0), None);
        assert_eq!(t.arrive(BarrierId(0), 1), None);
        assert!(t.arrive(BarrierId(0), 2).is_some());
        assert_eq!(t.episodes(BarrierId(0)), 2);
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut t = BarrierTable::new(1, 3);
        let _ = t.arrive(BarrierId(0), 0);
        let _ = t.arrive(BarrierId(0), 0);
    }

    #[test]
    fn single_proc_barrier_completes_immediately() {
        let mut t = BarrierTable::new(1, 1);
        assert_eq!(t.arrive(BarrierId(0), 0), Some(vec![0]));
    }
}
