//! Fine/variable-grained sequentially-consistent software DSM — the
//! paper's "SC" protocol, modelled on Stache/Typhoon-zero.
//!
//! * Coherence unit: a power-of-two **block** (64 B by default; the paper
//!   lets each application pick its best granularity — 4 KB for FFT and LU,
//!   1 KB for Ocean).
//! * A **directory entry at the block's home** tracks an MSI state:
//!   `owner == None` means the home copy is current and `sharers` hold
//!   read-only copies; `owner == Some(q)` means `q` holds the only valid,
//!   writable copy.
//! * Read miss → request to home; if a remote owner exists the home recalls
//!   the block (owner writes back, downgrades to shared), then supplies the
//!   data.
//! * Write miss/upgrade → request to home; the home invalidates all sharers
//!   (acks collected), recalls a remote owner if any, then grants exclusive
//!   ownership (with data unless the requester already held a shared copy).
//! * Sequential consistency: the processor stalls on every miss until the
//!   transaction completes.
//! * **Access control is free** (the paper's optimistic hardware
//!   assumption, §2); only the software handlers and messages cost time.
//!   Locks and barriers are the plain message-based queue locks / counting
//!   barriers of [`ssm_proto::SyncManager`], with no consistency payload
//!   (SC needs none).
//!
//! Remote blocks are cached in node memory without capacity eviction
//! (Stache uses main memory as the cache, which is effectively unbounded
//! for the paper's working sets).
//!
//! # Delayed (eager release) consistency mode
//!
//! The paper's footnote considers "a fine-grained protocol that uses
//! delayed consistency or single-writer, eager release consistency instead
//! of sequential consistency", reporting it "a little better than SC for
//! most granularities smaller than a page since they alleviate the effects
//! of read-write false sharing". [`Sc::delayed`] builds that variant:
//! writes are performed locally and buffered; at a *release* the writer
//! ships each dirty block to its home, which applies it and eagerly
//! invalidates the other sharers. Reads still fetch blocks on demand.

use ssm_engine::Cycles;
use ssm_proto::machine::Activity;
use ssm_proto::{
    BarrierId, HomeMap, HomePolicy, LockId, LockTable, Machine, Protocol, SendFrom, SyncManager,
    WorldShape, PAGE_SIZE,
};

/// Bytes of a small control message (requests, grants, invalidations, acks).
const CTRL_BYTES: u64 = 32;

/// Header bytes on data-bearing messages.
const HDR_BYTES: u64 = 16;

/// Consistency model run by the [`Sc`] engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScMode {
    /// Sequential consistency: every write obtains exclusive ownership
    /// before completing.
    Sequential,
    /// Delayed / eager-release consistency: writes buffer locally and
    /// flush (with eager invalidations) at release points.
    DelayedRc,
}

/// Local state of a block at a non-home node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// No valid copy.
    Invalid,
    /// Valid read-only copy (registered in the home's sharer set).
    Shared,
    /// The only valid copy, writable (this node is the directory owner).
    Exclusive,
}

/// Directory entry kept at a block's home.
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// Bitmask of non-home nodes holding shared copies.
    sharers: u64,
    /// Remote exclusive owner, if any (the home copy is then stale).
    owner: Option<u32>,
}

/// The SC protocol engine.
///
/// # Example
///
/// ```rust
/// use ssm_sc::Sc;
/// use ssm_proto::{Machine, Protocol, ProtoCosts, WorldShape};
/// use ssm_mem::MemConfig;
/// use ssm_net::CommParams;
///
/// let mut m = Machine::new(2, CommParams::achievable(),
///                          ProtoCosts::original(), MemConfig::pentium_pro_like());
/// let mut sc = Sc::new(64);
/// sc.init(&m, &WorldShape { heap_bytes: 1 << 16, nlocks: 0, nbarriers: 0 });
/// // P1 reads a block homed at node 0: one 64-byte block moves, not a page.
/// let t = sc.read(&mut m, 1, 0, 8);
/// assert!(t > 0);
/// ```
#[derive(Debug)]
pub struct Sc {
    block: u64,
    nprocs: usize,
    mode: ScMode,
    /// DelayedRc: blocks written locally since the last release, per proc.
    write_set: Vec<std::collections::BTreeSet<u64>>,
    home_policy: HomePolicy,
    homes: HomeMap,
    dir: Vec<DirEntry>,
    /// `local[node][block]` — this node's copy state (home nodes use the
    /// directory instead).
    local: Vec<Vec<BlockState>>,
    sync: SyncManager,
}

impl Sc {
    /// Creates an SC protocol with the given block size in bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `block` is a power of two in `[4, PAGE_SIZE]`.
    pub fn new(block: u64) -> Self {
        assert!(
            block.is_power_of_two() && (4..=PAGE_SIZE).contains(&block),
            "block must be a power of two between 4 B and the page size"
        );
        Sc {
            block,
            nprocs: 0,
            mode: ScMode::Sequential,
            write_set: Vec::new(),
            home_policy: HomePolicy::RoundRobin,
            homes: HomeMap::new(HomePolicy::RoundRobin, 1, 0),
            dir: Vec::new(),
            local: Vec::new(),
            sync: SyncManager::default(),
        }
    }

    /// The configured block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block
    }

    /// Selects the page-to-home placement policy (before `init`).
    pub fn with_homes(mut self, policy: HomePolicy) -> Self {
        self.home_policy = policy;
        self
    }

    /// Creates the delayed/eager-release-consistency variant (the paper's
    /// footnote protocol) at the given granularity.
    pub fn delayed(block: u64) -> Self {
        let mut sc = Sc::new(block);
        sc.mode = ScMode::DelayedRc;
        sc
    }

    /// The consistency mode in force.
    pub fn mode(&self) -> ScMode {
        self.mode
    }

    /// DelayedRc release: ship every locally-buffered dirty block to its
    /// home (which applies it and eagerly invalidates the other sharers).
    /// Returns when every flush has been applied and acknowledged. Under
    /// SC nothing is buffered, so this returns `t` at once.
    fn flush_writes(&mut self, m: &mut Machine, p: usize, t: Cycles) -> Cycles {
        let dirty: Vec<u64> = std::mem::take(&mut self.write_set[p]).into_iter().collect();
        let mut local = t;
        let mut done = t;
        for b in dirty {
            let h = self.home_of_block(b, p);
            if h == p {
                // Home writer: invalidate remote sharers directly.
                let acked = self.invalidate_sharers(m, p, b, local, p, true);
                done = done.max(acked);
                continue;
            }
            // Ship the block's new contents to the home.
            let (l, arr) = m.send_from_handler(p, local, h, self.block + HDR_BYTES);
            local = l;
            let th = m.handle_request(h, arr, 0);
            let th = m.proto_touch(h, th, self.baddr(b), self.block, true, Activity::DiffApply);
            // Eager invalidations of the other sharers, from the home.
            let acked = self.invalidate_sharers(m, h, b, th, p, false);
            // The writer keeps a shared copy; the home copy is current.
            self.dir[b as usize].sharers |= 1u64 << p;
            self.local[p][b as usize] = BlockState::Shared;
            done = done.max(acked);
            m.counters_mut(p).diffs += 1;
        }
        local.max(done)
    }

    /// Direct access to the lock table (test setup hook).
    pub fn lock_table_mut(&mut self) -> &mut LockTable {
        self.sync.locks_mut()
    }

    /// Local state of `block` at `node` (inspection hook).
    pub fn block_state(&self, node: usize, block: u64) -> BlockState {
        self.local[node][block as usize]
    }

    fn block_of(&self, addr: u64) -> u64 {
        addr / self.block
    }

    fn home_of_block(&mut self, b: u64, toucher: usize) -> usize {
        // A block's home is the home of its page, so data placement matches
        // HLRC exactly and protocol comparisons see the same distribution.
        self.homes.home(b * self.block / PAGE_SIZE, toucher)
    }

    fn baddr(&self, b: u64) -> u64 {
        b * self.block
    }

    /// Recalls the block from its remote owner to the home: the owner
    /// writes the data back and downgrades to `to_state`. Returns the time
    /// the home has merged the data.
    #[allow(clippy::too_many_arguments)] // a coherence transaction has this many actors
    fn recall(
        &mut self,
        m: &mut Machine,
        h: usize,
        q: usize,
        b: u64,
        t: Cycles,
        to_shared: bool,
        from_app: bool,
    ) -> Cycles {
        let (_, arr) = if from_app {
            m.send_from_app(h, t, q, CTRL_BYTES)
        } else {
            m.send_from_handler(h, t, q, CTRL_BYTES)
        };
        let tq = m.handle_request(q, arr, 0);
        let tq = m.proto_touch(q, tq, self.baddr(b), self.block, false, Activity::Handler);
        let (_, wb) = m.send_from_handler(q, tq, h, self.block + HDR_BYTES);
        let th = m.handle_request(h, wb, 0);
        let th = m.proto_touch(h, th, self.baddr(b), self.block, true, Activity::Handler);
        self.local[q][b as usize] = if to_shared {
            BlockState::Shared
        } else {
            BlockState::Invalid
        };
        if !to_shared {
            m.cache_invalidate(q, self.baddr(b), self.block);
        }
        let e = &mut self.dir[b as usize];
        e.owner = None;
        if to_shared {
            e.sharers |= 1u64 << q;
        }
        th
    }

    /// Invalidates every remote sharer of `b` from node `ctx` (the home),
    /// collecting acks; `except` is not invalidated. Sends serialize on the
    /// home CPU; acks are handled as they arrive. Returns the time all acks
    /// are in.
    fn invalidate_sharers(
        &mut self,
        m: &mut Machine,
        h: usize,
        b: u64,
        t: Cycles,
        except: usize,
        from_app: bool,
    ) -> Cycles {
        let sharers = self.dir[b as usize].sharers;
        let mut t_send = t;
        let mut all_acked = t;
        for q in 0..self.nprocs {
            if q == except || q == h || sharers & (1u64 << q) == 0 {
                continue;
            }
            let (local_done, arr) = if from_app {
                m.send_from_app(h, t_send, q, CTRL_BYTES)
            } else {
                m.send_from_handler(h, t_send, q, CTRL_BYTES)
            };
            t_send = local_done;
            let tq = m.handle_request(q, arr, 0);
            self.local[q][b as usize] = BlockState::Invalid;
            m.cache_invalidate(q, self.baddr(b), self.block);
            m.counters_mut(q).invalidations += 1;
            let (_, ack) = m.send_from_handler(q, tq, h, CTRL_BYTES);
            let acked = m.handle_request(h, ack, 0);
            all_acked = all_acked.max(acked);
        }
        self.dir[b as usize].sharers &= 1u64 << except;
        all_acked.max(t_send)
    }

    /// Ensures `p` holds at least a shared copy of block `b`.
    fn ensure_shared(&mut self, m: &mut Machine, p: usize, b: u64, t: Cycles) -> Cycles {
        let h = self.home_of_block(b, p);
        if p == h {
            // Home read: current unless a remote owner holds the block.
            let owner = self.dir[b as usize].owner;
            return match owner {
                None => t,
                Some(q) => {
                    let t = m.proto_work(p, t, m.costs().handler_base, Activity::Handler);
                    let done = self.recall(m, h, q as usize, b, t, true, true);
                    m.counters_mut(p).remote_reads += 1;
                    done
                }
            };
        }
        if self.local[p][b as usize] != BlockState::Invalid {
            return t;
        }
        // Remote read miss.
        let t = m.proto_work(p, t, m.costs().handler_base, Activity::Handler);
        let (_, arr) = m.send_from_app(p, t, h, CTRL_BYTES);
        let mut th = m.handle_request(h, arr, 0);
        if let Some(q) = self.dir[b as usize].owner {
            th = self.recall(m, h, q as usize, b, th, true, false);
        }
        // The home reads the block from memory and replies with data.
        let th = m.proto_touch(h, th, self.baddr(b), self.block, false, Activity::Handler);
        let (_, data) = m.send_from_handler(h, th, p, self.block + HDR_BYTES);
        m.cache_invalidate(p, self.baddr(b), self.block);
        self.local[p][b as usize] = BlockState::Shared;
        self.dir[b as usize].sharers |= 1u64 << p;
        let c = m.counters_mut(p);
        c.remote_reads += 1;
        c.fetches += 1;
        data
    }

    /// Ensures `p` holds the block exclusively.
    fn ensure_exclusive(&mut self, m: &mut Machine, p: usize, b: u64, t: Cycles) -> Cycles {
        let h = self.home_of_block(b, p);
        if p == h {
            let e = self.dir[b as usize];
            if e.owner.is_none() && e.sharers == 0 {
                return t; // home write, nobody else involved
            }
            let mut t = m.proto_work(p, t, m.costs().handler_base, Activity::Handler);
            if let Some(q) = e.owner {
                t = self.recall(m, h, q as usize, b, t, false, true);
            }
            t = self.invalidate_sharers(m, h, b, t, p, true);
            self.dir[b as usize] = DirEntry::default();
            m.counters_mut(p).remote_writes += 1;
            return t;
        }
        if self.local[p][b as usize] == BlockState::Exclusive {
            return t;
        }
        let had_shared = self.local[p][b as usize] == BlockState::Shared;
        // Remote write miss / upgrade.
        let t = m.proto_work(p, t, m.costs().handler_base, Activity::Handler);
        let (_, arr) = m.send_from_app(p, t, h, CTRL_BYTES);
        let mut th = m.handle_request(h, arr, 0);
        if let Some(q) = self.dir[b as usize].owner {
            th = self.recall(m, h, q as usize, b, th, false, false);
        }
        th = self.invalidate_sharers(m, h, b, th, p, false);
        // Grant: data travels unless the requester already had a copy.
        let bytes = if had_shared {
            CTRL_BYTES
        } else {
            self.block + HDR_BYTES
        };
        if !had_shared {
            th = m.proto_touch(h, th, self.baddr(b), self.block, false, Activity::Handler);
        }
        let (_, grant) = m.send_from_handler(h, th, p, bytes);
        if !had_shared {
            m.cache_invalidate(p, self.baddr(b), self.block);
        }
        self.local[p][b as usize] = BlockState::Exclusive;
        let e = &mut self.dir[b as usize];
        e.sharers = 0;
        e.owner = Some(p as u32);
        let c = m.counters_mut(p);
        c.remote_writes += 1;
        if !had_shared {
            c.fetches += 1;
        }
        grant
    }
}

impl Protocol for Sc {
    fn name(&self) -> &'static str {
        match self.mode {
            ScMode::Sequential => "SC",
            ScMode::DelayedRc => "SC-delayed",
        }
    }

    fn init(&mut self, m: &Machine, shape: &WorldShape) {
        self.nprocs = m.nprocs();
        assert!(self.nprocs <= 64, "sharer bitmask holds at most 64 nodes");
        let nblocks = shape.heap_bytes.div_ceil(self.block).max(1) as usize;
        self.homes = HomeMap::new(
            self.home_policy,
            self.nprocs,
            shape.heap_bytes.div_ceil(PAGE_SIZE).max(1),
        );
        self.dir = vec![DirEntry::default(); nblocks];
        self.local = vec![vec![BlockState::Invalid; nblocks]; self.nprocs];
        self.sync = SyncManager::new(self.nprocs, shape, CTRL_BYTES);
        self.write_set = vec![std::collections::BTreeSet::new(); self.nprocs];
    }

    fn read(&mut self, m: &mut Machine, p: usize, addr: u64, bytes: u64) -> Cycles {
        debug_assert!(bytes > 0);
        let mut t = m.clock[p];
        let first = self.block_of(addr);
        let last = self.block_of(addr + bytes - 1);
        let mut all_local = true;
        for b in first..=last {
            let h = self.home_of_block(b, p);
            let miss = if p == h {
                self.dir[b as usize].owner.is_some()
            } else {
                self.local[p][b as usize] == BlockState::Invalid
            };
            all_local &= !miss;
            t = self.ensure_shared(m, p, b, t);
        }
        if all_local {
            m.counters_mut(p).local_accesses += 1;
        }
        m.cache_access(p, t, addr, bytes, false)
    }

    fn write(&mut self, m: &mut Machine, p: usize, addr: u64, bytes: u64) -> Cycles {
        debug_assert!(bytes > 0);
        let mut t = m.clock[p];
        let first = self.block_of(addr);
        let last = self.block_of(addr + bytes - 1);
        let mut all_local = true;
        for b in first..=last {
            match self.mode {
                ScMode::Sequential => {
                    let h = self.home_of_block(b, p);
                    let miss = if p == h {
                        let e = self.dir[b as usize];
                        e.owner.is_some() || e.sharers != 0
                    } else {
                        self.local[p][b as usize] != BlockState::Exclusive
                    };
                    all_local &= !miss;
                    t = self.ensure_exclusive(m, p, b, t);
                }
                ScMode::DelayedRc => {
                    // Write locally into a valid copy; consistency actions
                    // are deferred to the next release.
                    let h = self.home_of_block(b, p);
                    if p != h && self.local[p][b as usize] == BlockState::Invalid {
                        all_local = false;
                        t = self.ensure_shared(m, p, b, t);
                    }
                    if p != h {
                        self.write_set[p].insert(b);
                    } else if self.dir[b as usize].sharers != 0 {
                        // Home writer with remote sharers: also deferred.
                        self.write_set[p].insert(b);
                    }
                }
            }
        }
        if all_local {
            m.counters_mut(p).local_accesses += 1;
        }
        m.cache_access(p, t, addr, bytes, true)
    }

    fn lock(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Option<Cycles> {
        let t_mgr = self.sync.request(m, p, lock)?;
        Some(self.sync.grant(m, lock, p, t_mgr))
    }

    fn unlock(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Cycles {
        let now = m.clock[p];
        let t = self.flush_writes(m, p, now);
        let (t_local, next) = self.sync.release(m, p, lock, t, SendFrom::App);
        if let Some((next, t_mgr)) = next {
            let granted = self.sync.grant(m, lock, next, t_mgr);
            m.wake(next, granted);
        }
        t_local
    }

    fn barrier(&mut self, m: &mut Machine, p: usize, barrier: BarrierId) -> Option<Cycles> {
        let now = m.clock[p];
        let t = self.flush_writes(m, p, now);
        let episode = self.sync.arrive(m, p, barrier, t)?;
        Some(self.sync.release_all(m, p, episode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_mem::MemConfig;
    use ssm_net::CommParams;
    use ssm_proto::ProtoCosts;

    fn setup(nprocs: usize, block: u64) -> (Machine, Sc) {
        let m = Machine::new(
            nprocs,
            CommParams::achievable(),
            ProtoCosts::original(),
            MemConfig::pentium_pro_like(),
        );
        let mut sc = Sc::new(block);
        sc.init(
            &m,
            &WorldShape {
                heap_bytes: 1 << 20,
                nlocks: 2,
                nbarriers: 1,
            },
        );
        (m, sc)
    }

    #[test]
    fn home_access_without_remote_copies_is_free() {
        let (mut m, mut sc) = setup(4, 64);
        let t = sc.read(&mut m, 0, 0, 8);
        m.clock[0] = t;
        let t2 = sc.write(&mut m, 0, 0, 8);
        // Only cache stalls, no messages.
        assert_eq!(m.counters()[0].messages, 0);
        assert_eq!(m.counters()[0].local_accesses, 2);
        assert!(t2 >= t);
    }

    #[test]
    fn remote_read_moves_one_block() {
        let (mut m, mut sc) = setup(2, 64);
        // Block 64 (page 1, home node 1) read by node 0.
        let t = sc.read(&mut m, 0, PAGE_SIZE, 8);
        assert!(t > 1000);
        assert_eq!(sc.block_state(0, PAGE_SIZE / 64), BlockState::Shared);
        assert_eq!(m.counters()[0].fetches, 1);
        // A 64-byte block moved, not a 4 KB page.
        assert!(m.counters()[0].bytes < 256);
        // Warm read: free.
        m.clock[0] = t;
        let t2 = sc.read(&mut m, 0, PAGE_SIZE + 8, 8);
        assert_eq!(m.counters()[0].fetches, 1);
        assert!(t2 - t < 100);
    }

    #[test]
    fn write_invalidates_sharers() {
        let (mut m, mut sc) = setup(3, 64);
        let b = PAGE_SIZE / 64; // first block of page 1, home = node 1
                                // Nodes 0 and 2 read it.
        let t0 = sc.read(&mut m, 0, PAGE_SIZE, 8);
        m.clock[0] = t0;
        let t2 = sc.read(&mut m, 2, PAGE_SIZE, 8);
        m.clock[2] = t2;
        assert_eq!(sc.block_state(0, b), BlockState::Shared);
        assert_eq!(sc.block_state(2, b), BlockState::Shared);
        // Node 0 writes: node 2's copy must be invalidated.
        let tw = sc.write(&mut m, 0, PAGE_SIZE, 8);
        assert!(tw > t0);
        assert_eq!(sc.block_state(0, b), BlockState::Exclusive);
        assert_eq!(sc.block_state(2, b), BlockState::Invalid);
        assert_eq!(m.counters()[2].invalidations, 1);
    }

    #[test]
    fn read_recalls_remote_owner() {
        let (mut m, mut sc) = setup(3, 64);
        let b = PAGE_SIZE / 64;
        // Node 0 takes the block exclusive.
        let t = sc.write(&mut m, 0, PAGE_SIZE, 8);
        m.clock[0] = t;
        assert_eq!(sc.block_state(0, b), BlockState::Exclusive);
        // Node 2 reads: the home must recall from node 0 first.
        let t2 = sc.read(&mut m, 2, PAGE_SIZE, 8);
        assert!(t2 > 3000, "recall involves three hops, got {t2}");
        assert_eq!(sc.block_state(0, b), BlockState::Shared);
        assert_eq!(sc.block_state(2, b), BlockState::Shared);
    }

    #[test]
    fn home_write_recalls_owner() {
        let (mut m, mut sc) = setup(2, 64);
        let b = PAGE_SIZE / 64; // home = node 1
        let t = sc.write(&mut m, 0, PAGE_SIZE, 8);
        m.clock[0] = t;
        // Home (node 1) writes its own block: recall + invalidate node 0.
        let t1 = sc.write(&mut m, 1, PAGE_SIZE, 8);
        assert!(t1 > 1000);
        assert_eq!(sc.block_state(0, b), BlockState::Invalid);
        // Now the home writes again: free.
        m.clock[1] = t1;
        let t2 = sc.write(&mut m, 1, PAGE_SIZE + 8, 8);
        assert_eq!(m.counters()[1].local_accesses, 1);
        assert!(t2 - t1 < 100);
    }

    #[test]
    fn upgrade_from_shared_sends_no_data() {
        let (mut m, mut sc) = setup(2, 64);
        let t = sc.read(&mut m, 0, PAGE_SIZE, 8);
        m.clock[0] = t;
        let fetches_before = m.counters()[0].fetches;
        let _ = sc.write(&mut m, 0, PAGE_SIZE, 8);
        // Upgrade: no new data fetch.
        assert_eq!(m.counters()[0].fetches, fetches_before);
        assert_eq!(m.counters()[0].remote_writes, 1);
    }

    #[test]
    fn coarse_blocks_amortize() {
        // Reading 4 KB with 4 KB blocks = 1 fetch; with 64 B blocks = 64.
        let (mut m_fine, mut fine) = setup(2, 64);
        let (mut m_coarse, mut coarse) = setup(2, 4096);
        let t_f = fine.read(&mut m_fine, 0, PAGE_SIZE, PAGE_SIZE);
        let t_c = coarse.read(&mut m_coarse, 0, PAGE_SIZE, PAGE_SIZE);
        assert_eq!(m_fine.counters()[0].fetches, 64);
        assert_eq!(m_coarse.counters()[0].fetches, 1);
        assert!(t_c < t_f, "coarse {t_c} should beat fine {t_f}");
    }

    #[test]
    fn sc_locks_and_barriers() {
        let (mut m, mut sc) = setup(2, 64);
        let t = sc.lock(&mut m, 0, LockId(0)).expect("free");
        m.clock[0] = t;
        assert_eq!(sc.lock(&mut m, 1, LockId(0)), None);
        m.clock[0] = t + 1000;
        let _ = sc.unlock(&mut m, 0, LockId(0));
        let w = m.take_wakeups();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, 1);
        // Barrier round trip.
        assert_eq!(sc.barrier(&mut m, 1, BarrierId(0)), None);
        assert!(sc.barrier(&mut m, 0, BarrierId(0)).is_some());
        assert_eq!(m.take_wakeups().len(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_block_size() {
        let _ = Sc::new(48);
    }

    #[test]
    fn false_sharing_ping_pong() {
        // Two writers on the same block alternate: every write is remote.
        let (mut m, mut sc) = setup(3, 64);
        let mut t1 = 0;
        let mut t2 = 0;
        for i in 0..4 {
            m.clock[1] = t1.max(t2);
            t1 = sc.write(&mut m, 1, PAGE_SIZE + (i % 2) * 8, 4);
            m.clock[2] = t1;
            t2 = sc.write(&mut m, 2, PAGE_SIZE + 32, 4);
        }
        // 8 writes; all but node 1's very first (it is the home and nobody
        // else had a copy yet) cause coherence traffic.
        assert_eq!(
            m.counters()[1].remote_writes + m.counters()[2].remote_writes,
            7
        );
    }
}
