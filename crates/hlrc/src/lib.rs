//! Home-based Lazy Release Consistency (HLRC) — the paper's page-based
//! shared virtual memory protocol.
//!
//! Protocol summary (paper §2; Zhou, Iftode & Li, OSDI'96):
//!
//! * Every page has a **home**; the home's copy is kept up to date.
//! * A read fault fetches the **whole page** from the home.
//! * The first write to a non-home page creates a **twin**; modified words
//!   are tracked per word.
//! * At a **release** (lock release or barrier arrival), the writer
//!   computes a **diff** against the twin for each dirty page and sends it
//!   eagerly to the page's home, which applies it. The page downgrades to
//!   read-only at the writer.
//! * **Write notices** (page identities, grouped into per-release
//!   *intervals* with vector timestamps) travel lazily: a lock grant
//!   carries exactly the notices the acquirer has not seen; it invalidates
//!   those pages. Barriers deliver all outstanding notices to everyone.
//! * Home nodes write their own pages directly (no twin/diff) and their
//!   copies are never invalidated.
//!
//! Cost model hooks (all charged through [`ssm_proto::Machine`]): fault
//! handlers, mprotect, twin creation, diff creation/application (with cache
//! pollution), message handling, and the host/NI/bus costs of every
//! message.
//!
//! # AURC mode
//!
//! The same engine also implements **AURC** (automatic-update release
//! consistency — Iftode et al.), the hardware-assisted variant the paper
//! points to when diff cost dominates ("hardware support for automatic
//! write propagation can eliminate diffs", §4.3): writes to non-home pages
//! are snooped off the memory bus and propagated to the home by the NI as
//! they happen — no twins, no diffs, no host CPU involvement — and a
//! release only waits until the outstanding updates have drained into the
//! homes. The LRC machinery (intervals, vector timestamps, write notices)
//! is identical. Construct with [`Hlrc::aurc`].

mod notices;
mod pages;

pub use notices::{NoticeBoard, VectorTime};
pub use pages::{DirtyBits, NodePages, PageState};

use ssm_engine::Cycles;
use ssm_proto::machine::Activity;
use ssm_proto::{
    page_of, BarrierId, HomeMap, HomePolicy, LockId, LockTable, Machine, Protocol, SendFrom,
    SyncManager, WorldShape, PAGE_SIZE, PAGE_WORDS, WORD_BYTES,
};

/// Bytes of a small control message (requests, acks; includes a vector
/// timestamp when needed).
const CTRL_BYTES: u64 = 64;

/// Header bytes on data-bearing messages.
const HDR_BYTES: u64 = 16;

/// Bytes per encoded diff word (offset + value).
const DIFF_WORD_BYTES: u64 = 8;

/// Bytes per write notice in a grant/release message.
const NOTICE_BYTES: u64 = 8;

/// How writes propagate to the home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Software twins + diffs at release (classic HLRC).
    TwinDiff,
    /// Hardware automatic update: writes stream to the home as they occur
    /// (AURC); a release waits for the updates to drain.
    AutoUpdate,
}

/// The HLRC protocol engine.
///
/// # Example
///
/// ```rust
/// use ssm_hlrc::Hlrc;
/// use ssm_proto::{Machine, Protocol, ProtoCosts, WorldShape};
/// use ssm_mem::MemConfig;
/// use ssm_net::CommParams;
///
/// let mut m = Machine::new(2, CommParams::achievable(),
///                          ProtoCosts::original(), MemConfig::pentium_pro_like());
/// let mut hlrc = Hlrc::new();
/// hlrc.init(&m, &WorldShape { heap_bytes: 1 << 16, nlocks: 1, nbarriers: 1 });
/// // A read by P1 of page 0 (homed at node 0) is a remote page fetch.
/// let t = hlrc.read(&mut m, 1, 0, 8);
/// assert!(t > 1000);
/// ```
#[derive(Debug)]
pub struct Hlrc {
    pages: Vec<NodePages>,
    board: NoticeBoard,
    sync: SyncManager,
    /// Vector timestamp of each lock's last release.
    lock_vt: Vec<VectorTime>,
    npages: u64,
    mode: WriteMode,
    home_policy: HomePolicy,
    homes: HomeMap,
    /// AURC: per-processor arrival time of the latest outstanding
    /// automatic update (releases wait for this).
    inflight: Vec<Cycles>,
    /// AURC: pages written by each processor in its current interval.
    auto_written: Vec<std::collections::BTreeSet<u64>>,
}

impl Hlrc {
    /// Creates an uninitialized protocol instance ([`Protocol::init`] must
    /// run before use).
    pub fn new() -> Self {
        Hlrc {
            pages: Vec::new(),
            board: NoticeBoard::new(1),
            sync: SyncManager::default(),
            lock_vt: Vec::new(),
            npages: 0,
            mode: WriteMode::TwinDiff,
            home_policy: HomePolicy::RoundRobin,
            homes: HomeMap::new(HomePolicy::RoundRobin, 1, 0),
            inflight: Vec::new(),
            auto_written: Vec::new(),
        }
    }

    /// Selects the page-to-home placement policy (before `init`).
    pub fn with_homes(mut self, policy: HomePolicy) -> Self {
        self.home_policy = policy;
        self
    }

    /// Creates the AURC variant (automatic update instead of twins/diffs).
    pub fn aurc() -> Self {
        let mut h = Hlrc::new();
        h.mode = WriteMode::AutoUpdate;
        h
    }

    /// The configured write-propagation mode.
    pub fn mode(&self) -> WriteMode {
        self.mode
    }

    /// The page state of `page` as seen by `node` (inspection hook for
    /// tests and tools).
    pub fn page_state(&self, node: usize, page: u64) -> PageState {
        self.pages[node].state(page)
    }

    /// Direct access to the lock table (test setup hook).
    pub fn lock_table_mut(&mut self) -> &mut LockTable {
        self.sync.locks_mut()
    }

    /// Synthetic address of the twin buffer for `page` at any node, used
    /// for cache-pollution modelling (twins live outside the shared heap).
    fn twin_addr(&self, page: u64) -> u64 {
        (self.npages + page) * PAGE_SIZE
    }

    /// Fetches `page` into `p` (read fault path). Returns completion time.
    fn fetch_page(&mut self, m: &mut Machine, p: usize, page: u64, t: Cycles) -> Cycles {
        let h = self.homes.home(page, p);
        debug_assert_ne!(h, p, "home pages never fault at home");
        // Access fault: the SIGSEGV handler runs on p.
        let t = m.proto_work(p, t, m.costs().handler_base, Activity::Handler);
        // Request to the home.
        let (_, req) = m.send_from_app(p, t, h, CTRL_BYTES);
        let th = m.handle_request(h, req, 0);
        // VMMC-style send: the NI DMAs the page straight out of home
        // memory — the home CPU only posts the send (host overhead); the
        // data movement cost is the I/O-bus transfer inside `deliver`.
        let (_, data) = m.send_from_handler(h, th, p, PAGE_SIZE + HDR_BYTES);
        // Fresh contents: locally cached lines of this page are stale.
        m.cache_invalidate(p, page * PAGE_SIZE, PAGE_SIZE);
        // Map it read-only.
        let done = m.proto_work(p, data, m.costs().mprotect(1), Activity::Mprotect);
        self.pages[p].set_read_only(page);
        let c = m.counters_mut(p);
        c.fetches += 1;
        c.remote_reads += 1;
        done
    }

    /// Ensures `p` can read `page`; returns the (possibly unchanged) time.
    fn ensure_readable(&mut self, m: &mut Machine, p: usize, page: u64, t: Cycles) -> Cycles {
        if self.homes.home(page, p) == p {
            return t;
        }
        match self.pages[p].state(page) {
            PageState::ReadOnly | PageState::ReadWrite => t,
            PageState::Invalid => self.fetch_page(m, p, page, t),
        }
    }

    /// Ensures `p` can write `page` (fetch + twin as needed).
    fn ensure_writable(&mut self, m: &mut Machine, p: usize, page: u64, t: Cycles) -> Cycles {
        if self.homes.home(page, p) == p {
            self.pages[p].mark_home_written(page);
            return t;
        }
        let t = match self.pages[p].state(page) {
            PageState::ReadWrite => return t,
            PageState::ReadOnly => t,
            PageState::Invalid => self.fetch_page(m, p, page, t),
        };
        match self.mode {
            WriteMode::TwinDiff => {
                // Write fault on a read-only page: create the twin.
                let t = m.proto_work(p, t, m.costs().handler_base, Activity::Handler);
                let t = m.proto_work(p, t, m.costs().twin.cost(PAGE_WORDS), Activity::Twin);
                // Twin copy pollutes the cache: read the page, write the twin.
                let t = m.proto_touch(p, t, page * PAGE_SIZE, PAGE_SIZE, false, Activity::Twin);
                let t = m.proto_touch(p, t, self.twin_addr(page), PAGE_SIZE, true, Activity::Twin);
                let t = m.proto_work(p, t, m.costs().mprotect(1), Activity::Mprotect);
                self.pages[p].make_writable(page);
                let c = m.counters_mut(p);
                c.twins += 1;
                c.remote_writes += 1;
                t
            }
            WriteMode::AutoUpdate => {
                // First write still faults once, to switch the mapping to
                // write-through-with-update; no twin is made.
                let t = m.proto_work(p, t, m.costs().handler_base, Activity::Handler);
                let t = m.proto_work(p, t, m.costs().mprotect(1), Activity::Mprotect);
                self.pages[p].make_writable_untwinned(page);
                m.counters_mut(p).remote_writes += 1;
                t
            }
        }
    }

    /// Computes and ships the diff of one page to its home; returns
    /// `(local_done, applied_at_home)`.
    fn flush_one(
        &mut self,
        m: &mut Machine,
        p: usize,
        page: u64,
        dirty: u64,
        t: Cycles,
    ) -> (Cycles, Cycles) {
        let h = self.homes.home(page, p);
        debug_assert_ne!(h, p);
        // Diff creation: compare every word, encode the dirty ones.
        let create = m.costs().diff_compare.cost(PAGE_WORDS) + m.costs().diff_encode.cost(dirty);
        let t = m.proto_work(p, t, create, Activity::DiffCreate);
        let t = m.proto_touch(
            p,
            t,
            page * PAGE_SIZE,
            PAGE_SIZE,
            false,
            Activity::DiffCreate,
        );
        let t = m.proto_touch(
            p,
            t,
            self.twin_addr(page),
            PAGE_SIZE,
            false,
            Activity::DiffCreate,
        );
        // Ship it.
        let bytes = HDR_BYTES + DIFF_WORD_BYTES * dirty;
        let (local, arr) = m.send_from_handler(p, t, h, bytes);
        // Apply at the home.
        let th = m.handle_request(h, arr, 0);
        let apply = m.costs().diff_apply.cost(dirty);
        let th = m.proto_work(h, th, apply, Activity::DiffApply);
        let th = m.proto_touch(
            h,
            th,
            page * PAGE_SIZE,
            PAGE_SIZE,
            true,
            Activity::DiffApply,
        );
        let c = m.counters_mut(p);
        c.diffs += 1;
        c.diff_words += dirty;
        (local, th)
    }

    /// Release-time flush: diffs every twinned page to its home, records
    /// the interval's write notices, downgrades pages. Returns the time at
    /// which the release may proceed (all diffs applied).
    fn release_flush(&mut self, m: &mut Machine, p: usize, t: Cycles) -> Cycles {
        if self.mode == WriteMode::AutoUpdate {
            // AURC: nothing to compute — wait for outstanding updates to
            // drain into the homes, then publish the interval's notices.
            // Pages stay writable (no downgrade: future writes keep
            // streaming updates).
            let done = t.max(self.inflight[p]);
            let mut notice_pages: Vec<u64> = std::mem::take(&mut self.auto_written[p])
                .into_iter()
                .collect();
            notice_pages.extend(self.pages[p].take_home_written());
            self.board.record_interval(p, notice_pages);
            return done;
        }
        let twins = self.pages[p].take_twins();
        let mut local = t;
        let mut done = t;
        let flushed = twins.len() as u64;
        let mut notice_pages: Vec<u64> = Vec::with_capacity(twins.len());
        for (page, bits) in twins {
            let dirty = bits.count();
            notice_pages.push(page);
            if dirty == 0 {
                continue; // twinned but never actually written
            }
            let (l, applied) = self.flush_one(m, p, page, dirty, local);
            local = l;
            done = done.max(applied);
        }
        if flushed > 0 {
            // One batched mprotect downgrades the flushed pages.
            let cost = m.costs().mprotect(flushed);
            local = m.proto_work(p, local, cost, Activity::Mprotect);
        }
        notice_pages.extend(self.pages[p].take_home_written());
        self.board.record_interval(p, notice_pages);
        local.max(done)
    }

    /// Applies write notices at `w`: invalidates the named pages (flushing
    /// any concurrently-twinned page first), charging mprotect once.
    fn apply_notices(
        &mut self,
        m: &mut Machine,
        w: usize,
        t: Cycles,
        pages: &[u64],
        raw: u64,
    ) -> Cycles {
        let mut t = t;
        let mut invalidated = 0u64;
        for &page in pages {
            if self.homes.peek(page) == Some(w) {
                continue; // the home copy is always current
            }
            match self.pages[w].state(page) {
                PageState::Invalid => {}
                PageState::ReadOnly => {
                    self.pages[w].invalidate(page);
                    m.cache_invalidate(w, page * PAGE_SIZE, PAGE_SIZE);
                    invalidated += 1;
                }
                PageState::ReadWrite => {
                    if self.mode == WriteMode::AutoUpdate {
                        // AURC: our writes already streamed to the home;
                        // record the page in our interval (if written) and
                        // drop the copy.
                        if self.auto_written[w].remove(&page) {
                            self.board.record_interval(w, vec![page]);
                        }
                        self.pages[w].invalidate(page);
                        m.cache_invalidate(w, page * PAGE_SIZE, PAGE_SIZE);
                        invalidated += 1;
                        continue;
                    }
                    // Concurrent writer: flush our modifications, then drop
                    // the page (multiple-writer resolution through the home).
                    if let Some(bits) = self.pages[w].take_twin(page) {
                        let dirty = bits.count();
                        if dirty > 0 {
                            let (l, applied) = self.flush_one(m, w, page, dirty, t);
                            t = l.max(applied);
                        }
                        self.board.record_interval(w, vec![page]);
                    }
                    self.pages[w].invalidate(page);
                    m.cache_invalidate(w, page * PAGE_SIZE, PAGE_SIZE);
                    invalidated += 1;
                }
            }
        }
        if invalidated > 0 {
            let cost = m.costs().mprotect(invalidated);
            t = m.proto_work(w, t, cost, Activity::Mprotect);
        }
        let c = m.counters_mut(w);
        c.write_notices += raw;
        c.invalidations += invalidated;
        t
    }

    /// Sends `w` the write notices it lacks up to `target` from manager
    /// `mgr`, free at `t_mgr`, and applies them at `w`. Returns `(mgr free
    /// again, w consistent)`.
    fn send_notices(
        &mut self,
        m: &mut Machine,
        mgr: usize,
        w: usize,
        t_mgr: Cycles,
        target: &[u64],
    ) -> (Cycles, Cycles) {
        let (pages, raw) = self.board.collect(w, target);
        // The manager walks the notice list while building the message.
        let walk = m.costs().per_list_element * raw;
        let t = m.proto_work(mgr, t_mgr, walk, Activity::Handler);
        let t_w = if mgr == w {
            t
        } else {
            let bytes = HDR_BYTES + NOTICE_BYTES * raw;
            let (_, arr) = m.send_from_handler(mgr, t, w, bytes);
            m.handle_request(w, arr, raw)
        };
        (t, self.apply_notices(m, w, t_w, &pages, raw))
    }

    /// Grants `lock` to `w` from its manager at time `t_mgr`, carrying the
    /// notices of the lock's last release. Returns when `w` holds the lock
    /// and is consistent.
    fn grant(&mut self, m: &mut Machine, lock: LockId, w: usize, t_mgr: Cycles) -> Cycles {
        let target = self.lock_vt[lock.0 as usize].clone();
        self.send_notices(m, self.sync.lock_home(lock), w, t_mgr, &target)
            .1
    }
}

impl Default for Hlrc {
    fn default() -> Self {
        Hlrc::new()
    }
}

impl Protocol for Hlrc {
    fn name(&self) -> &'static str {
        match self.mode {
            WriteMode::TwinDiff => "HLRC",
            WriteMode::AutoUpdate => "AURC",
        }
    }

    fn init(&mut self, m: &Machine, shape: &WorldShape) {
        let nprocs = m.nprocs();
        let npages = shape.heap_bytes.div_ceil(PAGE_SIZE).max(1);
        self.npages = npages;
        self.pages = (0..nprocs)
            .map(|n| NodePages::new(n, nprocs, npages))
            .collect();
        self.board = NoticeBoard::new(nprocs);
        self.sync = SyncManager::new(nprocs, shape, CTRL_BYTES);
        self.lock_vt = vec![vec![0; nprocs]; shape.nlocks];
        self.inflight = vec![0; nprocs];
        self.auto_written = vec![std::collections::BTreeSet::new(); nprocs];
        self.homes = HomeMap::new(self.home_policy, nprocs, npages);
    }

    fn read(&mut self, m: &mut Machine, p: usize, addr: u64, bytes: u64) -> Cycles {
        debug_assert!(bytes > 0);
        let mut t = m.clock[p];
        let first = page_of(addr);
        let last = page_of(addr + bytes - 1);
        let mut all_local = true;
        for page in first..=last {
            if self.homes.home(page, p) != p && self.pages[p].state(page) == PageState::Invalid {
                all_local = false;
            }
            t = self.ensure_readable(m, p, page, t);
        }
        if all_local {
            m.counters_mut(p).local_accesses += 1;
        }
        m.cache_access(p, t, addr, bytes, false)
    }

    fn write(&mut self, m: &mut Machine, p: usize, addr: u64, bytes: u64) -> Cycles {
        debug_assert!(bytes > 0);
        let mut t = m.clock[p];
        let first = page_of(addr);
        let last = page_of(addr + bytes - 1);
        let mut all_local = true;
        for page in first..=last {
            let was_writable =
                self.homes.home(page, p) == p || self.pages[p].state(page) == PageState::ReadWrite;
            if !was_writable {
                all_local = false;
            }
            t = self.ensure_writable(m, p, page, t);
            if self.homes.home(page, p) != p {
                let pstart = page * PAGE_SIZE;
                let lo = addr.max(pstart);
                let hi = (addr + bytes).min(pstart + PAGE_SIZE);
                match self.mode {
                    WriteMode::TwinDiff => {
                        // Record the dirty words of this page's slice.
                        let first_word = (lo - pstart) / WORD_BYTES;
                        let last_word = (hi - 1 - pstart) / WORD_BYTES;
                        self.pages[p].mark_dirty(page, first_word, last_word - first_word + 1);
                    }
                    WriteMode::AutoUpdate => {
                        // Hardware propagates the written words to the home
                        // as one coalesced update (no CPU at either end).
                        let h = self.homes.home(page, p);
                        let arrival = m.send_hardware(p, t, h, HDR_BYTES + (hi - lo));
                        m.cache_invalidate(h, lo, hi - lo);
                        self.inflight[p] = self.inflight[p].max(arrival);
                        self.auto_written[p].insert(page);
                        m.counters_mut(p).auto_updates += 1;
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
        // The request (with p's vector timestamp) reaches the manager; a
        // queued request is granted on release.
        let t_mgr = self.sync.request(m, p, lock)?;
        Some(self.grant(m, lock, p, t_mgr))
    }

    fn unlock(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Cycles {
        let now = m.clock[p];
        // Release: flush diffs so the home copies are current.
        let t = self.release_flush(m, p, now);
        // Tell the manager, carrying p's new vector timestamp. The notice
        // leaves from the release handler, so its overhead is Protocol time.
        let (t_local, next) = self.sync.release(m, p, lock, t, SendFrom::Handler);
        self.lock_vt[lock.0 as usize] = self.board.vt(p);
        if let Some((next, t_mgr)) = next {
            let granted = self.grant(m, lock, next, t_mgr);
            m.wake(next, granted);
        }
        t_local
    }

    fn barrier(&mut self, m: &mut Machine, p: usize, barrier: BarrierId) -> Option<Cycles> {
        let now = m.clock[p];
        // Arrival release: flush diffs, then notify the manager.
        let t = self.release_flush(m, p, now);
        let episode = self.sync.arrive(m, p, barrier, t)?;
        // Last arrival: the manager releases everyone, delivering all
        // outstanding write notices.
        let (mgr, target) = (episode.mgr, self.board.global_vt());
        Some(episode.release(m, p, |m, q, t| self.send_notices(m, mgr, q, t, &target)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_mem::MemConfig;
    use ssm_net::CommParams;
    use ssm_proto::ProtoCosts;
    use ssm_stats::Bucket;

    fn setup(nprocs: usize) -> (Machine, Hlrc) {
        let m = Machine::new(
            nprocs,
            CommParams::achievable(),
            ProtoCosts::original(),
            MemConfig::pentium_pro_like(),
        );
        let mut h = Hlrc::new();
        h.init(
            &m,
            &WorldShape {
                heap_bytes: 1 << 20,
                nlocks: 4,
                nbarriers: 2,
            },
        );
        (m, h)
    }

    #[test]
    fn home_access_is_local() {
        let (mut m, mut h) = setup(4);
        // Page 0 is homed at node 0: reads and writes there never fault.
        let t = h.read(&mut m, 0, 0, 8);
        let cache_only = m.breakdowns()[0].get(Bucket::CacheStall);
        assert_eq!(t, cache_only);
        let _ = h.write(&mut m, 0, 16, 8);
        assert_eq!(m.counters()[0].fetches, 0);
        assert_eq!(m.counters()[0].twins, 0);
        assert_eq!(m.counters()[0].local_accesses, 2);
    }

    #[test]
    fn remote_read_fetches_page_once() {
        let (mut m, mut h) = setup(4);
        let t1 = h.read(&mut m, 1, 0, 8); // page 0 homed at 0
        assert!(
            t1 > 2000,
            "page fetch should cost thousands of cycles, got {t1}"
        );
        assert_eq!(m.counters()[1].fetches, 1);
        assert_eq!(h.page_state(1, 0), PageState::ReadOnly);
        // Second read is local.
        m.clock[1] = t1;
        let t2 = h.read(&mut m, 1, 8, 8);
        assert_eq!(m.counters()[1].fetches, 1);
        assert!(
            t2 - t1 < 200,
            "warm read should be near-free, got {}",
            t2 - t1
        );
    }

    #[test]
    fn remote_write_creates_twin_and_release_flushes_diff() {
        let (mut m, mut h) = setup(2);
        // Node 0 writes 4 words of page 1 (home: node 1).
        let t = h.write(&mut m, 0, PAGE_SIZE, 16);
        assert_eq!(m.counters()[0].twins, 1);
        assert_eq!(h.page_state(0, 1), PageState::ReadWrite);
        m.clock[0] = t;
        // Lock release flushes the diff.
        assert!(h.lock_table_mut().acquire(LockId(0), 0));
        let t2 = h.unlock(&mut m, 0, LockId(0));
        assert!(t2 > t);
        assert_eq!(m.counters()[0].diffs, 1);
        assert_eq!(m.counters()[0].diff_words, 4);
        assert_eq!(h.page_state(0, 1), PageState::ReadOnly);
        assert!(m.activities()[0].diff_create > 0);
        assert!(m.activities()[1].diff_apply > 0);
    }

    #[test]
    fn notices_invalidate_at_next_acquire() {
        let (mut m3, mut h3) = setup(3);
        // P2 reads page 0 (home 0) so it holds a read-only copy.
        let t = h3.read(&mut m3, 2, 0, 8);
        m3.clock[2] = t;
        assert_eq!(h3.page_state(2, 0), PageState::ReadOnly);
        // P1 locks, writes page 0, unlocks.
        let t = h3.lock(&mut m3, 1, LockId(1)).expect("free");
        m3.clock[1] = t;
        let t = h3.write(&mut m3, 1, 0, 8);
        m3.clock[1] = t;
        let _ = h3.unlock(&mut m3, 1, LockId(1));
        // P2 acquires the same lock: the grant carries the notice and
        // invalidates its copy.
        let t = h3.lock(&mut m3, 2, LockId(1)).expect("free after release");
        assert_eq!(h3.page_state(2, 0), PageState::Invalid);
        assert_eq!(m3.counters()[2].write_notices, 1);
        assert_eq!(m3.counters()[2].invalidations, 1);
        assert!(t > 0);
    }

    #[test]
    fn contended_lock_blocks_and_wakes() {
        let (mut m, mut h) = setup(2);
        let t = h.lock(&mut m, 0, LockId(0)).expect("free");
        m.clock[0] = t;
        assert_eq!(h.lock(&mut m, 1, LockId(0)), None);
        m.clock[0] = t + 10_000;
        let _ = h.unlock(&mut m, 0, LockId(0));
        let w = m.take_wakeups();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, 1);
        assert!(w[0].1 > t + 10_000);
    }

    #[test]
    fn barrier_delivers_all_notices() {
        let (mut m, mut h) = setup(2);
        // P0 reads page 1 (home: node 1) to cache it.
        let t = h.read(&mut m, 0, PAGE_SIZE, 8);
        m.clock[0] = t;
        assert_eq!(h.page_state(0, 1), PageState::ReadOnly);
        // P1 writes page 1 at home (no twin) then both hit the barrier.
        let t1 = h.write(&mut m, 1, PAGE_SIZE + 8, 8);
        m.clock[1] = t1;
        assert_eq!(h.barrier(&mut m, 1, BarrierId(0)), None);
        let done = h.barrier(&mut m, 0, BarrierId(0));
        assert!(done.is_some());
        // P0's stale copy of page 1 was invalidated by the barrier.
        assert_eq!(h.page_state(0, 1), PageState::Invalid);
        let w = m.take_wakeups();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, 1);
    }

    #[test]
    fn barrier_is_reusable() {
        let (mut m, mut h) = setup(2);
        for _ in 0..3 {
            assert_eq!(h.barrier(&mut m, 1, BarrierId(0)), None);
            assert!(h.barrier(&mut m, 0, BarrierId(0)).is_some());
            let _ = m.take_wakeups();
        }
    }

    #[test]
    fn diff_words_match_written_words() {
        let (mut m, mut h) = setup(2);
        // Write 3 separate words on page 1 (home: node 1) from node 0.
        for i in 0..3u64 {
            let t = h.write(&mut m, 0, PAGE_SIZE + i * 128, 4);
            m.clock[0] = t;
        }
        assert!(h.lock_table_mut().acquire(LockId(0), 0));
        let _ = h.unlock(&mut m, 0, LockId(0));
        assert_eq!(m.counters()[0].diff_words, 3);
    }

    #[test]
    fn multi_page_write_twins_each_page() {
        let (mut m, mut h) = setup(2);
        // A 2-page write from node 0 covering pages 1 and 3 (homes at 1).
        let t = h.write(&mut m, 0, PAGE_SIZE, PAGE_SIZE + 8);
        assert!(t > 0);
        assert_eq!(m.counters()[0].twins, 1); // page 1 twinned; page 2 is home
        assert_eq!(h.page_state(0, 1), PageState::ReadWrite);
    }

    #[test]
    fn protocol_costs_zero_reduce_time() {
        let shape = WorldShape {
            heap_bytes: 1 << 20,
            nlocks: 1,
            nbarriers: 1,
        };
        let run = |costs: ProtoCosts| {
            let mut m = Machine::new(
                2,
                CommParams::achievable(),
                costs,
                MemConfig::pentium_pro_like(),
            );
            let mut h = Hlrc::new();
            h.init(&m, &shape);
            let t = h.write(&mut m, 0, PAGE_SIZE, 64);
            m.clock[0] = t;
            assert!(h.lock_table_mut().acquire(LockId(0), 0));
            h.unlock(&mut m, 0, LockId(0))
        };
        assert!(run(ProtoCosts::best()) < run(ProtoCosts::original()));
    }

    #[test]
    fn concurrent_writer_flushes_on_notice() {
        let (mut m, mut h) = setup(3);
        // P2 writes page 0 under no lock (racy app, multiple-writer case).
        let t = h.write(&mut m, 2, 0, 8);
        m.clock[2] = t;
        assert_eq!(h.page_state(2, 0), PageState::ReadWrite);
        // P1 locks, writes the same page, unlocks.
        let t = h.lock(&mut m, 1, LockId(1)).expect("free");
        m.clock[1] = t;
        let t = h.write(&mut m, 1, 64, 8);
        m.clock[1] = t;
        let _ = h.unlock(&mut m, 1, LockId(1));
        // P2 acquires: its concurrent twin must be flushed, then dropped.
        let diffs_before = m.counters()[2].diffs;
        let _ = h.lock(&mut m, 2, LockId(1)).expect("free");
        assert_eq!(m.counters()[2].diffs, diffs_before + 1);
        assert_eq!(h.page_state(2, 0), PageState::Invalid);
    }
}
