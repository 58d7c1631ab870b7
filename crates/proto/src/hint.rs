//! Thread-side locality hints that let application threads *run ahead* of
//! the simulator.
//!
//! The baton scheme pays one handoff per yielded operation: a coroutine
//! switch there and back on x86_64 Linux, two OS context switches on the
//! OS-thread backend. Most shared accesses in a steady-state run are local (a cached page, a
//! home-node access), and the simulator's decision for them never unblocks
//! another processor — so the handoff is pure overhead. A [`HintBoard`]
//! records, per processor and per page, whether the *last* access of each
//! kind completed without sending a single message; the batching `Proc`
//! (see [`crate::vm`]) keeps accumulating operations while the hints
//! predict local completion and hands the whole run to the simulator in
//! one baton exchange.
//!
//! # Hints never affect results
//!
//! The driver replays a batch one operation per scheduling step, in the
//! exact order the thread issued them, at the same simulated times as an
//! unbatched run — so simulated time, checksums and every counter except
//! the handoff/batching counters themselves are byte-identical regardless
//! of hint accuracy. A stale "local" hint merely places a miss in the
//! middle of a batch instead of at its end; a missing hint merely costs an
//! extra handoff. Hints are a host-time policy, not simulation state.
//!
//! # Safety
//!
//! The board is shared between the simulator (which sets and revokes
//! hints) and application threads (which query them while holding the
//! baton). The baton guarantees at most one of these parties executes at
//! any instant, so the interior mutability is sound; like
//! [`crate::SharedMem`], debug builds verify the guarantee with an
//! entrants counter.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::page_of;

/// Hint bit: reads of the page predicted to complete locally.
const READ: u8 = 1;
/// Hint bit: writes of the page predicted to complete locally.
const WRITE: u8 = 2;

/// Per-processor, page-granular locality hints (see module docs).
pub struct HintBoard {
    /// One page → hint-bits map per processor.
    bits: UnsafeCell<Vec<HashMap<u64, u8>>>,
    /// Debug guard: number of threads currently inside an access.
    entrants: AtomicUsize,
}

// SAFETY: the baton protocol guarantees at most one thread (simulator or
// one application thread) touches the board at a time; debug builds check
// this with `entrants`.
unsafe impl Sync for HintBoard {}
unsafe impl Send for HintBoard {}

impl HintBoard {
    /// Creates an empty board for `nprocs` processors: nothing is
    /// predicted local until the simulator says so.
    pub fn new(nprocs: usize) -> Self {
        HintBoard {
            bits: UnsafeCell::new(vec![HashMap::new(); nprocs]),
            entrants: AtomicUsize::new(0),
        }
    }

    fn enter(&self) {
        let prev = self.entrants.fetch_add(1, Ordering::SeqCst);
        debug_assert_eq!(prev, 0, "concurrent HintBoard access: baton violated");
    }

    fn exit(&self) {
        self.entrants.fetch_sub(1, Ordering::SeqCst);
    }

    fn with<R>(&self, f: impl FnOnce(&mut Vec<HashMap<u64, u8>>) -> R) -> R {
        self.enter();
        // SAFETY: exclusive access guaranteed by the baton (checked above).
        let r = f(unsafe { &mut *self.bits.get() });
        self.exit();
        r
    }

    fn pages(addr: u64, bytes: u64) -> std::ops::RangeInclusive<u64> {
        let last = addr.saturating_add(bytes.max(1) - 1);
        page_of(addr)..=page_of(last)
    }

    /// Whether every page of `[addr, addr+bytes)` predicts a local read
    /// for processor `p`.
    pub fn predicts_read_hit(&self, p: usize, addr: u64, bytes: u64) -> bool {
        self.predicts(p, addr, bytes, READ)
    }

    /// Whether every page of `[addr, addr+bytes)` predicts a local write
    /// for processor `p`.
    pub fn predicts_write_hit(&self, p: usize, addr: u64, bytes: u64) -> bool {
        self.predicts(p, addr, bytes, WRITE)
    }

    fn predicts(&self, p: usize, addr: u64, bytes: u64, mask: u8) -> bool {
        self.with(|bits| {
            let map = &bits[p];
            Self::pages(addr, bytes).all(|pg| map.get(&pg).is_some_and(|b| b & mask != 0))
        })
    }

    /// Records that an access of `[addr, addr+bytes)` by `p` completed
    /// without messages. A local write implies later reads are local too;
    /// a local read promises nothing about writes.
    pub fn observe_local(&self, p: usize, addr: u64, bytes: u64, write: bool) {
        let mask = if write { READ | WRITE } else { READ };
        self.with(|bits| {
            let map = &mut bits[p];
            for pg in Self::pages(addr, bytes) {
                *map.entry(pg).or_insert(0) |= mask;
            }
        });
    }

    /// Revokes all hints `p` holds on pages overlapping `[addr, addr+len)`
    /// — called when protocol state invalidates `p`'s local copy.
    pub fn revoke(&self, p: usize, addr: u64, len: u64) {
        self.with(|bits| {
            let map = &mut bits[p];
            for pg in Self::pages(addr, len) {
                map.remove(&pg);
            }
        });
    }

    /// Drops every hint for processor `p` (e.g. at a barrier, where HLRC
    /// invalidates according to incoming write notices).
    pub fn revoke_all(&self, p: usize) {
        self.with(|bits| bits[p].clear());
    }

    /// Number of pages `p` currently holds any hint for (diagnostics).
    pub fn hinted_pages(&self, p: usize) -> usize {
        self.with(|bits| bits[p].len())
    }
}

impl std::fmt::Debug for HintBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HintBoard").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    #[test]
    fn read_hint_does_not_imply_write() {
        let b = HintBoard::new(2);
        assert!(!b.predicts_read_hit(0, 100, 4));
        b.observe_local(0, 100, 4, false);
        assert!(b.predicts_read_hit(0, 100, 4));
        assert!(!b.predicts_write_hit(0, 100, 4));
        // Other processors are unaffected.
        assert!(!b.predicts_read_hit(1, 100, 4));
    }

    #[test]
    fn write_hint_implies_read() {
        let b = HintBoard::new(1);
        b.observe_local(0, 5000, 8, true);
        assert!(b.predicts_write_hit(0, 5000, 8));
        assert!(b.predicts_read_hit(0, 5000, 8));
    }

    #[test]
    fn hints_are_page_granular_and_span_pages() {
        let b = HintBoard::new(1);
        // An access spanning the page-0/page-1 boundary hints both pages.
        b.observe_local(0, PAGE_SIZE - 4, 8, false);
        assert!(b.predicts_read_hit(0, 0, 4));
        assert!(b.predicts_read_hit(0, PAGE_SIZE, 4));
        assert!(!b.predicts_read_hit(0, 2 * PAGE_SIZE, 4));
        // A range query fails if any page lacks the hint.
        assert!(!b.predicts_read_hit(0, PAGE_SIZE, PAGE_SIZE + 4));
    }

    #[test]
    fn revoke_clears_both_kinds() {
        let b = HintBoard::new(1);
        b.observe_local(0, 0, 4, true);
        b.revoke(0, 2, 1);
        assert!(!b.predicts_read_hit(0, 0, 4));
        assert!(!b.predicts_write_hit(0, 0, 4));
        assert_eq!(b.hinted_pages(0), 0);
    }

    #[test]
    fn revoke_all_is_per_processor() {
        let b = HintBoard::new(2);
        b.observe_local(0, 0, 4, false);
        b.observe_local(1, 0, 4, false);
        b.revoke_all(0);
        assert!(!b.predicts_read_hit(0, 0, 4));
        assert!(b.predicts_read_hit(1, 0, 4));
    }
}
