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
//! entrants counter, and release builds compile the counter out so a
//! query costs no atomic read-modify-write.

use std::cell::UnsafeCell;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{page_of, PAGE_SIZE};

/// Hint bit: reads of the page predicted to complete locally.
const READ: u8 = 1;
/// Hint bit: writes of the page predicted to complete locally.
const WRITE: u8 = 2;

/// Per-processor, page-granular locality hints (see module docs).
pub struct HintBoard {
    /// Hint bits per processor, indexed by page number. Pages past the end
    /// hold no hint; [`HintBoard::observe_local`] grows a row on demand.
    bits: UnsafeCell<Vec<Vec<u8>>>,
    /// Debug guard: number of threads currently inside an access.
    #[cfg(debug_assertions)]
    entrants: AtomicUsize,
}

// SAFETY: the baton protocol guarantees at most one thread (simulator or
// one application thread) touches the board at a time; debug builds check
// this with `entrants`.
unsafe impl Sync for HintBoard {}
unsafe impl Send for HintBoard {}

impl HintBoard {
    /// Creates an empty board for `nprocs` processors over a shared heap of
    /// `heap_bytes` bytes: nothing is predicted local until the simulator
    /// says so.
    pub fn new(nprocs: usize, heap_bytes: u64) -> Self {
        let npages = heap_bytes.div_ceil(PAGE_SIZE) as usize;
        HintBoard {
            bits: UnsafeCell::new(vec![vec![0; npages]; nprocs]),
            #[cfg(debug_assertions)]
            entrants: AtomicUsize::new(0),
        }
    }

    #[cfg(debug_assertions)]
    fn enter(&self) {
        let prev = self.entrants.fetch_add(1, Ordering::SeqCst);
        assert_eq!(prev, 0, "concurrent HintBoard access: baton violated");
    }

    #[cfg(debug_assertions)]
    fn exit(&self) {
        self.entrants.fetch_sub(1, Ordering::SeqCst);
    }

    #[cfg(not(debug_assertions))]
    fn enter(&self) {}

    #[cfg(not(debug_assertions))]
    fn exit(&self) {}

    /// Runs `f` on processor `p`'s row of hint bits.
    fn with<R>(&self, p: usize, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        self.enter();
        // SAFETY: exclusive access guaranteed by the baton (checked above
        // in debug builds).
        let r = f(unsafe { &mut (&mut *self.bits.get())[p] });
        self.exit();
        r
    }

    /// First and last page of `[addr, addr+bytes)` (a zero-length range
    /// counts as one byte).
    fn pages(addr: u64, bytes: u64) -> (usize, usize) {
        let last = addr.saturating_add(bytes.max(1) - 1);
        (page_of(addr) as usize, page_of(last) as usize)
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
        let (first, last) = Self::pages(addr, bytes);
        self.with(p, |row| {
            row.get(first..=last)
                .is_some_and(|pages| pages.iter().all(|&b| b & mask != 0))
        })
    }

    /// Records that an access of `[addr, addr+bytes)` by `p` completed
    /// without messages. A local write implies later reads are local too;
    /// a local read promises nothing about writes.
    pub fn observe_local(&self, p: usize, addr: u64, bytes: u64, write: bool) {
        let mask = if write { READ | WRITE } else { READ };
        let (first, last) = Self::pages(addr, bytes);
        self.with(p, |row| {
            if row.len() <= last {
                row.resize(last + 1, 0);
            }
            for b in &mut row[first..=last] {
                *b |= mask;
            }
        });
    }

    /// Revokes all hints `p` holds on pages overlapping `[addr, addr+len)`
    /// — called when protocol state invalidates `p`'s local copy.
    pub fn revoke(&self, p: usize, addr: u64, len: u64) {
        let (first, last) = Self::pages(addr, len);
        self.with(p, |row| {
            let end = row.len().min(last + 1);
            if first < end {
                row[first..end].fill(0);
            }
        });
    }

    /// Number of pages `p` currently holds any hint for (diagnostics).
    pub fn hinted_pages(&self, p: usize) -> usize {
        self.with(p, |row| row.iter().filter(|&&b| b != 0).count())
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

    #[test]
    fn read_hint_does_not_imply_write() {
        let b = HintBoard::new(2, 1 << 16);
        assert!(!b.predicts_read_hit(0, 100, 4));
        b.observe_local(0, 100, 4, false);
        assert!(b.predicts_read_hit(0, 100, 4));
        assert!(!b.predicts_write_hit(0, 100, 4));
        // Other processors are unaffected.
        assert!(!b.predicts_read_hit(1, 100, 4));
    }

    #[test]
    fn write_hint_implies_read() {
        let b = HintBoard::new(1, 1 << 16);
        b.observe_local(0, 5000, 8, true);
        assert!(b.predicts_write_hit(0, 5000, 8));
        assert!(b.predicts_read_hit(0, 5000, 8));
    }

    #[test]
    fn hints_are_page_granular_and_span_pages() {
        let b = HintBoard::new(1, 1 << 16);
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
        let b = HintBoard::new(1, 1 << 16);
        b.observe_local(0, 0, 4, true);
        b.revoke(0, 2, 1);
        assert!(!b.predicts_read_hit(0, 0, 4));
        assert!(!b.predicts_write_hit(0, 0, 4));
        assert_eq!(b.hinted_pages(0), 0);
    }

    #[test]
    fn pages_past_the_heap_grow_on_observe() {
        let b = HintBoard::new(1, PAGE_SIZE);
        assert!(!b.predicts_read_hit(0, 5 * PAGE_SIZE, 4));
        b.revoke(0, 5 * PAGE_SIZE, 4); // out of range: a no-op
        b.observe_local(0, 5 * PAGE_SIZE, 4, true);
        assert!(b.predicts_write_hit(0, 5 * PAGE_SIZE, 4));
        assert!(!b.predicts_read_hit(0, 4 * PAGE_SIZE, 4));
        assert_eq!(b.hinted_pages(0), 1);
        // A revocation reaching past the row's end clears what is there.
        b.revoke(0, 0, 100 * PAGE_SIZE);
        assert_eq!(b.hinted_pages(0), 0);
    }
}
