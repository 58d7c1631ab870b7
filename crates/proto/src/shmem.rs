//! The shared data store, allocator, and typed array views.
//!
//! The simulator is *timing-directed*: coherence protocols track page/block
//! metadata and charge time, while application **data** lives exactly once,
//! in a [`SharedMem`] byte store shared by all application threads. This is
//! sound because the engine's baton guarantees that at most one application
//! thread executes at any instant (see `ssm-engine::threads`), so plain
//! unsynchronized access can never race.
//!
//! This module and its sibling [`crate::hint`] hold the workspace's
//! `unsafe` data-store code (see DESIGN.md §11). Debug builds check the
//! baton on every access with an entrant counter; release builds skip the
//! counter, so an access costs no atomic read-modify-write.

use std::cell::UnsafeCell;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::vm::Proc;
use crate::PAGE_SIZE;

/// Identifies a DSM lock. Allocated by [`World::alloc_lock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u32);

/// Identifies a DSM barrier. Allocated by [`World::alloc_barrier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BarrierId(pub u32);

/// The single, shared, grow-once byte store backing the simulated shared
/// address space.
///
/// # Safety model
///
/// All mutation goes through `&self` via [`UnsafeCell`]. The required
/// exclusion — no two threads inside these methods at once — is provided
/// externally by the engine's baton: simulated-processor threads run one at
/// a time, and the simulator itself only touches the store while every
/// application thread is parked. A debug-build guard (`entrants`) verifies
/// this invariant at runtime; release builds compile it out.
pub struct SharedMem {
    data: UnsafeCell<Vec<u8>>,
    /// Debug guard: number of threads currently inside an accessor.
    #[cfg(debug_assertions)]
    entrants: AtomicUsize,
}

// SAFETY: access is externally serialized by the engine baton (at most one
// application thread runs at a time, and the simulator runs only while all
// application threads are parked). The debug guard enforces this in tests.
unsafe impl Sync for SharedMem {}
unsafe impl Send for SharedMem {}

impl SharedMem {
    /// Creates a store of `bytes` zeroed bytes.
    pub fn new(bytes: usize) -> Arc<Self> {
        Arc::new(SharedMem {
            data: UnsafeCell::new(vec![0u8; bytes]),
            #[cfg(debug_assertions)]
            entrants: AtomicUsize::new(0),
        })
    }

    /// Size of the store in bytes.
    pub fn len(&self) -> usize {
        self.enter();
        // SAFETY: serialized per the struct-level safety model.
        let n = unsafe { (*self.data.get()).len() };
        self.exit();
        n
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `f` on the `len` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    fn with_bytes<R>(&self, addr: u64, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        self.enter();
        // SAFETY: serialized per the struct-level safety model; every `f`
        // passed here is code of this module that never re-enters the
        // store. Bounds are checked by the slice index.
        let r = f(unsafe { &(&*self.data.get())[addr as usize..addr as usize + len] });
        self.exit();
        r
    }

    /// Runs `f` on the `len` bytes at `addr`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    fn with_bytes_mut(&self, addr: u64, len: usize, f: impl FnOnce(&mut [u8])) {
        self.enter();
        // SAFETY: as for `with_bytes`.
        f(unsafe { &mut (&mut *self.data.get())[addr as usize..addr as usize + len] });
        self.exit();
    }

    #[cfg(debug_assertions)]
    fn enter(&self) {
        let prev = self.entrants.fetch_add(1, Ordering::SeqCst);
        assert_eq!(prev, 0, "SharedMem accessed concurrently: baton violated");
    }

    #[cfg(debug_assertions)]
    fn exit(&self) {
        self.entrants.fetch_sub(1, Ordering::SeqCst);
    }

    #[cfg(not(debug_assertions))]
    fn enter(&self) {}

    #[cfg(not(debug_assertions))]
    fn exit(&self) {}
}

impl std::fmt::Debug for SharedMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMem")
            .field("len", &self.len())
            .finish()
    }
}

/// A scalar type storable in the shared address space.
///
/// Sealed: implemented for the fixed-width numeric types applications use.
pub trait Scalar: private::Sealed + Copy + 'static {
    /// Size in bytes.
    const BYTES: u64;
    /// Reads `Self` from the store at `addr`.
    fn load(mem: &SharedMem, addr: u64) -> Self;
    /// Writes `self` to the store at `addr`.
    fn store(self, mem: &SharedMem, addr: u64);
}

mod private {
    /// Seals [`super::Scalar`] and carries its slice codec, which stays
    /// private to this module.
    pub trait Sealed: Sized {
        /// Decodes one value from exactly `size_of::<Self>()` bytes.
        fn decode(bytes: &[u8]) -> Self;
        /// Encodes `self` into exactly `size_of::<Self>()` bytes.
        fn encode(self, out: &mut [u8]);
    }
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl private::Sealed for $t {
            #[inline]
            fn decode(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("scalar width"))
            }
            #[inline]
            fn encode(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
        }
        impl Scalar for $t {
            const BYTES: u64 = std::mem::size_of::<$t>() as u64;
            #[inline]
            fn load(mem: &SharedMem, addr: u64) -> Self {
                mem.with_bytes(addr, Self::BYTES as usize, <$t as private::Sealed>::decode)
            }
            #[inline]
            fn store(self, mem: &SharedMem, addr: u64) {
                mem.with_bytes_mut(addr, Self::BYTES as usize, |b| {
                    <$t as private::Sealed>::encode(self, b)
                });
            }
        }
    )*};
}

impl_scalar!(u8, i32, u32, i64, u64, f32, f64);

/// A typed view of a shared allocation: the handle applications use for
/// simulated reads and writes.
///
/// Cloning is cheap (the handle is an `Arc` + offset). Two access families:
///
/// * [`SharedVec::get`] / [`SharedVec::set`] — *simulated*: they charge the
///   coherence protocol and memory hierarchy via the calling [`Proc`];
/// * [`SharedVec::get_direct`] / [`SharedVec::set_direct`] and their bulk
///   forms [`SharedVec::read_direct`] / [`SharedVec::write_direct`] —
///   *untimed*: used for initialization before the run, verification after
///   it, and the data half of coarse block copies whose timing is charged
///   separately ([`SharedVec::touch_range_read`] /
///   [`SharedVec::touch_range_write`]), mirroring the untimed setup phases
///   of the paper's methodology.
pub struct SharedVec<T: Scalar> {
    mem: Arc<SharedMem>,
    addr: u64,
    len: usize,
    _t: std::marker::PhantomData<T>,
}

impl<T: Scalar> Clone for SharedVec<T> {
    fn clone(&self) -> Self {
        SharedVec {
            mem: self.mem.clone(),
            addr: self.addr,
            len: self.len,
            _t: std::marker::PhantomData,
        }
    }
}

impl<T: Scalar> SharedVec<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base address of element `i` in the shared address space.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn addr_of(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.addr + (i as u64) * T::BYTES
    }

    /// Simulated read of element `i` by processor `p`.
    pub fn get(&self, p: &Proc, i: usize) -> T {
        p.touch_read(self.addr_of(i), T::BYTES);
        T::load(&self.mem, self.addr_of(i))
    }

    /// Simulated write of element `i` by processor `p`.
    pub fn set(&self, p: &Proc, i: usize, v: T) {
        p.touch_write(self.addr_of(i), T::BYTES);
        v.store(&self.mem, self.addr_of(i));
    }

    /// Untimed read (initialization / verification only).
    pub fn get_direct(&self, i: usize) -> T {
        T::load(&self.mem, self.addr_of(i))
    }

    /// Untimed write (initialization / verification only).
    pub fn set_direct(&self, i: usize, v: T) {
        v.store(&self.mem, self.addr_of(i));
    }

    /// Untimed read of the `n` consecutive elements starting at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i + n > len`.
    pub fn read_direct(&self, i: usize, n: usize) -> Vec<T> {
        let addr = self.block_addr(i, n);
        let w = T::BYTES as usize;
        self.mem.with_bytes(addr, n * w, |b| {
            b.chunks_exact(w)
                .map(<T as private::Sealed>::decode)
                .collect()
        })
    }

    /// Untimed write of `vals` to consecutive elements starting at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i + vals.len() > len`.
    pub fn write_direct(&self, i: usize, vals: &[T]) {
        let addr = self.block_addr(i, vals.len());
        let w = T::BYTES as usize;
        self.mem.with_bytes_mut(addr, vals.len() * w, |b| {
            for (out, &v) in b.chunks_exact_mut(w).zip(vals) {
                v.encode(out);
            }
        });
    }

    /// Address of element `i`, after checking that `[i, i+n)` lies within
    /// the vector.
    fn block_addr(&self, i: usize, n: usize) -> u64 {
        assert!(
            i <= self.len && n <= self.len - i,
            "block {i}..{i}+{n} out of bounds (len {})",
            self.len
        );
        self.addr + (i as u64) * T::BYTES
    }

    /// Simulated read of `n` consecutive elements starting at `i`, touching
    /// the whole range once (coarse-grained access). It charges the access
    /// only; the values come from [`SharedVec::read_direct`].
    pub fn touch_range_read(&self, p: &Proc, i: usize, n: usize) {
        if n == 0 {
            return;
        }
        let _ = self.addr_of(i + n - 1);
        p.touch_read(self.addr_of(i), (n as u64) * T::BYTES);
    }

    /// Simulated write marking for `n` consecutive elements starting at `i`.
    pub fn touch_range_write(&self, p: &Proc, i: usize, n: usize) {
        if n == 0 {
            return;
        }
        let _ = self.addr_of(i + n - 1);
        p.touch_write(self.addr_of(i), (n as u64) * T::BYTES);
    }
}

impl<T: Scalar> std::fmt::Debug for SharedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedVec")
            .field("addr", &self.addr)
            .field("len", &self.len)
            .finish()
    }
}

/// The pre-run world: owns the store and allocates shared data, locks and
/// barriers. Passed to [`crate::Workload::spawn`].
///
/// # Example
///
/// ```rust
/// use ssm_proto::World;
/// let mut w = World::new(1 << 20);
/// let v = w.alloc_vec::<f64>(128);
/// v.set_direct(3, 2.5);
/// assert_eq!(v.get_direct(3), 2.5);
/// let l = w.alloc_lock();
/// let b = w.alloc_barrier();
/// assert_ne!(l.0, u32::MAX);
/// assert_eq!(b.0, 0);
/// ```
#[derive(Debug)]
pub struct World {
    mem: Arc<SharedMem>,
    next: u64,
    locks: u32,
    barriers: u32,
}

impl World {
    /// Creates a world with a shared store of `bytes` bytes.
    pub fn new(bytes: usize) -> Self {
        World {
            mem: SharedMem::new(bytes),
            next: 0,
            locks: 0,
            barriers: 0,
        }
    }

    /// The shared store.
    pub fn mem(&self) -> &Arc<SharedMem> {
        &self.mem
    }

    /// Bytes allocated so far.
    pub fn used(&self) -> u64 {
        self.next
    }

    /// Number of locks allocated.
    pub fn lock_count(&self) -> u32 {
        self.locks
    }

    /// Number of barriers allocated.
    pub fn barrier_count(&self) -> u32 {
        self.barriers
    }

    /// Allocates a page-aligned vector of `len` elements of `T`.
    ///
    /// Page alignment matches how the paper's applications pad and align
    /// their major data structures, and keeps false sharing between
    /// distinct allocations out of the picture (false sharing *within* an
    /// allocation is the interesting effect and is fully modelled).
    ///
    /// # Panics
    ///
    /// Panics if the store is exhausted.
    pub fn alloc_vec<T: Scalar>(&mut self, len: usize) -> SharedVec<T> {
        let bytes = (len as u64) * T::BYTES;
        let addr = self.next.next_multiple_of(PAGE_SIZE);
        let end = addr + bytes;
        assert!(
            end <= self.mem.len() as u64,
            "shared store exhausted: need {end} bytes, have {}",
            self.mem.len()
        );
        self.next = end;
        SharedVec {
            mem: self.mem.clone(),
            addr,
            len,
            _t: std::marker::PhantomData,
        }
    }

    /// Allocates a fresh lock.
    pub fn alloc_lock(&mut self) -> LockId {
        let id = LockId(self.locks);
        self.locks += 1;
        id
    }

    /// Allocates `n` locks (convenient for per-element lock arrays).
    pub fn alloc_locks(&mut self, n: usize) -> Vec<LockId> {
        (0..n).map(|_| self.alloc_lock()).collect()
    }

    /// Allocates a fresh barrier.
    pub fn alloc_barrier(&mut self) -> BarrierId {
        let id = BarrierId(self.barriers);
        self.barriers += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mem = SharedMem::new(64);
        1234.5f64.store(&mem, 8);
        assert_eq!(f64::load(&mem, 8), 1234.5);
        (-7i32).store(&mem, 0);
        assert_eq!(i32::load(&mem, 0), -7);
        0xdead_beef_u32.store(&mem, 4);
        assert_eq!(u32::load(&mem, 4), 0xdead_beef);
    }

    #[test]
    fn allocations_are_page_aligned_and_disjoint() {
        let mut w = World::new(1 << 20);
        let a = w.alloc_vec::<f64>(10);
        let b = w.alloc_vec::<u32>(10);
        assert_eq!(a.addr_of(0) % PAGE_SIZE, 0);
        assert_eq!(b.addr_of(0) % PAGE_SIZE, 0);
        assert!(b.addr_of(0) >= a.addr_of(9) + 8);
    }

    #[test]
    fn direct_access_round_trip() {
        let mut w = World::new(1 << 16);
        let v = w.alloc_vec::<u64>(100);
        for i in 0..100 {
            v.set_direct(i, (i * i) as u64);
        }
        for i in 0..100 {
            assert_eq!(v.get_direct(i), (i * i) as u64);
        }
    }

    #[test]
    fn bulk_direct_access_matches_per_element() {
        let mut w = World::new(1 << 16);
        let v = w.alloc_vec::<f64>(50);
        let vals: Vec<f64> = (0..20).map(|i| i as f64 * 1.5 - 3.0).collect();
        v.write_direct(7, &vals);
        for (k, &x) in vals.iter().enumerate() {
            assert_eq!(v.get_direct(7 + k), x);
        }
        assert_eq!(v.read_direct(7, 20), vals);
        assert_eq!(v.read_direct(0, 7), vec![0.0; 7]);
        assert!(v.read_direct(50, 0).is_empty());
        v.write_direct(50, &[]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bulk_bounds_checked() {
        let mut w = World::new(1 << 16);
        let v = w.alloc_vec::<u32>(8);
        let _ = v.read_direct(5, 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_bounds_checked() {
        let mut w = World::new(1 << 16);
        let v = w.alloc_vec::<u8>(4);
        let _ = v.get_direct(4);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn store_exhaustion_detected() {
        let mut w = World::new(8192);
        let _a = w.alloc_vec::<u8>(4096);
        let _b = w.alloc_vec::<u8>(8192);
    }

    #[test]
    fn lock_and_barrier_ids_are_dense() {
        let mut w = World::new(4096);
        assert_eq!(w.alloc_lock(), LockId(0));
        assert_eq!(w.alloc_lock(), LockId(1));
        let ls = w.alloc_locks(3);
        assert_eq!(ls.last(), Some(&LockId(4)));
        assert_eq!(w.alloc_barrier(), BarrierId(0));
        assert_eq!(w.lock_count(), 5);
        assert_eq!(w.barrier_count(), 1);
    }

    #[test]
    fn clone_views_alias() {
        let mut w = World::new(1 << 16);
        let v = w.alloc_vec::<f32>(8);
        let v2 = v.clone();
        v.set_direct(0, 9.0);
        assert_eq!(v2.get_direct(0), 9.0);
    }
}
