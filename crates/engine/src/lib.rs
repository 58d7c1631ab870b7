//! Deterministic discrete-event simulation engine with execution-driven
//! application threads.
//!
//! This crate is the lowest layer of the `ssm` reproduction of *"Limits to
//! the Performance of Software Shared Memory: A Layered Approach"* (HPCA
//! 1999). It plays the role that **augmint** plays in the paper: it advances
//! a simulated clock, dispatches timestamped events deterministically, and
//! lets real application code drive the simulation by yielding memory and
//! synchronization operations to it.
//!
//! The engine knows nothing about caches, networks or coherence protocols —
//! those are built on top of three primitives provided here:
//!
//! * [`EventQueue`] — a priority queue of `(time, seq, event)` entries with
//!   deterministic FIFO tie-breaking for equal timestamps,
//! * [`Resource`] and [`Pipe`] — occupancy- and bandwidth-contended shared
//!   resources (a CPU, an NI processor, an I/O bus, a memory bus),
//! * [`ThreadPool`] — execution-driven application threads: each simulated
//!   processor's program runs on its own stack — a coroutine on the
//!   simulator's OS thread on x86_64 Linux, a pooled OS thread elsewhere
//!   (see [`threads`]) — and a strict baton guarantees that **at most one
//!   application thread executes at any instant**, which makes the whole
//!   simulation deterministic and makes a single shared data store safe to
//!   access without per-access locking.
//!
//! # Example
//!
//! ```rust
//! use ssm_engine::{EventQueue, Resource};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(10, "b");
//! q.push(5, "a");
//! q.push(10, "c"); // same time as "b": FIFO order preserved
//! let mut order = Vec::new();
//! while let Some((t, e)) = q.pop() {
//!     order.push((t, e));
//! }
//! assert_eq!(order, vec![(5, "a"), (10, "b"), (10, "c")]);
//!
//! let mut cpu = Resource::new();
//! let busy_until = cpu.acquire(100, 50); // request at t=100 for 50 cycles
//! assert_eq!(busy_until, 150);
//! let contended = cpu.acquire(120, 10); // queued behind the first use
//! assert_eq!(contended, 160);
//! ```

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod fiber;
pub mod queue;
pub mod resource;
pub mod threads;
pub mod workers;

pub use queue::EventQueue;
pub use resource::{Pipe, Resource};
pub use threads::{panic_text, Resumed, ThreadId, ThreadPool, Yielder};
pub use workers::{Completion, Job, WorkerSet, WORKER_THREAD_PREFIX};

/// Simulated time, in cycles of the modelled processor.
///
/// The paper normalizes every cost to cycles of a 1-IPC, 200 MHz processor;
/// we keep the same convention throughout the workspace.
pub type Cycles = u64;
