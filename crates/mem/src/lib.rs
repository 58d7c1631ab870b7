//! Node memory-hierarchy model: L1/L2 caches, a write buffer and the memory
//! bus — the per-node architecture of Figure 2 of the paper (a PentiumPro-
//! like node).
//!
//! The hierarchy is *timing-directed*: it never stores data, only tags and
//! dirty bits, and answers "how many cycles does this access stall the
//! processor?". Application data lives in the shared store owned by
//! `ssm-proto`. Application accesses go through [`Hierarchy::read`],
//! [`Hierarchy::write`] and, for coarse block copies,
//! [`Hierarchy::touch_range`]; protocols call [`Hierarchy::stream_range`]
//! to model the cache pollution caused by twinning/diffing, which the paper
//! simulates explicitly ("cache pollution due to protocol processing is
//! also included", §3.1).
//!
//! Defaults (see [`MemConfig::pentium_pro_like`]):
//!
//! * L1: 8 KB, 2-way, 32 B lines, hit folded into the 1-IPC busy time;
//! * L2: 256 KB, 4-way, 32 B lines, 8-cycle hit;
//! * memory: 60-cycle latency plus 32 B over a 2 bytes/cycle memory bus;
//! * write buffer: 8 entries, retiring at the L2/memory (writes stall only
//!   when the buffer is full).

pub mod cache;

pub use cache::{Access, Cache, CacheConfig};

use ssm_engine::{Cycles, Pipe};
use std::collections::VecDeque;

/// Configuration of a node's memory system.
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// First-level cache geometry.
    pub l1: CacheConfig,
    /// Second-level cache geometry.
    pub l2: CacheConfig,
    /// Extra cycles for an L2 hit (beyond the pipelined L1 path).
    pub l2_hit_cycles: Cycles,
    /// DRAM access latency in cycles (before bus occupancy).
    pub mem_latency: Cycles,
    /// Memory-bus bandwidth numerator/denominator in bytes per cycles.
    pub bus_bytes: u64,
    /// Memory-bus bandwidth denominator (cycles per `bus_bytes`).
    pub bus_cycles: u64,
    /// Write-buffer depth (writes stall only when full).
    pub write_buffer: usize,
}

impl MemConfig {
    /// The paper's PentiumPro-like node (Appendix): 8 KB 2-way L1, 256 KB
    /// 4-way L2, 32 B lines everywhere, 60-cycle memory, 2 B/cycle bus,
    /// 8-entry write buffer.
    pub fn pentium_pro_like() -> Self {
        MemConfig {
            l1: CacheConfig {
                size: 8 << 10,
                line: 32,
                assoc: 2,
            },
            l2: CacheConfig {
                size: 256 << 10,
                line: 32,
                assoc: 4,
            },
            l2_hit_cycles: 8,
            mem_latency: 60,
            bus_bytes: 2,
            bus_cycles: 1,
            write_buffer: 8,
        }
    }

    /// A tiny configuration for unit tests (256 B L1, 1 KB L2).
    pub fn tiny() -> Self {
        MemConfig {
            l1: CacheConfig {
                size: 256,
                line: 32,
                assoc: 1,
            },
            l2: CacheConfig {
                size: 1024,
                line: 32,
                assoc: 2,
            },
            l2_hit_cycles: 8,
            mem_latency: 60,
            bus_bytes: 2,
            bus_cycles: 1,
            write_buffer: 2,
        }
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::pentium_pro_like()
    }
}

/// One node's two-level cache hierarchy plus write buffer and memory bus.
///
/// # Example
///
/// ```rust
/// use ssm_mem::{Hierarchy, MemConfig};
/// let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
/// let cold = h.read(0, 0x1000);   // cold miss: memory latency + bus
/// assert!(cold > 60);
/// let warm = h.read(1000, 0x1000); // now cached: free (L1 hit)
/// assert_eq!(warm, 0);
/// ```
#[derive(Debug)]
pub struct Hierarchy {
    cfg: MemConfig,
    l1: Cache,
    l2: Cache,
    bus: Pipe,
    /// `log2` of the line size (lines are a power of two, as
    /// [`CacheConfig::sets`] checks).
    line_shift: u32,
    /// Bus cycles to move one line (fills and writebacks).
    line_bus_cycles: Cycles,
    /// Retirement times of in-flight buffered writes.
    wb: VecDeque<Cycles>,
}

impl Hierarchy {
    /// Creates an empty (cold) hierarchy.
    pub fn new(cfg: MemConfig) -> Self {
        let bus = Pipe::new(cfg.bus_bytes, cfg.bus_cycles);
        Hierarchy {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            line_shift: cfg.l2.line.trailing_zeros(),
            line_bus_cycles: bus.latency_of(cfg.l2.line as u64),
            bus,
            wb: VecDeque::new(),
            cfg,
        }
    }

    /// Cycles a *fill* from memory takes at `now` (latency + bus occupancy,
    /// including queueing behind earlier transfers).
    fn mem_fill(&mut self, now: Cycles) -> Cycles {
        let done = self.bus.transfer_for(
            now + self.cfg.mem_latency,
            self.cfg.l2.line as u64,
            self.line_bus_cycles,
        );
        done - now
    }

    fn writeback(&mut self, now: Cycles) {
        // Writebacks occupy the bus but do not stall the processor.
        let _ = self
            .bus
            .transfer_for(now, self.cfg.l2.line as u64, self.line_bus_cycles);
    }

    /// The L2 half of an access that missed (and was installed in) L1:
    /// returns the cycles until the line arrives. An L2 miss fills from
    /// memory, then writes a dirty victim back.
    ///
    /// The hierarchy is not inclusive: an L2 eviction leaves any L1 copy
    /// of the victim resident. L1 is write-through to L2, so L1 evictions
    /// are silent.
    fn l2_access(&mut self, now: Cycles, addr: u64, dirty: bool) -> Cycles {
        match self.l2.access(addr, dirty) {
            Access::Hit => self.cfg.l2_hit_cycles,
            Access::Miss(evicted) => {
                let fill = self.mem_fill(now);
                if evicted == Some(true) {
                    self.writeback(now);
                }
                self.cfg.l2_hit_cycles + fill
            }
        }
    }

    /// Models a processor *read* of the line containing `addr`; returns the
    /// stall cycles beyond the 1-IPC pipeline.
    #[inline(always)]
    pub fn read(&mut self, now: Cycles, addr: u64) -> Cycles {
        match self.l1.access(addr, false) {
            Access::Hit => 0,
            Access::Miss(_) => self.l2_access(now, addr, false),
        }
    }

    /// Models a processor *write*; returns stall cycles. Writes retire
    /// through the write buffer, so they stall only when the buffer is full.
    #[inline(always)]
    pub fn write(&mut self, now: Cycles, addr: u64) -> Cycles {
        // Retire completed buffered writes.
        while self.wb.front().is_some_and(|&t| t <= now) {
            self.wb.pop_front();
        }
        let mut stall = 0;
        let mut now = now;
        if self.wb.len() >= self.cfg.write_buffer {
            let t = self.wb.pop_front().expect("non-empty write buffer");
            stall = t - now;
            now = t;
        }
        // Determine how long the write takes to retire (in the background);
        // a miss write-allocates: it fetches the line, then writes.
        let retire = match self.l1.access(addr, true) {
            Access::Hit => now,
            Access::Miss(_) => now + self.l2_access(now, addr, true),
        };
        self.wb.push_back(retire);
        stall
    }

    /// Models an application's coarse access to `[addr, addr+len)` — a
    /// block copy touched as one operation: one [`Hierarchy::read`] or
    /// [`Hierarchy::write`] per line, in address order, each issued after
    /// the previous one's stall. Returns the total stall cycles.
    ///
    /// `write` selects whether the lines are dirtied.
    pub fn touch_range(&mut self, now: Cycles, addr: u64, len: u64, write: bool) -> Cycles {
        if len == 0 {
            return 0;
        }
        let first = addr >> self.line_shift;
        let last = (addr + len - 1) >> self.line_shift;
        let mut stall = 0;
        for l in first..=last {
            let a = l << self.line_shift;
            stall += if write {
                self.write(now + stall, a)
            } else {
                self.read(now + stall, a)
            };
        }
        stall
    }

    /// Models protocol code *streaming* over `[addr, addr+len)` — bulk
    /// copies such as twin creation and diff creation/application. Unlike
    /// [`Hierarchy::touch_range`], misses pipeline: the caller pays the
    /// DRAM latency once plus bandwidth-limited bus occupancy for the
    /// missed lines (plus a small per-line L2 cost for hits), instead of
    /// the full miss latency per line. The caches are polluted exactly as
    /// with per-line access (fills + evictions), which is the effect the
    /// paper simulates for twinning/diffing.
    pub fn stream_range(&mut self, now: Cycles, addr: u64, len: u64, write: bool) -> Cycles {
        if len == 0 {
            return 0;
        }
        let first = addr >> self.line_shift;
        let last = (addr + len - 1) >> self.line_shift;
        let mut missed_lines = 0u64;
        for l in first..=last {
            let a = l << self.line_shift;
            if self.l1.access(a, write) == Access::Hit {
                continue;
            }
            if let Access::Miss(evicted) = self.l2.access(a, write) {
                missed_lines += 1;
                if evicted == Some(true) {
                    self.writeback(now);
                }
            }
        }
        // Hits cost the pipelined L2 throughput.
        let mut stall = 2 * (last - first + 1 - missed_lines);
        if missed_lines > 0 {
            let bytes = missed_lines * self.cfg.l2.line as u64;
            stall += self.bus.transfer(now + self.cfg.mem_latency, bytes) - now;
        }
        stall
    }

    /// Drops every line of `[addr, addr+len)` from both caches without
    /// writing back (used when a page is invalidated by the protocol: its
    /// cached contents are stale).
    pub fn invalidate_range(&mut self, addr: u64, len: u64) {
        self.l1.invalidate_range(addr, len);
        self.l2.invalidate_range(addr, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_read_then_hits() {
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        let cold = h.read(0, 4096);
        // 8 (L2 probe path) + 60 (memory) + 16 (32 B over 2 B/cycle).
        assert_eq!(cold, 8 + 60 + 16);
        assert_eq!(h.read(100, 4096), 0);
        assert_eq!(h.read(100, 4100), 0); // same 32 B line
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let cfg = MemConfig::tiny(); // L1: 256 B direct-mapped, 8 lines
        let mut h = Hierarchy::new(cfg);
        h.read(0, 0); // line 0
        h.read(200, 256); // maps to same L1 set (direct-mapped), evicts
        let stall = h.read(400, 0); // L1 miss, L2 hit
        assert_eq!(stall, 8);
    }

    #[test]
    fn writes_use_buffer() {
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        // Two cold writes to distinct lines: both buffered, no stall.
        assert_eq!(h.write(0, 0), 0);
        assert_eq!(h.write(1, 64), 0);
    }

    #[test]
    fn write_buffer_full_stalls() {
        let mut h = Hierarchy::new(MemConfig::tiny()); // depth 2
                                                       // Issue 3 cold writes at the same instant: the third must stall.
        h.write(0, 0);
        h.write(0, 64);
        let stall = h.write(0, 128);
        assert!(stall > 0);
    }

    #[test]
    fn touch_range_covers_all_lines() {
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        // Each of the 128 lines misses, issued after the previous stall,
        // so none queues on the bus: 8 + 60 + 16 cycles apiece.
        let stall = h.touch_range(0, 0, 4096, false);
        assert_eq!(stall, (4096 / 32) * (8 + 60 + 16));
        // A second pass hits (4 KB fits in the 256 KB L2 and 8 KB L1).
        let stall2 = h.touch_range(10_000, 0, 4096, false);
        assert_eq!(stall2, 0);
    }

    #[test]
    fn invalidate_range_forces_refetch() {
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        h.read(0, 0);
        assert_eq!(h.read(100, 0), 0);
        h.invalidate_range(0, 32);
        assert!(h.read(200, 0) > 0);
    }

    #[test]
    fn touch_range_empty_is_free() {
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        assert_eq!(h.touch_range(0, 128, 0, true), 0);
        assert!(h.read(0, 128) > 0, "an empty range installs nothing");
    }

    #[test]
    fn stream_is_much_cheaper_than_per_line_touch() {
        let mut a = Hierarchy::new(MemConfig::pentium_pro_like());
        let per_line = a.touch_range(0, 0, 4096, false);
        let mut b = Hierarchy::new(MemConfig::pentium_pro_like());
        let streamed = b.stream_range(0, 0, 4096, false);
        assert!(
            streamed * 3 < per_line,
            "stream {streamed} vs touch {per_line}"
        );
        // Both pollute identically: a second streamed pass hits.
        let warm = b.stream_range(10_000, 0, 4096, false);
        assert_eq!(warm, 2 * (4096 / 32));
    }

    #[test]
    fn dirty_eviction_writes_back() {
        // Tiny L2: 16 sets x 2 ways x 32 B, so lines 0, 512 and 1024 share
        // set 0. Filling 1024 evicts line 0, whose writeback then occupies
        // the bus for 16 cycles ahead of the next miss's fill.
        let next_miss = |dirty_first: bool| {
            let mut h = Hierarchy::new(MemConfig::tiny());
            if dirty_first {
                h.write(0, 0);
            } else {
                h.read(0, 0);
            }
            h.read(1000, 512);
            h.read(2000, 1024);
            h.read(2000, 2048)
        };
        assert_eq!(next_miss(true), next_miss(false) + 16);
    }
}
