//! A set-associative, LRU, write-back cache directory (tags + dirty bits
//! only; the simulator is timing-directed and stores no data).

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero terms, capacity not a
    /// multiple of `line * assoc`, or non-power-of-two line size).
    pub fn sets(&self) -> usize {
        assert!(self.size > 0 && self.line > 0 && self.assoc > 0);
        assert!(
            self.line.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = self.size / self.line;
        assert!(
            lines.is_multiple_of(self.assoc) && lines > 0,
            "capacity must be a whole number of sets"
        );
        lines / self.assoc
    }
}

/// A slot holding no line. Valid slots pack `tag << 1 | dirty`, where a
/// tag is the address shifted right by the line and set-index bits.
/// [`Cache::new`] requires those bits to number at least two, so every tag
/// is below `2^62` and no valid slot can equal or match the sentinel.
const EMPTY: u64 = u64::MAX;

/// A set-associative LRU cache over 64-bit addresses.
///
/// # Example
///
/// ```rust
/// use ssm_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { size: 128, line: 32, assoc: 2 });
/// assert!(!c.probe(0, false)); // cold
/// c.fill(0, false);
/// assert!(c.probe(0, false)); // warm
/// ```
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// `assoc` slots per set, set after set. Within a set the valid lines
    /// come first, most-recently-used first, and [`EMPTY`] slots fill the
    /// tail.
    slots: Vec<u64>,
    set_mask: u64,
    line_shift: u32,
    set_shift: u32,
}

impl Cache {
    /// Creates a cold cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`CacheConfig::sets`]), if
    /// the set count is not a power of two, or if `line * sets` is below 4
    /// bytes (the packed directory needs two address bits below the tag).
    pub fn new(cfg: CacheConfig) -> Self {
        let nsets = cfg.sets();
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        let line_shift = cfg.line.trailing_zeros();
        let set_shift = nsets.trailing_zeros();
        assert!(
            line_shift + set_shift >= 2,
            "a way must span at least 4 bytes (line * sets)"
        );
        Cache {
            slots: vec![EMPTY; nsets * cfg.assoc],
            set_mask: nsets as u64 - 1,
            line_shift,
            set_shift,
            cfg,
        }
    }

    /// The slots of the set `addr` maps to, and the line's tag.
    fn locate(&mut self, addr: u64) -> (&mut [u64], u64) {
        let line = addr >> self.line_shift;
        let assoc = self.cfg.assoc;
        let base = (line & self.set_mask) as usize * assoc;
        (&mut self.slots[base..base + assoc], line >> self.set_shift)
    }

    /// Position of `tag` in `set`, if present. [`EMPTY`] never matches: its
    /// tag half exceeds every real tag.
    fn find(set: &[u64], tag: u64) -> Option<usize> {
        set.iter().position(|&s| s >> 1 == tag)
    }

    /// Moves the slot at `pos` to the front of `set` (MRU), shifting the
    /// slots before it back by one, and ORs `dirty` into it.
    fn promote(set: &mut [u64], pos: usize, dirty: bool) {
        let slot = set[pos] | u64::from(dirty);
        let mut i = pos;
        while i > 0 {
            set[i] = set[i - 1];
            i -= 1;
        }
        set[0] = slot;
    }

    /// Looks up `addr`; on a hit, refreshes LRU order and (for writes) sets
    /// the dirty bit. Returns whether it hit.
    pub fn probe(&mut self, addr: u64, write: bool) -> bool {
        let (set, tag) = self.locate(addr);
        match Self::find(set, tag) {
            Some(pos) => {
                Self::promote(set, pos, write);
                true
            }
            None => false,
        }
    }

    /// Installs the line containing `addr` (MRU position). Returns
    /// `Some(evicted_dirty)` if a valid line was evicted, `None` otherwise.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<bool> {
        let (set, tag) = self.locate(addr);
        if let Some(pos) = Self::find(set, tag) {
            // Already present (e.g. refill after a race): refresh.
            Self::promote(set, pos, dirty);
            return None;
        }
        let last = set.len() - 1;
        let victim = set[last];
        set[last] = tag << 1 | u64::from(dirty);
        Self::promote(set, last, false);
        (victim != EMPTY).then_some(victim & 1 == 1)
    }

    /// Removes the line containing `addr` if present (no writeback: the
    /// contents are assumed stale). Returns whether it was present.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        match Self::find(set, tag) {
            Some(pos) => {
                for i in pos..set.len() - 1 {
                    set[i] = set[i + 1];
                }
                set[set.len() - 1] = EMPTY;
                true
            }
            None => false,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemConfig;

    /// The original directory — one `Vec` of ways per set, MRU first,
    /// updated with `remove` + `insert` — kept as the reference model for
    /// the packed [`Cache`].
    struct RefCache {
        assoc: usize,
        sets: Vec<Vec<(u64, bool)>>,
        set_mask: u64,
        line_shift: u32,
    }

    impl RefCache {
        fn new(cfg: CacheConfig) -> Self {
            let nsets = cfg.sets();
            RefCache {
                assoc: cfg.assoc,
                sets: vec![Vec::with_capacity(cfg.assoc); nsets],
                set_mask: nsets as u64 - 1,
                line_shift: cfg.line.trailing_zeros(),
            }
        }

        fn locate(&self, addr: u64) -> (usize, u64) {
            let line = addr >> self.line_shift;
            (
                (line & self.set_mask) as usize,
                line >> self.sets.len().trailing_zeros(),
            )
        }

        fn probe(&mut self, addr: u64, write: bool) -> bool {
            let (set, tag) = self.locate(addr);
            let ways = &mut self.sets[set];
            match ways.iter().position(|w| w.0 == tag) {
                Some(pos) => {
                    let (t, d) = ways.remove(pos);
                    ways.insert(0, (t, d | write));
                    true
                }
                None => false,
            }
        }

        fn fill(&mut self, addr: u64, dirty: bool) -> Option<bool> {
            let (set, tag) = self.locate(addr);
            let assoc = self.assoc;
            let ways = &mut self.sets[set];
            if let Some(pos) = ways.iter().position(|w| w.0 == tag) {
                let (t, d) = ways.remove(pos);
                ways.insert(0, (t, d | dirty));
                return None;
            }
            let evicted = if ways.len() >= assoc {
                ways.pop().map(|w| w.1)
            } else {
                None
            };
            ways.insert(0, (tag, dirty));
            evicted
        }

        fn invalidate(&mut self, addr: u64) -> bool {
            let (set, tag) = self.locate(addr);
            let ways = &mut self.sets[set];
            match ways.iter().position(|w| w.0 == tag) {
                Some(pos) => {
                    ways.remove(pos);
                    true
                }
                None => false,
            }
        }
    }

    /// SplitMix64: a tiny seeded generator for the differential test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn packed_directory_matches_reference_model() {
        let tiny = MemConfig::tiny();
        let ppro = MemConfig::pentium_pro_like();
        for (cfg, seed) in [(tiny.l1, 1u64), (tiny.l2, 2), (ppro.l1, 3), (ppro.l2, 4)] {
            let mut packed = Cache::new(cfg);
            let mut reference = RefCache::new(cfg);
            let mut rng = seed;
            // Addresses span 4x the capacity so sets overflow and evict.
            let span = 4 * cfg.size as u64;
            for step in 0..200_000 {
                let r = splitmix(&mut rng);
                let addr = (r >> 8) % span;
                let flag = r & 1 == 1;
                let (got, want) = match (r >> 1) % 3 {
                    0 => (
                        packed.probe(addr, flag) as u8,
                        reference.probe(addr, flag) as u8,
                    ),
                    1 => {
                        let enc = |e: Option<bool>| e.map_or(0, |d| 1 + d as u8);
                        (
                            enc(packed.fill(addr, flag)),
                            enc(reference.fill(addr, flag)),
                        )
                    }
                    _ => (
                        packed.invalidate(addr) as u8,
                        reference.invalidate(addr) as u8,
                    ),
                };
                assert_eq!(got, want, "{cfg:?}: step {step}, addr {addr:#x}");
            }
        }
    }

    fn small() -> Cache {
        // 4 sets x 2 ways x 32 B lines = 256 B.
        Cache::new(CacheConfig {
            size: 256,
            line: 32,
            assoc: 2,
        })
    }

    #[test]
    fn sets_computation() {
        let cfg = CacheConfig {
            size: 8 << 10,
            line: 32,
            assoc: 2,
        };
        assert_eq!(cfg.sets(), 128);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.probe(64, false));
        assert_eq!(c.fill(64, false), None);
        assert!(c.probe(64, false));
        assert!(c.probe(95, false)); // same line
        assert!(!c.probe(96, false)); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to set 0: line numbers 0, 4, 8 (4 sets).
        c.fill(0, false);
        c.fill(4 * 32, false);
        // Touch line 0 so line 4 becomes LRU.
        assert!(c.probe(0, false));
        let evicted = c.fill(8 * 32, false);
        assert_eq!(evicted, Some(false));
        assert!(c.probe(0, false)); // survived
        assert!(!c.probe(4 * 32, false)); // evicted
        assert!(c.probe(8 * 32, false));
    }

    #[test]
    fn dirty_bit_reported_on_eviction() {
        let mut c = small();
        c.fill(0, true);
        c.fill(4 * 32, false);
        let evicted = c.fill(8 * 32, false); // evicts line 0 (LRU, dirty)
        assert_eq!(evicted, Some(true));
    }

    #[test]
    fn write_probe_dirties() {
        let mut c = small();
        c.fill(0, false);
        assert!(c.probe(0, true)); // line 0 now MRU and dirty
        c.fill(4 * 32, false); // set: [4 (MRU), 0]
        let evicted = c.fill(8 * 32, false); // evicts line 0 (dirtied)
        assert_eq!(evicted, Some(true));
        let evicted = c.fill(12 * 32, false); // evicts line 4 (clean)
        assert_eq!(evicted, Some(false));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.fill(0, true);
        assert!(c.invalidate(0));
        assert!(!c.probe(0, false));
        assert!(!c.invalidate(0));
    }

    #[test]
    fn refill_refreshes_not_duplicates() {
        let mut c = small();
        c.fill(0, false);
        c.fill(0, true); // refill same line
        c.fill(4 * 32, false);
        // Set 0 holds exactly 2 lines; a third fill must evict one.
        let e = c.fill(8 * 32, false);
        assert!(e.is_some());
    }

    #[test]
    fn smallest_geometry_covers_every_address() {
        // 1-byte lines in 4 sets: the tag is the address's top 62 bits.
        let mut c = Cache::new(CacheConfig {
            size: 4,
            line: 1,
            assoc: 1,
        });
        assert_eq!(c.fill(u64::MAX, true), None);
        assert!(c.probe(u64::MAX, false));
        assert!(!c.probe(u64::MAX - 4, false));
        assert_eq!(c.fill(u64::MAX - 4, false), Some(true));
        assert!(c.invalidate(u64::MAX - 4));
    }

    #[test]
    #[should_panic(expected = "at least 4 bytes")]
    fn two_byte_way_rejected() {
        let _ = Cache::new(CacheConfig {
            size: 2,
            line: 1,
            assoc: 1,
        });
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            size: 100,
            line: 32,
            assoc: 2,
        });
    }
}
