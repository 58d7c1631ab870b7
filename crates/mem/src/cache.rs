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

/// What [`Cache::access`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was resident.
    Hit,
    /// The line was not resident and is now installed, over a valid line
    /// (`Some(victim_dirty)`) or an empty slot (`None`).
    Miss(Option<bool>),
}

/// The directory as fixed-width sets, one variant per supported
/// associativity, so every set scan has a compile-time length.
#[derive(Debug)]
enum Sets {
    W1(Vec<[u64; 1]>),
    W2(Vec<[u64; 2]>),
    W4(Vec<[u64; 4]>),
}

/// Evaluates `$body` with `$sets` bound to the directory's `&mut
/// Vec<[u64; W]>`, whatever its width `W`.
macro_rules! with_sets {
    ($dir:expr, |$sets:ident| $body:expr) => {
        match $dir {
            Sets::W1($sets) => $body,
            Sets::W2($sets) => $body,
            Sets::W4($sets) => $body,
        }
    };
}

/// A set-associative LRU cache over 64-bit addresses.
///
/// # Example
///
/// ```rust
/// use ssm_mem::{Access, Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { size: 128, line: 32, assoc: 2 });
/// assert_eq!(c.access(0, false), Access::Miss(None)); // cold
/// assert_eq!(c.access(0, false), Access::Hit); // installed by the miss
/// ```
#[derive(Debug)]
pub struct Cache {
    /// Within a set the valid lines come first, most-recently-used first,
    /// and [`EMPTY`] slots fill the tail.
    sets: Sets,
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
    /// the set count is not a power of two, if `line * sets` is below 4
    /// bytes (the packed directory needs two address bits below the tag),
    /// or if the associativity is not 1, 2 or 4.
    pub fn new(cfg: CacheConfig) -> Self {
        let nsets = cfg.sets();
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        let line_shift = cfg.line.trailing_zeros();
        let set_shift = nsets.trailing_zeros();
        assert!(
            line_shift + set_shift >= 2,
            "a way must span at least 4 bytes (line * sets)"
        );
        let sets = match cfg.assoc {
            1 => Sets::W1(vec![[EMPTY; 1]; nsets]),
            2 => Sets::W2(vec![[EMPTY; 2]; nsets]),
            4 => Sets::W4(vec![[EMPTY; 4]; nsets]),
            n => panic!("unsupported associativity {n} (1, 2 or 4)"),
        };
        Cache {
            sets,
            set_mask: nsets as u64 - 1,
            line_shift,
            set_shift,
        }
    }

    /// The index of the set `addr` maps to, and the line's tag.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.set_shift)
    }

    /// Looks up `addr` and, on a miss, installs its line, in one scan of
    /// its set. Either way the line ends most-recently-used, with `dirty`
    /// ORed into its dirty bit.
    #[inline(always)]
    pub fn access(&mut self, addr: u64, dirty: bool) -> Access {
        let (i, tag) = self.locate(addr);
        with_sets!(&mut self.sets, |s| access(&mut s[i], tag, dirty))
    }

    /// Looks up `addr`; on a hit, refreshes LRU order and (for writes) sets
    /// the dirty bit. Returns whether it hit. A miss installs nothing.
    pub fn probe(&mut self, addr: u64, write: bool) -> bool {
        let (i, tag) = self.locate(addr);
        with_sets!(&mut self.sets, |s| find(&s[i], tag)
            .map(|pos| promote(&mut s[i], pos, write))
            .is_some())
    }

    /// Installs the line containing `addr` (MRU position), or refreshes it
    /// if already present. Returns `Some(evicted_dirty)` if a valid line
    /// was evicted, `None` otherwise.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<bool> {
        match self.access(addr, dirty) {
            Access::Hit => None,
            Access::Miss(evicted) => evicted,
        }
    }

    /// Removes every line of `[addr, addr+len)` that is present (no
    /// writeback: the contents are assumed stale); returns how many were.
    /// Consecutive lines under one tag map to consecutive sets until the
    /// set index wraps, so each such run is one scan over a slice of sets.
    /// Most runs hold no resident line, so every slot of a run is first
    /// compared with the tag in one pass with no early exit (a loop that
    /// vectorises), and the run's sets are edited only on a match.
    pub fn invalidate_range(&mut self, addr: u64, len: u64) -> usize {
        if len == 0 {
            return 0;
        }
        let mut line = addr >> self.line_shift;
        let last = (addr + len - 1) >> self.line_shift;
        let mut removed = 0;
        loop {
            let run_end = last.min(line | self.set_mask);
            let (first_set, tag) = self.locate(line << self.line_shift);
            let run = first_set..=first_set + (run_end - line) as usize;
            removed += with_sets!(&mut self.sets, |s| {
                let sets = &mut s[run];
                if holds(sets, tag) {
                    sets.iter_mut()
                        .map(|set| usize::from(invalidate(set, tag)))
                        .sum::<usize>()
                } else {
                    0
                }
            });
            if run_end == last {
                return removed;
            }
            line = run_end + 1;
        }
    }
}

/// Position of `tag` in `set`, if present. [`EMPTY`] never matches: its
/// tag half exceeds every real tag.
#[inline]
fn find<const W: usize>(set: &[u64; W], tag: u64) -> Option<usize> {
    set.iter().position(|&s| s >> 1 == tag)
}

/// Moves the slot at `pos` to the front of `set` (MRU), shifting the slots
/// before it back by one, and ORs `dirty` into it.
#[inline]
fn promote<const W: usize>(set: &mut [u64; W], pos: usize, dirty: bool) {
    let slot = set[pos] | u64::from(dirty);
    set.copy_within(0..pos, 1);
    set[0] = slot;
}

/// [`Cache::access`] on one set: a hit is promoted; a miss shifts every
/// slot back by one, dropping the LRU slot, and installs `tag` at the front.
#[inline]
fn access<const W: usize>(set: &mut [u64; W], tag: u64, dirty: bool) -> Access {
    if let Some(pos) = find(set, tag) {
        promote(set, pos, dirty);
        return Access::Hit;
    }
    let victim = set[W - 1];
    set.copy_within(0..W - 1, 1);
    set[0] = tag << 1 | u64::from(dirty);
    Access::Miss((victim != EMPTY).then_some(victim & 1 == 1))
}

/// Whether any slot of `sets` holds `tag`. Every slot is compared, with no
/// early exit, so the loop vectorises.
#[inline]
fn holds<const W: usize>(sets: &[[u64; W]], tag: u64) -> bool {
    sets.as_flattened()
        .iter()
        .fold(false, |any, &slot| any | (slot >> 1 == tag))
}

/// [`Cache::invalidate_range`] on one set: removes `tag`, closing the gap so the
/// [`EMPTY`] slots stay at the tail.
#[inline]
fn invalidate<const W: usize>(set: &mut [u64; W], tag: u64) -> bool {
    let found = find(set, tag);
    if let Some(pos) = found {
        set.copy_within(pos + 1.., pos);
        set[W - 1] = EMPTY;
    }
    found.is_some()
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
        let four_sets_4way = CacheConfig {
            size: 512,
            line: 32,
            assoc: 4,
        };
        let configs = [
            (tiny.l1, 1u64), // 1-way, 8 sets
            (tiny.l2, 2),    // 2-way, 16 sets
            (ppro.l1, 3),    // 2-way, 128 sets
            (ppro.l2, 4),    // 4-way, 2048 sets
            (four_sets_4way, 5),
        ];
        for (cfg, seed) in configs {
            let mut packed = Cache::new(cfg);
            let mut reference = RefCache::new(cfg);
            let mut rng = seed;
            let line = cfg.line as u64;
            let nsets = cfg.sets() as u64;
            let set_mask = nsets - 1;
            // Addresses span 4x the capacity so sets overflow and evict.
            let span = 4 * cfg.size as u64;
            let enc = |e: Option<bool>| e.map_or(0, |d| 1 + d as usize);
            for step in 0..200_000 {
                let r = splitmix(&mut rng);
                let addr = (r >> 8) % span;
                let flag = r & 1 == 1;
                let (got, want) = match (r >> 1) % 7 {
                    0 => (
                        packed.probe(addr, flag) as usize,
                        reference.probe(addr, flag) as usize,
                    ),
                    1 => (
                        enc(packed.fill(addr, flag)),
                        enc(reference.fill(addr, flag)),
                    ),
                    2 => {
                        let hit = reference.probe(addr, flag);
                        let want = if hit {
                            Access::Hit
                        } else {
                            Access::Miss(reference.fill(addr, flag))
                        };
                        let got = packed.access(addr, flag);
                        assert_eq!(got, want, "{cfg:?}: step {step}, access {addr:#x}");
                        (0, 0)
                    }
                    3 => (
                        packed.invalidate_range(addr, 1),
                        reference.invalidate(addr) as usize,
                    ),
                    k @ (5 | 6) => {
                        // A wrap-free run of up to 16 lines, emptied, whose
                        // sets then get lines of other tags. Case 5 leaves
                        // the run without a resident line, so `holds` must
                        // reject it; case 6 first puts the run's last line
                        // back and pushes it to the last slot of its set.
                        let len = 1 + (r >> 40) % nsets.min(16);
                        let idx = (addr / line) & set_mask;
                        let first = addr / line - idx + idx.min(nsets - len);
                        let (start, bytes) = (first * line, len * line);
                        let cleared = (first..first + len)
                            .filter(|l| reference.invalidate(l * line))
                            .count();
                        assert_eq!(packed.invalidate_range(start, bytes), cleared);
                        let lines = first..first + len;
                        let others: Vec<u64> = if k == 6 {
                            let last = first + len - 1;
                            let a = last * line;
                            assert_eq!(packed.fill(a, flag), reference.fill(a, flag));
                            (1..cfg.assoc as u64).map(|w| last + w * nsets).collect()
                        } else {
                            lines
                                .filter(|l| l % 3 != r % 3)
                                .map(|l| l + nsets)
                                .collect()
                        };
                        for a in others.into_iter().map(|l| l * line) {
                            assert_eq!(packed.fill(a, flag), reference.fill(a, flag));
                        }
                        let (set, tag) = packed.locate(start);
                        let run = set..set + len as usize;
                        let held = with_sets!(&packed.sets, |s| holds(&s[run], tag));
                        assert_eq!(held, k == 6, "{cfg:?}: step {step}, run at {start:#x}");
                        (
                            packed.invalidate_range(start, bytes),
                            (first..first + len)
                                .filter(|l| reference.invalidate(l * line))
                                .count(),
                        )
                    }
                    _ => {
                        // A range starting up to 15 lines before a set-index
                        // wrap and up to 48 lines long, at any byte offset.
                        let start = ((addr / line) | set_mask).saturating_sub((r >> 40) % 16);
                        let start = start * line + (r >> 48) % line;
                        let len = 1 + (r >> 52) % (48 * line);
                        let lines = start / line..=(start + len - 1) / line;
                        (
                            packed.invalidate_range(start, len),
                            lines.filter(|l| reference.invalidate(l * line)).count(),
                        )
                    }
                };
                assert_eq!(got, want, "{cfg:?}: step {step}, addr {addr:#x}");
            }
            for a in (0..span).step_by(cfg.line) {
                assert_eq!(
                    packed.probe(a, false),
                    reference.probe(a, false),
                    "{cfg:?}: {a:#x}"
                );
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
        assert_eq!(c.invalidate_range(0, 1), 1);
        assert!(!c.probe(0, false));
        assert_eq!(c.invalidate_range(0, 32), 0);
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
        assert_eq!(c.invalidate_range(u64::MAX - 4, 1), 1);
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
    #[should_panic(expected = "unsupported associativity 3")]
    fn three_way_rejected() {
        let _ = Cache::new(CacheConfig {
            size: 3 * 4 * 32,
            line: 32,
            assoc: 3,
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
