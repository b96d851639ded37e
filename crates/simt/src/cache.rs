//! A small set-associative LRU cache simulator.
//!
//! Used for the per-SM texture cache (both devices) and the Fermi L1.
//! Determinism matters more than cycle-accuracy here: the paper's texture
//! wins come from read-only spatial locality, which set-associative LRU
//! captures.
//!
//! An access costs no divide: the line is a shift (line sizes are powers
//! of two) and the set index is `SetIndex::of`, one exact remainder by
//! multiplication that serves every set count alike, so a 48-set Fermi L1
//! indexes the same way as a 32-set texture cache.
//!
//! A lookup compares the line with every way of its set and keeps the
//! match, with no early exit: the ways are few (8), and a scan whose trip
//! count does not depend on where the line sits has no exit branch to
//! mispredict when hits move between ways (end to end it ran faster than
//! the early exit). A line sits in at most one way, so the match is the
//! one the early exit found.
//!
//! **Age bytes.** A set's LRU order is one `u64`: byte `w` holds way
//! `w`'s age, 0 for the most recent and `ways - 1` for the next victim,
//! so the ages of a set's ways are always a permutation of `0..ways`
//! (bytes above `ways` hold `0xFF` and take part in nothing). A hit on a
//! way of age `a` ages every way younger than `a` by one and sets its own
//! to 0, one SWAR compare and add; a miss fills the way of age
//! `ways - 1`, found with the zero-byte trick, and ages every other way
//! by one. That is exactly the LRU of per-way time stamps: the order of
//! the ages is the order of the stamps, and the victim is the way whose
//! stamp is oldest. A reset set starts at ages `ways - 1, ways - 2, …, 0`
//! for ways `0, 1, …`, so an empty set fills way 0 first, then way 1 and
//! so on, as stamps that all start at 0 with ties going to the lowest way
//! do; and an invalid way stays older than every valid one, because only
//! a hit on a valid way or a fill reorders ages. Ways are at most 8, one
//! byte each; [`Cache::new`] refuses more.
//!
//! **Repeat-line rule.** An access to the line the previous access touched
//! is a hit on the most recent way of its set, whose age is already 0, so
//! the lookup would change no age. Such an access only counts the hit: no
//! set lookup, no aging. Consecutive lanes of a
//! contiguous load fall in one line most of the time (8 f32 lanes per
//! 32-byte texture line), so most accesses take this path. The hit/miss
//! sequence, the counters and every later victim are those of the full
//! lookup.

/// Set-associative LRU cache over byte addresses.
#[derive(Debug, Clone)]
pub struct Cache {
    line_shift: u32,
    sets: usize,
    set_index: SetIndex,
    ways: usize,
    /// `tags[set * ways + way]` = line tag; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// `ages[set]`: byte `w` is way `w`'s age (see the module docs).
    ages: Vec<u64>,
    /// The ages of a reset set.
    fresh: u64,
    /// 1 in every way's byte.
    ones: u64,
    /// Line of the previous access, if any since the last `reset`.
    last_line: Option<u64>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache of `capacity_bytes` with `line_bytes` lines and
    /// `ways`-way associativity. Capacity is rounded down to a whole number
    /// of sets; a zero-capacity cache is legal and always misses. Panics
    /// unless `1 <= ways <= 8` (one age byte per way).
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!((1..=8).contains(&ways), "a cache has 1 to 8 ways (one age byte each), not {ways}");
        let lines = (capacity_bytes / line_bytes) as usize;
        let sets = (lines / ways).max(if lines == 0 { 0 } else { 1 });
        // Way `w` starts at age `ways - 1 - w`; unused bytes hold 0xFF.
        let fresh = (0..8).fold(0u64, |ages, w| {
            let age = if w < ways { (ways - 1 - w) as u64 } else { 0xFF };
            ages | age << (8 * w)
        });
        Cache {
            line_shift: line_bytes.trailing_zeros(),
            sets,
            // A zero-set cache never indexes.
            set_index: SetIndex::new(sets.max(1) as u64),
            ways,
            tags: vec![u64::MAX; sets * ways],
            ages: vec![fresh; sets],
            fresh,
            ones: BYTES >> (8 * (8 - ways)),
            last_line: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Access `addr`; returns `true` on hit. Misses fill the line. A
    /// repeat of the previous access's line is a hit with no lookup (see
    /// the module docs).
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        if self.last_line == Some(line) {
            self.hits += 1;
            return true;
        }
        self.lookup(line)
    }

    /// The set lookup of an access that does not repeat the previous line
    /// (kept out of line so the repeat check inlines into lane loops).
    #[inline(never)]
    fn lookup(&mut self, line: u64) -> bool {
        if self.sets == 0 {
            self.misses += 1;
            return false;
        }
        self.last_line = Some(line);
        let set = self.set_index.of(line) as usize;
        let base = set * self.ways;
        // Hit? Every way is compared (see the module docs).
        let tags = &self.tags[base..base + self.ways];
        let hit =
            (0..tags.len()).fold(usize::MAX, |hit, way| if tags[way] == line { way } else { hit });
        let ages = &mut self.ages[set];
        if hit != usize::MAX {
            // Age every way younger than the hit one: a byte `b` is below
            // `age` exactly when `(b | 0x80) - age` clears its top bit
            // (no byte borrows, as `age <= 7`; 0xFF bytes never qualify).
            let age = (*ages >> (8 * hit)) & 0xFF;
            let younger = !((*ages | TOPS) - age * BYTES) & TOPS;
            *ages = (*ages & !(0xFF << (8 * hit))) + (younger >> 7);
            self.hits += 1;
            return true;
        }
        // Miss: fill the way of age `ways - 1`, the lowest zero byte of
        // `ages ^ (ways - 1)` (the zero-byte trick is exact for the lowest
        // one, and exactly one way holds that age), and age the others.
        let oldest = *ages ^ ((self.ways as u64 - 1) * BYTES);
        let victim =
            (((oldest.wrapping_sub(BYTES) & !oldest & TOPS).trailing_zeros()) / 8) as usize;
        *ages = (*ages + self.ones) & !(0xFF << (8 * victim));
        self.tags[base + victim] = line;
        self.misses += 1;
        false
    }

    /// (hits, misses) so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Clear contents and counters (between kernel launches).
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.ages.fill(self.fresh);
        self.last_line = None;
        self.hits = 0;
        self.misses = 0;
    }
}

/// 1 in every byte of a `u64`.
const BYTES: u64 = 0x0101_0101_0101_0101;

/// The top bit of every byte of a `u64`.
const TOPS: u64 = 0x8080_8080_8080_8080;

/// `line % sets` without a divide, exact for every u64 `line` and every
/// `sets >= 1` (Lemire, Kaser & Kurz, "Faster remainder by direct
/// computation", 2019): with `m = ceil(2^128 / sets)` — which wraps to 0
/// for `sets == 1`, whose remainder is always 0 — the remainder is the
/// top 64 bits of `(m * line mod 2^128) * sets`.
#[derive(Debug, Clone, Copy)]
struct SetIndex {
    m: u128,
    sets: u64,
}

impl SetIndex {
    fn new(sets: u64) -> Self {
        assert!(sets >= 1);
        SetIndex { m: (u128::MAX / sets as u128).wrapping_add(1), sets }
    }

    #[inline]
    fn of(&self, line: u64) -> u64 {
        let frac = self.m.wrapping_mul(line as u128);
        let sets = self.sets as u128;
        // (frac * sets) >> 128 from two 128-bit products; the sum cannot
        // overflow because (2^64 - 1)^2 + 2^64 < 2^128.
        let high = (frac >> 64) * sets + (((frac as u64) as u128 * sets) >> 64);
        (high >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_access_hits_within_lines() {
        let mut c = Cache::new(1024, 32, 4);
        // 8 accesses per 32B line at 4B stride: 1 miss + 7 hits.
        for i in 0..8u64 {
            let hit = c.access(i * 4);
            assert_eq!(hit, i != 0);
        }
        assert_eq!(c.counters(), (7, 1));
    }

    #[test]
    fn capacity_eviction() {
        // 2 lines total, direct-ish: 1 set x 2 ways of 32B.
        let mut c = Cache::new(64, 32, 2);
        assert!(!c.access(0)); // line 0
        assert!(!c.access(32)); // line 1
        assert!(c.access(0)); // still resident
        assert!(!c.access(64)); // evicts LRU (line 1)
        assert!(c.access(0)); // line 0 stays (recently used)
        assert!(!c.access(32)); // was evicted
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut c = Cache::new(0, 32, 4);
        assert!(!c.access(0));
        assert!(!c.access(0));
        assert_eq!(c.counters(), (0, 2));
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = Cache::new(128, 32, 2);
        c.access(0);
        c.access(0);
        assert_eq!(c.counters(), (1, 1));
        c.reset();
        assert_eq!(c.counters(), (0, 0));
        assert!(!c.access(0));
    }

    #[test]
    fn set_index_is_the_exact_remainder() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let edges = [0, 1, 2, 47, 48, 49, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        for sets in [1, 2, 3, 7, 32, 48, 64, 1000, u32::MAX as u64 + 3, u64::MAX - 1, u64::MAX] {
            let index = SetIndex::new(sets);
            let random: Vec<u64> = (0..2000).map(|i| next() >> (i % 64)).collect();
            for line in edges.into_iter().chain(random) {
                assert_eq!(index.of(line), line % sets, "{line} % {sets}");
            }
        }
    }

    /// The lookup without the repeat-line path: every access scans its
    /// set and restamps the way it hits or fills.
    struct ReferenceLru {
        line_shift: u32,
        sets: u64,
        ways: usize,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl ReferenceLru {
        fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Self {
            let lines = (capacity_bytes / line_bytes) as usize;
            let sets = (lines / ways).max(if lines == 0 { 0 } else { 1 });
            ReferenceLru {
                line_shift: line_bytes.trailing_zeros(),
                sets: sets as u64,
                ways,
                tags: vec![u64::MAX; sets * ways],
                stamps: vec![0; sets * ways],
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            if self.sets == 0 {
                self.misses += 1;
                return false;
            }
            self.tick += 1;
            let line = addr >> self.line_shift;
            let base = (line % self.sets) as usize * self.ways;
            for way in 0..self.ways {
                if self.tags[base + way] == line {
                    self.stamps[base + way] = self.tick;
                    self.hits += 1;
                    return true;
                }
            }
            let mut victim = 0;
            for way in 1..self.ways {
                if self.stamps[base + way] < self.stamps[base + victim] {
                    victim = way;
                }
            }
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.tick;
            self.misses += 1;
            false
        }
    }

    /// Address streams that exercise the repeat-line path and the full
    /// lookup alike: random addresses over a few times the capacity,
    /// strides below, at and above a line, and runs of one address.
    fn streams(capacity: u64) -> Vec<(String, Vec<u64>)> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let span = 4 * capacity.max(64);
        let mut out = vec![("random".to_string(), (0..4000).map(|_| next() % span).collect())];
        for stride in [4, 12, 32, 36, 128, 4096] {
            let addrs = (0..4000u64).map(|i| (i * stride) % span).collect();
            out.push((format!("stride {stride}"), addrs));
        }
        let repeating = (0..4000u64).map(|i| (i / 5) * 4 % span).collect();
        out.push(("runs of 5".to_string(), repeating));
        let mixed =
            (0..4000).map(|i| if i % 3 == 2 { next() % span } else { (i / 2) * 4 }).collect();
        out.push(("pairs between random".to_string(), mixed));
        out
    }

    /// The age-byte LRU and its repeat-line path against the stamped
    /// reference, access by access: every way count and line size the
    /// byte packing allows, set counts that index by a power of two or
    /// not, every stream, then the reversed stream after a `reset`.
    #[test]
    fn age_byte_lru_matches_the_reference_lru() {
        for line in [32, 128] {
            for ways in 1..=8 {
                for sets in [1, 2, 3, 16, 32, 48] {
                    let capacity = line * ways as u64 * sets;
                    let mut fast = Cache::new(capacity, line, ways);
                    for (name, addrs) in streams(capacity) {
                        let reversed: Vec<u64> = addrs.iter().rev().copied().collect();
                        for (pass, stream) in [("forward", &addrs), ("reversed", &reversed)] {
                            let case = format!("{line}B lines, {ways} ways, {sets} sets, {name}");
                            fast.reset();
                            let mut reference = ReferenceLru::new(capacity, line, ways);
                            for (i, &a) in stream.iter().enumerate() {
                                let want = reference.access(a);
                                assert_eq!(
                                    fast.access(a),
                                    want,
                                    "{case} {pass}: access {i} ({a:#x})"
                                );
                            }
                            let want = (reference.hits, reference.misses);
                            assert_eq!(fast.counters(), want, "{case} {pass}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1 to 8 ways")]
    fn more_than_eight_ways_is_refused() {
        let _ = Cache::new(32 * 16, 32, 16);
    }

    #[test]
    fn reset_forgets_the_repeat_line() {
        let mut c = Cache::new(1024, 32, 4);
        assert!(!c.access(64));
        assert!(c.access(68));
        c.reset();
        assert!(!c.access(68), "the line was flushed, so its repeat must miss");
        assert_eq!(c.counters(), (0, 1));
    }

    #[test]
    fn zero_capacity_misses_repeats_too() {
        let mut c = Cache::new(0, 32, 4);
        for _ in 0..4 {
            assert!(!c.access(8));
        }
        assert_eq!(c.counters(), (0, 4));
    }

    #[test]
    fn lru_prefers_oldest_victim() {
        let mut c = Cache::new(64, 32, 2); // one set, two ways
        c.access(0); // A
        c.access(32); // B
        c.access(0); // touch A
        c.access(64); // C evicts B (LRU)
        assert!(c.access(0), "A must survive");
        assert!(c.access(64), "C resident");
    }
}
