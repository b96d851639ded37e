//! Active-lane masks.
//!
//! A [`Mask`] holds one bit per thread of a block. All SIMT control flow in
//! the simulator is expressed through masks: `if_else` intersects them,
//! `loop_while` iterates while any lane remains active, and every operation
//! charges issue cycles only for *warps* that still have at least one
//! active lane — which is exactly how divergence costs on hardware.
//!
//! Masks are built, counted and compared a 64-lane word at a time; bits
//! past `len` in the last word are always zero, so whole-word counts never
//! see a lane that does not exist. [`Mask::for_each_lane`] is the one lane
//! loop every lane-wise op of [`crate::block::BlockCtx`] runs through. A
//! full mask takes a plain counted loop over every lane, which the
//! compiler can vectorise; any other mask walks its set bits. Both paths
//! visit the same lanes in the same increasing order, so they are the same
//! op: an op body is written once and cannot tell which path ran it.

use crate::pool::PoolItem;

/// One bit per lane of a thread block (lane 0 = bit 0 of word 0).
///
/// Backing storage recycles through the thread-local pool in
/// [`crate::pool`]: masks are created and dropped once per simulated
/// branch, so pooling removes an allocator round-trip from every
/// structured-control-flow operation.
#[derive(Debug, PartialEq, Eq)]
pub struct Mask {
    bits: Vec<u64>,
    len: usize,
}

impl Clone for Mask {
    fn clone(&self) -> Self {
        let mut bits = u64::take(self.bits.len());
        bits.copy_from_slice(&self.bits);
        Mask { bits, len: self.len }
    }
}

impl Drop for Mask {
    fn drop(&mut self) {
        u64::put(std::mem::take(&mut self.bits));
    }
}

/// Lanes per warp; fixed at 32 across every CUDA generation we model.
pub const WARP: usize = 32;

impl Mask {
    /// All lanes active.
    pub fn all(len: usize) -> Self {
        let mut bits = u64::take(len.div_ceil(64));
        bits.fill(u64::MAX);
        Self::trim(&mut bits, len);
        Mask { bits, len }
    }

    /// No lanes active.
    pub fn none(len: usize) -> Self {
        Mask { bits: u64::take(len.div_ceil(64)), len }
    }

    /// Build from a predicate over lane indices (called once per lane, in
    /// increasing order).
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut bits = u64::take(len.div_ceil(64));
        for (wi, word) in bits.iter_mut().enumerate() {
            let base = wi * 64;
            for b in 0..(len - base).min(64) {
                *word |= (f(base + b) as u64) << b;
            }
        }
        Mask { bits, len }
    }

    /// The active lanes of `self` whose bit is set in `word(wi)`, the
    /// comparison result for lanes `64 * wi ..`; `word` runs only for
    /// words with an active lane.
    #[inline(always)]
    pub(crate) fn filter_words(&self, mut word: impl FnMut(usize) -> u64) -> Mask {
        let mut bits = u64::take(self.bits.len());
        for (wi, (out, &act)) in bits.iter_mut().zip(&self.bits).enumerate() {
            if act != 0 {
                *out = act & word(wi);
            }
        }
        Mask { bits, len: self.len }
    }

    fn trim(bits: &mut [u64], len: usize) {
        let extra = bits.len() * 64 - len;
        if extra > 0 {
            let last = bits.len() - 1;
            bits[last] &= u64::MAX >> extra;
        }
    }

    /// Number of lanes this mask covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no lanes are covered (empty block — not "no active lanes").
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lane state.
    #[inline]
    pub fn get(&self, lane: usize) -> bool {
        debug_assert!(lane < self.len);
        (self.bits[lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// Set lane state.
    #[inline]
    pub fn set(&mut self, lane: usize, v: bool) {
        debug_assert!(lane < self.len);
        if v {
            self.bits[lane / 64] |= 1 << (lane % 64);
        } else {
            self.bits[lane / 64] &= !(1 << (lane % 64));
        }
    }

    /// Any lane active?
    pub fn any(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }

    /// Number of active lanes.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Every lane active?
    #[inline]
    pub fn is_full(&self) -> bool {
        let Some((&last, whole)) = self.bits.split_last() else {
            return true;
        };
        whole.iter().all(|&w| w == u64::MAX)
            && last == u64::MAX >> (self.bits.len() * 64 - self.len)
    }

    /// The backing words (lane `l` is bit `l % 64` of word `l / 64`).
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Keep, in place, the active lanes for which `keep(lane)` holds, asked
    /// once per active lane in increasing order; `word(old, new)` sees each
    /// word that had an active lane, before and after.
    #[inline(always)]
    pub(crate) fn retain(
        &mut self,
        mut keep: impl FnMut(usize) -> bool,
        mut word: impl FnMut(u64, u64),
    ) {
        for (wi, w) in self.bits.iter_mut().enumerate() {
            let old = *w;
            if old == 0 {
                continue;
            }
            walk_bits(old, 0, &mut |b| *w &= !((!keep(wi * 64 + b) as u64) << b));
            word(old, *w);
        }
    }

    /// Call `f` on every active lane, in increasing order: a counted loop
    /// over all lanes when the mask is full, a walk over the set bits
    /// otherwise. See the module docs for why the two are one op.
    #[inline(always)]
    pub fn for_each_lane(&self, mut f: impl FnMut(usize)) {
        if self.is_full() {
            (0..self.len).for_each(f);
        } else {
            for (wi, &w) in self.bits.iter().enumerate() {
                walk_bits(w, wi * 64, &mut f);
            }
        }
    }

    fn zip_with(&self, other: &Mask, f: impl Fn(u64, u64) -> u64) -> Mask {
        debug_assert_eq!(self.len, other.len);
        let mut bits = u64::take(self.bits.len());
        for ((o, &a), &b) in bits.iter_mut().zip(&self.bits).zip(&other.bits) {
            *o = f(a, b);
        }
        Mask { bits, len: self.len }
    }

    /// Lane-wise AND.
    pub fn and(&self, other: &Mask) -> Mask {
        self.zip_with(other, |a, b| a & b)
    }

    /// Lane-wise OR.
    pub fn or(&self, other: &Mask) -> Mask {
        self.zip_with(other, |a, b| a | b)
    }

    /// Lane-wise AND NOT (`self & !other`).
    pub fn and_not(&self, other: &Mask) -> Mask {
        self.zip_with(other, |a, b| a & !b)
    }

    /// Complement within the block.
    pub fn not(&self) -> Mask {
        let mut bits = u64::take(self.bits.len());
        for (o, &a) in bits.iter_mut().zip(&self.bits) {
            *o = !a;
        }
        Self::trim(&mut bits, self.len);
        Mask { bits, len: self.len }
    }

    /// Number of warps the block spans (including trailing partial warp).
    pub fn warp_count(&self) -> usize {
        self.len.div_ceil(WARP)
    }

    /// The 32-bit activity pattern of warp `w`.
    pub fn warp_bits(&self, w: usize) -> u32 {
        let lane0 = w * WARP;
        debug_assert!(lane0 < self.len);
        let word = self.bits[lane0 / 64];
        let shifted = (word >> (lane0 % 64)) as u32;
        // A warp never straddles a u64 boundary (32 | 64).
        let width = (self.len - lane0).min(WARP);
        if width == WARP {
            shifted
        } else {
            shifted & ((1u32 << width) - 1)
        }
    }

    /// Does warp `w` have any active lane?
    pub fn warp_any(&self, w: usize) -> bool {
        self.warp_bits(w) != 0
    }

    /// Number of warps with at least one active lane (two warps per word;
    /// the zero tail of the last word never counts).
    pub fn active_warps(&self) -> usize {
        self.bits.iter().map(|&w| (w as u32 != 0) as usize + ((w >> 32) != 0) as usize).sum()
    }

    /// Call `f` on every active lane of warp `w`, in increasing order.
    #[inline(always)]
    pub(crate) fn for_each_warp_lane(&self, w: usize, mut f: impl FnMut(usize)) {
        walk_bits(self.warp_bits(w) as u64, w * WARP, &mut f);
    }
}

/// Call `f(base + b)` for every set bit `b` of `word`, lowest first.
#[inline(always)]
pub(crate) fn walk_bits(mut word: u64, base: usize, f: &mut impl FnMut(usize)) {
    while word != 0 {
        f(base + word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_none() {
        let a = Mask::all(70);
        assert_eq!(a.count(), 70);
        assert!(a.any());
        assert!(a.get(69));
        let n = Mask::none(70);
        assert_eq!(n.count(), 0);
        assert!(!n.any());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = Mask::none(100);
        m.set(0, true);
        m.set(63, true);
        m.set(64, true);
        m.set(99, true);
        assert_eq!(m.count(), 4);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(99));
        m.set(63, false);
        assert!(!m.get(63));
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn boolean_algebra() {
        let a = Mask::from_fn(64, |i| i % 2 == 0);
        let b = Mask::from_fn(64, |i| i % 3 == 0);
        assert_eq!(a.and(&b).count(), 11); // multiples of 6 in 0..64
        assert_eq!(a.or(&b).count(), 32 + 22 - 11);
        assert_eq!(a.not().count(), 32);
        assert_eq!(a.and_not(&b).count(), 32 - 11);
    }

    #[test]
    fn not_respects_length() {
        let m = Mask::none(33);
        assert_eq!(m.not().count(), 33); // not 64
    }

    #[test]
    fn lane_iteration_matches_bits() {
        let m = Mask::from_fn(130, |i| i % 7 == 0);
        let mut lanes = Vec::new();
        m.for_each_lane(|l| lanes.push(l));
        let expect: Vec<usize> = (0..130).filter(|i| i % 7 == 0).collect();
        assert_eq!(lanes, expect);
    }

    #[test]
    fn warp_views() {
        let m = Mask::from_fn(96, |i| i < 40);
        assert_eq!(m.warp_count(), 3);
        assert_eq!(m.warp_bits(0), u32::MAX);
        assert_eq!(m.warp_bits(1), 0xFF); // lanes 32..40
        assert_eq!(m.warp_bits(2), 0);
        assert_eq!(m.active_warps(), 2);
        assert!(m.warp_any(1));
        assert!(!m.warp_any(2));
        let mut lanes = Vec::new();
        m.for_each_warp_lane(1, |l| lanes.push(l));
        assert_eq!(lanes, (32..40).collect::<Vec<_>>());
    }

    #[test]
    fn partial_trailing_warp() {
        let m = Mask::all(40);
        assert_eq!(m.warp_count(), 2);
        assert_eq!(m.warp_bits(1), 0xFF);
        assert_eq!(m.active_warps(), 2);
    }
}
