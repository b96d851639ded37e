//! Per-block shared memory.
//!
//! Storage is a flat arena of 4-byte words (f32 values are kept as raw
//! bits), allocated by kernels at block start — mirroring CUDA `__shared__`
//! arrays. Bank-conflict accounting happens in [`crate::block::BlockCtx`],
//! which knows the active mask; this module is pure storage plus the
//! word-address arithmetic the bank model needs.

use std::marker::PhantomData;

/// Typed handle into a block's shared memory arena.
pub struct ShPtr<T> {
    pub(crate) off_words: u32,
    pub(crate) len: u32,
    _pd: PhantomData<fn() -> T>,
}

impl<T> Clone for ShPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ShPtr<T> {}

impl<T> ShPtr<T> {
    pub(crate) fn new(off_words: u32, len: u32) -> Self {
        ShPtr { off_words, len, _pd: PhantomData }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The same slots as raw 32-bit words (f32 values are kept as bits).
    pub fn words(self) -> ShPtr<u32> {
        ShPtr::new(self.off_words, self.len)
    }

    /// Word address of element `idx` (bank = word address % banks).
    #[inline]
    pub(crate) fn word_addr(&self, idx: u32) -> u32 {
        debug_assert!(idx < self.len, "shared OOB: index {idx} of {}", self.len);
        self.off_words + idx
    }
}

/// A block's shared memory arena.
pub(crate) struct SharedMem {
    words: Vec<u32>,
    used_words: u32,
    budget_words: u32,
}

impl SharedMem {
    /// Arena with a byte budget (the launch's declared shared usage).
    pub(crate) fn new(budget_bytes: u32) -> Self {
        let budget_words = budget_bytes / 4;
        SharedMem { words: vec![0; budget_words as usize], used_words: 0, budget_words }
    }

    /// Allocate `len` 4-byte elements; `None` when the budget is exhausted.
    pub(crate) fn try_alloc(&mut self, len: u32) -> Option<u32> {
        if self.used_words + len > self.budget_words {
            return None;
        }
        let off = self.used_words;
        self.used_words += len;
        Some(off)
    }

    #[inline]
    pub(crate) fn load(&self, word: u32) -> u32 {
        self.words[word as usize]
    }

    #[inline]
    pub(crate) fn store(&mut self, word: u32, val: u32) {
        self.words[word as usize] = val;
    }

    /// Every word of the arena.
    pub(crate) fn words_mut(&mut self) -> &mut [u32] {
        &mut self.words
    }

    /// The words of `ptr[0..len]`.
    pub(crate) fn slots_mut<T>(&mut self, ptr: ShPtr<T>, len: usize) -> &mut [u32] {
        assert!(len <= ptr.len(), "shared OOB: {len} slots of {}", ptr.len());
        &mut self.words[ptr.off_words as usize..][..len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_respects_budget() {
        let mut sh = SharedMem::new(64); // 16 words
        let a = sh.try_alloc(10).unwrap();
        let b = sh.try_alloc(6).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 10);
        assert_eq!(sh.used_words * 4, 64);
        assert!(sh.try_alloc(1).is_none());
    }

    #[test]
    fn words_zero_initialised_and_writable() {
        let mut sh = SharedMem::new(16);
        assert_eq!(sh.load(0), 0);
        sh.store(2, 0xDEAD);
        assert_eq!(sh.load(2), 0xDEAD);
    }

    #[test]
    fn ptr_word_addresses_offset() {
        let p = ShPtr::<f32> { off_words: 8, len: 4, _pd: PhantomData };
        assert_eq!(p.word_addr(0), 8);
        assert_eq!(p.word_addr(3), 11);
        assert_eq!(p.len(), 4);
    }
}
