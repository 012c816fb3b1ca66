//! Small-vector with an inline fast path, for transaction read/write sets.
//!
//! Eigenbench Table II transactions touch a handful of words, so the hot
//! case for a read set is "a few entries, reset every attempt". A `Vec`
//! makes every attempt chase a heap pointer (and the first push allocate);
//! [`InlineVec`] keeps the first `N` entries in the transaction descriptor
//! itself — same cache lines the descriptor already occupies — and spills to
//! a `Vec` only for the rare large transaction. Once spilled, the spill
//! buffer's capacity is retained across [`InlineVec::clear`], so a thread
//! that runs one big transaction doesn't re-allocate on every retry.

/// A growable array whose first `N` elements live inline.
///
/// Elements are `Copy + Default` (the inline buffer is kept fully
/// initialised so no `unsafe` is needed); that fits the word-sized entries
/// STM sets store.
#[derive(Debug, Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    inline: [T; N],
    /// Total length; the first `min(len, N)` entries are in `inline`, the
    /// rest in `spill`.
    len: usize,
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty set (no heap allocation).
    pub fn new() -> Self {
        Self {
            inline: [T::default(); N],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True while all elements fit inline (the fast path).
    #[inline]
    pub fn is_inline(&self) -> bool {
        self.len <= N
    }

    /// Appends an element.
    #[inline]
    pub fn push(&mut self, value: T) {
        if self.len < N {
            self.inline[self.len] = value;
        } else {
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Removes all elements. The inline buffer needs no work and the spill
    /// buffer keeps its capacity, so a retry loop settles into zero
    /// allocation per attempt.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Iterates the elements in insertion order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        let inline_n = self.len.min(N);
        self.inline[..inline_n]
            .iter()
            .copied()
            .chain(self.spill.iter().copied())
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_then_spill() {
        let mut v: InlineVec<u64, 4> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..10u64 {
            v.push(i * 3);
            assert_eq!(v.len(), (i + 1) as usize);
            assert_eq!(v.is_inline(), i < 4);
        }
        let collected: Vec<u64> = v.iter().collect();
        assert_eq!(collected, (0..10).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn clear_resets_and_reuses() {
        let mut v: InlineVec<u64, 2> = InlineVec::new();
        for i in 0..6 {
            v.push(i);
        }
        let cap = v.spill.capacity();
        v.clear();
        assert!(v.is_empty());
        assert!(v.is_inline());
        assert_eq!(v.iter().count(), 0);
        assert_eq!(v.spill.capacity(), cap, "spill capacity retained");
        v.push(9);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![9]);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn boundary_exact_fill() {
        let mut v: InlineVec<u32, 3> = InlineVec::new();
        for i in 0..3 {
            v.push(i);
        }
        assert!(v.is_inline());
        v.push(3);
        assert!(!v.is_inline());
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }
}
