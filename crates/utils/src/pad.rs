//! Cache-line padding to prevent false sharing between hot atomics.

use core::ops::{Deref, DerefMut};

/// Pads and aligns a value to 128 bytes.
///
/// 128 rather than 64 because modern Intel parts prefetch cache lines in
/// adjacent pairs ("spatial prefetcher"), so two logically unrelated atomics
/// 64 bytes apart can still ping-pong. This mirrors what
/// `crossbeam_utils::CachePadded` does on x86-64.
///
/// Used for per-view global clocks, ownership records and admission
/// counters: each of these is hammered by all threads of a view and must not
/// share a line with anything else.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in padding.
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

impl<T: Clone> Clone for CachePadded<T> {
    fn clone(&self) -> Self {
        Self::new(self.value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::AtomicU64;

    #[test]
    fn alignment_is_128() {
        assert_eq!(core::mem::align_of::<CachePadded<AtomicU64>>(), 128);
        assert!(core::mem::size_of::<CachePadded<AtomicU64>>() >= 128);
    }

    #[test]
    fn deref_roundtrip() {
        let mut p = CachePadded::new(7u32);
        assert_eq!(*p, 7);
        *p = 9;
        assert_eq!(*p, 9);
    }

    #[test]
    fn array_elements_do_not_share_lines() {
        let arr: [CachePadded<u64>; 4] = Default::default();
        let a = &arr[0] as *const _ as usize;
        let b = &arr[1] as *const _ as usize;
        assert!(b - a >= 128);
    }
}
