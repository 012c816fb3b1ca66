//! The transactional word heap and its block allocator.
//!
//! A view's memory is a flat array of `AtomicU64` words. [`Addr`] — a word
//! index — plays the role of a pointer; `Addr::NULL` is the null pointer.
//! Data structures (lists, queues, hash tables) are built from words exactly
//! as C code builds them from machine words, which keeps the STM word-based
//! like RSTM.
//!
//! The allocator (`malloc_block` / `free_block` in the paper's API) is a
//! bump allocator with per-size free lists. Allocator *metadata* lives
//! outside the word array and is protected by a plain mutex: allocation is
//! not a transactional operation in VOTM (the paper allocates blocks from a
//! view and then publishes them inside transactions), but the core crate
//! layers abort-safe alloc/free logging on top of these primitives.
//!
//! Block sizes need no map. Bump carving tiles `[0, brk)` with blocks, one
//! after the other, and a freed block is only ever reused whole, by a
//! request of its own size, so the tiling never changes once carved. Two
//! bitmaps over the words (2 bits per word) therefore say everything:
//! `carved` marks each block's base and `live` the allocated ones, and a
//! block's size is the distance to the next carved base, or to `brk` for
//! the last block. A failed allocation carves nothing. The free lists hold
//! addresses only; they never write a freed block's words, which a zombie
//! reader may still be looking at.
//!
//! The word array and both bitmaps are requested zeroed from the allocator
//! (`alloc_zeroed`), not written at creation. Whether a word nobody
//! touches — a dictionary's unused worst case, a `brk_view` reserve —
//! then costs resident memory is up to the allocator: glibc serves a
//! request above its mmap threshold (128 KiB by default) with fresh zero
//! pages the kernel commits on first touch, but a smaller one may be
//! recycled memory it zeroes.

use std::alloc::{self, Layout};
use std::ptr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use votm_utils::FxHashMap;
use votm_utils::Mutex;

/// A word address within one view's heap — the TM-world pointer type.
///
/// `u32` keeps read/write sets small; a view can hold 2^32 − 1 words
/// (32 GiB), far beyond any workload here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u32);

impl Addr {
    /// The null pointer.
    pub const NULL: Addr = Addr(u32::MAX);

    /// True unless this is [`Addr::NULL`].
    #[inline]
    pub fn is_null(self) -> bool {
        self == Addr::NULL
    }

    /// Address `offset` words past this one.
    #[inline]
    pub fn offset(self, offset: u32) -> Addr {
        debug_assert!(!self.is_null());
        Addr(self.0 + offset)
    }

    /// Index form for slice access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One bit per word of the heap, zeroed at creation.
struct Bitmap(Box<[u64]>);

impl Bitmap {
    fn new(bits: usize) -> Self {
        // `vec![0; n]` is one `alloc_zeroed` call: like the words, the
        // parts nobody touches need not be committed.
        Self(vec![0; bits.div_ceil(64)].into_boxed_slice())
    }

    fn get(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    /// The first set bit in `[from, end)`, or `end` if there is none.
    fn next_set(&self, from: usize, end: usize) -> usize {
        let mut i = from;
        while i < end {
            let rest = self.0[i / 64] >> (i % 64);
            if rest != 0 {
                return (i + rest.trailing_zeros() as usize).min(end);
            }
            i = (i / 64 + 1) * 64;
        }
        end
    }
}

/// `n` zero words in one `alloc_zeroed` request, never written here.
fn zeroed_words(n: usize) -> Box<[AtomicU64]> {
    if n == 0 {
        return Box::default();
    }
    let layout = Layout::array::<AtomicU64>(n).expect("heap too large");
    // SAFETY: `layout` is non-empty. The memory comes from the global
    // allocator with `AtomicU64`'s size and alignment for `n` elements,
    // which is the layout `Box<[AtomicU64]>` frees it with, and all-zero
    // bytes are a valid `AtomicU64` (same representation as `u64`), so
    // every element is initialised.
    unsafe {
        let ptr = alloc::alloc_zeroed(layout).cast::<AtomicU64>();
        if ptr.is_null() {
            alloc::handle_alloc_error(layout);
        }
        Box::from_raw(ptr::slice_from_raw_parts_mut(ptr, n))
    }
}

/// Allocation bookkeeping, kept off the word array.
struct AllocState {
    /// Free lists keyed by block size in words, each last-in first-out.
    free: FxHashMap<u32, Vec<Addr>>,
    /// A block was carved at this word. The carved blocks tile `[0, brk)`,
    /// so a block ends where the next one starts, or at `brk`.
    carved: Bitmap,
    /// The block carved at this word is allocated now.
    live: Bitmap,
    /// Number of set `live` bits.
    live_count: usize,
}

/// A view's memory: words plus allocator.
pub struct WordHeap {
    words: Box<[AtomicU64]>,
    /// Bump watermark (word index of the next never-allocated word). Only
    /// written under the allocator mutex.
    brk: AtomicUsize,
    /// Usable size; grows via [`WordHeap::brk`] up to `words.len()`
    /// (`brk_view` in the paper's API).
    limit: AtomicUsize,
    alloc: Mutex<AllocState>,
}

impl WordHeap {
    /// Creates a heap of `size_words` zeroed words, all immediately usable.
    pub fn new(size_words: usize) -> Self {
        Self::with_reserve(size_words, size_words)
    }

    /// Creates a heap with `initial_words` usable out of `capacity_words`
    /// reserved; [`WordHeap::brk`] can grow the usable region later.
    ///
    /// The words are requested zeroed from the allocator rather than
    /// written here (see the module doc for what that commits).
    pub fn with_reserve(initial_words: usize, capacity_words: usize) -> Self {
        assert!(initial_words <= capacity_words);
        assert!(
            capacity_words < Addr::NULL.0 as usize,
            "heap too large for 32-bit addressing"
        );
        Self {
            words: zeroed_words(capacity_words),
            brk: AtomicUsize::new(0),
            limit: AtomicUsize::new(initial_words),
            alloc: Mutex::new(AllocState {
                free: FxHashMap::default(),
                carved: Bitmap::new(capacity_words),
                live: Bitmap::new(capacity_words),
                live_count: 0,
            }),
        }
    }

    /// Expands the usable region by `extra_words` (the paper's `brk_view`).
    /// Returns the new usable size, or `None` if reserved capacity is
    /// exhausted.
    pub fn brk(&self, extra_words: usize) -> Option<usize> {
        let mut cur = self.limit.load(Ordering::Relaxed);
        loop {
            let new = cur.checked_add(extra_words)?;
            if new > self.words.len() {
                return None;
            }
            match self
                .limit
                .compare_exchange(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some(new),
                Err(observed) => cur = observed,
            }
        }
    }

    /// Heap capacity in words.
    pub fn size_words(&self) -> usize {
        self.words.len()
    }

    /// Raw word load. `Acquire` so that, in real-thread mode, a reader that
    /// has already validated the seqlock observes fully-written data.
    #[inline]
    pub fn load(&self, addr: Addr) -> u64 {
        self.words[addr.index()].load(Ordering::Acquire)
    }

    /// Raw word store (commit writeback or direct mode).
    #[inline]
    pub fn store(&self, addr: Addr, value: u64) {
        self.words[addr.index()].store(value, Ordering::Release);
    }

    /// Allocates a block of `size_words` (≥ 1) words; returns its base
    /// address or `None` if the heap is exhausted.
    ///
    /// Freed blocks of the same size are reused first (their contents are
    /// *not* rezeroed — same as `malloc`).
    pub fn alloc_block(&self, size_words: u32) -> Option<Addr> {
        assert!(size_words >= 1, "zero-sized block");
        let mut st = self.alloc.lock();
        let addr = match st.free.get_mut(&size_words).and_then(Vec::pop) {
            Some(addr) => addr,
            None => {
                let base = self.brk.load(Ordering::Relaxed);
                let end = base + size_words as usize;
                if end > self.limit.load(Ordering::Relaxed) {
                    return None;
                }
                self.brk.store(end, Ordering::Relaxed);
                st.carved.set(base);
                Addr(base as u32)
            }
        };
        st.live.set(addr.index());
        st.live_count += 1;
        Some(addr)
    }

    /// Returns `addr`'s block to its size-class free list. The size is the
    /// distance to the next carved block, or to `brk` for the last one.
    ///
    /// # Panics
    /// If `addr` is not the base of a live block (double free / wild free).
    pub fn free_block(&self, addr: Addr) {
        let mut st = self.alloc.lock();
        let base = addr.index();
        let brk = self.brk.load(Ordering::Relaxed);
        assert!(
            base < brk && st.live.get(base),
            "free_block: not a live block base"
        );
        let size = st.carved.next_set(base + 1, brk) - base;
        st.live.clear(base);
        st.live_count -= 1;
        st.free.entry(size as u32).or_default().push(addr);
    }

    /// Number of live allocated blocks (leak checking in tests).
    pub fn live_blocks(&self) -> usize {
        self.alloc.lock().live_count
    }

    /// Words handed out so far (high-water mark).
    pub fn used_words(&self) -> usize {
        self.brk.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for WordHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WordHeap")
            .field("size_words", &self.words.len())
            .field("used_words", &self.used_words())
            .field("live_blocks", &self.live_blocks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip() {
        let h = WordHeap::new(16);
        h.store(Addr(3), 0xdead_beef);
        assert_eq!(h.load(Addr(3)), 0xdead_beef);
        assert_eq!(h.load(Addr(4)), 0, "fresh words are zero");
    }

    #[test]
    fn alloc_bumps_and_reuses() {
        let h = WordHeap::new(64);
        let a = h.alloc_block(8).unwrap();
        let b = h.alloc_block(8).unwrap();
        assert_ne!(a, b);
        assert_eq!(h.used_words(), 16);
        h.free_block(a);
        let c = h.alloc_block(8).unwrap();
        assert_eq!(c, a, "freed block should be reused");
        assert_eq!(h.used_words(), 16, "reuse must not bump the watermark");
    }

    #[test]
    fn alloc_exhaustion_returns_none_and_recovers() {
        let h = WordHeap::new(10);
        let a = h.alloc_block(8).unwrap();
        assert!(h.alloc_block(8).is_none());
        assert!(h.alloc_block(2).is_some(), "smaller block still fits");
        h.free_block(a);
        assert!(h.alloc_block(8).is_some());
    }

    #[test]
    #[should_panic(expected = "not a live block base")]
    fn double_free_panics() {
        let h = WordHeap::new(16);
        let a = h.alloc_block(2).unwrap();
        h.free_block(a);
        h.free_block(a);
    }

    #[test]
    fn live_block_accounting() {
        let h = WordHeap::new(64);
        let a = h.alloc_block(4).unwrap();
        let b = h.alloc_block(4).unwrap();
        assert_eq!(h.live_blocks(), 2);
        h.free_block(a);
        h.free_block(b);
        assert_eq!(h.live_blocks(), 0);
    }

    #[test]
    fn addr_offset_and_null() {
        assert!(Addr::NULL.is_null());
        assert!(!Addr(0).is_null());
        assert_eq!(Addr(10).offset(5), Addr(15));
    }

    #[test]
    fn brk_grows_usable_region_within_reserve() {
        let h = WordHeap::with_reserve(4, 16);
        let a = h.alloc_block(4).unwrap();
        assert!(h.alloc_block(4).is_none(), "limit is 4 words");
        assert_eq!(h.brk(8), Some(12));
        assert!(h.alloc_block(4).is_some());
        assert_eq!(h.brk(100), None, "beyond reserved capacity");
        assert_eq!(h.brk(4), Some(16), "up to capacity is fine");
        let _ = a;
    }

    /// Today's allocator written the obvious way: a size per live block,
    /// per-size LIFO lists and a bump pointer. The heap must agree with it
    /// on every address, every `None` and both counters.
    struct Model {
        live: std::collections::HashMap<Addr, u32>,
        free: std::collections::HashMap<u32, Vec<Addr>>,
        brk: usize,
        limit: usize,
        capacity: usize,
    }

    impl Model {
        fn alloc(&mut self, size: u32) -> Option<Addr> {
            let addr = match self.free.get_mut(&size).and_then(Vec::pop) {
                Some(addr) => addr,
                None if self.brk + size as usize <= self.limit => {
                    self.brk += size as usize;
                    Addr((self.brk - size as usize) as u32)
                }
                None => return None,
            };
            self.live.insert(addr, size);
            Some(addr)
        }

        fn free(&mut self, addr: Addr) {
            let size = self.live.remove(&addr).unwrap();
            self.free.entry(size).or_default().push(addr);
        }

        fn grow(&mut self, extra: usize) -> Option<usize> {
            (self.limit + extra <= self.capacity).then(|| {
                self.limit += extra;
                self.limit
            })
        }
    }

    #[test]
    fn matches_a_size_map_model_over_random_operations() {
        let (initial, capacity) = (8_192, 40_000);
        let h = WordHeap::with_reserve(initial, capacity);
        let mut m = Model {
            live: Default::default(),
            free: Default::default(),
            brk: 0,
            limit: initial,
            capacity,
        };
        let mut rng = votm_utils::XorShift64::new(20_120_910);
        let mut live = Vec::new();
        let (mut nones, mut grown, mut refused) = (0, 0, 0);
        for step in 0..20_000 {
            match rng.next_below(100) {
                0..=54 => {
                    let size = if rng.chance_percent(2) {
                        4096
                    } else {
                        1 + rng.next_below(40) as u32
                    };
                    let got = h.alloc_block(size);
                    assert_eq!(got, m.alloc(size), "step {step}: alloc_block({size})");
                    match got {
                        Some(a) => live.push(a),
                        None => nones += 1,
                    }
                }
                55..=97 if !live.is_empty() => {
                    let a = live.swap_remove(rng.next_index(live.len()));
                    h.free_block(a);
                    m.free(a);
                }
                _ => {
                    let extra = 1 + rng.next_index(2_048);
                    let got = h.brk(extra);
                    assert_eq!(got, m.grow(extra), "step {step}: brk({extra})");
                    match got {
                        Some(_) => grown += 1,
                        None => refused += 1,
                    }
                }
            }
            assert_eq!(h.live_blocks(), m.live.len(), "step {step}");
            assert_eq!(h.used_words(), m.brk, "step {step}");
        }
        assert!(nones > 100, "exhaustion exercised ({nones} failures)");
        assert!(grown > 10, "brk growth exercised ({grown} growths)");
        assert!(refused > 0, "the reserve ran out ({refused} refusals)");
    }

    #[test]
    fn the_last_carved_block_takes_its_size_from_brk() {
        let h = WordHeap::new(64);
        let a = h.alloc_block(3).unwrap();
        let b = h.alloc_block(5).unwrap();
        h.free_block(b);
        assert_eq!(h.alloc_block(5), Some(b), "b went to the 5-word list");
        h.free_block(a);
        assert_eq!(h.alloc_block(3), Some(a), "a ends where b starts");
        assert_eq!(h.used_words(), 8);
    }

    #[test]
    fn a_failed_allocation_leaves_no_carved_bit() {
        let h = WordHeap::with_reserve(10, 64);
        let a = h.alloc_block(4).unwrap();
        assert!(h.alloc_block(8).is_none());
        assert_eq!(h.used_words(), 4);
        {
            let st = h.alloc.lock();
            assert!((1..64).all(|i| !st.carved.get(i)), "only a's bit is set");
        }
        h.brk(54).unwrap();
        h.free_block(a);
        assert_eq!(h.alloc_block(4), Some(a), "a is still 4 words");
    }

    #[test]
    fn an_empty_heap_refuses_every_allocation() {
        let h = WordHeap::with_reserve(0, 0);
        assert_eq!(h.alloc_block(1), None);
        assert_eq!(h.brk(1), None);
        assert_eq!((h.used_words(), h.live_blocks()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "not a live block base")]
    fn freeing_mid_block_panics() {
        let h = WordHeap::new(16);
        let a = h.alloc_block(4).unwrap();
        h.free_block(a.offset(1));
    }

    #[test]
    #[should_panic(expected = "not a live block base")]
    fn freeing_at_or_past_brk_panics() {
        let h = WordHeap::new(16);
        h.alloc_block(4).unwrap();
        h.free_block(Addr(4));
    }

    #[test]
    #[should_panic(expected = "not a live block base")]
    fn freeing_past_capacity_panics() {
        let h = WordHeap::new(16);
        h.alloc_block(16).unwrap();
        h.free_block(Addr(1_000));
    }

    #[test]
    fn concurrent_allocation_yields_disjoint_blocks() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let h = Arc::new(WordHeap::new(100_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                (0..500)
                    .map(|_| h.alloc_block(3).unwrap())
                    .collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for hd in handles {
            for a in hd.join().unwrap() {
                assert!(all.insert(a), "block {a:?} handed out twice");
            }
        }
        assert_eq!(all.len(), 4000);
    }
}
