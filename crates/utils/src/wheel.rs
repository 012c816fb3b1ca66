//! Deterministic hierarchical timer wheel for discrete-event scheduling.
//!
//! The simulator's event queue orders activations by the total key
//! `(time, tiebreak, seq)`. A binary heap gives `O(log n)` push/pop with
//! poor cache behaviour; the dominant traffic, though, is *short* re-enqueues
//! (a busy retry charging a few dozen virtual cycles), which a timer wheel
//! serves in `O(1)`: a near-future ring of [`WHEEL_SLOTS`] one-cycle buckets
//! absorbs everything inside the horizon, and a far-future overflow heap
//! catches the rare long sleep. Entries migrate from the heap into the ring
//! as the horizon advances, so each entry pays the heap at most once.
//!
//! **Determinism is part of the contract**: [`TimerWheel::pop_min`] yields
//! entries in exactly ascending `(time, tiebreak, seq)` order — bit-identical
//! to a binary heap over the same keys — which the simulator's differential
//! tests verify against a retained reference-heap scheduler.
//!
//! **Steady-state pushes and pops do not allocate.** Ring buckets are
//! intrusive singly-linked lists threaded through a slab of reusable nodes;
//! the slab grows to the high-water mark of concurrently queued entries
//! (≈ the task count) and is recycled through a free list thereafter. Only
//! the overflow heap can reallocate, and only when it outgrows its reserved
//! capacity.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of one-cycle buckets in the near-future ring (power of two).
///
/// Sized so the common virtual-time deltas in the VOTM cost model (1–4000
/// cycles: shared accesses, commit bursts, jittered backoff) land in the
/// ring; anything scheduled `>= WHEEL_SLOTS` cycles out takes the overflow
/// heap instead.
pub const WHEEL_SLOTS: usize = 4096;

const MASK: u64 = (WHEEL_SLOTS as u64) - 1;
const WORDS: usize = WHEEL_SLOTS / 64;
const NIL: u32 = u32::MAX;

/// One queued event: the ordering key halves (`tiebreak`, `seq`) plus the
/// caller's payload. The time half of the key is implied by the bucket.
#[derive(Debug, Clone, Copy)]
struct Node {
    tiebreak: u64,
    seq: u64,
    payload: u32,
    next: u32,
}

/// Allocation counters for observability (exported into bench artifacts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Entries pushed into the near-future ring.
    pub ring_pushes: u64,
    /// Entries pushed into the far-future overflow heap.
    pub overflow_pushes: u64,
    /// Entries migrated from the overflow heap into the ring as the
    /// horizon advanced (each entry migrates at most once).
    pub migrations: u64,
}

/// Hierarchical timer wheel: near-future ring + far-future overflow heap.
///
/// Keys are `(time, tiebreak, seq)` with a `u32` payload; pops are in
/// ascending key order. `time` must be non-decreasing relative to the wheel
/// position: pushing earlier than the last popped time is a caller bug
/// (events cannot be scheduled in the past) and is debug-asserted.
#[derive(Debug)]
pub struct TimerWheel {
    /// Head node index per bucket (`NIL` = empty).
    heads: Vec<u32>,
    /// One occupancy bit per bucket, for fast next-event scans.
    occupied: [u64; WORDS],
    /// Node storage; freed nodes are chained through `free`.
    slab: Vec<Node>,
    free: u32,
    /// Ring window start: all ring entries lie in `[base, base + WHEEL_SLOTS)`.
    base: u64,
    /// Entries currently queued (ring + overflow).
    len: usize,
    /// Far-future events, ordered by the full key.
    overflow: BinaryHeap<Reverse<(u64, u64, u64, u32)>>,
    stats: WheelStats,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerWheel {
    /// An empty wheel positioned at time 0.
    pub fn new() -> Self {
        Self {
            heads: vec![NIL; WHEEL_SLOTS],
            occupied: [0; WORDS],
            slab: Vec::new(),
            free: NIL,
            base: 0,
            len: 0,
            overflow: BinaryHeap::with_capacity(64),
            stats: WheelStats::default(),
        }
    }

    /// Push/migration counters.
    #[inline]
    pub fn stats(&self) -> WheelStats {
        self.stats
    }

    #[inline]
    fn alloc_node(&mut self, node: Node) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            self.free = self.slab[idx as usize].next;
            self.slab[idx as usize] = node;
            idx
        } else {
            let idx = self.slab.len() as u32;
            self.slab.push(node);
            idx
        }
    }

    #[inline]
    fn free_node(&mut self, idx: u32) {
        self.slab[idx as usize].next = self.free;
        self.free = idx;
    }

    #[inline]
    fn link(&mut self, slot: usize, node: Node) {
        let idx = self.alloc_node(Node {
            next: self.heads[slot],
            ..node
        });
        self.heads[slot] = idx;
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Queues `payload` at key `(at, tiebreak, seq)`.
    #[inline]
    pub fn push(&mut self, at: u64, tiebreak: u64, seq: u64, payload: u32) {
        debug_assert!(at >= self.base, "push into the past: {at} < {}", self.base);
        self.len += 1;
        if at.wrapping_sub(self.base) < WHEEL_SLOTS as u64 {
            self.stats.ring_pushes += 1;
            self.link(
                (at & MASK) as usize,
                Node {
                    tiebreak,
                    seq,
                    payload,
                    next: NIL,
                },
            );
        } else {
            self.stats.overflow_pushes += 1;
            self.overflow.push(Reverse((at, tiebreak, seq, payload)));
        }
    }

    /// Moves every overflow entry that now falls inside the ring window into
    /// its bucket. Amortised `O(1)` per entry over the wheel's lifetime.
    #[inline]
    fn migrate(&mut self) {
        let horizon = self.base + WHEEL_SLOTS as u64;
        while let Some(&Reverse((at, _, _, _))) = self.overflow.peek() {
            if at >= horizon {
                break;
            }
            let Reverse((at, tiebreak, seq, payload)) = self.overflow.pop().expect("peeked");
            self.stats.migrations += 1;
            self.link(
                (at & MASK) as usize,
                Node {
                    tiebreak,
                    seq,
                    payload,
                    next: NIL,
                },
            );
        }
    }

    /// Next occupied bucket at or after `base` in circular order, if any.
    #[inline]
    fn next_occupied(&self) -> Option<usize> {
        let start = (self.base & MASK) as usize;
        let (sw, sb) = (start / 64, start % 64);
        let w = self.occupied[sw] & (u64::MAX << sb);
        if w != 0 {
            return Some(sw * 64 + w.trailing_zeros() as usize);
        }
        for k in 1..WORDS {
            let wi = (sw + k) % WORDS;
            let w = self.occupied[wi];
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        let w = self.occupied[sw] & !(u64::MAX << sb);
        if w != 0 {
            return Some(sw * 64 + w.trailing_zeros() as usize);
        }
        None
    }

    #[inline]
    fn slot_time(&self, slot: usize) -> u64 {
        // Circular distance from the window start; within one window each
        // bucket maps to exactly one time, so this is exact.
        self.base + ((slot as u64).wrapping_sub(self.base) & MASK)
    }

    /// Index of the minimum-key node in `slot`'s list, with its predecessor
    /// (`NIL` if the minimum is the head). The list is unordered (push is
    /// O(1) prepend); buckets hold the few tasks tied on one virtual cycle,
    /// so the linear scan is short.
    #[inline]
    fn slot_min(&self, slot: usize) -> (u32, u32) {
        let mut prev = NIL;
        let mut best = self.heads[slot];
        let mut best_prev = NIL;
        let mut cur = self.heads[slot];
        while cur != NIL {
            let n = &self.slab[cur as usize];
            let b = &self.slab[best as usize];
            if (n.tiebreak, n.seq) < (b.tiebreak, b.seq) {
                best = cur;
                best_prev = prev;
            }
            prev = cur;
            cur = n.next;
        }
        (best, best_prev)
    }

    /// Removes and returns the minimum-key entry.
    ///
    /// Does *not* move the window: callers drive that with [`advance_to`]
    /// once they commit to a time. This split lets the simulator pop a
    /// candidate, lose it to a coalesced same-task activation, and re-push
    /// it unchanged — the window hasn't moved, so the entry still fits.
    ///
    /// [`advance_to`]: TimerWheel::advance_to
    #[inline]
    pub fn pop_min(&mut self) -> Option<(u64, u64, u64, u32)> {
        if self.len == 0 {
            return None;
        }
        self.migrate();
        if let Some(slot) = self.next_occupied() {
            let (best, best_prev) = self.slot_min(slot);
            let n = self.slab[best as usize];
            if best_prev == NIL {
                self.heads[slot] = n.next;
            } else {
                self.slab[best_prev as usize].next = n.next;
            }
            if self.heads[slot] == NIL {
                self.occupied[slot / 64] &= !(1u64 << (slot % 64));
            }
            self.free_node(best);
            self.len -= 1;
            return Some((self.slot_time(slot), n.tiebreak, n.seq, n.payload));
        }
        // Ring empty: the overflow top is the global minimum.
        let Reverse((at, tiebreak, seq, payload)) = self.overflow.pop().expect("len > 0");
        self.len -= 1;
        Some((at, tiebreak, seq, payload))
    }

    /// Advances the window start to `at` (no-op if already past it).
    ///
    /// The caller guarantees every entry it still cares about lies at or
    /// after `at` — in the simulator that holds because `at` is the time of
    /// the activation just chosen, which was the global minimum. Entries for
    /// *dead* tasks may linger below `at`; their implied ring times become
    /// garbage, which is harmless because the caller discards dead-task
    /// entries on pop without looking at the time.
    #[inline]
    pub fn advance_to(&mut self, at: u64) {
        if at > self.base {
            self.base = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XorShift64;

    /// Reference: plain binary heap over the same keys.
    fn heap_order(mut keys: Vec<(u64, u64, u64, u32)>) -> Vec<(u64, u64, u64, u32)> {
        keys.sort_unstable();
        keys
    }

    #[test]
    fn pops_in_key_order_across_ring_and_overflow() {
        let mut rng = XorShift64::new(42);
        let mut w = TimerWheel::new();
        let mut keys = Vec::new();
        for seq in 0..500u64 {
            // Mix near (ring) and far (overflow) times.
            let at = if rng.next_below(4) == 0 {
                rng.next_below(200_000)
            } else {
                rng.next_below(1000)
            };
            let tb = rng.next_u64();
            w.push(at, tb, seq, seq as u32);
            keys.push((at, tb, seq, seq as u32));
        }
        let expect = heap_order(keys);
        let mut got = Vec::new();
        while let Some(e) = w.pop_min() {
            got.push(e);
        }
        assert_eq!(got, expect);
        assert_eq!(w.len, 0);
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        let mut rng = XorShift64::new(7);
        let mut w = TimerWheel::new();
        let mut reference = std::collections::BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..20_000 {
            if w.len != 0 && rng.next_below(3) == 0 {
                let got = w.pop_min().unwrap();
                let std::cmp::Reverse(want) = reference.pop().unwrap();
                assert_eq!(got, want);
                now = got.0;
                w.advance_to(now); // as the executor does after each activation
            } else {
                // Short delays dominate, occasional far-future sleeps.
                let delta = if rng.next_below(10) == 0 {
                    rng.next_below(50_000)
                } else {
                    rng.next_below(60)
                };
                let at = now + delta;
                let tb = rng.next_u64();
                seq += 1;
                w.push(at, tb, seq, seq as u32);
                reference.push(std::cmp::Reverse((at, tb, seq, seq as u32)));
            }
        }
        while let Some(got) = w.pop_min() {
            let std::cmp::Reverse(want) = reference.pop().unwrap();
            assert_eq!(got, want);
        }
        assert!(reference.is_empty());
    }

    #[test]
    fn same_time_entries_order_by_tiebreak_then_seq() {
        let mut w = TimerWheel::new();
        w.push(10, 5, 2, 0);
        w.push(10, 5, 1, 1);
        w.push(10, 3, 9, 2);
        assert_eq!(w.pop_min(), Some((10, 3, 9, 2)));
        assert_eq!(w.pop_min(), Some((10, 5, 1, 1)));
        assert_eq!(w.pop_min(), Some((10, 5, 2, 0)));
    }

    #[test]
    fn slab_recycles_nodes_without_growth() {
        let mut w = TimerWheel::new();
        let mut seq = 0u64;
        for _ in 0..8 {
            w.push(0, seq, seq, 0);
            seq += 1;
        }
        // Warm: 8 nodes allocated.
        let high_water = w.slab.len();
        for _ in 0..10_000 {
            let (now, _, _, _) = w.pop_min().unwrap();
            w.advance_to(now);
            w.push(now + 1 + (seq % 40), seq, seq, 0);
            seq += 1;
        }
        assert_eq!(w.slab.len(), high_water, "steady state must not grow slab");
    }

    #[test]
    fn window_jump_over_sparse_future_is_exact() {
        let mut w = TimerWheel::new();
        w.push(1_000_000, 1, 1, 7); // far beyond the first window
        w.push(5, 1, 2, 8);
        assert_eq!(w.pop_min(), Some((5, 1, 2, 8)));
        assert_eq!(w.pop_min(), Some((1_000_000, 1, 1, 7)));
        assert_eq!(w.pop_min(), None);
    }

    #[test]
    fn advance_to_moves_the_window() {
        let mut w = TimerWheel::new();
        w.advance_to(50_000);
        w.push(50_001, 1, 1, 3);
        assert_eq!(w.pop_min(), Some((50_001, 1, 1, 3)));
        assert_eq!(w.stats().ring_pushes, 1);
        assert_eq!(w.stats().overflow_pushes, 0);
    }
}
