//! Transaction write set: address → pending value, iterable in insertion
//! order for deterministic writeback.
//!
//! Two-tier layout tuned for Eigenbench-sized transactions (mostly a few
//! writes): the first [`INLINE_WRITES`] entries live in a fixed array probed
//! linearly — no hashing, no heap traffic — and only larger transactions
//! build the `FxHashMap` index over the spilled entry list. Every insert
//! also folds the address into a 64-bit *write summary* ([`WriteSet::summary`])
//! that NOrec publishes at commit so later validations can skip
//! value-comparing addresses provably untouched by the interleaved commits.

use crate::heap::Addr;
use votm_utils::{hash_u64, FxHashMap};

/// Writes held inline and probed linearly before the hash index kicks in.
/// Eight covers the bulk of Eigenbench Table II transactions; past it the
/// O(n) probe would start losing to hashing.
pub const INLINE_WRITES: usize = 8;

/// Folds an address into its one-bit position in a 64-bit write summary.
/// Shared by the write side (building the summary) and the read side
/// (testing membership) so the two can never disagree.
#[inline]
pub(crate) fn summary_bit(addr: Addr) -> u64 {
    1u64 << bloom_bucket(addr)
}

/// The Bloom write-summary bucket (`0..64`) an address folds into — the
/// bit position `summary_bit` sets. Public so conflict attribution can
/// report which summary bucket a NOrec validation failure hashed to.
#[inline]
pub fn bloom_bucket(addr: Addr) -> u8 {
    (hash_u64(u64::from(addr.0)) & 63) as u8
}

/// Buffered writes of one transaction attempt.
///
/// Reused across attempts (`clear` keeps capacity) because the paper's
/// workloads retry millions of times and per-attempt allocation would swamp
/// every measurement.
#[derive(Debug, Default)]
pub struct WriteSet {
    /// All entries in first-write order; the first [`INLINE_WRITES`] are the
    /// linear-probe fast region. (One contiguous Vec keeps writeback a
    /// straight scan; the Vec itself settles to a fixed allocation.)
    entries: Vec<(Addr, u64)>,
    /// Hash index over *all* entries — built lazily the first time the set
    /// outgrows the inline region, empty (and unconsulted) before that.
    index: FxHashMap<u32, usize>,
    /// OR of [`summary_bit`] over every address written this attempt.
    summary: u64,
}

impl WriteSet {
    /// Empty write set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers `value` for `addr`, replacing any earlier write to it.
    #[inline]
    pub fn insert(&mut self, addr: Addr, value: u64) {
        self.summary |= summary_bit(addr);
        if self.entries.len() <= INLINE_WRITES && self.index.is_empty() {
            // Small-set fast path: linear probe, no hashing.
            for e in &mut self.entries {
                if e.0 == addr {
                    e.1 = value;
                    return;
                }
            }
            if self.entries.len() < INLINE_WRITES {
                self.entries.push((addr, value));
                return;
            }
            // Crossing the boundary: build the index over what we have,
            // then fall through to the indexed path.
            for (i, e) in self.entries.iter().enumerate() {
                self.index.insert(e.0 .0, i);
            }
        }
        match self.index.get(&addr.0) {
            Some(&i) => self.entries[i].1 = value,
            None => {
                self.index.insert(addr.0, self.entries.len());
                self.entries.push((addr, value));
            }
        }
    }

    /// The pending value for `addr`, if written this attempt.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<u64> {
        // Summary miss ⇒ definitely not written; skips the probe entirely
        // for the read-mostly common case.
        if self.summary & summary_bit(addr) == 0 {
            return None;
        }
        if self.index.is_empty() {
            return self.entries.iter().find(|e| e.0 == addr).map(|&(_, v)| v);
        }
        self.index.get(&addr.0).map(|&i| self.entries[i].1)
    }

    /// Number of distinct addresses written.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no writes are buffered (read-only transaction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True while the set is still on the inline linear-probe path
    /// (diagnostic; exposed for the boundary tests).
    #[inline]
    pub fn is_inline(&self) -> bool {
        self.index.is_empty()
    }

    /// 64-bit Bloom-style summary of every address written this attempt
    /// (OR of one hashed bit per address). Zero iff the set is empty; a
    /// clear bit proves the corresponding addresses were not written.
    #[inline]
    pub fn summary(&self) -> u64 {
        self.summary
    }

    /// The `i`-th distinct address in first-write order (panics out of
    /// bounds). For loops that must mutate the owning descriptor while
    /// walking the set, where [`WriteSet::iter`]'s borrow is in the way.
    #[inline]
    pub fn addr_at(&self, i: usize) -> Addr {
        self.entries[i].0
    }

    /// Iterates `(addr, value)` in first-write order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Discards all writes, keeping capacity.
    pub fn clear(&mut self) {
        self.index.clear();
        self.entries.clear();
        self.summary = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite() {
        let mut ws = WriteSet::new();
        assert!(ws.is_empty());
        ws.insert(Addr(5), 10);
        ws.insert(Addr(6), 20);
        ws.insert(Addr(5), 11);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws.get(Addr(5)), Some(11));
        assert_eq!(ws.get(Addr(6)), Some(20));
        assert_eq!(ws.get(Addr(7)), None);
    }

    #[test]
    fn iteration_preserves_first_write_order() {
        let mut ws = WriteSet::new();
        ws.insert(Addr(9), 1);
        ws.insert(Addr(2), 2);
        ws.insert(Addr(9), 3);
        let order: Vec<_> = ws.iter().collect();
        assert_eq!(order, vec![(Addr(9), 3), (Addr(2), 2)]);
    }

    #[test]
    fn clear_resets() {
        let mut ws = WriteSet::new();
        ws.insert(Addr(1), 1);
        ws.clear();
        assert!(ws.is_empty());
        assert_eq!(ws.summary(), 0);
        assert_eq!(ws.get(Addr(1)), None);
        ws.insert(Addr(1), 9);
        assert_eq!(ws.get(Addr(1)), Some(9));
    }

    #[test]
    fn spill_across_inline_boundary_keeps_semantics() {
        let mut ws = WriteSet::new();
        for i in 0..(INLINE_WRITES as u32 + 4) {
            ws.insert(Addr(i * 7), u64::from(i) + 100);
        }
        assert!(!ws.is_inline());
        assert_eq!(ws.len(), INLINE_WRITES + 4);
        for i in 0..(INLINE_WRITES as u32 + 4) {
            assert_eq!(ws.get(Addr(i * 7)), Some(u64::from(i) + 100));
        }
        // Overwrites still land on the original slot (first-write order).
        ws.insert(Addr(0), 999);
        assert_eq!(ws.iter().next(), Some((Addr(0), 999)));
    }

    #[test]
    fn summary_covers_all_written_addresses() {
        let mut ws = WriteSet::new();
        let addrs = [3u32, 19, 64, 1000];
        for (i, &a) in addrs.iter().enumerate() {
            ws.insert(Addr(a), i as u64);
        }
        for &a in &addrs {
            assert_ne!(
                ws.summary() & summary_bit(Addr(a)),
                0,
                "summary must cover written addr {a}"
            );
        }
    }

    #[test]
    fn exact_boundary_stays_inline() {
        let mut ws = WriteSet::new();
        for i in 0..INLINE_WRITES as u32 {
            ws.insert(Addr(i), 1);
        }
        assert!(ws.is_inline(), "exactly N entries must not spill");
        // Overwriting at the boundary must not spill either.
        ws.insert(Addr(0), 2);
        assert!(ws.is_inline());
        assert_eq!(ws.get(Addr(0)), Some(2));
        // The (N+1)-th distinct address does spill.
        ws.insert(Addr(10_000), 3);
        assert!(!ws.is_inline());
        assert_eq!(ws.get(Addr(10_000)), Some(3));
        assert_eq!(ws.get(Addr(0)), Some(2));
    }
}
