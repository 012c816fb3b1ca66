//! NOrec: no ownership records (Dalessandro, Spear & Scott, PPoPP 2010).
//!
//! The entire TM instance is protected by one global *sequence lock*
//! (even = unlocked, odd = a writer is committing) and transactions validate
//! **by value**: the read set stores `(addr, value)` pairs and is re-checked
//! whenever the global clock moves. Commit acquires the sequence lock with a
//! CAS from the transaction's snapshot, writes the buffered write set back,
//! and bumps the clock to the next even value.
//!
//! Properties the paper leans on:
//!
//! * **Livelock-free** — a transaction only aborts because some other
//!   transaction committed, so system-wide progress is guaranteed.
//! * Conflicts are detected at the *next read* after a concurrent commit
//!   (every read revalidates if the clock moved), so little time is wasted
//!   in doomed transactions — which is why RAC's admission restriction buys
//!   little for NOrec (paper §III-D).
//! * The single clock is a serialisation point: every commit invalidates
//!   every concurrent reader's snapshot and forces whole-read-set
//!   revalidation. Splitting data into views (one NOrec instance each)
//!   relieves precisely this — the paper's Intruder result.
//!
//! # Clock kinds
//!
//! The sequence lock is this engine's own word, and NOrec is the only
//! engine that reads the [`ClockKind`]
//! ([`crate::TmAlgorithm::runs_coarse_clock`]). [`NOrecGlobal::with_kind`]
//! resolves the kind once into two parameters of one code path:
//!
//! * **commits per summary slot** — 1 under `Global` (the algorithm
//!   above), [`COARSE_COMMITS_PER_SLOT`] under `Coarse`: Huang et al.
//!   granularity applied to the write-summary ring. Slots are OR-merged,
//!   so the filter window reaches 4x further at the price of denser
//!   filters (more false positives, each costing one value check).
//! * **writeback ride-through** — off under `Global`, on under `Coarse`:
//!   the committer publishes a tagged copy of its write summary before its
//!   first writeback store, and a read or begin that catches the lock odd
//!   proceeds when the summary proves its address untouched, instead of
//!   spinning. Under high commit rates the hold window is the dominant
//!   source of reader busy-retries, and most reads do not overlap any
//!   given commit's write set.

use std::sync::atomic::{AtomicU64, Ordering};

use votm_obs::AbortReason;
use votm_utils::{CachePadded, InlineVec};

use crate::clock::ClockKind;
use crate::cost;
use crate::heap::{Addr, WordHeap};
use crate::writeset::{bloom_bucket, summary_bit, WriteSet};
use crate::{CommitPhase, ConflictSite, OpError, OpResult};

/// Read-set entries kept inline in the transaction descriptor before
/// spilling to the heap (see [`votm_utils::InlineVec`]).
const INLINE_READS: usize = 8;

/// Commit write-summary ring length. Each committer publishes a 64-bit
/// Bloom summary of its write set keyed by commit number; a validator whose
/// snapshot lags by at most this many commits can OR the window's summaries
/// and skip value-comparing reads the window provably never wrote.
const SUMMARY_SLOTS: u64 = 64;

/// Commits per write-summary ring slot under [`ClockKind::Coarse`] (a
/// power of two). Coarser slots are denser filters (more false positives,
/// each costing one value check) but stretch the ring's reach by the same
/// factor.
const COARSE_COMMITS_PER_SLOT: u64 = 4;

/// Global state of one NOrec instance: the sequence lock plus the commit
/// write-summary ring.
#[derive(Debug)]
pub struct NOrecGlobal {
    /// The sequence lock (even = unlocked timestamp, odd = locked by a
    /// committer). Twice the number of finished writer commits, mod 2^64.
    seq: CachePadded<AtomicU64>,
    /// log2 of the commit numbers merged per summary slot: 0 under
    /// [`ClockKind::Global`], log2 [`COARSE_COMMITS_PER_SLOT`] under
    /// [`ClockKind::Coarse`].
    slot_shift: u32,
    /// Whether readers ride through a writeback hold
    /// ([`ClockKind::Coarse`]) instead of spinning on it.
    ride_through: bool,
    /// Ring of per-commit write summaries, indexed by
    /// `(commit_number >> slot_shift) & (SUMMARY_SLOTS - 1)` where a
    /// commit that moves the clock to even value `t` has commit number
    /// `t / 2`. A slot is written only while its committer holds the
    /// sequence lock, so any validator that reads a torn/overwritten window
    /// is caught by its final clock-stability check and retries — stale
    /// ring data can cause a spurious retry, never a missed conflict.
    /// Dense: one writer at a time (the lock holder), and a validator reads
    /// the whole window.
    summaries: Box<[AtomicU64]>,
    /// Ride-through only: the *in-flight* commit's write summary, tagged
    /// with the odd sequence value its committer holds. Published after
    /// winning the sequence-lock CAS and before the first writeback store,
    /// it lets readers that catch the lock odd prove their address is
    /// untouched by the ongoing writeback and ride through it instead of
    /// spinning (see [`NOrecTx::read_through_writeback`]).
    in_flight: CachePadded<InFlight>,
}

/// Tagged in-flight write-summary publication (ride-through).
#[derive(Debug, Default)]
struct InFlight {
    /// The odd sequence value the publishing committer holds. Readers
    /// accept `summary` only when this matches the odd value they observed
    /// (the tag store is `Release`d after the summary store, so a matching
    /// tag guarantees the summary alongside it is this commit's).
    tag: AtomicU64,
    summary: AtomicU64,
}

impl NOrecGlobal {
    /// New instance at timestamp 0 using the given clock strategy.
    pub fn with_kind(kind: ClockKind) -> Self {
        let coarse = kind == ClockKind::Coarse;
        Self {
            seq: CachePadded::new(AtomicU64::new(0)),
            slot_shift: if coarse {
                COARSE_COMMITS_PER_SLOT.trailing_zeros()
            } else {
                0
            },
            ride_through: coarse,
            summaries: (0..SUMMARY_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            in_flight: CachePadded::new(InFlight::default()),
        }
    }

    /// Timestamp advances paid, read off the sequence lock: a writer
    /// commit moves it by two, so this is half the word — the finished
    /// writer commits, an in-flight commit's odd value rounding down.
    pub(crate) fn bumps(&self) -> u64 {
        self.seq.load(Ordering::Relaxed) >> 1
    }

    #[inline]
    fn load_seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    #[inline]
    fn summary_slot(&self, slot: u64) -> &AtomicU64 {
        &self.summaries[(slot & (SUMMARY_SLOTS - 1)) as usize]
    }

    /// Publishes a committing write summary for commit number
    /// `commit_number` into slot `commit_number >> slot_shift`: the slot's
    /// first commit number resets it, later ones OR-merge into it. With
    /// one commit per slot every commit is a first.
    #[inline]
    fn publish_summary(&self, commit_number: u64, summary: u64) {
        let slot = self.summary_slot(commit_number >> self.slot_shift);
        if commit_number & ((1 << self.slot_shift) - 1) == 0 {
            slot.store(summary, Ordering::Release);
        } else {
            slot.fetch_or(summary, Ordering::AcqRel);
        }
    }

    /// ORs the summary slots covering commit numbers `(lo, hi]` (a
    /// non-empty window), returning `None` when the window has left the
    /// ring; the scan cost, one [`cost::FILTER_WORD`] per slot, goes to
    /// `*work`. Wrap-safe.
    #[inline]
    fn window_filter(&self, lo: u64, hi: u64, work: &mut u64) -> Option<u64> {
        debug_assert!(lo != hi, "empty validation window");
        if hi.wrapping_sub(lo) > SUMMARY_SLOTS << self.slot_shift {
            return None; // snapshot too old: the window has left the ring
        }
        let first = lo.wrapping_add(1) >> self.slot_shift;
        let slots = (hi >> self.slot_shift).wrapping_sub(first) + 1;
        if slots > SUMMARY_SLOTS {
            return None; // an unaligned window straddles one slot too many
        }
        let mut combined = 0u64;
        for k in 0..slots {
            combined |= self
                .summary_slot(first.wrapping_add(k))
                .load(Ordering::Acquire);
        }
        // One word-load per slot; the slots are read-mostly shared lines,
        // far cheaper than metadata CAS traffic.
        *work += cost::FILTER_WORD * slots;
        Some(combined)
    }

    /// Current commit timestamp (odd while a commit is in flight).
    #[cfg(test)]
    fn timestamp(&self) -> u64 {
        self.load_seq()
    }

    /// Test hook: preloads the sequence lock with `t`, for wrap-around
    /// coverage.
    #[cfg(test)]
    fn preload(&self, t: u64) {
        self.seq.store(t, Ordering::Release);
    }
}

/// One thread's NOrec transaction context, reused across attempts.
#[derive(Debug)]
pub struct NOrecTx {
    snapshot: u64,
    reads: InlineVec<(Addr, u64), INLINE_READS>,
    writes: WriteSet,
    /// Work units accrued since `take_work`.
    work: u64,
    active: bool,
    /// Set between a successful `commit_begin` and `commit_finish`.
    commit_seq: Option<u64>,
    /// Why the most recent `Err(Conflict)` happened (see
    /// [`NOrecTx::conflict_reason`]).
    last_conflict: AbortReason,
    /// Where the most recent `Err(Conflict)` was detected (see
    /// [`NOrecTx::conflict_site`]).
    last_site: ConflictSite,
}

impl Default for NOrecTx {
    fn default() -> Self {
        Self::new()
    }
}

impl NOrecTx {
    /// Fresh context (no active transaction).
    pub fn new() -> Self {
        Self {
            snapshot: 0,
            reads: InlineVec::new(),
            writes: WriteSet::new(),
            work: 0,
            active: false,
            commit_seq: None,
            last_conflict: AbortReason::Explicit,
            last_site: ConflictSite::None,
        }
    }

    /// The structured cause of the most recent `Err(Conflict)` this context
    /// returned. Only meaningful between that error and the next `begin`.
    pub fn conflict_reason(&self) -> AbortReason {
        self.last_conflict
    }

    /// Where the most recent `Err(Conflict)` was detected. NOrec validates
    /// by value against real addresses, so every conflict site carries the
    /// failing address plus its Bloom write-summary bucket
    /// ([`ConflictSite::Bloom`]). Only meaningful between that error and
    /// the next `begin`.
    pub fn conflict_site(&self) -> ConflictSite {
        self.last_site
    }

    /// Starts an attempt. `Busy` while a committer holds the sequence lock.
    pub fn begin(&mut self, global: &NOrecGlobal) -> OpResult<()> {
        debug_assert!(!self.active, "begin called with a transaction active");
        let mut s = global.load_seq();
        self.work += cost::BEGIN;
        if s & 1 == 1 {
            if !global.ride_through {
                return Err(OpError::Busy);
            }
            // Ride-through begins *through* the hold at the pre-commit
            // timestamp `s - 1` (the last stable state). Every read checks
            // the clock itself, so reads overlapping the ongoing writeback
            // are either proven untouched by the in-flight summary or
            // retried — beginning early never observes a torn state.
            s = s.wrapping_sub(1);
        }
        self.snapshot = s;
        self.reads.clear();
        self.writes.clear();
        self.active = true;
        self.commit_seq = None;
        self.last_site = ConflictSite::None;
        Ok(())
    }

    /// Value-based validation: re-reads every read-set entry and, if all
    /// still match, advances the snapshot to `target` (an even clock value
    /// newer than the snapshot, observed by the caller).
    ///
    /// When the snapshot lags `target` by at most the ring's reach
    /// ([`SUMMARY_SLOTS`] slots of one commit, or of
    /// [`COARSE_COMMITS_PER_SLOT`] under the coarse clock), the window's published write summaries are ORed
    /// together and reads whose summary bit is clear — addresses
    /// *provably* untouched by every interleaved commit — skip the value
    /// comparison (a register test, [`cost::FILTER_WORD`], instead of a
    /// heap re-read). Correctness does not depend on ring freshness: if
    /// any summary in the window could have been overwritten by a later
    /// commit, the clock has necessarily moved past `target` and the final
    /// stability check fails the whole pass.
    fn validate(&mut self, global: &NOrecGlobal, heap: &WordHeap, target: u64) -> OpResult<()> {
        debug_assert_eq!(target & 1, 0);
        debug_assert!(target != self.snapshot);
        self.work += cost::METADATA_OP;
        let filter = global.window_filter(self.snapshot / 2, target / 2, &mut self.work);
        for (addr, seen) in self.reads.iter() {
            if let Some(f) = filter {
                if f & summary_bit(addr) == 0 {
                    self.work += cost::FILTER_WORD;
                    continue;
                }
            }
            self.work += cost::VALIDATE_WORD;
            if heap.load(addr) != seen {
                self.last_conflict = AbortReason::NorecValidation;
                self.last_site = ConflictSite::Bloom(addr, bloom_bucket(addr));
                return Err(OpError::Conflict);
            }
        }
        // The clock must not have moved during our re-reads, otherwise this
        // validation pass is not atomic (and the summary window may be
        // stale) — back off and retry.
        if global.load_seq() != target {
            return Err(OpError::Busy);
        }
        self.snapshot = target;
        Ok(())
    }

    /// Transactional read of `addr`.
    pub fn read(&mut self, global: &NOrecGlobal, heap: &WordHeap, addr: Addr) -> OpResult<u64> {
        debug_assert!(self.active);
        if let Some(v) = self.writes.get(addr) {
            self.work += cost::LOCAL_ACCESS; // write-buffer hit, thread-local
            return Ok(v);
        }
        self.work += cost::SHARED_ACCESS;
        let v = heap.load(addr);
        let s = global.load_seq();
        if s == self.snapshot {
            self.reads.push((addr, v));
            return Ok(v);
        }
        if s & 1 == 1 {
            if global.ride_through && s == self.snapshot.wrapping_add(1) {
                // The only movement since our snapshot is one in-flight
                // commit; its published summary may prove `addr` untouched.
                return self.read_through_writeback(global, addr, v, s);
            }
            // Committer mid-writeback: the loaded value may be inconsistent.
            return Err(OpError::Busy);
        }
        // Clock moved since our snapshot: revalidate, then re-read once.
        self.validate(global, heap, s)?;
        self.work += cost::SHARED_ACCESS;
        let v = heap.load(addr);
        let s = global.load_seq();
        if s != self.snapshot {
            if global.ride_through && s == self.snapshot.wrapping_add(1) {
                // A fresh commit grabbed the lock between our revalidation
                // and the re-read: same ride-through situation.
                return self.read_through_writeback(global, addr, v, s);
            }
            return Err(OpError::Busy); // moved again; retry the whole read
        }
        self.reads.push((addr, v));
        Ok(v)
    }

    /// Ride-through: accept a read taken while a committer holds the
    /// sequence lock at `held = snapshot + 1`, when it is provably
    /// unaffected by the ongoing writeback. `v` was loaded before `held`
    /// was observed. Two proofs suffice:
    ///
    /// * **Tag mismatch** — the in-flight tag is not yet `held`, so at the
    ///   tag load the committer had not reached its first writeback store
    ///   (the tag store precedes writeback; a writeback value read by us
    ///   would have made the tag visible via the heap word's
    ///   release/acquire pair). `v` is therefore the pre-commit value,
    ///   consistent with our snapshot whatever the commit writes.
    /// * **Summary bit clear** — the tag matches, so the summary alongside
    ///   it is this commit's; a clear bit means the commit never writes
    ///   `addr` and `v` equals the pre-commit value either way.
    ///
    /// A final clock recheck pins both proofs to the *same* hold: if the
    /// lock moved on, a newer commit's writeback may already overlap and
    /// the read retries. A set bit on a matching tag is a genuine overlap
    /// with the in-flight writeback — spin as plain NOrec would.
    fn read_through_writeback(
        &mut self,
        global: &NOrecGlobal,
        addr: Addr,
        v: u64,
        held: u64,
    ) -> OpResult<u64> {
        // Tag + summary + stability recheck: read-mostly shared lines.
        self.work += cost::FILTER_WORD * 3;
        let tag = global.in_flight.tag.load(Ordering::Acquire);
        if tag == held && global.in_flight.summary.load(Ordering::Acquire) & summary_bit(addr) != 0
        {
            return Err(OpError::Busy); // the in-flight commit writes `addr`
        }
        if global.load_seq() != held {
            return Err(OpError::Busy); // hold ended mid-proof; retry the read
        }
        self.reads.push((addr, v));
        Ok(v)
    }

    /// Transactional write: buffered until commit.
    pub fn write(&mut self, addr: Addr, value: u64) -> OpResult<()> {
        debug_assert!(self.active);
        self.work += cost::LOCAL_ACCESS;
        self.writes.insert(addr, value);
        Ok(())
    }

    /// First commit phase: acquire the sequence lock, validate, write back.
    ///
    /// * `Ok(Done)` — read-only fast path, committed with no global write.
    /// * `Ok(NeedsFinish)` — writeback done, sequence lock **held**; call
    ///   [`NOrecTx::commit_finish`] after `cost` cycles.
    /// * `Err(Busy)` — lock held or lost the CAS race; snapshot has been
    ///   revalidated, retry.
    /// * `Err(Conflict)` — validation failed; abort.
    pub fn commit_begin(&mut self, global: &NOrecGlobal, heap: &WordHeap) -> OpResult<CommitPhase> {
        debug_assert!(self.active);
        if self.writes.is_empty() {
            // Read-only: every read was consistent as of `snapshot`; NOrec
            // read-only transactions commit without touching the clock.
            self.active = false;
            self.work += cost::COMMIT_BASE / 2;
            return Ok(CommitPhase::Done);
        }
        self.work += cost::METADATA_OP;
        match global.seq.compare_exchange(
            self.snapshot,
            self.snapshot.wrapping_add(1),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {}
            Err(observed) => {
                if observed & 1 == 1 {
                    return Err(OpError::Busy);
                }
                // Someone committed since our snapshot; revalidate so the
                // retried CAS starts from a fresh snapshot.
                self.validate(global, heap, observed)?;
                return Err(OpError::Busy);
            }
        }
        // Sequence lock held (odd): publish this commit's write summary
        // (validators key it by commit number target/2), then write back.
        global.publish_summary(self.snapshot.wrapping_add(2) / 2, self.writes.summary());
        if global.ride_through {
            // Tagged in-flight publication for ride-through readers; the
            // summary must be visible before the tag that vouches for it,
            // and both before the first writeback store below.
            global
                .in_flight
                .summary
                .store(self.writes.summary(), Ordering::Relaxed);
            global
                .in_flight
                .tag
                .store(self.snapshot.wrapping_add(1), Ordering::Release);
            self.work += cost::FILTER_WORD;
        }
        let n = self.writes.len() as u64;
        for (addr, value) in self.writes.iter() {
            heap.store(addr, value);
        }
        let write_cost = cost::COMMIT_BASE + n * cost::WRITEBACK_WORD;
        self.work += write_cost;
        self.commit_seq = Some(self.snapshot.wrapping_add(2));
        Ok(CommitPhase::NeedsFinish { cost: write_cost })
    }

    /// Second commit phase: release the sequence lock at the next even
    /// timestamp. Only call after `commit_begin` returned `NeedsFinish`.
    pub fn commit_finish(&mut self, global: &NOrecGlobal) {
        let next = self
            .commit_seq
            .take()
            .expect("commit_finish without commit_begin");
        global.seq.store(next, Ordering::Release);
        self.active = false;
    }

    /// Rolls back the attempt (buffered writes are simply discarded).
    pub fn abort(&mut self) {
        debug_assert!(self.commit_seq.is_none(), "abort while holding the seqlock");
        self.work += cost::ABORT_PENALTY;
        self.reads.clear();
        self.writes.clear();
        self.active = false;
    }

    /// True while an attempt is active (begun, not yet committed/aborted).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// True between a `NeedsFinish` from [`Self::commit_begin`] and the
    /// matching [`Self::commit_finish`] — i.e. while the global sequence
    /// lock is held and the writeback has been published. An unwind in this
    /// window must *finish* the commit (the writes are already in the
    /// heap); aborting would strand the seqlock at an odd value forever.
    pub fn mid_commit(&self) -> bool {
        self.commit_seq.is_some()
    }

    /// Drains accumulated work units (virtual cycles) since the last call.
    #[inline]
    pub fn take_work(&mut self) -> u64 {
        std::mem::take(&mut self.work)
    }

    /// Read-set size of the current attempt.
    #[cfg(test)]
    fn read_set_len(&self) -> usize {
        self.reads.len()
    }

    /// Bloom summary (one bit per [`crate::bloom_bucket`]) of the current
    /// attempt's write set — the wakeup key a commit of this attempt would
    /// publish. Zero iff the write set is empty.
    pub fn write_summary(&self) -> u64 {
        self.writes.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (NOrecGlobal, WordHeap) {
        (NOrecGlobal::with_kind(ClockKind::Global), WordHeap::new(64))
    }

    /// Runs one transaction to completion with spin-retry on Busy.
    fn run_tx(
        g: &NOrecGlobal,
        h: &WordHeap,
        tx: &mut NOrecTx,
        body: impl Fn(&mut NOrecTx) -> OpResult<()>,
    ) {
        'attempt: loop {
            while tx.begin(g).is_err() {}
            match body(tx) {
                Ok(()) => {}
                Err(OpError::Conflict) => {
                    tx.abort();
                    continue 'attempt;
                }
                Err(OpError::Busy) => unreachable!("test bodies retry Busy internally"),
            }
            loop {
                match tx.commit_begin(g, h) {
                    Ok(CommitPhase::Done) => break 'attempt,
                    Ok(CommitPhase::NeedsFinish { .. }) => {
                        tx.commit_finish(g);
                        break 'attempt;
                    }
                    Err(OpError::Busy) => continue,
                    Err(OpError::Conflict) => {
                        tx.abort();
                        continue 'attempt;
                    }
                }
            }
        }
    }

    #[test]
    fn read_your_own_write() {
        let (g, h) = setup();
        let mut tx = NOrecTx::new();
        tx.begin(&g).unwrap();
        tx.write(Addr(1), 42).unwrap();
        assert_eq!(tx.read(&g, &h, Addr(1)).unwrap(), 42);
        assert_eq!(h.load(Addr(1)), 0, "write must be buffered, not in-place");
        match tx.commit_begin(&g, &h).unwrap() {
            CommitPhase::NeedsFinish { .. } => tx.commit_finish(&g),
            CommitPhase::Done => panic!("writer tx must need finish"),
        }
        assert_eq!(h.load(Addr(1)), 42);
    }

    #[test]
    fn read_only_commit_does_not_bump_clock() {
        let (g, h) = setup();
        let mut tx = NOrecTx::new();
        tx.begin(&g).unwrap();
        tx.read(&g, &h, Addr(0)).unwrap();
        assert_eq!(tx.commit_begin(&g, &h).unwrap(), CommitPhase::Done);
        assert_eq!(g.timestamp(), 0);
    }

    #[test]
    fn writer_commit_bumps_clock_by_two() {
        let (g, h) = setup();
        let mut tx = NOrecTx::new();
        run_tx(&g, &h, &mut tx, |tx| tx.write(Addr(0), 1));
        assert_eq!(g.timestamp(), 2);
        run_tx(&g, &h, &mut tx, |tx| tx.write(Addr(0), 2));
        assert_eq!(g.timestamp(), 4);
        assert_eq!(g.bumps(), 2);
    }

    #[test]
    fn conflicting_read_is_detected() {
        let (g, h) = setup();
        let mut t1 = NOrecTx::new();
        let mut t2 = NOrecTx::new();
        t1.begin(&g).unwrap();
        assert_eq!(t1.read(&g, &h, Addr(5)).unwrap(), 0);
        // t2 commits a write to the same address.
        run_tx(&g, &h, &mut t2, |tx| tx.write(Addr(5), 99));
        // t1's next read triggers revalidation, which sees Addr(5) changed.
        assert_eq!(t1.read(&g, &h, Addr(6)), Err(OpError::Conflict));
        t1.abort();
    }

    #[test]
    fn disjoint_writer_does_not_kill_reader() {
        let (g, h) = setup();
        let mut t1 = NOrecTx::new();
        let mut t2 = NOrecTx::new();
        t1.begin(&g).unwrap();
        assert_eq!(t1.read(&g, &h, Addr(5)).unwrap(), 0);
        run_tx(&g, &h, &mut t2, |tx| tx.write(Addr(9), 1));
        // Value-based validation: Addr(5) is unchanged, so t1 survives
        // (this is NOrec's advantage over timestamp-based validation).
        assert_eq!(t1.read(&g, &h, Addr(6)).unwrap(), 0);
        assert_eq!(t1.commit_begin(&g, &h).unwrap(), CommitPhase::Done);
    }

    #[test]
    fn write_skew_of_doomed_writer_is_caught_at_commit() {
        let (g, h) = setup();
        let mut t1 = NOrecTx::new();
        let mut t2 = NOrecTx::new();
        t1.begin(&g).unwrap();
        let v = t1.read(&g, &h, Addr(0)).unwrap();
        t1.write(Addr(1), v + 1).unwrap();
        // t2 commits a change to Addr(0) first.
        run_tx(&g, &h, &mut t2, |tx| tx.write(Addr(0), 7));
        // t1's commit CAS fails (clock moved), revalidation sees Addr(0)
        // changed -> Conflict.
        assert_eq!(t1.commit_begin(&g, &h), Err(OpError::Conflict));
        t1.abort();
        assert_eq!(h.load(Addr(1)), 0, "aborted writes must not leak");
    }

    #[test]
    fn begin_is_busy_while_commit_lock_held() {
        let (g, h) = setup();
        let mut t1 = NOrecTx::new();
        t1.begin(&g).unwrap();
        t1.write(Addr(0), 5).unwrap();
        let CommitPhase::NeedsFinish { cost } = t1.commit_begin(&g, &h).unwrap() else {
            panic!("writer needs finish");
        };
        assert!(cost > 0);
        let mut t2 = NOrecTx::new();
        assert_eq!(t2.begin(&g), Err(OpError::Busy));
        t1.commit_finish(&g);
        assert!(t2.begin(&g).is_ok());
        // And t2 observes t1's committed value.
        assert_eq!(t2.read(&g, &h, Addr(0)).unwrap(), 5);
    }

    #[test]
    fn reads_are_busy_while_commit_lock_held() {
        let (g, h) = setup();
        let mut t1 = NOrecTx::new();
        let mut t2 = NOrecTx::new();
        t2.begin(&g).unwrap();
        t1.begin(&g).unwrap();
        t1.write(Addr(0), 5).unwrap();
        let _ = t1.commit_begin(&g, &h).unwrap();
        assert_eq!(t2.read(&g, &h, Addr(3)), Err(OpError::Busy));
        t1.commit_finish(&g);
        // After release: t2 revalidates (empty read set) and proceeds.
        assert_eq!(t2.read(&g, &h, Addr(3)).unwrap(), 0);
    }

    #[test]
    fn work_units_accumulate_and_drain() {
        let (g, h) = setup();
        let mut tx = NOrecTx::new();
        tx.begin(&g).unwrap();
        tx.read(&g, &h, Addr(0)).unwrap();
        tx.write(Addr(1), 1).unwrap();
        let w = tx.take_work();
        assert!(w > 0);
        assert_eq!(tx.take_work(), 0, "drained");
        tx.abort();
        assert!(tx.take_work() >= cost::ABORT_PENALTY);
    }

    #[test]
    fn summary_filter_skips_value_checks_for_untouched_reads() {
        let (g, h) = setup();
        let mut t1 = NOrecTx::new();
        let mut t2 = NOrecTx::new();
        t1.begin(&g).unwrap();
        const N_READS: u64 = 20;
        for i in 0..N_READS {
            t1.read(&g, &h, Addr(i as u32)).unwrap();
        }
        // One disjoint commit moves the clock by exactly one slot.
        run_tx(&g, &h, &mut t2, |tx| tx.write(Addr(50), 1));
        t1.take_work();
        // This read revalidates through the 1-commit window. With the
        // summary filter nearly every read-set entry is dismissed at
        // FILTER_WORD instead of VALIDATE_WORD.
        t1.read(&g, &h, Addr(21)).unwrap();
        let w = t1.take_work();
        let full = cost::SHARED_ACCESS + cost::METADATA_OP + cost::VALIDATE_WORD * N_READS;
        assert!(
            w < full,
            "filtered revalidation ({w}) should undercut full validation ({full})"
        );
        assert_eq!(t1.commit_begin(&g, &h).unwrap(), CommitPhase::Done);
    }

    #[test]
    fn filter_window_conflicts_are_still_caught() {
        let (g, h) = setup();
        let mut t1 = NOrecTx::new();
        let mut t2 = NOrecTx::new();
        t1.begin(&g).unwrap();
        t1.read(&g, &h, Addr(5)).unwrap();
        // Several disjoint commits, then one touching the read address —
        // all inside the summary window.
        for i in 0..5 {
            run_tx(&g, &h, &mut t2, |tx| tx.write(Addr(30 + i), 1));
        }
        run_tx(&g, &h, &mut t2, |tx| tx.write(Addr(5), 77));
        assert_eq!(t1.read(&g, &h, Addr(6)), Err(OpError::Conflict));
        t1.abort();
    }

    #[test]
    fn snapshot_older_than_ring_falls_back_to_full_validation() {
        let (g, h) = setup();
        let mut t1 = NOrecTx::new();
        let mut t2 = NOrecTx::new();
        t1.begin(&g).unwrap();
        t1.read(&g, &h, Addr(10)).unwrap();
        // 80 disjoint commits — more than SUMMARY_SLOTS, so t1's window has
        // left the ring and it must value-compare everything. The reads are
        // all unchanged, so validation still succeeds (NOrec's value-based
        // advantage survives the fallback).
        for i in 0..80u32 {
            run_tx(&g, &h, &mut t2, |tx| tx.write(Addr(20 + i % 40), 1));
        }
        assert!(g.timestamp() / 2 > SUMMARY_SLOTS);
        assert_eq!(t1.read(&g, &h, Addr(11)).unwrap(), 0);
        assert_eq!(t1.commit_begin(&g, &h).unwrap(), CommitPhase::Done);

        // Same shape but with a real conflict beyond the ring: caught.
        let mut t3 = NOrecTx::new();
        t3.begin(&g).unwrap();
        t3.read(&g, &h, Addr(10)).unwrap();
        for i in 0..80u32 {
            run_tx(&g, &h, &mut t2, |tx| tx.write(Addr(20 + i % 40), 2));
        }
        run_tx(&g, &h, &mut t2, |tx| tx.write(Addr(10), 9));
        assert_eq!(t3.read(&g, &h, Addr(11)), Err(OpError::Conflict));
        t3.abort();
    }

    #[test]
    fn read_set_spills_past_inline_capacity() {
        let (g, h) = setup();
        let mut tx = NOrecTx::new();
        tx.begin(&g).unwrap();
        for i in 0..(INLINE_READS as u32 * 3) {
            assert_eq!(tx.read(&g, &h, Addr(i)).unwrap(), 0);
        }
        assert_eq!(tx.read_set_len(), INLINE_READS * 3);
        assert_eq!(tx.commit_begin(&g, &h).unwrap(), CommitPhase::Done);
    }

    #[test]
    fn snapshot_extension_lets_old_reader_keep_running() {
        let (g, h) = setup();
        let mut t1 = NOrecTx::new();
        let mut t2 = NOrecTx::new();
        t1.begin(&g).unwrap();
        // Ten disjoint commits by t2; t1 revalidates through all of them.
        for i in 0..10 {
            run_tx(&g, &h, &mut t2, |tx| tx.write(Addr(20 + i), 1));
            assert_eq!(t1.read(&g, &h, Addr(10)).unwrap(), 0);
        }
        assert_eq!(t1.commit_begin(&g, &h).unwrap(), CommitPhase::Done);
    }

    #[test]
    fn seqlock_wraps_cleanly_at_u64_max() {
        let (g, h) = setup();
        g.preload(u64::MAX - 1); // even, two commits from wrapping
        let mut tx = NOrecTx::new();
        tx.begin(&g).unwrap();
        assert_eq!(tx.read(&g, &h, Addr(0)).unwrap(), 0);
        run_tx(&g, &h, &mut NOrecTx::new(), |tx| tx.write(Addr(1), 1));
        assert_eq!(g.timestamp(), 0, "wrapped to zero");
        // The straddling reader revalidates across the wrap and survives
        // (its read is untouched), then catches a real post-wrap conflict.
        assert_eq!(tx.read(&g, &h, Addr(2)).unwrap(), 0);
        run_tx(&g, &h, &mut NOrecTx::new(), |tx| tx.write(Addr(0), 9));
        assert_eq!(tx.read(&g, &h, Addr(3)), Err(OpError::Conflict));
        tx.abort();
    }

    // ---- coarse ring ----

    #[test]
    fn coarse_ring_reaches_past_the_fine_window() {
        let g = NOrecGlobal::with_kind(ClockKind::Coarse);
        let h = WordHeap::new(64);
        let mut t1 = NOrecTx::new();
        let mut t2 = NOrecTx::new();
        t1.begin(&g).unwrap();
        const N_READS: u64 = 20;
        for i in 0..N_READS {
            t1.read(&g, &h, Addr(i as u32)).unwrap();
        }
        // 80 disjoint commits: past the fine ring's 64-commit reach, but
        // well inside the coarse ring's 256.
        for i in 0..80u32 {
            run_tx(&g, &h, &mut t2, |tx| tx.write(Addr(30 + i % 30), 1));
        }
        t1.take_work();
        t1.read(&g, &h, Addr(25)).unwrap();
        let w = t1.take_work();
        let full = 2 * cost::SHARED_ACCESS + cost::METADATA_OP + cost::VALIDATE_WORD * N_READS;
        assert!(
            w < full,
            "coarse filter ({w}) should still undercut full validation ({full})"
        );
        assert_eq!(t1.commit_begin(&g, &h).unwrap(), CommitPhase::Done);
    }

    #[test]
    fn coarse_ring_conflicts_are_still_caught() {
        let g = NOrecGlobal::with_kind(ClockKind::Coarse);
        let h = WordHeap::new(64);
        let mut t1 = NOrecTx::new();
        let mut t2 = NOrecTx::new();
        t1.begin(&g).unwrap();
        t1.read(&g, &h, Addr(5)).unwrap();
        for i in 0..80u32 {
            run_tx(&g, &h, &mut t2, |tx| tx.write(Addr(30 + i % 30), 1));
        }
        run_tx(&g, &h, &mut t2, |tx| tx.write(Addr(5), 77));
        assert_eq!(t1.read(&g, &h, Addr(6)), Err(OpError::Conflict));
        t1.abort();
    }

    /// The coarse clock rides through a committer's writeback hold: while the
    /// sequence lock is odd, reads provably outside the in-flight write
    /// summary proceed, reads inside it spin, and `begin` starts at the
    /// pre-commit timestamp instead of spinning. The default clock keeps
    /// the plain NOrec behaviour (everything spins) bit-for-bit.
    #[test]
    fn coarse_readers_ride_through_an_in_flight_writeback() {
        let g = NOrecGlobal::with_kind(ClockKind::Coarse);
        let h = WordHeap::new(64);
        // Committer: grabs the sequence lock, writes Addr(7), parks
        // mid-hold (NeedsFinish not yet finished).
        let mut committer = NOrecTx::new();
        committer.begin(&g).unwrap();
        committer.write(Addr(7), 99).unwrap();
        assert!(matches!(
            committer.commit_begin(&g, &h).unwrap(),
            CommitPhase::NeedsFinish { .. }
        ));
        assert_eq!(g.timestamp() & 1, 1, "lock held");

        // A reader snapshotted before the hold rides through for an
        // address the in-flight commit never writes...
        let mut reader = NOrecTx::new();
        // (begin-through-hold: starts at the pre-commit timestamp)
        reader.begin(&g).unwrap();
        assert_eq!(reader.read(&g, &h, Addr(3)).unwrap(), 0);
        // ...but spins on genuine overlap with the ongoing writeback.
        assert_eq!(reader.read(&g, &h, Addr(7)), Err(OpError::Busy));

        committer.commit_finish(&g);
        // After release the spun read succeeds via revalidation and
        // sees the committed value; the ride-through read stays valid.
        assert_eq!(reader.read(&g, &h, Addr(7)).unwrap(), 99);
        assert_eq!(reader.commit_begin(&g, &h).unwrap(), CommitPhase::Done);

        // Control: the global clock spins in both situations.
        let g = NOrecGlobal::with_kind(ClockKind::Global);
        let h = WordHeap::new(64);
        let mut committer = NOrecTx::new();
        committer.begin(&g).unwrap();
        committer.write(Addr(7), 99).unwrap();
        assert!(matches!(
            committer.commit_begin(&g, &h).unwrap(),
            CommitPhase::NeedsFinish { .. }
        ));
        let mut reader = NOrecTx::new();
        assert_eq!(reader.begin(&g), Err(OpError::Busy));
        committer.commit_finish(&g);
        reader.begin(&g).unwrap();
        assert_eq!(reader.read(&g, &h, Addr(3)).unwrap(), 0);
    }

    /// A ride-through read is value-recorded like any other: if the *next*
    /// commit overwrites it, validation still catches the conflict — the
    /// summary proof only ever covers the one in-flight commit it was
    /// checked against.
    #[test]
    fn ride_through_reads_still_value_validate_against_later_commits() {
        let g = NOrecGlobal::with_kind(ClockKind::Coarse);
        let h = WordHeap::new(64);
        let mut committer = NOrecTx::new();
        committer.begin(&g).unwrap();
        committer.write(Addr(7), 99).unwrap();
        assert!(matches!(
            committer.commit_begin(&g, &h).unwrap(),
            CommitPhase::NeedsFinish { .. }
        ));
        let mut reader = NOrecTx::new();
        reader.begin(&g).unwrap();
        assert_eq!(reader.read(&g, &h, Addr(3)).unwrap(), 0); // rode through
        committer.commit_finish(&g);
        let mut other = NOrecTx::new();
        run_tx(&g, &h, &mut other, |tx| tx.write(Addr(3), 5));
        assert_eq!(reader.read(&g, &h, Addr(4)), Err(OpError::Conflict));
        reader.abort();
    }
}
