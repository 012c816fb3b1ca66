//! The orec engine: ownership records, a redo log and invisible reads.
//! OrecEagerRedo and OrecLazy are this one descriptor, told apart only by
//! *when* a transaction takes its write orecs ([`Acquire`]).
//!
//! A striped table of *ownership records* (orecs) guards the heap: each word
//! hashes to one orec holding either a version timestamp (unlocked) or the
//! locking transaction's identity (locked). Writes are buffered in a redo
//! log; a writer commit holds every write orec, takes a stamp from the
//! version clock, validates the read set, writes the redo log back and
//! releases the orecs at the new version.
//!
//! # Acquisition time
//!
//! * [`Acquire::Encounter`] — **OrecEagerRedo** (the RSTM algorithm the
//!   paper describes as "similar to TinySTM"): the orec is taken at the
//!   first write. A transaction that meets a foreign lock aborts itself and
//!   restarts at once — the aggressive policy under which the paper
//!   observes livelock at high thread counts: restarting transactions
//!   re-acquire locks and keep killing each other's progress (§III-D). RAC
//!   exists to break exactly this cycle by restricting admission.
//! * [`Acquire::Commit`] — **OrecLazy** (TL2-style; an implemented
//!   extension giving the paper's §IV-C adaptive-TM direction a third
//!   plug-in): writes touch no metadata and the orecs are taken inside
//!   commit, in write order. Lock-hold windows are short, and commit-time
//!   locking "can avoid livelock" (§III-D) because a transaction only
//!   aborts when a *committing* transaction beat it.
//!
//! The field is read at four sites, each a consequence of when the locks
//! are held: [`OrecTx::write`] (take the orec now, or only buffer), the
//! prefix of [`OrecTx::commit_begin`] (charge the tick, or run the
//! acquisition loop), lock custody after a failed commit attempt (keep the
//! orecs until `abort`, or give them back before returning) and snapshot
//! extension (walk through own locks, or fail on any lock). Everything
//! else — `begin`, `read`, validation, the stamp, write-back, release — is
//! one path.
//!
//! # Clock
//!
//! The version clock is a [`crate::clock::ClockSource`] that takes one
//! fetch-add per writer commit, whatever [`crate::ClockKind`] the system
//! names: the coarse kind is NOrec's alone
//! ([`crate::TmAlgorithm::runs_coarse_clock`]). Every orec is released at
//! a clock value already reached, so a version ahead of a snapshot always
//! names a commit the snapshot missed.

use std::sync::atomic::{AtomicU64, Ordering};

use votm_obs::AbortReason;
use votm_utils::{hash_u64, InlineVec};

use crate::clock::ClockSource;
use crate::cost;
use crate::heap::{Addr, WordHeap};
use crate::writeset::WriteSet;
use crate::{CommitPhase, ConflictSite, OpError, OpResult};

/// Read-set orec indices kept inline in the transaction descriptor before
/// spilling to the heap (see [`votm_utils::InlineVec`]).
const INLINE_READS: usize = 8;

/// Orec encoding: LSB = lock bit. Unlocked: `version << 1`. Locked:
/// `(owner << 1) | 1` where `owner` is a non-zero transaction identity.
#[inline]
fn pack_version(version: u64) -> u64 {
    version << 1
}

#[inline]
fn pack_owner(owner: u64) -> u64 {
    (owner << 1) | 1
}

#[inline]
fn is_locked(orec: u64) -> bool {
    orec & 1 == 1
}

#[inline]
fn version_of(orec: u64) -> u64 {
    orec >> 1
}

#[inline]
fn owner_of(orec: u64) -> u64 {
    orec >> 1
}

/// Converts a locked orec word into the holder's 0-based thread index.
#[inline]
fn enemy_of(orec: u64) -> Option<usize> {
    Some(owner_of(orec) as usize - 1)
}

/// When a transaction takes the orecs guarding its write set — the one
/// design dimension separating the two orec algorithms (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// At the first write to each location (OrecEagerRedo).
    Encounter,
    /// Inside `commit_begin`, for the whole write set (OrecLazy).
    Commit,
}

/// Global state of one orec instance: the version clock and the orec table.
pub struct OrecGlobal {
    clock: ClockSource,
    /// Dense on purpose (8 B per orec, as in TL2, TinySTM and RSTM): the
    /// hash scatters neighbouring addresses over the table, so no one line
    /// is written by everybody the way the clock word is, and padding each
    /// orec to a cache line would cost 16x the words it guards (DESIGN.md
    /// "Footprint").
    orecs: Box<[AtomicU64]>,
    mask: usize,
}

impl OrecGlobal {
    /// Default orec table size — RSTM uses 2^20 for a whole process; 2^12
    /// per view keeps false conflicts below 1% for the workloads here while
    /// staying cache-friendly.
    pub const DEFAULT_ORECS: usize = 1 << 12;

    /// New instance with the default orec table.
    pub fn new() -> Self {
        Self::with_orecs(Self::DEFAULT_ORECS)
    }

    /// New instance with `n` orecs (a power of two).
    pub fn with_orecs(n: usize) -> Self {
        assert!(n.is_power_of_two(), "orec count must be a power of two");
        Self {
            clock: ClockSource::default(),
            orecs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mask: n - 1,
        }
    }

    /// The clock source (statistics).
    pub fn clock(&self) -> &ClockSource {
        &self.clock
    }

    /// The orec index guarding `addr`.
    #[inline]
    fn orec_index(&self, addr: Addr) -> usize {
        (hash_u64(u64::from(addr.0)) as usize) & self.mask
    }

    #[inline]
    fn orec(&self, idx: usize) -> &AtomicU64 {
        &self.orecs[idx]
    }

    /// Current clock value.
    #[inline]
    fn clock_now(&self) -> u64 {
        self.clock.primary().load(Ordering::Acquire)
    }

    /// Atomically advances the clock, returning the new value.
    #[inline]
    fn clock_tick(&self) -> u64 {
        self.clock.note_bump();
        self.clock.primary().fetch_add(1, Ordering::AcqRel) + 1
    }
}

impl std::fmt::Debug for OrecGlobal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrecGlobal")
            .field("clock", &self.clock_now())
            .field("orecs", &self.orecs.len())
            .finish()
    }
}

/// One thread's orec transaction context, reused across attempts.
#[derive(Debug)]
pub struct OrecTx {
    /// When this context takes its write orecs; fixed at construction.
    acquire: Acquire,
    /// Non-zero identity for lock ownership (thread index + 1).
    owner: u64,
    /// Snapshot of the version clock; all reads are consistent as of it.
    start: u64,
    /// Orec indices read (duplicates possible; validation tolerates them).
    reads: InlineVec<u32, INLINE_READS>,
    redo: WriteSet,
    /// Orecs we hold, with the pre-lock value to restore on abort.
    locked: Vec<(u32, u64)>,
    work: u64,
    active: bool,
    /// Commit timestamp between `commit_begin` and `commit_finish`.
    commit_version: Option<u64>,
    /// Why the most recent `Err(Conflict)` happened (see
    /// [`OrecTx::conflict_reason`]).
    last_conflict: AbortReason,
    /// Thread index of the lock holder behind the most recent
    /// `Err(Busy)`/`Err(Conflict)`, when the orec encoding names one (see
    /// [`OrecTx::conflict_enemy`]).
    last_enemy: Option<usize>,
    /// Where the most recent `Err(Conflict)` was detected (see
    /// [`OrecTx::conflict_site`]).
    last_site: ConflictSite,
}

impl OrecTx {
    /// Context for the thread with 0-based index `thread_index`, taking
    /// its write orecs at `acquire` time.
    pub fn new(thread_index: usize, acquire: Acquire) -> Self {
        Self {
            acquire,
            owner: thread_index as u64 + 1,
            start: 0,
            reads: InlineVec::new(),
            redo: WriteSet::new(),
            locked: Vec::new(),
            work: 0,
            active: false,
            commit_version: None,
            last_conflict: AbortReason::Explicit,
            last_enemy: None,
            last_site: ConflictSite::None,
        }
    }

    /// The structured cause of the most recent `Err(Conflict)` this context
    /// returned. Only meaningful between that error and the next `begin`.
    pub fn conflict_reason(&self) -> AbortReason {
        self.last_conflict
    }

    /// Thread index of the transaction that held the orec behind the most
    /// recent `Err(Busy)` or `Err(Conflict)`, when the lock word named one.
    /// `None` for anonymous conflicts (version advance, lost CAS races).
    /// Only meaningful between that error and the next operation.
    pub fn conflict_enemy(&self) -> Option<usize> {
        self.last_enemy
    }

    /// Where the most recent `Err(Conflict)` was detected: the failing
    /// address when the conflicting access is at hand (lock acquisition —
    /// the write set keeps addresses — and stale reads), the failing orec
    /// index when only the read set is being walked (validation,
    /// extension). Only meaningful between that error and the next `begin`.
    pub fn conflict_site(&self) -> ConflictSite {
        self.last_site
    }

    /// Starts an attempt (never Busy: there is no global lock to wait on).
    pub fn begin(&mut self, global: &OrecGlobal) -> OpResult<()> {
        debug_assert!(!self.active, "begin called with a transaction active");
        debug_assert!(self.locked.is_empty());
        self.start = global.clock_now();
        self.reads.clear();
        self.redo.clear();
        self.work += cost::BEGIN;
        self.active = true;
        self.commit_version = None;
        self.last_enemy = None;
        self.last_site = ConflictSite::None;
        Ok(())
    }

    /// Checks every read orec against the snapshot: none foreign-locked,
    /// none re-versioned past `start`. An orec this transaction itself
    /// holds passes iff `through_own_locks`.
    fn validate(&mut self, global: &OrecGlobal, through_own_locks: bool) -> OpResult<()> {
        self.work += cost::VALIDATE_WORD * self.reads.len() as u64;
        for idx in self.reads.iter() {
            let ov = global.orec(idx as usize).load(Ordering::Acquire);
            if is_locked(ov) {
                if through_own_locks && owner_of(ov) == self.owner {
                    continue;
                }
                self.last_conflict = AbortReason::OrecConflict;
                self.last_enemy = enemy_of(ov);
            } else if version_of(ov) > self.start {
                // Re-written since we read it: the value we hold is stale.
                self.last_conflict = AbortReason::OrecConflict;
                self.last_enemy = None;
            } else {
                continue;
            }
            self.last_site = ConflictSite::Orec(idx);
            return Err(OpError::Conflict);
        }
        Ok(())
    }

    /// Timestamp extension: re-checks every read orec at a newer clock
    /// value and, if all still hold, advances the snapshot (the TinySTM
    /// "lazy snapshot extension").
    ///
    /// Encounter-time acquisition walks through its own locks: they were
    /// taken while the body ran and guard its own writes. Commit-time
    /// acquisition extends only from inside its acquisition loop and fails
    /// on *any* locked read orec, its own included, reporting itself as
    /// the enemy; the retry resolves it. That strictness is load-bearing —
    /// both OrecLazy policy rows of the gate move without it.
    fn extend(&mut self, global: &OrecGlobal) -> OpResult<()> {
        let now = global.clock_now();
        self.work += cost::METADATA_OP;
        self.validate(global, self.acquire == Acquire::Encounter)?;
        self.start = now;
        Ok(())
    }

    /// Transactional read of `addr`.
    pub fn read(&mut self, global: &OrecGlobal, heap: &WordHeap, addr: Addr) -> OpResult<u64> {
        debug_assert!(self.active);
        if let Some(v) = self.redo.get(addr) {
            self.work += cost::LOCAL_ACCESS;
            return Ok(v);
        }
        self.work += cost::SHARED_ACCESS;
        let idx = global.orec_index(addr);
        let pre = global.orec(idx).load(Ordering::Acquire);
        if is_locked(pre) {
            if owner_of(pre) == self.owner {
                // We hold the orec (for some address striped onto it); the
                // heap still has pre-commit values, which is what we want.
                // (Encounter-time only: commit-time acquisition holds
                // nothing while the body runs.)
                let v = heap.load(addr);
                self.reads.push(idx as u32);
                return Ok(v);
            }
            // Foreign writer holds the orec. RSTM/TinySTM readers *spin*
            // until the lock is released rather than aborting — only
            // write-write conflicts abort. `Busy` is the polled equivalent
            // of that spin.
            self.last_enemy = enemy_of(pre);
            return Err(OpError::Busy);
        }
        if version_of(pre) > self.start {
            // Location written after our snapshot; try to extend it.
            self.extend(global)?;
            // The clock ticks before a commit releases its orecs, so the
            // clock value the extension adopted covers `pre`'s version.
            debug_assert!(version_of(pre) <= self.start, "extension fell short");
        }
        let v = heap.load(addr);
        let post = global.orec(idx).load(Ordering::Acquire);
        if post != pre {
            // Changed under us (locked or re-versioned): transient — the
            // caller may retry this read, which will re-examine the orec.
            self.last_enemy = if is_locked(post) {
                enemy_of(post)
            } else {
                None
            };
            return Err(OpError::Busy);
        }
        self.reads.push(idx as u32);
        Ok(v)
    }

    /// Takes the orec guarding `addr` unless this transaction already
    /// holds it (an address striped onto a held orec). A foreign lock is a
    /// write-write `Conflict` at `addr`; a version ahead of the snapshot
    /// extends first; a lost CAS is `Busy`. `cas_cost` is charged when the
    /// CAS is reached.
    fn lock_orec(&mut self, global: &OrecGlobal, addr: Addr, cas_cost: u64) -> OpResult<()> {
        let idx = global.orec_index(addr);
        let ov = global.orec(idx).load(Ordering::Acquire);
        if is_locked(ov) {
            if owner_of(ov) == self.owner {
                return Ok(());
            }
            self.last_conflict = AbortReason::OrecConflict;
            self.last_enemy = enemy_of(ov);
            self.last_site = ConflictSite::Addr(addr);
            return Err(OpError::Conflict);
        }
        if version_of(ov) > self.start {
            // Sound before the lock is ours: no read depends on the new
            // version yet.
            self.extend(global)?;
        }
        self.work += cas_cost;
        match global.orec(idx).compare_exchange(
            ov,
            pack_owner(self.owner),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                self.locked.push((idx as u32, ov));
                Ok(())
            }
            // Lost the race for the orec; transient, re-examine on retry.
            Err(_) => {
                self.last_enemy = None;
                Err(OpError::Busy)
            }
        }
    }

    /// Transactional write: buffers the value in the redo log, taking the
    /// orec first under encounter-time acquisition.
    pub fn write(&mut self, global: &OrecGlobal, addr: Addr, value: u64) -> OpResult<()> {
        debug_assert!(self.active);
        match self.acquire {
            Acquire::Encounter => {
                self.work += cost::SHARED_ACCESS;
                self.lock_orec(global, addr, cost::METADATA_OP)?;
            }
            // No metadata touched until commit.
            Acquire::Commit => self.work += cost::LOCAL_ACCESS,
        }
        self.redo.insert(addr, value);
        Ok(())
    }

    /// First commit phase.
    ///
    /// Read-only transactions complete immediately (`Done`): their reads
    /// were consistent as of `start` and no global state changes. Writers
    /// hold their write orecs, tick the clock for their commit stamp,
    /// validate reads unless the stamp directly follows the snapshot, write
    /// the redo log back and return `NeedsFinish` with the orecs still
    /// held.
    pub fn commit_begin(&mut self, global: &OrecGlobal, heap: &WordHeap) -> OpResult<CommitPhase> {
        debug_assert!(self.active);
        // (Under encounter-time acquisition an empty redo log is an empty
        // lock list: every buffered write holds or shares a held orec.)
        if self.redo.is_empty() {
            self.active = false;
            self.work += cost::COMMIT_BASE / 2;
            return Ok(CommitPhase::Done);
        }
        let attempt = self.commit_writer(global, heap);
        if attempt.is_err() && self.acquire == Acquire::Commit {
            // The driver may retry `commit_begin` whole (a `Busy`, or a
            // contention-manager wait verdict on a `Conflict`), so a
            // commit-time attempt hands back every orec it took.
            // Encounter-time orecs belong to the body and stay until
            // `abort`.
            self.release_locks(global);
        }
        attempt
    }

    fn commit_writer(&mut self, global: &OrecGlobal, heap: &WordHeap) -> OpResult<CommitPhase> {
        match self.acquire {
            // The orecs are held since `write`; what is left to pay for is
            // the clock tick.
            Acquire::Encounter => self.work += cost::METADATA_OP,
            // Take them now, by position in write order (the loop body
            // needs `&mut self` and never touches the write set): one
            // `METADATA_OP` per entry examined, the tick inside
            // `COMMIT_BASE`. Another committer holding one aborts us (TL2
            // policy — bounded commit windows mean the winner finishes, so
            // no livelock).
            Acquire::Commit => {
                for i in 0..self.redo.len() {
                    self.work += cost::METADATA_OP;
                    self.lock_orec(global, self.redo.addr_at(i), 0)?;
                }
            }
        }
        // A stamp straight after our snapshot means nobody committed since.
        let end = global.clock_tick();
        if end != self.start + 1 {
            self.validate(global, true)?;
        }
        let n = self.redo.len() as u64;
        for (addr, value) in self.redo.iter() {
            heap.store(addr, value);
        }
        let write_cost = cost::COMMIT_BASE + n * cost::WRITEBACK_WORD;
        self.work += write_cost;
        self.commit_version = Some(end);
        Ok(CommitPhase::NeedsFinish { cost: write_cost })
    }

    /// Second commit phase: releases every held orec at the commit version.
    pub fn commit_finish(&mut self, global: &OrecGlobal) {
        let end = self
            .commit_version
            .take()
            .expect("commit_finish without commit_begin");
        for &(idx, _) in &self.locked {
            global
                .orec(idx as usize)
                .store(pack_version(end), Ordering::Release);
        }
        self.work += cost::METADATA_OP * self.locked.len() as u64;
        self.locked.clear();
        self.active = false;
    }

    /// Restores every held orec to its pre-lock value.
    fn release_locks(&mut self, global: &OrecGlobal) {
        for &(idx, prev) in &self.locked {
            global.orec(idx as usize).store(prev, Ordering::Release);
        }
        self.work += cost::METADATA_OP * self.locked.len() as u64;
        self.locked.clear();
    }

    /// Rolls back: releases what is held and discards the redo log (the
    /// heap was never touched).
    pub fn abort(&mut self, global: &OrecGlobal) {
        debug_assert!(
            self.commit_version.is_none(),
            "abort after successful commit_begin"
        );
        self.release_locks(global);
        self.work += cost::ABORT_PENALTY;
        self.reads.clear();
        self.redo.clear();
        self.active = false;
    }

    /// True while an attempt is active.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// True between a `NeedsFinish` from [`Self::commit_begin`] and the
    /// matching [`Self::commit_finish`]: the writeback already hit the
    /// heap and this context still owns its locked orecs. An unwind in
    /// this window must finish (publish) the commit — aborting would
    /// restore pre-lock orec versions over already-written data.
    pub fn mid_commit(&self) -> bool {
        self.commit_version.is_some()
    }

    /// Drains accumulated work units since the last call.
    #[inline]
    pub fn take_work(&mut self) -> u64 {
        std::mem::take(&mut self.work)
    }

    /// Bloom summary (one bit per [`crate::bloom_bucket`]) of the current
    /// attempt's write set — the wakeup key a commit of this attempt would
    /// publish. Zero iff the write set is empty.
    pub fn write_summary(&self) -> u64 {
        self.redo.summary()
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (OrecGlobal, WordHeap) {
        (OrecGlobal::with_orecs(1 << 10), WordHeap::new(256))
    }

    fn eager(thread_index: usize) -> OrecTx {
        OrecTx::new(thread_index, Acquire::Encounter)
    }

    fn lazy(thread_index: usize) -> OrecTx {
        OrecTx::new(thread_index, Acquire::Commit)
    }

    fn orec_word(g: &OrecGlobal, addr: Addr) -> u64 {
        g.orec(g.orec_index(addr)).load(Ordering::Relaxed)
    }

    fn run_tx(
        g: &OrecGlobal,
        h: &WordHeap,
        tx: &mut OrecTx,
        body: impl Fn(&mut OrecTx) -> OpResult<()>,
    ) {
        loop {
            tx.begin(g).unwrap();
            if body(tx).is_err() {
                tx.abort(g);
                continue;
            }
            match tx.commit_begin(g, h) {
                Ok(CommitPhase::Done) => break,
                Ok(CommitPhase::NeedsFinish { .. }) => {
                    tx.commit_finish(g);
                    break;
                }
                Err(_) => tx.abort(g),
            }
        }
    }

    // ---- encounter-time acquisition (OrecEagerRedo) ----

    #[test]
    fn redo_log_defers_heap_writes() {
        let (g, h) = setup();
        let mut tx = eager(0);
        tx.begin(&g).unwrap();
        tx.write(&g, Addr(1), 7).unwrap();
        assert_eq!(h.load(Addr(1)), 0, "eager lock, lazy (redo) data");
        assert_eq!(tx.read(&g, &h, Addr(1)).unwrap(), 7, "read-own-write");
        match tx.commit_begin(&g, &h).unwrap() {
            CommitPhase::NeedsFinish { .. } => tx.commit_finish(&g),
            CommitPhase::Done => panic!(),
        }
        assert_eq!(h.load(Addr(1)), 7);
    }

    #[test]
    fn encounter_time_write_write_conflict() {
        let (g, h) = setup();
        let mut t1 = eager(0);
        let mut t2 = eager(1);
        t1.begin(&g).unwrap();
        t2.begin(&g).unwrap();
        t1.write(&g, Addr(3), 1).unwrap();
        // t2 hits t1's lock immediately — *before* either commits. This is
        // the defining ETL behaviour.
        assert_eq!(t2.write(&g, Addr(3), 2), Err(OpError::Conflict));
        t2.abort(&g);
        let _ = h;
        t1.abort(&g);
    }

    #[test]
    fn read_of_locked_location_waits_then_succeeds() {
        let (g, h) = setup();
        let mut t1 = eager(0);
        let mut t2 = eager(1);
        t1.begin(&g).unwrap();
        t1.write(&g, Addr(3), 1).unwrap();
        t2.begin(&g).unwrap();
        // RSTM-style readers spin on a foreign lock (polled as Busy)...
        assert_eq!(t2.read(&g, &h, Addr(3)), Err(OpError::Busy));
        // ...and proceed once the writer releases.
        t1.abort(&g);
        assert_eq!(t2.read(&g, &h, Addr(3)), Ok(0));
        t2.abort(&g);
    }

    #[test]
    fn abort_restores_orec_versions() {
        let (g, h) = setup();
        let mut t1 = eager(0);
        // Commit once so the orec has a non-zero version.
        run_tx(&g, &h, &mut t1, |tx| tx.write(&g, Addr(3), 5));
        let before = orec_word(&g, Addr(3));
        assert!(!is_locked(before));
        t1.begin(&g).unwrap();
        t1.write(&g, Addr(3), 9).unwrap();
        assert!(is_locked(orec_word(&g, Addr(3))));
        t1.abort(&g);
        assert_eq!(orec_word(&g, Addr(3)), before);
        assert_eq!(h.load(Addr(3)), 5, "heap untouched by aborted writer");
    }

    #[test]
    fn validation_kills_stale_reader_at_commit() {
        let (g, h) = setup();
        let mut t1 = eager(0);
        let mut t2 = eager(1);
        t1.begin(&g).unwrap();
        assert_eq!(t1.read(&g, &h, Addr(0)).unwrap(), 0);
        t1.write(&g, Addr(50), 1).unwrap(); // make t1 a writer
                                            // t2 commits a write to Addr(0) after t1 read it.
        run_tx(&g, &h, &mut t2, |tx| tx.write(&g, Addr(0), 9));
        assert_eq!(t1.commit_begin(&g, &h), Err(OpError::Conflict));
        t1.abort(&g);
        assert_eq!(h.load(Addr(50)), 0);
    }

    #[test]
    fn timestamp_extension_saves_disjoint_reader() {
        let (g, h) = setup();
        let mut t1 = eager(0);
        let mut t2 = eager(1);
        t1.begin(&g).unwrap();
        assert_eq!(t1.read(&g, &h, Addr(0)).unwrap(), 0);
        // Ten disjoint commits move the clock well past t1's snapshot.
        for i in 0..10 {
            run_tx(&g, &h, &mut t2, |tx| tx.write(&g, Addr(100 + i), 1));
        }
        // Reading a freshly-versioned location triggers extension, which
        // succeeds because Addr(0)'s orec is still at an old version.
        run_tx(&g, &h, &mut t2, |tx| tx.write(&g, Addr(60), 1));
        assert_eq!(t1.read(&g, &h, Addr(60)).unwrap(), 1);
        assert_eq!(t1.commit_begin(&g, &h).unwrap(), CommitPhase::Done);
    }

    #[test]
    fn committed_values_visible_to_later_tx() {
        let (g, h) = setup();
        let mut t1 = eager(0);
        run_tx(&g, &h, &mut t1, |tx| {
            tx.write(&g, Addr(10), 123)?;
            tx.write(&g, Addr(11), 456)
        });
        let mut t2 = eager(1);
        t2.begin(&g).unwrap();
        assert_eq!(t2.read(&g, &h, Addr(10)).unwrap(), 123);
        assert_eq!(t2.read(&g, &h, Addr(11)).unwrap(), 456);
        assert_eq!(t2.commit_begin(&g, &h).unwrap(), CommitPhase::Done);
    }

    #[test]
    fn clock_advances_once_per_writer_commit() {
        let (g, h) = setup();
        let mut t1 = eager(0);
        assert_eq!(g.clock_now(), 0);
        run_tx(&g, &h, &mut t1, |tx| tx.write(&g, Addr(0), 1));
        assert_eq!(g.clock_now(), 1);
        run_tx(&g, &h, &mut t1, |tx| tx.write(&g, Addr(1), 1));
        assert_eq!(g.clock_now(), 2);
        assert_eq!(g.clock().stats().bumps, 2);
    }

    #[test]
    fn same_orec_double_write_locks_once() {
        let (g, h) = setup();
        let mut t1 = eager(0);
        t1.begin(&g).unwrap();
        t1.write(&g, Addr(4), 1).unwrap();
        t1.write(&g, Addr(4), 2).unwrap();
        assert_eq!(t1.locked.len(), 1);
        match t1.commit_begin(&g, &h).unwrap() {
            CommitPhase::NeedsFinish { .. } => t1.commit_finish(&g),
            CommitPhase::Done => panic!(),
        }
        assert_eq!(h.load(Addr(4)), 2);
    }

    #[test]
    fn mutual_abort_cycle_is_possible() {
        // The livelock seed: two transactions repeatedly killing each other.
        // One round of it, deterministically.
        let (g, h) = setup();
        let mut t1 = eager(0);
        let mut t2 = eager(1);
        t1.begin(&g).unwrap();
        t2.begin(&g).unwrap();
        t1.write(&g, Addr(0), 1).unwrap();
        t2.write(&g, Addr(1), 2).unwrap();
        // Each now needs the other's location.
        assert_eq!(t2.write(&g, Addr(0), 2), Err(OpError::Conflict));
        t2.abort(&g);
        t2.begin(&g).unwrap();
        t2.write(&g, Addr(1), 2).unwrap(); // re-acquires its lock
        assert_eq!(t1.write(&g, Addr(1), 1), Err(OpError::Conflict));
        t1.abort(&g);
        // ... and so on forever without admission control.
        t2.abort(&g);
        let _ = h;
    }

    // ---- commit-time acquisition (OrecLazy) ----

    #[test]
    fn writes_stay_buffered_and_unlocked_until_commit() {
        let (g, h) = setup();
        let mut t1 = lazy(0);
        t1.begin(&g).unwrap();
        t1.write(&g, Addr(3), 9).unwrap();
        // Unlike the eager variant, the orec is NOT locked yet: a second
        // transaction can read and even commit a disjoint write.
        assert!(!is_locked(orec_word(&g, Addr(3))));
        let mut t2 = lazy(1);
        t2.begin(&g).unwrap();
        assert_eq!(t2.read(&g, &h, Addr(3)).unwrap(), 0);
        assert_eq!(t2.commit_begin(&g, &h).unwrap(), CommitPhase::Done);
        // Now t1 commits; its value lands.
        match t1.commit_begin(&g, &h).unwrap() {
            CommitPhase::NeedsFinish { .. } => t1.commit_finish(&g),
            CommitPhase::Done => panic!(),
        }
        assert_eq!(h.load(Addr(3)), 9);
    }

    #[test]
    fn conflicting_writers_first_committer_wins() {
        let (g, h) = setup();
        let mut t1 = lazy(0);
        let mut t2 = lazy(1);
        t1.begin(&g).unwrap();
        t2.begin(&g).unwrap();
        // Both read-modify-write the same word; neither sees a conflict yet
        // (lazy locking).
        let v1 = t1.read(&g, &h, Addr(0)).unwrap();
        let v2 = t2.read(&g, &h, Addr(0)).unwrap();
        t1.write(&g, Addr(0), v1 + 1).unwrap();
        t2.write(&g, Addr(0), v2 + 1).unwrap();
        // t1 commits first.
        match t1.commit_begin(&g, &h).unwrap() {
            CommitPhase::NeedsFinish { .. } => t1.commit_finish(&g),
            CommitPhase::Done => panic!(),
        }
        // t2's commit must fail validation (its read of Addr(0) is stale).
        assert_eq!(t2.commit_begin(&g, &h), Err(OpError::Conflict));
        t2.abort(&g);
        assert_eq!(h.load(Addr(0)), 1, "no lost update");
    }

    #[test]
    fn reads_are_busy_while_committer_holds_orec() {
        let (g, h) = setup();
        let mut t1 = lazy(0);
        t1.begin(&g).unwrap();
        t1.write(&g, Addr(5), 1).unwrap();
        let CommitPhase::NeedsFinish { .. } = t1.commit_begin(&g, &h).unwrap() else {
            panic!()
        };
        // Mid-commit: readers wait.
        let mut t2 = lazy(1);
        t2.begin(&g).unwrap();
        assert_eq!(t2.read(&g, &h, Addr(5)), Err(OpError::Busy));
        t1.commit_finish(&g);
        // After release, the version moved past t2's snapshot; the inline
        // extension (empty read set) succeeds and the read sees the commit.
        assert_eq!(t2.read(&g, &h, Addr(5)).unwrap(), 1);
        t2.abort(&g);
    }

    #[test]
    fn failed_commit_releases_every_acquired_orec() {
        let (g, h) = setup();
        // Prepare: t_block holds one orec mid-commit so t1's multi-write
        // commit fails part-way through acquisition.
        let mut t_block = lazy(7);
        t_block.begin(&g).unwrap();
        t_block.write(&g, Addr(10), 1).unwrap();
        let CommitPhase::NeedsFinish { .. } = t_block.commit_begin(&g, &h).unwrap() else {
            panic!()
        };
        let mut t1 = lazy(0);
        t1.begin(&g).unwrap();
        t1.write(&g, Addr(20), 2).unwrap(); // acquirable
        t1.write(&g, Addr(10), 3).unwrap(); // blocked by t_block
        assert_eq!(t1.commit_begin(&g, &h), Err(OpError::Conflict));
        t1.abort(&g);
        // Addr(20)'s orec must be free again.
        assert!(!is_locked(orec_word(&g, Addr(20))));
        t_block.commit_finish(&g);
        // And the system still works.
        let mut t2 = lazy(1);
        run_tx(&g, &h, &mut t2, |tx| tx.write(&g, Addr(20), 5));
        assert_eq!(h.load(Addr(20)), 5);
    }

    #[test]
    fn read_only_commits_without_clock_traffic() {
        let (g, h) = setup();
        let clock0 = g.clock_now();
        let mut tx = lazy(0);
        tx.begin(&g).unwrap();
        assert_eq!(tx.read(&g, &h, Addr(0)).unwrap(), 0);
        assert_eq!(tx.commit_begin(&g, &h).unwrap(), CommitPhase::Done);
        assert_eq!(g.clock_now(), clock0);
    }

    #[test]
    fn counter_increments_are_exact() {
        let (g, h) = setup();
        let mut tx = lazy(0);
        for _ in 0..200 {
            run_tx(&g, &h, &mut tx, |tx| {
                // read via the public path to exercise read-own-write
                let base = tx.redo.get(Addr(0)).unwrap_or(h.load(Addr(0)));
                tx.write(&g, Addr(0), base + 1)
            });
        }
        assert_eq!(h.load(Addr(0)), 200);
    }

    // ---- what the acquisition time decides, beyond `write` ----

    /// After a failed commit attempt encounter-time acquisition still owns
    /// its write orecs (they belong to the body, until `abort`), while
    /// commit-time acquisition has already given its back (the driver may
    /// retry `commit_begin` whole). The virtual cost of the failed attempt
    /// plus the abort is the same either way.
    #[test]
    fn failed_commit_lock_custody_per_acquisition_time() {
        for (acquire, held_after_failure) in [(Acquire::Encounter, true), (Acquire::Commit, false)]
        {
            let (g, h) = setup();
            let mut t1 = OrecTx::new(0, acquire);
            t1.begin(&g).unwrap();
            assert_eq!(t1.read(&g, &h, Addr(0)).unwrap(), 0);
            t1.write(&g, Addr(50), 1).unwrap();
            run_tx(&g, &h, &mut OrecTx::new(1, acquire), |tx| {
                tx.write(&g, Addr(0), 9)
            });
            t1.take_work();
            assert_eq!(t1.commit_begin(&g, &h), Err(OpError::Conflict));
            assert_eq!(
                is_locked(orec_word(&g, Addr(50))),
                held_after_failure,
                "{acquire:?}"
            );
            t1.abort(&g);
            assert!(!is_locked(orec_word(&g, Addr(50))), "{acquire:?}");
            assert_eq!(h.load(Addr(50)), 0, "{acquire:?}: redo log never leaks");
            // One orec taken (the CAS under Commit, the tick under
            // Encounter) and given back, one read validated, one abort.
            assert_eq!(
                t1.take_work(),
                2 * cost::METADATA_OP + cost::VALIDATE_WORD + cost::ABORT_PENALTY,
                "{acquire:?}"
            );
        }
    }

    /// Snapshot extension from inside the commit-time acquisition loop
    /// fails on any locked read orec — including one the loop itself just
    /// took — and names the transaction as its own enemy. Encounter-time
    /// acquisition, in the same shape, extends through its own lock.
    #[test]
    fn commit_time_extension_is_strict_about_own_locks() {
        const ME: usize = 3;
        // Read-then-write word 0, write word 60; the rival's commit to
        // word 60 lands after the snapshot.
        let (g, h) = setup();
        let mut t1 = lazy(ME);
        t1.begin(&g).unwrap();
        assert_eq!(t1.read(&g, &h, Addr(0)).unwrap(), 0);
        t1.write(&g, Addr(0), 1).unwrap();
        t1.write(&g, Addr(60), 1).unwrap();
        run_tx(&g, &h, &mut lazy(1), |tx| tx.write(&g, Addr(60), 9));
        // The loop locks word 0's orec, then must extend for word 60.
        assert_eq!(t1.commit_begin(&g, &h), Err(OpError::Conflict));
        assert_eq!(t1.conflict_enemy(), Some(ME));
        assert_eq!(
            t1.conflict_site(),
            ConflictSite::Orec(g.orec_index(Addr(0)) as u32)
        );
        assert!(!is_locked(orec_word(&g, Addr(0))), "nothing left locked");
        assert!(!is_locked(orec_word(&g, Addr(60))), "nothing left locked");
        t1.abort(&g);

        // Encounter-time: the rival commits between the two writes, so the
        // second write extends with word 0's orec already ours.
        let (g, h) = setup();
        let mut t1 = eager(ME);
        t1.begin(&g).unwrap();
        assert_eq!(t1.read(&g, &h, Addr(0)).unwrap(), 0);
        t1.write(&g, Addr(0), 1).unwrap();
        run_tx(&g, &h, &mut eager(1), |tx| tx.write(&g, Addr(60), 9));
        t1.write(&g, Addr(60), 1).unwrap();
        let CommitPhase::NeedsFinish { .. } = t1.commit_begin(&g, &h).unwrap() else {
            panic!("writer needs finish");
        };
        t1.commit_finish(&g);
        assert_eq!((h.load(Addr(0)), h.load(Addr(60))), (1, 1));
    }

    // ---- the commit-stamp rule ----

    /// Commits one read and one write from snapshot 5, the clock moved to
    /// `now` before the commit. Yields (released version, read set
    /// validated).
    fn commit_from_5(g: &OrecGlobal, h: &WordHeap, acquire: Acquire, now: u64) -> (u64, bool) {
        g.clock().preload(5);
        let mut tx = OrecTx::new(0, acquire);
        tx.begin(g).unwrap();
        tx.read(g, h, Addr(1)).unwrap();
        tx.write(g, Addr(0), 1).unwrap();
        g.clock().preload(now);
        tx.take_work();
        let CommitPhase::NeedsFinish { cost: write_cost } = tx.commit_begin(g, h).unwrap() else {
            panic!("writer needs finish");
        };
        // Both acquisition times pay one METADATA_OP (encounter: the tick;
        // commit: the single orec acquisition) on top of validation and
        // writeback.
        let validation = tx.take_work() - write_cost - cost::METADATA_OP;
        tx.commit_finish(g);
        let released = version_of(orec_word(g, Addr(0)));
        (released, validation == cost::VALIDATE_WORD)
    }

    #[test]
    fn commit_stamp_rule_per_clock_kind() {
        // A committer whose snapshot is 5, on a clock standing at `now`.
        // Expected: (end, must_validate), then (clock, bumps, bump_skips).
        #[rustfmt::skip]
        let table = [
            // The clock ticks, and validation runs iff the tick was not
            // start + 1.
            (5, (6, false), (6, 1, 0)),
            (7, (8, true),  (8, 1, 0)),
        ];
        for (now, stamp, after) in table {
            let (g, h) = setup();
            assert_eq!(
                commit_from_5(&g, &h, Acquire::Encounter, now),
                stamp,
                "now={now}"
            );
            let s = g.clock().stats();
            assert_eq!((g.clock_now(), s.bumps, s.bump_skips), after, "now={now}");
        }
    }

    /// Both acquisition times go through the one stamp rule in
    /// `commit_writer`: from the same clock state both must release their
    /// orec at the same version and agree on whether the read set was
    /// validated.
    #[test]
    fn lazy_and_eager_commits_get_the_same_stamp() {
        for now in [5, 7] {
            let stamp = |acquire| {
                let (g, h) = setup();
                commit_from_5(&g, &h, acquire, now)
            };
            assert_eq!(
                stamp(Acquire::Commit),
                stamp(Acquire::Encounter),
                "now={now}"
            );
        }
    }
}
