//! OrecLazy: commit-time locking over ownership records (TL2-style; the
//! third algorithm family in RSTM next to NOrec and OrecEagerRedo).
//!
//! Like OrecEagerRedo it stripes the heap over a table of versioned
//! ownership records, but writes are **buffered** and orecs are acquired
//! only inside commit: lock every write-set orec (aborting if any is held),
//! bump the global clock, validate the read set, write back, release at the
//! new version. Lock-hold windows are therefore short — commit-time-locking
//! algorithms "can avoid livelock" (paper §III-D) because a transaction
//! only aborts when a *committing* transaction beat it, so someone always
//! makes progress. The price relative to NOrec is an orec check per read;
//! the advantage is no global commit serialisation for disjoint write sets.
//!
//! Included as an implemented extension (the paper's §IV-C adaptive-TM
//! direction needs more than two plug-ins to choose from); it shares
//! [`OrecGlobal`] with the eager algorithm, including its clock source —
//! see the `orec` module docs for the per-[`crate::ClockKind`] semantics
//! (GV5 coarse timestamps with rescue bumps, the SNZI read indicator).

use std::sync::atomic::Ordering;

use votm_obs::AbortReason;
use votm_utils::InlineVec;

use crate::cost;
use crate::heap::{Addr, WordHeap};
use crate::orec::{
    classify_stale, is_locked, owner_of, pack_owner, pack_version, version_of, OrecGlobal,
    INLINE_READS,
};
use crate::writeset::WriteSet;
use crate::{CommitPhase, ConflictSite, OpError, OpResult};

/// One thread's OrecLazy transaction context, reused across attempts.
#[derive(Debug)]
pub struct OrecLazyTx {
    owner: u64,
    start: u64,
    /// Orec indices read (validated against `start` at commit).
    reads: InlineVec<u32, INLINE_READS>,
    writes: WriteSet,
    /// Orecs locked during the current commit attempt, with pre-lock values.
    locked: Vec<(u32, u64)>,
    work: u64,
    active: bool,
    commit_version: Option<u64>,
    /// Why the most recent `Err(Conflict)` happened (see
    /// [`OrecLazyTx::conflict_reason`]).
    last_conflict: AbortReason,
    /// Lock holder behind the most recent `Err(Busy)`/`Err(Conflict)`,
    /// when one was named by the orec word (see
    /// [`OrecLazyTx::conflict_enemy`]).
    last_enemy: Option<usize>,
    /// Where the most recent `Err(Conflict)` was detected (see
    /// [`OrecLazyTx::conflict_site`]).
    last_site: ConflictSite,
}

impl OrecLazyTx {
    /// Context for the thread with 0-based index `thread_index`.
    pub fn new(thread_index: usize) -> Self {
        Self {
            owner: thread_index as u64 + 1,
            start: 0,
            reads: InlineVec::new(),
            writes: WriteSet::new(),
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

    /// Thread index of the committer that held the orec behind the most
    /// recent `Err(Busy)`/`Err(Conflict)`, if the lock word named one.
    pub fn conflict_enemy(&self) -> Option<usize> {
        self.last_enemy
    }

    /// Where the most recent `Err(Conflict)` was detected: the failing
    /// address at commit-time lock acquisition (the write set keeps
    /// addresses), the failing orec index when walking the read set
    /// (validation, extension). Only meaningful between that error and the
    /// next `begin`.
    pub fn conflict_site(&self) -> ConflictSite {
        self.last_site
    }

    /// Converts a locked orec word into the holder's 0-based thread index.
    #[inline]
    fn enemy_of(ov: u64) -> Option<usize> {
        Some(owner_of(ov) as usize - 1)
    }

    /// Starts an attempt.
    pub fn begin(&mut self, global: &OrecGlobal) -> OpResult<()> {
        debug_assert!(!self.active);
        debug_assert!(self.locked.is_empty());
        self.start = global.clock_now();
        if global.kind().tracks_active() {
            global.clock().enter();
            self.work += cost::FILTER_WORD;
        }
        self.reads.clear();
        self.writes.clear();
        self.work += cost::BEGIN;
        self.active = true;
        self.commit_version = None;
        self.last_enemy = None;
        self.last_site = ConflictSite::None;
        Ok(())
    }

    /// Timestamp extension (stricter than the eager variant: *any* locked
    /// orec — even one of ours, when the acquisition loop extends mid-way —
    /// fails the extension; the retry resolves it).
    fn extend(&mut self, global: &OrecGlobal) -> OpResult<()> {
        let now = global.clock_now();
        self.work += cost::VALIDATE_WORD * self.reads.len() as u64 + cost::METADATA_OP;
        for idx in self.reads.iter() {
            let ov = global.orec_at(idx as usize).load(Ordering::Acquire);
            if is_locked(ov) {
                self.last_conflict = AbortReason::OrecConflict;
                self.last_enemy = Self::enemy_of(ov);
                self.last_site = ConflictSite::Orec(idx);
                return Err(OpError::Conflict);
            } else if version_of(ov) > self.start {
                self.last_conflict = classify_stale(global, self.start, ov, &mut self.work);
                self.last_enemy = None;
                self.last_site = ConflictSite::Orec(idx);
                return Err(OpError::Conflict);
            }
        }
        self.start = now;
        Ok(())
    }

    /// Transactional read.
    pub fn read(&mut self, global: &OrecGlobal, heap: &WordHeap, addr: Addr) -> OpResult<u64> {
        debug_assert!(self.active);
        if let Some(v) = self.writes.get(addr) {
            self.work += cost::LOCAL_ACCESS;
            return Ok(v);
        }
        self.work += cost::SHARED_ACCESS;
        let idx = global.orec_index(addr);
        let pre = global.orec_at(idx).load(Ordering::Acquire);
        if is_locked(pre) {
            // A committer holds it; its window is short — wait it out.
            self.last_enemy = Self::enemy_of(pre);
            return Err(OpError::Busy);
        }
        if version_of(pre) > self.start {
            self.extend(global)?;
            if version_of(pre) > self.start {
                // Still ahead after adopting the freshest clock: a coarse
                // (GV5) release at `clock + 1`, i.e. the false-conflict
                // site.
                self.last_conflict = classify_stale(global, self.start, pre, &mut self.work);
                self.last_enemy = None;
                self.last_site = ConflictSite::Addr(addr);
                return Err(OpError::Conflict);
            }
        }
        let v = heap.load(addr);
        let post = global.orec_at(idx).load(Ordering::Acquire);
        if post != pre {
            self.last_enemy = if is_locked(post) {
                Self::enemy_of(post)
            } else {
                None
            };
            return Err(OpError::Busy);
        }
        self.reads.push(idx as u32);
        Ok(v)
    }

    /// Transactional write: buffered; no metadata touched until commit.
    pub fn write(&mut self, addr: Addr, value: u64) -> OpResult<()> {
        debug_assert!(self.active);
        self.work += cost::LOCAL_ACCESS;
        self.writes.insert(addr, value);
        Ok(())
    }

    /// Validates the whole read set against the current snapshot while the
    /// write orecs are held; releases them on failure.
    fn validate_at_commit(&mut self, global: &OrecGlobal) -> OpResult<()> {
        self.work += cost::VALIDATE_WORD * self.reads.len() as u64;
        let mut conflict = None;
        let mut enemy = None;
        let mut site = ConflictSite::None;
        for i in 0..self.reads.len() {
            let idx = self.reads.get(i);
            let ov = global.orec_at(idx as usize).load(Ordering::Acquire);
            if is_locked(ov) {
                if owner_of(ov) != self.owner {
                    conflict = Some(AbortReason::OrecConflict);
                    enemy = Self::enemy_of(ov);
                    site = ConflictSite::Orec(idx);
                    break;
                }
            } else if version_of(ov) > self.start {
                conflict = Some(classify_stale(global, self.start, ov, &mut self.work));
                site = ConflictSite::Orec(idx);
                break;
            }
        }
        if let Some(reason) = conflict {
            self.release_locks(global);
            self.last_conflict = reason;
            self.last_enemy = enemy;
            self.last_site = site;
            return Err(OpError::Conflict);
        }
        Ok(())
    }

    /// First commit phase: acquire write-set orecs, advance the clock per
    /// the configured strategy, validate reads, write back.
    pub fn commit_begin(&mut self, global: &OrecGlobal, heap: &WordHeap) -> OpResult<CommitPhase> {
        debug_assert!(self.active);
        if self.writes.is_empty() {
            self.active = false;
            self.work += cost::COMMIT_BASE / 2;
            global.clock().exit();
            return Ok(CommitPhase::Done);
        }
        // Acquire every write orec (deduplicated via the lock bit check).
        // By position, not by iterator: the loop body needs `&mut self`
        // (extension, lock release), and nothing in it touches the write
        // set.
        for i in 0..self.writes.len() {
            let addr = self.writes.addr_at(i);
            let idx = global.orec_index(addr);
            let ov = global.orec_at(idx).load(Ordering::Acquire);
            self.work += cost::METADATA_OP;
            if is_locked(ov) {
                if owner_of(ov) == self.owner {
                    continue; // striped duplicate, already ours
                }
                // Another committer holds it: abort (TL2 policy — bounded
                // commit windows mean the winner finishes, so no livelock).
                self.release_locks(global);
                self.last_conflict = AbortReason::OrecConflict;
                self.last_enemy = Self::enemy_of(ov);
                self.last_site = ConflictSite::Addr(addr);
                return Err(OpError::Conflict);
            }
            if version_of(ov) > self.start {
                // Extending here is sound: no read of ours depends on the
                // new version yet; validate reads and move the snapshot.
                // (A coarse clock may leave the version ahead even after a
                // successful extension — locking it anyway is fine, since
                // the coarse kinds validate unconditionally below.)
                if self.extend(global).is_err() {
                    self.release_locks(global);
                    return Err(OpError::Conflict);
                }
            }
            match global.orec_at(idx).compare_exchange(
                ov,
                pack_owner(self.owner),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => self.locked.push((idx as u32, ov)),
                Err(_) => {
                    // Lost the race this instant; transient.
                    self.release_locks(global);
                    self.last_enemy = None;
                    return Err(OpError::Busy);
                }
            }
        }
        // (The lazy variant folds the tick's metadata charge into
        // `COMMIT_BASE` — matching its historical accounting — so no
        // per-tick `METADATA_OP` is added here, for any clock kind.)
        let (end, must_validate) = global.commit_stamp(self.start);
        if must_validate {
            self.validate_at_commit(global)?;
        }
        let n = self.writes.len() as u64;
        for (addr, value) in self.writes.iter() {
            heap.store(addr, value);
        }
        let write_cost = cost::COMMIT_BASE + n * cost::WRITEBACK_WORD;
        self.work += write_cost;
        self.commit_version = Some(end);
        Ok(CommitPhase::NeedsFinish { cost: write_cost })
    }

    /// Second commit phase: release orecs at the commit version.
    pub fn commit_finish(&mut self, global: &OrecGlobal) {
        let end = self
            .commit_version
            .take()
            .expect("commit_finish without commit_begin");
        for &(idx, _) in &self.locked {
            global
                .orec_at(idx as usize)
                .store(pack_version(end), Ordering::Release);
        }
        self.work += cost::METADATA_OP * self.locked.len() as u64;
        self.locked.clear();
        self.active = false;
        global.clock().exit();
    }

    fn release_locks(&mut self, global: &OrecGlobal) {
        for &(idx, prev) in &self.locked {
            global.orec_at(idx as usize).store(prev, Ordering::Release);
        }
        self.work += cost::METADATA_OP * self.locked.len() as u64;
        self.locked.clear();
    }

    /// Rolls back the attempt.
    pub fn abort(&mut self, global: &OrecGlobal) {
        debug_assert!(self.commit_version.is_none());
        self.release_locks(global);
        self.work += cost::ABORT_PENALTY;
        self.reads.clear();
        self.writes.clear();
        if self.active {
            global.clock().exit();
        }
        self.active = false;
    }

    /// True while an attempt is active.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// True between a `NeedsFinish` from [`Self::commit_begin`] and the
    /// matching [`Self::commit_finish`] (writeback done, orecs still
    /// locked). An unwind in this window must finish the commit.
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
        self.writes.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockKind;

    fn setup() -> (OrecGlobal, WordHeap) {
        (OrecGlobal::with_orecs(1 << 10), WordHeap::new(256))
    }

    fn setup_kind(kind: ClockKind) -> (OrecGlobal, WordHeap) {
        (
            OrecGlobal::with_orecs_kind(1 << 10, kind),
            WordHeap::new(1 << 14),
        )
    }

    fn run_tx(
        g: &OrecGlobal,
        h: &WordHeap,
        tx: &mut OrecLazyTx,
        body: impl Fn(&mut OrecLazyTx) -> OpResult<()>,
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
                Err(_) => {
                    tx.abort(g);
                    continue;
                }
            }
        }
    }

    #[test]
    fn writes_stay_buffered_and_unlocked_until_commit() {
        let (g, h) = setup();
        let mut t1 = OrecLazyTx::new(0);
        t1.begin(&g).unwrap();
        t1.write(Addr(3), 9).unwrap();
        // Unlike the eager variant, the orec is NOT locked yet: a second
        // transaction can read and even commit a disjoint write.
        let idx = g.orec_index(Addr(3));
        assert!(!is_locked(g.orec_at(idx).load(Ordering::Relaxed)));
        let mut t2 = OrecLazyTx::new(1);
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
        let mut t1 = OrecLazyTx::new(0);
        let mut t2 = OrecLazyTx::new(1);
        t1.begin(&g).unwrap();
        t2.begin(&g).unwrap();
        // Both read-modify-write the same word; neither sees a conflict yet
        // (lazy locking).
        let v1 = t1.read(&g, &h, Addr(0)).unwrap();
        let v2 = t2.read(&g, &h, Addr(0)).unwrap();
        t1.write(Addr(0), v1 + 1).unwrap();
        t2.write(Addr(0), v2 + 1).unwrap();
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
        let mut t1 = OrecLazyTx::new(0);
        t1.begin(&g).unwrap();
        t1.write(Addr(5), 1).unwrap();
        let CommitPhase::NeedsFinish { .. } = t1.commit_begin(&g, &h).unwrap() else {
            panic!()
        };
        // Mid-commit: readers wait.
        let mut t2 = OrecLazyTx::new(1);
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
        let mut t_block = OrecLazyTx::new(7);
        t_block.begin(&g).unwrap();
        t_block.write(Addr(10), 1).unwrap();
        let CommitPhase::NeedsFinish { .. } = t_block.commit_begin(&g, &h).unwrap() else {
            panic!()
        };
        let mut t1 = OrecLazyTx::new(0);
        t1.begin(&g).unwrap();
        t1.write(Addr(20), 2).unwrap(); // acquirable
        t1.write(Addr(10), 3).unwrap(); // blocked by t_block
        assert_eq!(t1.commit_begin(&g, &h), Err(OpError::Conflict));
        t1.abort(&g);
        // Addr(20)'s orec must be free again.
        let idx20 = g.orec_index(Addr(20));
        assert!(!is_locked(g.orec_at(idx20).load(Ordering::Relaxed)));
        t_block.commit_finish(&g);
        // And the system still works.
        let mut t2 = OrecLazyTx::new(1);
        run_tx(&g, &h, &mut t2, |tx| tx.write(Addr(20), 5));
        assert_eq!(h.load(Addr(20)), 5);
    }

    #[test]
    fn read_only_commits_without_clock_traffic() {
        let (g, h) = setup();
        let clock0 = g.timestamp();
        let mut tx = OrecLazyTx::new(0);
        tx.begin(&g).unwrap();
        assert_eq!(tx.read(&g, &h, Addr(0)).unwrap(), 0);
        assert_eq!(tx.commit_begin(&g, &h).unwrap(), CommitPhase::Done);
        assert_eq!(g.timestamp(), clock0);
    }

    #[test]
    fn counter_increments_are_exact() {
        let (g, h) = setup();
        let mut tx = OrecLazyTx::new(0);
        for _ in 0..200 {
            run_tx(&g, &h, &mut tx, |tx| {
                // read via the public path to exercise read-own-write
                let base = tx.writes.get(Addr(0)).unwrap_or(h.load(Addr(0)));
                tx.write(Addr(0), base + 1)
            });
        }
        assert_eq!(h.load(Addr(0)), 200);
    }

    // ---- clock variants (mechanisms shared with the eager tests; these
    // cover the lazy-specific commit paths) ----

    #[test]
    fn coarse_false_conflict_rescued_on_read() {
        let (g, h) = setup_kind(ClockKind::Coarse);
        let mut t1 = OrecLazyTx::new(0);
        run_tx(&g, &h, &mut t1, |tx| tx.write(Addr(0), 7));
        assert_eq!(g.timestamp(), 0, "GV5: no tick per commit");
        let mut t2 = OrecLazyTx::new(1);
        t2.begin(&g).unwrap();
        assert_eq!(t2.read(&g, &h, Addr(0)), Err(OpError::Conflict));
        assert_eq!(t2.conflict_reason(), AbortReason::FalseConflict);
        t2.abort(&g);
        assert_eq!(g.timestamp(), 1, "rescue bump moved the clock");
        t2.begin(&g).unwrap();
        assert_eq!(t2.read(&g, &h, Addr(0)).unwrap(), 7);
        assert_eq!(t2.commit_begin(&g, &h).unwrap(), CommitPhase::Done);
    }

    /// The eager and lazy commits share one stamp rule
    /// ([`OrecGlobal::commit_stamp`]): from the same clock state both must
    /// release their orec at the same version and agree on whether the
    /// read set was validated.
    #[test]
    fn lazy_and_eager_commits_get_the_same_stamp() {
        use crate::orec::OrecTx;
        for kind in ClockKind::ALL {
            for (moved, observed) in [(false, false), (true, false), (false, true), (true, true)] {
                // One read, one write, snapshot 5; `observed` parks a second
                // live transaction and `moved` pushes the clock to 7 before
                // the commit. Yields (released version, read set validated).
                macro_rules! stamp {
                    ($tx:expr, $write:expr) => {{
                        let (g, h) = setup_kind(kind);
                        g.clock().preload(5);
                        let mut tx = $tx;
                        tx.begin(&g).unwrap();
                        tx.read(&g, &h, Addr(1)).unwrap();
                        $write(&mut tx, &g).unwrap();
                        if observed {
                            g.clock().enter();
                        }
                        if moved {
                            g.clock().preload(7);
                        }
                        tx.take_work();
                        let CommitPhase::NeedsFinish { cost: write_cost } =
                            tx.commit_begin(&g, &h).unwrap()
                        else {
                            panic!("writer needs finish");
                        };
                        // Both variants pay one METADATA_OP (eager: the tick;
                        // lazy: the single orec acquisition) on top of
                        // validation and writeback.
                        let validation = tx.take_work() - write_cost - cost::METADATA_OP;
                        tx.commit_finish(&g);
                        let released = g.orec_at(g.orec_index(Addr(0))).load(Ordering::Relaxed);
                        (version_of(released), validation == cost::VALIDATE_WORD)
                    }};
                }
                let eager = stamp!(OrecTx::new(0), |tx: &mut OrecTx, g| tx.write(g, Addr(0), 1));
                let lazy = stamp!(OrecLazyTx::new(0), |tx: &mut OrecLazyTx, _| tx
                    .write(Addr(0), 1));
                assert_eq!(lazy, eager, "{kind:?} moved={moved} observed={observed}");
            }
        }
    }

    #[test]
    fn coarse_snzi_counter_is_exact_under_interleaving() {
        let (g, h) = setup_kind(ClockKind::CoarseSnzi);
        let mut t1 = OrecLazyTx::new(0);
        let mut t2 = OrecLazyTx::new(1);
        t2.begin(&g).unwrap(); // live observer: commits below must tick
        for _ in 0..10 {
            run_tx(&g, &h, &mut t1, |tx| {
                let v = match tx.read(&g, &h, Addr(0)) {
                    Ok(v) => v,
                    Err(e) => return Err(e),
                };
                tx.write(Addr(0), v + 1)
            });
        }
        assert_eq!(h.load(Addr(0)), 10);
        assert_eq!(g.clock().stats().bumps, 10, "observer forces every tick");
        t2.abort(&g);
    }
}
