//! The transaction handle and retry driver.
//!
//! [`drive_transaction`] implements the paper's `acquire_view` /
//! `release_view` protocol (§II):
//!
//! * **acquire**: block until admitted by the view's RAC gate; admission at
//!   quota 1 is exclusive and selects the uninstrumented lock mode.
//! * run the body; **release**: try to commit. On failure: abort, roll
//!   back, *decrease P and reacquire the view* — re-admission matters
//!   because the quota may have changed while we were inside.
//!
//! Every operation charges its cost to the runtime, so under the simulator
//! each shared access is an interleaving point and under real threads the
//! charge is free. An attempt that nothing can suspend — real threads, a
//! passive contention manager, no fault plan — finishes each successful
//! access in place instead of awaiting that free charge. Per-attempt work
//! is recorded into the view's statistics as aborted or successful cycles —
//! the inputs to δ(Q).
//!
//! # Crash safety
//!
//! The pipeline is panic-safe by construction, with two RAII layers:
//!
//! * admission is held as a [`votm_rac::GateGuard`], so `P` is decremented
//!   on every exit path including unwinds;
//! * the [`TxHandle`] itself is a drop guard: if the body or the commit
//!   path unwinds with a live transaction, its `Drop` aborts the attempt
//!   (releasing orec locks / never stranding the NOrec seqlock), rolls
//!   back attempt-local allocations, and books the cycles as aborted. In
//!   the one window where abort is impossible — after a `NeedsFinish`
//!   commit has published its writeback but before `commit_finish` — the
//!   drop guard *finishes* the commit instead, which is the only exit that
//!   leaves the view consistent. Either way it books through the same
//!   close-out as a commit, an abort or a `retry()` park, so an unwound
//!   attempt's cycles are counted by the same rule as every other's.
//!
//! Because the handle is declared after the gate guard, Rust's reverse
//! drop order runs transaction recovery first and releases admission
//! second, exactly like the happy path. The transaction's [`Descriptor`]
//! is declared before both and returns to the view's slot only on the
//! commit path, so an unwind drops it last and never pools it.
//!
//! # Starvation watchdog
//!
//! The driver tracks each transaction's consecutive-abort streak. When a
//! view is configured with [`crate::VotmBuilder::escalate_after`]`(Some(K))`
//! and a transaction loses `K` attempts in a row, the next re-admission
//! goes through [`votm_rac::AdmissionGate::acquire_exclusive`]: the gate
//! drains, the starving transaction runs alone in the irrevocable Q = 1
//! lock mode (which cannot abort), and ordinary admissions resume when it
//! leaves. The streak is a *driver-local* variable of one
//! [`drive_transaction`] call: nothing another transaction does — commit,
//! abort, or contention-manager kill — can reset it, so a starving
//! transaction cannot be masked from escalation by unrelated traffic on
//! the same view. Contention-manager kills increment it like any other
//! abort.
//!
//! # Contention management
//!
//! Every conflict-resolution site consults the view's
//! [`votm_rac::CmInstance`] (see `votm_rac::cm`): `Busy` polls and
//! `Conflict` errors from reads, writes and `commit_begin` become
//! [`votm_rac::SiteVerdict`]s — keep waiting (optionally dooming the
//! conflicting transaction first) or abort-self with a pre-re-admission
//! backoff. Dooming is cooperative: the winner marks the victim's
//! [`votm_rac::CmShared`] slot and the victim converts the mark into an
//! `AbortReason::CmKilled` abort at its next operation boundary, so locks
//! are always released through the victim's own abort path. Under the
//! default passive [`votm_rac::CmPolicy::Backoff`] — which is also what
//! every NOrec view runs — the driver skips all of this and reproduces the
//! historical behaviour exactly.
//!
//! # Blocking: `retry`
//!
//! A body that returns [`TxError::Retry`] (via [`TxHandle::retry`]) is not
//! aborted-and-raced like a conflict: the driver rolls the attempt back,
//! **releases its admission slot**, and parks the task on the view's
//! wait table (`wait.rs`), keyed by the attempt's read-set Bloom summary
//! (every bucket when it read nothing). Only a committing writer whose
//! write set intersects that key wakes it (see `wait.rs` for the
//! lost-wakeup-free protocol). Parks deliberately bypass the contention
//! manager (no attempt count, no loser backoff — blocking is not losing)
//! and leave the starvation streak untouched; only a park that *times
//! out* bumps the streak, so a lost wakeup escalates through the watchdog
//! instead of hanging.
//!
//! # Domain views
//!
//! A view of an [`crate::AdaptiveDomain`] runs this same driver and hands
//! its bodies this same handle. The only difference is decided once, in
//! [`TxHandle::new`]: the attempt carries the view's slot in the domain's
//! route table, and every read and write first checks that its address
//! still routes there. A foreign address fails the access with
//! [`TxAbort`] and leaves its owner on the handle for the domain's
//! dispatch to read; the booked reason stays `Explicit`. A domain's
//! cross-view (union) attempt enters as [`Entry::Union`]: the domain
//! already holds every live view drained, so the attempt takes no
//! admission and runs in lock mode, like an escalated one, with no route
//! to check.

use votm_obs::{
    addr_bucket, AbortReason, ConflictSiteKind, EventKind, RecorderHandle, ADDR_BUCKET_NONE,
};
use votm_rac::cm::HARD_PATIENCE;
use votm_rac::{AdmissionMode, CmTx, SiteVerdict};
use votm_sim::{FaultEvent, Rt};
use votm_stm::{bloom_bucket, cost, Addr, CommitPhase, ConflictSite, OpError, TxCtx};
use votm_utils::JitterBackoff;

use crate::error::TxError;
use crate::view::{Route, View};
use crate::wait::{ParkOutcome, PARK_TIMEOUT};

/// The current transaction attempt must be rolled back and retried.
///
/// The error of every single-word access ([`TxHandle::read`] and
/// [`TxHandle::write`]): an access can only abort, and the structured cause
/// stays on the handle, so the error carries nothing and
/// `Result<u64, TxAbort>` is a tag and an aligned word.
/// Propagate it with `?` (a body's [`TxError`] lifts it); the driver rolls
/// back and re-runs the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxAbort;

/// How a transaction enters [`drive_transaction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entry {
    /// [`View::transact`]: admitted through the view's gate.
    ReadWrite,
    /// [`View::transact_ro`] (`acquire_Rview`): writes panic.
    ReadOnly,
    /// A domain's cross-view attempt. The caller holds every live view of
    /// the domain drained, so the attempt takes no admission, runs in the
    /// irrevocable lock mode and checks no route; it cannot abort or
    /// `retry()`.
    Union,
}

/// Consecutive `Busy` retries of one read/write before the attempt aborts
/// (bounded spinning, TinySTM-style; breaks reader/writer wait-for cycles).
/// This is the passive default's patience, and the loser's under the
/// priority policies — see [`votm_rac::cm::BUSY_PATIENCE`].
const BUSY_ABORT_LIMIT: u32 = votm_rac::cm::BUSY_PATIENCE;

/// Everything a transaction keeps on the heap: the transactional context
/// (read set, write set, lock list) and the allocation and free logs.
///
/// One descriptor serves every attempt of a transaction and, through the
/// view's per-thread slot ([`View::take_descriptor`] /
/// [`View::put_descriptor`]), every later transaction of the same logical
/// thread on the same view, so that in the steady state an attempt pays
/// `begin()`'s `clear()`s and no allocator call. The driver owns it for the
/// length of one [`drive_transaction`] call and lends its parts to each
/// attempt's [`TxHandle`]. The slot is a cache, never an identity: a
/// transaction that finds it empty builds a fresh descriptor, and one that
/// is abandoned by an unwind or a dropped future never hands its own back.
#[derive(Debug)]
pub(crate) struct Descriptor {
    ctx: TxCtx,
    /// Blocks allocated by the current attempt — freed again if it aborts.
    allocs: Vec<Addr>,
    /// Frees requested by the current attempt — applied only if it commits.
    frees: Vec<Addr>,
}

impl Descriptor {
    /// A descriptor around a fresh transactional context.
    pub(crate) fn new(ctx: TxCtx) -> Self {
        Self {
            ctx,
            allocs: Vec::new(),
            frees: Vec::new(),
        }
    }

    /// The descriptor, if it may go back to its slot: `None` (it is
    /// dropped) unless it holds nothing of any attempt, since pooling a
    /// context that is live or mid-commit would hand the next transaction
    /// somebody else's locks.
    pub(crate) fn recycle(self: Box<Self>) -> Option<Box<Self>> {
        (self.ctx.is_idle() && self.allocs.is_empty() && self.frees.is_empty()).then_some(self)
    }
}

/// Records `kind` stamped with the runtime's clock, which is read only when
/// the recorder is live: under real threads the clock is an `rdtsc`, and a
/// dead handle would throw the reading away.
#[inline]
fn trace(rec: &RecorderHandle, rt: &Rt, kind: EventKind) {
    if rec.is_live() {
        rec.record(rt.now(), kind);
    }
}

/// In-transaction capability: all shared-memory access inside
/// [`View::transact`] goes through this handle.
///
/// The handle doubles as the pipeline's unwind guard — see the module docs'
/// *Crash safety* section for what its `Drop` restores.
pub struct TxHandle<'v> {
    view: &'v View,
    rt: &'v Rt,
    /// The driver's descriptor context, or its direct context when the
    /// attempt runs in lock mode (escalated or union).
    ctx: &'v mut TxCtx,
    read_only: bool,
    /// The domain route every access must follow, for an attempt on a
    /// domain view; `None` on a plain view and in a union attempt.
    route: Option<&'v Route>,
    /// Owner slot of the first access that failed the route check.
    foreign: Option<u32>,
    /// Virtual cycles consumed by this attempt (simulator accounting).
    attempt_work: u64,
    /// Blocks allocated by this attempt — freed again if it aborts.
    allocs: &'v mut Vec<Addr>,
    /// Frees requested by this attempt — applied only if it commits.
    frees: &'v mut Vec<Addr>,
    backoff: JitterBackoff,
    /// Cycle timestamp at attempt start (real-thread accounting).
    start: u64,
    /// Set by [`Self::finish`]; a drop with this still false is an unwind.
    finished: bool,
    /// Structured cause of the pending abort, refined as conflicts are
    /// detected; reported if this attempt ends without committing.
    abort_reason: AbortReason,
    /// Flight-recorder handle bound to this thread's ring (dead when the
    /// system has no recorder configured), lent by the driver.
    rec: &'v RecorderHandle,
    /// Whether the fault points of this attempt can fire: a fault plan is
    /// armed for this task and the attempt is not direct. Decided once so
    /// that, with nothing armed, no access builds a fault-point future.
    faults: bool,
    /// Whether a successful access finishes in place: nothing can suspend
    /// or doom it (real threads, where a charge is free; a passive contention
    /// manager; no fault plan), so it books its work and returns without
    /// the charge, doom check and fault point that would all be no-ops.
    in_place: bool,
    /// Contention-management state of the logical transaction this attempt
    /// belongs to; the driver reads it back after an abort so the attempt
    /// count survives.
    cm_tx: CmTx,
    /// True when the view's contention manager is active *and* this attempt
    /// is transactional: the driver publishes priorities, honours dooms and
    /// consults site verdicts. False (passive default or lock mode) keeps
    /// the historical hot path bit-identical.
    cm_active: bool,
    /// Conflict site behind the pending abort, captured alongside
    /// `abort_reason` so the profiler can attribute the wasted cycles.
    conflict_site: ConflictSite,
    /// Address-bucket bitmaps of this attempt's reads and writes — the
    /// profiler's co-access footprint. Maintained only while a recorder is
    /// live; never charged to virtual time.
    fp_reads: u64,
    /// Write half of the footprint.
    fp_writes: u64,
    /// Heap capacity in words, cached for the footprint bucket scale.
    cap_words: u64,
    /// Bloom summary (same 64-bucket hash as the NOrec write-set filter) of
    /// every address this attempt read — the park key for `retry`. A
    /// single shift-and-or per read; never charged to virtual time.
    read_summary: u64,
    /// Bloom summary of this attempt's writes. For transactional modes the
    /// context's write set carries the same information; this handle-level
    /// copy also covers direct (lock-mode) attempts, whose context has no
    /// write set, so escalated commits still wake parked readers.
    write_summary: u64,
}

impl<'v> TxHandle<'v> {
    /// An attempt over the driver's descriptor; `direct` replaces the
    /// descriptor's context for a lock-mode (escalated or union) attempt.
    fn new(
        view: &'v View,
        rt: &'v Rt,
        rec: &'v RecorderHandle,
        desc: &'v mut Descriptor,
        direct: Option<&'v mut TxCtx>,
        entry: Entry,
        mut cm_tx: CmTx,
    ) -> Self {
        let Descriptor { ctx, allocs, frees } = desc;
        let ctx = direct.unwrap_or(ctx);
        debug_assert!(allocs.is_empty() && frees.is_empty());
        let cm_active = view.cm().active() && !ctx.is_direct();
        if cm_active {
            // Publish this attempt's priority and open a fresh doom epoch
            // (which also clears any doom aimed at the previous attempt).
            let tid = rt.thread_index();
            cm_tx.prio = view.cm().priority(tid, rt.now());
            cm_tx.epoch = view.cm().shared().attempt_begin(tid, cm_tx.prio);
        }
        let start = rt.now();
        let backoff = JitterBackoff::new(rt.thread_index() as u64);
        let faults = !ctx.is_direct() && rt.faults_armed();
        let in_place = !rt.is_virtual() && !cm_active && !faults;
        let route = match entry {
            Entry::Union => None,
            Entry::ReadWrite | Entry::ReadOnly => view.route(),
        };
        Self {
            view,
            rt,
            ctx,
            read_only: entry == Entry::ReadOnly,
            route,
            foreign: None,
            attempt_work: 0,
            allocs,
            frees,
            backoff,
            start,
            finished: false,
            abort_reason: AbortReason::Explicit,
            rec,
            faults,
            in_place,
            cm_tx,
            cm_active,
            conflict_site: ConflictSite::None,
            fp_reads: 0,
            fp_writes: 0,
            cap_words: view.tm().heap().size_words() as u64,
            read_summary: 0,
            write_summary: 0,
        }
    }

    /// [`trace`] through this attempt's recorder handle and runtime.
    #[inline]
    fn trace(&self, kind: EventKind) {
        trace(self.rec, self.rt, kind);
    }

    /// This view's id as the compact event field.
    #[inline]
    fn vid(&self) -> u16 {
        self.view.id() as u16
    }

    /// Books one successful access, the part both the in-place and the
    /// suspending path share: its Bloom summary bit (the park key or the
    /// wakeup key), its footprint bit and the work units the context
    /// accrued, which it returns for the caller to charge. Recorder-off runs
    /// skip even the footprint's bucket arithmetic; recorded runs pay a few
    /// real instructions but zero virtual cycles.
    #[inline]
    fn book_access(&mut self, addr: Addr, write: bool) -> u64 {
        let bloom = 1u64 << bloom_bucket(addr);
        if write {
            self.write_summary |= bloom;
        } else {
            self.read_summary |= bloom;
        }
        if self.rec.is_live() {
            let bit = 1u64 << addr_bucket(u64::from(addr.0), self.cap_words);
            if write {
                self.fp_writes |= bit;
            } else {
                self.fp_reads |= bit;
            }
        }
        let w = self.ctx.take_work();
        self.attempt_work += w;
        w
    }

    /// Captures the abort cause *and* its conflict site in one step so the
    /// two can never disagree.
    #[inline]
    fn set_abort_cause(&mut self, reason: AbortReason, site: ConflictSite) {
        self.abort_reason = reason;
        self.conflict_site = site;
    }

    /// Drains the context's work units, charges them to the runtime and
    /// books them against this attempt.
    async fn charge_pending(&mut self) {
        let w = self.ctx.take_work();
        self.attempt_work += w;
        self.rt.charge(w).await;
    }

    /// Lets a `Busy` operation wait: charges the failed operation's pending
    /// work and then the poll delay; under real threads also spins/yields so
    /// the lock holder can run. The two are one [`Rt::charge_pair`]: a
    /// passive waiter observes nothing until the holder releases, so the
    /// step between them is unobservable. A caller that must charge before
    /// anything else happens (a conflict, an active contention manager's
    /// verdict) charges first, and the pair's first half is then 0.
    async fn busy_wait(&mut self) {
        self.view.tm().stats().record_busy(self.rt.thread_index());
        let w = self.ctx.take_work();
        self.attempt_work += w + cost::BUSY_RETRY;
        self.rt.charge_pair(w, cost::BUSY_RETRY).await;
        if !self.rt.is_virtual() {
            self.backoff.snooze();
        }
    }

    /// Consults the runtime's fault plan at an interleaving point. Callers
    /// check [`Self::faults`] first. An `Abort` draw aborts the attempt only
    /// when `may_abort`; contexts that cannot abort (mid-commit, local work)
    /// pass `false`, which delivers panics and delays and drops the draw.
    /// Direct (exclusive lock-mode) sections never take faults: they cannot
    /// abort, and injecting panics there would tear uninstrumented state the
    /// recovery machinery cannot see.
    async fn fault_point(&mut self, may_abort: bool) -> Result<(), TxAbort> {
        debug_assert!(self.faults);
        match self.rt.take_fault() {
            None => Ok(()),
            Some(FaultEvent::Delay(d)) => {
                self.trace(EventKind::Fault {
                    view: self.vid(),
                    code: 0,
                    cycles: d,
                });
                self.attempt_work += d;
                self.rt.charge(d).await;
                Ok(())
            }
            Some(FaultEvent::Abort) if !may_abort => Ok(()),
            Some(FaultEvent::Abort) => {
                self.trace(EventKind::Fault {
                    view: self.vid(),
                    code: 1,
                    cycles: 0,
                });
                self.set_abort_cause(AbortReason::FaultInjected, ConflictSite::None);
                Err(TxAbort)
            }
            Some(FaultEvent::Panic) => {
                self.trace(EventKind::Fault {
                    view: self.vid(),
                    code: 2,
                    cycles: 0,
                });
                panic!("injected fault: panic at vtime {}", self.rt.now())
            }
        }
    }

    /// Converts a pending doom mark into a `CmKilled` abort. No-op under a
    /// passive manager or in lock mode. This is the victim's half of the
    /// polite-kill protocol: checked at every operation boundary so a
    /// doomed transaction leaves within a bounded number of its own steps,
    /// releasing its locks through the normal abort path. The kill charges
    /// the same loser backoff as an `AbortSelf` verdict — a victim that
    /// re-armed instantly would reach the winner's lock before it commits
    /// and (once the priority order has flipped, e.g. at a window boundary)
    /// counter-kill it, ping-ponging without progress.
    #[inline]
    fn cm_doom_check(&mut self) -> Result<(), TxAbort> {
        if self.cm_active
            && self
                .view
                .cm()
                .shared()
                .doomed_by(self.rt.thread_index(), self.cm_tx.epoch)
                .is_some()
        {
            self.set_abort_cause(AbortReason::CmKilled, ConflictSite::None);
            self.cm_tx.loser_backoff = self.cm_tx.yield_backoff();
            return Err(TxAbort);
        }
        Ok(())
    }

    /// Resolves one `Busy`/`Conflict` poll of an operation through the
    /// view's contention manager. The caller has already charged pending
    /// work, except on a passive `Busy`, whose busy wait charges it.
    /// `Ok(())` means retry the operation (one busy wait has been served);
    /// `Err(TxAbort)` aborts the attempt with `abort_reason` set.
    async fn cm_site(&mut self, err: OpError, spins: &mut u32) -> Result<(), TxAbort> {
        let busy = matches!(err, OpError::Busy);
        if !self.cm_active {
            // The historical behaviour, bit for bit: bounded spin on Busy,
            // abort-self on Conflict. A wait-for cycle (two writers each
            // spin-reading the other's locked orec) must break by
            // aborting, like TinySTM's spin timeout.
            if busy {
                self.busy_wait().await;
                *spins += 1;
                if *spins >= BUSY_ABORT_LIMIT {
                    self.set_abort_cause(AbortReason::WriteLockBusy, ConflictSite::None);
                    return Err(TxAbort);
                }
                return Ok(());
            }
            self.set_abort_cause(self.ctx.conflict_reason(), self.ctx.conflict_site());
            return Err(TxAbort);
        }
        // A doomed attempt yields before consulting its own verdict: a
        // higher-priority transaction already asked for the road.
        self.cm_doom_check()?;
        let tid = self.rt.thread_index();
        let cm = self.view.cm();
        *spins += 1;
        let enemy = self.ctx.conflict_enemy();
        match cm.site(busy, *spins, enemy, &self.cm_tx, tid) {
            SiteVerdict::Wait { kill } => {
                if kill {
                    if let Some(e) = enemy {
                        if e != tid && cm.shared().try_doom(e, tid as u16) {
                            self.trace(EventKind::CmKill {
                                view: self.vid(),
                                victim: e as u16,
                                winner: tid as u16,
                            });
                        }
                    }
                }
                if *spins < HARD_PATIENCE {
                    self.busy_wait().await;
                    return Ok(());
                }
                // Safety net: no policy verdict may turn into an unbounded
                // wait. Past the hard cap the attempt aborts itself
                // regardless of priority.
            }
            SiteVerdict::AbortSelf { backoff } => self.cm_tx.loser_backoff = backoff,
        }
        if busy {
            self.set_abort_cause(AbortReason::WriteLockBusy, ConflictSite::None);
        } else {
            self.set_abort_cause(self.ctx.conflict_reason(), self.ctx.conflict_site());
        }
        Err(TxAbort)
    }

    /// On a domain view, fails an access to an address another view owns,
    /// remembering the first such owner. The booked reason stays the
    /// default `Explicit`: leaving is the domain's decision, not a conflict.
    #[inline]
    fn check_route(&mut self, addr: Addr) -> Result<(), TxAbort> {
        if let Some(route) = self.route {
            let owner = route.table.owner_of(addr);
            if owner != route.slot {
                self.foreign.get_or_insert(owner);
                return Err(TxAbort);
            }
        }
        Ok(())
    }

    /// The owner slot of the first address this attempt found routed to
    /// another view of its domain.
    pub(crate) fn foreign_owner(&self) -> Option<u32> {
        self.foreign
    }

    /// Whether this attempt has written anything.
    pub(crate) fn wrote(&self) -> bool {
        self.write_summary != 0
    }

    /// Transactional read of one word.
    ///
    /// An access can only abort (its cause is kept on the handle), so the
    /// error is the zero-sized [`TxAbort`]; `?` in a body lifts it into
    /// [`TxError`]. On a domain view an address another view owns aborts
    /// too: the domain re-runs the body where it can reach everything.
    pub async fn read(&mut self, addr: Addr) -> Result<u64, TxAbort> {
        self.check_route(addr)?;
        let mut spins = 0u32;
        loop {
            match self.ctx.read(self.view.tm(), addr) {
                Ok(v) => {
                    let w = self.book_access(addr, false);
                    if !self.in_place {
                        self.rt.charge(w).await;
                        self.cm_doom_check()?;
                        if self.faults {
                            self.fault_point(true).await?;
                        }
                    }
                    return Ok(v);
                }
                Err(e) => {
                    if self.cm_active || e == OpError::Conflict {
                        self.charge_pending().await;
                    }
                    self.cm_site(e, &mut spins).await?;
                }
            }
        }
    }

    /// Transactional write of one word. Errors as [`Self::read`] does.
    ///
    /// # Panics
    /// In a read-only transaction ([`View::transact_ro`]).
    pub async fn write(&mut self, addr: Addr, value: u64) -> Result<(), TxAbort> {
        assert!(
            !self.read_only,
            "write inside a read-only view acquisition (acquire_Rview)"
        );
        self.check_route(addr)?;
        let mut spins = 0u32;
        loop {
            match self.ctx.write(self.view.tm(), addr, value) {
                Ok(()) => {
                    let w = self.book_access(addr, true);
                    if !self.in_place {
                        self.rt.charge(w).await;
                        self.cm_doom_check()?;
                        if self.faults {
                            self.fault_point(true).await?;
                        }
                    }
                    return Ok(());
                }
                Err(e) => {
                    if self.cm_active || e == OpError::Conflict {
                        self.charge_pending().await;
                    }
                    self.cm_site(e, &mut spins).await?;
                }
            }
        }
    }

    /// Blocks the transaction: aborts this attempt and parks the task until
    /// another transaction commits a write intersecting this attempt's read
    /// set — Haskell STM's `retry`. Use it when the body finds the shared
    /// state unusable (queue empty, buffer full, flag unset): instead of
    /// committing a "nothing to do" result and polling, the task sleeps and
    /// is woken exactly when the world it read changes.
    ///
    /// The parked task holds no admission slot, so it never starves the
    /// view's quota; see the module docs' *Blocking* section for the
    /// protocol. Call as `return tx.retry();` (or `tx.retry()?` in a
    /// never-taken branch) — it merely constructs the [`TxError::Retry`]
    /// signal; the driver does the parking.
    pub fn retry<T>(&self) -> Result<T, TxError> {
        Err(TxError::Retry)
    }

    /// Performs thread-private work inside the transaction: `reads`/`writes`
    /// accesses to thread-local memory plus `nops` cycles of computation
    /// (Eigenbench's cold-array accesses and NOPi). Under the simulator this
    /// advances virtual time; under real threads it actually spins.
    pub async fn local_work(&mut self, reads: u64, writes: u64, nops: u64) {
        let cycles = (reads + writes) * cost::LOCAL_ACCESS + nops * cost::NOP;
        self.attempt_work += cycles;
        self.rt.work(cycles).await;
        if self.faults {
            let _cannot_abort = self.fault_point(false).await;
        }
    }

    /// Allocates a block inside the transaction. The allocation is undone
    /// if this attempt aborts.
    ///
    /// On a full heap the view grows once via `brk_view` before giving up
    /// with [`TxError::HeapExhausted`] — propagating it with `?` retries
    /// the transaction, so callers that can make progress from other
    /// transactions' deferred frees simply re-run; match on the variant for
    /// a graceful out-of-memory path instead.
    pub fn alloc(&mut self, size_words: u32) -> Result<Addr, TxError> {
        let heap = self.view.tm().heap();
        let addr = heap.alloc_block(size_words).or_else(|| {
            // One growth attempt: extend the usable region by at least the
            // request (brk_view), then retry the carve.
            self.view.brk_view(size_words as usize)?;
            heap.alloc_block(size_words)
        });
        match addr {
            Some(addr) => {
                self.allocs.push(addr);
                Ok(addr)
            }
            None => Err(TxError::HeapExhausted {
                requested_words: size_words,
            }),
        }
    }

    /// Frees a block from inside the transaction. Deferred until commit so
    /// an abort cannot leak another transaction's data.
    pub fn free(&mut self, addr: Addr) {
        self.frees.push(addr);
    }

    /// Rolls back attempt-local state (allocation log).
    fn rollback_side_effects(&mut self) {
        for addr in self.allocs.drain(..).rev() {
            self.view.tm().heap().free_block(addr);
        }
        self.frees.clear();
    }

    /// Applies deferred side effects after a successful commit.
    fn apply_side_effects(&mut self) {
        self.allocs.clear();
        for addr in self.frees.drain(..) {
            self.view.tm().heap().free_block(addr);
        }
    }

    /// Books a committed attempt: commit counter, commit-latency histogram
    /// and the trace event, so the three can never disagree.
    fn book_commit(&self, cycles: u64) {
        self.view
            .tm()
            .stats()
            .record_commit(self.rt.thread_index(), cycles);
        self.view.hists().commit.record(cycles);
        self.trace(EventKind::TxCommit {
            view: self.vid(),
            cycles,
        });
        self.record_footprint(true);
    }

    /// Books an aborted attempt under its structured reason.
    fn book_abort(&self, cycles: u64) {
        self.view
            .tm()
            .stats()
            .record_abort(self.rt.thread_index(), cycles, self.abort_reason);
        self.trace(EventKind::TxAbort {
            view: self.vid(),
            reason: self.abort_reason,
            cycles,
        });
        // Exactly one ConflictDetected per abort, carrying the same cycle
        // count, so per-bucket wasted cycles sum to the abort total.
        let (bucket, site, raw) = match self.conflict_site {
            ConflictSite::None => (ADDR_BUCKET_NONE, ConflictSiteKind::None, 0),
            ConflictSite::Addr(a) => (
                addr_bucket(u64::from(a.0), self.cap_words),
                ConflictSiteKind::Addr,
                u64::from(a.0),
            ),
            // An orec index is a hash, not an address: no bucket for it.
            ConflictSite::Orec(idx) => (ADDR_BUCKET_NONE, ConflictSiteKind::Orec, u64::from(idx)),
            ConflictSite::Bloom(a, b) => (
                addr_bucket(u64::from(a.0), self.cap_words),
                ConflictSiteKind::Bloom,
                u64::from(b),
            ),
        };
        self.trace(EventKind::ConflictDetected {
            view: self.vid(),
            addr_bucket: bucket,
            kind: self.abort_reason,
            site,
            cycles,
            raw,
        });
        self.record_footprint(false);
    }

    /// Emits the attempt's footprint bitmaps (when it touched anything).
    fn record_footprint(&self, committed: bool) {
        if self.fp_reads | self.fp_writes != 0 {
            self.trace(EventKind::Footprint {
                view: self.vid(),
                committed,
                reads: self.fp_reads,
                writes: self.fp_writes,
            });
        }
    }

    /// Pokes the adaptive controller; when it adjusts the quota, puts the
    /// decision (with the δ(Q) sample behind it) on the trace timeline.
    fn poke_controller(&self) {
        if let Some(ctrl) = self.view.controller() {
            if let Some(d) = ctrl.on_tx_end_decision(self.view.gate(), self.view.tm().stats()) {
                self.trace(EventKind::QuotaChange {
                    view: self.vid(),
                    old_q: d.old_q as u16,
                    new_q: d.new_q as u16,
                    delta: d.delta,
                });
            }
        }
    }

    /// Closes out the attempt, whatever its exit: applies or rolls back
    /// side effects, books the attempt's cycles, and pokes the adaptive
    /// controller. Disarms the drop guard. Every attempt — committed,
    /// aborted, parked by `retry()` or abandoned by an unwind — is booked
    /// here and nowhere else.
    fn finish(&mut self, committed: bool) {
        self.finished = true;
        // Simulator: the work-unit ledger *is* the cycle count. Real
        // threads: the hardware timestamp delta, like the paper's rdtsc().
        let cycles = if self.rt.is_virtual() {
            std::mem::take(&mut self.attempt_work)
        } else {
            self.attempt_work = 0;
            self.rt.now().saturating_sub(self.start)
        };
        if committed {
            self.apply_side_effects();
            self.book_commit(cycles);
        } else {
            self.rollback_side_effects();
            self.book_abort(cycles);
        }
        self.poke_controller();
    }
}

impl Drop for TxHandle<'_> {
    /// Unwind recovery. On the normal path `Self::finish` has already
    /// run and this is a no-op; otherwise the attempt is being abandoned by
    /// a panic, and its context is recovered to a consistent view state
    /// before the attempt is booked through `Self::finish` like any other:
    ///
    /// * **mid-commit** (writeback published, commit metadata held): finish
    ///   the commit, which is booked as committed. The data is already in
    ///   the heap; releasing the NOrec seqlock / orec locks at the commit
    ///   timestamp is the only exit that doesn't strand them or tear the
    ///   writeback.
    /// * **direct (lock-mode)**: nothing can be rolled back — the paper's
    ///   irrevocable mode writes straight to the heap. Allocation logs are
    ///   dropped without freeing (a block may already be reachable from
    ///   published state; leaking is safe, freeing could corrupt).
    /// * **live transaction**: abort it (restores orec ownership, discards
    ///   buffered writes); `finish` rolls back attempt-local allocations.
    ///
    /// The work the recovery accrues is booked but never charged: a drop
    /// cannot await.
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        let committed = self.ctx.mid_commit();
        if committed {
            self.ctx.commit_finish(self.view.tm());
        } else if self.ctx.is_direct() {
            self.allocs.clear();
            self.frees.clear();
        } else if self.ctx.is_active() {
            self.ctx.abort(self.view.tm());
        }
        self.attempt_work += self.ctx.take_work();
        self.finish(committed);
    }
}

/// Runs `body` transactionally against `view` until an attempt commits.
pub(crate) async fn drive_transaction<'v, T, F>(
    view: &'v View,
    rt: &Rt,
    entry: Entry,
    mut body: F,
) -> T
where
    F: for<'h> AsyncFnMut(&'h mut TxHandle<'_>) -> Result<T, TxError>,
{
    // An unrestricted view has no gate to pass, and a union attempt's
    // admission is the caller's drain of the domain.
    let no_gate = view.is_unrestricted() || entry == Entry::Union;
    let tid = rt.thread_index();
    let rec = view.recorder_handle(tid);
    let vid = view.id() as u16;
    // This thread's descriptor for this view, ours until the commit below
    // hands it back. Declared before everything an attempt declares, so an
    // unwind (or a dropped future) runs the attempt's recovery first and
    // then drops the descriptor instead of pooling it.
    let mut desc = view.take_descriptor(tid);
    // Contention-management state of the *logical* transaction: it survives
    // attempts, so the loser backoff grows with every lost attempt.
    let mut cm_tx = CmTx::default();
    // Consecutive aborts of *this* transaction — the starvation signal.
    let mut streak: u64 = 0;
    // When the previous attempt aborted: its end timestamp, for the
    // abort-to-retry latency histogram.
    let mut last_abort_at: Option<u64> = None;
    loop {
        // acquire_view: RAC admission (skipped for the no-RAC baselines).
        // Admission is held as an RAII guard; dropping it (normally or
        // during an unwind) is what releases the gate.
        let gate_guard = if no_gate {
            None
        } else {
            let escalate = view
                .escalate_after()
                .is_some_and(|k| streak >= u64::from(k));
            let guard = if escalate {
                // Max-retry escalation: drain the view and run alone in
                // the irrevocable lock mode, which cannot abort.
                view.tm().stats().record_escalation(rt.thread_index());
                trace(&rec, rt, EventKind::Escalation { view: vid });
                view.gate().acquire_exclusive(rt).await
            } else {
                view.gate().admit(rt).await
            };
            // The gate times its own slow path: a fast-path admission read
            // no clock and waited 0.
            let wait = guard.wait();
            let waited = wait.cycles;
            view.hists().gate_wait.record(waited);
            if waited > 0 {
                view.tm()
                    .stats()
                    .record_gate_wait(rt.thread_index(), waited);
                rec.record(wait.from, EventKind::GateWaitEnter { view: vid });
                trace(&rec, rt, EventKind::GateWaitExit { view: vid, waited });
            }
            Some(guard)
        };
        let mode = match (entry, &gate_guard) {
            (Entry::Union, _) => AdmissionMode::Exclusive,
            (_, Some(guard)) => guard.mode(),
            (_, None) => AdmissionMode::Transactional,
        };

        // Snapshot the wait-table epoch *before* the attempt reads
        // anything: a commit that lands from here on bumps the epoch, so a
        // later park detects it (SkippedStale) instead of sleeping through
        // it. Free when nothing blocks: one relaxed atomic load.
        let begin_epoch = view.waits().epoch();

        // Escalated and union attempts run on a direct context (two
        // counters, no heap); the descriptor's transactional one sits the
        // attempt out.
        let mut direct = match mode {
            AdmissionMode::Exclusive => Some(view.tm().direct_ctx()),
            AdmissionMode::Transactional => None,
        };
        // Declared after the guard: unwinds run transaction recovery
        // (TxHandle::drop) before admission release (GateGuard::drop).
        let mut handle = TxHandle::new(view, rt, &rec, &mut desc, direct.as_mut(), entry, cm_tx);

        // begin (NOrec can be Busy while a committer holds the seqlock).
        loop {
            match handle.ctx.begin(view.tm()) {
                Ok(()) => break,
                Err(OpError::Busy) => handle.busy_wait().await,
                Err(OpError::Conflict) => unreachable!("begin never conflicts"),
            }
        }
        handle.charge_pending().await;
        trace(&rec, rt, EventKind::TxBegin { view: vid });
        if let Some(aborted_at) = last_abort_at.take() {
            view.hists()
                .abort_to_retry
                .record(rt.now().saturating_sub(aborted_at));
        }

        let retry = match body(&mut handle).await {
            Ok(value) => {
                // Capture the wakeup key now: the commit machinery below
                // drains the write set. Context summary for transactional
                // modes, handle summary for direct (lock-mode) attempts.
                let wake_summary = handle.ctx.write_summary() | handle.write_summary;
                // release_view step 1: try to commit.
                let mut commit_spins = 0u32;
                let committed = loop {
                    match handle.ctx.commit_begin(view.tm()) {
                        Ok(CommitPhase::Done) => break true,
                        Ok(CommitPhase::NeedsFinish { .. }) => {
                            // Hold the commit locks across the writeback
                            // window so concurrent transactions observe it.
                            // This is also the pipeline's mid-commit
                            // interleaving (and injected-panic) point: an
                            // unwind here is recovered by finishing the
                            // commit in the drop guard.
                            handle.charge_pending().await;
                            if handle.faults {
                                let _cannot_abort = handle.fault_point(false).await;
                            }
                            handle.ctx.commit_finish(view.tm());
                            break true;
                        }
                        // The passive default waits out a busy committer
                        // unbounded: the seqlock holder finishes in bounded
                        // time.
                        Err(OpError::Busy) if !handle.cm_active => handle.busy_wait().await,
                        // A failed commit_begin holds no locks (lazy
                        // acquisition released them before returning
                        // Conflict), so the CM site logic applies and a Wait
                        // verdict retries commit_begin whole. A passive
                        // conflict aborts at once and leaves its work to the
                        // abort's charge below.
                        Err(e) => {
                            if handle.cm_active {
                                handle.charge_pending().await;
                            }
                            if handle.cm_site(e, &mut commit_spins).await.is_err() {
                                break false;
                            }
                        }
                    }
                };
                if committed {
                    handle.charge_pending().await;
                    handle.finish(true);
                    drop(handle);
                    drop(gate_guard);
                    // Publication: stamp the bucket epochs and wake parked
                    // transactions whose read sets intersect this commit's
                    // writes. Zero virtual cost, no RNG — write-free runs
                    // take the `summary == 0` early-out and stay
                    // bit-identical to the pre-blocking traces.
                    if wake_summary != 0 {
                        view.waits().publish(wake_summary);
                    }
                    view.put_descriptor(tid, desc);
                    return value;
                }
                false
            }
            Err(e) => e == TxError::Retry,
        };

        // release_view on failure: roll back, book the attempt, decrease P
        // (paper release step 1). A retry() is booked under
        // AbortReason::Retry — a requested wait, not contention.
        if retry {
            assert!(
                entry != Entry::Union,
                "retry() in a cross-view (union-drained) transaction: \
                 blocking is not supported on the irrevocable path"
            );
            handle.set_abort_cause(AbortReason::Retry, ConflictSite::None);
        }
        if handle.ctx.is_direct() {
            // The irrevocable lock mode cannot roll anything back: it
            // cannot abort, and a retry there is only sound if the attempt
            // was effectively read-only.
            assert!(retry, "lock-mode (exclusive) sections cannot abort");
            assert!(
                handle.write_summary == 0 && handle.allocs.is_empty() && handle.frees.is_empty(),
                "retry() in an escalated (exclusive lock-mode) attempt \
                 requires a read-only body: irrevocable writes cannot be \
                 rolled back"
            );
        } else {
            handle.ctx.abort(view.tm());
        }
        handle.charge_pending().await;
        // The park key: the attempt's read set. An empty one (the body read
        // nothing before retrying) parks on every bucket — only *some*
        // commit can change its world.
        let key = match handle.read_summary {
            0 => u64::MAX,
            summary => summary,
        };
        handle.finish(false);
        cm_tx = handle.cm_tx;
        drop(handle);
        // Admission drops before the park or the loser's penalty, so the
        // freed slot can go to a would-be waker or the conflict's winner.
        drop(gate_guard);

        if retry {
            // Park instead of racing, deliberately skipping the contention
            // manager's attempt count and loser backoff, and the starvation
            // streak.
            trace(
                &rec,
                rt,
                EventKind::Park {
                    view: vid,
                    summary: key,
                },
            );
            let parked_at = rt.now();
            let park_outcome = view.waits().park(rt, key, begin_epoch, PARK_TIMEOUT).await;
            let waited = rt.now().saturating_sub(parked_at);
            view.hists().parked_wait.record(waited);
            view.tm().stats().record_parked_wait(rt.thread_index());
            match park_outcome {
                ParkOutcome::Woken | ParkOutcome::SkippedStale => {
                    trace(&rec, rt, EventKind::Wake { view: vid, waited });
                }
                ParkOutcome::TimedOut => {
                    // The wakeup never came (writer bug, or a workload
                    // where nothing ever commits here). Surface it on the
                    // trace and the counters, then fall back to an
                    // ordinary re-run; repeated timeouts bump the
                    // starvation streak so the watchdog escalates instead
                    // of the task hanging silently.
                    view.tm().stats().record_lost_wakeup(rt.thread_index());
                    trace(&rec, rt, EventKind::LostWakeup { view: vid, waited });
                    streak += 1;
                    view.tm()
                        .stats()
                        .record_abort_streak(rt.thread_index(), streak);
                }
            }
            last_abort_at = Some(rt.now());
            continue;
        }

        last_abort_at = Some(rt.now());
        if view.cm().active() {
            // Count the lost attempt and serve the loser's backoff penalty
            // *after* releasing admission — the CM ↔ quota interaction.
            cm_tx.attempts += 1;
            let penalty = std::mem::take(&mut cm_tx.loser_backoff);
            if penalty > 0 {
                rt.charge(penalty).await;
            }
        }

        streak += 1;
        view.tm()
            .stats()
            .record_abort_streak(rt.thread_index(), streak);
        // Loop back to reacquire admission and re-run the body.
    }
}
