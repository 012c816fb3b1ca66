//! A TM *instance*: one heap + one algorithm's global metadata + stats.
//!
//! In VOTM every view is exactly one `TmInstance` — "each view is
//! essentially an independent TM system" (paper §II-B) with its own global
//! clock, which is what reduces NOrec metadata contention when data is
//! partitioned.
//!
//! [`TxCtx`] is the per-thread execution context: one polled
//! read/write/commit interface over the engines behind it — NOrec, the orec
//! engine (OrecEagerRedo and OrecLazy, one descriptor told apart by when it
//! takes its write orecs) and the Q = 1 direct mode. The engines are private
//! to this crate; the layers above see only `TxCtx`.

use std::sync::Arc;

use votm_obs::AbortReason;

use crate::clock::{ClockKind, ClockStats};
use crate::direct::DirectCtx;
use crate::heap::{Addr, WordHeap};
use crate::norec::{NOrecGlobal, NOrecTx};
use crate::orec::{Acquire, OrecGlobal, OrecTx};
use crate::stats::TmStats;
use crate::{CommitPhase, ConflictSite, OpResult};

/// Which STM algorithm a TM instance runs: the paper's two RSTM plug-ins
/// (NOrec and OrecEagerRedo) plus OrecLazy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TmAlgorithm {
    /// Commit-time locking, global sequence lock, value-based validation.
    NOrec,
    /// Encounter-time locking, ownership records, redo log.
    OrecEagerRedo,
    /// Commit-time locking over ownership records (TL2-style) — an
    /// implemented extension beyond the paper's two evaluated plug-ins,
    /// giving the per-view adaptive-TM direction (§IV-C) a third choice.
    OrecLazy,
}

impl TmAlgorithm {
    /// All algorithms, for parameterised tests and benches.
    pub const ALL: [TmAlgorithm; 3] = [
        TmAlgorithm::NOrec,
        TmAlgorithm::OrecEagerRedo,
        TmAlgorithm::OrecLazy,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            TmAlgorithm::NOrec => "NOrec",
            TmAlgorithm::OrecEagerRedo => "OrecEagerRedo",
            TmAlgorithm::OrecLazy => "OrecLazy",
        }
    }

    /// Whether the algorithm's lock words name their holder, i.e. whether
    /// [`TxCtx::conflict_enemy`] can ever be `Some`. The orec pair packs
    /// the owner into the locked ownership record; NOrec's readers are
    /// invisible and its one sequence lock is anonymous, so a pairwise
    /// contention-management policy has nobody to rank there ("there is no
    /// way for a writer to defer to a reader it cannot see" — Scott).
    pub fn names_lock_holder(self) -> bool {
        match self {
            TmAlgorithm::NOrec => false,
            TmAlgorithm::OrecEagerRedo | TmAlgorithm::OrecLazy => true,
        }
    }

    /// Whether the algorithm runs the [`ClockKind`] it is given. Only
    /// NOrec does: [`ClockKind::Coarse`] widens its commit write-summary
    /// ring and lets its readers ride through a writeback. The orec engine
    /// always takes one fetch-add per writer commit, whatever the kind —
    /// its coarse translation won no comparison row (DESIGN.md §14).
    pub fn runs_coarse_clock(self) -> bool {
        match self {
            TmAlgorithm::NOrec => true,
            TmAlgorithm::OrecEagerRedo | TmAlgorithm::OrecLazy => false,
        }
    }
}

enum Globals {
    NOrec(NOrecGlobal),
    Orec(OrecGlobal),
}

/// One independent TM system (heap + metadata + statistics).
///
/// The heap is held through an `Arc` so several instances can run
/// independent metadata domains (clock, orecs, write-summary ring) over
/// *one* word array — the substrate for online repartitioning, where a
/// view split must migrate bucket ownership without copying data. The
/// serializability obligation moves to the router: an address must only
/// ever be accessed through the instance that currently owns its bucket.
pub struct TmInstance {
    heap: Arc<WordHeap>,
    globals: Globals,
    stats: TmStats,
    algo: TmAlgorithm,
}

impl TmInstance {
    /// Creates an instance with `size_words` of heap running `algo` on the
    /// [`ClockKind::Global`] clock.
    pub fn new(algo: TmAlgorithm, size_words: usize) -> Self {
        Self::over_heap(algo, Arc::new(WordHeap::new(size_words)), ClockKind::Global)
    }

    /// Creates an instance with fresh algorithm metadata (clock, orecs,
    /// write-summary ring) over an *existing* heap. This is the split
    /// primitive: the new view's metadata domain starts empty while the
    /// data stays in place. The caller must guarantee disjoint routing —
    /// no address may be accessed through two instances concurrently.
    /// `clock` applies only where [`TmAlgorithm::runs_coarse_clock`] holds.
    pub fn over_heap(algo: TmAlgorithm, heap: Arc<WordHeap>, clock: ClockKind) -> Self {
        let globals = match algo {
            TmAlgorithm::NOrec => Globals::NOrec(NOrecGlobal::with_kind(clock)),
            TmAlgorithm::OrecEagerRedo | TmAlgorithm::OrecLazy => Globals::Orec(OrecGlobal::new()),
        };
        Self {
            heap,
            globals,
            stats: TmStats::new(),
            algo,
        }
    }

    /// The instance's heap (allocation, direct inspection in tests).
    pub fn heap(&self) -> &WordHeap {
        &self.heap
    }

    /// The algorithm this instance runs.
    pub fn algorithm(&self) -> TmAlgorithm {
        self.algo
    }

    /// Commit/abort/cycle counters.
    pub fn stats(&self) -> &TmStats {
        &self.stats
    }

    /// Clock counters, read off the engine's timestamp word: the orec
    /// version clock's value, or half NOrec's sequence lock (see
    /// [`ClockStats::bumps`]). A fresh metadata domain starts at 0, whatever
    /// its heap has seen.
    pub fn clock_stats(&self) -> ClockStats {
        let bumps = match &self.globals {
            Globals::NOrec(g) => g.bumps(),
            Globals::Orec(g) => g.bumps(),
        };
        ClockStats {
            bumps,
            bump_skips: 0,
        }
    }

    /// Creates a per-thread transactional context for this instance.
    pub fn tx_ctx(&self, thread_index: usize) -> TxCtx {
        let mode = match self.algo {
            TmAlgorithm::NOrec => Mode::NOrec(NOrecTx::new()),
            TmAlgorithm::OrecEagerRedo => Mode::Orec(OrecTx::new(thread_index, Acquire::Encounter)),
            TmAlgorithm::OrecLazy => Mode::Orec(OrecTx::new(thread_index, Acquire::Commit)),
        };
        TxCtx { mode }
    }

    /// Creates a per-thread *direct* (lock-mode) context; only safe to run
    /// under an exclusive admission.
    pub fn direct_ctx(&self) -> TxCtx {
        TxCtx {
            mode: Mode::Direct(DirectCtx::new()),
        }
    }
}

impl std::fmt::Debug for TmInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TmInstance")
            .field("algo", &self.algo)
            .field("heap", &self.heap)
            .finish()
    }
}

#[derive(Debug)]
enum Mode {
    NOrec(NOrecTx),
    Orec(OrecTx),
    Direct(DirectCtx),
}

/// Per-thread transaction context over a [`TmInstance`].
///
/// All operations are polled: `Err(Busy)` means "retry the same call after
/// letting time pass", `Err(Conflict)` means "call [`TxCtx::abort`] and
/// restart the attempt".
#[derive(Debug)]
pub struct TxCtx {
    mode: Mode,
}

impl TxCtx {
    /// Starts an attempt.
    pub fn begin(&mut self, inst: &TmInstance) -> OpResult<()> {
        match (&mut self.mode, &inst.globals) {
            (Mode::NOrec(tx), Globals::NOrec(g)) => tx.begin(g),
            (Mode::Orec(tx), Globals::Orec(g)) => tx.begin(g),
            (Mode::Direct(tx), _) => tx.begin(),
            _ => panic!("TxCtx used with a different TmInstance's algorithm"),
        }
    }

    /// Transactional read.
    #[inline]
    pub fn read(&mut self, inst: &TmInstance, addr: Addr) -> OpResult<u64> {
        match (&mut self.mode, &inst.globals) {
            (Mode::NOrec(tx), Globals::NOrec(g)) => tx.read(g, &inst.heap, addr),
            (Mode::Orec(tx), Globals::Orec(g)) => tx.read(g, &inst.heap, addr),
            (Mode::Direct(tx), _) => tx.read(&inst.heap, addr),
            _ => panic!("TxCtx used with a different TmInstance's algorithm"),
        }
    }

    /// Transactional write.
    #[inline]
    pub fn write(&mut self, inst: &TmInstance, addr: Addr, value: u64) -> OpResult<()> {
        match (&mut self.mode, &inst.globals) {
            (Mode::NOrec(tx), Globals::NOrec(_)) => tx.write(addr, value),
            (Mode::Orec(tx), Globals::Orec(g)) => tx.write(g, addr, value),
            (Mode::Direct(tx), _) => tx.write(&inst.heap, addr, value),
            _ => panic!("TxCtx used with a different TmInstance's algorithm"),
        }
    }

    /// First commit phase (see [`CommitPhase`]).
    pub fn commit_begin(&mut self, inst: &TmInstance) -> OpResult<CommitPhase> {
        match (&mut self.mode, &inst.globals) {
            (Mode::NOrec(tx), Globals::NOrec(g)) => tx.commit_begin(g, &inst.heap),
            (Mode::Orec(tx), Globals::Orec(g)) => tx.commit_begin(g, &inst.heap),
            (Mode::Direct(tx), _) => tx.commit_begin(),
            _ => panic!("TxCtx used with a different TmInstance's algorithm"),
        }
    }

    /// Second commit phase after `NeedsFinish`.
    pub fn commit_finish(&mut self, inst: &TmInstance) {
        match (&mut self.mode, &inst.globals) {
            (Mode::NOrec(tx), Globals::NOrec(g)) => tx.commit_finish(g),
            (Mode::Orec(tx), Globals::Orec(g)) => tx.commit_finish(g),
            (Mode::Direct(_), _) => unreachable!("direct mode never NeedsFinish"),
            _ => panic!("TxCtx used with a different TmInstance's algorithm"),
        }
    }

    /// Rolls back the attempt after a `Conflict`.
    pub fn abort(&mut self, inst: &TmInstance) {
        match (&mut self.mode, &inst.globals) {
            (Mode::NOrec(tx), Globals::NOrec(_)) => tx.abort(),
            (Mode::Orec(tx), Globals::Orec(g)) => tx.abort(g),
            (Mode::Direct(_), _) => panic!("direct mode cannot abort"),
            _ => panic!("TxCtx used with a different TmInstance's algorithm"),
        }
    }

    /// Drains accumulated work units (virtual cycles).
    #[inline]
    pub fn take_work(&mut self) -> u64 {
        match &mut self.mode {
            Mode::NOrec(tx) => tx.take_work(),
            Mode::Orec(tx) => tx.take_work(),
            Mode::Direct(tx) => tx.take_work(),
        }
    }

    /// True for the uninstrumented Q = 1 mode.
    pub fn is_direct(&self) -> bool {
        matches!(self.mode, Mode::Direct(_))
    }

    /// Bloom summary (one bit per [`crate::bloom_bucket`]) of the current
    /// attempt's buffered write set — the wakeup key this attempt's commit
    /// publishes to the view's wait table. Zero iff the attempt has written
    /// nothing. Direct mode reports zero: its writes hit the heap in place
    /// and the caller tracks them per address instead.
    pub fn write_summary(&self) -> u64 {
        match &self.mode {
            Mode::NOrec(tx) => tx.write_summary(),
            Mode::Orec(tx) => tx.write_summary(),
            Mode::Direct(_) => 0,
        }
    }

    /// The structured cause of the most recent `Err(Conflict)` this context
    /// returned — the algorithm's own attribution (orec conflict, NOrec
    /// revalidation failure). Only meaningful between that error and the
    /// next `begin`; direct contexts never conflict and report `Explicit`.
    pub fn conflict_reason(&self) -> AbortReason {
        match &self.mode {
            Mode::NOrec(tx) => tx.conflict_reason(),
            Mode::Orec(tx) => tx.conflict_reason(),
            Mode::Direct(_) => AbortReason::Explicit,
        }
    }

    /// Thread index of the lock holder behind the most recent `Err(Busy)`
    /// or `Err(Conflict)`, when the algorithm's metadata names one (orec
    /// lock words carry the owner's identity). `None` for NOrec — value
    /// validation never learns who overwrote the snapshot — for anonymous
    /// conflicts (version advance, lost CAS races) and for direct mode.
    /// Only meaningful between that error and the next operation; this is
    /// the identity the contention manager's priority policies act on.
    pub fn conflict_enemy(&self) -> Option<usize> {
        match &self.mode {
            Mode::NOrec(_) | Mode::Direct(_) => None,
            Mode::Orec(tx) => tx.conflict_enemy(),
        }
    }

    /// Where the most recent `Err(Conflict)` was detected: the failing
    /// address (plus Bloom-summary bucket for NOrec) or ownership-record
    /// index, as plain `Copy` data. [`ConflictSite::None`] for direct mode
    /// and for conflicts with no location. Only meaningful between that
    /// error and the next `begin`.
    pub fn conflict_site(&self) -> ConflictSite {
        match &self.mode {
            Mode::NOrec(tx) => tx.conflict_site(),
            Mode::Orec(tx) => tx.conflict_site(),
            Mode::Direct(_) => ConflictSite::None,
        }
    }

    /// True while an attempt is live (begun and neither committed nor
    /// aborted). Direct contexts report `false`: lock-mode sections hold no
    /// transactional state to roll back.
    pub fn is_active(&self) -> bool {
        match &self.mode {
            Mode::NOrec(tx) => tx.is_active(),
            Mode::Orec(tx) => tx.is_active(),
            Mode::Direct(_) => false,
        }
    }

    /// True when the context holds nothing of any attempt — transactional,
    /// not live, not mid-commit — so its next [`TxCtx::begin`] behaves
    /// exactly like a fresh [`TmInstance::tx_ctx`]'s, only with the read
    /// set, write set and lock list keeping the capacity they grew to.
    /// This is the condition under which a caller may keep a context for a
    /// later transaction of the same thread on the same instance; a context
    /// that fails it (abandoned by an unwind, or direct) must be dropped.
    pub fn is_idle(&self) -> bool {
        !self.is_direct() && !self.is_active() && !self.mid_commit()
    }

    /// True in the window between a `NeedsFinish` from
    /// [`TxCtx::commit_begin`] and the matching [`TxCtx::commit_finish`].
    ///
    /// In this window the writeback has already reached the heap while
    /// commit metadata (NOrec's seqlock / orec locks) is still held, so an
    /// unwind must *finish* the commit rather than abort it — see the
    /// drop guard in the `votm` crate's transaction driver.
    pub fn mid_commit(&self) -> bool {
        match &self.mode {
            Mode::NOrec(tx) => tx.mid_commit(),
            Mode::Orec(tx) => tx.mid_commit(),
            Mode::Direct(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_ctx_reports_direct() {
        let inst = TmInstance::new(TmAlgorithm::NOrec, 8);
        assert!(inst.direct_ctx().is_direct());
        assert!(!inst.tx_ctx(0).is_direct());
    }

    #[test]
    #[should_panic(expected = "different TmInstance")]
    fn mismatched_ctx_panics() {
        let a = TmInstance::new(TmAlgorithm::NOrec, 8);
        let b = TmInstance::new(TmAlgorithm::OrecEagerRedo, 8);
        let mut ctx = a.tx_ctx(0);
        let _ = ctx.begin(&b);
    }
}
