//! Pluggable timestamp ("clock") sources for the STM algorithms.
//!
//! The paper names NOrec's single global seqlock as the memory-intensive
//! bottleneck that view partitioning works around, and Huang et al. (*The
//! Impact of Timestamp Granularity in Optimistic Concurrency Control*) show
//! that the granularity of the timestamp alone swings OCC throughput under
//! contention. This module makes that whole design axis switchable: every
//! TM instance owns one [`ClockSource`] whose [`ClockKind`] selects how
//! commit timestamps are acquired, bumped and snapshotted:
//!
//! * [`ClockKind::Global`] — the status-quo single counter (NOrec's
//!   sequence lock / the orec version clock). Bit-identical to the
//!   pre-clock-source code; CI enforces this against the benchmark
//!   baseline.
//! * [`ClockKind::Coarse`] — coarse-granularity timestamps after Huang et
//!   al.: orec commits reuse the current clock value (GV5-style — no
//!   fetch-add per commit, at the price of *false conflicts* when a commit
//!   that happened before a reader began shares the reader's epoch);
//!   NOrec coarsens its commit write-summary ring so one Bloom slot covers
//!   [`COARSE_COMMITS_PER_SLOT`] commits, quadrupling the filter window.
//! * [`ClockKind::CoarseSnzi`] — coarse timestamps fronted by an
//!   SNZI-style read indicator (Springer TM chapter): transactions mark
//!   arrival/departure on a padded counter and committers consult it to
//!   decide whether anyone is watching — the clock is bumped only when
//!   concurrent transactions exist to benefit, and skipped when solo.
//!
//! Only kinds with a winning gate row are kept (`clock_table.md`): coarse
//! wins OrecEagerRedo by +26 % and cuts NOrec's busy retries per commit
//! from 132 to 102; coarse-snzi wins NOrec by +3.7 %. Address-sharded and
//! epoch-batched clocks were tried and removed — neither won a row, and
//! the paper's own answer to the global-clock bottleneck is the per-view
//! cut, not sharding inside a view (DESIGN.md §14).
//!
//! The source also owns the per-clock statistics (bumps paid, bumps
//! skipped) surfaced through the gate's clock rows.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use votm_utils::CachePadded;

/// Commits per write-summary ring slot under [`ClockKind::Coarse`] /
/// [`ClockKind::CoarseSnzi`] NOrec (must be a power of two). Coarser slots
/// are denser filters (more false positives, each costing one value check)
/// but stretch the ring's reach by the same factor.
pub const COARSE_COMMITS_PER_SLOT: u64 = 4;

/// Which timestamp strategy a TM instance uses (selected per-system via
/// `VotmConfig`, like the contention-management policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockKind {
    /// Single global counter — the paper's baseline and the default.
    #[default]
    Global,
    /// Coarse-granularity timestamps (Huang et al.): share epochs, trade
    /// false conflicts for bump traffic.
    Coarse,
    /// Coarse timestamps fronted by an SNZI-style read indicator: bump
    /// only when concurrent transactions exist to observe it.
    CoarseSnzi,
}

impl ClockKind {
    /// Every clock kind, for parameterised tests, sweeps and gate rows.
    pub const ALL: [ClockKind; 3] = [ClockKind::Global, ClockKind::Coarse, ClockKind::CoarseSnzi];

    /// Stable display name (used in gate JSON rows and tables).
    pub fn name(self) -> &'static str {
        match self {
            ClockKind::Global => "global",
            ClockKind::Coarse => "coarse",
            ClockKind::CoarseSnzi => "coarse-snzi",
        }
    }

    /// True for the kind that maintains the read-indicator counter
    /// ([`ClockSource::enter`]/[`ClockSource::exit`] are no-ops otherwise).
    #[inline]
    pub(crate) fn tracks_active(self) -> bool {
        self == ClockKind::CoarseSnzi
    }

    /// True for the summary-coupled coarse kinds (Huang et al. granularity):
    /// they merge [`COARSE_COMMITS_PER_SLOT`] commits per ring slot and lean
    /// on published write summaries to *ride through* an in-flight NOrec
    /// writeback instead of spinning on the odd sequence lock.
    #[inline]
    pub(crate) fn coarse(self) -> bool {
        matches!(self, ClockKind::Coarse | ClockKind::CoarseSnzi)
    }
}

/// Point-in-time counters of one clock source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClockStats {
    /// Timestamp advances actually paid (CAS/fetch-add on a shared line).
    pub bumps: u64,
    /// Advances elided: solo-committer elisions (coarse-snzi) and GV5
    /// commits that reused the current epoch (coarse).
    pub bump_skips: u64,
}

/// One TM instance's timestamp source: the timestamp word, the
/// active-transaction indicator and the bump statistics.
///
/// The algorithms own the *semantics* (what a timestamp means for
/// validation); this struct owns the storage, the arrival/departure
/// indicator and the accounting, so all three algorithms report clock
/// behaviour uniformly.
pub struct ClockSource {
    kind: ClockKind,
    /// The timestamp word: NOrec's sequence lock or the orec version
    /// clock.
    primary: CachePadded<AtomicU64>,
    /// Active-transaction count / SNZI read indicator (`CoarseSnzi`).
    active: CachePadded<AtomicU64>,
    bumps: CachePadded<AtomicU64>,
    bump_skips: CachePadded<AtomicU64>,
}

impl ClockSource {
    /// A source of the given kind starting at timestamp 0.
    pub fn new(kind: ClockKind) -> Self {
        Self {
            kind,
            primary: CachePadded::new(AtomicU64::new(0)),
            active: CachePadded::new(AtomicU64::new(0)),
            bumps: CachePadded::new(AtomicU64::new(0)),
            bump_skips: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The strategy this source implements.
    #[inline]
    pub fn kind(&self) -> ClockKind {
        self.kind
    }

    /// The primary timestamp word (NOrec seqlock / orec version clock).
    #[inline]
    pub(crate) fn primary(&self) -> &AtomicU64 {
        &self.primary
    }

    /// Marks a transaction's arrival (active-count kinds only; free
    /// otherwise). `SeqCst`: the arrival is this side of the
    /// store-buffering handshake described at [`Self::solo`].
    #[inline]
    pub(crate) fn enter(&self) {
        if self.kind.tracks_active() {
            self.active.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Marks a transaction's departure (commit or abort).
    #[inline]
    pub(crate) fn exit(&self) {
        if self.kind.tracks_active() {
            let prev = self.active.fetch_sub(1, Ordering::AcqRel);
            debug_assert!(prev > 0, "clock exit without enter");
        }
    }

    /// True when the calling (active) transaction is the only one live on
    /// this instance. Only meaningful for active-count kinds, and only
    /// while the caller is itself counted.
    ///
    /// A committer asks this after stores that a transaction arriving
    /// unseen must observe: NOrec's writeback, the orec engine's write
    /// locks. That is store-buffering — each side stores, then loads what
    /// the other stored — and a store followed by a load may reorder (x86
    /// does), so the committer could read "solo" while an arrival that
    /// began after that read still loads pre-writeback values, which the
    /// elided clock bump then lets validate. The `SeqCst` fence here and
    /// the `SeqCst` arrival in [`Self::enter`] order both sides: either the
    /// committer sees the arrival or the arrival sees the stores.
    #[inline]
    pub(crate) fn solo(&self) -> bool {
        fence(Ordering::SeqCst);
        self.active.load(Ordering::Acquire) == 1
    }

    /// Records one paid timestamp advance.
    #[inline]
    pub(crate) fn note_bump(&self) {
        self.bumps.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one elided/avoided timestamp advance.
    #[inline]
    pub(crate) fn note_skip(&self) {
        self.bump_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ClockStats {
        ClockStats {
            bumps: self.bumps.load(Ordering::Relaxed),
            bump_skips: self.bump_skips.load(Ordering::Relaxed),
        }
    }

    /// Test hook: preloads the timestamp word with `t`, for wrap-around
    /// coverage.
    #[cfg(test)]
    pub(crate) fn preload(&self, t: u64) {
        self.primary.store(t, Ordering::Release);
    }
}

impl std::fmt::Debug for ClockSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClockSource")
            .field("kind", &self.kind)
            .field("primary", &self.primary.load(Ordering::Relaxed))
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        // Gate rows are keyed by clock name: each name must lead back to
        // exactly its own kind.
        for kind in ClockKind::ALL {
            let back: Vec<_> = ClockKind::ALL
                .into_iter()
                .filter(|k| k.name() == kind.name())
                .collect();
            assert_eq!(back, [kind], "{} names more than one kind", kind.name());
        }
    }

    #[test]
    fn default_is_global() {
        assert_eq!(ClockKind::default(), ClockKind::Global);
    }

    #[test]
    fn enter_exit_tracks_only_active_kinds() {
        let snzi = ClockSource::new(ClockKind::CoarseSnzi);
        snzi.enter();
        assert!(snzi.solo());
        snzi.enter();
        assert!(!snzi.solo());
        snzi.exit();
        snzi.exit();

        let global = ClockSource::new(ClockKind::Global);
        global.enter();
        assert_eq!(global.active.load(Ordering::Relaxed), 0, "global: no-op");
    }
}
