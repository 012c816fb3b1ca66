//! Pluggable timestamp ("clock") sources for the STM algorithms.
//!
//! The paper names NOrec's single global seqlock as the memory-intensive
//! bottleneck that view partitioning works around, and Huang et al. (*The
//! Impact of Timestamp Granularity in Optimistic Concurrency Control*) show
//! that the granularity of the timestamp alone swings OCC throughput under
//! contention. Every TM instance owns one [`ClockSource`]: the timestamp
//! word and its bump count. A [`ClockKind`] selects how NOrec uses it:
//!
//! * [`ClockKind::Global`] — the status-quo single counter (NOrec's
//!   sequence lock / the orec version clock). Bit-identical to the
//!   pre-clock-source code; CI enforces this against the benchmark
//!   baseline.
//! * [`ClockKind::Coarse`] — coarse-granularity timestamps after Huang et
//!   al., applied to NOrec's commit write-summary ring: one Bloom slot
//!   covers [`COARSE_COMMITS_PER_SLOT`] commits, quadrupling the filter
//!   window, and readers ride through a writeback that provably misses
//!   their address.
//!
//! The kind is NOrec's alone ([`crate::TmAlgorithm::runs_coarse_clock`]):
//! the orec engine always takes one fetch-add per writer commit, whatever
//! kind it is given. A kind is kept only if it wins a comparison row over
//! ten seeds (DESIGN.md §13–14): coarse wins single-view NOrec at N = 16 by
//! +3.3 % on all ten. Its orec translation, an SNZI-fronted coarse clock,
//! address-sharded and epoch-batched clocks were tried and removed — none
//! won a row, and the paper's own answer to the global-clock bottleneck is
//! the per-view cut, not sharding inside a view.

use std::sync::atomic::{AtomicU64, Ordering};

use votm_utils::CachePadded;

/// Commits per write-summary ring slot under [`ClockKind::Coarse`] NOrec
/// (must be a power of two). Coarser slots are denser filters (more false
/// positives, each costing one value check) but stretch the ring's reach
/// by the same factor.
pub const COARSE_COMMITS_PER_SLOT: u64 = 4;

/// Which timestamp strategy a TM instance uses (selected per-system via
/// `VotmConfig`, like the contention-management policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockKind {
    /// Single global counter — the paper's baseline and the default.
    #[default]
    Global,
    /// Coarse-granularity timestamps (Huang et al.) on NOrec's summary
    /// ring: a wider filter window for denser filters. The orec engine
    /// runs it as `Global`.
    Coarse,
}

impl ClockKind {
    /// Every clock kind, for parameterised tests, sweeps and gate rows.
    pub const ALL: [ClockKind; 2] = [ClockKind::Global, ClockKind::Coarse];

    /// Stable display name (used in gate JSON rows and tables).
    pub fn name(self) -> &'static str {
        match self {
            ClockKind::Global => "global",
            ClockKind::Coarse => "coarse",
        }
    }
}

/// Point-in-time counters of one clock source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClockStats {
    /// Timestamp advances actually paid (CAS/fetch-add on a shared line).
    pub bumps: u64,
    /// Always 0: no clock elides an advance. It stays only because the
    /// repository benchmark reads it (`stm.clock_bump_skips`), and goes once
    /// a benchmark change drops that metric.
    pub bump_skips: u64,
}

/// One TM instance's timestamp source: the timestamp word and the bump
/// count.
///
/// The algorithms own the *semantics* (what a timestamp means for
/// validation); this struct owns the storage and the accounting, so all
/// three algorithms report clock behaviour uniformly. The default source
/// starts at timestamp 0.
#[derive(Default)]
pub struct ClockSource {
    /// The timestamp word: NOrec's sequence lock or the orec version
    /// clock.
    primary: CachePadded<AtomicU64>,
    bumps: CachePadded<AtomicU64>,
}

impl ClockSource {
    /// The primary timestamp word (NOrec seqlock / orec version clock).
    #[inline]
    pub(crate) fn primary(&self) -> &AtomicU64 {
        &self.primary
    }

    /// Records one paid timestamp advance.
    #[inline]
    pub(crate) fn note_bump(&self) {
        self.bumps.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ClockStats {
        ClockStats {
            bumps: self.bumps.load(Ordering::Relaxed),
            bump_skips: 0,
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
}
