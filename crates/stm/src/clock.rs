//! Timestamp ("clock") kinds and the clock statistics every engine reports.
//!
//! The paper names NOrec's single global seqlock as the memory-intensive
//! bottleneck that view partitioning works around, and Huang et al. (*The
//! Impact of Timestamp Granularity in Optimistic Concurrency Control*) show
//! that the granularity of the timestamp alone swings OCC throughput under
//! contention. Each engine owns its timestamp word — NOrec's sequence lock,
//! the orec engine's version clock — and [`ClockStats`] is read off that
//! word. A [`ClockKind`] selects how NOrec uses it:
//!
//! * [`ClockKind::Global`] — the status-quo single counter (NOrec's
//!   sequence lock / the orec version clock). CI holds every default-clock
//!   gate row bit-identical to the previous artifact.
//! * [`ClockKind::Coarse`] — coarse-granularity timestamps after Huang et
//!   al., applied to NOrec's commit write-summary ring: one Bloom slot
//!   covers four commits, quadrupling the filter window, and readers ride
//!   through a writeback that provably misses their address.
//!
//! The kind is NOrec's alone ([`crate::TmAlgorithm::runs_coarse_clock`]):
//! the orec engine always takes one fetch-add per writer commit, whatever
//! kind it is given. A kind is kept only if it wins a comparison row over
//! ten seeds (DESIGN.md §13–14): coarse wins single-view NOrec at N = 16 by
//! +3.3 % on all ten. Its orec translation, an SNZI-fronted coarse clock,
//! address-sharded and epoch-batched clocks were tried and removed — none
//! won a row, and the paper's own answer to the global-clock bottleneck is
//! the per-view cut, not sharding inside a view.

/// Which timestamp strategy a TM instance uses (selected per-system via
/// `VotmBuilder::clock`, like the contention-management policy).
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

/// Point-in-time counters of one engine's timestamp word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClockStats {
    /// Timestamp advances paid on the shared word, read off the word
    /// itself: the orec version clock's value (one tick per writer commit
    /// that reached its stamp, validated or not), or half NOrec's sequence
    /// lock (one seqlock CAS per finished writer commit; a commit still in
    /// flight is not yet counted).
    pub bumps: u64,
    /// Always 0: no clock elides an advance. It stays only because the
    /// repository benchmark reads it (`stm.clock_bump_skips`), and goes once
    /// a benchmark change drops that metric.
    pub bump_skips: u64,
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
