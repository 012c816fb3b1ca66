//! Per-TM-instance statistics — exactly the quantities in the paper's
//! tables: #tx, #abort, CPU cycles in aborted and successful transactions.
//!
//! Counters are *striped*: each recording thread hashes to one of
//! [`STAT_STRIPES`] cache-padded counter blocks, so commit/abort bumps from
//! different threads land on different cache lines instead of ping-ponging
//! one shared line (the false-sharing hot spot Huang et al. identify for
//! centralized OCC metadata). [`TmStats::snapshot`] folds the stripes back
//! into the single [`StatsSnapshot`] the tables and the δ(Q) estimator
//! consume.

use std::sync::atomic::{AtomicU64, Ordering};

use votm_obs::AbortReason;
use votm_utils::CachePadded;

/// Number of counter stripes. A power of two so thread indices fold with a
/// mask; 16 stripes × 128-byte padding keeps the whole table at 2 KiB per
/// instance while covering the thread counts the paper sweeps (≤ 16).
pub const STAT_STRIPES: usize = 16;

/// One stripe: the full counter block, alone on its cache line(s).
#[derive(Debug, Default)]
struct Stripe {
    commits: AtomicU64,
    aborts: AtomicU64,
    aborts_by_reason: [AtomicU64; AbortReason::COUNT],
    cycles_aborted: AtomicU64,
    cycles_aborted_by_reason: [AtomicU64; AbortReason::COUNT],
    cycles_successful: AtomicU64,
    busy_retries: AtomicU64,
    gate_wait_cycles: AtomicU64,
    max_abort_streak: AtomicU64,
    escalations: AtomicU64,
    parked_waits: AtomicU64,
    lost_wakeups: AtomicU64,
}

/// Shared counters for one TM instance (one view).
///
/// Updated with relaxed atomics on commit/abort boundaries; the counts feed
/// both the reported tables and the RAC δ(Q) estimator (Eq. 5):
///
/// ```text
/// δ(Q) = cycles_aborted_tx / (cycles_successful_tx · (Q − 1))
/// ```
///
/// Every `record_*` method takes the recording thread's index (`tid`); it is
/// folded into a stripe index with a mask, so any `usize` is acceptable.
#[derive(Debug)]
pub struct TmStats {
    stripes: [CachePadded<Stripe>; STAT_STRIPES],
}

impl Default for TmStats {
    fn default() -> Self {
        Self {
            stripes: std::array::from_fn(|_| CachePadded::new(Stripe::default())),
        }
    }
}

impl TmStats {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn stripe(&self, tid: usize) -> &Stripe {
        &self.stripes[tid & (STAT_STRIPES - 1)]
    }

    /// Records one committed transaction that consumed `cycles`.
    #[inline]
    pub fn record_commit(&self, tid: usize, cycles: u64) {
        let s = self.stripe(tid);
        s.commits.fetch_add(1, Ordering::Relaxed);
        s.cycles_successful.fetch_add(cycles, Ordering::Relaxed);
    }

    /// Records one aborted attempt that wasted `cycles`, attributed to its
    /// structured [`AbortReason`].
    #[inline]
    pub fn record_abort(&self, tid: usize, cycles: u64, reason: AbortReason) {
        let s = self.stripe(tid);
        s.aborts.fetch_add(1, Ordering::Relaxed);
        s.aborts_by_reason[reason.index()].fetch_add(1, Ordering::Relaxed);
        s.cycles_aborted.fetch_add(cycles, Ordering::Relaxed);
        s.cycles_aborted_by_reason[reason.index()].fetch_add(cycles, Ordering::Relaxed);
    }

    /// Records a `Busy` retry (seqlock held, lost CAS race).
    #[inline]
    pub fn record_busy(&self, tid: usize) {
        self.stripe(tid)
            .busy_retries
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records cycles a thread spent blocked at the admission gate — the
    /// direct cost RAC pays to buy fewer aborts.
    #[inline]
    pub fn record_gate_wait(&self, tid: usize, cycles: u64) {
        self.stripe(tid)
            .gate_wait_cycles
            .fetch_add(cycles, Ordering::Relaxed);
    }

    /// Records one transaction's consecutive-abort streak (the starvation
    /// watchdog's signal): keeps the high-water mark across the instance.
    #[inline]
    pub fn record_abort_streak(&self, tid: usize, streak: u64) {
        self.stripe(tid)
            .max_abort_streak
            .fetch_max(streak, Ordering::Relaxed);
    }

    /// Records one max-retry escalation (a starving transaction was granted
    /// exclusive admission).
    #[inline]
    pub fn record_escalation(&self, tid: usize) {
        self.stripe(tid).escalations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed park on the wakeup table (a `retry()` wait
    /// that ended in a wake or a timeout).
    #[inline]
    pub fn record_parked_wait(&self, tid: usize) {
        self.stripe(tid)
            .parked_waits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one park that timed out without a matching wake (a lost or
    /// never-coming wakeup; the transaction re-ran instead of hanging).
    #[inline]
    pub fn record_lost_wakeup(&self, tid: usize) {
        self.stripe(tid)
            .lost_wakeups
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent-enough snapshot for reporting: sums (or maxes, for the
    /// high-water marks) across stripes. Individual counters are exact;
    /// cross-counter skew is bounded by one in-flight transaction.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut out = StatsSnapshot::default();
        for s in &self.stripes {
            out.commits += s.commits.load(Ordering::Relaxed);
            out.aborts += s.aborts.load(Ordering::Relaxed);
            for (acc, c) in out
                .aborts_by_reason
                .iter_mut()
                .zip(s.aborts_by_reason.iter())
            {
                *acc += c.load(Ordering::Relaxed);
            }
            out.cycles_aborted += s.cycles_aborted.load(Ordering::Relaxed);
            for (acc, c) in out
                .cycles_aborted_by_reason
                .iter_mut()
                .zip(s.cycles_aborted_by_reason.iter())
            {
                *acc += c.load(Ordering::Relaxed);
            }
            out.cycles_successful += s.cycles_successful.load(Ordering::Relaxed);
            out.busy_retries += s.busy_retries.load(Ordering::Relaxed);
            out.gate_wait_cycles += s.gate_wait_cycles.load(Ordering::Relaxed);
            out.max_abort_streak = out
                .max_abort_streak
                .max(s.max_abort_streak.load(Ordering::Relaxed));
            out.escalations += s.escalations.load(Ordering::Relaxed);
            out.parked_waits += s.parked_waits.load(Ordering::Relaxed);
            out.lost_wakeups += s.lost_wakeups.load(Ordering::Relaxed);
        }
        out
    }
}

/// Point-in-time copy of [`TmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Committed transactions ("#tx" in the paper's tables).
    pub commits: u64,
    /// Aborted attempts ("#abort").
    pub aborts: u64,
    /// `aborts` broken down by [`AbortReason`], indexed by
    /// [`AbortReason::index`]. The components always sum to `aborts`.
    pub aborts_by_reason: [u64; AbortReason::COUNT],
    /// Cycles spent in ultimately-aborted attempts.
    pub cycles_aborted: u64,
    /// `cycles_aborted` broken down by [`AbortReason`] — the wasted-work
    /// ledger. The components always sum exactly to `cycles_aborted`
    /// (every abort is booked once, with one reason).
    pub cycles_aborted_by_reason: [u64; AbortReason::COUNT],
    /// Cycles spent in committed attempts.
    pub cycles_successful: u64,
    /// Busy-wait retries (not an abort; diagnostic only).
    pub busy_retries: u64,
    /// Cycles threads spent blocked at the admission gate.
    pub gate_wait_cycles: u64,
    /// Longest run of consecutive aborts any single transaction suffered —
    /// the starvation watchdog's signal. A high-water mark, not a sum.
    pub max_abort_streak: u64,
    /// Max-retry escalations: times a starving transaction was granted
    /// exclusive admission after exhausting its abort budget.
    pub escalations: u64,
    /// Completed parks on the wakeup table: `retry()` waits that ended in
    /// a wake or a timeout. The blocking counterpart of `busy_retries`.
    pub parked_waits: u64,
    /// Parks that timed out without a matching wake.
    pub lost_wakeups: u64,
}

impl StatsSnapshot {
    /// The paper's δ(Q) estimate (Eq. 5). `None` when Q ≤ 1 (the paper
    /// reports "N/A": with one thread admitted there is no concurrency to
    /// restrict) or when no successful cycles have accrued yet.
    pub fn delta(&self, quota: u32) -> Option<f64> {
        if quota <= 1 || self.cycles_successful == 0 {
            return None;
        }
        Some(self.cycles_aborted as f64 / (self.cycles_successful as f64 * f64::from(quota - 1)))
    }

    /// The wasted-work fraction `wasted / (useful + wasted)` after Sharma &
    /// Busch's makespan decomposition. 0.0 when no cycles have accrued.
    pub fn waste_frac(&self) -> f64 {
        let total = self.cycles_aborted + self.cycles_successful;
        if total == 0 {
            0.0
        } else {
            self.cycles_aborted as f64 / total as f64
        }
    }

    /// Difference `self − earlier`, for windowed estimation. High-water
    /// marks (`max_abort_streak`) are carried over, not subtracted.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            commits: self.commits - earlier.commits,
            aborts: self.aborts - earlier.aborts,
            aborts_by_reason: std::array::from_fn(|i| {
                self.aborts_by_reason[i] - earlier.aborts_by_reason[i]
            }),
            cycles_aborted: self.cycles_aborted - earlier.cycles_aborted,
            cycles_aborted_by_reason: std::array::from_fn(|i| {
                self.cycles_aborted_by_reason[i] - earlier.cycles_aborted_by_reason[i]
            }),
            cycles_successful: self.cycles_successful - earlier.cycles_successful,
            busy_retries: self.busy_retries - earlier.busy_retries,
            gate_wait_cycles: self.gate_wait_cycles - earlier.gate_wait_cycles,
            max_abort_streak: self.max_abort_streak,
            escalations: self.escalations - earlier.escalations,
            parked_waits: self.parked_waits - earlier.parked_waits,
            lost_wakeups: self.lost_wakeups - earlier.lost_wakeups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_abort_accounting() {
        let s = TmStats::new();
        s.record_commit(0, 100);
        s.record_commit(0, 50);
        s.record_abort(0, 30, AbortReason::NorecValidation);
        s.record_abort(3, 12, AbortReason::CmKilled);
        let snap = s.snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.aborts, 2);
        assert_eq!(snap.cycles_successful, 150);
        assert_eq!(snap.cycles_aborted, 42);
        // Wasted-work ledger: per-reason cycles sum exactly to the total.
        let by = snap.cycles_aborted_by_reason;
        assert_eq!(by[AbortReason::NorecValidation.index()], 30);
        assert_eq!(by[AbortReason::CmKilled.index()], 12);
        assert_eq!(
            snap.cycles_aborted_by_reason.iter().sum::<u64>(),
            snap.cycles_aborted
        );
        assert!((snap.waste_frac() - 42.0 / 192.0).abs() < 1e-12);
    }

    #[test]
    fn stripes_aggregate_across_thread_indices() {
        let s = TmStats::new();
        // One commit from every stripe, plus indices past the stripe count
        // (they must fold with the mask, not panic or get dropped).
        for tid in 0..STAT_STRIPES * 3 {
            s.record_commit(tid, 10);
        }
        s.record_abort(7, 5, AbortReason::OrecConflict);
        s.record_abort(7 + STAT_STRIPES, 5, AbortReason::Explicit);
        s.record_busy(31);
        s.record_gate_wait(64, 40);
        let snap = s.snapshot();
        assert_eq!(snap.commits, (STAT_STRIPES * 3) as u64);
        assert_eq!(snap.cycles_successful, (STAT_STRIPES * 3) as u64 * 10);
        assert_eq!(snap.aborts, 2);
        assert_eq!(snap.cycles_aborted, 10);
        assert_eq!(snap.busy_retries, 1);
        assert_eq!(snap.gate_wait_cycles, 40);
    }

    #[test]
    fn delta_matches_equation_five() {
        let snap = StatsSnapshot {
            commits: 10,
            aborts: 5,
            cycles_aborted: 300,
            cycles_successful: 100,
            ..Default::default()
        };
        // delta(Q=4) = 300 / (100 * 3) = 1.0
        assert!((snap.delta(4).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(snap.delta(1), None, "Q=1 has no delta (paper: N/A)");
        let empty = StatsSnapshot::default();
        assert_eq!(empty.delta(4), None);
    }

    #[test]
    fn abort_streak_is_a_cross_stripe_high_water_mark() {
        let s = TmStats::new();
        s.record_abort_streak(0, 3);
        s.record_abort_streak(5, 7); // different stripe
        s.record_abort_streak(2, 5);
        s.record_escalation(1);
        let snap = s.snapshot();
        assert_eq!(snap.max_abort_streak, 7, "max must span stripes");
        assert_eq!(snap.escalations, 1);
        // since() keeps the high-water mark rather than subtracting it.
        let d = s.snapshot().since(&snap);
        assert_eq!(d.max_abort_streak, 7);
        assert_eq!(d.escalations, 0);
    }

    #[test]
    fn windowed_difference() {
        let s = TmStats::new();
        s.record_commit(0, 10);
        let w0 = s.snapshot();
        s.record_commit(1, 20);
        s.record_abort(2, 5, AbortReason::WriteLockBusy);
        let w1 = s.snapshot();
        let d = w1.since(&w0);
        assert_eq!(d.commits, 1);
        assert_eq!(d.aborts, 1);
        assert_eq!(d.cycles_successful, 20);
        assert_eq!(d.cycles_aborted, 5);
    }
}
