//! The adaptive quota controller (paper Observation 1, Eq. 5).
//!
//! After every completed transaction attempt the owning view calls
//! [`RacController::on_tx_end`]. Once a window's worth of attempts has
//! accumulated, the controller computes the windowed
//! `δ(Q) = cycles_aborted / (cycles_successful · (Q − 1))` and applies:
//!
//! * `δ(Q) > 1` ⇒ `Q ← max(1, Q/2)` (relieve contention);
//! * `δ(Q) < 1` and `Q < N` ⇒ `Q ← min(N, 2Q)` (recover concurrency);
//!
//! Windows close on *attempts* (commits **plus** aborts), not commits alone
//! — under livelock commits stop entirely and a commit-counted window would
//! never close, which is exactly when adaptation is most urgent.
//!
//! A **cool-down ledger** prevents oscillation: halving away from a quota
//! that exhibited `δ > 1` forbids re-raising to it for an exponentially
//! growing number of windows. The paper reports stable settled quotas
//! (Q = 2 for single-view Eigenbench/OrecEagerRedo, Q₁ = 1 multi-view) that
//! the raw halve/double rule alone cannot produce — see DESIGN.md.

use votm_utils::Mutex;

use votm_stm::{StatsSnapshot, TmStats};

use crate::gate::AdmissionGate;

/// Observation 1's threshold: halve the quota when windowed δ(Q) exceeds
/// it, double it when δ(Q) falls below it.
const DELTA: f64 = 1.0;

/// Initial cool-down, in windows, after halving away from a bad quota.
const COOLDOWN_INITIAL: u32 = 8;

/// Cool-down ceiling, in windows.
const COOLDOWN_MAX: u32 = 512;

/// Tuning knobs for [`RacController`].
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Transaction attempts (commits + aborts) per evaluation window.
    pub window_attempts: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            window_attempts: 256,
        }
    }
}

#[derive(Debug)]
struct CtrlState {
    last: StatsSnapshot,
    attempts_into_window: u64,
    /// Lowest quota that recently showed δ > 1, with remaining
    /// cool-down windows and the cool-down length to use next time.
    bad_quota: Option<BadQuota>,
    /// Windows spent at each quota, indexed by log₂(Q) — the basis for
    /// [`RacController::dominant_quota`], the "settled Q" the paper's
    /// adaptive tables report (the instantaneous quota at run end can be a
    /// transient upward probe).
    windows_at: [u64; 32],
}

#[derive(Debug, Clone, Copy)]
struct BadQuota {
    quota: u32,
    windows_left: u32,
    next_cooldown: u32,
}

/// One applied quota adjustment, with the evidence behind it — what the
/// observability layer records onto the quota-decision timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaDecision {
    /// Quota before the adjustment.
    pub old_q: u32,
    /// Quota after the adjustment (already applied to the gate).
    pub new_q: u32,
    /// The windowed δ(Q) sample that triggered it. `None` for the upward
    /// probe out of lock mode (δ is undefined at Q = 1); may be
    /// `f64::INFINITY` for a zero-commit window.
    pub delta: Option<f64>,
}

/// Windowed δ(Q) estimator + quota policy for one view.
#[derive(Debug)]
pub struct RacController {
    config: ControllerConfig,
    state: Mutex<CtrlState>,
}

impl RacController {
    /// New controller (quota itself lives in the view's [`AdmissionGate`]).
    pub fn new(config: ControllerConfig) -> Self {
        Self {
            config,
            state: Mutex::new(CtrlState {
                last: StatsSnapshot::default(),
                attempts_into_window: 0,
                bad_quota: None,
                windows_at: [0; 32],
            }),
        }
    }

    /// Notifies the controller that one transaction attempt ended (commit or
    /// abort). Cheap unless a window boundary is crossed. Returns the new
    /// quota when an adjustment was made.
    pub fn on_tx_end(&self, gate: &AdmissionGate, stats: &TmStats) -> Option<u32> {
        self.on_tx_end_decision(gate, stats).map(|d| d.new_q)
    }

    /// Like [`RacController::on_tx_end`] but returns the full
    /// [`QuotaDecision`] — old and new quota plus the δ(Q) sample — so the
    /// caller can put the decision on a trace timeline.
    pub fn on_tx_end_decision(
        &self,
        gate: &AdmissionGate,
        stats: &TmStats,
    ) -> Option<QuotaDecision> {
        let mut st = self.state.lock();
        st.attempts_into_window += 1;
        if st.attempts_into_window < self.config.window_attempts {
            return None;
        }
        st.attempts_into_window = 0;
        let snap = stats.snapshot();
        let window = snap.since(&st.last);
        st.last = snap;

        let q = gate.quota();
        let n = gate.max_threads();
        st.windows_at[(31 - q.leading_zeros()) as usize] += 1;
        // Eq. 5, with one extension the paper's formula needs in practice:
        // a window that aborted work but committed *nothing* has δ = ∞ (its
        // denominator is zero). That is precisely the livelock regime RAC
        // exists for, so treat it as "infinitely high contention".
        let delta = match window.delta(q) {
            Some(d) => Some(d),
            None if q > 1 && window.cycles_successful == 0 && window.cycles_aborted > 0 => {
                Some(f64::INFINITY)
            }
            None => None,
        };
        let mut marked_bad = false;

        let decision = match delta {
            Some(d) if d > DELTA && q > 1 => {
                let target = q / 2;
                // Remember that `q` is bad; escalate its cool-down if we
                // keep being driven away from it.
                let next_cooldown = match st.bad_quota {
                    Some(b) if b.quota <= q => (b.next_cooldown * 2).min(COOLDOWN_MAX),
                    _ => COOLDOWN_INITIAL,
                };
                st.bad_quota = Some(BadQuota {
                    quota: q,
                    windows_left: next_cooldown,
                    next_cooldown,
                });
                marked_bad = true;
                gate.set_quota(target);
                Some(QuotaDecision {
                    old_q: q,
                    new_q: target,
                    delta: Some(d),
                })
            }
            Some(d) if d < DELTA && q < n => {
                let target = (q * 2).min(n);
                let blocked = st
                    .bad_quota
                    .is_some_and(|bad| target >= bad.quota && bad.windows_left > 0);
                if blocked {
                    None // recently proven bad; hold position
                } else {
                    gate.set_quota(target);
                    Some(QuotaDecision {
                        old_q: q,
                        new_q: target,
                        delta: Some(d),
                    })
                }
            }
            None if q == 1 => {
                // δ is undefined at Q = 1 (paper: "N/A"). Probe upward once
                // the cool-down on Q = 2 has expired; a fresh failure will
                // re-halve with a doubled cool-down, so a genuinely
                // contended view spends almost all its time locked.
                match st.bad_quota {
                    Some(bad) if bad.quota <= 2 && bad.windows_left > 0 => None,
                    _ => {
                        let target = 2.min(n);
                        if target > 1 {
                            gate.set_quota(target);
                            Some(QuotaDecision {
                                old_q: q,
                                new_q: target,
                                delta: None,
                            })
                        } else {
                            None
                        }
                    }
                }
            }
            _ => None,
        };

        // Tick the cool-down ledger at the end of the window, so a quota
        // marked bad in this window keeps its full cool-down.
        if !marked_bad {
            if let Some(bad) = &mut st.bad_quota {
                if bad.windows_left > 0 {
                    bad.windows_left -= 1;
                }
            }
        }
        decision
    }

    /// The quota the view spent most completed windows at — the "settled Q"
    /// reported in the paper's adaptive tables. `None` before the first
    /// window closes.
    pub fn dominant_quota(&self) -> Option<u32> {
        let st = self.state.lock();
        st.windows_at
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0)
            .max_by_key(|(_, &w)| w)
            .map(|(i, _)| 1u32 << i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window: u64) -> ControllerConfig {
        ControllerConfig {
            window_attempts: window,
        }
    }

    /// Feeds one window of synthetic stats and closes it.
    fn feed_window(
        ctrl: &RacController,
        gate: &AdmissionGate,
        stats: &TmStats,
        commits: u64,
        commit_cycles: u64,
        aborts: u64,
        abort_cycles: u64,
    ) -> Option<u32> {
        for _ in 0..commits {
            stats.record_commit(0, commit_cycles / commits.max(1));
        }
        for _ in 0..aborts {
            stats.record_abort(
                0,
                abort_cycles / aborts.max(1),
                votm_stm::AbortReason::OrecConflict,
            );
        }
        let mut last = None;
        for _ in 0..ctrl.config.window_attempts {
            if let Some(q) = ctrl.on_tx_end(gate, stats) {
                last = Some(q);
            }
        }
        last
    }

    #[test]
    fn high_delta_halves_quota() {
        let gate = AdmissionGate::new(16, 16);
        let stats = TmStats::new();
        let ctrl = RacController::new(cfg(16));
        // delta(16) = 100_000 / (1_000 * 15) ≈ 6.7 > 1
        let q = feed_window(&ctrl, &gate, &stats, 10, 1_000, 50, 100_000);
        assert_eq!(q, Some(8));
        assert_eq!(gate.quota(), 8);
    }

    #[test]
    fn repeated_high_delta_reaches_lock_mode() {
        let gate = AdmissionGate::new(16, 16);
        let stats = TmStats::new();
        let ctrl = RacController::new(cfg(16));
        for _ in 0..4 {
            feed_window(&ctrl, &gate, &stats, 5, 1_000, 100, 1_000_000);
        }
        assert_eq!(gate.quota(), 1, "16 -> 8 -> 4 -> 2 -> 1");
    }

    #[test]
    fn low_delta_doubles_quota_up_to_n() {
        let gate = AdmissionGate::new(2, 16);
        let stats = TmStats::new();
        let ctrl = RacController::new(cfg(16));
        for _ in 0..5 {
            feed_window(&ctrl, &gate, &stats, 100, 1_000_000, 1, 10);
        }
        assert_eq!(gate.quota(), 16, "2 -> 4 -> 8 -> 16, capped at N");
    }

    #[test]
    fn cooldown_blocks_oscillation() {
        let gate = AdmissionGate::new(4, 16);
        let stats = TmStats::new();
        let ctrl = RacController::new(cfg(16));
        // Window 1: δ(4) high ⇒ halve to 2, mark 4 bad.
        feed_window(&ctrl, &gate, &stats, 5, 1_000, 100, 1_000_000);
        assert_eq!(gate.quota(), 2);
        // Window 2: δ(2) low ⇒ would double back to 4, but 4 is cooling
        // down.
        let q = feed_window(&ctrl, &gate, &stats, 100, 1_000_000, 1, 10);
        assert_eq!(q, None);
        assert_eq!(gate.quota(), 2, "cool-down must hold the quota at 2");
    }

    #[test]
    fn cooldown_expires_and_allows_reprobe() {
        let gate = AdmissionGate::new(4, 16);
        let stats = TmStats::new();
        let ctrl = RacController::new(cfg(16));
        feed_window(&ctrl, &gate, &stats, 5, 1_000, 100, 1_000_000); // 4 -> 2
        for _ in 0..COOLDOWN_INITIAL {
            feed_window(&ctrl, &gate, &stats, 100, 1_000_000, 1, 10); // held
        }
        let q = feed_window(&ctrl, &gate, &stats, 100, 1_000_000, 1, 10);
        assert_eq!(q, Some(4), "after cool-down the controller re-probes");
    }

    #[test]
    fn lock_mode_probes_upward_after_cooldown() {
        let gate = AdmissionGate::new(2, 16);
        let stats = TmStats::new();
        let ctrl = RacController::new(cfg(16));
        // Drive to Q=1.
        feed_window(&ctrl, &gate, &stats, 5, 1_000, 100, 1_000_000);
        assert_eq!(gate.quota(), 1);
        // δ undefined at 1; after the cool-down a probe to 2 happens.
        for _ in 0..COOLDOWN_INITIAL {
            feed_window(&ctrl, &gate, &stats, 100, 1_000_000, 0, 0); // cooling
        }
        let q = feed_window(&ctrl, &gate, &stats, 100, 1_000_000, 0, 0);
        assert_eq!(q, Some(2));
        // Bad again ⇒ back to 1 with doubled cool-down.
        feed_window(&ctrl, &gate, &stats, 5, 1_000, 100, 1_000_000);
        assert_eq!(gate.quota(), 1);
    }

    #[test]
    fn no_adjustment_without_a_full_window() {
        let gate = AdmissionGate::new(16, 16);
        let stats = TmStats::new();
        let ctrl = RacController::new(cfg(1000));
        stats.record_abort(0, 1_000_000, votm_stm::AbortReason::OrecConflict);
        stats.record_commit(0, 10);
        for _ in 0..999 {
            assert_eq!(ctrl.on_tx_end(&gate, &stats), None);
        }
        assert_eq!(gate.quota(), 16);
    }

    #[test]
    fn delta_exactly_one_holds_position() {
        let gate = AdmissionGate::new(4, 16);
        let stats = TmStats::new();
        let ctrl = RacController::new(cfg(16));
        // delta(4) = 3000 / (1000 * 3) = 1.0: neither > 1 nor < 1.
        let q = feed_window(&ctrl, &gate, &stats, 10, 1_000, 10, 3_000);
        assert_eq!(q, None);
        assert_eq!(gate.quota(), 4);
    }
}
