//! Restricted Admission Control (RAC).
//!
//! RAC is the paper's concurrency-control mechanism: each view carries an
//! admission quota `Q ∈ [1, N]` limiting how many threads may be inside the
//! view at once. `acquire_view` blocks while `P == Q`; on release `P` drops
//! and a waiter is admitted (paper §II). Two components implement this:
//!
//! * [`gate::AdmissionGate`] — the quota semaphore. At `Q = 1` admission is
//!   *exclusive* and the holder runs in uninstrumented lock mode; the gate
//!   guarantees lock-mode and transactional holders never overlap even
//!   across quota changes.
//! * [`controller::RacController`] — the adaptive policy of Observation 1:
//!   estimate `δ(Q) = cycles_aborted / (cycles_successful · (Q − 1))`
//!   (Eq. 5) over windows of completed transactions; halve `Q` when
//!   `δ(Q) > 1`, double it when `δ(Q) < 1`, bounded by `[1, N]`.
//! * [`cm::CmInstance`] — the *pairwise* complement to RAC's population
//!   control: given two conflicting transactions, decide which one yields.
//!   The passive backoff default plus one priority policy,
//!   windowed-greedy.
//!
//! The controller adds one refinement over the paper's description (which
//! the paper's own results imply but do not spell out): after halving away
//! from a quota that showed `δ > 1`, re-raising to that quota is held back
//! for an exponentially growing cool-down. Without this the raw rule
//! oscillates (Q=2 has δ<1 ⇒ double to 4; Q=4 has δ>1 ⇒ halve to 2; …)
//! instead of settling the way the paper's Table VI reports.

#![warn(missing_docs)]

pub mod cm;
pub mod controller;
pub mod gate;

pub use cm::{CmInstance, CmPolicy, CmShared, CmTx, SiteVerdict};
pub use controller::{ControllerConfig, QuotaDecision, RacController};
pub use gate::{AdmissionGate, AdmissionMode, GateGuard, GateStats, GateWait};

/// How a view's quota is managed (third argument of `create_view`: a value
/// `< 1` requests dynamic management, a value `≥ 1` pins the quota).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaMode {
    /// Quota fixed at the given value for the whole run.
    Fixed(u32),
    /// Quota starts at N (the thread count) and is adapted by
    /// [`RacController`].
    Adaptive,
    /// Admission control disabled entirely: every thread is always admitted
    /// transactionally (the paper's "multi-TM" and plain-"TM" baselines).
    Unrestricted,
}
