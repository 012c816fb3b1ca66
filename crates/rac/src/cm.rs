//! Contention management: which of two conflicting transactions yields.
//!
//! The paper's RAC quota is a *population* control: it bounds how many
//! transactions contend at once, but says nothing about **which** of two
//! conflicting transactions should yield. That pairwise decision is made
//! here. The transaction driver consults a view's [`CmInstance`] at every
//! conflict-resolution site (orec acquisition conflicts, busy spins on
//! foreign locks, commit-time acquisition), and the priority policies
//! communicate through the shared per-view slots ([`CmShared`]).
//!
//! Two policies:
//!
//! * [`CmPolicy::Backoff`] — the passive default: spin up to
//!   [`BUSY_PATIENCE`] on `Busy`, abort-self on `Conflict`, no shared state
//!   touched. The driver implements it inline and never consults this
//!   module; no progress guarantee beyond RAC's.
//! * [`CmPolicy::WindowedGreedy`] — randomized-interval priorities after
//!   Sharma, Estrade & Busch: virtual time is divided into windows and
//!   each transaction draws a pseudo-random priority per window. Within a
//!   window the top-priority transaction wins everything (greedy), and
//!   re-randomization across windows gives every starving transaction a
//!   fresh chance — O(s)-competitive makespan for s shared objects. It
//!   publishes a priority per attempt ([`CmInstance::priority`]) and takes
//!   its verdicts from one rule ([`CmInstance::site`]).
//!
//! A policy is kept only if it wins a comparison row over ten seeds
//! (DESIGN.md §13): windowed-greedy wins single-view OrecEagerRedo at
//! N = 16 by +4.9 % on all ten. Timestamp priority (abort-the-younger)
//! won no row and was removed (DESIGN.md, "Removed, and why").
//!
//! A priority policy needs an enemy to outrank, so it only runs on views
//! whose algorithm's lock words name their holder (the orec pair). NOrec
//! views always run the passive default: "there is no way for a writer to
//! defer to a reader it cannot see" (Scott's survey on invisible readers).
//!
//! Priorities are `u64` values where **lower wins**, with the thread index
//! as tie-breaker, so `(priority, tid)` is a total order: for any two
//! transactions exactly one side wins, which is what rules out the
//! mutual-kill and mutual-wait cycles of symmetric policies.
//!
//! Killing is *polite*: the winner dooms the victim's [`CmShared`] slot
//! (an epoch-guarded CAS) and keeps waiting for the lock; the victim
//! observes the mark at its next operation boundary and aborts itself with
//! `AbortReason::CmKilled`, releasing its locks through the normal abort
//! path. STM metadata is never mutated behind the victim's back.

use std::sync::atomic::{AtomicU64, Ordering};

use votm_utils::{hash_u64, CachePadded};

/// Busy-spin patience of the default backoff policy before converting the
/// spin into an abort (the historical `BUSY_ABORT_LIMIT`).
pub const BUSY_PATIENCE: u32 = 64;

/// Hard per-operation cap on *any* wait the driver honours, winner or not.
/// A safety net: no policy decision can convert a lost wakeup or a
/// pathological wait chain into a hang — past this many spins the
/// transaction aborts itself regardless of priority.
pub const HARD_PATIENCE: u32 = 4096;

/// log2 of the windowed-greedy window length in cycles (2^17 ≈ 131k cycles
/// ≈ 52 µs at the simulator's 2.5 GHz cost model) — several times a long
/// transaction, so a window winner can finish inside its window.
pub const GREEDY_WINDOW_BITS: u32 = 17;

/// Base of the loser's exponential pre-re-admission backoff, in cycles.
pub const LOSER_BACKOFF_BASE: u64 = 256;

/// The shipped contention-management policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CmPolicy {
    /// Backoff-and-retry: the historical hard-wired behaviour.
    #[default]
    Backoff,
    /// Per-window randomized priorities (Sharma et al., O(s)-competitive).
    WindowedGreedy,
}

impl CmPolicy {
    /// All policies, in a stable order (the default first).
    pub const ALL: [CmPolicy; 2] = [CmPolicy::Backoff, CmPolicy::WindowedGreedy];

    /// Short stable name used in reports, JSON rows and CLI arguments.
    pub fn name(self) -> &'static str {
        match self {
            CmPolicy::Backoff => "backoff",
            CmPolicy::WindowedGreedy => "windowed-greedy",
        }
    }
}

/// Per-transaction contention-management state, owned by the transaction
/// driver and persisted **across attempts** of one logical transaction
/// (that persistence is what grows the loser backoff). Cheap `Copy` so the
/// driver can thread it through per-attempt handles.
#[derive(Debug, Clone, Copy, Default)]
pub struct CmTx {
    /// Priority published for the current attempt (lower wins).
    pub prio: u64,
    /// Aborted attempts so far (drives the loser backoff exponent).
    pub attempts: u32,
    /// The [`CmShared`] slot epoch of the current attempt.
    pub epoch: u32,
    /// Backoff (cycles) to charge before the next re-admission, set when a
    /// site verdict was `AbortSelf` with a non-zero penalty.
    pub loser_backoff: u64,
}

impl CmTx {
    /// The backoff a yielding loser owes before re-admission: exponential
    /// in its aborted attempts, capped. Used both for `AbortSelf` verdicts
    /// and for `CmKilled` aborts — a killed transaction that re-armed
    /// immediately would be back at the winner's lock before it commits
    /// and, whenever the priority order has flipped meanwhile (a window
    /// boundary), counter-kill it, ping-ponging without progress. The cap
    /// exceeds a typical short transaction, so the winner's window to
    /// commit is real.
    pub fn yield_backoff(&self) -> u64 {
        LOSER_BACKOFF_BASE << self.attempts.min(4)
    }
}

/// What the contention manager tells the driver to do at a `Busy` or
/// `Conflict` site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteVerdict {
    /// Stay at the operation: busy-wait once and retry it. With
    /// `kill: true` the driver first dooms the conflicting transaction's
    /// [`CmShared`] slot so the road clears.
    Wait {
        /// Doom the enemy before waiting.
        kill: bool,
    },
    /// Abort this attempt; the driver charges `backoff` virtual cycles
    /// before re-admission so the winner can finish.
    AbortSelf {
        /// Pre-re-admission penalty in cycles (0 = none).
        backoff: u64,
    },
}

const DOOM_BIT: u64 = 1 << 32;

/// One thread's contention slot: the epoch/doom word and the published
/// priority, alone on their cache line.
#[derive(Debug, Default)]
struct CmSlot {
    /// Bits 0..32: attempt epoch (bumped by the owner at attempt begin,
    /// which also clears any doom). Bit 32: doomed. Bits 33..49: winner's
    /// thread index, valid while doomed.
    state: AtomicU64,
    /// The owner's published priority for the current attempt.
    prio: AtomicU64,
}

/// Shared per-view contention state: one `CmSlot` per thread. The slots
/// are the only channel the priority policies communicate through — STM
/// metadata stays untouched.
#[derive(Debug)]
pub struct CmShared {
    slots: Box<[CachePadded<CmSlot>]>,
}

impl CmShared {
    /// Slots for `n_threads` participants (at least one).
    pub fn new(n_threads: u32) -> Self {
        let n = n_threads.max(1) as usize;
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || CachePadded::new(CmSlot::default()));
        Self {
            slots: v.into_boxed_slice(),
        }
    }

    #[inline]
    fn slot(&self, tid: usize) -> &CmSlot {
        &self.slots[tid % self.slots.len()]
    }

    /// Starts a new attempt for `tid`: bumps the slot epoch (atomically
    /// clearing any doom aimed at the previous attempt) and publishes
    /// `prio`. Returns the new epoch.
    pub fn attempt_begin(&self, tid: usize, prio: u64) -> u32 {
        let s = self.slot(tid);
        s.prio.store(prio, Ordering::Release);
        let cur = s.state.load(Ordering::Relaxed);
        let epoch = (cur as u32).wrapping_add(1);
        s.state.store(u64::from(epoch), Ordering::Release);
        epoch
    }

    /// `Some(winner)` if `tid`'s attempt with `epoch` has been doomed.
    #[inline]
    pub fn doomed_by(&self, tid: usize, epoch: u32) -> Option<u16> {
        let w = self.slot(tid).state.load(Ordering::Acquire);
        (w as u32 == epoch && w & DOOM_BIT != 0).then_some(((w >> 33) & 0xffff) as u16)
    }

    /// Attempts to doom `victim`'s *current* attempt on behalf of
    /// `winner`. Epoch-guarded: if the victim moved on to a new attempt
    /// between our load and the CAS, the doom does not land. Returns true
    /// only on the doomed-bit transition, so the caller can record exactly
    /// one kill event per doomed attempt.
    pub fn try_doom(&self, victim: usize, winner: u16) -> bool {
        let s = self.slot(victim);
        let cur = s.state.load(Ordering::Acquire);
        if cur & DOOM_BIT != 0 {
            return false; // already doomed by someone
        }
        let next = cur | DOOM_BIT | (u64::from(winner) << 33);
        s.state
            .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The priority `tid` published for its current attempt.
    #[inline]
    pub fn prio_of(&self, tid: usize) -> u64 {
        self.slot(tid).prio.load(Ordering::Acquire)
    }
}

/// Does `(my_prio, my_tid)` beat `(their_prio, their_tid)`? Lower wins;
/// the thread index breaks ties, making the order total — for any two
/// transactions exactly one side wins, so symmetric kill/wait cycles are
/// impossible.
#[inline]
pub fn beats(my_prio: u64, my_tid: usize, their_prio: u64, their_tid: usize) -> bool {
    (my_prio, my_tid) < (their_prio, their_tid)
}

/// One view's contention-management runtime: the policy, the seed of its
/// windowed draw and the shared slots. Built by the view constructor from
/// the system's configuration (`VotmBuilder::policy`). Everything here is a deterministic function of its
/// arguments plus the construction-time seed — the same-seed replay
/// guarantee of the simulator extends through it.
#[derive(Debug)]
pub struct CmInstance {
    policy: CmPolicy,
    seed: u64,
    shared: CmShared,
}

impl CmInstance {
    /// Runtime for `policy` on a view with `n_threads` participants. `seed`
    /// feeds the windowed-greedy draw (derive it deterministically, e.g.
    /// from the view id, to preserve same-seed replay).
    pub fn new(policy: CmPolicy, n_threads: u32, seed: u64) -> Self {
        Self {
            policy,
            seed,
            shared: CmShared::new(n_threads),
        }
    }

    /// The shared slots.
    #[inline]
    pub fn shared(&self) -> &CmShared {
        &self.shared
    }

    /// False under the passive default: the driver then publishes no
    /// priority, checks no doom and never asks for a [`Self::site`]
    /// verdict, skipping all CM work on the hot path.
    #[inline]
    pub fn active(&self) -> bool {
        self.policy != CmPolicy::Backoff
    }

    /// Which policy is installed.
    #[inline]
    pub fn policy(&self) -> CmPolicy {
        self.policy
    }

    /// The priority to publish for an attempt beginning at `now` on thread
    /// `tid` (lower wins; see [`beats`]).
    pub fn priority(&self, tid: usize, now: u64) -> u64 {
        match self.policy {
            // Passive: nothing is published, every transaction ties.
            CmPolicy::Backoff => 0,
            // One draw per `(seed, window, tid)`: greedy inside a window,
            // re-randomized across windows.
            CmPolicy::WindowedGreedy => {
                let window = now >> GREEDY_WINDOW_BITS;
                hash_u64(
                    self.seed
                        ^ window.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        ^ (tid as u64).wrapping_mul(0xd1b5_4a32_d192_ed03),
                )
            }
        }
    }

    /// The site verdict of the priority policy, for the `spins`-th
    /// consecutive poll of one operation by thread `tid`. `busy` tells an
    /// `Err(Busy)` poll (the operation is retryable as it stands) from an
    /// `Err(Conflict)`; `enemy` is the lock holder when the STM's metadata
    /// names one. Win ⇒ doom the enemy and wait it out; lose ⇒ yield (keep
    /// spinning briefly on `Busy`, abort with backoff otherwise). `Wait` on
    /// a conflict is only handed out against a named enemy — an
    /// encounter-time foreign lock, where the operation is retryable once
    /// the holder leaves.
    pub fn site(
        &self,
        busy: bool,
        spins: u32,
        enemy: Option<usize>,
        tx: &CmTx,
        tid: usize,
    ) -> SiteVerdict {
        let keep_spinning = busy && spins < BUSY_PATIENCE;
        let Some(e) = enemy else {
            // Anonymous conflict (version advance, lost CAS): nobody to
            // outrank; the passive default's shape.
            return if keep_spinning {
                SiteVerdict::Wait { kill: false }
            } else {
                SiteVerdict::AbortSelf { backoff: 0 }
            };
        };
        // `e == tid` is a lock word of our own (OrecLazy's strict
        // extension trips over one mid-acquisition): nobody to kill.
        if e != tid && beats(tx.prio, tid, self.shared.prio_of(e), e) {
            SiteVerdict::Wait { kill: true }
        } else if keep_spinning {
            SiteVerdict::Wait { kill: false }
        } else {
            SiteVerdict::AbortSelf {
                backoff: tx.yield_backoff(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doom_is_epoch_guarded_and_cleared_by_attempt_begin() {
        let shared = CmShared::new(4);
        let e1 = shared.attempt_begin(2, 10);
        assert_eq!(shared.doomed_by(2, e1), None);
        assert!(shared.try_doom(2, 0));
        assert!(!shared.try_doom(2, 1), "second doom must not re-fire");
        assert_eq!(shared.doomed_by(2, e1), Some(0));
        // A new attempt clears the mark and invalidates the old epoch.
        let e2 = shared.attempt_begin(2, 11);
        assert_ne!(e1, e2);
        assert_eq!(shared.doomed_by(2, e2), None);
        assert_eq!(shared.doomed_by(2, e1), None, "stale epoch must not doom");
    }

    /// The site rule: `me` (thread 0, two
    /// aborted attempts behind it) polls a site whose lock word names
    /// `enemy`, with its own priority at `my` and thread 1's at `their`.
    #[test]
    fn site_verdict_table() {
        const WAIT: SiteVerdict = SiteVerdict::Wait { kill: false };
        const KILL: SiteVerdict = SiteVerdict::Wait { kill: true };
        const QUIT: SiteVerdict = SiteVerdict::AbortSelf { backoff: 0 };
        let yielded = SiteVerdict::AbortSelf {
            backoff: LOSER_BACKOFF_BASE << 2,
        };
        // (my, their, enemy, busy, spins, expected)
        let table = [
            // The winner dooms and waits, on either kind of site, however
            // long it has spun (the driver's HARD_PATIENCE bounds it).
            (1, 9, Some(1), true, 1, KILL),
            (1, 9, Some(1), false, 1, KILL),
            (1, 9, Some(1), true, BUSY_PATIENCE, KILL),
            // Equal priorities: the lower thread index (ours) wins.
            (5, 5, Some(1), false, 1, KILL),
            // The loser on Busy waits out BUSY_PATIENCE, then yields.
            (9, 1, Some(1), true, 1, WAIT),
            (9, 1, Some(1), true, BUSY_PATIENCE - 1, WAIT),
            (9, 1, Some(1), true, BUSY_PATIENCE, yielded),
            // The loser on Conflict yields at once.
            (9, 1, Some(1), false, 1, yielded),
            // Anonymous site: the default shape, no penalty.
            (1, 9, None, true, BUSY_PATIENCE - 1, WAIT),
            (1, 9, None, true, BUSY_PATIENCE, QUIT),
            (1, 9, None, false, 1, QUIT),
            // Our own lock word: the same spin-then-abort shape, never a
            // kill, whatever the priorities say.
            (1, 9, Some(0), true, BUSY_PATIENCE - 1, WAIT),
            (1, 9, Some(0), true, BUSY_PATIENCE, yielded),
            (1, 9, Some(0), false, 1, yielded),
        ];
        let cm = CmInstance::new(CmPolicy::WindowedGreedy, 2, 42);
        for (my, their, enemy, busy, spins, expected) in table {
            let me = CmTx {
                prio: my,
                attempts: 2,
                ..CmTx::default()
            };
            cm.shared().attempt_begin(0, my);
            cm.shared().attempt_begin(1, their);
            assert_eq!(
                cm.site(busy, spins, enemy, &me, 0),
                expected,
                "prio {my} vs {their}, enemy {enemy:?}, busy {busy}, spins {spins}"
            );
        }
        // Whatever priorities the policy draws for two transactions (here
        // in several windows, on either pair of threads), exactly one of
        // them is told to kill at the lock they meet at.
        for window in [0u64, 1, 5, 64] {
            let now = window << GREEDY_WINDOW_BITS;
            for (ta, tb) in [(0usize, 1usize), (1, 0)] {
                let publish = |tid| {
                    let tx = CmTx {
                        prio: cm.priority(tid, now),
                        ..CmTx::default()
                    };
                    cm.shared().attempt_begin(tid, tx.prio);
                    tx
                };
                let (a, b) = (publish(ta), publish(tb));
                let a_kills = cm.site(false, 1, Some(tb), &a, ta) == KILL;
                let b_kills = cm.site(false, 1, Some(ta), &b, tb) == KILL;
                assert_ne!(a_kills, b_kills, "window {window}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn loser_backoff_grows_then_caps() {
        let mut tx = CmTx::default();
        let mut prev = 0;
        for _ in 0..8 {
            let b = tx.yield_backoff();
            assert!(b >= prev);
            assert!(b <= LOSER_BACKOFF_BASE << 4);
            prev = b;
            tx.attempts += 1;
        }
        assert_eq!(tx.yield_backoff(), LOSER_BACKOFF_BASE << 4);
    }

    #[test]
    fn windowed_greedy_redraws_across_windows() {
        let cm = CmInstance::new(CmPolicy::WindowedGreedy, 4, 0xABCD);
        let w = 1u64 << GREEDY_WINDOW_BITS;
        // Same window ⇒ same draw; the draw is a pure function.
        assert_eq!(cm.priority(3, 10), cm.priority(3, w - 1));
        // Across many windows the relative order of two threads flips at
        // least once — the re-randomization that prevents starvation.
        let mut saw_a_wins = false;
        let mut saw_b_wins = false;
        for k in 0..64u64 {
            let now = k * w;
            let pa = cm.priority(0, now);
            let pb = cm.priority(1, now);
            if beats(pa, 0, pb, 1) {
                saw_a_wins = true;
            } else {
                saw_b_wins = true;
            }
        }
        assert!(
            saw_a_wins && saw_b_wins,
            "order never flipped in 64 windows"
        );
    }

    #[test]
    fn instance_builds_every_policy() {
        assert_eq!(CmPolicy::ALL.len(), 2);
        for p in CmPolicy::ALL {
            let inst = CmInstance::new(p, 8, 42);
            assert_eq!(inst.policy(), p);
            assert_eq!(inst.active(), p != CmPolicy::Backoff);
        }
    }
}
