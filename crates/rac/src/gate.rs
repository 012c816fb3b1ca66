//! The admission gate: RAC's quota semaphore.
//!
//! Semantics from paper §II:
//!
//! 1. `acquire`: if `P < Q`, increment `P` and enter; otherwise block until
//!    `P < Q`.
//! 2. `release`: decrement `P`, wake a blocked thread.
//!
//! With `Q = 1` the gate degenerates to a lock, and the holder is admitted
//! in [`AdmissionMode::Exclusive`] so it may bypass transactional
//! instrumentation. Quota changes take effect for *new* admissions only;
//! safety across a change follows from two rules:
//!
//! * an Exclusive entrant is admitted only when the view is empty
//!   (`P == 0`), and
//! * a Transactional entrant is never admitted while an Exclusive holder is
//!   inside.
//!
//! So instrumented and uninstrumented access can never overlap, no matter
//! when the controller moves `Q`.
//!
//! # Lock-free fast path
//!
//! The gate is a per-transaction fixed cost: *every* transaction pays one
//! admission and one release, so this is exactly the framework overhead the
//! paper's Eq. 5 argument requires to be negligible. The entire gate state —
//! `(inside, quota, drain_waiters, exclusive_inside)` — is packed into one
//! `AtomicU64` ([`PackedState`]), making:
//!
//! * [`AdmissionGate::try_acquire`] / [`AdmissionGate::release`] a single
//!   CAS with bounded exponential backoff on contention (the lightweight
//!   contention-management discipline of Dice, Hendler & Mirsky), and
//! * [`AdmissionGate::quota`] / [`AdmissionGate::inside`] plain loads.
//!
//! The `Notify` slow path (which takes a mutex internally) is entered only
//! to *block* — a full view, an exclusive drain — or to broadcast a quota
//! change. A release wakes waiters only when the sleeper count says someone
//! is parked, so uncontended acquire/release performs **zero** mutex
//! acquisitions; [`AdmissionGate::gate_stats`] counts fast-path admissions
//! and slow-path entries so tests and the throughput gate can verify that.

use std::sync::atomic::{AtomicU64, Ordering};

use votm_sim::{Notify, Rt};
use votm_utils::CachePadded;

/// How a thread was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Sole occupant (quota was 1 at admission); may use uninstrumented
    /// lock-mode access.
    Exclusive,
    /// One of up to `Q` occupants; must use transactional access.
    Transactional,
}

/// Unpacked view of the gate word, used for decisions and assert messages.
///
/// Layout of the packed `u64`:
///
/// ```text
/// bits  0..16   inside            (P, threads currently admitted)
/// bits 16..32   quota             (Q)
/// bits 32..48   drain_waiters     (escalators waiting for an empty view)
/// bit  48       exclusive_inside  (the admitted holder is in lock mode)
/// bit  49       retired           (slot merged away; see [`AdmissionGate::retire`])
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedState {
    inside: u16,
    quota: u16,
    drain_waiters: u16,
    exclusive_inside: bool,
    retired: bool,
}

const INSIDE_SHIFT: u64 = 0;
const QUOTA_SHIFT: u64 = 16;
const DRAIN_SHIFT: u64 = 32;
const EXCL_BIT: u64 = 1 << 48;
const RETIRED_BIT: u64 = 1 << 49;
const FIELD_MASK: u64 = 0xFFFF;

impl PackedState {
    #[inline]
    fn unpack(word: u64) -> Self {
        Self {
            inside: ((word >> INSIDE_SHIFT) & FIELD_MASK) as u16,
            quota: ((word >> QUOTA_SHIFT) & FIELD_MASK) as u16,
            drain_waiters: ((word >> DRAIN_SHIFT) & FIELD_MASK) as u16,
            exclusive_inside: word & EXCL_BIT != 0,
            retired: word & RETIRED_BIT != 0,
        }
    }

    #[inline]
    fn pack(self) -> u64 {
        (u64::from(self.inside) << INSIDE_SHIFT)
            | (u64::from(self.quota) << QUOTA_SHIFT)
            | (u64::from(self.drain_waiters) << DRAIN_SHIFT)
            | if self.exclusive_inside { EXCL_BIT } else { 0 }
            | if self.retired { RETIRED_BIT } else { 0 }
    }
}

/// Counters for the fast/slow path split, snapshotted by
/// [`AdmissionGate::gate_stats`].
///
/// `fast_acquires` are admissions granted by the CAS fast path without ever
/// touching the `Notify` mutex; `slow_acquires` had to park at least once.
/// `slow_path_entries` counts every entry into the mutex-protected wait /
/// wake machinery (epoch snapshot + sleep, or a wake broadcast).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateStats {
    /// Admissions completed entirely on the lock-free CAS path.
    pub fast_acquires: u64,
    /// Admissions that entered the blocking slow path at least once.
    pub slow_acquires: u64,
    /// Entries into the mutex-backed wait/wake slow path.
    pub slow_path_entries: u64,
}

impl GateStats {
    /// Fraction of admissions served without blocking (1.0 when idle).
    pub fn fast_path_hit_rate(&self) -> f64 {
        let total = self.fast_acquires + self.slow_acquires;
        if total == 0 {
            return 1.0;
        }
        self.fast_acquires as f64 / total as f64
    }

    /// Difference `self − earlier`, for windowed reporting.
    pub fn since(&self, earlier: &GateStats) -> GateStats {
        GateStats {
            fast_acquires: self.fast_acquires - earlier.fast_acquires,
            slow_acquires: self.slow_acquires - earlier.slow_acquires,
            slow_path_entries: self.slow_path_entries - earlier.slow_path_entries,
        }
    }
}

/// RAII admission: releases the gate on drop.
///
/// Returned by [`AdmissionGate::admit`] / [`AdmissionGate::acquire_exclusive`].
/// Holding admission as a guard (instead of a bare [`AdmissionMode`] that
/// must be paired with a manual [`AdmissionGate::release`]) is what makes
/// the transaction pipeline panic-safe: if the body or the commit path
/// unwinds, the guard's drop still decrements `P` and wakes waiters, so a
/// crashed transaction can never strand the view at `P > 0` forever.
#[must_use = "dropping the guard releases admission immediately"]
#[derive(Debug)]
pub struct GateGuard<'g> {
    gate: &'g AdmissionGate,
    mode: AdmissionMode,
    wait: GateWait,
}

impl GateGuard<'_> {
    /// How this guard's holder was admitted.
    pub fn mode(&self) -> AdmissionMode {
        self.mode
    }

    /// What admission cost its holder in waiting.
    pub fn wait(&self) -> GateWait {
        self.wait
    }
}

/// The wait behind one admission, on the runtime's clock. The gate reads
/// the clock only once the fast path has refused, so a fast-path admission
/// is the all-zero value and costs no clock read (an `rdtsc` pair under
/// real threads, which would otherwise book a wait that never happened).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateWait {
    /// When the entrant left the fast path.
    pub from: u64,
    /// Cycles from then until it was admitted; 0 for a fast-path admission.
    pub cycles: u64,
}

impl GateWait {
    fn since(from: u64, rt: &Rt) -> Self {
        Self {
            from,
            cycles: rt.now().saturating_sub(from),
        }
    }
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        self.gate.release(self.mode);
    }
}

/// Bounded CAS retry budget before a fast-path attempt gives up and reports
/// "must wait". Under the simulator a CAS never fails (one OS thread); under
/// real threads a handful of retries with escalating pauses absorbs transient
/// contention without degrading into unbounded spinning.
const CAS_RETRY_LIMIT: u32 = 8;

/// Quota semaphore with exclusive (lock-mode) admission at `Q = 1`.
#[derive(Debug)]
pub struct AdmissionGate {
    /// The packed `(inside, quota, drain_waiters, exclusive)` word — the
    /// single source of truth, alone on its cache line.
    word: CachePadded<AtomicU64>,
    /// Threads parked (or about to park) in the blocking slow path. A
    /// release skips the wake broadcast entirely while this is zero.
    sleepers: CachePadded<AtomicU64>,
    /// Fast/slow path accounting; see [`GateStats`].
    fast_acquires: CachePadded<AtomicU64>,
    slow_acquires: CachePadded<AtomicU64>,
    slow_path_entries: CachePadded<AtomicU64>,
    notify: Notify,
    max_threads: u32,
}

impl AdmissionGate {
    /// Creates a gate with an initial quota (clamped to `[1, max_threads]`).
    pub fn new(initial_quota: u32, max_threads: u32) -> Self {
        assert!(max_threads >= 1);
        assert!(
            max_threads <= u32::from(u16::MAX),
            "max_threads {max_threads} exceeds the packed-field width"
        );
        let init = PackedState {
            inside: 0,
            quota: initial_quota.clamp(1, max_threads) as u16,
            drain_waiters: 0,
            exclusive_inside: false,
            retired: false,
        };
        Self {
            word: CachePadded::new(AtomicU64::new(init.pack())),
            sleepers: CachePadded::new(AtomicU64::new(0)),
            fast_acquires: CachePadded::new(AtomicU64::new(0)),
            slow_acquires: CachePadded::new(AtomicU64::new(0)),
            slow_path_entries: CachePadded::new(AtomicU64::new(0)),
            notify: Notify::new(),
            max_threads,
        }
    }

    #[inline]
    fn load(&self) -> PackedState {
        PackedState::unpack(self.word.load(Ordering::SeqCst))
    }

    /// Current quota `Q` (plain load, no lock).
    pub fn quota(&self) -> u32 {
        u32::from(self.load().quota)
    }

    /// Threads currently inside (`P`) (plain load, no lock).
    pub fn inside(&self) -> u32 {
        u32::from(self.load().inside)
    }

    /// The `N` this gate was configured with.
    pub fn max_threads(&self) -> u32 {
        self.max_threads
    }

    /// Escalated entrants currently waiting for exclusive admission (see
    /// [`Self::acquire_exclusive`]); exposed for stall diagnostics.
    pub fn drain_waiters(&self) -> u32 {
        u32::from(self.load().drain_waiters)
    }

    /// Fast/slow path counters (see [`GateStats`]).
    pub fn gate_stats(&self) -> GateStats {
        GateStats {
            fast_acquires: self.fast_acquires.load(Ordering::Relaxed),
            slow_acquires: self.slow_acquires.load(Ordering::Relaxed),
            slow_path_entries: self.slow_path_entries.load(Ordering::Relaxed),
        }
    }

    /// Retires this gate's view slot after a merge folded its buckets into
    /// a survivor. A retired gate still *admits* — a racer holding a stale
    /// route must be able to enter, discover the stale route, and leave
    /// through the re-route path rather than hang — but the slot is dead
    /// for control purposes: [`Self::set_quota`] becomes a no-op so no
    /// controller decision can resurrect a merged-away view's quota, and
    /// [`Self::is_retired`] lets routers and diagnostics see the state.
    pub fn retire(&self) {
        let mut cur = self.word.load(Ordering::SeqCst);
        loop {
            let mut st = PackedState::unpack(cur);
            st.retired = true;
            match self.word.compare_exchange_weak(
                cur,
                st.pack(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(observed) => cur = observed,
            }
        }
        // Anyone parked on a full pre-merge gate must re-check: the drain
        // that preceded retirement already emptied the view, so they admit
        // immediately and exit through the router's stale-route path.
        self.slow_path_entries.fetch_add(1, Ordering::Relaxed);
        self.notify.notify_all();
    }

    /// Whether [`Self::retire`] was called on this gate.
    pub fn is_retired(&self) -> bool {
        self.load().retired
    }

    /// Sets the quota (clamped to `[1, max_threads]`) and wakes waiters so
    /// an increase admits them promptly. Quota changes are rare (one per
    /// controller window), so this always takes the broadcast slow path.
    /// No-op on a retired gate (see [`Self::retire`]).
    pub fn set_quota(&self, quota: u32) {
        let q = quota.clamp(1, self.max_threads) as u16;
        let mut cur = self.word.load(Ordering::SeqCst);
        loop {
            let mut st = PackedState::unpack(cur);
            if st.retired {
                return;
            }
            st.quota = q;
            match self.word.compare_exchange_weak(
                cur,
                st.pack(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(observed) => cur = observed,
            }
        }
        self.slow_path_entries.fetch_add(1, Ordering::Relaxed);
        self.notify.notify_all();
    }

    /// One non-blocking admission attempt; `None` means the caller must
    /// wait. Pure CAS with bounded backoff — no mutex, ever.
    fn try_acquire(&self) -> Option<AdmissionMode> {
        let mut backoff = votm_utils::Backoff::new();
        let mut attempts = 0;
        let mut cur = self.word.load(Ordering::SeqCst);
        loop {
            let st = PackedState::unpack(cur);
            if st.drain_waiters > 0 {
                // An escalated (starved) transaction is draining the view;
                // no new ordinary admissions until it has entered and left.
                return None;
            }
            let (next, mode) = if st.quota <= 1 {
                if st.inside != 0 {
                    return None;
                }
                (
                    PackedState {
                        inside: 1,
                        exclusive_inside: true,
                        ..st
                    },
                    AdmissionMode::Exclusive,
                )
            } else if !st.exclusive_inside && st.inside < st.quota {
                (
                    PackedState {
                        inside: st.inside + 1,
                        ..st
                    },
                    AdmissionMode::Transactional,
                )
            } else {
                return None;
            };
            match self.word.compare_exchange_weak(
                cur,
                next.pack(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some(mode),
                Err(observed) => {
                    attempts += 1;
                    if attempts >= CAS_RETRY_LIMIT {
                        // Pathological CAS contention: treat as "must wait"
                        // rather than spinning unboundedly (Dice et al.'s
                        // bounded-backoff discipline).
                        return None;
                    }
                    backoff.snooze();
                    cur = observed;
                }
            }
        }
    }

    /// Acquires admission, suspending (simulated or real) while the view is
    /// full. This is `acquire_view`'s blocking step.
    pub async fn acquire(&self, rt: &Rt) -> AdmissionMode {
        self.acquire_timed(rt).await.0
    }

    async fn acquire_timed(&self, rt: &Rt) -> (AdmissionMode, GateWait) {
        // Uncontended fast path: one CAS, no mutex, no Notify traffic.
        if let Some(mode) = self.try_acquire() {
            self.fast_acquires.fetch_add(1, Ordering::Relaxed);
            return (mode, GateWait::default());
        }
        let from = rt.now();
        self.slow_acquires.fetch_add(1, Ordering::Relaxed);
        // Register as a sleeper *before* the epoch/test/wait sequence so a
        // concurrent release cannot skip the wake broadcast: if our
        // try_acquire below fails, the releaser's decrement came after it,
        // and its sleeper check comes later still — so it must observe this
        // registration (all SeqCst). The guard survives cancellation.
        let _sleeper = SleeperGuard::register(self);
        loop {
            let epoch = self.notify.epoch();
            self.slow_path_entries.fetch_add(1, Ordering::Relaxed);
            if let Some(mode) = self.try_acquire() {
                return (mode, GateWait::since(from, rt));
            }
            rt.wait(&self.notify, epoch).await;
        }
    }

    /// Like [`Self::acquire`], but returns an RAII [`GateGuard`] that
    /// releases admission on drop — including during an unwind.
    pub async fn admit(&self, rt: &Rt) -> GateGuard<'_> {
        let (mode, wait) = self.acquire_timed(rt).await;
        GateGuard {
            gate: self,
            mode,
            wait,
        }
    }

    /// Escalated admission for a starving transaction: waits for the view
    /// to drain completely, then enters in [`AdmissionMode::Exclusive`]
    /// *regardless of the current quota*.
    ///
    /// While any escalator waits, ordinary admissions are refused, so the
    /// view empties in bounded time and a transaction that has lost `K`
    /// consecutive conflicts can run uncontended (the irrevocable Q = 1
    /// lock-mode fallback). The drain reservation itself is dropped safely
    /// if this future is cancelled mid-wait.
    pub async fn acquire_exclusive(&self, rt: &Rt) -> GateGuard<'_> {
        // Reservation ticket: un-registers the drain request if the caller
        // is cancelled before being admitted.
        struct DrainTicket<'g> {
            gate: &'g AdmissionGate,
            admitted: bool,
        }
        impl Drop for DrainTicket<'_> {
            fn drop(&mut self) {
                if !self.admitted {
                    self.gate.update_drain(-1);
                    self.gate.wake_sleepers();
                }
            }
        }

        let from = rt.now();
        self.update_drain(1);
        let mut ticket = DrainTicket {
            gate: self,
            admitted: false,
        };
        let _sleeper = SleeperGuard::register(self);
        let mut cur = self.word.load(Ordering::SeqCst);
        loop {
            let epoch = self.notify.epoch();
            self.slow_path_entries.fetch_add(1, Ordering::Relaxed);
            loop {
                let st = PackedState::unpack(cur);
                if st.inside != 0 {
                    break;
                }
                debug_assert!(st.drain_waiters > 0, "lost our drain reservation");
                let next = PackedState {
                    inside: 1,
                    exclusive_inside: true,
                    drain_waiters: st.drain_waiters - 1,
                    ..st
                };
                match self.word.compare_exchange_weak(
                    cur,
                    next.pack(),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => {
                        ticket.admitted = true;
                        return GateGuard {
                            gate: self,
                            mode: AdmissionMode::Exclusive,
                            wait: GateWait::since(from, rt),
                        };
                    }
                    Err(observed) => cur = observed,
                }
            }
            rt.wait(&self.notify, epoch).await;
            cur = self.word.load(Ordering::SeqCst);
        }
    }

    /// Adjusts the drain-waiter field by `delta` (CAS loop).
    fn update_drain(&self, delta: i32) {
        let mut cur = self.word.load(Ordering::SeqCst);
        loop {
            let mut st = PackedState::unpack(cur);
            st.drain_waiters = st
                .drain_waiters
                .checked_add_signed(delta as i16)
                .expect("drain_waiters under/overflow");
            match self.word.compare_exchange_weak(
                cur,
                st.pack(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Wakes parked waiters, but only if someone is actually parked — the
    /// uncontended release path never touches the Notify mutex.
    #[inline]
    fn wake_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.slow_path_entries.fetch_add(1, Ordering::Relaxed);
            self.notify.notify_all();
        }
    }

    /// Releases one admission (`release_view`'s final step). Pure CAS on the
    /// uncontended path; the Notify mutex is touched only when a waiter is
    /// parked.
    ///
    /// # Panics
    /// On unbalanced use — releasing an empty gate, or an exclusive release
    /// with no exclusive holder inside. These checks are always on (not
    /// `debug_assert`): an unbalanced release silently corrupts `P` and
    /// every admission decision after it, so it must fail loudly with the
    /// gate state in the message. The panic fires *before* any state
    /// mutation, so a caught unbalanced release leaves the gate intact.
    pub fn release(&self, mode: AdmissionMode) {
        let mut cur = self.word.load(Ordering::SeqCst);
        loop {
            let st = PackedState::unpack(cur);
            assert!(
                st.inside > 0,
                "AdmissionGate::release without a matching acquire \
                 (mode {mode:?}, quota {}, inside {}, exclusive_inside {})",
                st.quota,
                st.inside,
                st.exclusive_inside,
            );
            if mode == AdmissionMode::Exclusive {
                assert!(
                    st.exclusive_inside,
                    "exclusive release but no exclusive holder inside \
                     (quota {}, inside {})",
                    st.quota, st.inside,
                );
            }
            let next = PackedState {
                inside: st.inside - 1,
                exclusive_inside: st.exclusive_inside && mode != AdmissionMode::Exclusive,
                ..st
            };
            match self.word.compare_exchange_weak(
                cur,
                next.pack(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(observed) => cur = observed,
            }
        }
        self.wake_sleepers();
    }
}

/// RAII sleeper registration: decrements the count even if the waiting
/// future is cancelled mid-park.
struct SleeperGuard<'g> {
    gate: &'g AdmissionGate,
}

impl<'g> SleeperGuard<'g> {
    fn register(gate: &'g AdmissionGate) -> Self {
        gate.sleepers.fetch_add(1, Ordering::SeqCst);
        Self { gate }
    }
}

impl Drop for SleeperGuard<'_> {
    fn drop(&mut self) {
        self.gate.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;
    use votm_sim::{RunStatus, SimConfig, SimExecutor};
    use votm_utils::Mutex;

    #[test]
    fn try_acquire_respects_quota() {
        let g = AdmissionGate::new(2, 16);
        let a = g.try_acquire().unwrap();
        let b = g.try_acquire().unwrap();
        assert_eq!(a, AdmissionMode::Transactional);
        assert_eq!(b, AdmissionMode::Transactional);
        assert!(g.try_acquire().is_none(), "third entrant must wait");
        g.release(a);
        assert!(g.try_acquire().is_some());
        let _ = b;
    }

    #[test]
    fn quota_one_is_exclusive() {
        let g = AdmissionGate::new(1, 16);
        let a = g.try_acquire().unwrap();
        assert_eq!(a, AdmissionMode::Exclusive);
        assert!(g.try_acquire().is_none());
        g.release(a);
        assert_eq!(g.inside(), 0);
    }

    #[test]
    fn exclusive_waits_for_view_to_drain_after_quota_drop() {
        let g = AdmissionGate::new(4, 16);
        let a = g.try_acquire().unwrap();
        let b = g.try_acquire().unwrap();
        g.set_quota(1);
        assert!(
            g.try_acquire().is_none(),
            "exclusive admission requires an empty view"
        );
        g.release(a);
        assert!(g.try_acquire().is_none(), "still one transactional holder");
        g.release(b);
        assert_eq!(g.try_acquire().unwrap(), AdmissionMode::Exclusive);
    }

    #[test]
    fn transactional_blocked_while_exclusive_inside_after_quota_raise() {
        let g = AdmissionGate::new(1, 16);
        let excl = g.try_acquire().unwrap();
        g.set_quota(8);
        assert!(
            g.try_acquire().is_none(),
            "lock-mode holder must not overlap transactional entrants"
        );
        g.release(excl);
        assert_eq!(g.try_acquire().unwrap(), AdmissionMode::Transactional);
    }

    #[test]
    fn retired_gate_still_admits_but_refuses_quota_changes() {
        let g = AdmissionGate::new(4, 16);
        assert!(!g.is_retired());
        g.retire();
        assert!(g.is_retired());
        // A racer with a stale route can still enter (and then leave via
        // the router's re-route path) — retirement must not hang it.
        let a = g.try_acquire().unwrap();
        assert_eq!(a, AdmissionMode::Transactional);
        g.release(a);
        // But no controller decision can move the dead slot's quota.
        g.set_quota(16);
        assert_eq!(g.quota(), 4);
        assert!(g.is_retired(), "retirement is permanent");
    }

    #[test]
    #[should_panic(expected = "release without a matching acquire")]
    fn unbalanced_release_panics_with_gate_state() {
        let g = AdmissionGate::new(4, 16);
        g.release(AdmissionMode::Transactional);
    }

    #[test]
    #[should_panic(expected = "no exclusive holder inside")]
    fn exclusive_release_without_exclusive_holder_panics() {
        let g = AdmissionGate::new(4, 16);
        let _t = g.try_acquire().unwrap();
        g.release(AdmissionMode::Exclusive);
    }

    /// The balance asserts fire *before* any mutation, so a caught
    /// unbalanced release (a mid-release panic) leaves the gate word intact
    /// and the gate fully usable — P ≤ Q holds throughout.
    #[test]
    fn mid_release_panic_leaves_gate_consistent() {
        let g = Arc::new(AdmissionGate::new(4, 16));
        let a = g.try_acquire().unwrap();
        let g2 = Arc::clone(&g);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            g2.release(AdmissionMode::Exclusive); // unbalanced: panics
        }));
        assert!(r.is_err());
        assert_eq!(g.inside(), 1, "failed release must not mutate P");
        assert_eq!(g.quota(), 4);
        // Gate still works: admit up to quota, then balanced releases.
        let b = g.try_acquire().unwrap();
        let c = g.try_acquire().unwrap();
        let d = g.try_acquire().unwrap();
        assert!(g.try_acquire().is_none());
        for m in [a, b, c, d] {
            g.release(m);
        }
        assert_eq!(g.inside(), 0);
    }

    /// Acceptance check for the lock-free fast path: an uncontended
    /// acquire/release stream performs zero slow-path (mutex) entries and
    /// 100% fast-path admissions.
    #[test]
    fn uncontended_path_never_enters_slow_path() {
        let gate = Arc::new(AdmissionGate::new(4, 16));
        let mut ex = SimExecutor::new(SimConfig::default());
        {
            let gate = Arc::clone(&gate);
            ex.spawn(move |rt| async move {
                for _ in 0..100 {
                    let guard = gate.admit(&rt).await;
                    assert_eq!(guard.wait(), GateWait::default());
                    rt.charge(10).await;
                    drop(guard);
                }
            });
        }
        assert_eq!(ex.run().status, RunStatus::Completed);
        let s = gate.gate_stats();
        assert_eq!(s.fast_acquires, 100, "all admissions on the CAS path");
        assert_eq!(s.slow_acquires, 0);
        assert_eq!(
            s.slow_path_entries, 0,
            "uncontended acquire/release must never touch the mutex path"
        );
        assert!((s.fast_path_hit_rate() - 1.0).abs() < 1e-12);
    }

    /// A contended gate still admits everyone, the stats ledger accounts
    /// for every admission as either fast or slow, and the wait a guard
    /// reports is the wait a caller would time from outside.
    #[test]
    fn contended_stats_ledger_is_complete() {
        let gate = Arc::new(AdmissionGate::new(2, 16));
        let mut ex = SimExecutor::new(SimConfig::default());
        for _ in 0..8 {
            let gate = Arc::clone(&gate);
            ex.spawn(move |rt| async move {
                for _ in 0..25 {
                    let arrived = rt.now();
                    let guard = gate.admit(&rt).await;
                    let wait = guard.wait();
                    assert_eq!(wait.cycles, rt.now() - arrived);
                    assert!(wait == GateWait::default() || wait.from == arrived);
                    rt.charge(50).await;
                    drop(guard);
                }
            });
        }
        assert_eq!(ex.run().status, RunStatus::Completed);
        let s = gate.gate_stats();
        assert_eq!(s.fast_acquires + s.slow_acquires, 8 * 25);
        assert!(
            s.slow_acquires > 0,
            "Q=2 with 8 threads must block somebody"
        );
        assert!(s.slow_path_entries > 0);
        assert!(s.fast_path_hit_rate() < 1.0);
    }

    #[test]
    fn guard_releases_on_drop_even_through_panic() {
        let gate = Arc::new(AdmissionGate::new(2, 16));
        let mut ex = SimExecutor::new(SimConfig::default());
        {
            let gate = Arc::clone(&gate);
            ex.spawn(move |rt| async move {
                let guard = gate.admit(&rt).await;
                assert_eq!(guard.mode(), AdmissionMode::Transactional);
                rt.charge(10).await;
                // `guard` dropped here: P returns to 0.
            });
        }
        assert_eq!(ex.run().status, RunStatus::Completed);
        assert_eq!(gate.inside(), 0, "guard drop must release admission");

        // The panic path: unwinding out of a scope holding the guard still
        // releases (caught so the test itself survives).
        let gate2 = Arc::clone(&gate);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mode = gate2.try_acquire().unwrap();
            let _guard = GateGuard {
                gate: &gate2,
                mode,
                wait: GateWait::default(),
            };
            panic!("unwind while admitted");
        }));
        assert_eq!(gate.inside(), 0, "unwind must not strand P");
    }

    #[test]
    fn exclusive_escalation_drains_and_blocks_new_entrants() {
        let gate = Arc::new(AdmissionGate::new(4, 16));
        let a = gate.try_acquire().unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut ex = SimExecutor::new(SimConfig::default());
        {
            // Escalator: must wait for `a` to leave, then enter exclusively.
            let gate = Arc::clone(&gate);
            let order = Arc::clone(&order);
            ex.spawn(move |rt| async move {
                let guard = gate.acquire_exclusive(&rt).await;
                assert_eq!(guard.mode(), AdmissionMode::Exclusive);
                order.lock().push("escalator");
                rt.charge(50).await;
            });
        }
        {
            // Ordinary entrant arriving later: despite free quota it must
            // queue behind the escalator's drain reservation.
            let gate = Arc::clone(&gate);
            let order = Arc::clone(&order);
            ex.spawn(move |rt| async move {
                rt.charge(5).await; // arrive after the escalator registered
                let _guard = gate.admit(&rt).await;
                order.lock().push("ordinary");
                rt.charge(10).await;
            });
        }
        {
            // Holder `a` leaves at t=20, emptying the view.
            let gate = Arc::clone(&gate);
            ex.spawn(move |rt| async move {
                rt.charge(20).await;
                gate.release(a);
            });
        }
        assert_eq!(ex.run().status, RunStatus::Completed);
        assert_eq!(
            *order.lock(),
            vec!["escalator", "ordinary"],
            "escalator must be admitted first, exclusively"
        );
        assert_eq!(gate.inside(), 0);
        assert_eq!(gate.drain_waiters(), 0);
    }

    #[test]
    fn quota_clamps_to_bounds() {
        let g = AdmissionGate::new(99, 16);
        assert_eq!(g.quota(), 16);
        g.set_quota(0);
        assert_eq!(g.quota(), 1);
        g.set_quota(7);
        assert_eq!(g.quota(), 7);
    }

    #[test]
    fn sim_concurrent_occupancy_never_exceeds_quota() {
        // 16 simulated threads hammering a Q=4 gate; instantaneous occupancy
        // is tracked with an atomic high-water mark.
        let gate = Arc::new(AdmissionGate::new(4, 16));
        let peak = Arc::new(AtomicU32::new(0));
        let inside = Arc::new(AtomicU32::new(0));
        let mut ex = SimExecutor::new(SimConfig::default());
        for _ in 0..16 {
            let gate = Arc::clone(&gate);
            let peak = Arc::clone(&peak);
            let inside = Arc::clone(&inside);
            ex.spawn(move |rt| async move {
                for _ in 0..20 {
                    let mode = gate.acquire(&rt).await;
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    rt.charge(50).await; // dwell inside the view
                    inside.fetch_sub(1, Ordering::SeqCst);
                    gate.release(mode);
                    rt.charge(10).await; // outside work
                }
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(inside.load(Ordering::SeqCst), 0);
        let p = peak.load(Ordering::SeqCst);
        assert!(p <= 4, "occupancy {p} exceeded quota 4");
        assert!(p >= 3, "gate should actually admit concurrency (peak {p})");
    }

    #[test]
    fn sim_quota_one_serialises_completely() {
        let gate = Arc::new(AdmissionGate::new(1, 8));
        let overlap = Arc::new(AtomicU32::new(0));
        let mut ex = SimExecutor::new(SimConfig::default());
        for _ in 0..8 {
            let gate = Arc::clone(&gate);
            let overlap = Arc::clone(&overlap);
            ex.spawn(move |rt| async move {
                for _ in 0..10 {
                    let mode = gate.acquire(&rt).await;
                    assert_eq!(mode, AdmissionMode::Exclusive);
                    assert_eq!(overlap.fetch_add(1, Ordering::SeqCst), 0);
                    rt.charge(30).await;
                    overlap.fetch_sub(1, Ordering::SeqCst);
                    gate.release(mode);
                }
            });
        }
        assert_eq!(ex.run().status, RunStatus::Completed);
    }

    /// Serializability of the CAS fast path against concurrent `set_quota`
    /// storms and exclusive drains: instantaneous occupancy never exceeds
    /// the *largest* quota ever set, exclusive holders never overlap
    /// anybody, everyone finishes, and the final word is balanced.
    #[test]
    fn sim_cas_admission_interleaved_with_quota_changes_and_drain() {
        for seed in 0..8u64 {
            let gate = Arc::new(AdmissionGate::new(4, 16));
            let inside = Arc::new(AtomicU32::new(0));
            let peak = Arc::new(AtomicU32::new(0));
            let excl_overlap = Arc::new(AtomicU32::new(0));
            let mut ex = SimExecutor::new(SimConfig {
                seed,
                ..SimConfig::default()
            });
            // 12 ordinary entrants.
            for _ in 0..12 {
                let gate = Arc::clone(&gate);
                let inside = Arc::clone(&inside);
                let peak = Arc::clone(&peak);
                ex.spawn(move |rt| async move {
                    for _ in 0..10 {
                        let guard = gate.admit(&rt).await;
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        rt.charge(30).await;
                        inside.fetch_sub(1, Ordering::SeqCst);
                        drop(guard);
                        rt.charge(5).await;
                    }
                });
            }
            // A quota-storm controller: 1 ↔ 8, never above 8.
            {
                let gate = Arc::clone(&gate);
                ex.spawn(move |rt| async move {
                    for i in 0..20 {
                        rt.charge(40).await;
                        gate.set_quota(if i % 2 == 0 { 1 } else { 8 });
                    }
                    gate.set_quota(8); // leave room so everyone finishes
                });
            }
            // Two escalators doing exclusive drains mid-storm.
            for _ in 0..2 {
                let gate = Arc::clone(&gate);
                let inside = Arc::clone(&inside);
                let excl_overlap = Arc::clone(&excl_overlap);
                ex.spawn(move |rt| async move {
                    rt.charge(100).await;
                    let guard = gate.acquire_exclusive(&rt).await;
                    assert_eq!(
                        inside.load(Ordering::SeqCst),
                        0,
                        "exclusive admission into a non-empty view"
                    );
                    assert_eq!(excl_overlap.fetch_add(1, Ordering::SeqCst), 0);
                    rt.charge(60).await;
                    excl_overlap.fetch_sub(1, Ordering::SeqCst);
                    drop(guard);
                });
            }
            let out = ex.run();
            assert_eq!(out.status, RunStatus::Completed, "seed {seed}");
            assert!(
                peak.load(Ordering::SeqCst) <= 8,
                "seed {seed}: occupancy exceeded the largest quota ever set"
            );
            assert_eq!(gate.inside(), 0, "seed {seed}: unbalanced at exit");
            assert_eq!(gate.drain_waiters(), 0, "seed {seed}");
        }
    }

    #[test]
    fn real_threads_respect_quota() {
        let gate = Arc::new(AdmissionGate::new(3, 8));
        let peak = Arc::new(AtomicU32::new(0));
        let inside = Arc::new(AtomicU32::new(0));
        let gate2 = Arc::clone(&gate);
        let peak2 = Arc::clone(&peak);
        let inside2 = Arc::clone(&inside);
        votm_sim::run_parallel(8, move |_, rt| {
            let gate = Arc::clone(&gate2);
            let peak = Arc::clone(&peak2);
            let inside = Arc::clone(&inside2);
            async move {
                for _ in 0..50 {
                    let mode = gate.acquire(&rt).await;
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    rt.work(200).await;
                    inside.fetch_sub(1, Ordering::SeqCst);
                    gate.release(mode);
                }
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3);
        assert_eq!(inside.load(Ordering::SeqCst), 0);
    }

    /// Real threads hammering the fast path: the ledger stays complete and
    /// a generously-sized quota keeps everything on the CAS path.
    #[test]
    fn real_threads_fast_path_accounting() {
        let gate = Arc::new(AdmissionGate::new(8, 8));
        let gate2 = Arc::clone(&gate);
        votm_sim::run_parallel(8, move |_, rt| {
            let gate = Arc::clone(&gate2);
            async move {
                for _ in 0..100 {
                    let mode = gate.acquire(&rt).await;
                    gate.release(mode);
                }
            }
        });
        let s = gate.gate_stats();
        assert_eq!(s.fast_acquires + s.slow_acquires, 800);
        assert_eq!(gate.inside(), 0);
    }
}
