//! Online automatic view partitioning: an adaptive domain of views over
//! one shared heap, plus the repartitioning controller that splits and
//! merges them at runtime.
//!
//! The paper's Observation 2 says objects never accessed together belong
//! in separate views — but its API makes the *programmer* decide the
//! partitioning up front. An [`AdaptiveDomain`] removes that requirement:
//! it starts as ONE view over the whole heap and converges toward the
//! hand-partitioned layout by watching the conflict profile
//! ([`votm_obs::ConflictProfile`]) and executing live **splits** (and the
//! inverse **merges**) behind the admission gate's exclusive-drain
//! barrier.
//!
//! # Architecture
//!
//! * The heap is a single shared [`WordHeap`]; each *slot* of the domain
//!   holds a [`View`] built over it ([`votm_stm::TmInstance::over_heap`]):
//!   its own clock/orec/seqlock metadata domain, admission gate and
//!   contention manager. Data never moves — only metadata ownership does.
//! * A [`votm_stm::RouteTable`], shared by the domain and its views, maps
//!   each of the 64 locality-preserving address buckets (the profiler's
//!   fold, so a suggested bi-partition translates 1:1 into a remap) to its
//!   owning slot.
//! * One wait table serves every view: a commit through any view wakes the
//!   waiters its writes concern, whichever view they parked through.
//! * Transactions enter through [`AdaptiveDomain::transact`] with a *hint
//!   address*; the domain dispatches to the hint's current owner view. The
//!   body is the one a [`View::transact`] takes, over the same
//!   [`TxHandle`], which on a domain view checks every access against the
//!   route.
//!
//! # The repartition protocol (drain safety)
//!
//! A remap involving view V runs only while V is quiesced through
//! [`votm_rac::AdmissionGate::acquire_exclusive`] — the same barrier the
//! starvation watchdog's escalation uses. Because a view is drained
//! before any of its buckets move, a transaction admitted to V observes a
//! *stable* route for every bucket V owns, for its whole lifetime. The
//! full split choreography:
//!
//! 1. `acquire_exclusive` — block new admissions, wait out in-flight
//!    transactions;
//! 2. build the new [`View`] over the shared heap (fresh metadata);
//! 3. [`votm_stm::RouteTable::remap`] the moving buckets to the new slot;
//! 4. record a [`EventKind::Repartition`] trace event;
//! 5. drop the drain guard.
//!
//! A waiter parked on a bucket that moved needs no broadcast: the wait
//! table is the domain's, so the next commit that writes the bucket wakes
//! it through whichever view now owns it, and the woken attempt leaves its
//! old view through the re-route path.
//!
//! A merge drains *both* views in ascending slot order, remaps the
//! source's buckets onto the destination, and *retires* the source's gate:
//! a retired gate still admits (a racer holding a stale route must enter,
//! discover staleness and leave through the re-route path rather than
//! hang) but refuses quota changes, so no controller decision can
//! resurrect it.
//!
//! # Stale routes and cross-view transactions
//!
//! The handle checks the route per access. A mismatch means one of:
//!
//! * **stale route** — the hint's bucket moved between dispatch and
//!   admission. The attempt exits through an innocuous (empty read-only)
//!   commit and re-dispatches.
//! * **straddle** — the hint still routes here but the body reached into
//!   another view's buckets. The attempt rolls back (if it buffered
//!   writes, via an ordinary abort first — buffered writes must never
//!   leak through the exit commit) and re-runs as a *union* attempt: the
//!   domain drains every live view and hands the body to the one driver
//!   with that admission held, which runs it in the irrevocable lock mode
//!   like an escalated attempt. Each straddle bumps the cross-view
//!   pressure pair; sustained pressure is the controller's merge signal —
//!   exactly the "cross-view commit cost exceeds saved conflicts"
//!   criterion.
//!
//! # Hysteresis
//!
//! The controller ([`AdaptiveDomain::run_controller`]) wakes every
//! [`RepartitionPolicy::interval`] virtual cycles and applies at most one
//! repartition per wake, gated by a cool-down, a minimum wasted-work
//! share over the last interval, a minimum attributed-abort count (noise
//! floor) and a minimum profile separability — so a marginal workload
//! does not thrash split/merge/split.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use votm_obs::{
    AbortReason, ConflictProfile, EventKind, FlightRecorder, ProfileWindow, PROFILE_BUCKETS,
};
use votm_rac::{GateGuard, QuotaMode};
use votm_sim::Rt;
use votm_stm::{cost, Addr, RouteTable, StatsSnapshot, TmInstance, WordHeap};
use votm_utils::Mutex;

use crate::error::TxError;
use crate::handle::{drive_transaction, Entry, TxHandle};
use crate::system::VotmConfig;
use crate::view::{Route, View};
use crate::wait::WaitTable;

/// Virtual cycles charged for a stale-route re-dispatch (route lookup +
/// re-entry bookkeeping) — same order as a transaction begin.
const REROUTE_COST: u64 = cost::BEGIN;

/// Hysteresis policy for the repartitioning controller.
#[derive(Debug, Clone)]
pub struct RepartitionPolicy {
    /// Virtual cycles between controller evaluations.
    pub interval: u64,
    /// Minimum virtual cycles between two repartitions (split or merge).
    pub cooldown: u64,
    /// Minimum profile separability (`1 − cut/(cut+internal)`) for a
    /// split; below it, splitting would mostly convert internal conflicts
    /// into cross-view straddles.
    pub min_separability: f64,
    /// Minimum wasted-work share (aborted cycles / total cycles) over the
    /// last interval before a view is worth splitting at all.
    pub min_waste_share: f64,
    /// Minimum attributed aborts in the profile window (noise floor).
    pub min_aborts: u64,
    /// Straddling transactions against a view pair per interval above
    /// which the pair merges back (the cross-view cost signal).
    pub merge_cross_threshold: u64,
    /// Maximum simultaneous live views (slot cap).
    pub max_views: usize,
}

impl Default for RepartitionPolicy {
    fn default() -> Self {
        Self {
            interval: 1 << 17,
            cooldown: 1 << 18,
            min_separability: 0.7,
            min_waste_share: 0.05,
            min_aborts: 16,
            merge_cross_threshold: 8,
            max_views: 8,
        }
    }
}

/// Counters the controller and dispatch paths maintain; exported into the
/// bench gate as `repartitions` / `split_drain_cycles`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainStats {
    /// Total repartitions executed (splits + merges).
    pub repartitions: u64,
    /// Splits executed.
    pub splits: u64,
    /// Merges executed.
    pub merges: u64,
    /// Virtual cycles spent inside split/merge drain barriers.
    pub split_drain_cycles: u64,
    /// Transactions that fell back to union mode (cross-view access).
    pub straddles: u64,
    /// Stale-route re-dispatches.
    pub reroutes: u64,
    /// Live (non-retired) views right now.
    pub live_views: usize,
    /// Route-table remap epoch.
    pub route_epoch: u64,
    /// Full folds of the recorder the controller's profile window took: its
    /// cold start, plus every tick it could not slide.
    pub profile_refolds: u64,
    /// Recorder slots the profile window has read, sliding or folding.
    pub profile_slots_read: u64,
}

/// A self-partitioning group of views over one shared heap.
///
/// Create with [`crate::Votm::create_domain`] (or [`AdaptiveDomain::new`]),
/// run transactions through [`AdaptiveDomain::transact`], and spawn
/// [`AdaptiveDomain::run_controller`] as a task to enable online
/// split/merge. Without the controller task the domain behaves exactly
/// like its initial single view (plus one atomic route lookup per access).
pub struct AdaptiveDomain {
    heap: Arc<WordHeap>,
    route: Arc<RouteTable>,
    /// The one wait table all the domain's views park on and publish to.
    waits: Arc<WaitTable>,
    /// Slot-indexed views. A merged-away slot keeps its (retired) view so
    /// stale racers drain through it; the slot is reused by later splits.
    views: Mutex<Vec<Arc<View>>>,
    /// Retired slots available for reuse, ascending.
    free_slots: Mutex<Vec<u32>>,
    policy: RepartitionPolicy,
    config: VotmConfig,
    quota: QuotaMode,
    /// Monotonic view-id allocator; every incarnation (including a reused
    /// slot) gets a fresh id so per-view trace folding never mixes eras.
    next_view_id: AtomicUsize,
    /// Flat `max_views²` straddle-pressure matrix, `[from · mv + to]`.
    cross: Vec<AtomicU64>,
    /// Per-slot stats snapshot at the last controller evaluation, for
    /// interval-delta waste shares.
    prev_stats: Mutex<Vec<StatsSnapshot>>,
    /// The conflict profile of what the recorder holds, per view, kept
    /// resident between ticks. Cold until some view first wastes enough to
    /// be worth a profile; from then on every tick slides it.
    window: Mutex<ProfileWindow>,
    last_repartition: AtomicU64,
    repartitions: AtomicU64,
    splits: AtomicU64,
    merges: AtomicU64,
    split_drain_cycles: AtomicU64,
    straddles: AtomicU64,
    reroutes: AtomicU64,
}

/// How an attempt left the view it was dispatched to.
#[derive(Clone, Copy)]
enum Exit {
    /// The hint's bucket moved away: re-dispatch by the new route.
    Reroute,
    /// The body reached into buckets owned by slot `.0`: fall back to the
    /// union-drained cross-view path.
    Straddle(u32),
}

enum Routed<T> {
    Done(T),
    Out(Exit),
}

impl AdaptiveDomain {
    /// A domain of `size_words` words starting as one view. `config`
    /// supplies the algorithm, thread count, clock, CM policy and
    /// recorder; the recorder is what the split decision profiles, so a
    /// domain without one never splits (merges, driven by straddle
    /// pressure, still work).
    pub fn new(
        config: &VotmConfig,
        size_words: usize,
        quota: QuotaMode,
        policy: RepartitionPolicy,
    ) -> Arc<Self> {
        assert!(
            !matches!(quota, QuotaMode::Unrestricted),
            "an AdaptiveDomain requires admission control: repartition \
             safety rests on the exclusive-drain barrier, and an \
             unrestricted view's transactions never consult the gate"
        );
        let capacity = size_words * config.reserve_factor.max(1);
        let heap = Arc::new(WordHeap::with_reserve(size_words, capacity));
        let route = Arc::new(RouteTable::new(heap.size_words(), 0));
        let mv = policy.max_views.max(1);
        let domain = Self {
            route,
            waits: Arc::new(WaitTable::new()),
            views: Mutex::new(Vec::new()),
            free_slots: Mutex::new(Vec::new()),
            policy,
            config: config.clone(),
            quota,
            next_view_id: AtomicUsize::new(0),
            cross: (0..mv * mv).map(|_| AtomicU64::new(0)).collect(),
            prev_stats: Mutex::new(Vec::new()),
            window: Mutex::new(ProfileWindow::new()),
            last_repartition: AtomicU64::new(0),
            repartitions: AtomicU64::new(0),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            split_drain_cycles: AtomicU64::new(0),
            straddles: AtomicU64::new(0),
            reroutes: AtomicU64::new(0),
            heap,
        };
        let first = domain.build_view(0);
        domain.views.lock().push(first);
        domain.prev_stats.lock().push(StatsSnapshot::default());
        Arc::new(domain)
    }

    /// A fresh view for `slot` over the shared heap, with the next
    /// monotonic id.
    fn build_view(&self, slot: u32) -> Arc<View> {
        let id = self.next_view_id.fetch_add(1, Ordering::Relaxed);
        Arc::new(View::new(
            id,
            TmInstance::over_heap(
                self.config.algorithm,
                Arc::clone(&self.heap),
                self.config.clock,
            ),
            self.quota,
            &self.config,
            Some((
                Route {
                    table: Arc::clone(&self.route),
                    slot,
                },
                Arc::clone(&self.waits),
            )),
        ))
    }

    /// The shared heap (allocation and inspection; all views see it).
    pub fn heap(&self) -> &WordHeap {
        &self.heap
    }

    /// Allocates a block from the shared heap (`malloc_block`).
    pub fn alloc_block(&self, size_words: u32) -> Option<Addr> {
        self.heap.alloc_block(size_words)
    }

    /// The route table, for assertions and exports.
    pub fn route(&self) -> &RouteTable {
        &self.route
    }

    /// Every view slot, in slot order (retired incarnations included — their
    /// counters still belong in aggregate stats).
    pub fn views(&self) -> Vec<Arc<View>> {
        self.views.lock().iter().cloned().collect()
    }

    /// Controller/dispatch counters.
    pub fn stats(&self) -> DomainStats {
        let (profile_refolds, profile_slots_read) = {
            let window = self.window.lock();
            (window.refolds(), window.slots_read())
        };
        DomainStats {
            repartitions: self.repartitions.load(Ordering::Acquire),
            splits: self.splits.load(Ordering::Acquire),
            merges: self.merges.load(Ordering::Acquire),
            split_drain_cycles: self.split_drain_cycles.load(Ordering::Acquire),
            straddles: self.straddles.load(Ordering::Acquire),
            reroutes: self.reroutes.load(Ordering::Acquire),
            live_views: self
                .views
                .lock()
                .iter()
                .filter(|v| !v.gate().is_retired())
                .count(),
            route_epoch: self.route.epoch(),
            profile_refolds,
            profile_slots_read,
        }
    }

    fn view_at(&self, slot: u32) -> Arc<View> {
        Arc::clone(&self.views.lock()[slot as usize])
    }

    fn note_cross(&self, from: u32, to: u32) {
        let mv = self.policy.max_views.max(1);
        let (f, t) = (from as usize % mv, to as usize % mv);
        self.cross[f * mv + t].fetch_add(1, Ordering::AcqRel);
        self.straddles.fetch_add(1, Ordering::AcqRel);
    }

    /// Runs `body` as one atomic transaction against the domain.
    ///
    /// `hint` selects the dispatch view: the transaction runs on the view
    /// owning the hint's bucket. The body is the one [`View::transact`]
    /// takes; it must propagate access errors with `?` (swallowing them
    /// breaks the re-route protocol). Accesses outside the hint's view are
    /// legal but expensive: they divert the transaction to the
    /// union-drained cross-view path and push the owning pair toward a
    /// merge.
    pub async fn transact<T, F>(&self, rt: &Rt, hint: Addr, mut body: F) -> T
    where
        F: for<'h> AsyncFnMut(&'h mut TxHandle<'_>) -> Result<T, TxError>,
    {
        loop {
            let slot = self.route.owner_of(hint);
            let view = self.view_at(slot);
            // Exit decision carried across attempts inside one driver call:
            // a dirty attempt that must leave aborts first (rolling back
            // its buffered writes) and exits through the next, clean
            // attempt's empty commit.
            let mut pending_exit: Option<Exit> = None;
            let routed = view
                .transact(rt, async |tx: &mut TxHandle<'_>| {
                    if let Some(e) = pending_exit {
                        return Ok(Routed::Out(e));
                    }
                    // Entry check, *after* admission: our view is drained
                    // before any bucket it owns moves, so if the hint still
                    // routes here the route is stable for this whole
                    // attempt.
                    if self.route.owner_of(hint) != slot {
                        return Ok(Routed::Out(Exit::Reroute));
                    }
                    match body(tx).await {
                        // A body that recovered from (or never hit) a
                        // foreign access commits normally: everything in
                        // its read/write set passed the route check.
                        Ok(v) => Ok(Routed::Done(v)),
                        Err(e) => match tx.foreign_owner() {
                            None => Err(e),
                            Some(owner) => {
                                let exit = Exit::Straddle(owner);
                                if tx.wrote() {
                                    // Buffered writes must never leak
                                    // through the exit commit: abort this
                                    // attempt, leave on the re-run.
                                    pending_exit = Some(exit);
                                    Err(TxError::Abort(AbortReason::Explicit))
                                } else {
                                    // Read-only so far: the exit commit is
                                    // a validated no-op.
                                    Ok(Routed::Out(exit))
                                }
                            }
                        },
                    }
                })
                .await;
            match routed {
                Routed::Done(v) => return v,
                Routed::Out(Exit::Reroute) => {
                    self.reroutes.fetch_add(1, Ordering::AcqRel);
                    rt.charge(REROUTE_COST).await;
                }
                Routed::Out(Exit::Straddle(owner)) => {
                    self.note_cross(slot, owner);
                    return self.run_union(rt, slot, body).await;
                }
            }
        }
    }

    /// The cross-view fallback: exclusive drain over every live view
    /// (ascending slot order — the same total order the controller uses,
    /// so the two can never deadlock), then one lock-mode attempt through
    /// the driver on the home view, with that drain as its admission.
    /// Serializable by construction: every metadata domain is quiesced
    /// while the transaction runs.
    async fn run_union<T, F>(&self, rt: &Rt, home_slot: u32, body: F) -> T
    where
        F: for<'h> AsyncFnMut(&'h mut TxHandle<'_>) -> Result<T, TxError>,
    {
        loop {
            let views = self.views();
            let epoch0 = self.route.epoch();
            let mut guards: Vec<GateGuard<'_>> = Vec::with_capacity(views.len());
            for v in &views {
                if v.gate().is_retired() {
                    continue;
                }
                guards.push(v.gate().acquire_exclusive(rt).await);
            }
            // A repartition needs exclusive admission to a view we now
            // hold, so if the epoch is unchanged the set of live views is
            // exactly the set we drained; a change means a split slipped
            // in between our snapshot and the last acquisition — release
            // everything and re-acquire over the new world.
            if self.route.epoch() != epoch0 {
                drop(guards);
                continue;
            }
            let value = drive_transaction(&views[home_slot as usize], rt, Entry::Union, body).await;
            drop(guards);
            return value;
        }
    }

    /// The repartitioning controller loop. Spawn as its own task; it
    /// evaluates every [`RepartitionPolicy::interval`] virtual cycles and
    /// exits when `remaining` reaches zero (the worker tasks' shared
    /// countdown — a simulator run cannot end while any task loops
    /// forever).
    pub async fn run_controller(&self, rt: &Rt, remaining: &AtomicUsize) {
        while remaining.load(Ordering::Acquire) > 0 {
            rt.charge(self.policy.interval).await;
            self.rebalance(rt).await;
        }
    }

    /// One controller evaluation: at most one repartition, behind the
    /// hysteresis gates. Public so tests and single-shot harnesses can
    /// drive the decision without the periodic task.
    pub async fn rebalance(&self, rt: &Rt) {
        // A warm profile window follows the rings on every tick, also the
        // ones that return below before `try_split`: its stash is sized for
        // one tick's advance, and a tick skipped is a full fold later.
        if let Some(recorder) = self.config.recorder.as_deref() {
            let mut window = self.window.lock();
            if window.is_warm() {
                window.advance(recorder);
            }
        }
        let cooled = rt
            .now()
            .saturating_sub(self.last_repartition.load(Ordering::Acquire))
            >= self.policy.cooldown
            || self.repartitions.load(Ordering::Acquire) == 0;
        // Pressure is per-interval: every tick consumes the straddle
        // matrix, the cooling ones included, so straddles from a cooldown
        // never add up into a later spurious merge.
        let merge = self.merge_candidate();
        if !cooled {
            return;
        }
        if let Some((a, b)) = merge {
            self.merge(rt, a, b).await;
            return;
        }
        self.try_split(rt).await;
    }

    /// The live pair with the highest straddle pressure at or above the
    /// merge threshold, ties to the lowest slots. Consumes the matrix.
    fn merge_candidate(&self) -> Option<(u32, u32)> {
        let mv = self.policy.max_views.max(1);
        let live: Vec<u32> = {
            let views = self.views.lock();
            (0..views.len() as u32)
                .filter(|&s| !views[s as usize].gate().is_retired())
                .collect()
        };
        let mut best: Option<(u64, u32, u32)> = None;
        for (i, &a) in live.iter().enumerate() {
            for &b in &live[i + 1..] {
                let (ai, bi) = (a as usize % mv, b as usize % mv);
                let p = self.cross[ai * mv + bi].load(Ordering::Acquire)
                    + self.cross[bi * mv + ai].load(Ordering::Acquire);
                if p >= self.policy.merge_cross_threshold && best.is_none_or(|(bp, ..)| p > bp) {
                    best = Some((p, a, b));
                }
            }
        }
        for c in &self.cross {
            c.store(0, Ordering::Release);
        }
        best.map(|(_, a, b)| (a, b))
    }

    /// Evaluates every live view for a split, in slot order, and executes
    /// the first eligible one. The gates run cheapest first: nothing reads
    /// the recorder until some view has wasted enough of the last interval
    /// to be worth a profile, and then the profile window is brought up to
    /// the rings (a full fold the first time, what they gained since the
    /// last tick after that) and lends each such view's profile.
    async fn try_split(&self, rt: &Rt) {
        let Some(recorder) = self.config.recorder.as_deref() else {
            return; // no profile source: split decisions are impossible
        };
        // One look at every live view: its slot, id, stats, and whether it
        // wasted enough of the last interval to be worth a profile.
        let live: Vec<(u32, u16, StatsSnapshot, bool)> = {
            let views = self.views.lock();
            let live = || {
                (0u32..)
                    .zip(views.iter())
                    .filter(|(_, v)| !v.gate().is_retired())
            };
            if live().count() >= self.policy.max_views {
                return;
            }
            let prev = self.prev_stats.lock();
            live()
                .map(|(slot, v)| {
                    let snap = v.tm().stats().snapshot();
                    let delta = snap.since(&prev[slot as usize]);
                    let total = delta.cycles_aborted + delta.cycles_successful;
                    let wasteful = total != 0
                        && (delta.cycles_aborted as f64 / total as f64)
                            >= self.policy.min_waste_share;
                    (slot, v.id() as u16, snap, wasteful)
                })
                .collect()
        };
        let Some((slot, move_mask)) = self.split_decision(recorder, live) else {
            return;
        };
        self.split(rt, slot, move_mask).await;
    }

    /// The first wasteful view, in slot order, whose profile supports a
    /// split, with the buckets to move.
    fn split_decision(
        &self,
        recorder: &FlightRecorder,
        live: Vec<(u32, u16, StatsSnapshot, bool)>,
    ) -> Option<(u32, u64)> {
        let mut window = self.window.lock();
        // The cold start; a window `rebalance` already slid this tick finds
        // nothing new.
        if live.iter().any(|&(.., wasteful)| wasteful) {
            window.advance(recorder);
        }
        for (slot, id, snap, wasteful) in live {
            // The interval window advances only for the views this loop
            // reaches: a split leaves the later slots' windows open.
            self.prev_stats.lock()[slot as usize] = snap;
            if !wasteful {
                continue;
            }
            let profile = window.profile(id);
            debug_assert_eq!(
                *profile,
                ConflictProfile::per_view(recorder, &[id])[0],
                "the sliding profile of view {id} left the full fold"
            );
            if profile.aborts_total < self.policy.min_aborts {
                continue;
            }
            let part = profile.suggest_bipartition();
            if part.separability < self.policy.min_separability {
                continue;
            }
            let owned = self.route.owned_mask(slot);
            let mut move_mask = 0u64;
            for b in part.side_buckets(1) {
                if b < PROFILE_BUCKETS {
                    move_mask |= 1 << b;
                }
            }
            move_mask &= owned;
            // Both halves must be non-empty *within this view's ownership*,
            // or the split is a rename, not a partition.
            if move_mask == 0 || move_mask == owned {
                continue;
            }
            return Some((slot, move_mask));
        }
        None
    }

    /// Executes a split: drains `slot`, materialises a fresh view over the
    /// shared heap, and remaps `move_mask`'s buckets onto it.
    async fn split(&self, rt: &Rt, slot: u32, move_mask: u64) {
        let view = self.view_at(slot);
        let t0 = rt.now();
        let guard = view.gate().acquire_exclusive(rt).await;
        debug_assert_eq!(
            move_mask & !self.route.owned_mask(slot),
            0,
            "split mask strayed outside the drained view's ownership"
        );
        let (new_slot, new_view) = {
            let mut views = self.views.lock();
            let slot = self.free_slots.lock().pop().unwrap_or(views.len() as u32);
            let view = self.build_view(slot);
            if slot as usize == views.len() {
                views.push(Arc::clone(&view));
            } else {
                views[slot as usize] = Arc::clone(&view);
            }
            (slot, view)
        };
        {
            let mut prev = self.prev_stats.lock();
            let ns = new_slot as usize;
            if prev.len() <= ns {
                prev.resize(ns + 1, StatsSnapshot::default());
            } else {
                prev[ns] = StatsSnapshot::default();
            }
        }
        self.route.remap(move_mask, new_slot);
        let drain = rt.now().saturating_sub(t0);
        self.bump_repartition(rt, drain);
        self.splits.fetch_add(1, Ordering::AcqRel);
        self.record_repartition(
            rt,
            EventKind::Repartition {
                view: view.id() as u16,
                partner: new_view.id() as u16,
                split: true,
                moved: move_mask,
                drain_cycles: drain,
            },
        );
        drop(guard);
    }

    /// Executes a merge: drains both views (ascending slot order), remaps
    /// the higher slot's buckets onto the lower, retires the source gate.
    async fn merge(&self, rt: &Rt, a: u32, b: u32) {
        let (dst, src) = (a.min(b), a.max(b));
        let dv = self.view_at(dst);
        let sv = self.view_at(src);
        let t0 = rt.now();
        let dg = dv.gate().acquire_exclusive(rt).await;
        let sg = sv.gate().acquire_exclusive(rt).await;
        let mask = self.route.owned_mask(src);
        self.route.remap(mask, dst);
        sv.gate().retire();
        self.free_slots.lock().push(src);
        let drain = rt.now().saturating_sub(t0);
        self.bump_repartition(rt, drain);
        self.merges.fetch_add(1, Ordering::AcqRel);
        self.record_repartition(
            rt,
            EventKind::Repartition {
                view: dv.id() as u16,
                partner: sv.id() as u16,
                split: false,
                moved: mask,
                drain_cycles: drain,
            },
        );
        drop(sg);
        drop(dg);
    }

    fn bump_repartition(&self, rt: &Rt, drain: u64) {
        self.repartitions.fetch_add(1, Ordering::AcqRel);
        self.split_drain_cycles.fetch_add(drain, Ordering::AcqRel);
        self.last_repartition.store(rt.now(), Ordering::Release);
    }

    fn record_repartition(&self, rt: &Rt, event: EventKind) {
        if let Some(rec) = &self.config.recorder {
            rec.record(rt.thread_index(), rt.now(), event);
        }
    }
}

impl std::fmt::Debug for AdaptiveDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveDomain")
            .field("stats", &self.stats())
            .field("route", &self.route)
            .finish()
    }
}
