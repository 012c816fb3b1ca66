//! Online repartitioning under the virtual-time simulator: live splits
//! and merges must never cost correctness.
//!
//! Six angles:
//!
//! * a deterministic convergence case — a single-view domain running two
//!   disjoint hot groups MUST split;
//! * straddle pressure: sustained straddles merge a pair back, and
//!   straddles that land inside a cooldown do not;
//! * a 36-seed serializability sweep with the repartitioner active (the
//!   ticket-replay checker of `serializability.rs`, run per group, plus a
//!   counter-sum phase with deliberate cross-view straddles);
//! * the split × parked-waiter adversary: a transaction parked via
//!   `retry()` on a bucket that then *moves* must be woken, not lost;
//! * merge-under-fault chaos: injected aborts and delays around the
//!   drain windows, reusing [`FaultPlan`];
//! * the controller's sliding profile window on rings that wrap: it takes
//!   its cold-start fold and then slides, through the cooldown too; on
//!   rings already full at its first look it takes two.

mod support;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use support::{algo_for, check_ticket_replay, Plan, TxLog};
use votm::{
    AbortReason, Addr, EventKind, FlightRecorder, QuotaMode, RepartitionPolicy, TmAlgorithm,
    TxError, Votm,
};
use votm_sim::{block_on, FaultPlan, RealHandle, Rt, RunStatus, SimConfig, SimExecutor};
use votm_utils::{Mutex, SplitMix64};

const WORDS: usize = 4096; // 64 words per profile bucket

// Group A lives in the low half (buckets 0..32), group B in the high half
// (buckets 32..64). Tickets sit at each group's base; data words nearby.
const TICKET_A: Addr = Addr(0);
const TICKET_B: Addr = Addr(2048);
const DATA_SPAN: u64 = 100;

// Phase-B counter words. They sit *inside* each group's hot buckets
// (bucket 1 = words 64..128, bucket 33 = words 2112..2176) but past the
// phase-A data spans, so a split that separates the hot groups also
// separates the counters — making phase-B straddles real cross-view
// transactions — while phase-A ticket replay never observes them.
const COUNTER_A: u32 = 104;
const COUNTER_B: u32 = 2152;
const COUNTER_SPAN: u64 = 20;

fn fast_policy() -> RepartitionPolicy {
    RepartitionPolicy {
        interval: 1 << 14,
        cooldown: 1 << 15,
        min_separability: 0.6,
        min_waste_share: 0.01,
        min_aborts: 4,
        merge_cross_threshold: 2,
        max_views: 4,
    }
}

struct RunOut {
    splits: u64,
    merges: u64,
    lost_wakeups: u64,
    profile_refolds: u64,
    /// Events the fullest ring overwrote.
    ring_dropped: u64,
}

/// Ring capacity no scenario here wraps, for the ones that are not about
/// wrapping.
const ROOMY_RINGS: usize = 8192;

/// The shared harness: `threads` workers (alternating groups) run
/// `ticketed` group-confined transactions (full serializability replay),
/// then `mixed` counter transactions of which roughly `straddle_pct`% span
/// both groups (atomicity checked by counter sums). A controller task
/// splits/merges throughout, profiling from `ring_capacity`-event rings.
#[allow(clippy::too_many_arguments)]
fn run_domain(
    algo: TmAlgorithm,
    threads: usize,
    ticketed: usize,
    mixed: usize,
    straddle_pct: u64,
    seed: u64,
    fault_plan: Option<FaultPlan>,
    ring_capacity: usize,
) -> RunOut {
    let recorder = Arc::new(FlightRecorder::new(threads + 1, ring_capacity));
    let sys = Votm::builder()
        .algo(algo)
        .threads(threads as u32)
        .recorder(Arc::clone(&recorder))
        .build();
    let domain = sys.create_domain(WORDS, QuotaMode::Fixed(threads as u32), fast_policy());
    // One ticket-replay log per group.
    let logs: Arc<[Mutex<Vec<TxLog>>; 2]> = Arc::default();
    let remaining = Arc::new(AtomicUsize::new(threads));

    let mut seeds = SplitMix64::new(seed);
    let mut ex = SimExecutor::new(SimConfig {
        seed,
        vtime_cap: Some(2_000_000_000),
        fault_plan,
        ..Default::default()
    });
    for t in 0..threads {
        let domain = Arc::clone(&domain);
        let logs = Arc::clone(&logs);
        let remaining = Arc::clone(&remaining);
        let mut rng = seeds.derive();
        let group = t % 2;
        ex.spawn(move |rt| async move {
            let (ticket, base) = if group == 0 {
                (TICKET_A, 1u64)
            } else {
                (TICKET_B, u64::from(TICKET_B.0) + 1)
            };
            for _ in 0..ticketed {
                let plan = Plan::writer(&mut rng, base, DATA_SPAN, 4, 2);
                let entry = domain
                    .transact(&rt, ticket, async |tx| Ok(plan.run(tx, ticket).await?))
                    .await;
                logs[group].lock().push(entry);
            }
            for _ in 0..mixed {
                let a = (u64::from(COUNTER_A) + rng.next_below(COUNTER_SPAN)) as u32;
                let b = (u64::from(COUNTER_B) + rng.next_below(COUNTER_SPAN)) as u32;
                let straddle = rng.next_below(100) < straddle_pct;
                let (first, second) = if straddle {
                    (a, b)
                } else if group == 0 {
                    (
                        a,
                        (u64::from(COUNTER_A) + rng.next_below(COUNTER_SPAN)) as u32,
                    )
                } else {
                    (
                        b,
                        (u64::from(COUNTER_B) + rng.next_below(COUNTER_SPAN)) as u32,
                    )
                };
                // Two increments per transaction — if `second == first`
                // the second read observes the first write, so the sum
                // invariant (+2 per transaction) holds either way.
                domain
                    .transact(&rt, Addr(first), async |tx| {
                        let x = tx.read(Addr(first)).await?;
                        tx.write(Addr(first), x + 1).await?;
                        let y = tx.read(Addr(second)).await?;
                        Ok(tx.write(Addr(second), y + 1).await?)
                    })
                    .await;
            }
            remaining.fetch_sub(1, Ordering::AcqRel);
        });
    }
    {
        let domain = Arc::clone(&domain);
        let remaining = Arc::clone(&remaining);
        ex.spawn(move |rt| async move {
            domain.run_controller(&rt, &remaining).await;
        });
    }
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Completed, "{algo:?} seed {seed}");

    // Phase A replay, per group: the group's tickets order its
    // transactions, and phase B never touches its data words.
    for (g, (log, ticket)) in logs.iter().zip([TICKET_A, TICKET_B]).enumerate() {
        check_ticket_replay(
            &format!("{algo:?} seed {seed}: group {g}"),
            std::mem::take(&mut *log.lock()),
            (threads / 2 + threads % 2 * (1 - g)) * ticketed,
            ticket,
            |a| domain.heap().load(a),
        );
    }
    // Phase B: every transaction incremented exactly two counter words
    // atomically, so the counters sum to 2 × (threads × mixed) — true
    // regardless of splits, merges, straddles, or injected faults.
    let total: u64 = (0..COUNTER_SPAN as u32)
        .map(|i| domain.heap().load(Addr(COUNTER_A + i)) + domain.heap().load(Addr(COUNTER_B + i)))
        .sum();
    assert_eq!(
        total,
        2 * (threads * mixed) as u64,
        "{algo:?} seed {seed}: counter sum (lost or doubled update)"
    );

    // Descriptors belong to the view whose `TmInstance` built them: a split
    // or merge moves routes, never descriptors, and a thread re-routed to
    // another view takes (or builds) that view's own. With every thread
    // now outside any transaction, a view holds pooled descriptors exactly
    // if transactions completed through it — none migrated into a view
    // that never ran one, none left a view that did.
    // Union attempts book their commits through the driver like any other,
    // so every view's commit histogram counts exactly its commits.
    for view in domain.views() {
        let stats = view.stats();
        let pooled = (0..=threads).filter(|&t| view.descriptor_pooled(t)).count();
        assert_eq!(
            pooled > 0,
            stats.tm.commits > 0,
            "{algo:?} seed {seed}: view {} pools {pooled} descriptors after {} commits",
            view.id(),
            stats.tm.commits
        );
        assert_eq!(
            stats.hists.commit.count(),
            stats.tm.commits,
            "{algo:?} seed {seed}: view {} commit histogram",
            view.id()
        );
    }

    let stats = domain.stats();
    let lost: u64 = domain
        .views()
        .iter()
        .map(|v| v.stats().tm.lost_wakeups)
        .sum();
    RunOut {
        splits: stats.splits,
        merges: stats.merges,
        lost_wakeups: lost,
        profile_refolds: stats.profile_refolds,
        ring_dropped: (0..recorder.n_threads())
            .map(|ring| {
                recorder
                    .head(ring)
                    .saturating_sub(recorder.capacity() as u64)
            })
            .max()
            .unwrap_or(0),
    }
}

/// The headline behaviour: disjoint hot groups on one view make the
/// controller split, and the split run stays correct.
#[test]
fn disjoint_groups_trigger_a_live_split() {
    let out = run_domain(TmAlgorithm::NOrec, 8, 30, 0, 0, 42, None, ROOMY_RINGS);
    assert!(
        out.splits >= 1,
        "no split despite a fully separable workload"
    );
    assert_eq!(out.lost_wakeups, 0);
}

/// Sustained cross-view traffic after a split pulls the pair back
/// together.
#[test]
fn straddle_pressure_triggers_a_merge() {
    // The straddle phase must outlast the post-split cooldown window
    // (1 << 15 cycles) for a merge wake to observe the pressure.
    let out = run_domain(TmAlgorithm::NOrec, 8, 30, 60, 60, 43, None, ROOMY_RINGS);
    assert!(out.splits >= 1, "phase A should still split");
    assert!(
        out.merges >= 1,
        "no merge despite sustained straddle pressure (splits {})",
        out.splits
    );
}

/// Pressure is per interval. One task splits a domain through the public
/// `rebalance`, straddles the new pair more than the merge threshold while
/// the split cools down, and ticks once more inside the cooldown: the first
/// cooled tick after that has seen no straddle in its interval and must not
/// merge.
#[test]
fn straddles_inside_the_cooldown_do_not_merge_afterwards() {
    const A: Addr = Addr(8); // bucket 0
    const B: Addr = Addr(2056); // bucket 32
    let policy = fast_policy();
    let cooldown = policy.cooldown;
    let straddles = 2 * policy.merge_cross_threshold;
    let recorder = Arc::new(FlightRecorder::new(2, ROOMY_RINGS));
    let sys = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(2)
        .recorder(Arc::clone(&recorder))
        .build();
    let domain = sys.create_domain(WORDS, QuotaMode::Fixed(2), policy);
    let mut ex = SimExecutor::new(SimConfig::default());
    let d = Arc::clone(&domain);
    ex.spawn(move |rt| async move {
        // Waste on two never co-accessed words: each transaction loses its
        // first attempt, so the one view is worth a profile that separates.
        for _ in 0..8 {
            for word in [A, B] {
                let mut aborted = false;
                d.transact(&rt, word, async |tx| {
                    let v = tx.read(word).await?;
                    if !std::mem::replace(&mut aborted, true) {
                        return Err(TxError::Abort(AbortReason::Explicit));
                    }
                    Ok(tx.write(word, v + 1).await?)
                })
                .await;
            }
        }
        d.rebalance(&rt).await;
        assert_eq!(d.stats().splits, 1, "the waste must split A from B");
        for _ in 0..straddles {
            d.transact(&rt, A, async |tx| {
                let (x, y) = (tx.read(A).await?, tx.read(B).await?);
                tx.write(A, x + 1).await?;
                Ok(tx.write(B, y + 1).await?)
            })
            .await;
        }
        assert_eq!(d.stats().straddles, straddles);
        rt.charge(cooldown / 2).await;
        d.rebalance(&rt).await;
        rt.charge(cooldown).await;
        d.rebalance(&rt).await;
    });
    assert_eq!(ex.run().status, RunStatus::Completed);
    let stats = domain.stats();
    assert_eq!(
        stats.merges, 0,
        "straddles from the cooldown merged the pair"
    );
    assert_eq!(stats.splits, 1);
    assert_eq!(domain.heap().load(A), 8 + straddles);
    assert_eq!(domain.heap().load(B), 8 + straddles);
}

/// 36 seeds × three algorithms with the repartitioner live: splits,
/// merges, stale-route re-dispatches and union-mode straddles may all
/// occur; serializability and update atomicity must survive every one.
#[test]
fn sim_serializable_with_repartitioning_across_36_seeds() {
    for seed in 0..36u64 {
        run_domain(algo_for(seed), 4, 10, 6, 25, 2000 + seed, None, ROOMY_RINGS);
    }
}

/// The split × parked-waiter adversary. A consumer parks (`retry()`) on a
/// flag word in the half that the controller then moves to a new view.
/// The split wakes nobody: the producer's commit through the view that now
/// owns the flag wakes the waiter on the wait table the domain's views
/// share, and the woken attempt re-routes to that view and reads the flag
/// — zero lost wakeups, no hang.
#[test]
fn parked_waiter_survives_a_split_of_its_bucket() {
    const FLAG: Addr = Addr(3500); // group-B half, bucket 54

    let threads = 6; // 4 contention workers + consumer + producer
    let recorder = Arc::new(FlightRecorder::new(threads + 1, 8192));
    let sys = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(threads as u32)
        .recorder(Arc::clone(&recorder))
        .build();
    let domain = sys.create_domain(WORDS, QuotaMode::Fixed(threads as u32), fast_policy());
    let remaining = Arc::new(AtomicUsize::new(threads));

    let mut seeds = SplitMix64::new(7);
    let mut ex = SimExecutor::new(SimConfig {
        seed: 7,
        vtime_cap: Some(2_000_000_000),
        ..Default::default()
    });
    // Contention workers: disjoint-group traffic that justifies the split.
    for t in 0..4usize {
        let domain = Arc::clone(&domain);
        let remaining = Arc::clone(&remaining);
        let mut rng = seeds.derive();
        let group = t % 2;
        ex.spawn(move |rt| async move {
            let (ticket, base) = if group == 0 {
                (TICKET_A, 1u64)
            } else {
                (TICKET_B, u64::from(TICKET_B.0) + 1)
            };
            for _ in 0..30 {
                let a = (base + rng.next_below(DATA_SPAN)) as u32;
                domain
                    .transact(&rt, ticket, async |tx| {
                        let t = tx.read(ticket).await?;
                        tx.write(ticket, t + 1).await?;
                        let v = tx.read(Addr(a)).await?;
                        Ok(tx.write(Addr(a), v + 1).await?)
                    })
                    .await;
            }
            remaining.fetch_sub(1, Ordering::AcqRel);
        });
    }
    // Consumer: parks until the flag is set.
    let consumed = Arc::new(AtomicUsize::new(0));
    {
        let domain = Arc::clone(&domain);
        let remaining = Arc::clone(&remaining);
        let consumed = Arc::clone(&consumed);
        ex.spawn(move |rt| async move {
            let got = domain
                .transact(&rt, FLAG, async |tx| {
                    let v = tx.read(FLAG).await?;
                    if v == 0 {
                        return tx.retry();
                    }
                    Ok(v)
                })
                .await;
            consumed.store(got as usize, Ordering::Release);
            remaining.fetch_sub(1, Ordering::AcqRel);
        });
    }
    // Producer: waits for the split to land, then sets the flag — on the
    // *new* owner view of the flag's bucket.
    {
        let domain = Arc::clone(&domain);
        let remaining = Arc::clone(&remaining);
        ex.spawn(move |rt| async move {
            while domain.stats().splits == 0 {
                rt.charge(1024).await;
            }
            domain
                .transact(&rt, FLAG, async |tx| Ok(tx.write(FLAG, 7).await?))
                .await;
            remaining.fetch_sub(1, Ordering::AcqRel);
        });
    }
    {
        let domain = Arc::clone(&domain);
        let remaining = Arc::clone(&remaining);
        ex.spawn(move |rt| async move {
            domain.run_controller(&rt, &remaining).await;
        });
    }
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Completed);
    assert!(domain.stats().splits >= 1, "the adversary needs a split");
    assert_eq!(consumed.load(Ordering::Acquire), 7, "consumer saw the flag");
    let lost: u64 = domain
        .views()
        .iter()
        .map(|v| v.stats().tm.lost_wakeups)
        .sum();
    assert_eq!(lost, 0, "the move must not time a waiter out");
}

/// Merge-under-fault chaos: injected aborts and delays land around the
/// drain windows while straddle pressure forces merges. Atomicity and
/// completion must hold.
#[test]
fn merge_under_injected_faults_keeps_counters_exact() {
    for seed in [5u64, 17, 29] {
        let out = run_domain(
            TmAlgorithm::OrecEagerRedo,
            6,
            20,
            15,
            50,
            seed,
            Some(FaultPlan {
                seed,
                abort_percent: 8,
                delay_percent: 15,
                max_delay: 300,
                ..Default::default()
            }),
            ROOMY_RINGS,
        );
        assert!(
            out.splits >= 1,
            "seed {seed}: chaos run should still split first"
        );
    }
}

/// The controller's profile window on rings that wrap many times over. Each
/// group hammers one ticket word, so both halves stay wasteful after the
/// split and every later tick profiles them (and, with debug assertions on,
/// checks the slid profile against a full fold of the rings); the two ticks
/// of cooldown after the split return before `try_split`. The window must
/// take its cold-start fold and then slide for the rest of the run: a full
/// fold per repartition would be excusable, one per tick is the cost this
/// window exists to remove.
#[test]
fn the_profile_window_slides_on_wrapped_rings_and_through_the_cooldown() {
    let out = run_domain(TmAlgorithm::NOrec, 8, 1000, 0, 0, 44, None, 2048);
    assert!(out.splits >= 1, "the scenario needs a cooldown to cross");
    assert!(
        out.ring_dropped > 2 * 2048,
        "the rings must wrap for the window to retract anything (dropped {})",
        out.ring_dropped
    );
    assert!(
        out.profile_refolds <= 1 + out.splits + out.merges,
        "{} full folds for {} repartitions",
        out.profile_refolds,
        out.splits + out.merges
    );
}

/// Controller ticks on a recorder that is full (17 rings × 16 384 events,
/// the repository benchmark's shape) before the window first looks: aborts
/// and footprints on a single bucket, so a fold sees every event and the
/// profile can never suggest a split. Each tick's transaction aborts once
/// before it commits, which gives the view a wasted-work share for the
/// interval, so the tick gets past the cheap gates and reads the profile.
/// The cold fold copies no stash and the second learns the pace; every tick
/// after those two must slide.
#[test]
fn a_full_recorder_takes_two_folds_and_then_every_tick_slides() {
    const THREADS: u64 = 16;
    let recorder = Arc::new(FlightRecorder::new(THREADS as usize + 1, 1 << 14));
    for i in 0..(THREADS + 1) << 14 {
        let kind = match i % 3 {
            0 => EventKind::TxAbort {
                view: 0,
                reason: AbortReason::NorecValidation,
                cycles: 100,
            },
            _ => EventKind::Footprint {
                view: 0,
                committed: i % 3 == 1,
                reads: 1,
                writes: 1,
            },
        };
        recorder.record((i >> 14) as usize, i, kind);
    }
    let domain = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(THREADS as u32)
        .recorder(recorder)
        .build()
        .create_domain(4096, QuotaMode::Fixed(16), RepartitionPolicy::default());
    let rt = Rt::Real(RealHandle::standalone(0));
    for tick in 0..10 {
        let mut aborted = false;
        block_on(domain.transact(&rt, Addr(0), async |tx| {
            if !std::mem::replace(&mut aborted, true) {
                return Err(TxError::Abort(AbortReason::Explicit));
            }
            Ok(tx.read(Addr(0)).await?)
        }));
        block_on(domain.rebalance(&rt));
        let stats = domain.stats();
        assert_eq!(stats.repartitions, 0, "tick {tick}");
        assert_eq!(stats.profile_refolds, (tick + 1).min(2), "tick {tick}");
    }
}

/// An unrestricted domain is a contradiction (no gate, no drain barrier);
/// the constructor must refuse it loudly.
#[test]
#[should_panic(expected = "admission control")]
fn unrestricted_domains_are_refused() {
    let sys = Votm::builder().build();
    let _ = sys.create_domain(64, QuotaMode::Unrestricted, RepartitionPolicy::default());
}
