//! Robustness harness for contention management.
//!
//! Three families of checks back the per-policy progress claims:
//!
//! * **Adversarial starvation duel** — one long transaction (made longer
//!   still by seeded fault-plan delays aimed only at it) against a stream
//!   of short transactions camping on its write set. Pure backoff
//!   demonstrably starves the long transaction; every priority policy
//!   completes it with a bounded abort streak and no watchdog escalation.
//! * **Symmetric livelock checks** — 2–3 threads incrementing one shared
//!   counter under every policy × algorithm (that takes one) × seed: the
//!   total order on
//!   `(priority, tid)` rules out mutual-kill/mutual-wait cycles, so every
//!   small interleaving must complete with the exact count.
//! * **Doom conversion** — a doomed transaction converts the mark into an
//!   `AbortReason::CmKilled` abort at its next operation boundary, and the
//!   abort is visible in the per-reason statistics.
//!
//! Serializability-under-every-policy lives in `serializability.rs` (the
//! 36-seed sweep), keeping the ticket-scheme checker in one place.

mod support;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use support::algo_for;
use votm::{AbortReason, Addr, CmPolicy, QuotaMode, TmAlgorithm, Votm};
use votm_sim::{FaultPlan, RunStatus, SimConfig, SimExecutor};

/// Words the victim must write-lock, one camping short per word.
const HOT_WORDS: u64 = 4;
/// Local work the victim performs before touching shared state — the cost
/// it pays again on every abort, which is what the shorts exploit.
const PRE_WORK: u64 = 500;
/// The victim's long in-transaction work after acquiring its write set.
const VICTIM_WORK: u64 = 20_000;
/// One short transaction's in-transaction work (its lock-hold time).
const SHORT_WORK: u64 = 600;
/// Virtual-time budget: generous for the priority policies, a watchdog
/// for the starving backoff leg.
const DUEL_CAP: u64 = 4_000_000;

struct Duel {
    status: RunStatus,
    /// Body invocations of the victim's single logical transaction: its
    /// consecutive-abort streak is `victim_attempts - 1` (or the full
    /// count while it is still starving).
    victim_attempts: u64,
    victim_committed: bool,
    escalations: u64,
    commits: u64,
}

/// One long write transaction (task 0) vs `HOT_WORDS` short
/// increment loops, each camping on one of the victim's words. A targeted
/// fault plan injects a delay after *every* victim operation, stretching
/// the window between its reads and its lock acquisitions.
fn starvation_duel(policy: CmPolicy, seed: u64, escalate_after: Option<u32>) -> Duel {
    let n_threads = (1 + HOT_WORDS) as u32;
    let sys = Votm::builder()
        .algo(TmAlgorithm::OrecEagerRedo)
        .threads(n_threads)
        .policy(policy)
        .escalate_after(escalate_after)
        .build();
    let view = sys.create_view(64, QuotaMode::Fixed(n_threads));
    let done = Arc::new(AtomicBool::new(false));
    let attempts = Arc::new(AtomicU64::new(0));

    let mut ex = SimExecutor::new(SimConfig {
        seed,
        vtime_cap: Some(DUEL_CAP),
        fault_plan: Some(FaultPlan {
            seed: seed ^ 0x0051_eed5,
            delay_percent: 100,
            max_delay: 600,
            target_task: Some(0), // the victim, and only the victim
            ..Default::default()
        }),
        ..Default::default()
    });

    {
        let view = Arc::clone(&view);
        let done = Arc::clone(&done);
        let attempts = Arc::clone(&attempts);
        ex.spawn(move |rt| async move {
            view.transact(&rt, async |tx| {
                attempts.fetch_add(1, Ordering::Relaxed);
                tx.local_work(0, 0, PRE_WORK).await;
                // Blind writes: the victim's conflicts are all encounter
                // locks with a live holder, which is the situation a
                // contention manager can arbitrate. (A read-modify-write
                // would also lose to already-committed increments from the
                // campers — version advances no policy can win against.)
                for w in 0..HOT_WORDS {
                    tx.write(Addr(w as u32), 1_000_000 + w).await?;
                }
                tx.local_work(0, 0, VICTIM_WORK).await;
                Ok(())
            })
            .await;
            done.store(true, Ordering::Relaxed);
        });
    }
    for k in 0..HOT_WORDS {
        let view = Arc::clone(&view);
        let done = Arc::clone(&done);
        ex.spawn(move |rt| async move {
            let w = Addr(k as u32);
            while !done.load(Ordering::Relaxed) {
                view.transact(&rt, async |tx| {
                    let v = tx.read(w).await?;
                    tx.write(w, v + 1).await?;
                    tx.local_work(0, 0, SHORT_WORK).await;
                    Ok(())
                })
                .await;
            }
        });
    }

    let out = ex.run();
    let stats = view.stats();
    Duel {
        status: out.status,
        victim_attempts: attempts.load(Ordering::Relaxed),
        victim_committed: done.load(Ordering::Relaxed),
        escalations: stats.tm.escalations,
        commits: stats.tm.commits,
    }
}

/// Pure backoff has no answer to the camped write set: the victim pays its
/// pre-work, loses a lock race, and repeats — the abort streak grows
/// unbounded and the run livelocks at the virtual-time cap.
#[test]
fn backoff_starves_the_long_transaction() {
    let d = starvation_duel(CmPolicy::Backoff, 3, None);
    assert_eq!(d.status, RunStatus::Livelock, "victim must starve");
    assert!(!d.victim_committed);
    assert!(
        d.victim_attempts > 100,
        "starvation means an unbounded retry loop, got {} attempts",
        d.victim_attempts
    );
    // The shorts meanwhile commit freely: this is starvation, not deadlock.
    assert!(d.commits > 100, "shorts kept committing: {}", d.commits);
}

/// Every priority policy completes the same duel with a bounded abort
/// streak and never needs the watchdog: within a window the victim wins,
/// it outranks the shorts and the conflict sites resolve in its favour.
#[test]
fn priority_policies_bound_the_victims_abort_streak() {
    let bound = 1024;
    for policy in CmPolicy::ALL
        .into_iter()
        .filter(|&p| p != CmPolicy::Backoff)
    {
        let d = starvation_duel(policy, 3, Some(4096));
        assert_eq!(
            d.status,
            RunStatus::Completed,
            "{policy:?}: victim must finish ({} attempts)",
            d.victim_attempts
        );
        assert!(d.victim_committed, "{policy:?}");
        assert!(
            d.victim_attempts <= bound,
            "{policy:?}: abort streak {} exceeds bound {bound}",
            d.victim_attempts - 1
        );
        assert_eq!(
            d.escalations, 0,
            "{policy:?}: the policy, not the watchdog, must rescue the victim"
        );
    }
}

/// 2–3 threads hammering one counter under every policy × algorithm ×
/// seed: small symmetric interleavings are where naive contention managers
/// livelock (mutual kills, mutual waits). The total `(priority, tid)`
/// order makes exactly one side yield, so every run must complete with
/// the exact count.
#[test]
fn symmetric_small_interleavings_complete_under_every_policy() {
    const TX_PER_THREAD: u64 = 30;
    for policy in CmPolicy::ALL {
        for threads in [2u32, 3] {
            for seed in 0..6u64 {
                let algo = algo_for(seed);
                if policy != CmPolicy::Backoff && !algo.names_lock_holder() {
                    continue; // NOrec takes no policy: the backoff schedule again
                }
                let sys = Votm::builder()
                    .algo(algo)
                    .threads(threads)
                    .policy(policy)
                    .build();
                let view = sys.create_view(16, QuotaMode::Fixed(threads));
                let mut ex = SimExecutor::new(SimConfig {
                    seed,
                    vtime_cap: Some(50_000_000),
                    ..Default::default()
                });
                for _ in 0..threads {
                    let view = Arc::clone(&view);
                    ex.spawn(move |rt| async move {
                        for _ in 0..TX_PER_THREAD {
                            view.transact(&rt, async |tx| {
                                let v = tx.read(Addr(0)).await?;
                                Ok(tx.write(Addr(0), v + 1).await?)
                            })
                            .await;
                        }
                    });
                }
                let out = ex.run();
                assert_eq!(
                    out.status,
                    RunStatus::Completed,
                    "{policy:?} {algo:?} threads={threads} seed={seed}"
                );
                assert_eq!(
                    view.heap().load(Addr(0)),
                    u64::from(threads) * TX_PER_THREAD,
                    "{policy:?} {algo:?} threads={threads} seed={seed}: lost increments"
                );
                assert_eq!(view.gate().inside(), 0);
            }
        }
    }
}

/// One polite-kill scenario under windowed-greedy: the `latecomer` thread
/// starts its transaction first but does local work while the other
/// thread takes the word it wants, so it arrives late at a held lock. If
/// its window-0 draw outranks the holder's, it dooms the holder, which
/// notices at its next operation boundary and self-aborts with `CmKilled`.
/// Returns the `CmKilled` aborts.
fn kill_duel(latecomer: usize) -> u64 {
    let sys = Votm::builder()
        .algo(TmAlgorithm::OrecEagerRedo)
        .threads(2)
        .policy(CmPolicy::WindowedGreedy)
        .build();
    let view = sys.create_view(64, QuotaMode::Fixed(2));
    let mut ex = SimExecutor::new(SimConfig {
        seed: 9,
        vtime_cap: Some(10_000_000),
        ..Default::default()
    });
    // Tasks take thread indices in spawn order.
    for tid in 0..2 {
        let view = Arc::clone(&view);
        if tid == latecomer {
            // Starts first, but reaches the shared word late, after the
            // holder has locked it.
            ex.spawn(move |rt| async move {
                view.transact(&rt, async |tx| {
                    tx.local_work(0, 0, 500).await;
                    let v = tx.read(Addr(0)).await?;
                    Ok(tx.write(Addr(0), v + 1).await?)
                })
                .await;
            });
        } else {
            // Starts later, write-locks the word meanwhile, then keeps
            // performing operations — each one a boundary where a doom
            // must be honoured.
            ex.spawn(move |rt| async move {
                rt.charge(100).await;
                view.transact(&rt, async |tx| {
                    let v = tx.read(Addr(0)).await?;
                    tx.write(Addr(0), v + 1).await?;
                    for i in 0..64u32 {
                        tx.read(Addr(8 + i % 8)).await?;
                        tx.local_work(0, 0, 200).await;
                    }
                    Ok(())
                })
                .await;
            });
        }
    }
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Completed, "latecomer {latecomer}");
    assert_eq!(view.heap().load(Addr(0)), 2, "both increments land");
    let stats = view.stats().tm;
    // Per-reason sums stay total (the taxonomy invariant, with the kill
    // reason participating).
    assert_eq!(stats.aborts_by_reason.iter().sum::<u64>(), stats.aborts);
    stats.aborts_by_reason[AbortReason::CmKilled.index()]
}

/// The polite-kill protocol end to end. Exactly one of the two threads
/// outranks the other in window 0, so of the two role assignments the one
/// whose latecomer holds the better draw must end in a `CmKilled` abort,
/// visible in the per-reason statistics.
#[test]
fn doomed_transactions_convert_the_mark_into_a_cm_killed_abort() {
    let killed = kill_duel(0) + kill_duel(1);
    assert!(
        killed >= 1,
        "the outranked holder must have been doomed and self-aborted"
    );
}
