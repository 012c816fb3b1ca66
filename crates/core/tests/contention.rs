//! Robustness harness for contention management.
//!
//! Three families of checks back the per-policy progress claims:
//!
//! * **Adversarial starvation duel** — one long transaction (made longer
//!   still by seeded fault-plan delays aimed only at it) against a stream
//!   of short transactions camping on its write set. Pure backoff
//!   demonstrably starves the long transaction; the priority policies
//!   (abort-the-younger, windowed-greedy) complete it with a bounded abort
//!   streak and no watchdog escalation.
//! * **Symmetric livelock checks** — 2–3 threads incrementing one shared
//!   counter under every policy × algorithm (that takes one) × seed: the
//!   total order on
//!   `(priority, tid)` rules out mutual-kill/mutual-wait cycles, so every
//!   small interleaving must complete with the exact count.
//! * **Doom conversion** — a doomed transaction converts the mark into an
//!   `AbortReason::CmKilled` abort at its next operation boundary, and the
//!   abort is visible in the per-reason statistics.
//!
//! Serializability-under-every-policy lives in `sim_serializability.rs`
//! (the 36-seed sweep), keeping the ticket-scheme checker in one place.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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

/// The provable-progress policies complete the same duel with a bounded
/// abort streak and never need the watchdog: the victim outranks the
/// shorts (by age, or within its winning window) and the conflict sites
/// resolve in its favour.
#[test]
fn priority_policies_bound_the_victims_abort_streak() {
    for (policy, bound) in [
        (CmPolicy::AbortTheYounger, 64),
        (CmPolicy::WindowedGreedy, 1024),
    ] {
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
                let algo = match seed % 3 {
                    0 => TmAlgorithm::OrecEagerRedo,
                    1 => TmAlgorithm::NOrec,
                    _ => TmAlgorithm::OrecLazy,
                };
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

/// The polite-kill protocol end to end: under abort-the-younger the older
/// transaction (thread 0, started first) does local work while the younger
/// thread 1 takes the word it wants, so thread 0 arrives late at a held
/// lock, outranks the holder and dooms it; the victim notices at its next
/// operation boundary and self-aborts with `CmKilled` — visible in the
/// per-reason abort statistics.
#[test]
fn doomed_transactions_convert_the_mark_into_a_cm_killed_abort() {
    let sys = Votm::builder()
        .algo(TmAlgorithm::OrecEagerRedo)
        .threads(2)
        .policy(CmPolicy::AbortTheYounger)
        .build();
    let view = sys.create_view(64, QuotaMode::Fixed(2));
    let mut ex = SimExecutor::new(SimConfig {
        seed: 9,
        vtime_cap: Some(10_000_000),
        ..Default::default()
    });
    // Thread 0 starts its transaction first (the older timestamp) but
    // reaches the shared word late, after thread 1 has locked it.
    {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            view.transact(&rt, async |tx| {
                tx.local_work(0, 0, 500).await;
                let v = tx.read(Addr(0)).await?;
                Ok(tx.write(Addr(0), v + 1).await?)
            })
            .await;
        });
    }
    // Thread 1 starts later, write-locks the word meanwhile, then keeps
    // performing operations — each one a boundary where the doom must be
    // honoured.
    {
        let view = Arc::clone(&view);
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
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Completed);
    assert_eq!(view.heap().load(Addr(0)), 2, "both increments land");
    let stats = view.stats().tm;
    let killed = stats.aborts_by_reason[AbortReason::CmKilled.index()];
    assert!(
        killed >= 1,
        "thread 1 must have been doomed and self-aborted: {:?}",
        stats.aborts_by_reason
    );
    // Per-reason sums stay total (the taxonomy invariant, with the new
    // reason participating).
    assert_eq!(stats.aborts_by_reason.iter().sum::<u64>(), stats.aborts);
}
