//! Starvation-watchdog tests: consecutive-abort streak tracking, max-retry
//! escalation to exclusive admission, and stall diagnostics on runs that
//! fail to complete.

use std::sync::Arc;

use votm::{Addr, QuotaMode, TmAlgorithm, Votm};
use votm_sim::{FaultPlan, Notify, RunStatus, SimConfig, SimExecutor};

/// An adversarial fault plan that aborts *every* transactional fault point:
/// no ordinary attempt can ever commit.
fn always_abort(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        abort_percent: 100,
        ..Default::default()
    }
}

/// With the watchdog on, a transaction that keeps losing escalates into the
/// exclusive lock mode — which takes no injected faults and cannot abort —
/// so even a 100%-abort adversary cannot starve it.
#[test]
fn escalation_rescues_transactions_from_certain_starvation() {
    const TASKS: u64 = 4;
    const ITERS: u64 = 5;
    const K: u32 = 3;
    for algo in [TmAlgorithm::NOrec, TmAlgorithm::OrecEagerRedo] {
        let system = Votm::builder()
            .algo(algo)
            .threads(TASKS as u32)
            .escalate_after(Some(K))
            .build();
        let view = system.create_view(64, QuotaMode::Fixed(TASKS as u32));
        let mut ex = SimExecutor::new(SimConfig {
            fault_plan: Some(always_abort(11)),
            ..Default::default()
        });
        for _ in 0..TASKS {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                for _ in 0..ITERS {
                    view.transact(&rt, async |tx| {
                        let v = tx.read(Addr(0)).await?;
                        Ok(tx.write(Addr(0), v + 1).await?)
                    })
                    .await;
                }
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed, "{algo:?}");
        assert_eq!(view.heap().load(Addr(0)), TASKS * ITERS, "{algo:?}");

        let stats = view.stats().tm;
        // Every transaction burned exactly K transactional attempts before
        // its escalated (fault-immune) attempt committed.
        assert_eq!(stats.escalations, TASKS * ITERS, "{algo:?}");
        assert_eq!(stats.aborts, TASKS * ITERS * u64::from(K), "{algo:?}");
        assert_eq!(stats.max_abort_streak, u64::from(K), "{algo:?}");
        assert_eq!(view.gate().inside(), 0, "{algo:?}");
        assert_eq!(view.gate().drain_waiters(), 0, "{algo:?}");
    }
}

/// The same adversary with the watchdog off never completes — demonstrating
/// that escalation, not luck, is what rescued the run above. (Default is
/// off: livelock under contention is a phenomenon the paper measures.)
#[test]
fn without_escalation_the_same_adversary_starves_the_run() {
    let system = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(2)
        .escalate_after(None)
        .build();
    let view = system.create_view(64, QuotaMode::Fixed(2));
    let mut ex = SimExecutor::new(SimConfig {
        fault_plan: Some(always_abort(11)),
        vtime_cap: Some(200_000),
        ..Default::default()
    });
    for _ in 0..2 {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            view.transact(&rt, async |tx| {
                let v = tx.read(Addr(0)).await?;
                Ok(tx.write(Addr(0), v + 1).await?)
            })
            .await;
        });
    }
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Livelock);
    assert_eq!(view.heap().load(Addr(0)), 0, "nothing can commit");
    // The watchdog's signal is visible in the stats even when it is not
    // acting on it: a long consecutive-abort streak and zero escalations.
    let stats = view.stats().tm;
    assert_eq!(stats.escalations, 0);
    assert!(
        stats.max_abort_streak > 10,
        "streak {}",
        stats.max_abort_streak
    );

    // Livelocked runs carry per-task stall diagnostics.
    assert_eq!(out.stalls.len(), 2, "both tasks stalled: {:?}", out.stalls);
    for stall in &out.stalls {
        assert!(stall.last_progress <= 200_000 + 1_000);
    }
}

/// The abort-streak accounting that drives `escalate_after` is strictly
/// per logical transaction: commits by *other* transactions on the same
/// view must never reset a starving transaction's streak and mask it from
/// the watchdog. Here only task 0 draws faults (a targeted plan) while
/// three fault-free neighbours commit continuously on the same view; the
/// victim must still escalate after exactly K consecutive aborts. If
/// shared state leaked into the streak, the interleaved commits would
/// reset it and the victim would abort forever instead.
#[test]
fn unrelated_commits_cannot_mask_a_starving_transaction() {
    const K: u32 = 5;
    const NEIGHBOURS: u64 = 3;
    const NEIGHBOUR_ITERS: u64 = 40;
    let system = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(1 + NEIGHBOURS as u32)
        .escalate_after(Some(K))
        .build();
    let view = system.create_view(64, QuotaMode::Fixed(1 + NEIGHBOURS as u32));
    let mut ex = SimExecutor::new(SimConfig {
        fault_plan: Some(FaultPlan {
            target_task: Some(0),
            ..always_abort(11)
        }),
        vtime_cap: Some(10_000_000),
        ..Default::default()
    });
    // Task 0: the victim — one transaction whose every transactional
    // attempt is fault-aborted.
    {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            view.transact(&rt, async |tx| {
                let v = tx.read(Addr(0)).await?;
                Ok(tx.write(Addr(0), v + 1).await?)
            })
            .await;
        });
    }
    // Tasks 1..: fault-free traffic on the same view, each on a private
    // word so the only interaction with the victim is the shared stats
    // and watchdog machinery.
    for t in 1..=NEIGHBOURS {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            let w = Addr(t as u32);
            for _ in 0..NEIGHBOUR_ITERS {
                view.transact(&rt, async |tx| {
                    let v = tx.read(w).await?;
                    Ok(tx.write(w, v + 1).await?)
                })
                .await;
            }
        });
    }
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Completed);
    assert_eq!(view.heap().load(Addr(0)), 1, "the victim's commit landed");
    for t in 1..=NEIGHBOURS {
        assert_eq!(view.heap().load(Addr(t as u32)), NEIGHBOUR_ITERS);
    }
    let stats = view.stats().tm;
    // Exactly one escalation, after exactly K aborts — the interleaved
    // commits neither delayed it (masking) nor hastened it.
    assert_eq!(stats.escalations, 1);
    assert_eq!(stats.aborts, u64::from(K));
    assert_eq!(stats.max_abort_streak, u64::from(K));
}

/// Deadlocked runs report which tasks stalled and that both are parked,
/// and the view's gate still shows the slot task 0 holds.
#[test]
fn deadlock_diagnostics_include_gate_snapshot() {
    let system = Votm::builder().algo(TmAlgorithm::NOrec).threads(2).build();
    let view = system.create_view(64, QuotaMode::Fixed(1));
    let stuck = Arc::new(Notify::new());

    let mut ex = SimExecutor::new(SimConfig::default());
    // Task 0 takes the single admission slot, then waits on a notify that
    // nobody ever signals — holding P forever.
    {
        let view = Arc::clone(&view);
        let stuck = Arc::clone(&stuck);
        ex.spawn(move |rt| async move {
            let _guard = view.gate().admit(&rt).await;
            let epoch = stuck.epoch();
            rt.wait(&stuck, epoch).await;
        });
    }
    // Task 1 queues behind it at the gate (the charge guarantees task 0
    // already holds the slot, regardless of the scheduler's tiebreak).
    {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            rt.charge(50).await;
            view.transact(&rt, async |tx| {
                let v = tx.read(Addr(0)).await?;
                Ok(tx.write(Addr(0), v + 1).await?)
            })
            .await;
        });
    }

    let out = ex.run();
    assert_eq!(out.status, RunStatus::Deadlock);
    assert_eq!(out.stalls.len(), 2, "{:?}", out.stalls);
    for stall in &out.stalls {
        assert!(stall.waiting, "{stall:?}");
    }
    assert_eq!(view.gate().quota(), 1);
    assert_eq!(view.gate().inside(), 1);
}
