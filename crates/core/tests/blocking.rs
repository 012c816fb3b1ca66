//! Blocking-transaction semantics: `retry`, the park/wake protocol, its
//! interaction with admission control, contention management and the
//! starvation watchdog, and the no-lost-wakeup guarantee under a seed
//! sweep.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use votm::{
    AbortReason, Addr, CmPolicy, EventKind, FlightRecorder, QuotaMode, TmAlgorithm, View, Votm,
};
use votm_sim::{RunStatus, SimConfig, SimExecutor};

fn sys(algo: TmAlgorithm, n: u32) -> (Votm, Arc<View>) {
    let sys = Votm::builder().algo(algo).threads(n).build();
    let view = sys.create_view(1024, QuotaMode::Fixed(n));
    (sys, view)
}

/// A consumer that needs `Addr(0)` to become non-zero parks exactly once
/// (no spinning) and is woken by the producer's commit.
#[test]
fn retry_parks_until_producer_commits() {
    for algo in TmAlgorithm::ALL {
        let (_sys, view) = sys(algo, 2);
        let got = Arc::new(AtomicU64::new(0));
        let mut ex = SimExecutor::new(SimConfig::default());
        {
            let view = Arc::clone(&view);
            let got = Arc::clone(&got);
            ex.spawn(move |rt| async move {
                let v = view
                    .transact(&rt, async |tx| {
                        let v = tx.read(Addr(0)).await?;
                        if v == 0 {
                            return tx.retry();
                        }
                        Ok(v)
                    })
                    .await;
                got.store(v, Ordering::Relaxed);
            });
        }
        {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                rt.charge(5_000).await;
                view.transact(&rt, async |tx| Ok(tx.write(Addr(0), 42).await?))
                    .await;
            });
        }
        assert_eq!(ex.run().status, RunStatus::Completed, "{algo:?}");
        assert_eq!(got.load(Ordering::Relaxed), 42, "{algo:?}");
        let tm = view.stats().tm;
        assert_eq!(tm.parked_waits, 1, "{algo:?}: exactly one park, no spin");
        assert_eq!(tm.lost_wakeups, 0, "{algo:?}");
        assert!(
            tm.aborts_by_reason[AbortReason::Retry.index()] >= 1,
            "{algo:?}: the blocked attempt is booked as a Retry abort"
        );
    }
}

/// Wakeups are keyed by the read set: commits whose write summary does not
/// intersect the parked read set must not wake the waiter.
#[test]
fn unrelated_commits_do_not_wake_parked_reader() {
    let b0 = votm_stm::bloom_bucket(Addr(0));
    let other = (1u32..64)
        .map(Addr)
        .find(|a| votm_stm::bloom_bucket(*a) != b0)
        .expect("some address in another Bloom bucket");

    let (_sys, view) = sys(TmAlgorithm::NOrec, 2);
    let mut ex = SimExecutor::new(SimConfig::default());
    {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            let v = view
                .transact(&rt, async |tx| {
                    let v = tx.read(Addr(0)).await?;
                    if v == 0 {
                        return tx.retry();
                    }
                    Ok(v)
                })
                .await;
            assert_eq!(v, 42);
        });
    }
    {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            rt.charge(2_000).await;
            // 30 commits the waiter must sleep straight through…
            for i in 0..30u64 {
                view.transact(&rt, async |tx| Ok(tx.write(other, i).await?))
                    .await;
            }
            // …and the one that actually wakes it.
            view.transact(&rt, async |tx| Ok(tx.write(Addr(0), 42).await?))
                .await;
        });
    }
    assert_eq!(ex.run().status, RunStatus::Completed);
    let tm = view.stats().tm;
    assert_eq!(
        tm.parked_waits, 1,
        "a spurious wake would re-park and count twice"
    );
    assert_eq!(tm.lost_wakeups, 0);
}

/// A body that retries before reading anything has an empty read set, so
/// it parks on every Bloom bucket: its `Park` event carries the all-ones
/// key, and a commit to an arbitrary address wakes it.
#[test]
fn retry_with_empty_read_set_parks_on_every_bucket() {
    let rec = Arc::new(FlightRecorder::with_default_capacity(2));
    let sys = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(2)
        .recorder(Arc::clone(&rec))
        .build();
    let view = sys.create_view(1024, QuotaMode::Fixed(2));
    let attempts = Arc::new(AtomicU64::new(0));
    let mut ex = SimExecutor::new(SimConfig::default());
    {
        let view = Arc::clone(&view);
        let attempts = Arc::clone(&attempts);
        ex.spawn(move |rt| async move {
            view.transact(&rt, async |tx| {
                if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                    return tx.retry();
                }
                Ok(())
            })
            .await;
        });
    }
    {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            rt.charge(5_000).await;
            view.transact(&rt, async |tx| Ok(tx.write(Addr(37), 1).await?))
                .await;
        });
    }
    assert_eq!(ex.run().status, RunStatus::Completed);
    assert_eq!(attempts.load(Ordering::Relaxed), 2, "one park, one re-run");
    let keys: Vec<u64> = rec
        .snapshot()
        .into_iter()
        .flat_map(|t| t.events)
        .filter_map(|e| match e.kind {
            EventKind::Park { summary, .. } => Some(summary),
            _ => None,
        })
        .collect();
    assert_eq!(keys, vec![u64::MAX]);
    let tm = view.stats().tm;
    assert_eq!(tm.parked_waits, 1);
    assert_eq!(tm.lost_wakeups, 0);
}

/// The quota-release-on-park rule: a parked transaction must not hold its
/// admission slot, or a `Fixed(1)` view could never admit the producer
/// that would wake it.
#[test]
fn parked_transaction_releases_admission_quota() {
    for algo in TmAlgorithm::ALL {
        let sys = Votm::builder().algo(algo).threads(2).build();
        let view = sys.create_view(1024, QuotaMode::Fixed(1));
        let mut ex = SimExecutor::new(SimConfig::default());
        {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                let v = view
                    .transact(&rt, async |tx| {
                        let v = tx.read(Addr(0)).await?;
                        if v == 0 {
                            return tx.retry();
                        }
                        Ok(v)
                    })
                    .await;
                assert_eq!(v, 1);
            });
        }
        {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                rt.charge(3_000).await;
                view.transact(&rt, async |tx| Ok(tx.write(Addr(0), 1).await?))
                    .await;
            });
        }
        let out = ex.run();
        assert_eq!(
            out.status,
            RunStatus::Completed,
            "{algo:?}: a held slot would deadlock the Q=1 gate"
        );
        assert_eq!(view.stats().tm.parked_waits, 1, "{algo:?}");
    }
}

/// A wakeup that never arrives must not hang the task: the park deadline
/// fires, is booked as a lost wakeup, bumps the starvation streak, and the
/// watchdog escalates — and a late producer still unblocks everything.
#[test]
fn park_timeout_feeds_the_starvation_watchdog() {
    let sys = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(2)
        .escalate_after(Some(2))
        .build();
    let view = sys.create_view(1024, QuotaMode::Fixed(2));
    let mut ex = SimExecutor::new(SimConfig::default());
    {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            let v = view
                .transact(&rt, async |tx| {
                    let v = tx.read(Addr(0)).await?;
                    if v == 0 {
                        return tx.retry();
                    }
                    Ok(v)
                })
                .await;
            assert_eq!(v, 1);
        });
    }
    {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            // Three park-timeout windows of silence, then the real wakeup.
            rt.charge(3 << 20).await;
            view.transact(&rt, async |tx| Ok(tx.write(Addr(0), 1).await?))
                .await;
        });
    }
    assert_eq!(ex.run().status, RunStatus::Completed);
    let tm = view.stats().tm;
    assert!(tm.lost_wakeups >= 2, "timeouts were booked: {tm:?}");
    assert!(
        tm.escalations >= 1,
        "two straight timeouts must trip the K=2 watchdog: {tm:?}"
    );
}

/// A parked transaction is invisible to contention management: under every
/// CM policy a blocking producer/consumer workload drains completely, with
/// real parks and no lost wakeups (a policy dooming parked victims forever
/// would strand a consumer and time the run out). On an orec algorithm:
/// a NOrec view would run the passive default every time.
#[test]
fn every_cm_policy_coexists_with_parking() {
    const CAP: u64 = 2;
    const OPS: u64 = 20;
    for policy in CmPolicy::ALL {
        let sys = Votm::builder()
            .algo(TmAlgorithm::OrecEagerRedo)
            .threads(6)
            .policy(policy)
            .build();
        let view = sys.create_view(1024, QuotaMode::Fixed(6));
        let mut ex = SimExecutor::new(SimConfig::default());
        for _ in 0..3 {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                for _ in 0..OPS {
                    view.transact(&rt, async |tx| {
                        let v = tx.read(Addr(0)).await?;
                        if v >= CAP {
                            return tx.retry();
                        }
                        Ok(tx.write(Addr(0), v + 1).await?)
                    })
                    .await;
                }
            });
        }
        for _ in 0..3 {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                for _ in 0..OPS {
                    view.transact(&rt, async |tx| {
                        let v = tx.read(Addr(0)).await?;
                        if v == 0 {
                            return tx.retry();
                        }
                        Ok(tx.write(Addr(0), v - 1).await?)
                    })
                    .await;
                }
            });
        }
        assert_eq!(ex.run().status, RunStatus::Completed, "{policy:?}");
        assert_eq!(view.heap().load(Addr(0)), 0, "{policy:?}: conservation");
        let tm = view.stats().tm;
        assert!(tm.parked_waits > 0, "{policy:?}: cap-2 slot must park");
        assert_eq!(tm.lost_wakeups, 0, "{policy:?}");
    }
}

/// The adversarial lost-wakeup shape: two tasks hand a flag back and forth,
/// so every iteration has one side committing exactly while the other is
/// between "saw the wrong value" and "parked". The epoch stale-check must
/// catch every such race — a single lost wakeup would surface as a timeout.
#[test]
fn ping_pong_handoff_never_loses_wakeups() {
    const ROUNDS: u64 = 25;
    for algo in TmAlgorithm::ALL {
        for seed in 0..4u64 {
            let (_sys, view) = sys(algo, 2);
            let mut ex = SimExecutor::new(SimConfig {
                seed,
                ..SimConfig::default()
            });
            for me in 0..2u64 {
                let view = Arc::clone(&view);
                ex.spawn(move |rt| async move {
                    for _ in 0..ROUNDS {
                        view.transact(&rt, async |tx| {
                            if tx.read(Addr(0)).await? != me {
                                return tx.retry();
                            }
                            Ok(tx.write(Addr(0), 1 - me).await?)
                        })
                        .await;
                    }
                });
            }
            let out = ex.run();
            assert_eq!(out.status, RunStatus::Completed, "{algo:?} seed {seed}");
            let tm = view.stats().tm;
            assert_eq!(tm.lost_wakeups, 0, "{algo:?} seed {seed}");
            assert_eq!(tm.commits, 2 * ROUNDS, "{algo:?} seed {seed}");
            assert!(tm.parked_waits > 0, "{algo:?} seed {seed}");
        }
    }
}

/// 36-run sweep (12 seeds × 3 algorithms): a blocking bounded-counter
/// workload is serializable (exact commit count, exact conservation) and
/// never loses a wakeup, under every algorithm's wakeup-key granularity.
#[test]
fn seed_sweep_serializable_and_no_lost_wakeups() {
    const CAP: u64 = 1;
    const OPS: u64 = 15;
    for algo in TmAlgorithm::ALL {
        for seed in 0..12u64 {
            let (_sys, view) = sys(algo, 4);
            let mut ex = SimExecutor::new(SimConfig {
                seed,
                ..SimConfig::default()
            });
            for _ in 0..2 {
                let view = Arc::clone(&view);
                ex.spawn(move |rt| async move {
                    for _ in 0..OPS {
                        view.transact(&rt, async |tx| {
                            let v = tx.read(Addr(0)).await?;
                            if v >= CAP {
                                return tx.retry();
                            }
                            Ok(tx.write(Addr(0), v + 1).await?)
                        })
                        .await;
                    }
                });
            }
            for _ in 0..2 {
                let view = Arc::clone(&view);
                ex.spawn(move |rt| async move {
                    for _ in 0..OPS {
                        view.transact(&rt, async |tx| {
                            let v = tx.read(Addr(0)).await?;
                            if v == 0 {
                                return tx.retry();
                            }
                            Ok(tx.write(Addr(0), v - 1).await?)
                        })
                        .await;
                    }
                });
            }
            let out = ex.run();
            assert_eq!(out.status, RunStatus::Completed, "{algo:?} seed {seed}");
            let tm = view.stats().tm;
            assert_eq!(
                tm.commits,
                4 * OPS,
                "{algo:?} seed {seed}: one commit per op"
            );
            assert_eq!(view.heap().load(Addr(0)), 0, "{algo:?} seed {seed}");
            assert_eq!(tm.lost_wakeups, 0, "{algo:?} seed {seed}");
        }
    }
}

/// Determinism: the same seed replays a blocking workload to an identical
/// outcome — virtual time, step count, and the full stats snapshot.
#[test]
fn blocking_runs_are_deterministic_per_seed() {
    fn run_once(seed: u64) -> (u64, u64, String) {
        let (_sys, view) = sys(TmAlgorithm::NOrec, 4);
        let mut ex = SimExecutor::new(SimConfig {
            seed,
            ..SimConfig::default()
        });
        for _ in 0..2 {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                for _ in 0..10 {
                    view.transact(&rt, async |tx| {
                        let v = tx.read(Addr(0)).await?;
                        if v >= 2 {
                            return tx.retry();
                        }
                        Ok(tx.write(Addr(0), v + 1).await?)
                    })
                    .await;
                }
            });
        }
        for _ in 0..2 {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                for _ in 0..10 {
                    view.transact(&rt, async |tx| {
                        let v = tx.read(Addr(0)).await?;
                        if v == 0 {
                            return tx.retry();
                        }
                        Ok(tx.write(Addr(0), v - 1).await?)
                    })
                    .await;
                }
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed, "seed {seed}");
        (out.vtime, out.steps, format!("{:?}", view.stats().tm))
    }
    for seed in [1u64, 7, 42] {
        assert_eq!(run_once(seed), run_once(seed), "seed {seed}");
    }
}
