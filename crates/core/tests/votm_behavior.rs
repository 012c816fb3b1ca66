//! End-to-end behavioural tests of the VOTM stack: views + RAC + STM under
//! both the virtual-time simulator and real threads.

use std::sync::Arc;

use votm::{Addr, EventKind, FlightRecorder, QuotaMode, TmAlgorithm, TxError, Votm};
use votm_sim::{run_parallel, RunOutcome, RunStatus, SimConfig, SimExecutor};

fn sys(algo: TmAlgorithm, n_threads: u32) -> Votm {
    Votm::builder().algo(algo).threads(n_threads).build()
}

/// Spawns `n` sim threads each running `iters` increment transactions.
fn run_counter_sim(algo: TmAlgorithm, quota: QuotaMode, n: usize, iters: u64) -> (u64, RunOutcome) {
    let system = sys(algo, n as u32);
    let view = system.create_view(64, quota);
    let mut ex = SimExecutor::new(SimConfig::default());
    for _ in 0..n {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            for _ in 0..iters {
                view.transact(&rt, async |tx| {
                    let v = tx.read(Addr(0)).await?;
                    Ok(tx.write(Addr(0), v + 1).await?)
                })
                .await;
            }
        });
    }
    let out = ex.run();
    (view.heap().load(Addr(0)), out)
}

#[test]
fn sim_counter_exact_all_algorithms_and_quotas() {
    for algo in TmAlgorithm::ALL {
        for quota in [
            QuotaMode::Fixed(1),
            QuotaMode::Fixed(4),
            QuotaMode::Fixed(16),
            QuotaMode::Adaptive,
            QuotaMode::Unrestricted,
        ] {
            let (count, out) = run_counter_sim(algo, quota, 16, 25);
            assert_eq!(out.status, RunStatus::Completed, "{algo:?} {quota:?}");
            assert_eq!(count, 400, "lost updates under {algo:?} {quota:?}");
        }
    }
}

#[test]
fn fixed_quota_one_runs_lock_mode_with_zero_aborts() {
    let (count, _) = {
        let system = sys(TmAlgorithm::OrecEagerRedo, 8);
        let view = system.create_view(64, QuotaMode::Fixed(1));
        let mut ex = SimExecutor::new(SimConfig::default());
        for _ in 0..8 {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                for _ in 0..50 {
                    view.transact(&rt, async |tx| {
                        let v = tx.read(Addr(0)).await?;
                        Ok(tx.write(Addr(0), v + 1).await?)
                    })
                    .await;
                }
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed);
        let stats = view.stats();
        assert_eq!(stats.tm.aborts, 0, "lock mode cannot abort");
        assert_eq!(stats.tm.commits, 400);
        (view.heap().load(Addr(0)), out)
    };
    assert_eq!(count, 400);
}

#[test]
fn real_threads_counter_exact() {
    for algo in TmAlgorithm::ALL {
        let system = Arc::new(sys(algo, 8));
        let view = system.create_view(64, QuotaMode::Adaptive);
        let v2 = Arc::clone(&view);
        run_parallel(8, move |_, rt| {
            let view = Arc::clone(&v2);
            async move {
                for _ in 0..100 {
                    view.transact(&rt, async |tx| {
                        let v = tx.read(Addr(0)).await?;
                        Ok(tx.write(Addr(0), v + 1).await?)
                    })
                    .await;
                }
            }
        });
        assert_eq!(view.heap().load(Addr(0)), 800, "{algo:?}");
    }
}

#[test]
#[should_panic(expected = "read-only")]
fn read_only_acquisition_rejects_writes() {
    let system = sys(TmAlgorithm::NOrec, 2);
    let view = system.create_view(16, QuotaMode::Fixed(2));
    let mut ex = SimExecutor::new(SimConfig::default());
    ex.spawn(move |rt| async move {
        view.transact_ro(&rt, async |tx| Ok(tx.write(Addr(0), 1).await?))
            .await;
    });
    ex.run();
}

#[test]
fn read_only_transactions_commit_without_clock_traffic() {
    let system = sys(TmAlgorithm::NOrec, 4);
    let view = system.create_view(16, QuotaMode::Fixed(4));
    let mut ex = SimExecutor::new(SimConfig::default());
    for _ in 0..4 {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            for _ in 0..25 {
                let v = view
                    .transact_ro(&rt, async |tx| Ok(tx.read(Addr(3)).await?))
                    .await;
                assert_eq!(v, 0);
            }
        });
    }
    assert_eq!(ex.run().status, RunStatus::Completed);
    let s = view.stats();
    assert_eq!(s.tm.commits, 100);
    assert_eq!(s.tm.aborts, 0, "pure readers never conflict");
}

#[test]
fn aborted_transactions_roll_back_allocations() {
    let system = sys(TmAlgorithm::NOrec, 2);
    let view = system.create_view(256, QuotaMode::Fixed(2));
    // Seed a value; then run a transaction that allocates and then forces an
    // abort on its first attempt (via a conflicting writer).
    let mut ex = SimExecutor::new(SimConfig::default());
    {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            let mut first = true;
            view.transact(&rt, async |tx| {
                let node = tx.alloc(4)?;
                tx.write(node, 7).await?;
                let v = tx.read(Addr(0)).await?;
                if first {
                    first = false;
                    // Simulate a conflict: explicit abort on attempt 1.
                    return Err(TxError::Abort(votm::AbortReason::Explicit));
                }
                tx.write(Addr(0), v + 1).await?;
                Ok(tx.write(Addr(1), node.0 as u64).await?)
            })
            .await;
        });
    }
    assert_eq!(ex.run().status, RunStatus::Completed);
    // Attempt 1's allocation was rolled back, attempt 2's survived: exactly
    // one live block.
    assert_eq!(view.heap().live_blocks(), 1);
    assert_eq!(view.stats().tm.aborts, 1);
}

#[test]
fn transactional_free_is_deferred_to_commit() {
    let system = sys(TmAlgorithm::NOrec, 2);
    let view = system.create_view(64, QuotaMode::Fixed(2));
    let block = view.alloc_block(8).unwrap();
    assert_eq!(view.heap().live_blocks(), 1);
    let mut ex = SimExecutor::new(SimConfig::default());
    {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            let mut first = true;
            view.transact(&rt, async |tx| {
                tx.free(block);
                if first {
                    first = false;
                    return Err(TxError::Abort(votm::AbortReason::Explicit)); // freed block must survive
                }
                Ok(())
            })
            .await;
        });
    }
    assert_eq!(ex.run().status, RunStatus::Completed);
    assert_eq!(view.heap().live_blocks(), 0, "free applied exactly once");
}

/// The paper's headline qualitative claim (§III-D): OrecEagerRedo livelocks
/// under a hot, write-heavy workload with unrestricted admission — and RAC
/// prevents the livelock by throttling Q.
#[test]
fn orec_hotspot_livelocks_without_rac_and_survives_with_it() {
    fn hot_run(quota: QuotaMode, cap: u64) -> (RunStatus, u32) {
        let system = Votm::builder()
            .algo(TmAlgorithm::OrecEagerRedo)
            .threads(16)
            .controller(votm_rac::ControllerConfig {
                window_attempts: 64,
            })
            .build();
        let view = system.create_view(64, quota);
        let mut ex = SimExecutor::new(SimConfig {
            vtime_cap: Some(cap),
            ..Default::default()
        });
        for t in 0..16u64 {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                let mut rng = votm_utils::XorShift64::new(t + 1);
                for _ in 0..40 {
                    view.transact(&rt, async |tx| {
                        // 16 read-modify-writes over 16 hot words: long
                        // transactions with dense write-write conflicts —
                        // the livelock recipe (lock-mode baseline completes
                        // by vtime ~130k; unrestricted needs ~10M).
                        for _ in 0..16 {
                            let a = Addr(rng.next_below(16) as u32);
                            let v = tx.read(a).await?;
                            tx.write(a, v + 1).await?;
                        }
                        Ok(())
                    })
                    .await;
                }
            });
        }
        let status = ex.run().status;
        (status, view.gate().quota())
    }

    let (unrestricted, _) = hot_run(QuotaMode::Unrestricted, 3_000_000);
    assert_eq!(
        unrestricted,
        RunStatus::Livelock,
        "unrestricted hot workload should livelock within the budget"
    );
    let (adaptive, settled_q) = hot_run(QuotaMode::Adaptive, 3_000_000);
    assert_eq!(adaptive, RunStatus::Completed, "RAC must ensure progress");
    assert!(
        settled_q <= 2,
        "RAC should have throttled the quota hard, got {settled_q}"
    );
}

/// Observation 2's mechanism: a livelocking view must not throttle an
/// independent low-contention view.
#[test]
fn multi_view_isolates_contention() {
    let system = Votm::builder()
        .algo(TmAlgorithm::OrecEagerRedo)
        .threads(8)
        .controller(votm_rac::ControllerConfig {
            window_attempts: 32,
        })
        .build();
    let hot = system.create_view(16, QuotaMode::Adaptive);
    let cold = system.create_view(4096, QuotaMode::Adaptive);
    let mut ex = SimExecutor::new(SimConfig {
        vtime_cap: Some(20_000_000),
        ..Default::default()
    });
    for t in 0..8u64 {
        let hot = Arc::clone(&hot);
        let cold = Arc::clone(&cold);
        ex.spawn(move |rt| async move {
            let mut rng = votm_utils::XorShift64::new(t + 1);
            for i in 0..60 {
                if i % 2 == 0 {
                    hot.transact(&rt, async |tx| {
                        for _ in 0..6 {
                            let a = Addr(rng.next_below(4) as u32);
                            let v = tx.read(a).await?;
                            tx.write(a, v + 1).await?;
                        }
                        Ok(())
                    })
                    .await;
                } else {
                    cold.transact(&rt, async |tx| {
                        let a = Addr((t * 512 + rng.next_below(512)) as u32);
                        let v = tx.read(a).await?;
                        Ok(tx.write(a, v + 1).await?)
                    })
                    .await;
                }
            }
        });
    }
    assert_eq!(ex.run().status, RunStatus::Completed);
    let hot_stats = hot.stats();
    let cold_stats = cold.stats();
    assert_eq!(hot_stats.tm.commits, 8 * 30);
    assert_eq!(cold_stats.tm.commits, 8 * 30);
    assert!(
        hot_stats.quota < 8,
        "hot view should be throttled (Q={})",
        hot_stats.quota
    );
    assert_eq!(
        cold_stats.quota, 8,
        "cold view must keep full concurrency (Observation 2)"
    );
    assert!(cold_stats.tm.aborts < hot_stats.tm.aborts);
}

#[test]
fn unrestricted_views_never_block_on_the_gate() {
    // With quota == N and no controller, all N threads can dwell inside
    // simultaneously; completion time should reflect parallelism.
    let system = sys(TmAlgorithm::NOrec, 8);
    let view = system.create_view(4096, QuotaMode::Unrestricted);
    let mut ex = SimExecutor::new(SimConfig::default());
    for t in 0..8u32 {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            for i in 0..20u64 {
                view.transact(&rt, async |tx| {
                    // Disjoint slots: no conflicts, pure parallelism.
                    tx.write(Addr(t * 8), i).await?;
                    tx.local_work(0, 0, 1000).await;
                    Ok(())
                })
                .await;
            }
        });
    }
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Completed);
    // 20 tx × ~1000 nops each ≈ 20k cycles of compute per thread; in
    // parallel the makespan must be far below the serial sum (8 × that).
    assert!(
        out.vtime < 80_000,
        "no parallelism: makespan {} suggests serialised execution",
        out.vtime
    );
}

/// Gate-wait accounting: under a tight quota threads measurably queue at
/// the admission gate; unrestricted views never do.
#[test]
fn gate_wait_cycles_reflect_admission_blocking() {
    fn run(quota: QuotaMode) -> u64 {
        let system = sys(TmAlgorithm::NOrec, 8);
        let view = system.create_view(1024, quota);
        let mut ex = SimExecutor::new(SimConfig::default());
        for t in 0..8u32 {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                for i in 0..20u64 {
                    view.transact(&rt, async |tx| {
                        tx.write(Addr(t * 16), i).await?; // disjoint: no conflicts
                        tx.local_work(0, 0, 500).await;
                        Ok(())
                    })
                    .await;
                }
            });
        }
        assert_eq!(ex.run().status, RunStatus::Completed);
        view.stats().tm.gate_wait_cycles
    }
    assert_eq!(run(QuotaMode::Unrestricted), 0, "no gate, no waiting");
    let waited = run(QuotaMode::Fixed(2));
    assert!(
        waited > 100_000,
        "8 threads through a Q=2 gate must queue substantially, got {waited}"
    );
}

/// A fast-path admission is no gate wait on real threads either: the gate
/// times only its slow path, so a lone thread (which never leaves the fast
/// path) books no wait cycles and puts no `GateWaitEnter`/`GateWaitExit`
/// pair on the trace. Timing admission from outside with two `rdtsc`s made
/// every attempt a ~40-cycle "wait".
#[test]
fn real_thread_fast_path_admission_books_no_gate_wait() {
    const TXNS: u64 = 200;
    let rec = Arc::new(FlightRecorder::with_default_capacity(2));
    let system = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(2)
        .recorder(Arc::clone(&rec))
        .build();
    let view = system.create_view(64, QuotaMode::Fixed(2));
    let worker_view = Arc::clone(&view);
    run_parallel(1, move |_, rt| {
        let view = Arc::clone(&worker_view);
        async move {
            for i in 0..TXNS {
                view.transact(&rt, async |tx| Ok(tx.write(Addr(0), i).await?))
                    .await;
            }
        }
    });
    let stats = view.stats();
    assert_eq!(stats.tm.commits, TXNS);
    assert_eq!(stats.tm.gate_wait_cycles, 0);
    // Every admission is on the histogram, all in the zero bucket.
    let gate_wait = view.hists().gate_wait.snapshot();
    assert_eq!((gate_wait.count(), gate_wait.buckets[0]), (TXNS, TXNS));
    let events: Vec<_> = rec.snapshot().into_iter().flat_map(|t| t.events).collect();
    let begins = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TxBegin { .. }))
        .count() as u64;
    assert_eq!(begins, TXNS, "the recorder was live");
    assert!(!events.iter().any(|e| matches!(
        e.kind,
        EventKind::GateWaitEnter { .. } | EventKind::GateWaitExit { .. }
    )));
}

/// The paper's future-work sketch (§IV-C): each view can run a different
/// TM algorithm, because views are fully independent TM instances.
#[test]
fn mixed_algorithm_views_interoperate() {
    let system = sys(TmAlgorithm::NOrec, 8);
    let norec_view = system.create_view(64, QuotaMode::Adaptive);
    let orec_view =
        system.create_view_with_algorithm(64, QuotaMode::Adaptive, TmAlgorithm::OrecEagerRedo);
    let mut ex = SimExecutor::new(SimConfig::default());
    for _ in 0..8 {
        let a = Arc::clone(&norec_view);
        let b = Arc::clone(&orec_view);
        ex.spawn(move |rt| async move {
            for _ in 0..25 {
                a.transact(&rt, async |tx| {
                    let v = tx.read(Addr(0)).await?;
                    Ok(tx.write(Addr(0), v + 1).await?)
                })
                .await;
                b.transact(&rt, async |tx| {
                    let v = tx.read(Addr(0)).await?;
                    Ok(tx.write(Addr(0), v + 1).await?)
                })
                .await;
            }
        });
    }
    assert_eq!(ex.run().status, RunStatus::Completed);
    assert_eq!(norec_view.heap().load(Addr(0)), 200);
    assert_eq!(orec_view.heap().load(Addr(0)), 200);
}

#[test]
fn deterministic_sim_runs_are_bit_identical() {
    let run = |seed: u64| -> (u64, u64) {
        let system = sys(TmAlgorithm::OrecEagerRedo, 8);
        let view = system.create_view(64, QuotaMode::Fixed(8));
        let mut ex = SimExecutor::new(SimConfig {
            seed,
            ..Default::default()
        });
        for t in 0..8u64 {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                let mut rng = votm_utils::XorShift64::new(t);
                for _ in 0..30 {
                    view.transact(&rt, async |tx| {
                        let a = Addr(rng.next_below(16) as u32);
                        let v = tx.read(a).await?;
                        Ok(tx.write(a, v + 1).await?)
                    })
                    .await;
                }
            });
        }
        let out = ex.run();
        (out.vtime, view.stats().tm.aborts)
    };
    assert_eq!(run(42), run(42), "same seed, same makespan and aborts");
}

/// A body may call `transact` on the view it is already inside. The outer
/// transaction holds the thread's pooled descriptor, so the inner one must
/// get one of its own: were the two to share, the inner `begin()` would
/// wipe the outer's buffered writes (or trip its `!active` assertion).
#[test]
fn nested_transact_on_the_same_view_gets_its_own_descriptor() {
    const ROUNDS: u64 = 3;
    for algo in TmAlgorithm::ALL {
        let system = sys(algo, 2);
        // Quota 2: the outer transaction keeps its admission while the
        // inner one is admitted.
        let view = system.create_view(256, QuotaMode::Fixed(2));
        let mut ex = SimExecutor::new(SimConfig::default());
        let v = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            for round in 0..ROUNDS {
                v.transact(&rt, async |tx| {
                    tx.write(Addr(0), 10 + round).await?;
                    assert!(!v.descriptor_pooled(0), "the outer transaction holds it");
                    v.transact(&rt, async |inner| {
                        let n = inner.read(Addr(64)).await?;
                        Ok(inner.write(Addr(64), n + 1).await?)
                    })
                    .await;
                    assert!(v.descriptor_pooled(0), "the inner one pooled its own");
                    // The outer write set survived the inner transaction.
                    assert_eq!(tx.read(Addr(0)).await?, 10 + round, "{algo:?}");
                    Ok(tx.write(Addr(128), round).await?)
                })
                .await;
            }
        });
        assert_eq!(ex.run().status, RunStatus::Completed, "{algo:?}");
        assert_eq!(view.heap().load(Addr(0)), 10 + ROUNDS - 1, "{algo:?}");
        assert_eq!(view.heap().load(Addr(64)), ROUNDS, "{algo:?}");
        assert_eq!(view.heap().load(Addr(128)), ROUNDS - 1, "{algo:?}");
        assert_eq!(view.stats().tm.commits, 2 * ROUNDS, "{algo:?}");
        assert_eq!(view.stats().tm.aborts, 0, "{algo:?}");
    }
}
