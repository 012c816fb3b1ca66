//! Crash-safety acceptance tests: a panicking transaction body must never
//! strand admission (P), orec locks, or the NOrec seqlock. The view has to
//! remain fully usable — subsequent transactions on *other* tasks and in
//! *later* runs must commit normally.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use votm::{Addr, QuotaMode, TmAlgorithm, TxError, View, Votm};
use votm_sim::{FaultPlan, PanicPolicy, RunStatus, SimConfig, SimExecutor};

fn sys(algo: TmAlgorithm, n_threads: u32) -> Votm {
    Votm::builder().algo(algo).threads(n_threads).build()
}

/// Runs one increment transaction against `view` on a fresh executor and
/// asserts it commits — the post-crash usability check.
fn assert_view_still_usable(view: &Arc<View>) {
    let before = {
        let mut ex = SimExecutor::new(SimConfig::default());
        let v = Arc::clone(view);
        ex.spawn(move |rt| async move {
            v.transact(&rt, async |tx| {
                let v = tx.read(Addr(0)).await?;
                Ok(tx.write(Addr(0), v + 1).await?)
            })
            .await;
        });
        assert_eq!(ex.run().status, RunStatus::Completed);
        view.heap().load(Addr(0))
    };
    // And once more, to prove the first recovery didn't strand anything.
    let mut ex = SimExecutor::new(SimConfig::default());
    let v = Arc::clone(view);
    ex.spawn(move |rt| async move {
        v.transact(&rt, async |tx| {
            let v = tx.read(Addr(0)).await?;
            Ok(tx.write(Addr(0), v + 1).await?)
        })
        .await;
    });
    assert_eq!(ex.run().status, RunStatus::Completed);
    assert_eq!(view.heap().load(Addr(0)), before + 1);
}

/// One task panics mid-body (after a transactional write and an alloc);
/// with [`PanicPolicy::Isolate`] the survivors must finish their full
/// workload, the gate must drain to zero, the crashed attempt's write and
/// allocation must be rolled back, and the view must stay usable.
fn panicking_body_leaves_view_usable(algo: TmAlgorithm) {
    const TASKS: u64 = 4;
    const ITERS: u64 = 10;
    let system = sys(algo, TASKS as u32);
    let view = system.create_view(256, QuotaMode::Fixed(TASKS as u32));
    let blocks_before = view.heap().live_blocks();

    let mut ex = SimExecutor::new(SimConfig {
        panic_policy: PanicPolicy::Isolate,
        ..Default::default()
    });
    for t in 0..TASKS {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            for i in 0..ITERS {
                view.transact(&rt, async |tx| {
                    let v = tx.read(Addr(0)).await?;
                    tx.write(Addr(0), v + 1).await?;
                    if t == 0 && i == 3 {
                        // Crash with a live write-set entry and a live
                        // attempt-local allocation.
                        let _leak = tx.alloc(8)?;
                        panic!("deliberate mid-transaction crash");
                    }
                    Ok(())
                })
                .await;
            }
        });
    }
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Completed, "{algo:?}");
    assert_eq!(out.faults.tasks_killed_by_panic, 1, "{algo:?}");

    // Admission fully released despite the unwind.
    assert_eq!(view.gate().inside(), 0, "{algo:?}: stranded admission");
    // Task 0 committed 3 increments before crashing; survivors all ITERS.
    assert_eq!(
        view.heap().load(Addr(0)),
        3 + (TASKS - 1) * ITERS,
        "{algo:?}: crashed attempt's write must be rolled back"
    );
    // The crashed attempt's allocation was rolled back too (`used_words` is
    // a high-water mark, so leak-check via live block count).
    assert_eq!(
        view.heap().live_blocks(),
        blocks_before,
        "{algo:?}: leaked allocation from unwound attempt"
    );
    // The crashed attempt was booked as an abort, not silently dropped.
    assert!(view.stats().tm.aborts >= 1, "{algo:?}");

    assert_view_still_usable(&view);
}

#[test]
fn panicking_body_leaves_view_usable_norec() {
    panicking_body_leaves_view_usable(TmAlgorithm::NOrec);
}

#[test]
fn panicking_body_leaves_view_usable_orec_eager() {
    panicking_body_leaves_view_usable(TmAlgorithm::OrecEagerRedo);
}

#[test]
fn panicking_body_leaves_view_usable_orec_lazy() {
    panicking_body_leaves_view_usable(TmAlgorithm::OrecLazy);
}

/// Under [`PanicPolicy::Propagate`] the panic re-raises from `run()`; the
/// drop guards must already have recovered the view by the time
/// `catch_unwind` sees it.
#[test]
fn propagated_panic_unwinds_clean_through_catch_unwind() {
    for algo in [TmAlgorithm::NOrec, TmAlgorithm::OrecEagerRedo] {
        let system = sys(algo, 2);
        let view = system.create_view(64, QuotaMode::Fixed(2));

        let mut ex = SimExecutor::new(SimConfig::default());
        let v = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            v.transact(&rt, async |tx| {
                tx.write(Addr(0), 42).await?;
                panic!("deliberate crash under Propagate");
                #[allow(unreachable_code)]
                Ok(())
            })
            .await;
        });
        let err = catch_unwind(AssertUnwindSafe(|| ex.run()));
        assert!(err.is_err(), "{algo:?}: panic must propagate");

        assert_eq!(view.gate().inside(), 0, "{algo:?}");
        assert_eq!(view.heap().load(Addr(0)), 0, "{algo:?}: torn write");
        assert_view_still_usable(&view);
    }
}

/// A panic injected *mid-commit* (between a `NeedsFinish` writeback and
/// `commit_finish`) cannot abort — the drop guard must finish the commit
/// instead, releasing the seqlock/orecs at the commit timestamp.
#[test]
fn injected_midcommit_panic_finishes_the_commit() {
    for algo in [TmAlgorithm::NOrec, TmAlgorithm::OrecEagerRedo] {
        const TASKS: u64 = 4;
        const ITERS: u64 = 25;
        let system = sys(algo, TASKS as u32);
        let view = system.create_view(64, QuotaMode::Fixed(TASKS as u32));
        let committed = Arc::new(AtomicU64::new(0));

        let mut ex = SimExecutor::new(SimConfig {
            panic_policy: PanicPolicy::Isolate,
            fault_plan: Some(FaultPlan {
                seed: 99,
                panic_percent: 4,
                max_panics: 2,
                ..Default::default()
            }),
            ..Default::default()
        });
        for _ in 0..TASKS {
            let view = Arc::clone(&view);
            let committed = Arc::clone(&committed);
            ex.spawn(move |rt| async move {
                for _ in 0..ITERS {
                    view.transact(&rt, async |tx| {
                        let v = tx.read(Addr(0)).await?;
                        Ok(tx.write(Addr(0), v + 1).await?)
                    })
                    .await;
                    // Only counted when transact returned, i.e. the commit
                    // completed without unwinding through us.
                    committed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed, "{algo:?}");
        assert!(out.faults.panics >= 1, "{algo:?}: no panic injected");

        assert_eq!(view.gate().inside(), 0, "{algo:?}");
        // Every panic unwound a transaction that either aborted cleanly or
        // was finished by the drop guard — so the counter must equal the
        // total commits booked by the stats, and nothing may be lost or
        // doubled relative to the loop iterations that completed.
        let count = view.heap().load(Addr(0));
        let observed = committed.load(Ordering::Relaxed);
        assert!(
            count >= observed && count <= TASKS * ITERS,
            "{algo:?}: counter {count} vs observed {observed}"
        );
        assert_eq!(view.stats().tm.commits, count, "{algo:?}");
        assert_view_still_usable(&view);
    }
}

/// A transaction descriptor leaves its view's per-thread slot for the
/// length of a transaction and returns only through a commit. A task that
/// dies inside a transaction — mid-body, or mid-commit where the drop guard
/// finishes the commit for it — therefore takes its descriptor with it:
/// the slot stays empty, never holding a context that was live or
/// mid-commit when its owner unwound. The survivors keep theirs, and the
/// next run's transactions on every thread index (the dead one's included,
/// on a freshly built descriptor) commit correctly.
#[test]
fn crashed_tasks_descriptor_is_dropped_not_pooled() {
    const TASKS: u64 = 4;
    const ITERS: u64 = 25;
    // Each task increments its own word (far enough apart to sit on
    // different orecs), so nobody aborts and the victim draws exactly three
    // faults per transaction: after the read, after the write, mid-commit.
    let word = |t: u64| Addr(t as u32 * 16);
    for algo in TmAlgorithm::ALL {
        for want_mid_commit in [false, true] {
            // Fault seeds are swept until the one injected panic lands in
            // the wanted window; which window it was is read off the log.
            let covered = (1..200u64).any(|fault_seed| {
                let system = sys(algo, TASKS as u32);
                let view = system.create_view(256, QuotaMode::Fixed(TASKS as u32));
                let returned = Arc::new(AtomicU64::new(0));
                let mut ex = SimExecutor::new(SimConfig {
                    panic_policy: PanicPolicy::Isolate,
                    fault_plan: Some(FaultPlan {
                        seed: fault_seed,
                        panic_percent: 5,
                        max_panics: 1,
                        target_task: Some(0),
                        ..Default::default()
                    }),
                    ..Default::default()
                });
                for t in 0..TASKS {
                    let view = Arc::clone(&view);
                    let returned = Arc::clone(&returned);
                    ex.spawn(move |rt| async move {
                        for _ in 0..ITERS {
                            view.transact(&rt, async |tx| {
                                let v = tx.read(word(t)).await?;
                                Ok(tx.write(word(t), v + 1).await?)
                            })
                            .await;
                            if t == 0 {
                                returned.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
                let out = ex.run();
                assert_eq!(out.status, RunStatus::Completed, "{algo:?}");
                let Some(panic) = out.fault_log.first() else {
                    return false; // this seed never fired
                };
                assert_eq!(view.stats().tm.aborts, u64::from(panic.draw % 3 != 2));
                if (panic.draw % 3 == 2) != want_mid_commit {
                    return false;
                }
                let returned = returned.load(Ordering::Relaxed);
                assert_eq!(
                    panic.draw / 3,
                    returned,
                    "{algo:?}: one transaction per 3 draws"
                );
                // Mid-commit the drop guard finished the commit; mid-body it
                // rolled the attempt back.
                assert_eq!(
                    view.heap().load(word(0)),
                    returned + u64::from(want_mid_commit),
                    "{algo:?} mid_commit={want_mid_commit}"
                );
                assert_eq!(view.gate().inside(), 0, "{algo:?}");
                assert!(
                    !view.descriptor_pooled(0),
                    "{algo:?} mid_commit={want_mid_commit}: the dead task's descriptor was pooled"
                );
                for t in 1..TASKS as usize {
                    assert!(view.descriptor_pooled(t), "{algo:?}: survivor {t}");
                }

                let mut ex = SimExecutor::new(SimConfig::default());
                for t in 0..TASKS {
                    let view = Arc::clone(&view);
                    ex.spawn(move |rt| async move {
                        for _ in 0..ITERS {
                            view.transact(&rt, async |tx| {
                                let v = tx.read(word(t)).await?;
                                Ok(tx.write(word(t), v + 1).await?)
                            })
                            .await;
                        }
                    });
                }
                assert_eq!(ex.run().status, RunStatus::Completed, "{algo:?}");
                assert_eq!(
                    view.heap().load(word(0)),
                    returned + u64::from(want_mid_commit) + ITERS
                );
                for t in 1..TASKS {
                    assert_eq!(view.heap().load(word(t)), 2 * ITERS, "{algo:?}: task {t}");
                }
                assert!(view.descriptor_pooled(0), "{algo:?}: rebuilt and pooled");
                true
            });
            assert!(
                covered,
                "{algo:?}: no fault seed put the panic mid_commit={want_mid_commit}"
            );
        }
    }
}

/// Alloc-then-abort, repeated, must leave the view heap's occupancy
/// unchanged for every algorithm — the rollback path frees attempt-local
/// allocations exactly once.
#[test]
fn alloc_then_abort_conserves_heap_occupancy() {
    for algo in TmAlgorithm::ALL {
        const TASKS: u32 = 4;
        const ABORTS_EACH: u64 = 20;
        let system = sys(algo, TASKS);
        let view = system.create_view(4096, QuotaMode::Fixed(TASKS));
        let blocks_before = view.heap().live_blocks();

        let mut ex = SimExecutor::new(SimConfig::default());
        for _ in 0..TASKS {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                let mut failures = 0u64;
                view.transact(&rt, async |tx| {
                    let addr = tx.alloc(16)?;
                    tx.write(addr, 7).await?;
                    if failures < ABORTS_EACH {
                        failures += 1;
                        return Err(TxError::Abort(votm::AbortReason::Explicit));
                    }
                    // Final attempt: free our own allocation at commit so
                    // the committed state is also occupancy-neutral.
                    tx.free(addr);
                    Ok(())
                })
                .await;
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed, "{algo:?}");
        assert_eq!(
            view.heap().live_blocks(),
            blocks_before,
            "{algo:?}: abort leaked blocks"
        );
        // `used_words` is a high-water mark; conservation shows up as block
        // *reuse*: ~84 alloc attempts per run must cost at most one live
        // block's worth of watermark per task, not one per attempt.
        assert!(
            view.heap().used_words() <= 16 * u64::from(TASKS) as usize,
            "{algo:?}: rollback failed to return blocks to the free list \
             (watermark {})",
            view.heap().used_words()
        );
        assert!(view.stats().tm.aborts >= u64::from(TASKS) * ABORTS_EACH);
    }
}

/// `alloc` grows the view once via `brk_view` before failing; exhaustion is
/// an error value, not a panic, and converts to a retryable [`TxError`].
#[test]
fn alloc_exhaustion_is_fallible_not_fatal() {
    let system = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(1)
        .reserve_factor(2) // one doubling available to brk_view
        .build();
    let view = system.create_view(64, QuotaMode::Unrestricted);
    let outcome = Arc::new(AtomicU64::new(0));
    let out2 = Arc::clone(&outcome);
    let v = Arc::clone(&view);
    let mut ex = SimExecutor::new(SimConfig::default());
    ex.spawn(move |rt| async move {
        v.transact(&rt, async |tx| {
            // 64 usable words, 128 reserved. First block fits outright.
            let a = tx.alloc(60).expect("fits in the initial 64 words");
            // Second block only fits after the automatic one-shot brk_view
            // growth (60 + 60 > 64, but ≤ 128 reserved).
            let b = tx.alloc(60).expect("fits after automatic brk growth");
            // A third cannot fit even with growth: error, not panic.
            match tx.alloc(200) {
                Err(TxError::HeapExhausted { requested_words }) => {
                    assert_eq!(requested_words, 200);
                    out2.store(1, Ordering::Relaxed);
                }
                Err(e) => panic!("expected HeapExhausted, got {e:?}"),
                Ok(_) => panic!("200 words cannot fit in a 128-word view"),
            }
            tx.free(a);
            tx.free(b);
            Ok(())
        })
        .await;
    });
    assert_eq!(ex.run().status, RunStatus::Completed);
    assert_eq!(outcome.load(Ordering::Relaxed), 1);
}
