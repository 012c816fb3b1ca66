//! Workspace-level integration tests: exercise the whole stack (utils →
//! sim → stm → rac → votm → ds → workloads) through the public API only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use votm_repro::ds::{BoundedBuffer, TxHashMap, TxList, TxQueue};
use votm_repro::model;
use votm_repro::sim::{run_parallel, RunStatus, SimConfig, SimExecutor};
use votm_repro::votm::{Addr, EventKind, FlightRecorder, QuotaMode, TmAlgorithm, Votm};

/// A producer/consumer pipeline across two views — queue in one, results
/// map in the other — mirroring Intruder's view partition, checked for
/// exact conservation end to end.
#[test]
fn two_view_pipeline_conserves_all_items() {
    for algo in TmAlgorithm::ALL {
        let sys = Votm::builder().algo(algo).threads(8).build();
        let qview = sys.create_view(16_384, QuotaMode::Adaptive);
        let mview = sys.create_view(65_536, QuotaMode::Adaptive);
        let queue = TxQueue::create(&qview);
        let map = TxHashMap::create(&mview, 128);
        const ITEMS: u64 = 300;
        for i in 0..ITEMS {
            queue.push_back_direct(&qview, i);
        }
        let mut ex = SimExecutor::new(SimConfig::default());
        for _ in 0..8 {
            let qview = Arc::clone(&qview);
            let mview = Arc::clone(&mview);
            ex.spawn(move |rt| async move {
                loop {
                    let item = qview
                        .transact(&rt, async |tx| queue.pop_front(tx).await)
                        .await;
                    let Some(v) = item else { break };
                    mview
                        .transact(&rt, async |tx| {
                            map.insert(tx, v, v * 3).await?;
                            Ok(())
                        })
                        .await;
                }
            });
        }
        assert_eq!(ex.run().status, RunStatus::Completed, "{algo:?}");
        // Verify every item landed exactly once.
        let mut ex2 = SimExecutor::new(SimConfig::default());
        let mview2 = Arc::clone(&mview);
        ex2.spawn(move |rt| async move {
            mview2
                .transact_ro(&rt, async |tx| {
                    assert_eq!(map.len(tx).await?, ITEMS);
                    for i in 0..ITEMS {
                        assert_eq!(map.get(tx, i).await?, Some(i * 3));
                    }
                    Ok(())
                })
                .await;
        });
        assert_eq!(ex2.run().status, RunStatus::Completed, "{algo:?}");
    }
}

/// The measured δ(Q) from a run feeds the analytic model consistently: a
/// view the workload hammers reports δ > 1, and Observation 1 says to
/// decrease — which the adaptive controller indeed did.
#[test]
fn measured_delta_agrees_with_model_advice() {
    let sys = Votm::builder()
        .algo(TmAlgorithm::OrecEagerRedo)
        .threads(16)
        .build();
    // Fixed high quota on a hot view: we *expect* a high measured delta.
    let view = sys.create_view(64, QuotaMode::Fixed(16));
    let mut ex = SimExecutor::new(SimConfig::default());
    for t in 0..16u64 {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            let mut rng = votm_repro::utils::XorShift64::new(t + 1);
            for _ in 0..30 {
                view.transact(&rt, async |tx| {
                    // Eigenbench view-1 recipe: long transactions with many
                    // random reads and several random writes over a small
                    // hot array — any concurrent commit invalidates the
                    // read set, so aborted work dominates and delta > 1.
                    let mut acc = 0u64;
                    for k in 0..32 {
                        let a = Addr(rng.next_below(24) as u32);
                        acc = acc.wrapping_add(tx.read(a).await?);
                        if k % 4 == 0 {
                            let w = Addr(rng.next_below(24) as u32);
                            tx.write(w, acc).await?;
                        }
                    }
                    Ok(())
                })
                .await;
            }
        });
    }
    assert_eq!(ex.run().status, RunStatus::Completed);
    let stats = view.stats();
    let delta = stats.delta().expect("Q=16 has a defined delta");
    assert!(
        delta > 1.0,
        "hot view should measure delta > 1, got {delta}"
    );
    assert_eq!(
        model::observation1(Some(delta)),
        model::QuotaAdvice::Decrease
    );
}

/// Real OS threads driving the full stack (gate + STM + list) — validates
/// the atomics under genuine preemption, not just simulated interleaving.
#[test]
fn real_thread_list_inserts_complete_and_sorted() {
    let sys = Arc::new(Votm::builder().algo(TmAlgorithm::NOrec).threads(6).build());
    let view = sys.create_view(65_536, QuotaMode::Adaptive);
    let list = TxList::create(&view);
    let v2 = Arc::clone(&view);
    run_parallel(6, move |t, rt| {
        let view = Arc::clone(&v2);
        async move {
            let mut rng = votm_repro::utils::XorShift64::new(t as u64 + 1);
            for _ in 0..50 {
                let k = rng.next_below(10_000);
                view.transact(&rt, async |tx| list.insert(tx, k).await)
                    .await;
            }
        }
    });
    // Single-threaded verification pass.
    let mut ex = SimExecutor::new(SimConfig::default());
    let v3 = Arc::clone(&view);
    ex.spawn(move |rt| async move {
        let keys = v3.transact_ro(&rt, async |tx| list.to_vec(tx).await).await;
        assert_eq!(keys.len(), 300);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    });
    assert_eq!(ex.run().status, RunStatus::Completed);
}

/// `retry()` on real OS threads: a consumer that finds the buffer empty
/// parks on the one word it read and a producer's commit wakes it. The
/// producer holds its first push until the consumer's `Park` is on the
/// trace, so the park is forced, not raced. The key must be that word's
/// Bloom bit, not the park-on-everything fallback: reads that finish in
/// place still book the read summary.
#[test]
fn real_thread_retry_parks_on_its_read_set() {
    const ITEMS: u64 = 100;
    let rec = Arc::new(FlightRecorder::with_default_capacity(2));
    let sys = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(2)
        .recorder(Arc::clone(&rec))
        .build();
    let view = sys.create_view(64, QuotaMode::Fixed(2));
    let buf = BoundedBuffer::create(&view, 2);
    let sum = Arc::new(AtomicU64::new(0));
    let park_keys = |rec: &FlightRecorder| -> Vec<u64> {
        rec.snapshot()
            .into_iter()
            .flat_map(|t| t.events)
            .filter_map(|e| match e.kind {
                EventKind::Park { summary, .. } => Some(summary),
                _ => None,
            })
            .collect()
    };
    let (v2, r2, s2) = (Arc::clone(&view), Arc::clone(&rec), Arc::clone(&sum));
    run_parallel(2, move |t, rt| {
        let (view, rec, sum) = (Arc::clone(&v2), Arc::clone(&r2), Arc::clone(&s2));
        async move {
            if t == 0 {
                while park_keys(&rec).is_empty() {
                    std::thread::yield_now();
                }
                for i in 1..=ITEMS {
                    view.transact(&rt, async |tx| buf.push(tx, i).await).await;
                }
            } else {
                for _ in 0..ITEMS {
                    let v = view.transact(&rt, async |tx| buf.pop(tx).await).await;
                    sum.fetch_add(v, Ordering::Relaxed);
                }
            }
        }
    });
    assert_eq!(sum.load(Ordering::Relaxed), ITEMS * (ITEMS + 1) / 2);
    let tm = view.stats().tm;
    assert!(tm.parked_waits > 0, "the consumer began on an empty buffer");
    assert_eq!(tm.lost_wakeups, 0);
    let keys = park_keys(&rec);
    assert!(!keys.is_empty());
    for key in keys {
        assert_eq!(
            key.count_ones(),
            1,
            "park key {key:#x}: a blocked push or pop read only the `len` word"
        );
    }
}

/// Workload determinism across the full stack: same seeds, same makespan,
/// same statistics — the property every table in EXPERIMENTS.md relies on.
#[test]
fn full_stack_runs_are_reproducible() {
    let run = |seed: u64| {
        let config = {
            let mut c = votm_repro::eigenbench::EigenConfig::paper_table2(0.0002);
            c.n_threads = 8;
            c.seed = seed;
            c
        };
        let res = votm_repro::eigenbench::run_sim(
            &config,
            TmAlgorithm::OrecEagerRedo,
            votm_repro::eigenbench::Version::MultiView,
            [QuotaMode::Adaptive, QuotaMode::Adaptive],
            SimConfig {
                seed,
                ..Default::default()
            },
        );
        (res.outcome.vtime, res.views[0].tm, res.views[1].tm)
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9).0, run(10).0, "different seeds should differ");
}

/// The paper's API surface is reachable end to end: create, brk, alloc,
/// transact, free, destroy.
#[test]
fn paper_api_lifecycle() {
    let sys = Votm::builder().reserve_factor(4).threads(2).build();
    let view = sys.create_view(8, QuotaMode::Adaptive);
    assert!(view.alloc_block(16).is_none(), "8-word view can't fit 16");
    assert_eq!(view.brk_view(24), Some(32));
    let block = view.alloc_block(16).expect("fits after brk_view");
    let mut ex = SimExecutor::new(SimConfig::default());
    {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            view.transact(&rt, async |tx| {
                tx.write(block, 7).await?;
                let inner = tx.alloc(4)?;
                tx.write(inner, 9).await?;
                tx.free(inner);
                Ok(())
            })
            .await;
        });
    }
    assert_eq!(ex.run().status, RunStatus::Completed);
    assert_eq!(view.heap().load(block), 7);
    assert_eq!(view.heap().live_blocks(), 1, "inner block freed at commit");
    view.free_block(block);
    sys.destroy_view(&view);
    assert!(sys.view(view.id()).is_none());
}
