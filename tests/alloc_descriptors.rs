//! A steady-state transaction makes no allocator call.
//!
//! The counting-allocator discipline of `tests/alloc_steady.rs` and
//! `tests/alloc_park.rs`, applied to the transaction driver
//! itself. Each transaction reads 24 words and writes 12, so the read set
//! (8 inline), the write set's hash index (8 inline) and the orec lock list
//! all spill to the heap, and allocates and frees one block, so both side
//! logs are used. The view keeps one descriptor per logical thread and lends
//! it to every attempt of every transaction (DESIGN.md §4 "Persistent
//! descriptors"), so once each thread's descriptor has grown to the size of
//! its transactions nothing more is allocated: not by commits, not by
//! aborted attempts.
//!
//! Checked for all three algorithms under both executors:
//!
//! * the simulator, 16 tasks contending on one hot region, so the measured
//!   window holds conflict aborts as well as commits;
//! * one real thread, where every other transaction aborts its first
//!   attempt explicitly (a single thread has no conflicts).
//!
//! The window opens only after every task has finished its warm-up
//! transactions and closes when the last task finishes, both read from
//! inside the run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use votm::{AbortReason, Addr, QuotaMode, TmAlgorithm, TxError, View, Votm};
use votm_sim::{run_parallel, Notify, Rt, RunStatus, SimConfig, SimExecutor};
use votm_utils::XorShift64;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const READS: u32 = 24;
const WRITES: u32 = 12;
/// Words every transaction draws its addresses from.
const HOT: u32 = 128;
/// Simulated tasks pause up to this many cycles between transactions, or
/// the deterministic schedule keeps conflicting attempts in lockstep and
/// encounter-time locking never gets out of its livelock.
const THINK: u64 = 4_000;
const WARM_UP: u64 = 40;
const MEASURED: u64 = 200;

/// One transaction: `READS` distinct reads and `WRITES` distinct writes in
/// the hot region from `base`, one block allocated and freed. With
/// `abort_first`, the first attempt runs all of that and then aborts.
async fn big_transaction(view: &View, rt: &Rt, base: u32, abort_first: bool) {
    let mut abort_pending = abort_first;
    view.transact(rt, async |tx| {
        let mut sum = 0u64;
        for i in 0..READS {
            sum = sum.wrapping_add(tx.read(Addr((base + 5 * i) % HOT)).await?);
        }
        for i in 0..WRITES {
            // Never the value already there: NOrec validates by value.
            let value = sum.wrapping_add(u64::from(base + i) + 1);
            tx.write(Addr((base + 64 + 3 * i) % HOT), value).await?;
        }
        let block = tx.alloc(2)?;
        tx.free(block);
        if std::mem::take(&mut abort_pending) {
            return Err(TxError::Abort(AbortReason::Explicit));
        }
        Ok(())
    })
    .await
}

/// What a measured window saw.
struct Window {
    allocator_calls: u64,
    commits: u64,
    aborts: u64,
}

fn new_view(algo: TmAlgorithm, threads: u32, quota: u32) -> Arc<View> {
    let sys = Votm::builder().algo(algo).threads(threads).build();
    let view = sys.create_view(4096, QuotaMode::Fixed(quota));
    // The hot region is raw words; blocks come from above it.
    assert_eq!(view.alloc_block(HOT), Some(Addr(0)), "hot region");
    view
}

/// 16 simulated tasks: warm up, meet at a barrier, then run the measured
/// transactions.
fn sim_window(algo: TmAlgorithm) -> Window {
    const TASKS: u64 = 16;
    // Quota 4 of 16: encounter-time locking with write sets this large
    // livelocks when all 16 run at once, and the gate's wait queue is part
    // of the steady state too.
    let view = new_view(algo, TASKS as u32, 4);
    let barrier = Arc::new(Notify::new());
    let barrier_epoch = barrier.epoch();
    let arrived = Arc::new(AtomicU64::new(0));
    let opened = Arc::new(AtomicBool::new(false));
    let finished = Arc::new(AtomicU64::new(0));
    // (allocator calls, commits, aborts) at the window's two ends; the
    // window counts calls from zero on the executor's thread.
    let open = Arc::new([const { AtomicU64::new(0) }; 3]);
    let close = Arc::new([const { AtomicU64::new(0) }; 3]);
    let mut ex = SimExecutor::new(SimConfig::default());
    for t in 0..TASKS {
        let view = Arc::clone(&view);
        let (barrier, arrived, opened, finished) = (
            Arc::clone(&barrier),
            Arc::clone(&arrived),
            Arc::clone(&opened),
            Arc::clone(&finished),
        );
        let (open, close) = (Arc::clone(&open), Arc::clone(&close));
        ex.spawn(move |rt| async move {
            let mut rng = XorShift64::new(0x5eed + t);
            for _ in 0..WARM_UP {
                big_transaction(&view, &rt, rng.next_below(u64::from(HOT)) as u32, false).await;
                rt.charge(1 + rng.next_below(THINK)).await;
            }
            if arrived.fetch_add(1, Ordering::Relaxed) + 1 == TASKS {
                barrier.notify_all();
            } else {
                rt.wait(&barrier, barrier_epoch).await;
            }
            // First task through the barrier opens the window: from here
            // on, nothing runs but measured transactions.
            if !opened.swap(true, Ordering::Relaxed) {
                let tm = view.stats().tm;
                open[1].store(tm.commits, Ordering::Relaxed);
                open[2].store(tm.aborts, Ordering::Relaxed);
                counting_alloc::open();
            }
            for _ in 0..MEASURED {
                big_transaction(&view, &rt, rng.next_below(u64::from(HOT)) as u32, false).await;
                rt.charge(1 + rng.next_below(THINK)).await;
            }
            if finished.fetch_add(1, Ordering::Relaxed) + 1 == TASKS {
                close[0].store(counting_alloc::close().calls, Ordering::Relaxed);
                let tm = view.stats().tm;
                close[1].store(tm.commits, Ordering::Relaxed);
                close[2].store(tm.aborts, Ordering::Relaxed);
            }
        });
    }
    assert_eq!(ex.run().status, RunStatus::Completed, "{algo:?}");
    let delta = |i: usize| close[i].load(Ordering::Relaxed) - open[i].load(Ordering::Relaxed);
    Window {
        allocator_calls: delta(0),
        commits: delta(1),
        aborts: delta(2),
    }
}

/// One real thread; every other measured transaction aborts once.
fn real_window(algo: TmAlgorithm) -> Window {
    // Two thread slots and quota 2: at quota 1 the lone thread would run in
    // the irrevocable lock mode, which has no descriptor and cannot abort.
    let view = new_view(algo, 2, 2);
    let calls = Arc::new(AtomicU64::new(0));
    let calls_out = Arc::clone(&calls);
    let worker_view = Arc::clone(&view);
    let before = view.stats().tm;
    run_parallel(1, move |_, rt| {
        let view = Arc::clone(&worker_view);
        let calls = Arc::clone(&calls_out);
        async move {
            let mut rng = XorShift64::new(0x5eed);
            for i in 0..WARM_UP + MEASURED {
                if i == WARM_UP {
                    counting_alloc::open();
                }
                big_transaction(
                    &view,
                    &rt,
                    rng.next_below(u64::from(HOT)) as u32,
                    i % 2 == 1,
                )
                .await;
            }
            calls.store(counting_alloc::close().calls, Ordering::Relaxed);
        }
    });
    let after = view.stats().tm;
    Window {
        allocator_calls: calls.load(Ordering::Relaxed),
        // Warm-up included; only the allocator count is windowed here.
        commits: after.commits - before.commits,
        aborts: after.aborts - before.aborts,
    }
}

#[test]
fn steady_state_transactions_make_no_allocator_call() {
    for algo in TmAlgorithm::ALL {
        let sim = sim_window(algo);
        assert_eq!(sim.commits, 16 * MEASURED, "{algo:?}");
        assert!(
            sim.aborts > 0,
            "{algo:?}: the window must hold aborted attempts too"
        );
        assert_eq!(
            sim.allocator_calls, 0,
            "{algo:?} under the simulator: {} allocator calls over {} commits and {} aborts",
            sim.allocator_calls, sim.commits, sim.aborts
        );

        let real = real_window(algo);
        // `cargo test -- --nocapture` shows the counts behind the verdict.
        println!(
            "{algo:?}: simulator {} allocator calls / {} commits + {} aborts; \
             real thread {} allocator calls / {MEASURED} transactions",
            sim.allocator_calls, sim.commits, sim.aborts, real.allocator_calls
        );
        assert_eq!(real.commits, WARM_UP + MEASURED, "{algo:?}");
        assert_eq!(real.aborts, (WARM_UP + MEASURED) / 2, "{algo:?}");
        assert_eq!(
            real.allocator_calls, 0,
            "{algo:?} on a real thread: {} allocator calls over {MEASURED} transactions",
            real.allocator_calls
        );
    }
}
