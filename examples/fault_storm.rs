//! Chaos demo: a shared-counter workload rides out a deterministic storm of
//! injected faults — forced aborts, random delays, and mid-transaction
//! panics that kill whole logical threads — and the final audit proves the
//! views stayed consistent through all of it.
//!
//! ```text
//! cargo run --release --example fault_storm
//! ```
//!
//! Every run is reproducible: the fault schedule is derived from the seeds
//! printed in the banner, so a surprising outcome can be replayed exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use votm_repro::sim::{FaultPlan, PanicPolicy, RunStatus, SimConfig, SimExecutor};
use votm_repro::votm::{Addr, QuotaMode, TmAlgorithm, Votm};

const THREADS: u64 = 8;
const ITERS: u64 = 200;

fn storm(algo: TmAlgorithm, sim_seed: u64, fault_seed: u64) {
    let sys = Votm::builder()
        .algo(algo)
        .threads(THREADS as u32)
        // Starvation watchdog on: even a storm of forced aborts cannot
        // starve a transaction past 8 consecutive losses.
        .escalate_after(Some(8))
        .build();
    let view = sys.create_view(256, QuotaMode::Adaptive);

    // The attempted counter tracks loop iterations that ran to completion;
    // a panic mid-transaction kills the whole logical thread, so its
    // remaining iterations simply never happen.
    let attempted = Arc::new(AtomicU64::new(0));

    let mut ex = SimExecutor::new(SimConfig {
        seed: sim_seed,
        // Survive injected panics: the dead task's transaction is rolled
        // back by the drop guards and everyone else keeps going.
        panic_policy: PanicPolicy::Isolate,
        fault_plan: Some(FaultPlan {
            seed: fault_seed,
            abort_percent: 10,
            delay_percent: 15,
            max_delay: 500,
            panic_percent: 1,
            max_panics: 3,
            ..Default::default()
        }),
        ..Default::default()
    });
    for _ in 0..THREADS {
        let view = Arc::clone(&view);
        let attempted = Arc::clone(&attempted);
        ex.spawn(move |rt| async move {
            for _ in 0..ITERS {
                view.transact(&rt, async |tx| {
                    let v = tx.read(Addr(0)).await?;
                    tx.local_work(2, 0, 20).await;
                    Ok(tx.write(Addr(0), v + 1).await?)
                })
                .await;
                attempted.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Completed);

    let count = view.heap().load(Addr(0));
    let survived = attempted.load(Ordering::Relaxed);
    let s = view.stats();
    println!("  {algo:?}:");
    println!(
        "    injected     : {} forced aborts, {} delays ({} cycles), {} panics",
        out.faults.aborts, out.faults.delays, out.faults.delay_cycles, out.faults.panics
    );
    println!(
        "    survived     : {survived}/{} iterations across {} tasks ({} killed by panic)",
        THREADS * ITERS,
        THREADS,
        out.faults.tasks_killed_by_panic
    );
    println!(
        "    view stats   : {} commits, {} aborts, max abort streak {}, {} escalations",
        s.tm.commits, s.tm.aborts, s.tm.max_abort_streak, s.tm.escalations
    );

    // Conservation audit: the counter equals the committed increments —
    // one per surviving iteration, plus at most one for each panicked task
    // whose crash landed *after* its commit finished (the mid-commit drop
    // guard completes such commits rather than tearing them).
    assert!(
        out.faults.aborts > 0,
        "storm injected no aborts — raise the rates"
    );
    assert_eq!(s.tm.commits, count, "commit count must match the counter");
    assert!(
        count >= survived && count <= survived + out.faults.tasks_killed_by_panic,
        "conservation violated: counter {count}, surviving iterations {survived}"
    );
    assert_eq!(view.gate().inside(), 0, "admission must drain to zero");
    println!("    audit        : counter {count} consistent, gate drained — OK");
}

fn main() {
    // Injected panics are part of the show; replace the default hook's
    // backtrace spew with a one-line note per crash.
    std::panic::set_hook(Box::new(|info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        println!("    !! task crashed: {}", message.unwrap_or("panic"));
    }));

    let (sim_seed, fault_seed) = (2026, 0xfa17);
    println!("fault storm (sim seed {sim_seed}, fault seed {fault_seed})");
    for algo in [
        TmAlgorithm::NOrec,
        TmAlgorithm::OrecEagerRedo,
        TmAlgorithm::OrecLazy,
    ] {
        storm(algo, sim_seed, fault_seed);
    }
    println!("fault_storm OK");
}
