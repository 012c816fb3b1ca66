//! Observation 2 on a bank: a hot audit-counter object and a large, cold
//! accounts object that are never touched in the same transaction.
//!
//! * single view ⇒ RAC can only throttle *everything* when the counter gets
//!   hot;
//! * two views ⇒ the counter view collapses to near-lock-mode while the
//!   accounts view keeps full concurrency — and total makespan drops.
//!
//! ```text
//! cargo run --release --example bank_multiview
//! ```

use std::sync::Arc;

use votm_repro::sim::{SimConfig, SimExecutor};
use votm_repro::votm::{Addr, QuotaMode, TmAlgorithm, View, Votm};

const THREADS: u64 = 8;
const ACCOUNTS: u64 = 4096;
const OPS: u64 = 240;

/// Runs the workload; `views` holds (counter_view, accounts_view) — equal
/// for the single-view setup.
fn run(counter: Arc<View>, accounts: Arc<View>, counter_base: u32, accounts_base: u32) -> u64 {
    let mut ex = SimExecutor::new(SimConfig::default());
    for t in 0..THREADS {
        let counter = Arc::clone(&counter);
        let accounts = Arc::clone(&accounts);
        ex.spawn(move |rt| async move {
            let mut rng = votm_repro::utils::XorShift64::new(t + 1);
            for i in 0..OPS {
                if i % 2 == 0 {
                    // Hot: bump the shared audit counters (tiny object,
                    // every thread collides).
                    counter
                        .transact(&rt, async |tx| {
                            // Long transaction over a small hot object: many
                            // random reads plus several random updates, so a
                            // concurrent commit almost always invalidates the
                            // read set and the whole attempt's work is wasted
                            // (the delta > 1 regime of Observation 1).
                            let mut acc = 0u64;
                            for k in 0..24u32 {
                                let a = Addr(counter_base + rng.next_below(64) as u32);
                                acc = acc.wrapping_add(tx.read(a).await?);
                                tx.local_work(0, 0, 30).await;
                                if k % 3 == 0 {
                                    let w = Addr(counter_base + rng.next_below(64) as u32);
                                    tx.write(w, acc).await?;
                                }
                            }
                            Ok(())
                        })
                        .await;
                } else {
                    // Cold: transfer between two random accounts.
                    let from = rng.next_below(ACCOUNTS) as u32;
                    let to = rng.next_below(ACCOUNTS) as u32;
                    accounts
                        .transact(&rt, async |tx| {
                            let a = tx.read(Addr(accounts_base + from)).await?;
                            let b = tx.read(Addr(accounts_base + to)).await?;
                            // Fraud/limit checks: real computation that a
                            // needlessly-serialised view would waste.
                            tx.local_work(4, 0, 600).await;
                            tx.write(Addr(accounts_base + from), a.wrapping_sub(1))
                                .await?;
                            tx.write(Addr(accounts_base + to), b.wrapping_add(1))
                                .await?;
                            Ok(())
                        })
                        .await;
                }
            }
        });
    }
    ex.run().vtime
}

fn main() {
    let algo = TmAlgorithm::OrecEagerRedo;

    // Single view: both objects behind one RAC.
    let sys = Votm::builder()
        .algo(algo)
        .threads(THREADS as u32)
        .controller(votm_repro::rac::ControllerConfig {
            window_attempts: 64,
        })
        .build();
    let both = sys.create_view(64 + ACCOUNTS as usize, QuotaMode::Adaptive);
    let single = run(Arc::clone(&both), Arc::clone(&both), 0, 64);
    let s = both.stats();
    println!(
        "single-view : makespan {single:>9} cycles, settled Q = {:2}, aborts = {}",
        s.quota, s.tm.aborts
    );

    // Multi view: independent RAC per object.
    let sys = Votm::builder()
        .algo(algo)
        .threads(THREADS as u32)
        .controller(votm_repro::rac::ControllerConfig {
            window_attempts: 64,
        })
        .build();
    let counter = sys.create_view(64, QuotaMode::Adaptive);
    let accounts = sys.create_view(ACCOUNTS as usize, QuotaMode::Adaptive);
    let multi = run(Arc::clone(&counter), Arc::clone(&accounts), 0, 0);
    let cs = counter.stats();
    let as_ = accounts.stats();
    println!(
        "multi-view  : makespan {multi:>9} cycles, counter Q = {:2} (aborts {}), accounts Q = {:2} (aborts {})",
        cs.quota, cs.tm.aborts, as_.quota, as_.tm.aborts
    );

    println!(
        "multi-view speedup: {:.2}x (Observation 2)",
        single as f64 / multi as f64
    );
    assert!(multi < single, "partitioning should win on this workload");
    assert!(
        as_.quota > cs.quota,
        "cold view must keep more concurrency than the hot one"
    );
    println!("bank_multiview OK");
}
