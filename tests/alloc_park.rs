//! Steady-state park/wake allocates nothing.
//!
//! The counting-allocator discipline of `tests/alloc_steady.rs`,
//! applied to the blocking-transaction path: a producer and a consumer
//! hand one word back and forth, each parking with `retry()` until the
//! other's commit publishes it. Every round is two parks, two waking
//! publications and two superseded deadline entries. A short run and a 5×
//! longer one share their warm-up (task boxes, wait-table buffers, and the
//! wheel's overflow heap filling with one deadline horizon of dead
//! entries, which both outlast); the extra rounds add nothing — the
//! commits between the parks run on each task's persistent descriptor
//! (`tests/alloc_descriptors.rs`), so not even their write sets allocate.

use std::sync::Arc;

use votm::{Addr, QuotaMode, TmAlgorithm, Votm};
use votm_sim::{RunStatus, SimConfig, SimExecutor};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

/// Allocator calls made *during* `run()` by `rounds` hand-offs of the word
/// at `Addr(0)`: task `me` waits until it reads `me`, then writes `1 - me`.
fn allocs_for(rounds: u64) -> u64 {
    let sys = Votm::builder().algo(TmAlgorithm::NOrec).threads(2).build();
    let view = sys.create_view(64, QuotaMode::Fixed(2));
    let mut ex = SimExecutor::new(SimConfig::default());
    for me in 0..2u64 {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            for _ in 0..rounds {
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
    let (out, during) = counting_alloc::measured(|| ex.run());
    assert_eq!(out.status, RunStatus::Completed);
    assert!(
        out.vtime > 2 << 20,
        "run must outlast the park deadline: {}",
        out.vtime
    );
    let tm = view.stats().tm;
    assert_eq!(tm.commits, 2 * rounds);
    assert!(tm.parked_waits >= rounds, "hand-offs must park: {tm:?}");
    assert_eq!(tm.lost_wakeups, 0);
    assert_eq!(
        out.sched.superseded, tm.parked_waits,
        "every park is woken early"
    );
    during.calls
}

#[test]
fn steady_state_park_wake_is_allocation_free() {
    const SHORT: u64 = 12_000;
    const LONG: u64 = 60_000;
    let short = allocs_for(SHORT);
    let long = allocs_for(LONG);
    let delta = long.saturating_sub(short);
    assert!(
        delta <= 8,
        "steady-state park/wake allocated: {short} allocator calls for {SHORT} rounds \
         vs {long} for {LONG}"
    );
}
