//! Proof that steady-state stepping is allocation-free.
//!
//! The counting allocator (`tests/support/counting_alloc.rs`) measures
//! allocator calls during `SimExecutor::run` for a short run and a 50×
//! longer one over the same task structure. Warm-up allocations (future
//! boxes at spawn, the wheel slab's initial growth, notify waiter buffers
//! reaching capacity) happen in both; the ~250k additional steps of the
//! long run must add none.
//!
//! The assertion is a small constant bound rather than exact equality:
//! warm-up is finite but not length-independent (a notify's second spare
//! buffer first grows whenever a wait happens to land on it, which a
//! 1k-round run may never reach). Before this rebuild the delta was one
//! boxed waker per poll — hundreds of thousands of calls — so a
//! single-digit bound is the zero-per-step claim with deterministic-warm-up
//! slack, five orders of magnitude below the old behaviour.

use std::sync::Arc;

use votm_sim::{Notify, Rt, RunStatus, SimConfig, SimExecutor};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

/// Charge-churn tasks plus a notify ping-pong pair — the two steady-state
/// paths (queue transit and waiter registration/wake) the rebuild promises
/// are allocation-free. Returns allocator calls made *during* `run()`.
fn allocs_for(rounds: u64) -> u64 {
    let mut ex = SimExecutor::new(SimConfig::default());
    for t in 0..4u64 {
        ex.spawn(move |rt: Rt| async move {
            for i in 0..rounds {
                // Varied short costs: ring pushes across slots, plenty of
                // coalescing and plenty of genuine queue transits.
                rt.charge(1 + (i.wrapping_mul(7) + t) % 60).await;
            }
        });
    }
    let ping = Arc::new(Notify::new());
    let pong = Arc::new(Notify::new());
    {
        let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
        ex.spawn(move |rt: Rt| async move {
            for _ in 0..rounds {
                rt.charge(3).await;
                ping.notify_all();
                let epoch = pong.epoch();
                rt.wait(&pong, epoch).await;
            }
        });
    }
    ex.spawn(move |rt: Rt| async move {
        for _ in 0..rounds {
            let epoch = ping.epoch();
            rt.wait(&ping, epoch).await;
            rt.charge(3).await;
            pong.notify_all();
        }
    });

    let (out, during) = counting_alloc::measured(|| ex.run());
    assert_eq!(out.status, RunStatus::Completed);
    assert!(out.steps > rounds * 5, "workload under-ran: {}", out.steps);
    during.calls
}

#[test]
fn steady_state_stepping_is_allocation_free() {
    let short = allocs_for(1_000);
    let long = allocs_for(50_000);
    let delta = long.saturating_sub(short);
    assert!(
        delta <= 8,
        "steady-state steps allocated: {short} allocator calls for 1k rounds \
         vs {long} for 50k — {delta} extra calls over ~250k extra steps"
    );
}
