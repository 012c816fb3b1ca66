//! Differential determinism suite: the timer wheel vs the reference heap.
//!
//! The executor's performance rebuild (timer wheel, mailbox, coalescing)
//! carries one non-negotiable contract: activation order is exactly
//! `(vtime, tie key, task)`, bit-for-bit what the original `BinaryHeap`
//! scheduler produces. This suite replays fuzzed workloads — tie-storms,
//! notify churn, overflow-range charges, injected faults, livelock caps —
//! through the timer wheel (which coalesces) and the reference heap (the
//! original queue-only executor) and asserts the full event traces, fault
//! logs, and outcomes are identical.
//!
//! Workloads derive from fixed case seeds (the container is offline, so no
//! property-testing crate; fixed seeds replay failures directly). Each
//! task's op sequence comes from its own PRNG seeded by `(case, task)`, so
//! the workload itself is identical across scheduler configurations by
//! construction — any divergence is the scheduler's.

use std::future::{poll_fn, Future};
use std::pin::pin;
use std::sync::Arc;
use std::task::Poll;

use votm_sim::{
    FaultEvent, FaultPlan, FaultRecord, FaultStats, Notify, Rt, RunStatus, SchedulerKind,
    SimConfig, SimExecutor,
};
use votm_utils::{Mutex, XorShift64};

/// `(vtime, task, op-index)` per completed op: a total record of what ran
/// when. Comparing these across schedulers pins the activation order, not
/// just the aggregate outcome.
type Trace = Vec<(u64, u32, u32)>;

#[derive(Debug, PartialEq)]
struct CaseResult {
    status: RunStatus,
    vtime: u64,
    steps: u64,
    faults: FaultStats,
    fault_log: Vec<FaultRecord>,
    superseded: u64,
    trace: Trace,
}

/// Runs one fuzzed case under the given scheduler configuration. Everything
/// the workload does — op mix, charge costs, notify targets, fault draws —
/// is a pure function of `case` and the task index.
fn run_case(case: u64, scheduler: SchedulerKind) -> CaseResult {
    let mut meta = XorShift64::new(0xd1ff ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let n_tasks = 2 + meta.next_index(6);
    let n_channels = 1 + meta.next_index(3);
    let steps = 8 + meta.next_below(24);
    let with_faults = meta.next_below(2) == 1;
    // A quarter of the cases run under a tight virtual-time cap so the
    // Livelock exit is compared too, not just clean completions.
    let cap = (meta.next_below(4) == 0).then(|| 2_000 + meta.next_below(50_000));

    let channels: Vec<Arc<Notify>> = (0..n_channels).map(|_| Arc::new(Notify::new())).collect();
    let log: Arc<Mutex<Trace>> = Arc::new(Mutex::new(Vec::new()));
    let mut ex = SimExecutor::new(SimConfig {
        seed: case.wrapping_mul(0x0005_eed5) | 1,
        vtime_cap: cap,
        fault_plan: with_faults.then(|| FaultPlan {
            seed: case ^ 0xfa,
            abort_percent: 10,
            delay_percent: 20,
            max_delay: 50,
            ..Default::default()
        }),
        scheduler,
        ..Default::default()
    });
    for t in 0..n_tasks {
        let log = Arc::clone(&log);
        let channels = channels.clone();
        ex.spawn(move |rt: Rt| async move {
            let mut rng = XorShift64::new((case << 8) ^ (t as u64) ^ 0xabcd);
            for op in 0..steps {
                match rng.next_below(100) {
                    // Short charges: the ring fast path and coalescing bait.
                    0..=54 => rt.charge(1 + rng.next_below(64)).await,
                    55..=69 => rt.work(1 + rng.next_below(200)).await,
                    // Far-future charges: the overflow heap and migration.
                    70..=77 => rt.charge(5_000 + rng.next_below(2_000_000)).await,
                    78..=87 => {
                        channels[rng.next_index(channels.len())].notify_all();
                        rt.charge(1).await;
                    }
                    88..=90 => {
                        let ch = &channels[rng.next_index(channels.len())];
                        let epoch = ch.epoch();
                        rt.wait(ch, epoch).await;
                    }
                    // The `retry()` park shape, twice over: wait on a channel
                    // under a far deadline. An early wake supersedes the
                    // deadline entry, and the re-park arms the next one while
                    // the dead one is still queued.
                    91..=93 => {
                        let ch = &channels[rng.next_index(channels.len())];
                        for _ in 0..2 {
                            let mut wait = pin!(rt.wait(ch, ch.epoch()));
                            let mut deadline = pin!(rt.charge(100_000 + rng.next_below(1 << 20)));
                            poll_fn(|cx| match wait.as_mut().poll(cx) {
                                Poll::Pending => deadline.as_mut().poll(cx),
                                ready => ready,
                            })
                            .await;
                        }
                    }
                    _ => match rt.take_fault() {
                        Some(FaultEvent::Delay(d)) => rt.charge(d).await,
                        Some(_) => rt.charge(1).await,
                        None => rt.charge(2).await,
                    },
                }
                log.lock().push((rt.now(), t as u32, op as u32));
            }
            // Bump every channel on exit so waiters this task would have
            // woken later don't strand (deadlock cases still occur when a
            // wait registers after the last notify — also compared).
            for ch in &channels {
                ch.notify_all();
            }
        });
    }
    let out = ex.run();
    let trace = log.lock().clone();
    CaseResult {
        status: out.status,
        vtime: out.vtime,
        steps: out.steps,
        faults: out.faults,
        fault_log: out.fault_log,
        superseded: out.sched.superseded,
        trace,
    }
}

/// The headline differential: 36 fuzzed seeds, the timer wheel's full
/// traces identical to the reference heap's.
#[test]
fn wheel_matches_reference_heap_across_fuzzed_workloads() {
    let mut livelocks = 0;
    let mut faulted = 0;
    let mut superseded = 0;
    for case in 0..36u64 {
        let base = run_case(case, SchedulerKind::ReferenceHeap);
        let got = run_case(case, SchedulerKind::TimerWheel);
        assert_eq!(base.status, got.status, "case {case}: outcome diverged");
        assert_eq!(base.vtime, got.vtime, "case {case}: makespan");
        assert_eq!(base.steps, got.steps, "case {case}: step count");
        assert_eq!(base.faults, got.faults, "case {case}: fault totals");
        assert_eq!(
            base.fault_log, got.fault_log,
            "case {case}: fault log diverged"
        );
        assert_eq!(
            base.superseded, got.superseded,
            "case {case}: superseded entries"
        );
        assert_eq!(base.trace, got.trace, "case {case}: event trace diverged");
        superseded += base.superseded;
        livelocks += (base.status == RunStatus::Livelock) as u32;
        faulted += (!base.fault_log.is_empty()) as u32;
    }
    // The sweep must actually exercise the interesting exits, or the
    // equality checks above prove less than they claim.
    assert!(livelocks > 0, "no case hit the vtime cap");
    assert!(faulted > 0, "no case drew a fault");
    assert!(
        superseded > 36,
        "parks were barely woken early: {superseded}"
    );
}

/// Same differential, pinned on the executor's hardest ordering case: every
/// activation tied at the same virtual time, so ordering is decided purely
/// by `(tie key, task)`.
#[test]
fn tie_storms_order_identically_across_schedulers() {
    for seed in 0..8u64 {
        let run = |scheduler: SchedulerKind| -> Trace {
            let log: Arc<Mutex<Trace>> = Arc::new(Mutex::new(Vec::new()));
            let mut ex = SimExecutor::new(SimConfig {
                seed: 0x71e5 + seed,
                scheduler,
                ..Default::default()
            });
            for t in 0..12u32 {
                let log = Arc::clone(&log);
                ex.spawn(move |rt: Rt| async move {
                    for op in 0..20u32 {
                        rt.charge(16).await; // everyone lands on the same slots
                        log.lock().push((rt.now(), t, op));
                    }
                });
            }
            assert_eq!(ex.run().status, RunStatus::Completed);
            let trace = log.lock().clone();
            trace
        };
        let base = run(SchedulerKind::ReferenceHeap);
        assert_eq!(base, run(SchedulerKind::TimerWheel), "seed {seed}");
    }
}

/// A park woken long before its deadline leaves one dead entry queued,
/// and a wake with no deadline leaves none: two tasks ping-pong through a
/// `Notify` pair, the second waiting the way a `retry()` park does, under a
/// deadline far past the run's end. A third task sleeps past the others'
/// finish, as a producer does in its think time: a live entry ahead of every
/// deadline, without which the dead ones would surface (and go) whenever the
/// ring ran empty. Both schedulers count exactly one superseded entry per
/// round.
#[test]
fn every_early_woken_park_supersedes_exactly_one_entry() {
    const ROUNDS: u64 = 500;
    let run = |scheduler: SchedulerKind, park_deadline: Option<u64>| {
        let ping = Arc::new(Notify::new());
        let pong = Arc::new(Notify::new());
        let mut ex = SimExecutor::new(SimConfig {
            seed: 0x5eed,
            scheduler,
            ..Default::default()
        });
        if let Some(deadline) = park_deadline {
            ex.spawn(move |rt: Rt| async move { rt.charge(deadline / 2).await });
        }
        {
            let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
            ex.spawn(move |rt: Rt| async move {
                for _ in 0..ROUNDS {
                    rt.charge(5).await;
                    ping.notify_all();
                    let e = pong.epoch();
                    rt.wait(&pong, e).await;
                }
            });
        }
        ex.spawn(move |rt: Rt| async move {
            for _ in 0..ROUNDS {
                let mut wait = pin!(rt.wait(&ping, ping.epoch()));
                match park_deadline {
                    None => wait.await,
                    Some(deadline) => {
                        let mut deadline = pin!(rt.charge(deadline));
                        poll_fn(|cx| match wait.as_mut().poll(cx) {
                            Poll::Pending => deadline.as_mut().poll(cx),
                            ready => ready,
                        })
                        .await;
                    }
                }
                rt.charge(5).await;
                pong.notify_all();
            }
        });
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed, "{scheduler:?}");
        out.sched.superseded
    };
    for scheduler in [SchedulerKind::TimerWheel, SchedulerKind::ReferenceHeap] {
        assert_eq!(run(scheduler, None), 0, "{scheduler:?}");
        assert_eq!(run(scheduler, Some(1 << 20)), ROUNDS, "{scheduler:?}");
    }
}

/// Coalescing must fire on the wheel (it is the optimisation under test)
/// while leaving the trace untouched against the queue-only heap — a direct
/// check that the stat and the contract coexist on a workload where the
/// fast path dominates.
#[test]
fn coalescing_fires_without_changing_the_trace() {
    let run = |scheduler: SchedulerKind| {
        let log: Arc<Mutex<Trace>> = Arc::new(Mutex::new(Vec::new()));
        let mut ex = SimExecutor::new(SimConfig {
            seed: 99,
            scheduler,
            ..Default::default()
        });
        for t in 0..3u32 {
            let log = Arc::clone(&log);
            ex.spawn(move |rt: Rt| async move {
                for op in 0..200u32 {
                    // Distinct per-task costs: long solo stretches between
                    // interleavings, the coalescer's best case.
                    rt.charge(1 + t as u64).await;
                    log.lock().push((rt.now(), t, op));
                }
            });
        }
        let out = ex.run();
        let trace = log.lock().clone();
        (out, trace)
    };
    let (on, trace_on) = run(SchedulerKind::TimerWheel);
    let (off, trace_off) = run(SchedulerKind::ReferenceHeap);
    assert!(
        on.sched.coalesced > 100,
        "coalescing barely fired: {:?}",
        on.sched
    );
    assert_eq!(off.sched.coalesced, 0);
    assert_eq!(trace_on, trace_off, "coalescing changed the schedule");
    assert_eq!(on.vtime, off.vtime);
}
