//! Executor microbenchmarks: the cost of simulation itself.
//!
//! These isolate the scheduler hot paths the bench-gate rows exercise
//! indirectly — short-charge re-enqueues, notify ping-pong, a 16-task
//! contention storm of tied activations, and early-woken parks that leave
//! dead deadline entries behind — and compare the timer wheel against the
//! retained reference-heap scheduler; plus the one simulated-time consumer
//! with a host cost of its own, a repartition-controller tick. Run with
//! `cargo bench --bench sim_exec`; CI runs one sample per bench as a
//! perf-harness smoke test.

use std::future::{poll_fn, Future};
use std::pin::pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Poll;

use votm::{AdaptiveDomain, Addr, QuotaMode, RepartitionPolicy, TmAlgorithm, TxError, Votm};
use votm_bench::harness::bench;
use votm_obs::{AbortReason, EventKind, FlightRecorder};
use votm_sim::{
    block_on, Notify, RealHandle, Rt, RunStatus, SchedulerKind, SimConfig, SimExecutor,
};

fn config(scheduler: SchedulerKind, coalesce: bool) -> SimConfig {
    SimConfig {
        seed: 0x5eed,
        scheduler,
        coalesce,
        ..Default::default()
    }
}

/// Straight-line charge storm on one task: the pure enqueue/dequeue path,
/// and the best case for charge-coalescing.
fn enqueue_dequeue(scheduler: SchedulerKind, coalesce: bool, steps: u64) -> u64 {
    let mut ex = SimExecutor::new(config(scheduler, coalesce));
    ex.spawn(move |rt: Rt| async move {
        for i in 0..steps {
            rt.charge(1 + (i % 60)).await;
        }
    });
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Completed);
    out.steps
}

/// Two tasks alternately waking each other through a `Notify` pair: the
/// waker/wait registration path.
///
/// With `park_deadline`, the second task waits the way a `retry()` park
/// does: under a deadline that many cycles out, woken long before it, every
/// round. The run ends well inside the first deadline, so each round leaves
/// one more dead entry queued — `rounds` of them by the end, dropped as the
/// run drains. A third task then sleeps past the others' finish, as a
/// producer does in its think time: a live entry ahead of every deadline,
/// without which the dead ones would surface (and go) whenever the ring
/// ran empty.
fn ping_pong(scheduler: SchedulerKind, rounds: u64, park_deadline: Option<u64>) -> u64 {
    let ping = Arc::new(Notify::new());
    let pong = Arc::new(Notify::new());
    let mut ex = SimExecutor::new(config(scheduler, true));
    if let Some(deadline) = park_deadline {
        ex.spawn(move |rt: Rt| async move { rt.charge(deadline / 2).await });
    }
    {
        let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
        ex.spawn(move |rt: Rt| async move {
            for _ in 0..rounds {
                rt.charge(5).await;
                ping.notify_all();
                let e = pong.epoch();
                rt.wait(&pong, e).await;
            }
        });
    }
    ex.spawn(move |rt: Rt| async move {
        for _ in 0..rounds {
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
    assert_eq!(out.status, RunStatus::Completed);
    assert_eq!(out.sched.superseded, park_deadline.map_or(0, |_| rounds));
    out.steps
}

/// Sixteen tasks re-enqueueing at identical virtual times: maximal tie
/// pressure on the queue, the shape of a busy-retry storm.
fn contention_storm(scheduler: SchedulerKind, coalesce: bool, rounds: u64) -> u64 {
    let mut ex = SimExecutor::new(config(scheduler, coalesce));
    for _ in 0..16 {
        ex.spawn(move |rt: Rt| async move {
            for _ in 0..rounds {
                rt.charge(12).await; // everyone lands on the same slots
            }
        });
    }
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Completed);
    out.steps
}

const THREADS: usize = 16;

/// A recorder that is full (17 rings x 16 384 events, the repo benchmark's
/// shape) of aborts and footprints on a single bucket: a fold of it sees
/// every event, and its profile can never suggest a split.
fn full_recorder() -> Arc<FlightRecorder> {
    let recorder = Arc::new(FlightRecorder::new(THREADS + 1, 1 << 14));
    for i in 0..(THREADS as u64 + 1) << 14 {
        let kind = match i % 3 {
            0 => EventKind::TxAbort {
                view: 0,
                reason: AbortReason::NorecValidation,
                cycles: 100,
            },
            _ => EventKind::Footprint {
                view: 0,
                committed: i % 3 == 1,
                reads: 1,
                writes: 1,
            },
        };
        recorder.record((i >> 14) as usize, i, kind);
    }
    recorder
}

/// A one-view domain profiling from `recorder`. Its profile window is cold:
/// the first tick past the cheap gates folds every ring, the later ones
/// slide over what the tick's own transaction recorded.
fn domain_over(recorder: &Arc<FlightRecorder>) -> Arc<AdaptiveDomain> {
    Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(THREADS as u32)
        .recorder(Arc::clone(recorder))
        .build()
        .create_domain(4096, QuotaMode::Fixed(16), RepartitionPolicy::default())
}

/// One controller evaluation that gets past the cheap gates: a transaction
/// that aborts once before it commits gives the view a wasted-work share
/// for the interval, so the tick goes on to read the profile.
fn controller_tick(domain: &AdaptiveDomain, rt: &Rt) -> u64 {
    let mut aborted = false;
    let word = block_on(domain.transact(rt, Addr(0), async |tx| {
        if !std::mem::replace(&mut aborted, true) {
            return Err(TxError::Abort(AbortReason::Explicit));
        }
        Ok(tx.read(Addr(0)).await?)
    }));
    block_on(domain.rebalance(rt));
    assert_eq!(domain.stats().repartitions, 0);
    word
}

fn main() {
    let total = Arc::new(AtomicU64::new(0));
    let t = &total;

    for (label, kind) in [
        ("wheel", SchedulerKind::TimerWheel),
        ("ref-heap", SchedulerKind::ReferenceHeap),
    ] {
        bench(&format!("sim_exec/enqueue_dequeue/{label}"), || {
            t.fetch_add(enqueue_dequeue(kind, true, 2_000), Ordering::Relaxed)
        });
        bench(&format!("sim_exec/ping_pong/{label}"), || {
            t.fetch_add(ping_pong(kind, 500, None), Ordering::Relaxed)
        });
        bench(&format!("sim_exec/contention_storm_16/{label}"), || {
            t.fetch_add(contention_storm(kind, true, 200), Ordering::Relaxed)
        });
        bench(&format!("sim_exec/park_wake_deadline/{label}"), || {
            t.fetch_add(ping_pong(kind, 4_000, Some(1 << 20)), Ordering::Relaxed)
        });
    }
    // The steady-state tick, and the full fold a window starts from (a new
    // domain per tick; building one is ~1 % of the fold).
    let recorder = full_recorder();
    let domain = domain_over(&recorder);
    let rt = Rt::Real(RealHandle::standalone(0));
    // Rings that are full before the first look take two folds to follow:
    // the cold one copies no stash, the second learns the pace.
    for _ in 0..2 {
        controller_tick(&domain, &rt);
    }
    bench("sim_exec/controller_tick/recorder-full", || {
        t.fetch_add(controller_tick(&domain, &rt), Ordering::Relaxed)
    });
    assert_eq!(domain.stats().profile_refolds, 2, "a timed tick fell back");
    bench("sim_exec/controller_tick/cold", || {
        t.fetch_add(
            controller_tick(&domain_over(&recorder), &rt),
            Ordering::Relaxed,
        )
    });
    bench("sim_exec/enqueue_dequeue/wheel-nocoalesce", || {
        t.fetch_add(
            enqueue_dequeue(SchedulerKind::TimerWheel, false, 2_000),
            Ordering::Relaxed,
        )
    });
    bench("sim_exec/contention_storm_16/wheel-nocoalesce", || {
        t.fetch_add(
            contention_storm(SchedulerKind::TimerWheel, false, 200),
            Ordering::Relaxed,
        )
    });
    // Keep the accumulated step counts observable so the whole run can't be
    // optimised away.
    println!("total steps: {}", total.load(Ordering::Relaxed));
}
