//! Chaos testing: randomized multi-structure workloads across two views
//! with strict conservation invariants, swept over seeds, algorithms and
//! quota modes. Every token that enters the system must come out exactly
//! once — lost updates, duplicated pops, phantom map entries or leaked
//! nodes all fail the final audit. A booking audit holds attempts to the
//! same standard: every attempt that begins is booked exactly once,
//! whichever way it leaves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use votm_repro::ds::{BoundedBuffer, TxHashMap, TxQueue};
use votm_repro::sim::{
    FaultPlan, FaultRecord, PanicPolicy, RunOutcome, RunStatus, SimConfig, SimExecutor,
};
use votm_repro::utils::{SplitMix64, XorShift64};
use votm_repro::votm::{
    AbortReason, EventKind, FlightRecorder, QuotaMode, ThreadTrace, TmAlgorithm, TxError, View,
    Votm,
};

const THREADS: u64 = 8;
const TOKENS_PER_THREAD: u64 = 40;

/// Each token is pushed into the queue (view A), then migrated by a random
/// consumer into either of two hash maps of different bucket counts (view B),
/// then counted.
fn chaos_round(algo: TmAlgorithm, quota: QuotaMode, seed: u64) {
    chaos_round_inner(algo, quota, seed, None);
}

/// Fault-injected variant: forced aborts and injected delays on top of the
/// same workload. Returns the run's fault log so callers can assert
/// identical-seed ⇒ identical-fault-schedule determinism.
fn chaos_round_with_faults(algo: TmAlgorithm, quota: QuotaMode, seed: u64) -> Vec<FaultRecord> {
    // No injected panics here: a killed task would (correctly) take its
    // unmigrated tokens with it, and this test's contract is exact-once
    // conservation. Panic recovery is covered by the core panic_safety and
    // fault_storm suites.
    let plan = FaultPlan {
        seed: seed ^ 0xfa17_fa17,
        abort_percent: 5,
        delay_percent: 10,
        max_delay: 200,
        ..Default::default()
    };
    chaos_round_inner(algo, quota, seed, Some(plan)).expect("fault plan set")
}

fn chaos_round_inner(
    algo: TmAlgorithm,
    quota: QuotaMode,
    seed: u64,
    plan: Option<FaultPlan>,
) -> Option<Vec<FaultRecord>> {
    let sys = Votm::builder().algo(algo).threads(THREADS as u32).build();
    let qview = sys.create_view(65_536, quota);
    let mview = sys.create_view(262_144, quota);
    let queue = TxQueue::create(&qview);
    let map = TxHashMap::create(&mview, 64);
    let map2 = TxHashMap::create(&mview, 7);
    let consumed = Arc::new(AtomicU64::new(0));
    let total = THREADS * TOKENS_PER_THREAD;

    let mut seeds = SplitMix64::new(seed);
    let mut ex = SimExecutor::new(SimConfig {
        seed,
        fault_plan: plan,
        ..Default::default()
    });
    for t in 0..THREADS {
        let qview = Arc::clone(&qview);
        let mview = Arc::clone(&mview);
        let consumed = Arc::clone(&consumed);
        let mut rng = XorShift64::new(seeds.next_u64());
        ex.spawn(move |rt| async move {
            // Producer phase: interleave pushes with consumption attempts.
            for i in 0..TOKENS_PER_THREAD {
                let token = t * 10_000 + i;
                qview
                    .transact(&rt, async |tx| queue.push_back(tx, token).await)
                    .await;
                if rng.chance_percent(50) {
                    drain_one(
                        &rt, &qview, &mview, &queue, &map, &map2, &consumed, &mut rng,
                    )
                    .await;
                }
            }
            // Drain phase.
            while consumed.load(Ordering::Relaxed) < total {
                let made_progress = drain_one(
                    &rt, &qview, &mview, &queue, &map, &map2, &consumed, &mut rng,
                )
                .await;
                if !made_progress {
                    rt.charge(500).await; // queue empty but others still pushing
                }
            }
        });
    }
    let out = ex.run();
    assert_eq!(
        out.status,
        RunStatus::Completed,
        "{algo:?} {quota:?} seed {seed}"
    );
    assert_eq!(consumed.load(Ordering::Relaxed), total);
    if plan.is_some() {
        assert!(
            out.faults.aborts > 0 && out.faults.delays > 0,
            "fault plan was configured but injected nothing: {:?}",
            out.faults
        );
    }

    // Final audit: every token present exactly once, in exactly one place.
    let mut ex2 = SimExecutor::new(SimConfig::default());
    let mview2 = Arc::clone(&mview);
    let qview2 = Arc::clone(&qview);
    ex2.spawn(move |rt| async move {
        let qlen = qview2
            .transact_ro(&rt, async |tx| queue.len(tx).await)
            .await;
        assert_eq!(qlen, 0, "queue must be drained");
        let (in_map, in_map2, sum) = mview2
            .transact_ro(&rt, async |tx| {
                let m = map.len(tx).await?;
                let m2 = map2.len(tx).await?;
                let mut sum = 0u64;
                for th in 0..THREADS {
                    for i in 0..TOKENS_PER_THREAD {
                        let token = th * 10_000 + i;
                        let a = map.get(tx, token).await?;
                        let b = map2.get(tx, token).await?;
                        match (a, b) {
                            (Some(v), None) | (None, Some(v)) => {
                                assert_eq!(v, token + 1, "wrong payload for {token}");
                                sum += 1;
                            }
                            (Some(_), Some(_)) => panic!("token {token} duplicated"),
                            (None, None) => panic!("token {token} lost"),
                        }
                    }
                }
                Ok((m, m2, sum))
            })
            .await;
        assert_eq!(in_map + in_map2, THREADS * TOKENS_PER_THREAD);
        assert_eq!(sum, THREADS * TOKENS_PER_THREAD);
    });
    assert_eq!(ex2.run().status, RunStatus::Completed);
    plan.map(|_| out.fault_log)
}

/// Pops one token and files it into a random map; returns false if
/// the queue was empty.
#[allow(clippy::too_many_arguments)]
async fn drain_one(
    rt: &votm_repro::sim::Rt,
    qview: &votm_repro::votm::View,
    mview: &votm_repro::votm::View,
    queue: &TxQueue,
    map: &TxHashMap,
    map2: &TxHashMap,
    consumed: &AtomicU64,
    rng: &mut XorShift64,
) -> bool {
    let popped = qview
        .transact(rt, async |tx| queue.pop_front(tx).await)
        .await;
    let Some(token) = popped else { return false };
    if rng.chance_percent(50) {
        mview
            .transact(rt, async |tx| {
                map.insert(tx, token, token + 1).await?;
                Ok(())
            })
            .await;
    } else {
        mview
            .transact(rt, async |tx| {
                map2.insert(tx, token, token + 1).await?;
                Ok(())
            })
            .await;
    }
    consumed.fetch_add(1, Ordering::Relaxed);
    true
}

#[test]
fn chaos_norec_across_seeds() {
    for seed in [1u64, 17, 333] {
        chaos_round(TmAlgorithm::NOrec, QuotaMode::Fixed(8), seed);
    }
}

#[test]
fn chaos_orec_eager_across_seeds() {
    for seed in [2u64, 18, 334] {
        chaos_round(TmAlgorithm::OrecEagerRedo, QuotaMode::Fixed(8), seed);
    }
}

#[test]
fn chaos_orec_lazy_across_seeds() {
    for seed in [3u64, 19, 335] {
        chaos_round(TmAlgorithm::OrecLazy, QuotaMode::Fixed(8), seed);
    }
}

#[test]
fn chaos_under_adaptive_rac_and_lock_mode() {
    for algo in TmAlgorithm::ALL {
        chaos_round(algo, QuotaMode::Adaptive, 7);
        chaos_round(algo, QuotaMode::Fixed(1), 8); // pure lock mode
    }
}

#[test]
fn chaos_with_fault_injection_conserves_tokens() {
    for seed in [5u64, 21, 337] {
        chaos_round_with_faults(TmAlgorithm::NOrec, QuotaMode::Fixed(8), seed);
        chaos_round_with_faults(TmAlgorithm::OrecEagerRedo, QuotaMode::Fixed(8), seed);
    }
}

#[test]
fn chaos_fault_schedule_is_deterministic_per_seed() {
    // Identical (sim seed, fault seed) pairs must replay the exact same
    // fault schedule, fault for fault — the property that makes a failing
    // chaos run reproducible from its seed alone.
    let a = chaos_round_with_faults(TmAlgorithm::NOrec, QuotaMode::Fixed(8), 41);
    let b = chaos_round_with_faults(TmAlgorithm::NOrec, QuotaMode::Fixed(8), 41);
    assert!(!a.is_empty(), "plan injected nothing");
    assert_eq!(a, b, "same seed must replay the same fault schedule");
    let c = chaos_round_with_faults(TmAlgorithm::NOrec, QuotaMode::Fixed(8), 42);
    assert_ne!(a, c, "different seed should perturb the schedule");
}

/// One run of the booking workload: 4 tasks on one adaptive view that
/// escalates after 6 straight aborts, each looping a counter increment
/// whose first attempt aborts explicitly, a push and a pop on a 2-slot
/// buffer that park through `retry()` when full or empty. Returns the
/// view, the drop-free recorder's traces, the number of `transact` calls
/// that returned, and the run's outcome.
fn booking_round(
    algo: TmAlgorithm,
    plan: FaultPlan,
) -> (Arc<View>, Vec<ThreadTrace>, u64, RunOutcome) {
    const TASKS: u64 = 4;
    const ITERS: u64 = 20;
    let recorder = Arc::new(FlightRecorder::new(TASKS as usize, 1 << 16));
    let sys = Votm::builder()
        .algo(algo)
        .threads(TASKS as u32)
        .escalate_after(Some(6))
        .recorder(Arc::clone(&recorder))
        .build();
    let view = sys.create_view(1024, QuotaMode::Adaptive);
    let buf = BoundedBuffer::create(&view, 2);
    let counter = view.alloc_block(1).expect("counter word");
    let returned = Arc::new(AtomicU64::new(0));
    let mut ex = SimExecutor::new(SimConfig {
        panic_policy: PanicPolicy::Isolate,
        fault_plan: Some(plan),
        ..Default::default()
    });
    for t in 0..TASKS {
        let view = Arc::clone(&view);
        let returned = Arc::clone(&returned);
        ex.spawn(move |rt| async move {
            for i in 0..ITERS {
                let mut first = true;
                view.transact(&rt, async |tx| {
                    if std::mem::take(&mut first) {
                        return Err(TxError::Abort(AbortReason::Explicit));
                    }
                    let v = tx.read(counter).await?;
                    Ok(tx.write(counter, v + 1).await?)
                })
                .await;
                returned.fetch_add(1, Ordering::Relaxed);
                view.transact(&rt, async |tx| buf.push(tx, t * 1000 + i).await)
                    .await;
                returned.fetch_add(1, Ordering::Relaxed);
                view.transact(&rt, async |tx| buf.pop(tx).await).await;
                returned.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Completed, "{algo:?}");
    let returned = returned.load(Ordering::Relaxed);
    (view, recorder.snapshot(), returned, out)
}

/// Every attempt the trace shows begun left through exactly one booking:
/// its commit or abort event, the view's counters, the commit histogram
/// and the cycle ledgers all agree.
fn assert_booked_once(view: &View, traces: &[ThreadTrace], what: &str) {
    let vid = view.id() as u16;
    let (mut begins, mut commits, mut aborts) = (0u64, 0u64, 0u64);
    let (mut commit_cycles, mut abort_cycles) = (0u64, 0u64);
    for t in traces {
        assert_eq!(t.dropped, 0, "{what}: the recorder dropped events");
        for e in &t.events {
            match e.kind {
                EventKind::TxBegin { view } if view == vid => begins += 1,
                EventKind::TxCommit { view, cycles } if view == vid => {
                    commits += 1;
                    commit_cycles += cycles;
                }
                EventKind::TxAbort { view, cycles, .. } if view == vid => {
                    aborts += 1;
                    abort_cycles += cycles;
                }
                _ => {}
            }
        }
    }
    let s = view.stats();
    assert_eq!(begins, commits + aborts, "{what}: begins vs closes");
    assert_eq!((commits, aborts), (s.tm.commits, s.tm.aborts), "{what}");
    assert_eq!(s.hists.commit.count(), s.tm.commits, "{what}: histogram");
    assert_eq!(
        (commit_cycles, abort_cycles),
        (s.tm.cycles_successful, s.tm.cycles_aborted),
        "{what}: cycle ledgers"
    );
}

#[test]
fn every_attempt_is_booked_once_whatever_its_exit() {
    let faults = FaultPlan {
        seed: 0xb00c,
        abort_percent: 5,
        delay_percent: 10,
        max_delay: 200,
        ..Default::default()
    };
    for algo in TmAlgorithm::ALL {
        // Commits, conflict, injected and explicit aborts, parks and
        // escalated lock-mode attempts.
        let (view, traces, _, _) = booking_round(algo, faults);
        let tm = view.stats().tm;
        for reason in [AbortReason::Retry, AbortReason::Explicit] {
            assert!(tm.aborts_by_reason[reason.index()] > 0, "{reason:?}");
        }
        assert!(tm.escalations > 0, "{algo:?}");
        assert_booked_once(&view, &traces, &format!("{algo:?} faults"));

        // Unwinds too: one injected panic, swept over fault seeds until it
        // lands mid-body (the drop guard aborts the attempt) and until it
        // lands mid-commit (the drop guard finishes a commit that no
        // `transact` returned). One panic orphans at most one buffered
        // value, so the survivors cannot block forever.
        for mid_commit in [false, true] {
            let unwound = (1..200u64).find_map(|seed| {
                let plan = FaultPlan {
                    seed,
                    panic_percent: 5,
                    max_panics: 1,
                    target_task: Some(0),
                    ..faults
                };
                let (view, traces, returned, out) = booking_round(algo, plan);
                let landed = view.stats().tm.commits == returned + u64::from(mid_commit);
                (out.faults.panics == 1 && landed).then_some((view, traces))
            });
            let what = format!("{algo:?} mid_commit={mid_commit}");
            let (view, traces) = unwound.unwrap_or_else(|| panic!("{what}: no seed"));
            assert_booked_once(&view, &traces, &what);
        }
    }
}
