//! Serializability of every algorithm through the transaction driver,
//! checked mechanically on both executors: the virtual-time simulator that
//! every table run uses, and real OS threads, where the gate's CAS
//! admission, the in-place accesses and NOrec's seqlock meet genuine
//! preemption.
//!
//! Scheme ([`support::check_ticket_replay`]): every writer increments a
//! ticket word, so the value it reads there is its position in the
//! serialization order; a reader reads the ticket without writing it. Each
//! committed transaction logs its ticket, its reads and its writes, and the
//! log replayed in ticket order against a sequential model must match every
//! read and the final heap.

mod support;

use std::sync::Arc;

use support::{algo_for, check_ticket_replay, Plan, TxLog};
use votm::QuotaMode::{self, Adaptive, Fixed};
use votm::TmAlgorithm::{self, NOrec, OrecEagerRedo};
use votm::{Addr, ClockKind, CmPolicy, View, Votm};
use votm_sim::{run_parallel, Rt, RunStatus, SimConfig, SimExecutor};
use votm_utils::{Mutex, SplitMix64, XorShift64};

const TICKET: Addr = Addr(0);
const DATA_BASE: u64 = 1;
const DATA_WORDS: u64 = 40;

/// Which executor runs the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Executor {
    /// The virtual-time simulator, seeded with the run's seed.
    Sim,
    /// One OS thread per worker ([`run_parallel`]).
    Real,
}

/// The default policy and clock.
const DEFAULT: (CmPolicy, ClockKind) = (CmPolicy::Backoff, ClockKind::Global);

/// One worker: `tx_per_thread` ticketed transactions, one in four a
/// read-only acquisition, each logged once it commits. Both executors
/// spawn this body.
async fn worker(
    view: Arc<View>,
    rt: Rt,
    mut rng: XorShift64,
    tx_per_thread: usize,
    log: Arc<Mutex<Vec<TxLog>>>,
) {
    for _ in 0..tx_per_thread {
        let entry = if rng.next_below(4) == 0 {
            let plan = Plan::reader(&mut rng, DATA_BASE, DATA_WORDS, 5);
            view.transact_ro(&rt, async |tx| Ok(plan.run(tx, TICKET).await?))
                .await
        } else {
            let plan = Plan::writer(&mut rng, DATA_BASE, DATA_WORDS, 5, 3);
            view.transact(&rt, async |tx| Ok(plan.run(tx, TICKET).await?))
                .await
        };
        log.lock().push(entry);
    }
}

/// Runs `threads` workers on one view under `exec` and checks their log
/// with the ticket replay; every failure names the cell.
fn run(
    exec: Executor,
    algo: TmAlgorithm,
    quota: QuotaMode,
    threads: usize,
    tx_per_thread: usize,
    seed: u64,
    (policy, clock): (CmPolicy, ClockKind),
) {
    let what = format!("{exec:?} {algo:?} {quota:?} {policy:?} {clock:?} seed {seed}");
    let sys = Votm::builder()
        .algo(algo)
        .threads(threads as u32)
        .policy(policy)
        .clock(clock)
        .build();
    let view = sys.create_view(128, quota);
    let log: Arc<Mutex<Vec<TxLog>>> = Arc::new(Mutex::new(Vec::new()));
    let mut seeds = SplitMix64::new(seed);
    let rngs: Vec<XorShift64> = (0..threads).map(|_| seeds.derive()).collect();

    match exec {
        Executor::Sim => {
            let mut ex = SimExecutor::new(SimConfig {
                seed,
                // A generous watchdog: a contention-management bug that
                // livelocks must fail the assertion below, not hang the
                // suite.
                vtime_cap: Some(2_000_000_000),
                ..Default::default()
            });
            for rng in rngs {
                let (view, log) = (Arc::clone(&view), Arc::clone(&log));
                ex.spawn(move |rt| worker(view, rt, rng, tx_per_thread, log));
            }
            assert_eq!(ex.run().status, RunStatus::Completed, "{what}");
        }
        Executor::Real => {
            run_parallel(threads, |i, rt| {
                let (view, log) = (Arc::clone(&view), Arc::clone(&log));
                worker(view, rt, rngs[i].clone(), tx_per_thread, log)
            });
        }
    }

    let log = std::mem::take(&mut *log.lock());
    check_ticket_replay(&what, log, threads * tx_per_thread, TICKET, |a| {
        view.heap().load(a)
    });
}

/// The algorithms whose lock words do / do not name their holder: the orec
/// pair (both acquisition times) and NOrec. Drawn from
/// [`TmAlgorithm::ALL`] so a new algorithm lands in one of the sweeps.
fn algorithms(names_lock_holder: bool) -> impl Iterator<Item = TmAlgorithm> {
    TmAlgorithm::ALL
        .into_iter()
        .filter(move |a| a.names_lock_holder() == names_lock_holder)
}

/// Runs `algos` on both executors in every cell: full quota, a quota of 2
/// (admission through the gate's slow path and its `Notify`) and adaptive
/// (the controller moving the quota, down to lock mode and back), each
/// under every clock the algorithm runs, plus windowed-greedy on the
/// algorithms that name a lock holder (an active policy suspends on
/// conflicts instead of taking the in-place path).
fn sweep(algos: impl Iterator<Item = TmAlgorithm>, threads: usize, tx: usize, seeds: &[u64]) {
    for algo in algos {
        let mut cells = vec![DEFAULT];
        if algo.runs_coarse_clock() {
            cells.push((CmPolicy::Backoff, ClockKind::Coarse));
        }
        if algo.names_lock_holder() {
            cells.push((CmPolicy::WindowedGreedy, ClockKind::Global));
        }
        for quota in [Fixed(threads as u32), Fixed(2), Adaptive] {
            for &cell in &cells {
                for &seed in seeds {
                    for exec in [Executor::Sim, Executor::Real] {
                        run(exec, algo, quota, threads, tx, seed, cell);
                    }
                }
            }
        }
    }
}

#[test]
fn norec_random_mix_is_serializable() {
    sweep(algorithms(false), 6, 120, &[1, 7, 2026]);
}

#[test]
fn orec_random_mix_is_serializable() {
    sweep(algorithms(true), 6, 120, &[1, 7, 2026]);
}

#[test]
fn serializability_survives_heavier_threads() {
    sweep(TmAlgorithm::ALL.into_iter(), 10, 80, &[42]);
}

#[test]
fn sim_serializable_norec_full_quota() {
    run(Executor::Sim, NOrec, Fixed(16), 16, 25, 11, DEFAULT);
}

#[test]
fn sim_serializable_orec_full_quota() {
    run(Executor::Sim, OrecEagerRedo, Fixed(16), 16, 25, 12, DEFAULT);
}

#[test]
fn sim_serializable_under_restricted_quota() {
    run(Executor::Sim, NOrec, Fixed(3), 8, 25, 13, DEFAULT);
    run(Executor::Sim, OrecEagerRedo, Fixed(3), 8, 25, 14, DEFAULT);
}

#[test]
fn sim_serializable_under_adaptive_quota_and_lock_mode_transitions() {
    // Adaptive RAC will move the quota (possibly down to exclusive lock
    // mode and back) mid-run; serializability must hold across every
    // transition between instrumented and direct access.
    run(Executor::Sim, OrecEagerRedo, Adaptive, 16, 30, 15, DEFAULT);
    run(Executor::Sim, NOrec, Adaptive, 16, 30, 16, DEFAULT);
}

#[test]
fn sim_serializable_across_seeds() {
    for seed in 100..106 {
        run(Executor::Sim, OrecEagerRedo, Fixed(8), 8, 15, seed, DEFAULT);
        run(Executor::Sim, NOrec, Fixed(8), 8, 15, seed, DEFAULT);
    }
}

/// The suite re-run under every contention-management policy: 36 seeds ×
/// all policies, cycling the algorithm with the seed so each policy
/// exercises every conflict-resolution site it has (orec encounter locks,
/// lazy commit-time acquisition; NOrec takes no policy, so its seeds run
/// the passive default once). Safety must be policy-independent — a
/// contention manager only chooses *who yields*, never what a committed
/// transaction observed.
#[test]
fn sim_serializable_under_every_policy_across_36_seeds() {
    for seed in 0..36u64 {
        let algo = algo_for(seed);
        for policy in CmPolicy::ALL {
            if policy == CmPolicy::Backoff || algo.names_lock_holder() {
                let cell = (policy, ClockKind::Global);
                run(Executor::Sim, algo, Fixed(4), 6, 8, 1000 + seed, cell);
            }
        }
    }
}

/// The suite re-run under every clock source: 36 seeds × all clock kinds,
/// cycling the algorithm with the seed so each clock strategy exercises
/// every validation site (NOrec value validation, orec version checks,
/// lazy commit-time acquisition). Safety must be clock-independent —
/// NOrec's coarse summary ring only changes which reads a validation
/// value-checks, never what a committed transaction observed, and the orec
/// engine ticks whatever the clock.
#[test]
fn sim_serializable_under_every_clock_across_36_seeds() {
    for seed in 0..36u64 {
        let algo = algo_for(seed);
        for clock in ClockKind::ALL {
            let cell = (CmPolicy::Backoff, clock);
            run(Executor::Sim, algo, Fixed(4), 6, 8, 1000 + seed, cell);
        }
    }
}
