//! Serializability under the virtual-time simulator (the executor every
//! table run uses). Same ticket scheme as the real-thread test in
//! `votm-stm`: each transaction increments a ticket word, so the read
//! ticket is its serialization position; replaying the commit log in
//! ticket order against a sequential model must match every read.

use std::collections::HashMap;
use std::sync::Arc;

use votm::QuotaMode::{self, Adaptive, Fixed};
use votm::TmAlgorithm::{self, NOrec, OrecEagerRedo, OrecLazy};
use votm::{Addr, ClockKind, CmPolicy, Votm};
use votm_sim::{RunStatus, SimConfig, SimExecutor};
use votm_utils::Mutex;
use votm_utils::SplitMix64;

const TICKET: Addr = Addr(0);
const DATA_BASE: u64 = 1;
const DATA_WORDS: u64 = 40;

#[derive(Debug)]
struct TxLog {
    ticket: u64,
    reads: Vec<(u32, u64)>,
    writes: Vec<(u32, u64)>,
}

/// The default policy and clock, which every case but the two sweeps runs.
const DEFAULT: (CmPolicy, ClockKind) = (CmPolicy::Backoff, ClockKind::Global);

fn run(
    algo: TmAlgorithm,
    quota: QuotaMode,
    threads: u64,
    tx_per_thread: usize,
    seed: u64,
    (contention, clock): (CmPolicy, ClockKind),
) {
    let sys = Votm::builder()
        .algo(algo)
        .threads(threads as u32)
        .policy(contention)
        .clock(clock)
        .build();
    let view = sys.create_view(128, quota);
    let log: Arc<Mutex<Vec<TxLog>>> = Arc::new(Mutex::new(Vec::new()));

    let mut seeds = SplitMix64::new(seed);
    let mut ex = SimExecutor::new(SimConfig {
        seed,
        // A generous watchdog: a contention-management bug that livelocks
        // must fail the assertion below, not hang the suite.
        vtime_cap: Some(2_000_000_000),
        ..Default::default()
    });
    for _ in 0..threads {
        let view = Arc::clone(&view);
        let log = Arc::clone(&log);
        let mut rng = seeds.derive();
        ex.spawn(move |rt| async move {
            for _ in 0..tx_per_thread {
                let n_reads = 1 + rng.next_index(5);
                let n_writes = 1 + rng.next_index(3);
                let read_addrs: Vec<u32> = (0..n_reads)
                    .map(|_| (DATA_BASE + rng.next_below(DATA_WORDS)) as u32)
                    .collect();
                let write_plan: Vec<(u32, u64)> = (0..n_writes)
                    .map(|_| {
                        (
                            (DATA_BASE + rng.next_below(DATA_WORDS)) as u32,
                            rng.next_u64(),
                        )
                    })
                    .collect();
                let entry = view
                    .transact(&rt, async |tx| {
                        let ticket = tx.read(TICKET).await?;
                        tx.write(TICKET, ticket + 1).await?;
                        let mut reads = Vec::with_capacity(read_addrs.len());
                        for &a in &read_addrs {
                            reads.push((a, tx.read(Addr(a)).await?));
                        }
                        for &(a, v) in &write_plan {
                            tx.write(Addr(a), v).await?;
                        }
                        Ok(TxLog {
                            ticket,
                            reads,
                            writes: write_plan.clone(),
                        })
                    })
                    .await;
                log.lock().push(entry);
            }
        });
    }
    let out = ex.run();
    assert_eq!(
        out.status,
        RunStatus::Completed,
        "{algo:?} {quota:?} {contention:?} {clock:?} seed {seed}"
    );

    let mut entries = Arc::try_unwrap(log).unwrap().into_inner();
    entries.sort_by_key(|e| e.ticket);
    let expected = threads * tx_per_thread as u64;
    assert_eq!(entries.len() as u64, expected);
    let mut model: HashMap<u32, u64> = HashMap::new();
    for (i, e) in entries.iter().enumerate() {
        assert_eq!(e.ticket, i as u64, "{algo:?} {quota:?}: ticket permutation");
        for &(a, seen) in &e.reads {
            let want = model.get(&a).copied().unwrap_or(0);
            assert_eq!(
                seen, want,
                "{algo:?} {quota:?}: tx #{} read {a} saw {seen}, model {want}",
                e.ticket
            );
        }
        for &(a, v) in &e.writes {
            model.insert(a, v);
        }
    }
    assert_eq!(view.heap().load(TICKET), expected);
    for (&a, &v) in &model {
        assert_eq!(view.heap().load(Addr(a)), v, "{algo:?}: final heap state");
    }
}

#[test]
fn sim_serializable_norec_full_quota() {
    run(NOrec, Fixed(16), 16, 25, 11, DEFAULT);
}

#[test]
fn sim_serializable_orec_full_quota() {
    run(OrecEagerRedo, Fixed(16), 16, 25, 12, DEFAULT);
}

#[test]
fn sim_serializable_under_restricted_quota() {
    run(NOrec, Fixed(3), 8, 25, 13, DEFAULT);
    run(OrecEagerRedo, Fixed(3), 8, 25, 14, DEFAULT);
}

#[test]
fn sim_serializable_under_adaptive_quota_and_lock_mode_transitions() {
    // Adaptive RAC will move the quota (possibly down to exclusive lock
    // mode and back) mid-run; serializability must hold across every
    // transition between instrumented and direct access.
    run(OrecEagerRedo, Adaptive, 16, 30, 15, DEFAULT);
    run(NOrec, Adaptive, 16, 30, 16, DEFAULT);
}

#[test]
fn sim_serializable_across_seeds() {
    for seed in 100..106 {
        run(OrecEagerRedo, Fixed(8), 8, 15, seed, DEFAULT);
        run(NOrec, Fixed(8), 8, 15, seed, DEFAULT);
    }
}

/// The algorithm the sweeps below run at `seed`, cycling with the seed.
fn algo_for(seed: u64) -> TmAlgorithm {
    match seed % 3 {
        0 => OrecEagerRedo,
        1 => NOrec,
        _ => OrecLazy,
    }
}

/// The differential suite re-run under every contention-management policy:
/// 36 seeds × all policies, cycling the algorithm with the seed so each
/// policy exercises every conflict-resolution site it has (orec encounter
/// locks, lazy commit-time acquisition; NOrec takes no policy, so its
/// seeds run the passive default once). Safety must be
/// policy-independent — a contention manager only chooses *who yields*,
/// never what a committed transaction observed.
#[test]
fn sim_serializable_under_every_policy_across_36_seeds() {
    for seed in 0..36u64 {
        let algo = algo_for(seed);
        for policy in CmPolicy::ALL {
            if policy == CmPolicy::Backoff || algo.names_lock_holder() {
                let cell = (policy, ClockKind::Global);
                run(algo, Fixed(4), 6, 8, 1000 + seed, cell);
            }
        }
    }
}

/// The differential suite re-run under every clock source: 36 seeds × all
/// clock kinds, cycling the algorithm with the seed so each clock strategy
/// exercises every validation site (NOrec value validation, orec version
/// checks, lazy commit-time acquisition). Safety must be clock-independent
/// — NOrec's coarse summary ring only changes which reads a validation
/// value-checks, never what a committed transaction observed, and the orec
/// engine ticks whatever the clock.
#[test]
fn sim_serializable_under_every_clock_across_36_seeds() {
    for seed in 0..36u64 {
        let algo = algo_for(seed);
        for clock in ClockKind::ALL {
            let cell = (CmPolicy::Backoff, clock);
            run(algo, Fixed(4), 6, 8, 1000 + seed, cell);
        }
    }
}
