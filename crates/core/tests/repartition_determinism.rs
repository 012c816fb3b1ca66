//! Repartitioning must be replay-deterministic: the same seed produces the
//! same split points, the same route table, the same stats — and the same
//! *bytes* out of the trace exporter. This is the property that makes
//! `BENCH` artifacts diffable across machines and the policy tables
//! reviewable in CI.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use votm::{Addr, DomainStats, FlightRecorder, QuotaMode, RepartitionPolicy, TmAlgorithm, Votm};
use votm_sim::{RunStatus, SimConfig, SimExecutor};
use votm_utils::SplitMix64;

const WORDS: usize = 4096;
const THREADS: usize = 6;

struct Fingerprint {
    vtime: u64,
    steps: u64,
    stats: DomainStats,
    route: Vec<u32>,
    route_epoch: u64,
    trace: String,
}

/// One full adaptive run: two disjoint hot groups plus a straddling tail,
/// so the controller both splits and (under pressure) merges.
fn run_once(seed: u64) -> Fingerprint {
    let recorder = Arc::new(FlightRecorder::new(THREADS + 1, 8192));
    let sys = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(THREADS as u32)
        .recorder(Arc::clone(&recorder))
        .build();
    let domain = sys.create_domain(
        WORDS,
        QuotaMode::Fixed(THREADS as u32),
        RepartitionPolicy {
            interval: 1 << 14,
            cooldown: 1 << 15,
            min_separability: 0.6,
            min_waste_share: 0.01,
            min_aborts: 4,
            merge_cross_threshold: 2,
            max_views: 4,
        },
    );
    let remaining = Arc::new(AtomicUsize::new(THREADS));

    let mut seeds = SplitMix64::new(seed);
    let mut ex = SimExecutor::new(SimConfig {
        seed,
        vtime_cap: Some(2_000_000_000),
        ..Default::default()
    });
    for t in 0..THREADS {
        let domain = Arc::clone(&domain);
        let remaining = Arc::clone(&remaining);
        let mut rng = seeds.derive();
        let group = t % 2;
        ex.spawn(move |rt| async move {
            let (ticket, base) = if group == 0 {
                (0u32, 1u64)
            } else {
                (2048, 2049)
            };
            for _ in 0..25 {
                let a = (base + rng.next_below(100)) as u32;
                domain
                    .transact(&rt, Addr(ticket), async |tx| {
                        let t = tx.read(Addr(ticket)).await?;
                        tx.write(Addr(ticket), t + 1).await?;
                        let v = tx.read(Addr(a)).await?;
                        Ok(tx.write(Addr(a), v + 1).await?)
                    })
                    .await;
            }
            // Straddling tail: cross-group increments on words inside the
            // hot buckets (so a split separates them) exercise the union
            // path and feed the merge signal.
            for _ in 0..8 {
                let a = (104 + rng.next_below(20)) as u32;
                let b = (2152 + rng.next_below(20)) as u32;
                domain
                    .transact(&rt, Addr(a), async |tx| {
                        let x = tx.read(Addr(a)).await?;
                        tx.write(Addr(a), x + 1).await?;
                        let y = tx.read(Addr(b)).await?;
                        Ok(tx.write(Addr(b), y + 1).await?)
                    })
                    .await;
            }
            remaining.fetch_sub(1, Ordering::AcqRel);
        });
    }
    {
        let domain = Arc::clone(&domain);
        let remaining = Arc::clone(&remaining);
        ex.spawn(move |rt| async move {
            domain.run_controller(&rt, &remaining).await;
        });
    }
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Completed, "seed {seed}");
    Fingerprint {
        vtime: out.vtime,
        steps: out.steps,
        stats: domain.stats(),
        route: domain.route().snapshot().to_vec(),
        route_epoch: domain.route().epoch(),
        trace: votm_obs::export::chrome_trace(&recorder.snapshot(), 2500),
    }
}

/// Same seed ⇒ same split points, same final route, byte-identical trace.
#[test]
fn identical_seeds_replay_byte_identically() {
    let a = run_once(11);
    let b = run_once(11);
    assert!(a.stats.splits >= 1, "the run must actually repartition");
    assert_eq!(a.vtime, b.vtime, "virtual finish time");
    assert_eq!(a.steps, b.steps, "scheduler step count");
    assert_eq!(a.stats, b.stats, "domain stats (splits, merges, straddles)");
    assert_eq!(a.route, b.route, "final bucket→view route");
    assert_eq!(a.route_epoch, b.route_epoch);
    assert_eq!(a.trace, b.trace, "chrome trace bytes");
}

/// Different seeds diverge — the determinism above is seed-keyed replay,
/// not a workload that happens to be schedule-independent.
#[test]
fn different_seeds_diverge() {
    let a = run_once(11);
    let b = run_once(12);
    assert_ne!(
        (a.vtime, a.steps),
        (b.vtime, b.steps),
        "two seeds produced identical schedules — the sweep is not \
         actually exercising different interleavings"
    );
}
