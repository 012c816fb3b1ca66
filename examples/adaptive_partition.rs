//! Online automatic view partitioning, end to end: the same two-hot-region
//! workload as `conflict_heatmap`, but instead of printing a suggested
//! bi-partition for a programmer to apply, an `AdaptiveDomain` applies it
//! *live* — the repartition controller folds the flight-recorder profile,
//! waits out its hysteresis, drains the view behind the exclusive barrier,
//! and splits it at the mined boundary while transactions keep running.
//! The run starts as ONE view and is compared against a hand-partitioned
//! twin (two statically created views), the layout the paper's
//! Observation 2 says a VOTM programmer should have written.
//!
//! ```text
//! cargo run --release --example adaptive_partition
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use votm_repro::sim::{SimConfig, SimExecutor};
use votm_repro::utils::SplitMix64;
use votm_repro::votm::{
    Addr, FlightRecorder, QuotaMode, RepartitionPolicy, TmAlgorithm, TxError, TxHandle, Votm,
};

/// Domain heap words; with 64 route buckets each bucket covers 64 words.
const HEAP_WORDS: usize = 4096;
/// Word span each group's transactions range over.
const SPAN: u64 = 96;
/// Second group's base address (heap midpoint — bucket 32).
const GROUP_B: u64 = 2048;
const THREADS: usize = 8;
const OPS: usize = 250;

/// The one transaction both runs execute, on a view or on the domain alike:
/// increment each planned word.
async fn increment(tx: &mut TxHandle<'_>, addrs: &[u32]) -> Result<(), TxError> {
    for &a in addrs {
        let v = tx.read(Addr(a)).await?;
        tx.write(Addr(a), v + 1).await?;
    }
    Ok(())
}

/// Virtual-time throughput of one run: transactions per virtual second.
fn tps(commits: u64, vtime: u64) -> f64 {
    commits as f64 / (vtime as f64 / 2.5e9)
}

/// The hand-partitioned twin: two views created up front, one per group.
/// Offsets are drawn from the same seeded stream as the adaptive run.
fn run_hand(seed: u64) -> (u64, u64) {
    let sys = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(THREADS as u32)
        .build();
    let views = [
        sys.create_view(HEAP_WORDS / 2, QuotaMode::Fixed(THREADS as u32)),
        sys.create_view(HEAP_WORDS / 2, QuotaMode::Fixed(THREADS as u32)),
    ];
    let mut seeds = SplitMix64::new(seed);
    let mut ex = SimExecutor::new(SimConfig {
        seed,
        ..Default::default()
    });
    for t in 0..THREADS {
        let view = Arc::clone(&views[t % 2]);
        let mut rng = seeds.derive();
        ex.spawn(move |rt| async move {
            for _ in 0..OPS {
                let addrs: Vec<u32> = (0..3).map(|_| rng.next_below(SPAN) as u32).collect();
                view.transact(&rt, async |tx| increment(tx, &addrs).await)
                    .await;
            }
        });
    }
    let out = ex.run();
    let commits: u64 = views.iter().map(|v| v.stats().tm.commits).sum();
    (commits, out.vtime)
}

fn main() {
    let seed = 7;
    let (hand_commits, hand_vtime) = run_hand(seed);
    let hand_tps = tps(hand_commits, hand_vtime);
    println!(
        "hand-partitioned twin (2 views, N={THREADS}): {hand_commits} commits in \
         {hand_vtime} virtual cycles = {hand_tps:.1} txns/vsec"
    );

    // The adaptive run: ONE view over the whole heap, controller live.
    let recorder = Arc::new(FlightRecorder::new(THREADS + 1, 1 << 14));
    let sys = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(THREADS as u32)
        .recorder(Arc::clone(&recorder))
        .build();
    let domain = sys.create_domain(
        HEAP_WORDS,
        QuotaMode::Fixed(THREADS as u32),
        RepartitionPolicy {
            interval: 1 << 13,
            cooldown: 1 << 15,
            min_separability: 0.6,
            min_waste_share: 0.01,
            min_aborts: 8,
            merge_cross_threshold: 8,
            max_views: 4,
        },
    );
    let remaining = Arc::new(AtomicUsize::new(THREADS));
    let mut seeds = SplitMix64::new(seed);
    let mut ex = SimExecutor::new(SimConfig {
        seed,
        ..Default::default()
    });
    for t in 0..THREADS {
        let domain = Arc::clone(&domain);
        let remaining = Arc::clone(&remaining);
        let mut rng = seeds.derive();
        let base = if t % 2 == 0 { 0 } else { GROUP_B };
        ex.spawn(move |rt| async move {
            for _ in 0..OPS {
                let addrs: Vec<u32> = (0..3)
                    .map(|_| (base + rng.next_below(SPAN)) as u32)
                    .collect();
                domain
                    .transact(&rt, Addr(addrs[0]), async |tx| increment(tx, &addrs).await)
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
    let stats = domain.stats();
    let commits: u64 = domain.views().iter().map(|v| v.stats().tm.commits).sum();
    let adaptive_tps = tps(commits, out.vtime);
    println!(
        "\nadaptive domain (started as 1 view): {commits} commits in {} virtual cycles = \
         {adaptive_tps:.1} txns/vsec",
        out.vtime
    );
    println!(
        "controller: {} split(s), {} merge(s), {} drain cycles inside barriers, \
         {} straddling txns, route epoch {}",
        stats.splits, stats.merges, stats.split_drain_cycles, stats.straddles, stats.route_epoch
    );

    // Where did the controller draw the line? Summarise the route table.
    let route = domain.route().snapshot();
    let moved: Vec<usize> = route
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != route[0])
        .map(|(i, _)| i)
        .collect();
    println!(
        "route: {} live views; buckets moved off view {}: {:?}",
        stats.live_views,
        route[0],
        &moved[..moved.len().min(8)],
    );

    let ratio = adaptive_tps / hand_tps;
    println!(
        "\nconverged to {ratio:.3}x hand-partitioned throughput {}",
        if stats.splits >= 1 && ratio >= 0.90 {
            "=> the controller recovered the hand partition live (gate: >= 0.90x)."
        } else {
            "=> below the 0.90x convergence gate — inspect the profile hysteresis."
        }
    );
}
