//! Workload-description layer: the gate's two scenario applications as
//! plain data.
//!
//! Beside the paper's Eigenbench and Intruder, a [`crate::Run`] drives two
//! scenario workloads, each described by a `const` shape and run through the
//! same [`crate::run`] as every table cell:
//!
//! - [`crate::App::Buffer`]: a bounded-buffer producer/consumer run
//!   ([`Scenario`]). Its [`WaitMode`] says whether a transaction that finds
//!   its guard unsatisfied **spins** (abort and re-execute, the only option
//!   before composable blocking existed) or **blocks** (parks on its read
//!   set via [`votm::TxHandle::retry`]). The same shape runs both ways,
//!   which is what makes the `busy_retries_per_commit` comparison in
//!   `BENCH_<n>.json` apples to apples.
//! - [`crate::App::Partition`]: two thread groups confined to their own hot
//!   ranges ([`PartitionScenario`]), run on an [`votm::AdaptiveDomain`] that
//!   must split itself or on the hand-partitioned twin ([`Layout`]).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use votm::{
    AbortReason, AdaptiveDomain, Addr, DomainStats, FlightRecorder, StatsSnapshot, TxError,
    TxHandle, View, ViewStats, Votm,
};
use votm_ds::BoundedBuffer;
use votm_sim::{RunOutcome, RunStatus, SimConfig, SimExecutor};
use votm_utils::{SplitMix64, XorShift64};

use crate::Run;

/// What a transaction does when its guard fails (buffer empty on pop, full
/// on push).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitMode {
    /// Abort explicitly and re-execute after contention-management backoff —
    /// the pre-blocking baseline. Every failed poll is a booked abort.
    SpinRetry,
    /// Park on the read set via [`votm::TxHandle::retry`] until a
    /// conflicting commit wakes the transaction.
    Block,
}

impl WaitMode {
    /// Attempts that found the guard unsatisfied and burned cycles without
    /// parking: explicit poll-aborts when spinning; when blocking, retry
    /// attempts whose park was refused as stale (the rare raced-commit
    /// case) — everything else parked instead.
    pub fn busy_retries(self, tm: &StatsSnapshot) -> u64 {
        match self {
            WaitMode::SpinRetry => tm.aborts_by_reason[AbortReason::Explicit.index()],
            WaitMode::Block => tm.aborts_by_reason[AbortReason::Retry.index()]
                .saturating_sub(tm.parked_waits + tm.lost_wakeups),
        }
    }
}

/// One bounded-buffer shape. Half of the run's N threads produce, the rest
/// consume; the run's algorithm, N and seed come from its [`Run`].
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Row label (the gate row's `version` key, so the spin and block
    /// shapes must use distinct names).
    pub name: &'static str,
    /// Bounded-buffer slots.
    pub capacity: u32,
    /// Items each producer pushes. Their total must divide evenly across
    /// the consumers.
    pub items_per_producer: u64,
    /// Virtual cycles a producer "computes" before each push — the idle gap
    /// consumers either spin through or sleep through.
    pub producer_think_cycles: u64,
    /// Spin or block on a failed guard.
    pub waiting: WaitMode,
    /// Starvation watchdog `K` ([`votm::VotmBuilder::escalate_after`]).
    /// Blocking rows run with it ON to prove parking never trips it (the
    /// gated NOrec row escalates zero times; Orec rows may escalate on
    /// genuine conflict streaks, which is the watchdog doing its job —
    /// `retry()` stays sound there because the guard read precedes any
    /// write). Spin rows leave it off: an escalated spinner would be
    /// irrevocable, and its explicit poll-abort cannot be rolled back.
    pub escalate_after: Option<u32>,
}

const SPIN: Scenario = Scenario {
    name: "bounded16-spin",
    capacity: 16,
    items_per_producer: 40,
    producer_think_cycles: 60_000,
    waiting: WaitMode::SpinRetry,
    escalate_after: None,
};

/// The two bounded-buffer shapes the gate runs at N = 16, the same buffer
/// and items waited on two ways: the spin shape (under NOrec, the
/// acceptance pair's baseline for the ≥10× `busy_retries_per_commit` drop)
/// and the block shape (under every algorithm, so every wakeup-key
/// granularity is exercised).
pub const BLOCKING_SCENARIOS: [Scenario; 2] = [
    SPIN,
    Scenario {
        name: "bounded16-block",
        waiting: WaitMode::Block,
        escalate_after: Some(64),
        ..SPIN
    },
];

/// Runs the bounded buffer `s` as `run` describes under `sim`. The buffer is
/// one object, so the version must keep it in one view, whose quota is the
/// version's entry 0. Panics on conservation failure: every produced item
/// must be consumed exactly once (the sum of consumed values is checked
/// against the exact expected total).
pub(crate) fn run_buffer(s: Scenario, run: &Run, sim: SimConfig) -> (RunOutcome, Vec<ViewStats>) {
    assert!(
        !run.version.splits_objects(),
        "{}: the buffer is one object in one view",
        s.name
    );
    let producers = u64::from(run.n_threads / 2);
    let consumers = u64::from(run.n_threads) - producers;
    let total = producers * s.items_per_producer;
    assert!(
        total % consumers == 0,
        "{}: items must divide evenly across consumers",
        s.name
    );
    let sys = Votm::builder()
        .algo(run.algo)
        .threads(run.n_threads)
        .escalate_after(s.escalate_after)
        .build();
    let view = sys.create_view(
        (2 + s.capacity + 64) as usize,
        run.version.quotas(run.quotas)[0],
    );
    let buf = BoundedBuffer::create(&view, s.capacity);
    let consumed = Arc::new(AtomicU64::new(0));
    let mut ex = SimExecutor::new(sim);

    for p in 0..producers {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            for i in 0..s.items_per_producer {
                rt.charge(s.producer_think_cycles).await;
                let value = p * s.items_per_producer + i;
                match s.waiting {
                    WaitMode::Block => {
                        view.transact(&rt, async |tx| buf.push(tx, value).await)
                            .await;
                    }
                    WaitMode::SpinRetry => {
                        view.transact(&rt, async |tx| {
                            if buf.try_push(tx, value).await? {
                                Ok(())
                            } else {
                                Err(TxError::Abort(AbortReason::Explicit))
                            }
                        })
                        .await;
                    }
                }
            }
        });
    }
    for _ in 0..consumers {
        let view = Arc::clone(&view);
        let consumed = Arc::clone(&consumed);
        ex.spawn(move |rt| async move {
            for _ in 0..total / consumers {
                let v = match s.waiting {
                    WaitMode::Block => view.transact(&rt, async |tx| buf.pop(tx).await).await,
                    WaitMode::SpinRetry => {
                        view.transact(&rt, async |tx| match buf.try_pop(tx).await? {
                            Some(v) => Ok(v),
                            None => Err(TxError::Abort(AbortReason::Explicit)),
                        })
                        .await
                    }
                };
                consumed.fetch_add(v, Ordering::Relaxed);
            }
        });
    }

    let outcome = ex.run();
    if outcome.status == RunStatus::Completed {
        let expect: u64 = (0..total).sum();
        assert_eq!(
            consumed.load(Ordering::Relaxed),
            expect,
            "{}: items lost or duplicated",
            s.name
        );
    }
    (outcome, vec![view.stats()])
}

// ------------------------------------------------- Adaptive partitioning

/// How transactions pick keys inside their group's hot range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Uniform over the group's span.
    Uniform,
    /// Zipf(s = 1.1) over the span: rank-1 keys absorb most of the
    /// traffic — the hot-key shape that makes conflict profiles spiky.
    ZipfHot,
}

/// How a partition run maps its two thread groups onto views.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One [`votm::AdaptiveDomain`] starting as a single view, repartition
    /// controller live: it must find the split itself.
    Adaptive,
    /// Two programmer-created views, group g confined to view g — the
    /// paper's ideal the adaptive layout is measured against.
    Hand,
}

impl Layout {
    /// Row-label suffix.
    pub fn name(self) -> &'static str {
        match self {
            Layout::Adaptive => "adaptive",
            Layout::Hand => "hand",
        }
    }
}

/// One adaptive-partitioning workload shape: two thread groups (even and
/// odd threads), each confined to its own hot range of a shared address
/// space. Run under both [`Layout`]s, the throughput ratio is the
/// convergence number the gate holds at ≥ 0.90.
#[derive(Debug, Clone, Copy)]
pub struct PartitionScenario {
    /// Base row label; gate rows append `-adaptive` / `-hand`.
    pub name: &'static str,
    /// Transactions each thread runs.
    pub ops_per_thread: u64,
    /// Hot words per group.
    pub group_span: u64,
    /// Key distribution inside the group span.
    pub dist: KeyDist,
    /// Percent of transactions that are read-only.
    pub read_pct: u64,
    /// Shared keys touched per transaction.
    pub accesses_per_tx: u64,
}

/// Domain/heap geometry shared by every partition scenario: group A's hot
/// range starts at word 0, group B's at word [`GROUP_B_BASE`], in a
/// [`DOMAIN_WORDS`]-word space (64 profile buckets of 64 words).
pub const DOMAIN_WORDS: usize = 4096;
/// First word of group B's hot range (bucket 32).
pub const GROUP_B_BASE: u64 = 2048;

const UNIFORM: PartitionScenario = PartitionScenario {
    name: "partition-uniform",
    ops_per_thread: 600,
    group_span: 96,
    dist: KeyDist::Uniform,
    read_pct: 20,
    accesses_per_tx: 3,
};

/// The adaptive-partitioning shapes the gate runs under NOrec at N = 16:
/// the headline uniform write-heavy shape, the Zipf hot-key variant (spiky
/// conflict profile), and the read-mostly variant (waste share driven by
/// invalidated readers, not write-write conflicts).
pub const PARTITION_SCENARIOS: [PartitionScenario; 3] = [
    UNIFORM,
    PartitionScenario {
        name: "partition-zipf",
        dist: KeyDist::ZipfHot,
        ..UNIFORM
    },
    PartitionScenario {
        name: "partition-readmostly",
        read_pct: 90,
        ..UNIFORM
    },
];

/// The repartition policy the bench rows run: a fast controller (the runs
/// are short) with the default hysteresis shape. Merges are reachable but
/// never fire — the workloads are group-confined, so straddle pressure
/// stays zero and the domain converges to a stable two-view split.
fn bench_policy() -> votm::RepartitionPolicy {
    votm::RepartitionPolicy {
        interval: 1 << 13,
        cooldown: 1 << 15,
        min_separability: 0.6,
        min_waste_share: 0.01,
        min_aborts: 8,
        merge_cross_threshold: 8,
        max_views: 4,
    }
}

/// Cumulative Zipf(s = 1.1) weights over `span` ranks.
fn zipf_cdf(span: u64) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=span)
        .map(|r| {
            acc += 1.0 / (r as f64).powf(1.1);
            acc
        })
        .collect()
}

/// One key offset in `[0, span)` under `dist`.
fn sample_offset(dist: KeyDist, span: u64, cdf: &[f64], rng: &mut XorShift64) -> u64 {
    match dist {
        KeyDist::Uniform => rng.next_below(span),
        KeyDist::ZipfHot => {
            let total = *cdf.last().expect("non-empty cdf");
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
            (cdf.partition_point(|&c| c < u) as u64).min(span - 1)
        }
    }
}

/// Per-op access plan, drawn *outside* the transaction body so aborts and
/// re-executions never consume extra randomness.
fn op_plan(
    s: &PartitionScenario,
    base: u64,
    cdf: &[f64],
    rng: &mut XorShift64,
) -> (Vec<u64>, bool) {
    let addrs = (0..s.accesses_per_tx)
        .map(|_| base + sample_offset(s.dist, s.group_span, cdf, rng))
        .collect();
    (addrs, rng.chance_percent(s.read_pct))
}

/// Where one partition thread sends its transactions.
enum Target {
    /// The shared domain, which routes by the key's bucket.
    Domain(Arc<AdaptiveDomain>),
    /// The thread's group view.
    View(Arc<View>),
}

/// Runs the partition workload `s` under `layout` as `run` describes under
/// `sim`, returning the outcome, every view's statistics and, for the
/// adaptive layout, the domain's counters. Both layouts draw identical
/// per-thread rng streams and access plans. The version must say what the
/// layout starts as (one view per group for the hand twin, one view for the
/// domain); its quotas apply per group view, and entry 0 to the domain.
pub(crate) fn run_partition(
    s: PartitionScenario,
    layout: Layout,
    run: &Run,
    sim: SimConfig,
) -> (RunOutcome, Vec<ViewStats>, Option<DomainStats>) {
    assert_eq!(
        run.version.splits_objects(),
        layout == Layout::Hand,
        "{}: the hand layout gives each group a view, the adaptive one starts as one view",
        s.name
    );
    let quotas = run.version.quotas(run.quotas);
    let n = run.n_threads as usize;
    let builder = Votm::builder().algo(run.algo).threads(run.n_threads);
    let (domain, hand_views) = match layout {
        Layout::Adaptive => {
            // The controller profiles these rings, so their geometry is an
            // input to its split decisions.
            let recorder = Arc::new(FlightRecorder::new(n + 1, 1 << 14));
            let sys = builder.recorder(recorder).build();
            let domain = sys.create_domain(DOMAIN_WORDS, quotas[0], bench_policy());
            (Some(domain), Vec::new())
        }
        Layout::Hand => {
            let sys = builder.build();
            let views = quotas.map(|q| sys.create_view(DOMAIN_WORDS / 2, q));
            (None, views.to_vec())
        }
    };
    let remaining = Arc::new(AtomicUsize::new(n));
    let mut seeds = SplitMix64::new(run.seed);
    let mut ex = SimExecutor::new(sim);
    for t in 0..n {
        let mut rng = seeds.derive();
        // Hand views are half-size, so there group B's keys sample from
        // base 0: the offset stream is the adaptive run's either way.
        let (target, base) = match &domain {
            Some(domain) => (
                Target::Domain(Arc::clone(domain)),
                (t % 2) as u64 * GROUP_B_BASE,
            ),
            None => (Target::View(Arc::clone(&hand_views[t % 2])), 0),
        };
        let remaining = Arc::clone(&remaining);
        ex.spawn(move |rt| async move {
            let cdf = zipf_cdf(s.group_span);
            for _ in 0..s.ops_per_thread {
                let (addrs, read_only) = op_plan(&s, base, &cdf, &mut rng);
                let body = async |tx: &mut TxHandle<'_>| {
                    for &a in &addrs {
                        let v = tx.read(Addr(a as u32)).await?;
                        if !read_only {
                            tx.write(Addr(a as u32), v + 1).await?;
                        }
                    }
                    Ok(())
                };
                match &target {
                    Target::Domain(domain) => {
                        domain.transact(&rt, Addr(addrs[0] as u32), body).await
                    }
                    Target::View(view) => view.transact(&rt, body).await,
                }
            }
            remaining.fetch_sub(1, Ordering::AcqRel);
        });
    }
    if let Some(domain) = &domain {
        let domain = Arc::clone(domain);
        ex.spawn(move |rt| async move {
            domain.run_controller(&rt, &remaining).await;
        });
    }
    let outcome = ex.run();
    let views = domain.as_ref().map_or(hand_views, |d| d.views());
    (
        outcome,
        views.iter().map(|v| v.stats()).collect(),
        domain.map(|d| d.stats()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, App, Settings};
    use votm::{QuotaMode, TmAlgorithm, Version};

    /// Scenario runs replay deterministically per seed.
    #[test]
    fn scenario_rows_are_deterministic() {
        let block = Run {
            quotas: [QuotaMode::Fixed(16); 2],
            n_threads: 16,
            seed: 7,
            ..Settings::default().run(
                App::Buffer(BLOCKING_SCENARIOS[1]),
                TmAlgorithm::NOrec,
                Version::SingleView,
            )
        };
        let [a, b] = [0, 1].map(|_| run(&Settings::default(), block, None));
        assert_eq!(a.outcome.vtime, b.outcome.vtime);
        assert_eq!(a.outcome.steps, b.outcome.steps);
        assert_eq!(a.views[0].tm.commits, b.views[0].tm.commits);
        assert_eq!(a.views[0].tm.parked_waits, b.views[0].tm.parked_waits);
    }
}
