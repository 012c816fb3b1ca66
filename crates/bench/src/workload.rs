//! Workload-description layer: blocking producer/consumer scenarios as
//! plain data rows.
//!
//! The paper's experiments are [`crate::Run`]s of its two applications; a
//! blocking workload is *described* by a [`Scenario`] — thread split, buffer capacity,
//! item counts, think time, and crucially the [`WaitMode`]: does a
//! transaction that finds its guard unsatisfied **spin** (abort and
//! re-execute, the only option before composable blocking existed) or
//! **block** (park on its read set via [`votm::TxHandle::retry`])? The
//! same description runs both ways, which is what makes the
//! `busy_retries_per_commit` comparison in `BENCH_<n>.json` apples to
//! apples: identical workload, different waiting discipline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use votm::{AbortReason, QuotaMode, TmAlgorithm, TxError, ViewStats, Votm};
use votm_ds::BoundedBuffer;
use votm_sim::{RunOutcome, RunStatus, SimConfig, SimExecutor};

use crate::{fold_gate_row, ratio, GateRow, Settings};

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
    /// Short stable label used in row names.
    pub fn name(self) -> &'static str {
        match self {
            WaitMode::SpinRetry => "spin",
            WaitMode::Block => "block",
        }
    }
}

/// One blocking-workload description. Plain data: the scenario tables below
/// are `const`, and a scenario runs identically whichever binary loads it.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Row label (doubles as the gate row's `version` key, so spin and
    /// block variants of the same shape must use distinct names).
    pub name: &'static str,
    /// STM algorithm the single view runs.
    pub algo: TmAlgorithm,
    /// Thread count N (= producers + consumers).
    pub n_threads: u32,
    /// Producer tasks.
    pub producers: u32,
    /// Consumer tasks. `producers × items_per_producer` must divide evenly.
    pub consumers: u32,
    /// Bounded-buffer slots.
    pub capacity: u32,
    /// Items each producer pushes.
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

/// The bounded-buffer scenario matrix shipped in `BENCH_<n>.json`: the
/// gated spin/block pair at N = 16 under NOrec (the acceptance pair for the
/// ≥10× `busy_retries_per_commit` drop), plus a blocking row per remaining
/// algorithm so every wakeup-key granularity is exercised by the gate.
pub const BLOCKING_SCENARIOS: [Scenario; 4] = [
    Scenario {
        name: "bounded16-spin",
        algo: TmAlgorithm::NOrec,
        n_threads: 16,
        producers: 8,
        consumers: 8,
        capacity: 16,
        items_per_producer: 40,
        producer_think_cycles: 60_000,
        waiting: WaitMode::SpinRetry,
        escalate_after: None,
    },
    Scenario {
        name: "bounded16-block",
        algo: TmAlgorithm::NOrec,
        n_threads: 16,
        producers: 8,
        consumers: 8,
        capacity: 16,
        items_per_producer: 40,
        producer_think_cycles: 60_000,
        waiting: WaitMode::Block,
        escalate_after: Some(64),
    },
    Scenario {
        name: "bounded16-block",
        algo: TmAlgorithm::OrecEagerRedo,
        n_threads: 16,
        producers: 8,
        consumers: 8,
        capacity: 16,
        items_per_producer: 40,
        producer_think_cycles: 60_000,
        waiting: WaitMode::Block,
        escalate_after: Some(64),
    },
    Scenario {
        name: "bounded16-block",
        algo: TmAlgorithm::OrecLazy,
        n_threads: 16,
        producers: 8,
        consumers: 8,
        capacity: 16,
        items_per_producer: 40,
        producer_think_cycles: 60_000,
        waiting: WaitMode::Block,
        escalate_after: Some(64),
    },
];

/// Result of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Simulator outcome (status, virtual makespan, steps).
    pub outcome: RunOutcome,
    /// The single view's statistics.
    pub view: ViewStats,
    /// Attempts that found the guard unsatisfied and burned cycles without
    /// parking: explicit poll-aborts under [`WaitMode::SpinRetry`]; under
    /// [`WaitMode::Block`], retry attempts whose park was refused as stale
    /// (the rare raced-commit case) — everything else parked instead.
    pub busy_guard_retries: u64,
}

/// Runs `scenario` once under the virtual-time simulator with `seed`.
/// Panics on conservation failure: every produced item must be consumed
/// exactly once (the sum of consumed values is checked against the exact
/// expected total).
pub fn run_scenario(scenario: &Scenario, seed: u64) -> ScenarioResult {
    let s = scenario;
    assert!(
        (u64::from(s.producers) * s.items_per_producer).is_multiple_of(u64::from(s.consumers)),
        "{}: items must divide evenly across consumers",
        s.name
    );
    let sys = Votm::builder()
        .algo(s.algo)
        .threads(s.n_threads)
        .escalate_after(s.escalate_after)
        .build();
    let view = sys.create_view(
        (2 + s.capacity + 64) as usize,
        QuotaMode::Fixed(s.n_threads),
    );
    let buf = BoundedBuffer::create(&view, s.capacity);
    let consumed = Arc::new(AtomicU64::new(0));
    let mut ex = SimExecutor::new(SimConfig {
        seed,
        ..SimConfig::default()
    });

    for p in 0..u64::from(s.producers) {
        let view = Arc::clone(&view);
        let s = *s;
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
    let per_consumer = u64::from(s.producers) * s.items_per_producer / u64::from(s.consumers);
    for _ in 0..s.consumers {
        let view = Arc::clone(&view);
        let consumed = Arc::clone(&consumed);
        let s = *s;
        ex.spawn(move |rt| async move {
            for _ in 0..per_consumer {
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
    let total = u64::from(s.producers) * s.items_per_producer;
    if outcome.status == RunStatus::Completed {
        let expect: u64 = (0..total).sum();
        assert_eq!(
            consumed.load(Ordering::Relaxed),
            expect,
            "{}: items lost or duplicated",
            s.name
        );
    }
    let view_stats = view.stats();
    let tm = view_stats.tm;
    let busy_guard_retries = match s.waiting {
        WaitMode::SpinRetry => tm.aborts_by_reason[AbortReason::Explicit.index()],
        WaitMode::Block => tm.aborts_by_reason[AbortReason::Retry.index()]
            .saturating_sub(tm.parked_waits + tm.lost_wakeups),
    };
    ScenarioResult {
        outcome,
        view: view_stats,
        busy_guard_retries,
    }
}

/// Converts a scenario run into a `BENCH_<n>.json` gate row. The row's
/// `version` is the scenario name, its `busy_retries` is the scenario's
/// guard-spin count (see [`ScenarioResult::busy_guard_retries`] — the
/// spin-vs-park ledger these rows exist to compare), and the new
/// `parked_waits`/`lost_wakeups`/`escalations` fields carry the blocking
/// side of that ledger.
pub fn scenario_gate_row(scenario: &Scenario, seed: u64) -> GateRow {
    let t0 = std::time::Instant::now();
    let res = run_scenario(scenario, seed);
    let mut row = fold_gate_row(
        scenario.algo,
        scenario.name,
        scenario.n_threads,
        t0.elapsed().as_secs_f64(),
        [(&res.outcome, std::slice::from_ref(&res.view))],
    );
    row.busy_retries = res.busy_guard_retries;
    row.busy_retries_per_commit = ratio(res.busy_guard_retries, row.commits, 0.0);
    row
}

/// One gate row per [`BLOCKING_SCENARIOS`] entry, run at the gate's seed.
/// These rows are *new* relative to pre-blocking baselines (distinct
/// `version` labels), so `benchdiff` reports them without gating — while
/// the eigenbench default rows stay bit-identical.
pub fn blocking_gate_rows(settings: &Settings) -> Vec<GateRow> {
    BLOCKING_SCENARIOS
        .iter()
        .map(|s| scenario_gate_row(s, settings.seed))
        .collect()
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

impl KeyDist {
    /// Short stable label used in row names.
    pub fn name(self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::ZipfHot => "zipf",
        }
    }
}

/// One adaptive-partitioning workload description: two thread groups, each
/// confined to its own hot range of a shared address space. Run two ways —
/// **adaptive** (one [`votm::AdaptiveDomain`] starting as a single view,
/// repartitioner live) and **hand** (two programmer-partitioned views, the
/// paper's ideal) — and the throughput ratio is the convergence number the
/// gate holds at ≥ 0.90.
#[derive(Debug, Clone, Copy)]
pub struct PartitionScenario {
    /// Base row label; gate rows append `-adaptive` / `-hand`.
    pub name: &'static str,
    /// STM algorithm (domain views and hand views alike).
    pub algo: TmAlgorithm,
    /// Thread count N (split evenly between the two groups).
    pub n_threads: u32,
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

/// The adaptive-partitioning scenario matrix shipped in `BENCH_<n>.json`:
/// the headline uniform write-heavy pair, the Zipf hot-key variant (spiky
/// conflict profile), and the read-mostly variant (waste share driven by
/// invalidated readers, not write-write conflicts).
pub const PARTITION_SCENARIOS: [PartitionScenario; 3] = [
    PartitionScenario {
        name: "partition-uniform",
        algo: TmAlgorithm::NOrec,
        n_threads: 16,
        ops_per_thread: 600,
        group_span: 96,
        dist: KeyDist::Uniform,
        read_pct: 20,
        accesses_per_tx: 3,
    },
    PartitionScenario {
        name: "partition-zipf",
        algo: TmAlgorithm::NOrec,
        n_threads: 16,
        ops_per_thread: 600,
        group_span: 96,
        dist: KeyDist::ZipfHot,
        read_pct: 20,
        accesses_per_tx: 3,
    },
    PartitionScenario {
        name: "partition-readmostly",
        algo: TmAlgorithm::NOrec,
        n_threads: 16,
        ops_per_thread: 600,
        group_span: 96,
        dist: KeyDist::Uniform,
        read_pct: 90,
        accesses_per_tx: 3,
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
fn sample_offset(dist: KeyDist, span: u64, cdf: &[f64], rng: &mut votm_utils::XorShift64) -> u64 {
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
    rng: &mut votm_utils::XorShift64,
) -> (Vec<u64>, bool) {
    let addrs = (0..s.accesses_per_tx)
        .map(|_| base + sample_offset(s.dist, s.group_span, cdf, rng))
        .collect();
    (addrs, rng.chance_percent(s.read_pct))
}

/// Outcome of one partition-scenario run (either mode).
struct PartitionRun {
    outcome: RunOutcome,
    views: Vec<ViewStats>,
    repartitions: u64,
    split_drain_cycles: u64,
    final_views: u32,
}

/// The adaptive mode: one domain, one initial view, controller live.
fn run_partition_adaptive(s: &PartitionScenario, seed: u64) -> PartitionRun {
    use std::sync::atomic::AtomicUsize;

    let recorder = Arc::new(votm::FlightRecorder::new(s.n_threads as usize + 1, 1 << 14));
    let sys = Votm::builder()
        .algo(s.algo)
        .threads(s.n_threads)
        .recorder(Arc::clone(&recorder))
        .build();
    let domain = sys.create_domain(DOMAIN_WORDS, QuotaMode::Fixed(s.n_threads), bench_policy());
    let remaining = Arc::new(AtomicUsize::new(s.n_threads as usize));
    let mut seeds = votm_utils::SplitMix64::new(seed);
    let mut ex = SimExecutor::new(SimConfig {
        seed,
        ..SimConfig::default()
    });
    for t in 0..s.n_threads as usize {
        let domain = Arc::clone(&domain);
        let remaining = Arc::clone(&remaining);
        let mut rng = seeds.derive();
        let s = *s;
        let base = if t % 2 == 0 { 0 } else { GROUP_B_BASE };
        ex.spawn(move |rt| async move {
            let cdf = zipf_cdf(s.group_span);
            for _ in 0..s.ops_per_thread {
                let (addrs, read_only) = op_plan(&s, base, &cdf, &mut rng);
                let hint = votm::Addr(addrs[0] as u32);
                domain
                    .transact(&rt, hint, async |tx| {
                        for &a in &addrs {
                            let v = tx.read(votm::Addr(a as u32)).await?;
                            if !read_only {
                                tx.write(votm::Addr(a as u32), v + 1).await?;
                            }
                        }
                        Ok(())
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
    let outcome = ex.run();
    let stats = domain.stats();
    PartitionRun {
        outcome,
        views: domain.views().iter().map(|v| v.stats()).collect(),
        repartitions: stats.repartitions,
        split_drain_cycles: stats.split_drain_cycles,
        final_views: stats.live_views as u32,
    }
}

/// The hand-partitioned twin: two programmer-created views, group g's
/// threads confined to view g — the paper's ideal the adaptive mode is
/// measured against. Identical per-thread rng streams and access plans.
fn run_partition_hand(s: &PartitionScenario, seed: u64) -> PartitionRun {
    let sys = Votm::builder().algo(s.algo).threads(s.n_threads).build();
    let views = [
        sys.create_view(DOMAIN_WORDS / 2, QuotaMode::Fixed(s.n_threads)),
        sys.create_view(DOMAIN_WORDS / 2, QuotaMode::Fixed(s.n_threads)),
    ];
    let mut seeds = votm_utils::SplitMix64::new(seed);
    let mut ex = SimExecutor::new(SimConfig {
        seed,
        ..SimConfig::default()
    });
    for t in 0..s.n_threads as usize {
        let view = Arc::clone(&views[t % 2]);
        let mut rng = seeds.derive();
        let s = *s;
        // Hand views are half-size, so group B's plan re-bases to 0 by
        // sampling with base 0 — the offsets stream is identical to the
        // adaptive run's (op_plan adds the base after sampling).
        ex.spawn(move |rt| async move {
            let cdf = zipf_cdf(s.group_span);
            for _ in 0..s.ops_per_thread {
                let (addrs, read_only) = op_plan(&s, 0, &cdf, &mut rng);
                view.transact(&rt, async |tx| {
                    for &a in &addrs {
                        let v = tx.read(votm::Addr(a as u32)).await?;
                        if !read_only {
                            tx.write(votm::Addr(a as u32), v + 1).await?;
                        }
                    }
                    Ok(())
                })
                .await;
            }
        });
    }
    let outcome = ex.run();
    PartitionRun {
        outcome,
        views: views.iter().map(|v| v.stats()).collect(),
        repartitions: 0,
        split_drain_cycles: 0,
        final_views: 2,
    }
}

/// Folds a [`PartitionRun`] into a gate row.
fn partition_row(
    s: &PartitionScenario,
    version: &'static str,
    run: &PartitionRun,
    wall_s: f64,
) -> GateRow {
    GateRow {
        n_views: run.final_views,
        repartitions: run.repartitions,
        split_drain_cycles: run.split_drain_cycles,
        ..fold_gate_row(
            s.algo,
            version,
            s.n_threads,
            wall_s,
            [(&run.outcome, &run.views[..])],
        )
    }
}

/// Row-label pairs for [`PARTITION_SCENARIOS`] (static strings so
/// [`GateRow::version`] stays `&'static str`).
const PARTITION_VERSIONS: [(&str, &str); 3] = [
    ("partition-uniform-adaptive", "partition-uniform-hand"),
    ("partition-zipf-adaptive", "partition-zipf-hand"),
    ("partition-readmostly-adaptive", "partition-readmostly-hand"),
];

/// Two gate rows per [`PARTITION_SCENARIOS`] entry — the adaptive run and
/// its hand-partitioned twin. The adaptive row's
/// `converged_throughput_ratio` is adaptive ÷ hand throughput; CI holds
/// every nonzero ratio at ≥ 0.90 (the tentpole's convergence gate).
pub fn partition_gate_rows(settings: &Settings) -> Vec<GateRow> {
    let mut rows = Vec::new();
    for (s, (adaptive_name, hand_name)) in PARTITION_SCENARIOS.iter().zip(PARTITION_VERSIONS) {
        let t0 = std::time::Instant::now();
        let hand = run_partition_hand(s, settings.seed);
        let hand_wall = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let adaptive = run_partition_adaptive(s, settings.seed);
        let adaptive_wall = t1.elapsed().as_secs_f64();
        let hand_row = partition_row(s, hand_name, &hand, hand_wall);
        let mut adaptive_row = partition_row(s, adaptive_name, &adaptive, adaptive_wall);
        if hand_row.txns_per_vsec > 0.0 {
            adaptive_row.converged_throughput_ratio =
                adaptive_row.txns_per_vsec / hand_row.txns_per_vsec;
        }
        rows.push(adaptive_row);
        rows.push(hand_row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole's acceptance criterion: at N = 16 on the single-view
    /// bounded buffer, blocking turns the spin baseline's guard retries
    /// into counted parked waits — a ≥10× `busy_retries_per_commit` drop —
    /// with zero watchdog escalations and zero lost wakeups.
    #[test]
    fn blocking_cuts_busy_retries_per_commit_10x() {
        let spin = scenario_gate_row(&BLOCKING_SCENARIOS[0], 1);
        let block = scenario_gate_row(&BLOCKING_SCENARIOS[1], 1);
        assert_eq!(spin.status, RunStatus::Completed);
        assert_eq!(block.status, RunStatus::Completed);
        assert_eq!(spin.commits, block.commits, "identical useful work");
        assert!(
            spin.busy_retries_per_commit >= 10.0 * block.busy_retries_per_commit.max(0.05),
            "blocking must cut busy retries >=10x: spin {:.2}, block {:.2}",
            spin.busy_retries_per_commit,
            block.busy_retries_per_commit
        );
        assert_eq!(spin.parked_waits, 0, "spin mode never parks");
        assert!(block.parked_waits > 0, "blocking mode parks: {block:?}");
        assert_eq!(block.lost_wakeups, 0, "{block:?}");
        assert_eq!(block.escalations, 0, "parking must not trip the watchdog");
    }

    /// Every blocking scenario (all three algorithms) completes, conserves
    /// items (asserted inside [`run_scenario`]), parks, and loses nothing.
    #[test]
    fn all_blocking_scenarios_complete_without_lost_wakeups() {
        for s in BLOCKING_SCENARIOS
            .iter()
            .filter(|s| s.waiting == WaitMode::Block)
        {
            let res = run_scenario(s, 1);
            assert_eq!(res.outcome.status, RunStatus::Completed, "{s:?}");
            assert!(res.view.tm.parked_waits > 0, "{s:?}");
            assert_eq!(res.view.tm.lost_wakeups, 0, "{s:?}");
        }
    }

    /// Scenario runs replay deterministically per seed.
    #[test]
    fn scenario_rows_are_deterministic() {
        let a = scenario_gate_row(&BLOCKING_SCENARIOS[1], 7);
        let b = scenario_gate_row(&BLOCKING_SCENARIOS[1], 7);
        assert_eq!(a.vtime, b.vtime);
        assert_eq!(a.sim_steps, b.sim_steps);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.parked_waits, b.parked_waits);
    }
}
