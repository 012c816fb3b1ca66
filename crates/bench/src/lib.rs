//! Benchmark harness regenerating the paper's evaluation (Tables III–X)
//! plus extension experiments (tables 11–12) and ablation benches.
//!
//! Each `table*` function runs the corresponding experiment under the
//! virtual-time simulator and returns structured rows; the `tables` binary
//! formats them like the paper. Workload sizes are scaled by
//! [`Settings::eigen_scale`] / [`Settings::intruder_scale`] (1.0 = the
//! paper's 3.2M Eigenbench transactions / 262144 Intruder flows); the
//! *shape* of each table — orderings, crossovers, livelocks — is the
//! reproduction target, not absolute seconds.
//!
//! Livelock reporting follows the paper's practice: a configuration that
//! fails to finish within `cap_factor ×` the application's lock-mode
//! (Q = 1) makespan is reported as "livelock".

#![warn(missing_docs)]

pub mod fmt;
pub mod harness;
pub mod json;
pub mod workload;

use std::sync::Arc;

use votm::{ClockKind, CmPolicy, FlightRecorder, QuotaMode, TmAlgorithm, ViewStats};
use votm_eigenbench::{EigenConfig, EigenResult};
use votm_intruder::{GenConfig, Input, IntruderResult};
use votm_obs::export::{self, ViewReport};
use votm_obs::{AbortReason, ConflictProfile, HistogramSnapshot, SCHEMA_VERSION};
use votm_sim::{RunOutcome, RunStatus, SimConfig};
use votm_stm::cost::CYCLES_PER_SECOND;

/// Cycle-to-microsecond conversion for exported traces (the simulator's
/// cost model clocks a 2.5 GHz core).
pub const CYCLES_PER_US: u64 = CYCLES_PER_SECOND / 1_000_000;

/// Global experiment settings.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Eigenbench loop scale (1.0 = 100k loops/thread/view).
    pub eigen_scale: f64,
    /// Intruder flow scale (1.0 = 262144 flows).
    pub intruder_scale: f64,
    /// Thread count N.
    pub n_threads: u32,
    /// Scheduling seed.
    pub seed: u64,
    /// Livelock watchdog: cap = `cap_factor` × lock-mode makespan.
    pub cap_factor: u64,
}

impl Default for Settings {
    fn default() -> Self {
        Self {
            eigen_scale: 0.002,
            intruder_scale: 1.0 / 64.0,
            n_threads: 16,
            seed: 1,
            cap_factor: 16,
        }
    }
}

impl Settings {
    fn eigen_config(&self) -> EigenConfig {
        let mut c = EigenConfig::paper_table2(self.eigen_scale);
        c.n_threads = self.n_threads;
        c.seed = self.seed;
        c
    }

    fn intruder_input(&self) -> Arc<Input> {
        Arc::new(votm_intruder::generate(&GenConfig::paper(
            self.intruder_scale,
        )))
    }

    fn sim(&self, cap: Option<u64>) -> SimConfig {
        SimConfig {
            seed: self.seed,
            vtime_cap: cap,
            max_steps: u64::MAX,
            ..Default::default()
        }
    }
}

/// One row of a fixed-quota sweep table.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The quota this row was run at (Q, or Q₁ for multi-view sweeps).
    pub q: u32,
    /// Completed or livelocked.
    pub status: RunStatus,
    /// Makespan in virtual seconds (cycles / 2.5 GHz).
    pub runtime_s: f64,
    /// Per-view statistics (single entry for single-view runs).
    pub views: Vec<ViewStats>,
}

/// One row of an adaptive-RAC comparison table (Table VI / X).
#[derive(Debug, Clone)]
pub struct AdaptiveRow {
    /// Version label ("single-view", "multi-view", "multi-TM", "TM").
    pub version: &'static str,
    /// Completed or livelocked.
    pub status: RunStatus,
    /// Makespan in virtual seconds.
    pub runtime_s: f64,
    /// Settled quota per view (empty for no-RAC versions).
    pub quotas: Vec<u32>,
    /// Total aborts across views.
    pub aborts: u64,
    /// Total commits across views.
    pub commits: u64,
}

fn vsec(vtime: u64) -> f64 {
    vtime as f64 / CYCLES_PER_SECOND as f64
}

const SWEEP_QS: [u32; 5] = [1, 2, 4, 8, 16];

// ---------------------------------------------------------------- Eigenbench

fn eigen_run(
    settings: &Settings,
    algo: TmAlgorithm,
    version: votm_eigenbench::Version,
    quotas: [QuotaMode; 2],
    cap: Option<u64>,
) -> EigenResult {
    eigen_run_recorded(settings, algo, version, quotas, cap, None)
}

fn eigen_run_recorded(
    settings: &Settings,
    algo: TmAlgorithm,
    version: votm_eigenbench::Version,
    quotas: [QuotaMode; 2],
    cap: Option<u64>,
    recorder: Option<Arc<FlightRecorder>>,
) -> EigenResult {
    votm_eigenbench::run_sim_recorded(
        &settings.eigen_config(),
        algo,
        version,
        quotas,
        settings.sim(cap),
        recorder,
    )
}

/// Lock-mode (Q = 1) makespan used to anchor the livelock watchdog.
fn eigen_baseline(settings: &Settings, algo: TmAlgorithm) -> u64 {
    eigen_run(
        settings,
        algo,
        votm_eigenbench::Version::SingleView,
        [QuotaMode::Fixed(1), QuotaMode::Fixed(1)],
        None,
    )
    .outcome
    .vtime
}

/// Tables III (OrecEagerRedo) and VII (NOrec): single-view Eigenbench with
/// the quota fixed to 1, 2, 4, 8, 16.
pub fn eigen_single_view_sweep(settings: &Settings, algo: TmAlgorithm) -> Vec<SweepRow> {
    let baseline = eigen_baseline(settings, algo);
    let cap = baseline.saturating_mul(settings.cap_factor);
    SWEEP_QS
        .iter()
        .map(|&q| {
            let res = eigen_run(
                settings,
                algo,
                votm_eigenbench::Version::SingleView,
                [QuotaMode::Fixed(q), QuotaMode::Fixed(q)],
                Some(cap),
            );
            SweepRow {
                q,
                status: res.outcome.status,
                runtime_s: vsec(res.outcome.vtime),
                views: res.views,
            }
        })
        .collect()
}

/// Tables V (OrecEagerRedo) and IX (NOrec): multi-view Eigenbench; Q₂ is
/// pinned to N (the low-contention view needs no restriction) while Q₁
/// sweeps 1, 2, 4, 8, 16.
pub fn eigen_multi_view_sweep(settings: &Settings, algo: TmAlgorithm) -> Vec<SweepRow> {
    let baseline = eigen_baseline(settings, algo);
    let cap = baseline.saturating_mul(settings.cap_factor);
    SWEEP_QS
        .iter()
        .map(|&q1| {
            let res = eigen_run(
                settings,
                algo,
                votm_eigenbench::Version::MultiView,
                [QuotaMode::Fixed(q1), QuotaMode::Fixed(settings.n_threads)],
                Some(cap),
            );
            SweepRow {
                q: q1,
                status: res.outcome.status,
                runtime_s: vsec(res.outcome.vtime),
                views: res.views,
            }
        })
        .collect()
}

// ------------------------------------------------------------------ Intruder

fn intruder_run(
    settings: &Settings,
    input: &Arc<Input>,
    algo: TmAlgorithm,
    version: votm_intruder::Version,
    quotas: [QuotaMode; 2],
    cap: Option<u64>,
) -> IntruderResult {
    let res = votm_intruder::run_sim(
        input,
        settings.n_threads,
        algo,
        version,
        quotas,
        settings.sim(cap),
    );
    if res.outcome.status == RunStatus::Completed {
        assert_eq!(res.flows_processed, input.flows, "flows lost");
        assert_eq!(res.attacks_found, input.attacks_injected, "detector miss");
        assert_eq!(res.checksum_errors, 0, "reassembly corruption");
    }
    res
}

/// Tables IV (OrecEagerRedo) and VIII (NOrec): single-view Intruder, fixed
/// quota sweep.
pub fn intruder_single_view_sweep(settings: &Settings, algo: TmAlgorithm) -> Vec<SweepRow> {
    let input = settings.intruder_input();
    let baseline = intruder_run(
        settings,
        &input,
        algo,
        votm_intruder::Version::SingleView,
        [QuotaMode::Fixed(1), QuotaMode::Fixed(1)],
        None,
    )
    .outcome
    .vtime;
    let cap = baseline.saturating_mul(settings.cap_factor);
    SWEEP_QS
        .iter()
        .map(|&q| {
            let res = intruder_run(
                settings,
                &input,
                algo,
                votm_intruder::Version::SingleView,
                [QuotaMode::Fixed(q), QuotaMode::Fixed(q)],
                Some(cap),
            );
            SweepRow {
                q,
                status: res.outcome.status,
                runtime_s: vsec(res.outcome.vtime),
                views: res.views,
            }
        })
        .collect()
}

/// Intruder multi-view with both quotas pinned to N — the configuration the
/// paper reports alongside Tables IV/VIII ("in the multi-view version of
/// Intruder, where both Q1 and Q2 are set to 16").
pub fn intruder_multi_view_full_quota(settings: &Settings, algo: TmAlgorithm) -> SweepRow {
    let input = settings.intruder_input();
    let res = intruder_run(
        settings,
        &input,
        algo,
        votm_intruder::Version::MultiView,
        [
            QuotaMode::Fixed(settings.n_threads),
            QuotaMode::Fixed(settings.n_threads),
        ],
        None,
    );
    SweepRow {
        q: settings.n_threads,
        status: res.outcome.status,
        runtime_s: vsec(res.outcome.vtime),
        views: res.views,
    }
}

// ----------------------------------------------------- Adaptive (VI and X)

/// Tables VI (OrecEagerRedo) and X (NOrec), Eigenbench block: adaptive RAC
/// vs the no-RAC baselines.
pub fn adaptive_eigen(settings: &Settings, algo: TmAlgorithm) -> Vec<AdaptiveRow> {
    let baseline = eigen_baseline(settings, algo);
    let cap = Some(baseline.saturating_mul(settings.cap_factor));
    votm_eigenbench::Version::ALL
        .iter()
        .map(|&version| {
            let res = eigen_run(
                settings,
                algo,
                version,
                [QuotaMode::Adaptive, QuotaMode::Adaptive],
                cap,
            );
            adaptive_row(
                version.name(),
                res.outcome.status,
                res.outcome.vtime,
                &res.views,
                version_has_rac_eigen(version),
            )
        })
        .collect()
}

/// Tables VI and X, Intruder block.
pub fn adaptive_intruder(settings: &Settings, algo: TmAlgorithm) -> Vec<AdaptiveRow> {
    let input = settings.intruder_input();
    let baseline = intruder_run(
        settings,
        &input,
        algo,
        votm_intruder::Version::SingleView,
        [QuotaMode::Fixed(1), QuotaMode::Fixed(1)],
        None,
    )
    .outcome
    .vtime;
    let cap = Some(baseline.saturating_mul(settings.cap_factor));
    votm_intruder::Version::ALL
        .iter()
        .map(|&version| {
            let res = intruder_run(
                settings,
                &input,
                algo,
                version,
                [QuotaMode::Adaptive, QuotaMode::Adaptive],
                cap,
            );
            adaptive_row(
                version.name(),
                res.outcome.status,
                res.outcome.vtime,
                &res.views,
                version_has_rac_intruder(version),
            )
        })
        .collect()
}

/// Extension experiment (not in the paper): compares all three STM
/// algorithms — the paper's two plus OrecLazy — on the multi-view adaptive
/// configurations of both applications. Grounds the paper's §IV-C
/// suggestion that different views could pick different algorithms.
pub fn algorithm_comparison(settings: &Settings) -> Vec<AdaptiveRow> {
    let input = settings.intruder_input();
    let mut rows = Vec::new();
    for algo in TmAlgorithm::ALL {
        let baseline = eigen_baseline(settings, algo);
        let res = eigen_run(
            settings,
            algo,
            votm_eigenbench::Version::MultiView,
            [QuotaMode::Adaptive, QuotaMode::Adaptive],
            Some(baseline.saturating_mul(settings.cap_factor)),
        );
        rows.push(adaptive_row(
            algo.name(),
            res.outcome.status,
            res.outcome.vtime,
            &res.views,
            true,
        ));
    }
    for algo in TmAlgorithm::ALL {
        let res = intruder_run(
            settings,
            &input,
            algo,
            votm_intruder::Version::MultiView,
            [QuotaMode::Adaptive, QuotaMode::Adaptive],
            None,
        );
        rows.push(adaptive_row(
            algo.name(),
            res.outcome.status,
            res.outcome.vtime,
            &res.views,
            true,
        ));
    }
    rows
}

/// Extension experiment (not in the paper): the multi-view benefit as a
/// function of thread count. For each N the Intruder single-view and
/// multi-view NOrec versions run with full fixed quotas; the ratio shows
/// how global-clock contention — and therefore the value of view
/// partitioning — grows with parallelism.
pub fn thread_scaling(settings: &Settings) -> Vec<(u32, f64, f64)> {
    let input = settings.intruder_input();
    [2u32, 4, 8, 16]
        .iter()
        .map(|&n| {
            let mut s = *settings;
            s.n_threads = n;
            let single = intruder_run(
                &s,
                &input,
                TmAlgorithm::NOrec,
                votm_intruder::Version::SingleView,
                [QuotaMode::Fixed(n), QuotaMode::Fixed(n)],
                None,
            )
            .outcome
            .vtime;
            let multi = intruder_run(
                &s,
                &input,
                TmAlgorithm::NOrec,
                votm_intruder::Version::MultiView,
                [QuotaMode::Fixed(n), QuotaMode::Fixed(n)],
                None,
            )
            .outcome
            .vtime;
            (n, vsec(single), vsec(multi))
        })
        .collect()
}

// ------------------------------------------------------- Throughput gate

/// One row of the machine-readable throughput gate (`BENCH_<n>.json`).
#[derive(Debug, Clone)]
pub struct GateRow {
    /// STM algorithm name.
    pub algo: &'static str,
    /// Contention-management policy the row ran under
    /// ([`CmPolicy::name`]). `"backoff"` rows are the regression-gated
    /// default; the other policies are comparison rows.
    pub policy: &'static str,
    /// Clock strategy the row's views ran ([`ClockKind::name`]). `"global"`
    /// rows are the regression-gated default; the other kinds are the
    /// clock-variant comparison rows measured head-to-head in
    /// `clock_table.md`.
    pub clock: &'static str,
    /// Eigenbench version label ("single-view" = 1 view, "multi-view" = 2).
    pub version: &'static str,
    /// Number of views the version partitions memory into.
    pub n_views: u32,
    /// Thread count N for this row.
    pub n_threads: u32,
    /// Completed, unless any seed in the sweep failed to complete.
    pub status: RunStatus,
    /// Committed transactions summed over views and the seed sweep.
    pub commits: u64,
    /// Aborted attempts summed over views and the seed sweep.
    pub aborts: u64,
    /// `aborts / (commits + aborts)` (0 when idle).
    pub abort_rate: f64,
    /// Makespan in virtual cycles, summed over the seed sweep.
    pub vtime: u64,
    /// Committed transactions per virtual second — the regression metric.
    pub txns_per_vsec: f64,
    /// Host wall-clock seconds the row took to simulate (informational;
    /// varies with host load, not gated on).
    pub wall_s: f64,
    /// Fraction of gate admissions served on the lock-free CAS fast path,
    /// aggregated over views.
    pub gate_fast_path_hit_rate: f64,
    /// Gate admissions served on the lock-free CAS fast path (raw count,
    /// summed over views and seeds).
    pub fast_acquires: u64,
    /// Gate admissions that entered the blocking slow path.
    pub slow_acquires: u64,
    /// Busy-wait retries (seqlock held, lost CAS race; not aborts).
    pub busy_retries: u64,
    /// `busy_retries / commits` (0 when idle) — how many spin retries each
    /// committed transaction paid on average. The derived form of the
    /// paper's global-clock bottleneck: under single-view NOrec at N = 16
    /// this dwarfs 1, and it is the number the clock variants attack.
    pub busy_retries_per_commit: f64,
    /// Clock bumps actually taken (fetch-add or seqlock release), summed
    /// over views and seeds. See `votm_stm::clock::ClockStats::bumps`.
    pub clock_bumps: u64,
    /// Clock bumps elided (GV5 reuse, SNZI solo-skip), summed over views
    /// and seeds. Always 0 under `"global"`.
    pub clock_bump_skips: u64,
    /// Cycles threads spent blocked at admission gates.
    pub gate_wait_cycles: u64,
    /// Median commit latency in cycles (bucket upper bound), from the
    /// per-view commit histograms merged over views and seeds.
    pub commit_p50_cycles: u64,
    /// 99th-percentile commit latency in cycles (bucket upper bound).
    pub commit_p99_cycles: u64,
    /// Cycles burned inside aborted attempts, summed over views and seeds —
    /// the wasted-work ledger's headline number (the numerator of the
    /// paper's δ(Q) estimator, Eq. 5).
    pub wasted_cycles: u64,
    /// Cycles spent inside committed attempts (the ledger's "useful" side).
    pub useful_cycles: u64,
    /// `wasted / (useful + wasted)` (0 when idle) — the fraction of all
    /// transactional work that was thrown away.
    pub waste_frac: f64,
    /// `wasted_cycles` split by [`AbortReason`], index = `reason.index()`.
    /// Components always sum exactly to `wasted_cycles`.
    pub wasted_by_reason: [u64; AbortReason::COUNT],
    /// Executor steps (future polls) the row's simulations took, summed
    /// over the seed sweep. Virtual-time-deterministic.
    pub sim_steps: u64,
    /// Same-task charge polls the executor coalesced past the event queue
    /// (summed over seeds). Report-only scheduler telemetry, like `wall_s`.
    pub coalesced_polls: u64,
    /// Completed `retry()` parks on the wakeup table (summed over views and
    /// seeds). Zero on every non-blocking workload row.
    pub parked_waits: u64,
    /// Parks that timed out without a matching wake (the transaction re-ran
    /// instead of hanging). The blocking scenario rows gate this at zero.
    pub lost_wakeups: u64,
    /// Starvation-watchdog escalations. The gated NOrec blocking scenario
    /// row holds this at zero — parking must never read as starvation —
    /// while Orec comparison rows may escalate on genuine conflict streaks.
    pub escalations: u64,
    /// Live repartitions (splits + merges) the row's
    /// [`votm::AdaptiveDomain`] executed. Zero on every non-domain row —
    /// the carried-over eigenbench/blocking rows never repartition, which
    /// is what keeps them bit-identical across the schema bump.
    pub repartitions: u64,
    /// Virtual cycles spent inside repartition drain barriers (the
    /// exclusive-acquire windows that quiesce views before a remap).
    pub split_drain_cycles: u64,
    /// For adaptive-partition rows: this row's throughput as a fraction of
    /// its hand-partitioned twin's (`adaptive.txns_per_vsec /
    /// hand.txns_per_vsec`). The convergence gate holds every nonzero
    /// value at ≥ 0.90. Zero where the comparison does not apply.
    pub converged_throughput_ratio: f64,
}

/// The thread counts the throughput gate sweeps.
pub const GATE_THREADS: [u32; 2] = [4, 16];

/// Seeds per gate configuration. One seed is one interleaving; a single
/// simulated schedule can swing a config's makespan by ±1–2%, so the gate
/// aggregates a small seed sweep (total commits over total virtual time)
/// to keep the trajectory metric stable across PRs.
pub const GATE_SEEDS: u64 = 3;

/// The file `tables --json` writes the gate to — the PR-numbered benchmark
/// trajectory artifact — and the one the comparison tables' footnotes send
/// the reader to for the raw fields.
pub const GATE_ARTIFACT: &str = "BENCH_24.json";

/// `num / den`, or `idle` when nothing happened to divide by.
fn ratio(num: u64, den: u64, idle: f64) -> f64 {
    if den == 0 {
        idle
    } else {
        num as f64 / den as f64
    }
}

/// The one `ViewStats` → [`GateRow`] fold: sums every per-view counter and
/// run outcome over `runs` (one entry per seeded run), merges the commit
/// histograms and derives the guarded ratios. The row comes back under the
/// default policy and clock, with `n_views` the last run's view count and
/// the repartition fields zero; a row family that differs overrides those.
pub(crate) fn fold_gate_row<'a>(
    algo: TmAlgorithm,
    version: &'static str,
    n_threads: u32,
    wall_s: f64,
    runs: impl IntoIterator<Item = (&'a RunOutcome, &'a [ViewStats])>,
) -> GateRow {
    let mut row = GateRow {
        algo: algo.name(),
        policy: CmPolicy::Backoff.name(),
        clock: ClockKind::Global.name(),
        version,
        n_views: 0,
        n_threads,
        status: RunStatus::Completed,
        commits: 0,
        aborts: 0,
        abort_rate: 0.0,
        vtime: 0,
        txns_per_vsec: 0.0,
        wall_s,
        gate_fast_path_hit_rate: 0.0,
        fast_acquires: 0,
        slow_acquires: 0,
        busy_retries: 0,
        busy_retries_per_commit: 0.0,
        clock_bumps: 0,
        clock_bump_skips: 0,
        gate_wait_cycles: 0,
        commit_p50_cycles: 0,
        commit_p99_cycles: 0,
        wasted_cycles: 0,
        useful_cycles: 0,
        waste_frac: 0.0,
        wasted_by_reason: [0; AbortReason::COUNT],
        sim_steps: 0,
        coalesced_polls: 0,
        parked_waits: 0,
        lost_wakeups: 0,
        escalations: 0,
        repartitions: 0,
        split_drain_cycles: 0,
        converged_throughput_ratio: 0.0,
    };
    let mut commit_hist = HistogramSnapshot::default();
    for (outcome, views) in runs {
        if outcome.status != RunStatus::Completed {
            row.status = outcome.status;
        }
        row.n_views = views.len() as u32;
        row.vtime += outcome.vtime;
        row.sim_steps += outcome.steps;
        row.coalesced_polls += outcome.sched.coalesced;
        for v in views {
            row.commits += v.tm.commits;
            row.aborts += v.tm.aborts;
            row.fast_acquires += v.gate.fast_acquires;
            row.slow_acquires += v.gate.slow_acquires;
            row.busy_retries += v.tm.busy_retries;
            row.gate_wait_cycles += v.tm.gate_wait_cycles;
            row.clock_bumps += v.clock.bumps;
            row.clock_bump_skips += v.clock.bump_skips;
            row.wasted_cycles += v.tm.cycles_aborted;
            row.useful_cycles += v.tm.cycles_successful;
            for (acc, c) in row
                .wasted_by_reason
                .iter_mut()
                .zip(v.tm.cycles_aborted_by_reason)
            {
                *acc += c;
            }
            row.parked_waits += v.tm.parked_waits;
            row.lost_wakeups += v.tm.lost_wakeups;
            row.escalations += v.tm.escalations;
            commit_hist.merge(&v.hists.commit);
        }
    }
    row.abort_rate = ratio(row.aborts, row.commits + row.aborts, 0.0);
    if row.vtime != 0 {
        row.txns_per_vsec = row.commits as f64 / vsec(row.vtime);
    }
    row.gate_fast_path_hit_rate = ratio(
        row.fast_acquires,
        row.fast_acquires + row.slow_acquires,
        1.0,
    );
    row.busy_retries_per_commit = ratio(row.busy_retries, row.commits, 0.0);
    row.waste_frac = ratio(
        row.wasted_cycles,
        row.wasted_cycles + row.useful_cycles,
        0.0,
    );
    row.commit_p50_cycles = commit_hist.quantile(0.50);
    row.commit_p99_cycles = commit_hist.quantile(0.99);
    row
}

/// One aggregated gate configuration: `algo` × `version` × `n` threads ×
/// `policy` × `clock`, summed over `n_seeds` consecutive seeds.
#[allow(clippy::too_many_arguments)] // crate-internal, two call sites
fn gate_config_row(
    settings: &Settings,
    algo: TmAlgorithm,
    version: votm_eigenbench::Version,
    n: u32,
    n_seeds: u64,
    policy: CmPolicy,
    clock: ClockKind,
) -> GateRow {
    let t0 = std::time::Instant::now();
    let runs: Vec<EigenResult> = (0..n_seeds)
        .map(|seed_off| {
            let mut s = *settings;
            s.n_threads = n;
            s.seed = settings.seed.wrapping_add(seed_off);
            let recorder = Arc::new(FlightRecorder::with_default_capacity(n as usize));
            votm_eigenbench::run_sim_clock(
                &s.eigen_config(),
                algo,
                version,
                [QuotaMode::Adaptive, QuotaMode::Adaptive],
                s.sim(None),
                Some(recorder),
                policy,
                clock,
            )
        })
        .collect();
    GateRow {
        policy: policy.name(),
        clock: clock.name(),
        ..fold_gate_row(
            algo,
            version.name(),
            n,
            t0.elapsed().as_secs_f64(),
            runs.iter().map(|r| (&r.outcome, &r.views[..])),
        )
    }
}

/// Runs the reproducible throughput gate: every STM algorithm × Eigenbench
/// {single-view, multi-view} × N ∈ [`GATE_THREADS`], adaptive quotas, each
/// config aggregated over [`GATE_SEEDS`] consecutive seeds — all under the
/// default backoff policy, the rows later PRs regress their
/// `BENCH_<n>.json` against. Then one comparison row per non-default
/// contention-management policy × algorithm that can run one
/// ([`TmAlgorithm::names_lock_holder`]: the orec pair) (single-view,
/// N = 16, one seed): not regression-gated, but CI checks every one
/// *completes* — a policy that livelocks or starves the gate workload
/// fails the build.
/// Finally one row per non-default clock kind × algorithm (single-view,
/// N = 16, one seed, backoff): the head-to-head clock-variant comparison
/// `clock_table.md` formats; CI checks presence, completion and the 0.95×
/// throughput floor, and the default-clock rows above stay bit-identical
/// to the previous artifact because [`ClockKind::Global`] is untouched.
/// Finally the [`workload::BLOCKING_SCENARIOS`] rows: the bounded-buffer
/// spin-vs-block comparison (distinct `version` labels, so `benchdiff`
/// reports them as new rows and the gated eigenbench rows above are
/// unaffected). Last, the [`workload::PARTITION_SCENARIOS`] pairs: each
/// adaptive-domain run (one view at start, live repartitioner) against its
/// hand-partitioned twin, whose throughput ratio is the repartitioner's
/// convergence gate (`converged_throughput_ratio ≥ 0.90`).
///
/// Every run executes with a live [`FlightRecorder`] attached, so the gated
/// numbers *include* the observability layer's recording cost — the rows
/// themselves are the overhead proof the tracing layer is held to.
pub fn throughput_gate(settings: &Settings) -> Vec<GateRow> {
    let mut rows = Vec::new();
    for algo in TmAlgorithm::ALL {
        for version in [
            votm_eigenbench::Version::SingleView,
            votm_eigenbench::Version::MultiView,
        ] {
            for n in GATE_THREADS {
                rows.push(gate_config_row(
                    settings,
                    algo,
                    version,
                    n,
                    GATE_SEEDS,
                    CmPolicy::Backoff,
                    ClockKind::Global,
                ));
            }
        }
    }
    let n = *GATE_THREADS.last().expect("gate sweeps at least one N");
    for policy in CmPolicy::ALL {
        if policy == CmPolicy::Backoff {
            continue; // already the full gated matrix above
        }
        // A NOrec view runs the passive default whatever it is asked for,
        // so a NOrec × policy row would only repeat the backoff run.
        for algo in TmAlgorithm::ALL
            .into_iter()
            .filter(|a| a.names_lock_holder())
        {
            rows.push(gate_config_row(
                settings,
                algo,
                votm_eigenbench::Version::SingleView,
                n,
                1,
                policy,
                ClockKind::Global,
            ));
        }
    }
    for clock in ClockKind::ALL {
        if clock == ClockKind::Global {
            continue; // already the full gated matrix above
        }
        for algo in TmAlgorithm::ALL {
            rows.push(gate_config_row(
                settings,
                algo,
                votm_eigenbench::Version::SingleView,
                n,
                1,
                CmPolicy::Backoff,
                clock,
            ));
        }
    }
    rows.extend(workload::blocking_gate_rows(settings));
    rows.extend(workload::partition_gate_rows(settings));
    rows
}

/// Throughput spread of one policy-comparison configuration across
/// [`GATE_SEEDS`] seeds. The gate's emitted policy rows stay single-seed
/// (bit-identical headline fields across PRs); the spread is the sidecar
/// stability number `policy_table.md` reports as mean ± min/max.
#[derive(Debug, Clone)]
pub struct PolicySpread {
    /// STM algorithm name (joins [`GateRow::algo`]).
    pub algo: &'static str,
    /// Policy name (joins [`GateRow::policy`]).
    pub policy: &'static str,
    /// Mean `txns_per_vsec` over the seed sweep.
    pub mean: f64,
    /// Worst seed.
    pub min: f64,
    /// Best seed.
    pub max: f64,
}

/// Runs every non-default policy × algorithm configuration for
/// [`GATE_SEEDS`] − 1 extra seeds and folds each with its emitted
/// (seed-1) gate row into a [`PolicySpread`]. The emitted rows in `rows`
/// are reused as the first seed, so the artifact's headline fields stay
/// bit-identical while the table gains a variance band.
pub fn policy_spreads(settings: &Settings, rows: &[GateRow]) -> Vec<PolicySpread> {
    let n = *GATE_THREADS.last().expect("gate sweeps at least one N");
    let mut spreads = Vec::new();
    for r in rows {
        if r.policy == "backoff" || r.version != "single-view" || r.clock != "global" {
            continue;
        }
        let policy = CmPolicy::from_name(r.policy).expect("row policy is a known CmPolicy");
        let algo = TmAlgorithm::ALL
            .into_iter()
            .find(|a| a.name() == r.algo)
            .expect("row algo is a known TmAlgorithm");
        let mut tps = vec![r.txns_per_vsec];
        for seed_off in 1..GATE_SEEDS {
            let mut s = *settings;
            s.seed = settings.seed.wrapping_add(seed_off);
            tps.push(
                gate_config_row(
                    &s,
                    algo,
                    votm_eigenbench::Version::SingleView,
                    n,
                    1,
                    policy,
                    ClockKind::Global,
                )
                .txns_per_vsec,
            );
        }
        spreads.push(PolicySpread {
            algo: r.algo,
            policy: r.policy,
            mean: tps.iter().sum::<f64>() / tps.len() as f64,
            min: tps.iter().copied().fold(f64::INFINITY, f64::min),
            max: tps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        });
    }
    spreads
}

// ---------------------------------------------------------- Trace capture

/// Output of [`capture_trace`]: both JSON documents `tables --trace` writes.
#[derive(Debug, Clone)]
pub struct TraceCapture {
    /// Chrome `trace_event` JSON (opens in `chrome://tracing` / Perfetto).
    pub chrome_trace: String,
    /// `votm-obs-snapshot-v1` JSON: per-view stats, abort-reason breakdown,
    /// latency histograms and the quota-decision timeline.
    pub snapshot: String,
    /// Quota-change events on the trace, summed across views.
    pub quota_changes: usize,
    /// Per-view statistics of the captured run (for assertions/reporting).
    pub views: Vec<ViewStats>,
}

/// Runs one seeded multi-view adaptive Eigenbench simulation with a live
/// flight recorder and exports it. Deterministic: identical settings
/// produce byte-identical JSON — the clock is virtual, the exporters order
/// threads, events and timelines canonically, and floats print with fixed
/// precision.
pub fn capture_trace(settings: &Settings, algo: TmAlgorithm) -> TraceCapture {
    capture_trace_sim(settings, algo, settings.sim(None))
}

/// [`capture_trace`] with an explicit simulator configuration, so the
/// differential determinism suite can export the same seeded run under the
/// timer wheel, the reference heap, and with coalescing toggled, and assert
/// the JSON documents are byte-identical.
pub fn capture_trace_sim(settings: &Settings, algo: TmAlgorithm, sim: SimConfig) -> TraceCapture {
    capture_trace_clock(settings, algo, sim, CmPolicy::Backoff, ClockKind::Global)
}

/// [`capture_trace_sim`] under an explicit contention-management policy
/// and clock strategy. Every policy and every clock kind is a
/// deterministic function of the seeds — priorities, GV5 reuse and SNZI
/// occupancy derive from virtual time — so two captures with identical
/// arguments are byte-identical whatever the policy or clock; the
/// per-policy and per-clock determinism suites assert exactly that.
pub fn capture_trace_clock(
    settings: &Settings,
    algo: TmAlgorithm,
    sim: SimConfig,
    policy: CmPolicy,
    clock: ClockKind,
) -> TraceCapture {
    let recorder = Arc::new(FlightRecorder::with_default_capacity(
        settings.n_threads as usize,
    ));
    let res = votm_eigenbench::run_sim_clock(
        &settings.eigen_config(),
        algo,
        votm_eigenbench::Version::MultiView,
        [QuotaMode::Adaptive, QuotaMode::Adaptive],
        sim,
        Some(Arc::clone(&recorder)),
        policy,
        clock,
    );
    let threads = recorder.snapshot();
    let reports: Vec<ViewReport> = res
        .views
        .iter()
        .map(|v| ViewReport {
            view_id: v.view_id,
            quota: v.quota,
            commits: v.tm.commits,
            aborts: v.tm.aborts,
            aborts_by_reason: v.tm.aborts_by_reason,
            cycles_aborted: v.tm.cycles_aborted,
            cycles_successful: v.tm.cycles_successful,
            busy_retries: v.tm.busy_retries,
            gate_wait_cycles: v.tm.gate_wait_cycles,
            escalations: v.tm.escalations,
            parked_waits: v.tm.parked_waits,
            lost_wakeups: v.tm.lost_wakeups,
            hists: v.hists,
            quota_timeline: export::quota_timeline(&threads, v.view_id as u16),
        })
        .collect();
    let quota_changes = reports.iter().map(|r| r.quota_timeline.len()).sum();
    TraceCapture {
        chrome_trace: export::chrome_trace(&threads, CYCLES_PER_US),
        snapshot: export::snapshot_json(&reports),
        quota_changes,
        views: res.views,
    }
}

// ------------------------------------------------------ Conflict profiling

/// Output of [`capture_profile`]: the `votm-obs-profile-v1` document plus
/// the summary numbers the CLI prints.
#[derive(Debug, Clone)]
pub struct ProfileCapture {
    /// The profile JSON (`votm-obs-profile-v1`).
    pub json: String,
    /// The folded profile itself, for programmatic consumers.
    pub profile: ConflictProfile,
    /// Events dropped by the flight recorder's rings (0 means the profile
    /// saw every event and its cycle sums are exact, not sampled).
    pub dropped: u64,
    /// Per-view statistics of the captured run.
    pub views: Vec<ViewStats>,
    /// Makespan of the captured run in virtual cycles — identical to the
    /// unrecorded run's, which the zero-overhead suite asserts.
    pub vtime: u64,
}

/// Ring capacity for profile captures: large enough that gate-scale runs
/// drop nothing, so the wasted-cycle attribution is exact.
const PROFILE_RING_CAPACITY: usize = 1 << 16;

/// Runs one seeded *single-view* adaptive Eigenbench simulation — the
/// configuration whose conflicts the profiler exists to explain — with a
/// drop-free flight recorder, and folds the event stream into a
/// [`ConflictProfile`]. Deterministic for identical settings.
pub fn capture_profile(settings: &Settings, algo: TmAlgorithm) -> ProfileCapture {
    let recorder = Arc::new(FlightRecorder::new(
        settings.n_threads as usize,
        PROFILE_RING_CAPACITY,
    ));
    let res = eigen_run_recorded(
        settings,
        algo,
        votm_eigenbench::Version::SingleView,
        [QuotaMode::Adaptive, QuotaMode::Adaptive],
        None,
        Some(Arc::clone(&recorder)),
    );
    let traces = recorder.snapshot();
    let dropped = traces.iter().map(|t| t.dropped).sum();
    let profile = ConflictProfile::from_traces(&traces);
    ProfileCapture {
        json: profile.to_json(),
        profile,
        dropped,
        views: res.views,
        vtime: res.outcome.vtime,
    }
}

fn json_str(s: &str) -> String {
    // The strings serialised here are algorithm/version labels and status
    // names — plain ASCII identifiers — so escaping covers only the JSON
    // specials that could ever appear.
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    // JSON has no NaN/Infinity; clamp to null so the artifact always parses.
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Serialises gate rows as the `BENCH_<n>.json` artifact (hand-rolled: the
/// workspace is offline and carries no serde).
pub fn gate_rows_to_json(settings: &Settings, rows: &[GateRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {},\n",
        json_str(SCHEMA_VERSION)
    ));
    out.push_str(&format!(
        "  \"config\": {{\"benchmark\": \"eigenbench\", \"eigen_scale\": {}, \"seed\": {}, \
         \"quota_mode\": \"adaptive\", \"thread_counts\": [{}], \"seeds_per_config\": {}}},\n",
        json_f64(settings.eigen_scale),
        settings.seed,
        GATE_THREADS.map(|n| n.to_string()).join(", "),
        GATE_SEEDS,
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"algo\": {}, \"policy\": {}, \"clock\": {}, \"version\": {}, \
             \"n_views\": {}, \"n_threads\": {}, \
             \"status\": {}, \"commits\": {}, \"aborts\": {}, \"abort_rate\": {}, \
             \"vtime\": {}, \"txns_per_vsec\": {}, \"wall_s\": {}, \
             \"gate_fast_path_hit_rate\": {}, \"fast_acquires\": {}, \
             \"slow_acquires\": {}, \"busy_retries\": {}, \
             \"busy_retries_per_commit\": {}, \"clock_bumps\": {}, \
             \"clock_bump_skips\": {}, \"wasted_cycles\": {}, \
             \"useful_cycles\": {}, \"waste_frac\": {}, \
             \"wasted_by_reason\": {{{}}}, \"gate_wait_cycles\": {}, \
             \"commit_p50_cycles\": {}, \"commit_p99_cycles\": {}, \
             \"sim_steps\": {}, \"coalesced_polls\": {}, \
             \"parked_waits\": {}, \"lost_wakeups\": {}, \
             \"escalations\": {}, \"repartitions\": {}, \
             \"split_drain_cycles\": {}, \
             \"converged_throughput_ratio\": {}}}{}\n",
            json_str(r.algo),
            json_str(r.policy),
            json_str(r.clock),
            json_str(r.version),
            r.n_views,
            r.n_threads,
            json_str(match r.status {
                RunStatus::Completed => "completed",
                RunStatus::Livelock => "livelock",
                RunStatus::Deadlock => "deadlock",
                RunStatus::StepBudgetExhausted => "step-budget-exhausted",
            }),
            r.commits,
            r.aborts,
            json_f64(r.abort_rate),
            r.vtime,
            json_f64(r.txns_per_vsec),
            json_f64(r.wall_s),
            json_f64(r.gate_fast_path_hit_rate),
            r.fast_acquires,
            r.slow_acquires,
            r.busy_retries,
            json_f64(r.busy_retries_per_commit),
            r.clock_bumps,
            r.clock_bump_skips,
            r.wasted_cycles,
            r.useful_cycles,
            json_f64(r.waste_frac),
            AbortReason::ALL
                .iter()
                .map(|&reason| format!(
                    "{}: {}",
                    json_str(reason.name()),
                    r.wasted_by_reason[reason.index()]
                ))
                .collect::<Vec<_>>()
                .join(", "),
            r.gate_wait_cycles,
            r.commit_p50_cycles,
            r.commit_p99_cycles,
            r.sim_steps,
            r.coalesced_polls,
            r.parked_waits,
            r.lost_wakeups,
            r.escalations,
            r.repartitions,
            r.split_drain_cycles,
            json_f64(r.converged_throughput_ratio),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    // Aggregate host cost of producing the artifact: the wall-clock
    // regression harness gates on this sum staying well below the previous
    // PR's. Informational per-row, load-bearing in aggregate.
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"wall_s_total\": {}\n",
        json_f64(rows.iter().map(|r| r.wall_s).sum()),
    ));
    out.push_str("}\n");
    out
}

fn version_has_rac_eigen(v: votm_eigenbench::Version) -> bool {
    matches!(
        v,
        votm_eigenbench::Version::SingleView | votm_eigenbench::Version::MultiView
    )
}

fn version_has_rac_intruder(v: votm_intruder::Version) -> bool {
    matches!(
        v,
        votm_intruder::Version::SingleView | votm_intruder::Version::MultiView
    )
}

fn adaptive_row(
    version: &'static str,
    status: RunStatus,
    vtime: u64,
    views: &[ViewStats],
    has_rac: bool,
) -> AdaptiveRow {
    AdaptiveRow {
        version,
        status,
        runtime_s: vsec(vtime),
        quotas: if has_rac {
            views.iter().map(|v| v.quota).collect()
        } else {
            Vec::new()
        },
        aborts: views.iter().map(|v| v.tm.aborts).sum(),
        commits: views.iter().map(|v| v.tm.commits).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Settings {
        Settings {
            eigen_scale: 0.0002,
            intruder_scale: 1.0 / 1024.0,
            cap_factor: 64,
            ..Default::default()
        }
    }

    #[test]
    fn table3_shape_runtime_grows_with_quota() {
        let rows = eigen_single_view_sweep(&tiny(), TmAlgorithm::OrecEagerRedo);
        assert_eq!(rows.len(), 5);
        // Paper shape: aborts explode monotonically with Q, and the tail of
        // the sweep is far slower than lock mode (or livelocked).
        for w in rows.windows(2) {
            assert!(w[1].views[0].tm.aborts >= w[0].views[0].tm.aborts);
        }
        assert_eq!(rows[0].views[0].tm.aborts, 0);
        let q1 = rows[0].runtime_s;
        let last = &rows[4];
        assert!(
            last.status == RunStatus::Livelock || last.runtime_s > 5.0 * q1,
            "Q=16 should collapse: {last:?}"
        );
    }

    #[test]
    fn table7_shape_norec_improves_with_quota() {
        let rows = eigen_single_view_sweep(&tiny(), TmAlgorithm::NOrec);
        for row in &rows {
            assert_eq!(row.status, RunStatus::Completed, "NOrec is livelock-free");
        }
        // Q=16 beats Q=2 (more concurrency pays off under NOrec).
        assert!(rows[4].runtime_s < rows[1].runtime_s);
    }

    #[test]
    fn table5_multi_view_q1_equals_1_beats_single_view_optimum() {
        let s = tiny();
        let single = eigen_single_view_sweep(&s, TmAlgorithm::OrecEagerRedo);
        let multi = eigen_multi_view_sweep(&s, TmAlgorithm::OrecEagerRedo);
        let best_single = single
            .iter()
            .filter(|r| r.status == RunStatus::Completed)
            .map(|r| r.runtime_s)
            .fold(f64::INFINITY, f64::min);
        let multi_q1 = &multi[0];
        assert_eq!(multi_q1.status, RunStatus::Completed);
        assert!(
            multi_q1.runtime_s < best_single,
            "Observation 2: multi-view Q1=1 ({}) must beat single-view optimum ({best_single})",
            multi_q1.runtime_s
        );
    }

    #[test]
    fn throughput_gate_rows_and_json_are_well_formed() {
        let mut s = tiny();
        s.eigen_scale = 0.0001;
        let rows = throughput_gate(&s);
        // Every algorithm × 2 versions × GATE_THREADS.len() thread counts
        // of the gated default, plus one comparison row per non-default
        // policy × algorithm whose lock words name a holder for the policy
        // to rank, plus one per non-default clock × algorithm, plus the
        // bounded-buffer blocking scenario rows, plus an adaptive/hand row
        // pair per partition scenario.
        let n_algos = TmAlgorithm::ALL.len();
        let n_policy_algos = TmAlgorithm::ALL
            .iter()
            .filter(|a| a.names_lock_holder())
            .count();
        assert_eq!(
            rows.len(),
            n_algos * 2 * GATE_THREADS.len()
                + (CmPolicy::ALL.len() - 1) * n_policy_algos
                + (ClockKind::ALL.len() - 1) * n_algos
                + workload::BLOCKING_SCENARIOS.len()
                + workload::PARTITION_SCENARIOS.len() * 2
        );
        let backoff_rows = rows
            .iter()
            .filter(|r| {
                r.policy == "backoff"
                    && r.clock == "global"
                    && (r.version == "single-view" || r.version == "multi-view")
            })
            .count();
        assert_eq!(backoff_rows, n_algos * 2 * GATE_THREADS.len());
        // The blocking scenario rows are present, park only in block mode,
        // and never lose a wakeup.
        for w in workload::BLOCKING_SCENARIOS {
            let r = rows
                .iter()
                .find(|r| r.version == w.name && r.algo == w.algo.name())
                .expect("scenario row missing");
            assert_eq!(r.lost_wakeups, 0, "{r:?}");
            assert_eq!(
                r.parked_waits > 0,
                w.waiting == workload::WaitMode::Block,
                "{r:?}"
            );
        }
        for p in CmPolicy::ALL {
            assert!(
                rows.iter().any(|r| r.policy == p.name()),
                "missing policy rows for {}",
                p.name()
            );
        }
        for k in ClockKind::ALL {
            let kind_rows: Vec<_> = rows.iter().filter(|r| r.clock == k.name()).collect();
            assert!(!kind_rows.is_empty(), "missing clock rows for {}", k.name());
            for r in kind_rows {
                // Non-default clocks only appear in the single-view N=16
                // backoff comparison block.
                if k != ClockKind::Global {
                    assert_eq!(r.policy, "backoff", "{r:?}");
                    assert_eq!(r.version, "single-view", "{r:?}");
                }
                assert!(
                    r.busy_retries_per_commit >= 0.0 && r.busy_retries_per_commit.is_finite(),
                    "{r:?}"
                );
            }
        }
        // The default clock always bumps, never banks.
        for r in rows.iter().filter(|r| r.clock == "global") {
            assert_eq!(r.clock_bump_skips, 0, "{r:?}");
            assert!(r.clock_bumps > 0, "{r:?}");
        }
        for r in &rows {
            assert_eq!(r.status, RunStatus::Completed, "{r:?}");
            assert!(r.commits > 0, "{r:?}");
            assert!(r.txns_per_vsec > 0.0, "{r:?}");
            assert!(
                (0.0..=1.0).contains(&r.abort_rate),
                "abort rate out of range: {r:?}"
            );
            assert!(
                (0.0..=1.0).contains(&r.gate_fast_path_hit_rate),
                "hit rate out of range: {r:?}"
            );
            if r.version.starts_with("partition-") {
                // Partition rows: the hand twin is always 2 views; the
                // adaptive row reports however many the domain converged
                // to (≥ 1, ≤ the policy's max).
                assert!((1..=4).contains(&r.n_views), "{r:?}");
            } else {
                assert_eq!(r.n_views, if r.version == "multi-view" { 2 } else { 1 });
                assert_eq!(r.repartitions, 0, "only domain rows repartition: {r:?}");
                assert_eq!(r.split_drain_cycles, 0, "{r:?}");
                assert_eq!(r.converged_throughput_ratio, 0.0, "{r:?}");
            }
        }
        // The tentpole's convergence gate: every adaptive partition row
        // actually repartitioned and reached ≥ 0.90× its hand twin.
        let adaptive_rows: Vec<_> = rows
            .iter()
            .filter(|r| r.version.ends_with("-adaptive"))
            .collect();
        assert_eq!(adaptive_rows.len(), workload::PARTITION_SCENARIOS.len());
        for r in adaptive_rows {
            assert!(r.repartitions >= 1, "domain never split: {r:?}");
            assert!(r.split_drain_cycles > 0, "{r:?}");
            assert!(
                r.converged_throughput_ratio >= 0.90,
                "adaptive row failed to converge to hand-partitioned \
                 throughput: {} at {:.3}",
                r.version,
                r.converged_throughput_ratio
            );
        }
        let json = gate_rows_to_json(&s, &rows);
        // Structural smoke checks (full parse is CI's python step).
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches("\"algo\"").count(), rows.len());
        assert!(json.contains("\"rows\": ["));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn table4_shape_intruder_orec_improves_with_quota() {
        let rows = intruder_single_view_sweep(&tiny(), TmAlgorithm::OrecEagerRedo);
        for row in &rows {
            assert_eq!(row.status, RunStatus::Completed);
        }
        assert!(
            rows[4].runtime_s < rows[0].runtime_s,
            "Q=16 ({}) must beat Q=1 ({})",
            rows[4].runtime_s,
            rows[0].runtime_s
        );
    }
}
