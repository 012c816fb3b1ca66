//! Benchmark harness regenerating the paper's evaluation (Tables III–X),
//! two extension tables (11–12) and the machine-readable throughput gate.
//!
//! Every paper experiment is one shape: a [`Run`] — application ×
//! algorithm × [`Version`] × quotas × N × seed — executed by [`run`] under
//! the virtual-time simulator, or a list of them executed by [`sweep`]
//! under the livelock watchdog. The tables are data over those two (the
//! `tables` binary lists them and formats the [`Row`]s with [`fmt`]), and
//! so are the gate's Eigenbench rows, [`policy_spreads`], [`capture_trace`]
//! and [`capture_profile`]. Workload sizes are scaled by
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

use votm::{ClockKind, CmPolicy, FlightRecorder, QuotaMode, TmAlgorithm, Version, ViewStats};
use votm_eigenbench::EigenConfig;
use votm_intruder::{GenConfig, Input};
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
    /// The Intruder input at [`Settings::intruder_scale`] — generate it once
    /// and share it between every run that reads it.
    pub fn intruder_input(&self) -> Arc<Input> {
        Arc::new(votm_intruder::generate(&GenConfig::paper(
            self.intruder_scale,
        )))
    }

    /// `algo` running `version` of `app` at adaptive quotas, with these
    /// settings' N and seed.
    pub fn run<'a>(&self, app: App<'a>, algo: TmAlgorithm, version: Version) -> Run<'a> {
        Run {
            app,
            algo,
            version,
            quotas: [QuotaMode::Adaptive; 2],
            n_threads: self.n_threads,
            seed: self.seed,
        }
    }
}

/// The application a [`Run`] drives. Eigenbench builds its system under a
/// contention-management policy and a clock strategy; Intruder builds the
/// defaults over a pre-generated input, so its variant carries the input
/// and nothing else.
#[derive(Debug, Clone, Copy)]
pub enum App<'a> {
    /// The modified two-view Eigenbench (Table II parameters).
    Eigen {
        /// Contention-management policy of every view.
        policy: CmPolicy,
        /// Clock strategy of every view.
        clock: ClockKind,
    },
    /// STAMP Intruder over this input.
    Intruder(&'a Arc<Input>),
}

impl App<'_> {
    /// Eigenbench under the default policy and clock — the paper's tables.
    pub const EIGEN: App<'static> = App::Eigen {
        policy: CmPolicy::Backoff,
        clock: ClockKind::Global,
    };
}

/// One simulated run: the unit every table, gate row and capture is made of.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// Application (and, for Eigenbench, policy and clock).
    pub app: App<'a>,
    /// STM algorithm of every view.
    pub algo: TmAlgorithm,
    /// Program version: how the two objects map to views, RAC on or off.
    pub version: Version,
    /// Quota of each object's view ([`Version::quotas`] applies the
    /// no-RAC rule; a one-view version reads entry 0).
    pub quotas: [QuotaMode; 2],
    /// Thread count N.
    pub n_threads: u32,
    /// Scheduling seed; Eigenbench also seeds its workload streams with it.
    pub seed: u64,
}

impl Run<'_> {
    /// This run at Q₁ = 1, 2, 4, 8, 16 with Q₂ = N — the fixed-quota sweep
    /// of Tables III–V and VII–IX. A one-view version reads Q₁ only; a
    /// multi-view one leaves its low-contention view at the full quota.
    pub fn fixed_quota_sweep(self) -> [Self; 5] {
        [1, 2, 4, 8, 16].map(|q| Run {
            quotas: [QuotaMode::Fixed(q), QuotaMode::Fixed(self.n_threads)],
            ..self
        })
    }

    fn sim(&self, cap: Option<u64>) -> SimConfig {
        SimConfig {
            seed: self.seed,
            vtime_cap: cap,
            ..Default::default()
        }
    }
}

/// What one [`Run`] produced. Every table cell derives from this.
#[derive(Debug, Clone)]
pub struct Row<'a> {
    /// The run that produced it.
    pub run: Run<'a>,
    /// Simulator outcome: status, makespan, steps.
    pub outcome: RunOutcome,
    /// Per-view statistics in view order (one entry for one-view versions).
    pub views: Vec<ViewStats>,
}

impl Row<'_> {
    /// Makespan in virtual seconds (cycles / 2.5 GHz).
    pub fn runtime_s(&self) -> f64 {
        vsec(self.outcome.vtime)
    }
}

fn vsec(vtime: u64) -> f64 {
    vtime as f64 / CYCLES_PER_SECOND as f64
}

/// Executes `run` with the livelock watchdog at `cap` virtual cycles (none
/// when `None`). A completed Intruder run must have reassembled every flow,
/// found every injected attack and corrupted no payload.
pub fn run<'a>(settings: &Settings, run: Run<'a>, cap: Option<u64>) -> Row<'a> {
    execute(settings, run, run.sim(cap), None)
}

/// [`run`] under an explicit simulator configuration, optionally recorded.
fn execute<'a>(
    settings: &Settings,
    run: Run<'a>,
    sim: SimConfig,
    recorder: Option<Arc<FlightRecorder>>,
) -> Row<'a> {
    let (outcome, views) = match run.app {
        App::Eigen { policy, clock } => {
            let mut config = EigenConfig::paper_table2(settings.eigen_scale);
            config.n_threads = run.n_threads;
            config.seed = run.seed;
            let res = votm_eigenbench::run_sim_clock(
                &config,
                run.algo,
                run.version,
                run.quotas,
                sim,
                recorder,
                policy,
                clock,
            );
            (res.outcome, res.views)
        }
        App::Intruder(input) => {
            assert!(recorder.is_none(), "Intruder runs are not recorded");
            let res = votm_intruder::run_sim(
                input,
                run.n_threads,
                run.algo,
                run.version,
                run.quotas,
                sim,
            );
            if res.outcome.status == RunStatus::Completed {
                assert_eq!(res.flows_processed, input.flows, "flows lost");
                assert_eq!(res.attacks_found, input.attacks_injected, "detector miss");
                assert_eq!(res.checksum_errors, 0, "reassembly corruption");
            }
            (res.outcome, res.views)
        }
    };
    Row {
        run,
        outcome,
        views,
    }
}

/// Executes `runs` under the livelock watchdog. The anchor is the first
/// run's application and algorithm at N and seed in single-view lock mode
/// (Q = 1), uncapped; every run is capped at `cap_factor ×` its makespan.
pub fn sweep<'a>(settings: &Settings, runs: &[Run<'a>]) -> Vec<Row<'a>> {
    let lock_mode = Run {
        version: Version::SingleView,
        quotas: [QuotaMode::Fixed(1); 2],
        ..runs[0]
    };
    let cap = run(settings, lock_mode, None)
        .outcome
        .vtime
        .saturating_mul(settings.cap_factor);
    runs.iter().map(|&r| run(settings, r, Some(cap))).collect()
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

/// The gate's Eigenbench configurations, in row order, each with the number
/// of consecutive seeds its row sums over: every algorithm × {single-view,
/// multi-view} × N ∈ [`GATE_THREADS`] under the default policy and clock
/// ([`GATE_SEEDS`] seeds each), then one single-seed single-view row at the
/// largest N per non-default policy × algorithm that can run one
/// ([`TmAlgorithm::names_lock_holder`]: a NOrec view runs the passive
/// default whatever it is asked for) and per non-default clock × algorithm.
fn gate_runs(settings: &Settings) -> Vec<(Run<'static>, u64)> {
    let eigen = |policy, clock, algo, version, n_threads| Run {
        n_threads,
        ..settings.run(App::Eigen { policy, clock }, algo, version)
    };
    let mut runs = Vec::new();
    for algo in TmAlgorithm::ALL {
        for version in [Version::SingleView, Version::MultiView] {
            for n in GATE_THREADS {
                let run = eigen(CmPolicy::Backoff, ClockKind::Global, algo, version, n);
                runs.push((run, GATE_SEEDS));
            }
        }
    }
    let n = *GATE_THREADS.last().expect("gate sweeps at least one N");
    for policy in CmPolicy::ALL
        .into_iter()
        .filter(|&p| p != CmPolicy::Backoff)
    {
        for algo in TmAlgorithm::ALL
            .into_iter()
            .filter(|a| a.names_lock_holder())
        {
            let run = eigen(policy, ClockKind::Global, algo, Version::SingleView, n);
            runs.push((run, 1));
        }
    }
    for clock in ClockKind::ALL
        .into_iter()
        .filter(|&c| c != ClockKind::Global)
    {
        for algo in TmAlgorithm::ALL {
            let run = eigen(CmPolicy::Backoff, clock, algo, Version::SingleView, n);
            runs.push((run, 1));
        }
    }
    runs
}

/// One gate row: the Eigenbench `run` over `n_seeds` consecutive seeds from
/// its own, each with a live flight recorder.
fn gate_row(settings: &Settings, run: Run, n_seeds: u64) -> GateRow {
    let App::Eigen { policy, clock } = run.app else {
        panic!("gate rows run Eigenbench");
    };
    let t0 = std::time::Instant::now();
    let rows: Vec<Row> = (0..n_seeds)
        .map(|seed_off| {
            let run = Run {
                seed: run.seed.wrapping_add(seed_off),
                ..run
            };
            let recorder = Arc::new(FlightRecorder::with_default_capacity(
                run.n_threads as usize,
            ));
            execute(settings, run, run.sim(None), Some(recorder))
        })
        .collect();
    GateRow {
        policy: policy.name(),
        clock: clock.name(),
        ..fold_gate_row(
            run.algo,
            run.version.name(),
            run.n_threads,
            t0.elapsed().as_secs_f64(),
            rows.iter().map(|r| (&r.outcome, &r.views[..])),
        )
    }
}

/// Runs the reproducible throughput gate: the [`gate_runs`] Eigenbench rows
/// at adaptive quotas — the default-policy, default-clock block is what
/// later PRs regress their `BENCH_<n>.json` against; CI checks every policy
/// row *completes* (a policy that livelocks or starves the gate workload
/// fails the build) and holds the clock rows, which `clock_table.md`
/// formats, to presence, completion and a 0.95× throughput floor — then the
/// [`workload::BLOCKING_SCENARIOS`] rows: the bounded-buffer spin-vs-block
/// comparison (distinct `version` labels, so `benchdiff` reports them as
/// new rows and the gated eigenbench rows above are unaffected). Last, the
/// [`workload::PARTITION_SCENARIOS`] pairs: each adaptive-domain run (one
/// view at start, live repartitioner) against its hand-partitioned twin,
/// whose throughput ratio is the repartitioner's convergence gate
/// (`converged_throughput_ratio ≥ 0.90`).
///
/// Every run executes with a live [`FlightRecorder`] attached, so the gated
/// numbers *include* the observability layer's recording cost — the rows
/// themselves are the overhead proof the tracing layer is held to.
pub fn throughput_gate(settings: &Settings) -> Vec<GateRow> {
    let mut rows: Vec<GateRow> = gate_runs(settings)
        .into_iter()
        .map(|(run, n_seeds)| gate_row(settings, run, n_seeds))
        .collect();
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

/// Runs every non-default policy row of [`gate_runs`] for [`GATE_SEEDS`] − 1
/// extra seeds and folds each with its emitted (first-seed) row of `rows`,
/// the gate's output, into a [`PolicySpread`]. Reusing the emitted row keeps
/// the artifact's headline fields bit-identical while the table gains a
/// variance band.
pub fn policy_spreads(settings: &Settings, rows: &[GateRow]) -> Vec<PolicySpread> {
    gate_runs(settings)
        .into_iter()
        .zip(rows)
        .filter(|((run, _), _)| {
            matches!(run.app, App::Eigen { policy, .. } if policy != CmPolicy::Backoff)
        })
        .map(|((run, _), row)| {
            let mut tps = vec![row.txns_per_vsec];
            for seed_off in 1..GATE_SEEDS {
                let run = Run {
                    seed: run.seed.wrapping_add(seed_off),
                    ..run
                };
                tps.push(gate_row(settings, run, 1).txns_per_vsec);
            }
            PolicySpread {
                algo: row.algo,
                policy: row.policy,
                mean: tps.iter().sum::<f64>() / tps.len() as f64,
                min: tps.iter().copied().fold(f64::INFINITY, f64::min),
                max: tps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            }
        })
        .collect()
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

/// Runs one multi-view adaptive Eigenbench simulation — workload seeded by
/// [`Settings::seed`], schedule by `sim` — under `policy` and `clock` with a
/// live flight recorder, and exports it. Deterministic: identical arguments
/// produce byte-identical JSON whatever the scheduler, policy or clock —
/// the clock is virtual, priorities, GV5 reuse and SNZI occupancy derive
/// from virtual time, the exporters order threads, events and timelines
/// canonically, and floats print with fixed precision.
pub fn capture_trace(
    settings: &Settings,
    algo: TmAlgorithm,
    sim: SimConfig,
    policy: CmPolicy,
    clock: ClockKind,
) -> TraceCapture {
    let run = settings.run(App::Eigen { policy, clock }, algo, Version::MultiView);
    let recorder = Arc::new(FlightRecorder::with_default_capacity(
        run.n_threads as usize,
    ));
    let res = execute(settings, run, sim, Some(Arc::clone(&recorder)));
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
    let run = settings.run(App::EIGEN, algo, Version::SingleView);
    let recorder = Arc::new(FlightRecorder::new(
        run.n_threads as usize,
        PROFILE_RING_CAPACITY,
    ));
    let res = execute(settings, run, run.sim(None), Some(Arc::clone(&recorder)));
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

    /// The fixed-quota sweep of `version` of `app` under `algo`.
    fn fixed_q<'a>(
        s: &Settings,
        app: App<'a>,
        algo: TmAlgorithm,
        version: Version,
    ) -> Vec<Row<'a>> {
        sweep(s, &s.run(app, algo, version).fixed_quota_sweep())
    }

    #[test]
    fn table3_shape_runtime_grows_with_quota() {
        let rows = fixed_q(
            &tiny(),
            App::EIGEN,
            TmAlgorithm::OrecEagerRedo,
            Version::SingleView,
        );
        assert_eq!(rows.len(), 5);
        // Paper shape: aborts explode monotonically with Q, and the tail of
        // the sweep is far slower than lock mode (or livelocked).
        for w in rows.windows(2) {
            assert!(w[1].views[0].tm.aborts >= w[0].views[0].tm.aborts);
        }
        assert_eq!(rows[0].views[0].tm.aborts, 0);
        let q1 = rows[0].runtime_s();
        let last = &rows[4];
        assert!(
            last.outcome.status == RunStatus::Livelock || last.runtime_s() > 5.0 * q1,
            "Q=16 should collapse: {last:?}"
        );
    }

    #[test]
    fn table7_shape_norec_improves_with_quota() {
        let rows = fixed_q(&tiny(), App::EIGEN, TmAlgorithm::NOrec, Version::SingleView);
        for row in &rows {
            assert_eq!(
                row.outcome.status,
                RunStatus::Completed,
                "NOrec is livelock-free"
            );
        }
        // Q=16 beats Q=2 (more concurrency pays off under NOrec).
        assert!(rows[4].runtime_s() < rows[1].runtime_s());
    }

    #[test]
    fn table5_multi_view_q1_equals_1_beats_single_view_optimum() {
        let s = tiny();
        let algo = TmAlgorithm::OrecEagerRedo;
        let single = fixed_q(&s, App::EIGEN, algo, Version::SingleView);
        let multi = fixed_q(&s, App::EIGEN, algo, Version::MultiView);
        let best_single = single
            .iter()
            .filter(|r| r.outcome.status == RunStatus::Completed)
            .map(Row::runtime_s)
            .fold(f64::INFINITY, f64::min);
        let multi_q1 = &multi[0];
        assert_eq!(multi_q1.outcome.status, RunStatus::Completed);
        assert!(
            multi_q1.runtime_s() < best_single,
            "Observation 2: multi-view Q1=1 ({}) must beat single-view optimum ({best_single})",
            multi_q1.runtime_s()
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
        // The artifact parses with the reader `benchdiff` uses and carries
        // every row under the current schema.
        let doc = json::parse(&gate_rows_to_json(&s, &rows)).expect("gate JSON parses");
        assert_eq!(
            doc.get("rows").and_then(json::Json::as_arr).map(<[_]>::len),
            Some(rows.len())
        );
        assert_eq!(
            doc.get("schema_version").and_then(json::Json::as_str),
            Some(SCHEMA_VERSION)
        );
    }

    #[test]
    fn table4_shape_intruder_orec_improves_with_quota() {
        let s = tiny();
        let input = s.intruder_input();
        let rows = fixed_q(
            &s,
            App::Intruder(&input),
            TmAlgorithm::OrecEagerRedo,
            Version::SingleView,
        );
        for row in &rows {
            assert_eq!(row.outcome.status, RunStatus::Completed);
        }
        assert!(
            rows[4].runtime_s() < rows[0].runtime_s(),
            "Q=16 ({}) must beat Q=1 ({})",
            rows[4].runtime_s(),
            rows[0].runtime_s()
        );
    }
}
