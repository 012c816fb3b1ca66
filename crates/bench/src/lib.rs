//! Benchmark harness regenerating the paper's evaluation (Tables III–X),
//! two extension tables (11–12) and the machine-readable throughput gate.
//!
//! Every experiment is one shape: a [`Run`] — application × algorithm ×
//! [`Version`] × quotas × N × seed — executed by [`run`] under the
//! virtual-time simulator, or a list of them executed by [`sweep`] under
//! the livelock watchdog. The applications are the paper's two plus the
//! gate's two scenario workloads ([`workload`]). The tables are data over
//! those two functions (the `tables` binary lists them and formats the
//! [`Row`]s with [`fmt`]), and so are every gate row ([`throughput_gate`]
//! folds one list of runs), [`spreads`], [`capture_trace`] and
//! [`capture_profile`]; [`check::check_gate`] holds the gate artifact's
//! invariants. Workload sizes are scaled by
//! [`Settings::eigen_scale`] / [`Settings::intruder_scale`] (1.0 = the
//! paper's 3.2M Eigenbench transactions / 262144 Intruder flows); the
//! *shape* of each table — orderings, crossovers, livelocks — is the
//! reproduction target, not absolute seconds.
//!
//! Livelock reporting follows the paper's practice: a configuration that
//! fails to finish within `cap_factor ×` the application's lock-mode
//! (Q = 1) makespan is reported as "livelock".

#![warn(missing_docs)]

pub mod check;
pub mod fmt;
pub mod harness;
pub mod json;
pub mod workload;

use std::sync::Arc;

use votm::{
    ClockKind, CmPolicy, DomainStats, FlightRecorder, QuotaMode, StatsSnapshot, TmAlgorithm,
    Version, ViewStats,
};
use votm_eigenbench::EigenConfig;
use votm_intruder::{GenConfig, Input};
use votm_obs::export::{self, ViewReport};
use votm_obs::{AbortReason, ConflictProfile, HistogramSnapshot, SCHEMA_VERSION};
use votm_sim::{RunOutcome, RunStatus, SimConfig};
use votm_stm::cost::CYCLES_PER_SECOND;
use workload::Layout;

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
/// contention-management policy and a clock strategy; the others build the
/// defaults, so each variant carries only what its application reads.
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
    /// A bounded-buffer producer/consumer run of this shape.
    Buffer(workload::Scenario),
    /// The two-group partition workload of this shape, on this layout.
    Partition(workload::PartitionScenario, workload::Layout),
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

    /// The gate row's `version` label: the program version of a paper
    /// application, the scenario's name otherwise.
    fn label(&self) -> String {
        match self.app {
            App::Eigen { .. } | App::Intruder(_) => self.version.name().to_string(),
            App::Buffer(scenario) => scenario.name.to_string(),
            App::Partition(scenario, layout) => format!("{}-{}", scenario.name, layout.name()),
        }
    }
}

/// What one [`Run`] produced. Every table cell and gate field derives from
/// this.
#[derive(Debug, Clone)]
pub struct Row<'a> {
    /// The run that produced it.
    pub run: Run<'a>,
    /// Simulator outcome: status, makespan, steps.
    pub outcome: RunOutcome,
    /// Per-view statistics in view order (one entry for one-view versions;
    /// every slot, retired ones included, for an adaptive domain).
    pub views: Vec<ViewStats>,
    /// The adaptive domain's counters, for a run on one.
    pub domain: Option<DomainStats>,
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
/// found every injected attack and corrupted no payload; a completed buffer
/// run must have consumed every item exactly once.
pub fn run<'a>(settings: &Settings, run: Run<'a>, cap: Option<u64>) -> Row<'a> {
    execute(settings, run, run.sim(cap), None)
}

/// [`run`] under an explicit simulator configuration, optionally recorded
/// (Eigenbench only).
fn execute<'a>(
    settings: &Settings,
    run: Run<'a>,
    sim: SimConfig,
    recorder: Option<Arc<FlightRecorder>>,
) -> Row<'a> {
    assert!(
        recorder.is_none() || matches!(run.app, App::Eigen { .. }),
        "only Eigenbench runs are recorded"
    );
    let (outcome, views, domain) = match run.app {
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
            (res.outcome, res.views, None)
        }
        App::Intruder(input) => {
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
            (res.outcome, res.views, None)
        }
        App::Buffer(scenario) => {
            let (outcome, views) = workload::run_buffer(scenario, &run, sim);
            (outcome, views, None)
        }
        App::Partition(scenario, layout) => workload::run_partition(scenario, layout, &run, sim),
    };
    Row {
        run,
        outcome,
        views,
        domain,
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
#[derive(Debug, Clone, Default)]
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
    /// Row label ([`Run`]'s): the Eigenbench version ("single-view" = 1
    /// view, "multi-view" = 2) or the scenario's name (`bounded16-spin`,
    /// `partition-zipf-hand`, …).
    pub version: String,
    /// Number of views the run partitions memory into — for an adaptive
    /// domain, the live views it ended with.
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
    /// Busy-wait retries (seqlock held, lost CAS race; not aborts); on a
    /// bounded-buffer row, [`workload::WaitMode::busy_retries`].
    pub busy_retries: u64,
    /// `busy_retries / commits` (0 when idle) — how many spin retries each
    /// committed transaction paid on average. The derived form of the
    /// paper's global-clock bottleneck: under single-view NOrec at N = 16
    /// this dwarfs 1, and it is the number the clock variants attack.
    pub busy_retries_per_commit: f64,
    /// Clock bumps actually taken (fetch-add or seqlock release), summed
    /// over views and seeds. See `votm_stm::clock::ClockStats::bumps`.
    pub clock_bumps: u64,
    /// Always 0: every clock ticks once per writer commit. The field keeps
    /// the artifact's schema (and `benchdiff`'s join with older baselines)
    /// and goes with `votm_stm::clock::ClockStats::bump_skips`, once the
    /// repository benchmark stops reading that.
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
    /// [`votm::AdaptiveDomain`] executed. Zero on every non-domain row.
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
pub const GATE_ARTIFACT: &str = "BENCH_34.json";

/// `num / den`, or `idle` when nothing happened to divide by.
fn ratio(num: u64, den: u64, idle: f64) -> f64 {
    if den == 0 {
        idle
    } else {
        num as f64 / den as f64
    }
}

/// The one [`Row`] → [`GateRow`] fold: sums every per-view counter, run
/// outcome and domain counter over `rows` (one per seed of one run),
/// merges the commit histograms and derives the guarded ratios. `n_views`
/// is the last row's view count (an adaptive domain's live views); a
/// bounded-buffer row's busy retries are its guard failures that did not
/// park.
fn fold_gate_row(rows: &[Row], wall_s: f64) -> GateRow {
    let run = rows[0].run;
    let (policy, clock) = match run.app {
        App::Eigen { policy, clock } => (policy, clock),
        _ => (CmPolicy::Backoff, ClockKind::Global),
    };
    let busy_retries = |tm: &StatsSnapshot| match run.app {
        App::Buffer(scenario) => scenario.waiting.busy_retries(tm),
        _ => tm.busy_retries,
    };
    let mut row = GateRow {
        algo: run.algo.name(),
        policy: policy.name(),
        clock: clock.name(),
        version: run.label(),
        n_threads: run.n_threads,
        wall_s,
        ..GateRow::default()
    };
    let mut commit_hist = HistogramSnapshot::default();
    for r in rows {
        let outcome = &r.outcome;
        if outcome.status != RunStatus::Completed {
            row.status = outcome.status;
        }
        row.n_views = r.domain.map_or(r.views.len(), |d| d.live_views) as u32;
        row.vtime += outcome.vtime;
        row.sim_steps += outcome.steps;
        row.coalesced_polls += outcome.sched.coalesced;
        if let Some(d) = r.domain {
            row.repartitions += d.repartitions;
            row.split_drain_cycles += d.split_drain_cycles;
        }
        for v in &r.views {
            row.commits += v.tm.commits;
            row.aborts += v.tm.aborts;
            row.fast_acquires += v.gate.fast_acquires;
            row.slow_acquires += v.gate.slow_acquires;
            row.busy_retries += busy_retries(&v.tm);
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

/// The gate's runs, in row order, each with the number of consecutive
/// seeds its row sums over. First Eigenbench at adaptive quotas: every
/// algorithm × {single-view, multi-view} × N ∈ [`GATE_THREADS`] under the
/// default policy and clock ([`GATE_SEEDS`] seeds each), then one
/// single-seed single-view row at the largest N per non-default policy ×
/// algorithm that can run one ([`TmAlgorithm::names_lock_holder`]: a NOrec
/// view runs the passive default whatever it is asked for) and per
/// non-default clock × algorithm that runs it
/// ([`TmAlgorithm::runs_coarse_clock`]: an orec view ticks whatever it is
/// asked for). Then the scenario workloads, single-seed at the largest N
/// and full fixed quota: the bounded buffer's spin shape
/// under NOrec and its block shape under every algorithm, and each
/// partition shape's adaptive run followed by its hand twin under NOrec.
fn gate_runs(settings: &Settings) -> Vec<(Run<'static>, u64)> {
    let eigen = |policy, clock, algo, version, n_threads| Run {
        n_threads,
        ..settings.run(App::Eigen { policy, clock }, algo, version)
    };
    let scenario = |app, algo, version, n| Run {
        quotas: [QuotaMode::Fixed(n); 2],
        n_threads: n,
        ..settings.run(app, algo, version)
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
        for algo in TmAlgorithm::ALL
            .into_iter()
            .filter(|a| a.runs_coarse_clock())
        {
            let run = eigen(CmPolicy::Backoff, clock, algo, Version::SingleView, n);
            runs.push((run, 1));
        }
    }
    let [spin, block] = workload::BLOCKING_SCENARIOS;
    let buffer_runs = std::iter::once((spin, TmAlgorithm::NOrec))
        .chain(TmAlgorithm::ALL.map(|algo| (block, algo)))
        .map(|(shape, algo)| scenario(App::Buffer(shape), algo, Version::SingleView, n));
    runs.extend(buffer_runs.map(|run| (run, 1)));
    for shape in workload::PARTITION_SCENARIOS {
        for (layout, version) in [
            (Layout::Adaptive, Version::SingleView),
            (Layout::Hand, Version::MultiView),
        ] {
            let app = App::Partition(shape, layout);
            runs.push((scenario(app, TmAlgorithm::NOrec, version, n), 1));
        }
    }
    runs
}

/// One gate row: `run` over `n_seeds` consecutive seeds from its own,
/// folded. Eigenbench runs execute with a live [`FlightRecorder`] attached,
/// so their gated numbers *include* the observability layer's recording
/// cost; an adaptive partition run records into rings of its own, which its
/// controller reads.
fn gate_row(settings: &Settings, run: Run, n_seeds: u64) -> GateRow {
    let t0 = std::time::Instant::now();
    let rows: Vec<Row> = (0..n_seeds)
        .map(|seed_off| {
            let run = Run {
                seed: run.seed.wrapping_add(seed_off),
                ..run
            };
            let recorder = matches!(run.app, App::Eigen { .. }).then(|| {
                Arc::new(FlightRecorder::with_default_capacity(
                    run.n_threads as usize,
                ))
            });
            execute(settings, run, run.sim(None), recorder)
        })
        .collect();
    fold_gate_row(&rows, t0.elapsed().as_secs_f64())
}

/// Runs the reproducible throughput gate: every gate run (Eigenbench, then
/// the bounded buffer, then the partition pairs), each folded into a
/// row in artifact order, plus the one field that spans two rows — each
/// adaptive partition row's `converged_throughput_ratio`, its throughput
/// over its hand twin's. The default-policy, default-clock Eigenbench block
/// is what later PRs regress their `BENCH_<n>.json` against;
/// [`check::check_gate`] holds the artifact's invariants, among them that
/// every row completes, the clock rows clear their collapse floor, the
/// bounded buffer's blocking twin cuts the spinner's busy retries ≥ 10×,
/// and every adaptive domain converges to ≥ 0.90× its hand twin.
pub fn throughput_gate(settings: &Settings) -> Vec<GateRow> {
    let runs = gate_runs(settings);
    let mut rows: Vec<GateRow> = runs
        .iter()
        .map(|&(run, n_seeds)| gate_row(settings, run, n_seeds))
        .collect();
    for (i, (run, _)) in runs.iter().enumerate() {
        let App::Partition(shape, Layout::Adaptive) = run.app else {
            continue;
        };
        let twin = |(r, _): &(Run, u64)| matches!(r.app, App::Partition(s, Layout::Hand) if s.name == shape.name);
        let hand = runs
            .iter()
            .position(twin)
            .expect("a hand twin per adaptive run");
        let hand_tps = rows[hand].txns_per_vsec;
        if hand_tps > 0.0 {
            rows[i].converged_throughput_ratio = rows[i].txns_per_vsec / hand_tps;
        }
    }
    rows
}

/// Throughput spread of one comparison configuration (a non-default
/// policy or clock) across [`GATE_SEEDS`] seeds. The gate's emitted
/// comparison rows stay single-seed (bit-identical headline fields across
/// PRs); the spread is the sidecar stability number `policy_table.md` and
/// `clock_table.md` report as mean (min–max).
#[derive(Debug, Clone)]
pub struct Spread {
    /// STM algorithm name (joins [`GateRow::algo`]).
    pub algo: &'static str,
    /// Policy name (joins [`GateRow::policy`]).
    pub policy: &'static str,
    /// Clock name (joins [`GateRow::clock`]).
    pub clock: &'static str,
    /// Mean `txns_per_vsec` over the seed sweep.
    pub mean: f64,
    /// Worst seed.
    pub min: f64,
    /// Best seed.
    pub max: f64,
}

/// Runs every non-default Eigenbench row of `gate_runs` (a policy other
/// than backoff or a clock other than global) for [`GATE_SEEDS`] − 1 extra
/// seeds and folds each with its emitted (first-seed) row of `rows`, the
/// gate's output, into a [`Spread`]. Reusing the emitted row keeps the
/// artifact's headline fields bit-identical while the tables gain a
/// variance band.
pub fn spreads(settings: &Settings, rows: &[GateRow]) -> Vec<Spread> {
    gate_runs(settings)
        .into_iter()
        .zip(rows)
        .filter(|((run, _), _)| {
            matches!(run.app, App::Eigen { policy, clock }
                if policy != CmPolicy::Backoff || clock != ClockKind::Global)
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
            Spread {
                algo: row.algo,
                policy: row.policy,
                clock: row.clock,
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
/// the clock is virtual, priorities and the coarse summary ring derive
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
        let status = match r.status {
            RunStatus::Completed => "completed",
            RunStatus::Livelock => "livelock",
            RunStatus::Deadlock => "deadlock",
            RunStatus::StepBudgetExhausted => "step-budget-exhausted",
        };
        let wasted_by_reason: Vec<String> = AbortReason::ALL
            .iter()
            .map(|&reason| {
                format!(
                    "{}: {}",
                    json_str(reason.name()),
                    r.wasted_by_reason[reason.index()]
                )
            })
            .collect();
        // Each field once, named beside its value, in artifact order.
        let fields = [
            ("algo", json_str(r.algo)),
            ("policy", json_str(r.policy)),
            ("clock", json_str(r.clock)),
            ("version", json_str(&r.version)),
            ("n_views", r.n_views.to_string()),
            ("n_threads", r.n_threads.to_string()),
            ("status", json_str(status)),
            ("commits", r.commits.to_string()),
            ("aborts", r.aborts.to_string()),
            ("abort_rate", json_f64(r.abort_rate)),
            ("vtime", r.vtime.to_string()),
            ("txns_per_vsec", json_f64(r.txns_per_vsec)),
            ("wall_s", json_f64(r.wall_s)),
            (
                "gate_fast_path_hit_rate",
                json_f64(r.gate_fast_path_hit_rate),
            ),
            ("fast_acquires", r.fast_acquires.to_string()),
            ("slow_acquires", r.slow_acquires.to_string()),
            ("busy_retries", r.busy_retries.to_string()),
            (
                "busy_retries_per_commit",
                json_f64(r.busy_retries_per_commit),
            ),
            ("clock_bumps", r.clock_bumps.to_string()),
            ("clock_bump_skips", r.clock_bump_skips.to_string()),
            ("wasted_cycles", r.wasted_cycles.to_string()),
            ("useful_cycles", r.useful_cycles.to_string()),
            ("waste_frac", json_f64(r.waste_frac)),
            (
                "wasted_by_reason",
                format!("{{{}}}", wasted_by_reason.join(", ")),
            ),
            ("gate_wait_cycles", r.gate_wait_cycles.to_string()),
            ("commit_p50_cycles", r.commit_p50_cycles.to_string()),
            ("commit_p99_cycles", r.commit_p99_cycles.to_string()),
            ("sim_steps", r.sim_steps.to_string()),
            ("coalesced_polls", r.coalesced_polls.to_string()),
            ("parked_waits", r.parked_waits.to_string()),
            ("lost_wakeups", r.lost_wakeups.to_string()),
            ("escalations", r.escalations.to_string()),
            ("repartitions", r.repartitions.to_string()),
            ("split_drain_cycles", r.split_drain_cycles.to_string()),
            (
                "converged_throughput_ratio",
                json_f64(r.converged_throughput_ratio),
            ),
        ];
        let fields: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("    {{{}}}{comma}\n", fields.join(", ")));
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
        // to rank, plus one per non-default clock × algorithm that runs
        // it, plus the bounded buffer's spin row and a block row per
        // algorithm, plus an adaptive/hand row pair per partition scenario.
        let n_algos = TmAlgorithm::ALL.len();
        let n_policy_algos = TmAlgorithm::ALL
            .iter()
            .filter(|a| a.names_lock_holder())
            .count();
        let n_clock_algos = TmAlgorithm::ALL
            .iter()
            .filter(|a| a.runs_coarse_clock())
            .count();
        assert_eq!(
            rows.len(),
            n_algos * 2 * GATE_THREADS.len()
                + (CmPolicy::ALL.len() - 1) * n_policy_algos
                + (ClockKind::ALL.len() - 1) * n_clock_algos
                + 1
                + n_algos
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
        // The artifact parses with the reader `benchdiff` uses, carries
        // every row under the current schema, and holds every invariant
        // `benchdiff` checks.
        let doc = json::parse(&gate_rows_to_json(&s, &rows)).expect("gate JSON parses");
        assert_eq!(
            doc.get("rows").and_then(json::Json::as_arr).map(<[_]>::len),
            Some(rows.len())
        );
        assert_eq!(
            doc.get("schema_version").and_then(json::Json::as_str),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(check::check_gate(&doc), Vec::<String>::new());
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
