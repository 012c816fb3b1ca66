//! End-to-end determinism: the full STM + RAC + observability stack is a
//! pure function of the run's seeds, checked through the Chrome trace and
//! `votm-obs-snapshot-v1` exporters, whose output is a canonical
//! serialisation of everything the simulation observed — virtual timestamps
//! on every trace event, quota-decision timelines, abort-reason counts
//! (`cm_kill` records included), latency histograms.
//!
//! Three surfaces are pinned here:
//! - the scheduler: the timer wheel (which coalesces, and takes a passive
//!   busy retry as one step) exports byte-identical documents to the
//!   reference heap (the original queue-only executor, which steps both
//!   halves of the retry) in strictly fewer steps. This is the top of the
//!   determinism pyramid; the executor-level suite
//!   (`crates/sim/tests/differential.rs`) pins activation order on fuzzed
//!   micro-workloads;
//! - the contention-management policy: timestamp priorities and
//!   windowed-greedy's seeded window draws derive from virtual time and
//!   per-thread seeds, never from host entropy;
//! - the clock: NOrec's coarse summary ring derives from virtual time too.

use votm::{ClockKind, CmPolicy, QuotaMode, TmAlgorithm, Version, Votm};
use votm_bench::workload::{Layout, BLOCKING_SCENARIOS, PARTITION_SCENARIOS};
use votm_bench::{capture_trace, run_with, App, Run, Settings, TraceCapture};
use votm_sim::{RunStatus, SchedulerKind, SimConfig};

/// The replay tests' Eigenbench scale; the scheduler differential runs at
/// 0.0005.
const REPLAY_SCALE: f64 = 0.0003;

fn sim(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..Default::default()
    }
}

fn capture(
    eigen_scale: f64,
    algo: TmAlgorithm,
    sim: SimConfig,
    policy: CmPolicy,
    clock: ClockKind,
) -> TraceCapture {
    let settings = Settings {
        eigen_scale,
        ..Default::default()
    };
    capture_trace(&settings, algo, sim, policy, clock)
}

/// Every engine's Eigenbench capture, then the NOrec runs whose begin and
/// commit loops wait out a seqlock holder hardest (the spinning bounded
/// buffer and the adaptive Zipf partition, at the gate's N and quota): the
/// same bytes on both schedulers, and strictly fewer steps on the wheel, so
/// the merged busy retries ran and changed nothing.
#[test]
fn exports_are_byte_identical_across_schedulers() {
    for algo in TmAlgorithm::ALL {
        for seed in [1u64, 42] {
            let [base, got] =
                [SchedulerKind::ReferenceHeap, SchedulerKind::TimerWheel].map(|scheduler| {
                    let sim = SimConfig {
                        scheduler,
                        ..sim(seed)
                    };
                    capture(0.0005, algo, sim, CmPolicy::Backoff, ClockKind::Global)
                });
            assert_eq!(
                base.chrome_trace, got.chrome_trace,
                "{algo:?} seed {seed}: chrome trace diverged"
            );
            assert_eq!(
                base.snapshot, got.snapshot,
                "{algo:?} seed {seed}: snapshot export diverged"
            );
            assert_eq!(
                base.quota_changes, got.quota_changes,
                "{algo:?} seed {seed}: quota timeline diverged"
            );
            assert!(
                got.steps < base.steps,
                "{algo:?} seed {seed}: {} wheel steps, {} heap steps",
                got.steps,
                base.steps
            );
        }
    }
    let settings = Settings::default();
    let spinning = [
        App::Buffer(BLOCKING_SCENARIOS[0]),
        App::Partition(PARTITION_SCENARIOS[1], Layout::Adaptive),
    ];
    for app in spinning {
        let run = Run {
            quotas: [QuotaMode::Fixed(16); 2],
            n_threads: 16,
            ..settings.run(app, TmAlgorithm::NOrec, Version::SingleView)
        };
        let [base, got] =
            [SchedulerKind::ReferenceHeap, SchedulerKind::TimerWheel].map(|scheduler| {
                let row = run_with(
                    &settings,
                    run,
                    SimConfig {
                        scheduler,
                        ..sim(run.seed)
                    },
                );
                assert_eq!(row.outcome.status, RunStatus::Completed, "{app:?}");
                let busy: u64 = row.views.iter().map(|v| v.tm.busy_retries).sum();
                assert!(busy > 0, "{app:?}: no busy retry to merge");
                let record = format!("{} {:?} {:?}", row.outcome.vtime, row.views, row.domain);
                (record, row.outcome.steps)
            });
        assert_eq!(base.0, got.0, "{app:?}: run diverged across schedulers");
        assert!(
            got.1 < base.1,
            "{app:?}: {} wheel steps, {} heap steps",
            got.1,
            base.1
        );
    }
}

#[test]
fn every_policy_replays_byte_identical_exports() {
    for policy in CmPolicy::ALL {
        for seed in [1u64, 42] {
            let [a, b] = [(); 2].map(|()| {
                capture(
                    REPLAY_SCALE,
                    TmAlgorithm::OrecEagerRedo,
                    sim(seed),
                    policy,
                    ClockKind::Global,
                )
            });
            assert_eq!(
                a.chrome_trace, b.chrome_trace,
                "{policy:?} seed {seed}: chrome trace diverged across replays"
            );
            assert_eq!(
                a.snapshot, b.snapshot,
                "{policy:?} seed {seed}: snapshot export diverged across replays"
            );
            let commits: u64 = a.views.iter().map(|v| v.tm.commits).sum();
            assert!(commits > 0, "{policy:?} seed {seed}: nothing committed");
        }
    }
}

/// NOrec takes no policy, structurally: its lock names no holder for a
/// policy to rank, so a NOrec view runs the passive default whatever the
/// system was configured with — byte for byte, not merely "similarly" —
/// while an orec view of the same system runs what was asked for.
#[test]
fn norec_ignores_the_policy_byte_for_byte() {
    let run = |policy| {
        capture(
            REPLAY_SCALE,
            TmAlgorithm::NOrec,
            sim(7),
            policy,
            ClockKind::Global,
        )
    };
    let backoff = run(CmPolicy::Backoff);
    for policy in CmPolicy::ALL {
        if policy == CmPolicy::Backoff {
            continue;
        }
        let other = run(policy);
        assert_eq!(backoff.chrome_trace, other.chrome_trace, "{policy:?}");
        assert_eq!(backoff.snapshot, other.snapshot, "{policy:?}");
    }
    let sys = Votm::builder().policy(CmPolicy::WindowedGreedy).build();
    let norec = sys.create_view_with_algorithm(64, QuotaMode::Fixed(2), TmAlgorithm::NOrec);
    let orec = sys.create_view_with_algorithm(64, QuotaMode::Fixed(2), TmAlgorithm::OrecEagerRedo);
    assert_eq!(norec.cm_policy(), CmPolicy::Backoff);
    assert_eq!(orec.cm_policy(), CmPolicy::WindowedGreedy);
}

#[test]
fn every_clock_replays_byte_identical_exports() {
    for clock in ClockKind::ALL {
        for (algo, seed) in [
            (TmAlgorithm::NOrec, 1u64),
            (TmAlgorithm::OrecEagerRedo, 42),
            (TmAlgorithm::OrecLazy, 42),
        ] {
            let [a, b] =
                [(); 2].map(|()| capture(REPLAY_SCALE, algo, sim(seed), CmPolicy::Backoff, clock));
            assert_eq!(
                a.chrome_trace, b.chrome_trace,
                "{clock:?} {algo:?} seed {seed}: chrome trace diverged across replays"
            );
            assert_eq!(
                a.snapshot, b.snapshot,
                "{clock:?} {algo:?} seed {seed}: snapshot export diverged across replays"
            );
            let commits: u64 = a.views.iter().map(|v| v.tm.commits).sum();
            assert!(
                commits > 0,
                "{clock:?} {algo:?} seed {seed}: nothing committed"
            );
        }
    }
}

/// The global clock is *passive* plumbing: `ClockKind::Global` is plain
/// NOrec and the orec engine's one fetch-add per writer commit, and is what
/// a system gets when it names no clock, so a global-clock capture is
/// byte-identical to the default capture — not merely deterministic. This is
/// the test-level form of the CI gate's default-rows-bit-identical check.
/// The orec engine ticks whatever clock it is given, so its coarse capture
/// is the default capture too.
#[test]
fn global_clock_matches_the_default_capture_exactly() {
    for (algo, clock) in [
        (TmAlgorithm::NOrec, ClockKind::Global),
        (TmAlgorithm::OrecEagerRedo, ClockKind::Global),
        (TmAlgorithm::OrecEagerRedo, ClockKind::Coarse),
        (TmAlgorithm::OrecLazy, ClockKind::Coarse),
    ] {
        let default = capture(
            REPLAY_SCALE,
            algo,
            sim(7),
            CmPolicy::default(),
            ClockKind::default(),
        );
        let captured = capture(REPLAY_SCALE, algo, sim(7), CmPolicy::Backoff, clock);
        assert_eq!(
            default.chrome_trace, captured.chrome_trace,
            "{algo:?} {clock:?}"
        );
        assert_eq!(default.snapshot, captured.snapshot, "{algo:?} {clock:?}");
    }
}
