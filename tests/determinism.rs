//! End-to-end determinism: the full STM + RAC + observability stack is a
//! pure function of the run's seeds, checked through the Chrome trace and
//! `votm-obs-snapshot-v1` exporters, whose output is a canonical
//! serialisation of everything the simulation observed — virtual timestamps
//! on every trace event, quota-decision timelines, abort-reason counts
//! (`cm_kill` records included), latency histograms.
//!
//! Three surfaces are pinned here:
//! - the scheduler: the timer wheel (which coalesces) exports byte-identical
//!   documents to the reference heap (the original queue-only executor).
//!   This is the top of the determinism pyramid; the executor-level suite
//!   (`crates/sim/tests/differential.rs`) pins activation order on fuzzed
//!   micro-workloads;
//! - the contention-management policy: timestamp priorities and
//!   windowed-greedy's seeded window draws derive from virtual time and
//!   per-thread seeds, never from host entropy;
//! - the clock: NOrec's coarse summary ring derives from virtual time too.

use votm::{ClockKind, CmPolicy, QuotaMode, TmAlgorithm, Votm};
use votm_bench::{capture_trace, Settings, TraceCapture};
use votm_sim::{SchedulerKind, SimConfig};

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

#[test]
fn exports_are_byte_identical_across_schedulers() {
    for algo in [TmAlgorithm::OrecEagerRedo, TmAlgorithm::NOrec] {
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
        }
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
