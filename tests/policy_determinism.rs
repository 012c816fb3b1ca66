//! Per-policy determinism: every contention-management policy is a pure
//! function of the run's seeds, so replaying the same seeded simulation
//! twice under any policy must export byte-identical documents — Chrome
//! trace (every event, timestamp, and `cm_kill` record) and the
//! `votm-obs-snapshot-v1` schema alike.
//!
//! This is the same-seed replay guarantee the scheduler differential
//! (`determinism_differential.rs`) pins for the default path, extended to
//! the whole policy surface: timestamp priorities and windowed-greedy's
//! seeded window draws derive from virtual time and per-thread seeds,
//! never from host entropy.

use votm::{ClockKind, CmPolicy, QuotaMode, TmAlgorithm, Votm};
use votm_bench::{capture_trace, Settings, TraceCapture};
use votm_sim::SimConfig;

fn settings() -> Settings {
    Settings {
        eigen_scale: 0.0003,
        ..Default::default()
    }
}

fn sim(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..Default::default()
    }
}

fn capture(algo: TmAlgorithm, seed: u64, policy: CmPolicy) -> TraceCapture {
    capture_trace(&settings(), algo, sim(seed), policy, ClockKind::Global)
}

#[test]
fn every_policy_replays_byte_identical_exports() {
    for policy in CmPolicy::ALL {
        for seed in [1u64, 42] {
            let a = capture(TmAlgorithm::OrecEagerRedo, seed, policy);
            let b = capture(TmAlgorithm::OrecEagerRedo, seed, policy);
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
    let backoff = capture(TmAlgorithm::NOrec, 7, CmPolicy::Backoff);
    for policy in CmPolicy::ALL {
        if policy == CmPolicy::Backoff {
            continue;
        }
        let other = capture(TmAlgorithm::NOrec, 7, policy);
        assert_eq!(backoff.chrome_trace, other.chrome_trace, "{policy:?}");
        assert_eq!(backoff.snapshot, other.snapshot, "{policy:?}");
    }
    let sys = Votm::builder().policy(CmPolicy::WindowedGreedy).build();
    let norec = sys.create_view_with_algorithm(64, QuotaMode::Fixed(2), TmAlgorithm::NOrec);
    let orec = sys.create_view_with_algorithm(64, QuotaMode::Fixed(2), TmAlgorithm::OrecEagerRedo);
    assert_eq!(norec.cm_policy(), CmPolicy::Backoff);
    assert_eq!(orec.cm_policy(), CmPolicy::WindowedGreedy);
}
