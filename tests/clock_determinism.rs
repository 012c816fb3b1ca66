//! Per-clock determinism: every clock source is a pure function of the
//! run's seeds, so replaying the same seeded simulation twice under any
//! clock kind must export byte-identical documents — Chrome trace (every
//! event, timestamp and abort-reason record) and the
//! `votm-obs-snapshot-v1` schema alike.
//!
//! This mirrors `policy_determinism.rs` for the clock-source surface:
//! NOrec's coarse summary ring derives from virtual time — never from host
//! entropy.

use votm::{ClockKind, CmPolicy, TmAlgorithm};
use votm_bench::{capture_trace, Settings};
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

#[test]
fn every_clock_replays_byte_identical_exports() {
    let settings = settings();
    for clock in ClockKind::ALL {
        for (algo, seed) in [
            (TmAlgorithm::NOrec, 1u64),
            (TmAlgorithm::OrecEagerRedo, 42),
            (TmAlgorithm::OrecLazy, 42),
        ] {
            let a = capture_trace(&settings, algo, sim(seed), CmPolicy::Backoff, clock);
            let b = capture_trace(&settings, algo, sim(seed), CmPolicy::Backoff, clock);
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
/// a system gets when it names no clock, so a global-clock capture is byte-identical
/// to the default capture — not merely deterministic. This is the
/// test-level form of the CI gate's default-rows-bit-identical check. The
/// orec engine ticks whatever clock it is given, so its coarse capture is
/// the default capture too.
#[test]
fn global_clock_matches_the_default_capture_exactly() {
    let settings = settings();
    for (algo, clock) in [
        (TmAlgorithm::NOrec, ClockKind::Global),
        (TmAlgorithm::OrecEagerRedo, ClockKind::Global),
        (TmAlgorithm::OrecEagerRedo, ClockKind::Coarse),
        (TmAlgorithm::OrecLazy, ClockKind::Coarse),
    ] {
        let default = capture_trace(
            &settings,
            algo,
            sim(7),
            CmPolicy::default(),
            ClockKind::default(),
        );
        let captured = capture_trace(&settings, algo, sim(7), CmPolicy::Backoff, clock);
        assert_eq!(
            default.chrome_trace, captured.chrome_trace,
            "{algo:?} {clock:?}"
        );
        assert_eq!(default.snapshot, captured.snapshot, "{algo:?} {clock:?}");
    }
}
