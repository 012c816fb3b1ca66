//! End-to-end scheduler differential: the full STM + RAC + observability
//! stack run under the timer wheel must export byte-identical documents to
//! the same run under the retained reference-heap scheduler, with charge
//! coalescing on or off.
//!
//! This is the top of the determinism pyramid. The executor-level suite
//! (`crates/sim/tests/differential.rs`) pins activation order on fuzzed
//! micro-workloads; this test pins the whole pipeline — virtual timestamps
//! on every trace event, quota-decision timelines, abort-reason counts,
//! latency histograms — through the Chrome trace and
//! `votm-obs-snapshot-v1` exporters, whose output is a canonical
//! serialisation of everything the simulation observed.

use votm::{ClockKind, CmPolicy, TmAlgorithm};
use votm_bench::{capture_trace, Settings, TraceCapture};
use votm_sim::{SchedulerKind, SimConfig};

fn sim(seed: u64, scheduler: SchedulerKind, coalesce: bool) -> SimConfig {
    SimConfig {
        seed,
        scheduler,
        coalesce,
        ..Default::default()
    }
}

fn capture(settings: &Settings, algo: TmAlgorithm, sim: SimConfig) -> TraceCapture {
    capture_trace(settings, algo, sim, CmPolicy::Backoff, ClockKind::Global)
}

#[test]
fn exports_are_byte_identical_across_schedulers() {
    let settings = Settings {
        eigen_scale: 0.0005,
        ..Default::default()
    };
    for algo in [TmAlgorithm::OrecEagerRedo, TmAlgorithm::NOrec] {
        for seed in [1u64, 42] {
            let base = capture(
                &settings,
                algo,
                sim(seed, SchedulerKind::ReferenceHeap, true),
            );
            for (scheduler, coalesce, label) in [
                (SchedulerKind::TimerWheel, true, "wheel"),
                (SchedulerKind::TimerWheel, false, "wheel-nocoalesce"),
                (SchedulerKind::ReferenceHeap, false, "heap-nocoalesce"),
            ] {
                let got = capture(&settings, algo, sim(seed, scheduler, coalesce));
                assert_eq!(
                    base.chrome_trace, got.chrome_trace,
                    "{algo:?} seed {seed} {label}: chrome trace diverged"
                );
                assert_eq!(
                    base.snapshot, got.snapshot,
                    "{algo:?} seed {seed} {label}: snapshot export diverged"
                );
                assert_eq!(
                    base.quota_changes, got.quota_changes,
                    "{algo:?} seed {seed} {label}: quota timeline diverged"
                );
            }
        }
    }
}
