//! Acceptance tests for the conflict-topology profiler:
//!
//! * **Zero-overhead contract** — a profiled run (recorder live, conflict
//!   and footprint events flowing) is bit-identical in virtual time to the
//!   unrecorded run with the same seed.
//! * **Exact attribution** — per-bucket wasted cycles sum exactly to the
//!   total abort-wasted cycles the stats ledger counted.
//! * **Partition recovery** — the affinity matrix mined from a *single-view*
//!   run of the disjoint-key two-object workload recovers the hand
//!   partition the multi-view version encodes, with zero cross-partition
//!   affinity, deterministically across seeds.

use std::collections::BTreeSet;
use std::sync::Arc;

use votm::{FlightRecorder, QuotaMode, TmAlgorithm};
use votm_bench::Settings;
use votm_eigenbench::{EigenConfig, Version, ViewParams};
use votm_obs::{ConflictProfile, PROFILE_BUCKETS};
use votm_sim::{RunStatus, SimConfig};

fn quick() -> Settings {
    Settings {
        eigen_scale: 0.0005,
        ..Default::default()
    }
}

#[test]
fn profiled_run_is_virtually_identical_to_unrecorded_run() {
    let s = quick();
    let cap = votm_bench::capture_profile(&s, TmAlgorithm::OrecEagerRedo);
    // The twin run: same config, seed and quota mode, no recorder. The
    // profiler's footprint tracking and event emission must not have moved
    // a single virtual cycle.
    let mut cfg = EigenConfig::paper_table2(s.eigen_scale);
    cfg.n_threads = s.n_threads;
    cfg.seed = s.seed;
    let bare = votm_eigenbench::run_sim(
        &cfg,
        TmAlgorithm::OrecEagerRedo,
        Version::SingleView,
        [QuotaMode::Adaptive, QuotaMode::Adaptive],
        SimConfig {
            seed: s.seed,
            vtime_cap: None,
            ..Default::default()
        },
    );
    assert_eq!(bare.outcome.status, RunStatus::Completed);
    assert_eq!(
        cap.vtime, bare.outcome.vtime,
        "recording moved virtual time"
    );
    for (a, b) in cap.views.iter().zip(&bare.views) {
        assert_eq!(a.tm.commits, b.tm.commits);
        assert_eq!(a.tm.aborts, b.tm.aborts);
        assert_eq!(a.tm.cycles_aborted, b.tm.cycles_aborted);
        assert_eq!(a.tm.cycles_successful, b.tm.cycles_successful);
    }
}

#[test]
fn per_bucket_wasted_cycles_sum_exactly_to_abort_total() {
    let s = quick();
    let cap = votm_bench::capture_profile(&s, TmAlgorithm::OrecEagerRedo);
    assert_eq!(cap.dropped, 0, "ring overflow would make sums inexact");
    let p = &cap.profile;
    assert!(
        p.aborts_total > 0,
        "workload produced no conflicts to profile"
    );
    // Every abort emitted exactly one ConflictDetected with the same cycle
    // count as its TxAbort, so the attribution table partitions the ledger.
    assert_eq!(p.attributed_cycles_total(), p.abort_cycles_total);
    let stats_wasted: u64 = cap.views.iter().map(|v| v.tm.cycles_aborted).sum();
    let stats_aborts: u64 = cap.views.iter().map(|v| v.tm.aborts).sum();
    assert_eq!(p.abort_cycles_total, stats_wasted);
    assert_eq!(p.aborts_total, stats_aborts);
    // The stats-side ledger agrees with itself too: per-reason wasted
    // cycles sum to the total.
    for v in &cap.views {
        let by_reason: u64 = v.tm.cycles_aborted_by_reason.iter().sum();
        assert_eq!(by_reason, v.tm.cycles_aborted);
    }
}

/// Two *identical* objects in one view: object 1 occupies the lower half of
/// the heap, object 2 the upper half, and no transaction touches both. The
/// bucket boundary falls exactly at `PROFILE_BUCKETS / 2`.
fn symmetric_config(seed: u64) -> EigenConfig {
    let obj = ViewParams {
        loops: 40,
        a1: 256,
        a2: 16 * 1024,
        a3: 1024,
        r1: 8,
        w1: 4,
        r2: 2,
        w2: 2,
        r3i: 0,
        w3i: 0,
        nopi: 0,
    };
    EigenConfig {
        n_threads: 8,
        view1: obj,
        view2: obj,
        r3o: 0,
        w3o: 0,
        nopo: 0,
        seed,
    }
}

#[test]
fn affinity_matrix_recovers_hand_partition_from_single_view_run() {
    let mut reference: Option<(BTreeSet<usize>, BTreeSet<usize>)> = None;
    for seed in [1u64, 7, 42] {
        let cfg = symmetric_config(seed);
        let recorder = Arc::new(FlightRecorder::new(cfg.n_threads as usize, 1 << 16));
        let res = votm_eigenbench::run_sim_recorded(
            &cfg,
            TmAlgorithm::OrecEagerRedo,
            Version::SingleView,
            [QuotaMode::Adaptive, QuotaMode::Adaptive],
            SimConfig {
                seed,
                vtime_cap: None,
                ..Default::default()
            },
            Some(Arc::clone(&recorder)),
        );
        assert_eq!(res.outcome.status, RunStatus::Completed);
        let profile = ConflictProfile::from_traces(&recorder.snapshot());
        let part = profile.suggest_bipartition();

        // Zero cross-partition affinity: the workload's transactions are
        // disjoint by construction, and the miner must see that.
        assert_eq!(
            part.cut_affinity, 0,
            "seed {seed}: suggested split cuts co-accessed buckets"
        );
        assert!(part.internal_affinity > 0, "seed {seed}: empty affinity");
        assert_eq!(part.separability, 1.0, "seed {seed}");

        // The split is the hand partition: object 1 lives in buckets
        // 0..32, object 2 in 32..64 (equal objects, so the heap midpoint
        // is exactly the bucket midpoint).
        let half = PROFILE_BUCKETS / 2;
        let side0: BTreeSet<usize> = part.side_buckets(0).into_iter().collect();
        let side1: BTreeSet<usize> = part.side_buckets(1).into_iter().collect();
        let (lo, hi) = if side0.iter().all(|&b| b < half) {
            (&side0, &side1)
        } else {
            (&side1, &side0)
        };
        assert!(
            lo.iter().all(|&b| b < half) && hi.iter().all(|&b| b >= half),
            "seed {seed}: split does not match the hand partition: \
             {side0:?} vs {side1:?}"
        );
        assert!(!lo.is_empty() && !hi.is_empty(), "seed {seed}: one-sided");

        // Deterministic across seeds: the same unordered partition every
        // time (different seeds shuffle the schedule, not the topology).
        let unordered = if side0.contains(lo.iter().next().unwrap()) {
            (side0.clone(), side1.clone())
        } else {
            (side1.clone(), side0.clone())
        };
        match &reference {
            None => reference = Some(unordered),
            Some(first) => assert_eq!(
                first.0.union(&first.1).collect::<BTreeSet<_>>(),
                unordered.0.union(&unordered.1).collect::<BTreeSet<_>>(),
                "seed {seed}: touched-bucket set changed across seeds"
            ),
        }
    }
}
