//! End-to-end checks of the observability layer: a seeded simulator run
//! must export a Chrome trace and a snapshot document that (a) are byte-
//! identical across identically-seeded runs, (b) carry at least one quota
//! decision with its δ(Q) evidence, (c) agree exactly with the per-view
//! statistics counters, and (d) cost nothing in virtual time — recording
//! must not perturb the simulated schedule.

use std::sync::Arc;

use votm::{ClockKind, CmPolicy, FlightRecorder, QuotaMode, TmAlgorithm};
use votm_bench::json::{self, Json};
use votm_bench::{capture_profile, capture_trace, Settings, TraceCapture};
use votm_eigenbench::{run_sim, run_sim_recorded, EigenConfig, Version};
use votm_obs::{
    AbortReason, ConflictProfile, ConflictSiteKind, EventKind, ProfileWindow, ADDR_BUCKET_NONE,
};
use votm_sim::SimConfig;

fn trace_settings() -> Settings {
    Settings {
        eigen_scale: 0.0005,
        ..Default::default()
    }
}

/// The trace export `tables --trace` writes: default policy and clock, the
/// schedule seeded like the workload.
fn trace(s: &Settings, algo: TmAlgorithm) -> TraceCapture {
    let sim = SimConfig {
        seed: s.seed,
        ..SimConfig::default()
    };
    capture_trace(s, algo, sim, CmPolicy::Backoff, ClockKind::Global)
}

fn small_config() -> EigenConfig {
    let mut c = EigenConfig::paper_table2(0.0005);
    c.n_threads = 8;
    c
}

#[test]
fn same_seed_runs_export_byte_identical_json() {
    let s = trace_settings();
    let a = trace(&s, TmAlgorithm::OrecEagerRedo);
    let b = trace(&s, TmAlgorithm::OrecEagerRedo);
    assert_eq!(
        a.chrome_trace, b.chrome_trace,
        "chrome trace must be deterministic for a fixed seed"
    );
    assert_eq!(
        a.snapshot, b.snapshot,
        "snapshot export must be deterministic for a fixed seed"
    );
    // A different seed produces a different schedule, hence a different
    // trace — determinism is not degenerate constancy.
    let mut s2 = s;
    s2.seed += 1;
    let c = trace(&s2, TmAlgorithm::OrecEagerRedo);
    assert_ne!(a.chrome_trace, c.chrome_trace);
}

#[test]
fn exported_trace_carries_quota_decisions_and_structured_aborts() {
    let s = trace_settings();
    let cap = trace(&s, TmAlgorithm::OrecEagerRedo);
    // The adaptive controller must have moved at least once on the
    // high-contention view, and the decision must carry its δ(Q) sample.
    assert!(
        cap.quota_changes >= 1,
        "adaptive run produced no quota decisions"
    );
    assert!(cap.chrome_trace.contains("\"name\":\"quota-change\""));
    assert!(
        cap.snapshot.contains("\"quota_timeline\":[{\"ts\":"),
        "snapshot must serialise the quota timeline"
    );
    assert!(
        cap.snapshot.contains("\"delta\":0.")
            || cap.snapshot.contains("\"delta\":1.")
            || cap.snapshot.contains("\"delta\":\"inf\""),
        "at least one quota decision must carry a delta sample"
    );
    // Structured abort reasons reached both exports.
    let total_aborts: u64 = cap.views.iter().map(|v| v.tm.aborts).sum();
    assert!(total_aborts > 0, "contended run must abort");
    assert!(cap.chrome_trace.contains("\"reason\":\"orec_conflict\""));
    assert!(cap.snapshot.contains("\"orec_conflict\":"));
    for v in &cap.views {
        assert_eq!(
            v.tm.aborts_by_reason.iter().sum::<u64>(),
            v.tm.aborts,
            "per-reason abort counts must sum to the abort total"
        );
    }
}

#[test]
fn commit_histogram_count_matches_commit_counter() {
    let s = trace_settings();
    let cap = trace(&s, TmAlgorithm::NOrec);
    for v in &cap.views {
        assert_eq!(
            v.hists.commit.count(),
            v.tm.commits,
            "view {}: every commit must land in the latency histogram",
            v.view_id
        );
        assert_eq!(
            v.hists.abort_to_retry.count(),
            v.tm.aborts,
            "view {}: every abort is followed by exactly one retry begin",
            v.view_id
        );
    }
}

/// The member of `doc` at `path`; panics naming the first missing key.
fn at<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    path.iter().fold(doc, |d, key| {
        d.get(key)
            .unwrap_or_else(|| panic!("missing {key:?} in {path:?}"))
    })
}

/// The documents `tables --profile` and `tables --trace` write parse, and
/// hold what their consumers rely on: the profile's schema, its wasted-cycle
/// ledger (buckets + unattributed = total) and a separability in [0, 1];
/// a quota decision on the trace; the snapshot's schema and, per exported
/// view, a commit-histogram count equal to the commit counter.
#[test]
fn exported_documents_parse_and_hold_their_invariants() {
    let profile = capture_profile(&Settings::default(), TmAlgorithm::OrecEagerRedo);
    let p = json::parse(&profile.json).expect("profile parses");
    assert_eq!(at(&p, &["schema"]).as_str(), Some("votm-obs-profile-v1"));
    let wasted = |b: &Json| at(b, &["wasted_cycles"]).as_u64().expect("wasted_cycles");
    let buckets = at(&p, &["buckets"]).as_arr().expect("buckets");
    let attributed = buckets.iter().map(wasted).sum::<u64>() + wasted(at(&p, &["unattributed"]));
    assert_eq!(Some(attributed), at(&p, &["abort_cycles_total"]).as_u64());
    let separability = at(&p, &["partition", "separability"]).as_f64();
    assert!(
        separability.is_some_and(|s| (0.0..=1.0).contains(&s)),
        "{separability:?}"
    );

    let cap = trace(&trace_settings(), TmAlgorithm::OrecEagerRedo);
    let t = json::parse(&cap.chrome_trace).expect("chrome trace parses");
    let events = at(&t, &["traceEvents"]).as_arr().expect("traceEvents");
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("quota-change")),
        "no quota decision on the trace"
    );
    let snap = json::parse(&cap.snapshot).expect("snapshot parses");
    assert_eq!(
        at(&snap, &["schema"]).as_str(),
        Some("votm-obs-snapshot-v1")
    );
    for v in at(&snap, &["views"]).as_arr().expect("views") {
        assert_eq!(
            at(v, &["hist", "commit", "count"]).as_u64(),
            at(v, &["commits"]).as_u64(),
            "view {:?}: histogram/counter mismatch",
            at(v, &["view_id"]).as_u64()
        );
    }
}

#[test]
fn recording_does_not_perturb_virtual_time_or_counters() {
    let config = small_config();
    let quotas = [QuotaMode::Adaptive, QuotaMode::Adaptive];
    let plain = run_sim(
        &config,
        TmAlgorithm::OrecEagerRedo,
        Version::MultiView,
        quotas,
        SimConfig::default(),
    );
    let rec = Arc::new(FlightRecorder::with_default_capacity(
        config.n_threads as usize,
    ));
    let recorded = run_sim_recorded(
        &config,
        TmAlgorithm::OrecEagerRedo,
        Version::MultiView,
        quotas,
        SimConfig::default(),
        Some(Arc::clone(&rec)),
    );
    assert_eq!(
        plain.outcome.vtime, recorded.outcome.vtime,
        "recording must charge no virtual cycles"
    );
    for (p, r) in plain.views.iter().zip(recorded.views.iter()) {
        assert_eq!(p.tm, r.tm, "view {}: counters must not shift", p.view_id);
        assert_eq!(p.quota, r.quota);
    }
    // And the rings actually saw the run.
    let threads = rec.snapshot();
    let begins: u64 = threads
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| matches!(e.kind, EventKind::TxBegin { .. }))
        .count() as u64;
    assert!(begins > 0, "live recorder saw no transaction begins");
}

#[test]
fn fault_injection_shows_up_as_fault_events_and_reasons() {
    use votm_sim::FaultPlan;
    let config = small_config();
    let rec = Arc::new(FlightRecorder::with_default_capacity(
        config.n_threads as usize,
    ));
    let sim = SimConfig {
        fault_plan: Some(FaultPlan {
            seed: 0xFA11,
            abort_percent: 1,
            ..Default::default()
        }),
        ..Default::default()
    };
    let res = run_sim_recorded(
        &config,
        TmAlgorithm::OrecEagerRedo,
        Version::MultiView,
        [QuotaMode::Adaptive, QuotaMode::Adaptive],
        sim,
        Some(Arc::clone(&rec)),
    );
    let injected: u64 = res
        .views
        .iter()
        .map(|v| v.tm.aborts_by_reason[AbortReason::FaultInjected.index()])
        .sum();
    assert!(injected > 0, "fault plan produced no injected aborts");
    let fault_events = rec
        .snapshot()
        .iter()
        .flat_map(|t| t.events.clone())
        .filter(|e| matches!(e.kind, EventKind::Fault { code: 1, .. }))
        .count() as u64;
    assert!(
        fault_events > 0,
        "injected aborts must appear as fault events on the trace"
    );
}

/// One random event of one of `views` views: a commit (which no fold reads),
/// an abort, a conflict with or without an address, or a footprint.
fn random_event(rng: &mut votm_utils::XorShift64, views: u64, i: u64) -> EventKind {
    let view = rng.next_below(views) as u16;
    let cycles = 1 + rng.next_below(500);
    match rng.next_below(4) {
        0 => EventKind::TxCommit { view, cycles },
        1 => EventKind::TxAbort {
            view,
            reason: AbortReason::NorecValidation,
            cycles,
        },
        2 => EventKind::ConflictDetected {
            view,
            addr_bucket: match rng.next_below(8) {
                0 => ADDR_BUCKET_NONE,
                _ => rng.next_below(64) as u8,
            },
            kind: AbortReason::NorecValidation,
            site: ConflictSiteKind::Addr,
            cycles,
            raw: i,
        },
        _ => EventKind::Footprint {
            view,
            committed: rng.next_below(2) == 0,
            reads: rng.next_u64() & rng.next_u64(),
            writes: 1 << rng.next_below(64),
        },
    }
}

/// The full fold the repartition controller's window starts from (and is
/// checked against) reads the live rings in place; it must equal the
/// snapshot-based fold field for field, on rings that have wrapped and hold
/// several views' events interleaved.
#[test]
fn in_place_profile_fold_equals_the_snapshot_fold() {
    let rec = FlightRecorder::new(3, 64);
    let mut rng = votm_utils::XorShift64::new(12);
    for i in 0..1_000u64 {
        let kind = random_event(&mut rng, 3, i);
        rec.record(rng.next_index(3), i, kind);
    }
    let traces = rec.snapshot();
    assert!(traces.iter().all(|t| t.dropped > 0), "every ring must wrap");

    // View 9 recorded nothing: its profile is the empty one.
    let views = [2u16, 0, 9, 1];
    let folded = ConflictProfile::per_view(&rec, &views);
    assert_eq!(folded.len(), views.len());
    for (profile, &view) in folded.iter().zip(&views) {
        let expected = ConflictProfile::from_traces_for_view(&traces, view);
        assert_eq!(*profile, expected, "view {view}");
        assert_eq!(profile.aborts_total == 0, view == 9);
    }
    assert!(ConflictProfile::per_view(&rec, &[]).is_empty());
}

/// The repartition controller keeps its per-view profiles resident and
/// slides them: each tick absorbs what the rings gained and retracts what
/// they overwrote. After every step of a recording schedule the window must
/// equal the snapshot fold for every view, whether it slid or fell back to a
/// full fold, and the fallbacks must be the ones the schedule forces.
#[test]
fn sliding_profile_window_equals_the_snapshot_fold_after_every_step() {
    // Events recorded into each of four rings before each tick, and the full
    // folds taken by the end of it on 64-slot rings, whose stash holds at
    // most 16 events and only follows an advance of at most 16. Ring 0 is
    // the fast one; ring 2 barely moves.
    const SCHEDULE: [([u64; 4], u64); 18] = [
        ([5, 3, 0, 1], 1),   // cold start, no ring full
        ([0, 0, 0, 0], 1),   // zero advance
        ([10, 4, 0, 2], 1),  // still filling
        ([16, 8, 1, 2], 1),  //
        ([16, 8, 1, 2], 1),  // ring 0 within two ticks of full: first stash
        ([16, 8, 1, 2], 1),  //
        ([12, 8, 1, 2], 1),  // ring 0 wraps; 11 events retracted from the stash
        ([16, 8, 1, 2], 1),  // evicts exactly what the stash holds
        ([17, 8, 1, 2], 2),  // evicts one more than it holds: full fold, no stash
        ([8, 8, 1, 2], 3),   // so the next eviction folds again and learns the pace
        ([8, 8, 0, 2], 3),   // ring 1 wraps
        ([200, 8, 1, 2], 4), // several wraps in one tick
        ([8, 8, 1, 2], 5),   //
        ([8, 8, 1, 2], 5),   // view 4 first appears here
        ([0, 0, 0, 0], 5),   // zero advance on full rings
        ([8, 8, 1, 70], 6),  // ring 3 advances by more than its capacity
        ([8, 8, 1, 2], 7),   //
        ([8, 8, 1, 2], 7),   //
    ];
    for capacity in [8usize, 16, 64] {
        let rec = FlightRecorder::new(4, capacity);
        let mut window = ProfileWindow::new();
        let mut rng = votm_utils::XorShift64::new(capacity as u64);
        let mut i = 0u64;
        for (step, (counts, refolds)) in SCHEDULE.iter().enumerate() {
            let views = if step < 13 { 4 } else { 5 };
            for (ring, &n) in counts.iter().enumerate() {
                for _ in 0..n {
                    rec.record(ring, i, random_event(&mut rng, views, i));
                    i += 1;
                }
            }
            window.advance(&rec);
            let traces = rec.snapshot();
            for view in 0..6u16 {
                assert_eq!(
                    *window.profile(view),
                    ConflictProfile::from_traces_for_view(&traces, view),
                    "capacity {capacity}, step {step}, view {view}"
                );
            }
            if capacity == 64 {
                assert_eq!(window.refolds(), *refolds, "step {step}");
            }
        }
        // Smaller rings outrun their stash more often, never less.
        assert!(window.refolds() >= 7, "capacity {capacity}");
        assert!(window.slots_read() > 0);
    }
}
