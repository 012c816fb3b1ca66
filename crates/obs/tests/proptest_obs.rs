//! Randomized property tests of the observability primitives, driven by a
//! fixed-seed PRNG (the repo's offline stand-in for a property-testing
//! crate; every case derives from the printed seed, so failures replay).

use std::sync::Arc;

use votm_obs::hist::{bucket_index, bucket_lower, bucket_upper};
use votm_obs::{
    AbortReason, ConflictProfile, ConflictSiteKind, EventKind, FlightRecorder, HistogramSnapshot,
    LatencyHistogram, ProfileWindow, ADDR_BUCKET_NONE, HIST_BUCKETS,
};
use votm_utils::XorShift64;

/// Random sample skewed across magnitudes so every bucket range gets
/// exercised, not just the low ones.
fn random_sample(rng: &mut XorShift64) -> u64 {
    let bits = rng.next_below(65) as u32;
    if bits == 0 {
        0
    } else {
        rng.next_u64() >> (64 - bits)
    }
}

#[test]
fn histogram_count_equals_samples_and_buckets_bracket_them() {
    let mut rng = XorShift64::new(0x0b5_0001);
    for case in 0..200 {
        let h = LatencyHistogram::new();
        let n = rng.next_below(300);
        let mut samples = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let v = random_sample(&mut rng);
            samples.push(v);
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), n, "case {case}: count mismatch");
        // Each sample landed in exactly the bucket bracketing its value.
        let mut expected = [0u64; HIST_BUCKETS];
        for &v in &samples {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "case {case}");
            expected[i] += 1;
        }
        assert_eq!(s.buckets, expected, "case {case}");
    }
}

#[test]
fn merge_is_commutative_and_counts_add() {
    let mut rng = XorShift64::new(0x0b5_0002);
    for case in 0..200 {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for _ in 0..rng.next_below(100) {
            a.record(random_sample(&mut rng));
        }
        for _ in 0..rng.next_below(100) {
            b.record(random_sample(&mut rng));
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa;
        ab.merge(&sb);
        let mut ba = sb;
        ba.merge(&sa);
        assert_eq!(ab, ba, "case {case}: merge must be commutative");
        assert_eq!(ab.count(), sa.count() + sb.count(), "case {case}");
        let mut zero = HistogramSnapshot::default();
        zero.merge(&sa);
        assert_eq!(zero, sa, "case {case}: empty is a merge identity");
    }
}

#[test]
fn quantiles_are_monotone_and_bracket_the_extremes() {
    let mut rng = XorShift64::new(0x0b5_0003);
    for case in 0..200 {
        let h = LatencyHistogram::new();
        let n = 1 + rng.next_below(200);
        let mut min = u64::MAX;
        let mut max = 0u64;
        for _ in 0..n {
            let v = random_sample(&mut rng);
            min = min.min(v);
            max = max.max(v);
            h.record(v);
        }
        let s = h.snapshot();
        // Monotone in q.
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        for w in qs.windows(2) {
            assert!(
                s.quantile(w[0]) <= s.quantile(w[1]),
                "case {case}: quantile must be monotone in q"
            );
        }
        // q=0 returns the min's bucket bound (>= min); q=1 bounds the max
        // from above and stays inside the max's bucket.
        assert!(s.quantile(0.0) >= min, "case {case}");
        assert!(s.quantile(1.0) >= max, "case {case}");
        assert_eq!(
            bucket_index(s.quantile(1.0)),
            bucket_index(max),
            "case {case}: q=1 must land in the max sample's bucket"
        );
    }
}

#[test]
fn ring_wraparound_keeps_the_newest_suffix_intact() {
    let mut rng = XorShift64::new(0x0b5_0004);
    for case in 0..100 {
        let cap = 8usize << rng.next_below(3); // 8, 16 or 32 slots
        let rec = Arc::new(FlightRecorder::new(1, cap));
        let h = rec.handle(0);
        let n = rng.next_below(4 * cap as u64);
        for i in 0..n {
            h.record(
                i,
                EventKind::TxCommit {
                    view: (i % 3) as u16,
                    cycles: i * 7,
                },
            );
        }
        let t = &rec.snapshot()[0];
        assert_eq!(t.recorded, n, "case {case}: monotone total");
        assert_eq!(t.dropped, n.saturating_sub(cap as u64), "case {case}");
        assert_eq!(
            t.events.len() as u64,
            n - t.dropped,
            "case {case}: survivors are exactly the newest suffix"
        );
        // The suffix is contiguous, in order, and untorn: each surviving
        // event is bit-exact what was recorded under that sequence number.
        for (k, e) in t.events.iter().enumerate() {
            let seq = t.dropped + k as u64;
            assert_eq!(e.seq, seq, "case {case}");
            assert_eq!(e.ts, seq, "case {case}");
            assert_eq!(
                e.kind,
                EventKind::TxCommit {
                    view: (seq % 3) as u16,
                    cycles: seq * 7,
                },
                "case {case}: torn or misplaced event"
            );
        }
    }
}

#[test]
fn recorded_counts_are_monotone_across_interleaved_snapshots() {
    let rec = Arc::new(FlightRecorder::new(2, 8));
    let h = rec.handle(1);
    let mut prev_recorded = 0;
    let mut prev_dropped = 0;
    for i in 0..50u64 {
        h.record(
            i,
            EventKind::TxAbort {
                view: 0,
                reason: AbortReason::OrecConflict,
                cycles: i,
            },
        );
        let t = &rec.snapshot()[1];
        assert!(t.recorded > prev_recorded, "recorded must be monotone");
        assert!(t.dropped >= prev_dropped, "dropped must be monotone");
        prev_recorded = t.recorded;
        prev_dropped = t.dropped;
    }
}

/// A random event of one of `views` views, of every kind a profile folds
/// and one it ignores.
fn random_event(rng: &mut XorShift64, views: u64) -> EventKind {
    let view = rng.next_below(views) as u16;
    let cycles = random_sample(rng) >> 16;
    match rng.next_below(4) {
        0 => EventKind::TxCommit { view, cycles },
        1 => EventKind::TxAbort {
            view,
            reason: AbortReason::ALL[rng.next_index(AbortReason::COUNT)],
            cycles,
        },
        2 => EventKind::ConflictDetected {
            view,
            addr_bucket: match rng.next_below(6) {
                0 => ADDR_BUCKET_NONE,
                _ => rng.next_below(64) as u8,
            },
            kind: AbortReason::ALL[rng.next_index(AbortReason::COUNT)],
            site: [
                ConflictSiteKind::None,
                ConflictSiteKind::Addr,
                ConflictSiteKind::Orec,
                ConflictSiteKind::Bloom,
            ][rng.next_index(4)],
            cycles,
            raw: rng.next_u64(),
        },
        _ => EventKind::Footprint {
            view,
            committed: rng.next_below(2) == 0,
            reads: rng.next_u64() & rng.next_u64() & rng.next_u64(),
            writes: rng.next_u64() & rng.next_u64() & rng.next_u64(),
        },
    }
}

/// The sliding window's invariant, over random ring shapes and recording
/// bursts: after every advance, whatever mix of slides and full folds got it
/// there, each view's profile is the snapshot fold of what the rings hold.
#[test]
fn sliding_profile_window_always_equals_the_snapshot_fold() {
    let mut rng = XorShift64::new(0x0b5_0005);
    let mut slid = 0;
    for case in 0..60 {
        let cap = 8usize << rng.next_below(5); // 8 .. 128 slots
        let rings = 1 + rng.next_index(4);
        let rec = FlightRecorder::new(rings, cap);
        let mut window = ProfileWindow::new();
        // Each ring has its own pace; a burst now and then laps a ring.
        let pace: Vec<u64> = (0..rings)
            .map(|_| rng.next_below(cap as u64 / 3 + 2))
            .collect();
        let mut views = 1 + rng.next_below(3);
        let ticks = 10 + rng.next_below(40);
        for tick in 0..ticks {
            if rng.next_below(8) == 0 {
                views += 1; // a view id first seen mid-stream
            }
            for (ring, &p) in pace.iter().enumerate() {
                let n = match rng.next_below(12) {
                    0 => 0,
                    1 => rng.next_below(3 * cap as u64),
                    _ => rng.next_below(p + 1),
                };
                for _ in 0..n {
                    rec.record(ring, tick, random_event(&mut rng, views));
                }
            }
            let before = window.refolds();
            window.advance(&rec);
            slid += u64::from(window.refolds() == before);
            let traces = rec.snapshot();
            for view in 0..=views as u16 {
                assert_eq!(
                    *window.profile(view),
                    ConflictProfile::from_traces_for_view(&traces, view),
                    "case {case}, tick {tick}, view {view} ({rings} rings of {cap})"
                );
            }
        }
    }
    assert!(
        slid > 500,
        "only {slid} advances slid: the property is vacuous"
    );
}
