//! A park/wake storm must cost host time in proportion to its size.
//!
//! Every woken `retry()` park leaves its 2^20-cycle deadline entry in the
//! simulator's queue, dead. Here the whole run fits inside one deadline
//! horizon, so no dead entry ever expires: by the end there is one per
//! park. The scheduler may pay for such an entry once, when the wheel
//! finally reaches it — never per step while it waits. A side list of dead
//! entries scanned on every pop (the design this pins against) makes the
//! run quadratic: 16× the items took 245× the time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use votm::{QuotaMode, TmAlgorithm, Votm};
use votm_ds::BoundedBuffer;
use votm_sim::{RunStatus, SimConfig, SimExecutor};

const PRODUCERS: u64 = 2;
const CONSUMERS: u64 = 16;
/// Long enough for every consumer to find the buffer empty again and
/// re-park before the next push, so each item wakes all of them: sixteen
/// parks per item.
const THINK_CYCLES: u64 = 1_500;

/// Runs the pipeline and returns the host time of `SimExecutor::run`.
fn storm(items_per_producer: u64) -> Duration {
    let total = PRODUCERS * items_per_producer;
    let n = (PRODUCERS + CONSUMERS) as u32;
    let view = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(n)
        .build()
        .create_view(64, QuotaMode::Fixed(n));
    let buf = BoundedBuffer::create(&view, 4);
    let consumed = Arc::new(AtomicU64::new(0));
    let mut ex = SimExecutor::new(SimConfig::default());
    for p in 0..PRODUCERS {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            for i in 0..items_per_producer {
                rt.charge(THINK_CYCLES).await;
                let value = p * items_per_producer + i;
                view.transact(&rt, async |tx| buf.push(tx, value).await)
                    .await;
            }
        });
    }
    for _ in 0..CONSUMERS {
        let view = Arc::clone(&view);
        let consumed = Arc::clone(&consumed);
        ex.spawn(move |rt| async move {
            for _ in 0..total / CONSUMERS {
                let v = view.transact(&rt, async |tx| buf.pop(tx).await).await;
                consumed.fetch_add(v, Ordering::Relaxed);
            }
        });
    }
    let started = Instant::now();
    let out = ex.run();
    let host = started.elapsed();

    assert_eq!(out.status, RunStatus::Completed);
    assert!(out.vtime < 1 << 20, "run outgrew the deadline horizon");
    assert_eq!(consumed.load(Ordering::Relaxed), (0..total).sum::<u64>());
    let tm = view.stats().tm;
    assert_eq!(tm.commits, 2 * total);
    assert_eq!(tm.lost_wakeups, 0);
    // A park that slept was woken before its deadline, which left one dead
    // entry behind; each was dropped exactly once.
    assert!(
        out.sched.superseded >= total / 2,
        "not a storm: {:?}",
        out.sched
    );
    assert_eq!(out.sched.superseded, out.sched.stale_skips);
    host
}

#[test]
fn park_storm_host_time_grows_linearly_with_its_size() {
    // Best of three per size: the bound below leaves 4× for host noise on
    // top of the 16× the work grows by.
    let best = |items| (0..3).map(|_| storm(items)).min().expect("three runs");
    let (small, large) = (best(32), best(512));
    assert!(
        large < 64 * small,
        "16x the parks took {:.1}x the host time ({small:?} -> {large:?})",
        large.as_secs_f64() / small.as_secs_f64()
    );
}
