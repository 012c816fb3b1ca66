//! A `votm-ds` structure inside an [`votm::AdaptiveDomain`]: the domain
//! takes the same transaction bodies a view does, so a blocking
//! [`BoundedBuffer`] runs there unchanged — and keeps its consumers' wakeups
//! while a live split moves it to another view.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use votm::{Addr, FlightRecorder, QuotaMode, RepartitionPolicy, TmAlgorithm, Votm};
use votm_ds::BoundedBuffer;
use votm_sim::{RunStatus, SimConfig, SimExecutor};
use votm_stm::bloom_bucket;

/// 64 profile buckets of 64 words.
const WORDS: usize = 4096;
/// The contention workers' ticket word: far from the buffer, which the
/// domain's bump allocator places at word 0, and in another wakeup bucket
/// than the buffer's words, so no worker commit wakes a consumer.
const TICKET: Addr = Addr(2048);

/// Consumers park in `retry()` on an empty two-slot buffer while
/// contention workers hammer a ticket in the other half of the heap until
/// the controller splits the domain. The buffer's bucket is the lighter
/// side of the profile, so the split moves it to the new view while the
/// consumers sleep on it. Only then do producers start pushing, with think
/// time between items so the consumers keep parking. Nothing but a
/// producer's commit wakes a consumer, and that commit runs through the
/// new view: it reaches the consumers parked through the old one because
/// the domain's views share one wait table.
#[test]
fn blocking_buffer_survives_a_live_split_inside_a_domain() {
    const PRODUCERS: u64 = 2;
    const CONSUMERS: u64 = 2;
    const WORKERS: usize = 4;
    const ITEMS: u64 = 30;
    let threads = WORKERS + (PRODUCERS + CONSUMERS) as usize;

    let recorder = Arc::new(FlightRecorder::new(threads + 1, 8192));
    let sys = Votm::builder()
        .algo(TmAlgorithm::NOrec)
        .threads(threads as u32)
        .recorder(Arc::clone(&recorder))
        .build();
    let domain = sys.create_domain(
        WORDS,
        QuotaMode::Fixed(threads as u32),
        RepartitionPolicy {
            interval: 1 << 14,
            cooldown: 1 << 15,
            min_separability: 0.6,
            min_waste_share: 0.01,
            min_aborts: 4,
            merge_cross_threshold: 2,
            max_views: 4,
        },
    );
    // The domain's views share its heap: a buffer created over the first
    // is a buffer in the domain.
    let buf = BoundedBuffer::create(&domain.views()[0], 2);
    let home = domain.route().owner_of(buf.addr());
    // The buffer's four words: head, len and its two slots.
    assert!((0..4).all(|w| bloom_bucket(buf.addr().offset(w)) != bloom_bucket(TICKET)));
    let remaining = Arc::new(AtomicUsize::new(threads));
    let consumed = Arc::new(AtomicU64::new(0));

    let mut ex = SimExecutor::new(SimConfig {
        seed: 7,
        vtime_cap: Some(2_000_000_000),
        ..Default::default()
    });
    for _ in 0..WORKERS {
        let domain = Arc::clone(&domain);
        let remaining = Arc::clone(&remaining);
        ex.spawn(move |rt| async move {
            for _ in 0..40 {
                domain
                    .transact(&rt, TICKET, async |tx| {
                        let t = tx.read(TICKET).await?;
                        Ok(tx.write(TICKET, t + 1).await?)
                    })
                    .await;
            }
            remaining.fetch_sub(1, Ordering::AcqRel);
        });
    }
    for p in 0..PRODUCERS {
        let domain = Arc::clone(&domain);
        let remaining = Arc::clone(&remaining);
        ex.spawn(move |rt| async move {
            while domain.stats().splits == 0 {
                rt.charge(1024).await;
            }
            for i in 0..ITEMS {
                rt.charge(5_000).await;
                domain
                    .transact(&rt, buf.addr(), async |tx| buf.push(tx, p * 1000 + i).await)
                    .await;
            }
            remaining.fetch_sub(1, Ordering::AcqRel);
        });
    }
    for _ in 0..CONSUMERS {
        let domain = Arc::clone(&domain);
        let remaining = Arc::clone(&remaining);
        let consumed = Arc::clone(&consumed);
        ex.spawn(move |rt| async move {
            for _ in 0..PRODUCERS * ITEMS / CONSUMERS {
                let v = domain
                    .transact(&rt, buf.addr(), async |tx| buf.pop(tx).await)
                    .await;
                consumed.fetch_add(v, Ordering::Relaxed);
            }
            remaining.fetch_sub(1, Ordering::AcqRel);
        });
    }
    {
        let domain = Arc::clone(&domain);
        let remaining = Arc::clone(&remaining);
        ex.spawn(move |rt| async move {
            domain.run_controller(&rt, &remaining).await;
        });
    }
    assert_eq!(ex.run().status, RunStatus::Completed);

    let expect: u64 = (0..PRODUCERS)
        .flat_map(|p| (0..ITEMS).map(move |i| p * 1000 + i))
        .sum();
    assert_eq!(
        consumed.load(Ordering::Relaxed),
        expect,
        "items lost or duplicated"
    );
    let owner = domain.route().owner_of(buf.addr());
    assert_ne!(owner, home, "the split must move the buffer's bucket");
    let views = domain.views();
    for (slot, label) in [(home, "before"), (owner, "after")] {
        assert!(
            views[slot as usize].stats().tm.parked_waits > 0,
            "consumers must park on the buffer {label} it moves"
        );
    }
    let lost: u64 = views.iter().map(|v| v.stats().tm.lost_wakeups).sum();
    assert_eq!(lost, 0, "a waiter slept through the move");
}
