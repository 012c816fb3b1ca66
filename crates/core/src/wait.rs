//! Read-set-keyed wakeups for blocking transactions.
//!
//! [`WaitTable`] is the per-view registry of parked transactions. A body
//! that calls [`crate::TxHandle::retry`] has declared "nothing I read lets
//! me proceed"; re-running it before any of those words change is pure
//! waste (the `busy_retries` pathology). Instead the driver parks the task
//! on a [`WaitRecord`] keyed by the attempt's read-set Bloom summary (the
//! same 64-bucket hash the NOrec write-set filter uses, see
//! [`votm_stm::bloom_bucket`]), and every committing writer *publishes* its
//! write-set summary here: waiters whose keys intersect are woken, the rest
//! keep sleeping.
//!
//! # The lost-wakeup window
//!
//! The classic hazard: a writer commits *between* the reader's failed
//! attempt and the moment its wait record becomes visible — the wakeup the
//! reader needed has already happened, and it sleeps forever. The table
//! closes the window with a commit epoch:
//!
//! * every publication bumps `epoch` and stamps it into `bucket_epochs[b]`
//!   for each written bucket — **even when nobody is parked**;
//! * the driver snapshots `epoch` *before* the attempt's first read;
//! * parking re-checks, under the same mutex that publication holds, that
//!   no bucket in the key was stamped after that snapshot. If one was, the
//!   park is refused ([`ParkOutcome::SkippedStale`]) and the attempt
//!   re-runs — the "wakeup" is delivered by never sleeping.
//!
//! So any invalidating commit either (a) precedes the park's stale check
//! and is caught by the epoch stamp, or (b) follows it, finds the record
//! already in `records` under the mutex, and wakes it. There is no third
//! interleaving.
//!
//! # Timeouts
//!
//! Under the simulator a parked task also schedules itself a deadline
//! [`PARK_TIMEOUT`] cycles out. A park that expires resolves to
//! [`ParkOutcome::TimedOut`]; the driver records a `LostWakeup` event and
//! falls back to an ordinary re-run, so a genuinely lost wakeup (a bug, or
//! a workload where no writer ever comes) degrades to slow polling plus an
//! audit trail instead of a hang. Under real threads parks are purely
//! wake-driven.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::task::{Context, Poll, Waker};

use votm_sim::Rt;
use votm_utils::Mutex;

/// Cycles a parked transaction sleeps before giving up on its wakeup and
/// re-running anyway (simulator mode). Large relative to transaction
/// lengths (~10²–10³ cycles) so real wakeups always win, small enough that
/// a lost wakeup surfaces within one run.
pub(crate) const PARK_TIMEOUT: u64 = 1 << 20;

/// One parked transaction.
struct WaitRecord {
    /// Identity of the park (unique per table), so a future can find its
    /// own record again.
    key: u64,
    /// Read-set Bloom summary: wake when a commit's write summary
    /// intersects it.
    summary: u64,
    waker: Waker,
}

struct WaitInner {
    /// Monotonic publication counter.
    epoch: u64,
    /// `bucket_epochs[b]`: the epoch of the most recent published commit
    /// whose write summary had bit `b` set.
    bucket_epochs: [u64; 64],
    records: Vec<WaitRecord>,
    next_key: u64,
    /// Empty between publications: the buffer a publication collects its
    /// wakers in, kept so that park/wake churn does not allocate (the
    /// arrangement of `votm_sim::Notify`).
    spare: Vec<Waker>,
}

/// Per-view wakeup table mapping write-set Bloom buckets to parked waiters.
pub(crate) struct WaitTable {
    /// Lock-free mirror of `WaitInner::epoch` for the driver's pre-begin
    /// snapshot (taken on every attempt, so it must not contend).
    epoch: AtomicU64,
    inner: Mutex<WaitInner>,
}

impl WaitTable {
    pub(crate) fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            inner: Mutex::new(WaitInner {
                epoch: 0,
                bucket_epochs: [0; 64],
                records: Vec::new(),
                next_key: 0,
                spare: Vec::new(),
            }),
        }
    }

    /// The current publication epoch. Snapshot this *before* a transaction
    /// attempt reads anything; pass the snapshot to [`WaitTable::park`].
    #[inline]
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Commit-side half: record that a transaction just committed writes
    /// with this Bloom `summary`, and wake every parked waiter whose key
    /// intersects it. Always bumps the epoch stamps (even with no waiters)
    /// — that is what closes the lost-wakeup window for parks in flight.
    /// Returns the number of waiters woken.
    pub(crate) fn publish(&self, summary: u64) -> usize {
        if summary == 0 {
            return 0;
        }
        let mut woken = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            inner.epoch += 1;
            let epoch = inner.epoch;
            self.epoch.store(epoch, Ordering::Release);
            let mut bits = summary;
            while bits != 0 {
                inner.bucket_epochs[bits.trailing_zeros() as usize] = epoch;
                bits &= bits - 1;
            }
            let mut i = 0;
            while i < inner.records.len() {
                if inner.records[i].summary & summary != 0 {
                    inner.spare.push(inner.records.swap_remove(i).waker);
                } else {
                    i += 1;
                }
            }
            if inner.spare.is_empty() {
                return 0;
            }
            std::mem::take(&mut inner.spare)
        };
        // Wake outside the lock: a woken task may immediately try to park
        // again from another thread.
        let n = woken.len();
        for waker in woken.drain(..) {
            waker.wake();
        }
        let mut inner = self.inner.lock();
        if inner.spare.capacity() < woken.capacity() {
            inner.spare = woken;
        }
        n
    }

    /// Parks the current task until a commit intersecting `summary` is
    /// published, the deadline passes, or the stale check fails.
    /// `begin_epoch` must be the [`WaitTable::epoch`] snapshot taken before
    /// the parking attempt began reading.
    pub(crate) fn park<'a>(
        &'a self,
        rt: &'a Rt,
        summary: u64,
        begin_epoch: u64,
        timeout: u64,
    ) -> ParkFut<'a> {
        ParkFut {
            table: self,
            rt,
            summary,
            begin_epoch,
            timeout,
            state: ParkState::Init,
        }
    }

    /// Number of currently-parked transactions (test/diagnostic hook).
    #[cfg(test)]
    pub(crate) fn parked_count(&self) -> usize {
        self.inner.lock().records.len()
    }
}

/// How a park ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParkOutcome {
    /// A committing writer's summary intersected ours.
    Woken,
    /// The deadline passed without an intersecting commit.
    TimedOut,
    /// Never slept: a commit intersecting the key landed after the
    /// attempt's begin snapshot, so the wakeup already happened.
    SkippedStale,
}

enum ParkState {
    Init,
    Parked { key: u64, deadline: u64 },
}

/// Future returned by [`WaitTable::park`].
pub(crate) struct ParkFut<'a> {
    table: &'a WaitTable,
    rt: &'a Rt,
    summary: u64,
    begin_epoch: u64,
    timeout: u64,
    state: ParkState,
}

impl ParkFut<'_> {
    /// Enqueues a simulator re-activation of this task `cost` cycles out.
    /// Polling a fresh `charge` once registers the timer with the
    /// executor's queue; the `Step` value itself need not be kept alive —
    /// the queue entry survives it, and an earlier table wakeup supersedes
    /// it: the entry stays queued, dead, until the timer wheel reaches its
    /// deadline and drops it for one compare.
    fn arm_deadline(&self, cx: &mut Context<'_>, cost: u64) {
        if self.rt.is_virtual() {
            let mut step = self.rt.charge(cost);
            let _ = Pin::new(&mut step).poll(cx);
        }
    }
}

impl Future for ParkFut<'_> {
    type Output = ParkOutcome;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<ParkOutcome> {
        let this = self.get_mut();
        match this.state {
            ParkState::Init => {
                {
                    let mut inner = this.table.inner.lock();
                    // Stale check under the publication mutex (see module
                    // docs): any key bucket stamped after our begin
                    // snapshot means the wakeup already happened.
                    let mut bits = this.summary;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        if inner.bucket_epochs[b] > this.begin_epoch {
                            return Poll::Ready(ParkOutcome::SkippedStale);
                        }
                        bits &= bits - 1;
                    }
                    let key = inner.next_key;
                    inner.next_key += 1;
                    inner.records.push(WaitRecord {
                        key,
                        summary: this.summary,
                        waker: cx.waker().clone(),
                    });
                    this.state = ParkState::Parked {
                        key,
                        deadline: this.rt.now().saturating_add(this.timeout),
                    };
                }
                this.arm_deadline(cx, this.timeout);
                Poll::Pending
            }
            ParkState::Parked { key, deadline } => {
                let mut inner = this.table.inner.lock();
                match inner.records.iter().position(|r| r.key == key) {
                    // Publication removed our record: we were woken.
                    None => Poll::Ready(ParkOutcome::Woken),
                    Some(i) => {
                        if this.rt.is_virtual() && this.rt.now() >= deadline {
                            inner.records.swap_remove(i);
                            Poll::Ready(ParkOutcome::TimedOut)
                        } else {
                            // Spurious poll: refresh the waker and (in sim
                            // mode, defensively) re-arm the deadline.
                            inner.records[i].waker = cx.waker().clone();
                            drop(inner);
                            this.arm_deadline(cx, deadline.saturating_sub(this.rt.now()));
                            Poll::Pending
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_stamps_buckets_and_bumps_epoch() {
        let t = WaitTable::new();
        assert_eq!(t.epoch(), 0);
        assert_eq!(t.publish(0), 0, "empty summary publishes nothing");
        assert_eq!(t.epoch(), 0);
        t.publish(0b101);
        assert_eq!(t.epoch(), 1);
        let inner = t.inner.lock();
        assert_eq!(inner.bucket_epochs[0], 1);
        assert_eq!(inner.bucket_epochs[1], 0);
        assert_eq!(inner.bucket_epochs[2], 1);
    }

    #[test]
    fn stale_park_is_refused() {
        use std::task::{RawWaker, RawWakerVTable};
        fn noop_waker() -> Waker {
            const VTABLE: RawWakerVTable = RawWakerVTable::new(
                |_| RawWaker::new(std::ptr::null(), &VTABLE),
                |_| {},
                |_| {},
                |_| {},
            );
            unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &VTABLE)) }
        }
        let t = WaitTable::new();
        let snapshot = t.epoch();
        t.publish(0b10); // a commit lands after the snapshot
        let rt = Rt::Real(votm_sim::RealHandle::standalone(0));
        let mut fut = t.park(&rt, 0b10, snapshot, 1024);
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(ParkOutcome::SkippedStale) => {}
            other => panic!("expected SkippedStale, got {other:?}"),
        }
        assert_eq!(t.parked_count(), 0);
        // A disjoint key may still park.
        let mut fut = t.park(&rt, 0b100, snapshot, 1024);
        assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));
        assert_eq!(t.parked_count(), 1);
        // An intersecting publication drains it.
        assert_eq!(t.publish(0b100), 1);
        assert_eq!(t.parked_count(), 0);
        assert!(matches!(
            Pin::new(&mut fut).poll(&mut cx),
            Poll::Ready(ParkOutcome::Woken)
        ));
    }
}
