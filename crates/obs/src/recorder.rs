//! Per-thread lock-free flight recorder.
//!
//! One [`FlightRecorder`] owns a fixed-capacity event ring per logical
//! thread. Recording is a handful of relaxed atomic stores into the
//! caller's own ring — no CAS, no locking, no allocation — so it is cheap
//! enough to leave on in benchmarked runs. When the ring wraps, the oldest
//! events are overwritten; the monotone head counter keeps the drop count
//! exact.
//!
//! Each ring has a single logical writer (the thread it belongs to). Reads
//! ([`FlightRecorder::snapshot`]) are intended for after the run — under
//! the simulator that is trivially race-free, in real mode the caller joins
//! worker threads first. A concurrent snapshot is still memory-safe; a slot
//! whose sequence word disagrees with its position is simply skipped.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use votm_utils::CachePadded;

use crate::event::{Event, EventKind};

/// Default per-thread ring capacity (events), a power of two.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

struct Slot {
    /// Sequence number of the event stored here, offset by one so a
    /// zero-initialized slot can never masquerade as event 0.
    seq: AtomicU64,
    ts: AtomicU64,
    words: [AtomicU64; 3],
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            words: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

struct EventRing {
    /// Events ever recorded into this ring (monotone; never wraps in
    /// practice). `head - capacity` of them have been overwritten.
    head: CachePadded<AtomicU64>,
    slots: Box<[Slot]>,
    mask: u64,
}

impl EventRing {
    fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(8);
        EventRing {
            head: CachePadded::new(AtomicU64::new(0)),
            slots: (0..cap).map(|_| Slot::empty()).collect(),
            mask: cap as u64 - 1,
        }
    }

    #[inline]
    fn record(&self, ts: u64, kind: EventKind) {
        let seq = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        let [meta, a, b] = kind.encode();
        slot.ts.store(ts, Ordering::Relaxed);
        slot.words[0].store(meta, Ordering::Relaxed);
        slot.words[1].store(a, Ordering::Relaxed);
        slot.words[2].store(b, Ordering::Relaxed);
        slot.seq.store(seq + 1, Ordering::Relaxed);
        self.head.store(seq + 1, Ordering::Relaxed);
    }

    /// Calls `f` on the events numbered `seqs`, in sequence order, decoding
    /// each slot in place. Returns whether every slot still carried its
    /// sequence stamp; one that does not (overwritten since, or racing a
    /// concurrent writer) is skipped instead of reported torn.
    fn visit_range(&self, seqs: Range<u64>, mut f: impl FnMut(&Event)) -> bool {
        let mut whole = true;
        for seq in seqs {
            let slot = &self.slots[(seq & self.mask) as usize];
            if slot.seq.load(Ordering::Relaxed) != seq + 1 {
                whole = false;
                continue;
            }
            f(&Event {
                seq,
                ts: slot.ts.load(Ordering::Relaxed),
                kind: EventKind::decode([
                    slot.words[0].load(Ordering::Relaxed),
                    slot.words[1].load(Ordering::Relaxed),
                    slot.words[2].load(Ordering::Relaxed),
                ]),
            });
        }
        whole
    }

    fn snapshot(&self, thread: usize) -> ThreadTrace {
        let head = self.head.load(Ordering::Relaxed);
        let start = head.saturating_sub(self.slots.len() as u64);
        let mut events = Vec::with_capacity((head - start) as usize);
        self.visit_range(start..head, |ev| events.push(*ev));
        ThreadTrace {
            thread,
            recorded: head,
            dropped: start,
            events,
        }
    }
}

/// Everything one thread's ring held at snapshot time.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Logical thread index the ring belongs to.
    pub thread: usize,
    /// Events ever recorded by this thread (monotone counter).
    pub recorded: u64,
    /// Oldest events overwritten by ring wrap-around (`recorded -
    /// events.len()` when no snapshot race skipped a slot).
    pub dropped: u64,
    /// Surviving events in sequence order.
    pub events: Vec<Event>,
}

/// A set of per-thread event rings covering one run.
pub struct FlightRecorder {
    rings: Vec<EventRing>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("threads", &self.rings.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with one `capacity`-event ring (rounded up to a power of
    /// two, minimum 8) per logical thread.
    pub fn new(n_threads: usize, capacity: usize) -> Self {
        FlightRecorder {
            rings: (0..n_threads.max(1))
                .map(|_| EventRing::new(capacity))
                .collect(),
        }
    }

    /// A recorder with the [`DEFAULT_RING_CAPACITY`] per thread.
    pub fn with_default_capacity(n_threads: usize) -> Self {
        Self::new(n_threads, DEFAULT_RING_CAPACITY)
    }

    /// Number of per-thread rings.
    pub fn n_threads(&self) -> usize {
        self.rings.len()
    }

    /// Records `kind` at timestamp `ts` into thread `tid`'s ring. Indices
    /// past the ring count fold with a modulo, mirroring the stats stripes.
    #[inline]
    pub fn record(&self, tid: usize, ts: u64, kind: EventKind) {
        self.rings[tid % self.rings.len()].record(ts, kind);
    }

    /// A live handle bound to thread `tid`'s ring.
    pub fn handle(self: &Arc<Self>, tid: usize) -> RecorderHandle {
        RecorderHandle {
            rec: Some(Arc::clone(self)),
            tid,
        }
    }

    /// Events each ring holds (the requested capacity rounded up to a
    /// power of two, minimum 8).
    pub fn capacity(&self) -> usize {
        self.rings[0].slots.len()
    }

    /// Events ever recorded into ring `ring`. The ring holds the last
    /// [`FlightRecorder::capacity`] of them.
    pub fn head(&self, ring: usize) -> u64 {
        self.rings[ring].head.load(Ordering::Relaxed)
    }

    /// Calls `f` on the events of ring `ring` numbered `seqs`, in sequence
    /// order, decoded in place instead of copied out, and returns whether
    /// the ring still held every one of them intact. This is what a consumer
    /// on a live path (the repartition controller's
    /// [`crate::ProfileWindow`]) reads from; a full ring set is megabytes,
    /// and a snapshot of it is fresh pages every time.
    pub fn visit_range(&self, ring: usize, seqs: Range<u64>, f: impl FnMut(&Event)) -> bool {
        self.rings[ring].visit_range(seqs, f)
    }

    /// Snapshot of every ring, in thread order. Deterministic given a
    /// deterministic schedule (the simulator's case).
    pub fn snapshot(&self) -> Vec<ThreadTrace> {
        self.rings
            .iter()
            .enumerate()
            .map(|(tid, ring)| ring.snapshot(tid))
            .collect()
    }
}

/// A thread's handle into the flight recorder — either live (bound to one
/// ring) or dead (every record call is a no-op branch on `None`).
#[derive(Debug, Clone)]
pub struct RecorderHandle {
    rec: Option<Arc<FlightRecorder>>,
    tid: usize,
}

impl RecorderHandle {
    /// The no-op handle: recording through it compiles down to a single
    /// branch on an always-`None` option.
    #[inline]
    pub fn dead() -> Self {
        RecorderHandle { rec: None, tid: 0 }
    }

    /// Whether this handle actually records anywhere.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.rec.is_some()
    }

    /// Records `kind` at `ts` into the bound ring; no-op for dead handles.
    #[inline]
    pub fn record(&self, ts: u64, kind: EventKind) {
        if let Some(rec) = &self.rec {
            rec.record(self.tid, ts, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reason::AbortReason;

    #[test]
    fn events_come_back_in_order_with_timestamps() {
        let rec = Arc::new(FlightRecorder::new(2, 8));
        let h0 = rec.handle(0);
        let h1 = rec.handle(1);
        h0.record(10, EventKind::TxBegin { view: 1 });
        h1.record(11, EventKind::GateWaitEnter { view: 2 });
        h0.record(
            20,
            EventKind::TxAbort {
                view: 1,
                reason: AbortReason::OrecConflict,
                cycles: 10,
            },
        );
        let snap = rec.snapshot();
        assert_eq!(snap[0].events.len(), 2);
        assert_eq!(snap[0].dropped, 0);
        assert_eq!(snap[0].events[0].ts, 10);
        assert_eq!(snap[0].events[1].seq, 1);
        assert_eq!(snap[1].events.len(), 1);
        assert_eq!(snap[1].events[0].kind, EventKind::GateWaitEnter { view: 2 });
    }

    #[test]
    fn dead_handle_is_a_no_op() {
        let h = RecorderHandle::dead();
        assert!(!h.is_live());
        h.record(1, EventKind::TxBegin { view: 0 });
    }

    #[test]
    fn wrap_around_drops_oldest() {
        let rec = Arc::new(FlightRecorder::new(1, 8));
        let h = rec.handle(0);
        for i in 0..20u64 {
            h.record(i, EventKind::TxCommit { view: 0, cycles: i });
        }
        let t = &rec.snapshot()[0];
        assert_eq!(t.recorded, 20);
        assert_eq!(t.dropped, 12);
        assert_eq!(t.events.len(), 8);
        assert_eq!(t.events[0].seq, 12);
        assert_eq!(t.events[0].ts, 12);
        assert_eq!(t.events[7].seq, 19);
    }
}
