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
//! worker threads first. A concurrent snapshot is still memory-safe: the
//! head is the ring's seqlock word, re-read after the slots, and an event
//! it has lapped by then is skipped instead of reported torn.

use std::ops::Range;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use votm_utils::CachePadded;

use crate::event::{Event, EventKind};

/// Default per-thread ring capacity (events), a power of two.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Events a visit copies out of the ring per head check.
const VISIT_CHUNK: usize = 32;

/// One event: its timestamp and its three encoded words. The slot carries
/// no sequence number; which event it holds follows from the ring's head.
struct Slot {
    ts: AtomicU64,
    words: [AtomicU64; 3],
}

impl Slot {
    fn empty() -> Self {
        Slot {
            ts: AtomicU64::new(0),
            words: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

struct EventRing {
    /// The ring's seqlock word: twice the events ever recorded into it
    /// (monotone; never wraps in practice), plus one while the writer is
    /// storing the next. `recorded() - capacity` events have been
    /// overwritten.
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
        // The writer's own word, so it is even here.
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[((head >> 1) & self.mask) as usize];
        let [meta, a, b] = kind.encode();
        self.head.store(head + 1, Ordering::Relaxed);
        // Orders the odd head before the slot stores that overwrite the
        // event a lap older: a reader that copied any of them sees it (the
        // acquire fence in `visit_range`).
        fence(Ordering::Release);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.words[0].store(meta, Ordering::Relaxed);
        slot.words[1].store(a, Ordering::Relaxed);
        slot.words[2].store(b, Ordering::Relaxed);
        self.head.store(head + 2, Ordering::Release);
    }

    /// Events whose slots are fully stored.
    fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire) >> 1
    }

    /// Events whose slots the writer has started to store: `recorded()`,
    /// or one more while a store is in flight.
    fn begun(&self) -> u64 {
        (self.head.load(Ordering::Relaxed) + 1) >> 1
    }

    /// Calls `f` on the events numbered `seqs`, in sequence order. Slots
    /// are copied out a chunk at a time and the head is re-read after the
    /// copy, seqlock-style: an event is delivered only if the writer has
    /// not begun the event a lap later that overwrites it, checked again
    /// before each call so that `f` itself recording into the ring is
    /// caught too. Returns whether every event was delivered; one the head
    /// has passed (overwritten since, or racing a concurrent writer) or not
    /// reached yet is skipped instead of reported torn.
    fn visit_range(&self, seqs: Range<u64>, mut f: impl FnMut(&Event)) -> bool {
        let cap = self.slots.len() as u64;
        let mut whole = true;
        let mut chunk = [(0u64, [0u64; 3]); VISIT_CHUNK];
        let mut from = seqs.start;
        while from < seqs.end {
            let to = seqs.end.min(from + VISIT_CHUNK as u64);
            let recorded = self.recorded();
            for (seq, copy) in (from..to).zip(&mut chunk) {
                let slot = &self.slots[(seq & self.mask) as usize];
                *copy = (
                    slot.ts.load(Ordering::Relaxed),
                    slot.words.each_ref().map(|w| w.load(Ordering::Relaxed)),
                );
            }
            // Pairs with the release fence in `record`: if a copy above
            // read a later lap's store, `begun` below counts that lap.
            fence(Ordering::Acquire);
            for (seq, &(ts, words)) in (from..to).zip(&chunk) {
                if seq < recorded && self.begun() <= seq + cap {
                    f(&Event {
                        seq,
                        ts,
                        kind: EventKind::decode(words),
                    });
                } else {
                    whole = false;
                }
            }
            from = to;
        }
        whole
    }

    fn snapshot(&self, thread: usize) -> ThreadTrace {
        let head = self.recorded();
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

    /// A live handle bound to thread `tid`'s ring, folded like
    /// [`FlightRecorder::record`]'s index.
    pub fn handle(self: &Arc<Self>, tid: usize) -> RecorderHandle {
        RecorderHandle {
            rec: Some(Arc::clone(self)),
            ring: tid % self.rings.len(),
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
        self.rings[ring].recorded()
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
    /// Index of the bound ring, already reduced to the ring count.
    ring: usize,
}

impl RecorderHandle {
    /// The no-op handle: recording through it compiles down to a single
    /// branch on an always-`None` option.
    #[inline]
    pub fn dead() -> Self {
        RecorderHandle { rec: None, ring: 0 }
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
            rec.rings[self.ring].record(ts, kind);
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
    fn a_slot_is_four_words() {
        assert_eq!(std::mem::size_of::<Slot>(), 32);
    }

    #[test]
    fn an_event_overwritten_during_a_visit_is_never_delivered() {
        // Wider than one visit chunk, so the overwrite is caught both in
        // the chunk already copied and in the chunks after it.
        let rec = FlightRecorder::new(1, 100);
        let cap = rec.capacity() as u64;
        assert!(cap > VISIT_CHUNK as u64);
        for i in 0..cap {
            rec.record(0, i, EventKind::TxCommit { view: 0, cycles: i });
        }
        let mut seen = Vec::new();
        let whole = rec.visit_range(0, 0..cap, |ev| {
            if seen.is_empty() {
                for i in 0..cap {
                    rec.record(0, cap + i, EventKind::TxBegin { view: 1 });
                }
            }
            seen.push((ev.seq, ev.ts, ev.kind));
        });
        assert!(!whole);
        assert_eq!(seen, [(0, 0, EventKind::TxCommit { view: 0, cycles: 0 })]);
        assert_eq!(rec.head(0), 2 * cap);
    }

    #[test]
    fn a_concurrent_visit_delivers_only_intact_events() {
        // Each event carries its own sequence number in every word, so a
        // slot copied while its next lap was being stored shows up as a
        // mismatch. How often a visit races the writer varies from run to
        // run; any torn event delivered fails the test.
        let rec = Arc::new(FlightRecorder::new(1, 64));
        let cap = rec.capacity() as u64;
        let writer = {
            let h = rec.handle(0);
            std::thread::spawn(move || {
                for seq in 0..200_000u64 {
                    h.record(
                        seq,
                        EventKind::TxCommit {
                            view: 0,
                            cycles: seq,
                        },
                    );
                }
            })
        };
        while !writer.is_finished() {
            let head = rec.head(0);
            rec.visit_range(0, head.saturating_sub(cap)..head, |ev| {
                assert_eq!(ev.ts, ev.seq);
                assert_eq!(
                    ev.kind,
                    EventKind::TxCommit {
                        view: 0,
                        cycles: ev.seq
                    }
                );
            });
        }
        writer.join().unwrap();
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
