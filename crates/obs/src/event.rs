//! The flight-recorder event model and its fixed-width wire encoding.
//!
//! Events are compact `Copy` values. Inside the recorder each event is
//! stored as four relaxed `u64` words (`[ts, meta, a, b]`), a 32-byte slot,
//! so a record is a handful of plain stores — no allocation, no locking, no
//! formatting on the hot path.

use crate::reason::AbortReason;

/// One recorded lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Global sequence number within the recording thread's ring (counts
    /// every event ever recorded there, including dropped ones).
    pub seq: u64,
    /// Caller-supplied timestamp: virtual cycles under the simulator,
    /// `rdtsc` cycles in real mode.
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The event taxonomy: transaction lifecycle, gate waits, quota decisions,
/// escalations and injected faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A transaction attempt started on `view`.
    TxBegin {
        /// View the transaction runs against.
        view: u16,
    },
    /// The attempt committed after consuming `cycles`.
    TxCommit {
        /// View the transaction ran against.
        view: u16,
        /// Cycles charged to the committed attempt.
        cycles: u64,
    },
    /// The attempt aborted for `reason` after wasting `cycles`.
    TxAbort {
        /// View the transaction ran against.
        view: u16,
        /// Structured cause of the abort.
        reason: AbortReason,
        /// Cycles wasted by the aborted attempt.
        cycles: u64,
    },
    /// The thread started waiting at `view`'s admission gate.
    GateWaitEnter {
        /// View whose gate is being waited on.
        view: u16,
    },
    /// The thread was admitted after waiting `waited` cycles.
    GateWaitExit {
        /// View whose gate admitted the thread.
        view: u16,
        /// Cycles spent blocked at the gate.
        waited: u64,
    },
    /// The RAC controller changed `view`'s quota.
    QuotaChange {
        /// View whose quota changed.
        view: u16,
        /// Quota before the decision.
        old_q: u16,
        /// Quota after the decision.
        new_q: u16,
        /// The windowed δ(Q) sample that triggered the decision; `None`
        /// when the window had no δ (Q ≤ 1) or the move was a probe.
        delta: Option<f64>,
    },
    /// A starving transaction was escalated to exclusive admission.
    Escalation {
        /// View on which the escalation happened.
        view: u16,
    },
    /// A deterministic fault-injection event fired.
    Fault {
        /// View the faulted transaction ran against.
        view: u16,
        /// Fault kind code (0 = delay, 1 = abort, 2 = panic).
        code: u8,
        /// Injected delay in cycles (zero for abort/panic faults).
        cycles: u64,
    },
    /// The contention manager doomed `victim`'s running attempt so that
    /// `winner` (the recording thread) can make progress. The victim
    /// observes the doom mark at its next operation boundary and aborts
    /// with [`AbortReason::CmKilled`].
    CmKill {
        /// View on which the conflict was resolved.
        view: u16,
        /// Thread index of the doomed transaction.
        victim: u16,
        /// Thread index of the prevailing transaction.
        winner: u16,
    },
    /// An aborted attempt was attributed to a conflict site. Emitted once
    /// per abort, alongside [`EventKind::TxAbort`], so per-bucket wasted
    /// cycles sum exactly to the total abort-wasted cycles.
    ConflictDetected {
        /// View the aborted transaction ran against.
        view: u16,
        /// Locality-preserving address bucket of the failing location
        /// (`0..PROFILE_BUCKETS`), or [`ADDR_BUCKET_NONE`] when the abort
        /// carries no address-level attribution (explicit aborts, faults,
        /// CM kills observed away from a conflicting access).
        addr_bucket: u8,
        /// Structured cause of the abort (mirrors the paired `TxAbort`).
        kind: AbortReason,
        /// What `raw` identifies: a [`ConflictSiteKind`] discriminant.
        site: ConflictSiteKind,
        /// Cycles wasted by the aborted attempt.
        cycles: u64,
        /// The raw conflict-site value: the failing word address for
        /// [`ConflictSiteKind::Addr`], the failing ownership-record index
        /// for [`ConflictSiteKind::Orec`], the NOrec Bloom-summary bucket
        /// (`0..64`) for [`ConflictSiteKind::Bloom`], zero otherwise.
        raw: u64,
    },
    /// A transaction attempt finished (committed or aborted) with the
    /// given read/write address-bucket footprints. Each word is a 64-bit
    /// bitmap over the view's [`PROFILE_BUCKETS`] address buckets.
    Footprint {
        /// View the transaction ran against.
        view: u16,
        /// Whether the attempt committed (`true`) or aborted (`false`).
        committed: bool,
        /// Bitmap of buckets the attempt read.
        reads: u64,
        /// Bitmap of buckets the attempt wrote.
        writes: u64,
    },
    /// The thread parked on `view`'s wakeup table after its transaction
    /// called `retry()`. `summary` is the Bloom read-summary key the wait
    /// record was registered under (bit `i` set ⇒ waiting on bucket `i`).
    Park {
        /// View whose wakeup table holds the wait record.
        view: u16,
        /// Bloom read-summary bits the waiter is keyed on.
        summary: u64,
    },
    /// A parked thread was woken by a committing writer whose write summary
    /// intersected its wait key, after `waited` cycles.
    Wake {
        /// View whose wakeup table delivered the wake.
        view: u16,
        /// Cycles spent parked.
        waited: u64,
    },
    /// A park timed out without a matching commit: either a wakeup was lost
    /// (a bug this event exists to surface) or nothing ever wrote the read
    /// set. The parked transaction re-runs instead of hanging.
    LostWakeup {
        /// View whose wakeup table timed out the wait record.
        view: u16,
        /// Cycles spent parked before the timeout fired.
        waited: u64,
    },
    /// The repartitioner changed bucket ownership behind an exclusive
    /// drain: a **split** carved `moved` buckets out of `view` into the
    /// fresh view `partner`, a **merge** folded `partner`'s buckets back
    /// into `view` and retired `partner`.
    Repartition {
        /// The drained view that survives the operation.
        view: u16,
        /// The view created (split) or absorbed (merge).
        partner: u16,
        /// `true` for a split, `false` for a merge.
        split: bool,
        /// Bitmap of address buckets whose owner changed.
        moved: u64,
        /// Cycles from the drain request to the barrier release.
        drain_cycles: u64,
    },
}

/// Number of address buckets the profiler folds a view's heap into.
///
/// 64 so a transaction footprint is one `u64` bitmap per access kind and
/// the affinity matrix is a fixed 64×64 — independent of heap size.
pub const PROFILE_BUCKETS: usize = 64;

/// Sentinel `addr_bucket` meaning "this abort has no address attribution".
pub const ADDR_BUCKET_NONE: u8 = 0xff;

/// Locality-preserving address bucket: scales the word address by the
/// view's heap capacity so bucket `i` covers the contiguous address range
/// `[i*cap/64, (i+1)*cap/64)`. Disjoint address ranges therefore map to
/// disjoint bucket sets, which is what lets affinity mining recover a
/// hand-partitioned split.
#[inline]
pub fn addr_bucket(addr_word: u64, capacity_words: u64) -> u8 {
    if capacity_words == 0 {
        return 0;
    }
    (((addr_word as u128 * PROFILE_BUCKETS as u128) / capacity_words as u128) as u64)
        .min(PROFILE_BUCKETS as u64 - 1) as u8
}

/// What the `raw` word of a [`EventKind::ConflictDetected`] identifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ConflictSiteKind {
    /// No site information (unattributed abort).
    None = 0,
    /// `raw` is the failing word address (NOrec value validation, orec
    /// encounter-time read/write conflicts).
    Addr = 1,
    /// `raw` is the failing ownership-record index (orec commit-time
    /// validation and timestamp extension, where the read set stores orec
    /// indices rather than addresses).
    Orec = 2,
    /// `raw` is the NOrec Bloom write-summary bucket (`0..64`) of the
    /// failing address.
    Bloom = 3,
}

impl ConflictSiteKind {
    /// Inverse of the discriminant; unknown codes collapse to `None`.
    #[inline]
    pub fn from_u8(code: u8) -> ConflictSiteKind {
        match code {
            1 => ConflictSiteKind::Addr,
            2 => ConflictSiteKind::Orec,
            3 => ConflictSiteKind::Bloom,
            _ => ConflictSiteKind::None,
        }
    }

    /// Short stable name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            ConflictSiteKind::None => "none",
            ConflictSiteKind::Addr => "addr",
            ConflictSiteKind::Orec => "orec",
            ConflictSiteKind::Bloom => "bloom",
        }
    }
}

const TAG_TX_BEGIN: u8 = 0;
const TAG_TX_COMMIT: u8 = 1;
const TAG_TX_ABORT: u8 = 2;
const TAG_GATE_WAIT_ENTER: u8 = 3;
const TAG_GATE_WAIT_EXIT: u8 = 4;
const TAG_QUOTA_CHANGE: u8 = 5;
const TAG_ESCALATION: u8 = 6;
const TAG_FAULT: u8 = 7;
const TAG_CM_KILL: u8 = 8;
const TAG_CONFLICT: u8 = 9;
const TAG_FOOTPRINT: u8 = 10;
const TAG_PARK: u8 = 11;
const TAG_WAKE: u8 = 12;
const TAG_LOST_WAKEUP: u8 = 13;
const TAG_REPARTITION: u8 = 14;

impl EventKind {
    /// Encodes the kind into the three payload words `[meta, a, b]`.
    ///
    /// Layout of `meta`: bits 0..8 tag, bits 8..24 view, bits 24..56
    /// variant-specific small fields.
    #[inline]
    pub(crate) fn encode(self) -> [u64; 3] {
        #[inline]
        fn meta(tag: u8, view: u16) -> u64 {
            u64::from(tag) | (u64::from(view) << 8)
        }
        match self {
            EventKind::TxBegin { view } => [meta(TAG_TX_BEGIN, view), 0, 0],
            EventKind::TxCommit { view, cycles } => [meta(TAG_TX_COMMIT, view), cycles, 0],
            EventKind::TxAbort {
                view,
                reason,
                cycles,
            } => [
                meta(TAG_TX_ABORT, view) | (u64::from(reason.index() as u8) << 24),
                cycles,
                0,
            ],
            EventKind::GateWaitEnter { view } => [meta(TAG_GATE_WAIT_ENTER, view), 0, 0],
            EventKind::GateWaitExit { view, waited } => [meta(TAG_GATE_WAIT_EXIT, view), waited, 0],
            EventKind::QuotaChange {
                view,
                old_q,
                new_q,
                delta,
            } => [
                meta(TAG_QUOTA_CHANGE, view) | (u64::from(old_q) << 24) | (u64::from(new_q) << 40),
                delta.unwrap_or(0.0).to_bits(),
                u64::from(delta.is_some()),
            ],
            EventKind::Escalation { view } => [meta(TAG_ESCALATION, view), 0, 0],
            EventKind::Fault { view, code, cycles } => {
                [meta(TAG_FAULT, view) | (u64::from(code) << 24), cycles, 0]
            }
            EventKind::CmKill {
                view,
                victim,
                winner,
            } => [
                meta(TAG_CM_KILL, view) | (u64::from(victim) << 24) | (u64::from(winner) << 40),
                0,
                0,
            ],
            EventKind::ConflictDetected {
                view,
                addr_bucket,
                kind,
                site,
                cycles,
                raw,
            } => [
                meta(TAG_CONFLICT, view)
                    | (u64::from(addr_bucket) << 24)
                    | (u64::from(kind.index() as u8) << 32)
                    | (u64::from(site as u8) << 40),
                cycles,
                raw,
            ],
            EventKind::Footprint {
                view,
                committed,
                reads,
                writes,
            } => [
                meta(TAG_FOOTPRINT, view) | (u64::from(committed) << 24),
                reads,
                writes,
            ],
            EventKind::Park { view, summary } => [meta(TAG_PARK, view), summary, 0],
            EventKind::Wake { view, waited } => [meta(TAG_WAKE, view), waited, 0],
            EventKind::LostWakeup { view, waited } => [meta(TAG_LOST_WAKEUP, view), waited, 0],
            EventKind::Repartition {
                view,
                partner,
                split,
                moved,
                drain_cycles,
            } => [
                meta(TAG_REPARTITION, view) | (u64::from(partner) << 24) | (u64::from(split) << 40),
                moved,
                drain_cycles,
            ],
        }
    }

    /// Decodes payload words written by [`EventKind::encode`]. Unknown tags
    /// (possible only for a slot copied mid-overwrite, which the recorder
    /// then skips) decode to a zero-view `TxBegin` rather than panicking.
    #[inline]
    pub(crate) fn decode(words: [u64; 3]) -> EventKind {
        let [meta, a, b] = words;
        let tag = (meta & 0xff) as u8;
        let view = ((meta >> 8) & 0xffff) as u16;
        match tag {
            TAG_TX_COMMIT => EventKind::TxCommit { view, cycles: a },
            TAG_TX_ABORT => EventKind::TxAbort {
                view,
                reason: AbortReason::from_u8(((meta >> 24) & 0xff) as u8),
                cycles: a,
            },
            TAG_GATE_WAIT_ENTER => EventKind::GateWaitEnter { view },
            TAG_GATE_WAIT_EXIT => EventKind::GateWaitExit { view, waited: a },
            TAG_QUOTA_CHANGE => EventKind::QuotaChange {
                view,
                old_q: ((meta >> 24) & 0xffff) as u16,
                new_q: ((meta >> 40) & 0xffff) as u16,
                delta: (b != 0).then(|| f64::from_bits(a)),
            },
            TAG_ESCALATION => EventKind::Escalation { view },
            TAG_FAULT => EventKind::Fault {
                view,
                code: ((meta >> 24) & 0xff) as u8,
                cycles: a,
            },
            TAG_CM_KILL => EventKind::CmKill {
                view,
                victim: ((meta >> 24) & 0xffff) as u16,
                winner: ((meta >> 40) & 0xffff) as u16,
            },
            TAG_CONFLICT => EventKind::ConflictDetected {
                view,
                addr_bucket: ((meta >> 24) & 0xff) as u8,
                kind: AbortReason::from_u8(((meta >> 32) & 0xff) as u8),
                site: ConflictSiteKind::from_u8(((meta >> 40) & 0xff) as u8),
                cycles: a,
                raw: b,
            },
            TAG_FOOTPRINT => EventKind::Footprint {
                view,
                committed: (meta >> 24) & 1 == 1,
                reads: a,
                writes: b,
            },
            TAG_PARK => EventKind::Park { view, summary: a },
            TAG_WAKE => EventKind::Wake { view, waited: a },
            TAG_LOST_WAKEUP => EventKind::LostWakeup { view, waited: a },
            TAG_REPARTITION => EventKind::Repartition {
                view,
                partner: ((meta >> 24) & 0xffff) as u16,
                split: (meta >> 40) & 1 == 1,
                moved: a,
                drain_cycles: b,
            },
            _ => EventKind::TxBegin { view },
        }
    }

    /// The view this event belongs to.
    pub fn view(&self) -> u16 {
        match *self {
            EventKind::TxBegin { view }
            | EventKind::TxCommit { view, .. }
            | EventKind::TxAbort { view, .. }
            | EventKind::GateWaitEnter { view }
            | EventKind::GateWaitExit { view, .. }
            | EventKind::QuotaChange { view, .. }
            | EventKind::Escalation { view }
            | EventKind::Fault { view, .. }
            | EventKind::CmKill { view, .. }
            | EventKind::ConflictDetected { view, .. }
            | EventKind::Footprint { view, .. }
            | EventKind::Park { view, .. }
            | EventKind::Wake { view, .. }
            | EventKind::LostWakeup { view, .. }
            | EventKind::Repartition { view, .. } => view,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_roundtrips_through_the_wire_encoding() {
        let kinds = [
            EventKind::TxBegin { view: 7 },
            EventKind::TxCommit {
                view: 1,
                cycles: u64::MAX,
            },
            EventKind::TxAbort {
                view: 65535,
                reason: AbortReason::NorecValidation,
                cycles: 12345,
            },
            EventKind::GateWaitEnter { view: 0 },
            EventKind::GateWaitExit {
                view: 3,
                waited: 1 << 60,
            },
            EventKind::QuotaChange {
                view: 2,
                old_q: 16,
                new_q: 8,
                delta: Some(0.75),
            },
            EventKind::QuotaChange {
                view: 2,
                old_q: 1,
                new_q: 2,
                delta: None,
            },
            EventKind::Escalation { view: 9 },
            EventKind::Fault {
                view: 4,
                code: 2,
                cycles: 99,
            },
            EventKind::CmKill {
                view: 5,
                victim: 11,
                winner: 65535,
            },
            EventKind::ConflictDetected {
                view: 6,
                addr_bucket: 63,
                kind: AbortReason::OrecConflict,
                site: ConflictSiteKind::Orec,
                cycles: 7777,
                raw: u64::MAX,
            },
            EventKind::ConflictDetected {
                view: 0,
                addr_bucket: ADDR_BUCKET_NONE,
                kind: AbortReason::Explicit,
                site: ConflictSiteKind::None,
                cycles: 0,
                raw: 0,
            },
            EventKind::Footprint {
                view: 12,
                committed: true,
                reads: 0xdead_beef_dead_beef,
                writes: 1,
            },
            EventKind::Footprint {
                view: 0,
                committed: false,
                reads: 0,
                writes: u64::MAX,
            },
            EventKind::Park {
                view: 8,
                summary: u64::MAX,
            },
            EventKind::Park {
                view: 0,
                summary: 1,
            },
            EventKind::Wake {
                view: 8,
                waited: 1 << 40,
            },
            EventKind::LostWakeup {
                view: 65535,
                waited: u64::MAX,
            },
            EventKind::Repartition {
                view: 3,
                partner: 65535,
                split: true,
                moved: 0xffff_ffff_0000_0000,
                drain_cycles: 1 << 50,
            },
            EventKind::Repartition {
                view: 1,
                partner: 2,
                split: false,
                moved: u64::MAX,
                drain_cycles: 0,
            },
        ];
        for k in kinds {
            assert_eq!(EventKind::decode(k.encode()), k, "{k:?}");
        }
    }

    #[test]
    fn addr_bucket_is_locality_preserving_and_clamped() {
        // Equal halves of a power-of-two heap land in disjoint bucket sets
        // split exactly at bucket 32.
        let cap = 4096u64;
        for a in 0..cap {
            let b = addr_bucket(a, cap);
            assert_eq!(u64::from(b), a * 64 / cap);
            assert!(b < 64);
            assert_eq!(b < 32, a < cap / 2);
        }
        // Out-of-range addresses (never produced by the heap) clamp rather
        // than overflow, and a zero capacity is safe.
        assert_eq!(addr_bucket(u64::MAX, cap), 63);
        assert_eq!(addr_bucket(123, 0), 0);
    }

    #[test]
    fn quota_change_zero_delta_is_distinct_from_none() {
        let some = EventKind::QuotaChange {
            view: 0,
            old_q: 2,
            new_q: 1,
            delta: Some(0.0),
        };
        assert_eq!(EventKind::decode(some.encode()), some);
    }
}
