//! Structured abort-reason taxonomy.
//!
//! Every aborted attempt is attributed to exactly one reason, replacing the
//! untyped `record_abort` bumps the stats layer used to take. The variants
//! mirror the failure modes of the two STM families in the reproduction
//! (value-validation NOrec, ownership-record Orec) plus the harness-level
//! causes (busy-streak overflow, explicit user abort, injected fault).

/// Why one transaction attempt aborted.
///
/// The discriminants are stable and dense (`0..COUNT`) so the value doubles
/// as an index into per-reason counter arrays and encodes into one byte in
/// flight-recorder events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AbortReason {
    /// The transaction body returned an error (user-requested abort), or the
    /// abort could not be attributed more precisely.
    Explicit = 0,
    /// An ownership-record conflict: a read or commit-time validation found
    /// an orec locked by another transaction or advanced past the snapshot.
    OrecConflict = 1,
    /// NOrec value-based revalidation failed: a location read earlier no
    /// longer holds the value that was seen.
    NorecValidation = 2,
    /// The busy-retry budget was exhausted spinning on a write lock or an
    /// unstable global clock; the attempt was converted into an abort.
    WriteLockBusy = 3,
    /// A deterministic fault-injection plan forced this attempt to abort.
    FaultInjected = 4,
    /// The contention manager doomed this attempt in favour of a
    /// higher-priority transaction; the victim self-aborted at its next
    /// operation boundary.
    CmKilled = 5,
    /// Never recorded: no clock produces a false conflict. It stays only
    /// because the repository benchmark emits `stm.aborts.false_conflict`,
    /// and goes once a benchmark change drops that metric.
    FalseConflict = 6,
    /// The transaction body called `retry()`: the attempt is abandoned by
    /// request so the task can park until a value it read changes. Not a
    /// failure — retry aborts waste no contended work by construction.
    Retry = 7,
}

impl AbortReason {
    /// Number of variants; the length of per-reason counter arrays.
    pub const COUNT: usize = 8;

    /// All variants, in discriminant order.
    pub const ALL: [AbortReason; Self::COUNT] = [
        AbortReason::Explicit,
        AbortReason::OrecConflict,
        AbortReason::NorecValidation,
        AbortReason::WriteLockBusy,
        AbortReason::FaultInjected,
        AbortReason::CmKilled,
        AbortReason::FalseConflict,
        AbortReason::Retry,
    ];

    /// Dense index of this reason (`0..COUNT`).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`AbortReason::index`]; out-of-range codes collapse to
    /// [`AbortReason::Explicit`] so decoding stale ring slots cannot panic.
    #[inline]
    pub fn from_u8(code: u8) -> AbortReason {
        match code {
            1 => AbortReason::OrecConflict,
            2 => AbortReason::NorecValidation,
            3 => AbortReason::WriteLockBusy,
            4 => AbortReason::FaultInjected,
            5 => AbortReason::CmKilled,
            6 => AbortReason::FalseConflict,
            7 => AbortReason::Retry,
            _ => AbortReason::Explicit,
        }
    }

    /// Short stable name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            AbortReason::Explicit => "explicit",
            AbortReason::OrecConflict => "orec_conflict",
            AbortReason::NorecValidation => "norec_validation",
            AbortReason::WriteLockBusy => "write_lock_busy",
            AbortReason::FaultInjected => "fault_injected",
            AbortReason::CmKilled => "cm_killed",
            AbortReason::FalseConflict => "false_conflict",
            AbortReason::Retry => "retry",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrips_through_from_u8() {
        for r in AbortReason::ALL {
            assert_eq!(AbortReason::from_u8(r.index() as u8), r);
        }
        assert_eq!(AbortReason::from_u8(250), AbortReason::Explicit);
    }

    #[test]
    fn names_are_unique() {
        for a in AbortReason::ALL {
            for b in AbortReason::ALL {
                assert_eq!(a == b, a.name() == b.name());
            }
        }
    }
}
