//! The transaction error types.
//!
//! A transaction body can stop short of committing in three ways: an
//! access aborted ("roll back and re-run"), an allocation failed, or the
//! body asked to *retry* ("park me until my read set changes"). Composing
//! the three through `?` needs one error enum, and [`TxError`] is what a
//! body returns.
//!
//! Single-word accesses ([`crate::TxHandle::read`] and
//! [`crate::TxHandle::write`]) return the zero-sized [`TxAbort`] instead,
//! on a plain view and on a domain view alike (where an address another
//! view owns is one more way to abort): an access can only abort, and its
//! structured cause is kept on the handle, so the error has nothing to
//! carry. The narrow type is also the fast one: `Result<u64, TxError>` puts
//! the error's `u32` payload at offset 4, and handing such a result from the
//! access future to the body moved it as two overlapping stores that the
//! `u64` load behind them could not forward from. `?` lifts a [`TxAbort`]
//! into `TxError::Abort(AbortReason::Explicit)`.

use votm_obs::AbortReason;

use crate::handle::TxAbort;

/// Why a transaction body stopped short of committing.
///
/// Every transaction body returns this, and every [`crate::TxHandle`]
/// operation but the single-word accesses (which return [`TxAbort`], lifted
/// by `?`), so a body can propagate any failure with a single `?`. The
/// driver interprets the variants differently:
///
/// * [`TxError::Abort`] / [`TxError::HeapExhausted`] — roll back and
///   immediately re-run the body (the historical behaviour).
/// * [`TxError::Retry`] — roll back and **park** the task on a wait record
///   keyed by the attempt's read set; the body re-runs only after another
///   transaction commits a write intersecting that read set (or the park
///   times out). Produced by [`crate::TxHandle::retry`].
///
/// The enum is `non_exhaustive`: future drivers may add outcomes without a
/// breaking release, so always keep a `_ =>` arm when matching.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// The attempt must be rolled back and retried, for the given
    /// structured reason (conflict, contention-manager kill, injected
    /// fault, or an explicit user abort).
    Abort(AbortReason),
    /// A [`crate::TxHandle::alloc`] could not be satisfied even after one
    /// `brk_view` growth attempt.
    HeapExhausted {
        /// The allocation size that could not be satisfied.
        requested_words: u32,
    },
    /// The body called [`crate::TxHandle::retry`]: block until the world
    /// this attempt read changes.
    Retry,
}

impl From<TxAbort> for TxError {
    fn from(_: TxAbort) -> Self {
        TxError::Abort(AbortReason::Explicit)
    }
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::Abort(reason) => write!(f, "transaction aborted ({})", reason.name()),
            TxError::HeapExhausted { requested_words } => write!(
                f,
                "view heap exhausted allocating {requested_words} words (after brk_view growth attempt)"
            ),
            TxError::Retry => write!(f, "transaction blocked (retry): read set unchanged"),
        }
    }
}

impl std::error::Error for TxError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(
            TxError::from(TxAbort),
            TxError::Abort(AbortReason::Explicit)
        );
    }

    #[test]
    fn question_mark_propagation_compiles_both_ways() {
        // A body lifts an access's `TxAbort` and passes an `alloc` failure
        // through with the same `?`.
        fn access() -> Result<u64, TxAbort> {
            Err(TxAbort)
        }
        fn alloc() -> Result<u64, TxError> {
            Err(TxError::HeapExhausted { requested_words: 1 })
        }
        fn body(read_first: bool) -> Result<u64, TxError> {
            let v = if read_first { access()? } else { alloc()? };
            Ok(v + 1)
        }
        assert_eq!(body(true), Err(TxError::Abort(AbortReason::Explicit)));
        assert_eq!(
            body(false),
            Err(TxError::HeapExhausted { requested_words: 1 })
        );
    }
}
