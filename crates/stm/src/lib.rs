//! Word-based software transactional memory, rebuilt from scratch.
//!
//! This crate implements three RSTM-7.0 algorithms ([`TmAlgorithm`]) as two
//! engines, both private behind [`TxCtx`]:
//!
//! * **NOrec** (Dalessandro, Spear, Scott, PPoPP 2010): commit-time locking
//!   with a single global sequence lock and value-based validation.
//!   Livelock-free; its global clock becomes the bottleneck for
//!   memory-intensive workloads. Its own engine: the read set holds values,
//!   not versions, and the lock *is* the clock word.
//! * **OrecEagerRedo**: encounter-time locking over a striped
//!   ownership-record table with a redo log (TinySTM-like). Fast at low
//!   contention; livelocks under high contention with an abort-and-retry
//!   conflict policy. With NOrec, one of the two plug-ins the paper
//!   evaluates.
//! * **OrecLazy** (TL2-style commit-time orec locking), an implemented
//!   extension beyond the paper's two plug-ins: the same orec engine as
//!   OrecEagerRedo, taking its write orecs inside commit instead of at the
//!   first write.
//!
//! Plus the uninstrumented *direct* access mode RAC falls back to when a
//! view's admission quota reaches 1 (the gate guarantees exclusivity).
//!
//! # Execution model
//!
//! Transactions operate on a [`heap::WordHeap`] of `AtomicU64` words
//! addressed by [`Addr`] (a word index — the TM-world analogue of a
//! pointer). Every operation is a *non-blocking polled step* returning
//! [`OpError::Busy`] instead of spinning, so the virtual-time simulator can
//! advance the clock between retries and real threads can spin with backoff;
//! the same STM code drives both. Commits are split into `commit_begin`
//! (acquire + validate + apply, returns a cost) and `commit_finish`
//! (release), so the window during which commit locks are held occupies
//! virtual time and other transactions observe it — this is what makes
//! NOrec's global-clock serialisation measurable in simulation.
//!
//! Work accounting: each transaction context accumulates *work units*
//! (virtual cycles) for every shared access, validation step and writeback.
//! The layer above drains them via `take_work()` both to charge simulated
//! time and to feed the paper's δ(Q) estimator (cycles spent in aborted vs
//! successful transactions, Eq. 5).

#![warn(missing_docs)]

pub mod clock;
pub mod cost;
mod direct;
pub mod heap;
pub mod instance;
mod norec;
mod orec;
pub mod route;
pub mod stats;
pub mod writeset;

pub use clock::{ClockKind, ClockStats};
pub use heap::{Addr, WordHeap};
pub use instance::{TmAlgorithm, TmInstance, TxCtx};
pub use route::RouteTable;
pub use stats::{StatsSnapshot, TmStats};
pub use writeset::bloom_bucket;
// Re-exported so stats consumers don't need a separate votm-obs dependency
// just to name abort reasons.
pub use votm_obs::AbortReason;

/// Where the most recent `Err(Conflict)` was detected, threaded through the
/// polled error path as plain `Copy` data — no allocation, set beside the
/// existing `last_conflict` reason at every conflict site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictSite {
    /// No attribution (explicit aborts, or sites that carry no location).
    #[default]
    None,
    /// The failing word address (encounter-time orec conflicts and reads
    /// that observe a stale version at a known address).
    Addr(Addr),
    /// The failing ownership-record index: commit-time validation and
    /// snapshot extension walk the read set, which stores orec indices
    /// rather than addresses.
    Orec(u32),
    /// NOrec value validation: the failing address plus its Bloom
    /// write-summary bucket (`0..64`) in the global commit filter.
    Bloom(Addr, u8),
}

/// Why a transactional operation could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// Transient: metadata is held by a concurrent committer; retry the same
    /// operation after letting time pass. Never requires rollback.
    Busy,
    /// A conflict was detected; the transaction must abort and restart.
    Conflict,
}

/// Result of a polled transactional operation.
pub type OpResult<T> = Result<T, OpError>;

/// Outcome of `commit_begin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPhase {
    /// Commit completed entirely (read-only fast path); no `commit_finish`
    /// call is needed.
    Done,
    /// Write locks are applied and held; the caller must let `cost` cycles
    /// pass (simulated or real) and then call `commit_finish`.
    NeedsFinish {
        /// Cycles the writeback/lock-hold window occupies.
        cost: u64,
    },
}
