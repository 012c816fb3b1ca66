//! View-Oriented Transactional Memory (VOTM) — the paper's primary
//! contribution.
//!
//! Shared memory is partitioned by the programmer into non-overlapping
//! **views**, each of which is an *independent TM system* (its own heap,
//! its own global clock / orec table, its own statistics) guarded by its own
//! Restricted Admission Control gate. Objects that are accessed together in
//! one transaction live in the same view; objects that never are belong in
//! different views, so that contention in one cannot throttle the other
//! (paper Observation 2).
//!
//! # API mapping (paper Table I → this crate)
//!
//! | Paper                      | Here                                          |
//! |----------------------------|-----------------------------------------------|
//! | `create_view(vid, sz, q)`  | [`Votm::create_view`] (returns an [`std::sync::Arc`]`<`[`View`]`>`) |
//! | `malloc_block(vid, sz)`    | [`View::alloc_block`] / [`TxHandle::alloc`]   |
//! | `free_block(vid, p)`       | [`View::free_block`] / [`TxHandle::free`]     |
//! | `brk_view(vid, sz)`        | [`View::brk_view`]                            |
//! | `destroy_view(vid)`        | [`Votm::destroy_view`]                        |
//! | `acquire_view` … `release_view`  | [`View::transact`] (closure, async)     |
//! | `acquire_Rview` … `release_view` | [`View::transact_ro`]                   |
//!
//! Beyond the paper's API, an [`AdaptiveDomain`] partitions itself into
//! views at runtime (Observation 2 applied live). It moves objects between
//! views, never the code that touches them: [`AdaptiveDomain::transact`]
//! takes the same body as [`View::transact`], over the same [`TxHandle`],
//! so every `votm-ds` structure runs inside a domain unchanged.
//!
//! The C API brackets a region with `acquire_view`/`release_view` and, on a
//! failed commit, rolls back and re-executes the region via `setjmp`/
//! `longjmp`. Rust's safe equivalent of that control flow is a closure the
//! runtime can re-invoke: [`View::transact`] acquires admission, runs the
//! body, commits, and on conflict rolls back, **releases and reacquires
//! admission** (the paper's release step 1), then re-runs the body.
//!
//! Bodies are `async` because every shared access is a potential scheduling
//! point for the virtual-time simulator (see `votm-sim`); under real threads
//! those awaits resolve immediately. An access can only abort, so it returns
//! [`TxAbort`]; a body returns [`TxError`], and `?` lifts one into the other.
//!
//! ```
//! use votm::Votm;
//! use votm_rac::QuotaMode;
//! use votm_sim::{SimConfig, SimExecutor};
//! use votm_stm::Addr;
//!
//! let sys = Votm::builder().build();
//! let counter = sys.create_view(16, QuotaMode::Adaptive);
//! let view = counter.clone();
//!
//! let mut ex = SimExecutor::new(SimConfig::default());
//! for _ in 0..4 {
//!     let view = view.clone();
//!     ex.spawn(move |rt| async move {
//!         for _ in 0..10 {
//!             view.transact(&rt, async |tx| {
//!                 let v = tx.read(Addr(0)).await?;
//!                 tx.write(Addr(0), v + 1).await?;
//!                 Ok(())
//!             })
//!             .await;
//!         }
//!     });
//! }
//! ex.run();
//! assert_eq!(counter.heap().load(Addr(0)), 40);
//! ```
//!
//! # Blocking transactions
//!
//! [`TxHandle::retry`] gives bodies Haskell-STM blocking semantics: a body
//! that finds the state unusable parks (keyed by its read set) instead of
//! spinning, and is woken by the first commit that writes something it
//! read. See `votm-ds`'s `BoundedBuffer` for the
//! canonical producer/consumer use.

#![warn(missing_docs)]

mod domain;
mod error;
mod handle;
mod system;
mod version;
mod view;
mod wait;

pub use domain::{AdaptiveDomain, DomainStats, RepartitionPolicy};
pub use error::TxError;
pub use handle::{TxAbort, TxHandle};
pub use system::{Votm, VotmBuilder};
pub use version::Version;
pub use view::{View, ViewStats};

// Re-export the vocabulary types callers need so `votm` is self-sufficient.
pub use votm_obs::{AbortReason, EventKind, FlightRecorder, RecorderHandle, ThreadTrace};
pub use votm_rac::{CmPolicy, GateStats, QuotaMode};
pub use votm_stm::{Addr, ClockKind, ClockStats, StatsSnapshot, TmAlgorithm};
