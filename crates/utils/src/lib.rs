//! Low-level helpers shared by every crate in the VOTM reproduction.
//!
//! Nothing in here is specific to transactional memory: this crate provides
//! the small, hot building blocks the rest of the workspace leans on —
//! cache-line padding, a fast non-cryptographic hasher, deterministic RNGs,
//! CPU cycle counters and spin backoff.

#![warn(missing_docs)]

pub mod backoff;
pub mod cycles;
pub mod hash;
pub mod inline;
pub mod pad;
pub mod rng;
pub mod sync;
pub mod wheel;

pub use backoff::{Backoff, JitterBackoff};
pub use cycles::rdtsc;
pub use hash::{hash_u64, FxBuildHasher, FxHashMap, FxHasher};
pub use inline::InlineVec;
pub use pad::CachePadded;
pub use rng::{SplitMix64, XorShift64};
pub use sync::{Mutex, MutexGuard};
pub use wheel::{TimerWheel, WheelStats, WHEEL_SLOTS};
