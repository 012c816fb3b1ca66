//! Always-on, low-overhead observability for the VOTM stack.
//!
//! The paper's argument is built on *measuring where cycles go* — δ(Q)
//! (Eq. 5) is a ratio of aborted to successful cycles — but aggregate
//! end-of-run counters cannot show *when* a quota halved, *why* a
//! transaction aborted, or the shape of a commit-latency tail. This crate
//! provides the missing layer:
//!
//! * [`AbortReason`] — a structured taxonomy replacing untyped abort bumps.
//! * [`FlightRecorder`] / [`RecorderHandle`] — per-thread, fixed-capacity,
//!   lock-free event rings recording the transaction lifecycle (begin,
//!   commit, abort-with-reason, gate-wait spans, quota changes with the
//!   δ(Q) sample that triggered them, escalations, fault injections).
//! * [`LatencyHistogram`] — log-linear (four linear sub-buckets per
//!   power-of-two octave), mergeable, lock-free histograms for commit
//!   latency, abort-to-retry latency, gate wait and parked wait.
//! * [`export`] — a JSON snapshot schema and a Chrome `trace_event` emitter
//!   so a run opens directly in `chrome://tracing` / Perfetto.
//!
//! The crate is deliberately clock-agnostic: every record call takes a
//! caller-supplied timestamp. The simulator passes deterministic virtual
//! cycles, real runs pass `votm_utils::cycles::rdtsc()`, and exported
//! traces are therefore byte-identical across identically-seeded sim runs.

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod hist;
pub mod profile;
pub mod reason;
pub mod recorder;

pub use event::{
    addr_bucket, ConflictSiteKind, Event, EventKind, ADDR_BUCKET_NONE, PROFILE_BUCKETS,
};
pub use export::SCHEMA_VERSION;
pub use hist::{HistogramSnapshot, LatencyHistogram, ViewHistSnapshot, ViewHists, HIST_BUCKETS};
pub use profile::{Bipartition, BucketRow, ConflictProfile, ProfileWindow};
pub use reason::AbortReason;
pub use recorder::{FlightRecorder, RecorderHandle, ThreadTrace};
