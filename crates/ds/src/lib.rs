//! Transactional data structures over the VOTM word heap.
//!
//! STAMP-style C code builds its shared structures out of machine words and
//! `malloc`; these types do the same over a view's [`votm::Addr`] space, so
//! every node access is a transactional word access and the whole structure
//! inherits the view's concurrency control. Used by the Intruder port
//! (queue + fragment dictionary) and by the examples.
//!
//! All operations take the current [`votm::TxHandle`] and compose into the
//! caller's transaction: a queue pop and a map insert in one body commit or
//! abort together.

#![warn(missing_docs)]

pub mod bounded;
pub mod hashmap;
pub mod list;
pub mod queue;

pub use bounded::BoundedBuffer;
pub use hashmap::TxHashMap;
pub use list::TxList;
pub use queue::TxQueue;
