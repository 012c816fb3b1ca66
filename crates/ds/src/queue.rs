//! A transactional FIFO queue (singly-linked).
//!
//! Memory layout (word offsets from the header block):
//!
//! ```text
//! header: [0] head   [1] tail   [2] len
//! node:   [0] next   [1] value
//! ```
//!
//! This is the "centralized task queue" shape from Intruder: every consumer
//! transaction touches `head`, making the queue a natural contention point
//! that the paper isolates into its own view.

use votm::{Addr, TxError, TxHandle, View};

const H_HEAD: u32 = 0;
const H_TAIL: u32 = 1;
const H_LEN: u32 = 2;
const HEADER_WORDS: u32 = 3;

const N_NEXT: u32 = 0;
const N_VALUE: u32 = 1;
const NODE_WORDS: u32 = 2;

/// Encodes `Addr` into a heap word (NULL ⇒ the all-ones pattern).
#[inline]
fn enc(addr: Addr) -> u64 {
    u64::from(addr.0)
}

#[inline]
fn dec(word: u64) -> Addr {
    Addr(word as u32)
}

/// Handle to a queue living inside a view's heap.
///
/// The handle itself is plain data (a base address); clone it freely across
/// logical threads using the same view.
///
/// ```
/// use votm::{Votm, QuotaMode};
/// use votm_ds::TxQueue;
/// use votm_sim::{SimExecutor, SimConfig};
///
/// let sys = Votm::builder().build();
/// let view = sys.create_view(1024, QuotaMode::Adaptive);
/// let q = TxQueue::create(&view);
/// let mut ex = SimExecutor::new(SimConfig::default());
/// ex.spawn(move |rt| async move {
///     view.transact(&rt, async |tx| {
///         q.push_back(tx, 7).await?;
///         q.push_back(tx, 8).await?;
///         assert_eq!(q.pop_front(tx).await?, Some(7));
///         Ok(())
///     }).await;
/// });
/// ex.run();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TxQueue {
    header: Addr,
}

impl TxQueue {
    /// Allocates an empty queue in `view` (non-transactionally, during
    /// setup — the paper initialises structures before threads start).
    pub fn create(view: &View) -> Self {
        let header = view.alloc_block(HEADER_WORDS).expect("view heap exhausted");
        view.heap().store(header.offset(H_HEAD), enc(Addr::NULL));
        view.heap().store(header.offset(H_TAIL), enc(Addr::NULL));
        view.heap().store(header.offset(H_LEN), 0);
        Self { header }
    }

    /// Non-transactional enqueue for single-threaded setup (pre-filling the
    /// Intruder packet stream before workers start). Must not race with
    /// transactions.
    pub fn push_back_direct(&self, view: &View, value: u64) {
        let heap = view.heap();
        let node = view.alloc_block(NODE_WORDS).expect("view heap exhausted");
        heap.store(node.offset(N_NEXT), enc(Addr::NULL));
        heap.store(node.offset(N_VALUE), value);
        let tail = dec(heap.load(self.header.offset(H_TAIL)));
        if tail.is_null() {
            heap.store(self.header.offset(H_HEAD), enc(node));
        } else {
            heap.store(tail.offset(N_NEXT), enc(node));
        }
        heap.store(self.header.offset(H_TAIL), enc(node));
        let len = heap.load(self.header.offset(H_LEN));
        heap.store(self.header.offset(H_LEN), len + 1);
    }

    /// Enqueues `value`.
    pub async fn push_back(&self, tx: &mut TxHandle<'_>, value: u64) -> Result<(), TxError> {
        let node = tx.alloc(NODE_WORDS)?;
        tx.write(node.offset(N_NEXT), enc(Addr::NULL)).await?;
        tx.write(node.offset(N_VALUE), value).await?;
        let tail = dec(tx.read(self.header.offset(H_TAIL)).await?);
        if tail.is_null() {
            tx.write(self.header.offset(H_HEAD), enc(node)).await?;
        } else {
            tx.write(tail.offset(N_NEXT), enc(node)).await?;
        }
        tx.write(self.header.offset(H_TAIL), enc(node)).await?;
        let len = tx.read(self.header.offset(H_LEN)).await?;
        tx.write(self.header.offset(H_LEN), len + 1).await?;
        Ok(())
    }

    /// Dequeues the oldest value, or `None` if empty.
    pub async fn pop_front(&self, tx: &mut TxHandle<'_>) -> Result<Option<u64>, TxError> {
        let head = dec(tx.read(self.header.offset(H_HEAD)).await?);
        if head.is_null() {
            return Ok(None);
        }
        let value = tx.read(head.offset(N_VALUE)).await?;
        let next = dec(tx.read(head.offset(N_NEXT)).await?);
        tx.write(self.header.offset(H_HEAD), enc(next)).await?;
        if next.is_null() {
            tx.write(self.header.offset(H_TAIL), enc(Addr::NULL))
                .await?;
        }
        let len = tx.read(self.header.offset(H_LEN)).await?;
        tx.write(self.header.offset(H_LEN), len - 1).await?;
        tx.free(head);
        Ok(Some(value))
    }

    /// Current length.
    pub async fn len(&self, tx: &mut TxHandle<'_>) -> Result<u64, TxError> {
        Ok(tx.read(self.header.offset(H_LEN)).await?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use votm::{QuotaMode, TmAlgorithm, Votm};
    use votm_sim::{RunStatus, SimConfig, SimExecutor};

    fn setup(algo: TmAlgorithm, n: u32) -> (Votm, Arc<View>, TxQueue) {
        let sys = Votm::builder().algo(algo).threads(n).build();
        let view = sys.create_view(65_536, QuotaMode::Fixed(n));
        let q = TxQueue::create(&view);
        (sys, view, q)
    }

    #[test]
    fn fifo_order_single_thread() {
        let (_sys, view, q) = setup(TmAlgorithm::NOrec, 1);
        let mut ex = SimExecutor::new(SimConfig::default());
        ex.spawn(move |rt| async move {
            view.transact(&rt, async |tx| {
                for i in 10..20u64 {
                    q.push_back(tx, i).await?;
                }
                Ok(())
            })
            .await;
            view.transact(&rt, async |tx| {
                for i in 10..20u64 {
                    assert_eq!(q.pop_front(tx).await?, Some(i));
                }
                assert_eq!(q.pop_front(tx).await?, None);
                assert_eq!(q.len(tx).await?, 0);
                Ok(())
            })
            .await;
        });
        assert_eq!(ex.run().status, RunStatus::Completed);
    }

    #[test]
    fn pop_empty_is_none_and_no_leak() {
        let (_sys, view, q) = setup(TmAlgorithm::OrecEagerRedo, 1);
        let blocks_before = view.heap().live_blocks();
        let v2 = Arc::clone(&view);
        let mut ex = SimExecutor::new(SimConfig::default());
        ex.spawn(move |rt| async move {
            v2.transact(&rt, async |tx| {
                q.push_back(tx, 1).await?;
                assert_eq!(q.pop_front(tx).await?, Some(1));
                assert_eq!(q.pop_front(tx).await?, None);
                Ok(())
            })
            .await;
        });
        assert_eq!(ex.run().status, RunStatus::Completed);
        assert_eq!(view.heap().live_blocks(), blocks_before, "nodes leaked");
    }

    #[test]
    fn concurrent_producers_consumers_conserve_items() {
        for algo in TmAlgorithm::ALL {
            let (_sys, view, q) = setup(algo, 8);
            let produced = 4 * 50u64;
            let consumed = Arc::new(AtomicU64::new(0));
            let sum = Arc::new(AtomicU64::new(0));
            let mut ex = SimExecutor::new(SimConfig::default());
            for t in 0..4u64 {
                let view = Arc::clone(&view);
                ex.spawn(move |rt| async move {
                    for i in 0..50u64 {
                        view.transact(&rt, async |tx| q.push_back(tx, t * 1000 + i).await)
                            .await;
                    }
                });
            }
            for _ in 0..4 {
                let view = Arc::clone(&view);
                let consumed = Arc::clone(&consumed);
                let sum = Arc::clone(&sum);
                ex.spawn(move |rt| async move {
                    while consumed.load(Ordering::Relaxed) < produced {
                        let got = view.transact(&rt, async |tx| q.pop_front(tx).await).await;
                        match got {
                            Some(v) => {
                                consumed.fetch_add(1, Ordering::Relaxed);
                                sum.fetch_add(v, Ordering::Relaxed);
                            }
                            None => rt.charge(200).await, // empty; retry later
                        }
                    }
                });
            }
            let out = ex.run();
            assert_eq!(out.status, RunStatus::Completed, "{algo:?}");
            assert_eq!(consumed.load(Ordering::Relaxed), produced, "{algo:?}");
            let expect: u64 = (0..4u64)
                .flat_map(|t| (0..50u64).map(move |i| t * 1000 + i))
                .sum();
            assert_eq!(
                sum.load(Ordering::Relaxed),
                expect,
                "{algo:?}: lost/dup items"
            );
        }
    }
}
