//! A blocking bounded buffer — the canonical consumer of
//! [`votm::TxHandle::retry`].
//!
//! Memory layout (word offsets from the header block):
//!
//! ```text
//! header: [0] head   [1] len
//! slots:  [2] .. [2 + capacity)
//! ```
//!
//! [`BoundedBuffer::pop`] on an empty buffer and [`BoundedBuffer::push`] on
//! a full one *block*: the transaction parks on its read set (here: the
//! `len` word, at minimum) and is woken by the first commit that changes
//! it, instead of spin-retrying "still empty" transactions. The `try_`
//! variants keep the poll-shaped API for the spin-polling baseline.

use votm::{Addr, TxError, TxHandle, View};

const H_HEAD: u32 = 0;
const H_LEN: u32 = 1;
const HEADER_WORDS: u32 = 2;

/// Handle to a fixed-capacity ring buffer inside a view's heap.
///
/// Plain data (base address + capacity); clone freely across logical
/// threads using the same view.
#[derive(Debug, Clone, Copy)]
pub struct BoundedBuffer {
    header: Addr,
    capacity: u32,
}

impl BoundedBuffer {
    /// Allocates an empty buffer of `capacity` slots in `view`
    /// (non-transactionally, during setup).
    ///
    /// # Panics
    /// On zero capacity or an exhausted view heap.
    pub fn create(view: &View, capacity: u32) -> Self {
        assert!(capacity > 0, "bounded buffer needs at least one slot");
        let header = view
            .alloc_block(HEADER_WORDS + capacity)
            .expect("view heap exhausted");
        view.heap().store(header.offset(H_HEAD), 0);
        view.heap().store(header.offset(H_LEN), 0);
        Self { header, capacity }
    }

    /// The base address (for sharing through heap words).
    pub fn addr(&self) -> Addr {
        self.header
    }

    #[inline]
    fn slot(&self, idx: u64) -> Addr {
        self.header
            .offset(HEADER_WORDS + (idx % u64::from(self.capacity)) as u32)
    }

    /// Appends `value` if there is room; `Ok(false)` when full.
    pub async fn try_push(&self, tx: &mut TxHandle<'_>, value: u64) -> Result<bool, TxError> {
        let len = tx.read(self.header.offset(H_LEN)).await?;
        if len >= u64::from(self.capacity) {
            return Ok(false);
        }
        let head = tx.read(self.header.offset(H_HEAD)).await?;
        tx.write(self.slot(head + len), value).await?;
        tx.write(self.header.offset(H_LEN), len + 1).await?;
        Ok(true)
    }

    /// Appends `value`, **blocking** while the buffer is full: the
    /// transaction parks until a consumer's commit makes room.
    pub async fn push(&self, tx: &mut TxHandle<'_>, value: u64) -> Result<(), TxError> {
        if self.try_push(tx, value).await? {
            Ok(())
        } else {
            tx.retry()
        }
    }

    /// Removes the oldest value if there is one; `Ok(None)` when empty.
    pub async fn try_pop(&self, tx: &mut TxHandle<'_>) -> Result<Option<u64>, TxError> {
        let len = tx.read(self.header.offset(H_LEN)).await?;
        if len == 0 {
            return Ok(None);
        }
        let head = tx.read(self.header.offset(H_HEAD)).await?;
        let value = tx.read(self.slot(head)).await?;
        tx.write(
            self.header.offset(H_HEAD),
            (head + 1) % u64::from(self.capacity),
        )
        .await?;
        tx.write(self.header.offset(H_LEN), len - 1).await?;
        Ok(Some(value))
    }

    /// Removes the oldest value, **blocking** while the buffer is empty:
    /// the transaction parks until a producer's commit fills a slot.
    pub async fn pop(&self, tx: &mut TxHandle<'_>) -> Result<u64, TxError> {
        match self.try_pop(tx).await? {
            Some(value) => Ok(value),
            None => tx.retry(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use votm::{QuotaMode, TmAlgorithm, Votm};
    use votm_sim::{RunStatus, SimConfig, SimExecutor};

    fn setup(algo: TmAlgorithm, n: u32) -> (Votm, Arc<View>) {
        let sys = Votm::builder().algo(algo).threads(n).build();
        let view = sys.create_view(4096, QuotaMode::Fixed(n));
        (sys, view)
    }

    #[test]
    fn ring_wraps_and_preserves_fifo() {
        let (_sys, view) = setup(TmAlgorithm::NOrec, 1);
        let buf = BoundedBuffer::create(&view, 4);
        let mut ex = SimExecutor::new(SimConfig::default());
        let v = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            for round in 0..3u64 {
                v.transact(&rt, async |tx| {
                    for i in 0..4u64 {
                        assert!(buf.try_push(tx, round * 10 + i).await?);
                    }
                    assert!(!buf.try_push(tx, 999).await?, "full must refuse");
                    Ok(())
                })
                .await;
                v.transact(&rt, async |tx| {
                    for i in 0..4u64 {
                        assert_eq!(buf.try_pop(tx).await?, Some(round * 10 + i));
                    }
                    assert_eq!(buf.try_pop(tx).await?, None, "empty must refuse");
                    Ok(())
                })
                .await;
            }
        });
        assert!(matches!(ex.run().status, RunStatus::Completed));
    }

    /// Blocking producer/consumer over a tiny buffer: consumers park on
    /// empty, producers park on full, every item arrives exactly once, and
    /// the stats ledger shows real parked waits instead of busy spinning.
    #[test]
    fn blocking_producer_consumer_conserves_items() {
        for algo in TmAlgorithm::ALL {
            const PER_PRODUCER: u64 = 40;
            let (_sys, view) = setup(algo, 8);
            let buf = BoundedBuffer::create(&view, 2);
            let sum = Arc::new(AtomicU64::new(0));
            let mut ex = SimExecutor::new(SimConfig::default());
            for t in 0..4u64 {
                let view = Arc::clone(&view);
                ex.spawn(move |rt| async move {
                    for i in 0..PER_PRODUCER {
                        view.transact(&rt, async |tx| buf.push(tx, t * 1000 + i).await)
                            .await;
                    }
                });
            }
            for _ in 0..4 {
                let view = Arc::clone(&view);
                let sum = Arc::clone(&sum);
                ex.spawn(move |rt| async move {
                    for _ in 0..PER_PRODUCER {
                        let v = view.transact(&rt, async |tx| buf.pop(tx).await).await;
                        sum.fetch_add(v, Ordering::Relaxed);
                    }
                });
            }
            let out = ex.run();
            assert_eq!(out.status, RunStatus::Completed, "{algo:?}");
            let expect: u64 = (0..4u64)
                .flat_map(|t| (0..PER_PRODUCER).map(move |i| t * 1000 + i))
                .sum();
            assert_eq!(sum.load(Ordering::Relaxed), expect, "{algo:?}: lost/dup");
            let tm = view.stats().tm;
            assert!(
                tm.parked_waits > 0,
                "{algo:?}: a 2-slot buffer under 8 threads must park"
            );
            assert_eq!(tm.lost_wakeups, 0, "{algo:?}: wakeups must not get lost");
        }
    }

    /// A pipeline stage is one plain transaction body over two buffers:
    /// it pops from `a` and pushes to `b`, parking on `a` when empty and on
    /// `b` when full, so an item is never half-moved and no wakeup is lost.
    #[test]
    fn stage_body_moves_items_between_buffers_atomically() {
        let (_sys, view) = setup(TmAlgorithm::OrecEagerRedo, 4);
        let a = BoundedBuffer::create(&view, 2);
        let b = BoundedBuffer::create(&view, 2);
        let done = Arc::new(AtomicU64::new(0));
        const ITEMS: u64 = 30;
        let mut ex = SimExecutor::new(SimConfig::default());
        {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                for i in 0..ITEMS {
                    view.transact(&rt, async |tx| a.push(tx, i).await).await;
                }
            });
        }
        for _ in 0..2 {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                for _ in 0..ITEMS / 2 {
                    view.transact(&rt, async |tx| {
                        let v = a.pop(tx).await?;
                        b.push(tx, v * 2 + 1).await
                    })
                    .await;
                }
            });
        }
        {
            let view = Arc::clone(&view);
            let done = Arc::clone(&done);
            ex.spawn(move |rt| async move {
                for _ in 0..ITEMS {
                    let v = view.transact(&rt, async |tx| b.pop(tx).await).await;
                    done.fetch_add(v, Ordering::Relaxed);
                }
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed);
        let expect: u64 = (0..ITEMS).map(|i| i * 2 + 1).sum();
        assert_eq!(done.load(Ordering::Relaxed), expect, "stage transform lost");
        let tm = view.stats().tm;
        assert!(tm.parked_waits > 0, "2-slot buffers must park");
        assert_eq!(tm.lost_wakeups, 0);
    }
}
