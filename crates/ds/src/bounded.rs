//! A blocking bounded buffer and a producer/consumer pipeline — the
//! canonical consumers of [`votm::TxHandle::retry`].
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
//! variants keep the historical poll-shaped API for baselines and for
//! composition with [`votm::TxHandle::or_else`].

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

    /// Rebinds a handle from a previously shared base address.
    pub fn from_addr(header: Addr, capacity: u32) -> Self {
        Self { header, capacity }
    }

    /// The base address (for sharing through heap words).
    pub fn addr(&self) -> Addr {
        self.header
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> u32 {
        self.capacity
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

    /// Current occupancy.
    pub async fn len(&self, tx: &mut TxHandle<'_>) -> Result<u64, TxError> {
        Ok(tx.read(self.header.offset(H_LEN)).await?)
    }

    /// True when empty.
    pub async fn is_empty(&self, tx: &mut TxHandle<'_>) -> Result<bool, TxError> {
        Ok(self.len(tx).await? == 0)
    }

    /// True when full.
    pub async fn is_full(&self, tx: &mut TxHandle<'_>) -> Result<bool, TxError> {
        Ok(self.len(tx).await? == u64::from(self.capacity))
    }
}

/// A linear chain of [`BoundedBuffer`] stages — the classic blocking
/// producer/consumer pipeline, built entirely from composable blocking
/// transactions.
///
/// A stage worker calls [`Pipeline::transfer`], which pops from stage `i`
/// and pushes to stage `i + 1` in **one** transaction: if the downstream
/// buffer is full the whole transfer parks (keyed by the union of both
/// buffers' read sets — the `or_else`/`retry` composition rule), and the
/// popped item is never half-moved.
#[derive(Debug, Clone)]
pub struct Pipeline {
    stages: Vec<BoundedBuffer>,
}

impl Pipeline {
    /// Allocates `n_stages` buffers of `capacity` slots each in `view`.
    ///
    /// # Panics
    /// On fewer than two stages (a pipeline needs a head and a tail).
    pub fn create(view: &View, n_stages: usize, capacity: u32) -> Self {
        assert!(n_stages >= 2, "a pipeline needs at least two stages");
        Self {
            stages: (0..n_stages)
                .map(|_| BoundedBuffer::create(view, capacity))
                .collect(),
        }
    }

    /// Number of stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Direct access to one stage's buffer.
    pub fn stage(&self, i: usize) -> &BoundedBuffer {
        &self.stages[i]
    }

    /// Feeds `value` into the first stage (blocking while it is full).
    pub async fn feed(&self, tx: &mut TxHandle<'_>, value: u64) -> Result<(), TxError> {
        self.stages[0].push(tx, value).await
    }

    /// Moves one item from stage `i` to stage `i + 1` atomically, blocking
    /// until there is both an item upstream and room downstream. Returns
    /// the moved value (workers typically transform it via `f` first).
    pub async fn transfer<F>(&self, tx: &mut TxHandle<'_>, i: usize, f: F) -> Result<u64, TxError>
    where
        F: Fn(u64) -> u64,
    {
        let value = f(self.stages[i].pop(tx).await?);
        self.stages[i + 1].push(tx, value).await?;
        Ok(value)
    }

    /// Pops one finished item from the last stage (blocking while empty).
    pub async fn drain(&self, tx: &mut TxHandle<'_>) -> Result<u64, TxError> {
        self.stages[self.stages.len() - 1].pop(tx).await
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

    #[test]
    fn pipeline_moves_items_through_stages_atomically() {
        let (_sys, view) = setup(TmAlgorithm::OrecEagerRedo, 6);
        let pipe = Pipeline::create(&view, 3, 2);
        let done = Arc::new(AtomicU64::new(0));
        const ITEMS: u64 = 30;
        let mut ex = SimExecutor::new(SimConfig::default());
        {
            let view = Arc::clone(&view);
            let pipe = pipe.clone();
            ex.spawn(move |rt| async move {
                for i in 0..ITEMS {
                    view.transact(&rt, async |tx| pipe.feed(tx, i).await).await;
                }
            });
        }
        for _ in 0..2 {
            let view = Arc::clone(&view);
            let pipe = pipe.clone();
            ex.spawn(move |rt| async move {
                for _ in 0..ITEMS / 2 {
                    view.transact(&rt, async |tx| pipe.transfer(tx, 0, |v| v * 2).await)
                        .await;
                }
            });
        }
        for _ in 0..2 {
            let view = Arc::clone(&view);
            let pipe = pipe.clone();
            ex.spawn(move |rt| async move {
                for _ in 0..ITEMS / 2 {
                    view.transact(&rt, async |tx| pipe.transfer(tx, 1, |v| v + 1).await)
                        .await;
                }
            });
        }
        {
            let view = Arc::clone(&view);
            let pipe = pipe.clone();
            let done = Arc::clone(&done);
            ex.spawn(move |rt| async move {
                for _ in 0..ITEMS {
                    let v = view.transact(&rt, async |tx| pipe.drain(tx).await).await;
                    done.fetch_add(v, Ordering::Relaxed);
                }
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed);
        let expect: u64 = (0..ITEMS).map(|i| i * 2 + 1).sum();
        assert_eq!(done.load(Ordering::Relaxed), expect, "stage transform lost");
        assert_eq!(view.stats().tm.lost_wakeups, 0);
    }
}
