//! A transactional chained hash map — Intruder's fragment dictionary.
//!
//! Memory layout:
//!
//! ```text
//! header:  [0] bucket_count  [1] size  [2..2+bucket_count] chain heads
//! node:    [0] next  [1] key  [2] value
//! ```
//!
//! Fixed bucket count (no rehash): STAMP sizes its dictionary up front the
//! same way. Keys spread across buckets, so concurrent transactions rarely
//! collide — this is the paper's canonical *low-contention* object, in
//! contrast to the queue.

use votm::{Addr, TxError, TxHandle, View};
use votm_utils::hash_u64;

const H_BUCKETS: u32 = 0;
const H_SIZE: u32 = 1;
const H_TABLE: u32 = 2;

const N_NEXT: u32 = 0;
const N_KEY: u32 = 1;
const N_VALUE: u32 = 2;
const NODE_WORDS: u32 = 3;

#[inline]
fn enc(addr: Addr) -> u64 {
    u64::from(addr.0)
}

#[inline]
fn dec(word: u64) -> Addr {
    Addr(word as u32)
}

/// Handle to a hash map living inside a view's heap.
///
/// ```
/// use votm::{Votm, QuotaMode};
/// use votm_ds::TxHashMap;
/// use votm_sim::{SimExecutor, SimConfig};
///
/// let sys = Votm::builder().build();
/// let view = sys.create_view(4096, QuotaMode::Adaptive);
/// let map = TxHashMap::create(&view, 64);
/// let mut ex = SimExecutor::new(SimConfig::default());
/// ex.spawn(move |rt| async move {
///     view.transact(&rt, async |tx| {
///         map.insert(tx, 42, 1).await?;
///         assert_eq!(map.get(tx, 42).await?, Some(1));
///         assert_eq!(map.remove(tx, 42).await?, Some(1));
///         Ok(())
///     }).await;
/// });
/// ex.run();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TxHashMap {
    header: Addr,
    buckets: u32,
}

impl TxHashMap {
    /// Allocates an empty map with `buckets` chains in `view`.
    pub fn create(view: &View, buckets: u32) -> Self {
        assert!(buckets >= 1);
        let header = view
            .alloc_block(H_TABLE + buckets)
            .expect("view heap exhausted");
        view.heap()
            .store(header.offset(H_BUCKETS), u64::from(buckets));
        view.heap().store(header.offset(H_SIZE), 0);
        for b in 0..buckets {
            view.heap()
                .store(header.offset(H_TABLE + b), enc(Addr::NULL));
        }
        Self { header, buckets }
    }

    #[inline]
    fn bucket_slot(&self, key: u64) -> Addr {
        let b = (hash_u64(key) % u64::from(self.buckets)) as u32;
        self.header.offset(H_TABLE + b)
    }

    /// Inserts or updates; returns the previous value if the key existed.
    pub async fn insert(
        &self,
        tx: &mut TxHandle<'_>,
        key: u64,
        value: u64,
    ) -> Result<Option<u64>, TxError> {
        let slot = self.bucket_slot(key);
        let mut curr = dec(tx.read(slot).await?);
        while !curr.is_null() {
            if tx.read(curr.offset(N_KEY)).await? == key {
                let old = tx.read(curr.offset(N_VALUE)).await?;
                tx.write(curr.offset(N_VALUE), value).await?;
                return Ok(Some(old));
            }
            curr = dec(tx.read(curr.offset(N_NEXT)).await?);
        }
        let node = tx.alloc(NODE_WORDS)?;
        let head = tx.read(slot).await?;
        tx.write(node.offset(N_NEXT), head).await?;
        tx.write(node.offset(N_KEY), key).await?;
        tx.write(node.offset(N_VALUE), value).await?;
        tx.write(slot, enc(node)).await?;
        let size = tx.read(self.header.offset(H_SIZE)).await?;
        tx.write(self.header.offset(H_SIZE), size + 1).await?;
        Ok(None)
    }

    /// Looks up `key`.
    pub async fn get(&self, tx: &mut TxHandle<'_>, key: u64) -> Result<Option<u64>, TxError> {
        let mut curr = dec(tx.read(self.bucket_slot(key)).await?);
        while !curr.is_null() {
            if tx.read(curr.offset(N_KEY)).await? == key {
                return Ok(Some(tx.read(curr.offset(N_VALUE)).await?));
            }
            curr = dec(tx.read(curr.offset(N_NEXT)).await?);
        }
        Ok(None)
    }

    /// Removes `key`; returns its value if present.
    pub async fn remove(&self, tx: &mut TxHandle<'_>, key: u64) -> Result<Option<u64>, TxError> {
        let slot = self.bucket_slot(key);
        let mut prev: Option<Addr> = None;
        let mut curr = dec(tx.read(slot).await?);
        while !curr.is_null() {
            let next = dec(tx.read(curr.offset(N_NEXT)).await?);
            if tx.read(curr.offset(N_KEY)).await? == key {
                let value = tx.read(curr.offset(N_VALUE)).await?;
                match prev {
                    Some(p) => tx.write(p.offset(N_NEXT), enc(next)).await?,
                    None => tx.write(slot, enc(next)).await?,
                }
                tx.free(curr);
                let size = tx.read(self.header.offset(H_SIZE)).await?;
                tx.write(self.header.offset(H_SIZE), size - 1).await?;
                return Ok(Some(value));
            }
            prev = Some(curr);
            curr = next;
        }
        Ok(None)
    }

    /// Number of live entries.
    pub async fn len(&self, tx: &mut TxHandle<'_>) -> Result<u64, TxError> {
        Ok(tx.read(self.header.offset(H_SIZE)).await?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use votm::{QuotaMode, TmAlgorithm, Votm};
    use votm_sim::{RunStatus, SimConfig, SimExecutor};

    #[test]
    fn insert_get_update_remove() {
        let sys = Votm::builder().build();
        let view = sys.create_view(65_536, QuotaMode::Fixed(1));
        let map = TxHashMap::create(&view, 64);
        let v2 = Arc::clone(&view);
        let mut ex = SimExecutor::new(SimConfig::default());
        ex.spawn(move |rt| async move {
            v2.transact(&rt, async |tx| {
                for k in 0..100u64 {
                    assert_eq!(map.insert(tx, k, k * 2).await?, None);
                }
                assert_eq!(map.len(tx).await?, 100);
                for k in 0..100u64 {
                    assert_eq!(map.get(tx, k).await?, Some(k * 2));
                }
                assert_eq!(map.get(tx, 777).await?, None);
                assert_eq!(map.insert(tx, 5, 99).await?, Some(10), "upsert");
                assert_eq!(map.len(tx).await?, 100, "upsert must not grow");
                assert_eq!(map.remove(tx, 5).await?, Some(99));
                assert_eq!(map.remove(tx, 5).await?, None);
                assert_eq!(map.len(tx).await?, 99);
                Ok(())
            })
            .await;
        });
        assert_eq!(ex.run().status, RunStatus::Completed);
    }

    #[test]
    fn single_bucket_degenerate_still_correct() {
        // Forces every key into one chain: exercises the prev-pointer path
        // of remove.
        let sys = Votm::builder().build();
        let view = sys.create_view(4_096, QuotaMode::Fixed(1));
        let map = TxHashMap::create(&view, 1);
        let before = view.heap().live_blocks();
        let v2 = Arc::clone(&view);
        let mut ex = SimExecutor::new(SimConfig::default());
        ex.spawn(move |rt| async move {
            v2.transact(&rt, async |tx| {
                for k in [3u64, 1, 4, 1, 5] {
                    map.insert(tx, k, k).await?;
                }
                assert_eq!(map.len(tx).await?, 4, "duplicate key 1 upserted");
                for k in [4u64, 3, 5, 1] {
                    assert_eq!(map.remove(tx, k).await?, Some(k));
                }
                assert_eq!(map.len(tx).await?, 0);
                Ok(())
            })
            .await;
        });
        assert_eq!(ex.run().status, RunStatus::Completed);
        assert_eq!(view.heap().live_blocks(), before, "nodes leaked");
    }

    #[test]
    fn concurrent_disjoint_key_inserts_all_land() {
        for algo in TmAlgorithm::ALL {
            let sys = Votm::builder().algo(algo).threads(8).build();
            let view = sys.create_view(262_144, QuotaMode::Fixed(8));
            let map = TxHashMap::create(&view, 256);
            let mut ex = SimExecutor::new(SimConfig::default());
            for t in 0..8u64 {
                let view = Arc::clone(&view);
                ex.spawn(move |rt| async move {
                    for i in 0..60u64 {
                        let k = t * 1_000 + i;
                        view.transact(&rt, async |tx| {
                            map.insert(tx, k, k + 7).await?;
                            Ok(())
                        })
                        .await;
                    }
                });
            }
            assert_eq!(ex.run().status, RunStatus::Completed, "{algo:?}");
            let view2 = Arc::clone(&view);
            let mut ex2 = SimExecutor::new(SimConfig::default());
            ex2.spawn(move |rt| async move {
                view2
                    .transact_ro(&rt, async |tx| {
                        assert_eq!(map.len(tx).await?, 480);
                        for t in 0..8u64 {
                            for i in 0..60u64 {
                                let k = t * 1_000 + i;
                                assert_eq!(map.get(tx, k).await?, Some(k + 7));
                            }
                        }
                        Ok(())
                    })
                    .await;
            });
            assert_eq!(ex2.run().status, RunStatus::Completed, "{algo:?}");
        }
    }
}
