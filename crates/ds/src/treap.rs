//! A transactional ordered map (treap) — the word-heap counterpart of
//! STAMP's red-black-tree maps.
//!
//! A treap keeps BST order on keys and heap order on priorities; with the
//! priority derived *deterministically* from the key (`hash_u64(key)`),
//! the tree shape is a pure function of the key set — no RNG state lives
//! in shared memory, rebalancing is simpler than red-black recolouring,
//! and expected depth is O(log n).
//!
//! Memory layout:
//!
//! ```text
//! header: [0] root  [1] size
//! node:   [0] left  [1] right  [2] key  [3] value
//! ```
//!
//! All mutation goes through the caller's transaction, so structural
//! changes commit or roll back atomically with everything else in the
//! transaction; insertion/removal use the recursion-free top-down split /
//! merge formulation to keep transactional read sets proportional to the
//! search path.

use votm::{Addr, TxError, TxHandle, View};
use votm_utils::hash_u64;

const H_ROOT: u32 = 0;
const H_SIZE: u32 = 1;
const HEADER_WORDS: u32 = 2;

const N_LEFT: u32 = 0;
const N_RIGHT: u32 = 1;
const N_KEY: u32 = 2;
const N_VALUE: u32 = 3;
const NODE_WORDS: u32 = 4;

#[inline]
fn enc(addr: Addr) -> u64 {
    u64::from(addr.0)
}

#[inline]
fn dec(word: u64) -> Addr {
    Addr(word as u32)
}

#[inline]
fn priority(key: u64) -> u64 {
    hash_u64(key)
}

/// Handle to a treap living inside a view's heap.
///
/// ```
/// use votm::{Votm, QuotaMode};
/// use votm_ds::TxTreap;
/// use votm_sim::{SimExecutor, SimConfig};
///
/// let sys = Votm::builder().build();
/// let view = sys.create_view(4096, QuotaMode::Adaptive);
/// let map = TxTreap::create(&view);
/// let mut ex = SimExecutor::new(SimConfig::default());
/// ex.spawn(move |rt| async move {
///     view.transact(&rt, async |tx| {
///         map.insert(tx, 30, 3).await?;
///         map.insert(tx, 10, 1).await?;
///         map.insert(tx, 20, 2).await?;
///         assert_eq!(map.to_vec(tx).await?, vec![(10, 1), (20, 2), (30, 3)]);
///         assert_eq!(map.ceiling(tx, 15).await?, Some((20, 2)));
///         Ok(())
///     }).await;
/// });
/// ex.run();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TxTreap {
    header: Addr,
}

impl TxTreap {
    /// Allocates an empty treap in `view`.
    pub fn create(view: &View) -> Self {
        let header = view.alloc_block(HEADER_WORDS).expect("view heap exhausted");
        view.heap().store(header.offset(H_ROOT), enc(Addr::NULL));
        view.heap().store(header.offset(H_SIZE), 0);
        Self { header }
    }

    /// Rebinds a handle from a shared base address.
    pub fn from_addr(header: Addr) -> Self {
        Self { header }
    }

    /// The base address.
    pub fn addr(&self) -> Addr {
        self.header
    }

    /// Splits the subtree at `node` into (< key, ≥ key) subtrees, writing
    /// child pointers in place. Returns the two roots.
    async fn split(
        &self,
        tx: &mut TxHandle<'_>,
        node: Addr,
        key: u64,
    ) -> Result<(Addr, Addr), TxError> {
        if node.is_null() {
            return Ok((Addr::NULL, Addr::NULL));
        }
        let nkey = tx.read(node.offset(N_KEY)).await?;
        if nkey < key {
            let right = dec(tx.read(node.offset(N_RIGHT)).await?);
            let (lo, hi) = Box::pin(self.split(tx, right, key)).await?;
            tx.write(node.offset(N_RIGHT), enc(lo)).await?;
            Ok((node, hi))
        } else {
            let left = dec(tx.read(node.offset(N_LEFT)).await?);
            let (lo, hi) = Box::pin(self.split(tx, left, key)).await?;
            tx.write(node.offset(N_LEFT), enc(hi)).await?;
            Ok((lo, node))
        }
    }

    /// Merges two treaps where every key in `lo` < every key in `hi`.
    async fn merge(&self, tx: &mut TxHandle<'_>, lo: Addr, hi: Addr) -> Result<Addr, TxError> {
        if lo.is_null() {
            return Ok(hi);
        }
        if hi.is_null() {
            return Ok(lo);
        }
        let lk = tx.read(lo.offset(N_KEY)).await?;
        let hk = tx.read(hi.offset(N_KEY)).await?;
        if priority(lk) >= priority(hk) {
            let r = dec(tx.read(lo.offset(N_RIGHT)).await?);
            let merged = Box::pin(self.merge(tx, r, hi)).await?;
            tx.write(lo.offset(N_RIGHT), enc(merged)).await?;
            Ok(lo)
        } else {
            let l = dec(tx.read(hi.offset(N_LEFT)).await?);
            let merged = Box::pin(self.merge(tx, lo, l)).await?;
            tx.write(hi.offset(N_LEFT), enc(merged)).await?;
            Ok(hi)
        }
    }

    /// Inserts or updates; returns the previous value if the key existed.
    pub async fn insert(
        &self,
        tx: &mut TxHandle<'_>,
        key: u64,
        value: u64,
    ) -> Result<Option<u64>, TxError> {
        // Update in place if present (cheap path, no restructuring).
        let mut curr = dec(tx.read(self.header.offset(H_ROOT)).await?);
        while !curr.is_null() {
            let k = tx.read(curr.offset(N_KEY)).await?;
            if k == key {
                let old = tx.read(curr.offset(N_VALUE)).await?;
                tx.write(curr.offset(N_VALUE), value).await?;
                return Ok(Some(old));
            }
            let side = if key < k { N_LEFT } else { N_RIGHT };
            curr = dec(tx.read(curr.offset(side)).await?);
        }
        // Absent: split at key, hang the new node between the halves.
        let node = tx.alloc(NODE_WORDS)?;
        tx.write(node.offset(N_KEY), key).await?;
        tx.write(node.offset(N_VALUE), value).await?;
        let root = dec(tx.read(self.header.offset(H_ROOT)).await?);
        let (lo, hi) = self.split(tx, root, key).await?;
        tx.write(node.offset(N_LEFT), enc(Addr::NULL)).await?;
        tx.write(node.offset(N_RIGHT), enc(Addr::NULL)).await?;
        let lo2 = self.merge(tx, lo, node).await?;
        let new_root = self.merge(tx, lo2, hi).await?;
        tx.write(self.header.offset(H_ROOT), enc(new_root)).await?;
        let size = tx.read(self.header.offset(H_SIZE)).await?;
        tx.write(self.header.offset(H_SIZE), size + 1).await?;
        Ok(None)
    }

    /// Looks up `key`.
    pub async fn get(&self, tx: &mut TxHandle<'_>, key: u64) -> Result<Option<u64>, TxError> {
        let mut curr = dec(tx.read(self.header.offset(H_ROOT)).await?);
        while !curr.is_null() {
            let k = tx.read(curr.offset(N_KEY)).await?;
            if k == key {
                return Ok(Some(tx.read(curr.offset(N_VALUE)).await?));
            }
            let side = if key < k { N_LEFT } else { N_RIGHT };
            curr = dec(tx.read(curr.offset(side)).await?);
        }
        Ok(None)
    }

    /// Removes `key`; returns its value if present.
    pub async fn remove(&self, tx: &mut TxHandle<'_>, key: u64) -> Result<Option<u64>, TxError> {
        let mut parent: Option<(Addr, u32)> = None;
        let mut curr = dec(tx.read(self.header.offset(H_ROOT)).await?);
        while !curr.is_null() {
            let k = tx.read(curr.offset(N_KEY)).await?;
            if k == key {
                let value = tx.read(curr.offset(N_VALUE)).await?;
                let l = dec(tx.read(curr.offset(N_LEFT)).await?);
                let r = dec(tx.read(curr.offset(N_RIGHT)).await?);
                let merged = self.merge(tx, l, r).await?;
                match parent {
                    Some((p, side)) => tx.write(p.offset(side), enc(merged)).await?,
                    None => tx.write(self.header.offset(H_ROOT), enc(merged)).await?,
                }
                tx.free(curr);
                let size = tx.read(self.header.offset(H_SIZE)).await?;
                tx.write(self.header.offset(H_SIZE), size - 1).await?;
                return Ok(Some(value));
            }
            let side = if key < k { N_LEFT } else { N_RIGHT };
            parent = Some((curr, side));
            curr = dec(tx.read(curr.offset(side)).await?);
        }
        Ok(None)
    }

    /// The smallest key ≥ `key`, with its value (range-scan building block).
    pub async fn ceiling(
        &self,
        tx: &mut TxHandle<'_>,
        key: u64,
    ) -> Result<Option<(u64, u64)>, TxError> {
        let mut best: Option<(u64, u64)> = None;
        let mut curr = dec(tx.read(self.header.offset(H_ROOT)).await?);
        while !curr.is_null() {
            let k = tx.read(curr.offset(N_KEY)).await?;
            if k == key {
                let v = tx.read(curr.offset(N_VALUE)).await?;
                return Ok(Some((k, v)));
            }
            if k > key {
                let v = tx.read(curr.offset(N_VALUE)).await?;
                best = Some((k, v));
                curr = dec(tx.read(curr.offset(N_LEFT)).await?);
            } else {
                curr = dec(tx.read(curr.offset(N_RIGHT)).await?);
            }
        }
        Ok(best)
    }

    /// Number of live entries.
    pub async fn len(&self, tx: &mut TxHandle<'_>) -> Result<u64, TxError> {
        Ok(tx.read(self.header.offset(H_SIZE)).await?)
    }

    /// True when no entries are present.
    pub async fn is_empty(&self, tx: &mut TxHandle<'_>) -> Result<bool, TxError> {
        Ok(self.len(tx).await? == 0)
    }

    /// All `(key, value)` pairs in ascending key order (test/diagnostic).
    pub async fn to_vec(&self, tx: &mut TxHandle<'_>) -> Result<Vec<(u64, u64)>, TxError> {
        let mut out = Vec::new();
        let root = dec(tx.read(self.header.offset(H_ROOT)).await?);
        // Iterative in-order traversal with an explicit stack.
        let mut stack = Vec::new();
        let mut curr = root;
        loop {
            while !curr.is_null() {
                stack.push(curr);
                curr = dec(tx.read(curr.offset(N_LEFT)).await?);
            }
            let Some(node) = stack.pop() else { break };
            let k = tx.read(node.offset(N_KEY)).await?;
            let v = tx.read(node.offset(N_VALUE)).await?;
            out.push((k, v));
            curr = dec(tx.read(node.offset(N_RIGHT)).await?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use votm::{QuotaMode, TmAlgorithm, Votm};
    use votm_sim::{RunStatus, SimConfig, SimExecutor};

    fn setup() -> (Votm, Arc<View>, TxTreap) {
        let sys = Votm::builder().build();
        let view = sys.create_view(262_144, QuotaMode::Fixed(1));
        let treap = TxTreap::create(&view);
        (sys, view, treap)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let (_s, view, t) = setup();
        let v2 = Arc::clone(&view);
        let mut ex = SimExecutor::new(SimConfig::default());
        ex.spawn(move |rt| async move {
            v2.transact(&rt, async |tx| {
                for k in [5u64, 1, 9, 3, 7, 2, 8] {
                    assert_eq!(t.insert(tx, k, k * 10).await?, None);
                }
                assert_eq!(t.len(tx).await?, 7);
                assert_eq!(t.get(tx, 7).await?, Some(70));
                assert_eq!(t.get(tx, 4).await?, None);
                assert_eq!(t.insert(tx, 3, 99).await?, Some(30), "upsert");
                assert_eq!(t.len(tx).await?, 7);
                assert_eq!(
                    t.to_vec(tx).await?,
                    vec![
                        (1, 10),
                        (2, 20),
                        (3, 99),
                        (5, 50),
                        (7, 70),
                        (8, 80),
                        (9, 90)
                    ]
                );
                assert_eq!(t.remove(tx, 5).await?, Some(50));
                assert_eq!(t.remove(tx, 5).await?, None);
                assert_eq!(t.len(tx).await?, 6);
                let keys: Vec<u64> = t.to_vec(tx).await?.iter().map(|&(k, _)| k).collect();
                assert_eq!(keys, vec![1, 2, 3, 7, 8, 9]);
                Ok(())
            })
            .await;
        });
        assert_eq!(ex.run().status, RunStatus::Completed);
    }

    #[test]
    fn ceiling_finds_successors() {
        let (_s, view, t) = setup();
        let v2 = Arc::clone(&view);
        let mut ex = SimExecutor::new(SimConfig::default());
        ex.spawn(move |rt| async move {
            v2.transact(&rt, async |tx| {
                for k in [10u64, 20, 30] {
                    t.insert(tx, k, k).await?;
                }
                assert_eq!(t.ceiling(tx, 5).await?, Some((10, 10)));
                assert_eq!(t.ceiling(tx, 10).await?, Some((10, 10)));
                assert_eq!(t.ceiling(tx, 11).await?, Some((20, 20)));
                assert_eq!(t.ceiling(tx, 31).await?, None);
                Ok(())
            })
            .await;
        });
        assert_eq!(ex.run().status, RunStatus::Completed);
    }

    #[test]
    fn removing_everything_frees_all_nodes() {
        let (_s, view, t) = setup();
        let before = view.heap().live_blocks();
        let v2 = Arc::clone(&view);
        let mut ex = SimExecutor::new(SimConfig::default());
        ex.spawn(move |rt| async move {
            v2.transact(&rt, async |tx| {
                for k in 0..50u64 {
                    t.insert(tx, k * 7 % 50, k).await?;
                }
                for k in 0..50u64 {
                    t.remove(tx, k).await?;
                }
                assert!(t.is_empty(tx).await?);
                Ok(())
            })
            .await;
        });
        assert_eq!(ex.run().status, RunStatus::Completed);
        assert_eq!(view.heap().live_blocks(), before, "nodes leaked");
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land_sorted() {
        for algo in TmAlgorithm::ALL {
            let sys = Votm::builder().algo(algo).threads(8).build();
            let view = sys.create_view(262_144, QuotaMode::Fixed(8));
            let t = TxTreap::create(&view);
            let mut ex = SimExecutor::new(SimConfig::default());
            for th in 0..8u64 {
                let view = Arc::clone(&view);
                ex.spawn(move |rt| async move {
                    for i in 0..30u64 {
                        let k = th * 1000 + i;
                        view.transact(&rt, async |tx| {
                            t.insert(tx, k, k + 1).await?;
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
                let all = view2.transact_ro(&rt, async |tx| t.to_vec(tx).await).await;
                assert_eq!(all.len(), 240, "{algo:?}");
                assert!(
                    all.windows(2).all(|w| w[0].0 < w[1].0),
                    "{algo:?}: unsorted"
                );
                for &(k, v) in &all {
                    assert_eq!(v, k + 1);
                }
            });
            assert_eq!(ex2.run().status, RunStatus::Completed, "{algo:?}");
        }
    }

    #[test]
    fn matches_btreemap_reference_under_random_ops() {
        use std::collections::BTreeMap;
        let (_s, view, t) = setup();
        let v2 = Arc::clone(&view);
        let mut ex = SimExecutor::new(SimConfig::default());
        ex.spawn(move |rt| async move {
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut rng = votm_utils::XorShift64::new(99);
            for step in 0..400u64 {
                let k = rng.next_below(64);
                let op = rng.next_below(3);
                let (got, want) = match op {
                    0 => (
                        v2.transact(&rt, async |tx| t.insert(tx, k, step).await)
                            .await,
                        model.insert(k, step),
                    ),
                    1 => (
                        v2.transact(&rt, async |tx| t.remove(tx, k).await).await,
                        model.remove(&k),
                    ),
                    _ => (
                        v2.transact(&rt, async |tx| t.get(tx, k).await).await,
                        model.get(&k).copied(),
                    ),
                };
                assert_eq!(got, want, "step {step}: op {op} on key {k}");
            }
            // Full-content comparison at the end.
            let all = v2.transact_ro(&rt, async |tx| t.to_vec(tx).await).await;
            let expect: Vec<(u64, u64)> = model.into_iter().collect();
            assert_eq!(all, expect);
        });
        assert_eq!(ex.run().status, RunStatus::Completed);
    }
}
