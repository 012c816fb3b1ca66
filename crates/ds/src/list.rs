//! A transactional sorted singly-linked list — the paper's running example
//! (Figures 1 and 2).
//!
//! Memory layout:
//!
//! ```text
//! header: [0] head
//! node:   [0] next   [1] key
//! ```
//!
//! Like the paper's `ll_insert`, insertion walks the list inside the
//! transaction; every traversed `next` pointer joins the read set, so a
//! concurrent structural change anywhere along the traversed prefix
//! conflicts — which is what makes a shared list a good contention
//! microcosm.

use votm::{Addr, TxError, TxHandle, View};

const H_HEAD: u32 = 0;
const HEADER_WORDS: u32 = 1;

const N_NEXT: u32 = 0;
const N_KEY: u32 = 1;
const NODE_WORDS: u32 = 2;

#[inline]
fn enc(addr: Addr) -> u64 {
    u64::from(addr.0)
}

#[inline]
fn dec(word: u64) -> Addr {
    Addr(word as u32)
}

/// Handle to a sorted list living inside a view's heap.
#[derive(Debug, Clone, Copy)]
pub struct TxList {
    header: Addr,
}

impl TxList {
    /// Allocates an empty list in `view` (the paper's `ll_init`).
    pub fn create(view: &View) -> Self {
        let header = view.alloc_block(HEADER_WORDS).expect("view heap exhausted");
        view.heap().store(header.offset(H_HEAD), enc(Addr::NULL));
        Self { header }
    }

    /// Inserts `key` keeping ascending order (duplicates allowed, matching
    /// the paper's snippet).
    pub async fn insert(&self, tx: &mut TxHandle<'_>, key: u64) -> Result<(), TxError> {
        let node = tx.alloc(NODE_WORDS)?;
        tx.write(node.offset(N_KEY), key).await?;
        let head = dec(tx.read(self.header.offset(H_HEAD)).await?);
        if head.is_null() || tx.read(head.offset(N_KEY)).await? >= key {
            // Insert at head.
            tx.write(node.offset(N_NEXT), enc(head)).await?;
            tx.write(self.header.offset(H_HEAD), enc(node)).await?;
            return Ok(());
        }
        // Find the right place.
        let mut curr = head;
        loop {
            let next = dec(tx.read(curr.offset(N_NEXT)).await?);
            if next.is_null() || tx.read(next.offset(N_KEY)).await? >= key {
                tx.write(node.offset(N_NEXT), enc(next)).await?;
                tx.write(curr.offset(N_NEXT), enc(node)).await?;
                return Ok(());
            }
            curr = next;
        }
    }

    /// Collects the keys in order (test/diagnostic helper).
    pub async fn to_vec(&self, tx: &mut TxHandle<'_>) -> Result<Vec<u64>, TxError> {
        let mut out = Vec::new();
        let mut curr = dec(tx.read(self.header.offset(H_HEAD)).await?);
        while !curr.is_null() {
            out.push(tx.read(curr.offset(N_KEY)).await?);
            curr = dec(tx.read(curr.offset(N_NEXT)).await?);
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

    #[test]
    fn sorted_insert_and_lookup() {
        let sys = Votm::builder().build();
        let view = sys.create_view(16_384, QuotaMode::Fixed(1));
        let list = TxList::create(&view);
        let mut ex = SimExecutor::new(SimConfig::default());
        {
            let view = Arc::clone(&view);
            ex.spawn(move |rt| async move {
                view.transact(&rt, async |tx| {
                    for k in [5u64, 1, 9, 3, 7, 3] {
                        list.insert(tx, k).await?;
                    }
                    assert_eq!(list.to_vec(tx).await?, vec![1, 3, 3, 5, 7, 9]);
                    Ok(())
                })
                .await;
            });
        }
        assert_eq!(ex.run().status, RunStatus::Completed);
    }

    #[test]
    fn concurrent_inserts_keep_list_sorted_and_complete() {
        for algo in TmAlgorithm::ALL {
            let sys = Votm::builder().algo(algo).threads(8).build();
            let view = sys.create_view(65_536, QuotaMode::Fixed(8));
            let list = TxList::create(&view);
            let mut ex = SimExecutor::new(SimConfig::default());
            for t in 0..8u64 {
                let view = Arc::clone(&view);
                ex.spawn(move |rt| async move {
                    let mut rng = votm_utils::XorShift64::new(t + 1);
                    for _ in 0..25 {
                        let k = rng.next_below(1000);
                        view.transact(&rt, async |tx| list.insert(tx, k).await)
                            .await;
                    }
                });
            }
            assert_eq!(ex.run().status, RunStatus::Completed, "{algo:?}");
            // Verify: 200 keys, sorted.
            let mut ex2 = SimExecutor::new(SimConfig::default());
            let view2 = Arc::clone(&view);
            ex2.spawn(move |rt| async move {
                let v = view2
                    .transact_ro(&rt, async |tx| list.to_vec(tx).await)
                    .await;
                assert_eq!(v.len(), 200, "{algo:?}: lost inserts");
                assert!(v.windows(2).all(|w| w[0] <= w[1]), "{algo:?}: unsorted");
            });
            assert_eq!(ex2.run().status, RunStatus::Completed);
        }
    }
}
