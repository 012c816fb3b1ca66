//! STAMP Intruder, ported to VOTM (paper §III-B).
//!
//! Intruder is a memory-intensive signature-based network intrusion
//! detector. Per processed packet it runs two short transactions:
//!
//! 1. **capture** — pop a packet from the centralised stream queue;
//! 2. **decode** — insert the fragment into the flow-reassembly dictionary;
//!    when a flow completes, collect its fragments and remove the entry.
//!
//! Then the **detector** scans the reassembled payload for signatures —
//! pure thread-local computation.
//!
//! The task queue and the dictionary are *never touched in the same
//! transaction*, so the "multi-view" version puts them in separate views
//! (paper: "they are allocated in separate views"). Under NOrec this is
//! the workload where splitting the global commit clock wins big
//! (Table X: single-view 52.6 s → multi-view 30.7 s).
//!
//! Payload bytes are immutable after generation and (exactly as in STAMP)
//! live outside transactional memory; only indices flow through the TM
//! structures. They are not stored at all: the input keeps each flow's
//! generator state, and the detector replays a fragment's words from it
//! ([`Input::data`]).

#![warn(missing_docs)]

pub mod packet;

pub use packet::{
    checksum, contains_attack, generate, Fragment, GenConfig, Input, Packet, ATTACK_SIGNATURE,
    FRAGMENT_WORDS,
};
pub use votm::Version;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use votm::{QuotaMode, TmAlgorithm, TxError, TxHandle, ViewStats, Votm};
use votm_ds::{TxHashMap, TxQueue};
use votm_sim::{Rt, RunOutcome, SimConfig, SimExecutor};

/// Detector cost: cycles of local scanning per payload word (STAMP's
/// detector lower-cases the payload and substring-matches it against a
/// signature dictionary — tens of cycles per word).
pub const SCAN_CYCLES_PER_WORD: u64 = 30;

/// Per-packet header parsing/validation cost (thread-local, outside
/// transactions — STAMP's `packet` checks in the capture phase).
pub const HEADER_PARSE_CYCLES: u64 = 150;

/// Extra thread-local computation inside the decode transaction (STAMP
/// copies the fragment payload into the assembly buffer and maintains the
/// per-flow fragment list).
pub const DECODE_LOCAL_NOPS: u64 = 1400;

/// Result of one Intruder run.
#[derive(Debug, Clone)]
pub struct IntruderResult {
    /// Simulator outcome (makespan, livelock flag).
    pub outcome: RunOutcome,
    /// Per-view statistics (queue view first; one entry for single-view).
    pub views: Vec<ViewStats>,
    /// Flows fully reassembled.
    pub flows_processed: u64,
    /// Attacks the detector found (must equal the injected count).
    pub attacks_found: u64,
    /// Reassembled payloads whose checksum mismatched (must be 0).
    pub checksum_errors: u64,
}

/// Assembly block layout in the dictionary view:
/// `[0] received  [1] n_frags  [2..2+n_frags] packet_index+1 (0 = missing)`.
const A_RECEIVED: u32 = 0;
const A_NFRAGS: u32 = 1;
const A_SLOTS: u32 = 2;

/// Decoder step: insert `pkt` (index `idx`) into the dictionary; returns
/// the flow's packet indices when this fragment completes it.
async fn decode(
    tx: &mut TxHandle<'_>,
    map: &TxHashMap,
    pkt: &Packet,
    idx: u64,
) -> Result<Option<Vec<u64>>, TxError> {
    let flow = u64::from(pkt.flow_id);
    let frag_id = u32::from(pkt.frag_id);
    // Fragment copy + list maintenance: thread-local work that occupies the
    // transaction without touching shared words (flows are disjoint, so
    // this parallelises — the reason Intruder scales with Q in Table IV).
    tx.local_work(FRAGMENT_WORDS * 2, FRAGMENT_WORDS, DECODE_LOCAL_NOPS)
        .await;
    match map.get(tx, flow).await? {
        None => {
            let n_frags = u32::from(pkt.n_frags);
            let blk = tx.alloc(A_SLOTS + n_frags)?;
            tx.write(blk.offset(A_RECEIVED), 1).await?;
            tx.write(blk.offset(A_NFRAGS), u64::from(n_frags)).await?;
            // Zero every slot: the allocator reuses freed blocks verbatim.
            for s in 0..n_frags {
                tx.write(blk.offset(A_SLOTS + s), 0).await?;
            }
            tx.write(blk.offset(A_SLOTS + frag_id), idx + 1).await?;
            if n_frags == 1 {
                // Single-fragment flow: complete immediately.
                tx.free(blk);
                return Ok(Some(vec![idx]));
            }
            map.insert(tx, flow, u64::from(blk.0)).await?;
            Ok(None)
        }
        Some(blk_word) => {
            let blk = votm::Addr(blk_word as u32);
            let received = tx.read(blk.offset(A_RECEIVED)).await? + 1;
            tx.write(blk.offset(A_RECEIVED), received).await?;
            tx.write(blk.offset(A_SLOTS + frag_id), idx + 1).await?;
            let n_frags = tx.read(blk.offset(A_NFRAGS)).await?;
            if received < n_frags {
                return Ok(None);
            }
            // Flow complete: read out every fragment index, drop the entry.
            let mut indices = Vec::with_capacity(n_frags as usize);
            for s in 0..n_frags as u32 {
                let v = tx.read(blk.offset(A_SLOTS + s)).await?;
                debug_assert!(v != 0, "complete flow with missing fragment");
                indices.push(v - 1);
            }
            map.remove(tx, flow).await?;
            tx.free(blk);
            Ok(Some(indices))
        }
    }
}

/// Runs Intruder under the virtual-time simulator.
///
/// `quotas[0]` applies to the queue view, `quotas[1]` to the dictionary
/// view (single-view versions use `quotas[0]`).
pub fn run_sim(
    input: &Arc<Input>,
    n_threads: u32,
    algo: TmAlgorithm,
    version: Version,
    quotas: [QuotaMode; 2],
    sim: SimConfig,
) -> IntruderResult {
    let sys = Votm::builder().algo(algo).threads(n_threads).build();

    let n_packets = input.packets.len() as u64;
    let queue_words = (16 + n_packets * 2) as usize;
    // Dictionary: worst case every flow partially assembled at once.
    let max_frags: u64 = input
        .packets
        .iter()
        .map(|p| u64::from(p.n_frags))
        .max()
        .unwrap_or(1);
    let dict_words = (64
        + input.flows * (u64::from(A_SLOTS) + max_frags) // assembly blocks
        + input.flows * 4 // map nodes
        + input.flows.next_power_of_two()) as usize; // buckets

    let [q0, q1] = version.quotas(quotas);
    let (queue_view, dict_view) = if version.splits_objects() {
        (
            sys.create_view(queue_words, q0),
            sys.create_view(dict_words, q1),
        )
    } else {
        let v = sys.create_view(queue_words + dict_words, q0);
        (Arc::clone(&v), v)
    };

    // Pre-fill the stream (single-threaded setup, like STAMP's main()).
    let stream = TxQueue::create(&queue_view);
    for idx in 0..n_packets {
        stream.push_back_direct(&queue_view, idx);
    }
    let buckets = (input.flows.next_power_of_two() as u32).clamp(16, 1 << 20);
    let dict = TxHashMap::create(&dict_view, buckets);

    let flows_processed = Arc::new(AtomicU64::new(0));
    let attacks_found = Arc::new(AtomicU64::new(0));
    let checksum_errors = Arc::new(AtomicU64::new(0));

    let mut ex = SimExecutor::new(sim);
    for _ in 0..n_threads {
        let queue_view = Arc::clone(&queue_view);
        let dict_view = Arc::clone(&dict_view);
        let input = Arc::clone(input);
        let flows_processed = Arc::clone(&flows_processed);
        let attacks_found = Arc::clone(&attacks_found);
        let checksum_errors = Arc::clone(&checksum_errors);
        ex.spawn(move |rt: Rt| async move {
            // The detector's reassembly buffer, reused for every flow.
            let mut payload = Vec::new();
            loop {
                // TX 1: capture.
                let popped = queue_view
                    .transact(&rt, async |tx| stream.pop_front(tx).await)
                    .await;
                let Some(idx) = popped else { break };
                let pkt = &input.packets[idx as usize];

                // Header parse/validation: local, outside any transaction.
                rt.work(HEADER_PARSE_CYCLES).await;

                // TX 2: decode (dictionary view).
                let complete = dict_view
                    .transact(&rt, async |tx| decode(tx, &dict, pkt, idx).await)
                    .await;

                // Detector: thread-local scan of the reassembled payload.
                if let Some(indices) = complete {
                    payload.clear();
                    for &i in &indices {
                        payload.extend_from_slice(&input.data(&input.packets[i as usize]));
                    }
                    rt.work(payload.len() as u64 * SCAN_CYCLES_PER_WORD).await;
                    if packet::checksum(&payload) != input.flow_checksums[pkt.flow_id as usize] {
                        checksum_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    if packet::contains_attack(&payload) {
                        attacks_found.fetch_add(1, Ordering::Relaxed);
                    }
                    flows_processed.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }
    let outcome = ex.run();
    let views = if version.splits_objects() {
        vec![queue_view.stats(), dict_view.stats()]
    } else {
        vec![queue_view.stats()]
    };
    IntruderResult {
        outcome,
        views,
        flows_processed: flows_processed.load(Ordering::Relaxed),
        attacks_found: attacks_found.load(Ordering::Relaxed),
        checksum_errors: checksum_errors.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use votm_sim::RunStatus;

    fn tiny_input() -> Arc<Input> {
        Arc::new(generate(&GenConfig {
            attack_percent: 20,
            max_length: 24,
            flows: 120,
            seed: 1,
        }))
    }

    #[test]
    fn all_versions_process_every_flow_and_find_every_attack() {
        let input = tiny_input();
        for algo in TmAlgorithm::ALL {
            for version in Version::ALL {
                let res = run_sim(
                    &input,
                    8,
                    algo,
                    version,
                    [QuotaMode::Adaptive, QuotaMode::Adaptive],
                    SimConfig::default(),
                );
                assert_eq!(
                    res.outcome.status,
                    RunStatus::Completed,
                    "{algo:?} {version:?}"
                );
                assert_eq!(res.flows_processed, input.flows, "{algo:?} {version:?}");
                assert_eq!(
                    res.attacks_found, input.attacks_injected,
                    "{algo:?} {version:?}"
                );
                assert_eq!(res.checksum_errors, 0, "{algo:?} {version:?}");
            }
        }
    }

    #[test]
    fn dictionary_drains_completely() {
        let input = tiny_input();
        let res = run_sim(
            &input,
            4,
            TmAlgorithm::NOrec,
            Version::MultiView,
            [QuotaMode::Fixed(4), QuotaMode::Fixed(4)],
            SimConfig::default(),
        );
        assert_eq!(res.outcome.status, RunStatus::Completed);
        // Every assembly block freed, every map node freed, every queue node
        // freed: the only live blocks are the two structure headers.
        // (ViewStats can't see this; check via commits conservation instead:
        // capture txs = packets + n_threads empty pops.)
        let total_commits: u64 = res.views.iter().map(|v| v.tm.commits).sum();
        let expected = (input.packets.len() as u64 + 4) // captures + empty pops
            + input.packets.len() as u64; // decode txs
        assert_eq!(total_commits, expected);
    }

    #[test]
    fn transaction_counts_are_independent_of_quota() {
        let input = tiny_input();
        let mut counts = Vec::new();
        for q in [1u32, 2, 8] {
            let res = run_sim(
                &input,
                8,
                TmAlgorithm::OrecEagerRedo,
                Version::SingleView,
                [QuotaMode::Fixed(q), QuotaMode::Fixed(q)],
                SimConfig::default(),
            );
            assert_eq!(res.outcome.status, RunStatus::Completed);
            assert_eq!(res.flows_processed, input.flows);
            counts.push(res.views[0].tm.commits);
        }
        assert_eq!(counts[0], counts[1], "#tx must match the paper's constancy");
        assert_eq!(counts[1], counts[2]);
    }

    #[test]
    fn multi_view_splits_queue_and_dictionary_traffic() {
        let input = tiny_input();
        let res = run_sim(
            &input,
            8,
            TmAlgorithm::NOrec,
            Version::MultiView,
            [QuotaMode::Fixed(8), QuotaMode::Fixed(8)],
            SimConfig::default(),
        );
        assert_eq!(res.views.len(), 2);
        let queue = &res.views[0];
        let dict = &res.views[1];
        assert_eq!(queue.tm.commits, input.packets.len() as u64 + 8);
        assert_eq!(dict.tm.commits, input.packets.len() as u64);
    }

    #[test]
    fn deterministic_given_seed() {
        let input = tiny_input();
        let run = || {
            run_sim(
                &input,
                8,
                TmAlgorithm::NOrec,
                Version::SingleView,
                [QuotaMode::Fixed(8), QuotaMode::Fixed(8)],
                SimConfig::default(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcome.vtime, b.outcome.vtime);
        assert_eq!(a.views[0].tm, b.views[0].tm);
    }
}
