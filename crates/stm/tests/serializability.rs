//! Serializability of the STM algorithms, checked mechanically.
//!
//! Scheme: every transaction increments a designated *ticket* word, so the
//! value it reads there is its position in the serialization order (the
//! ticket is part of the read/write set, so the order is enforced by the
//! STM itself). Each committed transaction logs its ticket, the values it
//! read and the writes it made. Afterwards we replay the log in ticket
//! order against a plain `HashMap` model: if the STM is serializable,
//! every logged read matches the model and tickets are a permutation of
//! `0..n`.
//!
//! Runs under real threads (this file) — the simulator-side equivalent
//! lives in the `votm` crate's tests where the executor is available.

use std::collections::HashMap;
use std::sync::Arc;

use votm_stm::instance::run_sync;
use votm_stm::{Addr, TmAlgorithm, TmInstance};
use votm_utils::Mutex;
use votm_utils::{SplitMix64, XorShift64};

const TICKET: Addr = Addr(0);
const DATA_BASE: u32 = 1;
const DATA_WORDS: u64 = 48;

#[derive(Debug, Clone)]
struct TxLog {
    ticket: u64,
    reads: Vec<(u32, u64)>,  // (addr, value seen)
    writes: Vec<(u32, u64)>, // (addr, value written)
}

fn random_mix(algo: TmAlgorithm, threads: usize, tx_per_thread: usize, seed: u64) {
    let inst = Arc::new(TmInstance::new(algo, 256));
    let log: Arc<Mutex<Vec<TxLog>>> = Arc::new(Mutex::new(Vec::new()));
    let mut seeds = SplitMix64::new(seed);
    let thread_seeds: Vec<u64> = (0..threads).map(|_| seeds.next_u64()).collect();

    std::thread::scope(|scope| {
        for (t, &tseed) in thread_seeds.iter().enumerate() {
            let inst = Arc::clone(&inst);
            let log = Arc::clone(&log);
            scope.spawn(move || {
                let mut rng = XorShift64::new(tseed);
                for _ in 0..tx_per_thread {
                    // Pre-draw the access plan so retries replay the same
                    // addresses (values may differ between attempts; only
                    // the committed attempt is logged).
                    let n_reads = 1 + rng.next_index(6);
                    let n_writes = 1 + rng.next_index(4);
                    let read_addrs: Vec<u32> = (0..n_reads)
                        .map(|_| DATA_BASE + rng.next_below(DATA_WORDS) as u32)
                        .collect();
                    let write_plan: Vec<(u32, u64)> = (0..n_writes)
                        .map(|_| {
                            (
                                DATA_BASE + rng.next_below(DATA_WORDS) as u32,
                                rng.next_u64(),
                            )
                        })
                        .collect();
                    let entry = run_sync(&inst, t, |tx, inst| {
                        let ticket = tx.read(inst, TICKET)?;
                        tx.write(inst, TICKET, ticket + 1)?;
                        let mut reads = Vec::with_capacity(read_addrs.len());
                        for &a in &read_addrs {
                            reads.push((a, tx.read(inst, Addr(a))?));
                        }
                        for &(a, v) in &write_plan {
                            tx.write(inst, Addr(a), v)?;
                        }
                        Ok(TxLog {
                            ticket,
                            reads,
                            writes: write_plan.clone(),
                        })
                    });
                    log.lock().push(entry);
                }
            });
        }
    });

    // Replay in ticket order against a sequential model.
    let mut entries = Arc::try_unwrap(log).unwrap().into_inner();
    entries.sort_by_key(|e| e.ticket);
    let expected = (threads * tx_per_thread) as u64;
    assert_eq!(entries.len() as u64, expected);
    for (i, e) in entries.iter().enumerate() {
        assert_eq!(
            e.ticket, i as u64,
            "{algo:?}: tickets must form a permutation (duplicate or gap at {i})"
        );
    }
    let mut model: HashMap<u32, u64> = HashMap::new();
    for e in &entries {
        for &(a, seen) in &e.reads {
            let want = model.get(&a).copied().unwrap_or(0);
            assert_eq!(
                seen, want,
                "{algo:?}: tx #{} read {seen} from {a}, serial model says {want}",
                e.ticket
            );
        }
        for &(a, v) in &e.writes {
            model.insert(a, v);
        }
    }
    // And the final heap must equal the model.
    for (&a, &v) in &model {
        assert_eq!(
            inst.heap().load(Addr(a)),
            v,
            "{algo:?}: final state diverges"
        );
    }
    assert_eq!(inst.heap().load(TICKET), expected);
}

/// The algorithms whose lock words do / do not name their holder: the orec
/// pair (both acquisition times) and NOrec. Drawn from
/// [`TmAlgorithm::ALL`] so a new algorithm lands in one of the drivers.
fn algorithms(names_lock_holder: bool) -> impl Iterator<Item = TmAlgorithm> {
    TmAlgorithm::ALL
        .into_iter()
        .filter(move |a| a.names_lock_holder() == names_lock_holder)
}

#[test]
fn norec_random_mix_is_serializable() {
    for algo in algorithms(false) {
        for seed in [1u64, 7, 2026] {
            random_mix(algo, 6, 120, seed);
        }
    }
}

#[test]
fn orec_random_mix_is_serializable() {
    for algo in algorithms(true) {
        for seed in [1u64, 7, 2026] {
            random_mix(algo, 6, 120, seed);
        }
    }
}

#[test]
fn serializability_survives_heavier_threads() {
    for algo in TmAlgorithm::ALL {
        random_mix(algo, 10, 80, 42);
    }
}
