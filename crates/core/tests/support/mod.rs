//! Shared by the `votm` crate's integration suites: the ticket-replay
//! serializability oracle and the one rule that picks a seed's algorithm.
//! Each test binary compiles this module and uses part of it.
#![allow(dead_code)]

use std::collections::HashMap;

use votm::{Addr, TmAlgorithm, TxAbort, TxHandle};
use votm_utils::XorShift64;

/// The algorithm a seed sweep runs at `seed`, cycling through
/// [`TmAlgorithm::ALL`] so every algorithm gets every third seed.
pub fn algo_for(seed: u64) -> TmAlgorithm {
    TmAlgorithm::ALL[(seed % TmAlgorithm::ALL.len() as u64) as usize]
}

/// What one committed ticketed transaction saw and did.
#[derive(Debug)]
pub struct TxLog {
    /// The ticket word's value when the transaction read it.
    pub ticket: u64,
    /// `(address, value seen)`, in program order.
    pub reads: Vec<(u32, u64)>,
    /// `(address, value written)`, in program order; empty for a reader.
    pub writes: Vec<(u32, u64)>,
}

/// One ticketed transaction's accesses, drawn before its first attempt so
/// every retry replays the same addresses (the values it sees may differ
/// between attempts; only the committed attempt is logged).
#[derive(Debug)]
pub struct Plan {
    reads: Vec<u32>,
    writes: Vec<(u32, u64)>,
}

impl Plan {
    /// A writer: 1..=`max_reads` reads, then 1..=`max_writes` writes of
    /// random values, all in `[base, base + span)`.
    pub fn writer(
        rng: &mut XorShift64,
        base: u64,
        span: u64,
        max_reads: usize,
        max_writes: usize,
    ) -> Self {
        let reads = Self::reader(rng, base, span, max_reads).reads;
        let writes = (0..1 + rng.next_index(max_writes))
            .map(|_| ((base + rng.next_below(span)) as u32, rng.next_u64()))
            .collect();
        Self { reads, writes }
    }

    /// A reader: 1..=`max_reads` reads in `[base, base + span)`, no write.
    pub fn reader(rng: &mut XorShift64, base: u64, span: u64, max_reads: usize) -> Self {
        let reads = (0..1 + rng.next_index(max_reads))
            .map(|_| (base + rng.next_below(span)) as u32)
            .collect();
        Self {
            reads,
            writes: Vec::new(),
        }
    }

    /// True for a plan that writes nothing.
    pub fn is_reader(&self) -> bool {
        self.writes.is_empty()
    }

    /// One attempt of the plan. A writer takes the next ticket by
    /// incrementing `ticket`, so the value it reads there is its position
    /// among the writers, and the STM itself enforces that order; a reader
    /// only reads the ticket, which places it between two writers.
    pub async fn run(&self, tx: &mut TxHandle<'_>, ticket: Addr) -> Result<TxLog, TxAbort> {
        let t = tx.read(ticket).await?;
        if !self.is_reader() {
            tx.write(ticket, t + 1).await?;
        }
        let mut reads = Vec::with_capacity(self.reads.len());
        for &a in &self.reads {
            reads.push((a, tx.read(Addr(a)).await?));
        }
        for &(a, v) in &self.writes {
            tx.write(Addr(a), v).await?;
        }
        Ok(TxLog {
            ticket: t,
            reads,
            writes: self.writes.clone(),
        })
    }
}

/// Replays `log` in ticket order against a sequential model and checks
/// that the run was serializable: the `expected` transactions all
/// committed, the writers' tickets are `0, 1, 2, …` with no duplicate or
/// gap, every logged read equals the model's value at that point of the
/// serial order, and the final heap (read through `load`) equals the
/// model, the ticket word included. A reader that saw ticket `t` goes
/// after writer `t - 1` and before writer `t`. `what` labels every
/// failure.
pub fn check_ticket_replay(
    what: &str,
    mut log: Vec<TxLog>,
    expected: usize,
    ticket: Addr,
    load: impl Fn(Addr) -> u64,
) {
    assert_eq!(log.len(), expected, "{what}: committed transactions");
    log.sort_by_key(|e| (e.ticket, !e.writes.is_empty()));
    let mut model: HashMap<u32, u64> = HashMap::new();
    let mut writers = 0u64;
    for e in &log {
        assert_eq!(
            e.ticket, writers,
            "{what}: tickets must number the writers (duplicate or gap at {writers})"
        );
        for &(a, seen) in &e.reads {
            let want = model.get(&a).copied().unwrap_or(0);
            assert_eq!(
                seen, want,
                "{what}: tx #{} read {a} saw {seen}, serial model {want}",
                e.ticket
            );
        }
        for &(a, v) in &e.writes {
            model.insert(a, v);
        }
        writers += u64::from(!e.writes.is_empty());
    }
    assert_eq!(load(ticket), writers, "{what}: ticket word");
    for (&a, &v) in &model {
        assert_eq!(load(Addr(a)), v, "{what}: final heap at {a}");
    }
}
