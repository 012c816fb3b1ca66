//! Randomized property tests of the STM building blocks, driven by a
//! fixed-seed PRNG (each test sweeps a few hundred random scripts; a seed is
//! printed context in every assertion, so failures replay exactly).

use std::collections::HashMap;

use votm_stm::writeset::{WriteSet, INLINE_WRITES};
use votm_stm::{Addr, CommitPhase, OpError, OpResult, TmAlgorithm, TmInstance, TxCtx, WordHeap};
use votm_utils::{InlineVec, XorShift64};

const HEAP_WORDS: u64 = 64;

#[derive(Debug, Clone)]
enum Op {
    Read(u32),
    Write(u32, u64),
}

/// Runs `body` as one transaction of thread `thread_index` on an instance
/// no other context is committing to, so every step must succeed first
/// time: `begin`, each access, `commit_begin` and `commit_finish`.
fn commit_alone<T>(
    inst: &TmInstance,
    thread_index: usize,
    body: impl FnOnce(&mut TxCtx) -> OpResult<T>,
) -> T {
    let mut tx = inst.tx_ctx(thread_index);
    tx.begin(inst).expect("uncontended begin");
    let value = body(&mut tx).expect("uncontended access");
    if let CommitPhase::NeedsFinish { .. } = tx.commit_begin(inst).expect("uncontended commit") {
        tx.commit_finish(inst);
    }
    value
}

fn random_op(rng: &mut XorShift64) -> Op {
    if rng.chance_percent(50) {
        Op::Read(rng.next_below(HEAP_WORDS) as u32)
    } else {
        Op::Write(rng.next_below(HEAP_WORDS) as u32, rng.next_u64())
    }
}

/// A single-threaded sequence of transactions, each a random op list,
/// behaves exactly like a flat HashMap: every read sees the latest
/// committed (or own buffered) write. Checked for all algorithms.
#[test]
fn sequential_transactions_match_reference_model() {
    let mut rng = XorShift64::new(0x57u64 << 32 | 1);
    for _case in 0..100 {
        let txs: Vec<Vec<Op>> = (0..1 + rng.next_index(11))
            .map(|_| {
                (0..1 + rng.next_index(11))
                    .map(|_| random_op(&mut rng))
                    .collect()
            })
            .collect();
        for algo in TmAlgorithm::ALL {
            let inst = TmInstance::new(algo, HEAP_WORDS as usize);
            let mut model: HashMap<u32, u64> = HashMap::new();
            for ops in &txs {
                commit_alone(&inst, 0, |tx| {
                    for op in ops {
                        match *op {
                            Op::Read(a) => {
                                let got = tx.read(&inst, Addr(a))?;
                                let want = model.get(&a).copied().unwrap_or(0);
                                assert_eq!(got, want, "{algo:?} read {a}");
                            }
                            Op::Write(a, v) => {
                                tx.write(&inst, Addr(a), v)?;
                                model.insert(a, v);
                            }
                        }
                    }
                    Ok(())
                });
            }
            for (a, v) in &model {
                assert_eq!(inst.heap().load(Addr(*a)), *v, "{algo:?} final");
            }
        }
    }
}

/// The allocator never hands out overlapping live blocks, regardless of the
/// alloc/free interleaving.
#[test]
fn allocator_blocks_never_overlap() {
    let mut rng = XorShift64::new(0x57u64 << 32 | 2);
    for _case in 0..60 {
        let heap = WordHeap::new(16_384);
        let mut live: Vec<(Addr, u32)> = Vec::new();
        let script_len = 1 + rng.next_index(199);
        for _ in 0..script_len {
            let is_alloc = rng.chance_percent(50);
            let size = 1 + rng.next_below(15) as u32;
            if is_alloc || live.is_empty() {
                if let Some(addr) = heap.alloc_block(size) {
                    // Overlap check against every live block.
                    for &(base, len) in &live {
                        let disjoint = addr.0 + size <= base.0 || base.0 + len <= addr.0;
                        assert!(disjoint, "block {addr:?}+{size} overlaps {base:?}+{len}");
                    }
                    live.push((addr, size));
                }
            } else {
                let idx = (size as usize) % live.len();
                let (addr, _) = live.swap_remove(idx);
                heap.free_block(addr);
            }
        }
        assert_eq!(heap.live_blocks(), live.len());
    }
}

/// WriteSet behaves as an insertion-ordered map.
#[test]
fn writeset_matches_reference() {
    let mut rng = XorShift64::new(0x57u64 << 32 | 3);
    for _case in 0..200 {
        let ops: Vec<(u32, u64)> = (0..rng.next_index(64))
            .map(|_| (rng.next_below(32) as u32, rng.next_u64()))
            .collect();
        let mut ws = WriteSet::new();
        let mut model: HashMap<u32, u64> = HashMap::new();
        let mut order: Vec<u32> = Vec::new();
        for (a, v) in &ops {
            if !model.contains_key(a) {
                order.push(*a);
            }
            ws.insert(Addr(*a), *v);
            model.insert(*a, *v);
        }
        assert_eq!(ws.len(), model.len());
        for (a, v) in &model {
            assert_eq!(ws.get(Addr(*a)), Some(*v));
        }
        let got_order: Vec<u32> = ws.iter().map(|(a, _)| a.0).collect();
        assert_eq!(got_order, order, "first-write order must be stable");
    }
}

/// The WriteSet's inline→spilled transition is semantically invisible:
/// random scripts whose distinct-key counts straddle [`INLINE_WRITES`]
/// behave exactly like a HashMap on both sides of the boundary, overwrites
/// of keys inserted *before* the spill land correctly *after* it, and a
/// cleared spilled set drops back to the inline path.
#[test]
fn writeset_spill_boundary_equivalence() {
    let mut rng = XorShift64::new(0x57u64 << 32 | 5);
    for _case in 0..300 {
        // Key pool sized 1..=2*INLINE_WRITES so roughly half the scripts
        // spill and half stay inline; op count up to 3 writes per key so
        // overwrites regularly cross the transition.
        let pool = 1 + rng.next_index(2 * INLINE_WRITES);
        let n_ops = 1 + rng.next_index(3 * pool);
        let mut ws = WriteSet::new();
        let mut model: HashMap<u32, u64> = HashMap::new();
        for _ in 0..n_ops {
            let a = rng.next_below(pool as u64) as u32;
            let v = rng.next_u64();
            ws.insert(Addr(a), v);
            model.insert(a, v);
            assert_eq!(
                ws.is_inline(),
                model.len() <= INLINE_WRITES,
                "inline flag must flip exactly when distinct keys cross {INLINE_WRITES}"
            );
        }
        assert_eq!(ws.len(), model.len());
        for (a, v) in &model {
            assert_eq!(ws.get(Addr(*a)), Some(*v), "lookup after possible spill");
        }
        // Never-written addresses miss on both paths (exercises the
        // summary-filter early return).
        for a in pool as u32..pool as u32 + 8 {
            assert_eq!(ws.get(Addr(a)), None);
        }
        // Reuse after clear: a spilled set must return to the inline path.
        ws.clear();
        assert!(ws.is_inline() && ws.is_empty());
        ws.insert(Addr(0), 7);
        assert_eq!(ws.get(Addr(0)), Some(7));
        assert!(ws.is_inline());
    }
}

/// `InlineVec` (the NOrec/orec read-set container) matches a plain `Vec`
/// under random push/clear scripts whose lengths straddle the inline
/// capacity, including repeated spill→clear→refill cycles.
#[test]
fn inline_vec_matches_vec_reference() {
    const N: usize = 8; // same capacity the read sets use
    let mut rng = XorShift64::new(0x57u64 << 32 | 6);
    for _case in 0..300 {
        let mut iv: InlineVec<u64, N> = InlineVec::new();
        let mut model: Vec<u64> = Vec::new();
        for _ in 0..1 + rng.next_index(3 * N) {
            match rng.next_below(10) {
                0 => {
                    iv.clear();
                    model.clear();
                }
                _ => {
                    let v = rng.next_u64();
                    iv.push(v);
                    model.push(v);
                }
            }
            assert_eq!(iv.len(), model.len());
            assert_eq!(iv.is_inline(), model.len() <= N);
            assert_eq!(iv.iter().collect::<Vec<_>>(), model);
        }
    }
}

/// NOrec revalidation is exact on both sides of the read-set spill
/// boundary: for every read-set size straddling the inline capacity, a
/// concurrent *disjoint* commit (clock moved, values untouched) never
/// aborts the reader, while a commit overwriting any read address is
/// detected at the very next read.
#[test]
fn norec_revalidation_across_spill_boundary() {
    let mut rng = XorShift64::new(0x57u64 << 32 | 7);
    for k in 1..=16usize {
        for _case in 0..20 {
            let inst = TmInstance::new(TmAlgorithm::NOrec, HEAP_WORDS as usize);
            // Seed distinct values.
            commit_alone(&inst, 0, |tx| {
                for a in 0..HEAP_WORDS as u32 {
                    tx.write(&inst, Addr(a), u64::from(a) + 500)?;
                }
                Ok(())
            });
            // Reader builds a k-entry read set over addrs 0..k.
            let mut reader = inst.tx_ctx(1);
            reader.begin(&inst).unwrap();
            for a in 0..k as u32 {
                assert_eq!(reader.read(&inst, Addr(a)).unwrap(), u64::from(a) + 500);
            }
            // A disjoint writer commits (moves the clock; addrs ≥ 32).
            let disjoint = 32 + rng.next_below(HEAP_WORDS - 32) as u32;
            commit_alone(&inst, 2, |tx| tx.write(&inst, Addr(disjoint), 1));
            // Reader's next read revalidates and must succeed.
            let probe = 16 + rng.next_below(8) as u32;
            assert_eq!(
                reader.read(&inst, Addr(probe)).unwrap(),
                u64::from(probe) + 500,
                "k={k}: disjoint commit aborted the reader"
            );
            // A conflicting writer overwrites one of the read addresses.
            let victim = rng.next_below(k as u64) as u32;
            commit_alone(&inst, 2, |tx| tx.write(&inst, Addr(victim), 9999));
            assert_eq!(
                reader.read(&inst, Addr(probe)),
                Err(OpError::Conflict),
                "k={k}: overwrite of read addr {victim} not detected"
            );
            reader.abort(&inst);
        }
    }
}

/// Aborted transactions leave no trace on the heap (all algorithms).
#[test]
fn aborted_attempts_are_invisible() {
    let mut rng = XorShift64::new(0x57u64 << 32 | 4);
    for _case in 0..100 {
        let writes: Vec<(u32, u64)> = (0..1 + rng.next_index(15))
            .map(|_| (rng.next_below(32) as u32, rng.next_u64()))
            .collect();
        for algo in TmAlgorithm::ALL {
            let inst = TmInstance::new(algo, 64);
            // Seed known values.
            commit_alone(&inst, 0, |tx| {
                for a in 0..32u32 {
                    tx.write(&inst, Addr(a), u64::from(a) + 1000)?;
                }
                Ok(())
            });
            // Start, write, abort by hand.
            let mut ctx = inst.tx_ctx(1);
            ctx.begin(&inst).unwrap();
            for (a, v) in &writes {
                ctx.write(&inst, Addr(*a), *v).unwrap();
            }
            ctx.abort(&inst);
            for a in 0..32u32 {
                assert_eq!(
                    inst.heap().load(Addr(a)),
                    u64::from(a) + 1000,
                    "{algo:?}: abort leaked a write to {a}"
                );
            }
        }
    }
}

/// One step of a [`reused_context_is_indistinguishable_from_a_fresh_one`]
/// script. The subject is thread 0; the rival is thread 1.
#[derive(Debug, Clone, Copy)]
enum Step {
    Read(u32),
    Write(u32, u64),
    /// The rival commits one write, start to finish (or gives up on the
    /// first `Busy`/`Conflict`).
    RivalCommit(u32, u64),
    /// The rival opens a transaction, writes, and stays open; with `true`
    /// it also goes through `commit_begin` and stops before
    /// `commit_finish`. Encounter-time locking holds the orec from the
    /// write on, the other two hold their commit metadata (orecs, NOrec's
    /// sequence lock) only mid-commit — held metadata is what makes the
    /// subject's calls return `Busy`.
    RivalHold(u32, u64, bool),
    /// The rival's open transaction, if any, commits (or aborts).
    RivalRelease,
}

/// One attempt of the subject: its steps and how it means to end.
#[derive(Debug, Clone)]
struct Attempt {
    steps: Vec<Step>,
    commit: bool,
}

/// One TM instance with its rival's open transaction.
struct Side {
    inst: TmInstance,
    rival: Option<TxCtx>,
}

impl Side {
    fn new(algo: TmAlgorithm) -> Self {
        Side {
            inst: TmInstance::new(algo, HEAP_WORDS as usize),
            rival: None,
        }
    }

    /// Commits `tx` if it can, aborts it otherwise; says which.
    fn finish_rival(&self, mut tx: TxCtx) -> &'static str {
        if tx.mid_commit() {
            tx.commit_finish(&self.inst);
            return "committed";
        }
        match tx.commit_begin(&self.inst) {
            Ok(CommitPhase::Done) => "committed",
            Ok(CommitPhase::NeedsFinish { .. }) => {
                tx.commit_finish(&self.inst);
                "committed"
            }
            Err(_) => {
                tx.abort(&self.inst);
                "aborted"
            }
        }
    }

    /// A rival transaction that has begun and written `value` to `addr`,
    /// or `None` (aborted) if the write was refused.
    fn rival_write(&self, addr: u32, value: u64) -> Option<TxCtx> {
        let mut tx = self.inst.tx_ctx(1);
        tx.begin(&self.inst).ok()?;
        if tx.write(&self.inst, Addr(addr), value).is_err() {
            tx.abort(&self.inst);
            return None;
        }
        Some(tx)
    }

    /// Runs one attempt on `ctx` and returns everything it could observe:
    /// per call the result, the work drained after it, the liveness flags,
    /// the write summary, and after a `Conflict` the attribution.
    fn run_attempt(&mut self, ctx: &mut TxCtx, attempt: &Attempt) -> Vec<String> {
        fn observe<T: std::fmt::Debug>(ctx: &mut TxCtx, call: &str, r: &OpResult<T>) -> String {
            let blame = match r {
                Err(OpError::Conflict) => format!(
                    " {:?} {:?} {:?}",
                    ctx.conflict_reason(),
                    ctx.conflict_site(),
                    ctx.conflict_enemy()
                ),
                Err(OpError::Busy) => format!(" {:?}", ctx.conflict_enemy()),
                Ok(_) => String::new(),
            };
            format!(
                "{call} -> {r:?}{blame} work={} active={} mid_commit={} idle={} summary={:#x}",
                ctx.take_work(),
                ctx.is_active(),
                ctx.mid_commit(),
                ctx.is_idle(),
                ctx.write_summary()
            )
        }
        let mut log = Vec::new();
        // NOrec cannot begin while a committer holds the sequence lock; a
        // driver would poll, here the rival is made to finish.
        loop {
            let r = ctx.begin(&self.inst);
            log.push(observe(ctx, "begin", &r));
            if r.is_ok() {
                break;
            }
            let rival = self.rival.take().expect("begin is Busy only under a rival");
            log.push(format!("rival release {}", self.finish_rival(rival)));
        }
        let inst = &self.inst;
        let mut conflicted = false;
        for step in &attempt.steps {
            match *step {
                Step::Read(a) => {
                    let r = ctx.read(inst, Addr(a));
                    conflicted = r == Err(OpError::Conflict);
                    log.push(observe(ctx, "read", &r));
                }
                Step::Write(a, v) => {
                    let r = ctx.write(inst, Addr(a), v);
                    conflicted = r == Err(OpError::Conflict);
                    log.push(observe(ctx, "write", &r));
                }
                Step::RivalCommit(a, v) => {
                    let outcome = match self.rival_write(a, v) {
                        Some(tx) => self.finish_rival(tx),
                        None => "refused",
                    };
                    log.push(format!("rival commit {outcome}"));
                }
                Step::RivalHold(a, v, mid_commit) => {
                    if self.rival.is_none() {
                        self.rival = self.rival_write(a, v);
                        if let (Some(tx), true) = (&mut self.rival, mid_commit) {
                            if tx.commit_begin(inst).is_err() {
                                tx.abort(inst);
                                self.rival = None;
                            }
                        }
                        log.push(format!("rival hold {}", self.rival.is_some()));
                    }
                }
                Step::RivalRelease => {
                    if let Some(tx) = self.rival.take() {
                        log.push(format!("rival release {}", self.finish_rival(tx)));
                    }
                }
            }
            if conflicted {
                break;
            }
        }
        let mut committed = false;
        if attempt.commit && !conflicted {
            // A driver would wait out `Busy`; three polls are enough to see
            // that a reused context answers them like a fresh one.
            for _ in 0..3 {
                let r = ctx.commit_begin(inst);
                log.push(observe(ctx, "commit_begin", &r));
                match r {
                    Ok(CommitPhase::Done) => committed = true,
                    Ok(CommitPhase::NeedsFinish { .. }) => {
                        ctx.commit_finish(inst);
                        log.push(observe(ctx, "commit_finish", &Ok(())));
                        committed = true;
                    }
                    Err(OpError::Busy) => continue,
                    Err(OpError::Conflict) => {}
                }
                break;
            }
        }
        if !committed {
            ctx.abort(inst);
            log.push(observe(ctx, "abort", &Ok(())));
        }
        assert!(ctx.is_idle(), "an ended attempt leaves the context idle");
        log
    }
}

fn random_attempt(rng: &mut XorShift64) -> Attempt {
    // Large attempts spill the 8-entry inline read and write sets (and put
    // more than 8 orecs on the lock list); small ones fit. Mixing them at
    // random crosses the boundary in both directions.
    let len = if rng.chance_percent(40) {
        20 + rng.next_index(21)
    } else {
        1 + rng.next_index(6)
    };
    let steps = (0..len)
        .map(|_| {
            let a = rng.next_below(HEAP_WORDS) as u32;
            match rng.next_below(20) {
                0 => Step::RivalCommit(a, rng.next_u64()),
                1 => Step::RivalHold(a, rng.next_u64(), rng.chance_percent(50)),
                2 => Step::RivalRelease,
                3..=11 => Step::Read(a),
                _ => Step::Write(a, rng.next_u64()),
            }
        })
        .collect();
    Attempt {
        steps,
        commit: rng.chance_percent(70),
    }
}

/// A context reused for every attempt — what the transaction driver's
/// persistent descriptors do — is indistinguishable from a fresh
/// `tx_ctx()` per attempt: over random scripts of begin / read / write /
/// commit / abort with a rival committing and holding locks in between (so
/// `Busy` and `Conflict` both occur), the two return the same results, the
/// same `take_work()` after every call, the same conflict attribution and
/// the same final heap. `begin()` must therefore reset everything a
/// previous attempt left behind except capacity, whatever size that
/// attempt was.
#[test]
fn reused_context_is_indistinguishable_from_a_fresh_one() {
    let mut rng = XorShift64::new(0x57u64 << 32 | 8);
    for algo in TmAlgorithm::ALL {
        let (mut busy, mut conflicts, mut spills_then_small) = (0, 0, 0);
        for case in 0..150 {
            let script: Vec<Attempt> = (0..2 + rng.next_index(10))
                .map(|_| random_attempt(&mut rng))
                .collect();
            let (mut reusing, mut renewing) = (Side::new(algo), Side::new(algo));
            let mut reused = reusing.inst.tx_ctx(0);
            let mut previous_len = 0;
            for (i, attempt) in script.iter().enumerate() {
                let got = reusing.run_attempt(&mut reused, attempt);
                let mut fresh = renewing.inst.tx_ctx(0);
                let want = renewing.run_attempt(&mut fresh, attempt);
                assert_eq!(
                    got, want,
                    "{algo:?} case {case} attempt {i}: reused (left) vs fresh (right) context\n{attempt:?}"
                );
                busy += want.iter().filter(|l| l.contains("Err(Busy)")).count();
                conflicts += want.iter().filter(|l| l.contains("Err(Conflict)")).count();
                spills_then_small += usize::from(previous_len >= 20 && attempt.steps.len() <= 6);
                previous_len = attempt.steps.len();
            }
            for a in 0..HEAP_WORDS as u32 {
                assert_eq!(
                    reusing.inst.heap().load(Addr(a)),
                    renewing.inst.heap().load(Addr(a)),
                    "{algo:?} case {case}: heaps diverge at {a}"
                );
            }
        }
        // The scripts must actually reach the paths the claim is about.
        assert!(conflicts > 0, "{algo:?}: no script conflicted");
        assert!(spills_then_small > 0, "{algo:?}: no large-then-small pair");
        assert!(busy > 0, "{algo:?}: no script met held metadata");
    }
}
