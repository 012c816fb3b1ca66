//! Contention-management demo: an adversarial starvation duel, replayed
//! under every policy.
//!
//! One long transaction (task 0) must write-lock four hot words and then
//! hold them through a long computation. Four short transactions camp on
//! those words — one each, in a tight increment loop — and a targeted
//! fault plan injects a delay after *every* one of the victim's
//! operations, so it arrives late to every lock race. Under the default
//! backoff policy the victim starves: it aborts, retries, and loses the
//! race forever while the shorts commit freely. A priority policy
//! resolves each encounter in the victim's favour inside its winning
//! window, so the same adversary costs it only a bounded abort streak.
//!
//! ```text
//! cargo run --release --example starvation_duel
//! ```
//!
//! Deterministic: same seeds, same duel, byte-for-byte — rerun to replay.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use votm_repro::sim::{FaultPlan, RunStatus, SimConfig, SimExecutor};
use votm_repro::votm::{AbortReason, Addr, CmPolicy, QuotaMode, TmAlgorithm, Votm};

/// Hot words the victim must lock; one camping short per word.
const HOT_WORDS: u64 = 4;
/// Work the victim repeats before touching shared state on every attempt.
const PRE_WORK: u64 = 500;
/// The victim's long hold after acquiring its write set.
const VICTIM_WORK: u64 = 20_000;
/// One camper's lock-hold time per transaction.
const SHORT_WORK: u64 = 600;
/// Virtual-time budget: the starving legs stop here.
const DUEL_CAP: u64 = 4_000_000;

struct Outcome {
    status: RunStatus,
    victim_attempts: u64,
    victim_committed: bool,
    commits: u64,
    aborts: u64,
    cm_kills: u64,
    max_streak: u64,
}

fn duel(policy: CmPolicy, seed: u64) -> Outcome {
    let n_threads = (1 + HOT_WORDS) as u32;
    let sys = Votm::builder()
        .algo(TmAlgorithm::OrecEagerRedo)
        .threads(n_threads)
        .policy(policy)
        .build();
    let view = sys.create_view(64, QuotaMode::Fixed(n_threads));
    let done = Arc::new(AtomicBool::new(false));
    let attempts = Arc::new(AtomicU64::new(0));

    let mut ex = SimExecutor::new(SimConfig {
        seed,
        vtime_cap: Some(DUEL_CAP),
        fault_plan: Some(FaultPlan {
            seed: seed ^ 0x0051_eed5,
            delay_percent: 100,
            max_delay: 600,
            target_task: Some(0),
            ..Default::default()
        }),
        ..Default::default()
    });

    // Task 0: the victim. Blind writes, so its conflicts are encounter
    // locks with a live holder — the kind a contention manager arbitrates.
    {
        let view = Arc::clone(&view);
        let done = Arc::clone(&done);
        let attempts = Arc::clone(&attempts);
        ex.spawn(move |rt| async move {
            view.transact(&rt, async |tx| {
                attempts.fetch_add(1, Ordering::Relaxed);
                tx.local_work(0, 0, PRE_WORK).await;
                for w in 0..HOT_WORDS {
                    tx.write(Addr(w as u32), 1_000_000 + w).await?;
                }
                tx.local_work(0, 0, VICTIM_WORK).await;
                Ok(())
            })
            .await;
            done.store(true, Ordering::Relaxed);
        });
    }
    // The campers: short increment loops, one per hot word, until the
    // victim gets through (or the cap ends the run).
    for k in 0..HOT_WORDS {
        let view = Arc::clone(&view);
        let done = Arc::clone(&done);
        ex.spawn(move |rt| async move {
            let w = Addr(k as u32);
            while !done.load(Ordering::Relaxed) {
                view.transact(&rt, async |tx| {
                    let v = tx.read(w).await?;
                    tx.write(w, v + 1).await?;
                    tx.local_work(0, 0, SHORT_WORK).await;
                    Ok(())
                })
                .await;
            }
        });
    }

    let out = ex.run();
    let s = view.stats().tm;
    Outcome {
        status: out.status,
        victim_attempts: attempts.load(Ordering::Relaxed),
        victim_committed: done.load(Ordering::Relaxed),
        commits: s.commits,
        aborts: s.aborts,
        cm_kills: s.aborts_by_reason[AbortReason::CmKilled.index()],
        max_streak: s.max_abort_streak,
    }
}

fn main() {
    let seed = 3u64;
    println!("starvation duel (seed {seed}): one long transaction vs {HOT_WORDS} campers");
    println!(
        "  victim: {PRE_WORK} pre-work + {HOT_WORDS} hot writes + {VICTIM_WORK} hold, \
         every op delayed by a targeted fault plan"
    );
    println!("  campers: read-increment-hold({SHORT_WORK}) loops, one per hot word\n");
    println!(
        "  {:<16} {:<10} {:>8} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "policy", "outcome", "attempts", "commits", "aborts", "cm-kills", "streak", "victim"
    );
    let mut starved = 0u32;
    let mut rescued = 0u32;
    for policy in CmPolicy::ALL {
        let o = duel(policy, seed);
        let outcome = match o.status {
            RunStatus::Completed => "completed",
            RunStatus::Livelock => "livelock",
            other => {
                panic!("{policy:?}: unexpected {other:?}");
            }
        };
        println!(
            "  {:<16} {:<10} {:>8} {:>9} {:>9} {:>9} {:>9} {:>7}",
            policy.name(),
            outcome,
            o.victim_attempts,
            o.commits,
            o.aborts,
            o.cm_kills,
            o.max_streak,
            if o.victim_committed {
                "commit"
            } else {
                "starved"
            },
        );
        if o.victim_committed {
            rescued += 1;
        } else {
            starved += 1;
        }
    }
    println!();
    assert!(starved >= 1, "the backoff leg must demonstrate starvation");
    let priority_policies = CmPolicy::ALL.len() as u32 - 1;
    assert_eq!(
        rescued, priority_policies,
        "every priority policy must rescue the victim"
    );
    println!("starvation_duel OK: {starved} starving leg(s), {rescued} rescued leg(s)");
}
