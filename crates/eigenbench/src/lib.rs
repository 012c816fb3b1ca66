//! The modified two-view Eigenbench microbenchmark (paper §III-A, Fig. 3,
//! Table II).
//!
//! Eigenbench (Hong et al., IISWC'10) generates transactions from orthogonal
//! parameters. The paper's modification gives the program **two views**,
//! each with its own hot array (shared, conflict-prone), mild array (shared
//! but per-thread subarrays — rollback weight without conflicts) and cold
//! array (thread-local), plus per-view access counts:
//!
//! | Param | View 1 | View 2 | Meaning |
//! |-------|--------|--------|---------|
//! | loops | 100k   | 100k   | transactions per thread per view |
//! | A1    | 256    | 16k    | hot-array words |
//! | A2    | 16k    | 16k    | mild-array words |
//! | A3    | 8k     | 8k     | cold-array words (thread-local) |
//! | R1/W1 | 80/20  | 10/10  | hot reads/writes per tx |
//! | R2/W2 | 10/10  | 10/10  | mild reads/writes per tx |
//! | R3i/W3i/NOPi | 0/0/0 | 5/1/20 | local work between shared accesses |
//!
//! View 1 is the *high-contention* object (many writes to a small hot
//! array); view 2 is *low-contention*. Four program versions are built from
//! the same transaction bodies:
//!
//! * **single-view** — both objects in one view (one TM + one RAC);
//! * **multi-view** — one view per object (the VOTM proposal);
//! * **multi-TM** — two views, RAC disabled (isolates the metadata-
//!   splitting effect);
//! * **TM** — one TM, no RAC (plain RSTM baseline).

#![warn(missing_docs)]

use std::sync::Arc;

pub use votm::Version;

use votm::{
    Addr, ClockKind, CmPolicy, FlightRecorder, QuotaMode, TmAlgorithm, TxError, TxHandle, View,
    ViewStats, Votm,
};
use votm_sim::{Rt, RunOutcome, SimConfig, SimExecutor};
use votm_utils::{SplitMix64, XorShift64};

/// Per-view workload parameters (one column of Table II).
#[derive(Debug, Clone, Copy)]
pub struct ViewParams {
    /// Transactions per thread touching this view.
    pub loops: u64,
    /// Hot-array words (shared, conflicts).
    pub a1: u64,
    /// Mild-array words (shared; each thread owns `a2 / n` of them).
    pub a2: u64,
    /// Cold-array words (thread-local; modelled as local work).
    pub a3: u64,
    /// Hot reads per transaction.
    pub r1: u32,
    /// Hot writes per transaction.
    pub w1: u32,
    /// Mild reads per transaction.
    pub r2: u32,
    /// Mild writes per transaction.
    pub w2: u32,
    /// Cold reads between consecutive shared accesses.
    pub r3i: u64,
    /// Cold writes between consecutive shared accesses.
    pub w3i: u64,
    /// NOP instructions between consecutive shared accesses.
    pub nopi: u64,
}

impl ViewParams {
    /// Words this object needs in a heap (hot + mild arrays).
    pub fn words(&self) -> u64 {
        self.a1 + self.a2
    }
}

/// Whole-benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct EigenConfig {
    /// Thread count `N`.
    pub n_threads: u32,
    /// High-contention object.
    pub view1: ViewParams,
    /// Low-contention object.
    pub view2: ViewParams,
    /// Cold reads outside transactions (paper: 0).
    pub r3o: u64,
    /// Cold writes outside transactions (paper: 0).
    pub w3o: u64,
    /// NOPs outside transactions (paper: 0).
    pub nopo: u64,
    /// Workload seed (per-thread streams derived via SplitMix).
    pub seed: u64,
}

impl EigenConfig {
    /// The paper's Table II parameters, with `loops` scaled by `scale`
    /// (1.0 = the full 100k × 2 × 16 threads = 3.2M transactions).
    pub fn paper_table2(scale: f64) -> Self {
        let loops = ((100_000.0 * scale).round() as u64).max(1);
        Self {
            n_threads: 16,
            view1: ViewParams {
                loops,
                a1: 256,
                a2: 16 * 1024,
                a3: 8 * 1024,
                r1: 80,
                w1: 20,
                r2: 10,
                w2: 10,
                r3i: 0,
                w3i: 0,
                nopi: 0,
            },
            view2: ViewParams {
                loops,
                a1: 16 * 1024,
                a2: 16 * 1024,
                a3: 8 * 1024,
                r1: 10,
                w1: 10,
                r2: 10,
                w2: 10,
                r3i: 5,
                w3i: 1,
                nopi: 20,
            },
            r3o: 0,
            w3o: 0,
            nopo: 0,
            seed: 1,
        }
    }
}

/// Result of one benchmark run.
#[derive(Debug, Clone)]
pub struct EigenResult {
    /// Simulator outcome (makespan, livelock flag).
    pub outcome: RunOutcome,
    /// Per-view statistics in view order (one entry for single-view/TM).
    pub views: Vec<ViewStats>,
}

/// Where one object lives and where it starts in that view's heap.
#[derive(Clone, Copy)]
struct ObjectMap {
    view_idx: usize,
    hot_base: u32,
    mild_base: u32,
}

/// One transaction body: `r1+w1` hot + `r2+w2` mild accesses in random
/// order with local work between consecutive shared accesses (Fig. 3).
#[allow(clippy::too_many_arguments)]
async fn eigen_tx(
    tx: &mut TxHandle<'_>,
    rng: &mut XorShift64,
    p: &ViewParams,
    hot_base: u32,
    mild_base: u32,
    mild_lo: u64,
    mild_span: u64,
) -> Result<(), TxError> {
    // Remaining counts per op kind: hot-read, hot-write, mild-read,
    // mild-write; pick proportionally so the interleaving is random but the
    // totals exact.
    let mut rem = [
        u64::from(p.r1),
        u64::from(p.w1),
        u64::from(p.r2),
        u64::from(p.w2),
    ];
    let mut left: u64 = rem.iter().sum();
    let mut first = true;
    while left > 0 {
        if !first && (p.r3i | p.w3i | p.nopi) != 0 {
            tx.local_work(p.r3i, p.w3i, p.nopi).await;
        }
        first = false;
        let mut pick = rng.next_below(left);
        let mut kind = 0;
        for (k, &r) in rem.iter().enumerate() {
            if pick < r {
                kind = k;
                break;
            }
            pick -= r;
        }
        rem[kind] -= 1;
        left -= 1;
        match kind {
            0 => {
                let a = Addr(hot_base + rng.next_below(p.a1) as u32);
                tx.read(a).await?;
            }
            1 => {
                let a = Addr(hot_base + rng.next_below(p.a1) as u32);
                tx.write(a, rng.next_u64()).await?;
            }
            2 => {
                let a = Addr(mild_base + (mild_lo + rng.next_below(mild_span)) as u32);
                tx.read(a).await?;
            }
            _ => {
                let a = Addr(mild_base + (mild_lo + rng.next_below(mild_span)) as u32);
                tx.write(a, rng.next_u64()).await?;
            }
        }
    }
    Ok(())
}

/// Builds the views for `version` and returns them with the object→view
/// mapping.
fn build_views(
    sys: &Votm,
    config: &EigenConfig,
    version: Version,
    quotas: [QuotaMode; 2],
) -> (Vec<Arc<View>>, [ObjectMap; 2]) {
    let w1 = config.view1.words();
    let w2 = config.view2.words();
    let [q1, q2] = version.quotas(quotas);
    if version.splits_objects() {
        let v1 = sys.create_view(w1 as usize, q1);
        let v2 = sys.create_view(w2 as usize, q2);
        let maps = [
            ObjectMap {
                view_idx: 0,
                hot_base: 0,
                mild_base: config.view1.a1 as u32,
            },
            ObjectMap {
                view_idx: 1,
                hot_base: 0,
                mild_base: config.view2.a1 as u32,
            },
        ];
        (vec![v1, v2], maps)
    } else {
        let view = sys.create_view((w1 + w2) as usize, q1);
        let maps = [
            ObjectMap {
                view_idx: 0,
                hot_base: 0,
                mild_base: config.view1.a1 as u32,
            },
            ObjectMap {
                view_idx: 0,
                hot_base: w1 as u32,
                mild_base: (w1 + config.view2.a1) as u32,
            },
        ];
        (vec![view], maps)
    }
}

/// Runs the benchmark under the virtual-time simulator.
///
/// `quotas[i]` applies to the view holding object `i+1` (for single-view
/// versions only `quotas[0]` is used). `sim.vtime_cap` is the livelock
/// watchdog.
pub fn run_sim(
    config: &EigenConfig,
    algo: TmAlgorithm,
    version: Version,
    quotas: [QuotaMode; 2],
    sim: SimConfig,
) -> EigenResult {
    run_sim_recorded(config, algo, version, quotas, sim, None)
}

/// Like [`run_sim`] but traces every transaction-lifecycle event into
/// `recorder` (one ring per simulated thread). Because recording charges no
/// virtual cycles, the outcome — makespan, commit/abort counts, quota
/// trajectory — is identical to the unrecorded run with the same seed.
pub fn run_sim_recorded(
    config: &EigenConfig,
    algo: TmAlgorithm,
    version: Version,
    quotas: [QuotaMode; 2],
    sim: SimConfig,
    recorder: Option<Arc<FlightRecorder>>,
) -> EigenResult {
    run_sim_clock(
        config,
        algo,
        version,
        quotas,
        sim,
        recorder,
        CmPolicy::Backoff,
        ClockKind::Global,
    )
}

/// Like [`run_sim_recorded`] but additionally selects the views'
/// contention-management policy and TM clock strategy — the per-policy and
/// clock-variant gate rows compare the same workload across
/// [`CmPolicy`]s and [`ClockKind`]s with this.
#[allow(clippy::too_many_arguments)] // a flat parameter list mirrors run_sim_recorded
pub fn run_sim_clock(
    config: &EigenConfig,
    algo: TmAlgorithm,
    version: Version,
    quotas: [QuotaMode; 2],
    sim: SimConfig,
    recorder: Option<Arc<FlightRecorder>>,
    contention: CmPolicy,
    clock: ClockKind,
) -> EigenResult {
    let mut b = Votm::builder()
        .algo(algo)
        .threads(config.n_threads)
        .policy(contention)
        .clock(clock);
    if let Some(recorder) = recorder {
        b = b.recorder(recorder);
    }
    let sys = b.build();
    let (views, maps) = build_views(&sys, config, version, quotas);

    let mut ex = SimExecutor::new(sim);
    let mut seeds = SplitMix64::new(config.seed);
    for t in 0..config.n_threads as u64 {
        let views: Vec<Arc<View>> = views.clone();
        let mut rng = seeds.derive();
        let config = *config;
        ex.spawn(move |rt: Rt| async move {
            // Per-thread schedule: loops1 view-1 iterations and loops2
            // view-2 iterations, randomly interleaved but with exact totals
            // (Fig. 3 "acquire view 1 or 2 randomly").
            let mut todo = [config.view1.loops, config.view2.loops];
            let n = config.n_threads;
            while todo[0] + todo[1] > 0 {
                let pick = rng.next_below(todo[0] + todo[1]);
                let obj = usize::from(pick >= todo[0]);
                todo[obj] -= 1;
                let p = if obj == 0 { config.view1 } else { config.view2 };
                let map = maps[obj];
                let view = &views[map.view_idx];
                let mild_span = (p.a2 / u64::from(n)).max(1);
                let mild_lo = t * mild_span;
                view.transact(&rt, async |tx| {
                    eigen_tx(
                        tx,
                        &mut rng,
                        &p,
                        map.hot_base,
                        map.mild_base,
                        mild_lo,
                        mild_span,
                    )
                    .await
                })
                .await;
                // Activities outside transactions.
                if (config.r3o | config.w3o | config.nopo) != 0 {
                    let cycles = (config.r3o + config.w3o) * votm_stm::cost::LOCAL_ACCESS
                        + config.nopo * votm_stm::cost::NOP;
                    rt.work(cycles).await;
                }
            }
        });
    }
    let outcome = ex.run();
    EigenResult {
        outcome,
        views: views.iter().map(|v| v.stats()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use votm_sim::RunStatus;

    fn tiny(loops: u64) -> EigenConfig {
        let mut c = EigenConfig::paper_table2(1.0);
        c.n_threads = 4;
        c.view1.loops = loops;
        c.view2.loops = loops;
        // Shrink transactions so tests are fast but shapes survive.
        c.view1.r1 = 8;
        c.view1.w1 = 4;
        c.view1.r2 = 2;
        c.view1.w2 = 2;
        c.view1.a1 = 32;
        c.view2.r1 = 2;
        c.view2.w1 = 2;
        c.view2.r2 = 2;
        c.view2.w2 = 2;
        c
    }

    #[test]
    fn all_versions_commit_exact_transaction_counts() {
        let config = tiny(20);
        for version in Version::ALL {
            let res = run_sim(
                &config,
                TmAlgorithm::NOrec,
                version,
                [QuotaMode::Adaptive, QuotaMode::Adaptive],
                SimConfig::default(),
            );
            assert_eq!(res.outcome.status, RunStatus::Completed, "{version:?}");
            let commits: u64 = res.views.iter().map(|v| v.tm.commits).sum();
            assert_eq!(commits, 4 * 40, "{version:?}: every tx commits once");
        }
    }

    #[test]
    fn multi_view_splits_transactions_evenly() {
        let config = tiny(30);
        let res = run_sim(
            &config,
            TmAlgorithm::NOrec,
            Version::MultiView,
            [QuotaMode::Fixed(4), QuotaMode::Fixed(4)],
            SimConfig::default(),
        );
        assert_eq!(res.views.len(), 2);
        assert_eq!(res.views[0].tm.commits, 120);
        assert_eq!(res.views[1].tm.commits, 120);
    }

    #[test]
    fn view1_is_hotter_than_view2() {
        let mut config = tiny(60);
        config.view1.w1 = 8; // push contention up
        let res = run_sim(
            &config,
            TmAlgorithm::NOrec,
            Version::MultiView,
            [QuotaMode::Fixed(4), QuotaMode::Fixed(4)],
            SimConfig::default(),
        );
        assert!(
            res.views[0].tm.aborts > res.views[1].tm.aborts,
            "hot view {} aborts vs cold view {}",
            res.views[0].tm.aborts,
            res.views[1].tm.aborts
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let config = tiny(15);
        let a = run_sim(
            &config,
            TmAlgorithm::OrecEagerRedo,
            Version::SingleView,
            [QuotaMode::Fixed(4), QuotaMode::Fixed(4)],
            SimConfig::default(),
        );
        let b = run_sim(
            &config,
            TmAlgorithm::OrecEagerRedo,
            Version::SingleView,
            [QuotaMode::Fixed(4), QuotaMode::Fixed(4)],
            SimConfig::default(),
        );
        assert_eq!(a.outcome.vtime, b.outcome.vtime);
        assert_eq!(a.views[0].tm, b.views[0].tm);
    }

    #[test]
    fn paper_config_shape() {
        let c = EigenConfig::paper_table2(1.0);
        assert_eq!(c.n_threads, 16);
        assert_eq!(c.view1.loops, 100_000);
        // Shared accesses per transaction, as in the paper's Table II.
        let accesses = |v: &ViewParams| v.r1 + v.w1 + v.r2 + v.w2;
        assert_eq!(accesses(&c.view1), 120);
        assert_eq!(accesses(&c.view2), 40);
        let half = EigenConfig::paper_table2(0.5);
        assert_eq!(half.view1.loops, 50_000);
    }
}
