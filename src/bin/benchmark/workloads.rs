//! The six workloads. Each repetition reads the host probe, performs its own
//! set-up and its own run, all inside spans of the caller's [`Tracer`]; the
//! spans are the benchmark's timers (`setup_s` and `wall_s` are read off
//! them).
//!
//! All workloads are closed loops of fixed size: every logical thread issues
//! its next transaction when the previous one commits, and sizes are counts,
//! never durations, so the virtual results of a seed are exact.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use votm::{
    Addr, DomainStats, FlightRecorder, QuotaMode, RepartitionPolicy, TmAlgorithm, View, ViewStats,
    Votm, VotmBuilder,
};
use votm_ds::BoundedBuffer;
use votm_eigenbench::EigenConfig;
use votm_intruder::GenConfig;
use votm_obs::export::chrome_trace;
use votm_obs::ConflictProfile;
use votm_sim::{run_parallel, RunOutcome, RunStatus, SchedStats, SimConfig, SimExecutor};
use votm_utils::{SplitMix64, XorShift64};

use crate::measure::{calibration_ns, Tracer};

/// Logical threads of every simulated workload (the paper's N).
const N: u32 = 16;

// Frozen sizes (scale 1.0), calibrated so one repetition runs 1.5–3 s on the
// 2-core reference host; see README.md "Frozen sizes".
const EIGEN_HOT_LOOPS: u64 = 500;
const EIGEN_SPLIT_LOOPS: u64 = 2_500;
const INTRUDER_FLOWS: u64 = 12_288;
const PIPELINE_ITEMS_PER_PRODUCER: u64 = 2_000;
const ZIPF_OPS_PER_THREAD: u64 = 2_400;
const MIX_PLAN_TXNS: u64 = 60_000;
/// Times the real-thread path replays the mix plan in one repetition.
const MIX_REAL_PASSES: u64 = 20;

const PIPELINE_PRODUCERS: u64 = 8;
const PIPELINE_CONSUMERS: u64 = 8;
const PIPELINE_CAPACITY: u32 = 16;
const PIPELINE_THINK_CYCLES: u64 = 60_000;

const DOMAIN_WORDS: usize = 4096;
const ZIPF_GROUP_B_BASE: u64 = 2048;
const ZIPF_SPAN: u64 = 96;
const ZIPF_EXPONENT: f64 = 1.1;
const ZIPF_READ_ONLY_PERCENT: u64 = 20;
const ZIPF_ACCESSES: usize = 3;

const MIX_WORDS: u32 = 4096;
/// Words `[MIX_COUNTER_BASE, MIX_WORDS)` hold read-modify-write counters and
/// are never targeted by the blind-write transactions, so their sum checks
/// the run.
const MIX_COUNTER_BASE: u32 = 2048;
const MIX_READS: u32 = 64;
const MIX_WRITES: u32 = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EigenHot1v,
    EigenSplit2v,
    Intruder2v,
    BlockingPipeline,
    ZipfAdaptiveRec,
    Real1tMix,
}

/// What one repetition measured and observed.
#[derive(Debug, Clone)]
pub struct Rep {
    /// The host probe's reading as this repetition began.
    pub calib_ns: f64,
    /// Everything before the timed region: the probe, input generation,
    /// system and views, fill and task spawn.
    pub setup_s: f64,
    pub wall_s: f64,
    pub run: RunStats,
    /// Flight-recorder totals of a traced repetition.
    pub events: Option<EventTotals>,
    /// `None`: `wall_s` is the simulator running `run`. `Some(k)`: `wall_s` is
    /// `k` replays of `run`'s transactions on a real thread, outside the
    /// simulator (`real_1t_mix`).
    pub real_replays: Option<u64>,
}

impl Rep {
    /// Modelled events `wall_s` paid for: the simulator's step count, or for
    /// real-thread replays the steps the model takes for the same work.
    pub fn host_steps(&self) -> u64 {
        self.run.steps * self.real_replays.unwrap_or(1)
    }
}

/// The virtual-currency outcome of a repetition plus its correctness checks.
#[derive(Debug, Clone)]
pub struct RunStats {
    pub completed: bool,
    pub vtime: u64,
    pub steps: u64,
    pub sched: SchedStats,
    pub views: Vec<ViewStats>,
    /// `adaptive[i]`: view `i` runs a RAC controller.
    pub adaptive: Vec<bool>,
    pub domain: Option<DomainStats>,
    pub n_threads: u32,
    pub expected_commits: u64,
    /// Conservation, checksum and count mismatches found by the workload's
    /// own output check.
    pub check_errors: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct EventTotals {
    pub recorded: u64,
    pub dropped: u64,
}

/// Everything that must repeat exactly for a fixed seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub vtime: u64,
    pub commits: u64,
    pub aborts: u64,
    pub steps: u64,
    pub quotas: Vec<u32>,
}

impl RunStats {
    pub fn commits(&self) -> u64 {
        self.views.iter().map(|v| v.tm.commits).sum()
    }

    pub fn aborts(&self) -> u64 {
        self.views.iter().map(|v| v.tm.aborts).sum()
    }

    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            vtime: self.vtime,
            commits: self.commits(),
            aborts: self.aborts(),
            steps: self.steps,
            quotas: self.views.iter().map(|v| v.quota).collect(),
        }
    }

    /// Transactions that did not complete correctly, out of
    /// `expected_commits`: everything if the run did not complete.
    pub fn failed(&self) -> u64 {
        if !self.completed {
            return self.expected_commits;
        }
        let lost: u64 = self.views.iter().map(|v| v.tm.lost_wakeups).sum();
        (self.expected_commits.abs_diff(self.commits()) + lost + self.check_errors)
            .min(self.expected_commits)
    }

    fn from_sim(outcome: &RunOutcome, views: Vec<ViewStats>, adaptive: Vec<bool>) -> RunStats {
        RunStats {
            completed: outcome.status == RunStatus::Completed,
            vtime: outcome.vtime,
            steps: outcome.steps,
            sched: outcome.sched,
            views,
            adaptive,
            domain: None,
            n_threads: N,
            expected_commits: 0,
            check_errors: 0,
        }
    }
}

fn scaled(full: u64, scale: f64) -> u64 {
    ((full as f64 * scale).round() as u64).max(1)
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..SimConfig::default()
    }
}

/// A system builder with `recorder` attached when the repetition is traced.
fn builder(recorder: Option<&Arc<FlightRecorder>>) -> VotmBuilder {
    let b = Votm::builder();
    match recorder {
        Some(r) => b.recorder(Arc::clone(r)),
        None => b,
    }
}

/// Drains `recorder` through the three export stages, one span each.
fn export(recorder: &FlightRecorder, tracer: &mut Tracer) -> EventTotals {
    tracer.span("export", |t| {
        let traces = t.span("snapshot", |_| recorder.snapshot());
        let profile = t.span("profile_fold", |_| ConflictProfile::from_traces(&traces));
        let chrome = t.span("chrome_trace", |_| chrome_trace(&traces, 2500));
        black_box((profile.attributed_cycles_total(), chrome.len()));
        EventTotals {
            recorded: traces.iter().map(|t| t.recorded).sum(),
            dropped: traces.iter().map(|t| t.dropped).sum(),
        }
    })
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::EigenHot1v,
        Workload::EigenSplit2v,
        Workload::Intruder2v,
        Workload::BlockingPipeline,
        Workload::ZipfAdaptiveRec,
        Workload::Real1tMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EigenHot1v => "eigen_hot_1v",
            Workload::EigenSplit2v => "eigen_split_2v",
            Workload::Intruder2v => "intruder_2v",
            Workload::BlockingPipeline => "blocking_pipeline",
            Workload::ZipfAdaptiveRec => "zipf_adaptive_rec",
            Workload::Real1tMix => "real_1t_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One repetition at `scale` (1.0 = the frozen sizes). `traced` attaches
    /// a flight recorder wherever the public API takes one and exports it
    /// afterwards; virtual results must not change.
    pub fn rep(self, seed: u64, scale: f64, traced: bool, tracer: &mut Tracer) -> Rep {
        let calib_ns = tracer.span("host_probe", |_| calibration_ns());
        let (run, events, real_replays) = match self {
            Workload::EigenHot1v => eigen(&EIGEN_HOT, seed, scale, traced, tracer),
            Workload::EigenSplit2v => eigen(&EIGEN_SPLIT, seed, scale, traced, tracer),
            Workload::Intruder2v => intruder(seed, scale, tracer),
            Workload::BlockingPipeline => pipeline(seed, scale, traced, tracer),
            Workload::ZipfAdaptiveRec => zipf(seed, scale, traced, tracer),
            Workload::Real1tMix => mix(seed, scale, traced, tracer),
        };
        Rep {
            calib_ns,
            setup_s: tracer.last_s("host_probe") + tracer.last_s("setup"),
            wall_s: tracer.last_s("run"),
            run,
            events,
            real_replays,
        }
    }
}

/// Run outcome, recorder totals, real-thread replays (see [`Rep`]).
type RepParts = (RunStats, Option<EventTotals>, Option<u64>);

/// One Eigenbench (Table II) layout.
struct EigenLayout {
    /// Transactions per thread per object at scale 1.0.
    loops: u64,
    algo: TmAlgorithm,
    version: votm_eigenbench::Version,
    /// Quota of the view holding the hot object, then of the cold object's
    /// view (a single view uses the first).
    quotas: [QuotaMode; 2],
}

const EIGEN_HOT: EigenLayout = EigenLayout {
    loops: EIGEN_HOT_LOOPS,
    algo: TmAlgorithm::NOrec,
    version: votm_eigenbench::Version::SingleView,
    quotas: [QuotaMode::Adaptive; 2],
};

/// The hot view is pinned at Q = 2, the quota its controller settles at on
/// every seed tried. Left adaptive, OrecEagerRedo's controller takes excursions
/// whose timing depends chaotically on the seed: throughput then spreads 15 %
/// (IQR over ten seeds) at any run length, which no useful regression bound
/// survives. The cold view's controller stays live; `eigen_hot_1v` covers a
/// controller that actually moves.
const EIGEN_SPLIT: EigenLayout = EigenLayout {
    loops: EIGEN_SPLIT_LOOPS,
    algo: TmAlgorithm::OrecEagerRedo,
    version: votm_eigenbench::Version::MultiView,
    quotas: [QuotaMode::Fixed(2), QuotaMode::Adaptive],
};

/// Eigenbench through `votm_eigenbench::run_sim_recorded`. That call builds
/// its system and views itself, inside the timed region: the set-up left
/// outside it is the configuration.
fn eigen(
    layout: &EigenLayout,
    seed: u64,
    scale: f64,
    traced: bool,
    tracer: &mut Tracer,
) -> RepParts {
    let &EigenLayout {
        loops,
        algo,
        version,
        quotas,
    } = layout;
    let config = tracer.span("setup", |t| {
        t.span("gen_input", |_| {
            let mut c = EigenConfig::paper_table2(1.0);
            c.view1.loops = scaled(loops, scale);
            c.view2.loops = scaled(loops, scale);
            c.seed = seed;
            c
        })
    });
    let recorder = traced.then(|| Arc::new(FlightRecorder::with_default_capacity(N as usize)));
    let res = tracer.span("run", |_| {
        votm_eigenbench::run_sim_recorded(
            &config,
            algo,
            version,
            quotas,
            sim_config(seed),
            recorder.clone(),
        )
    });
    let run = tracer.span("collect_stats", |_| {
        let adaptive = quotas[..res.views.len()]
            .iter()
            .map(|q| *q == QuotaMode::Adaptive)
            .collect();
        let mut run = RunStats::from_sim(&res.outcome, res.views, adaptive);
        run.expected_commits = u64::from(N) * (config.view1.loops + config.view2.loops);
        run
    });
    let events = recorder.map(|r| export(&r, tracer));
    (run, events, None)
}

/// STAMP Intruder through `votm_intruder::generate` + `run_sim`. The run call
/// takes no recorder, so a traced repetition adds spans and counters only.
fn intruder(seed: u64, scale: f64, tracer: &mut Tracer) -> RepParts {
    let input = tracer.span("setup", |t| {
        t.span("gen_input", |_| {
            Arc::new(votm_intruder::generate(&GenConfig {
                attack_percent: 10,
                max_length: 128,
                flows: scaled(INTRUDER_FLOWS, scale),
                seed,
            }))
        })
    });
    let res = tracer.span("run", |_| {
        votm_intruder::run_sim(
            &input,
            N,
            TmAlgorithm::OrecLazy,
            votm_intruder::Version::MultiView,
            [QuotaMode::Adaptive; 2],
            sim_config(seed),
        )
    });
    let run = tracer.span("collect_stats", |_| {
        let adaptive = vec![true; res.views.len()];
        let mut run = RunStats::from_sim(&res.outcome, res.views, adaptive);
        let packets = input.packets.len() as u64;
        // One capture and one decode per packet, plus each thread's final
        // empty pop.
        run.expected_commits = 2 * packets + u64::from(N);
        run.check_errors = res.flows_processed.abs_diff(input.flows)
            + res.attacks_found.abs_diff(input.attacks_injected)
            + res.checksum_errors;
        run
    });
    (run, None, None)
}

/// Producers and consumers around one `BoundedBuffer`, blocking with
/// `retry()`: the simulator's `Notify` wait/wake path and the core's
/// park/publish path instead of `charge`.
fn pipeline(seed: u64, scale: f64, traced: bool, tracer: &mut Tracer) -> RepParts {
    let items = scaled(PIPELINE_ITEMS_PER_PRODUCER, scale);
    let total = PIPELINE_PRODUCERS * items;
    let per_consumer = total / PIPELINE_CONSUMERS;
    let recorder = traced.then(|| Arc::new(FlightRecorder::with_default_capacity(N as usize)));
    let consumed = Arc::new(AtomicU64::new(0));

    let (view, mut ex) = tracer.span("setup", |t| {
        let view = t.span("build_views", |_| {
            builder(recorder.as_ref())
                .algo(TmAlgorithm::NOrec)
                .threads(N)
                .escalate_after(Some(64))
                .build()
                .create_view((2 + PIPELINE_CAPACITY + 64) as usize, QuotaMode::Fixed(N))
        });
        let ex = t.span("fill", |_| {
            let buf = BoundedBuffer::create(&view, PIPELINE_CAPACITY);
            let mut ex = SimExecutor::new(sim_config(seed));
            for p in 0..PIPELINE_PRODUCERS {
                let view = Arc::clone(&view);
                ex.spawn(move |rt| async move {
                    for i in 0..items {
                        rt.charge(PIPELINE_THINK_CYCLES).await;
                        let value = p * items + i;
                        view.transact(&rt, async |tx| buf.push(tx, value).await)
                            .await;
                    }
                });
            }
            for _ in 0..PIPELINE_CONSUMERS {
                let view = Arc::clone(&view);
                let consumed = Arc::clone(&consumed);
                ex.spawn(move |rt| async move {
                    for _ in 0..per_consumer {
                        let v = view.transact(&rt, async |tx| buf.pop(tx).await).await;
                        consumed.fetch_add(v, Ordering::Relaxed);
                    }
                });
            }
            ex
        });
        (view, ex)
    });
    let outcome = tracer.span("run", |_| ex.run());
    let run = tracer.span("collect_stats", |_| {
        let mut run = RunStats::from_sim(&outcome, vec![view.stats()], vec![false]);
        run.expected_commits = 2 * total;
        let expected_sum: u64 = (0..total).sum();
        run.check_errors = u64::from(consumed.load(Ordering::Relaxed) != expected_sum);
        run
    });
    let events = recorder.map(|r| export(&r, tracer));
    (run, events, None)
}

/// One planned transaction of `zipf_adaptive_rec`.
#[derive(Clone, Copy)]
struct ZipfOp {
    addrs: [u32; ZIPF_ACCESSES],
    read_only: bool,
}

/// Access plans for every thread, drawn outside the transaction bodies so
/// re-executions never consume randomness. Even threads work the range at
/// word 0, odd threads the range at `ZIPF_GROUP_B_BASE`.
fn zipf_plans(seed: u64, ops_per_thread: u64) -> Vec<Vec<ZipfOp>> {
    let mut acc = 0.0;
    let cdf: Vec<f64> = (1..=ZIPF_SPAN)
        .map(|rank| {
            acc += 1.0 / (rank as f64).powf(ZIPF_EXPONENT);
            acc
        })
        .collect();
    let mut seeds = SplitMix64::new(seed);
    (0..N as usize)
        .map(|t| {
            let mut rng = seeds.derive();
            let base = if t % 2 == 0 { 0 } else { ZIPF_GROUP_B_BASE };
            (0..ops_per_thread)
                .map(|_| ZipfOp {
                    addrs: std::array::from_fn(|_| {
                        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * acc;
                        let rank = (cdf.partition_point(|&c| c < u) as u64).min(ZIPF_SPAN - 1);
                        (base + rank) as u32
                    }),
                    read_only: rng.chance_percent(ZIPF_READ_ONLY_PERCENT),
                })
                .collect()
        })
        .collect()
}

/// An `AdaptiveDomain` that starts as one view and splits live, driven by the
/// flight recorder's conflict profile: the recorder and the drain barrier are
/// on the hot path in traced and untraced repetitions alike.
fn zipf(seed: u64, scale: f64, traced: bool, tracer: &mut Tracer) -> RepParts {
    let ops_per_thread = scaled(ZIPF_OPS_PER_THREAD, scale);
    let recorder = Arc::new(FlightRecorder::new(N as usize + 1, 1 << 14));
    let (domain, mut ex, increments) = tracer.span("setup", |t| {
        let plans = t.span("gen_input", |_| zipf_plans(seed, ops_per_thread));
        let increments: u64 =
            plans.iter().flatten().filter(|op| !op.read_only).count() as u64 * ZIPF_ACCESSES as u64;
        let domain = t.span("build_views", |_| {
            Votm::builder()
                .algo(TmAlgorithm::NOrec)
                .threads(N)
                .recorder(Arc::clone(&recorder))
                .build()
                .create_domain(
                    DOMAIN_WORDS,
                    QuotaMode::Fixed(N),
                    RepartitionPolicy {
                        interval: 1 << 13,
                        cooldown: 1 << 15,
                        min_separability: 0.6,
                        min_waste_share: 0.01,
                        min_aborts: 8,
                        merge_cross_threshold: 8,
                        max_views: 4,
                    },
                )
        });
        let ex = t.span("fill", |_| {
            let remaining = Arc::new(AtomicUsize::new(N as usize));
            let mut ex = SimExecutor::new(sim_config(seed));
            for plan in plans {
                let domain = Arc::clone(&domain);
                let remaining = Arc::clone(&remaining);
                ex.spawn(move |rt| async move {
                    for op in plan {
                        domain
                            .transact(&rt, Addr(op.addrs[0]), async |tx| {
                                for a in op.addrs {
                                    let v = tx.read(Addr(a)).await?;
                                    if !op.read_only {
                                        tx.write(Addr(a), v + 1).await?;
                                    }
                                }
                                Ok(())
                            })
                            .await;
                    }
                    remaining.fetch_sub(1, Ordering::AcqRel);
                });
            }
            let domain = Arc::clone(&domain);
            ex.spawn(move |rt| async move {
                domain.run_controller(&rt, &remaining).await;
            });
            ex
        });
        (domain, ex, increments)
    });
    let outcome = tracer.span("run", |_| ex.run());
    let run = tracer.span("collect_stats", |_| {
        let views: Vec<ViewStats> = domain.views().iter().map(|v| v.stats()).collect();
        let adaptive = vec![false; views.len()];
        let mut run = RunStats::from_sim(&outcome, views, adaptive);
        let stats = domain.stats();
        // Every stale-route re-dispatch leaves its view through one empty
        // commit on top of the planned transactions.
        run.expected_commits = u64::from(N) * ops_per_thread + stats.reroutes;
        let word_sum: u64 = (0..DOMAIN_WORDS as u32)
            .map(|i| domain.heap().load(Addr(i)))
            .sum();
        // A full-size run must split at least once; a scaled-down one may end
        // before the controller's hysteresis lets it.
        let never_split = scale >= 1.0 && stats.repartitions == 0;
        run.check_errors = u64::from(word_sum != increments) + u64::from(never_split);
        run.domain = Some(stats);
        run
    });
    let events = traced.then(|| export(&recorder, tracer));
    (run, events, None)
}

#[derive(Clone, Copy)]
enum MixOp {
    /// `MIX_READS` reads striding from `base`.
    Reads { base: u32 },
    /// `MIX_WRITES` blind writes of `value` below `MIX_COUNTER_BASE`.
    Writes { base: u32, value: u64 },
    /// Increment of one counter word.
    Rmw { addr: u32 },
}

fn mix_plan(seed: u64, txns: u64) -> Vec<MixOp> {
    let mut rng = XorShift64::new(seed);
    (0..txns)
        .map(|i| match (i / 3) % 3 {
            0 => MixOp::Reads {
                base: rng.next_below(u64::from(MIX_WORDS)) as u32,
            },
            1 => MixOp::Writes {
                base: rng.next_below(u64::from(MIX_COUNTER_BASE)) as u32,
                value: rng.next_u64(),
            },
            _ => MixOp::Rmw {
                addr: MIX_COUNTER_BASE
                    + rng.next_below(u64::from(MIX_WORDS - MIX_COUNTER_BASE)) as u32,
            },
        })
        .collect()
}

/// One view per algorithm; transaction `i` of the plan runs on view `i % 3`.
fn mix_views(recorder: Option<&Arc<FlightRecorder>>) -> Vec<Arc<View>> {
    // Two threads' worth of quota keeps admission transactional: at Q = 1
    // the gate would hand out uninstrumented lock mode and skip the STM.
    let sys = builder(recorder).threads(2).build();
    TmAlgorithm::ALL
        .into_iter()
        .map(|algo| sys.create_view_with_algorithm(MIX_WORDS as usize, QuotaMode::Fixed(2), algo))
        .collect()
}

async fn mix_replay(views: &[Arc<View>], plan: &[MixOp], rt: &votm_sim::Rt) -> u64 {
    let mut acc = 0u64;
    for (i, op) in plan.iter().enumerate() {
        acc = acc.wrapping_add(
            views[i % views.len()]
                .transact(rt, async |tx| match *op {
                    MixOp::Reads { base } => {
                        let mut sum = 0u64;
                        for k in 0..MIX_READS {
                            sum =
                                sum.wrapping_add(tx.read(Addr((base + k * 7) % MIX_WORDS)).await?);
                        }
                        Ok(sum)
                    }
                    MixOp::Writes { base, value } => {
                        for k in 0..MIX_WRITES {
                            tx.write(Addr((base + k * 11) % MIX_COUNTER_BASE), value)
                                .await?;
                        }
                        Ok(value)
                    }
                    MixOp::Rmw { addr } => {
                        let v = tx.read(Addr(addr)).await?;
                        tx.write(Addr(addr), v + 1).await?;
                        Ok(v)
                    }
                })
                .await,
        );
    }
    acc
}

fn mix_counter_sum(views: &[Arc<View>]) -> u64 {
    views
        .iter()
        .flat_map(|v| (MIX_COUNTER_BASE..MIX_WORDS).map(move |i| v.heap().load(Addr(i))))
        .sum()
}

/// A fixed transaction mix replayed on one real OS thread (`Rt::Real`,
/// `run_parallel(1, ..)`): no simulator, no timer wheel. Its host currency is
/// that replay. Its virtual currency is the model's account of the same plan:
/// one single-task simulator pass outside the timed region, which is also the
/// suite's only zero-contention reading of the cost model.
fn mix(seed: u64, scale: f64, traced: bool, tracer: &mut Tracer) -> RepParts {
    let txns = scaled(MIX_PLAN_TXNS, scale);
    let recorder = traced.then(|| Arc::new(FlightRecorder::with_default_capacity(2)));
    let (plan, real_views, model_views) = tracer.span("setup", |t| {
        let plan = t.span("gen_input", |_| Arc::new(mix_plan(seed, txns)));
        let (real_views, model_views) = t.span("build_views", |_| {
            (mix_views(recorder.as_ref()), mix_views(recorder.as_ref()))
        });
        (plan, real_views, model_views)
    });
    let rmw_per_pass = plan
        .iter()
        .filter(|op| matches!(op, MixOp::Rmw { .. }))
        .count() as u64;

    let outcome = tracer.span("model_pass", |_| {
        let mut ex = SimExecutor::new(sim_config(seed));
        let (views, plan) = (model_views.clone(), Arc::clone(&plan));
        ex.spawn(move |rt| async move {
            black_box(mix_replay(&views, &plan, &rt).await);
        });
        ex.run()
    });
    tracer.span("run", |_| {
        run_parallel(1, |_, rt| {
            let (views, plan) = (&real_views, &plan[..]);
            async move {
                for _ in 0..MIX_REAL_PASSES {
                    black_box(mix_replay(views, plan, &rt).await);
                }
            }
        })
    });
    let run = tracer.span("collect_stats", |_| {
        let views: Vec<ViewStats> = model_views.iter().map(|v| v.stats()).collect();
        let adaptive = vec![false; views.len()];
        let mut run = RunStats::from_sim(&outcome, views, adaptive);
        run.n_threads = 1;
        run.expected_commits = txns;
        let real_commits: u64 = real_views.iter().map(|v| v.stats().tm.commits).sum();
        run.check_errors = real_commits.abs_diff(txns * MIX_REAL_PASSES)
            + u64::from(mix_counter_sum(&real_views) != rmw_per_pass * MIX_REAL_PASSES)
            + u64::from(mix_counter_sum(&model_views) != rmw_per_pass);
        run
    });
    let events = recorder.map(|r| export(&r, tracer));
    (run, events, Some(MIX_REAL_PASSES))
}
