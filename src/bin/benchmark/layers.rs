//! The layer pass: each layer's public functions timed in isolation, from
//! outside. Every entry is one self-contained loop (warm-up, calibrated inner
//! count, min and median of the samples); composite operations are amortised
//! rather than differenced, so no entry depends on subtracting two noisy
//! readings. `LayerSample::what` says exactly what one operation is.

use std::hint::black_box;
use std::sync::Arc;

use votm::{EventKind, FlightRecorder, QuotaMode, TmAlgorithm, Votm};
use votm_ds::{TxHashMap, TxQueue};
use votm_eigenbench::EigenConfig;
use votm_intruder::GenConfig;
use votm_obs::export::chrome_trace;
use votm_obs::{ConflictProfile, LatencyHistogram};
use votm_rac::{AdmissionGate, ControllerConfig, RacController};
use votm_sim::{block_on, Notify, RealHandle, Rt, RunStatus, SimConfig, SimExecutor};
use votm_stm::{Addr, CommitPhase, TmInstance, TmStats, TxCtx, WordHeap};
use votm_utils::TimerWheel;

use crate::measure::{sample, LayerSample, SampleBudget};

fn sim_config() -> SimConfig {
    SimConfig {
        seed: 0x5eed,
        ..SimConfig::default()
    }
}

fn run_counted(mut ex: SimExecutor) -> u64 {
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Completed);
    out.steps
}

/// One task charging in a straight line: every activation takes the
/// coalesced path that skips the queue.
fn charge_steps() -> u64 {
    let mut ex = SimExecutor::new(sim_config());
    ex.spawn(|rt: Rt| async move {
        for i in 0..2_000u64 {
            rt.charge(1 + (i % 60)).await;
        }
    });
    run_counted(ex)
}

/// Sixteen tasks re-enqueueing at identical virtual times: every activation
/// is a timer-wheel round trip with a tie to break (a busy-retry storm).
fn tied_steps() -> u64 {
    let mut ex = SimExecutor::new(sim_config());
    for _ in 0..16 {
        ex.spawn(|rt: Rt| async move {
            for _ in 0..200 {
                rt.charge(12).await;
            }
        });
    }
    run_counted(ex)
}

const PING_PONG_ROUNDS: u64 = 500;

/// Two tasks waking each other through a `Notify` pair.
fn notify_ping_pong() -> u64 {
    let ping = Arc::new(Notify::new());
    let pong = Arc::new(Notify::new());
    let mut ex = SimExecutor::new(sim_config());
    {
        let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
        ex.spawn(move |rt: Rt| async move {
            for _ in 0..PING_PONG_ROUNDS {
                rt.charge(5).await;
                ping.notify_all();
                let e = pong.epoch();
                rt.wait(&pong, e).await;
            }
        });
    }
    ex.spawn(move |rt: Rt| async move {
        for _ in 0..PING_PONG_ROUNDS {
            let e = ping.epoch();
            rt.wait(&ping, e).await;
            rt.charge(5).await;
            pong.notify_all();
        }
    });
    run_counted(ex)
}

/// Pop the minimum, advance, push it back `delta(i)` cycles out, over a
/// standing population of 16 entries (the simulator's steady state at N=16).
fn wheel_churn(wheel: &mut TimerWheel, seq: &mut u64, delta: impl Fn(u64) -> u64) -> u64 {
    let mut acc = 0u64;
    for _ in 0..1_000 {
        let (at, tiebreak, _, payload) = wheel.pop_min().expect("standing population");
        wheel.advance_to(at);
        *seq += 1;
        wheel.push(at + delta(*seq), tiebreak, *seq, payload);
        acc = acc.wrapping_add(at);
    }
    acc
}

fn wheel_with_population() -> TimerWheel {
    let mut wheel = TimerWheel::new();
    for task in 0..16u32 {
        wheel.push(u64::from(task), u64::from(task) * 0x9e37, 0, task);
    }
    wheel
}

/// Metric names of one algorithm's four loops: read, write, commit_ro,
/// commit_rw.
const STM_LAYERS: [(TmAlgorithm, [&str; 4]); 3] = [
    (
        TmAlgorithm::NOrec,
        [
            "stm.norec.ns_per_read",
            "stm.norec.ns_per_write",
            "stm.norec.ns_per_commit_ro",
            "stm.norec.ns_per_commit_rw",
        ],
    ),
    (
        TmAlgorithm::OrecEagerRedo,
        [
            "stm.orec_eager.ns_per_read",
            "stm.orec_eager.ns_per_write",
            "stm.orec_eager.ns_per_commit_ro",
            "stm.orec_eager.ns_per_commit_rw",
        ],
    ),
    (
        TmAlgorithm::OrecLazy,
        [
            "stm.orec_lazy.ns_per_read",
            "stm.orec_lazy.ns_per_write",
            "stm.orec_lazy.ns_per_commit_ro",
            "stm.orec_lazy.ns_per_commit_rw",
        ],
    ),
];

fn begin(ctx: &mut TxCtx, inst: &TmInstance) {
    ctx.begin(inst).expect("uncontended begin");
}

fn commit(ctx: &mut TxCtx, inst: &TmInstance) -> u64 {
    if let CommitPhase::NeedsFinish { .. } = ctx.commit_begin(inst).expect("uncontended commit") {
        ctx.commit_finish(inst);
    }
    ctx.take_work()
}

fn stm_layers(
    algo: TmAlgorithm,
    names: [&'static str; 4],
    budget: SampleBudget,
    out: &mut Vec<LayerSample>,
) {
    let inst = TmInstance::new(algo, 4096);
    let mut ctx = inst.tx_ctx(0);
    out.push(sample(
        names[0],
        "begin + 64 reads + read-only commit, per read",
        64,
        budget,
        || {
            begin(&mut ctx, &inst);
            let mut acc = 0u64;
            for i in 0..64u32 {
                acc = acc.wrapping_add(ctx.read(&inst, Addr(i * 7 % 4096)).expect("read"));
            }
            acc.wrapping_add(commit(&mut ctx, &inst))
        },
    ));
    let mut value = 0u64;
    out.push(sample(
        names[1],
        "begin + 32 writes + writing commit, per write",
        32,
        budget,
        || {
            value += 1;
            begin(&mut ctx, &inst);
            for k in 0..32u32 {
                ctx.write(&inst, Addr(k * 11 % 4096), value).expect("write");
            }
            commit(&mut ctx, &inst)
        },
    ));
    out.push(sample(
        names[2],
        "begin + 1 read + read-only commit, per transaction",
        1,
        budget,
        || {
            begin(&mut ctx, &inst);
            let v = ctx.read(&inst, Addr(0)).expect("read");
            v.wrapping_add(commit(&mut ctx, &inst))
        },
    ));
    out.push(sample(
        names[3],
        "begin + 1 read + 1 write + writing commit, per transaction",
        1,
        budget,
        || {
            begin(&mut ctx, &inst);
            let v = ctx.read(&inst, Addr(0)).expect("read");
            ctx.write(&inst, Addr(0), v + 1).expect("write");
            commit(&mut ctx, &inst)
        },
    ));
}

/// Runs every layer micro-benchmark and returns one sample per
/// `*.ns_per_*` metric.
pub fn layer_pass(budget: SampleBudget) -> Vec<LayerSample> {
    let mut out = Vec::new();
    let real = Rt::Real(RealHandle::standalone(0));

    // sim
    out.push(sample(
        "sim.ns_per_charge_step",
        "one task, straight-line charge(): coalesced activation, per step",
        charge_steps(),
        budget,
        charge_steps,
    ));
    out.push(sample(
        "sim.ns_per_tied_step",
        "16 tasks charging in lockstep: queued activation with a tie, per step",
        tied_steps(),
        budget,
        tied_steps,
    ));
    out.push(sample(
        "sim.ns_per_notify_roundtrip",
        "two tasks ping-ponging through a Notify pair, per round trip",
        PING_PONG_ROUNDS,
        budget,
        notify_ping_pong,
    ));

    // utils.wheel
    let (mut wheel, mut seq) = (wheel_with_population(), 0u64);
    out.push(sample(
        "wheel.ns_per_push_pop",
        "pop_min + advance_to + push 1..60 cycles out (ring), per pair",
        1_000,
        budget,
        || wheel_churn(&mut wheel, &mut seq, |s| 1 + s % 60),
    ));
    let (mut wheel, mut seq) = (wheel_with_population(), 0u64);
    out.push(sample(
        "wheel.ns_per_overflow_push_pop",
        "pop_min + advance_to + push 60 000 cycles out (overflow heap, later migrated), per pair",
        1_000,
        budget,
        || wheel_churn(&mut wheel, &mut seq, |s| 60_000 + s % 60),
    ));

    // stm
    for (algo, names) in STM_LAYERS {
        stm_layers(algo, names, budget, &mut out);
    }
    let heap = WordHeap::new(1 << 16);
    out.push(sample(
        "stm.heap.ns_per_alloc_free",
        "WordHeap::alloc_block(8) + free_block, per pair",
        1,
        budget,
        || {
            let a = heap.alloc_block(8).expect("heap has room");
            heap.free_block(black_box(a));
            u64::from(a.0)
        },
    ));
    let stats = TmStats::new();
    out.push(sample(
        "stm.stats.ns_per_record_commit",
        "TmStats::record_commit, per call",
        1,
        budget,
        || {
            stats.record_commit(0, 100);
            1
        },
    ));

    // rac
    let gate = AdmissionGate::new(16, 16);
    out.push(sample(
        "rac.gate.ns_per_admit_release",
        "uncontended AdmissionGate::admit + guard drop, per pair",
        1,
        budget,
        || {
            let guard = block_on(gate.admit(&real));
            black_box(&guard);
            1
        },
    ));
    let controller = RacController::new(ControllerConfig::default());
    out.push(sample(
        "rac.controller.ns_per_on_tx_end",
        "TmStats::record_commit + RacController::on_tx_end (a window closes every 256), per call",
        1,
        budget,
        || {
            stats.record_commit(0, 100);
            u64::from(controller.on_tx_end(&gate, &stats).unwrap_or(0))
        },
    ));

    // core + ds, through a real-thread view
    let sys = Votm::builder().threads(2).build();
    let view = sys.create_view(1 << 14, QuotaMode::Fixed(2));
    out.push(sample(
        "core.ns_per_empty_txn_real",
        "View::transact with an empty body under Rt::Real, per transaction",
        1,
        budget,
        || {
            block_on(view.transact(&real, async |_tx| Ok(())));
            1
        },
    ));
    let queue = TxQueue::create(&view);
    let mut next = 0u64;
    out.push(sample(
        "ds.queue.ns_per_push_pop",
        "TxQueue push_back txn + pop_front txn under Rt::Real, per pair",
        1,
        budget,
        || {
            next += 1;
            block_on(view.transact(&real, async |tx| queue.push_back(tx, next).await));
            block_on(view.transact(&real, async |tx| queue.pop_front(tx).await)).unwrap_or(0)
        },
    ));
    let map = TxHashMap::create(&view, 64);
    let mut key = 0u64;
    out.push(sample(
        "ds.hashmap.ns_per_insert_get_remove",
        "TxHashMap insert txn + get txn + remove txn under Rt::Real, per triple",
        1,
        budget,
        || {
            key += 1;
            block_on(view.transact(&real, async |tx| map.insert(tx, key, key).await));
            let got = block_on(view.transact(&real, async |tx| map.get(tx, key).await));
            block_on(view.transact(&real, async |tx| map.remove(tx, key).await));
            got.unwrap_or(0)
        },
    ));
    let gen = GenConfig {
        attack_percent: 10,
        max_length: 128,
        flows: 256,
        seed: 1,
    };
    out.push(sample(
        "intruder.gen_ns_per_packet",
        "votm_intruder::generate over 256 flows, per packet",
        votm_intruder::generate(&gen).packets.len() as u64,
        budget,
        || votm_intruder::generate(&gen).packets.len() as u64,
    ));

    // obs
    let recorder = FlightRecorder::new(1, 4096);
    let mut ts = 0u64;
    out.push(sample(
        "obs.ns_per_record",
        "FlightRecorder::record of a TxBegin, per event",
        1,
        budget,
        || {
            ts += 1;
            recorder.record(0, ts, EventKind::TxBegin { view: 0 });
            ts
        },
    ));
    let hist = LatencyHistogram::new();
    let mut v = 1u64;
    out.push(sample(
        "obs.hist.ns_per_record",
        "LatencyHistogram::record, per sample",
        1,
        budget,
        || {
            v = v.wrapping_mul(0x9e37_79b9).wrapping_add(1) & 0xf_ffff;
            hist.record(v);
            v
        },
    ));
    // A real event mix for the fold and the exporter: a short recorded
    // Eigenbench run (begin/commit/abort/conflict/footprint/quota events).
    let traces = {
        let recorder = Arc::new(FlightRecorder::with_default_capacity(16));
        let mut config = EigenConfig::paper_table2(1.0);
        config.view1.loops = 12;
        config.view2.loops = 12;
        votm_eigenbench::run_sim_recorded(
            &config,
            TmAlgorithm::NOrec,
            votm_eigenbench::Version::SingleView,
            [QuotaMode::Adaptive; 2],
            sim_config(),
            Some(Arc::clone(&recorder)),
        );
        recorder.snapshot()
    };
    let events = traces.iter().map(|t| t.events.len() as u64).sum::<u64>();
    out.push(sample(
        "obs.profile.ns_per_event",
        "ConflictProfile::from_traces over a recorded Eigenbench run, per event",
        events,
        budget,
        || ConflictProfile::from_traces(&traces).attributed_cycles_total(),
    ));
    out.push(sample(
        "obs.export.ns_per_event",
        "export::chrome_trace over the same traces, per event",
        events,
        budget,
        || chrome_trace(&traces, 2500).len() as u64,
    ));
    out
}
