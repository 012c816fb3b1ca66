//! `BENCHMARK.json` at the repo root is the benchmark's contract: workloads
//! with their one-line "why", end-to-end metrics with units, directions and
//! regression bounds, per-layer metrics with units and directions. It is
//! compiled in and read once at start-up. This file adds only what that
//! file's fixed schema cannot hold: the seeds, which end-to-end metrics are
//! host time (and their absolute floors), and for every per-layer metric the
//! end-to-end metric and workload it is expected to move.

use std::sync::OnceLock;

use crate::json::Json;

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// Seed reserved for confirming a later performance claim; never used while
/// tuning a change. (The paper's conference date.)
pub const HELD_OUT_SEED: u64 = 20120910;
/// Clock of the modelled machine (the paper's 2.5 GHz Opterons).
pub const CYCLES_PER_VSEC: f64 = 2.5e9;

/// The end-to-end metrics read off the host's clock and memory, each with the
/// absolute amount a worsening must also exceed before `--check-repeat` counts
/// it (a relative bound alone flags microsecond set-ups and single pages).
/// Every other end-to-end metric is virtual currency: a fixed seed must
/// reproduce it bit for bit.
const HOST_METRICS: [(&str, f64); 4] = [
    ("setup_s", 0.05),
    ("wall_s", 0.0),
    ("host_ns_per_step", 0.0),
    ("peak_rss_mb", 2.0),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

impl EndToEnd {
    /// Virtual currency: a fixed seed must reproduce the value bit for bit.
    pub fn exact(&self) -> bool {
        HOST_METRICS.iter().all(|(name, _)| *name != self.name)
    }

    /// Absolute worsening below which a host metric's change is not counted.
    pub fn floor(&self) -> f64 {
        HOST_METRICS
            .iter()
            .find(|(name, _)| *name == self.name)
            .map_or(0.0, |(_, floor)| *floor)
    }
}

pub struct PerLayer {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// End-to-end metric this one should move, or `"none"` for a reading of
    /// the instrument itself.
    pub moves: &'static str,
    /// Workload where that movement should show most: a workload name,
    /// `"all"`, or `"none"` when no workload of this suite exercises it.
    pub on: &'static str,
}

pub struct Spec {
    /// `run_seconds`: how long the driver lets one run measure, and the
    /// default for `--seconds`.
    pub run_seconds: f64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

/// The compiled-in `BENCHMARK.json` joined with [`MOVES`].
pub fn get() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc = Json::parse(include_str!("../../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"));
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: entries(&doc, "workloads")
                .iter()
                .map(|e| WorkloadSpec {
                    name: field(e, "name"),
                    why: field(e, "why"),
                })
                .collect(),
            end_to_end: entries(&doc, "end_to_end")
                .iter()
                .map(|e| EndToEnd {
                    name: field(e, "name"),
                    unit: field(e, "unit"),
                    better: better(e),
                    bound: e
                        .get("bound")
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| panic!("BENCHMARK.json: no bound in {e:?}")),
                })
                .collect(),
            per_layer: entries(&doc, "per_layer")
                .iter()
                .map(|e| {
                    let name = field(e, "name");
                    let (_, moves, on) = MOVES
                        .iter()
                        .find(|(n, _, _)| *n == name)
                        .unwrap_or_else(|| panic!("spec.rs does not say what {name} moves"));
                    PerLayer {
                        name,
                        unit: field(e, "unit"),
                        better: better(e),
                        moves,
                        on,
                    }
                })
                .collect(),
        }
    })
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key} list"))
}

fn field(entry: &Json, key: &str) -> String {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key} in {entry:?}"))
        .to_string()
}

fn better(entry: &Json) -> Better {
    match field(entry, "better").as_str() {
        "lower" => Better::Lower,
        "higher" => Better::Higher,
        other => panic!("BENCHMARK.json: better is {other:?} in {entry:?}"),
    }
}

const HOT: &str = "eigen_hot_1v";
const SPLIT: &str = "eigen_split_2v";
const INTRUDER: &str = "intruder_2v";
const PIPE: &str = "blocking_pipeline";
const ZIPF: &str = "zipf_adaptive_rec";
const REAL: &str = "real_1t_mix";
const STEP: &str = "host_ns_per_step";
const TPS: &str = "txns_per_vsec";
const P99: &str = "commit_p99_vcycles";

/// (per-layer metric, end-to-end metric it should move, workload where).
pub const MOVES: [(&str, &str, &str); 84] = [
    // sim: the executor.
    ("sim.steps", "wall_s", HOT),
    ("sim.coalesced_frac", STEP, INTRUDER),
    ("sim.superseded", STEP, PIPE),
    ("sim.stale_skips", STEP, PIPE),
    ("sim.ns_per_charge_step", STEP, SPLIT),
    ("sim.ns_per_tied_step", STEP, HOT),
    ("sim.ns_per_notify_roundtrip", STEP, PIPE),
    ("sim.est_share", STEP, HOT),
    // utils.wheel: the event queue under the executor.
    ("wheel.ring_pushes", STEP, HOT),
    ("wheel.overflow_pushes", STEP, PIPE),
    ("wheel.migrations", STEP, PIPE),
    ("wheel.ns_per_push_pop", STEP, HOT),
    ("wheel.ns_per_overflow_push_pop", STEP, PIPE),
    ("wheel.est_share", STEP, HOT),
    // stm: host cost of the three algorithms' operations.
    ("stm.norec.ns_per_read", STEP, HOT),
    ("stm.norec.ns_per_write", STEP, HOT),
    ("stm.norec.ns_per_commit_ro", STEP, HOT),
    ("stm.norec.ns_per_commit_rw", STEP, HOT),
    ("stm.orec_eager.ns_per_read", STEP, SPLIT),
    ("stm.orec_eager.ns_per_write", STEP, SPLIT),
    ("stm.orec_eager.ns_per_commit_ro", STEP, SPLIT),
    ("stm.orec_eager.ns_per_commit_rw", STEP, SPLIT),
    ("stm.orec_lazy.ns_per_read", STEP, INTRUDER),
    ("stm.orec_lazy.ns_per_write", STEP, INTRUDER),
    ("stm.orec_lazy.ns_per_commit_ro", STEP, INTRUDER),
    ("stm.orec_lazy.ns_per_commit_rw", STEP, INTRUDER),
    // stm: what the transactions did, in the model.
    ("stm.commits", TPS, "all"),
    ("stm.aborts", "commit_ratio", HOT),
    ("stm.aborts.explicit", "commit_ratio", "none"),
    ("stm.aborts.orec_conflict", "commit_ratio", SPLIT),
    ("stm.aborts.norec_validation", "commit_ratio", HOT),
    ("stm.aborts.write_lock_busy", "commit_ratio", SPLIT),
    ("stm.aborts.fault_injected", "commit_ratio", "none"),
    ("stm.aborts.cm_killed", "commit_ratio", "none"),
    ("stm.aborts.false_conflict", "commit_ratio", "none"),
    ("stm.aborts.retry", "commit_ratio", PIPE),
    ("stm.abort_rate", "commit_ratio", HOT),
    ("stm.waste_frac", "useful_frac", HOT),
    ("stm.busy_retries_per_commit", TPS, HOT),
    ("stm.clock_bumps", TPS, HOT),
    ("stm.clock_bump_skips", TPS, "none"),
    ("stm.max_abort_streak", P99, HOT),
    ("stm.heap.ns_per_alloc_free", STEP, INTRUDER),
    ("stm.stats.ns_per_record_commit", "wall_s", REAL),
    ("stm.stats.est_share", "wall_s", REAL),
    // rac: admission gate and quota controller.
    ("rac.gate.fast_path_hit_rate", TPS, SPLIT),
    ("rac.gate.slow_acquires", P99, SPLIT),
    ("rac.gate.slow_path_entries", STEP, SPLIT),
    ("rac.settled_quota.v0", TPS, HOT),
    ("rac.settled_quota.v1", TPS, SPLIT),
    ("rac.gate.ns_per_admit_release", STEP, SPLIT),
    ("rac.controller.ns_per_on_tx_end", STEP, SPLIT),
    ("rac.gate.est_share", STEP, SPLIT),
    ("rac.controller.est_share", STEP, SPLIT),
    // vt: where the threads' virtual time went; the four sum to 1.
    ("vt.useful_frac", TPS, "all"),
    ("vt.wasted_frac", "useful_frac", HOT),
    ("vt.gate_wait_frac", TPS, SPLIT),
    ("vt.other_frac", TPS, PIPE),
    // core: the transaction driver, blocking and repartitioning.
    ("core.parked_waits", TPS, PIPE),
    ("core.lost_wakeups", P99, PIPE),
    ("core.escalations", P99, PIPE),
    ("core.ns_per_empty_txn_real", "wall_s", REAL),
    ("core.domain.repartitions", TPS, ZIPF),
    ("core.domain.split_drain_vcycles", P99, ZIPF),
    ("core.domain.reroutes", TPS, ZIPF),
    ("core.domain.straddles", TPS, ZIPF),
    ("core.domain.live_views", TPS, ZIPF),
    // obs: recorder, histograms, profile fold, exporter.
    ("obs.events_recorded", STEP, ZIPF),
    ("obs.events_dropped", TPS, ZIPF),
    ("obs.ns_per_record", STEP, ZIPF),
    ("obs.hist.ns_per_record", STEP, "all"),
    ("obs.profile.ns_per_event", STEP, ZIPF),
    ("obs.export.ns_per_event", "none", "none"),
    ("obs.trace_overhead_ratio", STEP, HOT),
    ("obs.est_share", STEP, ZIPF),
    ("obs.hist.est_share", STEP, "all"),
    // ds and the Intruder input generator.
    ("ds.queue.ns_per_push_pop", STEP, INTRUDER),
    ("ds.hashmap.ns_per_insert_get_remove", STEP, INTRUDER),
    ("intruder.gen_ns_per_packet", "setup_s", INTRUDER),
    // host: health of the instrument itself.
    ("host.calib_ns", "none", "all"),
    ("host.calib_drift_rel", "none", "all"),
    ("host.wall_min_s", "none", "all"),
    ("host.wall_iqr_rel", "none", "all"),
    ("host.reps", "none", "all"),
];
