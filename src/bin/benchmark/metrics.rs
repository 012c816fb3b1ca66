//! Folds repetitions into the named metrics of `spec.rs`.

use votm::AbortReason;
use votm_obs::HistogramSnapshot;

use crate::measure::{hist_quantile, iqr_rel, median, min, LayerSample};
use crate::spec::CYCLES_PER_VSEC;
use crate::workloads::{Rep, RunStats};

pub type Metrics = Vec<(String, f64)>;

fn ratio(num: u64, den: u64, if_empty: f64) -> f64 {
    if den == 0 {
        if_empty
    } else {
        num as f64 / den as f64
    }
}

fn walls(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_s).collect()
}

/// Sum of one `StatsSnapshot` counter over all views.
fn tm_sum(run: &RunStats, f: impl Fn(&votm::StatsSnapshot) -> u64) -> u64 {
    run.views.iter().map(|v| f(&v.tm)).sum()
}

/// The nine end-to-end metrics of untraced repetitions. Virtual values come
/// from the first repetition (all repetitions of a seed agree, which the
/// caller checks); `setup_s` and `wall_s` are medians over the repetitions;
/// `peak_rss_mb` is the caller's reading after the first repetition.
pub fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Metrics {
    let run = &reps[0].run;
    let wall_s = median(&walls(reps));
    let (commits, aborts) = (run.commits(), run.aborts());
    let useful = tm_sum(run, |t| t.cycles_successful);
    let wasted = tm_sum(run, |t| t.cycles_aborted);
    let mut commit_hist = HistogramSnapshot::default();
    for v in &run.views {
        commit_hist.merge(&v.hists.commit);
    }
    [
        (
            "setup_s",
            median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        ),
        ("wall_s", wall_s),
        (
            "host_ns_per_step",
            wall_s * 1e9 / reps[0].host_steps().max(1) as f64,
        ),
        ("peak_rss_mb", peak_rss_mb),
        (
            "txns_per_vsec",
            commits as f64 / (run.vtime.max(1) as f64 / CYCLES_PER_VSEC),
        ),
        ("commit_ratio", ratio(commits, commits + aborts, 1.0)),
        ("useful_frac", ratio(useful, useful + wasted, 1.0)),
        ("commit_p50_vcycles", hist_quantile(&commit_hist, 0.50)),
        ("commit_p99_vcycles", hist_quantile(&commit_hist, 0.99)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// The host probe's readings over a run, one per repetition.
pub struct HostHealth {
    pub calib_ns: f64,
    /// Slowest reading over fastest, minus one.
    pub drift_rel: f64,
}

impl HostHealth {
    pub fn of<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> HostHealth {
        let readings: Vec<f64> = reps.into_iter().map(|r| r.calib_ns).collect();
        let fastest = min(&readings);
        let slowest = readings.iter().copied().fold(fastest, f64::max);
        HostHealth {
            calib_ns: median(&readings),
            drift_rel: slowest / fastest - 1.0,
        }
    }

    /// Something else took the machine while the workload ran.
    pub fn noisy(&self) -> bool {
        self.drift_rel > 0.10
    }
}

/// The per-layer metrics: counts from the traced repetition's public stats,
/// `ns_per_*` from the layer pass, and for layers whose operation count is
/// known exactly, `est_share` = count × ns_per_op / wall.
pub fn per_layer(
    untraced: &[Rep],
    traced: &[Rep],
    layers: &[LayerSample],
    health: &HostHealth,
) -> Metrics {
    let rep = &traced[0];
    let run = &rep.run;
    let sched = run.sched;
    let wall_ns = median(&walls(untraced)) * 1e9;
    let traced_wall_ns = median(&walls(traced)) * 1e9;
    let ns = |name: &str| {
        layers
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("layer pass has no {name}"))
            .median_ns
    };

    let (commits, aborts) = (run.commits(), run.aborts());
    let attempts = commits + aborts;
    let useful = tm_sum(run, |t| t.cycles_successful);
    let wasted = tm_sum(run, |t| t.cycles_aborted);
    let gate_wait = tm_sum(run, |t| t.gate_wait_cycles);
    let thread_cycles = (u64::from(run.n_threads) * run.vtime).max(1) as f64;
    let fast: u64 = run.views.iter().map(|v| v.gate.fast_acquires).sum();
    let slow: u64 = run.views.iter().map(|v| v.gate.slow_acquires).sum();
    let controller_attempts: u64 = run
        .views
        .iter()
        .zip(&run.adaptive)
        .filter(|(_, &adaptive)| adaptive)
        .map(|(v, _)| v.tm.commits + v.tm.aborts)
        .sum();
    let domain = run.domain.unwrap_or_default();
    let events = rep.events.unwrap_or_default();
    // Real-thread replays never enter the simulator: their executor share is
    // zero by construction, not by estimate.
    let in_sim = if rep.real_replays.is_none() { 1.0 } else { 0.0 };
    // Wall covers this many executions of the counted transactions.
    let replays = rep.real_replays.unwrap_or(1) as f64;

    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| m.push((name.to_string(), value));

    put("sim.steps", run.steps as f64);
    put("sim.coalesced_frac", ratio(sched.coalesced, run.steps, 0.0));
    put("sim.superseded", sched.superseded as f64);
    put("sim.stale_skips", sched.stale_skips as f64);
    put(
        "sim.est_share",
        in_sim
            * ((run.steps - sched.coalesced) as f64 * ns("sim.ns_per_tied_step")
                + sched.coalesced as f64 * ns("sim.ns_per_charge_step"))
            / wall_ns,
    );
    put("wheel.ring_pushes", sched.ring_pushes as f64);
    put("wheel.overflow_pushes", sched.overflow_pushes as f64);
    put("wheel.migrations", sched.migrations as f64);
    put(
        "wheel.est_share",
        in_sim
            * (sched.ring_pushes as f64 * ns("wheel.ns_per_push_pop")
                + sched.overflow_pushes as f64 * ns("wheel.ns_per_overflow_push_pop"))
            / wall_ns,
    );

    put("stm.commits", commits as f64);
    put("stm.aborts", aborts as f64);
    for reason in AbortReason::ALL {
        put(
            &format!("stm.aborts.{}", reason.name()),
            tm_sum(run, |t| t.aborts_by_reason[reason.index()]) as f64,
        );
    }
    put("stm.abort_rate", ratio(aborts, attempts, 0.0));
    put("stm.waste_frac", ratio(wasted, useful + wasted, 0.0));
    put(
        "stm.busy_retries_per_commit",
        ratio(tm_sum(run, |t| t.busy_retries), commits, 0.0),
    );
    put(
        "stm.clock_bumps",
        run.views.iter().map(|v| v.clock.bumps).sum::<u64>() as f64,
    );
    put(
        "stm.clock_bump_skips",
        run.views.iter().map(|v| v.clock.bump_skips).sum::<u64>() as f64,
    );
    put(
        "stm.max_abort_streak",
        run.views
            .iter()
            .map(|v| v.tm.max_abort_streak)
            .max()
            .unwrap_or(0) as f64,
    );
    put(
        "stm.stats.est_share",
        replays * attempts as f64 * ns("stm.stats.ns_per_record_commit") / wall_ns,
    );

    put("rac.gate.fast_path_hit_rate", ratio(fast, fast + slow, 1.0));
    put("rac.gate.slow_acquires", slow as f64);
    put(
        "rac.gate.slow_path_entries",
        run.views
            .iter()
            .map(|v| v.gate.slow_path_entries)
            .sum::<u64>() as f64,
    );
    put("rac.settled_quota.v0", f64::from(run.views[0].quota));
    put(
        "rac.settled_quota.v1",
        run.views.get(1).map_or(0.0, |v| f64::from(v.quota)),
    );
    put(
        "rac.gate.est_share",
        replays * (fast + slow) as f64 * ns("rac.gate.ns_per_admit_release") / wall_ns,
    );
    put(
        "rac.controller.est_share",
        controller_attempts as f64 * ns("rac.controller.ns_per_on_tx_end") / wall_ns,
    );

    let fracs = [useful, wasted, gate_wait].map(|c| c as f64 / thread_cycles);
    put("vt.useful_frac", fracs[0]);
    put("vt.wasted_frac", fracs[1]);
    put("vt.gate_wait_frac", fracs[2]);
    put("vt.other_frac", 1.0 - fracs.iter().sum::<f64>());

    put("core.parked_waits", tm_sum(run, |t| t.parked_waits) as f64);
    put("core.lost_wakeups", tm_sum(run, |t| t.lost_wakeups) as f64);
    put("core.escalations", tm_sum(run, |t| t.escalations) as f64);
    put("core.domain.repartitions", domain.repartitions as f64);
    put(
        "core.domain.split_drain_vcycles",
        domain.split_drain_cycles as f64,
    );
    put("core.domain.reroutes", domain.reroutes as f64);
    put("core.domain.straddles", domain.straddles as f64);
    put("core.domain.live_views", domain.live_views as f64);

    put("obs.events_recorded", events.recorded as f64);
    put("obs.events_dropped", events.dropped as f64);
    put("obs.trace_overhead_ratio", traced_wall_ns / wall_ns);
    put(
        "obs.est_share",
        events.recorded as f64 * ns("obs.ns_per_record") / traced_wall_ns,
    );
    // One histogram sample per commit (latency) and per abort (retry gap).
    put(
        "obs.hist.est_share",
        replays * attempts as f64 * ns("obs.hist.ns_per_record") / wall_ns,
    );

    put("host.calib_ns", health.calib_ns);
    put("host.calib_drift_rel", health.drift_rel);
    put("host.wall_min_s", min(&walls(untraced)));
    put("host.wall_iqr_rel", iqr_rel(&walls(untraced)));
    put("host.reps", untraced.len() as f64);

    for layer in layers {
        put(layer.name, layer.median_ns);
    }
    m
}

/// Internal consistency of a repetition's ledgers; returns what is wrong.
pub fn ledger_errors(run: &RunStats) -> Vec<String> {
    let mut errors = Vec::new();
    for v in &run.views {
        let by_reason: u64 = v.tm.aborts_by_reason.iter().sum();
        if by_reason != v.tm.aborts {
            errors.push(format!(
                "view {}: aborts by reason sum to {by_reason}, not {}",
                v.view_id, v.tm.aborts
            ));
        }
        if v.hists.commit.count() != v.tm.commits {
            errors.push(format!(
                "view {}: commit histogram holds {} samples for {} commits",
                v.view_id,
                v.hists.commit.count(),
                v.tm.commits
            ));
        }
    }
    let booked = tm_sum(run, |t| {
        t.cycles_successful + t.cycles_aborted + t.gate_wait_cycles
    });
    let available = u64::from(run.n_threads) * run.vtime;
    if booked > available {
        errors.push(format!(
            "threads booked {booked} virtual cycles but only {available} elapsed"
        ));
    }
    errors
}
