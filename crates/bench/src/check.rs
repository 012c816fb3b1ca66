//! The throughput gate's invariants over the [`GateRow`]s
//! [`crate::throughput_gate`] made: `tables --json` runs [`check_gate`] as
//! soon as it has written the artifact, and the gate test runs it on its
//! own rows, so both hold the same predicates.

use votm::{ClockKind, CmPolicy, TmAlgorithm};
use votm_sim::RunStatus;

use crate::{runs_cell, variant_cells, GateRow};

/// The fraction of its hand twin's throughput an adaptive row must reach.
const CONVERGENCE_FLOOR: f64 = 0.90;

/// The factor by which the gated `*-block` row must cut its `*-spin` twin's
/// busy retries per commit.
const PARK_BUSY_DROP: f64 = 10.0;

/// A variant may honestly lose a bit to its default twin on gate geometry,
/// but under this fraction is a bug.
const COLLAPSE_RATIO: f64 = 0.75;

/// `algo/policy/version/N=n/clock`, the row label every problem line uses.
fn label(r: &GateRow) -> String {
    let (algo, policy, version, n, clock) = (r.algo, r.policy, &r.version, r.n_threads, r.clock);
    format!("{algo}/{policy}/{version}/N={n}/{clock}")
}

/// The gated spin-vs-park pair: the first `*-spin` row and the `*-block`
/// row of its algorithm.
fn blocking_pair(rows: &[GateRow]) -> Option<(&GateRow, &GateRow)> {
    let spin = rows.iter().find(|r| r.version.ends_with("-spin"))?;
    let block = (rows.iter()).find(|r| r.version.ends_with("-block") && r.algo == spin.algo)?;
    Some((spin, block))
}

/// How many times fewer busy retries per commit `block` paid than `spin`.
fn busy_drop(spin: &GateRow, block: &GateRow) -> f64 {
    spin.busy_retries_per_commit / block.busy_retries_per_commit.max(0.05)
}

/// The spin-vs-park headline `tables --json` prints, when `rows` hold the
/// gated pair.
pub fn blocking_headline(rows: &[GateRow]) -> Option<String> {
    let (spin, block) = blocking_pair(rows)?;
    let (s, b) = (spin.busy_retries_per_commit, block.busy_retries_per_commit);
    Some(format!(
        "blocking gate: busy retries/commit {s:.2} (spin) -> {b:.2} (block), {:.0}x drop",
        busy_drop(spin, block)
    ))
}

/// Every invariant `rows` break, one line each; empty when they hold them
/// all: completion, the wasted-work ledger, row shape, partition
/// convergence, spin vs park and the variant rows.
pub fn check_gate(rows: &[GateRow]) -> Vec<String> {
    let ending = |suffix| rows.iter().filter(move |r| r.version.ends_with(suffix));
    let mut problems = Vec::new();
    let mut need = |holds: bool, problem: String| {
        if !holds {
            problems.push(problem);
        }
    };

    // Completion, the wasted-work ledger and the row shape.
    for r in rows {
        let (l, version) = (label(r), r.version.as_str());
        need(
            r.status == RunStatus::Completed,
            format!("{l}: status {:?}", r.status),
        );
        let (wasted, by_reason) = (r.wasted_cycles, r.wasted_by_reason.iter().sum::<u64>());
        need(
            by_reason == wasted,
            format!("{l}: wasted_by_reason sums to {by_reason}, wasted_cycles is {wasted}"),
        );
        let committed = r.commits > 0 && r.txns_per_vsec > 0.0;
        need(committed, format!("{l}: committed nothing"));
        let (bumps, skips) = (r.clock_bumps, r.clock_bump_skips);
        need(
            bumps > 0 && skips == 0,
            format!("{l}: the clock bumped {bumps} times and skipped {skips}"),
        );
        let still =
            r.repartitions == 0 && r.split_drain_cycles == 0 && r.converged_throughput_ratio == 0.0;
        need(
            still || version.starts_with("partition-"),
            format!("{l}: only adaptive domains repartition"),
        );
        let views = 1 + u32::from(version == "multi-view" || version.ends_with("-hand"));
        need(
            version.ends_with("-adaptive") || r.n_views == views,
            format!("{l}: {} views, expected {views}", r.n_views),
        );
        let (fast, busy) = (r.gate_fast_path_hit_rate, r.busy_retries_per_commit);
        for (k, v, max) in [
            ("waste_frac", r.waste_frac, 1.0),
            ("abort_rate", r.abort_rate, 1.0),
            ("gate_fast_path_hit_rate", fast, 1.0),
            ("busy_retries_per_commit", busy, f64::MAX),
        ] {
            let in_range = (0.0..=max).contains(&v);
            need(in_range, format!("{l}: {k} {v} out of range"));
        }
    }

    // Adaptive partition: every adaptive row has a hand-partitioned twin,
    // actually repartitioned (live splits through the drain barrier, not a
    // lucky static layout) and reached the convergence floor against it.
    let (n_hand, n_adaptive) = (ending("-hand").count(), ending("-adaptive").count());
    need(
        n_hand == n_adaptive,
        format!("partition scenarios: {n_hand} hand rows but {n_adaptive} adaptive rows"),
    );
    for r in ending("-adaptive") {
        let (splits, drained, views) = (r.repartitions, r.split_drain_cycles, r.n_views);
        need(
            splits > 0 && drained > 0 && views >= 2,
            format!(
                "{}: {splits} repartitions, {drained} drain cycles, {views} views at the end",
                label(r)
            ),
        );
        let ratio = r.converged_throughput_ratio;
        need(
            ratio >= CONVERGENCE_FLOOR,
            format!(
                "{}: converged to {ratio:.3}x its hand twin (< {CONVERGENCE_FLOOR:.2}x)",
                label(r)
            ),
        );
    }

    // Blocking: every blocking row really parked and lost no wakeup, no
    // spinning row parked, and against the one spinning row parking must
    // pay for the same work. Only that gated pair must be escalation-free —
    // parking may never read as starvation there; the orec comparison rows
    // may escalate on genuine conflict streaks (the watchdog working).
    for r in ending("-block") {
        let (parked, lost) = (r.parked_waits, r.lost_wakeups);
        need(
            parked > 0 && lost == 0,
            format!("{}: parked {parked} times, lost {lost} wakeups", label(r)),
        );
    }
    for r in ending("-spin") {
        let parked = r.parked_waits;
        need(
            parked == 0,
            format!("{}: spun, yet parked {parked} times", label(r)),
        );
    }
    if let Some((spin, block)) = blocking_pair(rows) {
        let (l, drop, esc) = (label(block), busy_drop(spin, block), block.escalations);
        need(esc == 0, format!("{l}: escalated {esc} times"));
        need(
            drop >= PARK_BUSY_DROP,
            format!("{l}: busy-retry drop only {drop:.1}x (< {PARK_BUSY_DROP}x)"),
        );
        need(
            spin.commits == block.commits,
            format!("{l}: commits differ from its spinning twin's"),
        );
    } else {
        need(false, "no *-spin row with a *-block twin".into());
    }

    // Variants: every algorithm that runs a variant cell has a row there,
    // no row runs a cell its algorithm ignores, and each variant row is
    // single-view at the largest N, has a default twin and clears the
    // collapse floor against it; a clock variant must improve on NOrec.
    let variants: Vec<_> = variant_cells()
        .flat_map(|cell| TmAlgorithm::ALL.map(|algo| (algo, cell)))
        .filter(|&(algo, cell)| runs_cell(algo, cell))
        .map(|(algo, (policy, clock))| (algo.name(), policy.name(), clock.name()))
        .collect();
    for &(algo, policy, clock) in &variants {
        let present = rows
            .iter()
            .any(|r| (r.algo, r.policy, r.clock) == (algo, policy, clock));
        need(present, format!("no {policy}/{clock} row for {algo}"));
    }
    let max_n = rows.iter().map(|r| r.n_threads).max().unwrap_or(0);
    let default =
        |r: &GateRow| (r.policy, r.clock) == (CmPolicy::Backoff.name(), ClockKind::Global.name());
    let single_view = |r: &GateRow| r.version == "single-view" && r.n_threads == max_n;
    let mut norec_win = false;
    for r in rows.iter().filter(|r| !default(r)) {
        let (l, algo) = (label(r), r.algo);
        need(
            variants.contains(&(algo, r.policy, r.clock)),
            format!("{l}: {algo} does not run {}/{}", r.policy, r.clock),
        );
        need(single_view(r), format!("{l}: not single-view at N={max_n}"));
        let twin = rows
            .iter()
            .find(|t| default(t) && single_view(t) && t.algo == algo);
        let Some(twin) = twin else {
            need(false, format!("{l}: no default twin"));
            continue;
        };
        let (ct, bt) = (r.txns_per_vsec, twin.txns_per_vsec);
        need(
            ct >= COLLAPSE_RATIO * bt,
            format!("{l}: collapsed vs its default twin ({ct:.1} < {COLLAPSE_RATIO}x {bt:.1})"),
        );
        let abort_cut = r.abort_rate <= 0.9 * twin.abort_rate;
        let norec_clock = algo == TmAlgorithm::NOrec.name() && r.clock != ClockKind::Global.name();
        norec_win |= norec_clock && (ct > bt || abort_cut);
    }
    need(
        norec_win,
        "no clock variant improved single-view NOrec (throughput or >=10% abort cut)".into(),
    );
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A completed single-view row at N = 16 that breaks no row invariant.
    fn row(algo: &'static str, policy: &'static str, clock: &'static str, tps: f64) -> GateRow {
        GateRow {
            algo,
            policy,
            clock,
            version: "single-view".into(),
            n_views: 1,
            n_threads: 16,
            commits: 100,
            txns_per_vsec: tps,
            abort_rate: 0.5,
            gate_fast_path_hit_rate: 1.0,
            clock_bumps: 100,
            ..GateRow::default()
        }
    }

    /// The smallest row set that holds every invariant: the three default
    /// rows, every variant row (NOrec's coarse one faster than its twin)
    /// and a spinning bounded-buffer row with its blocking twin.
    fn gate() -> Vec<GateRow> {
        let buffer = |version: &str, busy, parked| GateRow {
            version: version.into(),
            busy_retries_per_commit: busy,
            parked_waits: parked,
            ..row("NOrec", "backoff", "global", 1.0)
        };
        vec![
            row("NOrec", "backoff", "global", 2.0),
            row("OrecEagerRedo", "backoff", "global", 2.0),
            row("OrecLazy", "backoff", "global", 2.0),
            row("OrecEagerRedo", "windowed-greedy", "global", 2.0),
            row("OrecLazy", "windowed-greedy", "global", 2.0),
            row("NOrec", "backoff", "coarse", 2.5),
            buffer("bounded16-spin", 20.0, 0),
            buffer("bounded16-block", 1.0, 5),
        ]
    }

    fn without(rows: Vec<GateRow>, algo: &str, policy: &str, clock: &str) -> Vec<GateRow> {
        let keep = |r: &GateRow| (r.algo, r.policy, r.clock) != (algo, policy, clock);
        rows.into_iter().filter(keep).collect()
    }

    #[test]
    fn clock_rows_belong_to_norec_alone() {
        assert_eq!(check_gate(&gate()), Vec::<String>::new());
        let mut orec = gate();
        orec.push(row("OrecLazy", "backoff", "coarse", 2.5));
        assert_eq!(
            check_gate(&orec),
            ["OrecLazy/backoff/single-view/N=16/coarse: OrecLazy does not run backoff/coarse"]
        );
        let problems = check_gate(&without(orec, "NOrec", "backoff", "coarse"));
        assert!(
            problems.contains(&"no backoff/coarse row for NOrec".to_string()),
            "{problems:?}"
        );
    }

    #[test]
    fn a_policy_row_on_norec_is_flagged() {
        let mut rows = gate();
        rows.push(row("NOrec", "windowed-greedy", "global", 2.0));
        assert_eq!(
            check_gate(&rows),
            ["NOrec/windowed-greedy/single-view/N=16/global: \
              NOrec does not run windowed-greedy/global"]
        );
    }

    #[test]
    fn a_missing_variant_row_is_flagged() {
        let rows = without(gate(), "OrecLazy", "windowed-greedy", "global");
        assert_eq!(
            check_gate(&rows),
            ["no windowed-greedy/global row for OrecLazy"]
        );
    }

    #[test]
    fn a_variant_under_the_collapse_floor_is_flagged() {
        let mut rows = gate();
        rows[3].txns_per_vsec = 1.4;
        assert_eq!(
            check_gate(&rows),
            ["OrecEagerRedo/windowed-greedy/single-view/N=16/global: \
              collapsed vs its default twin (1.4 < 0.75x 2.0)"]
        );
        rows[3].txns_per_vsec = 1.5;
        assert_eq!(check_gate(&rows), Vec::<String>::new());
    }
}
