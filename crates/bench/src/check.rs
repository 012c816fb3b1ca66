//! The gate artifact's invariants over a parsed `BENCH_<n>.json` document:
//! the one check `benchdiff` runs on the artifact it is given and the gate
//! test runs on the crate's own output, so CI and the test hold the same
//! predicates.

use votm::{ClockKind, CmPolicy, TmAlgorithm};

use crate::json::Json;

/// The fraction of its hand twin's throughput an adaptive row must reach.
const CONVERGENCE_FLOOR: f64 = 0.90;

/// The factor by which the gated `*-block` row must cut its `*-spin` twin's
/// busy retries per commit.
const PARK_BUSY_DROP: f64 = 10.0;

/// A clock variant may honestly lose a bit to its default-clock twin on gate
/// geometry, but under this fraction is a bug.
const COLLAPSE_RATIO: f64 = 0.75;

/// Row identity across artifacts: algo × policy × version × N × clock.
pub type RowKey = (String, String, String, u64, String);

/// The row's [`RowKey`]. `clock` defaults to `"global"` so pre-clock-table
/// baselines still join.
pub fn row_key(r: &Json) -> RowKey {
    let clock = r.get("clock").and_then(Json::as_str).unwrap_or("global");
    (
        text(r, "algo").to_string(),
        text(r, "policy").to_string(),
        text(r, "version").to_string(),
        count(r, "n_threads"),
        clock.to_string(),
    )
}

/// `algo/policy/version/N=n/clock`, the row label every report line uses.
pub fn key_label(k: &RowKey) -> String {
    format!("{}/{}/{}/N={}/{}", k.0, k.1, k.2, k.3, k.4)
}

/// A numeric field, NaN when absent or `null`.
pub fn f64_field(r: &Json, k: &str) -> f64 {
    r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// `schema_version` of a gate document; absent means the field predates
/// versioning, which is exactly what `1.0.0` names.
pub fn schema_version(doc: &Json) -> String {
    doc.get("schema_version")
        .and_then(Json::as_str)
        .unwrap_or("1.0.0")
        .to_string()
}

fn text<'a>(r: &'a Json, k: &str) -> &'a str {
    r.get(k).and_then(Json::as_str).unwrap_or("?")
}

fn count(r: &Json, k: &str) -> u64 {
    r.get(k).and_then(Json::as_u64).unwrap_or(0)
}

fn rows(doc: &Json) -> &[Json] {
    doc.get("rows").and_then(Json::as_arr).unwrap_or_default()
}

/// One report line per `base` row whose key no `cur` row carries, in
/// baseline order: the rows a change deleted, which the per-row diff over
/// `cur` cannot see. Report-only — removing a row is not a regression.
pub fn removed_rows(base: &Json, cur: &Json) -> Vec<String> {
    let current: std::collections::BTreeSet<RowKey> = rows(cur).iter().map(row_key).collect();
    rows(base)
        .iter()
        .filter(|r| !current.contains(&row_key(r)))
        .map(|r| {
            let label = key_label(&row_key(r));
            let bt = f64_field(r, "txns_per_vsec");
            format!("{label:<58} {bt:>14.1} {:>14} {:>8}", "removed", "-")
        })
        .collect()
}

/// The gated spin-vs-park pair: the first `*-spin` row and the `*-block`
/// row of its algorithm.
fn blocking_pair(rows: &[Json]) -> Option<(&Json, &Json)> {
    let version = |r: &Json, suffix| text(r, "version").ends_with(suffix);
    let spin = rows.iter().find(|r| version(r, "-spin"))?;
    let algo = text(spin, "algo");
    let block = rows
        .iter()
        .find(|r| version(r, "-block") && text(r, "algo") == algo)?;
    Some((spin, block))
}

fn busy(r: &Json) -> f64 {
    f64_field(r, "busy_retries_per_commit")
}

/// The spin-vs-park headline `benchdiff` prints, when `doc` has the gated
/// pair.
pub fn blocking_headline(doc: &Json) -> Option<String> {
    let (spin, block) = blocking_pair(rows(doc))?;
    let (s, b) = (busy(spin), busy(block));
    Some(format!(
        "blocking gate: busy retries/commit {s:.2} (spin) -> {b:.2} (block), {:.0}x drop",
        s / b.max(0.05)
    ))
}

/// Every invariant `doc` breaks, one line each; empty when it holds them
/// all: completion, the wasted-work ledger, row shape, partition
/// convergence, spin vs park and the clock variants. A check over fields
/// a schema minor introduced applies from that minor on.
pub fn check_gate(doc: &Json) -> Vec<String> {
    let schema = {
        let version = schema_version(doc);
        let mut parts = version.split('.').map(|p| p.parse::<u64>().unwrap_or(0));
        (parts.next().unwrap_or(0), parts.next().unwrap_or(0))
    };
    let rows = rows(doc);
    let ending = |suffix| {
        rows.iter()
            .filter(move |r| text(r, "version").ends_with(suffix))
    };
    let label = |r: &Json| key_label(&row_key(r));
    let mut problems = Vec::new();
    let mut need = |holds: bool, problem: String| {
        if !holds {
            problems.push(problem);
        }
    };

    // Completion, the wasted-work ledger (1.1) and the row shape (1.3).
    for r in rows {
        let (l, version, status) = (label(r), text(r, "version"), text(r, "status"));
        need(status == "completed", format!("{l}: status {status}"));
        let mut ranges = vec![];
        if schema >= (1, 1) {
            ranges.push(("waste_frac", 1.0));
            let wasted = count(r, "wasted_cycles");
            let by_reason = match r.get("wasted_by_reason") {
                Some(Json::Obj(m)) => Some(m.values().filter_map(Json::as_u64).sum()),
                _ => None,
            };
            need(
                by_reason == Some(wasted),
                format!("{l}: wasted_by_reason sums to {by_reason:?}, wasted_cycles is {wasted}"),
            );
        }
        if schema >= (1, 3) {
            ranges.extend([
                ("abort_rate", 1.0),
                ("gate_fast_path_hit_rate", 1.0),
                ("busy_retries_per_commit", f64::MAX),
            ]);
            let committed = count(r, "commits") > 0 && f64_field(r, "txns_per_vsec") > 0.0;
            need(committed, format!("{l}: committed nothing"));
            let (bumps, skips) = (count(r, "clock_bumps"), count(r, "clock_bump_skips"));
            need(
                row_key(r).4 != "global" || (bumps > 0 && skips == 0),
                format!("{l}: the global clock bumped {bumps} times and skipped {skips}"),
            );
            let still = count(r, "repartitions") == 0
                && count(r, "split_drain_cycles") == 0
                && f64_field(r, "converged_throughput_ratio") == 0.0;
            need(
                still || version.starts_with("partition-"),
                format!("{l}: only adaptive domains repartition"),
            );
            let views = 1 + u64::from(version == "multi-view" || version.ends_with("-hand"));
            need(
                version.ends_with("-adaptive") || count(r, "n_views") == views,
                format!("{l}: {} views, expected {views}", count(r, "n_views")),
            );
        }
        for (k, max) in ranges {
            let v = f64_field(r, k);
            let in_range = (0.0..=max).contains(&v);
            need(in_range, format!("{l}: {k} {v} out of range"));
        }
    }
    if schema >= (1, 3) {
        for policy in CmPolicy::ALL.map(CmPolicy::name) {
            let present = rows.iter().any(|r| text(r, "policy") == policy);
            need(present, format!("no {policy} policy rows"));
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
        let l = label(r);
        let splits = count(r, "repartitions");
        let (drained, views) = (count(r, "split_drain_cycles"), count(r, "n_views"));
        need(
            splits > 0 && drained > 0 && views >= 2,
            format!("{l}: {splits} repartitions, {drained} drain cycles, {views} views at the end"),
        );
        let ratio = f64_field(r, "converged_throughput_ratio");
        need(
            ratio >= CONVERGENCE_FLOOR,
            format!("{l}: converged to {ratio:.3}x its hand twin (< {CONVERGENCE_FLOOR:.2}x)"),
        );
    }

    // Blocking: every blocking row really parked and lost no wakeup, no
    // spinning row parked, and against the one spinning row parking must
    // pay for the same work. Only that gated pair must be escalation-free —
    // parking may never read as starvation there; the orec comparison rows
    // may escalate on genuine conflict streaks (the watchdog working).
    for r in ending("-block") {
        let (parked, lost) = (count(r, "parked_waits"), count(r, "lost_wakeups"));
        need(
            parked > 0 && lost == 0,
            format!("{}: parked {parked} times, lost {lost} wakeups", label(r)),
        );
    }
    for r in ending("-spin") {
        let (l, parked) = (label(r), count(r, "parked_waits"));
        need(parked == 0, format!("{l}: spun, yet parked {parked} times"));
    }
    if let Some((spin, block)) = blocking_pair(rows) {
        let (l, drop) = (label(block), busy(spin) / busy(block).max(0.05));
        let esc = count(block, "escalations");
        need(esc == 0, format!("{l}: escalated {esc} times"));
        need(
            drop >= PARK_BUSY_DROP,
            format!("{l}: busy-retry drop only {drop:.1}x (< {PARK_BUSY_DROP}x)"),
        );
        let same = count(spin, "commits") == count(block, "commits");
        need(
            same,
            format!("{l}: commits differ from its spinning twin's"),
        );
    } else {
        need(schema < (1, 2), "no *-spin row with a *-block twin".into());
    }

    // Clock variants: presence, shape, collapse floor, and the NOrec win.
    let variants: Vec<&Json> = rows.iter().filter(|r| row_key(r).4 != "global").collect();
    if variants.is_empty() {
        return problems;
    }
    let max_n = rows.iter().map(|r| count(r, "n_threads")).max();
    let default_of = |algo: &str| {
        let key = (algo, "backoff", "single-view", max_n, "global");
        rows.iter().find(|r| {
            let k = row_key(r);
            (
                k.0.as_str(),
                k.1.as_str(),
                k.2.as_str(),
                Some(k.3),
                k.4.as_str(),
            ) == key
        })
    };
    for kind in ClockKind::ALL
        .into_iter()
        .filter(|&c| c != ClockKind::Global)
    {
        for algo in TmAlgorithm::ALL.map(TmAlgorithm::name) {
            let present = variants
                .iter()
                .any(|r| text(r, "algo") == algo && text(r, "clock") == kind.name());
            need(present, format!("no {} clock row for {algo}", kind.name()));
        }
    }
    let mut norec_win = false;
    for r in variants {
        let (k, l) = (row_key(r), label(r));
        let comparable = k.1 == "backoff" && k.2 == "single-view";
        need(comparable, format!("{l}: not a single-view backoff row"));
        let Some(base) = default_of(&k.0) else {
            need(false, format!("{l}: no default-clock twin"));
            continue;
        };
        let bt = f64_field(base, "txns_per_vsec");
        let ct = f64_field(r, "txns_per_vsec");
        need(
            ct >= COLLAPSE_RATIO * bt,
            format!("{l}: collapsed vs default clock ({ct:.1} < {COLLAPSE_RATIO}x {bt:.1})"),
        );
        let abort_cut = f64_field(r, "abort_rate") <= 0.9 * f64_field(base, "abort_rate");
        norec_win |= k.0 == "NOrec" && (ct > bt || abort_cut);
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
    use crate::json;

    #[test]
    fn a_baseline_only_row_is_reported_removed() {
        let row = |algo: &str| {
            format!(
                r#"{{"algo": "{algo}", "policy": "backoff", "version": "single-view",
                    "n_threads": 16, "clock": "global", "txns_per_vsec": 2.5}}"#
            )
        };
        let doc =
            |rows: &[String]| json::parse(&format!(r#"{{"rows": [{}]}}"#, rows.join(","))).unwrap();
        let base = doc(&[row("NOrec"), row("OrecLazy")]);
        let cur = doc(&[row("NOrec")]);
        let removed = removed_rows(&base, &cur);
        assert_eq!(removed.len(), 1, "{removed:?}");
        assert!(removed[0].starts_with("OrecLazy/backoff/single-view/N=16/global "));
        assert!(removed[0].contains("removed"));
        assert!(
            removed_rows(&cur, &base).is_empty(),
            "a new row is not removed"
        );
    }
}
