//! Diffs two `BENCH_<n>.json` throughput-gate artifacts.
//!
//! ```text
//! benchdiff BASELINE.json CURRENT.json [--floor F] [--allow-virtual-drift]
//! ```
//!
//! The regression policy is the one CI has applied since the gate existed,
//! lifted out of ad-hoc workflow Python into a versioned binary:
//!
//! 1. **Schema guard** — both documents must carry the same major
//!    `schema_version` (a document without the field is the pre-versioned
//!    `1.0.0`). Mismatched majors are not comparable and fail fast.
//! 2. **Throughput floor** — every row present in both artifacts (keyed by
//!    algo × policy × version × threads × clock) must keep at least
//!    `--floor` (default 0.95) of the baseline's `txns_per_vsec`.
//! 3. **Row identity** — every field of every shared row except `wall_s`
//!    must equal the baseline's, compared as source text: counters, cycle
//!    ledgers, clock statistics and the ratios derived from them are all
//!    functions of the seeds under every clock kind, so any drift is a
//!    semantics change, not noise. That makes the diff a complete
//!    refactoring oracle: a change that keeps it clean changed no number.
//!    A field the baseline row lacks is skipped, so a baseline from an
//!    older schema minor still joins. `--allow-virtual-drift` downgrades
//!    this to a report for PRs that intentionally change the simulation.
//! 4. **Current-artifact sanity** — every row completed; clock-variant rows
//!    are present for every algorithm, none collapsed below 0.75× its
//!    default-clock twin, and at least one variant still beats the global
//!    clock on single-view NOrec (the paper's named bottleneck); if the
//!    document carries the `1.1` wasted-work ledger, `waste_frac` is a
//!    finite number and the per-reason wasted cycles sum exactly to
//!    `wasted_cycles`; if it carries `1.3` adaptive-partition rows, every
//!    `*-adaptive` row has a `*-hand` twin, repartitioned at least once,
//!    spent cycles in drain barriers, ended with at least two views, and
//!    converged to >= 0.90× its hand-partitioned twin's throughput; if it
//!    carries `1.2` blocking-scenario rows, every `*-block` row parked and
//!    lost no wakeup, the gated NOrec block row never escalated, and
//!    parking cut its spinning twin's busy retries per commit >= 10×.
//!
//! Exit status: 0 clean, 1 regression/divergence, 2 usage or schema error.

use votm_bench::json::{self, Json};

/// The one row field host load decides; every other field is determined
/// by the seeds and joins the identity rule.
const HOST_FIELD: &str = "wall_s";

/// The adaptive-convergence floor: a `partition-*-adaptive` row must reach
/// this fraction of its hand-partitioned twin's throughput.
const CONVERGENCE_FLOOR: f64 = 0.90;

/// The spin-vs-park floor: the gated `*-block` row must cut its `*-spin`
/// twin's busy retries per commit by at least this factor.
const PARK_BUSY_DROP: f64 = 10.0;

/// The clock-variant collapse threshold: a variant may honestly lose a bit
/// to the default on gate geometry, but under 0.75× is a bug.
const COLLAPSE_RATIO: f64 = 0.75;

fn fail_usage(msg: &str) -> ! {
    eprintln!("benchdiff: {msg}");
    eprintln!("usage: benchdiff BASELINE.json CURRENT.json [--floor F] [--allow-virtual-drift]");
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_usage(&format!("cannot read {path}: {e}")));
    json::parse(&text).unwrap_or_else(|e| fail_usage(&format!("{path}: {e}")))
}

/// `schema_version` of a gate document; absent means the field predates
/// versioning, which is exactly what `1.0.0` names.
fn schema_version(doc: &Json) -> String {
    doc.get("schema_version")
        .and_then(Json::as_str)
        .unwrap_or("1.0.0")
        .to_string()
}

fn major(version: &str) -> &str {
    version.split('.').next().unwrap_or(version)
}

/// Row identity across artifacts. `clock` defaults to `"global"` so
/// pre-clock-table baselines still join.
fn row_key(r: &Json) -> (String, String, String, u64, String) {
    let s = |k: &str| r.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    (
        s("algo"),
        s("policy"),
        s("version"),
        r.get("n_threads").and_then(Json::as_u64).unwrap_or(0),
        r.get("clock")
            .and_then(Json::as_str)
            .unwrap_or("global")
            .to_string(),
    )
}

fn key_label(k: &(String, String, String, u64, String)) -> String {
    format!("{}/{}/{}/N={}/{}", k.0, k.1, k.2, k.3, k.4)
}

fn f64_field(r: &Json, k: &str) -> f64 {
    r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut floor = 0.95f64;
    let mut allow_virtual_drift = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--floor" => {
                floor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail_usage("--floor takes a number"));
            }
            "--allow-virtual-drift" => allow_virtual_drift = true,
            "--help" | "-h" => fail_usage("diff two gate artifacts"),
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => fail_usage(&format!("unknown flag {other}")),
        }
    }
    if paths.len() != 2 {
        fail_usage("expected exactly two artifact paths");
    }
    let (base_path, cur_path) = (&paths[0], &paths[1]);
    let base_doc = load(base_path);
    let cur_doc = load(cur_path);

    let (bv, cv) = (schema_version(&base_doc), schema_version(&cur_doc));
    if major(&bv) != major(&cv) {
        eprintln!(
            "benchdiff: incompatible artifacts: {base_path} has schema_version {bv} but \
             {cur_path} has {cv} — major versions differ, the row schemas are not \
             comparable. Re-baseline instead of diffing across majors."
        );
        std::process::exit(2);
    }

    let base_rows = base_doc
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail_usage(&format!("{base_path}: no \"rows\" array")));
    let cur_rows = cur_doc
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail_usage(&format!("{cur_path}: no \"rows\" array")));
    let baseline: std::collections::BTreeMap<_, _> =
        base_rows.iter().map(|r| (row_key(r), r)).collect();

    let mut problems: Vec<String> = Vec::new();
    let mut shared = 0usize;
    println!(
        "benchdiff {base_path} (schema {bv}) -> {cur_path} (schema {cv}): \
         {} baseline rows, {} current rows",
        base_rows.len(),
        cur_rows.len()
    );
    println!(
        "{:<58} {:>14} {:>14} {:>8}",
        "row (algo/policy/version/N/clock)", "base tx/vs", "cur tx/vs", "ratio"
    );
    for r in cur_rows {
        let k = row_key(r);
        let label = key_label(&k);
        let Some(b) = baseline.get(&k) else {
            println!("{label:<58} {:>14} {:>14} {:>8}", "-", "new row", "-");
            continue;
        };
        shared += 1;
        let (bt, ct) = (f64_field(b, "txns_per_vsec"), f64_field(r, "txns_per_vsec"));
        let ratio = if bt > 0.0 { ct / bt } else { f64::NAN };
        let mut verdict = String::new();
        if ct < floor * bt {
            verdict = format!("REGRESSION (< {floor:.2}x floor)");
            problems.push(format!(
                "{label}: txns_per_vsec {bt:.1} -> {ct:.1} ({ratio:.3}x, floor {floor:.2})"
            ));
        }
        let Json::Obj(base_fields) = b else {
            fail_usage(&format!("{base_path}: row {label} is not an object"));
        };
        for (f, want) in base_fields.iter().filter(|(f, _)| *f != HOST_FIELD) {
            if r.get(f) != Some(want) {
                let msg = format!(
                    "{label}: field {f} diverged: {:?} -> {:?}",
                    Some(want),
                    r.get(f)
                );
                if allow_virtual_drift {
                    println!("  note: {msg}");
                } else {
                    problems.push(msg);
                    if verdict.is_empty() {
                        verdict = format!("DIVERGED ({f})");
                    }
                }
            }
        }
        println!("{label:<58} {bt:>14.1} {ct:>14.1} {ratio:>7.3}x  {verdict}");
    }

    // ---- Current-artifact sanity (independent of the baseline) ----
    let cur_schema = {
        let mut parts = cv.split('.');
        let major: u64 = parts.next().and_then(|p| p.parse().ok()).unwrap_or(0);
        let minor: u64 = parts.next().and_then(|p| p.parse().ok()).unwrap_or(0);
        (major, minor)
    };
    let cur_schema_has_ledger = cur_schema >= (1, 1);
    for r in cur_rows {
        let label = key_label(&row_key(r));
        let status = r.get("status").and_then(Json::as_str).unwrap_or("?");
        if status != "completed" {
            problems.push(format!("{label}: status {status}"));
        }
        if cur_schema_has_ledger {
            let wf = r.get("waste_frac").and_then(Json::as_f64);
            match wf {
                Some(w) if w.is_finite() && (0.0..=1.0).contains(&w) => {}
                other => {
                    problems.push(format!("{label}: waste_frac not a finite 0..=1: {other:?}"))
                }
            }
            let wasted = r.get("wasted_cycles").and_then(Json::as_u64).unwrap_or(0);
            let by_reason_sum: u64 = match r.get("wasted_by_reason") {
                Some(Json::Obj(m)) => m.values().filter_map(Json::as_u64).sum(),
                _ => {
                    problems.push(format!("{label}: missing wasted_by_reason"));
                    wasted
                }
            };
            if by_reason_sum != wasted {
                problems.push(format!(
                    "{label}: wasted_by_reason sums to {by_reason_sum}, wasted_cycles is {wasted}"
                ));
            }
        }
    }
    // Adaptive-partition block (`1.3` rows): every adaptive row has a
    // hand-partitioned twin, actually repartitioned (live splits through
    // the drain barrier, not a lucky static layout) and reached the
    // convergence floor against that twin.
    let scenario_rows = |prefix: &'static str, suffix: &'static str| {
        cur_rows.iter().filter(move |r| {
            let version = row_key(r).2;
            version.starts_with(prefix) && version.ends_with(suffix)
        })
    };
    let count = |r: &Json, k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
    let (n_hand, n_adaptive) = (
        scenario_rows("partition-", "-hand").count(),
        scenario_rows("partition-", "-adaptive").count(),
    );
    if n_hand != n_adaptive {
        problems.push(format!(
            "partition scenarios: {n_hand} hand rows but {n_adaptive} adaptive rows"
        ));
    }
    for r in scenario_rows("partition-", "-adaptive") {
        let label = key_label(&row_key(r));
        if count(r, "repartitions") == 0 {
            problems.push(format!(
                "{label}: adaptive partition row never repartitioned"
            ));
        }
        if count(r, "split_drain_cycles") == 0 {
            problems.push(format!("{label}: no cycles spent in drain barriers"));
        }
        if count(r, "n_views") < 2 {
            problems.push(format!("{label}: ended with fewer than two views"));
        }
        let ratio = f64_field(r, "converged_throughput_ratio");
        if ratio.is_nan() || ratio < CONVERGENCE_FLOOR {
            problems.push(format!(
                "{label}: converged to {ratio:.3}x hand-partitioned throughput \
                 (< {CONVERGENCE_FLOOR:.2}x floor)"
            ));
        }
    }
    // Blocking-scenario block (`1.2` rows): every blocking row really
    // parked and lost no wakeup, and against the one spinning row parking
    // must pay. Only that gated pair must be escalation-free — parking may
    // never read as starvation there; the orec comparison rows may
    // escalate on genuine conflict streaks (the watchdog working).
    for r in scenario_rows("", "-block") {
        let (parked, lost) = (count(r, "parked_waits"), count(r, "lost_wakeups"));
        if parked == 0 || lost != 0 {
            let label = key_label(&row_key(r));
            problems.push(format!(
                "{label}: parked {parked} times, lost {lost} wakeups"
            ));
        }
    }
    let spin = scenario_rows("", "-spin").next();
    let gated =
        spin.and_then(|s| scenario_rows("", "-block").find(|b| row_key(b).0 == row_key(s).0));
    if let (Some(spin), Some(block)) = (spin, gated) {
        let label = key_label(&row_key(block));
        let busy = |r| f64_field(r, "busy_retries_per_commit");
        let drop = busy(spin) / busy(block).max(0.05);
        println!(
            "blocking gate: busy retries/commit {:.2} (spin) -> {:.2} (block), {drop:.0}x drop",
            busy(spin),
            busy(block)
        );
        if count(block, "escalations") != 0 {
            problems.push(format!("{label}: gated blocking row escalated"));
        }
        if drop.is_nan() || drop < PARK_BUSY_DROP {
            problems.push(format!(
                "{label}: busy-retry drop only {drop:.1}x (< {PARK_BUSY_DROP}x)"
            ));
        }
    } else if cur_schema >= (1, 2) {
        problems.push("blocking scenario rows missing (a *-spin row and its twin)".to_string());
    }
    // Clock-variant block: presence, collapse floor, and the NOrec win.
    let max_n = cur_rows
        .iter()
        .filter_map(|r| r.get("n_threads").and_then(Json::as_u64))
        .max()
        .unwrap_or(0);
    let default_of = |algo: &str| {
        cur_rows.iter().find(|r| {
            let k = row_key(r);
            k.0 == algo
                && k.1 == "backoff"
                && k.2 == "single-view"
                && k.3 == max_n
                && k.4 == "global"
        })
    };
    let variants: Vec<&Json> = cur_rows
        .iter()
        .filter(|r| row_key(r).4 != "global")
        .collect();
    if !variants.is_empty() {
        let mut norec_win = false;
        for r in &variants {
            let k = row_key(r);
            let Some(base) = default_of(&k.0) else {
                problems.push(format!("{}: no default-clock twin", key_label(&k)));
                continue;
            };
            let (bt, ct) = (
                f64_field(base, "txns_per_vsec"),
                f64_field(r, "txns_per_vsec"),
            );
            if ct < COLLAPSE_RATIO * bt {
                problems.push(format!(
                    "{}: collapsed vs default clock ({ct:.1} < {COLLAPSE_RATIO}x {bt:.1})",
                    key_label(&k)
                ));
            }
            if k.0 == "NOrec"
                && (ct > bt || f64_field(r, "abort_rate") <= 0.9 * f64_field(base, "abort_rate"))
            {
                norec_win = true;
            }
        }
        if !norec_win {
            problems.push(
                "no clock variant improved single-view NOrec (throughput or >=10% abort cut)"
                    .to_string(),
            );
        }
    }

    let base_wall: f64 = base_rows.iter().map(|r| f64_field(r, "wall_s")).sum();
    let cur_wall = cur_doc
        .get("wall_s_total")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    println!(
        "{} shared rows compared; wall {base_wall:.2}s -> {cur_wall:.2}s \
         (cross-host, report-only)",
        shared
    );
    if problems.is_empty() {
        println!("verdict: OK");
    } else {
        println!("verdict: {} problem(s)", problems.len());
        for p in &problems {
            println!("  FAIL: {p}");
        }
        std::process::exit(1);
    }
}
