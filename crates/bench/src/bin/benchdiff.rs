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
//! 4. **Removed rows** — every baseline row the current artifact lacks
//!    is listed as removed and counted in the summary line. Report-only.
//!
//! The artifact's own invariants are not checked here: `tables --json`
//! runs [`votm_bench::check::check_gate`] on the rows as it makes them and
//! exits 1 on any problem, so a written artifact has already passed them.
//!
//! Exit status: 0 clean, 1 regression/divergence, 2 usage or schema error.

use std::collections::{BTreeMap, BTreeSet};

use votm_bench::json::{self, Json};

/// The one row field host load decides; every other field is determined
/// by the seeds and joins the identity rule.
const HOST_FIELD: &str = "wall_s";

/// Row identity across artifacts: algo × policy × version × N × clock.
type RowKey = (String, String, String, u64, String);

/// The row's [`RowKey`]. `clock` defaults to `"global"` so pre-clock-table
/// baselines still join.
fn row_key(r: &Json) -> RowKey {
    let text = |k, absent: &str| {
        r.get(k)
            .and_then(Json::as_str)
            .unwrap_or(absent)
            .to_string()
    };
    let n = r.get("n_threads").and_then(Json::as_u64).unwrap_or(0);
    let (algo, policy, version) = (text("algo", "?"), text("policy", "?"), text("version", "?"));
    (algo, policy, version, n, text("clock", "global"))
}

/// `algo/policy/version/N=n/clock`, the row label every report line uses.
fn key_label(k: &RowKey) -> String {
    format!("{}/{}/{}/N={}/{}", k.0, k.1, k.2, k.3, k.4)
}

/// A numeric field, NaN when absent or `null`.
fn f64_field(r: &Json, k: &str) -> f64 {
    r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// `schema_version` of a gate document; absent means the field predates
/// versioning, which is exactly what `1.0.0` names.
fn schema_version(doc: &Json) -> String {
    let version = doc.get("schema_version").and_then(Json::as_str);
    version.unwrap_or("1.0.0").to_string()
}

/// One report line per `base` row whose key no `cur` row carries, in
/// baseline order: the rows a change deleted, which the per-row diff over
/// `cur` cannot see. Report-only — removing a row is not a regression.
fn removed_rows(base: &[Json], cur: &[Json]) -> Vec<String> {
    let current: BTreeSet<RowKey> = cur.iter().map(row_key).collect();
    base.iter()
        .filter(|r| !current.contains(&row_key(r)))
        .map(|r| {
            let label = key_label(&row_key(r));
            let bt = f64_field(r, "txns_per_vsec");
            format!("{label:<58} {bt:>14.1} {:>14} {:>8}", "removed", "-")
        })
        .collect()
}

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

fn major(version: &str) -> &str {
    version.split('.').next().unwrap_or(version)
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
    let baseline: BTreeMap<_, _> = base_rows.iter().map(|r| (row_key(r), r)).collect();

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
    let removed = removed_rows(base_rows, cur_rows);
    for line in &removed {
        println!("{line}");
    }

    let base_wall: f64 = base_rows.iter().map(|r| f64_field(r, "wall_s")).sum();
    let cur_wall = cur_doc
        .get("wall_s_total")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    println!(
        "{shared} shared rows compared, {} removed; wall {base_wall:.2}s -> {cur_wall:.2}s \
         (cross-host, report-only)",
        removed.len()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_baseline_only_row_is_reported_removed() {
        let row = |algo: &str| {
            json::parse(&format!(
                r#"{{"algo": "{algo}", "policy": "backoff", "version": "single-view",
                    "n_threads": 16, "clock": "global", "txns_per_vsec": 2.5}}"#
            ))
            .unwrap()
        };
        let base = [row("NOrec"), row("OrecLazy")];
        let cur = [row("NOrec")];
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
