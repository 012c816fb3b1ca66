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
//!    is listed as removed and counted in the summary line
//!    ([`votm_bench::check::removed_rows`]). Report-only.
//! 5. **Current-artifact invariants** — [`votm_bench::check::check_gate`]
//!    on CURRENT, the same check the crate's gate test runs on its own
//!    output (completion, the wasted-work ledger, row shape, partition
//!    convergence, spin vs park, clock variants).
//!
//! Exit status: 0 clean, 1 regression/divergence, 2 usage or schema error.

use votm_bench::check::{self, f64_field, key_label, row_key, schema_version};
use votm_bench::json::{self, Json};

/// The one row field host load decides; every other field is determined
/// by the seeds and joins the identity rule.
const HOST_FIELD: &str = "wall_s";

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
    let removed = check::removed_rows(&base_doc, &cur_doc);
    for line in &removed {
        println!("{line}");
    }

    if let Some(line) = check::blocking_headline(&cur_doc) {
        println!("{line}");
    }
    problems.extend(check::check_gate(&cur_doc));

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
