//! Paper-style formatting of experiment rows: human-scaled counts
//! (`7.01m`, `5.26G`) and table layouts matching the paper's.

use votm::QuotaMode;
use votm_sim::RunStatus;

use crate::{GateRow, Row, Run, Spread, GATE_SEEDS};

/// Formats a count the way the paper does: `3.2m`, `5.26G`, `49.8T`.
pub fn count(x: u64) -> String {
    let x = x as f64;
    const UNITS: [(f64, &str); 4] = [(1e12, "T"), (1e9, "G"), (1e6, "m"), (1e3, "k")];
    for (scale, suffix) in UNITS {
        if x >= scale {
            let mut s = format!("{:.3}", x / scale);
            while s.ends_with('0') {
                s.pop();
            }
            if s.ends_with('.') {
                s.pop();
            }
            s.push_str(suffix);
            return s;
        }
    }
    format!("{x:.0}")
}

/// Runtime cell: seconds with sensible precision, or "livelock".
pub fn runtime(status: RunStatus, seconds: f64) -> String {
    match status {
        RunStatus::Livelock => "livelock".to_string(),
        RunStatus::Completed => {
            if seconds >= 100.0 {
                format!("{seconds:.0}")
            } else if seconds >= 1.0 {
                format!("{seconds:.1}")
            } else {
                format!("{seconds:.4}")
            }
        }
        other => format!("{other:?}"),
    }
}

/// δ cell: "N/A" at Q ≤ 1 (paper convention).
pub fn delta(d: Option<f64>) -> String {
    match d {
        None => "N/A".to_string(),
        Some(d) if d == f64::INFINITY => "inf".to_string(),
        Some(d) if d >= 10.0 => format!("{d:.1}"),
        Some(d) if d >= 0.01 => format!("{d:.2}"),
        Some(d) => format!("{d:.4}"),
    }
}

/// Runtime cell of a row.
fn row_runtime(r: &Row) -> String {
    runtime(r.outcome.status, r.runtime_s())
}

/// Header cell of a sweep column: the row's Q₁.
fn q1(r: &Row) -> String {
    match r.run.quotas[0] {
        QuotaMode::Fixed(q) => q.to_string(),
        other => format!("{other:?}"),
    }
}

fn cell_or_livelock(status: RunStatus, s: String) -> String {
    if status == RunStatus::Livelock {
        "livelock".into()
    } else {
        s
    }
}

/// Renders a single-view sweep (Tables III, IV, VII, VIII) as markdown.
pub fn sweep_table(title: &str, rows: &[Row]) -> String {
    let mut out = format!("### {title}\n\n");
    let mut lines = vec![
        row_line("Q", rows, q1),
        row_line("Runtime(s)", rows, row_runtime),
    ];
    lines.push(row_line("#abort", rows, |r| {
        cell_or_livelock(r.outcome.status, count(r.views[0].tm.aborts))
    }));
    lines.push(row_line("#tx", rows, |r| {
        cell_or_livelock(r.outcome.status, count(r.views[0].tm.commits))
    }));
    lines.push(row_line("cycles_aborted", rows, |r| {
        cell_or_livelock(r.outcome.status, count(r.views[0].tm.cycles_aborted))
    }));
    lines.push(row_line("cycles_successful", rows, |r| {
        cell_or_livelock(r.outcome.status, count(r.views[0].tm.cycles_successful))
    }));
    lines.push(row_line("delta(Q)", rows, |r| {
        cell_or_livelock(r.outcome.status, delta(r.views[0].delta()))
    }));
    lines.push(row_line("abort rate", rows, |r| {
        let s = &r.views[0].tm;
        let attempts = s.commits + s.aborts;
        cell_or_livelock(
            r.outcome.status,
            if attempts == 0 {
                "0.000".to_string()
            } else {
                format!("{:.3}", s.aborts as f64 / attempts as f64)
            },
        )
    }));
    lines.push(row_line("busy_retries", rows, |r| {
        cell_or_livelock(r.outcome.status, count(r.views[0].tm.busy_retries))
    }));
    lines.push(row_line("busy_retries/commit", rows, |r| {
        let s = &r.views[0].tm;
        cell_or_livelock(
            r.outcome.status,
            if s.commits == 0 {
                "0.00".to_string()
            } else {
                format!("{:.2}", s.busy_retries as f64 / s.commits as f64)
            },
        )
    }));
    lines.push(row_line("gate_wait_cycles", rows, |r| {
        cell_or_livelock(r.outcome.status, count(r.views[0].tm.gate_wait_cycles))
    }));
    lines.push(row_line("gate fast/slow", rows, |r| {
        cell_or_livelock(
            r.outcome.status,
            format!(
                "{}/{}",
                count(r.views[0].gate.fast_acquires),
                count(r.views[0].gate.slow_acquires)
            ),
        )
    }));
    lines.push(row_line("commit p50/p99 (cyc)", rows, |r| {
        cell_or_livelock(
            r.outcome.status,
            format!(
                "{}/{}",
                count(r.views[0].hists.commit.quantile(0.50)),
                count(r.views[0].hists.commit.quantile(0.99))
            ),
        )
    }));
    out.push_str(&markdown(&lines));
    out
}

/// Renders a multi-view sweep (Tables V, IX): per-view statistics with Q₂
/// pinned.
pub fn multi_view_sweep_table(title: &str, rows: &[Row]) -> String {
    let mut out = format!("### {title}\n\n");
    let mut lines = vec![
        row_line("Q1", rows, q1),
        row_line("Runtime(s)", rows, row_runtime),
    ];
    for (vi, label) in [(0usize, "1"), (1, "2")] {
        lines.push(row_line(&format!("#abort{label}"), rows, |r| {
            cell_or_livelock(r.outcome.status, count(r.views[vi].tm.aborts))
        }));
        lines.push(row_line(&format!("#tx{label}"), rows, |r| {
            cell_or_livelock(r.outcome.status, count(r.views[vi].tm.commits))
        }));
        lines.push(row_line(&format!("cycles_aborted{label}"), rows, |r| {
            cell_or_livelock(r.outcome.status, count(r.views[vi].tm.cycles_aborted))
        }));
        lines.push(row_line(&format!("cycles_successful{label}"), rows, |r| {
            cell_or_livelock(r.outcome.status, count(r.views[vi].tm.cycles_successful))
        }));
        lines.push(row_line(&format!("delta(Q{label})"), rows, |r| {
            cell_or_livelock(r.outcome.status, delta(r.views[vi].delta()))
        }));
        lines.push(row_line(&format!("gate_wait_cycles{label}"), rows, |r| {
            cell_or_livelock(r.outcome.status, count(r.views[vi].tm.gate_wait_cycles))
        }));
        lines.push(row_line(
            &format!("commit{label} p50/p99 (cyc)"),
            rows,
            |r| {
                cell_or_livelock(
                    r.outcome.status,
                    format!(
                        "{}/{}",
                        count(r.views[vi].hists.commit.quantile(0.50)),
                        count(r.views[vi].hists.commit.quantile(0.99))
                    ),
                )
            },
        ));
    }
    out.push_str(&markdown(&lines));
    out
}

/// Renders an adaptive comparison block (half of Table VI or X, or the
/// three-algorithm extension), one line per row labelled by `label`: the
/// settled quota of every view (`-` for versions without RAC), total
/// aborts and commits.
pub fn adaptive_table(title: &str, rows: &[Row], label: fn(&Run) -> &'static str) -> String {
    let mut out = format!("### {title}\n\n");
    let mut lines = vec![vec![
        "version".to_string(),
        "time(s)".to_string(),
        "Q".to_string(),
        "#abort".to_string(),
        "#tx".to_string(),
    ]];
    for r in rows {
        let status = r.outcome.status;
        let qcell = if r.run.version.has_rac() {
            r.views
                .iter()
                .map(|v| v.quota.to_string())
                .collect::<Vec<_>>()
                .join(",")
        } else {
            "-".to_string()
        };
        lines.push(vec![
            label(&r.run).to_string(),
            row_runtime(r),
            cell_or_livelock(status, qcell),
            cell_or_livelock(status, count(r.views.iter().map(|v| v.tm.aborts).sum())),
            cell_or_livelock(status, count(r.views.iter().map(|v| v.tm.commits).sum())),
        ]);
    }
    out.push_str(&markdown(&lines));
    out
}

/// Renders the adaptive-vs-hand-partitioned convergence comparison (the
/// `partition_table.md` CI artifact). Each scenario contributes a pair of
/// rows: `*-hand` runs two statically partitioned views, `*-adaptive`
/// starts as ONE view and must split its way to comparable throughput.
pub fn partition_table(rows: &[GateRow]) -> String {
    let mut out =
        "### Online repartitioning — adaptive single-view vs hand-partitioned\n\n".to_string();
    let mut lines = vec![vec![
        "scenario".to_string(),
        "status".to_string(),
        "views".to_string(),
        "txns/vsec".to_string(),
        "abort rate".to_string(),
        "waste frac".to_string(),
        "repartitions".to_string(),
        "drain cycles".to_string(),
        "converged ratio".to_string(),
    ]];
    let pairs: Vec<&GateRow> = rows
        .iter()
        .filter(|r| r.version.starts_with("partition-"))
        .collect();
    for r in &pairs {
        lines.push(vec![
            r.version.to_string(),
            format!("{:?}", r.status),
            r.n_views.to_string(),
            format!("{:.1}", r.txns_per_vsec),
            format!("{:.3}", r.abort_rate),
            format!("{:.3}", r.waste_frac),
            r.repartitions.to_string(),
            count(r.split_drain_cycles),
            if r.converged_throughput_ratio > 0.0 {
                format!("{:.3}", r.converged_throughput_ratio)
            } else {
                "-".to_string()
            },
        ]);
    }
    out.push_str(&markdown(&lines));
    // The headline the gate exists to record: the worst adaptive scenario's
    // distance from its hand-partitioned twin.
    let worst = pairs
        .iter()
        .filter(|r| r.converged_throughput_ratio > 0.0)
        .min_by(|a, b| {
            a.converged_throughput_ratio
                .total_cmp(&b.converged_throughput_ratio)
        });
    if let Some(w) = worst {
        out.push_str(&format!(
            "\nWorst adaptive scenario `{}` converged to {:.3}x its hand-partitioned \
             twin's throughput (CI gate requires >= 0.90x) after {} repartition(s).\n",
            w.version, w.converged_throughput_ratio, w.repartitions,
        ));
    }
    out.push_str(
        "\nAdaptive rows start as a single view with the repartition controller live; \
         hand rows pin the same workload on two statically created views. `drain cycles` \
         is the total virtual time spent inside exclusive-drain barriers while remapping.\n",
    );
    out
}

/// Renders the gate's variant rows beside their defaults (the
/// `variant_table.md` CI artifact): every single-view row at the largest
/// gated N, one per algorithm under the default policy and clock and one
/// per variant cell it runs, then the NOrec clock headline.
pub fn variant_table(rows: &[GateRow], spreads: &[Spread]) -> String {
    let n = rows.iter().map(|r| r.n_threads).max().unwrap_or(0);
    let mut out = format!(
        "### Policy and clock variants — single-view Eigenbench, N={n}, adaptive quota\n\n"
    );
    let header = format!(
        "algo|policy|clock|status|txns/vsec|{GATE_SEEDS}-seed mean (min–max)|abort rate|\
         waste frac|busy/commit|bumps|#tx|#abort|commit p50/p99 (cyc)"
    );
    let mut lines = vec![header.split('|').map(String::from).collect::<Vec<_>>()];
    let comparable = |r: &&GateRow| r.version == "single-view" && r.n_threads == n;
    for r in rows.iter().filter(comparable) {
        // A default row aggregates its seeds itself and has no spread.
        let spread = spreads
            .iter()
            .find(|s| (s.algo, s.policy, s.clock) == (r.algo, r.policy, r.clock))
            .map_or("-".to_string(), |s| {
                format!("{:.1} ({:.1}–{:.1})", s.mean, s.min, s.max)
            });
        lines.push(vec![
            r.algo.to_string(),
            r.policy.to_string(),
            r.clock.to_string(),
            format!("{:?}", r.status),
            format!("{:.1}", r.txns_per_vsec),
            spread,
            format!("{:.3}", r.abort_rate),
            format!("{:.3}", r.waste_frac),
            format!("{:.2}", r.busy_retries_per_commit),
            count(r.clock_bumps),
            count(r.commits),
            count(r.aborts),
            format!(
                "{}/{}",
                count(r.commit_p50_cycles),
                count(r.commit_p99_cycles)
            ),
        ]);
    }
    out.push_str(&markdown(&lines));
    // The headline the clock rows exist to record: the best non-default
    // clock against the paper's single fetch-add clock on the workload
    // where the paper names the clock as the bottleneck (NOrec, single
    // view, N = 16).
    let norec = || {
        rows.iter()
            .filter(comparable)
            .filter(|r| r.algo == "NOrec" && r.policy == "backoff")
    };
    let base = norec().find(|r| r.clock == "global");
    let best = norec()
        .filter(|r| r.clock != "global")
        .max_by(|a, b| a.txns_per_vsec.total_cmp(&b.txns_per_vsec));
    if let (Some(base), Some(best)) = (base, best) {
        let speedup = if base.txns_per_vsec > 0.0 {
            best.txns_per_vsec / base.txns_per_vsec
        } else {
            0.0
        };
        let abort_cut = if base.abort_rate > 0.0 {
            1.0 - best.abort_rate / base.abort_rate
        } else {
            0.0
        };
        let (clock, best_abort, base_abort) = (best.clock, best.abort_rate, base.abort_rate);
        out.push_str(&format!(
            "\nNOrec single-view N={n}: best variant `{clock}` at {speedup:.2}x the default \
             clock's throughput, abort rate {best_abort:.3} vs {base_abort:.3} ({:+.1}% \
             relative).\n",
            -abort_cut * 100.0,
        ));
    }
    out.push_str(
        "\nDefault rows (`backoff`, `global`) aggregate the gate's seed sweep; variant \
         rows' headline `txns/vsec` is the single-seed comparison run (see the gate \
         artifact for the raw fields), while the mean (min–max) column aggregates three \
         deterministic seeds so a lucky seed cannot flip a ranking unnoticed. `bumps` \
         counts clock advances taken. Only the orec engines rank a policy (their lock \
         words name the holder) and only NOrec runs the coarse clock; the orec engine \
         ticks once per writer commit whatever the clock.\n",
    );
    out
}

fn row_line<F: Fn(&Row) -> String>(label: &str, rows: &[Row], f: F) -> Vec<String> {
    std::iter::once(label.to_string())
        .chain(rows.iter().map(f))
        .collect()
}

/// Column-aligned markdown table from rows of cells (first row = header).
pub fn markdown(lines: &[Vec<String>]) -> String {
    let cols = lines.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for line in lines {
        for (i, cell) in line.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render = |line: &[String]| -> String {
        let cells: Vec<String> = line
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        format!("| {} |\n", cells.join(" | "))
    };
    let mut out = String::new();
    out.push_str(&render(&lines[0]));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
    for line in &lines[1..] {
        out.push_str(&render(line));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_formats_like_paper() {
        assert_eq!(count(0), "0");
        assert_eq!(count(999), "999");
        assert_eq!(count(3_200_000), "3.2m");
        assert_eq!(count(7_010_000), "7.01m");
        assert_eq!(count(5_260_000_000), "5.26G");
        assert_eq!(count(49_800_000_000_000), "49.8T");
    }

    #[test]
    fn runtime_cells() {
        assert_eq!(runtime(RunStatus::Livelock, 1.0), "livelock");
        assert_eq!(runtime(RunStatus::Completed, 241.23), "241");
        assert_eq!(runtime(RunStatus::Completed, 63.81), "63.8");
        assert_eq!(runtime(RunStatus::Completed, 0.00171), "0.0017");
    }

    #[test]
    fn delta_cells() {
        assert_eq!(delta(None), "N/A");
        assert_eq!(delta(Some(0.49)), "0.49");
        assert_eq!(delta(Some(30.7)), "30.7");
        assert_eq!(delta(Some(0.0003)), "0.0003");
    }

    #[test]
    fn markdown_is_aligned() {
        let md = markdown(&[
            vec!["a".into(), "bb".into()],
            vec!["ccc".into(), "d".into()],
        ]);
        assert!(md.contains("| a   | bb |"));
        assert!(md.contains("| ccc | d  |"));
    }
}
