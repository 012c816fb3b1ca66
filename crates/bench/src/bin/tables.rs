//! Regenerates the paper's Tables III–X and the two extension tables.
//!
//! ```text
//! tables [--table N]... [--eigen-scale F] [--intruder-scale F]
//!        [--threads N] [--seed S] [--cap-factor K]
//! ```
//!
//! With no `--table` arguments the eight paper tables and the two extension
//! tables — 11 (three-algorithm comparison) and 12 (thread scaling) — run in
//! order. Each table is a list of [`Run`]s through `votm_bench::run` or
//! `sweep` and a formatter; output is markdown (paste-ready for
//! EXPERIMENTS.md). Scales default to the values recorded in EXPERIMENTS.md;
//! `--eigen-scale 1.0 --intruder-scale 1.0` reproduces the paper's full
//! workload sizes (hours of virtual-time simulation on one core — bring a
//! book).

use votm::{ClockKind, CmPolicy, QuotaMode, TmAlgorithm, Version};
use votm_bench::{check, fmt, run, sweep, App, Run, Settings};
use votm_sim::SimConfig;

struct Args {
    tables: Vec<u32>,
    settings: Settings,
    /// `--json PATH`: run the throughput gate, write its artifact to PATH
    /// and the sidecar tables to the working directory, and check the
    /// rows' invariants, instead of printing markdown tables.
    json: Option<String>,
    /// `--trace PATH`: run one recorded multi-view adaptive Eigenbench sim
    /// and write the Chrome trace to PATH (plus the snapshot schema next to
    /// it) instead of printing markdown tables.
    trace: Option<String>,
    /// `--profile PATH`: run one recorded single-view adaptive Eigenbench
    /// sim and write the `votm-obs-profile-v1` conflict-topology profile
    /// (abort attribution, affinity matrix, suggested bi-partition) to PATH.
    profile: Option<String>,
    eigen_scale_set: bool,
}

fn parse_args() -> Args {
    let mut settings = Settings::default();
    let mut tables = Vec::new();
    let mut json = None;
    let mut trace = None;
    let mut profile = None;
    let mut eigen_scale_set = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| -> String {
            argv.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--table" => tables.push(
                value("--table")
                    .parse()
                    .expect("--table takes a number 3..=12"),
            ),
            "--json" => json = Some(value("--json")),
            "--trace" => trace = Some(value("--trace")),
            "--profile" => profile = Some(value("--profile")),
            "--eigen-scale" => {
                settings.eigen_scale = value("--eigen-scale").parse().expect("bad scale");
                eigen_scale_set = true;
            }
            "--intruder-scale" => {
                settings.intruder_scale = value("--intruder-scale").parse().expect("bad scale")
            }
            "--threads" => settings.n_threads = value("--threads").parse().expect("bad threads"),
            "--seed" => settings.seed = value("--seed").parse().expect("bad seed"),
            "--cap-factor" => {
                settings.cap_factor = value("--cap-factor").parse().expect("bad factor")
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: tables [--table N]... [--json PATH] [--trace PATH] [--profile PATH] \
                     [--eigen-scale F] [--intruder-scale F] [--threads N] [--seed S] \
                     [--cap-factor K]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    if tables.is_empty() {
        tables = (3..=12).collect();
    }
    Args {
        tables,
        settings,
        json,
        trace,
        profile,
        eigen_scale_set,
    }
}

/// The quick-mode Eigenbench scale the throughput gate pins (unless
/// overridden with `--eigen-scale`), so successive PRs' `BENCH_<n>.json`
/// artifacts are directly comparable.
const GATE_EIGEN_SCALE: f64 = 0.001;

/// Sidecar artifact of `--json`: the gate's policy and clock variant rows
/// beside their defaults (markdown).
const VARIANT_ARTIFACT: &str = "variant_table.md";

/// Sidecar artifact of `--json`: the adaptive-vs-hand-partitioned
/// convergence table (markdown), built from the gate's partition rows.
const PARTITION_ARTIFACT: &str = "partition_table.md";

fn write(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

/// Runs the gate, writes the artifact to `path` and the sidecar tables,
/// then checks the rows' invariants: every problem is listed, and any
/// problem exits 1.
fn run_json_gate(mut settings: Settings, eigen_scale_set: bool, path: &str) {
    if !eigen_scale_set {
        settings.eigen_scale = GATE_EIGEN_SCALE;
    }
    let t0 = std::time::Instant::now();
    let rows = votm_bench::throughput_gate(&settings);
    write(path, &votm_bench::gate_rows_to_json(&settings, &rows));
    let spreads = votm_bench::spreads(&settings, &rows);
    write(VARIANT_ARTIFACT, &fmt::variant_table(&rows, &spreads));
    write(PARTITION_ARTIFACT, &fmt::partition_table(&rows));
    let wall_total: f64 = rows.iter().map(|r| r.wall_s).sum();
    eprintln!(
        "wrote {path}, {VARIANT_ARTIFACT} and {PARTITION_ARTIFACT}: \
         {} rows in {:.1}s wall time ({wall_total:.2}s summed row wall_s)",
        rows.len(),
        t0.elapsed().as_secs_f64()
    );
    for r in &rows {
        eprintln!(
            "  {:>14} {:>15} {:>11} {:>11} N={:<2} -> {:>12.1} txns/vsec (abort rate {:.3}, \
             busy/commit {:.2}, gate fast-path {:.3}, wall {:.2}s)",
            r.algo,
            r.policy,
            r.clock,
            r.version,
            r.n_threads,
            r.txns_per_vsec,
            r.abort_rate,
            r.busy_retries_per_commit,
            r.gate_fast_path_hit_rate,
            r.wall_s
        );
    }
    if let Some(line) = check::blocking_headline(&rows) {
        eprintln!("{line}");
    }
    let problems = check::check_gate(&rows);
    if problems.is_empty() {
        eprintln!("invariants: OK");
    } else {
        eprintln!("invariants: {} problem(s)", problems.len());
        for p in &problems {
            eprintln!("  FAIL: {p}");
        }
        std::process::exit(1);
    }
}

/// The sidecar path for `--trace PATH`: `foo.json` → `foo.snapshot.json`.
fn snapshot_path(trace_path: &str) -> String {
    match trace_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.snapshot.json"),
        None => format!("{trace_path}.snapshot.json"),
    }
}

fn run_trace(settings: &Settings, path: &str) {
    let t0 = std::time::Instant::now();
    let cap = votm_bench::capture_trace(
        settings,
        TmAlgorithm::OrecEagerRedo,
        SimConfig {
            seed: settings.seed,
            ..SimConfig::default()
        },
        CmPolicy::Backoff,
        ClockKind::Global,
    );
    write(path, &cap.chrome_trace);
    let snap_path = snapshot_path(path);
    write(&snap_path, &cap.snapshot);
    let commits: u64 = cap.views.iter().map(|v| v.tm.commits).sum();
    let aborts: u64 = cap.views.iter().map(|v| v.tm.aborts).sum();
    eprintln!(
        "wrote {path} ({} bytes) and {snap_path} ({} bytes) in {:.1}s: \
         {commits} commits, {aborts} aborts, {} quota changes \
         (open the trace in chrome://tracing or https://ui.perfetto.dev)",
        cap.chrome_trace.len(),
        cap.snapshot.len(),
        t0.elapsed().as_secs_f64(),
        cap.quota_changes,
    );
}

fn run_profile(settings: &Settings, path: &str) {
    let t0 = std::time::Instant::now();
    let cap = votm_bench::capture_profile(settings, TmAlgorithm::OrecEagerRedo);
    write(path, &cap.json);
    let part = cap.profile.suggest_bipartition();
    eprintln!(
        "wrote {path} ({} bytes) in {:.1}s: {} aborts attributed over {} wasted cycles, \
         {} dropped events, separability {:.3}",
        cap.json.len(),
        t0.elapsed().as_secs_f64(),
        cap.profile.aborts_total,
        cap.profile.abort_cycles_total,
        cap.dropped,
        part.separability,
    );
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.profile {
        run_profile(&args.settings, path);
        return;
    }
    if let Some(path) = &args.trace {
        run_trace(&args.settings, path);
        return;
    }
    if let Some(path) = &args.json {
        run_json_gate(args.settings, args.eigen_scale_set, path);
        return;
    }
    let s = &args.settings;
    println!(
        "# VOTM table reproduction (eigen-scale {}, intruder-scale {:.6}, N={}, seed {}, cap {}x)\n",
        s.eigen_scale, s.intruder_scale, s.n_threads, s.seed, s.cap_factor
    );
    let input = s.intruder_input();
    let mut wall_total = 0.0f64;
    for &table in &args.tables {
        let t0 = std::time::Instant::now();
        let output = table_markdown(s, App::Intruder(&input), table);
        println!("{output}");
        let wall = t0.elapsed().as_secs_f64();
        wall_total += wall;
        println!("_(generated in {wall:.1}s wall time)_\n");
    }
    println!("_(total: {wall_total:.1}s wall time across all tables)_");
}

/// Table `n` as markdown: its runs, executed and formatted.
fn table_markdown(s: &Settings, intruder: App, n: u32) -> String {
    use TmAlgorithm::{NOrec, OrecEagerRedo};
    use Version::{MultiView, SingleView};
    let eigen = App::EIGEN;
    // The fixed-quota sweep of one version, formatted per its view count.
    let fixed = |title: &str, app, algo, version| {
        let rows = sweep(s, &s.run(app, algo, version).fixed_quota_sweep());
        if version == SingleView {
            fmt::sweep_table(title, &rows)
        } else {
            fmt::multi_view_sweep_table(title, &rows)
        }
    };
    // Every version at adaptive quotas (one block of Table VI or X).
    let adaptive = |title: &str, app, algo| {
        let runs = Version::ALL.map(|version| s.run(app, algo, version));
        fmt::adaptive_table(title, &sweep(s, &runs), |r| r.version.name())
    };
    match n {
        3 => fixed(
            "Table III — single-view Eigenbench, VOTM-OrecEagerRedo",
            eigen,
            OrecEagerRedo,
            SingleView,
        ),
        4 => fixed(
            "Table IV — single-view Intruder, VOTM-OrecEagerRedo",
            intruder,
            OrecEagerRedo,
            SingleView,
        ),
        5 => fixed(
            "Table V — multi-view Eigenbench, VOTM-OrecEagerRedo (Q2 = N)",
            eigen,
            OrecEagerRedo,
            MultiView,
        ),
        6 => {
            adaptive(
                "Table VI — adaptive RAC, VOTM-OrecEagerRedo: Eigenbench",
                eigen,
                OrecEagerRedo,
            ) + "\n"
                + &adaptive(
                    "Table VI — adaptive RAC, VOTM-OrecEagerRedo: Intruder",
                    intruder,
                    OrecEagerRedo,
                )
        }
        7 => fixed(
            "Table VII — single-view Eigenbench, VOTM-NOrec",
            eigen,
            NOrec,
            SingleView,
        ),
        8 => fixed(
            "Table VIII — single-view Intruder, VOTM-NOrec",
            intruder,
            NOrec,
            SingleView,
        ),
        9 => fixed(
            "Table IX — multi-view Eigenbench, VOTM-NOrec (Q2 = N)",
            eigen,
            NOrec,
            MultiView,
        ),
        10 => {
            // The configuration the paper reports beside Tables IV/VIII: "in
            // the multi-view version of Intruder, where both Q1 and Q2 are
            // set to 16".
            let full = run(
                s,
                Run {
                    quotas: [QuotaMode::Fixed(s.n_threads); 2],
                    ..s.run(intruder, NOrec, MultiView)
                },
                None,
            );
            adaptive(
                "Table X — adaptive RAC, VOTM-NOrec: Eigenbench",
                eigen,
                NOrec,
            ) + "\n"
                + &adaptive(
                    "Table X — adaptive RAC, VOTM-NOrec: Intruder",
                    intruder,
                    NOrec,
                )
                + &format!(
                    "\n(multi-view Intruder, Q1=Q2=N fixed: {} s, delta(Q1)={}, delta(Q2)={})\n",
                    fmt::runtime(full.outcome.status, full.runtime_s()),
                    fmt::delta(full.views[0].delta()),
                    fmt::delta(full.views[1].delta()),
                )
        }
        11 => {
            // Not in the paper: all three algorithms, multi-view adaptive —
            // grounds §IV-C's suggestion that views could pick different
            // algorithms. Eigenbench runs under its watchdog, Intruder
            // uncapped.
            let multi = |app, algo| s.run(app, algo, MultiView);
            let rows: Vec<_> = TmAlgorithm::ALL
                .into_iter()
                .flat_map(|algo| sweep(s, &[multi(eigen, algo)]))
                .chain(
                    TmAlgorithm::ALL
                        .into_iter()
                        .map(|algo| run(s, multi(intruder, algo), None)),
                )
                .collect();
            fmt::adaptive_table(
                "Extension — three-algorithm comparison, multi-view adaptive \
                 (first 3 rows Eigenbench, last 3 Intruder; not in the paper)",
                &rows,
                |r| r.algo.name(),
            )
        }
        12 => {
            // Not in the paper: Intruder/NOrec single- vs multi-view at full
            // fixed quota per N — how the value of splitting the global
            // clock grows with parallelism.
            let mut lines = vec![vec![
                "N".to_string(),
                "single-view (s)".to_string(),
                "multi-view (s)".to_string(),
                "speedup".to_string(),
            ]];
            for n in [2u32, 4, 8, 16] {
                let [single, multi] = [SingleView, MultiView].map(|version| {
                    let full = Run {
                        quotas: [QuotaMode::Fixed(n); 2],
                        n_threads: n,
                        ..s.run(intruder, NOrec, version)
                    };
                    run(s, full, None).runtime_s()
                });
                lines.push(vec![
                    n.to_string(),
                    format!("{single:.4}"),
                    format!("{multi:.4}"),
                    format!("{:.2}x", single / multi),
                ]);
            }
            format!(
                "### Extension — Intruder/NOrec multi-view speedup vs thread count \
                 (not in the paper)\n\n{}",
                fmt::markdown(&lines)
            )
        }
        other => panic!("no such table: {other} (expected 3..=12)"),
    }
}
