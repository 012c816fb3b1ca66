//! The repo benchmark: six named workloads, end-to-end metrics in both of
//! VOTM's currencies (virtual time and host time), and a per-layer pass timed
//! from outside. See README.md beside this file for the tables.
//!
//! ```text
//! benchmark --workload NAME --seed S --seconds T --trace 0|1   one workload
//! benchmark [--seed S] [--seconds T] [--check-repeat]          all six
//! ```
//!
//! With `--workload`, the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Without it, each
//! workload's end-to-end metrics come from a child process of its own (so
//! `peak_rss_mb` is per workload); then this process makes the layer pass
//! once and the traced pass of every workload, and `results.json`,
//! `layers.json` and `trace.json` land in `$CARGO_TARGET_DIR/benchmark/`
//! (default `target/benchmark/`). Uses only the product crates' public APIs.

mod json;
mod layers;
mod measure;
mod metrics;
mod spec;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use measure::{LayerSample, SampleBudget, Tracer};
use metrics::{HostHealth, Metrics};
use spec::Better;
use workloads::{Rep, Workload};

/// How much of each workload to run, and for how long.
#[derive(Debug, Clone, Copy)]
struct Plan {
    seed: u64,
    /// Keep repeating until this much wall time has passed.
    seconds: f64,
    /// Repetitions to make even when `seconds` is already spent (the
    /// issue's R = 5).
    min_reps: usize,
    /// 1.0 = the frozen sizes.
    scale: f64,
}

/// One workload measured in one mode.
struct Report {
    workload: Workload,
    traced: bool,
    metrics: Metrics,
    /// Transactions the repetitions were expected to commit.
    attempted: u64,
    /// Of those, how many did not complete correctly.
    failed: u64,
    /// Broken invariants (fingerprint mismatch, ledger that does not sum).
    problems: Vec<String>,
    reps: usize,
    commits: u64,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Unit of metric `name`, and what the spec says about reading it.
    fn describe(&self, name: &str) -> (&'static str, String) {
        let spec = spec::get();
        if self.traced {
            spec.per_layer.iter().find(|m| m.name == name).map(|m| {
                let note = format!(
                    "{} is better; moves {} on {}",
                    m.better.name(),
                    m.moves,
                    m.on
                );
                (m.unit.as_str(), note)
            })
        } else {
            spec.end_to_end.iter().find(|m| m.name == name).map(|m| {
                let note = format!("{} is better; bound {}%", m.better.name(), m.bound * 100.0);
                (m.unit.as_str(), note)
            })
        }
        .unwrap_or_else(|| panic!("metric {name} is not in BENCHMARK.json"))
    }

    fn unit_of(&self, name: &str) -> &'static str {
        self.describe(name).0
    }

    /// The contract's result object.
    fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::str(self.unit_of(name))),
                        ]),
                    )
                })),
            ),
        ])
    }

    fn print(&self) {
        let mode = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        let name = self.workload.name();
        let why = spec::get().workloads.iter().find(|w| w.name == name);
        println!("# {name}: {}", why.map_or("", |w| w.why.as_str()));
        println!(
            "# {mode} (reps={}, commits/rep={}, failed_frac={})",
            self.reps,
            self.commits,
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        for (name, value) in &self.metrics {
            let (unit, note) = self.describe(name);
            println!("{name:<40} {value:>18.6} {unit:<7} ({note})");
        }
        for p in &self.problems {
            println!("PROBLEM: {p}");
        }
    }
}

/// Sums expected and failed transactions over `reps` and lists every broken
/// invariant: all repetitions of a seed must share one virtual fingerprint,
/// and each repetition's ledgers must sum.
fn audit(reps: &[&Rep]) -> (u64, u64, Vec<String>) {
    let mut problems = metrics::ledger_errors(&reps[0].run);
    let first = reps[0].run.fingerprint();
    for (i, rep) in reps.iter().enumerate().skip(1) {
        let fp = rep.run.fingerprint();
        if fp != first {
            problems.push(format!(
                "repetition {i} diverged in virtual time: {fp:?} vs {first:?}"
            ));
        }
    }
    let attempted = reps.iter().map(|r| r.run.expected_commits).sum();
    let failed = reps.iter().map(|r| r.run.failed()).sum();
    (attempted, failed, problems)
}

fn one_rep(w: Workload, plan: Plan, traced: bool, tracer: &mut Tracer) -> Rep {
    tracer.span("rep", |t| w.rep(plan.seed, plan.scale, traced, t))
}

/// Reads the host probe's drift over `reps`, and says so if it was large.
fn host_health<'a>(w: Workload, reps: impl IntoIterator<Item = &'a Rep>) -> HostHealth {
    let health = HostHealth::of(reps);
    if health.noisy() {
        println!(
            "noisy: host calibration drifted {:.1}% while {} ran",
            health.drift_rel * 100.0,
            w.name()
        );
    }
    health
}

/// The end-to-end metrics: untraced repetitions until `plan.seconds` is up.
fn measure_end_to_end(w: Workload, plan: Plan) -> Report {
    let started = Instant::now();
    let mut tracer = Tracer::new();
    let mut reps = Vec::new();
    let mut peak_rss_mb = None;
    while reps.len() < plan.min_reps || started.elapsed().as_secs_f64() < plan.seconds {
        reps.push(one_rep(w, plan, false, &mut tracer));
        // The footprint of one repetition in a fresh process. Later
        // repetitions only add allocator hysteresis: the high-water mark
        // creeps up in 512 KB steps at repetitions that differ run to run.
        peak_rss_mb.get_or_insert_with(|| measure::peak_rss_mb().unwrap_or(0.0));
    }
    let (attempted, failed, problems) = audit(&reps.iter().collect::<Vec<_>>());
    host_health(w, &reps);
    Report {
        workload: w,
        traced: false,
        metrics: metrics::end_to_end(&reps, peak_rss_mb.unwrap_or(0.0)),
        attempted,
        failed,
        problems,
        reps: reps.len(),
        commits: reps[0].run.commits(),
    }
}

/// The per-layer metrics: untraced/traced pairs for half of `plan.seconds`
/// (the layer pass, already made by the caller, takes the other half).
/// Returns the spans too, for `trace.json`.
fn measure_per_layer(w: Workload, plan: Plan, layers: &[LayerSample]) -> (Report, Tracer) {
    let started = Instant::now();
    let mut tracer = Tracer::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while untraced.is_empty() || started.elapsed().as_secs_f64() < plan.seconds / 2.0 {
        untraced.push(one_rep(w, plan, false, &mut tracer));
        traced.push(one_rep(w, plan, true, &mut tracer));
    }
    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let (attempted, failed, mut problems) = audit(&all);
    let health = host_health(w, all);
    let metrics = metrics::per_layer(&untraced, &traced, layers, &health);
    let frac = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    for name in [
        "vt.useful_frac",
        "vt.wasted_frac",
        "vt.gate_wait_frac",
        "vt.other_frac",
    ] {
        if !(-1e-9..=1.0 + 1e-9).contains(&frac(name)) {
            problems.push(format!("{name} = {} is not a share of the run", frac(name)));
        }
    }
    let report = Report {
        workload: w,
        traced: true,
        metrics,
        attempted,
        failed,
        problems,
        reps: untraced.len(),
        commits: untraced[0].run.commits(),
    };
    (report, tracer)
}

/// Where artifacts go: beside the build, never into tracked files.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("benchmark")
}

fn write_artifact(name: &str, value: &Json) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, value.encode() + "\n")?;
    Ok(path)
}

/// Chrome `trace_event` complete events ("ph":"X"), one per span, so the file
/// opens in chrome://tracing or Perfetto as is; `args` carries the span's id
/// and its parent's.
fn spans_json(w: Workload, tracer: &Tracer) -> Vec<Json> {
    let pid = Workload::ALL.iter().position(|&x| x == w).unwrap_or(0) + 1;
    tracer
        .spans()
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(pid as f64)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("workload", Json::str(w.name())),
                        ("id", Json::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect()
}

fn layers_json(layers: &[LayerSample]) -> Json {
    Json::Arr(
        layers
            .iter()
            .map(|l| {
                Json::obj([
                    ("name", Json::str(l.name)),
                    ("what", Json::str(l.what)),
                    ("min_ns", Json::Num(l.min_ns)),
                    ("median_ns", Json::Num(l.median_ns)),
                    ("samples", Json::Num(l.samples as f64)),
                    ("iters", Json::Num(l.iters as f64)),
                    ("ops_total", Json::Num(l.ops_total as f64)),
                    ("sink", Json::str(format!("{:#x}", l.sink))),
                ])
            })
            .collect(),
    )
}

fn print_layer_pass(layers: &[LayerSample]) {
    println!("# layer pass (ns per operation; ops and sink prove the loops ran)");
    for l in layers {
        println!(
            "{:<40} min {:>10.2} median {:>10.2} ns  ({} samples x {} iters, {} ops, sink {:#x})",
            l.name, l.min_ns, l.median_ns, l.samples, l.iters, l.ops_total, l.sink
        );
    }
}

/// `--workload NAME`: measure in this process and end with the result line.
fn run_one(w: Workload, plan: Plan, traced: bool) -> bool {
    let report = if traced {
        let layers = layers::layer_pass(SampleBudget::FULL);
        print_layer_pass(&layers);
        measure_per_layer(w, plan, &layers).0
    } else {
        measure_end_to_end(w, plan)
    };
    report.print();
    println!("{}", report.to_json().encode());
    report.correct()
}

/// Measures `w` end to end in a child process, echoes its report, and returns
/// its result object.
fn run_child(w: Workload, plan: Plan) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{body}");
    let result = Json::parse(last).map_err(|e| format!("{}: no result line ({e})", w.name()))?;
    if !out.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{} failed its checks", w.name()));
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// One child per workload; returns each workload's result object.
fn end_to_end_set(plan: Plan) -> Result<Vec<(Workload, Json)>, String> {
    Workload::ALL
        .into_iter()
        .map(|w| Ok((w, run_child(w, plan)?)))
        .collect()
}

fn print_summary(seed: u64, set: &[(Workload, Json)]) {
    println!(
        "\n# end-to-end summary, seed {seed} (a claim must also hold on the held-out seed {})",
        spec::HELD_OUT_SEED
    );
    print!("{:<22}", "metric");
    for (w, _) in set {
        print!(" {:>17}", w.name());
    }
    println!();
    for m in &spec::get().end_to_end {
        print!("{:<22}", format!("{} [{}]", m.name, m.unit));
        for (_, result) in set {
            print!(" {:>17.6}", metric_value(result, &m.name));
        }
        println!();
    }
}

/// How much worse `b` is than `a`, in the metric's unit (negative = better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

/// Set B against set A: virtual metrics identical, host metrics within their
/// bounds (a worsening below the metric's absolute floor is not counted).
/// Prints the observed difference beside every bound.
fn check_repeat(a: &[(Workload, Json)], b: &[(Workload, Json)]) -> bool {
    println!("\n# check-repeat: set B against set A (same code, same seed)");
    let mut ok = true;
    for ((w, ra), (_, rb)) in a.iter().zip(b) {
        for m in &spec::get().end_to_end {
            let (va, vb) = (metric_value(ra, &m.name), metric_value(rb, &m.name));
            let worse = worsening(m.better, va, vb);
            let (pass, rule) = if m.exact() {
                (va.to_bits() == vb.to_bits(), ", must be identical".into())
            } else if m.floor() > 0.0 {
                (
                    worse <= m.bound * va || worse <= m.floor(),
                    format!(" and > {} {}", m.floor(), m.unit),
                )
            } else {
                (worse <= m.bound * va, String::new())
            };
            ok &= pass;
            println!(
                "{:<18} {:<20} A {:>16.6} B {:>16.6} worse by {:>+8.3}% (bound {:>5.1}%{rule}) {}",
                w.name(),
                m.name,
                va,
                vb,
                worse / va * 100.0,
                m.bound * 100.0,
                if pass { "ok" } else { "FAIL" },
            );
        }
    }
    ok
}

/// No `--workload`: the whole suite. End-to-end metrics from one child per
/// workload, then one layer pass and every workload's traced pass here.
fn run_suite(plan: Plan, repeat: bool) -> Result<bool, String> {
    let set_a = end_to_end_set(plan)?;
    let layers = layers::layer_pass(SampleBudget::FULL);
    print_layer_pass(&layers);
    let (mut per_layer, mut events) = (Vec::new(), Vec::new());
    for w in Workload::ALL {
        let (report, tracer) = measure_per_layer(w, plan, &layers);
        report.print();
        if !report.correct() {
            return Err(format!("{} failed its checks in the traced pass", w.name()));
        }
        per_layer.push(report.to_json());
        events.extend(spans_json(w, &tracer));
    }
    print_summary(plan.seed, &set_a);

    let results = Json::obj([
        ("seed", Json::Num(plan.seed as f64)),
        ("seconds", Json::Num(plan.seconds)),
        (
            "workloads",
            Json::obj(set_a.iter().zip(per_layer).map(|((w, e2e), pl)| {
                (
                    w.name(),
                    Json::obj([("end_to_end", e2e.clone()), ("per_layer", pl)]),
                )
            })),
        ),
    ]);
    for (name, value) in [
        ("results.json", results),
        ("layers.json", layers_json(&layers)),
        (
            "trace.json",
            Json::obj([("traceEvents", Json::Arr(events))]),
        ),
    ] {
        let path = write_artifact(name, &value).map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
    }

    if repeat {
        let set_b = end_to_end_set(plan)?;
        return Ok(check_repeat(&set_a, &set_b));
    }
    Ok(true)
}

struct Args {
    workload: Option<Workload>,
    plan: Plan,
    traced: bool,
    check_repeat: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        plan: Plan {
            seed: spec::DEFAULT_SEED,
            seconds: spec::get().run_seconds,
            min_reps: 5,
            scale: 1.0,
        },
        traced: false,
        check_repeat: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--check-repeat" {
            args.check_repeat = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => args.plan.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.plan.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&args.plan.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.check_repeat && args.workload.is_some() {
        return Err("--check-repeat compares whole suites; drop --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(w) => Ok(run_one(w, args.plan, args.traced)),
        None => run_suite(args.plan, args.check_repeat),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `BENCHMARK.json` keeps to the driver's schema, names a driver for every
    /// workload, and every per-layer entry names the end-to-end metric and
    /// the workload it should move.
    #[test]
    fn benchmark_json_is_well_formed_and_fully_mapped() {
        let doc = Json::parse(include_str!("../../../BENCHMARK.json")).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr),
            Some(&[Json::str("src/bin/benchmark")][..]),
            "the benchmark lives in one directory"
        );
        let command: Vec<&str> = doc
            .get("command")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert!(
            command.contains(&"src/bin/benchmark/Cargo.toml"),
            "the command builds the stand-alone package: {command:?}"
        );

        let spec = spec::get();
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        let drivers: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        let declared: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(declared, drivers);
        for w in &spec.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        for m in &spec.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
        }
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        let setup = setup.expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound));
        assert_eq!(spec.end_to_end.iter().filter(|m| !m.exact()).count(), 4);

        assert_eq!(spec.per_layer.len(), spec::MOVES.len());
        assert!(spec.per_layer.len() <= 128);
        for m in &spec.per_layer {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.moves == "none" || spec.end_to_end.iter().any(|e| e.name == m.moves),
                "{} moves unknown metric {}",
                m.name,
                m.moves
            );
            assert!(
                matches!(m.on, "all" | "none") || Workload::from_name(m.on).is_some(),
                "{} names unknown workload {}",
                m.name,
                m.on
            );
        }

        let mut seen = BTreeSet::new();
        let names = declared
            .into_iter()
            .chain(spec.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    /// The lines of `[section]` in a manifest, comments and blanks dropped.
    fn manifest_section<'a>(manifest: &'a str, section: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != section)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// This file is compiled twice: as the stand-alone package every
    /// measurement is taken from, and as a binary of the root package, which
    /// is how tier-1 compiles it and runs these tests. Cargo reads profiles
    /// only from the manifest it is pointed at, so the stand-alone manifest
    /// repeats the root's; they must not drift apart.
    #[test]
    fn stand_alone_manifest_builds_with_the_root_profiles() {
        let root = include_str!("../../../Cargo.toml");
        let own = include_str!("Cargo.toml");
        for section in ["[profile.release]", "[profile.test]"] {
            let lines = manifest_section(root, section);
            assert!(!lines.is_empty(), "root manifest has no {section}");
            assert_eq!(manifest_section(own, section), lines, "{section}");
        }
        assert!(
            manifest_section(own, "[dependencies]")
                .iter()
                .all(|l| !l.starts_with("votm-bench")),
            "the benchmark must not depend on crates/bench"
        );
    }

    /// At 1/20 size every workload emits exactly the declared metric names,
    /// each a finite number with a unit, and passes its own output checks.
    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        let plan = Plan {
            seed: spec::DEFAULT_SEED,
            seconds: 0.0,
            min_reps: 2,
            scale: 0.05,
        };
        let layers = layers::layer_pass(SampleBudget::SMOKE);
        let spec = spec::get();
        let declared_e2e: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let declared_layers: BTreeSet<&str> =
            spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        for w in Workload::ALL {
            let e2e = measure_end_to_end(w, plan);
            let names: Vec<&str> = e2e.metrics.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, declared_e2e, "{}", w.name());
            assert!(
                e2e.correct(),
                "{}: {:?} failed={}",
                w.name(),
                e2e.problems,
                e2e.failed
            );
            assert_eq!(e2e.reps, 2);

            let (pl, tracer) = measure_per_layer(w, plan, &layers);
            let names: BTreeSet<&str> = pl.metrics.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, declared_layers, "{}", w.name());
            assert_eq!(
                pl.metrics.len(),
                declared_layers.len(),
                "{}: duplicate",
                w.name()
            );
            assert!(
                pl.correct(),
                "{}: {:?} failed={}",
                w.name(),
                pl.problems,
                pl.failed
            );
            for report in [&e2e, &pl] {
                for (name, value) in &report.metrics {
                    assert!(value.is_finite(), "{} {name} = {value}", w.name());
                    assert!(!report.unit_of(name).is_empty());
                }
                // The result line parses back to what was measured.
                let line = Json::parse(&report.to_json().encode()).expect("result line");
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            }
            for m in spec.end_to_end.iter().filter(|m| m.name != "peak_rss_mb") {
                let (_, v) = e2e.metrics.iter().find(|(n, _)| *n == m.name).unwrap();
                assert!(*v > 0.0, "{} {} must never read 0", w.name(), m.name);
            }
            // Spans link to their parents: every rep holds a setup and a run.
            let spans = tracer.spans();
            let rep = spans.iter().find(|s| s.name == "rep").expect("rep span");
            for child in ["host_probe", "setup", "run", "collect_stats"] {
                assert!(
                    spans
                        .iter()
                        .any(|s| s.name == child && s.parent == Some(rep.id)),
                    "{}: no {child} span under rep",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload intruder_2v --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::Intruder2v));
        assert_eq!((a.plan.seed, a.plan.seconds, a.traced), (7, 3.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate 1").is_err());
        assert!(parse("--check-repeat --workload intruder_2v").is_err());
        assert!(parse("--check-repeat").unwrap().check_repeat);
    }
}
