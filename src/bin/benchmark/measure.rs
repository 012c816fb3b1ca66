//! Host-side measuring tools: order statistics, the self-calibrating sample
//! loop of the layer pass, the in-process calibration probe, peak RSS, the
//! span tracer, and an interpolated histogram quantile.

use std::hint::black_box;
use std::time::Instant;

use votm_obs::hist::{bucket_lower, bucket_upper};
use votm_obs::HistogramSnapshot;

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `values`.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Interquartile range over the median — the spread statistic the benchmark
/// contract uses. Quartiles follow Python's `statistics.quantiles(v, n=4)`
/// (exclusive method); fewer than two samples have no spread.
pub fn iqr_rel(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / m
    }
}

/// How long and how often the layer pass samples each micro-benchmark.
#[derive(Debug, Clone, Copy)]
pub struct SampleBudget {
    /// Wall time one sample aims for; the inner iteration count is
    /// calibrated to it.
    pub target_ns: u64,
    /// Samples per micro-benchmark.
    pub samples: usize,
}

impl SampleBudget {
    /// The measuring budget: ≥ 10 samples of ~4 ms each.
    pub const FULL: SampleBudget = SampleBudget {
        target_ns: 4_000_000,
        samples: 11,
    };
    /// Just enough to exercise every code path (the name-contract test).
    #[cfg(test)]
    pub const SMOKE: SampleBudget = SampleBudget {
        target_ns: 20_000,
        samples: 2,
    };
}

/// One layer micro-benchmark's result, in nanoseconds per operation.
#[derive(Debug, Clone)]
pub struct LayerSample {
    pub name: &'static str,
    /// What one "operation" is, for `layers.json` readers.
    pub what: &'static str,
    pub min_ns: f64,
    pub median_ns: f64,
    pub samples: usize,
    /// Inner iterations per sample.
    pub iters: u64,
    /// Operations the loop performed in total (samples × iters × ops).
    pub ops_total: u64,
    /// Wrapping sum of everything the closure returned: printed so the
    /// compiler cannot prove the loop dead.
    pub sink: u64,
}

/// Times `f`, which performs `ops_per_call` operations per call and returns a
/// value derived from its work. Warms up, calibrates the inner loop to
/// `budget.target_ns`, then takes `budget.samples` samples.
pub fn sample(
    name: &'static str,
    what: &'static str,
    ops_per_call: u64,
    budget: SampleBudget,
    mut f: impl FnMut() -> u64,
) -> LayerSample {
    let mut sink = black_box(f());
    let t0 = Instant::now();
    sink = sink.wrapping_add(black_box(f()));
    let once = t0.elapsed().as_nanos().max(1) as u64;
    let iters = (budget.target_ns / once).clamp(1, 10_000_000);
    let mut per_op = Vec::with_capacity(budget.samples);
    for _ in 0..budget.samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            sink = sink.wrapping_add(black_box(f()));
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / (iters * ops_per_call) as f64);
    }
    LayerSample {
        name,
        what,
        min_ns: min(&per_op),
        median_ns: median(&per_op),
        samples: budget.samples,
        iters,
        ops_total: budget.samples as u64 * iters * ops_per_call,
        sink,
    }
}

/// Fixed amount of integer work; its wall time tracks how fast this host is
/// running right now. Timed before and after a workload: a drift between the
/// two readings means something else took the machine meanwhile.
pub fn calibration_ns() -> f64 {
    const ROUNDS: u64 = 2_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        for i in 0..ROUNDS {
            x = (x ^ (x >> 29))
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                .wrapping_add(i);
        }
        black_box(x);
        best = best.min(t0.elapsed().as_nanos() as f64 / ROUNDS as f64);
    }
    best
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Quantile `q` of a log-bucketed histogram, interpolated linearly inside the
/// bucket that holds the rank. `HistogramSnapshot::quantile` answers with a
/// bucket edge, which moves in 12–25 % jumps; interpolating keeps a one-count
/// shift across a bucket boundary from reading as a one-bucket regression.
pub fn hist_quantile(hist: &HistogramSnapshot, q: f64) -> f64 {
    let total = hist.count();
    if total == 0 {
        return 0.0;
    }
    let rank = q * total as f64;
    let mut before = 0u64;
    for (i, &count) in hist.buckets.iter().enumerate() {
        if count > 0 && (before + count) as f64 >= rank {
            let lo = bucket_lower(i) as f64;
            let hi = bucket_upper(i) as f64 + 1.0;
            return lo + (hi - lo) * ((rank - before as f64) / count as f64).clamp(0.0, 1.0);
        }
        before += count;
    }
    bucket_upper(hist.buckets.len() - 1) as f64
}

/// One wall-clock span recorded by the benchmark around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for the traced pass. Spans nest by call order:
/// the parent of a span is whichever span was open when it began.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name` and returns its result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Seconds the most recent span called `name` lasted.
    pub fn last_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_rel(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn interpolated_quantile_stays_inside_its_bucket() {
        let h = votm_obs::LatencyHistogram::new();
        for v in [100u64, 100, 100, 100] {
            h.record(v);
        }
        let snap = h.snapshot();
        let q = hist_quantile(&snap, 0.5);
        let edge = snap.quantile(0.5) as f64;
        assert!(q <= edge + 1.0 && q >= edge * 0.75, "{q} vs edge {edge}");
    }

    #[test]
    fn spans_link_to_the_enclosing_span() {
        let mut t = Tracer::new();
        t.span("outer", |t| t.span("inner", |_| ()));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
    }
}
