//! Exporters: a Chrome `trace_event` JSON emitter (opens directly in
//! `chrome://tracing` / Perfetto) and the quota-decision timeline. The
//! `votm-obs-snapshot-v1` document, which bundles per-view stats,
//! histograms and that timeline, is written by `votm-bench` straight from
//! the views' statistics.
//!
//! Everything here is deterministic for a deterministic input: threads are
//! walked in index order, events in ring order, cross-thread timelines are
//! sorted by `(ts, thread, seq)`, and every float is printed with fixed
//! precision. Two identically-seeded simulator runs therefore export
//! byte-identical JSON.
//!
//! JSON is hand-rolled: the workspace builds offline with no external
//! crates, and every emitted string is a fixed ASCII name, so no escaping
//! machinery is needed.

use crate::event::EventKind;
use crate::recorder::ThreadTrace;

/// Semantic version stamped into every exported JSON document (snapshot,
/// profile, gate artifact). The major guards structural compatibility:
/// `benchdiff` refuses to compare documents with different majors.
/// History: 1.0.0 = pre-versioned artifacts (implicit, through BENCH_6);
/// 1.1.0 adds the wasted-work ledger and conflict-profile fields;
/// 1.2.0 adds the blocking-transaction surface (parked-wait counters and
/// histograms, the `retry` abort reason, park/wake trace events);
/// 1.3.0 adds the online-repartitioning surface (`repartitions`,
/// `split_drain_cycles`, `converged_throughput_ratio` gate fields, the
/// Repartition trace event, and multi-seed policy aggregates).
pub const SCHEMA_VERSION: &str = "1.3.0";

/// Formats a cycle timestamp as fixed-precision microseconds.
fn us(cycles: u64, cycles_per_us: u64) -> String {
    format!("{:.3}", cycles as f64 / cycles_per_us as f64)
}

/// Formats an optional δ(Q) sample: fixed six decimals or `null`.
fn delta_json(delta: Option<f64>) -> String {
    match delta {
        Some(d) if d.is_finite() => format!("{d:.6}"),
        Some(_) => "\"inf\"".to_string(),
        None => "null".to_string(),
    }
}

/// Emits a Chrome `trace_event` JSON document for a recorded run.
///
/// * `TxBegin`→`TxCommit`/`TxAbort` pairs become complete (`"ph":"X"`)
///   slices named `commit`/`abort` on the recording thread's track.
/// * Gate waits become `gate-wait` slices (reconstructed from the exit
///   event's waited-cycles payload, so a wrapped-away enter event does not
///   lose the span).
/// * Quota changes become global instant events carrying `old_q`/`new_q`
///   and the δ(Q) sample, plus a `"ph":"C"` counter track per view.
/// * Escalations and injected faults become thread-scoped instants.
///
/// `cycles_per_us` converts cycle timestamps to trace microseconds (the
/// simulator's cost model clocks 2500 cycles/µs at 2.5 GHz).
pub fn chrome_trace(threads: &[ThreadTrace], cycles_per_us: u64) -> String {
    let mut ev: Vec<String> = Vec::new();
    for t in threads {
        ev.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"name\":\"worker-{}\"}}}}",
            t.thread, t.thread
        ));
    }
    for t in threads {
        let tid = t.thread;
        let mut open_begin: Option<(u16, u64)> = None;
        for e in &t.events {
            match e.kind {
                EventKind::TxBegin { view } => open_begin = Some((view, e.ts)),
                EventKind::TxCommit { view, cycles } => {
                    let start = match open_begin.take() {
                        Some((v, ts)) if v == view => ts,
                        _ => e.ts.saturating_sub(cycles),
                    };
                    ev.push(format!(
                        "{{\"ph\":\"X\",\"name\":\"commit\",\"cat\":\"tx\",\"pid\":0,\
                         \"tid\":{tid},\"ts\":{},\"dur\":{},\
                         \"args\":{{\"view\":{view},\"cycles\":{cycles}}}}}",
                        us(start, cycles_per_us),
                        us(e.ts - start, cycles_per_us),
                    ));
                }
                EventKind::TxAbort {
                    view,
                    reason,
                    cycles,
                } => {
                    let start = match open_begin.take() {
                        Some((v, ts)) if v == view => ts,
                        _ => e.ts.saturating_sub(cycles),
                    };
                    ev.push(format!(
                        "{{\"ph\":\"X\",\"name\":\"abort\",\"cat\":\"tx\",\"pid\":0,\
                         \"tid\":{tid},\"ts\":{},\"dur\":{},\
                         \"args\":{{\"view\":{view},\"reason\":\"{}\",\"cycles\":{cycles}}}}}",
                        us(start, cycles_per_us),
                        us(e.ts - start, cycles_per_us),
                        reason.name(),
                    ));
                }
                EventKind::GateWaitEnter { .. } => {}
                EventKind::GateWaitExit { view, waited } => {
                    ev.push(format!(
                        "{{\"ph\":\"X\",\"name\":\"gate-wait\",\"cat\":\"gate\",\"pid\":0,\
                         \"tid\":{tid},\"ts\":{},\"dur\":{},\
                         \"args\":{{\"view\":{view},\"waited_cycles\":{waited}}}}}",
                        us(e.ts.saturating_sub(waited), cycles_per_us),
                        us(waited, cycles_per_us),
                    ));
                }
                EventKind::QuotaChange {
                    view,
                    old_q,
                    new_q,
                    delta,
                } => {
                    ev.push(format!(
                        "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"quota-change\",\
                         \"cat\":\"rac\",\"pid\":0,\"tid\":{tid},\"ts\":{},\
                         \"args\":{{\"view\":{view},\"old_q\":{old_q},\"new_q\":{new_q},\
                         \"delta\":{}}}}}",
                        us(e.ts, cycles_per_us),
                        delta_json(delta),
                    ));
                    ev.push(format!(
                        "{{\"ph\":\"C\",\"name\":\"Q[view{view}]\",\"pid\":0,\"ts\":{},\
                         \"args\":{{\"Q\":{new_q}}}}}",
                        us(e.ts, cycles_per_us),
                    ));
                }
                EventKind::Escalation { view } => {
                    ev.push(format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"escalation\",\"cat\":\"rac\",\
                         \"pid\":0,\"tid\":{tid},\"ts\":{},\"args\":{{\"view\":{view}}}}}",
                        us(e.ts, cycles_per_us),
                    ));
                }
                EventKind::Fault { view, code, cycles } => {
                    ev.push(format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"fault\",\"cat\":\"fault\",\
                         \"pid\":0,\"tid\":{tid},\"ts\":{},\
                         \"args\":{{\"view\":{view},\"code\":{code},\"cycles\":{cycles}}}}}",
                        us(e.ts, cycles_per_us),
                    ));
                }
                EventKind::CmKill {
                    view,
                    victim,
                    winner,
                } => {
                    ev.push(format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"cm-kill\",\"cat\":\"cm\",\
                         \"pid\":0,\"tid\":{tid},\"ts\":{},\
                         \"args\":{{\"view\":{view},\"victim\":{victim},\"winner\":{winner}}}}}",
                        us(e.ts, cycles_per_us),
                    ));
                }
                EventKind::ConflictDetected {
                    view,
                    addr_bucket,
                    kind,
                    site,
                    cycles,
                    raw,
                } => {
                    ev.push(format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"conflict\",\"cat\":\"tx\",\
                         \"pid\":0,\"tid\":{tid},\"ts\":{},\
                         \"args\":{{\"view\":{view},\"bucket\":{addr_bucket},\
                         \"reason\":\"{}\",\"site\":\"{}\",\"raw\":{raw},\
                         \"cycles\":{cycles}}}}}",
                        us(e.ts, cycles_per_us),
                        kind.name(),
                        site.name(),
                    ));
                }
                // Footprint bitmaps are profiler input, not human timeline
                // content; they would only add noise to the trace view.
                EventKind::Footprint { .. } => {}
                // Parks open a span that the paired Wake/LostWakeup closes;
                // reconstruct the slice from the closing event's payload so
                // a wrapped-away Park does not lose it.
                EventKind::Park { .. } => {}
                EventKind::Wake { view, waited } => {
                    ev.push(format!(
                        "{{\"ph\":\"X\",\"name\":\"parked\",\"cat\":\"park\",\"pid\":0,\
                         \"tid\":{tid},\"ts\":{},\"dur\":{},\
                         \"args\":{{\"view\":{view},\"waited_cycles\":{waited}}}}}",
                        us(e.ts.saturating_sub(waited), cycles_per_us),
                        us(waited, cycles_per_us),
                    ));
                }
                EventKind::LostWakeup { view, waited } => {
                    ev.push(format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"lost-wakeup\",\"cat\":\"park\",\
                         \"pid\":0,\"tid\":{tid},\"ts\":{},\
                         \"args\":{{\"view\":{view},\"waited_cycles\":{waited}}}}}",
                        us(e.ts, cycles_per_us),
                    ));
                }
                EventKind::Repartition {
                    view,
                    partner,
                    split,
                    moved,
                    drain_cycles,
                } => {
                    ev.push(format!(
                        "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"repartition\",\"cat\":\"rac\",\
                         \"pid\":0,\"tid\":{tid},\"ts\":{},\
                         \"args\":{{\"view\":{view},\"partner\":{partner},\
                         \"kind\":\"{}\",\"moved\":{moved},\"drain_cycles\":{drain_cycles}}}}}",
                        us(e.ts, cycles_per_us),
                        if split { "split" } else { "merge" },
                    ));
                }
            }
        }
    }
    let mut out = String::with_capacity(ev.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&ev.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// One quota decision on the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaSample {
    /// Timestamp (cycles) of the decision.
    pub ts: u64,
    /// Quota before.
    pub old_q: u16,
    /// Quota after.
    pub new_q: u16,
    /// The windowed δ(Q) sample behind the decision, if one existed.
    pub delta: Option<f64>,
}

/// Extracts `view`'s quota-change timeline from a recorder snapshot,
/// sorted by `(ts, thread, seq)` so the order is deterministic even when
/// two decisions share a virtual timestamp.
pub fn quota_timeline(threads: &[ThreadTrace], view: u16) -> Vec<QuotaSample> {
    let mut keyed: Vec<(u64, usize, u64, QuotaSample)> = Vec::new();
    for t in threads {
        for e in &t.events {
            if let EventKind::QuotaChange {
                view: v,
                old_q,
                new_q,
                delta,
            } = e.kind
            {
                if v == view {
                    keyed.push((
                        e.ts,
                        t.thread,
                        e.seq,
                        QuotaSample {
                            ts: e.ts,
                            old_q,
                            new_q,
                            delta,
                        },
                    ));
                }
            }
        }
    }
    keyed.sort_by_key(|&(ts, thread, seq, _)| (ts, thread, seq));
    keyed.into_iter().map(|(_, _, _, s)| s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::reason::AbortReason;
    use crate::recorder::{FlightRecorder, ThreadTrace};
    use std::sync::Arc;

    fn demo_threads() -> Vec<ThreadTrace> {
        let rec = Arc::new(FlightRecorder::new(2, 64));
        let h0 = rec.handle(0);
        let h1 = rec.handle(1);
        h0.record(1000, EventKind::TxBegin { view: 0 });
        h0.record(
            3500,
            EventKind::TxAbort {
                view: 0,
                reason: AbortReason::NorecValidation,
                cycles: 2500,
            },
        );
        h0.record(4000, EventKind::TxBegin { view: 0 });
        h0.record(
            9000,
            EventKind::TxCommit {
                view: 0,
                cycles: 5000,
            },
        );
        h1.record(
            2000,
            EventKind::GateWaitExit {
                view: 0,
                waited: 1500,
            },
        );
        h1.record(
            6000,
            EventKind::QuotaChange {
                view: 0,
                old_q: 8,
                new_q: 4,
                delta: Some(0.25),
            },
        );
        rec.snapshot()
    }

    #[test]
    fn chrome_trace_contains_expected_phases() {
        let json = chrome_trace(&demo_threads(), 2500);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\":\"X\",\"name\":\"commit\""));
        assert!(json.contains("\"reason\":\"norec_validation\""));
        assert!(json.contains("\"name\":\"gate-wait\""));
        assert!(json.contains("\"name\":\"quota-change\""));
        assert!(json.contains("\"delta\":0.250000"));
        assert!(json.contains("\"ph\":\"C\",\"name\":\"Q[view0]\""));
        // 1000 cycles at 2500 cycles/µs = 0.4 µs.
        assert!(json.contains("\"ts\":0.400"));
    }

    #[test]
    fn quota_timeline_sorts_deterministically() {
        let mk = |ts, thread, seq, new_q| {
            (
                ts,
                thread,
                seq,
                Event {
                    seq,
                    ts,
                    kind: EventKind::QuotaChange {
                        view: 1,
                        old_q: 16,
                        new_q,
                        delta: None,
                    },
                },
            )
        };
        let mut t0 = ThreadTrace {
            thread: 0,
            recorded: 0,
            dropped: 0,
            events: vec![],
        };
        let mut t1 = t0.clone();
        t1.thread = 1;
        t0.events.push(mk(50, 0, 0, 8).3);
        t1.events.push(mk(50, 1, 0, 4).3);
        t1.events.push(mk(10, 1, 1, 2).3);
        let tl = quota_timeline(&[t0, t1], 1);
        assert_eq!(
            tl.iter().map(|q| q.new_q).collect::<Vec<_>>(),
            vec![2, 8, 4]
        );
    }
}
