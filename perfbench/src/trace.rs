//! The traced run's spans: one client span per request, linked to the
//! server's flight-recorder trace (HTTP) or the runtime's stamps
//! (in-process) by the client-set request id. Spans are kept in memory,
//! reduced to per-layer self times, and written out at the end.

use crate::lanes::wire_id;
use crate::load::{Outcome, PhaseResult};
use crate::stats::{self_times, Span};
use scales_telemetry::{RequestTrace, STAGES};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer each server stage belongs to, in `STAGES` order.
pub const STAGE_SPANS: [&str; 8] = [
    "http.parse",
    "data.decode",
    "http.submit",
    "runtime.queue_wait",
    "runtime.batch_wait",
    "models.infer",
    "data.encode",
    "http.write",
];

/// The span tree of every correctly answered request in `phases`.
#[must_use]
pub fn build_spans(phases: &[&PhaseResult], traces: &[RequestTrace], origin: Instant) -> Vec<Span> {
    assert_eq!(
        STAGES.len(),
        STAGE_SPANS.len(),
        "one span name per server stage"
    );
    let ns = |t: Instant| {
        u64::try_from(t.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
    };
    let by_id: HashMap<&str, &RequestTrace> = traces.iter().map(|t| (t.id.as_str(), t)).collect();
    let mut spans = Vec::new();
    for record in phases
        .iter()
        .flat_map(|p| &p.records)
        .filter(|r| r.outcome == Outcome::Ok)
    {
        let client = spans.len();
        let (start, end) = (ns(record.sent), ns(record.done));
        spans.push(Span {
            name: "client.request",
            request: record.id,
            parent: None,
            start,
            end,
        });
        if let Some(server) = &record.server {
            // In-process: the runtime's own stamps place every stage.
            let [enqueued, dequeued, sealed, done] = server.stamps.map(ns);
            let parent = Some(spans.len());
            spans.push(Span {
                name: "runtime.server",
                request: record.id,
                parent: Some(client),
                start: enqueued,
                end: done,
            });
            for (name, s, e) in [
                ("runtime.queue_wait", enqueued, dequeued),
                ("runtime.batch_wait", dequeued, sealed),
                ("models.infer", sealed, done),
            ] {
                spans.push(Span {
                    name,
                    request: record.id,
                    parent,
                    start: s,
                    end: e,
                });
            }
        } else if let Some(trace) = by_id.get(wire_id(record.id).as_str()) {
            // HTTP: the server's trace has exact stage lengths but no
            // absolute start; it ends when the response was written, which
            // is just before the client saw it.
            let server_start = end.saturating_sub(trace.total_ns).max(start);
            let parent = Some(spans.len());
            spans.push(Span {
                name: "http.server",
                request: record.id,
                parent: Some(client),
                start: server_start,
                end: server_start + trace.total_ns,
            });
            let mut at = server_start;
            for (name, len) in STAGE_SPANS.iter().zip(trace.stage_ns) {
                spans.push(Span {
                    name,
                    request: record.id,
                    parent,
                    start: at,
                    end: at + len,
                });
                at += len;
            }
        }
    }
    spans
}

/// Mean self time per span name, µs.
#[must_use]
pub fn mean_self_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut sums: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = sums.entry(span.name).or_default();
        entry.0 += own as f64 / 1e3;
        entry.1 += 1;
    }
    sums.into_iter()
        .map(|(name, (sum, n))| (name, sum / n as f64))
        .collect()
}

/// Write the spans as JSON lines.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"request\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name,
            wire_id(s.request),
            s.start,
            s.end
        )?;
    }
    out.flush()
}
