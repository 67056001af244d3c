//! Chrome trace-event JSON exporter.
//!
//! Emits the stable subset of the trace-event format understood by Perfetto
//! and chrome://tracing: one metadata `process_name` event per rank (virtual
//! pid = rank), then complete (`"ph":"X"`) duration events with `ts`/`dur`
//! in microseconds relative to the registry epoch. All event names come from
//! `Phase::name()` — static snake_case strings, so no JSON escaping is
//! needed and the exporter stays serde-free (std-only crate).

use crate::causal::CausalGraph;
use crate::recorder::{Snapshot, NO_CLUSTER};
use std::fmt::Write as _;

/// Serialize snapshots to a Chrome trace-event JSON string.
///
/// Message edges matched from the causal event stream are emitted as flow
/// events (`"ph":"s"` at the send, `"ph":"f"` with `"bp":"e"` at the
/// receive, one shared id per edge) so Perfetto draws the cross-rank
/// arrows and `awp analyze` can parse the dependency DAG back out of the
/// trace file.
pub fn chrome_trace(snaps: &[Snapshot]) -> String {
    // ~120 bytes per event; preallocate to avoid rehashing the String.
    let n_events: usize = snaps.iter().map(|s| s.spans.len() + 1).sum();
    let mut out = String::with_capacity(64 + n_events * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for s in snaps {
        // Metadata: name the virtual process after the rank.
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"rank {}\"}}}}",
            s.rank, s.rank
        );
        for sp in &s.spans {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"awp\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":{},\"tid\":0,\"args\":{{\"step\":{}",
                sp.phase.name(),
                sp.start_ns as f64 / 1e3,
                sp.dur_ns as f64 / 1e3,
                s.rank,
                sp.step
            );
            // Spans emitted inside a dt-cluster's phase carry the cluster
            // id so Perfetto can filter/color by cluster.
            if sp.cluster != NO_CLUSTER {
                let _ = write!(out, ",\"cluster\":{}", sp.cluster);
            }
            out.push_str("}}");
        }
    }
    // Causal flow events: one s/f pair per matched edge.
    let graph = CausalGraph::from_snapshots(snaps);
    for (id, e) in graph.edges.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"msg\",\"cat\":\"awp.flow\",\"ph\":\"s\",\"id\":{id},\
             \"pid\":{},\"tid\":0,\"ts\":{:.3},\"args\":{{\"tag\":{},\"bytes\":{},\"clock\":{}}}}},\
             {{\"name\":\"msg\",\"cat\":\"awp.flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\
             \"pid\":{},\"tid\":0,\"ts\":{:.3},\"args\":{{\"tag\":{},\"bytes\":{},\"clock\":{}}}}}",
            e.src,
            e.send_ns as f64 / 1e3,
            e.tag,
            e.bytes,
            e.src_clock,
            e.dst,
            e.recv_ns as f64 / 1e3,
            e.tag,
            e.bytes,
            e.dst_clock,
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;
    use crate::recorder::Recorder;
    use std::time::{Duration, Instant};

    #[test]
    fn trace_structure_is_sound() {
        let epoch = Instant::now();
        let mut snaps = Vec::new();
        for rank in 0..2 {
            let mut r = Recorder::enabled(rank, epoch, 16);
            r.set_step(7);
            r.span_at(Phase::VelocityShell, epoch, Duration::from_micros(3));
            r.span_at(Phase::Wait, epoch, Duration::from_micros(1));
            snaps.push(r.snapshot());
        }
        let json = chrome_trace(&snaps);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert_eq!(json.matches("\"process_name\"").count(), 2);
        assert_eq!(json.matches("\"velocity_shell\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"args\":{\"step\":7}"));
        // Balanced braces/brackets — cheap structural sanity without a
        // parser dependency (full parse-back lives in tests/telemetry.rs).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn cluster_tagged_spans_carry_cluster_arg() {
        let epoch = Instant::now();
        let mut r = Recorder::enabled(0, epoch, 16);
        r.set_step(3);
        r.set_cluster(2);
        r.span_at(Phase::VelocityInterior, epoch, Duration::from_micros(5));
        r.set_cluster(crate::recorder::NO_CLUSTER);
        r.span_at(Phase::Wait, epoch, Duration::from_micros(1));
        let json = chrome_trace(&[r.snapshot()]);
        assert!(json.contains("\"args\":{\"step\":3,\"cluster\":2}"), "{json}");
        // The untagged span must not mention a cluster.
        assert_eq!(json.matches("\"cluster\"").count(), 1, "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace(&[]);
        assert_eq!(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }

    #[test]
    fn matched_message_edges_become_flow_event_pairs() {
        let epoch = Instant::now();
        let mut r0 = Recorder::enabled(0, epoch, 16);
        let mut r1 = Recorder::enabled(1, epoch, 16);
        r0.span_at(Phase::Send, epoch, Duration::from_micros(2));
        let c = r0.clock_send();
        r0.causal_send(1, 77, 512, c);
        let m = r1.clock_recv(c);
        r1.causal_recv(0, 77, 512, c, m);
        let json = chrome_trace(&[r0.snapshot(), r1.snapshot()]);
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1, "{json}");
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1, "{json}");
        assert_eq!(json.matches("\"cat\":\"awp.flow\"").count(), 2, "{json}");
        assert!(json.contains("\"bp\":\"e\""), "{json}");
        assert!(json.contains("\"tag\":77"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
