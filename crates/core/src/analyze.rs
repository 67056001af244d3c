//! `awp analyze` — causal critical-path analysis of a Chrome trace file.
//!
//! The telemetry exporter ([`awp_telemetry::chrome_trace`]) writes span
//! events (`"ph":"X"`, cat `awp`) and causal flow-event pairs
//! (`"ph":"s"`/`"ph":"f"`, cat `awp.flow`) — one pair per matched
//! send→recv edge. This module parses that file back into a
//! [`CausalGraph`], walks the critical path, and renders the attribution
//! as a table or a schema-checked JSON artifact (`results/analyze.json`).
//!
//! The trace file is the interface: the analyzer never needs the live
//! registry, so post-mortem analysis of a trace captured on another
//! machine works the same as same-process analysis.

use awp_telemetry::{CausalEdge, CausalGraph, CriticalPath, GraphSpan, Phase};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};

/// Non-negative integer out of a JSON number (the shimmed `Value` stores
/// all numbers as `f64`; ns/byte magnitudes fit f64's 53-bit mantissa).
fn as_u64(v: &Value) -> Option<u64> {
    let f = v.as_f64()?;
    (f >= 0.0).then_some(f.round() as u64)
}

/// Parse a Chrome trace-event JSON string back into the causal DAG.
///
/// Span events become [`GraphSpan`] nodes (`pid` is the rank); flow pairs
/// are re-joined on their shared `id` into [`CausalEdge`]s. A flow finish
/// (`"ph":"f"`) with no matching start counts as an unmatched receive.
pub fn parse_trace(json: &str) -> Result<CausalGraph, String> {
    let v: Value =
        serde_json::from_str(json).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = v["traceEvents"]
        .as_array()
        .ok_or("traceEvents missing or not an array")?;

    let mut spans = Vec::new();
    // Flow halves keyed by event id: (send half, recv half).
    struct FlowHalf {
        rank: usize,
        t_ns: u64,
        tag: u64,
        bytes: u64,
        clock: u64,
    }
    let mut sends: HashMap<u64, FlowHalf> = HashMap::new();
    let mut recvs: Vec<(u64, FlowHalf)> = Vec::new();

    let us_to_ns = |v: &Value| -> Option<u64> {
        let us = v.as_f64()?;
        if us < 0.0 {
            return None;
        }
        Some((us * 1e3).round() as u64)
    };

    for (i, ev) in events.iter().enumerate() {
        let ph = ev["ph"].as_str().ok_or(format!("event {i}: missing ph"))?;
        let pid = as_u64(&ev["pid"]).ok_or(format!("event {i}: missing pid"))? as usize;
        match ph {
            "X" => {
                let name =
                    ev["name"].as_str().ok_or(format!("event {i}: X event missing name"))?;
                let phase = Phase::ALL
                    .iter()
                    .copied()
                    .find(|p| p.name() == name)
                    .ok_or(format!("event {i}: unknown phase {name:?}"))?;
                let ts = us_to_ns(&ev["ts"]).ok_or(format!("event {i}: bad ts"))?;
                let dur = us_to_ns(&ev["dur"]).ok_or(format!("event {i}: bad dur"))?;
                let step = as_u64(&ev["args"]["step"]).unwrap_or(0) as u32;
                spans.push(GraphSpan {
                    rank: pid,
                    phase,
                    start_ns: ts,
                    end_ns: ts + dur,
                    step,
                });
            }
            "s" | "f" => {
                let id = as_u64(&ev["id"]).ok_or(format!("event {i}: flow missing id"))?;
                let half = FlowHalf {
                    rank: pid,
                    t_ns: us_to_ns(&ev["ts"]).ok_or(format!("event {i}: bad ts"))?,
                    tag: as_u64(&ev["args"]["tag"]).unwrap_or(0),
                    bytes: as_u64(&ev["args"]["bytes"]).unwrap_or(0),
                    clock: as_u64(&ev["args"]["clock"]).unwrap_or(0),
                };
                if ph == "s" {
                    sends.insert(id, half);
                } else {
                    recvs.push((id, half));
                }
            }
            // Metadata and anything Perfetto-side we don't model.
            _ => {}
        }
    }

    let mut edges = Vec::new();
    let mut unmatched = 0usize;
    for (id, r) in recvs {
        match sends.remove(&id) {
            Some(s) => edges.push(CausalEdge {
                src: s.rank,
                dst: r.rank,
                tag: s.tag,
                bytes: s.bytes,
                send_ns: s.t_ns,
                recv_ns: r.t_ns,
                src_clock: s.clock,
                dst_clock: r.clock,
            }),
            None => unmatched += 1,
        }
    }
    // Deterministic edge order regardless of HashMap iteration history.
    edges.sort_by_key(|e| (e.send_ns, e.src, e.dst, e.tag));
    Ok(CausalGraph::new(spans, edges, unmatched))
}

/// Render the critical-path attribution as a human-readable report.
pub fn render(graph: &CausalGraph, path: &CriticalPath, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "causal DAG: {} spans, {} message edges, {} ranks, {} unmatched recvs",
        graph.spans.len(),
        graph.edges.len(),
        graph.ranks,
        graph.unmatched_recvs,
    );
    let _ = writeln!(
        out,
        "critical path: {} hops, wall {:.3} ms, on-path span {:.3} ms + slack {:.3} ms \
         → coverage {:.1}% (span {:.1}%)",
        path.hops.len(),
        path.wall_ns as f64 / 1e6,
        path.span_ns as f64 / 1e6,
        path.slack_ns as f64 / 1e6,
        path.coverage() * 100.0,
        path.span_frac() * 100.0,
    );

    let _ = writeln!(out, "\n{:<18} {:>12} {:>7}", "phase (on path)", "ms", "share");
    let total = path.span_ns.max(1) as f64;
    let mut phases: Vec<(Phase, u64)> = Phase::ALL
        .iter()
        .map(|&p| (p, path.phase_ns[p.index()]))
        .filter(|&(_, ns)| ns > 0)
        .collect();
    phases.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    for (p, ns) in phases {
        let _ = writeln!(
            out,
            "{:<18} {:>12.3} {:>6.1}%",
            p.name(),
            ns as f64 / 1e6,
            ns as f64 / total * 100.0
        );
    }

    let _ = writeln!(
        out,
        "\n{:<5} {:>12} {:>10} {:>9}  slack p50/max (µs)",
        "rank", "path ms", "hops", "slack ms"
    );
    for r in 0..graph.ranks {
        let hops = path.hops.iter().filter(|h| h.rank == r).count();
        let hist = &path.rank_slack[r];
        let _ = writeln!(
            out,
            "{:<5} {:>12.3} {:>10} {:>9.3}  {:.1}/{:.1}",
            r,
            path.rank_ns[r] as f64 / 1e6,
            hops,
            hist.sum_ns() as f64 / 1e6,
            hist.quantile_ns(0.5) as f64 / 1e3,
            hist.max_ns() as f64 / 1e3,
        );
    }

    let top_edges = path.top_edges(top);
    if !top_edges.is_empty() {
        let _ = writeln!(out, "\ntop {} critical edges by slack:", top_edges.len());
        for h in top_edges {
            let e = h.via.expect("top_edges only returns cross-rank hops");
            let _ = writeln!(
                out,
                "  rank {} → rank {} @ step {:>4}: {:>9.1} µs slack into {} (msg tag {:#x}, {} B)",
                e.src,
                h.rank,
                h.step,
                h.slack_ns as f64 / 1e3,
                h.phase.name(),
                e.tag,
                e.bytes,
            );
        }
    }
    out
}

/// Serialize the analysis to the versioned `analyze.json` artifact.
pub fn to_json(graph: &CausalGraph, path: &CriticalPath) -> String {
    let phases: BTreeMap<String, Value> = Phase::ALL
        .iter()
        .filter(|p| path.phase_ns[p.index()] > 0)
        .map(|p| (p.name().to_string(), path.phase_ns[p.index()].into()))
        .collect();
    let phases = Value::Object(phases);
    let ranks: Vec<Value> = (0..graph.ranks)
        .map(|r| {
            let hist = &path.rank_slack[r];
            serde_json::json!({
                "rank": r,
                "path_ns": path.rank_ns[r],
                "hops": path.hops.iter().filter(|h| h.rank == r).count(),
                "slack_ns": hist.sum_ns(),
                "slack_p50_ns": hist.quantile_ns(0.5),
                "slack_max_ns": hist.max_ns(),
            })
        })
        .collect();
    let top: Vec<Value> = path
        .top_edges(10)
        .iter()
        .map(|h| {
            let e = h.via.expect("top_edges only returns cross-rank hops");
            serde_json::json!({
                "kind": "msg",
                "src": e.src,
                "dst": h.rank,
                "step": h.step,
                "tag": e.tag,
                "bytes": e.bytes,
                "slack_ns": h.slack_ns,
                "into_phase": h.phase.name(),
            })
        })
        .collect();
    let doc = serde_json::json!({
        "v": 1,
        "kind": "analyze",
        "spans": graph.spans.len(),
        "edges": graph.edges.len(),
        "unmatched_recvs": graph.unmatched_recvs,
        "hops": path.hops.len(),
        "wall_ns": path.wall_ns,
        "span_ns": path.span_ns,
        "slack_ns": path.slack_ns,
        "coverage": path.coverage(),
        "span_frac": path.span_frac(),
        "phases": phases,
        "ranks": ranks,
        "top_edges": top,
    });
    serde_json::to_string_pretty(&doc).expect("analyze document serializes")
}

/// Schema-check an `analyze.json` artifact (the CLI validates its own
/// output before claiming success, same discipline as `verify`).
pub fn validate_json(text: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if as_u64(&v["v"]) != Some(1) {
        return Err("v != 1".into());
    }
    if v["kind"].as_str() != Some("analyze") {
        return Err("kind != analyze".into());
    }
    for key in ["spans", "edges", "unmatched_recvs", "hops", "wall_ns", "span_ns", "slack_ns"] {
        as_u64(&v[key]).ok_or(format!("missing or non-integer field {key:?}"))?;
    }
    for key in ["coverage", "span_frac"] {
        let f = v[key].as_f64().ok_or(format!("missing field {key:?}"))?;
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("{key} = {f} out of [0, 1]"));
        }
    }
    if !matches!(v["phases"], Value::Object(_)) {
        return Err("phases missing or not an object".into());
    }
    let ranks = v["ranks"].as_array().ok_or("ranks missing or not an array")?;
    for (i, r) in ranks.iter().enumerate() {
        for key in ["rank", "path_ns", "hops", "slack_ns"] {
            as_u64(&r[key]).ok_or(format!("rank {i}: missing field {key:?}"))?;
        }
    }
    let top = v["top_edges"].as_array().ok_or("top_edges missing or not an array")?;
    for (i, e) in top.iter().enumerate() {
        e["kind"].as_str().ok_or(format!("top edge {i}: missing kind"))?;
        for key in ["src", "dst", "slack_ns"] {
            as_u64(&e[key]).ok_or(format!("top edge {i}: missing field {key:?}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use awp_telemetry::{chrome_trace, Registry};
    use std::time::Duration;

    /// Two ranks, a send→recv edge, spans on both sides.
    fn sample_snapshots() -> Vec<awp_telemetry::Snapshot> {
        let reg = Registry::with_capacity(2, 32);
        let epoch = reg.epoch();
        let mut r0 = reg.recorder(0);
        let mut r1 = reg.recorder(1);
        r0.set_step(1);
        r1.set_step(1);
        r0.span_at(Phase::VelocityShell, epoch, Duration::from_micros(40));
        let c = r0.clock_send();
        r0.causal_send(1, 0x42, 2048, c);
        r0.span_at(Phase::Send, epoch + Duration::from_micros(40), Duration::from_micros(5));
        let m = r1.clock_recv(c);
        r1.causal_recv(0, 0x42, 2048, c, m);
        r1.span_at(Phase::Wait, epoch, Duration::from_micros(50));
        r1.span_at(
            Phase::StressInterior,
            epoch + Duration::from_micros(50),
            Duration::from_micros(30),
        );
        vec![r0.snapshot(), r1.snapshot()]
    }

    #[test]
    fn trace_round_trips_through_the_parser() {
        let snaps = sample_snapshots();
        let direct = CausalGraph::from_snapshots(&snaps);
        let parsed = parse_trace(&chrome_trace(&snaps)).expect("parse");
        assert_eq!(parsed.spans.len(), direct.spans.len());
        assert_eq!(parsed.edges.len(), direct.edges.len());
        assert_eq!(parsed.ranks, direct.ranks);
        assert_eq!(parsed.unmatched_recvs, 0);
        // The canonical edge fingerprint survives the µs round trip
        // (it hashes tags/bytes/endpoints, not timestamps).
        assert_eq!(parsed.fingerprint(), direct.fingerprint());
        assert!(parsed.clock_order_holds());
    }

    #[test]
    fn analysis_renders_and_exports_schema_valid_json() {
        let snaps = sample_snapshots();
        let graph = parse_trace(&chrome_trace(&snaps)).expect("parse");
        let path = graph.critical_path();
        assert!(path.coverage() > 0.0);
        let table = render(&graph, &path, 5);
        assert!(table.contains("critical path"), "{table}");
        assert!(table.contains("coverage"), "{table}");
        let json = to_json(&graph, &path);
        validate_json(&json).expect("schema");
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(parse_trace("not json").is_err());
        assert!(parse_trace("{}").is_err());
        // Unknown phase name on a span event.
        let bad = r#"{"traceEvents":[{"name":"warp_drive","ph":"X","pid":0,"ts":1,"dur":2}]}"#;
        assert!(parse_trace(bad).unwrap_err().contains("unknown phase"));
    }

    #[test]
    fn orphan_flow_finish_counts_as_unmatched() {
        let json = r#"{"traceEvents":[
            {"name":"wait","ph":"X","pid":0,"ts":0,"dur":10,"args":{"step":1}},
            {"name":"msg","cat":"awp.flow","ph":"f","bp":"e","id":9,"pid":0,"tid":0,
             "ts":5,"args":{"tag":1,"bytes":8,"clock":3}}
        ]}"#;
        let graph = parse_trace(json).expect("parse");
        assert_eq!(graph.edges.len(), 0);
        assert_eq!(graph.unmatched_recvs, 1);
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate_json("nope").is_err());
        assert!(validate_json(r#"{"v":2,"kind":"analyze"}"#).is_err());
        let snaps = sample_snapshots();
        let graph = parse_trace(&chrome_trace(&snaps)).expect("parse");
        let json = to_json(&graph, &graph.critical_path());
        let broken = json.replace("\"coverage\"", "\"overage\"");
        assert!(validate_json(&broken).is_err());
    }
}
