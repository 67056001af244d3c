//! The crash flight dump: a faulted rank's last spans and message envelopes,
//! written as one JSON object (`flightrec-<rank>.json`, schema v1).
//!
//! It is a view of the rank's own [`Snapshot`] rings, not a second record:
//! envelopes are read from the causal ring, spans from the span ring, and
//! the totals from the exact counters. The one free-text field, `reason`,
//! is escaped.

use crate::causal::{CausalEvent, CausalKind};
use crate::phase::Counter;
use crate::recorder::Snapshot;
use std::fmt::Write as _;

/// Spans a flight dump keeps (the newest); it keeps twice as many message
/// envelopes, as the causal ring holds twice as many events as the span
/// ring. A cluster armed only for flight dumps sizes its rings to this.
pub const FLIGHT_SPANS: usize = 32;

/// A faulted rank's flight dump (`flightrec-<rank>.json`, schema v1): the
/// newest spans and message envelopes of its rings, with exact totals.
/// Envelopes are the `Send`/`Recv` causal events; cluster-tick and health
/// marks are skipped.
pub fn flight_dump(s: &Snapshot, reason: &str) -> String {
    let is_env = |e: &&CausalEvent| matches!(e.kind, CausalKind::Send | CausalKind::Recv);
    let envs = s.causal.iter().filter(is_env).count();
    let total_spans: u64 = s.totals.iter().map(|t| t.count).sum();
    let total_envs = s.counter(Counter::MsgsSent) + s.counter(Counter::MsgsRecv);
    let mut out = String::with_capacity(256 + 96 * 3 * FLIGHT_SPANS);
    let _ = write!(out, "{{\"v\":1,\"kind\":\"flightrec\",\"rank\":{},\"reason\":\"", s.rank);
    for c in reason.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    let _ = write!(
        out,
        "\",\"total_envelopes\":{total_envs},\"total_spans\":{total_spans},\"envelopes\":["
    );
    let tail = envs.saturating_sub(2 * FLIGHT_SPANS);
    for (i, e) in s.causal.iter().filter(is_env).skip(tail).enumerate() {
        let CausalEvent { peer, tag, bytes, clock, step, t_ns, .. } = *e;
        let _ = write!(
            out,
            "{}{{\"dir\":\"{}\",\"peer\":{peer},\"tag\":{tag},\"bytes\":{bytes},\"clock\":{clock},\"step\":{step},\"t_us\":{:.3}}}",
            if i > 0 { "," } else { "" },
            e.kind.name(),
            t_ns as f64 / 1e3,
        );
    }
    out.push_str("],\"spans\":[");
    for (i, sp) in s.spans[s.spans.len().saturating_sub(FLIGHT_SPANS)..].iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"phase\":\"{}\",\"step\":{},\"ts_us\":{:.3},\"dur_us\":{:.3}}}",
            if i > 0 { "," } else { "" },
            sp.phase.name(),
            sp.step,
            sp.start_ns as f64 / 1e3,
            sp.dur_ns as f64 / 1e3,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::NO_PEER;
    use crate::phase::Phase;
    use crate::recorder::Recorder;
    use std::time::{Duration, Instant};

    /// A flight-sized recorder after 200 steps of one send and one span each,
    /// so both rings (32 spans, 64 causal events) have wrapped.
    fn wrapped_dump() -> String {
        let epoch = Instant::now();
        let mut r = Recorder::enabled(0, epoch, FLIGHT_SPANS);
        for i in 0..200u64 {
            r.set_step(i);
            let c = r.clock_send();
            r.causal_send(1, i, 4, c);
            r.count(Counter::MsgsSent, 1);
            r.span_at(Phase::Wait, epoch, Duration::from_nanos(1));
        }
        flight_dump(&r.snapshot(), "wrapped")
    }

    #[test]
    fn envelope_ring_keeps_newest_in_order() {
        let json = wrapped_dump();
        assert_eq!(json.matches("\"dir\"").count(), 2 * FLIGHT_SPANS);
        assert!(json.contains("\"total_envelopes\":200,"), "{json}");
        let (first, last) = (json.find("\"tag\":136,"), json.find("\"tag\":199,"));
        assert!(first.is_some() && first < last, "oldest kept first: {json}");
        assert!(!json.contains("\"tag\":135,"), "{json}");
    }

    #[test]
    fn span_tail_ring_wraps() {
        let json = wrapped_dump();
        assert_eq!(json.matches("\"phase\"").count(), FLIGHT_SPANS);
        assert!(json.contains("\"total_spans\":200,"), "{json}");
        let (first, last) =
            (json.find("\"step\":168,\"ts_us\""), json.find("\"step\":199,\"ts_us\""));
        assert!(first.is_some() && first < last, "oldest kept first: {json}");
        assert!(!json.contains("\"phase\":\"wait\",\"step\":167,"), "{json}");
    }

    #[test]
    fn json_is_balanced_and_self_describing() {
        let epoch = Instant::now();
        let mut r = Recorder::enabled(1, epoch, 8);
        r.set_step(7);
        let c = r.clock_send();
        r.causal_send(0, 42, 8, c);
        r.causal_mark(CausalKind::ClusterTick, NO_PEER, 0, 0);
        let m = r.clock_recv(5);
        r.causal_recv(2, 43, 16, 5, m);
        r.count(Counter::MsgsSent, 1);
        r.count(Counter::MsgsRecv, 1);
        r.span_at(Phase::Send, epoch, Duration::from_nanos(50));
        let json = flight_dump(&r.snapshot(), "crash");
        assert!(json.starts_with("{\"v\":1,\"kind\":\"flightrec\",\"rank\":1,"), "{json}");
        assert!(json.contains("\"reason\":\"crash\""), "{json}");
        assert!(json.contains("\"dir\":\"recv\""), "{json}");
        assert!(json.contains("\"total_envelopes\":2,\"total_spans\":1,"), "{json}");
        assert!(json.contains("\"phase\":\"send\""), "{json}");
        assert_eq!(json.matches("\"dir\"").count(), 2, "marks are not envelopes: {json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_recorder_serializes() {
        let json = flight_dump(&Recorder::disabled().snapshot(), "degraded");
        assert!(json.contains("\"envelopes\":[]"), "{json}");
        assert!(json.contains("\"spans\":[]"), "{json}");
    }

    #[test]
    fn reason_is_escaped() {
        let json = flight_dump(&Recorder::disabled().snapshot(), "a \"b\"\n\\c\t");
        assert!(json.contains("\"reason\":\"a \\\"b\\\"\\n\\\\c\\u0009\""), "{json}");
    }
}
