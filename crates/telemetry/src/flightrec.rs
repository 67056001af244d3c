//! Crash flight recorder: a small always-on black box per rank.
//!
//! When a cluster arms it (`--flight-dir`), every rank keeps the last-N
//! message envelopes and span tails in two preallocated rings,
//! independent of whether full telemetry is enabled. A rank that crashes,
//! panics or hangs serializes its ring to `flightrec-<rank>.json` at the
//! cluster's fault boundary, so a faulted pass leaves a reconstructable
//! record of what the rank was doing when it died.
//!
//! The recorder is written by its owning rank's probes and read from the
//! cluster's copy of the handle at dump time, hence the `Mutex` in
//! [`crate::Recorder`]'s handle; steady-state cost is one uncontended
//! lock per probe, with no allocation after construction (both rings are
//! preallocated and overwritten in place).

use crate::phase::Phase;
use std::fmt::Write as _;

/// Envelope direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvDir {
    Send,
    Recv,
}

impl EnvDir {
    pub const fn name(self) -> &'static str {
        match self {
            EnvDir::Send => "send",
            EnvDir::Recv => "recv",
        }
    }
}

/// One recorded message envelope (payload bytes are never kept).
#[derive(Debug, Clone, Copy)]
pub struct EnvelopeRec {
    pub dir: EnvDir,
    pub peer: u32,
    pub tag: u64,
    pub bytes: u64,
    pub clock: u64,
    pub step: u32,
    /// Offset from the recorder epoch, ns.
    pub t_ns: u64,
}

/// One span tail (most recent finished phase intervals).
#[derive(Debug, Clone, Copy)]
pub struct SpanTailRec {
    pub phase: Phase,
    pub step: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Default envelope-ring capacity.
pub const FLIGHT_ENV_CAPACITY: usize = 64;
/// Default span-tail ring capacity.
pub const FLIGHT_SPAN_CAPACITY: usize = 32;

#[derive(Debug)]
pub struct FlightRecorder {
    rank: usize,
    envs: Vec<EnvelopeRec>,
    env_next: usize,
    env_total: u64,
    spans: Vec<SpanTailRec>,
    span_next: usize,
    span_total: u64,
}

impl FlightRecorder {
    pub fn new(rank: usize, env_capacity: usize, span_capacity: usize) -> Self {
        FlightRecorder {
            rank,
            envs: Vec::with_capacity(env_capacity),
            env_next: 0,
            env_total: 0,
            spans: Vec::with_capacity(span_capacity),
            span_next: 0,
            span_total: 0,
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total envelopes ever recorded (ring keeps only the newest).
    pub fn env_total(&self) -> u64 {
        self.env_total
    }

    #[inline]
    pub fn record_env(&mut self, rec: EnvelopeRec) {
        self.env_total += 1;
        if self.envs.len() < self.envs.capacity() {
            self.envs.push(rec);
        } else if self.envs.capacity() > 0 {
            self.envs[self.env_next] = rec;
            self.env_next = (self.env_next + 1) % self.envs.capacity();
        }
    }

    #[inline]
    pub fn record_span(&mut self, rec: SpanTailRec) {
        self.span_total += 1;
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(rec);
        } else if self.spans.capacity() > 0 {
            self.spans[self.span_next] = rec;
            self.span_next = (self.span_next + 1) % self.spans.capacity();
        }
    }

    /// Envelopes in chronological order (oldest surviving first).
    pub fn envelopes(&self) -> Vec<EnvelopeRec> {
        rotate(&self.envs, self.env_next)
    }

    /// Span tails in chronological order (oldest surviving first).
    pub fn span_tails(&self) -> Vec<SpanTailRec> {
        rotate(&self.spans, self.span_next)
    }

    /// Serialize the black box. Hand-rolled (this crate is std-only);
    /// `reason` must be a plain identifier-ish string (it is not escaped).
    pub fn to_json(&self, reason: &str) -> String {
        let mut out = String::with_capacity(256 + 96 * (self.envs.len() + self.spans.len()));
        let _ = write!(
            out,
            "{{\"v\":1,\"kind\":\"flightrec\",\"rank\":{},\"reason\":\"{}\",\
             \"total_envelopes\":{},\"total_spans\":{},\"envelopes\":[",
            self.rank, reason, self.env_total, self.span_total
        );
        for (i, e) in self.envelopes().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"dir\":\"{}\",\"peer\":{},\"tag\":{},\"bytes\":{},\"clock\":{},\
                 \"step\":{},\"t_us\":{:.3}}}",
                e.dir.name(),
                e.peer,
                e.tag,
                e.bytes,
                e.clock,
                e.step,
                e.t_ns as f64 / 1e3,
            );
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.span_tails().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"phase\":\"{}\",\"step\":{},\"ts_us\":{:.3},\"dur_us\":{:.3}}}",
                s.phase.name(),
                s.step,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            );
        }
        out.push_str("]}");
        out
    }
}

fn rotate<T: Copy>(ring: &[T], next: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(ring.len());
    if next > 0 && next < ring.len() {
        out.extend_from_slice(&ring[next..]);
        out.extend_from_slice(&ring[..next]);
    } else {
        out.extend_from_slice(ring);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(peer: u32, tag: u64, clock: u64) -> EnvelopeRec {
        EnvelopeRec { dir: EnvDir::Send, peer, tag, bytes: 8, clock, step: 0, t_ns: tag * 10 }
    }

    #[test]
    fn envelope_ring_keeps_newest_in_order() {
        let mut fr = FlightRecorder::new(2, 4, 2);
        for t in 0..10u64 {
            fr.record_env(env(1, t, t + 1));
        }
        assert_eq!(fr.env_total(), 10);
        let tags: Vec<u64> = fr.envelopes().iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec![6, 7, 8, 9]);
    }

    #[test]
    fn span_tail_ring_wraps() {
        let mut fr = FlightRecorder::new(0, 2, 3);
        for i in 0..5u32 {
            fr.record_span(SpanTailRec {
                phase: Phase::Wait,
                step: i,
                start_ns: i as u64,
                dur_ns: 1,
            });
        }
        let steps: Vec<u32> = fr.span_tails().iter().map(|s| s.step).collect();
        assert_eq!(steps, vec![2, 3, 4]);
    }

    #[test]
    fn json_is_balanced_and_self_describing() {
        let mut fr = FlightRecorder::new(1, 8, 8);
        fr.record_env(env(0, 42, 3));
        fr.record_env(EnvelopeRec {
            dir: EnvDir::Recv,
            peer: 2,
            tag: 43,
            bytes: 16,
            clock: 5,
            step: 7,
            t_ns: 1500,
        });
        fr.record_span(SpanTailRec { phase: Phase::Send, step: 7, start_ns: 100, dur_ns: 50 });
        let json = fr.to_json("crash");
        assert!(json.starts_with("{\"v\":1,\"kind\":\"flightrec\",\"rank\":1,"), "{json}");
        assert!(json.contains("\"reason\":\"crash\""), "{json}");
        assert!(json.contains("\"dir\":\"recv\""), "{json}");
        assert!(json.contains("\"total_envelopes\":2"), "{json}");
        assert!(json.contains("\"phase\":\"send\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_recorder_serializes() {
        let fr = FlightRecorder::new(0, 0, 0);
        let json = fr.to_json("degraded");
        assert!(json.contains("\"envelopes\":[]"), "{json}");
        assert!(json.contains("\"spans\":[]"), "{json}");
    }
}
