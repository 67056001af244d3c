//! Causal cross-rank tracing: message-lineage events, dependency-DAG
//! reconstruction, and critical-path attribution.
//!
//! Every vcluster message envelope carries a Lamport-style logical clock
//! (see [`crate::Recorder::clock_send`] / [`crate::Recorder::clock_recv`]).
//! The hot path records fixed-size [`CausalEvent`] records into the same
//! preallocated per-rank ring discipline as spans — zero allocation and no
//! clock reads when tracing is disarmed. Post-run (or post-mortem), the
//! analyzer here joins send and receive events into cross-rank edges,
//! reconstructs the dependency DAG over the recorded spans, and walks the
//! run's critical path backwards from the last span to attribute wall
//! clock per phase, per rank, and per edge (slack).
//!
//! Clock semantics: each rank keeps a monotonic `u64` clock; a send stamps
//! `clock += 1` onto the envelope, a receive merges `clock =
//! max(clock, envelope) + 1`. Clock *values* depend on delivery order, but
//! the matched edge multiset `(src, dst, tag, bytes)` does not — tags
//! embed `(phase, field, face, step)` so every halo send in a run is
//! uniquely keyed. [`CausalGraph::fingerprint`] hashes that canonical
//! multiset, which is what the schedule fuzzer pins across seeds.

use crate::hist::Log2Hist;
use crate::phase::Phase;
use crate::recorder::Snapshot;
use std::collections::{HashMap, HashSet};

/// Peer value for causal events that have no peer rank (local marks).
pub const NO_PEER: u32 = u32::MAX;

/// What a causal event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CausalKind {
    /// Message posted to `peer`; `clock` is the stamp on the envelope.
    Send,
    /// Message matched from `peer`; `peer_clock` is the envelope stamp,
    /// `clock` the merged local clock.
    Recv,
    /// A local-time-stepping dt-cluster fired (`tag` = cluster id).
    ClusterTick,
    /// Simulation-health sentinel probe (`bytes` = velocity watermark
    /// bits, `tag` = 1 if the probe found a non-finite value).
    Health,
}

impl CausalKind {
    pub const fn name(self) -> &'static str {
        match self {
            CausalKind::Send => "send",
            CausalKind::Recv => "recv",
            CausalKind::ClusterTick => "cluster_tick",
            CausalKind::Health => "health",
        }
    }
}

/// One fixed-size causal record in the per-rank ring.
#[derive(Debug, Clone, Copy)]
pub struct CausalEvent {
    pub kind: CausalKind,
    /// Local Lamport clock after this event.
    pub clock: u64,
    /// Peer rank ([`NO_PEER`] for local marks).
    pub peer: u32,
    /// Envelope clock as carried on the wire (Recv only; 0 otherwise).
    pub peer_clock: u64,
    pub tag: u64,
    pub bytes: u64,
    pub step: u32,
    /// Offset from the registry epoch, ns.
    pub t_ns: u64,
}

/// A reconstructed cross-rank dependency edge: one matched send→recv
/// message.
#[derive(Debug, Clone, Copy)]
pub struct CausalEdge {
    pub src: usize,
    pub dst: usize,
    pub tag: u64,
    pub bytes: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
    pub src_clock: u64,
    pub dst_clock: u64,
}

/// One span node of the dependency DAG (a recorded phase interval).
#[derive(Debug, Clone, Copy)]
pub struct GraphSpan {
    pub rank: usize,
    pub phase: Phase,
    pub start_ns: u64,
    pub end_ns: u64,
    pub step: u32,
}

/// The reconstructed cross-rank dependency DAG: span nodes plus matched
/// causal edges. Built either from in-process [`Snapshot`]s or from a
/// parsed Chrome trace (`awp analyze`).
#[derive(Debug)]
pub struct CausalGraph {
    pub spans: Vec<GraphSpan>,
    pub edges: Vec<CausalEdge>,
    /// Receive events whose matching send was not recorded (ring drop or
    /// quarantined sender).
    pub unmatched_recvs: usize,
    pub ranks: usize,
}

/// One hop of the critical path, chronological order.
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    pub rank: usize,
    pub phase: Phase,
    pub step: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Idle gap attributed between the previous hop's handoff and this
    /// span's start.
    pub slack_ns: u64,
    /// Span time this hop newly contributes (overlap-clamped).
    pub contrib_ns: u64,
    /// The cross-rank edge that led into this hop's successor position
    /// (`None` for same-rank succession).
    pub via: Option<CausalEdge>,
}

/// Critical-path attribution of the run's wall clock.
#[derive(Debug)]
pub struct CriticalPath {
    pub hops: Vec<Hop>,
    /// Trace extent: latest span end − earliest span start, ns.
    pub wall_ns: u64,
    /// Span time on the path (overlap-clamped), ns.
    pub span_ns: u64,
    /// Idle/edge slack on the path, ns.
    pub slack_ns: u64,
    /// Span time on the path per phase.
    pub phase_ns: [u64; Phase::COUNT],
    /// Span time on the path per rank.
    pub rank_ns: Vec<u64>,
    /// Per-rank log2 histogram of hop slack (ns buckets).
    pub rank_slack: Vec<Log2Hist>,
}

impl CriticalPath {
    /// Fraction of the trace wall clock the path explains (span + slack).
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.span_ns + self.slack_ns) as f64 / self.wall_ns as f64
    }

    /// Fraction of the trace wall clock spent inside path spans.
    pub fn span_frac(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.span_ns as f64 / self.wall_ns as f64
    }

    /// Cross-rank hops with the largest slack, descending.
    pub fn top_edges(&self, n: usize) -> Vec<&Hop> {
        let mut hops: Vec<&Hop> = self.hops.iter().filter(|h| h.via.is_some()).collect();
        hops.sort_by_key(|h| std::cmp::Reverse(h.slack_ns));
        hops.truncate(n);
        hops
    }
}

/// Check that every rank's recorded causal clocks are strictly
/// increasing (each event ticks the Lamport clock exactly once).
pub fn clocks_monotonic(snaps: &[Snapshot]) -> bool {
    snaps.iter().all(|s| s.causal.windows(2).all(|w| w[0].clock < w[1].clock))
}

impl CausalGraph {
    /// Assemble a graph from pre-extracted parts (the `awp analyze` path:
    /// spans and edges parsed back out of a Chrome trace).
    pub fn new(spans: Vec<GraphSpan>, edges: Vec<CausalEdge>, unmatched_recvs: usize) -> Self {
        let ranks = spans
            .iter()
            .map(|s| s.rank + 1)
            .chain(edges.iter().map(|e| e.src.max(e.dst) + 1))
            .max()
            .unwrap_or(0);
        CausalGraph { spans, edges, unmatched_recvs, ranks }
    }

    /// Reconstruct the DAG from per-rank snapshots: spans become nodes,
    /// send/recv causal events are joined on `(src, dst, tag, envelope
    /// clock)` into message edges.
    pub fn from_snapshots(snaps: &[Snapshot]) -> Self {
        let mut spans = Vec::new();
        for s in snaps {
            for sp in &s.spans {
                spans.push(GraphSpan {
                    rank: s.rank,
                    phase: sp.phase,
                    start_ns: sp.start_ns,
                    end_ns: sp.start_ns + sp.dur_ns,
                    step: sp.step,
                });
            }
        }
        // Join: a receive on rank d carries (peer = src, tag, peer_clock =
        // the envelope stamp); the matching send on rank src carries the
        // same (dst = d, tag, clock). Entries stay in the map so a
        // fault-injected duplicate delivery still matches.
        let mut sends: HashMap<(u32, u32, u64, u64), CausalEvent> = HashMap::new();
        for s in snaps {
            for ev in &s.causal {
                if ev.kind == CausalKind::Send {
                    sends.insert((s.rank as u32, ev.peer, ev.tag, ev.clock), *ev);
                }
            }
        }
        let mut edges = Vec::new();
        let mut unmatched = 0usize;
        for s in snaps {
            for ev in s.causal.iter().filter(|ev| ev.kind == CausalKind::Recv) {
                let key = (ev.peer, s.rank as u32, ev.tag, ev.peer_clock);
                if let Some(send) = sends.get(&key) {
                    edges.push(CausalEdge {
                        src: ev.peer as usize,
                        dst: s.rank,
                        tag: ev.tag,
                        bytes: ev.bytes,
                        send_ns: send.t_ns,
                        recv_ns: ev.t_ns,
                        src_clock: send.clock,
                        dst_clock: ev.clock,
                    });
                } else {
                    unmatched += 1;
                }
            }
        }
        CausalGraph::new(spans, edges, unmatched)
    }

    /// Every matched message edge must observe Lamport order: the
    /// sender's stamp strictly precedes the receiver's merged clock.
    pub fn clock_order_holds(&self) -> bool {
        self.edges.iter().all(|e| e.src_clock < e.dst_clock)
    }

    /// Order-invariant FNV-1a hash of the canonical message-edge multiset
    /// `(src, dst, tag, bytes)`. Raw clock values are excluded on purpose:
    /// they are delivery-order dependent, while the message lineage is not.
    pub fn fingerprint(&self) -> u64 {
        let mut keys: Vec<[u64; 4]> =
            self.edges.iter().map(|e| [e.src as u64, e.dst as u64, e.tag, e.bytes]).collect();
        keys.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for k in &keys {
            for v in k {
                for b in v.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Total message bytes on matched edges.
    pub fn message_bytes(&self) -> u64 {
        self.edges.iter().map(|e| e.bytes).sum()
    }

    /// Walk the critical path backwards from the latest-ending span.
    ///
    /// At each span the predecessor candidates are (a) the latest
    /// earlier-ending span on the same rank and (b) for every message
    /// edge whose receive lands inside the span, the sender's span
    /// covering the send instant. The candidate with the latest causal
    /// handoff time wins (minimum slack). The walk attributes the wall
    /// clock along the chain: overlap-clamped span time per phase/rank
    /// plus idle slack per hop.
    pub fn critical_path(&self) -> CriticalPath {
        let ranks = self.ranks;
        let mut path = CriticalPath {
            hops: Vec::new(),
            wall_ns: 0,
            span_ns: 0,
            slack_ns: 0,
            phase_ns: [0; Phase::COUNT],
            rank_ns: vec![0; ranks],
            rank_slack: vec![Log2Hist::new(); ranks],
        };
        if self.spans.is_empty() {
            return path;
        }
        let t_min = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let t_max = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        path.wall_ns = t_max - t_min;

        // Per-rank span indices sorted by end time (for "latest span
        // ending before t" queries) and message edges indexed by dst.
        let mut by_end: Vec<Vec<usize>> = vec![Vec::new(); ranks];
        for (i, s) in self.spans.iter().enumerate() {
            by_end[s.rank].push(i);
        }
        for v in &mut by_end {
            v.sort_by_key(|&i| self.spans[i].end_ns);
        }
        let mut edges_by_dst: Vec<Vec<usize>> = vec![Vec::new(); ranks];
        for (i, e) in self.edges.iter().enumerate() {
            if e.dst < ranks {
                edges_by_dst[e.dst].push(i);
            }
        }

        // Latest span on `rank` with end <= t, excluding visited.
        let latest_before = |rank: usize, t: u64, visited: &HashSet<usize>| -> Option<usize> {
            let v = &by_end[rank];
            let mut lo = v.partition_point(|&i| self.spans[i].end_ns <= t);
            while lo > 0 {
                lo -= 1;
                if !visited.contains(&v[lo]) {
                    return Some(v[lo]);
                }
            }
            None
        };
        // Span on `rank` covering instant t (latest-starting cover), or
        // the latest span ending before t.
        let covering = |rank: usize, t: u64, visited: &HashSet<usize>| -> Option<usize> {
            let mut best: Option<usize> = None;
            for &i in &by_end[rank] {
                let s = &self.spans[i];
                if s.start_ns <= t && t <= s.end_ns && !visited.contains(&i) {
                    best = Some(match best {
                        Some(b) if self.spans[b].start_ns >= s.start_ns => b,
                        _ => i,
                    });
                }
            }
            best.or_else(|| latest_before(rank, t, visited))
        };

        let start_idx = (0..self.spans.len())
            .max_by_key(|&i| self.spans[i].end_ns)
            .expect("non-empty spans");
        let mut visited: HashSet<usize> = HashSet::new();
        let mut rev: Vec<(usize, Option<CausalEdge>)> = Vec::new();
        let mut cur = start_idx;
        visited.insert(cur);
        loop {
            let cs = self.spans[cur];
            // Candidate a: same-rank predecessor.
            let mut best: Option<(u64, usize, Option<CausalEdge>)> =
                latest_before(cs.rank, cs.start_ns, &visited)
                    .map(|i| (self.spans[i].end_ns, i, None));
            // Candidate b: message edges received inside this span.
            if cs.rank < ranks {
                for &ei in &edges_by_dst[cs.rank] {
                    let e = self.edges[ei];
                    if e.recv_ns < cs.start_ns || e.recv_ns > cs.end_ns || e.src >= ranks {
                        continue;
                    }
                    if let Some(pi) = covering(e.src, e.send_ns, &visited) {
                        // Handoff happens at the send instant.
                        let handoff = e.send_ns;
                        if best.as_ref().is_none_or(|b| handoff > b.0) {
                            best = Some((handoff, pi, Some(e)));
                        }
                    }
                }
            }
            rev.push((cur, None));
            match best {
                Some((_, pi, via)) => {
                    // The edge annotates the hop it leads *into*.
                    rev.last_mut().expect("just pushed").1 = via;
                    visited.insert(pi);
                    cur = pi;
                }
                None => break,
            }
        }

        // Chronological attribution with an advancing cursor so overlap
        // never double-counts: slack + contrib sums to exactly the path
        // extent.
        rev.reverse();
        let mut cursor = t_min;
        for (i, via) in rev {
            let s = self.spans[i];
            let slack = s.start_ns.saturating_sub(cursor);
            let contrib = s.end_ns.saturating_sub(s.start_ns.max(cursor));
            cursor = cursor.max(s.end_ns);
            path.span_ns += contrib;
            path.slack_ns += slack;
            path.phase_ns[s.phase.index()] += contrib;
            if s.rank < ranks {
                path.rank_ns[s.rank] += contrib;
                path.rank_slack[s.rank].record_ns(slack);
            }
            path.hops.push(Hop {
                rank: s.rank,
                phase: s.phase,
                step: s.step,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                slack_ns: slack,
                contrib_ns: contrib,
                via,
            });
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use std::time::Instant;

    fn span(rank: usize, phase: Phase, start: u64, end: u64) -> GraphSpan {
        GraphSpan { rank, phase, start_ns: start, end_ns: end, step: 0 }
    }

    #[test]
    fn send_recv_events_join_into_edges() {
        let epoch = Instant::now();
        let mut r0 = Recorder::enabled(0, epoch, 16);
        let mut r1 = Recorder::enabled(1, epoch, 16);
        let c = r0.clock_send();
        r0.causal_send(1, 42, 256, c);
        let merged = r1.clock_recv(c);
        r1.causal_recv(0, 42, 256, c, merged);
        let snaps = [r0.snapshot(), r1.snapshot()];
        assert!(clocks_monotonic(&snaps));
        let g = CausalGraph::from_snapshots(&snaps);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.unmatched_recvs, 0);
        let e = g.edges[0];
        assert_eq!((e.src, e.dst, e.tag, e.bytes), (0, 1, 42, 256));
        assert!(g.clock_order_holds());
        assert!(e.src_clock < e.dst_clock, "Lamport order on the edge");
    }

    #[test]
    fn fingerprint_is_delivery_order_invariant() {
        // Two interleavings of the same traffic: rank 1 merges the
        // envelopes in opposite orders, so its raw clock values differ,
        // but the canonical edge multiset — and the fingerprint — agree.
        let mut prints = Vec::new();
        for flip in [false, true] {
            let epoch = Instant::now();
            let mut r0 = Recorder::enabled(0, epoch, 16);
            let mut r2 = Recorder::enabled(2, epoch, 16);
            let mut r1 = Recorder::enabled(1, epoch, 16);
            let c0 = r0.clock_send();
            r0.causal_send(1, 7, 64, c0);
            let c2 = r2.clock_send();
            let c2b = r2.clock_send();
            r2.causal_send(1, 9, 128, c2b);
            let _ = c2;
            let order: [(u32, u64, u64, u64); 2] =
                if flip { [(2, 9, 128, c2b), (0, 7, 64, c0)] } else { [(0, 7, 64, c0), (2, 9, 128, c2b)] };
            for (src, tag, bytes, clk) in order {
                let m = r1.clock_recv(clk);
                r1.causal_recv(src, tag, bytes, clk, m);
            }
            let snaps = [r0.snapshot(), r1.snapshot(), r2.snapshot()];
            assert!(clocks_monotonic(&snaps));
            let g = CausalGraph::from_snapshots(&snaps);
            assert_eq!(g.edges.len(), 2);
            assert!(g.clock_order_holds());
            prints.push(g.fingerprint());
        }
        assert_eq!(prints[0], prints[1]);
    }

    #[test]
    fn unmatched_recv_is_counted_not_fatal() {
        let epoch = Instant::now();
        let mut r1 = Recorder::enabled(1, epoch, 16);
        let m = r1.clock_recv(99);
        r1.causal_recv(0, 5, 8, 99, m);
        let g = CausalGraph::from_snapshots(&[r1.snapshot()]);
        assert_eq!(g.edges.len(), 0);
        assert_eq!(g.unmatched_recvs, 1);
    }

    #[test]
    fn critical_path_crosses_ranks_on_message_edges() {
        // rank 0: compute [0,100], send at 90.
        // rank 1: wait [0,110] (recv at 100), compute [110, 200].
        let spans = vec![
            span(0, Phase::VelocityInterior, 0, 100),
            span(1, Phase::Wait, 0, 110),
            span(1, Phase::StressInterior, 110, 200),
        ];
        let edges = vec![CausalEdge {
            src: 0,
            dst: 1,
            tag: 3,
            bytes: 32,
            send_ns: 90,
            recv_ns: 100,
            src_clock: 1,
            dst_clock: 2,
        }];
        let g = CausalGraph::new(spans, edges, 0);
        let p = g.critical_path();
        assert_eq!(p.wall_ns, 200);
        // Path: rank0 compute → (edge) rank1 wait → rank1 stress.
        assert_eq!(p.hops.len(), 3);
        assert_eq!(p.hops[0].rank, 0);
        assert!(p.hops[1].via.is_some(), "hop into the wait span rides the message edge");
        assert_eq!(p.hops[2].phase, Phase::StressInterior);
        // Full attribution: span + slack covers the whole extent.
        assert_eq!(p.span_ns + p.slack_ns, 200);
        assert!((p.coverage() - 1.0).abs() < 1e-9);
        assert!(p.phase_ns[Phase::VelocityInterior.index()] > 0);
        assert_eq!(p.rank_ns.len(), 2);
    }

    #[test]
    fn critical_path_attribution_never_exceeds_wall() {
        // Overlapping nested spans must be clamped by the cursor.
        let spans = vec![
            span(0, Phase::VelocityShell, 0, 100),
            span(0, Phase::Boundary, 20, 80),
            span(0, Phase::StressShell, 100, 150),
        ];
        let g = CausalGraph::new(spans, Vec::new(), 0);
        let p = g.critical_path();
        assert_eq!(p.wall_ns, 150);
        assert!(p.span_ns + p.slack_ns <= 150);
        assert!((p.coverage() - 1.0).abs() < 1e-9);
    }
}
