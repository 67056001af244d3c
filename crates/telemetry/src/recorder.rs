//! Per-rank span recorder.
//!
//! One `Recorder` lives on each rank's `RankCtx` (thread-local by
//! construction: ranks are threads and the recorder is never shared).
//! Every probe branches on `enabled` first; when telemetry is off the
//! recorder holds zero-capacity buffers and a probe is a predictable
//! not-taken branch with **no clock read and no allocation** (enforced by
//! `tests/zero_alloc.rs`). When on, spans go into a preallocated ring
//! buffer (fixed-size records, phase enums not strings) so steady-state
//! recording never touches the allocator either.

use crate::causal::{CausalEvent, CausalKind};
use crate::hist::Log2Hist;
use crate::live::LiveRank;
use crate::phase::{Counter, HistKind, Phase};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cluster tag value meaning "not inside any dt-cluster's phase".
pub const NO_CLUSTER: u8 = u8::MAX;

/// One recorded span. `step` lets the trace viewer correlate spans with
/// timestep numbers; `cluster` tags spans emitted inside a local-time-
/// stepping dt-cluster's phase ([`NO_CLUSTER`] otherwise).
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub phase: Phase,
    /// Start offset from the registry epoch, ns.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub step: u32,
    pub cluster: u8,
}

/// Per-dt-cluster accounting from a local-time-stepping run: how often the
/// cluster fired and how much compute time its substeps took. Set once at
/// the end of a rank's run via [`Recorder::set_lts_stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LtsClusterStat {
    pub cluster: u8,
    /// Substep cadence: the cluster fires every `rate` base ticks.
    pub rate: u32,
    /// Number of z-planes the cluster owns.
    pub planes: u32,
    /// Substeps actually executed (velocity+stress pairs).
    pub fires: u64,
    /// Wall time spent inside this cluster's compute phases, ns.
    pub ns: u64,
}

/// Per-phase running totals — always exact even when the span ring wraps.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTotal {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

/// Drained/cloned state of one rank's recorder. This is what crosses the
/// rank boundary: `RankResult` carries one and the `Registry` aggregates
/// them into a `TelemetryReport`.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub rank: usize,
    pub enabled: bool,
    /// Spans in chronological order (oldest first). If the ring wrapped,
    /// only the newest `capacity` spans survive and `dropped_spans` counts
    /// the evicted ones; phase totals stay exact regardless.
    pub spans: Vec<SpanRec>,
    pub dropped_spans: u64,
    pub totals: [PhaseTotal; Phase::COUNT],
    pub counters: [u64; Counter::COUNT],
    pub hists: [Log2Hist; HistKind::COUNT],
    /// Per-dt-cluster substep accounting (empty unless the run used local
    /// time stepping and called [`Recorder::set_lts_stats`]).
    pub lts: Vec<LtsClusterStat>,
    /// Causal events (message lineage, cluster/health marks) in
    /// chronological order; ring-bounded like `spans`.
    pub causal: Vec<CausalEvent>,
    pub dropped_causal: u64,
}

impl Snapshot {
    #[inline]
    pub fn phase_ns(&self, p: Phase) -> u64 {
        self.totals[p.index()].total_ns
    }

    #[inline]
    pub fn phase_count(&self, p: Phase) -> u64 {
        self.totals[p.index()].count
    }

    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    #[inline]
    pub fn hist(&self, k: HistKind) -> &Log2Hist {
        &self.hists[k.index()]
    }

    /// Total compute time (the four stencil passes), for load-imbalance.
    pub fn compute_ns(&self) -> u64 {
        Phase::COMPUTE.iter().map(|p| self.phase_ns(*p)).sum()
    }

    /// Total communication time (send + wait + inject).
    pub fn comm_ns(&self) -> u64 {
        Phase::COMM.iter().map(|p| self.phase_ns(*p)).sum()
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    rank: usize,
    epoch: Instant,
    cur_step: u32,
    cur_cluster: u8,
    /// Per-cluster LTS accounting, set once at end of run (empty ⇒ no LTS).
    lts: Vec<LtsClusterStat>,
    /// Ring storage, preallocated to capacity at registration.
    spans: Vec<SpanRec>,
    /// Next overwrite position once the ring is full.
    next: usize,
    dropped: u64,
    totals: [PhaseTotal; Phase::COUNT],
    counters: [u64; Counter::COUNT],
    hists: [Log2Hist; HistKind::COUNT],
    /// Optional liveness pulse: bumped on every probe (even with recording
    /// disabled) so a watchdog can distinguish a rank that is slow but
    /// emitting phase spans from one that is wedged. `None` (the default)
    /// keeps every probe's overhead at a single not-taken branch.
    pulse: Option<Arc<AtomicU64>>,
    /// Optional live-stats cells (streaming stats endpoint). Finished spans
    /// fold into coarse per-rank buckets; `None` (the default) keeps the
    /// extra cost at one not-taken branch per span — zero allocation.
    live: Option<Arc<LiveRank>>,
    /// Lamport logical clock: ticked on every causal event, merged on
    /// receive. Maintained unconditionally (plain integer math) so message
    /// envelopes are stamped even when recording is disarmed — an armed
    /// peer's trace still sees coherent lineage.
    clock: u64,
    /// Causal-event ring, preallocated like `spans`.
    causal: Vec<CausalEvent>,
    causal_next: usize,
    dropped_causal: u64,
}

impl Recorder {
    /// Recorder for a registered rank; `capacity` spans are preallocated
    /// here, off the hot path.
    pub(crate) fn enabled(rank: usize, epoch: Instant, capacity: usize) -> Self {
        Recorder {
            enabled: true,
            rank,
            epoch,
            cur_step: 0,
            cur_cluster: NO_CLUSTER,
            lts: Vec::new(),
            spans: Vec::with_capacity(capacity),
            next: 0,
            dropped: 0,
            totals: [PhaseTotal::default(); Phase::COUNT],
            counters: [0; Counter::COUNT],
            hists: [Log2Hist::new(); HistKind::COUNT],
            pulse: None,
            live: None,
            clock: 0,
            // Sends + receives outnumber spans per step; double the ring.
            causal: Vec::with_capacity(capacity.saturating_mul(2)),
            causal_next: 0,
            dropped_causal: 0,
        }
    }

    /// The default, telemetry-off recorder: every probe is a not-taken
    /// branch; nothing is allocated (zero-capacity `Vec` holds no heap).
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            rank: 0,
            epoch: Instant::now(),
            cur_step: 0,
            cur_cluster: NO_CLUSTER,
            lts: Vec::new(),
            spans: Vec::new(),
            next: 0,
            dropped: 0,
            totals: [PhaseTotal::default(); Phase::COUNT],
            counters: [0; Counter::COUNT],
            hists: [Log2Hist::new(); HistKind::COUNT],
            pulse: None,
            live: None,
            clock: 0,
            causal: Vec::new(),
            causal_next: 0,
            dropped_causal: 0,
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attach a liveness pulse cell. Every subsequent probe — span start,
    /// span record, counter bump, histogram observation — increments the
    /// cell, whether or not recording is enabled, so a watchdog polling it
    /// sees activity from ranks that are busy inside long phase windows.
    pub fn set_pulse(&mut self, cell: Arc<AtomicU64>) {
        self.pulse = Some(cell);
    }

    /// Attach this rank's live-stats cells (streaming stats endpoint).
    /// Finished spans then also fold into the coarse live buckets — like
    /// the pulse, this works whether or not span recording is enabled, so
    /// `awp run --stats-addr` without `--profile` still streams steps and
    /// phase timers.
    pub fn set_live(&mut self, cells: Arc<LiveRank>) {
        self.live = Some(cells);
    }

    /// Current Lamport clock (diagnostics/tests).
    #[inline]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Tick the Lamport clock for a send and return the envelope stamp.
    /// Always maintained — integer math only, no allocation, no clock
    /// read — so envelopes stay coherently stamped when tracing is off.
    #[inline]
    pub fn clock_send(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Merge a received envelope stamp: `clock = max(clock, peer) + 1`.
    /// Returns the merged local clock.
    #[inline]
    pub fn clock_recv(&mut self, peer_clock: u64) -> u64 {
        self.clock = self.clock.max(peer_clock) + 1;
        self.clock
    }

    #[inline]
    fn beat_pulse(&self) {
        if let Some(p) = &self.pulse {
            p.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Tag subsequent spans with the current timestep (also published to
    /// the live-stats step gauge when one is attached).
    #[inline]
    pub fn set_step(&mut self, step: u64) {
        if let Some(l) = &self.live {
            l.step.store(step, Ordering::Relaxed);
        }
        self.cur_step = step.min(u32::MAX as u64) as u32;
    }

    /// Tag subsequent spans with a dt-cluster id (local time stepping);
    /// pass [`NO_CLUSTER`] when leaving a cluster's phase.
    #[inline]
    pub fn set_cluster(&mut self, cluster: u8) {
        if self.enabled {
            self.cur_cluster = cluster;
        }
    }

    /// Install the per-cluster substep accounting for this rank's run.
    /// Guarded on `enabled` so the telemetry-off recorder stays
    /// allocation-free (the zero-alloc invariant).
    pub fn set_lts_stats(&mut self, stats: Vec<LtsClusterStat>) {
        if self.enabled {
            self.lts = stats;
        }
    }

    /// Begin timing a span. Returns `None` (no clock read) when neither
    /// span recording nor live streaming wants the interval.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.beat_pulse();
        if self.enabled || self.live.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// End a span begun with [`start`](Self::start).
    #[inline]
    pub fn finish(&mut self, t0: Option<Instant>, phase: Phase) {
        if let Some(t0) = t0 {
            self.span_at(phase, t0, t0.elapsed());
        }
    }

    /// Record a span with an explicit start and duration (used when one
    /// measured interval feeds both the vcluster `TimeLedger` and
    /// telemetry, or when a wait interval is split into wait + inject).
    #[inline]
    pub fn span_at(&mut self, phase: Phase, t0: Instant, dur: Duration) {
        self.beat_pulse();
        // The live fold happens regardless of `enabled`: a monitoring-only
        // run streams phase timers without paying for span recording.
        if let Some(l) = &self.live {
            l.add_phase(phase, dur.as_nanos() as u64);
        }
        if !self.enabled {
            return;
        }
        let rec = SpanRec {
            phase,
            start_ns: t0.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            step: self.cur_step,
            cluster: self.cur_cluster,
        };
        let t = &mut self.totals[phase.index()];
        t.count += 1;
        t.total_ns += rec.dur_ns;
        t.max_ns = t.max_ns.max(rec.dur_ns);
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(rec);
        } else if self.spans.capacity() > 0 {
            // Ring is full: overwrite the oldest record in place.
            self.spans[self.next] = rec;
            self.next = (self.next + 1) % self.spans.capacity();
            self.dropped += 1;
        } else {
            // Capacity 0 (counters-only recorder): totals stay exact.
            self.dropped += 1;
        }
    }

    /// Time a closure as one span.
    #[inline]
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let t0 = self.start();
        let out = f();
        self.finish(t0, phase);
        out
    }

    /// Bump a monotonic counter.
    #[inline]
    pub fn count(&mut self, c: Counter, n: u64) {
        self.beat_pulse();
        if self.enabled {
            self.counters[c.index()] += n;
        }
    }

    /// Push one causal record into the preallocated ring (enabled only).
    #[inline]
    fn push_causal(&mut self, ev: CausalEvent) {
        if self.causal.len() < self.causal.capacity() {
            self.causal.push(ev);
        } else if self.causal.capacity() > 0 {
            self.causal[self.causal_next] = ev;
            self.causal_next = (self.causal_next + 1) % self.causal.capacity();
            self.dropped_causal += 1;
        } else {
            self.dropped_causal += 1;
        }
    }

    /// Record a message-send causal event. `clock` is the stamp returned
    /// by [`clock_send`](Self::clock_send) and carried on the envelope.
    /// Free when disarmed: one pulse bump and a not-taken branch.
    #[inline]
    pub fn causal_send(&mut self, peer: u32, tag: u64, bytes: u64, clock: u64) {
        self.beat_pulse();
        if !self.enabled {
            return;
        }
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        self.push_causal(CausalEvent {
            kind: CausalKind::Send,
            clock,
            peer,
            peer_clock: 0,
            tag,
            bytes,
            step: self.cur_step,
            t_ns,
        });
    }

    /// Record a message-receive causal event. `peer_clock` is the stamp
    /// from the envelope, `clock` the merged local clock returned by
    /// [`clock_recv`](Self::clock_recv).
    #[inline]
    pub fn causal_recv(&mut self, peer: u32, tag: u64, bytes: u64, peer_clock: u64, clock: u64) {
        self.beat_pulse();
        if !self.enabled {
            return;
        }
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        self.push_causal(CausalEvent {
            kind: CausalKind::Recv,
            clock,
            peer,
            peer_clock,
            tag,
            bytes,
            step: self.cur_step,
            t_ns,
        });
    }

    /// Record a local causal mark (LTS cluster tick, health probe). Ticks
    /// the Lamport clock.
    #[inline]
    pub fn causal_mark(&mut self, kind: CausalKind, peer: u32, tag: u64, bytes: u64) {
        self.beat_pulse();
        self.clock += 1;
        if !self.enabled {
            return;
        }
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let (clock, step) = (self.clock, self.cur_step);
        self.push_causal(CausalEvent { kind, clock, peer, peer_clock: 0, tag, bytes, step, t_ns });
    }

    /// Record one latency observation in a log2 histogram.
    #[inline]
    pub fn observe(&mut self, kind: HistKind, dur: Duration) {
        self.beat_pulse();
        if self.enabled {
            self.hists[kind.index()].record_ns(dur.as_nanos() as u64);
        }
    }

    /// Clone the current state into a `Snapshot` with spans rotated into
    /// chronological order. Non-destructive: the recorder keeps recording.
    pub fn snapshot(&self) -> Snapshot {
        let mut spans = Vec::with_capacity(self.spans.len());
        if self.dropped > 0 && self.spans.len() == self.spans.capacity() {
            // Wrapped ring: oldest record sits at `next`.
            spans.extend_from_slice(&self.spans[self.next..]);
            spans.extend_from_slice(&self.spans[..self.next]);
        } else {
            spans.extend_from_slice(&self.spans);
        }
        let mut causal = Vec::with_capacity(self.causal.len());
        if self.dropped_causal > 0 && self.causal.len() == self.causal.capacity() {
            causal.extend_from_slice(&self.causal[self.causal_next..]);
            causal.extend_from_slice(&self.causal[..self.causal_next]);
        } else {
            causal.extend_from_slice(&self.causal);
        }
        Snapshot {
            rank: self.rank,
            enabled: self.enabled,
            spans,
            dropped_spans: self.dropped,
            totals: self.totals,
            counters: self.counters,
            hists: self.hists,
            lts: self.lts.clone(),
            causal,
            dropped_causal: self.dropped_causal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraparound_keeps_newest_and_exact_totals() {
        let epoch = Instant::now();
        let mut r = Recorder::enabled(3, epoch, 4);
        for i in 0..10u64 {
            r.set_step(i);
            r.span_at(Phase::Send, epoch, Duration::from_nanos(100 + i));
        }
        let s = r.snapshot();
        assert_eq!(s.rank, 3);
        assert_eq!(s.spans.len(), 4, "ring holds exactly capacity");
        assert_eq!(s.dropped_spans, 6);
        // Newest 4 spans survive, in chronological order.
        let steps: Vec<u32> = s.spans.iter().map(|x| x.step).collect();
        assert_eq!(steps, vec![6, 7, 8, 9]);
        // Totals are exact despite the drops.
        assert_eq!(s.phase_count(Phase::Send), 10);
        assert_eq!(s.phase_ns(Phase::Send), (0..10).map(|i| 100 + i).sum::<u64>());
        assert_eq!(s.totals[Phase::Send.index()].max_ns, 109);
    }

    #[test]
    fn partial_ring_is_chronological() {
        let epoch = Instant::now();
        let mut r = Recorder::enabled(0, epoch, 8);
        r.span_at(Phase::Wait, epoch, Duration::from_nanos(5));
        r.set_step(1);
        r.span_at(Phase::Inject, epoch, Duration::from_nanos(7));
        let s = r.snapshot();
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.dropped_spans, 0);
        assert_eq!(s.spans[0].phase, Phase::Wait);
        assert_eq!(s.spans[1].phase, Phase::Inject);
        assert_eq!(s.spans[1].step, 1);
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let mut r = Recorder::disabled();
        assert!(!r.is_enabled());
        assert!(r.start().is_none());
        r.set_step(9);
        let t0 = r.start();
        r.finish(t0, Phase::Send);
        r.count(Counter::BytesSent, 1 << 20);
        r.observe(HistKind::Barrier, Duration::from_millis(1));
        let v = r.time(Phase::Wait, || 42);
        assert_eq!(v, 42);
        let s = r.snapshot();
        assert!(!s.enabled);
        assert!(s.spans.is_empty());
        assert_eq!(s.counter(Counter::BytesSent), 0);
        assert_eq!(s.phase_count(Phase::Wait), 0);
        assert_eq!(s.hist(HistKind::Barrier).count(), 0);
    }

    #[test]
    fn counters_and_hists_accumulate() {
        let mut r = Recorder::enabled(1, Instant::now(), 16);
        r.count(Counter::MsgsSent, 2);
        r.count(Counter::MsgsSent, 3);
        r.observe(HistKind::Send, Duration::from_nanos(100));
        r.observe(HistKind::Send, Duration::from_nanos(200));
        let s = r.snapshot();
        assert_eq!(s.counter(Counter::MsgsSent), 5);
        assert_eq!(s.hist(HistKind::Send).count(), 2);
        assert_eq!(s.hist(HistKind::Send).sum_ns(), 300);
    }
}
