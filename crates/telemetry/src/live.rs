//! Live per-rank telemetry cells and the versioned streaming wire format.
//!
//! Post-run reports ([`crate::TelemetryReport`]) answer "how did the run go";
//! the live path answers "how is the run going". Each rank owns an
//! [`LiveRank`] of plain atomics that the hot-path probes bump alongside the
//! exact totals; a stats endpoint thread samples the whole [`LiveStats`]
//! table at its own cadence and writes newline-delimited versioned JSON to
//! connected clients (the scx_stats shape: one self-describing header line,
//! then snapshot lines).
//!
//! Overhead discipline matches the rest of the crate: when no live table is
//! wired the extra cost per probe is a not-taken `Option` branch — zero
//! allocation, zero clock reads (covered by `tests/zero_alloc.rs`). The
//! serializer below is hand-rolled because this crate is std-only by design.

use crate::phase::Phase;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wire protocol version. Bumped on any incompatible change to the line
/// schema; clients reject streams whose `v` differs (see DESIGN.md
/// "Observability" — version negotiation). v2 dropped v1's per-rank
/// `steals`/`stolen`/`tiles`/`queue_depth` keys.
pub const STATS_PROTO_VERSION: u64 = 2;

/// Protocol name carried in the hello line, `awp-stats`.
pub const STATS_PROTO_NAME: &str = "awp-stats";

/// Live cells for one rank. All relaxed atomics: each cell is a monotonic
/// accumulator (or last-written gauge) sampled racily by the endpoint
/// thread; cross-cell consistency is not required for monitoring.
#[derive(Debug, Default)]
pub struct LiveRank {
    /// Last timestep the rank entered (gauge).
    pub step: AtomicU64,
    /// Cumulative ns in the four stencil passes.
    pub compute_ns: AtomicU64,
    /// Cumulative ns blocked waiting on halo receives.
    pub wait_ns: AtomicU64,
    /// Cumulative ns posting sends.
    pub send_ns: AtomicU64,
    /// Cumulative ns injecting received halos.
    pub inject_ns: AtomicU64,
}

impl LiveRank {
    /// Fold a finished span into the coarse live buckets.
    #[inline]
    pub fn add_phase(&self, phase: Phase, dur_ns: u64) {
        match phase {
            Phase::VelocityShell
            | Phase::VelocityInterior
            | Phase::StressShell
            | Phase::StressInterior => self.compute_ns.fetch_add(dur_ns, Ordering::Relaxed),
            Phase::Wait => self.wait_ns.fetch_add(dur_ns, Ordering::Relaxed),
            Phase::Send => self.send_ns.fetch_add(dur_ns, Ordering::Relaxed),
            Phase::Inject => self.inject_ns.fetch_add(dur_ns, Ordering::Relaxed),
            _ => 0,
        };
    }
}

/// One live table per run: rank-indexed cells shared between the compute
/// threads (writers) and the stats endpoint (reader).
#[derive(Debug)]
pub struct LiveStats {
    ranks: Vec<Arc<LiveRank>>,
}

impl LiveStats {
    pub fn new(ranks: usize) -> Arc<LiveStats> {
        Arc::new(LiveStats { ranks: (0..ranks).map(|_| Arc::new(LiveRank::default())).collect() })
    }

    #[inline]
    pub fn ranks(&self) -> usize {
        self.ranks.len()
    }

    #[inline]
    pub fn rank(&self, r: usize) -> &Arc<LiveRank> {
        &self.ranks[r]
    }

    /// The one-time header line a server writes to each new client:
    /// `{"v":2,"kind":"hello","proto":"awp-stats","ranks":N}`. This server
    /// advertises no `extras` (additive per-rank snapshot fields beyond the
    /// v2 base schema, which a client requires only when advertised).
    pub fn hello_json(&self) -> String {
        format!(
            "{{\"v\":{STATS_PROTO_VERSION},\"kind\":\"hello\",\"proto\":\"{STATS_PROTO_NAME}\",\"ranks\":{}}}",
            self.ranks.len()
        )
    }

    /// One snapshot line: per-rank step and phase timers plus the
    /// derived fleet metrics (imbalance ratio = max/mean live compute,
    /// hidden-comm fraction = 1 − wait/(send+wait+inject), both matching the
    /// post-run report's definitions).
    pub fn snapshot_json(&self, seq: u64, t_ms: u64) -> String {
        let n = self.ranks.len();
        let mut compute = Vec::with_capacity(n);
        let (mut wait, mut send, mut inject) = (0u64, 0u64, 0u64);
        for r in &self.ranks {
            compute.push(r.compute_ns.load(Ordering::Relaxed));
            wait += r.wait_ns.load(Ordering::Relaxed);
            send += r.send_ns.load(Ordering::Relaxed);
            inject += r.inject_ns.load(Ordering::Relaxed);
        }
        let mean = if n > 0 { compute.iter().sum::<u64>() as f64 / n as f64 } else { 0.0 };
        let max = compute.iter().copied().max().unwrap_or(0) as f64;
        let imbalance = if mean > 0.0 { max / mean } else { 0.0 };
        let comm = wait + send + inject;
        let hidden =
            if comm > 0 { (1.0 - wait as f64 / comm as f64).clamp(0.0, 1.0) } else { 0.0 };

        let mut out = String::with_capacity(128 + 160 * n);
        let _ = write!(
            out,
            "{{\"v\":{STATS_PROTO_VERSION},\"kind\":\"snapshot\",\"seq\":{seq},\"t_ms\":{t_ms},\
             \"imbalance\":{imbalance:.4},\"hidden_comm\":{hidden:.4},\"ranks\":["
        );
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rank\":{i},\"step\":{},\"compute_ms\":{:.3},\"wait_ms\":{:.3},\
                 \"send_ms\":{:.3},\"inject_ms\":{:.3}}}",
                r.step.load(Ordering::Relaxed),
                r.compute_ns.load(Ordering::Relaxed) as f64 / 1e6,
                r.wait_ns.load(Ordering::Relaxed) as f64 / 1e6,
                r.send_ns.load(Ordering::Relaxed) as f64 / 1e6,
                r.inject_ns.load(Ordering::Relaxed) as f64 / 1e6,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_line_is_versioned_and_self_describing() {
        let live = LiveStats::new(3);
        let hello = live.hello_json();
        assert!(hello.starts_with("{\"v\":2,"), "{hello}");
        assert!(hello.contains("\"proto\":\"awp-stats\""), "{hello}");
        assert!(hello.contains("\"ranks\":3"), "{hello}");
    }

    #[test]
    fn snapshot_carries_per_rank_cells_and_derived_metrics() {
        let live = LiveStats::new(2);
        live.rank(0).add_phase(Phase::VelocityInterior, 3_000_000);
        live.rank(1).add_phase(Phase::StressInterior, 1_000_000);
        live.rank(1).add_phase(Phase::Wait, 500_000);
        live.rank(1).add_phase(Phase::Send, 1_500_000);
        live.rank(0).step.store(7, Ordering::Relaxed);
        let line = live.snapshot_json(2, 150);
        assert!(line.contains("\"v\":2"), "{line}");
        assert!(line.contains("\"seq\":2"), "{line}");
        assert!(line.contains("\"t_ms\":150"), "{line}");
        // imbalance = max/mean = 3/2 = 1.5; hidden = 1 - 0.5/2.0 = 0.75.
        assert!(line.contains("\"imbalance\":1.5000"), "{line}");
        assert!(line.contains("\"hidden_comm\":0.7500"), "{line}");
        assert!(line.contains("\"send_ms\":1.500"), "{line}");
        assert!(line.contains("\"step\":7"), "{line}");
        assert!(!line.contains('\n'), "one line per snapshot");
    }

    #[test]
    fn boundary_phases_do_not_pollute_live_buckets() {
        let live = LiveStats::new(1);
        live.rank(0).add_phase(Phase::Boundary, 1_000);
        live.rank(0).add_phase(Phase::Output, 1_000);
        assert_eq!(live.rank(0).compute_ns.load(Ordering::Relaxed), 0);
        let line = live.snapshot_json(0, 0);
        assert!(line.contains("\"imbalance\":0.0000"), "{line}");
    }
}
