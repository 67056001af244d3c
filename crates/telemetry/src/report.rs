//! Cross-rank aggregation: per-phase min/mean/max/p95 of rank totals,
//! load-imbalance ratio, hidden-comm fraction, summed counters, merged
//! comm-latency histograms.

use crate::hist::Log2Hist;
use crate::phase::{Counter, HistKind, Phase};
use crate::recorder::Snapshot;
use std::fmt;

/// Cross-rank aggregate for one local-time-stepping dt-cluster.
#[derive(Debug, Clone, Copy)]
pub struct LtsClusterAgg {
    pub cluster: u8,
    /// Substep cadence (fires every `rate` base ticks).
    pub rate: u32,
    /// z-planes the cluster owns (clusters are z-slabs, identical on every
    /// rank because LTS forbids z decomposition).
    pub planes: u32,
    /// Substeps summed across ranks.
    pub substeps: u64,
    /// Compute time inside this cluster's phases summed across ranks, ns.
    pub ns: u64,
    /// Fraction of all LTS cluster compute time spent in this cluster.
    pub time_share: f64,
}

/// Distribution of one phase's **per-rank totals** across ranks.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseAgg {
    /// Total span count across ranks.
    pub count: u64,
    /// Per-rank-total statistics, seconds.
    pub min_s: f64,
    pub mean_s: f64,
    pub max_s: f64,
    pub p95_s: f64,
}

#[derive(Debug, Clone)]
pub struct TelemetryReport {
    pub ranks: usize,
    /// Indexed by `Phase::index()`.
    pub phases: [PhaseAgg; Phase::COUNT],
    /// Summed across ranks, indexed by `Counter::index()`.
    pub counters: [u64; Counter::COUNT],
    /// Comm-latency histograms merged across ranks.
    pub hists: [Log2Hist; HistKind::COUNT],
    /// max/mean of per-rank compute totals (the paper's §V straggler
    /// metric); 1.0 = perfectly balanced, 0.0 if no compute was recorded.
    pub load_imbalance: f64,
    /// 1 − wait/(send+wait+inject): the share of communication time a rank
    /// was not blocked on neighbours. The overlap pipeline raises it by
    /// posting each k-slab's sends while later slabs compute (one `Send`
    /// span per slab, one `Wait`/`Inject` pair per cluster phase). 0.0 if
    /// no comm was recorded.
    pub hidden_comm_fraction: f64,
    /// Spans evicted from rings (totals remain exact), summed across ranks.
    pub dropped_spans: u64,
    /// Per-dt-cluster substep accounting merged across ranks (empty unless
    /// the run used local time stepping).
    pub lts: Vec<LtsClusterAgg>,
}

/// p95 by nearest-rank on a sorted slice (matches how the bench suite
/// quotes percentiles; exact for our small rank counts).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

impl TelemetryReport {
    pub fn from_snapshots(snaps: &[Snapshot]) -> TelemetryReport {
        let ranks = snaps.len();
        let mut phases = [PhaseAgg::default(); Phase::COUNT];
        for phase in Phase::ALL {
            let i = phase.index();
            let mut totals: Vec<f64> =
                snaps.iter().map(|s| s.phase_ns(phase) as f64 * 1e-9).collect();
            totals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let count: u64 = snaps.iter().map(|s| s.phase_count(phase)).sum();
            if ranks > 0 {
                phases[i] = PhaseAgg {
                    count,
                    min_s: totals[0],
                    mean_s: totals.iter().sum::<f64>() / ranks as f64,
                    max_s: totals[ranks - 1],
                    p95_s: percentile(&totals, 0.95),
                };
            }
        }

        let mut counters = [0u64; Counter::COUNT];
        for s in snaps {
            for c in Counter::ALL {
                counters[c.index()] += s.counter(c);
            }
        }

        let mut hists = [Log2Hist::new(); HistKind::COUNT];
        for s in snaps {
            for k in HistKind::ALL {
                hists[k.index()].merge(s.hist(k));
            }
        }

        let compute: Vec<f64> = snaps.iter().map(|s| s.compute_ns() as f64).collect();
        let mean_compute = if ranks > 0 { compute.iter().sum::<f64>() / ranks as f64 } else { 0.0 };
        let max_compute = compute.iter().cloned().fold(0.0f64, f64::max);
        let load_imbalance = if mean_compute > 0.0 { max_compute / mean_compute } else { 0.0 };

        let send: u64 = snaps.iter().map(|s| s.phase_ns(Phase::Send)).sum();
        let wait: u64 = snaps.iter().map(|s| s.phase_ns(Phase::Wait)).sum();
        let inject: u64 = snaps.iter().map(|s| s.phase_ns(Phase::Inject)).sum();
        let comm = send + wait + inject;
        let hidden_comm_fraction =
            if comm > 0 { (1.0 - wait as f64 / comm as f64).clamp(0.0, 1.0) } else { 0.0 };

        let dropped_spans = snaps.iter().map(|s| s.dropped_spans).sum();

        // Merge LTS cluster stats: identity fields (rate, planes) agree
        // across ranks by construction; substeps and ns accumulate.
        let mut lts: Vec<LtsClusterAgg> = Vec::new();
        for s in snaps {
            for c in &s.lts {
                match lts.iter_mut().find(|a| a.cluster == c.cluster) {
                    Some(a) => {
                        a.substeps += c.fires;
                        a.ns += c.ns;
                    }
                    None => lts.push(LtsClusterAgg {
                        cluster: c.cluster,
                        rate: c.rate,
                        planes: c.planes,
                        substeps: c.fires,
                        ns: c.ns,
                        time_share: 0.0,
                    }),
                }
            }
        }
        lts.sort_by_key(|a| a.cluster);
        let lts_total_ns: u64 = lts.iter().map(|a| a.ns).sum();
        if lts_total_ns > 0 {
            for a in &mut lts {
                a.time_share = a.ns as f64 / lts_total_ns as f64;
            }
        }

        TelemetryReport {
            ranks,
            phases,
            counters,
            hists,
            load_imbalance,
            hidden_comm_fraction,
            dropped_spans,
            lts,
        }
    }

    #[inline]
    pub fn phase(&self, p: Phase) -> &PhaseAgg {
        &self.phases[p.index()]
    }

    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    #[inline]
    pub fn hist(&self, k: HistKind) -> &Log2Hist {
        &self.hists[k.index()]
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

impl fmt::Display for TelemetryReport {
    /// Human-readable table printed by `awp --profile`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TelemetryReport ({} ranks)", self.ranks)?;
        writeln!(
            f,
            "  {:<18} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "phase", "count", "min(s)", "mean(s)", "max(s)", "p95(s)"
        )?;
        for phase in Phase::ALL {
            let a = self.phase(phase);
            if a.count == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<18} {:>10} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
                phase.name(),
                a.count,
                a.min_s,
                a.mean_s,
                a.max_s,
                a.p95_s
            )?;
        }
        writeln!(f, "  load imbalance (max/mean compute): {:.3}", self.load_imbalance)?;
        writeln!(f, "  hidden-comm fraction:              {:.3}", self.hidden_comm_fraction)?;
        writeln!(
            f,
            "  messages: {} sent / {} recv   bytes: {} sent / {} recv",
            self.counter(Counter::MsgsSent),
            self.counter(Counter::MsgsRecv),
            fmt_bytes(self.counter(Counter::BytesSent)),
            fmt_bytes(self.counter(Counter::BytesRecv)),
        )?;
        writeln!(
            f,
            "  checkpoint bytes: {}   output bytes: {}   arena allocs: {}",
            fmt_bytes(self.counter(Counter::CheckpointBytes)),
            fmt_bytes(self.counter(Counter::OutputBytes)),
            self.counter(Counter::ArenaAllocs),
        )?;
        writeln!(
            f,
            "  fault events: {}   io retries: {}   dropped spans: {}",
            self.counter(Counter::FaultEvents),
            self.counter(Counter::IoRetries),
            self.dropped_spans,
        )?;
        writeln!(
            f,
            "  recoveries: {}   dead letters: {}",
            self.counter(Counter::Recoveries),
            self.counter(Counter::DeadLetters),
        )?;
        if !self.lts.is_empty() {
            writeln!(f, "  dt-clusters (local time stepping):")?;
            writeln!(
                f,
                "    {:<8} {:>5} {:>7} {:>10} {:>11}",
                "cluster", "rate", "planes", "substeps", "time-share"
            )?;
            for c in &self.lts {
                writeln!(
                    f,
                    "    {:<8} {:>5} {:>7} {:>10} {:>10.1}%",
                    c.cluster,
                    c.rate,
                    c.planes,
                    c.substeps,
                    c.time_share * 100.0
                )?;
            }
        }
        for k in HistKind::ALL {
            let h = self.hist(k);
            if h.count() == 0 {
                continue;
            }
            if k == HistKind::QueueDepth {
                writeln!(
                    f,
                    "  {:<7} depth:   n={:<8} mean={:>9.1}   p50={:>9}   p95={:>9}   max={:>9}",
                    k.name(),
                    h.count(),
                    h.mean_ns(),
                    h.quantile_ns(0.50),
                    h.quantile_ns(0.95),
                    h.max_ns(),
                )?;
                continue;
            }
            writeln!(
                f,
                "  {:<7} latency: n={:<8} mean={:>9.1}us p50={:>9.1}us p95={:>9.1}us max={:>9.1}us",
                k.name(),
                h.count(),
                h.mean_ns() / 1e3,
                h.quantile_ns(0.50) as f64 / 1e3,
                h.quantile_ns(0.95) as f64 / 1e3,
                h.max_ns() as f64 / 1e3,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn snap(rank: usize, send_ns: u64, wait_ns: u64, comp_ns: u64) -> Snapshot {
        let epoch = Instant::now();
        let mut r = crate::recorder::Recorder::enabled(rank, epoch, 64);
        r.span_at(Phase::Send, epoch, Duration::from_nanos(send_ns));
        r.span_at(Phase::Wait, epoch, Duration::from_nanos(wait_ns));
        r.span_at(Phase::VelocityInterior, epoch, Duration::from_nanos(comp_ns));
        r.count(Counter::MsgsSent, 4);
        r.observe(HistKind::Send, Duration::from_nanos(send_ns));
        r.snapshot()
    }

    #[test]
    fn aggregates_across_ranks() {
        // 4 ranks; rank 3 is a 2x straggler in compute.
        let snaps: Vec<Snapshot> = vec![
            snap(0, 100, 300, 1_000),
            snap(1, 100, 300, 1_000),
            snap(2, 100, 300, 1_000),
            snap(3, 100, 300, 2_000),
        ];
        let rep = TelemetryReport::from_snapshots(&snaps);
        assert_eq!(rep.ranks, 4);
        let v = rep.phase(Phase::VelocityInterior);
        assert_eq!(v.count, 4);
        assert!((v.min_s - 1e-6).abs() < 1e-12);
        assert!((v.max_s - 2e-6).abs() < 1e-12);
        assert!((v.mean_s - 1.25e-6).abs() < 1e-12);
        assert!((v.p95_s - 2e-6).abs() < 1e-12, "p95 nearest-rank hits the straggler");
        // imbalance = 2000 / 1250 = 1.6
        assert!((rep.load_imbalance - 1.6).abs() < 1e-9);
        // hidden comm = 1 - wait/(send+wait+inject) = 1 - 1200/1600 = 0.25
        assert!((rep.hidden_comm_fraction - 0.25).abs() < 1e-9);
        assert_eq!(rep.counter(Counter::MsgsSent), 16);
        assert_eq!(rep.hist(HistKind::Send).count(), 4);
    }

    #[test]
    fn empty_is_well_defined() {
        let rep = TelemetryReport::from_snapshots(&[]);
        assert_eq!(rep.ranks, 0);
        assert_eq!(rep.load_imbalance, 0.0);
        assert_eq!(rep.hidden_comm_fraction, 0.0);
        let text = format!("{rep}");
        assert!(text.contains("load imbalance"));
    }

    #[test]
    fn lts_cluster_table_aggregates_and_prints() {
        use crate::recorder::LtsClusterStat;
        let epoch = Instant::now();
        let mk = |rank: usize| {
            let mut r = crate::recorder::Recorder::enabled(rank, epoch, 16);
            r.span_at(Phase::VelocityInterior, epoch, Duration::from_nanos(100));
            r.set_lts_stats(vec![
                LtsClusterStat { cluster: 0, rate: 1, planes: 8, fires: 32, ns: 3_000 },
                LtsClusterStat { cluster: 1, rate: 4, planes: 24, fires: 8, ns: 1_000 },
            ]);
            r.snapshot()
        };
        let rep = TelemetryReport::from_snapshots(&[mk(0), mk(1)]);
        assert_eq!(rep.lts.len(), 2);
        assert_eq!(rep.lts[0].substeps, 64, "substeps sum across ranks");
        assert_eq!(rep.lts[1].substeps, 16);
        assert_eq!((rep.lts[0].rate, rep.lts[1].rate), (1, 4));
        assert!((rep.lts[0].time_share - 0.75).abs() < 1e-12);
        assert!((rep.lts[1].time_share - 0.25).abs() < 1e-12);
        let text = format!("{rep}");
        assert!(text.contains("dt-clusters"), "{text}");
        assert!(text.contains("substeps"), "{text}");
    }

    #[test]
    fn display_contains_headline_metrics() {
        let snaps = vec![snap(0, 10, 10, 100), snap(1, 10, 10, 100)];
        let rep = TelemetryReport::from_snapshots(&snaps);
        let text = format!("{rep}");
        assert!(text.contains("velocity_interior"));
        assert!(text.contains("load imbalance"));
        assert!(text.contains("hidden-comm fraction"));
        assert!(text.contains("send    latency"));
    }
}
