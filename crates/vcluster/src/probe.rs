//! Communication probes: round-trip latency (paper Fig. 11) and cascade
//! (chained-dependency) timing, used to contrast the synchronous and
//! asynchronous engines.

use crate::cluster::{Cluster, CommMode};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Simple order statistics over a set of latency samples (seconds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyStats {
    pub samples: usize,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub max: f64,
}

impl LatencyStats {
    pub fn from_samples(mut s: Vec<f64>) -> Self {
        assert!(!s.is_empty(), "no latency samples");
        s.sort_by(|a, b| a.total_cmp(b));
        let n = s.len();
        let pick = |q: f64| s[((q * (n - 1) as f64).round() as usize).min(n - 1)];
        Self {
            samples: n,
            mean: s.iter().sum::<f64>() / n as f64,
            p50: pick(0.5),
            p95: pick(0.95),
            max: *s.last().unwrap(),
        }
    }
}

/// Ping-pong round-trip latency between rank pairs `(2i, 2i+1)`.
///
/// Returns the distribution of per-round-trip times across all pairs and
/// iterations. `payload_len` is the number of f32 values per message.
pub fn ping_pong(mode: CommMode, pairs: usize, iters: usize, payload_len: usize) -> LatencyStats {
    assert!(pairs >= 1 && iters >= 1);
    let n = pairs * 2;
    let cluster = Cluster::new(n, mode);
    let per_rank: Vec<Vec<f64>> = cluster.run(|ctx| {
        let r = ctx.rank();
        let peer = if r % 2 == 0 { r + 1 } else { r - 1 };
        let mut samples = Vec::new();
        for it in 0..iters as u64 {
            if r % 2 == 0 {
                let t0 = Instant::now();
                ctx.send(peer, it * 2, vec![0.0f32; payload_len]);
                let _ = ctx.recv(peer, it * 2 + 1);
                samples.push(t0.elapsed().as_secs_f64());
            } else {
                let p = ctx.recv(peer, it * 2);
                ctx.send(peer, it * 2 + 1, p);
            }
        }
        samples
    });
    LatencyStats::from_samples(per_rank.into_iter().flatten().collect())
}

/// Token cascade through a chain of ranks: rank 0 sends to 1, 1 to 2, …
/// then the token returns directly. Measures end-to-end completion time of
/// a dependency chain of length `n−1`. In synchronous mode every hop
/// inherits the accumulated rendezvous delay of its predecessors — the
/// "latency is accumulated along the path" failure mode of §IV.A.
pub fn cascade(mode: CommMode, n: usize, iters: usize) -> LatencyStats {
    assert!(n >= 2 && iters >= 1);
    let cluster = Cluster::new(n, mode);
    let per_rank: Vec<Vec<f64>> = cluster.run(|ctx| {
        let r = ctx.rank();
        let last = ctx.size() - 1;
        let mut samples = Vec::new();
        for it in 0..iters as u64 {
            if r == 0 {
                let t0 = Instant::now();
                ctx.send(1, it, vec![0.0f32]);
                let _ = ctx.recv(last, it);
                samples.push(t0.elapsed().as_secs_f64());
            } else {
                let p = ctx.recv(r - 1, it);
                if r == last {
                    ctx.send(0, it, p);
                } else {
                    ctx.send(r + 1, it, p);
                }
            }
        }
        samples
    });
    LatencyStats::from_samples(per_rank.into_iter().flatten().collect())
}

/// Exchange-epoch probe: every rank exchanges one message with each
/// neighbour in a ring, as a miniature of the solver's halo epoch. Returns
/// the max per-rank epoch time across `iters` epochs.
pub fn ring_epoch(mode: CommMode, n: usize, iters: usize, payload_len: usize) -> LatencyStats {
    assert!(n >= 2 && iters >= 1);
    let cluster = Cluster::new(n, mode);
    let per_rank: Vec<Vec<f64>> = cluster.run(|ctx| {
        let r = ctx.rank();
        let n = ctx.size();
        let next = (r + 1) % n;
        let prev = (r + n - 1) % n;
        let mut samples = Vec::new();
        for it in 0..iters as u64 {
            let t0 = Instant::now();
            match ctx.mode() {
                CommMode::Asynchronous => {
                    // Post receives, send eagerly, complete in any order.
                    ctx.send(next, it * 2, vec![1.0f32; payload_len]);
                    ctx.send(prev, it * 2 + 1, vec![1.0f32; payload_len]);
                    ctx.wait_each(&[(prev, it * 2), (next, it * 2 + 1)], |&r| r, |_, _| {});
                }
                CommMode::Synchronous => {
                    // Classic ordered exchange; odd/even phasing avoids
                    // deadlock but serialises each phase.
                    if r % 2 == 0 {
                        ctx.send(next, it * 2, vec![1.0f32; payload_len]);
                        let _ = ctx.recv(prev, it * 2);
                        ctx.send(prev, it * 2 + 1, vec![1.0f32; payload_len]);
                        let _ = ctx.recv(next, it * 2 + 1);
                    } else {
                        let _ = ctx.recv(prev, it * 2);
                        ctx.send(next, it * 2, vec![1.0f32; payload_len]);
                        let _ = ctx.recv(next, it * 2 + 1);
                        ctx.send(prev, it * 2 + 1, vec![1.0f32; payload_len]);
                    }
                }
            }
            samples.push(t0.elapsed().as_secs_f64());
        }
        samples
    });
    LatencyStats::from_samples(per_rank.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_order_correctly() {
        let s = LatencyStats::from_samples(vec![3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(s.samples, 5);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.max, 5.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ping_pong_returns_positive_latency() {
        for mode in [CommMode::Asynchronous, CommMode::Synchronous] {
            let s = ping_pong(mode, 2, 20, 16);
            assert_eq!(s.samples, 2 * 20);
            assert!(s.mean > 0.0 && s.mean.is_finite());
        }
    }

    #[test]
    fn cascade_completes_both_modes() {
        for mode in [CommMode::Asynchronous, CommMode::Synchronous] {
            let s = cascade(mode, 5, 10);
            assert_eq!(s.samples, 10);
            assert!(s.mean > 0.0);
        }
    }

    #[test]
    fn ring_epoch_completes_both_modes() {
        for mode in [CommMode::Asynchronous, CommMode::Synchronous] {
            let s = ring_epoch(mode, 4, 10, 64);
            assert_eq!(s.samples, 40);
            assert!(s.max.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "no latency samples")]
    fn empty_samples_rejected() {
        LatencyStats::from_samples(vec![]);
    }
}
