//! Seeded schedule perturbation for the virtual cluster.
//!
//! MPI makes few ordering promises beyond per-(source, tag) FIFO, but a
//! test run only ever exercises the schedules the OS scheduler happens to
//! produce. A [`SchedulePlan`] widens that coverage deterministically: it
//! perturbs where an arriving message lands in the destination's
//! unexpected-message queue, how many matching probes skip over it before
//! it becomes eligible, and the order in which a `Waitall` polls its
//! outstanding requests. Every decision is a pure hash of
//! `(seed, rank, src, tag, occurrence)` — never of wall-clock time or poll
//! counts — so a given seed always applies the same perturbation to the
//! same message regardless of thread timing, turning a latent tag-matching
//! or completion-order race into a reproducible single-seed failure.
//!
//! Correctness contract: because every receive in the stack is fully
//! `(src, tag)`-matched, the final state of a run must be bit-exact under
//! *any* plan. The fuzz driver in `awp-verify` replays a workload across
//! seeds and asserts exactly that.

use std::sync::Arc;

/// Fast, well-mixed 64-bit hash (splitmix64 finalizer).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seeded message-schedule perturbation.
///
/// Attach to a cluster with `Cluster::with_schedule`. The plan is shared
/// (read-only) by every mailbox and rank context of the run.
#[derive(Debug)]
pub struct SchedulePlan {
    seed: u64,
    /// Maximum number of matching probes a message may be held back for.
    max_defer: u32,
    /// Maximum insertion distance from the queue tail for a new arrival.
    max_depth: usize,
}

impl SchedulePlan {
    /// A plan that perturbs with the default intensity (hold a message
    /// back for up to 3 matching probes, shuffle arrivals up to 4 slots
    /// forward in the queue).
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(Self { seed, max_defer: 3, max_depth: 4 })
    }

    /// Plan with explicit perturbation bounds.
    pub fn with_bounds(seed: u64, max_defer: u32, max_depth: usize) -> Arc<Self> {
        Arc::new(Self { seed, max_defer, max_depth })
    }

    /// The seed this plan derives every decision from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn mix(&self, salt: u64, a: u64, b: u64, c: u64, d: u64) -> u64 {
        let mut h = splitmix64(self.seed ^ salt);
        h = splitmix64(h ^ a);
        h = splitmix64(h ^ b);
        h = splitmix64(h ^ c);
        splitmix64(h ^ d)
    }

    /// How far forward of the queue tail the `occ`-th (src, tag) arrival
    /// at rank `dst` is inserted. 0 means plain FIFO append.
    pub(crate) fn insert_depth(&self, dst: usize, src: usize, tag: u64, occ: u64) -> usize {
        if self.max_depth == 0 {
            return 0;
        }
        let h = self.mix(0x5EED_0001, dst as u64, src as u64, tag, occ);
        (h % (self.max_depth as u64 + 1)) as usize
    }

    /// How many matching probes skip over that arrival before it becomes
    /// eligible for delivery.
    pub(crate) fn defer_count(&self, dst: usize, src: usize, tag: u64, occ: u64) -> u32 {
        if self.max_defer == 0 {
            return 0;
        }
        let h = self.mix(0x5EED_0002, dst as u64, src as u64, tag, occ);
        (h % (self.max_defer as u64 + 1)) as u32
    }

    /// Polling order for the `call`-th `RankCtx::wait_each` on `rank`
    /// (counted from the start of the pass): a seeded Fisher–Yates
    /// permutation of `0..n`.
    pub fn waitall_perm(&self, rank: usize, call: u64, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let h = self.mix(0x5EED_0003, rank as u64, call, i as u64, 0);
            order.swap(i, (h % (i as u64 + 1)) as usize);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_inputs() {
        let p = SchedulePlan::new(42);
        for _ in 0..3 {
            assert_eq!(p.insert_depth(1, 2, 77, 0), p.insert_depth(1, 2, 77, 0));
            assert_eq!(p.defer_count(1, 2, 77, 5), p.defer_count(1, 2, 77, 5));
            assert_eq!(p.waitall_perm(3, 9, 6), p.waitall_perm(3, 9, 6));
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = SchedulePlan::new(1);
        let b = SchedulePlan::new(2);
        let differs = (0..64).any(|occ| {
            a.insert_depth(0, 1, 3, occ) != b.insert_depth(0, 1, 3, occ)
                || a.defer_count(0, 1, 3, occ) != b.defer_count(0, 1, 3, occ)
        });
        assert!(differs, "two seeds should not produce identical plans");
    }

    #[test]
    fn bounds_are_respected() {
        let p = SchedulePlan::with_bounds(7, 2, 3);
        for occ in 0..256 {
            assert!(p.insert_depth(0, 1, 9, occ) <= 3);
            assert!(p.defer_count(0, 1, 9, occ) <= 2);
        }
        let z = SchedulePlan::with_bounds(7, 0, 0);
        for occ in 0..16 {
            assert_eq!(z.insert_depth(0, 1, 9, occ), 0);
            assert_eq!(z.defer_count(0, 1, 9, occ), 0);
        }
    }

    #[test]
    fn waitall_perm_is_a_permutation() {
        let p = SchedulePlan::new(0xFACE);
        for n in [0usize, 1, 2, 5, 17] {
            let mut perm = p.waitall_perm(2, 11, n);
            perm.sort_unstable();
            assert_eq!(perm, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn perms_vary_across_calls() {
        let p = SchedulePlan::new(0xBEEF);
        let distinct = (0..32).map(|c| p.waitall_perm(0, c, 8)).collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1, "permutation should vary with the call index");
    }
}
