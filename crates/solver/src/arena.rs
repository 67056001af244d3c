//! Staging arena for the zero-copy halo pipeline.
//!
//! The asynchronous exchange used to clone every outgoing face slab into a
//! fresh `Vec` per send and build a scratch request vector per completion —
//! two heap allocations per message per step. The arena replaces both with
//! pools of reusable buffers:
//!
//! * **face buffers** — `take_buf`/`put_buf` recycle the `Vec<f32>` slabs.
//!   A sent buffer moves into the mailbox (`Payload::F32` wraps the
//!   allocation, no copy) and the *receiver* pools it after injection, so
//!   buffers migrate between ranks' arenas. Per step each rank sends and
//!   receives the same number of slabs (halo links are symmetric), so every
//!   pool stays balanced and — once each pooled buffer has grown to the
//!   largest face it has carried — steady state performs zero allocations.
//! * **request lists** — `take_reqs`/`put_reqs` recycle the
//!   `Vec<PendingRecv>` that tracks the started exchanges of one cluster
//!   phase (every slab of the overlap pipeline appends to the one list).
//!
//! The `allocations` ledger counts every event that had to touch the heap
//! (pool miss or capacity growth). Tests and the bench gate assert it stays
//! flat across steady-state timesteps.

use crate::exchange::PendingRecv;

/// Per-rank pool of reusable exchange buffers with an allocation ledger.
/// Exchange phase timing lives in the telemetry recorder on the rank's
/// `RankCtx` (`Phase::{Send, Wait, Inject}` spans), not here.
#[derive(Debug, Default)]
pub struct HaloArena {
    bufs: Vec<Vec<f32>>,
    req_lists: Vec<Vec<PendingRecv>>,
    /// Capacity of the request list last handed out by `take_reqs`.
    req_cap: usize,
    allocs: u64,
}

impl HaloArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a cleared buffer with capacity ≥ `len_hint`, recording a ledger
    /// event iff the heap was touched (empty pool or no adequate buffer).
    ///
    /// Selection is best-fit rather than LIFO: each step a rank receives
    /// exactly the multiset of slab lengths it must send (halo links are
    /// symmetric), so once the pool is warm a fitting buffer always exists
    /// regardless of the nondeterministic arrival order that shuffles the
    /// pool. The pool holds a few dozen entries at most; the scan is noise
    /// next to the face copy it feeds.
    pub fn take_buf(&mut self, len_hint: usize) -> Vec<f32> {
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.bufs.iter().enumerate() {
            let c = b.capacity();
            if c >= len_hint && best.is_none_or(|(_, bc)| c < bc) {
                best = Some((i, c));
            }
        }
        if let Some((i, _)) = best {
            let mut b = self.bufs.swap_remove(i);
            b.clear();
            return b;
        }
        self.allocs += 1;
        match self.bufs.pop() {
            Some(mut b) => {
                b.clear();
                b.reserve(len_hint);
                b
            }
            None => Vec::with_capacity(len_hint),
        }
    }

    /// Return a buffer to the pool (typically one received from a
    /// neighbour's arena after halo injection).
    pub fn put_buf(&mut self, mut b: Vec<f32>) {
        b.clear();
        self.bufs.push(b);
    }

    /// Take a cleared request list for the exchanges of one cluster phase.
    pub fn take_reqs(&mut self) -> Vec<PendingRecv> {
        let mut v = self.req_lists.pop().unwrap_or_else(|| {
            self.allocs += 1;
            Vec::new()
        });
        v.clear();
        self.req_cap = v.capacity();
        v
    }

    /// Return a request list once its exchanges completed. Capacity growth
    /// since `take_reqs` counts as allocation activity.
    pub fn put_reqs(&mut self, v: Vec<PendingRecv>) {
        self.allocs += u64::from(v.capacity() > self.req_cap);
        self.req_lists.push(v);
    }

    /// Total heap-touching events since construction. Flat across steps ⇔
    /// the exchange path is allocation-free in steady state.
    pub fn allocations(&self) -> u64 {
        self.allocs
    }

    /// Buffers currently parked in the pool.
    pub fn pooled_buffers(&self) -> usize {
        self.bufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuse_does_not_allocate() {
        let mut a = HaloArena::new();
        let b = a.take_buf(128);
        assert_eq!(a.allocations(), 1);
        a.put_buf(b);
        // Same or smaller request: served from the pool, ledger flat.
        let b = a.take_buf(128);
        assert_eq!(a.allocations(), 1);
        a.put_buf(b);
        let b = a.take_buf(16);
        assert_eq!(a.allocations(), 1);
        a.put_buf(b);
        assert_eq!(a.pooled_buffers(), 1);
    }

    #[test]
    fn growth_is_recorded() {
        let mut a = HaloArena::new();
        let b = a.take_buf(8);
        a.put_buf(b);
        let b = a.take_buf(1024);
        assert_eq!(a.allocations(), 2, "capacity growth must hit the ledger");
        assert!(b.capacity() >= 1024);
    }

    #[test]
    fn buffers_come_back_cleared() {
        let mut a = HaloArena::new();
        let mut b = a.take_buf(4);
        b.extend_from_slice(&[1.0, 2.0, 3.0]);
        a.put_buf(b);
        assert!(a.take_buf(4).is_empty());
    }

    #[test]
    fn req_lists_recycle() {
        let mut a = HaloArena::new();
        let r = a.take_reqs();
        let before = a.allocations();
        a.put_reqs(r);
        let _ = a.take_reqs();
        assert_eq!(a.allocations(), before);
    }
}
