//! Rank-state storage: the one allocation path of every per-cell `f32`
//! buffer a rank state holds (wavefields, memory variables, media, M-PML ψ).
//!
//! Two decisions live here, and they ship together:
//!
//! * **Reuse.** Buffers come from one process-wide free list and go back to
//!   it on drop, so a process that solves again (a benchmark rep, an
//!   ensemble worker's next scenario) touches memory that is already
//!   mapped instead of faulting in freshly zeroed pages. A recycled buffer
//!   is zero-filled before it is handed out. A request takes the oldest
//!   block of exactly its size: a rank state drops its arrays in the order
//!   it built them, so the next state of the same shape gets the same
//!   blocks in the same slots. The list never holds more bytes than the
//!   process had live at its peak; on overflow it evicts the oldest block
//!   first.
//! * **Placement.** Each block is over-allocated by one page, and the
//!   buffer's data starts at page offset `(slot × STAGGER) mod 4096`, where
//!   `slot` counts the buffers built on this thread since the last
//!   [`restart_slots`]. The solver restarts the count at the start of every
//!   rank state, so each state lays its arrays out the same way on every
//!   thread and in every solve, whatever address the allocator returned.
//!   Arrays at one common page offset alias in the L1 sets and in the
//!   load/store 4 KiB-alias check of the stencil's dozen streams; staggered
//!   ones do not.
//!
//! Reuse alone would freeze every later solve in whatever layout the first
//! one got; placement alone would still re-fault every page of every solve.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, PoisonError};

/// Bytes per page: the period of the placement rule.
pub const PAGE: usize = 4096;

/// Page-offset step between consecutive slots: 39 cache lines. 39 is odd,
/// so slots 0–63 start on 64 distinct cache lines of the page, and
/// 39/64 ≈ 0.61 (the golden section) puts consecutive slots far apart.
const STAGGER: usize = 39 * 64;

const PAD: usize = PAGE / std::mem::size_of::<f32>();

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(0) };
}

/// Start a new rank state on this thread: the next buffer built here takes
/// slot 0.
pub fn restart_slots() {
    SLOT.with(|s| s.set(0));
}

/// The page offset slot `slot`'s data starts at.
fn page_offset(slot: usize) -> usize {
    slot * STAGGER % PAGE
}

/// Recycled blocks, oldest first, and the byte counts that bound them.
struct FreeList {
    blocks: VecDeque<Box<[f32]>>,
    pooled: usize,
    live: usize,
    peak: usize,
}

/// Every update leaves `blocks` valid (a block is either in it or owned by
/// one buffer), so a guard poisoned by a panicking thread is still usable.
static FREE: Mutex<FreeList> =
    Mutex::new(FreeList { blocks: VecDeque::new(), pooled: 0, live: 0, peak: 0 });

fn bytes(floats: usize) -> usize {
    floats * std::mem::size_of::<f32>()
}

/// A zero-initialised `f32` buffer of fixed length from the rank-state
/// free list, starting at its slot's page offset (see the module docs).
///
/// Derefs to its data without a range check: the per-cell accessors of
/// [`Array3`](crate::Array3) go through it, and a checked sub-slice there
/// slowed `shakeout-workflow` by ~4 % (EXPERIMENTS.md row **RCY**).
pub struct CellBuf {
    block: Box<[f32]>,
    start: usize,
    len: usize,
}

impl CellBuf {
    /// `len` zeros, in the next slot of this thread's rank state.
    pub fn zeroed(len: usize) -> Self {
        let need = len + PAD;
        let slot = SLOT.with(|s| s.replace(s.get() + 1));
        let recycled = {
            let mut f = FREE.lock().unwrap_or_else(PoisonError::into_inner);
            f.live += bytes(need);
            f.peak = f.peak.max(f.live);
            let hit = f.blocks.iter().position(|b| b.len() == need);
            let block = hit.and_then(|n| f.blocks.remove(n));
            if block.is_some() {
                f.pooled -= bytes(need);
            }
            block
        };
        let fresh = recycled.is_none();
        let block = recycled.unwrap_or_else(|| vec![0.0; need].into_boxed_slice());
        // `block` is f32-aligned and the target offset a multiple of 64, so
        // the distance is a whole number of f32 below one page.
        let addr = block.as_ptr() as usize % PAGE;
        let start = (page_offset(slot) + PAGE - addr) % PAGE / std::mem::size_of::<f32>();
        assert!(start + len <= block.len(), "the data must fit its block");
        let mut buf = Self { block, start, len };
        if !fresh {
            buf.fill(0.0);
        }
        buf
    }
}

impl Drop for CellBuf {
    fn drop(&mut self) {
        let block = std::mem::take(&mut self.block);
        let mut f = FREE.lock().unwrap_or_else(PoisonError::into_inner);
        f.live -= bytes(block.len());
        f.pooled += bytes(block.len());
        f.blocks.push_back(block);
        while f.pooled > f.peak {
            let Some(old) = f.blocks.pop_front() else { break };
            f.pooled -= bytes(old.len());
        }
    }
}

impl Deref for CellBuf {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        // SAFETY: `zeroed` asserted `start + len <= block.len()`, and no
        // method changes `block`, `start` or `len` afterwards.
        unsafe { std::slice::from_raw_parts(self.block.as_ptr().add(self.start), self.len) }
    }
}

impl DerefMut for CellBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        // SAFETY: as in `deref`; `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.block.as_mut_ptr().add(self.start), self.len) }
    }
}

impl Clone for CellBuf {
    fn clone(&self) -> Self {
        let mut c = Self::zeroed(self.len);
        c.copy_from_slice(self);
        c
    }
}

impl PartialEq for CellBuf {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for CellBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes the free list holds and the process's peak of live buffer
    /// bytes, read together.
    fn pool_stats() -> (usize, usize) {
        let f = FREE.lock().unwrap_or_else(PoisonError::into_inner);
        (f.pooled, f.peak)
    }

    fn offset_of(b: &CellBuf) -> usize {
        b.as_ptr() as usize % PAGE
    }

    #[test]
    fn recycled_buffers_come_back_zeroed_at_their_slot_offset() {
        restart_slots();
        let mut a = CellBuf::zeroed(4999);
        a.fill(-1.5);
        let block = a.block.as_ptr();
        drop(a);
        restart_slots();
        let _first = CellBuf::zeroed(7);
        let b = CellBuf::zeroed(4999);
        assert_eq!(b.block.as_ptr(), block, "the freed block was not recycled");
        assert_eq!(b.len(), 4999);
        assert!(b.iter().all(|v| v.to_bits() == 0), "a recycled buffer carried state");
        assert_eq!(offset_of(&b), page_offset(1));
    }

    #[test]
    fn slots_take_distinct_cache_lines_of_the_page() {
        let offsets: Vec<usize> = (0..64).map(page_offset).collect();
        assert!(offsets.iter().all(|o| o % 64 == 0));
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "{offsets:?}");
        restart_slots();
        let bufs: Vec<CellBuf> = (0..64).map(|n| CellBuf::zeroed(100 + 37 * n)).collect();
        for (n, b) in bufs.iter().enumerate() {
            assert_eq!(offset_of(b), page_offset(n));
        }
    }

    #[test]
    fn the_free_list_never_holds_more_than_the_live_peak() {
        for round in 0..6 {
            let bufs: Vec<CellBuf> = (0..40)
                .map(|n| CellBuf::zeroed(1 + (n * 7919 + round * 104_729) % 300_000))
                .collect();
            for b in bufs.into_iter().rev() {
                drop(b);
                let (pooled, peak) = pool_stats();
                assert!(pooled <= peak, "pooled {pooled} B above the live peak {peak} B");
            }
        }
    }

    #[test]
    fn clones_and_equality_read_the_data() {
        let mut a = CellBuf::zeroed(10);
        a[3] = 2.0;
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(format!("{b:?}"), format!("{:?}", b.to_vec()));
    }
}
