//! Cache blocking of the (k, j) loop nest (paper §IV.B).
//!
//! The AWP-ODC kernels stream unit-stride along x; the j−1 and k−1 planes
//! fall out of cache between iterations for any reasonably sized grid. The
//! paper forms memory blocks over the k and j loops (`kblock`/`jblock`,
//! empirically 16/8 for loop length ~125) so operands from adjacent planes
//! are still resident when revisited.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Block sizes for the k (outer) and j (middle) loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockSpec {
    pub kblock: usize,
    pub jblock: usize,
}

impl BlockSpec {
    /// The paper's empirically optimal choice on Jaguar (§IV.B: "For a
    /// typical loop length of 125, the optimal solution was found to be
    /// 16/8").
    pub const JAGUAR: BlockSpec = BlockSpec { kblock: 16, jblock: 8 };

    /// No blocking: a single block spans the whole loop.
    pub const UNBLOCKED: BlockSpec = BlockSpec {
        kblock: usize::MAX,
        jblock: usize::MAX,
    };

    pub fn new(kblock: usize, jblock: usize) -> Self {
        assert!(kblock > 0 && jblock > 0, "block sizes must be positive");
        Self { kblock, jblock }
    }
}

/// Tile the rectangle `0..nj` × `0..nk` into (j-range, k-range) blocks,
/// ordered k-block outermost, mirroring the paper's
/// `do kk / do jj / do k / do j` restructuring.
pub fn blocked_tiles(nj: usize, nk: usize, spec: BlockSpec) -> Vec<(Range<usize>, Range<usize>)> {
    blocked_tiles_range(0, nj, 0, nk, spec).collect()
}

/// `lo..hi` cut into consecutive ranges of at most `b` (≥ 1) indices.
fn blocks(lo: usize, hi: usize, b: usize) -> impl Iterator<Item = Range<usize>> + Clone {
    (lo..hi).step_by(b).map(move |s| s..s.saturating_add(b).min(hi))
}

/// Run `body(j, k)` over every (j, k) pair in blocked order.
#[inline]
pub fn for_each_blocked(nj: usize, nk: usize, spec: BlockSpec, body: impl FnMut(usize, usize)) {
    for_each_blocked_range(0, nj, 0, nk, spec, body)
}

/// Tile an arbitrary sub-rectangle `j0..j1` × `k0..k1` into (j-range,
/// k-range) blocks, k-block outermost. The windowed analogue of
/// [`blocked_tiles`] used by the shell/interior split timestep: blocks are
/// anchored at the window origin, so the per-cell visit set is exactly the
/// window regardless of spec (per-cell updates are order-independent).
pub fn blocked_tiles_range(
    j0: usize,
    j1: usize,
    k0: usize,
    k1: usize,
    spec: BlockSpec,
) -> impl Iterator<Item = (Range<usize>, Range<usize>)> {
    let (kb, jb) = (spec.kblock.max(1), spec.jblock.max(1));
    blocks(k0, k1, kb).flat_map(move |kr| blocks(j0, j1, jb).map(move |jr| (jr, kr.clone())))
}

/// Run `body(j, k)` over every (j, k) pair of a sub-rectangle in blocked
/// order.
#[inline]
pub fn for_each_blocked_range(
    j0: usize,
    j1: usize,
    k0: usize,
    k1: usize,
    spec: BlockSpec,
    mut body: impl FnMut(usize, usize),
) {
    for (jr, kr) in blocked_tiles_range(j0, j1, k0, k1, spec) {
        for k in kr {
            for j in jr.clone() {
                body(j, k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn tiles_cover_exactly_once() {
        for (nj, nk, spec) in [
            (10, 10, BlockSpec::new(3, 4)),
            (125, 125, BlockSpec::JAGUAR),
            (7, 1, BlockSpec::new(16, 8)),
            (5, 5, BlockSpec::UNBLOCKED),
        ] {
            let mut seen = HashSet::new();
            for_each_blocked(nj, nk, spec, |j, k| {
                assert!(j < nj && k < nk);
                assert!(seen.insert((j, k)), "({j},{k}) visited twice");
            });
            assert_eq!(seen.len(), nj * nk);
        }
    }

    #[test]
    fn unblocked_is_single_tile() {
        let tiles = blocked_tiles(9, 4, BlockSpec::UNBLOCKED);
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0], (0..9, 0..4));
    }

    #[test]
    fn jaguar_tiles_have_requested_shape() {
        let tiles = blocked_tiles(125, 125, BlockSpec::JAGUAR);
        // Full interior tiles are 8 (j) by 16 (k).
        let (jr, kr) = &tiles[0];
        assert_eq!(jr.len(), 8);
        assert_eq!(kr.len(), 16);
        // 125 = 15*8 + 5 → 16 j-blocks; 125 = 7*16 + 13 → 8 k-blocks.
        assert_eq!(tiles.len(), 16 * 8);
    }

    #[test]
    fn k_is_outermost() {
        let tiles = blocked_tiles(4, 4, BlockSpec::new(2, 2));
        // First two tiles share the first k block.
        assert_eq!(tiles[0].1, 0..2);
        assert_eq!(tiles[1].1, 0..2);
        assert_eq!(tiles[2].1, 2..4);
    }

    #[test]
    #[should_panic(expected = "block sizes must be positive")]
    fn zero_block_rejected() {
        BlockSpec::new(0, 8);
    }

    /// Degenerate specs the SIMD loops now sit on top of: `usize::MAX`
    /// blocks (UNBLOCKED and half-unblocked), single-cell blocks, and
    /// blocks larger than the loop length must all tile exactly once
    /// without overflowing.
    #[test]
    fn degenerate_specs_cover_exactly_once() {
        for (nj, nk, spec) in [
            (7, 5, BlockSpec { kblock: usize::MAX, jblock: usize::MAX }),
            (7, 5, BlockSpec { kblock: usize::MAX, jblock: 2 }),
            (7, 5, BlockSpec { kblock: 2, jblock: usize::MAX }),
            (7, 5, BlockSpec::new(1, 1)),
            (7, 5, BlockSpec::new(100, 100)),
            (1, 1, BlockSpec::new(1, 1)),
            (1, 1, BlockSpec::UNBLOCKED),
        ] {
            let mut seen = HashSet::new();
            for_each_blocked(nj, nk, spec, |j, k| {
                assert!(j < nj && k < nk, "({j},{k}) out of range for {spec:?}");
                assert!(seen.insert((j, k)), "({j},{k}) visited twice for {spec:?}");
            });
            assert_eq!(seen.len(), nj * nk, "{spec:?}");
        }
    }

    #[test]
    fn oversized_block_is_single_tile() {
        // kblock/jblock beyond the loop length clamp to one tile, exactly
        // like UNBLOCKED.
        let tiles = blocked_tiles(6, 3, BlockSpec::new(50, 50));
        assert_eq!(tiles, blocked_tiles(6, 3, BlockSpec::UNBLOCKED));
    }

    #[test]
    fn unit_blocks_enumerate_every_cell() {
        let tiles = blocked_tiles(3, 2, BlockSpec::new(1, 1));
        assert_eq!(tiles.len(), 6);
        for (jr, kr) in &tiles {
            assert_eq!(jr.len(), 1);
            assert_eq!(kr.len(), 1);
        }
    }

    #[test]
    fn empty_loop_produces_no_tiles() {
        assert!(blocked_tiles(0, 4, BlockSpec::JAGUAR).is_empty());
        assert!(blocked_tiles(4, 0, BlockSpec::JAGUAR).is_empty());
    }

    #[test]
    fn range_tiles_cover_window_exactly_once() {
        for (j0, j1, k0, k1, spec) in [
            (0, 10, 0, 10, BlockSpec::new(3, 4)),
            (2, 9, 5, 17, BlockSpec::JAGUAR),
            (3, 4, 0, 25, BlockSpec::new(16, 8)),
            (1, 6, 2, 3, BlockSpec::UNBLOCKED),
            (4, 4, 0, 9, BlockSpec::JAGUAR), // empty j window
            (0, 9, 7, 7, BlockSpec::JAGUAR), // empty k window
        ] {
            let mut seen = HashSet::new();
            for_each_blocked_range(j0, j1, k0, k1, spec, |j, k| {
                assert!((j0..j1).contains(&j) && (k0..k1).contains(&k));
                assert!(seen.insert((j, k)), "({j},{k}) visited twice");
            });
            assert_eq!(seen.len(), (j1 - j0) * (k1 - k0));
        }
    }

    #[test]
    fn full_range_matches_blocked_tiles() {
        assert_eq!(
            blocked_tiles_range(0, 125, 0, 125, BlockSpec::JAGUAR).collect::<Vec<_>>(),
            blocked_tiles(125, 125, BlockSpec::JAGUAR)
        );
    }
}
