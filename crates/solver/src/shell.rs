//! Index windows and the k-slab pipeline of the overlap timestep (paper
//! §IV.C).
//!
//! "While the value of v is computed, the exchange of u can be performed
//! simultaneously": with overlap on, a rank walks each firing cluster's
//! window as a short list of **k-slabs** — full-(i, j) boxes, so every
//! kernel pass stays a contiguous full-row sweep whichever axis the grid
//! is cut along — and after each slab posts that slab's k-range of every
//! x/y face. Slab *s*'s messages fly while slabs *s+1…* compute, and one
//! completion at the end of the phase drains them all. The velocity pass
//! reads only stresses and the stress pass only velocities, so per-cell
//! updates are window-order invariant and the walk is bit-exact against
//! the fused single-window pass.
//!
//! The slab rule ([`k_slabs`]) is fixed, not an option: at most
//! [`MAX_SLABS`] slabs (the tag's step field carries the slab index in 2
//! bits), none thinner than [`MIN_SLAB_PLANES`] planes. A slab holding
//! k = 0 therefore holds k ≤ 2 as well, which the free-surface stress
//! imaging needs: it reads a column's k ∈ {0, 1, 2} stresses after their
//! update and before the sponge damps them, and images per window
//! (triggered by `k0 == 0`). The halo depth ([`SHELL_WIDTH`]) fits any
//! slab too, so the z-lo face is final after the first slab and the z-hi
//! face after the last. Windows under twice the minimum stay whole.

use awp_grid::decomp::Subdomain;
use awp_grid::dims::{Dims3, Idx3};
use awp_grid::face::Face;

/// Halo depth of the 4th-order stencil: cells within this distance of a
/// communicating face travel in that face's messages.
pub const SHELL_WIDTH: usize = 2;

/// Most slabs one cluster window is walked as.
pub const MAX_SLABS: usize = 4;

/// Thinnest slab the rule cuts (planes).
pub const MIN_SLAB_PLANES: usize = 4;

/// A half-open index window `[i0, i1) × [j0, j1) × [k0, k1)` in local
/// (unpadded) coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Win {
    pub i0: usize,
    pub i1: usize,
    pub j0: usize,
    pub j1: usize,
    pub k0: usize,
    pub k1: usize,
}

impl Win {
    /// The window covering the whole local grid.
    pub fn full(d: Dims3) -> Self {
        Win { i0: 0, i1: d.nx, j0: 0, j1: d.ny, k0: 0, k1: d.nz }
    }

    pub fn is_empty(&self) -> bool {
        self.i0 >= self.i1 || self.j0 >= self.j1 || self.k0 >= self.k1
    }

    pub fn count(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            (self.i1 - self.i0) * (self.j1 - self.j0) * (self.k1 - self.k0)
        }
    }

    /// The cells in both windows (may come out empty).
    pub fn intersect(&self, o: Win) -> Win {
        Win {
            i0: self.i0.max(o.i0),
            i1: self.i1.min(o.i1),
            j0: self.j0.max(o.j0),
            j1: self.j1.min(o.j1),
            k0: self.k0.max(o.k0),
            k1: self.k1.min(o.k1),
        }
    }

    pub fn contains(&self, idx: Idx3) -> bool {
        (self.i0..self.i1).contains(&idx.i)
            && (self.j0..self.j1).contains(&idx.j)
            && (self.k0..self.k1).contains(&idx.k)
    }
}

/// Cut `win` into its pipeline slabs: `(planes / MIN_SLAB_PLANES)` clamped
/// to `1..=MAX_SLABS` near-equal k-ranges, top first. A function of the
/// k-range alone, so x/y neighbours — which share it — cut identically
/// and each slab's message meets a receive of the same shape. (A rank
/// alone on its grid has nothing to overlap and walks `win` whole.)
pub fn k_slabs(win: Win) -> Vec<Win> {
    let n = win.k1 - win.k0;
    let s = (n / MIN_SLAB_PLANES).clamp(1, MAX_SLABS);
    (0..s).map(|t| Win { k0: win.k0 + n * t / s, k1: win.k0 + n * (t + 1) / s, ..win }).collect()
}

/// The cells within halo depth of each communicating face of `sub`: one
/// slab per such face, spanning the other two axes (slabs of different
/// faces overlap along the edges). Every value that leaves the rank comes
/// from one of them.
pub fn halo_feeding_slabs(sub: &Subdomain) -> impl Iterator<Item = Win> + '_ {
    let d = sub.dims;
    Face::ALL.into_iter().filter(|&f| sub.neighbor(f).is_some()).map(move |f| {
        let mut w = Win::full(d);
        match f {
            Face::XLo => w.i1 = SHELL_WIDTH.min(d.nx),
            Face::XHi => w.i0 = d.nx.saturating_sub(SHELL_WIDTH),
            Face::YLo => w.j1 = SHELL_WIDTH.min(d.ny),
            Face::YHi => w.j0 = d.ny.saturating_sub(SHELL_WIDTH),
            Face::ZLo => w.k1 = SHELL_WIDTH.min(d.nz),
            Face::ZHi => w.k0 = d.nz.saturating_sub(SHELL_WIDTH),
        }
        w
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use awp_grid::decomp::Decomp3;

    fn assert_exact_cover(within: Win, wins: &[Win]) {
        let d = Dims3::new(within.i1, within.j1, within.k1);
        let mut seen = vec![0u8; d.count()];
        for w in wins {
            assert!(!w.is_empty(), "empty window {w:?}");
            for k in w.k0..w.k1 {
                for j in w.j0..w.j1 {
                    for i in w.i0..w.i1 {
                        assert!(within.contains(Idx3::new(i, j, k)), "{w:?} leaves {within:?}");
                        seen[i + d.nx * (j + d.ny * k)] += 1;
                    }
                }
            }
        }
        let covered = seen.iter().map(|&c| c as usize).sum::<usize>();
        assert!(seen.iter().all(|&c| c <= 1) && covered == within.count(), "{within:?}: {wins:?}");
    }

    #[test]
    fn slabs_cover_exactly_once_across_shapes_and_ranges() {
        // The rule reads the k-range only; two footprints are plenty.
        for d in [Dims3::new(33, 4, 21), Dims3::new(3, 1, 64)] {
            // The whole grid and every LTS-style cluster range inside it.
            for k0 in 0..d.nz {
                for k1 in k0 + 1..=d.nz {
                    let win = Win { k0, k1, ..Win::full(d) };
                    let slabs = k_slabs(win);
                    assert_exact_cover(win, &slabs);
                    let n = k1 - k0;
                    assert_eq!(slabs.len(), (n / MIN_SLAB_PLANES).clamp(1, MAX_SLABS), "{win:?}");
                    for (s, w) in slabs.iter().enumerate() {
                        assert_eq!((w.i0, w.i1, w.j0, w.j1), (0, d.nx, 0, d.ny), "full rows");
                        assert!(w.k1 - w.k0 >= MIN_SLAB_PLANES.min(n), "thin {w:?} of {win:?}");
                        assert_eq!(w.k0, if s == 0 { k0 } else { slabs[s - 1].k1 }, "top first");
                    }
                }
            }
        }
    }

    #[test]
    fn surface_slab_keeps_imaged_columns_whole() {
        // The slab that images the free surface (k0 = 0) must hold every
        // k ≤ 2 plane of its columns, and the z-hi face (last two planes)
        // must not reach back into an earlier slab.
        for nz in 1..40 {
            let d = Dims3::new(8, 8, nz);
            let slabs = k_slabs(Win::full(d));
            assert!(slabs[0].k1 >= 3.min(nz), "nz {nz}: imaging window truncates its columns");
            let last = slabs.last().unwrap();
            assert!(last.k1 - last.k0 >= SHELL_WIDTH.min(nz), "nz {nz}: z-hi face spans slabs");
        }
        // The degenerate heights the overlap suite runs.
        let count = |nz| k_slabs(Win::full(Dims3::new(8, 8, nz))).len();
        assert_eq!([count(4), count(5), count(7), count(9), count(21)], [1, 1, 1, 2, 4]);
    }

    #[test]
    fn shell_contains_all_halo_feeding_cells() {
        // A cell is in some face slab iff it lies within SHELL_WIDTH of a
        // communicating face (it may be extracted into an outgoing message).
        let d = Dims3::new(10, 9, 8);
        let dec = Decomp3::new(Dims3::new(30, 18, 8), [3, 2, 1]);
        for r in 0..dec.rank_count() {
            let sub = dec.subdomain(r);
            assert_eq!(sub.dims, d);
            let has = |f| sub.neighbor(f).is_some();
            let slabs: Vec<Win> = halo_feeding_slabs(&sub).collect();
            for k in 0..d.nz {
                for j in 0..d.ny {
                    for i in 0..d.nx {
                        let near = (has(Face::XLo) && i < SHELL_WIDTH)
                            || (has(Face::XHi) && i >= d.nx - SHELL_WIDTH)
                            || (has(Face::YLo) && j < SHELL_WIDTH)
                            || (has(Face::YHi) && j >= d.ny - SHELL_WIDTH)
                            || (has(Face::ZLo) && k < SHELL_WIDTH)
                            || (has(Face::ZHi) && k >= d.nz - SHELL_WIDTH);
                        let idx = Idx3::new(i, j, k);
                        assert_eq!(slabs.iter().any(|s| s.contains(idx)), near, "rank {r} {idx:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn serial_subdomain_is_all_interior() {
        let sub = Decomp3::new(Dims3::new(12, 10, 32), [1, 1, 1]).subdomain(0);
        assert_eq!(halo_feeding_slabs(&sub).count(), 0);
    }

    #[test]
    fn decomposed_subdomains_cover_and_split() {
        let d = Dims3::new(16, 14, 24);
        let dec = Decomp3::new(d, [2, 2, 2]);
        for r in 0..dec.rank_count() {
            let sub = dec.subdomain(r);
            let slabs = k_slabs(Win::full(sub.dims));
            assert_exact_cover(Win::full(sub.dims), &slabs);
            // 12 planes per rank: three slabs to pipeline, and every rank
            // of a 2×2×2 split communicates on three faces.
            assert_eq!(slabs.len(), 3);
            assert_eq!(halo_feeding_slabs(&sub).count(), 3);
        }
    }
}
