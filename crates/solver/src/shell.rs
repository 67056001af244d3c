//! Shell/interior decomposition of a rank's subdomain (paper §IV.C).
//!
//! The overlap timestep updates the *shell* — the boundary slabs whose
//! cells feed outgoing ghost faces — first, launches every halo send, then
//! updates the *interior* core with the full-strength backend while the
//! messages are in flight. This module precomputes that decomposition as
//! seven disjoint windows (six face slabs + the core) that together cover
//! the local grid exactly once, so the split pass visits the same per-cell
//! update set as the fused pass and stays bit-exact.
//!
//! Slab assembly (widths are the halo depth, 2, on faces with a
//! neighbour, 0 otherwise):
//!
//! * z-lo / z-hi slabs span the full (i, j) plane;
//! * y-lo / y-hi slabs span the full i extent over the remaining k range;
//! * x-lo / x-hi slabs cover the remaining (j, k) core rectangle;
//! * the interior is what is left.
//!
//! Corners are therefore owned by exactly one slab, and every cell within
//! halo depth of a communicating face lies in some shell slab (the face
//! extraction in `exchange::start_exchange_k` reads only such cells).
//!
//! **Free-surface fold rule**: stress imaging at the k = 0 surface reads a
//! column's k ∈ {0, 1, 2} stresses *after* their update but *before* the
//! sponge damps them. The split pass images per window (footprint = the
//! window's (i, j) range, triggered by `k0 == 0`), which is only
//! equivalent to the fused schedule if each imaged column's k ≤ 2 cells
//! live in the window doing the imaging. On surface-owning ranks the z-lo
//! width is 0 (no neighbour below the free surface), so this holds
//! whenever the z-hi slab starts at k ≥ 3; for pathologically thin
//! subdomains (nz − width < 3) the plan folds the whole k range into the
//! z-hi slab — correctness is preserved and only the (degenerate) overlap
//! window is lost.

use awp_grid::decomp::Subdomain;
use awp_grid::dims::{Dims3, Idx3};
use awp_grid::face::Face;

/// Halo depth of the 4th-order stencil: cells within this distance of a
/// communicating face must be final before that face's send starts.
pub const SHELL_WIDTH: usize = 2;

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

/// Precomputed shell/interior decomposition for one rank.
#[derive(Debug, Clone, Copy)]
pub struct ShellPlan {
    /// Disjoint boundary slabs (some may be empty on non-communicating
    /// faces), ordered z-lo, z-hi, y-lo, y-hi, x-lo, x-hi.
    pub shells: [Win; 6],
    /// The core updated while halo messages are in flight.
    pub interior: Win,
}

impl ShellPlan {
    /// Build the plan for a subdomain: width-`SHELL_WIDTH` slabs on faces
    /// with a neighbour. `surface_imaging` is true when this rank applies
    /// the free-surface stress imaging (enables the fold rule above).
    pub fn new(sub: &Subdomain, surface_imaging: bool) -> Self {
        let w = |f: Face| if sub.neighbor(f).is_some() { SHELL_WIDTH } else { 0 };
        Self::from_widths(
            sub.dims,
            [w(Face::XLo), w(Face::XHi), w(Face::YLo), w(Face::YHi), w(Face::ZLo), w(Face::ZHi)],
            surface_imaging,
        )
    }

    /// Build from explicit per-face widths `[x_lo, x_hi, y_lo, y_hi, z_lo,
    /// z_hi]` (exposed for property tests over arbitrary shell shapes).
    pub fn from_widths(d: Dims3, widths: [usize; 6], surface_imaging: bool) -> Self {
        let [wx_lo, wx_hi, wy_lo, wy_hi, wz_lo, wz_hi] = widths;
        let ix0 = wx_lo.min(d.nx);
        let ix1 = d.nx.saturating_sub(wx_hi).max(ix0);
        let jy0 = wy_lo.min(d.ny);
        let jy1 = d.ny.saturating_sub(wy_hi).max(jy0);
        let kz0 = wz_lo.min(d.nz);
        let mut kz1 = d.nz.saturating_sub(wz_hi).max(kz0);
        // Free-surface fold rule: keep every imaged column's k ≤ 2 cells
        // inside the window that images it (see module docs).
        if surface_imaging && wz_hi > 0 && kz1 < 3 {
            kz1 = kz0;
        }
        let shells = [
            // z-lo / z-hi: full (i, j) plane.
            Win { i0: 0, i1: d.nx, j0: 0, j1: d.ny, k0: 0, k1: kz0 },
            Win { i0: 0, i1: d.nx, j0: 0, j1: d.ny, k0: kz1, k1: d.nz },
            // y-lo / y-hi: full i over the remaining k range.
            Win { i0: 0, i1: d.nx, j0: 0, j1: jy0, k0: kz0, k1: kz1 },
            Win { i0: 0, i1: d.nx, j0: jy1, j1: d.ny, k0: kz0, k1: kz1 },
            // x-lo / x-hi: the remaining (j, k) core rectangle.
            Win { i0: 0, i1: ix0, j0: jy0, j1: jy1, k0: kz0, k1: kz1 },
            Win { i0: ix1, i1: d.nx, j0: jy0, j1: jy1, k0: kz0, k1: kz1 },
        ];
        let interior = Win { i0: ix0, i1: ix1, j0: jy0, j1: jy1, k0: kz0, k1: kz1 };
        ShellPlan { shells, interior }
    }

    /// Cells in the shell slabs (diagnostics: the work done before the
    /// sends go out).
    pub fn shell_cells(&self) -> usize {
        self.shells.iter().map(Win::count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awp_grid::decomp::Decomp3;

    fn assert_exact_cover(d: Dims3, plan: &ShellPlan) {
        let mut seen = vec![0u8; d.nx * d.ny * d.nz];
        let mut mark = |w: &Win| {
            if w.is_empty() {
                return;
            }
            for k in w.k0..w.k1 {
                for j in w.j0..w.j1 {
                    for i in w.i0..w.i1 {
                        assert!(i < d.nx && j < d.ny && k < d.nz, "window exceeds grid");
                        seen[i + d.nx * (j + d.ny * k)] += 1;
                    }
                }
            }
        };
        for w in &plan.shells {
            mark(w);
        }
        mark(&plan.interior);
        assert!(
            seen.iter().all(|&c| c == 1),
            "shell+interior must cover every cell exactly once ({d:?})"
        );
    }

    #[test]
    fn covers_exactly_once_across_shapes_and_widths() {
        let dims = [
            Dims3::new(16, 12, 10),
            Dims3::new(13, 11, 9),
            Dims3::new(8, 8, 8),
            Dims3::new(7, 5, 4),
            Dims3::new(5, 3, 3),
            Dims3::new(3, 2, 2),
            Dims3::new(9, 1, 1),
            Dims3::new(33, 4, 3),
        ];
        let widths = [
            [2, 2, 2, 2, 2, 2],
            [0, 0, 0, 0, 0, 0],
            [2, 0, 0, 2, 0, 2],
            [0, 2, 2, 0, 2, 0],
            [2, 2, 0, 0, 0, 2],
        ];
        for d in dims {
            for w in widths {
                for surface in [false, true] {
                    assert_exact_cover(d, &ShellPlan::from_widths(d, w, surface));
                }
            }
        }
    }

    #[test]
    fn shell_contains_all_halo_feeding_cells() {
        // Every cell within SHELL_WIDTH of a communicating face must be in
        // some shell slab (it may be extracted into an outgoing message).
        let d = Dims3::new(10, 9, 8);
        let w = [2, 2, 0, 2, 0, 2];
        let plan = ShellPlan::from_widths(d, w, false);
        for k in 0..d.nz {
            for j in 0..d.ny {
                for i in 0..d.nx {
                    let near = (w[0] > 0 && i < w[0])
                        || (w[1] > 0 && i >= d.nx - w[1])
                        || (w[2] > 0 && j < w[2])
                        || (w[3] > 0 && j >= d.ny - w[3])
                        || (w[4] > 0 && k < w[4])
                        || (w[5] > 0 && k >= d.nz - w[5]);
                    let idx = Idx3::new(i, j, k);
                    let in_shell = plan.shells.iter().any(|s| s.contains(idx));
                    if near {
                        assert!(in_shell, "halo-feeding cell {idx:?} not in shell");
                        assert!(!plan.interior.contains(idx));
                    }
                }
            }
        }
    }

    #[test]
    fn surface_fold_keeps_imaged_columns_whole() {
        // Thin subdomain with a bottom neighbour: the z-hi slab would start
        // at k < 3, so the plan folds the full column into it.
        let d = Dims3::new(8, 8, 4);
        let plan = ShellPlan::from_widths(d, [2, 2, 2, 2, 0, 2], true);
        assert_exact_cover(d, &plan);
        for w in plan.shells.iter().chain(std::iter::once(&plan.interior)) {
            if !w.is_empty() && w.k0 == 0 {
                assert!(w.k1 >= 3.min(d.nz), "imaging window truncates its columns: {w:?}");
            }
        }
    }

    #[test]
    fn serial_subdomain_is_all_interior() {
        let d = Dims3::new(12, 10, 8);
        let sub = Decomp3::new(d, [1, 1, 1]).subdomain(0);
        let plan = ShellPlan::new(&sub, true);
        assert_eq!(plan.shell_cells(), 0);
        assert_eq!(plan.interior, Win::full(d));
    }

    #[test]
    fn decomposed_subdomains_cover_and_split() {
        let d = Dims3::new(16, 14, 12);
        let dec = Decomp3::new(d, [2, 2, 2]);
        for r in 0..dec.rank_count() {
            let sub = dec.subdomain(r);
            let plan = ShellPlan::new(&sub, sub.on_boundary(Face::ZLo));
            assert_exact_cover(sub.dims, &plan);
            // Every rank in a 2×2×2 split communicates on three faces.
            assert!(plan.shell_cells() > 0);
            assert!(plan.interior.count() > 0);
        }
    }
}
