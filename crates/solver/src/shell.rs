//! Index windows of the timestep walk.
//!
//! A rank walks each firing dt-cluster's window ([`Win`]) whole — a
//! full-(i, j) box, so every kernel pass is a contiguous full-row sweep
//! whichever axis the grid is cut along — and then exchanges that
//! window's k-range of its faces once. The halo depth ([`SHELL_WIDTH`])
//! names the cells a face's messages carry; [`halo_feeding_slabs`] lists
//! them for the health sentinel.

use awp_grid::decomp::Subdomain;
use awp_grid::dims::{Dims3, Idx3};
use awp_grid::face::Face;

/// Halo depth of the 4th-order stencil: cells within this distance of a
/// communicating face travel in that face's messages.
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
        let mut cells = 0;
        for r in 0..dec.rank_count() {
            let sub = dec.subdomain(r);
            cells += Win::full(sub.dims).count();
            // Every rank of a 2×2×2 split communicates on three faces.
            assert_eq!(halo_feeding_slabs(&sub).count(), 3);
        }
        assert_eq!(cells, d.count(), "the ranks' windows tile the grid");
    }
}
