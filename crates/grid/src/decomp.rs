//! Balanced 3-D domain decomposition (paper Fig. 5).
//!
//! AWP-ODC partitions the simulation volume into PX×PY×PZ subgrids, one per
//! rank. We split each axis as evenly as possible: the first `rem` parts get
//! one extra cell, so any two parts differ by at most one cell per axis —
//! the "load imbalance caused by the variability between boundary and
//! interior computational loads" the paper analyses is then entirely due to
//! boundary work, not the split.

use crate::dims::{Dims3, Idx3};
use crate::face::Face;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A PX×PY×PZ decomposition of a global grid.
///
/// ```
/// use awp_grid::{decomp::Decomp3, dims::Dims3};
/// let d = Decomp3::auto(Dims3::new(800, 400, 100), 8);
/// assert_eq!(d.rank_count(), 8);
/// // Every cell has exactly one owner.
/// let sub = d.subdomain(3);
/// assert_eq!(d.owner_of(sub.local_to_global(awp_grid::dims::Idx3::new(0, 0, 0))), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decomp3 {
    pub global: Dims3,
    pub parts: [usize; 3],
    /// Deliberate per-axis imbalance: `skew[a]` extra cells are granted to
    /// part 0 along axis `a`, taken evenly from the remaining parts. All
    /// zeros (the default, and what [`Decomp3::new`] builds) keeps the
    /// balanced split. Used by the equivalence tests to construct a known
    /// straggler rank; every cell still has exactly one owner.
    #[serde(default)]
    pub skew: [usize; 3],
}

impl Decomp3 {
    pub fn new(global: Dims3, parts: [usize; 3]) -> Self {
        assert!(parts.iter().all(|&p| p > 0), "parts must be positive");
        for (a, &p) in parts.iter().enumerate() {
            assert!(
                p <= global.axis(a),
                "more parts than cells on axis {a}: {} > {}",
                p,
                global.axis(a)
            );
        }
        Self { global, parts, skew: [0; 3] }
    }

    /// Skew the split along `axis`: part 0 takes `extra` cells beyond its
    /// balanced share (capped so every other part keeps at least one cell).
    pub fn with_skew(mut self, axis: usize, extra: usize) -> Self {
        assert!(axis < 3);
        self.skew[axis] = extra;
        self
    }

    /// Choose a near-cubic factorisation of `n` ranks for this global grid,
    /// preferring splits proportional to the axis extents.
    pub fn auto(global: Dims3, n: usize) -> Self {
        assert!(n > 0);
        let mut best: Option<([usize; 3], f64)> = None;
        for px in 1..=n {
            if n % px != 0 || px > global.nx {
                continue;
            }
            let rest = n / px;
            for py in 1..=rest {
                if rest % py != 0 || py > global.ny {
                    continue;
                }
                let pz = rest / py;
                if pz > global.nz {
                    continue;
                }
                // Score: surface-to-volume of a typical subdomain (lower is
                // better) — proxies communication volume per rank.
                let (sx, sy, sz) = (
                    global.nx as f64 / px as f64,
                    global.ny as f64 / py as f64,
                    global.nz as f64 / pz as f64,
                );
                let surf = 2.0 * (sx * sy + sy * sz + sx * sz);
                let vol = sx * sy * sz;
                let score = surf / vol;
                if best.is_none_or(|(_, s)| score < s) {
                    best = Some(([px, py, pz], score));
                }
            }
        }
        let (parts, _) = best.expect("no feasible decomposition");
        Self::new(global, parts)
    }

    /// Total number of ranks.
    pub fn rank_count(&self) -> usize {
        self.parts.iter().product()
    }

    /// Rank id of a part coordinate (x fastest, like cells).
    pub fn rank_of(&self, coords: [usize; 3]) -> usize {
        debug_assert!((0..3).all(|a| coords[a] < self.parts[a]));
        coords[0] + self.parts[0] * (coords[1] + self.parts[1] * coords[2])
    }

    /// Part coordinate of a rank id.
    pub fn coords_of(&self, rank: usize) -> [usize; 3] {
        debug_assert!(rank < self.rank_count());
        [
            rank % self.parts[0],
            (rank / self.parts[0]) % self.parts[1],
            rank / (self.parts[0] * self.parts[1]),
        ]
    }

    /// Cell range owned by part `p` (of `parts`) along an axis of length `n`
    /// under the balanced split.
    fn axis_range(n: usize, parts: usize, p: usize) -> Range<usize> {
        let base = n / parts;
        let rem = n % parts;
        let start = p * base + p.min(rem);
        let len = base + usize::from(p < rem);
        start..start + len
    }

    /// Part 0's extent along axis `a`, honouring the skew cap (every later
    /// part keeps at least one cell).
    fn first_len(&self, a: usize) -> usize {
        let n = self.global.axis(a);
        let parts = self.parts[a];
        let bal0 = Self::axis_range(n, parts, 0).len();
        (bal0 + self.skew[a]).min(n - (parts - 1))
    }

    /// Cell range owned by part `p` along axis `a`, skew included: part 0
    /// takes its enlarged share, the rest split the remainder evenly.
    fn skewed_axis_range(&self, a: usize, p: usize) -> Range<usize> {
        let n = self.global.axis(a);
        let parts = self.parts[a];
        if self.skew[a] == 0 || parts == 1 {
            return Self::axis_range(n, parts, p);
        }
        let first = self.first_len(a);
        if p == 0 {
            return 0..first;
        }
        let r = Self::axis_range(n - first, parts - 1, p - 1);
        (r.start + first)..(r.end + first)
    }

    /// The subdomain owned by `rank`.
    pub fn subdomain(&self, rank: usize) -> Subdomain {
        let coords = self.coords_of(rank);
        let xr = self.skewed_axis_range(0, coords[0]);
        let yr = self.skewed_axis_range(1, coords[1]);
        let zr = self.skewed_axis_range(2, coords[2]);
        Subdomain {
            rank,
            coords,
            origin: Idx3::new(xr.start, yr.start, zr.start),
            dims: Dims3::new(xr.len(), yr.len(), zr.len()),
            decomp: *self,
        }
    }

    /// Part coordinate owning cell `x` of `n` under the balanced split.
    fn balanced_coord(n: usize, parts: usize, x: usize) -> usize {
        let base = n / parts;
        let rem = n % parts;
        // First `rem` parts have length base+1.
        let split = rem * (base + 1);
        if x < split {
            x / (base + 1)
        } else {
            rem + (x - split) / base.max(1)
        }
    }

    /// Rank owning a global cell.
    pub fn owner_of(&self, idx: Idx3) -> usize {
        debug_assert!(self.global.contains(idx));
        let mut coords = [0usize; 3];
        for (a, coord) in coords.iter_mut().enumerate() {
            let n = self.global.axis(a);
            let parts = self.parts[a];
            let x = idx.axis(a);
            *coord = if self.skew[a] == 0 || parts == 1 {
                Self::balanced_coord(n, parts, x)
            } else {
                let first = self.first_len(a);
                if x < first {
                    0
                } else {
                    1 + Self::balanced_coord(n - first, parts - 1, x - first)
                }
            };
        }
        self.rank_of(coords)
    }
}

/// One rank's piece of the global grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Subdomain {
    pub rank: usize,
    pub coords: [usize; 3],
    /// Global index of the first owned cell.
    pub origin: Idx3,
    /// Owned extent.
    pub dims: Dims3,
    pub decomp: Decomp3,
}

impl Subdomain {
    /// Neighbour rank across a face, or `None` at the domain boundary.
    pub fn neighbor(&self, face: Face) -> Option<usize> {
        let a = face.axis().index();
        let mut c = self.coords;
        if face.is_low() {
            if c[a] == 0 {
                return None;
            }
            c[a] -= 1;
        } else {
            if c[a] + 1 == self.decomp.parts[a] {
                return None;
            }
            c[a] += 1;
        }
        Some(self.decomp.rank_of(c))
    }

    /// True when this subdomain touches the global boundary on `face` —
    /// i.e. it must also apply absorbing/free-surface conditions there
    /// (paper §III.A: "processors allocated at the external edges of the
    /// volume must also process absorbing boundary conditions").
    pub fn on_boundary(&self, face: Face) -> bool {
        self.neighbor(face).is_none()
    }

    /// Convert a global cell index to a local one (may be out of range).
    pub fn global_to_local(&self, g: Idx3) -> Option<Idx3> {
        let l = Idx3::new(
            g.i.wrapping_sub(self.origin.i),
            g.j.wrapping_sub(self.origin.j),
            g.k.wrapping_sub(self.origin.k),
        );
        self.dims.contains(l).then_some(l)
    }

    /// Convert a local index to the global one.
    pub fn local_to_global(&self, l: Idx3) -> Idx3 {
        Idx3::new(self.origin.i + l.i, self.origin.j + l.j, self.origin.k + l.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_exactly() {
        for (n, parts) in [(10, 3), (7, 7), (100, 8), (5, 1)] {
            let mut covered = vec![false; n];
            for p in 0..parts {
                for i in Decomp3::axis_range(n, parts, p) {
                    assert!(!covered[i], "cell {i} covered twice");
                    covered[i] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "cells uncovered");
        }
    }

    #[test]
    fn ranges_balanced_within_one() {
        for (n, parts) in [(10, 3), (100, 7), (17, 4)] {
            let lens: Vec<usize> = (0..parts)
                .map(|p| Decomp3::axis_range(n, parts, p).len())
                .collect();
            let min = *lens.iter().min().unwrap();
            let max = *lens.iter().max().unwrap();
            assert!(max - min <= 1, "{lens:?}");
        }
    }

    #[test]
    fn rank_coords_round_trip() {
        let d = Decomp3::new(Dims3::new(12, 10, 8), [3, 2, 2]);
        for r in 0..d.rank_count() {
            assert_eq!(d.rank_of(d.coords_of(r)), r);
        }
    }

    #[test]
    fn owner_matches_subdomain() {
        let d = Decomp3::new(Dims3::new(11, 7, 5), [3, 2, 2]);
        for r in 0..d.rank_count() {
            let s = d.subdomain(r);
            for k in 0..s.dims.nz {
                for j in 0..s.dims.ny {
                    for i in 0..s.dims.nx {
                        let g = s.local_to_global(Idx3::new(i, j, k));
                        assert_eq!(d.owner_of(g), r, "cell {g:?}");
                        assert_eq!(s.global_to_local(g), Some(Idx3::new(i, j, k)));
                    }
                }
            }
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let d = Decomp3::new(Dims3::new(8, 8, 8), [2, 2, 2]);
        for r in 0..d.rank_count() {
            let s = d.subdomain(r);
            for f in Face::ALL {
                if let Some(n) = s.neighbor(f) {
                    let ns = d.subdomain(n);
                    assert_eq!(ns.neighbor(f.opposite()), Some(r));
                } else {
                    assert!(s.on_boundary(f));
                }
            }
        }
    }

    #[test]
    fn auto_prefers_low_surface() {
        // A long-x domain split 8 ways should favour slicing along x.
        let d = Decomp3::auto(Dims3::new(800, 100, 100), 8);
        assert_eq!(d.rank_count(), 8);
        assert!(d.parts[0] >= d.parts[1] && d.parts[0] >= d.parts[2], "{:?}", d.parts);
    }

    #[test]
    fn auto_single_rank_is_identity() {
        let d = Decomp3::auto(Dims3::new(5, 6, 7), 1);
        assert_eq!(d.parts, [1, 1, 1]);
        let s = d.subdomain(0);
        assert_eq!(s.dims, Dims3::new(5, 6, 7));
        assert_eq!(s.origin, Idx3::new(0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "more parts than cells")]
    fn too_many_parts_rejected() {
        Decomp3::new(Dims3::new(2, 2, 2), [4, 1, 1]);
    }

    #[test]
    fn skewed_split_partitions_exactly_and_biases_part_zero() {
        let d = Decomp3::new(Dims3::new(32, 8, 8), [2, 1, 1]).with_skew(0, 8);
        let s0 = d.subdomain(0);
        let s1 = d.subdomain(1);
        assert_eq!(s0.dims.nx, 24, "part 0 takes its balanced 16 plus 8 skew");
        assert_eq!(s1.dims.nx, 8);
        assert_eq!(s1.origin.i, 24);
        // Every cell still has exactly one owner, matching the subdomains.
        for r in 0..d.rank_count() {
            let s = d.subdomain(r);
            for k in 0..s.dims.nz {
                for j in 0..s.dims.ny {
                    for i in 0..s.dims.nx {
                        let g = s.local_to_global(Idx3::new(i, j, k));
                        assert_eq!(d.owner_of(g), r, "cell {g:?}");
                    }
                }
            }
        }
        // Oversized skew is capped: later parts keep at least one cell.
        let d = Decomp3::new(Dims3::new(10, 4, 4), [4, 1, 1]).with_skew(0, 100);
        let lens: Vec<usize> = (0..4).map(|r| d.subdomain(r).dims.nx).collect();
        assert_eq!(lens, vec![7, 1, 1, 1]);
        assert_eq!(lens.iter().sum::<usize>(), 10);
    }
}
