//! Halo-padded 3-D field arrays.
//!
//! Fields are stored x-fastest (the `i` index is contiguous), mirroring the
//! Fortran `(i,j,k)` layout of the original AWP-ODC inner loops, so the
//! compute kernels stream unit-stride along x exactly like the paper's
//! cache-blocked subroutines (§IV.B).

use crate::dims::{Dims3, Idx3};
use crate::storage::CellBuf;

/// A 3-D array of `f32` with a uniform halo (ghost) padding on every side.
///
/// Interior indices run over `0..n` per axis; halo cells are addressed with
/// negative indices or indices `>= n`, up to `halo` cells beyond the interior.
/// The padded storage is a [`CellBuf`]: recycled, and placed at its slot's
/// page offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Array3 {
    interior: Dims3,
    halo: usize,
    /// Total (padded) extent per axis.
    total: Dims3,
    data: CellBuf,
}

impl Array3 {
    /// Allocate a zero-filled array with the given interior extent and halo.
    pub fn new(interior: Dims3, halo: usize) -> Self {
        let total = Dims3::new(
            interior.nx + 2 * halo,
            interior.ny + 2 * halo,
            interior.nz + 2 * halo,
        );
        Self {
            interior,
            halo,
            total,
            data: CellBuf::zeroed(total.count()),
        }
    }

    /// Allocate filled with a constant.
    pub fn filled(interior: Dims3, halo: usize, v: f32) -> Self {
        let mut a = Self::new(interior, halo);
        a.fill(v);
        a
    }

    pub fn interior(&self) -> Dims3 {
        self.interior
    }

    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Padded extent per axis.
    pub fn total(&self) -> Dims3 {
        self.total
    }

    /// Linear strides `(1, sx, sx*sy)` of the padded layout.
    #[inline]
    pub fn strides(&self) -> (usize, usize) {
        (self.total.nx, self.total.nx * self.total.ny)
    }

    /// Linear offset of a (possibly halo) point.
    #[inline]
    pub fn offset(&self, i: isize, j: isize, k: isize) -> usize {
        let h = self.halo as isize;
        debug_assert!(i >= -h && i < self.interior.nx as isize + h, "i={i}");
        debug_assert!(j >= -h && j < self.interior.ny as isize + h, "j={j}");
        debug_assert!(k >= -h && k < self.interior.nz as isize + h, "k={k}");
        let (sy, sz) = self.strides();
        (i + h) as usize + sy * (j + h) as usize + sz * (k + h) as usize
    }

    #[inline]
    pub fn get(&self, i: isize, j: isize, k: isize) -> f32 {
        self.data[self.offset(i, j, k)]
    }

    #[inline]
    pub fn set(&mut self, i: isize, j: isize, k: isize, v: f32) {
        let o = self.offset(i, j, k);
        self.data[o] = v;
    }

    #[inline]
    pub fn add(&mut self, i: isize, j: isize, k: isize, v: f32) {
        let o = self.offset(i, j, k);
        self.data[o] += v;
    }

    /// Interior value by unsigned index.
    #[inline]
    pub fn at(&self, idx: Idx3) -> f32 {
        self.get(idx.i as isize, idx.j as isize, idx.k as isize)
    }

    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Raw padded storage (includes halos).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Padded-storage range of every interior x-row, tagged with its
    /// `(j, k)`, in x-fastest order (k outermost) — the unit of the
    /// row-slice walks. Arrays of equal interior and halo share the ranges.
    pub fn interior_rows(&self) -> impl Iterator<Item = (usize, usize, std::ops::Range<usize>)> {
        let (d, h) = (self.interior, self.halo);
        let (sy, sz) = self.strides();
        (0..d.nz).flat_map(move |k| {
            (0..d.ny).map(move |j| {
                let base = h + sy * (j + h) + sz * (k + h);
                (j, k, base..base + d.nx)
            })
        })
    }

    /// Copy the interior (halo excluded) into a contiguous vector, x-fastest.
    pub fn interior_to_vec(&self) -> Vec<f32> {
        let d = self.interior;
        let mut out = Vec::with_capacity(d.count());
        for k in 0..d.nz {
            for j in 0..d.ny {
                let base = self.offset(0, j as isize, k as isize);
                out.extend_from_slice(&self.data[base..base + d.nx]);
            }
        }
        out
    }

    /// Fill the interior from a contiguous x-fastest vector.
    pub fn interior_from_slice(&mut self, src: &[f32]) {
        let d = self.interior;
        assert_eq!(src.len(), d.count(), "interior size mismatch");
        for k in 0..d.nz {
            for j in 0..d.ny {
                let base = self.offset(0, j as isize, k as isize);
                let s = d.nx * (j + d.ny * k);
                self.data[base..base + d.nx].copy_from_slice(&src[s..s + d.nx]);
            }
        }
    }

    /// Maximum absolute interior value.
    pub fn max_abs(&self) -> f32 {
        let d = self.interior;
        let mut m = 0.0f32;
        for k in 0..d.nz {
            for j in 0..d.ny {
                let base = self.offset(0, j as isize, k as isize);
                for v in &self.data[base..base + d.nx] {
                    m = m.max(v.abs());
                }
            }
        }
        m
    }

    /// Sum of squared interior values (f64 accumulator).
    pub fn sumsq(&self) -> f64 {
        let d = self.interior;
        let mut s = 0.0f64;
        for k in 0..d.nz {
            for j in 0..d.ny {
                let base = self.offset(0, j as isize, k as isize);
                for v in &self.data[base..base + d.nx] {
                    s += (*v as f64) * (*v as f64);
                }
            }
        }
        s
    }

    /// Apply `f` to every interior cell.
    pub fn map_interior(&mut self, mut f: impl FnMut(Idx3, f32) -> f32) {
        let d = self.interior;
        for k in 0..d.nz {
            for j in 0..d.ny {
                let base = self.offset(0, j as isize, k as isize);
                for i in 0..d.nx {
                    let v = self.data[base + i];
                    self.data[base + i] = f(Idx3::new(i, j, k), v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed_and_padded() {
        let a = Array3::new(Dims3::new(3, 4, 5), 2);
        assert_eq!(a.total(), Dims3::new(7, 8, 9));
        assert_eq!(a.as_slice().len(), 7 * 8 * 9);
        assert!(a.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn halo_indices_are_addressable() {
        let mut a = Array3::new(Dims3::new(3, 3, 3), 2);
        a.set(-2, -2, -2, 1.5);
        a.set(4, 4, 4, 2.5);
        assert_eq!(a.get(-2, -2, -2), 1.5);
        assert_eq!(a.get(4, 4, 4), 2.5);
        // Interior untouched.
        assert_eq!(a.get(0, 0, 0), 0.0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn out_of_halo_panics_in_debug() {
        let a = Array3::new(Dims3::new(3, 3, 3), 1);
        let _ = a.get(-2, 0, 0);
    }

    #[test]
    fn interior_round_trip() {
        let d = Dims3::new(4, 3, 2);
        let mut a = Array3::new(d, 2);
        let src: Vec<f32> = (0..d.count()).map(|v| v as f32).collect();
        a.interior_from_slice(&src);
        assert_eq!(a.interior_to_vec(), src);
        // Layout: x fastest.
        assert_eq!(a.get(1, 0, 0), 1.0);
        assert_eq!(a.get(0, 1, 0), 4.0);
        assert_eq!(a.get(0, 0, 1), 12.0);
    }

    #[test]
    fn interior_round_trip_leaves_halo_untouched() {
        let d = Dims3::new(2, 2, 2);
        let mut a = Array3::filled(d, 1, 7.0);
        a.interior_from_slice(&vec![1.0; d.count()]);
        assert_eq!(a.get(-1, 0, 0), 7.0);
        assert_eq!(a.get(2, 1, 1), 7.0);
        assert_eq!(a.get(0, 0, 0), 1.0);
    }

    #[test]
    fn max_abs_ignores_halo() {
        let mut a = Array3::new(Dims3::new(2, 2, 2), 1);
        a.set(-1, 0, 0, 100.0);
        a.set(1, 1, 1, -3.0);
        assert_eq!(a.max_abs(), 3.0);
    }

    #[test]
    fn sumsq_matches_manual() {
        let mut a = Array3::new(Dims3::new(2, 1, 1), 2);
        a.set(0, 0, 0, 3.0);
        a.set(1, 0, 0, 4.0);
        assert_eq!(a.sumsq(), 25.0);
    }

    #[test]
    fn map_interior_visits_every_cell_once() {
        let d = Dims3::new(3, 2, 2);
        let mut a = Array3::new(d, 2);
        let mut n = 0;
        a.map_interior(|_, v| {
            n += 1;
            v + 1.0
        });
        assert_eq!(n, d.count());
        assert_eq!(a.sumsq(), d.count() as f64);
    }

    #[test]
    fn offset_matches_strides() {
        let a = Array3::new(Dims3::new(3, 4, 5), 2);
        let (sy, sz) = a.strides();
        assert_eq!(a.offset(0, 0, 0), 2 + sy * 2 + sz * 2);
        assert_eq!(a.offset(1, 0, 0) - a.offset(0, 0, 0), 1);
        assert_eq!(a.offset(0, 1, 0) - a.offset(0, 0, 0), sy);
        assert_eq!(a.offset(0, 0, 1) - a.offset(0, 0, 0), sz);
    }
}
