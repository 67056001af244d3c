//! The hot update loops (paper §II.B, §IV.B).
//!
//! Two code paths per kernel:
//!
//! * **optimized** — reads precomputed reciprocal densities and harmonic
//!   shear moduli (no divisions in the loop); this is the §IV.B production
//!   kernel, and it lives in `crate::simd` as one lane-generic body whose
//!   width-1 instantiation is what `optimized = true` runs here;
//! * **legacy** — recomputes `1/ρ̄` and the 4-point harmonic `μ` with
//!   inline divisions every iteration and runs unblocked, reproducing the
//!   pre-optimisation cost so Table 2 / Fig. 13 contrasts are measurable.
//!
//! Both paths compute identical mathematics; tests pin them to each other,
//! and pin the lane-generic body to the slice-indexed loops of
//! [`reference`], which exist only under `#[cfg(test)]`.

use crate::attenuation::Attenuation;
use crate::medium::Medium;
use crate::shell::Win;
use crate::simd::{update_stress_backend_win, update_velocity_backend_win, SimdBackend};
use crate::state::WaveState;
use awp_grid::blocking::{for_each_blocked, BlockSpec};
use awp_grid::dims::Dims3;
use awp_grid::fpmode::{self, FlushGuard};
use awp_grid::{C1, C2};

/// Shared padded-layout strides: `(sy, sz, base)` with `base` the offset of
/// interior cell (0,0,0).
#[inline]
pub fn layout(state: &WaveState) -> (usize, usize, usize) {
    let (sy, sz) = state.vx.strides();
    (sy, sz, 2 + 2 * sy + 2 * sz)
}

/// Whether a row of `n` lanes starting at padded offset `o` keeps every
/// lane's stencil reach `o ± 2`, `o ± 2·sy` and `o ± 2·sz` inside the `len`
/// padded cells: the bound the unchecked row walks of `crate::simd` and
/// `crate::pml` rely on, checked per row in debug builds.
#[inline]
pub(crate) fn reach_in_bounds(o: usize, n: usize, (sy, sz): (usize, usize), len: usize) -> bool {
    let reach = [2, 2 * sy, 2 * sz];
    n > 0 && reach.iter().all(|&r| o >= r && o + n - 1 + r < len)
}

/// Whether row `(j, k)` of `win` lies inside the `d` extent on every axis.
/// [`reach_in_bounds`] sees only the flat padded length, so a row that runs
/// off its x extent into the next row's halo passes it; the row walks of
/// `crate::simd` and `crate::pml` check both per row in debug builds.
#[inline]
pub(crate) fn row_in_extent(win: Win, j: usize, k: usize, d: Dims3) -> bool {
    win.i1 <= d.nx && j < d.ny && k < d.nz
}

/// Update the three velocity components one leapfrog half-step:
/// `v += (Δt/ρh)·D⁴(σ)` (Eq. 1a + Eq. 3). `dth = Δt/h`.
pub fn update_velocity(
    state: &mut WaveState,
    med: &Medium,
    dth: f32,
    block: BlockSpec,
    optimized: bool,
) {
    let _ftz = FlushGuard::enter();
    let d = state.dims;
    if optimized {
        // The windowed pass over the whole grid: one loop body, so windowed
        // walks are bit-exact to the fused sweep by construction.
        let (w, scalar) = (Win::full(d), SimdBackend::Scalar);
        return update_velocity_backend_win(state, med, dth, block, w, scalar);
    }
    let (sy, sz, base) = layout(state);
    let WaveState { vx, vy, vz, sxx, syy, szz, sxy, sxz, syz, .. } = state;
    let (vx, vy, vz) = (vx.as_mut_slice(), vy.as_mut_slice(), vz.as_mut_slice());
    let (sxx, syy, szz) = (sxx.as_slice(), syy.as_slice(), szz.as_slice());
    let (sxy, sxz, syz) = (sxy.as_slice(), sxz.as_slice(), syz.as_slice());

    {
        let rho = med.rho.as_slice();
        // Legacy path: unblocked, per-point divisions (the pre-§IV.B code).
        for_each_blocked(d.ny, d.nz, BlockSpec::UNBLOCKED, |j, k| {
            debug_assert!(fpmode::is_flushing());
            let row = base + sy * j + sz * k;
            for i in 0..d.nx {
                let o = row + i;
                let rx = 1.0 / (0.5 * (rho[o] + rho[o + 1]));
                let ry = 1.0 / (0.5 * (rho[o] + rho[o + sy]));
                let rz = 1.0 / (0.5 * (rho[o] + rho[o + sz]));
                vx[o] += dth
                    * rx
                    * (C1 * (sxx[o + 1] - sxx[o])
                        + C2 * (sxx[o + 2] - sxx[o - 1])
                        + C1 * (sxy[o] - sxy[o - sy])
                        + C2 * (sxy[o + sy] - sxy[o - 2 * sy])
                        + C1 * (sxz[o] - sxz[o - sz])
                        + C2 * (sxz[o + sz] - sxz[o - 2 * sz]));
                vy[o] += dth
                    * ry
                    * (C1 * (sxy[o] - sxy[o - 1])
                        + C2 * (sxy[o + 1] - sxy[o - 2])
                        + C1 * (syy[o + sy] - syy[o])
                        + C2 * (syy[o + 2 * sy] - syy[o - sy])
                        + C1 * (syz[o] - syz[o - sz])
                        + C2 * (syz[o + sz] - syz[o - 2 * sz]));
                vz[o] += dth
                    * rz
                    * (C1 * (sxz[o] - sxz[o - 1])
                        + C2 * (sxz[o + 1] - sxz[o - 2])
                        + C1 * (syz[o] - syz[o - sy])
                        + C2 * (syz[o + sy] - syz[o - 2 * sy])
                        + C1 * (szz[o + sz] - szz[o])
                        + C2 * (szz[o + 2 * sz] - szz[o - sz]));
            }
        });
    }
}

/// Update the six stress components one step: `σ += Δt·(λ(∇·v)I + μ(∇v +
/// ∇vᵀ))` (Eq. 1b), with optional memory-variable anelasticity.
pub fn update_stress(
    state: &mut WaveState,
    med: &Medium,
    atten: Option<&Attenuation>,
    dth: f32,
    dt: f32,
    block: BlockSpec,
    optimized: bool,
) {
    let _ftz = FlushGuard::enter();
    let d = state.dims;
    if optimized {
        let (w, scalar) = (Win::full(d), SimdBackend::Scalar);
        return update_stress_backend_win(state, med, atten, dth, dt, block, w, scalar);
    }
    let (sy, sz, base) = layout(state);
    let WaveState { vx, vy, vz, sxx, syy, szz, sxy, sxz, syz, mem, .. } = state;
    let (vx, vy, vz) = (vx.as_slice(), vy.as_slice(), vz.as_slice());
    let (sxx, syy, szz) = (sxx.as_mut_slice(), syy.as_mut_slice(), szz.as_mut_slice());
    let (sxy, sxz, syz) = (sxy.as_mut_slice(), sxz.as_mut_slice(), syz.as_mut_slice());
    let lam = med.lam.as_slice();
    let mu = med.mu.as_slice();

    // Memory-variable slices (empty when attenuation is off).
    let mut mem_slices = mem.as_mut().map(|m| {
        (
            m.xx.as_mut_slice(),
            m.yy.as_mut_slice(),
            m.zz.as_mut_slice(),
            m.xy.as_mut_slice(),
            m.xz.as_mut_slice(),
            m.yz.as_mut_slice(),
        )
    });
    let at = atten.map(|a| (a.decay.as_slice(), a.cs.as_slice(), a.cp.as_slice()));

    let run_block = BlockSpec::UNBLOCKED;
    {
        for_each_blocked(d.ny, d.nz, run_block, |j, k| {
            debug_assert!(fpmode::is_flushing());
            let row = base + sy * j + sz * k;
            for i in 0..d.nx {
                let o = row + i;
                let exx = C1 * (vx[o] - vx[o - 1]) + C2 * (vx[o + 1] - vx[o - 2]);
                let eyy = C1 * (vy[o] - vy[o - sy]) + C2 * (vy[o + sy] - vy[o - 2 * sy]);
                let ezz = C1 * (vz[o] - vz[o - sz]) + C2 * (vz[o + sz] - vz[o - 2 * sz]);
                let tr = exx + eyy + ezz;
                let l = lam[o];
                let m2 = 2.0 * mu[o];
                // Legacy: harmonic means with inline divisions (the
                // `xl = 8./(…)`-style hot-spot of §IV.B).
                let hm4 = |a: f32, b: f32, c: f32, e: f32| -> f32 {
                    if a <= 0.0 || b <= 0.0 || c <= 0.0 || e <= 0.0 {
                        0.0
                    } else {
                        4.0 / (1.0 / a + 1.0 / b + 1.0 / c + 1.0 / e)
                    }
                };
                let mxy = hm4(mu[o], mu[o + 1], mu[o + sy], mu[o + 1 + sy]);
                let mxz = hm4(mu[o], mu[o + 1], mu[o + sz], mu[o + 1 + sz]);
                let myz = hm4(mu[o], mu[o + sy], mu[o + sz], mu[o + sy + sz]);
                let dxy = dth
                    * mxy
                    * (C1 * (vx[o + sy] - vx[o])
                        + C2 * (vx[o + 2 * sy] - vx[o - sy])
                        + C1 * (vy[o + 1] - vy[o])
                        + C2 * (vy[o + 2] - vy[o - 1]));
                let dxz = dth
                    * mxz
                    * (C1 * (vx[o + sz] - vx[o])
                        + C2 * (vx[o + 2 * sz] - vx[o - sz])
                        + C1 * (vz[o + 1] - vz[o])
                        + C2 * (vz[o + 2] - vz[o - 1]));
                let dyz = dth
                    * myz
                    * (C1 * (vy[o + sz] - vy[o])
                        + C2 * (vy[o + 2 * sz] - vy[o - sz])
                        + C1 * (vz[o + sy] - vz[o])
                        + C2 * (vz[o + 2 * sy] - vz[o - sy]));
                let dxx = dth * (l * tr + m2 * exx);
                let dyy = dth * (l * tr + m2 * eyy);
                let dzz = dth * (l * tr + m2 * ezz);
                if let (Some((zxx, zyy, zzz, zxy, zxz, zyz)), Some((a, cs, cp))) =
                    (&mut mem_slices, &at)
                {
                    sxx[o] += anelastic(dxx, &mut zxx[o], a[o], cp[o], dt);
                    syy[o] += anelastic(dyy, &mut zyy[o], a[o], cp[o], dt);
                    szz[o] += anelastic(dzz, &mut zzz[o], a[o], cp[o], dt);
                    sxy[o] += anelastic(dxy, &mut zxy[o], a[o], cs[o], dt);
                    sxz[o] += anelastic(dxz, &mut zxz[o], a[o], cs[o], dt);
                    syz[o] += anelastic(dyz, &mut zyz[o], a[o], cs[o], dt);
                } else {
                    sxx[o] += dxx;
                    syy[o] += dyy;
                    szz[o] += dzz;
                    sxy[o] += dxy;
                    sxz[o] += dxz;
                    syz[o] += dyz;
                }
            }
        });
    }
}

/// Anelastic correction: given elastic increment `delta`, update memory
/// variable ζ and return the corrected increment.
#[inline(always)]
fn anelastic(delta: f32, zeta: &mut f32, a: f32, c: f32, dt: f32) -> f32 {
    let z = a * *zeta + (1.0 - a) * c * (delta / dt);
    *zeta = z;
    delta - dt * z
}

/// The optimized update as plain slice-indexed loops: the reference the
/// lane-generic body of `crate::simd` is pinned to, bit for bit, on every
/// backend — and, inside the stepper (`solver::fold_tests`), the
/// separate-pass walk the folded one is pinned to.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use awp_grid::blocking::for_each_blocked_range;

    /// Windowed velocity update over `win` (half-open local ranges).
    pub(crate) fn update_velocity_win(
        state: &mut WaveState,
        med: &Medium,
        dth: f32,
        block: BlockSpec,
        win: Win,
    ) {
        if win.is_empty() {
            return;
        }
        let _ftz = FlushGuard::enter();
        let (sy, sz, base) = layout(state);
        let WaveState { vx, vy, vz, sxx, syy, szz, sxy, sxz, syz, .. } = state;
        let (vx, vy, vz) = (vx.as_mut_slice(), vy.as_mut_slice(), vz.as_mut_slice());
        let (sxx, syy, szz) = (sxx.as_slice(), syy.as_slice(), szz.as_slice());
        let (sxy, sxz, syz) = (sxy.as_slice(), sxz.as_slice(), syz.as_slice());
        let rx = med.rhox_inv.as_ref().expect("precompute() not called").as_slice();
        let ry = med.rhoy_inv.as_ref().expect("precompute() not called").as_slice();
        let rz = med.rhoz_inv.as_ref().expect("precompute() not called").as_slice();
        for_each_blocked_range(win.j0, win.j1, win.k0, win.k1, block, |j, k| {
            debug_assert!(fpmode::is_flushing());
            let row = base + sy * j + sz * k;
            for i in win.i0..win.i1 {
                let o = row + i;
                vx[o] += dth
                    * rx[o]
                    * (C1 * (sxx[o + 1] - sxx[o])
                        + C2 * (sxx[o + 2] - sxx[o - 1])
                        + C1 * (sxy[o] - sxy[o - sy])
                        + C2 * (sxy[o + sy] - sxy[o - 2 * sy])
                        + C1 * (sxz[o] - sxz[o - sz])
                        + C2 * (sxz[o + sz] - sxz[o - 2 * sz]));
                vy[o] += dth
                    * ry[o]
                    * (C1 * (sxy[o] - sxy[o - 1])
                        + C2 * (sxy[o + 1] - sxy[o - 2])
                        + C1 * (syy[o + sy] - syy[o])
                        + C2 * (syy[o + 2 * sy] - syy[o - sy])
                        + C1 * (syz[o] - syz[o - sz])
                        + C2 * (syz[o + sz] - syz[o - 2 * sz]));
                vz[o] += dth
                    * rz[o]
                    * (C1 * (sxz[o] - sxz[o - 1])
                        + C2 * (sxz[o + 1] - sxz[o - 2])
                        + C1 * (syz[o] - syz[o - sy])
                        + C2 * (syz[o + sy] - syz[o - 2 * sy])
                        + C1 * (szz[o + sz] - szz[o])
                        + C2 * (szz[o + 2 * sz] - szz[o - sz]));
            }
        });
    }

    /// Windowed stress update over `win`, with optional anelasticity.
    pub(crate) fn update_stress_win(
        state: &mut WaveState,
        med: &Medium,
        atten: Option<&Attenuation>,
        dth: f32,
        dt: f32,
        block: BlockSpec,
        win: Win,
    ) {
        if win.is_empty() {
            return;
        }
        let _ftz = FlushGuard::enter();
        let (sy, sz, base) = layout(state);
        let WaveState { vx, vy, vz, sxx, syy, szz, sxy, sxz, syz, mem, .. } = state;
        let (vx, vy, vz) = (vx.as_slice(), vy.as_slice(), vz.as_slice());
        let (sxx, syy, szz) = (sxx.as_mut_slice(), syy.as_mut_slice(), szz.as_mut_slice());
        let (sxy, sxz, syz) = (sxy.as_mut_slice(), sxz.as_mut_slice(), syz.as_mut_slice());
        let lam = med.lam.as_slice();
        let mu = med.mu.as_slice();
        let mut mem_slices = mem.as_mut().map(|m| {
            (
                m.xx.as_mut_slice(),
                m.yy.as_mut_slice(),
                m.zz.as_mut_slice(),
                m.xy.as_mut_slice(),
                m.xz.as_mut_slice(),
                m.yz.as_mut_slice(),
            )
        });
        let at = atten.map(|a| (a.decay.as_slice(), a.cs.as_slice(), a.cp.as_slice()));
        let mxy_ = med.mu_xy.as_ref().expect("precompute() not called").as_slice();
        let mxz_ = med.mu_xz.as_ref().expect("precompute() not called").as_slice();
        let myz_ = med.mu_yz.as_ref().expect("precompute() not called").as_slice();
        for_each_blocked_range(win.j0, win.j1, win.k0, win.k1, block, |j, k| {
            debug_assert!(fpmode::is_flushing());
            let row = base + sy * j + sz * k;
            for i in win.i0..win.i1 {
                let o = row + i;
                let exx = C1 * (vx[o] - vx[o - 1]) + C2 * (vx[o + 1] - vx[o - 2]);
                let eyy = C1 * (vy[o] - vy[o - sy]) + C2 * (vy[o + sy] - vy[o - 2 * sy]);
                let ezz = C1 * (vz[o] - vz[o - sz]) + C2 * (vz[o + sz] - vz[o - 2 * sz]);
                let tr = exx + eyy + ezz;
                let l = lam[o];
                let m2 = 2.0 * mu[o];
                let dxy = dth
                    * mxy_[o]
                    * (C1 * (vx[o + sy] - vx[o])
                        + C2 * (vx[o + 2 * sy] - vx[o - sy])
                        + C1 * (vy[o + 1] - vy[o])
                        + C2 * (vy[o + 2] - vy[o - 1]));
                let dxz = dth
                    * mxz_[o]
                    * (C1 * (vx[o + sz] - vx[o])
                        + C2 * (vx[o + 2 * sz] - vx[o - sz])
                        + C1 * (vz[o + 1] - vz[o])
                        + C2 * (vz[o + 2] - vz[o - 1]));
                let dyz = dth
                    * myz_[o]
                    * (C1 * (vy[o + sz] - vy[o])
                        + C2 * (vy[o + 2 * sz] - vy[o - sz])
                        + C1 * (vz[o + sy] - vz[o])
                        + C2 * (vz[o + 2 * sy] - vz[o - sy]));
                let dxx = dth * (l * tr + m2 * exx);
                let dyy = dth * (l * tr + m2 * eyy);
                let dzz = dth * (l * tr + m2 * ezz);
                if let (Some((zxx, zyy, zzz, zxy, zxz, zyz)), Some((a, cs, cp))) =
                    (&mut mem_slices, &at)
                {
                    sxx[o] += anelastic(dxx, &mut zxx[o], a[o], cp[o], dt);
                    syy[o] += anelastic(dyy, &mut zyy[o], a[o], cp[o], dt);
                    szz[o] += anelastic(dzz, &mut zzz[o], a[o], cp[o], dt);
                    sxy[o] += anelastic(dxy, &mut zxy[o], a[o], cs[o], dt);
                    sxz[o] += anelastic(dxz, &mut zxz[o], a[o], cs[o], dt);
                    syz[o] += anelastic(dyz, &mut zyz[o], a[o], cs[o], dt);
                } else {
                    sxx[o] += dxx;
                    syy[o] += dyy;
                    szz[o] += dzz;
                    sxy[o] += dxy;
                    sxz[o] += dxz;
                    syz[o] += dyz;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awp_cvm::mesh::MeshGenerator;
    use awp_cvm::model::{HomogeneousModel, LayeredModel};
    use awp_grid::dims::Dims3;
    use awp_grid::stagger::Component;

    fn medium(d: Dims3) -> Medium {
        let m = HomogeneousModel::rock();
        let mesh = MeshGenerator::new(&m, d, 100.0).generate();
        let mut med = Medium::from_mesh(&mesh);
        med.precompute();
        med
    }

    fn layered_medium(d: Dims3) -> Medium {
        let m = LayeredModel::loh1();
        let mesh = MeshGenerator::new(&m, d, 200.0).generate();
        let mut med = Medium::from_mesh(&mesh);
        med.precompute();
        med
    }

    fn random_state(d: Dims3, seed: u64) -> WaveState {
        let mut s = WaveState::new(d, false);
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 2000) as f32 / 1000.0 - 1.0
        };
        for c in Component::ALL {
            let f = s.field_mut(c);
            for v in f.as_mut_slice() {
                *v = next() * 1e3;
            }
        }
        s
    }

    #[test]
    fn quiescent_state_stays_quiescent() {
        let d = Dims3::new(6, 5, 4);
        let med = medium(d);
        let mut s = WaveState::new(d, false);
        update_velocity(&mut s, &med, 0.01, BlockSpec::JAGUAR, true);
        update_stress(&mut s, &med, None, 0.01, 1e-3, BlockSpec::JAGUAR, true);
        assert_eq!(s.max_velocity(), 0.0);
        assert_eq!(s.sxx.max_abs(), 0.0);
    }

    #[test]
    fn uniform_stress_produces_no_acceleration() {
        // Constant stress field has zero divergence → velocities unchanged.
        let d = Dims3::new(6, 6, 6);
        let med = medium(d);
        let mut s = WaveState::new(d, false);
        for c in Component::STRESSES {
            s.field_mut(c).as_mut_slice().fill(5.0e4);
        }
        update_velocity(&mut s, &med, 0.01, BlockSpec::JAGUAR, true);
        assert_eq!(s.max_velocity(), 0.0);
    }

    #[test]
    fn uniform_translation_produces_no_stress() {
        // Rigid-body motion (constant velocity everywhere incl. halo) has
        // zero strain rate.
        let d = Dims3::new(5, 5, 5);
        let med = medium(d);
        let mut s = WaveState::new(d, false);
        for c in Component::VELOCITIES {
            s.field_mut(c).as_mut_slice().fill(3.0);
        }
        update_stress(&mut s, &med, None, 0.01, 1e-3, BlockSpec::JAGUAR, true);
        assert_eq!(s.sxx.max_abs(), 0.0);
        assert_eq!(s.syz.max_abs(), 0.0);
    }

    #[test]
    fn blocked_matches_unblocked_bitwise() {
        let d = Dims3::new(13, 11, 9);
        let med = medium(d);
        let mut a = random_state(d, 42);
        let mut b = a.clone();
        update_velocity(&mut a, &med, 0.01, BlockSpec::JAGUAR, true);
        update_velocity(&mut b, &med, 0.01, BlockSpec::UNBLOCKED, true);
        assert_eq!(a.vx, b.vx);
        assert_eq!(a.vz, b.vz);
        update_stress(&mut a, &med, None, 0.01, 1e-3, BlockSpec::new(3, 2), true);
        update_stress(&mut b, &med, None, 0.01, 1e-3, BlockSpec::UNBLOCKED, true);
        assert_eq!(a.sxx, b.sxx);
        assert_eq!(a.syz, b.syz);
    }

    #[test]
    fn optimized_matches_legacy_in_homogeneous_medium() {
        // With constant media the harmonic means equal the raw values, so
        // both paths compute identical expressions (up to f32 rounding of
        // the division order).
        let d = Dims3::new(9, 8, 7);
        let med = medium(d);
        let mut a = random_state(d, 7);
        let mut b = a.clone();
        update_velocity(&mut a, &med, 0.02, BlockSpec::JAGUAR, true);
        update_velocity(&mut b, &med, 0.02, BlockSpec::UNBLOCKED, false);
        for (x, y) in a.vx.as_slice().iter().zip(b.vx.as_slice()) {
            assert!((x - y).abs() <= 1e-4 * x.abs().max(1.0), "{x} vs {y}");
        }
        update_stress(&mut a, &med, None, 0.02, 1e-3, BlockSpec::JAGUAR, true);
        update_stress(&mut b, &med, None, 0.02, 1e-3, BlockSpec::UNBLOCKED, false);
        for (x, y) in a.sxy.as_slice().iter().zip(b.sxy.as_slice()) {
            assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn optimized_matches_legacy_in_layered_medium() {
        let d = Dims3::new(8, 8, 12);
        let med = layered_medium(d);
        let mut a = random_state(d, 99);
        let mut b = a.clone();
        update_stress(&mut a, &med, None, 0.02, 1e-3, BlockSpec::JAGUAR, true);
        update_stress(&mut b, &med, None, 0.02, 1e-3, BlockSpec::UNBLOCKED, false);
        for c in Component::STRESSES {
            for (x, y) in a.field(c).as_slice().iter().zip(b.field(c).as_slice()) {
                let tol = 1e-3 * x.abs().max(1.0);
                assert!((x - y).abs() <= tol, "{c:?}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn attenuation_reduces_stress_increment() {
        let d = Dims3::new(6, 6, 6);
        let med = medium(d);
        let at = crate::attenuation::Attenuation::new(
            &med,
            1e-3,
            0.1,
            5.0,
            awp_grid::dims::Idx3::new(0, 0, 0),
        );
        let base = random_state(d, 5);
        let mut elastic = base.clone();
        let mut anelastic = base.clone();
        anelastic.mem = Some(crate::state::MemoryVars::new(d));
        update_stress(&mut elastic, &med, None, 0.02, 1e-3, BlockSpec::UNBLOCKED, true);
        update_stress(&mut anelastic, &med, Some(&at), 0.02, 1e-3, BlockSpec::UNBLOCKED, true);
        // The anelastic increment magnitude must be ≤ the elastic one
        // (energy is only removed) and strictly different.
        let de: f64 = elastic.sxx.sumsq();
        let da: f64 = anelastic.sxx.sumsq();
        assert_ne!(de, da);
        // Not strictly ordered per-cell, but globally the anelastic field
        // should not exceed the elastic one by more than rounding.
        assert!(da <= de * 1.001, "anelastic {da} vs elastic {de}");
    }

    #[test]
    fn symmetric_point_pressure_radiates_symmetrically() {
        let d = Dims3::new(11, 11, 11);
        let med = medium(d);
        let mut s = WaveState::new(d, false);
        // Isotropic stress spike at the centre cell.
        for c in [Component::Sxx, Component::Syy, Component::Szz] {
            s.field_mut(c).set(5, 5, 5, 1.0e6);
        }
        update_velocity(&mut s, &med, 0.01, BlockSpec::JAGUAR, true);
        // vx is antisymmetric about the source along x: vx(4,5,5) (staggered
        // at 4.5) and vx(5,5,5) (at 5.5) are mirror images.
        let a = s.vx.get(4, 5, 5);
        let b = s.vx.get(5, 5, 5);
        assert!((a + b).abs() <= 1e-6 * a.abs().max(1e-12), "a={a} b={b}");
        assert!(b.abs() > 0.0, "stress divergence must accelerate the flanks");
        // And the response is isotropic across axes.
        let c = s.vy.get(5, 5, 5);
        let e = s.vz.get(5, 5, 5);
        assert!((b - c).abs() < 1e-9 && (b - e).abs() < 1e-9);
    }
}
