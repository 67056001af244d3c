//! Free-surface and sponge boundary conditions (paper §II.D–E).
//!
//! **Free surface**: the zero-stress condition at the top of the model via
//! stress imaging (the FS2 family of Gottschammer & Olsen 2001). The
//! surface coincides with the k = 0 plane of the normal stresses and
//! horizontal velocities; σzz is forced to zero there and continued
//! antisymmetrically above, σxz/σyz (staggered half a cell below the
//! surface) are continued antisymmetrically, and the vertical velocity is
//! imaged so the discrete σzz update at the surface honours the
//! traction-free constraint.
//!
//! **Sponge**: Cerjan et al. (1985) damping layers — "unconditionally
//! stable [but] the ability … to absorb reflections is poorer than PMLs".

use crate::medium::Medium;
use crate::shell::Win;
use crate::sourceinj::SourceInjector;
use crate::state::WaveState;
use awp_grid::decomp::Subdomain;
use awp_grid::face::Face;
use awp_grid::fpmode::FlushGuard;

/// Zero-stress imaging applied after each stress update on ranks owning
/// the top (k = 0) face.
pub fn apply_free_surface_stress(state: &mut WaveState) {
    apply_free_surface_stress_win(state, Win::full(state.dims));
}

/// Free-surface stress imaging over a window's (i, j) footprint only (a
/// windowed step images each surface-touching window right after its
/// stress update; footprints partition the plane, so the union equals
/// the fused full-plane pass). Reads stay within the window's own columns
/// (k ≤ 2 — guaranteed by `shell::MIN_SLAB_PLANES`).
pub fn apply_free_surface_stress_win(state: &mut WaveState, win: Win) {
    let _ftz = FlushGuard::enter();
    let d = state.dims;
    for j in win.j0 as isize..win.j1 as isize {
        for i in win.i0 as isize..win.i1 as isize {
            // σzz: node on the surface is zero; antisymmetric above.
            state.szz.set(i, j, 0, 0.0);
            let s1 = state.szz.get(i, j, 1);
            state.szz.set(i, j, -1, -s1);
            if d.nz > 2 {
                let s2 = state.szz.get(i, j, 2);
                state.szz.set(i, j, -2, -s2);
            }
            // σxz, σyz: staggered half a cell below the surface plane →
            // antisymmetric image about z = 0 (σxy needs none).
            let x0 = state.sxz.get(i, j, 0);
            state.sxz.set(i, j, -1, -x0);
            let x1 = state.sxz.get(i, j, 1);
            state.sxz.set(i, j, -2, -x1);
            let y0 = state.syz.get(i, j, 0);
            state.syz.set(i, j, -1, -y0);
            let y1 = state.syz.get(i, j, 1);
            state.syz.set(i, j, -2, -y1);
        }
    }
}

/// Velocity imaging applied after the velocity update (and halo exchange)
/// on ranks owning the top face, so the following stress update sees
/// consistent above-surface values.
pub fn apply_free_surface_velocity(state: &mut WaveState, med: &Medium, h: f32) {
    let _ftz = FlushGuard::enter();
    let d = state.dims;
    for j in 0..d.ny as isize {
        for i in 0..d.nx as isize {
            // Horizontal velocities: symmetric images (∂z vx = ∂z vy = 0 at
            // the surface, consistent with σxz = σyz = 0).
            let vx0 = state.vx.get(i, j, 0);
            let vx1 = state.vx.get(i, j, 1.min(d.nz as isize - 1));
            state.vx.set(i, j, -1, vx0);
            state.vx.set(i, j, -2, vx1);
            let vy0 = state.vy.get(i, j, 0);
            let vy1 = state.vy.get(i, j, 1.min(d.nz as isize - 1));
            state.vy.set(i, j, -1, vy0);
            state.vy.set(i, j, -2, vy1);
            // Vertical velocity: choose vz(−1) so the 2nd-order discrete
            // ezz at the surface satisfies the traction-free constraint
            // ezz = −λ/(λ+2μ)(exx + eyy).
            let lam = med.lam.get(i, j, 0);
            let mu = med.mu.get(i, j, 0);
            let ratio = lam / (lam + 2.0 * mu);
            let exx = (state.vx.get(i, j, 0) - state.vx.get(i - 1, j, 0)) / h;
            let eyy = (state.vy.get(i, j, 0) - state.vy.get(i, j - 1, 0)) / h;
            let vz0 = state.vz.get(i, j, 0);
            let vzm1 = vz0 + ratio * h * (exx + eyy);
            state.vz.set(i, j, -1, vzm1);
            state.vz.set(i, j, -2, vzm1);
        }
    }
}

/// Cerjan sponge: per-axis damping profiles on the *global* grid, sliced
/// per rank so decomposed runs damp identically to serial ones.
#[derive(Debug, Clone)]
pub struct Sponge {
    /// Per-local-cell damping along each axis (length = local extent).
    gx: Vec<f32>,
    gy: Vec<f32>,
    gz: Vec<f32>,
}

impl Sponge {
    /// `width` cells per absorbing face, boundary-cell amplitude `amp`
    /// (e.g. 0.92). The top face is skipped when `free_surface` is set.
    pub fn new(sub: &Subdomain, width: usize, amp: f64, free_surface: bool) -> Self {
        assert!(amp > 0.0 && amp < 1.0, "amp must be in (0,1)");
        let a = (-amp.ln()).sqrt() / width.max(1) as f64;
        let g = self::globals(sub);
        let profile = |global_n: usize, lo_active: bool, hi_active: bool| -> Vec<f32> {
            (0..global_n)
                .map(|gidx| {
                    let mut v = 1.0f64;
                    if lo_active && gidx < width {
                        let d = (width - gidx) as f64;
                        v *= (-(a * d) * (a * d)).exp();
                    }
                    if hi_active && gidx + width >= global_n {
                        let d = (gidx + width + 1 - global_n) as f64;
                        v *= (-(a * d) * (a * d)).exp();
                    }
                    v as f32
                })
                .collect()
        };
        let gx_full = profile(g.0, true, true);
        let gy_full = profile(g.1, true, true);
        let gz_full = profile(g.2, !free_surface, true);
        Self {
            gx: gx_full[sub.origin.i..sub.origin.i + sub.dims.nx].to_vec(),
            gy: gy_full[sub.origin.j..sub.origin.j + sub.dims.ny].to_vec(),
            gz: gz_full[sub.origin.k..sub.origin.k + sub.dims.nz].to_vec(),
        }
    }

    /// Damp all nine wavefield components.
    pub fn apply(&self, state: &mut WaveState) {
        let win = Win::full(state.dims);
        self.apply_components_win(state, &awp_grid::stagger::Component::ALL, win);
    }

    /// Damp `comps` inside `win`. Per-cell multiplicative damping, so
    /// restricting to a window is bit-exact: the row fast-path skip only
    /// skips multiplications by exactly 1.0 (an IEEE identity).
    pub fn apply_components_win(
        &self,
        state: &mut WaveState,
        comps: &[awp_grid::stagger::Component],
        win: Win,
    ) {
        self.damp_rows(state, comps, win, |_, _| true);
    }

    /// Damp the (j, k) rows of `win` that `pick` selects.
    fn damp_rows(
        &self,
        state: &mut WaveState,
        comps: &[awp_grid::stagger::Component],
        win: Win,
        pick: impl Fn(usize, usize) -> bool,
    ) {
        if win.is_empty() {
            return;
        }
        let _ftz = FlushGuard::enter();
        for k in win.k0..win.k1 {
            let gk = self.gz[k];
            for j in (win.j0..win.j1).filter(|&j| pick(j, k)) {
                let gjk = self.gy[j] * gk;
                if gjk == 1.0 && self.gx[win.i0..win.i1].iter().all(|&g| g == 1.0) {
                    continue;
                }
                for &c in comps {
                    let arr = state.field_mut(c);
                    let base = arr.offset(0, j as isize, k as isize);
                    let row = &mut arr.as_mut_slice()[base + win.i0..base + win.i1];
                    for (i, v) in row.iter_mut().enumerate() {
                        *v *= self.gx[win.i0 + i] * gjk;
                    }
                }
            }
        }
    }

    /// The per-cell x factors and the (y·z) factor of row (j, k): a cell's
    /// damping is `gx[i] * gjk`, the product [`Sponge::apply`] forms.
    #[inline]
    pub(crate) fn row_factors(&self, j: usize, k: usize) -> (&[f32], f32) {
        (&self.gx, self.gy[j] * self.gz[k])
    }

    /// Damping factor at a local cell (diagnostics/tests).
    pub fn factor(&self, i: usize, j: usize, k: usize) -> f32 {
        self.gx[i] * self.gy[j] * self.gz[k]
    }
}

/// The sponge work a stress row walk does on its way (`simd::stress_body`):
/// it damps each stress value as it stores it, and each row's epilogue
/// retires the velocity sponge two planes behind. Same factors, same
/// product, same bits as the separate pass.
#[derive(Clone, Copy)]
pub(crate) struct SpongeFold<'a> {
    pub sponge: &'a Sponge,
    /// Rows holding a source cell wait for the moment to be added.
    pub sources: &'a SourceInjector,
    /// Planes `k < imaged` wait too: 3 in a cluster that images the free
    /// surface (the imaging reads them undamped), else 0 — or all of them,
    /// when the loops that run are not the ones that fold.
    pub imaged: usize,
    /// Velocity planes `[.0, .1)` the walk damps: v row (j, k − 2) right
    /// after stress row (j, k), its last reader in a k-major full-row walk.
    pub retire: (usize, usize),
}

impl SpongeFold<'_> {
    /// Does stress row (j, k) keep the order kernel → inject → image → damp?
    #[inline]
    pub fn defers(&self, j: usize, k: usize) -> bool {
        k < self.imaged || self.sources.touches_row(j, k)
    }

    /// Damp the stress rows of `win` the walk left alone.
    pub fn damp_deferred(&self, state: &mut WaveState, win: Win) {
        let stresses = &awp_grid::stagger::Component::STRESSES;
        self.sponge.damp_rows(state, stresses, win, |j, k| self.defers(j, k));
    }
}

fn globals(sub: &Subdomain) -> (usize, usize, usize) {
    (sub.decomp.global.nx, sub.decomp.global.ny, sub.decomp.global.nz)
}

/// True when this rank owns part of the top free surface.
pub fn owns_free_surface(sub: &Subdomain) -> bool {
    sub.on_boundary(Face::ZLo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use awp_cvm::mesh::MeshGenerator;
    use awp_cvm::model::HomogeneousModel;
    use awp_grid::decomp::Decomp3;
    use awp_grid::dims::Dims3;

    fn single_sub(d: Dims3) -> Subdomain {
        Decomp3::new(d, [1, 1, 1]).subdomain(0)
    }

    #[test]
    fn stress_imaging_zeroes_surface() {
        let d = Dims3::new(4, 4, 6);
        let mut s = WaveState::new(d, false);
        for k in 0..6 {
            for j in 0..4 {
                for i in 0..4 {
                    s.szz.set(i, j, k, (k + 1) as f32);
                    s.sxz.set(i, j, k, (k + 1) as f32 * 2.0);
                }
            }
        }
        apply_free_surface_stress(&mut s);
        assert_eq!(s.szz.get(1, 1, 0), 0.0);
        assert_eq!(s.szz.get(1, 1, -1), -s.szz.get(1, 1, 1));
        assert_eq!(s.sxz.get(1, 1, -1), -s.sxz.get(1, 1, 0));
        assert_eq!(s.sxz.get(1, 1, -2), -s.sxz.get(1, 1, 1));
    }

    #[test]
    fn velocity_imaging_uniform_field_is_trivial() {
        // A uniform horizontal velocity field has exx = eyy = 0 → vz image
        // equals vz itself; vx image is symmetric.
        let d = Dims3::new(4, 4, 4);
        let model = HomogeneousModel::rock();
        let mesh = MeshGenerator::new(&model, d, 100.0).generate();
        let med = Medium::from_mesh(&mesh);
        let mut s = WaveState::new(d, false);
        s.vx.as_mut_slice().fill(2.0);
        s.vz.as_mut_slice().fill(0.5);
        apply_free_surface_velocity(&mut s, &med, 100.0);
        assert_eq!(s.vx.get(1, 1, -1), 2.0);
        assert_eq!(s.vz.get(1, 1, -1), 0.5);
    }

    #[test]
    fn velocity_imaging_encodes_traction_free_ezz() {
        let d = Dims3::new(4, 4, 4);
        let model = HomogeneousModel::rock();
        let mesh = MeshGenerator::new(&model, d, 100.0).generate();
        let med = Medium::from_mesh(&mesh);
        let mut s = WaveState::new(d, false);
        // Linear vx ramp → constant positive exx at the surface.
        s.vx.map_interior(|idx, _| idx.i as f32);
        // Also set the halo so the i−1 read at i=0 is consistent.
        s.vx.set(-1, 0, 0, -1.0);
        apply_free_surface_velocity(&mut s, &med, 100.0);
        // exx = 1/100 > 0 → vz(−1) > vz(0): material bulges upward.
        assert!(s.vz.get(1, 1, -1) > s.vz.get(1, 1, 0));
    }

    #[test]
    fn sponge_profile_shape() {
        let d = Dims3::new(40, 40, 30);
        let sub = single_sub(d);
        let sp = Sponge::new(&sub, 10, 0.92, true);
        // Interior: no damping.
        assert_eq!(sp.factor(20, 20, 10), 1.0);
        // Corner: heavy damping, monotone toward the boundary.
        assert!(sp.factor(0, 0, 29) < sp.factor(5, 5, 25));
        assert!(sp.factor(0, 20, 10) < 1.0);
        // Free surface not damped.
        assert_eq!(sp.factor(20, 20, 0), 1.0);
    }

    #[test]
    fn sponge_damps_wavefield() {
        let d = Dims3::new(30, 30, 30);
        let sub = single_sub(d);
        let sp = Sponge::new(&sub, 10, 0.9, false);
        let mut s = WaveState::new(d, false);
        s.vx.as_mut_slice().fill(1.0);
        sp.apply(&mut s);
        assert!(s.vx.get(0, 0, 0) < 0.8, "corner damped: {}", s.vx.get(0, 0, 0));
        assert_eq!(s.vx.get(15, 15, 15), 1.0, "interior untouched");
    }

    #[test]
    fn sponge_slices_match_global_profile() {
        // Two ranks along x: their concatenated profiles must equal the
        // single-rank profile.
        let d = Dims3::new(24, 8, 8);
        let whole = Sponge::new(&single_sub(d), 6, 0.92, true);
        let dec = Decomp3::new(d, [2, 1, 1]);
        let left = Sponge::new(&dec.subdomain(0), 6, 0.92, true);
        let right = Sponge::new(&dec.subdomain(1), 6, 0.92, true);
        for i in 0..12 {
            assert_eq!(left.factor(i, 0, 0), whole.factor(i, 0, 0));
            assert_eq!(right.factor(i, 0, 0), whole.factor(i + 12, 0, 0));
        }
    }

    #[test]
    fn owns_free_surface_only_top_ranks() {
        let dec = Decomp3::new(Dims3::new(8, 8, 8), [1, 1, 2]);
        assert!(owns_free_surface(&dec.subdomain(0)));
        assert!(!owns_free_surface(&dec.subdomain(1)));
    }
}
