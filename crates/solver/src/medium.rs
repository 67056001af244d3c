//! Per-rank material description and derived update coefficients.

use awp_cvm::mesh::Mesh;
use awp_grid::array3::Array3;
use awp_grid::dims::Dims3;
use awp_grid::media::lame_from_speeds;
use awp_grid::HALO;

/// Material arrays on one rank's subdomain (halo-padded). Raw fields are
/// sampled at cell centres; derived arrays hold the staggered-point
/// effective coefficients the kernels need, precomputed once when the
/// reciprocal-media optimisation is on (paper §IV.B: "the Lamé parameter
/// arrays mu and lam are computed once and remain unchanged during the
/// entire simulation … we store the reciprocals").
#[derive(Debug, Clone)]
pub struct Medium {
    pub dims: Dims3,
    pub h: f64,
    pub rho: Array3,
    pub lam: Array3,
    pub mu: Array3,
    pub qs: Array3,
    pub qp: Array3,
    /// 1 / ρ̄ at the vx, vy, vz staggered points (when precomputed).
    pub rhox_inv: Option<Array3>,
    pub rhoy_inv: Option<Array3>,
    pub rhoz_inv: Option<Array3>,
    /// Harmonic-mean μ at the σxy, σxz, σyz staggered points.
    pub mu_xy: Option<Array3>,
    pub mu_xz: Option<Array3>,
    pub mu_yz: Option<Array3>,
}

/// Squared P speed of one cell as the solver sees it (f32 moduli widened
/// to f64). The maxima below take one root at the end: `sqrt` is monotone,
/// so that is the maximum of the per-cell roots, bit for bit.
fn p_speed_sq(rho: f32, lam: f32, mu: f32) -> f64 {
    (lam as f64 + 2.0 * mu as f64) / rho as f64
}

/// The largest [`Medium::vp_max`] the media built from `meshes` would
/// report, without building them: the global maximum P speed of a grid
/// given as its per-rank (or one whole) meshes. Exactly the serial run's
/// value, so a decomposed run that scales by it matches serial bit for bit.
pub fn global_vp_max<'a>(meshes: impl IntoIterator<Item = &'a Mesh>) -> f64 {
    let mut m = 0.0f64;
    for mesh in meshes {
        for ((&rho, &vp), &vs) in mesh.rho.iter().zip(&mesh.vp).zip(&mesh.vs) {
            let (lam, mu) = lame_from_speeds(rho, vp, vs);
            m = m.max(p_speed_sq(rho, lam, mu));
        }
    }
    m.sqrt()
}

impl Medium {
    /// Build from a local mesh (interior only). Halo cells start as
    /// clamped copies of the nearest interior cell; ranks with neighbours
    /// must overwrite them via a one-time material halo exchange before
    /// calling [`Medium::precompute`] — otherwise parallel and serial runs
    /// would diverge at subdomain seams.
    pub fn from_mesh(mesh: &Mesh) -> Self {
        let dims = mesh.dims;
        let [mut rho, mut lam, mut mu, mut qs, mut qp] =
            std::array::from_fn(|_| Array3::new(dims, HALO));
        // The mesh is x-fastest and unpadded: its n-th x-row is the n-th
        // interior row of the padded arrays.
        for (n, (_, _, row)) in rho.interior_rows().enumerate() {
            let src = n * dims.nx..(n + 1) * dims.nx;
            rho.as_mut_slice()[row.clone()].copy_from_slice(&mesh.rho[src.clone()]);
            qs.as_mut_slice()[row.clone()].copy_from_slice(&mesh.qs[src.clone()]);
            qp.as_mut_slice()[row.clone()].copy_from_slice(&mesh.qp[src.clone()]);
            let speeds = mesh.rho[src.clone()].iter().zip(&mesh.vp[src.clone()]).zip(&mesh.vs[src]);
            let moduli =
                lam.as_mut_slice()[row.clone()].iter_mut().zip(&mut mu.as_mut_slice()[row]);
            for (((&r, &vp), &vs), (l, m)) in speeds.zip(moduli) {
                (*l, *m) = lame_from_speeds(r, vp, vs);
            }
        }
        let mut med = Self {
            dims,
            h: mesh.h,
            rho,
            lam,
            mu,
            qs,
            qp,
            rhox_inv: None,
            rhoy_inv: None,
            rhoz_inv: None,
            mu_xy: None,
            mu_xz: None,
            mu_yz: None,
        };
        med.clamp_halos();
        med
    }

    /// Fill all halo cells of the raw arrays with the nearest interior
    /// value (correct at global boundaries; placeholder at rank seams).
    /// Each interior row first extends its end values into its x-halos;
    /// every halo row is then a copy of the nearest interior row.
    pub fn clamp_halos(&mut self) {
        let (d, h) = (self.dims, HALO as isize);
        let (ny, nz) = (d.ny as isize, d.nz as isize);
        let padded = d.nx + 2 * HALO;
        for arr in [&mut self.rho, &mut self.lam, &mut self.mu, &mut self.qs, &mut self.qp] {
            for k in 0..nz {
                for j in 0..ny {
                    let start = arr.offset(-h, j, k);
                    let row = &mut arr.as_mut_slice()[start..start + padded];
                    let (lo, hi) = (row[HALO], row[HALO + d.nx - 1]);
                    row[..HALO].fill(lo);
                    row[HALO + d.nx..].fill(hi);
                }
            }
            for k in -h..nz + h {
                let kc = k.clamp(0, nz - 1);
                for j in -h..ny + h {
                    let jc = j.clamp(0, ny - 1);
                    if (j, k) != (jc, kc) {
                        let src = arr.offset(-h, jc, kc);
                        let dst = arr.offset(-h, j, k);
                        arr.as_mut_slice().copy_within(src..src + padded, dst);
                    }
                }
            }
        }
    }

    /// Precompute reciprocal densities and harmonic shear moduli at
    /// staggered points (the §IV.B arithmetic optimisation). Must run
    /// after material halos are final.
    ///
    /// `1/μ` is formed once per cell and shared by the three harmonic
    /// means, which add the four reciprocals in [`harmonic_mean4`]'s order
    /// and keep its rule that any μ ≤ 0 makes the mean 0 — bit for bit the
    /// per-cell formula. The reciprocals are staged in the σyz array
    /// itself: a scratch array here would move where every later
    /// allocation lands, and with it the kernels' cache behaviour.
    ///
    /// [`harmonic_mean4`]: awp_grid::media::harmonic_mean4
    pub fn precompute(&mut self) {
        let (d, n) = (self.dims, self.dims.nx);
        let [mut rx, mut ry, mut rz, mut mxy, mut mxz, mut myz] =
            std::array::from_fn(|_| Array3::new(d, HALO));
        let (sy, sz) = self.rho.strides();
        let rho = self.rho.as_slice();
        // −1 marks μ ≤ 0: the only cells whose reciprocal is negative.
        let inv = myz.as_mut_slice();
        for (r, &m) in inv.iter_mut().zip(self.mu.as_slice()) {
            *r = if m <= 0.0 { -1.0 } else { 1.0 / m };
        }
        let mean = |r: [f32; 4]| {
            if r.iter().any(|&x| x < 0.0) {
                0.0
            } else {
                4.0 / (r[0] + r[1] + r[2] + r[3])
            }
        };
        for (_, _, row) in self.rho.interior_rows() {
            let b = row.start;
            let (r0, r_y, r_z) =
                (&rho[b..b + n + 1], &rho[b + sy..b + sy + n], &rho[b + sz..b + sz + n]);
            let (m0, m_y, m_z) =
                (&inv[b..b + n + 1], &inv[b + sy..b + sy + n + 1], &inv[b + sz..b + sz + n + 1]);
            let rx = &mut rx.as_mut_slice()[row.clone()];
            let ry = &mut ry.as_mut_slice()[row.clone()];
            let rz = &mut rz.as_mut_slice()[row.clone()];
            let mxy = &mut mxy.as_mut_slice()[row.clone()];
            let mxz = &mut mxz.as_mut_slice()[row.clone()];
            for i in 0..n {
                rx[i] = 1.0 / (0.5 * (r0[i] + r0[i + 1]));
                ry[i] = 1.0 / (0.5 * (r0[i] + r_y[i]));
                rz[i] = 1.0 / (0.5 * (r0[i] + r_z[i]));
                mxy[i] = mean([m0[i], m0[i + 1], m_y[i], m_y[i + 1]]);
                mxz[i] = mean([m0[i], m0[i + 1], m_z[i], m_z[i + 1]]);
            }
            // Each σyz mean replaces its own cell's reciprocal, which no
            // later mean reads: every mean reads at or after its own cell.
            let (head, tail) = inv.split_at_mut(row.end);
            let (m_y, m_z) = (&tail[sy - n..sy], &tail[sz - n..sz]);
            let m_yz = &tail[sy + sz - n..sy + sz];
            for (i, c) in head[row].iter_mut().enumerate() {
                *c = mean([*c, m_y[i], m_z[i], m_yz[i]]);
            }
        }
        // Outside the interior σyz still holds reciprocals; zero it there,
        // like every other derived array.
        let t = myz.total();
        for (r, padded) in myz.as_mut_slice().chunks_exact_mut(t.nx).enumerate() {
            let (j, k) = (r % t.ny, r / t.ny);
            if (HALO..HALO + d.ny).contains(&j) && (HALO..HALO + d.nz).contains(&k) {
                padded[..HALO].fill(0.0);
                padded[HALO + d.nx..].fill(0.0);
            } else {
                padded.fill(0.0);
            }
        }
        self.rhox_inv = Some(rx);
        self.rhoy_inv = Some(ry);
        self.rhoz_inv = Some(rz);
        self.mu_xy = Some(mxy);
        self.mu_xz = Some(mxz);
        self.mu_yz = Some(myz);
    }

    /// Maximum P speed (interior) — for CFL checks.
    pub fn vp_max(&self) -> f64 {
        let (rho, lam, mu) = (self.rho.as_slice(), self.lam.as_slice(), self.mu.as_slice());
        let mut m = 0.0f64;
        for (_, _, row) in self.rho.interior_rows() {
            let cells = rho[row.clone()].iter().zip(&lam[row.clone()]).zip(&mu[row]);
            for ((&r, &l), &u) in cells {
                m = m.max(p_speed_sq(r, l, u));
            }
        }
        m.sqrt()
    }
}

/// The per-cell builders the row-slice ones above replaced, kept as the
/// reference they must equal bit for bit.
#[cfg(test)]
impl Medium {
    pub(crate) fn from_mesh_per_cell(mesh: &Mesh) -> Self {
        let dims = mesh.dims;
        let [mut rho, mut lam, mut mu, mut qs, mut qp] =
            std::array::from_fn(|_| Array3::new(dims, HALO));
        for k in 0..dims.nz {
            for j in 0..dims.ny {
                for i in 0..dims.nx {
                    let s = mesh.sample(i, j, k);
                    let (l, m) = lame_from_speeds(s.rho, s.vp, s.vs);
                    rho.set(i as isize, j as isize, k as isize, s.rho);
                    lam.set(i as isize, j as isize, k as isize, l);
                    mu.set(i as isize, j as isize, k as isize, m);
                    qs.set(i as isize, j as isize, k as isize, s.qs);
                    qp.set(i as isize, j as isize, k as isize, s.qp);
                }
            }
        }
        let mut med = Self {
            dims,
            h: mesh.h,
            rho,
            lam,
            mu,
            qs,
            qp,
            rhox_inv: None,
            rhoy_inv: None,
            rhoz_inv: None,
            mu_xy: None,
            mu_xz: None,
            mu_yz: None,
        };
        med.clamp_halos_per_cell();
        med
    }

    pub(crate) fn clamp_halos_per_cell(&mut self) {
        let d = self.dims;
        let h = HALO as isize;
        for arr in [&mut self.rho, &mut self.lam, &mut self.mu, &mut self.qs, &mut self.qp] {
            for k in -h..d.nz as isize + h {
                let kc = k.clamp(0, d.nz as isize - 1);
                for j in -h..d.ny as isize + h {
                    let jc = j.clamp(0, d.ny as isize - 1);
                    for i in -h..d.nx as isize + h {
                        let ic = i.clamp(0, d.nx as isize - 1);
                        if i == ic && j == jc && k == kc {
                            continue;
                        }
                        let v = arr.get(ic, jc, kc);
                        arr.set(i, j, k, v);
                    }
                }
            }
        }
    }

    pub(crate) fn precompute_per_cell(&mut self) {
        use awp_grid::media::harmonic_mean4;
        let d = self.dims;
        let [mut rx, mut ry, mut rz, mut mxy, mut mxz, mut myz] =
            std::array::from_fn(|_| Array3::new(d, HALO));
        let (rho, mu) = (&self.rho, &self.mu);
        for k in 0..d.nz as isize {
            for j in 0..d.ny as isize {
                for i in 0..d.nx as isize {
                    rx.set(i, j, k, 1.0 / (0.5 * (rho.get(i, j, k) + rho.get(i + 1, j, k))));
                    ry.set(i, j, k, 1.0 / (0.5 * (rho.get(i, j, k) + rho.get(i, j + 1, k))));
                    rz.set(i, j, k, 1.0 / (0.5 * (rho.get(i, j, k) + rho.get(i, j, k + 1))));
                    let m = |di, dj, dk| mu.get(i + di, j + dj, k + dk);
                    mxy.set(
                        i,
                        j,
                        k,
                        harmonic_mean4([m(0, 0, 0), m(1, 0, 0), m(0, 1, 0), m(1, 1, 0)]),
                    );
                    mxz.set(
                        i,
                        j,
                        k,
                        harmonic_mean4([m(0, 0, 0), m(1, 0, 0), m(0, 0, 1), m(1, 0, 1)]),
                    );
                    myz.set(
                        i,
                        j,
                        k,
                        harmonic_mean4([m(0, 0, 0), m(0, 1, 0), m(0, 0, 1), m(0, 1, 1)]),
                    );
                }
            }
        }
        self.rhox_inv = Some(rx);
        self.rhoy_inv = Some(ry);
        self.rhoz_inv = Some(rz);
        self.mu_xy = Some(mxy);
        self.mu_xz = Some(mxz);
        self.mu_yz = Some(myz);
    }

    pub(crate) fn vp_max_per_cell(&self) -> f64 {
        let d = self.dims;
        let mut m = 0.0f64;
        for k in 0..d.nz as isize {
            for j in 0..d.ny as isize {
                for i in 0..d.nx as isize {
                    let (rho, lam, mu) = (&self.rho, &self.lam, &self.mu);
                    m = m.max(p_speed_sq(rho.get(i, j, k), lam.get(i, j, k), mu.get(i, j, k)));
                }
            }
        }
        m.sqrt()
    }
}

#[cfg(test)]
mod ref_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use awp_cvm::mesh::MeshGenerator;
    use awp_cvm::model::{HomogeneousModel, LayeredModel};

    fn homo_medium(d: Dims3) -> Medium {
        let m = HomogeneousModel::rock();
        let mesh = MeshGenerator::new(&m, d, 100.0).generate();
        Medium::from_mesh(&mesh)
    }

    #[test]
    fn lame_values_at_centres() {
        let med = homo_medium(Dims3::new(3, 3, 3));
        let mu = med.mu.get(1, 1, 1);
        let lam = med.lam.get(1, 1, 1);
        // μ = ρ Vs², Vs = 3464 → μ ≈ 3.24e10.
        assert!((mu - 2700.0 * 3464.0f32 * 3464.0).abs() / mu < 1e-5);
        assert!(lam > 0.0);
    }

    #[test]
    fn halos_clamped_to_interior() {
        let med = homo_medium(Dims3::new(2, 2, 2));
        assert_eq!(med.rho.get(-2, -2, -2), med.rho.get(0, 0, 0));
        assert_eq!(med.mu.get(3, 3, 3), med.mu.get(1, 1, 1));
    }

    #[test]
    fn precompute_homogeneous_equals_pointwise() {
        let mut med = homo_medium(Dims3::new(4, 4, 4));
        med.precompute();
        let rho = med.rho.get(0, 0, 0);
        let mu = med.mu.get(0, 0, 0);
        let rx = med.rhox_inv.as_ref().unwrap().get(1, 1, 1);
        assert!((rx - 1.0 / rho).abs() / rx < 1e-6);
        let mxy = med.mu_xy.as_ref().unwrap().get(1, 1, 1);
        assert!((mxy - mu).abs() / mu < 1e-5);
    }

    #[test]
    fn harmonic_mu_at_interface_is_below_average() {
        let m = LayeredModel::loh1();
        let mesh = MeshGenerator::new(&m, Dims3::new(4, 4, 20), 100.0).generate();
        let mut med = Medium::from_mesh(&mesh);
        med.precompute();
        // σxz point straddling the k=9/10 interface (cell centres at 950
        // and 1050 m) mixes both μ values harmonically.
        let mu_soft = med.mu.get(1, 1, 9);
        let mu_hard = med.mu.get(1, 1, 10);
        let mxz = med.mu_xz.as_ref().unwrap().get(1, 1, 9);
        let arith = 0.5 * (mu_soft + mu_hard);
        assert!(mxz < arith, "harmonic {mxz} must be below arithmetic {arith}");
        assert!(mxz > mu_soft.min(mu_hard));
    }

    #[test]
    fn vp_max_matches_model() {
        let med = homo_medium(Dims3::new(3, 3, 3));
        assert!((med.vp_max() - 6000.0).abs() < 10.0, "vp {}", med.vp_max());
    }
}
