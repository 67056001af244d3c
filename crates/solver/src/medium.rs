//! Per-rank material description and derived update coefficients.

use awp_cvm::mesh::Mesh;
use awp_grid::array3::Array3;
use awp_grid::dims::Dims3;
use awp_grid::media::{harmonic_mean4, lame_from_speeds};
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
        let mut rho = Array3::new(dims, HALO);
        let mut lam = Array3::new(dims, HALO);
        let mut mu = Array3::new(dims, HALO);
        let mut qs = Array3::new(dims, HALO);
        let mut qp = Array3::new(dims, HALO);
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
        med.clamp_halos();
        med
    }

    /// Fill all halo cells of the raw arrays with the nearest interior
    /// value (correct at global boundaries; placeholder at rank seams).
    pub fn clamp_halos(&mut self) {
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

    /// Precompute reciprocal densities and harmonic shear moduli at
    /// staggered points (the §IV.B arithmetic optimisation). Must run
    /// after material halos are final.
    pub fn precompute(&mut self) {
        let d = self.dims;
        let mut rx = Array3::new(d, HALO);
        let mut ry = Array3::new(d, HALO);
        let mut rz = Array3::new(d, HALO);
        let mut mxy = Array3::new(d, HALO);
        let mut mxz = Array3::new(d, HALO);
        let mut myz = Array3::new(d, HALO);
        for k in 0..d.nz as isize {
            for j in 0..d.ny as isize {
                for i in 0..d.nx as isize {
                    rx.set(i, j, k, 1.0 / (0.5 * (self.rho.get(i, j, k) + self.rho.get(i + 1, j, k))));
                    ry.set(i, j, k, 1.0 / (0.5 * (self.rho.get(i, j, k) + self.rho.get(i, j + 1, k))));
                    rz.set(i, j, k, 1.0 / (0.5 * (self.rho.get(i, j, k) + self.rho.get(i, j, k + 1))));
                    mxy.set(
                        i,
                        j,
                        k,
                        harmonic_mean4([
                            self.mu.get(i, j, k),
                            self.mu.get(i + 1, j, k),
                            self.mu.get(i, j + 1, k),
                            self.mu.get(i + 1, j + 1, k),
                        ]),
                    );
                    mxz.set(
                        i,
                        j,
                        k,
                        harmonic_mean4([
                            self.mu.get(i, j, k),
                            self.mu.get(i + 1, j, k),
                            self.mu.get(i, j, k + 1),
                            self.mu.get(i + 1, j, k + 1),
                        ]),
                    );
                    myz.set(
                        i,
                        j,
                        k,
                        harmonic_mean4([
                            self.mu.get(i, j, k),
                            self.mu.get(i, j + 1, k),
                            self.mu.get(i, j, k + 1),
                            self.mu.get(i, j + 1, k + 1),
                        ]),
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

    /// Maximum P speed (interior) — for CFL checks.
    pub fn vp_max(&self) -> f64 {
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
