//! Coarse-grained memory-variable attenuation (paper §II.A; Day 1998;
//! Day & Bradley 2001).
//!
//! Each cell carries a single standard-linear-solid relaxation mechanism;
//! eight distinct relaxation times are distributed on a 2×2×2 spatial
//! pattern ("a large number of relaxation times (eight in our
//! calculations)"), so a propagating wave — which averages over
//! neighbouring cells — sees a composite, approximately
//! frequency-independent Q across the simulation band.
//!
//! Per stress component S with elastic increment ΔS over one step:
//!
//! ```text
//! ζ⁺ = a ζ + (1 − a) c (ΔS / Δt)        a = (2τ − Δt)/(2τ + Δt)
//! S ← S + ΔS − Δt ζ⁺                    c = κ / Q   (cell-dependent)
//! ```
//!
//! A single mechanism gives Q⁻¹(ω) ≈ c ωτ/(1 + ω²τ²); the global strength
//! κ is calibrated numerically at setup so the eight-mechanism composite
//! averages to the target 1/Q over the configured band.

use crate::medium::Medium;
use awp_grid::array3::Array3;
use awp_grid::dims::Idx3;
use awp_grid::HALO;

/// Number of coarse-grained relaxation mechanisms.
pub const N_MECH: usize = 8;

/// Precomputed per-cell attenuation coefficients.
#[derive(Debug, Clone)]
pub struct Attenuation {
    /// Memory-variable decay factor `a` per cell.
    pub decay: Array3,
    /// Anelastic strength `c = κ/Qs` for shear components.
    pub cs: Array3,
    /// Anelastic strength `c = κ/Qp` for normal components.
    pub cp: Array3,
}

impl Attenuation {
    /// Eight relaxation times spanning the band (log-spaced so the
    /// composite absorption is flat in log-frequency).
    pub fn relaxation_times(f_lo: f64, f_hi: f64) -> [f64; N_MECH] {
        assert!(f_lo > 0.0 && f_hi > f_lo, "need 0 < f_lo < f_hi");
        let t_hi = 1.0 / (2.0 * std::f64::consts::PI * f_lo);
        let t_lo = 1.0 / (2.0 * std::f64::consts::PI * f_hi);
        let mut taus = [0.0; N_MECH];
        for (m, t) in taus.iter_mut().enumerate() {
            let f = m as f64 / (N_MECH - 1) as f64;
            *t = t_lo * (t_hi / t_lo).powf(f);
        }
        taus
    }

    /// Composite single-cell absorption response `R(ω) = (1/8) Σ_m
    /// g_m(ω)`, `g = ωτ/(1+ω²τ²)`; κ scales this to 1/Q.
    fn band_response(taus: &[f64; N_MECH], omega: f64) -> f64 {
        taus.iter().map(|&t| omega * t / (1.0 + omega * omega * t * t)).sum::<f64>()
            / N_MECH as f64
    }

    /// Least-squares κ such that `κ · R(ω) ≈ 1` across the band.
    pub fn calibrate_kappa(f_lo: f64, f_hi: f64) -> f64 {
        let taus = Self::relaxation_times(f_lo, f_hi);
        let mut num = 0.0;
        let mut den = 0.0;
        for s in 0..32 {
            let f = f_lo * (f_hi / f_lo).powf(s as f64 / 31.0);
            let r = Self::band_response(&taus, 2.0 * std::f64::consts::PI * f);
            num += r;
            den += r * r;
        }
        num / den
    }

    /// Build the per-cell coefficient arrays. `origin` is the rank's
    /// global cell origin — mechanism assignment uses *global* parity so
    /// decomposed runs match serial ones bit for bit.
    pub fn new(med: &Medium, dt: f64, f_lo: f64, f_hi: f64, origin: Idx3) -> Self {
        let kappa = Self::calibrate_kappa(f_lo, f_hi);
        let decay_of = Self::relaxation_times(f_lo, f_hi)
            .map(|tau| ((2.0 * tau - dt) / (2.0 * tau + dt)) as f32);
        let d = med.dims;
        let [mut decay, mut cs, mut cp] = std::array::from_fn(|_| Array3::new(d, HALO));
        let (qs, qp) = (med.qs.as_slice(), med.qp.as_slice());
        for (j, k, row) in med.qs.interior_rows() {
            let yz = 2 * ((origin.j + j) % 2) + 4 * ((origin.k + k) % 2);
            let cells = decay.as_mut_slice()[row.clone()]
                .iter_mut()
                .zip(&mut cs.as_mut_slice()[row.clone()])
                .zip(&mut cp.as_mut_slice()[row.clone()])
                .zip(qs[row.clone()].iter().zip(&qp[row]));
            for (i, (((a, c_s), c_p), (&q_s, &q_p))) in cells.enumerate() {
                *a = decay_of[(origin.i + i) % 2 + yz];
                *c_s = (kappa / q_s.max(1.0) as f64) as f32;
                *c_p = (kappa / q_p.max(1.0) as f64) as f32;
            }
        }
        Self { decay, cs, cp }
    }

    /// The per-cell builder [`Attenuation::new`] replaced, kept as the
    /// reference it must equal bit for bit.
    #[cfg(test)]
    pub(crate) fn new_per_cell(med: &Medium, dt: f64, f_lo: f64, f_hi: f64, origin: Idx3) -> Self {
        let taus = Self::relaxation_times(f_lo, f_hi);
        let kappa = Self::calibrate_kappa(f_lo, f_hi);
        let d = med.dims;
        let mut decay = Array3::new(d, HALO);
        let mut cs = Array3::new(d, HALO);
        let mut cp = Array3::new(d, HALO);
        for k in 0..d.nz {
            for j in 0..d.ny {
                for i in 0..d.nx {
                    let (gi, gj, gk) = (origin.i + i, origin.j + j, origin.k + k);
                    let m = (gi % 2) + 2 * (gj % 2) + 4 * (gk % 2);
                    let tau = taus[m];
                    let a = ((2.0 * tau - dt) / (2.0 * tau + dt)) as f32;
                    let (ii, jj, kk) = (i as isize, j as isize, k as isize);
                    decay.set(ii, jj, kk, a);
                    let qs = med.qs.get(ii, jj, kk).max(1.0) as f64;
                    let qp = med.qp.get(ii, jj, kk).max(1.0) as f64;
                    cs.set(ii, jj, kk, (kappa / qs) as f32);
                    cp.set(ii, jj, kk, (kappa / qp) as f32);
                }
            }
        }
        Self { decay, cs, cp }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awp_cvm::mesh::MeshGenerator;
    use awp_cvm::model::HomogeneousModel;
    use awp_grid::dims::Dims3;

    #[test]
    fn relaxation_times_span_band() {
        let taus = Attenuation::relaxation_times(0.1, 2.0);
        let w = 2.0 * std::f64::consts::PI;
        assert!((taus[0] - 1.0 / (w * 2.0)).abs() < 1e-12);
        assert!((taus[7] - 1.0 / (w * 0.1)).abs() < 1e-12);
        for p in taus.windows(2) {
            assert!(p[1] > p[0], "log-spaced ascending");
        }
    }

    #[test]
    fn calibrated_response_is_flat_over_band() {
        let (f_lo, f_hi) = (0.1, 2.0);
        let kappa = Attenuation::calibrate_kappa(f_lo, f_hi);
        let taus = Attenuation::relaxation_times(f_lo, f_hi);
        for s in 0..16 {
            let f = f_lo * (f_hi / f_lo).powf(s as f64 / 15.0);
            let r = kappa * Attenuation::band_response(&taus, 2.0 * std::f64::consts::PI * f);
            assert!((r - 1.0).abs() < 0.25, "f={f}: response {r} not ~1");
        }
    }

    #[test]
    fn coefficients_scale_with_q() {
        let model = HomogeneousModel::new(4000.0, 2000.0, 2500.0);
        let mesh = MeshGenerator::new(&model, Dims3::new(4, 4, 4), 100.0).generate();
        let med = Medium::from_mesh(&mesh);
        let at = Attenuation::new(&med, 1e-3, 0.1, 2.0, Idx3::new(0, 0, 0));
        // Qs = 50·2 = 100, Qp = 200 → cs = 2 cp.
        let cs = at.cs.get(1, 1, 1);
        let cp = at.cp.get(1, 1, 1);
        assert!((cs / cp - 2.0).abs() < 1e-4, "cs {cs} cp {cp}");
        assert!(cs > 0.0 && cs < 1.0);
    }

    #[test]
    fn decay_in_unit_interval() {
        let model = HomogeneousModel::rock();
        let mesh = MeshGenerator::new(&model, Dims3::new(4, 4, 4), 100.0).generate();
        let med = Medium::from_mesh(&mesh);
        let at = Attenuation::new(&med, 1e-3, 0.1, 2.0, Idx3::new(0, 0, 0));
        for k in 0..4 {
            for j in 0..4 {
                for i in 0..4 {
                    let a = at.decay.get(i, j, k);
                    assert!(a > -1.0 && a < 1.0, "a={a}");
                }
            }
        }
    }

    #[test]
    fn mechanism_pattern_uses_global_parity() {
        let model = HomogeneousModel::rock();
        let mesh = MeshGenerator::new(&model, Dims3::new(4, 4, 4), 100.0).generate();
        let med = Medium::from_mesh(&mesh);
        let a0 = Attenuation::new(&med, 1e-3, 0.1, 2.0, Idx3::new(0, 0, 0));
        let a1 = Attenuation::new(&med, 1e-3, 0.1, 2.0, Idx3::new(1, 0, 0));
        // Shifting the origin by one flips the x-parity: local cell 0 in the
        // shifted rank must match local cell 1 in the unshifted one.
        assert_eq!(a1.decay.get(0, 0, 0), a0.decay.get(1, 0, 0));
        assert_ne!(a1.decay.get(0, 0, 0), a0.decay.get(0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "f_lo < f_hi")]
    fn bad_band_rejected() {
        Attenuation::relaxation_times(2.0, 0.1);
    }
}
