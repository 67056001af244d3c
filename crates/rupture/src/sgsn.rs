//! The spontaneous-rupture solver.
//!
//! A velocity–stress staggered-grid solver (2nd-order operators — the
//! paper's own accuracy near the fault, §II.C) with a vertical planar
//! fault on the σxy node plane. The fault condition is the
//! traction-at-split-node balance in its staggered "thick-fault" form
//! (the formulation of Olsen's original dynamic code that SGSN verified
//! against): after every stress update the total shear traction on each
//! fault node is bounded by the slip-weakening strength, and slip
//! accumulates from the velocity jump across the fault plane. Rupture
//! nucleates spontaneously where the prestress exceeds strength and
//! propagates (or arrests, or runs super-shear) according to the stress
//! and friction fields — no kinematic prescription anywhere.

use crate::outputs::RuptureResult;
use crate::prestress::FaultPrestress;
use awp_grid::array3::Array3;
use awp_grid::dims::Dims3;
use awp_grid::fpmode::{self, FlushGuard};
use awp_grid::HALO;
use serde::{Deserialize, Serialize};

/// 1-D (depth-only) medium for the rupture box — the paper embeds the M8
/// fault "in a seismic geologic model representing the average
/// compressional-velocity, shear-velocity and density along the SAF".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DepthModel {
    /// Per-depth-cell (ρ, Vp, Vs), length ≥ nz.
    pub layers: Vec<(f64, f64, f64)>,
}

impl DepthModel {
    pub fn uniform(nz: usize, rho: f64, vp: f64, vs: f64) -> Self {
        Self { layers: vec![(rho, vp, vs); nz] }
    }

    /// A SAF-average-like gradient: soft near the surface, hard rock at
    /// depth.
    pub fn saf_average(nz: usize, h: f64) -> Self {
        let layers = (0..nz)
            .map(|k| {
                let z = (k as f64 + 0.5) * h;
                let vs = (1800.0 + (3500.0 - 1800.0) * (z / 8000.0).min(1.0)).min(3500.0);
                let vp = vs * 1.732;
                let rho = 2400.0 + 300.0 * (z / 8000.0).min(1.0);
                (rho, vp, vs)
            })
            .collect();
        Self { layers }
    }

    pub fn rho(&self, k: usize) -> f64 {
        self.layers[k.min(self.layers.len() - 1)].0
    }

    pub fn vp(&self, k: usize) -> f64 {
        self.layers[k.min(self.layers.len() - 1)].1
    }

    pub fn vs(&self, k: usize) -> f64 {
        self.layers[k.min(self.layers.len() - 1)].2
    }

    pub fn mu(&self, k: usize) -> f64 {
        let (rho, _, vs) = self.layers[k.min(self.layers.len() - 1)];
        rho * vs * vs
    }

    pub fn lam(&self, k: usize) -> f64 {
        let (rho, vp, vs) = self.layers[k.min(self.layers.len() - 1)];
        rho * (vp * vp - 2.0 * vs * vs)
    }

    pub fn vp_max(&self) -> f64 {
        self.layers.iter().map(|l| l.1).fold(0.0, f64::max)
    }
}

/// Rupture-run configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuptureConfig {
    /// Grid extent of the rupture box.
    pub dims: Dims3,
    /// Grid spacing (m); M8 used 100 m, miniatures use coarser.
    pub h: f64,
    /// Time step (s).
    pub dt: f64,
    pub steps: usize,
    /// Fault-normal plane index: the fault is the σxy plane between rows
    /// `j0` and `j0 + 1`.
    pub j0: usize,
    /// Along-strike node range of the frictional fault.
    pub i_range: (usize, usize),
    /// Down-dip node range (k = 0 touches the free surface).
    pub k_range: (usize, usize),
    /// Sponge width on the sides/bottom.
    pub sponge_width: usize,
    /// Slip-rate threshold defining rupture time (m/s); the paper's
    /// standard is 1 mm/s.
    pub rupture_threshold: f64,
    /// Record slip-rate histories every this many steps.
    pub record_decimation: usize,
}

impl RuptureConfig {
    /// CFL-safe dt for a model.
    pub fn stable_dt(h: f64, model: &DepthModel) -> f64 {
        0.45 * h / (3f64.sqrt() * model.vp_max()) * 3f64.sqrt() // = 0.45 h / vp_max
    }
}

/// The rupture solver state.
pub struct RuptureSolver {
    pub cfg: RuptureConfig,
    pub model: DepthModel,
    pub prestress: FaultPrestress,
    vx: Array3,
    vy: Array3,
    vz: Array3,
    sxx: Array3,
    syy: Array3,
    szz: Array3,
    sxy: Array3,
    sxz: Array3,
    syz: Array3,
    /// Fault-local state (x-fastest over the fault extent).
    slip: Vec<f64>,
    sliprate: Vec<f64>,
    peak_sliprate: Vec<f64>,
    rupture_time: Vec<f64>,
    /// Decimated slip-rate histories per fault node.
    histories: Vec<Vec<f32>>,
    step: usize,
    /// Sponge profiles.
    gx: Vec<f32>,
    gy: Vec<f32>,
    gz: Vec<f32>,
}

impl RuptureSolver {
    pub fn new(cfg: RuptureConfig, model: DepthModel, prestress: FaultPrestress) -> Self {
        let (i0, i1) = cfg.i_range;
        let (k0, k1) = cfg.k_range;
        assert!(i1 > i0 && k1 > k0, "empty fault");
        assert!(i1 <= cfg.dims.nx && k1 <= cfg.dims.nz && cfg.j0 + 1 < cfg.dims.ny);
        assert_eq!(prestress.nx, i1 - i0, "prestress extent mismatch (x)");
        assert_eq!(prestress.nz, k1 - k0, "prestress extent mismatch (z)");
        let dt_max = 0.5 * cfg.h / (3f64.sqrt() * model.vp_max());
        assert!(cfg.dt <= dt_max * 1.2, "dt {} unstable (max ≈ {dt_max})", cfg.dt);
        let nf = (i1 - i0) * (k1 - k0);
        let d = cfg.dims;
        let cerjan = |n: usize, idx: usize, lo: bool, hi: bool, w: usize| -> f32 {
            let a = (-(0.92f64).ln()).sqrt() / w.max(1) as f64;
            let mut g = 1.0f64;
            if lo && idx < w {
                let dd = (w - idx) as f64;
                g *= (-(a * dd) * (a * dd)).exp();
            }
            if hi && idx + w >= n {
                let dd = (idx + w + 1 - n) as f64;
                g *= (-(a * dd) * (a * dd)).exp();
            }
            g as f32
        };
        let w = cfg.sponge_width;
        Self {
            gx: (0..d.nx).map(|i| cerjan(d.nx, i, true, true, w)).collect(),
            gy: (0..d.ny).map(|j| cerjan(d.ny, j, true, true, w)).collect(),
            gz: (0..d.nz).map(|k| cerjan(d.nz, k, false, true, w)).collect(),
            vx: Array3::new(d, HALO),
            vy: Array3::new(d, HALO),
            vz: Array3::new(d, HALO),
            sxx: Array3::new(d, HALO),
            syy: Array3::new(d, HALO),
            szz: Array3::new(d, HALO),
            sxy: Array3::new(d, HALO),
            sxz: Array3::new(d, HALO),
            syz: Array3::new(d, HALO),
            slip: vec![0.0; nf],
            sliprate: vec![0.0; nf],
            peak_sliprate: vec![0.0; nf],
            rupture_time: vec![f64::INFINITY; nf],
            histories: vec![Vec::new(); nf],
            step: 0,
            cfg,
            model,
            prestress,
        }
    }

    #[inline]
    fn fault_idx(&self, i: usize, k: usize) -> usize {
        (i - self.cfg.i_range.0) + (self.cfg.i_range.1 - self.cfg.i_range.0) * (k - self.cfg.k_range.0)
    }

    /// One time step.
    pub fn step(&mut self) {
        let _ftz = FlushGuard::enter();
        let d = self.cfg.dims;
        let dth = (self.cfg.dt / self.cfg.h) as f32;
        let t = self.step as f64 * self.cfg.dt;

        // --- Velocity update (2nd order) ---
        for k in 0..d.nz as isize {
            debug_assert!(fpmode::is_flushing());
            let rho = self.model.rho(k as usize) as f32;
            let rho_z = 0.5 * (rho + self.model.rho((k + 1) as usize) as f32);
            for j in 0..d.ny as isize {
                for i in 0..d.nx as isize {
                    let dvx = (self.sxx.get(i + 1, j, k) - self.sxx.get(i, j, k))
                        + (self.sxy.get(i, j, k) - self.sxy.get(i, j - 1, k))
                        + (self.sxz.get(i, j, k) - self.sxz.get(i, j, k - 1));
                    self.vx.add(i, j, k, dth / rho * dvx);
                    let dvy = (self.sxy.get(i, j, k) - self.sxy.get(i - 1, j, k))
                        + (self.syy.get(i, j + 1, k) - self.syy.get(i, j, k))
                        + (self.syz.get(i, j, k) - self.syz.get(i, j, k - 1));
                    self.vy.add(i, j, k, dth / rho * dvy);
                    let dvz = (self.sxz.get(i, j, k) - self.sxz.get(i - 1, j, k))
                        + (self.syz.get(i, j, k) - self.syz.get(i, j - 1, k))
                        + (self.szz.get(i, j, k + 1) - self.szz.get(i, j, k));
                    self.vz.add(i, j, k, dth / rho_z * dvz);
                }
            }
        }
        // Free-surface velocity images (top).
        for j in 0..d.ny as isize {
            for i in 0..d.nx as isize {
                let vx0 = self.vx.get(i, j, 0);
                self.vx.set(i, j, -1, vx0);
                let vy0 = self.vy.get(i, j, 0);
                self.vy.set(i, j, -1, vy0);
                let lam = self.model.lam(0) as f32;
                let mu = self.model.mu(0) as f32;
                let ratio = lam / (lam + 2.0 * mu);
                let exx = (self.vx.get(i, j, 0) - self.vx.get(i - 1, j, 0)) / self.cfg.h as f32;
                let eyy = (self.vy.get(i, j, 0) - self.vy.get(i, j - 1, 0)) / self.cfg.h as f32;
                let vz0 = self.vz.get(i, j, 0);
                self.vz.set(i, j, -1, vz0 + ratio * self.cfg.h as f32 * (exx + eyy));
            }
        }

        // --- Fault slip-rate measurement (velocity jump across the σxy
        // plane at j0) and rupture-time bookkeeping ---
        let (i0, i1) = self.cfg.i_range;
        let (k0, k1) = self.cfg.k_range;
        let j0 = self.cfg.j0 as isize;
        for k in k0..k1 {
            for i in i0..i1 {
                let rate =
                    (self.vx.get(i as isize, j0 + 1, k as isize) - self.vx.get(i as isize, j0, k as isize)) as f64;
                let f = self.fault_idx(i, k);
                self.sliprate[f] = rate;
                if rate > self.peak_sliprate[f] {
                    self.peak_sliprate[f] = rate;
                }
                if rate > self.cfg.rupture_threshold && self.rupture_time[f].is_infinite() {
                    self.rupture_time[f] = t;
                }
                // Slip accumulates forward motion only (the prestress is
                // uni-directional).
                if rate > 0.0 {
                    self.slip[f] += rate * self.cfg.dt;
                }
                if self.step % self.cfg.record_decimation == 0 {
                    self.histories[f].push(rate.max(0.0) as f32);
                }
            }
        }

        // --- Stress update (2nd order) ---
        for k in 0..d.nz as isize {
            debug_assert!(fpmode::is_flushing());
            let lam = self.model.lam(k as usize) as f32;
            let mu = self.model.mu(k as usize) as f32;
            let mu_z = 0.5 * (mu + self.model.mu((k + 1) as usize) as f32);
            for j in 0..d.ny as isize {
                for i in 0..d.nx as isize {
                    let exx = self.vx.get(i, j, k) - self.vx.get(i - 1, j, k);
                    let eyy = self.vy.get(i, j, k) - self.vy.get(i, j - 1, k);
                    let ezz = self.vz.get(i, j, k) - self.vz.get(i, j, k - 1);
                    let tr = exx + eyy + ezz;
                    self.sxx.add(i, j, k, dth * (lam * tr + 2.0 * mu * exx));
                    self.syy.add(i, j, k, dth * (lam * tr + 2.0 * mu * eyy));
                    self.szz.add(i, j, k, dth * (lam * tr + 2.0 * mu * ezz));
                    self.sxy.add(
                        i,
                        j,
                        k,
                        dth * mu
                            * ((self.vx.get(i, j + 1, k) - self.vx.get(i, j, k))
                                + (self.vy.get(i + 1, j, k) - self.vy.get(i, j, k))),
                    );
                    self.sxz.add(
                        i,
                        j,
                        k,
                        dth * mu_z
                            * ((self.vx.get(i, j, k + 1) - self.vx.get(i, j, k))
                                + (self.vz.get(i + 1, j, k) - self.vz.get(i, j, k))),
                    );
                    self.syz.add(
                        i,
                        j,
                        k,
                        dth * mu_z
                            * ((self.vy.get(i, j, k + 1) - self.vy.get(i, j, k))
                                + (self.vz.get(i, j + 1, k) - self.vz.get(i, j, k))),
                    );
                }
            }
        }

        // --- Fault traction bound (the SGSN friction balance) ---
        for k in k0..k1 {
            for i in i0..i1 {
                let f = self.fault_idx(i, k);
                let p = self.prestress.idx(i - i0, k - k0);
                let mu_fric = {
                    let s = (self.slip[f] / self.prestress.dc[p]).clamp(0.0, 1.0);
                    self.prestress.mu_s[p]
                        + (self.prestress.mu_d[p] - self.prestress.mu_s[p]) * s
                };
                let strength = self.prestress.cohesion
                    + mu_fric * self.prestress.sigma_n[p].max(0.0);
                let total =
                    self.sxy.get(i as isize, j0, k as isize) as f64 + self.prestress.tau0[p];
                if total > strength {
                    self.sxy.set(i as isize, j0, k as isize, (strength - self.prestress.tau0[p]) as f32);
                } else if total < -strength {
                    self.sxy.set(i as isize, j0, k as isize, (-strength - self.prestress.tau0[p]) as f32);
                }
            }
        }

        // Free-surface stress imaging.
        for j in 0..d.ny as isize {
            for i in 0..d.nx as isize {
                self.szz.set(i, j, 0, 0.0);
                let s1 = self.szz.get(i, j, 1);
                self.szz.set(i, j, -1, -s1);
                let x0 = self.sxz.get(i, j, 0);
                self.sxz.set(i, j, -1, -x0);
                let y0 = self.syz.get(i, j, 0);
                self.syz.set(i, j, -1, -y0);
            }
        }

        // Sponge.
        for k in 0..d.nz {
            let gk = self.gz[k];
            for j in 0..d.ny {
                let gjk = self.gy[j] * gk;
                for i in 0..d.nx {
                    let g = self.gx[i] * gjk;
                    if g < 1.0 {
                        let (ii, jj, kk) = (i as isize, j as isize, k as isize);
                        for arr in [
                            &mut self.vx,
                            &mut self.vy,
                            &mut self.vz,
                            &mut self.sxx,
                            &mut self.syy,
                            &mut self.szz,
                            &mut self.sxy,
                            &mut self.sxz,
                            &mut self.syz,
                        ] {
                            let v = arr.get(ii, jj, kk);
                            arr.set(ii, jj, kk, v * g);
                        }
                    }
                }
            }
        }
        self.step += 1;
    }

    /// Run to completion and collect the results.
    pub fn run(mut self) -> RuptureResult {
        for _ in 0..self.cfg.steps {
            self.step();
        }
        let (i0, i1) = self.cfg.i_range;
        let (k0, k1) = self.cfg.k_range;
        let mu: Vec<f64> = (k0..k1).map(|k| self.model.mu(k)).collect();
        RuptureResult::assemble(
            i1 - i0,
            k1 - k0,
            self.cfg.h,
            self.cfg.dt * self.cfg.record_decimation as f64,
            self.slip,
            self.peak_sliprate,
            self.rupture_time,
            self.histories,
            &mu,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prestress::PrestressConfig;

    fn small_setup(seed: u64, reload_mean: f64) -> (RuptureConfig, DepthModel, FaultPrestress) {
        let h = 500.0;
        let dims = Dims3::new(80, 24, 24);
        let model = DepthModel::uniform(dims.nz, 2700.0, 6000.0, 3464.0);
        let mut pc = PrestressConfig::m8_like(60, 16, h, seed);
        pc.hypo = (12, 8);
        pc.nucleation_radius = 3.0 * h;
        pc.reload_mean = reload_mean;
        pc.reload_amp = 0.15;
        let ps = FaultPrestress::build(&pc);
        let cfg = RuptureConfig {
            dims,
            h,
            dt: 0.022,
            steps: 320,
            j0: 12,
            i_range: (10, 70),
            k_range: (0, 16),
            sponge_width: 6,
            rupture_threshold: 1e-3,
            record_decimation: 2,
        };
        (cfg, model, ps)
    }

    #[test]
    fn rupture_propagates_from_hypocentre() {
        let (cfg, model, ps) = small_setup(7, 0.62);
        let res = RuptureSolver::new(cfg, model, ps).run();
        // The hypocentre ruptures first.
        let t_hypo = res.rupture_time(12, 8);
        assert!(t_hypo.is_finite() && t_hypo < 0.5, "hypocentre time {t_hypo}");
        // Distant along-strike nodes rupture later, in order.
        let t_mid = res.rupture_time(30, 8);
        let t_far = res.rupture_time(50, 8);
        assert!(t_mid.is_finite(), "rupture must reach mid-fault");
        assert!(t_far.is_finite(), "rupture must traverse the fault");
        assert!(t_hypo < t_mid && t_mid < t_far, "{t_hypo} {t_mid} {t_far}");
    }

    #[test]
    fn stepping_leaves_no_subnormal_and_the_callers_mode_alone() {
        let (cfg, model, ps) = small_setup(7, 0.62);
        let before = fpmode::control_word();
        let mut solver = RuptureSolver::new(cfg, model, ps);
        // 60 steps in, the faint leading edge is still crossing the box:
        // without the guard ~7000 values here are subnormal.
        for _ in 0..60 {
            solver.step();
        }
        assert_eq!(fpmode::control_word(), before);
        let s = &solver;
        let fields = [&s.vx, &s.vy, &s.vz, &s.sxx, &s.syy, &s.szz, &s.sxy, &s.sxz, &s.syz];
        assert!(s.vx.max_abs() > 0.0, "the fault must have radiated");
        let subnormal: usize = fields
            .iter()
            .map(|f| f.as_slice().iter().filter(|v| v.is_subnormal()).count())
            .sum();
        assert_eq!(subnormal, 0, "subnormal wavefield values after 60 steps");
    }

    #[test]
    fn rupture_speed_is_physical() {
        let (cfg, model, ps) = small_setup(7, 0.62);
        let h = cfg.h;
        let res = RuptureSolver::new(cfg, model, ps).run();
        let t1 = res.rupture_time(25, 8);
        let t2 = res.rupture_time(45, 8);
        let v = 20.0 * h / (t2 - t1);
        // Between the Rayleigh floor and P ceiling.
        assert!(v > 1500.0 && v < 6500.0, "rupture speed {v} m/s");
    }

    #[test]
    fn low_prestress_arrests() {
        // Mean reload barely above residual: the nucleation patch fires
        // but the rupture cannot sustain itself to the fault ends.
        let (mut cfg, model, ps) = small_setup(7, 0.08);
        cfg.steps = 300;
        let res = RuptureSolver::new(cfg, model, ps).run();
        assert!(
            !res.rupture_time(55, 8).is_finite(),
            "far node should never rupture at near-residual prestress"
        );
        // But the patch itself slipped a little.
        assert!(res.slip(12, 8) > 0.0);
    }

    #[test]
    fn higher_prestress_ruptures_faster_and_slips_more() {
        let (cfg_lo, model, ps_lo) = small_setup(7, 0.5);
        let (cfg_hi, _, ps_hi) = small_setup(7, 0.85);
        let lo = RuptureSolver::new(cfg_lo, model.clone(), ps_lo).run();
        let hi = RuptureSolver::new(cfg_hi, model, ps_hi).run();
        assert!(hi.mean_slip() > lo.mean_slip(), "{} vs {}", hi.mean_slip(), lo.mean_slip());
        let t_lo = lo.rupture_time(50, 8);
        let t_hi = hi.rupture_time(50, 8);
        if t_lo.is_finite() && t_hi.is_finite() {
            assert!(t_hi <= t_lo, "higher prestress should not be slower");
        } else {
            assert!(t_hi.is_finite(), "high-prestress run must traverse");
        }
    }

    #[test]
    fn moment_and_magnitude_are_consistent() {
        let (cfg, model, ps) = small_setup(7, 0.62);
        let res = RuptureSolver::new(cfg, model, ps).run();
        let m0 = res.moment();
        assert!(m0 > 0.0);
        // M0 = Σ μ A D ⇒ with μ ≈ 3.24e10, A = 250 000 m², mean slip D:
        let expect = 3.24e10 * 250_000.0 * res.mean_slip() * (60.0 * 16.0);
        assert!((m0 / expect - 1.0).abs() < 0.25, "M0 {m0:.3e} vs {expect:.3e}");
        let mw = res.magnitude();
        assert!(mw > 5.0 && mw < 8.5, "Mw {mw}");
    }

    #[test]
    fn slip_rate_histories_recorded() {
        let (cfg, model, ps) = small_setup(7, 0.62);
        let dec = cfg.record_decimation;
        let steps = cfg.steps;
        let res = RuptureSolver::new(cfg, model, ps).run();
        let h = res.history(12, 8);
        assert_eq!(h.len(), steps / dec);
        assert!(h.iter().any(|&v| v > 0.0), "hypocentre must slip");
        // Peak slip rate matches the history peak within decimation loss.
        let hist_peak = h.iter().cloned().fold(0.0f32, f32::max) as f64;
        assert!(res.peak_sliprate(12, 8) >= hist_peak * 0.99);
    }

    #[test]
    fn healed_fault_stops_slipping() {
        let (cfg, model, ps) = small_setup(7, 0.62);
        let dec = cfg.record_decimation;
        let res = RuptureSolver::new(cfg, model, ps).run();
        // Late-time slip rate at the hypocentre returns near zero.
        let h = res.history(12, 8);
        let n = h.len();
        let late = h[(n * 9 / 10)..].iter().cloned().fold(0.0f32, f32::max);
        let peak = h.iter().cloned().fold(0.0f32, f32::max);
        assert!(late < 0.2 * peak, "late {late} vs peak {peak} (dec {dec})");
    }
}
