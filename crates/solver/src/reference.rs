//! An independent reference solver for cross-verification (paper §II.F,
//! Fig. 3).
//!
//! The paper validates AWP-ODC against two other codes (a finite-element
//! code and another FD code) on the ShakeOut scenario. We stand in a
//! deliberately *independent implementation*: second-order staggered-grid
//! operators, f64 arithmetic, its own array layout and loop structure —
//! sharing no code with the production kernels — so agreement between the
//! two is meaningful evidence of correctness (the aVal acceptance test
//! compares their waveforms with an L2 misfit).

use awp_cvm::mesh::Mesh;
use awp_grid::dims::{Dims3, Idx3};
use awp_grid::fpmode::FlushGuard;
use awp_source::kinematic::KinematicSource;
use crate::stations::{Seismogram, Station};

/// Simple halo-1, f64 3-D array (x fastest).
struct A3 {
    nx: usize,
    ny: usize,
    nz: usize,
    sx: usize,
    sy: usize,
    data: Vec<f64>,
}

impl A3 {
    fn new(d: Dims3) -> Self {
        let sx = d.nx + 2;
        let sy = d.ny + 2;
        Self { nx: d.nx, ny: d.ny, nz: d.nz, sx, sy, data: vec![0.0; sx * sy * (d.nz + 2)] }
    }

    #[inline]
    fn at(&self, i: isize, j: isize, k: isize) -> f64 {
        debug_assert!(i >= -1 && i <= self.nx as isize);
        debug_assert!(j >= -1 && j <= self.ny as isize);
        debug_assert!(k >= -1 && k <= self.nz as isize);
        self.data[(i + 1) as usize + self.sx * ((j + 1) as usize + self.sy * (k + 1) as usize)]
    }

    #[inline]
    fn set(&mut self, i: isize, j: isize, k: isize, v: f64) {
        let idx =
            (i + 1) as usize + self.sx * ((j + 1) as usize + self.sy * (k + 1) as usize);
        self.data[idx] = v;
    }

    #[inline]
    fn add(&mut self, i: isize, j: isize, k: isize, v: f64) {
        let idx =
            (i + 1) as usize + self.sx * ((j + 1) as usize + self.sy * (k + 1) as usize);
        self.data[idx] += v;
    }
}

/// The reference solver: O(2,2) staggered velocity–stress with sponge
/// boundaries and a stress-imaging free surface.
pub struct ReferenceSolver {
    d: Dims3,
    h: f64,
    dt: f64,
    rho: A3,
    lam: A3,
    mu: A3,
    vx: A3,
    vy: A3,
    vz: A3,
    sxx: A3,
    syy: A3,
    szz: A3,
    sxy: A3,
    sxz: A3,
    syz: A3,
    sponge_width: usize,
    sponge_amp: f64,
    step: usize,
}

impl ReferenceSolver {
    pub fn new(mesh: &Mesh, dt: f64, sponge_width: usize, sponge_amp: f64) -> Self {
        let d = mesh.dims;
        let mut rho = A3::new(d);
        let mut lam = A3::new(d);
        let mut mu = A3::new(d);
        for k in 0..d.nz {
            for j in 0..d.ny {
                for i in 0..d.nx {
                    let s = mesh.sample(i, j, k);
                    let l = s.rho as f64 * (s.vp as f64 * s.vp as f64 - 2.0 * s.vs as f64 * s.vs as f64);
                    let m = s.rho as f64 * s.vs as f64 * s.vs as f64;
                    rho.set(i as isize, j as isize, k as isize, s.rho as f64);
                    lam.set(i as isize, j as isize, k as isize, l);
                    mu.set(i as isize, j as isize, k as isize, m);
                }
            }
        }
        // Clamp material halos.
        for arr in [&mut rho, &mut lam, &mut mu] {
            for k in -1..=d.nz as isize {
                let kc = k.clamp(0, d.nz as isize - 1);
                for j in -1..=d.ny as isize {
                    let jc = j.clamp(0, d.ny as isize - 1);
                    for i in -1..=d.nx as isize {
                        let ic = i.clamp(0, d.nx as isize - 1);
                        if (i, j, k) != (ic, jc, kc) {
                            let v = arr.at(ic, jc, kc);
                            arr.set(i, j, k, v);
                        }
                    }
                }
            }
        }
        Self {
            d,
            h: mesh.h,
            dt,
            rho,
            lam,
            mu,
            vx: A3::new(d),
            vy: A3::new(d),
            vz: A3::new(d),
            sxx: A3::new(d),
            syy: A3::new(d),
            szz: A3::new(d),
            sxy: A3::new(d),
            sxz: A3::new(d),
            syz: A3::new(d),
            sponge_width,
            sponge_amp,
            step: 0,
        }
    }

    fn damping(&self, g: usize, n: usize) -> f64 {
        let w = self.sponge_width;
        if w == 0 {
            return 1.0;
        }
        let a = (-self.sponge_amp.ln()).sqrt() / w as f64;
        let mut v = 1.0;
        if g < w {
            let d = (w - g) as f64;
            v *= (-(a * d) * (a * d)).exp();
        }
        if g + w >= n {
            let d = (g + w + 1 - n) as f64;
            v *= (-(a * d) * (a * d)).exp();
        }
        v
    }

    /// Advance one step, injecting the source at time `t`.
    pub fn step(&mut self, source: &KinematicSource) {
        let _ftz = FlushGuard::enter();
        let t = self.step as f64 * self.dt;
        let dth = self.dt / self.h;
        let d = self.d;
        // Velocity update (O2: v += dt/ρ̄ · δσ/h).
        for k in 0..d.nz as isize {
            for j in 0..d.ny as isize {
                for i in 0..d.nx as isize {
                    let rx = 0.5 * (self.rho.at(i, j, k) + self.rho.at(i + 1, j, k));
                    let ry = 0.5 * (self.rho.at(i, j, k) + self.rho.at(i, j + 1, k));
                    let rz = 0.5 * (self.rho.at(i, j, k) + self.rho.at(i, j, k + 1));
                    let dvx = (self.sxx.at(i + 1, j, k) - self.sxx.at(i, j, k))
                        + (self.sxy.at(i, j, k) - self.sxy.at(i, j - 1, k))
                        + (self.sxz.at(i, j, k) - self.sxz.at(i, j, k - 1));
                    let dvy = (self.sxy.at(i, j, k) - self.sxy.at(i - 1, j, k))
                        + (self.syy.at(i, j + 1, k) - self.syy.at(i, j, k))
                        + (self.syz.at(i, j, k) - self.syz.at(i, j, k - 1));
                    let dvz = (self.sxz.at(i, j, k) - self.sxz.at(i - 1, j, k))
                        + (self.syz.at(i, j, k) - self.syz.at(i, j - 1, k))
                        + (self.szz.at(i, j, k + 1) - self.szz.at(i, j, k));
                    self.vx.add(i, j, k, dth / rx * dvx);
                    self.vy.add(i, j, k, dth / ry * dvy);
                    self.vz.add(i, j, k, dth / rz * dvz);
                }
            }
        }
        // Free-surface velocity images.
        for j in 0..d.ny as isize {
            for i in 0..d.nx as isize {
                let vx0 = self.vx.at(i, j, 0);
                self.vx.set(i, j, -1, vx0);
                let vy0 = self.vy.at(i, j, 0);
                self.vy.set(i, j, -1, vy0);
                let lam = self.lam.at(i, j, 0);
                let mu = self.mu.at(i, j, 0);
                let ratio = lam / (lam + 2.0 * mu);
                let exx = (self.vx.at(i, j, 0) - self.vx.at(i - 1, j, 0)) / self.h;
                let eyy = (self.vy.at(i, j, 0) - self.vy.at(i, j - 1, 0)) / self.h;
                let vz0 = self.vz.at(i, j, 0);
                self.vz.set(i, j, -1, vz0 + ratio * self.h * (exx + eyy));
            }
        }
        // Stress update.
        for k in 0..d.nz as isize {
            for j in 0..d.ny as isize {
                for i in 0..d.nx as isize {
                    let exx = self.vx.at(i, j, k) - self.vx.at(i - 1, j, k);
                    let eyy = self.vy.at(i, j, k) - self.vy.at(i, j - 1, k);
                    let ezz = self.vz.at(i, j, k) - self.vz.at(i, j, k - 1);
                    let tr = exx + eyy + ezz;
                    let l = self.lam.at(i, j, k);
                    let m = self.mu.at(i, j, k);
                    self.sxx.add(i, j, k, dth * (l * tr + 2.0 * m * exx));
                    self.syy.add(i, j, k, dth * (l * tr + 2.0 * m * eyy));
                    self.szz.add(i, j, k, dth * (l * tr + 2.0 * m * ezz));
                    let hm = |a: f64, b: f64| if a <= 0.0 || b <= 0.0 { 0.0 } else { 2.0 * a * b / (a + b) };
                    let mxy = hm(
                        hm(self.mu.at(i, j, k), self.mu.at(i + 1, j, k)),
                        hm(self.mu.at(i, j + 1, k), self.mu.at(i + 1, j + 1, k)),
                    );
                    let mxz = hm(
                        hm(self.mu.at(i, j, k), self.mu.at(i + 1, j, k)),
                        hm(self.mu.at(i, j, k + 1), self.mu.at(i + 1, j, k + 1)),
                    );
                    let myz = hm(
                        hm(self.mu.at(i, j, k), self.mu.at(i, j + 1, k)),
                        hm(self.mu.at(i, j, k + 1), self.mu.at(i, j + 1, k + 1)),
                    );
                    self.sxy.add(
                        i,
                        j,
                        k,
                        dth * mxy
                            * ((self.vx.at(i, j + 1, k) - self.vx.at(i, j, k))
                                + (self.vy.at(i + 1, j, k) - self.vy.at(i, j, k))),
                    );
                    self.sxz.add(
                        i,
                        j,
                        k,
                        dth * mxz
                            * ((self.vx.at(i, j, k + 1) - self.vx.at(i, j, k))
                                + (self.vz.at(i + 1, j, k) - self.vz.at(i, j, k))),
                    );
                    self.syz.add(
                        i,
                        j,
                        k,
                        dth * myz
                            * ((self.vy.at(i, j, k + 1) - self.vy.at(i, j, k))
                                + (self.vz.at(i, j + 1, k) - self.vz.at(i, j, k))),
                    );
                }
            }
        }
        // Source injection. Stress-glut sign convention (Graves 1996):
        // moment release *subtracts* from the stress field, matching the
        // production injector (sourceinj.rs) so the polarities agree.
        let inv_v = -1.0 / (self.h * self.h * self.h);
        for sf in &source.subfaults {
            let tl = t - sf.t0;
            let rate = if tl < 0.0 || sf.rate.is_empty() {
                0.0
            } else {
                let s = tl / source.dt;
                let i0 = s.floor() as usize;
                if i0 + 1 >= sf.rate.len() {
                    if i0 < sf.rate.len() {
                        sf.rate[i0] as f64
                    } else {
                        0.0
                    }
                } else {
                    let f = s - i0 as f64;
                    sf.rate[i0] as f64 * (1.0 - f) + sf.rate[i0 + 1] as f64 * f
                }
            };
            if rate == 0.0 {
                continue;
            }
            let s = rate * self.dt * inv_v;
            let (i, j, k) = (sf.idx.i as isize, sf.idx.j as isize, sf.idx.k as isize);
            self.sxx.add(i, j, k, sf.tensor.mxx * s);
            self.syy.add(i, j, k, sf.tensor.myy * s);
            self.szz.add(i, j, k, sf.tensor.mzz * s);
            self.sxy.add(i, j, k, sf.tensor.mxy * s);
            self.sxz.add(i, j, k, sf.tensor.mxz * s);
            self.syz.add(i, j, k, sf.tensor.myz * s);
        }
        // Free-surface stress imaging.
        for j in 0..d.ny as isize {
            for i in 0..d.nx as isize {
                self.szz.set(i, j, 0, 0.0);
                let s1 = self.szz.at(i, j, 1);
                self.szz.set(i, j, -1, -s1);
                let x0 = self.sxz.at(i, j, 0);
                self.sxz.set(i, j, -1, -x0);
                let y0 = self.syz.at(i, j, 0);
                self.syz.set(i, j, -1, -y0);
            }
        }
        // Sponge (sides + bottom).
        for k in 0..d.nz {
            // Top face excluded by shifting the index past the low-side
            // ramp; the bottom-side condition is unchanged.
            let gk = self.damping(k + self.sponge_width, d.nz + self.sponge_width);
            for j in 0..d.ny {
                let gj = self.damping(j, d.ny);
                for i in 0..d.nx {
                    let g = self.damping(i, d.nx) * gj * gk;
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
                            let v = arr.at(ii, jj, kk);
                            arr.set(ii, jj, kk, v * g);
                        }
                    }
                }
            }
        }
        self.step += 1;
    }

    /// Run `steps` on this instance and record seismograms.
    pub fn run_steps(
        &mut self,
        steps: usize,
        source: &KinematicSource,
        stations: &[Station],
    ) -> Vec<Seismogram> {
        type Trace = (Station, Vec<f64>, Vec<f64>, Vec<f64>);
        let mut traces: Vec<Trace> =
            stations.iter().map(|st| (st.clone(), vec![], vec![], vec![])).collect();
        for _ in 0..steps {
            self.step(source);
            for (st, vx, vy, vz) in &mut traces {
                let Idx3 { i, j, k } = st.idx;
                vx.push(self.vx.at(i as isize, j as isize, k as isize));
                vy.push(self.vy.at(i as isize, j as isize, k as isize));
                vz.push(self.vz.at(i as isize, j as isize, k as isize));
            }
        }
        let dt = self.dt;
        traces
            .into_iter()
            .map(|(station, vx, vy, vz)| Seismogram { station, dt, vx, vy, vz })
            .collect()
    }

    /// Run a scenario on a fresh instance with default sponge settings.
    pub fn run(
        mesh: &Mesh,
        dt: f64,
        steps: usize,
        source: &KinematicSource,
        stations: &[Station],
    ) -> Vec<Seismogram> {
        Self::new(mesh, dt, 12, 0.92).run_steps(steps, source, stations)
    }

    /// Surface PGV map (peak |v_h| per surface cell).
    pub fn run_pgv(mesh: &Mesh, dt: f64, steps: usize, source: &KinematicSource) -> Vec<f64> {
        let mut s = Self::new(mesh, dt, 12, 0.92);
        let d = mesh.dims;
        let mut pgv = vec![0.0f64; d.nx * d.ny];
        for _ in 0..steps {
            s.step(source);
            for j in 0..d.ny {
                for i in 0..d.nx {
                    let vx = s.vx.at(i as isize, j as isize, 0);
                    let vy = s.vy.at(i as isize, j as isize, 0);
                    let h = vx.hypot(vy);
                    let p = &mut pgv[i + d.nx * j];
                    if h > *p {
                        *p = h;
                    }
                }
            }
        }
        pgv
    }
}
