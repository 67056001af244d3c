//! Kinematic moment-rate source insertion.
//!
//! Each subfault couples its moment-rate, distributed by its mechanism,
//! into the stress components of its grid cell via the stress-glut
//! convention: `σ_ij −= Δt · M_ij ṁ(t) / V` with `V = h³` the cell volume
//! (Graves 1996; the modelled stress is the elastic stress minus the
//! moment glut). Shear components land on the nearest staggered node.
//! The sign matters: with `+=` an explosion radiates an *implosion* —
//! the `awp-verify` accuracy suite pins the polarity against the analytic
//! full-space solution, which is how the original `+=` was caught.

use crate::state::WaveState;
use awp_grid::dims::Idx3;
use awp_grid::fpmode::FlushGuard;
use awp_source::kinematic::KinematicSource;

/// One precomputed injection entry.
#[derive(Debug, Clone)]
struct Entry {
    idx: Idx3,
    /// Mechanism scaled by 1/V (so `inject` just multiplies by Δt·ṁ).
    m: [f32; 6],
    t0: f64,
    rate: Vec<f32>,
}

/// Injects a (rank-local) kinematic source into the wavefield.
#[derive(Debug, Clone)]
pub struct SourceInjector {
    entries: Vec<Entry>,
    dt_src: f64,
    /// The (k, j) grid rows holding a source cell, sorted.
    rows: Vec<(usize, usize)>,
}

impl SourceInjector {
    /// Build from a rank-local source. `h` is the grid spacing.
    pub fn new(src: &KinematicSource, h: f64) -> Self {
        let inv_v = 1.0 / (h * h * h);
        let entries: Vec<Entry> = src
            .subfaults
            .iter()
            .map(|sf| Entry {
                idx: sf.idx,
                m: [
                    (sf.tensor.mxx * inv_v) as f32,
                    (sf.tensor.myy * inv_v) as f32,
                    (sf.tensor.mzz * inv_v) as f32,
                    (sf.tensor.mxy * inv_v) as f32,
                    (sf.tensor.mxz * inv_v) as f32,
                    (sf.tensor.myz * inv_v) as f32,
                ],
                t0: sf.t0,
                rate: sf.rate.clone(),
            })
            .collect();
        let mut rows: Vec<_> = entries.iter().map(|e| (e.idx.k, e.idx.j)).collect();
        rows.sort_unstable();
        rows.dedup();
        Self { entries, dt_src: src.dt, rows }
    }

    /// An injector with no sources (ranks without subfaults).
    pub fn empty() -> Self {
        Self { entries: Vec::new(), dt_src: 1.0, rows: Vec::new() }
    }

    /// Can [`SourceInjector::inject_win`] touch row (j, k)? The stress
    /// walk must not damp such a row itself: the moment is added first.
    #[inline]
    pub(crate) fn touches_row(&self, j: usize, k: usize) -> bool {
        self.rows.binary_search(&(k, j)).is_ok()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Moment release restricted to subfaults inside `win` (the
    /// windowed step injects each window's sources right after that
    /// window's stress update; windows partition the grid, so every entry
    /// fires exactly once per step).
    pub fn inject_win(&self, state: &mut WaveState, t: f64, dt: f64, win: crate::shell::Win) {
        let _ftz = FlushGuard::enter();
        for e in &self.entries {
            if !win.contains(e.idx) {
                continue;
            }
            let rate = sample_rate(&e.rate, t - e.t0, self.dt_src);
            if rate == 0.0 {
                continue;
            }
            let s = -(rate * dt) as f32;
            let (i, j, k) = (e.idx.i as isize, e.idx.j as isize, e.idx.k as isize);
            if e.m[0] != 0.0 {
                state.sxx.add(i, j, k, e.m[0] * s);
            }
            if e.m[1] != 0.0 {
                state.syy.add(i, j, k, e.m[1] * s);
            }
            if e.m[2] != 0.0 {
                state.szz.add(i, j, k, e.m[2] * s);
            }
            if e.m[3] != 0.0 {
                state.sxy.add(i, j, k, e.m[3] * s);
            }
            if e.m[4] != 0.0 {
                state.sxz.add(i, j, k, e.m[4] * s);
            }
            if e.m[5] != 0.0 {
                state.syz.add(i, j, k, e.m[5] * s);
            }
        }
    }

    /// Add this time step's moment release to the stress field. `t` is the
    /// current simulation time, `dt` the solver step.
    pub fn inject(&self, state: &mut WaveState, t: f64, dt: f64) {
        self.inject_win(state, t, dt, crate::shell::Win::full(state.dims));
    }
}

/// Linear interpolation of a local-time moment-rate history.
fn sample_rate(rate: &[f32], tl: f64, dt: f64) -> f64 {
    if tl < 0.0 || rate.is_empty() {
        return 0.0;
    }
    let s = tl / dt;
    let i = s.floor() as usize;
    if i + 1 >= rate.len() {
        return if i < rate.len() { rate[i] as f64 } else { 0.0 };
    }
    let f = s - i as f64;
    rate[i] as f64 * (1.0 - f) + rate[i + 1] as f64 * f
}

#[cfg(test)]
mod tests {
    use super::*;
    use awp_grid::dims::Dims3;
    use awp_source::moment::MomentTensor;
    use awp_source::stf::Stf;

    fn point_source(moment: f64, tensor: MomentTensor) -> KinematicSource {
        KinematicSource {
            dt: 0.01,
            subfaults: vec![awp_source::kinematic::Subfault {
                idx: Idx3::new(2, 2, 2),
                tensor,
                moment,
                t0: 0.0,
                rate: Stf::Triangle { rise_time: 0.2 }.sample(moment, 0.01, 25),
            }],
        }
    }

    #[test]
    fn explosion_adds_equal_normal_stress() {
        let src = point_source(1e15, MomentTensor::explosion());
        let inj = SourceInjector::new(&src, 100.0);
        let mut s = WaveState::new(Dims3::new(5, 5, 5), false);
        inj.inject(&mut s, 0.1, 1e-3);
        let xx = s.sxx.get(2, 2, 2);
        // Stress-glut sign: positive moment release *subtracts* stress.
        assert!(xx < 0.0);
        assert_eq!(xx, s.syy.get(2, 2, 2));
        assert_eq!(xx, s.szz.get(2, 2, 2));
        assert_eq!(s.sxy.get(2, 2, 2), 0.0);
    }

    #[test]
    fn strike_slip_adds_only_sxy() {
        let src = point_source(1e15, MomentTensor::strike_slip(0.0));
        let inj = SourceInjector::new(&src, 100.0);
        let mut s = WaveState::new(Dims3::new(5, 5, 5), false);
        inj.inject(&mut s, 0.1, 1e-3);
        assert!(s.sxy.get(2, 2, 2) < 0.0, "stress-glut sign");
        assert_eq!(s.sxx.get(2, 2, 2), 0.0);
        assert_eq!(s.szz.get(2, 2, 2), 0.0);
    }

    #[test]
    fn injection_respects_onset_time() {
        let mut src = point_source(1e15, MomentTensor::explosion());
        src.subfaults[0].t0 = 0.5;
        let inj = SourceInjector::new(&src, 100.0);
        let mut s = WaveState::new(Dims3::new(5, 5, 5), false);
        inj.inject(&mut s, 0.4, 1e-3);
        assert_eq!(s.sxx.get(2, 2, 2), 0.0, "before onset");
        inj.inject(&mut s, 0.6, 1e-3);
        assert!(s.sxx.get(2, 2, 2) != 0.0, "after onset");
    }

    #[test]
    fn total_injected_stress_scales_with_moment_over_volume() {
        // Integrate injections over the full STF: Σ Δσ = −M0/V (glut).
        let m0 = 2.0e15;
        let h = 100.0;
        let src = point_source(m0, MomentTensor::explosion());
        let inj = SourceInjector::new(&src, h);
        let mut s = WaveState::new(Dims3::new(5, 5, 5), false);
        let dt = 1e-3;
        for step in 0..400 {
            inj.inject(&mut s, step as f64 * dt, dt);
        }
        let want = (-m0 / (h * h * h)) as f32;
        let got = s.sxx.get(2, 2, 2);
        assert!((got / want - 1.0).abs() < 0.02, "got {got} want {want}");
    }

    #[test]
    fn touched_rows_are_exactly_the_source_rows() {
        let mut src = point_source(1e15, MomentTensor::explosion());
        let mut far = src.subfaults[0].clone();
        far.idx = Idx3::new(0, 7, 9);
        src.subfaults.push(far);
        let inj = SourceInjector::new(&src, 100.0);
        for k in 0..12 {
            for j in 0..12 {
                assert_eq!(inj.touches_row(j, k), [(2, 2), (7, 9)].contains(&(j, k)), "({j},{k})");
            }
        }
        assert!(!SourceInjector::empty().touches_row(0, 0));
    }

    #[test]
    fn empty_injector_is_noop() {
        let inj = SourceInjector::empty();
        assert!(inj.is_empty());
        assert_eq!(inj.len(), 0);
        let mut s = WaveState::new(Dims3::new(3, 3, 3), false);
        inj.inject(&mut s, 0.0, 1e-3);
        assert_eq!(s.sxx.max_abs(), 0.0);
    }
}
