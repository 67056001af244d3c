//! Seismogram recording and surface-velocity capture.

use crate::state::WaveState;
use awp_grid::decomp::Subdomain;
use awp_grid::dims::Idx3;
use awp_grid::fpmode::FlushGuard;
use awp_grid::stagger::Component;
use serde::{Deserialize, Serialize};

/// A named recording site at a global grid cell (usually on the surface,
/// k = 0).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Station {
    pub name: String,
    pub idx: Idx3,
}

impl Station {
    pub fn new(name: impl Into<String>, idx: Idx3) -> Self {
        Self { name: name.into(), idx }
    }

    /// Physical position (metres) of the staggered node a recorded
    /// velocity component actually lives at. On the staggered grid the
    /// three velocities of "cell (i,j,k)" sit at three *different* points
    /// — `vx` at `((i+½)h, jh, kh)`, `vy` at `(ih, (j+½)h, kh)`, `vz` at
    /// `(ih, jh, (k+½)h)` — and a quantitative comparison against an
    /// analytic solution must evaluate the reference at the component's
    /// true node, not at the cell corner (the half-cell offset is a
    /// first-order position error otherwise, swamping a fourth-order
    /// scheme). Used by the `awp-verify` misfit extraction.
    pub fn component_position(&self, comp: Component, h: f64) -> [f64; 3] {
        let (x, y, z) = comp.loc().coord((self.idx.i, self.idx.j, self.idx.k));
        [x * h, y * h, z * h]
    }
}

/// A recorded three-component seismogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Seismogram {
    pub station: Station,
    pub dt: f64,
    pub vx: Vec<f64>,
    pub vy: Vec<f64>,
    pub vz: Vec<f64>,
}

impl Seismogram {
    /// Peak horizontal ground velocity, root-sum-of-squares measure (the
    /// paper's Fig. 21 PGVH).
    pub fn pgvh_rss(&self) -> f64 {
        self.vx
            .iter()
            .zip(&self.vy)
            .map(|(x, y)| x.hypot(*y))
            .fold(0.0, f64::max)
    }

    /// Geometric-mean PGVH (the Fig. 23 NGA measure).
    pub fn pgvh_geomean(&self) -> f64 {
        let px = self.vx.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let py = self.vy.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        (px * py).sqrt()
    }

    /// Physical time of sample `s` on the leapfrog-staggered axis.
    ///
    /// Sample `s` is recorded after step `s` completes, so it holds the
    /// half-step velocity `v^{s+½}` at `(s+½)·dt`. The injector, however,
    /// evaluates the moment-rate at `step·dt` when forming the stress
    /// increment centred at `(step+½)·dt` — the source history the scheme
    /// integrates runs `dt/2` behind the nominal one, delaying the whole
    /// field by `dt/2`. The two half-step offsets cancel: sample `s`
    /// corresponds to source-clock time `s·dt`. The `awp-verify` accuracy
    /// suite measures the exact residual offset with a sub-dt shift
    /// search; this helper provides the nominal axis.
    pub fn sample_time(&self, s: usize) -> f64 {
        s as f64 * self.dt
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.vx.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.vx.is_empty()
    }

    /// Horizontal component rotated to azimuth `theta` (radians from +x) —
    /// the paper plots N50W / N46E components.
    pub fn horizontal_component(&self, theta: f64) -> Vec<f64> {
        self.vx
            .iter()
            .zip(&self.vy)
            .map(|(x, y)| x * theta.cos() + y * theta.sin())
            .collect()
    }
}

/// Per-rank recorder: keeps only the stations inside this rank's
/// subdomain and appends one sample per step.
/// (station, local index, vx/vy/vz traces).
type StationSlot = (Station, Idx3, Vec<f64>, Vec<f64>, Vec<f64>);

#[derive(Debug, Clone)]
pub struct StationRecorder {
    dt: f64,
    slots: Vec<StationSlot>,
}

impl StationRecorder {
    pub fn new(stations: &[Station], sub: &Subdomain, dt: f64) -> Self {
        let slots = stations
            .iter()
            .filter_map(|st| sub.global_to_local(st.idx).map(|l| (st.clone(), l, vec![], vec![], vec![])))
            .collect();
        Self { dt, slots }
    }

    pub fn station_count(&self) -> usize {
        self.slots.len()
    }

    /// Sample the wavefield at every local station.
    pub fn record(&mut self, state: &WaveState) {
        let _ftz = FlushGuard::enter();
        for (_, l, vx, vy, vz) in &mut self.slots {
            let (i, j, k) = (l.i as isize, l.j as isize, l.k as isize);
            vx.push(state.vx.get(i, j, k) as f64);
            vy.push(state.vy.get(i, j, k) as f64);
            vz.push(state.vz.get(i, j, k) as f64);
        }
    }

    /// Finish and return the seismograms.
    pub fn into_seismograms(self) -> Vec<Seismogram> {
        self.slots
            .into_iter()
            .map(|(station, _, vx, vy, vz)| Seismogram { station, dt: self.dt, vx, vy, vz })
            .collect()
    }
}

/// Extract the decimated surface (k = 0) velocity field of a rank:
/// `(vx, vy, vz)` per surface cell, x-fastest, every `stride`-th cell —
/// M8 "saved the ground velocity vector … on an 80 m by 80 m grid" from a
/// 40 m mesh, i.e. stride 2.
pub fn surface_velocities(state: &WaveState, stride: usize) -> Vec<f32> {
    let d = state.dims;
    let stride = stride.max(1);
    let mut out = Vec::with_capacity(3 * d.nx.div_ceil(stride) * d.ny.div_ceil(stride));
    for j in (0..d.ny).step_by(stride) {
        for i in (0..d.nx).step_by(stride) {
            out.push(state.vx.get(i as isize, j as isize, 0));
            out.push(state.vy.get(i as isize, j as isize, 0));
            out.push(state.vz.get(i as isize, j as isize, 0));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use awp_grid::decomp::Decomp3;
    use awp_grid::dims::Dims3;

    #[test]
    fn recorder_keeps_only_local_stations() {
        let dec = Decomp3::new(Dims3::new(8, 8, 4), [2, 1, 1]);
        let stations = vec![
            Station::new("west", Idx3::new(1, 1, 0)),
            Station::new("east", Idx3::new(6, 1, 0)),
        ];
        let r0 = StationRecorder::new(&stations, &dec.subdomain(0), 0.01);
        let r1 = StationRecorder::new(&stations, &dec.subdomain(1), 0.01);
        assert_eq!(r0.station_count(), 1);
        assert_eq!(r1.station_count(), 1);
    }

    #[test]
    fn record_appends_samples() {
        let dec = Decomp3::new(Dims3::new(4, 4, 4), [1, 1, 1]);
        let mut rec = StationRecorder::new(
            &[Station::new("s", Idx3::new(2, 2, 0))],
            &dec.subdomain(0),
            0.01,
        );
        let mut st = WaveState::new(Dims3::new(4, 4, 4), false);
        st.vx.set(2, 2, 0, 1.5);
        rec.record(&st);
        st.vx.set(2, 2, 0, -2.5);
        rec.record(&st);
        let seis = rec.into_seismograms();
        assert_eq!(seis[0].vx, vec![1.5, -2.5]);
        assert_eq!(seis[0].vy, vec![0.0, 0.0]);
    }

    #[test]
    fn pgvh_measures() {
        let s = Seismogram {
            station: Station::new("x", Idx3::new(0, 0, 0)),
            dt: 0.1,
            vx: vec![3.0, 0.0],
            vy: vec![4.0, 1.0],
            vz: vec![0.0, 0.0],
        };
        assert_eq!(s.pgvh_rss(), 5.0);
        assert!((s.pgvh_geomean() - (3.0f64 * 4.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rotated_component() {
        let s = Seismogram {
            station: Station::new("x", Idx3::new(0, 0, 0)),
            dt: 0.1,
            vx: vec![1.0],
            vy: vec![1.0],
            vz: vec![0.0],
        };
        let c45 = s.horizontal_component(std::f64::consts::FRAC_PI_4);
        assert!((c45[0] - 2.0f64.sqrt()).abs() < 1e-12);
        let c90 = s.horizontal_component(std::f64::consts::FRAC_PI_2);
        assert!((c90[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn component_positions_carry_staggered_offsets() {
        let st = Station::new("s", Idx3::new(2, 3, 4));
        let h = 10.0;
        assert_eq!(st.component_position(Component::Vx, h), [25.0, 30.0, 40.0]);
        assert_eq!(st.component_position(Component::Vy, h), [20.0, 35.0, 40.0]);
        assert_eq!(st.component_position(Component::Vz, h), [20.0, 30.0, 45.0]);
        // Normal stresses sit at the cell corner the index names.
        assert_eq!(st.component_position(Component::Sxx, h), [20.0, 30.0, 40.0]);
    }

    #[test]
    fn sample_time_axis() {
        let s = Seismogram {
            station: Station::new("x", Idx3::new(0, 0, 0)),
            dt: 0.25,
            vx: vec![0.0; 3],
            vy: vec![0.0; 3],
            vz: vec![0.0; 3],
        };
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.sample_time(0), 0.0);
        assert_eq!(s.sample_time(4), 1.0);
    }

    #[test]
    fn surface_capture_strides() {
        let d = Dims3::new(4, 4, 3);
        let mut st = WaveState::new(d, false);
        st.vx.set(0, 0, 0, 7.0);
        st.vx.set(2, 2, 0, 9.0);
        let full = surface_velocities(&st, 1);
        assert_eq!(full.len(), 3 * 16);
        assert_eq!(full[0], 7.0);
        let dec = surface_velocities(&st, 2);
        assert_eq!(dec.len(), 3 * 4);
        // (2,2) is the 4th strided cell → offset 3*3 = 9.
        assert_eq!(dec[9], 9.0);
    }
}
