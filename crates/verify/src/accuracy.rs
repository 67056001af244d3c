//! Analytic-solution accuracy suite.
//!
//! Runs the serial solver in a homogeneous cube with **no** absorbing
//! boundaries (`AbcKind::None`, rigid walls, free surface disabled — the
//! closest realisable stand-in for a full space) and compares station
//! seismograms against the closed-form full-space solution inside a
//! *clean window*: the comparison at each receiver ends before the first
//! wall-reflected P wave can arrive (`t_reflect = (2W − d)/α` for source-
//! to-nearest-wall distance `W` and source–receiver distance `d`), so the
//! rigid walls never contaminate the scored samples. The geometry is
//! asserted, not assumed.
//!
//! Two cases: an isotropic explosion (pure P radiator) and a vertical
//! strike-slip double couple (P and S lobes, nodal planes). Each velocity
//! component at each receiver is scored with the shift-tolerant L2 and the
//! Hilbert-envelope misfit of [`crate::misfit`], against the analytic
//! trace evaluated at the component's true staggered node.

use crate::analytic::{AnalyticPoint, FullSpace};
use crate::misfit::{envelope_misfit, l2, shifted_l2};
use awp_cvm::mesh::MeshGenerator;
use awp_cvm::model::HomogeneousModel;
use awp_grid::dims::{Dims3, Idx3};
use awp_grid::stagger::Component;
use awp_solver::{AbcKind, Solver, SolverConfig, Station};
use awp_source::kinematic::KinematicSource;
use awp_source::moment::MomentTensor;
use awp_source::stf::Stf;
use serde::Serialize;

/// CFL-stable timestep bound for the 4th-order staggered scheme:
/// `dt_max = 6h / (7√3 vp)`.
pub fn cfl_dt_max(h: f64, vp: f64) -> f64 {
    6.0 * h / (7.0 * 3f64.sqrt() * vp)
}

/// Geometry of one accuracy run.
#[derive(Debug, Clone, Serialize)]
pub struct AccuracySpec {
    /// Cube edge in cells.
    pub n: usize,
    /// Receiver offset scale in cells.
    pub d_cells: i64,
    /// Source rise time in S-wave cell crossings: `T = ppw · h / vs`
    /// (≈ grid points per dominant S wavelength).
    pub ppw: f64,
}

impl AccuracySpec {
    /// CI-budget geometry (48³, receivers ~8 cells out). Measured worsts
    /// (see DESIGN.md "Verification"): explosion 0.127/0.127,
    /// double-couple 0.235/0.242 (L2/envelope), residual shift ≤ 0.12 dt.
    pub fn smoke() -> Self {
        AccuracySpec { n: 48, d_cells: 8, ppw: 9.0 }
    }

    /// Full geometry (64³, receivers ~12 cells out, better-resolved pulse).
    /// Measured worsts: explosion 0.112/0.113, double-couple 0.188/0.184,
    /// shift ≤ 0.07 dt. Row VRF of `awp repro` judges this geometry.
    pub fn full() -> Self {
        AccuracySpec { n: 64, d_cells: 12, ppw: 12.0 }
    }
}

/// Misfit scores for one velocity component at one receiver.
#[derive(Debug, Clone, Serialize)]
pub struct ComponentScore {
    pub component: String,
    /// Shift-compensated normalised L2.
    pub l2: f64,
    /// Envelope misfit (phase-blind).
    pub envelope: f64,
    /// Residual shift in units of dt.
    pub shift_dt: f64,
    /// True when the analytic amplitude is near-nodal for this component
    /// (scored against the station scale instead of its own energy).
    pub nodal: bool,
}

/// Scores for one receiver.
#[derive(Debug, Clone, Serialize)]
pub struct ReceiverScore {
    pub station: String,
    pub offset: [i64; 3],
    pub distance_m: f64,
    pub components: Vec<ComponentScore>,
}

/// One source mechanism's full scorecard.
#[derive(Debug, Clone, Serialize)]
pub struct AccuracyCase {
    pub case: String,
    pub n: usize,
    pub h: f64,
    pub dt: f64,
    pub steps: usize,
    pub rise_time: f64,
    pub worst_l2: f64,
    pub worst_envelope: f64,
    pub worst_shift_dt: f64,
    pub receivers: Vec<ReceiverScore>,
}

enum CaseKind {
    Explosion,
    DoubleCouple,
}

impl CaseKind {
    fn name(&self) -> &'static str {
        match self {
            CaseKind::Explosion => "explosion",
            CaseKind::DoubleCouple => "double-couple",
        }
    }

    fn tensor(&self) -> MomentTensor {
        match self {
            CaseKind::Explosion => MomentTensor::explosion(),
            CaseKind::DoubleCouple => MomentTensor::strike_slip(0.0), // pure Mxy
        }
    }

    /// The staggered component the dominant tensor entry couples into —
    /// the physical point the analytic source must sit at.
    fn source_component(&self) -> Component {
        match self {
            CaseKind::Explosion => Component::Sxx, // normal stresses: cell node
            CaseKind::DoubleCouple => Component::Sxy, // xy-edge midpoint
        }
    }

    /// Slowest wave that carries signal (sets the comparison window).
    fn window_speed(&self, med: &FullSpace) -> f64 {
        match self {
            CaseKind::Explosion => med.vp, // pure P radiator
            CaseKind::DoubleCouple => med.vs,
        }
    }

    fn receiver_offsets(&self, d: i64) -> Vec<[i64; 3]> {
        let d7 = ((d as f64) / 2f64.sqrt()).round() as i64; // ~d along diagonals
        let d3 = ((d as f64) / 3f64.sqrt()).round() as i64;
        match self {
            CaseKind::Explosion => vec![
                [d, 0, 0],
                [0, d, 0],
                [0, 0, d],
                [d7, d7, 0],
                [d3, d3, d3],
            ],
            // Mxy radiation: z-axis is a total node (skipped); cover the
            // S-max axes, the P-max diagonal, and an out-of-plane path.
            CaseKind::DoubleCouple => vec![
                [d, 0, 0],
                [0, d, 0],
                [d7, d7, 0],
                [d7, -d7, 0],
                [d7, 0, d7],
            ],
        }
    }
}

/// Run one mechanism and score every receiver/component.
fn run_case(spec: &AccuracySpec, kind: &CaseKind) -> AccuracyCase {
    let med = FullSpace::rock();
    let h = 100.0;
    let dt = 0.8 * cfl_dt_max(h, med.vp);
    let rise = spec.ppw * h / med.vs;
    let n = spec.n;
    let c = (n / 2) as i64;
    let src_idx = Idx3::new(c as usize, c as usize, c as usize);

    let src_station = Station::new("src", src_idx);
    let src_pos = src_station.component_position(kind.source_component(), h);
    let moment = 1e15;
    let analytic = AnalyticPoint { pos: src_pos, tensor: kind.tensor(), moment, stf: Stf::Cosine { rise_time: rise } };

    // Clean-window geometry: the scored window at every receiver must end
    // before the earliest wall-reflected P arrival.
    let wall_cells = (0..3).map(|_| c.min(n as i64 - 1 - c)).min().unwrap() as f64;
    let offsets = kind.receiver_offsets(spec.d_cells);
    let stations: Vec<Station> = offsets
        .iter()
        .enumerate()
        .map(|(i, o)| {
            Station::new(
                format!("r{i}"),
                Idx3::new((c + o[0]) as usize, (c + o[1]) as usize, (c + o[2]) as usize),
            )
        })
        .collect();

    let window_end = |dist_m: f64| dist_m / kind.window_speed(&med) + 1.15 * rise;
    let mut t_max = 0.0f64;
    for o in &offsets {
        let dist = ((o[0] * o[0] + o[1] * o[1] + o[2] * o[2]) as f64).sqrt() * h;
        let t_end = window_end(dist);
        let t_reflect = (2.0 * wall_cells * h - dist) / med.vp;
        assert!(
            t_end < 0.97 * t_reflect,
            "{}: receiver {o:?} window {t_end:.3}s reaches the reflected P at {t_reflect:.3}s — \
             grow the box or shorten the pulse",
            kind.name()
        );
        t_max = t_max.max(t_end);
    }
    let steps = (t_max / dt).ceil() as usize + 2;

    let mut cfg = SolverConfig::small(Dims3::new(n, n, n), h, dt, steps);
    cfg.abc = AbcKind::None;
    cfg.free_surface = false; // rigid box: the full-space stand-in
    cfg.attenuation = false;

    let model = HomogeneousModel::new(med.vp as f32, med.vs as f32, med.rho as f32);
    let mesh = MeshGenerator::new(&model, cfg.dims, h).generate();
    let source = KinematicSource::point(src_idx, kind.tensor(), moment, analytic.stf, dt);
    let result = Solver::run_serial(cfg.clone(), &mesh, &source, &stations);

    let mut receivers = Vec::new();
    let (mut worst_l2, mut worst_env, mut worst_shift) = (0.0f64, 0.0f64, 0.0f64);
    for (o, st) in offsets.iter().zip(&stations) {
        let seis = result
            .seismograms
            .iter()
            .find(|s| s.station.name == st.name)
            .expect("every station is inside the serial domain");
        let dist = ((o[0] * o[0] + o[1] * o[1] + o[2] * o[2]) as f64).sqrt() * h;
        let nwin = ((window_end(dist) / dt).floor() as usize + 1).min(seis.len());
        let pos = [
            st.component_position(Component::Vx, h),
            st.component_position(Component::Vy, h),
            st.component_position(Component::Vz, h),
        ];
        let refr = analytic.velocity_trace(&med, pos, dt, nwin);
        let sims = [&seis.vx[..nwin], &seis.vy[..nwin], &seis.vz[..nwin]];
        let norms: Vec<f64> = refr.iter().map(|r| l2(r)).collect();
        let station_scale = norms.iter().cloned().fold(0.0, f64::max);
        assert!(station_scale > 0.0, "analytic reference is silent at {o:?}");

        let mut components = Vec::new();
        for (ci, comp) in ["vx", "vy", "vz"].iter().enumerate() {
            // Near-nodal components carry no meaningful relative scale of
            // their own; score them against the station's loudest
            // component so "small absolute garbage on a nodal trace"
            // cannot fail the gate while real leakage still would.
            let nodal = norms[ci] < 0.05 * station_scale;
            let denom = if nodal { station_scale } else { norms[ci] };
            let s = shifted_l2(sims[ci], &refr[ci], dt, 2.0 * dt, denom);
            let e = envelope_misfit(sims[ci], &refr[ci], denom);
            worst_l2 = worst_l2.max(s.misfit);
            worst_env = worst_env.max(e);
            if !nodal {
                // A residual-shift bound is only meaningful where there is
                // a waveform to align.
                worst_shift = worst_shift.max((s.shift / dt).abs());
            }
            components.push(ComponentScore {
                component: comp.to_string(),
                l2: s.misfit,
                envelope: e,
                shift_dt: s.shift / dt,
                nodal,
            });
        }
        receivers.push(ReceiverScore {
            station: st.name.clone(),
            offset: *o,
            distance_m: dist,
            components,
        });
    }

    AccuracyCase {
        case: kind.name().to_string(),
        n,
        h,
        dt,
        steps,
        rise_time: rise,
        worst_l2,
        worst_envelope: worst_env,
        worst_shift_dt: worst_shift,
        receivers,
    }
}

/// Run both mechanisms.
pub fn run_accuracy(spec: &AccuracySpec) -> Vec<AccuracyCase> {
    [CaseKind::Explosion, CaseKind::DoubleCouple].iter().map(|k| run_case(spec, k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-build-sized end-to-end check: a 32³ explosion must land within
    /// a loose bound (row VRF of `awp repro` judges the tight calibrated
    /// thresholds on the bigger geometry).
    #[test]
    fn small_explosion_matches_analytic() {
        let spec = AccuracySpec { n: 32, d_cells: 7, ppw: 6.0 };
        let case = run_case(&spec, &CaseKind::Explosion);
        assert!(case.worst_l2.is_finite() && case.worst_l2 > 0.0);
        assert!(
            case.worst_l2 <= 0.35 && case.worst_envelope <= 0.35 && case.worst_shift_dt <= 2.0,
            "32³ explosion vs analytic: worst_l2 {:.4}, worst_env {:.4}, shift {:.2} dt",
            case.worst_l2, case.worst_envelope, case.worst_shift_dt
        );
        // The radial component must be the meaningful (non-nodal) one. The
        // transverse ones are *not* nodal: their staggered nodes sit half a
        // cell off the x-axis, so the analytic reference there carries a
        // genuine ~0.5/d ≈ 7% radial projection — and the solver must
        // reproduce it (it is scored against its own energy like any
        // non-nodal trace; the bound above already covers it).
        let r0 = &case.receivers[0]; // (d, 0, 0)
        assert!(!r0.components[0].nodal, "vx on the x-axis carries the P pulse");
        for c in &r0.components[1..] {
            assert!(c.l2.is_finite() && c.envelope.is_finite(), "{}: {c:?}", r0.station);
        }
    }

    /// Calibration probe (not a gate): run both mechanisms on the `full()`
    /// geometry and print the measured worsts so the thresholds can be set
    /// from data. `cargo test -p awp-verify --release -- --ignored diag_
    /// --nocapture`.
    #[test]
    #[ignore]
    fn diag_full_geometry() {
        for case in run_accuracy(&AccuracySpec::full()) {
            println!(
                "{:<14} n={} worst_l2={:.4} worst_env={:.4} worst_shift={:.3}dt",
                case.case, case.n, case.worst_l2, case.worst_envelope, case.worst_shift_dt
            );
        }
    }

    #[test]
    #[should_panic(expected = "reflected P")]
    fn contaminated_window_is_rejected() {
        // A pulse too long for the box: the clean-window assertion must
        // refuse to score it rather than quietly comparing reflections.
        let spec = AccuracySpec { n: 24, d_cells: 8, ppw: 14.0 };
        run_case(&spec, &CaseKind::DoubleCouple);
    }
}
