//! Convergence-order harness.
//!
//! One smooth physical scenario — explosion point source, raised-cosine
//! pulse, homogeneous full-space stand-in — solved on a fixed physical
//! domain at h, h/2, h/4 with `dt ∝ h` (constant CFL fraction, so the
//! step count doubles per level and every level integrates to the same
//! physical end time). The error at each level is the normalised L2
//! distance to the analytic solution over the clean window; the observed
//! order is the least-squares slope of `ln e` vs `ln h`.
//!
//! What order to expect: the interior scheme is 4th-order in space and
//! 2nd-order in time, but the *measured* error against the analytic
//! point-source solution is dominated by the single-node stress-glut
//! representation of the source, not interior dispersion. Calibration on
//! this exact scenario (see DESIGN.md "Verification" and the `diag_*`
//! probes below) measured errors of 5.2 % / 2.3 % / 1.2 % at 32³/64³/128³
//! — fitted order ≈ 1.1 — and pinned the mechanism: the error is flat
//! under dt-refinement at fixed h (not temporal), and its best-fit time
//! shift is ≈ 0 (the source/receiver half-step clock conventions cancel;
//! it is an amplitude/shape term, not a phase offset). Row VRF of
//! `awp repro` therefore judges the fit against a calibrated band around
//! the measured first-order behaviour. What it catches is refinement
//! *ceasing to help*: the source-polarity bug this suite found produced an
//! h-independent error (fitted order ≈ 0.01) — far outside any band —
//! while the interior scheme's own order is pinned separately by the
//! plane-wave and kernel unit tests in `awp-solver`.

use crate::accuracy::cfl_dt_max;
use crate::analytic::{AnalyticPoint, FullSpace};
use crate::misfit::l2;
use awp_cvm::mesh::MeshGenerator;
use awp_cvm::model::HomogeneousModel;
use awp_grid::dims::{Dims3, Idx3};
use awp_grid::stagger::Component;
use awp_solver::{AbcKind, Solver, SolverConfig, Station};
use awp_source::kinematic::KinematicSource;
use awp_source::moment::MomentTensor;
use awp_source::stf::Stf;
use serde::Serialize;

/// Refinement-study parameters.
#[derive(Debug, Clone, Serialize)]
pub struct ConvergenceSpec {
    /// Coarsest cube edge in cells; level `l` runs `base_n·2^l`.
    pub base_n: usize,
    /// Number of levels (≥ 2).
    pub levels: usize,
    /// Receiver offset at the coarsest level, in coarse cells.
    pub d_cells: i64,
    /// Pulse length in coarse-level S cell crossings.
    pub ppw: f64,
    /// CFL fraction (dt = cfl_frac · dt_max(h)).
    pub cfl_frac: f64,
}

impl ConvergenceSpec {
    /// Two levels (32³ → 64³): a single error ratio, CI-cheap.
    /// Measured on this geometry: 5.25e-2 → 2.28e-2, order 1.20.
    pub fn smoke() -> Self {
        ConvergenceSpec { base_n: 32, levels: 2, d_cells: 7, ppw: 6.5, cfl_frac: 0.8 }
    }

    /// Three levels (32³ → 128³): a real least-squares fit.
    /// Measured on this geometry: 5.25e-2 → 2.28e-2 → 1.15e-2, order 1.09.
    pub fn full() -> Self {
        ConvergenceSpec { levels: 3, ..Self::smoke() }
    }
}

/// One refinement level's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct LevelResult {
    pub n: usize,
    pub h: f64,
    pub dt: f64,
    pub steps: usize,
    /// Normalised L2 error vs the analytic solution.
    pub error: f64,
}

/// The fitted study.
#[derive(Debug, Clone, Serialize)]
pub struct ConvergenceResult {
    pub levels: Vec<LevelResult>,
    /// Least-squares slope of ln(error) vs ln(h).
    pub observed_order: f64,
}

/// Solve one level and return its error vs the analytic reference.
fn run_level(spec: &ConvergenceSpec, level: usize) -> LevelResult {
    let med = FullSpace::rock();
    let scale = 1usize << level;
    let n = spec.base_n * scale;
    let h0 = 100.0;
    let h = h0 / scale as f64;
    let dt0 = spec.cfl_frac * cfl_dt_max(h0, med.vp);
    let dt = dt0 / scale as f64;
    // Physical quantities are pinned at the coarse level so every level
    // solves the *same* problem: same pulse, same source point (a cell
    // node at every refinement), same receiver positions (up to the
    // converging sub-cell stagger offset the analytic evaluation absorbs).
    let rise = spec.ppw * h0 / med.vs;
    let c = (n / 2) as i64;
    let src_idx = Idx3::new(c as usize, c as usize, c as usize);
    let src_pos = Station::new("src", src_idx).component_position(Component::Sxx, h);
    let moment = 1e15;
    let analytic =
        AnalyticPoint { pos: src_pos, tensor: MomentTensor::explosion(), moment, stf: Stf::Cosine { rise_time: rise } };

    let offsets: [[i64; 3]; 2] = {
        let d = spec.d_cells * scale as i64;
        let d3 = ((spec.d_cells as f64) / 3f64.sqrt()).round() as i64 * scale as i64;
        [[d, 0, 0], [d3, d3, d3]]
    };
    let stations: Vec<Station> = offsets
        .iter()
        .enumerate()
        .map(|(i, o)| {
            Station::new(
                format!("c{i}"),
                Idx3::new((c + o[0]) as usize, (c + o[1]) as usize, (c + o[2]) as usize),
            )
        })
        .collect();

    // Clean window, as in the accuracy suite: end before the reflected P.
    let wall = (c.min(n as i64 - 1 - c)) as f64 * h;
    let mut t_end = 0.0f64;
    for o in &offsets {
        let dist = ((o[0] * o[0] + o[1] * o[1] + o[2] * o[2]) as f64).sqrt() * h;
        let w = dist / med.vp + 1.15 * rise;
        let refl = (2.0 * wall - dist) / med.vp;
        assert!(w < 0.97 * refl, "level {level}: window {w:.3}s vs reflected P {refl:.3}s");
        t_end = t_end.max(w);
    }
    // Identical step *time* axis across levels: steps scale exactly with
    // the refinement so steps·dt is level-invariant.
    let base_steps = (t_end / dt0).ceil() as usize + 2;
    let steps = base_steps * scale;

    let mut cfg = SolverConfig::small(Dims3::new(n, n, n), h, dt, steps);
    cfg.abc = AbcKind::None;
    cfg.free_surface = false;
    cfg.attenuation = false;

    let model = HomogeneousModel::new(med.vp as f32, med.vs as f32, med.rho as f32);
    let mesh = MeshGenerator::new(&model, cfg.dims, h).generate();
    let source = KinematicSource::point(src_idx, MomentTensor::explosion(), moment, analytic.stf, dt);
    let result = Solver::run_serial(cfg, &mesh, &source, &stations);

    // Error: pooled over receivers and components, no shift compensation —
    // temporal phase error is precisely part of what must converge.
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for st in &stations {
        let seis = result
            .seismograms
            .iter()
            .find(|s| s.station.name == st.name)
            .expect("serial run records every station");
        let nwin = ((t_end / dt).floor() as usize + 1).min(seis.len());
        let pos = [
            st.component_position(Component::Vx, h),
            st.component_position(Component::Vy, h),
            st.component_position(Component::Vz, h),
        ];
        let refr = analytic.velocity_trace(&med, pos, dt, nwin);
        let sims = [&seis.vx[..nwin], &seis.vy[..nwin], &seis.vz[..nwin]];
        for ci in 0..3 {
            // Per-sample quadrature weight dt keeps the pooled norm a
            // level-independent time integral (sample counts differ 2×).
            for (a, b) in sims[ci].iter().zip(&refr[ci]) {
                num += (a - b) * (a - b) * dt;
            }
            den += l2(&refr[ci]).powi(2) * dt;
        }
    }
    assert!(den > 0.0, "analytic reference is silent");
    LevelResult { n, h, dt, steps, error: (num / den).sqrt() }
}

/// Run all levels and fit the observed order.
pub fn run_convergence(spec: &ConvergenceSpec) -> ConvergenceResult {
    assert!(spec.levels >= 2, "need at least two levels for an order estimate");
    let levels: Vec<LevelResult> = (0..spec.levels).map(|l| run_level(spec, l)).collect();
    let observed_order = fit_order(&levels);
    ConvergenceResult { levels, observed_order }
}

/// Least-squares slope of ln(error) against ln(h).
fn fit_order(levels: &[LevelResult]) -> f64 {
    let pts: Vec<(f64, f64)> = levels.iter().map(|l| (l.h.ln(), l.error.ln())).collect();
    let n = pts.len() as f64;
    let (sx, sy): (f64, f64) = pts.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let (sxx, sxy): (f64, f64) =
        pts.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x * x, b + x * y));
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_fit_recovers_synthetic_slopes() {
        for order in [1.0, 2.0, 4.0] {
            let levels: Vec<LevelResult> = (0..3)
                .map(|l| {
                    let h = 100.0 / (1 << l) as f64;
                    LevelResult { n: 0, h, dt: 0.0, steps: 0, error: 3.0 * h.powf(order) }
                })
                .collect();
            assert!((fit_order(&levels) - order).abs() < 1e-9);
        }
    }

    #[test]
    fn fit_tolerates_noise() {
        let errs = [0.11, 0.031, 0.0078]; // ~order 1.9 with jitter
        let levels: Vec<LevelResult> = errs
            .iter()
            .enumerate()
            .map(|(l, &e)| LevelResult { n: 0, h: 50.0 / (1 << l) as f64, dt: 0.0, steps: 0, error: e })
            .collect();
        let p = fit_order(&levels);
        assert!(p > 1.5 && p < 2.5, "fitted {p}");
    }

    /// Calibration probe (not a gate): run the full three-level study and
    /// print every level so the smoke/full order bands can be set from
    /// measured data. `cargo test -p awp-verify --release -- --ignored
    /// diag_ --nocapture`.
    #[test]
    #[ignore]
    fn diag_three_level_study() {
        let r = run_convergence(&ConvergenceSpec::full());
        for l in &r.levels {
            println!(
                "n={:4} h={:7.3} dt={:.5} steps={:4} error={:.6e}",
                l.n, l.h, l.dt, l.steps, l.error
            );
        }
        println!("fitted order {:.3}", r.observed_order);
    }

    /// Phase-vs-amplitude probe: per level, the pooled error as a function
    /// of a global time shift of the analytic reference. If the O(h) term
    /// is a residual clock offset the minimum moves off τ = 0 and deepens;
    /// if it is amplitude/shape the curve is flat in τ.
    #[test]
    #[ignore]
    fn diag_shift_scan() {
        let spec = ConvergenceSpec::smoke();
        let med = FullSpace::rock();
        for level in 0..2usize {
            let scale = 1usize << level;
            let n = spec.base_n * scale;
            let h0 = 100.0;
            let h = h0 / scale as f64;
            let dt0 = spec.cfl_frac * cfl_dt_max(h0, med.vp);
            let dt = dt0 / scale as f64;
            let rise = spec.ppw * h0 / med.vs;
            let c = (n / 2) as i64;
            let src_idx = Idx3::new(c as usize, c as usize, c as usize);
            let src_pos = Station::new("src", src_idx).component_position(Component::Sxx, h);
            let moment = 1e15;
            let analytic = AnalyticPoint {
                pos: src_pos,
                tensor: MomentTensor::explosion(),
                moment,
                stf: Stf::Cosine { rise_time: rise },
            };
            let d = spec.d_cells * scale as i64;
            let st = Station::new("c0", Idx3::new((c + d) as usize, c as usize, c as usize));
            let dist = d as f64 * h;
            let t_end = dist / med.vp + 1.15 * rise;
            let base_steps = (t_end / dt0).ceil() as usize + 2;
            let steps = base_steps * scale;
            let mut cfg = SolverConfig::small(Dims3::new(n, n, n), h, dt, steps);
            cfg.abc = AbcKind::None;
            cfg.free_surface = false;
            cfg.attenuation = false;
            let model = HomogeneousModel::new(med.vp as f32, med.vs as f32, med.rho as f32);
            let mesh = MeshGenerator::new(&model, cfg.dims, h).generate();
            let source = KinematicSource::point(
                src_idx,
                MomentTensor::explosion(),
                moment,
                analytic.stf,
                dt,
            );
            let result = Solver::run_serial(cfg, &mesh, &source, &[st.clone()]);
            let seis = &result.seismograms[0];
            let nwin = ((t_end / dt).floor() as usize + 1).min(seis.len());
            let px = st.component_position(Component::Vx, h);
            for tau_dt in [-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0] {
                let tau = tau_dt * dt;
                let (mut num, mut den) = (0.0f64, 0.0f64);
                for (s, a) in seis.vx[..nwin].iter().enumerate() {
                    let b = analytic.velocity(&med, px, s as f64 * dt + tau)[0];
                    num += (a - b) * (a - b);
                    den += b * b;
                }
                println!(
                    "n={:3} tau={:+5.2}dt  err={:.4e}",
                    n,
                    tau_dt,
                    (num / den).sqrt()
                );
            }
        }
    }

    /// Temporal-vs-spatial probe: fixed grid (32³), dt scanned via the CFL
    /// fraction. If the O(h) term is temporal the error tracks dt; if it
    /// is spatial/source-discretisation the curve is flat in dt.
    #[test]
    #[ignore]
    fn diag_dt_scan() {
        for cfl in [0.8, 0.4, 0.2] {
            let spec = ConvergenceSpec { cfl_frac: cfl, ..ConvergenceSpec::smoke() };
            let l = run_level(&spec, 0);
            println!("cfl={:.2} dt={:.5} steps={:4} err={:.4e}", cfl, l.dt, l.steps, l.error);
        }
    }

    /// Source-representation probe: fixed h, receiver distance doubled.
    /// Near-source discretisation error ∝ h/r halves; interior dispersion
    /// error would instead *grow* with the propagation distance.
    #[test]
    #[ignore]
    fn diag_distance_scan() {
        for d in [7, 14] {
            let spec =
                ConvergenceSpec { base_n: 48, d_cells: d, ..ConvergenceSpec::smoke() };
            let l = run_level(&spec, 0);
            println!("d={:2} cells  err={:.4e}", d, l.error);
        }
    }

    /// Debug-sized two-level refinement: the error must *drop* under
    /// refinement by at least the design minimum (row VRF of `awp repro`
    /// judges the calibrated band on bigger grids).
    #[test]
    fn error_decreases_under_refinement() {
        let spec = ConvergenceSpec { base_n: 20, levels: 2, d_cells: 5, ppw: 3.5, cfl_frac: 0.8 };
        let r = run_convergence(&spec);
        assert_eq!(r.levels.len(), 2);
        assert!(r.levels[1].error < r.levels[0].error, "refinement must reduce error: {r:?}");
        assert!(
            r.observed_order > 1.0 && r.observed_order <= 6.0,
            "observed order {}",
            r.observed_order
        );
    }
}
