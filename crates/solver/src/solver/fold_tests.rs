//! The folded walks against the separate-pass stepper.
//!
//! `Solver::step` lets the stress row walk damp each row it has just
//! updated and retire the velocity sponge two planes behind itself
//! (`SpongeFold`), and under the M-PML runs each window's kernel and
//! correction one k-plane after the other (`Pass::corrected`). The
//! reference here is the same stepper with `Loops::Reference`: the
//! slice-indexed loops of `kernels::reference` over the whole window, then
//! the M-PML correction over the whole window, then inject → image →
//! `Sponge`, and every velocity plane damped at the end of the tick. Both
//! must leave the same bits in every padded field, memory variable, ψ box
//! and seismogram, on every backend and however the grid is cut or
//! clustered.

use super::*;
use crate::config::{LtsOpts, SolverOpts};
use crate::simd::{detect, tests::backends};
use awp_cvm::mesh::MeshGenerator;
use awp_cvm::model::LayeredModel;
use awp_grid::dims::{Dims3, Idx3};
use awp_source::kinematic::Subfault;
use awp_source::moment::MomentTensor;
use awp_source::partition::TemporalPartition;
use awp_source::stf::Stf;

const H: f64 = 150.0;

struct Case {
    cfg: SolverConfig,
    mesh: Mesh,
    source: KinematicSource,
    stations: Vec<Station>,
}

#[derive(Clone, Copy, Debug)]
enum Walk {
    Folded(SimdBackend),
    Reference,
}

/// One rank's checkpoint fields and seismogram samples.
type Outcome = (Vec<(String, Vec<f32>)>, Vec<Vec<f64>>);

/// LOH.1 (or, with LTS, the basin whose ladder is [4×20, 2×4, 1×8]) under a
/// `width`-cell sponge with attenuation and a free surface; one Brune
/// subfault per entry of `cells`, onsets two steps apart.
fn case(d: Dims3, lts: bool, width: usize, steps: usize, cells: &[Idx3]) -> Case {
    let (model, dt, tau) = if lts {
        (LayeredModel::basin_over_rock(24.0 * H), 0.012, 0.25)
    } else {
        (LayeredModel::loh1(), 0.0105, 0.1)
    };
    let subfaults = cells.iter().enumerate().map(|(n, &idx)| {
        let tensor = MomentTensor::strike_slip(0.3 + 0.2 * n as f64);
        let one = KinematicSource::point(idx, tensor, 5.0e16, Stf::Brune { tau }, dt);
        Subfault { t0: 2.0 * n as f64 * dt, ..one.subfaults.into_iter().next().unwrap() }
    });
    let stations = vec![
        Station::new("near", Idx3::new(d.nx / 2, d.ny / 2, 0)),
        Station::new("corner", Idx3::new(1, 2, 0)),
        Station::new("deep", Idx3::new(d.nx - 2, d.ny - 3, d.nz - 1)),
    ];
    let mut cfg = SolverConfig::small(d, H, dt, steps);
    cfg.abc = AbcKind::Sponge { width, amp: 0.92 };
    cfg.attenuation = true;
    cfg.opts = if lts { SolverOpts::optimized_lts() } else { SolverOpts::optimized() };
    let mesh = MeshGenerator::new(&model, d, H).generate();
    Case { cfg, mesh, source: KinematicSource { dt, subfaults: subfaults.collect() }, stations }
}

/// `c` under a `width`-cell M-PML with cross-coupling `pmax` in place of
/// its sponge.
fn under_mpml(mut c: Case, width: usize, pmax: f64) -> Case {
    c.cfg.abc = AbcKind::Mpml { width, pmax };
    c
}

fn set_walk(solver: &mut Solver, walk: Walk) {
    match walk {
        Walk::Folded(backend) => {
            assert!(solver.kernels.folds(), "the optimized layout must fold");
            solver.kernels.loops = Loops::Lanes(backend);
        }
        Walk::Reference => solver.kernels.loops = Loops::Reference,
    }
}

fn outcome(solver: Solver) -> Outcome {
    let fields = solver.checkpoint_fields();
    let seis = solver.recorder.into_seismograms();
    (fields, seis.into_iter().flat_map(|s| [s.vx, s.vy, s.vz]).collect())
}

/// `step_serial` to the end, `before_step` ahead of each step.
fn serial(c: &Case, walk: Walk, mut before_step: impl FnMut(&mut Solver)) -> Vec<Outcome> {
    let sub = Decomp3::new(c.cfg.dims, [1, 1, 1]).subdomain(0);
    let mut solver = Solver::new(c.cfg.clone(), sub, &c.mesh, &c.source, &c.stations);
    set_walk(&mut solver, walk);
    if let Some(lo) = c.cfg.opts.lts {
        assert!(solver.enable_lts(&LtsPlan::from_mesh(&c.mesh, c.cfg.dt, lo)), "ladder expected");
    }
    let mut ledger = TimeLedger::new();
    for _ in 0..c.cfg.steps {
        before_step(&mut solver);
        solver.step_serial(&mut ledger);
    }
    vec![outcome(solver)]
}

/// `step_parallel` on every rank of `decomp`, each rank built by its
/// [`SolvePlan`] with the walk chosen per solver.
fn ranks(c: &Case, decomp: Decomp3, walk: Walk) -> Vec<Outcome> {
    let meshes = partition_mesh_direct(&c.mesh, &decomp);
    let plan = SolvePlan::new(&c.cfg, decomp, &meshes, &c.source, &c.stations).expect("valid case");
    plan.cluster().run(|ctx| {
        let mut solver = plan.rank(ctx, &meshes[ctx.rank()]).solver;
        set_walk(&mut solver, walk);
        assert_eq!(solver.lts_active(), plan.lts.is_some(), "ladder expected");
        for _ in 0..c.cfg.steps {
            solver.step_parallel(ctx);
        }
        outcome(solver)
    })
}

fn assert_same(got: &[Outcome], want: &[Outcome], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: rank count");
    for (rank, ((gf, gs), (wf, ws))) in got.iter().zip(want).enumerate() {
        assert_eq!(gf.len(), wf.len(), "{what}: rank {rank} field count");
        for ((name, g), (_, w)) in gf.iter().zip(wf) {
            let diff = g.iter().zip(w).position(|(x, y)| x.to_bits() != y.to_bits());
            assert_eq!(diff, None, "{what}: rank {rank} {name} differs from the reference");
        }
        let bits = |s: &[Vec<f64>]| s.iter().flatten().map(|v| v.to_bits()).collect::<Vec<u64>>();
        assert!(bits(gs) == bits(ws), "{what}: rank {rank} seismograms differ");
        let peak = gf.iter().flat_map(|(_, d)| d).fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(peak > 0.0 && peak.is_finite(), "{what}: rank {rank} carries no signal");
    }
}

/// Every backend's folded serial run against the serial reference.
fn assert_serial_folds(c: &Case, what: &str) {
    let want = serial(c, Walk::Reference, |_| {});
    for b in backends() {
        assert_same(&serial(c, Walk::Folded(b), |_| {}), &want, &format!("{what} {}", b.name()));
    }
}

#[test]
fn sources_in_the_sponge_zone_and_under_the_surface_are_damped_after_injection() {
    let d = Dims3::new(24, 22, 16);
    // x-hi, y-hi and z-hi zone cells of a 6-cell sponge, then rows the
    // free-surface imaging reads (k = 0, 1, 2) — one of them in the x-lo
    // zone too — and one plain interior cell.
    let cells = [
        Idx3::new(d.nx - 3, 11, 5),
        Idx3::new(12, d.ny - 2, 6),
        Idx3::new(12, 11, d.nz - 3),
        Idx3::new(13, 10, 0),
        Idx3::new(2, 6, 1),
        Idx3::new(11, 12, 2),
        Idx3::new(10, 9, 7),
    ];
    assert_serial_folds(&case(d, false, 6, 40, &cells), "zone sources");
    // The default 20-cell sponge overlaps itself on this grid: no cell has
    // factor 1.
    assert_serial_folds(&case(d, false, 20, 24, &cells[..4]), "overlapping sponges");
}

#[test]
fn fault_planes_defer_one_row_per_subfault_or_one_per_depth() {
    let d = Dims3::new(24, 22, 16);
    // Striking along y: every subfault has its own (j, k) row.
    let along_y: Vec<Idx3> =
        (2..8).flat_map(|k| (4..16).step_by(2).map(move |j| Idx3::new(9, j, k))).collect();
    assert_serial_folds(&case(d, false, 6, 30, &along_y), "fault along y");
    // Striking along x: a row holds many subfaults, one row per depth.
    let along_x: Vec<Idx3> =
        (3..7).flat_map(|k| (3..19).step_by(3).map(move |i| Idx3::new(i, 10, k))).collect();
    assert_serial_folds(&case(d, false, 6, 30, &along_x), "fault along x");
}

#[test]
fn swapping_the_source_mid_run_swaps_the_deferred_rows() {
    let d = Dims3::new(20, 18, 12);
    let cells = [Idx3::new(10, 9, 5), Idx3::new(4, 14, 1), Idx3::new(16, 3, 9)];
    let mut c = case(d, false, 5, 36, &cells);
    // Late onsets, so later windows hold rows the first one does not.
    for (n, sf) in c.source.subfaults.iter_mut().enumerate() {
        sf.t0 = 9.0 * n as f64 * c.cfg.dt;
    }
    let tp = TemporalPartition::new(&c.source, 8);
    assert!(tp.segments.len() >= 3, "the run must cross several source windows");
    let whole = std::mem::replace(&mut c.source, tp.segments[0].clone());
    let swap = |s: &mut Solver| {
        let seg = tp.segment_for(s.step as f64 * s.cfg.dt);
        s.set_source(&tp.segments[seg]);
    };
    let want = serial(&c, Walk::Reference, swap);
    for b in backends() {
        assert_same(&serial(&c, Walk::Folded(b), swap), &want, b.name());
    }
    // … and this loop is `run_serial_windowed`.
    let windowed = Solver::run_serial_windowed(c.cfg.clone(), &c.mesh, &whole, &c.stations, 8);
    let samples: Vec<Vec<f64>> =
        windowed.seismograms.into_iter().flat_map(|s| [s.vx, s.vy, s.vz]).collect();
    assert!(samples == serial(&c, Walk::Folded(detect()), swap)[0].1);
}

#[test]
fn lts_interfaces_inside_the_bottom_sponge_keep_their_edge_planes() {
    // Interfaces at k = 20 and 24, both inside the z-hi zone (k ≥ 12); the
    // 4-plane middle cluster retires nothing, its neighbours all but the
    // planes under an interface.
    let d = Dims3::new(24, 20, 32);
    let cells = [Idx3::new(13, 9, 8), Idx3::new(6, 14, 22), Idx3::new(18, 4, 27)];
    let c = case(d, true, 20, 44, &cells);
    assert_serial_folds(&c, "basin ladder");
    // The same ladder cut along x and y, each cluster exchanging its own
    // k-range.
    for parts in [[2, 1, 1], [2, 2, 1]] {
        let decomp = Decomp3::new(d, parts);
        let want = ranks(&c, decomp, Walk::Reference);
        let what = format!("basin ladder {parts:?}");
        assert_same(&ranks(&c, decomp, Walk::Folded(detect())), &want, &what);
    }
    // A thinner ladder: min_slab 6 moves the interfaces.
    let mut thin = case(d, true, 20, 44, &cells);
    thin.cfg.opts.lts = Some(LtsOpts { max_rate_log2: 2, min_slab: 6 });
    assert_serial_folds(&thin, "basin ladder, min_slab 6");
}

#[test]
fn slab_pipelines_fold_like_the_serial_walk() {
    // Ranks 7 / 8 / 12 / 16 planes tall, cut along x, y and both.
    for nz in [7, 8, 12, 16] {
        let d = Dims3::new(20, 18, nz);
        let cells = [Idx3::new(10, 9, nz / 2), Idx3::new(3, 15, 1), Idx3::new(17, 2, nz - 2)];
        let sponge = case(d, false, 5, 24, &cells);
        let (width, pmax) = if nz < 12 { (4, 0.3) } else { (8, 0.0) };
        let mpml = under_mpml(case(d, false, 5, 24, &cells), width, pmax);
        for c in [&sponge, &mpml] {
            for parts in [[2, 1, 1], [1, 2, 1], [2, 2, 1]] {
                let decomp = Decomp3::new(d, parts);
                let want = ranks(c, decomp, Walk::Reference);
                for b in backends() {
                    let what = format!("nz {nz} {:?} {parts:?} {}", c.cfg.abc, b.name());
                    assert_same(&ranks(c, decomp, Walk::Folded(b)), &want, &what);
                }
            }
        }
    }
}

#[test]
fn thin_surface_ranks_fold_with_little_or_nothing_to_retire() {
    for nz in [4, 5, 7] {
        // Alone on the grid: the walk retires planes 0..nz − 2.
        let d = Dims3::new(18, 16, nz);
        let cells = [Idx3::new(9, 8, nz / 2), Idx3::new(14, 3, 0)];
        assert_serial_folds(&case(d, false, 4, 20, &cells), &format!("nz {nz}"));
        // … and as the surface rank of a z cut, above a rank as thin.
        let d = Dims3::new(18, 16, 2 * nz);
        let cells = [Idx3::new(9, 8, nz / 2), Idx3::new(14, 3, 0), Idx3::new(5, 11, nz + 1)];
        let c = case(d, false, 4, 20, &cells);
        for parts in [[1, 1, 2], [2, 1, 2]] {
            let decomp = Decomp3::new(d, parts);
            assert_eq!(decomp.subdomain(0).dims.nz, nz);
            let want = ranks(&c, decomp, Walk::Reference);
            let what = format!("nz {nz} {parts:?}");
            assert_same(&ranks(&c, decomp, Walk::Folded(detect())), &want, &what);
        }
    }
}

#[test]
fn blocked_walks_keep_the_separate_velocity_pass() {
    // A blocked spec visits rows out of k-major order: the stress rows
    // still fold, the velocity planes all wait for the end of the tick.
    let d = Dims3::new(24, 22, 16);
    let cells = [Idx3::new(12, 11, 5), Idx3::new(20, 3, 1)];
    for block in [BlockSpec::JAGUAR, BlockSpec::new(3, 5), BlockSpec::new(2, usize::MAX)] {
        let mut c = case(d, false, 6, 24, &cells);
        c.cfg.opts.block = block;
        assert_serial_folds(&c, &format!("{block:?}"));
        // … and under the M-PML, planes interleave with its correction.
        c.cfg.abc = AbcKind::Mpml { width: 4, pmax: 0.3 };
        assert_serial_folds(&c, &format!("M-PML {block:?}"));
    }
}

#[test]
fn mpml_planes_interleave_like_the_two_sweeps() {
    let d = Dims3::new(28, 26, 18);
    // x-lo, y-hi and bottom zone cells of a 4-cell layer (all inside the
    // 10-cell one), a surface row and one cell no layer reaches.
    let cells = [
        Idx3::new(2, 13, 6),
        Idx3::new(14, d.ny - 3, 4),
        Idx3::new(13, 12, d.nz - 2),
        Idx3::new(20, 6, 0),
        Idx3::new(14, 13, 5),
    ];
    for width in [4, 10] {
        for pmax in [0.0, 0.3] {
            let c = under_mpml(case(d, false, 6, 30, &cells), width, pmax);
            assert_serial_folds(&c, &format!("M-PML width {width} pmax {pmax}"));
        }
    }
}

#[test]
fn mpml_lts_interfaces_inside_the_bottom_zone_interleave_like_the_two_sweeps() {
    let (d, width) = (Dims3::new(28, 26, 32), 12);
    let cells = [Idx3::new(13, 9, 8), Idx3::new(6, 14, 22), Idx3::new(18, 4, 27)];
    let c = under_mpml(case(d, true, 20, 44, &cells), width, 0.3);
    let sub = Decomp3::new(d, [1, 1, 1]).subdomain(0);
    let mut solver = Solver::new(c.cfg.clone(), sub, &c.mesh, &c.source, &c.stations);
    solver.enable_lts(&LtsPlan::from_mesh(&c.mesh, c.cfg.dt, c.cfg.opts.lts.unwrap()));
    let interfaces: Vec<usize> = solver.plan.clusters[1..].iter().map(|cl| cl.win.k0).collect();
    assert!(
        !interfaces.is_empty() && interfaces.iter().all(|&k| k >= d.nz - width),
        "cluster interfaces {interfaces:?} must lie in the bottom {width} planes"
    );
    assert_serial_folds(&c, "M-PML basin ladder");
    let decomp = Decomp3::new(d, [2, 1, 1]);
    let want = ranks(&c, decomp, Walk::Reference);
    assert_same(&ranks(&c, decomp, Walk::Folded(detect())), &want, "M-PML basin ladder [2, 1, 1]");
}
