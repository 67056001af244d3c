//! Flush-to-zero is a solver invariant (`awp_grid::fpmode`): whichever
//! stepper, boundary, decomposition or thread class runs the arithmetic, no
//! wavefield value, memory variable or M-PML ψ is ever left subnormal, and
//! the thread that called the solver gets its floating-point mode back.
//!
//! Every case fails without the guards: the faint leading edge of the
//! wavefield and the decay tails of sponge, PML and attenuation underflow
//! gradually, so a few percent of the values are subnormal mid-run.

use awp_cvm::mesh::{Mesh, MeshGenerator};
use awp_cvm::model::LayeredModel;
use awp_grid::decomp::Decomp3;
use awp_grid::dims::{Dims3, Idx3};
use awp_grid::fpmode;
use awp_solver::solver::{partition_mesh_direct, Solver};
use awp_solver::{AbcKind, LtsPlan, SolverConfig, SolverOpts};
use awp_source::kinematic::KinematicSource;
use awp_source::moment::MomentTensor;
use awp_source::partition::partition_spatial;
use awp_source::stf::Stf;
use awp_vcluster::{Cluster, TimeLedger};

const DIMS: Dims3 = Dims3 { nx: 32, ny: 32, nz: 24 };
const H: f64 = 150.0;
const STEPS: usize = 96;
/// Census cadence: the subnormal front sweeps the grid and is gone once
/// the signal has filled it, so the end state alone would prove little.
const EVERY: usize = 4;

#[derive(Clone, Copy, Debug)]
enum Exec {
    Serial,
    Ranks,
}

/// Subnormal values in everything a restart would need: the nine padded
/// fields, the six memory variables, and every ψ box (the solver's and
/// each LTS cluster's).
fn census(solver: &Solver) -> usize {
    solver
        .checkpoint_fields()
        .iter()
        .map(|(_, data)| data.iter().filter(|v| v.is_subnormal()).count())
        .sum()
}

fn fixture(abc: AbcKind, lts: bool) -> (SolverConfig, Mesh, KinematicSource) {
    // LOH.1 for global dt; a 12-cell basin over rock for LTS, whose 4× Vp
    // contrast earns the soft top a coarser rate.
    let (model, dt) = if lts {
        (LayeredModel::basin_over_rock(12.0 * H), 0.012)
    } else {
        (LayeredModel::loh1(), 0.0105)
    };
    let mesh = MeshGenerator::new(&model, DIMS, H).generate();
    let source = KinematicSource::point(
        Idx3::new(DIMS.nx / 2 + 1, DIMS.ny / 2 - 1, 8),
        MomentTensor::strike_slip(0.3),
        5.0e16,
        Stf::Brune { tau: 0.1 },
        dt,
    );
    let mut cfg = SolverConfig::small(DIMS, H, dt, STEPS);
    cfg.abc = abc;
    cfg.attenuation = true;
    cfg.opts = if lts { SolverOpts::optimized_lts() } else { SolverOpts::optimized() };
    (cfg, mesh, source)
}

/// Step the case to the end; returns the subnormal count summed over the
/// sampled steps and ranks, and the peak |v| (the run must carry signal).
fn run(abc: AbcKind, lts: bool, exec: Exec) -> (usize, f32) {
    let (cfg, mesh, source) = fixture(abc, lts);
    let plan = cfg.opts.lts.map(|lo| LtsPlan::from_mesh(&mesh, cfg.dt, lo));
    if let Some(p) = &plan {
        assert!(p.is_multi_rate(), "the basin must split into dt-clusters: {:?}", p.clusters);
    }
    let parts = match exec {
        Exec::Serial => [1, 1, 1],
        Exec::Ranks => [2, 1, 1],
    };
    let decomp = Decomp3::new(DIMS, parts);

    if matches!(exec, Exec::Serial) {
        let mut solver = Solver::new(cfg.clone(), decomp.subdomain(0), &mesh, &source, &[]);
        if let Some(p) = &plan {
            assert!(solver.enable_lts(p));
        }
        let mut ledger = TimeLedger::new();
        let mut subnormal = 0;
        for step in 1..=STEPS {
            solver.step_serial(&mut ledger);
            if step % EVERY == 0 {
                subnormal += census(&solver);
            }
        }
        return (subnormal, solver.state.max_velocity());
    }

    let meshes = partition_mesh_direct(&mesh, &decomp);
    let sources = partition_spatial(&source, &decomp);
    let per_rank = Cluster::new(decomp.rank_count(), cfg.opts.comm_mode.into()).run(|ctx| {
        let rank = ctx.rank();
        let sub = decomp.subdomain(rank);
        let mut solver =
            Solver::try_new_rank(cfg.clone(), sub, &meshes[rank], &sources[rank], &[], 0.0, ctx)
                .expect("valid configuration");
        if let Some(p) = &plan {
            assert!(solver.enable_lts(p));
        }
        let mode = fpmode::control_word();
        let mut subnormal = 0;
        for step in 1..=STEPS {
            solver.step_parallel(ctx);
            if step % EVERY == 0 {
                subnormal += census(&solver);
            }
        }
        assert_eq!(
            fpmode::control_word(),
            mode,
            "rank {rank}: step_parallel must restore the mode"
        );
        (subnormal, solver.state.max_velocity())
    });
    per_rank.into_iter().fold((0, 0.0), |(n, peak), (m, v)| (n + m, peak.max(v)))
}

#[test]
fn no_subnormal_survives_any_stepper_and_the_callers_mode_is_restored() {
    let mode = fpmode::control_word();
    for abc in [AbcKind::default_sponge(), AbcKind::m8()] {
        for lts in [false, true] {
            for exec in [Exec::Serial, Exec::Ranks] {
                let (subnormal, peak) = run(abc, lts, exec);
                let case = format!("{abc:?} lts={lts} {exec:?}");
                assert!(peak > 0.0 && peak.is_finite(), "{case}: peak |v| {peak}");
                assert_eq!(subnormal, 0, "{case}: subnormal values in the solver state");
                assert_eq!(fpmode::control_word(), mode, "{case}: caller's control word");
            }
        }
    }
}
