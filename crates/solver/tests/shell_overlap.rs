//! Shell/interior split timestep (§IV.C) — equivalence and steady-state
//! properties.
//!
//! The overlap path exists only because the split is *bit-exact* against
//! the fused kernels: the velocity pass reads only stresses and the stress
//! pass reads only velocities, so per-cell updates are window-order
//! invariant. These tests pin that claim across backends, grid shapes and
//! rank decompositions, and pin the operational guarantees around it
//! (allocation-free steady state, construction-time config validation).

use awp_cvm::mesh::{Mesh, MeshGenerator};
use awp_cvm::model::LayeredModel;
use awp_grid::blocking::BlockSpec;
use awp_grid::decomp::Decomp3;
use awp_grid::dims::{Dims3, Idx3};
use awp_grid::stagger::Component;
use awp_solver::config::CommModeOpt;
use awp_solver::kernels::{update_stress, update_stress_win, update_velocity, update_velocity_win};
use awp_solver::simd::{
    update_stress_simd, update_stress_simd_win, update_velocity_simd, update_velocity_simd_win,
};
use awp_solver::solver::partition_mesh_direct;
use awp_solver::state::MemoryVars;
use awp_solver::{
    run_parallel, try_run_parallel, AbcKind, ConfigError, Medium, ShellPlan, Solver, SolverConfig,
    Station, WaveState, Win,
};
use awp_source::kinematic::KinematicSource;
use awp_source::moment::MomentTensor;
use awp_source::stf::Stf;

/// Random-field fixture: LOH.1 layered medium + xorshift-filled wavefield.
fn setup(d: Dims3, seed: u64) -> (Medium, WaveState) {
    let m = LayeredModel::loh1();
    let mesh = MeshGenerator::new(&m, d, 150.0).generate();
    let mut med = Medium::from_mesh(&mesh);
    med.precompute();
    let mut st = WaveState::new(d, false);
    let mut x = seed | 1;
    for c in Component::ALL {
        let f = st.field_mut(c);
        for v in f.as_mut_slice() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = ((x % 2000) as f32 / 1000.0 - 1.0) * 1e4;
        }
    }
    (med, st)
}

fn assert_bits_equal(a: &WaveState, b: &WaveState, what: &str) {
    for c in Component::ALL {
        for (i, (x, y)) in a.field(c).as_slice().iter().zip(b.field(c).as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {c:?}[{i}] {x:e} vs {y:e}");
        }
    }
}

/// Grid shapes covering full-vector rows, ragged SIMD tails, rows narrower
/// than any vector width, and degenerate one-cell planes.
const DIMS: [(usize, usize, usize); 8] = [
    (16, 12, 10),
    (13, 11, 9),
    (8, 8, 8),
    (7, 5, 4),
    (5, 3, 3),
    (3, 2, 2),
    (9, 1, 1),
    (33, 4, 3),
];

/// Width patterns emulating different neighbour layouts (which faces have
/// a rank across them): all faces, one axis only, asymmetric, none.
const WIDTHS: [[usize; 6]; 5] = [
    [2, 2, 2, 2, 2, 2],
    [2, 2, 0, 0, 0, 0],
    [0, 0, 2, 2, 2, 0],
    [2, 0, 0, 2, 0, 2],
    [0, 0, 0, 0, 0, 0],
];

fn run_windows<F: FnMut(&mut WaveState, Win)>(plan: &ShellPlan, st: &mut WaveState, mut f: F) {
    for w in plan.shells {
        f(st, w);
    }
    f(st, plan.interior);
}

#[test]
fn shell_interior_union_matches_fused_scalar() {
    let block = BlockSpec::JAGUAR;
    for (i, &(nx, ny, nz)) in DIMS.iter().enumerate() {
        let d = Dims3::new(nx, ny, nz);
        for (j, &widths) in WIDTHS.iter().enumerate() {
            let plan = ShellPlan::from_widths(d, widths, false);
            assert_eq!(
                plan.shell_cells() + plan.interior.count(),
                d.count(),
                "windows must partition {d:?} under {widths:?}"
            );
            let (med, st) = setup(d, 0xa5a5_0000 + (i * 16 + j) as u64);
            let mut fused = st.clone();
            let mut split = st;
            fused.mem = Some(MemoryVars::new(d));
            split.mem = fused.mem.clone();
            let at = awp_solver::attenuation::Attenuation::new(
                &med,
                1e-3,
                0.1,
                3.0,
                Idx3::new(0, 0, 0),
            );
            update_velocity(&mut fused, &med, 0.01, block, true);
            update_stress(&mut fused, &med, Some(&at), 0.01, 1e-3, block, true);
            run_windows(&plan, &mut split, |s, w| {
                update_velocity_win(s, &med, 0.01, block, w);
            });
            run_windows(&plan, &mut split, |s, w| {
                update_stress_win(s, &med, Some(&at), 0.01, 1e-3, block, w);
            });
            assert_bits_equal(&fused, &split, &format!("scalar {d:?} widths {widths:?}"));
        }
    }
}

#[test]
fn shell_interior_union_matches_fused_simd() {
    let block = BlockSpec::JAGUAR;
    for (i, &(nx, ny, nz)) in DIMS.iter().enumerate() {
        let d = Dims3::new(nx, ny, nz);
        for (j, &widths) in WIDTHS.iter().enumerate() {
            let plan = ShellPlan::from_widths(d, widths, false);
            let (med, st) = setup(d, 0x5a5a_0000 + (i * 16 + j) as u64);
            let mut fused = st.clone();
            let mut split = st;
            update_velocity_simd(&mut fused, &med, 0.01, block);
            update_stress_simd(&mut fused, &med, None, 0.01, 1e-3, block);
            run_windows(&plan, &mut split, |s, w| {
                update_velocity_simd_win(s, &med, 0.01, block, w);
            });
            run_windows(&plan, &mut split, |s, w| {
                update_stress_simd_win(s, &med, None, 0.01, 1e-3, block, w);
            });
            assert_bits_equal(&fused, &split, &format!("simd {d:?} widths {widths:?}"));
        }
    }
}

fn overlap_fixture(d: Dims3, steps: usize) -> (Mesh, KinematicSource, [Station; 1], SolverConfig) {
    let h = 150.0;
    let dt = 0.009;
    let m = LayeredModel::loh1();
    let mesh = MeshGenerator::new(&m, d, h).generate();
    let src = KinematicSource::point(
        Idx3::new(d.nx / 2, d.ny / 2, d.nz / 2),
        MomentTensor::strike_slip(0.3),
        5.0e16,
        Stf::Brune { tau: 0.1 },
        dt,
    );
    let stations = [Station::new("a", Idx3::new(3, 3, 0))];
    let mut cfg = SolverConfig::small(d, h, dt, steps);
    // All the features the old overlap path had to exclude, together:
    // M-PML absorbing boundaries, free surface, attenuation.
    cfg.abc = AbcKind::Mpml { width: 4, pmax: 0.2 };
    cfg.attenuation = true;
    (mesh, src, stations, cfg)
}

fn rank_fields(results: &[awp_solver::RankResult]) -> Vec<(usize, Vec<f32>, Vec<f64>)> {
    let mut v: Vec<_> = results
        .iter()
        .map(|r| {
            let seis = r
                .seismograms
                .first()
                .map(|s| s.vx.clone())
                .unwrap_or_default();
            (r.rank, r.surface.clone().unwrap_or_default(), seis)
        })
        .collect();
    v.sort_by_key(|(r, _, _)| *r);
    v
}

#[test]
fn overlap_matches_plain_across_decompositions_with_all_features() {
    let d = Dims3::new(20, 18, 14);
    let (mesh, src, stations, mut cfg) = overlap_fixture(d, 24);
    // [1,1,1] is the rank with no neighbours: overlap on, yet every shell
    // window is empty and the interior is the whole grid.
    for parts in [[1, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2]] {
        let decomp = Decomp3::new(d, parts);
        let meshes = partition_mesh_direct(&mesh, &decomp);
        cfg.opts.overlap = false;
        let plain = run_parallel(&cfg, parts, &meshes, &src, &stations);
        cfg.opts.overlap = true;
        let overlapped = run_parallel(&cfg, parts, &meshes, &src, &stations);
        assert_eq!(
            rank_fields(&plain),
            rank_fields(&overlapped),
            "shell/interior overlap must be bit-exact for {parts:?}"
        );
    }
}

#[test]
fn mpml_split_matches_fused_on_subdomains_narrower_than_the_layer() {
    // 4 parts along x leave 5-cell subdomains under a 6-cell layer: the
    // edge ranks are zone from face to face, their neighbours hold one
    // column of the x layers without touching an x face, and every shell
    // window cuts through zone boxes. SIMD + overlap must still equal the
    // fused scalar pass, on 4 and on 8 ranks.
    let d = Dims3::new(20, 18, 14);
    let (mesh, src, stations, mut cfg) = overlap_fixture(d, 24);
    cfg.abc = AbcKind::Mpml { width: 6, pmax: 0.2 };
    for parts in [[4, 1, 1], [4, 2, 1]] {
        let decomp = Decomp3::new(d, parts);
        let meshes = partition_mesh_direct(&mesh, &decomp);
        cfg.opts.overlap = false;
        cfg.opts.simd = false;
        let fused = run_parallel(&cfg, parts, &meshes, &src, &stations);
        cfg.opts.overlap = true;
        cfg.opts.simd = true;
        let split = run_parallel(&cfg, parts, &meshes, &src, &stations);
        assert_eq!(rank_fields(&fused), rank_fields(&split), "{parts:?}");
    }
}

#[test]
fn mpml_memory_follows_each_ranks_zone_cells() {
    // ψ is held for zone cells only: 18 f32 per cell on every rank, the
    // rank zones tile the global zone, and `zone_fraction` reports the
    // same cells the allocation covers.
    let d = Dims3::new(20, 18, 14);
    let (mesh, src, stations, cfg) = overlap_fixture(d, 1);
    let width = cfg.abc.width();
    let global_zone = d.count() - (d.nx - 2 * width) * (d.ny - 2 * width) * (d.nz - width);
    for parts in [[1, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2]] {
        let decomp = Decomp3::new(d, parts);
        let meshes = partition_mesh_direct(&mesh, &decomp);
        let mut zone = 0;
        for (rank, local) in meshes.iter().enumerate() {
            let sub = decomp.subdomain(rank);
            let solver = Solver::new(cfg.clone(), sub, local, &src, &stations);
            let pml = solver.mpml.as_ref().expect("fixture uses M-PML");
            assert_eq!(pml.psi_bytes(), 18 * 4 * pml.zone_cells(), "{parts:?} rank {rank}");
            let frac = pml.zone_cells() as f64 / sub.dims.count() as f64;
            assert_eq!(pml.zone_fraction(), frac, "{parts:?} rank {rank}");
            zone += pml.zone_cells();
        }
        assert_eq!(zone, global_zone, "{parts:?}");
    }
}

#[test]
fn overlap_steady_state_is_allocation_free() {
    // After warmup has sized the pooled halo buffers, the split timestep's
    // send-early/recv-late pipeline must never touch the heap again.
    let d = Dims3::new(16, 14, 12);
    let (mesh, src, stations, cfg) = overlap_fixture(d, 1);
    let parts = [2, 2, 1];
    let decomp = Decomp3::new(d, parts);
    let meshes = partition_mesh_direct(&mesh, &decomp);
    let sources = awp_source::partition::partition_spatial(&src, &decomp);
    let cluster = awp_vcluster::Cluster::new(4, awp_vcluster::CommMode::Asynchronous);
    let flat: Vec<bool> = cluster.run(|ctx| {
        let sub = decomp.subdomain(ctx.rank());
        let mut solver = Solver::new(
            cfg.clone(),
            sub,
            &meshes[ctx.rank()],
            &sources[ctx.rank()],
            &stations,
        );
        for _ in 0..4 {
            solver.step_parallel(ctx);
        }
        ctx.barrier();
        let warm = solver.arena_allocations();
        for _ in 0..12 {
            solver.step_parallel(ctx);
        }
        ctx.barrier();
        solver.arena_allocations() == warm
    });
    assert!(flat.iter().all(|&f| f), "overlap path allocated in steady state: {flat:?}");
}

#[test]
fn overlap_on_sync_engine_is_rejected_at_construction() {
    let d = Dims3::new(12, 10, 8);
    let (mesh, src, stations, mut cfg) = overlap_fixture(d, 4);
    cfg.opts.comm_mode = CommModeOpt::Synchronous; // overlap left on
    let decomp = Decomp3::new(d, [1, 1, 1]);
    let err = Solver::try_new(cfg.clone(), decomp.subdomain(0), &mesh, &src, &stations)
        .err()
        .expect("overlap + synchronous engine must be rejected");
    assert_eq!(err, ConfigError::OverlapNeedsAsyncEngine);
    let parts = [2, 1, 1];
    let meshes = partition_mesh_direct(&mesh, &Decomp3::new(d, parts));
    let err = try_run_parallel(&cfg, parts, &meshes, &src, &stations)
        .expect_err("try_run_parallel must validate before spawning ranks");
    assert_eq!(err, ConfigError::OverlapNeedsAsyncEngine);
    // The same options become valid by flipping either knob.
    cfg.opts.overlap = false;
    assert!(cfg.validate().is_ok());
    cfg.opts.overlap = true;
    cfg.opts.comm_mode = CommModeOpt::Asynchronous;
    assert!(cfg.validate().is_ok());
}

#[test]
fn overlap_records_exchange_phase_timing() {
    // The per-phase breakdown the bench reads must be populated: a
    // multi-rank overlap run with telemetry attached records send, wait,
    // inject and the four split compute phases on every rank.
    use awp_solver::telemetry::{Counter, Phase, Registry};
    let d = Dims3::new(16, 14, 12);
    let (mesh, src, stations, cfg) = overlap_fixture(d, 10);
    let parts = [2, 1, 1];
    let meshes = partition_mesh_direct(&mesh, &Decomp3::new(d, parts));
    let reg = Registry::new(2);
    let decomp = Decomp3::new(d, parts);
    let results = awp_solver::try_run_parallel_decomp(
        &cfg,
        decomp,
        &meshes,
        &src,
        &stations,
        Some(reg.clone()),
        None,
    )
    .expect("valid overlap workload");
    for r in &results {
        let tel = &r.telemetry;
        assert!(tel.enabled, "rank {} has no telemetry", r.rank);
        assert!(tel.phase_ns(Phase::Send) > 0, "rank {} recorded no send time", r.rank);
        assert!(tel.phase_ns(Phase::Inject) > 0, "rank {} recorded no inject time", r.rank);
        assert!(tel.phase_ns(Phase::VelocityShell) > 0, "rank {} missing shell spans", r.rank);
        assert!(tel.phase_ns(Phase::VelocityInterior) > 0, "rank {} missing interior", r.rank);
        assert!(tel.phase_ns(Phase::StressShell) > 0, "rank {}", r.rank);
        assert!(tel.phase_ns(Phase::StressInterior) > 0, "rank {}", r.rank);
        assert!(tel.counter(Counter::MsgsSent) > 0, "rank {} counted no sends", r.rank);
    }
    // Cross-rank report exists and carries the headline ratios.
    let rep = reg.report();
    assert_eq!(rep.ranks, 2);
    assert!(rep.load_imbalance >= 1.0);
    assert!((0.0..=1.0).contains(&rep.hidden_comm_fraction));
    // Without a registry the same run keeps telemetry disabled end-to-end.
    let plain = run_parallel(&cfg, parts, &meshes, &src, &stations);
    for r in &plain {
        assert!(!r.telemetry.enabled);
        assert_eq!(r.telemetry.phase_ns(Phase::Send), 0);
    }
}
