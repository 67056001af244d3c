//! Decomposition equivalence — parallel ≡ serial — and the steady-state
//! properties of the rank-parallel step.
//!
//! A windowed walk is *bit-exact* against the fused kernels: the velocity
//! pass reads only stresses and the stress pass reads only velocities, so
//! per-cell updates are window-order invariant. These tests pin that claim
//! across backends, grid shapes and window shapes, pin every rank
//! decomposition of a run to the serial run bit for bit — every boundary
//! kind, layered and procedural-CVM media, LTS, any delivery order — and
//! pin the operational guarantees around it (allocation-free steady state,
//! the health sentinel, the exchange telemetry).

use awp_cvm::material::MaterialSample;
use awp_cvm::mesh::{Mesh, MeshGenerator};
use awp_cvm::model::{CommunityVelocityModel, LayeredModel};
use awp_cvm::SoCalModel;
use awp_grid::blocking::BlockSpec;
use awp_grid::decomp::Decomp3;
use awp_grid::dims::{Dims3, Idx3};
use awp_grid::stagger::Component;
use awp_solver::kernels::{update_stress, update_velocity};
use awp_solver::simd::{
    detect, update_stress_backend_win, update_stress_simd, update_velocity_backend_win,
    update_velocity_simd, SimdBackend,
};
use awp_solver::solver::partition_mesh_direct;
use awp_solver::state::MemoryVars;
use awp_solver::{
    global_vp_max, run_parallel, AbcKind, ConfigError, LtsOpts, LtsPlan, Medium, RankResult,
    SolvePlan, Solver, SolverConfig, Station, WaveState, Win,
};
use awp_source::kinematic::KinematicSource;
use awp_source::moment::MomentTensor;
use awp_source::stf::Stf;
use awp_vcluster::{Cluster, CommMode, FaultKind, SchedulePlan};

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

/// Face-box widths `[x_lo, x_hi, y_lo, y_hi, z_lo, z_hi]` peeled off the
/// grid before the core: all faces, one axis only, asymmetric, none.
const WIDTHS: [[usize; 6]; 5] = [
    [2, 2, 2, 2, 2, 2],
    [2, 2, 0, 0, 0, 0],
    [0, 0, 2, 2, 2, 0],
    [2, 0, 0, 2, 0, 2],
    [0, 0, 0, 0, 0, 0],
];

/// The boxes of `d` cut `widths` cells in from each face: thin shells
/// (rows shorter than any vector) around an interior, covering the grid
/// exactly once.
fn shell_and_interior(d: Dims3, widths: [usize; 6]) -> Vec<Win> {
    let edges = |n: usize, lo: usize, hi: usize| {
        let mut e = vec![0, lo.min(n), n.saturating_sub(hi).max(lo.min(n)), n];
        e.dedup();
        e
    };
    let [xl, xh, yl, yh, zl, zh] = widths;
    let (ei, ej, ek) = (edges(d.nx, xl, xh), edges(d.ny, yl, yh), edges(d.nz, zl, zh));
    let mut out = Vec::new();
    for k in ek.windows(2) {
        for j in ej.windows(2) {
            for i in ei.windows(2) {
                out.push(Win { i0: i[0], i1: i[1], j0: j[0], j1: j[1], k0: k[0], k1: k[1] });
            }
        }
    }
    out
}

fn run_windows<F: FnMut(&mut WaveState, Win)>(wins: &[Win], st: &mut WaveState, mut f: F) {
    for &w in wins {
        f(st, w);
    }
}

#[test]
fn shell_interior_union_matches_fused_scalar() {
    let block = BlockSpec::JAGUAR;
    for (i, &(nx, ny, nz)) in DIMS.iter().enumerate() {
        let d = Dims3::new(nx, ny, nz);
        for (j, &widths) in WIDTHS.iter().enumerate() {
            let plan = shell_and_interior(d, widths);
            assert_eq!(
                plan.iter().map(Win::count).sum::<usize>(),
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
                update_velocity_backend_win(s, &med, 0.01, block, w, SimdBackend::Scalar);
            });
            run_windows(&plan, &mut split, |s, w| {
                let scalar = SimdBackend::Scalar;
                update_stress_backend_win(s, &med, Some(&at), 0.01, 1e-3, block, w, scalar);
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
            let plan = shell_and_interior(d, widths);
            let (med, st) = setup(d, 0x5a5a_0000 + (i * 16 + j) as u64);
            let mut fused = st.clone();
            let mut split = st;
            update_velocity_simd(&mut fused, &med, 0.01, block);
            update_stress_simd(&mut fused, &med, None, 0.01, 1e-3, block);
            run_windows(&plan, &mut split, |s, w| {
                update_velocity_backend_win(s, &med, 0.01, block, w, detect());
            });
            run_windows(&plan, &mut split, |s, w| {
                update_stress_backend_win(s, &med, None, 0.01, 1e-3, block, w, detect());
            });
            assert_bits_equal(&fused, &split, &format!("simd {d:?} widths {widths:?}"));
        }
    }
}

type Fixture = (Mesh, KinematicSource, Vec<Station>, SolverConfig);

/// A point source `src_k` planes down in `model` with stations in every
/// octant (two at depth, so z-split bottom ranks are observed too) and all
/// the features a decomposed step composes with: M-PML, free surface,
/// attenuation.
fn fixture<M: CommunityVelocityModel>(
    model: &M,
    d: Dims3,
    h: f64,
    dt: f64,
    src_k: usize,
    steps: usize,
) -> Fixture {
    let mesh = MeshGenerator::new(model, d, h).generate();
    let src = KinematicSource::point(
        Idx3::new(d.nx / 2, d.ny / 2, src_k),
        MomentTensor::strike_slip(0.3),
        5.0e16,
        Stf::Brune { tau: 0.1 },
        dt,
    );
    let stations = vec![
        Station::new("a", Idx3::new(3, 3, 0)),
        Station::new("b", Idx3::new(d.nx - 3, d.ny - 4, 0)),
        Station::new("deep", Idx3::new(d.nx - 4, 3, d.nz - 2)),
        Station::new("seam", Idx3::new(d.nx / 2, d.ny / 2 - 1, d.nz / 2)),
    ];
    let mut cfg = SolverConfig::small(d, h, dt, steps);
    cfg.abc = AbcKind::Mpml { width: 4, pmax: 0.2 };
    cfg.attenuation = true;
    (mesh, src, stations, cfg)
}

fn loh1_fixture(d: Dims3, steps: usize) -> Fixture {
    fixture(&LayeredModel::loh1(), d, 150.0, 0.009, d.nz / 2, steps)
}

/// What a run produced, independent of how the grid was cut: the stitched
/// surface velocities and PGV map, and every seismogram by station name.
#[derive(PartialEq)]
struct Observed {
    surface: Vec<f32>,
    pgv: Vec<f32>,
    seis: Vec<Series>,
}

/// Station name and its vx, vy, vz records.
type Series = (String, Vec<f64>, Vec<f64>, Vec<f64>);

fn observed(d: Dims3, results: &[RankResult]) -> Observed {
    let mut surface = vec![0.0f32; 3 * d.nx * d.ny];
    let mut pgv = vec![0.0f32; d.nx * d.ny];
    for r in results {
        let (Some(local), sub) = (&r.surface, &r.sub) else { continue };
        for j in 0..sub.dims.ny {
            for i in 0..sub.dims.nx {
                let (l, g) = (i + sub.dims.nx * j, sub.origin.i + i + d.nx * (sub.origin.j + j));
                surface[3 * g..3 * g + 3].copy_from_slice(&local[3 * l..3 * l + 3]);
                pgv[g] = r.pgv_map[l];
            }
        }
    }
    let mut seis: Vec<_> = results
        .iter()
        .flat_map(|r| &r.seismograms)
        .map(|s| (s.station.name.clone(), s.vx.clone(), s.vy.clone(), s.vz.clone()))
        .collect();
    seis.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(pgv.iter().any(|&v| v > 0.0), "the compared run must carry signal");
    Observed { surface, pgv, seis }
}

/// Every rank's result of `cfg` on `decomp`, over the plan's cluster as
/// `arm` sets it up (a rank fault panics).
fn solve(
    cfg: &SolverConfig,
    decomp: Decomp3,
    meshes: &[Mesh],
    src: &KinematicSource,
    stations: &[Station],
    arm: impl FnOnce(Cluster) -> Cluster,
) -> Vec<RankResult> {
    let plan = SolvePlan::new(cfg, decomp, meshes, src, stations).expect("valid config");
    let ranks = plan.run(&arm(plan.cluster()), meshes);
    ranks.into_iter().map(|r| r.unwrap_or_else(|fault| panic!("rank fault: {fault}"))).collect()
}

fn run_decomp(cfg: &SolverConfig, decomp: Decomp3, fx: &Fixture) -> Vec<RankResult> {
    let meshes = partition_mesh_direct(&fx.0, &decomp);
    solve(cfg, decomp, &meshes, &fx.1, &fx.2, |c| c)
}

fn run_serial(cfg: &SolverConfig, fx: &Fixture) -> Observed {
    observed(cfg.dims, &[Solver::run_serial(cfg.clone(), &fx.0, &fx.1, &fx.2)])
}

/// Parallel ≡ serial for `cfg` on each of `decomps`, against one serial run.
fn assert_parallel_matches_serial(cfg: &SolverConfig, decomps: &[Decomp3], fx: &Fixture) {
    let serial = run_serial(cfg, fx);
    for &decomp in decomps {
        let parallel = observed(cfg.dims, &run_decomp(cfg, decomp, fx));
        let what = format!("{:?} skew {:?}", decomp.parts, decomp.skew);
        assert!(parallel == serial, "parallel must be bit-exact against serial for {what}");
    }
}

#[test]
fn parallel_matches_serial_across_decompositions_with_all_features() {
    let d = Dims3::new(20, 18, 20);
    let fx = loh1_fixture(d, 24);
    // [1,1,1] is the rank with no neighbours: nothing is posted.
    let cuts = [[1, 1, 1], [2, 1, 1], [1, 2, 1], [1, 1, 2], [2, 2, 1], [2, 2, 2]];
    let mut decomps: Vec<Decomp3> = cuts.iter().map(|&parts| Decomp3::new(d, parts)).collect();
    // A skewed cut: rank 0 is wider and taller (13 + 7 planes) than its
    // neighbours.
    decomps.push(Decomp3::new(d, [2, 1, 2]).with_skew(0, 3).with_skew(2, 3));
    assert_parallel_matches_serial(&fx.3, &decomps, &fx);
    // Surface ranks 4, 5, 7 and 9 planes tall over a z-hi neighbour. At
    // h = 150 m LOH.1's layer floor (1000 m) lies between planes 6 and 7,
    // so the 7-plane case puts the material contrast exactly on the z
    // seam, beside the global x/y boundaries: the edge and corner material
    // halos must hold the neighbour's values, not clamped copies.
    for nz in [4, 5, 7, 9] {
        let d = Dims3::new(16, 14, 2 * nz);
        let fx = fixture(&LayeredModel::loh1(), d, 150.0, 0.009, nz, 16);
        let cuts = [[1, 1, 2], [2, 1, 2]].map(|parts| Decomp3::new(d, parts));
        assert_eq!(cuts[0].subdomain(0).dims.nz, nz);
        assert_parallel_matches_serial(&fx.3, &cuts, &fx);
    }
}

#[test]
fn mpml_on_a_basin_is_decomposition_invariant() {
    // Soft basin over rock under the paper's M-PML: the damping scale is
    // the *global* maximum Vp. A z-cut leaves the top ranks all basin
    // (Vp 1500 of 6000), so a rank-local scale would build a 4× weaker
    // layer there and parallel would drift from serial.
    let d = Dims3::new(24, 20, 24);
    let h = 150.0;
    let mut fx = fixture(&LayeredModel::basin_over_rock(14.0 * h), d, h, 0.012, 4, 40);
    fx.3.abc = AbcKind::m8();
    let locals = partition_mesh_direct(&fx.0, &Decomp3::new(d, [1, 1, 2]));
    assert!(global_vp_max([&locals[0]]) < 0.5 * global_vp_max(&locals), "top rank is all basin");
    let cuts = [[1, 1, 1], [1, 1, 2], [2, 1, 2], [2, 2, 2]];
    assert_parallel_matches_serial(&fx.3, &cuts.map(|parts| Decomp3::new(d, parts)), &fx);

    // The same audit on a procedural-CVM mesh, whose basins make every
    // plane laterally heterogeneous: a Sponge — a function of global
    // indices, so every rank must build the serial profile's slice of it —
    // under x, y and z cuts on 1, 2, 4 and 8 ranks …
    let (d, h) = (Dims3::new(24, 20, 32), 100.0);
    let socal = SoCalModel::scaled(d.nx as f64 * h, d.ny as f64 * h);
    let mut fx = fixture(&socal, d, h, 0.009, 6, 30);
    let lateral = |k| {
        let corner = fx.0.sample(0, 0, k).vs;
        (0..d.ny).any(|j| (0..d.nx).any(|i| fx.0.sample(i, j, k).vs != corner))
    };
    assert!((0..d.nz).all(lateral), "the basins must vary every plane laterally");
    fx.3.abc = AbcKind::Sponge { width: 6, amp: 0.92 };
    let cuts = [[1, 1, 1], [2, 1, 1], [1, 2, 1], [1, 1, 2], [2, 2, 1], [1, 2, 2], [2, 2, 2]];
    assert_parallel_matches_serial(&fx.3, &cuts.map(|parts| Decomp3::new(d, parts)), &fx);

    // … and the LTS cluster builder, fed the global per-plane profile by
    // the driver, under x and y cuts. The mesh must really step several
    // clusters: the soft top 500 m steps at twice the base rate.
    fx.3.opts.lts = Some(LtsOpts::new());
    let whole = Decomp3::new(d, [1, 1, 1]).subdomain(0);
    let mut solver = Solver::new(fx.3.clone(), whole, &fx.0, &fx.1, &fx.2);
    let plan = LtsPlan::from_mesh(&fx.0, fx.3.dt, LtsOpts::new());
    assert!(solver.enable_lts(&plan), "one cluster: {:?}", plan.clusters);
    let cuts = [[2, 1, 1], [1, 2, 1], [2, 2, 1], [4, 2, 1]];
    assert_parallel_matches_serial(&fx.3, &cuts.map(|parts| Decomp3::new(d, parts)), &fx);
    // A z cut would split the rate ladder between ranks.
    let z_cut = Decomp3::new(d, [1, 1, 2]);
    let meshes = partition_mesh_direct(&fx.0, &z_cut);
    let err = SolvePlan::new(&fx.3, z_cut, &meshes, &fx.1, &fx.2)
        .expect_err("LTS on a z cut must be rejected");
    assert_eq!(err, ConfigError::LtsNeedsSingleZPart);
}

#[test]
fn lts_ladder_is_global_when_one_ranks_top_planes_are_all_soft() {
    // The top planes are soft everywhere; the planes below them are soft
    // too except in the quadrant x ≥ nx/2, y ≥ ny/2. Rank 0 of a [2,1,1]
    // or a [1,2,1] cut then holds only soft cells down to the pocket's
    // floor, so a ladder from its own per-plane Vp maximum would run the
    // coarse cluster deeper than the global ladder does. Every rank must
    // step the global ladder, or parallel drifts from serial.
    let (d, h) = (Dims3::new(20, 18, 16), 150.0);
    let soft = MaterialSample::from_speeds(3000.0, 1732.0, 2400.0);
    let rock = MaterialSample::from_speeds(6000.0, 3464.0, 2700.0);
    let model = LayeredModel::new(vec![(4.0 * h, soft), (f64::INFINITY, rock)]);
    let mut fx = fixture(&model, d, h, 0.012, 10, 30);
    for k in 4..8 {
        for j in 0..d.ny {
            for i in (0..d.nx).filter(|&i| i < d.nx / 2 || j < d.ny / 2) {
                fx.0.set_sample(i, j, k, soft);
            }
        }
    }
    let lts = LtsOpts::new();
    fx.3.opts.lts = Some(lts);
    let global = LtsPlan::from_mesh(&fx.0, fx.3.dt, lts);
    assert_eq!(global.clusters.len(), 2, "a two-cluster ladder: {:?}", global.clusters);
    let cuts = [[2, 1, 1], [1, 2, 1]].map(|parts| Decomp3::new(d, parts));
    for decomp in &cuts {
        let rank0 = &partition_mesh_direct(&fx.0, decomp)[0];
        let own = LtsPlan::from_mesh(rank0, fx.3.dt, lts);
        assert_ne!(own, global, "{:?}: rank 0's own ladder must differ", decomp.parts);
    }
    assert_parallel_matches_serial(&fx.3, &cuts, &fx);
}

#[test]
fn random_layer_depths_and_cuts_match_serial() {
    // A layer floor at a random depth — on a seam as often as not — under a
    // per-cell lateral perturbation, so that every face, edge and corner
    // material halo carries a value of its own; a random (skewed) cut; both
    // boundary kinds. Parallel must equal serial bit for bit.
    let mut x = 0x6d61_7465_7269_616cu64;
    let mut below = |n: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as usize
    };
    let (d, h) = (Dims3::new(16, 14, 16), 150.0);
    for case in 0..8 {
        let floor = (2 + below(12)) as f64 * h;
        let model = LayeredModel::new(vec![
            (floor, MaterialSample::from_speeds(4000.0, 2000.0, 2600.0)),
            (f64::INFINITY, MaterialSample::from_speeds(6000.0, 3464.0, 2700.0)),
        ]);
        let mut fx = fixture(&model, d, h, 0.008, 3 + below(10), 14);
        for k in 0..d.nz {
            for j in 0..d.ny {
                for i in 0..d.nx {
                    let mut s = fx.0.sample(i, j, k);
                    let f = 1.0 - 0.02 * below(6) as f32;
                    (s.vp, s.vs, s.rho) = (s.vp * f, s.vs * f, s.rho * (2.0 - f));
                    fx.0.set_sample(i, j, k, s);
                }
            }
        }
        if case % 2 == 0 {
            fx.3.abc = AbcKind::Sponge { width: 4, amp: 0.92 };
        }
        let parts = [1 + below(3), 1 + below(2), 1 + below(3)];
        let decomp = Decomp3::new(d, parts).with_skew(0, below(2)).with_skew(2, below(3));
        assert_parallel_matches_serial(&fx.3, &[decomp], &fx);
    }
}

#[test]
fn lts_clusters_exchange_their_own_k_ranges() {
    // LTS on [2,2,1]: every firing cluster exchanges its own k-range once
    // per phase, under cluster-disambiguated tags.
    let d = Dims3::new(24, 20, 32);
    let h = 150.0;
    let mut fx = fixture(&LayeredModel::basin_over_rock(24.0 * h), d, h, 0.012, 4, 40);
    fx.3.opts.lts = Some(LtsOpts::new());
    assert_parallel_matches_serial(&fx.3, &[Decomp3::new(d, [2, 2, 1])], &fx);
}

#[test]
fn skewed_cuts_are_delivery_order_invariant() {
    // A skewed cut makes a straggler whose messages interleave with its
    // neighbours' on every face; fuzzed delivery and wait-all orders must
    // not show in the result.
    let d = Dims3::new(20, 18, 20);
    let fx = loh1_fixture(d, 12);
    let cfg = &fx.3;
    let serial = run_serial(cfg, &fx);
    let decomp = Decomp3::new(d, [2, 2, 1]).with_skew(0, 4);
    let meshes = partition_mesh_direct(&fx.0, &decomp);
    for seed in 0..4 {
        let plan = SchedulePlan::with_bounds(0x51ab_0000 + seed, 2, 3);
        let fuzzed = solve(cfg, decomp, &meshes, &fx.1, &fx.2, |c| c.with_schedule(plan));
        assert!(observed(d, &fuzzed) == serial, "seed {seed}");
    }
}

#[test]
fn mpml_split_matches_fused_on_subdomains_narrower_than_the_layer() {
    // 4 parts along x leave 5-cell subdomains under a 6-cell layer: the
    // edge ranks are zone from face to face, their neighbours hold one
    // column of the x layers without touching an x face. The SIMD walk
    // must still equal the scalar one, on 4 and on 8 ranks.
    let d = Dims3::new(20, 18, 14);
    let fx = loh1_fixture(d, 24);
    let mut cfg = fx.3.clone();
    cfg.abc = AbcKind::Mpml { width: 6, pmax: 0.2 };
    for parts in [[4, 1, 1], [4, 2, 1]] {
        cfg.opts.simd = false;
        let fused = observed(d, &run_decomp(&cfg, Decomp3::new(d, parts), &fx));
        cfg.opts.simd = true;
        let split = observed(d, &run_decomp(&cfg, Decomp3::new(d, parts), &fx));
        assert!(fused == split, "{parts:?}");
    }
}

#[test]
fn mpml_memory_follows_each_ranks_zone_cells() {
    // ψ is held for zone cells only: 18 f32 per cell on every rank, the
    // rank zones tile the global zone, and `zone_fraction` reports the
    // same cells the allocation covers.
    let d = Dims3::new(20, 18, 14);
    let (mesh, src, stations, cfg) = loh1_fixture(d, 1);
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
fn rank_step_is_allocation_free_in_steady_state() {
    // After warmup has sized the pooled halo buffers — one per face and
    // field — the exchange must never touch the heap again, and one request
    // list serves a whole phase.
    let d = Dims3::new(16, 14, 16);
    let (mesh, src, stations, cfg) = loh1_fixture(d, 1);
    let parts = [2, 2, 1];
    let decomp = Decomp3::new(d, parts);
    let meshes = partition_mesh_direct(&mesh, &decomp);
    let sources = awp_source::partition::partition_spatial(&src, &decomp);
    let cluster = Cluster::new(4, CommMode::Asynchronous);
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
    assert!(flat.iter().all(|&f| f), "the exchange allocated in steady state: {flat:?}");
}

#[test]
fn health_probe_catches_a_nan_behind_every_communicating_face() {
    // A non-finite velocity within halo depth of a face with a neighbour
    // must abort that rank with the `sim-health:` message at the next
    // probe; ranks 0 and 7 of a 2×2×2 cut cover all six faces.
    let d = Dims3::new(16, 14, 12);
    let (mesh, src, stations, mut cfg) = loh1_fixture(d, 1);
    cfg.opts.health_every = 1;
    let decomp = Decomp3::new(d, [2, 2, 2]);
    let meshes = partition_mesh_direct(&mesh, &decomp);
    let sources = awp_source::partition::partition_spatial(&src, &decomp);
    let n = decomp.subdomain(0).dims;
    let (ci, cj, ck) = (n.nx as isize / 2, n.ny as isize / 2, n.nz as isize / 2);
    // One cell in from the face, mid-face in the other two axes: inside
    // that face's slab only.
    let cases = [
        (0, (n.nx as isize - 2, cj, ck)),
        (0, (ci, n.ny as isize - 2, ck)),
        (0, (ci, cj, n.nz as isize - 2)),
        (7, (1, cj, ck)),
        (7, (ci, 1, ck)),
        (7, (ci, cj, 1)),
    ];
    for (victim, (i, j, k)) in cases {
        let cluster = Cluster::new(8, CommMode::Asynchronous);
        let outcome = cluster.try_run(|ctx| {
            let rank = ctx.rank();
            let sub = decomp.subdomain(rank);
            let mut solver =
                Solver::new(cfg.clone(), sub, &meshes[rank], &sources[rank], &stations);
            if rank == victim {
                solver.state.vz.set(i, j, k, f32::NAN);
            }
            solver.step_parallel(ctx);
        });
        let report = outcome[victim].as_ref().expect_err("the victim rank must abort");
        assert_eq!(report.kind, FaultKind::Panic, "{report}");
        assert!(report.detail.contains("sim-health:"), "{report}");
    }
    // The mid-subdomain cell is behind no face: the probe does not scan it.
    let cluster = Cluster::new(8, CommMode::Asynchronous);
    let outcome = cluster.try_run(|ctx| {
        let rank = ctx.rank();
        let sub = decomp.subdomain(rank);
        let mut solver = Solver::new(cfg.clone(), sub, &meshes[rank], &sources[rank], &stations);
        if rank == 0 {
            solver.state.vz.set(2, 2, 2, f32::NAN);
        }
        solver.step_parallel(ctx);
    });
    assert!(outcome.iter().all(Result::is_ok), "an interior NaN is not the sentinel's to find");
}

#[test]
fn parallel_run_records_exchange_phase_timing() {
    // The per-phase breakdown the bench reads must be populated: a
    // multi-rank run with telemetry attached records send, wait, inject
    // and the window compute phases on every rank.
    use awp_solver::telemetry::{Counter, Phase, Registry};
    let d = Dims3::new(16, 14, 12);
    let (mesh, src, stations, cfg) = loh1_fixture(d, 10);
    let parts = [2, 1, 1];
    let decomp = Decomp3::new(d, parts);
    let meshes = partition_mesh_direct(&mesh, &decomp);
    let reg = Registry::new(2);
    let results = solve(&cfg, decomp, &meshes, &src, &stations, |c| c.with_telemetry(reg.clone()));
    // Reduced plans: 3 velocity + 3 stress components cross an x face, each
    // once per step, since a phase walks its one window and then exchanges
    // once. On top: the five material arrays of the startup halo exchange.
    let msgs = (3 + 3) * cfg.steps as u64 + 5;
    for r in &results {
        let tel = &r.telemetry;
        assert!(tel.enabled, "rank {} has no telemetry", r.rank);
        assert!(tel.phase_ns(Phase::Send) > 0, "rank {} recorded no send time", r.rank);
        assert!(tel.phase_ns(Phase::Inject) > 0, "rank {} recorded no inject time", r.rank);
        assert!(tel.phase_ns(Phase::VelocityInterior) > 0, "rank {} missing windows", r.rank);
        assert!(tel.phase_ns(Phase::StressInterior) > 0, "rank {}", r.rank);
        // Windows are full-row; nothing is a shell.
        assert_eq!(tel.phase_ns(Phase::VelocityShell) + tel.phase_ns(Phase::StressShell), 0);
        assert_eq!(tel.counter(Counter::MsgsSent), msgs, "rank {}", r.rank);
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
