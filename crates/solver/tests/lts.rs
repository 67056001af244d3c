//! Clustered local time stepping — schedule equivalence and composition.
//!
//! Three properties pin the LTS subsystem:
//! 1. **Degenerate exactness**: a medium whose CFL profile yields a single
//!    cluster must leave results bit-identical to global dt (it is the
//!    same one-cluster plan) and read as not armed.
//! 2. **Decomposition invariance**: with a genuine multi-rate ladder the
//!    parallel LTS step (k-windowed per-cluster halo exchange, overlap
//!    split intersected with cluster slabs) must be bit-exact against the
//!    serial LTS step across x/y rank decompositions — and stay bit-exact
//!    under the adversarial message-schedule fuzzer.
//! 3. **Accuracy**: the multi-rate solution must stay close to the global
//!    small-dt solution (the interface interpolation is second order), and
//!    the speedup accounting must see every cluster fire at its cadence.

use awp_cvm::mesh::MeshGenerator;
use awp_cvm::model::LayeredModel;
use awp_grid::decomp::Decomp3;
use awp_grid::dims::{Dims3, Idx3};
use awp_solver::solver::{partition_mesh_direct, try_run_parallel_decomp, Solver};
use awp_solver::{
    run_parallel, try_run_parallel, ConfigError, LtsOpts, LtsPlan, RankResult, SolverConfig,
    Station,
};
use awp_source::kinematic::KinematicSource;
use awp_source::moment::MomentTensor;
use awp_source::stf::Stf;
use awp_vcluster::SchedulePlan;

/// Soft basin over stiff basement: the rock floor pins the base dt, the
/// basin (Vp ratio 4) coarsens to rate 4 with a rate-2 transition band.
fn basin_fixture(steps: usize) -> (SolverConfig, awp_cvm::mesh::Mesh, KinematicSource, Vec<Station>) {
    let d = Dims3::new(24, 20, 32);
    let h = 150.0;
    // Near the rock CFL bound 6h/(7√3·6000) ≈ 0.01237.
    let dt = 0.012;
    let model = LayeredModel::basin_over_rock(24.0 * h);
    let mesh = MeshGenerator::new(&model, d, h).generate();
    let src = KinematicSource::point(
        Idx3::new(d.nx / 2 + 1, d.ny / 2 - 1, 8),
        MomentTensor::strike_slip(0.3),
        5.0e16,
        Stf::Brune { tau: 0.25 },
        dt,
    );
    let stations = vec![
        Station::new("near", Idx3::new(d.nx / 2, d.ny / 2, 0)),
        Station::new("far", Idx3::new(4, 4, 0)),
        // In the rock floor: samples the fine (rate-1) cluster directly.
        Station::new("deep", Idx3::new(6, 6, 30)),
    ];
    let cfg = SolverConfig::small(d, h, dt, steps);
    (cfg, mesh, src, stations)
}

fn station_series(results: &[RankResult]) -> Vec<(String, Vec<f64>, Vec<f64>, Vec<f64>)> {
    let mut v: Vec<_> = results
        .iter()
        .flat_map(|r| &r.seismograms)
        .map(|s| {
            (
                s.station.name.clone(),
                s.vx.clone(),
                s.vy.clone(),
                s.vz.clone(),
            )
        })
        .collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

fn rel_l2(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = b.iter().map(|y| y * y).sum();
    (num / den.max(1e-30)).sqrt()
}

#[test]
fn basin_plan_is_multi_rate_with_exact_octaves() {
    let (cfg, mesh, _, _) = basin_fixture(8);
    let plan = LtsPlan::from_mesh(&mesh, cfg.dt, LtsOpts::new());
    assert!(plan.is_multi_rate(), "basin contrast must split: {:?}", plan.clusters);
    assert_eq!(plan.max_rate(), 4, "{:?}", plan.clusters);
    // Contiguous tiling, exact 2× adjacency, everything ≥ min_slab thick.
    for w in plan.clusters.windows(2) {
        assert_eq!(w[0].k1, w[1].k0);
        let (a, b) = (w[0].rate.max(w[1].rate), w[0].rate.min(w[1].rate));
        assert_eq!(a, 2 * b, "adjacent clusters must differ by one octave");
    }
    for c in &plan.clusters {
        assert!(c.k1 - c.k0 >= LtsOpts::new().min_slab, "{c:?}");
    }
    assert!(plan.theoretical_speedup() > 1.5, "{}", plan.theoretical_speedup());
}

#[test]
fn single_cluster_media_stay_bitexact_with_lts_enabled() {
    // LOH.1's Vp contrast (1.5×) never earns an octave: the plan collapses
    // to one cluster and the solver must keep the fused path bit-exactly,
    // serial and across 2/4/8-rank decompositions.
    let d = Dims3::new(20, 18, 14);
    let h = 150.0;
    // Close enough to the rock CFL bound that even the soft top layer's
    // headroom stays under one octave.
    let dt = 0.0105;
    let mesh = MeshGenerator::new(&LayeredModel::loh1(), d, h).generate();
    let src = KinematicSource::point(
        Idx3::new(d.nx / 2, d.ny / 2, d.nz / 2),
        MomentTensor::strike_slip(0.3),
        5.0e16,
        Stf::Brune { tau: 0.1 },
        dt,
    );
    let stations = [
        Station::new("a", Idx3::new(3, 3, 0)),
        Station::new("b", Idx3::new(14, 12, 7)),
    ];
    let mut cfg = SolverConfig::small(d, h, dt, 24);
    assert!(!LtsPlan::from_mesh(&mesh, cfg.dt, LtsOpts::new()).is_multi_rate());

    let fused = Solver::run_serial(cfg.clone(), &mesh, &src, &stations);
    cfg.opts.lts = Some(LtsOpts::new());
    let lts_serial = Solver::run_serial(cfg.clone(), &mesh, &src, &stations);
    assert_eq!(
        station_series(std::slice::from_ref(&fused)),
        station_series(std::slice::from_ref(&lts_serial)),
        "single-cluster LTS must be global dt"
    );
    assert_eq!(fused.pgv_map, lts_serial.pgv_map);
    assert_eq!(fused.flops, lts_serial.flops);
    // The delegation contract callers branch on: a collapsed plan reads
    // as not armed, before and after stepping.
    let sub = Decomp3::new(d, [1, 1, 1]).subdomain(0);
    let mut solver = Solver::new(cfg.clone(), sub, &mesh, &src, &stations);
    assert!(!solver.enable_lts(&LtsPlan::from_mesh(&mesh, cfg.dt, LtsOpts::new())));
    solver.step_serial(&mut awp_vcluster::TimeLedger::new());
    assert!(!solver.lts_active());
    assert!(solver.lts_stats().is_empty());
    for parts in [[2, 1, 1], [2, 2, 1], [4, 2, 1]] {
        let meshes = partition_mesh_direct(&mesh, &Decomp3::new(d, parts));
        let results = run_parallel(&cfg, parts, &meshes, &src, &stations);
        assert_eq!(
            station_series(std::slice::from_ref(&fused)),
            station_series(&results),
            "single-cluster LTS must match fused serial for {parts:?}"
        );
    }
}

#[test]
fn lts_parallel_matches_lts_serial_bitwise() {
    let (mut cfg, mesh, src, stations) = basin_fixture(48);
    cfg.opts.lts = Some(LtsOpts::new());
    let serial = Solver::run_serial(cfg.clone(), &mesh, &src, &stations);
    assert!(serial.flops > 0);
    // [8,1,1] leaves 3-cell subdomains — two shell slabs and no interior —
    // and [1,10,1] 2-cell ones, where the y-hi slab is empty as well.
    for parts in [[2, 1, 1], [2, 2, 1], [1, 4, 1], [4, 2, 1], [8, 1, 1], [1, 10, 1]] {
        let meshes = partition_mesh_direct(&mesh, &Decomp3::new(d_of(&cfg), parts));
        let results = run_parallel(&cfg, parts, &meshes, &src, &stations);
        assert_eq!(
            station_series(std::slice::from_ref(&serial)),
            station_series(&results),
            "parallel LTS must be bit-exact vs serial LTS for {parts:?}"
        );
        // Multi-rate LTS does strictly less update work than global dt.
        let par_flops: u64 = results.iter().map(|r| r.flops).sum();
        assert_eq!(par_flops, serial.flops, "flop accounting must agree for {parts:?}");
    }
}

fn d_of(cfg: &SolverConfig) -> Dims3 {
    cfg.dims
}

#[test]
fn lts_rejects_z_decomposition() {
    let (mut cfg, mesh, src, stations) = basin_fixture(4);
    cfg.opts.lts = Some(LtsOpts::new());
    let parts = [1, 1, 2];
    let meshes = partition_mesh_direct(&mesh, &Decomp3::new(cfg.dims, parts));
    let err = try_run_parallel(&cfg, parts, &meshes, &src, &stations)
        .expect_err("LTS clusters are z-slabs: z-decomposed runs must be rejected");
    assert_eq!(err, ConfigError::LtsNeedsSingleZPart);
}

#[test]
fn lts_stays_bitexact_under_schedule_fuzzing() {
    // Per-cluster k-windowed exchanges multiply the in-flight message
    // population; the cluster-tagged step field must keep every completion
    // order equivalent. Same contract PR 5's fuzzer pins for the fused path.
    let (mut cfg, mesh, src, stations) = basin_fixture(24);
    cfg.opts.lts = Some(LtsOpts::new());
    let parts = [2, 2, 1];
    let decomp = Decomp3::new(cfg.dims, parts);
    let meshes = partition_mesh_direct(&mesh, &decomp);
    let baseline = try_run_parallel_decomp(&cfg, decomp, &meshes, &src, &stations, None, None)
        .expect("valid LTS workload");
    for seed in 101..104 {
        let plan = SchedulePlan::with_bounds(seed, 3, 4);
        let fuzzed =
            try_run_parallel_decomp(&cfg, decomp, &meshes, &src, &stations, None, Some(plan))
                .expect("valid LTS workload");
        assert_eq!(
            station_series(&baseline),
            station_series(&fuzzed),
            "LTS run diverged under schedule seed {seed}"
        );
    }
}

#[test]
fn lts_solution_tracks_global_dt_solution() {
    // A source the basin grid resolves (τ = 1.5 s ⇒ ≥ 6 cells/wavelength
    // at Vs = 600), long enough for the wavefront to cross both
    // interfaces. The comparison is against the *global small-dt* run, so
    // the error budget is dominated by the coarse cluster's own time
    // discretization: each rate-2ᵏ cluster steps near its local CFL bound,
    // exactly as the global step runs near the rock CFL bound.
    let (mut cfg, mesh, _, _) = basin_fixture(320);
    let d = cfg.dims;
    let src = KinematicSource::point(
        Idx3::new(d.nx / 2 + 1, d.ny / 2 - 1, 8),
        MomentTensor::strike_slip(0.3),
        5.0e16,
        Stf::Brune { tau: 1.5 },
        cfg.dt,
    );
    let stations = vec![
        Station::new("near", Idx3::new(d.nx / 2, d.ny / 2, 0)),
        Station::new("off", Idx3::new(d.nx / 2 - 4, d.ny / 2 + 3, 0)),
    ];
    let global = Solver::run_serial(cfg.clone(), &mesh, &src, &stations);
    cfg.opts.lts = Some(LtsOpts::new());
    let lts = Solver::run_serial(cfg, &mesh, &src, &stations);

    // The coarse clusters skip 3 of every 4 updates, so the flop count
    // must drop — that is the whole point of the subsystem. Census for
    // the [4×20, 2×4, 1×8] ladder: 15/32 of the global update work.
    assert!(
        lts.flops < global.flops * 3 / 4,
        "LTS must save updates: {} vs {}",
        lts.flops,
        global.flops
    );

    let g = station_series(std::slice::from_ref(&global));
    let l = station_series(std::slice::from_ref(&lts));
    for ((name, gx, gy, gz), (_, lx, ly, lz)) in g.iter().zip(&l) {
        for v in lx.iter().chain(ly).chain(lz) {
            assert!(v.is_finite(), "station {name}: LTS produced a non-finite sample");
        }
        let gp = gx.iter().chain(gy).chain(gz).fold(0.0f64, |m, v| m.max(v.abs()));
        let lp = lx.iter().chain(ly).chain(lz).fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(gp > 0.0, "station {name}: dead baseline trace");
        assert!(
            (0.6..=1.4).contains(&(lp / gp)),
            "station {name}: peak ratio {:.3} out of band",
            lp / gp
        );
        for (comp, lv, gv) in [("vx", lx, gx), ("vy", ly, gy), ("vz", lz, gz)] {
            let e = rel_l2(lv, gv);
            assert!(
                e < 0.30,
                "station {name} {comp}: LTS drifted from global dt (rel L2 {e:.3})"
            );
        }
    }
}
