//! Physics verification of the AWM solver: wave speeds, boundary
//! behaviour, attenuation, and parallel consistency.

use awp_cvm::mesh::{Mesh, MeshGenerator};
use awp_cvm::model::HomogeneousModel;
use awp_grid::dims::{Dims3, Idx3};
use awp_solver::config::{AbcKind, LtsOpts, SolverConfig};
use awp_solver::solver::{partition_mesh_direct, run_parallel, Solver};
use awp_solver::stations::Station;
use awp_solver::LtsPlan;
use awp_source::kinematic::KinematicSource;
use awp_source::moment::MomentTensor;
use awp_source::stf::Stf;

const VP: f32 = 6000.0;
const VS: f32 = 3464.0;
const RHO: f32 = 2700.0;

fn rock_mesh(d: Dims3, h: f64) -> Mesh {
    MeshGenerator::new(&HomogeneousModel::new(VP, VS, RHO), d, h).generate()
}

fn explosion(idx: Idx3, dt: f64) -> KinematicSource {
    KinematicSource::point(idx, MomentTensor::explosion(), 1.0e15, Stf::Triangle { rise_time: 0.12 }, dt)
}

fn strike_slip(idx: Idx3, dt: f64) -> KinematicSource {
    KinematicSource::point(
        idx,
        MomentTensor::strike_slip(0.0),
        1.0e15,
        Stf::Triangle { rise_time: 0.12 },
        dt,
    )
}

/// First-arrival time: first sample exceeding 2% of the trace peak.
fn onset(trace: &[f64], dt: f64) -> Option<f64> {
    let peak = trace.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if peak == 0.0 {
        return None;
    }
    trace.iter().position(|v| v.abs() > 0.02 * peak).map(|i| i as f64 * dt)
}

#[test]
fn p_wave_arrival_time_matches_vp() {
    let d = Dims3::new(48, 32, 32);
    let h = 100.0;
    let dt = 0.007;
    let mesh = rock_mesh(d, h);
    let src_idx = Idx3::new(12, 16, 16);
    let sta_idx = Idx3::new(40, 16, 16);
    let cfg = SolverConfig {
        abc: AbcKind::Sponge { width: 8, amp: 0.92 },
        free_surface: false,
        ..SolverConfig::small(d, h, dt, 120)
    };
    let res = Solver::run_serial(
        cfg,
        &mesh,
        &explosion(src_idx, dt),
        &[Station::new("sta", sta_idx)],
    );
    let seis = &res.seismograms[0];
    // Distance 28 cells = 2800 m → P at 0.467 s.
    let t = onset(&seis.vx, dt).expect("P wave must arrive");
    let want = 2800.0 / VP as f64;
    assert!(
        (t - want).abs() < 0.12,
        "P onset {t:.3} s, expected ≈ {want:.3} s"
    );
}

#[test]
fn s_wave_arrival_time_matches_vs() {
    // A strike-slip (Mxy) source is P-nodal and S-maximal along the x
    // axis, with transverse (vy) polarisation: put the station on-axis and
    // time the vy peak against the S speed.
    let d = Dims3::new(48, 32, 24);
    let h = 100.0;
    let dt = 0.007;
    let mesh = rock_mesh(d, h);
    let src_idx = Idx3::new(10, 16, 12);
    let sta_idx = Idx3::new(34, 16, 12); // 2400 m along strike
    let cfg = SolverConfig {
        abc: AbcKind::Sponge { width: 8, amp: 0.92 },
        free_surface: false,
        ..SolverConfig::small(d, h, dt, 160)
    };
    let res = Solver::run_serial(
        cfg,
        &mesh,
        &strike_slip(src_idx, dt),
        &[Station::new("sta", sta_idx)],
    );
    let seis = &res.seismograms[0];
    let dist = 2400.0;
    let t_s = dist / VS as f64;
    let peak_i =
        seis.vy.iter().enumerate().max_by(|a, b| a.1.abs().total_cmp(&b.1.abs())).unwrap().0;
    let t_peak = peak_i as f64 * dt;
    assert!(
        (t_peak - t_s).abs() < 0.15,
        "S peak at {t_peak:.3} s, expected ≈ {t_s:.3} s"
    );
    // And nothing arrives before the P time.
    let t_first = onset(&seis.vy, dt).expect("arrival expected");
    assert!(t_first > dist / VP as f64 - 0.08, "first motion {t_first:.3}");
}

#[test]
fn solution_stays_finite_and_bounded() {
    let d = Dims3::new(24, 24, 24);
    let h = 200.0;
    let dt = 0.014;
    let mesh = rock_mesh(d, h);
    let cfg = SolverConfig::small(d, h, dt, 400);
    let res = Solver::run_serial(
        cfg,
        &mesh,
        &explosion(Idx3::new(12, 12, 12), dt),
        &[Station::new("sta", Idx3::new(4, 4, 0))],
    );
    let seis = &res.seismograms[0];
    assert!(seis.vx.iter().all(|v| v.is_finite()));
    // After the source stops and waves exit, motion should have decayed
    // far below its peak (absorbing boundaries + geometric spreading).
    let peak = seis.vx.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let tail: f64 = seis.vx[350..].iter().fold(0.0f64, |m, v| m.max(v.abs()));
    assert!(peak > 0.0);
    assert!(tail < 0.5 * peak, "tail {tail} vs peak {peak}");
}

#[test]
fn free_surface_reflects_energy_downward() {
    // The free surface must send the up-going P wave back down: a buried
    // receiver on the source–surface line sees a clear second (reflected)
    // arrival that is absent when the top boundary absorbs instead.
    let d = Dims3::new(32, 32, 32);
    let h = 100.0;
    let dt = 0.007;
    let mesh = rock_mesh(d, h);
    let src = explosion(Idx3::new(16, 16, 18), dt);
    let sta = [Station::new("buried", Idx3::new(16, 16, 8))];
    let run = |free_surface: bool| {
        let cfg = SolverConfig {
            abc: AbcKind::Sponge { width: 8, amp: 0.92 },
            free_surface,
            ..SolverConfig::small(d, h, dt, 120)
        };
        Solver::run_serial(cfg, &mesh, &src, &sta).seismograms.remove(0)
    };
    let free = run(true);
    let absorbed = run(false);
    // Direct P: 1000 m / 6000 ≈ 0.17 s. Reflected: (1800 + 800) m → 0.43 s.
    // Compare the reflected-arrival window.
    let window = |s: &awp_solver::stations::Seismogram| -> f64 {
        let lo = (0.36 / dt) as usize;
        let hi = (0.55 / dt) as usize;
        s.vz[lo..hi].iter().fold(0.0f64, |m, v| m.max(v.abs()))
    };
    let w_free = window(&free);
    let w_abs = window(&absorbed);
    assert!(
        w_free > 2.0 * w_abs,
        "free-surface reflection missing: {w_free} vs absorbed-top {w_abs}"
    );
    // And both runs share the same direct arrival.
    let direct = |s: &awp_solver::stations::Seismogram| onset(&s.vz, dt).unwrap();
    assert!((direct(&free) - direct(&absorbed)).abs() < 2.0 * dt);
}

#[test]
fn attenuation_damps_amplitudes_monotonically() {
    let d = Dims3::new(48, 24, 24);
    let h = 100.0;
    let dt = 0.007;
    // Lower Q via slower medium? Keep rock but narrow band; compare
    // elastic vs anelastic peak at a far station.
    let mesh = rock_mesh(d, h);
    let station = [Station::new("far", Idx3::new(42, 12, 12))];
    let src = explosion(Idx3::new(6, 12, 12), dt);
    let run = |attenuation: bool, q_scale: f32| {
        let mut mesh = mesh.clone();
        for q in mesh.qs.iter_mut() {
            *q *= q_scale;
        }
        for q in mesh.qp.iter_mut() {
            *q *= q_scale;
        }
        let cfg = SolverConfig {
            abc: AbcKind::Sponge { width: 6, amp: 0.92 },
            free_surface: false,
            attenuation,
            q_band: (0.5, 8.0),
            ..SolverConfig::small(d, h, dt, 130)
        };
        let res = Solver::run_serial(cfg, &mesh, &src, &station);
        res.seismograms[0].vx.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    };
    let elastic = run(false, 1.0);
    let hi_q = run(true, 1.0); // Qs ≈ 173 for rock
    let lo_q = run(true, 0.05); // Qs ≈ 8.7
    assert!(elastic > 0.0);
    assert!(hi_q < elastic * 1.001, "attenuation must not amplify: {hi_q} vs {elastic}");
    assert!(lo_q < hi_q, "lower Q must damp more: {lo_q} vs {hi_q}");
    assert!(lo_q < 0.8 * elastic, "low-Q damping should be strong: {lo_q} vs {elastic}");
}

#[test]
fn parallel_matches_serial_bitwise() {
    let d = Dims3::new(24, 20, 16);
    let h = 100.0;
    let dt = 0.007;
    let mesh = rock_mesh(d, h);
    let stations = [
        Station::new("a", Idx3::new(5, 5, 0)),
        Station::new("b", Idx3::new(18, 15, 8)),
    ];
    let src = explosion(Idx3::new(12, 10, 8), dt);
    let cfg = SolverConfig::small(d, h, dt, 60);
    let serial = Solver::run_serial(cfg.clone(), &mesh, &src, &stations);
    for parts in [[2, 1, 1], [2, 2, 1], [1, 2, 2], [2, 2, 2]] {
        let decomp = awp_grid::decomp::Decomp3::new(d, parts);
        let meshes = partition_mesh_direct(&mesh, &decomp);
        let results = run_parallel(&cfg, parts, &meshes, &src, &stations);
        // Collect all seismograms across ranks and compare to serial.
        for want in &serial.seismograms {
            let got = results
                .iter()
                .flat_map(|r| &r.seismograms)
                .find(|s| s.station == want.station)
                .unwrap_or_else(|| panic!("station {} missing in {parts:?}", want.station.name));
            assert_eq!(got.vx, want.vx, "{} vx differs for {parts:?}", want.station.name);
            assert_eq!(got.vy, want.vy, "{} vy differs for {parts:?}", want.station.name);
            assert_eq!(got.vz, want.vz, "{} vz differs for {parts:?}", want.station.name);
        }
    }
}

#[test]
fn sync_and_async_engines_agree() {
    let d = Dims3::new(20, 16, 12);
    let h = 100.0;
    let dt = 0.007;
    let mesh = rock_mesh(d, h);
    let stations = [Station::new("a", Idx3::new(4, 4, 0))];
    let src = explosion(Idx3::new(10, 8, 6), dt);
    let parts = [2, 2, 1];
    let decomp = awp_grid::decomp::Decomp3::new(d, parts);
    let meshes = partition_mesh_direct(&mesh, &decomp);
    let mut cfg = SolverConfig::small(d, h, dt, 50);
    cfg.opts.comm_mode = awp_solver::config::CommModeOpt::Asynchronous;
    let async_res = run_parallel(&cfg, parts, &meshes, &src, &stations);
    cfg.opts.comm_mode = awp_solver::config::CommModeOpt::Synchronous;
    let sync_res = run_parallel(&cfg, parts, &meshes, &src, &stations);
    let find = |rs: &Vec<awp_solver::solver::RankResult>| {
        rs.iter().flat_map(|r| r.seismograms.clone()).find(|s| s.station.name == "a").unwrap()
    };
    assert_eq!(find(&async_res).vx, find(&sync_res).vx);
}

#[test]
fn reduced_comm_matches_full_comm() {
    let d = Dims3::new(20, 16, 12);
    let h = 100.0;
    let dt = 0.007;
    let mesh = rock_mesh(d, h);
    let stations = [Station::new("a", Idx3::new(4, 4, 0)), Station::new("b", Idx3::new(16, 12, 4))];
    let src = strike_slip(Idx3::new(10, 8, 6), dt);
    let parts = [2, 2, 2];
    let decomp = awp_grid::decomp::Decomp3::new(d, parts);
    let meshes = partition_mesh_direct(&mesh, &decomp);
    let mut cfg = SolverConfig::small(d, h, dt, 60);
    cfg.opts.reduced_comm = false;
    let full = run_parallel(&cfg, parts, &meshes, &src, &stations);
    cfg.opts.reduced_comm = true;
    let reduced = run_parallel(&cfg, parts, &meshes, &src, &stations);
    for name in ["a", "b"] {
        let f = full.iter().flat_map(|r| r.seismograms.clone()).find(|s| s.station.name == name).unwrap();
        let r = reduced.iter().flat_map(|r| r.seismograms.clone()).find(|s| s.station.name == name).unwrap();
        assert_eq!(f.vx, r.vx, "station {name}");
        assert_eq!(f.vz, r.vz, "station {name}");
    }
}

#[test]
fn mpml_absorbs_better_than_sponge() {
    let d = Dims3::new(36, 36, 36);
    let h = 100.0;
    let dt = 0.007;
    let mesh = rock_mesh(d, h);
    let src = explosion(Idx3::new(18, 18, 18), dt);
    // Run long enough for the wavefront to hit the boundaries and any
    // reflection to return to the interior.
    let run = |abc: AbcKind| -> f64 {
        let cfg = SolverConfig {
            abc,
            free_surface: false,
            ..SolverConfig::small(d, h, dt, 300)
        };
        let res = Solver::run_serial(cfg, &mesh, &src, &[Station::new("c", Idx3::new(18, 18, 18))]);
        // Residual motion at the source cell well after everything should
        // have left the box (box crossing ≈ 36 cells / 6000 m/s ≈ 0.6 s;
        // 300 steps = 2.1 s).
        res.seismograms[0].vx[250..].iter().fold(0.0f64, |m, v| m.max(v.abs()))
    };
    let none = run(AbcKind::None);
    // Classic Cerjan strength for a 10-cell layer: per-profile edge value
    // exp(−(0.015·10)²) ≈ 0.978 (a stronger sponge wins at normal
    // incidence but reflects more energy in general configurations).
    let sponge = run(AbcKind::Sponge { width: 10, amp: 0.978 });
    // No free surface in this test, so the lightly-coupled M-PML is stable
    // and shows its best-case absorption (the paper's "the ability of the
    // sponge layers to absorb reflections is poorer than PMLs"). The
    // free-surface production default trades some absorption for corner
    // stability via pmax = 0.3 (see AbcKind::m8()).
    let mpml = run(AbcKind::Mpml { width: 10, pmax: 0.1 });
    assert!(sponge < 0.5 * none, "sponge must absorb: {sponge} vs {none}");
    assert!(mpml < 0.5 * none, "mpml must absorb: {mpml} vs {none}");
    assert!(
        mpml < sponge,
        "at equal width the PML should absorb better than the classic sponge: {mpml} vs {sponge}"
    );
}

#[test]
fn checkpoint_restart_is_bit_exact() {
    // Under M-PML the ψ memory variables are part of the state: a restart
    // that drops them diverges in every field. Under LTS each coarse
    // cluster holds ψ of its own; the homogeneous medium's plan collapses
    // to the one-cluster (global dt) plan, the basin's is multi-rate.
    let (sponge, m8) = (AbcKind::default_sponge(), AbcKind::m8());
    for (abc, basin, lts) in [
        (sponge, false, false),
        (m8, false, false),
        (m8, false, true),
        (sponge, true, true),
        (m8, true, true),
    ] {
        let (d, h, dt, mesh) = if basin {
            let (d, h) = (Dims3::new(24, 24, 32), 150.0);
            let model = awp_cvm::model::LayeredModel::basin_over_rock(24.0 * h);
            (d, h, 0.012, MeshGenerator::new(&model, d, h).generate())
        } else {
            let (d, h) = (Dims3::new(24, 24, 16), 100.0);
            (d, h, 0.007, rock_mesh(d, h))
        };
        let src = explosion(Idx3::new(8, 8, 6), dt);
        let mut cfg = SolverConfig::small(d, h, dt, 40);
        cfg.abc = abc;
        let plan = LtsPlan::from_mesh(&mesh, dt, LtsOpts::new());
        assert_eq!(plan.is_multi_rate(), basin, "{:?}", plan.clusters);
        let sub = awp_grid::decomp::Decomp3::new(d, [1, 1, 1]).subdomain(0);
        let stations = [Station::new("a", Idx3::new(3, 3, 0))];
        let armed = || {
            let mut s = Solver::new(cfg.clone(), sub, &mesh, &src, &stations);
            if lts {
                assert_eq!(s.enable_lts(&plan), basin);
            }
            s
        };
        let mut ledger = awp_vcluster::TimeLedger::new();
        // Interrupted run: 20 steps (a multiple of the ladder's slowest
        // rate, so every cluster is aligned), snapshot, restore into a new
        // solver, 20 more.
        let mut s1 = armed();
        for _ in 0..20 {
            s1.step_serial(&mut ledger);
        }
        let snapshot = s1.checkpoint_fields();
        let mut s2 = armed();
        s2.restore_fields(&snapshot);
        s2.step = s1.step;
        for _ in 0..20 {
            s2.step_serial(&mut ledger);
        }
        // Continuous run.
        let mut s3 = armed();
        for _ in 0..40 {
            s3.step_serial(&mut ledger);
        }
        assert!(s3.state.max_velocity() > 0.0);
        assert_eq!(
            s2.checkpoint_fields(),
            s3.checkpoint_fields(),
            "restart must be bit-exact under {abc:?}, basin {basin}, lts {lts}"
        );
    }
}

#[test]
fn temporal_source_windows_match_full_source() {
    // §III.D temporal partitioning (Eq. 7's φT_reinit): windowed source
    // loading must not change the wavefield.
    let d = Dims3::new(24, 20, 16);
    let h = 100.0;
    let dt = 0.007;
    let mesh = rock_mesh(d, h);
    let stations = [Station::new("a", Idx3::new(5, 5, 0))];
    // A propagating multi-subfault source spanning many windows.
    let src = awp_source::kinematic::haskell_rupture(
        &awp_source::kinematic::HaskellParams {
            i0: 4,
            i1: 20,
            k0: 4,
            k1: 10,
            j0: 10,
            h,
            mu: 3.0e10,
            slip_max: 1.0,
            hypo: (5, 7),
            vr: 2800.0,
            rise_time: 0.15,
            strike: 0.0,
            taper_cells: 2,
        },
        dt,
    );
    let cfg = SolverConfig::small(d, h, dt, 80);
    let full = Solver::run_serial(cfg.clone(), &mesh, &src, &stations);
    let windowed = Solver::run_serial_windowed(cfg, &mesh, &src, &stations, 16);
    assert_eq!(full.seismograms[0].vx, windowed.seismograms[0].vx);
    assert_eq!(full.pgv_map, windowed.pgv_map);
    // The windowed run charged reinitialisation time.
    assert!(windowed.ledger.seconds(awp_vcluster::Category::Reinit) >= 0.0);
}

#[test]
#[should_panic(expected = "CFL")]
fn cfl_violation_is_rejected() {
    let d = Dims3::new(8, 8, 8);
    let mesh = rock_mesh(d, 100.0);
    // dt 10× beyond the bound.
    let cfg = SolverConfig::small(d, 100.0, 0.08, 1);
    let _ = Solver::run_serial(cfg, &mesh, &explosion(Idx3::new(4, 4, 4), 0.08), &[]);
}

#[test]
fn stations_outside_subdomain_are_ignored() {
    let d = Dims3::new(12, 12, 8);
    let mesh = rock_mesh(d, 100.0);
    let cfg = SolverConfig::small(d, 100.0, 0.007, 5);
    // A station beyond the grid is silently dropped by the recorder
    // filter (global_to_local returns None).
    let stations = [Station::new("in", Idx3::new(5, 5, 0))];
    let res = Solver::run_serial(cfg, &mesh, &explosion(Idx3::new(6, 6, 4), 0.007), &stations);
    assert_eq!(res.seismograms.len(), 1);
}

#[test]
fn long_run_with_all_features_stays_finite() {
    // Failure-injection-style soak: attenuation + M-PML + free surface +
    // a strong source, 500 steps.
    let d = Dims3::new(24, 24, 20);
    let h = 150.0;
    let dt = 0.01;
    let mesh = rock_mesh(d, h);
    let mut cfg = SolverConfig::small(d, h, dt, 500);
    cfg.attenuation = true;
    cfg.abc = AbcKind::Mpml { width: 6, pmax: 0.3 };
    cfg.q_band = (0.2, 6.0);
    let src = KinematicSource::point(
        Idx3::new(12, 12, 10),
        MomentTensor::strike_slip(0.4),
        1.0e17,
        Stf::Brune { tau: 0.15 },
        dt,
    );
    let res = Solver::run_serial(cfg, &mesh, &src, &[Station::new("s", Idx3::new(4, 4, 0))]);
    let seis = &res.seismograms[0];
    assert!(seis.vx.iter().all(|v| v.is_finite()));
    assert!(seis.vy.iter().all(|v| v.is_finite()));
    // Motion must decay at late time (no PML instability blow-up).
    let peak = seis.vx.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let tail = seis.vx[450..].iter().fold(0.0f64, |m, v| m.max(v.abs()));
    assert!(tail < peak, "late-time growth indicates instability");
}

#[test]
fn zero_source_stays_exactly_quiescent() {
    let d = Dims3::new(16, 12, 10);
    let mesh = rock_mesh(d, 100.0);
    let cfg = SolverConfig::small(d, 100.0, 0.007, 50);
    let empty = KinematicSource { dt: 0.007, subfaults: vec![] };
    let res = Solver::run_serial(cfg, &mesh, &empty, &[Station::new("s", Idx3::new(3, 3, 0))]);
    assert!(res.seismograms[0].vx.iter().all(|&v| v == 0.0));
    assert_eq!(res.pgv_map.iter().fold(0.0f32, |m, &v| m.max(v)), 0.0);
}

#[test]
fn mpml_with_free_surface_is_long_run_stable() {
    // Regression guard for the free-surface/PML-corner instability: with
    // the production coupling (pmax = 0.3) the wavefield envelope must
    // decay, not grow, over a long quiet tail (the lightly-coupled PML
    // diverges here by step ~600 — the §II.D instability M-PML fixes).
    let d = Dims3::new(32, 32, 28);
    let h = 150.0;
    let mesh = rock_mesh(d, h);
    let dt = mesh.stats().dt_max() * 0.9;
    let mut cfg = SolverConfig::small(d, h, dt, 1);
    cfg.abc = AbcKind::Mpml { width: 10, pmax: 0.3 };
    cfg.free_surface = true;
    let src = explosion(Idx3::new(16, 16, 12), dt);
    let decomp = awp_grid::decomp::Decomp3::new(d, [1, 1, 1]);
    let mut solver = awp_solver::solver::Solver::new(
        cfg,
        decomp.subdomain(0),
        &mesh,
        &src,
        &[Station::new("s", Idx3::new(5, 5, 0))],
    );
    let mut ledger = awp_vcluster::TimeLedger::new();
    let mut peak_mid = 0.0f32;
    let mut peak_late = 0.0f32;
    for step in 0..1200 {
        solver.step_serial(&mut ledger);
        let m = solver.state.max_velocity();
        if (300..600).contains(&step) {
            peak_mid = peak_mid.max(m);
        }
        if step >= 900 {
            peak_late = peak_late.max(m);
        }
    }
    assert!(!solver.state.has_nan());
    assert!(
        peak_late < peak_mid,
        "late-window peak {peak_late} must stay below mid-window {peak_mid}"
    );
}
