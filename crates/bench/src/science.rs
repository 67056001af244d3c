//! Rows for the paper's verification and science results: Table 3,
//! Fig. 3, the §VI verification, Figs. 15–23 and the F3DT milestone.

use crate::repro::{col, near, num, Check, Ctx, Row, Table};
use crate::section;
use awp_analysis::aval::AcceptanceTest;
use awp_analysis::distance::{bin_by_distance, distance_to_trace, SiteSample};
use awp_analysis::gmpe::{ba08_pgv, cb08_pgv};
use awp_analysis::pgv::PgvMap;
use awp_analysis::rupturevel::RuptureTimeField;
use awp_cvm::mesh::{Mesh, MeshGenerator};
use awp_cvm::model::{CommunityVelocityModel, HomogeneousModel};
use awp_cvm::SoCalModel;
use awp_grid::decomp::Decomp3;
use awp_grid::dims::{Dims3, Idx3};
use awp_odc::scenario::{RuptureDirection, Scenario, ScenarioReport, SourceSpec, CITIES};
use awp_rupture::sgsn::DepthModel;
use awp_signal::series::l2_misfit;
use awp_signal::spectrum::dominant_period;
use awp_solver::config::{AbcKind, SolverConfig};
use awp_solver::reference::ReferenceSolver;
use awp_solver::solver::Solver;
use awp_solver::stations::{surface_velocities, Station};
use awp_solver::{LtsOpts, LtsPlan};
use awp_source::kinematic::KinematicSource;
use awp_source::moment::{moment_of_magnitude, MomentTensor};
use awp_source::stf::Stf;
use awp_vcluster::TimeLedger;
use awp_verify::accuracy::{run_accuracy, AccuracySpec};
use awp_verify::analytic::FullSpace;
use awp_verify::convergence::{run_convergence, ConvergenceSpec};
use awp_verify::fuzz::{run_fuzz, FuzzSpec};
use serde_json::{json, Value};

pub const T3: Row = Row {
    id: "T3",
    record: "table3",
    claim: "Table 3, SCEC simulations based on AWP-ODC: TeraShake-K/D (Mw 7.7), PNW (Mw 8.5–9.0), \
            ShakeOut-K/D (Mw 7.8), wall-to-wall (Mw 8.0) and M8 (Mw 8.0)",
    run: table3,
    checks: &[
        Check::run("every milestone re-runs in miniature with a finite, nonzero peak PGV", |v| {
            let p = col(v, "rows", "pgv_max_ms");
            p.len() == 7 && p.iter().all(|p| p.is_finite() && *p > 0.0)
        }),
        Check::run("every source carries its milestone's magnitude within 0.1", |v| {
            let (mw, paper) = (col(v, "rows", "mw"), col(v, "rows", "paper_mw"));
            mw.len() == 7 && mw.iter().zip(&paper).all(|(m, p)| (m - p).abs() <= 0.1)
        }),
    ],
};

fn table3(ctx: &Ctx) -> Value {
    section("Table 3 — SCEC milestone simulations (miniature reruns)");
    let (n, m) = ctx.pick((24, 28), (96, 108));
    let mut t = Table::new(
        "name:24 paper_mw.1 cells:6 steps mw:5.2 pgv_max_ms.2 wall_s.2 \
         gflops.2",
    );
    for (sc, paper_mw) in [
        (Scenario::terashake_k(n, RuptureDirection::SeToNw).with_duration(80.0), 7.7),
        (Scenario::terashake_d(n, 1992).with_duration(80.0), 7.7),
        (Scenario::pacific_northwest(n, 9.0).with_duration(120.0), 9.0),
        (Scenario::shakeout_k(n, 0.3).with_duration(90.0), 7.8),
        (Scenario::shakeout_d(n, 7).with_duration(90.0), 7.8),
        (Scenario::wall_to_wall(m).with_duration(110.0), 8.0),
        (Scenario::m8(m, 2010).with_duration(110.0), 8.0),
    ] {
        let run = sc.prepare();
        let r = run.run_serial();
        let (cells, gflops) = (run.cfg.dims.count(), r.sustained_flops() / 1e9);
        t.row(json!([
            r.name,
            paper_mw,
            cells,
            r.steps,
            r.source_mw,
            r.pgv.max(),
            r.elapsed_s,
            gflops
        ]));
    }
    json!({ "rows": t.rows() })
}

pub const F3: Row = Row {
    id: "F3",
    record: "fig3",
    claim: "Fig. 3: ShakeOut simulations from three independent 3D codes give \"nearly identical \
            peak ground velocities\"",
    run: fig3,
    checks: &[
        Check::run(
            "aVal: every station's L2 misfit against the independent reference code is within \
             the acceptance tolerance",
            |v| v["aval_passed"].as_bool() == Some(true),
        ),
        Check::run(
            "the scenario PGV maps agree: AWM/reference peak and mean ratios within 10 % of 1",
            |v| {
                near(num(v, "scenario_peak_ratio"), 1.0, 0.1)
                    && near(num(v, "scenario_mean_ratio"), 1.0, 0.1)
            },
        )
        .fails(),
    ],
};

fn fig3(ctx: &Ctx) -> Value {
    section("Fig. 3 (part 1) — waveform-level aVal on a resolved problem (L2 misfits)");
    let (d, h, dt) = (Dims3::new(40, 40, 28), 100.0, 0.006);
    let mesh = MeshGenerator::new(&HomogeneousModel::new(6000.0, 3464.0, 2700.0), d, h).generate();
    let rise = Stf::Cosine { rise_time: 0.5 };
    let src = KinematicSource::point(
        Idx3::new(14, 20, 12),
        MomentTensor::strike_slip(0.3),
        1.0e15,
        rise,
        dt,
    );
    let stations =
        [Station::new("near", Idx3::new(22, 20, 0)), Station::new("far", Idx3::new(28, 26, 0))];
    let steps = ctx.pick(40, 180);
    let abc = AbcKind::Sponge { width: 8, amp: 0.95 };
    let cfg = SolverConfig { abc, free_surface: true, ..SolverConfig::small(d, h, dt, steps) };
    let awm = Solver::run_serial(cfg, &mesh, &src, &stations);
    let ref_seis = ReferenceSolver::new(&mesh, dt, 8, 0.95).run_steps(steps, &src, &stations);
    let report = AcceptanceTest::default().compare(&awm.seismograms, &ref_seis);
    let mut t = Table::new("station vx:5.3 vy:5.3 vz:5.3");
    for s in &report.stations {
        t.row(json!([s.station, s.misfit_vx, s.misfit_vy, s.misfit_vz]));
    }
    let (tol, pass) = (report.tolerance, if report.passed { "PASSED" } else { "FAILED" });
    println!("aVal (L2 ≤ {tol:.2}): {pass}");

    section("Fig. 3 (part 2) — PGV-map level on the mini-ShakeOut scenario");
    let sc = Scenario::shakeout_k(ctx.pick(24, 72), 0.3).with_duration(ctx.pick(20.0, 60.0));
    let run = sc.prepare();
    println!("scenario {:?} (h = {:.1} km), {} steps", run.cfg.dims, sc.h() / 1e3, run.cfg.steps);
    let awm_sc = Solver::run_serial(run.cfg.clone(), &run.mesh, &run.source, &run.stations);
    let (dt, steps, abc) = (run.cfg.dt, run.cfg.steps, run.cfg.abc);
    let ref_pgv = ReferenceSolver::run_pgv(&run.mesh, dt, steps, &run.source, abc);
    let (nx, ny, h) = (run.cfg.dims.nx, run.cfg.dims.ny, run.cfg.h);
    let awm_map = PgvMap::from_field(awm_sc.pgv_map.iter().map(|&v| v as f64).collect(), nx, ny, h);
    let ref_map = PgvMap::from_field(ref_pgv, nx, ny, h);
    let peak_ratio = awm_map.max() / ref_map.max();
    let mean_ratio = awm_map.mean() / ref_map.mean();
    // Cell-wise log-ratio scatter over shaking cells.
    let shaking = awm_map.data.iter().zip(&ref_map.data).filter(|(a, b)| **a > 1e-4 && **b > 1e-4);
    let (mean_lr, sd_lr) = mean_sd(&shaking.map(|(a, b)| (a / b).ln()).collect::<Vec<_>>());
    let (awm_max, ref_max) = (awm_map.max(), ref_map.max());
    println!("PGV max: AWM {awm_max:.3} vs reference {ref_max:.3} m/s (ratio {peak_ratio:.2})");
    println!("PGV mean ratio {mean_ratio:.2}; cell-wise ln-ratio {mean_lr:.3} ± {sd_lr:.3}");
    json!({
        "aval_passed": report.passed,
        "aval_misfits": t.rows(),
        "scenario_peak_ratio": peak_ratio,
        "scenario_mean_ratio": mean_ratio,
        "cellwise_ln_ratio_mean": mean_lr,
        "cellwise_ln_ratio_sd": sd_lr,
    })
}

/// Mean and population standard deviation (0, 0 when empty).
fn mean_sd(x: &[f64]) -> (f64, f64) {
    if x.is_empty() {
        return (0.0, 0.0);
    }
    let n = x.len() as f64;
    let mean = x.iter().sum::<f64>() / n;
    (mean, (x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt())
}

pub const VRF: Row = Row {
    id: "VRF",
    record: "vrf",
    claim: "§VI: the code was \"verified against analytic solutions … before production use\": \
            point-source seismograms against the closed-form full-space solution, the order of \
            grid convergence, and bit-exact results under any legal message schedule",
    run: vrf,
    checks: &[
        Check::run(
            "each mechanism's worst L2 ≤ 0.24, envelope ≤ 0.24 and |shift| ≤ 1.0 dt on the 64³ \
             geometry",
            |v| {
                let a = |key| col(v, "accuracy", key);
                let within = |key, tol| a(key).iter().all(|&x| x <= tol);
                a("n") == [64.0, 64.0]
                    && within("worst_l2", 0.24)
                    && within("worst_envelope", 0.24)
                    && within("worst_shift_dt", 1.0)
            },
        ),
        Check::run("the fitted order over 32³→64³→128³ lies in [0.8, 4.5]", |v| {
            let c = &v["convergence"];
            col(c, "levels", "n") == [32.0, 64.0, 128.0]
                && (0.8..=4.5).contains(&num(c, "observed_order"))
        }),
        Check::model("every fuzz seed equals the unfuzzed 8-rank run bit for bit", |v| {
            let f = &v["fuzz"];
            num(f, "ranks") == 8.0
                && num(f, "runs") >= 1.0
                && f["mismatched_seeds"].as_array().is_some_and(|m| m.is_empty())
        }),
        Check::model(
            "with LtsOpts::new() armed, the analytic medium's plan has exactly one cluster",
            |v| num(v, "lts_clusters") == 1.0,
        ),
    ],
};

fn vrf(ctx: &Ctx) -> Value {
    section("§VI analytic accuracy — point sources vs the Aki & Richards full-space solution");
    let accuracy = run_accuracy(&ctx.pick(AccuracySpec::smoke(), AccuracySpec::full()));
    println!("{:<16} {:>4} {:>10} {:>10} {:>10}", "case", "n", "worst L2", "worst env", "shift/dt");
    for c in &accuracy {
        let (l2, env, shift) = (c.worst_l2, c.worst_envelope, c.worst_shift_dt);
        println!("{:<16} {:>4} {l2:>10.4} {env:>10.4} {shift:>10.2}", c.case, c.n);
    }

    section("§VI convergence order — the explosion under grid refinement, dt ∝ h");
    let conv = run_convergence(&ctx.pick(ConvergenceSpec::smoke(), ConvergenceSpec::full()));
    let errs: Vec<String> =
        conv.levels.iter().map(|l| format!("{}³→{:.2e}", l.n, l.error)).collect();
    println!("order {:.2} ({})", conv.observed_order, errs.join(", "));

    section("§VI schedule fuzz — seeded delivery orders against the unfuzzed run");
    let fz = run_fuzz(&ctx.pick(FuzzSpec::smoke(), FuzzSpec::full()));
    let verdict = if fz.mismatched_seeds.is_empty() {
        "bit-exact".to_string()
    } else {
        format!("MISMATCH at seeds {:?}", fz.mismatched_seeds)
    };
    println!(
        "{} seeds × {} ranks × {} steps, baseline {} → {verdict}",
        fz.runs, fz.ranks, fz.steps, fz.baseline_fingerprint
    );

    // The accuracy medium with local time stepping armed: one rate band,
    // so the LTS stepper delegates to the fused path bit for bit.
    let (c, med) = (&accuracy[0], FullSpace::rock());
    let model = HomogeneousModel::new(med.vp as f32, med.vs as f32, med.rho as f32);
    let mesh = MeshGenerator::new(&model, Dims3::new(c.n, c.n, c.n), c.h).generate();
    let lts_clusters = LtsPlan::from_mesh(&mesh, c.dt, LtsOpts::new()).clusters.len();
    println!("\nLTS plan on the {}³ analytic medium: {lts_clusters} cluster(s)", c.n);
    json!({ "accuracy": accuracy, "convergence": conv, "fuzz": fz, "lts_clusters": lts_clusters })
}

pub const F15: Row = Row {
    id: "F15",
    record: "fig15",
    claim: "Fig. 15, TeraShake-K: \"NW-SE rupture on the same stretch of the SAF generated \
            orders-of-magnitude smaller peak motions in Los Angeles\" than SE-NW rupture",
    run: fig15,
    checks: &[Check::run("Los Angeles PGV is higher for SE→NW rupture than for NW→SE", |v| {
        num(v, "la_ratio_se_nw_over_nw_se") > 1.0
    })],
};

fn fig15(ctx: &Ctx) -> Value {
    section("Fig. 15 — TeraShake-K directivity: city PGVH (m/s), SE→NW vs NW→SE");
    let (nx, dur) = ctx.pick((32, 40.0), (120, 110.0));
    let run = |dir| Scenario::terashake_k(nx, dir).with_duration(dur).prepare().run_serial();
    let (se_nw, nw_se) = (run(RuptureDirection::SeToNw), run(RuptureDirection::NwToSe));
    let mut t = Table::new("station:14 se_nw:6.3 nw_se:6.3 ratio:6.2");
    for (name, ..) in CITIES {
        let (a, b) = (se_nw.pgv_at(name).unwrap_or(0.0), nw_se.pgv_at(name).unwrap_or(0.0));
        t.row(json!([name, a, b, a / b]));
    }
    let la = |rep: &ScenarioReport| rep.pgv_at("Los Angeles").unwrap_or(0.0);
    let la_ratio = la(&se_nw) / la(&nw_se);
    println!("\nSE→NW PGV map:\n{}", se_nw.pgv.to_ascii(90));
    println!("NW→SE PGV map:\n{}", nw_se.pgv.to_ascii(90));
    json!({
        "cities": t.rows(),
        "la_ratio_se_nw_over_nw_se": la_ratio,
        "pgv_max_se_nw": se_nw.pgv.max(),
        "pgv_max_nw_se": nw_se.pgv.max(),
    })
}

pub const F16: Row = Row {
    id: "F16",
    record: "fig16",
    claim: "Fig. 16, slip rate 27.5 s after initiation: the TS-K source was \"relatively smooth \
            in its slip distribution and rupture characteristics\"; the dynamic TS-D front is not",
    run: fig16,
    checks: &[Check::run(
        "the dynamic front is rougher than the kinematic one (CV of the along-strike moment \
         rate at 27.5 s)",
        |v| num(v, "roughness_dynamic") > num(v, "roughness_kinematic"),
    )],
};

/// Moment-rate profile along strike at absolute time `t` (normalised).
fn along_strike_profile(src: &KinematicSource, t: f64, nx: usize) -> Vec<f64> {
    let mut prof = vec![0.0; nx];
    for sf in src.subfaults.iter().filter(|sf| sf.idx.i < nx) {
        prof[sf.idx.i] += sf.moment_rate_at(t, src.dt);
    }
    let m = prof.iter().cloned().fold(0.0, f64::max).max(1e-30);
    prof.iter().map(|v| v / m).collect()
}

/// Coefficient of variation of the non-zero part of a profile — the
/// roughness measure separating dynamic from kinematic fronts.
fn roughness(p: &[f64]) -> f64 {
    let nz: Vec<f64> = p.iter().cloned().filter(|v| *v > 1e-6).collect();
    if nz.len() < 2 {
        return 0.0;
    }
    let (mean, sd) = mean_sd(&nz);
    sd / mean
}

fn fig16(ctx: &Ctx) -> Value {
    section("Fig. 16 — slip-rate snapshot: dynamic (TS-D) vs kinematic (TS-K)");
    let nx = ctx.pick(32, 96);
    let tsk = Scenario::terashake_k(nx, RuptureDirection::SeToNw).with_duration(1.0).prepare();
    let tsd = Scenario::terashake_d(nx, 1992).with_duration(1.0).prepare();
    let t_snap = 27.5; // the paper's snapshot time
    let prof_k = along_strike_profile(&tsk.source, t_snap, nx);
    let prof_d = along_strike_profile(&tsd.source, t_snap, nx);
    println!("normalised moment rate along strike at t = {t_snap} s (kinematic | dynamic):");
    let bar = |v: f64| "#".repeat((v * 30.0) as usize);
    for i in (0..nx).step_by(4) {
        println!("{i:>4}   {:<31}  {:<31}", bar(prof_k[i]), bar(prof_d[i]));
    }
    let (rk, rd) = (roughness(&prof_k), roughness(&prof_d));
    println!("front roughness (CV of active cells): kinematic {rk:.2}, dynamic {rd:.2}");
    let rup = tsd.rupture.as_ref().expect("TS-D is dynamic");
    let peak = rup.peak_sliprate.iter().cloned().fold(0.0, f64::max);
    println!("dynamic source: Mw {:.2}, peak slip rate {peak:.2} m/s", tsd.source.magnitude());
    json!({
        "t_snapshot_s": t_snap,
        "roughness_kinematic": rk,
        "roughness_dynamic": rd,
        "profile_kinematic": prof_k,
        "profile_dynamic": prof_d,
    })
}

pub const F17: Row = Row {
    id: "F17",
    record: "fig17",
    claim:
        "Fig. 17, TeraShake-D: the dynamic source \"decreases the largest peak ground motions … \
            by factors of 2-3\" relative to TS-K, with 'star-burst' rays of elevated PGV",
    run: fig17,
    checks: &[
        Check::run(
            "at matched moment TS-K's peak PGV is 2–3× TS-D's (within 10 %: 1.8–3.3×)",
            |v| (1.8..=3.3).contains(&num(v, "peak_reduction_factor")),
        )
        .fails(),
        Check::run(
            "star-burst: TS-D's azimuthal ln-PGV scatter on a 60 km ring exceeds TS-K's",
            |v| num(v, "ring_scatter_tsd") > num(v, "ring_scatter_tsk"),
        ),
    ],
};

/// Azimuthal ln-PGV scatter on a 60 km ring around the fault centre.
fn ring_scatter(rep: &ScenarioReport) -> f64 {
    let (cx, cy, r) = (0.6 * 600_000.0, 0.5 * 300_000.0, 60_000.0);
    let vals: Vec<f64> = (0..36)
        .map(|a| a as f64 * std::f64::consts::PI / 18.0)
        .map(|th| rep.pgv.at_position(cx + r * th.cos(), cy + r * th.sin()))
        .filter(|&v| v > 0.0)
        .map(f64::ln)
        .collect();
    mean_sd(&vals).1
}

fn fig17(ctx: &Ctx) -> Value {
    section("Fig. 17 — TeraShake-D vs TeraShake-K PGV");
    let (nx, dur) = ctx.pick((32, 40.0), (108, 100.0));
    let tsk = Scenario::terashake_k(nx, RuptureDirection::SeToNw).with_duration(dur).prepare();
    let tsk_mw = tsk.source.magnitude();
    let k = tsk.run_serial();
    let mut tsd = Scenario::terashake_d(nx, 1992).with_duration(dur).prepare();
    // Match moments so the comparison isolates source complexity (the
    // paper's TS-D sources have "average slip … nearly the same" as TS-K).
    tsd.source.scale_moment(moment_of_magnitude(tsk_mw) / tsd.source.total_moment());
    let d = tsd.run_serial();
    let (kmax, dmax) = (k.pgv.max(), d.pgv.max());
    let (reduction, cv_k, cv_d) = (kmax / dmax, ring_scatter(&k), ring_scatter(&d));
    println!(
        "PGV max (m/s): TS-K {kmax:.3}, TS-D {dmax:.3}; mean {:.4}, {:.4}",
        k.pgv.mean(),
        d.pgv.mean()
    );
    println!("peak reduction factor TS-K/TS-D = {reduction:.2}");
    println!("azimuthal ln-PGV scatter on a 60 km ring: TS-K {cv_k:.2}, TS-D {cv_d:.2}");
    println!("\nTS-D PGV map:\n{}", d.pgv.to_ascii(90));
    json!({
        "tsk_pgv_max": kmax,
        "tsd_pgv_max": dmax,
        "peak_reduction_factor": reduction,
        "ring_scatter_tsk": cv_k,
        "ring_scatter_tsd": cv_d,
    })
}

pub const F18: Row = Row {
    id: "F18",
    record: "fig18",
    claim: "Fig. 18, ShakeOut-D: seven Mw 7.8 dynamic source descriptions with distinct slip \
            distributions and rupture-time contours, \"to assess the uncertainty in the \
            site-specific peak motions\"",
    run: fig18,
    checks: &[
        Check::run("every member is its own realisation: no two share a mean slip to 1 %", |v| {
            let s = col(v, "members", "mean_slip_m");
            s.len() > 1
                && s.iter().enumerate().all(|(i, a)| s[i + 1..].iter().all(|b| !near(*b, *a, 0.01)))
        }),
        Check::run("every member's dynamic rupture is an Mw 7.8 event, within 0.1", |v| {
            let mw = col(v, "members", "mw");
            !mw.is_empty() && mw.iter().all(|m| (m - 7.8).abs() <= 0.1)
        })
        .fails(),
    ],
};

fn fig18(ctx: &Ctx) -> Value {
    section("Fig. 18 — ShakeOut-D dynamic source ensemble");
    let nx = ctx.pick(32, 96);
    let mut t = Table::new(
        "seed max_slip_m.2 mean_slip_m.2 peak_sliprate_ms.2 duration_s.1 \
         mw:5.2 ruptured_fraction.2",
    );
    let mut contours = Vec::new();
    for seed in [11u64, 22, 33, 44] {
        let run = Scenario::shakeout_d(nx, seed).with_duration(1.0).prepare();
        let r = run.rupture.as_ref().expect("ShakeOut-D is dynamic");
        let peak = r.peak_sliprate.iter().cloned().fold(0.0, f64::max);
        let (max, mean, mw) = (r.max_slip(), r.mean_slip(), r.magnitude());
        t.row(json!([seed, max, mean, peak, r.duration(), mw, r.ruptured_fraction()]));
        // Rupture-time contours along strike at mid-depth, like the white
        // contours of Fig. 18.
        let step = (r.nx / 12).max(1);
        contours
            .push((0..r.nx).step_by(step).map(|i| r.rupture_time(i, r.nz / 2)).collect::<Vec<_>>());
    }
    json!({ "members": t.rows(), "rupture_time_contours_s": contours })
}

pub const F19: Row = Row {
    id: "F19",
    record: "fig19",
    claim: "Fig. 19, the M8 source: final slip max 7.8 m, mean 4.5 m, 5.7 m at the surface; \
            1.0×10²¹ N·m (Mw 8.0); peak slip rates above 10 m/s; the rupture reaches the far end \
            after 135 s; \"a large ~100 km patch of super-shear rupture velocity … between 30 and \
            130 km along-strike\"",
    run: fig19,
    checks: &[
        Check::run("Mw 8.0 within 0.1", |v| (num(v, "mw") - 8.0).abs() <= 0.1),
        Check::run("mean slip 4.5 m within 10 %", |v| near(num(v, "mean_slip_m"), 4.5, 0.1)),
        Check::run("maximum slip 7.8 m within 10 %", |v| near(num(v, "max_slip_m"), 7.8, 0.1))
            .fails(),
        Check::run("surface slip maximum 5.7 m within 10 %", |v| {
            near(num(v, "surface_slip_max_m"), 5.7, 0.1)
        })
        .fails(),
        Check::run("peak slip rate above 10 m/s", |v| num(v, "peak_sliprate_ms") > 10.0).fails(),
        Check::run("the rupture reaches the far end after 135 s within 10 %", |v| {
            near(num(v, "rupture_duration_s"), 135.0, 0.1)
        })
        .fails(),
        Check::run("a super-shear patch lies between 30 and 130 km along strike", |v| {
            let (s, e) =
                (col(v, "supershear_patches", "start_km"), col(v, "supershear_patches", "end_km"));
            s.iter().zip(&e).any(|(s, e)| *s < 130.0 && *e > 30.0)
        }),
    ],
};

fn fig19(ctx: &Ctx) -> Value {
    section("Fig. 19 — M8 dynamic source model");
    let r = ctx.m8().rupture.as_ref().expect("M8 is dynamic");
    let (max, mean, surf) = (r.max_slip(), r.mean_slip(), r.surface_slip_max());
    println!(
        "(a) final slip max {max:.2} m (paper: 7.8), mean {mean:.2} (4.5), surface {surf:.2} (5.7)"
    );
    let (m0, mw) = (r.moment(), r.magnitude());
    println!("    moment {m0:.3e} N·m → Mw {mw:.2} (paper: 1.0e21 N·m, Mw 8.0)");
    let (p, peak) = r
        .peak_sliprate
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0, 0.0));
    let depth = (p / r.nx) as f64 * r.h / 1e3;
    println!("(b) peak slip rate {peak:.2} m/s at ~{depth:.0} km depth (paper: >10 m/s at depth)");
    let model = DepthModel::saf_average(r.nz, r.h);
    let rt = RuptureTimeField::new(r.nx, r.nz, r.h, r.rupture_time.clone());
    let vs = |_i: usize, k: usize| model.vs(k);
    let frac = rt.supershear_fraction(vs);
    println!("(c) rupture reached the far end after {:.0} s (paper: 135 s)", r.duration());
    println!("    super-shear fraction {:.0}%, patches along strike:", frac * 100.0);
    let mut t = Table::new("start_km end_km length_km");
    for (s, e) in rt.supershear_patches(vs) {
        let (s, e) = (s as f64 * r.h / 1e3, e as f64 * r.h / 1e3);
        t.row(json!([s, e, e - s]));
    }
    println!("depth-averaged slip along strike:");
    for i in (0..r.nx).step_by((r.nx / 24).max(1)) {
        let slip = (0..r.nz).map(|k| r.slip(i, k)).sum::<f64>() / r.nz as f64;
        println!("{:>6.0} km  {}", i as f64 * r.h / 1e3, "#".repeat((slip * 8.0) as usize));
    }
    json!({
        "max_slip_m": r.max_slip(),
        "mean_slip_m": r.mean_slip(),
        "surface_slip_max_m": r.surface_slip_max(),
        "moment_nm": r.moment(),
        "mw": r.magnitude(),
        "peak_sliprate_ms": peak,
        "rupture_duration_s": r.duration(),
        "supershear_fraction": frac,
        "supershear_patches": t.rows(),
    })
}

pub const F20: Row = Row {
    id: "F20",
    record: "fig20",
    claim: "Figs. 1 & 20: \"Sedimentary basins are revealed by cutaway of material with S-wave \
            velocity less than 2.5 km/s\" — Los Angeles, San Gabriel, Ventura, San Bernardino and \
            Coachella",
    run: fig20,
    checks: &[Check::model("Z2.5 is deeper in every basin than on rock", |v| {
        let z = col(v, "basins", "z25_m");
        z.len() == 5 && z.iter().all(|&b| b > num(v, "rock_z25_m"))
    })],
};

fn fig20(_: &Ctx) -> Value {
    section("Figs. 1/20 — SoCal model: depth to the Vs = 2.5 km/s isosurface");
    let model = SoCalModel::m8();
    let (nx, ny) = (100usize, 50usize);
    let (dx, dy) = (810_000.0 / nx as f64, 405_000.0 / ny as f64);
    let z25: Vec<f64> = (0..nx * ny)
        .map(|c| model.depth_to_vs((c % nx) as f64 * dx, (c / nx) as f64 * dy, 2500.0))
        .collect();
    let max_depth = z25.iter().cloned().fold(0.0, f64::max);
    // ASCII shading (deeper = darker), like the paper's red/yellow scale.
    let ramp = b" .:-=+*#%@";
    println!("(N up; the fault runs along the middle; darker = deeper sediments)");
    for row in z25.chunks(nx).rev() {
        let shade = |z: &f64| {
            ramp[((z / max_depth).clamp(0.0, 1.0) * (ramp.len() - 1) as f64) as usize] as char
        };
        println!("{}", row.iter().map(shade).collect::<String>());
    }
    let mut t = Table::new("name:14 cx_km cy_km basement_m z25_m");
    for b in model.basins() {
        let z25 = model.depth_to_vs(b.cx, b.cy, 2500.0);
        t.row(json!([b.name, b.cx / 1e3, b.cy / 1e3, b.depth, z25]));
    }
    let rock_z25 = model.depth_to_vs(30_000.0, 360_000.0, 2500.0);
    println!("reference rock site Z2.5: {rock_z25:.0} m");
    json!({ "basins": t.rows(), "rock_z25_m": rock_z25, "max_z25_m": max_depth })
}

pub const F21: Row = Row {
    id: "F21",
    record: "fig21",
    claim: "Fig. 21, M8 PGVH: isolated near-fault peaks above 10 m/s; San Bernardino is hardest \
            hit at ~6 m/s, while downtown Los Angeles sees 'only' 0.4 m/s",
    run: fig21,
    checks: &[
        Check::run("San Bernardino's PGVH exceeds downtown Los Angeles's", |v| {
            num(v, "san_bernardino_ms") > num(v, "los_angeles_ms")
        })
        .fails(),
        Check::run("the near-fault PGVH maximum exceeds every city's PGVH", |v| {
            let c = col(v, "cities", "pgvh_ms");
            !c.is_empty() && c.iter().all(|&c| c < num(v, "pgv_max_ms"))
        }),
    ],
};

fn fig21(ctx: &Ctx) -> Value {
    section("Fig. 21 — M8 PGVH map and station seismograms");
    let rep = ctx.m8_report();
    let mut t = Table::new("station:14 pgvh_ms.3 period_s.1");
    for s in &rep.seismograms {
        let period = dominant_period(&s.vx, s.dt, 0.02).unwrap_or(0.0);
        t.row(json!([s.station.name, s.pgvh_rss(), period]));
    }
    let near_fault_max = rep.pgv.max();
    let sb = rep.pgv_at("San Bernardino").unwrap_or(0.0);
    let la = rep.pgv_at("Los Angeles").unwrap_or(0.0);
    println!("near-fault PGVH max {near_fault_max:.2} m/s (paper: isolated >10 m/s on the trace)");
    println!("San Bernardino {sb:.2} m/s (paper: ~6, hardest hit), downtown LA {la:.2} (0.4)");
    println!("\nPGVH map:\n{}", rep.pgv.to_ascii(100));
    let cities = t.rows();
    json!({ "cities": cities, "pgv_max_ms": near_fault_max, "san_bernardino_ms": sb,
            "los_angeles_ms": la })
}

pub const F22: Row = Row {
    id: "F22",
    record: "fig22",
    claim: "Fig. 22, super-shear at 23 s: the Mach cone carries intense near-fault motion to \
            large fault distances, and \"the fault-parallel component of ground motion tends to \
            display similar or larger amplitude\" than the fault-perpendicular one",
    run: fig22,
    checks: &[
        Check::run(
            "off the trace, the fault-parallel peak is similar to (within 10 %) or larger \
             than the fault-perpendicular peak",
            |v| num(v, "parallel_over_perpendicular") >= 0.9,
        ),
        Check::run(
            "peak |v_h| decays no faster than cylindrical spreading (1/√r) from 2 to 12 cells \
             off the fault",
            |v| {
                let p = col(v, "decay_profile", "peak_vh_ms");
                p.len() == 5 && p[2] / p[0] >= (2.0f64 / 12.0).sqrt()
            },
        )
        .fails(),
    ],
};

fn fig22(ctx: &Ctx) -> Value {
    section("Fig. 22 — super-shear Mach cone snapshot at t = 23 s");
    // A strongly loaded dynamic rupture guarantees a super-shear segment.
    let mut sc = Scenario::m8(ctx.pick(48, 128), 77).with_duration(ctx.pick(30.0, 60.0));
    if let SourceSpec::Dynamic { reload_mean, .. } = &mut sc.source {
        *reload_mean = 0.62;
    }
    let run = sc.prepare();
    let r = run.rupture.as_ref().expect("M8 is dynamic");
    println!("rupture duration {:.0} s, Mw {:.2}", r.duration(), r.magnitude());
    // Drive the wave solver by hand to the paper's 23 s snapshot.
    let sub = Decomp3::new(run.cfg.dims, [1, 1, 1]).subdomain(0);
    let mut solver = Solver::new(run.cfg.clone(), sub, &run.mesh, &run.source, &run.stations);
    let mut ledger = TimeLedger::new();
    for _ in 0..(23.0 / run.cfg.dt) as usize {
        solver.step_serial(&mut ledger);
    }
    let snap = surface_velocities(&solver.state, 1);
    let d = run.cfg.dims;
    let jf = (sc.fault_y_frac * d.ny as f64) as usize;
    let cell = |i: usize, j: usize| &snap[3 * (i + d.nx * j)..3 * (i + d.nx * j) + 2];
    // Fault-parallel (vx) vs fault-perpendicular (vy) amplitude along a
    // line 4 cells south of the mean trace.
    let line = jf.saturating_sub(4);
    let peak = |c: usize| (0..d.nx).map(|i| cell(i, line)[c].abs() as f64).fold(0.0, f64::max);
    let (par, perp) = (peak(0), peak(1));
    println!("4 cells south of the trace: max |v| parallel {par:.3}, perpendicular {perp:.3} m/s");
    // Decay of peak |v_h| with fault distance: Mach waves decay slower
    // than cylindrical spreading.
    let mut t = Table::new("distance_km.1 peak_vh_ms.3");
    for off in [2usize, 6, 12, 20, 30] {
        let j = (jf + off).min(d.ny - 1);
        let m = (0..d.nx)
            .map(|i| (cell(i, j)[0] as f64).hypot(cell(i, j)[1] as f64))
            .fold(0.0, f64::max);
        t.row(json!([off as f64 * run.cfg.h / 1e3, m]));
    }
    json!({
        "t_snapshot_s": 23.0,
        "fault_parallel_max": par,
        "fault_perpendicular_max": perp,
        "parallel_over_perpendicular": par / perp.max(1e-12),
        "decay_profile": t.rows(),
    })
}

pub const F23: Row = Row {
    id: "F23",
    record: "fig23",
    claim: "Fig. 23: \"the median M8 and AR PGVs agree very well … M8 median ± 1 standard \
            deviation are very close to the AR 16% and 84% POE levels\" for rock sites to 200 km; \
            San Bernardino's extreme PGV sits below 0.1 % probability of exceedance",
    run: fig23,
    checks: &[
        Check::run(
            "every occupied distance bin's simulated median lies inside BA08's 16–84 % band, \
             as simulated (no level correction)",
            |v| {
                let b = v["bins"].as_array().map_or(&[][..], |a| a.as_slice());
                !b.is_empty() && b.iter().all(|b| b["within_ba08_1sigma"].as_bool() == Some(true))
            },
        )
        .fails(),
        Check::run("San Bernardino's PGV has a BA08 probability of exceedance below 0.1 %", |v| {
            num(v, "san_bernardino_ba08_poe") < 0.001
        })
        .fails(),
    ],
};

/// Least-squares slope of ln y against ln x.
fn log_slope(pts: &[(f64, f64)]) -> f64 {
    let n = pts.len() as f64;
    let mx = pts.iter().map(|(x, _)| x.ln()).sum::<f64>() / n;
    let my = pts.iter().map(|(_, y)| y.ln()).sum::<f64>() / n;
    let num: f64 = pts.iter().map(|(x, y)| (x.ln() - mx) * (y.ln() - my)).sum();
    let den: f64 = pts.iter().map(|(x, _)| (x.ln() - mx).powi(2)).sum();
    num / den
}

fn fig23(ctx: &Ctx) -> Value {
    section("Fig. 23 — simulated rock-site PGV vs NGA relations (Mw 8)");
    let run = ctx.m8();
    let (sc, mw) = (&run.scenario, run.source.magnitude());
    let rep = ctx.m8_report();
    // Rock sites: surface Vs > 1000 m/s (the paper's criterion). The RSS
    // PGVH converts to the geometric mean the GMPEs predict with the
    // paper's note that it is typically 1.5–2× smaller.
    let model = SoCalModel::scaled(sc.length, sc.width);
    let trace = sc.trace();
    let h = rep.pgv.h;
    let mut samples = Vec::new();
    for (j, i) in (0..rep.pgv.ny).flat_map(|j| (0..rep.pgv.nx).map(move |i| (j, i))) {
        let (x, y, pgv) = (i as f64 * h, j as f64 * h, rep.pgv.at(i, j));
        if model.query(x, y, 10.0).vs > 1000.0 && pgv > 0.0 {
            let r_km = distance_to_trace(x, y, &trace.points) / 1000.0;
            samples.push(SiteSample { r_km, pgv_cms: pgv * 100.0 / 1.7 });
        }
    }
    println!(
        "source Mw {mw:.2}; {} rock sites (surface Vs > 1000 m/s); PGV in cm/s",
        samples.len()
    );
    let mut t = Table::new(
        "r_km:5.1 count sim_median_cms.1 sim_sigma_ln.2 ba08_median_cms.1 \
         cb08_median_cms.1 within_ba08_1sigma",
    );
    let (mut sim_pts, mut ba_pts, mut inside) = (Vec::new(), Vec::new(), 0);
    for b in bin_by_distance(&samples, 2.0, 200.0, 10).iter().filter(|b| b.count > 0) {
        let r_mid = (b.r_lo_km * b.r_hi_km).sqrt();
        let (ba, cb) = (ba08_pgv(mw, r_mid, 1000.0), cb08_pgv(mw, r_mid, 1000.0, 0.4));
        let within = b.median_cms > ba.p16() && b.median_cms < ba.p84();
        inside += within as usize;
        t.row(json!([r_mid, b.count, b.median_cms, b.sigma_ln, ba.median, cb.median, within]));
        sim_pts.push((r_mid, b.median_cms));
        ba_pts.push((r_mid, ba.median));
    }
    let bins = t.rows();
    // The decay slope is the resolution-robust quantity; the level shifts
    // with the source's high-frequency content.
    let (s_sim, s_ba) = (log_slope(&sim_pts), log_slope(&ba_pts));
    let ln_ratios: Vec<f64> =
        sim_pts.iter().zip(&ba_pts).map(|((_, a), (_, b))| (a / b).ln()).collect();
    let offset = mean_sd(&ln_ratios).0.exp();
    // BA08 σ_ln(PGV) = 0.560.
    let inside_norm = ln_ratios.iter().filter(|l| (*l - offset.ln()).abs() < 0.560).count();
    println!("decay slope d ln PGV / d ln R: simulation {s_sim:.2}, BA08 {s_ba:.2}");
    println!("level ratio sim/BA08 {offset:.2}");
    let n = sim_pts.len();
    println!("{inside} of {n} occupied bins inside BA08 ±1σ as simulated, {inside_norm} after");
    // POE of the extreme basin site (the paper's SBB example).
    let sb = rep.pgv_at("San Bernardino").unwrap_or(0.0);
    let poe = ba08_pgv(mw, 10.0, 760.0).poe(sb * 100.0 / 1.7);
    println!("San Bernardino PGVH {sb:.2} m/s at ~10 km → BA08 POE {:.3}%", poe * 100.0);
    json!({
        "mw": mw, "bins": bins, "bins_inside_1sigma": inside,
        "sim_decay_slope": s_sim, "ba08_decay_slope": s_ba, "level_ratio": offset,
        "bins_inside_after_level_norm": inside_norm,
        "san_bernardino_ba08_poe": poe,
    })
}

pub const F3DT: Row = Row {
    id: "F3DT",
    record: "t3_f3dt",
    claim:
        "Table 3 / §VI, F3DT: \"AWP-ODC is used to calculate sensitivity kernels accounting for \
            the full physics of 3D wave propagation\" to iteratively improve the CVM",
    run: f3dt,
    checks: &[Check::run(
        "each basin's own station is more sensitive to that basin's velocity than the Mojave \
         rock station",
        |v| {
            let (own, mojave) = (col(v, "basins", "own_station"), col(v, "basins", "mojave_rock"));
            own.len() == 3 && own.iter().zip(&mojave).all(|(o, m)| o > m)
        },
    )],
};

/// Scale V_s and V_p of the upper 10 km of crust inside a map rectangle.
/// Only slowing (scale < 1) keeps the perturbed mesh inside the baseline
/// CFL bound.
fn perturb_basin(mesh: &Mesh, [x0, x1, y0, y1]: [f64; 4], scale: f32) -> Mesh {
    assert!(scale <= 1.0, "perturb downward to stay CFL-safe");
    let (mut out, h, mut touched) = (mesh.clone(), mesh.h, 0usize);
    for (j, i) in (0..mesh.dims.ny).flat_map(|j| (0..mesh.dims.nx).map(move |i| (j, i))) {
        let (x, y) = (i as f64 * h, j as f64 * h);
        if !(x0..=x1).contains(&x) || !(y0..=y1).contains(&y) {
            continue;
        }
        for k in (0..mesh.dims.nz).take_while(|&k| (k as f64 + 0.5) * h <= 10_000.0) {
            let p = mesh.idx(i, j, k);
            out.vs[p] = mesh.vs[p] * scale;
            out.vp[p] = mesh.vp[p] * scale;
            touched += 1;
        }
    }
    assert!(touched > 0, "perturbation window missed the model");
    out
}

fn f3dt(ctx: &Ctx) -> Value {
    section("F3DT (Table 3) — finite-difference sensitivity kernels, L2 |δvx|/|vx| per 1% δVs");
    let sc = Scenario::shakeout_k(ctx.pick(32, 72), 0.3).with_duration(ctx.pick(20.0, 70.0));
    let run = sc.prepare();
    println!("baseline: {} on {:?}, {} steps", sc.name, run.cfg.dims, run.cfg.steps);
    let solve = |mesh: &Mesh| Solver::run_serial(run.cfg.clone(), mesh, &run.source, &run.stations);
    let baseline = solve(&run.mesh);
    let station =
        |name: &str| baseline.seismograms.iter().position(|s| s.station.name.contains(name));
    let eps = 0.02f32;
    println!("stations: {:?}", run.stations.iter().map(|s| &s.name).collect::<Vec<_>>());
    // Basin windows as fractions of the box, from the SoCal geometry.
    let mut t = Table::new("basin:14 own_station.4 mojave_rock.4");
    let mut kernel = Vec::new();
    for (name, [fx0, fx1, fy0, fy1]) in [
        ("Los Angeles", [0.45, 0.65, 0.15, 0.40]),
        ("Ventura", [0.30, 0.45, 0.08, 0.35]),
        ("San Bernardino", [0.58, 0.72, 0.35, 0.55]),
    ] {
        let window = [fx0 * sc.length, fx1 * sc.length, fy0 * sc.width, fy1 * sc.width];
        let perturbed = solve(&perturb_basin(&run.mesh, window, 1.0 - eps));
        let col: Vec<f64> = (baseline.seismograms.iter().zip(&perturbed.seismograms))
            .map(|(b, p)| l2_misfit(&p.vx, &b.vx) / (eps as f64 * 100.0))
            .collect();
        println!("{name:<14} basin, per station: {col:.4?}");
        let of = |s: &str| station(s).map_or(0.0, |i| col[i]);
        t.row(json!([name, of(name), of("Mojave")]));
        kernel.push(json!({ "basin": name, "sensitivities": col }));
    }
    json!({ "epsilon": eps, "kernel": kernel, "basins": t.rows() })
}
