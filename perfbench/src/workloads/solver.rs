//! `loh1-serial`, `loh1-mpml`, `basin-lts`: `Solver::run_serial` on one
//! thread, on three configurations that put the time in different places
//! (plain kernels, the M-PML boundary, the clustered LTS stepper).

use crate::host;
use crate::metrics::Ledger;
use crate::run::{Checks, Rng, RunArgs, Workload};
use crate::stats::{decile_mean, median, ratio};
use crate::trace::Tracer;
use awp_cvm::mesh::{Mesh, MeshGenerator};
use awp_cvm::model::LayeredModel;
use awp_grid::decomp::Decomp3;
use awp_grid::dims::{Dims3, Idx3};
use awp_grid::stagger::Component;
use awp_pario::md5::Md5;
use awp_solver::boundary::{
    apply_free_surface_stress, apply_free_surface_velocity, owns_free_surface,
};
use awp_solver::flops::per_point;
use awp_solver::simd::{update_stress_simd, update_velocity_simd};
use awp_solver::stations::Seismogram;
use awp_solver::{
    AbcKind, LtsPlan, RankResult, Solver, SolverConfig, SolverOpts, Station, WaveState,
};
use awp_source::kinematic::KinematicSource;
use awp_source::moment::MomentTensor;
use awp_source::stf::Stf;
use awp_vcluster::TimeLedger;

/// Grid spacing of all three cases (m).
const H: f64 = 150.0;
/// CFL bound `6h / (7·√3·vp_max)` for the 6 km/s halfspace both media share.
const DT_CFL: f64 = 6.0 * H / (7.0 * 1.732_050_807_568_877_2 * 6000.0);
/// Misfit tolerance of the solver crate's `lts` suite
/// (`lts_solution_tracks_global_dt_solution`).
const LTS_REL_L2_MAX: f64 = 0.30;

struct Case {
    dims: Dims3,
    dt: f64,
    steps: usize,
    abc: AbcKind,
    /// `basin_over_rock(24h)` under `optimized_lts()`; else LOH.1 under
    /// `optimized()`.
    basin_lts: bool,
}

fn case(name: &str, smoke: bool) -> Case {
    let (dims, steps) = match (name, smoke) {
        ("loh1-serial", false) => (Dims3::new(80, 80, 40), 110),
        ("loh1-mpml", false) => (Dims3::new(80, 80, 40), 16),
        ("basin-lts", false) => (Dims3::new(64, 64, 48), 240),
        // Smoke grids, with enough steps for the first arrival to reach
        // the surface stations (the checks need signal).
        ("loh1-serial", true) => (Dims3::new(24, 24, 32), 48),
        ("loh1-mpml", true) => (Dims3::new(28, 28, 24), 32),
        // Wide enough that the stations sit inside the 20-cell sponges,
        // or the per-cluster sponge amplitudes dominate the LTS misfit.
        ("basin-lts", true) => (Dims3::new(48, 48, 32), 160),
        _ => unreachable!("not a solver workload: {name}"),
    };
    match name {
        "loh1-serial" => {
            Case { dims, dt: 0.9 * DT_CFL, steps, abc: AbcKind::default_sponge(), basin_lts: false }
        }
        "loh1-mpml" => Case { dims, dt: 0.9 * DT_CFL, steps, abc: AbcKind::m8(), basin_lts: false },
        _ => Case { dims, dt: 0.012, steps, abc: AbcKind::default_sponge(), basin_lts: true },
    }
}

pub struct SolverWorkload {
    cfg: SolverConfig,
    mesh: Mesh,
    source: KinematicSource,
    stations: Vec<Station>,
    /// Seismogram digest of the warm-up rep; every later rep must match.
    reference_md5: String,
    /// The warm-up rep's result, kept for the misfit and backend checks.
    reference: RankResult,
}

fn seismogram_md5(seismograms: &[Seismogram]) -> String {
    let mut h = Md5::new();
    for s in seismograms {
        super::hash_seismogram(&mut h, s);
    }
    h.finalize_hex()
}

fn check_result(r: &RankResult, reference_md5: &str, checks: &mut Checks) {
    let peak = r.pgv_map.iter().fold(0.0f32, |m, v| m.max(*v));
    checks.check(r.pgv_map.iter().all(|v| v.is_finite()) && peak > 0.0, || {
        format!("PGV map must be finite and non-zero (peak {peak})")
    });
    let md5 = seismogram_md5(&r.seismograms);
    checks.check(md5 == reference_md5, || {
        format!("seismogram MD5 {md5} differs from the warm-up rep's {reference_md5}")
    });
}

fn bit_identical(a: &RankResult, b: &RankResult) -> bool {
    seismogram_md5(&a.seismograms) == seismogram_md5(&b.seismograms)
        && a.pgv_map.len() == b.pgv_map.len()
        && a.pgv_map.iter().zip(&b.pgv_map).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn states_identical(a: &WaveState, b: &WaveState) -> bool {
    Component::ALL.iter().all(|&c| {
        let (x, y) = (a.field(c).as_slice(), b.field(c).as_slice());
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    })
}

fn subnormal_frac(state: &WaveState) -> f64 {
    let (mut sub, mut all) = (0u64, 0u64);
    for c in Component::ALL {
        let s = state.field(c).as_slice();
        all += s.len() as u64;
        sub += s.iter().filter(|v| v.is_subnormal()).count() as u64;
    }
    ratio(sub as f64, all as f64)
}

fn rel_l2(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = b.iter().map(|y| y * y).sum();
    (num / den.max(1e-30)).sqrt()
}

impl SolverWorkload {
    fn run_serial(&self, cfg: &SolverConfig) -> RankResult {
        Solver::run_serial(cfg.clone(), &self.mesh, &self.source, &self.stations)
    }

    fn new_solver(&self, cfg: &SolverConfig) -> Solver {
        let sub = Decomp3::new(cfg.dims, [1, 1, 1]).subdomain(0);
        Solver::new(cfg.clone(), sub, &self.mesh, &self.source, &self.stations)
    }

    /// `steps` calls of `step_serial`, each in its own span. Returns the
    /// final solver, the per-step seconds and the subnormal share sampled
    /// (outside the spans) closest to the slowest step.
    fn stepped(&self, tr: &mut Tracer, out: &mut Ledger) -> (Solver, Vec<f64>, f64) {
        let cfg = &self.cfg;
        let mut solver = tr.span("solver", "Solver::new", |_| self.new_solver(cfg));
        if let Some(lo) = cfg.opts.lts {
            let plan = tr.span("solver", "LtsPlan::from_mesh", |_| {
                let plan = LtsPlan::from_mesh(&self.mesh, cfg.dt, lo);
                solver.enable_lts(&plan);
                plan
            });
            out.set("solver.lts_clusters", plan.clusters.len() as f64);
            out.set("solver.lts_flop_ratio", plan.theoretical_speedup());
        }
        let mut ledger = TimeLedger::new();
        let mut step_s = Vec::with_capacity(cfg.steps);
        let sample_every = (cfg.steps / 16).max(1);
        let mut samples = Vec::new();
        for step in 0..cfg.steps {
            let ((), s) =
                tr.timed("solver", "Solver::step_serial", |_| solver.step_serial(&mut ledger));
            step_s.push(s);
            if step % sample_every == 0 {
                let frac =
                    tr.span("harness", "subnormal-census", |_| subnormal_frac(&solver.state));
                samples.push((step, frac));
            }
        }
        let slowest =
            (0..step_s.len()).max_by(|&a, &b| step_s[a].total_cmp(&step_s[b])).unwrap_or(0);
        let at_slowest =
            samples.iter().min_by_key(|(s, _)| s.abs_diff(slowest)).map_or(0.0, |&(_, f)| f);
        (solver, step_s, at_slowest)
    }

    /// One global-dt step through the public kernels, each in its own
    /// span — the same calls, in the same order, as `Solver::step_serial`
    /// makes on the SIMD path.
    fn replica_step(solver: &mut Solver, tr: &mut Tracer) {
        let cfg = &solver.cfg;
        let t = solver.step as f64 * cfg.dt;
        let (dt, h) = (cfg.dt, cfg.h as f32);
        let dth = (cfg.dt / cfg.h) as f32;
        let block = cfg.opts.block;
        let on_surface = cfg.free_surface && owns_free_surface(&solver.sub);
        let Solver { state, med, atten, sponge, mpml, injector, recorder, .. } = solver;
        tr.span("solver", "update_velocity_simd", |_| update_velocity_simd(state, med, dth, block));
        if let Some(p) = mpml {
            tr.span("solver", "Mpml::apply_velocity", |_| p.apply_velocity(state, med, dth));
        }
        if on_surface {
            tr.span("solver", "apply_free_surface_velocity", |_| {
                apply_free_surface_velocity(state, med, h)
            });
        }
        tr.span("solver", "update_stress_simd", |_| {
            update_stress_simd(state, med, atten.as_ref(), dth, dt as f32, block)
        });
        if let Some(p) = mpml {
            tr.span("solver", "Mpml::apply_stress", |_| p.apply_stress(state, med, dth));
        }
        tr.span("solver", "SourceInjector::inject", |_| injector.inject(state, t, dt));
        if on_surface {
            tr.span("solver", "apply_free_surface_stress", |_| apply_free_surface_stress(state));
        }
        if let Some(sp) = sponge {
            tr.span("solver", "Sponge::apply", |_| sp.apply(state));
        }
        tr.span("solver", "StationRecorder::record", |_| recorder.record(state));
        solver.step += 1;
    }
}

impl Workload for SolverWorkload {
    fn setup(args: &RunArgs, tr: &mut Tracer, checks: &mut Checks) -> Self {
        let c = case(&args.workload, args.smoke);
        let d = c.dims;
        let mut rng = Rng::new(args.seed);
        let model = if c.basin_lts {
            LayeredModel::basin_over_rock(24.0 * H)
        } else {
            LayeredModel::loh1()
        };
        let mesh = tr.span("cvm", "MeshGenerator::generate", |_| {
            MeshGenerator::new(&model, d, H).generate()
        });
        // Seeded inputs: the hypocentre moves a few cells around the grid
        // centre and the strike turns, the stations scatter over the
        // surface. The work per step does not depend on any of them.
        let jitter = |rng: &mut Rng, n: usize| n / 2 + rng.below(5) - 2;
        // LOH.1's source sits 2 km down; the basin source at plane 8, as
        // in the solver crate's `lts` suite, so its waves reach the
        // surface within the run.
        let depth = if c.basin_lts { 8 } else { d.nz / 3 };
        let hypo = Idx3::new(jitter(&mut rng, d.nx), jitter(&mut rng, d.ny), depth);
        let strike = rng.uniform(0.2, 0.4);
        // LOH.1's 0.1 s Brune pulse; the 600 m/s basin needs a longer one
        // to be resolved at h = 150 m.
        let tau = if c.basin_lts { 1.0 } else { 0.1 };
        let source = tr.span("source", "KinematicSource::point", |_| {
            KinematicSource::point(
                hypo,
                MomentTensor::strike_slip(strike),
                5.0e16,
                Stf::Brune { tau },
                c.dt,
            )
        });
        // Ten surface stations within eight cells of the epicentre, where
        // the short run delivers signal to compare.
        let stations: Vec<Station> = (0..10)
            .map(|i| {
                let x = hypo.i + rng.below(17) - 8;
                let y = hypo.j + rng.below(17) - 8;
                Station::new(format!("st{i}"), Idx3::new(x, y, 0))
            })
            .collect();
        let mut cfg = SolverConfig::small(d, H, c.dt, c.steps);
        cfg.abc = c.abc;
        cfg.attenuation = true;
        cfg.opts = if c.basin_lts { SolverOpts::optimized_lts() } else { SolverOpts::optimized() };

        let reference = tr.span("solver", "Solver::run_serial", |_| {
            Solver::run_serial(cfg.clone(), &mesh, &source, &stations)
        });
        let reference_md5 = seismogram_md5(&reference.seismograms);
        check_result(&reference, &reference_md5, checks);
        SolverWorkload { cfg, mesh, source, stations, reference_md5, reference }
    }

    fn rep(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        let (r, wall) = tr.timed("solver", "Solver::run_serial", |_| self.run_serial(&self.cfg));
        tr.span("harness", "check", |_| check_result(&r, &self.reference_md5, checks));
        wall
    }

    fn layers(&mut self, tr: &mut Tracer, checks: &mut Checks, out: &mut Ledger) {
        let cfg = self.cfg.clone();
        let cells = cfg.dims.count() as f64;
        let steps = cfg.steps as f64;
        let run_s = median(&tr.durations_s("Solver::run_serial")[1..]);
        out.set("solver.mcells_per_s", ratio(cells * steps / 1e6, run_s));
        out.set("cvm.mesh_generate_s", tr.total_s("MeshGenerator::generate"));
        out.set(
            "cvm.mesh_generate_mcells_per_s",
            ratio(cells / 1e6, tr.total_s("MeshGenerator::generate")),
        );
        out.set("source.prepare_s", tr.total_s("KinematicSource::point"));

        // The configured path, one span per step.
        let (stepped, step_s, subnormal) = self.stepped(tr, out);
        let step_ms: Vec<f64> = step_s.iter().map(|s| s * 1e3).collect();
        out.set("solver.step_ms_p50", median(&step_ms));
        out.set("solver.step_ms_fast_decile", decile_mean(&step_ms, true));
        out.set("solver.step_ms_slow_decile", decile_mean(&step_ms, false));
        out.set(
            "solver.step_drift_ratio",
            ratio(decile_mean(&step_ms, false), decile_mean(&step_ms, true)),
        );
        out.set("solver.subnormal_frac", subnormal);
        let construct_s = tr.total_s("Solver::new");
        out.set("solver.construct_s", construct_s);
        out.set("solver.lts_plan_s", tr.total_s("LtsPlan::from_mesh"));
        out.set(
            "solver.unattributed_s",
            run_s - construct_s - tr.total_s("LtsPlan::from_mesh") - step_s.iter().sum::<f64>(),
        );
        let stepped_md5 = seismogram_md5(&stepped.recorder.clone().into_seismograms());
        checks.check(stepped_md5 == self.reference_md5, || {
            "stepping through step_serial must reproduce run_serial's seismograms".into()
        });

        // The scalar backend must agree bit for bit with the SIMD one.
        let mut scalar_cfg = cfg.clone();
        scalar_cfg.opts.simd = false;
        let scalar =
            tr.span("solver", "Solver::run_serial[simd:false]", |_| self.run_serial(&scalar_cfg));
        checks.check(bit_identical(&scalar, &self.reference), || {
            "the simd:false backend must be bit-identical to the SIMD run".into()
        });

        // Global-dt reference: the LTS case's accuracy partner and speed-up
        // base; for the LOH.1 cases it is the configured run itself.
        let mut global_cfg = cfg.clone();
        global_cfg.opts.lts = None;
        let global_stepped = if cfg.opts.lts.is_some() {
            let (global, global_s) = tr
                .timed("solver", "Solver::run_serial[global-dt]", |_| self.run_serial(&global_cfg));
            let speedup = ratio(global_s, run_s);
            out.set("solver.lts_speedup_vs_global", speedup);
            out.set(
                "solver.lts_unexplained_ratio",
                ratio(speedup, out.get("solver.lts_flop_ratio").unwrap_or(0.0)),
            );
            // Whole-trace misfit per station: all three components at once,
            // so a component the radiation pattern leaves near zero does
            // not turn round-off into a relative error.
            for (l, g) in self.reference.seismograms.iter().zip(&global.seismograms) {
                let cat = |s: &Seismogram| [&s.vx[..], &s.vy[..], &s.vz[..]].concat();
                let e = rel_l2(&cat(l), &cat(g));
                checks.check(e < LTS_REL_L2_MAX, || {
                    format!("{}: LTS misfit vs global dt {e:.3}", l.station.name)
                });
            }
            // The replica below must match a global-dt stepped run.
            let mut s = self.new_solver(&global_cfg);
            let mut ledger = TimeLedger::new();
            tr.span("solver", "step_serial loop[global-dt]", |_| {
                for _ in 0..global_cfg.steps {
                    s.step_serial(&mut ledger);
                }
            });
            s
        } else {
            stepped
        };

        // Replica loop: the same step through the public kernels.
        let mut replica = self.new_solver(&global_cfg);
        tr.span("harness", "replica-loop", |tr| {
            for _ in 0..global_cfg.steps {
                Self::replica_step(&mut replica, tr);
            }
        });
        checks.check(states_identical(&replica.state, &global_stepped.state), || {
            "the replica loop must end bit-identical to step_serial".into()
        });
        let per_step_ms =
            |names: &[&str]| names.iter().map(|n| tr.total_s(n)).sum::<f64>() * 1e3 / steps;
        out.set("solver.velocity_ms_per_step", per_step_ms(&["update_velocity_simd"]));
        out.set("solver.stress_ms_per_step", per_step_ms(&["update_stress_simd"]));
        out.set(
            "solver.mpml_ms_per_step",
            per_step_ms(&["Mpml::apply_velocity", "Mpml::apply_stress"]),
        );
        out.set("solver.sponge_ms_per_step", per_step_ms(&["Sponge::apply"]));
        out.set(
            "solver.free_surface_ms_per_step",
            per_step_ms(&["apply_free_surface_velocity", "apply_free_surface_stress"]),
        );
        out.set("solver.source_ms_per_step", per_step_ms(&["SourceInjector::inject"]));
        out.set("solver.record_ms_per_step", per_step_ms(&["StationRecorder::record"]));

        // Counts that repeat exactly, and the rates derived from them.
        // Bytes are *computed* from the arrays each kernel touches (4 B per
        // array read, 8 B per array updated in place), not measured:
        //   velocity: 6 stresses + 3 reciprocal densities read, 3 velocities updated
        //   stress:   3 velocities + λ, μ, μxy, μxz, μyz read, 6 stresses updated
        //   anelastic: decay, cs, cp read, 6 memory variables updated
        let flops = per_point(cfg.attenuation) as f64;
        let bytes = ((6 + 3) * 4 + 3 * 8) as f64
            + ((3 + 5) * 4 + 6 * 8) as f64
            + if cfg.attenuation { (3 * 4 + 6 * 8) as f64 } else { 0.0 };
        let kernel_s = tr.total_s("update_velocity_simd") + tr.total_s("update_stress_simd");
        let gflops = ratio(cells * steps * flops / 1e9, kernel_s);
        out.set("solver.flops_per_cell_step", flops);
        out.set("solver.computed_bytes_per_cell", bytes);
        out.set("solver.gflops", gflops);
        out.set("solver.computed_gbs", ratio(cells * steps * bytes / 1e9, kernel_s));
        out.set("solver.flops_per_byte", flops / bytes);

        // Host roofline, measured in this same run.
        out.set("host.nproc", host::nproc() as f64);
        out.set("host.llc_bytes", host::llc_bytes() as f64);
        let fma = tr.span("host", "fma-probe", |_| host::fma_gflops());
        out.set("host.fma_gflops", fma);
        if let Some((gbs, array_bytes)) = tr.span("host", "triad-probe", |_| host::triad_gbs()) {
            out.set("host.triad_gbs", gbs);
            out.set("host.triad_array_bytes", array_bytes as f64);
            out.set("solver.roofline_frac", ratio(gflops, fma.min(gbs * flops / bytes)));
        }
    }
}
