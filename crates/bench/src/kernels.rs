//! Rows OVL and LTS: the §IV.B kernel rates, the halo exchange and its
//! allocation ledger, the telemetry cost and the local-time-stepping
//! speedup, timed on this host. Their records, `results/ovl.json` and
//! `results/lts.json`, are the repo's performance trajectory: `data.values`
//! keeps a fixed schema.

use crate::repro::{alternate, col, num, Check, Ctx, Row};
use crate::section;
use awp_cvm::mesh::MeshGenerator;
use awp_cvm::model::LayeredModel;
use awp_grid::blocking::BlockSpec;
use awp_grid::decomp::Decomp3;
use awp_grid::dims::{Dims3, Idx3};
use awp_grid::face::Axis;
use awp_grid::stagger::Component;
use awp_solver::arena::HaloArena;
use awp_solver::exchange::{exchange, full_plan, plan_volume, reduced_stress_plan};
use awp_solver::exchange::{reduced_velocity_plan, FieldPlan, Phase};
use awp_solver::flops::per_point;
use awp_solver::kernels::{update_stress, update_velocity};
use awp_solver::medium::Medium;
use awp_solver::simd::{detect, update_stress_simd, update_velocity_simd};
use awp_solver::solver::{partition_mesh_direct, Solver};
use awp_solver::state::WaveState;
use awp_solver::telemetry::Registry;
use awp_solver::{LtsOpts, LtsPlan, SolvePlan, SolverConfig, SolverOpts};
use awp_source::kinematic::KinematicSource;
use awp_source::moment::MomentTensor;
use awp_source::stf::Stf;
use awp_vcluster::{Cluster, CommMode};
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

pub const OVL: Row = Row {
    id: "OVL",
    record: "ovl",
    claim: "§IV.A/§IV.B: the single-CPU loop and cache-blocking optimisations speed up the \
            kernels, and the asynchronous halo exchange runs without allocating",
    run: ovl,
    checks: &[
        Check::model(
            "the steady-state halo exchange is allocation-free: the arena allocation delta is 0 \
             on the full and the reduced plan",
            |v| col(v, "exchange", "arena_allocs_delta") == [0.0, 0.0],
        ),
        Check::run("SIMD/scalar ≥ 1.0 on the blocked config, or the backend is scalar", |v| {
            v["backend"].as_str() == Some("scalar") || num(&v["gate"], "simd_over_scalar") >= 1.0
        }),
        Check::run(
            "telemetry on ≤ 1.10× the disabled wall (1.5 below two cores), medians of 3 \
             alternating repetitions",
            |v| {
                let g = &v["gate"];
                num(g, "telemetry_over_disabled_wall") <= num(g, "telemetry_tolerance")
            },
        ),
    ],
};

pub const LTS: Row = Row {
    id: "LTS",
    record: "lts",
    claim: "§IV motivation: where soft basins set the global CFL dt, every step over-steps the \
            stiff rock; local time stepping (Breuer & Heinecke's rate-2ᵏ clusters) updates each \
            depth cluster at its own rate",
    run: |ctx| ctx.lts().clone(),
    checks: &[
        Check::model("the basin-over-rock plan is multi-rate: more than one cluster", |v| {
            col(v, "clusters", "rate").len() > 1
        }),
        Check::run("LTS is ≥ 1.5× faster than global-dt stepping (best of 3)", |v| {
            num(v, "measured_speedup") >= num(&v["gate"], "threshold")
        }),
    ],
};

/// Telemetry's bound on its wall over the disabled run's.
const TELEMETRY_BOUND: f64 = 1.10;

/// A paired wall ratio's bound on `cores`: `bound` on two or more. Below two
/// the rank threads are timesliced and 1.5 only catches a broken probe.
fn wall_bound(cores: f64, bound: f64) -> f64 {
    if cores >= 2.0 {
        bound
    } else {
        1.5
    }
}

/// LTS's bound on its speedup over global-dt stepping, at full size.
const LTS_THRESHOLD: f64 = 1.5;

fn ovl(ctx: &Ctx) -> Value {
    let backend = detect();
    section(&format!("§IV.B kernel rates, velocity + stress sweeps, backend {}", backend.name()));
    let (kd, iters, reps) =
        ctx.pick((Dims3::new(32, 32, 16), 2, 1), (Dims3::new(128, 96, 64), 8, 3));
    let mut kernels = Vec::new();
    for (name, simd) in [("scalar", false), (backend.name(), true)] {
        for (block_name, block) in
            [("unblocked", BlockSpec::UNBLOCKED), ("jaguar", BlockSpec::JAGUAR)]
        {
            let secs = time_kernels(kd, simd, block, iters, reps);
            let gflops = (kd.count() as u64 * per_point(false) * iters as u64) as f64 / secs / 1e9;
            println!("  {name:<8} {block_name:<10} {gflops:>7.2} GFLOP/s");
            kernels.push(json!({
                "backend": name, "simd": simd, "block": block_name,
                "dims": [kd.nx, kd.ny, kd.nz], "iters": iters, "secs": secs, "gflops": gflops,
            }));
        }
    }
    // Blocked configs, the order the solver's blocked versions run.
    let simd_over_scalar = num(&kernels[3], "gflops") / num(&kernels[1], "gflops");

    section("§IV.A halo exchange on 4 ranks, arena allocations after warm-up");
    let (xd, steps) = ctx.pick((Dims3::new(32, 32, 16), 8u64), (Dims3::new(64, 64, 32), 20));
    let reduced = [reduced_velocity_plan(), reduced_stress_plan()].concat();
    let mut exchanges = Vec::new();
    for (plan, fields) in [("full", full_plan(&Component::ALL)), ("reduced", reduced)] {
        let (secs, bytes_per_step, allocs) = time_exchange(xd, &fields, steps);
        let rate = bytes_per_step as f64 * steps as f64 / secs / 1e9;
        println!("  {plan:<8} {bytes_per_step:>8} B/step {rate:>7.3} GB/s {allocs:>3} allocations");
        exchanges.push(json!({
            "plan": plan, "ranks": 4, "dims": [xd.nx, xd.ny, xd.nz], "steps": steps,
            "secs": secs, "bytes_per_step": bytes_per_step, "gbytes_per_sec": rate,
            "arena_allocs_delta": allocs,
        }));
    }

    section("4-rank solve: telemetry on vs off");
    let (od, osteps) = ctx.pick((Dims3::new(32, 32, 16), 6), (Dims3::new(72, 64, 48), 30));
    let solve = solve(od, osteps);
    // One untimed solve of each kind first: a process's first solves pay
    // for fresh pages, which is not the cost of telemetry.
    solve(true);
    solve(false);
    let tel = alternate(2, |i| solve(i == 0), |&w| w);
    let telemetry_ratio = tel[0] / tel[1];
    let (on_ms, off_ms) = (tel[0] * 1e3, tel[1] * 1e3);
    println!("  telemetry on/off {telemetry_ratio:.2}× ({on_ms:.2} ms on, {off_ms:.2} ms off)");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let lts_ok = ctx.lts()["gate"]["passed"].as_bool() == Some(true);
    println!("  SIMD/scalar (blocked) {simd_over_scalar:.2}×");
    let v = json!({
        "backend": backend.name(),
        "mode": ctx.pick("smoke", "full"),
        "kernels": kernels,
        "exchange": exchanges,
        "gate": {
            "simd_over_scalar": simd_over_scalar,
            "cores": cores,
            "telemetry_over_disabled_wall": telemetry_ratio,
            "telemetry_tolerance": wall_bound(cores, TELEMETRY_BOUND),
            "lts_speedup": num(ctx.lts(), "measured_speedup"),
            "lts_threshold": LTS_THRESHOLD,
            "lts_fast_enough": lts_ok,
        },
    });
    let keys = ["steady_state_alloc_free", "simd_not_slower", "telemetry_cheap_enough"];
    gate(v, &OVL, &keys, lts_ok)
}

/// `v` with `row`'s checks judged into its `gate` block, check `i` under
/// `keys[i]` and `passed` if all held and `also`: the artifact's verdicts are
/// the checks', so the two cannot disagree.
fn gate(mut v: Value, row: &Row, keys: &[&str], also: bool) -> Value {
    let held: Vec<bool> = row.checks.iter().map(|c| (c.holds)(&v)).collect();
    let Value::Object(top) = &mut v else { unreachable!("a row's values are an object") };
    let Some(Value::Object(gate)) = top.get_mut("gate") else { unreachable!("no gate block") };
    gate.extend(keys.iter().zip(&held).map(|(k, &h)| (k.to_string(), Value::Bool(h))));
    gate.insert("passed".into(), Value::Bool(also && !held.contains(&false)));
    v
}

/// Seconds for `iters` velocity + stress sweeps over a LOH.1 block whose
/// wavefields are seeded by a xorshift stream (no sweep runs over zeros),
/// best of `reps`, each after one untimed sweep.
fn time_kernels(d: Dims3, simd: bool, block: BlockSpec, iters: usize, reps: usize) -> f64 {
    let mut med =
        Medium::from_mesh(&MeshGenerator::new(&LayeredModel::loh1(), d, 150.0).generate());
    med.precompute();
    let mut st = WaveState::new(d, false);
    let mut x = 0x9e3779b97f4a7c15u64;
    for c in Component::ALL {
        for v in st.field_mut(c).as_mut_slice() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = ((x % 2000) as f32 / 1000.0 - 1.0) * 1e3;
        }
    }
    let (dth, dt) = (1e-4f32, 1e-2f32);
    let sweep = |st: &mut WaveState| {
        if simd {
            update_velocity_simd(st, &med, dth, block);
            update_stress_simd(st, &med, None, dth, dt, block);
        } else {
            update_velocity(st, &med, dth, block, true);
            update_stress(st, &med, None, dth, dt, block, true);
        }
    };
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        sweep(&mut st);
        let t0 = Instant::now();
        (0..iters).for_each(|_| sweep(&mut st));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    black_box(st.vx.as_slice()[st.vx.as_slice().len() / 2]);
    best
}

/// `steps` exchanges of `plan` on [2, 2, 1] ranks after 3 warm-up steps:
/// the slowest rank's seconds, the bytes all ranks send per step, and the
/// arena allocations during the timed steps.
fn time_exchange(global: Dims3, plan: &[FieldPlan], steps: u64) -> (f64, u64, u64) {
    let decomp = Decomp3::new(global, [2, 2, 1]);
    let warmup = 3u64;
    let out = Cluster::new(4, CommMode::Asynchronous).run(|ctx| {
        let sub = decomp.subdomain(ctx.rank());
        let mut st = WaveState::new(sub.dims, false);
        let mut arena = HaloArena::new();
        for step in 0..warmup {
            exchange(&mut st, &sub, ctx, plan, Phase::Velocity, step, &mut arena);
        }
        ctx.barrier();
        let warm = arena.allocations();
        let t0 = Instant::now();
        for step in warmup..warmup + steps {
            exchange(&mut st, &sub, ctx, plan, Phase::Velocity, step, &mut arena);
        }
        (t0.elapsed().as_secs_f64(), arena.allocations() - warm)
    });
    // Every rank has one x and one y neighbour and none in z, so the ranks
    // send each x/y entry's volume twice over, in f32.
    let xy: Vec<FieldPlan> = plan.iter().filter(|p| p.axis != Axis::Z).copied().collect();
    let bytes = 2 * 4 * plan_volume(&xy, decomp.subdomain(0).dims) as u64;
    (out.iter().map(|r| r.0).fold(0.0, f64::max), bytes, out.iter().map(|r| r.1).sum())
}

/// Wall seconds of a LOH.1 box solved on [2, 2, 1] ranks, with or without
/// telemetry.
fn solve(global: Dims3, steps: usize) -> impl Fn(bool) -> f64 {
    let (h, dt) = (150.0, 0.009);
    let decomp = Decomp3::new(global, [2, 2, 1]);
    let mesh = MeshGenerator::new(&LayeredModel::loh1(), global, h).generate();
    let meshes = partition_mesh_direct(&mesh, &decomp);
    let source = KinematicSource::point(
        Idx3::new(global.nx / 2, global.ny / 2, global.nz / 2),
        MomentTensor::strike_slip(0.3),
        5.0e16,
        Stf::Brune { tau: 0.1 },
        dt,
    );
    let cfg = SolverConfig::small(global, h, dt, steps);
    move |telemetry| {
        let registry = telemetry.then(|| Registry::new(4));
        let t0 = Instant::now();
        let plan =
            SolvePlan::new(&cfg, decomp, &meshes, &source, &[]).expect("valid telemetry workload");
        let mut cluster = plan.cluster();
        if let Some(registry) = registry {
            cluster = cluster.with_telemetry(registry);
        }
        for rank in plan.run(&cluster, &meshes) {
            rank.expect("telemetry workload rank");
        }
        t0.elapsed().as_secs_f64()
    }
}

/// Global-dt against LTS stepping, serial, optimised opts, best of 3
/// alternating repetitions (1 at smoke size), on the basin-over-rock medium:
/// the soft basin earns rate-4/2 clusters while the rock floor pins the base
/// dt. The census bounds the speedup; the measured one carries the
/// interfaces' overhead.
pub(crate) fn time_lts(ctx: &Ctx) -> Value {
    let (d, steps, reps) =
        ctx.pick((Dims3::new(24, 20, 32), 8, 1), (Dims3::new(64, 64, 32), 80, 3));
    // Near the rock CFL bound 6h/(7√3·6000): the basin's headroom becomes
    // octaves instead of a smaller global dt.
    let (h, dt) = (150.0, 0.012);
    let mesh = MeshGenerator::new(&LayeredModel::basin_over_rock(24.0 * h), d, h).generate();
    let source = KinematicSource::point(
        Idx3::new(d.nx / 2, d.ny / 2, 8),
        MomentTensor::strike_slip(0.3),
        5.0e16,
        Stf::Brune { tau: 0.25 },
        dt,
    );
    let plan = LtsPlan::from_mesh(&mesh, dt, LtsOpts::new());
    let mut best = [(f64::INFINITY, 0); 2];
    for _ in 0..reps {
        for (lts, best) in best.iter_mut().enumerate() {
            let mut cfg = SolverConfig::small(d, h, dt, steps);
            cfg.opts = SolverOpts { lts: (lts == 1).then(LtsOpts::new), ..SolverOpts::optimized() };
            let t0 = Instant::now();
            let report = Solver::run_serial(cfg, &mesh, &source, &[]);
            *best = (best.0.min(t0.elapsed().as_secs_f64()), black_box(report).flops);
        }
    }
    let [(g_secs, g_flops), (l_secs, l_flops)] = best;
    let (speedup, rates) = (g_secs / l_secs, plan.clusters.iter().map(|c| c.rate));
    section("local time stepping vs global dt, serial, basin over rock");
    let (g_ms, l_ms) = (g_secs * 1e3, l_secs * 1e3);
    println!("  global dt {g_ms:.2} ms, LTS {l_ms:.2} ms on rates {:?}", rates.collect::<Vec<_>>());
    println!("  speedup {speedup:.2}× measured, {:.2}× census", plan.theoretical_speedup());
    let clusters: Vec<Value> =
        plan.clusters.iter().map(|c| json!({"k0": c.k0, "k1": c.k1, "rate": c.rate})).collect();
    let v = json!({
        "mode": ctx.pick("smoke", "full"),
        "backend": detect().name(),
        "dims": [d.nx, d.ny, d.nz],
        "h": h,
        "dt": dt,
        "steps": steps,
        "medium": "basin_over_rock",
        "clusters": clusters,
        "global_wall_secs": g_secs,
        "lts_wall_secs": l_secs,
        "global_flops": g_flops,
        "lts_flops": l_flops,
        "flop_ratio": g_flops as f64 / l_flops as f64,
        "measured_speedup": speedup,
        "theoretical_speedup": plan.theoretical_speedup(),
        "gate": { "threshold": LTS_THRESHOLD },
    });
    gate(v, &LTS, &[], true)
}
