//! Kernel-throughput and halo-bandwidth regression bench.
//!
//! Measures the hot path along both axes the repo optimises:
//!
//! * **kernels** — velocity+stress GFLOPS for scalar vs explicit-SIMD
//!   backends × unblocked vs JAGUAR cache blocking (flop counts from
//!   `awp_solver::flops`);
//! * **exchange** — halo bytes/sec over 4 virtual ranks for the full vs
//!   reduced (§IV.A) plans, plus the staging-arena allocation ledger
//!   across steady-state steps;
//! * **overlap** — full 4-rank solver steps with the k-slab pipeline
//!   (§IV.C) on vs off, with a per-phase breakdown (compute / send /
//!   wait / inject) read from the telemetry subsystem's phase totals (the
//!   same numbers `awp --profile` reports) and the hidden-communication
//!   fraction (how much of the non-overlap wait the pipeline hid behind
//!   later slabs' compute);
//! * **telemetry overhead** — the overlap config with telemetry off vs
//!   on, bounding the cost of leaving the probes compiled in;
//! * **scheduler** — work-stealing tile scheduler on vs off on a
//!   deliberately skewed 2-rank decomposition (rank 0 owns ~75% of the
//!   x-columns), reporting walls, compute imbalance ratios, and tiles
//!   stolen; writes `BENCH_sched.json` in full mode.
//!
//! Flags: `--smoke` shrinks dims/iterations for CI; `--gate` exits
//! nonzero when SIMD is slower than scalar on the blocked config, the
//! steady-state exchange touched the heap, the overlap run is slower
//! than the plain run, or enabling telemetry costs more than the
//! hardware-aware tolerance. Writes `BENCH_kernels.json` in the working
//! directory (full matrix, SIMD backend named) and
//! `results/bench_kernels_baseline.json` (the scalar subset plus the
//! overlap rows).

use std::hint::black_box;
use std::time::Instant;

use awp_bench::section;
use awp_cvm::mesh::MeshGenerator;
use awp_cvm::model::LayeredModel;
use awp_grid::blocking::BlockSpec;
use awp_grid::decomp::Decomp3;
use awp_grid::dims::{Dims3, Idx3};
use awp_grid::face::{face_len, Axis, Face};
use awp_grid::stagger::Component;
use awp_solver::arena::HaloArena;
use awp_solver::exchange::{
    exchange, full_plan, reduced_stress_plan, reduced_velocity_plan, FieldPlan, Phase,
};
use awp_solver::flops::per_point;
use awp_solver::kernels::{update_stress, update_velocity};
use awp_solver::medium::Medium;
use awp_solver::simd::{detect, update_stress_simd, update_velocity_simd, SimdBackend};
use awp_solver::solver::{partition_mesh_direct, try_run_parallel_decomp, Solver};
use awp_solver::state::WaveState;
use awp_solver::telemetry::{Counter as TelCounter, Phase as TelPhase, Registry};
use awp_solver::{LtsOpts, LtsPlan, SchedOpts, SolverConfig};
use awp_source::kinematic::KinematicSource;
use awp_source::moment::MomentTensor;
use awp_source::stf::Stf;
use awp_vcluster::{Category, Cluster, CommMode};
use serde_json::json;

struct Opts {
    smoke: bool,
    gate: bool,
}

fn setup(d: Dims3) -> (Medium, WaveState) {
    let model = LayeredModel::loh1();
    let mesh = MeshGenerator::new(&model, d, 150.0).generate();
    let mut med = Medium::from_mesh(&mesh);
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
    (med, st)
}

/// Time `iters` full leapfrog kernel sweeps; best of `reps` runs.
fn time_kernels(
    d: Dims3,
    simd: bool,
    block: BlockSpec,
    iters: usize,
    reps: usize,
) -> (f64, f64) {
    let (med, mut st) = setup(d);
    let (dth, dt) = (1e-4f32, 1e-2f32);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        // One untimed sweep warms caches and the branch predictor.
        step_once(&mut st, &med, simd, block, dth, dt);
        let t0 = Instant::now();
        for _ in 0..iters {
            step_once(&mut st, &med, simd, block, dth, dt);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    black_box(st.vx.as_slice()[st.vx.as_slice().len() / 2]);
    let flops = (d.count() as u64 * per_point(false) * iters as u64) as f64;
    (best, flops / best / 1e9)
}

fn step_once(st: &mut WaveState, med: &Medium, simd: bool, block: BlockSpec, dth: f32, dt: f32) {
    if simd {
        update_velocity_simd(st, med, dth, block);
        update_stress_simd(st, med, None, dth, dt, block);
    } else {
        update_velocity(st, med, dth, block, true);
        update_stress(st, med, None, dth, dt, block, true);
    }
}

/// Run `steps` exchanges on 4 ranks; returns (secs, bytes moved per step,
/// total arena allocations after warmup minus at warmup).
fn time_exchange(global: Dims3, plan: &[FieldPlan], steps: u64) -> (f64, u64, u64) {
    let decomp = Decomp3::new(global, [2, 2, 1]);
    let cluster = Cluster::new(4, CommMode::Asynchronous);
    let warmup = 3u64;
    let out = cluster.run(|ctx| {
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
        let secs = t0.elapsed().as_secs_f64();
        // Bytes this rank sent in one step (each message is counted once
        // cluster-wide at its sender).
        let mut sent = 0u64;
        for p in plan {
            let field = st.field(p.comp);
            let (f_lo, f_hi) = match p.axis {
                Axis::X => (Face::XLo, Face::XHi),
                Axis::Y => (Face::YLo, Face::YHi),
                Axis::Z => (Face::ZLo, Face::ZHi),
            };
            if sub.neighbor(f_lo).is_some() {
                sent += 4 * face_len(field, f_lo, p.recv_hi) as u64;
            }
            if sub.neighbor(f_hi).is_some() {
                sent += 4 * face_len(field, f_hi, p.recv_lo) as u64;
            }
        }
        (secs, sent, arena.allocations() - warm)
    });
    let secs = out.iter().map(|r| r.0).fold(0.0f64, f64::max);
    let bytes_per_step: u64 = out.iter().map(|r| r.1).sum();
    let alloc_delta: u64 = out.iter().map(|r| r.2).sum();
    (secs, bytes_per_step, alloc_delta)
}

/// Cluster-wide send/wait/inject nanoseconds for one run, summed from the
/// per-rank telemetry phase totals — the same numbers `awp --profile`
/// reports, so the bench and the profiler cannot drift apart.
#[derive(Debug, Clone, Copy, Default)]
struct CommNs {
    send_ns: u64,
    wait_ns: u64,
    inject_ns: u64,
}

/// Run the full 4-rank SIMD solver with the overlap pipeline on or
/// off; best-of-`reps` wall time plus, for the best rep, the max per-rank
/// compute seconds and the summed per-phase comm telemetry. With
/// `telemetry` off the comm breakdown is zero (that variant exists to
/// price the probes themselves).
fn time_overlap(
    global: Dims3,
    overlap: bool,
    steps: usize,
    reps: usize,
    telemetry: bool,
) -> (f64, f64, CommNs) {
    let model = LayeredModel::loh1();
    let h = 150.0;
    let dt = 0.009;
    let mesh = MeshGenerator::new(&model, global, h).generate();
    let parts = [2, 2, 1];
    let decomp = Decomp3::new(global, parts);
    let meshes = partition_mesh_direct(&mesh, &decomp);
    let src = KinematicSource::point(
        Idx3::new(global.nx / 2, global.ny / 2, global.nz / 2),
        MomentTensor::strike_slip(0.3),
        5.0e16,
        Stf::Brune { tau: 0.1 },
        dt,
    );
    let mut cfg = SolverConfig::small(global, h, dt, steps);
    cfg.opts.overlap = overlap;
    let mut best = f64::INFINITY;
    let mut comp = 0.0f64;
    let mut comm = CommNs::default();
    for _ in 0..reps {
        let registry = telemetry.then(|| Registry::new(4));
        let t0 = Instant::now();
        let results = try_run_parallel_decomp(&cfg, decomp, &meshes, &src, &[], registry, None)
            .expect("valid overlap workload");
        let wall = t0.elapsed().as_secs_f64();
        black_box(&results);
        if wall < best {
            best = wall;
            comp = results
                .iter()
                .map(|r| r.ledger.seconds(Category::Comp))
                .fold(0.0f64, f64::max);
            comm = CommNs::default();
            for r in &results {
                comm.send_ns += r.telemetry.phase_ns(TelPhase::Send);
                comm.wait_ns += r.telemetry.phase_ns(TelPhase::Wait);
                comm.inject_ns += r.telemetry.phase_ns(TelPhase::Inject);
            }
        }
    }
    (best, comp, comm)
}

/// LTS vs global-dt wall clock: serial solver on the basin-over-rock
/// medium (the soft basin earns rate-4/2 dt-clusters while the rock floor
/// pins the base dt), optimized opts, best-of-`reps` per variant. Returns
/// (global secs, lts secs, global flops, lts flops, plan).
fn time_lts(d: Dims3, steps: usize, reps: usize) -> (f64, f64, u64, u64, LtsPlan) {
    let h = 150.0;
    // Near the rock CFL bound 6h/(7√3·6000): the basin's headroom becomes
    // octaves instead of a smaller global dt.
    let dt = 0.012;
    let mesh = MeshGenerator::new(&LayeredModel::basin_over_rock(24.0 * h), d, h).generate();
    let src = KinematicSource::point(
        Idx3::new(d.nx / 2, d.ny / 2, 8),
        MomentTensor::strike_slip(0.3),
        5.0e16,
        Stf::Brune { tau: 0.25 },
        dt,
    );
    let plan = LtsPlan::from_mesh(&mesh, dt, LtsOpts::new());
    let mut cfg = SolverConfig::small(d, h, dt, steps);
    cfg.opts = awp_solver::config::SolverOpts::optimized();
    let run = |lts: bool| {
        let mut cfg = cfg.clone();
        cfg.opts.lts = lts.then(LtsOpts::new);
        let mut best = f64::INFINITY;
        let mut flops = 0u64;
        for _ in 0..reps {
            let t0 = Instant::now();
            let rep = Solver::run_serial(cfg.clone(), &mesh, &src, &[]);
            best = best.min(t0.elapsed().as_secs_f64());
            flops = rep.flops;
            black_box(&rep);
        }
        (best, flops)
    };
    let (g_secs, g_flops) = run(false);
    let (l_secs, l_flops) = run(true);
    (g_secs, l_secs, g_flops, l_flops, plan)
}

/// Work-stealing tile scheduler on a deliberately skewed decomposition: a
/// [2,1,1] x-split where part 0 owns ~75% of the columns. Without
/// stealing the light rank idles at the halo fence while the heavy rank
/// grinds; with the scheduler armed the light rank executes the heavy
/// rank's surplus interior tiles instead. Returns, per variant picked at
/// its best-of-`reps` wall, (wall secs, compute imbalance max/mean from
/// the Eq. 7 ledger, tiles stolen).
fn time_sched(global: Dims3, steps: usize, reps: usize) -> ((f64, f64, u64), (f64, f64, u64)) {
    let model = LayeredModel::loh1();
    let h = 150.0;
    let dt = 0.009;
    let mesh = MeshGenerator::new(&model, global, h).generate();
    let decomp = Decomp3::new(global, [2, 1, 1]).with_skew(0, global.nx / 4);
    let meshes = partition_mesh_direct(&mesh, &decomp);
    let src = KinematicSource::point(
        Idx3::new(global.nx / 2, global.ny / 2, global.nz / 2),
        MomentTensor::strike_slip(0.3),
        5.0e16,
        Stf::Brune { tau: 0.1 },
        dt,
    );
    let cfg_off = SolverConfig::small(global, h, dt, steps);
    let mut cfg_on = cfg_off.clone();
    cfg_on.opts.sched = Some(SchedOpts::new());
    let run_once = |cfg: &SolverConfig| -> (f64, f64, u64) {
        let reg = Registry::new(2);
        let t0 = Instant::now();
        let results = try_run_parallel_decomp(cfg, decomp, &meshes, &src, &[], Some(reg), None)
            .expect("sched bench config is valid");
        let wall = t0.elapsed().as_secs_f64();
        black_box(&results);
        let comp: Vec<f64> =
            results.iter().map(|r| r.ledger.seconds(Category::Comp)).collect();
        let mean = comp.iter().sum::<f64>() / comp.len().max(1) as f64;
        let max = comp.iter().fold(0.0f64, |a, &b| a.max(b));
        let imbalance = if mean > 0.0 { max / mean } else { 0.0 };
        let steals: u64 =
            results.iter().map(|r| r.telemetry.counter(TelCounter::TilesStolen)).sum();
        (wall, imbalance, steals)
    };
    // Interleave off/on reps so scheduler drift hits both variants equally.
    let mut off = (f64::INFINITY, 0.0, 0);
    let mut on = (f64::INFINITY, 0.0, 0);
    for _ in 0..reps {
        let o = run_once(&cfg_off);
        if o.0 < off.0 {
            off = o;
        }
        let s = run_once(&cfg_on);
        if s.0 < on.0 {
            on = s;
        }
    }
    (off, on)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = Opts {
        smoke: args.iter().any(|a| a == "--smoke"),
        gate: args.iter().any(|a| a == "--gate"),
    };
    let mode = if opts.smoke { "smoke" } else { "full" };
    let backend = detect();
    section(&format!(
        "kernel/exchange throughput — backend {}, {mode} mode",
        backend.name()
    ));

    let (kd, iters, reps) = if opts.smoke {
        (Dims3::new(48, 40, 32), 3, 2)
    } else {
        (Dims3::new(128, 96, 64), 8, 3)
    };
    let mut kernels = Vec::new();
    println!("{:<10} {:<10} {:>12} {:>10}", "backend", "block", "time/iter", "GFLOPS");
    for (bname, simd) in [("scalar", false), (backend.name(), true)] {
        for (blname, block) in [("unblocked", BlockSpec::UNBLOCKED), ("jaguar", BlockSpec::JAGUAR)] {
            let (secs, gflops) = time_kernels(kd, simd, block, iters, reps);
            println!(
                "{:<10} {:<10} {:>9.3} ms {:>10.2}",
                bname,
                blname,
                secs / iters as f64 * 1e3,
                gflops
            );
            kernels.push(json!({
                "backend": bname, "simd": simd, "block": blname,
                "dims": [kd.nx, kd.ny, kd.nz], "iters": iters,
                "secs": secs, "gflops": gflops,
            }));
        }
    }

    let (xd, steps) = if opts.smoke {
        (Dims3::new(32, 32, 16), 8u64)
    } else {
        (Dims3::new(64, 64, 32), 20u64)
    };
    let mut exchanges = Vec::new();
    let mut alloc_delta_total = 0u64;
    println!("\n{:<14} {:>12} {:>12} {:>12}", "plan", "step bytes", "GB/s", "allocs Δ");
    for (pname, plan) in [
        ("full", full_plan(&Component::ALL)),
        ("reduced", {
            let mut p = reduced_velocity_plan();
            p.extend(reduced_stress_plan());
            p
        }),
    ] {
        let (secs, bytes_per_step, alloc_delta) = time_exchange(xd, &plan, steps);
        let rate = bytes_per_step as f64 * steps as f64 / secs / 1e9;
        alloc_delta_total += alloc_delta;
        println!("{pname:<14} {bytes_per_step:>12} {rate:>12.3} {alloc_delta:>12}");
        exchanges.push(json!({
            "plan": pname, "ranks": 4, "dims": [xd.nx, xd.ny, xd.nz],
            "steps": steps, "secs": secs, "bytes_per_step": bytes_per_step,
            "gbytes_per_sec": rate, "arena_allocs_delta": alloc_delta,
        }));
    }

    // Overlap: the same 4-rank layout, now running the full solver step
    // with the k-slab pipeline on vs off (both SIMD + reduced comm).
    let (od, osteps, oreps) = if opts.smoke {
        (Dims3::new(36, 32, 24), 24usize, 3usize)
    } else {
        (Dims3::new(72, 64, 48), 30usize, 3usize)
    };
    // Interleave plain/overlap reps (like the telemetry pair below) so
    // scheduler drift on oversubscribed hosts hits both variants equally.
    let mut plain_wall = f64::INFINITY;
    let mut ov_wall = f64::INFINITY;
    let (mut plain_comp, mut ov_comp) = (0.0f64, 0.0f64);
    let (mut plain_x, mut ov_x) = (CommNs::default(), CommNs::default());
    for _ in 0..oreps {
        let (pw, pc, px) = time_overlap(od, false, osteps, 1, true);
        let (ow, oc, ox) = time_overlap(od, true, osteps, 1, true);
        if pw < plain_wall {
            (plain_wall, plain_comp, plain_x) = (pw, pc, px);
        }
        if ow < ov_wall {
            (ov_wall, ov_comp, ov_x) = (ow, oc, ox);
        }
    }
    let s = |ns: u64| ns as f64 / 1e9;
    // Fraction of the non-overlap wait that the pipeline hid behind later
    // slabs. Clamped: timing noise can make either wait the larger one.
    let hidden_comm_fraction = if plain_x.wait_ns > 0 {
        (1.0 - s(ov_x.wait_ns) / s(plain_x.wait_ns)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    println!(
        "\n{:<10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "overlap", "wall ms", "comp ms", "send ms", "wait ms", "inject ms"
    );
    let mut overlaps = Vec::new();
    for (name, wall, comp, x) in [
        ("off", plain_wall, plain_comp, plain_x),
        ("on", ov_wall, ov_comp, ov_x),
    ] {
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            name,
            wall * 1e3,
            comp * 1e3,
            s(x.send_ns) * 1e3,
            s(x.wait_ns) * 1e3,
            s(x.inject_ns) * 1e3
        );
        overlaps.push(json!({
            "overlap": name == "on", "ranks": 4, "dims": [od.nx, od.ny, od.nz],
            "steps": osteps, "wall_secs": wall, "comp_secs": comp,
            "send_secs": s(x.send_ns), "wait_secs": s(x.wait_ns),
            "inject_secs": s(x.inject_ns),
        }));
    }
    println!(
        "overlap/plain wall: {:.2}x   hidden-comm fraction: {:.2}",
        ov_wall / plain_wall,
        hidden_comm_fraction
    );

    // Local time stepping: serial wall clock on the basin-contrast medium.
    // The cluster census gives the upper bound (update work saved); the
    // measured ratio has to carry the interface save/blend/restore
    // overhead on top.
    let (ld, lsteps, lreps) = if opts.smoke {
        (Dims3::new(24, 20, 32), 24usize, 2usize)
    } else {
        (Dims3::new(64, 64, 32), 80usize, 3usize)
    };
    let (lts_g_secs, lts_l_secs, lts_g_flops, lts_l_flops, lts_plan) =
        time_lts(ld, lsteps, lreps);
    let lts_speedup = lts_g_secs / lts_l_secs;
    let lts_theoretical = lts_plan.theoretical_speedup();
    let lts_flop_ratio = lts_g_flops as f64 / lts_l_flops as f64;
    println!("\n{:<12} {:>10} {:>10} {:>12}", "stepping", "wall ms", "Gflop", "clusters");
    println!(
        "{:<12} {:>10.2} {:>10.2} {:>12}",
        "global-dt",
        lts_g_secs * 1e3,
        lts_g_flops as f64 / 1e9,
        1
    );
    println!(
        "{:<12} {:>10.2} {:>10.2} {:>12}",
        "lts",
        lts_l_secs * 1e3,
        lts_l_flops as f64 / 1e9,
        lts_plan.clusters.len()
    );
    println!(
        "lts speedup: {lts_speedup:.2}x measured / {lts_theoretical:.2}x census \
         (flop ratio {lts_flop_ratio:.2}x), ladder {:?}",
        lts_plan.clusters.iter().map(|c| c.rate).collect::<Vec<_>>()
    );

    // Telemetry overhead: the same overlap config with the probes on vs
    // disabled, measured as interleaved pairs (on, off, on, off, ...) so
    // scheduler drift on oversubscribed hosts hits both variants equally
    // instead of penalising whichever ran first. Every probe degrades to
    // a branch on `enabled`, so the best-of walls should be
    // indistinguishable up to noise.
    let mut tel_on_wall = f64::INFINITY;
    let mut tel_off_wall = f64::INFINITY;
    for _ in 0..oreps {
        let (on, _, _) = time_overlap(od, true, osteps, 1, true);
        let (off, _, _) = time_overlap(od, true, osteps, 1, false);
        tel_on_wall = tel_on_wall.min(on);
        tel_off_wall = tel_off_wall.min(off);
    }
    println!(
        "telemetry on/off wall: {:.2}x ({:.2} ms on, {:.2} ms off)",
        tel_on_wall / tel_off_wall,
        tel_on_wall * 1e3,
        tel_off_wall * 1e3
    );

    // Work-stealing scheduler: skewed 2-rank x-split (part 0 owns ~75% of
    // the columns) with per-rank tile queues on vs off. Stealing lets the
    // light rank drain the heavy rank's surplus interior tiles, so the
    // compute imbalance ratio (max/mean of the Eq. 7 ledger) should drop
    // toward 1 and the wall should follow.
    let (sd, ssteps, sreps) = if opts.smoke {
        (Dims3::new(48, 32, 24), 16usize, 2usize)
    } else {
        (Dims3::new(96, 64, 48), 30usize, 3usize)
    };
    let ((off_wall, off_imb, _), (sch_wall, sch_imb, sch_steals)) = time_sched(sd, ssteps, sreps);
    println!(
        "\n{:<10} {:>10} {:>12} {:>10}",
        "scheduler", "wall ms", "imbalance", "steals"
    );
    println!("{:<10} {:>10.2} {:>12.3} {:>10}", "off", off_wall * 1e3, off_imb, 0);
    println!(
        "{:<10} {:>10.2} {:>12.3} {:>10}",
        "stealing",
        sch_wall * 1e3,
        sch_imb,
        sch_steals
    );
    println!(
        "sched/no-sched wall: {:.2}x (skew {} of {} x-columns on rank 0)",
        sch_wall / off_wall,
        sd.nx / 2 + sd.nx / 4,
        sd.nx
    );

    // Gate inputs: blocked configs are what the solver actually runs.
    let gf = |simd: bool| {
        kernels
            .iter()
            .find(|k| k["simd"].as_bool() == Some(simd) && k["block"].as_str() == Some("jaguar"))
            .and_then(|k| k["gflops"].as_f64())
            .unwrap_or(0.0)
    };
    let (scalar_gf, simd_gf) = (gf(false), gf(true));
    let ratio = simd_gf / scalar_gf;
    let simd_ok = backend == SimdBackend::Scalar || ratio >= 1.0;
    let alloc_ok = alloc_delta_total == 0;
    // The pipeline must pay for itself: overlap+SIMD may not lose to plain
    // SIMD on the multi-rank config. The bound is 1.00 plus the measured
    // run-to-run spread of the ratio on the recording host (full mode, 4
    // ranks on 2 vCPUs, 13 runs: median 1.00, quartiles 0.97–1.03; the
    // shell-first split it replaced read 1.19–1.53). Overlap can only hide
    // communication when another core makes progress while this rank
    // computes its next slab; on a single-core host (CI smoke containers)
    // the rank threads are timesliced, the wait term is scheduler noise,
    // and the strict bound is unmeasurable — the gate degrades to a coarse
    // broken-pipeline guard there.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let overlap_tol = if cores >= 2 { 1.06 } else { 1.5 };
    let overlap_ok = ov_wall <= plain_wall * overlap_tol;
    // Telemetry must be close to free. On a timesliced single-core host
    // even a no-op run-to-run delta can exceed tight bounds, so the gate
    // widens there (same rationale as the overlap tolerance above).
    let telemetry_tol = if cores >= 2 { 1.10 } else { 1.5 };
    let telemetry_ok = tel_on_wall <= tel_off_wall * telemetry_tol;
    // LTS must beat global-dt stepping on the basin-contrast medium. The
    // acceptance bar (1.5×) applies to the full-size problem; the shrunk
    // smoke grid amortises the interface overhead over far fewer interior
    // points, so the smoke gate only demands a clear win.
    let lts_threshold = if opts.smoke { 1.1 } else { 1.5 };
    let lts_ok = lts_plan.is_multi_rate() && lts_speedup >= lts_threshold;
    // Stealing must recover wall on the skewed decomposition — but only
    // where there is a second core for the light rank to steal on. On a
    // timesliced single-core host both variants serialize and the gate
    // degrades to a no-regression guard (same rationale as overlap).
    let sched_speedup = off_wall / sch_wall;
    let (sched_threshold, sched_ok) = if cores >= 2 {
        (1.05, sch_wall * 1.05 <= off_wall)
    } else {
        (1.0 / 1.5, sch_wall <= off_wall * 1.5)
    };
    println!("\nSIMD/scalar (blocked): {ratio:.2}x   steady-state allocations: {alloc_delta_total}");

    let report = json!({
        "backend": backend.name(),
        "mode": mode,
        "kernels": kernels,
        "exchange": exchanges,
        "overlap": overlaps,
        "hidden_comm_fraction": hidden_comm_fraction,
        "gate": {
            "simd_over_scalar": ratio,
            "simd_not_slower": simd_ok,
            "steady_state_alloc_free": alloc_ok,
            "overlap_over_plain_wall": ov_wall / plain_wall,
            "overlap_tolerance": overlap_tol,
            "cores": cores,
            "overlap_not_slower": overlap_ok,
            "telemetry_over_disabled_wall": tel_on_wall / tel_off_wall,
            "telemetry_tolerance": telemetry_tol,
            "telemetry_cheap_enough": telemetry_ok,
            "lts_speedup": lts_speedup,
            "lts_threshold": lts_threshold,
            "lts_fast_enough": lts_ok,
            "sched_speedup": sched_speedup,
            "sched_threshold": sched_threshold,
            "sched_fast_enough": sched_ok,
            "passed": simd_ok && alloc_ok && overlap_ok && telemetry_ok && lts_ok && sched_ok,
        },
    });
    let sched_report = json!({
        "mode": mode,
        "backend": backend.name(),
        "dims": [sd.nx, sd.ny, sd.nz],
        "h": 150.0,
        "dt": 0.009,
        "steps": ssteps,
        "medium": "loh1",
        "parts": [2, 1, 1],
        "skew_columns": sd.nx / 4,
        "rank0_columns": sd.nx / 2 + sd.nx / 4,
        "off_wall_secs": off_wall,
        "sched_wall_secs": sch_wall,
        "off_imbalance": off_imb,
        "sched_imbalance": sch_imb,
        "tiles_stolen": sch_steals,
        "measured_speedup": sched_speedup,
        "gate": {"threshold": sched_threshold, "cores": cores, "passed": sched_ok},
    });
    let lts_report = json!({
        "mode": mode,
        "backend": backend.name(),
        "dims": [ld.nx, ld.ny, ld.nz],
        "h": 150.0,
        "dt": 0.012,
        "steps": lsteps,
        "medium": "basin_over_rock",
        "clusters": lts_plan
            .clusters
            .iter()
            .map(|c| json!({"k0": c.k0, "k1": c.k1, "rate": c.rate}))
            .collect::<Vec<_>>(),
        "global_wall_secs": lts_g_secs,
        "lts_wall_secs": lts_l_secs,
        "global_flops": lts_g_flops,
        "lts_flops": lts_l_flops,
        "flop_ratio": lts_flop_ratio,
        "measured_speedup": lts_speedup,
        "theoretical_speedup": lts_theoretical,
        "gate": {"threshold": lts_threshold, "passed": lts_ok},
    });
    // Smoke mode is the CI gate: it must not clobber the committed
    // full-mode artifacts with shrunk-problem numbers.
    if !opts.smoke {
        let pretty = serde_json::to_string_pretty(&report).expect("serialize report");
        std::fs::write("BENCH_kernels.json", &pretty).expect("write BENCH_kernels.json");
        println!("[record] BENCH_kernels.json");

        let pretty = serde_json::to_string_pretty(&lts_report).expect("serialize lts report");
        std::fs::write("BENCH_lts.json", &pretty).expect("write BENCH_lts.json");
        println!("[record] BENCH_lts.json");

        let pretty = serde_json::to_string_pretty(&sched_report).expect("serialize sched report");
        std::fs::write("BENCH_sched.json", &pretty).expect("write BENCH_sched.json");
        println!("[record] BENCH_sched.json");

        let baseline = json!({
            "backend": "scalar",
            "mode": mode,
            "kernels": kernels.iter().filter(|k| k["simd"].as_bool() == Some(false)).collect::<Vec<_>>(),
            "exchange": exchanges,
            "overlap": overlaps,
            "hidden_comm_fraction": hidden_comm_fraction,
        });
        std::fs::create_dir_all("results").ok();
        let pretty = serde_json::to_string_pretty(&baseline).expect("serialize baseline");
        std::fs::write("results/bench_kernels_baseline.json", &pretty)
            .expect("write results/bench_kernels_baseline.json");
        println!("[record] results/bench_kernels_baseline.json");
    }

    if opts.gate && !(simd_ok && alloc_ok && overlap_ok && telemetry_ok && lts_ok && sched_ok) {
        eprintln!(
            "GATE FAILED: simd_not_slower={simd_ok} (ratio {ratio:.3}), \
             steady_state_alloc_free={alloc_ok} (delta {alloc_delta_total}), \
             overlap_not_slower={overlap_ok} (ratio {:.3}, tol {overlap_tol} on {cores} cores), \
             telemetry_cheap_enough={telemetry_ok} (ratio {:.3}, tol {telemetry_tol}), \
             lts_fast_enough={lts_ok} (speedup {lts_speedup:.3}, threshold {lts_threshold}), \
             sched_fast_enough={sched_ok} (speedup {sched_speedup:.3}, threshold {sched_threshold:.3})",
            ov_wall / plain_wall,
            tel_on_wall / tel_off_wall
        );
        std::process::exit(1);
    }
}
