//! Deterministic schedule fuzzer for the virtual cluster.
//!
//! The solver's correctness contract under the asynchronous engine is
//! that every receive is (source, tag)-matched, so *any* legal message
//! delivery order and wait-all completion order must produce bit-exact
//! results. [`awp_vcluster::SchedulePlan`] makes "any order" testable: a
//! seeded pure-hash policy deterministically defers and reorders eligible
//! deliveries and permutes wait-all polling. This driver replays one
//! 8-rank asynchronous-engine run under N distinct seeds and compares every
//! run's full observable state — seismograms, PGV map fragments, surface
//! snapshots — bit-for-bit against the unfuzzed baseline.
//!
//! A mismatch seed is reproducible in isolation:
//! `SchedulePlan::with_bounds(seed, …)` rebuilds the exact schedule (the
//! plan is a pure function of the seed — no RNG state, no time).

use awp_cvm::mesh::MeshGenerator;
use awp_cvm::model::HomogeneousModel;
use awp_grid::decomp::Decomp3;
use awp_grid::dims::{Dims3, Idx3};
use awp_solver::solver::partition_mesh_direct;
use awp_solver::{AbcKind, RankResult, SolvePlan, SolverConfig, Station};
use awp_source::kinematic::KinematicSource;
use awp_source::moment::MomentTensor;
use awp_source::stf::Stf;
use awp_vcluster::{Cluster, SchedulePlan};
use serde::Serialize;

/// Fuzzer workload shape.
#[derive(Debug, Clone, Serialize)]
pub struct FuzzSpec {
    /// Global grid.
    pub dims: [usize; 3],
    /// Rank decomposition (the tentpole target is 8 ranks, `[2, 2, 2]`).
    pub parts: [usize; 3],
    /// Timesteps per replay.
    pub steps: usize,
    /// Number of seeds to replay.
    pub seeds: u64,
    /// First seed (seeds run `base_seed..base_seed + seeds`). With
    /// `seeds: 1` this replays exactly one reported schedule.
    pub base_seed: u64,
    /// Max per-message delivery deferrals the plan may inject.
    pub max_defer: u32,
    /// Max queue depth a delivery may be inserted behind.
    pub max_depth: usize,
}

impl FuzzSpec {
    /// CI-budget replay: 8 ranks, 16 seeds.
    pub fn smoke() -> Self {
        FuzzSpec {
            dims: [24, 24, 24],
            parts: [2, 2, 2],
            steps: 24,
            seeds: 16,
            base_seed: 0x5eed_0001,
            max_defer: 3,
            max_depth: 4,
        }
    }

    /// Deeper sweep: more seeds, nastier bounds.
    pub fn full() -> Self {
        FuzzSpec { seeds: 32, max_defer: 5, max_depth: 6, ..Self::smoke() }
    }
}

/// Outcome of one fuzz sweep.
#[derive(Debug, Clone, Serialize)]
pub struct FuzzResult {
    pub ranks: usize,
    pub steps: usize,
    /// Replays actually executed (baseline not counted).
    pub runs: u64,
    pub base_seed: u64,
    /// Seeds whose results diverged from the baseline (must be empty).
    pub mismatched_seeds: Vec<u64>,
    /// FNV-1a fingerprint of the baseline observable state (hex) — lets
    /// two hosts/builds compare runs without shipping the raw fields.
    pub baseline_fingerprint: String,
}

/// FNV-1a over the bit patterns of every observable output, in a fixed
/// rank-major order.
fn fingerprint(results: &[RankResult]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in results {
        eat(&(r.rank as u64).to_le_bytes());
        for s in &r.seismograms {
            for tr in [&s.vx, &s.vy, &s.vz] {
                for v in tr.iter() {
                    eat(&v.to_bits().to_le_bytes());
                }
            }
        }
        for v in &r.pgv_map {
            eat(&v.to_bits().to_le_bytes());
        }
        if let Some(surf) = &r.surface {
            for v in surf {
                eat(&v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

/// Exact comparison of the observable state of two runs (the fingerprint
/// alone could collide; this cannot).
fn bit_identical(a: &[RankResult], b: &[RankResult]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(x, y)| {
        x.rank == y.rank
            && x.seismograms == y.seismograms
            && x.pgv_map.iter().map(|v| v.to_bits()).eq(y.pgv_map.iter().map(|v| v.to_bits()))
            && match (&x.surface, &y.surface) {
                (None, None) => true,
                (Some(p), Some(q)) => {
                    p.iter().map(|v| v.to_bits()).eq(q.iter().map(|v| v.to_bits()))
                }
                _ => false,
            }
    })
}

/// Every rank's result of `plan` on `cluster` (a rank fault panics).
fn solve(plan: &SolvePlan, cluster: Cluster, meshes: &[awp_cvm::mesh::Mesh]) -> Vec<RankResult> {
    let ranks = plan.run(&cluster, meshes);
    ranks.into_iter().map(|r| r.unwrap_or_else(|fault| panic!("rank fault: {fault}"))).collect()
}

/// Build the shared workload: an asynchronous multi-rank run with a
/// double-couple source straddling rank seams and stations on several
/// ranks.
fn workload(spec: &FuzzSpec) -> (SolverConfig, Vec<awp_cvm::mesh::Mesh>, KinematicSource, Vec<Station>) {
    let dims = Dims3::new(spec.dims[0], spec.dims[1], spec.dims[2]);
    let h = 100.0;
    let vp = 6000.0f64;
    let dt = 0.8 * 6.0 * h / (7.0 * 3f64.sqrt() * vp);
    let mut cfg = SolverConfig::small(dims, h, dt, spec.steps);
    // M-PML + free surface + the simd/async engine: the full
    // communication surface (halo exchanges both phases, reduced-comm
    // widths, every face of the default 2×2×2 cut) is what the fuzzer must not be able
    // to break.
    cfg.abc = AbcKind::Mpml { width: 6, pmax: 0.3 };
    cfg.free_surface = true;
    cfg.attenuation = false;

    let model = HomogeneousModel::new(6000.0, 3464.0, 2700.0);
    let mesh = MeshGenerator::new(&model, dims, h).generate();
    let decomp = Decomp3::new(dims, spec.parts);
    let meshes = partition_mesh_direct(&mesh, &decomp);

    // Off-centre source one cell from a seam: its halo traffic matters
    // from the very first step.
    let c = [dims.nx / 2 + 1, dims.ny / 2 - 1, dims.nz / 2 + 2];
    let source = KinematicSource::point(
        Idx3::new(c[0], c[1], c[2]),
        MomentTensor::strike_slip(0.3),
        1e16,
        Stf::Triangle { rise_time: 12.0 * dt },
        dt,
    );
    let q = |f: usize, n: usize| (n * f) / 4;
    let stations = vec![
        Station::new("nw", Idx3::new(q(1, dims.nx), q(1, dims.ny), 0)),
        Station::new("ne", Idx3::new(q(3, dims.nx), q(1, dims.ny), 0)),
        Station::new("sw", Idx3::new(q(1, dims.nx), q(3, dims.ny), 0)),
        Station::new("se", Idx3::new(q(3, dims.nx), q(3, dims.ny), 0)),
        Station::new("seam", Idx3::new(dims.nx / 2, dims.ny / 2, 0)),
    ];
    (cfg, meshes, source, stations)
}

/// Run the sweep: one unfuzzed baseline, then one replay per seed.
pub fn run_fuzz(spec: &FuzzSpec) -> FuzzResult {
    let (cfg, meshes, source, stations) = workload(spec);
    let ranks = spec.parts[0] * spec.parts[1] * spec.parts[2];
    let decomp = Decomp3::new(cfg.dims, spec.parts);
    let plan = SolvePlan::new(&cfg, decomp, &meshes, &source, &stations)
        .expect("fuzz workload config is valid");
    let baseline = solve(&plan, plan.cluster(), &meshes);
    let baseline_fingerprint = fingerprint(&baseline);

    let mut mismatched = Vec::new();
    for seed in spec.base_seed..spec.base_seed + spec.seeds {
        let schedule = SchedulePlan::with_bounds(seed, spec.max_defer, spec.max_depth);
        let fuzzed = solve(&plan, plan.cluster().with_schedule(schedule), &meshes);
        if !bit_identical(&baseline, &fuzzed) {
            mismatched.push(seed);
        }
    }
    FuzzResult {
        ranks,
        steps: spec.steps,
        runs: spec.seeds,
        base_seed: spec.base_seed,
        mismatched_seeds: mismatched,
        baseline_fingerprint: format!("{baseline_fingerprint:016x}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FuzzSpec {
        // Debug-build scale: 4 ranks, 3 seeds, a dozen steps.
        FuzzSpec {
            dims: [16, 16, 8],
            parts: [2, 2, 1],
            steps: 10,
            seeds: 3,
            base_seed: 77,
            max_defer: 2,
            max_depth: 3,
        }
    }

    #[test]
    fn fuzzed_runs_stay_bit_exact() {
        let r = run_fuzz(&tiny());
        assert_eq!(r.runs, 3);
        assert_eq!(r.ranks, 4);
        assert!(r.mismatched_seeds.is_empty(), "mismatched seeds: {:?}", r.mismatched_seeds);
        assert_eq!(r.baseline_fingerprint.len(), 16);
    }

    use awp_telemetry::{clocks_monotonic, CausalGraph, Registry, Snapshot};
    use std::sync::Arc;

    /// Run one traced replay and return its snapshots, asserting the
    /// per-rank Lamport-clock invariants hold and no causal events were
    /// dropped (the ring is sized above the workload's event count, so a
    /// drop would make the fingerprint window order-dependent).
    fn traced_snapshots(
        cfg: &SolverConfig,
        parts: [usize; 3],
        meshes: &[awp_cvm::mesh::Mesh],
        source: &KinematicSource,
        stations: &[Station],
        plan: Option<std::sync::Arc<SchedulePlan>>,
    ) -> Vec<Snapshot> {
        let reg = Registry::with_capacity(parts.iter().product(), 4096);
        let decomp = Decomp3::new(cfg.dims, parts);
        let solve_plan = SolvePlan::new(cfg, decomp, meshes, source, stations)
            .expect("traced workload config is valid");
        let mut cluster = solve_plan.cluster().with_telemetry(Arc::clone(&reg));
        if let Some(plan) = plan {
            cluster = cluster.with_schedule(plan);
        }
        solve(&solve_plan, cluster, meshes);
        let snaps = reg.snapshots();
        assert!(snaps.iter().all(|s| s.dropped_causal == 0), "causal ring overflowed");
        assert!(clocks_monotonic(&snaps), "per-rank causal clocks must strictly increase");
        snaps
    }

    /// The causal-DAG message fingerprint is a schedule invariant: the
    /// fuzzer may defer and reorder deliveries, but the multiset of
    /// matched send→recv edges — who talked to whom, which tag, how many
    /// bytes — cannot change, and every edge must advance the Lamport
    /// order. 8 seeds, same bounds as the bit-exactness sweep.
    #[test]
    fn causal_dag_fingerprint_is_schedule_invariant() {
        let spec = tiny();
        let (cfg, meshes, source, stations) = workload(&spec);
        let graph_of = |plan: Option<std::sync::Arc<SchedulePlan>>| {
            let snaps = traced_snapshots(&cfg, spec.parts, &meshes, &source, &stations, plan);
            let g = CausalGraph::from_snapshots(&snaps);
            assert!(g.clock_order_holds(), "matched edges must advance the clock");
            assert_eq!(g.unmatched_recvs, 0);
            g
        };
        let baseline = graph_of(None);
        assert!(!baseline.edges.is_empty(), "halo exchange must produce edges");
        for seed in 0..8u64 {
            let plan = SchedulePlan::with_bounds(spec.base_seed + seed, spec.max_defer, spec.max_depth);
            assert_eq!(
                graph_of(Some(plan)).fingerprint(),
                baseline.fingerprint(),
                "seed {seed} changed the causal DAG"
            );
        }
    }

    /// Arming the tracer must be observably invisible: a traced replay
    /// stays bit-identical to the untraced baseline (the causal probes
    /// are pure observation — no timing-dependent branches feed back into
    /// the solve).
    #[test]
    fn armed_tracing_keeps_results_bit_exact() {
        let spec = tiny();
        let (cfg, meshes, source, stations) = workload(&spec);
        let decomp = Decomp3::new(cfg.dims, spec.parts);
        let plan = SolvePlan::new(&cfg, decomp, &meshes, &source, &stations).unwrap();
        let bare = solve(&plan, plan.cluster(), &meshes);
        let reg = Registry::with_capacity(4, 4096);
        let traced = solve(&plan, plan.cluster().with_telemetry(reg), &meshes);
        assert!(bit_identical(&bare, &traced), "tracing perturbed the solve");
    }

    #[test]
    fn fingerprint_tracks_observable_state() {
        let (cfg, meshes, source, stations) = workload(&tiny());
        let decomp = Decomp3::new(cfg.dims, [2, 2, 1]);
        let plan = SolvePlan::new(&cfg, decomp, &meshes, &source, &stations).unwrap();
        let a = solve(&plan, plan.cluster(), &meshes);
        let mut b = solve(&plan, plan.cluster(), &meshes);
        assert!(bit_identical(&a, &b), "identical configs replay bit-exactly");
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // Any single-bit output perturbation must flip both detectors.
        let seis = b
            .iter_mut()
            .flat_map(|r| r.seismograms.iter_mut())
            .find(|s| !s.vx.is_empty())
            .expect("some rank records a station");
        seis.vx[0] += 1.0e-30;
        assert!(!bit_identical(&a, &b));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }
}
