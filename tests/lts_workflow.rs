//! Local time stepping composed with the E2E workflow: checkpoint epochs
//! must land on cluster-aligned ticks (the workflow rounds the cadence up
//! to the slowest cluster rate), a whole-run restart must reproduce the
//! clean LTS run bit-for-bit, and the telemetry surface must carry the
//! per-cluster accounting.

use awp_odc::cvm::mesh::MeshGenerator;
use awp_odc::cvm::model::LayeredModel;
use awp_odc::grid::dims::{Dims3, Idx3};
use awp_odc::pario::Md5;
use awp_odc::scenario::Scenario;
use awp_odc::solver::{ConfigError, LtsOpts, LtsPlan, SolverConfig};
use awp_odc::source::kinematic::KinematicSource;
use awp_odc::source::moment::MomentTensor;
use awp_odc::source::stf::Stf;
use awp_odc::telemetry::Registry;
use awp_odc::vcluster::fault::{FaultPlan, WatchdogConfig};
use awp_odc::workflow::{scratch_dir, WorkflowSession};
use awp_odc::ScenarioRun;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// A `ScenarioRun` over the basin-over-rock medium whose CFL ladder is
/// genuinely multi-rate (rates 4/2/1 from the soft basin down to rock) —
/// the catalogue scenarios are too uniform to earn an octave.
fn basin_run(steps: usize) -> ScenarioRun {
    let d = Dims3::new(24, 20, 32);
    let h = 150.0;
    // Near the rock CFL bound, so the basin's headroom becomes octaves.
    let dt = 0.012;
    let mesh = MeshGenerator::new(&LayeredModel::basin_over_rock(24.0 * h), d, h).generate();
    let source = KinematicSource::point(
        Idx3::new(d.nx / 2 + 1, d.ny / 2 - 1, 8),
        MomentTensor::strike_slip(0.3),
        5.0e16,
        Stf::Brune { tau: 0.25 },
        dt,
    );
    let mut cfg = SolverConfig::small(d, h, dt, steps);
    cfg.opts.lts = Some(LtsOpts::new());
    let plan = LtsPlan::from_mesh(&mesh, cfg.dt, LtsOpts::new());
    assert!(plan.is_multi_rate(), "fixture must exercise a real ladder: {:?}", plan.clusters);
    assert_eq!(plan.max_rate(), 4, "{:?}", plan.clusters);
    ScenarioRun {
        scenario: Scenario::shakeout_k(24, 0.3),
        cfg,
        mesh: std::sync::Arc::new(mesh),
        source,
        stations: Vec::new(),
        rupture: None,
    }
}

#[test]
fn lts_workflow_restart_reproduces_clean_run() {
    let steps = 24;
    let dir_a = scratch_dir("wf-lts-clean");
    let rep_a = WorkflowSession::new([2, 1, 1]).execute(&basin_run(steps), &dir_a).unwrap();
    assert!(rep_a.archive_verified);

    // Deliberately unaligned cadence: without the workflow rounding 3 up
    // to the slowest cluster rate (4), the newest epoch before the failure
    // at step 10 would be tick 9 — a tick where the rate-4 cluster's
    // interface prev-planes are live state that the checkpoint does not
    // carry — and the resumed run could not be exact.
    let dir_b = scratch_dir("wf-lts-failed");
    let mut wf = WorkflowSession::new([2, 1, 1]);
    wf.checkpoint_every = Some(3);
    wf.fault_plan = Some(Arc::new(FaultPlan::new(0x5EED).with_crash(0, 10)));
    let rep_b = wf.execute(&basin_run(steps), &dir_b).unwrap();
    assert!(rep_b.restarted, "restart pass must run");
    assert!(rep_b.archive_verified);

    assert_eq!(rep_a.pgv.data, rep_b.pgv.data, "PGV maps must match bitwise");
    let a = Md5::digest_hex(&std::fs::read(&rep_a.surface_file).unwrap());
    let b = Md5::digest_hex(&std::fs::read(&rep_b.surface_file).unwrap());
    assert_eq!(a, b, "surface files must match bitwise");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn lts_workflow_restart_under_watchdog_carries_cluster_telemetry() {
    let steps = 24;
    let dir_a = scratch_dir("wf-lts-rec-clean");
    let rep_a = WorkflowSession::new([2, 1, 1]).execute(&basin_run(steps), &dir_a).unwrap();

    let dir_b = scratch_dir("wf-lts-rec");
    let registry = Arc::new(Registry::new(2));
    let mut wf = WorkflowSession::new([2, 1, 1]);
    wf.checkpoint_every = Some(4);
    wf = wf
        .with_chaos(
            Arc::new(FaultPlan::new(0xA11C_E5ED).with_crash(1, 10)),
            WatchdogConfig { timeout: Duration::from_secs(2), poll: Duration::from_millis(50) },
        )
        .with_telemetry(Arc::clone(&registry));
    let rep_b = wf.execute(&basin_run(steps), &dir_b).unwrap();
    assert_eq!(rep_b.restarts, 1, "the crash costs one whole-run restart");

    assert_eq!(rep_a.pgv.data, rep_b.pgv.data, "PGV maps must match bitwise");
    let a = Md5::digest_hex(&std::fs::read(&rep_a.surface_file).unwrap());
    let b = Md5::digest_hex(&std::fs::read(&rep_b.surface_file).unwrap());
    assert_eq!(a, b, "surface files must match bitwise");

    // The telemetry surface carries the cluster story: per-cluster substep
    // table in the cross-rank report, cluster-tagged spans in the trace.
    let report = format!("{}", registry.report());
    assert!(report.contains("dt-clusters"), "{report}");
    let trace = registry.chrome_trace();
    assert!(trace.contains("\"cluster\":"), "trace spans must carry cluster ids");

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// LTS keeps depth whole on every rank, so the solve plan refuses a
/// workflow that cuts z, before any file is written.
#[test]
fn lts_workflow_refuses_a_z_cut() {
    let dir = scratch_dir("wf-lts-zcut");
    let err = WorkflowSession::new([1, 1, 2])
        .execute(&basin_run(8), &dir)
        .expect_err("LTS on a z cut must be refused");
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    let cause = err.get_ref().and_then(|e| e.downcast_ref::<ConfigError>());
    assert_eq!(cause, Some(&ConfigError::LtsNeedsSingleZPart), "{err}");
    assert!(!dir.join("mesh.global.bin").exists(), "no stage ran");
    let _ = std::fs::remove_dir_all(&dir);
}
