//! End-to-end workflow (E2EaW) integration tests.

use awp_odc::pario::Md5;
use awp_odc::scenario::Scenario;
use awp_odc::workflow::{scratch_dir, WorkflowSession};

#[test]
fn workflow_decompositions_agree() {
    let sc = Scenario::shakeout_k(24, 0.3).with_duration(15.0);
    let mut maps = Vec::new();
    for parts in [[1, 1, 1], [2, 2, 1]] {
        let dir = scratch_dir(&format!("wf-{}-{}-{}", parts[0], parts[1], parts[2]));
        let run = sc.prepare();
        let rep = WorkflowSession::new(parts).execute(&run, &dir).unwrap();
        assert!(rep.archive_verified);
        maps.push(rep.pgv);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The full pipeline (file partitioning included) is decomposition-
    // independent.
    assert_eq!(maps[0].data, maps[1].data);
}

#[test]
fn workflow_reports_stage_throughput() {
    let sc = Scenario::shakeout_k(20, 0.3).with_duration(15.0);
    let dir = scratch_dir("wf-stages");
    let rep = WorkflowSession::new([2, 1, 1]).execute(&sc.prepare(), &dir).unwrap();
    for name in ["cvm2mesh", "petameshp", "dsrcg+petasrcp", "awm-solve", "archive"] {
        let st = rep.stage(name).unwrap_or_else(|| panic!("stage {name} missing"));
        assert!(st.seconds >= 0.0);
    }
    assert!(rep.stage("cvm2mesh").unwrap().bytes > 0);
    assert!(rep.stage("archive").unwrap().mb_per_s() >= 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn archive_tampering_is_detectable() {
    let sc = Scenario::shakeout_k(20, 0.3).with_duration(15.0);
    let dir = scratch_dir("wf-tamper");
    let rep = WorkflowSession::new([1, 1, 1]).execute(&sc.prepare(), &dir).unwrap();
    assert!(rep.archive_verified);
    let archived = dir.join("archive").join("surface.bin");
    let original_digest = Md5::digest_hex(&std::fs::read(&archived).unwrap());
    // Corrupt one byte mid-file.
    let mut bytes = std::fs::read(&archived).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(&archived, &bytes).unwrap();
    let tampered_digest = Md5::digest_hex(&std::fs::read(&archived).unwrap());
    assert_ne!(original_digest, tampered_digest, "MD5 must expose the corruption");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn output_aggregation_limits_transactions() {
    // With flush_every ≫ 1 the number of write bursts stays tiny compared
    // to the number of saved records (the paper's 49 % → 2 % I/O story).
    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);
    let dir = scratch_dir("wf-agg");
    let run = sc.prepare();
    let steps = run.cfg.steps;
    let mut wf = WorkflowSession::new([1, 1, 1]);
    wf.output_decimate = 1;
    wf.flush_every = steps; // a single aggregated flush
    let rep = wf.execute(&run, &dir).unwrap();
    // One transaction per record is still issued at flush time, but they
    // all happen in one burst; the count equals the saved records.
    assert!(rep.output_transactions >= steps as u64 - 1);
    assert!(rep.archive_verified);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ondemand_input_matches_prepartitioned() {
    // The paper's two PetaMeshP I/O models must be interchangeable
    // (§III.C: "Our PetaMeshP tools should theoretically work flawlessly
    // on all systems").
    use awp_odc::workflow::InputMode;
    let sc = Scenario::shakeout_k(20, 0.3).with_duration(12.0);
    let mut maps = Vec::new();
    for input in [InputMode::Prepartitioned, InputMode::OnDemand { readers: 2 }] {
        let dir = scratch_dir(&format!("wf-in-{input:?}").replace([' ', '{', '}', ':'], ""));
        let run = sc.prepare();
        let mut wf = WorkflowSession::new([2, 2, 1]);
        wf.input = input;
        let rep = wf.execute(&run, &dir).unwrap();
        assert!(rep.archive_verified);
        maps.push(rep.pgv);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(maps[0].data, maps[1].data, "input schemes must agree bitwise");
}

#[test]
fn checkpoint_restart_reproduces_clean_run() {
    // §III.F: a run killed mid-way and restarted from checkpoints must
    // produce the same PGV map and surface-output file as a clean run.
    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);
    // Clean run.
    let dir_a = scratch_dir("wf-clean");
    let run_a = sc.prepare();
    let steps = run_a.cfg.steps;
    let rep_a = WorkflowSession::new([2, 1, 1]).execute(&run_a, &dir_a).unwrap();
    // Failure-injected run: checkpoint every 4 steps, die at ~60 %.
    let dir_b = scratch_dir("wf-failed");
    let run_b = sc.prepare();
    let mut wf = WorkflowSession::new([2, 1, 1]);
    wf.checkpoint_every = Some(4);
    wf.fail_at_step = Some(steps * 3 / 5);
    let rep_b = wf.execute(&run_b, &dir_b).unwrap();
    assert!(rep_b.restarted, "restart pass must run");
    assert_eq!(rep_b.failed_at, Some(steps * 3 / 5));
    assert!(rep_b.archive_verified);
    // Same physics.
    assert_eq!(rep_a.pgv.data, rep_b.pgv.data, "PGV maps must match bitwise");
    // Same archived output bytes.
    let a = std::fs::read(&rep_a.surface_file).unwrap();
    let b = std::fs::read(&rep_b.surface_file).unwrap();
    assert_eq!(awp_odc::pario::Md5::digest_hex(&a), awp_odc::pario::Md5::digest_hex(&b));
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn archived_surface_file_reproduces_pgv() {
    // dPDA: the PGV map derived from the archived output file must match
    // the in-memory map at the decimated cadence.
    use awp_odc::pario::output::OutputPlan;
    use awp_odc::pario::SurfaceReader;
    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);
    let dir = scratch_dir("wf-readback");
    let run = sc.prepare();
    let dims = run.cfg.dims;
    let mut wf = WorkflowSession::new([1, 1, 1]);
    wf.output_decimate = 1; // every step saved → file PGV == report PGV
    let rep = wf.execute(&run, &dir).unwrap();
    let plan = OutputPlan {
        decimate: 1,
        flush_every: wf.flush_every,
        rank_len: 3 * dims.nx * dims.ny,
        ranks: 1,
    };
    let reader = SurfaceReader::open(&rep.surface_file, plan).unwrap();
    let file_pgv = reader.pgv_fragment(0, dims.nx * dims.ny).unwrap();
    for (a, b) in file_pgv.iter().zip(&rep.pgv.data) {
        assert!((*a as f64 - b).abs() < 1e-6, "file {a} vs report {b}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
