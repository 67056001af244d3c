//! End-to-end workflow (E2EaW) integration tests.

use awp_odc::pario::Md5;
use awp_odc::scenario::Scenario;
use awp_odc::vcluster::fault::FaultPlan;
use awp_odc::workflow::{scratch_dir, WorkflowSession};
use std::sync::Arc;

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
    // Failure-injected run: checkpoint every 4 steps, crash rank 0 at ~60 %.
    let dir_b = scratch_dir("wf-failed");
    let run_b = sc.prepare();
    let mut wf = WorkflowSession::new([2, 1, 1]);
    wf.checkpoint_every = Some(4);
    wf.fault_plan = Some(Arc::new(FaultPlan::new(0x5EED).with_crash(0, (steps * 3 / 5) as u64)));
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

/// MD5 of every file a small two-rank checkpointed run leaves in its work
/// directory, for a split along x (each part is a run of x-rows of the
/// global mesh file) and along y (each part is a run of whole XY planes),
/// recorded before the mesh-file, checkpoint and output paths were
/// rewritten for bulk I/O. A change that claims to keep the bytes must not
/// edit these; a change to a file format must re-record them.
const PINNED_FILES: &[(&str, &str)] = &[
    ("1x2x1/archive/surface.bin", "faf64a444639d31b69ecd2bed645e0a2"),
    ("1x2x1/ckpt/ckpt.000000.0000000004.bin", "a60a77861970c3230a7a88d11f6c9695"),
    ("1x2x1/ckpt/ckpt.000000.0000000008.bin", "b6206453821a062309367740deb35483"),
    ("1x2x1/ckpt/ckpt.000000.0000000012.bin", "4ae98b750c9a9a1ae9d2d73ed8461e88"),
    ("1x2x1/ckpt/ckpt.000000.0000000016.bin", "31d9ca06c5cca19f13d87c2ff4df2801"),
    ("1x2x1/ckpt/ckpt.000000.0000000020.bin", "b49bef7771084662594e53474db0cc1f"),
    ("1x2x1/ckpt/ckpt.000000.0000000024.bin", "0d71deeaa35ffc44af81518ca893ae06"),
    ("1x2x1/ckpt/ckpt.000001.0000000004.bin", "5ba3fbb3ce627c51cba428b1a1a2b1c8"),
    ("1x2x1/ckpt/ckpt.000001.0000000008.bin", "ee7108bca9f4faee9557e0f56709c156"),
    ("1x2x1/ckpt/ckpt.000001.0000000012.bin", "c245e97a65671fc567f43e3e30192749"),
    ("1x2x1/ckpt/ckpt.000001.0000000016.bin", "7e2c06032f71662d8de391e6d53da6f8"),
    ("1x2x1/ckpt/ckpt.000001.0000000020.bin", "7ad89c187cf5b9e343ed78ec41580015"),
    ("1x2x1/ckpt/ckpt.000001.0000000024.bin", "f73fe883644d26dc109de456d154d125"),
    ("1x2x1/mesh.global.bin", "0b57ab34fe73d062701eda457cceab07"),
    ("1x2x1/parts/mesh.000000.bin", "d80a94cfec75b2a067605e23a25c066a"),
    ("1x2x1/parts/mesh.000001.bin", "7489f056f8e5d452c5c4a6e24b6b9d2f"),
    ("1x2x1/source.bin", "8854c9f1e2042fefdd9c162357ddd93f"),
    ("1x2x1/surface.bin", "faf64a444639d31b69ecd2bed645e0a2"),
    ("2x1x1/archive/surface.bin", "638475570d66c74a9988e67145ee132c"),
    ("2x1x1/ckpt/ckpt.000000.0000000004.bin", "c39972ae705021c97fde1bac88dc5d8e"),
    ("2x1x1/ckpt/ckpt.000000.0000000008.bin", "5f5fb2d871e3f9e8c832aafd1ee6ebc9"),
    ("2x1x1/ckpt/ckpt.000000.0000000012.bin", "5bc6bbf2196d0d2def041052bd37f812"),
    ("2x1x1/ckpt/ckpt.000000.0000000016.bin", "bb4cb46664b12dabc16ac0fc6a9aac13"),
    ("2x1x1/ckpt/ckpt.000000.0000000020.bin", "6d200563c194e7a2f1e178396985d739"),
    ("2x1x1/ckpt/ckpt.000000.0000000024.bin", "d07baf95ac4c6676c03af50da3536273"),
    ("2x1x1/ckpt/ckpt.000001.0000000004.bin", "877124e1921a321a2d97c9d4c2b444f4"),
    ("2x1x1/ckpt/ckpt.000001.0000000008.bin", "d1ba84da1a9b2fbf80850577b9a6ad70"),
    ("2x1x1/ckpt/ckpt.000001.0000000012.bin", "6f4ffcf8275eb580a5c770b06fd814ad"),
    ("2x1x1/ckpt/ckpt.000001.0000000016.bin", "4d74d73fc96f32d2aad958b506f6ceed"),
    ("2x1x1/ckpt/ckpt.000001.0000000020.bin", "5683ba7b5d272ffa5df58774977589ea"),
    ("2x1x1/ckpt/ckpt.000001.0000000024.bin", "e73f85b2ab548a27eecb800ae0db9a21"),
    ("2x1x1/mesh.global.bin", "0b57ab34fe73d062701eda457cceab07"),
    ("2x1x1/parts/mesh.000000.bin", "d4827842a8c043b4570d997daacaf03d"),
    ("2x1x1/parts/mesh.000001.bin", "899763af47c04fddb91f6f553b357e45"),
    ("2x1x1/source.bin", "8854c9f1e2042fefdd9c162357ddd93f"),
    ("2x1x1/surface.bin", "638475570d66c74a9988e67145ee132c"),
];

#[test]
fn workflow_files_are_byte_pinned() {
    let sc = Scenario::shakeout_k(64, 0.3).with_duration(15.0).with_attenuation(true);
    let run = sc.prepare();
    let mut files = Vec::new();
    for parts in [[2, 1, 1], [1, 2, 1]] {
        let tag = format!("{}x{}x{}", parts[0], parts[1], parts[2]);
        let dir = scratch_dir(&format!("wf-pins-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wf = WorkflowSession::new(parts);
        wf.checkpoint_every = Some(4);
        wf.flush_every = 10;
        // Retain every epoch so each checkpoint file is pinned.
        wf.keep_checkpoints = usize::MAX;
        let rep = wf.execute(&run, &dir).unwrap();
        assert!(rep.archive_verified);
        let mut stack = vec![dir.clone()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let rel = path.strip_prefix(&dir).unwrap().to_string_lossy();
                    let md5 = Md5::digest_hex(&std::fs::read(&path).unwrap());
                    files.push((format!("{tag}/{rel}"), md5));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    files.sort();
    let table: String = files.iter().map(|(f, d)| format!("    (\"{f}\", \"{d}\"),\n")).collect();
    let got: Vec<(&str, &str)> = files.iter().map(|(f, d)| (f.as_str(), d.as_str())).collect();
    assert_eq!(got, PINNED_FILES, "work directory digests moved; now:\n{table}");
}
