//! Chaos-soak integration tests: seeded fault injection against the full
//! end-to-end workflow (crash, teardown, epoch fallback, bit-exact
//! restart).

use awp_odc::pario::epochs::{consistent_epoch, epoch_file_name};
use awp_odc::pario::Md5;
use awp_odc::scenario::Scenario;
use awp_odc::vcluster::fault::{FaultKind, FaultPlan, WatchdogConfig};
use awp_odc::vcluster::SchedulePlan;
use awp_odc::workflow::{scratch_dir, WorkflowSession};
use std::sync::Arc;
use std::time::Duration;

fn surface_md5(report: &awp_odc::workflow::WorkflowReport) -> String {
    Md5::digest_hex(&std::fs::read(&report.surface_file).unwrap())
}

/// Reference clean run: same scenario/decomposition, no faults.
fn clean_reference(tag: &str) -> awp_odc::workflow::WorkflowReport {
    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);
    let dir = scratch_dir(tag);
    WorkflowSession::new([2, 1, 1]).execute(&sc.prepare(), &dir).unwrap()
}

#[test]
fn chaos_crash_recovers_bit_exact() {
    // Acceptance: an injected rank crash at step N must trigger automatic
    // teardown + restart from the newest consistent epoch, and the final
    // wavefield must be bit-for-bit identical to an uninterrupted run.
    let rep_clean = clean_reference("chaos-clean");

    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);
    let run = sc.prepare();
    let steps = run.cfg.steps;
    let crash_step = (steps * 3 / 5) as u64;
    let dir = scratch_dir("chaos-crash");
    let mut wf = WorkflowSession::new([2, 1, 1]);
    wf.checkpoint_every = Some(4);
    wf = wf.with_chaos(
        Arc::new(FaultPlan::new(0xC4A0_5EED).with_crash(1, crash_step)),
        WatchdogConfig::with_timeout(Duration::from_secs(20)),
    );
    let rep = wf.execute(&run, &dir).expect("chaos run must self-heal");

    assert!(rep.restarted, "a restart pass must have run");
    assert_eq!(rep.restarts, 1);
    assert!(rep.failed_at.is_some());
    let crash = rep
        .faults
        .iter()
        .find(|f| f.kind == FaultKind::Crash)
        .expect("the injected crash must be reported");
    assert_eq!(crash.rank, 1);
    assert_eq!(crash.step, Some(crash_step));
    // Bit-for-bit identical physics and output file.
    assert_eq!(rep_clean.pgv.data, rep.pgv.data, "PGV must match bitwise");
    assert_eq!(
        surface_md5(&rep_clean),
        surface_md5(&rep),
        "surface output must be bit-identical"
    );
    assert!(rep.archive_verified);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(rep_clean.surface_file.parent().expect("a workdir"));
}

#[test]
fn chaos_corrupt_epoch_falls_back_and_recovers() {
    // Acceptance: crash + corrupted newest checkpoint epoch → recovery
    // falls back to an older MD5-valid epoch and still reproduces the
    // clean wavefield bit-for-bit.
    let rep_clean = clean_reference("chaos-fb-clean");

    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);
    let run = sc.prepare();
    let steps = run.cfg.steps;
    let crash_step = (steps * 3 / 5) as u64;
    let dir = scratch_dir("chaos-fallback");
    // Phase 1: the run dies (no restart budget), leaving epochs behind.
    let run_b = sc.prepare();
    let mut wf = WorkflowSession::new([2, 1, 1]);
    wf.checkpoint_every = Some(2);
    wf.max_restarts = 0;
    wf = wf.with_chaos(
        Arc::new(FaultPlan::new(7).with_crash(0, crash_step)),
        WatchdogConfig::with_timeout(Duration::from_secs(20)),
    );
    wf.execute(&run_b, &dir).expect_err("restart budget of zero must surface the fault");

    // Phase 2: corrupt the newest consistent epoch on every rank.
    let ckpt_dir = dir.join("ckpt");
    let newest = consistent_epoch(&ckpt_dir, 2).unwrap().expect("epochs were written");
    assert!(newest >= 4, "need an older epoch to fall back to (newest {newest})");
    for rank in 0..2 {
        let victim = ckpt_dir.join(epoch_file_name(rank, newest));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&victim, &bytes).unwrap();
    }
    let fallback = consistent_epoch(&ckpt_dir, 2).unwrap().expect("older epochs survive");
    assert!(fallback < newest, "corruption must push the restart line back");

    // Phase 3: a fresh process resumes the dead run's scratch directory.
    let mut wf2 = WorkflowSession::new([2, 1, 1]);
    wf2.checkpoint_every = Some(2);
    wf2.resume = true;
    let rep =
        wf2.execute(&sc.prepare(), &dir).expect("resume must recover from the fallback epoch");

    assert_eq!(rep_clean.pgv.data, rep.pgv.data, "PGV must match bitwise after fallback");
    assert_eq!(
        surface_md5(&rep_clean),
        surface_md5(&rep),
        "surface output must be bit-identical after fallback"
    );
    assert!(rep.archive_verified);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(rep_clean.surface_file.parent().expect("a workdir"));
}

#[test]
fn chaos_soak_random_plan_converges() {
    // Soak: a seed-derived schedule (crash + stall + message perturbation)
    // against a watchdog-guarded run must converge within the restart
    // budget and stay bit-exact.
    let rep_clean = clean_reference("chaos-soak-clean");

    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);
    let run = sc.prepare();
    let steps = run.cfg.steps as u64;
    let dir = scratch_dir("chaos-soak");
    let mut wf = WorkflowSession::new([2, 1, 1]);
    wf.checkpoint_every = Some(4);
    wf.max_restarts = 4;
    wf = wf.with_chaos(
        Arc::new(FaultPlan::random(0xD00D, 2, steps)),
        WatchdogConfig {
            timeout: Duration::from_secs(3),
            poll: Duration::from_millis(50),
        },
    );
    let rep = wf.execute(&run, &dir).expect("soak run must converge");
    assert!(!rep.faults.is_empty(), "the random plan must have injected something");
    assert_eq!(rep_clean.pgv.data, rep.pgv.data, "PGV must match bitwise");
    assert_eq!(surface_md5(&rep_clean), surface_md5(&rep));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(rep_clean.surface_file.parent().expect("a workdir"));
}

#[test]
fn schedule_fuzz_composes_with_fault_injection() {
    // Composed chaos: the schedule fuzzer (SchedulePlan) and the fault
    // injector (FaultPlan) each have their own bit-exactness gates; this
    // test aims them at the same run. Messages are duplicated *and*
    // delivered in a seeded adversarial order while a mid-run crash
    // forces the workflow back to the newest consistent checkpoint epoch
    // — and the final outputs must still be bit-identical to an
    // unperturbed reference run. (Duration 20 s ⇒ 11 steps: enough for a
    // checkpoint epoch at step 4 and a crash at step 6.)
    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);

    let clean_dir = scratch_dir("chaos-sched-clean");
    let clean = WorkflowSession::new([2, 1, 1])
        .execute(&sc.prepare(), &clean_dir)
        .expect("clean reference run failed");

    // Chaos run: crash rank 1 at step 6 (forcing an epoch fallback),
    // duplicate ~5% of messages, and permute delivery/waitall order.
    let run = sc.prepare();
    assert!(run.cfg.steps > 8, "scenario too short to crash mid-run");
    let faults =
        Arc::new(FaultPlan::new(0xC0FF_EE01).with_crash(1, 6).with_msg_faults(0.0, 0.0, 0.05, 0));
    let chaos_dir = scratch_dir("chaos-sched");
    let mut wf = WorkflowSession::new([2, 1, 1])
        .with_chaos(
            faults,
            WatchdogConfig { timeout: Duration::from_secs(10), poll: Duration::from_millis(50) },
        )
        .with_schedule(SchedulePlan::with_bounds(0xD15C_0001, 3, 4));
    wf.checkpoint_every = Some(4);
    wf.max_restarts = 6;
    let rep = wf.execute(&run, &chaos_dir).expect("chaos run must converge");

    assert!(rep.restarted && rep.restarts >= 1, "the crash must force a restart");
    assert_eq!(rep.failed_at, Some(6), "first fault is the scheduled crash");
    assert!(rep.faults.iter().any(|f| f.kind == FaultKind::Crash), "{:?}", rep.faults);
    assert!(rep.archive_verified);

    // Bit-exactness: the checkpoint fallback under a perturbed schedule
    // must reproduce the clean run's observable outputs exactly.
    assert_eq!(surface_md5(&clean), surface_md5(&rep), "surface file diverged under chaos");
    assert_eq!(clean.pgv.data, rep.pgv.data, "PGV map diverged under chaos");
    assert_eq!(
        clean.collection_checksum, rep.collection_checksum,
        "per-rank output digests diverged under chaos"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}

#[test]
fn crash_before_the_first_epoch_restarts_from_step_zero() {
    // A crash before the first checkpoint epoch leaves no consistent
    // line: the restart pass runs from step 0, and (the one-shot fault
    // already fired) still finishes bit-exact.
    let rep_clean = clean_reference("chaos-early-clean");

    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);
    let run = sc.prepare();
    let dir = scratch_dir("chaos-early");
    let mut wf = WorkflowSession::new([2, 1, 1]).with_chaos(
        Arc::new(FaultPlan::new(0xDE6D).with_crash(1, 2)),
        WatchdogConfig { timeout: Duration::from_secs(10), poll: Duration::from_millis(50) },
    );
    wf.checkpoint_every = Some(4);
    let rep = wf.execute(&run, &dir).expect("an early crash must converge via restart");

    assert_eq!(rep.restarts, 1);
    assert_eq!(rep.failed_at, Some(2));
    assert!(rep.faults.iter().any(|f| f.kind == FaultKind::Crash));
    assert_eq!(rep_clean.pgv.data, rep.pgv.data, "PGV must match bitwise after the restart");
    assert_eq!(surface_md5(&rep_clean), surface_md5(&rep));
    assert!(rep.archive_verified);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(rep_clean.surface_file.parent().expect("a workdir"));
}

#[test]
fn directed_hang_restarts_once_and_reproduces_clean_run() {
    // A rank that stalls without a heartbeat is caught by the watchdog,
    // the pass is torn down as a hang, and one restart from the newest
    // consistent epoch reproduces the clean run bit for bit.
    let rep_clean = clean_reference("chaos-hang-clean");

    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);
    let run = sc.prepare();
    assert!(run.cfg.steps > 8, "scenario too short to stall mid-run");
    let dir = scratch_dir("chaos-hang");
    let mut wf = WorkflowSession::new([2, 1, 1]).with_chaos(
        Arc::new(FaultPlan::new(0x4A46).with_stall(0, 6, 3600.0)),
        WatchdogConfig { timeout: Duration::from_secs(1), poll: Duration::from_millis(50) },
    );
    wf.checkpoint_every = Some(4);
    let rep = wf.execute(&run, &dir).expect("a hung pass must converge via restart");

    assert_eq!(rep.restarts, 1, "exactly one restart: {:?}", rep.faults);
    assert!(rep.faults.iter().any(|f| f.kind == FaultKind::Hang), "{:?}", rep.faults);
    assert_eq!(rep_clean.pgv.data, rep.pgv.data, "PGV must match bitwise");
    assert_eq!(surface_md5(&rep_clean), surface_md5(&rep), "surface output must be bit-identical");
    assert!(rep.archive_verified);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(rep_clean.surface_file.parent().expect("a workdir"));
}

#[test]
fn exhausted_restart_budget_names_the_crash() {
    // No restart budget: the one crash ends the run with an error that
    // says how many restarts were tried and which fault stopped it.
    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);
    let dir = scratch_dir("chaos-exhausted");
    let mut wf = WorkflowSession::new([2, 1, 1]).with_chaos(
        Arc::new(FaultPlan::new(0xE4A5).with_crash(1, 5)),
        WatchdogConfig::with_timeout(Duration::from_secs(20)),
    );
    wf.checkpoint_every = Some(4);
    wf.max_restarts = 0;
    let err = wf.execute(&sc.prepare(), &dir).expect_err("a zero budget must surface the crash");
    let msg = err.to_string();
    assert!(msg.contains("did not complete after 0 restarts"), "{msg}");
    assert!(msg.contains("rank 1 Crash at step 5: injected fail-stop crash"), "{msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_plan_without_checkpointing_is_refused_before_any_file() {
    // A faulted pass restarts from an epoch, so a fault plan with no
    // checkpoint cadence is a configuration error, reported before any
    // stage writes its files.
    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);
    let dir = scratch_dir("chaos-no-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let wf = WorkflowSession::new([2, 1, 1]).with_chaos(
        Arc::new(FaultPlan::new(1).with_crash(1, 5)),
        WatchdogConfig::with_timeout(Duration::from_secs(20)),
    );
    let err = wf.execute(&sc.prepare(), &dir).expect_err("a fault plan needs checkpoints");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("checkpoint_every"), "{err}");
    assert!(!dir.exists(), "nothing may be written before the refusal");
}

#[test]
fn chaos_same_seed_is_byte_identical_schedule() {
    // Regression: the same --chaos-seed must produce the byte-identical
    // fault schedule, independent of thread interleaving.
    let steps = 1000;
    let a = FaultPlan::random(0xFEED, 8, steps);
    let b = FaultPlan::random(0xFEED, 8, steps);
    assert_eq!(a.schedule_digest(), b.schedule_digest());
    assert_ne!(
        a.schedule_digest(),
        FaultPlan::random(0xFEED + 1, 8, steps).schedule_digest()
    );

    // And observed end-to-end: two identical chaos runs report the same
    // injected faults at the same (rank, step).
    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);
    let mut observed = Vec::new();
    for pass in 0..2 {
        let run = sc.prepare();
        let n_steps = run.cfg.steps as u64;
        let dir = scratch_dir(&format!("chaos-det-{pass}"));
        let mut wf = WorkflowSession::new([2, 1, 1]);
        wf.checkpoint_every = Some(4);
        wf = wf.with_chaos(
            Arc::new(FaultPlan::new(0xABCD).with_crash(1, n_steps * 3 / 5)),
            WatchdogConfig::with_timeout(Duration::from_secs(20)),
        );
        let rep = wf.execute(&run, &dir).unwrap();
        let mut injected: Vec<(usize, Option<u64>)> = rep
            .faults
            .iter()
            .filter(|f| f.kind == FaultKind::Crash)
            .map(|f| (f.rank, f.step))
            .collect();
        injected.sort();
        observed.push(injected);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(observed[0], observed[1], "same seed ⇒ same injected fault sequence");
}
