//! Chaos-soak integration tests: seeded fault injection against the full
//! end-to-end workflow (crash, teardown, epoch fallback, bit-exact
//! restart).

use awp_odc::pario::epochs::{consistent_epoch, epoch_file_name};
use awp_odc::pario::Md5;
use awp_odc::scenario::Scenario;
use awp_odc::vcluster::fault::{FaultKind, FaultPlan, WatchdogConfig};
use awp_odc::vcluster::{RecoveryEvent, RetryPolicy, SchedulePlan};
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
fn in_flight_recovery_composes_with_schedule_fuzz() {
    // Composed chaos, supervised: a mid-run rank crash is absorbed
    // *in flight* (supervisor rollback-rejoin, zero whole-run restarts)
    // while ~5% of messages are duplicated, ~2% delayed, and the
    // schedule fuzzer permutes delivery/waitall order under 8 different
    // seeds. Every composition must converge via exactly the in-flight
    // path and stay bit-identical to the unperturbed reference.
    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);

    let clean_dir = scratch_dir("recov-fuzz-clean");
    let clean = WorkflowSession::new([2, 1, 1])
        .execute(&sc.prepare(), &clean_dir)
        .expect("clean reference run failed");

    for fuzz_seed in 0..8u64 {
        let run = sc.prepare();
        assert!(run.cfg.steps > 8, "scenario too short to crash mid-run");
        let faults = Arc::new(
            FaultPlan::new(0xBAD0_0000 + fuzz_seed)
                .with_crash(1, 6)
                .with_msg_faults(0.0, 0.02, 0.05, 300),
        );
        let dir = scratch_dir(&format!("recov-fuzz-{fuzz_seed}"));
        let mut wf = WorkflowSession::new([2, 1, 1])
            .with_chaos(
                faults,
                WatchdogConfig { timeout: Duration::from_secs(10), poll: Duration::from_millis(50) },
            )
            .with_schedule(SchedulePlan::with_bounds(0xF077_u64 ^ fuzz_seed, 3, 4))
            .with_recovery(RetryPolicy::new(3));
        wf.checkpoint_every = Some(4);
        let rep = wf.execute(&run, &dir).expect("supervised run must converge");

        assert!(
            rep.in_flight_recoveries >= 1,
            "seed {fuzz_seed}: the crash must be absorbed in flight"
        );
        assert_eq!(rep.restarts, 0, "seed {fuzz_seed}: no whole-run restart allowed");
        assert!(!rep.recovery_degraded, "seed {fuzz_seed}: must not degrade");
        assert!(
            rep.faults.iter().any(|f| f.kind == FaultKind::Crash),
            "seed {fuzz_seed}: the recovered crash must still be reported: {:?}",
            rep.faults
        );
        assert!(
            rep.recovery_events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::Respawned { .. })),
            "seed {fuzz_seed}: a respawn event must be recorded"
        );
        assert_eq!(
            surface_md5(&clean),
            surface_md5(&rep),
            "seed {fuzz_seed}: surface diverged under supervised chaos"
        );
        assert_eq!(clean.pgv.data, rep.pgv.data, "seed {fuzz_seed}: PGV diverged");
        assert_eq!(clean.collection_checksum, rep.collection_checksum, "seed {fuzz_seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
}

#[test]
fn recovery_degrades_to_whole_run_restart_ladder() {
    // Degradation ladder: a crash *before the first checkpoint epoch*
    // leaves the supervisor nothing to roll back to — the pass must
    // degrade, fall through to the whole-run restart rung, and the
    // restarted run (one-shot fault already fired) must still finish
    // bit-exact.
    let rep_clean = clean_reference("recov-degrade-clean");

    let sc = Scenario::shakeout_k(20, 0.3).with_duration(20.0);
    let run = sc.prepare();
    let dir = scratch_dir("recov-degrade");
    let mut wf = WorkflowSession::new([2, 1, 1])
        .with_chaos(
            Arc::new(FaultPlan::new(0xDE6D).with_crash(1, 2)),
            WatchdogConfig { timeout: Duration::from_secs(10), poll: Duration::from_millis(50) },
        )
        .with_recovery(RetryPolicy::new(3));
    wf.checkpoint_every = Some(4);
    let rep = wf.execute(&run, &dir).expect("degraded run must still converge via restart");

    assert!(rep.recovery_degraded, "no epoch to roll back to ⇒ must degrade");
    assert!(rep.restarts >= 1, "degradation must fall through to a whole-run restart");
    assert!(
        rep.recovery_events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Degraded { .. })),
        "a Degraded event must be recorded: {:?}",
        rep.recovery_events
    );
    assert!(rep.faults.iter().any(|f| f.kind == FaultKind::Crash));
    assert_eq!(rep_clean.pgv.data, rep.pgv.data, "PGV must match bitwise after the ladder");
    assert_eq!(surface_md5(&rep_clean), surface_md5(&rep));
    assert!(rep.archive_verified);
    let _ = std::fs::remove_dir_all(&dir);
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
