//! Workspace-level telemetry integration: an instrumented E2E workflow
//! run must produce cross-rank aggregates, per-rank comm/checkpoint
//! counters, and a Chrome trace-event JSON that parses back with one
//! track per rank carrying the solver phases.

use awp_odc::scenario::Scenario;
use awp_odc::telemetry::{Counter, Phase, Registry};
use awp_odc::workflow::{scratch_dir, WorkflowSession};
use std::collections::{BTreeMap, BTreeSet};

#[test]
fn workflow_telemetry_end_to_end() {
    let sc = Scenario::shakeout_k(24, 0.3).with_duration(15.0);
    let run = sc.prepare();
    let dir = scratch_dir("wf-telemetry");
    let reg = Registry::new(4);
    let mut wf = WorkflowSession::new([2, 2, 1]).with_telemetry(reg.clone());
    wf.checkpoint_every = Some(8);
    let rep = wf.execute(&run, &dir).expect("workflow must complete");
    assert!(rep.archive_verified, "telemetry must not disturb the run itself");

    // Cross-rank aggregation.
    let telem = reg.report();
    assert_eq!(telem.ranks, 4);
    assert!(telem.load_imbalance >= 1.0, "max/mean is at least 1");
    assert!(
        (0.0..=1.0).contains(&telem.hidden_comm_fraction),
        "hidden-comm fraction is a fraction, got {}",
        telem.hidden_comm_fraction
    );
    // `Boundary` still records under a sponge — imaging, the deferred
    // rows, the leftover velocity planes — though most of the damping now
    // happens inside the `StressInterior` spans.
    for ph in [
        Phase::VelocityInterior,
        Phase::StressInterior,
        Phase::Send,
        Phase::Wait,
        Phase::Inject,
        Phase::Boundary,
        Phase::Checkpoint,
    ] {
        assert!(
            telem.phases[ph.index()].count > 0,
            "phase {} must have recorded spans",
            ph.name()
        );
    }
    let printed = telem.to_string();
    assert!(printed.contains("load imbalance"), "report prints the imbalance ratio");
    assert!(printed.contains("hidden-comm"), "report prints the hidden-comm fraction");

    let snaps = reg.snapshots();
    assert_eq!(snaps.len(), 4);
    assert!(snaps.iter().all(|s| s.enabled));
    assert!(snaps.iter().map(|s| s.counter(Counter::MsgsSent)).sum::<u64>() > 0);
    assert!(snaps.iter().map(|s| s.counter(Counter::BytesSent)).sum::<u64>() > 0);
    assert!(snaps.iter().map(|s| s.counter(Counter::CheckpointBytes)).sum::<u64>() > 0);

    // The Chrome trace parses back: one virtual pid per rank, and each
    // rank's track carries the solver + checkpoint phases.
    let trace = reg.chrome_trace();
    let v: serde_json::Value = serde_json::from_str(&trace).expect("trace must be valid JSON");
    let events = v["traceEvents"].as_array().expect("traceEvents must be an array");
    assert!(!events.is_empty());
    let mut names_by_pid: BTreeMap<i64, BTreeSet<String>> = BTreeMap::new();
    for ev in events {
        let pid = ev["pid"].as_f64().expect("every event has a pid") as i64;
        let ph = ev["ph"].as_str().expect("every event has a ph");
        if ph == "X" {
            assert!(ev["ts"].as_f64().is_some(), "X events carry ts");
            assert!(ev["dur"].as_f64().map(|d| d >= 0.0).unwrap_or(false), "X events carry dur");
            let name = ev["name"].as_str().expect("X events carry the phase name");
            names_by_pid.entry(pid).or_default().insert(name.to_string());
        }
    }
    assert_eq!(
        names_by_pid.keys().copied().collect::<Vec<_>>(),
        vec![0, 1, 2, 3],
        "one track per rank"
    );
    for (pid, names) in &names_by_pid {
        for want in [
            "velocity_interior",
            "stress_interior",
            "send",
            "wait",
            "inject",
            "boundary",
            "checkpoint",
        ] {
            assert!(names.contains(want), "rank {pid} track missing phase '{want}': {names:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flight_dump_reason_is_escaped_json() {
    // A panic message may carry quotes and newlines (any `assert_eq!` or
    // io-error `unwrap` does); the faulted rank's dump must still parse
    // and give the reason back verbatim.
    use awp_odc::vcluster::{Cluster, CommMode};
    let dir = scratch_dir("flight-escape");
    let c = Cluster::new(2, CommMode::Asynchronous).with_flight_recorder(&dir);
    let out = c.try_run(|ctx| {
        let peer = 1 - ctx.rank();
        ctx.send(peer, 1, vec![1.0f32]);
        ctx.recv(peer, 1);
        if ctx.rank() == 1 {
            panic!("bad \"x\"\nsecond line");
        }
    });
    assert!(out[1].is_err(), "rank 1 panicked");
    let dump = std::fs::read_to_string(dir.join("flightrec-1.json")).expect("rank 1 dumped");
    let v: serde_json::Value = serde_json::from_str(&dump).expect("the dump is valid JSON");
    assert_eq!(v["reason"].as_str(), Some("Panic: bad \"x\"\nsecond line"), "{dump}");
    assert_eq!(v["total_envelopes"].as_f64(), Some(2.0), "{dump}");
    assert_eq!(v["envelopes"].as_array().map(|e| e.len()), Some(2), "{dump}");
    let _ = std::fs::remove_dir_all(&dir);
}
