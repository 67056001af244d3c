//! `awp` — command-line front door to the AWP-ODC reproduction.
//!
//! ```text
//! awp scenarios                         list the milestone catalogue
//! awp run <name> [nx] [seconds]         run a scenario serially, print PGVs
//! awp workflow [name] [nx] [seconds]    run the full E2E workflow (4 ranks)
//! awp efficiency                        print the Eq. (8) M8 numbers
//! awp machines                          print the Table-1 registry
//! awp chaos --chaos-seed <n> [name]     seeded fault-injection soak: the
//!                                       chaos run must reproduce the clean
//!                                       run bit-for-bit or exit nonzero
//! awp analyze <trace.json>              causal critical-path profile of a
//!                                       Chrome trace written by --trace-out
//! awp serve [--smoke]                   ensemble hazard-query server
//!                                       (catalogs, cached scenario runs)
//! ```
//!
//! Telemetry flags (workflow runs; `awp --profile` alone runs a small
//! default workflow):
//!
//! ```text
//! --profile            print the cross-rank TelemetryReport after the solve
//! --trace-out FILE     write a Chrome trace-event JSON (open in Perfetto);
//!                      the trace is parsed back and validated before exit
//! ```

use awp_odc::perfmodel::machines::Machine;
use awp_odc::perfmodel::speedup::{efficiency, m8_mesh, m8_parts, speedup, ModelInput, PAPER_C};
use awp_odc::scenario::{RuptureDirection, Scenario};
use awp_odc::stats::{read_stream, validate_stream, StatsAddr, StatsServer};
use awp_odc::telemetry::{LiveStats, Registry, STATS_PROTO_VERSION};
use awp_odc::vcluster::fault::{FaultPlan, WatchdogConfig};
use awp_odc::vcluster::RetryPolicy;
use awp_odc::workflow::{scratch_dir, E2EWorkflow};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  awp scenarios\n  awp run <name> [nx] [seconds] [--lts]\n  awp workflow [name] [nx] [seconds] [--lts] [--stats-addr A]\n               [--profile] [--trace-out FILE] [--health-every N]\n  awp verify [--smoke] [--lts] [--seeds N] [--base-seed S] [--out FILE]\n  awp stats --smoke | (<addr> | --stats-addr A) [--snapshots N]\n            connect to a live run's stats endpoint (TCP host:port or\n            unix:<path>), read the versioned hello + N snapshot lines,\n            schema-check them, and print the stream; --smoke self-tests\n            against an in-process shakeout-k workflow\n  awp analyze <trace.json> [--top N] [--json FILE]\n            reconstruct the cross-rank causal DAG from a Chrome trace\n            (written by --trace-out), walk the critical path, and print\n            the wall-clock attribution; --json writes a schema-checked\n            analyze.json artifact\n  awp serve [--addr A] [--root DIR]\n            run the ensemble hazard-query server (protocol awp-serve v1,\n            newline-delimited versioned JSON over TCP or unix:<path>):\n            catalog runs, cached scenario queries, hazard curves\n  awp serve --smoke\n            end-to-end self-test: in-process server + client, seeded\n            8-event catalog through the job queue, cache-hit check on a\n            repeated query, cold-store replay verified bit-exact\n  awp analyze --smoke [--json FILE]\n            self-test: trace an in-process 8-rank --lts workflow, analyze\n            it, and require the critical path to cover ≥ 90% of the wall\n            clock\n  awp efficiency\n  awp machines\n  awp chaos --chaos-seed <n> [name] [nx] [seconds]\n  awp chaos --recover [--fault crash|stall|both] [--chaos-seed <n>]\n            seeded rank-failure drill: the run must complete via in-flight\n            supervisor recovery (rollback-rejoin, no whole-run restart) and\n            stay bit-identical to the clean run, or exit nonzero\n  awp --profile [--trace-out FILE]      profiled default workflow\n\n--stats-addr serves live per-rank telemetry at A while the run is in\nflight (newline-delimited versioned JSON, protocol awp-stats v2);\n--health-every N scans the shell slabs for NaN/Inf every N steps and\naborts on the first non-finite velocity (0 = off, the default);\n--flight-dir DIR arms the crash flight recorder: on a rank fault or\ndegradation the supervisor dumps DIR/flightrec-<rank>.json with the last\nenvelopes and span tails for each rank\n\nscenario names: terashake-k | terashake-d | shakeout-k | shakeout-d |\n                wall-to-wall | m8 | pnw"
    );
    std::process::exit(2);
}

/// Validate a Chrome trace-event JSON string: it must parse, carry a
/// non-empty `traceEvents` array, and every event must have the fields
/// Perfetto needs (`name`/`ph`/`pid`, plus `ts`/`dur` on complete events).
/// Returns the number of complete ("X") span events.
fn validate_chrome_trace(trace: &str) -> Result<usize, String> {
    let v: serde_json::Value =
        serde_json::from_str(trace).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = v["traceEvents"]
        .as_array()
        .ok_or("traceEvents missing or not an array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let mut spans = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev["ph"].as_str().ok_or(format!("event {i}: missing ph"))?;
        ev["name"].as_str().ok_or(format!("event {i}: missing name"))?;
        ev["pid"].as_f64().ok_or(format!("event {i}: missing pid"))?;
        if ph == "X" {
            ev["ts"].as_f64().ok_or(format!("event {i}: X event missing ts"))?;
            let dur = ev["dur"].as_f64().ok_or(format!("event {i}: X event missing dur"))?;
            if dur < 0.0 {
                return Err(format!("event {i}: negative dur"));
            }
            spans += 1;
        }
    }
    if spans == 0 {
        return Err("trace has metadata but no span events".into());
    }
    Ok(spans)
}

fn build_scenario(name: &str, nx: usize) -> Scenario {
    match name {
        "terashake-k" => Scenario::terashake_k(nx, RuptureDirection::SeToNw),
        "terashake-d" => Scenario::terashake_d(nx, 1992),
        "shakeout-k" => Scenario::shakeout_k(nx, 0.3),
        "shakeout-d" => Scenario::shakeout_d(nx, 7),
        "wall-to-wall" => Scenario::wall_to_wall(nx),
        "m8" => Scenario::m8(nx, 2010),
        "pnw" => Scenario::pacific_northwest(nx, 9.0),
        other => {
            eprintln!("unknown scenario '{other}'");
            usage()
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Telemetry flags may appear anywhere; strip them before the
    // subcommand dispatch so positional parsing stays simple.
    let mut profile = false;
    let mut trace_out: Option<PathBuf> = None;
    if let Some(i) = args.iter().position(|a| a == "--profile") {
        profile = true;
        args.remove(i);
    }
    if let Some(i) = args.iter().position(|a| a == "--trace-out") {
        let path = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        trace_out = Some(PathBuf::from(path));
        args.drain(i..=i + 1);
    }
    // Clustered local time stepping: valid on run/workflow (arms
    // `opts.lts`, a no-op ladder on media without ≥2 dt octaves) and on
    // verify (delegation-contract gate).
    let mut lts = false;
    if let Some(i) = args.iter().position(|a| a == "--lts") {
        lts = true;
        args.remove(i);
    }
    // The live streaming-stats endpoint address.
    let mut stats_addr: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--stats-addr") {
        let addr = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        stats_addr = Some(addr);
        args.drain(i..=i + 1);
    }
    // Simulation-health sentinel cadence (0 = off) and the crash flight
    // recorder dump directory.
    let mut health_every: u64 = 0;
    if let Some(i) = args.iter().position(|a| a == "--health-every") {
        health_every = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage());
        args.drain(i..=i + 1);
    }
    let mut flight_dir: Option<PathBuf> = None;
    if let Some(i) = args.iter().position(|a| a == "--flight-dir") {
        let dir = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        flight_dir = Some(PathBuf::from(dir));
        args.drain(i..=i + 1);
    }
    let profiling = profile || trace_out.is_some();
    if args.is_empty() && profiling {
        // Bare `awp --profile [--trace-out f]`: profile a small default
        // workflow rather than erroring out.
        args = vec!["workflow".into(), "shakeout-k".into(), "24".into(), "15".into()];
    }
    match args.first().map(String::as_str) {
        Some("scenarios") => {
            println!("{:<14} {:>8} {:>10} {:>8}  description", "name", "box (km)", "fault (km)", "source");
            for name in
                ["terashake-k", "terashake-d", "shakeout-k", "shakeout-d", "wall-to-wall", "m8", "pnw"]
            {
                let sc = build_scenario(name, 48);
                println!(
                    "{:<14} {:>4.0}x{:<4.0} {:>10.0} {:>8}  {}",
                    name,
                    sc.length / 1e3,
                    sc.width / 1e3,
                    sc.trace().length() / 1e3,
                    match sc.source {
                        awp_odc::scenario::SourceSpec::Kinematic { .. } => "kinem.",
                        awp_odc::scenario::SourceSpec::Dynamic { .. } => "dynam.",
                    },
                    sc.description
                );
            }
        }
        Some("run") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let nx: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(96);
            let secs: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(60.0);
            let sc = build_scenario(name, nx).with_duration(secs);
            println!("{} — {}", sc.name, sc.description);
            let mut run = sc.prepare();
            if lts {
                run.cfg.opts.lts = Some(awp_solver::LtsOpts::new());
            }
            println!(
                "grid {:?} (h = {:.1} km), {} steps, source Mw {:.2}",
                run.cfg.dims,
                sc.h() / 1e3,
                run.cfg.steps,
                run.source.magnitude()
            );
            let rep = run.run_serial();
            println!(
                "done in {:.1} s ({:.2} Gflop/s); PGV max {:.2} m/s",
                rep.elapsed_s,
                rep.sustained_flops() / 1e9,
                rep.pgv.max()
            );
            println!("\ncity PGVH (m/s):");
            for s in &rep.seismograms {
                println!("  {:<18} {:>7.3}", s.station.name, s.pgvh_rss());
            }
            println!("\n{}", rep.pgv.to_ascii(90));
        }
        Some("workflow") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let nx: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(48);
            let secs: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(30.0);
            let sc = build_scenario(name, nx).with_duration(secs);
            let dir = scratch_dir("awp-cli");
            println!("{} → E2E workflow on 4 ranks (workdir {dir:?})", sc.name);
            let registry = profiling.then(|| Registry::new(4));
            let mut run = sc.prepare();
            if lts {
                run.cfg.opts.lts = Some(awp_solver::LtsOpts::new());
            }
            run.cfg.opts.health_every = health_every;
            let mut wf = E2EWorkflow::new(run, [2, 2, 1], &dir);
            if let Some(fdir) = &flight_dir {
                wf = wf.with_flight_recorder(fdir.clone());
            }
            if let Some(reg) = &registry {
                wf = wf.with_telemetry(Arc::clone(reg));
                // A profiled run should show the checkpoint phase on every
                // rank's track. Epochs save when `done % every == 0 && done <
                // steps`, so a cadence of 4 still fires on the short smoke
                // runs (8 steps) used by final_verify.sh.
                wf.session.checkpoint_every = Some(4);
            }
            // Live streaming stats: serve the endpoint for the whole run;
            // clients connect with `awp stats --stats-addr <A>`.
            let live_srv = stats_addr.as_ref().map(|a| {
                let live = LiveStats::new(4);
                let srv = StatsServer::serve(
                    &StatsAddr::parse(a),
                    Arc::clone(&live),
                    Duration::from_millis(250),
                )
                .expect("stats endpoint bind failed");
                println!("live stats endpoint at {}", srv.local_addr());
                (live, srv)
            });
            if let Some((live, _)) = &live_srv {
                wf = wf.with_live_stats(Arc::clone(live));
            }
            let rep = wf.execute().expect("workflow failed");
            if let Some((_, srv)) = live_srv {
                srv.stop();
            }
            println!("{:<20} {:>9} {:>10} {:>9}", "stage", "seconds", "MB", "MB/s");
            for s in &rep.stages {
                println!(
                    "{:<20} {:>9.2} {:>10.2} {:>9.1}",
                    s.stage,
                    s.seconds,
                    s.bytes as f64 / 1e6,
                    s.mb_per_s()
                );
            }
            println!(
                "archive verified: {}; collection MD5 {}",
                rep.archive_verified, rep.collection_checksum
            );
            if let Some(reg) = &registry {
                if profile {
                    println!("\n{}", reg.report());
                }
                if let Some(path) = &trace_out {
                    let trace = reg.chrome_trace();
                    std::fs::write(path, &trace)
                        .unwrap_or_else(|e| panic!("writing {path:?} failed: {e}"));
                    // Self-validate: parse the emitted trace back before
                    // claiming success, so a malformed trace is a CLI
                    // failure, not a surprise inside Perfetto.
                    match validate_chrome_trace(&trace) {
                        Ok(spans) => println!("chrome trace → {} ({spans} span events)", path.display()),
                        Err(why) => {
                            eprintln!("INVALID chrome trace {}: {why}", path.display());
                            std::process::exit(1);
                        }
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        Some("verify") => {
            let rest = &args[1..];
            let smoke = rest.iter().any(|a| a == "--smoke");
            let seeds = rest
                .iter()
                .position(|a| a == "--seeds")
                .map(|i| rest.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            let base_seed = rest
                .iter()
                .position(|a| a == "--base-seed")
                .map(|i| rest.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            let out = rest
                .iter()
                .position(|a| a == "--out")
                .map(|i| rest.get(i + 1).map(PathBuf::from).unwrap_or_else(|| usage()))
                .unwrap_or_else(|| PathBuf::from("results/verify.json"));
            let mode = if smoke { "smoke" } else { "full" };
            let lts_note = if lts { ", lts armed" } else { "" };
            println!("quantitative verification ({mode} mode{lts_note})\n");
            let report = awp_odc::verify::run(&awp_odc::verify::VerifySpec {
                smoke,
                seeds,
                base_seed,
                lts,
            });

            println!("{:<16} {:>10} {:>10} {:>10}  gate", "accuracy case", "worst L2", "worst env", "shift/dt");
            for c in &report.accuracy {
                println!(
                    "{:<16} {:>10.4} {:>10.4} {:>10.2}  {} (L2 ≤ {}, env ≤ {})",
                    c.case,
                    c.worst_l2,
                    c.worst_envelope,
                    c.worst_shift_dt,
                    if c.passed { "pass" } else { "FAIL" },
                    c.l2_tol,
                    c.env_tol,
                );
            }
            let conv = &report.convergence;
            let errs: Vec<String> =
                conv.levels.iter().map(|l| format!("{}³→{:.2e}", l.n, l.error)).collect();
            println!(
                "\nconvergence: order {:.2} in [{}, {}] → {}  ({})",
                conv.observed_order,
                conv.order_lo,
                conv.order_hi,
                if conv.passed { "pass" } else { "FAIL" },
                errs.join(", "),
            );
            let fz = &report.fuzz;
            println!(
                "schedule fuzz: {} seeds × {} ranks × {} steps, baseline {} → {}",
                fz.runs,
                fz.ranks,
                fz.steps,
                fz.baseline_fingerprint,
                if fz.passed {
                    "bit-exact".to_string()
                } else {
                    format!("MISMATCH at seeds {:?}", fz.mismatched_seeds)
                },
            );

            report.write(&out).unwrap_or_else(|e| panic!("writing {out:?} failed: {e}"));
            // Self-validate the emitted artifact, same discipline as the
            // Chrome-trace path: a malformed report is a CLI failure.
            let text = std::fs::read_to_string(&out)
                .unwrap_or_else(|e| panic!("reading back {out:?} failed: {e}"));
            match awp_odc::verify::report::validate_json(&text) {
                Ok(cases) => println!("\nreport → {} ({cases} accuracy cases)", out.display()),
                Err(why) => {
                    eprintln!("INVALID verify report {}: {why}", out.display());
                    std::process::exit(1);
                }
            }
            if !report.passed {
                eprintln!("\nVERIFICATION FAILED");
                std::process::exit(1);
            }
            println!("verification passed");
        }
        Some("stats") => {
            let rest = &args[1..];
            let smoke = rest.iter().any(|a| a == "--smoke");
            let snapshots: usize = rest
                .iter()
                .position(|a| a == "--snapshots")
                .map(|i| rest.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()))
                .unwrap_or(3);
            if smoke {
                // Self-test: serve an ephemeral endpoint, run a shakeout-k
                // workflow against it, and play the client ourselves — the
                // stream must carry ≥ 2 schema-valid versioned snapshots.
                let sc = build_scenario("shakeout-k", 24).with_duration(15.0);
                let run = sc.prepare();
                let live = LiveStats::new(4);
                let srv = StatsServer::serve(
                    &StatsAddr::parse("127.0.0.1:0"),
                    Arc::clone(&live),
                    Duration::from_millis(50),
                )
                .expect("stats endpoint bind failed");
                let addr = srv.local_addr().clone();
                println!("stats smoke: endpoint {addr}, shakeout-k workflow");
                let want = snapshots.max(2);
                let reader = std::thread::spawn(move || {
                    read_stream(&addr, want, Duration::from_secs(30))
                });
                let dir = scratch_dir("awp-stats-smoke");
                let wf = E2EWorkflow::new(run, [2, 2, 1], &dir)
                    .with_live_stats(Arc::clone(&live));
                let rep = wf.execute().expect("stats smoke workflow failed");
                let lines = reader
                    .join()
                    .expect("stats client thread panicked")
                    .expect("stats client read failed");
                srv.stop();
                let _ = std::fs::remove_dir_all(&dir);
                match validate_stream(&lines) {
                    Ok((ranks, snaps)) if snaps >= 2 => println!(
                        "stats smoke passed: {ranks} ranks, {snaps} schema-valid snapshots \
                         (archive verified: {})",
                        rep.archive_verified
                    ),
                    Ok((_, snaps)) => {
                        eprintln!("STATS SMOKE FAILED: only {snaps} snapshots streamed");
                        std::process::exit(1);
                    }
                    Err(why) => {
                        eprintln!("STATS SMOKE FAILED: {why}");
                        std::process::exit(1);
                    }
                }
            } else {
                let addr = stats_addr
                    .clone()
                    .or_else(|| {
                        rest.iter().find(|a| !a.starts_with("--")).cloned()
                    })
                    .unwrap_or_else(|| usage());
                let addr = StatsAddr::parse(&addr);
                let lines = read_stream(&addr, snapshots, Duration::from_secs(10))
                    .unwrap_or_else(|e| {
                        eprintln!("connecting to {addr} failed: {e}");
                        std::process::exit(1);
                    });
                match validate_stream(&lines) {
                    Ok((ranks, snaps)) => {
                        println!("# {addr}: {ranks} ranks, {snaps} snapshots (awp-stats v{STATS_PROTO_VERSION})");
                        for l in &lines {
                            println!("{l}");
                        }
                    }
                    Err(why) => {
                        eprintln!("INVALID stats stream from {addr}: {why}");
                        std::process::exit(1);
                    }
                }
            }
        }
        Some("serve") => {
            // Ensemble engine + hazard-query server (protocol awp-serve v1,
            // same newline-JSON discipline as awp-stats).
            let rest = &args[1..];
            if rest.iter().any(|a| a == "--smoke") {
                if let Err(why) = awp_ensemble::serve::smoke() {
                    eprintln!("SERVE SMOKE FAILED: {why}");
                    std::process::exit(1);
                }
            } else {
                let root = rest
                    .iter()
                    .position(|a| a == "--root")
                    .map(|i| rest.get(i + 1).cloned().unwrap_or_else(|| usage()))
                    .unwrap_or_else(|| "awp-ensemble".to_string());
                let addr = rest
                    .iter()
                    .position(|a| a == "--addr")
                    .map(|i| rest.get(i + 1).cloned().unwrap_or_else(|| usage()))
                    .unwrap_or_else(|| "127.0.0.1:7075".to_string());
                let engine = awp_ensemble::EnsembleEngine::open(&root, [2, 2, 1])
                    .expect("ensemble root open failed");
                let srv =
                    awp_ensemble::ServeServer::serve(&StatsAddr::parse(&addr), engine)
                        .expect("serve endpoint bind failed");
                println!(
                    "awp-serve v1 listening at {} (results root {root}); Ctrl-C to stop",
                    srv.local_addr()
                );
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
        }
        Some("analyze") => {
            use awp_odc::analyze::{parse_trace, render, to_json, validate_json};
            let rest = &args[1..];
            let smoke = rest.iter().any(|a| a == "--smoke");
            let top: usize = rest
                .iter()
                .position(|a| a == "--top")
                .map(|i| rest.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()))
                .unwrap_or(5);
            let json_out = rest
                .iter()
                .position(|a| a == "--json")
                .map(|i| rest.get(i + 1).map(PathBuf::from).unwrap_or_else(|| usage()));
            let trace = if smoke {
                // Self-test: trace an in-process 8-rank clustered-LTS
                // workflow and analyze our own artifact — the causal DAG
                // gate (≥ 90% wall-clock coverage) runs below.
                let sc = build_scenario("shakeout-k", 24).with_duration(15.0);
                let mut run = sc.prepare();
                run.cfg.opts.lts = Some(awp_solver::LtsOpts::new());
                run.cfg.opts.health_every = health_every;
                println!("analyze smoke: 8-rank --lts {} workflow, tracing armed", sc.name);
                let registry = Registry::new(8);
                let dir = scratch_dir("awp-analyze-smoke");
                // LTS clusters are z-slabs, so the 8-rank decomposition
                // keeps a single z part.
                let mut wf = E2EWorkflow::new(run, [4, 2, 1], &dir)
                    .with_telemetry(Arc::clone(&registry));
                wf.session.checkpoint_every = Some(4);
                let rep = wf.execute().expect("analyze smoke workflow failed");
                let _ = std::fs::remove_dir_all(&dir);
                println!("workflow done (archive verified: {})", rep.archive_verified);
                registry.chrome_trace()
            } else {
                let path = rest
                    .iter()
                    .find(|a| !a.starts_with("--"))
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage());
                std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("reading {path:?} failed: {e}"))
            };
            let graph = parse_trace(&trace).unwrap_or_else(|why| {
                eprintln!("INVALID trace: {why}");
                std::process::exit(1);
            });
            let path = graph.critical_path();
            println!("{}", render(&graph, &path, top));
            let json_out = json_out
                .or_else(|| smoke.then(|| PathBuf::from("results/analyze.json")));
            if let Some(out) = json_out {
                if let Some(parent) = out.parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                let doc = to_json(&graph, &path);
                std::fs::write(&out, &doc)
                    .unwrap_or_else(|e| panic!("writing {out:?} failed: {e}"));
                // Self-validate before claiming success, same discipline
                // as the verify-report and Chrome-trace paths.
                match validate_json(&doc) {
                    Ok(()) => println!("analysis → {}", out.display()),
                    Err(why) => {
                        eprintln!("INVALID analyze report {}: {why}", out.display());
                        std::process::exit(1);
                    }
                }
            }
            if smoke {
                let cov = path.coverage();
                if cov < 0.90 {
                    eprintln!(
                        "ANALYZE SMOKE FAILED: critical path covers {:.1}% of wall clock (< 90%)",
                        cov * 100.0
                    );
                    std::process::exit(1);
                }
                println!(
                    "analyze smoke passed: {} hops cover {:.1}% of wall clock \
                     ({} edges, {} unmatched recvs)",
                    path.hops.len(),
                    cov * 100.0,
                    graph.edges.len(),
                    graph.unmatched_recvs
                );
            }
        }
        Some("efficiency") => {
            let inp = ModelInput {
                n: m8_mesh(),
                parts: m8_parts(),
                machine: Machine::Jaguar.profile(),
                c: PAPER_C,
            };
            println!(
                "M8 on 223,074 Jaguar cores (Eq. 8): speedup {:.4e}, efficiency {:.1}%",
                speedup(&inp),
                efficiency(&inp) * 100.0
            );
            println!("paper §V.A: 2.20e5 / 98.6%");
        }
        Some("chaos") => {
            // Flag-style seed so the verify script reads naturally:
            // `awp chaos --chaos-seed 3405691582 shakeout-k`.
            let mut rest: Vec<&str> = args[1..].iter().map(String::as_str).collect();
            let mut seed: u64 = 0xC4A0_5EED;
            if let Some(i) = rest.iter().position(|a| *a == "--chaos-seed") {
                seed = rest
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                rest.drain(i..=i + 1);
            }
            let mut recover = false;
            if let Some(i) = rest.iter().position(|a| *a == "--recover") {
                recover = true;
                rest.remove(i);
            }
            let mut fault_mode = "crash";
            if let Some(i) = rest.iter().position(|a| *a == "--fault") {
                fault_mode = rest.get(i + 1).copied().unwrap_or_else(|| usage());
                if !matches!(fault_mode, "crash" | "stall" | "both") {
                    usage();
                }
                rest.drain(i..=i + 1);
            }
            let name = rest.first().copied().unwrap_or("shakeout-k");
            let nx: usize = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(20);
            let secs: f64 = rest.get(2).and_then(|s| s.parse().ok()).unwrap_or(20.0);
            let sc = build_scenario(name, nx).with_duration(secs);

            let clean_dir = scratch_dir("awp-chaos-clean");
            let rep_clean = E2EWorkflow::new(sc.prepare(), [2, 1, 1], &clean_dir)
                .execute()
                .expect("clean reference run failed");

            if recover {
                // Recovery drill: a directed single-rank failure must be
                // absorbed *in flight* — supervisor rollback to the last
                // MD5-consistent epoch and respawn, costing one epoch of
                // rework — with zero whole-run restarts and a bit-exact
                // surface. Crash step 5 / stall step 6 sit just past the
                // first checkpoint epoch (cadence 4), so a rollback line
                // always exists.
                let mut run = sc.prepare();
                run.cfg.opts.health_every = health_every;
                let mut plan = FaultPlan::new(seed);
                if matches!(fault_mode, "crash" | "both") {
                    plan = plan.with_crash(1, 5);
                }
                if matches!(fault_mode, "stall" | "both") {
                    plan = plan.with_stall(0, 6, 3600.0);
                }
                let plan = Arc::new(plan);
                println!(
                    "{} → recovery drill ({fault_mode}), seed {seed:#x}, schedule: {}",
                    sc.name,
                    plan.schedule_digest()
                );
                let drill_dir = scratch_dir("awp-chaos-recover");
                let registry = profiling.then(|| Registry::new(2));
                let mut wf = E2EWorkflow::new(run, [2, 1, 1], &drill_dir);
                if let Some(fdir) = &flight_dir {
                    wf = wf.with_flight_recorder(fdir.clone());
                }
                wf.session.checkpoint_every = Some(4);
                wf = wf
                    .with_chaos(
                        plan,
                        WatchdogConfig {
                            timeout: Duration::from_secs(2),
                            poll: Duration::from_millis(50),
                        },
                    )
                    .with_recovery(RetryPolicy::new(3).with_jitter(0.25, seed));
                if let Some(reg) = &registry {
                    wf = wf.with_telemetry(Arc::clone(reg));
                }
                let rep = wf.execute().expect("recovery drill failed to converge");
                for f in &rep.faults {
                    println!("  recovered: {f}");
                }
                println!(
                    "  in-flight recoveries: {}; whole-run restarts: {}; degraded: {}; \
                     dead letters: {} drained / {} retained",
                    rep.in_flight_recoveries,
                    rep.restarts,
                    rep.recovery_degraded,
                    rep.dead_letters.total,
                    rep.dead_letters.retained,
                );
                if let Some(reg) = &registry {
                    if profile {
                        println!("\n{}", reg.report());
                    }
                }
                let clean_md5 = awp_odc::pario::Md5::digest_hex(
                    &std::fs::read(&rep_clean.surface_file).unwrap(),
                );
                let drill_md5 =
                    awp_odc::pario::Md5::digest_hex(&std::fs::read(&rep.surface_file).unwrap());
                let pgv_ok = rep_clean.pgv.data == rep.pgv.data;
                let _ = std::fs::remove_dir_all(&clean_dir);
                let _ = std::fs::remove_dir_all(&drill_dir);
                let recovered_in_flight = rep.in_flight_recoveries >= 1
                    && rep.restarts == 0
                    && !rep.recovery_degraded;
                if recovered_in_flight && pgv_ok && clean_md5 == drill_md5 {
                    println!(
                        "recovery drill passed: in-flight recovery, bit-identical surface \
                         (MD5 {clean_md5})"
                    );
                } else {
                    eprintln!(
                        "RECOVERY DRILL FAILED: in_flight={} restarts={} degraded={} \
                         pgv_ok={pgv_ok} clean_md5={clean_md5} drill_md5={drill_md5}",
                        rep.in_flight_recoveries, rep.restarts, rep.recovery_degraded,
                    );
                    std::process::exit(1);
                }
                return;
            }

            let mut run = sc.prepare();
            run.cfg.opts.health_every = health_every;
            let steps = run.cfg.steps as u64;
            let plan = Arc::new(FaultPlan::random(seed, 2, steps));
            println!(
                "{} → chaos soak, seed {seed:#x}, schedule: {}",
                sc.name,
                plan.schedule_digest()
            );
            let chaos_dir = scratch_dir("awp-chaos");
            let mut wf = E2EWorkflow::new(run, [2, 1, 1], &chaos_dir);
            if let Some(fdir) = &flight_dir {
                wf = wf.with_flight_recorder(fdir.clone());
            }
            wf.session.checkpoint_every = Some(4);
            wf.session.max_restarts = 6;
            wf = wf.with_chaos(
                plan,
                WatchdogConfig {
                    timeout: Duration::from_secs(5),
                    poll: Duration::from_millis(50),
                },
            );
            let rep = wf.execute().expect("chaos run failed to converge");
            for f in &rep.faults {
                println!("  injected: {f}");
            }
            println!("  restarts: {}", rep.restarts);

            let clean_md5 =
                awp_odc::pario::Md5::digest_hex(&std::fs::read(&rep_clean.surface_file).unwrap());
            let chaos_md5 =
                awp_odc::pario::Md5::digest_hex(&std::fs::read(&rep.surface_file).unwrap());
            let pgv_ok = rep_clean.pgv.data == rep.pgv.data;
            let _ = std::fs::remove_dir_all(&clean_dir);
            let _ = std::fs::remove_dir_all(&chaos_dir);
            if pgv_ok && clean_md5 == chaos_md5 {
                println!("chaos run bit-identical to clean run (surface MD5 {clean_md5})");
            } else {
                eprintln!(
                    "MISMATCH: pgv_ok={pgv_ok} clean_md5={clean_md5} chaos_md5={chaos_md5}"
                );
                std::process::exit(1);
            }
        }
        Some("machines") => {
            for m in Machine::ALL {
                let p = m.profile();
                println!(
                    "{:<10} {:<22} {:>7} cores {:>6.1} Gf/core  α={:.1e} β={:.1e}",
                    p.name, p.interconnect, p.cores_used, p.peak_gflops, p.alpha, p.beta
                );
            }
        }
        _ => usage(),
    }
}
