//! `awp` — command-line front door to the AWP-ODC reproduction.
//!
//! Every subcommand is one row of `COMMANDS`: its name, its positional
//! arguments, the flags it accepts, a line of help and the function that
//! runs it. The usage text is generated from that table, and a missing or
//! unknown subcommand, a flag the subcommand does not declare, a missing or
//! malformed value or a surplus argument prints it and exits 2.
//! `awp --profile [--trace-out FILE]` alone profiles a small default
//! workflow.

use awp_odc::scenario::{RuptureDirection, Scenario, ScenarioRun};
use awp_odc::stats::{read_stream, validate_stream, StatsAddr, StatsServer};
use awp_odc::telemetry::{LiveStats, Registry, STATS_PROTO_VERSION};
use awp_odc::vcluster::fault::{FaultPlan, WatchdogConfig};
use awp_odc::workflow::{scratch_dir, WorkflowSession};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

struct Command {
    name: &'static str,
    /// Positional arguments in order, `<required>` or `[optional]`.
    args: &'static str,
    /// Accepted flags: `"--seeds N"` takes a value, `"--lts"` does not.
    flags: &'static [&'static str],
    about: &'static str,
    run: fn(&Args),
}

const COMMANDS: &[Command] = &[
    Command {
        name: "scenarios",
        args: "",
        flags: &[],
        about: "list the milestone catalogue",
        run: scenarios,
    },
    Command {
        name: "run",
        args: "<name> [nx] [seconds]",
        flags: &["--lts"],
        about: "run a scenario serially, print PGVs",
        run,
    },
    Command {
        name: "workflow",
        args: "<name> [nx] [seconds]",
        flags: &[
            "--lts",
            "--stats-addr A",
            "--profile",
            "--trace-out FILE",
            "--health-every N",
            "--flight-dir DIR",
        ],
        about: "run the full E2E workflow on 4 ranks; --stats-addr serves live per-rank \
                telemetry at A while the run is in flight",
        run: workflow,
    },
    Command {
        name: "stats",
        args: "[addr]",
        flags: &["--smoke", "--stats-addr A", "--snapshots N"],
        about: "connect to a live run's stats endpoint (TCP host:port or unix:<path>), \
                read the versioned hello + N snapshot lines, schema-check them, and print \
                the stream; --smoke self-tests against an in-process shakeout-k workflow",
        run: stats,
    },
    Command {
        name: "analyze",
        args: "[trace.json]",
        flags: &["--smoke", "--top N", "--json FILE", "--health-every N"],
        about: "reconstruct the cross-rank causal DAG from a Chrome trace (written by \
                --trace-out), walk the critical path, and print the wall-clock \
                attribution; --json writes a schema-checked analyze.json artifact; \
                --smoke traces an in-process 8-rank --lts workflow and requires the \
                critical path to cover ≥ 90% of the wall clock",
        run: analyze,
    },
    Command {
        name: "serve",
        args: "",
        flags: &["--smoke", "--addr A", "--root DIR"],
        about: "run the ensemble hazard-query server (protocol awp-serve v1, \
                newline-delimited versioned JSON over TCP or unix:<path>): catalog runs, \
                cached scenario queries, hazard curves; --smoke: in-process server + \
                client, seeded 8-event catalog through the job queue, cache-hit check on a \
                repeated query, cold-store replay verified bit-exact",
        run: serve,
    },
    Command {
        name: "repro",
        args: "[ID...]",
        flags: &[],
        about: "reproduce the paper's evaluation: each row (T1 … F23, see below) prints its \
                table or figure and checks the paper's claim; exits 1 when a check's outcome \
                differs from its recorded one or a record cannot be written; writes each row's \
                record under results/; no ID runs every row",
        run: repro,
    },
    Command {
        name: "chaos",
        args: "[name] [nx] [seconds]",
        flags: &[
            "--chaos-seed N",
            "--fault crash|stall|both",
            "--profile",
            "--health-every N",
            "--flight-dir DIR",
        ],
        about: "fault-injection drill: a seeded random fault plan, or with --fault a directed \
                rank crash (rank 1, step 5) and/or stall (rank 0, step 6), is restarted from \
                the newest consistent checkpoint epoch and must reproduce the clean run \
                bit-for-bit or exit nonzero",
        run: chaos,
    },
];

const NOTES: &str = "  awp --profile [--trace-out FILE]
      profile a small default workflow

--health-every N scans the shell slabs for NaN/Inf every N steps and
aborts on the first non-finite velocity (0 = off, the default);
--flight-dir DIR arms the crash flight recorder: a rank that crashes,
panics or hangs dumps DIR/flightrec-<rank>.json with its last envelopes
and span tails

scenario names: terashake-k | terashake-d | shakeout-k | shakeout-d |
                wall-to-wall | m8 | pnw";

/// One subcommand's command line, checked against its [`Command`] row.
struct Args {
    pos: Vec<String>,
    /// Flags in the order given, with their values (`None`: a switch).
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value of `flag`; one that does not parse is a usage error.
    fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        let (_, v) = self.flags.iter().find(|(f, _)| f == flag)?;
        v.as_deref().map(|v| parse_or_exit(v, flag))
    }

    /// Positional argument `i`, parsed like a flag value.
    fn arg<T: FromStr>(&self, i: usize) -> Option<T> {
        self.pos.get(i).map(|v| parse_or_exit(v, "an argument"))
    }
}

fn parse_or_exit<T: FromStr>(v: &str, what: &str) -> T {
    v.parse().unwrap_or_else(|_| usage_error(&format!("bad value '{v}' for {what}")))
}

/// Split `argv` into its subcommand and that subcommand's arguments.
fn parse(argv: &[String]) -> Result<(&'static Command, Args), String> {
    let profiled = argv.iter().any(|a| a == "--profile" || a == "--trace-out");
    let argv: Vec<String> = match argv.first() {
        None => return Err("missing subcommand".into()),
        // Bare `awp --profile [--trace-out FILE]`: a small profiled workflow.
        Some(first) if first.starts_with("--") && profiled => {
            ["workflow", "shakeout-k", "24", "15"]
                .iter()
                .map(|s| s.to_string())
                .chain(argv.to_vec())
                .collect()
        }
        Some(_) => argv.to_vec(),
    };
    let name = argv[0].as_str();
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown subcommand '{name}'"))?;
    let mut args = Args { pos: Vec::new(), flags: Vec::new() };
    let mut rest = argv[1..].iter();
    while let Some(a) = rest.next() {
        if !a.starts_with("--") {
            args.pos.push(a.clone());
            continue;
        }
        let spec = cmd
            .flags
            .iter()
            .find(|f| f.split(' ').next() == Some(a.as_str()))
            .ok_or_else(|| format!("'awp {name}' does not take {a}"))?;
        let value = if spec.contains(' ') {
            Some(rest.next().ok_or_else(|| format!("{a} needs a value"))?.clone())
        } else {
            None
        };
        args.flags.push((a.clone(), value));
    }
    let required = cmd.args.matches('<').count();
    let max =
        if cmd.args.ends_with("...]") { usize::MAX } else { cmd.args.split_whitespace().count() };
    if args.pos.len() < required || args.pos.len() > max {
        return Err(format!(
            "'awp {name}' takes {}",
            if max == 0 { "no arguments" } else { cmd.args }
        ));
    }
    Ok((cmd, args))
}

/// `words` joined by spaces and folded at 78 columns.
fn fold(words: impl IntoIterator<Item = String>, first: &str, rest: &str) -> String {
    let mut out = first.to_string();
    let mut col = first.len();
    for (i, word) in words.into_iter().enumerate() {
        if i > 0 && col + 1 + word.chars().count() > 78 {
            out = out + "\n" + rest;
            col = rest.len();
        } else if i > 0 {
            out.push(' ');
            col += 1;
        }
        col += word.chars().count();
        out += &word;
    }
    out
}

fn usage() -> String {
    let mut text = String::from("usage:\n");
    for c in COMMANDS {
        let synopsis = ["awp", c.name]
            .into_iter()
            .chain(c.args.split_whitespace())
            .map(String::from)
            .chain(c.flags.iter().map(|f| format!("[{f}]")));
        text += &fold(synopsis, "  ", "        ");
        text += "\n";
        text += &fold(c.about.split_whitespace().map(String::from), "      ", "      ");
        text += "\n";
    }
    let ids: Vec<&str> = awp_bench::repro::ROWS.iter().map(|r| r.id).collect();
    text + NOTES + "\n\n" + &fold(ids.iter().map(|s| s.to_string()), "repro rows: ", "            ")
}

fn usage_error(why: &str) -> ! {
    eprintln!("awp: {why}\n{}", usage());
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok((cmd, args)) => (cmd.run)(&args),
        Err(why) => usage_error(&why),
    }
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
        other => usage_error(&format!("unknown scenario '{other}'")),
    }
}

/// The `[name] [nx] [seconds]` positionals (name defaults to shakeout-k).
fn scenario(a: &Args, nx: usize, seconds: f64) -> Scenario {
    let name = a.pos.first().map_or("shakeout-k", String::as_str);
    build_scenario(name, a.arg(1).unwrap_or(nx)).with_duration(a.arg(2).unwrap_or(seconds))
}

/// Prepare `sc` with the solver flags: `--lts` (clustered local time
/// stepping; a no-op ladder on media without ≥ 2 dt octaves) and
/// `--health-every N` (NaN/Inf sentinel cadence, 0 = off).
fn prepare(a: &Args, sc: &Scenario) -> ScenarioRun {
    let mut run = sc.prepare();
    if a.has("--lts") {
        run.cfg.opts.lts = Some(awp_solver::LtsOpts::new());
    }
    run.cfg.opts.health_every = a.value("--health-every").unwrap_or(0);
    run
}

/// A session on `parts` with the crash flight recorder armed by
/// `--flight-dir DIR`.
fn session(a: &Args, parts: [usize; 3]) -> WorkflowSession {
    let session = WorkflowSession::new(parts);
    match a.value::<PathBuf>("--flight-dir") {
        Some(dir) => session.with_flight_recorder(dir),
        None => session,
    }
}

fn scenarios(_: &Args) {
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

fn run(a: &Args) {
    let sc = scenario(a, 96, 60.0);
    println!("{} — {}", sc.name, sc.description);
    let run = prepare(a, &sc);
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

fn workflow(a: &Args) {
    let sc = scenario(a, 48, 30.0);
    let profile = a.has("--profile");
    let trace_out: Option<PathBuf> = a.value("--trace-out");
    let dir = scratch_dir("awp-cli");
    println!("{} → E2E workflow on 4 ranks (workdir {dir:?})", sc.name);
    let registry = (profile || trace_out.is_some()).then(|| Registry::new(4));
    let run = prepare(a, &sc);
    let mut session = session(a, [2, 2, 1]);
    if let Some(reg) = &registry {
        session = session.with_telemetry(Arc::clone(reg));
        // A profiled run should show the checkpoint phase on every
        // rank's track. Epochs save when `done % every == 0 && done <
        // steps`, so a cadence of 4 still fires on the short smoke
        // runs (8 steps) used by final_verify.sh.
        session.checkpoint_every = Some(4);
    }
    // Live streaming stats: serve the endpoint for the whole run;
    // clients connect with `awp stats --stats-addr <A>`.
    let live_srv = a.value::<String>("--stats-addr").map(|addr| {
        let live = LiveStats::new(4);
        let srv = StatsServer::serve(
            &StatsAddr::parse(&addr),
            Arc::clone(&live),
            Duration::from_millis(250),
        )
        .expect("stats endpoint bind failed");
        println!("live stats endpoint at {}", srv.local_addr());
        (live, srv)
    });
    if let Some((live, _)) = &live_srv {
        session = session.with_live_stats(Arc::clone(live));
    }
    let rep = session.execute(&run, &dir).expect("workflow failed");
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
            std::fs::write(path, &trace).unwrap_or_else(|e| panic!("writing {path:?} failed: {e}"));
            // Self-validate: parse the emitted trace back before
            // claiming success, so a malformed trace is a CLI
            // failure, not a surprise inside Perfetto.
            let parsed = awp_odc::analyze::parse_trace(&trace).and_then(|g| match g.spans.len() {
                0 => Err("trace has no span events".to_string()),
                n => Ok(n),
            });
            match parsed {
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

fn stats(a: &Args) {
    let snapshots: usize = a.value("--snapshots").unwrap_or(3);
    if !a.has("--smoke") {
        let addr = a
            .value::<String>("--stats-addr")
            .or_else(|| a.pos.first().cloned())
            .unwrap_or_else(|| usage_error("'awp stats' needs an address or --smoke"));
        let addr = StatsAddr::parse(&addr);
        let lines = read_stream(&addr, snapshots, Duration::from_secs(10)).unwrap_or_else(|e| {
            eprintln!("connecting to {addr} failed: {e}");
            std::process::exit(1);
        });
        match validate_stream(&lines) {
            Ok((ranks, snaps)) => {
                println!(
                    "# {addr}: {ranks} ranks, {snaps} snapshots (awp-stats v{STATS_PROTO_VERSION})"
                );
                for l in &lines {
                    println!("{l}");
                }
            }
            Err(why) => {
                eprintln!("INVALID stats stream from {addr}: {why}");
                std::process::exit(1);
            }
        }
        return;
    }
    // Self-test: serve an ephemeral endpoint, run a shakeout-k workflow
    // against it, and play the client ourselves — the stream must carry
    // ≥ 2 schema-valid versioned snapshots.
    let run = build_scenario("shakeout-k", 24).with_duration(15.0).prepare();
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
    let reader = std::thread::spawn(move || read_stream(&addr, want, Duration::from_secs(30)));
    let dir = scratch_dir("awp-stats-smoke");
    let rep = WorkflowSession::new([2, 2, 1])
        .with_live_stats(Arc::clone(&live))
        .execute(&run, &dir)
        .expect("stats smoke workflow failed");
    let lines =
        reader.join().expect("stats client thread panicked").expect("stats client read failed");
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
}

/// Ensemble engine + hazard-query server (protocol awp-serve v1).
fn serve(a: &Args) {
    if a.has("--smoke") {
        if let Err(why) = awp_ensemble::serve::smoke() {
            eprintln!("SERVE SMOKE FAILED: {why}");
            std::process::exit(1);
        }
        return;
    }
    let root = a.value("--root").unwrap_or_else(|| "awp-ensemble".to_string());
    let addr = a.value("--addr").unwrap_or_else(|| "127.0.0.1:7075".to_string());
    let engine =
        awp_ensemble::EnsembleEngine::open(&root, [2, 2, 1]).expect("ensemble root open failed");
    let srv = awp_ensemble::ServeServer::serve(&StatsAddr::parse(&addr), engine)
        .expect("serve endpoint bind failed");
    println!(
        "awp-serve v1 listening at {} (results root {root}); Ctrl-C to stop",
        srv.local_addr()
    );
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn analyze(a: &Args) {
    use awp_odc::analyze::{parse_trace, render, to_json, validate_json};
    let smoke = a.has("--smoke");
    let top: usize = a.value("--top").unwrap_or(5);
    let trace = if smoke {
        // Self-test: trace an in-process 8-rank clustered-LTS workflow and
        // analyze our own artifact — the causal DAG gate (≥ 90% wall-clock
        // coverage) runs below.
        let sc = build_scenario("shakeout-k", 24).with_duration(15.0);
        let mut run = prepare(a, &sc);
        run.cfg.opts.lts = Some(awp_solver::LtsOpts::new());
        println!("analyze smoke: 8-rank --lts {} workflow, tracing armed", sc.name);
        let registry = Registry::new(8);
        let dir = scratch_dir("awp-analyze-smoke");
        // LTS clusters are z-slabs, so the 8-rank decomposition keeps a
        // single z part.
        let mut session = WorkflowSession::new([4, 2, 1]).with_telemetry(Arc::clone(&registry));
        session.checkpoint_every = Some(4);
        let rep = session.execute(&run, &dir).expect("analyze smoke workflow failed");
        let _ = std::fs::remove_dir_all(&dir);
        println!("workflow done (archive verified: {})", rep.archive_verified);
        registry.chrome_trace()
    } else {
        let path: PathBuf =
            a.arg(0).unwrap_or_else(|| usage_error("'awp analyze' needs a trace or --smoke"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path:?} failed: {e}"))
    };
    let graph = parse_trace(&trace).unwrap_or_else(|why| {
        eprintln!("INVALID trace: {why}");
        std::process::exit(1);
    });
    let path = graph.critical_path();
    println!("{}", render(&graph, &path, top));
    let json_out =
        a.value("--json").or_else(|| smoke.then(|| PathBuf::from("results/analyze.json")));
    if let Some(out) = json_out {
        if let Some(parent) = out.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let doc = to_json(&graph, &path);
        std::fs::write(&out, &doc).unwrap_or_else(|e| panic!("writing {out:?} failed: {e}"));
        // Self-validate before claiming success, same discipline as the
        // Chrome-trace path.
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

fn repro(a: &Args) {
    let rows = awp_bench::repro::select(&a.pos).unwrap_or_else(|why| usage_error(&why));
    let outcomes = awp_bench::repro::reproduce(&rows, awp_bench::repro::Size::Full);
    if outcomes.iter().any(|o| !o.agrees() || o.write_failed) {
        std::process::exit(1);
    }
}

fn chaos(a: &Args) {
    let seed: u64 = a.value("--chaos-seed").unwrap_or(0xC4A0_5EED);
    let fault_mode: Option<String> = a.value("--fault");
    let known = |m: &str| matches!(m, "crash" | "stall" | "both");
    if let Some(mode) = fault_mode.as_deref().filter(|m| !known(m)) {
        usage_error(&format!("unknown --fault '{mode}'"));
    }
    let sc = scenario(a, 20, 20.0);

    let clean_dir = scratch_dir("awp-chaos-clean");
    let rep_clean = WorkflowSession::new([2, 1, 1])
        .execute(&sc.prepare(), &clean_dir)
        .expect("clean reference run failed");
    let run = prepare(a, &sc);
    let mut session = session(a, [2, 1, 1]);
    session.checkpoint_every = Some(4);

    let (plan, timeout, drill) = match fault_mode.as_deref() {
        // Directed drill: crash step 5 / stall step 6 sit just past the
        // first checkpoint epoch (cadence 4), so each fault costs one
        // whole-run restart from epoch 4.
        Some(mode) => {
            let mut plan = FaultPlan::new(seed);
            if mode != "stall" {
                plan = plan.with_crash(1, 5);
            }
            if mode != "crash" {
                plan = plan.with_stall(0, 6, 3600.0);
            }
            (plan, Duration::from_secs(2), format!("directed {mode} drill"))
        }
        None => {
            session.max_restarts = 6;
            let plan = FaultPlan::random(seed, 2, run.cfg.steps as u64);
            (plan, Duration::from_secs(5), "chaos soak".to_string())
        }
    };
    println!("{} → {drill}, seed {seed:#x}, schedule: {}", sc.name, plan.schedule_digest());
    let registry = a.has("--profile").then(|| Registry::new(2));
    session = session
        .with_chaos(Arc::new(plan), WatchdogConfig { timeout, poll: Duration::from_millis(50) });
    if let Some(reg) = &registry {
        session = session.with_telemetry(Arc::clone(reg));
    }
    let chaos_dir = scratch_dir("awp-chaos");
    let rep = session.execute(&run, &chaos_dir).expect("chaos run failed to converge");
    for f in &rep.faults {
        println!("  injected: {f}");
    }
    println!("  restarts: {}", rep.restarts);
    if let Some(reg) = &registry {
        println!("\n{}", reg.report());
    }

    let clean_md5 =
        awp_odc::pario::Md5::digest_hex(&std::fs::read(&rep_clean.surface_file).unwrap());
    let chaos_md5 = awp_odc::pario::Md5::digest_hex(&std::fs::read(&rep.surface_file).unwrap());
    let pgv_ok = rep_clean.pgv.data == rep.pgv.data;
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
    if pgv_ok && clean_md5 == chaos_md5 {
        println!("chaos run bit-identical to clean run (surface MD5 {clean_md5})");
    } else {
        eprintln!("MISMATCH: pgv_ok={pgv_ok} clean_md5={clean_md5} chaos_md5={chaos_md5}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<(&'static str, Args), String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv).map(|(cmd, args)| (cmd.name, args))
    }

    /// Every invocation in final_verify.sh, README.md and the verify notes
    /// parses to the subcommand it names.
    #[test]
    fn documented_invocations_parse() {
        for line in [
            "scenarios",
            "repro",
            "repro T1",
            "repro S5A",
            "repro T1 S5A F19",
            "repro F13 F23",
            "repro VRF",
            "run shakeout-k 24 10",
            "run m8 144 90",
            "run shakeout-k 24 10 --lts",
            "workflow shakeout-k 24 10",
            "workflow shakeout-k 32 20 --profile",
            "workflow shakeout-k 24 12 --profile --trace-out results/logs/profile_trace.json.tmp",
            "workflow shakeout-k 32 20 --stats-addr 127.0.0.1:9090",
            "workflow shakeout-k 32 20 --health-every 8",
            "chaos --chaos-seed 99",
            "chaos --chaos-seed 3405691582",
            "chaos --fault crash --chaos-seed 3405691582",
            "chaos --fault stall --chaos-seed 3405691582",
            "chaos --fault stall",
            "chaos --fault both --profile",
            "chaos --flight-dir results",
            "chaos --fault crash --flight-dir results --chaos-seed 3405691582",
            "stats --smoke",
            "stats 127.0.0.1:9090",
            "analyze --smoke",
            "analyze trace.json",
            "analyze trace.json --json results/analyze.json",
            "serve --smoke",
            "serve --addr 127.0.0.1:7075 --root /tmp/awp-ens",
        ] {
            let (name, _) = parsed(line).unwrap_or_else(|e| panic!("'{line}': {e}"));
            assert_eq!(Some(name), line.split(' ').next(), "{line}");
        }
        for line in ["--profile --trace-out trace.json", "--trace-out trace.json", "--profile"] {
            let (name, args) = parsed(line).unwrap_or_else(|e| panic!("'{line}': {e}"));
            assert_eq!(name, "workflow", "{line}");
            assert_eq!(args.pos, ["shakeout-k", "24", "15"], "{line}");
        }
    }

    #[test]
    fn flags_values_and_arguments_are_checked() {
        let (_, a) = parsed("chaos m8 30 --chaos-seed 7 --fault both").unwrap();
        assert_eq!(a.pos, ["m8", "30"]);
        assert_eq!(a.value::<u64>("--chaos-seed"), Some(7));
        assert_eq!(a.value::<String>("--fault").as_deref(), Some("both"));
        assert!(!a.has("--profile"));
        assert_eq!(a.arg::<usize>(1), Some(30));

        for (line, why) in [
            ("", "missing subcommand"),
            ("florp", "unknown subcommand"),
            ("workflow shakeout-k 24 10 --sched", "does not take --sched"),
            ("run shakeout-k --profile", "does not take --profile"),
            ("chaos --chaos-seed", "needs a value"),
            ("run", "takes <name>"),
            ("scenarios now", "takes no arguments"),
            ("repro --smoke", "does not take --smoke"),
            ("workflow a 1 2 3", "takes <name>"),
            ("--lts", "unknown subcommand"),
        ] {
            let err = parsed(line).err().unwrap_or_else(|| panic!("'{line}' parsed"));
            assert!(err.contains(why), "'{line}': {err}");
        }
    }

    #[test]
    fn usage_lists_every_subcommand_and_flag() {
        let text = usage();
        for c in COMMANDS {
            assert!(text.contains(&format!("awp {}", c.name)), "{}", c.name);
            for f in c.flags {
                assert!(text.contains(&format!("[{f}]")), "{f}");
            }
        }
    }
}
