//! `shakeout-workflow`: `WorkflowSession::execute` of a ShakeOut-K
//! miniature on two ranks — mesh file, pre-partition, source partition,
//! the rank-parallel solve with checkpoints and aggregated output, archive
//! and MD5. The traced run repeats each execute on one rank, which gives
//! the strong-scaling number and the Eq. (7)/(8) terms.

use crate::metrics::Ledger;
use crate::run::{Checks, Rng, RunArgs, Scratch, Workload};
use crate::stats::{linear_fit, median, ratio};
use crate::trace::Tracer;
use awp_odc::scenario::{Scenario, ScenarioRun};
use awp_odc::workflow::{WorkflowReport, WorkflowSession};
use awp_pario::md5::Md5;
use awp_perfmodel::machines::Machine;
use awp_perfmodel::speedup::{efficiency, ModelInput};
use awp_solver::flops::per_point;
use awp_telemetry::{Counter, Phase, Registry, Snapshot, TelemetryReport};
use awp_vcluster::{probe, Cluster, CommMode};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Layer that owns each workflow stage (`StageTiming::stage`).
fn stage_layer(stage: &str) -> (&'static str, &'static str) {
    match stage {
        "cvm2mesh" => ("cvm", "stage:cvm2mesh"),
        "petameshp" => ("pario", "stage:petameshp"),
        "dsrcg+petasrcp" => ("source", "stage:dsrcg+petasrcp"),
        "awm-solve" => ("solver", "stage:awm-solve"),
        "archive" => ("pario", "stage:archive"),
        _ => ("core", "stage:other"),
    }
}

/// One armed pair: the same scenario on `[2,1,1]` then on `[1,1,1]`.
struct Pair {
    exec2_s: f64,
    report2: WorkflowReport,
    snaps2: Vec<Snapshot>,
    solve1_s: f64,
    snaps1: Vec<Snapshot>,
}

pub struct WorkflowWorkload {
    run: ScenarioRun,
    session2: WorkflowSession,
    session1: WorkflowSession,
    scratch: Scratch,
    /// Digest of the warm-up's PGV map and seismograms; every execute, on
    /// either decomposition, must reproduce it bit for bit.
    reference_md5: String,
    /// Whether this process has compared a one-rank execute against it yet
    /// (once per run, outside set-up and outside the timed region).
    serial_checked: bool,
    /// `collection_checksum` of the warm-up's two-rank execute (the digest
    /// list has one entry per surface rank, so it is per decomposition).
    reference_checksum2: String,
    /// awm-solve seconds of disarmed (telemetry off) two-rank executes.
    unarmed_solve2_s: Vec<f64>,
    pairs: Vec<Pair>,
}

fn session(parts: [usize; 3]) -> WorkflowSession {
    let mut s = WorkflowSession::new(parts);
    s.checkpoint_every = Some(60);
    s.output_decimate = 4;
    s.flush_every = 50;
    s
}

/// MD5 over the PGV map and the seismograms in station order — what the
/// "parallel ≡ serial" contract promises is independent of `parts`.
fn result_md5(report: &WorkflowReport) -> String {
    let mut h = Md5::new();
    for v in &report.pgv.data {
        h.update(&v.to_le_bytes());
    }
    let mut seis: Vec<_> = report.seismograms.iter().collect();
    seis.sort_by(|a, b| a.station.name.cmp(&b.station.name));
    for s in seis {
        super::hash_seismogram(&mut h, s);
    }
    h.finalize_hex()
}

fn solve_s(report: &WorkflowReport) -> f64 {
    report.stage("awm-solve").map_or(0.0, |s| s.seconds)
}

impl WorkflowWorkload {
    /// Execute in a fresh work directory (cleared outside the timing).
    /// Returns the report and the wall seconds of `execute` alone.
    fn execute(
        &self,
        session: &WorkflowSession,
        tag: &'static str,
        span: &'static str,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Option<(WorkflowReport, f64)> {
        let workdir: PathBuf = self.scratch.path().join(tag);
        let _ = std::fs::remove_dir_all(&workdir);
        let (result, wall) = tr.timed("core", span, |tr| {
            let r = session.execute(&self.run, &workdir);
            if let Ok(report) = &r {
                // The stages run one after another inside `execute`; lay
                // the durations it reports end to end as child spans.
                let mut cursor = tr.open_start_ns();
                for st in &report.stages {
                    let (layer, name) = stage_layer(&st.stage);
                    tr.derived(layer, name, &mut cursor, st.seconds);
                }
            }
            r
        });
        checks.op("WorkflowSession::execute", result).map(|r| (r, wall))
    }

    fn check_report(&self, report: &WorkflowReport, two_ranks: bool, checks: &mut Checks) {
        checks.check(report.archive_verified, || "archive copy failed MD5 verification".into());
        let md5 = result_md5(report);
        checks.check(md5 == self.reference_md5, || {
            format!("PGV + seismogram MD5 {md5} differs from the two-rank warm-up's")
        });
        if two_ranks {
            checks.check(report.collection_checksum == self.reference_checksum2, || {
                format!("collection checksum {} changed between reps", report.collection_checksum)
            });
        }
        let peak = report.pgv.max();
        checks.check(report.pgv.data.iter().all(|v| v.is_finite()) && peak > 0.0, || {
            format!("PGV map must be finite and non-zero (peak {peak})")
        });
        checks.check(!report.restarted && report.faults.is_empty(), || {
            "a clean run must not restart".into()
        });
    }
}

impl Workload for WorkflowWorkload {
    fn setup(args: &RunArgs, tr: &mut Tracer, checks: &mut Checks) -> Self {
        let mut rng = Rng::new(args.seed);
        let (nx, duration) = if args.smoke { (32, 12.0) } else { (160, 24.0) };
        // Seeded input: where along the trace the rupture nucleates.
        let scenario = Scenario::shakeout_k(nx, 0.3)
            .with_duration(duration)
            .with_hypo_frac(rng.uniform(0.80, 0.95));
        let mesh = tr.span("cvm", "Scenario::build_mesh", |_| scenario.build_mesh());
        let run = tr.span("source", "Scenario::prepare_with_mesh", |_| {
            scenario.prepare_with_mesh(Arc::new(mesh))
        });
        let scratch = Scratch::new("workflow").expect("scratch directory under the target dir");
        let mut w = WorkflowWorkload {
            run,
            session2: session([2, 1, 1]),
            session1: session([1, 1, 1]),
            scratch,
            reference_md5: String::new(),
            serial_checked: false,
            reference_checksum2: String::new(),
            unarmed_solve2_s: Vec::new(),
            pairs: Vec::new(),
        };
        // Warm-up: the rep itself, a two-rank execute.
        if let Some((two, _)) =
            w.execute(&w.session2, "r2", "WorkflowSession::execute[2,1,1]", tr, checks)
        {
            w.reference_md5 = result_md5(&two);
            w.reference_checksum2 = two.collection_checksum.clone();
            w.check_report(&two, true, checks);
        }
        w
    }

    fn rep(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        if !tr.armed() {
            let Some((report, wall)) =
                self.execute(&self.session2, "r2", "WorkflowSession::execute[2,1,1]", tr, checks)
            else {
                return 0.0;
            };
            self.check_report(&report, true, checks);
            self.unarmed_solve2_s.push(solve_s(&report));
            // Parallel ≡ serial: one one-rank execute per run must
            // reproduce the two-rank result.
            if !std::mem::replace(&mut self.serial_checked, true) {
                if let Some((one, _)) = self.execute(
                    &self.session1,
                    "r1",
                    "WorkflowSession::execute[1,1,1]",
                    tr,
                    checks,
                ) {
                    self.check_report(&one, false, checks);
                }
            }
            return wall;
        }
        self.serial_checked = true;
        // Armed: a pair, each half with the session's telemetry registry.
        let (reg2, reg1) = (Registry::new(2), Registry::new(1));
        let s2 = self.session2.clone().with_telemetry(Arc::clone(&reg2));
        let s1 = self.session1.clone().with_telemetry(Arc::clone(&reg1));
        let two = self.execute(&s2, "r2", "WorkflowSession::execute[2,1,1]", tr, checks);
        let one = self.execute(&s1, "r1", "WorkflowSession::execute[1,1,1]", tr, checks);
        let (Some((report2, exec2_s)), Some((report1, _))) = (two, one) else {
            return 0.0;
        };
        tr.span("harness", "check", |_| {
            self.check_report(&report2, true, checks);
            self.check_report(&report1, false, checks);
        });
        self.pairs.push(Pair {
            exec2_s,
            snaps2: reg2.snapshots(),
            solve1_s: solve_s(&report1),
            snaps1: reg1.snapshots(),
            report2,
        });
        exec2_s
    }

    fn layers(&mut self, tr: &mut Tracer, _checks: &mut Checks, out: &mut Ledger) {
        let cfg = &self.run.cfg;
        let (cells, steps) = (cfg.dims.count() as f64, cfg.steps as f64);
        let pairs = &self.pairs;
        let med = |f: &dyn Fn(&Pair) -> f64| median(&pairs.iter().map(f).collect::<Vec<_>>());
        let secs = |ns: u64| ns as f64 * 1e-9;
        let max_rank = |snaps: &[Snapshot], f: &dyn Fn(&Snapshot) -> u64| {
            secs(snaps.iter().map(f).max().unwrap_or(0))
        };
        let stage = |p: &Pair, name: &str| p.report2.stage(name).map_or(0.0, |s| s.seconds);
        let stage_mbs = |p: &Pair, name: &str| p.report2.stage(name).map_or(0.0, |s| s.mb_per_s());

        // core: the workflow's own ledger.
        let mesh_s = tr.total_s("Scenario::build_mesh");
        let prepare_s = tr.total_s("Scenario::prepare_with_mesh");
        out.set("cvm.mesh_generate_s", mesh_s);
        out.set("cvm.mesh_generate_mcells_per_s", ratio(cells / 1e6, mesh_s));
        out.set("source.prepare_s", prepare_s);
        out.set("core.prepare_s", mesh_s + prepare_s);
        let exec2_s = med(&|p| p.exec2_s);
        let stage_sum = med(&|p| p.report2.stages.iter().map(|s| s.seconds).sum());
        out.set("core.execute_s", exec2_s);
        out.set("core.stage_sum_s", stage_sum);
        out.set("core.unaccounted_frac", 1.0 - ratio(stage_sum, exec2_s));
        let solve2_s = med(&|p| solve_s(&p.report2));
        let scaling_eff = med(&|p| ratio(p.solve1_s, 2.0 * solve_s(&p.report2)));
        out.set("core.scaling_eff", scaling_eff);
        out.set("solver.mcells_per_s", ratio(cells * steps / 1e6, solve2_s));

        // solver, parallel path: Eq. (7) terms, max over ranks.
        let comp2 = |p: &Pair| p.snaps2.iter().map(Snapshot::compute_ns).sum::<u64>();
        out.set("solver.t_comp_s", med(&|p| max_rank(&p.snaps2, &Snapshot::compute_ns)));
        out.set("solver.t_comm_s", med(&|p| max_rank(&p.snaps2, &Snapshot::comm_ns)));
        out.set("solver.t_sync_s", med(&|p| max_rank(&p.snaps2, &|s| s.phase_ns(Phase::Barrier))));
        out.set(
            "solver.t_out_s",
            med(&|p| {
                max_rank(&p.snaps2, &|s| s.phase_ns(Phase::Output) + s.phase_ns(Phase::Checkpoint))
            }),
        );
        out.set(
            "solver.shell_frac",
            med(&|p| {
                let shell: u64 = p
                    .snaps2
                    .iter()
                    .map(|s| s.phase_ns(Phase::VelocityShell) + s.phase_ns(Phase::StressShell))
                    .sum();
                ratio(shell as f64, comp2(p) as f64)
            }),
        );
        let comp1 = |p: &Pair| p.snaps1.iter().map(Snapshot::compute_ns).sum::<u64>();
        out.set("solver.comp_inflation_2r", med(&|p| ratio(comp2(p) as f64, comp1(p) as f64)));

        // vcluster: what the exchange cost, from the same registry.
        let counter =
            |p: &Pair, c: Counter| p.snaps2.iter().map(|s| s.counter(c)).sum::<u64>() as f64;
        out.set("vcluster.msgs_per_step", med(&|p| counter(p, Counter::MsgsSent) / steps));
        out.set("vcluster.bytes_per_step", med(&|p| counter(p, Counter::BytesSent) / steps));
        out.set("vcluster.send_s", med(&|p| max_rank(&p.snaps2, &|s| s.phase_ns(Phase::Send))));
        out.set(
            "vcluster.wait_s_max_rank",
            med(&|p| max_rank(&p.snaps2, &|s| s.phase_ns(Phase::Wait))),
        );
        out.set("vcluster.inject_s", med(&|p| max_rank(&p.snaps2, &|s| s.phase_ns(Phase::Inject))));
        out.set(
            "vcluster.hidden_comm_frac",
            med(&|p| TelemetryReport::from_snapshots(&p.snaps2).hidden_comm_fraction),
        );
        out.set(
            "vcluster.load_imbalance",
            med(&|p| TelemetryReport::from_snapshots(&p.snaps2).load_imbalance),
        );

        // pario: input partitioning, checkpoints, aggregated output, archive.
        let checkpoint_s = med(&|p| max_rank(&p.snaps2, &|s| s.phase_ns(Phase::Checkpoint)));
        let output_s = med(&|p| max_rank(&p.snaps2, &|s| s.phase_ns(Phase::Output)));
        let checkpoint_bytes = med(&|p| counter(p, Counter::CheckpointBytes));
        out.set("pario.prepartition_s", med(&|p| stage(p, "petameshp")));
        out.set("pario.prepartition_mbs", med(&|p| stage_mbs(p, "petameshp")));
        out.set("pario.checkpoint_s", checkpoint_s);
        out.set("pario.checkpoint_bytes", checkpoint_bytes);
        out.set("pario.checkpoint_mbs", ratio(checkpoint_bytes / 1e6, checkpoint_s));
        out.set("pario.output_s", output_s);
        out.set("pario.output_bytes", med(&|p| counter(p, Counter::OutputBytes)));
        out.set("pario.output_transactions", med(&|p| p.report2.output_transactions as f64));
        out.set("pario.archive_s", med(&|p| stage(p, "archive")));
        out.set("pario.archive_mbs", med(&|p| stage_mbs(p, "archive")));
        out.set("cvm.write_mesh_mbs", med(&|p| stage_mbs(p, "cvm2mesh")));
        out.set("source.partition_s", med(&|p| stage(p, "dsrcg+petasrcp")));
        let io_s = med(&|p| stage(p, "cvm2mesh") + stage(p, "petameshp") + stage(p, "archive"))
            + checkpoint_s
            + output_s;
        out.set("pario.io_frac", ratio(io_s, exec2_s));
        let md5_s = tr.span("pario", "Md5::digest_hex[64MiB]", |_| {
            let buf = vec![0x5au8; 64 << 20];
            let t0 = Instant::now();
            std::hint::black_box(Md5::digest_hex(&buf));
            t0.elapsed().as_secs_f64()
        });
        out.set("pario.md5_mbs", ratio((64u64 << 20) as f64 / 1e6, md5_s));

        // telemetry: registry armed vs unarmed, same two-rank solve.
        out.set("telemetry.overhead_frac", ratio(solve2_s, median(&self.unarmed_solve2_s)) - 1.0);

        // vcluster probes: one-way time = alpha + bytes / beta over five
        // payload sizes; an empty two-rank run prices spawn + join.
        let (mut bytes, mut one_way) = (Vec::new(), Vec::new());
        tr.span("vcluster", "probe::ping_pong", |_| {
            for (len, iters) in [(16, 400), (256, 400), (4096, 300), (65_536, 100), (262_144, 40)] {
                let rtt = probe::ping_pong(CommMode::Asynchronous, 1, iters, len);
                bytes.push((len * 4) as f64);
                one_way.push(rtt.p50 / 2.0);
            }
        });
        let (alpha, inv_beta) = linear_fit(&bytes, &one_way);
        out.set("vcluster.alpha_us", alpha.max(0.0) * 1e6);
        out.set("vcluster.beta_gbs", ratio(1.0, inv_beta) / 1e9);
        let spawn_ms: Vec<f64> = tr.span("vcluster", "Cluster::run[empty]", |_| {
            (0..20)
                .map(|_| {
                    let t0 = Instant::now();
                    Cluster::new(2, CommMode::Asynchronous).run(|_| ());
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect()
        });
        out.set("vcluster.spawn_join_ms", median(&spawn_ms));

        // perfmodel: Eq. (8) with the alpha/beta fitted above and tau from
        // the one-rank compute time, against the measured efficiency.
        let c = per_point(cfg.attenuation) as f64;
        let tau = ratio(med(&|p| secs(comp1(p))), steps * c * cells);
        let mut machine = Machine::Jaguar.profile();
        machine.alpha = alpha.max(0.0);
        machine.beta = inv_beta.max(0.0);
        machine.tau = tau;
        let predicted = efficiency(&ModelInput { n: cfg.dims, parts: [2, 1, 1], machine, c });
        out.set("perfmodel.eq8_eff_predicted", predicted);
        out.set("perfmodel.eq8_residual", scaling_eff - predicted);
    }
}
