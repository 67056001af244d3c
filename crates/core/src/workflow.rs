//! E2EaW — the end-to-end workflow (paper §III.I, Fig. 10).
//!
//! Carries one simulation through the full production pipeline:
//!
//! 1. **CVM2MESH** — write the global mesh file;
//! 2. **PetaMeshP** — pre-partition it into per-rank files (under the
//!    §IV.E open-file throttle), or redistribute the global file on demand
//!    through reader ranks (the MPI-IO path M8 kept as fallback);
//! 3. **dSrcG/PetaSrcP** — write the moment-rate file and distribute
//!    subfaults to their owning ranks;
//! 4. **AWM** — the parallel solve, with run-time output aggregation
//!    writing decimated surface velocities into one shared file at
//!    explicit displacements (§III.E), optional per-rank checkpointing
//!    (§III.F) and failure-injected restart;
//! 5. **checksums** — parallel MD5 of every rank's output block;
//! 6. **archive** — copy to the archive directory and re-verify the
//!    digests (the GridFTP + iRODS ingestion stand-in).
//!
//! The pipeline is split into a reusable [`WorkflowSession`] — every knob
//! *except* the scenario and the scratch directory, `Send + Clone` so an
//! ensemble worker pool can carry one session across a whole catalog of
//! events — and the one-scenario [`E2EWorkflow`] facade that binds a
//! session to a prepared run and a workdir.

use crate::scenario::ScenarioRun;
use awp_analysis::pgv::PgvMap;
use awp_cvm::mesh::Mesh;
use awp_grid::decomp::Decomp3;
use awp_pario::checkpoint::CheckpointData;
use awp_pario::epochs::{consistent_epoch, CheckpointStore};
use awp_pario::output::{OutputAggregator, OutputPlan, SharedFileWriter};
use awp_pario::partition::{partition_ondemand, prepartition, read_prepartitioned};
use awp_pario::throttle::OpenThrottle;
use awp_pario::Md5;
use awp_solver::boundary::owns_free_surface;
use awp_solver::config::SolverConfig;
use awp_solver::solver::{exchange_material_halos, update_pgv, Solver};
use awp_solver::stations::{surface_velocities, Seismogram, Station};
use awp_solver::{global_vp_max, LtsPlan};
use awp_source::kinematic::KinematicSource;
use awp_telemetry::{LiveStats, Registry};
use awp_vcluster::fault::{FaultKind, FaultPlan, FaultReport, WatchdogConfig};
use awp_vcluster::schedule::SchedulePlan;
use awp_vcluster::{
    Cluster, DeadLetterStats, HostTopology, RecoveryEvent, RetryPolicy, Supervisor,
};
use serde::Serialize;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One pipeline stage's timing.
#[derive(Debug, Clone, Serialize)]
pub struct StageTiming {
    pub stage: String,
    pub seconds: f64,
    pub bytes: u64,
}

impl StageTiming {
    /// Throughput in MB/s (0 when no bytes were moved).
    pub fn mb_per_s(&self) -> f64 {
        if self.seconds > 0.0 {
            self.bytes as f64 / 1e6 / self.seconds
        } else {
            0.0
        }
    }
}

/// Workflow outcome.
#[derive(Debug)]
pub struct WorkflowReport {
    pub stages: Vec<StageTiming>,
    /// Per-rank output-block digests.
    pub checksums: Vec<String>,
    /// Digest of the digest list (the collection fingerprint).
    pub collection_checksum: String,
    /// Archive copy re-verified against the checksums.
    pub archive_verified: bool,
    pub pgv: PgvMap,
    /// Station seismograms gathered from every rank. Complete for clean
    /// runs; a pass that restarted from a checkpoint re-records only from
    /// the restart step (recorder state is not checkpointed), so consumers
    /// that need full traces should run without failure injection.
    pub seismograms: Vec<Seismogram>,
    pub surface_file: PathBuf,
    /// Output write transactions (the aggregation-efficiency metric).
    pub output_transactions: u64,
    /// Step at which an injected failure aborted the first pass.
    pub failed_at: Option<usize>,
    /// Whether a restart pass ran.
    pub restarted: bool,
    /// Structured fault reports collected across all aborted passes,
    /// including faults absorbed by in-flight recovery.
    pub faults: Vec<FaultReport>,
    /// Number of whole-run restart passes that were needed.
    pub restarts: usize,
    /// Completed in-flight recovery cycles (rollback + respawn inside a
    /// supervised pass, without tearing the cluster down).
    pub in_flight_recoveries: u32,
    /// True when at least one supervised pass exhausted its retry budget
    /// (or had no epoch to roll back to) and fell back to the whole-run
    /// restart ladder.
    pub recovery_degraded: bool,
    /// Supervisor state-machine transitions across all passes, in order.
    pub recovery_events: Vec<RecoveryEvent>,
    /// Dead-letter accounting summed across all supervised passes
    /// (`retained` is the last pass's live count).
    pub dead_letters: DeadLetterStats,
}

/// Mesh-input scheme — the paper's two PetaMeshP I/O models (§III.C):
/// per-rank pre-partitioned files, or on-demand reader/receiver
/// redistribution of the single global file ("MPI-IO" path, which M8 kept
/// as the fallback "in case of hardware file system failure", §VII.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputMode {
    Prepartitioned,
    OnDemand { readers: usize },
}

/// A reusable workflow session: everything the pipeline needs *except*
/// the scenario and the scratch directory. `Send + Clone`, so one session
/// can be configured once and then drive many scenarios — sequentially or
/// from a pool of ensemble worker threads, each calling
/// [`execute`](Self::execute) with its own `(run, workdir)` pair.
#[derive(Clone)]
pub struct WorkflowSession {
    /// Rank decomposition of every solve this session runs.
    pub parts: [usize; 3],
    /// Temporal output decimation (M8: every 20th step).
    pub output_decimate: usize,
    /// Aggregation flush interval in steps (M8: 20 000).
    pub flush_every: usize,
    /// Open-file throttle limit (M8: 650).
    pub open_limit: usize,
    /// Mesh input scheme.
    pub input: InputMode,
    /// Per-rank checkpoint interval in steps (None = off; M8 disabled
    /// checkpointing to spare the filesystem the 49 TB state writes).
    pub checkpoint_every: Option<usize>,
    /// Failure injection: abort the solve at this step; the workflow then
    /// restarts from the latest checkpoints (§III.F restart capability).
    pub fail_at_step: Option<usize>,
    /// Checkpoint-epoch retention depth (keep-last-K rotation).
    pub keep_checkpoints: usize,
    /// Seeded chaos schedule: injected rank crashes/stalls and message
    /// faults. A faulted pass triggers teardown and restart from the
    /// newest globally consistent checkpoint epoch.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Heartbeat watchdog for the solve cluster (converts hangs into
    /// structured faults; required for drop/stall chaos to terminate).
    pub watchdog: Option<WatchdogConfig>,
    /// Seeded message-schedule perturbation for the solve cluster
    /// (delivery reorder + waitall polling permutation). Every solve pass
    /// — including restarts — runs under the same plan; the tag-matched
    /// exchange stack must stay bit-exact regardless.
    pub schedule: Option<Arc<SchedulePlan>>,
    /// Give up after this many restart passes.
    pub max_restarts: usize,
    /// Resume a previously failed run: the first solve pass starts from
    /// the newest globally consistent checkpoint epoch in the workdir (and
    /// the surface file is reopened, not truncated). This is the §III.F
    /// "restart in the case of unexpected termination" entry point for a
    /// *new* process picking up a dead run's scratch directory.
    pub resume: bool,
    /// Telemetry registry for the solve cluster (one rank per solve rank).
    /// When set, each solve pass submits per-rank snapshots; after
    /// [`execute`](Self::execute) the caller reads `registry.report()` /
    /// `registry.chrome_trace()`. A restart pass overwrites the aborted
    /// pass's snapshots, so the report describes the pass that completed.
    pub telemetry: Option<Arc<Registry>>,
    /// In-flight rank recovery: when set, every solve pass runs under a
    /// [`Supervisor`] that rolls survivors back to the newest consistent
    /// checkpoint epoch and respawns the failed rank instead of tearing
    /// the whole cluster down. A pass that degrades (retry budget
    /// exhausted, nothing to roll back to) falls through to the
    /// whole-run restart ladder governed by `max_restarts`.
    pub recovery: Option<RetryPolicy>,
    /// Live telemetry table (must be sized to the rank count of `parts`).
    /// When set, every solve pass publishes per-rank phase timers and
    /// steal counters into it — this is what a [`crate::stats`] endpoint
    /// streams to clients while the run is in flight.
    pub live: Option<Arc<LiveStats>>,
    /// Crash flight recorder: when set, every solve rank keeps an
    /// always-on ring of its last message envelopes/span tails and the
    /// supervisor dumps `flightrec-<rank>.json` into this directory on
    /// quarantine or degradation (post-mortem triage without full
    /// telemetry).
    pub flight_dir: Option<PathBuf>,
}

/// The one-scenario workflow runner: a [`WorkflowSession`] bound to a
/// prepared scenario and a scratch directory.
pub struct E2EWorkflow {
    pub run: ScenarioRun,
    pub workdir: PathBuf,
    pub session: WorkflowSession,
}

/// Per-rank solve outcome.
type RankOutcome =
    (usize, awp_grid::decomp::Subdomain, Vec<f32>, String, u64, Vec<Seismogram>);

impl WorkflowSession {
    pub fn new(parts: [usize; 3]) -> Self {
        Self {
            parts,
            output_decimate: 4,
            flush_every: 50,
            open_limit: 650,
            input: InputMode::Prepartitioned,
            checkpoint_every: None,
            fail_at_step: None,
            keep_checkpoints: 3,
            fault_plan: None,
            watchdog: None,
            schedule: None,
            max_restarts: 3,
            resume: false,
            telemetry: None,
            recovery: None,
            live: None,
            flight_dir: None,
        }
    }

    /// Enable seeded chaos: fault plan plus watchdog in one call.
    pub fn with_chaos(mut self, plan: Arc<FaultPlan>, watchdog: WatchdogConfig) -> Self {
        self.fault_plan = Some(plan);
        self.watchdog = Some(watchdog);
        self
    }

    /// Run every solve pass under a seeded message-schedule perturbation
    /// (composable with [`with_chaos`](Self::with_chaos): faults and
    /// adversarial delivery order at the same time).
    pub fn with_schedule(mut self, plan: Arc<SchedulePlan>) -> Self {
        self.schedule = Some(plan);
        self
    }

    /// Attach a telemetry registry (must be sized to the rank count of
    /// `parts`). The caller keeps the `Arc` and reads the aggregate after
    /// `execute`.
    pub fn with_telemetry(mut self, registry: Arc<Registry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Enable in-flight rank recovery under `policy` (requires
    /// checkpointing so the supervisor has an epoch to roll back to).
    pub fn with_recovery(mut self, policy: RetryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Publish live per-rank telemetry into `live` during every solve
    /// pass (serve it with [`crate::stats::StatsServer`]).
    pub fn with_live_stats(mut self, live: Arc<LiveStats>) -> Self {
        self.live = Some(live);
        self
    }

    /// Arm the crash flight recorder: dumps land in `dir` as
    /// `flightrec-<rank>.json` when a supervised pass quarantines a rank
    /// or degrades.
    pub fn with_flight_recorder(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flight_dir = Some(dir.into());
        self
    }

    /// Execute all stages for one prepared scenario in `workdir`. The
    /// session is borrowed immutably, so any number of worker threads may
    /// run disjoint scenarios through one shared session concurrently.
    pub fn execute(&self, run: &ScenarioRun, workdir: &Path) -> io::Result<WorkflowReport> {
        let mut stages = Vec::new();
        std::fs::create_dir_all(workdir)?;
        let cfg = &run.cfg;
        let decomp = Decomp3::new(cfg.dims, self.parts);
        let n_ranks = decomp.rank_count();

        // 1. CVM2MESH: the global mesh file.
        let mesh_path = workdir.join("mesh.global.bin");
        let t = Instant::now();
        awp_cvm::meshfile::write_mesh(&mesh_path, &run.mesh)?;
        stages.push(StageTiming {
            stage: "cvm2mesh".into(),
            seconds: t.elapsed().as_secs_f64(),
            bytes: std::fs::metadata(&mesh_path)?.len(),
        });

        // 2. PetaMeshP: pre-partition, or on-demand reader/receiver
        // redistribution of the global file.
        let parts_dir = workdir.join("parts");
        let throttle = OpenThrottle::new(self.open_limit);
        let t = Instant::now();
        let ondemand_meshes = match self.input {
            InputMode::Prepartitioned => {
                let part_paths = prepartition(&mesh_path, &decomp, &parts_dir, Some(&throttle))?;
                let part_bytes: u64 = part_paths
                    .iter()
                    .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
                    .sum();
                stages.push(StageTiming {
                    stage: "petameshp".into(),
                    seconds: t.elapsed().as_secs_f64(),
                    bytes: part_bytes,
                });
                None
            }
            InputMode::OnDemand { readers } => {
                let meshes = partition_ondemand(&mesh_path, &decomp, readers)?;
                let bytes: u64 = meshes.iter().map(|m| m.memory_bytes() as u64).sum();
                stages.push(StageTiming {
                    stage: "petameshp-ondemand".into(),
                    seconds: t.elapsed().as_secs_f64(),
                    bytes,
                });
                Some(meshes)
            }
        };

        // 3. dSrcG + PetaSrcP.
        let src_path = workdir.join("source.bin");
        let t = Instant::now();
        awp_source::srcfile::write_source(&src_path, &run.source)?;
        let rank_sources = awp_source::partition::partition_spatial(&run.source, &decomp);
        stages.push(StageTiming {
            stage: "dsrcg+petasrcp".into(),
            seconds: t.elapsed().as_secs_f64(),
            bytes: std::fs::metadata(&src_path)?.len(),
        });

        // 4. AWM with run-time output aggregation (+ optional checkpoints
        // and failure-injected restart).
        let surface_file = workdir.join("surface.bin");
        let writer = Arc::new(if self.resume {
            SharedFileWriter::open_existing(&surface_file)?
        } else {
            SharedFileWriter::create(&surface_file)?
        });
        let surface_ranks: Vec<usize> =
            (0..n_ranks).filter(|&r| owns_free_surface(&decomp.subdomain(r))).collect();
        let rank_len = surface_ranks
            .iter()
            .map(|&r| {
                let s = decomp.subdomain(r);
                3 * s.dims.nx * s.dims.ny
            })
            .max()
            .unwrap_or(0);
        let plan = OutputPlan {
            decimate: self.output_decimate,
            flush_every: self.flush_every,
            rank_len,
            ranks: surface_ranks.len(),
        };
        let ckpt_dir = workdir.join("ckpt");
        if self.checkpoint_every.is_some() {
            std::fs::create_dir_all(&ckpt_dir)?;
        }
        // Clustered local time stepping: the plan is computed once from the
        // *global* mesh so every rank arms the identical cluster ladder
        // (per-rank CFL profiles would disagree across partition seams).
        let lts_plan = cfg.opts.lts.map(|lo| LtsPlan::from_mesh(&run.mesh, cfg.dt, lo));
        if lts_plan.is_some() {
            assert_eq!(
                self.parts[2], 1,
                "LTS clusters are z-slabs: the workflow decomposition must keep a single z part"
            );
        }
        // Checkpoint epochs must land on cluster-aligned ticks: at a tick
        // that is a multiple of the slowest cadence every cluster fires and
        // the interface prev-planes are recaptured before first use, so a
        // restored pass needs no extra LTS state to be bit-exact. Round the
        // requested cadence up rather than rejecting it.
        let lts_align = lts_plan.as_ref().map_or(1, |p| p.max_rate() as usize);
        let checkpoint_every = self.checkpoint_every.map(|e| e.div_ceil(lts_align) * lts_align);
        let env = SolveEnv {
            cfg,
            decomp: &decomp,
            parts_dir: &parts_dir,
            throttle: &throttle,
            ondemand_meshes: &ondemand_meshes,
            rank_sources: &rank_sources,
            stations: &run.stations,
            writer: &writer,
            plan,
            surface_ranks: &surface_ranks,
            ckpt_dir: &ckpt_dir,
            checkpoint_every,
            keep_checkpoints: self.keep_checkpoints,
            lts_plan: &lts_plan,
            vp_max: global_vp_max([&*run.mesh]),
            fault_plan: self.fault_plan.clone(),
            watchdog: self.watchdog,
            schedule: self.schedule.clone(),
            telemetry: self.telemetry.clone(),
            recovery: self.recovery,
            live: self.live.clone(),
            flight_dir: self.flight_dir.clone(),
        };
        let t = Instant::now();
        let legacy_stop = self.fail_at_step.filter(|&s| s < cfg.steps);
        if legacy_stop.is_some() || self.fault_plan.is_some() {
            assert!(self.checkpoint_every.is_some(), "failure injection requires checkpointing");
        }
        if self.recovery.is_some() {
            assert!(
                self.checkpoint_every.is_some(),
                "in-flight recovery requires checkpointing (the rollback epoch)"
            );
        }
        let mut failed_at: Option<usize> = legacy_stop;
        let mut restarted = false;
        let mut restarts = 0usize;
        let mut faults: Vec<FaultReport> = Vec::new();
        let mut in_flight_recoveries = 0u32;
        let mut recovery_degraded = false;
        let mut recovery_events: Vec<RecoveryEvent> = Vec::new();
        let mut dead_letters = DeadLetterStats::default();
        // Solve / restart loop — the outer rung of the degradation ladder.
        // With `recovery` set, faults are first absorbed *inside* a pass by
        // the supervisor (rollback to the newest MD5-consistent epoch and
        // respawn — one epoch of rework, no teardown). Only a degraded
        // pass reaches this loop's restart path: the cluster is torn down,
        // the newest epoch that is MD5-valid on *every* rank becomes the
        // globally consistent restart line, and the next pass resumes from
        // it. "This approach helps restart in the case of unexpected
        // termination" (§III.F).
        let results = loop {
            let resume_epoch = if restarts == 0 && !self.resume {
                None
            } else {
                consistent_epoch(&ckpt_dir, n_ranks)?
            };
            let stop_at = if restarts == 0 { legacy_stop } else { None };
            let pass = solve_ranks(&env, resume_epoch, stop_at)?;
            in_flight_recoveries += pass.recoveries;
            recovery_degraded |= pass.degraded;
            recovery_events.extend(pass.events);
            dead_letters.total += pass.dead_letters.total;
            dead_letters.dropped += pass.dead_letters.dropped;
            dead_letters.expired += pass.dead_letters.expired;
            dead_letters.retained = pass.dead_letters.retained;
            if let Some(step) = pass.recovered_faults.iter().filter_map(|f| f.step).min() {
                failed_at.get_or_insert(step as usize);
            }
            faults.extend(pass.recovered_faults);
            let outcomes = pass.outcomes;
            let pass_faults: Vec<FaultReport> =
                outcomes.iter().filter_map(|r| r.as_ref().err().cloned()).collect();
            if pass_faults.is_empty() && stop_at.is_none() {
                break outcomes
                    .into_iter()
                    .map(|r| r.expect("no faults in this pass"))
                    .collect::<Vec<_>>();
            }
            // A rank torn down because a peer faulted reports `Aborted` at
            // whatever step it had reached, which can be one behind the
            // fault that caused it; it does not date the failure.
            if let Some(first_fault_step) = pass_faults
                .iter()
                .filter(|f| f.kind != FaultKind::Aborted)
                .filter_map(|f| f.step)
                .min()
            {
                failed_at.get_or_insert(first_fault_step as usize);
            }
            faults.extend(pass_faults);
            restarted = true;
            restarts += 1;
            if restarts > self.max_restarts {
                return Err(io::Error::other(format!(
                    "solve did not complete after {} restarts; last faults: {}",
                    self.max_restarts,
                    faults.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("; "),
                )));
            }
            // Reshuffle probabilistic message faults so a retry is not
            // deterministically re-broken (step faults are one-shot).
            if let Some(p) = &self.fault_plan {
                p.next_generation();
            }
        };
        let solve_seconds = t.elapsed().as_secs_f64();

        let mut pgv_map = PgvMap::zeros(cfg.dims.nx, cfg.dims.ny, cfg.h);
        let mut checksums = Vec::new();
        let mut seismograms: Vec<Seismogram> = Vec::new();
        for (_, sub, pgv, digest, _, seis) in results {
            if !digest.is_empty() {
                checksums.push(digest);
            }
            seismograms.extend(seis);
            for j in 0..sub.dims.ny {
                for i in 0..sub.dims.nx {
                    if !pgv.is_empty() {
                        pgv_map.data[(sub.origin.i + i) + cfg.dims.nx * (sub.origin.j + j)] =
                            pgv[i + sub.dims.nx * j] as f64;
                    }
                }
            }
        }
        stages.push(StageTiming {
            stage: "awm-solve".into(),
            seconds: solve_seconds,
            bytes: writer.bytes_written(),
        });
        let output_transactions = writer.transactions();

        // 5. Collection checksum.
        let mut top = Md5::new();
        for c in &checksums {
            top.update(c.as_bytes());
        }
        let collection_checksum = top.finalize_hex();

        // 6. Archive with verification.
        let archive_dir = workdir.join("archive");
        std::fs::create_dir_all(&archive_dir)?;
        let archived = archive_dir.join("surface.bin");
        let t = Instant::now();
        std::fs::copy(&surface_file, &archived)?;
        let copy_bytes = std::fs::metadata(&archived)?.len();
        let archive_verified = {
            let a = Md5::digest_hex(&std::fs::read(&surface_file)?);
            let b = Md5::digest_hex(&std::fs::read(&archived)?);
            a == b
        };
        stages.push(StageTiming {
            stage: "archive".into(),
            seconds: t.elapsed().as_secs_f64(),
            bytes: copy_bytes,
        });

        Ok(WorkflowReport {
            stages,
            checksums,
            collection_checksum,
            archive_verified,
            pgv: pgv_map,
            seismograms,
            surface_file,
            output_transactions,
            failed_at,
            restarted,
            faults,
            restarts,
            in_flight_recoveries,
            recovery_degraded,
            recovery_events,
            dead_letters,
        })
    }
}

impl E2EWorkflow {
    pub fn new(run: ScenarioRun, parts: [usize; 3], workdir: impl Into<PathBuf>) -> Self {
        Self { run, workdir: workdir.into(), session: WorkflowSession::new(parts) }
    }

    /// Enable seeded chaos: fault plan plus watchdog in one call.
    pub fn with_chaos(mut self, plan: Arc<FaultPlan>, watchdog: WatchdogConfig) -> Self {
        self.session = self.session.with_chaos(plan, watchdog);
        self
    }

    /// Run every solve pass under a seeded message-schedule perturbation.
    pub fn with_schedule(mut self, plan: Arc<SchedulePlan>) -> Self {
        self.session = self.session.with_schedule(plan);
        self
    }

    /// Attach a telemetry registry (must be sized to the rank count of
    /// `parts`).
    pub fn with_telemetry(mut self, registry: Arc<Registry>) -> Self {
        self.session = self.session.with_telemetry(registry);
        self
    }

    /// Enable in-flight rank recovery under `policy`.
    pub fn with_recovery(mut self, policy: RetryPolicy) -> Self {
        self.session = self.session.with_recovery(policy);
        self
    }

    /// Publish live per-rank telemetry into `live` during every solve
    /// pass.
    pub fn with_live_stats(mut self, live: Arc<LiveStats>) -> Self {
        self.session = self.session.with_live_stats(live);
        self
    }

    /// Arm the crash flight recorder.
    pub fn with_flight_recorder(mut self, dir: impl Into<PathBuf>) -> Self {
        self.session = self.session.with_flight_recorder(dir);
        self
    }

    /// Execute all stages.
    pub fn execute(&self) -> io::Result<WorkflowReport> {
        self.session.execute(&self.run, &self.workdir)
    }
}

/// Everything a solve pass needs (shared between the initial run and a
/// restart).
struct SolveEnv<'a> {
    cfg: &'a SolverConfig,
    decomp: &'a Decomp3,
    parts_dir: &'a Path,
    throttle: &'a OpenThrottle,
    ondemand_meshes: &'a Option<Vec<Mesh>>,
    rank_sources: &'a [KinematicSource],
    stations: &'a [Station],
    writer: &'a Arc<SharedFileWriter>,
    plan: OutputPlan,
    surface_ranks: &'a [usize],
    ckpt_dir: &'a Path,
    checkpoint_every: Option<usize>,
    keep_checkpoints: usize,
    /// Cluster ladder for local time stepping, computed from the global
    /// mesh (`None` = fused global-dt stepping).
    lts_plan: &'a Option<LtsPlan>,
    /// Maximum P speed of the global mesh: like the cluster ladder, a
    /// quantity every rank must agree on (it scales the M-PML profile).
    vp_max: f64,
    fault_plan: Option<Arc<FaultPlan>>,
    watchdog: Option<WatchdogConfig>,
    schedule: Option<Arc<SchedulePlan>>,
    telemetry: Option<Arc<Registry>>,
    recovery: Option<RetryPolicy>,
    live: Option<Arc<LiveStats>>,
    flight_dir: Option<PathBuf>,
}

/// What one solve pass produced: per-rank outcomes plus the supervisor's
/// recovery accounting (zeroed when recovery is off).
struct PassOutput {
    outcomes: Vec<Result<RankOutcome, FaultReport>>,
    recoveries: u32,
    degraded: bool,
    recovered_faults: Vec<FaultReport>,
    events: Vec<RecoveryEvent>,
    dead_letters: DeadLetterStats,
}

/// Run all ranks from step 0 (or from the given checkpoint epoch) until
/// `stop_at` (exclusive) or completion. Ranks execute behind the cluster's
/// fault boundary: the returned vector carries one `Ok(outcome)` or
/// `Err(fault report)` per rank; rank-local I/O errors abort the whole
/// pass as before.
fn solve_ranks(
    env: &SolveEnv<'_>,
    resume_epoch: Option<u64>,
    stop_at: Option<usize>,
) -> io::Result<PassOutput> {
    let cfg = env.cfg;
    let n_ranks = env.decomp.rank_count();
    let mut cluster = Cluster::new(n_ranks, cfg.opts.comm_mode.into());
    if let Some(plan) = &env.fault_plan {
        cluster = cluster.with_fault_plan(Arc::clone(plan));
    }
    if let Some(wd) = env.watchdog {
        cluster = cluster.with_watchdog(wd);
    }
    if let Some(plan) = &env.schedule {
        cluster = cluster.with_schedule(Arc::clone(plan));
    }
    if let Some(reg) = &env.telemetry {
        cluster = cluster.with_telemetry(Arc::clone(reg));
    }
    if let Some(live) = &env.live {
        cluster = cluster.with_live_stats(Arc::clone(live));
    }
    if let Some(dir) = &env.flight_dir {
        cluster = cluster.with_flight_recorder(dir.clone());
    }
    if cfg.opts.sched.is_some() {
        cluster = cluster.with_sched(HostTopology::detect());
    }
    let body = |ctx: &mut awp_vcluster::RankCtx| -> io::Result<RankOutcome> {
        let rank = ctx.rank();
        let sub = env.decomp.subdomain(rank);
        // Each rank obtains its sub-mesh per the configured input scheme.
        let local = match env.ondemand_meshes {
            Some(meshes) => meshes[rank].clone(),
            None => read_prepartitioned(env.parts_dir, rank, Some(env.throttle))?,
        };
        let sources = &env.rank_sources[rank];
        let mut solver =
            Solver::try_new_rank(cfg.clone(), sub, &local, sources, env.stations, env.vp_max)
                .expect("invalid solver configuration");
        exchange_material_halos(&mut solver.med, &sub, ctx);
        solver.med.precompute();
        if let Some(plan) = env.lts_plan {
            solver.enable_lts(plan);
        }
        let surf_slot = env.surface_ranks.iter().position(|&r| r == rank);
        let mut agg = surf_slot.map(|slot| OutputAggregator::new(env.plan, slot));
        let mut pgv = if surf_slot.is_some() {
            vec![0.0f32; sub.dims.nx * sub.dims.ny]
        } else {
            Vec::new()
        };
        let store = CheckpointStore::new(env.ckpt_dir, rank, env.keep_checkpoints);
        let mut start_step = 0usize;
        // An in-flight recovery generation overrides the pass-level resume
        // epoch: the supervisor already picked the newest epoch that is
        // MD5-valid on every rank, and every respawned/rolled-back rank
        // must restart from that same line.
        if let Some(epoch) = ctx.recovery_epoch().or(resume_epoch) {
            // Every rank resumes from the same globally consistent epoch
            // (selected by `consistent_epoch` before this pass started).
            let ckpt = store.load(epoch)?;
            start_step = ckpt.step as usize;
            solver.restore_fields(&ckpt.fields);
            solver.step = start_step;
            if let (Some(saved), false) = (ckpt.field("workflow_pgv"), pgv.is_empty()) {
                pgv.copy_from_slice(saved);
            }
            if let Some(phase) = ckpt.field("workflow_lts_phase") {
                // The aligned checkpoint cadence guarantees every epoch sits
                // on a tick where all dt-clusters fire; a nonzero phase
                // would mean the resumed run needs interface prev-planes we
                // did not snapshot.
                assert_eq!(
                    phase,
                    &[0.0f32][..],
                    "LTS checkpoint epoch must land on a cluster-aligned tick"
                );
            }
        }
        let end = stop_at.unwrap_or(cfg.steps).min(cfg.steps);
        for step in start_step..end {
            ctx.tick(step as u64);
            solver.step_parallel(ctx);
            if let Some(agg) = agg.as_mut() {
                let mut rec = surface_velocities(&solver.state, 1);
                rec.resize(env.plan.rank_len, 0.0);
                agg.record_traced(step, &rec, env.writer, &mut ctx.telem)?;
                update_pgv(&solver.state, &mut pgv);
            }
            if let Some(every) = env.checkpoint_every {
                let done = step + 1;
                if done % every == 0 && done < cfg.steps {
                    // Make every output record older than this epoch
                    // durable *before* the epoch exists: a restart from
                    // epoch E rewrites records ≥ E at their explicit
                    // displacements, so flush-then-checkpoint ordering is
                    // what keeps the surface file bit-exact across faults.
                    if let Some(agg) = agg.as_mut() {
                        agg.flush_traced(env.writer, &mut ctx.telem)?;
                    }
                    env.writer.sync()?;
                    let mut fields = solver.checkpoint_fields();
                    fields.push(("workflow_pgv".to_string(), pgv.clone()));
                    if solver.lts_active() {
                        let align =
                            env.lts_plan.as_ref().map_or(1, |p| p.max_rate() as u64);
                        fields.push((
                            "workflow_lts_phase".to_string(),
                            vec![(done as u64 % align) as f32],
                        ));
                    }
                    store.save_traced(
                        &CheckpointData { step: done as u64, fields },
                        &mut ctx.telem,
                    )?;
                }
            }
        }
        if let Some(agg) = agg.as_mut() {
            agg.flush_traced(env.writer, &mut ctx.telem)?;
        }
        env.writer.sync()?;
        // Parallel MD5 of this rank's final output block (only meaningful
        // once the run completed; an aborted pass digests nothing).
        let digest = if let Some(slot) = surf_slot {
            if end == cfg.steps && cfg.steps > 0 {
                let last_rec = (cfg.steps - 1) / env.plan.decimate;
                let data =
                    env.writer.read_f32_at(env.plan.offset(last_rec, slot), env.plan.rank_len)?;
                let mut h = Md5::new();
                h.update_f32(&data);
                h.finalize_hex()
            } else {
                String::new()
            }
        } else {
            String::new()
        };
        if solver.lts_active() {
            ctx.telem.set_lts_stats(solver.lts_stats());
        }
        // Seismograms leave with the outcome only on a completed pass; a
        // stopped pass reports empty traces (the restart re-records).
        let seis = if end == cfg.steps {
            solver.recorder.clone().into_seismograms()
        } else {
            Vec::new()
        };
        Ok((rank, sub, pgv, digest, solver.flops.total, seis))
    };
    let (results, recoveries, degraded, recovered_faults, events, dead_letters) =
        match env.recovery {
            Some(policy) => {
                // Supervised pass: the supervisor owns rank lifecycles and
                // absorbs faults via rollback-rejoin; the epoch source is
                // the same consistent-line scan the whole-run restart path
                // uses, so both rungs of the ladder agree on where "safe"
                // is.
                let ckpt_dir = env.ckpt_dir;
                let run = Supervisor::new(&cluster, policy).run(body, || {
                    consistent_epoch(ckpt_dir, n_ranks).ok().flatten()
                });
                (
                    run.results,
                    run.recoveries,
                    run.degraded,
                    run.recovered_faults,
                    run.events,
                    run.dead_letters,
                )
            }
            None => (
                cluster.try_run(body),
                0,
                false,
                Vec::new(),
                Vec::new(),
                DeadLetterStats::default(),
            ),
        };
    // Transpose: a rank-local I/O error fails the whole pass (as the
    // pre-resilience code did); a fault report stays per-rank.
    let outcomes: io::Result<Vec<Result<RankOutcome, FaultReport>>> = results
        .into_iter()
        .map(|r| match r {
            Ok(Ok(outcome)) => Ok(Ok(outcome)),
            Ok(Err(io_err)) => Err(io_err),
            Err(fault) => Ok(Err(fault)),
        })
        .collect();
    Ok(PassOutput {
        outcomes: outcomes?,
        recoveries,
        degraded,
        recovered_faults,
        events,
        dead_letters,
    })
}

/// Convenience: locate a stage by name.
impl WorkflowReport {
    pub fn stage(&self, name: &str) -> Option<&StageTiming> {
        self.stages.iter().find(|s| s.stage == name)
    }
}

/// Scratch directory helper for tests/examples.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("awp-odc-{tag}-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    /// The ensemble worker-pool contract: a configured session must be
    /// movable into worker threads and shareable across them.
    #[test]
    fn session_is_send_sync_and_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<WorkflowSession>();
    }

    #[test]
    fn workflow_runs_end_to_end() {
        let sc = Scenario::shakeout_k(24, 0.3).with_duration(15.0);
        let run = sc.prepare();
        let dir = scratch_dir("wf-unit");
        let wf = E2EWorkflow::new(run, [2, 2, 1], &dir);
        let rep = wf.execute().expect("workflow must complete");
        assert!(rep.archive_verified, "archive digests must match");
        assert_eq!(rep.checksums.len(), 4, "all four surface ranks digest");
        assert!(rep.pgv.max() > 0.0, "the scenario must shake the surface");
        assert_eq!(rep.seismograms.len(), sc.stations().len(), "every station recorded");
        assert!(rep.stage("cvm2mesh").is_some());
        assert!(rep.stage("awm-solve").unwrap().seconds > 0.0);
        assert!(rep.output_transactions > 0);
        assert!(rep.failed_at.is_none() && !rep.restarted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One session, many scenarios: the reuse shape the ensemble engine
    /// drives. Outputs must match dedicated one-shot workflows bit-exactly.
    #[test]
    fn one_session_runs_many_scenarios() {
        let session = WorkflowSession::new([2, 1, 1]);
        let scs = [
            Scenario::shakeout_k(20, 0.3).with_duration(10.0),
            Scenario::shakeout_k(20, 0.3).with_duration(14.0),
        ];
        for (n, sc) in scs.iter().enumerate() {
            let shared_dir = scratch_dir(&format!("wf-sess-{n}"));
            let rep = session.execute(&sc.prepare(), &shared_dir).expect("session run");
            let solo_dir = scratch_dir(&format!("wf-solo-{n}"));
            let solo = E2EWorkflow::new(sc.prepare(), [2, 1, 1], &solo_dir)
                .execute()
                .expect("solo run");
            assert_eq!(rep.pgv.data, solo.pgv.data, "scenario {n} PGV bit-exact");
            assert_eq!(rep.collection_checksum, solo.collection_checksum);
            let _ = std::fs::remove_dir_all(&shared_dir);
            let _ = std::fs::remove_dir_all(&solo_dir);
        }
    }

    /// The ISSUE's composition case: work-stealing scheduler armed, a rank
    /// crash injected mid-run, absorbed by in-flight supervisor recovery —
    /// and the finished surface still bit-identical to a clean run with
    /// the scheduler off.
    #[test]
    fn scheduler_composes_with_fault_injection_and_recovery() {
        use std::time::Duration;
        let sc = Scenario::shakeout_k(20, 0.3).with_duration(12.0);
        let clean_dir = scratch_dir("wf-sched-clean");
        let rep_clean = E2EWorkflow::new(sc.prepare(), [2, 1, 1], &clean_dir)
            .execute()
            .expect("clean reference run");

        let mut run = sc.prepare();
        run.cfg.opts.sched = Some(awp_solver::SchedOpts::new());
        let dir = scratch_dir("wf-sched-chaos");
        // Crash rank 1 at step 5: just past the first checkpoint epoch
        // (cadence 4), so the supervisor always has a rollback line.
        let plan = Arc::new(FaultPlan::new(0x5EED_0008).with_crash(1, 5));
        let mut wf = E2EWorkflow::new(run, [2, 1, 1], &dir);
        wf.session.checkpoint_every = Some(4);
        wf = wf
            .with_chaos(
                plan,
                WatchdogConfig {
                    timeout: Duration::from_secs(2),
                    poll: Duration::from_millis(50),
                },
            )
            .with_recovery(RetryPolicy::new(3));
        let rep = wf.execute().expect("sched + chaos + recovery workflow completes");
        assert!(rep.in_flight_recoveries >= 1, "crash absorbed in flight: {:?}", rep.faults);
        assert_eq!(rep.restarts, 0, "no whole-run restart needed");
        assert!(!rep.recovery_degraded);
        assert_eq!(rep_clean.pgv.data, rep.pgv.data, "PGV bit-exact vs scheduler-off clean run");
        assert_eq!(
            rep_clean.collection_checksum, rep.collection_checksum,
            "surface output bit-exact vs scheduler-off clean run"
        );
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workflow_publishes_live_stats_with_scheduler_counters() {
        use std::sync::atomic::Ordering;
        let sc = Scenario::shakeout_k(20, 0.3).with_duration(10.0);
        let mut run = sc.prepare();
        run.cfg.opts.sched = Some(awp_solver::SchedOpts::new());
        let live = LiveStats::new(2);
        let dir = scratch_dir("wf-live");
        let wf =
            E2EWorkflow::new(run, [2, 1, 1], &dir).with_live_stats(Arc::clone(&live));
        let rep = wf.execute().expect("workflow with live stats completes");
        assert!(rep.archive_verified);
        assert!(live.rank(0).step.load(Ordering::Relaxed) > 0, "step gauge advanced");
        assert!(live.rank(0).compute_ns.load(Ordering::Relaxed) > 0, "phase timers folded");
        let tiles: u64 = (0..2)
            .map(|r| {
                live.rank(r).tiles.load(Ordering::Relaxed)
                    + live.rank(r).stolen.load(Ordering::Relaxed)
            })
            .sum();
        assert!(tiles > 0, "scheduler published tile counters");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
