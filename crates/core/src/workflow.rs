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
//! [`WorkflowSession`] holds every knob *except* the scenario and the
//! scratch directory, `Send + Clone` so an ensemble worker pool can carry
//! one session across a whole catalog of events; one run is
//! `WorkflowSession::new(parts).with_*(..).execute(&run, &workdir)`.

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
use awp_solver::stations::{surface_velocities_into, Seismogram};
use awp_solver::{RankResult, SolvePlan};
use awp_telemetry::{LiveStats, Registry};
use awp_vcluster::fault::{FaultKind, FaultPlan, FaultReport, WatchdogConfig};
use awp_vcluster::schedule::SchedulePlan;
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
    /// Structured fault reports collected across all aborted passes.
    pub faults: Vec<FaultReport>,
    /// Number of whole-run restart passes that were needed.
    pub restarts: usize,
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
    /// Checkpoint-epoch retention depth (keep-last-K rotation).
    pub keep_checkpoints: usize,
    /// Seeded chaos schedule: injected rank crashes/stalls and message
    /// faults. A faulted pass triggers teardown and restart from the
    /// newest globally consistent checkpoint epoch, so a fault plan needs
    /// `checkpoint_every`.
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
    /// Live telemetry table (must be sized to the rank count of `parts`).
    /// When set, every solve pass publishes per-rank steps and phase
    /// timers into it — this is what a [`crate::stats`] endpoint
    /// streams to clients while the run is in flight.
    pub live: Option<Arc<LiveStats>>,
    /// Crash flight recorder: when set, every solve rank records into a
    /// small telemetry ring (or the attached registry's), and a rank that
    /// crashes, panics or hangs dumps its newest envelopes and spans to
    /// `flightrec-<rank>.json` in this directory (post-mortem triage
    /// without a full profile).
    pub flight_dir: Option<PathBuf>,
}

impl WorkflowSession {
    pub fn new(parts: [usize; 3]) -> Self {
        Self {
            parts,
            output_decimate: 4,
            flush_every: 50,
            open_limit: 650,
            input: InputMode::Prepartitioned,
            checkpoint_every: None,
            keep_checkpoints: 3,
            fault_plan: None,
            watchdog: None,
            schedule: None,
            max_restarts: 3,
            resume: false,
            telemetry: None,
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

    /// Publish live per-rank telemetry into `live` during every solve
    /// pass (serve it with [`crate::stats::StatsServer`]).
    pub fn with_live_stats(mut self, live: Arc<LiveStats>) -> Self {
        self.live = Some(live);
        self
    }

    /// Arm the crash flight recorder: a rank that crashes, panics or hangs
    /// dumps the tail of its telemetry rings to `dir/flightrec-<rank>.json`.
    pub fn with_flight_recorder(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flight_dir = Some(dir.into());
        self
    }

    /// Execute all stages for one prepared scenario in `workdir`. The
    /// session is borrowed immutably, so any number of worker threads may
    /// run disjoint scenarios through one shared session concurrently.
    /// An inconsistent configuration (LTS on a z-cut decomposition, say)
    /// is `InvalidInput` carrying the [`awp_solver::ConfigError`], and a
    /// fault plan without checkpointing (a faulted pass restarts from an
    /// epoch) is `InvalidInput` too, before any file is written.
    pub fn execute(&self, run: &ScenarioRun, workdir: &Path) -> io::Result<WorkflowReport> {
        if self.fault_plan.is_some() && self.checkpoint_every.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a fault plan needs checkpoint_every: a faulted pass restarts from an epoch",
            ));
        }
        let cfg = &run.cfg;
        let decomp = Decomp3::new(cfg.dims, self.parts);
        let n_ranks = decomp.rank_count();
        let mesh = std::slice::from_ref(&*run.mesh);
        let solve = SolvePlan::new(cfg, decomp, mesh, &run.source, &run.stations)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let mut stages = Vec::new();
        std::fs::create_dir_all(workdir)?;

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

        // 3. dSrcG (the plan holds PetaSrcP's per-rank subfaults).
        let src_path = workdir.join("source.bin");
        let t = Instant::now();
        awp_source::srcfile::write_source(&src_path, &run.source)?;
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
        let output = OutputPlan {
            decimate: self.output_decimate,
            flush_every: self.flush_every,
            rank_len,
            ranks: surface_ranks.len(),
        };
        let ckpt_dir = workdir.join("ckpt");
        if self.checkpoint_every.is_some() {
            std::fs::create_dir_all(&ckpt_dir)?;
        }
        // Checkpoint epochs must land on cluster-aligned ticks: at a tick
        // that is a multiple of the slowest cadence every cluster fires and
        // the interface prev-planes are recaptured before first use, so a
        // restored pass needs no extra LTS state to be bit-exact. Round the
        // requested cadence up rather than rejecting it.
        let lts_align = solve.lts.as_ref().map_or(1, |p| p.max_rate() as usize);
        let checkpoint_every = self.checkpoint_every.map(|e| e.div_ceil(lts_align) * lts_align);
        let env = SolveEnv {
            session: self,
            plan: &solve,
            parts_dir: &parts_dir,
            throttle: &throttle,
            ondemand_meshes: &ondemand_meshes,
            writer: &writer,
            output,
            surface_ranks: &surface_ranks,
            ckpt_dir: &ckpt_dir,
            checkpoint_every,
        };
        let t = Instant::now();
        let mut failed_at: Option<usize> = None;
        let mut restarted = false;
        let mut restarts = 0usize;
        let mut faults: Vec<FaultReport> = Vec::new();
        // Solve / restart loop, the one recovery path: a faulted pass tears
        // the cluster down, the newest epoch that is MD5-valid on *every*
        // rank becomes the globally consistent restart line, and the next
        // pass resumes from it. "This approach helps restart in the case of
        // unexpected termination" (§III.F).
        let results = loop {
            let resume_epoch = if restarts == 0 && !self.resume {
                None
            } else {
                consistent_epoch(&ckpt_dir, n_ranks)?
            };
            let outcomes = solve_ranks(&env, resume_epoch)?;
            let pass_faults: Vec<FaultReport> =
                outcomes.iter().filter_map(|r| r.as_ref().err().cloned()).collect();
            if pass_faults.is_empty() {
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

        let (ranks, digests): (Vec<RankResult>, Vec<String>) = results.into_iter().unzip();
        let pgv_map = PgvMap::from_rank_results(&ranks, cfg.dims, cfg.h);
        let checksums: Vec<String> = digests.into_iter().filter(|d| !d.is_empty()).collect();
        let seismograms: Vec<Seismogram> = ranks.into_iter().flat_map(|r| r.seismograms).collect();
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
        // Both files are read back from disk and hashed concurrently.
        let digest = |path: &Path| std::fs::read(path).map(|bytes| Md5::digest_hex(&bytes));
        let (source_md5, copy_md5) = std::thread::scope(|s| {
            let source = s.spawn(|| digest(&surface_file));
            let copy = digest(&archived);
            (source.join().expect("archive digest thread panicked"), copy)
        });
        let archive_verified = source_md5? == copy_md5?;
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
        })
    }
}

/// Everything a solve pass needs (shared between the initial run and a
/// restart).
struct SolveEnv<'a> {
    session: &'a WorkflowSession,
    plan: &'a SolvePlan,
    parts_dir: &'a Path,
    throttle: &'a OpenThrottle,
    ondemand_meshes: &'a Option<Vec<Mesh>>,
    writer: &'a Arc<SharedFileWriter>,
    output: OutputPlan,
    surface_ranks: &'a [usize],
    ckpt_dir: &'a Path,
    /// The session's cadence rounded up to the slowest dt-cluster's rate.
    checkpoint_every: Option<usize>,
}

/// Run all ranks from step 0 (or from the given checkpoint epoch) to
/// completion. Ranks execute behind the cluster's fault boundary: per rank
/// its result and output digest, or its fault report; a rank-local I/O
/// error fails the whole pass.
fn solve_ranks(
    env: &SolveEnv<'_>,
    resume_epoch: Option<u64>,
) -> io::Result<Vec<Result<(RankResult, String), FaultReport>>> {
    let (session, cfg) = (env.session, &env.plan.cfg);
    let mut cluster = env.plan.cluster();
    if let Some(plan) = &session.fault_plan {
        cluster = cluster.with_fault_plan(Arc::clone(plan));
    }
    if let Some(wd) = session.watchdog {
        cluster = cluster.with_watchdog(wd);
    }
    if let Some(plan) = &session.schedule {
        cluster = cluster.with_schedule(Arc::clone(plan));
    }
    if let Some(reg) = &session.telemetry {
        cluster = cluster.with_telemetry(Arc::clone(reg));
    }
    if let Some(live) = &session.live {
        cluster = cluster.with_live_stats(Arc::clone(live));
    }
    if let Some(dir) = &session.flight_dir {
        cluster = cluster.with_flight_recorder(dir.clone());
    }
    // A rank's result and the digest of its final output block.
    let body = |ctx: &mut awp_vcluster::RankCtx| -> io::Result<(RankResult, String)> {
        let rank = ctx.rank();
        // Each rank obtains its sub-mesh per the configured input scheme.
        let read;
        let local = match env.ondemand_meshes {
            Some(meshes) => &meshes[rank],
            None => {
                read = read_prepartitioned(env.parts_dir, rank, Some(env.throttle))?;
                &read
            }
        };
        let mut solve = env.plan.rank(ctx, local);
        let surf_slot = env.surface_ranks.iter().position(|&r| r == rank);
        let mut agg = surf_slot.map(|slot| OutputAggregator::new(env.output, slot));
        let store = CheckpointStore::new(env.ckpt_dir, rank, session.keep_checkpoints);
        let mut start_step = 0usize;
        if let Some(epoch) = resume_epoch {
            // Every rank resumes from the same globally consistent epoch
            // (selected by `consistent_epoch` before this pass started).
            let ckpt = store.load(epoch)?;
            start_step = ckpt.step as usize;
            solve.solver.restore_fields(&ckpt.fields);
            solve.solver.step = start_step;
            if let (Some(saved), false) = (ckpt.field("workflow_pgv"), solve.pgv.is_empty()) {
                solve.pgv.copy_from_slice(saved);
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
        for step in start_step..cfg.steps {
            solve.step(ctx);
            if let Some(agg) = agg.as_mut() {
                agg.record_traced(step, env.writer, &mut ctx.telem, |rec| {
                    surface_velocities_into(&solve.solver.state, rec)
                })?;
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
                    let mut fields = solve.solver.checkpoint_fields();
                    fields.push(("workflow_pgv".to_string(), solve.pgv.clone()));
                    if solve.solver.lts_active() {
                        let align = env.plan.lts.as_ref().map_or(1, |p| p.max_rate() as u64);
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
        // Parallel MD5 of this rank's final output block.
        let digest = match surf_slot {
            Some(slot) if cfg.steps > 0 => {
                let last_rec = (cfg.steps - 1) / env.output.decimate;
                let block = env.output.offset(last_rec, slot);
                Md5::digest_hex(&env.writer.read_bytes_at(block, 4 * env.output.rank_len)?)
            }
            _ => String::new(),
        };
        Ok((solve.finish(ctx), digest))
    };
    let pass = cluster.try_run(body).into_iter();
    pass.map(|r| r.map_or_else(|fault| Ok(Err(fault)), |outcome| outcome.map(Ok))).collect()
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
        let rep =
            WorkflowSession::new([2, 2, 1]).execute(&run, &dir).expect("workflow must complete");
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
    /// drives. Outputs must match a fresh session per scenario bit-exactly.
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
            let solo = WorkflowSession::new([2, 1, 1])
                .execute(&sc.prepare(), &solo_dir)
                .expect("solo run");
            assert_eq!(rep.pgv.data, solo.pgv.data, "scenario {n} PGV bit-exact");
            assert_eq!(rep.collection_checksum, solo.collection_checksum);
            let _ = std::fs::remove_dir_all(&shared_dir);
            let _ = std::fs::remove_dir_all(&solo_dir);
        }
    }

    #[test]
    fn workflow_publishes_live_stats() {
        use std::sync::atomic::Ordering;
        let sc = Scenario::shakeout_k(20, 0.3).with_duration(10.0);
        let run = sc.prepare();
        let live = LiveStats::new(2);
        let dir = scratch_dir("wf-live");
        let rep = WorkflowSession::new([2, 1, 1])
            .with_live_stats(Arc::clone(&live))
            .execute(&run, &dir)
            .expect("workflow with live stats completes");
        assert!(rep.archive_verified);
        assert!(live.rank(0).step.load(Ordering::Relaxed) > 0, "step gauge advanced");
        assert!(live.rank(0).compute_ns.load(Ordering::Relaxed) > 0, "phase timers folded");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
