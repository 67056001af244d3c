//! The ensemble engine: worker pool + shared meshes + cache accounting.
//!
//! One engine owns a queue, a store, a mesh cache and one reusable
//! [`WorkflowSession`] holding the solve settings; [`drain`](EnsembleEngine::drain)
//! spawns N worker threads that claim jobs by priority and solve each
//! scenario into the content-addressed store. The CVM build — the
//! expensive shared structure — is amortised: one `Arc<Mesh>` per
//! [`ScenarioSpec::mesh_key`], built once and handed to every event that
//! shares it (the multiple-simulation framing of Yamaguchi et al.).
//!
//! A miss costs its solve and nothing else. The paper's workflow writes the
//! mesh, parts, source and surface output to files, checksums them and
//! archives them, because M8's mesh fits in no one memory and its outputs
//! must outlive the run; an ensemble job holds its mesh in memory and its
//! product is the PGV map plus seismograms that [`ResultsStore::put`]
//! persists. So a miss runs its [`SolvePlan`] in memory on the shared mesh
//! (`[1, 1, 1]` borrows it, more ranks cut it in memory) and publishes what
//! the ranks return: the same bytes [`WorkflowSession::execute`] would
//! produce for the run, with no work directory.
//!
//! Reads are amortised the same way: a result is decoded once, into a
//! `SiteIndex` memoized by content hash, and every later site query or
//! hazard sweep reads that instead of the stored artifacts.

use crate::queue::{CancelToken, JobOutcome, JobQueue};
use crate::spec::ScenarioSpec;
use crate::store::{ResultsStore, SiteIndex};
use awp_analysis::pgv::PgvMap;
use awp_cvm::mesh::Mesh;
use awp_grid::decomp::Decomp3;
use awp_odc::scenario::ScenarioRun;
use awp_odc::workflow::WorkflowSession;
use awp_solver::solver::partition_mesh_direct;
use awp_solver::stations::Seismogram;
use awp_solver::SolvePlan;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Cache / throughput counters. All relaxed: these are observability
/// counters, not synchronisation.
#[derive(Debug, Default)]
pub struct EngineStats {
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub jobs_done: AtomicU64,
    pub jobs_cancelled: AtomicU64,
    pub jobs_failed: AtomicU64,
    pub mesh_builds: AtomicU64,
    pub mesh_reuses: AtomicU64,
}

impl EngineStats {
    pub fn snapshot_json(&self) -> serde_json::Value {
        serde_json::json!({
            "cache_hits": self.cache_hits.load(Ordering::Relaxed),
            "cache_misses": self.cache_misses.load(Ordering::Relaxed),
            "jobs_done": self.jobs_done.load(Ordering::Relaxed),
            "jobs_cancelled": self.jobs_cancelled.load(Ordering::Relaxed),
            "jobs_failed": self.jobs_failed.load(Ordering::Relaxed),
            "mesh_builds": self.mesh_builds.load(Ordering::Relaxed),
            "mesh_reuses": self.mesh_reuses.load(Ordering::Relaxed)
        })
    }
}

/// How a spec was satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Result was already in the store (cache hit).
    Cached(String),
    /// Result was computed and published now.
    Computed(String),
    /// The cancellation token fired before publication.
    Cancelled,
}

impl RunOutcome {
    pub fn hash(&self) -> Option<&str> {
        match self {
            RunOutcome::Cached(h) | RunOutcome::Computed(h) => Some(h),
            RunOutcome::Cancelled => None,
        }
    }
}

/// One value per key, built at most once. The map lock is held only to
/// find or insert a key's cell; a build runs under its own cell, so builds
/// of different keys proceed concurrently, while a second caller of a key
/// being built waits for that build instead of repeating it.
struct OnceMap<V>(Mutex<HashMap<String, Arc<OnceLock<V>>>>);

impl<V: Clone> OnceMap<V> {
    fn new() -> Self {
        OnceMap(Mutex::new(HashMap::new()))
    }

    /// The value under `key`, built by `init` if no caller has built it;
    /// `true` when this call built it.
    fn get_or_init(&self, key: String, init: impl FnOnce() -> V) -> (V, bool) {
        let cell = {
            let mut cells = self.0.lock().expect("once map: a caller panicked holding the lock");
            Arc::clone(cells.entry(key).or_default())
        };
        let mut built = false;
        let value = cell
            .get_or_init(|| {
                built = true;
                init()
            })
            .clone();
        (value, built)
    }
}

/// The engine. Share it as `Arc<EnsembleEngine>`; every method is
/// `&self`.
pub struct EnsembleEngine {
    /// The solve settings of every job: `parts`, `schedule` and
    /// `telemetry` (see [`open_with_session`](Self::open_with_session)).
    pub session: WorkflowSession,
    pub queue: JobQueue,
    pub store: ResultsStore,
    pub stats: EngineStats,
    meshes: OnceMap<Arc<Mesh>>,
    /// Site indexes by scenario hash. Results are content-addressed, so an
    /// entry never goes stale; [`hazard_at`](Self::hazard_at) drops the
    /// entries of results that have left the store.
    sites: Mutex<HashMap<String, Arc<SiteIndex>>>,
}

impl EnsembleEngine {
    /// Open an engine rooted at `root` (creates `queue/` and `store/`
    /// underneath) with solve decomposition `parts`.
    pub fn open(root: impl Into<PathBuf>, parts: [usize; 3]) -> io::Result<Arc<Self>> {
        Self::open_with_session(root, WorkflowSession::new(parts))
    }

    /// Same, but with a caller-configured session. Every job solves on
    /// `session.parts` ranks, under `session.schedule` (message-order
    /// fuzzing) and into `session.telemetry`. A job solves in memory, so a
    /// session setting that only the file pipeline's solve can honour is
    /// refused with `InvalidInput` naming it and why. The file-layout
    /// settings (`output_decimate`, `flush_every`, `open_limit`, `input`,
    /// `keep_checkpoints`, `max_restarts`) shape only files a job does not
    /// write, and change no stored byte.
    pub fn open_with_session(
        root: impl Into<PathBuf>,
        session: WorkflowSession,
    ) -> io::Result<Arc<Self>> {
        const EPOCHS: &str = "it needs checkpoint epochs, and a job writes none";
        let refused: Vec<String> = [
            ("checkpoint_every", session.checkpoint_every.is_some(), EPOCHS),
            ("fault_plan", session.fault_plan.is_some(), "faulted passes restart from epochs"),
            ("resume", session.resume, EPOCHS),
            ("watchdog", session.watchdog.is_some(), "it ends hangs a fault plan injects"),
            ("live", session.live.is_some(), "one rank table cannot hold concurrent jobs"),
            (
                "flight_dir",
                session.flight_dir.is_some(),
                "concurrent jobs would share one flightrec-<rank>.json name",
            ),
        ]
        .into_iter()
        .filter(|&(_, set, _)| set)
        .map(|(name, _, why)| format!("{name} ({why})"))
        .collect();
        if !refused.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("ensemble jobs solve in memory and cannot honour: {}", refused.join("; ")),
            ));
        }
        let root = root.into();
        Ok(Arc::new(EnsembleEngine {
            session,
            queue: JobQueue::open(root.join("queue"))?,
            store: ResultsStore::open(root.join("store"))?,
            stats: EngineStats::default(),
            meshes: OnceMap::new(),
            sites: Mutex::new(HashMap::new()),
        }))
    }

    /// The shared mesh for a spec: built once per
    /// [`ScenarioSpec::mesh_key`], reused (same `Arc`) thereafter. Workers
    /// wanting the same mesh never build it twice; workers wanting
    /// different meshes build them concurrently.
    pub fn mesh_for(&self, spec: &ScenarioSpec) -> io::Result<Arc<Mesh>> {
        let key = spec.mesh_key().map_err(io::Error::other)?;
        let sc = spec.to_scenario().map_err(io::Error::other)?;
        let (mesh, built) = self.meshes.get_or_init(key, || {
            let mut mesh = sc.build_mesh();
            if spec.cvm_amp > 0.0 {
                mesh.perturb(spec.cvm_seed, spec.cvm_amp);
            }
            Arc::new(mesh)
        });
        let counter = if built { &self.stats.mesh_builds } else { &self.stats.mesh_reuses };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(mesh)
    }

    /// Solve one prepared run in memory on `session.parts` ranks and return
    /// what the store publishes: the PGV map and the seismograms. An
    /// invalid configuration is `InvalidInput`; a rank fault (a panic in
    /// any rank) is an error naming every rank's report.
    fn solve(&self, run: &ScenarioRun) -> io::Result<(PgvMap, Vec<Seismogram>)> {
        let cfg = &run.cfg;
        let decomp = Decomp3::new(cfg.dims, self.session.parts);
        let cut;
        let meshes = if decomp.rank_count() == 1 {
            std::slice::from_ref(&*run.mesh)
        } else {
            cut = partition_mesh_direct(&run.mesh, &decomp);
            &cut[..]
        };
        let plan = SolvePlan::new(cfg, decomp, meshes, &run.source, &run.stations)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let mut cluster = plan.cluster();
        if let Some(registry) = &self.session.telemetry {
            cluster = cluster.with_telemetry(Arc::clone(registry));
        }
        if let Some(schedule) = &self.session.schedule {
            cluster = cluster.with_schedule(Arc::clone(schedule));
        }
        let ranks = plan.run(&cluster, meshes);
        let faults: Vec<String> =
            ranks.iter().filter_map(|r| r.as_ref().err()).map(|f| f.to_string()).collect();
        if !faults.is_empty() {
            return Err(io::Error::other(format!("solve failed: {}", faults.join("; "))));
        }
        let results: Vec<_> = ranks.into_iter().flatten().collect();
        let pgv = PgvMap::from_rank_results(&results, cfg.dims, cfg.h);
        Ok((pgv, results.into_iter().flat_map(|r| r.seismograms).collect()))
    }

    /// Satisfy one spec: cache hit, or compute-and-publish. The optional
    /// token is polled at the cheap points (before the solve and before
    /// publication); a fired token discards the work without storing.
    pub fn run_spec(
        &self,
        spec: &ScenarioSpec,
        token: Option<&CancelToken>,
    ) -> io::Result<RunOutcome> {
        let hash = spec.hash().map_err(io::Error::other)?;
        if self.store.contains(&hash) {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(RunOutcome::Cached(hash));
        }
        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        if token.is_some_and(CancelToken::is_cancelled) {
            return Ok(RunOutcome::Cancelled);
        }
        let mesh = self.mesh_for(spec)?;
        let sc = spec.to_scenario().map_err(io::Error::other)?;
        let mut run = sc.prepare_with_mesh(mesh);
        if spec.lts {
            run.cfg.opts.lts = Some(awp_solver::LtsOpts::new());
        }
        if token.is_some_and(CancelToken::is_cancelled) {
            return Ok(RunOutcome::Cancelled);
        }
        let (pgv, seismograms) = self.solve(&run)?;
        if token.is_some_and(CancelToken::is_cancelled) {
            return Ok(RunOutcome::Cancelled);
        }
        self.store.put(&hash, &spec.family, spec.mw, &pgv, &seismograms)?;
        Ok(RunOutcome::Computed(hash))
    }

    /// Submit every event of a catalog, priority = mainshocks above
    /// aftershocks, earlier events first within a kind. Returns job ids
    /// in event order.
    pub fn submit_catalog(&self, events: &[crate::catalog::CatalogEvent]) -> io::Result<Vec<u64>> {
        let mut ids = Vec::with_capacity(events.len());
        for e in events {
            let priority = match e.kind {
                crate::catalog::EventKind::Mainshock => 10,
                crate::catalog::EventKind::Aftershock { .. } => 5,
            };
            ids.push(self.queue.submit(e.spec.clone(), priority)?);
        }
        Ok(ids)
    }

    /// Drain the queue with `workers` threads. Returns when no pending
    /// jobs remain (jobs claimed by these workers are completed before
    /// return; a panicking worker poisons nothing — each claim's outcome
    /// is written before the next claim).
    pub fn drain(self: &Arc<Self>, workers: usize) -> io::Result<()> {
        let mut handles = Vec::new();
        for _ in 0..workers.max(1) {
            let engine = Arc::clone(self);
            handles.push(std::thread::spawn(move || -> io::Result<()> {
                while let Some(claim) = engine.queue.claim()? {
                    let outcome = match engine.run_spec(&claim.job.spec, Some(&claim.token)) {
                        Ok(RunOutcome::Cancelled) => {
                            engine.stats.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                            JobOutcome::Cancelled
                        }
                        Ok(out) => {
                            engine.stats.jobs_done.fetch_add(1, Ordering::Relaxed);
                            JobOutcome::Done { hash: out.hash().unwrap().to_string() }
                        }
                        Err(e) => {
                            engine.stats.jobs_failed.fetch_add(1, Ordering::Relaxed);
                            JobOutcome::Failed { error: e.to_string() }
                        }
                    };
                    engine.queue.complete(claim.job.id, outcome)?;
                }
                Ok(())
            }));
        }
        for h in handles {
            h.join().map_err(|_| io::Error::other("ensemble worker panicked"))??;
        }
        Ok(())
    }

    /// The site index of stored result `hash`: memoized, or decoded from
    /// the store now (outside the lock; two first readers may both decode,
    /// and both get the same answers).
    pub(crate) fn site_index(&self, hash: &str) -> io::Result<Arc<SiteIndex>> {
        if let Some(index) = self.site_memo().get(hash) {
            return Ok(Arc::clone(index));
        }
        self.decode_site_index(hash)
    }

    /// Decode `hash`'s site index from the store and memoize it.
    fn decode_site_index(&self, hash: &str) -> io::Result<Arc<SiteIndex>> {
        let index = Arc::new(self.store.load(hash)?.site_index());
        self.site_memo().insert(hash.to_string(), Arc::clone(&index));
        Ok(index)
    }

    fn site_memo(&self) -> MutexGuard<'_, HashMap<String, Arc<SiteIndex>>> {
        self.sites.lock().expect("site memo: a reader panicked while holding the lock")
    }

    /// Answer "ground motion at `site` for scenario `spec`": cache hit or
    /// compute, then read the result's site index. Returns
    /// `(outcome, pgvh at site, PGV-map max)`.
    pub fn query_site(
        &self,
        spec: &ScenarioSpec,
        site: &str,
    ) -> io::Result<(RunOutcome, f64, f64)> {
        let outcome = self.run_spec(spec, None)?;
        let Some(hash) = outcome.hash() else {
            return Err(io::Error::other("query cancelled"));
        };
        let index = self.site_index(hash)?;
        let pgvh = index
            .pgvh_at(site)
            .ok_or_else(|| io::Error::other(format!("no station named '{site}'")))?;
        Ok((outcome, pgvh, index.pgv_max))
    }

    /// Hazard sweep: peak horizontal velocity at `site` across every
    /// stored scenario, sorted descending. The store directory is read once
    /// per sweep: a listed hash with a memo entry is answered from it, and
    /// any other is decoded only if its directory holds a manifest (one
    /// without is not published yet and is skipped). A result removed from
    /// disk drops out of the curve, and its memo entry with it.
    pub fn hazard_at(&self, site: &str) -> io::Result<Vec<(String, f64, f64)>> {
        let listed = self.store.hash_names()?;
        let memoized: Vec<Option<Arc<SiteIndex>>> = {
            let mut memo = self.site_memo();
            memo.retain(|hash, _| listed.binary_search(hash).is_ok());
            listed.iter().map(|hash| memo.get(hash).cloned()).collect()
        };
        let mut curve = Vec::new();
        for (hash, index) in listed.into_iter().zip(memoized) {
            let index = match index {
                Some(index) => index,
                None if self.store.contains(&hash) => self.decode_site_index(&hash)?,
                None => continue,
            };
            if let Some(pgvh) = index.pgvh_at(site) {
                curve.push((hash, index.mw, pgvh));
            }
        }
        curve.sort_by(|a, b| b.2.total_cmp(&a.2));
        Ok(curve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// Each build of a distinct key waits until the other has started: a
    /// map that built one key at a time would time out here.
    #[test]
    fn builds_of_distinct_keys_run_concurrently() {
        let map = OnceMap::new();
        let (a_started, a_seen) = mpsc::channel();
        let (b_started, b_seen) = mpsc::channel();
        let wait = Duration::from_secs(20);
        let (a, b) = std::thread::scope(|s| {
            let map = &map;
            let a = s.spawn(move || {
                map.get_or_init("a".into(), move || {
                    a_started.send(()).unwrap();
                    b_seen.recv_timeout(wait).is_ok()
                })
            });
            let b = s.spawn(move || {
                map.get_or_init("b".into(), move || {
                    b_started.send(()).unwrap();
                    a_seen.recv_timeout(wait).is_ok()
                })
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!((a, b), ((true, true), (true, true)), "both builds overlapped");
    }

    /// Callers racing on one key run one build; every caller gets its value.
    #[test]
    fn racing_callers_of_one_key_build_once() {
        let map = OnceMap::new();
        let builds = AtomicUsize::new(0);
        let start = Barrier::new(6);
        let got: Vec<(u32, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        map.get_or_init("k".into(), || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(20));
                            42
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert!(got.iter().all(|&(v, _)| v == 42));
        assert_eq!(got.iter().filter(|&&(_, built)| built).count(), 1);
    }

    /// A rank that panics mid-solve (here the health probe finding a
    /// non-finite velocity) fails the solve with its report; the panic does
    /// not reach the caller.
    #[test]
    fn a_rank_fault_fails_the_solve_without_panicking_the_caller() {
        let root = std::env::temp_dir()
            .join(format!("awp-engine-rank-fault-{}", std::process::id()));
        let engine = EnsembleEngine::open(&root, [2, 1, 1]).unwrap();
        let mut spec = ScenarioSpec::new("shakeout-k", 16).unwrap();
        spec.duration_s = 20.0;
        let mut mesh = (*engine.mesh_for(&spec).unwrap()).clone();
        mesh.rho.iter_mut().for_each(|r| *r = f32::NAN);
        let mut run = spec.to_scenario().unwrap().prepare_with_mesh(Arc::new(mesh));
        run.cfg.opts.health_every = 1;
        let err = engine.solve(&run).expect_err("a rank fault fails the solve");
        assert!(err.to_string().contains("sim-health:"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
