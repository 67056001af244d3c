//! The ensemble engine: worker pool + shared meshes + cache accounting.
//!
//! One engine owns a queue, a store, a mesh cache and one reusable
//! [`WorkflowSession`]; [`drain`](EnsembleEngine::drain) spawns N worker
//! threads that claim jobs by priority and push each scenario through the
//! full E2E workflow into the content-addressed store. The CVM build —
//! the expensive shared structure — is amortised: one `Arc<Mesh>` per
//! [`ScenarioSpec::mesh_key`], handed to every event that shares it
//! (the multiple-simulation framing of Yamaguchi et al.).
//!
//! Reads are amortised the same way: a result is decoded once, into a
//! `SiteIndex` memoized by content hash, and every later site query or
//! hazard sweep reads that instead of the stored artifacts.

use crate::queue::{CancelToken, JobOutcome, JobQueue};
use crate::spec::ScenarioSpec;
use crate::store::{ResultsStore, SiteIndex};
use awp_cvm::mesh::Mesh;
use awp_odc::workflow::WorkflowSession;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

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

/// The engine. Share it as `Arc<EnsembleEngine>`; every method is
/// `&self`.
pub struct EnsembleEngine {
    pub session: WorkflowSession,
    pub queue: JobQueue,
    pub store: ResultsStore,
    pub stats: EngineStats,
    scratch: PathBuf,
    meshes: Mutex<HashMap<String, Arc<Mesh>>>,
    /// Site indexes by scenario hash. Results are content-addressed, so an
    /// entry never goes stale; [`hazard_at`](Self::hazard_at) drops the
    /// entries of results that have left the store.
    sites: Mutex<HashMap<String, Arc<SiteIndex>>>,
}

impl EnsembleEngine {
    /// Open an engine rooted at `root` (creates `queue/`, `store/`,
    /// `scratch/` underneath) with solve decomposition `parts`.
    pub fn open(root: impl Into<PathBuf>, parts: [usize; 3]) -> io::Result<Arc<Self>> {
        let root = root.into();
        let scratch = root.join("scratch");
        std::fs::create_dir_all(&scratch)?;
        Ok(Arc::new(EnsembleEngine {
            session: WorkflowSession::new(parts),
            queue: JobQueue::open(root.join("queue"))?,
            store: ResultsStore::open(root.join("store"))?,
            stats: EngineStats::default(),
            scratch,
            meshes: Mutex::new(HashMap::new()),
            sites: Mutex::new(HashMap::new()),
        }))
    }

    /// Same, but with a caller-configured session (schedule fuzzing,
    /// telemetry, recovery policies — anything a
    /// [`WorkflowSession`] carries applies to every job this engine
    /// runs).
    pub fn open_with_session(
        root: impl Into<PathBuf>,
        session: WorkflowSession,
    ) -> io::Result<Arc<Self>> {
        let engine = Self::open(root, session.parts)?;
        // Arc::try_unwrap dance avoided: rebuild with the session swapped.
        let engine = Arc::try_unwrap(engine).unwrap_or_else(|_| unreachable!("fresh Arc"));
        Ok(Arc::new(EnsembleEngine { session, ..engine }))
    }

    /// The shared mesh for a spec: built once per
    /// [`ScenarioSpec::mesh_key`], reused (same `Arc`) thereafter.
    pub fn mesh_for(&self, spec: &ScenarioSpec) -> io::Result<Arc<Mesh>> {
        let key = spec.mesh_key().map_err(io::Error::other)?;
        // Fast path under the lock; build outside it would allow duplicate
        // builds under contention — the build is the expensive part, so
        // hold the lock (workers building *different* meshes serialise
        // briefly; workers wanting the *same* mesh never build twice).
        let mut cache = self.meshes.lock().unwrap();
        if let Some(mesh) = cache.get(&key) {
            self.stats.mesh_reuses.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(mesh));
        }
        let sc = spec.to_scenario().map_err(io::Error::other)?;
        let mut mesh = sc.build_mesh();
        if spec.cvm_amp > 0.0 {
            mesh.perturb(spec.cvm_seed, spec.cvm_amp);
        }
        let mesh = Arc::new(mesh);
        cache.insert(key, Arc::clone(&mesh));
        self.stats.mesh_builds.fetch_add(1, Ordering::Relaxed);
        Ok(mesh)
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
        let workdir = self.scratch.join(format!("{hash}-{}", std::process::id()));
        let result = self.session.execute(&run, &workdir);
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&workdir);
                return Err(e);
            }
        };
        let outcome = if token.is_some_and(CancelToken::is_cancelled) {
            RunOutcome::Cancelled
        } else {
            self.store.put(&hash, &spec.family, spec.mw, &report.pgv, &report.seismograms)?;
            RunOutcome::Computed(hash)
        };
        let _ = std::fs::remove_dir_all(&workdir);
        Ok(outcome)
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
