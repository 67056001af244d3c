//! `catalog-ensemble`: ensemble *writes*. Each rep opens an engine on a
//! fresh store root, submits a seeded 8-event catalog and drains it with
//! two workers — queue, mesh cache, per-scenario solver construction and
//! `store.put`, with no wire in the way.

use crate::metrics::Ledger;
use crate::run::{Checks, Rng, RunArgs, Scratch, Workload};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use awp_ensemble::queue::JobOutcome;
use awp_ensemble::{
    generate_catalog, CatalogConfig, CatalogEvent, EnsembleEngine, JobQueue, JobState,
    ResultsStore, ScenarioSpec,
};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

const EVENTS: usize = 8;

/// A seeded demo catalog: the catalog seed and both CVM seeds come from
/// `rng` (CVM seeds stay below 2^53 — they travel through JSON numbers).
pub fn seeded_catalog(
    rng: &mut Rng,
    events: usize,
    nx: usize,
    duration_s: f64,
) -> Vec<CatalogEvent> {
    let mut cfg = CatalogConfig::demo(rng.next_u64() >> 12, events, nx, duration_s);
    cfg.cvm_seeds = vec![rng.next_u64() >> 12, rng.next_u64() >> 12];
    generate_catalog(&cfg).expect("the demo catalog configuration is valid")
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.filter_map(|e| e.ok()?.metadata().ok()).map(|m| m.len()).sum::<u64>()
        })
        .unwrap_or(0)
}

pub struct EnsembleWorkload {
    events: Vec<CatalogEvent>,
    scratch: Scratch,
    /// Artifact digests of the warm-up rep, by scenario hash; every later
    /// rep must publish the same bytes.
    reference_artifacts: Vec<(String, String)>,
    drain_s: Vec<f64>,
    mesh_builds: f64,
    mesh_reuses: f64,
}

impl EnsembleWorkload {
    /// One pass: fresh root, open, submit, drain with `workers`. Returns
    /// `(total wall, drain wall, engine)`.
    fn pass(
        &self,
        workers: usize,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Option<(f64, f64, Arc<EnsembleEngine>)> {
        let root = self.scratch.path().join("root");
        let _ = std::fs::remove_dir_all(&root);
        let t0 = Instant::now();
        let engine = tr.span("ensemble", "EnsembleEngine::open", |_| {
            checks.op("EnsembleEngine::open", EnsembleEngine::open(&root, [1, 1, 1]))
        })?;
        tr.span("ensemble", "EnsembleEngine::submit_catalog", |_| {
            checks.op("submit_catalog", engine.submit_catalog(&self.events))
        })?;
        let (drained, drain_s) = tr.timed("ensemble", "EnsembleEngine::drain", |_| {
            checks.op("drain", engine.drain(workers))
        });
        drained?;
        Some((t0.elapsed().as_secs_f64(), drain_s, engine))
    }

    /// Every job done, every artifact verifies, and the published bytes
    /// equal the warm-up rep's.
    fn check_store(&mut self, engine: &EnsembleEngine, tr: &mut Tracer, checks: &mut Checks) {
        let jobs = engine.queue.jobs();
        let done = jobs.iter().filter(|j| j.state == JobState::Done).count();
        checks.check(jobs.len() == EVENTS && done == EVENTS, || {
            format!("{done} of {} jobs done, expected {EVENTS}", jobs.len())
        });
        let mut artifacts = Vec::new();
        for job in &jobs {
            let Some(hash) = &job.result_hash else { continue };
            tr.span("ensemble", "ResultsStore::verify", |_| {
                checks.op("store.verify", engine.store.verify(hash));
            });
            if let Some(m) = checks.op("store.manifest", engine.store.manifest(hash)) {
                artifacts.push((hash.clone(), m["artifacts"].compact()));
            }
        }
        artifacts.sort();
        artifacts.dedup();
        if let Some((hash, _)) = artifacts.first() {
            let loaded = tr.span("ensemble", "ResultsStore::load", |_| {
                checks.op("store.load", engine.store.load(hash))
            });
            if let Some(r) = loaded {
                let peak = r.pgv.max();
                checks.check(r.pgv.data.iter().all(|v| v.is_finite()) && peak > 0.0, || {
                    format!("stored PGV map must be finite and non-zero (peak {peak})")
                });
            }
        }
        if self.reference_artifacts.is_empty() {
            self.reference_artifacts = artifacts;
        } else {
            checks.check(artifacts == self.reference_artifacts, || {
                "published artifacts differ from the warm-up rep's".into()
            });
        }
        self.mesh_builds = engine.stats.mesh_builds.load(Ordering::Relaxed) as f64;
        self.mesh_reuses = engine.stats.mesh_reuses.load(Ordering::Relaxed) as f64;
    }
}

impl Workload for EnsembleWorkload {
    fn setup(args: &RunArgs, tr: &mut Tracer, checks: &mut Checks) -> Self {
        let mut rng = Rng::new(args.seed);
        let (nx, duration) = if args.smoke { (16, 10.0) } else { (96, 40.0) };
        let events = tr.span("ensemble", "generate_catalog", |_| {
            seeded_catalog(&mut rng, EVENTS, nx, duration)
        });
        let mut w = EnsembleWorkload {
            events,
            scratch: Scratch::new("ensemble").expect("scratch directory under the target dir"),
            reference_artifacts: Vec::new(),
            drain_s: Vec::new(),
            mesh_builds: 0.0,
            mesh_reuses: 0.0,
        };
        if let Some((_, _, engine)) = w.pass(2, tr, checks) {
            w.check_store(&engine, tr, checks);
        }
        w
    }

    fn rep(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        let Some((wall, drain, engine)) = self.pass(2, tr, checks) else { return 0.0 };
        self.drain_s.push(drain);
        tr.span("harness", "check", |tr| self.check_store(&engine, tr, checks));
        wall
    }

    fn layers(&mut self, tr: &mut Tracer, checks: &mut Checks, out: &mut Ledger) {
        let drain2_s = median(&self.drain_s);
        out.set("ensemble.scenarios_per_s", ratio(EVENTS as f64, drain2_s));
        out.set("ensemble.mesh_builds", self.mesh_builds);
        out.set("ensemble.mesh_reuses", self.mesh_reuses);
        out.set("ensemble.store_verify_ms", median(&tr.durations_s("ResultsStore::verify")) * 1e3);
        out.set("ensemble.store_load_ms", median(&tr.durations_s("ResultsStore::load")) * 1e3);

        // One worker against two, same catalog.
        if let Some((_, drain1_s, _)) = self.pass(1, tr, checks) {
            out.set("ensemble.worker_speedup", ratio(drain1_s, drain2_s));
        }

        // Single-thread replica of `run_spec` through its public pieces.
        let root = self.scratch.path().join("replica");
        let _ = std::fs::remove_dir_all(&root);
        let specs: Vec<&ScenarioSpec> = self.events.iter().map(|e| &e.spec).collect();
        let ((), hash_s) = tr.timed("ensemble", "ScenarioSpec::hash[x1000]", |_| {
            for i in 0..1000 {
                std::hint::black_box(specs[i % specs.len()].hash()).ok();
            }
        });
        out.set("ensemble.spec_hash_us", hash_s / 1000.0 * 1e6);

        if let Some(queue) = checks.op("JobQueue::open", JobQueue::open(root.join("queue"))) {
            for spec in &specs {
                let id =
                    tr.span("ensemble", "JobQueue::submit", |_| queue.submit((*spec).clone(), 5));
                checks.op("queue.submit", id);
            }
            for _ in &specs {
                let done = tr.span("ensemble", "JobQueue::claim+complete", |_| {
                    let claim =
                        queue.claim()?.ok_or_else(|| std::io::Error::other("queue empty"))?;
                    queue.complete(claim.job.id, JobOutcome::Done { hash: "replica".into() })
                });
                checks.op("queue.claim+complete", done);
            }
        }
        out.set("ensemble.queue_submit_ms", median(&tr.durations_s("JobQueue::submit")) * 1e3);
        out.set(
            "ensemble.queue_claim_complete_ms",
            median(&tr.durations_s("JobQueue::claim+complete")) * 1e3,
        );

        let Some(engine) =
            checks.op("EnsembleEngine::open", EnsembleEngine::open(&root, [1, 1, 1]))
        else {
            return;
        };
        let spec = specs[0];
        let (mesh, mesh_s) = tr.timed("ensemble", "EnsembleEngine::mesh_for[build]", |_| {
            checks.op("mesh_for", engine.mesh_for(spec))
        });
        let (Some(mesh), Some(hash), Some(scenario)) = (
            mesh,
            checks.op("spec.hash", spec.hash()),
            checks.op("spec.to_scenario", spec.to_scenario()),
        ) else {
            return;
        };
        tr.span("ensemble", "EnsembleEngine::mesh_for[reuse]", |_| {
            checks.op("mesh_for", engine.mesh_for(spec));
        });
        out.set("ensemble.mesh_build_s", mesh_s);
        out.set("cvm.mesh_generate_s", mesh_s);
        out.set("cvm.mesh_generate_mcells_per_s", ratio(mesh.dims.count() as f64 / 1e6, mesh_s));
        let (run, prepare_s) =
            tr.timed("source", "Scenario::prepare_with_mesh", |_| scenario.prepare_with_mesh(mesh));
        out.set("source.prepare_s", prepare_s);
        let (report, execute_s) = tr.timed("core", "WorkflowSession::execute[1,1,1]", |_| {
            checks.op("execute", engine.session.execute(&run, &root.join("work")))
        });
        let Some(report) = report else { return };
        out.set("core.execute_s", execute_s);
        // Published into a store of the replica's own, so that the engine's
        // store still lacks this scenario and `run_spec` below must compute
        // the very same spec.
        let Some(store) =
            checks.op("ResultsStore::open", ResultsStore::open(root.join("replica-store")))
        else {
            return;
        };
        let ((), put_s) = tr.timed("ensemble", "ResultsStore::put", |_| {
            checks.op(
                "store.put",
                store.put(&hash, &spec.family, spec.mw, &report.pgv, &report.seismograms),
            );
        });
        out.set("ensemble.store_put_ms", put_s * 1e3);
        out.set("ensemble.store_bytes_per_result", dir_bytes(&store.root().join(&hash)) as f64);
        let ((), run_spec_s) = tr.timed("ensemble", "EnsembleEngine::run_spec", |_| {
            checks.op("run_spec", engine.run_spec(spec, None));
        });
        out.set("ensemble.overhead_ms_per_scenario", (run_spec_s - execute_s) * 1e3);
        out.set(
            "ensemble.solve_frac",
            ratio(report.stage("awm-solve").map_or(0.0, |s| s.seconds), run_spec_s),
        );
    }
}
