//! Ensemble engine pins: canonical scenario-hash determinism (property
//! tested and golden-pinned), the persistent job queue under concurrency
//! and cancellation, shared-mesh reuse safety, and bit-exactness of
//! engine runs against solo workflow runs — including one composed with
//! the PR 5 schedule fuzzer.

use awp_ensemble::catalog::{generate_catalog, CatalogConfig};
use awp_ensemble::engine::{EnsembleEngine, RunOutcome};
use awp_ensemble::queue::{JobOutcome, JobQueue, JobState};
use awp_ensemble::spec::ScenarioSpec;
use awp_odc::workflow::WorkflowSession;
use awp_vcluster::schedule::SchedulePlan;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("awp-ens-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A random-but-valid spec from primitive draws.
#[allow(clippy::too_many_arguments)]
fn spec_from(
    family_pick: u8,
    mw: f64,
    hypo: f64,
    vr: f64,
    rise: f64,
    seed: u64,
    amp: f64,
    flags: u8,
) -> ScenarioSpec {
    let family = ["shakeout-k", "terashake-k", "w2w"][family_pick as usize % 3];
    let mut s = ScenarioSpec::new(family, 16).unwrap();
    s.duration_s = 20.0;
    s.mw = mw;
    s.hypo_frac = hypo;
    s.vr = vr;
    s.rise_time = rise;
    s.cvm_seed = seed % (1 << 40); // stays JSON-number safe
    s.cvm_amp = amp;
    s.lts = flags & 1 != 0;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same physics → same hash, regardless of construction path: a spec
    /// and its JSON round trip (and a key-shuffled JSON encoding) agree.
    #[test]
    fn hash_is_invariant_to_construction_path(
        family_pick in 0u8..3,
        mw in 6.0f64..8.5,
        hypo in 0.0f64..1.0,
        vr in 2000.0f64..3500.0,
        rise in 0.5f64..4.0,
        seed in 0u64..u64::MAX,
        amp in 0.0f64..0.2,
        flags in 0u8..2,
    ) {
        let spec = spec_from(family_pick, mw, hypo, vr, rise, seed, amp, flags);
        let h = spec.hash().unwrap();
        prop_assert_eq!(&h, &spec.hash().unwrap(), "hashing must be pure");

        // JSON round trip in the emitted field order.
        let back = ScenarioSpec::from_value(
            &serde_json::from_str(&spec.to_json().to_string()).unwrap(),
        )
        .unwrap();
        prop_assert_eq!(&h, &back.hash().unwrap());

        // The same object with keys emitted in a different order.
        let shuffled = format!(
            r#"{{"lts":{},"cvm_amp":{},"cvm_seed":{},"rise_time":{},
                "vr":{},"hypo_frac":{},"mw":{},"duration_s":{},"nx":{},"family":"{}"}}"#,
            spec.lts,
            spec.cvm_amp,
            spec.cvm_seed,
            spec.rise_time,
            spec.vr,
            spec.hypo_frac,
            spec.mw,
            spec.duration_s,
            spec.nx,
            spec.family,
        );
        let back2 =
            ScenarioSpec::from_value(&serde_json::from_str(&shuffled).unwrap()).unwrap();
        prop_assert_eq!(&h, &back2.hash().unwrap(), "field order must not matter");

        // A legacy body still carrying the retired `sched` knob names the
        // same scenario: the key is ignored, not hashed.
        let legacy = shuffled.replacen('{', r#"{"sched":true,"#, 1);
        let back3 = ScenarioSpec::from_value(&serde_json::from_str(&legacy).unwrap()).unwrap();
        prop_assert_eq!(&h, &back3.hash().unwrap(), "legacy sched key must not matter");
    }

    /// Every physical field is load-bearing: perturbing any one of them
    /// produces a different hash (no two distinct scenarios collide into
    /// one cache slot).
    #[test]
    fn every_field_perturbation_changes_hash(
        family_pick in 0u8..3,
        mw in 6.0f64..8.4,
        hypo in 0.01f64..0.99,
        vr in 2000.0f64..3400.0,
        rise in 0.5f64..3.9,
        seed in 0u64..(1u64 << 39),
        amp in 0.001f64..0.19,
        flags in 0u8..2,
    ) {
        let base = spec_from(family_pick, mw, hypo, vr, rise, seed, amp, flags);
        let h0 = base.hash().unwrap();
        let variants: Vec<(&str, ScenarioSpec)> = vec![
            ("family", {
                let mut s = base.clone();
                s.family = if s.family == "w2w" { "shakeout-k".into() } else { "w2w".into() };
                s
            }),
            ("nx", { let mut s = base.clone(); s.nx += 4; s }),
            ("duration_s", { let mut s = base.clone(); s.duration_s += 1.0; s }),
            ("mw", { let mut s = base.clone(); s.mw += 0.01; s }),
            ("hypo_frac", { let mut s = base.clone(); s.hypo_frac += 0.005; s }),
            ("vr", { let mut s = base.clone(); s.vr += 10.0; s }),
            ("rise_time", { let mut s = base.clone(); s.rise_time += 0.05; s }),
            ("cvm_seed", { let mut s = base.clone(); s.cvm_seed += 1; s }),
            ("cvm_amp", { let mut s = base.clone(); s.cvm_amp += 0.001; s }),
            ("lts", { let mut s = base.clone(); s.lts = !s.lts; s }),
        ];
        for (field, v) in variants {
            prop_assert_ne!(
                &h0,
                &v.hash().unwrap(),
                "perturbing {} must change the content address",
                field
            );
        }
    }
}

/// The golden pin: this exact spec hashed to this exact address when the
/// v2 canonicalization was frozen. If this test fails, the canonical form
/// changed and every existing store on disk silently invalidates — bump
/// the magic to `awp-scenario v3` instead of editing the pin.
#[test]
fn golden_hash_is_pinned() {
    let mut spec = ScenarioSpec::new("shakeout-k", 16).unwrap();
    spec.duration_s = 20.0;
    spec.mw = 7.25;
    spec.hypo_frac = 0.5;
    spec.vr = 3000.0;
    spec.rise_time = 2.0;
    spec.cvm_seed = 11;
    spec.cvm_amp = 0.04;
    assert_eq!(
        spec.canonical().unwrap().lines().next().unwrap(),
        "awp-scenario v2"
    );
    assert_eq!(
        spec.hash().unwrap(),
        "f9dfc4935fd20c16db55d1ff1c5f7c68",
        "canonical hash drifted: stored results keyed by v2 addresses \
         would be orphaned"
    );
}

// ---------------------------------------------------------------------------
// Queue concurrency suite.
// ---------------------------------------------------------------------------

fn small_spec(mw_milli: u64) -> ScenarioSpec {
    let mut s = ScenarioSpec::new("shakeout-k", 16).unwrap();
    s.duration_s = 20.0;
    s.mw = 6.5 + mw_milli as f64 / 1000.0;
    s
}

/// Claims observed one at a time (the claim itself serialises on the
/// queue mutex) must come out in strict priority-desc, FIFO-within-
/// priority order even when four threads race for them.
#[test]
fn contended_claims_respect_priority_order() {
    let dir = tmp_dir("contend");
    let q = Arc::new(JobQueue::open(&dir).unwrap());
    let mut expect: Vec<(i32, u64)> = Vec::new();
    for i in 0..24u64 {
        let priority = (i % 5) as i32;
        let id = q.submit(small_spec(i), priority).unwrap();
        expect.push((priority, id));
    }
    // Highest priority first, FIFO (ascending id) within a priority.
    expect.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let q = Arc::clone(&q);
        let order = Arc::clone(&order);
        handles.push(std::thread::spawn(move || loop {
            // Hold the recording lock across the claim so the observed
            // sequence is exactly the claim sequence.
            let mut rec = order.lock().unwrap();
            match q.claim().unwrap() {
                Some(c) => {
                    rec.push(c.job.id);
                    drop(rec);
                    q.complete(c.job.id, JobOutcome::Done { hash: "t".into() }).unwrap();
                }
                None => break,
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let got = order.lock().unwrap().clone();
    let want: Vec<u64> = expect.iter().map(|(_, id)| *id).collect();
    assert_eq!(got, want, "contended claim order must follow priority then FIFO");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Free-for-all drain: no job is lost, none is claimed twice.
#[test]
fn concurrent_drain_loses_and_duplicates_nothing() {
    let dir = tmp_dir("drain-raw");
    let q = Arc::new(JobQueue::open(&dir).unwrap());
    let n = 40u64;
    for i in 0..n {
        q.submit(small_spec(i), (i % 3) as i32).unwrap();
    }
    let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for _ in 0..6 {
        let q = Arc::clone(&q);
        let seen = Arc::clone(&seen);
        handles.push(std::thread::spawn(move || {
            while let Some(c) = q.claim().unwrap() {
                seen.lock().unwrap().push(c.job.id);
                q.complete(c.job.id, JobOutcome::Done { hash: format!("h{}", c.job.id) })
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut got = seen.lock().unwrap().clone();
    got.sort_unstable();
    let dedup_len = { let mut d = got.clone(); d.dedup(); d.len() };
    assert_eq!(got.len() as u64, n, "every job claimed");
    assert_eq!(dedup_len as u64, n, "no job claimed twice");
    for j in q.jobs() {
        assert_eq!(j.state, JobState::Done);
        assert_eq!(j.result_hash.as_deref(), Some(format!("h{}", j.id).as_str()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Queued jobs cancel terminally; in-flight jobs cancel cooperatively via
/// the claim token while workers are actually running.
#[test]
fn cancellation_hits_queued_and_in_flight_jobs() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;
    let dir = tmp_dir("cancel-flight");
    let q = Arc::new(JobQueue::open(&dir).unwrap());
    let a = q.submit(small_spec(1), 5).unwrap(); // will run & be cancelled in flight
    let b = q.submit(small_spec(2), 1).unwrap(); // cancelled while queued
    let c = q.submit(small_spec(3), 1).unwrap(); // runs to completion

    assert!(q.cancel(b).unwrap(), "queued job cancels immediately");

    let running = Arc::new(AtomicU64::new(0));
    let worker = {
        let q = Arc::clone(&q);
        let running = Arc::clone(&running);
        std::thread::spawn(move || {
            while let Some(claim) = q.claim().unwrap() {
                running.store(claim.job.id, Ordering::Release);
                // Simulated solve: poll the token like the engine does.
                let mut polls = 0;
                let outcome = loop {
                    if claim.token.is_cancelled() {
                        break JobOutcome::Cancelled;
                    }
                    polls += 1;
                    if polls > 200 {
                        break JobOutcome::Done { hash: "done".into() };
                    }
                    std::thread::sleep(Duration::from_millis(1));
                };
                q.complete(claim.job.id, outcome).unwrap();
            }
        })
    };
    // Wait until the worker has claimed the high-priority job, then cancel
    // it mid-flight.
    while running.load(std::sync::atomic::Ordering::Acquire) != a {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(q.cancel(a).unwrap(), "running job cancels via its token");
    worker.join().unwrap();

    let by_id = |id: u64| q.jobs().into_iter().find(|j| j.id == id).unwrap();
    assert_eq!(by_id(a).state, JobState::Cancelled, "in-flight cancel observed");
    assert_eq!(by_id(b).state, JobState::Cancelled, "queued cancel is terminal");
    assert_eq!(by_id(c).state, JobState::Done, "untouched job still completes");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Engine: catalog drain, cache behaviour, fuzzer-composed bit-exactness,
// shared-mesh reuse safety.
// ---------------------------------------------------------------------------

/// Four workers drain a seeded catalog: every event lands in the store
/// exactly once, and resubmitting the same catalog is pure cache hits.
#[test]
fn engine_drains_catalog_without_losing_results() {
    use std::sync::atomic::Ordering;
    let root = tmp_dir("engine-drain");
    let engine = EnsembleEngine::open(&root, [2, 1, 1]).unwrap();
    let events = generate_catalog(&CatalogConfig::demo(97, 6, 16, 20.0)).unwrap();
    let ids = engine.submit_catalog(&events).unwrap();
    engine.drain(4).unwrap();

    let jobs = engine.queue.jobs();
    assert_eq!(jobs.len(), 6);
    for id in &ids {
        let j = jobs.iter().find(|j| j.id == *id).unwrap();
        assert_eq!(j.state, JobState::Done, "job {id} must complete");
        let hash = j.result_hash.as_ref().expect("done job carries its hash");
        assert!(engine.store.contains(hash), "result {hash} published");
        engine.store.verify(hash).unwrap();
    }
    let mut unique: Vec<String> =
        jobs.iter().filter_map(|j| j.result_hash.clone()).collect();
    unique.sort();
    unique.dedup();
    assert_eq!(engine.store.list().unwrap().len(), unique.len(), "store == results");
    assert_eq!(engine.stats.jobs_done.load(Ordering::Relaxed), 6);

    // Same catalog again: nothing recomputes.
    let misses_before = engine.stats.cache_misses.load(Ordering::Relaxed);
    engine.submit_catalog(&events).unwrap();
    engine.drain(4).unwrap();
    assert_eq!(
        engine.stats.cache_misses.load(Ordering::Relaxed),
        misses_before,
        "resubmitted catalog must be served from the store"
    );
    assert!(engine.stats.cache_hits.load(Ordering::Relaxed) >= 6);
    let _ = std::fs::remove_dir_all(&root);
}

/// ISSUE satellite: compose an engine run with the PR 5 schedule fuzzer
/// and pin per-scenario outputs bit-exact against a solo (fuzzer-free)
/// run — delayed/reordered messaging must never leak into the physics.
#[test]
fn fuzzer_composed_engine_runs_stay_bit_exact() {
    let spec = small_spec(250);
    let hash = spec.hash().unwrap();

    let root_a = tmp_dir("fuzzed");
    let fuzzed_session =
        WorkflowSession::new([2, 1, 1]).with_schedule(SchedulePlan::new(0xF00D));
    let fuzzed = EnsembleEngine::open_with_session(&root_a, fuzzed_session).unwrap();
    assert!(matches!(fuzzed.run_spec(&spec, None).unwrap(), RunOutcome::Computed(_)));

    let root_b = tmp_dir("solo");
    let solo = EnsembleEngine::open(&root_b, [2, 1, 1]).unwrap();
    assert!(matches!(solo.run_spec(&spec, None).unwrap(), RunOutcome::Computed(_)));

    let fuzzed_manifest = fuzzed.store.manifest(&hash).unwrap();
    let solo_manifest = solo.store.manifest(&hash).unwrap();
    assert_eq!(
        fuzzed_manifest["artifacts"].to_string(),
        solo_manifest["artifacts"].to_string(),
        "schedule fuzzing changed stored bytes for scenario {hash}"
    );
    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}

/// ISSUE satellite: two scenarios sharing one `Arc<Mesh>` must produce
/// outputs bit-exact to building the mesh fresh per scenario — and the
/// shared mesh itself must come back untouched.
#[test]
fn shared_mesh_reuse_is_bit_exact_and_non_mutating() {
    use std::sync::atomic::Ordering;
    let mut spec_a = small_spec(100);
    spec_a.cvm_seed = 11;
    spec_a.cvm_amp = 0.04;
    let mut spec_b = spec_a.clone();
    spec_b.mw = 7.4;
    spec_b.hypo_frac = 0.3;
    assert_eq!(spec_a.mesh_key().unwrap(), spec_b.mesh_key().unwrap());

    // Shared path: one engine, one mesh build amortised over both events.
    let root = tmp_dir("mesh-shared");
    let engine = EnsembleEngine::open(&root, [2, 1, 1]).unwrap();
    let shared_mesh = engine.mesh_for(&spec_a).unwrap();
    let pristine = (
        shared_mesh.vp.clone(),
        shared_mesh.vs.clone(),
        shared_mesh.rho.clone(),
        shared_mesh.qp.clone(),
        shared_mesh.qs.clone(),
    );
    engine.run_spec(&spec_a, None).unwrap();
    engine.run_spec(&spec_b, None).unwrap();
    assert_eq!(engine.stats.mesh_builds.load(Ordering::Relaxed), 1, "one CVM build");
    assert!(engine.stats.mesh_reuses.load(Ordering::Relaxed) >= 2, "mesh reused");
    assert_eq!(shared_mesh.vp, pristine.0, "runs must not mutate the shared mesh");
    assert_eq!(shared_mesh.vs, pristine.1);
    assert_eq!(shared_mesh.rho, pristine.2);
    assert_eq!(shared_mesh.qp, pristine.3);
    assert_eq!(shared_mesh.qs, pristine.4);

    // Fresh path: a new engine per spec, so every spec builds its own mesh.
    for spec in [&spec_a, &spec_b] {
        let fresh_root = tmp_dir(&format!("mesh-fresh-{}", spec.hash().unwrap()));
        let fresh = EnsembleEngine::open(&fresh_root, [2, 1, 1]).unwrap();
        fresh.run_spec(spec, None).unwrap();
        let hash = spec.hash().unwrap();
        assert_eq!(
            engine.store.manifest(&hash).unwrap()["artifacts"].to_string(),
            fresh.store.manifest(&hash).unwrap()["artifacts"].to_string(),
            "shared-mesh output differs from fresh-mesh output for {hash}"
        );
        let _ = std::fs::remove_dir_all(&fresh_root);
    }
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// Site memo: `query_site` / `hazard_at` read a per-result index decoded
// once; answers must be the ones a full decode of the store gives.
// ---------------------------------------------------------------------------

const SITES: [&str; 4] = ["Los Angeles", "San Bernardino", "Ventura", "Palm Springs"];

/// A synthetic result for `spec`: seeded PGV map and traces at a seeded
/// subset of [`SITES`] (so some results miss some sites), published under
/// the spec's hash without a solve.
fn put_synthetic(engine: &EnsembleEngine, spec: &ScenarioSpec, seed: u64) -> String {
    use awp_analysis::pgv::PgvMap;
    use awp_grid::dims::Idx3;
    use awp_solver::stations::{Seismogram, Station};
    let mut state = seed;
    let mut draw = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut pgv = PgvMap::zeros(6, 5, 500.0);
    pgv.data.iter_mut().for_each(|x| *x = draw().abs() * 3.0);
    let mut traces = Vec::new();
    for (i, site) in SITES.iter().enumerate() {
        if draw() < 0.3 {
            traces.push(Seismogram {
                station: Station::new(*site, Idx3::new(i, i, 0)),
                dt: 0.05,
                vx: (0..40).map(|_| draw()).collect(),
                vy: (0..40).map(|_| draw()).collect(),
                vz: (0..40).map(|_| draw()).collect(),
            });
        }
    }
    let hash = spec.hash().unwrap();
    engine.store.put(&hash, &spec.family, spec.mw, &pgv, &traces).unwrap();
    hash
}

/// The pre-memo answer: decode every stored result.
fn decoded_hazard(engine: &EnsembleEngine, site: &str) -> Vec<(String, f64, f64)> {
    let mut curve = Vec::new();
    for hash in engine.store.list().unwrap() {
        let r = engine.store.load(&hash).unwrap();
        if let Some(t) = r.traces.iter().find(|t| t.station == site) {
            curve.push((hash, r.mw, t.pgvh()));
        }
    }
    curve.sort_by(|a, b| b.2.total_cmp(&a.2));
    curve
}

fn bits(curve: &[(String, f64, f64)]) -> Vec<(String, u64, u64)> {
    curve.iter().map(|(h, mw, v)| (h.clone(), mw.to_bits(), v.to_bits())).collect()
}

/// Every `(pgvh, pgv_max)` answer of `query_site`, as bits; `None` where
/// the result has no such station.
fn site_answers(engine: &EnsembleEngine, specs: &[ScenarioSpec]) -> Vec<Option<(u64, u64)>> {
    let mut out = Vec::new();
    for spec in specs {
        for site in SITES {
            out.push(match engine.query_site(spec, site) {
                Ok((outcome, pgvh, pgv_max)) => {
                    assert!(matches!(outcome, RunOutcome::Cached(_)), "seeded result is a hit");
                    Some((pgvh.to_bits(), pgv_max.to_bits()))
                }
                Err(e) => {
                    assert!(e.to_string().contains("no station"), "{e}");
                    None
                }
            });
        }
    }
    out
}

#[test]
fn memoized_site_answers_equal_a_full_decode() {
    let root = tmp_dir("memo-equal");
    let engine = EnsembleEngine::open(&root, [1, 1, 1]).unwrap();
    let specs: Vec<ScenarioSpec> = (0..24).map(small_spec).collect();
    for (i, spec) in specs.iter().enumerate() {
        put_synthetic(&engine, spec, 1000 + i as u64);
    }
    let reference: Vec<Option<(u64, u64)>> = specs
        .iter()
        .flat_map(|spec| {
            let r = engine.store.load(&spec.hash().unwrap()).unwrap();
            SITES.map(|site| {
                let t = r.traces.iter().find(|t| t.station == site)?;
                Some((t.pgvh().to_bits(), r.pgv.max().to_bits()))
            })
        })
        .collect();
    assert!(reference.iter().any(Option::is_none) && reference.iter().any(Option::is_some));
    // First pass decodes into the memo, the second reads it.
    for _ in 0..2 {
        for site in SITES {
            assert_eq!(
                bits(&engine.hazard_at(site).unwrap()),
                bits(&decoded_hazard(&engine, site))
            );
        }
        assert_eq!(site_answers(&engine, &specs), reference);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn removed_results_leave_the_sweep_and_the_memo() {
    let root = tmp_dir("memo-prune");
    let engine = EnsembleEngine::open(&root, [1, 1, 1]).unwrap();
    let specs: Vec<ScenarioSpec> = (0..8).map(small_spec).collect();
    let hashes: Vec<String> =
        specs.iter().enumerate().map(|(i, s)| put_synthetic(&engine, s, 7 * i as u64)).collect();
    let site = SITES[0];
    let before = bits(&engine.hazard_at(site).unwrap());
    let answers = site_answers(&engine, &specs);

    // Unpublish behind the engine's back: the next sweep no longer lists it.
    let victim = (0..specs.len())
        .find(|&i| before.iter().any(|(h, _, _)| *h == hashes[i]))
        .expect("some result has the site");
    std::fs::remove_dir_all(engine.store.root().join(&hashes[victim])).unwrap();
    let after = bits(&engine.hazard_at(site).unwrap());
    assert_eq!(after.len() + 1, before.len());
    assert!(after.iter().all(|(h, _, _)| *h != hashes[victim]));
    assert_eq!(after, bits(&decoded_hazard(&engine, site)));

    // The sweep also pruned the memo: bytes put back under that hash are
    // decoded afresh. Different bytes (which content addressing never
    // produces) show it is the disk, not a stale entry, that answers.
    put_synthetic(&engine, &specs[victim], 0xD1FF);
    assert_eq!(bits(&engine.hazard_at(site).unwrap()), bits(&decoded_hazard(&engine, site)));

    // Re-publishing the original bytes restores every original answer.
    std::fs::remove_dir_all(engine.store.root().join(&hashes[victim])).unwrap();
    engine.hazard_at(site).unwrap();
    put_synthetic(&engine, &specs[victim], 7 * victim as u64);
    assert_eq!(bits(&engine.hazard_at(site).unwrap()), before);
    assert_eq!(site_answers(&engine, &specs), answers);
    let _ = std::fs::remove_dir_all(&root);
}

/// The sweep reads the store directory once and decodes only what it has
/// not memoized: a hash-named directory without a manifest (never
/// published, so never memoized) stays out of the curve without failing
/// the sweep, and a result published after the memo was filled is in the
/// next sweep.
#[test]
fn sweeps_skip_unpublished_directories_and_see_new_results() {
    let root = tmp_dir("memo-listing");
    let engine = EnsembleEngine::open(&root, [1, 1, 1]).unwrap();
    let specs: Vec<ScenarioSpec> = (0..6).map(small_spec).collect();
    for (i, spec) in specs[..5].iter().enumerate() {
        put_synthetic(&engine, spec, 31 * i as u64);
    }
    let sweep = |engine: &EnsembleEngine| -> Vec<Vec<(String, u64, u64)>> {
        SITES.iter().map(|site| bits(&engine.hazard_at(site).unwrap())).collect()
    };
    let decoded = |engine: &EnsembleEngine| -> Vec<Vec<(String, u64, u64)>> {
        SITES.iter().map(|site| bits(&decoded_hazard(engine, site))).collect()
    };
    let before = sweep(&engine); // fills the memo
    assert_eq!(before, decoded(&engine));

    // A directory named like a result but holding no manifest: decoding
    // it would fail, so the sweep must not try.
    let unpublished = "0123456789abcdef0123456789abcdef";
    std::fs::create_dir_all(engine.store.root().join(unpublished)).unwrap();
    std::fs::write(engine.store.root().join(unpublished).join("pgv.bin"), b"partial").unwrap();
    assert_eq!(sweep(&engine), before);

    // Published after the memo was filled: the next sweep has it.
    let late = put_synthetic(&engine, &specs[5], 0x1A7E);
    let after = sweep(&engine);
    assert_eq!(after, decoded(&engine));
    assert!(after.iter().flatten().any(|(h, _, _)| *h == late), "the late result is swept");
    assert!(after.iter().flatten().all(|(h, _, _)| h != unpublished));
    assert_eq!(engine.store.list().unwrap().len(), 6);
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// In-memory solve: the engine publishes what the file workflow publishes,
// fails a job (not its worker) on a bad solve, honours the session settings
// it can and refuses the ones it cannot, and builds each mesh once.
// ---------------------------------------------------------------------------

/// For each decomposition, and with LTS armed, `run_spec`'s stored
/// artifacts equal those `store.put` publishes from
/// `WorkflowSession::execute`'s report of the same spec, on a mesh built
/// apart from the engine's.
#[test]
fn in_memory_solves_store_the_bytes_the_file_workflow_publishes() {
    use awp_ensemble::store::ResultsStore;
    let mut lts = small_spec(300);
    lts.lts = true;
    let cases = [([1, 1, 1], small_spec(200)), ([2, 1, 1], small_spec(200)), ([2, 1, 1], lts)];
    for (i, (parts, spec)) in cases.into_iter().enumerate() {
        let hash = spec.hash().unwrap();
        let root = tmp_dir(&format!("equiv-{i}"));
        let engine = EnsembleEngine::open(&root, parts).unwrap();
        assert!(matches!(engine.run_spec(&spec, None).unwrap(), RunOutcome::Computed(_)));

        let sc = spec.to_scenario().unwrap();
        let mut mesh = sc.build_mesh();
        if spec.cvm_amp > 0.0 {
            mesh.perturb(spec.cvm_seed, spec.cvm_amp);
        }
        let mut run = sc.prepare_with_mesh(Arc::new(mesh));
        if spec.lts {
            run.cfg.opts.lts = Some(awp_solver::LtsOpts::new());
        }
        let report = WorkflowSession::new(parts).execute(&run, &root.join("work")).unwrap();
        assert!(report.pgv.max() > 0.0 && !report.seismograms.is_empty(), "a non-trivial run");
        let files = ResultsStore::open(root.join("file-store")).unwrap();
        files.put(&hash, &spec.family, spec.mw, &report.pgv, &report.seismograms).unwrap();
        assert_eq!(
            engine.store.manifest(&hash).unwrap()["artifacts"].to_string(),
            files.manifest(&hash).unwrap()["artifacts"].to_string(),
            "parts {parts:?}, lts {}: the in-memory solve stored other bytes",
            spec.lts
        );
        assert!(!root.join("scratch").exists(), "the engine keeps no work directory");
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A solve that cannot run — LTS on a decomposition that splits depth is
/// a solver `ConfigError` — fails its job and counts in `jobs_failed`;
/// the same worker goes on to its next claim and completes it.
#[test]
fn a_failed_solve_fails_its_job_and_the_worker_goes_on() {
    use std::sync::atomic::Ordering;
    let root = tmp_dir("failed-job");
    let engine = EnsembleEngine::open(&root, [1, 1, 2]).unwrap();
    let mut bad = small_spec(400);
    bad.lts = true;
    let bad_id = engine.queue.submit(bad, 10).unwrap();
    let good_id = engine.queue.submit(small_spec(401), 5).unwrap();
    engine.drain(1).unwrap();

    let by_id = |id: u64| engine.queue.jobs().into_iter().find(|j| j.id == id).unwrap();
    let failed = by_id(bad_id);
    assert_eq!(failed.state, JobState::Failed);
    let error = failed.error.expect("a failed job carries its error");
    assert!(error.contains("parts[2] == 1"), "the error names the cause: {error}");
    assert_eq!(by_id(good_id).state, JobState::Done, "the worker went on to its next claim");
    assert_eq!(engine.stats.jobs_failed.load(Ordering::Relaxed), 1);
    assert_eq!(engine.stats.jobs_done.load(Ordering::Relaxed), 1);
    assert_eq!(engine.store.list().unwrap().len(), 1, "nothing stored for the failed job");
    let _ = std::fs::remove_dir_all(&root);
}

/// `open_with_session` refuses, naming it, each setting an in-memory solve
/// would drop, and applies `parts` and `telemetry` to every job.
#[test]
fn open_with_session_refuses_settings_it_would_drop_and_applies_the_rest() {
    use awp_vcluster::{FaultPlan, WatchdogConfig};
    let root = tmp_dir("session-settings");
    let base = || WorkflowSession::new([1, 1, 1]);
    let refused: [(&str, WorkflowSession); 6] = [
        ("checkpoint_every", WorkflowSession { checkpoint_every: Some(5), ..base() }),
        ("fault_plan", WorkflowSession { fault_plan: Some(Arc::new(FaultPlan::new(1))), ..base() }),
        ("resume", WorkflowSession { resume: true, ..base() }),
        ("watchdog", WorkflowSession { watchdog: Some(WatchdogConfig::default()), ..base() }),
        ("live", base().with_live_stats(awp_telemetry::LiveStats::new(1))),
        ("flight_dir", base().with_flight_recorder(root.join("flight"))),
    ];
    for (name, session) in refused {
        let err = EnsembleEngine::open_with_session(&root, session)
            .err()
            .unwrap_or_else(|| panic!("a session setting {name} must be refused"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{name}: {err}");
        assert!(err.to_string().contains(name), "the error names {name}: {err}");
    }

    let registry = awp_telemetry::Registry::new(2);
    let session = WorkflowSession::new([2, 1, 1])
        .with_schedule(SchedulePlan::new(7))
        .with_telemetry(Arc::clone(&registry));
    let engine = EnsembleEngine::open_with_session(&root, session).unwrap();
    engine.run_spec(&small_spec(500), None).unwrap();
    let snapshots = registry.snapshots();
    assert_eq!(snapshots.len(), 2, "the solve ran on the session's two ranks");
    assert!(
        registry.report().counters[awp_telemetry::Counter::MsgsSent.index()] > 0,
        "the ranks recorded their halo traffic into the session's registry"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Workers racing for one mesh build it once and share it; workers wanting
/// two different meshes each get their own, one build per key.
#[test]
fn racing_workers_build_each_mesh_once() {
    use std::sync::atomic::Ordering;
    let root = tmp_dir("mesh-race");
    let engine = EnsembleEngine::open(&root, [1, 1, 1]).unwrap();
    let a = small_spec(600);
    let mut b = small_spec(601);
    b.cvm_seed = 5;
    b.cvm_amp = 0.03;
    assert_ne!(a.mesh_key().unwrap(), b.mesh_key().unwrap());
    let start = std::sync::Barrier::new(8);
    let meshes: Vec<(usize, Arc<awp_cvm::mesh::Mesh>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let (engine, start, spec) = (&engine, &start, if t % 2 == 0 { &a } else { &b });
                s.spawn(move || {
                    start.wait();
                    (t % 2, engine.mesh_for(spec).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(engine.stats.mesh_builds.load(Ordering::Relaxed), 2, "one build per key");
    assert_eq!(engine.stats.mesh_reuses.load(Ordering::Relaxed), 6);
    for key in 0..2 {
        let same: Vec<_> = meshes.iter().filter(|(k, _)| *k == key).map(|(_, m)| m).collect();
        assert!(same.iter().all(|m| Arc::ptr_eq(m, same[0])), "key {key} shares one mesh");
    }
    let (first_a, first_b) = (&meshes[0].1, &meshes[1].1);
    assert!(!Arc::ptr_eq(first_a, first_b) && first_a.vp != first_b.vp, "keys get their own mesh");
    let _ = std::fs::remove_dir_all(&root);
}
