//! `serve-mix`: ensemble *reads* beside the writes. Set-up drains a seeded
//! catalog into a store and starts `ServeServer` on a socket; the timed
//! part is a **closed loop with one client** — each request is sent when
//! the previous reply has arrived, because each caller of a hazard service
//! waits for its answer — over a seeded mix of cache-hit site queries,
//! hazard sweeps and misses that solve and publish.

use super::ensemble::seeded_catalog;
use crate::host;
use crate::metrics::Ledger;
use crate::run::{Checks, Rng, RunArgs, Scratch, Workload};
use crate::stats::{median, percentile, ratio, tail_quantile};
use crate::trace::Tracer;
use awp_ensemble::{EnsembleEngine, ScenarioSpec, ServeClient, ServeServer};
use awp_odc::stats::StatsAddr;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One batch (one rep), in seeded order. The composition is fixed so batch
/// walls compare, and weighted so that reads carry most of the time: on
/// the reference host a hit costs ~0.06 ms, a sweep over 32 scenarios
/// ~1 ms and a miss ~32 ms, so 400 : 100 : 1 spends roughly a seventh of
/// the batch in hits, three fifths in sweeps and a fifth in the solve.
/// More hits would make the batch a thread hand-off benchmark: half of
/// each round trip is the wake-up of the other thread. (Over TCP, where the
/// issue sized a 90 : 8 : 2 mix, a hit cost 44 ms of Nagle stall; see
/// `setup` for why TCP is not used.)
const BATCH: [(Kind, usize); 3] = [(Kind::Hit, 400), (Kind::Hazard, 100), (Kind::Miss, 1)];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Hit,
    Hazard,
    Miss,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Hit => "ServeClient::request[hit]",
            Kind::Hazard => "ServeClient::request[hazard]",
            Kind::Miss => "ServeClient::request[miss]",
        }
    }
}

/// A stored scenario and what the engine answers for it in-process.
struct Stored {
    spec: ScenarioSpec,
    /// `pgvh` per site, read straight from the store.
    pgvh: BTreeMap<String, f64>,
}

pub struct ServeWorkload {
    engine: Arc<EnsembleEngine>,
    server: Option<ServeServer>,
    client: ServeClient,
    connect_ms: f64,
    stored: Vec<Stored>,
    sites: Vec<String>,
    rng: Rng,
    misses_sent: u64,
    /// Hashes the current batch's misses published.
    published: Vec<String>,
    latency_ms: BTreeMap<Kind, Vec<f64>>,
    bytes: BTreeMap<&'static str, Vec<f64>>,
    errors: u64,
    batch_s: Vec<f64>,
    _pin: Option<host::Pin>,
    _scratch: Scratch,
}

impl ServeWorkload {
    fn request(&mut self, kind: Kind, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        let pick = self.rng.below(self.stored.len());
        let site = self.sites[self.rng.below(self.sites.len())].clone();
        let req = match kind {
            Kind::Hit => {
                json!({"kind": "query", "spec": self.stored[pick].spec.to_json(), "site": site.as_str()})
            }
            Kind::Hazard => json!({"kind": "hazard", "site": site.as_str()}),
            Kind::Miss => {
                // A stored spec nudged by a unique seeded magnitude offset:
                // a new identity, so the server must solve and publish.
                self.misses_sent += 1;
                let mut spec = self.stored[pick].spec.clone();
                spec.mw += self.rng.uniform(1e-4, 1e-3) + self.misses_sent as f64 * 1e-7;
                json!({"kind": "query", "spec": spec.to_json(), "site": site.as_str()})
            }
        };
        let (reply, seconds) = tr.timed("serve", kind.span(), |_| self.client.request(&req));
        let Some(reply) = checks.op("ServeClient::request", reply) else {
            self.errors += 1;
            return seconds;
        };
        self.latency_ms.entry(kind).or_default().push(seconds * 1e3);
        self.check_reply(kind, &reply, &self.stored[pick], &site, checks);
        if let (Kind::Miss, Some(hash)) = (kind, reply["hash"].as_str()) {
            self.published.push(hash.to_string());
        }
        let (req_len, resp_len) =
            ((req.compact().len() + 1) as f64, (reply.compact().len() + 1) as f64);
        match kind {
            Kind::Hit => {
                self.bytes.entry("req_hit").or_default().push(req_len);
                self.bytes.entry("resp_hit").or_default().push(resp_len);
            }
            Kind::Hazard => self.bytes.entry("resp_hazard").or_default().push(resp_len),
            Kind::Miss => {}
        }
        seconds
    }

    /// Every reply is schema-valid; a hit equals the in-process answer; a
    /// miss was not served from the cache.
    fn check_reply(
        &self,
        kind: Kind,
        reply: &Value,
        stored: &Stored,
        site: &str,
        checks: &mut Checks,
    ) {
        let ok = match kind {
            Kind::Hit | Kind::Miss => {
                reply["kind"].as_str() == Some("result")
                    && reply["site"].as_str() == Some(site)
                    && reply["hash"].as_str().is_some_and(|h| h.len() == 32)
                    && reply["pgvh"].as_f64().is_some_and(|v| v.is_finite() && v >= 0.0)
                    && reply["pgv_max"].as_f64().is_some_and(|v| v.is_finite() && v > 0.0)
                    && reply["cached"].as_bool() == Some(kind == Kind::Hit)
                    && (kind == Kind::Miss
                        || reply["pgvh"].as_f64() == stored.pgvh.get(site).copied())
            }
            Kind::Hazard => {
                let curve = reply["curve"].as_array();
                reply["kind"].as_str() == Some("hazard")
                    && reply["site"].as_str() == Some(site)
                    && curve.is_some_and(|c| {
                        c.len() >= self.stored.len()
                            && c.windows(2).all(|w| w[0]["pgvh"].as_f64() >= w[1]["pgvh"].as_f64())
                            && c.iter()
                                .all(|e| e["hash"].as_str().is_some() && e["mw"].as_f64().is_some())
                    })
            }
        };
        checks.check(ok, || format!("{kind:?} reply failed its checks: {}", reply.compact()));
    }

    fn batch(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        let mut order: Vec<Kind> =
            BATCH.iter().flat_map(|&(k, n)| std::iter::repeat_n(k, n)).collect();
        self.rng.shuffle(&mut order);
        // The harness's own share of a request (building it, checking the
        // reply) is a span too, so it is accounted as harness time.
        let wall = order
            .into_iter()
            .map(|kind| tr.span("harness", "build+check", |tr| self.request(kind, tr, checks)))
            .sum();
        // Untimed: unpublish what the misses published, so every batch
        // sweeps a store of the size set-up left.
        for hash in self.published.drain(..) {
            let _ = std::fs::remove_dir_all(self.engine.store.root().join(hash));
        }
        wall
    }
}

impl Workload for ServeWorkload {
    fn setup(args: &RunArgs, tr: &mut Tracer, checks: &mut Checks) -> Self {
        let mut rng = Rng::new(args.seed);
        let (events, nx, duration) = if args.smoke { (6, 16, 10.0) } else { (32, 64, 30.0) };
        let scratch = Scratch::new("serve").expect("scratch directory under the target dir");
        let catalog = tr.span("ensemble", "generate_catalog", |_| {
            seeded_catalog(&mut rng, events, nx, duration)
        });
        let engine = EnsembleEngine::open(scratch.path().join("root"), [1, 1, 1])
            .expect("engine root under the scratch directory");
        tr.span("ensemble", "EnsembleEngine::submit_catalog", |_| {
            checks.op("submit_catalog", engine.submit_catalog(&catalog))
        });
        tr.span("ensemble", "EnsembleEngine::drain", |_| checks.op("drain", engine.drain(2)));

        // What the store holds, read in-process: the reference for hits.
        let mut stored: Vec<Stored> = Vec::new();
        let mut sites: Vec<String> = Vec::new();
        for event in &catalog {
            let Some(hash) = checks.op("spec.hash", event.spec.hash()) else { continue };
            if stored.iter().any(|s| s.spec == event.spec) {
                continue;
            }
            let Some(result) = checks.op("store.load", engine.store.load(&hash)) else { continue };
            if sites.is_empty() {
                sites = result.traces.iter().map(|t| t.station.clone()).collect();
            }
            let pgvh = result.traces.iter().map(|t| (t.station.clone(), t.pgvh())).collect();
            stored.push(Stored { spec: event.spec.clone(), pgvh });
        }
        assert!(!stored.is_empty() && !sites.is_empty(), "serve-mix needs a populated store");

        // A Unix-domain socket in the scratch directory, not TCP loopback:
        // `ServeClient` sends a request as two writes, Nagle holds the
        // second until the server's delayed ACK, and when that ACK takes
        // longer than the server's 100 ms read timeout the server drops
        // the half-read line and never answers. A benchmark must not hang,
        // and must write only inside its checkout. The path is taken
        // relative to the working directory to stay under `sun_path`'s 108
        // bytes in a deep checkout.
        let sock = scratch.path().join("serve.sock");
        let sock = std::env::current_dir()
            .ok()
            .and_then(|cwd| sock.strip_prefix(cwd).ok().map(|p| p.to_path_buf()))
            .unwrap_or(sock);
        // One client in a closed loop: client and server never work at the
        // same time, so they share one CPU from here on (the server's
        // threads inherit the pin). Left to the kernel, the two threads sit
        // on one core or on two from one minute to the next, the wake-up
        // across cores doubles the hand-off, and the batch wall moved
        // between 0.18 and 0.23 s with it (quartile spread 20% over ten
        // runs, 5% pinned). The catalog drain above used both cores.
        let pin = host::Pin::to_current_cpu();
        let server = tr.span("serve", "ServeServer::serve", |_| {
            ServeServer::serve(&StatsAddr::Unix(sock), Arc::clone(&engine))
        });
        let server = server.expect("bind a socket in the scratch directory");
        let (client, connect_s) = tr
            .timed("serve", "ServeClient::connect", |_| ServeClient::connect(server.local_addr()));
        let connect_ms = connect_s * 1e3;
        let mut w = ServeWorkload {
            engine,
            server: Some(server),
            client: client.expect("connect to the server just started"),
            connect_ms,
            stored,
            sites,
            rng,
            misses_sent: 0,
            published: Vec::new(),
            latency_ms: BTreeMap::new(),
            bytes: BTreeMap::new(),
            errors: 0,
            batch_s: Vec::new(),
            _pin: pin,
            _scratch: scratch,
        };
        w.batch(tr, checks); // warm-up
        w.latency_ms.clear();
        w
    }

    fn rep(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        let wall = self.batch(tr, checks);
        self.batch_s.push(wall);
        wall
    }

    fn layers(&mut self, tr: &mut Tracer, checks: &mut Checks, out: &mut Ledger) {
        let lat = |k: Kind| self.latency_ms.get(&k).cloned().unwrap_or_default();
        let (hit, hazard, miss) = (lat(Kind::Hit), lat(Kind::Hazard), lat(Kind::Miss));
        let requests = (hit.len() + hazard.len() + miss.len()) as f64;
        out.set("serve.requests", requests);
        out.set("serve.errors", self.errors as f64);
        out.set("serve.requests_per_s", ratio(requests, self.batch_s.iter().sum()));
        out.set("serve.hit_p50_ms", median(&hit));
        out.set("serve.hazard_p50_ms", median(&hazard));
        out.set("serve.miss_p50_ms", median(&miss));
        // Tail: the highest percentile with ten samples beyond it.
        let q = tail_quantile(hit.len());
        out.set("serve.hit_tail_ms", percentile(&hit, q));
        out.set("serve.hit_tail_pct", q * 100.0);
        out.set("serve.hazard_tail_ms", percentile(&hazard, tail_quantile(hazard.len())));
        out.set("serve.connect_ms", self.connect_ms);
        let mean = |key: &str| {
            let v = self.bytes.get(key).cloned().unwrap_or_default();
            ratio(v.iter().sum(), v.len() as f64)
        };
        out.set("serve.req_bytes_hit", mean("req_hit"));
        out.set("serve.resp_bytes_hit", mean("resp_hit"));
        out.set("serve.resp_bytes_hazard", mean("resp_hazard"));
        out.set(
            "serve.store_scenarios",
            checks.op("store.list", self.engine.store.list()).map_or(0.0, |l| l.len() as f64),
        );

        // The same answers without the wire.
        for i in 0..40 {
            let stored = &self.stored[i % self.stored.len()];
            let site = &self.sites[i % self.sites.len()];
            let r = tr.span("ensemble", "EnsembleEngine::query_site", |_| {
                self.engine.query_site(&stored.spec, site)
            });
            if let Some((_, pgvh, _)) = checks.op("query_site", r) {
                checks.check(Some(&pgvh) == stored.pgvh.get(site), || {
                    format!("in-process pgvh at {site} changed")
                });
            }
        }
        for i in 0..6 {
            let site = &self.sites[i % self.sites.len()];
            let r =
                tr.span("ensemble", "EnsembleEngine::hazard_at", |_| self.engine.hazard_at(site));
            checks.op("hazard_at", r);
        }
        let inproc_hit_ms = median(&tr.durations_s("EnsembleEngine::query_site")) * 1e3;
        out.set("serve.hit_inproc_ms", inproc_hit_ms);
        out.set(
            "serve.hazard_inproc_ms",
            median(&tr.durations_s("EnsembleEngine::hazard_at")) * 1e3,
        );
        out.set("serve.wire_overhead_ms", median(&hit) - inproc_hit_ms);
    }

    fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}
