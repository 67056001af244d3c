//! The hazard-query server — `awp serve`.
//!
//! Same wire layer as the `awp-stats` endpoint (`awp_odc::wire`):
//! newline-delimited versioned JSON over TCP or a Unix-domain socket,
//! hello-first. The server writes one self-describing hello line the
//! moment a client connects; the client must reject a stream whose
//! `proto`/`v` it does not recognise ([`validate_hello`]) — that is the
//! entire negotiation. After the hello the connection is request/response:
//! the client writes one JSON object per line, the server answers each
//! with exactly one JSON line.
//!
//! Request kinds (v1):
//!
//! | kind      | body                              | response kind |
//! |-----------|-----------------------------------|---------------|
//! | `query`   | `spec` object, optional `site`    | `result`      |
//! | `hazard`  | `site`                            | `hazard`      |
//! | `catalog` | `config` object, opt. `workers`   | `catalog`     |
//! | `stats`   | —                                 | `stats`       |
//! | `cancel`  | `id`                              | `cancelled`   |
//!
//! Anything malformed gets `{"v":1,"kind":"error","message":…}` and the
//! connection stays up — a bad request must not kill a shared server. The
//! one exception is a line longer than [`MAX_REQUEST_LINE`]: it gets the
//! error reply and the connection is closed, because its framing is lost.

use crate::catalog::{generate_catalog, CatalogConfig};
use crate::engine::{EnsembleEngine, RunOutcome};
use crate::queue::JobState;
use crate::spec::ScenarioSpec;
use awp_odc::wire::{
    self, check_hello, is_timeout, send_line, Addr, Conn, Server, MAX_REQUEST_LINE,
};
use serde_json::Value;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub const SERVE_PROTO_NAME: &str = "awp-serve";
pub const SERVE_PROTO_VERSION: u32 = 1;

/// The long-running query server. Dropping (or [`stop`](Self::stop))
/// shuts the listener down and joins every per-client thread.
pub struct ServeServer(Server);

impl ServeServer {
    /// Bind `addr` and answer queries against `engine` until stopped.
    pub fn serve(addr: &Addr, engine: Arc<EnsembleEngine>) -> io::Result<ServeServer> {
        Server::serve(addr, move |conn, stop| serve_client(conn, &engine, stop)).map(ServeServer)
    }

    /// The address the listener actually bound (port 0 resolved).
    pub fn local_addr(&self) -> &Addr {
        self.0.local_addr()
    }

    pub fn stop(self) {
        self.0.stop();
    }
}

/// The self-describing first line every client receives.
pub fn hello_json() -> String {
    serde_json::json!({
        "v": SERVE_PROTO_VERSION,
        "kind": "hello",
        "proto": SERVE_PROTO_NAME
    })
    .compact()
}

/// Reject streams from foreign or future servers — the whole negotiation.
pub fn validate_hello(line: &str) -> Result<(), String> {
    check_hello(line, SERVE_PROTO_NAME, SERVE_PROTO_VERSION.into()).map(drop)
}

fn error_json(message: String) -> Value {
    serde_json::json!({
        "v": SERVE_PROTO_VERSION,
        "kind": "error",
        "message": message
    })
}

fn serve_client(mut conn: Conn, engine: &Arc<EnsembleEngine>, stop: &AtomicBool) {
    if send_line(&mut conn.writer, hello_json()).is_err() {
        return;
    }
    let mut line = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match wire::read_line(&mut conn.reader, &mut line, MAX_REQUEST_LINE) {
            Ok(true) => {}
            Ok(false) => return, // client hung up
            // The read timeout lets the stop flag be observed; a request
            // read in part stays in `line` until its newline.
            Err(e) if is_timeout(&e) => continue,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Over-long: one error reply, then close — there is no
                // telling where the next request starts.
                let _ = send_line(&mut conn.writer, error_json(format!("request {e}")).compact());
                return;
            }
            Err(_) => return,
        }
        let response = match std::str::from_utf8(&line).map(str::trim) {
            Ok("") => None,
            Ok(text) => Some(handle_request(engine, text)),
            Err(e) => Some(Err(format!("request is not UTF-8: {e}"))),
        };
        line.clear();
        let Some(response) = response else { continue };
        if send_line(&mut conn.writer, response.unwrap_or_else(error_json).compact()).is_err() {
            return;
        }
    }
}

/// Dispatch one request line. `Err` becomes an `error` response; the
/// connection survives either way.
fn handle_request(engine: &Arc<EnsembleEngine>, line: &str) -> Result<Value, String> {
    let req: Value = serde_json::from_str(line).map_err(|e| format!("bad request JSON: {e}"))?;
    match req["kind"].as_str() {
        Some("query") => {
            let spec = ScenarioSpec::from_value(&req["spec"])?;
            match req["site"].as_str() {
                Some(site) => {
                    let (outcome, pgvh, pgv_max) =
                        engine.query_site(&spec, site).map_err(|e| e.to_string())?;
                    Ok(serde_json::json!({
                        "v": SERVE_PROTO_VERSION,
                        "kind": "result",
                        "hash": outcome.hash().unwrap_or(""),
                        "cached": matches!(outcome, RunOutcome::Cached(_)),
                        "site": site,
                        "pgvh": pgvh,
                        "pgv_max": pgv_max
                    }))
                }
                None => {
                    let outcome = engine.run_spec(&spec, None).map_err(|e| e.to_string())?;
                    let hash = outcome.hash().ok_or("query cancelled")?;
                    let index = engine.site_index(hash).map_err(|e| e.to_string())?;
                    Ok(serde_json::json!({
                        "v": SERVE_PROTO_VERSION,
                        "kind": "result",
                        "hash": hash,
                        "cached": matches!(outcome, RunOutcome::Cached(_)),
                        "pgv_max": index.pgv_max
                    }))
                }
            }
        }
        Some("hazard") => {
            let site = req["site"].as_str().ok_or("hazard: missing site")?;
            let curve = engine.hazard_at(site).map_err(|e| e.to_string())?;
            let entries: Vec<Value> = curve
                .iter()
                .map(|(hash, mw, pgvh)| {
                    serde_json::json!({
                        "hash": hash.as_str(),
                        "mw": *mw,
                        "pgvh": *pgvh
                    })
                })
                .collect();
            Ok(serde_json::json!({
                "v": SERVE_PROTO_VERSION,
                "kind": "hazard",
                "site": site,
                "curve": Value::Array(entries)
            }))
        }
        Some("catalog") => {
            let cfg = CatalogConfig::from_value(&req["config"])?;
            let workers = req["workers"].as_f64().unwrap_or(2.0) as usize;
            let events = generate_catalog(&cfg)?;
            let ids = engine.submit_catalog(&events).map_err(|e| e.to_string())?;
            engine.drain(workers).map_err(|e| e.to_string())?;
            let jobs = engine.queue.jobs();
            let hashes: Vec<Value> = ids
                .iter()
                .map(|id| {
                    jobs.iter()
                        .find(|j| j.id == *id)
                        .and_then(|j| j.result_hash.clone())
                        .map(Value::from)
                        .unwrap_or(Value::Null)
                })
                .collect();
            let done = jobs
                .iter()
                .filter(|j| ids.contains(&j.id) && j.state == JobState::Done)
                .count();
            Ok(serde_json::json!({
                "v": SERVE_PROTO_VERSION,
                "kind": "catalog",
                "events": events.len(),
                "done": done,
                "hashes": Value::Array(hashes),
                "stats": engine.stats.snapshot_json()
            }))
        }
        Some("stats") => Ok(serde_json::json!({
            "v": SERVE_PROTO_VERSION,
            "kind": "stats",
            "stats": engine.stats.snapshot_json()
        })),
        Some("cancel") => {
            let id = req["id"].as_f64().ok_or("cancel: missing id")? as u64;
            let ok = engine.queue.cancel(id).map_err(|e| e.to_string())?;
            Ok(serde_json::json!({
                "v": SERVE_PROTO_VERSION,
                "kind": "cancelled",
                "id": id,
                "ok": ok
            }))
        }
        other => Err(format!("unknown request kind {other:?}")),
    }
}

/// A connected client: hello already validated, ready for requests.
pub struct ServeClient {
    conn: Conn,
}

impl ServeClient {
    /// Connect and perform the hello check. A foreign or future server is
    /// an error here, never a half-working session.
    pub fn connect(addr: &Addr) -> io::Result<ServeClient> {
        let mut client = ServeClient { conn: wire::connect(addr, wire::CLIENT_READ_TIMEOUT)? };
        let hello = client.read_line()?;
        validate_hello(&hello).map_err(io::Error::other)?;
        Ok(client)
    }

    /// The next whole line; a reply (a hazard curve over a large store)
    /// is not capped like a request.
    fn read_line(&mut self) -> io::Result<String> {
        let mut line = Vec::new();
        loop {
            match wire::read_line(&mut self.conn.reader, &mut line, usize::MAX) {
                Ok(true) => break,
                Ok(false) => return Err(io::Error::other("server closed the connection")),
                Err(e) if is_timeout(&e) => continue,
                Err(e) => return Err(e),
            }
        }
        String::from_utf8(line)
            .map(|text| text.trim().to_string())
            .map_err(|e| io::Error::other(format!("response is not UTF-8: {e}")))
    }

    /// One request/response round trip. Protocol-level `error` responses
    /// come back as `Err`, so callers handle exactly one failure path.
    pub fn request(&mut self, req: &Value) -> io::Result<Value> {
        send_line(&mut self.conn.writer, req.compact())?;
        let line = self.read_line()?;
        let v: Value = serde_json::from_str(&line)
            .map_err(|e| io::Error::other(format!("bad response JSON: {e}")))?;
        if v["kind"].as_str() == Some("error") {
            return Err(io::Error::other(
                v["message"].as_str().unwrap_or("unspecified server error").to_string(),
            ));
        }
        if v["v"].as_f64() != Some(SERVE_PROTO_VERSION as f64) {
            return Err(io::Error::other(format!("response version drift: {v}")));
        }
        Ok(v)
    }
}

/// The end-to-end smoke: in-process server + client, seeded catalog
/// through the queue, cache-hit assertion on a repeated query, then a
/// cold-store replay that must reproduce every artifact bit-exact
/// (manifest MD5s compared, then re-verified from the bytes).
///
/// Returns an error description instead of asserting, so the CLI gate
/// (`awp serve --smoke`) can exit nonzero with a message.
pub fn smoke() -> Result<(), String> {
    let base = std::env::temp_dir().join(format!("awp-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let err = |e: String| e;
    let result = smoke_in(&base).map_err(err);
    let _ = std::fs::remove_dir_all(&base);
    result
}

fn smoke_in(base: &std::path::Path) -> Result<(), String> {
    let warm_root = base.join("warm");
    let engine = EnsembleEngine::open(&warm_root, [2, 1, 1]).map_err(|e| e.to_string())?;
    let server = ServeServer::serve(&Addr::parse("127.0.0.1:0"), Arc::clone(&engine))
        .map_err(|e| format!("bind: {e}"))?;
    let mut client =
        ServeClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;

    // 1. Seeded 8-event catalog through the queue, 2 workers.
    let cat = client
        .request(&serde_json::json!({
            "kind": "catalog",
            "config": {"seed": 2468, "events": 8, "nx": 16, "duration_s": 20.0},
            "workers": 2
        }))
        .map_err(|e| format!("catalog request: {e}"))?;
    if cat["events"].as_f64() != Some(8.0) || cat["done"].as_f64() != Some(8.0) {
        return Err(format!("catalog did not complete 8/8 events: {cat}"));
    }
    let hashes: Vec<String> = cat["hashes"]
        .as_array()
        .ok_or("catalog response: missing hashes")?
        .iter()
        .filter_map(|h| h.as_str().map(String::from))
        .collect();
    if hashes.len() != 8 {
        return Err(format!("expected 8 result hashes, got {}", hashes.len()));
    }

    // 2. Repeated site query is a cache hit and bumps the hit counter.
    let spec = serde_json::json!({"family": "shakeout-k", "nx": 16, "duration_s": 20.0});
    let q1 = client
        .request(&serde_json::json!({"kind": "query", "spec": spec, "site": "Los Angeles"}))
        .map_err(|e| format!("first query: {e}"))?;
    let hits_before = engine.stats.cache_hits.load(Ordering::Relaxed);
    let q2 = client
        .request(&serde_json::json!({"kind": "query", "spec": spec, "site": "Los Angeles"}))
        .map_err(|e| format!("second query: {e}"))?;
    let hits_after = engine.stats.cache_hits.load(Ordering::Relaxed);
    if q2["cached"].as_bool() != Some(true) {
        return Err(format!("repeated query was not a cache hit: {q2}"));
    }
    if q1["hash"] != q2["hash"] {
        return Err(format!("repeated query changed identity: {q1} vs {q2}"));
    }
    if hits_after <= hits_before {
        return Err(format!(
            "cache-hit counter did not advance ({hits_before} -> {hits_after})"
        ));
    }

    // 3. Hazard sweep sees every stored scenario at the site.
    let hz = client
        .request(&serde_json::json!({"kind": "hazard", "site": "Los Angeles"}))
        .map_err(|e| format!("hazard request: {e}"))?;
    let curve_len = hz["curve"].as_array().map(|a| a.len()).unwrap_or(0);
    if curve_len < 8 {
        return Err(format!("hazard curve covers {curve_len} < 8 scenarios"));
    }
    server.stop();

    // 4. Cold-store replay: a fresh engine re-runs the same catalog and
    //    must reproduce every artifact bit-exact (manifest MD5 equality).
    let cold_root = base.join("cold");
    let cold = EnsembleEngine::open(&cold_root, [2, 1, 1]).map_err(|e| e.to_string())?;
    let events = generate_catalog(&CatalogConfig::demo(2468, 8, 16, 20.0))?;
    cold.submit_catalog(&events).map_err(|e| e.to_string())?;
    cold.drain(2).map_err(|e| e.to_string())?;
    for h in &hashes {
        if !cold.store.contains(h) {
            return Err(format!("cold replay missing scenario {h}"));
        }
        cold.store.verify(h).map_err(|e| format!("cold artifact corrupt: {e}"))?;
        engine.store.verify(h).map_err(|e| format!("warm artifact corrupt: {e}"))?;
        let warm_m = engine.store.manifest(h).map_err(|e| e.to_string())?;
        let cold_m = cold.store.manifest(h).map_err(|e| e.to_string())?;
        if warm_m["artifacts"].to_string() != cold_m["artifacts"].to_string() {
            return Err(format!(
                "replay of {h} is not bit-exact:\n  warm {}\n  cold {}",
                warm_m["artifacts"], cold_m["artifacts"]
            ));
        }
    }
    println!(
        "serve smoke passed: 8/8 catalog events, cache hit on repeat query, \
         cold replay bit-exact across {} scenarios",
        hashes.len()
    );
    Ok(())
}
