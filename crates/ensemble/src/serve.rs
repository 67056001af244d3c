//! The hazard-query server — `awp serve`.
//!
//! Same wire discipline as the `awp-stats` endpoint (`awp_odc::stats`):
//! newline-delimited versioned JSON over TCP or a Unix-domain socket,
//! hello-first. The server writes one self-describing hello line the
//! moment a client connects; the client must reject a stream whose
//! `proto`/`v` it does not recognise ([`validate_hello`]) — that is the
//! entire negotiation. After the hello the connection is request/response:
//! the client writes one JSON object per line, the server answers each
//! with exactly one JSON line. Each side sends a message as one write
//! (`send_line`), and a line that arrives in pieces is reassembled
//! however long the pauses between them (`read_line`).
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
//! connection stays up — a bad request must not kill a shared server.

use crate::catalog::{generate_catalog, CatalogConfig};
use crate::engine::{EnsembleEngine, RunOutcome};
use crate::queue::JobState;
use crate::spec::ScenarioSpec;
use awp_odc::stats::StatsAddr;
use serde_json::Value;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub const SERVE_PROTO_NAME: &str = "awp-serve";
pub const SERVE_PROTO_VERSION: u32 = 1;

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// One accepted connection, split into buffered reader + writer halves.
struct Conn {
    reader: Box<dyn BufRead + Send>,
    writer: Box<dyn Write + Send>,
}

impl Listener {
    /// Non-blocking accept; `Ok(None)` when nobody is knocking. Accepted
    /// streams are switched back to blocking with a read timeout so a
    /// silent client cannot pin its handler thread past shutdown.
    fn poll_accept(&self) -> io::Result<Option<Conn>> {
        fn split_tcp(s: TcpStream) -> io::Result<Conn> {
            s.set_nonblocking(false)?;
            s.set_read_timeout(Some(Duration::from_millis(100)))?;
            let _ = s.set_nodelay(true);
            let r = s.try_clone()?;
            Ok(Conn { reader: Box::new(BufReader::new(r)), writer: Box::new(s) })
        }
        fn split_unix(s: UnixStream) -> io::Result<Conn> {
            s.set_nonblocking(false)?;
            s.set_read_timeout(Some(Duration::from_millis(100)))?;
            let r = s.try_clone()?;
            Ok(Conn { reader: Box::new(BufReader::new(r)), writer: Box::new(s) })
        }
        let conn = match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Some(split_tcp(s)?),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => Some(split_unix(s)?),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
        };
        Ok(conn)
    }
}

/// The long-running query server. Dropping (or [`stop`](Self::stop))
/// shuts the listener down and joins every per-client thread.
pub struct ServeServer {
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    local: StatsAddr,
    unlink: Option<PathBuf>,
}

impl ServeServer {
    /// Bind `addr` and answer queries against `engine` until stopped.
    pub fn serve(addr: &StatsAddr, engine: Arc<EnsembleEngine>) -> io::Result<ServeServer> {
        let (listener, local, unlink) = match addr {
            StatsAddr::Tcp(a) => {
                let l = TcpListener::bind(a.as_str())?;
                let local = StatsAddr::Tcp(l.local_addr()?.to_string());
                l.set_nonblocking(true)?;
                (Listener::Tcp(l), local, None)
            }
            StatsAddr::Unix(p) => {
                let _ = std::fs::remove_file(p);
                let l = UnixListener::bind(p)?;
                l.set_nonblocking(true)?;
                (Listener::Unix(l), StatsAddr::Unix(p.clone()), Some(p.clone()))
            }
        };
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let clients: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
                while !stop.load(Ordering::Acquire) {
                    match listener.poll_accept() {
                        Ok(Some(conn)) => {
                            let engine = Arc::clone(&engine);
                            let stop = Arc::clone(&stop);
                            let handle =
                                std::thread::spawn(move || serve_client(conn, engine, stop));
                            clients.lock().unwrap().push(handle);
                        }
                        Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                        Err(_) => break,
                    }
                }
                for h in clients.lock().unwrap().drain(..) {
                    let _ = h.join();
                }
            })
        };
        Ok(ServeServer { stop, accept: Some(accept), local, unlink })
    }

    /// The address the listener actually bound (port 0 resolved).
    pub fn local_addr(&self) -> &StatsAddr {
        &self.local
    }

    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(p) = self.unlink.take() {
            let _ = std::fs::remove_file(&p);
        }
    }
}

impl Drop for ServeServer {
    fn drop(&mut self) {
        self.shutdown();
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
    let hello: Value =
        serde_json::from_str(line).map_err(|e| format!("hello is not valid JSON: {e}"))?;
    if hello["kind"].as_str() != Some("hello") {
        return Err(format!("first line is not a hello: {hello}"));
    }
    if hello["proto"].as_str() != Some(SERVE_PROTO_NAME) {
        return Err(format!("unknown proto {:?}", hello["proto"]));
    }
    let v = hello["v"].as_f64().ok_or("hello: missing v")?;
    if v != SERVE_PROTO_VERSION as f64 {
        return Err(format!(
            "protocol version {v} != {SERVE_PROTO_VERSION}; refusing stream"
        ));
    }
    Ok(())
}

/// Send one message as a single write of `text` + `'\n'`, so the reader
/// wakes once and Nagle never holds back a trailing newline.
fn send_line(writer: &mut dyn Write, mut text: String) -> io::Result<()> {
    text.push('\n');
    writer.write_all(text.as_bytes())
}

/// Read up to and including the next `'\n'` into `line`, which keeps what
/// earlier calls read. `Ok(true)`: `line` holds a whole line, or the
/// stream's last unterminated bytes. `Ok(false)`: the stream ended with
/// nothing read. A read timeout surfaces as `WouldBlock`/`TimedOut` with
/// the bytes read so far still in `line`.
fn read_line(reader: &mut dyn BufRead, line: &mut Vec<u8>) -> io::Result<bool> {
    reader.read_until(b'\n', line)?;
    Ok(!line.is_empty())
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

fn serve_client(mut conn: Conn, engine: Arc<EnsembleEngine>, stop: Arc<AtomicBool>) {
    if send_line(&mut conn.writer, hello_json()).is_err() {
        return;
    }
    let mut line = Vec::new();
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match read_line(&mut conn.reader, &mut line) {
            Ok(true) => {}
            Ok(false) => return, // client hung up
            // The 100ms read timeout lets the stop flag be observed; a
            // request read in part stays in `line` until its newline.
            Err(e) if is_timeout(&e) => continue,
            Err(_) => return,
        }
        let response = match std::str::from_utf8(&line).map(str::trim) {
            Ok("") => None,
            Ok(text) => Some(handle_request(&engine, text)),
            Err(e) => Some(Err(format!("request is not UTF-8: {e}"))),
        };
        line.clear();
        let Some(response) = response else { continue };
        let response = response.unwrap_or_else(|message| {
            serde_json::json!({
                "v": SERVE_PROTO_VERSION,
                "kind": "error",
                "message": message
            })
        });
        if send_line(&mut conn.writer, response.compact()).is_err() {
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
    reader: Box<dyn BufRead + Send>,
    writer: Box<dyn Write + Send>,
}

impl ServeClient {
    /// Connect and perform the hello check. A foreign or future server is
    /// an error here, never a half-working session.
    pub fn connect(addr: &StatsAddr) -> io::Result<ServeClient> {
        let (reader, writer): (Box<dyn BufRead + Send>, Box<dyn Write + Send>) = match addr {
            StatsAddr::Tcp(a) => {
                let s = TcpStream::connect(a.as_str())?;
                s.set_read_timeout(Some(Duration::from_secs(600)))?;
                s.set_nodelay(true)?;
                let r = s.try_clone()?;
                (Box::new(BufReader::new(r)), Box::new(s))
            }
            StatsAddr::Unix(p) => {
                let s = UnixStream::connect(p)?;
                s.set_read_timeout(Some(Duration::from_secs(600)))?;
                let r = s.try_clone()?;
                (Box::new(BufReader::new(r)), Box::new(s))
            }
        };
        let mut client = ServeClient { reader, writer };
        let hello = client.read_line()?;
        validate_hello(&hello).map_err(io::Error::other)?;
        Ok(client)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = Vec::new();
        loop {
            match read_line(&mut self.reader, &mut line) {
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
        send_line(&mut self.writer, req.compact())?;
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
    let server = ServeServer::serve(&StatsAddr::parse("127.0.0.1:0"), Arc::clone(&engine))
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
