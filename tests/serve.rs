//! `awp serve` protocol pins: hello-first version negotiation, schema-
//! checked query/response round trips over a real socket, cache-hit
//! accounting on repeated queries, error responses that keep the
//! connection alive, requests that arrive in pieces over TCP, the request
//! line cap, a seeded protocol fuzzer, replies that echo control
//! characters, and hazard sweeps racing a catalog drain.

use awp_ensemble::catalog::{generate_catalog, CatalogConfig};
use awp_ensemble::engine::EnsembleEngine;
use awp_ensemble::serve::{
    hello_json, validate_hello, ServeClient, ServeServer, SERVE_PROTO_VERSION,
};
use awp_odc::stats::StatsAddr;
use awp_odc::wire::MAX_REQUEST_LINE;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn tmp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("awp-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn hello_negotiation_rejects_foreign_and_future_servers() {
    validate_hello(&hello_json()).expect("own hello validates");
    let foreign = r#"{"v":1,"kind":"hello","proto":"awp-stats"}"#;
    assert!(validate_hello(foreign).unwrap_err().contains("proto"));
    let future = r#"{"v":999,"kind":"hello","proto":"awp-serve"}"#;
    assert!(validate_hello(future).unwrap_err().contains("version"));
    let not_hello = r#"{"v":1,"kind":"snapshot","proto":"awp-serve"}"#;
    assert!(validate_hello(not_hello).unwrap_err().contains("hello"));
    assert!(validate_hello("garbage").unwrap_err().contains("JSON"));
}

#[test]
fn server_round_trips_schema_checked_queries_and_counts_cache_hits() {
    let root = tmp_root("roundtrip");
    let engine = EnsembleEngine::open(&root, [2, 1, 1]).unwrap();
    let server =
        ServeServer::serve(&StatsAddr::parse("127.0.0.1:0"), Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    // stats: schema check on the trivially cheap request first.
    let stats = client.request(&serde_json::json!({"kind": "stats"})).unwrap();
    assert_eq!(stats["kind"].as_str(), Some("stats"));
    assert_eq!(stats["v"].as_f64(), Some(SERVE_PROTO_VERSION as f64));
    assert_eq!(stats["stats"]["cache_hits"].as_f64(), Some(0.0));

    // A malformed request gets an error response and the connection lives.
    let err = client.request(&serde_json::json!({"kind": "florp"})).unwrap_err();
    assert!(err.to_string().contains("unknown request kind"), "got: {err}");

    // query: first compute, then a cache hit with identical identity.
    let spec = serde_json::json!({"family": "shakeout-k", "nx": 16, "duration_s": 20.0});
    let q1 = client
        .request(&serde_json::json!({"kind": "query", "spec": spec, "site": "Los Angeles"}))
        .unwrap();
    assert_eq!(q1["kind"].as_str(), Some("result"));
    assert_eq!(q1["cached"].as_bool(), Some(false));
    assert_eq!(q1["hash"].as_str().map(str::len), Some(32), "MD5 content address");
    assert!(q1["pgvh"].as_f64().unwrap() >= 0.0);
    assert!(q1["pgv_max"].as_f64().unwrap() >= q1["pgvh"].as_f64().unwrap());

    let q2 = client
        .request(&serde_json::json!({"kind": "query", "spec": spec, "site": "Los Angeles"}))
        .unwrap();
    assert_eq!(q2["cached"].as_bool(), Some(true), "repeat query must hit the cache");
    assert_eq!(q1["hash"], q2["hash"]);
    assert_eq!(q1["pgvh"], q2["pgvh"], "cached answer must be the stored answer");
    assert_eq!(engine.stats.cache_hits.load(Ordering::Relaxed), 1);

    // hazard: the stored scenario shows up in the site's curve.
    let hz = client
        .request(&serde_json::json!({"kind": "hazard", "site": "Los Angeles"}))
        .unwrap();
    let curve = hz["curve"].as_array().unwrap();
    assert_eq!(curve.len(), 1);
    assert_eq!(curve[0]["hash"], q1["hash"]);
    assert_eq!(curve[0]["pgvh"], q1["pgvh"]);

    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn serve_works_over_unix_domain_sockets_and_unlinks() {
    let root = tmp_root("uds");
    let sock = std::env::temp_dir().join(format!("awp-serve-{}.sock", std::process::id()));
    let engine = EnsembleEngine::open(&root, [2, 1, 1]).unwrap();
    let addr = StatsAddr::Unix(sock.clone());
    let server = ServeServer::serve(&addr, engine).unwrap();
    let mut client = ServeClient::connect(&addr).unwrap();
    let stats = client.request(&serde_json::json!({"kind": "stats"})).unwrap();
    assert_eq!(stats["kind"].as_str(), Some("stats"));
    drop(client);
    server.stop();
    assert!(!sock.exists(), "socket file unlinked on shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// A raw TCP client past the hello; reads give up after `timeout`.
fn raw_client(server: &ServeServer, timeout: Duration) -> (BufReader<TcpStream>, TcpStream) {
    let StatsAddr::Tcp(addr) = server.local_addr() else { panic!("TCP server expected") };
    let stream = TcpStream::connect(addr.as_str()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(timeout)).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    validate_hello(line.trim()).unwrap();
    (reader, stream)
}

/// The next reply line, parsed; `None` once the server closed the stream.
fn reply(reader: &mut BufReader<TcpStream>) -> Option<serde_json::Value> {
    let mut line = String::new();
    match reader.read_line(&mut line).expect("reply before the read timeout") {
        0 => None,
        _ => Some(serde_json::from_str(&line).unwrap_or_else(|e| panic!("{e}: {line:?}"))),
    }
}

/// Send `pieces` over raw TCP with a pause longer than the server's 100 ms
/// read timeout between them; return the one reply line, which must come
/// within 3 s.
fn send_in_pieces(server: &ServeServer, pieces: &[&[u8]]) -> serde_json::Value {
    let (mut reader, mut writer) = raw_client(server, Duration::from_secs(3));
    for (i, piece) in pieces.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(Duration::from_millis(250));
        }
        writer.write_all(piece).unwrap();
    }
    reply(&mut reader).expect("a reply, not a hang-up")
}

/// Write `len` newline-free bytes from a thread of its own (the server
/// stops reading at the cap, so a blocking write here could never end)
/// and return the reply, which must be the one error before the server
/// closes the connection.
fn send_oversized(server: &ServeServer, len: usize) -> String {
    let (mut reader, mut writer) = raw_client(server, Duration::from_secs(5));
    let flood = std::thread::spawn(move || {
        // The server hangs up mid-flood; the write error that causes is
        // expected.
        let _ = writer.write_all(&vec![b'{'; len]);
    });
    let err = reply(&mut reader).expect("an error reply before the close");
    assert_eq!(err["kind"].as_str(), Some("error"), "{err}");
    let message = err["message"].as_str().unwrap().to_string();
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(n) => assert_eq!(n, 0, "connection closed after the error, got {rest:?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    flood.join().unwrap();
    message
}

#[test]
fn oversized_request_gets_one_error_and_the_connection_closes() {
    let root = tmp_root("oversized");
    let engine = EnsembleEngine::open(&root, [1, 1, 1]).unwrap();
    let server = ServeServer::serve(&StatsAddr::parse("127.0.0.1:0"), engine).unwrap();
    let mut bystander = ServeClient::connect(server.local_addr()).unwrap();
    let message = send_oversized(&server, 2 << 20);
    assert!(message.contains(&format!("longer than {MAX_REQUEST_LINE} bytes")), "{message}");
    let stats = bystander.request(&serde_json::json!({"kind": "stats"})).unwrap();
    assert_eq!(stats["kind"].as_str(), Some("stats"), "a second client is still answered");
    let mut fresh = ServeClient::connect(server.local_addr()).unwrap();
    let again = fresh.request(&serde_json::json!({"kind": "stats"})).unwrap();
    assert_eq!(again["kind"], stats["kind"]);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// The parser takes arrays and objects nested up to its cap and refuses
/// one level more with an error: it recurses once per level, so without
/// the cap a short line could overflow the stack.
#[test]
fn json_nested_past_the_cap_is_an_error() {
    let cap = serde::value::MAX_DEPTH;
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        let nested = |n: usize| format!("{}0{}", open.repeat(n), close.repeat(n));
        let fits: serde_json::Value = serde_json::from_str(&nested(cap)).unwrap();
        assert_eq!(fits.compact(), nested(cap), "{cap} levels parse and round-trip");
        let err = serde_json::from_str::<serde_json::Value>(&nested(cap + 1)).unwrap_err();
        assert!(err.to_string().contains(&format!("nested deeper than {cap}")), "{err}");
    }
}

/// A line of 60,000 `[` fits under the line cap; the connection gets an
/// error reply instead of its thread overflowing the stack (which aborted
/// the whole server), and the same connection answers the next request.
#[test]
fn deeply_nested_request_gets_an_error_and_the_connection_stays_up() {
    let root = tmp_root("deep");
    let engine = EnsembleEngine::open(&root, [1, 1, 1]).unwrap();
    let server = ServeServer::serve(&StatsAddr::parse("127.0.0.1:0"), engine).unwrap();
    let (mut reader, mut writer) = raw_client(&server, Duration::from_secs(5));
    let deep = "[".repeat(60_000);
    assert!(deep.len() < MAX_REQUEST_LINE);
    writer.write_all(format!("{deep}\n").as_bytes()).unwrap();
    let r = reply(&mut reader).expect("an error reply, not a hang-up");
    assert_eq!(r["kind"].as_str(), Some("error"), "{r}");
    assert!(r["message"].as_str().unwrap().contains("nested deeper than"), "{r}");
    writer.write_all(b"{\"kind\":\"stats\"}\n").unwrap();
    let r = reply(&mut reader).expect("the connection still answers");
    assert_eq!(r["kind"].as_str(), Some("stats"), "{r}");
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// splitmix64: the one seeded stream behind every fuzz case.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Seeded protocol fuzz: truncated JSON, non-UTF-8 bytes, unknown kinds,
/// requests carrying a foreign `v`, over-long lines, byte-at-a-time
/// writers and clients that hang up mid-request. Every case must finish
/// under a deadline; a connection that should survive its case must still
/// answer `stats` (its handler thread did not panic); and a fresh client
/// is answered at the end.
#[test]
fn seeded_protocol_fuzz_neither_panics_nor_wedges() {
    const CASES: usize = 42;
    let root = tmp_root("fuzz");
    let engine = EnsembleEngine::open(&root, [1, 1, 1]).unwrap();
    let server = ServeServer::serve(&StatsAddr::parse("127.0.0.1:0"), engine).unwrap();
    let mut rng = SplitMix(0xF022_5EED);
    let valid =
        [&br#"{"kind":"stats"}"#[..], r#"{"kind":"hazard","site":"San José"}"#.as_bytes()];
    for case in 0..CASES {
        let t = Instant::now();
        let kind = case % 7;
        let request = valid[rng.below(valid.len())];
        let (mut reader, mut writer) = raw_client(&server, Duration::from_secs(5));
        let survives = match kind {
            // Truncated JSON: a strict prefix of an object never parses.
            0 => {
                let cut = 1 + rng.below(request.len() - 1);
                writer.write_all(&[&request[..cut], b"\n"].concat()).unwrap();
                // A cut inside "é" leaves bytes that are not UTF-8 either.
                let err = reply(&mut reader).unwrap();
                let message = err["message"].as_str().unwrap();
                assert!(message.contains("JSON") || message.contains("UTF-8"), "{case}: {err}");
                true
            }
            // Bytes that are not UTF-8.
            1 => {
                let mut junk: Vec<u8> =
                    (0..1 + rng.below(64)).map(|_| rng.below(256) as u8).collect();
                junk.retain(|&b| b != b'\n');
                let at = rng.below(junk.len() + 1);
                junk.insert(at, 0xFF);
                junk.push(b'\n');
                writer.write_all(&junk).unwrap();
                let err = reply(&mut reader).unwrap();
                assert!(err["message"].as_str().unwrap().contains("UTF-8"), "case {case}: {err}");
                true
            }
            // A kind the protocol does not have.
            2 => {
                let name: String =
                    (0..1 + rng.below(9)).map(|_| (b'a' + rng.below(26) as u8) as char).collect();
                writer.write_all(format!("{{\"kind\":\"x{name}\"}}\n").as_bytes()).unwrap();
                let err = reply(&mut reader).unwrap();
                assert!(err["message"].as_str().unwrap().contains("unknown request kind"));
                true
            }
            // A request carrying another version: requests are not
            // negotiated, the reply carries the server's own `v`.
            3 => {
                let v = 2 + rng.below(1000);
                writer.write_all(format!("{{\"v\":{v},\"kind\":\"stats\"}}\n").as_bytes()).unwrap();
                let r = reply(&mut reader).unwrap();
                assert_eq!(r["v"].as_f64(), Some(SERVE_PROTO_VERSION as f64), "case {case}: {r}");
                assert_eq!(r["kind"].as_str(), Some("stats"), "case {case}: {r}");
                true
            }
            // Over the line cap: one error, then the server hangs up.
            4 => {
                send_oversized(&server, MAX_REQUEST_LINE + 1 + rng.below(4 * MAX_REQUEST_LINE));
                false
            }
            // One byte per write, with the odd pause.
            5 => {
                for (i, &b) in request.iter().chain(b"\n").enumerate() {
                    writer.write_all(&[b]).unwrap();
                    if i % (1 + rng.below(16)) == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                let r = reply(&mut reader).unwrap();
                assert_ne!(r["kind"].as_str(), Some("error"), "case {case}: {r}");
                true
            }
            // Hang up in the middle of a request.
            _ => {
                let cut = rng.below(request.len());
                writer.write_all(&request[..cut]).unwrap();
                false
            }
        };
        if survives {
            writer.write_all(b"{\"kind\":\"stats\"}\n").unwrap();
            let r = reply(&mut reader).unwrap();
            assert_eq!(r["kind"].as_str(), Some("stats"), "case {case}: connection lost: {r}");
        }
        assert!(t.elapsed() < Duration::from_secs(10), "case {case} took {:?}", t.elapsed());
    }
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let stats = client.request(&serde_json::json!({"kind": "stats"})).unwrap();
    assert_eq!(stats["kind"].as_str(), Some("stats"));
    assert_eq!(stats["v"].as_f64(), Some(SERVE_PROTO_VERSION as f64));
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn request_paused_before_its_newline_is_answered() {
    let root = tmp_root("pause-newline");
    let engine = EnsembleEngine::open(&root, [1, 1, 1]).unwrap();
    let server = ServeServer::serve(&StatsAddr::parse("127.0.0.1:0"), engine).unwrap();
    let reply = send_in_pieces(&server, &[br#"{"kind":"stats"}"#, b"\n"]);
    assert_eq!(reply["kind"].as_str(), Some("stats"), "{reply}");
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn request_split_mid_json_is_reassembled() {
    let root = tmp_root("split-json");
    let engine = EnsembleEngine::open(&root, [1, 1, 1]).unwrap();
    let server = ServeServer::serve(&StatsAddr::parse("127.0.0.1:0"), engine).unwrap();
    let reply = send_in_pieces(&server, &[br#"{"kind":"st"#, b"ats\"}\n"]);
    assert_eq!(reply["kind"].as_str(), Some("stats"), "{reply}");
    // Split inside the two bytes of a UTF-8 character.
    let request = "{\"kind\":\"hazard\",\"site\":\"San José\"}\n".as_bytes();
    let cut = request.iter().position(|&b| b >= 0x80).unwrap() + 1;
    let reply = send_in_pieces(&server, &[&request[..cut], &request[cut..]]);
    assert_eq!(reply["kind"].as_str(), Some("hazard"), "{reply}");
    assert_eq!(reply["site"].as_str(), Some("San José"));
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// A site name holding a NUL, an ESC and a combining mark, as its JSON
/// text on the wire; the reply echoes it, which must stay JSON.
const ODD_SITE: &str = "Nul\u{0} esc\u{1b} e\u{301}";
const ODD_SITE_JSON: &str = r#""Nul\u0000 esc\u001b e\u0301""#;

/// A hit and a hazard request naming [`ODD_SITE`] get replies a client can
/// parse, carrying the site unchanged, and the connection then still
/// answers `stats`. The requests are written by hand, so only the server's
/// replies are under test.
#[test]
fn replies_echoing_control_characters_and_combining_marks_stay_json() {
    use awp_analysis::pgv::PgvMap;
    use awp_grid::dims::Idx3;
    use awp_solver::stations::{Seismogram, Station};
    let root = tmp_root("odd-site");
    let engine = EnsembleEngine::open(&root, [1, 1, 1]).unwrap();
    // A stored result with a station of that name, published without a
    // solve: the query below is a cache hit.
    let spec = awp_ensemble::spec::ScenarioSpec::new("shakeout-k", 16).unwrap();
    let hash = spec.hash().unwrap();
    let trace = Seismogram {
        station: Station::new(ODD_SITE, Idx3::new(1, 1, 0)),
        dt: 0.05,
        vx: vec![0.0, 0.3, -0.1],
        vy: vec![0.1, -0.4, 0.2],
        vz: vec![0.0, 0.0, 0.05],
    };
    let pgv = PgvMap::zeros(4, 3, 100.0);
    engine.store.put(&hash, &spec.family, spec.mw, &pgv, &[trace]).unwrap();
    let server = ServeServer::serve(&StatsAddr::parse("127.0.0.1:0"), engine).unwrap();
    let (mut reader, mut writer) = raw_client(&server, Duration::from_secs(5));

    let hit = format!(
        r#"{{"kind":"query","spec":{},"site":{ODD_SITE_JSON}}}"#,
        spec.to_json().compact()
    );
    writer.write_all(format!("{hit}\n").as_bytes()).unwrap();
    let r = reply(&mut reader).expect("a reply to the hit");
    assert_eq!(r["kind"].as_str(), Some("result"), "{r}");
    assert_eq!(r["cached"].as_bool(), Some(true), "{r}");
    assert_eq!(r["hash"].as_str(), Some(hash.as_str()), "{r}");
    assert_eq!(r["site"].as_str(), Some(ODD_SITE), "{r}");

    let hazard = format!(r#"{{"kind":"hazard","site":{ODD_SITE_JSON}}}"#);
    writer.write_all(format!("{hazard}\n").as_bytes()).unwrap();
    let r = reply(&mut reader).expect("a reply to the sweep");
    assert_eq!(r["kind"].as_str(), Some("hazard"), "{r}");
    assert_eq!(r["site"].as_str(), Some(ODD_SITE), "{r}");
    assert_eq!(r["curve"][0]["hash"].as_str(), Some(hash.as_str()), "{r}");

    writer.write_all(b"{\"kind\":\"stats\"}\n").unwrap();
    let r = reply(&mut reader).expect("the connection still answers");
    assert_eq!(r["kind"].as_str(), Some("stats"), "{r}");
    assert_eq!(r["stats"]["cache_hits"].as_f64(), Some(1.0), "{r}");
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// Two clients sweep over TCP while `drain(2)` publishes a catalog: no
/// sweep errs or lists a scenario twice, the store only grows under them,
/// and the last sweep covers every result.
#[test]
fn sweeps_racing_a_drain_see_no_error_and_no_duplicate() {
    let root = tmp_root("sweep-drain");
    let engine = EnsembleEngine::open(&root, [1, 1, 1]).unwrap();
    let server = ServeServer::serve(&StatsAddr::parse("127.0.0.1:0"), Arc::clone(&engine)).unwrap();
    let events = generate_catalog(&CatalogConfig::demo(31, 6, 16, 20.0)).unwrap();
    engine.submit_catalog(&events).unwrap();
    let done = Arc::new(AtomicBool::new(false));
    // The drain starts once both clients have swept the empty store.
    let started = Arc::new(Barrier::new(3));
    let sweepers: Vec<_> = (0..2)
        .map(|_| {
            let addr = server.local_addr().clone();
            let (done, started) = (Arc::clone(&done), Arc::clone(&started));
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&addr).unwrap();
                let request = serde_json::json!({"kind": "hazard", "site": "Los Angeles"});
                let (mut sweeps, mut last_len) = (0, 0);
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let reply = client.request(&request).expect("sweep during drain");
                    let curve = reply["curve"].as_array().unwrap();
                    let mut hashes: Vec<&str> =
                        curve.iter().map(|e| e["hash"].as_str().unwrap()).collect();
                    hashes.sort_unstable();
                    hashes.dedup();
                    assert_eq!(hashes.len(), curve.len(), "duplicate hash in {reply}");
                    assert!(curve.len() >= last_len, "a published result disappeared");
                    last_len = curve.len();
                    sweeps += 1;
                    if sweeps == 1 {
                        started.wait();
                    }
                    if finished {
                        return (sweeps, last_len);
                    }
                }
            })
        })
        .collect();
    started.wait();
    engine.drain(2).unwrap();
    done.store(true, Ordering::Release);
    let published = engine.store.list().unwrap().len();
    for sweeper in sweepers {
        let (sweeps, last_len) = sweeper.join().unwrap();
        assert!(sweeps > 2, "sweeps ran beside the drain");
        assert_eq!(last_len, published, "the last sweep covers the store");
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}
