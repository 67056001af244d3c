//! `awp serve` protocol pins: hello-first version negotiation, schema-
//! checked query/response round trips over a real socket, cache-hit
//! accounting on repeated queries, error responses that keep the
//! connection alive, requests that arrive in pieces over TCP, and hazard
//! sweeps racing a catalog drain.

use awp_ensemble::catalog::{generate_catalog, CatalogConfig};
use awp_ensemble::engine::EnsembleEngine;
use awp_ensemble::serve::{
    hello_json, validate_hello, ServeClient, ServeServer, SERVE_PROTO_VERSION,
};
use awp_odc::stats::StatsAddr;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

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

/// Send `pieces` over raw TCP with a pause longer than the server's 100 ms
/// read timeout between them; return the one reply line, which must come
/// within 3 s.
fn send_in_pieces(server: &ServeServer, pieces: &[&[u8]]) -> serde_json::Value {
    let StatsAddr::Tcp(addr) = server.local_addr() else { panic!("TCP server expected") };
    let stream = TcpStream::connect(addr.as_str()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    validate_hello(line.trim()).unwrap();
    for (i, piece) in pieces.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(Duration::from_millis(250));
        }
        writer.write_all(piece).unwrap();
    }
    line.clear();
    reader.read_line(&mut line).expect("reply within 3 s");
    serde_json::from_str(&line).unwrap()
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
