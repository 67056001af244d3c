//! Live streaming stats endpoint — the scx_stats-shaped monitoring side
//! channel.
//!
//! A run that was armed with an [`LiveStats`] table exposes it through a
//! long-lived endpoint (TCP or Unix-domain socket). Each client that
//! connects receives one self-describing **hello** line, then periodic
//! **snapshot** lines — newline-delimited versioned JSON produced by
//! [`LiveStats::hello_json`]/[`LiveStats::snapshot_json`] — for as long as
//! it stays connected. The server samples racy relaxed atomics on its own
//! thread; the solve hot path never blocks on, allocates for, or even
//! notices the endpoint (zero-alloc discipline is pinned in
//! `telemetry/tests/zero_alloc.rs`).
//!
//! Version negotiation is deliberately one-sided and dumb: the first line
//! carries `{"v":N,"proto":"awp-stats"}` and clients must reject a stream
//! whose version or proto they do not recognise ([`validate_stream`]).
//! There is no renegotiation — a mismatched client disconnects and the
//! server does not care.

use crate::wire::{self, check_hello, send_line, Server};
use awp_telemetry::{LiveStats, STATS_PROTO_NAME, STATS_PROTO_VERSION};
use std::io::{self, BufRead};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The address type predates [`crate::wire`] and keeps its old name here.
pub use crate::wire::Addr as StatsAddr;

/// A running stats endpoint. Dropping (or calling [`stop`](Self::stop))
/// shuts the listener down and joins every per-client writer thread.
pub struct StatsServer(Server);

impl StatsServer {
    /// Bind `addr` and start streaming `live` at `interval` to every
    /// client that connects.
    pub fn serve(
        addr: &StatsAddr,
        live: Arc<LiveStats>,
        interval: Duration,
    ) -> io::Result<StatsServer> {
        let t0 = Instant::now();
        Server::serve(addr, move |mut conn, stop| {
            if send_line(&mut conn.writer, live.hello_json()).is_err() {
                return;
            }
            for seq in 0u64.. {
                let t_ms = t0.elapsed().as_millis() as u64;
                if send_line(&mut conn.writer, live.snapshot_json(seq, t_ms)).is_err() {
                    return; // client went away
                }
                // Sleep in short slices so stop() is never held up by a
                // long interval.
                let mut left = interval;
                while !left.is_zero() {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let slice = left.min(Duration::from_millis(25));
                    std::thread::sleep(slice);
                    left -= slice;
                }
            }
        })
        .map(StatsServer)
    }

    /// The address the listener actually bound (port 0 resolved).
    pub fn local_addr(&self) -> &StatsAddr {
        self.0.local_addr()
    }

    /// Shut down: stop streaming, join every thread, unlink the socket.
    pub fn stop(self) {
        self.0.stop();
    }
}

/// Connect to a stats endpoint and read the hello line plus
/// `max_snapshots` snapshot lines (or until `timeout`). Returns the raw
/// lines; pair with [`validate_stream`].
pub fn read_stream(
    addr: &StatsAddr,
    max_snapshots: usize,
    timeout: Duration,
) -> io::Result<Vec<String>> {
    let mut lines = Vec::new();
    for line in wire::connect(addr, timeout)?.reader.lines() {
        lines.push(line?);
        if lines.len() > max_snapshots {
            break; // hello + N snapshots
        }
    }
    Ok(lines)
}

/// Schema-check one received stream: a versioned hello first (reject
/// unknown protocol or version — that is the whole negotiation), then
/// monotonically sequenced snapshots whose per-rank arrays match the
/// advertised rank count. Returns `(ranks, snapshots)`.
pub fn validate_stream(lines: &[String]) -> Result<(usize, usize), String> {
    let hello = check_hello(
        lines.first().ok_or("empty stream: no hello line")?,
        STATS_PROTO_NAME,
        STATS_PROTO_VERSION,
    )?;
    let ranks = hello["ranks"].as_f64().ok_or("hello: missing ranks")? as usize;
    if ranks == 0 {
        return Err("hello advertises zero ranks".into());
    }
    // Additive extras: a hello may advertise additional per-rank snapshot
    // fields (e.g. ["retries"]). They are required only when advertised,
    // so this validator accepts servers that emit them and servers that
    // never do (this one advertises none).
    let extras: Vec<String> = hello["extras"]
        .as_array()
        .map(|a| a.iter().filter_map(|v| v.as_str().map(String::from)).collect())
        .unwrap_or_default();
    let mut last_seq: Option<u64> = None;
    let mut snapshots = 0usize;
    for (i, line) in lines[1..].iter().enumerate() {
        let snap: serde_json::Value = serde_json::from_str(line)
            .map_err(|e| format!("snapshot {i} is not valid JSON: {e}"))?;
        if snap["kind"].as_str() != Some("snapshot") {
            return Err(format!("line {} is not a snapshot", i + 1));
        }
        if snap["v"].as_f64() != Some(STATS_PROTO_VERSION as f64) {
            return Err(format!("snapshot {i}: version changed mid-stream"));
        }
        let seq = snap["seq"].as_f64().ok_or(format!("snapshot {i}: missing seq"))? as u64;
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(format!("snapshot {i}: seq {seq} not after {prev}"));
            }
        }
        last_seq = Some(seq);
        snap["t_ms"].as_f64().ok_or(format!("snapshot {i}: missing t_ms"))?;
        for key in ["imbalance", "hidden_comm"] {
            let x = snap[key].as_f64().ok_or(format!("snapshot {i}: missing {key}"))?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!("snapshot {i}: {key} = {x} is not a finite metric"));
            }
        }
        let cells = snap["ranks"].as_array().ok_or(format!("snapshot {i}: missing ranks"))?;
        if cells.len() != ranks {
            return Err(format!(
                "snapshot {i}: {} rank cells != advertised {ranks}",
                cells.len()
            ));
        }
        for (r, c) in cells.iter().enumerate() {
            for key in ["rank", "step"] {
                c[key].as_f64().ok_or(format!("snapshot {i} rank {r}: missing {key}"))?;
            }
            for key in ["compute_ms", "wait_ms", "send_ms", "inject_ms"] {
                c[key].as_f64().ok_or(format!("snapshot {i} rank {r}: missing {key}"))?;
            }
            for key in &extras {
                c[key.as_str()].as_f64().ok_or(format!(
                    "snapshot {i} rank {r}: missing advertised extra {key}"
                ))?;
            }
        }
        snapshots += 1;
    }
    Ok((ranks, snapshots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn bumped_live(ranks: usize) -> Arc<LiveStats> {
        let live = LiveStats::new(ranks);
        for r in 0..ranks {
            live.rank(r).step.store(5, Ordering::Relaxed);
            live.rank(r).compute_ns.fetch_add(8_000_000, Ordering::Relaxed);
        }
        live
    }

    #[test]
    fn tcp_endpoint_streams_versioned_snapshots() {
        let live = bumped_live(4);
        let srv = StatsServer::serve(
            &StatsAddr::parse("127.0.0.1:0"),
            Arc::clone(&live),
            Duration::from_millis(20),
        )
        .expect("bind ephemeral TCP port");
        let lines =
            read_stream(srv.local_addr(), 3, Duration::from_secs(5)).expect("client reads");
        srv.stop();
        let (ranks, snapshots) = validate_stream(&lines).expect("stream is schema-valid");
        assert_eq!(ranks, 4);
        assert!(snapshots >= 2, "got {snapshots} snapshots: {lines:?}");
    }

    #[test]
    fn unix_endpoint_streams_and_unlinks_socket() {
        let path = std::env::temp_dir()
            .join(format!("awp-stats-test-{}.sock", std::process::id()));
        let live = bumped_live(2);
        let srv = StatsServer::serve(
            &StatsAddr::Unix(path.clone()),
            Arc::clone(&live),
            Duration::from_millis(20),
        )
        .expect("bind unix socket");
        let lines =
            read_stream(&StatsAddr::Unix(path.clone()), 2, Duration::from_secs(5))
                .expect("client reads over UDS");
        srv.stop();
        let (ranks, snapshots) = validate_stream(&lines).expect("stream is schema-valid");
        assert_eq!(ranks, 2);
        assert!(snapshots >= 1);
        assert!(!path.exists(), "socket file unlinked on shutdown");
    }

    #[test]
    fn validator_rejects_foreign_and_future_streams() {
        assert!(validate_stream(&[]).is_err(), "empty stream");
        let bad_proto = vec![r#"{"v":1,"kind":"hello","proto":"scx-stats","ranks":1}"#.into()];
        assert!(validate_stream(&bad_proto).unwrap_err().contains("proto"));
        let future = vec![r#"{"v":999,"kind":"hello","proto":"awp-stats","ranks":1}"#.into()];
        assert!(validate_stream(&future).unwrap_err().contains("version"));
        // A v1 stream (per-rank steal columns) is refused at the hello.
        let v1 = vec![
            r#"{"v":1,"kind":"hello","proto":"awp-stats","ranks":1}"#.into(),
            r#"{"v":1,"kind":"snapshot","seq":0,"t_ms":0,"imbalance":0,"hidden_comm":0,"ranks":[{"rank":0,"step":1,"compute_ms":0,"wait_ms":0,"send_ms":0,"inject_ms":0,"steals":0,"stolen":0,"tiles":0,"queue_depth":0}]}"#.into(),
        ];
        assert!(validate_stream(&v1).unwrap_err().contains("version"));
        let live = LiveStats::new(2);
        let ok = vec![live.hello_json(), live.snapshot_json(0, 10), live.snapshot_json(1, 20)];
        assert_eq!(validate_stream(&ok), Ok((2, 2)));
        // Snapshot whose rank array shrank mid-stream.
        let short = vec![live.hello_json(), LiveStats::new(1).snapshot_json(0, 10)];
        assert!(validate_stream(&short).unwrap_err().contains("rank cells"));
    }

    #[test]
    fn advertised_extras_are_required_but_backward_compatible() {
        // This server advertises no extras; a stream from one that does
        // must carry every advertised key in every rank cell.
        let live = LiveStats::new(1);
        let hello = r#"{"v":2,"kind":"hello","proto":"awp-stats","ranks":1,"extras":["retries"]}"#;
        let plain = live.snapshot_json(0, 10);
        let extra = plain.replace("}]}", ",\"retries\":2}]}");
        let ok = vec![hello.to_string(), extra];
        assert_eq!(validate_stream(&ok), Ok((1, 1)), "v2 stream carries its extras");
        // A hello that advertises an extra the snapshots lack must fail...
        let lying = vec![hello.to_string(), plain.clone()];
        assert!(validate_stream(&lying).unwrap_err().contains("retries"));
        // ...while a hello without `extras` keeps validating snapshots
        // that never carry them.
        assert_eq!(validate_stream(&[live.hello_json(), plain]), Ok((1, 1)));
    }

    #[test]
    fn addr_parse_round_trips() {
        assert_eq!(StatsAddr::parse("127.0.0.1:7070"), StatsAddr::Tcp("127.0.0.1:7070".into()));
        assert_eq!(
            StatsAddr::parse("unix:/tmp/awp.sock"),
            StatsAddr::Unix(PathBuf::from("/tmp/awp.sock"))
        );
        assert_eq!(StatsAddr::parse("unix:/tmp/awp.sock").to_string(), "unix:/tmp/awp.sock");
    }
}
