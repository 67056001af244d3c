//! The wire layer under both servers — the `awp-stats` live stream
//! ([`crate::stats`]) and the `awp-serve` hazard queries
//! (`awp_ensemble::serve`).
//!
//! Both speak newline-delimited versioned JSON over TCP or a Unix-domain
//! socket, hello first. Everything that is not the payload lives here, once:
//! the address, binding, the accept loop with one thread per connection,
//! connecting, framing (one write per message; a bounded line reader that
//! keeps a partial line across read timeouts) and the hello check.

use serde_json::Value;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// A server-side read wakes this often to look at the stop flag.
const SERVER_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// How long a client read waits; a `catalog` request drains a whole
/// catalog before its reply.
pub const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(600);

/// Longest request line a server reads, newline included. The largest
/// real request, a `catalog` config, is under 1 KiB.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Where an endpoint listens. `unix:<path>` selects a Unix-domain socket;
/// anything else is a TCP `host:port` address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    Tcp(String),
    Unix(PathBuf),
}

impl Addr {
    pub fn parse(s: &str) -> Addr {
        match s.strip_prefix("unix:") {
            Some(path) => Addr::Unix(PathBuf::from(path)),
            None => Addr::Tcp(s.to_string()),
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(a) => write!(f, "{a}"),
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// One connection, split into a buffered reader and a writer.
pub struct Conn {
    pub reader: Box<dyn BufRead + Send>,
    pub writer: Box<dyn Write + Send>,
}

impl Conn {
    fn tcp(s: TcpStream, read_timeout: Duration) -> io::Result<Conn> {
        s.set_read_timeout(Some(read_timeout))?;
        s.set_nodelay(true)?;
        Ok(Conn { reader: Box::new(BufReader::new(s.try_clone()?)), writer: Box::new(s) })
    }

    fn unix(s: UnixStream, read_timeout: Duration) -> io::Result<Conn> {
        s.set_read_timeout(Some(read_timeout))?;
        Ok(Conn { reader: Box::new(BufReader::new(s.try_clone()?)), writer: Box::new(s) })
    }
}

/// Connect to `addr`; reads on the returned connection time out after
/// `read_timeout`.
pub fn connect(addr: &Addr, read_timeout: Duration) -> io::Result<Conn> {
    match addr {
        Addr::Tcp(a) => Conn::tcp(TcpStream::connect(a.as_str())?, read_timeout),
        Addr::Unix(p) => Conn::unix(UnixStream::connect(p)?, read_timeout),
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Block for the next connection. `Ok(None)`: one was accepted but
    /// could not be set up; it is dropped and the listener lives on.
    fn accept(&self) -> io::Result<Option<Conn>> {
        Ok(match self {
            Listener::Tcp(l) => Conn::tcp(l.accept()?.0, SERVER_READ_TIMEOUT).ok(),
            Listener::Unix(l) => Conn::unix(l.accept()?.0, SERVER_READ_TIMEOUT).ok(),
        })
    }
}

/// A listening endpoint: one accept thread and one thread per connection.
/// Dropping it (or [`stop`](Self::stop)) sets the stop flag, wakes the
/// accept loop, joins every thread and unlinks a Unix socket.
pub struct Server {
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    /// Connection threads not yet reaped; each accept drops finished ones.
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// The resolved bind address (TCP port 0 resolved).
    local: Addr,
    unlink: Option<PathBuf>,
}

impl Server {
    /// Bind `addr` and run `handler` on a thread of its own for every
    /// connection. Server reads time out every 100 ms; the handler should
    /// return once the stop flag it is given is set.
    pub fn serve<H>(addr: &Addr, handler: H) -> io::Result<Server>
    where
        H: Fn(Conn, &AtomicBool) + Send + Sync + 'static,
    {
        let (listener, local, unlink) = match addr {
            Addr::Tcp(a) => {
                let l = TcpListener::bind(a.as_str())?;
                let local = Addr::Tcp(l.local_addr()?.to_string());
                (Listener::Tcp(l), local, None)
            }
            Addr::Unix(p) => {
                // A stale socket file from a dead run would fail the bind.
                let _ = std::fs::remove_file(p);
                (Listener::Unix(UnixListener::bind(p)?), addr.clone(), Some(p.clone()))
            }
        };
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let (stop, conns, handler) = (Arc::clone(&stop), Arc::clone(&conns), Arc::new(handler));
            std::thread::spawn(move || loop {
                let accepted = listener.accept();
                if stop.load(Ordering::Acquire) {
                    return;
                }
                let conn = match accepted {
                    Ok(Some(conn)) => conn,
                    Ok(None) => continue,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return, // the listener died
                };
                let mut conns = conns.lock().expect("no thread panics holding the list");
                conns.retain(|h| !h.is_finished());
                let (stop, handler) = (Arc::clone(&stop), Arc::clone(&handler));
                conns.push(std::thread::spawn(move || handler(conn, &stop)));
            })
        };
        Ok(Server { stop, accept: Some(accept), conns, local, unlink })
    }

    /// The address the listener actually bound (port 0 resolved).
    pub fn local_addr(&self) -> &Addr {
        &self.local
    }

    /// Shut down: stop every connection, join every thread, unlink the
    /// socket.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            // The loop blocks in `accept`; a throwaway connection wakes it
            // to see the flag. If none can be made the thread is left to
            // exit on the next connection rather than hang this call.
            if connect(&self.local, SERVER_READ_TIMEOUT).is_ok() {
                let _ = accept.join();
            }
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for h in conns {
            let _ = h.join();
        }
        if let Some(p) = self.unlink.take() {
            let _ = std::fs::remove_file(&p);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Send one message as a single write of `text` + `'\n'`, so the reader
/// wakes once and Nagle never holds back a trailing newline.
pub fn send_line(writer: &mut dyn Write, mut text: String) -> io::Result<()> {
    text.push('\n');
    writer.write_all(text.as_bytes())
}

/// Read up to and including the next `'\n'` into `line`, which keeps what
/// earlier calls read, but never let `line` grow past `max` bytes.
/// `Ok(true)`: `line` holds a whole line, or the stream's last unterminated
/// bytes. `Ok(false)`: the stream ended with nothing read. A read timeout
/// surfaces as an error for which [`is_timeout`] holds, with the bytes read
/// so far still in `line`; a line longer than `max` is an `InvalidData`
/// error, after which the stream's framing is lost.
pub fn read_line(reader: &mut dyn BufRead, line: &mut Vec<u8>, max: usize) -> io::Result<bool> {
    let room = max.saturating_sub(line.len()) as u64;
    reader.take(room).read_until(b'\n', line)?;
    if line.len() >= max && line.last() != Some(&b'\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line longer than {max} bytes"),
        ));
    }
    Ok(!line.is_empty())
}

/// Whether `e` is a read timeout (`WouldBlock` or `TimedOut`, by platform).
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Check a hello line — JSON, `kind` hello, protocol `proto`, version `v` —
/// and return it for the protocol's own fields. Rejecting a foreign or
/// future stream here is the whole version negotiation.
pub fn check_hello(line: &str, proto: &str, v: u64) -> Result<Value, String> {
    let hello: Value =
        serde_json::from_str(line).map_err(|e| format!("hello is not valid JSON: {e}"))?;
    if hello["kind"].as_str() != Some("hello") {
        return Err(format!("first line is not a hello: {hello}"));
    }
    if hello["proto"].as_str() != Some(proto) {
        return Err(format!("unknown proto {:?}", hello["proto"]));
    }
    let got = hello["v"].as_f64().ok_or("hello: missing v")?;
    if got != v as f64 {
        return Err(format!("protocol version {got} != {v}; refusing stream"));
    }
    Ok(hello)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn read_line_stops_at_the_cap() {
        let big = vec![b'x'; 2 << 20];
        let mut reader = io::Cursor::new(big);
        let mut line = Vec::new();
        let err = read_line(&mut reader, &mut line, MAX_REQUEST_LINE).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(line.len(), MAX_REQUEST_LINE, "the buffer holds the cap, no more");
        assert_eq!(reader.position() as usize, MAX_REQUEST_LINE, "nothing read past it");

        // A line of exactly the cap, newline included, is whole.
        let mut exact = vec![b'y'; MAX_REQUEST_LINE - 1];
        exact.push(b'\n');
        exact.extend_from_slice(b"tail");
        let mut reader = io::Cursor::new(exact);
        let mut line = Vec::new();
        assert!(read_line(&mut reader, &mut line, MAX_REQUEST_LINE).unwrap());
        assert_eq!(line.len(), MAX_REQUEST_LINE);
        line.clear();
        assert!(read_line(&mut reader, &mut line, MAX_REQUEST_LINE).unwrap());
        assert_eq!(line, b"tail", "unterminated last bytes");
        line.clear();
        assert!(!read_line(&mut reader, &mut line, MAX_REQUEST_LINE).unwrap(), "end of stream");
    }

    #[test]
    fn hello_check_names_what_is_wrong() {
        let ok = check_hello(r#"{"v":3,"kind":"hello","proto":"p","x":7}"#, "p", 3).unwrap();
        assert_eq!(ok["x"].as_f64(), Some(7.0));
        let err = |line: &str| check_hello(line, "p", 3).unwrap_err();
        assert!(err("garbage").contains("JSON"));
        assert!(err(r#"{"v":3,"kind":"snapshot","proto":"p"}"#).contains("not a hello"));
        assert!(err(r#"{"v":3,"kind":"hello","proto":"q"}"#).contains("proto"));
        assert!(err(r#"{"v":4,"kind":"hello","proto":"p"}"#).contains("version"));
        assert!(err(r#"{"kind":"hello","proto":"p"}"#).contains("missing v"));
    }

    /// A handler that greets, then waits for the client to hang up.
    fn greeter(mut conn: Conn, stop: &AtomicBool) {
        if send_line(&mut conn.writer, "hi".into()).is_err() {
            return;
        }
        let mut line = Vec::new();
        while !stop.load(Ordering::Acquire) {
            match read_line(&mut conn.reader, &mut line, MAX_REQUEST_LINE) {
                Ok(true) => line.clear(),
                Err(e) if is_timeout(&e) => {}
                _ => return,
            }
        }
    }

    #[test]
    fn finished_connection_threads_are_reaped_and_stop_is_prompt() {
        let server = Server::serve(&Addr::parse("127.0.0.1:0"), greeter).unwrap();
        for _ in 0..200 {
            let mut conn = connect(server.local_addr(), Duration::from_secs(5)).unwrap();
            let mut hello = String::new();
            conn.reader.read_line(&mut hello).unwrap();
            assert_eq!(hello, "hi\n");
        }
        let live = server.conns.lock().unwrap().len();
        assert!(live <= 8, "{live} connection handles still held after 200 cycles");

        // An idle client still connected must not hold up shutdown.
        let _idle = connect(server.local_addr(), Duration::from_secs(5)).unwrap();
        let t = Instant::now();
        server.stop();
        assert!(t.elapsed() < Duration::from_secs(2), "stop took {:?}", t.elapsed());
    }
}
