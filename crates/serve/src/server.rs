//! The Unix-domain-socket front door.
//!
//! One accept loop, one reader thread per connection, all sharing one
//! [`QueryService`]. Each connection gets its own [`Interrupt`] token:
//! EOF or a read error (the client vanished) triggers it, so evaluation
//! already in flight for that client stops at its next gauge poll
//! instead of burning the pool. Graceful drain — a `{"op":"shutdown"}`
//! from any client, or [`Server::shutdown`] — triggers **every**
//! connection's token, stops accepting, and joins the connection
//! threads; in-flight requests terminate typed (`partial` with resource
//! `interrupt`) rather than being killed.
//!
//! The protocol is strictly line-delimited: requests are answered in
//! order on each connection, and a malformed line gets an `error`
//! response rather than a hangup, so one client bug cannot poison a
//! session. A line longer than [`MAX_LINE_BYTES`] is the one exception:
//! it gets `{"status":"too_large","max_line_bytes":…}` and the
//! connection closes, since the rest of the line cannot be parsed.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hp_guard::Interrupt;

use crate::json::ObjWriter;
use crate::protocol::{parse_request, Request, Response};
use crate::service::QueryService;

/// How long the accept loop backs off after a failed `accept` (for
/// example `EMFILE` while every descriptor is in use) before retrying.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// The longest request line read, newline excluded (1 MiB): a longer one
/// is answered `too_large` instead of being buffered whole.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The shared drain switch: one flag, every open connection's interrupt
/// and stream by connection id, and the socket path (to self-connect and
/// unblock the accept loop).
struct DrainSwitch {
    path: PathBuf,
    draining: AtomicBool,
    next_id: AtomicU64,
    conns: Mutex<HashMap<u64, (Interrupt, UnixStream)>>,
}

impl DrainSwitch {
    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Flip to draining: cancel every connection's in-flight work,
    /// shut their sockets down (unblocking reader threads parked in
    /// blocking reads), and nudge the accept loop awake so it can
    /// observe the flag.
    fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        for (token, stream) in self
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            token.trigger();
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let _ = UnixStream::connect(&self.path);
    }

    /// Track a new connection until [`unregister`](Self::unregister);
    /// returns its id and interrupt.
    fn register(&self, stream: &UnixStream) -> (u64, Interrupt) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let token = Interrupt::new();
        if let Ok(clone) = stream.try_clone() {
            self.conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(id, (token.clone(), clone));
        }
        (id, token)
    }

    /// Forget a finished connection, closing the stream clone kept for
    /// drain.
    fn unregister(&self, id: u64) {
        self.conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id);
    }
}

/// A running server: owns the accept thread and the drain switch.
pub struct Server {
    switch: Arc<DrainSwitch>,
    service: Arc<QueryService>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `path` and start accepting. An existing file at the path is
    /// removed first (the conventional Unix-socket dance).
    pub fn bind(path: &Path, service: Arc<QueryService>) -> std::io::Result<Server> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let switch = Arc::new(DrainSwitch {
            path: path.to_path_buf(),
            draining: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
        });

        let accept_thread = {
            let service = service.clone();
            let switch = switch.clone();
            std::thread::spawn(move || {
                let mut conn_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    if switch.is_draining() {
                        break;
                    }
                    let stream = match stream {
                        Ok(stream) => stream,
                        Err(_) => {
                            // Out of descriptors or a connection reset
                            // before accept: transient, so keep serving.
                            std::thread::sleep(ACCEPT_BACKOFF);
                            continue;
                        }
                    };
                    let (done, live) = conn_threads.into_iter().partition(|t| t.is_finished());
                    conn_threads = live;
                    for t in done {
                        let _ = t.join();
                    }
                    let (id, token) = switch.register(&stream);
                    let service = service.clone();
                    let switch = switch.clone();
                    conn_threads.push(std::thread::spawn(move || {
                        serve_connection(stream, &service, &token, &switch);
                        switch.unregister(id);
                    }));
                }
                for t in conn_threads {
                    let _ = t.join();
                }
            })
        };

        Ok(Server {
            switch,
            service,
            accept_thread: Some(accept_thread),
        })
    }

    /// The service behind this server.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Block until the server drains — either a client sends
    /// `{"op":"shutdown"}` or another thread calls [`Server::shutdown`].
    /// Consumes the server; the socket file is removed on return.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.switch.path);
    }

    /// Begin graceful drain and wait for all connections to finish.
    pub fn shutdown(self) {
        self.switch.drain();
        self.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            self.switch.drain();
            let _ = t.join();
            let _ = std::fs::remove_file(&self.switch.path);
        }
    }
}

/// Serve one connection until EOF, error, drain, or a shutdown request.
fn serve_connection(
    stream: UnixStream,
    service: &QueryService,
    token: &Interrupt,
    switch: &DrainSwitch,
) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => {
                // Read error: the client is gone. Cancel its in-flight work.
                token.trigger();
                return;
            }
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_LINE_BYTES {
            let too_large = ObjWriter::new(48)
                .str("status", "too_large")
                .num("max_line_bytes", MAX_LINE_BYTES as u64)
                .finish();
            let _ = writeln!(writer, "{too_large}");
            let _ = writer.flush();
            token.trigger();
            return;
        }
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            // Not UTF-8, so not a request line: drop the client as on a
            // read error.
            token.trigger();
            return;
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = if switch.is_draining() {
            Response::Error {
                message: "service is draining".to_string(),
            }
        } else {
            match parse_request(line) {
                Ok(req) => {
                    let resp = service.handle(&req, token);
                    if matches!(req, Request::Shutdown) {
                        // Acknowledge, then drain everyone.
                        let _ = writeln!(writer, "{}", resp.render());
                        let _ = writer.flush();
                        switch.drain();
                        return;
                    }
                    resp
                }
                Err(e) => Response::Error { message: e },
            }
        };
        if writeln!(writer, "{}", response.render()).is_err() || writer.flush().is_err() {
            token.trigger();
            return;
        }
    }
    // EOF: connection dropped; cancel any in-flight work for it.
    token.trigger();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use hp_structures::{Elem, Structure, Vocabulary};

    fn seed() -> Structure {
        let mut s = Structure::new(Vocabulary::digraph(), 4);
        let e = s.vocab().lookup("E").unwrap();
        s.add_tuple(e, &[Elem(0), Elem(1)]).unwrap();
        s.add_tuple(e, &[Elem(1), Elem(2)]).unwrap();
        s
    }

    fn sock_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hp-serve-test-{tag}-{}.sock", std::process::id()))
    }

    fn roundtrip(stream: &mut UnixStream, line: &str) -> String {
        let mut w = stream.try_clone().unwrap();
        writeln!(w, "{line}").unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut out = String::new();
        r.read_line(&mut out).unwrap();
        out.trim_end().to_string()
    }

    #[test]
    fn socket_roundtrip_query_update_stats_shutdown() {
        let path = sock_path("roundtrip");
        let svc = Arc::new(QueryService::new(seed(), ServiceConfig::default()));
        let server = Server::bind(&path, svc).unwrap();

        let mut c = UnixStream::connect(&path).unwrap();
        let a = roundtrip(
            &mut c,
            "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}",
        );
        assert!(a.contains("\"status\":\"ok\""), "{a}");
        assert!(a.contains("\"cache\":\"miss\""), "{a}");

        let u = roundtrip(&mut c, "{\"op\":\"update\",\"insert\":{\"E\":[[2,3]]}}");
        assert!(u.contains("\"epoch\":1"), "{u}");

        let s = roundtrip(&mut c, "{\"op\":\"stats\"}");
        assert!(s.contains("\"admitted\":1"), "{s}");

        let garbage = roundtrip(&mut c, "not json at all");
        assert!(garbage.contains("\"status\":\"error\""), "{garbage}");

        // The connection survives the bad line.
        let again = roundtrip(
            &mut c,
            "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}",
        );
        assert!(again.contains("\"epoch\":1"), "{again}");

        let bye = roundtrip(&mut c, "{\"op\":\"shutdown\"}");
        assert!(bye.contains("\"status\":\"bye\""), "{bye}");
        server.wait();
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn finished_connections_release_their_streams() {
        let path = sock_path("churn");
        let svc = Arc::new(QueryService::new(seed(), ServiceConfig::default()));
        let server = Server::bind(&path, svc).unwrap();
        for _ in 0..2_000 {
            let mut c = UnixStream::connect(&path).unwrap();
            assert!(roundtrip(&mut c, "{\"op\":\"stats\"}").contains("\"status\":\"ok\""));
        }
        // One connection stays open; each closed one unregisters when its
        // reader sees EOF, which may lag the client's drop a little.
        let mut open = UnixStream::connect(&path).unwrap();
        assert!(roundtrip(&mut open, "{\"op\":\"stats\"}").contains("\"status\":\"ok\""));
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let open_count = || server.switch.conns.lock().unwrap().len();
        while open_count() > 1 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(open_count(), 1, "only the open connection is tracked");
        server.shutdown();
    }

    #[test]
    fn oversized_line_is_answered_too_large_and_closed() {
        let path = sock_path("too-large");
        let svc = Arc::new(QueryService::new(seed(), ServiceConfig::default()));
        let server = Server::bind(&path, svc).unwrap();

        // A line of exactly the limit is read and parsed (it is not JSON).
        let mut c = UnixStream::connect(&path).unwrap();
        let at_limit = "x".repeat(MAX_LINE_BYTES);
        assert!(roundtrip(&mut c, &at_limit).contains("\"status\":\"error\""));

        // One byte more is refused, typed, and the connection closes. The
        // server may close before the tail of the line is sent.
        let c = UnixStream::connect(&path).unwrap();
        let _ = writeln!(c.try_clone().unwrap(), "{}x", at_limit);
        let mut r = BufReader::new(c);
        let mut reply = String::new();
        r.read_line(&mut reply).unwrap();
        assert_eq!(
            reply.trim_end(),
            format!("{{\"status\":\"too_large\",\"max_line_bytes\":{MAX_LINE_BYTES}}}")
        );
        // Closed: EOF, or a reset when the unread tail was still queued.
        let tail = r.read_line(&mut reply);
        assert!(!matches!(tail, Ok(n) if n > 0), "{tail:?}");

        // The server keeps serving other connections.
        let mut c2 = UnixStream::connect(&path).unwrap();
        assert!(roundtrip(&mut c2, "{\"op\":\"stats\"}").contains("\"status\":\"ok\""));
        server.shutdown();
    }

    #[test]
    fn dropped_connection_does_not_wedge_the_server() {
        let path = sock_path("drop");
        let svc = Arc::new(QueryService::new(seed(), ServiceConfig::default()));
        let server = Server::bind(&path, svc).unwrap();

        {
            let c = UnixStream::connect(&path).unwrap();
            let mut w = c.try_clone().unwrap();
            writeln!(
                w,
                "{{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}}"
            )
            .unwrap();
            w.flush().unwrap();
            drop(c); // vanish without reading the response
        }

        // A fresh connection still works.
        let mut c2 = UnixStream::connect(&path).unwrap();
        let a = roundtrip(
            &mut c2,
            "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}",
        );
        assert!(a.contains("\"status\":\"ok\""), "{a}");
        server.shutdown();
    }
}
