//! The NDJSON TCP endpoint — the only one in the repository: an accept
//! thread, a bounded connection queue, and a fixed worker pool, generic
//! over the [`Handler`] that answers the parsed requests. The daemon
//! serves a [`ServeEngine`] through it, the router a `Router`.
//!
//! Load shedding is explicit: when the queue is full the accept thread
//! immediately writes an `overloaded` error on the new connection and
//! closes it rather than letting requests pile up unboundedly. A worker
//! serves a connection until the client closes it, handling any number
//! of newline-delimited requests of at most [`MAX_REQUEST_LINE`] bytes;
//! when the connection falls idle while others are queued it goes to the
//! back of the queue, so persistent clients beyond the pool size are
//! served late rather than never.
//!
//! Shutdown has two flavors. A client `shutdown` request (or
//! [`ServerHandle::wait`] returning) stops the threads and runs
//! [`Handler::clean_stop`] — for the engine: drain, snapshot, truncate
//! the journal (no pattern file: the next boot mines the snapshot).
//! [`ServerHandle::abort`] stops the threads
//! *without* the clean stop, leaving the data directory exactly as a
//! `kill -9` would; tests use it to exercise journal recovery.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use graphmine_telemetry::{Counter, Counters, JsonValue};

use crate::client::is_timeout;
use crate::engine::ServeEngine;
use crate::protocol::{self, Request};

/// How long a worker blocks on an idle connection before re-checking the
/// shutdown flag and the queue.
const READ_POLL: Duration = Duration::from_millis(100);

/// Longest request line accepted, newline excluded. A longer line is
/// answered with an error and the connection is closed, so a peer that
/// never sends a newline cannot grow a worker's buffer without bound.
/// Sized from the longest line the fleet sends itself, the router's
/// phase-2 `support-batch` (95,510 bytes measured), with the headroom
/// docs/SERVICE.md works out.
pub const MAX_REQUEST_LINE: usize = 4 << 20;

/// What the server loop needs from the thing it serves.
pub trait Handler: Send + Sync + 'static {
    /// Answers one parsed request. `shutdown` gets its acknowledgement
    /// here; stopping the threads is the loop's business.
    fn handle(&self, req: &Request) -> JsonValue;

    /// Where the loop counts `req_errors` and `req_overloaded`.
    fn counters(&self) -> &Counters;

    /// Runs when [`ServerHandle::wait`] returns after a client `shutdown`.
    ///
    /// # Errors
    ///
    /// Whatever keeps the handler's state from being left clean.
    fn clean_stop(&self) -> Result<(), String> {
        Ok(())
    }
}

impl Handler for ServeEngine {
    fn handle(&self, req: &Request) -> JsonValue {
        ServeEngine::handle(self, req)
    }

    fn counters(&self) -> &Counters {
        self.telemetry().counters()
    }

    fn clean_stop(&self) -> Result<(), String> {
        ServeEngine::clean_stop(self)
    }
}

/// Socket-side configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Accepted connections waiting for a worker before shedding starts.
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 4, queue_depth: 64 }
    }
}

/// The bounded hand-off between the accept thread and the workers.
struct ConnQueue {
    conns: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    depth: usize,
}

impl ConnQueue {
    fn new(depth: usize) -> Self {
        ConnQueue { conns: Mutex::new(VecDeque::new()), ready: Condvar::new(), depth }
    }

    /// Queues a connection, or hands it back when the queue is full.
    fn try_push(&self, conn: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.conns.lock().expect("queue poisoned");
        if q.len() >= self.depth {
            return Err(conn);
        }
        q.push_back(conn);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once shutdown is flagged.
    fn pop(&self, shutdown: &AtomicBool) -> Option<TcpStream> {
        let mut q = self.conns.lock().expect("queue poisoned");
        loop {
            if shutdown.load(Ordering::Relaxed) {
                return None;
            }
            if let Some(conn) = q.pop_front() {
                return Some(conn);
            }
            q = self.ready.wait(q).expect("queue poisoned");
        }
    }

    /// Trades an idle connection for the longest-waiting one, in place;
    /// `false` when nothing waits. One lock, so the depth never changes.
    fn rotate(&self, conn: &mut TcpStream) -> bool {
        let mut q = self.conns.lock().expect("queue poisoned");
        let Some(next) = q.pop_front() else { return false };
        q.push_back(std::mem::replace(conn, next));
        true
    }

    fn wake_all(&self) {
        self.ready.notify_all();
    }
}

/// Everything a worker needs, shared across threads.
struct Shared<H> {
    handler: Arc<H>,
    queue: ConnQueue,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl<H> Shared<H> {
    /// Flags shutdown and wakes every blocked thread: workers via the
    /// queue's condvar, the accept thread via a throwaway connection to
    /// its own listener (blocking `accept` has no other wake-up).
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue.wake_all();
        if let Ok(conn) = TcpStream::connect(self.addr) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// A running server; dropping it stops the threads (without a clean
/// stop — call [`ServerHandle::wait`] for that).
pub struct ServerHandle<H: Handler = ServeEngine> {
    shared: Arc<Shared<H>>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Binds and starts serving `handler` (the daemon passes its booted
/// engine).
///
/// # Errors
///
/// Fails when the address cannot be bound.
pub fn start<H: Handler>(handler: Arc<H>, cfg: &ServerConfig) -> Result<ServerHandle<H>, String> {
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let shared = Arc::new(Shared {
        handler,
        queue: ConnQueue::new(cfg.queue_depth.max(1)),
        shutdown: AtomicBool::new(false),
        addr,
    });

    let workers = (0..cfg.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| format!("spawn worker: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &shared))
            .map_err(|e| format!("spawn accept: {e}"))?
    };

    Ok(ServerHandle { shared, accept: Some(accept), workers })
}

impl ServerHandle {
    /// The engine behind the server.
    pub fn engine(&self) -> &Arc<ServeEngine> {
        self.handler()
    }
}

impl<H: Handler> ServerHandle<H> {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The handler behind the server.
    pub fn handler(&self) -> &Arc<H> {
        &self.shared.handler
    }

    /// Blocks until a client requests shutdown, then stops the threads
    /// and runs [`Handler::clean_stop`].
    ///
    /// # Errors
    ///
    /// Propagates clean-stop I/O failures.
    pub fn wait(mut self) -> Result<(), String> {
        self.join_threads();
        self.shared.handler.clean_stop()
    }

    /// Stops the threads *without* the clean stop: the data directory is
    /// left as an abrupt process death would leave it — snapshot stale,
    /// journal carrying every acknowledged batch. The next
    /// [`ServeEngine::boot`] must recover through the journal.
    pub fn abort(mut self) {
        self.shared.begin_shutdown();
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Accept exiting means shutdown was flagged; workers drain out.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<H: Handler> Drop for ServerHandle<H> {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.workers.is_empty() {
            self.shared.begin_shutdown();
            self.join_threads();
        }
    }
}

fn accept_loop<H: Handler>(listener: &TcpListener, shared: &Shared<H>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let Ok(conn) = conn else { continue };
        if let Err(mut conn) = shared.queue.try_push(conn) {
            // Shed: tell the client explicitly instead of timing out.
            shared.handler.counters().bump(Counter::ReqOverloaded);
            let _ = reply(&mut conn, &protocol::error_response("overloaded"));
            let _ = conn.shutdown(Shutdown::Write);
        }
    }
    shared.queue.wake_all();
}

fn worker_loop<H: Handler>(shared: &Shared<H>) {
    while let Some(mut conn) = shared.queue.pop(&shared.shutdown) {
        while let Some(next) = serve_conn(conn, shared) {
            conn = next;
        }
    }
}

/// Serves one connection until EOF, error, or shutdown — or until it
/// sits idle while another waits in the queue: then the two trade
/// places and the waiting one is returned to be served next. The read
/// timeout keeps an idle client from pinning the worker across either;
/// partially read lines survive timeouts because the buffer is only
/// cleared after a full line is handled.
fn serve_conn<H: Handler>(conn: TcpStream, shared: &Shared<H>) -> Option<TcpStream> {
    let _ = conn.set_read_timeout(Some(READ_POLL));
    let mut reader = BufReader::new(conn.try_clone().ok()?);
    let mut writer = conn;
    let mut line = Vec::new();
    while !shared.shutdown.load(Ordering::Relaxed) {
        // Never buffer more than the cap plus the newline that ends it.
        let room = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(0) => return None,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                // Nothing read and nothing buffered: the socket is the
                // whole state of the connection, so it can wait in the queue.
                if line.is_empty() && shared.queue.rotate(&mut writer) {
                    return Some(writer);
                }
                continue;
            }
            Err(_) => return None,
        }
        if line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
            shared.handler.counters().bump(Counter::ReqErrors);
            let msg = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
            let _ = reply(&mut writer, &protocol::error_response(&msg));
            // Closing over unread bytes resets the connection and can
            // take the reply with it: half-close, then discard what the
            // peer still sends, up to another cap's worth or a quiet poll.
            let _ = writer.shutdown(Shutdown::Write);
            let _ = std::io::copy(&mut reader.take(MAX_REQUEST_LINE as u64), &mut std::io::sink());
            return None;
        }
        // Bytes that are not UTF-8 parse as bad JSON and get that error.
        let text = String::from_utf8_lossy(&line);
        if !text.trim().is_empty() && respond(&text, &mut writer, shared) {
            return None;
        }
        line.clear();
    }
    None
}

/// Handles one request line; returns `true` when the connection (and on
/// `shutdown`, the server) should stop.
fn respond<H: Handler>(line: &str, writer: &mut TcpStream, shared: &Shared<H>) -> bool {
    let (response, stop) = match protocol::parse_request(line) {
        Ok(req) => (shared.handler.handle(&req), matches!(req, Request::Shutdown)),
        Err(e) => {
            shared.handler.counters().bump(Counter::ReqErrors);
            (protocol::error_response(&e), false)
        }
    };
    let sent = reply(writer, &response);
    if stop {
        // Only begin the shutdown after the acknowledgement is on the
        // wire so the requesting client sees its response.
        shared.begin_shutdown();
        return true;
    }
    sent.is_err()
}

/// Writes one response line.
fn reply(writer: &mut TcpStream, response: &JsonValue) -> std::io::Result<()> {
    writeln!(writer, "{}", response.to_json()).and_then(|()| writer.flush())
}
