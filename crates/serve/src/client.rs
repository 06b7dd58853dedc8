//! A small blocking client for the daemon's NDJSON protocol — used by
//! the `graphmine client` subcommand, the CI smoke test, and the
//! integration tests.
//!
//! Updates retry on `backpressure` shedding with jittered exponential
//! backoff ([`RetryPolicy`]); everything else is one request, one reply.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use graphmine_graph::{DbUpdate, DfsCode, Support};
use graphmine_telemetry::JsonValue;

use crate::protocol::{self, AckMode};

/// Backoff schedule for updates shed with `backpressure`.
///
/// Attempt `k` (0-based) sleeps a uniform-jittered interval in
/// `[full/2, full]` where `full = min(cap_ms, base_ms << k)` — the
/// classic "equal jitter" scheme: enough spread that a herd of shed
/// writers does not retry in lockstep, while keeping a floor so the
/// server is not hammered immediately. The jitter source is a seeded
/// SplitMix64, so tests get a deterministic schedule.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total tries (1 = no retries).
    pub attempts: u32,
    /// First backoff interval, milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub cap_ms: u64,
    /// Jitter seed; fixed seed → reproducible schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 6, base_ms: 10, cap_ms: 640, seed: 0x9e3779b97f4a7c15 }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy { attempts: 1, ..RetryPolicy::default() }
    }

    /// The full (pre-jitter) backoff for 0-based attempt `k`.
    fn full_ms(&self, k: u32) -> u64 {
        let shifted = self.base_ms.checked_shl(k).unwrap_or(u64::MAX);
        shifted.min(self.cap_ms)
    }

    /// The jittered sleep before retrying after 0-based attempt `k`,
    /// uniform in `[full/2, full]`.
    pub fn backoff(&self, k: u32) -> Duration {
        let full = self.full_ms(k);
        let half = full / 2;
        let span = full - half + 1;
        Duration::from_millis(half + splitmix64(self.seed.wrapping_add(u64::from(k))) % span)
    }
}

/// `true` for the error kinds a socket timeout surfaces as (platform
/// dependent: `WouldBlock` on Unix, `TimedOut` on Windows).
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// SplitMix64: a tiny stateless PRNG step — plenty for backoff jitter,
/// and dependency-free.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One connection to a serving daemon.
///
/// Every transport error names the peer address and the phase it failed
/// in — `connect to <addr>` vs `send to <addr>` vs `read from <addr>`,
/// with timeouts called out explicitly — so a failure among N shards is
/// attributable from the message alone.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    retry: RetryPolicy,
    addr: String,
    read_timeout: Option<Duration>,
}

impl Client {
    /// Connects to a daemon with no timeouts (blocking reads).
    ///
    /// # Errors
    ///
    /// Fails when the address does not resolve or the connection is
    /// refused; the message names the target address.
    pub fn connect<A: ToSocketAddrs + std::fmt::Debug>(addr: A) -> Result<Client, String> {
        Client::connect_with(addr, None, None)
    }

    /// Connects with an optional connect timeout and an optional read
    /// timeout applied to every reply wait.
    ///
    /// # Errors
    ///
    /// Fails when the address does not resolve, the connection is
    /// refused, or the connect timeout elapses — the message names the
    /// target address and distinguishes a connect timeout from a refusal
    /// (and, later, from a read timeout).
    pub fn connect_with<A: ToSocketAddrs + std::fmt::Debug>(
        addr: A,
        connect_timeout: Option<Duration>,
        read_timeout: Option<Duration>,
    ) -> Result<Client, String> {
        let stream = match connect_timeout {
            None => TcpStream::connect(&addr).map_err(|e| format!("connect to {addr:?}: {e}"))?,
            Some(t) => {
                let addrs = addr
                    .to_socket_addrs()
                    .map_err(|e| format!("connect to {addr:?}: {e}"))?
                    .collect::<Vec<_>>();
                if addrs.is_empty() {
                    return Err(format!("connect to {addr:?}: no addresses resolved"));
                }
                let mut last: Option<std::io::Error> = None;
                let mut connected = None;
                for sa in addrs {
                    match TcpStream::connect_timeout(&sa, t) {
                        Ok(s) => {
                            connected = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match connected {
                    Some(s) => s,
                    None => {
                        let e = last.expect("at least one address was tried");
                        return Err(if is_timeout(&e) {
                            format!("connect to {addr:?}: timed out after {t:?}")
                        } else {
                            format!("connect to {addr:?}: {e}")
                        });
                    }
                }
            }
        };
        let peer =
            stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| format!("{addr:?}"));
        stream
            .set_read_timeout(read_timeout)
            .map_err(|e| format!("connect to {peer}: set read timeout: {e}"))?;
        let read_half = stream.try_clone().map_err(|e| format!("connect to {peer}: {e}"))?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: stream,
            retry: RetryPolicy::default(),
            addr: peer,
            read_timeout,
        })
    }

    /// The peer address requests go to, as reported by the socket.
    pub fn peer(&self) -> &str {
        &self.addr
    }

    /// Replaces the read timeout applied to subsequent reply waits — a
    /// pooled connection can serve short-budget hedged reads and
    /// full-budget writes over its lifetime. No-op when the timeout is
    /// already `t`.
    ///
    /// # Errors
    ///
    /// Surfaces the socket option failure; the message names the peer
    /// and starts with the `connect to` phase (the connection is not in
    /// a usable state for the caller's intended budget).
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> Result<(), String> {
        if self.read_timeout == t {
            return Ok(());
        }
        self.reader
            .get_ref()
            .set_read_timeout(t)
            .map_err(|e| format!("connect to {}: set read timeout: {e}", self.addr))?;
        self.read_timeout = t;
        Ok(())
    }

    /// Replaces the backoff policy updates retry under.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Client {
        self.retry = retry;
        self
    }

    /// Sends one raw request line and returns the parsed response.
    ///
    /// The line and its newline leave in **one** write: written as two
    /// (`writeln!` on an unbuffered socket), the newline is a second small
    /// segment that Nagle's algorithm holds back until the first is
    /// acknowledged, and the peer's delayed ACK makes that ~40 ms on every
    /// request. A request is one line, so a line break inside `line` is
    /// refused before anything is sent: the server would answer it as two
    /// requests and every later reply on this connection would answer the
    /// question before it.
    ///
    /// # Errors
    ///
    /// Fails on a request that spans lines, on I/O errors, an unparsable
    /// response, or a response whose `status` is not `"ok"` (the server's
    /// `error` message is returned).
    pub fn request_line(&mut self, line: &str) -> Result<JsonValue, String> {
        let line = line.trim_end();
        if line.contains(['\n', '\r']) {
            return Err(format!("send to {}: request spans lines", self.addr));
        }
        let wire = format!("{line}\n");
        self.writer
            .write_all(wire.as_bytes())
            .map_err(|e| format!("send to {}: {e}", self.addr))?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).map_err(|e| {
            if is_timeout(&e) {
                match self.read_timeout {
                    Some(t) => format!("read from {}: timed out after {t:?}", self.addr),
                    None => format!("read from {}: timed out", self.addr),
                }
            } else {
                format!("read from {}: {e}", self.addr)
            }
        })?;
        if n == 0 {
            return Err(format!("read from {}: server closed the connection", self.addr));
        }
        let value = JsonValue::parse(reply.trim_end())
            .map_err(|e| format!("read from {}: {e}", self.addr))?;
        match value.field("status").and_then(JsonValue::as_str) {
            Some("ok") => Ok(value),
            Some("error") => Err(value
                .field("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("unspecified server error")
                .to_string()),
            _ => Err(format!("malformed response: {}", value.to_json())),
        }
    }

    /// Sends a request value and returns the parsed response.
    ///
    /// # Errors
    ///
    /// As [`Client::request_line`].
    pub fn request(&mut self, req: &JsonValue) -> Result<JsonValue, String> {
        self.request_line(&req.to_json())
    }

    /// A `status` request.
    ///
    /// # Errors
    ///
    /// As [`Client::request_line`].
    pub fn status(&mut self, report: bool) -> Result<JsonValue, String> {
        self.request_line(&protocol::encode_status(report))
    }

    /// A `patterns` request.
    ///
    /// # Errors
    ///
    /// As [`Client::request_line`].
    pub fn patterns(
        &mut self,
        top: Option<usize>,
        min_support: Option<Support>,
    ) -> Result<JsonValue, String> {
        self.request_line(&protocol::encode_patterns(top.map(|t| t as u64), min_support))
    }

    /// A `support` request for a DFS code.
    ///
    /// # Errors
    ///
    /// As [`Client::request_line`].
    pub fn support(&mut self, code: &DfsCode) -> Result<JsonValue, String> {
        self.request_line(&protocol::encode_support(code))
    }

    /// An `update` request with `ack: applied`; `Ok` means the window is
    /// durable *and* served. Retries `backpressure` shedding under the
    /// client's [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// As [`Client::request_line`]; a window still shed after the last
    /// attempt surfaces the final `backpressure…` message.
    pub fn update(&mut self, ops: &[DbUpdate]) -> Result<JsonValue, String> {
        self.update_acked(ops, AckMode::Applied)
    }

    /// An `update` request with `ack: durable`: the reply arrives at the
    /// fsync barrier, before the window is folded into the served epoch.
    /// Retries `backpressure` like [`Client::update`].
    ///
    /// # Errors
    ///
    /// As [`Client::update`].
    pub fn update_durable(&mut self, ops: &[DbUpdate]) -> Result<JsonValue, String> {
        self.update_acked(ops, AckMode::Durable)
    }

    fn update_acked(&mut self, ops: &[DbUpdate], ack: AckMode) -> Result<JsonValue, String> {
        let retry = self.retry.clone();
        let mut attempt = 0u32;
        loop {
            match self.update_once(ops, ack) {
                Err(e) if e.starts_with("backpressure") && attempt + 1 < retry.attempts => {
                    std::thread::sleep(retry.backoff(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// One `update` attempt, no retries — the raw building block.
    ///
    /// # Errors
    ///
    /// As [`Client::request_line`]; `backpressure` shedding surfaces as
    /// an `Err` whose message starts with `backpressure`.
    pub fn update_once(&mut self, ops: &[DbUpdate], ack: AckMode) -> Result<JsonValue, String> {
        self.request_line(&protocol::encode_update(ops, ack, false))
    }

    /// A `support-batch` request: exact supports of several codes in one
    /// round trip.
    ///
    /// # Errors
    ///
    /// As [`Client::request_line`].
    pub fn support_batch(&mut self, codes: &[DfsCode]) -> Result<JsonValue, String> {
        self.request_line(&protocol::encode_support_batch(codes))
    }

    /// A `shutdown` request.
    ///
    /// # Errors
    ///
    /// As [`Client::request_line`].
    pub fn shutdown(&mut self) -> Result<JsonValue, String> {
        self.request_line(&protocol::encode_shutdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_jittered_within_bounds() {
        let p = RetryPolicy { attempts: 8, base_ms: 10, cap_ms: 160, seed: 42 };
        for k in 0..8 {
            let full = (10u64 << k).min(160);
            let ms = p.backoff(k).as_millis() as u64;
            assert!(
                ms >= full / 2 && ms <= full,
                "attempt {k}: {ms}ms outside [{}, {full}]",
                full / 2
            );
        }
        // The cap actually bites: attempts 4.. all draw from [80, 160].
        assert!(p.backoff(7).as_millis() as u64 <= 160);
    }

    #[test]
    fn backoff_schedule_is_deterministic_for_a_fixed_seed() {
        let a = RetryPolicy { attempts: 5, base_ms: 10, cap_ms: 640, seed: 7 };
        let b = a.clone();
        let sched_a: Vec<_> = (0..5).map(|k| a.backoff(k)).collect();
        let sched_b: Vec<_> = (0..5).map(|k| b.backoff(k)).collect();
        assert_eq!(sched_a, sched_b);
        // A different seed jitters differently somewhere in the schedule.
        let c = RetryPolicy { seed: 8, ..a };
        let sched_c: Vec<_> = (0..5).map(|k| c.backoff(k)).collect();
        assert_ne!(sched_a, sched_c);
    }

    #[test]
    fn shift_overflow_saturates_at_the_cap() {
        let p = RetryPolicy { attempts: 80, base_ms: 10, cap_ms: 500, seed: 1 };
        let ms = p.backoff(70).as_millis() as u64;
        assert!((250..=500).contains(&ms), "{ms}ms outside [250, 500]");
    }

    #[test]
    fn connect_errors_name_the_target_address() {
        // Bind-then-drop reserves a port nobody listens on.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let err = Client::connect(addr.as_str()).unwrap_err();
        assert!(err.contains("connect to"), "missing phase: {err}");
        assert!(err.contains(&addr), "missing address: {err}");
        let err = Client::connect_with(addr.as_str(), Some(Duration::from_millis(200)), None)
            .unwrap_err();
        assert!(err.contains("connect to") && err.contains(&addr), "{err}");
    }

    #[test]
    fn read_timeouts_are_distinguished_from_connect_failures() {
        // A listener that accepts and then goes silent.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut client = Client::connect_with(
            addr.as_str(),
            Some(Duration::from_secs(5)),
            Some(Duration::from_millis(50)),
        )
        .unwrap();
        let err = client.status(false).unwrap_err();
        assert!(err.contains("read from"), "missing phase: {err}");
        assert!(err.contains(&addr), "missing address: {err}");
        assert!(err.contains("timed out after"), "missing timeout marker: {err}");
        drop(hold.join().unwrap());
    }

    /// The request leaves in one segment: a peer that reads once, 5 ms
    /// after the previous reply, sees the whole line *with* its newline.
    /// Written as two (`writeln!` on the bare socket) the newline is a
    /// second small segment, which Nagle holds until the first is
    /// acknowledged — and once the connection has settled into
    /// request/reply the peer delays that ACK ~40 ms. A fresh connection
    /// ACKs at once, hence the rounds.
    #[test]
    fn a_request_is_one_write() {
        const ROUNDS: usize = 8;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            for _ in 0..ROUNDS {
                std::thread::sleep(Duration::from_millis(5));
                let mut buf = [0u8; 256];
                let n = std::io::Read::read(&mut conn, &mut buf).unwrap();
                seen.push(String::from_utf8_lossy(&buf[..n]).into_owned());
                // Whatever was held back arrives before the reply leaves.
                while !seen.last().unwrap().ends_with('\n') {
                    let n = std::io::Read::read(&mut conn, &mut buf).unwrap();
                    seen.push(String::from_utf8_lossy(&buf[..n]).into_owned());
                }
                conn.write_all(b"{\"status\":\"ok\"}\n").unwrap();
            }
            seen
        });
        let mut client = Client::connect(addr.as_str()).unwrap();
        for _ in 0..ROUNDS {
            client.status(false).unwrap();
        }
        let line = format!("{}\n", protocol::encode_status(false));
        assert_eq!(peer.join().unwrap(), vec![line; ROUNDS]);
    }
}
