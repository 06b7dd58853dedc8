//! Per-shard connection state: lazy pooled [`Client`]s to each replica,
//! sequential hedged reads, all-replica writes, and dead-shard marking
//! with probe-based re-admission.
//!
//! Reads walk the replica list: every replica but the last is given the
//! short `hedge_after` read budget, so a slow primary is abandoned and
//! the request *hedges* to the next replica ([`Counter::HedgedReads`]);
//! the last replica gets the full `read_timeout`. The budget is set per
//! request, not per connection: writes and 2PC verbs on the same pooled
//! connection always run under the full `read_timeout` (a durable
//! prepare blocks on the fsync group commit; an epoch-commit blocks
//! until the window is applied) and are only ever resent after faults
//! that provably precede admission (connect/send). Transport failures
//! (connect refused, broken pipe, desynced stream) drop the pooled
//! connection and fail over the same way ([`Counter::ShardRetries`]).
//! Only when every replica has failed is the shard marked **dead** —
//! the router then answers degraded (`"partial":1`) without it until a
//! `status` probe succeeds again.
//!
//! Server-reported errors (a `{"status":"error",...}` reply) are *not*
//! failover events: the replica is healthy and answered; the error goes
//! back to the caller untouched.

use std::time::Duration;

use graphmine_serve::{Client, RetryPolicy};
use graphmine_telemetry::{Counter, Counters, JsonValue};

/// Socket-side knobs for the router's shard connections.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-replica connect budget.
    pub connect_timeout: Duration,
    /// Reply budget on the *last* replica tried.
    pub read_timeout: Duration,
    /// Latency threshold after which a read abandons a non-final replica
    /// and hedges to the next one.
    pub hedge_after: Duration,
    /// Backoff policy for `backpressure`-shed writes, applied per replica.
    pub retry: RetryPolicy,
    /// Byte budget for the epoch-keyed result cache; `0` disables it.
    pub cache_budget: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(30),
            hedge_after: Duration::from_millis(250),
            retry: RetryPolicy::default(),
            cache_budget: crate::cache::DEFAULT_CACHE_BUDGET,
        }
    }
}

/// `true` for the transport-phase errors [`Client`] produces (as opposed
/// to a server-sent `error` reply, which arrives on a healthy
/// connection). The client crate's error grammar is pinned by its own
/// tests: every transport message starts with the failing phase.
fn is_transport(err: &str) -> bool {
    err.starts_with("connect to ")
        || err.starts_with("send to ")
        || err.starts_with("read from ")
        || err.starts_with("malformed response")
}

/// `true` for transport errors that provably happen *before* the server
/// could have admitted the request: connect and send failures. A read
/// error — timeout, reset, closed connection, garbled reply — arrives
/// after the request line was flushed, so the replica may already have
/// admitted and journaled it; resending a non-idempotent write after one
/// of those would duplicate the window.
fn is_pre_admission(err: &str) -> bool {
    err.starts_with("connect to ") || err.starts_with("send to ")
}

/// One shard's replicas and their pooled connections.
pub(crate) struct ShardState {
    /// Replica addresses, primary first.
    pub addrs: Vec<String>,
    /// Lazily established connection per replica.
    clients: Vec<Option<Client>>,
    /// Set when every replica failed; cleared by [`ShardState::probe`].
    pub dead: bool,
    /// Per-replica journal seq of the last committed epoch window — what
    /// re-admission must republish so a restarted replica is forced to
    /// catch up (or reject with "unknown seq") before serving again.
    /// Zero until the first commit touches this shard.
    pub committed_seqs: Vec<u64>,
}

impl ShardState {
    pub fn new(addrs: Vec<String>) -> ShardState {
        let clients = addrs.iter().map(|_| None).collect();
        let committed_seqs = vec![0; addrs.len()];
        ShardState { addrs, clients, dead: false, committed_seqs }
    }

    /// The **read-path** budget replica `r` gets: short for replicas
    /// that still have a fallback behind them, full for the last one.
    /// Writes and 2PC verbs always get the full `read_timeout` — a
    /// durable prepare blocks on the fsync group commit and an
    /// epoch-commit blocks until the window is applied, so the hedge
    /// threshold would time them out near-deterministically.
    fn read_budget(&self, r: usize, cfg: &RouterConfig) -> Duration {
        if r + 1 < self.addrs.len() {
            cfg.hedge_after
        } else {
            cfg.read_timeout
        }
    }

    /// The pooled connection to replica `r`, connecting if needed. The
    /// connection carries no request-specific state: every request sets
    /// its own read budget via [`ShardState::request_with_budget`].
    fn client(&mut self, r: usize, cfg: &RouterConfig) -> Result<&mut Client, String> {
        if self.clients[r].is_none() {
            let c = Client::connect_with(
                self.addrs[r].as_str(),
                Some(cfg.connect_timeout),
                Some(cfg.read_timeout),
            )?
            .with_retry(cfg.retry.clone());
            self.clients[r] = Some(c);
        }
        Ok(self.clients[r].as_mut().expect("just connected"))
    }

    /// One request to replica `r` under the given reply budget. The
    /// budget is (re)applied per request because the pooled connection
    /// is shared between hedged reads and full-budget writes.
    fn request_with_budget(
        &mut self,
        r: usize,
        line: &str,
        budget: Duration,
        cfg: &RouterConfig,
    ) -> Result<JsonValue, String> {
        let c = self.client(r, cfg)?;
        c.set_read_timeout(Some(budget))?;
        c.request_line(line)
    }

    /// One read-path request with hedging and failover down the replica
    /// list; marks the shard dead when every replica fails.
    ///
    /// # Errors
    ///
    /// A server-sent error from the first replica that answered, or the
    /// last transport error once the shard is exhausted (and now dead).
    pub fn read_request(
        &mut self,
        line: &str,
        cfg: &RouterConfig,
        counters: &Counters,
    ) -> Result<JsonValue, String> {
        let mut last_err = String::new();
        for r in 0..self.addrs.len() {
            let attempt = self.request_with_budget(r, line, self.read_budget(r, cfg), cfg);
            match attempt {
                Ok(reply) => {
                    self.dead = false;
                    return Ok(reply);
                }
                Err(e) if is_transport(&e) => {
                    // The stream may hold a late reply now — never reuse it.
                    self.clients[r] = None;
                    if e.contains("timed out") && r + 1 < self.addrs.len() {
                        counters.bump(Counter::HedgedReads);
                    } else {
                        counters.bump(Counter::ShardRetries);
                    }
                    last_err = e;
                }
                Err(server_error) => {
                    self.dead = false;
                    return Err(server_error);
                }
            }
        }
        self.dead = true;
        Err(last_err)
    }

    /// One write-path request that must succeed on **every** replica
    /// (the all-replicas-durable rule), under the full `read_timeout`
    /// budget. Each replica gets one reconnect retry, but **only** for
    /// pre-admission faults (connect/send): once the line was flushed,
    /// the replica may have journaled it, and resending a durable
    /// window would re-validate a duplicate against the new tail —
    /// silent cross-shard divergence for non-idempotent ops. Those
    /// indeterminate faults abort with a distinct `indeterminate:`
    /// error instead.
    ///
    /// # Errors
    ///
    /// Names the replica that failed and says whether the fault was
    /// definitive (the window is nowhere) or indeterminate (it may be
    /// durable on that replica). Does not mark the shard dead: the
    /// surviving replicas still serve reads.
    pub fn write_all_replicas(
        &mut self,
        line: &str,
        cfg: &RouterConfig,
        counters: &Counters,
    ) -> Result<Vec<JsonValue>, String> {
        let mut replies = Vec::with_capacity(self.addrs.len());
        for r in 0..self.addrs.len() {
            let mut attempt = self.request_with_budget(r, line, cfg.read_timeout, cfg);
            if matches!(&attempt, Err(e) if is_pre_admission(e)) {
                self.clients[r] = None;
                counters.bump(Counter::ShardRetries);
                attempt = self.request_with_budget(r, line, cfg.read_timeout, cfg);
            }
            match attempt {
                Ok(reply) => replies.push(reply),
                Err(e) => {
                    if is_transport(&e) {
                        self.clients[r] = None;
                        if !is_pre_admission(&e) {
                            return Err(format!(
                                "replica {}: indeterminate: {e} (the window may be durable \
                                 there; not resent)",
                                self.addrs[r]
                            ));
                        }
                    }
                    return Err(format!("replica {}: {e}", self.addrs[r]));
                }
            }
        }
        Ok(replies)
    }

    /// One request pinned to replica `r` (2PC commit sends a different
    /// `seq` to each replica), under the full `read_timeout` budget,
    /// with a single reconnect retry on pre-admission (connect/send)
    /// faults only — the same no-resend-after-flush rule as
    /// [`ShardState::write_all_replicas`]. `epoch-commit` itself is
    /// idempotent, but a post-send fault still means the commit may be
    /// in flight on a connection we are abandoning, so the caller
    /// handles it via the straggler path rather than a blind resend.
    ///
    /// # Errors
    ///
    /// Names the replica on transport failure; server errors pass through.
    pub fn request_replica(
        &mut self,
        r: usize,
        line: &str,
        cfg: &RouterConfig,
        counters: &Counters,
    ) -> Result<JsonValue, String> {
        let mut attempt = self.request_with_budget(r, line, cfg.read_timeout, cfg);
        if matches!(&attempt, Err(e) if is_pre_admission(e)) {
            self.clients[r] = None;
            counters.bump(Counter::ShardRetries);
            attempt = self.request_with_budget(r, line, cfg.read_timeout, cfg);
        }
        attempt.map_err(|e| {
            if is_transport(&e) {
                self.clients[r] = None;
                format!("replica {}: {e}", self.addrs[r])
            } else {
                e
            }
        })
    }

    /// Probes a dead shard with a cheap `status` on fresh connections;
    /// on success the shard is re-admitted. Success drops **every**
    /// pooled connection, not just the probed replica's: the shard died
    /// with requests in flight, so surviving pooled streams may hold
    /// late buffered replies that would answer the wrong request after
    /// re-admission. Each replica reconnects lazily on first use.
    pub fn probe(&mut self, cfg: &RouterConfig) -> bool {
        for r in 0..self.addrs.len() {
            self.clients[r] = None;
            if let Ok(mut c) = Client::connect_with(
                self.addrs[r].as_str(),
                Some(cfg.connect_timeout),
                Some(self.read_budget(r, cfg)),
            ) {
                if c.status(false).is_ok() {
                    for cl in self.clients.iter_mut() {
                        *cl = None;
                    }
                    self.clients[r] = Some(c.with_retry(cfg.retry.clone()));
                    self.dead = false;
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    fn counters() -> Counters {
        Counters::default()
    }

    /// A replica that answers every request with a canned reply.
    fn echo_replica(reply: &'static str) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            // One connection is enough for these tests.
            if let Ok((conn, _)) = listener.accept() {
                let mut w = conn.try_clone().unwrap();
                let mut r = BufReader::new(conn);
                let mut line = String::new();
                while r.read_line(&mut line).unwrap_or(0) > 0 {
                    writeln!(w, "{reply}").unwrap();
                    line.clear();
                }
            }
        });
        (addr, h)
    }

    fn quick_cfg() -> RouterConfig {
        RouterConfig {
            connect_timeout: Duration::from_millis(300),
            read_timeout: Duration::from_millis(500),
            hedge_after: Duration::from_millis(60),
            retry: RetryPolicy::none(),
            ..RouterConfig::default()
        }
    }

    #[test]
    fn failover_skips_a_refused_replica_and_counts_the_retry() {
        // Replica 0: nobody listening. Replica 1: answers.
        let dead_port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let (live, h) = echo_replica(r#"{"status":"ok","support":7}"#);
        let mut st = ShardState::new(vec![format!("127.0.0.1:{dead_port}"), live]);
        let c = counters();
        let reply = st.read_request(r#"{"cmd":"status"}"#, &quick_cfg(), &c).unwrap();
        assert_eq!(reply.field("support").and_then(JsonValue::as_num), Some(7));
        assert!(!st.dead);
        assert!(c.get(Counter::ShardRetries) >= 1);
        drop(st);
        h.join().unwrap();
    }

    #[test]
    fn slow_primary_hedges_to_the_second_replica() {
        // Replica 0 accepts but never answers; replica 1 answers.
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        let silent_addr = silent.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || silent.accept().map(|(s, _)| s));
        let (live, h) = echo_replica(r#"{"status":"ok","epoch":3}"#);
        let mut st = ShardState::new(vec![silent_addr, live]);
        let c = counters();
        let reply = st.read_request(r#"{"cmd":"status"}"#, &quick_cfg(), &c).unwrap();
        assert_eq!(reply.field("epoch").and_then(JsonValue::as_num), Some(3));
        assert_eq!(c.get(Counter::HedgedReads), 1);
        drop(hold.join().unwrap());
        drop(st);
        h.join().unwrap();
    }

    #[test]
    fn exhausted_replicas_mark_the_shard_dead_and_probe_readmits() {
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let mut st = ShardState::new(vec![addr.clone()]);
        let c = counters();
        let err = st.read_request(r#"{"cmd":"status"}"#, &quick_cfg(), &c).unwrap_err();
        assert!(st.dead, "all replicas down must mark the shard dead");
        assert!(err.contains(&addr));
        assert!(!st.probe(&quick_cfg()), "probe must fail while the port is closed");
        // Bring a server up on the very same port: probe re-admits.
        let listener = TcpListener::bind(&addr).unwrap();
        let h = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut w = conn.try_clone().unwrap();
            let mut r = BufReader::new(conn);
            let mut line = String::new();
            if r.read_line(&mut line).unwrap_or(0) > 0 {
                writeln!(w, r#"{{"status":"ok","epoch":0}}"#).unwrap();
            }
        });
        assert!(st.probe(&quick_cfg()));
        assert!(!st.dead);
        drop(st);
        h.join().unwrap();
    }

    #[test]
    fn server_errors_are_not_failover_events() {
        let (addr, h) = echo_replica(r#"{"status":"error","error":"unknown seq 9"}"#);
        let mut st = ShardState::new(vec![addr]);
        let c = counters();
        let err = st.read_request(r#"{"cmd":"status"}"#, &quick_cfg(), &c).unwrap_err();
        assert_eq!(err, "unknown seq 9");
        assert!(!st.dead);
        assert_eq!(c.get(Counter::ShardRetries), 0);
        drop(st);
        h.join().unwrap();
    }

    /// A replica that answers every request, each after `delay`.
    fn slow_replica(reply: &'static str, delay: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            if let Ok((conn, _)) = listener.accept() {
                let mut w = conn.try_clone().unwrap();
                let mut r = BufReader::new(conn);
                let mut line = String::new();
                while r.read_line(&mut line).unwrap_or(0) > 0 {
                    std::thread::sleep(delay);
                    if writeln!(w, "{reply}").is_err() {
                        break;
                    }
                    line.clear();
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn writes_outlive_the_hedge_budget_on_a_non_final_replica() {
        // Replica 0 answers slower than hedge_after (60ms) but well
        // within read_timeout; a write must wait it out — the hedge
        // budget is for reads only — while a read on the same pooled
        // connection still hedges.
        let (slow, hs) = slow_replica(r#"{"status":"ok","seq":4}"#, Duration::from_millis(150));
        let (fast, hf) = echo_replica(r#"{"status":"ok","seq":9}"#);
        let mut st = ShardState::new(vec![slow, fast]);
        let c = counters();
        let cfg = quick_cfg();
        let replies = st.write_all_replicas(r#"{"cmd":"update","ops":[]}"#, &cfg, &c).unwrap();
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].field("seq").and_then(JsonValue::as_num), Some(4));
        assert_eq!(c.get(Counter::HedgedReads), 0);
        assert_eq!(c.get(Counter::ShardRetries), 0);
        // The same slow replica is now too slow for the read path: the
        // per-request budget drops back to hedge_after and the read
        // hedges to replica 1.
        let reply = st.read_request(r#"{"cmd":"status"}"#, &cfg, &c).unwrap();
        assert_eq!(reply.field("seq").and_then(JsonValue::as_num), Some(9));
        assert_eq!(c.get(Counter::HedgedReads), 1);
        drop(st);
        hs.join().unwrap();
        hf.join().unwrap();
    }

    #[test]
    fn indeterminate_write_faults_are_surfaced_and_never_resent() {
        // A replica that admits the request line but never answers: the
        // read times out after the line was flushed, so the write may be
        // durable there — the pool must not resend it.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let received = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&received);
        let h = std::thread::spawn(move || {
            if let Ok((conn, _)) = listener.accept() {
                let mut r = BufReader::new(conn);
                let mut line = String::new();
                while r.read_line(&mut line).unwrap_or(0) > 0 {
                    counted.fetch_add(1, Ordering::SeqCst);
                    line.clear();
                }
            }
        });
        let mut st = ShardState::new(vec![addr.clone()]);
        let c = counters();
        let err =
            st.write_all_replicas(r#"{"cmd":"update","ops":[]}"#, &quick_cfg(), &c).unwrap_err();
        assert!(err.contains("indeterminate"), "{err}");
        assert!(err.contains(&addr), "{err}");
        assert_eq!(c.get(Counter::ShardRetries), 0, "a post-send fault must not retry");
        drop(st); // closes the connection so the replica thread exits
        h.join().unwrap();
        assert_eq!(
            received.load(Ordering::SeqCst),
            1,
            "the durable line must reach the replica exactly once"
        );
    }

    #[test]
    fn probe_drops_poisoned_pooled_connections_on_readmission() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // Replica 1 delays only its very first reply beyond the read
        // budget, leaving that reply buffered on the pooled stream after
        // the client times out — a poisoned connection. Every reply
        // carries a global request number so a stale read is
        // distinguishable from a fresh one.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let poison_addr = listener.local_addr().unwrap().to_string();
        let reqs = Arc::new(AtomicUsize::new(0));
        let server_reqs = Arc::clone(&reqs);
        let hp = std::thread::spawn(move || {
            let mut conns = Vec::new();
            for _ in 0..2 {
                let Ok((conn, _)) = listener.accept() else { break };
                let reqs = Arc::clone(&server_reqs);
                conns.push(std::thread::spawn(move || {
                    let mut w = conn.try_clone().unwrap();
                    let mut r = BufReader::new(conn);
                    let mut line = String::new();
                    while r.read_line(&mut line).unwrap_or(0) > 0 {
                        let n = reqs.fetch_add(1, Ordering::SeqCst) + 1;
                        if n == 1 {
                            std::thread::sleep(Duration::from_millis(200));
                        }
                        if writeln!(w, r#"{{"status":"ok","echo":{n}}}"#).is_err() {
                            break;
                        }
                        line.clear();
                    }
                }));
            }
            for c in conns {
                c.join().unwrap();
            }
        });
        let (healthy, hh) = echo_replica(r#"{"status":"ok","epoch":0}"#);
        let mut st = ShardState::new(vec![healthy, poison_addr]);
        let cfg = quick_cfg();
        let c = counters();
        // Poison the pooled connection: the direct per-replica request
        // path (the one 2PC commit uses) times out without dropping the
        // client.
        let err = st
            .request_with_budget(1, r#"{"cmd":"status"}"#, Duration::from_millis(50), &cfg)
            .unwrap_err();
        assert!(err.contains("timed out"), "{err}");
        // The shard is then marked dead (as a commit straggler would be)
        // while the late reply lands in the poisoned stream's buffer.
        st.dead = true;
        std::thread::sleep(Duration::from_millis(300));
        // Probe succeeds via replica 0 and must drop replica 1's
        // poisoned connection, not just the one it probed.
        assert!(st.probe(&cfg));
        let reply = st.request_replica(1, r#"{"cmd":"status"}"#, &cfg, &c).unwrap();
        assert_eq!(
            reply.field("echo").and_then(JsonValue::as_num),
            Some(2),
            "a post-readmission request must not read the stale buffered reply"
        );
        drop(st);
        hp.join().unwrap();
        hh.join().unwrap();
    }

    #[test]
    fn writes_require_every_replica() {
        let (a, ha) = echo_replica(r#"{"status":"ok","seq":1,"durable":1}"#);
        let dead_port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let mut st = ShardState::new(vec![a, format!("127.0.0.1:{dead_port}")]);
        let c = counters();
        let err =
            st.write_all_replicas(r#"{"cmd":"update","ops":[]}"#, &quick_cfg(), &c).unwrap_err();
        assert!(err.contains(&format!("127.0.0.1:{dead_port}")), "{err}");
        assert!(!st.dead, "a failed write must not kill the read path");
        drop(st);
        ha.join().unwrap();
    }
}
