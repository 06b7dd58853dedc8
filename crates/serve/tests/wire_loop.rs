//! The one NDJSON server loop, exercised over both handlers it serves —
//! a daemon's [`ServeEngine`] and a router's [`Router`]: a request split
//! across the poll timeout, explicit shedding when the connection queue
//! fills, idle connections yielding their worker, error replies for
//! garbage, the request-line cap, a request with a line break in it
//! refused by the client, and a pin on the half of the wire this
//! repository has not been allowed to change yet.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use graphmine_datagen::{generate, GenParams};
use graphmine_router::{Router, RouterConfig, ShardSpec, ShardTopology};
use graphmine_serve::{
    start, Client, EngineConfig, Handler, ServeEngine, ServerConfig, ServerHandle, MAX_REQUEST_LINE,
};
use graphmine_telemetry::JsonValue;

fn engine(dir: &std::path::Path) -> Arc<ServeEngine> {
    let db = generate(&GenParams::new(24, 6, 4, 4, 3).with_seed(11));
    let cfg = EngineConfig { min_support: db.abs_support(0.3), ..EngineConfig::default() };
    Arc::new(ServeEngine::boot(Some(&db), dir, &cfg).unwrap().0)
}

/// A router over one shard nobody listens on: `status` still answers
/// (degraded), which is all these rows need from it.
fn router() -> Arc<Router> {
    let topo = ShardTopology {
        min_support: 1,
        local_min_support: 1,
        k: 1,
        policy: "units".to_string(),
        n_graphs: 1,
        router_addr: "127.0.0.1:0".to_string(),
        shards: vec![ShardSpec {
            id: 0,
            units: vec![0],
            owned: vec![0],
            replicas: vec!["127.0.0.1:1".to_string()],
            data: "shard-0.txt".to_string(),
        }],
    };
    Arc::new(Router::new(topo, RouterConfig::default()).unwrap())
}

/// Runs `row` against a server over each handler. The row gets the
/// address and one established control connection — proven served by a
/// completed `status` — which also carries the final `shutdown`.
fn over_both_handlers(cfg: &ServerConfig, row: fn(SocketAddr, &mut Client)) {
    fn run<H: Handler>(handle: ServerHandle<H>, row: fn(SocketAddr, &mut Client)) {
        let mut ctl = Client::connect(handle.addr()).unwrap();
        ctl.status(false).unwrap();
        row(handle.addr(), &mut ctl);
        ctl.shutdown().unwrap();
        handle.wait().unwrap();
    }
    let dir = tempfile::tempdir().unwrap();
    run(start(engine(dir.path()), cfg).unwrap(), row);
    run(start(router(), cfg).unwrap(), row);
}

/// A counter as a client sees it: through `status`.
fn counter(ctl: &mut Client, name: &str) -> u64 {
    let status = ctl.status(false).unwrap();
    status.field("counters").and_then(|c| c.field(name)).and_then(JsonValue::as_num).unwrap()
}

fn read_reply(reader: &mut impl BufRead) -> JsonValue {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    JsonValue::parse(line.trim_end()).unwrap()
}

fn error_of(reply: &JsonValue) -> &str {
    assert_eq!(reply.field("status").and_then(JsonValue::as_str), Some("error"), "{reply:?}");
    reply.field("error").and_then(JsonValue::as_str).unwrap()
}

/// A request sent in two chunks with a pause longer than the workers'
/// 100 ms read poll between them must reassemble, not parse its tail as
/// garbage.
#[test]
fn a_request_split_across_the_poll_timeout_reassembles() {
    over_both_handlers(&ServerConfig::default(), |addr, ctl| {
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        conn.write_all(br#"{"cmd":"sta"#).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        conn.write_all(b"tus\"}\n").unwrap();
        let reply = read_reply(&mut reader);
        assert_eq!(reply.field("status").and_then(JsonValue::as_str), Some("ok"), "{reply:?}");
        assert_eq!(counter(ctl, "req_errors"), 0);
    });
}

/// With one worker and a queue of one, a held connection plus a queued
/// one force the next arrival to be shed with an explicit `overloaded`
/// error instead of hanging.
#[test]
fn full_queue_sheds_with_overloaded() {
    let cfg = ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() };
    over_both_handlers(&cfg, |addr, held| {
        // `held` has the single worker and this fills the queue. The two
        // may trade places while idle; one is always queued.
        let parked = TcpStream::connect(addr).unwrap();
        // Third connection: must be shed immediately.
        let shed = TcpStream::connect(addr).unwrap();
        assert_eq!(error_of(&read_reply(&mut BufReader::new(&shed))), "overloaded");
        // The shed is visible in the counters, via the first connection.
        assert!(counter(held, "req_overloaded") >= 1);
        drop(parked);
    });
}

/// More persistent clients than workers: the idle ones give their
/// worker up, so every client is answered — neither hung in the queue
/// for as long as the others stay connected, nor shed.
#[test]
fn idle_connections_yield_their_worker_to_queued_ones() {
    let cfg = ServerConfig { workers: 2, queue_depth: 8, ..ServerConfig::default() };
    over_both_handlers(&cfg, |addr, ctl| {
        // With `ctl`, three times the pool, all connected throughout. A
        // client left in the queue fails on its read timeout.
        let patience = Some(Duration::from_secs(10));
        let mut clients: Vec<Client> =
            (0..5).map(|_| Client::connect_with(addr, None, patience).unwrap()).collect();
        for round in 0..2 {
            for (i, client) in clients.iter_mut().enumerate() {
                let reply = client.status(false).unwrap();
                let status = reply.field("status").and_then(JsonValue::as_str);
                assert_eq!(status, Some("ok"), "round {round}, client {i}");
            }
        }
        assert_eq!(counter(ctl, "req_overloaded"), 0);
    });
}

/// Garbage lines get an error response and count as `req_errors`
/// without killing the connection — or, for the line nested deep enough
/// to overflow a worker's stack if it were parsed, the process.
#[test]
fn malformed_lines_get_error_responses() {
    over_both_handlers(&ServerConfig::default(), |addr, ctl| {
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        for bad in ["not json", r#"{"cmd":"warp"}"#, r#"{"cmd":"support","code":[[0,0,1,1,1]]}"#] {
            writeln!(conn, "{bad}").unwrap();
            error_of(&read_reply(&mut reader));
        }
        writeln!(conn, "{}", "[".repeat(100_000)).unwrap();
        assert!(error_of(&read_reply(&mut reader)).ends_with("nesting too deep"));
        writeln!(conn, r#"{{"cmd":"status"}}"#).unwrap();
        let reply = read_reply(&mut reader);
        assert_eq!(reply.field("status").and_then(JsonValue::as_str), Some("ok"), "{reply:?}");
        assert_eq!(counter(ctl, "req_errors"), 4);
    });
}

/// A line of exactly the cap is read whole (and then rejected only for
/// what it says); a longer one is refused at the cap without being
/// buffered further, counted, and the connection closed — after the
/// bytes the peer sent past the cap are discarded, so that the refusal
/// reaches a peer that only reads once it has written everything.
#[test]
fn an_over_long_line_is_refused_and_the_connection_closed() {
    over_both_handlers(&ServerConfig::default(), |addr, ctl| {
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = vec![b'x'; MAX_REQUEST_LINE];
        line.push(b'\n');
        conn.write_all(&line).unwrap();
        assert!(error_of(&read_reply(&mut reader)).starts_with("bad json"));

        // No newline at all: the server must answer at the cap instead
        // of waiting for one.
        conn.write_all(&line[..MAX_REQUEST_LINE]).unwrap();
        conn.write_all(&[b'x'; 64 << 10]).unwrap();
        let reply = read_reply(&mut reader);
        assert_eq!(error_of(&reply), format!("request line exceeds {MAX_REQUEST_LINE} bytes"));
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "connection left open: {rest}");
        assert_eq!(counter(ctl, "req_errors"), 2);
    });
}

/// A request is one line. `Client` refuses a line with a break inside it
/// before sending anything — the server would answer it as two requests,
/// here a `status` and the `shutdown` smuggled behind it — and the
/// connection stays in step afterwards: the next reply answers the next
/// question, from a server that is still up.
#[test]
fn a_request_spanning_lines_is_refused_and_the_connection_stays_usable() {
    over_both_handlers(&ServerConfig::default(), |addr, ctl| {
        let before = counter(ctl, "req_errors");
        for smuggled in [
            "{\"cmd\":\"status\"}\n{\"cmd\":\"shutdown\"}",
            "{\"cmd\":\"status\"}\r{\"cmd\":\"shutdown\"}",
        ] {
            let err = ctl.request_line(smuggled).unwrap_err();
            assert!(err.ends_with("request spans lines"), "{err}");
            assert!(err.starts_with(&format!("send to {addr}")), "{err}");
        }
        // Trailing line ends are still trimmed, not refused.
        let reply = ctl.request_line("{\"cmd\":\"status\"}\r\n").unwrap();
        assert!(reply.field("stopping").is_none(), "{reply:?}");
        assert!(reply.field("counters").is_some(), "not a status reply: {reply:?}");
        // Nothing of the refused lines reached the server, and it is up
        // for a second connection too.
        assert_eq!(counter(ctl, "req_errors"), before);
        Client::connect(addr).unwrap().status(false).unwrap();
    });
}

/// The *reply* half of the wire is exactly as it was: `reply` writes the
/// line and its newline separately and no socket sets `TCP_NODELAY`, so a
/// round trip still costs one delayed ACK (~44 ms) on top of the server's
/// work. That is deliberate, not an oversight. ROADMAP item 1(b) is "the
/// reply half + `TCP_NODELAY`", and it is behind 1(a): with replies in one
/// write the `router-read` harness, which keeps every reply body, read
/// `peak_rss_mb` 210.6 MB against a parent of 135 (bound 15 %), so the
/// benchmark has to stop retaining bodies first. The request half alone
/// (`Client::request_line`, one write) already makes the wire monotone in
/// the server's work; the reply half alone would not (ROADMAP's
/// four-column table). Whoever changes `reply` or the sockets' options
/// lands 1(a) first and then deletes this test.
#[test]
fn the_reply_half_of_the_wire_is_unchanged() {
    let server = include_str!("../src/server.rs");
    assert!(
        server.contains(
            "fn reply(writer: &mut TcpStream, response: &JsonValue) -> std::io::Result<()> {\n    \
             writeln!(writer, \"{}\", response.to_json()).and_then(|()| writer.flush())\n}"
        ),
        "server.rs::reply changed"
    );
    for (name, src) in [("server.rs", server), ("client.rs", include_str!("../src/client.rs"))] {
        assert!(!src.contains("set_nodelay"), "{name} sets TCP_NODELAY");
    }
}
