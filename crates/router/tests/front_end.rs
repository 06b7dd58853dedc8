//! The router's front end is the serve crate's server loop; these pin
//! the two behaviours the forked loop got wrong. Public API only, so
//! the file also compiles — and fails — against the fork.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use graphmine_router::{start, Router, RouterConfig, ShardSpec, ShardTopology};
use graphmine_serve::Client;
use graphmine_telemetry::JsonValue;

/// A router over one shard nobody listens on; `status` still answers
/// (degraded) with the router's own counters.
fn router() -> Arc<Router> {
    let topo = ShardTopology {
        min_support: 1,
        local_min_support: 1,
        n_graphs: 1,
        router_addr: "127.0.0.1:0".to_string(),
        shards: vec![ShardSpec {
            id: 0,
            owned: vec![0],
            replicas: vec!["127.0.0.1:1".to_string()],
            data: "shard-0.txt".to_string(),
        }],
    };
    Arc::new(Router::new(topo, RouterConfig::default()).unwrap())
}

#[test]
fn a_garbage_line_counts_as_a_request_error() {
    let handle = start(router(), "127.0.0.1:0").unwrap();
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    writeln!(conn, "not json").unwrap();
    let mut reply = String::new();
    BufReader::new(&conn).read_line(&mut reply).unwrap();
    assert!(reply.contains(r#""status":"error""#), "{reply}");

    let status = Client::connect(handle.addr()).unwrap().status(false).unwrap();
    let errors = status.field("counters").and_then(|c| c.field("req_errors"));
    assert_eq!(errors.and_then(JsonValue::as_num), Some(1));
    handle.abort();
}

#[test]
fn abort_leaves_no_thread_holding_the_router() {
    let router = router();
    let handle = start(Arc::clone(&router), "127.0.0.1:0").unwrap();
    // An idle client: connected, served once, then silent.
    let mut idle = Client::connect(handle.addr()).unwrap();
    idle.status(false).unwrap();
    handle.abort();
    assert_eq!(Arc::strong_count(&router), 1, "a connection thread outlived abort()");
}
