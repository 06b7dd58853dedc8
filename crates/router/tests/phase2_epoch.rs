//! SON phase 2 against scripted shards: a shard's phase-1 rows are only
//! added to its phase-2 counts when both replies come from one local
//! epoch. A shard whose epoch moved in between has every candidate
//! recounted, and the stale phase-1 row is dropped.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use graphmine_router::{Router, RouterConfig, ShardSpec, ShardTopology};
use graphmine_serve::protocol::{parse_request, Request};
use graphmine_serve::RetryPolicy;
use graphmine_telemetry::{Counter, JsonValue};

const A: &str = "[[0,1,0,5,1]]";
const B: &str = "[[0,1,0,6,2]]";

/// A scripted shard: `patterns` returns `row` (code, support) at epoch 1;
/// every `support-batch` answers `support` per code at `batch_epoch`.
/// Received lines are recorded. The accept loop is never joined.
fn scripted_shard(
    row: (&'static str, u64),
    support: u64,
    batch_epoch: u64,
    lines: Arc<Mutex<Vec<String>>>,
) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(conn) = conn else { break };
            let lines = Arc::clone(&lines);
            std::thread::spawn(move || {
                let mut w = conn.try_clone().unwrap();
                let mut r = BufReader::new(conn);
                let mut line = String::new();
                while r.read_line(&mut line).unwrap_or(0) > 0 {
                    let req = line.trim().to_string();
                    lines.lock().unwrap().push(req.clone());
                    let reply = match parse_request(&req) {
                        Ok(Request::Patterns { .. }) => format!(
                            r#"{{"status":"ok","epoch":1,"total":1,"returned":1,"sorted":1,"patterns":[{{"support":{},"size":1,"code":{}}}]}}"#,
                            row.1, row.0
                        ),
                        Ok(Request::SupportBatch { graphs, .. }) => {
                            let supports = vec![support.to_string(); graphs.len()].join(",");
                            format!(
                                r#"{{"status":"ok","epoch":{batch_epoch},"supports":[{supports}]}}"#
                            )
                        }
                        _ => r#"{"status":"error","error":"unscripted"}"#.to_string(),
                    };
                    if writeln!(w, "{reply}").is_err() {
                        break;
                    }
                    line.clear();
                }
            });
        }
    });
    addr
}

#[test]
fn a_shard_whose_epoch_moved_between_the_phases_is_recounted_whole() {
    let steady = Arc::new(Mutex::new(Vec::new()));
    let moved = Arc::new(Mutex::new(Vec::new()));
    // Shard 0 reports A at 3 and holds B once; shard 1 reports B at 2 at
    // epoch 1, then answers every count at epoch 2, where it holds 5 of
    // each.
    let shard = |id: usize, addr: String, owned: std::ops::Range<u32>| ShardSpec {
        id,
        owned: owned.collect(),
        replicas: vec![addr],
        data: format!("shard-{id}.txt"),
    };
    let topo = ShardTopology {
        min_support: 4,
        local_min_support: 2,
        n_graphs: 20,
        router_addr: "127.0.0.1:0".to_string(),
        shards: vec![
            shard(0, scripted_shard((A, 3), 1, 1, Arc::clone(&steady)), 0..10),
            shard(1, scripted_shard((B, 2), 5, 2, Arc::clone(&moved)), 10..20),
        ],
    };
    let cfg = RouterConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(5),
        retry: RetryPolicy::none(),
        cache_budget: 0,
        ..RouterConfig::default()
    };
    let router = Router::new(topo, cfg).unwrap();

    let reply = router.patterns(1_000_000_000, None);
    assert!(reply.field("partial").is_none(), "{reply:?}");
    let rows: Vec<(u64, String)> = reply
        .field("patterns")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|p| {
            (
                p.field("support").and_then(JsonValue::as_num).unwrap(),
                p.field("code").unwrap().to_json(),
            )
        })
        .collect();
    // A: 3 reported by shard 0 + 5 recounted on shard 1. B: 1 asked of
    // shard 0 + 5 recounted on shard 1; adding shard 1's stale row (2)
    // instead would leave B at 3, under the threshold.
    assert_eq!(rows, vec![(8, A.to_string()), (6, B.to_string())]);

    let batches = |lines: &Mutex<Vec<String>>| -> Vec<usize> {
        let lines = lines.lock().unwrap();
        lines
            .iter()
            .filter_map(|l| match parse_request(l) {
                Ok(Request::SupportBatch { graphs, .. }) => Some(graphs.len()),
                _ => None,
            })
            .collect()
    };
    assert_eq!(batches(&steady), vec![1], "shard 0 is asked only about B");
    assert_eq!(batches(&moved), vec![1, 2], "shard 1 is asked about A, then about both");
    let recounts = router.telemetry().counters().get(Counter::RouterPhase2Recounts);
    assert_eq!(recounts, 4);
}
