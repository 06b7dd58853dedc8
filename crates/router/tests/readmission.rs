//! Wire-level re-admission contract, pinned with a scripted shard: a
//! commit straggler is marked dead, and the re-admission that follows
//! must republish the committed epoch at the replica's **last committed
//! journal seq** — not seq 0, which waits for nothing and would let a
//! lagging replica slip back in.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use graphmine_graph::{DbUpdate, Graph, GraphDb, GraphUpdate};
use graphmine_router::{plan_shards, PlanConfig, Router, RouterConfig};
use graphmine_serve::RetryPolicy;
use graphmine_telemetry::JsonValue;

fn tiny_db() -> GraphDb {
    (0..4u32)
        .map(|_| {
            let mut g = Graph::new();
            let a = g.add_vertex(0);
            let b = g.add_vertex(1);
            g.add_edge(a, b, 5).unwrap();
            g
        })
        .collect()
}

/// A scripted single-replica shard. Answers every verb like a healthy
/// daemon except the **first** `epoch-commit`, which fails as an
/// injected straggle; every received request line is recorded.
fn scripted_shard(lines: Arc<Mutex<Vec<String>>>) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let commits = Arc::new(AtomicUsize::new(0));
    let h = std::thread::spawn(move || {
        let mut conns = Vec::new();
        // The router uses one pooled connection up to the straggle, then
        // a fresh one from the probe onward.
        for _ in 0..2 {
            let Ok((conn, _)) = listener.accept() else { break };
            let lines = Arc::clone(&lines);
            let commits = Arc::clone(&commits);
            conns.push(std::thread::spawn(move || {
                let mut w = conn.try_clone().unwrap();
                let mut r = BufReader::new(conn);
                let mut line = String::new();
                while r.read_line(&mut line).unwrap_or(0) > 0 {
                    let req = line.trim().to_string();
                    lines.lock().unwrap().push(req.clone());
                    let reply = if req.contains("epoch-commit") {
                        if commits.fetch_add(1, Ordering::SeqCst) == 0 {
                            r#"{"status":"error","error":"injected straggle"}"#.to_string()
                        } else {
                            r#"{"status":"ok","global":1}"#.to_string()
                        }
                    } else if req.contains("dry_run") {
                        r#"{"status":"ok","valid":1}"#.to_string()
                    } else if req.contains(r#""ack":"durable""#) {
                        r#"{"status":"ok","seq":1,"durable":1}"#.to_string()
                    } else if req.contains("support-batch") {
                        r#"{"status":"ok","supports":[4]}"#.to_string()
                    } else {
                        r#"{"status":"ok","epoch":1,"global_epoch":1,"pending_windows":0,"owned_graphs":4}"#.to_string()
                    };
                    if writeln!(w, "{reply}").is_err() {
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
    (addr, h)
}

#[test]
fn readmission_republishes_the_last_committed_seq_not_zero() {
    let db = tiny_db();
    let cfg = PlanConfig { n_shards: 1, min_support: 3, ..PlanConfig::default() };
    let plan = plan_shards(&db, &cfg).unwrap();
    let mut topo = plan.topology;

    let lines = Arc::new(Mutex::new(Vec::new()));
    let (addr, h) = scripted_shard(Arc::clone(&lines));
    topo.shards[0].replicas = vec![addr];

    let rcfg = RouterConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(5),
        hedge_after: Duration::from_millis(100),
        retry: RetryPolicy::none(),
        ..RouterConfig::default()
    };
    let router = Router::new(topo, rcfg).unwrap();

    // The update prepares durably (the scripted replica acks seq 1) but
    // straggles at commit: the shard is marked dead, the window is still
    // published (partial).
    let ops = vec![DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 0, label: 9 } }];
    let up = router.update(&ops, false);
    assert_eq!(up.field("status").and_then(JsonValue::as_str), Some("ok"), "{up:?}");
    assert_eq!(up.field("partial").and_then(JsonValue::as_num), Some(1));
    assert_eq!(router.global_epoch(), 1);

    // The next read probes and re-admits; with the replica now confirming
    // the commit, the answer is whole again.
    let mut g = Graph::new();
    let a = g.add_vertex(0);
    let b = g.add_vertex(1);
    g.add_edge(a, b, 5).unwrap();
    let healed = router.support(&g);
    assert!(healed.field("partial").is_none(), "{healed:?}");
    assert_eq!(healed.field("support").and_then(JsonValue::as_num), Some(4));

    drop(router); // closes pooled connections so the shard threads exit
    h.join().unwrap();

    // The wire contract: both the straggled commit and the re-admission
    // republish carry the prepared journal seq. Before the fix the
    // republish said `"seq":0` — a barrier that waits for nothing.
    let lines = lines.lock().unwrap();
    let commits: Vec<&String> = lines.iter().filter(|l| l.contains("epoch-commit")).collect();
    assert_eq!(commits.len(), 2, "one straggled commit, one re-admission republish: {lines:?}");
    for commit in &commits {
        assert!(commit.contains(r#""global":1"#), "{commit}");
        assert!(
            commit.contains(r#""seq":1"#),
            "re-admission must republish the committed seq, got: {commit}"
        );
    }
}
