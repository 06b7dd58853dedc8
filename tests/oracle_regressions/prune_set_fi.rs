//! Regression: a pattern demoted by a batch that empties it out of one
//! unit only must land in `FI`.
//!
//! The bug, found in the since-removed trust mode: a pattern that dropped
//! out of a *touched* unit's re-mined result was only re-examined if it
//! survived in no other unit. Surviving elsewhere is no alibi — the
//! unit-level count is a lower bound, and the pattern's database-level
//! support may still have fallen below `min_support`. The one incremental
//! mode left recounts every pattern on the updated data; this scenario
//! stays as the pin that it does.
//!
//! The database is engineered so the path `P = (0)-5-(1)-6-(2)` occurs in
//! the pieces of both units (two graphs each); one relabel batch deletes
//! every occurrence from one unit only, dropping the true support from 4
//! to 2 < 3.

use graphmine_core::{IncPartMiner, PartMiner, PartMinerConfig};
use graphmine_graph::{dfscode::min_dfs_code, DbUpdate, Graph, GraphDb, GraphUpdate};
use graphmine_miner::{GSpan, MemoryMiner};

fn chain(labels: [u32; 4], elabels: [u32; 3]) -> Graph {
    let mut g = Graph::new();
    for l in labels {
        g.add_vertex(l);
    }
    for (i, el) in elabels.into_iter().enumerate() {
        g.add_edge(i as u32, i as u32 + 1, el).unwrap();
    }
    g
}

fn build_db() -> GraphDb {
    let mut db = GraphDb::new();
    db.push(chain([3, 0, 1, 2], [7, 5, 6]));
    db.push(chain([3, 0, 1, 2], [7, 5, 6]));
    db.push(chain([0, 1, 2, 3], [5, 6, 7]));
    db.push(chain([0, 1, 2, 3], [5, 6, 7]));
    // Disjoint edges keeping every 1-edge pattern frequent, so the
    // demotion shows only above the 1-edge level.
    let mut g = Graph::new();
    for l in [0u32, 1, 1, 2] {
        g.add_vertex(l);
    }
    g.add_edge(0, 1, 5).unwrap();
    g.add_edge(2, 3, 6).unwrap();
    db.push(g);
    db
}

/// The demoted pattern: the labeled path `(0)-5-(1)-6-(2)`.
fn demoted() -> graphmine_graph::DfsCode {
    let mut p = Graph::new();
    p.add_vertex(0);
    p.add_vertex(1);
    p.add_vertex(2);
    p.add_edge(0, 1, 5).unwrap();
    p.add_edge(1, 2, 6).unwrap();
    min_dfs_code(&p)
}

/// The incremental result must agree exactly — codes and supports — with a
/// from-scratch mine.
#[test]
fn verify_mode_stays_exact_on_the_same_scenario() {
    let db = build_db();
    let cfg = PartMinerConfig::with_k(2);
    let outcome = PartMiner::new(cfg).mine(&db, &[], 3);
    let code = demoted();
    assert_eq!(outcome.patterns.support(&code), Some(4), "P starts frequent");
    let mut state = outcome.state;

    let updates = vec![
        DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 3, label: 9 } },
        DbUpdate { gid: 1, update: GraphUpdate::RelabelVertex { v: 3, label: 9 } },
    ];
    let mut mirror = db.clone();
    graphmine_graph::update::apply_all(&mut mirror, &updates).unwrap();

    let inc = IncPartMiner::update(&mut state, &updates).unwrap();
    let direct = GSpan::new().mine(&mirror, 3);
    assert!(inc.patterns.same_codes_and_supports(&direct));
    assert!(!inc.patterns.contains(&code), "P has true support 2 < 3 after the batch");
    assert!(inc.fi.contains(&code), "the demotion must be classified as FI");
}
