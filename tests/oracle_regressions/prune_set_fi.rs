//! Regression: incremental prune-set construction (paper-literal trust
//! mode, `verify_unchanged = false`).
//!
//! The bug: a pattern that dropped out of a *touched* unit's re-mined
//! result was only added to the prune set if it survived in no other
//! unit. Surviving elsewhere is no alibi — the unit-level count is a
//! lower bound, and the pattern's database-level support may still have
//! fallen below `min_support`. The stale entry then rode through the
//! `known`-skip as "unchanged frequent" and never landed in `FI`.
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
    // Disjoint edges keeping every 1-edge pattern frequent, so the prune
    // set can only come from the unit diffs.
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

#[test]
fn pattern_deleted_from_a_touched_unit_lands_in_fi() {
    let db = build_db();
    let ufreq: Vec<Vec<f64>> = db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect();
    let mut cfg = PartMinerConfig::with_k(2);
    cfg.verify_unchanged = false; // paper-literal pruning: no safety net
    let outcome = PartMiner::new(cfg).mine(&db, &ufreq, 3);
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

    assert!(
        !inc.patterns.contains(&code),
        "P has true support 2 < 3 after the batch; a stale prune set kept it frequent"
    );
    assert!(inc.fi.contains(&code), "the demotion must be classified as FI");

    // With the prune set built correctly, the whole trust-mode result
    // matches a from-scratch mine on this database.
    let direct = GSpan::new().mine(&mirror, 3);
    assert!(
        inc.patterns.same_codes(&direct),
        "trust mode: {} patterns, from-scratch {}",
        inc.patterns.len(),
        direct.len()
    );
}

/// The same scenario in the default verify mode must agree exactly —
/// codes and supports — with a from-scratch mine.
#[test]
fn verify_mode_stays_exact_on_the_same_scenario() {
    let db = build_db();
    let ufreq: Vec<Vec<f64>> = db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect();
    let cfg = PartMinerConfig::with_k(2);
    let outcome = PartMiner::new(cfg).mine(&db, &ufreq, 3);
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
    assert!(inc.fi.contains(&demoted()));
}
