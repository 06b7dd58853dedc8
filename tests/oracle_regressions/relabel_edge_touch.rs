//! Regression: `GraphUpdate::RelabelEdge::touched_vertices` returned
//! `vec![]`, so edge relabels claimed to touch *nothing*.
//!
//! Two paths consume touched vertices. The partition's own update
//! propagation (`DbPartition::apply_update_impact`) dispatches per update
//! kind and walks the tree itself, so it masked the bug for correctness:
//! an edge relabel still re-mined its unit. But the update-frequency
//! attribution (`ufreq_from_updates`, feeding the paper's partitioning
//! criteria) consumes `touched_vertices` directly — an edge relabel
//! contributed no heat to either endpoint, silently steering future
//! partitions away from edge-churned regions. This module pins both
//! invariants: the endpoints are reported, and an edge relabel in an
//! otherwise-untouched unit flips a pattern's frequency with the
//! incremental result staying exact.

use graphmine_core::{IncPartMiner, PartMiner, PartMinerConfig};
use graphmine_datagen::ufreq_from_updates;
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

/// Four chains carrying the path `P = (0)-5-(1)-6-(2)` (support 4), plus
/// one disjoint-edges graph keeping every 1-edge pattern frequent so
/// demotions can only come from the unit diffs.
fn build_db() -> GraphDb {
    let mut db = GraphDb::new();
    db.push(chain([3, 0, 1, 2], [7, 5, 6]));
    db.push(chain([3, 0, 1, 2], [7, 5, 6]));
    db.push(chain([0, 1, 2, 3], [5, 6, 7]));
    db.push(chain([0, 1, 2, 3], [5, 6, 7]));
    let mut g = Graph::new();
    for l in [0u32, 1, 1, 2] {
        g.add_vertex(l);
    }
    g.add_edge(0, 1, 5).unwrap();
    g.add_edge(2, 3, 6).unwrap();
    db.push(g);
    db
}

/// The pattern the relabels demote: the labeled path `(0)-5-(1)-6-(2)`.
fn demoted() -> graphmine_graph::DfsCode {
    let mut p = Graph::new();
    p.add_vertex(0);
    p.add_vertex(1);
    p.add_vertex(2);
    p.add_edge(0, 1, 5).unwrap();
    p.add_edge(1, 2, 6).unwrap();
    min_dfs_code(&p)
}

/// In `chain([3, 0, 1, 2], ..)` edge 1 joins vertices 1 and 2 — the
/// `(0)-5-(1)` edge of `P`. Relabeling it in gids 0 and 1 deletes both of
/// that unit's occurrences of `P`, dropping true support from 4 to 2 < 3.
fn relabel_batch() -> Vec<DbUpdate> {
    vec![
        DbUpdate { gid: 0, update: GraphUpdate::RelabelEdge { e: 1, label: 9 } },
        DbUpdate { gid: 1, update: GraphUpdate::RelabelEdge { e: 1, label: 9 } },
    ]
}

/// The direct pin: an edge relabel touches both endpoints of the edge,
/// resolved against the pre-update graph — never the empty set.
#[test]
fn relabel_edge_touches_both_endpoints() {
    let db = build_db();
    let g = db.graph(0);
    let (u, v, _) = g.edge(1);
    let touched = GraphUpdate::RelabelEdge { e: 1, label: 9 }.touched_vertices(g);
    assert_eq!(touched, vec![u, v], "edge relabels must report the relabeled edge's endpoints");
    assert!(!touched.is_empty(), "the original bug: edge relabels claimed to touch nothing");
}

/// The attribution pin: update heat lands on the relabeled edge's
/// endpoints, so the partitioning criteria see edge churn.
#[test]
fn ufreq_attributes_edge_relabels_to_endpoints() {
    let db = build_db();
    let uf = ufreq_from_updates(&db, &relabel_batch());
    for gid in [0usize, 1] {
        assert_eq!(uf[gid][1], 1.0, "gid {gid}: endpoint 1 of edge 1 got no heat");
        assert_eq!(uf[gid][2], 1.0, "gid {gid}: endpoint 2 of edge 1 got no heat");
        assert_eq!(uf[gid][0], 0.0, "gid {gid}: vertex 0 is not an endpoint of edge 1");
        assert_eq!(uf[gid][3], 0.0, "gid {gid}: vertex 3 is not an endpoint of edge 1");
    }
}

/// End to end: the edge-relabel batch flips `P`'s frequency, the touched
/// unit is re-mined (the partition's per-kind propagation carries the
/// impact even where `touched_vertices` only feeds the criteria), and
/// the incremental result matches a from-scratch mine exactly.
#[test]
fn edge_relabel_flips_frequency_and_stays_exact() {
    let db = build_db();
    let ufreq: Vec<Vec<f64>> = db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect();
    let cfg = PartMinerConfig::with_k(2);
    let outcome = PartMiner::new(cfg).mine(&db, &ufreq, 3);
    let code = demoted();
    assert_eq!(outcome.patterns.support(&code), Some(4), "P starts frequent");
    let mut state = outcome.state;

    let updates = relabel_batch();
    let mut mirror = db.clone();
    graphmine_graph::update::apply_all(&mut mirror, &updates).unwrap();

    let inc = IncPartMiner::update(&mut state, &updates).unwrap();
    assert!(inc.stats.units_remined >= 1, "an edge relabel must mark its unit touched");
    assert!(
        !inc.patterns.contains(&code),
        "P has true support 2 < 3 after the edge relabels; its unit was never re-mined"
    );
    assert!(inc.fi.contains(&code), "the demotion must be classified as FI");

    let direct = GSpan::new().mine(&mirror, 3);
    assert!(
        inc.patterns.same_codes_and_supports(&direct),
        "incremental: {} patterns, from-scratch: {}",
        inc.patterns.len(),
        direct.len()
    );
}
