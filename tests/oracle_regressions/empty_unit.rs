//! Regression: degenerate `GraphPart` splits produced empty units.
//!
//! A graph whose high-`ufreq` vertices are isolated could be assigned
//! entirely to one side; every piece on the other side was then empty,
//! and with enough units an entire unit held no edge at all. The fix
//! clamps degenerate side assignments in `DbPartition::split_node` (an
//! edge endpoint is moved to the starved side, turning that edge
//! connective) and `DbPartition::check_invariants` now rejects empty
//! units outright.

use graphmine_core::{PartMiner, PartMinerConfig};
use graphmine_graph::{Graph, GraphDb};
use graphmine_miner::{GSpan, MemoryMiner};
use graphmine_partition::{Criteria, DbPartition, GraphPart};

/// One labeled edge plus isolated vertices that attract the partitioner:
/// their update frequency dwarfs the edge endpoints'.
fn edge_with_hot_isolated_vertices() -> (Graph, Vec<f64>) {
    let mut g = Graph::new();
    g.add_vertex(1);
    g.add_vertex(2);
    g.add_vertex(7);
    g.add_vertex(7);
    g.add_edge(0, 1, 5).unwrap();
    (g, vec![0.0, 0.0, 100.0, 100.0])
}

#[test]
fn hot_isolated_vertices_leave_no_unit_empty() {
    let mut db = GraphDb::new();
    let mut ufreq = Vec::new();
    for _ in 0..3 {
        let (g, uf) = edge_with_hot_isolated_vertices();
        db.push(g);
        ufreq.push(uf);
    }
    for k in [2usize, 3, 4] {
        let part = DbPartition::build(&db, &ufreq, &GraphPart::new(Criteria::ISOLATE_UPDATES), k);
        part.check_invariants().unwrap_or_else(|e| panic!("k={k}: {e}"));
        for (j, unit) in part.unit_dbs().into_iter().enumerate() {
            assert!(unit.total_edges() > 0, "k={k}: unit {j} lost every edge");
        }
    }
}

#[test]
fn mining_through_a_degenerate_split_stays_lossless() {
    let mut db = GraphDb::new();
    let mut ufreq = Vec::new();
    for _ in 0..3 {
        let (g, uf) = edge_with_hot_isolated_vertices();
        db.push(g);
        ufreq.push(uf);
    }
    let direct = GSpan::new().mine(&db, 3);
    assert_eq!(direct.len(), 1, "exactly the shared edge is frequent");
    for k in [2usize, 4] {
        let cfg = PartMinerConfig::with_k(k);
        let outcome = PartMiner::new(cfg).mine(&db, &ufreq, 3);
        assert!(
            outcome.patterns.same_codes_and_supports(&direct),
            "k={k}: partminer {} vs direct {}",
            outcome.patterns.len(),
            direct.len()
        );
    }
}

/// A fully edgeless database cannot honor `k` units; it must freeze into
/// a single unit instead of manufacturing empty ones (or panicking).
#[test]
fn edgeless_database_freezes_into_one_unit() {
    let mut g = Graph::new();
    g.add_vertex(1);
    g.add_vertex(2);
    let db = GraphDb::from_graphs(vec![g]);
    let ufreq = vec![vec![0.0, 0.0]];
    let part = DbPartition::build(&db, &ufreq, &GraphPart::new(Criteria::COMBINED), 4);
    assert_eq!(part.unit_count(), 1);
    part.check_invariants().unwrap();

    let outcome = PartMiner::new(PartMinerConfig::with_k(4)).mine(&db, &ufreq, 1);
    assert!(outcome.patterns.is_empty());
}
