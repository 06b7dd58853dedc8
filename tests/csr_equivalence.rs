//! Differential proof that the frozen CSR representation is observationally
//! equivalent to the unfrozen adjacency-list representation: every miner ×
//! embedding-lists {off, on} × scheduling {serial, parallel} produces
//! identical pattern sets, identical per-pattern supporter gid lists, and
//! identical telemetry counter totals on a frozen database and its unfrozen
//! twin. A failure message carries the datagen parameters so the offending
//! database can be regenerated in isolation.

use graphmine_core::{PartMiner, PartMinerConfig};
use graphmine_datagen::{generate, GenParams};
use graphmine_graph::iso::SupportIndex;
use graphmine_graph::{EmbeddingMode, Graph, GraphDb};
use graphmine_miner::{Apriori, GSpan, Gaston, MemoryMiner};
use graphmine_telemetry::{Counters, Telemetry};

/// Rebuilds the unfrozen twin of a (frozen) database. Freezing repacks the
/// adjacency but leaves the vertex and edge arrays in insertion order, so
/// replaying them into fresh graphs reproduces the pre-freeze
/// representation exactly.
fn thaw(db: &GraphDb) -> GraphDb {
    GraphDb::from_graphs_unfrozen(
        db.iter()
            .map(|(_, g)| {
                let mut t = Graph::with_capacity(g.vertex_count(), g.edge_count());
                for v in 0..g.vertex_count() as u32 {
                    t.add_vertex(g.vlabel(v));
                }
                for (_, u, v, el) in g.edges() {
                    t.add_edge(u, v, el).expect("replayed edge is fresh");
                }
                t
            })
            .collect(),
    )
}

/// Sorted counter snapshot for exact comparison across representations.
fn counter_totals(tel: &Telemetry) -> Vec<(&'static str, u64)> {
    let mut snap = tel.counters().snapshot();
    // Steals count scheduling, not mining: two parallel runs over the
    // *same* repr disagree on them.
    snap.retain(|(name, _)| *name != "exec_steals");
    snap.sort_unstable();
    snap
}

#[test]
fn csr_matrix_is_equivalent_before_and_after_freeze() {
    for seed in [5u64, 271, 1117] {
        let params = GenParams::new(36, 8, 5, 12, 3).with_seed(seed);
        let frozen = generate(&params);
        let thawed = thaw(&frozen);
        let repro = format!(
            "repro: let db = generate(&GenParams::new(36, 8, 5, 12, 3).with_seed({seed}));"
        );

        // The twin is the same labeled graph sequence in the other repr.
        for ((_, f), (_, t)) in frozen.iter().zip(thawed.iter()) {
            assert!(f.is_frozen() && !t.is_frozen(), "twin reprs mixed up — {repro}");
            assert_eq!(f, t, "thawed twin diverged — {repro}");
        }

        let ufreq: Vec<Vec<f64>> =
            frozen.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect();
        let sup = frozen.abs_support(0.15);
        let reference = GSpan::new().mine(&frozen, sup);

        for (rep, db) in [("frozen", &frozen), ("unfrozen", &thawed)] {
            let gspan = GSpan::new().mine(db, sup);
            assert!(
                gspan.same_codes_and_supports(&reference),
                "gSpan on {rep} db vs frozen reference: {} vs {} — {repro}",
                gspan.len(),
                reference.len()
            );
            let gaston = Gaston::new().mine(db, sup);
            assert!(
                gaston.same_codes_and_supports(&reference),
                "Gaston on {rep} db: {} vs {} — {repro}",
                gaston.len(),
                reference.len()
            );
            for lists in [EmbeddingMode::Off, EmbeddingMode::On] {
                let apriori = Apriori { max_edges: None, embedding_lists: lists }.mine(db, sup);
                assert!(
                    apriori.same_codes_and_supports(&reference),
                    "Apriori (lists {lists}) on {rep} db: {} vs {} — {repro}",
                    apriori.len(),
                    reference.len()
                );
            }
            for parallel in [false, true] {
                let mut cfg = PartMinerConfig::with_k(2);
                cfg.parallel = parallel;
                let pm = PartMiner::new(cfg).mine(db, &ufreq, sup);
                assert!(
                    pm.patterns.same_codes_and_supports(&reference),
                    "PartMiner (parallel {parallel}) on {rep} db: {} vs {} — {repro}",
                    pm.patterns.len(),
                    reference.len()
                );
            }
        }

        // Supporter gid lists: the exact supporting-graph list of every
        // frequent pattern must be identical (same gids, same ascending
        // order) under both representations.
        let idx_f = SupportIndex::build(&frozen);
        let idx_t = SupportIndex::build(&thawed);
        for p in reference.iter() {
            let (sf, gf) = idx_f.support_all_counted(&frozen, &p.code, sup, Counters::noop());
            let (st, gt) = idx_t.support_all_counted(&thawed, &p.code, sup, Counters::noop());
            assert_eq!((sf, &gf), (st, &gt), "supporters of {} diverged — {repro}", p.code);
            assert_eq!(sf, p.support, "recount of {} disagrees with gSpan — {repro}", p.code);
            assert!(gf.windows(2).all(|w| w[0] < w[1]), "gid list not ascending — {repro}");
        }
    }
}

/// Telemetry totals are representation-independent: the engines may scan
/// runs in a different order on the two reprs, but every counted event —
/// searches run and avoided, embeddings extended and spilled, isomorphism
/// tests — happens the same number of times.
#[test]
fn csr_telemetry_counters_are_identical_across_reprs() {
    let params = GenParams::new(30, 8, 5, 12, 3).with_seed(271);
    let frozen = generate(&params);
    let thawed = thaw(&frozen);
    let ufreq: Vec<Vec<f64>> = frozen.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect();
    let sup = frozen.abs_support(0.15);
    let repro =
        "repro: let db = generate(&GenParams::new(30, 8, 5, 12, 3).with_seed(271));".to_string();

    for lists in [EmbeddingMode::Off, EmbeddingMode::On] {
        let totals: Vec<_> = [&frozen, &thawed]
            .iter()
            .map(|db| {
                let tel = Telemetry::new();
                Apriori { max_edges: Some(4), embedding_lists: lists }.mine_counted(
                    db,
                    sup,
                    tel.counters(),
                );
                counter_totals(&tel)
            })
            .collect();
        assert_eq!(totals[0], totals[1], "Apriori (lists {lists}) counters diverged — {repro}");
    }

    for parallel in [false, true] {
        let totals: Vec<_> = [&frozen, &thawed]
            .iter()
            .map(|db| {
                let tel = Telemetry::new();
                let mut cfg = PartMinerConfig::with_k(2);
                cfg.parallel = parallel;
                PartMiner::new(cfg).mine_instrumented(db, &ufreq, sup, &tel);
                counter_totals(&tel)
            })
            .collect();
        assert_eq!(
            totals[0], totals[1],
            "PartMiner (parallel {parallel}) counters diverged — {repro}"
        );
    }
}
