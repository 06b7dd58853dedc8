//! Integration: every miner in the workspace — gSpan, Gaston, Apriori,
//! disk-based ADIMINE, and PartMiner for several k — produces the same
//! frequent-pattern sets on synthetic databases from the paper's generator.

use graphmine_adimine::{AdiConfig, AdiMine};
use graphmine_core::{PartMiner, PartMinerConfig};
use graphmine_datagen::{generate, GenParams};
use graphmine_graph::iso::{supporting_gids, SupportIndex};
use graphmine_graph::{EmbeddingMode, GraphDb};
use graphmine_miner::{Apriori, GSpan, Gaston, MemoryMiner};
use graphmine_telemetry::Counters;

fn synthetic_db() -> GraphDb {
    generate(&GenParams::new(60, 8, 5, 10, 3))
}

#[test]
fn all_systems_agree_on_synthetic_data() {
    let db = synthetic_db();
    let ufreq: Vec<Vec<f64>> = db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect();

    for rel_sup in [0.10, 0.25] {
        let sup = db.abs_support(rel_sup);
        let reference = GSpan::new().mine(&db, sup);

        let gaston = Gaston::new().mine(&db, sup);
        assert!(
            gaston.same_codes_and_supports(&reference),
            "Gaston vs gSpan at {rel_sup}: {} vs {}",
            gaston.len(),
            reference.len()
        );

        let apriori = Apriori::new().mine(&db, sup);
        assert!(apriori.same_codes_and_supports(&reference), "Apriori vs gSpan at {rel_sup}");

        let dir = tempfile::tempdir().unwrap();
        let adi = AdiMine::build(dir.path(), &db, AdiConfig::default()).unwrap();
        let disk = adi.mine(sup).unwrap();
        assert!(disk.same_codes_and_supports(&reference), "ADIMINE vs gSpan at {rel_sup}");

        for k in [2usize, 4] {
            let pm = PartMiner::new(PartMinerConfig::with_k(k)).mine(&db, &ufreq, sup);
            assert!(
                pm.patterns.same_codes_and_supports(&reference),
                "PartMiner k={k} vs gSpan at {rel_sup}: {} vs {}",
                pm.patterns.len(),
                reference.len()
            );
        }
    }
}

/// Differential matrix for the embedding-list support engine: Apriori with
/// its store {off, on}, and PartMiner's list-carrying walk under merge
/// scheduling {serial, parallel}, must produce the exact pattern sets and
/// supports of the reference miner, across several randomized databases;
/// and the support screen's recount of every frequent pattern must name
/// exactly its supporting graphs, in ascending gid order. A failure message
/// carries the datagen parameters so the offending database can be
/// regenerated in isolation.
#[test]
fn embedding_list_matrix_is_exact() {
    for seed in [3u64, 41, 977] {
        let params = GenParams::new(40, 8, 5, 12, 3).with_seed(seed);
        let db = generate(&params);
        let ufreq: Vec<Vec<f64>> = db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect();
        let sup = db.abs_support(0.15);
        let reference = GSpan::new().mine(&db, sup);
        let repro = format!(
            "repro: let db = generate(&GenParams::new(40, 8, 5, 12, 3).with_seed({seed})); \
             let sup = {sup};"
        );

        let gaston = Gaston::new().mine(&db, sup);
        assert!(gaston.same_codes_and_supports(&reference), "Gaston vs gSpan — {repro}");

        for lists in [EmbeddingMode::Off, EmbeddingMode::On] {
            let apriori = Apriori { max_edges: None, embedding_lists: lists }.mine(&db, sup);
            assert!(
                apriori.same_codes_and_supports(&reference),
                "Apriori (lists {lists}) vs gSpan: {} vs {} — {repro}",
                apriori.len(),
                reference.len()
            );
        }

        for parallel in [false, true] {
            let mut cfg = PartMinerConfig::with_k(2);
            cfg.parallel = parallel;
            let pm = PartMiner::new(cfg).mine(&db, &ufreq, sup);
            assert!(
                pm.patterns.same_codes_and_supports(&reference),
                "PartMiner (parallel {parallel}) vs gSpan: {} vs {} — {repro}",
                pm.patterns.len(),
                reference.len()
            );
        }

        let index = SupportIndex::build(&db);
        for p in reference.iter() {
            let (support, gids) = index.support_all_counted(&db, &p.code, sup, Counters::noop());
            assert_eq!(support, p.support, "recount of {} disagrees with gSpan — {repro}", p.code);
            assert_eq!(
                gids,
                supporting_gids(&db, &p.code),
                "supporters of {} are not the ascending search list — {repro}",
                p.code
            );
        }
    }
}

#[test]
fn miners_agree_at_low_support_with_cap() {
    // Lower support explodes the pattern count; cap sizes to keep the
    // comparison tractable while still crossing into cyclic patterns.
    let db = synthetic_db();
    let sup = db.abs_support(0.05);
    let reference = GSpan::capped(5).mine(&db, sup);
    let gaston = Gaston::capped(5).mine(&db, sup);
    assert!(gaston.same_codes_and_supports(&reference));
    let dir = tempfile::tempdir().unwrap();
    let adi = AdiMine::build(dir.path(), &db, AdiConfig::default()).unwrap();
    let disk = adi.mine_capped(sup, Some(5)).unwrap();
    assert!(disk.same_codes_and_supports(&reference));
}

/// Support boundaries: `min_support = 1` (everything connected up to the
/// cap is frequent), `= |D|` (only patterns occurring in every graph) and
/// `= |D| + 1` (the empty set — not a panic), across the miner ×
/// embedding-list × scheduling matrix.
#[test]
fn support_boundaries_across_the_miner_matrix() {
    let params = GenParams::new(8, 5, 4, 6, 3).with_seed(99);
    let db = generate(&params);
    let ufreq: Vec<Vec<f64>> = db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect();
    let cap = 4;
    let d = db.len() as u32;

    for sup in [1, d, d + 1] {
        let reference = GSpan::capped(cap).mine(&db, sup);
        let repro = format!(
            "repro: let db = generate(&GenParams::new(8, 5, 4, 6, 3).with_seed(99)); \
             let sup = {sup}; let cap = {cap};"
        );
        if sup == 1 {
            assert!(!reference.is_empty(), "support 1 finds every edge — {repro}");
        }
        if sup > d {
            assert!(reference.is_empty(), "support above |D| must yield the empty set — {repro}");
        }
        for p in reference.iter() {
            assert!(p.support >= sup, "reported support below threshold — {repro}");
        }

        let gaston = Gaston::capped(cap).mine(&db, sup);
        assert!(gaston.same_codes_and_supports(&reference), "Gaston at sup {sup} — {repro}");

        for lists in [EmbeddingMode::Off, EmbeddingMode::On] {
            let apriori = Apriori { max_edges: Some(cap), embedding_lists: lists }.mine(&db, sup);
            assert!(
                apriori.same_codes_and_supports(&reference),
                "Apriori (lists {lists}) at sup {sup}: {} vs {} — {repro}",
                apriori.len(),
                reference.len()
            );
        }

        for k in [2usize, 3, 4] {
            for parallel in [false, true] {
                let mut cfg = PartMinerConfig::with_k(k);
                cfg.max_edges = Some(cap);
                cfg.parallel = parallel;
                let pm = PartMiner::new(cfg).mine(&db, &ufreq, sup);
                assert!(
                    pm.patterns.same_codes_and_supports(&reference),
                    "PartMiner (k={k}, parallel {parallel}) at sup {sup}: {} vs {} — {repro}",
                    pm.patterns.len(),
                    reference.len()
                );
            }
        }
    }
}

#[test]
fn pattern_supports_shrink_as_threshold_rises() {
    let db = synthetic_db();
    let lo = GSpan::new().mine(&db, db.abs_support(0.05));
    let hi = GSpan::new().mine(&db, db.abs_support(0.30));
    assert!(hi.len() < lo.len(), "{} !< {}", hi.len(), lo.len());
    for p in hi.iter() {
        assert_eq!(lo.support(&p.code), Some(p.support));
    }
}
