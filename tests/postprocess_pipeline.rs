//! Integration: PartMiner output flows through the closed/maximal
//! post-processors and the pattern-set text format without loss.

use graphmine_core::{PartMiner, PartMinerConfig};
use graphmine_datagen::{generate, GenParams};
use graphmine_graph::{iso, pattern_io};
use graphmine_miner::{closed_patterns, maximal_patterns};

#[test]
fn closed_and_maximal_from_partminer_output() {
    let db = generate(&GenParams::new(50, 8, 4, 8, 3));
    let sup = db.abs_support(0.2);
    let cfg = PartMinerConfig::with_k(2);
    let all = PartMiner::new(cfg).mine(&db, &[], sup).patterns;

    let closed = closed_patterns(&all);
    let maximal = maximal_patterns(&all);
    assert!(!closed.is_empty());
    assert!(maximal.len() <= closed.len());
    assert!(closed.len() <= all.len());

    // The closed set determines every support: each frequent pattern's
    // support equals the max support of a closed supergraph containing it.
    for p in all.iter() {
        let derived = closed
            .iter()
            .filter(|c| c.size() >= p.size() && iso::contains(&c.graph, &p.code))
            .map(|c| c.support)
            .max();
        assert_eq!(derived, Some(p.support), "{}", p.code);
    }
}

#[test]
fn pattern_file_round_trips_partminer_results() {
    let db = generate(&GenParams::new(40, 7, 4, 8, 3));
    let cfg = PartMinerConfig::with_k(3);
    let all = PartMiner::new(cfg).mine(&db, &[], db.abs_support(0.25)).patterns;

    let mut bytes = Vec::new();
    pattern_io::write_patterns(&mut bytes, &all).unwrap();
    let back = pattern_io::read_patterns(&bytes[..]).unwrap();
    assert!(back.same_codes_and_supports(&all));
}
