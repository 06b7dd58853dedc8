//! Quickstart: generate a synthetic graph database, mine it with PartMiner,
//! and print the frequent subgraphs.
//!
//! Run with: `cargo run --release --example quickstart`

use graphmine_core::{PartMiner, PartMinerConfig};
use graphmine_datagen::{generate, GenParams};

fn main() {
    // A small instance of the paper's generator: 500 graphs, ~10 edges
    // each, 8 labels, 20 planted kernels of ~4 edges (Table 1 notation:
    // D500T10N8L20I4).
    let params = GenParams::new(500, 10, 8, 20, 4);
    let db = generate(&params);
    println!("dataset {}: {} graphs, {} edges total", params.name(), db.len(), db.total_edges());

    // Mine at 5% minimum support with k = 2 units. The database is static,
    // so the table of vertex update frequencies is empty.
    let min_sup = db.abs_support(0.05);
    let miner = PartMiner::new(PartMinerConfig::with_k(2));
    let outcome = miner.mine(&db, &[], min_sup);

    // The merge-join walks' work: children generated, children decided on
    // their exact support, and children accepted on a unit's result.
    let merge = outcome.stats.merge;
    println!(
        "found {} frequent subgraphs at support >= {min_sup} ({} candidates, {} counted, {} via unit shortcut)",
        outcome.patterns.len(),
        merge.extensions,
        merge.frequent + merge.infrequent,
        merge.shortcut,
    );
    println!(
        "partition {:.1?} | units {:.1?} | merge {:.1?} | total {:.1?}",
        outcome.stats.partition_time,
        outcome.stats.unit_times,
        outcome.stats.merge_time,
        outcome.stats.wall,
    );

    // Show the five most frequent patterns, largest first on ties.
    let mut patterns: Vec<_> = outcome.patterns.iter().collect();
    patterns.sort_by(|a, b| b.support.cmp(&a.support).then(b.size().cmp(&a.size())));
    println!("\ntop patterns (DFS codes are (i, j, l_i, l_edge, l_j) tuples):");
    for p in patterns.iter().take(5) {
        println!(
            "  support {:>4}  {} vertices / {} edges  code: {}",
            p.support,
            p.graph.vertex_count(),
            p.size(),
            p.code
        );
    }
}
