//! Continuous pattern monitoring under updates: compares the three
//! partitioning criteria of Section 5.1.1 (Partition1/2/3) and the ADIMINE
//! rebuild-everything baseline while an update stream plays, reporting how
//! much work each approach does per batch — a miniature of Fig. 13(b).
//!
//! Run with: `cargo run --release --example incremental_monitoring`

use std::time::Instant;

use graphmine_adimine::{AdiConfig, AdiMine};
use graphmine_core::{IncPartMiner, PartMiner, PartMinerConfig, PartitionerKind};
use graphmine_datagen::{
    generate, plan_updates, ufreq_from_updates, GenParams, UpdateKind, UpdateParams,
};
use graphmine_graph::update::apply_all;
use graphmine_partition::Criteria;
use graphmine_telemetry::Counters;

fn main() {
    let params = GenParams::new(300, 12, 8, 20, 4);
    let db = generate(&params);
    let min_sup = db.abs_support(0.06);
    println!("database {} | minsup {min_sup} (6%)\n", params.name());

    // One update batch, known in advance (the ufreq premise of Section 4.1).
    let upd_params = UpdateParams::new(0.4, 2, UpdateKind::Mixed, 8);
    let plan = plan_updates(&db, &upd_params);
    let ufreq = ufreq_from_updates(&db, &plan).expect("the plan applies");
    let mut updated = db.clone();
    apply_all(&mut updated, &plan).unwrap();

    println!(
        "{:<12} {:>12} {:>14} {:>12} {:>10}",
        "approach", "init (ms)", "update (ms)", "remined", "patterns"
    );

    for (label, criteria) in [
        ("Partition1", Criteria::ISOLATE_UPDATES),
        ("Partition2", Criteria::MIN_CONNECTIVITY),
        ("Partition3", Criteria::COMBINED),
    ] {
        let mut cfg = PartMinerConfig::with_k(4);
        cfg.partitioner = PartitionerKind::GraphPart(criteria);
        let t = Instant::now();
        let outcome = PartMiner::new(cfg).mine(&db, &ufreq, min_sup);
        let init = t.elapsed();
        let mut state = outcome.state;
        let t = Instant::now();
        let inc = IncPartMiner::update(&mut state, &plan).unwrap();
        let upd = t.elapsed();
        println!(
            "{:<12} {:>12.1} {:>14.1} {:>9}/{} {:>10}",
            label,
            init.as_secs_f64() * 1e3,
            upd.as_secs_f64() * 1e3,
            inc.stats.units_remined,
            state.partition.unit_count(),
            inc.patterns.len(),
        );
    }

    // ADIMINE: rebuild the index and mine from scratch, with memory and
    // disk latency proportioned like the paper's machine (see the bench
    // crate's AdiHarness for the reasoning).
    let dir = tempfile_dir();
    let adi_config = AdiConfig {
        pool_pages: (db.len() / 60).max(4),
        decoded_cache: (db.len() / 4).max(16),
        io_latency: std::time::Duration::from_micros(20),
    };
    let t = Instant::now();
    let mut adi = AdiMine::build(&dir, &db, adi_config).unwrap();
    let base = adi.mine(min_sup, None, Counters::noop()).unwrap();
    let init = t.elapsed();
    let t = Instant::now();
    adi.rebuild(&updated).unwrap();
    let after = adi.mine(min_sup, None, Counters::noop()).unwrap();
    let upd = t.elapsed();
    println!(
        "{:<12} {:>12.1} {:>14.1} {:>12} {:>10}",
        "ADIMINE",
        init.as_secs_f64() * 1e3,
        upd.as_secs_f64() * 1e3,
        "full",
        after.len(),
    );
    let _ = base;
    std::fs::remove_dir_all(&dir).ok();
}

fn tempfile_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("graphmine-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}
