//! The paper's motivating scenario (Section 1): spatiotemporal relationship
//! graphs that keep changing. Each graph models the proximity relationships
//! of one region; the static backbone (buildings along a road) never
//! changes, while the mobile objects (cars, pedestrians) are re-labeled and
//! re-linked on every tick. Because the update-prone vertices are known,
//! ufreq-aware partitioning (Partition3) isolates them into a single unit —
//! and IncPartMiner re-mines only that unit.
//!
//! Run with: `cargo run --release --example spatiotemporal`

use std::time::Instant;

use graphmine_core::{IncPartMiner, PartMiner, PartMinerConfig, PartitionerKind};
use graphmine_datagen::ufreq_from_updates;
use graphmine_graph::{DbUpdate, Graph, GraphDb, GraphUpdate};
use graphmine_miner::{GSpan, MemoryMiner};
use graphmine_partition::Criteria;

/// Object classes. Cars and pedestrians move; buildings never do.
const BUILDING: u32 = 0;
const ROAD: u32 = 1;
const CAR: u32 = 2;
const PEDESTRIAN: u32 = 3;
/// Proximity relations (edge labels).
const ADJACENT: u32 = 0;
const ON: u32 = 1;
const NEAR: u32 = 2;

/// Vertex ids 0..=4 are the static backbone; 5..=7 are the mobiles.
const MOBILES: [u32; 3] = [5, 6, 7];

/// One region: a road with four buildings, plus three mobile objects.
fn region(seed: u32) -> Graph {
    let mut g = Graph::new();
    let road = g.add_vertex(ROAD);
    let mut prev = None;
    for i in 0..4 {
        let b = g.add_vertex(BUILDING);
        g.add_edge(b, road, ADJACENT).unwrap();
        if let Some(p) = prev {
            if (seed + i) % 2 == 0 {
                g.add_edge(p, b, NEAR).unwrap();
            }
        }
        prev = Some(b);
    }
    for i in 0..3 {
        let c = g.add_vertex(if (seed + i) % 3 == 0 { PEDESTRIAN } else { CAR });
        g.add_edge(c, road, ON).unwrap();
        if i > 0 {
            g.add_edge(c, c - 1, NEAR).unwrap();
        }
    }
    g
}

/// The busy regions: 40% of the city sees movement every tick.
fn is_busy(gid: u32) -> bool {
    gid % 5 < 2
}

/// One tick of movement: in every busy region, one mobile changes class (a
/// car parks, a pedestrian boards a car), and in a few regions two mobiles
/// drift together, gaining a NEAR edge.
fn tick_updates(db: &GraphDb, tick: u32) -> Vec<DbUpdate> {
    let mut plan = Vec::new();
    for (gid, g) in db.iter() {
        if !is_busy(gid) {
            continue;
        }
        let m = MOBILES[(tick as usize + gid as usize) % MOBILES.len()];
        let new_label = if g.vlabel(m) == CAR { PEDESTRIAN } else { CAR };
        plan.push(DbUpdate { gid, update: GraphUpdate::RelabelVertex { v: m, label: new_label } });
        if gid % 7 == tick % 7 {
            let (a, b) = (MOBILES[tick as usize % 3], MOBILES[(tick as usize + 1) % 3]);
            if g.edge_between(a, b).is_none() {
                plan.push(DbUpdate {
                    gid,
                    update: GraphUpdate::AddEdge { u: a, v: b, label: NEAR },
                });
            }
        }
    }
    plan
}

fn main() {
    let db: GraphDb = (0..400).map(region).collect();
    println!("spatiotemporal database: {} regions, {} relationships", db.len(), db.total_edges());

    // The partitioner knows which vertices the workload hits (Section 4.1):
    // derive ufreq from a few ticks' worth of planned movement so every
    // mobile object registers as update-prone.
    let forecast: Vec<DbUpdate> = (0..3).flat_map(|t| tick_updates(&db, t)).collect();
    let ufreq = ufreq_from_updates(&db, &forecast).expect("the plan applies");

    let min_sup = db.abs_support(0.08);
    let mut cfg = PartMinerConfig::with_k(4);
    cfg.partitioner = PartitionerKind::GraphPart(Criteria::COMBINED); // Partition3
    let outcome = PartMiner::new(cfg).mine(&db, &ufreq, min_sup);
    println!(
        "initial mining: {} frequent relationship patterns in {:.1?}",
        outcome.patterns.len(),
        outcome.stats.wall
    );
    let mut state = outcome.state;

    // Stream three ticks of movement.
    let mut current = db.clone();
    for tick in 0..3u32 {
        let plan = tick_updates(&current, tick);
        graphmine_graph::update::apply_all(&mut current, &plan).unwrap();

        let t = Instant::now();
        let inc = IncPartMiner::update(&mut state, &plan).unwrap();
        let inc_time = t.elapsed();

        let t = Instant::now();
        let direct = GSpan::new().mine(&current, min_sup);
        let direct_time = t.elapsed();

        assert!(inc.patterns.same_codes(&direct), "tick {tick} diverged");
        println!(
            "tick {tick}: {} updates -> re-mined {}/{} units, {} unchanged / {} newly frequent / {} demoted | incremental {:.1?} vs re-mine {:.1?}",
            plan.len(),
            inc.stats.units_remined,
            state.partition.unit_count(),
            inc.uf.len(),
            inc.if_new.len(),
            inc.fi.len(),
            inc_time,
            direct_time,
        );
    }
}
