//! Update workloads: the three update types of Section 5, plus the
//! per-vertex update frequencies the partitioning criteria consume.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashSet;

use graphmine_graph::{apply_all, DbUpdate, GraphDb, GraphError, GraphUpdate};

/// Which of the paper's update types a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// Type 1: update vertex/edge labels with existing or new labels
    /// (Fig. 17(a)).
    Relabel,
    /// Types 2 & 3: add new edges between existing vertices, or new
    /// vertices with an attaching edge (Fig. 17(b)).
    AddStructure,
    /// A 50/50 mix of the above.
    Mixed,
    /// The full evolving-graph vocabulary: relabels and additions mixed
    /// with connectivity-safe deletions (leaf vertices and cycle edges),
    /// exercising the delete path of the incremental miner.
    Churn,
}

/// Parameters of an update workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateParams {
    /// Fraction of the database's graphs that receive updates — the paper's
    /// "amount of updates" axis, varied from 20% to 80%.
    pub graph_fraction: f64,
    /// Number of updates applied to each updated graph.
    pub updates_per_graph: usize,
    /// Update types drawn.
    pub kind: UpdateKind,
    /// Number of existing labels `N` (new labels are allocated above it).
    pub n_labels: u32,
    /// Probability that a relabel introduces a *new* label instead of an
    /// existing one.
    pub new_label_prob: f64,
    /// Probability that an update targets the neighbourhood of a vertex
    /// already updated in the same graph. Real dynamic data (the paper's
    /// spatiotemporal motivation) updates *hot spots*, not uniformly random
    /// elements — this is exactly the locality the ufreq-aware partitioning
    /// criteria exist to exploit. `0.0` gives uniformly random targets.
    pub locality: f64,
    /// RNG seed.
    pub seed: u64,
}

impl UpdateParams {
    /// A workload touching `graph_fraction` of the graphs with `per_graph`
    /// updates each.
    pub fn new(graph_fraction: f64, per_graph: usize, kind: UpdateKind, n_labels: u32) -> Self {
        UpdateParams {
            graph_fraction,
            updates_per_graph: per_graph,
            kind,
            n_labels,
            new_label_prob: 0.3,
            locality: 0.8,
            seed: 0x51_7e_a5_e5,
        }
    }

    /// Returns a copy with a different hot-spot locality.
    pub fn with_locality(mut self, locality: f64) -> Self {
        self.locality = locality;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Plans a batch of updates against `db` (without modifying it). The plan
/// is valid to apply in order: additions are staged against a scratch copy
/// so no planned update conflicts with an earlier one.
pub fn plan_updates(db: &GraphDb, params: &UpdateParams) -> Vec<DbUpdate> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut scratch = db.clone();
    let n_graphs = db.len();
    let n_updated = ((n_graphs as f64 * params.graph_fraction).round() as usize).min(n_graphs);

    // Deterministic sample of updated gids.
    let mut gids: Vec<u32> = (0..n_graphs as u32).collect();
    for i in (1..gids.len()).rev() {
        let j = rng.random_range(0..=i);
        gids.swap(i, j);
    }
    gids.truncate(n_updated);
    gids.sort_unstable();

    let mut plan = Vec::new();
    for gid in gids {
        // The graph's hot spot: vertices already updated here. Subsequent
        // updates cluster around it with probability `locality`.
        let mut hot: Vec<u32> = Vec::new();
        for _ in 0..params.updates_per_graph {
            let update = match params.kind {
                UpdateKind::Relabel => plan_relabel(&mut rng, &scratch, gid, params, &hot),
                UpdateKind::AddStructure => plan_structural(&mut rng, &scratch, gid, params, &hot),
                UpdateKind::Mixed => {
                    if rng.random::<bool>() {
                        plan_structural(&mut rng, &scratch, gid, params, &hot)
                    } else {
                        plan_relabel(&mut rng, &scratch, gid, params, &hot)
                    }
                }
                UpdateKind::Churn => match rng.random_range(0..4u32) {
                    0 => plan_relabel(&mut rng, &scratch, gid, params, &hot),
                    1 => plan_structural(&mut rng, &scratch, gid, params, &hot),
                    // Deletes fall back to additions when the graph has
                    // no connectivity-safe target left.
                    _ => plan_delete(&mut rng, &scratch, gid)
                        .or_else(|| plan_structural(&mut rng, &scratch, gid, params, &hot)),
                },
            };
            if let Some(u) = update {
                // Touched vertices resolve against the pre-update graph.
                for v in u.touched_vertices(scratch.graph(gid)) {
                    if !hot.contains(&v) {
                        hot.push(v);
                    }
                }
                u.apply(scratch.graph_mut(gid)).expect("planned against scratch state");
                plan.push(DbUpdate { gid, update: u });
            }
        }
    }
    plan
}

/// Picks an update target: near the hot spot with probability
/// `params.locality`, uniformly otherwise.
fn pick_vertex(
    rng: &mut StdRng,
    g: &graphmine_graph::Graph,
    params: &UpdateParams,
    hot: &[u32],
) -> u32 {
    let n = g.vertex_count() as u32;
    if !hot.is_empty() && rng.random::<f64>() < params.locality {
        let h = hot[rng.random_range(0..hot.len())];
        if h < n {
            let nbrs = g.neighbors(h);
            if !nbrs.is_empty() && rng.random::<bool>() {
                return nbrs[rng.random_range(0..nbrs.len())].to;
            }
            return h;
        }
    }
    rng.random_range(0..n)
}

fn pick_label(rng: &mut StdRng, params: &UpdateParams) -> u32 {
    if rng.random::<f64>() < params.new_label_prob {
        // New labels live above the existing alphabet.
        params.n_labels + rng.random_range(0..params.n_labels.max(1))
    } else {
        rng.random_range(0..params.n_labels.max(1))
    }
}

fn plan_relabel(
    rng: &mut StdRng,
    db: &GraphDb,
    gid: u32,
    params: &UpdateParams,
    hot: &[u32],
) -> Option<GraphUpdate> {
    let g = db.graph(gid);
    if g.vertex_count() == 0 {
        return None;
    }
    if rng.random::<bool>() || g.edge_count() == 0 {
        Some(GraphUpdate::RelabelVertex {
            v: pick_vertex(rng, g, params, hot),
            label: pick_label(rng, params),
        })
    } else {
        // Re-label an edge incident to the target vertex, so edge updates
        // share the vertex hot spot.
        let v = pick_vertex(rng, g, params, hot);
        let incident = g.neighbors(v);
        let e = if incident.is_empty() {
            rng.random_range(0..g.edge_count() as u32)
        } else {
            incident[rng.random_range(0..incident.len())].eid
        };
        Some(GraphUpdate::RelabelEdge { e, label: pick_label(rng, params) })
    }
}

fn plan_structural(
    rng: &mut StdRng,
    db: &GraphDb,
    gid: u32,
    params: &UpdateParams,
    hot: &[u32],
) -> Option<GraphUpdate> {
    let g = db.graph(gid);
    let n = g.vertex_count() as u32;
    if n == 0 {
        return None;
    }
    // Type 2 (add edge) when a free vertex pair is found quickly, else
    // type 3 (add vertex).
    if n >= 2 && rng.random::<bool>() {
        for _ in 0..8 {
            let u = pick_vertex(rng, g, params, hot);
            let v = pick_vertex(rng, g, params, hot);
            if u != v && g.edge_between(u, v).is_none() {
                return Some(GraphUpdate::AddEdge { u, v, label: pick_label(rng, params) });
            }
        }
    }
    Some(GraphUpdate::AddVertex {
        label: pick_label(rng, params),
        attach_to: pick_vertex(rng, g, params, hot),
        elabel: pick_label(rng, params),
    })
}

/// Plans a connectivity-safe deletion: a leaf vertex (its cascade removes
/// exactly the attaching edge) or an edge on a cycle (checked by BFS
/// without it). Returns `None` when the graph has no safe target.
fn plan_delete(rng: &mut StdRng, db: &GraphDb, gid: u32) -> Option<GraphUpdate> {
    let g = db.graph(gid);
    let n = g.vertex_count() as u32;
    let leaf_first = rng.random::<bool>();
    if leaf_first && n > 2 {
        let leaves: Vec<u32> = (0..n).filter(|&v| g.neighbors(v).len() == 1).collect();
        if !leaves.is_empty() {
            return Some(GraphUpdate::DeleteVertex {
                v: leaves[rng.random_range(0..leaves.len())],
            });
        }
    }
    // Sample edges and keep the first whose removal leaves the graph
    // connected (an edge on a cycle).
    let m = g.edge_count() as u32;
    if m > 1 {
        for _ in 0..8 {
            let e = rng.random_range(0..m);
            if connected_without(g, e) {
                return Some(GraphUpdate::DeleteEdge { e });
            }
        }
    }
    None
}

/// `true` when `g` minus edge `skip` is still connected (isolated-vertex
/// free databases only have connected graphs to begin with).
fn connected_without(g: &graphmine_graph::Graph, skip: u32) -> bool {
    let n = g.vertex_count();
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0u32];
    seen[0] = true;
    let mut visited = 1usize;
    while let Some(v) = stack.pop() {
        for adj in g.neighbors(v) {
            if adj.eid != skip && !seen[adj.to as usize] {
                seen[adj.to as usize] = true;
                visited += 1;
                stack.push(adj.to);
            }
        }
    }
    visited == n
}

/// Plans a stream of `n_windows` update windows for the serving tier's
/// *sliding-window* mode. Every op targets only base entities (present in
/// `db`), planned edges are unique across the whole stream and absent
/// from `db`, and added vertices are never referenced again — so any
/// contiguous sub-sequence of the returned windows applies cleanly in
/// order, no matter which prefix the server has already expired.
pub fn plan_windows(db: &GraphDb, params: &UpdateParams, n_windows: usize) -> Vec<Vec<DbUpdate>> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let n_graphs = db.len() as u32;
    let mut used_edges: FxHashSet<(u32, u32, u32)> = FxHashSet::default();
    (0..n_windows)
        .map(|_| {
            let mut window = Vec::new();
            for _ in 0..params.updates_per_graph.max(1) {
                if n_graphs == 0 {
                    break;
                }
                let gid = rng.random_range(0..n_graphs);
                let g = db.graph(gid);
                let n = g.vertex_count() as u32;
                if n == 0 {
                    continue;
                }
                let update = match rng.random_range(0..4u32) {
                    0 => GraphUpdate::RelabelVertex {
                        v: rng.random_range(0..n),
                        label: pick_label(&mut rng, params),
                    },
                    1 if g.edge_count() > 0 => GraphUpdate::RelabelEdge {
                        e: rng.random_range(0..g.edge_count() as u32),
                        label: pick_label(&mut rng, params),
                    },
                    2 if n >= 2 => {
                        let mut planned = None;
                        for _ in 0..8 {
                            let a = rng.random_range(0..n);
                            let b = rng.random_range(0..n);
                            let (u, v) = (a.min(b), a.max(b));
                            if u != v
                                && g.edge_between(u, v).is_none()
                                && used_edges.insert((gid, u, v))
                            {
                                planned = Some(GraphUpdate::AddEdge {
                                    u,
                                    v,
                                    label: pick_label(&mut rng, params),
                                });
                                break;
                            }
                        }
                        match planned {
                            Some(p) => p,
                            None => continue,
                        }
                    }
                    _ => GraphUpdate::AddVertex {
                        label: pick_label(&mut rng, params),
                        attach_to: rng.random_range(0..n),
                        elabel: pick_label(&mut rng, params),
                    },
                };
                window.push(DbUpdate { gid, update });
            }
            window
        })
        .collect()
}

/// Derives per-vertex update frequencies from a planned workload: the count
/// of planned updates touching each vertex. This is the `v.ufreq` knowledge
/// of Section 4.1 — the partitioner knows which vertices the workload will
/// hit, matching the paper's spatiotemporal motivation.
///
/// Edge re-labels are attributed to both endpoints (isolating the endpoints
/// isolates the edge), resolved against a scratch copy that replays the
/// plan so evolving edge ids stay meaningful.
///
/// # Errors
///
/// Fails with the [`GraphError`] [`apply_all`] gives for the first update
/// that does not apply to the replayed database: a gid past its end, an
/// out-of-range vertex or edge id, a self-loop or a duplicate edge.
pub fn ufreq_from_updates(db: &GraphDb, plan: &[DbUpdate]) -> Result<Vec<Vec<f64>>, GraphError> {
    let mut ufreq: Vec<Vec<f64>> = db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect();
    let mut scratch = db.clone();
    for up in plan {
        let touched = if (up.gid as usize) < scratch.len() {
            up.update.touched_vertices(scratch.graph(up.gid))
        } else {
            Vec::new()
        };
        apply_all(&mut scratch, std::slice::from_ref(up))?;
        let per_graph = &mut ufreq[up.gid as usize];
        for v in touched {
            // Vertices added by *earlier planned updates* are beyond the
            // pre-update vertex count; they have no pre-update slot.
            if (v as usize) < per_graph.len() {
                per_graph[v as usize] += 1.0;
            }
        }
    }
    Ok(ufreq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GenParams};
    use graphmine_graph::update::apply_all;
    use graphmine_graph::Graph;

    fn small_db() -> GraphDb {
        generate(&GenParams::new(40, 8, 6, 8, 3))
    }

    #[test]
    fn plan_respects_fraction_and_applies_cleanly() {
        let db = small_db();
        for frac in [0.2, 0.5, 0.8] {
            let params = UpdateParams::new(frac, 3, UpdateKind::Mixed, 6);
            let plan = plan_updates(&db, &params);
            let updated_gids: std::collections::BTreeSet<u32> =
                plan.iter().map(|u| u.gid).collect();
            let expect = (db.len() as f64 * frac).round() as usize;
            assert!(updated_gids.len() <= expect);
            assert!(updated_gids.len() >= expect.saturating_sub(2), "{}", updated_gids.len());
            let mut copy = db.clone();
            apply_all(&mut copy, &plan).expect("plan applies in order");
        }
    }

    #[test]
    fn relabel_kind_plans_only_relabels() {
        let db = small_db();
        let plan = plan_updates(&db, &UpdateParams::new(0.5, 4, UpdateKind::Relabel, 6));
        assert!(!plan.is_empty());
        assert!(plan.iter().all(|u| matches!(
            u.update,
            GraphUpdate::RelabelVertex { .. } | GraphUpdate::RelabelEdge { .. }
        )));
    }

    #[test]
    fn add_kind_plans_only_additions() {
        let db = small_db();
        let plan = plan_updates(&db, &UpdateParams::new(0.5, 4, UpdateKind::AddStructure, 6));
        assert!(!plan.is_empty());
        assert!(plan.iter().all(|u| matches!(
            u.update,
            GraphUpdate::AddEdge { .. } | GraphUpdate::AddVertex { .. }
        )));
    }

    #[test]
    fn new_labels_appear_above_alphabet() {
        let db = small_db();
        let mut params = UpdateParams::new(0.8, 6, UpdateKind::Relabel, 6);
        params.new_label_prob = 1.0;
        let plan = plan_updates(&db, &params);
        for u in &plan {
            match u.update {
                GraphUpdate::RelabelVertex { label, .. }
                | GraphUpdate::RelabelEdge { label, .. } => {
                    assert!(label >= 6);
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn ufreq_counts_touched_vertices() {
        let db = small_db();
        let plan = plan_updates(&db, &UpdateParams::new(0.4, 3, UpdateKind::Mixed, 6));
        let ufreq = ufreq_from_updates(&db, &plan).expect("the plan applies");
        assert_eq!(ufreq.len(), db.len());
        let total: f64 = ufreq.iter().flatten().sum();
        assert!(total > 0.0);
        // Graphs outside the plan have all-zero ufreq.
        let updated: std::collections::BTreeSet<u32> = plan.iter().map(|u| u.gid).collect();
        for (gid, uf) in ufreq.iter().enumerate() {
            if !updated.contains(&(gid as u32)) {
                assert!(uf.iter().all(|&x| x == 0.0));
            }
        }
    }

    #[test]
    fn a_plan_that_does_not_apply_is_the_error_apply_all_gives() {
        let db = small_db();
        let edges = db.graph(7).edge_count() as u32;
        for update in [
            DbUpdate { gid: 7, update: GraphUpdate::DeleteEdge { e: edges } },
            DbUpdate { gid: 3, update: GraphUpdate::AddEdge { u: 0, v: 0, label: 1 } },
            DbUpdate {
                gid: db.len() as u32,
                update: GraphUpdate::RelabelVertex { v: 0, label: 1 },
            },
        ] {
            // Behind a valid update, so the replay has started.
            let plan = [
                DbUpdate { gid: 0, update: GraphUpdate::RelabelVertex { v: 0, label: 1 } },
                update,
            ];
            let want = apply_all(&mut db.clone(), &plan).unwrap_err();
            assert_eq!(ufreq_from_updates(&db, &plan), Err(want), "{update:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let db = small_db();
        let p = UpdateParams::new(0.5, 2, UpdateKind::Mixed, 6);
        assert_eq!(plan_updates(&db, &p), plan_updates(&db, &p));
        assert_ne!(plan_updates(&db, &p), plan_updates(&db, &p.with_seed(99)));
    }

    #[test]
    fn locality_concentrates_targets() {
        let db = generate(&GenParams::new(60, 14, 6, 8, 3));
        let spread = |locality: f64| -> usize {
            let p = UpdateParams::new(1.0, 6, UpdateKind::Relabel, 6).with_locality(locality);
            let plan = plan_updates(&db, &p);
            let uf = ufreq_from_updates(&db, &plan).expect("the plan applies");
            // Count distinct touched vertices across all graphs.
            uf.iter().flatten().filter(|&&x| x > 0.0).count()
        };
        let hot = spread(1.0);
        let uniform = spread(0.0);
        assert!(
            hot < uniform,
            "locality 1.0 touched {hot} distinct vertices, uniform touched {uniform}"
        );
    }

    #[test]
    fn churn_plans_deletes_and_applies_cleanly() {
        let db = small_db();
        let plan = plan_updates(&db, &UpdateParams::new(0.8, 6, UpdateKind::Churn, 6));
        assert!(!plan.is_empty());
        assert!(
            plan.iter().any(|u| matches!(
                u.update,
                GraphUpdate::DeleteEdge { .. } | GraphUpdate::DeleteVertex { .. }
            )),
            "churn workloads must exercise the delete vocabulary"
        );
        let mut copy = db.clone();
        apply_all(&mut copy, &plan).expect("churn plan applies in order");
    }

    #[test]
    fn churn_deletes_never_disconnect() {
        let db = small_db();
        let plan = plan_updates(&db, &UpdateParams::new(1.0, 8, UpdateKind::Churn, 6));
        let mut copy = db.clone();
        apply_all(&mut copy, &plan).unwrap();
        // Relative invariant: the generator does not promise connected
        // seeds, but churn must never disconnect a graph that was.
        for (gid, g) in copy.iter() {
            if db.graph(gid).is_connected() {
                assert!(g.is_connected(), "graph {gid} disconnected by churn");
            }
        }
    }

    #[test]
    fn window_plans_apply_from_any_suffix() {
        let db = small_db();
        let params = UpdateParams::new(1.0, 4, UpdateKind::Mixed, 6);
        let windows = plan_windows(&db, &params, 8);
        assert_eq!(windows.len(), 8);
        assert!(windows.iter().flatten().count() > 0);
        // The sliding-window contract: any contiguous sub-sequence of
        // windows applies cleanly to the base database in order.
        for start in 0..windows.len() {
            let mut copy = db.clone();
            for w in &windows[start..] {
                apply_all(&mut copy, w)
                    .unwrap_or_else(|e| panic!("suffix from window {start} failed: {e}"));
            }
        }
        // Ops only ever target base entities, so expiry on the serving
        // side can never invalidate a later window.
        for w in &windows {
            for up in w {
                let g = db.graph(up.gid);
                let (nv, ne) = (g.vertex_count() as u32, g.edge_count() as u32);
                match up.update {
                    GraphUpdate::RelabelVertex { v, .. } => assert!(v < nv),
                    GraphUpdate::RelabelEdge { e, .. } => assert!(e < ne),
                    GraphUpdate::AddEdge { u, v, .. } => assert!(u < nv && v < nv),
                    GraphUpdate::AddVertex { attach_to, .. } => assert!(attach_to < nv),
                    _ => panic!("window plans never delete"),
                }
            }
        }
    }

    #[test]
    fn ufreq_attributes_edge_relabels_to_endpoints() {
        let mut g = Graph::new();
        let a = g.add_vertex(0);
        let b = g.add_vertex(1);
        g.add_vertex(2);
        g.add_edge(a, b, 0).unwrap();
        let db = GraphDb::from_graphs(vec![g]);
        let plan = [DbUpdate { gid: 0, update: GraphUpdate::RelabelEdge { e: 0, label: 9 } }];
        let uf = ufreq_from_updates(&db, &plan).expect("the plan applies");
        assert_eq!(uf[0], vec![1.0, 1.0, 0.0]);
    }
}
