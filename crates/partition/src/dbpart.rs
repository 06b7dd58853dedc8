//! `DBPartition` (Fig. 6): recursively dividing a graph database into units.
//!
//! The database is split by a binary tree of bi-partitions: the root holds
//! the original database; each internal node's two children hold the two
//! pieces of every graph (gid-aligned, connective edges in both); the `k`
//! leaves are the mining units `U_1..U_k`. Splits are performed level by
//! level, left to right, exactly like the paper's loop (`l = ⌊log2 k⌋` full
//! levels, then the first `k − 2^l` nodes of the last level are split once
//! more).
//!
//! The tree also supports **incremental maintenance**
//! ([`DbPartition::apply_update`]). The root applies each update through
//! the graph's own mutators, which refuse an invalid one before any piece
//! changes; the pieces then follow what the root did. A relabel or a delete
//! reaches exactly the pieces that hold its vertex or edge, and a delete
//! replays the root graph's removal record (the edges a cascade removed,
//! and every id a swap-remove moved). A new cross edge becomes a connective
//! edge (present in both children); a new vertex grows the single piece its
//! attachment point lives in. The method reports which units were touched,
//! which is the `set` word IncPartMiner uses to decide what to re-mine
//! (Fig. 12, line 4).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use graphmine_graph::{
    DbUpdate, ELabel, EdgeId, Graph, GraphDb, GraphError, GraphId, GraphUpdate, VLabel, VertexId,
};
use graphmine_telemetry::Telemetry;

use crate::split::Splitter;
use crate::{AssignScratch, BatchRunner, Bipartitioner, Inline, WorkItem};

/// Index of a node in the partition tree.
pub type NodeId = usize;

/// What one update touched: the units whose pieces changed, and every tree
/// node (including internal nodes and the root) whose piece changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateImpact {
    /// Affected unit indices, sorted.
    pub units: Vec<usize>,
    /// Affected node ids, sorted (always includes the root).
    pub nodes: Vec<NodeId>,
}

/// One node of the partition tree: a gid-aligned database of (sub)graphs
/// plus provenance maps back to the *original* database.
///
/// The root's database is the original one (it shares every graph with the
/// database the tree was built from), so its provenance is the identity and
/// is not stored: [`PartNode::original_vertex`] and
/// [`PartNode::original_edge`] answer for every node alike.
#[derive(Debug, Clone)]
pub struct PartNode {
    /// The (sub)graph of every original graph at this node, gid-aligned.
    pub db: GraphDb,
    /// Per gid, one block: node vertex -> original vertex, then node edge
    /// -> original edge, split at the piece's vertex count (empty at the
    /// root).
    maps: Vec<Vec<u32>>,
    /// Children in the split tree (`None` for unit leaves).
    pub children: Option<(NodeId, NodeId)>,
    /// Unit index for leaves.
    pub unit: Option<usize>,
    /// Distance from the root.
    pub depth: usize,
}

impl PartNode {
    fn is_root(&self) -> bool {
        self.depth == 0
    }

    /// The original vertex that vertex `pv` of this node's piece of `gid`
    /// stands for.
    pub fn original_vertex(&self, gid: GraphId, pv: VertexId) -> VertexId {
        if self.is_root() {
            pv
        } else {
            self.vertex_map(gid)[pv as usize]
        }
    }

    /// The original edge that edge `pe` of this node's piece of `gid`
    /// stands for.
    pub fn original_edge(&self, gid: GraphId, pe: EdgeId) -> EdgeId {
        if self.is_root() {
            pe
        } else {
            self.edge_map(gid)[pe as usize]
        }
    }

    /// Where the maps block of `gid` splits: the piece's vertex count.
    fn map_split(&self, gid: GraphId) -> usize {
        self.db.graph(gid).vertex_count()
    }

    /// The piece of `gid`'s vertex map (below the root only).
    fn vertex_map(&self, gid: GraphId) -> &[VertexId] {
        &self.maps[gid as usize][..self.map_split(gid)]
    }

    /// The piece of `gid`'s edge map (below the root only).
    fn edge_map(&self, gid: GraphId) -> &[EdgeId] {
        &self.maps[gid as usize][self.map_split(gid)..]
    }

    fn position_of_vertex(&self, gid: GraphId, orig_v: VertexId) -> Option<VertexId> {
        if self.is_root() {
            return (orig_v < self.db.graph(gid).vertex_count() as VertexId).then_some(orig_v);
        }
        self.vertex_map(gid).iter().position(|&v| v == orig_v).map(|i| i as VertexId)
    }

    fn position_of_edge(&self, gid: GraphId, orig_e: EdgeId) -> Option<EdgeId> {
        if self.is_root() {
            return (orig_e < self.db.graph(gid).edge_count() as EdgeId).then_some(orig_e);
        }
        self.edge_map(gid).iter().position(|&e| e == orig_e).map(|i| i as EdgeId)
    }

    /// Adds original edge `orig_e` between the original vertices of
    /// `ends` (each with its label) to the piece of `gid`, first adding an
    /// end the piece lacks; the maps record every addition (a vertex entry
    /// goes at the vertex map's end, before the edge map).
    fn add_edge(
        &mut self,
        gid: GraphId,
        ends: [(VertexId, VLabel); 2],
        label: ELabel,
        orig_e: EdgeId,
    ) {
        let [pu, pv] = ends.map(|(orig_v, vlabel)| {
            self.position_of_vertex(gid, orig_v).unwrap_or_else(|| {
                let pv = self.db.graph_mut(gid).add_vertex(vlabel);
                self.maps[gid as usize].insert(pv as usize, orig_v);
                pv
            })
        });
        self.db.graph_mut(gid).add_edge(pu, pv, label).expect("the root took the edge: it is new");
        self.maps[gid as usize].push(orig_e);
    }

    /// Applies a relabel or a delete, in this piece's ids, to the piece of
    /// `gid`. A delete's swap-remove is mirrored on the maps: the entry of
    /// the element that took the freed id moves into its slot, and the
    /// map's last slot goes (the edge map ends the block, so the block's
    /// swap-remove is the edge map's).
    fn apply(&mut self, gid: GraphId, update: GraphUpdate) {
        let g = self.db.graph_mut(gid);
        update.apply(g).expect("a mapped id is in range");
        let (split, edges) = (g.vertex_count(), g.edge_count());
        let maps = &mut self.maps[gid as usize];
        match update {
            GraphUpdate::DeleteEdge { e } => {
                maps.swap_remove(split + e as usize);
            }
            GraphUpdate::DeleteVertex { v } => {
                maps[v as usize] = maps[split];
                maps.remove(split);
            }
            _ => {}
        }
        debug_assert_eq!(
            maps.len(),
            split + edges,
            "the maps cover the piece's vertices and edges"
        );
    }

    /// Renames original element `old` to `new` in the vertex map
    /// (`vertices`) or the edge map of `gid`, where it appears.
    fn rename(&mut self, gid: GraphId, vertices: bool, old: u32, new: u32) {
        let split = self.map_split(gid);
        let maps = &mut self.maps[gid as usize];
        let map = if vertices { &mut maps[..split] } else { &mut maps[split..] };
        if let Some(slot) = map.iter_mut().find(|x| **x == old) {
            *slot = new;
        }
    }
}

/// The recursive database partition: a binary split tree with `k` unit
/// leaves.
#[derive(Debug, Clone)]
pub struct DbPartition {
    nodes: Vec<PartNode>,
    root: NodeId,
    unit_nodes: Vec<NodeId>,
    /// Per gid, the update frequency of each original vertex, for the graphs
    /// with one that is not zero; every other graph's read as zeros. A
    /// piece vertex's is its original's.
    ufreq: BTreeMap<GraphId, Vec<f64>>,
    /// `true` once a delete update has been applied. Deletes can legally
    /// empty a unit's piece (the build-time non-emptiness clamp only
    /// governs splits), so [`DbPartition::check_invariants`] relaxes the
    /// unit-non-emptiness rule on a shrunk partition.
    deletes_applied: bool,
}

impl DbPartition {
    /// Partitions `db` into `k >= 1` units with the given bi-partitioner.
    ///
    /// `ufreq[gid][v]` is the update frequency of vertex `v` of graph `gid`
    /// (the workload knowledge the paper's criteria consume); a static
    /// database passes an empty table, which reads as zeros everywhere. The
    /// tree keeps a copy of the rows that hold anything but zeros, so for a
    /// static database it keeps none.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, if a non-empty `ufreq` is not shaped like `db`,
    /// or if an entry is not finite (the message names its gid and vertex).
    pub fn build(
        db: &GraphDb,
        ufreq: &[Vec<f64>],
        partitioner: &dyn Bipartitioner,
        k: usize,
    ) -> Self {
        Self::build_on(db, ufreq, partitioner, k, &Telemetry::new(), &Inline)
    }

    /// [`DbPartition::build`] recording one `partition_split` span per
    /// bi-partitioned tree node into `tel` (nested under the caller's
    /// `partition` span when one is open), with every node's split handed to
    /// `runner` as independent work items, one per [`SPLIT_RANGE`] gids,
    /// labeled `split:{node}:{first gid}..{end gid}`. The items and their
    /// order do not depend on the runner, and neither does the result.
    pub fn build_on(
        db: &GraphDb,
        ufreq: &[Vec<f64>],
        partitioner: &dyn Bipartitioner,
        k: usize,
        tel: &Telemetry,
        runner: &dyn BatchRunner,
    ) -> Self {
        Self::build_with_range(db, ufreq, partitioner, k, tel, runner, SPLIT_RANGE)
    }

    /// [`DbPartition::build_on`] with the work-item size as an argument —
    /// the seam the tests use to show that one range and many give the same
    /// tree. Everything else builds with [`SPLIT_RANGE`].
    #[doc(hidden)]
    pub fn build_with_range(
        db: &GraphDb,
        ufreq: &[Vec<f64>],
        partitioner: &dyn Bipartitioner,
        k: usize,
        tel: &Telemetry,
        runner: &dyn BatchRunner,
        range: usize,
    ) -> Self {
        assert!(k >= 1, "at least one unit");
        assert!(range >= 1, "at least one graph per work item");
        if !ufreq.is_empty() {
            assert_eq!(ufreq.len(), db.len(), "one ufreq vector per graph");
        }
        for (gid, row) in ufreq.iter().enumerate() {
            let g = db.graph(gid as GraphId);
            assert_eq!(row.len(), g.vertex_count(), "one ufreq entry per vertex of graph {gid}");
            if let Some(v) = row.iter().position(|f| !f.is_finite()) {
                panic!("non-finite ufreq {} at graph {gid}, vertex {v}", row[v]);
            }
        }
        let root =
            PartNode { db: db.clone(), maps: Vec::new(), children: None, unit: None, depth: 0 };
        let ufreq = ufreq
            .iter()
            .enumerate()
            .filter(|(_, row)| row.iter().any(|f| !is_zero(*f)))
            .map(|(gid, row)| (gid as GraphId, row.clone()))
            .collect();
        let mut part = DbPartition {
            nodes: vec![root],
            root: 0,
            unit_nodes: Vec::new(),
            ufreq,
            deletes_applied: false,
        };

        // Level-by-level, left-to-right splitting (Fig. 6). Leaves whose
        // database holds no edge at all are frozen as units instead of
        // being split further: an edgeless piece carries no mining
        // information, so splitting it can only mint more empty units for
        // the merge-join to churn through. A fully edgeless database may
        // therefore yield fewer than `k` units.
        let mut leaves: VecDeque<NodeId> = VecDeque::from([0]);
        let mut exhausted: Vec<NodeId> = Vec::new();
        while exhausted.len() + leaves.len() < k {
            let Some(node_id) = leaves.pop_front() else {
                break;
            };
            if part.nodes[node_id].db.total_edges() == 0 {
                exhausted.push(node_id);
                continue;
            }
            let _span = tel.span_node("partition_split", node_id as u64);
            let (a, b) = part.split_node(node_id, partitioner, runner, range);
            leaves.push_back(a);
            leaves.push_back(b);
        }
        for (unit, &node_id) in exhausted.iter().chain(leaves.iter()).enumerate() {
            part.nodes[node_id].unit = Some(unit);
            part.unit_nodes.push(node_id);
        }
        part
    }

    fn split_node(
        &mut self,
        node_id: NodeId,
        partitioner: &dyn Bipartitioner,
        runner: &dyn BatchRunner,
        range: usize,
    ) -> (NodeId, NodeId) {
        let node = &self.nodes[node_id];
        let ufreq = &self.ufreq;
        let n_graphs = node.db.len();
        // The items fill disjoint gid ranges of the children's columns in
        // place: nothing to gather, whatever order they finish in.
        let mut halves = [ChildColumns::blank(n_graphs), ChildColumns::blank(n_graphs)];
        let [half1, half2] = &mut halves;
        let items = half1
            .chunks_mut(range)
            .zip(half2.chunks_mut(range))
            .enumerate()
            .map(|(i, (chunk1, chunk2))| {
                let first = i * range;
                WorkItem {
                    label: format!("split:{node_id}:{first}..{}", first + chunk1.graphs.len()),
                    run: Box::new(move || {
                        split_range(node, ufreq, first, [chunk1, chunk2], partitioner)
                    }),
                }
            })
            .collect();
        runner.run_batch(items);
        let depth = node.depth + 1;
        let [a, b] = halves.map(|half| {
            self.nodes.push(PartNode {
                db: half.graphs.into_iter().map(|g| g.expect("every gid was split")).collect(),
                maps: half.maps,
                children: None,
                unit: None,
                depth,
            });
            self.nodes.len() - 1
        });
        self.nodes[node_id].children = Some((a, b));
        (a, b)
    }

    /// Number of units.
    pub fn unit_count(&self) -> usize {
        self.unit_nodes.len()
    }

    /// The root node (holds the evolving original database).
    pub fn root(&self) -> &PartNode {
        &self.nodes[self.root]
    }

    /// Root node id.
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &PartNode {
        &self.nodes[id]
    }

    /// Total number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node backing unit `j`.
    pub fn unit_node(&self, j: usize) -> &PartNode {
        &self.nodes[self.unit_nodes[j]]
    }

    /// The tree-node id backing unit `j`, from the precomputed unit→node
    /// map — O(1), replacing the `O(units × nodes)` scan over
    /// `node_count()` the mining and incremental paths used to do.
    pub fn unit_node_id(&self, j: usize) -> NodeId {
        self.unit_nodes[j]
    }

    /// The databases of all units, in unit order.
    pub fn unit_dbs(&self) -> Vec<&GraphDb> {
        self.unit_nodes.iter().map(|&n| &self.nodes[n].db).collect()
    }

    /// Units whose piece of `gid` contains original vertex `orig_v`.
    pub fn units_containing_vertex(&self, gid: GraphId, orig_v: VertexId) -> Vec<usize> {
        self.unit_nodes
            .iter()
            .enumerate()
            .filter(|&(_, &n)| self.nodes[n].position_of_vertex(gid, orig_v).is_some())
            .map(|(j, _)| j)
            .collect()
    }

    /// Reassembles graph `gid` from its unit pieces (edge union by original
    /// edge id) — used to verify lossless recovery.
    pub fn recovered_graph(&self, gid: GraphId) -> Graph {
        let root_g = self.nodes[self.root].db.graph(gid);
        let mut g = Graph::with_capacity(root_g.vertex_count(), root_g.edge_count());
        for _ in 0..root_g.vertex_count() {
            g.add_vertex(u32::MAX); // placeholder, filled from pieces
        }
        // Collect labels and edges keyed by their *original* ids so the
        // recovered graph is structurally identical, not just isomorphic.
        let mut edges: Vec<Option<(VertexId, VertexId, ELabel)>> = vec![None; root_g.edge_count()];
        for &n in &self.unit_nodes {
            let node = &self.nodes[n];
            let pg = node.db.graph(gid);
            for pv in 0..pg.vertex_count() as VertexId {
                let ov = node.original_vertex(gid, pv);
                g.set_vlabel(ov, pg.vlabel(pv)).expect("original vertex in range");
            }
            for (pe, u, v, el) in pg.edges() {
                let (ou, ov) = (node.original_vertex(gid, u), node.original_vertex(gid, v));
                edges[node.original_edge(gid, pe) as usize] = Some((ou, ov, el));
            }
        }
        for e in edges.into_iter().flatten() {
            g.add_edge(e.0, e.1, e.2).expect("unique original edges");
        }
        g
    }

    /// Structural self-check used by the correctness oracle after builds
    /// and updates.
    ///
    /// Verifies, for every unit and every gid:
    ///
    /// * gid alignment — each unit database has exactly one (possibly
    ///   empty) piece per root graph;
    /// * unit non-emptiness — if the root database has any edge, every
    ///   unit database has at least one edge (the degenerate-split clamp
    ///   guarantees this);
    /// * provenance — vertex/edge maps are the same length as the piece
    ///   graph, point at in-range root elements, and piece labels agree
    ///   with the root labels they map to;
    /// * edge coverage — every root edge appears in at least one unit
    ///   (connective edges appear in several);
    /// * vertex coverage — every root vertex appears in at least one unit,
    ///   including isolated vertices (which live in exactly one piece per
    ///   split so relabels and recovery can reach them).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let root = &self.nodes[self.root];
        let n_graphs = root.db.len();
        for (j, &nid) in self.unit_nodes.iter().enumerate() {
            let node = &self.nodes[nid];
            if node.db.len() != n_graphs {
                return Err(format!(
                    "unit {j}: {} piece graphs for {n_graphs} root graphs",
                    node.db.len()
                ));
            }
            if !self.deletes_applied && root.db.total_edges() > 0 && node.db.total_edges() == 0 {
                return Err(format!("unit {j} is edgeless while the root database has edges"));
            }
        }
        for gid in 0..n_graphs as GraphId {
            let g = root.db.graph(gid);
            let mut covered = vec![false; g.edge_count()];
            let mut v_covered = vec![false; g.vertex_count()];
            for (j, &nid) in self.unit_nodes.iter().enumerate() {
                let node = &self.nodes[nid];
                let pg = node.db.graph(gid);
                if !node.is_root() {
                    let maps = node.maps[gid as usize].len();
                    if maps != pg.vertex_count() + pg.edge_count() {
                        return Err(format!(
                            "unit {j} gid {gid}: provenance maps hold {maps} entries for a piece \
                             of ({}, {})",
                            pg.vertex_count(),
                            pg.edge_count()
                        ));
                    }
                }
                for pv in 0..pg.vertex_count() as VertexId {
                    let ov = node.original_vertex(gid, pv);
                    if ov as usize >= g.vertex_count() {
                        return Err(format!("unit {j} gid {gid}: vertex map points at {ov}"));
                    }
                    v_covered[ov as usize] = true;
                    if pg.vlabel(pv) != g.vlabel(ov) {
                        return Err(format!(
                            "unit {j} gid {gid}: piece vertex {pv} label {} != root vertex {ov} \
                             label {}",
                            pg.vlabel(pv),
                            g.vlabel(ov)
                        ));
                    }
                }
                for (pe, pu, pv, pel) in pg.edges() {
                    let oe = node.original_edge(gid, pe);
                    if oe as usize >= g.edge_count() {
                        return Err(format!("unit {j} gid {gid}: edge map points at {oe}"));
                    }
                    covered[oe as usize] = true;
                    let (ou, ov, oel) = g.edge(oe);
                    if pel != oel {
                        return Err(format!(
                            "unit {j} gid {gid}: piece edge {pe} label {pel} != root edge {oe} \
                             label {oel}"
                        ));
                    }
                    let (mu, mv) = (node.original_vertex(gid, pu), node.original_vertex(gid, pv));
                    if (mu, mv) != (ou, ov) && (mu, mv) != (ov, ou) {
                        return Err(format!(
                            "unit {j} gid {gid}: piece edge {pe} maps to ({mu},{mv}), root edge \
                             {oe} joins ({ou},{ov})"
                        ));
                    }
                }
            }
            if let Some(missing) = covered.iter().position(|&c| !c) {
                return Err(format!("gid {gid}: root edge {missing} appears in no unit"));
            }
            if let Some(missing) = v_covered.iter().position(|&c| !c) {
                return Err(format!("gid {gid}: root vertex {missing} appears in no unit"));
            }
        }
        Ok(())
    }

    /// Applies one update to the partitioned database: the root database
    /// and every affected piece are updated in place. Returns the sorted
    /// list of units whose pieces changed.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] (and changes nothing) if the update is not
    /// applicable to the current root database.
    pub fn apply_update(&mut self, up: DbUpdate) -> Result<Vec<usize>, GraphError> {
        Ok(self.apply_update_impact(up)?.units)
    }

    /// Like [`DbPartition::apply_update`], additionally reporting every
    /// tree *node* whose piece changed — what incremental re-merging needs
    /// to invalidate cached per-node results.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] (and changes nothing) if the update is not
    /// applicable to the current root database.
    pub fn apply_update_impact(&mut self, up: DbUpdate) -> Result<UpdateImpact, GraphError> {
        let DbUpdate { gid, update } = up;
        let root = &mut self.nodes[self.root].db;
        if gid as usize >= root.len() {
            return Err(GraphError::GraphOutOfRange { graph: gid, len: root.len() as u32 });
        }
        // The root applies the update through the graph's own mutators,
        // which refuse an invalid one before anything changes; the pieces
        // then follow what the root did.
        let root_g = root.graph_mut(gid);
        let mut touched = vec![self.root];
        match update {
            GraphUpdate::RelabelVertex { .. } | GraphUpdate::RelabelEdge { .. } => {
                update.apply(root_g)?;
                self.follow(gid, update, None, &mut touched);
            }
            GraphUpdate::AddEdge { u, v, label } => {
                update.apply(root_g)?;
                let ends = [(u, root_g.vlabel(u)), (v, root_g.vlabel(v))];
                let orig_e = root_g.edge_count() as EdgeId - 1;
                self.add_edge_below(self.root, gid, ends, label, orig_e, &mut touched);
            }
            GraphUpdate::AddVertex { label, attach_to, elabel } => {
                update.apply(root_g)?;
                let ends = [
                    (attach_to, root_g.vlabel(attach_to)),
                    (root_g.vertex_count() as VertexId - 1, label),
                ];
                let orig_e = root_g.edge_count() as EdgeId - 1;
                self.add_vertex_below(gid, ends, elabel, orig_e, &mut touched);
                // A new vertex starts at 0 (no further planned updates).
                if let Some(row) = self.ufreq.get_mut(&gid) {
                    row.push(0.0);
                }
            }
            GraphUpdate::DeleteEdge { e } => {
                let removal = root_g.delete_edge(e)?;
                self.follow(gid, update, removal.moved, &mut touched);
                self.deletes_applied = true;
            }
            GraphUpdate::DeleteVertex { v } => {
                let removal = root_g.delete_vertex(v)?;
                for edge in removal.removed_edges {
                    let delete = GraphUpdate::DeleteEdge { e: edge.e };
                    self.follow(gid, delete, edge.moved, &mut touched);
                }
                self.follow(gid, update, removal.moved_vertex, &mut touched);
                if let Some(row) = self.ufreq.get_mut(&gid) {
                    row.swap_remove(v as usize);
                    if row.iter().all(|f| is_zero(*f)) {
                        self.ufreq.remove(&gid);
                    }
                }
                self.deletes_applied = true;
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let units: Vec<usize> = touched.iter().filter_map(|&n| self.nodes[n].unit).collect();
        Ok(UpdateImpact { units, nodes: touched })
    }

    /// The update frequency of original vertex `v` of graph `gid`, as the
    /// build was given it and updates have kept it (a vertex an update adds
    /// starts at 0). The one table the tree keeps: a piece vertex's
    /// frequency is its original's.
    pub fn ufreq(&self, gid: GraphId, v: VertexId) -> f64 {
        self.ufreq.get(&gid).map_or(0.0, |row| row[v as usize])
    }

    /// Makes the pieces below the root follow what the root just did to
    /// one original vertex or edge of `gid`: a relabel or a delete, named
    /// by its root id. A piece holds an element only where its parent's
    /// does, so the descent leaves a subtree at the first piece without
    /// it. When the root's swap-remove renumbered original `moved` into
    /// the freed id, every map naming `moved` is then renamed.
    fn follow(
        &mut self,
        gid: GraphId,
        update: GraphUpdate,
        moved: Option<u32>,
        touched: &mut Vec<NodeId>,
    ) {
        // The same update in each piece's ids.
        let mut piece = update;
        let (&mut orig, of_vertex) = target(&mut piece);
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = &mut self.nodes[n];
            if n != self.root {
                let at = if of_vertex {
                    node.position_of_vertex(gid, orig)
                } else {
                    node.position_of_edge(gid, orig)
                };
                let Some(at) = at else {
                    continue;
                };
                *target(&mut piece).0 = at;
                node.apply(gid, piece);
                touched.push(n);
            }
            stack.extend(node.children.into_iter().flat_map(|(a, b)| [a, b]));
        }
        if let Some(old) = moved {
            for node in self.nodes.iter_mut().filter(|n| !n.is_root()) {
                node.rename(gid, of_vertex, old, orig);
            }
        }
    }

    /// Places original edge `orig_e` between the original vertices of
    /// `ends` in the pieces below `node_id` it belongs to: in each child
    /// holding both ends; else, a cross edge, in both children as a
    /// connective edge; else in the child holding one end (the left child
    /// when neither holds either).
    fn add_edge_below(
        &mut self,
        node_id: NodeId,
        gid: GraphId,
        ends: [(VertexId, VLabel); 2],
        label: ELabel,
        orig_e: EdgeId,
        touched: &mut Vec<NodeId>,
    ) {
        let Some((a, b)) = self.nodes[node_id].children else {
            return;
        };
        let has = |n: NodeId, i: usize| self.nodes[n].position_of_vertex(gid, ends[i].0).is_some();
        let (au, av) = (has(a, 0), has(a, 1));
        let (bu, bv) = (has(b, 0), has(b, 1));
        let targets: Vec<NodeId> = if au && av || bu && bv {
            // Internal to one (or both, if all endpoints are boundary) side.
            let mut t = Vec::new();
            if au && av {
                t.push(a);
            }
            if bu && bv {
                t.push(b);
            }
            t
        } else if (au || av) && (bu || bv) {
            // Cross edge: becomes a new connective edge, in both pieces.
            vec![a, b]
        } else if au || av {
            vec![a]
        } else if bu || bv {
            vec![b]
        } else {
            // Both endpoints were isolated (dropped everywhere): grow the
            // left piece.
            vec![a]
        };
        for t in targets {
            self.nodes[t].add_edge(gid, ends, label, orig_e);
            touched.push(t);
            self.add_edge_below(t, gid, ends, label, orig_e, touched);
        }
    }

    /// Places a new vertex's attaching edge `orig_e` (`ends`: the
    /// attachment point, then the new vertex) below the root. Exactly one
    /// side grows at each split: the first child holding the attachment
    /// point (the left child if it was isolated everywhere) — this is what
    /// keeps vertex additions localised to a single unit.
    fn add_vertex_below(
        &mut self,
        gid: GraphId,
        ends: [(VertexId, VLabel); 2],
        elabel: ELabel,
        orig_e: EdgeId,
        touched: &mut Vec<NodeId>,
    ) {
        let mut node_id = self.root;
        while let Some((a, b)) = self.nodes[node_id].children {
            let holds = |n: NodeId| self.nodes[n].position_of_vertex(gid, ends[0].0).is_some();
            node_id = if holds(a) || !holds(b) { a } else { b };
            self.nodes[node_id].add_edge(gid, ends, elabel, orig_e);
            touched.push(node_id);
        }
    }
}

/// The id a relabel or a delete names, and whether it is a vertex's.
fn target(update: &mut GraphUpdate) -> (&mut u32, bool) {
    match update {
        GraphUpdate::RelabelVertex { v, .. } | GraphUpdate::DeleteVertex { v } => (v, true),
        GraphUpdate::RelabelEdge { e, .. } | GraphUpdate::DeleteEdge { e } => (e, false),
        GraphUpdate::AddEdge { .. } | GraphUpdate::AddVertex { .. } => {
            unreachable!("an addition is placed, not followed")
        }
    }
}

/// Graphs per split work item. A constant of the build, not of the machine:
/// the same items are submitted whatever runs them, so a serial and a
/// pooled build do the same work in the same pieces. Large enough that an
/// item's bookkeeping vanishes, small enough that the paper's smallest
/// scaled database (D4000) still gives two workers four items each.
pub const SPLIT_RANGE: usize = 512;

/// What a child node holds per gid, as the split fills it in.
struct ChildColumns {
    /// `None` until the gid's split writes it.
    graphs: Vec<Option<Arc<Graph>>>,
    /// The piece's maps block: vertex map, then edge map.
    maps: Vec<Vec<u32>>,
}

/// The same columns over one run of consecutive gids.
struct ChildChunk<'a> {
    graphs: &'a mut [Option<Arc<Graph>>],
    maps: &'a mut [Vec<u32>],
}

impl ChildColumns {
    /// Columns of `n` empty entries (none of which allocates).
    fn blank(n: usize) -> Self {
        ChildColumns { graphs: vec![None; n], maps: vec![Vec::new(); n] }
    }

    fn chunks_mut(&mut self, size: usize) -> impl Iterator<Item = ChildChunk<'_>> {
        self.graphs
            .chunks_mut(size)
            .zip(self.maps.chunks_mut(size))
            .map(|(graphs, maps)| ChildChunk { graphs, maps })
    }
}

/// `true` for `+0.0` alone: a row of these is the row the tree does not
/// store. `-0.0` orders below it under `total_cmp`, so it is kept.
fn is_zero(f: f64) -> bool {
    f.to_bits() == 0
}

/// One work item of a node's split: assign → clamp → split for every graph
/// of the run of gids starting at `first` that `out` covers, the piece maps
/// composed with the node's own so they lead back to the original database
/// (at the root, whose maps are the identity, they already do). `ufreq` is
/// the tree's table; below the root a graph's row is gathered through the
/// node's vertex map, and a graph without a row reads as zeros. Every
/// buffer lives as long as the item, so a graph allocates only what its
/// pieces keep.
fn split_range(
    node: &PartNode,
    ufreq: &BTreeMap<GraphId, Vec<f64>>,
    first: usize,
    mut out: [ChildChunk<'_>; 2],
    partitioner: &dyn Bipartitioner,
) {
    let mut splitter = Splitter::default();
    let mut scratch = AssignScratch::default();
    let (mut sides, mut node_uf) = (Vec::new(), Vec::new());
    let len = out[0].graphs.len();
    let mut graphs = [Vec::with_capacity(len), Vec::with_capacity(len)];
    for at in 0..len {
        let gid = (first + at) as GraphId;
        let g = node.db.graph(gid);
        node_uf.clear();
        let uf = match ufreq.get(&gid) {
            Some(row) if node.is_root() => row,
            Some(row) => {
                node_uf.extend(node.vertex_map(gid).iter().map(|&v| row[v as usize]));
                &node_uf
            }
            None => {
                node_uf.resize(g.vertex_count(), 0.0);
                &node_uf
            }
        };
        partitioner.assign(g, uf, &mut sides, &mut scratch);
        clamp_sides(g, &mut sides);
        let pieces = splitter.split(g, &sides);
        for ((chunk, kept), piece) in out.iter_mut().zip(&mut graphs).zip(pieces) {
            let (graph, mut maps) = piece.into_parts();
            if !node.is_root() {
                let (vertex_map, edge_map) = maps.split_at_mut(graph.vertex_count());
                for v in vertex_map {
                    *v = node.original_vertex(gid, *v);
                }
                for e in edge_map {
                    *e = node.original_edge(gid, *e);
                }
            }
            kept.push(graph);
            chunk.maps[at] = maps;
        }
    }
    // Each side's graphs take their `Arc`s in one run, so a unit's graph
    // headers lie side by side for the miner's walks over them rather than
    // between the arrays of both pieces.
    for (chunk, kept) in out.iter_mut().zip(graphs) {
        for (slot, g) in chunk.graphs.iter_mut().zip(kept) {
            *slot = Some(Arc::new(g));
        }
    }
}

/// Clamps a degenerate side assignment of an edge-bearing graph.
///
/// A bi-partitioner optimising for update frequency may park all the
/// weight on isolated (edgeless) vertices, leaving one side with no edge
/// endpoint at all — its piece would then be empty, and an empty unit
/// would flow into the merge-join. When that happens, one endpoint of the
/// first edge is moved onto the empty side, turning that edge connective
/// so both pieces keep at least one edge.
fn clamp_sides(g: &Graph, sides: &mut [bool]) {
    let Some((_, u, _, _)) = g.edges().next() else {
        return; // Edgeless graphs have nothing to clamp.
    };
    for flag in [true, false] {
        let side_has_edge =
            g.edges().any(|(_, a, b, _)| sides[a as usize] == flag || sides[b as usize] == flag);
        if !side_has_edge {
            sides[u as usize] = flag;
            return; // Only one side can be edge-empty when edges exist.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Criteria, GraphPart};

    fn sample_db() -> (GraphDb, Vec<Vec<f64>>) {
        let mut graphs = Vec::new();
        let mut ufreq = Vec::new();
        for i in 0..4u32 {
            let mut g = Graph::new();
            for l in 0..6 {
                g.add_vertex((l + i) % 3);
            }
            g.add_edge(0, 1, 0).unwrap();
            g.add_edge(1, 2, 1).unwrap();
            g.add_edge(2, 0, 0).unwrap();
            g.add_edge(2, 3, 2).unwrap();
            g.add_edge(3, 4, 0).unwrap();
            g.add_edge(4, 5, 1).unwrap();
            g.add_edge(5, 3, 0).unwrap();
            graphs.push(g);
            ufreq.push(vec![0.0, 0.0, 0.0, 1.0, 2.0, 3.0]);
        }
        (GraphDb::from_graphs(graphs), ufreq)
    }

    fn build_k(k: usize) -> DbPartition {
        let (db, uf) = sample_db();
        DbPartition::build(&db, &uf, &GraphPart::new(Criteria::COMBINED), k)
    }

    #[test]
    #[should_panic(expected = "non-finite ufreq NaN at graph 2, vertex 4")]
    fn a_non_finite_ufreq_is_refused_with_its_gid_and_vertex() {
        let (db, mut uf) = sample_db();
        uf[2][4] = f64::NAN;
        DbPartition::build(&db, &uf, &GraphPart::new(Criteria::COMBINED), 2);
    }

    /// The tree keeps a ufreq row only for a graph with a frequency that is
    /// not `+0.0`: none for a static database, a row for `-0.0` (which
    /// `total_cmp` orders apart), none for a vertex an update adds at 0, and
    /// none once deletes leave a row all zeros.
    #[test]
    fn only_rows_with_a_frequency_are_kept() {
        let (db, mut uf) = sample_db();
        let zeros: Vec<Vec<f64>> = uf.iter().map(|row| vec![0.0; row.len()]).collect();
        let part = DbPartition::build(&db, &zeros, &GraphPart::new(Criteria::COMBINED), 2);
        assert!(part.ufreq.is_empty());
        uf[1] = vec![0.0; 6];
        uf[2] = vec![-0.0; 6];
        let mut part = DbPartition::build(&db, &uf, &GraphPart::new(Criteria::COMBINED), 3);
        assert_eq!(part.ufreq.keys().copied().collect::<Vec<_>>(), vec![0, 2, 3]);
        for (gid, row) in uf.iter().enumerate() {
            for (v, &f) in row.iter().enumerate() {
                assert_eq!(part.ufreq(gid as GraphId, v as VertexId).to_bits(), f.to_bits());
            }
        }
        let add = GraphUpdate::AddVertex { label: 8, attach_to: 4, elabel: 3 };
        part.apply_update(DbUpdate { gid: 1, update: add }).unwrap();
        assert!(!part.ufreq.contains_key(&1));
        assert_eq!(part.ufreq(1, 6), 0.0);
        part.apply_update(DbUpdate { gid: 0, update: add }).unwrap();
        assert_eq!(part.ufreq[&0], vec![0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 0.0]);
        for v in [6, 5, 4, 3] {
            part.apply_update(DbUpdate { gid: 0, update: GraphUpdate::DeleteVertex { v } })
                .unwrap();
        }
        assert!(!part.ufreq.contains_key(&0), "an all-zero row is dropped");
        part.check_invariants().unwrap();
    }

    #[test]
    fn builds_k_units_gid_aligned() {
        for k in 1..=6 {
            let part = build_k(k);
            assert_eq!(part.unit_count(), k);
            for j in 0..k {
                assert_eq!(part.unit_node(j).db.len(), 4, "unit {j} gid-aligned");
            }
        }
    }

    #[test]
    fn the_root_shares_every_graph_and_stores_no_provenance() {
        let (db, uf) = sample_db();
        for k in [1, 2, 5] {
            let part = DbPartition::build(&db, &uf, &GraphPart::new(Criteria::COMBINED), k);
            let root = part.root();
            assert!(root.maps.is_empty(), "k={k}");
            for (gid, g) in db.iter() {
                assert!(root.db.shares_graph(&db, gid), "k={k} gid={gid}");
                for v in 0..g.vertex_count() as VertexId {
                    assert_eq!(root.original_vertex(gid, v), v);
                    assert_eq!(root.position_of_vertex(gid, v), Some(v));
                }
                for e in 0..g.edge_count() as EdgeId {
                    assert_eq!(root.original_edge(gid, e), e);
                    assert_eq!(root.position_of_edge(gid, e), Some(e));
                }
                assert_eq!(root.position_of_vertex(gid, g.vertex_count() as VertexId), None);
                assert_eq!(root.position_of_edge(gid, g.edge_count() as EdgeId), None);
            }
        }
    }

    #[test]
    fn unit_node_id_matches_the_linear_scan() {
        for k in 1..=6 {
            let part = build_k(k);
            for j in 0..part.unit_count() {
                let scanned = (0..part.node_count())
                    .find(|&n| part.node(n).unit == Some(j))
                    .expect("every unit has a node");
                assert_eq!(part.unit_node_id(j), scanned, "k={k} unit {j}");
            }
        }
    }

    #[test]
    fn recovery_is_lossless() {
        for k in [1, 2, 3, 4, 5] {
            let part = build_k(k);
            let (db, _) = sample_db();
            for gid in 0..db.len() as u32 {
                let rec = part.recovered_graph(gid);
                let orig = db.graph(gid);
                assert_eq!(rec.edge_count(), orig.edge_count(), "k={k} gid={gid}");
                for (e, u, v, el) in orig.edges() {
                    let (ru, rv, rel) = rec.edge(e);
                    assert_eq!((ru, rv, rel), (u, v, el), "k={k} gid={gid} edge {e}");
                }
                for v in 0..orig.vertex_count() as u32 {
                    // Isolated vertices may be dropped; all others keep labels.
                    if orig.degree(v) > 0 {
                        assert_eq!(rec.vlabel(v), orig.vlabel(v));
                    }
                }
            }
        }
    }

    #[test]
    fn relabel_vertex_touches_only_owning_units() {
        let mut part = build_k(4);
        let expected = part.units_containing_vertex(0, 5);
        let touched = part
            .apply_update(DbUpdate {
                gid: 0,
                update: GraphUpdate::RelabelVertex { v: 5, label: 9 },
            })
            .unwrap();
        assert_eq!(touched, expected);
        assert!(!touched.is_empty());
        assert_eq!(part.root().db.graph(0).vlabel(5), 9);
        // The piece graph also shows the new label.
        for &j in &touched {
            let node = part.unit_node(j);
            let pv = node.position_of_vertex(0, 5).unwrap();
            assert_eq!(node.db.graph(0).vlabel(pv), 9);
        }
    }

    #[test]
    fn add_edge_keeps_recovery_lossless() {
        let mut part = build_k(4);
        let touched = part
            .apply_update(DbUpdate {
                gid: 1,
                update: GraphUpdate::AddEdge { u: 0, v: 3, label: 7 },
            })
            .unwrap();
        assert!(!touched.is_empty());
        let root_g = part.root().db.graph(1).clone();
        assert_eq!(root_g.edge_count(), 8);
        let rec = part.recovered_graph(1);
        assert_eq!(rec.edge_count(), root_g.edge_count());
        for (e, u, v, el) in root_g.edges() {
            assert_eq!(rec.edge(e), (u, v, el));
        }
    }

    #[test]
    fn add_vertex_touches_single_unit() {
        let mut part = build_k(4);
        let touched = part
            .apply_update(DbUpdate {
                gid: 2,
                update: GraphUpdate::AddVertex { label: 8, attach_to: 4, elabel: 3 },
            })
            .unwrap();
        assert_eq!(touched.len(), 1, "vertex growth is localised: {touched:?}");
        let rec = part.recovered_graph(2);
        let root_g = part.root().db.graph(2);
        assert_eq!(rec.edge_count(), root_g.edge_count());
        assert_eq!(root_g.vertex_count(), 7);
    }

    #[test]
    fn invalid_updates_are_rejected_atomically() {
        let mut part = build_k(2);
        let before = part.root().db.graph(0).clone();
        assert!(part
            .apply_update(DbUpdate {
                gid: 0,
                update: GraphUpdate::AddEdge { u: 0, v: 1, label: 5 }
            })
            .is_err()); // duplicate
        assert!(part
            .apply_update(DbUpdate {
                gid: 0,
                update: GraphUpdate::RelabelVertex { v: 99, label: 0 }
            })
            .is_err());
        assert!(part
            .apply_update(DbUpdate {
                gid: 9,
                update: GraphUpdate::RelabelVertex { v: 0, label: 0 }
            })
            .is_err());
        assert_eq!(part.root().db.graph(0), &before);
    }

    #[test]
    fn chained_updates_stay_consistent() {
        let mut part = build_k(3);
        let ups = [
            GraphUpdate::AddVertex { label: 5, attach_to: 0, elabel: 9 }, // new vertex 6
            GraphUpdate::AddEdge { u: 6, v: 4, label: 9 },
            GraphUpdate::RelabelVertex { v: 6, label: 7 },
            GraphUpdate::RelabelEdge { e: 7, label: 1 }, // the vertex-6 attach edge
        ];
        for u in ups {
            part.apply_update(DbUpdate { gid: 3, update: u }).unwrap();
        }
        let root_g = part.root().db.graph(3).clone();
        assert_eq!(root_g.vertex_count(), 7);
        assert_eq!(root_g.edge_count(), 9);
        assert_eq!(root_g.vlabel(6), 7);
        assert_eq!(root_g.edge(7).2, 1);
        let rec = part.recovered_graph(3);
        for (e, u, v, el) in root_g.edges() {
            assert_eq!(rec.edge(e), (u, v, el), "edge {e}");
        }
        for v in 0..root_g.vertex_count() as u32 {
            if root_g.degree(v) > 0 {
                assert_eq!(rec.vlabel(v), root_g.vlabel(v), "vertex {v}");
            }
        }
    }

    #[test]
    fn delete_edge_keeps_recovery_lossless() {
        for k in [1, 2, 3, 4] {
            let mut part = build_k(k);
            // Delete a middle edge: the root's last edge (6) is renumbered
            // to 1 and every unit's provenance must follow.
            let touched = part
                .apply_update(DbUpdate { gid: 0, update: GraphUpdate::DeleteEdge { e: 1 } })
                .unwrap();
            assert!(!touched.is_empty(), "k={k}");
            part.check_invariants().unwrap();
            let root_g = part.root().db.graph(0).clone();
            assert_eq!(root_g.edge_count(), 6);
            root_g.check_invariants().unwrap();
            let rec = part.recovered_graph(0);
            for (e, u, v, el) in root_g.edges() {
                assert_eq!(rec.edge(e), (u, v, el), "k={k} edge {e}");
            }
        }
    }

    #[test]
    fn delete_vertex_cascades_through_units() {
        for k in [1, 2, 3, 4] {
            let mut part = build_k(k);
            // Vertex 2 has degree 3 in the sample graphs; its deletion
            // cascades three edges and renumbers vertex 5 to 2.
            let touched = part
                .apply_update(DbUpdate { gid: 2, update: GraphUpdate::DeleteVertex { v: 2 } })
                .unwrap();
            assert!(!touched.is_empty(), "k={k}");
            part.check_invariants().unwrap();
            let root_g = part.root().db.graph(2).clone();
            assert_eq!(root_g.vertex_count(), 5);
            assert_eq!(root_g.edge_count(), 4);
            root_g.check_invariants().unwrap();
            let rec = part.recovered_graph(2);
            for (e, u, v, el) in root_g.edges() {
                assert_eq!(rec.edge(e), (u, v, el), "k={k} edge {e}");
            }
            // Other graphs are untouched.
            assert_eq!(part.root().db.graph(0).vertex_count(), 6);
        }
    }

    #[test]
    fn deletes_chain_with_additions() {
        let mut part = build_k(3);
        let ups = [
            GraphUpdate::DeleteEdge { e: 3 },
            GraphUpdate::AddVertex { label: 5, attach_to: 0, elabel: 9 },
            GraphUpdate::DeleteVertex { v: 1 },
            GraphUpdate::AddEdge { u: 1, v: 2, label: 4 },
            GraphUpdate::DeleteVertex { v: 0 },
        ];
        for u in ups {
            part.apply_update(DbUpdate { gid: 1, update: u }).unwrap();
            part.check_invariants().unwrap();
        }
        let root_g = part.root().db.graph(1).clone();
        root_g.check_invariants().unwrap();
        let rec = part.recovered_graph(1);
        for (e, u, v, el) in root_g.edges() {
            assert_eq!(rec.edge(e), (u, v, el), "edge {e}");
        }
        for v in 0..root_g.vertex_count() as u32 {
            if root_g.degree(v) > 0 {
                assert_eq!(rec.vlabel(v), root_g.vlabel(v), "vertex {v}");
            }
        }
    }

    #[test]
    fn delete_rejects_out_of_range() {
        let mut part = build_k(2);
        let before = part.root().db.graph(0).clone();
        assert_eq!(
            part.apply_update(DbUpdate { gid: 0, update: GraphUpdate::DeleteEdge { e: 99 } }),
            Err(GraphError::EdgeOutOfRange { edge: 99, len: 7 })
        );
        assert_eq!(
            part.apply_update(DbUpdate { gid: 0, update: GraphUpdate::DeleteVertex { v: 99 } }),
            Err(GraphError::VertexOutOfRange { vertex: 99, len: 6 })
        );
        assert_eq!(part.root().db.graph(0), &before);
    }

    #[test]
    fn metis_partitioner_also_builds() {
        let (db, uf) = sample_db();
        let part = DbPartition::build(&db, &uf, &crate::MetisLike, 4);
        assert_eq!(part.unit_count(), 4);
        for gid in 0..db.len() as u32 {
            let rec = part.recovered_graph(gid);
            assert_eq!(rec.edge_count(), db.graph(gid).edge_count());
        }
    }

    #[test]
    fn invariants_hold_on_sample_builds() {
        for k in 1..=6 {
            build_k(k).check_invariants().unwrap();
        }
    }

    /// Regression: all update weight on isolated vertices must not yield an
    /// empty unit. Each graph is a single labeled edge plus two isolated
    /// vertices with enormous ufreq — without the clamp, `GraphPart` parks
    /// the isolated pair alone on side 1 and the whole side-1 unit database
    /// is empty.
    #[test]
    fn degenerate_split_produces_no_empty_unit() {
        let mut graphs = Vec::new();
        let mut ufreq = Vec::new();
        for _ in 0..3 {
            let mut g = Graph::new();
            g.add_vertex(0);
            g.add_vertex(1);
            g.add_vertex(2); // isolated
            g.add_vertex(2); // isolated
            g.add_edge(0, 1, 5).unwrap();
            graphs.push(g);
            ufreq.push(vec![0.0, 0.0, 100.0, 100.0]);
        }
        let db = GraphDb::from_graphs(graphs);
        for k in [2, 3, 4] {
            let part = DbPartition::build(&db, &ufreq, &GraphPart::new(Criteria::COMBINED), k);
            part.check_invariants().unwrap();
            for j in 0..part.unit_count() {
                assert!(part.unit_node(j).db.total_edges() > 0, "k={k} unit {j} is empty");
            }
        }
    }

    /// An entirely edgeless database cannot fill `k` units; the build must
    /// freeze instead of splitting emptiness forever (and must not panic).
    #[test]
    fn edgeless_database_builds_without_empty_splits() {
        let mut g = Graph::new();
        g.add_vertex(0);
        g.add_vertex(1);
        let db = GraphDb::from_graphs(vec![g]);
        let uf = vec![vec![3.0, 4.0]];
        let part = DbPartition::build(&db, &uf, &GraphPart::new(Criteria::COMBINED), 4);
        assert_eq!(part.unit_count(), 1, "edgeless root is frozen as the only unit");
        part.check_invariants().unwrap();
    }
}
