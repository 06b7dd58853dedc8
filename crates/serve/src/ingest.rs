//! Streaming-ingest building blocks: window coalescing and the bounded
//! pending-window queue with back-pressure.
//!
//! # Coalescing laws
//!
//! An ingest *window* is one submitted update batch. Before the window is
//! validated and journaled, [`coalesce_window`] rewrites it into a
//! minimal equivalent sequence — the re-mine then sees the smallest diff:
//!
//! 1. **Last write wins** — relabel-after-relabel on the same vertex or
//!    edge keeps only the final write (at the later position).
//! 2. **Fold into the creator** — a relabel of a vertex/edge *created
//!    inside the window* is folded into the creating `add-vertex` /
//!    `add-edge` op's label field.
//! 3. **Cancellation** — a relabel chain whose final label equals the
//!    label the target entered the window with collapses to nothing
//!    (the add-then-revert of a vocabulary without deletes).
//! 4. **Tail cancellation** — a delete whose target was created inside
//!    the window *and* sits at the top of the id space (so the delete is
//!    a pure pop, never a swap-remove renumbering) cancels against its
//!    creating add op; relabels folded into that creator die with it.
//!    For `delete-vertex` this additionally requires the vertex's attach
//!    edge to be the top edge, so the cascade is exactly that pop.
//!
//! Ops are only dropped or folded when their target is verifiably in
//! range and the rewrite provably preserves every surviving id, so a
//! window is rejected by the dry-run validator exactly when the raw
//! window would have been. Ops addressing invalid targets are kept
//! untouched for the validator to reject. A delete that is *not* a pure
//! pop renumbers ids (swap-remove moves the highest id into the hole),
//! which would invalidate every id the coalescer has tracked for that
//! graph — such deletes pass through untouched and turn coalescing off
//! for the rest of the window's ops on that graph.
//!
//! # Back-pressure
//!
//! The pipeline bounds the number of *acked-but-unapplied* windows (the
//! staleness bound): once `max_pending` windows sit between the durable
//! WAL tip and the served epoch, new submissions are shed with a
//! `backpressure` protocol reply — distinct from the connection-level
//! `overloaded` shed — and counted under `ingest_backpressure`.

use std::collections::BTreeMap;

use graphmine_graph::{DbUpdate, Graph, GraphDb, GraphError, GraphUpdate};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::engine::UpdateSummary;

/// Knobs of the streaming ingest pipeline.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Staleness bound: maximum acked-but-unapplied windows before new
    /// submissions are shed with `backpressure`.
    pub max_pending: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig { max_pending: 8 }
    }
}

/// Which op created a window-local vertex/edge, and which label field of
/// that op a later relabel folds into.
#[derive(Debug, Clone, Copy)]
#[allow(clippy::enum_variant_names)]
enum Creator {
    /// `add-vertex` at this index created the vertex (fold into `label`).
    VertexOp(usize),
    /// `add-edge` at this index created the edge (fold into `label`).
    EdgeOp(usize),
    /// `add-vertex` at this index created the attaching edge (fold into
    /// `elabel`).
    AttachOp(usize),
}

/// Per-target coalescing state.
struct TargetState {
    /// Label the target carries entering the window (base label, or the
    /// creating op's current label after folds).
    origin: u32,
    /// Index of the currently kept relabel of this target, if any.
    last_relabel: Option<usize>,
    /// Creating op for window-local targets.
    creator: Option<Creator>,
}

impl TargetState {
    fn base(origin: u32) -> Self {
        TargetState { origin, last_relabel: None, creator: None }
    }

    fn created(origin: u32, creator: Creator) -> Self {
        TargetState { origin, last_relabel: None, creator: Some(creator) }
    }
}

/// Rewrites one ingest window into a minimal equivalent op sequence
/// against base database `db` (see the module docs for the laws).
///
/// Applying the returned sequence to `db` yields the same database as
/// applying `ops`, and it is rejected by validation exactly when `ops`
/// would be.
pub fn coalesce_window(db: &GraphDb, ops: &[DbUpdate]) -> Vec<DbUpdate> {
    let mut kept: Vec<Option<DbUpdate>> = ops.iter().map(|op| Some(*op)).collect();
    // Window-local vertex/edge counts per touched graph.
    let mut vcount: FxHashMap<u32, u32> = FxHashMap::default();
    let mut ecount: FxHashMap<u32, u32> = FxHashMap::default();
    let mut verts: FxHashMap<(u32, u32), TargetState> = FxHashMap::default();
    let mut edges: FxHashMap<(u32, u32), TargetState> = FxHashMap::default();
    // Graphs hit by a swap-remove delete: tracked ids are stale, so the
    // rest of the window's ops on them pass through untouched.
    let mut dirty: FxHashSet<u32> = FxHashSet::default();

    for (i, op) in ops.iter().enumerate() {
        let gid = op.gid;
        if gid as usize >= db.len() {
            continue; // kept untouched; validation rejects the window
        }
        if dirty.contains(&gid) {
            continue;
        }
        let g = db.graph(gid);
        let base_vc = g.vertex_count() as u32;
        let base_ec = g.edge_count() as u32;
        let vc = *vcount.entry(gid).or_insert(base_vc);
        let ec = *ecount.entry(gid).or_insert(base_ec);
        match op.update {
            GraphUpdate::RelabelVertex { v, label } => {
                if v >= vc {
                    continue; // out of range: validator's business
                }
                let st = verts.entry((gid, v)).or_insert_with(|| TargetState::base(g.vlabel(v)));
                coalesce_relabel(&mut kept, st, i, label);
            }
            GraphUpdate::RelabelEdge { e, label } => {
                if e >= ec {
                    continue;
                }
                let st = edges.entry((gid, e)).or_insert_with(|| TargetState::base(g.edge(e).2));
                coalesce_relabel(&mut kept, st, i, label);
            }
            GraphUpdate::AddEdge { u, v, label } => {
                // Structurally plausible adds claim their id; anything the
                // validator would reject (range, self-loop, duplicate)
                // rejects the whole window with the op kept in place.
                if u >= vc || v >= vc || u == v {
                    continue;
                }
                edges.insert((gid, ec), TargetState::created(label, Creator::EdgeOp(i)));
                ecount.insert(gid, ec + 1);
            }
            GraphUpdate::AddVertex { label, attach_to, elabel } => {
                if attach_to >= vc {
                    continue;
                }
                verts.insert((gid, vc), TargetState::created(label, Creator::VertexOp(i)));
                edges.insert((gid, ec), TargetState::created(elabel, Creator::AttachOp(i)));
                vcount.insert(gid, vc + 1);
                ecount.insert(gid, ec + 1);
            }
            GraphUpdate::DeleteEdge { e } => {
                if e >= ec {
                    continue; // out of range: validator's business
                }
                if e + 1 != ec {
                    // Swap-remove moves edge ec-1 into slot e: every
                    // tracked edge id for this graph is now stale.
                    dirty.insert(gid);
                    continue;
                }
                // Top edge: the delete is a pure pop and no id moves.
                let st = edges.remove(&(gid, e));
                if let Some(Creator::EdgeOp(c)) = st.as_ref().and_then(|s| s.creator) {
                    // Law 4: add-then-delete of a window-created edge
                    // cancels outright.
                    kept[c] = None;
                    kept[i] = None;
                } else if let Some(j) = st.and_then(|s| s.last_relabel) {
                    // Relabeling an edge the window then deletes is
                    // dead work; the delete itself stays.
                    kept[j] = None;
                }
                ecount.insert(gid, ec - 1);
            }
            GraphUpdate::DeleteVertex { v } => {
                if v >= vc {
                    continue;
                }
                let vcreator = verts.get(&(gid, v)).and_then(|s| s.creator);
                let top_edge = ec
                    .checked_sub(1)
                    .and_then(|top| edges.get(&(gid, top)))
                    .and_then(|s| s.creator);
                let cancels = v + 1 == vc
                    && matches!((vcreator, top_edge),
                        (Some(Creator::VertexOp(c)), Some(Creator::AttachOp(a))) if c == a);
                if cancels {
                    // Law 4: the vertex and its attach edge both sit at
                    // the top of the id space, so the cascade is exactly
                    // two pops — cancel against the creating add-vertex.
                    let Some(Creator::VertexOp(c)) = vcreator else { unreachable!() };
                    kept[c] = None;
                    kept[i] = None;
                    verts.remove(&(gid, v));
                    edges.remove(&(gid, ec - 1));
                    vcount.insert(gid, vc - 1);
                    ecount.insert(gid, ec - 1);
                } else {
                    // The cascade deletes an unknown set of incident
                    // edges and swap-removes renumber ids.
                    dirty.insert(gid);
                }
            }
        }
    }

    kept.into_iter().flatten().collect()
}

/// Applies the three coalescing laws to one relabel op (vertex or edge —
/// the target's [`TargetState`] disambiguates) at index `i` writing
/// `label`.
fn coalesce_relabel(kept: &mut [Option<DbUpdate>], st: &mut TargetState, i: usize, label: u32) {
    // Law 1: an earlier relabel of the same target is superseded.
    let superseded = st.last_relabel.take();
    if let Some(j) = superseded {
        kept[j] = None;
    }
    // Armed mutant: treat every superseding write as if the whole chain
    // cancelled, dropping a meaningful final write. The oracle's
    // coalesce-equivalence check must catch the divergence.
    #[cfg(feature = "fault-injection")]
    if superseded.is_some()
        && graphmine_graph::fault::armed(graphmine_graph::fault::Fault::SkipCancelledUpdate)
    {
        kept[i] = None;
        return;
    }
    if label == st.origin {
        // Law 3: the chain lands back on the origin label — nothing to do.
        kept[i] = None;
    } else if let Some(creator) = st.creator {
        // Law 2: fold into the creating add op's label field.
        kept[i] = None;
        let (idx, slot) = match creator {
            Creator::VertexOp(c) | Creator::EdgeOp(c) => (c, false),
            Creator::AttachOp(c) => (c, true),
        };
        let created = kept[idx].as_mut().expect("creating add ops are never dropped");
        match &mut created.update {
            GraphUpdate::AddVertex { label: l, elabel, .. } => {
                *(if slot { elabel } else { l }) = label;
            }
            GraphUpdate::AddEdge { label: l, .. } => *l = label,
            _ => unreachable!("creator is always an add op"),
        }
        st.origin = label;
    } else {
        st.last_relabel = Some(i);
    }
}

/// Which id space a tracked relabel origin lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum TargetKind {
    Vertex,
    Edge,
}

/// Vertices and edges a live window created, by their *current* ids
/// (fixed up whenever a swap-remove delete renumbers the graph).
#[derive(Debug, Default)]
struct WindowEntities {
    vertices: Vec<(u32, u32)>,
    edges: Vec<(u32, u32)>,
}

/// Bookkeeping for sliding-window (`--window N`) serving mode: what each
/// live window did to the database, precise enough to synthesize the
/// *inverse* batch that erases the window when it falls off the horizon.
///
/// # The base-id-stability contract
///
/// Windowed validation ([`WindowTracker::validate_window`]) only admits
/// ops whose targets are **base entities** (present in the boot
/// snapshot) or entities created by the *same* window; deletes may only
/// target same-window entities. Two structural facts follow:
///
/// * Base ids never move. A swap-remove relocates the highest id, and
///   with only window-created entities deletable the highest id is
///   always itself window-created (ids grow past the base counts), so
///   label-restore undos can hold base ids forever.
/// * Window-created entity ids *do* move, but only when a delete fires —
///   and every removal record is observed here, so tracked ids are
///   patched in lockstep ([`WindowTracker::remap`]-style fixups).
///
/// # Expiry
///
/// The inverse batch for the oldest window is, in order: label restores
/// for base targets whose **last** writer is the expiring window
/// (restoring the label the target had before any live window touched
/// it), then `delete-edge` for each surviving created edge, then
/// `delete-vertex` for each surviving created vertex — deletes in
/// descending id order per graph, so each op's id is still current when
/// it applies (a swap-remove only moves ids from above). Cross-window
/// references being rejected at admission guarantees the cascades are
/// empty and no other window's work is disturbed.
pub(crate) struct WindowTracker {
    /// Per-graph vertex counts of the boot snapshot.
    base_vcount: Vec<u32>,
    /// Per-graph edge counts of the boot snapshot.
    base_ecount: Vec<u32>,
    /// Live (unexpired) windows by seq.
    windows: BTreeMap<u64, WindowEntities>,
    /// Relabeled base targets: `(gid, kind, id)` → (label before any
    /// live window wrote it, seq of the last live writer).
    origins: FxHashMap<(u32, TargetKind, u32), (u32, u64)>,
}

impl WindowTracker {
    pub(crate) fn new(base: &GraphDb) -> Self {
        WindowTracker {
            base_vcount: base.iter().map(|(_, g)| g.vertex_count() as u32).collect(),
            base_ecount: base.iter().map(|(_, g)| g.edge_count() as u32).collect(),
            windows: BTreeMap::new(),
            origins: FxHashMap::default(),
        }
    }

    /// Live windows not yet expired.
    pub(crate) fn live_count(&self) -> usize {
        self.windows.len()
    }

    /// Strict windowed admission: every referenced id must be a base
    /// entity or created by this very window, and deletes may only
    /// target same-window entities. On top of that, the whole batch is
    /// dry-run applied like the plain validator, so nothing can fail
    /// mid-application.
    pub(crate) fn validate_window(&self, db: &GraphDb, ops: &[DbUpdate]) -> Result<(), String> {
        let mut scratch: FxHashMap<u32, Graph> = FxHashMap::default();
        let mut starts: FxHashMap<u32, (u32, u32)> = FxHashMap::default();
        for (i, up) in ops.iter().enumerate() {
            let gid = up.gid;
            if (gid as usize) >= db.len() {
                return Err(format!("op {i}: graph {gid} out of range ({} graphs)", db.len()));
            }
            let &mut (sv, se) = starts.entry(gid).or_insert_with(|| {
                let g = db.graph(gid);
                (g.vertex_count() as u32, g.edge_count() as u32)
            });
            let bv = self.base_vcount[gid as usize];
            let be = self.base_ecount[gid as usize];
            let fail = |what: String| Err(format!("op {i}: windowed mode: {what}"));
            let check_v = |v: u32| {
                if v >= bv && v < sv {
                    fail(format!("vertex {v} belongs to an earlier live window"))
                } else {
                    Ok(())
                }
            };
            let check_e = |e: u32| {
                if e >= be && e < se {
                    fail(format!("edge {e} belongs to an earlier live window"))
                } else {
                    Ok(())
                }
            };
            match up.update {
                GraphUpdate::RelabelVertex { v, .. } => check_v(v)?,
                GraphUpdate::RelabelEdge { e, .. } => check_e(e)?,
                GraphUpdate::AddEdge { u, v, .. } => {
                    check_v(u)?;
                    check_v(v)?;
                }
                GraphUpdate::AddVertex { attach_to, .. } => check_v(attach_to)?,
                GraphUpdate::DeleteEdge { e } => {
                    if e < be {
                        fail(format!("cannot delete base edge {e}"))?;
                    } else if e < se {
                        fail(format!("cannot delete edge {e} of an earlier live window"))?;
                    }
                }
                GraphUpdate::DeleteVertex { v } => {
                    if v < bv {
                        fail(format!("cannot delete base vertex {v}"))?;
                    } else if v < sv {
                        fail(format!("cannot delete vertex {v} of an earlier live window"))?;
                    }
                }
            }
            let g = scratch.entry(gid).or_insert_with(|| db.graph(gid).clone());
            up.update.apply(g).map_err(|e| format!("op {i}: {e}"))?;
        }
        Ok(())
    }

    /// Applies an admitted window to the tail, recording what it created
    /// and relabeled so it can be erased at expiry.
    ///
    /// # Errors
    ///
    /// Propagates the first failing op; the tail is then half-applied,
    /// exactly like `apply_all` — the engine poisons the pipeline.
    pub(crate) fn apply_and_track(
        &mut self,
        seq: u64,
        tail: &mut GraphDb,
        ops: &[DbUpdate],
    ) -> Result<(), GraphError> {
        self.windows.entry(seq).or_default();
        for op in ops {
            self.apply_op(tail, op, Some(seq))?;
        }
        Ok(())
    }

    /// Applies a window-expiry inverse batch to the tail (with id
    /// fixups for the surviving windows) and retires the expired
    /// window's records. Used both when the engine synthesizes the
    /// batch and when boot replays a journaled expiry frame.
    pub(crate) fn apply_expiry(
        &mut self,
        tail: &mut GraphDb,
        ops: &[DbUpdate],
        expired: u64,
    ) -> Result<(), GraphError> {
        for op in ops {
            self.apply_op(tail, op, None)?;
        }
        self.windows.remove(&expired);
        self.origins.retain(|_, &mut (_, writer)| writer != expired);
        Ok(())
    }

    /// The inverse batch erasing the oldest live window, plus that
    /// window's seq. Must be followed by [`WindowTracker::apply_expiry`]
    /// once the batch is journaled.
    pub(crate) fn synthesize_expiry(&self) -> (u64, Vec<DbUpdate>) {
        let (&expired, entities) =
            self.windows.iter().next().expect("synthesize_expiry on zero live windows");
        let mut ops = Vec::new();
        // Label restores first: base ids, untouched by the deletes below.
        let mut restores: Vec<(u32, TargetKind, u32, u32)> = self
            .origins
            .iter()
            .filter(|&(_, &(_, writer))| writer == expired)
            .map(|(&(gid, kind, id), &(label, _))| (gid, kind, id, label))
            .collect();
        restores.sort_unstable();
        for (gid, kind, id, label) in restores {
            let update = match kind {
                TargetKind::Vertex => GraphUpdate::RelabelVertex { v: id, label },
                TargetKind::Edge => GraphUpdate::RelabelEdge { e: id, label },
            };
            ops.push(DbUpdate { gid, update });
        }
        // Deletes in descending id order per graph: each swap-remove
        // only moves ids from above, so every later op's id holds.
        let mut edges = entities.edges.clone();
        edges.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        for (gid, e) in edges {
            ops.push(DbUpdate { gid, update: GraphUpdate::DeleteEdge { e } });
        }
        let mut vertices = entities.vertices.clone();
        vertices.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        for (gid, v) in vertices {
            ops.push(DbUpdate { gid, update: GraphUpdate::DeleteVertex { v } });
        }
        (expired, ops)
    }

    /// Applies one op to the tail. With `record = Some(seq)` the op is a
    /// live window's (created entities tracked, base-relabel origins
    /// recorded); with `None` it is an expiry op (no tracking — but
    /// delete fixups still run, they keep the *other* windows honest).
    fn apply_op(
        &mut self,
        tail: &mut GraphDb,
        op: &DbUpdate,
        record: Option<u64>,
    ) -> Result<(), GraphError> {
        let gid = op.gid;
        if (gid as usize) >= tail.len() {
            return Err(GraphError::GraphOutOfRange { graph: gid, len: tail.len() as u32 });
        }
        match op.update {
            GraphUpdate::RelabelVertex { v, .. } => {
                if let Some(seq) = record {
                    if v < self.base_vcount[gid as usize] {
                        let origin = tail.graph(gid).vlabel(v);
                        let entry = self
                            .origins
                            .entry((gid, TargetKind::Vertex, v))
                            .or_insert((origin, seq));
                        entry.1 = seq;
                    }
                }
                op.update.apply(tail.graph_mut(gid))?;
            }
            GraphUpdate::RelabelEdge { e, .. } => {
                if let Some(seq) = record {
                    if e < self.base_ecount[gid as usize] {
                        let origin = tail.graph(gid).edge(e).2;
                        let entry =
                            self.origins.entry((gid, TargetKind::Edge, e)).or_insert((origin, seq));
                        entry.1 = seq;
                    }
                }
                op.update.apply(tail.graph_mut(gid))?;
            }
            GraphUpdate::AddEdge { .. } => {
                let e = tail.graph(gid).edge_count() as u32;
                op.update.apply(tail.graph_mut(gid))?;
                if let Some(seq) = record {
                    self.window_mut(seq).edges.push((gid, e));
                }
            }
            GraphUpdate::AddVertex { .. } => {
                let g = tail.graph(gid);
                let (v, e) = (g.vertex_count() as u32, g.edge_count() as u32);
                op.update.apply(tail.graph_mut(gid))?;
                if let Some(seq) = record {
                    let w = self.window_mut(seq);
                    w.vertices.push((gid, v));
                    w.edges.push((gid, e));
                }
            }
            GraphUpdate::DeleteEdge { e } => {
                let removal = tail.graph_mut(gid).delete_edge(e)?;
                self.untrack_edge(gid, e);
                if let Some(from) = removal.moved {
                    self.remap_edge(gid, from, e);
                }
            }
            GraphUpdate::DeleteVertex { v } => {
                // The cascade mirrors Graph::delete_vertex: incident
                // edges go in descending id order, each a swap-remove
                // pulling the current last edge into the hole.
                let g = tail.graph(gid);
                let mut eids: Vec<u32> = g.neighbors(v).iter().map(|a| a.eid).collect();
                eids.sort_unstable_by(|a, b| b.cmp(a));
                let mut last = g.edge_count() as u32;
                let last_v = g.vertex_count() as u32 - 1;
                tail.graph_mut(gid).delete_vertex(v)?;
                for e in eids {
                    last -= 1;
                    self.untrack_edge(gid, e);
                    if e != last {
                        self.remap_edge(gid, last, e);
                    }
                }
                self.untrack_vertex(gid, v);
                if v != last_v {
                    self.remap_vertex(gid, last_v, v);
                }
            }
        }
        Ok(())
    }

    fn window_mut(&mut self, seq: u64) -> &mut WindowEntities {
        self.windows.get_mut(&seq).expect("apply_and_track inserted the window entry")
    }

    fn untrack_edge(&mut self, gid: u32, e: u32) {
        for w in self.windows.values_mut() {
            w.edges.retain(|&(g, id)| g != gid || id != e);
        }
    }

    fn untrack_vertex(&mut self, gid: u32, v: u32) {
        for w in self.windows.values_mut() {
            w.vertices.retain(|&(g, id)| g != gid || id != v);
        }
    }

    fn remap_edge(&mut self, gid: u32, from: u32, to: u32) {
        for w in self.windows.values_mut() {
            for slot in w.edges.iter_mut() {
                if slot.0 == gid && slot.1 == from {
                    slot.1 = to;
                }
            }
        }
    }

    fn remap_vertex(&mut self, gid: u32, from: u32, to: u32) {
        for w in self.windows.values_mut() {
            for slot in w.vertices.iter_mut() {
                if slot.0 == gid && slot.1 == from {
                    slot.1 = to;
                }
            }
        }
    }
}

/// The pending-window queue between submitters and the applier thread.
///
/// Windows are admitted (validated against `tail`, applied to it, and
/// handed to the WAL) under the queue lock, then folded into the served
/// epoch strictly in sequence order by the applier.
pub(crate) struct IngestQueue {
    /// The database with every *admitted* window applied — ahead of the
    /// served epoch by the windows still in `windows`. Admission
    /// validates against this, so seq order equals validation order.
    pub tail: GraphDb,
    /// Admitted windows not yet folded into the served epoch, by seq.
    pub windows: BTreeMap<u64, Vec<DbUpdate>>,
    /// Highest seq folded into the served epoch.
    pub applied_seq: u64,
    /// Per-window outcomes for `ack: applied` waiters (bounded; see
    /// [`IngestQueue::record_summary`]).
    pub summaries: BTreeMap<u64, UpdateSummary>,
    /// Sticky pipeline failure (journal or apply); set once, fatal.
    pub failed: Option<String>,
    /// Applier shutdown flag.
    pub stop: bool,
    /// Sliding-window bookkeeping; `Some` iff the engine runs with a
    /// retention window ([`crate::engine::EngineConfig::window`]).
    pub(crate) tracker: Option<WindowTracker>,
}

impl IngestQueue {
    pub(crate) fn new(tail: GraphDb, applied_seq: u64) -> Self {
        IngestQueue {
            tail,
            windows: BTreeMap::new(),
            applied_seq,
            summaries: BTreeMap::new(),
            failed: None,
            stop: false,
            tracker: None,
        }
    }

    /// Records a window's outcome, keeping the map bounded: durable-ack
    /// submitters never collect their summaries, so old entries are
    /// pruned from the front.
    pub(crate) fn record_summary(&mut self, s: UpdateSummary) {
        self.summaries.insert(s.seq, s);
        while self.summaries.len() > 256 {
            let oldest = *self.summaries.keys().next().expect("non-empty");
            self.summaries.remove(&oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::{apply_all, Graph};

    fn base_db() -> GraphDb {
        (0..2)
            .map(|_| {
                let mut g = Graph::new();
                let a = g.add_vertex(0);
                let b = g.add_vertex(1);
                let c = g.add_vertex(2);
                g.add_edge(a, b, 10).unwrap();
                g.add_edge(b, c, 11).unwrap();
                g
            })
            .collect()
    }

    fn rv(gid: u32, v: u32, label: u32) -> DbUpdate {
        DbUpdate { gid, update: GraphUpdate::RelabelVertex { v, label } }
    }

    fn re(gid: u32, e: u32, label: u32) -> DbUpdate {
        DbUpdate { gid, update: GraphUpdate::RelabelEdge { e, label } }
    }

    fn de(gid: u32, e: u32) -> DbUpdate {
        DbUpdate { gid, update: GraphUpdate::DeleteEdge { e } }
    }

    fn dv(gid: u32, v: u32) -> DbUpdate {
        DbUpdate { gid, update: GraphUpdate::DeleteVertex { v } }
    }

    /// Raw and coalesced application end on identical databases.
    fn assert_equivalent(db: &GraphDb, ops: &[DbUpdate]) -> Vec<DbUpdate> {
        let coalesced = coalesce_window(db, ops);
        let mut raw = db.clone();
        apply_all(&mut raw, ops).unwrap();
        let mut co = db.clone();
        apply_all(&mut co, &coalesced).unwrap();
        for gid in 0..raw.len() as u32 {
            let (a, b) = (raw.graph(gid), co.graph(gid));
            assert_eq!(a.vlabels(), b.vlabels(), "graph {gid} vertex labels");
            assert_eq!(a.edge_count(), b.edge_count(), "graph {gid} edge count");
            for e in 0..a.edge_count() as u32 {
                assert_eq!(a.edge(e), b.edge(e), "graph {gid} edge {e}");
            }
        }
        coalesced
    }

    #[test]
    fn last_write_wins_on_vertices_and_edges() {
        let db = base_db();
        let ops = [rv(0, 1, 7), rv(0, 1, 8), rv(0, 1, 9), re(1, 0, 20), re(1, 0, 21)];
        let co = assert_equivalent(&db, &ops);
        assert_eq!(co, vec![rv(0, 1, 9), re(1, 0, 21)]);
    }

    #[test]
    fn relabel_chain_back_to_origin_cancels() {
        let db = base_db();
        let ops = [rv(0, 2, 9), rv(0, 2, 2), re(0, 1, 99), re(0, 1, 11)];
        let co = assert_equivalent(&db, &ops);
        assert!(co.is_empty(), "chains landing on the origin label vanish: {co:?}");
    }

    #[test]
    fn noop_relabel_is_dropped() {
        let db = base_db();
        let co = assert_equivalent(&db, &[rv(0, 0, 0), re(1, 1, 11)]);
        assert!(co.is_empty());
    }

    #[test]
    fn relabel_folds_into_creating_add_ops() {
        let db = base_db();
        let ops = [
            DbUpdate {
                gid: 0,
                update: GraphUpdate::AddVertex { label: 5, attach_to: 0, elabel: 7 },
            },
            rv(0, 3, 6), // relabel the window-created vertex
            re(0, 2, 8), // relabel the window-created attach edge
            DbUpdate { gid: 0, update: GraphUpdate::AddEdge { u: 1, v: 3, label: 30 } },
            re(0, 3, 31), // relabel the window-created edge
        ];
        let co = assert_equivalent(&db, &ops);
        assert_eq!(
            co,
            vec![
                DbUpdate {
                    gid: 0,
                    update: GraphUpdate::AddVertex { label: 6, attach_to: 0, elabel: 8 }
                },
                DbUpdate { gid: 0, update: GraphUpdate::AddEdge { u: 1, v: 3, label: 31 } },
            ]
        );
    }

    #[test]
    fn fold_then_revert_to_creation_label_cancels() {
        let db = base_db();
        let ops = [
            DbUpdate {
                gid: 1,
                update: GraphUpdate::AddVertex { label: 5, attach_to: 2, elabel: 7 },
            },
            rv(1, 3, 6),
            rv(1, 3, 5), // back to the creation label — both relabels vanish
        ];
        let co = assert_equivalent(&db, &ops);
        assert_eq!(
            co,
            vec![DbUpdate {
                gid: 1,
                update: GraphUpdate::AddVertex { label: 5, attach_to: 2, elabel: 7 }
            }]
        );
    }

    #[test]
    fn add_edge_then_delete_at_top_cancels() {
        let db = base_db();
        let ops = [
            DbUpdate { gid: 0, update: GraphUpdate::AddEdge { u: 0, v: 2, label: 30 } },
            re(0, 2, 31), // relabel the doomed window edge: folds, then dies
            de(0, 2),
        ];
        let co = assert_equivalent(&db, &ops);
        assert!(co.is_empty(), "add-then-delete at the top must vanish: {co:?}");
    }

    #[test]
    fn add_vertex_then_delete_at_top_cancels() {
        let db = base_db();
        let ops = [
            DbUpdate {
                gid: 1,
                update: GraphUpdate::AddVertex { label: 5, attach_to: 0, elabel: 7 },
            },
            rv(1, 3, 6), // folds into the doomed creator
            dv(1, 3),
        ];
        let co = assert_equivalent(&db, &ops);
        assert!(co.is_empty(), "add-vertex-then-delete at the top must vanish: {co:?}");
    }

    #[test]
    fn delete_at_top_drops_pending_relabel_but_stays() {
        let db = base_db();
        let ops = [re(0, 1, 99), de(0, 1)];
        let co = assert_equivalent(&db, &ops);
        assert_eq!(co, vec![de(0, 1)], "relabel of a dying base edge is dead work");
    }

    #[test]
    fn swap_remove_delete_disables_coalescing_per_graph() {
        let db = base_db();
        // Graph 0 takes a non-top delete (edge 0 of 2): everything after
        // it on graph 0 passes through; graph 1 still coalesces.
        let ops = [de(0, 0), rv(0, 1, 7), rv(0, 1, 8), rv(1, 0, 5), rv(1, 0, 6)];
        let co = assert_equivalent(&db, &ops);
        assert_eq!(co, vec![de(0, 0), rv(0, 1, 7), rv(0, 1, 8), rv(1, 0, 6)]);
    }

    #[test]
    fn delete_vertex_with_extra_incident_edge_does_not_cancel() {
        let db = base_db();
        // The window vertex gains a second incident edge, so its attach
        // edge is no longer the top edge: the cascade is not a pure pop
        // and the whole chain passes through (still equivalent).
        let ops = [
            DbUpdate {
                gid: 0,
                update: GraphUpdate::AddVertex { label: 5, attach_to: 0, elabel: 7 },
            },
            DbUpdate { gid: 0, update: GraphUpdate::AddEdge { u: 1, v: 3, label: 8 } },
            dv(0, 3),
        ];
        let co = assert_equivalent(&db, &ops);
        assert_eq!(co, ops.to_vec());
    }

    #[test]
    fn invalid_targets_are_kept_for_the_validator() {
        let db = base_db();
        // Out-of-range graph, vertex, and edge: nothing is dropped, so the
        // dry-run validator rejects the window exactly as it would raw.
        for ops in [
            vec![rv(9, 0, 1), rv(0, 1, 7)],
            vec![rv(0, 99, 1)],
            vec![re(0, 99, 1)],
            vec![de(0, 99)],
            vec![dv(0, 99)],
            vec![DbUpdate { gid: 0, update: GraphUpdate::AddEdge { u: 0, v: 0, label: 1 } }],
        ] {
            let co = coalesce_window(&db, &ops);
            assert_eq!(co, ops, "invalid window must pass through untouched");
        }
    }

    #[test]
    fn interleaved_targets_keep_relative_order() {
        let db = base_db();
        let ops = [rv(0, 0, 5), rv(1, 0, 6), rv(0, 0, 7), re(0, 0, 20)];
        let co = assert_equivalent(&db, &ops);
        assert_eq!(co, vec![rv(1, 0, 6), rv(0, 0, 7), re(0, 0, 20)]);
    }

    fn av(gid: u32, label: u32, attach_to: u32, elabel: u32) -> DbUpdate {
        DbUpdate { gid, update: GraphUpdate::AddVertex { label, attach_to, elabel } }
    }

    fn ae(gid: u32, u: u32, v: u32, label: u32) -> DbUpdate {
        DbUpdate { gid, update: GraphUpdate::AddEdge { u, v, label } }
    }

    /// Expiring every live window in order walks the tail back to the
    /// exact base database, through swap-remove fixups and last-writer
    /// relabel restores.
    #[test]
    fn tracker_expiry_round_trips_to_base() {
        let base = base_db();
        let mut tail = base.clone();
        let mut tr = WindowTracker::new(&base);
        // Window 1: relabel a base vertex, add an edge (gid 0 id 2).
        let w1 = [rv(0, 0, 50), ae(0, 0, 2, 30)];
        // Window 2: grow a pendant vertex (gid 0 vertex 3, edge 3).
        let w2 = [av(0, 7, 1, 8)];
        // Window 3: rewrite the same base vertex, add an edge on gid 1.
        let w3 = [rv(0, 0, 60), ae(1, 0, 2, 40)];
        for (seq, w) in [(1u64, &w1[..]), (2, &w2[..]), (3, &w3[..])] {
            tr.validate_window(&tail, w).unwrap();
            tr.apply_and_track(seq, &mut tail, w).unwrap();
        }
        assert_eq!(tr.live_count(), 3);

        // Expire window 1. Vertex 0's last writer is window 3, so no
        // restore yet; its edge 2 is swap-removed, pulling window 2's
        // edge 3 into slot 2 (the tracker must follow the move).
        let (expired, ops) = tr.synthesize_expiry();
        assert_eq!(expired, 1);
        assert_eq!(ops, vec![de(0, 2)]);
        tr.apply_expiry(&mut tail, &ops, expired).unwrap();
        let mut expect = base.clone();
        apply_all(&mut expect, &[w2[0], w3[0], w3[1]]).unwrap();
        assert_eq!(tail, expect, "after expiring window 1");

        // Expire window 2: its pendant edge now sits at the remapped id.
        let (expired, ops) = tr.synthesize_expiry();
        assert_eq!(expired, 2);
        assert_eq!(ops, vec![de(0, 2), dv(0, 3)]);
        tr.apply_expiry(&mut tail, &ops, expired).unwrap();

        // Expire window 3: vertex 0 restores to its pre-window-1 label
        // (the origin outlives intermediate writers), gid 1's edge pops.
        let (expired, ops) = tr.synthesize_expiry();
        assert_eq!(expired, 3);
        assert_eq!(ops, vec![rv(0, 0, 0), de(1, 2)]);
        tr.apply_expiry(&mut tail, &ops, expired).unwrap();
        assert_eq!(tr.live_count(), 0);
        assert_eq!(tail, base, "after expiring every window");
        assert!(tr.origins.is_empty(), "origin records must die with their last writer");
    }

    /// A window deleting its own additions leaves nothing to expire, and
    /// a vertex delete's cascade fixups keep later windows' ids honest.
    #[test]
    fn tracker_follows_delete_cascades_within_windows() {
        let base = base_db();
        let mut tail = base.clone();
        let mut tr = WindowTracker::new(&base);
        // Window 1: pendant vertex (attach edge 2), extra base-to-base
        // edge (id 3), then delete the vertex — the cascade swap-removes
        // its attach edge, pulling the extra edge from id 3 down to 2.
        let w1 = [av(0, 7, 1, 8), ae(0, 0, 2, 30), dv(0, 3)];
        tr.validate_window(&tail, &w1).unwrap();
        tr.apply_and_track(1, &mut tail, &w1).unwrap();
        // Window 2: relabel a base edge (restored at its expiry).
        let w2 = [re(0, 1, 99)];
        tr.validate_window(&tail, &w2).unwrap();
        tr.apply_and_track(2, &mut tail, &w2).unwrap();

        // Window 1's survivors: only the extra edge, now at id 2.
        let (expired, ops) = tr.synthesize_expiry();
        assert_eq!(expired, 1);
        assert_eq!(ops, vec![de(0, 2)]);
        tr.apply_expiry(&mut tail, &ops, expired).unwrap();

        let (expired, ops) = tr.synthesize_expiry();
        assert_eq!(expired, 2);
        assert_eq!(ops, vec![re(0, 1, 11)]);
        tr.apply_expiry(&mut tail, &ops, expired).unwrap();
        assert_eq!(tail, base, "after expiring both windows");
    }

    /// Windowed validation enjoys stricter rules than the plain dry-run:
    /// cross-window references and base deletes are rejected up front.
    #[test]
    fn tracker_validation_rejects_cross_window_and_base_deletes() {
        let base = base_db();
        let mut tail = base.clone();
        let mut tr = WindowTracker::new(&base);
        let w1 = [av(0, 7, 1, 8)];
        tr.apply_and_track(1, &mut tail, &w1).unwrap();

        let err = |ops: &[DbUpdate]| tr.validate_window(&tail, ops).unwrap_err();
        assert!(err(&[rv(0, 3, 5)]).contains("belongs to an earlier live window"));
        assert!(err(&[ae(0, 0, 3, 9)]).contains("belongs to an earlier live window"));
        assert!(err(&[de(0, 2)]).contains("earlier live window"));
        assert!(err(&[de(0, 0)]).contains("cannot delete base edge"));
        assert!(err(&[dv(0, 1)]).contains("cannot delete base vertex"));
        assert_eq!(err(&[rv(9, 0, 1)]), "op 0: graph 9 out of range (2 graphs)");
        // Same-window self-references and base relabels stay legal.
        tr.validate_window(&tail, &[av(0, 4, 0, 6), rv(0, 4, 5), dv(0, 4)]).unwrap();
        tr.validate_window(&tail, &[rv(0, 0, 41), re(1, 0, 42)]).unwrap();
    }
}
