//! Streaming-ingest building blocks: window coalescing and the bounded
//! pending-window queue with back-pressure.
//!
//! # Coalescing laws
//!
//! An ingest *window* is one submitted update batch. Before the window is
//! applied and journaled, [`coalesce_window`] rewrites it into a
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
//! range and the rewrite provably preserves every surviving id, so
//! admission (`IngestQueue::stage`) refuses a window exactly when applying
//! the raw window would fail. Ops addressing invalid targets are kept
//! untouched for admission to reject. A delete that is *not* a pure
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
use std::sync::Arc;

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
/// applying `ops`, and it fails exactly when `ops` would.
pub fn coalesce_window(db: &GraphDb, ops: &[DbUpdate]) -> Vec<DbUpdate> {
    coalesce(db, ops).into_iter().map(|(_, op)| op).collect()
}

/// [`coalesce_window`], with each surviving op's index in `ops`.
fn coalesce(db: &GraphDb, ops: &[DbUpdate]) -> Vec<(usize, DbUpdate)> {
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
            continue; // kept untouched; admission rejects the window
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
                    continue; // out of range: admission's business
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
                // graph would refuse (range, self-loop, duplicate) rejects
                // the whole window with the op kept in place.
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
                    continue; // out of range: admission's business
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

    kept.into_iter().enumerate().filter_map(|(i, op)| Some((i, op?))).collect()
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
#[derive(Debug, Default, Clone)]
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
/// Windowed admission ([`WindowTracker::check`]) only admits
/// ops whose targets are **base entities** (present in the boot
/// snapshot) or entities created by the *same* window; deletes may only
/// target same-window entities. Two structural facts follow:
///
/// * Base ids never move. A swap-remove relocates the highest id, and
///   with only window-created entities deletable the highest id is
///   always itself window-created (ids grow past the base counts), so
///   label-restore undos can hold base ids forever.
/// * Window-created entity ids *do* move, but only when a delete fires —
///   and the tracker replays every delete's removal record (the graph's
///   own account of which ids went and which moved), so tracked ids are
///   patched in lockstep.
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
#[derive(Clone)]
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

    /// The windowed id rules for one op: every id it references must be
    /// a base entity or created by its own window, and it may delete only
    /// what its own window created. `before` is the op's graph as its
    /// window found it, so ids at or past its counts are the window's own.
    fn check(&self, before: &Graph, op: &DbUpdate) -> Result<(), String> {
        let (bv, be) = (self.base_vcount[op.gid as usize], self.base_ecount[op.gid as usize]);
        let (sv, se) = (before.vertex_count() as u32, before.edge_count() as u32);
        let earlier = |kind: &str, id: u32, base: u32, start: u32| {
            if id >= base && id < start {
                Err(format!("{kind} {id} belongs to an earlier live window"))
            } else {
                Ok(())
            }
        };
        match op.update {
            GraphUpdate::RelabelVertex { v, .. } => earlier("vertex", v, bv, sv),
            GraphUpdate::RelabelEdge { e, .. } => earlier("edge", e, be, se),
            GraphUpdate::AddEdge { u, v, .. } => {
                earlier("vertex", u, bv, sv).and_then(|()| earlier("vertex", v, bv, sv))
            }
            GraphUpdate::AddVertex { attach_to, .. } => earlier("vertex", attach_to, bv, sv),
            GraphUpdate::DeleteEdge { e } if e < be => Err(format!("cannot delete base edge {e}")),
            GraphUpdate::DeleteEdge { e } if e < se => {
                Err(format!("cannot delete edge {e} of an earlier live window"))
            }
            GraphUpdate::DeleteVertex { v } if v < bv => {
                Err(format!("cannot delete base vertex {v}"))
            }
            GraphUpdate::DeleteVertex { v } if v < sv => {
                Err(format!("cannot delete vertex {v} of an earlier live window"))
            }
            GraphUpdate::DeleteEdge { .. } | GraphUpdate::DeleteVertex { .. } => Ok(()),
        }
    }

    /// Applies journal frame `seq` to `db` in place, as boot replays it. A
    /// window (`expiry` is `None`) is tracked so it can be erased at
    /// expiry; an expiry frame erasing live window `expiry` retires it. A
    /// running engine stages frames with [`IngestQueue::stage`] instead.
    ///
    /// # Errors
    ///
    /// Propagates the first failing op, leaving `db` half applied.
    pub(crate) fn replay(
        &mut self,
        seq: u64,
        db: &mut GraphDb,
        ops: &[DbUpdate],
        expiry: Option<u64>,
    ) -> Result<(), GraphError> {
        let record = self.open(seq, expiry);
        ops.iter().try_for_each(|op| self.apply_op(db, op, record))?;
        self.close(expiry);
        Ok(())
    }

    /// Opens the records of frame `seq` if it is a window (`expiry` is
    /// `None`), returning the key its ops are tracked under.
    fn open(&mut self, seq: u64, expiry: Option<u64>) -> Option<u64> {
        expiry.is_none().then(|| {
            self.windows.entry(seq).or_default();
            seq
        })
    }

    /// Drops the records of the window an expiry frame erased.
    fn close(&mut self, expiry: Option<u64>) {
        if let Some(expired) = expiry {
            self.windows.remove(&expired);
            self.origins.retain(|_, &mut (_, writer)| writer != expired);
        }
    }

    /// The inverse batch erasing the oldest live window, plus that
    /// window's seq; replaying or staging it retires the window.
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
                self.follow_removal(gid, false, e, removal.moved);
            }
            GraphUpdate::DeleteVertex { v } => {
                let removal = tail.graph_mut(gid).delete_vertex(v)?;
                for edge in removal.removed_edges {
                    self.follow_removal(gid, false, edge.e, edge.moved);
                }
                self.follow_removal(gid, true, v, removal.moved_vertex);
            }
        }
        Ok(())
    }

    fn window_mut(&mut self, seq: u64) -> &mut WindowEntities {
        self.windows.get_mut(&seq).expect("the window's entry is inserted before its ops")
    }

    /// Follows a swap-remove of vertex (`vertices`) or edge id `freed` of
    /// `gid` in every live window's tracked ids: the entry naming `freed`
    /// goes, and the one naming `moved`, the id renumbered into the freed
    /// slot, takes its id.
    fn follow_removal(&mut self, gid: u32, vertices: bool, freed: u32, moved: Option<u32>) {
        for w in self.windows.values_mut() {
            let ids = if vertices { &mut w.vertices } else { &mut w.edges };
            ids.retain(|&id| id != (gid, freed));
            if let Some(from) = moved {
                for slot in ids.iter_mut().filter(|id| **id == (gid, from)) {
                    slot.1 = freed;
                }
            }
        }
    }
}

/// The pending-window queue between submitters and the applier thread.
///
/// Windows are admitted under the queue lock ([`IngestQueue::stage`],
/// journal enqueue, [`IngestQueue::push`]), then published as the served
/// epoch strictly in sequence order by the applier.
pub(crate) struct IngestQueue {
    /// The database with every *admitted* window applied. Each window is
    /// staged against it, so seq order equals admission order; once the
    /// applier catches up, the served epoch holds this very `Arc`.
    pub tail: Arc<GraphDb>,
    /// The database each admitted window produced, by seq, until the
    /// applier publishes it. Graphs no window touched are shared by all.
    pub windows: BTreeMap<u64, Arc<GraphDb>>,
    /// Highest seq folded into the served epoch.
    pub applied_seq: u64,
    /// Per-window outcomes for `ack: applied` waiters (bounded; see
    /// [`IngestQueue::record_summary`]).
    pub summaries: BTreeMap<u64, UpdateSummary>,
    /// Sticky pipeline failure (journal, or an expiry frame that would
    /// not apply); set once, fatal.
    pub failed: Option<String>,
    /// Applier shutdown flag.
    pub stop: bool,
    /// Sliding-window bookkeeping as of `tail`; `Some` iff the engine runs
    /// with a retention window ([`crate::engine::EngineConfig::window`]).
    pub(crate) tracker: Option<WindowTracker>,
}

/// A window applied to copies of the tail and the tracker
/// ([`IngestQueue::stage`]), ready to journal and [`IngestQueue::push`].
pub(crate) struct Staged {
    /// The ops to journal: the coalesced window, or an expiry frame as
    /// synthesized.
    pub ops: Vec<DbUpdate>,
    db: GraphDb,
    tracker: Option<WindowTracker>,
}

impl IngestQueue {
    pub(crate) fn new(
        tail: Arc<GraphDb>,
        applied_seq: u64,
        tracker: Option<WindowTracker>,
    ) -> Self {
        IngestQueue {
            tail,
            windows: BTreeMap::new(),
            applied_seq,
            summaries: BTreeMap::new(),
            failed: None,
            stop: false,
            tracker,
        }
    }

    /// How a window becomes a database: applies it op by op to a copy of
    /// the tail, and in windowed mode to a copy of the tracker, leaving the
    /// queue untouched. A client window (`expiry` is `None`) is coalesced
    /// first, and in windowed mode each op must pass the id rules before
    /// it applies and is tracked under `seq`, the seq the journal gives
    /// the window next. An expiry frame erasing live window `expiry`
    /// applies as synthesized and retires that window.
    ///
    /// # Errors
    ///
    /// The first op that fails, named by its index in `ops`.
    pub(crate) fn stage(
        &self,
        seq: u64,
        ops: &[DbUpdate],
        expiry: Option<u64>,
    ) -> Result<Staged, String> {
        let window = match expiry {
            None => coalesce(&self.tail, ops),
            Some(_) => ops.iter().copied().enumerate().collect(),
        };
        let mut db = GraphDb::clone(&self.tail);
        let mut tracker = self.tracker.clone();
        let record = tracker.as_mut().and_then(|tr| tr.open(seq, expiry));
        for &(i, op) in &window {
            let gid = op.gid;
            if gid as usize >= db.len() {
                return Err(format!("op {i}: graph {gid} out of range ({} graphs)", db.len()));
            }
            let applied = match tracker.as_mut() {
                Some(tr) => {
                    if record.is_some() {
                        let rules = tr.check(self.tail.graph(gid), &op);
                        rules.map_err(|what| format!("op {i}: windowed mode: {what}"))?;
                    }
                    tr.apply_op(&mut db, &op, record)
                }
                None => op.update.apply(db.graph_mut(gid)),
            };
            applied.map_err(|e| format!("op {i}: {e}"))?;
        }
        if let Some(tr) = tracker.as_mut() {
            tr.close(expiry);
        }
        Ok(Staged { ops: window.into_iter().map(|(_, op)| op).collect(), db, tracker })
    }

    /// Makes a staged window the tail and queues its database under
    /// `seq`, the seq the journal gave it.
    pub(crate) fn push(&mut self, seq: u64, staged: Staged) {
        self.tail = Arc::new(staged.db);
        self.tracker = staged.tracker;
        self.windows.insert(seq, Arc::clone(&self.tail));
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

    /// A windowed queue over `base`, at seq 0.
    fn windowed(base: &GraphDb) -> IngestQueue {
        IngestQueue::new(Arc::new(base.clone()), 0, Some(WindowTracker::new(base)))
    }

    /// Stages `ops` as frame `seq` (an expiry frame when `expiry` is set)
    /// and makes it the tail.
    fn admit(q: &mut IngestQueue, seq: u64, ops: &[DbUpdate], expiry: Option<u64>) {
        let staged = q.stage(seq, ops, expiry).unwrap();
        q.push(seq, staged);
    }

    /// Synthesizes the oldest live window's expiry frame and admits it as
    /// frame `seq`.
    fn expire(q: &mut IngestQueue, seq: u64) -> (u64, Vec<DbUpdate>) {
        let (expired, ops) = q.tracker.as_ref().unwrap().synthesize_expiry();
        admit(q, seq, &ops, Some(expired));
        (expired, ops)
    }

    /// Expiring every live window in order walks the tail back to the
    /// exact base database, through swap-remove fixups and last-writer
    /// relabel restores.
    #[test]
    fn tracker_expiry_round_trips_to_base() {
        let base = base_db();
        let mut q = windowed(&base);
        // Window 1: relabel a base vertex, add an edge (gid 0 id 2).
        let w1 = [rv(0, 0, 50), ae(0, 0, 2, 30)];
        // Window 2: grow a pendant vertex (gid 0 vertex 3, edge 3).
        let w2 = [av(0, 7, 1, 8)];
        // Window 3: rewrite the same base vertex, add an edge on gid 1.
        let w3 = [rv(0, 0, 60), ae(1, 0, 2, 40)];
        for (seq, w) in [(1u64, &w1[..]), (2, &w2[..]), (3, &w3[..])] {
            admit(&mut q, seq, w, None);
        }
        assert_eq!(q.tracker.as_ref().unwrap().live_count(), 3);

        // Expire window 1. Vertex 0's last writer is window 3, so no
        // restore yet; its edge 2 is swap-removed, pulling window 2's
        // edge 3 into slot 2 (the tracker must follow the move).
        assert_eq!(expire(&mut q, 4), (1, vec![de(0, 2)]));
        let mut expect = base.clone();
        apply_all(&mut expect, &[w2[0], w3[0], w3[1]]).unwrap();
        assert_eq!(*q.tail, expect, "after expiring window 1");

        // Expire window 2: its pendant edge now sits at the remapped id.
        assert_eq!(expire(&mut q, 5), (2, vec![de(0, 2), dv(0, 3)]));

        // Expire window 3: vertex 0 restores to its pre-window-1 label
        // (the origin outlives intermediate writers), gid 1's edge pops.
        assert_eq!(expire(&mut q, 6), (3, vec![rv(0, 0, 0), de(1, 2)]));
        let tr = q.tracker.as_ref().unwrap();
        assert_eq!(tr.live_count(), 0);
        assert_eq!(*q.tail, base, "after expiring every window");
        assert!(tr.origins.is_empty(), "origin records must die with their last writer");
        // Every frame queued the database it produced, sharing the graphs
        // it did not touch with the frame before it.
        assert_eq!(q.windows.keys().copied().collect::<Vec<_>>(), [1, 2, 3, 4, 5, 6]);
        assert!(Arc::ptr_eq(&q.windows[&6], &q.tail));
        assert!(q.windows[&2].shares_graph(&q.windows[&1], 1), "window 2 left gid 1 alone");
        assert!(!q.windows[&2].shares_graph(&q.windows[&1], 0), "window 2 wrote gid 0");
    }

    /// A window deleting its own additions leaves nothing to expire, and
    /// a vertex delete's cascade fixups keep later windows' ids honest.
    /// Boot replay applies the same frames in place, to the same ends.
    #[test]
    fn tracker_follows_delete_cascades_within_windows() {
        let base = base_db();
        let mut q = windowed(&base);
        // Window 1: pendant vertex (attach edge 2), extra base-to-base
        // edge (id 3), then delete the vertex — the cascade swap-removes
        // its attach edge, pulling the extra edge from id 3 down to 2.
        let w1 = [av(0, 7, 1, 8), ae(0, 0, 2, 30), dv(0, 3)];
        admit(&mut q, 1, &w1, None);
        // Window 2: relabel a base edge (restored at its expiry).
        let w2 = [re(0, 1, 99)];
        admit(&mut q, 2, &w2, None);

        // Window 1's survivors: only the extra edge, now at id 2.
        assert_eq!(expire(&mut q, 3), (1, vec![de(0, 2)]));
        assert_eq!(expire(&mut q, 4), (2, vec![re(0, 1, 11)]));
        assert_eq!(*q.tail, base, "after expiring both windows");

        let mut tail = base.clone();
        let mut tr = WindowTracker::new(&base);
        tr.replay(1, &mut tail, &w1, None).unwrap();
        tr.replay(2, &mut tail, &w2, None).unwrap();
        for seq in [3, 4] {
            let (expired, ops) = tr.synthesize_expiry();
            tr.replay(seq, &mut tail, &ops, Some(expired)).unwrap();
        }
        assert_eq!(tail, base, "after replaying both windows and both expiries");
    }

    /// Windowed admission enjoys stricter rules than plain admission:
    /// cross-window references and base deletes are rejected up front,
    /// and a rejection leaves the tail and the tracker as they were.
    #[test]
    fn tracker_validation_rejects_cross_window_and_base_deletes() {
        let base = base_db();
        let mut q = windowed(&base);
        admit(&mut q, 1, &[av(0, 7, 1, 8)], None);
        let tail = Arc::clone(&q.tail);

        let err = |ops: &[DbUpdate]| q.stage(2, ops, None).err().expect("rejected");
        assert!(err(&[rv(0, 3, 5)]).contains("belongs to an earlier live window"));
        assert!(err(&[ae(0, 0, 3, 9)]).contains("belongs to an earlier live window"));
        assert!(err(&[de(0, 2)]).contains("earlier live window"));
        assert!(err(&[de(0, 0)]).contains("cannot delete base edge"));
        assert!(err(&[dv(0, 1)]).contains("cannot delete base vertex"));
        assert_eq!(err(&[rv(9, 0, 1)]), "op 0: graph 9 out of range (2 graphs)");
        // An out-of-range delete passes the id rules and is refused by the
        // graph's own range check, not by a panic under the queue lock.
        assert_eq!(err(&[dv(0, 9)]), "op 0: vertex id 9 out of range (graph has 4 vertices)");
        assert!(Arc::ptr_eq(&q.tail, &tail));
        assert_eq!(q.tracker.as_ref().unwrap().live_count(), 1);
        // Same-window self-references and base relabels stay legal.
        admit(&mut q, 2, &[av(0, 4, 0, 6), rv(0, 4, 5), dv(0, 4)], None);
        admit(&mut q, 3, &[rv(0, 0, 41), re(1, 0, 42)], None);
        assert_eq!(q.tracker.as_ref().unwrap().live_count(), 3);
    }

    /// Boot replay trusts the journal, so the in-place path has no id
    /// rules in front of it: a bad vertex id must still come back as the
    /// graph's own error.
    #[test]
    fn in_place_delete_vertex_checks_its_id() {
        let base = base_db();
        let mut tail = base.clone();
        let mut tr = WindowTracker::new(&base);
        let err = tr.replay(1, &mut tail, &[dv(1, 3)], None).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 3, len: 3 });
        assert_eq!(tail, base);
    }

    /// A rejection names the op the client sent, not its place in the
    /// coalesced window: here the add-vertex and the first delete cancel.
    #[test]
    fn a_rejection_names_the_clients_op() {
        let base = base_db();
        for q in [IngestQueue::new(Arc::new(base.clone()), 0, None), windowed(&base)] {
            let err = q.stage(1, &[av(0, 5, 0, 6), dv(0, 3), dv(0, 3)], None).err();
            let msg = "op 2: vertex id 3 out of range (graph has 3 vertices)";
            assert_eq!(err.as_deref(), Some(msg));
        }
    }
}
