use crate::GraphError;

/// Vertex identifier, dense in `0..vertex_count()`. Insertion assigns
/// increasing ids; deletion ([`Graph::delete_vertex`]) renumbers the highest
/// id into the freed slot (swap-remove), so ids are stable only between
/// deletions — the remap is reported in [`VertexRemoval`].
pub type VertexId = u32;
/// Edge identifier, dense in `0..edge_count()`. Insertion assigns increasing
/// ids; deletion ([`Graph::delete_edge`]) renumbers the highest id into the
/// freed slot (swap-remove), so ids are stable only between deletions — the
/// remap is reported in [`EdgeRemoval`].
pub type EdgeId = u32;
/// Vertex label. The paper's generator draws labels from `0..N`.
pub type VLabel = u32;
/// Edge label.
pub type ELabel = u32;

/// One adjacency-list entry: the neighbouring vertex, the connecting edge's
/// label, and the edge id (for constant-time edge lookup during embedding
/// search).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adjacency {
    /// Neighbour vertex.
    pub to: VertexId,
    /// Label of the connecting edge.
    pub elabel: ELabel,
    /// Identifier of the connecting edge.
    pub eid: EdgeId,
}

/// Normalised edge triple `(min label, edge label, max label)` — orientation
/// independent, the key the support screens count edges by.
#[inline]
pub fn edge_triple(lu: VLabel, le: ELabel, lv: VLabel) -> (VLabel, ELabel, VLabel) {
    if lu <= lv {
        (lu, le, lv)
    } else {
        (lv, le, lu)
    }
}

/// Words of the block one edge takes: `u`, `v`, label.
const EDGE_WORDS: usize = 3;

/// Record of one [`Graph::delete_edge`]: the removed edge's id, endpoints
/// and label, plus the id-remap it caused. Deletion is a swap-remove — when
/// `moved` is `Some(old)`, the edge previously identified by `old` (the
/// highest id at the time of the call) now carries the deleted edge's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRemoval {
    /// Id of the removed edge (at the time of the call), which the moved
    /// edge, if any, now carries.
    pub e: EdgeId,
    /// First endpoint of the removed edge (id at the time of the call).
    pub u: VertexId,
    /// Second endpoint of the removed edge (id at the time of the call).
    pub v: VertexId,
    /// Label of the removed edge.
    pub label: ELabel,
    /// Old id of the edge renumbered into the freed slot, if any.
    pub moved: Option<EdgeId>,
}

/// Record of one [`Graph::delete_vertex`]: the removed vertex's label, the
/// cascade of incident-edge removals (in application order), and the vertex
/// id-remap. When `moved_vertex` is `Some(old)`, the vertex previously
/// identified by `old` (the highest id at the time of the call) now carries
/// the deleted vertex's id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexRemoval {
    /// Label of the removed vertex.
    pub label: VLabel,
    /// Incident edges removed by the cascade, highest edge id first.
    pub removed_edges: Vec<EdgeRemoval>,
    /// Old id of the vertex renumbered into the freed slot, if any.
    pub moved_vertex: Option<VertexId>,
}

/// Run length at or below which the query paths scan linearly instead of
/// binary-searching: on short sorted runs (sparse transaction
/// graphs hover around degree 2–4) the branch-predictable walk is cheaper
/// than two `partition_point` probes.
const LINEAR_RUN_CUTOFF: usize = 16;

/// The adjacency sort key. Grouping a vertex's neighbours by the neighbour's
/// vertex label first and the edge label second makes every
/// `(to_label, elabel)` query a contiguous run, resolvable by binary search.
#[inline]
fn adj_key(vlabels: &[VLabel], a: &Adjacency) -> (VLabel, ELabel, VertexId) {
    (vlabels[a.to as usize], a.elabel, a.to)
}

/// The endpoint checks every edge insertion makes, in [`Graph::add_edge`]'s
/// order: `u` in range, `v` in range, no self-loop. `n` is the vertex count.
#[inline]
pub(crate) fn check_endpoints(n: u32, u: VertexId, v: VertexId) -> Result<(), GraphError> {
    for w in [u, v] {
        if w >= n {
            return Err(GraphError::VertexOutOfRange { vertex: w, len: n });
        }
    }
    if u == v {
        return Err(GraphError::SelfLoop { vertex: u });
    }
    Ok(())
}

/// Inserts `new` at word `at` of `words`, moving the words after it up.
/// Amortised like [`Vec::insert`]: the block grows in doublings.
fn insert_words(words: &mut Vec<u32>, at: usize, new: &[u32]) {
    let len = words.len();
    words.extend_from_slice(new);
    words.copy_within(at..len, at + new.len());
    words[at..at + new.len()].copy_from_slice(new);
}

/// Counting-sorts the two half-edges of every edge into a CSR arena:
/// `offsets` (one word per vertex, plus one) comes in zeroed and leaves with
/// `offsets[v]..offsets[v + 1]` vertex `v`'s run, in edge-id order.
/// Endpoints must be in range.
fn csr_fill(offsets: &mut [u32], edges: &[(VertexId, VertexId, ELabel)]) -> Vec<Adjacency> {
    let n = offsets.len() - 1;
    for &(u, v, _) in edges {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut packed = vec![Adjacency { to: 0, elabel: 0, eid: 0 }; 2 * edges.len()];
    // `offsets[v]` doubles as v's write cursor, which leaves it at v's run
    // end — the next vertex's start — so one shift restores the offsets.
    for (eid, &(u, v, elabel)) in edges.iter().enumerate() {
        for (from, to) in [(u, v), (v, u)] {
            let cursor = &mut offsets[from as usize];
            packed[*cursor as usize] = Adjacency { to, elabel, eid: eid as EdgeId };
            *cursor += 1;
        }
    }
    offsets.copy_within(0..n, 1);
    offsets[0] = 0;
    packed
}

/// Sorts every run of a filled arena by [`adj_key`] — where
/// [`Graph::from_edges`] makes run order in bulk, and [`Graph::subgraph`]
/// mends it after a renumbering; `Graph::csr_insert` keeps the same order
/// one entry at a time. `#[inline]`: with two callers it would otherwise be
/// called out of line from the parser's per-graph loop.
#[inline]
fn csr_sort_runs(vlabels: &[VLabel], offsets: &[u32], packed: &mut [Adjacency]) {
    for w in offsets.windows(2) {
        packed[w[0] as usize..w[1] as usize].sort_unstable_by_key(|a| adj_key(vlabels, a));
    }
    #[cfg(feature = "fault-injection")]
    if crate::fault::armed(crate::fault::Fault::CsrDrift) {
        // Reverse the first run with at least two entries: `to` is
        // unique within a run, so the reversal is never sorted.
        if let Some(w) = offsets.windows(2).find(|w| w[1] - w[0] >= 2) {
            packed[w[0] as usize..w[1] as usize].reverse();
        }
    }
}

/// Scratch space [`Graph::from_edges`] and [`Graph::subgraph`] reuse from
/// one graph to the next, so a loop building many graphs allocates only
/// what the graphs keep.
#[derive(Debug, Default)]
pub struct CsrScratch {
    /// Per vertex, where in the arena an entry naming it was last seen (the
    /// duplicate-edge screen; stale entries are harmless, see its use).
    seen: Vec<u32>,
    /// Per parent vertex, its place in a subgraph's vertex list (trusted
    /// only as [`listed_at`] checks it, so stale entries are harmless).
    vertex_slot: Vec<u32>,
    /// Per parent edge, its place in a subgraph's edge list, likewise.
    edge_slot: Vec<u32>,
}

/// Points `slots[x]` at `i` for every `xs[i]`, growing `slots` to `len`
/// entries first.
///
/// # Panics
///
/// Panics if an `x` is not below `len` or is listed twice; `what` names it.
fn mark_slots(slots: &mut Vec<u32>, len: u32, xs: &[u32], what: &str) {
    if slots.len() < len as usize {
        slots.resize(len as usize, 0);
    }
    for (i, &x) in xs.iter().enumerate() {
        assert!(x < len, "{what} {x} out of range ({len})");
        assert!(listed_at(slots, &xs[..i], x).is_none(), "{what} {x} listed twice");
        slots[x as usize] = i as u32;
    }
}

/// Where `x` is in `xs`, read off the slot [`mark_slots`] set: whatever an
/// earlier list left in `slots[x]` is trusted only if `xs` holds `x` there.
#[inline]
fn listed_at(slots: &[u32], xs: &[u32], x: u32) -> Option<u32> {
    let i = slots[x as usize];
    (xs.get(i as usize) == Some(&x)).then_some(i)
}

/// An undirected, labeled, simple graph `G = (V, E, L_V, L_E)` (Section 3 of
/// the paper).
///
/// Vertices are added with [`Graph::add_vertex`] and identified by dense
/// `u32` ids; edges with [`Graph::add_edge`]. The structure is optimised for
/// the read-mostly access pattern of subgraph mining: from the empty graph
/// on, the adjacency is one flat CSR arena whose per-vertex runs are sorted
/// by `(vlabel(to), elabel, to)`. The sorted order turns labeled-neighbour
/// queries ([`Graph::neighbor_range`]) and edge lookup
/// ([`Graph::edge_between`]) into binary searches. Every mutator — the
/// update workloads relabel, add and delete in place — maintains the
/// sorted-run invariant. A graph built in bulk comes from
/// [`Graph::from_edges`].
///
/// A graph is two heap blocks. One holds `u32` words, three regions back to
/// back:
///
/// ```text
/// vlabels (V) | offsets (V + 1) | edges (3E: u, v, label)
/// ```
///
/// where vertex `v`'s run of the arena is `offsets[v]..offsets[v + 1]`. The
/// other block is the arena of [`Adjacency`] entries, two per edge. A bulk
/// build allocates both at their final size; a mutator moves the words after
/// the region it changes, in place, and grows a block in doublings. Nothing
/// else is stored: how many edges carry a label triple
/// ([`Graph::triple_count`]) is counted off the edges when asked.
///
/// The *size* of a graph is its number of edges, per the paper.
#[derive(Debug, Clone)]
pub struct Graph {
    /// The three regions of the type doc, back to back.
    words: Vec<u32>,
    /// The CSR arena: vertex `v`'s neighbours, sorted by `(vlabel(to),
    /// elabel, to)`, at the run its offsets name.
    packed: Vec<Adjacency>,
    /// Vertex count `V`.
    n: u32,
    /// Edge count `E`.
    m: u32,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::with_capacity(0, 0)
    }
}

/// Graphs are equal when they have the same vertices (ids and labels) and
/// the same edges (ids, endpoints, labels); the adjacency arena is derived
/// from those.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.vlabels() == other.vlabels() && self.edge_words() == other.edge_words()
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `vertices` vertices and `edges`
    /// edges.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        let mut words = Vec::with_capacity(2 * vertices + 1 + EDGE_WORDS * edges);
        words.push(0);
        Graph { words, packed: Vec::with_capacity(2 * edges), n: 0, m: 0 }
    }

    /// Adds a vertex with the given label and returns its id.
    pub fn add_vertex(&mut self, label: VLabel) -> VertexId {
        let n = self.n as usize;
        // Two words at the offsets' end, then the offsets one word up: the
        // label lands at `n`, the new vertex's (empty) run at the end.
        insert_words(&mut self.words, 2 * n + 1, &[label, self.packed.len() as u32]);
        self.words.copy_within(n..2 * n + 1, n + 1);
        self.words[n] = label;
        self.n += 1;
        self.n - 1
    }

    /// Adds an undirected edge `(u, v)` with the given label.
    ///
    /// Costs `O(V + E)`: each half-edge is inserted at its sorted position
    /// in the one packed arena, moving every entry after it. Builders that
    /// hold a whole edge list use [`Graph::from_edges`] instead.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of range, if `u == v`
    /// (self-loop), or if the edge already exists (the model is a simple
    /// graph).
    pub fn add_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        label: ELabel,
    ) -> Result<EdgeId, GraphError> {
        check_endpoints(self.n, u, v)?;
        if self.edge_between(u, v).is_some() {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        let eid = self.m;
        self.words.extend_from_slice(&[u, v, label]);
        self.m += 1;
        self.csr_insert(u, Adjacency { to: v, elabel: label, eid });
        self.csr_insert(v, Adjacency { to: u, elabel: label, eid });
        Ok(eid)
    }

    /// Removes the most recently added edge, undoing the matching
    /// [`Graph::add_edge`], and returns its `(u, v, label)`. Together with
    /// [`Graph::pop_vertex`] this supports the build-test-undo loop of
    /// candidate generation, which probes many one-edge extensions of one
    /// pattern without materialising a graph per candidate.
    pub fn pop_edge(&mut self) -> Option<(VertexId, VertexId, ELabel)> {
        let eid = self.m.checked_sub(1)?;
        let (u, v, label) = self.edge(eid);
        self.drop_last_edge();
        self.csr_remove(u, eid);
        self.csr_remove(v, eid);
        Some((u, v, label))
    }

    /// Removes the most recently added vertex and returns its label. The
    /// vertex must be isolated — pop its incident edges first.
    ///
    /// # Panics
    ///
    /// Panics if the last vertex still has incident edges.
    pub fn pop_vertex(&mut self) -> Option<VLabel> {
        let v = self.n.checked_sub(1)?;
        assert!(self.neighbors(v).is_empty(), "pop_vertex requires an isolated vertex");
        let label = self.vlabel(v);
        self.drop_last_vertex();
        Some(label)
    }

    /// Deletes edge `e` — any edge, not just the newest — and returns a
    /// removal record describing the id-remap it caused.
    ///
    /// Edge ids stay dense: the deletion is a swap-remove, so the edge with
    /// the highest id is renumbered to `e` (recorded as `moved:
    /// Some(old_id)`); deleting the highest id itself leaves every other id
    /// untouched (`moved: None`). Contrast with [`Graph::pop_edge`], which
    /// only undoes the newest insertion. All representation invariants are
    /// maintained.
    ///
    /// # Errors
    ///
    /// Returns an error if `e` is out of range.
    pub fn delete_edge(&mut self, e: EdgeId) -> Result<EdgeRemoval, GraphError> {
        let m = self.m;
        let Some([u, v, label]) = self.edge_record(e) else {
            return Err(GraphError::EdgeOutOfRange { edge: e, len: m });
        };
        self.csr_remove(u, e);
        self.csr_remove(v, e);
        let last = m - 1;
        let moved = (e != last).then(|| {
            // Swap-remove: the highest-id edge takes the freed slot. Its
            // adjacency entries are rewritten in place — `eid` is not part
            // of the sort key, so run positions do not change.
            let (from, to) = (self.edge_start(last), self.edge_start(e));
            self.words.copy_within(from..from + EDGE_WORDS, to);
            for w in [self.words[to], self.words[to + 1]] {
                let run = self.run(w);
                let a = self.packed[run]
                    .iter_mut()
                    .find(|a| a.eid == last)
                    .expect("moved edge present in its endpoint's run");
                a.eid = e;
            }
            last
        });
        self.drop_last_edge();
        Ok(EdgeRemoval { e, u, v, label, moved })
    }

    /// Deletes vertex `v`, cascading to its incident edges, and returns a
    /// removal record describing every id-remap the cascade caused.
    ///
    /// Incident edges are deleted highest id first — each one a
    /// [`Graph::delete_edge`] swap-remove, recorded in order in
    /// `removed_edges`; the descending order guarantees the swap partner is
    /// never another not-yet-deleted incident edge. Then the vertex with the
    /// highest id is renumbered to `v` (`moved_vertex: Some(old_id)`) unless
    /// `v` already was the highest id. Vertex and edge ids stay dense
    /// throughout.
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is out of range.
    pub fn delete_vertex(&mut self, v: VertexId) -> Result<VertexRemoval, GraphError> {
        self.check_vertex(v)?;
        let label = self.vlabel(v);
        // The highest incident id each time: the edge a swap-remove moves
        // into its slot is then never one still to go, and the ids left
        // are the ones the removal record names.
        let mut removed_edges = Vec::with_capacity(self.degree(v));
        while let Some(e) = self.neighbors(v).iter().map(|a| a.eid).max() {
            removed_edges.push(self.delete_edge(e).expect("incident edge in range"));
        }
        // Swap-remove: the highest-id vertex `w` takes the freed id. `w`'s
        // run, last in the arena, rotates into `v`'s empty place, its order
        // unchanged (the key is the neighbours'); then its edges and the
        // entries naming `w` are re-pointed at `v`, each entry re-sorted in
        // its run (`to` is part of the key). When `v` is `w` there is
        // nothing to move.
        let w = self.n - 1;
        if v != w {
            let (at, deg) = (self.run(v).start, self.degree(w));
            self.packed[at..].rotate_right(deg);
            // The runs after `v`'s start `deg` later; the end offset goes
            // with `w`'s slot below.
            let n = self.n as usize;
            for o in &mut self.words[n + v as usize + 1..=n + w as usize] {
                *o += deg as u32;
            }
            self.words[v as usize] = self.words[w as usize];
        }
        self.drop_last_vertex();
        if v != w {
            for i in 0..self.degree(v) {
                let a = self.packed[self.run(v).start + i];
                let at = self.edge_start(a.eid);
                for end in &mut self.words[at..at + 2] {
                    if *end == w {
                        *end = v;
                    }
                }
                let mut entry = self.csr_remove(a.to, a.eid);
                entry.to = v;
                self.csr_insert(a.to, entry);
            }
        }
        let moved_vertex = (v != w).then_some(w);
        Ok(VertexRemoval { label, removed_edges, moved_vertex })
    }

    /// Builds a graph from its vertex labels and edge list in one pass —
    /// what `add_vertex` × n and `add_edge` × m produce, without the
    /// per-edge duplicate probe and the sorted insert per edge into the
    /// arena. Vertex `i` gets `vlabels[i]`, edge `j` is `edges[j]` as `(u,
    /// v, label)`. The graph's two blocks are allocated once each, at their
    /// final size.
    ///
    /// # Errors
    ///
    /// The index of the first edge [`Graph::add_edge`] would have refused,
    /// with the error it would have given.
    pub fn from_edges(
        vlabels: &[VLabel],
        edges: &[(VertexId, VertexId, ELabel)],
        scratch: &mut CsrScratch,
    ) -> Result<Graph, (usize, GraphError)> {
        let n = vlabels.len();
        let bad_endpoints = edges
            .iter()
            .enumerate()
            .find_map(|(i, &(u, v, _))| check_endpoints(n as u32, u, v).err().map(|e| (i, e)));
        if let Some((i, e)) = bad_endpoints {
            // A duplicate among the edges before `i` is the earlier refusal.
            return Err(Self::from_edges(vlabels, &edges[..i], scratch).err().unwrap_or((i, e)));
        }
        let mut words = Vec::with_capacity(2 * n + 1 + EDGE_WORDS * edges.len());
        words.extend_from_slice(vlabels);
        words.resize(2 * n + 1, 0);
        let mut packed = csr_fill(&mut words[n..], edges);
        let offsets = &words[n..];

        // Duplicate screen, while the runs are still in edge-id order: a
        // second entry naming the same neighbour is the later of two parallel
        // edges. `seen[to]` is trusted only when it points into the part of
        // this run already walked *and* that entry names `to`, so whatever
        // an earlier graph left there cannot pass for a hit.
        let seen = &mut scratch.seen;
        if seen.len() < n {
            seen.resize(n, 0);
        }
        let mut first_dup: Option<EdgeId> = None;
        for w in offsets.windows(2) {
            let (start, end) = (w[0] as usize, w[1] as usize);
            for at in start..end {
                let a = packed[at];
                let prev = seen[a.to as usize] as usize;
                if (start..at).contains(&prev) && packed[prev].to == a.to {
                    first_dup = Some(first_dup.map_or(a.eid, |d| d.min(a.eid)));
                    break; // later entries of this run have higher edge ids
                }
                seen[a.to as usize] = at as u32;
            }
        }
        if let Some(eid) = first_dup {
            let (u, v, _) = edges[eid as usize];
            return Err((eid as usize, GraphError::DuplicateEdge { u, v }));
        }
        csr_sort_runs(vlabels, offsets, &mut packed);
        words.extend(edges.iter().flat_map(|&(u, v, label)| [u, v, label]));
        Ok(Graph { words, packed, n: n as u32, m: edges.len() as u32 })
    }

    /// The subgraph of `self` on the listed vertices and edges: vertex `i`
    /// is `vertices[i]` with its label, edge `j` is `edges[j]` with its
    /// label and its endpoints in the same order — the graph
    /// [`Graph::from_edges`] builds from those lists. Each vertex's run is
    /// copied from its run here, which is sorted already, so nothing is
    /// counting-sorted and no edge is screened again: `self`'s edges passed
    /// those checks when they were added. When `vertices` ascends, the
    /// renumbering keeps every run's order and nothing is sorted at all.
    ///
    /// # Panics
    ///
    /// Panics if a vertex or an edge is out of range or listed twice, or if
    /// an endpoint of a listed edge is not listed.
    pub fn subgraph(
        &self,
        vertices: &[VertexId],
        edges: &[EdgeId],
        scratch: &mut CsrScratch,
    ) -> Graph {
        let (n, m) = (vertices.len(), edges.len());
        let CsrScratch { vertex_slot, edge_slot, .. } = scratch;
        mark_slots(vertex_slot, self.n, vertices, "vertex");
        mark_slots(edge_slot, self.m, edges, "edge");
        let mut words = Vec::with_capacity(2 * n + 1 + EDGE_WORDS * m);
        words.extend(vertices.iter().map(|&v| self.vlabel(v)));
        words.push(0);
        let mut packed = Vec::with_capacity(2 * m);
        for &v in vertices {
            for a in self.neighbors(v) {
                if let Some(eid) = listed_at(edge_slot, edges, a.eid) {
                    // `a.to` is listed: the edge loop below panics if not.
                    let to = vertex_slot[a.to as usize];
                    packed.push(Adjacency { to, elabel: a.elabel, eid });
                }
            }
            words.push(packed.len() as u32);
        }
        if !vertices.is_sorted() {
            // A run keeps its order but among neighbours that tie on both
            // labels, which the renumbering may reorder.
            csr_sort_runs(&words[..n], &words[n..], &mut packed);
        }
        for &e in edges {
            let [u, v, label] = self.edge_record(e).expect("edge ids are checked");
            for w in [u, v] {
                let at = listed_at(vertex_slot, vertices, w);
                words.push(at.unwrap_or_else(|| panic!("endpoint {w} of edge {e} is not listed")));
            }
            words.push(label);
        }
        Graph { words, packed, n: n as u32, m: m as u32 }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.n as usize
    }

    /// Number of edges (the paper's notion of graph *size*).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.m as usize
    }

    /// `true` when the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bounds-checks a vertex id against this graph. The single shared
    /// range check behind every vertex-referencing operation, so all of
    /// them report the same [`GraphError::VertexOutOfRange`] shape.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] when `v >= vertex_count()`.
    #[inline]
    pub fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: v, len: self.n });
        }
        Ok(())
    }

    /// Label of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn vlabel(&self, v: VertexId) -> VLabel {
        self.vlabels()[v as usize]
    }

    /// All vertex labels, indexed by vertex id.
    #[inline]
    pub fn vlabels(&self) -> &[VLabel] {
        &self.words[..self.n as usize]
    }

    /// Re-labels vertex `v` (used by the update workloads).
    ///
    /// This repositions `v`'s entry inside each neighbour's sorted run (the
    /// sort key leads with the neighbour's vertex label).
    pub fn set_vlabel(&mut self, v: VertexId, label: VLabel) -> Result<(), GraphError> {
        self.check_vertex(v)?;
        let old = self.vlabel(v);
        if old == label {
            return Ok(());
        }
        // `v`'s own run keeps its order (its key is the neighbours' labels),
        // and a neighbour's run only gives `v`'s entry back where it now
        // belongs, so the run is read in place, entry by entry.
        self.words[v as usize] = label;
        for i in 0..self.degree(v) {
            let a = self.packed[self.run(v).start + i];
            let entry = self.csr_remove(a.to, a.eid);
            self.csr_insert(a.to, entry);
        }
        Ok(())
    }

    /// Re-labels edge `e` (used by the update workloads).
    ///
    /// This repositions the edge's entry inside both endpoints' sorted runs
    /// (the sort key includes the edge label), so the sorted-adjacency
    /// invariant survives incremental relabel storms.
    pub fn set_elabel(&mut self, e: EdgeId, label: ELabel) -> Result<(), GraphError> {
        let m = self.m;
        let [u, v, old] =
            self.edge_record(e).ok_or(GraphError::EdgeOutOfRange { edge: e, len: m })?;
        if old == label {
            return Ok(());
        }
        let at = self.edge_start(e);
        self.words[at + 2] = label;
        for half in [u, v] {
            let mut entry = self.csr_remove(half, e);
            entry.elabel = label;
            self.csr_insert(half, entry);
        }
        Ok(())
    }

    /// Endpoints and label of edge `e` as `(u, v, label)`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (VertexId, VertexId, ELabel) {
        let [u, v, label] = self.edge_record(e).expect("edge id in range");
        (u, v, label)
    }

    /// Iterates over all edges as `(eid, u, v, label)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId, ELabel)> + '_ {
        self.edge_words()
            .chunks_exact(EDGE_WORDS)
            .enumerate()
            .map(|(i, w)| (i as EdgeId, w[0], w[1], w[2]))
    }

    /// Adjacency list of vertex `v`: its run of the CSR arena, sorted by
    /// `(vlabel(to), elabel, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[Adjacency] {
        &self.packed[self.run(v)]
    }

    /// The index range within [`Graph::neighbors`]`(v)` that holds exactly
    /// the neighbours reached over an `elabel`-labeled edge and carrying
    /// vertex label `to_label`.
    pub fn neighbor_range(
        &self,
        v: VertexId,
        to_label: VLabel,
        elabel: ELabel,
    ) -> std::ops::Range<usize> {
        let run = self.neighbors(v);
        let vl = self.vlabels();
        // The matching entries are contiguous either way; on the short runs
        // typical of sparse transaction graphs a linear walk beats the two
        // binary probes.
        if run.len() <= LINEAR_RUN_CUTOFF {
            let mut lo = 0;
            while lo < run.len() && (vl[run[lo].to as usize], run[lo].elabel) < (to_label, elabel) {
                lo += 1;
            }
            let mut hi = lo;
            while hi < run.len() && (vl[run[hi].to as usize], run[hi].elabel) == (to_label, elabel)
            {
                hi += 1;
            }
            return lo..hi;
        }
        let lo = run.partition_point(|a| (vl[a.to as usize], a.elabel) < (to_label, elabel));
        let hi =
            lo + run[lo..].partition_point(|a| (vl[a.to as usize], a.elabel) == (to_label, elabel));
        lo..hi
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Looks up the edge between `u` and `v`, if present. A long probe run
    /// is binary-searched down to the block of neighbours sharing the other
    /// endpoint's vertex label.
    pub fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        let (probe, other) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        let mut run = self.neighbors(probe);
        if run.len() > LINEAR_RUN_CUTOFF {
            let vl = self.vlabels();
            let tl = vl[other as usize];
            let lo = run.partition_point(|a| vl[a.to as usize] < tl);
            let hi = lo + run[lo..].partition_point(|a| vl[a.to as usize] == tl);
            run = &run[lo..hi];
        }
        run.iter().find(|a| a.to == other).map(|a| a.eid)
    }

    /// Every edge's normalised triple ([`edge_triple`]), in edge-id order: a
    /// triple comes once per edge that carries it. Read off the edges; no
    /// graph stores its triples.
    pub fn edge_triples(&self) -> impl Iterator<Item = (VLabel, ELabel, VLabel)> + '_ {
        let vl = self.vlabels();
        self.edge_words()
            .chunks_exact(EDGE_WORDS)
            .map(|w| edge_triple(vl[w[0] as usize], w[2], vl[w[1] as usize]))
    }

    /// Multiplicity of the normalised edge triple `(lu, le, lv)` — how many
    /// edges carry label `le` between vertices labeled `lu` and `lv`, in
    /// either orientation. Counted off the edges, `O(E)`.
    pub fn triple_count(&self, lu: VLabel, le: ELabel, lv: VLabel) -> u32 {
        let t = edge_triple(lu, le, lv);
        self.edge_triples().filter(|&x| x == t).count() as u32
    }

    /// `true` when a path exists between every pair of vertices (and the
    /// graph is non-empty).
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.vertex_count()];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for a in self.neighbors(v) {
                if !seen[a.to as usize] {
                    seen[a.to as usize] = true;
                    count += 1;
                    stack.push(a.to);
                }
            }
        }
        count == self.vertex_count()
    }

    /// Connected components as lists of vertex ids.
    pub fn connected_components(&self) -> Vec<Vec<VertexId>> {
        let mut comp = vec![usize::MAX; self.vertex_count()];
        let mut out: Vec<Vec<VertexId>> = Vec::new();
        for start in 0..self.vertex_count() {
            if comp[start] != usize::MAX {
                continue;
            }
            let id = out.len();
            let mut members = vec![start as VertexId];
            comp[start] = id;
            let mut stack = vec![start as VertexId];
            while let Some(v) = stack.pop() {
                for a in self.neighbors(v) {
                    if comp[a.to as usize] == usize::MAX {
                        comp[a.to as usize] = id;
                        members.push(a.to);
                        stack.push(a.to);
                    }
                }
            }
            out.push(members);
        }
        out
    }

    /// Builds the subgraph induced by the given edge ids ([`Graph::subgraph`]
    /// on their endpoints).
    ///
    /// Vertices incident to any selected edge are kept and renumbered
    /// densely, in the order they first appear; the returned map gives, for
    /// each new vertex id, the original vertex id (`new -> old`).
    ///
    /// # Errors
    ///
    /// Returns an error if any edge id is out of range.
    ///
    /// # Panics
    ///
    /// Panics if an edge id is listed twice.
    pub fn edge_subgraph(&self, edge_ids: &[EdgeId]) -> Result<(Graph, Vec<VertexId>), GraphError> {
        let mut kept = vec![false; self.vertex_count()];
        let mut new_to_old = Vec::new();
        for &eid in edge_ids {
            let [u, v, _] = self
                .edge_record(eid)
                .ok_or(GraphError::EdgeOutOfRange { edge: eid, len: self.m })?;
            for w in [u, v] {
                if !std::mem::replace(&mut kept[w as usize], true) {
                    new_to_old.push(w);
                }
            }
        }
        let g = self.subgraph(&new_to_old, edge_ids, &mut CsrScratch::default());
        Ok((g, new_to_old))
    }

    /// A histogram-style summary key used for fast infeasibility pruning in
    /// subgraph-isomorphism tests: `(vertices, edges)`.
    #[inline]
    pub fn size_key(&self) -> (usize, usize) {
        (self.vertex_count(), self.edge_count())
    }

    /// Verifies every structural invariant of the representation: the
    /// block's length, offset monotonicity and coverage of the CSR arena,
    /// sorted per-vertex runs, and exact adjacency/edge mirroring. Cheap
    /// enough for test and oracle use (`O(V + E)`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (n, m) = (self.vertex_count(), self.edge_count());
        if self.words.len() != 2 * n + 1 + EDGE_WORDS * m {
            return Err(format!(
                "block has {} words for {n} vertices and {m} edges (want 2V + 1 + 3E)",
                self.words.len()
            ));
        }
        let (offsets, packed) = (self.offsets(), &self.packed);
        if offsets[0] != 0 || offsets[n] as usize != packed.len() {
            return Err("offsets do not span the packed arena".into());
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets are not monotone".into());
        }
        if packed.len() != 2 * m {
            return Err(format!(
                "packed arena has {} entries for {m} edges (want 2E)",
                packed.len()
            ));
        }
        let vlabels = self.vlabels();
        for v in 0..self.n {
            let run = self.neighbors(v);
            for w in run.windows(2) {
                if adj_key(vlabels, &w[0]) >= adj_key(vlabels, &w[1]) {
                    return Err(format!(
                        "vertex {v}: run not strictly sorted at ({} e{} #{}) >= ({} e{} #{})",
                        w[0].to, w[0].elabel, w[0].eid, w[1].to, w[1].elabel, w[1].eid
                    ));
                }
            }
            for a in run {
                let Some([eu, ev, label]) = self.edge_record(a.eid) else {
                    return Err(format!("vertex {v}: adjacency names unknown edge {}", a.eid));
                };
                if a.elabel != label || (eu, ev) != (v, a.to) && (ev, eu) != (v, a.to) {
                    return Err(format!(
                        "vertex {v}: adjacency ({} e{} #{}) disagrees with edge \
                         {eu}-{ev} label {label}",
                        a.to, a.elabel, a.eid
                    ));
                }
            }
        }
        Ok(())
    }

    /// The offsets region: `V + 1` words.
    #[inline]
    fn offsets(&self) -> &[u32] {
        let n = self.n as usize;
        &self.words[n..2 * n + 1]
    }

    /// Word index of edge `e`'s record (`e` in range, or `E` for the end
    /// of the edges).
    #[inline]
    fn edge_start(&self, e: EdgeId) -> usize {
        2 * self.n as usize + 1 + EDGE_WORDS * e as usize
    }

    /// The edges region, last in the block: `[u, v, label]` per edge id.
    #[inline]
    fn edge_words(&self) -> &[u32] {
        &self.words[self.edge_start(0)..]
    }

    /// Edge `e`'s `[u, v, label]`, or `None` when `e` is out of range.
    #[inline]
    fn edge_record(&self, e: EdgeId) -> Option<[u32; EDGE_WORDS]> {
        let at = EDGE_WORDS * e as usize;
        let w = self.edge_words().get(at..at + EDGE_WORDS)?;
        Some([w[0], w[1], w[2]])
    }

    /// Vertex `v`'s run as an index range into the packed arena.
    #[inline]
    fn run(&self, v: VertexId) -> std::ops::Range<usize> {
        let offsets = self.offsets();
        offsets[v as usize] as usize..offsets[v as usize + 1] as usize
    }

    /// Removes the last edge's words (its arena entries are the caller's).
    fn drop_last_edge(&mut self) {
        self.words.truncate(self.words.len() - EDGE_WORDS);
        self.m -= 1;
    }

    /// Removes the last vertex's label and offset; its run must be empty.
    fn drop_last_vertex(&mut self) {
        let n = self.n as usize;
        // The offsets but the last one word down over the label, then the
        // two words that leaves at the offsets' end.
        self.words.copy_within(n..2 * n, n - 1);
        self.words.drain(2 * n - 1..2 * n + 1);
        self.n -= 1;
    }

    /// Inserts `a` at its sorted position in vertex `v`'s run.
    fn csr_insert(&mut self, v: VertexId, a: Adjacency) {
        let run = self.run(v);
        let vlabels = self.vlabels();
        let k = adj_key(vlabels, &a);
        let pos = self.packed[run.clone()].partition_point(|x| adj_key(vlabels, x) < k);
        // Append instead — the insertion order a per-vertex list keeps —
        // which leaves every run that gains a smaller entry unsorted.
        #[cfg(feature = "fault-injection")]
        let pos = if crate::fault::armed(crate::fault::Fault::CsrDrift) { run.len() } else { pos };
        self.packed.insert(run.start + pos, a);
        self.shift_offsets_after(v, 1);
    }

    /// Removes the entry for edge `e` from vertex `v`'s run.
    fn csr_remove(&mut self, v: VertexId, e: EdgeId) -> Adjacency {
        let run = self.run(v);
        let pos = self.packed[run.clone()]
            .iter()
            .position(|a| a.eid == e)
            .expect("edge present in its endpoint's run");
        let entry = self.packed.remove(run.start + pos);
        self.shift_offsets_after(v, -1);
        entry
    }

    /// Moves the run of every vertex after `v` by `delta` arena entries.
    fn shift_offsets_after(&mut self, v: VertexId, delta: i32) {
        let n = self.n as usize;
        for o in &mut self.words[n + v as usize + 1..2 * n + 1] {
            *o = o.wrapping_add_signed(delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new();
        let a = g.add_vertex(0);
        let b = g.add_vertex(1);
        let c = g.add_vertex(2);
        g.add_edge(a, b, 10).unwrap();
        g.add_edge(b, c, 11).unwrap();
        g.add_edge(c, a, 12).unwrap();
        g
    }

    #[test]
    fn build_and_query() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.vlabel(1), 1);
        assert_eq!(g.edge(1), (1, 2, 11));
        assert_eq!(g.degree(0), 2);
        assert!(g.edge_between(0, 2).is_some());
        assert!(g.is_connected());
    }

    /// An empty graph is a valid CSR from birth, whichever way it is made —
    /// including the empty slot `mem::take` leaves behind.
    #[test]
    fn empty_graphs_are_coherent() {
        Graph::default().check_invariants().unwrap();
        Graph::with_capacity(4, 9).check_invariants().unwrap();
        let mut slot = triangle();
        let taken = std::mem::take(&mut slot);
        slot.check_invariants().unwrap();
        assert_eq!(slot, Graph::new());
        taken.check_invariants().unwrap();
        let v = slot.add_vertex(3);
        assert!(slot.neighbors(v).is_empty());
        slot.check_invariants().unwrap();
    }

    #[test]
    fn mutation_keeps_invariants() {
        let mut g = triangle();
        let d = g.add_vertex(1);
        g.add_edge(d, 0, 10).unwrap();
        g.set_vlabel(2, 0).unwrap();
        g.set_elabel(1, 99).unwrap();
        g.check_invariants().unwrap();
        assert_eq!(g.edge_between(3, 0), Some(3));
        assert_eq!(g.triple_count(0, 10, 1), 2);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new();
        let a = g.add_vertex(0);
        assert_eq!(g.add_edge(a, a, 0), Err(GraphError::SelfLoop { vertex: 0 }));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut g = Graph::new();
        let a = g.add_vertex(0);
        let b = g.add_vertex(1);
        g.add_edge(a, b, 0).unwrap();
        assert_eq!(g.add_edge(b, a, 5), Err(GraphError::DuplicateEdge { u: 1, v: 0 }));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = Graph::new();
        g.add_vertex(0);
        assert!(matches!(g.add_edge(0, 7, 0), Err(GraphError::VertexOutOfRange { .. })));
        assert!(matches!(g.set_elabel(3, 0), Err(GraphError::EdgeOutOfRange { .. })));
    }

    #[test]
    fn relabel_vertex_and_edge() {
        let mut g = triangle();
        g.set_vlabel(0, 99).unwrap();
        assert_eq!(g.vlabel(0), 99);
        g.set_elabel(0, 77).unwrap();
        assert_eq!(g.edge(0).2, 77);
        // adjacency mirrors the new label on both endpoints
        assert!(g.neighbors(0).iter().any(|a| a.eid == 0 && a.elabel == 77));
        assert!(g.neighbors(1).iter().any(|a| a.eid == 0 && a.elabel == 77));
        g.check_invariants().unwrap();
    }

    /// The triple count is read off the edges, so it follows every relabel
    /// with nothing to keep in step.
    #[test]
    fn triple_count_tracks_mutation() {
        let mut g = triangle();
        assert_eq!(g.triple_count(0, 10, 1), 1);
        assert_eq!(g.triple_count(1, 10, 0), 1, "orientation-normalised");
        assert_eq!(g.triple_count(0, 10, 2), 0);
        g.set_elabel(0, 11).unwrap();
        assert_eq!(g.triple_count(0, 10, 1), 0);
        assert_eq!(g.triple_count(0, 11, 1), 1);
        g.set_vlabel(0, 1).unwrap();
        assert_eq!(g.triple_count(1, 11, 1), 1);
        assert_eq!(g.triple_count(1, 12, 2), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn components_and_connectivity() {
        let mut g = Graph::new();
        let a = g.add_vertex(0);
        let b = g.add_vertex(0);
        let c = g.add_vertex(0);
        g.add_vertex(0); // isolated
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, c, 0).unwrap();
        assert!(!g.is_connected());
        let comps = g.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 3);
        assert_eq!(comps[1].len(), 1);
    }

    #[test]
    fn empty_graph_is_not_connected() {
        assert!(!Graph::new().is_connected());
    }

    #[test]
    fn edge_subgraph_renumbers_densely() {
        let g = triangle();
        let (sub, map) = g.edge_subgraph(&[1]).unwrap();
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(map, vec![1, 2]);
        assert_eq!(sub.vlabel(0), 1);
        assert_eq!(sub.vlabel(1), 2);
        assert_eq!(sub.edge(0).2, 11);
    }

    #[test]
    fn edge_subgraph_rejects_bad_edge() {
        let g = triangle();
        assert!(g.edge_subgraph(&[9]).is_err());
    }

    /// A 5-vertex graph with enough edges that middle deletions exercise
    /// both the swap-remove remap and the no-remap (last id) paths.
    fn path5() -> Graph {
        let mut g = Graph::new();
        for l in [0u32, 1, 2, 3, 4] {
            g.add_vertex(l);
        }
        g.add_edge(0, 1, 10).unwrap();
        g.add_edge(1, 2, 11).unwrap();
        g.add_edge(2, 3, 12).unwrap();
        g.add_edge(3, 4, 13).unwrap();
        g.add_edge(0, 4, 14).unwrap();
        g
    }

    #[test]
    fn delete_edge_swap_removes_and_remaps() {
        let mut g = path5();
        let rec = g.delete_edge(1).unwrap();
        assert_eq!((rec.e, rec.u, rec.v, rec.label), (1, 1, 2, 11));
        assert_eq!(rec.moved, Some(4), "edge 4 renumbered into slot 1");
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.edge(1), (0, 4, 14), "moved edge answers under its new id");
        assert_eq!(g.edge_between(1, 2), None);
        assert_eq!(g.edge_between(0, 4), Some(1));
        assert_eq!(g.triple_count(1, 11, 2), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn delete_last_edge_does_not_remap() {
        let mut g = path5();
        let rec = g.delete_edge(4).unwrap();
        assert_eq!(rec.moved, None);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.edge_between(0, 4), None);
        g.check_invariants().unwrap();
    }

    #[test]
    fn delete_edge_rejects_out_of_range() {
        let mut g = path5();
        assert_eq!(g.delete_edge(9), Err(GraphError::EdgeOutOfRange { edge: 9, len: 5 }));
    }

    #[test]
    fn delete_vertex_cascades_and_remaps() {
        let mut g = path5();
        let rec = g.delete_vertex(1).unwrap();
        assert_eq!(rec.label, 1);
        assert_eq!(rec.removed_edges.len(), 2, "cascade removed both incident edges");
        assert_eq!(rec.moved_vertex, Some(4), "vertex 4 renumbered into slot 1");
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.vlabel(1), 4, "moved vertex keeps its label");
        // Survivors: 2-3 (was e2), 3-old4 and 0-old4 with old4 now id 1.
        assert!(g.edge_between(2, 3).is_some());
        assert!(g.edge_between(3, 1).is_some());
        assert!(g.edge_between(0, 1).is_some());
        g.check_invariants().unwrap();
    }

    #[test]
    fn delete_highest_vertex_does_not_remap() {
        let mut g = path5();
        let rec = g.delete_vertex(4).unwrap();
        assert_eq!(rec.moved_vertex, None);
        assert_eq!(rec.removed_edges.len(), 2);
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
        g.check_invariants().unwrap();
    }

    #[test]
    fn delete_vertex_rejects_out_of_range() {
        let mut g = path5();
        assert_eq!(g.delete_vertex(9), Err(GraphError::VertexOutOfRange { vertex: 9, len: 5 }));
    }

    #[test]
    fn delete_then_mutate_keeps_invariants() {
        let mut g = path5();
        g.delete_vertex(2).unwrap();
        let d = g.add_vertex(7);
        g.add_edge(d, 0, 20).unwrap();
        g.set_vlabel(1, 8).unwrap();
        g.set_elabel(0, 21).unwrap();
        g.check_invariants().unwrap();
    }
}
