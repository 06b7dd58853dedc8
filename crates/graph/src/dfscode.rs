//! gSpan DFS codes and the minimum-DFS-code canonical form (Section 3).
//!
//! A DFS code is a sequence of 5-tuples `(i, j, l_i, l_(i,j), l_j)` produced
//! by a depth-first traversal of a connected labeled graph. Among all DFS
//! codes of a graph, the lexicographically *minimum* one is a canonical form:
//! two connected graphs are isomorphic iff their minimum DFS codes are equal.
//!
//! [`min_dfs_code`] computes the canonical code of a graph and [`is_min`]
//! checks whether a code (grown by rightmost extension during mining) is
//! already the canonical one. Both share a search that tracks *every*
//! partial embedding realizing the current minimal prefix and, at each step,
//! extends with the globally minimal next edge over all embeddings. Moves
//! are restricted to genuine DFS moves — pending backward edges must be
//! emitted from the rightmost vertex in increasing target order, and the
//! traversal may only backtrack past *finished* vertices — so every prefix
//! the search visits is completable and the greedy choice is exact.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;

use rustc_hash::FxHashSet;

use crate::{CsrScratch, ELabel, Graph, GraphError, VLabel, VertexId};

/// The label list, edge list and [`CsrScratch`] that
/// [`DfsCode::try_to_graph`] builds in, kept from call to call on each
/// thread: every canonical test ([`is_min`]) builds its code's graph, so the
/// graph's two blocks are all a build allocates.
type BuildBuffers = (Vec<VLabel>, Vec<(VertexId, VertexId, ELabel)>, CsrScratch);

thread_local! {
    static BUILD_BUFFERS: RefCell<BuildBuffers> = RefCell::default();
}

/// One DFS-code entry `(i, j, l_i, l_(i,j), l_j)`.
///
/// `from`/`to` are *code vertices* (discovery indices). A **forward** edge
/// has `from < to` and discovers code vertex `to`; a **backward** edge has
/// `to < from` and closes a cycle to an ancestor on the rightmost path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DfsEdge {
    /// Code vertex the edge is emitted from.
    pub from: u32,
    /// Code vertex the edge points to.
    pub to: u32,
    /// Label of `from`.
    pub from_label: VLabel,
    /// Label of the edge.
    pub edge_label: ELabel,
    /// Label of `to`.
    pub to_label: VLabel,
}

impl DfsEdge {
    /// Creates a code edge.
    pub fn new(
        from: u32,
        to: u32,
        from_label: VLabel,
        edge_label: ELabel,
        to_label: VLabel,
    ) -> Self {
        DfsEdge { from, to, from_label, edge_label, to_label }
    }

    /// `true` for a forward (tree) edge.
    #[inline]
    pub fn is_forward(&self) -> bool {
        self.from < self.to
    }

    /// gSpan's total order on DFS-code entries: structural position first
    /// (forward/backward relations), then the `(l_i, l_(i,j), l_j)` label
    /// triple.
    pub fn dfs_cmp(&self, other: &DfsEdge) -> Ordering {
        let pos = match (self.is_forward(), other.is_forward()) {
            // Both forward: smaller discovery target wins; on a tie the
            // *deeper* source (larger `from`) wins — rightmost extension.
            (true, true) => self.to.cmp(&other.to).then(other.from.cmp(&self.from)),
            // Both backward: emitted earlier (smaller `from`), then closing
            // to the earlier ancestor (smaller `to`).
            (false, false) => self.from.cmp(&other.from).then(self.to.cmp(&other.to)),
            // Forward vs backward: forward (i1, j1) precedes backward
            // (i2, j2) iff j1 <= i2.
            (true, false) => {
                if self.to <= other.from {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if self.from < other.to {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
        };
        pos.then_with(|| {
            (self.from_label, self.edge_label, self.to_label).cmp(&(
                other.from_label,
                other.edge_label,
                other.to_label,
            ))
        })
    }
}

impl fmt::Display for DfsEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({},{},{},{},{})",
            self.from, self.to, self.from_label, self.edge_label, self.to_label
        )
    }
}

/// A DFS code: an ordered list of [`DfsEdge`] entries.
///
/// Codes grown by rightmost extension are always valid DFS codes of the
/// pattern they describe; [`DfsCode::to_graph`] rebuilds that pattern.
/// `DfsCode` implements `Ord` with the gSpan lexicographic order (the order
/// a [`crate::PatternSet`] keeps), and `Hash`, so codes can key hash maps.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct DfsCode(pub Vec<DfsEdge>);

impl DfsCode {
    /// The empty code.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of edges in the encoded pattern.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the code has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of vertices in the encoded pattern.
    pub fn vertex_count(&self) -> usize {
        self.0.iter().map(|e| e.from.max(e.to) as usize + 1).max().unwrap_or(0)
    }

    /// Appends an entry (used by the miners' rightmost extension).
    pub fn push(&mut self, e: DfsEdge) {
        self.0.push(e);
    }

    /// Removes the last entry.
    pub fn pop(&mut self) -> Option<DfsEdge> {
        self.0.pop()
    }

    /// Rebuilds the pattern graph described by this code.
    ///
    /// # Panics
    ///
    /// Panics where [`DfsCode::try_to_graph`] returns an error.
    pub fn to_graph(&self) -> Graph {
        self.try_to_graph().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Rebuilds the pattern graph described by this code, in one
    /// [`Graph::from_edges`] over its labels and edges.
    ///
    /// # Errors
    ///
    /// The code is structurally invalid: a forward edge that does not
    /// discover the next vertex index, or a duplicate or loop edge. The
    /// first fault in code order is reported, as adding the edges one by one
    /// would meet it.
    pub fn try_to_graph(&self) -> Result<Graph, String> {
        BUILD_BUFFERS.with(|buffers| {
            let (vlabels, edges, scratch) = &mut *buffers.borrow_mut();
            vlabels.clear();
            edges.clear();
            self.build_into(vlabels, edges, scratch)
        })
    }

    /// [`DfsCode::try_to_graph`] in the buffers given. A vertex label is
    /// pushed only for a forward edge that discovers it, so a hostile vertex
    /// id cannot size them.
    fn build_into(
        &self,
        vlabels: &mut Vec<VLabel>,
        edges: &mut Vec<(VertexId, VertexId, ELabel)>,
        scratch: &mut CsrScratch,
    ) -> Result<Graph, String> {
        let mut build = |vlabels: &[VLabel], edges: &[(VertexId, VertexId, ELabel)]| {
            Graph::from_edges(vlabels, edges, scratch)
                .map_err(|(i, err)| format!("invalid DFS code: {}: {err}", self.0[i]))
        };
        for e in &self.0 {
            let n = vlabels.len() as u32;
            let refused = if e.is_forward() {
                if e.from > n {
                    Some(format!("invalid DFS code: gap before {e}"))
                } else if e.to != n + u32::from(e.from == n) {
                    Some(format!("invalid DFS code: forward edge {e} out of order"))
                } else {
                    if e.from == n {
                        vlabels.push(e.from_label);
                    }
                    vlabels.push(e.to_label);
                    None
                }
            } else if e.from >= n {
                // A backward edge names vertices discovered before it.
                let err = GraphError::VertexOutOfRange { vertex: e.from, len: n };
                Some(format!("invalid DFS code: {e}: {err}"))
            } else {
                None
            };
            if let Some(refused) = refused {
                // A duplicate among the edges before `e` is the earlier fault.
                build(vlabels, edges)?;
                return Err(refused);
            }
            edges.push((e.from, e.to, e.edge_label));
        }
        build(vlabels, edges)
    }

    /// The rightmost path of the encoded DFS tree as code vertices, from the
    /// root (`0`) to the rightmost (most recently discovered) vertex.
    pub fn rightmost_path(&self) -> Vec<u32> {
        if self.0.is_empty() {
            return Vec::new();
        }
        let n = self.vertex_count() as u32;
        let mut parent = vec![u32::MAX; n as usize];
        let mut rightmost = 0u32;
        for e in &self.0 {
            if e.is_forward() {
                parent[e.to as usize] = e.from;
                rightmost = rightmost.max(e.to);
            }
        }
        let mut path = Vec::new();
        let mut v = rightmost;
        loop {
            path.push(v);
            if v == 0 {
                break;
            }
            v = parent[v as usize];
        }
        path.reverse();
        path
    }

    /// Lexicographic comparison in gSpan's DFS order; a proper prefix sorts
    /// before its extensions.
    pub fn dfs_cmp(&self, other: &DfsCode) -> Ordering {
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            match a.dfs_cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

impl PartialOrd for DfsCode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DfsCode {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dfs_cmp(other)
    }
}

impl fmt::Display for DfsCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl FromIterator<DfsEdge> for DfsCode {
    fn from_iter<T: IntoIterator<Item = DfsEdge>>(iter: T) -> Self {
        DfsCode(iter.into_iter().collect())
    }
}

/// The operations the canonical search needs from a partial embedding of
/// the code prefix into the subject graph. Two implementations exist: a
/// packed, allocation-free [`SmallEmb`] for the pattern-sized graphs that
/// dominate mining (the hot path — `is_min` runs once per generated
/// candidate), and the general [`Emb`] for arbitrary graphs.
trait EmbState: Clone {
    /// Hashable identity for de-duplicating equivalent embeddings: the
    /// (code vertex -> graph vertex) map plus the set of emitted edges.
    type Key: std::hash::Hash + Eq;

    fn initial(g: &Graph, gu: VertexId, gv: VertexId, eid: u32) -> Self;
    /// Graph vertex a code vertex is mapped to.
    fn mapped(&self, code_v: u32) -> VertexId;
    /// Number of mapped code vertices (the next forward index).
    fn mapped_len(&self) -> u32;
    /// Code vertex a graph vertex is mapped from (`u32::MAX` if unmapped).
    fn code_of(&self, gv: VertexId) -> u32;
    fn is_used(&self, eid: u32) -> bool;
    fn extend_backward(&self, eid: u32) -> Self;
    fn extend_forward(&self, eid: u32, gv: VertexId) -> Self;
    fn key(&self) -> Self::Key;
}

/// A partial embedding of the code prefix into the subject graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Emb {
    /// code vertex -> graph vertex
    map: Vec<VertexId>,
    /// graph vertex -> code vertex (`u32::MAX` when unmapped)
    inv: Vec<u32>,
    /// graph edge id -> already emitted?
    used: Vec<bool>,
}

impl EmbState for Emb {
    type Key = (Vec<VertexId>, Vec<bool>);

    fn initial(g: &Graph, gu: VertexId, gv: VertexId, eid: u32) -> Self {
        let mut inv = vec![u32::MAX; g.vertex_count()];
        inv[gu as usize] = 0;
        inv[gv as usize] = 1;
        let mut used = vec![false; g.edge_count()];
        used[eid as usize] = true;
        Emb { map: vec![gu, gv], inv, used }
    }

    #[inline]
    fn mapped(&self, code_v: u32) -> VertexId {
        self.map[code_v as usize]
    }

    #[inline]
    fn mapped_len(&self) -> u32 {
        self.map.len() as u32
    }

    #[inline]
    fn code_of(&self, gv: VertexId) -> u32 {
        self.inv[gv as usize]
    }

    #[inline]
    fn is_used(&self, eid: u32) -> bool {
        self.used[eid as usize]
    }

    fn extend_backward(&self, eid: u32) -> Self {
        let mut next = self.clone();
        next.used[eid as usize] = true;
        next
    }

    fn extend_forward(&self, eid: u32, gv: VertexId) -> Self {
        let mut next = self.clone();
        next.used[eid as usize] = true;
        next.inv[gv as usize] = next.map.len() as u32;
        next.map.push(gv);
        next
    }

    fn key(&self) -> Self::Key {
        (self.map.clone(), self.used.clone())
    }
}

/// Vertex capacity of [`SmallEmb`] (graph and code vertex ids fit in a
/// nibble-indexed byte array).
const SMALL_VERTS: usize = 16;
/// Edge capacity of [`SmallEmb`] (edge ids index a `u64` bitmask).
const SMALL_EDGES: usize = 64;

/// Packed embedding state for graphs with at most [`SMALL_VERTS`] vertices
/// and [`SMALL_EDGES`] edges — every candidate pattern a miner
/// canonicalises. `Copy`-sized with a bitmask edge set, so extending an
/// embedding and de-duplicating the frontier allocate nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SmallEmb {
    /// code vertex -> graph vertex (`0xFF` beyond `len`).
    map: [u8; SMALL_VERTS],
    /// graph vertex -> code vertex (`0xFF` when unmapped).
    inv: [u8; SMALL_VERTS],
    /// Bitmask of emitted graph edge ids.
    used: u64,
    /// Number of mapped code vertices.
    len: u8,
}

impl EmbState for SmallEmb {
    // `inv` and `len` are functions of `map`, so hashing the whole struct
    // is a sound (if slightly redundant) identity.
    type Key = SmallEmb;

    fn initial(_g: &Graph, gu: VertexId, gv: VertexId, eid: u32) -> Self {
        let mut map = [0xFFu8; SMALL_VERTS];
        let mut inv = [0xFFu8; SMALL_VERTS];
        map[0] = gu as u8;
        map[1] = gv as u8;
        inv[gu as usize] = 0;
        inv[gv as usize] = 1;
        SmallEmb { map, inv, used: 1u64 << eid, len: 2 }
    }

    #[inline]
    fn mapped(&self, code_v: u32) -> VertexId {
        self.map[code_v as usize] as VertexId
    }

    #[inline]
    fn mapped_len(&self) -> u32 {
        self.len as u32
    }

    #[inline]
    fn code_of(&self, gv: VertexId) -> u32 {
        let c = self.inv[gv as usize];
        if c == 0xFF {
            u32::MAX
        } else {
            c as u32
        }
    }

    #[inline]
    fn is_used(&self, eid: u32) -> bool {
        self.used & (1u64 << eid) != 0
    }

    fn extend_backward(&self, eid: u32) -> Self {
        let mut next = *self;
        next.used |= 1u64 << eid;
        next
    }

    fn extend_forward(&self, eid: u32, gv: VertexId) -> Self {
        let mut next = *self;
        next.used |= 1u64 << eid;
        next.inv[gv as usize] = next.len;
        next.map[next.len as usize] = gv as u8;
        next.len += 1;
        next
    }

    #[inline]
    fn key(&self) -> Self::Key {
        *self
    }
}

/// One admissible next move of an embedding.
#[derive(Debug, Clone, Copy)]
struct Move {
    edge: DfsEdge,
    eid: u32,
    /// Target graph vertex for forward moves.
    target: VertexId,
}

/// Invokes `each` with every admissible next move of `emb` under
/// genuine-DFS semantics. Returns `false` if the embedding cannot lead to a
/// complete code (a cross edge has appeared), without calling `each`.
///
/// A callback (instead of a returned `Vec`) keeps the canonical search's
/// inner loop allocation-free: candidate generation calls this once per
/// embedding per level, and the moves are consumed immediately.
fn for_each_move<E: EmbState>(
    g: &Graph,
    emb: &E,
    path: &[u32],
    each: &mut impl FnMut(Move),
) -> bool {
    let rightmost = *path.last().expect("non-empty path");
    let g_rm = emb.mapped(rightmost);

    // Pending backward edges: unused edges from the rightmost vertex to
    // mapped vertices. In a valid DFS state every such target is an ancestor
    // on the rightmost path; anything else is a cross edge and dooms the
    // embedding.
    let mut pending: Option<(u32, u32, ELabel)> = None; // (code target, eid, elabel)
    for a in g.neighbors(g_rm) {
        if emb.is_used(a.eid) {
            continue;
        }
        let code_target = emb.code_of(a.to);
        if code_target == u32::MAX {
            continue; // forward candidate, handled below
        }
        if !path.contains(&code_target) {
            return false; // cross edge: unreachable under DFS semantics
        }
        // Backward edges must be emitted in increasing ancestor order.
        if pending.is_none_or(|(t, _, _)| code_target < t) {
            pending = Some((code_target, a.eid, a.elabel));
        }
    }
    if let Some((code_target, eid, elabel)) = pending {
        let target = emb.mapped(code_target);
        let edge = DfsEdge::new(rightmost, code_target, g.vlabel(g_rm), elabel, g.vlabel(target));
        each(Move { edge, eid, target });
        return true;
    }

    // Forward moves: walk the rightmost path top-down; we may only backtrack
    // past *finished* vertices (no unused incident edges), otherwise the
    // prefix would skip an edge it can never emit later.
    let new_code_vertex = emb.mapped_len();
    for &p in path.iter().rev() {
        let gp = emb.mapped(p);
        let mut unfinished = false;
        for a in g.neighbors(gp) {
            if emb.is_used(a.eid) {
                continue;
            }
            unfinished = true;
            if emb.code_of(a.to) == u32::MAX {
                each(Move {
                    edge: DfsEdge::new(p, new_code_vertex, g.vlabel(gp), a.elabel, g.vlabel(a.to)),
                    eid: a.eid,
                    target: a.to,
                });
            }
        }
        if unfinished {
            break;
        }
    }
    true
}

/// Outcome of [`search`]: either the minimum code, or early proof that the
/// reference code is not minimal.
enum SearchOutcome {
    Min(DfsCode),
    SmallerThanReference,
}

/// Core canonical search. When `reference` is given, the search stops as
/// soon as the minimal extension differs from the reference (it can only be
/// smaller), which is all [`is_min`] needs. Dispatches to the packed
/// embedding representation whenever the graph fits it.
fn search(g: &Graph, reference: Option<&DfsCode>) -> SearchOutcome {
    if g.vertex_count() <= SMALL_VERTS && g.edge_count() <= SMALL_EDGES {
        search_impl::<SmallEmb>(g, reference)
    } else {
        search_impl::<Emb>(g, reference)
    }
}

fn search_impl<E: EmbState>(g: &Graph, reference: Option<&DfsCode>) -> SearchOutcome {
    debug_assert!(g.edge_count() > 0, "canonical search requires at least one edge");
    debug_assert!(g.is_connected(), "canonical search requires a connected graph");

    // Step 0: minimal initial tuple over all oriented edges.
    let mut best: Option<(VLabel, ELabel, VLabel)> = None;
    for (_, u, v, el) in g.edges() {
        for (a, b) in [(u, v), (v, u)] {
            let tuple = (g.vlabel(a), el, g.vlabel(b));
            if best.is_none_or(|t| tuple < t) {
                best = Some(tuple);
            }
        }
    }
    let (lu, le, lv) = best.expect("at least one edge");
    let first = DfsEdge::new(0, 1, lu, le, lv);
    if let Some(r) = reference {
        // `Greater` is impossible for codes grown by rightmost extension; it
        // can only mean a hand-built non-genuine code, which is not minimal.
        if first.dfs_cmp(&r.0[0]) != Ordering::Equal {
            return SearchOutcome::SmallerThanReference;
        }
    }

    let mut embs: Vec<E> = Vec::new();
    for (eid, u, v, el) in g.edges() {
        for (a, b) in [(u, v), (v, u)] {
            if (g.vlabel(a), el, g.vlabel(b)) == (lu, le, lv) {
                embs.push(E::initial(g, a, b, eid));
            }
        }
    }

    let mut code = DfsCode(vec![first]);
    let mut path = vec![0u32, 1u32];

    while code.len() < g.edge_count() {
        // The edge every surviving embedding must realize next: with a
        // reference, its next entry (any strictly smaller move disproves
        // minimality on the spot); without one, the global minimum over
        // every embedding's admissible moves, found in a first pass.
        let min_edge = match reference {
            Some(r) => r.0[code.len()],
            None => {
                let mut min: Option<DfsEdge> = None;
                for emb in &embs {
                    for_each_move(g, emb, &path, &mut |m| {
                        if min.is_none_or(|cur| m.edge.dfs_cmp(&cur) == Ordering::Less) {
                            min = Some(m.edge);
                        }
                    });
                }
                min.expect("connected graph always has a continuing DFS move")
            }
        };

        // Keep exactly the embeddings that can realize the minimal edge.
        let mut next_embs = Vec::new();
        let mut seen = FxHashSet::default();
        let mut smaller = false;
        for emb in &embs {
            for_each_move(g, emb, &path, &mut |m| {
                match m.edge.dfs_cmp(&min_edge) {
                    Ordering::Equal => {
                        let next = if min_edge.is_forward() {
                            emb.extend_forward(m.eid, m.target)
                        } else {
                            emb.extend_backward(m.eid)
                        };
                        if seen.insert(next.key()) {
                            next_embs.push(next);
                        }
                    }
                    // Only reachable with a reference: the unconstrained
                    // pass already starts from the true minimum.
                    Ordering::Less => smaller = true,
                    Ordering::Greater => {}
                }
            });
            if smaller {
                return SearchOutcome::SmallerThanReference;
            }
        }
        if next_embs.is_empty() {
            // With a reference: its next edge was not an admissible move of
            // any embedding — a non-genuine hand-built code, which the true
            // minimum (some strictly smaller continuation) undercuts.
            debug_assert!(reference.is_some());
            return SearchOutcome::SmallerThanReference;
        }
        embs = next_embs;

        if min_edge.is_forward() {
            let keep =
                path.iter().position(|&p| p == min_edge.from).expect("forward source on path");
            path.truncate(keep + 1);
            path.push(min_edge.to);
        }
        code.push(min_edge);
    }
    SearchOutcome::Min(code)
}

/// Computes the minimum DFS code — the canonical form — of a connected
/// graph with at least one edge.
///
/// Two connected graphs are isomorphic iff their minimum DFS codes are
/// equal, which is how all pattern bookkeeping in the miners and in
/// PartMiner's merge-join deduplicates candidates.
///
/// # Panics
///
/// Panics (debug builds) if the graph is empty or disconnected.
pub fn min_dfs_code(g: &Graph) -> DfsCode {
    #[cfg(feature = "fault-injection")]
    if crate::fault::armed(crate::fault::Fault::DfsTieBreak) {
        return any_dfs_code(g);
    }
    match search(g, None) {
        SearchOutcome::Min(code) => code,
        SearchOutcome::SmallerThanReference => unreachable!(),
    }
}

/// Mutant body for [`crate::fault::Fault::DfsTieBreak`]: a *valid* DFS code
/// of `g` built by plain depth-first traversal from the lexicographically
/// largest start vertex, with no canonical tie-breaking — usually not the
/// minimum code, so canonical-form deduplication silently splinters.
///
/// Validity rests on the classic fact that undirected DFS produces no cross
/// edges: every non-tree edge connects the current vertex to an ancestor on
/// the rightmost path, so emitting back edges at discovery time (ascending
/// by discovery id) always yields a well-formed rightmost-extension code.
#[cfg(feature = "fault-injection")]
fn any_dfs_code(g: &Graph) -> DfsCode {
    use crate::EdgeId;

    fn visit(
        g: &Graph,
        v: VertexId,
        disc: &mut [u32],
        by_disc: &mut Vec<VertexId>,
        emitted: &mut [bool],
        code: &mut Vec<DfsEdge>,
    ) {
        let dv = disc[v as usize];
        let mut backs: Vec<(u32, ELabel, EdgeId)> = g
            .neighbors(v)
            .iter()
            .filter(|a| disc[a.to as usize] != u32::MAX && !emitted[a.eid as usize])
            .map(|a| (disc[a.to as usize], a.elabel, a.eid))
            .collect();
        backs.sort_unstable();
        for (dw, el, eid) in backs {
            emitted[eid as usize] = true;
            code.push(DfsEdge::new(dv, dw, g.vlabel(v), el, g.vlabel(by_disc[dw as usize])));
        }
        for a in g.neighbors(v) {
            if disc[a.to as usize] == u32::MAX {
                disc[a.to as usize] = by_disc.len() as u32;
                by_disc.push(a.to);
                emitted[a.eid as usize] = true;
                code.push(DfsEdge::new(
                    dv,
                    disc[a.to as usize],
                    g.vlabel(v),
                    a.elabel,
                    g.vlabel(a.to),
                ));
                visit(g, a.to, disc, by_disc, emitted, code);
            }
        }
    }

    let start = (0..g.vertex_count() as VertexId)
        .max_by_key(|&v| (g.vlabel(v), v))
        .expect("non-empty graph");
    let mut disc = vec![u32::MAX; g.vertex_count()];
    let mut by_disc = vec![start];
    disc[start as usize] = 0;
    let mut emitted = vec![false; g.edge_count()];
    let mut code = Vec::with_capacity(g.edge_count());
    visit(g, start, &mut disc, &mut by_disc, &mut emitted, &mut code);
    DfsCode(code)
}

/// Checks whether `code` is the minimum DFS code of the pattern it encodes.
///
/// Used by gSpan to prune duplicate search branches: a pattern is expanded
/// only from its canonical code.
pub fn is_min(code: &DfsCode) -> bool {
    if code.is_empty() {
        return true;
    }
    is_min_with(code, &code.to_graph())
}

/// `true` when the last entry of `code`, in its smaller orientation, sorts
/// below the first: a DFS code can then start from that edge, so `code` is
/// not minimal. This is [`is_min`]'s first step — the least oriented edge
/// of the graph against the code's first entry — for the one edge a
/// rightmost extension adds to a minimal code, in O(1) and without building
/// the graph. `false` decides nothing.
pub fn last_edge_undercuts_first(code: &DfsCode) -> bool {
    let (Some(first), Some(last)) = (code.0.first(), code.0.last()) else {
        return false;
    };
    let least = (last.from_label, last.edge_label, last.to_label).min((
        last.to_label,
        last.edge_label,
        last.from_label,
    ));
    let first = (first.from_label, first.edge_label, first.to_label);
    #[cfg(feature = "fault-injection")]
    if crate::fault::armed(crate::fault::Fault::PrecheckRejectsMinimal) {
        return least <= first;
    }
    least < first
}

/// [`is_min`] with the code's graph supplied by the caller.
///
/// Candidate generation probes many one-edge extensions of one pattern; a
/// single build-test-undo scratch graph amortises what would otherwise be a
/// [`DfsCode::to_graph`] materialisation per probe. `g` must be exactly the
/// graph `code.to_graph()` would build (vertex ids = discovery ids).
pub fn is_min_with(code: &DfsCode, g: &Graph) -> bool {
    if code.is_empty() {
        return true;
    }
    debug_assert_eq!(g.edge_count(), code.len(), "graph must match the code");
    match search(g, Some(code)) {
        SearchOutcome::Min(min) => min == *code,
        SearchOutcome::SmallerThanReference => false,
    }
}

/// Convenience: `true` when two connected graphs are isomorphic (equal
/// canonical codes).
pub fn isomorphic(a: &Graph, b: &Graph) -> bool {
    if a.size_key() != b.size_key() {
        return false;
    }
    if a.edge_count() == 0 {
        // Both graphs are single (or zero) vertices with no edges.
        return a.vlabels().iter().min() == b.vlabels().iter().min()
            && a.vertex_count() == b.vertex_count();
    }
    min_dfs_code(a) == min_dfs_code(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The graph of Figure 1: v0(0), v1(0), v2(1), v3(2); edges
    /// v0-v1:'a', v1-v2:'a', v1-v3:'c', v3-v0:'b'. Labels a=0, b=1, c=2.
    fn figure1_graph() -> Graph {
        let mut g = Graph::new();
        let v0 = g.add_vertex(0);
        let v1 = g.add_vertex(0);
        let v2 = g.add_vertex(1);
        let v3 = g.add_vertex(2);
        g.add_edge(v0, v1, 0).unwrap(); // a
        g.add_edge(v1, v2, 0).unwrap(); // a
        g.add_edge(v1, v3, 2).unwrap(); // c
        g.add_edge(v3, v0, 1).unwrap(); // b
        g
    }

    #[test]
    fn fig1_min_dfs_code() {
        // code(G, T1) from Figure 1(b) is the minimum DFS code:
        // (v0,v1,0,a,0) (v1,v2,0,a,1) (v1,v3,0,c,2) (v3,v0,2,b,0)
        let g = figure1_graph();
        let code = min_dfs_code(&g);
        let expected = DfsCode(vec![
            DfsEdge::new(0, 1, 0, 0, 0),
            DfsEdge::new(1, 2, 0, 0, 1),
            DfsEdge::new(1, 3, 0, 2, 2),
            DfsEdge::new(3, 0, 2, 1, 0),
        ]);
        assert_eq!(code, expected);
        assert!(is_min(&expected));
    }

    #[test]
    fn fig1_non_minimal_codes_are_rejected() {
        // code(G, T2) from Figure 1(c):
        // (v0,v1,0,a,0) (v1,v2,0,b,2) (v2,v0,2,c,0) (v0,v3,0,a,1)
        let t2 = DfsCode(vec![
            DfsEdge::new(0, 1, 0, 0, 0),
            DfsEdge::new(1, 2, 0, 1, 2),
            DfsEdge::new(2, 0, 2, 2, 0),
            DfsEdge::new(0, 3, 0, 0, 1),
        ]);
        assert!(!is_min(&t2));
        // T2 encodes the same graph.
        assert!(isomorphic(&t2.to_graph(), &figure1_graph()));
        // code(G, T3) from Figure 1(d). The paper prints the last entry as
        // (v0, v3, 0, a, 1), but in graph G the pendant 'a' edge to the
        // label-1 vertex is incident to the vertex discovered second in this
        // traversal (a typo; T2's corresponding entry is consistent). The
        // corrected code is:
        let t3 = DfsCode(vec![
            DfsEdge::new(0, 1, 0, 0, 0),
            DfsEdge::new(1, 2, 0, 2, 2),
            DfsEdge::new(2, 0, 2, 1, 0),
            DfsEdge::new(1, 3, 0, 0, 1),
        ]);
        assert!(!is_min(&t3));
        assert!(isomorphic(&t3.to_graph(), &figure1_graph()));
    }

    /// A duplicate edge and an endpoint past the vertices discovered so far
    /// are refused with the error `Graph::add_edge` gives, and a fault
    /// earlier in the code wins over a structural one after it.
    #[test]
    fn invalid_codes_are_refused_at_their_first_fault() {
        let fwd = DfsEdge::new(0, 1, 0, 0, 0);
        let cases = [
            (
                vec![fwd, DfsEdge::new(1, 0, 0, 0, 0)],
                "invalid DFS code: (1,0,0,0,0): edge (1, 0) already exists",
            ),
            (
                vec![fwd, DfsEdge::new(3, 0, 0, 0, 0), DfsEdge::new(1, 2, 0, 0, 0)],
                "invalid DFS code: (3,0,0,0,0): vertex id 3 out of range (graph has 2 vertices)",
            ),
            (
                vec![fwd, DfsEdge::new(1, 0, 0, 0, 0), DfsEdge::new(5, 6, 0, 0, 0)],
                "invalid DFS code: (1,0,0,0,0): edge (1, 0) already exists",
            ),
            (vec![fwd, DfsEdge::new(5, 6, 0, 0, 0)], "invalid DFS code: gap before (5,6,0,0,0)"),
            (
                vec![fwd, DfsEdge::new(1, 3, 0, 0, 0)],
                "invalid DFS code: forward edge (1,3,0,0,0) out of order",
            ),
        ];
        for (edges, want) in cases {
            assert_eq!(DfsCode(edges.clone()).try_to_graph().unwrap_err(), want, "{edges:?}");
        }
    }

    #[test]
    fn to_graph_round_trip() {
        let g = figure1_graph();
        let code = min_dfs_code(&g);
        let rebuilt = code.to_graph();
        assert_eq!(min_dfs_code(&rebuilt), code);
        assert_eq!(rebuilt.edge_count(), g.edge_count());
        assert_eq!(rebuilt.vertex_count(), g.vertex_count());
    }

    #[test]
    fn single_edge_orientation() {
        let mut g = Graph::new();
        let a = g.add_vertex(5);
        let b = g.add_vertex(3);
        g.add_edge(a, b, 7).unwrap();
        let code = min_dfs_code(&g);
        // The canonical orientation puts the smaller vertex label first.
        assert_eq!(code, DfsCode(vec![DfsEdge::new(0, 1, 3, 7, 5)]));
    }

    #[test]
    fn triangle_is_canonical_regardless_of_insertion_order() {
        let build = |perm: [u32; 3]| {
            let mut g = Graph::new();
            for _ in 0..3 {
                g.add_vertex(0);
            }
            g.add_edge(perm[0], perm[1], 0).unwrap();
            g.add_edge(perm[1], perm[2], 0).unwrap();
            g.add_edge(perm[2], perm[0], 0).unwrap();
            min_dfs_code(&g)
        };
        let c0 = build([0, 1, 2]);
        assert_eq!(c0, build([1, 2, 0]));
        assert_eq!(c0, build([2, 0, 1]));
        assert_eq!(c0.len(), 3);
        // Minimum code of an unlabeled triangle: two forwards + one backward.
        assert_eq!(
            c0,
            DfsCode(vec![
                DfsEdge::new(0, 1, 0, 0, 0),
                DfsEdge::new(1, 2, 0, 0, 0),
                DfsEdge::new(2, 0, 0, 0, 0),
            ])
        );
    }

    #[test]
    fn rightmost_path_follows_forward_edges() {
        let code = DfsCode(vec![
            DfsEdge::new(0, 1, 0, 0, 0),
            DfsEdge::new(1, 2, 0, 0, 1),
            DfsEdge::new(1, 3, 0, 2, 2),
        ]);
        assert_eq!(code.rightmost_path(), vec![0, 1, 3]);
    }

    #[test]
    fn dfs_edge_order_matches_gspan_rules() {
        let f = |from, to| DfsEdge::new(from, to, 0, 0, 0);
        // forward vs forward: smaller discovery first, deeper source first
        assert_eq!(f(1, 2).dfs_cmp(&f(0, 3)), Ordering::Less);
        assert_eq!(f(2, 3).dfs_cmp(&f(1, 3)), Ordering::Less);
        // backward vs backward
        assert_eq!(f(2, 0).dfs_cmp(&f(2, 1)), Ordering::Less);
        assert_eq!(f(2, 0).dfs_cmp(&f(3, 0)), Ordering::Less);
        // backward before forward from the same vertex
        assert_eq!(f(2, 0).dfs_cmp(&f(2, 3)), Ordering::Less);
        // forward discovering j precedes backward from i >= j
        assert_eq!(f(0, 2).dfs_cmp(&f(2, 1)), Ordering::Less);
        // label tie-break
        let a = DfsEdge::new(0, 1, 0, 0, 1);
        let b = DfsEdge::new(0, 1, 0, 0, 2);
        assert_eq!(a.dfs_cmp(&b), Ordering::Less);
    }

    #[test]
    fn code_order_prefix_sorts_first() {
        let short = DfsCode(vec![DfsEdge::new(0, 1, 0, 0, 0)]);
        let long = DfsCode(vec![DfsEdge::new(0, 1, 0, 0, 0), DfsEdge::new(1, 2, 0, 0, 0)]);
        assert!(short < long);
    }

    #[test]
    fn isomorphic_detects_label_difference() {
        let mut a = Graph::new();
        let x = a.add_vertex(0);
        let y = a.add_vertex(1);
        a.add_edge(x, y, 0).unwrap();
        let mut b = Graph::new();
        let x = b.add_vertex(0);
        let y = b.add_vertex(2);
        b.add_edge(x, y, 0).unwrap();
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn highly_symmetric_graphs_canonicalise() {
        // K4 (12 automorphisms) and K2,3 exercise the embedding-set greedy
        // under heavy symmetry.
        let mut k4 = Graph::new();
        for _ in 0..4 {
            k4.add_vertex(0);
        }
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                k4.add_edge(i, j, 0).unwrap();
            }
        }
        let code = min_dfs_code(&k4);
        assert!(is_min(&code));
        assert_eq!(code.len(), 6);

        let mut k23 = Graph::new();
        for _ in 0..5 {
            k23.add_vertex(0);
        }
        for a in 0..2u32 {
            for b in 2..5u32 {
                k23.add_edge(a, b, 0).unwrap();
            }
        }
        let code = min_dfs_code(&k23);
        assert!(is_min(&code));
        assert_eq!(code.len(), 6);
        assert!(isomorphic(&code.to_graph(), &k23));
    }

    #[test]
    fn star_graphs_of_varied_arity() {
        for leaves in 1..6u32 {
            let mut g = Graph::new();
            g.add_vertex(9);
            for l in 0..leaves {
                let v = g.add_vertex(l % 2);
                g.add_edge(0, v, 0).unwrap();
            }
            let code = min_dfs_code(&g);
            assert!(is_min(&code), "star with {leaves} leaves");
            assert_eq!(code.len(), leaves as usize);
            assert!(isomorphic(&code.to_graph(), &g));
        }
    }

    #[test]
    fn codes_order_is_total_and_consistent_with_minimality() {
        // For a set of small graphs, the min code must be <= every other
        // valid rightmost-extension code we can produce by mining-style
        // growth; here we just check a handful of handmade alternates.
        let g = figure1_graph();
        let min = min_dfs_code(&g);
        let t2 = DfsCode(vec![
            DfsEdge::new(0, 1, 0, 0, 0),
            DfsEdge::new(1, 2, 0, 1, 2),
            DfsEdge::new(2, 0, 2, 2, 0),
            DfsEdge::new(0, 3, 0, 0, 1),
        ]);
        assert!(min < t2);
        assert_eq!(min.cmp(&min), std::cmp::Ordering::Equal);
    }

    #[test]
    fn square_with_diagonal_canonical() {
        // 4-cycle plus one chord; make sure backward edges are collected in
        // increasing ancestor order.
        let mut g = Graph::new();
        for _ in 0..4 {
            g.add_vertex(0);
        }
        g.add_edge(0, 1, 0).unwrap();
        g.add_edge(1, 2, 0).unwrap();
        g.add_edge(2, 3, 0).unwrap();
        g.add_edge(3, 0, 0).unwrap();
        g.add_edge(0, 2, 0).unwrap();
        let code = min_dfs_code(&g);
        assert!(is_min(&code));
        assert_eq!(code.len(), 5);
        let rebuilt = code.to_graph();
        assert!(isomorphic(&rebuilt, &g));
    }
}
