//! Embedding-list support engine: incremental occurrence maintenance.
//!
//! The paper's `CheckFrequency` step and every miner's extension loop must
//! decide how often a candidate occurs in the database. Re-running a full
//! backtracking search per (candidate, graph) pair — what [`crate::iso`]
//! does — discards everything the parent's match already established.
//! Gaston's core trick (and gSpan's rightmost extension) is to keep, per
//! frequent pattern, the *list of its embeddings*: extending a pattern by
//! one DFS edge then only filters the parent's list instead of re-searching
//! each graph, and support is the number of distinct gids in the surviving
//! list.
//!
//! [`EmbeddingList`] is the compact occurrence arena: one `gid` plus flat
//! vertex/edge image rows with fixed strides, no per-embedding allocation.
//! [`EmbeddingStore`] caches lists keyed by DFS code so a counter (Apriori,
//! the paper's generate-then-test join, the daemon's `support`) can resolve
//! candidates by extending the list of the candidate code's prefix
//! (every prefix of a minimum DFS code is itself minimal, so prefixes are
//! shared across siblings). A byte budget bounds memory: a list that would
//! exceed it is *spilled* — dropped, and [`EmbeddingStore::support`] answers
//! with the triple-screened search [`crate::iso::screened_support`] instead.
//! That method is the one place the list-then-search rule is written.

use std::sync::Arc;

use graphmine_telemetry::{Counter, Counters};
use rustc_hash::FxHashMap;

use crate::{iso, DfsCode, DfsEdge, GraphDb, GraphId, Support, VertexId};

/// All embeddings of one pattern across a database, stored as a flat arena.
///
/// Row `i` is the triple (`gid(i)`, `vertices(i)`, `edges(i)`): the subject
/// graph and the images of the pattern's code vertices and code edges, in
/// code order. Rows are kept in non-decreasing gid order, which makes
/// distinct-gid counting a single linear scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmbeddingList {
    /// Pattern vertices per row (vertex stride).
    vcount: usize,
    /// Pattern edges per row (edge stride).
    ecount: usize,
    /// Subject gid per row, non-decreasing.
    gids: Vec<GraphId>,
    /// Flat vertex images, `gids.len() * vcount` entries.
    vimages: Vec<VertexId>,
    /// Flat edge images, `gids.len() * ecount` entries.
    eimages: Vec<u32>,
}

impl EmbeddingList {
    /// An empty list for a pattern with `vcount` vertices and `ecount` edges.
    pub fn empty(vcount: usize, ecount: usize) -> Self {
        EmbeddingList { vcount, ecount, gids: Vec::new(), vimages: Vec::new(), eimages: Vec::new() }
    }

    /// All embeddings of the single-edge pattern `edge` in `db`.
    ///
    /// When the two endpoint labels are equal, both orientations of each
    /// matching subject edge are distinct embeddings, exactly as in the
    /// backtracking search.
    pub fn roots(db: &GraphDb, edge: &DfsEdge) -> Self {
        debug_assert!(edge.is_forward() && edge.from == 0 && edge.to == 1, "not a root edge");
        let mut list = EmbeddingList::empty(2, 1);
        for (gid, g) in db.iter() {
            // Triple screen: skip graphs without the root's edge triple at
            // all before scanning their edge lists.
            if g.triple_count(edge.from_label, edge.edge_label, edge.to_label) == 0 {
                continue;
            }
            for (eid, u, v, el) in g.edges() {
                if el != edge.edge_label {
                    continue;
                }
                for (a, b) in [(u, v), (v, u)] {
                    if g.vlabel(a) == edge.from_label && g.vlabel(b) == edge.to_label {
                        list.push(gid, &[a, b], &[eid]);
                    }
                }
            }
        }
        list
    }

    /// All embeddings of `code` in `db`, built edge by edge from the roots.
    ///
    /// Equivalent to `roots` followed by [`EmbeddingList::extend`] for every
    /// remaining code edge; the code must be a valid DFS code.
    pub fn from_code(db: &GraphDb, code: &DfsCode) -> Self {
        assert!(!code.is_empty(), "embedding lists require at least one edge");
        let mut list = EmbeddingList::roots(db, &code.0[0]);
        for e in &code.0[1..] {
            list = list.extend(db, e);
        }
        list
    }

    /// Filters this list through one more DFS edge, producing the embedding
    /// list of the extended pattern.
    ///
    /// A forward edge must discover code vertex `vcount`; a backward edge
    /// must close between two already-mapped code vertices. This is the
    /// incremental step that replaces a full re-search: each surviving row
    /// is the parent row plus one image.
    pub fn extend(&self, db: &GraphDb, e: &DfsEdge) -> Self {
        let mut out = if e.is_forward() {
            debug_assert_eq!(
                e.to as usize, self.vcount,
                "forward edge must discover vertex {}",
                self.vcount
            );
            EmbeddingList::empty(self.vcount + 1, self.ecount + 1)
        } else {
            debug_assert!((e.from as usize) < self.vcount && (e.to as usize) < self.vcount);
            EmbeddingList::empty(self.vcount, self.ecount + 1)
        };
        for row in 0..self.len() {
            let gid = self.gids[row];
            let g = db.graph(gid);
            let vs = self.vertices(row);
            if e.is_forward() {
                let gu = vs[e.from as usize];
                // The range is exactly the candidates with matching labels.
                let run = g.neighbors(gu);
                for ai in g.neighbor_range(gu, e.to_label, e.edge_label) {
                    let a = run[ai];
                    if self.uses_edge(row, a.eid) || vs.contains(&a.to) {
                        continue;
                    }
                    out.push_extended(self, row, Some(a.to), a.eid);
                }
            } else {
                let gu = vs[e.from as usize];
                let gv = vs[e.to as usize];
                let Some(eid) = g.edge_between(gu, gv) else {
                    continue;
                };
                if self.uses_edge(row, eid) || g.edge(eid).2 != e.edge_label {
                    continue;
                }
                out.push_extended(self, row, None, eid);
            }
        }
        out
    }

    /// Number of embeddings (rows).
    #[inline]
    pub fn len(&self) -> usize {
        self.gids.len()
    }

    /// `true` when the pattern has no embeddings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gids.is_empty()
    }

    /// Pattern vertices per row.
    #[inline]
    pub fn vertex_stride(&self) -> usize {
        self.vcount
    }

    /// Pattern edges per row.
    #[inline]
    pub fn edge_stride(&self) -> usize {
        self.ecount
    }

    /// The subject gid of row `row`.
    #[inline]
    pub fn gid(&self, row: usize) -> GraphId {
        self.gids[row]
    }

    /// The vertex images of row `row`, indexed by code vertex.
    #[inline]
    pub fn vertices(&self, row: usize) -> &[VertexId] {
        &self.vimages[row * self.vcount..(row + 1) * self.vcount]
    }

    /// The edge images of row `row`, indexed by code edge.
    #[inline]
    pub fn edges(&self, row: usize) -> &[u32] {
        &self.eimages[row * self.ecount..(row + 1) * self.ecount]
    }

    /// `true` when row `row` already uses subject edge `eid`.
    #[inline]
    pub fn uses_edge(&self, row: usize, eid: u32) -> bool {
        self.edges(row).contains(&eid)
    }

    /// The code vertex that row `row` maps onto subject vertex `v`, if any.
    #[inline]
    pub fn code_vertex_of(&self, row: usize, v: VertexId) -> Option<u32> {
        self.vertices(row).iter().position(|&x| x == v).map(|i| i as u32)
    }

    /// Appends a row. Rows must arrive in non-decreasing gid order.
    pub fn push(&mut self, gid: GraphId, vertices: &[VertexId], edges: &[u32]) {
        debug_assert_eq!(vertices.len(), self.vcount);
        debug_assert_eq!(edges.len(), self.ecount);
        debug_assert!(
            self.gids.last().is_none_or(|&last| last <= gid),
            "rows must stay gid-sorted"
        );
        self.gids.push(gid);
        self.vimages.extend_from_slice(vertices);
        self.eimages.extend_from_slice(edges);
    }

    /// Appends `parent`'s row `row` extended by one image: a newly
    /// discovered vertex (forward) or just a closing edge (backward).
    pub fn push_extended(
        &mut self,
        parent: &EmbeddingList,
        row: usize,
        new_vertex: Option<VertexId>,
        new_edge: u32,
    ) {
        let gid = parent.gid(row);
        debug_assert!(
            self.gids.last().is_none_or(|&last| last <= gid),
            "rows must stay gid-sorted"
        );
        debug_assert_eq!(self.vcount, parent.vcount + usize::from(new_vertex.is_some()));
        debug_assert_eq!(self.ecount, parent.ecount + 1);
        self.gids.push(gid);
        self.vimages.extend_from_slice(parent.vertices(row));
        if let Some(v) = new_vertex {
            self.vimages.push(v);
        }
        self.eimages.extend_from_slice(parent.edges(row));
        self.eimages.push(new_edge);
    }

    /// Support: the number of distinct gids with at least one row.
    pub fn support(&self) -> Support {
        let mut sup = 0;
        let mut prev = None;
        for &gid in &self.gids {
            if prev != Some(gid) {
                sup += 1;
                prev = Some(gid);
            }
        }
        sup
    }

    /// The distinct gids with at least one row, in ascending order.
    pub fn supporting_gids(&self) -> Vec<GraphId> {
        let mut out = Vec::new();
        for &gid in &self.gids {
            if out.last() != Some(&gid) {
                out.push(gid);
            }
        }
        out
    }

    /// Approximate heap footprint in bytes, used for the spill budget.
    pub fn approx_bytes(&self) -> usize {
        self.gids.len() * std::mem::size_of::<GraphId>()
            + self.vimages.len() * std::mem::size_of::<VertexId>()
            + self.eimages.len() * std::mem::size_of::<u32>()
    }
}

/// Whether the pipeline keeps embedding lists, and under what budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EmbeddingMode {
    /// Never build lists; every support query runs the backtracking search.
    Off,
    /// Build lists under the configured byte budget as given.
    On,
    /// Build lists under a budget additionally capped in proportion to the
    /// database size, so small inputs cannot hoard the whole allowance.
    #[default]
    Auto,
}

impl EmbeddingMode {
    /// `true` when lists are built at all.
    #[inline]
    pub fn enabled(self) -> bool {
        !matches!(self, EmbeddingMode::Off)
    }

    /// The effective byte budget for `db` given the configured `budget`.
    pub fn effective_budget(self, db: &GraphDb, budget: usize) -> usize {
        match self {
            EmbeddingMode::Off => 0,
            EmbeddingMode::On => budget,
            EmbeddingMode::Auto => {
                // Proportional cap: roughly 1 KiB per database edge plus a
                // fixed floor, so tiny units spill early instead of caching
                // every automorphic image of a symmetric pattern.
                let edges: usize = db.iter().map(|(_, g)| g.edge_count()).sum();
                budget.min(edges * 1024 + (64 << 10))
            }
        }
    }
}

impl std::str::FromStr for EmbeddingMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(EmbeddingMode::Off),
            "on" => Ok(EmbeddingMode::On),
            "auto" => Ok(EmbeddingMode::Auto),
            other => Err(format!("unknown embedding-lists mode `{other}` (expected on|off|auto)")),
        }
    }
}

impl std::fmt::Display for EmbeddingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EmbeddingMode::Off => "off",
            EmbeddingMode::On => "on",
            EmbeddingMode::Auto => "auto",
        })
    }
}

/// Default byte budget for cached embedding lists (64 MiB).
pub const DEFAULT_EMBEDDING_BUDGET: usize = 64 << 20;

/// What [`EmbeddingStore::support`] found.
#[derive(Debug, PartialEq, Eq)]
pub struct SupportCount {
    /// The support: exact, unless the search stopped below the
    /// `min_needed` it was asked for.
    pub support: Support,
    /// The supporting gids found, ascending.
    pub gids: Vec<GraphId>,
    /// `true` when the embedding list answered, `false` when it spilled
    /// and the search did.
    pub listed: bool,
}

/// A budgeted cache of embedding lists keyed by DFS code.
///
/// `CheckFrequency` asks for the list of a candidate's code; the store
/// answers by extending the cached list of the code's longest cached prefix
/// (recursing down to a single-edge root scan). Because candidate codes are
/// minimum DFS codes and every prefix of a minimum code is minimal, sibling
/// candidates share prefixes and each list is built at most once.
///
/// Lists are admitted against a total byte budget. A list that would push
/// the cache over budget is *spilled*: recorded as unavailable (so the walk
/// is not retried), counted in [`Counter::EmbeddingsSpilled`], and
/// [`EmbeddingStore::support`] answers by search instead. Descendants of a
/// spilled code are unavailable too, without counting further spills.
#[derive(Debug)]
pub struct EmbeddingStore<'a> {
    db: &'a GraphDb,
    budget_bytes: usize,
    cached_bytes: usize,
    /// `None` marks a spilled code.
    lists: FxHashMap<DfsCode, Option<Arc<EmbeddingList>>>,
}

impl<'a> EmbeddingStore<'a> {
    /// An empty store over `db` with a total cache budget of `budget_bytes`.
    pub fn new(db: &'a GraphDb, budget_bytes: usize) -> Self {
        EmbeddingStore { db, budget_bytes, cached_bytes: 0, lists: FxHashMap::default() }
    }

    /// The database this store builds lists over.
    #[inline]
    pub fn db(&self) -> &'a GraphDb {
        self.db
    }

    /// Bytes currently held by cached lists.
    #[inline]
    pub fn cached_bytes(&self) -> usize {
        self.cached_bytes
    }

    /// The embedding list for `code`, building (and caching) it and any
    /// missing prefixes on demand. Returns `None` when the list — or a
    /// prefix it depends on — was spilled over budget; the caller must then
    /// fall back to the search path.
    ///
    /// Tallies [`Counter::EmbeddingsExtended`] per row produced by list
    /// extension and [`Counter::EmbeddingsSpilled`] per list dropped.
    pub fn list(&mut self, code: &DfsCode, counters: &Counters) -> Option<Arc<EmbeddingList>> {
        if code.is_empty() {
            return None;
        }
        if let Some(hit) = self.lists.get(code) {
            return hit.clone();
        }
        // Walk toward the root until a cached prefix (or a spill marker, or
        // the single-edge base) is found, remembering the edges to replay.
        let mut prefix = code.clone();
        let mut replay: Vec<DfsEdge> = Vec::new();
        let mut cur: Arc<EmbeddingList> = loop {
            let e = prefix.pop().expect("non-empty code");
            replay.push(e);
            if prefix.is_empty() {
                let root = Arc::new(EmbeddingList::roots(self.db, &e));
                replay.pop();
                prefix.push(e); // the replay base is the single-edge root code
                if !self.admit(prefix.clone(), &root, counters) {
                    // The roots alone bust the budget: everything from here
                    // down is search-only.
                    self.lists.insert(code.clone(), None);
                    return None;
                }
                break root;
            }
            match self.lists.get(&prefix) {
                Some(Some(l)) => {
                    let l = l.clone();
                    break l;
                }
                Some(None) => {
                    // An ancestor spilled; this code is unavailable too.
                    self.lists.insert(code.clone(), None);
                    return None;
                }
                None => continue,
            }
        };
        // Replay the missing edges outward, caching every intermediate list.
        let mut grown = prefix;
        for e in replay.into_iter().rev() {
            let child = Arc::new(cur.extend(self.db, &e));
            counters.add(Counter::EmbeddingsExtended, child.len() as u64);
            grown.push(e);
            if !self.admit(grown.clone(), &child, counters) {
                if grown != *code {
                    self.lists.insert(code.clone(), None);
                }
                return None;
            }
            cur = child;
        }
        Some(cur)
    }

    /// The support of `code` — the paper's `CheckFrequency` decision, and
    /// the one place it is written: the code's embedding list when it fits
    /// the budget, else the triple-screened search over `over` (every graph
    /// when `None`) that stops once `min_needed` is out of reach.
    ///
    /// A list answer is always exact, and tallies
    /// [`Counter::SearchCallsAvoided`] with the per-graph searches it
    /// replaced; a search answer is exact whenever it reaches `min_needed`
    /// (pass `0` to always count exactly). `over` must hold every true
    /// supporter, ascending.
    pub fn support(
        &mut self,
        code: &DfsCode,
        over: Option<&[GraphId]>,
        min_needed: Support,
        counters: &Counters,
    ) -> SupportCount {
        match self.list(code, counters) {
            Some(list) => {
                let replaced = over.map_or(self.db.len(), <[GraphId]>::len);
                counters.add(Counter::SearchCallsAvoided, replaced as u64);
                SupportCount { support: list.support(), gids: list.supporting_gids(), listed: true }
            }
            None => {
                let (support, gids) =
                    iso::screened_support(self.db, over, code, min_needed, counters);
                SupportCount { support, gids, listed: false }
            }
        }
    }

    /// Drops cached lists (and spill markers) for codes shorter than
    /// `min_len` edges, keeping single-edge roots. Level-wise callers use
    /// this when advancing: candidates of size `s` only ever need prefixes
    /// of size `s - 1`.
    pub fn evict_below(&mut self, min_len: usize) {
        let mut freed = 0usize;
        self.lists.retain(|code, list| {
            let keep = code.len() >= min_len || code.len() == 1;
            if !keep {
                if let Some(l) = list {
                    freed += l.approx_bytes();
                }
            }
            keep
        });
        self.cached_bytes -= freed;
    }

    /// Tries to cache `list` under `code`; on budget overflow records a
    /// spill marker instead and returns `false`.
    fn admit(&mut self, code: DfsCode, list: &Arc<EmbeddingList>, counters: &Counters) -> bool {
        let bytes = list.approx_bytes();
        if self.cached_bytes + bytes > self.budget_bytes {
            counters.bump(Counter::EmbeddingsSpilled);
            self.lists.insert(code, None);
            false
        } else {
            self.cached_bytes += bytes;
            self.lists.insert(code, Some(list.clone()));
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfscode::min_dfs_code;
    use crate::{iso, Graph};

    fn path3(labels: [u32; 3], elabels: [u32; 2]) -> Graph {
        let mut g = Graph::new();
        let v: Vec<_> = labels.iter().map(|&l| g.add_vertex(l)).collect();
        g.add_edge(v[0], v[1], elabels[0]).unwrap();
        g.add_edge(v[1], v[2], elabels[1]).unwrap();
        g
    }

    fn triangle() -> Graph {
        let mut g = Graph::new();
        for _ in 0..3 {
            g.add_vertex(0);
        }
        g.add_edge(0, 1, 0).unwrap();
        g.add_edge(1, 2, 0).unwrap();
        g.add_edge(2, 0, 0).unwrap();
        g
    }

    #[test]
    fn roots_match_search_per_orientation() {
        let db = GraphDb::from_graphs(vec![path3([0, 1, 0], [3, 3]), path3([0, 0, 0], [3, 3])]);
        // Asymmetric endpoints: one orientation per matching edge.
        let asym = DfsEdge::new(0, 1, 0, 3, 1);
        let list = EmbeddingList::roots(&db, &asym);
        assert_eq!(list.len(), 2);
        assert_eq!(list.supporting_gids(), vec![0]);
        // Symmetric endpoints: both orientations are distinct embeddings.
        let sym = DfsEdge::new(0, 1, 0, 3, 0);
        let list = EmbeddingList::roots(&db, &sym);
        assert_eq!(list.len(), 4);
        assert_eq!(list.supporting_gids(), vec![1]);
    }

    #[test]
    fn extend_agrees_with_search_on_paths_and_cycles() {
        let db = GraphDb::from_graphs(vec![
            path3([0, 1, 0], [3, 3]),
            path3([0, 1, 2], [3, 4]),
            triangle(),
            path3([1, 1, 1], [3, 3]),
        ]);
        for g in [path3([0, 1, 0], [3, 3]), triangle(), path3([1, 1, 1], [3, 3])] {
            let code = min_dfs_code(&g);
            let list = EmbeddingList::from_code(&db, &code);
            assert_eq!(list.supporting_gids(), iso::supporting_gids(&db, &code), "code {code}");
            assert_eq!(list.support(), iso::support(&db, &code));
        }
    }

    #[test]
    fn extend_respects_edge_multiplicity() {
        // Two-edge path with both edges labeled 5 must not match a graph
        // holding only one 5-labeled edge: the root embedding's edge cannot
        // be reused by the extension.
        let target = path3([0, 0, 0], [5, 6]);
        let db = GraphDb::from_graphs(vec![target]);
        let code = DfsCode(vec![DfsEdge::new(0, 1, 0, 5, 0), DfsEdge::new(1, 2, 0, 5, 0)]);
        let list = EmbeddingList::from_code(&db, &code);
        assert!(list.is_empty());
    }

    #[test]
    fn triangle_has_six_automorphic_rows() {
        let db = GraphDb::from_graphs(vec![triangle()]);
        let code = min_dfs_code(&triangle());
        let list = EmbeddingList::from_code(&db, &code);
        // 6 automorphisms, 1 supporting graph.
        assert_eq!(list.len(), 6);
        assert_eq!(list.support(), 1);
    }

    #[test]
    fn store_caches_prefixes_and_answers_support() {
        let db = GraphDb::from_graphs(vec![
            path3([0, 1, 0], [3, 3]),
            path3([0, 1, 2], [3, 4]),
            path3([0, 1, 0], [3, 3]),
        ]);
        let counters = Counters::new();
        let mut store = EmbeddingStore::new(&db, usize::MAX);
        let code = min_dfs_code(&path3([0, 1, 0], [3, 3]));
        let count = store.support(&code, None, 0, &counters);
        assert_eq!(count, SupportCount { support: 2, gids: vec![0, 2], listed: true });
        assert!(counters.get(Counter::EmbeddingsExtended) > 0);
        assert_eq!(counters.get(Counter::EmbeddingsSpilled), 0);
        assert_eq!(counters.get(Counter::SearchCallsAvoided), 3);
        assert_eq!(counters.get(Counter::SearchCalls), 0);
        // Second query hits the cache: no further extension rows.
        let before = counters.get(Counter::EmbeddingsExtended);
        assert_eq!(store.support(&code, None, 0, &counters), count);
        assert_eq!(counters.get(Counter::EmbeddingsExtended), before);
    }

    #[test]
    fn store_spills_over_budget_and_marks_descendants() {
        let db = GraphDb::from_graphs(vec![triangle(), triangle(), triangle()]);
        let counters = Counters::new();
        // A budget of one byte cannot even hold the roots.
        let mut store = EmbeddingStore::new(&db, 1);
        let code = min_dfs_code(&triangle());
        assert!(store.list(&code, &counters).is_none());
        assert_eq!(counters.get(Counter::EmbeddingsSpilled), 1);
        // The spill is remembered: retrying does not spill again, and the
        // count falls back to the screened search.
        let count = store.support(&code, None, 0, &counters);
        assert_eq!(count, SupportCount { support: 3, gids: vec![0, 1, 2], listed: false });
        assert_eq!(counters.get(Counter::EmbeddingsSpilled), 1);
        assert_eq!(counters.get(Counter::IsoTestsRun), 3);
    }

    #[test]
    fn evict_below_keeps_roots_and_frees_bytes() {
        let db = GraphDb::from_graphs(vec![triangle()]);
        let counters = Counters::new();
        let mut store = EmbeddingStore::new(&db, usize::MAX);
        let code = min_dfs_code(&triangle());
        assert!(store.support(&code, None, 0, &counters).listed);
        let full = store.cached_bytes();
        assert!(full > 0);
        store.evict_below(3);
        assert!(store.cached_bytes() < full);
        // Roots survive and the evicted list can be rebuilt.
        assert!(store.list(&code, &counters).is_some());
    }

    #[test]
    fn mode_parses_and_budgets() {
        assert_eq!("on".parse::<EmbeddingMode>().unwrap(), EmbeddingMode::On);
        assert_eq!("off".parse::<EmbeddingMode>().unwrap(), EmbeddingMode::Off);
        assert_eq!("auto".parse::<EmbeddingMode>().unwrap(), EmbeddingMode::Auto);
        assert!("maybe".parse::<EmbeddingMode>().is_err());
        let db = GraphDb::from_graphs(vec![triangle()]);
        assert_eq!(EmbeddingMode::Off.effective_budget(&db, 1 << 20), 0);
        assert_eq!(EmbeddingMode::On.effective_budget(&db, 1 << 20), 1 << 20);
        assert!(EmbeddingMode::Auto.effective_budget(&db, usize::MAX) < usize::MAX);
    }
}
