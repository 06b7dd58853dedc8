//! The projected step: a pattern's children read off its occurrences.
//!
//! Every frequent pattern's minimum DFS code is a rightmost extension of
//! its minimum, frequent prefix, so a depth-first walk that starts from the
//! frequent single edges ([`EdgeView::roots`]), calls [`EdgeView::project`]
//! on each frequent minimal code it reaches and descends into the children
//! that are frequent and minimal ([`graphmine_graph::dfscode::is_min`])
//! visits every frequent pattern exactly once, with its exact support
//! already counted. That walk is written once, in [`crate::walk`]:
//! [`GSpan`](crate::GSpan) and so every PartMiner unit, PartMiner's
//! merge-join and the serving daemon all run it, and it is the only caller
//! of [`EdgeView::project`]. This module is its step.
//!
//! Three things keep the step from carrying what it will discard:
//!
//! * **A frequent-edge view of the database** ([`EdgeView`]), built once
//!   per walk: the adjacency of every graph restricted to the half-edges
//!   whose edge is in the vocabulary, each tagged with the dense id of its
//!   oriented label triple `(l_from, l_e, l_to)` — gSpan's "drop the
//!   infrequent edges first". Inside the row loop there is no vocabulary
//!   lookup, no label lookup and no edge search.
//! * **Occurrences as parent links** ([`Row`], [`Occurrences`]): a row is
//!   `(gid, parent row, new vertex, new edge)`, 16 bytes at any depth. The
//!   vertex images of a row are rebuilt once per *parent* row by following
//!   the links up the lists on the current root-to-node path — which the
//!   walk holds anyway — instead of being copied once per *child* row.
//! * **Children grouped by dense key** `(rightmost-path position, extension
//!   id)`: support (distinct gids) and row count are accumulated while
//!   grouping, and only the children whose support reaches the caller's
//!   threshold get their rows laid out. A child below it is returned as
//!   `(edge, exact support, rows)` and costs three integers.

use rustc_hash::FxHashMap;

use graphmine_graph::{
    edge_triple, DfsCode, DfsEdge, ELabel, EdgeId, GraphDb, GraphId, Support, VLabel, VertexId,
};

use crate::extend::EdgeVocab;

/// "No such thing" in every `u32` slot of this module.
const NONE: u32 = u32::MAX;

/// One occurrence of a pattern, as a link to the occurrence of the
/// pattern's parent it extends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Row {
    /// The subject graph.
    pub gid: GraphId,
    /// The row of the parent pattern's list this one extends. In a root
    /// (single-edge) list there is no parent and this is the image of code
    /// vertex 0.
    pub parent: u32,
    /// The image of the code vertex the last code edge discovered (code
    /// vertex 1 in a root list), or `u32::MAX` when that edge is backward.
    pub vertex: VertexId,
    /// The image of the last code edge.
    pub edge: EdgeId,
}

impl Row {
    /// The vertex this row maps that its parent row does not, if any.
    pub fn new_vertex(&self) -> Option<VertexId> {
        (self.vertex != NONE).then_some(self.vertex)
    }
}

/// A pattern's occurrence list together with the lists of all its code's
/// prefixes — what it takes to read a row's images back.
#[derive(Debug, Clone, Copy)]
pub struct Occurrences<'a> {
    /// The pattern's own rows, in non-decreasing gid order.
    pub rows: &'a [Row],
    /// The occurrences of the code minus its last edge; `None` for a
    /// single-edge code.
    pub up: Option<&'a Occurrences<'a>>,
}

impl<'a> Occurrences<'a> {
    /// The occurrences of a single-edge code.
    pub fn root(rows: &'a [Row]) -> Self {
        Occurrences { rows, up: None }
    }

    /// The occurrences of a child of this pattern, `rows` being a list
    /// [`EdgeView::project`] returned for `self`.
    pub fn child(&'a self, rows: &'a [Row]) -> Occurrences<'a> {
        Occurrences { rows, up: Some(self) }
    }

    /// Writes the vertex images of row `row` into `images`, indexed by code
    /// vertex; `images.len()` must be the pattern's vertex count.
    fn vertex_images(&self, row: usize, images: &mut [VertexId]) {
        let (mut list, mut at, mut next) = (self, row, images.len());
        loop {
            let r = &list.rows[at];
            let Some(up) = list.up else {
                images[0] = r.parent;
                images[1] = r.vertex;
                return;
            };
            if r.vertex != NONE {
                next -= 1;
                images[next] = r.vertex;
            }
            (list, at) = (up, r.parent as usize);
        }
    }
}

/// One rightmost extension of a pattern that occurs in the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Child {
    /// The code edge that extends the parent's code.
    pub edge: DfsEdge,
    /// Exact support: the number of distinct graphs with an occurrence.
    pub support: Support,
    /// Number of occurrences.
    pub rows: u32,
    /// Where the rows start in the arena; `NONE` when none were kept.
    start: u32,
}

/// Every rightmost extension of one pattern, in [`DfsEdge::dfs_cmp`] order,
/// with the occurrence lists of those that reached the threshold.
#[derive(Debug, Default)]
pub struct Children {
    entries: Vec<Child>,
    /// The kept lists back to back, in `entries` order.
    arena: Vec<Row>,
}

impl Children {
    /// Number of extensions, kept or not.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the pattern has no extension at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Occurrences over all extensions, kept or not.
    pub fn total_rows(&self) -> u64 {
        self.entries.iter().map(|c| u64::from(c.rows)).sum()
    }

    /// Each extension with its occurrence list, `None` for an extension
    /// whose support is short of the threshold the lists were built under.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Child, Option<&[Row]>)> {
        self.entries.iter().map(|c| {
            let kept = c.start != NONE;
            (c, kept.then(|| &self.arena[c.start as usize..(c.start + c.rows) as usize]))
        })
    }
}

/// One frequent half-edge as seen from its source vertex.
#[derive(Debug, Clone, Copy)]
struct HalfEdge {
    to: VertexId,
    eid: EdgeId,
    /// Dense id of `(l_from, l_e, l_to)`.
    ext: u32,
}

/// The database restricted to its vocabulary edges, packed for the row
/// loop of [`EdgeView::project`].
#[derive(Debug)]
pub struct EdgeView {
    /// The oriented triple `(l_from, l_e, l_to)` of every extension id,
    /// sorted — so id order is label order, and sorting children by
    /// `(position, id)` is sorting them by [`DfsEdge::dfs_cmp`].
    exts: Vec<(VLabel, ELabel, VLabel)>,
    /// Per graph, the index of its vertex 0 in `offsets`.
    base: Vec<u32>,
    /// One CSR over the vertices of every graph with a vocabulary edge:
    /// vertex `v` of such a graph `gid` owns
    /// `halves[offsets[base[gid] + v]..offsets[base[gid] + v + 1]]`, a
    /// subsequence of [`graphmine_graph::Graph::neighbors`]`(v)`. A graph
    /// with no vocabulary edge has no root row, so no row ever names it and
    /// its `base` entry is never read: it gets no offsets.
    offsets: Vec<u32>,
    halves: Vec<HalfEdge>,
    /// Largest vertex count of a graph with a vocabulary edge.
    max_vertices: usize,
    roots: Children,
}

impl EdgeView {
    /// Builds the view of `db` over `vocab` and the root list of every
    /// vocabulary edge, in one scan.
    pub fn build(db: &GraphDb, vocab: &EdgeVocab) -> Self {
        let mut exts = Vec::with_capacity(2 * vocab.len());
        for (a, e, b) in vocab.triples() {
            exts.push((a, e, b));
            if a != b {
                exts.push((b, e, a));
            }
        }
        exts.sort_unstable();
        // One word each of the vertex and edge labels the vocabulary names,
        // bit `l % 64` for label `l`: an edge with a label outside them is
        // in no triple, and is not hashed.
        let bit = |l: u32| 1u64 << (l % 64);
        let (vmask, emask) =
            exts.iter().fold((0, 0), |(v, e), &(from, el, _)| (v | bit(from), e | bit(el)));
        // Normalised triple -> the ids of its two orientations, smaller
        // label first; one lookup per edge serves both half-edges.
        let mut ids: FxHashMap<(VLabel, ELabel, VLabel), (u32, u32)> = FxHashMap::default();
        for (id, &(from, e, to)) in exts.iter().enumerate() {
            let pair = ids.entry(edge_triple(from, e, to)).or_insert((NONE, NONE));
            if from <= to {
                pair.0 = id as u32;
            }
            if to <= from {
                pair.1 = id as u32;
            }
        }

        let mut view = EdgeView {
            exts,
            base: Vec::with_capacity(db.len()),
            offsets: Vec::new(),
            halves: Vec::new(),
            max_vertices: 0,
            roots: Children::default(),
        };
        let mut grouper = Grouper::default();
        grouper.head.resize(view.exts.len(), NONE);
        // Per edge of the current graph, the extension ids of u->v and v->u.
        let mut oriented: Vec<(u32, u32)> = Vec::new();
        for (gid, g) in db.iter() {
            oriented.clear();
            let mut any = false;
            for (eid, u, v, el) in g.edges() {
                let (lu, lv) = (g.vlabel(u), g.vlabel(v));
                let named = bit(lu) & vmask != 0 && bit(lv) & vmask != 0 && bit(el) & emask != 0;
                let found = if named { ids.get(&edge_triple(lu, el, lv)) } else { None };
                let Some(&(low_first, high_first)) = found else {
                    oriented.push((NONE, NONE));
                    continue;
                };
                any = true;
                // A root code runs from the smaller label to the larger;
                // between equal labels both orientations occur.
                let ((a, b), uv_vu) = if lu <= lv {
                    ((u, v), (low_first, high_first))
                } else {
                    ((v, u), (high_first, low_first))
                };
                oriented.push(uv_vu);
                grouper.record(0, low_first, Row { gid, parent: a, vertex: b, edge: eid });
                if lu == lv {
                    grouper.record(0, low_first, Row { gid, parent: b, vertex: a, edge: eid });
                }
            }
            view.base.push(view.offsets.len() as u32);
            if !any {
                continue;
            }
            view.max_vertices = view.max_vertices.max(g.vertex_count());
            for v in 0..g.vertex_count() as VertexId {
                view.offsets.push(view.halves.len() as u32);
                for a in g.neighbors(v) {
                    let (uv, vu) = oriented[a.eid as usize];
                    if uv != NONE {
                        let ext = if g.edge(a.eid).0 == v { uv } else { vu };
                        view.halves.push(HalfEdge { to: a.to, eid: a.eid, ext });
                    }
                }
            }
        }
        view.offsets.push(view.halves.len() as u32);
        let exts = &view.exts;
        view.roots = grouper.finish(0, |_, ext| {
            let (la, el, lb) = exts[ext as usize];
            DfsEdge::new(0, 1, la, el, lb)
        });
        view
    }

    /// The single-edge code of every vocabulary edge that occurs, each with
    /// all its occurrences: what a walk starts from. A vocabulary of the
    /// database's own frequent edges makes these the frequent 1-edge
    /// patterns with their exact supports.
    pub fn roots(&self) -> impl ExactSizeIterator<Item = (&Child, Occurrences<'_>)> {
        self.roots.iter().map(|(root, rows)| {
            (root, Occurrences::root(rows.expect("root lists are built with no threshold")))
        })
    }

    /// Scratch space for [`EdgeView::project`] on this view, reused from
    /// call to call down one walk.
    pub fn scratch(&self) -> Scratch {
        Scratch {
            grouper: Grouper { head: vec![NONE; self.exts.len()], ..Grouper::default() },
            code_of: vec![NONE; self.max_vertices],
            images: Vec::new(),
            back_slot: Vec::new(),
        }
    }

    /// Every rightmost extension of `code` that occurs over a vocabulary
    /// edge, read off the pattern's occurrences `occ` in one pass: a
    /// backward edge from the rightmost vertex to a rightmost-path ancestor
    /// above the backward floor that the pattern does not already join it
    /// to, or a forward edge from any rightmost-path vertex to a vertex the
    /// row has not mapped. Each comes with its exact support and row count;
    /// those whose support reaches `min_support` also with their occurrence
    /// list, rows in the order [`graphmine_graph::EmbeddingList::extend`]
    /// by that edge would produce them.
    ///
    /// `occ` must hold the occurrences of `code` in the database the view
    /// was built from, in non-decreasing gid order, as `roots` and this
    /// function return them. Nothing is counted here: the walk sums what
    /// each call returned into its [`crate::walk::WalkStats`].
    pub fn project(
        &self,
        code: &DfsCode,
        occ: &Occurrences<'_>,
        min_support: Support,
        scratch: &mut Scratch,
    ) -> Children {
        let path = code.rightmost_path();
        let (&rm, ancestors) = path.split_last().expect("non-empty code has a rightmost vertex");
        let depth = path.len() as u32;
        let vcount = code.vertex_count();
        // Backward edges from one vertex must close to ancestors in
        // increasing order, so a backward last entry floors the targets.
        let back_floor = match code.0.last() {
            Some(e) if !e.is_forward() => e.to + 1,
            _ => 0,
        };
        #[cfg(feature = "fault-injection")]
        let ancestors: &[u32] =
            if graphmine_graph::fault::armed(graphmine_graph::fault::Fault::DropBackwardChild) {
                &[]
            } else {
                ancestors
            };
        let Scratch { grouper, code_of, images, back_slot } = scratch;
        // Children are keyed by slot: backward closings by the ancestor's
        // path position, then forward edges deepest source first — the
        // order `dfs_cmp` puts them in. The graphs are simple, so the one
        // subject edge between the images of two pattern vertices is used
        // by a row exactly when the pattern joins those vertices: the
        // used-edge screen is a property of the code, settled here.
        back_slot.clear();
        back_slot.resize(vcount, NONE);
        for (i, &pv) in ancestors.iter().enumerate() {
            let joined =
                code.0.iter().any(|e| (e.from, e.to) == (rm, pv) || (e.from, e.to) == (pv, rm));
            if pv >= back_floor && !joined {
                back_slot[pv as usize] = i as u32;
            }
        }
        images.clear();
        images.resize(vcount, 0);

        for (at, row) in occ.rows.iter().enumerate() {
            occ.vertex_images(at, images);
            for (cv, &v) in images.iter().enumerate() {
                code_of[v as usize] = cv as u32;
            }
            let gid = row.gid;
            let base = self.base[gid as usize] as usize;
            for (i, &pv) in path.iter().enumerate() {
                let from = base + images[pv as usize] as usize;
                let forward = 2 * depth - 1 - i as u32;
                for h in &self.halves[self.offsets[from] as usize..self.offsets[from + 1] as usize]
                {
                    let cv = code_of[h.to as usize];
                    let (slot, vertex) = if cv == NONE {
                        (forward, h.to)
                    } else if pv == rm && back_slot[cv as usize] != NONE {
                        (back_slot[cv as usize], NONE)
                    } else {
                        continue;
                    };
                    grouper.record(
                        slot,
                        h.ext,
                        Row { gid, parent: at as u32, vertex, edge: h.eid },
                    );
                }
            }
            for &v in images.iter() {
                code_of[v as usize] = NONE;
            }
        }

        let new_vertex = vcount as u32;
        grouper.finish(min_support, |slot, ext| {
            let (l_from, el, l_to) = self.exts[ext as usize];
            if slot < depth {
                DfsEdge::new(rm, path[slot as usize], l_from, el, l_to)
            } else {
                DfsEdge::new(path[(2 * depth - 1 - slot) as usize], new_vertex, l_from, el, l_to)
            }
        })
    }
}

/// What [`EdgeView::project`] reuses between calls. Its tables are direct
/// indexed and reset through the entries a call touched, so a call costs
/// what it reads, not what the vocabulary or the largest graph could hold.
#[derive(Debug)]
pub struct Scratch {
    grouper: Grouper,
    /// Per subject vertex, the code vertex the current row maps onto it.
    code_of: Vec<u32>,
    /// The current row's vertex images.
    images: Vec<VertexId>,
    /// Per code vertex, the slot of the backward closing onto it, if open.
    back_slot: Vec<u32>,
}

/// One child while its rows are still arriving.
#[derive(Debug)]
struct Group {
    slot: u32,
    ext: u32,
    /// The next group with the same extension id at another slot; once
    /// `finish` has placed the group, where its next row goes in the arena.
    next: u32,
    /// The gid of the last row: rows arrive gid-sorted, so a row under a
    /// different gid is a new supporter.
    last_gid: GraphId,
    support: Support,
    rows: u32,
}

/// Groups rows by `(slot, extension id)`. The table is indexed by extension
/// id alone — 4 bytes per id, at most 8 per vocabulary triple, whatever the
/// pattern's depth — and the few slots one id occurs at in one call (at
/// most two per rightmost-path vertex) are chained off it.
#[derive(Debug, Default)]
struct Grouper {
    /// Per extension id, the first group of its chain.
    head: Vec<u32>,
    groups: Vec<Group>,
    /// Every row recorded, tagged with its group, in arrival order.
    pending: Vec<(u32, Row)>,
}

impl Grouper {
    #[inline]
    fn record(&mut self, slot: u32, ext: u32, row: Row) {
        let mut at = self.head[ext as usize];
        while at != NONE && self.groups[at as usize].slot != slot {
            at = self.groups[at as usize].next;
        }
        if at == NONE {
            at = self.groups.len() as u32;
            let next = std::mem::replace(&mut self.head[ext as usize], at);
            self.groups.push(Group { slot, ext, next, last_gid: NONE, support: 0, rows: 0 });
        }
        let group = &mut self.groups[at as usize];
        if group.last_gid != row.gid {
            group.last_gid = row.gid;
            group.support += 1;
        }
        group.rows += 1;
        self.pending.push((at, row));
    }

    /// Closes the call: the groups in `(slot, extension id)` order as
    /// [`Children`], the rows of those with `min_support` supporters laid
    /// out stably, and the tables reset for the next call.
    fn finish(&mut self, min_support: Support, edge_of: impl Fn(u32, u32) -> DfsEdge) -> Children {
        let mut order: Vec<u32> = (0..self.groups.len() as u32).collect();
        order
            .sort_unstable_by_key(|&g| (self.groups[g as usize].slot, self.groups[g as usize].ext));
        let mut entries = Vec::with_capacity(order.len());
        let mut kept_rows = 0u32;
        for g in order {
            let group = &mut self.groups[g as usize];
            self.head[group.ext as usize] = NONE;
            let start = if group.support >= min_support { kept_rows } else { NONE };
            group.next = start;
            if start != NONE {
                kept_rows += group.rows;
            }
            entries.push(Child {
                edge: edge_of(group.slot, group.ext),
                support: group.support,
                rows: group.rows,
                start,
            });
        }
        let mut arena = vec![Row::default(); kept_rows as usize];
        for (g, row) in self.pending.drain(..) {
            let cursor = &mut self.groups[g as usize].next;
            if *cursor != NONE {
                arena[*cursor as usize] = row;
                *cursor += 1;
            }
        }
        self.groups.clear();
        Children { entries, arena }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::{EmbeddingList, Graph};

    fn single_edge(lu: VLabel, le: ELabel, lv: VLabel) -> Graph {
        let mut g = Graph::new();
        let a = g.add_vertex(lu);
        let b = g.add_vertex(lv);
        g.add_edge(a, b, le).unwrap();
        g
    }

    #[test]
    fn frequent_edges_counts_per_graph() {
        let mut g1 = Graph::new();
        let a = g1.add_vertex(0);
        let b = g1.add_vertex(1);
        let c = g1.add_vertex(1);
        g1.add_edge(a, b, 3).unwrap();
        g1.add_edge(a, c, 3).unwrap(); // same triple twice in one graph
        g1.add_edge(b, c, 4).unwrap(); // in one graph only
        let db = GraphDb::from_graphs(vec![g1, single_edge(0, 3, 1)]);
        let view = EdgeView::build(&db, &EdgeVocab::frequent_in(&db, 2));
        let roots: Vec<_> = view.roots().collect();
        assert_eq!(roots.len(), 1, "the infrequent edge gets no list");
        let (child, occ) = roots[0];
        assert_eq!(child.edge, DfsEdge::new(0, 1, 0, 3, 1));
        assert_eq!((child.support, child.rows), (2, 3), "support counts graphs, not rows");
        let reference = EmbeddingList::roots(&db, &child.edge);
        assert_eq!(occ.rows.len(), reference.len());
        for (i, r) in occ.rows.iter().enumerate() {
            assert_eq!(r.gid, reference.gid(i));
            assert_eq!([r.parent, r.vertex], reference.vertices(i));
            assert_eq!([r.edge], reference.edges(i));
        }
        assert_eq!(EdgeView::build(&db, &EdgeVocab::frequent_in(&db, 3)).roots().len(), 0);
    }

    /// Only graphs with a vocabulary edge get offsets in the view. The one
    /// between the two that do has none of its own: five vertices whose
    /// edges carry labels the vocabulary lacks, or a triple it lacks over
    /// labels it names. No row names it, so the view is read as if it
    /// were not there.
    #[test]
    fn a_graph_without_a_vocabulary_edge_gets_no_offsets() {
        let mut off = Graph::new();
        for l in [0, 0, 7, 8, 9] {
            off.add_vertex(l);
        }
        off.add_edge(0, 1, 3).unwrap(); // 0 and 3 are named, (0, 3, 0) is not
        off.add_edge(2, 3, 3).unwrap();
        off.add_edge(3, 4, 3).unwrap();
        let mut g2 = single_edge(1, 3, 0);
        let c = g2.add_vertex(1);
        g2.add_edge(1, c, 3).unwrap();
        let db = GraphDb::from_graphs(vec![single_edge(0, 3, 1), off, g2]);
        let view = EdgeView::build(&db, &EdgeVocab::from_triples([(0, 3, 1)]));
        assert_eq!(view.offsets.len(), 2 + 3 + 1, "offsets for graphs 0 and 2 only");
        assert_eq!(view.halves.len(), 2 * 3);
        assert_eq!((view.base[0], view.base[2]), (0, 2));
        assert_eq!(view.max_vertices, 3, "the skipped graph's 5 vertices do not count");

        let (root, occ) = view.roots().next().expect("one root");
        assert_eq!((root.support, root.rows), (2, 3));
        let code = DfsCode(vec![root.edge]);
        let children = view.project(&code, &occ, 1, &mut view.scratch());
        let all: Vec<_> = children.iter().collect();
        assert_eq!(all.len(), 1);
        let (child, rows) = all[0];
        assert_eq!(child.edge, DfsEdge::new(0, 2, 0, 3, 1));
        let reference = EmbeddingList::from_code(&db, &DfsCode(vec![root.edge, child.edge]));
        let rows = rows.expect("kept at threshold 1");
        assert_eq!(rows.len(), reference.len());
        assert!(rows.iter().enumerate().all(|(i, r)| r.gid == reference.gid(i)));
    }

    #[test]
    fn a_child_below_the_threshold_keeps_its_counts_and_loses_its_list() {
        // 0 -3- 1 in both graphs; a pendant 1 -4- 2 in the first only.
        let mut g1 = single_edge(0, 3, 1);
        let c = g1.add_vertex(2);
        g1.add_edge(1, c, 4).unwrap();
        let db = GraphDb::from_graphs(vec![g1, single_edge(0, 3, 1)]);
        let view = EdgeView::build(&db, &EdgeVocab::frequent_in(&db, 1));
        let mut scratch = view.scratch();
        let (root, occ) = view
            .roots()
            .find(|(c, _)| c.edge == DfsEdge::new(0, 1, 0, 3, 1))
            .expect("the shared edge is a root");
        let code = DfsCode(vec![root.edge]);
        for (theta, kept) in [(1, true), (2, false)] {
            let children = view.project(&code, &occ, theta, &mut scratch);
            let all: Vec<_> = children.iter().collect();
            assert_eq!(all.len(), 1);
            let (child, rows) = all[0];
            assert_eq!(child.edge, DfsEdge::new(1, 2, 1, 4, 2));
            assert_eq!((child.support, child.rows), (1, 1));
            assert_eq!(rows.is_some(), kept, "threshold {theta}");
            assert_eq!(children.total_rows(), 1);
        }
    }
}
