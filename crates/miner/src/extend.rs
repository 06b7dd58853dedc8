//! One-edge pattern extension: the candidate-generation machinery behind
//! the level-wise miners.
//!
//! Every connected `(k+1)`-edge graph contains a connected `k`-edge subgraph
//! obtained by removing either a pendant edge or a cycle edge, so extending
//! every frequent `k`-edge pattern by one edge — a pendant edge to a new
//! vertex, or a closing edge between existing vertices — over the *frequent
//! edge vocabulary* generates a complete candidate set (the FSG downward-
//! closure argument).
//!
//! Two vocabulary-driven generators implement it: [`canonical_extensions`]
//! (rightmost-path extension of the canonical parent code — used by the
//! [`Apriori`](crate::Apriori) miner, whose frontiers are complete) and the
//! brute-force [`one_edge_extensions`] (used by FSG and by the paper's
//! generate-then-test join in `graphmine-bench`, whose frontiers are not).
//! Both generate and then test; the test is
//! [`EmbeddingStore::support`](graphmine_graph::EmbeddingStore::support),
//! or its fallback search [`graphmine_graph::iso::screened_support`] alone.
//!
//! The data-driven twin is [`crate::project`]: given a pattern's
//! occurrences it reads off, in one pass, every rightmost extension that
//! actually occurs — the step [`GSpan`](crate::GSpan) and PartMiner's
//! merge-join both walk with.

use rustc_hash::{FxHashMap, FxHashSet};

use graphmine_graph::dfscode::{is_min_with, min_dfs_code};
use graphmine_graph::{edge_triple, DfsCode, DfsEdge, ELabel, Graph, GraphDb, Support, VLabel};

/// The frequent-edge vocabulary: which `(l_u, l_e, l_v)` triples are worth
/// extending with.
#[derive(Debug, Clone, Default)]
pub struct EdgeVocab {
    /// The normalised triples themselves.
    triples: FxHashSet<(VLabel, ELabel, VLabel)>,
    /// vertex label -> (edge label, opposite vertex label), both directions.
    by_vlabel: FxHashMap<VLabel, Vec<(ELabel, VLabel)>>,
    /// (min vlabel, max vlabel) -> edge labels.
    by_pair: FxHashMap<(VLabel, VLabel), Vec<ELabel>>,
}

impl EdgeVocab {
    /// Builds the vocabulary from explicit triples.
    pub fn from_triples(triples: impl IntoIterator<Item = (VLabel, ELabel, VLabel)>) -> Self {
        let mut vocab = EdgeVocab::default();
        for (lu, le, lv) in triples {
            let norm = edge_triple(lu, le, lv);
            if !vocab.triples.insert(norm) {
                continue;
            }
            let (lu, le, lv) = norm;
            vocab.by_vlabel.entry(lu).or_default().push((le, lv));
            if lu != lv {
                vocab.by_vlabel.entry(lv).or_default().push((le, lu));
            }
            vocab.by_pair.entry((lu, lv)).or_default().push(le);
        }
        vocab
    }

    /// Builds the vocabulary from the edges with support at least
    /// `min_support` in `db`, read off each graph's edge-triple index
    /// instead of rescanning and deduplicating edge lists.
    pub fn frequent_in(db: &GraphDb, min_support: Support) -> Self {
        let mut per_triple: FxHashMap<(VLabel, ELabel, VLabel), Support> = FxHashMap::default();
        for (_, g) in db.iter() {
            for &(t, _) in g.triples() {
                *per_triple.entry(t).or_insert(0) += 1;
            }
        }
        Self::from_triples(
            per_triple.into_iter().filter(|&(_, s)| s >= min_support).map(|(t, _)| t),
        )
    }

    /// `true` when an `le`-labeled edge between vertex labels `lu` and `lv`
    /// (either orientation) is in the vocabulary.
    #[inline]
    pub fn contains(&self, lu: VLabel, le: ELabel, lv: VLabel) -> bool {
        self.triples.contains(&edge_triple(lu, le, lv))
    }

    /// `(edge label, new vertex label)` pairs attachable to a vertex with
    /// label `l`.
    pub fn attachable(&self, l: VLabel) -> &[(ELabel, VLabel)] {
        self.by_vlabel.get(&l).map_or(&[], Vec::as_slice)
    }

    /// Edge labels admissible between vertex labels `a` and `b`.
    pub fn closable(&self, a: VLabel, b: VLabel) -> &[ELabel] {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.by_pair.get(&key).map_or(&[], Vec::as_slice)
    }

    /// The normalised triples `(l_min, l_e, l_max)`, in no particular order.
    pub fn triples(&self) -> impl Iterator<Item = (VLabel, ELabel, VLabel)> + '_ {
        self.triples.iter().copied()
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// `true` when the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }
}

/// All distinct canonical codes obtainable by adding one vocabulary edge to
/// `g` — a pendant edge to a new vertex, or a closing edge between two
/// existing non-adjacent vertices.
pub fn one_edge_extensions(g: &Graph, vocab: &EdgeVocab) -> Vec<DfsCode> {
    let mut out: FxHashSet<DfsCode> = FxHashSet::default();
    let n = g.vertex_count() as u32;
    // Pendant extensions.
    for u in 0..n {
        for &(el, vl) in vocab.attachable(g.vlabel(u)) {
            let mut cand = g.clone();
            let leaf = cand.add_vertex(vl);
            cand.add_edge(u, leaf, el).expect("fresh pendant edge");
            out.insert(min_dfs_code(&cand));
        }
    }
    // Closing extensions.
    for u in 0..n {
        for v in (u + 1)..n {
            if g.edge_between(u, v).is_some() {
                continue;
            }
            for &el in vocab.closable(g.vlabel(u), g.vlabel(v)) {
                let mut cand = g.clone();
                cand.add_edge(u, v, el).expect("closing edge is fresh");
                out.insert(min_dfs_code(&cand));
            }
        }
    }
    out.into_iter().collect()
}

/// All *canonical* one-edge extensions of a pattern given by its minimum
/// DFS code: rightmost-path extensions of `code` over the vocabulary,
/// filtered to the ones that are themselves minimum codes.
///
/// This is the gSpan enumeration argument turned into level-wise candidate
/// generation. The prefix of a minimum DFS code is the minimum code of the
/// subgraph it encodes, so *every* frequent `(k+1)`-edge pattern's canonical
/// code arises as exactly one rightmost extension of exactly one frequent
/// `k`-edge parent's canonical code. Extending a complete frontier of
/// canonical `k`-codes therefore generates each child at most once — no
/// per-candidate graph clone, and [`is_min_with`]'s reference-guided search
/// rejects non-canonical extensions with an early exit instead of the full
/// canonical search [`one_edge_extensions`] pays per candidate.
///
/// Requires the frontier to contain **all** frequent `k`-patterns (true for
/// the Apriori level loop, its only caller); a partial frontier may miss
/// children whose canonical parent is absent, which is why the
/// paper-faithful `F^k` chain keeps [`one_edge_extensions`]. A caller that
/// holds the parent's occurrences wants
/// [`EdgeView::project`](crate::project::EdgeView::project) instead: it
/// applies the same rightmost-path rule to the data, not the vocabulary.
///
/// `g` must be the graph encoded by `code` with vertex ids equal to code
/// (discovery) ids — exactly what [`DfsCode::to_graph`] builds and
/// `Pattern::from_code` stores.
pub fn canonical_extensions(code: &DfsCode, g: &Graph, vocab: &EdgeVocab) -> Vec<DfsCode> {
    debug_assert!(!code.is_empty(), "canonical extension needs a non-empty parent code");
    let path = code.rightmost_path();
    let rm = *path.last().expect("non-empty code has a rightmost vertex");
    let n = g.vertex_count() as u32;
    let mut out = Vec::new();
    // One scratch child graph and code, extended and undone per probe, so
    // the whole enumeration materialises no per-candidate graph.
    let mut child = g.clone();
    let mut cand = code.clone();
    // Backward closings: rightmost vertex to a non-adjacent rightmost-path
    // ancestor. Backward edges from one vertex must close to ancestors in
    // increasing order, so a backward last entry floors the targets.
    let back_floor = match code.0.last() {
        Some(e) if !e.is_forward() => e.to + 1,
        _ => 0,
    };
    for &v in &path {
        if v >= rm {
            break;
        }
        if v < back_floor || g.edge_between(rm, v).is_some() {
            continue;
        }
        for &el in vocab.closable(g.vlabel(rm), g.vlabel(v)) {
            child.add_edge(rm, v, el).expect("closing edge is fresh");
            cand.push(DfsEdge::new(rm, v, g.vlabel(rm), el, g.vlabel(v)));
            if is_min_with(&cand, &child) {
                out.push(cand.clone());
            }
            cand.pop();
            child.pop_edge();
        }
    }
    // Forward pendants: a new vertex hung off any rightmost-path vertex.
    for &u in &path {
        let lu = g.vlabel(u);
        for &(el, vl) in vocab.attachable(lu) {
            child.add_vertex(vl);
            child.add_edge(u, n, el).expect("fresh pendant edge");
            cand.push(DfsEdge::new(u, n, lu, el, vl));
            if is_min_with(&cand, &child) {
                out.push(cand.clone());
            }
            cand.pop();
            child.pop_edge();
            child.pop_vertex();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_edge(lu: VLabel, le: ELabel, lv: VLabel) -> Graph {
        let mut g = Graph::new();
        let a = g.add_vertex(lu);
        let b = g.add_vertex(lv);
        g.add_edge(a, b, le).unwrap();
        g
    }

    #[test]
    fn vocab_normalises_orientation() {
        let v = EdgeVocab::from_triples([(3, 0, 1), (1, 0, 3)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v.closable(3, 1), &[0]);
        assert_eq!(v.closable(1, 3), &[0]);
        assert_eq!(v.attachable(1), &[(0, 3)]);
        assert_eq!(v.attachable(3), &[(0, 1)]);
    }

    #[test]
    fn extensions_of_an_edge() {
        let vocab = EdgeVocab::from_triples([(0, 0, 0)]);
        let g = single_edge(0, 0, 0);
        let ext = one_edge_extensions(&g, &vocab);
        // Only the 2-edge path of 0-labeled vertices (pendant from either
        // endpoint is the same canonical pattern; no closing possible).
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].len(), 2);
    }

    #[test]
    fn closing_extension_builds_triangle() {
        let vocab = EdgeVocab::from_triples([(0, 0, 0)]);
        let mut path = Graph::new();
        for _ in 0..3 {
            path.add_vertex(0);
        }
        path.add_edge(0, 1, 0).unwrap();
        path.add_edge(1, 2, 0).unwrap();
        let ext = one_edge_extensions(&path, &vocab);
        // Pendant -> 3-edge path or star; closing -> triangle.
        assert_eq!(ext.len(), 3);
        assert!(ext.iter().any(|c| {
            let g = c.to_graph();
            g.vertex_count() == 3 && g.edge_count() == 3
        }));
    }

    #[test]
    fn frequent_in_respects_threshold() {
        let db = GraphDb::from_graphs(vec![
            single_edge(0, 0, 1),
            single_edge(0, 0, 1),
            single_edge(0, 9, 1),
        ]);
        let vocab = EdgeVocab::frequent_in(&db, 2);
        assert_eq!(vocab.len(), 1);
        assert_eq!(vocab.closable(0, 1), &[0]);
    }

    #[test]
    fn empty_vocab_generates_nothing() {
        let g = single_edge(0, 0, 0);
        assert!(one_edge_extensions(&g, &EdgeVocab::default()).is_empty());
    }
}
