//! Every mutator against a model of what it does. A random sequence of
//! `add_vertex`, `add_edge`, `pop_edge`, `pop_vertex`, `delete_edge`,
//! `delete_vertex`, `set_vlabel` and `set_elabel` runs on one graph and on
//! a plain label list and edge list kept by the documented semantics
//! (swap-remove renumbering included). After every step the graph must pass
//! `check_invariants` and equal the graph `Graph::from_edges` builds from
//! the model: the same vertices and edges, the same sorted runs; and every
//! triple count it reports must be the model's. The mutators move words
//! inside one block and the bulk build lays the block out at once, so the
//! two share no code past the accessors.

use proptest::prelude::*;

use graphmine_graph::{CsrScratch, Graph};

#[derive(Debug, Clone)]
enum Op {
    AddVertex(u32),
    AddEdge(u32, u32, u32),
    PopEdge,
    PopVertex,
    DeleteEdge(u32),
    DeleteVertex(u32),
    SetVlabel(u32, u32),
    SetElabel(u32, u32),
}

/// Ids are drawn wide and taken modulo the current count when the op
/// runs; `add_edge` keeps its raw ids, so some fall out of range or
/// repeat an edge and must be refused.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..3u32).prop_map(Op::AddVertex),
        5 => (0..8u32, 0..8u32, 0..3u32).prop_map(|(u, v, l)| Op::AddEdge(u, v, l)),
        1 => Just(Op::PopEdge),
        1 => Just(Op::PopVertex),
        2 => any::<u32>().prop_map(Op::DeleteEdge),
        1 => any::<u32>().prop_map(Op::DeleteVertex),
        2 => (any::<u32>(), 0..3u32).prop_map(|(v, l)| Op::SetVlabel(v, l)),
        2 => (any::<u32>(), 0..3u32).prop_map(|(e, l)| Op::SetElabel(e, l)),
    ]
}

/// The graph as two lists: vertex `i` has `labels[i]`, edge `j` is
/// `edges[j]`.
#[derive(Debug, Default)]
struct Model {
    labels: Vec<u32>,
    edges: Vec<(u32, u32, u32)>,
}

impl Model {
    fn touches(&self, v: u32) -> bool {
        self.edges.iter().any(|&(a, b, _)| a == v || b == v)
    }
}

/// Runs `op` on both and checks what the graph reports against the model.
fn step(g: &mut Graph, model: &mut Model, op: &Op) {
    let (n, m) = (model.labels.len() as u32, model.edges.len() as u32);
    match *op {
        Op::AddVertex(l) => {
            prop_assert_eq!(g.add_vertex(l), n);
            model.labels.push(l);
        }
        Op::AddEdge(u, v, l) => {
            let fresh = u < n
                && v < n
                && u != v
                && !model.edges.iter().any(|&(a, b, _)| (a, b) == (u, v) || (a, b) == (v, u));
            let added = g.add_edge(u, v, l);
            prop_assert_eq!(added.is_ok(), fresh, "add_edge({}, {}) -> {:?}", u, v, added);
            if fresh {
                prop_assert_eq!(added, Ok(m));
                model.edges.push((u, v, l));
            }
        }
        Op::PopEdge => {
            prop_assert_eq!(g.pop_edge(), model.edges.pop());
        }
        Op::PopVertex => {
            if n > 0 && !model.touches(n - 1) {
                prop_assert_eq!(g.pop_vertex(), model.labels.pop());
            }
        }
        Op::DeleteEdge(e) if m > 0 => {
            let e = e % m;
            let rec = g.delete_edge(e).expect("in range");
            let (u, v, label) = model.edges[e as usize];
            prop_assert_eq!((rec.e, rec.u, rec.v, rec.label), (e, u, v, label));
            prop_assert_eq!(rec.moved, (e != m - 1).then_some(m - 1));
            model.edges.swap_remove(e as usize);
        }
        Op::DeleteVertex(v) if n > 0 => {
            let v = v % n;
            let rec = g.delete_vertex(v).expect("in range");
            let mut incident: Vec<usize> = (0..model.edges.len())
                .filter(|&j| model.edges[j].0 == v || model.edges[j].1 == v)
                .collect();
            incident.sort_unstable_by(|a, b| b.cmp(a));
            prop_assert_eq!(rec.removed_edges.len(), incident.len());
            for (j, removal) in incident.into_iter().zip(&rec.removed_edges) {
                let (u, v, label) = model.edges[j];
                let last = model.edges.len() - 1;
                prop_assert_eq!(
                    (removal.e, removal.u, removal.v, removal.label),
                    (j as u32, u, v, label)
                );
                prop_assert_eq!(removal.moved, (j != last).then_some(last as u32));
                model.edges.swap_remove(j);
            }
            prop_assert_eq!(rec.label, model.labels[v as usize]);
            let w = n - 1;
            prop_assert_eq!(rec.moved_vertex, (v != w).then_some(w));
            model.labels.swap_remove(v as usize);
            for (a, b, _) in &mut model.edges {
                for end in [a, b] {
                    if *end == w {
                        *end = v;
                    }
                }
            }
        }
        Op::SetVlabel(v, l) if n > 0 => {
            let v = v % n;
            g.set_vlabel(v, l).expect("in range");
            model.labels[v as usize] = l;
        }
        Op::SetElabel(e, l) if m > 0 => {
            let e = e % m;
            g.set_elabel(e, l).expect("in range");
            model.edges[e as usize].2 = l;
        }
        // A delete or relabel on a graph without the element it names.
        Op::DeleteEdge(e) => prop_assert!(g.delete_edge(e).is_err()),
        Op::DeleteVertex(v) => prop_assert!(g.delete_vertex(v).is_err()),
        Op::SetVlabel(v, l) => prop_assert!(g.set_vlabel(v, l).is_err()),
        Op::SetElabel(e, l) => prop_assert!(g.set_elabel(e, l).is_err()),
    }
}

proptest! {
    #[test]
    fn every_mutation_step_equals_a_bulk_rebuild(ops in proptest::collection::vec(op(), 1..60)) {
        let mut g = Graph::new();
        let mut model = Model::default();
        let mut scratch = CsrScratch::default();
        for (i, op) in ops.iter().enumerate() {
            step(&mut g, &mut model, op);
            prop_assert_eq!(g.check_invariants(), Ok(()), "step {} {:?}", i, op);
            let want = Graph::from_edges(&model.labels, &model.edges, &mut scratch)
                .expect("the model is a simple graph");
            prop_assert_eq!(&g, &want, "step {} {:?}", i, op);
            for v in 0..g.vertex_count() as u32 {
                prop_assert_eq!(g.neighbors(v), want.neighbors(v), "step {} run {}", i, v);
            }
            // Asked in the edge's own orientation, counted in both.
            let triple = |&(u, v, l): &(u32, u32, u32)| {
                let (a, b) = (model.labels[u as usize], model.labels[v as usize]);
                (a.min(b), l, a.max(b))
            };
            for e @ &(u, v, l) in &model.edges {
                let want = model.edges.iter().filter(|x| triple(x) == triple(e)).count() as u32;
                let (lu, lv) = (model.labels[u as usize], model.labels[v as usize]);
                prop_assert_eq!(g.triple_count(lu, l, lv), want, "step {} {:?}: triple", i, op);
            }
        }
    }
}
