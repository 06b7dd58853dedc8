//! `PatternSet` against a model: random `insert`/`remove`/`retain`/
//! `difference`/`collect` sequences over the canonical codes of small
//! random graphs, checked after every step against a
//! `BTreeMap<DfsCode, Support>` ordered by the same `DfsCode::cmp`. The set
//! must hold the model's codes and supports and iterate strictly ascending;
//! for a pair of sets, `changes_to` must split `old ∪ new` into UF/FI/IF
//! exactly as the model's set differences do.

use std::collections::BTreeMap;

use proptest::prelude::*;

use graphmine_graph::enumerate::connected_subgraph_codes;
use graphmine_graph::{Change, DfsCode, Graph, Pattern, PatternSet, Support};

type Model = BTreeMap<DfsCode, Support>;

/// The canonical codes of every connected subgraph (up to four edges) of
/// one to three graphs of 2–5 vertices over two vertex and two edge labels.
fn code_pool() -> impl Strategy<Value = Vec<DfsCode>> {
    let graph = (2..=5usize).prop_flat_map(|n| {
        let vl = proptest::collection::vec(0..2u32, n);
        let pairs = proptest::collection::vec((0..2u32, any::<bool>()), n * (n - 1) / 2);
        (vl, pairs).prop_map(|(vl, pairs)| {
            let mut g = Graph::new();
            for &l in &vl {
                g.add_vertex(l);
            }
            let all =
                (0..vl.len() as u32).flat_map(|u| (u + 1..vl.len() as u32).map(move |v| (u, v)));
            for ((u, v), (el, keep)) in all.zip(pairs) {
                if keep {
                    g.add_edge(u, v, el).unwrap();
                }
            }
            g
        })
    });
    proptest::collection::vec(graph, 1..4).prop_map(|graphs| {
        let codes: std::collections::BTreeSet<DfsCode> =
            graphs.iter().flat_map(|g| connected_subgraph_codes(g, 4)).collect();
        codes.into_iter().collect()
    })
}

/// One step on a set, with code picks as raw draws reduced modulo the pool.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32, Support),
    Remove(u32),
    /// Keeps the patterns whose support is not a multiple of the value.
    Retain(Support),
    /// Replaces the set by its difference with a set of these codes.
    Difference(Vec<u32>),
    /// Replaces the set by one collected from these patterns.
    Collect(Vec<(u32, Support)>),
}

fn op() -> impl Strategy<Value = Op> {
    let picks = || proptest::collection::vec(any::<u32>(), 0..12);
    prop_oneof![
        6 => (any::<u32>(), 1..20u32).prop_map(|(i, s)| Op::Insert(i, s)),
        2 => any::<u32>().prop_map(Op::Remove),
        1 => (2..5u32).prop_map(Op::Retain),
        1 => picks().prop_map(Op::Difference),
        1 => proptest::collection::vec((any::<u32>(), 1..20u32), 0..16).prop_map(Op::Collect),
    ]
}

fn pick(pool: &[DfsCode], i: u32) -> &DfsCode {
    &pool[i as usize % pool.len()]
}

fn pattern(code: &DfsCode, support: Support) -> Pattern {
    Pattern::from_code(code.clone(), support)
}

/// A set and its model from `(pick, support)` draws; a repeated code keeps
/// its last support in both.
fn collected(pool: &[DfsCode], draws: &[(u32, Support)]) -> (PatternSet, Model) {
    let set = draws.iter().map(|&(i, s)| pattern(pick(pool, i), s)).collect();
    let model = draws.iter().map(|&(i, s)| (pick(pool, i).clone(), s)).collect();
    (set, model)
}

fn apply(pool: &[DfsCode], set: &mut PatternSet, model: &mut Model, op: &Op) {
    match op {
        Op::Insert(i, s) => {
            let code = pick(pool, *i);
            let was = set.insert(pattern(code, *s)).map(|p| p.support);
            assert_eq!(was, model.insert(code.clone(), *s), "insert {code}");
        }
        Op::Remove(i) => {
            let code = pick(pool, *i);
            assert_eq!(set.remove(code).map(|p| p.support), model.remove(code), "remove {code}");
        }
        Op::Retain(m) => {
            set.retain(|p| p.support % m != 0);
            model.retain(|_, s| *s % m != 0);
        }
        Op::Difference(picks) => {
            let draws: Vec<(u32, Support)> = picks.iter().map(|&i| (i, 1)).collect();
            let (other, other_model) = collected(pool, &draws);
            *set = set.difference(&other);
            model.retain(|c, _| !other_model.contains_key(c));
        }
        Op::Collect(draws) => (*set, *model) = collected(pool, draws),
    }
}

fn assert_matches(pool: &[DfsCode], set: &PatternSet, model: &Model) {
    assert!(set.iter().zip(set.iter().skip(1)).all(|(a, b)| a.code < b.code), "not ascending");
    let got: Vec<(&DfsCode, Support)> = set.iter().map(|p| (&p.code, p.support)).collect();
    let want: Vec<(&DfsCode, Support)> = model.iter().map(|(c, &s)| (c, s)).collect();
    assert_eq!(got, want);
    assert_eq!(set.len(), model.len());
    for code in pool {
        assert_eq!(set.support(code), model.get(code).copied(), "support of {code}");
        assert_eq!(set.contains(code), model.contains_key(code), "contains {code}");
        assert!(set.get(code).is_none_or(|p| p.graph == code.to_graph()), "graph of {code}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn set_follows_its_model(pool in code_pool(), ops in proptest::collection::vec(op(), 1..40)) {
        prop_assume!(!pool.is_empty());
        let (mut set, mut model) = (PatternSet::new(), Model::new());
        for op in &ops {
            apply(&pool, &mut set, &mut model, op);
            assert_matches(&pool, &set, &model);
        }
    }

    #[test]
    fn changes_split_the_union_as_set_differences_do(
        pool in code_pool(),
        old in proptest::collection::vec((any::<u32>(), 1..20u32), 0..24),
        new in proptest::collection::vec((any::<u32>(), 1..20u32), 0..24),
    ) {
        prop_assume!(!pool.is_empty());
        let (old, old_model) = collected(&pool, &old);
        let (new, new_model) = collected(&pool, &new);
        let (mut uf, mut fi, mut if_new) = (Model::new(), Model::new(), Model::new());
        let mut seen = Vec::new();
        for change in old.changes_to(&new) {
            match change {
                Change::Unchanged(o, n) => {
                    assert_eq!(o.code, n.code);
                    assert_eq!(o.support, old_model[&o.code]);
                    uf.insert(n.code.clone(), n.support);
                    seen.push(n.code.clone());
                }
                Change::Lost(p) => {
                    fi.insert(p.code.clone(), p.support);
                    seen.push(p.code.clone());
                }
                Change::Gained(p) => {
                    if_new.insert(p.code.clone(), p.support);
                    seen.push(p.code.clone());
                }
            }
        }
        let only = |a: &Model, b: &Model| -> Model {
            a.iter().filter(|(c, _)| !b.contains_key(*c)).map(|(c, &s)| (c.clone(), s)).collect()
        };
        let (lost, gained) = (only(&old_model, &new_model), only(&new_model, &old_model));
        prop_assert_eq!(&uf, &only(&new_model, &gained));
        prop_assert_eq!(&fi, &lost);
        prop_assert_eq!(&if_new, &gained);
        // The merge visits `old ∪ new` once each, in ascending code order.
        let mut union = old_model.clone();
        union.extend(new_model.clone());
        prop_assert_eq!(seen, union.into_keys().collect::<Vec<_>>());
        assert_matches(&pool, &old.difference(&new), &lost);
    }
}
