//! Property tests for the embedding-list support engine: on random
//! databases, incremental occurrence filtering must agree exactly with the
//! backtracking embedding search — including graphs that embed a pattern
//! through several overlapping images (edge multiplicity), and the
//! spill/fallback path of the budgeted store's one count,
//! [`EmbeddingStore::support`].

use proptest::prelude::*;

use graphmine_graph::enumerate::connected_subgraph_codes;
use graphmine_graph::{
    iso, DfsCode, EmbeddingList, EmbeddingStore, Graph, GraphDb, GraphId, SupportCount,
    DEFAULT_EMBEDDING_BUDGET,
};
use graphmine_telemetry::Counters;

/// Strategy: a random connected labeled graph (spanning tree + extra edges).
/// Small label alphabets force label collisions, which is what stresses
/// multiplicity handling: the same pattern embeds many ways per graph.
fn connected_graph(max_vertices: usize) -> impl Strategy<Value = Graph> {
    (2..=max_vertices).prop_flat_map(move |n| {
        let vl = proptest::collection::vec(0..2u32, n);
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        let tree_el = proptest::collection::vec(0..2u32, n - 1);
        let extra = proptest::collection::vec((0..n, 0..n, 0..2u32), 0..=n);
        (vl, parents, tree_el, extra).prop_map(move |(vl, parents, tree_el, extra)| {
            let mut g = Graph::new();
            for &l in &vl {
                g.add_vertex(l);
            }
            for (i, (&p, &el)) in parents.iter().zip(tree_el.iter()).enumerate() {
                g.add_edge((i + 1) as u32, p as u32, el).unwrap();
            }
            for &(u, v, el) in &extra {
                if u != v {
                    let _ = g.add_edge(u as u32, v as u32, el);
                }
            }
            g
        })
    })
}

fn db_strategy() -> impl Strategy<Value = GraphDb> {
    proptest::collection::vec(connected_graph(6), 1..5).prop_map(GraphDb::from_graphs)
}

/// Patterns guaranteed to occur somewhere: the connected subgraphs of the
/// database's first graph, in a deterministic order so `pick` selects one.
fn patterns_of(db: &GraphDb, max_edges: usize) -> Vec<DfsCode> {
    let mut codes: Vec<DfsCode> =
        connected_subgraph_codes(db.graph(0), max_edges).into_iter().collect();
    codes.sort();
    codes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `EmbeddingList::from_code` (root list + one `extend` per further
    /// edge) reports exactly the supporting graphs the embedding search
    /// finds — same support, same gids.
    #[test]
    fn list_agrees_with_search(db in db_strategy(), pick in any::<usize>()) {
        let codes = patterns_of(&db, 4);
        prop_assume!(!codes.is_empty());
        let code = &codes[pick % codes.len()];
        let list = EmbeddingList::from_code(&db, code);
        let searched = iso::supporting_gids(&db, code);
        prop_assert_eq!(
            list.supporting_gids(), searched.clone(),
            "pattern {} on {} graphs: list support {} vs search {}",
            code, db.len(), list.support(), searched.len()
        );
    }

    /// The budgeted store answers every query it accepts identically to the
    /// search, and every list it caches is a true prefix product (querying
    /// twice returns the same answer from cache).
    #[test]
    fn store_agrees_with_search(db in db_strategy(), pick in any::<usize>()) {
        let codes = patterns_of(&db, 4);
        prop_assume!(!codes.is_empty());
        let code = &codes[pick % codes.len()];
        let counters = Counters::new();
        let mut store = EmbeddingStore::new(&db, 1 << 20);
        let first = store.support(code, None, 0, &counters);
        let searched = iso::supporting_gids(&db, code);
        prop_assert_eq!(
            &first,
            &SupportCount { support: searched.len() as u32, gids: searched, listed: true }
        );
        // Second query is served from cache and must not change the answer.
        prop_assert_eq!(store.support(code, None, 0, &counters), first);
    }

    /// A zero-budget store spills everything: every list query is `None`,
    /// so the count falls back to the search, and never returns a wrong
    /// support instead.
    #[test]
    fn zero_budget_store_always_falls_back(
        db in db_strategy(),
        pick in any::<usize>(),
    ) {
        let codes = patterns_of(&db, 4);
        prop_assume!(!codes.is_empty());
        let code = &codes[pick % codes.len()];
        let counters = Counters::new();
        let mut store = EmbeddingStore::new(&db, 0);
        prop_assert!(store.list(code, &counters).is_none());
        prop_assert_eq!(store.cached_bytes(), 0);
        // The fallback the count takes stays exact.
        let count = store.support(code, None, 0, &counters);
        prop_assert!(!count.listed);
        prop_assert_eq!(count.gids, iso::supporting_gids(&db, code));
    }

    /// The one count, [`EmbeddingStore::support`], at budgets that spill
    /// every list, some lists and none: over the whole database and over
    /// an ascending superset of the true supporters it returns the plain
    /// search's support and supporter list, and with a threshold `s` every
    /// support it reports at or above `s` is exact.
    #[test]
    fn one_count_agrees_with_search(
        db in db_strategy(),
        pick in any::<usize>(),
        extra in proptest::collection::vec(any::<bool>(), 4),
        s in 0..6u32,
    ) {
        let codes = patterns_of(&db, 4);
        prop_assume!(!codes.is_empty());
        let code = &codes[pick % codes.len()];
        let truth = iso::supporting_gids(&db, code);
        let superset: Vec<GraphId> = (0..db.len() as GraphId)
            .filter(|gid| truth.contains(gid) || extra[*gid as usize])
            .collect();
        let counters = Counters::new();
        for budget in [0, 4 << 10, DEFAULT_EMBEDDING_BUDGET] {
            for over in [None, Some(superset.as_slice())] {
                let exact = EmbeddingStore::new(&db, budget).support(code, over, 0, &counters);
                prop_assert_eq!(exact.support, truth.len() as u32, "budget {}", budget);
                prop_assert_eq!(&exact.gids, &truth, "budget {}", budget);
                // The pattern occurs, so its roots never fit a zero budget;
                // the default budget holds every list of these databases.
                prop_assert!(budget > 0 || !exact.listed);
                prop_assert!(budget < DEFAULT_EMBEDDING_BUDGET || exact.listed);
                let bounded = EmbeddingStore::new(&db, budget).support(code, over, s, &counters);
                prop_assert_eq!(bounded.support >= s, truth.len() as u32 >= s);
                if bounded.support >= s {
                    prop_assert_eq!(bounded.support, truth.len() as u32, "budget {}", budget);
                    prop_assert_eq!(&bounded.gids, &truth, "budget {}", budget);
                }
            }
        }
    }
}
