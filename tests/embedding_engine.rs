//! Acceptance test for the embedding-list support engine. The Apriori
//! miner counts its candidates through the budgeted store, so its run
//! report must show real work moved off the backtracking search with lists
//! on: `search_calls_avoided > 0` and at least a 2× drop in actual search
//! invocations against the identical lists-off run, while mining the exact
//! same pattern set. PartMiner's merge-join carries its lists down a
//! projected walk and builds no store: it has no mode to set, and must
//! issue no search and spill nothing.

use graphmine_core::{PartMiner, PartMinerConfig};
use graphmine_datagen::{generate, GenParams};
use graphmine_graph::{EmbeddingMode, GraphDb, PatternSet, Support};
use graphmine_miner::{Apriori, MemoryMiner};
use graphmine_telemetry::{Counter, JsonValue, RunReport, Telemetry};

fn partminer(db: &GraphDb, sup: Support, tel: &Telemetry) -> PatternSet {
    PartMiner::new(PartMinerConfig::with_k(2)).mine_instrumented(db, &[], sup, tel).patterns
}

fn apriori(mode: EmbeddingMode) -> impl Fn(&GraphDb, Support, &Telemetry) -> PatternSet {
    move |db, sup, tel| {
        Apriori { max_edges: Some(4), embedding_lists: mode }.mine_counted(db, sup, tel.counters())
    }
}

fn run(mine: impl Fn(&GraphDb, Support, &Telemetry) -> PatternSet) -> (PatternSet, RunReport) {
    let db = generate(&GenParams::new(60, 10, 5, 15, 4).with_seed(11));
    let tel = Telemetry::new();
    let patterns = mine(&db, db.abs_support(0.10), &tel);
    // The counters asserted on below are exactly what `mine --report`
    // writes to disk.
    let report = RunReport::capture("lists", &tel);
    assert_json_carries(&report);
    (patterns, report)
}

/// Asserts that the JSON form of `report` (what `mine --report` writes)
/// carries its stages and counters, in order.
fn assert_json_carries(report: &RunReport) {
    let json = JsonValue::parse(&report.to_json()).expect("a report is JSON");
    let stages = json.field("stages").and_then(JsonValue::as_arr).expect("stages");
    let stages: Vec<(&str, u64, u64)> = stages
        .iter()
        .map(|s| {
            let num = |key| s.field(key).and_then(JsonValue::as_num).expect(key);
            (
                s.field("name").and_then(JsonValue::as_str).expect("name"),
                num("total_ns"),
                num("count"),
            )
        })
        .collect();
    let want: Vec<_> =
        report.stages.iter().map(|s| (s.name.as_str(), s.total_ns, s.count)).collect();
    assert_eq!(stages, want, "stages");
    let counters = json.field("counters").and_then(JsonValue::as_obj).expect("counters");
    let counters: Vec<(&str, u64)> =
        counters.iter().map(|(n, v)| (n.as_str(), v.as_num().expect("a count"))).collect();
    let want: Vec<_> = report.counters.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    assert_eq!(counters, want, "counters");
}

#[test]
fn embedding_lists_replace_most_searches() {
    // PartMiner: the merge-join issues no search and spills no list.
    let (patterns, report) = run(partminer);
    assert!(!patterns.is_empty(), "partminer: degenerate run, no frequent patterns");
    assert_eq!(report.counter(Counter::SearchCalls), 0, "partminer");
    assert_eq!(report.counter(Counter::EmbeddingsSpilled), 0, "partminer");

    let (patterns_off, off) = run(apriori(EmbeddingMode::Off));
    let (patterns_on, on) = run(apriori(EmbeddingMode::On));

    // Counting strategy must not change the answer.
    assert!(
        patterns_on.same_codes_and_supports(&patterns_off),
        "apriori: lists on mined {} patterns, lists off {}",
        patterns_on.len(),
        patterns_off.len()
    );
    assert!(!patterns_on.is_empty(), "apriori: degenerate run, no frequent patterns");

    // Lists-off never answers a count from a list.
    assert_eq!(off.counter(Counter::SearchCallsAvoided), 0);

    // Lists-on actually worked: the store built rows of its own and
    // answered queries that would otherwise have been per-graph searches.
    assert!(
        on.counter(Counter::EmbeddingsExtended) > off.counter(Counter::EmbeddingsExtended),
        "apriori: the store built no embedding rows of its own"
    );
    assert!(on.counter(Counter::SearchCallsAvoided) > 0, "apriori: no search calls were avoided");

    // The headline: total search invocations drop at least 2x.
    let searches_off = off.counter(Counter::SearchCalls);
    let searches_on = on.counter(Counter::SearchCalls);
    assert!(searches_off > 0, "apriori: lists-off run never searched — test db too small");
    assert!(
        searches_on * 2 <= searches_off,
        "apriori: search calls only dropped from {searches_off} to {searches_on} (< 2x)"
    );
}
