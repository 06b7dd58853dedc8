//! Integration: the telemetry `RunReport` must reconcile with the pattern
//! sets and ad-hoc stats the pipeline returns — counters are not decorative.

use graphmine_core::{
    merge_join, Executor, IncPartMiner, MergeContext, PartMiner, PartMinerConfig,
};
use graphmine_datagen::{
    generate, plan_updates, ufreq_from_updates, GenParams, UpdateKind, UpdateParams,
};
use graphmine_graph::GraphDb;
use graphmine_miner::{GSpan, MemoryMiner};
use graphmine_telemetry::{Counter, RunReport, Telemetry};

fn synthetic_db() -> GraphDb {
    generate(&GenParams::new(60, 10, 5, 10, 4))
}

fn zero_ufreq(db: &GraphDb) -> Vec<Vec<f64>> {
    db.iter().map(|(_, g)| vec![0.0; g.vertex_count()]).collect()
}

/// With `k = 2` exactly one merge-join runs and its output *is* the final
/// pattern set, so `verified_frequent` must equal `patterns.len()`.
///
/// The stage-coverage check compares two wall times, so the run must be
/// long beside a scheduler's time slice: on 1,000 graphs it takes ~120 ms
/// in a debug build, each of the three stages about a third, and the
/// steps outside them ~0.2 ms. A thread descheduled outside a stage for a
/// few milliseconds leaves the 95 % standing; a stage's work done outside
/// its span does not.
#[test]
fn partminer_report_reconciles_exact() {
    let db = generate(&GenParams::new(1000, 10, 5, 10, 4));
    let sup = db.abs_support(0.1);
    let cfg = PartMinerConfig::with_k(2);
    let ufreq = zero_ufreq(&db);

    let tel = Telemetry::new();
    let outcome = PartMiner::new(cfg).mine_instrumented(&db, &ufreq, sup, &tel);
    let report = RunReport::capture("partminer", &tel);

    assert_eq!(
        report.counter(Counter::VerifiedFrequent),
        outcome.patterns.len() as u64,
        "every reported pattern was verified exactly once"
    );
    assert_eq!(report.counter(Counter::UnitsMined), 2);
    assert_eq!(report.counter(Counter::NodesMerged), 1);

    // The ad-hoc MergeStats and the telemetry counters tally the same events.
    assert_eq!(report.counter(Counter::CandidatesGenerated), outcome.stats.merge.candidates as u64);
    assert_eq!(report.counter(Counter::BoundShortcut), outcome.stats.merge.shortcut as u64);

    // Serial run: the top-level stages partition the wall time, and they
    // are these three — a step's inner span (`partition_split`,
    // `check_frequency`) is top-level only if the step left its own.
    let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["partition", "unit_mine", "merge_join"]);
    for stage in names {
        assert!(report.stage_ns(stage) > 0, "stage {stage} missing");
    }
    let staged: u64 = report.stages.iter().map(|s| s.total_ns).sum();
    assert!(staged <= report.total_ns, "stages exceed total on a serial run");
    assert!(
        staged * 100 >= report.total_ns * 95,
        "stages cover <95% of the run: {staged} of {}",
        report.total_ns
    );

    // The JSON form is lossless.
    let parsed = RunReport::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed, report);
}

#[test]
fn incpartminer_report_reconciles() {
    let db = synthetic_db();
    let plan = plan_updates(&db, &UpdateParams::new(0.3, 2, UpdateKind::Mixed, 5));
    let ufreq = ufreq_from_updates(&db, &plan);
    let sup = db.abs_support(0.1);
    let cfg = PartMinerConfig::with_k(2);

    let outcome = PartMiner::new(cfg).mine(&db, &ufreq, sup);
    let mut state = outcome.state;
    let tel = Telemetry::new();
    let inc = IncPartMiner::update_instrumented(&mut state, &plan, &tel).unwrap();
    let report = RunReport::capture("incpartminer", &tel);

    // The UF/FI/IF classification tallies match the returned sets.
    assert_eq!(report.counter(Counter::IncUnchangedFrequent), inc.uf.len() as u64);
    assert_eq!(report.counter(Counter::IncFrequentToInfrequent), inc.fi.len() as u64);
    assert_eq!(report.counter(Counter::IncInfrequentToFrequent), inc.if_new.len() as u64);
    assert_eq!(report.counter(Counter::UnitsMined), inc.stats.units_remined as u64);

    // Re-merging at the root verifies exactly the final pattern set.
    assert_eq!(report.counter(Counter::VerifiedFrequent), inc.patterns.len() as u64);

    // Stage accounting: one inc_remine span per re-mined unit, and the
    // re-merge appears as the single top-level merge_join span.
    let remine = report.stages.iter().find(|s| s.name == "inc_remine").unwrap();
    assert_eq!(remine.count, inc.stats.units_remined as u64);
    assert_eq!(report.stages.iter().find(|s| s.name == "merge_join").unwrap().count, 1);

    let parsed = RunReport::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed, report);
}

/// The work counters of the projected walk, in the order the pins below
/// list them.
const WALK_COUNTERS: [Counter; 7] = [
    Counter::CandidatesGenerated,
    Counter::VerifiedFrequent,
    Counter::VerifiedInfrequent,
    Counter::BoundShortcut,
    Counter::MinerExtensions,
    Counter::MinerPatterns,
    Counter::EmbeddingsExtended,
];

/// gSpan, PartMiner's units and merge-joins and the daemon's boot all run
/// one walk, and each caller counts its work under its own names. On the
/// golden database (`golden_patterns.rs`) those counts are pinned to what
/// the walk did when each caller still had a recursion of its own: a
/// refactor of the walk that visits, generates, verifies or shortcuts one
/// candidate more or less fails here.
#[test]
fn walk_counters_are_pinned() {
    let db = generate(&GenParams::new(40, 8, 5, 12, 3).with_seed(7));
    let sup = db.abs_support(0.2);
    let counted = |run: &dyn Fn(&Telemetry)| {
        let tel = Telemetry::new();
        run(&tel);
        WALK_COUNTERS.map(|c| tel.counters().get(c))
    };

    let gspan = counted(&|tel| {
        GSpan::new().mine_counted(&db, sup, tel.counters());
    });
    let partminer = |k: usize| {
        counted(&|tel| {
            let cfg = PartMinerConfig::with_k(k);
            PartMiner::new(cfg).mine_instrumented(&db, &zero_ufreq(&db), sup, tel);
        })
    };
    // A daemon boot: the merge-join with no piece results, on the pool.
    let boot = counted(&|tel| {
        let exec = Executor::new(2);
        let ctx = MergeContext {
            db: &db,
            min_support: sup,
            max_edges: None,
            executor: Some(&exec),
            telemetry: Some(tel),
        };
        merge_join(&ctx, &[]);
    });

    assert_eq!(gspan, [0, 0, 0, 0, 230, 39, 1130], "gSpan");
    assert_eq!(partminer(2), [215, 39, 162, 16, 317, 81, 2285], "PartMiner k = 2");
    assert_eq!(partminer(4), [500, 120, 339, 61, 595, 174, 3568], "PartMiner k = 4");
    assert_eq!(boot, [215, 39, 162, 0, 0, 0, 1130], "daemon boot");
}
