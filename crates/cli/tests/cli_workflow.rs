//! End-to-end CLI workflow: generate → mine → plan updates → incremental.

use std::io::sink;

use graphmine_cli::commands;

fn s(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

#[test]
fn full_workflow_through_files() {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    let upd_path = dir.path().join("updates.txt");
    let pat_path = dir.path().join("patterns.txt");
    let db_s = db_path.to_str().unwrap();
    let upd_s = upd_path.to_str().unwrap();
    let pat_s = pat_path.to_str().unwrap();

    commands::generate(
        &s(&["--d", "120", "--t", "10", "--n", "6", "--l", "10", "--i", "4", "-o", db_s]),
        &mut sink(),
    )
    .expect("generate");
    assert!(db_path.exists());

    // Mine with the default PartMiner pipeline, write patterns to a file.
    commands::mine(&s(&[db_s, "--minsup", "0.10", "--k", "3", "-o", pat_s]), &mut sink())
        .expect("mine");
    let patterns = std::fs::read_to_string(&pat_path).unwrap();
    assert!(patterns.contains("support"), "patterns file has content: {patterns}");

    // Every algorithm runs on the same file.
    for algo in ["gspan", "gaston", "apriori", "fsg", "adimine"] {
        commands::mine(&s(&[db_s, "--minsup", "0.25", "--algo", algo]), &mut sink()).expect(algo);
    }

    // Closed / maximal post-filters.
    commands::mine(&s(&[db_s, "--minsup", "0.25", "--algo", "gspan", "--closed"]), &mut sink())
        .expect("closed");
    commands::mine(&s(&[db_s, "--minsup", "0.25", "--algo", "gspan", "--maximal"]), &mut sink())
        .expect("maximal");
    assert!(commands::mine(&s(&[db_s, "--minsup", "0.25", "--closed", "--maximal"]), &mut sink())
        .is_err());

    commands::plan_updates_cmd(
        &s(&[db_s, "--fraction", "0.3", "--kind", "mixed", "-o", upd_s]),
        &mut sink(),
    )
    .expect("plan-updates");
    let plan_text = std::fs::read_to_string(&upd_path).unwrap();
    assert!(!plan_text.trim().is_empty());

    commands::incremental(&s(&[db_s, upd_s, "--minsup", "0.10", "--k", "3"]), &mut sink())
        .expect("incremental");

    // Stats over the database.
    commands::stats(&s(&[db_s]), &mut sink()).expect("stats");

    // Pattern files written by `mine -o` can be diffed.
    let pat2_path = dir.path().join("patterns2.txt");
    let pat2_s = pat2_path.to_str().unwrap();
    commands::mine(&s(&[db_s, "--minsup", "0.20", "--algo", "gspan", "-o", pat2_s]), &mut sink())
        .expect("mine 2");
    commands::diff(&s(&[pat_s, pat2_s]), &mut sink()).expect("diff");
    // Identical files diff cleanly too.
    commands::diff(&s(&[pat_s, pat_s]), &mut sink()).expect("self diff");
}

#[test]
fn helpful_errors() {
    assert!(commands::mine(&s(&["--minsup", "0.1"]), &mut sink()).is_err(), "missing file");
    assert!(commands::mine(&s(&["nonexistent.txt", "--minsup", "0.1"]), &mut sink()).is_err());
    assert!(commands::generate(&s(&["--d", "10"]), &mut sink()).is_err(), "missing -o");
    let err = commands::mine(&s(&["x", "--minsup", "zzz"]), &mut sink()).unwrap_err();
    assert!(err.contains("minsup"), "{err}");
}
