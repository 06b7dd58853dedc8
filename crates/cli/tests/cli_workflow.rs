//! End-to-end CLI workflow: generate → mine → plan updates → incremental,
//! and a shard plan booted and asked.

use std::fs::File;
use std::io::{sink, BufReader};
use std::sync::Arc;

use graphmine_cli::commands;
use graphmine_graph::io::read_db;
use graphmine_router::{Router, RouterConfig, ShardTopology};
use graphmine_serve::protocol::Request;
use graphmine_serve::{start, EngineConfig, ServeEngine, ServerConfig};
use graphmine_telemetry::JsonValue;

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

    let mut said = Vec::new();
    commands::incremental(&s(&[db_s, upd_s, "--minsup", "0.10", "--k", "3"]), &mut said)
        .expect("incremental");
    let said = String::from_utf8(said).unwrap();
    let round = said.lines().find(|l| l.starts_with("incremental round: ")).expect(&said);
    assert!(round.ends_with("/3 units"), "{round}");

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

/// A flag a command does not have — here each command's own flag, misspelt
/// — is an error naming the token, raised before anything is loaded, mined
/// or contacted: none of the files named below exists.
#[test]
fn misspelt_flags_are_errors() {
    type Cmd = fn(&[String], &mut dyn std::io::Write) -> Result<(), String>;
    let cases: [(&str, Cmd, &[&str], &str); 6] = [
        ("mine", commands::mine, &["no-db.txt", "--minsup", "0.05", "--closd"], "--closd"),
        (
            "incremental",
            commands::incremental,
            &["no-db.txt", "no-upd.txt", "--minsup", "0.05", "--embedding-budget", "1"],
            "--embedding-budget",
        ),
        ("serve", commands::serve, &["no-db.txt", "--minsup", "0.05", "--paralel"], "--paralel"),
        (
            "shard-plan",
            commands::shard_plan,
            &["no-db.txt", "--shards", "2", "--minsup", "0.05", "-o", "no-dir", "--replcas", "2"],
            "--replcas",
        ),
        ("router", commands::router, &["no-topology.json", "--cache-budgt", "0"], "--cache-budgt"),
        ("client", commands::client, &["status", "--reprot"], "--reprot"),
    ];
    for (name, cmd, args, token) in cases {
        let err = cmd(&s(args), &mut sink()).expect_err(name);
        assert!(err.contains(token), "{name}: error does not name `{token}`: {err}");
        assert!(!err.contains("no-"), "{name}: got as far as opening a file: {err}");
    }
    assert!(!std::path::Path::new("no-dir").exists());
}

/// `--minsup` is a fraction of the database in (0, 1] at every command that
/// takes one. Anything else is refused by name, with the range, before a
/// file is opened: `0`, a negative value and `nan` used to mine at a
/// threshold of one graph until memory ran out, `1.5` to print an empty
/// result.
#[test]
fn minsup_outside_the_unit_interval_is_a_usage_error() {
    type Cmd = fn(&[String], &mut dyn std::io::Write) -> Result<(), String>;
    let commands: [(&str, Cmd, &[&str]); 4] = [
        ("mine", commands::mine, &["no-db.txt"]),
        ("incremental", commands::incremental, &["no-db.txt", "no-upd.txt"]),
        ("serve", commands::serve, &["no-db.txt"]),
        ("shard-plan", commands::shard_plan, &["no-db.txt", "--shards", "2", "-o", "no-dir"]),
    ];
    for (name, cmd, rest) in commands {
        let run = |minsup: &str| {
            let mut args = s(rest);
            args.extend(s(&["--minsup", minsup]));
            cmd(&args, &mut sink()).expect_err(name)
        };
        for bad in ["0", "-0.1", "nan", "1.5", "inf"] {
            let err = run(bad);
            assert!(err.contains("--minsup") && err.contains("(0, 1]"), "{name} {bad}: {err}");
            assert!(!err.contains("no-"), "{name} {bad}: got as far as opening a file: {err}");
        }
        // The ends of the range pass the door and fail on the missing file.
        for good in ["1", "1e-9"] {
            let err = run(good);
            assert!(err.contains("no-db.txt"), "{name} {good}: {err}");
        }
    }
    assert!(!std::path::Path::new("no-dir").exists());
}

/// `--k` and `--max-edges` count units and edges, so 0 is refused by name
/// before a file is opened. `--k 0` used to panic inside the partitioner
/// (exit 101); `--max-edges 0` mined what `--max-edges 1` mines, under
/// every `--algo`.
#[test]
fn zero_units_and_zero_edge_caps_are_usage_errors() {
    type Cmd = fn(&[String], &mut dyn std::io::Write) -> Result<(), String>;
    let cases: [(&str, Cmd, &[&str], &str); 3] = [
        ("mine", commands::mine, &["no-db.txt", "--minsup", "0.05"], "--k"),
        (
            "incremental",
            commands::incremental,
            &["no-db.txt", "no-upd.txt", "--minsup", "0.05"],
            "--k",
        ),
        ("mine", commands::mine, &["no-db.txt", "--minsup", "0.05"], "--max-edges"),
    ];
    for (name, cmd, rest, flag) in cases {
        let run = |value: &str| {
            let mut args = s(rest);
            args.extend(s(&[flag, value]));
            cmd(&args, &mut sink()).expect_err(name)
        };
        let err = run("0");
        assert!(err.starts_with(&format!("{flag} 0: ")), "{name} {flag} 0: {err}");
        assert!(!err.contains("no-"), "{name} {flag} 0: got as far as opening a file: {err}");
        // 1 passes the door and fails on the missing file.
        assert!(run("1").contains("no-db.txt"), "{name} {flag} 1");
    }
}

/// An update file that does not apply to the database is a usage error
/// naming the file and the update's fault, reported by the binary with exit
/// 2 before anything is mined, never a panic.
#[test]
fn incremental_refuses_a_plan_that_does_not_apply() {
    let dir = tempfile::tempdir().unwrap();
    let db = dir.path().join("db.txt");
    let upd = dir.path().join("bad.upd");
    let (db_s, upd_s) = (db.to_str().unwrap(), upd.to_str().unwrap());
    commands::generate(&s(&["--d", "300", "--seed", "42", "-o", db_s]), &mut sink())
        .expect("generate");
    for (plan, fault) in [
        ("7 delete-edge 999", "edge id 999 out of range"),
        ("3 add-edge 0 0 1", "self-loop on vertex 0"),
        ("400 relabel-vertex 0 1", "graph id 400 out of range"),
    ] {
        std::fs::write(&upd, format!("{plan}\n")).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_graphmine"))
            .args(["incremental", db_s, upd_s, "--minsup", "0.05"])
            .output()
            .expect("run graphmine");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{plan}: {stderr}");
        assert!(stderr.starts_with(&format!("error: {upd_s}: {fault}")), "{plan}: {stderr}");
        assert!(!stderr.contains("panicked"), "{plan}: {stderr}");
        assert!(out.stdout.is_empty(), "{plan}: mined before refusing the plan");
    }
}

/// Units are mined with the walk gSpan runs; `--unit-miner` is refused by
/// name, before a file is opened, whatever its value.
#[test]
fn mine_refuses_the_removed_unit_miner_flag() {
    for value in ["gaston", "gspan"] {
        let args = ["no-db.txt", "--minsup", "0.05", "--unit-miner", value];
        let err = commands::mine(&s(&args), &mut sink()).unwrap_err();
        assert!(err.starts_with("--unit-miner was removed"), "{err}");
        assert!(!err.contains("no-"), "{value}: got as far as opening a file: {err}");
    }
}

/// `--threads` alone sets the pool; `--parallel` is refused by name, before
/// a file is opened or a data directory made, wherever it stands.
#[test]
fn mine_and_serve_refuse_the_removed_parallel_flag() {
    let mine = ["no-db.txt", "--minsup", "0.05", "--parallel"];
    let serve = ["--parallel", "no-db.txt", "--minsup", "0.5", "--data-dir", "no-dir"];
    let shard = ["--shard-from", "no-dir/topology.json", "--shard-id", "0", "--parallel"];
    for err in [
        commands::mine(&s(&mine), &mut sink()).unwrap_err(),
        commands::serve(&s(&serve), &mut sink()).unwrap_err(),
        commands::serve(&s(&shard), &mut sink()).unwrap_err(),
    ] {
        assert!(err.starts_with("--parallel was removed"), "{err}");
        assert!(!err.contains("no-"), "got as far as opening a file: {err}");
    }
    assert!(!std::path::Path::new("no-dir").exists());
}

/// `--threads` sizes PartMiner's pool and nothing else: under any other
/// `--algo` it is refused by name, before a file is opened.
#[test]
fn mine_refuses_threads_under_another_algo() {
    let args = ["no-db.txt", "--minsup", "0.05", "--algo", "gspan", "--threads", "2"];
    let err = commands::mine(&s(&args), &mut sink()).unwrap_err();
    assert!(err.starts_with("--threads sizes PartMiner's pool"), "{err}");
    assert!(!err.contains("no-"), "got as far as opening a file: {err}");
}

/// Every window is coalesced; `--no-coalesce` is refused by name, before
/// a file is opened or a data directory made, wherever it stands.
#[test]
fn serve_refuses_the_removed_no_coalesce_flag() {
    for args in [
        ["no-db.txt", "--minsup", "0.5", "--data-dir", "no-dir", "--no-coalesce"],
        ["--no-coalesce", "no-db.txt", "--minsup", "0.5", "--data-dir", "no-dir"],
    ] {
        let err = commands::serve(&s(&args), &mut sink()).unwrap_err();
        assert!(err.starts_with("--no-coalesce was removed"), "{err}");
    }
    assert!(!std::path::Path::new("no-dir").exists());
}

/// One answer: on a database where patterns are frequent inside single
/// units, `mine` under the default algorithm — at any `k`, serial or
/// parallel — writes the very bytes `--algo gspan` writes, and the
/// `--closed` / `--maximal` sets derived from it are gSpan's.
#[test]
fn partminer_pattern_files_are_gspan_pattern_files() {
    let dir = tempfile::tempdir().unwrap();
    let path = |name: &str| dir.path().join(name).to_str().unwrap().to_string();
    let db = path("db.txt");
    let gen =
        ["--d", "400", "--t", "12", "--n", "8", "--l", "30", "--i", "4", "--seed", "3", "-o", &db];
    commands::generate(&s(&gen), &mut sink()).expect("generate");
    let mine = |flags: &[&str], out: &str| {
        let out = path(out);
        let mut args = s(&[&db, "--minsup", "0.05", "-o", &out]);
        args.extend(s(flags));
        commands::mine(&args, &mut sink()).unwrap_or_else(|e| panic!("mine {flags:?}: {e}"));
        std::fs::read(&out).unwrap()
    };

    let gspan = mine(&["--algo", "gspan"], "g.pat");
    assert!(gspan.iter().filter(|&&b| b == b'\n').count() > 100, "degenerate database");
    for flags in [&[][..], &["--k", "4"], &["--k", "4", "--threads", "2"]] {
        assert!(mine(flags, "p.pat") == gspan, "mine {flags:?} differs from --algo gspan");
    }
    for filter in ["--closed", "--maximal"] {
        let reference = mine(&["--algo", "gspan", filter], "gf.pat");
        assert!(reference.len() < gspan.len(), "{filter} filtered nothing");
        assert!(mine(&[filter], "pf.pat") == reference, "mine {filter} differs from gSpan's");
    }
}

/// `shard-plan` builds no partition units any more: the flags that sized
/// and placed them are refused by name, before a file is opened.
#[test]
fn shard_plan_refuses_the_removed_unit_flags() {
    for flag in ["--k", "--policy", "--hub-threshold"] {
        let args = ["no-db.txt", "--shards", "2", "--minsup", "0.5", "-o", "no-dir", flag, "2"];
        let err = commands::shard_plan(&s(&args), &mut sink()).unwrap_err();
        assert!(err.starts_with(&format!("{flag} was removed")), "{err}");
        assert!(!err.contains("no-"), "{flag}: got as far as opening a file: {err}");
    }
    assert!(!std::path::Path::new("no-dir").exists());
}

/// More shards than graphs is a plan, not an error: the extra shards own
/// nothing and hold only empty slots. Booted from the written files the
/// way `serve --shard-from` boots them, the fleet answers `patterns` and
/// `support` exactly like one process over the database.
#[test]
fn more_shards_than_graphs_plans_boots_and_answers_exactly() {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db.txt");
    std::fs::write(
        &db_path,
        "t # 0\nv 0 0\nv 1 1\nv 2 2\ne 0 1 5\ne 1 2 6\n\
         t # 1\nv 0 0\nv 1 1\ne 0 1 5\n\
         t # 2\nv 0 1\nv 1 2\ne 0 1 6\n",
    )
    .unwrap();
    let plan = dir.path().join("plan");
    let (db_s, plan_s) = (db_path.to_str().unwrap(), plan.to_str().unwrap());
    commands::shard_plan(
        &s(&[db_s, "--shards", "5", "--minsup", "0.5", "-o", plan_s]),
        &mut sink(),
    )
    .expect("shard-plan");

    let load = |path: &std::path::Path| read_db(BufReader::new(File::open(path).unwrap())).unwrap();
    let mut topo = ShardTopology::load(&plan.join("topology.json")).unwrap();
    assert_eq!(topo.n_shards(), 5);
    assert_eq!(topo.shards.iter().filter(|s| s.owned.is_empty()).count(), 2);
    let mut fleet = Vec::new();
    for spec in &mut topo.shards {
        let data = tempfile::tempdir().unwrap();
        let cfg = EngineConfig {
            min_support: topo.local_min_support,
            owned: Some(spec.owned.clone()),
            ..EngineConfig::default()
        };
        let (engine, _) = ServeEngine::boot(Some(&load(&plan.join(&spec.data))), data.path(), &cfg)
            .expect("boot a shard");
        let handle = start(Arc::new(engine), &ServerConfig::default()).unwrap();
        spec.replicas = vec![handle.addr().to_string()];
        fleet.push((data, handle));
    }
    let router = Router::new(topo, RouterConfig::default()).unwrap();

    let db = load(&db_path);
    let ref_dir = tempfile::tempdir().unwrap();
    let ref_cfg = EngineConfig { min_support: db.abs_support(0.5), ..EngineConfig::default() };
    let (reference, _) = ServeEngine::boot(Some(&db), ref_dir.path(), &ref_cfg).unwrap();
    let rows = |reply: &JsonValue| -> Vec<String> {
        let rows = reply.field("patterns").and_then(JsonValue::as_arr).unwrap();
        rows.iter()
            .map(|p| {
                format!(
                    "{} {}",
                    p.field("support").unwrap().to_json(),
                    p.field("code").unwrap().to_json()
                )
            })
            .collect()
    };
    let all = Request::Patterns { top: 1_000_000_000, min_support: None };
    let (got, want) = (router.handle(&all), reference.handle(&all));
    assert!(got.field("partial").is_none(), "{got:?}");
    assert_eq!(rows(&got), rows(&want));
    assert_eq!(rows(&want).len(), 2, "both edges are frequent, the path is not");
    for p in reference.current().patterns.iter() {
        let support = router.support(&p.graph).field("support").and_then(JsonValue::as_num);
        assert_eq!(support, Some(u64::from(p.support)), "{:?}", p.code);
    }
}
