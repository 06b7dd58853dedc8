//! CLI coverage for the serving daemon: the `client` subcommand against
//! a live server, the fail-fast local error paths of `serve` and `client`
//! (bad files, bad codes, a bad thread budget) that must never touch the
//! network, and the `serve` binary across a restart.

use std::fs::File;
use std::io::{sink, BufRead, BufReader, BufWriter};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;

use graphmine_cli::commands;
use graphmine_datagen::{generate, plan_updates, GenParams, UpdateKind, UpdateParams};
use graphmine_graph::update_io;
use graphmine_serve::{start, EngineConfig, ServeEngine, ServerConfig};

fn s(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

#[test]
fn client_subcommand_round_trip() {
    let dir = tempfile::tempdir().unwrap();
    let db = generate(&GenParams::new(24, 6, 4, 4, 3).with_seed(11));
    let cfg = EngineConfig { min_support: db.abs_support(0.3), ..EngineConfig::default() };
    let (engine, _) = ServeEngine::boot(Some(&db), dir.path(), &cfg).unwrap();
    let handle = start(Arc::new(engine), &ServerConfig::default()).unwrap();
    let addr = handle.addr().to_string();

    commands::client(&s(&["--addr", &addr, "status", "--report"]), &mut sink()).expect("status");
    commands::client(&s(&["--addr", &addr, "patterns", "--top", "5"]), &mut sink())
        .expect("patterns");
    commands::client(&s(&["--addr", &addr, "support", "--code", "0 1 0 0 0"]), &mut sink())
        .expect("support");
    commands::client(&s(&["--addr", &addr, "raw", r#"{"cmd":"status"}"#]), &mut sink())
        .expect("raw");

    // An update batch goes through the same text file format as
    // `plan-updates` / `incremental`.
    let upd_path = dir.path().join("updates.txt");
    let ops = plan_updates(&db, &UpdateParams::new(0.25, 2, UpdateKind::Mixed, 4).with_seed(3));
    let f = File::create(&upd_path).unwrap();
    update_io::write_updates(BufWriter::new(f), &ops).unwrap();
    commands::client(&s(&["--addr", &addr, "update", upd_path.to_str().unwrap()]), &mut sink())
        .expect("update");

    // Server-side errors surface as CLI errors, not panics.
    assert!(commands::client(&s(&["--addr", &addr, "raw", "not json"]), &mut sink()).is_err());

    commands::client(&s(&["--addr", &addr, "shutdown"]), &mut sink()).expect("shutdown");
    handle.wait().unwrap();
}

#[test]
fn client_local_errors_fail_before_connecting() {
    // None of these may try the (dead) address: the failure is local.
    let addr = "127.0.0.1:1"; // reserved port, nothing listens here
    assert!(
        commands::client(&s(&["--addr", addr, "support"]), &mut sink()).is_err(),
        "missing --code"
    );
    let err = commands::client(&s(&["--addr", addr, "support", "--code", "0 1 0"]), &mut sink())
        .unwrap_err();
    assert!(err.contains("5-tuples"), "{err}");
    let err =
        commands::client(&s(&["--addr", addr, "support", "--code", "0 1 x 0 0"]), &mut sink())
            .unwrap_err();
    assert!(err.contains("invalid code token"), "{err}");
    assert!(
        commands::client(&s(&["--addr", addr, "update", "nonexistent.txt"]), &mut sink()).is_err()
    );
    assert!(
        commands::client(&s(&["--addr", addr, "warp"]), &mut sink()).is_err(),
        "unknown subcommand"
    );

    // A malformed updates file is rejected while parsing, with position.
    let dir = tempfile::tempdir().unwrap();
    let bad = dir.path().join("bad.txt");
    std::fs::write(&bad, "1 explode 1 2\n").unwrap();
    let err = commands::client(&s(&["--addr", addr, "update", bad.to_str().unwrap()]), &mut sink())
        .unwrap_err();
    assert!(err.contains("explode"), "{err}");
}

#[test]
fn serve_argument_errors() {
    assert!(
        commands::serve(&s(&["--minsup", "0.3"]), &mut sink()).is_err(),
        "missing database file"
    );
    assert!(commands::serve(&s(&["nonexistent.txt", "--minsup", "0.3"]), &mut sink()).is_err());
    assert!(commands::serve(&s(&["x.txt"]), &mut sink()).is_err(), "missing --minsup");
    // The daemon mines without units: `--k` is a flag `serve` does not
    // have, in either form, refused before any file is opened.
    let forms: [&[&str]; 2] = [
        &["x.txt", "--minsup", "0.3", "--k", "2"],
        &["--shard-from", "t.json", "--shard-id", "0", "--k", "2"],
    ];
    for args in forms {
        let err = commands::serve(&s(args), &mut sink()).unwrap_err();
        assert_eq!(err, "unexpected argument `--k`", "{args:?}");
    }
}

fn generate_db(path: &Path) {
    let path = path.to_str().unwrap();
    let gen =
        ["--d", "24", "--t", "6", "--n", "4", "--l", "4", "--i", "3", "--seed", "11", "-o", path];
    commands::generate(&s(&gen), &mut sink()).expect("generate");
}

/// The `graphmine` binary running `serve` with `args`, stdout and stderr
/// piped.
fn serve_bin(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_graphmine"));
    cmd.arg("serve").args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd
}

/// A thread budget past the cap is a usage error like under `mine` and
/// `incremental` — reported before the database is read or any thread
/// starts, in both serve modes.
#[test]
fn serve_reports_a_bad_thread_budget() {
    let dir = tempfile::tempdir().unwrap();
    let db = dir.path().join("db.txt");
    generate_db(&db);
    let plan = dir.path().join("plan");
    let (db_s, plan_s) = (db.to_str().unwrap(), plan.to_str().unwrap());
    commands::shard_plan(
        &s(&[db_s, "--shards", "2", "--minsup", "0.3", "-o", plan_s]),
        &mut sink(),
    )
    .expect("shard-plan");
    let topology = plan.join("topology.json");

    let cases: [&[&str]; 2] = [
        &[db_s, "--minsup", "0.3", "--threads", "5000"],
        &["--shard-from", topology.to_str().unwrap(), "--shard-id", "0", "--threads", "5000"],
    ];
    for args in cases {
        let out = serve_bin(args)
            .args(["--data-dir", dir.path().join("d").to_str().unwrap()])
            .output()
            .expect("run graphmine");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error: threads: thread budget 5000 exceeds the maximum of 1024"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!dir.path().join("d").exists(), "{args:?}: made its data directory");
    }
}

/// A restart says where the database came from, serves the same patterns,
/// and a clean stop leaves no mined result in the data directory.
#[test]
fn serve_restarts_from_its_snapshot() {
    let dir = tempfile::tempdir().unwrap();
    let db = dir.path().join("db.txt");
    generate_db(&db);
    let data = dir.path().join("d");
    let args = [db.to_str().unwrap(), "--minsup", "0.3", "--addr", "127.0.0.1:0", "--data-dir"];

    let mut booted = Vec::new();
    for _ in 0..2 {
        let mut child = serve_bin(&args).arg(&data).spawn().expect("start graphmine");
        let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
        booted.push(lines.next().expect("boot line").unwrap());
        let serving = lines.next().expect("serving line").unwrap();
        let addr = serving.strip_prefix("serving on ").expect(&serving);
        commands::client(&s(&["--addr", addr, "shutdown"]), &mut sink()).expect("shutdown");
        assert!(child.wait().unwrap().success());
    }
    assert!(booted[0].starts_with("booted epoch 0 from database file (0 journal"), "{}", booted[0]);
    assert!(booted[1].starts_with("booted epoch 0 from snapshot (0 journal"), "{}", booted[1]);
    // "…): N patterns at minsup M" is the same line end both times.
    let served = |i: usize| booted[i].split_once("): ").expect(&booted[i]).1;
    assert_eq!(served(0), served(1), "a restart changed the pattern count");

    let mut files: Vec<String> = std::fs::read_dir(&data)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, ["journal.wal", "meta.json", "snapshot.0.gs"]);
}
