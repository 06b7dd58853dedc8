//! CLI coverage for the serving daemon: the `client` subcommand against
//! a live server, and the fail-fast local error paths of `serve` and
//! `client` (bad files, bad codes) that must never touch the network.

use std::fs::File;
use std::io::{sink, BufWriter};
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
    let cfg = EngineConfig { min_support: db.abs_support(0.3), k: 2, ..EngineConfig::default() };
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
}
