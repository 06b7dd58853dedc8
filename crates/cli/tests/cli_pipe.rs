//! The binary's stdout policy, at the binary surface: a reader that goes
//! away (`graphmine mine … | head -1`) is a clean stop, any other write
//! failure is the command's failure.

use std::io::{sink, BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Command, Stdio};

use graphmine_cli::commands;

fn s(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

fn generate_db(path: &Path) {
    let path = path.to_str().unwrap();
    commands::generate(
        &s(&[
            "--d", "40", "--t", "16", "--n", "2", "--l", "5", "--i", "8", "--seed", "3", "-o", path,
        ]),
        &mut sink(),
    )
    .expect("generate");
}

/// `mine` printing every pattern of a low-support run over a few labels.
fn mine(db: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_graphmine"));
    cmd.args(["mine", db.to_str().unwrap(), "--minsup", "0.05", "--algo", "gspan"]);
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd
}

#[test]
fn a_reader_that_goes_away_is_a_clean_stop() {
    let dir = tempfile::tempdir().unwrap();
    let db = dir.path().join("db.txt");
    generate_db(&db);

    // Read to the end once: the output must be larger than any pipe
    // buffer, or the second run could finish writing before its reader
    // leaves and prove nothing.
    let full = mine(&db).output().expect("run graphmine");
    assert!(full.status.success(), "{}", String::from_utf8_lossy(&full.stderr));
    assert!(full.stdout.len() > (256 << 10), "only {} bytes of patterns", full.stdout.len());

    // `| head -1`: take the header line, then close the pipe under a
    // writer that still has its patterns to print.
    let mut child = mine(&db).spawn().expect("start graphmine");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut header = String::new();
    stdout.read_line(&mut header).unwrap();
    assert!(header.contains("algorithm gspan"), "{header}");
    drop(stdout);

    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "exit {status}, stderr: {stderr}");
    assert_eq!(stderr, "", "a closed pipe is not an error");
}

#[cfg(target_os = "linux")]
#[test]
fn any_other_write_error_still_fails_the_command() {
    let dir = tempfile::tempdir().unwrap();
    let db = dir.path().join("db.txt");
    generate_db(&db);

    // Every write to /dev/full fails with ENOSPC.
    let full_disk = std::fs::OpenOptions::new().write(true).open("/dev/full").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_graphmine"))
        .args(["stats", db.to_str().unwrap()])
        .stdout(Stdio::from(full_disk))
        .stderr(Stdio::piped())
        .output()
        .expect("run graphmine");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: stdout: "), "{stderr}");
}
