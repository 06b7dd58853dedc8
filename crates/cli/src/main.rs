//! `graphmine` — command-line frontend for the PartMiner reproduction.

use std::io::{self, Write};
use std::process::exit;

use graphmine_cli::commands;

/// The process's stdout as the commands see it: one locked writer that
/// stops writing, quietly, once the reader has gone away.
///
/// `graphmine mine db --minsup 0.03 | head -2` closes the pipe while mining
/// is still running. That is not a failure of the command: the first
/// `BrokenPipe` drops that write and every later one, the command finishes
/// what else it was asked for (`-o`, `--report`) and the process exits 0
/// with nothing on stderr. Every other write error is passed through and
/// fails the command.
struct UntilClosed<W> {
    inner: W,
    closed: bool,
}

impl<W: Write> UntilClosed<W> {
    fn unless_closed<T>(
        &mut self,
        dropped: T,
        op: impl FnOnce(&mut W) -> io::Result<T>,
    ) -> io::Result<T> {
        if self.closed {
            return Ok(dropped);
        }
        match op(&mut self.inner) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(dropped)
            }
            other => other,
        }
    }
}

impl<W: Write> Write for UntilClosed<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.unless_closed(buf.len(), |w| w.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.unless_closed((), |w| w.flush())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = &mut UntilClosed { inner: io::stdout().lock(), closed: false };
    let rest = args.get(1..).unwrap_or_default();
    let code = match args.first().map(String::as_str) {
        Some("generate") => commands::generate(rest, stdout),
        Some("mine") => commands::mine(rest, stdout),
        Some("plan-updates") => commands::plan_updates_cmd(rest, stdout),
        Some("incremental") => commands::incremental(rest, stdout),
        Some("serve") => commands::serve(rest, stdout),
        Some("shard-plan") => commands::shard_plan(rest, stdout),
        Some("router") => commands::router(rest, stdout),
        Some("client") => commands::client(rest, stdout),
        Some("stats") => commands::stats(rest, stdout),
        Some("diff") => commands::diff(rest, stdout),
        Some("check") => commands::check(rest, stdout),
        Some("--help") | Some("-h") | None => {
            stdout.write_all(commands::USAGE.as_bytes()).map_err(|e| format!("stdout: {e}"))
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{}", commands::USAGE)),
    };
    if let Err(e) = code.and_then(|()| stdout.flush().map_err(|e| format!("stdout: {e}"))) {
        eprintln!("error: {e}");
        exit(2);
    }
}
