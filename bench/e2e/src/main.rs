//! The perf ledger: four workloads over the three paths a user feels —
//! `mine` from file to pattern file, an update from send to the epoch
//! readers see, and a read from a client socket through router, shard and
//! engine and back — each decomposed by layer. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path bench/e2e/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! With `--workload` the named workload runs in this process and the last
//! line of standard output is the result object of the `BENCHMARK.json`
//! contract. Without it every workload runs in a child process of its
//! own, so that peak memory is per workload.

mod data;
mod env;
mod metrics;
mod mine;
mod replay;
mod router;
mod serving;
mod stats;
mod stream;
mod trace;

use std::process::{Command, ExitCode};

use metrics::Report;

pub const WORKLOADS: &[&str] = &["mine-deep", "mine-wide", "serve-stream", "router-read"];

/// A workload repeats its set-up so that `setup_s` is a median: at least
/// `SETUP_MIN` times, then on until the set-ups have taken `SETUP_SPEND_S`
/// together or `SETUP_MAX` have run (a fleet boots three times, a mine
/// input is drawn nine times).
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 9;
const SETUP_SPEND_S: f64 = 2.0;

/// Runs `one` as often as the rule above says and returns its last product
/// with the seconds each run took. A product is dropped before the next is
/// made, so two fleets never exist side by side.
pub fn repeated_setup<T>(mut one: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let _s = trace::span("bench.setup");
        let t = std::time::Instant::now();
        last = Some(one());
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_MIN && times.iter().sum::<f64>() >= SETUP_SPEND_S;
        if enough || times.len() >= SETUP_MAX {
            return (last.expect("set up at least once"), times);
        }
    }
}

/// The time-box every timed loop shares: stop once `min` operations are
/// done and one more of their average length would overrun `budget_s`.
pub fn out_of_time(spent_s: f64, done: usize, min: usize, budget_s: f64) -> bool {
    done >= min && spent_s + spent_s / done as f64 > budget_s
}

/// What one workload run is asked to do.
pub struct RunArgs {
    /// Every generated input derives from this.
    pub seed: u64,
    /// How long the timed phases measure, in seconds.
    pub seconds: f64,
    /// Record spans and run the layer replays.
    pub traced: bool,
}

struct Cli {
    workload: Option<String>,
    run: RunArgs,
}

fn parse_cli(raw: &[String]) -> Result<Cli, String> {
    let mut cli = Cli { workload: None, run: RunArgs { seed: 2006, seconds: 20.0, traced: false } };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` (one of {WORKLOADS:?})"));
                }
                cli.workload = Some(w);
            }
            "--seed" => {
                cli.run.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} outside (0, 60]"));
                }
                cli.run.seconds = s;
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                cli.run.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Runs one workload in this process and prints its result.
fn run_workload(name: &str, args: &RunArgs) -> bool {
    let mut report = Report::default();
    let overhead_ns = if args.traced {
        trace::enable();
        trace::calibrate_ns_per_span()
    } else {
        0.0
    };
    {
        let _root = trace::request("bench.run");
        match name {
            "mine-deep" => mine::run(&mine::DEEP, args, &mut report),
            "mine-wide" => mine::run(&mine::WIDE, args, &mut report),
            "serve-stream" => stream::run(args, &mut report),
            "router-read" => router::run(args, &mut report),
            other => unreachable!("workload `{other}` passed validation"),
        }
    }
    // The mine workloads run one process per iteration and have already
    // reported their largest child.
    if report.get("peak_rss_mb").is_none() {
        report.set("peak_rss_mb", env::peak_rss_mb());
    }
    if args.traced {
        report_trace(name, overhead_ns, &mut report);
    }

    println!("workload {name} seed {} seconds {} trace {}", args.seed, args.seconds, args.traced);
    print!("{}", report.human());
    println!("attempted {} failed {}", report.attempted, report.failed);
    let line = report.result_line(args.traced);
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }
    println!("{line}");
    report.correct()
}

/// Writes the span file and turns the spans into per-layer self times.
fn report_trace(workload: &str, overhead_ns: f64, report: &mut Report) {
    let spans = trace::drain();
    let root = spans.iter().find(|s| s.name == "bench.run").expect("the root span is recorded");
    let wall_ns = root.end_ns - root.start_ns;
    let mut by_layer = std::collections::BTreeMap::<&str, u64>::new();
    for (name, ns) in trace::self_times(&spans) {
        *by_layer.entry(trace::layer_of(name)).or_default() += ns;
    }
    for (layer, metric) in [
        ("graph", "graph.self_s"),
        ("partition", "partition.self_s"),
        ("miner", "miner.self_s"),
        ("core", "core.self_s"),
        ("exec", "exec.self_s"),
        ("storage", "storage.self_s"),
        ("serve", "serve.self_s"),
        ("router", "router.self_s"),
        ("telemetry", "telemetry.self_s"),
        ("bench", "trace.unattributed_s"),
    ] {
        report.set(metric, by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e9);
    }
    report.set("trace.wall_s", wall_ns as f64 / 1e9);
    report.set("trace.spans", spans.len() as f64);
    report.set("trace.overhead_pct", 100.0 * overhead_ns * spans.len() as f64 / wall_ns as f64);
    let attributed: u64 = by_layer.values().sum();
    report.check(attributed.abs_diff(wall_ns) <= wall_ns / 1000, || {
        format!("layer self times sum to {attributed} ns but the run took {wall_ns} ns")
    });

    let path = env::out_dir().join(format!("trace-{workload}.json"));
    match std::fs::write(&path, trace::to_json(&spans)) {
        Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => report.errors.push(format!("{}: {e}", path.display())),
    }
}

/// Runs every workload in a child process of its own.
fn run_all(args: &RunArgs) -> bool {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for w in WORKLOADS {
        for traced in [false, true] {
            if traced && !args.traced {
                continue;
            }
            let status = Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .status()
                .expect("start a workload child process");
            ok &= status.success();
        }
    }
    ok
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some(mine::ONCE_FLAG) {
        return match mine::once(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse_cli(&raw) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &cli.workload {
        Some(w) => run_workload(w, &cli.run),
        None => run_all(&cli.run),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_style_arguments_parse() {
        let c = cli(&["--workload", "mine-wide", "--seed", "7", "--seconds", "10", "--trace", "1"])
            .unwrap();
        assert_eq!(c.workload.as_deref(), Some("mine-wide"));
        assert_eq!((c.run.seed, c.run.seconds, c.run.traced), (7, 10.0, true));
        let c = cli(&["--trace", "0", "--workload", "router-read"]).unwrap();
        assert!(!c.run.traced);
        assert_eq!(c.run.seed, 2006);
    }

    #[test]
    fn a_bare_trace_flag_switches_tracing_on() {
        assert!(cli(&["--trace"]).unwrap().run.traced);
        let c = cli(&["--trace", "--seed", "3"]).unwrap();
        assert!(c.run.traced);
        assert_eq!(c.run.seed, 3);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }
}
