//! Subcommand implementations.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use graphmine_adimine::{AdiConfig, AdiMine};
use graphmine_core::{resolve_threads, IncPartMiner, PartMiner, PartMinerConfig, PartitionerKind};
use graphmine_datagen::{plan_updates, ufreq_from_updates, GenParams, UpdateKind, UpdateParams};
use graphmine_graph::{
    io as gio, pattern_io, update_io, Change, DbUpdate, DfsCode, DfsEdge, EmbeddingMode, GraphDb,
    PatternSet, Support,
};
use graphmine_miner::{
    closed_patterns, maximal_patterns, Apriori, Fsg, GSpan, Gaston, MemoryMiner,
};
use graphmine_partition::Criteria;
use graphmine_router::{plan_shards, PlanConfig, Router, RouterConfig, ShardTopology};
use graphmine_serve::{Client, EngineConfig, ServeEngine, ServerConfig};
use graphmine_telemetry::{RunReport, Telemetry};

/// Top-level usage text.
pub const USAGE: &str = "\
graphmine — partition-based (incremental) frequent subgraph mining

USAGE:
  graphmine generate --d N [--t 20] [--n 20] [--l 200] [--i 5] [--seed S] -o FILE
      Generate a synthetic database (paper Table 1 parameters) in gSpan
      text format.

  graphmine mine FILE --minsup FRAC [--algo ALGO] [--k K] [--threads T]
                 [--criteria 1|2|3|metis] [--max-edges M]
                 [--embedding-lists on|off|auto]
                 [--closed | --maximal] [-o PATTERNS] [--report REPORT]
      Mine frequent subgraphs. ALGO: partminer (default), gspan, gaston,
      apriori, fsg, adimine. FRAC is relative (0.04 = 4%). K (units,
      default 2) and M (edges per pattern) are at least 1.
      --threads T runs PartMiner on a pool of T workers: 1 (the default)
      runs inline, 0 uses every core. Every T writes the same patterns.
      The other algorithms mine inline and refuse --threads.
      --embedding-lists (--algo apriori only) controls the
      embedding-list store level-wise candidate counting keeps; `auto`
      (default) sizes its cache from the database, `off` always
      re-searches.
      --closed/--maximal post-filter to closed or maximal patterns.
      --report writes a machine-readable run report (stage wall times,
      pipeline counters, span log) as JSON.

  graphmine plan-updates FILE --fraction FRAC [--kind mixed|relabel|add|churn]
                 [--per-graph 2] [--seed S] -o UPDATES
      Plan an update workload against a database.

  graphmine incremental FILE UPDATES --minsup FRAC [--k K] [--threads T]
                 [--criteria 1|2|3|metis] [--report REPORT]
      Mine, apply the updates incrementally, and report the UF/FI/IF
      pattern classes, listing up to ten IF and ten FI patterns in
      DFS-code order. --threads T mines and re-mines touched units on a
      pool of T workers (1, the default, runs inline; 0 uses every core).
      --report writes the incremental round's run report as JSON.

  graphmine serve FILE --minsup FRAC [--data-dir DIR] [--addr 127.0.0.1:7878]
                 [--workers W] [--queue-depth Q] [--threads T]
                 [--ingest-capacity N] [--window N]
      Run the resident pattern-serving daemon on FILE. Mines at boot,
      keeps P(D) warm, and answers queries over a newline-delimited JSON
      protocol while `update` windows stream in (coalesced, then
      group-committed to the journal; one fsync barrier covers concurrent
      windows). Boot and every window mine with one walk over the whole
      database at minsup; --threads T fans each walk out over a pool of T
      workers (1, the default, walks inline; 0 uses every core).
      --ingest-capacity bounds the acked-but-unapplied windows (the
      staleness bound, default 8) — beyond it updates are shed with a
      `backpressure` reply. --window N serves the sliding-window result:
      only the newest N update windows stay live; older ones are expired
      by a journaled inverse batch (see docs/SERVICE.md). --data-dir holds
      the snapshot, journal and meta (default: FILE + \".serve\"); on
      restart the snapshot pins minsup, the journal is applied to it, and
      the result is mined once.

  graphmine shard-plan FILE --shards N --minsup FRAC [--replicas R]
                 [--host H] [--base-port P] -o DIR
      Split FILE into a serving fleet plan: DIR/topology.json plus one
      DIR/shard-<i>.txt database per shard. Each graph gets a unique
      owner shard, balanced by edge load; a shard database holds only
      its owned graphs (the other gids stay as empty slots, so gids
      line up), which keeps gathered counts exact, and shards mine at
      the pigeonhole bound ceil(s/N) so no globally frequent pattern
      can hide. See docs/SHARDING.md.

  graphmine serve --shard-from TOPOLOGY --shard-id I [--replica R]
                 [--data-dir DIR] [--workers W] [--queue-depth Q]
                 [--threads T]
      Boot one shard (replica R, default 0) of a planned fleet: loads
      the shard database next to TOPOLOGY, mines its owned graphs at the
      topology's local_min_support, and binds
      the replica address from the file. --data-dir defaults to
      TOPOLOGY's directory + \"/shard-I-rR.serve\".

  graphmine router TOPOLOGY [--cache-budget BYTES]
      Run the scatter/gather front end at the topology's router_addr.
      Speaks the same NDJSON protocol as a shard; fans `patterns`,
      `support` and `status` out to every shard, routes `update`
      windows to owner shards under a three-phase epoch swap, hedges
      reads across replicas, and tags degraded answers with
      \"partial\":1 when a shard is down. Exact read answers are cached
      per committed epoch under a byte budget (--cache-budget, default
      16 MiB; 0 disables caching).

  graphmine client [--addr 127.0.0.1:7878 | --via-router TOPOLOGY] COMMAND
      Talk to a running daemon. COMMAND is one of:
        status [--report]                    server and counter snapshot
        patterns [--top K] [--min-support S] top patterns by support
        support --code \"f t fl el tl ...\"    support of one DFS code
        update UPDATES_FILE                  apply a planned update batch
        shutdown                             stop the daemon cleanly
        raw JSON_LINE                        send one raw request line
      Prints the server's JSON response. --via-router reads the target
      address from a topology file and talks to the router instead of a
      single daemon.

  graphmine stats FILE
      Print database statistics (sizes, labels, connectivity).

  graphmine diff PATTERNS_A PATTERNS_B
      Compare two pattern files written by `mine -o`: support changes
      (~), then codes only in A (-), then codes only in B (+), each in
      DFS-code order. A file that names a code twice is refused.

  graphmine check [--seed 42] [--cases 100] [--quick] [--out-dir DIR]
                 [--threads T] [--replay FILE]
      Run the differential correctness oracle: seeded adversarial
      databases are mined with every engine (PartMiner across k ×
      serial/parallel, gSpan, Gaston, Apriori with and without lists,
      brute-force enumeration) and the results cross-checked, together
      with internal invariants, incremental UF/FI/IF consistency and the
      serving daemon's epoch behaviour. Each failure writes a
      self-contained repro file into --out-dir (default: oracle-repros);
      --replay re-runs one repro file. --threads T sizes the shared pool
      the parallel legs run on (0, the default, uses every core). See
      docs/CORRECTNESS.md.
";

type CmdResult = Result<(), String>;

/// Prints one line of a command's output. Every command writes to the
/// writer it is handed — the binary passes its one locked stdout, which
/// knows what a vanished reader means (`main.rs`); a write that fails
/// here is the command's failure.
macro_rules! say {
    ($stdout:expr, $($arg:tt)*) => {
        writeln!($stdout, $($arg)*).map_err(|e| format!("stdout: {e}"))?
    };
}

/// Simple flag-style argument cursor.
struct Args<'a> {
    items: &'a [String],
    used: Vec<bool>,
}

impl<'a> Args<'a> {
    fn new(items: &'a [String]) -> Self {
        Args { items, used: vec![false; items.len()] }
    }

    fn flag(&mut self, name: &str) -> bool {
        for (i, a) in self.items.iter().enumerate() {
            if !self.used[i] && a == name {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    fn value(&mut self, name: &str) -> Option<&'a str> {
        for (i, a) in self.items.iter().enumerate() {
            if !self.used[i] && a == name && i + 1 < self.items.len() && !self.used[i + 1] {
                self.used[i] = true;
                self.used[i + 1] = true;
                return Some(&self.items[i + 1]);
            }
        }
        None
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("invalid value `{v}` for {name}")),
        }
    }

    fn require<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, String> {
        self.parsed(name)?.ok_or_else(|| format!("missing required {name}"))
    }

    /// Positional (non-flag) arguments, in order. Called once the command
    /// has taken its flags, so a `--…` token still unused is a flag the
    /// command does not have — misspelt, or missing its value — and an
    /// error rather than something to skip.
    fn positionals(&mut self) -> Result<Vec<&'a str>, String> {
        let mut out = Vec::new();
        for (i, a) in self.items.iter().enumerate() {
            if self.used[i] || a == "-o" {
                continue;
            }
            if a.starts_with("--") {
                return Err(format!("unexpected argument `{a}`"));
            }
            self.used[i] = true;
            out.push(a.as_str());
        }
        Ok(out)
    }
}

fn load_db(path: &str) -> Result<GraphDb, String> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    gio::read_db(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

/// Parses `--threads` (`default` when absent) and resolves it, so a value
/// past the cap fails before anything is loaded instead of panicking
/// mid-run. `1` runs inline, `n` runs `n` workers, `0` uses every core.
fn threads_arg(args: &mut Args<'_>, default: usize) -> Result<usize, String> {
    let threads = args.parsed("--threads")?.unwrap_or(default);
    resolve_threads(threads).map_err(|e| format!("threads: {e}"))?;
    Ok(threads)
}

/// Refuses `--parallel` by name: `--threads` alone sets the pool.
fn refuse_parallel(raw: &[String]) -> CmdResult {
    if raw.iter().any(|a| a == "--parallel") {
        return Err("--parallel was removed: --threads T alone sets the pool (1, the default, \
                    runs inline; 0 uses every core)"
            .into());
    }
    Ok(())
}

/// Parses the required `--minsup`, a fraction of the database's graphs in
/// (0, 1]. Zero, a negative value and `nan` would all clamp to a threshold
/// of one graph ([`GraphDb::abs_support`]) — every subgraph of every graph
/// is frequent then, and the run ends when memory does — and a value above
/// 1 asks for more graphs than there are; each fails here, before anything
/// is loaded.
fn minsup_arg(args: &mut Args<'_>) -> Result<f64, String> {
    let minsup: f64 = args.require("--minsup")?;
    if minsup > 0.0 && minsup <= 1.0 {
        Ok(minsup)
    } else {
        Err(format!("--minsup {minsup} is not a fraction of the database in (0, 1]"))
    }
}

/// Parses an optional count of units or edges, refusing 0 before anything
/// is loaded: a partition has at least one unit and a pattern at least one
/// edge, and the miners below assume both.
fn at_least_one(args: &mut Args<'_>, name: &str, what: &str) -> Result<Option<usize>, String> {
    match args.parsed(name)? {
        Some(0) => Err(format!("{name} 0: {what}")),
        n => Ok(n),
    }
}

fn criteria_arg(args: &mut Args<'_>) -> Result<PartitionerKind, String> {
    Ok(match args.value("--criteria") {
        None | Some("3") => PartitionerKind::GraphPart(Criteria::COMBINED),
        Some("1") => PartitionerKind::GraphPart(Criteria::ISOLATE_UPDATES),
        Some("2") => PartitionerKind::GraphPart(Criteria::MIN_CONNECTIVITY),
        Some("metis") => PartitionerKind::Metis,
        Some(other) => return Err(format!("unknown criteria `{other}` (1, 2, 3 or metis)")),
    })
}

/// `graphmine generate`
pub fn generate(raw: &[String], stdout: &mut dyn Write) -> CmdResult {
    let mut args = Args::new(raw);
    let d: usize = args.require("--d")?;
    let t: usize = args.parsed("--t")?.unwrap_or(20);
    let n: u32 = args.parsed("--n")?.unwrap_or(20);
    let l: usize = args.parsed("--l")?.unwrap_or(200);
    let i: usize = args.parsed("--i")?.unwrap_or(5);
    let seed: Option<u64> = args.parsed("--seed")?;
    let out: String = args.require("-o")?;

    let mut params = GenParams::new(d, t, n, l, i);
    if let Some(s) = seed {
        params = params.with_seed(s);
    }
    let db = generate_db(&params);
    let file = File::create(&out).map_err(|e| format!("{out}: {e}"))?;
    gio::write_db(BufWriter::new(file), &db).map_err(|e| e.to_string())?;
    say!(
        stdout,
        "wrote {} ({} graphs, {} edges) to {out}",
        params.name(),
        db.len(),
        db.total_edges()
    );
    Ok(())
}

fn generate_db(params: &GenParams) -> GraphDb {
    graphmine_datagen::generate(params)
}

fn print_patterns(patterns: &PatternSet, out: Option<&str>, stdout: &mut dyn Write) -> CmdResult {
    match out {
        Some(path) => {
            // Machine-readable pattern format (re-loadable by `diff`).
            let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
            pattern_io::write_patterns(BufWriter::new(f), patterns).map_err(|e| e.to_string())?;
            say!(stdout, "{} patterns written to {path}", patterns.len());
        }
        None => {
            let mut sorted: Vec<_> = patterns.iter().collect();
            sorted.sort_by(|a, b| b.support.cmp(&a.support).then_with(|| a.code.cmp(&b.code)));
            for p in &sorted {
                say!(stdout, "support {:>6}  size {:>2}  {}", p.support, p.size(), p.code);
            }
        }
    }
    Ok(())
}

/// `graphmine stats`
pub fn stats(raw: &[String], stdout: &mut dyn Write) -> CmdResult {
    let mut args = Args::new(raw);
    let pos = args.positionals()?;
    let [path] = pos.as_slice() else {
        return Err("stats needs exactly one database file".into());
    };
    let db = load_db(path)?;
    let n = db.len();
    if n == 0 {
        say!(stdout, "{path}: empty database");
        return Ok(());
    }
    let mut edges = Vec::with_capacity(n);
    let mut vertices = Vec::with_capacity(n);
    let mut vlabels = std::collections::BTreeSet::new();
    let mut elabels = std::collections::BTreeSet::new();
    let mut max_degree = 0usize;
    let mut connected = 0usize;
    for (_, g) in db.iter() {
        edges.push(g.edge_count());
        vertices.push(g.vertex_count());
        for v in 0..g.vertex_count() as u32 {
            vlabels.insert(g.vlabel(v));
            max_degree = max_degree.max(g.degree(v));
        }
        for (_, _, _, el) in g.edges() {
            elabels.insert(el);
        }
        if g.is_connected() {
            connected += 1;
        }
    }
    edges.sort_unstable();
    vertices.sort_unstable();
    let sum_e: usize = edges.iter().sum();
    let sum_v: usize = vertices.iter().sum();
    say!(stdout, "{path}: {n} graphs");
    say!(
        stdout,
        "  edges    total {sum_e}  avg {:.1}  median {}  max {}",
        sum_e as f64 / n as f64,
        edges[n / 2],
        edges.last().copied().unwrap_or(0)
    );
    say!(
        stdout,
        "  vertices total {sum_v}  avg {:.1}  median {}  max {}",
        sum_v as f64 / n as f64,
        vertices[n / 2],
        vertices.last().copied().unwrap_or(0)
    );
    say!(stdout, "  labels   {} vertex, {} edge", vlabels.len(), elabels.len());
    say!(stdout, "  max degree {max_degree}  connected graphs {connected}/{n}");
    Ok(())
}

/// `graphmine diff`
pub fn diff(raw: &[String], stdout: &mut dyn Write) -> CmdResult {
    let mut args = Args::new(raw);
    let pos = args.positionals()?;
    let [a_path, b_path] = pos.as_slice() else {
        return Err("diff needs exactly two pattern files".into());
    };
    let load = |path: &str| -> Result<PatternSet, String> {
        let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        pattern_io::read_patterns(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    let (mut changed, mut only_a, mut only_b) = (Vec::new(), Vec::new(), Vec::new());
    for change in a.changes_to(&b) {
        match change {
            Change::Unchanged(p, q) if p.support != q.support => changed.push((p, q.support)),
            Change::Unchanged(..) => {}
            Change::Lost(p) => only_a.push(p),
            Change::Gained(p) => only_b.push(p),
        }
    }
    for (p, sb) in &changed {
        say!(stdout, "~ support {} -> {}  {}", p.support, sb, p.code);
    }
    for p in &only_a {
        say!(stdout, "- support {:>6}  {}", p.support, p.code);
    }
    for p in &only_b {
        say!(stdout, "+ support {:>6}  {}", p.support, p.code);
    }
    say!(
        stdout,
        "{}: {} patterns | {}: {} patterns | only in {}: {} | only in {}: {} | support changed: {}",
        a_path,
        a.len(),
        b_path,
        b.len(),
        a_path,
        only_a.len(),
        b_path,
        only_b.len(),
        changed.len()
    );
    Ok(())
}

/// `graphmine mine`
pub fn mine(raw: &[String], stdout: &mut dyn Write) -> CmdResult {
    if raw.iter().any(|a| a == "--unit-miner") {
        return Err("--unit-miner was removed: every unit is mined with the projected walk \
                    gSpan runs (--algo gaston still mines the whole database with Gaston)"
            .into());
    }
    refuse_parallel(raw)?;
    let mut args = Args::new(raw);
    let minsup = minsup_arg(&mut args)?;
    let algo = args.value("--algo").unwrap_or("partminer").to_string();
    if algo != "partminer" && raw.iter().any(|a| a == "--threads") {
        return Err(format!(
            "--threads sizes PartMiner's pool: --algo {algo} mines inline and does not read it"
        ));
    }
    let k = at_least_one(&mut args, "--k", "PartMiner needs at least one unit")?.unwrap_or(2);
    let threads = threads_arg(&mut args, 1)?;
    let partitioner = criteria_arg(&mut args)?;
    let max_edges = at_least_one(&mut args, "--max-edges", "a pattern has at least one edge")?;
    let embedding_lists: EmbeddingMode = args.parsed("--embedding-lists")?.unwrap_or_default();
    let closed = args.flag("--closed");
    let maximal = args.flag("--maximal");
    if closed && maximal {
        return Err("--closed and --maximal are mutually exclusive".into());
    }
    let out: Option<String> = args.parsed("-o")?;
    let report_path: Option<String> = args.parsed("--report")?;
    let pos = args.positionals()?;
    let [path] = pos.as_slice() else {
        return Err("mine needs exactly one database file".into());
    };

    let db = load_db(path)?;
    let sup = db.abs_support(minsup);
    say!(
        stdout,
        "{}: {} graphs, minsup {:.2}% => {sup} graphs, algorithm {algo}",
        path,
        db.len(),
        minsup * 100.0
    );
    let tel = Telemetry::new();
    let t = Instant::now();
    let patterns = match algo.as_str() {
        "gspan" => {
            let _span = tel.span("mine");
            GSpan { max_edges }.mine_counted(&db, sup, tel.counters())
        }
        "gaston" => {
            let _span = tel.span("mine");
            Gaston { max_edges }.mine_counted(&db, sup, tel.counters())
        }
        "apriori" => {
            let _span = tel.span("mine");
            Apriori { max_edges, embedding_lists }.mine_counted(&db, sup, tel.counters())
        }
        "fsg" => {
            let _span = tel.span("mine");
            Fsg { max_edges }.mine_counted(&db, sup, tel.counters())
        }
        "adimine" => {
            let dir = std::env::temp_dir().join(format!("graphmine-cli-{}", std::process::id()));
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let adi = {
                let _span = tel.span("build_index");
                AdiMine::build(&dir, &db, AdiConfig::default()).map_err(|e| e.to_string())?
            };
            let res = {
                let _span = tel.span("mine");
                adi.mine(sup, max_edges, tel.counters()).map_err(|e| e.to_string())?
            };
            std::fs::remove_dir_all(&dir).ok();
            res
        }
        "partminer" => {
            let cfg = PartMinerConfig {
                k,
                partitioner,
                threads,
                max_edges,
                ..PartMinerConfig::default()
            };
            let outcome = PartMiner::new(cfg).mine_instrumented(&db, &[], sup, &tel);
            let (stats, merge) = (&outcome.stats, outcome.stats.merge);
            say!(
                stdout,
                "  partition {:.1?} | units {:.1?} | merge {:.1?} ({} candidates, {} counted, {} shortcut)",
                stats.partition_time,
                stats.unit_times,
                stats.merge_time,
                merge.extensions,
                merge.frequent + merge.infrequent,
                merge.shortcut,
            );
            outcome.patterns
        }
        other => return Err(format!("unknown algorithm `{other}`")),
    };
    say!(stdout, "{} frequent subgraphs in {:.1?}", patterns.len(), t.elapsed());
    if let Some(rp) = &report_path {
        let report = RunReport::capture(&algo, &tel);
        std::fs::write(rp, report.to_json()).map_err(|e| format!("{rp}: {e}"))?;
        say!(stdout, "run report written to {rp}");
    }
    let patterns = if closed {
        let c = closed_patterns(&patterns);
        say!(stdout, "{} closed patterns", c.len());
        c
    } else if maximal {
        let m = maximal_patterns(&patterns);
        say!(stdout, "{} maximal patterns", m.len());
        m
    } else {
        patterns
    };
    print_patterns(&patterns, out.as_deref(), stdout)
}

/// `graphmine plan-updates`
pub fn plan_updates_cmd(raw: &[String], stdout: &mut dyn Write) -> CmdResult {
    let mut args = Args::new(raw);
    let fraction: f64 = args.require("--fraction")?;
    let kind = match args.value("--kind") {
        None | Some("mixed") => UpdateKind::Mixed,
        Some("relabel") => UpdateKind::Relabel,
        Some("add") => UpdateKind::AddStructure,
        Some("churn") => UpdateKind::Churn,
        Some(other) => return Err(format!("unknown update kind `{other}`")),
    };
    let per_graph: usize = args.parsed("--per-graph")?.unwrap_or(2);
    let seed: Option<u64> = args.parsed("--seed")?;
    let out: String = args.require("-o")?;
    let pos = args.positionals()?;
    let [path] = pos.as_slice() else {
        return Err("plan-updates needs exactly one database file".into());
    };

    let db = load_db(path)?;
    // Label alphabet: reuse the largest label seen plus one.
    let n = db.iter().flat_map(|(_, g)| g.vlabels().iter().copied()).max().unwrap_or(0) + 1;
    let mut params = UpdateParams::new(fraction, per_graph, kind, n);
    if let Some(s) = seed {
        params = params.with_seed(s);
    }
    let plan = plan_updates(&db, &params);
    let file = File::create(&out).map_err(|e| format!("{out}: {e}"))?;
    update_io::write_updates(BufWriter::new(file), &plan).map_err(|e| e.to_string())?;
    say!(
        stdout,
        "planned {} updates over {:.0}% of {} graphs -> {out}",
        plan.len(),
        fraction * 100.0,
        db.len()
    );
    Ok(())
}

/// `graphmine serve`
pub fn serve(raw: &[String], stdout: &mut dyn Write) -> CmdResult {
    if raw.iter().any(|a| a == "--no-coalesce") {
        return Err("--no-coalesce was removed: every update window is coalesced before it is \
                    validated (the oracle's coalesce-equivalence check proves a coalesced \
                    window lands on the database the raw one does)"
            .into());
    }
    refuse_parallel(raw)?;
    let mut args = Args::new(raw);
    let shard_from: Option<String> = args.parsed("--shard-from")?;
    let threads = threads_arg(&mut args, 1)?;
    let ingest_capacity: Option<usize> = args.parsed("--ingest-capacity")?;
    let window: Option<usize> = args.parsed("--window")?;
    let data_dir: Option<String> = args.parsed("--data-dir")?;
    let workers: Option<usize> = args.parsed("--workers")?;
    let queue_depth: Option<usize> = args.parsed("--queue-depth")?;

    // Resolve what to serve: a standalone database, or one shard replica
    // of a planned fleet (addresses and thresholds come from the
    // topology file then).
    let (db, addr, dir, mut cfg) = if let Some(topo_path) = shard_from {
        let shard_id: usize = args.require("--shard-id")?;
        let replica: usize = args.parsed("--replica")?.unwrap_or(0);
        if !args.positionals()?.is_empty() {
            return Err("serve --shard-from takes its database from the topology".into());
        }
        let topo = ShardTopology::load(Path::new(&topo_path))?;
        let spec = topo.shards.get(shard_id).ok_or_else(|| {
            format!("topology has {} shards, no shard {shard_id}", topo.n_shards())
        })?;
        let addr = spec.replicas.get(replica).cloned().ok_or_else(|| {
            format!("shard {shard_id} has {} replicas, no replica {replica}", spec.replicas.len())
        })?;
        let topo_dir = Path::new(&topo_path).parent().unwrap_or(Path::new(".")).to_path_buf();
        let db_path = topo_dir.join(&spec.data);
        let db = load_db(&db_path.display().to_string())?;
        if db.len() != topo.n_graphs {
            return Err(format!(
                "{}: {} graphs but the topology plans {} (shard dbs are gid-aligned)",
                db_path.display(),
                db.len(),
                topo.n_graphs
            ));
        }
        let dir = data_dir.unwrap_or_else(|| {
            topo_dir.join(format!("shard-{shard_id}-r{replica}.serve")).display().to_string()
        });
        let cfg = EngineConfig {
            min_support: topo.local_min_support,
            threads,
            owned: Some(spec.owned.clone()),
            ..EngineConfig::default()
        };
        say!(
            stdout,
            "shard {shard_id} replica {replica}: {} owned graphs, local minsup {}",
            spec.owned.len(),
            topo.local_min_support
        );
        (db, addr, dir, cfg)
    } else {
        let minsup = minsup_arg(&mut args)?;
        let addr = args.value("--addr").unwrap_or("127.0.0.1:7878").to_string();
        let pos = args.positionals()?;
        let [path] = pos.as_slice() else {
            return Err("serve needs exactly one database file".into());
        };
        let db = load_db(path)?;
        let dir = data_dir.unwrap_or_else(|| format!("{path}.serve"));
        let cfg = EngineConfig {
            min_support: db.abs_support(minsup),
            threads,
            ..EngineConfig::default()
        };
        (db, addr, dir, cfg)
    };

    let mut server_cfg = ServerConfig { addr, ..ServerConfig::default() };
    if let Some(w) = workers {
        server_cfg.workers = w;
    }
    if let Some(q) = queue_depth {
        server_cfg.queue_depth = q;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
    if let Some(cap) = ingest_capacity {
        cfg.max_pending = cap;
    }
    if let Some(n) = window {
        if n == 0 {
            return Err("--window must be at least 1".into());
        }
        cfg.window = Some(n);
    }
    let (engine, boot) = ServeEngine::boot(Some(&db), Path::new(&dir), &cfg)?;
    say!(
        stdout,
        "booted epoch {} from {} ({} journal batches replayed): {} patterns at minsup {}",
        boot.epoch,
        if boot.from_snapshot { "snapshot" } else { "database file" },
        boot.replayed,
        engine.current().patterns.len(),
        engine.min_support(),
    );
    let handle = graphmine_serve::start(Arc::new(engine), &server_cfg)?;
    say!(stdout, "serving on {}", handle.addr());
    handle.wait()
}

/// `graphmine shard-plan`
pub fn shard_plan(raw: &[String], stdout: &mut dyn Write) -> CmdResult {
    if let Some(flag) =
        raw.iter().find(|a| ["--k", "--policy", "--hub-threshold"].contains(&a.as_str()))
    {
        return Err(format!(
            "{flag} was removed: shard-plan builds no partition units, it gives each graph \
             one owner shard by edge load"
        ));
    }
    let mut args = Args::new(raw);
    let n_shards: usize = args.require("--shards")?;
    let minsup = minsup_arg(&mut args)?;
    let replicas: usize = args.parsed("--replicas")?.unwrap_or(1);
    let host = args.value("--host").unwrap_or("127.0.0.1").to_string();
    let base_port: u16 = args.parsed("--base-port")?.unwrap_or(7870);
    let out: String = args.require("-o")?;
    let pos = args.positionals()?;
    let [path] = pos.as_slice() else {
        return Err("shard-plan needs exactly one database file".into());
    };

    let db = load_db(path)?;
    let cfg = PlanConfig {
        n_shards,
        replicas,
        min_support: db.abs_support(minsup),
        host,
        base_port,
        ..PlanConfig::default()
    };
    let plan = plan_shards(&db, &cfg)?;

    let dir = Path::new(&out);
    std::fs::create_dir_all(dir).map_err(|e| format!("{out}: {e}"))?;
    for (s, sdb) in plan.shard_dbs.iter().enumerate() {
        let p = dir.join(&plan.topology.shards[s].data);
        let f = File::create(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        gio::write_db(BufWriter::new(f), sdb).map_err(|e| e.to_string())?;
    }
    let topo_path = dir.join("topology.json");
    plan.topology.save(&topo_path)?;
    say!(
        stdout,
        "planned {} shards x {} replicas: router at {}, global minsup {} -> local {}",
        n_shards,
        cfg.replicas,
        plan.topology.router_addr,
        plan.topology.min_support,
        plan.topology.local_min_support
    );
    for s in &plan.topology.shards {
        say!(
            stdout,
            "  shard {}: {} owned graphs, replicas {:?} ({})",
            s.id,
            s.owned.len(),
            s.replicas,
            s.data
        );
    }
    say!(stdout, "topology written to {}", topo_path.display());
    Ok(())
}

/// `graphmine router`
pub fn router(raw: &[String], stdout: &mut dyn Write) -> CmdResult {
    let mut args = Args::new(raw);
    let cache_budget: Option<usize> = args.parsed("--cache-budget")?;
    let pos = args.positionals()?;
    let [topo_path] = pos.as_slice() else {
        return Err("router needs exactly one topology file".into());
    };
    let topo = ShardTopology::load(Path::new(topo_path))?;
    let addr = topo.router_addr.clone();
    let n = topo.n_shards();
    let mut cfg = RouterConfig::default();
    if let Some(budget) = cache_budget {
        cfg.cache_budget = budget;
    }
    let router = Router::new(topo, cfg)?;
    let handle = graphmine_router::start(Arc::new(router), &addr)?;
    say!(stdout, "routing {n} shards, serving on {}", handle.addr());
    handle.wait()
}

/// What a `client` invocation will send, resolved from local arguments
/// *before* connecting so file and syntax errors fail fast.
enum ClientCmd {
    Status { report: bool },
    Patterns { top: Option<usize>, min_support: Option<Support> },
    Support(DfsCode),
    Update(Vec<DbUpdate>),
    Shutdown,
    Raw(String),
}

/// Parses a whitespace-separated DFS code: 5-tuples of
/// `from to from_label edge_label to_label`.
fn parse_code(text: &str) -> Result<DfsCode, String> {
    let nums: Vec<u32> = text
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| format!("invalid code token `{t}`")))
        .collect::<Result<_, _>>()?;
    if nums.is_empty() || nums.len() % 5 != 0 {
        return Err(
            "--code needs whitespace-separated 5-tuples: from to from_label edge_label to_label"
                .into(),
        );
    }
    Ok(DfsCode(nums.chunks(5).map(|c| DfsEdge::new(c[0], c[1], c[2], c[3], c[4])).collect()))
}

/// `graphmine client`
pub fn client(raw: &[String], stdout: &mut dyn Write) -> CmdResult {
    let mut args = Args::new(raw);
    let via_router: Option<String> = args.parsed("--via-router")?;
    let addr = match via_router {
        Some(topo_path) => ShardTopology::load(Path::new(&topo_path))?.router_addr,
        None => args.value("--addr").unwrap_or("127.0.0.1:7878").to_string(),
    };
    let report = args.flag("--report");
    let top: Option<usize> = args.parsed("--top")?;
    let min_support: Option<Support> = args.parsed("--min-support")?;
    let code_arg = args.value("--code").map(str::to_string);
    let pos = args.positionals()?;
    let cmd =
        match pos.as_slice() {
            ["status"] => ClientCmd::Status { report },
            ["patterns"] => ClientCmd::Patterns { top, min_support },
            ["support"] => {
                let text = code_arg
                    .ok_or_else(|| "support needs --code \"f t fl el tl ...\"".to_string())?;
                ClientCmd::Support(parse_code(&text)?)
            }
            ["update", file] => {
                let f = File::open(file).map_err(|e| format!("{file}: {e}"))?;
                let ops = update_io::read_updates(BufReader::new(f))
                    .map_err(|e| format!("{file}: {e}"))?;
                ClientCmd::Update(ops)
            }
            ["shutdown"] => ClientCmd::Shutdown,
            ["raw", line] => ClientCmd::Raw((*line).to_string()),
            _ => return Err(
                "client needs one of: status, patterns, support, update FILE, shutdown, raw JSON"
                    .into(),
            ),
        };

    let mut client = Client::connect(addr.as_str())?;
    let resp = match cmd {
        ClientCmd::Status { report } => client.status(report)?,
        ClientCmd::Patterns { top, min_support } => client.patterns(top, min_support)?,
        ClientCmd::Support(code) => client.support(&code)?,
        ClientCmd::Update(ops) => client.update(&ops)?,
        ClientCmd::Shutdown => client.shutdown()?,
        ClientCmd::Raw(line) => client.request_line(&line)?,
    };
    say!(stdout, "{}", resp.to_json());
    Ok(())
}

/// `graphmine incremental`
pub fn incremental(raw: &[String], stdout: &mut dyn Write) -> CmdResult {
    let mut args = Args::new(raw);
    let minsup = minsup_arg(&mut args)?;
    let k = at_least_one(&mut args, "--k", "PartMiner needs at least one unit")?.unwrap_or(2);
    let threads = threads_arg(&mut args, 1)?;
    let partitioner = criteria_arg(&mut args)?;
    let report_path: Option<String> = args.parsed("--report")?;
    let pos = args.positionals()?;
    let [db_path, upd_path] = pos.as_slice() else {
        return Err("incremental needs a database file and an updates file".into());
    };

    let db = load_db(db_path)?;
    let upd_file = File::open(upd_path).map_err(|e| format!("{upd_path}: {e}"))?;
    let plan = update_io::read_updates(BufReader::new(upd_file))?;
    let ufreq = ufreq_from_updates(&db, &plan).map_err(|e| format!("{upd_path}: {e}"))?;
    let sup = db.abs_support(minsup);

    let cfg = PartMinerConfig { k, partitioner, threads, ..PartMinerConfig::default() };
    let t = Instant::now();
    let outcome = PartMiner::new(cfg).mine(&db, &ufreq, sup);
    say!(
        stdout,
        "initial mining: {} patterns in {:.1?} ({} units)",
        outcome.patterns.len(),
        t.elapsed(),
        k
    );
    let mut state = outcome.state;
    let tel = Telemetry::new();
    let t = Instant::now();
    let inc =
        IncPartMiner::update_instrumented(&mut state, &plan, &tel).map_err(|e| e.to_string())?;
    say!(
        stdout,
        "incremental round: {} updates in {:.1?} — re-mined {}/{} units",
        plan.len(),
        t.elapsed(),
        inc.stats.units_remined,
        state.partition.unit_count(),
    );
    say!(
        stdout,
        "UF (unchanged): {}\nIF (newly frequent): {}\nFI (now infrequent): {}",
        inc.uf.len(),
        inc.if_new.len(),
        inc.fi.len()
    );
    for p in inc.if_new.iter().take(10) {
        say!(stdout, "  IF support {:>5}  {}", p.support, p.code);
    }
    for p in inc.fi.iter().take(10) {
        say!(stdout, "  FI (was {:>5})  {}", p.support, p.code);
    }
    if let Some(rp) = &report_path {
        let report = RunReport::capture("incpartminer", &tel);
        std::fs::write(rp, report.to_json()).map_err(|e| format!("{rp}: {e}"))?;
        say!(stdout, "run report written to {rp}");
    }
    Ok(())
}

/// `graphmine check` — the differential correctness oracle.
pub fn check(raw: &[String], stdout: &mut dyn Write) -> CmdResult {
    let mut args = Args::new(raw);
    let threads = threads_arg(&mut args, 0)?;
    if let Some(path) = args.value("--replay") {
        let exec = graphmine_oracle::OracleConfig { threads, ..Default::default() }
            .executor()
            .map_err(|e| e.to_string())?;
        return match graphmine_oracle::replay_file(Path::new(path), &exec) {
            Ok(()) => {
                say!(stdout, "replay of {path}: every check passed");
                Ok(())
            }
            Err(f) => Err(format!("replay of {path} failed [{}]: {}", f.check, f.message)),
        };
    }

    let cfg = graphmine_oracle::OracleConfig {
        seed: args.parsed("--seed")?.unwrap_or(42),
        cases: args.parsed("--cases")?.unwrap_or(100),
        quick: args.flag("--quick"),
        out_dir: Some(args.value("--out-dir").unwrap_or("oracle-repros").into()),
        threads,
    };
    let t = Instant::now();
    let summary = graphmine_oracle::run(&cfg);
    if summary.ok() {
        say!(
            stdout,
            "oracle: {} cases clean in {:.1?} (seed {}{})",
            summary.cases,
            t.elapsed(),
            cfg.seed,
            if cfg.quick { ", quick" } else { "" }
        );
        return Ok(());
    }
    for f in &summary.failures {
        let repro =
            f.repro.as_ref().map(|p| format!(" (repro: {})", p.display())).unwrap_or_default();
        eprintln!("FAIL {} [{}]{repro}\n     {}", f.case_name, f.check, repro_first_line(f));
    }
    Err(format!(
        "oracle: {}/{} cases failed (seed {}) — repros in the configured --out-dir",
        summary.failures.len(),
        summary.cases,
        cfg.seed
    ))
}

fn repro_first_line(f: &graphmine_oracle::FailureRecord) -> &str {
    f.message.lines().next().unwrap_or("")
}
