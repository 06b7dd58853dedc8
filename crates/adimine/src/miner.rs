//! The disk-backed ADIMINE miner.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use rustc_hash::FxHashMap;

use graphmine_graph::dfscode::is_min;
use graphmine_graph::{
    DfsCode, DfsEdge, EdgeId, Graph, GraphDb, GraphId, Pattern, PatternSet, Support, VertexId,
};
use graphmine_storage::StorageError;
use graphmine_telemetry::{Counter, Counters};

use crate::graphstore::GraphStore;
use crate::index::AdiIndex;
use crate::pool::PoolStats;
use crate::postings::EdgePostings;

/// Resource knobs simulating the paper's memory-constrained machine.
#[derive(Debug, Clone, Copy)]
pub struct AdiConfig {
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
    /// Decoded-graph cache capacity in graphs.
    pub decoded_cache: usize,
    /// Simulated latency charged to every disk page read and write, which
    /// restores the cost of a genuine disk access that page caches make
    /// free. Zero disables the simulation; experiments reproducing the
    /// paper's disk-bound setting use a spinning-disk-scale value.
    pub io_latency: std::time::Duration,
}

impl Default for AdiConfig {
    fn default() -> Self {
        AdiConfig { pool_pages: 256, decoded_cache: 512, io_latency: std::time::Duration::ZERO }
    }
}

/// The ADIMINE baseline system: an on-disk graph store + ADI edge table +
/// disk-backed pattern-growth miner.
pub struct AdiMine {
    dir: PathBuf,
    config: AdiConfig,
    store: GraphStore,
    postings: EdgePostings,
    index: AdiIndex,
    generation: u64,
}

impl AdiMine {
    /// Builds the index and serializes `db` under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn build(dir: &Path, db: &GraphDb, config: AdiConfig) -> Result<Self, StorageError> {
        let (store, postings) = write_generation(dir, 0, db, &config)?;
        let index = AdiIndex::build(db);
        Ok(AdiMine { dir: dir.to_path_buf(), config, store, postings, index, generation: 0 })
    }

    /// Rebuilds the entire structure for an updated database — the cost
    /// ADIMINE pays on *every* update, per Section 2. The replaced
    /// generation's files are deleted once the new one is in place.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn rebuild(&mut self, db: &GraphDb) -> Result<(), StorageError> {
        // Rebuilding starts by scanning the existing structure — the ADI
        // paper's construction reads the database it is indexing.
        self.store.read_all()?;
        let old = self.generation;
        (self.store, self.postings) = write_generation(&self.dir, old + 1, db, &self.config)?;
        self.index = AdiIndex::build(db);
        self.generation = old + 1;
        for path in generation_files(&self.dir, old) {
            std::fs::remove_file(path)?;
        }
        Ok(())
    }

    /// I/O counters of the backing store.
    pub fn io_stats(&self) -> PoolStats {
        self.store.stats()
    }

    /// Resets the I/O counters.
    pub fn reset_io_stats(&self) {
        self.store.reset_stats()
    }

    /// Mines all frequent subgraphs at `min_support` (absolute count) of
    /// at most `max_edges` edges, tallying miner telemetry counters
    /// (extensions generated, support tests, patterns emitted) so baseline
    /// runs report the same statistics the PartMiner pipeline does.
    ///
    /// # Errors
    ///
    /// Propagates page faults from the store.
    pub fn mine(
        &self,
        min_support: Support,
        max_edges: Option<usize>,
        counters: &Counters,
    ) -> Result<PatternSet, StorageError> {
        let mut out = PatternSet::new();
        if min_support == 0 || self.store.is_empty() {
            return Ok(out);
        }
        let cache = Cache::new(&self.store, self.config.decoded_cache);

        // Frequent seed triples come from the memory-resident edge table;
        // their occurrence lists are read from the on-disk posting level of
        // the ADI structure (charged page I/O, but no whole-graph decodes).
        for ((lu, le, lv), _) in self.index.frequent_edges(min_support) {
            let embeddings: Vec<Embedding> = self
                .postings
                .read(lu, le, lv)?
                .into_iter()
                .map(|inst| Embedding {
                    gid: inst.gid,
                    map: vec![inst.u, inst.v],
                    edges: vec![inst.eid],
                })
                .collect();
            debug_assert!(embeddings.windows(2).all(|w| w[0].gid <= w[1].gid));
            let mut code = DfsCode(vec![DfsEdge::new(0, 1, lu, le, lv)]);
            self.grow(&cache, &mut code, &embeddings, min_support, max_edges, &mut out, counters)?;
        }
        counters.add(Counter::MinerPatterns, out.len() as u64);
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn grow(
        &self,
        cache: &Cache<'_>,
        code: &mut DfsCode,
        embeddings: &[Embedding],
        min_support: Support,
        max_edges: Option<usize>,
        out: &mut PatternSet,
        counters: &Counters,
    ) -> Result<(), StorageError> {
        if !is_min(code) {
            return Ok(());
        }
        out.insert(Pattern::from_code(code.clone(), distinct_gids(embeddings)));
        if max_edges.is_some_and(|cap| code.len() + 1 > cap) {
            return Ok(());
        }

        let path = code.rightmost_path();
        let rightmost = *path.last().expect("non-empty code");
        let min_backward_target = code
            .0
            .iter()
            .rev()
            .take_while(|e| !e.is_forward())
            .filter(|e| e.from == rightmost)
            .map(|e| e.to + 1)
            .max()
            .unwrap_or(0);

        let mut extensions: FxHashMap<DfsEdge, Vec<Embedding>> = FxHashMap::default();
        for emb in embeddings {
            let g = cache.get(emb.gid)?;
            let g_rm = emb.map[rightmost as usize];

            for &pv in &path[..path.len() - 1] {
                if pv < min_backward_target {
                    continue;
                }
                let g_pv = emb.map[pv as usize];
                if let Some(eid) = g.edge_between(g_rm, g_pv) {
                    if !emb.uses_edge(eid) {
                        let edge = DfsEdge::new(
                            rightmost,
                            pv,
                            g.vlabel(g_rm),
                            g.edge(eid).2,
                            g.vlabel(g_pv),
                        );
                        let mut next = emb.clone();
                        next.edges.push(eid);
                        extensions.entry(edge).or_default().push(next);
                    }
                }
            }

            let new_vertex = emb.map.len() as u32;
            for &pv in path.iter().rev() {
                let g_pv = emb.map[pv as usize];
                for a in g.neighbors(g_pv) {
                    if emb.uses_edge(a.eid) || emb.map.contains(&a.to) {
                        continue;
                    }
                    let edge =
                        DfsEdge::new(pv, new_vertex, g.vlabel(g_pv), a.elabel, g.vlabel(a.to));
                    let mut next = emb.clone();
                    next.map.push(a.to);
                    next.edges.push(a.eid);
                    extensions.entry(edge).or_default().push(next);
                }
            }
        }

        let mut ordered: Vec<(DfsEdge, Vec<Embedding>)> = extensions.into_iter().collect();
        ordered.sort_by(|(a, _), (b, _)| a.dfs_cmp(b));
        counters.add(Counter::MinerExtensions, ordered.len() as u64);
        for (edge, embs) in ordered {
            if distinct_gids(&embs) < min_support {
                counters.bump(Counter::VerifiedInfrequent);
                continue;
            }
            counters.bump(Counter::VerifiedFrequent);
            code.push(edge);
            self.grow(cache, code, &embs, min_support, max_edges, out, counters)?;
            code.pop();
        }
        Ok(())
    }
}

/// The two files of generation `n` under `dir`: graph pages, postings.
fn generation_files(dir: &Path, n: u64) -> [PathBuf; 2] {
    [dir.join(format!("adi-gen{n}.pages")), dir.join(format!("adi-gen{n}.postings"))]
}

/// Writes generation `n` of the on-disk structure for `db`.
fn write_generation(
    dir: &Path,
    n: u64,
    db: &GraphDb,
    config: &AdiConfig,
) -> Result<(GraphStore, EdgePostings), StorageError> {
    let [pages, postings] = generation_files(dir, n);
    let store = GraphStore::create(&pages, db, config.pool_pages, config.io_latency)?;
    let postings = EdgePostings::build(&postings, db, config.pool_pages, config.io_latency)?;
    Ok((store, postings))
}

#[derive(Debug, Clone)]
struct Embedding {
    gid: GraphId,
    map: Vec<VertexId>,
    edges: Vec<EdgeId>,
}

impl Embedding {
    #[inline]
    fn uses_edge(&self, eid: EdgeId) -> bool {
        self.edges.contains(&eid)
    }
}

fn distinct_gids(embeddings: &[Embedding]) -> Support {
    let mut count = 0;
    let mut last = None;
    for e in embeddings {
        if last != Some(e.gid) {
            count += 1;
            last = Some(e.gid);
        }
    }
    count
}

/// A bounded cache of decoded graphs in front of the page store — the
/// "what fits in memory" knob of a disk-based miner.
///
/// Admission is *freeze-first*: once full, new entries are served but not
/// cached. Pattern-growth mining sweeps the projected graph lists
/// cyclically, which makes LRU pathological (every access evicts the entry
/// that will be needed one cycle later); keeping a stable resident set is
/// both scan-resistant and what a real system pinning its working set
/// would do.
///
/// It is a second cache beside the buffer pool on purpose. The pool holds
/// raw pages under LRU and is where page I/O is charged; this one holds
/// decoded graphs and saves decode work. A hit here touches no page, so
/// folding the two into one would change what [`PoolStats`] counts — the
/// figures pinned by `tiny_memory_forces_page_io` and reported by
/// Figs. 14a and 16.
struct Cache<'a> {
    store: &'a GraphStore,
    cap: usize,
    map: RefCell<FxHashMap<GraphId, Rc<Graph>>>,
}

impl<'a> Cache<'a> {
    fn new(store: &'a GraphStore, cap: usize) -> Self {
        Cache { store, cap: cap.max(1), map: RefCell::new(FxHashMap::default()) }
    }

    fn get(&self, gid: GraphId) -> Result<Rc<Graph>, StorageError> {
        if let Some(g) = self.map.borrow().get(&gid) {
            return Ok(Rc::clone(g));
        }
        let g = Rc::new(self.store.read_graph(gid)?);
        let mut map = self.map.borrow_mut();
        if map.len() < self.cap {
            map.insert(gid, Rc::clone(&g));
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_datagen::{generate, GenParams};
    use graphmine_graph::enumerate::frequent_bruteforce;
    use graphmine_miner::{GSpan, MemoryMiner};

    fn tiny_db() -> GraphDb {
        generate(&GenParams::new(30, 6, 4, 6, 3))
    }

    #[test]
    fn matches_gspan_on_synthetic_data() {
        let dir = tempfile::tempdir().unwrap();
        let db = tiny_db();
        let adi = AdiMine::build(dir.path(), &db, AdiConfig::default()).unwrap();
        for sup in [2u32, 4, 8] {
            let disk = adi.mine(sup, None, Counters::noop()).unwrap();
            let mem = GSpan::new().mine(&db, sup);
            assert!(
                disk.same_codes_and_supports(&mem),
                "support {sup}: disk {} mem {}",
                disk.len(),
                mem.len()
            );
        }
    }

    #[test]
    fn matches_bruteforce_with_tiny_cache() {
        let dir = tempfile::tempdir().unwrap();
        let db = tiny_db();
        // Pathologically small memory: 1 pool page, 2 decoded graphs.
        let adi = AdiMine::build(
            dir.path(),
            &db,
            AdiConfig { pool_pages: 1, decoded_cache: 2, ..AdiConfig::default() },
        )
        .unwrap();
        let disk = adi.mine(5, Some(4), Counters::noop()).unwrap();
        let oracle = frequent_bruteforce(&db, 5, 4);
        assert!(disk.same_codes_and_supports(&oracle));
    }

    /// ADIMINE pays per page, exactly. The counts are pinned: they move
    /// only if the store's write order, its format or the pool's LRU
    /// policy does (ROADMAP 16(b); Figs. 14a and 16 rest on them).
    #[test]
    fn tiny_memory_forces_page_io() {
        // Big enough to span several pages (~300 graphs of ~10 edges).
        let db = generate(&GenParams::new(300, 10, 4, 6, 3));
        let stats = |hits, misses, disk_reads, disk_writes| PoolStats {
            hits,
            misses,
            disk_reads,
            disk_writes,
        };
        let tiny = AdiConfig { pool_pages: 1, decoded_cache: 2, ..AdiConfig::default() };
        let pinned = [
            (tiny, stats(288, 25, 25, 26), stats(2801, 254, 254, 0)),
            (AdiConfig::default(), stats(313, 0, 0, 14), stats(312, 0, 0, 0)),
        ];
        for (config, after_build, after_mine) in pinned {
            let dir = tempfile::tempdir().unwrap();
            let adi = AdiMine::build(dir.path(), &db, config).unwrap();
            assert_eq!(adi.io_stats(), after_build, "build, {} pool pages", config.pool_pages);
            adi.reset_io_stats();
            adi.mine(db.abs_support(0.3), Some(2), Counters::noop()).unwrap();
            assert_eq!(adi.io_stats(), after_mine, "mine, {} pool pages", config.pool_pages);
        }
    }

    #[test]
    fn rebuild_reflects_updates() {
        let dir = tempfile::tempdir().unwrap();
        let mut db = tiny_db();
        let mut adi = AdiMine::build(dir.path(), &db, AdiConfig::default()).unwrap();
        let before = adi.mine(3, None, Counters::noop()).unwrap();
        // Re-label every vertex of every graph to a single label: patterns
        // change drastically.
        for gid in 0..db.len() as u32 {
            let g = db.graph_mut(gid);
            for v in 0..g.vertex_count() as u32 {
                g.set_vlabel(v, 0).unwrap();
            }
        }
        adi.rebuild(&db).unwrap();
        let after = adi.mine(3, None, Counters::noop()).unwrap();
        let mem = GSpan::new().mine(&db, 3);
        assert!(after.same_codes_and_supports(&mem));
        assert!(!before.same_codes(&after));
    }

    #[test]
    fn empty_database_mines_nothing() {
        let dir = tempfile::tempdir().unwrap();
        let adi = AdiMine::build(dir.path(), &GraphDb::new(), AdiConfig::default()).unwrap();
        assert!(adi.mine(1, None, Counters::noop()).unwrap().is_empty());
    }

    /// Each rebuild deletes the generation it replaces: after three, only
    /// generation 3's pages and postings are left, and they still mine
    /// what gSpan does.
    #[test]
    fn rebuild_deletes_the_replaced_generation() {
        let dir = tempfile::tempdir().unwrap();
        let db = tiny_db();
        let mut adi = AdiMine::build(dir.path(), &db, AdiConfig::default()).unwrap();
        for _ in 0..3 {
            adi.rebuild(&db).unwrap();
        }
        let mut files: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["adi-gen3.pages", "adi-gen3.postings"]);
        let disk = adi.mine(3, None, Counters::noop()).unwrap();
        assert!(disk.same_codes_and_supports(&GSpan::new().mine(&db, 3)));
    }
}
