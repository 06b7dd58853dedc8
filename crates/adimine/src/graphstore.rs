//! ADIMINE's paged sink of the snapshot format.
//!
//! The database is written in `graphmine-storage`'s snapshot format (a
//! header page, then one record per graph), page by page through a buffer
//! pool, so the file is byte-identical to [`graphmine_storage::write_snapshot`]'s.
//! Only the `O(|D|)` record directory stays in memory, so per-graph random
//! access — the access pattern of index-backed mining — is charged page
//! faults.

use std::path::Path;
use std::time::Duration;

use graphmine_graph::{Graph, GraphDb};
use graphmine_storage::{decode_graph, encode_graph, snapshot_header, StorageError, PAGE_SIZE};

use crate::bytestore::{ByteStore, RecordId};
use crate::pool::PoolStats;

/// A read-mostly, page-resident graph database: a [`ByteStore`] holding
/// one record per graph.
pub(crate) struct GraphStore {
    store: ByteStore,
    records: Vec<RecordId>,
}

impl GraphStore {
    /// Serializes `db` into a fresh page file at `path`, buffered by a pool
    /// of `pool_pages` pages, with a simulated per-page I/O latency; the
    /// serialization pass itself is charged for its writes, as building a
    /// disk-resident index would be.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub(crate) fn create(
        path: &Path,
        db: &GraphDb,
        pool_pages: usize,
        io_latency: Duration,
    ) -> Result<Self, StorageError> {
        let mut store = ByteStore::create(path, pool_pages, io_latency, PAGE_SIZE)?;
        // Records first, the header page last: the order ADIMINE's I/O
        // counts were measured with.
        let mut records = Vec::with_capacity(db.len());
        let mut bytes = Vec::new();
        for (_, g) in db.iter() {
            bytes.clear();
            encode_graph(&mut bytes, g);
            records.push(store.append(&bytes)?);
        }
        let data_len = records.iter().map(|r| u64::from(r.len)).sum();
        store.write_header(&snapshot_header(db.len(), data_len))?;
        store.flush()?;
        Ok(GraphStore { store, records })
    }

    /// Number of stored graphs.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no graphs are stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Reads and decodes graph `gid` through the buffer pool.
    ///
    /// # Errors
    ///
    /// Out-of-range gids, I/O failures, and corrupt records.
    pub(crate) fn read_graph(&self, gid: u32) -> Result<Graph, StorageError> {
        let Some(&id) = self.records.get(gid as usize) else {
            return Err(StorageError::GraphOutOfRange { gid, len: self.records.len() as u32 });
        };
        decode_graph(&self.store.read(id)?, &mut 0)
    }

    /// Reads the whole database back (a full scan).
    ///
    /// # Errors
    ///
    /// Propagates per-graph read failures.
    pub(crate) fn read_all(&self) -> Result<GraphDb, StorageError> {
        (0..self.len() as u32).map(|gid| self.read_graph(gid)).collect()
    }

    /// I/O counters of the underlying pool.
    pub(crate) fn stats(&self) -> PoolStats {
        self.store.stats()
    }

    /// Resets the I/O counters.
    pub(crate) fn reset_stats(&self) {
        self.store.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_storage::{read_snapshot, write_snapshot};
    use proptest::prelude::*;

    fn sample_db(n: usize) -> GraphDb {
        let mut graphs = Vec::new();
        for i in 0..n {
            let mut g = Graph::new();
            let k = 3 + (i % 5);
            for j in 0..k {
                g.add_vertex((i + j) as u32 % 7);
            }
            for j in 1..k {
                g.add_edge(j as u32, (j - 1) as u32, (i % 3) as u32).unwrap();
            }
            graphs.push(g);
        }
        GraphDb::from_graphs(graphs)
    }

    /// The paged sink, with no simulated latency.
    fn paged(path: &Path, db: &GraphDb, pool_pages: usize) -> GraphStore {
        GraphStore::create(path, db, pool_pages, Duration::ZERO).unwrap()
    }

    #[test]
    fn round_trip_every_graph() {
        let dir = tempfile::tempdir().unwrap();
        let db = sample_db(50);
        let store = paged(&dir.path().join("g.db"), &db, 8);
        assert_eq!(store.len(), 50);
        for gid in 0..50u32 {
            let g = store.read_graph(gid).unwrap();
            assert_eq!(&g, db.graph(gid), "gid {gid}");
        }
    }

    #[test]
    fn read_all_round_trips() {
        let dir = tempfile::tempdir().unwrap();
        let db = sample_db(20);
        let store = paged(&dir.path().join("g.db"), &db, 4);
        assert_eq!(store.read_all().unwrap(), db);
    }

    #[test]
    fn small_pool_faults_pages() {
        let dir = tempfile::tempdir().unwrap();
        let db = sample_db(200);
        let store = paged(&dir.path().join("g.db"), &db, 1);
        store.reset_stats();
        for gid in (0..200u32).rev() {
            store.read_graph(gid).unwrap();
        }
        let s = store.stats();
        assert!(s.disk_reads > 0, "reads go through the (tiny) pool: {s:?}");
    }

    #[test]
    fn bad_gid_is_an_error() {
        let dir = tempfile::tempdir().unwrap();
        let store = paged(&dir.path().join("g.db"), &sample_db(3), 4);
        assert!(matches!(store.read_graph(9), Err(StorageError::GraphOutOfRange { .. })));
    }

    #[test]
    fn empty_database() {
        let dir = tempfile::tempdir().unwrap();
        let store = paged(&dir.path().join("g.db"), &GraphDb::new(), 4);
        assert!(store.is_empty());
        assert!(store.read_all().unwrap().is_empty());
    }

    /// One format, two sinks: the one-buffer write and the paged write of
    /// the same database are the same bytes, and both read back. 300
    /// sample graphs are ~25 KB of records, seven pages.
    #[test]
    fn both_sinks_write_the_same_bytes() {
        let dir = tempfile::tempdir().unwrap();
        for db in [sample_db(300), GraphDb::new()] {
            let (one, pages) = (dir.path().join("one.gs"), dir.path().join("paged.gs"));
            write_snapshot(&one, &db).unwrap();
            drop(paged(&pages, &db, 2));
            let bytes = std::fs::read(&one).unwrap();
            assert_eq!(bytes, std::fs::read(&pages).unwrap(), "{} graphs", db.len());
            assert_eq!(bytes.len() % PAGE_SIZE, 0);
            assert!(db.is_empty() || bytes.len() > 2 * PAGE_SIZE, "{} bytes", bytes.len());
            assert_eq!(read_snapshot(&one).unwrap(), db);
            assert_eq!(read_snapshot(&pages).unwrap(), db);
        }
    }

    #[test]
    fn create_drop_open_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("g.db");
        let db = sample_db(40);
        drop(paged(&path, &db, 8)); // dropped: only the file remains
        assert_eq!(read_snapshot(&path).unwrap(), db);
    }

    /// A graph of 0–5 vertices over three labels (so labels repeat), with
    /// whichever of up to 8 drawn edges are valid; most leave some vertex
    /// isolated, and some graphs have no vertex at all.
    fn graph_strategy() -> impl Strategy<Value = Graph> {
        (
            proptest::collection::vec(0..3u32, 0..6),
            proptest::collection::vec((0..5u32, 0..5u32, 0..2u32), 0..8),
        )
            .prop_map(|(labels, edges)| {
                let mut g = Graph::new();
                for l in labels {
                    g.add_vertex(l);
                }
                for (u, v, el) in edges {
                    // Out-of-range ends, self-loops and repeats are refused.
                    let _ = g.add_edge(u, v, el);
                }
                g
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both sinks of the format agree on random databases at every
        /// pool size: the same bytes, the same database read back through
        /// `read_snapshot`, and every graph through `read_graph`.
        #[test]
        fn both_sinks_agree_on_random_databases(
            graphs in proptest::collection::vec(graph_strategy(), 0..40),
            pool_pages in 1usize..5,
        ) {
            let db = GraphDb::from_graphs(graphs);
            let dir = tempfile::tempdir().unwrap();
            let (one, pages) = (dir.path().join("one.gs"), dir.path().join("paged.gs"));
            write_snapshot(&one, &db).unwrap();
            let store = paged(&pages, &db, pool_pages);
            prop_assert_eq!(std::fs::read(&one).unwrap(), std::fs::read(&pages).unwrap());
            prop_assert_eq!(&read_snapshot(&one).unwrap(), &db);
            prop_assert_eq!(&read_snapshot(&pages).unwrap(), &db);
            prop_assert_eq!(store.len(), db.len());
            for (gid, g) in db.iter() {
                prop_assert_eq!(&store.read_graph(gid).unwrap(), g);
            }
        }
    }
}
