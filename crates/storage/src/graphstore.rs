//! Serialized graph databases over pages.
//!
//! Graphs are encoded as little-endian `u32` records —
//! `[nv, vlabel*nv, ne, (u, v, elabel)*ne]` — packed contiguously into a
//! byte stream laid out across pages. The per-graph offset directory stays
//! in memory (it is `O(|D|)`, the part of an index that fits in RAM);
//! everything else is read through the buffer pool, so per-graph random
//! access — the access pattern of index-backed mining — is properly charged
//! page faults.

use std::path::Path;
use std::time::Duration;

use graphmine_graph::{Graph, GraphDb};

use crate::bytestore::{read_stream, write_stream};
use crate::{BufferPool, PageFile, PoolStats, StorageError, PAGE_SIZE};

/// Magic bytes at offset 0 of every store file.
const MAGIC: [u8; 4] = *b"GMGS";
/// On-disk format version.
const VERSION: u32 = 1;

/// A read-mostly, page-resident graph database.
pub struct GraphStore {
    pool: BufferPool,
    offsets: Vec<u64>,
    lens: Vec<u32>,
}

impl GraphStore {
    /// Serializes `db` into a fresh page file at `path`, buffered by a pool
    /// of `pool_pages` pages.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn create(path: &Path, db: &GraphDb, pool_pages: usize) -> Result<Self, StorageError> {
        Self::create_with_latency(path, db, pool_pages, Duration::ZERO)
    }

    /// Like [`GraphStore::create`] with a simulated per-page I/O latency
    /// (see [`PageFile::set_io_latency`]); the serialization pass itself is
    /// charged for its writes, as building a disk-resident index would be.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn create_with_latency(
        path: &Path,
        db: &GraphDb,
        pool_pages: usize,
        io_latency: Duration,
    ) -> Result<Self, StorageError> {
        let mut file = PageFile::create(path)?;
        file.set_io_latency(io_latency);
        let pool = BufferPool::new(file, pool_pages);
        let mut offsets = Vec::with_capacity(db.len());
        let mut lens = Vec::with_capacity(db.len());
        // Page 0 is the header; records start on the next page boundary so
        // re-opening knows where to scan from.
        let mut cursor = PAGE_SIZE as u64;
        for (_, g) in db.iter() {
            let bytes = encode(g);
            offsets.push(cursor);
            lens.push(bytes.len() as u32);
            write_stream(&pool, cursor, &bytes)?;
            cursor += bytes.len() as u64;
        }
        let mut header = Vec::with_capacity(20);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&(db.len() as u32).to_le_bytes());
        header.extend_from_slice(&(cursor - PAGE_SIZE as u64).to_le_bytes());
        write_stream(&pool, 0, &header)?;
        pool.flush()?;
        let store = GraphStore { pool, offsets, lens };
        Ok(store)
    }

    /// Reopens a store previously written by [`GraphStore::create`],
    /// rebuilding the in-memory offset directory by scanning the
    /// self-delimiting records — the recovery path the serving daemon takes
    /// to reload its snapshot.
    ///
    /// # Errors
    ///
    /// File-system failures, a missing/foreign header, or records that do
    /// not span exactly the length the header declares.
    pub fn open(path: &Path, pool_pages: usize) -> Result<Self, StorageError> {
        let file = PageFile::open(path)?;
        if file.page_count() == 0 {
            return Err(StorageError::Corrupt("store file has no header page".into()));
        }
        let pool = BufferPool::new(file, pool_pages);
        let mut header = [0u8; 20];
        read_stream(&pool, 0, &mut header)?;
        if header[..4] != MAGIC {
            return Err(StorageError::Corrupt("not a graph store file (bad magic)".into()));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StorageError::Corrupt(format!("unsupported store version {version}")));
        }
        let count = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        let data_len = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
        if data_len > (pool.page_count() - 1) * PAGE_SIZE as u64 {
            return Err(StorageError::Corrupt(format!(
                "header declares {data_len} data bytes beyond the file"
            )));
        }
        // Every record is at least 8 bytes (`nv` and `ne`); a larger count
        // is a corrupt header, refused before it sizes the directory.
        if u64::from(count) > data_len / 8 {
            return Err(StorageError::Corrupt(format!(
                "header declares {count} graphs in {data_len} data bytes"
            )));
        }
        let end = PAGE_SIZE as u64 + data_len;
        let mut offsets = Vec::with_capacity(count as usize);
        let mut lens = Vec::with_capacity(count as usize);
        let mut cursor = PAGE_SIZE as u64;
        for gid in 0..count {
            let nv = read_u32_at(&pool, cursor, end)?;
            let ne = read_u32_at(&pool, cursor + 4 + 4 * u64::from(nv), end)?;
            let len = 8 + 4 * u64::from(nv) + 12 * u64::from(ne);
            if cursor + len > end {
                return Err(StorageError::Corrupt(format!(
                    "record {gid} runs past the declared data length"
                )));
            }
            offsets.push(cursor);
            lens.push(len as u32);
            cursor += len;
        }
        if cursor != end {
            return Err(StorageError::Corrupt(format!(
                "records cover {} bytes but the header declares {data_len}",
                cursor - PAGE_SIZE as u64
            )));
        }
        Ok(GraphStore { pool, offsets, lens })
    }

    /// Number of stored graphs.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// `true` when no graphs are stored.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Reads and decodes graph `gid` through the buffer pool.
    ///
    /// # Errors
    ///
    /// Out-of-range gids, I/O failures, and corrupt records.
    pub fn read_graph(&self, gid: u32) -> Result<Graph, StorageError> {
        let idx = gid as usize;
        if idx >= self.offsets.len() {
            return Err(StorageError::GraphOutOfRange { gid, len: self.offsets.len() as u32 });
        }
        let mut bytes = vec![0u8; self.lens[idx] as usize];
        read_stream(&self.pool, self.offsets[idx], &mut bytes)?;
        decode(&bytes)
    }

    /// Reads the whole database back (a full scan).
    ///
    /// # Errors
    ///
    /// Propagates per-graph read failures.
    pub fn read_all(&self) -> Result<GraphDb, StorageError> {
        (0..self.len() as u32).map(|gid| self.read_graph(gid)).collect::<Result<GraphDb, _>>()
    }

    /// I/O counters of the underlying pool.
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Resets the I/O counters.
    pub fn reset_stats(&self) {
        self.pool.reset_stats()
    }
}

/// Reads a little-endian `u32` at stream offset `off`, refusing to read
/// past `end` (the declared end of record data).
fn read_u32_at(pool: &BufferPool, off: u64, end: u64) -> Result<u32, StorageError> {
    if off + 4 > end {
        return Err(StorageError::Corrupt("record header runs past the data length".into()));
    }
    let mut buf = [0u8; 4];
    read_stream(pool, off, &mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn encode(g: &Graph) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 * (g.vertex_count() + 3 * g.edge_count()));
    push_u32(&mut out, g.vertex_count() as u32);
    for v in 0..g.vertex_count() as u32 {
        push_u32(&mut out, g.vlabel(v));
    }
    push_u32(&mut out, g.edge_count() as u32);
    for (_, u, v, el) in g.edges() {
        push_u32(&mut out, u);
        push_u32(&mut out, v);
        push_u32(&mut out, el);
    }
    out
}

fn decode(bytes: &[u8]) -> Result<Graph, StorageError> {
    let mut pos = 0usize;
    let nv = take_u32(bytes, &mut pos)?;
    let mut g = Graph::with_capacity(nv as usize, 0);
    for _ in 0..nv {
        let l = take_u32(bytes, &mut pos)?;
        g.add_vertex(l);
    }
    let ne = take_u32(bytes, &mut pos)?;
    for _ in 0..ne {
        let u = take_u32(bytes, &mut pos)?;
        let v = take_u32(bytes, &mut pos)?;
        let el = take_u32(bytes, &mut pos)?;
        g.add_edge(u, v, el).map_err(|e| StorageError::Corrupt(format!("bad edge record: {e}")))?;
    }
    Ok(g)
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, StorageError> {
    let end = *pos + 4;
    let slice =
        bytes.get(*pos..end).ok_or_else(|| StorageError::Corrupt("truncated u32".into()))?;
    *pos = end;
    Ok(u32::from_le_bytes(slice.try_into().expect("4-byte slice")))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn round_trip_every_graph() {
        let dir = tempfile::tempdir().unwrap();
        let db = sample_db(50);
        let store = GraphStore::create(&dir.path().join("g.db"), &db, 8).unwrap();
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
        let store = GraphStore::create(&dir.path().join("g.db"), &db, 4).unwrap();
        let back = store.read_all().unwrap();
        assert_eq!(back.len(), db.len());
        for gid in 0..20u32 {
            assert_eq!(back.graph(gid), db.graph(gid));
        }
    }

    #[test]
    fn small_pool_faults_pages() {
        let dir = tempfile::tempdir().unwrap();
        let db = sample_db(200);
        let store = GraphStore::create(&dir.path().join("g.db"), &db, 1).unwrap();
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
        let db = sample_db(3);
        let store = GraphStore::create(&dir.path().join("g.db"), &db, 4).unwrap();
        assert!(matches!(store.read_graph(9), Err(StorageError::GraphOutOfRange { .. })));
    }

    #[test]
    fn empty_database() {
        let dir = tempfile::tempdir().unwrap();
        let store = GraphStore::create(&dir.path().join("g.db"), &GraphDb::new(), 4).unwrap();
        assert!(store.is_empty());
        assert!(store.read_all().unwrap().is_empty());
    }

    #[test]
    fn create_drop_open_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("g.db");
        let db = sample_db(40);
        {
            let store = GraphStore::create(&path, &db, 8).unwrap();
            assert_eq!(store.len(), 40);
        } // dropped: only the file remains
        let store = GraphStore::open(&path, 8).unwrap();
        assert_eq!(store.len(), 40);
        for gid in 0..40u32 {
            assert_eq!(&store.read_graph(gid).unwrap(), db.graph(gid), "gid {gid}");
        }
        assert_eq!(store.read_all().unwrap().len(), db.len());
    }

    #[test]
    fn open_empty_store() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("g.db");
        drop(GraphStore::create(&path, &GraphDb::new(), 4).unwrap());
        let store = GraphStore::open(&path, 4).unwrap();
        assert!(store.is_empty());
    }

    #[test]
    fn open_rejects_foreign_files() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("junk.db");
        std::fs::write(&path, vec![0x5Au8; crate::PAGE_SIZE]).unwrap();
        assert!(matches!(GraphStore::open(&path, 4), Err(StorageError::Corrupt(_))));
    }

    /// A flipped graph count is refused as corrupt before it sizes the
    /// offset directory (`u32::MAX` entries would be a 34 GB allocation).
    #[test]
    fn open_rejects_a_count_the_data_cannot_hold() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("g.db");
        drop(GraphStore::create(&path, &sample_db(5), 4).unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(GraphStore::open(&path, 4), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn open_rejects_truncated_header() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("empty.db");
        std::fs::write(&path, Vec::<u8>::new()).unwrap();
        assert!(matches!(GraphStore::open(&path, 4), Err(StorageError::Corrupt(_))));
    }
}
