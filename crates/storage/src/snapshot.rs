//! Serialized graph databases: one format, two sinks.
//!
//! A header page ([`snapshot_header`]: magic, version, graph count, data
//! length) is followed by little-endian `u32` records ([`encode_graph`]:
//! `[nv, vlabel*nv, ne, (u, v, elabel)*ne]`) packed contiguously and
//! zero-padded to a whole page. [`write_snapshot`] writes that image with
//! one `write_all` (the serving daemon's snapshot); ADIMINE's paged store
//! writes the same bytes page by page through its buffer pool, with the
//! same three functions, and reads graphs back with [`decode_graph`].

use std::fs::File;
use std::io::Write;
use std::path::Path;

use graphmine_graph::{CsrScratch, Graph, GraphDb};

use crate::{StorageError, PAGE_SIZE};

/// Magic bytes at offset 0 of every store file.
const MAGIC: [u8; 4] = *b"GMGS";
/// On-disk format version.
const VERSION: u32 = 1;
/// Bytes of the header page that carry the header; the rest are zero.
const HEADER_LEN: usize = 20;

/// Writes `db` to `path` as one snapshot image: one `write_all`, then one
/// `sync_data`. The bytes are those ADIMINE's paged store writes for the
/// same database.
///
/// # Errors
///
/// Propagates file-system failures.
pub fn write_snapshot(path: &Path, db: &GraphDb) -> Result<(), StorageError> {
    let data_len: usize =
        db.iter().map(|(_, g)| 8 + 4 * (g.vertex_count() + 3 * g.edge_count())).sum();
    let padded = (PAGE_SIZE + data_len).next_multiple_of(PAGE_SIZE);
    let mut image = Vec::with_capacity(padded);
    image.extend_from_slice(&snapshot_header(db.len(), data_len as u64));
    image.resize(PAGE_SIZE, 0);
    for (_, g) in db.iter() {
        encode_graph(&mut image, g);
    }
    image.resize(padded, 0);
    let mut file = File::create(path)?;
    file.write_all(&image)?;
    file.sync_data()?;
    Ok(())
}

/// Reads a snapshot written by either sink back with one `fs::read` and
/// one pass over its records.
///
/// # Errors
///
/// File-system failures; a length that is not whole pages; a missing or
/// foreign header; a header whose data length or graph count the file
/// cannot hold; records that do not tile the declared data exactly, or
/// that do not decode to a graph.
pub fn read_snapshot(path: &Path) -> Result<GraphDb, StorageError> {
    let bytes = std::fs::read(path)?;
    let corrupt = |what: String| Err(StorageError::Corrupt(what));
    if bytes.len() % PAGE_SIZE != 0 {
        return corrupt(format!("file length {} is not a multiple of the page size", bytes.len()));
    }
    if bytes.is_empty() {
        return corrupt("store file has no header page".into());
    }
    if bytes[..4] != MAGIC {
        return corrupt("not a graph store file (bad magic)".into());
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    if word(4) != VERSION {
        return corrupt(format!("unsupported store version {}", word(4)));
    }
    let count = word(8);
    let data_len = u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().expect("8 bytes"));
    if data_len > (bytes.len() - PAGE_SIZE) as u64 {
        return corrupt(format!("header declares {data_len} data bytes beyond the file"));
    }
    // Every record is at least 8 bytes (`nv` and `ne`); a larger count
    // is a corrupt header, refused before it sizes the database.
    if u64::from(count) > data_len / 8 {
        return corrupt(format!("header declares {count} graphs in {data_len} data bytes"));
    }
    let data = &bytes[PAGE_SIZE..PAGE_SIZE + data_len as usize];
    let mut pos = 0;
    let mut graphs = Vec::with_capacity(count as usize);
    for _ in 0..count {
        graphs.push(decode_graph(data, &mut pos)?);
    }
    if pos != data.len() {
        return corrupt(format!("records cover {pos} bytes but the header declares {data_len}"));
    }
    Ok(GraphDb::from_graphs(graphs))
}

/// The 20 header bytes at offset 0: magic, version, graph count, and the
/// length of the records that follow the header page.
pub fn snapshot_header(count: usize, data_len: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, VERSION);
    push_u32(&mut out, count as u32);
    out.extend_from_slice(&data_len.to_le_bytes());
    out
}

/// Appends `g`'s record to `out`.
pub fn encode_graph(out: &mut Vec<u8>, g: &Graph) {
    push_u32(out, g.vertex_count() as u32);
    for v in 0..g.vertex_count() as u32 {
        push_u32(out, g.vlabel(v));
    }
    push_u32(out, g.edge_count() as u32);
    for (_, u, v, el) in g.edges() {
        push_u32(out, u);
        push_u32(out, v);
        push_u32(out, el);
    }
}

/// Decodes the record at `bytes[*pos..]` and moves `pos` past it.
///
/// # Errors
///
/// A record that runs past `bytes`, or whose edge does not fit its
/// vertices.
pub fn decode_graph(bytes: &[u8], pos: &mut usize) -> Result<Graph, StorageError> {
    let nv = take_u32(bytes, pos)?;
    // Each vertex label takes 4 bytes, so what is left bounds the allocation.
    let mut vlabels = Vec::with_capacity((nv as usize).min((bytes.len() - *pos) / 4));
    for _ in 0..nv {
        vlabels.push(take_u32(bytes, pos)?);
    }
    let ne = take_u32(bytes, pos)?;
    // And each edge record 12.
    let mut edges = Vec::with_capacity((ne as usize).min((bytes.len() - *pos) / 12));
    let mut scratch = CsrScratch::default();
    let mut build = |edges: &[(u32, u32, u32)]| {
        Graph::from_edges(&vlabels, edges, &mut scratch)
            .map_err(|(_, e)| StorageError::Corrupt(format!("bad edge record: {e}")))
    };
    for _ in 0..ne {
        match take_edge(bytes, pos) {
            Ok(edge) => edges.push(edge),
            Err(cut) => {
                // A bad edge record before the cut is the first fault.
                build(&edges)?;
                return Err(cut);
            }
        }
    }
    build(&edges)
}

fn take_edge(bytes: &[u8], pos: &mut usize) -> Result<(u32, u32, u32), StorageError> {
    Ok((take_u32(bytes, pos)?, take_u32(bytes, pos)?, take_u32(bytes, pos)?))
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, StorageError> {
    let end = *pos + 4;
    let slice = bytes
        .get(*pos..end)
        .ok_or_else(|| StorageError::Corrupt("record runs past the data length".into()))?;
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

    /// `sample_db(5)` written by the one-buffer sink, for the corruption
    /// tests to edit.
    fn snapshot_bytes(path: &Path) -> Vec<u8> {
        write_snapshot(path, &sample_db(5)).unwrap();
        std::fs::read(path).unwrap()
    }

    fn refused(path: &Path, bytes: &[u8]) -> bool {
        std::fs::write(path, bytes).unwrap();
        matches!(read_snapshot(path), Err(StorageError::Corrupt(_)))
    }

    #[test]
    fn open_empty_store() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("g.db");
        write_snapshot(&path, &GraphDb::new()).unwrap();
        assert!(read_snapshot(&path).unwrap().is_empty());
    }

    #[test]
    fn open_rejects_foreign_files() {
        let dir = tempfile::tempdir().unwrap();
        assert!(refused(&dir.path().join("junk.db"), &[0x5Au8; PAGE_SIZE]));
    }

    /// A flipped graph count is refused as corrupt before it sizes the
    /// database (`u32::MAX` graphs would be a multi-GB allocation).
    #[test]
    fn open_rejects_a_count_the_data_cannot_hold() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("g.db");
        let mut bytes = snapshot_bytes(&path);
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(refused(&path, &bytes));
    }

    #[test]
    fn open_rejects_truncated_header() {
        let dir = tempfile::tempdir().unwrap();
        assert!(refused(&dir.path().join("empty.db"), &[]));
    }

    #[test]
    fn open_rejects_misaligned_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("g.db");
        assert!(refused(&path, &[0u8; 100]));
        let mut bytes = snapshot_bytes(&path);
        bytes.push(0);
        assert!(refused(&path, &bytes));
    }

    #[test]
    fn open_rejects_a_data_length_beyond_the_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("g.db");
        let mut bytes = snapshot_bytes(&path);
        let beyond = (bytes.len() - PAGE_SIZE + 1) as u64;
        bytes[12..20].copy_from_slice(&beyond.to_le_bytes());
        assert!(refused(&path, &bytes));
    }

    /// The header declares one byte short of the records, so the last
    /// record runs past the data length (and a byte longer leaves a gap).
    #[test]
    fn open_rejects_records_that_do_not_tile_the_data() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("g.db");
        let bytes = snapshot_bytes(&path);
        let data_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        for declared in [data_len - 1, data_len + 1] {
            let mut edited = bytes.clone();
            edited[12..20].copy_from_slice(&declared.to_le_bytes());
            assert!(refused(&path, &edited), "declared {declared} of {data_len}");
        }
    }

    #[test]
    fn open_rejects_an_edge_endpoint_past_its_vertices() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("g.db");
        let mut bytes = snapshot_bytes(&path);
        // Graph 0 has 3 vertices and 2 edges: `[3, l0, l1, l2, 2, u, ...]`.
        let first_u = PAGE_SIZE + 4 * 5;
        assert_eq!(bytes[PAGE_SIZE..PAGE_SIZE + 4], 3u32.to_le_bytes());
        bytes[first_u..first_u + 4].copy_from_slice(&3u32.to_le_bytes());
        assert!(refused(&path, &bytes));
    }

    /// A record of two vertices declaring `declared` edges and holding
    /// `edges`.
    fn record(edges: &[(u32, u32, u32)], declared: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for w in [2, 3, 4, declared as u32] {
            push_u32(&mut out, w);
        }
        for &(u, v, el) in edges {
            for w in [u, v, el] {
                push_u32(&mut out, w);
            }
        }
        out
    }

    /// A duplicate edge and an endpoint past the vertices are refused with
    /// the error `Graph::add_edge` gives, also when the data is cut short
    /// after the bad record.
    #[test]
    fn a_bad_edge_record_is_refused_with_its_graph_error() {
        let cases = [
            (vec![(0, 1, 5), (1, 0, 6)], "bad edge record: edge (1, 0) already exists"),
            (vec![(0, 7, 0)], "bad edge record: vertex id 7 out of range (graph has 2 vertices)"),
        ];
        for (edges, want) in cases {
            for declared in [edges.len(), edges.len() + 1] {
                match decode_graph(&record(&edges, declared), &mut 0) {
                    Err(StorageError::Corrupt(got)) => assert_eq!(got, want, "{declared}"),
                    other => panic!("{edges:?} declaring {declared}: {other:?}"),
                }
            }
        }
        let cut = decode_graph(&record(&[(0, 1, 5)], 2), &mut 0);
        assert!(
            matches!(&cut, Err(StorageError::Corrupt(e)) if e == "record runs past the data length"),
            "{cut:?}"
        );
    }
}
