//! On-disk edge posting lists — the middle level of the ADI structure.
//!
//! The ADI index of Wang et al. stores, for every distinct edge, the list
//! of its occurrences in the database so that mining can seed pattern
//! growth without scanning whole graphs. This module materialises that
//! level: for each orientation-normalised edge triple `(l_u, l_e, l_v)`,
//! an on-disk record of `(gid, u, v, eid)` instances — every *oriented*
//! match, so equal-label edges contribute both directions. Reading a
//! posting list is charged page I/O through the same simulated-latency
//! pool as the graph pages.

use rustc_hash::FxHashMap;

use graphmine_graph::{ELabel, EdgeId, GraphDb, GraphId, VLabel, VertexId};
use graphmine_storage::StorageError;

use crate::bytestore::{ByteStore, RecordId};

/// One occurrence of an edge triple, oriented so that
/// `vlabel(u) = l_u, vlabel(v) = l_v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EdgeInstance {
    /// Containing graph.
    pub(crate) gid: GraphId,
    /// Source vertex (label `l_u`).
    pub(crate) u: VertexId,
    /// Target vertex (label `l_v`).
    pub(crate) v: VertexId,
    /// The edge's id within the graph.
    pub(crate) eid: EdgeId,
}

/// Disk-resident posting lists keyed by normalised edge triple.
pub(crate) struct EdgePostings {
    store: ByteStore,
    directory: FxHashMap<(VLabel, ELabel, VLabel), RecordId>,
}

const BYTES_PER_INSTANCE: usize = 16;

impl EdgePostings {
    /// Builds the posting lists for `db` into a fresh store.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub(crate) fn build(
        path: &std::path::Path,
        db: &GraphDb,
        pool_pages: usize,
        io_latency: std::time::Duration,
    ) -> Result<Self, StorageError> {
        let mut lists: FxHashMap<(VLabel, ELabel, VLabel), Vec<EdgeInstance>> =
            FxHashMap::default();
        for (gid, g) in db.iter() {
            for (eid, u, v, el) in g.edges() {
                // Store oriented instances under the normalised key: one
                // per edge when the labels differ, both directions when
                // they are equal.
                for (a, b) in [(u, v), (v, u)] {
                    let (la, lb) = (g.vlabel(a), g.vlabel(b));
                    if la <= lb {
                        lists.entry((la, el, lb)).or_default().push(EdgeInstance {
                            gid,
                            u: a,
                            v: b,
                            eid,
                        });
                    }
                }
            }
        }
        let mut store = ByteStore::create(path, pool_pages, io_latency, 0)?;
        let mut directory = FxHashMap::default();
        // Deterministic order keeps the layout reproducible.
        let mut keys: Vec<_> = lists.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let instances = &lists[&key];
            let mut bytes = Vec::with_capacity(instances.len() * BYTES_PER_INSTANCE);
            for inst in instances {
                bytes.extend_from_slice(&inst.gid.to_le_bytes());
                bytes.extend_from_slice(&inst.u.to_le_bytes());
                bytes.extend_from_slice(&inst.v.to_le_bytes());
                bytes.extend_from_slice(&inst.eid.to_le_bytes());
            }
            let id = store.append(&bytes)?;
            directory.insert(key, id);
        }
        store.flush()?;
        Ok(EdgePostings { store, directory })
    }

    /// Reads the posting list for a triple (orientation-normalised key;
    /// instances are oriented `l_u -> l_v`). Missing triples yield an empty
    /// list.
    ///
    /// # Errors
    ///
    /// Propagates page faults.
    pub(crate) fn read(
        &self,
        lu: VLabel,
        le: ELabel,
        lv: VLabel,
    ) -> Result<Vec<EdgeInstance>, StorageError> {
        let key = if lu <= lv { (lu, le, lv) } else { (lv, le, lu) };
        let Some(&id) = self.directory.get(&key) else {
            return Ok(Vec::new());
        };
        let bytes = self.store.read(id)?;
        if bytes.len() % BYTES_PER_INSTANCE != 0 {
            return Err(StorageError::Corrupt("posting list length misaligned".into()));
        }
        let mut out = Vec::with_capacity(bytes.len() / BYTES_PER_INSTANCE);
        for chunk in bytes.chunks_exact(BYTES_PER_INSTANCE) {
            let word = |i: usize| {
                u32::from_le_bytes(chunk[i * 4..i * 4 + 4].try_into().expect("4-byte chunk"))
            };
            let mut inst = EdgeInstance { gid: word(0), u: word(1), v: word(2), eid: word(3) };
            if lu > lv {
                std::mem::swap(&mut inst.u, &mut inst.v);
            }
            out.push(inst);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::Graph;

    fn db() -> GraphDb {
        let mut g1 = Graph::new();
        let a = g1.add_vertex(0);
        let b = g1.add_vertex(1);
        let c = g1.add_vertex(0);
        g1.add_edge(a, b, 5).unwrap();
        g1.add_edge(b, c, 5).unwrap();
        g1.add_edge(a, c, 7).unwrap(); // equal labels: both orientations
        let mut g2 = Graph::new();
        let x = g2.add_vertex(1);
        let y = g2.add_vertex(0);
        g2.add_edge(x, y, 5).unwrap();
        GraphDb::from_graphs(vec![g1, g2])
    }

    fn build(db: &GraphDb) -> EdgePostings {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("postings.db");
        std::mem::forget(dir);
        EdgePostings::build(&path, db, 8, std::time::Duration::ZERO).unwrap()
    }

    #[test]
    fn postings_cover_all_oriented_matches() {
        let db = db();
        let p = build(&db);
        assert_eq!(p.directory.len(), 2);
        let l = p.read(0, 5, 1).unwrap();
        // Three (0)-5-(1) oriented instances: g1 a->b, g1 c->b, g2 y->x.
        assert_eq!(l.len(), 3);
        for inst in &l {
            let g = db.graph(inst.gid);
            assert_eq!(g.vlabel(inst.u), 0);
            assert_eq!(g.vlabel(inst.v), 1);
            assert_eq!(g.edge_between(inst.u, inst.v), Some(inst.eid));
        }
        // Equal-label edge: both orientations stored.
        let sym = p.read(0, 7, 0).unwrap();
        assert_eq!(sym.len(), 2);
        assert_ne!(sym[0], sym[1]);
    }

    #[test]
    fn reversed_key_swaps_orientation() {
        let db = db();
        let p = build(&db);
        let fwd = p.read(0, 5, 1).unwrap();
        let rev = p.read(1, 5, 0).unwrap();
        assert_eq!(fwd.len(), rev.len());
        for (f, r) in fwd.iter().zip(rev.iter()) {
            assert_eq!((f.u, f.v), (r.v, r.u));
            assert_eq!(f.eid, r.eid);
        }
    }

    #[test]
    fn missing_triple_is_empty() {
        let p = build(&db());
        assert!(p.read(9, 9, 9).unwrap().is_empty());
    }
}
