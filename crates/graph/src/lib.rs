//! Labeled-graph substrate for the PartMiner reproduction.
//!
//! This crate provides everything the mining layers build on:
//!
//! * [`Graph`] — an undirected, vertex- and edge-labeled simple graph with
//!   sorted adjacency runs, the unit of storage in a transactional graph
//!   database;
//! * [`GraphDb`] — a database of `(gid, Graph)` tuples with support-counting
//!   helpers;
//! * [`DfsCode`] / [`dfscode::min_dfs_code`] — the gSpan DFS-code encoding
//!   and minimum-DFS-code canonical form (Section 3 of the paper), which
//!   makes graph isomorphism a code-equality test;
//! * [`iso`] — subgraph-isomorphism (embedding) search used for support
//!   counting (`CheckFrequency` in the paper's merge-join);
//! * [`embeddings`] — the embedding-list support engine: per-pattern
//!   occurrence lists extended one DFS edge at a time, replacing repeated
//!   embedding searches with incremental list filtering;
//! * [`enumerate`] — a brute-force connected-subgraph enumerator used as a
//!   correctness oracle by the miners' test suites.
//!
//! The representation favours the access patterns of frequent-subgraph
//! mining: transaction graphs are small (tens of edges), read-mostly during
//! a mining pass, and probed millions of times by embedding searches, so
//! every graph is one flat CSR arena from birth, with per-vertex neighbour
//! runs sorted by `(vlabel(to), elabel, to)` — labeled
//! neighbour queries and `edge_between` become binary searches, and a
//! per-graph `(vlabel, elabel, vlabel)` triple index answers the support
//! screens — while all identifiers stay `u32` newtypes.
//!
//! # Example
//!
//! ```
//! use graphmine_graph::{dfscode, iso, Graph};
//!
//! // The graph of the paper's Figure 1.
//! let mut g = Graph::new();
//! let v0 = g.add_vertex(0);
//! let v1 = g.add_vertex(0);
//! let v2 = g.add_vertex(1);
//! let v3 = g.add_vertex(2);
//! g.add_edge(v0, v1, 0).unwrap(); // 'a'
//! g.add_edge(v1, v2, 0).unwrap(); // 'a'
//! g.add_edge(v1, v3, 2).unwrap(); // 'c'
//! g.add_edge(v3, v0, 1).unwrap(); // 'b'
//!
//! // Its canonical form is the minimum DFS code of Figure 1(b).
//! let code = dfscode::min_dfs_code(&g);
//! assert!(dfscode::is_min(&code));
//! assert_eq!(code.len(), 4);
//!
//! // Subgraph isomorphism drives support counting.
//! let mut edge = Graph::new();
//! let a = edge.add_vertex(0);
//! let b = edge.add_vertex(2);
//! edge.add_edge(a, b, 2).unwrap();
//! assert!(iso::contains_graph(&g, &edge));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod database;
pub mod dfscode;
pub mod embeddings;
pub mod enumerate;
mod error;
#[cfg(feature = "fault-injection")]
pub mod fault;
mod graph;
pub mod intersect;
pub mod io;
pub mod iso;
pub mod pattern;
pub mod pattern_io;
pub mod update;
pub mod update_io;

pub use database::{GraphDb, GraphId};
pub use dfscode::{DfsCode, DfsEdge};
pub use embeddings::{
    EmbeddingList, EmbeddingMode, EmbeddingStore, SupportCount, DEFAULT_EMBEDDING_BUDGET,
};
pub use error::GraphError;
pub use graph::{
    edge_triple, Adjacency, CsrScratch, ELabel, EdgeId, EdgeRemoval, Graph, VLabel, VertexId,
    VertexRemoval,
};
pub use intersect::intersect_sorted;
pub use pattern::{Change, Pattern, PatternSet};
pub use update::{apply_all, DbUpdate, GraphUpdate};

/// Absolute support count (number of database graphs containing a pattern).
pub type Support = u32;
