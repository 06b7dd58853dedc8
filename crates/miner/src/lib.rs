//! Memory-based frequent-subgraph miners.
//!
//! The paper mines each partition unit with a memory-based algorithm
//! (Gaston, Fig. 7). This crate provides three interchangeable miners behind
//! the [`MemoryMiner`] trait:
//!
//! * [`GSpan`] — depth-first rightmost-extension search over projected
//!   embedding lists with minimum-DFS-code duplicate pruning (Yan & Han,
//!   ICDM 2002). The workhorse: its search is [`walk`], the one projected
//!   walk PartMiner's units, its merge-join and the serving daemon run.
//! * [`Gaston`] — a Gaston-flavoured two-phase miner: frequent *free trees*
//!   are enumerated first by reverse search on a centroid-based canonical
//!   tree form (paths are trees and fall out of the same phase), then
//!   cyclic graphs are produced by closing edges over tree embeddings
//!   (Nijssen & Kok, KDD 2004 — "a quickstart in frequent structure
//!   mining").
//! * [`Apriori`] — a simple level-wise extend-and-count miner used as a
//!   mid-size oracle that shares no extension code with gSpan.
//!
//! All three return exactly the same pattern sets; the test suites pit them
//! against each other and against the brute-force enumerator of
//! [`graphmine_graph::enumerate`].
//!
//! # Example
//!
//! ```
//! use graphmine_graph::{Graph, GraphDb};
//! use graphmine_miner::{Gaston, GSpan, MemoryMiner};
//!
//! let db: GraphDb = (0..4)
//!     .map(|_| {
//!         let mut g = Graph::new();
//!         let a = g.add_vertex(0);
//!         let b = g.add_vertex(1);
//!         g.add_edge(a, b, 7).unwrap();
//!         g
//!     })
//!     .collect();
//! let gspan = GSpan::new().mine(&db, 4);
//! let gaston = Gaston::new().mine(&db, 4);
//! assert!(gspan.same_codes_and_supports(&gaston));
//! assert_eq!(gspan.iter().next().unwrap().support, 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod apriori;
pub mod extend;
mod fsg;
mod gaston;
mod gspan;
pub mod postprocess;
pub mod project;
pub mod walk;

pub use apriori::Apriori;
pub use fsg::Fsg;
pub use gaston::Gaston;
pub use gspan::GSpan;
pub use postprocess::{closed_patterns, maximal_patterns};

use graphmine_graph::{GraphDb, PatternSet, Support};
use graphmine_telemetry::{Counter, Counters};

/// A frequent-subgraph miner that operates on an in-memory database — the
/// role Gaston plays in the paper's Phase 2.
pub trait MemoryMiner {
    /// Mines all frequent connected subgraphs (with at least one edge) whose
    /// support in `db` is at least `min_support` (absolute count).
    fn mine(&self, db: &GraphDb, min_support: Support) -> PatternSet;

    /// [`MemoryMiner::mine`] with telemetry. The default implementation
    /// tallies only [`Counter::MinerPatterns`]; miners that track their
    /// search internally ([`GSpan`], [`Gaston`]) also tally
    /// [`Counter::MinerExtensions`].
    fn mine_counted(&self, db: &GraphDb, min_support: Support, counters: &Counters) -> PatternSet {
        let patterns = self.mine(db, min_support);
        counters.add(Counter::MinerPatterns, patterns.len() as u64);
        patterns
    }

    /// Human-readable algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// Shared helper for the optional pattern-size cap: unlimited when `None`.
pub(crate) fn within_cap(max_edges: Option<usize>, size: usize) -> bool {
    max_edges.is_none_or(|cap| size <= cap)
}
