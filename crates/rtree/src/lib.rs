//! R-tree index for axis-parallel rectangles (Guttman, SIGMOD 1984).
//!
//! The paper's evaluation is anchored on R-trees in three ways, all of
//! which this crate provides:
//!
//! * **Sample joins** (Section 2): each sample is indexed with an R-tree
//!   and joined with the synchronized-traversal R-tree join of Brinkhoff,
//!   Kriegel & Seeger (SIGMOD 1993) — see [`join_count`] / [`join_pairs`].
//! * **The exact join oracle**: estimation error is measured against the
//!   actual filter-step join performed on the full datasets.
//! * **Relative metrics**: estimation time, building time and space cost
//!   are all reported *relative to* the R-tree join time, R-tree build
//!   time and R-tree size — see [`RTree::size_bytes`].
//!
//! Construction options:
//!
//! * [`RTree::bulk_load_str`] — Sort-Tile-Recursive packing (the default
//!   everywhere in this workspace; deterministic and near-optimal).
//! * [`RTree::bulk_load_hilbert`] — Kamel–Faloutsos Hilbert packing.
//! * [`RTree::new`] + [`RTree::insert`] — dynamic Guttman insertion with
//!   a choice of [`SplitAlgorithm::Linear`] or
//!   [`SplitAlgorithm::Quadratic`] node splitting.

mod bulk;
mod join;
mod node;
mod split;
mod tree;

pub use join::{join_count, join_count_parallel, join_pairs};
pub use node::{Entry, Node};
pub use split::SplitAlgorithm;
pub use tree::{RTree, RTreeConfig, RTreeStats};
