//! # `replica-tree` — distribution-tree substrate
//!
//! This crate implements the *distribution tree* of
//! Benoit, Renaud-Goud & Robert, *Power-aware replica placement and update
//! strategies in tree networks* (IPDPS 2011), §2.1:
//!
//! * the node set is partitioned into **internal nodes** `N` (candidate
//!   replica locations) and **clients** `C` (leaves issuing requests);
//! * every client is attached to exactly one internal node and sends a fixed
//!   number of requests per time unit;
//! * the tree is *fixed*: topology never changes during an optimization run
//!   (request volumes may, which is the subject of the update strategies).
//!
//! The crate provides:
//!
//! * an arena-backed [`Tree`] with cheap index-based [`NodeId`] / [`ClientId`]
//!   handles,
//! * a mutation-safe [`TreeBuilder`],
//! * [traversals](traversal) (post-order, pre-order, depths) over the
//!   pointer tree, for statistics and the model's re-evaluation oracle,
//! * the cache-friendly [`FlatTree`](layout) post-order layout (subtree =
//!   contiguous index range, with subtree demand aggregates) that every
//!   solver in `replica-core` iterates,
//! * seeded [random generators](generate) reproducing the exact tree shapes of
//!   the paper's evaluation section (fat 6–9-children trees and high
//!   2–4-children trees) plus standard synthetic shapes,
//! * [statistics](stats), [Graphviz export](dot) and serde round-tripping.
//!
//! Where this crate sits in the workspace: `docs/ARCHITECTURE.md` at the
//! repository root (crate map, paper-notation table, data-flow diagrams).
//!
//! ## Example
//!
//! ```
//! use replica_tree::{TreeBuilder, GeneratorConfig, random_tree};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Hand-built tree: root with two children, three clients.
//! let mut b = TreeBuilder::new();
//! let root = b.root();
//! let a = b.add_child(root);
//! let c = b.add_child(root);
//! b.add_client(a, 4);
//! b.add_client(c, 3);
//! b.add_client(root, 2);
//! let tree = b.build().unwrap();
//! assert_eq!(tree.internal_count(), 3);
//! assert_eq!(tree.total_requests(), 9);
//!
//! // Paper-shaped random tree (Experiment 1 of the evaluation).
//! let mut rng = StdRng::seed_from_u64(42);
//! let tree = random_tree(&GeneratorConfig::paper_fat(100), &mut rng);
//! assert_eq!(tree.internal_count(), 100);
//! ```

pub mod arena;
pub mod builder;
pub mod dot;
pub mod generate;
pub mod ids;
pub mod layout;
pub mod serde_impl;
pub mod stats;
pub mod text_format;
pub mod traversal;
pub mod validate;

pub use arena::{Client, Tree};
pub use builder::TreeBuilder;
pub use generate::{random_pre_existing, random_tree, GeneratorConfig, TreeShape};
pub use ids::{ClientId, NodeId};
pub use layout::{DirtySet, FlatTree};
pub use stats::TreeStats;
pub use validate::TreeError;
