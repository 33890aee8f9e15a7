//! # FPTree — a hybrid SCM-DRAM persistent and concurrent B+-Tree
//!
//! Rust reproduction of *Oukid et al., "FPTree: A Hybrid SCM-DRAM Persistent
//! and Concurrent B-Tree for Storage Class Memory", SIGMOD 2016*.
//!
//! The FPTree keeps **leaf nodes in (simulated) storage class memory** and
//! **inner nodes in DRAM**, rebuilt on recovery (Selective Persistence). Leaf
//! lookups scan a one-byte-per-key **fingerprint** array first, bounding
//! expected in-leaf key probes to one. Inner-node work runs in (emulated)
//! **hardware transactions** while persistent leaf work runs outside them
//! under fine-grained leaf locks (Selective Concurrency). There is one tree
//! engine, [`ConcurrentTree`]; the paper's single-threaded FPTree and PTree
//! are [`TreeConfig`] presets on it.
//! All persistent-memory management follows the paper's sound programming
//! model: persistent pointers, a leak-preventing crash-safe allocator, and
//! micro-logged structural operations.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
//! use fptree_core::{ConcurrentFPTree, TreeConfig};
//!
//! let pool = Arc::new(PmemPool::create(PoolOptions::direct(32 << 20)).unwrap());
//! let tree = ConcurrentFPTree::create(Arc::clone(&pool), TreeConfig::fptree(), ROOT_SLOT);
//! tree.insert(&42, 4200);
//! assert_eq!(tree.get(&42), Some(4200));
//! let hits: Vec<(u64, u64)> = tree.scan(40..=50).collect();
//! assert_eq!(hits, vec![(42, 4200)]);
//! ```
//!
//! ## Crate map
//!
//! | Module | Paper section |
//! |---|---|
//! | [`fingerprint`] | §4.2 Fingerprints (+ Figure 4 analysis) |
//! | [`config`] / [`layout`] | Table 1 node sizing, Figure 2 leaf layout |
//! | [`keys`] | Appendix C variable-size keys |
//! | [`meta`] | §5 micro-logs |
//! | `ctx` | §5 split/delete micro-log protocols, Algorithm 17 audit, recovery phases |
//! | [`concurrent`] | the tree engine: §4.4 Selective Concurrency, Algorithms 1–9 |
//! | [`scan`] | ordered range scans over the unsorted leaf chain |
//! | [`metrics`] | observability: op latencies, contention counters |
//! | [`shard`] | keyspace-sharded multi-tree serving layer |
//! | [`api`] | builder + typed-error facade |

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod api;
mod batch;
pub mod concurrent;
pub mod config;
mod ctx;
pub mod fingerprint;
pub mod index;
pub mod keys;
pub mod layout;
pub mod leaf;
pub mod meta;
pub mod metrics;
pub mod scan;
pub mod shard;

pub use api::{Error, TreeBuilder, MAX_KEY_BYTES};
pub use concurrent::{ConcKey, ConcurrentFPTree, ConcurrentFPTreeVar, ConcurrentTree};
pub use config::TreeConfig;
pub use index::{BytesIndex, U64Index};
pub use keys::{FixedKey, KeyKind, VarKey};
pub use layout::LeafLayout;
pub use metrics::{Counter, Metrics, Op, OpTimer, RecoveryStats, Snapshot};
pub use scan::{ConcScan, ScanBounds};
pub use shard::{
    bytes_shard, u64_shard, ShardKey, Sharded, ShardedScan, ShardedTree, ShardedTreeVar,
};
