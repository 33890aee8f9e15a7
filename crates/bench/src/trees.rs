//! Unified handles over every evaluated tree, configured with the node
//! sizes of Table 1.

use std::sync::Arc;

use fptree_baselines::{NVTreeC, StxTree, WBTree};
use fptree_core::keys::{FixedKey, VarKey};
use fptree_core::{ConcurrentFPTree, ConcurrentFPTreeVar, TreeConfig};
use fptree_pmem::{LatencyProfile, PmemPool, PoolOptions, ROOT_SLOT};

/// The trees of the evaluation (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// The paper's single-threaded FPTree preset (fingerprints, 4096-way
    /// inner nodes) on the one tree engine.
    FPTree,
    /// PTree preset: selective persistence + unsorted leaves only.
    PTree,
    /// NV-Tree (DRAM inner nodes granted, as in the paper).
    NVTree,
    /// wBTree: all-SCM, sorted indirection slot arrays.
    WBTree,
    /// STX B+-Tree: the transient DRAM reference.
    Stx,
    /// Concurrent FPTree (selective concurrency).
    FPTreeC,
}

impl TreeKind {
    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            TreeKind::FPTree => "FPTree",
            TreeKind::PTree => "PTree",
            TreeKind::NVTree => "NV-Tree",
            TreeKind::WBTree => "wBTree",
            TreeKind::Stx => "STXTree",
            TreeKind::FPTreeC => "FPTreeC",
        }
    }

    /// The single-threaded comparison set of Figure 7.
    pub fn fig7_set() -> [TreeKind; 5] {
        [
            TreeKind::FPTree,
            TreeKind::PTree,
            TreeKind::NVTree,
            TreeKind::WBTree,
            TreeKind::Stx,
        ]
    }
}

fn make_pool(mb: usize, total_latency_ns: u64) -> Arc<PmemPool> {
    Arc::new(
        PmemPool::create(
            PoolOptions::direct(mb << 20)
                .with_latency(LatencyProfile::from_total(total_latency_ns)),
        )
        .expect("pool creation"),
    )
}

/// A fixed-size-key tree under benchmark, owning its pool.
#[allow(clippy::large_enum_variant)] // a handful of handles, not hot data
pub enum AnyTree {
    NV(NVTreeC<FixedKey>),
    WB(WBTree<FixedKey>),
    Stx(StxTree<u64>, Option<Arc<PmemPool>>),
    FPC(ConcurrentFPTree),
}

impl AnyTree {
    /// Builds a tree of `kind` with Table 1 node sizes, over a fresh pool
    /// of `pool_mb` MiB emulating `latency_ns` total SCM latency.
    /// `value_size` models larger payloads (Appendix A); pass 8 normally.
    pub fn build(kind: TreeKind, pool_mb: usize, latency_ns: u64, value_size: usize) -> AnyTree {
        let fp = |preset: TreeConfig| {
            let cfg = preset.with_value_size(value_size);
            let pool = make_pool(pool_mb, latency_ns);
            AnyTree::FPC(ConcurrentFPTree::create(pool, cfg, ROOT_SLOT))
        };
        match kind {
            TreeKind::FPTree => fp(TreeConfig::fptree()),
            TreeKind::PTree => fp(TreeConfig::ptree()),
            TreeKind::FPTreeC => fp(TreeConfig::fptree_concurrent()),
            TreeKind::NVTree => {
                let pool = make_pool(pool_mb, latency_ns);
                AnyTree::NV(NVTreeC::create(pool, 32, 128, ROOT_SLOT))
            }
            TreeKind::WBTree => {
                let pool = make_pool(pool_mb, latency_ns);
                AnyTree::WB(WBTree::create(pool, 64, 32, ROOT_SLOT))
            }
            TreeKind::Stx => AnyTree::Stx(StxTree::with_capacities(16, 16), None),
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, k: u64, v: u64) -> bool {
        match self {
            AnyTree::NV(t) => t.insert(&k, v),
            AnyTree::WB(t) => t.insert(&k, v),
            AnyTree::Stx(t, _) => t.insert(&k, v),
            AnyTree::FPC(t) => t.insert(&k, v),
        }
    }

    /// Point lookup.
    pub fn get(&self, k: u64) -> Option<u64> {
        match self {
            AnyTree::NV(t) => t.get(&k),
            AnyTree::WB(t) => t.get(&k),
            AnyTree::Stx(t, _) => t.get(&k),
            AnyTree::FPC(t) => t.get(&k),
        }
    }

    /// Updates an existing key.
    pub fn update(&mut self, k: u64, v: u64) -> bool {
        match self {
            AnyTree::NV(t) => t.update(&k, v),
            AnyTree::WB(t) => t.update(&k, v),
            AnyTree::Stx(t, _) => t.update(&k, v),
            AnyTree::FPC(t) => t.update(&k, v),
        }
    }

    /// Removes a key.
    pub fn remove(&mut self, k: u64) -> bool {
        match self {
            AnyTree::NV(t) => t.remove(&k),
            AnyTree::WB(t) => t.remove(&k),
            AnyTree::Stx(t, _) => t.remove(&k),
            AnyTree::FPC(t) => t.remove(&k),
        }
    }

    /// Batched insert (`--batch`): FPTree variants take the amortized
    /// one-commit-per-leaf-run path; baselines without a batch API loop.
    pub fn insert_batch(&mut self, entries: &[(u64, u64)]) -> usize {
        match self {
            AnyTree::FPC(t) => t.insert_batch(entries),
            _ => entries.iter().filter(|(k, v)| self.insert(*k, *v)).count(),
        }
    }

    /// Batched remove; baselines without a batch API loop.
    pub fn remove_batch(&mut self, keys: &[u64]) -> usize {
        match self {
            AnyTree::FPC(t) => t.remove_batch(keys),
            _ => keys.iter().filter(|k| self.remove(**k)).count(),
        }
    }

    /// Ordered range scan: up to `count` pairs with keys `>= start`.
    pub fn scan_from(&self, start: u64, count: usize) -> Vec<(u64, u64)> {
        match self {
            AnyTree::NV(t) => t.scan_from(&start, count),
            AnyTree::WB(t) => t.scan_from(&start, count),
            AnyTree::Stx(t, _) => t.scan_from(&start, count),
            AnyTree::FPC(t) => t.scan(start..).take(count).collect(),
        }
    }

    /// `(scm_bytes, dram_bytes)` footprint (Figure 8).
    pub fn memory(&self) -> (u64, u64) {
        match self {
            AnyTree::NV(t) => {
                let (scm, dram, _) = t.memory_usage();
                (scm, dram)
            }
            AnyTree::WB(t) => {
                // All SCM: the allocator's live bytes.
                let stats = t.pool().alloc_stats().expect("walk");
                (stats.live_bytes, 0)
            }
            AnyTree::Stx(t, _) => (0, t.memory_bytes(8) as u64),
            AnyTree::FPC(t) => {
                let stats = t.pool().alloc_stats().expect("walk");
                (stats.live_bytes, t.dram_bytes() as u64)
            }
        }
    }

    /// The backing pool, if any.
    pub fn pool(&self) -> Option<&Arc<PmemPool>> {
        t_pool(self)
    }

    /// The tree's observability snapshot (`--metrics`); None for baselines
    /// that carry no registry.
    pub fn metrics_snapshot(&self) -> Option<fptree_core::Snapshot> {
        match self {
            AnyTree::FPC(t) => Some(t.metrics_snapshot()),
            _ => None,
        }
    }

    /// The concurrent FPTree handle, when this is one — lets benchmarks
    /// drive writers from other threads while the main thread scans.
    pub fn as_concurrent(&self) -> Option<&ConcurrentFPTree> {
        match self {
            AnyTree::FPC(t) => Some(t),
            _ => None,
        }
    }
}

fn t_pool(t: &AnyTree) -> Option<&Arc<PmemPool>> {
    match t {
        AnyTree::NV(t) => Some(t.pool()),
        AnyTree::WB(t) => Some(t.pool()),
        AnyTree::Stx(_, p) => p.as_ref(),
        AnyTree::FPC(t) => Some(t.pool()),
    }
}

/// A variable-size-key tree under benchmark.
#[allow(clippy::large_enum_variant)]
pub enum AnyTreeVar {
    NV(NVTreeC<VarKey>),
    WB(WBTree<VarKey>),
    Stx(StxTree<Vec<u8>>),
    FPC(ConcurrentFPTreeVar),
}

impl AnyTreeVar {
    /// Builds the variable-size-key variant of `kind` (Table 1 sizes).
    pub fn build(kind: TreeKind, pool_mb: usize, latency_ns: u64) -> AnyTreeVar {
        let fp = |cfg: TreeConfig| {
            let pool = make_pool(pool_mb, latency_ns);
            AnyTreeVar::FPC(ConcurrentFPTreeVar::create(pool, cfg, ROOT_SLOT))
        };
        match kind {
            TreeKind::FPTree => fp(TreeConfig::fptree_var()),
            TreeKind::PTree => fp(TreeConfig::ptree_var()),
            TreeKind::FPTreeC => fp(TreeConfig::fptree_concurrent_var()),
            TreeKind::NVTree => {
                let pool = make_pool(pool_mb, latency_ns);
                AnyTreeVar::NV(NVTreeC::create(pool, 32, 128, ROOT_SLOT))
            }
            TreeKind::WBTree => {
                let pool = make_pool(pool_mb, latency_ns);
                AnyTreeVar::WB(WBTree::create(pool, 64, 32, ROOT_SLOT))
            }
            TreeKind::Stx => AnyTreeVar::Stx(StxTree::with_capacities(8, 8)),
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, k: &[u8], v: u64) -> bool {
        let key = k.to_vec();
        match self {
            AnyTreeVar::NV(t) => t.insert(&key, v),
            AnyTreeVar::WB(t) => t.insert(&key, v),
            AnyTreeVar::Stx(t) => t.insert(&key, v),
            AnyTreeVar::FPC(t) => t.insert(&key, v),
        }
    }

    /// Point lookup.
    pub fn get(&self, k: &[u8]) -> Option<u64> {
        let key = k.to_vec();
        match self {
            AnyTreeVar::NV(t) => t.get(&key),
            AnyTreeVar::WB(t) => t.get(&key),
            AnyTreeVar::Stx(t) => t.get(&key),
            AnyTreeVar::FPC(t) => t.get(&key),
        }
    }

    /// Updates an existing key.
    pub fn update(&mut self, k: &[u8], v: u64) -> bool {
        let key = k.to_vec();
        match self {
            AnyTreeVar::NV(t) => t.update(&key, v),
            AnyTreeVar::WB(t) => t.update(&key, v),
            AnyTreeVar::Stx(t) => t.update(&key, v),
            AnyTreeVar::FPC(t) => t.update(&key, v),
        }
    }

    /// Removes a key.
    pub fn remove(&mut self, k: &[u8]) -> bool {
        let key = k.to_vec();
        match self {
            AnyTreeVar::NV(t) => t.remove(&key),
            AnyTreeVar::WB(t) => t.remove(&key),
            AnyTreeVar::Stx(t) => t.remove(&key),
            AnyTreeVar::FPC(t) => t.remove(&key),
        }
    }

    /// Batched insert (`--batch`): FPTree variants take the amortized
    /// one-commit-per-leaf-run path; baselines without a batch API loop.
    pub fn insert_batch(&mut self, entries: &[(Vec<u8>, u64)]) -> usize {
        match self {
            AnyTreeVar::FPC(t) => t.insert_batch(entries),
            _ => entries.iter().filter(|(k, v)| self.insert(k, *v)).count(),
        }
    }

    /// Batched remove; baselines without a batch API loop.
    pub fn remove_batch(&mut self, keys: &[Vec<u8>]) -> usize {
        match self {
            AnyTreeVar::FPC(t) => t.remove_batch(keys),
            _ => keys.iter().filter(|k| self.remove(k)).count(),
        }
    }

    /// Ordered range scan: up to `count` pairs with keys `>= start`.
    pub fn scan_from(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
        let key = start.to_vec();
        match self {
            AnyTreeVar::NV(t) => t.scan_from(&key, count),
            AnyTreeVar::WB(t) => t.scan_from(&key, count),
            AnyTreeVar::Stx(t) => t.scan_from(&key, count),
            AnyTreeVar::FPC(t) => t.scan(key..).take(count).collect(),
        }
    }

    /// `(scm_bytes, dram_bytes)` footprint.
    pub fn memory(&self) -> (u64, u64) {
        match self {
            AnyTreeVar::NV(t) => {
                let (scm, dram, _) = t.memory_usage();
                (scm, dram)
            }
            AnyTreeVar::WB(t) => {
                let stats = t.pool().alloc_stats().expect("walk");
                (stats.live_bytes, 0)
            }
            AnyTreeVar::Stx(t) => (0, t.memory_bytes(24) as u64),
            AnyTreeVar::FPC(t) => {
                let stats = t.pool().alloc_stats().expect("walk");
                (stats.live_bytes, t.dram_bytes() as u64)
            }
        }
    }

    /// The backing pool, if any.
    pub fn pool(&self) -> Option<&Arc<PmemPool>> {
        match self {
            AnyTreeVar::NV(t) => Some(t.pool()),
            AnyTreeVar::WB(t) => Some(t.pool()),
            AnyTreeVar::Stx(_) => None,
            AnyTreeVar::FPC(t) => Some(t.pool()),
        }
    }

    /// The tree's observability snapshot (`--metrics`); None for baselines
    /// that carry no registry.
    pub fn metrics_snapshot(&self) -> Option<fptree_core::Snapshot> {
        match self {
            AnyTreeVar::FPC(t) => Some(t.metrics_snapshot()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_round_trips() {
        for kind in [
            TreeKind::FPTree,
            TreeKind::PTree,
            TreeKind::NVTree,
            TreeKind::WBTree,
            TreeKind::Stx,
            TreeKind::FPTreeC,
        ] {
            let mut t = AnyTree::build(kind, 64, 90, 8);
            for i in 0..500u64 {
                assert!(t.insert(i, i + 1), "{:?} insert {i}", kind);
            }
            for i in 0..500u64 {
                assert_eq!(t.get(i), Some(i + 1), "{:?} get {i}", kind);
            }
            assert!(t.update(7, 70));
            assert!(t.remove(8));
            assert_eq!(t.get(7), Some(70));
            assert_eq!(t.get(8), None);
            let s = t.scan_from(100, 5);
            let expect: Vec<_> = (100..105).map(|i| (i, i + 1)).collect();
            assert_eq!(s, expect, "{:?} scan_from", kind);
            // Scan over the deleted key 8: skipped, not counted.
            assert_eq!(
                t.scan_from(7, 3),
                vec![(7, 70), (9, 10), (10, 11)],
                "{:?} scan over hole",
                kind
            );
        }
    }

    #[test]
    fn every_var_kind_builds_and_round_trips() {
        for kind in [
            TreeKind::FPTree,
            TreeKind::PTree,
            TreeKind::NVTree,
            TreeKind::WBTree,
            TreeKind::Stx,
            TreeKind::FPTreeC,
        ] {
            let mut t = AnyTreeVar::build(kind, 128, 90);
            for i in 0..300u64 {
                let k = crate::keys::string_key(i);
                assert!(t.insert(&k, i), "{:?} insert {i}", kind);
            }
            for i in 0..300u64 {
                assert_eq!(t.get(&crate::keys::string_key(i)), Some(i), "{:?}", kind);
            }
        }
    }
}
