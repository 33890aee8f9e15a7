//! Table 1: node-size tuning — "a preliminary experiment to determine the
//! best node sizes for every tree".
//!
//! Sweeps leaf and inner capacities per tree on a warm+find+insert mix at
//! `--latency` (default 250 ns) and prints the best configuration next to
//! the paper's choice.

use std::sync::Arc;
use std::time::Instant;

use fptree_baselines::{NVTreeC, StxTree, WBTree};
use fptree_bench::{shuffled_keys, Args, Report, Row};
use fptree_core::keys::FixedKey;
use fptree_core::{ConcurrentFPTree, TreeConfig};
use fptree_pmem::{LatencyProfile, PmemPool, PoolOptions, ROOT_SLOT};

fn main() {
    let args = Args::parse();
    let scale: usize = args.get("scale", 20_000);
    let latency: u64 = args.get("latency", 250);
    let out = args.get_str("out");
    let keys = shuffled_keys(scale, 31);
    let probe = shuffled_keys(scale, 32);

    let mut report = Report::new(
        "table1_node_sizes",
        &format!("Table 1 sweep: best (leaf, inner) by mixed ops/s @{latency}ns"),
    );

    // FPTree: leaf in {16, 32, 56, 64}, inner in {64, 512, 4096}.
    let mut best = (0.0f64, 0usize, 0usize);
    for leaf in [16usize, 32, 56, 64] {
        for inner in [64usize, 512, 4096] {
            let cfg = TreeConfig::fptree()
                .with_leaf_capacity(leaf)
                .with_inner_fanout(inner);
            let ops = bench_single(cfg, &keys, &probe, latency);
            if ops > best.0 {
                best = (ops, leaf, inner);
            }
        }
    }
    report.push(
        Row::new("FPTree (paper: 56/4096)")
            .field("best_leaf", best.1 as f64)
            .field("best_inner", best.2 as f64)
            .field("mops", best.0 / 1e6),
    );

    // PTree.
    let mut best = (0.0f64, 0usize, 0usize);
    for leaf in [16usize, 32, 64] {
        for inner in [64usize, 512, 4096] {
            let cfg = TreeConfig::ptree()
                .with_leaf_capacity(leaf)
                .with_inner_fanout(inner);
            let ops = bench_single(cfg, &keys, &probe, latency);
            if ops > best.0 {
                best = (ops, leaf, inner);
            }
        }
    }
    report.push(
        Row::new("PTree (paper: 32/4096)")
            .field("best_leaf", best.1 as f64)
            .field("best_inner", best.2 as f64)
            .field("mops", best.0 / 1e6),
    );

    // wBTree: leaf/inner caps.
    let mut best = (0.0f64, 0usize, 0usize);
    for leaf in [16usize, 32, 64] {
        for inner in [8usize, 16, 32, 64] {
            let pool = make_pool(scale, latency);
            let mut t = WBTree::<FixedKey>::create(pool, leaf, inner, ROOT_SLOT);
            let ops = bench_ops(&keys, &probe, |op| match op {
                Op::Insert(k, v) => {
                    t.insert(&k, v);
                    true
                }
                Op::Find(k) => t.get(&k).is_some(),
            });
            if ops > best.0 {
                best = (ops, leaf, inner);
            }
        }
    }
    report.push(
        Row::new("wBTree (paper: 64/32)")
            .field("best_leaf", best.1 as f64)
            .field("best_inner", best.2 as f64)
            .field("mops", best.0 / 1e6),
    );

    // NV-Tree.
    let mut best = (0.0f64, 0usize, 0usize);
    for leaf in [16usize, 32, 64] {
        for inner in [32usize, 128, 512] {
            let pool = make_pool(scale, latency);
            let t = NVTreeC::<FixedKey>::create(pool, leaf, inner, ROOT_SLOT);
            let ops = bench_ops(&keys, &probe, |op| match op {
                Op::Insert(k, v) => {
                    t.insert(&k, v);
                    true
                }
                Op::Find(k) => t.get(&k).is_some(),
            });
            if ops > best.0 {
                best = (ops, leaf, inner);
            }
        }
    }
    report.push(
        Row::new("NV-Tree (paper: 32/128)")
            .field("best_leaf", best.1 as f64)
            .field("best_inner", best.2 as f64)
            .field("mops", best.0 / 1e6),
    );

    // STXTree.
    let mut best = (0.0f64, 0usize, 0usize);
    for leaf in [8usize, 16, 64, 256] {
        for inner in [8usize, 16, 64, 256] {
            let mut t = StxTree::<u64>::with_capacities(leaf, inner);
            let ops = bench_ops(&keys, &probe, |op| match op {
                Op::Insert(k, v) => {
                    t.insert(&k, v);
                    true
                }
                Op::Find(k) => t.get(&k).is_some(),
            });
            if ops > best.0 {
                best = (ops, leaf, inner);
            }
        }
    }
    report.push(
        Row::new("STXTree (paper: 16/16)")
            .field("best_leaf", best.1 as f64)
            .field("best_inner", best.2 as f64)
            .field("mops", best.0 / 1e6),
    );

    report.emit(out);
}

fn make_pool(scale: usize, latency: u64) -> Arc<PmemPool> {
    let mb = (scale * 5000 / (1 << 20) + 128).next_power_of_two();
    Arc::new(
        PmemPool::create(
            PoolOptions::direct(mb << 20).with_latency(LatencyProfile::from_total(latency)),
        )
        .expect("pool"),
    )
}

fn bench_single(cfg: TreeConfig, keys: &[u64], probe: &[u64], latency: u64) -> f64 {
    let pool = make_pool(keys.len(), latency);
    let t = ConcurrentFPTree::create(pool, cfg, ROOT_SLOT);
    bench_ops(keys, probe, |op| match op {
        Op::Insert(k, v) => {
            t.insert(&k, v);
            true
        }
        Op::Find(k) => t.get(&k).is_some(),
    })
}

/// One benchmark operation.
enum Op {
    Insert(u64, u64),
    Find(u64),
}

/// Warm with inserts, then time probe finds + 20% extra inserts; ops/s.
fn bench_ops(keys: &[u64], probe: &[u64], mut run: impl FnMut(Op) -> bool) -> f64 {
    for &k in keys {
        run(Op::Insert(k, k));
    }
    let start = Instant::now();
    let mut hits = 0usize;
    for &k in keys {
        hits += run(Op::Find(k)) as usize;
    }
    for &k in &probe[..probe.len() / 5] {
        run(Op::Insert(k, k));
    }
    assert_eq!(hits, keys.len(), "warm keys must all be found");
    (keys.len() + probe.len() / 5) as f64 / start.elapsed().as_secs_f64()
}
