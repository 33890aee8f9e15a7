//! Latency explorer: how each design principle behaves as SCM gets slower.
//!
//! Sweeps the emulated SCM latency and prints per-operation costs for the
//! FPTree against the PTree ablation (no fingerprints) and the all-SCM
//! wBTree — a compact live demonstration of Figures 7's shape.
//!
//! ```sh
//! cargo run --release --example latency_explorer
//! ```

use std::sync::Arc;
use std::time::Instant;

use fptree_suite::baselines::WBTree;
use fptree_suite::core::keys::FixedKey;
use fptree_suite::core::{ConcurrentFPTree, TreeConfig};
use fptree_suite::pmem::{LatencyProfile, PmemPool, PoolOptions, ROOT_SLOT};

const N: usize = 20_000;

fn main() {
    println!(
        "{:>10} {:>14} {:>14} {:>14}",
        "latency", "FPTree µs/get", "PTree µs/get", "wBTree µs/get"
    );
    for total_ns in [90u64, 160, 250, 360, 450, 550, 650] {
        let latency = LatencyProfile::from_total(total_ns);
        let keys: Vec<u64> = (0..N as u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();

        let mut times = Vec::new();
        for which in ["fptree", "ptree", "wbtree"] {
            let pool = Arc::new(
                PmemPool::create(PoolOptions::direct(256 << 20).with_latency(latency))
                    .expect("pool"),
            );
            let us = match which {
                "fptree" | "ptree" => {
                    let cfg = if which == "fptree" {
                        TreeConfig::fptree()
                    } else {
                        TreeConfig::ptree()
                    };
                    let t = ConcurrentFPTree::create(pool, cfg, ROOT_SLOT);
                    for &k in &keys {
                        t.insert(&k, k);
                    }
                    let start = Instant::now();
                    for &k in &keys {
                        std::hint::black_box(t.get(&k));
                    }
                    start.elapsed().as_secs_f64() * 1e6 / N as f64
                }
                _ => {
                    let mut t = WBTree::<FixedKey>::create(pool, 64, 32, ROOT_SLOT);
                    for &k in &keys {
                        t.insert(&k, k);
                    }
                    let start = Instant::now();
                    for &k in &keys {
                        std::hint::black_box(t.get(&k));
                    }
                    start.elapsed().as_secs_f64() * 1e6 / N as f64
                }
            };
            times.push(us);
        }
        println!(
            "{:>8}ns {:>14.3} {:>14.3} {:>14.3}",
            total_ns, times[0], times[1], times[2]
        );
    }
    println!("\nFPTree flattens (1–2 SCM misses per lookup); the all-SCM wBTree pays\nlatency at every level; the PTree pays linear leaf scans.");
}
