//! Metrics-overhead microbench: point lookups on a warmed single-threaded
//! FPTree, reporting ns/op. Build and run it twice — once with default
//! features and once with `--no-default-features` — and compare:
//!
//! ```sh
//! cargo run --release -p fptree-bench --bin metrics_overhead
//! cargo run --release -p fptree-bench --bin metrics_overhead --no-default-features
//! ```
//!
//! The label in the output line says which configuration was measured
//! (`metrics_on` / `metrics_off`), so a CI job can grep both numbers out
//! and assert the delta. The claim under test: the sharded atomic counters
//! plus 1-in-8 latency sampling cost < 2% on the hottest read path.

use std::sync::Arc;
use std::time::Instant;

use fptree_bench::{shuffled_keys, Args};
use fptree_core::{ConcurrentFPTree, Metrics, TreeConfig};
use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};

fn main() {
    let args = Args::parse();
    let scale: usize = args.get("scale", 200_000);
    let rounds: usize = args.get("rounds", 5);

    let pool_mb = (scale * 4000 / (1 << 20) + 128).next_power_of_two();
    let pool = Arc::new(PmemPool::create(PoolOptions::direct(pool_mb << 20)).expect("pool"));
    let t = ConcurrentFPTree::create(pool, TreeConfig::fptree(), ROOT_SLOT);
    let keys = shuffled_keys(scale, 7);
    for &k in &keys {
        t.insert(&k, k);
    }

    // Warm-up pass, then the best of `rounds` timed passes (least noise).
    for &k in &keys {
        std::hint::black_box(t.get(&k));
    }
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for &k in &keys {
            std::hint::black_box(t.get(&k));
        }
        let ns = start.elapsed().as_nanos() as f64 / scale as f64;
        best = best.min(ns);
    }

    let label = if Metrics::enabled() {
        "metrics_on"
    } else {
        "metrics_off"
    };
    println!("{label} point_lookup_ns_per_op {best:.2}");
}
