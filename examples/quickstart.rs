//! Quickstart: create a persistent FPTree, use it, crash it, recover it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use fptree_suite::core::{ConcurrentFPTree, TreeConfig};
use fptree_suite::pmem::{PmemPool, PoolOptions, ROOT_SLOT};

fn main() {
    // 1. A simulated persistent-memory pool ("file"). Direct mode: stores
    //    are durable immediately; persistence primitives only cost latency.
    let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).expect("pool"));

    // 2. A persistent FPTree (the paper's single-threaded preset) rooted at
    //    the pool's root slot.
    let tree = ConcurrentFPTree::create(Arc::clone(&pool), TreeConfig::fptree(), ROOT_SLOT);

    // 3. Ordinary map operations; every mutation is crash-consistent.
    for i in 0..10_000u64 {
        tree.insert(&i, i * i);
    }
    assert_eq!(tree.get(&123), Some(123 * 123));
    tree.update(&123, 777);
    tree.remove(&124);
    println!("inserted 10k keys; get(123) = {:?}", tree.get(&123));

    // 4. Sorted range scans via the persistent leaf list.
    let range: Vec<(u64, u64)> = tree.scan(100..=110).collect();
    println!(
        "range [100, 110] -> {} entries, first = {:?}",
        range.len(),
        range.first()
    );

    // 5. Simulate a restart: snapshot the durable image, reopen, recover.
    //    Inner nodes are rebuilt from the SCM leaf list (Selective
    //    Persistence) — no log replay of data, no full reload.
    let scm = pool.alloc_stats().expect("heap walk").live_bytes as f64;
    let dram = tree.dram_bytes() as f64;
    println!(
        "before restart: {} leaves, {:.1} KiB SCM, {:.1} KiB DRAM ({:.2}% DRAM)",
        tree.leaf_offsets().len(),
        scm / 1024.0,
        dram / 1024.0,
        100.0 * dram / (scm + dram)
    );
    drop(tree);
    let image = pool.clean_image();
    let pool2 = Arc::new(PmemPool::reopen(image, PoolOptions::direct(0)).expect("reopen"));
    let t = std::time::Instant::now();
    let recovered = ConcurrentFPTree::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    println!(
        "recovered {} keys in {:?}; get(123) = {:?}",
        recovered.len(),
        t.elapsed(),
        recovered.get(&123)
    );
    assert_eq!(recovered.get(&123), Some(777));
    assert_eq!(recovered.get(&124), None);
    recovered
        .check_consistency()
        .expect("consistent after recovery");
    println!("consistency check passed");
}
