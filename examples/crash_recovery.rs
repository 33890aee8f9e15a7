//! Crash recovery demo: power-fail the tree at a random instruction and
//! watch it recover — micro-log replay, leak audit, inner-node rebuild.
//!
//! ```sh
//! cargo run --example crash_recovery
//! ```

use std::sync::Arc;

use fptree_suite::core::{ConcurrentFPTreeVar, TreeConfig};
use fptree_suite::pmem::{crash_is_injected, PmemPool, PoolOptions, ROOT_SLOT};

fn main() {
    // Injected crashes are panics by design; keep the output readable.
    std::panic::set_hook(Box::new(|_| {}));
    for round in 0..5u64 {
        // Tracked mode: stores sit in a simulated CPU cache until
        // explicitly persisted; a crash loses unflushed data at 8-byte
        // granularity.
        let pool = Arc::new(PmemPool::create(PoolOptions::tracked(64 << 20)).expect("pool"));

        // Arm the crash fuse: the pool will panic (simulated power failure)
        // after a pseudo-random number of persistence events.
        let fuse = 500 + round * 137;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cfg = TreeConfig::fptree_var()
                .with_leaf_capacity(8)
                .with_inner_fanout(8);
            let tree = ConcurrentFPTreeVar::create(Arc::clone(&pool), cfg, ROOT_SLOT);
            pool.set_crash_fuse(Some(fuse));
            for i in 0..200u64 {
                let key = format!("user:{i:04}").into_bytes();
                tree.insert(&key, i);
                if i % 3 == 0 {
                    tree.update(&key, i + 1000);
                }
                if i % 5 == 0 {
                    tree.remove(&key);
                }
            }
        }));
        pool.set_crash_fuse(None);
        match result {
            Ok(()) => println!("round {round}: workload finished before the fuse"),
            Err(e) => {
                assert!(crash_is_injected(e.as_ref()), "unexpected panic");
                println!("round {round}: power failed after {fuse} persistence events");
            }
        }

        // Materialize what SCM contains after the failure (unflushed 8-byte
        // words are randomly lost) and recover.
        let image = pool.crash_image(round);
        let pool2 = Arc::new(PmemPool::reopen(image, PoolOptions::tracked(0)).expect("reopen"));
        let tree = ConcurrentFPTreeVar::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
        tree.check_consistency()
            .expect("recovered tree is consistent");

        // Leak audit: every live allocator block must be reachable from the
        // tree (metadata, leaves, key blobs) — the paper's §2 claim.
        tree.leak_audit().expect("no persistent leaks");
        let live = pool2.live_blocks().expect("heap walk");
        println!(
            "round {round}: recovered {} keys, {} live SCM blocks, zero leaks, zero corruption",
            tree.len(),
            live.len()
        );
    }
    println!("all rounds recovered cleanly");
}
