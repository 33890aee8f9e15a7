//! TATP on the prototype columnar database with FPTree dictionary indexes
//! (paper §6.4, Figure 12), including a restart.
//!
//! ```sh
//! cargo run --release --example tatp_demo
//! ```

use std::cell::Cell;
use std::sync::Arc;

use fptree_suite::core::index::U64Index;
use fptree_suite::core::{ConcurrentFPTree, TreeConfig};
use fptree_suite::pmem::{PmemPool, PoolOptions, ROOT_SLOT};
use fptree_suite::tatp::{run_mix, TatpDb};

fn main() {
    let subscribers = 5_000u64;
    let pool = Arc::new(PmemPool::create(PoolOptions::direct(512 << 20)).expect("pool"));

    // One owner slot per dictionary index, from a persistent directory.
    let dir = pool.allocate(ROOT_SLOT, 64 * 16).expect("directory");
    let next = Cell::new(0u64);
    let factory = |name: &str| -> Arc<dyn U64Index> {
        let slot = dir + next.get() * 16;
        next.set(next.get() + 1);
        let _ = name;
        Arc::new(ConcurrentFPTree::create(
            Arc::clone(&pool),
            TreeConfig::fptree(),
            slot,
        ))
    };

    println!("populating TATP with {subscribers} subscribers (sequential s_ids)...");
    let t = std::time::Instant::now();
    let db = TatpDb::populate(subscribers, &factory, 7);
    println!(
        "populated in {:?}: {} subscriber rows, {} access-info rows",
        t.elapsed(),
        db.subscriber.len(),
        db.access_info.len()
    );

    // Run the read-only mix with 4 clients.
    let tps = run_mix(&db, 4, 100_000, 42);
    println!("read-only TATP mix: {tps:.0} tx/s");

    // Individual queries.
    let row = db.get_subscriber_data(17).expect("subscriber 17");
    println!("GET_SUBSCRIBER_DATA(17) -> {row:?}");
    let access = db.get_access_data(17, 1).expect("access info");
    println!("GET_ACCESS_DATA(17, 1) -> {access:?}");

    // Restart: every dictionary index recovers from the pool image.
    let image = pool.clean_image();
    let t = std::time::Instant::now();
    let pool2 = Arc::new(PmemPool::reopen(image, PoolOptions::direct(0)).expect("reopen"));
    let slots = next.get();
    for i in 0..slots {
        std::hint::black_box(
            ConcurrentFPTree::open(Arc::clone(&pool2), dir + i * 16).expect("recover"),
        );
    }
    println!(
        "restart: {slots} dictionary indexes recovered in {:?}",
        t.elapsed()
    );
}
