//! Figure 12: impact of the dictionary index on (a) TATP read-only
//! throughput across SCM latencies and (b) database restart time.
//!
//! The database is the dictionary-encoded columnar engine of
//! `fptree-tatp`; each run swaps the dictionary index implementation.
//! Population uses sequential subscriber ids — the skewed load that forces
//! frequent NV-Tree inner rebuilds (§6.4). Restart = reopening every
//! persistent dictionary index from the pool image (or fully rebuilding the
//! transient STXTree) plus rebuilding the DRAM decode vectors.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use fptree_baselines::{adapters, NVTreeC, StxTree, WBTree};
use fptree_bench::{Args, Report, Row};
use fptree_core::index::U64Index;
use fptree_core::keys::FixedKey;
use fptree_core::{ConcurrentFPTree, ShardedTree, TreeConfig};
use fptree_pmem::{create_pools, LatencyProfile, PmemPool, PoolOptions, ROOT_SLOT};
use fptree_tatp::{run_mix, TatpDb};

const TREES: [&str; 5] = ["FPTree", "PTree", "NV-Tree", "wBTree", "STXTree"];

fn main() {
    let args = Args::parse();
    let subscribers: u64 = args.get("scale", 20_000);
    let clients: usize = args.get("clients", 8);
    let txns: usize = args.get("txns", 200_000);
    // `--shards N` (N > 1) adds a keyspace-sharded concurrent FPTree row:
    // every dictionary index becomes a ShardedTree over N pools, and
    // restart recovers all N shards of each index concurrently.
    let shards: usize = args.get("shards", 1);
    let want_metrics = args.flag("metrics");
    let out = args.get_str("out");
    let latencies: Vec<u64> = args
        .get_str("latencies")
        .map(|s| s.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|| vec![160, 250, 450, 650]);

    let mut tput = Report::new(
        "fig12_tatp",
        &format!("Figure 12a: TATP tx/s ({subscribers} subscribers, {clients} clients)"),
    );
    let mut restart = Report::new(
        "fig12_restart",
        "Figure 12b: DB restart time (ms): index recovery + decode rebuild",
    );

    let mut trees: Vec<&str> = TREES.to_vec();
    if shards > 1 {
        trees.push("FPTreeC-Sharded");
    }
    for tree in trees {
        let mut tput_row = Row::new(tree);
        let mut restart_row = Row::new(tree);
        for &latency in &latencies {
            let setup = Setup::new(tree, subscribers, latency, shards);
            let db = setup.populate(subscribers);
            let tps = run_mix(&db, clients, txns, 99);
            tput_row = tput_row.field(&format!("{latency}ns"), tps);
            let ms = setup.measure_restart(&db, latency, want_metrics);
            restart_row = restart_row.field(&format!("{latency}ns"), ms);
            eprintln!("{tree} @{latency}ns: {tps:.0} tx/s, restart {ms:.1} ms");
        }
        tput.push(tput_row);
        restart.push(restart_row);
    }
    tput.emit(out);
    restart.emit(out);
}

/// Per-tree factory state: one pool (or a shard-pool family), a directory
/// block of owner slots.
struct Setup {
    tree: &'static str,
    pool: Option<Arc<PmemPool>>,
    /// Pool family for the sharded variant: every dictionary index spans
    /// all of these, one sub-tree per pool.
    shard_pools: Option<Vec<Arc<PmemPool>>>,
    dir: u64,
    next_slot: Cell<u64>,
}

impl Setup {
    fn new(tree: &'static str, subscribers: u64, latency: u64, shards: usize) -> Setup {
        let pool_mb = ((subscribers as usize * 9 * 4000) / (1 << 20) + 512).next_power_of_two();
        let opts = |mb: usize| {
            PoolOptions::direct(mb << 20).with_latency(LatencyProfile::from_total(latency))
        };
        if tree == "FPTreeC-Sharded" {
            let per_shard_mb = (pool_mb / shards).max(64);
            let pools = create_pools(shards, opts(per_shard_mb)).expect("shard pools");
            // Directory of 64 owner slots in every shard pool. The pools
            // are freshly created identically, so the allocator hands back
            // the same offset in each — one `dir` serves the whole family.
            let dirs: Vec<u64> = pools
                .iter()
                .map(|p| p.allocate(ROOT_SLOT, 64 * 16).expect("directory"))
                .collect();
            assert!(
                dirs.windows(2).all(|w| w[0] == w[1]),
                "fresh shard pools must allocate the directory at one offset"
            );
            return Setup {
                tree,
                pool: None,
                shard_pools: Some(pools),
                dir: dirs[0],
                next_slot: Cell::new(0),
            };
        }
        let needs_pool = tree != "STXTree";
        let pool = needs_pool.then(|| Arc::new(PmemPool::create(opts(pool_mb)).expect("pool")));
        // Directory of 64 owner slots for the dictionary indexes.
        let dir = pool
            .as_ref()
            .map(|p| p.allocate(ROOT_SLOT, 64 * 16).expect("directory"))
            .unwrap_or(0);
        Setup {
            tree,
            pool,
            shard_pools: None,
            dir,
            next_slot: Cell::new(0),
        }
    }

    fn make_index(&self, _name: &str) -> Arc<dyn U64Index> {
        let slot = self.dir + self.next_slot.get() * 16;
        self.next_slot.set(self.next_slot.get() + 1);
        match self.tree {
            "FPTree" => Arc::new(ConcurrentFPTree::create(
                Arc::clone(self.pool.as_ref().expect("pool")),
                TreeConfig::fptree(),
                slot,
            )),
            "PTree" => Arc::new(ConcurrentFPTree::create(
                Arc::clone(self.pool.as_ref().expect("pool")),
                TreeConfig::ptree(),
                slot,
            )),
            // NV-Tree with the paper's §6.4 workaround sizes: large leaves
            // (1024) to space out rebuilds, small inner nodes (8).
            "NV-Tree" => Arc::new(NVTreeC::<FixedKey>::create(
                Arc::clone(self.pool.as_ref().expect("pool")),
                64,
                8,
                slot,
            )),
            "wBTree" => Arc::new(adapters::Locked::new(WBTree::<FixedKey>::create(
                Arc::clone(self.pool.as_ref().expect("pool")),
                64,
                32,
                slot,
            ))),
            "STXTree" => Arc::new(adapters::Locked::new(StxTree::<u64>::new())),
            "FPTreeC" => Arc::new(ConcurrentFPTree::create(
                Arc::clone(self.pool.as_ref().expect("pool")),
                TreeConfig::fptree_concurrent(),
                slot,
            )),
            "FPTreeC-Sharded" => Arc::new(ShardedTree::create(
                self.shard_pools.as_ref().expect("shard pools").clone(),
                TreeConfig::fptree_concurrent(),
                slot,
            )),
            other => panic!("unknown tree {other}"),
        }
    }

    fn populate(&self, subscribers: u64) -> TatpDb {
        let f = |name: &str| self.make_index(name);
        TatpDb::populate(subscribers, &f, 5)
    }

    /// Restart: reopen each persistent index from the pool image (timing
    /// it), or rebuild the transient tree from scratch; then rebuild decode
    /// vectors. Returns milliseconds.
    fn measure_restart(&self, db: &TatpDb, latency: u64, want_metrics: bool) -> f64 {
        if let Some(pools) = &self.shard_pools {
            // Sharded restart: reopen every shard pool from its clean
            // image, then recover each dictionary index — the open recovers
            // all of its shards concurrently.
            let images: Vec<Vec<u8>> = pools.iter().map(|p| p.clean_image()).collect();
            let opts = PoolOptions::direct(0).with_latency(LatencyProfile::from_total(latency));
            let mut recovered: Option<fptree_core::Snapshot> = None;
            let start = Instant::now();
            let pools2: Vec<Arc<PmemPool>> = images
                .into_iter()
                .map(|img| Arc::new(PmemPool::reopen(img, opts).expect("reopen")))
                .collect();
            for i in 0..self.next_slot.get() {
                let slot = self.dir + i * 16;
                let t = ShardedTree::open(pools2.clone(), slot).expect("recover");
                if want_metrics {
                    let snap = t.metrics_snapshot();
                    match &mut recovered {
                        Some(acc) => acc.merge(snap),
                        None => recovered = Some(snap),
                    }
                }
                std::hint::black_box(t);
            }
            db.rebuild_decodes();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if let Some(snap) = &recovered {
                fptree_bench::print_metrics(
                    &format!("{} restart @{latency}ns", self.tree),
                    Some(snap),
                );
            }
            return ms;
        }
        match &self.pool {
            Some(pool) => {
                let img = pool.clean_image();
                // Recovery work summed across all dictionary indexes.
                let mut recovered: Option<fptree_core::Snapshot> = None;
                let start = Instant::now();
                let pool2 = Arc::new(
                    PmemPool::reopen(
                        img,
                        PoolOptions::direct(0).with_latency(LatencyProfile::from_total(latency)),
                    )
                    .expect("reopen"),
                );
                let slots = self.next_slot.get();
                for i in 0..slots {
                    let slot = self.dir + i * 16;
                    match self.tree {
                        "FPTree" | "PTree" => {
                            let t =
                                ConcurrentFPTree::open(Arc::clone(&pool2), slot).expect("recover");
                            if want_metrics {
                                let snap = t.metrics_snapshot();
                                match &mut recovered {
                                    Some(acc) => acc.merge(snap),
                                    None => recovered = Some(snap),
                                }
                            }
                            std::hint::black_box(t);
                        }
                        "NV-Tree" => {
                            std::hint::black_box(NVTreeC::<FixedKey>::open(
                                Arc::clone(&pool2),
                                8,
                                slot,
                            ));
                        }
                        "wBTree" => {
                            std::hint::black_box(WBTree::<FixedKey>::open(
                                Arc::clone(&pool2),
                                slot,
                            ));
                        }
                        other => panic!("unexpected {other}"),
                    }
                }
                db.rebuild_decodes();
                let ms = start.elapsed().as_secs_f64() * 1e3;
                if let Some(snap) = &recovered {
                    fptree_bench::print_metrics(
                        &format!("{} restart @{latency}ns", self.tree),
                        Some(snap),
                    );
                }
                ms
            }
            None => {
                // Transient: rebuild every dictionary index from its decode
                // vector (the "full rebuild" baseline).
                let start = Instant::now();
                let f = |name: &str| self.make_index(name);
                let rebuilt = TatpDb::populate(db.subscribers(), &f, 5);
                std::hint::black_box(&rebuilt);
                start.elapsed().as_secs_f64() * 1e3
            }
        }
    }
}
