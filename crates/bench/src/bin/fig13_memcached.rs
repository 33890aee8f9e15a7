//! Figure 13: memcached SET/GET throughput per index, at SCM latencies 85
//! and 145 ns (local vs remote socket on the paper's HTM machine).
//!
//! mc-benchmark style: `--scale` SETs then the same number of GETs with
//! `--clients` concurrent clients and a modeled per-request network cost
//! (`--net-us`, default 8 µs ≈ a saturated GbE round-trip share). The claim
//! under test: concurrent indexes (FPTreeC, NV-TreeC, hash) are
//! network-bound (near-identical throughput), single-threaded trees behind
//! a global lock (wBTree, STXTree) bottleneck on SETs. The FPTree and PTree
//! rows are the single-threaded presets of the one (concurrent) engine.

use std::sync::Arc;

use fptree_baselines::{adapters, HashIndex, NVTreeC, StxTree, WBTree};
use fptree_bench::{Args, Report, Row};
use fptree_core::concurrent::ConcurrentFPTreeVar;
use fptree_core::index::BytesIndex;
use fptree_core::keys::VarKey;
use fptree_core::TreeConfig;
use fptree_kvcache::{run_mcbench, Cache, KvCache, McBenchConfig, ShardedCache};
use fptree_pmem::{LatencyProfile, PmemPool, PoolOptions, ROOT_SLOT};

const INDEXES: [&str; 7] = [
    "FPTree", "FPTreeC", "PTree", "NV-TreeC", "wBTree", "STXTree", "HashMap",
];

fn main() {
    let args = Args::parse();
    let requests: usize = args.get("scale", 200_000);
    let clients: usize = args.get("clients", 50);
    let net_us: u64 = args.get("net-us", 8);
    let shards: usize = args.get("shards", 1);
    let want_metrics = args.flag("metrics");
    let out = args.get_str("out");

    for latency in [85u64, 145] {
        let mut report = Report::new(
            "fig13_memcached",
            &format!(
                "Figure 13: mc-benchmark throughput (kOps/s) @{latency}ns, {requests} reqs, {clients} clients, net {net_us}µs, {shards} shard(s)"
            ),
        );
        for name in INDEXES {
            let cache: Arc<dyn Cache> = if shards > 1 {
                // One independent index (own pool) per shard; keys are
                // hash-routed by the cache layer.
                let indexes = (0..shards)
                    .map(|_| build_index(name, requests / shards + 1, latency))
                    .collect();
                Arc::new(ShardedCache::new(indexes))
            } else {
                Arc::new(KvCache::new(build_index(name, requests, latency)))
            };
            let cfg = McBenchConfig {
                requests,
                clients,
                keyspace: requests,
                value_size: 32,
                net_ns: net_us * 1000,
            };
            let r = run_mcbench(cache.as_ref(), &cfg);
            eprintln!(
                "{name} @{latency}ns: SET {:.1} kOps/s, GET {:.1} kOps/s",
                r.set.ops_per_sec / 1e3,
                r.get.ops_per_sec / 1e3
            );
            let mut row = Row::new(name)
                .field("set_kops", r.set.ops_per_sec / 1e3)
                .field("get_kops", r.get.ops_per_sec / 1e3);
            if want_metrics {
                // Cache-level snapshot: hit/miss counters plus the backing
                // tree's own registry merged in (insert/get op counts).
                let snap = cache.stats_snapshot();
                fptree_bench::print_metrics(&format!("{name} @{latency}ns"), Some(&snap));
                row = row.with_metrics(Some(snap));
            }
            report.push(row);
        }
        report.emit(out);
    }
}

fn build_index(name: &str, requests: usize, latency: u64) -> Arc<dyn BytesIndex> {
    let pool_mb = ((requests * 6000) / (1 << 20) + 512).next_power_of_two();
    let pool = || {
        Arc::new(
            PmemPool::create(
                PoolOptions::direct(pool_mb << 20)
                    .with_latency(LatencyProfile::from_total(latency)),
            )
            .expect("pool"),
        )
    };
    match name {
        "FPTree" => Arc::new(ConcurrentFPTreeVar::create(
            pool(),
            TreeConfig::fptree_var(),
            ROOT_SLOT,
        )),
        "FPTreeC" => Arc::new(ConcurrentFPTreeVar::create(
            pool(),
            TreeConfig::fptree_concurrent_var(),
            ROOT_SLOT,
        )),
        "PTree" => Arc::new(ConcurrentFPTreeVar::create(
            pool(),
            TreeConfig::ptree_var(),
            ROOT_SLOT,
        )),
        "NV-TreeC" => Arc::new(NVTreeC::<VarKey>::create(pool(), 32, 128, ROOT_SLOT)),
        "wBTree" => Arc::new(adapters::Locked::new(WBTree::<VarKey>::create(
            pool(),
            64,
            32,
            ROOT_SLOT,
        ))),
        "STXTree" => Arc::new(adapters::Locked::new(StxTree::<Vec<u8>>::with_capacities(
            8, 8,
        ))),
        "HashMap" => Arc::new(HashIndex::<Vec<u8>>::new(1024)),
        other => panic!("unknown index {other}"),
    }
}
