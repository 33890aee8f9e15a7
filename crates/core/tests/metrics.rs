//! Metrics-oracle integration tests: exact counter values against a known
//! single-threaded workload on the paper's single-threaded FPTree preset, sum-consistency across 8 threads, and the
//! snapshot's JSON serialization round-tripped through a real tree.
//!
//! Every test runs under both feature configurations: with `metrics` (the
//! default) the oracle values must match exactly; with
//! `--no-default-features` every counter must read zero while the field
//! names stay present (the API contract that lets dashboards keep their
//! queries regardless of the build).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fptree_core::{ConcurrentFPTree, Metrics, TreeConfig};
use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};

fn pool(mb: usize) -> Arc<PmemPool> {
    Arc::new(PmemPool::create(PoolOptions::direct(mb << 20)).expect("pool"))
}

/// Exact per-op and outcome counters for a fixed single-threaded workload.
#[test]
fn single_threaded_counter_oracle() {
    let t = ConcurrentFPTree::create(pool(64), TreeConfig::fptree(), ROOT_SLOT);
    for k in 0..100u64 {
        t.insert(&k, k);
    }
    for k in 0..10u64 {
        t.insert(&k, k); // already present
    }
    for k in 0..100u64 {
        assert!(t.get(&k).is_some());
    }
    for k in 1000..1020u64 {
        assert!(t.get(&k).is_none());
    }
    for k in 0..50u64 {
        t.update(&k, k + 1);
    }
    for k in 1000..1005u64 {
        t.update(&k, 0); // absent
    }
    for k in 0..10u64 {
        t.remove(&k);
    }
    for k in 1000..1003u64 {
        t.remove(&k); // absent
    }
    let scanned = t.scan(20..40).count();
    assert_eq!(scanned, 20);

    let s = t.metrics_snapshot();
    let v = |name: &str| s.get(name).unwrap_or_else(|| panic!("missing {name}"));

    if Metrics::enabled() {
        assert_eq!(v("insert_ops"), 110);
        assert_eq!(v("insert_existing"), 10);
        assert_eq!(v("get_ops"), 120);
        assert_eq!(v("get_hits"), 100);
        assert_eq!(v("get_misses"), 20);
        assert_eq!(v("update_ops"), 55);
        assert_eq!(v("update_misses"), 5);
        assert_eq!(v("remove_ops"), 13);
        assert_eq!(v("remove_misses"), 3);
        assert_eq!(v("scan_ops"), 1);
        assert_eq!(v("scan_seeks"), 1);
        assert_eq!(v("scan_entries"), 20);
        // 100 keys overflow the first leaf: every split allocates a leaf,
        // plus the one allocated at creation.
        assert!(v("leaf_splits") >= 1);
        assert_eq!(v("leaf_allocs"), v("leaf_splits") + 1);
        // Latency sampling (1-in-8) never exceeds the op count.
        assert!(v("get_lat_samples") <= v("get_ops"));
        // The pool's counters ride along in the same snapshot.
        assert!(v("pmem_allocs") >= 1);
    } else {
        // Compiled out: fields exist, every tree counter reads zero.
        for name in [
            "insert_ops",
            "get_ops",
            "get_hits",
            "get_misses",
            "leaf_splits",
            "scan_entries",
        ] {
            assert_eq!(v(name), 0, "{name} should be zero with metrics off");
        }
    }
    // Per-detector dynamic-checker counters ride along in every snapshot
    // (all zero here: the durability checker is disabled for this pool).
    for name in [
        "pmem_checker_missing_flush",
        "pmem_checker_unordered_publish",
        "pmem_checker_torn_publish",
        "pmem_checker_unpublished_multi_word",
    ] {
        assert_eq!(v(name), 0, "{name} must be exported in the snapshot");
    }
}

/// Shard summation: 8 threads hammer a concurrent tree; totals must equal
/// the issued op counts and outcome counters must partition them.
#[test]
fn eight_thread_sum_consistency() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 1_000;
    let t = ConcurrentFPTree::create(pool(64), TreeConfig::fptree_concurrent(), ROOT_SLOT);
    let hits = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for w in 0..THREADS {
            let t = &t;
            let hits = &hits;
            s.spawn(move || {
                let base = w * PER_THREAD;
                for k in base..base + PER_THREAD {
                    t.insert(&k, k);
                }
                let mut local = 0;
                for k in base..base + PER_THREAD {
                    // Roughly half the probes land outside the inserted
                    // range, so both hit and miss paths are exercised.
                    if t.get(&(k * 2)).is_some() {
                        local += 1;
                    }
                }
                hits.fetch_add(local, Ordering::Relaxed);
            });
        }
    });

    let s = t.metrics_snapshot();
    let v = |name: &str| s.get(name).unwrap_or_else(|| panic!("missing {name}"));
    if Metrics::enabled() {
        assert_eq!(v("insert_ops"), THREADS * PER_THREAD);
        assert_eq!(v("get_ops"), THREADS * PER_THREAD);
        assert_eq!(v("get_hits") + v("get_misses"), THREADS * PER_THREAD);
        assert_eq!(v("get_hits"), hits.load(Ordering::Relaxed) as u64);
        assert_eq!(v("leaf_allocs"), v("leaf_splits") + 1);
    } else {
        assert_eq!(v("insert_ops"), 0);
        assert_eq!(v("get_ops"), 0);
    }
}

/// `reset` zeroes every shard; the next snapshot starts from scratch.
#[test]
fn reset_clears_all_shards() {
    let t = ConcurrentFPTree::create(pool(64), TreeConfig::fptree_concurrent(), ROOT_SLOT);
    std::thread::scope(|s| {
        for w in 0..4u64 {
            let t = &t;
            s.spawn(move || {
                for k in 0..100u64 {
                    t.insert(&(w * 1000 + k), k);
                }
            });
        }
    });
    t.metrics().reset();
    let s = t.metrics().snapshot();
    assert_eq!(s.get("insert_ops"), Some(0));
    assert_eq!(s.get("leaf_allocs"), Some(0));
    t.insert(&u64::MAX, 1);
    let s = t.metrics().snapshot();
    if Metrics::enabled() {
        assert_eq!(s.get("insert_ops"), Some(1));
    }
}

/// A real tree snapshot (tree + pmem fields) survives the JSON round trip:
/// every field appears exactly once with its value.
#[test]
fn tree_snapshot_json_round_trip() {
    let t = ConcurrentFPTree::create(pool(64), TreeConfig::fptree(), ROOT_SLOT);
    for k in 0..200u64 {
        t.insert(&k, k);
    }
    let s = t.metrics_snapshot();
    let json = s.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    // Flat object of integer fields: parse it back by hand.
    let inner = &json[1..json.len() - 1];
    let mut parsed = Vec::new();
    for pair in inner.split(',') {
        let (name, value) = pair.split_once(':').expect("name:value");
        let name = name.trim_matches('"');
        let value: u64 = value.parse().expect("integer value");
        parsed.push((name.to_string(), value));
    }
    assert_eq!(parsed.len(), s.fields().len());
    for ((pn, pv), (fn_, fv)) in parsed.iter().zip(s.fields()) {
        assert_eq!(pn, fn_);
        assert_eq!(pv, fv);
    }
    // Field names are unique (merge() must keep them so).
    let mut names: Vec<&str> = parsed.iter().map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), parsed.len(), "duplicate JSON keys");
}

/// Merging two snapshots sums shared fields and appends new ones.
#[test]
fn merge_sums_shared_fields() {
    let a = ConcurrentFPTree::create(pool(64), TreeConfig::fptree(), ROOT_SLOT);
    let b = ConcurrentFPTree::create(pool(64), TreeConfig::fptree(), ROOT_SLOT);
    for k in 0..10u64 {
        a.insert(&k, k);
    }
    for k in 0..25u64 {
        b.insert(&k, k);
    }
    let mut merged = a.metrics_snapshot();
    merged.merge(b.metrics_snapshot());
    if Metrics::enabled() {
        assert_eq!(merged.get("insert_ops"), Some(35));
    } else {
        assert_eq!(merged.get("insert_ops"), Some(0));
    }
}
