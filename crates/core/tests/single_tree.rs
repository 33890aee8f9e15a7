//! Functional and crash-recovery tests for the paper's single-threaded
//! presets (FPTree, PTree, fixed and variable keys) on the one tree engine.

use std::sync::Arc;

use fptree_core::{ConcurrentFPTree, ConcurrentFPTreeVar, ConcurrentTree, TreeConfig};
use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
use rand::prelude::*;

fn direct_pool(mb: usize) -> Arc<PmemPool> {
    Arc::new(PmemPool::create(PoolOptions::direct(mb << 20)).unwrap())
}

fn tracked_pool(mb: usize) -> Arc<PmemPool> {
    Arc::new(PmemPool::create(PoolOptions::tracked(mb << 20)).unwrap())
}

fn small_cfg() -> TreeConfig {
    // Tiny nodes exercise splits and multi-level indexes quickly.
    TreeConfig::fptree()
        .with_leaf_capacity(4)
        .with_inner_fanout(4)
}

#[test]
fn insert_find_roundtrip() {
    let pool = direct_pool(32);
    let t = ConcurrentFPTree::create(pool, TreeConfig::fptree(), ROOT_SLOT);
    for i in 0..1000u64 {
        assert!(t.insert(&i, i * 2), "insert {i}");
    }
    assert_eq!(t.len(), 1000);
    for i in 0..1000u64 {
        assert_eq!(t.get(&i), Some(i * 2), "get {i}");
    }
    assert_eq!(t.get(&1000), None);
    t.check_consistency().unwrap();
}

#[test]
fn duplicate_insert_rejected() {
    let pool = direct_pool(8);
    let t = ConcurrentFPTree::create(pool, small_cfg(), ROOT_SLOT);
    assert!(t.insert(&7, 1));
    assert!(!t.insert(&7, 2));
    assert_eq!(t.get(&7), Some(1));
    assert_eq!(t.len(), 1);
}

#[test]
fn random_order_inserts_stay_sorted() {
    let pool = direct_pool(32);
    let t = ConcurrentFPTree::create(pool, small_cfg(), ROOT_SLOT);
    let mut keys: Vec<u64> = (0..2000).collect();
    keys.shuffle(&mut StdRng::seed_from_u64(1));
    for &k in &keys {
        t.insert(&k, k + 1);
    }
    t.check_consistency().unwrap();
    let all: Vec<(u64, u64)> = t.scan(..).collect();
    assert_eq!(all.len(), 2000);
    for (i, (k, v)) in all.iter().enumerate() {
        assert_eq!(*k, i as u64);
        assert_eq!(*v, i as u64 + 1);
    }
}

#[test]
fn update_changes_value_in_place() {
    let pool = direct_pool(16);
    let t = ConcurrentFPTree::create(pool, small_cfg(), ROOT_SLOT);
    for i in 0..500u64 {
        t.insert(&i, i);
    }
    for i in 0..500u64 {
        assert!(t.update(&i, i + 1000), "update {i}");
    }
    assert!(!t.update(&9999, 0), "update of absent key must fail");
    for i in 0..500u64 {
        assert_eq!(t.get(&i), Some(i + 1000));
    }
    assert_eq!(t.len(), 500);
    t.check_consistency().unwrap();
}

#[test]
fn update_on_full_leaf_splits() {
    let pool = direct_pool(8);
    let cfg = TreeConfig::fptree()
        .with_leaf_capacity(4)
        .with_inner_fanout(8)
        .with_value_size(16);
    let t = ConcurrentFPTree::create(pool, cfg, ROOT_SLOT);
    for i in 0..4u64 {
        t.insert(&i, i);
    }
    // Values wider than one word update out of place (Algorithm 8): the
    // single leaf is full, so updating must split, then update.
    assert!(t.update(&2, 777));
    assert_eq!(t.leaf_offsets().len(), 2);
    assert_eq!(t.get(&2), Some(777));
    assert_eq!(t.len(), 4);
    t.check_consistency().unwrap();
}

#[test]
fn remove_and_reinsert() {
    let pool = direct_pool(32);
    let t = ConcurrentFPTree::create(pool, small_cfg(), ROOT_SLOT);
    for i in 0..1000u64 {
        t.insert(&i, i);
    }
    for i in (0..1000u64).step_by(2) {
        assert!(t.remove(&i), "remove {i}");
    }
    assert!(!t.remove(&0), "double remove must fail");
    assert_eq!(t.len(), 500);
    for i in 0..1000u64 {
        assert_eq!(t.get(&i).is_some(), i % 2 == 1, "key {i}");
    }
    t.check_consistency().unwrap();
    for i in (0..1000u64).step_by(2) {
        assert!(t.insert(&i, i + 5));
    }
    assert_eq!(t.len(), 1000);
    t.check_consistency().unwrap();
}

#[test]
fn drain_to_empty_and_refill() {
    let pool = direct_pool(16);
    let t = ConcurrentFPTree::create(pool, small_cfg(), ROOT_SLOT);
    for round in 0..3 {
        for i in 0..300u64 {
            assert!(t.insert(&i, i + round), "round {round} insert {i}");
        }
        let mut order: Vec<u64> = (0..300).collect();
        order.shuffle(&mut StdRng::seed_from_u64(round));
        for &i in &order {
            assert!(t.remove(&i), "round {round} remove {i}");
        }
        assert!(t.is_empty());
        t.check_consistency().unwrap();
    }
}

#[test]
fn range_scans() {
    let pool = direct_pool(16);
    let t = ConcurrentFPTree::create(pool, small_cfg(), ROOT_SLOT);
    for i in (0..1000u64).step_by(3) {
        t.insert(&i, i);
    }
    let r: Vec<(u64, u64)> = t.scan(100..=200).collect();
    let expect: Vec<u64> = (0..1000)
        .step_by(3)
        .filter(|k| (100..=200).contains(k))
        .collect();
    assert_eq!(r.iter().map(|(k, _)| *k).collect::<Vec<_>>(), expect);
    assert!(t.scan(2000..=3000).next().is_none());
    #[allow(clippy::reversed_empty_ranges)]
    let inverted = t.scan(200..=100).next();
    assert!(inverted.is_none(), "inverted range is empty");
    let one: Vec<(u64, u64)> = t.scan(99..=99).collect();
    assert_eq!(one, vec![(99, 99)]);
}

#[test]
fn ptree_config_works_without_fingerprints() {
    let pool = direct_pool(32);
    let t = ConcurrentFPTree::create(pool, TreeConfig::ptree(), ROOT_SLOT);
    for i in 0..2000u64 {
        t.insert(&(i * 7 % 2000), i);
    }
    t.check_consistency().unwrap();
    assert!(t.get(&7).is_some());
}

#[test]
fn var_keys_roundtrip() {
    let pool = direct_pool(64);
    let cfg = TreeConfig::fptree_var()
        .with_leaf_capacity(4)
        .with_inner_fanout(4);
    let t = ConcurrentFPTreeVar::create(pool, cfg, ROOT_SLOT);
    for i in 0..500u64 {
        let key = format!("user:{i:06}").into_bytes();
        assert!(t.insert(&key, i));
    }
    for i in 0..500u64 {
        let key = format!("user:{i:06}").into_bytes();
        assert_eq!(t.get(&key), Some(i));
    }
    assert_eq!(t.get(&b"user:999999".to_vec()), None);
    t.check_consistency().unwrap();
    // Update moves key ownership between slots.
    for i in 0..500u64 {
        let key = format!("user:{i:06}").into_bytes();
        assert!(t.update(&key, i + 1));
    }
    t.check_consistency().unwrap();
    // Remove deallocates blobs.
    for i in 0..500u64 {
        let key = format!("user:{i:06}").into_bytes();
        assert!(t.remove(&key));
    }
    assert!(t.is_empty());
    t.check_consistency().unwrap();
}

#[test]
fn var_keys_no_blob_leak_after_churn() {
    let pool = direct_pool(64);
    let cfg = TreeConfig::fptree_var()
        .with_leaf_capacity(4)
        .with_inner_fanout(4);
    let t = ConcurrentFPTreeVar::create(Arc::clone(&pool), cfg, ROOT_SLOT);
    for round in 0..3u64 {
        for i in 0..200u64 {
            t.insert(&format!("k{i:04}").into_bytes(), round);
        }
        for i in 0..200u64 {
            t.update(&format!("k{i:04}").into_bytes(), round + 1);
        }
        for i in 0..200u64 {
            t.remove(&format!("k{i:04}").into_bytes());
        }
    }
    // Every key blob must be gone: live blocks are only tree infrastructure
    // (metadata + leaves), bounded and key-free.
    t.leak_audit().expect("no leaked key blobs");
    assert_eq!(t.len(), 0);
}

#[test]
fn clean_reopen_recovers_everything() {
    let pool = tracked_pool(64);
    let t = ConcurrentFPTree::create(Arc::clone(&pool), small_cfg(), ROOT_SLOT);
    for i in 0..800u64 {
        t.insert(&i, i * 3);
    }
    for i in (0..800u64).step_by(5) {
        t.remove(&i);
    }
    let expected_len = t.len();
    drop(t);
    let img = pool.clean_image();
    let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
    let t2 = ConcurrentFPTree::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    assert_eq!(t2.len(), expected_len);
    for i in 0..800u64 {
        let expect = if i % 5 == 0 { None } else { Some(i * 3) };
        assert_eq!(t2.get(&i), expect, "key {i}");
    }
    t2.check_consistency().unwrap();
}

#[test]
fn clean_reopen_var_keys() {
    let pool = tracked_pool(64);
    let cfg = TreeConfig::fptree_var()
        .with_leaf_capacity(4)
        .with_inner_fanout(4);
    let t = ConcurrentFPTreeVar::create(Arc::clone(&pool), cfg, ROOT_SLOT);
    for i in 0..300u64 {
        t.insert(&format!("key:{i:05}").into_bytes(), i);
    }
    drop(t);
    let img = pool.clean_image();
    let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
    let t2 = ConcurrentFPTreeVar::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    assert_eq!(t2.len(), 300);
    for i in 0..300u64 {
        assert_eq!(t2.get(&format!("key:{i:05}").into_bytes()), Some(i));
    }
    t2.check_consistency().unwrap();
}

/// The paper's core durability claim: any committed operation survives any
/// crash; any in-flight operation is atomically present-or-absent; no
/// persistent leaks. Crash at every persistence event of a mixed workload.
#[test]
fn crash_at_every_point_fixed_keys() {
    crash_torture::<fptree_core::FixedKey>(|i| i, 160);
}

#[test]
fn crash_at_every_point_var_keys() {
    crash_torture::<fptree_core::VarKey>(|i| format!("key{i:05}").into_bytes(), 120);
}

fn crash_torture<K: fptree_core::ConcKey>(mk: impl Fn(u64) -> K::Owned, max_fuse: u64) {
    // A workload whose tail mixes splits, updates, deletes, leaf deletes.
    let run = |pool: &Arc<PmemPool>, upto: usize| -> (ConcurrentTree<K>, Vec<(K::Owned, u64)>) {
        let cfg = TreeConfig::fptree()
            .with_leaf_capacity(4)
            .with_inner_fanout(4);
        let t = ConcurrentTree::<K>::create(Arc::clone(pool), cfg, ROOT_SLOT);
        let mut model: Vec<(K::Owned, u64)> = Vec::new();
        let ops: Vec<(u8, u64)> = (0..40u64)
            .map(|i| (0u8, i))
            .chain((0..40).step_by(3).map(|i| (1u8, i)))
            .chain((0..40).step_by(4).map(|i| (2u8, i)))
            .collect();
        for (idx, &(op, i)) in ops.iter().enumerate() {
            if idx >= upto {
                break;
            }
            let key = mk(i);
            match op {
                0 => {
                    t.insert(&key, i);
                    model.push((key, i));
                }
                1 => {
                    t.update(&key, i + 100);
                    if let Some(e) = model.iter_mut().find(|(k, _)| *k == key) {
                        e.1 = i + 100;
                    }
                }
                _ => {
                    t.remove(&key);
                    model.retain(|(k, _)| *k != key);
                }
            }
        }
        (t, model)
    };

    for fuse in (0..max_fuse).step_by(1) {
        let pool = tracked_pool(64);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.set_crash_fuse(Some(200 + fuse * 7));
            run(&pool, usize::MAX)
        }));
        pool.set_crash_fuse(None);
        let crashed = match result {
            Ok(_) => false,
            Err(e) => {
                assert!(
                    fptree_pmem::crash_is_injected(e.as_ref()),
                    "fuse {fuse}: genuine panic, not an injected crash"
                );
                true
            }
        };
        if !crashed {
            continue; // fuse beyond the workload; nothing to test
        }
        for seed in [11u64, 97] {
            let img = pool.crash_image(seed);
            let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
            let t2 = ConcurrentTree::<K>::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
            t2.check_consistency()
                .unwrap_or_else(|e| panic!("fuse {fuse} seed {seed}: inconsistent: {e}"));
            // Atomicity: every present key maps to a value the workload
            // wrote for it at some point (insert i or update i+100).
            // (We cannot know exactly which ops committed, but values are
            // bound to keys, so cross-key corruption is detectable.)
            for (k, v) in &t2.scan(..).collect::<Vec<_>>() {
                let i = v % 100;
                assert_eq!(
                    *k,
                    mk(i),
                    "fuse {fuse} seed {seed}: value bound to wrong key"
                );
            }
        }
    }

    // And a full run with a clean shutdown must recover exactly.
    let pool = tracked_pool(64);
    let (t, model) = run(&pool, usize::MAX);
    drop(t);
    let img = pool.clean_image();
    let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
    let t2 = ConcurrentTree::<K>::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    assert_eq!(t2.len(), model.len());
    for (k, v) in &model {
        assert_eq!(t2.get(k), Some(*v));
    }
}

#[test]
fn memory_usage_reports_selective_persistence() {
    let pool = direct_pool(64);
    let t = ConcurrentFPTree::create(Arc::clone(&pool), TreeConfig::fptree(), ROOT_SLOT);
    for i in 0..50_000u64 {
        t.insert(&i, i);
    }
    assert!(t.leaf_offsets().len() > 500);
    let scm = pool.alloc_stats().unwrap().live_bytes;
    let dram = t.dram_bytes() as u64;
    assert!(scm > 0 && dram > 0);
    // Headline claim: DRAM is a small fraction of the total (paper: <3% at
    // paper-scale fanouts; generous bound here).
    let frac = dram as f64 / (scm + dram) as f64;
    assert!(frac < 0.10, "DRAM fraction {frac:.3} too large");
}

#[test]
fn multiple_trees_in_one_pool() {
    let pool = direct_pool(64);
    // A directory block with two owner slots.
    let dir = pool.allocate(ROOT_SLOT, 64).unwrap();
    let a = ConcurrentFPTree::create(Arc::clone(&pool), small_cfg(), dir);
    let b = ConcurrentFPTree::create(Arc::clone(&pool), small_cfg(), dir + 16);
    for i in 0..200u64 {
        a.insert(&i, i);
        b.insert(&i, i + 1_000_000);
    }
    assert_eq!(a.get(&100), Some(100));
    assert_eq!(b.get(&100), Some(1_000_100));
    a.check_consistency().unwrap();
    b.check_consistency().unwrap();
}

#[test]
fn open_rejects_key_kind_mismatch() {
    let pool = tracked_pool(16);
    let t = ConcurrentFPTree::create(Arc::clone(&pool), small_cfg(), ROOT_SLOT);
    drop(t);
    let img = pool.clean_image();
    let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
    let r = ConcurrentFPTreeVar::open(pool2, ROOT_SLOT);
    assert!(
        matches!(r, Err(fptree_core::Error::Corrupt { .. })),
        "opening a fixed-key tree as var-key must fail with Corrupt"
    );
}

#[test]
fn var_key_range_scans_are_sorted_lexicographically() {
    let pool = direct_pool(64);
    let cfg = TreeConfig::fptree_var()
        .with_leaf_capacity(4)
        .with_inner_fanout(4);
    let t = ConcurrentFPTreeVar::create(pool, cfg, ROOT_SLOT);
    let mut model = std::collections::BTreeMap::new();
    for i in (0..400u64).rev() {
        let k = format!("id:{i:04}").into_bytes();
        t.insert(&k, i);
        model.insert(k, i);
    }
    let lo = b"id:0050".to_vec();
    let hi = b"id:0199".to_vec();
    let got: Vec<(Vec<u8>, u64)> = t.scan(lo.clone()..=hi.clone()).collect();
    let expect: Vec<(Vec<u8>, u64)> = model.range(lo..=hi).map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(got, expect);
    // Full scan covers everything in order.
    let all: Vec<(Vec<u8>, u64)> = t.scan(Vec::new()..=b"zzzz".to_vec()).collect();
    assert_eq!(all.len(), 400);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn mixed_key_lengths_coexist() {
    let pool = direct_pool(64);
    let cfg = TreeConfig::fptree_var()
        .with_leaf_capacity(4)
        .with_inner_fanout(4);
    let t = ConcurrentFPTreeVar::create(pool, cfg, ROOT_SLOT);
    let keys: Vec<Vec<u8>> = vec![
        b"".to_vec(),
        b"a".to_vec(),
        b"ab".to_vec(),
        b"abc".to_vec(),
        vec![0xFF; 100],
        vec![0x00, 0x01],
        b"prefix".to_vec(),
        b"prefix\x00".to_vec(),
        b"prefix-longer-key-with-many-bytes-inside".to_vec(),
    ];
    for (i, k) in keys.iter().enumerate() {
        assert!(t.insert(k, i as u64), "insert {k:?}");
    }
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(t.get(k), Some(i as u64), "get {k:?}");
    }
    t.check_consistency().unwrap();
    // Prefix keys must not be confused.
    assert!(t.remove(&b"prefix".to_vec()));
    assert_eq!(t.get(&b"prefix\x00".to_vec()), Some(7));
    assert_eq!(
        t.get(&b"prefix-longer-key-with-many-bytes-inside".to_vec()),
        Some(8)
    );
}

#[test]
fn value_payload_sizes_roundtrip() {
    for value_size in [8usize, 24, 64, 112] {
        let pool = direct_pool(32);
        let cfg = TreeConfig::fptree()
            .with_leaf_capacity(8)
            .with_inner_fanout(8)
            .with_value_size(value_size);
        let t = ConcurrentFPTree::create(pool, cfg, ROOT_SLOT);
        for i in 0..500u64 {
            t.insert(&i, i * 3);
        }
        for i in 0..500u64 {
            assert_eq!(t.get(&i), Some(i * 3), "value_size {value_size} key {i}");
        }
        t.check_consistency().unwrap();
    }
}

#[test]
fn reopen_preserves_config() {
    let pool = tracked_pool(32);
    let cfg = TreeConfig::fptree()
        .with_leaf_capacity(12)
        .with_inner_fanout(7)
        .with_value_size(24);
    let t = ConcurrentFPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT);
    for i in 0..100u64 {
        t.insert(&i, i);
    }
    drop(t);
    let img = pool.clean_image();
    let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
    let t2 = ConcurrentFPTree::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    assert_eq!(*t2.config(), cfg);
    assert_eq!(t2.len(), 100);
}

#[test]
fn height_grows_logarithmically() {
    let pool = direct_pool(64);
    let cfg = TreeConfig::fptree()
        .with_leaf_capacity(4)
        .with_inner_fanout(4);
    let t = ConcurrentFPTree::create(pool, cfg, ROOT_SLOT);
    assert_eq!(t.height(), 0);
    for i in 0..4096u64 {
        t.insert(&i, i);
    }
    // With fanout 4 and leaf 4: >= log4(4096/4) = 5 levels, well below 14.
    assert!(t.height() >= 5 && t.height() <= 14, "height {}", t.height());
}

/// Algorithm 9 lines 1–2: a crash anywhere inside `create` leaves the
/// metadata block INITIALIZING; `open` re-initializes an empty tree and
/// leaks nothing.
#[test]
fn interrupted_create_recovers_empty_without_leaks() {
    let cfg = TreeConfig::fptree()
        .with_leaf_capacity(8)
        .with_inner_fanout(8);
    let mut crashed = 0;
    for fuse in 1u64..=8 {
        let pool = tracked_pool(8);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.set_crash_fuse(Some(fuse));
            ConcurrentFPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT)
        }));
        pool.set_crash_fuse(None);
        if r.is_ok() {
            continue; // create finished before the fuse
        }
        crashed += 1;
        let img = pool.crash_image(fuse);
        let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
        match ConcurrentFPTree::open(Arc::clone(&pool2), ROOT_SLOT) {
            // Crashed before the metadata block was published: no tree.
            Err(fptree_core::Error::Corrupt { .. }) => {}
            Err(e) => panic!("fuse {fuse}: {e}"),
            Ok(t) => {
                assert!(t.is_empty(), "fuse {fuse}: phantom entries");
                t.check_consistency().unwrap();
                t.leak_audit()
                    .unwrap_or_else(|e| panic!("fuse {fuse}: {e}"));
                assert!(t.insert(&1, 1), "fuse {fuse}: re-initialized tree unusable");
            }
        }
    }
    assert!(crashed > 0, "no fuse landed inside create");
}

#[test]
fn iterator_streams_in_order() {
    let pool = direct_pool(32);
    let t = ConcurrentFPTree::create(pool, small_cfg(), ROOT_SLOT);
    let mut keys: Vec<u64> = (0..1500).map(|i| i * 7).collect();
    keys.shuffle(&mut StdRng::seed_from_u64(5));
    for &k in &keys {
        t.insert(&k, k + 1);
    }
    let collected: Vec<(u64, u64)> = t.scan(..).collect();
    assert_eq!(collected.len(), 1500);
    assert!(
        collected.windows(2).all(|w| w[0].0 < w[1].0),
        "iterator out of order"
    );
    assert_eq!(collected.first(), Some(&(0, 1)));
    assert_eq!(collected.last(), Some(&(1499 * 7, 1499 * 7 + 1)));
    // An unbounded scan agrees with an inclusive full-range scan.
    assert_eq!(collected, t.scan(0..=u64::MAX).collect::<Vec<_>>());
    // Empty tree iterates to nothing.
    let pool = direct_pool(8);
    let t2 = ConcurrentFPTree::create(pool, small_cfg(), ROOT_SLOT);
    assert_eq!(t2.scan(..).count(), 0);
}

#[test]
fn file_backed_tree_survives_process_style_restart() {
    let path = std::env::temp_dir().join(format!("fpt-tree-{}.img", std::process::id()));
    {
        let pool = tracked_pool(32);
        let t = ConcurrentFPTree::create(Arc::clone(&pool), small_cfg(), ROOT_SLOT);
        for i in 0..500u64 {
            t.insert(&i, i * 11);
        }
        pool.save(&path).unwrap();
    } // everything dropped: "process exit"
    {
        let pool = Arc::new(PmemPool::load(&path, PoolOptions::tracked(0)).unwrap());
        let t = ConcurrentFPTree::open(Arc::clone(&pool), ROOT_SLOT).expect("recover");
        assert_eq!(t.len(), 500);
        assert_eq!(t.get(&123), Some(123 * 11));
        t.check_consistency().unwrap();
    }
    std::fs::remove_file(&path).unwrap();
}
