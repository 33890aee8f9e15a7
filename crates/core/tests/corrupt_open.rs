//! Negative recovery tests: truncated, garbage, and zeroed pool images must
//! surface typed errors (`AllocError` from the pool layer, `Error::Corrupt`
//! from `open`) — never a panic.

use std::sync::Arc;

use fptree_core::{ConcurrentFPTree, Error, TreeConfig};
use fptree_pmem::{PmemPool, PoolOptions, RawPPtr, ROOT_SLOT};

/// A durable image holding a small but multi-leaf fixed-key tree.
fn built_image() -> Vec<u8> {
    let pool = Arc::new(PmemPool::create(PoolOptions::tracked(8 << 20)).expect("pool"));
    let t = ConcurrentFPTree::create(
        Arc::clone(&pool),
        TreeConfig::fptree()
            .with_leaf_capacity(4)
            .with_inner_fanout(4),
        ROOT_SLOT,
    );
    for i in 0..200u64 {
        t.insert(&i, i);
    }
    drop(t);
    pool.clean_image()
}

fn reopen(img: Vec<u8>) -> Arc<PmemPool> {
    Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).expect("reopen"))
}

#[track_caller]
fn assert_corrupt(r: Result<ConcurrentFPTree, Error>) {
    match r {
        Err(Error::Corrupt { .. }) => {}
        Err(other) => panic!("expected Error::Corrupt, got {other}"),
        Ok(_) => panic!("corrupted pool opened successfully"),
    }
}

#[test]
fn empty_pool_has_no_tree() {
    // A fresh (all-null user area) pool: the owner slot is zeroed, which is
    // "no tree here", a typed error, for both key kinds.
    let pool = Arc::new(PmemPool::create(PoolOptions::tracked(4 << 20)).expect("pool"));
    assert_corrupt(ConcurrentFPTree::open(Arc::clone(&pool), ROOT_SLOT));
    assert!(matches!(
        fptree_core::ConcurrentFPTreeVar::open(pool, ROOT_SLOT),
        Err(Error::Corrupt { .. })
    ));
}

#[test]
fn bogus_owner_slot_is_rejected() {
    let pool = reopen(built_image());
    // Null, unaligned, and out-of-range owner slots.
    for slot in [0u64, ROOT_SLOT + 3, pool.capacity() as u64 + 64] {
        assert_corrupt(ConcurrentFPTree::open(Arc::clone(&pool), slot));
    }
}

#[test]
fn garbage_owner_pointer_is_rejected() {
    // Unaligned, out-of-bounds, and plausible-but-wrong metadata pointers.
    for bogus in [13u64, u64::MAX - 7, 8, 4096] {
        let pool = reopen(built_image());
        pool.write_publish_at(ROOT_SLOT, &RawPPtr::new(pool.file_id(), bogus));
        assert_corrupt(ConcurrentFPTree::open(pool, ROOT_SLOT));
    }
}

#[test]
fn garbage_metadata_words_are_rejected() {
    // Corrupt individual metadata words: the micro-log count (field at
    // +72) and the leaf capacity (+8).
    for (field, value) in [(72u64, u64::MAX), (72, 0), (8, 1 << 40)] {
        let pool = reopen(built_image());
        let owner: RawPPtr = pool.read_at(ROOT_SLOT);
        pool.write_word(owner.offset + field, value);
        assert_corrupt(ConcurrentFPTree::open(pool, ROOT_SLOT));
    }
}

#[test]
fn grouped_leaf_image_is_refused() {
    // Images that allocated leaves in groups record the group size in the
    // metadata word at +64. This build frees leaves one by one, so it must
    // refuse such an image with a typed error instead of misreading it.
    for groups in [2u64, 16, u64::MAX / 2] {
        let pool = reopen(built_image());
        let owner: RawPPtr = pool.read_at(ROOT_SLOT);
        pool.write_word(owner.offset + 64, groups);
        match ConcurrentFPTree::open(pool, ROOT_SLOT) {
            Err(Error::InvalidConfig(msg)) => assert!(msg.contains("group"), "{msg}"),
            Err(other) => panic!("groups {groups}: expected InvalidConfig, got {other}"),
            Ok(_) => panic!("groups {groups}: grouped image opened"),
        }
    }
}

#[test]
fn buffered_leaf_image_is_refused() {
    // Images written with a per-leaf append buffer record its entry count
    // (wbuf_entries) in the metadata word at +96 and size their leaves for
    // it. This build's leaves end at the KV area, so it must refuse such an
    // image with a typed error instead of dropping buffered writes.
    for wbuf in [1u64, 8, u64::MAX / 2] {
        let pool = reopen(built_image());
        let owner: RawPPtr = pool.read_at(ROOT_SLOT);
        pool.write_word(owner.offset + 96, wbuf);
        match ConcurrentFPTree::open(pool, ROOT_SLOT) {
            Err(Error::InvalidConfig(msg)) => assert!(msg.contains("append-buffered"), "{msg}"),
            Err(other) => panic!("wbuf {wbuf}: expected InvalidConfig, got {other}"),
            Ok(_) => panic!("wbuf {wbuf}: buffered image opened"),
        }
    }
    // Garbage elsewhere in the block still reads as corruption first: a
    // bad key kind or stored configuration is reported before the buffer
    // word is consulted.
    let pool = reopen(built_image());
    let owner: RawPPtr = pool.read_at(ROOT_SLOT);
    pool.write_word(owner.offset + 96, 8);
    assert!(matches!(
        fptree_core::ConcurrentFPTreeVar::open(pool, ROOT_SLOT),
        Err(Error::Corrupt { .. })
    ));
    let pool = reopen(built_image());
    let owner: RawPPtr = pool.read_at(ROOT_SLOT);
    pool.write_word(owner.offset + 96, 8);
    pool.write_word(owner.offset + 8, 1 << 40);
    assert_corrupt(ConcurrentFPTree::open(pool, ROOT_SLOT));
}

#[test]
fn garbage_leaf_head_is_rejected() {
    // The head-of-leaf-list pointer (metadata field at +32) aimed at
    // unaligned or out-of-pool addresses.
    for bogus in [9u64, u64::MAX / 2] {
        let pool = reopen(built_image());
        let owner: RawPPtr = pool.read_at(ROOT_SLOT);
        pool.write_publish_at(owner.offset + 32, &RawPPtr::new(pool.file_id(), bogus));
        assert_corrupt(ConcurrentFPTree::open(pool, ROOT_SLOT));
    }
}

#[test]
fn key_kind_mismatch_is_rejected() {
    // A fixed-key image opened as a var-key tree: typed error, not a panic
    // or a misread tree.
    let pool = reopen(built_image());
    let r = fptree_core::ConcurrentFPTreeVar::open(pool, ROOT_SLOT);
    assert!(matches!(r, Err(Error::Corrupt { .. })));
}

#[test]
fn truncated_image_is_a_typed_error() {
    let img = built_image();
    // Truncations from "barely anything" to "lost the tail": the pool layer
    // rejects what it can (size, magic); anything that still reopens must
    // either fail tree validation or yield a fully intact tree (cutting
    // only never-used tail space is harmless) — no panics anywhere.
    for keep in [16usize, 4096, img.len() / 4, img.len() / 2, img.len() - 8] {
        let mut t = img.clone();
        t.truncate(keep);
        match PmemPool::reopen(t, PoolOptions::tracked(0)) {
            Err(_) => {} // typed pool-layer rejection
            Ok(pool) => match ConcurrentFPTree::open(Arc::new(pool), ROOT_SLOT) {
                Err(Error::Corrupt { .. }) => {}
                Err(other) => panic!("expected Error::Corrupt, got {other}"),
                Ok(tree) => {
                    tree.check_consistency().expect("surviving tree consistent");
                    assert_eq!(tree.len(), 200, "keep={keep}");
                }
            },
        }
    }
}

#[test]
fn zeroed_and_garbage_images_are_typed_errors() {
    let len = built_image().len();
    // All-zero image: fails the pool magic check.
    assert!(PmemPool::reopen(vec![0u8; len], PoolOptions::tracked(0)).is_err());
    // Deterministic pseudo-random garbage: either the pool header check
    // fails or the tree open reports corruption.
    let mut x = 0x9E3779B97F4A7C15u64;
    let garbage: Vec<u8> = (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect();
    match PmemPool::reopen(garbage, PoolOptions::tracked(0)) {
        Err(_) => {}
        Ok(pool) => assert_corrupt(ConcurrentFPTree::open(Arc::new(pool), ROOT_SLOT)),
    }
}

#[test]
fn corrupt_open_reports_offset_and_what() {
    // The typed error carries enough context to be actionable.
    let pool = reopen(built_image());
    pool.write_publish_at(ROOT_SLOT, &RawPPtr::new(pool.file_id(), 13));
    match ConcurrentFPTree::open(pool, ROOT_SLOT) {
        Err(Error::Corrupt { what, offset }) => {
            assert!(!what.is_empty());
            assert_eq!(offset, 13);
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
}
