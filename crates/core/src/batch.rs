//! Batched write path with amortized flush/fence persistence.
//!
//! Every one-by-one insert pays a full traversal, a leaf lock, and a
//! flush+fence set (slot persist, fingerprint persist, p-atomic bitmap
//! commit) even when dozens of keys land in the same leaf — the write cost
//! the paper's Table 1 / Figure 7 analysis attributes to SCM persistence
//! primitives. The batched path amortizes all of it:
//!
//! 1. the input is sorted (stable, so the **first** occurrence of a
//!    duplicated key wins, exactly like a loop of `insert` calls);
//! 2. consecutive keys routing to the same leaf form a **run**;
//! 3. each run is applied under one leaf lock and one checked-op window:
//!    every entry is staged with plain stores, the staged slot and
//!    fingerprint spans are flushed with coalesced `persist` calls, and a
//!    **single** p-atomic bitmap write commits the whole run;
//! 4. a full leaf splits once mid-run (micro-logged as usual) and both
//!    halves are staged before the split is published; keys that still do
//!    not fit re-route through the updated index, so progress per run is
//!    guaranteed.
//!
//! Crash atomicity is per run: a crash before a run's bitmap commit loses
//! that run (and all later ones) entirely and never exposes partial slots —
//! the staged stores are unreachable until the commit word lands. The
//! durability checker validates the staged protocol (store → flush →
//! publish → flush) over every batched window, and `crash_consistency.rs`
//! sweeps crash fuses through batched schedules.

use std::sync::atomic::Ordering;

use fptree_htm::Abort;

use crate::concurrent::{ConcKey, ConcurrentTree};
use crate::ctx::Ctx;
use crate::keys::KeyKind;
use crate::metrics::{Counter, Op};

/// Sorts batch input and drops duplicate keys, keeping the **first**
/// occurrence — the outcome a loop of single `insert` calls produces.
fn sort_dedup<K: KeyKind>(entries: &[(K::Owned, u64)]) -> Vec<(K::Owned, u64)> {
    let mut sorted = entries.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(&b.0)); // stable: input order among equals
    sorted.dedup_by(|next, kept| next.0 == kept.0); // keeps the first
    sorted
}

impl Ctx {
    /// Stages `run` — sorted unique keys, none currently in the leaf, all
    /// fitting its free slots — and commits the whole run with **one**
    /// p-atomic bitmap write. Staged slot/fingerprint spans are flushed
    /// with coalesced `persist` calls before the commit, so the checker
    /// sees the canonical store → flush → publish → flush pattern.
    pub(crate) fn insert_run_into_leaf<K: KeyKind>(&self, off: u64, run: &[(K::Owned, u64)]) {
        debug_assert!(!run.is_empty());
        let leaf = self.leaf(off);
        let mut bm = leaf.bitmap();
        let mut free = !bm & self.layout.full_bitmap();
        debug_assert!(run.len() <= free.count_ones() as usize);
        let mut slots = Vec::with_capacity(run.len());
        for (key, value) in run {
            let slot = free.trailing_zeros() as usize;
            free &= free - 1;
            K::write_slot(&self.pool, leaf.key_off(slot), key);
            leaf.set_value(slot, *value);
            if self.layout.fingerprints {
                leaf.set_fingerprint(slot, K::fingerprint(key));
            }
            bm |= 1 << slot;
            slots.push(slot);
        }
        leaf.persist_slots(&slots);
        if self.layout.fingerprints {
            leaf.persist_fingerprints(&slots);
        }
        // Commit point: every staged entry becomes valid at once.
        leaf.commit_bitmap(bm);
        self.metrics.inc(Counter::InsertBatchRuns);
        self.metrics.add(Counter::InsertBatchKeys, run.len() as u64);
    }

    /// Clears `slots` with **one** p-atomic bitmap write, then releases the
    /// key slots. Returns the committed bitmap (0 means the leaf emptied
    /// and the caller must handle the structural unlink).
    pub(crate) fn remove_run_from_leaf<K: KeyKind>(&self, off: u64, slots: &[usize]) -> u64 {
        debug_assert!(!slots.is_empty());
        let leaf = self.leaf(off);
        let mut bm = leaf.bitmap();
        for &slot in slots {
            bm &= !(1 << slot);
        }
        leaf.commit_bitmap(bm);
        for &slot in slots {
            K::release_slot(&self.pool, leaf.key_off(slot));
        }
        self.metrics.inc(Counter::RemoveBatchRuns);
        self.metrics
            .add(Counter::RemoveBatchKeys, slots.len() as u64);
        bm
    }
}

impl<K: ConcKey> ConcurrentTree<K> {
    /// True when the leaf at `off` covers `key`, decided by a
    /// globally-validated speculative traverse.
    ///
    /// Safe to call while holding `off`'s version lock: a locked leaf's key
    /// range only changes under its own lock, and the SpecLock fallback
    /// releases the global lock between attempts, so a writer spinning on
    /// our leaf lock can never hold the global lock while we wait for it.
    fn covered_by(&self, off: u64, key: &K::Owned) -> bool {
        self.lock.execute(|tx| {
            let o = self.traverse(key)?;
            if !tx.validate() {
                self.ctx.metrics.inc(Counter::SeqlockConflicts);
                return Err(Abort);
            }
            Ok(o)
        }) == off
    }

    /// Concurrent batched insert: sorted runs are applied under **one**
    /// leaf lock and one p-atomic commit per touched leaf, with the same
    /// semantics as looping [`ConcurrentTree::insert`]. Returns the number
    /// of newly inserted keys.
    pub fn insert_batch(&self, entries: &[(K::Owned, u64)]) -> usize {
        if entries.is_empty() {
            return 0;
        }
        if entries.len() == 1 {
            // A single-entry batch is exactly a single insert, minus the
            // sort and run bookkeeping.
            return self.insert(&entries[0].0, entries[0].1) as usize;
        }
        let _t = self.ctx.metrics.time_op(Op::Insert);
        let _op = self.ctx.pool.begin_checked_op("insert_batch");
        let sorted = sort_dedup::<K>(entries);
        let mut inserted = 0usize;
        let mut i = 0;
        while i < sorted.len() {
            let (consumed, fresh) = self.insert_batch_run(&sorted[i..]);
            inserted += fresh;
            i += consumed;
        }
        inserted
    }

    /// Locks the leaf covering `rest[0]`, extends the run while subsequent
    /// keys route to the same (locked, range-stable) leaf, and applies it
    /// with one commit — splitting at most once and staging both halves
    /// before the split is published. Returns `(consumed, inserted)`;
    /// consumption is always a nonempty prefix, so the caller terminates.
    fn insert_batch_run(&self, rest: &[(K::Owned, u64)]) -> (usize, usize) {
        let off = self.lock_leaf_for_write(&rest[0].0);
        let leaf = self.ctx.leaf(off);
        let mut t = 1;
        while t < rest.len() && self.covered_by(off, &rest[t].0) {
            t += 1;
        }
        let run = &rest[..t];
        let present: Vec<bool> = run
            .iter()
            .map(|(k, _)| leaf.find_slot::<K>(k).is_some())
            .collect();
        let fresh_total = present.iter().filter(|p| !**p).count();
        if fresh_total == 0 {
            leaf.unlock_version();
            self.ctx.metrics.add(Counter::InsertExisting, t as u64);
            return (t, 0);
        }
        let free = self.ctx.layout.m - leaf.count();
        if fresh_total <= free {
            let fresh: Vec<(K::Owned, u64)> = run
                .iter()
                .zip(&present)
                .filter(|(_, p)| !**p)
                .map(|(e, _)| e.clone())
                .collect();
            self.ctx.insert_run_into_leaf::<K>(off, &fresh);
            leaf.unlock_version();
            self.ctx
                .metrics
                .add(Counter::InsertExisting, (t - fresh_total) as u64);
            self.len.fetch_add(fresh_total, Ordering::Relaxed);
            return (t, fresh_total);
        }
        if free > 0 {
            // The run overflows a leaf that is not yet full: fill the free
            // slots with the run's fresh prefix (one commit) and let the
            // remainder re-route; splitting requires a full leaf, so the
            // next round splits it.
            let mut fill: Vec<(K::Owned, u64)> = Vec::with_capacity(free);
            let mut consumed = 0usize;
            for (idx, entry) in run.iter().enumerate() {
                if present[idx] {
                    consumed = idx + 1;
                    continue;
                }
                if fill.len() == free {
                    break;
                }
                fill.push(entry.clone());
                consumed = idx + 1;
            }
            self.ctx.insert_run_into_leaf::<K>(off, &fill);
            leaf.unlock_version();
            let dups = present[..consumed].iter().filter(|p| **p).count();
            self.ctx.metrics.add(Counter::InsertExisting, dups as u64);
            self.len.fetch_add(fill.len(), Ordering::Relaxed);
            return (consumed, fill.len());
        }
        // Overflow of a full leaf: split once. The right leaf is
        // unreachable until `publish_split`, so both halves are staged
        // first — the same exposure window as the single-insert split path.
        let (split_key, new_off) = self.split_locked_leaf(off);
        let mut lo_free = self.ctx.layout.m - self.ctx.leaf(off).count();
        let mut hi_free = self.ctx.layout.m - self.ctx.leaf(new_off).count();
        let mut lo_take: Vec<(K::Owned, u64)> = Vec::new();
        let mut hi_take: Vec<(K::Owned, u64)> = Vec::new();
        let mut consumed = 0usize;
        for (idx, entry) in run.iter().enumerate() {
            if present[idx] {
                consumed = idx + 1;
                continue;
            }
            let (cap, bucket) = if entry.0 > split_key {
                (&mut hi_free, &mut hi_take)
            } else {
                (&mut lo_free, &mut lo_take)
            };
            if *cap == 0 {
                // Prefix rule: the rest re-routes through the updated index.
                break;
            }
            *cap -= 1;
            bucket.push(entry.clone());
            consumed = idx + 1;
        }
        assert!(
            consumed > 0,
            "insert_batch: split produced no free slot (leaf capacity 1)"
        );
        if !lo_take.is_empty() {
            self.ctx.insert_run_into_leaf::<K>(off, &lo_take);
        }
        if !hi_take.is_empty() {
            self.ctx.insert_run_into_leaf::<K>(new_off, &hi_take);
        }
        self.publish_split(&split_key, off, new_off);
        leaf.unlock_version();
        let n = lo_take.len() + hi_take.len();
        let dups = present[..consumed].iter().filter(|p| **p).count();
        self.ctx.metrics.add(Counter::InsertExisting, dups as u64);
        self.len.fetch_add(n, Ordering::Relaxed);
        (consumed, n)
    }

    /// Concurrent batched remove: one p-atomic commit clears each touched
    /// leaf's run. A run that would empty its leaf keeps one entry back and
    /// delegates that last key to [`ConcurrentTree::remove`], which owns
    /// the predecessor-locking unlink protocol. Returns the number of keys
    /// removed.
    pub fn remove_batch(&self, keys: &[K::Owned]) -> usize {
        if keys.is_empty() {
            return 0;
        }
        let _t = self.ctx.metrics.time_op(Op::Remove);
        let _op = self.ctx.pool.begin_checked_op("remove_batch");
        let mut sorted = keys.to_vec();
        sorted.sort();
        sorted.dedup();
        let mut removed = 0usize;
        let mut i = 0;
        while i < sorted.len() {
            let (consumed, n) = self.remove_batch_run(&sorted[i..]);
            removed += n;
            i += consumed;
        }
        removed
    }

    /// Clears the run at the front of `rest` under one leaf lock. Returns
    /// `(consumed, removed)`.
    fn remove_batch_run(&self, rest: &[K::Owned]) -> (usize, usize) {
        let off = self.lock_leaf_for_write(&rest[0]);
        let leaf = self.ctx.leaf(off);
        let mut t = 1;
        while t < rest.len() && self.covered_by(off, &rest[t]) {
            t += 1;
        }
        let run = &rest[..t];
        let mut slots: Vec<usize> = Vec::new();
        let mut last_found: Option<&K::Owned> = None;
        for key in run {
            if let Some(slot) = leaf.find_slot::<K>(key) {
                slots.push(slot);
                last_found = Some(key);
            }
        }
        self.ctx
            .metrics
            .add(Counter::RemoveMisses, (t - slots.len()) as u64);
        if slots.is_empty() {
            leaf.unlock_version();
            return (t, 0);
        }
        if leaf.count() == slots.len() {
            // The run would empty the leaf. Keep the last found key so the
            // leaf never empties under this lock alone, then remove it via
            // the single-key path (which locks the predecessor as needed).
            slots.pop();
            if !slots.is_empty() {
                self.ctx.remove_run_from_leaf::<K>(off, &slots);
                self.len.fetch_sub(slots.len(), Ordering::Relaxed);
            }
            leaf.unlock_version();
            let last = last_found.expect("run has at least one found key").clone();
            let tail = self.remove(&last) as usize;
            return (t, slots.len() + tail);
        }
        let n = slots.len();
        self.ctx.remove_run_from_leaf::<K>(off, &slots);
        leaf.unlock_version();
        self.len.fetch_sub(n, Ordering::Relaxed);
        (t, n)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};

    use crate::config::TreeConfig;
    use crate::{ConcurrentFPTree, ConcurrentFPTreeVar};

    fn pool() -> Arc<PmemPool> {
        Arc::new(PmemPool::create(PoolOptions::direct(32 << 20)).unwrap())
    }

    fn small() -> TreeConfig {
        TreeConfig::fptree()
            .with_leaf_capacity(8)
            .with_inner_fanout(4)
    }

    #[test]
    fn batch_matches_loop_inserts() {
        let a = ConcurrentFPTree::create(pool(), small(), ROOT_SLOT);
        let b = ConcurrentFPTree::create(pool(), small(), ROOT_SLOT);
        let entries: Vec<(u64, u64)> = (0..500u64).map(|i| (i * 7919 % 1000, i)).collect();
        let mut loop_inserted = 0;
        for (k, v) in &entries {
            loop_inserted += a.insert(k, *v) as usize;
        }
        let batch_inserted = b.insert_batch(&entries);
        assert_eq!(batch_inserted, loop_inserted);
        assert_eq!(a.len(), b.len());
        let av: Vec<_> = a.scan(..).collect();
        let bv: Vec<_> = b.scan(..).collect();
        assert_eq!(av, bv);
        b.check_consistency().unwrap();
    }

    #[test]
    fn batch_insert_uses_fewer_flushes() {
        // Realistic leaf capacity: tiny leaves make the per-split
        // whole-leaf persist dominate and mask the per-key amortization.
        let cfg = TreeConfig::fptree().with_leaf_capacity(32);
        let entries: Vec<(u64, u64)> = (0..1000u64).map(|i| (i, i * 10)).collect();
        let p1 = pool();
        let one = ConcurrentFPTree::create(Arc::clone(&p1), cfg, ROOT_SLOT);
        p1.stats().reset();
        for (k, v) in &entries {
            one.insert(k, *v);
        }
        let single_flushes = p1.stats().snapshot().persist_calls;

        let p2 = pool();
        let many = ConcurrentFPTree::create(Arc::clone(&p2), cfg, ROOT_SLOT);
        p2.stats().reset();
        many.insert_batch(&entries);
        let batch_flushes = p2.stats().snapshot().persist_calls;

        assert!(
            batch_flushes * 2 <= single_flushes,
            "batched inserts flushed {batch_flushes}, one-by-one {single_flushes}"
        );
        assert_eq!(many.len(), 1000);
        many.check_consistency().unwrap();
    }

    #[test]
    fn remove_batch_matches_loop_removes() {
        let entries: Vec<(u64, u64)> = (0..300u64).map(|i| (i, i)).collect();
        let a = ConcurrentFPTree::create(pool(), small(), ROOT_SLOT);
        let b = ConcurrentFPTree::create(pool(), small(), ROOT_SLOT);
        a.insert_batch(&entries);
        b.insert_batch(&entries);
        let victims: Vec<u64> = (0..300u64).filter(|k| k % 3 != 0).collect();
        let mut loop_removed = 0;
        for k in &victims {
            loop_removed += a.remove(k) as usize;
        }
        assert_eq!(b.remove_batch(&victims), loop_removed);
        assert_eq!(a.len(), b.len());
        let av: Vec<_> = a.scan(..).collect();
        let bv: Vec<_> = b.scan(..).collect();
        assert_eq!(av, bv);
        b.check_consistency().unwrap();
    }

    #[test]
    fn remove_batch_unlinks_emptied_leaves() {
        let t = ConcurrentFPTree::create(pool(), small(), ROOT_SLOT);
        let entries: Vec<(u64, u64)> = (0..200u64).map(|i| (i, i)).collect();
        t.insert_batch(&entries);
        let all: Vec<u64> = (0..200u64).collect();
        assert_eq!(t.remove_batch(&all), 200);
        assert_eq!(t.len(), 0);
        assert_eq!(t.leaf_offsets().len(), 1, "tree collapses to one leaf");
        t.check_consistency().unwrap();
    }

    #[test]
    fn batch_first_duplicate_wins() {
        let t = ConcurrentFPTree::create(pool(), small(), ROOT_SLOT);
        let inserted = t.insert_batch(&[(5, 100), (5, 200), (7, 1), (5, 300)]);
        assert_eq!(inserted, 2);
        assert_eq!(t.get(&5), Some(100), "first occurrence wins");
        assert_eq!(t.get(&7), Some(1));
    }

    #[test]
    fn batch_skips_existing_keys() {
        let t = ConcurrentFPTree::create(pool(), small(), ROOT_SLOT);
        t.insert(&10, 1);
        assert_eq!(t.insert_batch(&[(9, 9), (10, 999), (11, 11)]), 2);
        assert_eq!(t.get(&10), Some(1), "existing value untouched");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn var_key_batch_roundtrip() {
        let t = ConcurrentFPTreeVar::create(pool(), small(), ROOT_SLOT);
        let entries: Vec<(Vec<u8>, u64)> = (0..200u64)
            .map(|i| (format!("key-{i:05}").into_bytes(), i))
            .collect();
        assert_eq!(t.insert_batch(&entries), 200);
        assert_eq!(t.len(), 200);
        for (k, v) in &entries {
            assert_eq!(t.get(k), Some(*v));
        }
        let victims: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(t.remove_batch(&victims), 200);
        assert!(t.is_empty());
        t.check_consistency().unwrap();
    }

    #[test]
    fn concurrent_batch_matches_oracle() {
        let pool = pool();
        let mut cfg = TreeConfig::fptree_concurrent();
        cfg.leaf_capacity = 8;
        cfg.inner_fanout = 4;
        let tree = ConcurrentFPTree::create(pool, cfg, ROOT_SLOT);
        let mut oracle = BTreeMap::new();
        let entries: Vec<(u64, u64)> = (0..400u64).map(|i| (i * 131 % 500, i)).collect();
        for (k, v) in &entries {
            oracle.entry(*k).or_insert(*v);
        }
        let inserted = tree.insert_batch(&entries);
        assert_eq!(inserted, oracle.len());
        for (k, v) in &oracle {
            assert_eq!(tree.get(k), Some(*v));
        }
        let victims: Vec<u64> = oracle.keys().copied().filter(|k| k % 2 == 0).collect();
        let removed = tree.remove_batch(&victims);
        assert_eq!(removed, victims.len());
        for k in &victims {
            oracle.remove(k);
        }
        assert_eq!(tree.len(), oracle.len());
        tree.check_consistency().unwrap();
    }

    #[test]
    fn concurrent_batches_race_safely() {
        let pool = pool();
        let mut cfg = TreeConfig::fptree_concurrent();
        cfg.leaf_capacity = 8;
        cfg.inner_fanout = 4;
        let tree = Arc::new(ConcurrentFPTree::create(pool, cfg, ROOT_SLOT));
        std::thread::scope(|s| {
            for thread in 0..4u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    let entries: Vec<(u64, u64)> =
                        (0..250u64).map(|i| (thread * 1000 + i, i)).collect();
                    for chunk in entries.chunks(32) {
                        assert_eq!(tree.insert_batch(chunk), chunk.len());
                    }
                });
            }
        });
        assert_eq!(tree.len(), 1000);
        tree.check_consistency().unwrap();
        // Interleaved batched removes against batched inserts.
        std::thread::scope(|s| {
            for thread in 0..4u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    let keys: Vec<u64> = (0..250u64).map(|i| thread * 1000 + i).collect();
                    for chunk in keys.chunks(32) {
                        tree.remove_batch(chunk);
                    }
                });
            }
        });
        assert_eq!(tree.len(), 0);
        tree.check_consistency().unwrap();
    }

    #[test]
    fn concurrent_remove_if_guards_value() {
        let pool = pool();
        let tree = ConcurrentFPTree::create(pool, TreeConfig::fptree_concurrent(), ROOT_SLOT);
        tree.insert(&1, 10);
        assert!(
            !tree.remove_if(&1, 99),
            "stale expected value must not remove"
        );
        assert_eq!(tree.get(&1), Some(10));
        assert!(tree.remove_if(&1, 10));
        assert_eq!(tree.get(&1), None);
        assert!(!tree.remove_if(&1, 10), "absent key");
    }
}
