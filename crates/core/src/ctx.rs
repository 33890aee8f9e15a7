//! Engine-independent persistent operations (§5): the shared tree context,
//! the leaf split and delete micro-log protocols with their recovery
//! replays (Algorithms 3/4 and 6/7), the variable-key leak audit
//! (Algorithm 17), and recovery phases 2–3 (leaf-chain harvest, per-leaf
//! audit, empty-leaf sweep).
//!
//! Nothing here touches the volatile index: [`crate::ConcurrentTree`]
//! drives these operations under its leaf locks and rebuilds its DRAM inner
//! nodes from what the recovery phases return.

use std::collections::HashSet;
use std::sync::Arc;

use fptree_pmem::{PmemPool, RawPPtr};

use crate::api::Error;
use crate::config::TreeConfig;
use crate::keys::KeyKind;
use crate::layout::LeafLayout;
use crate::leaf::Leaf;
use crate::meta::TreeMeta;
use crate::metrics::{Counter, Metrics};

/// Per-leaf result of the recovery audit: live entry count and maximum key.
pub(crate) type LeafAudit<K> = (usize, Option<<K as KeyKind>::Owned>);

/// Shared immutable context: pool, configuration, layout, metadata handle,
/// and the tree's observability registry.
pub(crate) struct Ctx {
    pub pool: Arc<PmemPool>,
    pub cfg: TreeConfig,
    pub layout: LeafLayout,
    pub meta: TreeMeta,
    pub metrics: Arc<Metrics>,
}

impl Ctx {
    #[inline]
    pub fn leaf(&self, off: u64) -> Leaf<'_> {
        Leaf::new(&self.pool, &self.layout, off)
    }

    #[inline]
    pub fn pptr(&self, off: u64) -> RawPPtr {
        RawPPtr::new(self.pool.file_id(), off)
    }

    pub fn zero_leaf(&self, off: u64) {
        let prior = self.leaf(off).version_word();
        self.pool.write_bytes(off, &vec![0u8; self.layout.size]);
        self.pool.persist(off, self.layout.size);
        // A recycled offset must never validate sentinel records taken
        // against its previous contents: restart the transient version
        // word strictly above its old value (offset-reuse ABA).
        self.leaf(off).restore_version_monotonic(prior);
    }

    /// Validates a persistent pointer that is supposed to reference a leaf
    /// before it is dereferenced: 8-aligned with a whole leaf in bounds.
    pub(crate) fn check_leaf_ptr(&self, off: u64, what: &str) -> Result<(), Error> {
        if off == 0 || !off.is_multiple_of(8) || !self.pool.in_bounds(off, self.layout.size) {
            return Err(Error::corrupt(format!("{what} is not a leaf"), off));
        }
        Ok(())
    }

    /// Writes one KV into a leaf with a free slot and p-atomically commits
    /// it (the non-split insert path of Algorithm 2 / 14).
    pub fn insert_into_leaf<K: KeyKind>(&self, off: u64, key: &K::Owned, value: u64) {
        let leaf = self.leaf(off);
        let slot = leaf
            .first_zero_slot()
            .expect("insert_into_leaf requires a free slot");
        K::write_slot(&self.pool, leaf.key_off(slot), key);
        leaf.set_value(slot, value);
        if self.layout.fingerprints {
            leaf.set_fingerprint(slot, K::fingerprint(key));
        }
        leaf.persist_slot(slot);
        if self.layout.fingerprints {
            leaf.persist_fingerprint(slot);
        }
        // Commit point: before this p-atomic write the entry is invisible.
        leaf.commit_bitmap(leaf.bitmap() | (1 << slot));
    }

    /// Out-of-place update (Algorithms 8 / 16): stage the new record in a
    /// free slot, then one p-atomic bitmap write retires the old slot and
    /// publishes the new one. The write path for values wider than one
    /// word; 8-byte values update in place ([`Leaf::publish_value`]).
    pub fn update_in_leaf<K: KeyKind>(&self, off: u64, old_slot: usize, value: u64) {
        let leaf = self.leaf(off);
        let new_slot = leaf
            .first_zero_slot()
            .expect("update_in_leaf requires a free slot");
        // The key moves by copying the slot bytes: fixed keys copy the key
        // itself, variable keys copy the persistent pointer (no realloc).
        let mut slot_bytes = vec![0u8; self.layout.key_slot];
        self.pool
            .read_bytes(leaf.key_off(old_slot), &mut slot_bytes);
        self.pool.write_bytes(leaf.key_off(new_slot), &slot_bytes);
        leaf.set_value(new_slot, value);
        if self.layout.fingerprints {
            leaf.set_fingerprint(new_slot, leaf.fingerprint(old_slot));
        }
        leaf.persist_slot(new_slot);
        if self.layout.fingerprints {
            leaf.persist_fingerprint(new_slot);
        }
        let bm = (leaf.bitmap() & !(1 << old_slot)) | (1 << new_slot);
        leaf.commit_bitmap(bm);
        // The old slot no longer owns the key blob (Algorithm 16 line 16);
        // until this reset, recovery's audit resolves the shared reference.
        K::reset_slot(&self.pool, leaf.key_off(old_slot));
    }

    /// Splits a full leaf under split micro-log `log_idx` (Algorithm 3),
    /// returning the split key (max of the lower half) and the new right
    /// leaf. The new leaf is allocated straight into the log's second
    /// pointer, so a crash can never leak it.
    pub fn split_leaf<K: KeyKind>(&self, off: u64, log_idx: usize) -> (K::Owned, u64) {
        self.metrics.inc(Counter::LeafSplits);
        self.metrics.inc(Counter::LeafAllocs);
        let log = self.meta.split_log(log_idx);
        log.set_first(&self.pool, self.pptr(off));
        let new_off = self
            .pool
            .allocate(log.second_slot(), self.layout.size)
            .expect("pool exhausted: leaf");
        let split_key = self.split_copy_commit::<K>(off, new_off);
        log.reset(&self.pool);
        (split_key, new_off)
    }

    /// The body of a leaf split, shared between the forward path and
    /// recovery redo (Algorithm 3 lines 6–14).
    fn split_copy_commit<K: KeyKind>(&self, old: u64, new: u64) -> K::Owned {
        // Copy the entire leaf content, then persist it. The transient
        // tail of the head — lock word and sentinel record — must not be
        // copied: the new leaf starts unlocked and record-free.
        let prior = self.leaf(new).version_word();
        let mut buf = vec![0u8; self.layout.size];
        self.pool.read_bytes(old, &mut buf);
        buf[self.layout.off_lock..self.layout.off_lock + 8].fill(0); // transient lock word
        buf[self.layout.off_sentinel..self.layout.off_sentinel + crate::layout::SENTINEL_BYTES]
            .fill(0);
        self.pool.write_bytes(new, &buf);
        self.pool.persist(new, self.layout.size);
        // The new offset may be recycled: records about its previous life
        // must not validate against this one.
        self.leaf(new).restore_version_monotonic(prior);

        // Choose the split: lower half stays, upper half moves.
        let old_leaf = self.leaf(old);
        let mut entries = old_leaf.collect_entries::<K>();
        entries.sort_by(|a, b| a.1.cmp(&b.1));
        let keep = entries.len().div_ceil(2);
        let split_key = entries[keep - 1].1.clone();
        let mut new_bm = 0u64;
        for (slot, _) in &entries[keep..] {
            new_bm |= 1 << slot;
        }
        let new_leaf = self.leaf(new);
        new_leaf.commit_bitmap(new_bm);
        old_leaf.commit_bitmap(self.layout.full_bitmap() ^ new_bm);
        self.split_reset_dead_slots::<K>(old, new, new_bm);
        old_leaf.set_next(self.pptr(new));
        // The old leaf's successor changed: drop its stale sentinel and —
        // since the split computed the new leaf's minimum — record a fresh
        // one (enc = min of the moved upper half).
        old_leaf.sentinel_clear();
        if keep < entries.len() {
            old_leaf.sentinel_store(K::prefix64(&entries[keep].1), new, new_leaf.version_word());
        }
        split_key
    }

    /// After a split, both leaves hold copies of every key slot; for
    /// variable-size keys the *invalid* copies must be persistently nulled
    /// so the recovery audit (Algorithm 17) can treat any non-null invalid
    /// slot as a same-leaf question.
    fn split_reset_dead_slots<K: KeyKind>(&self, old: u64, new: u64, new_bm: u64) {
        if !K::IS_VAR {
            return;
        }
        let old_leaf = self.leaf(old);
        let new_leaf = self.leaf(new);
        for slot in 0..self.layout.m {
            if new_bm & (1 << slot) != 0 {
                K::reset_slot(&self.pool, old_leaf.key_off(slot));
            } else {
                K::reset_slot(&self.pool, new_leaf.key_off(slot));
            }
        }
    }

    /// Replays split micro-log `log_idx` (Algorithm 4).
    pub fn recover_split<K: KeyKind>(&self, log_idx: usize) -> Result<(), Error> {
        let log = self.meta.split_log(log_idx);
        let cur = log.first(&self.pool);
        if cur.is_null() {
            log.reset(&self.pool);
            return Ok(());
        }
        self.check_leaf_ptr(cur.offset, "split-log current pointer")?;
        let new = log.second(&self.pool);
        if new.is_null() {
            // Crashed before the new leaf was published: roll back.
            log.reset(&self.pool);
            return Ok(());
        }
        self.check_leaf_ptr(new.offset, "split-log new-leaf pointer")?;
        let old_leaf = self.leaf(cur.offset);
        if old_leaf.bitmap() == self.layout.full_bitmap() {
            // Crashed before the old bitmap was halved: redo everything
            // (FindSplitKey is deterministic, so this is idempotent).
            self.split_copy_commit::<K>(cur.offset, new.offset);
        } else {
            // Old bitmap already halved: redo the tail only.
            let new_bm = self.leaf(new.offset).bitmap();
            old_leaf.commit_bitmap(self.layout.full_bitmap() ^ new_bm);
            self.split_reset_dead_slots::<K>(cur.offset, new.offset, new_bm);
            old_leaf.set_next(self.pptr(new.offset));
        }
        log.reset(&self.pool);
        Ok(())
    }

    /// Unlinks and deallocates an empty leaf under delete micro-log
    /// `log_idx` (Algorithm 6).
    pub fn delete_leaf(&self, off: u64, prev: Option<u64>, log_idx: usize) {
        self.metrics.inc(Counter::LeafFrees);
        let log = self.meta.delete_log(log_idx);
        log.set_first(&self.pool, self.pptr(off));
        let next = self.leaf(off).next();
        if self.meta.head(&self.pool).offset == off {
            self.meta.set_head(&self.pool, next);
        } else {
            let prev = prev.expect("non-head leaf must have a predecessor");
            log.set_second(&self.pool, self.pptr(prev));
            self.leaf(prev).set_next(next);
            // The predecessor's sentinel referenced the unlinked leaf.
            self.leaf(prev).sentinel_clear();
        }
        self.pool.deallocate(log.first_slot());
        log.reset(&self.pool);
    }

    /// Replays delete micro-log `log_idx` (Algorithm 7).
    pub fn recover_delete(&self, log_idx: usize) -> Result<(), Error> {
        let log = self.meta.delete_log(log_idx);
        let cur = log.first(&self.pool);
        if cur.is_null() {
            log.reset(&self.pool);
            return Ok(());
        }
        self.check_leaf_ptr(cur.offset, "delete-log current pointer")?;
        let prev = log.second(&self.pool);
        if !prev.is_null() {
            self.check_leaf_ptr(prev.offset, "delete-log predecessor pointer")?;
        }
        let head = self.meta.head(&self.pool);
        let finish = |log: &crate::meta::PairLog| {
            self.pool.deallocate(log.first_slot());
            log.reset(&self.pool);
        };
        if !prev.is_null() {
            // Crashed between recording prev and finishing: redo the unlink.
            let next = self.leaf(cur.offset).next();
            self.leaf(prev.offset).set_next(next);
            self.leaf(prev.offset).sentinel_clear();
            finish(&log);
        } else if head.offset == cur.offset {
            // Head unlink not yet done.
            self.meta.set_head(&self.pool, self.leaf(cur.offset).next());
            finish(&log);
        } else if !head.is_null() && self.leaf(cur.offset).next().offset == head.offset {
            // Head already moved past us: only the free remained.
            finish(&log);
        } else {
            // Nothing structural happened: roll back. (The leaf may be
            // empty; the recovery sweep unlinks empty leaves.)
            log.reset(&self.pool);
        }
        Ok(())
    }

    /// Leak audit for one leaf (Algorithm 17): every invalid slot must hold
    /// a null key pointer; a non-null one is either a duplicate of a valid
    /// slot's key in this leaf (interrupted update → reset) or an orphan
    /// blob (interrupted insert/delete → deallocate).
    pub fn audit_leaf<K: KeyKind>(&self, off: u64) -> Result<(), Error> {
        if !K::IS_VAR {
            return Ok(());
        }
        let leaf = self.leaf(off);
        let bm = leaf.bitmap();
        let valid_refs: Vec<RawPPtr> = (0..self.layout.m)
            .filter(|s| bm & (1 << s) != 0)
            .map(|s| K::slot_ref(&self.pool, leaf.key_off(s)))
            .collect();
        for slot in 0..self.layout.m {
            if bm & (1 << slot) != 0 {
                continue;
            }
            let key_off = leaf.key_off(slot);
            if !K::slot_nonnull(&self.pool, key_off) {
                continue;
            }
            let r = K::slot_ref(&self.pool, key_off);
            if valid_refs.contains(&r) {
                K::reset_slot(&self.pool, key_off);
            } else if self.pool.looks_like_block(r) {
                K::release_slot(&self.pool, key_off);
            } else {
                // A stale pointer that was never a live allocation: freeing
                // it would corrupt the allocator, so reject the image.
                return Err(Error::corrupt("orphan key blob pointer", r.offset));
            }
        }
        Ok(())
    }

    /// Recovery phase 2: walks the linked leaf chain from the head,
    /// validating every pointer and catching cycles.
    pub(crate) fn harvest_chain(&self) -> Result<Vec<u64>, Error> {
        let head = self.meta.head(&self.pool);
        if head.is_null() {
            return Err(Error::corrupt(
                "initialized tree must have a head leaf",
                self.meta.head_slot(),
            ));
        }
        self.check_leaf_ptr(head.offset, "leaf-list head")?;
        let mut chain = Vec::new();
        let mut seen = HashSet::new();
        let mut cur = head.offset;
        loop {
            if !seen.insert(cur) {
                return Err(Error::corrupt("leaf-list cycle", cur));
            }
            chain.push(cur);
            let next = self.leaf(cur).next().offset;
            if next == 0 {
                return Ok(chain);
            }
            self.check_leaf_ptr(next, "leaf-list next pointer")?;
            cur = next;
        }
    }

    /// Recovery phase 3: resets locks and runs the Algorithm-17 leak audit
    /// over every on-chain leaf, partitioned in chain order across the
    /// worker pool. Audit mutations are leaf-local, so the partitioning
    /// cannot change the outcome; each worker opens its own checked
    /// operation because durability-checker attribution is per-thread.
    pub(crate) fn audit_leaves<K: KeyKind>(
        &self,
        chain: &[u64],
        threads: usize,
    ) -> Result<Vec<LeafAudit<K>>, Error> {
        let audit_one = |off: u64| -> Result<LeafAudit<K>, Error> {
            self.metrics.inc(Counter::RecoveryLeaves);
            let leaf = self.leaf(off);
            leaf.reset_lock();
            // Sentinels are transient like the lock: bytes surviving in the
            // image are stale records from the crashed run — wipe them.
            leaf.sentinel_clear();
            // Leaf-local and deterministic, keeping parallel recovery
            // bit-identical to serial.
            self.audit_leaf::<K>(off)?;
            Ok((leaf.count(), leaf.max_key::<K>()))
        };
        let workers = threads.min(chain.len()).max(1);
        if workers <= 1 {
            // Serial: runs under the caller's "tree_open" checked operation.
            return chain.iter().map(|&off| audit_one(off)).collect();
        }
        let audit_one = &audit_one;
        let chunk = chain.len().div_ceil(workers);
        let parts = std::thread::scope(|s| {
            let handles: Vec<_> = chain
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        let _op = self.pool.begin_checked_op("recovery_audit");
                        part.iter()
                            .map(|&off| audit_one(off))
                            .collect::<Result<Vec<_>, Error>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    // A worker panic is a crash-fuse (or a real bug), never
                    // a recoverable error: re-raise it so the payload
                    // reaches the caller unchanged.
                    Err(p) => std::panic::resume_unwind(p),
                })
                .collect::<Vec<_>>()
        });
        let mut out = Vec::with_capacity(chain.len());
        for part in parts {
            out.extend(part?);
        }
        Ok(out)
    }

    /// Serial tail of recovery phase 3: unlinks empty leaves (a rolled-back
    /// delete can leave one linked; the lone last leaf always stays) and
    /// returns the survivors' `(max_key, leaf)` discriminators for the
    /// inner-node build, plus the recovered entry count.
    pub(crate) fn sweep<K: KeyKind>(
        &self,
        chain: &[u64],
        audits: &[LeafAudit<K>],
    ) -> (Vec<(K::Owned, u64)>, usize) {
        let mut entries = Vec::new();
        let mut len = 0usize;
        let mut prev: Option<u64> = None;
        for (i, (&off, (count, max))) in chain.iter().zip(audits).enumerate() {
            let is_last = i + 1 == chain.len();
            if *count == 0 && !(prev.is_none() && is_last) {
                self.delete_leaf(off, prev, 0);
                continue;
            }
            if let Some(max) = max {
                entries.push((max.clone(), off));
            }
            len += *count;
            prev = Some(off);
        }
        (entries, len)
    }
}
