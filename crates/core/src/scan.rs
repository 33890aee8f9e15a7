//! Ordered range scans over the persistent leaf chain.
//!
//! FPTree leaves keep entries unsorted behind fingerprints (§4.1), so an
//! ordered scan has to *produce* order: seek to the first relevant leaf via
//! the transient inner nodes, then walk the persistent `next` chain, sorting
//! each leaf's live (bitmap-masked) entries into a fixed stack buffer
//! ([`MAX_LEAF_CAPACITY`] slots, of which only the configured leaf capacity
//! is ever used) before handing them out one by one.
//!
//! [`ConcScan`] validates each leaf read against the leaf's 8-byte sequence
//! lock, and validates leaf-to-leaf hops *hand-over-hand*: after reading
//! leaf `M` reached through `L.next`, the reader re-checks `L`'s version.
//! Unlinking `M` always locks `L` (the unlink rewrites `L.next` under `L`'s
//! lock), so an unchanged `L` proves `M` was `L`'s live successor for the
//! whole read — a recycled leaf can never be mistaken for a chain member.
//! On any version conflict the hop is retried a bounded number of times,
//! then the scan re-seeks from the root by the last emitted key inside a
//! globally validated speculative section (the same protocol as `get`). A
//! monotonic emission filter (only keys strictly greater than the last
//! yielded key) keeps the output sorted and duplicate-free across re-seeks,
//! so scans never block writers and never observe torn leaves.

use std::ops::{Bound, RangeBounds};

use fptree_htm::Abort;

use crate::concurrent::{ConcKey, ConcurrentTree};
use crate::config::MAX_LEAF_CAPACITY;
use crate::keys::KeyKind;
use crate::metrics::{Counter, Op, OpTimer};

/// Bounded retries of a leaf-chain hop before the scan falls back to a
/// re-seek from the root (mirrors the HTM retry-then-fallback shape).
const HOP_RETRIES: u32 = 8;

/// Owned, clonable form of a `RangeBounds` over tree keys.
#[derive(Debug)]
pub struct ScanBounds<K: KeyKind> {
    lo: Bound<K::Owned>,
    hi: Bound<K::Owned>,
}

// Manual impl: the derive would demand `K: Clone` on the key-kind marker
// itself, but only the owned endpoint keys need cloning.
impl<K: KeyKind> Clone for ScanBounds<K> {
    fn clone(&self) -> Self {
        ScanBounds {
            lo: self.lo.clone(),
            hi: self.hi.clone(),
        }
    }
}

impl<K: KeyKind> ScanBounds<K> {
    /// Captures `range` by cloning its endpoint keys.
    pub fn new<R: RangeBounds<K::Owned>>(range: R) -> Self {
        fn own<T: Clone>(b: Bound<&T>) -> Bound<T> {
            match b {
                Bound::Included(x) => Bound::Included(x.clone()),
                Bound::Excluded(x) => Bound::Excluded(x.clone()),
                Bound::Unbounded => Bound::Unbounded,
            }
        }
        ScanBounds {
            lo: own(range.start_bound()),
            hi: own(range.end_bound()),
        }
    }

    /// The key to seek the leaf search for, `None` for an unbounded start
    /// (scan from the head leaf).
    fn seek_key(&self) -> Option<&K::Owned> {
        match &self.lo {
            Bound::Included(k) | Bound::Excluded(k) => Some(k),
            Bound::Unbounded => None,
        }
    }

    /// True if `k` satisfies the lower bound.
    fn above_lo(&self, k: &K::Owned) -> bool {
        match &self.lo {
            Bound::Included(lo) => k >= lo,
            Bound::Excluded(lo) => k > lo,
            Bound::Unbounded => true,
        }
    }

    /// True if `k` lies beyond the upper bound (terminates the walk).
    fn past_hi(&self, k: &K::Owned) -> bool {
        match &self.hi {
            Bound::Included(hi) => k > hi,
            Bound::Excluded(hi) => k >= hi,
            Bound::Unbounded => false,
        }
    }

    /// True if no key can satisfy both bounds.
    fn is_empty(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Bound::Included(l), Bound::Included(h)) => l > h,
            (Bound::Included(l), Bound::Excluded(h))
            | (Bound::Excluded(l), Bound::Included(h))
            | (Bound::Excluded(l), Bound::Excluded(h)) => l >= h,
            _ => false,
        }
    }

    /// True if a successor leaf whose minimum key has order-preserving
    /// prefix `enc` lies entirely past the upper bound — the walk can stop
    /// without touching that leaf. Conservative for inexact prefixes: a tie
    /// proves nothing (except under an excluded bound, where equality of
    /// exact prefixes already excludes the whole successor).
    fn hop_blocked(&self, enc: u64) -> bool {
        match &self.hi {
            Bound::Included(h) => enc > K::prefix64(h),
            Bound::Excluded(h) => {
                let hp = K::prefix64(h);
                enc > hp || (K::PREFIX_EXACT && enc == hp)
            }
            Bound::Unbounded => false,
        }
    }
}

/// One leaf's worth of entries in a fixed-capacity buffer, drained in key
/// order by word-wise min-selection.
///
/// Gathering is O(1) per entry (first free slot of a `live` bitmask —
/// `trailing_zeros` of its complement); `pop` selects the minimum live key
/// by iterating set bits of the mask, the same word-wise machinery as the
/// leaf probe. Leaves are at most 64 entries, so selection beats
/// maintaining sorted order under shifts.
///
/// Sized by the compile-time bitmap limit [`MAX_LEAF_CAPACITY`]; only the
/// configured `leaf_capacity` slots (`TreeConfig::scan_buffer_slots`) are
/// ever occupied, which `TreeConfig::validate` guarantees fits.
struct LeafBuf<K: KeyKind> {
    slots: [Option<(K::Owned, u64)>; MAX_LEAF_CAPACITY],
    /// Bit `i` set = `slots[i]` holds an undrained entry.
    live: u64,
}

impl<K: KeyKind> LeafBuf<K> {
    fn new() -> Self {
        LeafBuf {
            slots: std::array::from_fn(|_| None),
            live: 0,
        }
    }

    fn clear(&mut self) {
        let mut m = self.live;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            self.slots[i] = None;
        }
        self.live = 0;
    }

    /// True when every buffer slot is occupied (only a torn concurrent
    /// read can produce more entries than one leaf holds).
    fn is_full(&self) -> bool {
        self.live == u64::MAX
    }

    /// Stores `(key, val)` in the first free slot — no ordering work here.
    fn insert(&mut self, key: K::Owned, val: u64) {
        debug_assert!(self.live != u64::MAX, "leaf wider than bitmap");
        let i = (!self.live).trailing_zeros() as usize;
        self.slots[i] = Some((key, val));
        self.live |= 1 << i;
    }

    /// Removes and returns the minimum-key live entry.
    fn pop(&mut self) -> Option<(K::Owned, u64)> {
        if self.live == 0 {
            return None;
        }
        let mut m = self.live;
        let mut best = m.trailing_zeros() as usize;
        m &= m - 1;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            let ki = &self.slots[i].as_ref().expect("live slot").0;
            let kb = &self.slots[best].as_ref().expect("live slot").0;
            if ki < kb {
                best = i;
            }
        }
        self.live &= !(1 << best);
        self.slots[best].take()
    }
}

// ------------------------------------------------------------ concurrent

/// Where the concurrent scan resumes after draining its buffer.
enum Cursor {
    /// Re-seek from the root by the last emitted key (or the lower bound).
    Seek,
    /// Hop through `anchor.next` to `next_off`; `anchor` is the already
    /// validated predecessor `(offset, version)` pair.
    Hop {
        anchor_off: u64,
        anchor_ver: u64,
        next_off: u64,
    },
    /// Chain exhausted or upper bound passed.
    Done,
}

/// Sorted streaming iterator over a range of a `ConcurrentTree`.
///
/// Non-blocking for writers: every leaf read is an optimistic section
/// validated against the leaf's sequence lock (hops additionally re-check
/// the predecessor, see the module docs); conflicts retry a bounded number
/// of times and then re-seek by key. Entries are emitted in strictly
/// increasing key order; each emitted entry was present in the tree at some
/// point during the scan (no torn or recycled leaf is ever observed).
pub struct ConcScan<'a, K: ConcKey> {
    tree: &'a ConcurrentTree<K>,
    bounds: ScanBounds<K>,
    buf: LeafBuf<K>,
    cursor: Cursor,
    /// Last key handed out; the monotonic emission floor.
    last: Option<K::Owned>,
    /// Times the scan over the iterator's whole lifetime.
    _timer: OpTimer<'a>,
}

impl<'a, K: ConcKey> ConcScan<'a, K> {
    pub(crate) fn new(tree: &'a ConcurrentTree<K>, bounds: ScanBounds<K>) -> Self {
        let timer = tree.metrics().time_op(Op::Scan);
        let cursor = if bounds.is_empty() {
            Cursor::Done
        } else {
            Cursor::Seek
        };
        ConcScan {
            tree,
            bounds,
            buf: LeafBuf::new(),
            cursor,
            last: None,
            _timer: timer,
        }
    }

    /// True if `k` should be emitted: inside the bounds and strictly above
    /// the monotonic floor.
    fn accepts(&self, k: &K::Owned) -> bool {
        self.bounds.above_lo(k) && self.last.as_ref().is_none_or(|l| k > l)
    }

    /// Gathers one leaf into `buf` (no validation — the caller validates
    /// before committing). Returns `(past_hi, next_offset, min_enc)` where
    /// `min_enc` is the order-preserving prefix of the leaf's minimum key
    /// across *all* valid entries, bounds ignored — the value a
    /// predecessor sentinel wants.
    fn gather(&mut self, off: u64) -> (bool, u64, Option<u64>) {
        let leaf = self.tree.ctx.leaf(off);
        leaf.touch_head();
        leaf.touch_key_scan();
        self.buf.clear();
        let mut past_hi = false;
        let mut min_enc: Option<u64> = None;
        for (slot, k) in leaf.collect_entries::<K>() {
            let v = leaf.value(slot);
            let enc = K::prefix64(&k);
            if min_enc.is_none_or(|m| enc < m) {
                min_enc = Some(enc);
            }
            if self.bounds.past_hi(&k) {
                past_hi = true;
            } else if self.accepts(&k) {
                if self.buf.is_full() {
                    // Only a torn read (a valid snapshot never holds more
                    // entries than slots); the validation after this
                    // gather will discard the buffer anyway.
                    break;
                }
                self.buf.insert(k, v);
            }
        }
        let next = leaf.next();
        (
            past_hi,
            if next.is_null() { 0 } else { next.offset },
            min_enc,
        )
    }

    /// Re-seek from the root inside a globally validated speculative
    /// section (the `get` protocol): traverse by the resume key, snapshot
    /// the leaf version, gather, then validate both the global lock and the
    /// leaf version before the gather is allowed to stand.
    fn step_seek(&mut self) {
        // Split borrows: the closure needs `&mut self` for `gather` but the
        // resume key is cloned out first.
        let resume = self
            .last
            .clone()
            .or_else(|| self.bounds.seek_key().cloned());
        let tree = self.tree;
        tree.ctx.metrics.inc(Counter::ScanSeeks);
        let (off, ver, past_hi, next_off) = tree.lock.execute(|tx| {
            let off = match &resume {
                Some(k) => tree.traverse(k)?,
                None => tree.ctx.meta.head(&tree.ctx.pool).offset,
            };
            let leaf = tree.ctx.leaf(off);
            let Some(ver) = leaf.version() else {
                return Err(Abort); // leaf locked by a writer (or dying)
            };
            let (past_hi, next_off, _) = self.gather(off);
            if !tx.validate() || leaf.version_changed(ver) {
                self.buf.clear();
                return Err(Abort);
            }
            Ok((off, ver, past_hi, next_off))
        });
        self.advance_cursor(off, ver, past_hi, next_off);
    }

    /// Shared cursor advance after a validated gather of leaf
    /// `(off, ver)`. Consults the leaf's successor sentinel: a validated
    /// cached minimum past the upper bound ends the walk without ever
    /// touching the successor's SCM-resident keys.
    fn advance_cursor(&mut self, off: u64, ver: u64, past_hi: bool, next_off: u64) {
        self.cursor = if past_hi || next_off == 0 {
            Cursor::Done
        } else if self
            .tree
            .ctx
            .leaf(off)
            .sentinel_succ_min()
            .is_some_and(|enc| self.bounds.hop_blocked(enc))
        {
            self.tree.ctx.metrics.inc(Counter::ScanSentinelStops);
            Cursor::Done
        } else {
            Cursor::Hop {
                anchor_off: off,
                anchor_ver: ver,
                next_off,
            }
        };
    }

    /// Follow the persistent chain from the validated anchor. Retries a
    /// bounded number of times on version conflict or chain splice, then
    /// degrades to a re-seek.
    fn step_hop(&mut self, anchor_off: u64, anchor_ver: u64, next_off: u64) {
        for attempt in 0..HOP_RETRIES {
            let leaf = self.tree.ctx.leaf(next_off);
            if let Some(ver) = leaf.version() {
                let (past_hi, succ, min_enc) = self.gather(next_off);
                // Hand-over-hand: the anchor unchanged proves
                // `anchor.next == next_off` held for this whole read, so the
                // leaf we just gathered was the live successor — not a
                // deleted-and-recycled block (unlinking it would have bumped
                // the anchor's version). Its own version unchanged proves
                // the gather was not torn by a writer.
                let anchor = self.tree.ctx.leaf(anchor_off);
                if !anchor.version_changed(anchor_ver) && !leaf.version_changed(ver) {
                    // The double validation proves (min_enc, next_off, ver)
                    // is a consistent successor snapshot for the anchor —
                    // exactly the sentinel contract, so refresh it.
                    if let Some(enc) = min_enc {
                        anchor.sentinel_store(enc, next_off, ver);
                    }
                    self.advance_cursor(next_off, ver, past_hi, succ);
                    return;
                }
                self.buf.clear();
            }
            self.tree.ctx.metrics.inc(Counter::ScanHopRetries);
            if attempt > 2 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // Conflict persisted: splice or hot writer — re-seek by key.
        self.tree.ctx.metrics.inc(Counter::ScanReseeks);
        self.cursor = Cursor::Seek;
    }
}

impl<K: ConcKey> Iterator for ConcScan<'_, K> {
    type Item = (K::Owned, u64);

    fn next(&mut self) -> Option<(K::Owned, u64)> {
        loop {
            if let Some((k, v)) = self.buf.pop() {
                self.last = Some(k.clone());
                self.tree.ctx.metrics.inc(Counter::ScanEntries);
                return Some((k, v));
            }
            match self.cursor {
                Cursor::Done => return None,
                Cursor::Seek => self.step_seek(),
                Cursor::Hop {
                    anchor_off,
                    anchor_ver,
                    next_off,
                } => self.step_hop(anchor_off, anchor_ver, next_off),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::FixedKey;

    #[test]
    fn leaf_buf_pops_in_key_order_regardless_of_insert_order() {
        let mut buf = LeafBuf::<FixedKey>::new();
        let keys = [42u64, 7, 99, 7 + 64, 0, u64::MAX, 13];
        for &k in &keys {
            buf.insert(k, k ^ 0xAB);
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        for want in sorted {
            let (k, v) = buf.pop().expect("entry");
            assert_eq!(k, want);
            assert_eq!(v, want ^ 0xAB);
        }
        assert!(buf.pop().is_none());
        assert!(!buf.is_full());
    }

    #[test]
    fn leaf_buf_clear_frees_all_slots_and_full_detection_works() {
        let mut buf = LeafBuf::<FixedKey>::new();
        for k in 0..MAX_LEAF_CAPACITY as u64 {
            buf.insert(k, k);
        }
        assert!(buf.is_full());
        buf.clear();
        assert!(buf.pop().is_none());
        buf.insert(5, 50);
        assert_eq!(buf.pop(), Some((5, 50)));
    }

    #[test]
    fn hop_blocked_respects_bound_kind_and_prefix_exactness() {
        let b = |hi: Bound<u64>| ScanBounds::<FixedKey> {
            lo: Bound::Unbounded,
            hi,
        };
        // Included: only strictly-greater minima block the hop.
        assert!(b(Bound::Included(10)).hop_blocked(11));
        assert!(!b(Bound::Included(10)).hop_blocked(10));
        // Excluded + exact prefixes: a tie already proves exclusion.
        assert!(b(Bound::Excluded(10)).hop_blocked(10));
        assert!(!b(Bound::Excluded(10)).hop_blocked(9));
        // Unbounded never blocks.
        assert!(!b(Bound::Unbounded).hop_blocked(u64::MAX));
    }
}
