//! Index-trait adapters: every evaluated structure behind the pluggable
//! [`U64Index`]/[`BytesIndex`] seams used by memcached and the TATP engine.
//!
//! Single-threaded trees go behind [`Locked`] (a global mutex), matching the
//! paper's integration of non-concurrent trees; the NV-Tree implementation
//! is internally synchronized.

use fptree_core::index::{BytesIndex, U64Index};
use fptree_core::keys::{FixedKey, VarKey};
use parking_lot::Mutex;

use crate::nvtree::NVTreeC;
use crate::stx::StxTree;
use crate::wbtree::WBTree;

/// Global-mutex adapter for this crate's single-threaded trees.
pub struct Locked<T>(pub Mutex<T>);

impl<T> Locked<T> {
    /// Wraps `inner` behind a global mutex.
    pub fn new(inner: T) -> Self {
        Locked(Mutex::new(inner))
    }
}

impl U64Index for Locked<StxTree<u64>> {
    fn insert(&self, key: u64, value: u64) -> bool {
        self.0.lock().insert(&key, value)
    }
    fn get(&self, key: u64) -> Option<u64> {
        self.0.lock().get(&key)
    }
    fn update(&self, key: u64, value: u64) -> bool {
        self.0.lock().update(&key, value)
    }
    fn remove(&self, key: u64) -> bool {
        self.0.lock().remove(&key)
    }
    fn len(&self) -> usize {
        self.0.lock().len()
    }
    fn range(&self, lo: u64, hi: u64) -> Option<Vec<(u64, u64)>> {
        Some(self.0.lock().range(&lo, &hi))
    }
    fn scan_from(&self, start: u64, count: usize) -> Option<Vec<(u64, u64)>> {
        Some(self.0.lock().scan_from(&start, count))
    }
}

impl BytesIndex for Locked<StxTree<Vec<u8>>> {
    fn insert(&self, key: &[u8], value: u64) -> bool {
        self.0.lock().insert(&key.to_vec(), value)
    }
    fn remove_if(&self, key: &[u8], expected: u64) -> bool {
        // One guard across compare and remove keeps eviction races out.
        let mut tree = self.0.lock();
        match tree.get(&key.to_vec()) {
            Some(v) if v == expected => tree.remove(&key.to_vec()),
            _ => false,
        }
    }
    fn update_if(&self, key: &[u8], expected: u64, value: u64) -> bool {
        let mut tree = self.0.lock();
        match tree.get(&key.to_vec()) {
            Some(v) if v == expected => tree.update(&key.to_vec(), value),
            _ => false,
        }
    }
    fn insert_batch(&self, entries: &[(Vec<u8>, u64)]) -> usize {
        let mut tree = self.0.lock();
        entries.iter().filter(|(k, v)| tree.insert(k, *v)).count()
    }
    fn get_batch(&self, keys: &[Vec<u8>]) -> Vec<Option<u64>> {
        let tree = self.0.lock();
        keys.iter().map(|k| tree.get(k)).collect()
    }
    fn get(&self, key: &[u8]) -> Option<u64> {
        self.0.lock().get(&key.to_vec())
    }
    fn update(&self, key: &[u8], value: u64) -> bool {
        self.0.lock().update(&key.to_vec(), value)
    }
    fn remove(&self, key: &[u8]) -> bool {
        self.0.lock().remove(&key.to_vec())
    }
    fn len(&self) -> usize {
        self.0.lock().len()
    }
    fn scan_from(&self, start: &[u8], count: usize) -> Option<Vec<(Vec<u8>, u64)>> {
        Some(self.0.lock().scan_from(&start.to_vec(), count))
    }
}

impl U64Index for Locked<WBTree<FixedKey>> {
    fn insert(&self, key: u64, value: u64) -> bool {
        self.0.lock().insert(&key, value)
    }
    fn get(&self, key: u64) -> Option<u64> {
        self.0.lock().get(&key)
    }
    fn update(&self, key: u64, value: u64) -> bool {
        self.0.lock().update(&key, value)
    }
    fn remove(&self, key: u64) -> bool {
        self.0.lock().remove(&key)
    }
    fn len(&self) -> usize {
        self.0.lock().len()
    }
    fn range(&self, lo: u64, hi: u64) -> Option<Vec<(u64, u64)>> {
        Some(self.0.lock().range(&lo, &hi))
    }
    fn scan_from(&self, start: u64, count: usize) -> Option<Vec<(u64, u64)>> {
        Some(self.0.lock().scan_from(&start, count))
    }
}

impl BytesIndex for Locked<WBTree<VarKey>> {
    fn insert(&self, key: &[u8], value: u64) -> bool {
        self.0.lock().insert(&key.to_vec(), value)
    }
    fn remove_if(&self, key: &[u8], expected: u64) -> bool {
        let mut tree = self.0.lock();
        match tree.get(&key.to_vec()) {
            Some(v) if v == expected => tree.remove(&key.to_vec()),
            _ => false,
        }
    }
    fn update_if(&self, key: &[u8], expected: u64, value: u64) -> bool {
        let mut tree = self.0.lock();
        match tree.get(&key.to_vec()) {
            Some(v) if v == expected => tree.update(&key.to_vec(), value),
            _ => false,
        }
    }
    fn insert_batch(&self, entries: &[(Vec<u8>, u64)]) -> usize {
        let mut tree = self.0.lock();
        entries.iter().filter(|(k, v)| tree.insert(k, *v)).count()
    }
    fn get_batch(&self, keys: &[Vec<u8>]) -> Vec<Option<u64>> {
        let tree = self.0.lock();
        keys.iter().map(|k| tree.get(k)).collect()
    }
    fn get(&self, key: &[u8]) -> Option<u64> {
        self.0.lock().get(&key.to_vec())
    }
    fn update(&self, key: &[u8], value: u64) -> bool {
        self.0.lock().update(&key.to_vec(), value)
    }
    fn remove(&self, key: &[u8]) -> bool {
        self.0.lock().remove(&key.to_vec())
    }
    fn len(&self) -> usize {
        self.0.lock().len()
    }
    fn scan_from(&self, start: &[u8], count: usize) -> Option<Vec<(Vec<u8>, u64)>> {
        Some(self.0.lock().scan_from(&start.to_vec(), count))
    }
}

impl U64Index for NVTreeC<FixedKey> {
    fn insert(&self, key: u64, value: u64) -> bool {
        NVTreeC::insert(self, &key, value)
    }
    fn get(&self, key: u64) -> Option<u64> {
        NVTreeC::get(self, &key)
    }
    fn update(&self, key: u64, value: u64) -> bool {
        NVTreeC::update(self, &key, value)
    }
    fn remove(&self, key: u64) -> bool {
        NVTreeC::remove(self, &key)
    }
    fn len(&self) -> usize {
        NVTreeC::len(self)
    }
    fn range(&self, lo: u64, hi: u64) -> Option<Vec<(u64, u64)>> {
        Some(NVTreeC::range(self, &lo, &hi))
    }
    fn scan_from(&self, start: u64, count: usize) -> Option<Vec<(u64, u64)>> {
        Some(NVTreeC::scan_from(self, &start, count))
    }
}

impl BytesIndex for NVTreeC<VarKey> {
    fn insert(&self, key: &[u8], value: u64) -> bool {
        NVTreeC::insert(self, &key.to_vec(), value)
    }
    fn get(&self, key: &[u8]) -> Option<u64> {
        NVTreeC::get(self, &key.to_vec())
    }
    fn update(&self, key: &[u8], value: u64) -> bool {
        NVTreeC::update(self, &key.to_vec(), value)
    }
    fn remove(&self, key: &[u8]) -> bool {
        NVTreeC::remove(self, &key.to_vec())
    }
    fn len(&self) -> usize {
        NVTreeC::len(self)
    }
    fn scan_from(&self, start: &[u8], count: usize) -> Option<Vec<(Vec<u8>, u64)>> {
        Some(NVTreeC::scan_from(self, &start.to_vec(), count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
    use std::sync::Arc;

    #[test]
    fn all_u64_adapters_agree() {
        let pool1 = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
        let pool2 = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
        let indexes: Vec<Box<dyn U64Index>> = vec![
            Box::new(Locked::new(StxTree::<u64>::new())),
            Box::new(Locked::new(WBTree::<FixedKey>::create(
                pool1, 16, 16, ROOT_SLOT,
            ))),
            Box::new(NVTreeC::<FixedKey>::create(pool2, 16, 16, ROOT_SLOT)),
        ];
        for idx in &indexes {
            for i in 0..500u64 {
                assert!(idx.insert(i, i * 2));
            }
            assert!(!idx.insert(0, 0));
            assert!(idx.update(7, 70));
            assert!(idx.remove(8));
            assert_eq!(idx.get(7), Some(70));
            assert_eq!(idx.get(8), None);
            assert_eq!(idx.len(), 499);
            let r = idx.range(10, 12).unwrap();
            assert_eq!(r, vec![(10, 20), (11, 22), (12, 24)]);
            let s = idx.scan_from(10, 3).unwrap();
            assert_eq!(s, vec![(10, 20), (11, 22), (12, 24)]);
            // The deleted key 8 is skipped, not counted.
            let s = idx.scan_from(7, 3).unwrap();
            assert_eq!(s, vec![(7, 70), (9, 18), (10, 20)]);
        }
    }

    #[test]
    fn bytes_adapters_scan_in_order() {
        let pool1 = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
        let pool2 = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
        let indexes: Vec<Box<dyn BytesIndex>> = vec![
            Box::new(Locked::new(StxTree::<Vec<u8>>::new())),
            Box::new(Locked::new(WBTree::<VarKey>::create(
                pool1, 16, 16, ROOT_SLOT,
            ))),
            Box::new(NVTreeC::<VarKey>::create(pool2, 16, 16, ROOT_SLOT)),
        ];
        for idx in &indexes {
            for i in (0..200u64).rev() {
                assert!(idx.insert(format!("k{i:04}").as_bytes(), i));
            }
            let s = idx.scan_from(b"k0100", 3).unwrap();
            let keys: Vec<_> = s
                .iter()
                .map(|(k, _)| String::from_utf8_lossy(k).into_owned())
                .collect();
            assert_eq!(keys, ["k0100", "k0101", "k0102"]);
            assert_eq!(s[0].1, 100);
            assert_eq!(idx.scan_from(b"k0199", 10).unwrap().len(), 1);
            assert_eq!(idx.scan_from(b"z", 10).unwrap(), vec![]);
        }
    }
}
