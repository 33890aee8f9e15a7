//! The redesigned public facade: a validating [`TreeBuilder`] and a typed
//! [`Error`] replacing the positional-`TreeConfig`-plus-panic construction
//! paths.
//!
//! The positional constructors (`ConcurrentFPTree::create(pool, cfg,
//! owner_slot)` and friends) panic on misconfiguration or pool exhaustion.
//! The fluent builder validates the configuration *and* the pool sizing
//! before any persistent state is touched, and reports failures as a typed
//! [`Error`] instead of a `String` or a panic:
//!
//! ```
//! use std::sync::Arc;
//! use fptree_pmem::{PmemPool, PoolOptions};
//! use fptree_core::TreeBuilder;
//!
//! let pool = Arc::new(PmemPool::create(PoolOptions::direct(32 << 20)).unwrap());
//! let tree = TreeBuilder::new().leaf_capacity(32).build_concurrent(pool).unwrap();
//! tree.insert(&7, 700);
//! assert_eq!(tree.get(&7), Some(700));
//! ```

use std::fmt;
use std::sync::Arc;

use fptree_pmem::{AllocError, PmemPool, BLOCK_HEADER_SIZE, ROOT_SLOT, USER_BASE};

use crate::concurrent::{ConcurrentFPTree, ConcurrentFPTreeVar};
use crate::config::TreeConfig;
use crate::keys::KeyKind;
use crate::layout::LeafLayout;
use crate::meta::TreeMeta;

/// Maximum accepted key length in bytes on the byte-string index seams —
/// memcached's key limit, so the kvcache wire protocol round-trips with
/// external memcached clients.
pub const MAX_KEY_BYTES: usize = 250;

/// Typed error for the facade's fallible paths.
#[derive(Debug)]
pub enum Error {
    /// The [`TreeConfig`] violates a structural invariant, or a stored
    /// image records a configuration this build cannot open.
    InvalidConfig(String),
    /// The pool cannot hold the tree's initial footprint (or ran out of
    /// space). Sizes are zero when the allocator did not report them.
    PoolFull {
        /// Bytes the operation needed.
        required: u64,
        /// Bytes the pool had available.
        available: u64,
        /// Which shard's pool filled, when the tree is sharded — skewed
        /// keyspaces fill one shard long before the others, and an
        /// anonymous "pool is full" would hide that.
        shard: Option<usize>,
    },
    /// The underlying pool file failed or holds an incompatible image.
    Io(std::io::Error),
    /// A lock guarding an index was poisoned by a panicking holder.
    Poisoned,
    /// The persistent image is inconsistent: a pointer, count, or metadata
    /// word read during recovery fails validation. The tree refuses to
    /// recover rather than follow corrupt state.
    Corrupt {
        /// Which structure failed validation.
        what: String,
        /// Pool offset of the offending word (0 when not applicable).
        offset: u64,
    },
}

impl Error {
    /// Shorthand for a [`Error::Corrupt`] at `offset`.
    pub(crate) fn corrupt(what: impl Into<String>, offset: u64) -> Error {
        Error::Corrupt {
            what: what.into(),
            offset,
        }
    }

    /// Annotates the error with the shard it arose in: [`Error::PoolFull`]
    /// gets its `shard` field set, [`Error::Corrupt`] gets a `shard N:`
    /// prefix on `what`; other variants pass through unchanged.
    pub(crate) fn with_shard(self, shard: usize) -> Error {
        match self {
            Error::PoolFull {
                required,
                available,
                ..
            } => Error::PoolFull {
                required,
                available,
                shard: Some(shard),
            },
            Error::Corrupt { what, offset } => Error::Corrupt {
                what: format!("shard {shard}: {what}"),
                offset,
            },
            other => other,
        }
    }

    /// The shard the error arose in, when known (see
    /// [`Error::PoolFull::shard`]).
    pub fn shard(&self) -> Option<usize> {
        match self {
            Error::PoolFull { shard, .. } => *shard,
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid tree configuration: {msg}"),
            Error::PoolFull {
                required,
                available,
                shard,
            } => {
                match shard {
                    Some(i) => write!(f, "pool of shard {i} is full")?,
                    None => write!(f, "pool is full")?,
                }
                if *required != 0 || *available != 0 {
                    write!(f, ": need {required} bytes, {available} available")?;
                }
                Ok(())
            }
            Error::Io(e) => write!(f, "pool I/O error: {e}"),
            Error::Poisoned => write!(f, "index lock poisoned by a panicking holder"),
            Error::Corrupt { what, offset } => {
                if *offset == 0 {
                    write!(f, "corrupt tree image: {what}")
                } else {
                    write!(f, "corrupt tree image: {what} (pool offset {offset:#x})")
                }
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e)
    }
}

impl From<AllocError> for Error {
    fn from(e: AllocError) -> Error {
        match e {
            AllocError::OutOfMemory | AllocError::PoolTooSmall | AllocError::TooLarge => {
                Error::PoolFull {
                    required: 0,
                    available: 0,
                    shard: None,
                }
            }
            other => Error::Io(std::io::Error::other(other.to_string())),
        }
    }
}

impl<T> From<std::sync::PoisonError<T>> for Error {
    fn from(_: std::sync::PoisonError<T>) -> Error {
        Error::Poisoned
    }
}

/// Fluent, validating constructor for every tree variant.
///
/// Starts from the paper's FPTree preset ([`TreeConfig::fptree`], or
/// [`TreeConfig::fptree_concurrent`] via [`TreeBuilder::concurrent`]) and
/// lets callers override individual knobs. [`TreeBuilder::build_concurrent`]
/// validates both the configuration and the pool sizing *before* touching
/// persistent state, so misuse surfaces as a typed [`Error`] instead of a
/// panic deep in the layout or allocator code.
#[derive(Debug, Clone)]
pub struct TreeBuilder {
    cfg: TreeConfig,
    owner_slot: u64,
    recovery_threads: usize,
    shards: usize,
}

impl Default for TreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TreeBuilder {
    /// A builder preloaded with the paper's single-threaded FPTree preset.
    pub fn new() -> TreeBuilder {
        TreeBuilder {
            cfg: TreeConfig::fptree(),
            owner_slot: ROOT_SLOT,
            recovery_threads: crate::config::default_recovery_threads(),
            shards: 1,
        }
    }

    /// A builder preloaded with the paper's concurrent FPTree preset.
    pub fn concurrent() -> TreeBuilder {
        TreeBuilder {
            cfg: TreeConfig::fptree_concurrent(),
            owner_slot: ROOT_SLOT,
            recovery_threads: crate::config::default_recovery_threads(),
            shards: 1,
        }
    }

    /// A builder starting from an explicit configuration.
    pub fn from_config(cfg: TreeConfig) -> TreeBuilder {
        TreeBuilder {
            cfg,
            owner_slot: ROOT_SLOT,
            recovery_threads: crate::config::default_recovery_threads(),
            shards: 1,
        }
    }

    /// Sets entries per leaf (1..=64).
    pub fn leaf_capacity(mut self, m: usize) -> TreeBuilder {
        self.cfg.leaf_capacity = m;
        self
    }

    /// Sets the maximum children per inner node.
    pub fn inner_fanout(mut self, f: usize) -> TreeBuilder {
        self.cfg.inner_fanout = f;
        self
    }

    /// Sets bytes reserved per value (multiple of 8, at least 8).
    pub fn value_size(mut self, v: usize) -> TreeBuilder {
        self.cfg.value_size = v;
        self
    }

    /// Toggles in-leaf key fingerprints (off reproduces the PTree).
    pub fn fingerprints(mut self, on: bool) -> TreeBuilder {
        self.cfg.fingerprints = on;
        self
    }

    /// Toggles split key/value arrays (the PTree leaf layout).
    pub fn split_arrays(mut self, on: bool) -> TreeBuilder {
        self.cfg.split_arrays = on;
        self
    }

    /// Toggles the SWAR word-wise fingerprint probe and the transient
    /// successor sentinels it feeds (off restores the scalar byte loop).
    pub fn swar_probe(mut self, on: bool) -> TreeBuilder {
        self.cfg.swar_probe = on;
        self
    }

    /// Sets the pool slot that will own the tree's metadata pointer
    /// (defaults to [`fptree_pmem::ROOT_SLOT`]).
    pub fn owner_slot(mut self, slot: u64) -> TreeBuilder {
        self.owner_slot = slot;
        self
    }

    /// Sets the worker count for the parallel recovery pipeline used by the
    /// `open_*` methods (defaults to the machine's available parallelism;
    /// 0 restores the default, 1 recovers serially).
    pub fn recovery_threads(mut self, n: usize) -> TreeBuilder {
        self.recovery_threads = if n == 0 {
            crate::config::default_recovery_threads()
        } else {
            n
        };
        self
    }

    /// Sets the shard count for the sharded build/open paths (at least 1;
    /// 0 is coerced to 1). Ignored by the unsharded builders.
    pub fn shards(mut self, n: usize) -> TreeBuilder {
        self.shards = n.max(1);
        self
    }

    /// The configuration as currently assembled (not yet validated).
    pub fn config(&self) -> &TreeConfig {
        &self.cfg
    }

    /// Validates the configuration and the pool's ability to hold the
    /// tree's initial footprint (metadata block + first leaf).
    fn check<K: KeyKind>(&self, pool: &PmemPool) -> Result<(), Error> {
        self.cfg.try_validate().map_err(Error::InvalidConfig)?;
        let layout = LeafLayout::new(&self.cfg, K::SLOT_SIZE);
        let required = (TreeMeta::byte_size(crate::concurrent::N_LOGS) + layout.size) as u64
            + 2 * BLOCK_HEADER_SIZE;
        let available = (pool.capacity() as u64).saturating_sub(USER_BASE);
        if required > available {
            return Err(Error::PoolFull {
                required,
                available,
                shard: None,
            });
        }
        Ok(())
    }

    /// Builds a fixed-key tree.
    pub fn build_concurrent(&self, pool: Arc<PmemPool>) -> Result<ConcurrentFPTree, Error> {
        self.check::<crate::keys::FixedKey>(&pool)?;
        Ok(ConcurrentFPTree::create(pool, self.cfg, self.owner_slot))
    }

    /// Builds a variable-key tree.
    pub fn build_concurrent_var(&self, pool: Arc<PmemPool>) -> Result<ConcurrentFPTreeVar, Error> {
        self.check::<crate::keys::VarKey>(&pool)?;
        Ok(ConcurrentFPTreeVar::create(pool, self.cfg, self.owner_slot))
    }

    /// Opens (recovers) the fixed-key tree owned by this builder's owner
    /// slot, running the recovery pipeline on
    /// [`TreeBuilder::recovery_threads`] workers. The persisted
    /// configuration wins; the builder's config knobs are ignored.
    pub fn open_concurrent(&self, pool: Arc<PmemPool>) -> Result<ConcurrentFPTree, Error> {
        ConcurrentFPTree::open_with(pool, self.owner_slot, self.recovery_threads)
    }

    /// Opens (recovers) the variable-key tree at the owner slot; see
    /// [`TreeBuilder::open_concurrent`].
    pub fn open_concurrent_var(&self, pool: Arc<PmemPool>) -> Result<ConcurrentFPTreeVar, Error> {
        ConcurrentFPTreeVar::open_with(pool, self.owner_slot, self.recovery_threads)
    }

    /// Validates that `pools` matches [`TreeBuilder::shards`] and that every
    /// pool can hold a shard's initial footprint (shard-annotated errors).
    fn check_sharded<K: KeyKind>(&self, pools: &[Arc<PmemPool>]) -> Result<(), Error> {
        if pools.is_empty() || pools.len() != self.shards {
            return Err(Error::InvalidConfig(format!(
                "sharded build needs exactly shards()={} pools, got {}",
                self.shards,
                pools.len()
            )));
        }
        for (i, pool) in pools.iter().enumerate() {
            self.check::<K>(pool).map_err(|e| e.with_shard(i))?;
        }
        Ok(())
    }

    /// Builds a keyspace-sharded concurrent fixed-key tree
    /// ([`crate::ShardedTree`]) over `pools` — one independent tree, pool,
    /// and micro-log set per shard, keys routed by Fibonacci hash. `pools`
    /// must have exactly [`TreeBuilder::shards`] members (see
    /// [`fptree_pmem::create_pools`]).
    pub fn build_sharded(
        &self,
        pools: Vec<Arc<PmemPool>>,
    ) -> Result<crate::shard::ShardedTree, Error> {
        self.check_sharded::<crate::keys::FixedKey>(&pools)?;
        Ok(crate::shard::Sharded::create(
            pools,
            self.cfg,
            self.owner_slot,
        ))
    }

    /// Builds a keyspace-sharded concurrent variable-key tree
    /// ([`crate::ShardedTreeVar`]); see [`TreeBuilder::build_sharded`].
    pub fn build_sharded_var(
        &self,
        pools: Vec<Arc<PmemPool>>,
    ) -> Result<crate::shard::ShardedTreeVar, Error> {
        self.check_sharded::<crate::keys::VarKey>(&pools)?;
        Ok(crate::shard::Sharded::create(
            pools,
            self.cfg,
            self.owner_slot,
        ))
    }

    /// Opens (recovers) a sharded fixed-key tree: every shard recovers
    /// *concurrently*, each shard's recovery pipeline running on its share
    /// of [`TreeBuilder::recovery_threads`]. The shard count comes from
    /// `pools.len()` — the on-disk shard-file family is authoritative
    /// ([`fptree_pmem::load_pools`]), not the builder's `shards()` knob.
    pub fn open_sharded(
        &self,
        pools: Vec<Arc<PmemPool>>,
    ) -> Result<crate::shard::ShardedTree, Error> {
        crate::shard::Sharded::open_with(pools, self.owner_slot, self.recovery_threads)
    }

    /// Opens (recovers) a sharded variable-key tree; see
    /// [`TreeBuilder::open_sharded`].
    pub fn open_sharded_var(
        &self,
        pools: Vec<Arc<PmemPool>>,
    ) -> Result<crate::shard::ShardedTreeVar, Error> {
        crate::shard::Sharded::open_with(pools, self.owner_slot, self.recovery_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fptree_pmem::PoolOptions;

    fn pool(bytes: usize) -> Arc<PmemPool> {
        Arc::new(PmemPool::create(PoolOptions::direct(bytes)).unwrap())
    }

    #[test]
    fn builder_rejects_zero_capacity_leaves() {
        let err = match TreeBuilder::new()
            .leaf_capacity(0)
            .build_concurrent(pool(8 << 20))
        {
            Err(e) => e,
            Ok(_) => panic!("zero-capacity build must fail"),
        };
        match err {
            Error::InvalidConfig(msg) => assert!(msg.contains("leaf capacity"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_misaligned_value_size() {
        let err = match TreeBuilder::new()
            .value_size(12)
            .build_concurrent(pool(8 << 20))
        {
            Err(e) => e,
            Ok(_) => panic!("misaligned value size must fail"),
        };
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn builder_rejects_undersized_pool() {
        // 8 KiB cannot hold the 64-log metadata block plus a first leaf.
        let err = match TreeBuilder::new().build_concurrent(pool(8 << 10)) {
            Err(e) => e,
            Ok(_) => panic!("undersized pool must fail"),
        };
        match err {
            Error::PoolFull {
                required,
                available,
                shard,
            } => {
                assert!(required > available, "{required} vs {available}");
                assert_eq!(shard, None);
            }
            other => panic!("expected PoolFull, got {other:?}"),
        }
    }

    #[test]
    fn builder_builds_working_trees() {
        let tree = TreeBuilder::new()
            .leaf_capacity(8)
            .build_concurrent(pool(8 << 20))
            .unwrap();
        for i in 0..100u64 {
            assert!(tree.insert(&i, i * 10));
        }
        assert_eq!(tree.get(&42), Some(420));
        assert_eq!(tree.len(), 100);
        tree.check_consistency().unwrap();
    }

    #[test]
    fn builder_sharded_builds_and_validates() {
        let pools = fptree_pmem::create_pools(4, PoolOptions::direct(16 << 20)).unwrap();
        let tree = TreeBuilder::concurrent()
            .shards(4)
            .build_sharded(pools)
            .unwrap();
        assert_eq!(tree.shard_count(), 4);
        for k in 0..500u64 {
            assert!(tree.insert(&k, k));
        }
        assert_eq!(tree.len(), 500);

        // Pool count must match the shards() knob.
        let pools = fptree_pmem::create_pools(2, PoolOptions::direct(16 << 20)).unwrap();
        let err = TreeBuilder::concurrent()
            .shards(4)
            .build_sharded(pools)
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");

        // Undersized pools fail with the shard named.
        let pools = fptree_pmem::create_pools(2, PoolOptions::direct(8 << 10)).unwrap();
        let err = TreeBuilder::concurrent()
            .shards(2)
            .build_sharded(pools)
            .unwrap_err();
        assert_eq!(err.shard(), Some(0), "{err:?}");
    }

    #[test]
    fn error_display_is_actionable() {
        let e = Error::PoolFull {
            required: 100,
            available: 50,
            shard: None,
        };
        assert_eq!(e.to_string(), "pool is full: need 100 bytes, 50 available");
        let e = e.with_shard(3);
        assert_eq!(
            e.to_string(),
            "pool of shard 3 is full: need 100 bytes, 50 available"
        );
        assert_eq!(e.shard(), Some(3));
        assert_eq!(
            Error::Poisoned.to_string(),
            "index lock poisoned by a panicking holder"
        );
    }
}
