//! Recovery-of-recovery torture: the recovery procedures themselves must be
//! crash-safe (micro-log replay and cleanup are idempotent), so a crash
//! *during* recovery followed by another recovery must converge.

use std::sync::Arc;

use fptree_core::keys::{FixedKey, VarKey};
use fptree_core::{ConcKey, ConcurrentTree, TreeConfig};
use fptree_pmem::{crash_is_injected, PmemPool, PoolOptions, ROOT_SLOT};
use proptest::prelude::*;

fn crash_mid_workload<K: ConcKey>(
    mk: &impl Fn(u64) -> K::Owned,
    fuse: u64,
    preset: TreeConfig,
) -> Vec<u8> {
    let pool = Arc::new(PmemPool::create(PoolOptions::tracked(64 << 20)).expect("pool"));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let cfg = preset.with_leaf_capacity(4).with_inner_fanout(4);
        let t = ConcurrentTree::<K>::create(Arc::clone(&pool), cfg, ROOT_SLOT);
        pool.set_crash_fuse(Some(fuse));
        for i in 0..100u64 {
            t.insert(&mk(i), i);
            if i % 3 == 0 {
                t.remove(&mk(i / 2));
            }
            if i % 7 == 0 {
                t.update(&mk(i), i + 500);
            }
        }
    }));
    pool.set_crash_fuse(None);
    if let Err(e) = &r {
        assert!(crash_is_injected(e.as_ref()));
    }
    pool.crash_image(fuse ^ 0x5EED)
}

fn double_crash_recovers<K: ConcKey>(
    mk: impl Fn(u64) -> K::Owned,
    fuse1: u64,
    fuse2: u64,
    preset: TreeConfig,
) {
    let image = crash_mid_workload::<K>(&mk, fuse1, preset);

    // First recovery attempt, itself crashed after `fuse2` events.
    let pool = Arc::new(PmemPool::reopen(image, PoolOptions::tracked(0)).expect("reopen"));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.set_crash_fuse(Some(fuse2));
        ConcurrentTree::<K>::open(Arc::clone(&pool), ROOT_SLOT)
            .expect("recovery reported corruption")
    }));
    pool.set_crash_fuse(None);
    let first_recovery_crashed = match r {
        Ok(t) => {
            t.check_consistency().expect("recovered tree consistent");
            false
        }
        Err(e) => {
            assert!(
                crash_is_injected(e.as_ref()),
                "non-injected panic in recovery"
            );
            true
        }
    };

    // Second recovery from whatever the first one left behind.
    let image2 = pool.crash_image(fuse2 ^ 0xDEAD);
    let pool2 = Arc::new(PmemPool::reopen(image2, PoolOptions::tracked(0)).expect("reopen2"));
    let t = ConcurrentTree::<K>::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    t.check_consistency().unwrap_or_else(|e| {
        panic!("double-crash recovery inconsistent (fuse1 {fuse1}, fuse2 {fuse2}, first_crashed {first_recovery_crashed}): {e}")
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn fixed_keys_double_crash(fuse1 in 20u64..1200, fuse2 in 1u64..120) {
        double_crash_recovers::<FixedKey>(|k| k, fuse1, fuse2, TreeConfig::fptree());
    }

    #[test]
    fn var_keys_double_crash(fuse1 in 20u64..1500, fuse2 in 1u64..150) {
        double_crash_recovers::<VarKey>(
            |k| format!("rk:{k:05}").into_bytes(),
            fuse1,
            fuse2,
            TreeConfig::fptree_var(),
        );
    }

    #[test]
    fn fixed_keys_double_crash_ptree(fuse1 in 20u64..1200, fuse2 in 1u64..120) {
        double_crash_recovers::<FixedKey>(|k| k, fuse1, fuse2, TreeConfig::ptree());
    }
}

/// Honour `PROPTEST_CASES` (set by the TSan CI job) while keeping a larger
/// default than proptest's own, so the differential sweep sees >= 100 crash
/// schedules in a normal run.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

type Snapshot<K> = (
    Vec<(<K as fptree_core::KeyKind>::Owned, u64)>,
    Vec<u64>,
    usize,
);

fn recovery_snapshot<K: ConcKey>(image: Vec<u8>, threads: usize) -> Snapshot<K> {
    let pool = Arc::new(PmemPool::reopen(image, PoolOptions::tracked(0)).expect("reopen"));
    let t = ConcurrentTree::<K>::open_with(Arc::clone(&pool), ROOT_SLOT, threads).expect("recover");
    t.check_consistency().expect("recovered tree consistent");
    (t.scan(..).collect(), t.leaf_offsets(), t.len())
}

/// Differential fuzz: recovering the same crash image with 1 worker and with
/// N > 1 workers must produce bit-identical logical state — same contents,
/// same leaf chain, same length.
fn parallel_recovery_matches_serial<K: ConcKey>(
    mk: impl Fn(u64) -> K::Owned,
    fuse: u64,
    preset: TreeConfig,
) {
    let image = crash_mid_workload::<K>(&mk, fuse, preset);
    let serial = recovery_snapshot::<K>(image.clone(), 1);
    for threads in [2usize, 4] {
        let parallel = recovery_snapshot::<K>(image.clone(), threads);
        assert_eq!(
            serial, parallel,
            "threads {threads} diverged from serial (fuse {fuse})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(40), ..ProptestConfig::default() })]

    #[test]
    fn fixed_keys_differential(fuse in 20u64..1500) {
        parallel_recovery_matches_serial::<FixedKey>(|k| k, fuse, TreeConfig::fptree());
    }

    #[test]
    fn var_keys_differential(fuse in 20u64..1800) {
        parallel_recovery_matches_serial::<VarKey>(
            |k| format!("rk:{k:05}").into_bytes(),
            fuse,
            TreeConfig::fptree_var(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(20), ..ProptestConfig::default() })]

    #[test]
    fn fixed_keys_differential_ptree(fuse in 20u64..1500) {
        parallel_recovery_matches_serial::<FixedKey>(|k| k, fuse, TreeConfig::ptree());
    }
}

/// Recovery is deterministic: recovering the same crash image twice must
/// produce identical durable states.
#[test]
fn recovery_is_deterministic() {
    let mk = |k: u64| k;
    for fuse in [137u64, 419, 977] {
        let image = crash_mid_workload::<FixedKey>(&mk, fuse, TreeConfig::fptree());
        let snap = |img: Vec<u8>| -> Vec<(u64, u64)> {
            let pool = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).expect("reopen"));
            let t =
                ConcurrentTree::<FixedKey>::open(Arc::clone(&pool), ROOT_SLOT).expect("recover");
            t.scan(..).collect()
        };
        let a = snap(image.clone());
        let b = snap(image);
        assert_eq!(a, b, "fuse {fuse}: recovery nondeterministic");
    }
}
