//! Criterion: the Fingerprinting ablation (§4.2) — identical tree except
//! for the fingerprint array, point-lookup latency at 450 ns SCM latency.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use fptree_bench::shuffled_keys;
use fptree_core::fingerprint::{fingerprint_bytes, fingerprint_u64};
use fptree_core::{ConcurrentFPTree, TreeConfig};
use fptree_pmem::{LatencyProfile, PmemPool, PoolOptions, ROOT_SLOT};

fn bench_find_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("fingerprint_ablation_450ns");
    g.sample_size(20);
    for (name, fps) in [("fingerprints_on", true), ("fingerprints_off", false)] {
        let pool = Arc::new(
            PmemPool::create(
                PoolOptions::direct(256 << 20).with_latency(LatencyProfile::from_total(450)),
            )
            .expect("pool"),
        );
        let mut cfg = TreeConfig::fptree();
        cfg.fingerprints = fps;
        let t = ConcurrentFPTree::create(pool, cfg, ROOT_SLOT);
        let keys = shuffled_keys(20_000, 45);
        for &k in &keys {
            t.insert(&k, k);
        }
        let mut i = 0usize;
        g.bench_function(name, |b| {
            b.iter(|| {
                i = (i + 1) % keys.len();
                std::hint::black_box(t.get(&keys[i]))
            })
        });
    }
    g.finish();
}

fn bench_hash_functions(c: &mut Criterion) {
    let mut g = c.benchmark_group("fingerprint_hashing");
    g.bench_function("u64", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            std::hint::black_box(fingerprint_u64(k))
        })
    });
    g.bench_function("bytes_16", |b| {
        let key = b"0123456789abcdef";
        b.iter(|| std::hint::black_box(fingerprint_bytes(key)))
    });
    g.finish();
}

criterion_group!(benches, bench_find_ablation, bench_hash_functions);
criterion_main!(benches);
