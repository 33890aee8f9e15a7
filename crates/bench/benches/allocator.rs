//! Criterion: persistent allocation cost (one crash-safe allocate +
//! deallocate pair per leaf split or unlink).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fptree_pmem::{PmemPool, PoolOptions};

fn bench_raw_alloc(c: &mut Criterion) {
    let mut g = c.benchmark_group("persistent_allocator");
    g.sample_size(20);
    g.bench_function("alloc_free_1k", |b| {
        b.iter_batched(
            || PmemPool::create(PoolOptions::direct(64 << 20)).expect("pool"),
            |pool| {
                let slot = fptree_pmem::ROOT_SLOT;
                for _ in 0..100 {
                    pool.allocate(slot, 1024).expect("alloc");
                    pool.deallocate(slot);
                }
                pool
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_raw_alloc);
criterion_main!(benches);
