//! Figure 7 (e–f, k–l): recovery time vs tree size at SCM latencies 90 and
//! 650 ns, fixed and variable keys.
//!
//! Persistent trees recover by replaying micro-logs and rebuilding DRAM
//! inner nodes from the leaf list; the STXTree baseline must be fully
//! rebuilt from sorted data (the transient "full rebuild after restart").
//! The wBTree lives entirely in SCM and recovers in constant time.
//!
//! `--threads 1,2,4` sweeps the parallel-recovery worker pool and adds
//! per-phase columns (`replay_ms`/`harvest_ms`/`audit_ms`/`build_ms`) for
//! the FPTree/PTree variants.

use std::sync::Arc;
use std::time::Instant;

use fptree_baselines::{NVTreeC, StxTree, WBTree};
use fptree_bench::{shuffled_keys, string_key, Args, Report, Row};
use fptree_core::keys::{FixedKey, VarKey};
use fptree_core::{ConcKey, ConcurrentTree, TreeConfig};
use fptree_pmem::{LatencyProfile, PmemPool, PoolOptions, ROOT_SLOT};

fn main() {
    let args = Args::parse();
    let max_scale: usize = args.get("scale", 100_000);
    let var_keys = args.get_str("keys") == Some("var");
    let want_metrics = args.flag("metrics");
    let out = args.get_str("out");
    // `--threads 1,2,4` sweeps the recovery worker pool; a bare `--threads N`
    // measures one setting. Absent, the tree's default pool size is used
    // (0 is "pick the default" to `open_with`).
    let threads_list: Vec<usize> = args
        .get_str("threads")
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![0]);
    let sizes: Vec<usize> = {
        let mut v = vec![];
        let mut s = max_scale / 100;
        while s <= max_scale {
            v.push(s.max(1000));
            s *= 10;
        }
        v.dedup();
        v
    };

    for latency in [90u64, 650] {
        let mut report = Report::new(
            "fig7_recovery",
            &format!(
                "Figure 7 {}: recovery time (ms) vs tree size @{latency}ns",
                if var_keys {
                    "k–l (var keys)"
                } else {
                    "e–f (fixed keys)"
                }
            ),
        );
        for &size in &sizes {
            let keys = shuffled_keys(size, 3);
            let row = if var_keys {
                measure_var(&keys, latency, want_metrics, &threads_list)
            } else {
                measure_fixed(&keys, latency, want_metrics, &threads_list)
            };
            let mut r = Row::new(format!("{size} keys"));
            for (name, ms) in row {
                r = r.field(&name, ms);
            }
            report.push(r);
        }
        report.emit(out);
    }
}

fn pool_mb_for(n: usize) -> usize {
    (n * 4000 / (1 << 20) + 128).next_power_of_two()
}

/// Recovers with each requested worker count, reporting total and per-phase
/// times. Field names stay the bare tree name for the default single-setting
/// run; sweeps suffix the worker count (`FPTree(t4)`).
fn recover_sweep<K: ConcKey>(
    name: &str,
    img: &[u8],
    latency: u64,
    want_metrics: bool,
    threads_list: &[usize],
    expect_len: usize,
    rows: &mut Vec<(String, f64)>,
) {
    for &threads in threads_list {
        let pool2 = reopen(img.to_vec(), latency);
        let start = Instant::now();
        let t2 = ConcurrentTree::<K>::open_with(Arc::clone(&pool2), ROOT_SLOT, threads)
            .expect("recover");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(t2.len(), expect_len);
        let label = if threads_list.len() == 1 {
            name.to_string()
        } else {
            format!("{name}(t{threads})")
        };
        if want_metrics {
            // The freshly opened tree's registry carries only the recovery
            // work: recovery_rebuilds, recovery_leaves, leaf fills.
            fptree_bench::print_metrics(
                &format!("{label} recovery @{latency}ns"),
                Some(&t2.metrics_snapshot()),
            );
        }
        rows.push((label.clone(), ms));
        if let Some(rs) = t2.recovery_stats() {
            rows.push((format!("{label}:replay_ms"), rs.replay_us as f64 / 1e3));
            rows.push((format!("{label}:harvest_ms"), rs.harvest_us as f64 / 1e3));
            rows.push((format!("{label}:audit_ms"), rs.audit_us as f64 / 1e3));
            rows.push((format!("{label}:build_ms"), rs.build_us as f64 / 1e3));
        }
    }
}

fn measure_fixed(
    keys: &[u64],
    latency: u64,
    want_metrics: bool,
    threads_list: &[usize],
) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    // FPTree and PTree presets.
    for (name, cfg) in [
        ("FPTree", TreeConfig::fptree()),
        ("PTree", TreeConfig::ptree()),
    ] {
        let pool = pool_with(pool_mb_for(keys.len()), latency);
        let t = ConcurrentTree::<FixedKey>::create(Arc::clone(&pool), cfg, ROOT_SLOT);
        for &k in keys {
            t.insert(&k, k);
        }
        drop(t);
        let img = pool.clean_image();
        recover_sweep::<FixedKey>(
            name,
            &img,
            latency,
            want_metrics,
            threads_list,
            keys.len(),
            &mut rows,
        );
    }
    // NV-Tree.
    {
        let pool = pool_with(pool_mb_for(keys.len()) * 2, latency);
        let t = NVTreeC::<FixedKey>::create(Arc::clone(&pool), 32, 128, ROOT_SLOT);
        for &k in keys {
            t.insert(&k, k);
        }
        drop(t);
        let img = pool.clean_image();
        let pool2 = reopen(img, latency);
        let start = Instant::now();
        let t2 = NVTreeC::<FixedKey>::open(Arc::clone(&pool2), 128, ROOT_SLOT);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(t2.len(), keys.len());
        rows.push(("NV-Tree".to_string(), ms));
    }
    // wBTree: constant-time (micro-log replay only).
    {
        let pool = pool_with(pool_mb_for(keys.len()) * 2, latency);
        let mut t = WBTree::<FixedKey>::create(Arc::clone(&pool), 64, 32, ROOT_SLOT);
        for &k in keys {
            t.insert(&k, k);
        }
        drop(t);
        let img = pool.clean_image();
        let pool2 = reopen(img, latency);
        let start = Instant::now();
        let t2 = WBTree::<FixedKey>::open(Arc::clone(&pool2), ROOT_SLOT);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(t2.len(), keys.len());
        rows.push(("wBTree".to_string(), ms));
    }
    // STXTree: a transient tree loses everything — restart means
    // re-inserting the entire dataset (the paper's "full rebuild").
    {
        let start = Instant::now();
        let mut t = StxTree::with_capacities(16, 16);
        for &k in keys {
            t.insert(&k, k);
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(t.len(), keys.len());
        rows.push(("STXTree-rebuild".to_string(), ms));
    }
    rows
}

fn measure_var(
    keys: &[u64],
    latency: u64,
    want_metrics: bool,
    threads_list: &[usize],
) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    let skeys: Vec<Vec<u8>> = keys.iter().map(|&k| string_key(k)).collect();
    for (name, cfg) in [
        ("FPTreeVar", TreeConfig::fptree_var()),
        ("PTreeVar", TreeConfig::ptree_var()),
    ] {
        let pool = pool_with(pool_mb_for(keys.len()) * 2, latency);
        let t = ConcurrentTree::<VarKey>::create(Arc::clone(&pool), cfg, ROOT_SLOT);
        for k in &skeys {
            t.insert(k, 1);
        }
        drop(t);
        let img = pool.clean_image();
        recover_sweep::<VarKey>(
            name,
            &img,
            latency,
            want_metrics,
            threads_list,
            keys.len(),
            &mut rows,
        );
    }
    {
        let pool = pool_with(pool_mb_for(keys.len()) * 4, latency);
        let t = NVTreeC::<VarKey>::create(Arc::clone(&pool), 32, 128, ROOT_SLOT);
        for k in &skeys {
            t.insert(k, 1);
        }
        drop(t);
        let img = pool.clean_image();
        let pool2 = reopen(img, latency);
        let start = Instant::now();
        let t2 = NVTreeC::<VarKey>::open(Arc::clone(&pool2), 128, ROOT_SLOT);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(t2.len(), keys.len());
        rows.push(("NV-TreeVar".to_string(), ms));
    }
    {
        let start = Instant::now();
        let mut t = StxTree::with_capacities(8, 8);
        for k in &skeys {
            t.insert(k, 1);
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(t.len(), keys.len());
        rows.push(("STXTreeVar-rebuild".to_string(), ms));
    }
    rows
}

fn pool_with(mb: usize, latency: u64) -> Arc<PmemPool> {
    Arc::new(
        PmemPool::create(
            PoolOptions::direct(mb << 20).with_latency(LatencyProfile::from_total(latency)),
        )
        .expect("pool"),
    )
}

fn reopen(img: Vec<u8>, latency: u64) -> Arc<PmemPool> {
    Arc::new(
        PmemPool::reopen(
            img,
            PoolOptions::direct(0).with_latency(LatencyProfile::from_total(latency)),
        )
        .expect("reopen"),
    )
}
