//! `read-zipf`: one client thread over 1 M preloaded fixed keys at
//! 650 ns SCM, with a Zipfian mix of 85 % get of present keys, 5 % get of
//! absent keys, 5 % update and 5 % 32-entry scan.
//!
//! The read path does nearly all the work here (descent, fingerprint
//! probe, append-buffer validation, sentinels, scan gather) while
//! persistence is almost idle; absent-key gets take the sentinel gap
//! path. Running single-threaded lets the traced run charge pool
//! counters to each operation class exactly.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fptree_core::{ConcurrentFPTree, TreeBuilder};
use fptree_pmem::PmemPool;

use crate::common::*;
use crate::gen::{key_of, value_of, Rng, Zipf};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::{Args, Outcome};

const KEYS: u64 = 1_000_000;
const SCM_NS: u64 = 650;
const POOL_BYTES: usize = 128 << 20;
const RUN: usize = 64;
const SCAN_LEN: usize = 32;
const WARMUP_OPS: u64 = 100_000;
const REOPENS: usize = 7;
const SPOT_CHECKS: u64 = 2_000;

/// The shadow model: present keys by item, absent keys by item, each
/// present item's update count, and the present keys in key order.
struct Model {
    present: Vec<u64>,
    absent: Vec<u64>,
    versions: Vec<u32>,
    /// `(key, item)` ascending by key.
    sorted: Vec<(u64, u32)>,
    /// item → index into `sorted`.
    pos: Vec<u32>,
}

impl Model {
    fn new(seed: u64) -> Model {
        let present: Vec<u64> = (0..KEYS).map(|i| key_of(seed, 2 * i)).collect();
        let absent: Vec<u64> = (0..KEYS).map(|i| key_of(seed, 2 * i + 1)).collect();
        let mut sorted: Vec<(u64, u32)> = present
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u32))
            .collect();
        sorted.sort_unstable();
        let mut pos = vec![0u32; KEYS as usize];
        for (p, &(_, item)) in sorted.iter().enumerate() {
            pos[item as usize] = p as u32;
        }
        Model {
            present,
            absent,
            versions: vec![0; KEYS as usize],
            sorted,
            pos,
        }
    }

    fn value(&self, item: usize) -> u64 {
        value_of(self.present[item], self.versions[item])
    }

    fn expected_scan(&self, item: usize) -> Vec<(u64, u64)> {
        let p = self.pos[item] as usize;
        self.sorted[p..(p + SCAN_LEN).min(self.sorted.len())]
            .iter()
            .map(|&(k, it)| (k, self.value(it as usize)))
            .collect()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Get,
    Write,
    Scan,
}

/// One instance under test: the pool and the tree in it.
struct Instance {
    pool: Arc<PmemPool>,
    tree: ConcurrentFPTree,
}

/// Pool creation, sorted 64-key `insert_batch` preload and warm-up.
fn set_up(model: &mut Model, rng: &mut Rng, zipf: &mut Zipf, oracle: &mut Oracle) -> Instance {
    let pool = new_pool(POOL_BYTES, SCM_NS);
    let tree = TreeBuilder::concurrent()
        .build_concurrent(Arc::clone(&pool))
        .expect("tree over a fresh pool");
    model.versions.iter_mut().for_each(|v| *v = 0);
    let mut run = Vec::with_capacity(RUN);
    for chunk in model.sorted.chunks(RUN) {
        run.clear();
        run.extend(chunk.iter().map(|&(k, _)| (k, value_of(k, 0))));
        let n = tree.insert_batch(&run);
        oracle.check(n == run.len(), || {
            format!("preload run inserted {n} of {}", run.len())
        });
    }
    let inst = Instance { pool, tree };
    for _ in 0..WARMUP_OPS {
        op(&inst, model, rng, zipf, oracle, None);
    }
    inst
}

/// Runs one operation of the mix, checks its answer and returns its class
/// and latency. With `trace`, the tree call sits in a span.
#[inline]
fn op(
    inst: &Instance,
    model: &mut Model,
    rng: &mut Rng,
    zipf: &mut Zipf,
    oracle: &mut Oracle,
    trace: Option<&Tracer>,
) -> (Class, u64) {
    let span = |name: &'static str, f: &mut dyn FnMut()| match trace {
        Some(t) => t.span(name, f),
        None => f(),
    };
    let dice = rng.below(100);
    let item = zipf.item(rng) as usize;
    let tree = &inst.tree;
    match dice {
        0..=89 => {
            let (key, want) = if dice < 85 {
                (model.present[item], Some(model.value(item)))
            } else {
                (model.absent[item], None)
            };
            let mut got = None;
            let t0 = Instant::now();
            span("tree.get", &mut || got = tree.get(&key));
            let ns = t0.elapsed().as_nanos() as u64;
            oracle.check(got == want, || {
                format!("get {key:#x}: {got:?}, want {want:?}")
            });
            (Class::Get, ns)
        }
        90..=94 => {
            let key = model.present[item];
            model.versions[item] += 1;
            let value = model.value(item);
            let mut ok = false;
            let t0 = Instant::now();
            span("tree.update", &mut || ok = tree.update(&key, value));
            let ns = t0.elapsed().as_nanos() as u64;
            oracle.check(ok, || format!("update {key:#x} refused"));
            (Class::Write, ns)
        }
        _ => {
            let start = model.present[item];
            let mut got = Vec::new();
            let t0 = Instant::now();
            span("tree.scan", &mut || {
                got = tree.scan(start..).take(SCAN_LEN).collect::<Vec<_>>()
            });
            let ns = t0.elapsed().as_nanos() as u64;
            oracle.check(got == model.expected_scan(item), || {
                format!(
                    "scan from {start:#x}: {} entries differ from the model",
                    got.len()
                )
            });
            (Class::Scan, ns)
        }
    }
}

/// Reopens the tree and checks size, sampled keys and structure.
fn recovery(inst: &Instance, model: &Model, rng: &mut Rng, oracle: &mut Oracle) -> Recovery {
    measure_recovery(
        &inst.pool,
        crate::nproc(),
        REOPENS,
        |t: &ConcurrentFPTree| {
            oracle.check(t.len() as u64 == KEYS, || {
                format!("reopened len {} != {KEYS}", t.len())
            });
            for _ in 0..SPOT_CHECKS {
                let item = rng.below(KEYS) as usize;
                let (k, want) = (model.present[item], model.value(item));
                let got = t.get(&k);
                oracle.check(got == Some(want), || {
                    format!("reopened get {k:#x}: {got:?}")
                });
                let a = model.absent[item];
                oracle.check(t.get(&a).is_none(), || {
                    format!("reopened absent {a:#x} found")
                });
            }
            let c = t.check_consistency();
            oracle.check(c.is_ok(), || format!("reopened tree inconsistent: {c:?}"));
        },
    )
}

pub fn run(args: &Args) -> Outcome {
    let mut model = Model::new(args.seed);
    let mut rng = Rng::new(args.seed, 1);
    let mut zipf = Zipf::new(KEYS, 0.99);
    let mut oracle = Oracle::default();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut inst = None;
    for _ in 0..repeats {
        drop(inst.take());
        let t0 = Instant::now();
        inst = Some(set_up(&mut model, &mut rng, &mut zipf, &mut oracle));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    phase("set-up");
    let inst = inst.expect("at least one set-up");
    let dram_after_warmup = inst.tree.dram_bytes();

    let tracer = Tracer::new();
    tracer.set_on(args.trace);
    let mut slices = Slices::new(Instant::now(), Duration::from_secs(args.seconds));
    let mut lat = [Samples::default(), Samples::default(), Samples::default()];
    // Traced slices: read lines charged to each class, and class counts.
    let mut lines = [0u64; 3];
    let mut counted = [0u64; 3];
    let mut classes = [0u64; 3];
    let snap0 = inst.tree.metrics_snapshot();
    let pool0 = inst.pool.stats().snapshot();
    let mut seq = 0u64;
    while let Some(i) = slices.index(Instant::now()) {
        let traced = args.trace && traced_slice(i);
        seq += 1;
        let (class, ns) = if traced {
            Tracer::set_request(seq);
            let before = inst.pool.stats().snapshot();
            let r = op(
                &inst,
                &mut model,
                &mut rng,
                &mut zipf,
                &mut oracle,
                Some(&tracer),
            );
            let d = pool_delta(&before, &inst.pool.stats().snapshot());
            lines[r.0 as usize] += d.read_lines;
            counted[r.0 as usize] += 1;
            r
        } else {
            op(&inst, &mut model, &mut rng, &mut zipf, &mut oracle, None)
        };
        classes[class as usize] += 1;
        if !args.trace {
            lat[class as usize].push(i, ns);
        }
        slices.counts[i] += 1;
    }
    let ops = slices.total() as f64;
    phase("measure");
    let snap1 = inst.tree.metrics_snapshot();
    let pool1 = inst.pool.stats().snapshot();
    let live = inst.tree.len() as f64;
    let bytes_live = pool1.bytes_live as f64;
    let dram_end = inst.tree.dram_bytes() as f64;
    let rec = recovery(&inst, &model, &mut rng, &mut oracle);
    phase("recovery");

    let mut t = Table::default();
    let mut out = Outcome::new(oracle);
    if !args.trace {
        let [get, write, scan] = &lat;
        let calm = out.calm("measure", &slices);
        t.set("ops_per_s", slices.rate(&calm), "ops/s");
        out.latency(&mut t, ("get_p50_us", Some("get_p99_us")), get, &calm);
        out.latency(&mut t, ("write_p50_us", Some("write_p99_us")), write, &calm);
        out.latency(&mut t, ("scan_p50_us", None), scan, &calm);
        out.recovery(&mut t, &rec);
        t.set("scm_bytes_per_key", bytes_live / live, "B/key");
        t.set("dram_bytes_per_key", dram_end / live, "B/key");
        t.set("setup_s", median(&setup_s), "s");
    } else {
        let (g, w, s) = (
            Class::Get as usize,
            Class::Write as usize,
            Class::Scan as usize,
        );
        let per = |c: usize| ratio(lines[c] as f64, counted[c] as f64);
        t.set("pmem.read_lines_per_get", per(g), "lines/op");
        t.set("pmem.read_lines_per_scan", per(s), "lines/op");
        t.set("pmem.read_lines_per_write", per(w), "lines/op");
        let d = pool_delta(&pool0, &pool1);
        write_rows(&mut t, &d, classes[w] as f64);
        tree_counter_rows(&mut t, &snap0, &snap1, ops);
        scan_rows(
            &mut t,
            &tracer,
            &snap0,
            &snap1,
            classes[s] as f64,
            "tree.scan",
        );
        t.set("tree.get_ns", tracer.median_self_ns(&["tree.get"]), "ns");
        t.set(
            "tree.update_ns",
            tracer.median_self_ns(&["tree.update"]),
            "ns",
        );
        batch_row(&mut t, &snap1);
        recovery_rows(&mut t, &rec);
        t.set(
            "index.dram_growth",
            ratio(dram_end, dram_after_warmup as f64),
            "ratio",
        );
        let spans = out.write_spans(args, &tracer);
        overhead_rows(&mut t, &slices, spans);
    }
    out.report("keys", KEYS as f64);
    out.report("scm_ns", SCM_NS as f64);
    out.report("timed_ops", ops);
    out.report("pool_high_water_bytes", pool1.bump_high_water as f64);
    out.table = t;
    out
}
