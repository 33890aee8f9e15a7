//! `write-churn`: two client threads share one tree of 4 M preloaded
//! fixed keys at 250 ns SCM. Uniform keys; 35 % insert of a new id, 35 %
//! remove of the oldest id (the live size stays near constant), 20 %
//! update, 10 % get.
//!
//! Persistence, append-buffer folds, splits and micro-logs, the
//! allocator, and leaf-lock and seqlock contention do the work; the gets
//! show read cost while buffers are full. Each thread owns the ids
//! congruent to its index, so its shadow model is exact without locks.
//! Recovery here walks the largest, most churned chain.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fptree_core::{ConcurrentFPTree, Snapshot, TreeBuilder};
use fptree_pmem::PmemPool;

use crate::common::*;
use crate::gen::{key_of, value_of, Rng};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::{Args, Outcome};

const KEYS: u64 = 4_000_000;
const THREADS: u64 = 2;
const SCM_NS: u64 = 250;
const POOL_BYTES: usize = 448 << 20;
const RUN: usize = 64;
const SCAN_LEN: usize = 32;
const WARMUP_OPS: u64 = 50_000;
const REOPENS: usize = 5;
const SPOT_CHECKS: u64 = 2_000;
/// How long the scans of each warmed-up tree run.
const SCAN_PROBE: Duration = Duration::from_secs(2);

/// One thread's share of the keyspace: ids `j * THREADS + lane`, of which
/// `lo..hi` are live, each with its update count.
struct Lane {
    lane: u64,
    seed: u64,
    lo: u64,
    hi: u64,
    versions: Vec<u32>,
}

impl Lane {
    fn new(seed: u64, lane: u64) -> Lane {
        let hi = KEYS / THREADS;
        Lane {
            lane,
            seed,
            lo: 0,
            hi,
            versions: vec![0; hi as usize],
        }
    }

    fn key(&self, j: u64) -> u64 {
        key_of(self.seed, j * THREADS + self.lane)
    }

    fn value(&self, j: u64) -> u64 {
        value_of(self.key(j), self.versions[j as usize])
    }

    fn live(&self) -> u64 {
        self.hi - self.lo
    }
}

#[derive(Clone, Copy)]
enum Class {
    Get,
    Write,
}

/// Latency samples, slice counts and traced read-line attribution of one
/// client thread.
struct Tally {
    oracle: Oracle,
    get: Samples,
    write: Samples,
    slices: Slices,
    lines: [u64; 2],
    counted: [u64; 2],
    writes: u64,
}

/// Runs one operation of the mix on `lane` and checks its answer.
#[inline]
fn op(
    tree: &ConcurrentFPTree,
    lane: &mut Lane,
    rng: &mut Rng,
    oracle: &mut Oracle,
    trace: Option<&Tracer>,
) -> (Class, u64) {
    let span = |name: &'static str, f: &mut dyn FnMut()| match trace {
        Some(t) => t.span(name, f),
        None => f(),
    };
    let dice = rng.below(100);
    let mut ok = false;
    let t0 = Instant::now();
    let class = match dice {
        0..=34 => {
            let j = lane.hi;
            lane.versions.push(0);
            let (key, value) = (lane.key(j), lane.value(j));
            span("tree.insert", &mut || ok = tree.insert(&key, value));
            lane.hi += 1;
            Class::Write
        }
        35..=69 => {
            let key = lane.key(lane.lo);
            span("tree.remove", &mut || ok = tree.remove(&key));
            lane.lo += 1;
            Class::Write
        }
        70..=89 => {
            let j = lane.lo + rng.below(lane.live());
            lane.versions[j as usize] += 1;
            let (key, value) = (lane.key(j), lane.value(j));
            span("tree.update", &mut || ok = tree.update(&key, value));
            Class::Write
        }
        _ => {
            let j = lane.lo + rng.below(lane.live());
            let key = lane.key(j);
            let mut got = None;
            span("tree.get", &mut || got = tree.get(&key));
            ok = got == Some(lane.value(j));
            Class::Get
        }
    };
    let ns = t0.elapsed().as_nanos() as u64;
    oracle.check(ok, || format!("lane {} op {dice} failed", lane.lane));
    (class, ns)
}

struct Instance {
    pool: Arc<PmemPool>,
    tree: ConcurrentFPTree,
}

/// Pool creation, sorted 64-key `insert_batch` preload and a warm-up of
/// both threads.
fn set_up(
    sorted: &[u64],
    lanes: &mut [Lane],
    seed: u64,
    round: u64,
    oracle: &mut Oracle,
) -> Instance {
    let pool = new_pool(POOL_BYTES, SCM_NS);
    let tree = TreeBuilder::concurrent()
        .build_concurrent(Arc::clone(&pool))
        .expect("tree over a fresh pool");
    for (t, lane) in lanes.iter_mut().enumerate() {
        *lane = Lane::new(seed, t as u64);
    }
    let mut run = Vec::with_capacity(RUN);
    for chunk in sorted.chunks(RUN) {
        run.clear();
        run.extend(chunk.iter().map(|&k| (k, value_of(k, 0))));
        let n = tree.insert_batch(&run);
        oracle.check(n == run.len(), || {
            format!("preload run inserted {n} of {}", run.len())
        });
    }
    let tree_ref = &tree;
    let warm: Vec<Oracle> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed, 100 + round * THREADS + lane.lane);
                    let mut oracle = Oracle::default();
                    for _ in 0..WARMUP_OPS {
                        op(tree_ref, lane, &mut rng, &mut oracle, None);
                    }
                    oracle
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread"))
            .collect()
    });
    warm.into_iter().for_each(|o| oracle.absorb(o));
    Instance { pool, tree }
}

/// What one measured segment leaves behind, both threads combined.
struct Segment {
    slices: Slices,
    get: Samples,
    write: Samples,
    lines: [u64; 2],
    counted: [u64; 2],
    writes: u64,
}

impl Segment {
    fn combine(tallies: Vec<Tally>, oracle: &mut Oracle) -> Segment {
        let mut slices = tallies[0].slices.clone();
        for t in &tallies[1..] {
            slices.merge(&t.slices);
        }
        let mut seg = Segment {
            slices,
            get: Samples::default(),
            write: Samples::default(),
            lines: [0; 2],
            counted: [0; 2],
            writes: 0,
        };
        for t in tallies {
            oracle.absorb(t.oracle);
            seg.get.extend(t.get);
            seg.write.extend(t.write);
            for c in 0..2 {
                seg.lines[c] += t.lines[c];
                seg.counted[c] += t.counted[c];
            }
            seg.writes += t.writes;
        }
        seg
    }
}

/// A measured segment: both threads run the mix for `time`.
fn measure(
    inst: &Instance,
    lanes: &mut [Lane],
    args: &Args,
    time: Duration,
    tracer: &Tracer,
) -> Vec<Tally> {
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                s.spawn(move || {
                    let mut rng = Rng::new(args.seed, 200 + lane.lane);
                    let mut tally = Tally {
                        oracle: Oracle::default(),
                        get: Samples::default(),
                        write: Samples::default(),
                        slices: Slices::new(start, time),
                        lines: [0; 2],
                        counted: [0; 2],
                        writes: 0,
                    };
                    while Instant::now() < start {
                        std::hint::spin_loop();
                    }
                    let mut seq = lane.lane << 48;
                    while let Some(i) = tally.slices.index(Instant::now()) {
                        let traced = args.trace && traced_slice(i);
                        let (class, ns) = if traced {
                            seq += 1;
                            Tracer::set_request(seq);
                            let before = inst.pool.stats().snapshot();
                            let r = op(&inst.tree, lane, &mut rng, &mut tally.oracle, Some(tracer));
                            let d = pool_delta(&before, &inst.pool.stats().snapshot());
                            tally.lines[r.0 as usize] += d.read_lines;
                            tally.counted[r.0 as usize] += 1;
                            r
                        } else {
                            op(&inst.tree, lane, &mut rng, &mut tally.oracle, None)
                        };
                        match class {
                            Class::Get if !args.trace => tally.get.push(i, ns),
                            Class::Write if !args.trace => tally.write.push(i, ns),
                            _ => {}
                        }
                        tally.writes += matches!(class, Class::Write) as u64;
                        tally.slices.counts[i] += 1;
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Every live `(key, value)` in key order, for checking scans.
fn live_sorted(lanes: &[Lane]) -> Vec<(u64, u64)> {
    let mut all: Vec<(u64, u64)> = lanes
        .iter()
        .flat_map(|l| (l.lo..l.hi).map(move |j| (l.key(j), l.value(j))))
        .collect();
    all.sort_unstable();
    all
}

/// 32-entry scans from random live keys, checked against the model; the
/// mix itself has no scans.
fn scan_probe(
    tree: &ConcurrentFPTree,
    live: &[(u64, u64)],
    rng: &mut Rng,
    oracle: &mut Oracle,
    tracer: &Tracer,
) -> (Samples, Slices, u64) {
    probe_for(SCAN_PROBE, false, || {
        let p = rng.below(live.len() as u64) as usize;
        let start = live[p].0;
        let mut got = Vec::new();
        let t0 = Instant::now();
        tracer.span("tree.scan", || {
            got = tree.scan(start..).take(SCAN_LEN).collect::<Vec<_>>()
        });
        let ns = t0.elapsed().as_nanos() as u64;
        let want = &live[p..(p + SCAN_LEN).min(live.len())];
        oracle.check(got == want, || {
            format!("scan from {start:#x} differs from the model")
        });
        Some(vec![ns])
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut sorted: Vec<u64> = (0..KEYS).map(|id| key_of(args.seed, id)).collect();
    sorted.sort_unstable();
    let mut lanes: Vec<Lane> = (0..THREADS).map(|t| Lane::new(args.seed, t)).collect();
    let mut oracle = Oracle::default();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let tracer = Tracer::new();
    tracer.set_on(args.trace);
    let mut rng = Rng::new(args.seed, 300);
    // Each set-up is followed by a scan probe on the warmed-up tree, whose
    // shape does not depend on how far the timed churn got, and by an
    // equal share of the timed phase; every figure is the median over the
    // set-ups, so a slow spell of the host hits one share, not the run.
    // The last tree's scans are checked after its share, and it recovers.
    let share = Duration::from_secs(args.seconds) / repeats as u32;
    let (mut probes, mut segments) = (Vec::new(), Vec::new());
    let (mut probe0, mut probe1, mut scans) = (Snapshot::default(), Snapshot::default(), 0);
    let (mut snap0, mut snap1) = (Snapshot::default(), Snapshot::default());
    let (mut pool0, mut pool1) = Default::default();
    let mut dram_after_warmup = 0.0;
    let mut inst = None;
    for round in 0..repeats {
        drop(inst.take());
        let t0 = Instant::now();
        let warmed = set_up(&sorted, &mut lanes, args.seed, round as u64, &mut oracle);
        setup_s.push(t0.elapsed().as_secs_f64());
        dram_after_warmup = warmed.tree.dram_bytes() as f64;
        let live_kv = live_sorted(&lanes);
        probe0 = warmed.tree.metrics_snapshot();
        let (scan, scan_slices, n) =
            scan_probe(&warmed.tree, &live_kv, &mut rng, &mut oracle, &tracer);
        probe1 = warmed.tree.metrics_snapshot();
        scans = n;
        probes.push((scan, scan_slices));
        drop(live_kv);
        snap0 = warmed.tree.metrics_snapshot();
        pool0 = warmed.pool.stats().snapshot();
        let tallies = measure(&warmed, &mut lanes, args, share, &tracer);
        snap1 = warmed.tree.metrics_snapshot();
        pool1 = warmed.pool.stats().snapshot();
        segments.push(Segment::combine(tallies, &mut oracle));
        inst = Some(warmed);
    }
    drop(sorted);
    phase("set-ups, scan probes and measured shares");
    let inst = inst.expect("at least one set-up");
    let ops = segments.iter().map(|g| g.slices.total()).sum::<u64>() as f64;
    let live: u64 = lanes.iter().map(Lane::live).sum();
    let bytes_live = pool1.bytes_live as f64;
    let dram_end = inst.tree.dram_bytes() as f64;

    tracer.set_on(false);
    scan_probe(
        &inst.tree,
        &live_sorted(&lanes),
        &mut rng,
        &mut oracle,
        &tracer,
    );
    phase("scan check");

    let rec = measure_recovery(
        &inst.pool,
        crate::nproc(),
        REOPENS,
        |t: &ConcurrentFPTree| {
            oracle.check(t.len() as u64 == live, || {
                format!("reopened len {} != {live}", t.len())
            });
            for lane in &lanes {
                for _ in 0..SPOT_CHECKS {
                    let j = lane.lo + rng.below(lane.live());
                    let got = t.get(&lane.key(j));
                    oracle.check(got == Some(lane.value(j)), || {
                        format!("reopened get: {got:?}")
                    });
                    if lane.lo > 0 {
                        let got = t.get(&lane.key(rng.below(lane.lo)));
                        oracle.check(got.is_none(), || format!("reopened removed key: {got:?}"));
                    }
                }
            }
            let c = t.check_consistency();
            oracle.check(c.is_ok(), || format!("reopened tree inconsistent: {c:?}"));
        },
    );
    phase("recovery");

    let mut t = Table::default();
    let mut out = Outcome::new(oracle);
    if !args.trace {
        let mut rows: Vec<(&'static str, &'static str, Vec<f64>)> = [
            ("ops_per_s", "ops/s"),
            ("get_p50_us", "us"),
            ("get_p99_us", "us"),
            ("write_p50_us", "us"),
            ("write_p99_us", "us"),
        ]
        .iter()
        .map(|&(n, u)| (n, u, Vec::new()))
        .collect();
        for (i, seg) in segments.iter().enumerate() {
            let calm = out.calm(&format!("measure{i}"), &seg.slices);
            rows[0].2.push(seg.slices.rate(&calm));
            out.report(&format!("ops_per_s{i}"), seg.slices.rate(&calm));
            for (k, samples) in [(1, &seg.get), (3, &seg.write)] {
                if let Some(s) = samples.summary(&calm) {
                    rows[k].2.push(s.p50_us);
                    rows[k + 1].2.push(s.p99_us);
                    out.report(&format!("{}.samples{i}", rows[k].0), s.n as f64);
                    out.report(&format!("{}.beyond{i}", rows[k + 1].0), s.beyond_p99 as f64);
                }
            }
        }
        for (name, unit, values) in &rows {
            if !values.is_empty() {
                t.set(name, median(values), unit);
            }
        }
        let mut p50s = Vec::new();
        for (i, (scan, scan_slices)) in probes.iter().enumerate() {
            let calm = out.calm(&format!("scan_probe{i}"), scan_slices);
            if let Some(s) = scan.summary(&calm) {
                p50s.push(s.p50_us);
                out.report(&format!("scan_probe{i}.samples"), s.n as f64);
                out.report(&format!("scan_probe{i}.p50_us"), s.p50_us);
            }
        }
        if !p50s.is_empty() {
            t.set("scan_p50_us", median(&p50s), "us");
        }
        out.recovery(&mut t, &rec);
        t.set("scm_bytes_per_key", bytes_live / live as f64, "B/key");
        t.set("dram_bytes_per_key", dram_end / live as f64, "B/key");
        t.set("setup_s", median(&setup_s), "s");
    } else {
        let seg = &segments[segments.len() - 1];
        let per = |c: Class| ratio(seg.lines[c as usize] as f64, seg.counted[c as usize] as f64);
        t.set("pmem.read_lines_per_get", per(Class::Get), "lines/op");
        t.set("pmem.read_lines_per_write", per(Class::Write), "lines/op");
        write_rows(&mut t, &pool_delta(&pool0, &pool1), seg.writes as f64);
        tree_counter_rows(&mut t, &snap0, &snap1, seg.slices.total() as f64);
        for (row, span) in [
            ("tree.get_ns", "tree.get"),
            ("tree.insert_ns", "tree.insert"),
            ("tree.update_ns", "tree.update"),
            ("tree.remove_ns", "tree.remove"),
        ] {
            t.set(row, tracer.median_self_ns(&[span]), "ns");
        }
        scan_rows(&mut t, &tracer, &probe0, &probe1, scans as f64, "tree.scan");
        batch_row(&mut t, &snap1);
        recovery_rows(&mut t, &rec);
        t.set(
            "index.dram_growth",
            ratio(dram_end, dram_after_warmup),
            "ratio",
        );
        let spans = out.write_spans(args, &tracer);
        overhead_rows(&mut t, &seg.slices, spans);
    }
    out.report("keys", KEYS as f64);
    out.report("live_keys_end", live as f64);
    out.report("threads", THREADS as f64);
    out.report("scm_ns", SCM_NS as f64);
    out.report("timed_ops", ops);
    out.report("pool_high_water_bytes", pool1.bump_high_water as f64);
    out.table = t;
    out
}
