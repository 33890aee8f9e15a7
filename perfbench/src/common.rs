//! Pieces the three workloads share: the answer oracle's failure count,
//! time slicing of the measured phase, metric tables, pool-counter deltas
//! and the timed reopen (recovery) loop.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fptree_core::concurrent::{ConcKey, ConcurrentTree};
use fptree_core::metrics::{RecoveryStats, Snapshot};
use fptree_pmem::{LatencyProfile, PmemPool, PoolOptions, StatsSnapshot, ROOT_SLOT};

use crate::host::{calm_slices, steal_ticks, Dropped, Interference, Mark};
use crate::stats::{median, Samples};
use crate::trace::Tracer;

/// Times a run sets itself up, so `setup_s` is a median.
pub const SETUP_REPEATS: usize = 3;

/// Length of one measurement slice. Figures are read from the slices the
/// host left alone (see [`crate::host`]), and the traced run alternates
/// untraced and traced slices.
pub const SLICE: Duration = Duration::from_millis(20);

/// Runs `probe` repeatedly for `time`, slicing the latencies of
/// the operations each call ran like the measured phase; a call that
/// returns `None` ends the probe. `steal_only` probes judge their slices
/// by steal alone (see [`Slices::steal_only`]). Returns the samples, the
/// slices and how many operations ran.
pub fn probe_for(
    time: Duration,
    steal_only: bool,
    mut probe: impl FnMut() -> Option<Vec<u64>>,
) -> (Samples, Slices, u64) {
    let mut slices = Slices::new(Instant::now(), time);
    if steal_only {
        slices = slices.steal_only();
    }
    let (mut lat, mut n) = (Samples::default(), 0u64);
    while let Some(i) = slices.index(Instant::now()) {
        let Some(done) = probe() else {
            break;
        };
        for ns in done {
            lat.push(i, ns);
            slices.counts[i] += 1;
            n += 1;
        }
    }
    (lat, slices, n)
}

/// Logs a finished phase and the seconds since the process started to
/// stderr, so a slow run shows where its time went.
pub fn phase(name: &str) {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("perfbench: {name} done at {t:.2} s");
}

/// Counts attempted operations and wrong answers, keeping the first few
/// wrong answers to print.
#[derive(Debug, Default)]
pub struct Oracle {
    pub attempted: u64,
    pub failed: u64,
    pub first: Vec<String>,
}

impl Oracle {
    /// Records one checked operation.
    #[inline]
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first.len() < 8 {
            self.first.push(what);
        }
    }

    pub fn absorb(&mut self, other: Oracle) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for w in other.first {
            if self.first.len() < 8 {
                self.first.push(w);
            }
        }
    }
}

/// Per-slice completed-operation counts of the measured phase, and what
/// the host took from each slice (see [`crate::host`]).
#[derive(Debug, Clone)]
pub struct Slices {
    pub start: Instant,
    pub counts: Vec<u64>,
    /// The host's interference with each slice; `None` until a later
    /// mark closes the slice.
    pub host: Vec<Option<Interference>>,
    /// Whether the measuring thread's run-queue wait counts: false where
    /// the program runs more threads than there are CPUs (the TCP
    /// workload's client and server), so that the wait is partly its own.
    wait: bool,
    /// The slice the thread is in and the clocks read when it entered.
    open: Option<(usize, Mark)>,
}

impl Slices {
    pub fn new(start: Instant, length: Duration) -> Slices {
        let n = (length.as_nanos() / SLICE.as_nanos()).max(1) as usize;
        Slices {
            start,
            counts: vec![0; n],
            host: vec![None; n],
            wait: true,
            open: None,
        }
    }

    /// Judges slices by steal alone.
    pub fn steal_only(mut self) -> Slices {
        self.wait = false;
        self
    }

    /// Slice index of `t`, or `None` once the phase is over. Entering a
    /// new slice reads the host clocks and closes the previous one.
    #[inline]
    pub fn index(&mut self, t: Instant) -> Option<usize> {
        let i = (t.saturating_duration_since(self.start).as_nanos() / SLICE.as_nanos()) as usize;
        if self.open.map(|(j, _)| j) != Some(i) {
            self.mark(i);
        }
        (i < self.counts.len()).then_some(i)
    }

    #[cold]
    fn mark(&mut self, i: usize) {
        let now = Mark::now(self.wait);
        let n = self.counts.len();
        if let Some((j, m)) = self.open.take() {
            // Slices passed over without an operation share the span's
            // interference.
            let seen = m.until(&now);
            for h in &mut self.host[j..i.min(n)] {
                *h = Some(seen);
            }
        }
        if i < n {
            self.open = Some((i, now));
        }
    }

    /// Adds another thread's counts; a slice is as disturbed as the worse
    /// of the two threads saw it.
    pub fn merge(&mut self, other: &Slices) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, b) in self.host.iter_mut().zip(&other.host) {
            *a = match (*a, *b) {
                (Some(x), Some(y)) => Some(x.worst(y)),
                _ => None,
            };
        }
    }

    /// The slices among those `keep(index)` selects that the host left
    /// alone, and what was dropped.
    pub fn calm(&self, keep: impl Fn(usize) -> bool) -> (Vec<usize>, Dropped) {
        calm_slices(&self.host, keep)
    }

    /// Mean ops/s over `chosen` slices.
    pub fn rate(&self, chosen: &[usize]) -> f64 {
        let ops: u64 = chosen.iter().map(|&i| self.counts[i]).sum();
        ratio(ops as f64, chosen.len() as f64 * SLICE.as_secs_f64())
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// True for the slices the traced run records spans in.
#[inline]
pub fn traced_slice(i: usize) -> bool {
    i % 2 == 1
}

/// An ordered name → (value, unit) table of reported metrics.
#[derive(Debug, Default)]
pub struct Table(pub BTreeMap<&'static str, (f64, &'static str)>);

impl Table {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }
}

/// Ratio that reads 0 rather than NaN when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `after - before` of one named snapshot field.
pub fn delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    let a = after.get(name).unwrap_or(0);
    let b = before.get(name).unwrap_or(0);
    a.saturating_sub(b) as f64
}

/// Field-wise `after - before` of pool counters.
pub fn pool_delta(before: &StatsSnapshot, after: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        flushed_lines: after.flushed_lines - before.flushed_lines,
        persist_calls: after.persist_calls - before.persist_calls,
        fences: after.fences - before.fences,
        read_lines: after.read_lines - before.read_lines,
        ..Default::default()
    }
}

/// A direct-mode pool of `bytes` at `scm_ns` total SCM latency.
pub fn new_pool(bytes: usize, scm_ns: u64) -> Arc<PmemPool> {
    let opts = PoolOptions::direct(bytes).with_latency(LatencyProfile::from_total(scm_ns));
    Arc::new(PmemPool::create(opts).expect("pool creation"))
}

/// Recovery measured over `repeats` reopens of one clean image.
pub struct Recovery {
    /// The median of the reopens the host stole no CPU from, or of all
    /// reopens when fewer than half were left alone.
    pub ms: f64,
    /// Reopens without steal.
    pub calm: usize,
    /// The fastest and the slowest reopen.
    pub min_ms: f64,
    pub max_ms: f64,
    pub stats: Vec<RecoveryStats>,
}

/// Reopens the tree in `pool` from its clean image `repeats` times with
/// `open_with(pool, ROOT_SLOT, threads)`, timing pool reopen plus tree
/// recovery (the image copy is not timed), and hands each recovered tree
/// to `verify`.
pub fn measure_recovery<K: ConcKey>(
    pool: &PmemPool,
    threads: usize,
    repeats: usize,
    mut verify: impl FnMut(&ConcurrentTree<K>),
) -> Recovery {
    let latency = pool.latency();
    let mut times = Vec::with_capacity(repeats);
    let mut calm = Vec::with_capacity(repeats);
    let mut stats = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let image = pool.clean_image();
        let steal0 = steal_ticks();
        let t0 = Instant::now();
        let reopened = PmemPool::reopen(image, PoolOptions::direct(0).with_latency(latency))
            .expect("reopen of a clean image");
        let tree = ConcurrentTree::<K>::open_with(Arc::new(reopened), ROOT_SLOT, threads)
            .expect("recovery of a clean image");
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        if steal_ticks() == steal0 {
            calm.push(times[times.len() - 1]);
        }
        stats.push(tree.recovery_stats().expect("recovered trees carry stats"));
        // Checking is not measured, so it need not pay the emulated latency.
        tree.pool().set_latency(LatencyProfile::DRAM);
        verify(&tree);
    }
    Recovery {
        ms: median(if 2 * calm.len() >= repeats {
            &calm
        } else {
            &times
        }),
        calm: calm.len(),
        min_ms: times.iter().copied().fold(f64::INFINITY, f64::min),
        max_ms: times.iter().copied().fold(0.0, f64::max),
        stats,
    }
}

/// The median of each recovery phase over the reopens, as per-layer rows.
pub fn recovery_rows(table: &mut Table, rec: &Recovery) {
    let phase = |f: fn(&RecoveryStats) -> u64| {
        median(&rec.stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    table.set("recovery.replay_us", phase(|s| s.replay_us), "us");
    table.set("recovery.harvest_us", phase(|s| s.harvest_us), "us");
    table.set("recovery.audit_us", phase(|s| s.audit_us), "us");
    table.set("recovery.build_us", phase(|s| s.build_us), "us");
    table.set("recovery.leaves", phase(|s| s.leaves), "count");
}

/// Per-1000-operation rows of tree contention and structure counters,
/// from two snapshots around the measured phase.
pub fn tree_counter_rows(table: &mut Table, before: &Snapshot, after: &Snapshot, ops: f64) {
    let kop = |name: &str| ratio(delta(before, after, name) * 1e3, ops);
    table.set("htm.aborts_per_kop", kop("htm_aborts"), "count/kop");
    table.set("htm.fallbacks_per_kop", kop("htm_fallbacks"), "count/kop");
    table.set(
        "tree.leaf_lock_spins_per_kop",
        kop("leaf_lock_spins"),
        "count/kop",
    );
    table.set(
        "tree.seqlock_conflicts_per_kop",
        kop("seqlock_conflicts"),
        "count/kop",
    );
    table.set(
        "tree.log_queue_waits_per_kop",
        kop("log_queue_waits"),
        "count/kop",
    );
    table.set("tree.leaf_splits_per_kop", kop("leaf_splits"), "count/kop");
    table.set(
        "tree.inner_splits_per_kop",
        kop("inner_splits"),
        "count/kop",
    );
    table.set("tree.leaf_frees_per_kop", kop("leaf_frees"), "count/kop");
    let hits = delta(before, after, "get_hits");
    let misses = delta(before, after, "get_misses");
    table.set("tree.get_hit_frac", ratio(hits, hits + misses), "frac");
}

/// `batch.keys_per_run` over a tree's whole life.
pub fn batch_row(table: &mut Table, snap: &Snapshot) {
    let keys = snap.get("insert_batch_keys").unwrap_or(0) as f64;
    let runs = snap.get("insert_batch_runs").unwrap_or(0) as f64;
    table.set("batch.keys_per_run", ratio(keys, runs), "count");
}

/// Ops/s with tracing on minus ops/s with it off, from one traced run's
/// alternating slices.
pub fn overhead_rows(table: &mut Table, slices: &Slices, spans: u64) {
    let on = slices.rate(&slices.calm(traced_slice).0);
    let off = slices.rate(&slices.calm(|i| !traced_slice(i)).0);
    table.set("trace.overhead_ops_per_s", on - off, "ops/s");
    table.set("trace.overhead_frac", ratio(on - off, off), "frac");
    table.set("trace.spans", spans as f64, "count");
}

/// Persist, flush and fence counts per write from phase totals (gets and
/// scans never persist, so the totals belong to the writes).
pub fn write_rows(t: &mut Table, d: &StatsSnapshot, writes: f64) {
    t.set(
        "pmem.persists_per_write",
        ratio(d.persist_calls as f64, writes),
        "count/op",
    );
    t.set(
        "pmem.flushed_lines_per_write",
        ratio(d.flushed_lines as f64, writes),
        "lines/op",
    );
    t.set(
        "pmem.fences_per_write",
        ratio(d.fences as f64, writes),
        "count/op",
    );
}

/// Scan-layer rows: span self time plus the scan counters per scan.
pub fn scan_rows(
    t: &mut Table,
    tracer: &Tracer,
    before: &Snapshot,
    after: &Snapshot,
    scans: f64,
    span: &str,
) {
    t.set("scan.scan_ns", tracer.median_self_ns(&[span]), "ns");
    t.set(
        "scan.entries_per_scan",
        ratio(delta(before, after, "scan_entries"), scans),
        "count",
    );
    t.set(
        "scan.sentinel_stops_per_scan",
        ratio(delta(before, after, "scan_sentinel_stops"), scans),
        "count",
    );
    t.set(
        "scan.hop_retries_per_kscan",
        ratio(delta(before, after, "scan_hop_retries") * 1e3, scans),
        "count/kscan",
    );
    t.set(
        "scan.reseeks_per_kscan",
        ratio(delta(before, after, "scan_reseeks") * 1e3, scans),
        "count/kscan",
    );
}
