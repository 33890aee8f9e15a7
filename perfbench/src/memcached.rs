//! `memcached-tcp`: the memcached text protocol over loopback TCP to a
//! `ServerBuilder` server with one worker thread, in front of a
//! `KvCache::with_capacity` of 100 k items over a `ConcurrentFPTreeVar`
//! at 250 ns SCM. The keyspace is 200 k `key:%012d` keys, twice the cache,
//! and every value is 64 bytes derived from its key.
//!
//! One client thread holds two connections. Each round it writes one
//! 16-request window to each connection, then reads both: 90 % of windows
//! are gets of Zipfian keys, 10 % sets of uniform keys. The server,
//! protocol, cache, LRU and eviction layers dominate; this is the only
//! variable-size-key workload, so key interning and the
//! `set_batch` → `insert_batch` path show here and nowhere else.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fptree_core::index::BytesIndex;
use fptree_core::{ConcurrentFPTreeVar, Snapshot, TreeBuilder, TreeConfig};
use fptree_kvcache::{Cache, KvCache, ServerBuilder, ServerHandle};
use fptree_pmem::PmemPool;

use crate::common::*;
use crate::gen::{mc_flags, mc_key, mc_value, Rng, Zipf, MC_VALUE_BYTES};
use crate::mc::{encode_get, encode_scan, encode_set, Conn, Expect, Reply};
use crate::stats::{median, Samples};
use crate::trace::{TracedCache, TracedIndex, Tracer};
use crate::{Args, Outcome};

const SCM_NS: u64 = 250;
const POOL_BYTES: usize = 48 << 20;
const WINDOW: usize = 16;
const PRELOAD_WINDOW: usize = 64;
const SET_WINDOW_PCT: u64 = 10;
const SCAN_LEN: usize = 32;
const REOPENS: usize = 9;
const SCAN_PROBE: Duration = Duration::from_secs(2);
const SPOT_CHECKS: u64 = 2_000;

/// Sizes of one memcached run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub keyspace: u64,
    pub capacity: usize,
    pub conns: usize,
    pub warmup_rounds: u64,
}

/// The benchmark's shape.
pub const FULL: Shape = Shape {
    keyspace: 200_000,
    capacity: 100_000,
    conns: 2,
    warmup_rounds: 2_000,
};

/// Optional wrapper put around the index (tests inject faults with it).
pub type Wrap = fn(Arc<dyn BytesIndex>) -> Arc<dyn BytesIndex>;

/// Every key's `set` request, built once so the client thread spends its
/// time on the wire rather than formatting: the key, flags and value each
/// request carries are read back out of it to encode gets and check
/// replies.
pub struct Keyspace {
    sets: Vec<Vec<u8>>,
    flags: Vec<u32>,
}

impl Keyspace {
    pub fn new(n: u64) -> Keyspace {
        let (mut sets, mut flags) = (
            Vec::with_capacity(n as usize),
            Vec::with_capacity(n as usize),
        );
        for id in 0..n {
            let key = mc_key(id);
            let k = key.as_bytes();
            let mut req = Vec::new();
            encode_set(&mut req, k, mc_flags(k), &mc_value(k));
            sets.push(req);
            flags.push(mc_flags(k));
        }
        Keyspace { sets, flags }
    }

    fn key(&self, id: u64) -> &[u8] {
        &self.sets[id as usize][4..4 + KEY_LEN]
    }

    fn value(&self, id: u64) -> &[u8] {
        let req = &self.sets[id as usize];
        &req[req.len() - 2 - MC_VALUE_BYTES..req.len() - 2]
    }
}

/// Bytes of `key:%012d`.
const KEY_LEN: usize = 16;

/// A cache over its index and pool, its server, and the client's
/// connections.
struct Stack {
    pool: Arc<PmemPool>,
    tree: Arc<ConcurrentFPTreeVar>,
    cache: Arc<KvCache>,
    server: ServerHandle,
    conns: Vec<Conn>,
}

/// The client's generator, oracle and per-request-class tallies.
struct LoadGen {
    shape: Shape,
    ks: Arc<Keyspace>,
    rng: Rng,
    zipf: Zipf,
    oracle: Oracle,
    get: Samples,
    set: Samples,
    gets: u64,
    sets: u64,
    misses: u64,
    /// Replies checked so far, and their count when the current round (or
    /// preload window) was sent.
    requests: u64,
    round_start: u64,
    /// Per keyspace id, `round_start` of the round whose set stored it
    /// last (`u64::MAX`: never stored).
    stored_at: Vec<u64>,
    buf: Vec<u8>,
    /// Windows in flight, one per connection: set or get, keyspace ids,
    /// send time.
    windows: Vec<(bool, Vec<u64>, Instant)>,
}

impl LoadGen {
    fn new(shape: Shape, seed: u64, ks: Arc<Keyspace>) -> LoadGen {
        LoadGen {
            shape,
            ks,
            rng: Rng::new(seed, 400),
            zipf: Zipf::new(shape.keyspace, 0.99),
            oracle: Oracle::default(),
            get: Samples::default(),
            set: Samples::default(),
            gets: 0,
            sets: 0,
            misses: 0,
            requests: 0,
            round_start: 0,
            stored_at: vec![u64::MAX; shape.keyspace as usize],
            buf: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Checks one reply to a get or set of keyspace id `id`.
    fn check(&mut self, is_set: bool, id: u64, reply: &Reply) {
        self.requests += 1;
        let ks = &self.ks;
        let mut recent = 0;
        let ok = match (is_set, reply) {
            (true, Reply::Status(s)) => {
                self.stored_at[id as usize] = self.round_start;
                s == b"STORED"
            }
            (false, Reply::Values(v)) if v.is_empty() => {
                // A miss: the key was evicted or never set. Eviction is
                // strict LRU over `capacity` items and every request
                // touches at most one key, so a key stored by an earlier
                // round fewer than capacity / 2 requests ago is still
                // cached. Same-round sets may not have run yet: the server
                // may take the connections' windows in either order.
                self.misses += 1;
                let at = self.stored_at[id as usize];
                recent = self.round_start.wrapping_sub(at);
                at >= self.round_start || recent >= self.shape.capacity as u64 / 2
            }
            (false, Reply::Values(v)) => {
                v.len() == 1
                    && v[0].key == ks.key(id)
                    && v[0].flags == ks.flags[id as usize]
                    && v[0].data == ks.value(id)
            }
            _ => false,
        };
        self.oracle.check(ok, || {
            let verb = if is_set { "set" } else { "get" };
            format!(
                "{verb} {}: {reply:?} ({recent} requests after its set)",
                mc_key(id)
            )
        });
    }

    /// One round: a window to every connection, then every reply. Returns
    /// the requests completed, or the I/O error that broke a connection.
    fn round(&mut self, conns: &mut [Conn], record: Option<usize>) -> io::Result<u64> {
        self.round_start = self.requests;
        let mut windows = std::mem::take(&mut self.windows);
        windows.clear();
        for conn in conns.iter_mut() {
            let is_set = self.rng.below(100) < SET_WINDOW_PCT;
            self.buf.clear();
            let mut ids = Vec::with_capacity(WINDOW);
            for _ in 0..WINDOW {
                let id = if is_set {
                    self.rng.below(self.shape.keyspace)
                } else {
                    self.zipf.item(&mut self.rng)
                };
                if is_set {
                    self.buf.extend_from_slice(&self.ks.sets[id as usize]);
                } else {
                    encode_get(&mut self.buf, self.ks.key(id));
                }
                ids.push(id);
            }
            let t0 = Instant::now();
            conn.send(&self.buf)?;
            windows.push((is_set, ids, t0));
        }
        let mut done = 0;
        for (conn, (is_set, ids, t0)) in conns.iter_mut().zip(&windows) {
            done += self.read_window(conn, *is_set, ids, *t0, record)?;
        }
        self.windows = windows;
        Ok(done)
    }

    /// Reads and checks the replies of one window sent at `t0`.
    fn read_window(
        &mut self,
        conn: &mut Conn,
        is_set: bool,
        ids: &[u64],
        t0: Instant,
        record: Option<usize>,
    ) -> io::Result<u64> {
        let expect = if is_set { Expect::Line } else { Expect::Values };
        for &id in ids {
            let (reply, t1) = conn.recv(expect)?;
            self.check(is_set, id, &reply);
            if let Some(slice) = record {
                let ns = (t1 - t0).as_nanos() as u64;
                if is_set {
                    self.set.push(slice, ns);
                } else {
                    self.get.push(slice, ns);
                }
            }
        }
        if is_set {
            self.sets += ids.len() as u64;
        } else {
            self.gets += ids.len() as u64;
        }
        Ok(ids.len() as u64)
    }

    /// Runs `rounds` rounds, counting a broken connection as a failure.
    fn rounds(&mut self, conns: &mut [Conn], rounds: u64) -> bool {
        for _ in 0..rounds {
            if let Err(e) = self.round(conns, None) {
                self.oracle.attempted += 1;
                self.oracle.fail(format!("connection failed: {e}"));
                return false;
            }
        }
        true
    }
}

/// Pool, tree, cache and server creation, the preload of the most
/// popular keys in 64-set windows, and the warm-up rounds.
fn set_up(
    shape: Shape,
    tracer: Option<&Arc<Tracer>>,
    wrap: Option<Wrap>,
    d: &mut LoadGen,
) -> Stack {
    let pool = new_pool(POOL_BYTES, SCM_NS);
    let tree = Arc::new(
        TreeBuilder::from_config(TreeConfig::fptree_concurrent_var())
            .build_concurrent_var(Arc::clone(&pool))
            .expect("tree over a fresh pool"),
    );
    let mut index: Arc<dyn BytesIndex> = tree.clone();
    if let Some(t) = tracer {
        index = Arc::new(TracedIndex {
            inner: index,
            tracer: Arc::clone(t),
        });
    }
    if let Some(w) = wrap {
        index = w(index);
    }
    let cache = Arc::new(KvCache::with_capacity(index, shape.capacity));
    let served: Arc<dyn Cache> = match tracer {
        Some(t) => Arc::new(TracedCache {
            inner: cache.clone(),
            tracer: Arc::clone(t),
        }),
        None => cache.clone(),
    };
    let server = ServerBuilder::new("127.0.0.1:0")
        .worker_threads(1)
        .serve(served)
        .expect("server on a loopback port");
    let mut conns: Vec<Conn> = (0..shape.conns)
        .map(|_| Conn::connect(server.addr).expect("loopback connection"))
        .collect();

    // Preload the most popular items up to the capacity, coldest first so
    // the hottest end up most recently used. Which keys start cached is
    // then the same for every seed: a few keys take most gets, and a seed
    // that happened to leave them out would run at another hit rate.
    let mut cached = vec![false; shape.keyspace as usize];
    let mut ids = Vec::with_capacity(shape.capacity);
    for rank in 0..shape.keyspace {
        let item = d.zipf.item_of(rank);
        if ids.len() < shape.capacity && !std::mem::replace(&mut cached[item as usize], true) {
            ids.push(item);
        }
    }
    ids.reverse();
    for chunk in ids.chunks(PRELOAD_WINDOW) {
        d.round_start = d.requests;
        let buf: Vec<u8> = chunk
            .iter()
            .flat_map(|&id| d.ks.sets[id as usize].iter().copied())
            .collect();
        let sent = conns[0].send(&buf);
        for &id in chunk {
            match sent
                .as_ref()
                .map_err(|e| e.to_string())
                .and_then(|_| conns[0].recv(Expect::Line).map_err(|e| e.to_string()))
            {
                Ok((reply, _)) => d.check(true, id, &reply),
                Err(e) => {
                    d.oracle.attempted += 1;
                    d.oracle.fail(format!("preload: {e}"));
                }
            }
        }
    }
    d.rounds(&mut conns, shape.warmup_rounds);
    Stack {
        pool,
        tree,
        cache,
        server,
        conns,
    }
}

/// Scans from random keys, one request at a time on the first
/// connection. Replies must be sorted, start at or after their key, and
/// carry each key's own value.
fn scan_probe(stack: &mut Stack, d: &mut LoadGen) -> (Samples, Slices, u64) {
    let mut buf = Vec::new();
    probe_for(SCAN_PROBE, true, || {
        let start = mc_key(d.rng.below(d.shape.keyspace));
        buf.clear();
        encode_scan(&mut buf, start.as_bytes(), SCAN_LEN);
        let t0 = Instant::now();
        let reply = stack.conns[0]
            .send(&buf)
            .and_then(|_| stack.conns[0].recv(Expect::Values));
        let ok = match &reply {
            Ok((Reply::Values(v), _)) => {
                v.len() <= SCAN_LEN
                    && v.first()
                        .is_none_or(|f| f.key.as_slice() >= start.as_bytes())
                    && v.windows(2).all(|w| w[0].key < w[1].key)
                    && v.iter()
                        .all(|x| x.flags == mc_flags(&x.key) && x.data == mc_value(&x.key))
            }
            _ => false,
        };
        d.oracle.check(ok, || {
            format!("scan from {start}: {:?}", reply.as_ref().map(|r| &r.0))
        });
        let (_, t1) = reply.ok()?;
        Some(vec![(t1 - t0).as_nanos() as u64])
    })
}

/// What one measured memcached run leaves behind.
struct Measured {
    slices: Slices,
    /// Client wall time of the rounds in traced slices, and their requests.
    traced_round_ns: u64,
    traced_requests: u64,
    before: Snapshot,
    after: Snapshot,
    gets: u64,
    sets: u64,
}

fn measure(
    stack: &mut Stack,
    d: &mut LoadGen,
    seconds: u64,
    tracer: Option<&Arc<Tracer>>,
) -> Measured {
    let before = stack.cache.stats_snapshot();
    let (gets0, sets0) = (d.gets, d.sets);
    let mut slices = Slices::new(Instant::now(), Duration::from_secs(seconds)).steal_only();
    let (mut traced_round_ns, mut traced_requests) = (0u64, 0u64);
    while let Some(i) = slices.index(Instant::now()) {
        let traced = tracer.is_some() && traced_slice(i);
        if let Some(t) = tracer {
            t.set_on(traced);
        }
        let t0 = Instant::now();
        match d.round(&mut stack.conns, tracer.is_none().then_some(i)) {
            Ok(n) => {
                if traced {
                    traced_round_ns += t0.elapsed().as_nanos() as u64;
                    traced_requests += n;
                }
                slices.counts[i] += n;
            }
            Err(e) => {
                d.oracle.attempted += 1;
                d.oracle.fail(format!("connection failed: {e}"));
                break;
            }
        }
    }
    if let Some(t) = tracer {
        t.set_on(false);
    }
    Measured {
        slices,
        traced_round_ns,
        traced_requests,
        before,
        after: stack.cache.stats_snapshot(),
        gets: d.gets - gets0,
        sets: d.sets - sets0,
    }
}

/// Fails the run if the server answered any request `ERROR`.
fn check_no_bad_commands(stack: &Stack, d: &mut LoadGen) {
    let bad = stack.cache.stats_snapshot().get("cmd_bad").unwrap_or(0);
    d.oracle
        .check(bad == 0, || format!("{bad} requests answered ERROR"));
}

/// Stops the server, then reopens the index tree from its clean image and
/// checks it against the live tree.
fn recovery(stack: Stack, d: &mut LoadGen) -> Recovery {
    let Stack {
        pool,
        tree,
        server,
        conns,
        ..
    } = stack;
    drop(conns);
    server.shutdown();
    let live = tree.len();
    let shape = d.shape;
    measure_recovery(&pool, crate::nproc(), REOPENS, |t: &ConcurrentFPTreeVar| {
        d.oracle.check(t.len() == live, || {
            format!("reopened len {} != {live}", t.len())
        });
        for _ in 0..SPOT_CHECKS {
            let key = mc_key(d.rng.below(shape.keyspace)).into_bytes();
            let (got, want) = (t.get(&key), tree.get(&key));
            d.oracle.check(got == want, || {
                format!("reopened get: {got:?}, want {want:?}")
            });
        }
        let c = t.check_consistency();
        d.oracle
            .check(c.is_ok(), || format!("reopened tree inconsistent: {c:?}"));
    })
}

pub fn run(args: &Args) -> Outcome {
    let shape = FULL;
    let ks = Arc::new(Keyspace::new(shape.keyspace));
    let mut d = LoadGen::new(shape, args.seed, Arc::clone(&ks));
    let tracer = args.trace.then(Tracer::new);
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut stack: Option<Stack> = None;
    for _ in 0..repeats {
        if let Some(old) = stack.take() {
            old.server.shutdown();
        }
        d = LoadGen::new(shape, args.seed, Arc::clone(&ks));
        let t0 = Instant::now();
        stack = Some(set_up(shape, tracer.as_ref(), None, &mut d));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    phase("set-up");
    let mut stack = stack.expect("at least one set-up");
    let dram_after_warmup = stack.tree.dram_bytes() as f64;

    // Scans are timed on the warmed-up cache, whose index does not depend
    // on how far the timed phase got.
    if let Some(t) = &tracer {
        t.set_on(true);
    }
    let probe0 = stack.cache.stats_snapshot();
    let (scan, scan_slices, scans) = scan_probe(&mut stack, &mut d);
    let probe1 = stack.cache.stats_snapshot();
    if let Some(t) = &tracer {
        t.set_on(false);
    }
    phase("scan probe");

    let m = measure(&mut stack, &mut d, args.seconds, tracer.as_ref());
    phase("measure");
    let requests = m.slices.total() as f64;
    check_no_bad_commands(&stack, &mut d);
    let live = stack.tree.len() as f64;
    let pool_end = stack.pool.stats().snapshot();
    let bytes_live = pool_end.bytes_live as f64;
    let dram_end = stack.tree.dram_bytes() as f64;
    let rec = recovery(stack, &mut d);
    phase("recovery");

    let mut t = Table::default();
    let mut out = Outcome::new(std::mem::take(&mut d.oracle));
    match &tracer {
        None => {
            let calm = out.calm("measure", &m.slices);
            t.set("ops_per_s", m.slices.rate(&calm), "ops/s");
            out.latency(&mut t, ("get_p50_us", Some("get_p99_us")), &d.get, &calm);
            out.latency(
                &mut t,
                ("write_p50_us", Some("write_p99_us")),
                &d.set,
                &calm,
            );
            let calm = out.calm("scan_probe", &scan_slices);
            out.latency(&mut t, ("scan_p50_us", None), &scan, &calm);
            out.recovery(&mut t, &rec);
            t.set("scm_bytes_per_key", bytes_live / live, "B/key");
            t.set("dram_bytes_per_key", dram_end / live, "B/key");
            t.set("setup_s", median(&setup_s), "s");
        }
        Some(tracer) => {
            let (b, a) = (&m.before, &m.after);
            let sets = m.sets as f64;
            let dl = |name: &str| delta(b, a, name);
            t.set(
                "pmem.persists_per_set",
                ratio(dl("pmem_persist_calls"), sets),
                "count/op",
            );
            tree_counter_rows(&mut t, b, a, requests);
            scan_rows(
                &mut t,
                tracer,
                &probe0,
                &probe1,
                scans as f64,
                "index.scan_from",
            );
            batch_row(&mut t, a);
            recovery_rows(&mut t, &rec);
            t.set(
                "index.dram_growth",
                ratio(dram_end, dram_after_warmup),
                "ratio",
            );
            // The server answers every `get` through `get_many`, which
            // reaches the index through `get_batch`.
            for (row, spans) in [
                ("cache.get_ns", &["cache.get", "cache.get_many"][..]),
                ("cache.set_batch_ns", &["cache.set_batch"]),
                ("cache.set_ns", &["cache.set"]),
                ("index.get_ns", &["index.get", "index.get_batch"]),
                ("index.insert_batch_ns", &["index.insert_batch"]),
                ("index.update_if_ns", &["index.update_if"]),
                ("index.remove_if_ns", &["index.remove_if"]),
            ] {
                t.set(row, tracer.median_self_ns(spans), "ns");
            }
            let (hits, misses) = (dl("cache_hits"), dl("cache_misses"));
            t.set("cache.hit_frac", ratio(hits, hits + misses), "frac");
            t.set(
                "cache.evictions_per_kset",
                ratio(dl("cache_evictions") * 1e3, sets),
                "count/kset",
            );
            let cache_ns: u64 = [
                "cache.get",
                "cache.get_many",
                "cache.set",
                "cache.set_batch",
                "cache.delete",
            ]
            .iter()
            .map(|s| tracer.total_ns(s))
            .sum();
            let self_ns = m.traced_round_ns.saturating_sub(cache_ns) as f64;
            t.set(
                "server.self_us_per_req",
                ratio(self_ns / 1e3, m.traced_requests as f64),
                "us",
            );
            t.set(
                "evloop.wakeups_per_kreq",
                ratio(dl("evloop_wakeups") * 1e3, requests),
                "count/kreq",
            );
            t.set(
                "evloop.partial_writes_per_kreq",
                ratio(dl("evloop_partial_writes") * 1e3, requests),
                "count/kreq",
            );
            t.set("evloop.queue_stalls", dl("evloop_queue_stalls"), "count");
            t.set(
                "server.bytes_per_req",
                ratio(dl("bytes_read") + dl("bytes_written"), requests),
                "B",
            );
            t.set("proto.cmd_bad", dl("cmd_bad"), "count");
            let spans = out.write_spans(args, tracer);
            overhead_rows(&mut t, &m.slices, spans);
        }
    }
    out.report("keyspace", shape.keyspace as f64);
    out.report("capacity", shape.capacity as f64);
    out.report("conns", shape.conns as f64);
    out.report("scm_ns", SCM_NS as f64);
    out.report("timed_requests", requests);
    out.report("timed_gets", m.gets as f64);
    out.report("timed_sets", m.sets as f64);
    out.report("get_misses", d.misses as f64);
    out.report("pool_high_water_bytes", pool_end.bump_high_water as f64);
    out.table = t;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        keyspace: 4_000,
        capacity: 2_000,
        conns: 1,
        warmup_rounds: 0,
    };

    /// Runs a fixed number of rounds on a small shape and returns the
    /// load generator and the counters the rounds moved.
    fn fixed(traced: bool, wrap: Option<Wrap>, rounds: u64) -> (LoadGen, Snapshot, Snapshot) {
        let tracer = traced.then(Tracer::new);
        if let Some(t) = &tracer {
            t.set_on(true);
        }
        let mut d = LoadGen::new(SMALL, 5, Arc::new(Keyspace::new(SMALL.keyspace)));
        let mut stack = set_up(SMALL, tracer.as_ref(), wrap, &mut d);
        let before = stack.cache.stats_snapshot();
        d.rounds(&mut stack.conns, rounds);
        let after = stack.cache.stats_snapshot();
        stack.server.shutdown();
        (d, before, after)
    }

    const BATCH_COUNTERS: [&str; 5] = [
        "insert_batch_runs",
        "insert_batch_keys",
        "cache_evictions",
        "cache_hits",
        "cmd_set",
    ];

    /// The traced adapters forward every call, so a traced run takes the
    /// same code paths: batched inserts and evictions count the same.
    #[test]
    fn traced_and_untraced_runs_count_the_same() {
        let (plain, b0, a0) = fixed(false, None, 400);
        let (traced, b1, a1) = fixed(true, None, 400);
        assert_eq!(plain.oracle.failed, 0, "{:?}", plain.oracle.first);
        assert_eq!(traced.oracle.failed, 0, "{:?}", traced.oracle.first);
        for name in BATCH_COUNTERS {
            assert_eq!(delta(&b0, &a0, name), delta(&b1, &a1, name), "{name}");
        }
        assert!(delta(&b0, &a0, "insert_batch_runs") > 0.0);
        assert!(delta(&b0, &a0, "cache_evictions") > 0.0);
    }

    /// An index that claims to insert one key in eight but drops it: the
    /// cache still answers `STORED`, and the lost keys read as misses.
    struct Forgetful(Arc<dyn BytesIndex>);

    impl BytesIndex for Forgetful {
        fn insert(&self, key: &[u8], value: u64) -> bool {
            key.last().is_some_and(|&b| b % 8 == 0) || self.0.insert(key, value)
        }
        fn get(&self, key: &[u8]) -> Option<u64> {
            self.0.get(key)
        }
        fn update(&self, key: &[u8], value: u64) -> bool {
            self.0.update(key, value)
        }
        fn remove(&self, key: &[u8]) -> bool {
            self.0.remove(key)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    /// Misses of recently stored keys are wrong answers.
    #[test]
    fn lost_sets_are_caught_by_the_oracle() {
        let (d, _, _) = fixed(false, Some(|i| Arc::new(Forgetful(i))), 200);
        assert!(d.oracle.failed > 0, "an index losing keys went unnoticed");
        assert!(d
            .oracle
            .first
            .iter()
            .any(|w| w.contains("requests after its set")));
    }

    /// The defect that keeps `memcached-tcp` out of `BENCHMARK.json`:
    /// `KvCache::set_batch` writes every key of the batch first and
    /// refreshes their recency afterwards, key by key, so a key near the
    /// LRU tail can be evicted by an earlier key of its own batch right
    /// after it was stored. A loop of `set`s keeps it. The workload
    /// hits this within a few runs and reports the miss as a wrong answer.
    #[test]
    #[ignore = "KvCache::set_batch can evict a key it has just stored"]
    fn set_batch_keeps_every_key_it_stores() {
        let pool = new_pool(8 << 20, 0);
        let tree = TreeBuilder::from_config(TreeConfig::fptree_concurrent_var())
            .build_concurrent_var(pool)
            .expect("tree over a fresh pool");
        let cache = KvCache::with_capacity(Arc::new(tree), 4);
        for k in ["a", "b", "c", "d"] {
            cache.set(k.as_bytes(), 0, k.as_bytes().to_vec());
        }
        // "a" is least recently used; the batch stores it again.
        cache.set_batch(vec![
            (b"e".to_vec(), 0, b"e".to_vec()),
            (b"a".to_vec(), 0, b"a2".to_vec()),
        ]);
        assert_eq!(cache.get(b"a"), Some((0, b"a2".to_vec())));
        assert_eq!(cache.len(), 4);
    }

    /// An index that hands out the neighbouring item slot's handle (and
    /// takes it back consistently, so the cache's compare-and-swap loops
    /// still terminate): gets then return another key's item.
    struct Swapped(Arc<dyn BytesIndex>);

    fn flip(h: u64) -> u64 {
        h ^ (1 << 32)
    }

    impl BytesIndex for Swapped {
        fn insert(&self, key: &[u8], value: u64) -> bool {
            self.0.insert(key, value)
        }
        fn get(&self, key: &[u8]) -> Option<u64> {
            self.0.get(key).map(flip)
        }
        fn update(&self, key: &[u8], value: u64) -> bool {
            self.0.update(key, value)
        }
        fn remove(&self, key: &[u8]) -> bool {
            self.0.remove(key)
        }
        fn update_if(&self, key: &[u8], expected: u64, value: u64) -> bool {
            self.0.update_if(key, flip(expected), value)
        }
        fn remove_if(&self, key: &[u8], expected: u64) -> bool {
            self.0.remove_if(key, flip(expected))
        }
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn wrong_index_is_caught_by_the_oracle() {
        let (d, _, _) = fixed(false, Some(|i| Arc::new(Swapped(i))), 100);
        assert!(d.oracle.failed > 0, "a swapped-handle index went unnoticed");
        let (d, _, _) = fixed(false, None, 100);
        assert_eq!(d.oracle.failed, 0, "{:?}", d.oracle.first);
    }
}
