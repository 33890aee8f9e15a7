//! The traced run's recorder: spans around the benchmark's calls into
//! each layer, plus adapters that put spans around the `BytesIndex` and
//! `Cache` calls the memcached server makes.
//!
//! A span has a name, start, end, parent and request id. Spans are kept
//! in memory (a capped raw list plus per-name self times) and written out
//! when the run ends. A span's self time is its duration minus the time
//! its child spans cover. Recording can be switched off at run time, so
//! the traced run alternates traced and untraced slices on one stack and
//! reports the difference as the tracing overhead.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fptree_core::index::BytesIndex;
use fptree_core::metrics::{Metrics, Snapshot};
use fptree_kvcache::cache::ScanItem;
use fptree_kvcache::Cache;

/// Raw spans kept for the dump; self times are aggregated for every span.
const MAX_RAW_SPANS: usize = 20_000;

/// One finished span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct State {
    self_ns: BTreeMap<&'static str, Vec<u64>>,
    dur_total_ns: BTreeMap<&'static str, u64>,
    raw: Vec<Span>,
    dropped: u64,
}

struct Open {
    id: u64,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// Span recorder shared by the client threads and the server's threads.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    state: Mutex<State>,
}

impl Tracer {
    /// A recorder that starts switched off.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            state: Mutex::new(State::default()),
        })
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Tags the spans this thread records next with request `req`.
    pub fn set_request(req: u64) {
        REQUEST.with(|r| r.set(req));
    }

    /// Runs `f` inside a span named `name` when recording is on.
    #[inline]
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.is_on() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().map_or(0, |o| o.id);
            s.push(Open { id, child_ns: 0 });
            parent
        });
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let dur = (t1 - t0).as_nanos() as u64;
        let child_ns = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let open = s.pop().expect("span stack underflow");
            debug_assert_eq!(open.id, id);
            if let Some(up) = s.last_mut() {
                up.child_ns += dur;
            }
            open.child_ns
        });
        let span = Span {
            id,
            parent,
            req: REQUEST.with(|r| r.get()),
            name,
            start_ns: (t0 - self.epoch).as_nanos() as u64,
            end_ns: (t1 - self.epoch).as_nanos() as u64,
        };
        let mut st = self.state.lock().expect("tracer state poisoned");
        st.self_ns
            .entry(name)
            .or_default()
            .push(dur.saturating_sub(child_ns));
        *st.dur_total_ns.entry(name).or_default() += dur;
        if st.raw.len() < MAX_RAW_SPANS {
            st.raw.push(span);
        } else {
            st.dropped += 1;
        }
        out
    }

    /// Median self time over the spans named any of `names`, nanoseconds
    /// (0 if none).
    pub fn median_self_ns(&self, names: &[&str]) -> f64 {
        let st = self.state.lock().expect("tracer state poisoned");
        let all: Vec<f64> = names
            .iter()
            .filter_map(|n| st.self_ns.get(n))
            .flatten()
            .map(|&x| x as f64)
            .collect();
        if all.is_empty() {
            0.0
        } else {
            crate::stats::median(&all)
        }
    }

    /// Summed duration of the spans named `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        let st = self.state.lock().expect("tracer state poisoned");
        st.dur_total_ns.get(name).copied().unwrap_or(0)
    }

    /// Writes the kept raw spans as JSON lines to `path` and returns how
    /// many spans were recorded in all.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<u64> {
        let st = self.state.lock().expect("tracer state poisoned");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &st.raw {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(st.raw.len() as u64 + st.dropped)
    }
}

/// A `BytesIndex` that records an `index.*` span around every call and
/// forwards it unchanged, including the methods with default bodies, so
/// the wrapped index runs exactly the code paths it runs unwrapped.
pub struct TracedIndex {
    pub inner: Arc<dyn BytesIndex>,
    pub tracer: Arc<Tracer>,
}

impl BytesIndex for TracedIndex {
    fn insert(&self, key: &[u8], value: u64) -> bool {
        self.tracer
            .span("index.insert", || self.inner.insert(key, value))
    }
    fn get(&self, key: &[u8]) -> Option<u64> {
        self.tracer.span("index.get", || self.inner.get(key))
    }
    fn update(&self, key: &[u8], value: u64) -> bool {
        self.tracer
            .span("index.update", || self.inner.update(key, value))
    }
    fn remove(&self, key: &[u8]) -> bool {
        self.tracer.span("index.remove", || self.inner.remove(key))
    }
    fn remove_if(&self, key: &[u8], expected: u64) -> bool {
        self.tracer
            .span("index.remove_if", || self.inner.remove_if(key, expected))
    }
    fn update_if(&self, key: &[u8], expected: u64, value: u64) -> bool {
        self.tracer.span("index.update_if", || {
            self.inner.update_if(key, expected, value)
        })
    }
    fn insert_batch(&self, entries: &[(Vec<u8>, u64)]) -> usize {
        self.tracer
            .span("index.insert_batch", || self.inner.insert_batch(entries))
    }
    fn remove_batch(&self, keys: &[Vec<u8>]) -> usize {
        self.tracer
            .span("index.remove_batch", || self.inner.remove_batch(keys))
    }
    fn get_batch(&self, keys: &[Vec<u8>]) -> Vec<Option<u64>> {
        self.tracer
            .span("index.get_batch", || self.inner.get_batch(keys))
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn scan_from(&self, start: &[u8], count: usize) -> Option<Vec<(Vec<u8>, u64)>> {
        self.tracer
            .span("index.scan_from", || self.inner.scan_from(start, count))
    }
    fn metrics_snapshot(&self) -> Option<Snapshot> {
        self.inner.metrics_snapshot()
    }
}

/// A `Cache` that records a `cache.*` span around every call the server
/// makes and forwards it unchanged, including the default-bodied ones.
pub struct TracedCache {
    pub inner: Arc<dyn Cache>,
    pub tracer: Arc<Tracer>,
}

impl Cache for TracedCache {
    fn metrics(&self) -> &Arc<Metrics> {
        self.inner.metrics()
    }
    fn stats_snapshot(&self) -> Snapshot {
        self.inner.stats_snapshot()
    }
    fn shard_stats(&self) -> Option<Vec<Snapshot>> {
        self.inner.shard_stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
    fn set(&self, key: &[u8], flags: u32, data: Vec<u8>) {
        self.tracer
            .span("cache.set", || self.inner.set(key, flags, data))
    }
    fn set_batch(&self, items: Vec<(Vec<u8>, u32, Vec<u8>)>) {
        self.tracer
            .span("cache.set_batch", || self.inner.set_batch(items))
    }
    fn get(&self, key: &[u8]) -> Option<(u32, Vec<u8>)> {
        self.tracer.span("cache.get", || self.inner.get(key))
    }
    fn get_many(&self, keys: &[Vec<u8>]) -> Vec<Option<(u32, Vec<u8>)>> {
        self.tracer
            .span("cache.get_many", || self.inner.get_many(keys))
    }
    fn delete(&self, key: &[u8]) -> bool {
        self.tracer.span("cache.delete", || self.inner.delete(key))
    }
    fn scan(&self, start: &[u8], count: usize) -> Option<Vec<ScanItem>> {
        self.tracer
            .span("cache.scan", || self.inner.scan(start, count))
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        t.set_on(true);
        Tracer::set_request(9);
        t.span("outer", || {
            t.span("inner", || fptree_pmem::busy_wait_ns(200_000));
            fptree_pmem::busy_wait_ns(50_000);
        });
        assert_eq!(t.state.lock().unwrap().self_ns["outer"].len(), 1);
        let outer_self = t.median_self_ns(&["outer"]);
        let inner_self = t.median_self_ns(&["inner"]);
        assert!(inner_self >= 200_000.0);
        assert!((50_000.0..200_000.0).contains(&outer_self), "{outer_self}");
        assert!(t.total_ns("outer") as f64 >= outer_self + inner_self);
        let st = t.state.lock().unwrap();
        let inner = st.raw.iter().find(|s| s.name == "inner").unwrap();
        let outer = st.raw.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.req, outer.req), (9, 9));
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.span("x", || 5), 5);
        assert!(t.state.lock().unwrap().self_ns.is_empty());
    }
}
