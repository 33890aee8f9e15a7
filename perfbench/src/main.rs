//! The repository benchmark: three closed-loop workloads over the FPTree
//! stack, driven through public APIs only, each answer checked against a
//! shadow model.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read-zipf --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries every end-to-end metric;
//! with `--trace 1` it carries every per-layer metric of the traced run.
//! The line before it records provenance (revision, host, latency
//! calibration) and sample counts. See `perfbench/README.md`.

mod churn;
mod common;
mod gen;
mod host;
mod mc;
mod memcached;
mod stats;
mod trace;
mod zipf;

use std::process::ExitCode;
use std::time::Instant;

use common::{Oracle, Recovery, Slices, Table};
use stats::Samples;
use trace::Tracer;

/// Workload names. `BENCHMARK.json` lists `read-zipf` and `write-churn`;
/// `memcached-tcp` runs the same way but is left out of it while the cache
/// gives wrong answers on it (see the README).
const WORKLOADS: [&str; 3] = ["read-zipf", "write-churn", "memcached-tcp"];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 10] = [
    ("ops_per_s", "ops/s"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("scan_p50_us", "us"),
    ("recovery_ms", "ms"),
    ("scm_bytes_per_key", "B/key"),
    ("dram_bytes_per_key", "B/key"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A metric a workload
/// cannot produce (a cache rate on a library workload) reads 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("pmem.read_lines_per_get", "lines/op"),
    ("pmem.read_lines_per_scan", "lines/op"),
    ("pmem.read_lines_per_write", "lines/op"),
    ("pmem.persists_per_write", "count/op"),
    ("pmem.flushed_lines_per_write", "lines/op"),
    ("pmem.fences_per_write", "count/op"),
    ("pmem.persists_per_set", "count/op"),
    ("htm.aborts_per_kop", "count/kop"),
    ("htm.fallbacks_per_kop", "count/kop"),
    ("tree.get_ns", "ns"),
    ("tree.insert_ns", "ns"),
    ("tree.update_ns", "ns"),
    ("tree.remove_ns", "ns"),
    ("tree.leaf_lock_spins_per_kop", "count/kop"),
    ("tree.seqlock_conflicts_per_kop", "count/kop"),
    ("tree.log_queue_waits_per_kop", "count/kop"),
    ("tree.leaf_splits_per_kop", "count/kop"),
    ("tree.inner_splits_per_kop", "count/kop"),
    ("tree.leaf_frees_per_kop", "count/kop"),
    ("tree.get_hit_frac", "frac"),
    ("scan.scan_ns", "ns"),
    ("scan.entries_per_scan", "count"),
    ("scan.sentinel_stops_per_scan", "count"),
    ("scan.hop_retries_per_kscan", "count/kscan"),
    ("scan.reseeks_per_kscan", "count/kscan"),
    ("batch.keys_per_run", "count"),
    ("recovery.replay_us", "us"),
    ("recovery.harvest_us", "us"),
    ("recovery.audit_us", "us"),
    ("recovery.build_us", "us"),
    ("recovery.leaves", "count"),
    ("index.dram_growth", "ratio"),
    ("cache.get_ns", "ns"),
    ("cache.set_batch_ns", "ns"),
    ("cache.set_ns", "ns"),
    ("cache.hit_frac", "frac"),
    ("cache.evictions_per_kset", "count/kset"),
    ("index.get_ns", "ns"),
    ("index.insert_batch_ns", "ns"),
    ("index.update_if_ns", "ns"),
    ("index.remove_if_ns", "ns"),
    ("server.self_us_per_req", "us"),
    ("evloop.wakeups_per_kreq", "count/kreq"),
    ("evloop.partial_writes_per_kreq", "count/kreq"),
    ("evloop.queue_stalls", "count"),
    ("server.bytes_per_req", "B"),
    ("proto.cmd_bad", "count"),
    ("trace.overhead_ops_per_s", "ops/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(format!("unknown workload {value}")),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?.clamp(1, 600)),
                "--trace" => trace = Some(num()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Threads the host offers; recovery runs on this many.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a workload hands back: its oracle, its metric table and extra
/// report fields (sample counts, sizes).
pub struct Outcome {
    pub oracle: Oracle,
    pub table: Table,
    pub report: Vec<(String, f64)>,
}

impl Outcome {
    pub fn new(oracle: Oracle) -> Outcome {
        Outcome {
            oracle,
            table: Table::default(),
            report: Vec::new(),
        }
    }

    pub fn report(&mut self, name: &str, value: f64) {
        self.report.push((name.to_string(), value));
    }

    /// The slices of `slices` the host left alone, recording under
    /// `name` how many were kept and why the others were dropped.
    pub fn calm(&mut self, name: &str, slices: &Slices) -> Vec<usize> {
        let (calm, dropped) = slices.calm(|_| true);
        self.report(&format!("{name}.slices_kept"), calm.len() as f64);
        self.report(&format!("{name}.dropped_steal"), dropped.steal as f64);
        self.report(&format!("{name}.dropped_wait"), dropped.wait as f64);
        self.report(&format!("{name}.dropped_unknown"), dropped.unknown as f64);
        self.report(&format!("{name}.fallback"), dropped.fallback as u8 as f64);
        calm
    }

    /// Sets `recovery_ms`, recording the spread of the reopens.
    pub fn recovery(&mut self, t: &mut Table, rec: &Recovery) {
        t.set("recovery_ms", rec.ms, "ms");
        self.report("recovery_ms.reopens", rec.stats.len() as f64);
        self.report("recovery_ms.calm_reopens", rec.calm as f64);
        self.report("recovery_ms.min", rec.min_ms);
        self.report("recovery_ms.max", rec.max_ms);
    }

    /// Sets a median (and optionally p99) row from `samples` pooled over
    /// the `chosen` slices, recording the sample count and how many
    /// samples lie beyond the p99.
    pub fn latency(
        &mut self,
        t: &mut Table,
        (p50, p99): (&'static str, Option<&'static str>),
        samples: &Samples,
        chosen: &[usize],
    ) {
        let Some(s) = samples.summary(chosen) else {
            return;
        };
        t.set(p50, s.p50_us, "us");
        self.report(&format!("{p50}.samples"), s.n as f64);
        if let Some(p99) = p99 {
            t.set(p99, s.p99_us, "us");
            self.report(&format!("{p99}.beyond"), s.beyond_p99 as f64);
        }
    }

    /// Writes the traced run's spans to `perfbench/out/spans-<workload>.jsonl`
    /// (the last traced run of each workload) and returns how many were
    /// recorded.
    pub fn write_spans(&mut self, args: &Args, tracer: &Tracer) -> u64 {
        let path = std::path::PathBuf::from(format!("perfbench/out/spans-{}.jsonl", args.workload));
        match tracer.write_spans(&path) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("perfbench: could not write {}: {e}", path.display());
                0
            }
        }
    }
}

/// The checked-out revision, read from `.git` without running git; the
/// benchmark may run from an export that has no `.git`.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Mean measured duration of `busy_wait_ns(ns)`, nanoseconds: how well
/// the SCM latency emulation holds on this host.
fn calibrate(ns: u64) -> f64 {
    const CALLS: u32 = 20_000;
    let t0 = Instant::now();
    for _ in 0..CALLS {
        fptree_pmem::busy_wait_ns(ns);
    }
    t0.elapsed().as_nanos() as f64 / CALLS as f64
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    common::phase("start");
    let cal_560 = calibrate(560);
    let cal_160 = calibrate(160);
    let wall = Instant::now();
    let mut out = match args.workload.as_str() {
        "read-zipf" => zipf::run(&args),
        "write-churn" => churn::run(&args),
        "memcached-tcp" => memcached::run(&args),
        _ => unreachable!("workload names are checked when parsing"),
    };

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, (_, unit)) in &out.table.0 {
        let listed = wanted.iter().find(|(n, _)| n == name);
        assert_eq!(
            listed.map(|l| l.1),
            Some(*unit),
            "metric {name} [{unit}] is not listed"
        );
    }
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = match out.table.0.get(name) {
            Some(&(v, _)) => v,
            None if args.trace => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }

    let (attempted, failed) = (out.oracle.attempted, out.oracle.failed);
    let correct = failed == 0;
    for w in &out.oracle.first {
        eprintln!("perfbench: wrong answer: {w}");
    }
    out.report(
        "failed_ops_frac",
        common::ratio(failed as f64, attempted as f64),
    );
    out.report("wall_s", wall.elapsed().as_secs_f64());
    let report: Vec<String> = out
        .report
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    println!(
        "{{\"provenance\": {{\"revision\": {}, \"nproc\": {}, \"pool_mode\": \"direct\", \
         \"flush_policy\": {}, \"busy_wait_560_ns\": {}, \"busy_wait_160_ns\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}, \"report\": {{{}}}}}",
        json_str(&git_revision()),
        nproc(),
        json_str("persist = fence + one flush per 64-byte line + fence, each flushed line charged the SCM write latency"),
        json_num(cal_560),
        json_num(cal_160),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        report.join(", ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload write-churn --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("write-churn", 7, 3, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload read-zipf --seed x").is_err());
        assert!(parse("--workload read-zipf --seed").is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
