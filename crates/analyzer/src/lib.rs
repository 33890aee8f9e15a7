//! `fptree-analyzer`: static enforcement of the FPTree persistence and
//! locking protocols at the source level.
//!
//! The dynamic checker (`pmem::check`) can only validate executed paths; this
//! crate walks the workspace source and rejects protocol violations on *all*
//! paths at CI time. See DESIGN.md §5.9 for the lint catalogue and the
//! suppression/baseline workflow.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod lints;
pub mod parse;

use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

pub use lints::{Finding, Level};

use lints::{FileScope, LINT_BAD_ALLOW};
use parse::ParsedFile;

/// Crates whose `src/` trees carry the persistence/locking protocols.
const PROTOCOL_PREFIXES: [&str; 4] = [
    "crates/pmem/src/",
    "crates/core/src/",
    "crates/htm/src/",
    "crates/kvcache/src/",
];

/// Path fragments that exclude a file from the scan entirely.
const SKIP_FRAGMENTS: [&str; 4] = ["third_party/", "target/", ".git/", "tests/fixtures/"];

/// Analysis options.
#[derive(Debug, Default)]
pub struct Options {
    /// Baseline entries (`lint file:line`) to subtract from the findings.
    pub baseline: Vec<BaselineEntry>,
}

/// One baseline entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BaselineEntry {
    /// Lint id.
    pub lint: String,
    /// File path relative to the scan root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// Outcome of one analyzer run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Unsuppressed error findings.
    pub errors: Vec<Finding>,
    /// Warnings (unused allows, stale baseline entries).
    pub warnings: Vec<Finding>,
    /// Findings silenced by an inline allow or a baseline entry.
    pub suppressed: usize,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// Exit code under the given warning policy.
    pub fn exit_code(&self, deny_warnings: bool) -> i32 {
        if !self.errors.is_empty() || (deny_warnings && !self.warnings.is_empty()) {
            1
        } else {
            0
        }
    }
}

/// Parses a baseline file (`lint path:line` per line, `#` comments).
pub fn parse_baseline(text: &str) -> Vec<BaselineEntry> {
    let mut out = Vec::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(lint), Some(span)) = (parts.next(), parts.next()) else {
            continue;
        };
        let Some((file, lno)) = span.rsplit_once(':') else {
            continue;
        };
        let Ok(lno) = lno.parse::<u32>() else {
            continue;
        };
        out.push(BaselineEntry {
            lint: lint.to_string(),
            file: file.to_string(),
            line: lno,
        });
    }
    out
}

/// Renders findings in baseline format.
pub fn render_baseline(findings: &[Finding]) -> String {
    let mut out = String::from("# fptree-analyzer baseline — regenerate with --write-baseline\n");
    for f in findings {
        let _ = writeln!(out, "{} {}:{}", f.lint, f.file, f.line);
    }
    out
}

fn skip_path(rel: &str) -> bool {
    SKIP_FRAGMENTS.iter().any(|s| rel.contains(s))
}

fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
}

fn scope_for(rel: &str, forced_protocol: bool) -> FileScope {
    let protocol = forced_protocol
        || (PROTOCOL_PREFIXES.iter().any(|p| rel.starts_with(p)) && !is_test_path(rel));
    FileScope {
        protocol,
        pool_file: rel == "crates/pmem/src/pool.rs",
    }
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let rel = rel_of(root, &path);
        if skip_path(&format!("{rel}/")) || skip_path(&rel) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Analyzes the workspace rooted at `root`, or just `explicit` files if given.
///
/// Explicit files are treated as protocol-scoped regardless of location, so
/// fixtures exercise every lint.
pub fn analyze(root: &Path, explicit: &[PathBuf], opts: &Options) -> std::io::Result<Analysis> {
    let mut files: Vec<(ParsedFile, FileScope)> = Vec::new();
    let forced = !explicit.is_empty();
    let paths: Vec<PathBuf> = if forced {
        explicit.to_vec()
    } else {
        let mut v = Vec::new();
        collect_rs_files(root, root, &mut v);
        v
    };
    for path in &paths {
        let src = fs::read_to_string(path)?;
        let rel = rel_of(root, path);
        let scope = scope_for(&rel, forced);
        files.push((parse_file(&rel, &src), scope));
    }
    let findings = lints::run_all(&files);
    Ok(apply_suppressions(findings, &files, opts))
}

fn parse_file(rel: &str, src: &str) -> ParsedFile {
    parse::parse_file(rel, src)
}

/// Applies inline allows and the baseline; emits hygiene findings.
fn apply_suppressions(
    findings: Vec<Finding>,
    files: &[(ParsedFile, FileScope)],
    opts: &Options,
) -> Analysis {
    let mut analysis = Analysis {
        files_scanned: files.len(),
        ..Analysis::default()
    };

    // (file, allow index) -> used?
    let mut allow_used: Vec<Vec<bool>> = files
        .iter()
        .map(|(f, _)| vec![false; f.allows.len()])
        .collect();
    // An allow covers the first code line at or after its comment: either the
    // line it trails, or — for a comment block above the site — the first
    // following line that is not a comment or blank.
    let allow_targets: Vec<Vec<u32>> = files
        .iter()
        .map(|(f, _)| {
            f.allows
                .iter()
                .map(|a| {
                    let mut l = a.line as usize; // 1-based
                    while l <= f.lines.len() {
                        let t = f.lines[l - 1].trim();
                        if !(t.is_empty() || t.starts_with("//")) {
                            break;
                        }
                        l += 1;
                    }
                    l as u32
                })
                .collect()
        })
        .collect();
    let baseline: HashSet<&BaselineEntry> = opts.baseline.iter().collect();
    let mut baseline_used: HashSet<BaselineEntry> = HashSet::new();

    for f in findings {
        let mut suppressed = false;
        if let Some(fi) = files.iter().position(|(pf, _)| pf.rel == f.file) {
            for (ai, a) in files[fi].0.allows.iter().enumerate() {
                if a.lint == f.lint && allow_targets[fi][ai] == f.line {
                    allow_used[fi][ai] = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            let key = BaselineEntry {
                lint: f.lint.to_string(),
                file: f.file.clone(),
                line: f.line,
            };
            if baseline.contains(&key) {
                baseline_used.insert(key);
                suppressed = true;
            }
        }
        if suppressed {
            analysis.suppressed += 1;
        } else {
            analysis.errors.push(f);
        }
    }

    // Suppression hygiene.
    for (fi, (pf, _)) in files.iter().enumerate() {
        for (ai, a) in pf.allows.iter().enumerate() {
            if !a.has_reason {
                analysis.errors.push(Finding {
                    lint: LINT_BAD_ALLOW,
                    file: pf.rel.clone(),
                    line: a.line,
                    message: format!(
                        "analyzer:allow({}) has no written reason; add one after \
                         the closing parenthesis",
                        a.lint
                    ),
                    level: Level::Error,
                });
            } else if !allow_used[fi][ai] {
                analysis.warnings.push(Finding {
                    lint: "unused-allow",
                    file: pf.rel.clone(),
                    line: a.line,
                    message: format!("analyzer:allow({}) suppresses nothing; remove it", a.lint),
                    level: Level::Warning,
                });
            }
        }
    }
    for b in &opts.baseline {
        if !baseline_used.contains(b) {
            analysis.warnings.push(Finding {
                lint: "unused-baseline",
                file: b.file.clone(),
                line: b.line,
                message: format!(
                    "baseline entry `{} {}:{}` matches nothing; remove it",
                    b.lint, b.file, b.line
                ),
                level: Level::Warning,
            });
        }
    }
    analysis
        .errors
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    analysis
}

/// Human-readable report.
pub fn render_human(a: &Analysis) -> String {
    let mut out = String::new();
    for f in &a.errors {
        let _ = writeln!(
            out,
            "{}:{}: error[{}] {}",
            f.file, f.line, f.lint, f.message
        );
    }
    for f in &a.warnings {
        let _ = writeln!(
            out,
            "{}:{}: warning[{}] {}",
            f.file, f.line, f.lint, f.message
        );
    }
    let _ = writeln!(
        out,
        "{} file(s) scanned: {} error(s), {} warning(s), {} suppressed",
        a.files_scanned,
        a.errors.len(),
        a.warnings.len(),
        a.suppressed
    );
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON report (hand-rolled; the workspace has no serde).
pub fn render_json(a: &Analysis) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    let all = a.errors.iter().chain(a.warnings.iter());
    let mut first = true;
    for f in all {
        if !first {
            out.push(',');
        }
        first = false;
        let level = match f.level {
            Level::Error => "error",
            Level::Warning => "warning",
        };
        let _ = write!(
            out,
            "\n    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"level\": \"{}\", \"message\": \"{}\"}}",
            json_escape(f.lint),
            json_escape(&f.file),
            f.line,
            level,
            json_escape(&f.message)
        );
    }
    if !first {
        out.push_str("\n  ");
    }
    let _ = write!(
        out,
        "],\n  \"files_scanned\": {},\n  \"errors\": {},\n  \"warnings\": {},\n  \"suppressed\": {}\n}}\n",
        a.files_scanned,
        a.errors.len(),
        a.warnings.len(),
        a.suppressed
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrip() {
        let text = "# comment\nraw-publish crates/core/src/ctx.rs:479\n\nflush-order a.rs:3\n";
        let b = parse_baseline(text);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].lint, "raw-publish");
        assert_eq!(b[0].file, "crates/core/src/ctx.rs");
        assert_eq!(b[0].line, 479);
    }

    #[test]
    fn scope_classification() {
        assert!(scope_for("crates/core/src/leaf.rs", false).protocol);
        assert!(scope_for("crates/pmem/src/pool.rs", false).pool_file);
        assert!(!scope_for("crates/core/tests/metrics.rs", false).protocol);
        assert!(!scope_for("crates/baselines/src/nvtree.rs", false).protocol);
        assert!(!scope_for("crates/bench/src/main.rs", false).protocol);
        assert!(scope_for("anything.rs", true).protocol);
    }

    #[test]
    fn json_is_wellformed_enough() {
        let a = Analysis {
            errors: vec![Finding {
                lint: "raw-publish",
                file: "a \"b\".rs".into(),
                line: 7,
                message: "msg".into(),
                level: Level::Error,
            }],
            ..Analysis::default()
        };
        let j = render_json(&a);
        assert!(j.contains("\"line\": 7"));
        assert!(j.contains("a \\\"b\\\".rs"));
    }
}
