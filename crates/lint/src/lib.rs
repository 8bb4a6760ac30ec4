//! `face-lint`: a dependency-free source pass enforcing the workspace's
//! concurrency and hygiene contract.
//!
//! Rules (all scanning `crates/**/*.rs` and `src/**/*.rs`, never `vendor/`):
//!
//! - `raw-lock` — raw `parking_lot` usage outside `face-analysis`. Every
//!   lock must go through `OrderedMutex`/`OrderedRwLock` so the lockdep
//!   witness sees it.
//! - `sleep` — `thread::sleep` outside the device emulators (`face-iosim`,
//!   and `face_pagestore::hooks`, the one device-path file that blocks:
//!   service times, latency spikes and retry backoff), the arrival-schedule
//!   emulator (`face_workload::arrival`, which paces transaction release the
//!   way the hooks pace device service) and test code. Library code must
//!   never block on wall-clock time.
//! - `print` — `println!`/`eprintln!`/`print!`/`dbg!` in library crates
//!   (the bench/report binaries and test code are exempt).
//! - `unwrap-device` — `.unwrap()`/`.expect(` on the device-path files
//!   (flash store, WAL storage/writer, page stores, the fault plan, the
//!   device hooks and the instrumented views that sit beside the three
//!   storage traits, and the destage + degrade recovery machinery) outside
//!   `#[cfg(test)]` scopes: device failures must surface as typed errors,
//!   and the code that handles them must not itself panic.
//!
//! A finding can be waived line-by-line with a trailing
//! `face-lint: allow(<rule>)` comment stating why — reviewed debt, not an
//! escape hatch: the marker names exactly one rule and is itself grep-able.
//!
//! `#[cfg(test)]` scopes are detected with a brace-depth scanner; `tests/`,
//! `benches/`, `examples/` and `src/bin/` trees are exempt wholesale.
//!
//! The separate docs check ([`check_docs`]) renders the canonical lock-order
//! block from `face_analysis::classes` and rejects drift between it and the
//! marked regions in README.md and ROADMAP.md.
//!
//! [`count_loc`] reports (never gates) each crate's non-test lines: a file's
//! lines before the first line that starts with `#[cfg(test)]`, and nothing
//! of a file declared only under `#[cfg(test)]` (`#[cfg(test)] mod x;`).

use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`raw-lock`, `sleep`, `print`, `unwrap-device`,
    /// `docs-drift`).
    pub rule: &'static str,
    /// File the finding is in, relative to the scanned root.
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// The offending source line or a description.
    pub text: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule,
            self.text.trim()
        )
    }
}

/// Files whose non-test `.unwrap()`/`.expect(` calls are device-path debt.
const DEVICE_PATH_FILES: &[&str] = &[
    "crates/face/src/store.rs",
    "crates/face/src/destage.rs",
    "crates/face/src/degrade.rs",
    "crates/wal/src/storage.rs",
    "crates/wal/src/writer.rs",
    "crates/pagestore/src/file_store.rs",
    "crates/pagestore/src/mem_store.rs",
    "crates/pagestore/src/fault.rs",
    "crates/pagestore/src/hooks.rs",
];

/// The begin/end markers bracketing the generated lock-order block in docs.
pub const DOC_BEGIN: &str = "<!-- lock-order:begin -->";
/// See [`DOC_BEGIN`].
pub const DOC_END: &str = "<!-- lock-order:end -->";

/// Recursively collect `.rs` files under `dir`, sorted for stable output.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Per-line view of a source file with `#[cfg(test)]` scope tracking and
/// comment stripping.
struct ScopedLine<'a> {
    /// 1-based line number.
    number: usize,
    /// The raw line (for display).
    raw: &'a str,
    /// The line with comments removed (for matching).
    code: String,
    /// Whether the line sits inside a `#[cfg(test)]` item.
    in_test_scope: bool,
}

/// Walk `source` producing comment-stripped lines annotated with whether
/// they are inside a `#[cfg(test)]` scope.
fn scoped_lines(source: &str) -> Vec<ScopedLine<'_>> {
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    // Depths at which a #[cfg(test)] item's brace opened.
    let mut test_depths: Vec<i64> = Vec::new();
    let mut pending_cfg_test = false;
    let mut in_block_comment = false;
    let mut in_string = false;
    for (idx, raw) in source.lines().enumerate() {
        let in_test_at_start = !test_depths.is_empty();
        let mut code = String::with_capacity(raw.len());
        let mut chars = raw.chars().peekable();
        while let Some(c) = chars.next() {
            if in_block_comment {
                if c == '*' && chars.peek() == Some(&'/') {
                    chars.next();
                    in_block_comment = false;
                }
                continue;
            }
            if in_string {
                code.push(c);
                if c == '\\' {
                    // Skip the escaped character.
                    if let Some(e) = chars.next() {
                        code.push(e);
                    }
                } else if c == '"' {
                    in_string = false;
                }
                continue;
            }
            match c {
                '/' if chars.peek() == Some(&'/') => break, // line comment
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    in_block_comment = true;
                }
                '"' => {
                    in_string = true;
                    code.push(c);
                }
                '\'' => {
                    // Char literal (or lifetime). Consume a possible escaped
                    // or plain char followed by a closing quote so braces in
                    // char literals do not confuse the depth counter.
                    code.push(c);
                    match chars.peek() {
                        Some('\\') => {
                            chars.next();
                            chars.next();
                            if chars.peek() == Some(&'\'') {
                                chars.next();
                            }
                        }
                        Some(&n) if n != '\'' => {
                            chars.next();
                            if chars.peek() == Some(&'\'') {
                                chars.next(); // closing quote: char literal
                            }
                            // Otherwise a lifetime: nothing more to consume.
                        }
                        _ => {}
                    }
                }
                '{' => {
                    depth += 1;
                    if pending_cfg_test {
                        test_depths.push(depth);
                        pending_cfg_test = false;
                    }
                    code.push(c);
                }
                '}' => {
                    if test_depths.last() == Some(&depth) {
                        test_depths.pop();
                    }
                    depth -= 1;
                    code.push(c);
                }
                _ => code.push(c),
            }
        }
        let trimmed = code.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            pending_cfg_test = true;
        } else if pending_cfg_test && code.contains(';') && !code.contains('{') {
            // `#[cfg(test)] use …;` — no scope to attach to.
            pending_cfg_test = false;
        }
        out.push(ScopedLine {
            number: idx + 1,
            raw,
            code,
            in_test_scope: in_test_at_start || !test_depths.is_empty(),
        });
    }
    out
}

fn is_exempt_tree(rel: &str) -> bool {
    rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.contains("/src/bin/")
        || rel.ends_with("/main.rs")
        || rel.ends_with("/build.rs")
}

/// Run the source rules over `root` (the workspace root). Returns findings;
/// an empty vector means the tree is clean.
pub fn scan_sources(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    collect_rs_files(&root.join("src"), &mut files);
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        // The lint's own sources and tests mention every forbidden pattern
        // as string literals and fixtures; the witness crate owns the raw
        // primitives by design.
        if rel.starts_with("crates/lint/") {
            continue;
        }
        let Ok(source) = fs::read_to_string(&path) else {
            continue;
        };
        let exempt_tree = is_exempt_tree(&rel);
        let is_device_file = DEVICE_PATH_FILES.contains(&rel.as_str());
        for line in scoped_lines(&source) {
            let code = line.code.as_str();
            // A `face-lint: allow(<rule>)` comment waives that one rule on
            // this line. The marker lives in a comment, so it is matched on
            // the raw text (comments are stripped from `code`).
            let allowed = |rule: &str| line.raw.contains(&format!("face-lint: allow({rule})"));
            if code.contains("parking_lot")
                && !rel.starts_with("crates/analysis/")
                && !allowed("raw-lock")
            {
                findings.push(Finding {
                    rule: "raw-lock",
                    file: rel.clone(),
                    line: line.number,
                    text: line.raw.to_string(),
                });
            }
            if !line.in_test_scope && !exempt_tree {
                if code.contains("thread::sleep")
                    && !rel.starts_with("crates/iosim/")
                    && rel != "crates/pagestore/src/hooks.rs"
                    && rel != "crates/workload/src/arrival.rs"
                    && !allowed("sleep")
                {
                    findings.push(Finding {
                        rule: "sleep",
                        file: rel.clone(),
                        line: line.number,
                        text: line.raw.to_string(),
                    });
                }
                if (code.contains("println!")
                    || code.contains("eprintln!")
                    || code.contains("print!")
                    || code.contains("dbg!"))
                    && !rel.starts_with("crates/bench/")
                    && !allowed("print")
                {
                    findings.push(Finding {
                        rule: "print",
                        file: rel.clone(),
                        line: line.number,
                        text: line.raw.to_string(),
                    });
                }
                if is_device_file
                    && (code.contains(".unwrap()") || code.contains(".expect("))
                    && !allowed("unwrap-device")
                {
                    findings.push(Finding {
                        rule: "unwrap-device",
                        file: rel.clone(),
                        line: line.number,
                        text: line.raw.to_string(),
                    });
                }
            }
        }
    }
    findings
}

fn extract_doc_block(content: &str) -> Option<String> {
    let begin = content.find(DOC_BEGIN)?;
    let end = content.find(DOC_END)?;
    let inner = &content[begin + DOC_BEGIN.len()..end];
    Some(inner.trim().to_string())
}

/// Check that README.md and ROADMAP.md carry the canonical lock-order block
/// (rendered from the `face-analysis` class registry) between the
/// `lock-order:begin`/`lock-order:end` markers.
pub fn check_docs(root: &Path) -> Vec<Finding> {
    let expected = face_analysis::classes::lock_order_doc();
    let expected = expected.trim();
    let mut findings = Vec::new();
    for doc in ["README.md", "ROADMAP.md"] {
        let path = root.join(doc);
        let Ok(content) = fs::read_to_string(&path) else {
            findings.push(Finding {
                rule: "docs-drift",
                file: doc.to_string(),
                line: 0,
                text: "file missing".to_string(),
            });
            continue;
        };
        match extract_doc_block(&content) {
            None => findings.push(Finding {
                rule: "docs-drift",
                file: doc.to_string(),
                line: 0,
                text: format!("missing `{DOC_BEGIN}` … `{DOC_END}` block"),
            }),
            Some(actual) if actual != expected => {
                // Report the first differing line to make the drift findable.
                let detail = expected
                    .lines()
                    .zip(actual.lines().chain(std::iter::repeat("<missing>")))
                    .find(|(e, a)| e != a)
                    .map(|(e, a)| format!("expected `{e}`, found `{a}`"))
                    .unwrap_or_else(|| "block has extra trailing lines".to_string());
                findings.push(Finding {
                    rule: "docs-drift",
                    file: doc.to_string(),
                    line: 0,
                    text: format!(
                        "lock-order block drifted from face_analysis::classes ({detail}); \
                         regenerate with `cargo run -p face-lint -- --print-docs`"
                    ),
                });
            }
            Some(_) => {}
        }
    }
    findings
}

/// Non-test lines of each crate's `src/` tree under `root/crates`, as
/// `(path relative to root, lines)` in path order. A file counts its lines
/// before the first line whose trimmed text starts with `#[cfg(test)]` (a
/// comment that only names the attribute does not stop the count); a file
/// declared only under `#[cfg(test)]` counts as test.
pub fn count_loc(root: &Path) -> Vec<(String, usize)> {
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        return Vec::new();
    };
    let mut srcs: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    srcs.sort();
    srcs.into_iter()
        .map(|src| {
            let mut files = Vec::new();
            collect_rs_files(&src, &mut files);
            let test_only = test_only_files(&files);
            let lines = files
                .iter()
                .filter(|f| !test_only.contains(f))
                .map(|f| {
                    let text = fs::read_to_string(f).unwrap_or_default();
                    text.lines()
                        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
                        .count()
                })
                .sum();
            let rel = src.strip_prefix(root).unwrap_or(&src);
            (rel.to_string_lossy().replace('\\', "/"), lines)
        })
        .collect()
}

/// The files `files` declare as `#[cfg(test)] mod name;`: `name.rs` in the
/// declaring module's directory.
fn test_only_files(files: &[PathBuf]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for file in files {
        let Ok(text) = fs::read_to_string(file) else {
            continue;
        };
        let dir = match file.file_stem().and_then(|s| s.to_str()) {
            Some("lib" | "main" | "mod") => file.parent().unwrap_or(Path::new("")).to_path_buf(),
            _ => file.with_extension(""),
        };
        let mut lines = text.lines().map(str::trim);
        while let Some(line) = lines.next() {
            if line != "#[cfg(test)]" {
                continue;
            }
            let next = lines.next().unwrap_or("");
            if let Some(name) = next.strip_prefix("mod ").and_then(|n| n.strip_suffix(';')) {
                out.push(dir.join(format!("{name}.rs")));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf()
    }

    fn temp_root(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("face_lint_{tag}_{}_{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn write(root: &Path, rel: &str, content: &str) {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, content).unwrap();
    }

    #[test]
    fn the_workspace_is_clean() {
        let findings = scan_sources(&repo_root());
        assert!(
            findings.is_empty(),
            "workspace lint findings:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn the_docs_match_the_registry() {
        let findings = check_docs(&repo_root());
        assert!(
            findings.is_empty(),
            "docs drift:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn seeded_violations_fail_the_scan() {
        let root = temp_root("seeded");
        write(
            &root,
            "crates/foo/src/lib.rs",
            "use parking_lot::Mutex;\n\
             pub fn nap() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n\
             pub fn shout() { println!(\"loud\"); }\n",
        );
        write(
            &root,
            "crates/face/src/store.rs",
            "pub fn read() { std::fs::read(\"x\").unwrap(); }\n",
        );
        // The sleep exemption is one file: the old homes of the device
        // pauses are ordinary library code now.
        for old_home in [
            "crates/engine/src/latency.rs",
            "crates/pagestore/src/fault.rs",
        ] {
            write(&root, old_home, "pub fn nap() { std::thread::sleep(d); }\n");
        }
        let findings = scan_sources(&root);
        let sleeps = findings.iter().filter(|f| f.rule == "sleep").count();
        assert_eq!(sleeps, 3, "{findings:?}");
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"raw-lock"), "{findings:?}");
        assert!(rules.contains(&"sleep"), "{findings:?}");
        assert!(rules.contains(&"print"), "{findings:?}");
        assert!(rules.contains(&"unwrap-device"), "{findings:?}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn loc_counts_lines_before_the_first_cfg_test_and_skips_test_only_files() {
        let root = temp_root("loc");
        write(
            &root,
            "crates/a/src/lib.rs",
            "pub mod db;\n\
             pub fn f() {}\n\
             #[cfg(test)]\n\
             mod tests {}\n",
        );
        write(
            &root,
            "crates/a/src/db.rs",
            "pub fn g() {}\n\
             \n\
             #[cfg(test)]\n\
             mod diff_tests;\n",
        );
        write(
            &root,
            "crates/a/src/db/diff_tests.rs",
            "fn t() {}\nfn u() {}\n",
        );
        write(
            &root,
            "crates/b/src/lib.rs",
            "//! No test module.\npub fn h() {}\n",
        );
        assert_eq!(
            count_loc(&root),
            [
                ("crates/a/src".to_string(), 2 + 2),
                ("crates/b/src".to_string(), 2)
            ]
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn loc_keeps_counting_past_a_comment_that_names_cfg_test() {
        let root = temp_root("loc_doc");
        write(
            &root,
            "crates/a/src/lib.rs",
            "//! Skips `#[cfg(test)]` scopes.\n\
             /// Not under #[cfg(test)].\n\
             pub fn f() {}\n\
             \u{20}   #[cfg(test)]\n\
             mod tests {}\n",
        );
        assert_eq!(count_loc(&root), [("crates/a/src".to_string(), 3)]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cfg_test_scopes_and_exempt_trees_are_allowed() {
        let root = temp_root("clean");
        write(
            &root,
            "crates/face/src/store.rs",
            "pub fn fine() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \u{20}   #[test]\n\
             \u{20}   fn t() { std::fs::read(\"x\").unwrap(); std::thread::sleep(d); println!(\"ok\"); }\n\
             }\n",
        );
        write(
            &root,
            "crates/engine/tests/gate.rs",
            "fn t() { std::thread::sleep(d); println!(\"ok\"); }\n",
        );
        write(
            &root,
            "crates/iosim/src/lib.rs",
            "pub fn tick() { std::thread::sleep(d); }\n",
        );
        write(
            &root,
            "crates/pagestore/src/hooks.rs",
            "pub fn pause() { std::thread::sleep(d); }\n",
        );
        write(
            &root,
            "crates/bench/src/report.rs",
            "pub fn emit() { println!(\"row\"); }\n",
        );
        write(
            &root,
            "crates/analysis/src/ordered.rs",
            "use parking_lot::Mutex;\n",
        );
        let findings = scan_sources(&root);
        assert!(
            findings.is_empty(),
            "{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn allow_markers_waive_exactly_one_rule() {
        let root = temp_root("allow");
        write(
            &root,
            "crates/face/src/store.rs",
            // The waived expect passes; the unmarked unwrap on the next line
            // and a marker naming the wrong rule still fail.
            "pub fn a() { std::fs::read(\"x\").expect(\"y\"); } // face-lint: allow(unwrap-device)\n\
             pub fn b() { std::fs::read(\"x\").unwrap(); }\n\
             pub fn c() { std::fs::read(\"x\").unwrap(); } // face-lint: allow(sleep)\n",
        );
        let findings = scan_sources(&root);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "unwrap-device"));
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[1].line, 3);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn comments_do_not_trip_rules() {
        let root = temp_root("comments");
        write(
            &root,
            "crates/foo/src/lib.rs",
            "// parking_lot is wrapped by face-analysis; println! is banned.\n\
             /* thread::sleep(…) would be a bug here */\n\
             pub fn quiet() {}\n",
        );
        let findings = scan_sources(&root);
        assert!(findings.is_empty(), "{findings:?}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn docs_drift_is_detected() {
        let root = temp_root("docs");
        let good = format!(
            "# Title\n\n{}\n{}\n{}\n",
            DOC_BEGIN,
            face_analysis::classes::lock_order_doc().trim(),
            DOC_END
        );
        write(&root, "README.md", &good);
        write(&root, "ROADMAP.md", &good);
        assert!(check_docs(&root).is_empty());

        let stale = format!("# Title\n\n{DOC_BEGIN}\nsome stale order\n{DOC_END}\n");
        write(&root, "README.md", &stale);
        let findings = check_docs(&root);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "docs-drift");
        fs::remove_dir_all(&root).unwrap();
    }
}
