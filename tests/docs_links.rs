//! Link check over the Markdown documentation.
//!
//! Every relative link in `README.md` and `docs/*.md` must point at a file
//! (or directory) that exists in the repository, so the documentation layer
//! cannot silently rot as files move. External (`http(s)`/`mailto`) links
//! and pure in-page anchors are skipped — the build environment is offline.
//! Every backticked Rust source path the documentation cites (`path.rs` or
//! `path.rs::item`) must exist too, so a doc cannot keep naming a deleted
//! module or test file. The same holds for code comments: every `*.md`
//! file a comment under `crates/`, `src/` or `tests/` cites must exist.
//! CI runs this as part of the `docs` job alongside
//! `cargo doc --workspace --no-deps` with `RUSTDOCFLAGS="-D warnings"`.

use std::path::{Path, PathBuf};

/// The documentation files under link check: `README.md` plus every
/// Markdown file in `docs/`.
fn documentation_files(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let entries = std::fs::read_dir(&docs).expect("docs/ directory exists");
    for entry in entries {
        let path = entry.expect("readable docs/ entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    files.sort();
    assert!(
        files.len() >= 4,
        "expected README.md plus at least ARCHITECTURE/PAPER_MAP/BENCH_SCHEMA, found {files:?}"
    );
    files
}

/// Extracts the targets of inline Markdown links `[text](target)` from one
/// line. Good enough for the hand-written docs in this repository (no
/// reference-style links, no angle-bracketed destinations).
fn link_targets(line: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
            if let Some(rel_end) = line[i + 2..].find(')') {
                let target = &line[i + 2..i + 2 + rel_end];
                targets.push(target.to_string());
                i += 2 + rel_end;
                continue;
            }
        }
        i += 1;
    }
    targets
}

#[test]
fn relative_links_in_docs_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0usize;
    let mut broken: Vec<String> = Vec::new();
    for file in documentation_files(root) {
        let content = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let base = file.parent().expect("doc files live in a directory");
        let mut in_code_block = false;
        for (lineno, line) in content.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                in_code_block = !in_code_block;
                continue;
            }
            if in_code_block {
                continue;
            }
            for target in link_targets(line) {
                // External links and pure in-page anchors are out of scope.
                if target.starts_with("http://")
                    || target.starts_with("https://")
                    || target.starts_with("mailto:")
                    || target.starts_with('#')
                {
                    continue;
                }
                // Drop a fragment, if any: `PATH#section` checks PATH.
                let path_part = target.split('#').next().unwrap_or(&target);
                if path_part.is_empty() {
                    continue;
                }
                checked += 1;
                let resolved = base.join(path_part);
                if !resolved.exists() {
                    broken.push(format!(
                        "{}:{}: broken link `{}` (resolved to {})",
                        file.display(),
                        lineno + 1,
                        target,
                        resolved.display()
                    ));
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken documentation links:\n{}",
        broken.join("\n")
    );
    // The docs genuinely contain relative links; an empty count would mean
    // the extractor regressed, not that the docs are clean.
    assert!(
        checked >= 8,
        "only {checked} relative links found — extractor broken?"
    );
}

/// The Rust source paths cited in inline code spans of one line: a span
/// whose text, up to an optional `::item` suffix, ends in `.rs`.
fn cited_rust_paths(line: &str) -> Vec<String> {
    line.split('`')
        .skip(1)
        .step_by(2)
        .map(|span| span.split("::").next().unwrap_or(span))
        .filter(|path| path.len() > 3 && path.ends_with(".rs") && !path.contains(' '))
        .map(str::to_string)
        .collect()
}

#[test]
fn rust_paths_cited_in_docs_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    files_with_extension(root, "rs", &mut sources);
    // A path with a directory part is read from the repository root; a bare
    // file name (`network.rs` next to its crate's path) resolves when some
    // source file carries that name.
    let exists = |cited: &str| {
        if cited.contains('/') {
            root.join(cited).is_file()
        } else {
            sources
                .iter()
                .any(|path| path.file_name().is_some_and(|name| name == cited))
        }
    };
    let mut checked = 0usize;
    let mut missing = Vec::new();
    for file in documentation_files(root) {
        let content = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let mut in_code_block = false;
        for (lineno, line) in content.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                in_code_block = !in_code_block;
                continue;
            }
            if in_code_block {
                continue;
            }
            for cited in cited_rust_paths(line) {
                checked += 1;
                if !exists(&cited) {
                    let shown = file.strip_prefix(root).unwrap_or(&file);
                    missing.push(format!("{}:{}: `{cited}`", shown.display(), lineno + 1));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "documentation cites Rust files that do not exist:\n{}",
        missing.join("\n")
    );
    assert!(
        checked >= 50,
        "only {checked} Rust path citations found — extractor broken?"
    );
}

#[test]
fn rust_path_extractor_handles_the_common_shapes() {
    assert_eq!(
        cited_rust_paths("see `crates/sim/src/network.rs` and `tests/x.rs::case`"),
        vec![
            "crates/sim/src/network.rs".to_string(),
            "tests/x.rs".to_string()
        ]
    );
    assert_eq!(
        cited_rust_paths("(`network.rs`, `Network::exchange`)"),
        vec!["network.rs".to_string()]
    );
    assert!(cited_rust_paths("no spans, just lib.rs").is_empty());
    assert!(cited_rust_paths("`cargo test --test a.rs`").is_empty());
}

#[test]
fn link_extractor_handles_the_common_shapes() {
    assert_eq!(
        link_targets("see [a](docs/X.md) and [b](Y.md#frag)"),
        vec!["docs/X.md".to_string(), "Y.md#frag".to_string()]
    );
    assert!(link_targets("no links here").is_empty());
    assert_eq!(
        link_targets("[anchor only](#section)"),
        vec!["#section".to_string()]
    );
}

/// Every file under `dir` with extension `ext`, recursively, skipping
/// build output and hidden directories.
fn files_with_extension(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                files_with_extension(&path, ext, out);
            }
        } else if path.extension().is_some_and(|e| e == ext) {
            out.push(path);
        }
    }
}

/// The `*.md` file names cited in the comment part (after `//`) of one
/// line of Rust source, e.g. `docs/ROUNDS.md` or `README.md`.
fn cited_markdown(line: &str) -> Vec<String> {
    let Some(start) = line.find("//") else {
        return Vec::new();
    };
    let is_name = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    line[start + 2..]
        .split(|c: char| !is_name(c))
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| token.len() > 3 && token.ends_with(".md"))
        .map(str::to_string)
        .collect()
}

#[test]
fn markdown_files_cited_in_code_comments_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut markdown = Vec::new();
    files_with_extension(root, "md", &mut markdown);
    let markdown: Vec<String> = markdown
        .iter()
        .map(|p| {
            p.strip_prefix(root)
                .expect("under the root")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    // A citation resolves when it names a Markdown file by its path from
    // the repository root or by a trailing part of that path.
    let exists = |cited: &str| {
        let cited = cited.trim_start_matches("./");
        markdown
            .iter()
            .any(|path| path == cited || path.ends_with(&format!("/{cited}")))
    };
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests"] {
        files_with_extension(&root.join(dir), "rs", &mut sources);
    }
    sources.sort();
    let mut checked = 0usize;
    let mut missing = Vec::new();
    for file in &sources {
        let content = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        for (lineno, line) in content.lines().enumerate() {
            for cited in cited_markdown(line) {
                checked += 1;
                if !exists(&cited) {
                    let shown = file.strip_prefix(root).unwrap_or(file);
                    missing.push(format!("{}:{}: `{cited}`", shown.display(), lineno + 1));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "code comments cite Markdown files that do not exist:\n{}",
        missing.join("\n")
    );
    assert!(
        checked >= 8,
        "only {checked} Markdown citations found — extractor broken?"
    );
}

#[test]
fn markdown_citation_extractor_handles_the_common_shapes() {
    assert_eq!(
        cited_markdown("//! see docs/ROUNDS.md (§\"The fix\") and `README.md`."),
        vec!["docs/ROUNDS.md".to_string(), "README.md".to_string()]
    );
    assert_eq!(
        cited_markdown("let x = 1; // per ROADMAP.md."),
        vec!["ROADMAP.md".to_string()]
    );
    assert!(cited_markdown("let s = \"notes.md\";").is_empty());
    assert!(cited_markdown("// no citation here, just .md alone").is_empty());
}
