//! Every repository path the top-level documents cite in backticks
//! exists, so a renamed test or a deleted script cannot stay quoted.
//!
//! A cited path is the first word of an inline code span outside fenced
//! blocks that starts with one of [`PREFIXES`] (a `:line` suffix is
//! dropped), or a bare root file name such as `ROADMAP.md`. Spans with
//! glob or placeholder characters are patterns, not paths, and are
//! skipped.

use std::path::Path;

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "CONTRIBUTING.md",
];

const PREFIXES: [&str; 7] = [
    "crates/",
    "scripts/",
    "tests/",
    "benchmark/",
    "vendor/",
    "examples/",
    "src/",
];

/// The repository path `span` cites, if it cites one.
fn cited_path(span: &str) -> Option<&str> {
    let word = span.split_whitespace().next()?;
    if word.contains(['*', '<', '>', '{', '}', '…', '$']) {
        return None;
    }
    if PREFIXES.iter().any(|p| word.starts_with(p)) {
        return Some(word.split(':').next().unwrap_or(word));
    }
    let root_file = !word.contains('/')
        && word.starts_with(|c: char| c.is_ascii_uppercase())
        && [".md", ".json", ".toml", ".lock"]
            .iter()
            .any(|ext| word.ends_with(ext));
    root_file.then_some(word)
}

/// `(line, path)` for every path `text` cites in an inline code span.
/// Spans may wrap across lines but not across paragraphs, so backticks
/// pair up within each paragraph.
fn cited_paths(text: &str) -> Vec<(usize, &str)> {
    let mut cited = Vec::new();
    let mut fenced = false;
    let mut paragraph: Option<(usize, usize)> = None;
    let mut flush = |paragraph: &mut Option<(usize, usize)>, end: usize| {
        if let Some((first_line, start)) = paragraph.take() {
            let mut line = first_line;
            for (k, span) in text[start..end].split('`').enumerate() {
                if k % 2 == 1 {
                    cited.extend(cited_path(span).map(|p| (line, p)));
                }
                line += span.matches('\n').count();
            }
        }
    };
    let mut offset = 0;
    for (at, line) in text.split_inclusive('\n').enumerate() {
        if line.trim_start().starts_with("```") {
            flush(&mut paragraph, offset);
            fenced = !fenced;
        } else if fenced || line.trim().is_empty() {
            flush(&mut paragraph, offset);
        } else if paragraph.is_none() {
            paragraph = Some((at + 1, offset));
        }
        offset += line.len();
    }
    flush(&mut paragraph, offset);
    cited
}

#[test]
fn cited_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("read a top-level document");
        for (line, path) in cited_paths(&text) {
            checked += 1;
            if !root.join(path).exists() {
                missing.push(format!("{doc}:{line}: `{path}`"));
            }
        }
    }
    assert!(checked >= 40, "only {checked} cited paths found");
    assert!(
        missing.is_empty(),
        "cited paths that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn spans_are_read_as_paths_or_skipped() {
    let text = "see `crates/core/src/matrix.rs:254` and `scripts/ab.sh PARENT`,\n\
                `ROADMAP.md`, `lib.rs`, `cargo test`, `crates/*/src/**/*.rs`, a span\n\
                that wraps: `cargo run\n\
                --manifest-path benchmark/Cargo.toml`, then `src/lib.rs`\n\
                \n\
                ```\n`FENCED.json`\n```\n`GONE.json`";
    assert_eq!(
        cited_paths(text),
        [
            (1, "crates/core/src/matrix.rs"),
            (1, "scripts/ab.sh"),
            (2, "ROADMAP.md"),
            (4, "src/lib.rs"),
            (9, "GONE.json"),
        ]
    );
}
