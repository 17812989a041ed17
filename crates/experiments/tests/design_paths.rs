//! DESIGN.md names files and directories in code spans; each one must
//! exist, so the design document cannot drift from the tree unnoticed.
//!
//! A span counts as a path when it starts with `crates/`, `tests/`,
//! `vendor/` or `benchmark/`. Only its first word is checked, cut
//! before a `::` item path or a `:line` suffix; fenced code blocks are
//! skipped.

use std::path::Path;

const PREFIXES: [&str; 4] = ["crates/", "tests/", "vendor/", "benchmark/"];

/// `markdown` without its fenced code blocks.
fn prose(markdown: &str) -> String {
    let mut fenced = false;
    let mut out = String::new();
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The repository paths named by the code spans of `prose`. Spans may
/// wrap across lines, so backticks pair over the whole text.
fn named_paths(prose: &str) -> Vec<&str> {
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .filter_map(|span| {
            let word = span.split_whitespace().next()?;
            if !PREFIXES.iter().any(|p| word.starts_with(p)) {
                return None;
            }
            let word = word.split("::").next()?;
            word.split(':').next()
        })
        .collect()
}

#[test]
fn every_path_design_names_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let prose = prose(&design);
    let paths = named_paths(&prose);
    assert!(paths.len() > 20, "found only {} paths", paths.len());
    let missing: Vec<&str> = paths
        .into_iter()
        .filter(|p| !root.join(p).exists())
        .collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md names missing paths: {missing:?}"
    );
}

#[test]
fn spans_are_cut_to_the_path_they_name() {
    let text = "See `crates/dcsim/src/net.rs:42` and `tests/a.rs::some_test`,\n\
                not `Foo`, `benchmark/run.sh all`, a wrapped `crates/core\n\
                tail` span, or\n```\n`crates/in_a_fence`\n```\n";
    assert_eq!(
        named_paths(&prose(text)),
        [
            "crates/dcsim/src/net.rs",
            "tests/a.rs",
            "benchmark/run.sh",
            "crates/core"
        ]
    );
}
