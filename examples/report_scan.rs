//! Report mode walkthrough: reporting-only rules, position
//! metavariables, and the findings pipeline.
//!
//! A rule whose body is pure context (no `-`/`+` lines) rewrites
//! nothing; every match witness becomes a *finding* — `file:line:col`
//! plus the rule name and bindings — resolved through the CFG route for
//! statement dots, so an `acquire`/`release` pair is only reported when
//! **every** path between the two reaches the release.
//!
//! The example materializes a generated `report_scan` corpus (plus the
//! scanning patch) under a directory and then runs the engine over it
//! in-process, printing the grep-style findings. CI reuses the
//! materialized tree to drive the `spatch --mode report` binary across
//! all three output formats.
//!
//! ```text
//! cargo run -p cocci-examples --example report_scan [-- OUTDIR]
//! ```

use cocci_core::corpus::{apply_to_corpus_resumed, CorpusOptions, WalkSource};
use cocci_examples::section;
use cocci_smpl::parse_semantic_patch;
use cocci_workloads::corpus::{write_corpus_tree, CorpusTreeSpec};
use std::path::PathBuf;

/// The scanning patch: pure context, position on the opening call.
pub const SCAN_PATCH: &str = r#"@scan@
expression r;
position p;
@@
acquire(r)@p;
...
release(r);
"#;

fn main() {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/report-scan-demo"));

    section("materialize the corpus + patch");
    let spec = CorpusTreeSpec {
        files_per_family: 4,
        functions_per_file: 8,
        seed: 0x5CA7,
    };
    let stats = write_corpus_tree(&root, &spec).expect("write corpus tree");
    std::fs::write(root.join("scan.cocci"), SCAN_PATCH).expect("write patch");
    println!(
        "wrote {} files under {} ({} walkable)",
        stats.written,
        root.display(),
        stats.walkable
    );

    section("scan (report mode: findings, no rewrites)");
    let patch = parse_semantic_patch(SCAN_PATCH).expect("parse patch");
    assert!(patch.is_report_only(), "pure-context patch");
    let mut source = WalkSource::discover(std::slice::from_ref(&root), &[]);
    let opts = CorpusOptions::default();
    let report = apply_to_corpus_resumed(&patch, &mut source, &opts, None, |_, _, _| {})
        .expect("corpus run");
    let mut total = 0usize;
    for f in &report.files {
        for fd in &f.findings {
            println!("{}", fd.text_line());
            total += 1;
        }
    }
    println!("\n{total} finding(s); {}", report.summary());
    assert!(total > 0, "the scan family always contains clean pairs");
}
