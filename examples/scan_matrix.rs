//! Scan-mode walkthrough: one parse serving a whole directory of rules.
//!
//! `spatch scan --rules <dir>` compiles every `.cocci` file in a
//! directory into one [`CompiledRuleSet`], prefilters all rules with a
//! single merged literal automaton per file, and parses each surviving
//! file exactly once into a `FileContext` shared by every rule.
//!
//! The example materializes a `rule_matrix` workload — 10 report-only
//! rules (prefilter-atom groups of 2) and a mixed corpus — under a
//! directory, then runs the scan in-process and prints the per-rule
//! finding counts plus the parse-count probe. CI reuses the
//! materialized tree to drive the `spatch scan` binary across output
//! formats.
//!
//! ```text
//! cargo run -p cocci-examples --example scan_matrix [-- OUTDIR]
//! ```

use cocci_core::corpus::{CorpusOptions, WalkSource};
use cocci_core::{scan_corpus, CompiledRuleSet, FileOutcome};
use cocci_examples::section;
use cocci_workloads::rule_matrix::{rule_matrix_codebase, rule_matrix_rules, RuleMatrixSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn main() {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/scan-matrix-demo"));

    section("materialize the rule matrix (rules/ + corpus/)");
    let spec = RuleMatrixSpec {
        rules: 10,
        files: 12,
        functions_per_file: 8,
        overlap: 2,
        seed: 0x5CA2,
    };
    let rules_dir = root.join("rules");
    let corpus_dir = root.join("corpus");
    std::fs::create_dir_all(&rules_dir).expect("mkdir rules");
    std::fs::create_dir_all(&corpus_dir).expect("mkdir corpus");
    for f in rule_matrix_rules(&spec) {
        std::fs::write(rules_dir.join(&f.name), &f.text).expect("write rule");
    }
    for f in rule_matrix_codebase(&spec) {
        std::fs::write(corpus_dir.join(&f.name), &f.text).expect("write corpus file");
    }
    println!(
        "wrote {} rules + {} corpus files under {}",
        spec.rules,
        spec.files,
        root.display()
    );

    section("scan (all rules, one parse per file)");
    let set = CompiledRuleSet::load_dir(&rules_dir).expect("load rules dir");
    let mut source = WalkSource::discover(std::slice::from_ref(&corpus_dir), &[]);
    let mut outcomes: Vec<FileOutcome> = Vec::new();
    let report = scan_corpus(
        &set,
        &mut source,
        &CorpusOptions::default(),
        None,
        |_, _, o| outcomes.push(o.clone()),
    )
    .expect("scan corpus");

    let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
    let mut parses = 0usize;
    let mut pruned_files = 0usize;
    for o in &outcomes {
        parses += o.parses;
        if o.report.rules.is_empty() {
            pruned_files += 1;
        }
        for f in &o.report.findings {
            *per_rule.entry(f.rule.as_str()).or_default() += 1;
        }
    }
    for r in &set.rules {
        println!(
            "{:<12} [{}] {:>3} finding(s)",
            r.meta.id,
            r.meta.severity.as_str(),
            per_rule.get(r.meta.id.as_str()).copied().unwrap_or(0)
        );
    }
    println!(
        "\n{} finding(s); {} parse(s) over {} file(s), {} pruned outright; {}",
        outcomes
            .iter()
            .map(|o| o.report.findings.len())
            .sum::<usize>(),
        parses,
        outcomes.len(),
        pruned_files,
        report.summary()
    );
    assert!(
        parses <= outcomes.len(),
        "one parse per surviving file, at most"
    );
    assert!(
        per_rule.values().sum::<usize>() > 0,
        "the matrix corpus always contains matching arms"
    );
}
