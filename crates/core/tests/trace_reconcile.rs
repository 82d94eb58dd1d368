//! Phase counters vs. report fields: the engine's telemetry must agree
//! with the probes the engine already maintains (`FileOutcome::parses`,
//! prefilter prune counts), or the `--stats` table is fiction.
//!
//! This lives in its own integration-test binary on purpose: trace
//! counters are process-global, and the library's unit tests (which run
//! as parallel threads of one binary) would pollute them. A dedicated
//! test file gets a process to itself, so one test function owns the
//! counters end to end.

use cocci_core::{scan_corpus, CompiledRuleSet, CorpusOptions, MemorySource};
use cocci_trace::Counter;

fn src(id: &str, callee: &str) -> (String, String, String) {
    (
        format!("{id}.cocci"),
        id.to_string(),
        format!("@scan@\nexpression e;\nposition p;\n@@\n{callee}(e)@p;\n"),
    )
}

#[test]
fn phase_counters_reconcile_with_report_fields() {
    cocci_trace::set_enabled(true);
    cocci_trace::reset();

    let set = CompiledRuleSet::from_sources(&[
        src("r-alpha", "alpha"),
        src("r-beta", "beta"),
        src("r-gamma", "gamma"),
    ])
    .unwrap();
    let files: Vec<(String, String)> = vec![
        (
            "ab.c".into(),
            "void f(void) {\n    alpha(1);\n    beta(2);\n}\n".into(),
        ),
        ("g.c".into(), "void g(void) {\n    gamma(3);\n}\n".into()),
        // No rule atom at all: pruned outright, never parsed.
        ("none.c".into(), "void h(void) {\n    delta(4);\n}\n".into()),
    ];
    let mut outcomes = Vec::new();
    let source = &mut MemorySource::new(files.clone());
    let opts = CorpusOptions::default();
    scan_corpus(&set, source, &opts, None, |_, _, o| {
        outcomes.push(o.clone())
    })
    .unwrap();
    let data = cocci_trace::collect();
    cocci_trace::set_enabled(false);

    // parses counter == the contexts' own parse probes.
    let parses: usize = outcomes.iter().map(|o| o.parses).sum();
    assert!(parses > 0);
    assert_eq!(
        cocci_trace::counter_value(Counter::FilesParsed) as usize,
        parses,
        "files_parsed counter vs FileOutcome::parses"
    );

    // pruned counter == files the merged prefilter dropped outright.
    let pruned_outright = outcomes
        .iter()
        .filter(|o| o.report.rules.is_empty() && o.report.rules_pruned == set.len())
        .count();
    assert_eq!(pruned_outright, 1, "none.c is pruned");
    assert_eq!(
        cocci_trace::counter_value(Counter::FilesPruned) as usize,
        pruned_outright,
        "files_pruned counter vs prefilter skips"
    );

    // Every surviving (file × rule) attempt parses through the shared
    // context: the first unit pays, the rest must be recorded cache hits.
    let units: usize = outcomes.iter().map(|o| o.report.rules.len()).sum();
    assert_eq!(
        cocci_trace::counter_value(Counter::ParseCacheHits) as usize,
        units - parses,
        "cache hits vs (units - real parses)"
    );

    // Span totals tell the same story as the counters.
    let totals = data.phase_totals();
    assert_eq!(totals["parse"].count as usize, parses);
    assert_eq!(
        totals["prefilter"].count as usize,
        files.len(),
        "one merged-prefilter pass per file"
    );
    assert_eq!(
        totals["tree_match"].count as usize, units,
        "one single-seed tree match per surviving unit"
    );
    // Report-only rules have no edits to compute: no rewrite spans.
    assert!(!totals.contains_key("rewrite"), "{totals:?}");
}
