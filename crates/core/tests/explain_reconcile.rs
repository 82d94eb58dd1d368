//! Funnel counters vs. per-outcome kill stages: `record_attempt` is the
//! single point where an attempt's stage becomes a counter bump *and* a
//! stored `KillStage`, so the `--stats` funnel and the sum of per-file
//! outcomes must reconcile exactly — no tolerance.
//!
//! Own integration-test binary for the same reason as
//! `trace_reconcile.rs`: trace counters are process-global and a shared
//! test binary's parallel threads would pollute them.

use cocci_core::explain::{funnel_rows, ExplainConfig, KillStage};
use cocci_core::{scan_corpus, CompiledRuleSet, CorpusOptions, MemorySource};
use cocci_trace::Counter;
use std::sync::Arc;

fn src(id: &str, callee: &str) -> (String, String, String) {
    (
        format!("{id}.cocci"),
        id.to_string(),
        format!("@scan@\nexpression e;\nposition p;\n@@\n{callee}(e)@p;\n"),
    )
}

#[test]
fn funnel_counters_reconcile_exactly_with_outcomes() {
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
        // No rule atom at all: every rule dies at the prefilter.
        ("none.c".into(), "void h(void) {\n    delta(4);\n}\n".into()),
        // The atom `alpha` appears, so r-alpha survives the prefilter
        // and parses — but `alpha(e)` anchors nothing in a declaration.
        (
            "miss.c".into(),
            "void m(void) {\n    int alpha = 1;\n}\n".into(),
        ),
    ];
    let mut outcomes = Vec::new();
    let source = &mut MemorySource::new(files);
    let opts = CorpusOptions {
        explain: Some(Arc::new(ExplainConfig::default())),
        ..Default::default()
    };
    let report = scan_corpus(&set, source, &opts, None, |_, _, o| {
        outcomes.push(o.clone())
    })
    .unwrap();
    cocci_trace::set_enabled(false);

    // The attempts counter is the sum of every outcome's attempt list.
    let total_attempts: usize = outcomes.iter().map(|o| o.attempts.len()).sum();
    assert_eq!(
        cocci_trace::counter_value(Counter::Attempts) as usize,
        total_attempts,
        "attempts counter vs stored attempts"
    );

    // Each kill counter is the count of stored attempts at that stage —
    // exact, because both come from the same record_attempt call.
    for stage in KillStage::ALL {
        let Some(counter) = stage.counter() else {
            continue;
        };
        let stored = outcomes
            .iter()
            .flat_map(|o| &o.attempts)
            .filter(|a| a.stage == stage)
            .count();
        assert_eq!(
            cocci_trace::counter_value(counter) as usize,
            stored,
            "counter {} vs stored attempts at that stage",
            counter.name()
        );
    }

    // Pruned scan rules record exactly one Prefilter attempt each.
    let pruned: usize = outcomes.iter().map(|o| o.report.rules_pruned).sum();
    assert_eq!(
        cocci_trace::counter_value(Counter::KillPrefilter) as usize,
        pruned,
        "kill_prefilter == sum of rules_pruned"
    );

    // Expected shape of this fixture: 3 completed (alpha+beta in ab.c,
    // gamma in g.c), 1 anchor kill (r-alpha in miss.c), the rest pruned.
    assert_eq!(total_attempts, 12);
    assert_eq!(cocci_trace::counter_value(Counter::KillPrefilter), 8);
    assert_eq!(cocci_trace::counter_value(Counter::KillAnchor), 1);
    let completed = outcomes
        .iter()
        .flat_map(|o| &o.attempts)
        .filter(|a| a.stage == KillStage::Completed)
        .count();
    assert_eq!(completed, 3);

    // Every surviving rule's stored kill_stage matches its attempt, and
    // attempts carry the *scan* rule id — the same attribution findings
    // use.
    for o in &outcomes {
        for r in &o.report.rules {
            let attempt = o
                .attempts
                .iter()
                .find(|a| a.rule == r.id && a.stage != KillStage::Prefilter)
                .unwrap_or_else(|| {
                    panic!("{}: no attempt for surviving rule {}", o.report.name, r.id)
                });
            assert_eq!(
                r.kill_stage,
                Some(attempt.stage),
                "{}: {}",
                o.report.name,
                r.id
            );
            if r.matches > 0 {
                assert_eq!(r.kill_stage, Some(KillStage::Completed));
            }
        }
    }
    let miss = outcomes.iter().find(|o| o.report.name == "miss.c").unwrap();
    let anchor_kill = miss
        .attempts
        .iter()
        .find(|a| a.stage == KillStage::Anchor)
        .expect("r-alpha dies at the anchor stage in miss.c");
    assert_eq!(anchor_kill.rule, "r-alpha");
    assert!(
        anchor_kill.detail.is_some(),
        "explain-on attempts carry kill details"
    );
    let none = outcomes.iter().find(|o| o.report.name == "none.c").unwrap();
    assert!(none
        .attempts
        .iter()
        .all(|a| a.stage == KillStage::Prefilter && a.detail.is_some()));

    // The report's explain block holds every traced attempt.
    let block = report.explain.expect("explain block under --explain");
    assert_eq!(block.attempts.len(), total_attempts);

    // The funnel table derived from the live counters is monotone and
    // lands exactly on the completed count.
    let rows = funnel_rows(|name| {
        Counter::ALL
            .iter()
            .find(|c| c.name() == name)
            .map(|c| cocci_trace::counter_value(*c))
            .unwrap_or(0)
    });
    assert_eq!(rows[0], ("attempts", total_attempts as u64));
    assert!(
        rows.windows(2).all(|w| w[0].1 >= w[1].1),
        "monotone funnel: {rows:?}"
    );
    assert_eq!(*rows.last().unwrap(), ("completed", completed as u64));
}
