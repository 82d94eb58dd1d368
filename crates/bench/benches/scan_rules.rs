//! Scan-engine scaling: N rules, one parse per file.
//!
//! `spatch scan` promises sub-linear cost in the rule count: the file
//! is parsed once into a `FileContext` shared by every rule, and one
//! merged literal automaton prefilters all rules in a single pass over
//! the text. This bench measures both claims on the `rule_matrix`
//! workload at 1, 10, and 50 rules over the same mixed corpus:
//!
//! * `scan_corpus` wall clock per rule count — with the paper-style
//!   expectation that 50 rules cost well under 50× one rule (the CI
//!   budget is 10×), recorded as the `scan_per_rule_ratio` metric;
//! * `sieve_survivors` vs `may_match_survivors` — (file, rule) pairs
//!   the merged automaton admits vs what N independent per-rule
//!   `may_match` scans admit. Equal counts mean merging loses no
//!   precision; the automaton gets them in one text pass instead of N.
//!
//! Rule groups share prefilter atoms (`overlap = 5`), so a single atom
//! hit wakes several rules of which at most one matches — the
//! adversarial case for merged prefiltering.

use cocci_bench::run_set;
use cocci_bench::timing::{Harness, Throughput};
use cocci_core::{CompiledRuleSet, CorpusOptions};
use cocci_workloads::rule_matrix::{rule_matrix_codebase, rule_matrix_rules, RuleMatrixSpec};

fn build_set(spec: &RuleMatrixSpec, rules: usize) -> CompiledRuleSet {
    let sources: Vec<(String, String, String)> = rule_matrix_rules(&RuleMatrixSpec {
        rules,
        ..spec.clone()
    })
    .into_iter()
    .map(|f| {
        let default_id = f.name.trim_end_matches(".cocci").to_string();
        (f.name, default_id, f.text)
    })
    .collect();
    CompiledRuleSet::from_sources(&sources).expect("rule matrix compiles")
}

/// Median of five timed runs — the Harness keeps its samples private,
/// so the ratio metric takes its own measurements.
fn median_seconds<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut s: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

fn main() {
    let spec = RuleMatrixSpec {
        rules: 50,
        files: 24,
        functions_per_file: 12,
        overlap: 5,
        seed: 0x5CA0,
    };
    let inputs: Vec<(String, String)> = rule_matrix_codebase(&spec)
        .into_iter()
        .map(|f| (f.name, f.text))
        .collect();
    let bytes: usize = inputs.iter().map(|(_, t)| t.len()).sum();
    let opts = CorpusOptions {
        threads: 1,
        ..Default::default()
    };

    let mut h = Harness::new("scan_rules").sample_size(10);
    let mut wall = Vec::new();
    for n in [1usize, 10, 50] {
        let set = build_set(&spec, n);
        let label = format!("{n}_rules");

        // Merged-automaton survivors vs N independent may_match scans:
        // both count admitted (file, rule) pairs, so equality means the
        // merge lost no pruning precision.
        let sieve: usize = inputs
            .iter()
            .map(|(_, t)| set.surviving_rules(t).len())
            .sum();
        let solo: usize = inputs
            .iter()
            .map(|(_, t)| set.rules.iter().filter(|r| r.compiled.may_match(t)).count())
            .sum();
        h.metric("sieve_survivors", &label, sieve as f64);
        h.metric("may_match_survivors", &label, solo as f64);

        let outcomes = run_set(&set, &inputs, &opts);
        let parses: usize = outcomes.iter().map(|o| o.parses).sum();
        let findings: usize = outcomes.iter().map(|o| o.report.findings.len()).sum();
        h.metric("parses", &label, parses as f64);
        h.metric("findings", &label, findings as f64);

        h.bench("scan", &label, Throughput::Bytes(bytes as u64), || {
            run_set(&set, &inputs, &opts)
        });
        wall.push((n, median_seconds(|| run_set(&set, &inputs, &opts))));
    }

    // Sub-linear scaling headline: wall-clock ratio 50 rules : 1 rule
    // (CI's acceptance budget for this ratio is 10×).
    if let (Some((_, one)), Some((_, fifty))) = (
        wall.iter().find(|(n, _)| *n == 1),
        wall.iter().find(|(n, _)| *n == 50),
    ) {
        h.metric("scan_per_rule_ratio", "50_vs_1", fifty / one);
    }

    // Lint-at-load overhead: statically analysing all 50 rules must be
    // noise next to scanning the corpus with them (CI gates the
    // fraction at < 1% of the 50-rule scan).
    let set = build_set(&spec, 50);
    let cfg = cocci_lint::LintConfig::default();
    let lint_s = median_seconds(|| cocci_lint::lint_ruleset(&set, &cfg));
    h.metric("lint_seconds", "50_rules", lint_s);
    if let Some((_, fifty)) = wall.iter().find(|(n, _)| *n == 50) {
        h.metric("lint_overhead_frac", "50_vs_scan", lint_s / fifty);
    }
    h.metric("corpus", "files", inputs.len() as f64);
    h.finish().expect("write BENCH_scan_rules.json");
}
