//! The corpus driver: run a [`CompiledRuleSet`] over every file of a
//! source, streaming, with bounded memory.
//!
//! Every run is a scan. `spatch scan --rules <dir>` runs a directory of
//! rules; applying one `--sp-file` patch runs its one-entry set
//! ([`CompiledRuleSet::from_patch`]). The work unit is the **file**:
//! one persistent worker team takes files, oldest first, from one FIFO
//! [`WorkQueue`] and runs each through [`run_file`](crate::driver) — sieve, one shared
//! parse, every surviving rule, attribution, suppression, kill stages —
//! so fifty rules over one file still cost one parse, and the file's
//! parse tree dies before its worker takes the next file.
//!
//! Findings of a rules-directory rule are attributed to it: each
//! finding's `rule` field is the rule's id and its message honours the
//! rule's `// spatch-message:` override, so one merged
//! report (or SARIF run) stays navigable at fifty rules. Such rules never
//! write files: a transform rule that *would* change a file records a
//! `changed` per-rule outcome and its match count, and nothing else.

use crate::corpus::{BatchOptions, CorpusOptions, FileSource};
use crate::driver::{run_file, FileOutcome};
use crate::explain::{AttemptTrace, ExplainBlock, KillStage};
use crate::orchestrate::ApplyError;
use crate::pool::{resolve_threads, ResultSlots, WorkQueue};
use crate::report::json::{Fields, Str, Value};
use crate::report::{content_hash, ApplyReport, FileReport, FileStatus, RunMetrics};
use crate::ruleset::CompiledRuleSet;
use cocci_trace::Phase;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Outcome of one rule with an id on one file (a rules-directory run).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleOutcome {
    /// The rule id ([`RuleMeta::id`](crate::RuleMeta::id)).
    pub id: String,
    /// Per-rule status; `changed` means the (transform) rule *would*
    /// rewrite the file — rules with ids never write.
    pub status: FileStatus,
    /// Matches this rule found in the file.
    pub matches: usize,
    /// Findings kept after suppression filtering.
    pub findings: usize,
    /// Findings dropped by `// spatch-ignore` markers.
    pub suppressed: usize,
    /// Wall-clock seconds this rule spent on this file, less what the
    /// file's context built for every rule while it ran (the parse and
    /// its tables, line table, suppression index, CFGs; see
    /// [`FileContext::shared_time`](crate::FileContext::shared_time)) —
    /// so the first rule to run is not charged the parse. Recorded for
    /// *every* status, including `timeout` and `error`, so slow-rule
    /// accounting (`--stats`) covers quarantined work too.
    pub seconds: f64,
    /// Deepest funnel stage this rule's attempts reached on this file
    /// (`None` when no attempt was recorded — e.g. a matcher panic, or
    /// a report from an older build).
    pub kill_stage: Option<KillStage>,
}

impl RuleOutcome {
    /// Write as one JSON object (used inside file reports).
    pub(crate) fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"id\": {}, \"status\": \"{}\", \"matches\": {}, \"findings\": {}, \"suppressed\": {}, \"seconds\": {:e}",
            Str(&self.id),
            self.status,
            self.matches,
            self.findings,
            self.suppressed,
            self.seconds
        );
        if let Some(k) = self.kill_stage {
            let _ = write!(out, ", \"kill_stage\": \"{}\"", k.name());
        }
        out.push('}');
    }

    /// Parse the [`write_json`](RuleOutcome::write_json) form back.
    pub(crate) fn from_json(v: &Value) -> Result<RuleOutcome, String> {
        let f = Fields::new(v, "rule outcome")?;
        Ok(RuleOutcome {
            id: f.str("id")?,
            status: f.req("status", |v| FileStatus::parse(v.as_str()?))?,
            matches: f.num("matches") as usize,
            findings: f.num("findings") as usize,
            suppressed: f.num("suppressed") as usize,
            seconds: f.num("seconds"),
            kill_stage: f.opt_str("kill_stage").and_then(KillStage::parse),
        })
    }
}

/// Run every rule of `set` over every file of `source`, streaming with
/// bounded memory: files are read and queued one at a time, and the
/// next is read only once what is read but not yet sunk fits in one
/// batch under `opts.batch`.
///
/// `sink` is invoked once per report row, in walk order, with the file's
/// name, original text, and outcome. It runs on the calling thread as
/// soon as that file and every file before it are done, while the walk
/// and the workers go on with later files — this is where a CLI prints
/// diffs or renders findings while the text is still in memory. Files
/// skipped by `previous` reach it as [`FileOutcome::resumed`], and files
/// that could not be read (or found) with empty text and their `error`
/// row. The report keeps each row as the sink leaves it, so a sink that
/// fails to land a rewrite can record the failure there.
///
/// `previous` enables incremental re-runs: files whose content hash
/// matches their entry there and whose previous status was a
/// *completed* outcome ([`FileStatus::resumable`]) are skipped — the
/// entry (findings and per-rule outcomes included) is copied into the
/// new report with zero seconds, and they count in
/// [`ApplyReport::resumed`]. Sound only against the same rules:
/// callers must compare [`ApplyReport::patch_hash`] against
/// [`CompiledRuleSet::hash`] before resuming (the returned report
/// records it).
///
/// Per-file failures land in the report, so this never returns `Err`;
/// the `Result` keeps the signature callers already handle.
pub fn scan_corpus(
    set: &CompiledRuleSet,
    source: &mut dyn FileSource,
    opts: &CorpusOptions,
    previous: Option<&ApplyReport>,
    mut sink: impl FnMut(&str, &str, &mut FileOutcome),
) -> Result<ApplyReport, ApplyError> {
    // Hash 0 means "unknown" (unreadable file, pre-hash report): never a
    // skip candidate.
    let prev_by_name: HashMap<&str, &FileReport> = previous
        .map(|r| {
            r.files
                .iter()
                .filter(|f| f.hash != 0)
                .map(|f| (f.name.as_str(), f))
                .collect()
        })
        .unwrap_or_default();
    let t0 = Instant::now();
    let mut files = Vec::new();
    let mut resumed = 0usize;

    // One persistent worker team for the whole run: the walker (this
    // thread) streams files into the work queue while the workers drain
    // it, so a slow file in batch N overlaps with batch N+1. Every
    // file the producer encounters (run, resumed, or unreadable)
    // reserves one ordered result slot, so the sink and the report
    // observe exactly the walk order whatever the completion order was.
    struct Task {
        slot: usize,
        name: String,
        text: String,
        hash: u64,
    }
    let threads = resolve_threads(opts.threads);
    let queue: WorkQueue<Task> = WorkQueue::new(threads);
    let slots: ResultSlots<(Arc<str>, FileOutcome)> = ResultSlots::new();
    // Under `--explain`, matching attempts accumulate into the report's
    // explain block; it sorts on finish, so the embedded traces are
    // byte-identical across thread counts.
    let mut explain_block = opts.explain.as_ref().map(|_| ExplainBlock::default());

    std::thread::scope(|scope| {
        for w in 0..threads {
            let (queue, slots) = (&queue, &slots);
            let spawn = std::thread::Builder::new().name(format!("worker-{w}"));
            let handle = spawn.spawn_scoped(scope, move || {
                while let Some(task) = queue.pop() {
                    let text: Arc<str> = task.text.into();
                    let outcome = run_file(set, task.name, &text, task.hash, opts);
                    slots.set(task.slot, (text, outcome));
                }
            });
            handle.expect("spawn corpus worker");
        }

        let explain_cfg = opts.explain.as_deref();
        let explain_block = &mut explain_block;
        let mut emit = |done: Vec<(Arc<str>, FileOutcome)>, files: &mut Vec<FileReport>| {
            for (text, mut outcome) in done {
                let _report_span = cocci_trace::span(Phase::Report);
                let name = outcome.report.name.clone();
                if let (Some(block), Some(cfg)) = (explain_block.as_mut(), explain_cfg) {
                    block.extend(
                        outcome
                            .attempts
                            .iter()
                            .filter(|a| cfg.matches(&name, &a.rule))
                            .map(|a| AttemptTrace {
                                file: name.clone(),
                                rule: a.rule.clone(),
                                stage: a.stage,
                                detail: a.detail.clone(),
                            }),
                    );
                }
                sink(&name, &text, &mut outcome);
                files.push(outcome.report);
            }
        };

        // Text sizes of the slots reserved but not yet sunk, in slot order.
        let mut held: VecDeque<usize> = VecDeque::new();
        // Files are read and queued one at a time, so the first worker
        // starts on the first file, not once a whole batch is read; a
        // source's read errors for the paths before that file come with
        // it, and take their slots first.
        let one_file = BatchOptions {
            max_files: 1,
            max_bytes: usize::MAX,
        };
        loop {
            // Stream out what has completed, first waiting until what is
            // read but not yet sunk fits in one batch: the walker stays
            // at most one batch ahead of the sink, however far the
            // workers lag.
            let done = slots.drain_until(batch_tail(&held, &opts.batch));
            held.drain(..done.len());
            emit(done, &mut files);
            let batch = {
                let _walk_span = cocci_trace::span(Phase::Walk);
                source.next_batch(&one_file)
            };
            for (name, msg) in source.take_errors() {
                let report = FileReport {
                    error: Some(msg),
                    ..FileReport::new(name, FileStatus::Error, 0)
                };
                slots.set(slots.reserve(), ("".into(), FileOutcome::new(report)));
                held.push_back(0);
            }
            if batch.is_empty() {
                break;
            }
            for (name, text) in batch {
                let hash = content_hash(&text);
                let slot = slots.reserve();
                held.push_back(text.len());
                match prev_by_name.get(name.as_str()) {
                    // Only completed statuses are copied forward: a prior
                    // `timeout`/`error` records a failed *attempt*, so the
                    // file is re-attempted even though its text is
                    // unchanged (see [`FileStatus::resumable`]). Findings,
                    // per-rule outcomes, and the kill stage ride along —
                    // an unchanged file still has the same diagnostics —
                    // but no counter bumps: it is not a new attempt.
                    Some(prev) if prev.hash == hash && prev.status.resumable() => {
                        resumed += 1;
                        let report = FileReport {
                            seconds: 0.0,
                            ..(*prev).clone()
                        };
                        let outcome = FileOutcome {
                            resumed: true,
                            ..FileOutcome::new(report)
                        };
                        slots.set(slot, (text.into(), outcome));
                    }
                    _ => queue.push(Task {
                        slot,
                        name,
                        text,
                        hash,
                    }),
                }
            }
        }
        queue.close();
        // Hand each outcome over as soon as it and every earlier one are
        // done, not once the last worker finishes.
        while !held.is_empty() {
            let done = slots.drain_until(held.len() - 1);
            held.drain(..done.len());
            emit(done, &mut files);
        }
    });

    // Workers are gone: every span for this run is recorded, so a traced
    // run can embed an exact aggregate alongside the pool's counters.
    let metrics = cocci_trace::is_enabled()
        .then(|| RunMetrics::from_trace(&cocci_trace::collect(), Some(queue.stats())));
    if let Some(block) = explain_block.as_mut() {
        block.finish();
    }
    Ok(ApplyReport {
        patch: String::new(),
        patch_hash: set.hash,
        threads: opts.threads,
        prefilter: !opts.no_prefilter,
        resumed,
        total_seconds: t0.elapsed().as_secs_f64(),
        metrics,
        lints: Vec::new(),
        explain: explain_block,
        files,
    })
}

/// How many of the newest `held` text sizes fit in one batch.
fn batch_tail(held: &VecDeque<usize>, opts: &BatchOptions) -> usize {
    let (mut files, mut bytes) = (0, 0);
    for &size in held.iter().rev() {
        if opts.full(files, bytes, size) {
            break;
        }
        files += 1;
        bytes += size;
    }
    files
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::corpus::MemorySource;
    use crate::explain::ExplainConfig;
    use crate::findings::Finding;
    use crate::orchestrate::Patcher;

    /// Run `set` over in-memory `files`, collecting every outcome.
    pub(crate) fn collect(
        set: &CompiledRuleSet,
        files: &[(String, String)],
        opts: &CorpusOptions,
    ) -> Vec<FileOutcome> {
        let mut outcomes = Vec::new();
        let source = &mut MemorySource::new(files.iter().cloned());
        scan_corpus(set, source, opts, None, |_, _, o| outcomes.push(o.clone())).unwrap();
        outcomes
    }

    /// Every rule on every file (no prefilter), `threads` workers.
    fn unfiltered(threads: usize) -> CorpusOptions {
        CorpusOptions {
            threads,
            no_prefilter: true,
            ..Default::default()
        }
    }

    fn src(id: &str, text: &str) -> (String, String, String) {
        (format!("{id}.cocci"), id.to_string(), text.to_string())
    }

    fn report_rule(callee: &str) -> String {
        format!("@scan@\nexpression e;\nposition p;\n@@\n{callee}(e)@p;\n")
    }

    #[test]
    fn a_rule_is_not_charged_the_parse() {
        // Parsing 2,000 functions dominates the file; neither rule
        // matches, and the first one to run is the one that parses.
        let mut text = String::from("// alpha(0); beta(0);\n");
        for i in 0..2000 {
            text.push_str(&format!("void f{i}(int a) {{ a = a + {i}; }}\n"));
        }
        let set = CompiledRuleSet::from_sources(&[
            src("r-alpha", &report_rule("alpha")),
            src("r-beta", &report_rule("beta")),
        ])
        .unwrap();
        let t0 = std::time::Instant::now();
        cocci_cast::parse_translation_unit(
            &text,
            cocci_cast::ParseOptions::c(),
            &cocci_cast::NoMeta,
        )
        .unwrap();
        let parse = t0.elapsed().as_secs_f64();
        let outcome = &collect(&set, &[("p.c".into(), text)], &unfiltered(1))[0];
        assert_eq!(outcome.parses, 1);
        let rules = &outcome.report.rules;
        assert_eq!(rules.len(), 2);
        assert!(rules.iter().all(|r| r.status == FileStatus::Unmatched));
        assert!(
            rules[0].seconds < parse / 2.0,
            "first rule {} s, parse {parse} s",
            rules[0].seconds
        );
    }

    fn set3() -> CompiledRuleSet {
        CompiledRuleSet::from_sources(&[
            src("r-alpha", &report_rule("alpha")),
            src("r-beta", &report_rule("beta")),
            src("r-gamma", &report_rule("gamma")),
        ])
        .unwrap()
    }

    fn key(f: &Finding) -> (String, u32, u32, String) {
        (f.path.clone(), f.line, f.col, f.rule.clone())
    }

    #[test]
    fn scan_agrees_with_individual_runs() {
        let set = set3();
        let files: Vec<(String, String)> = vec![
            (
                "ab.c".into(),
                "void f(void) {\n    alpha(1);\n    beta(2);\n}\n".into(),
            ),
            ("g.c".into(), "void g(void) {\n    gamma(3);\n}\n".into()),
            ("none.c".into(), "void h(void) {\n    delta(4);\n}\n".into()),
        ];
        let outcomes = collect(&set, &files, &unfiltered(0));

        // Baseline: each rule applied individually to each file.
        let mut individual: Vec<(String, u32, u32, String)> = Vec::new();
        for rule in &set.rules {
            let mut p = Patcher::from_compiled(Arc::clone(&rule.compiled));
            for (name, text) in &files {
                p.apply(name, text).unwrap();
                for f in std::mem::take(&mut p.last_stats.findings) {
                    individual.push((f.path, f.line, f.col, rule.meta.id.clone()));
                }
            }
        }
        let mut merged: Vec<_> = outcomes
            .iter()
            .flat_map(|o| o.report.findings.iter().map(key))
            .collect();
        merged.sort();
        individual.sort();
        assert_eq!(merged, individual, "scan == N individual runs");
        // Finding attribution: the scan-rule id, not the SMPL rule name.
        assert!(merged.iter().all(|k| k.3.starts_with("r-")));
    }

    #[test]
    fn one_parse_serves_every_rule() {
        let rules: Vec<_> = (0..10)
            .map(|i| src(&format!("r{i:02}"), &report_rule("shared_api")))
            .collect();
        let set = CompiledRuleSet::from_sources(&rules).unwrap();
        let files = vec![(
            "f.c".to_string(),
            "void f(void) {\n    shared_api(1);\n}\n".to_string(),
        )];
        // The same holds with parallel workers in the pool.
        for threads in [0, 4] {
            let outcomes = collect(&set, &files, &unfiltered(threads));
            assert_eq!(outcomes[0].report.rules.len(), 10, "all rules survive");
            assert_eq!(outcomes[0].parses, 1, "ten rules, one parse");
            assert_eq!(outcomes[0].report.findings.len(), 10);
        }
    }

    #[test]
    fn merged_prefilter_prunes_per_file() {
        let set = set3();
        let files = vec![
            (
                "a.c".to_string(),
                "void f(void) { alpha(1); }\n".to_string(),
            ),
            ("n.c".to_string(), "void f(void) { other(); }\n".to_string()),
        ];
        let outcomes = collect(&set, &files, &CorpusOptions::default());
        let (a, n) = (&outcomes[0].report, &outcomes[1].report);
        assert_eq!(a.rules_pruned, 2);
        assert_eq!(a.rules.len(), 1);
        assert_eq!(a.rules[0].id, "r-alpha");
        assert_eq!(a.status, FileStatus::Matched);
        // No survivors: the file is pruned without being parsed.
        assert_eq!(n.rules_pruned, 3);
        assert_eq!(n.status, FileStatus::Pruned);
        assert_eq!(outcomes[1].parses, 0);
    }

    #[test]
    fn suppression_is_per_rule() {
        let set = set3();
        let files = vec![(
            "s.c".to_string(),
            "void f(void) {\n    alpha(1); // spatch-ignore r-alpha\n    beta(2);\n}\n".to_string(),
        )];
        let outcomes = collect(&set, &files, &unfiltered(0));
        let report = &outcomes[0].report;
        let by_id = |id: &str| report.rules.iter().find(|r| r.id == id).unwrap();
        assert_eq!(by_id("r-alpha").suppressed, 1);
        assert_eq!(by_id("r-alpha").findings, 0);
        assert_eq!(by_id("r-alpha").matches, 1, "suppressed, not unmatched");
        assert_eq!(by_id("r-alpha").kill_stage, Some(KillStage::Suppressed));
        assert_eq!(by_id("r-beta").findings, 1);
        assert_eq!(report.suppressed, 1);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "r-beta");
    }

    #[test]
    fn explain_rule_filter_names_the_rule_id() {
        // A rules-directory rule's attempts carry its id from the start,
        // so a filter naming the id keeps their detail, and the inner
        // SMPL rule name matches nothing.
        let set = CompiledRuleSet::from_sources(&[src(
            "r-alpha",
            "@scan@\nexpression e;\n@@\nalpha(e);\n...\nomega(e);\n",
        )])
        .unwrap();
        let files = vec![(
            "g.c".to_string(),
            "void f(int c) { alpha(1); if (c) return; omega(1); }\n".to_string(),
        )];
        let died = "1 of 1 anchor attempt(s) died in gap walks";
        for (filter, detail) in [
            ("*:r-alpha", Some(died)),
            ("", Some(died)),
            ("*:scan", None),
        ] {
            let opts = CorpusOptions {
                explain: Some(Arc::new(ExplainConfig::parse(filter))),
                ..unfiltered(1)
            };
            let outcomes = collect(&set, &files, &opts);
            let a = &outcomes[0].attempts[0];
            assert_eq!((a.rule.as_str(), a.stage), ("r-alpha", KillStage::GapWalk));
            assert_eq!(a.detail.as_deref(), detail, "--explain={filter}");
        }
    }

    #[test]
    fn transform_rules_report_would_change_without_writing() {
        let set = CompiledRuleSet::from_sources(&[
            src("fix-alpha", "@@ @@\n- alpha(1);\n+ alpha2(1);\n"),
            src("scan-beta", &report_rule("beta")),
        ])
        .unwrap();
        let files = vec![(
            "m.c".to_string(),
            "void f(void) {\n    alpha(1);\n    beta(2);\n}\n".to_string(),
        )];
        let outcomes = collect(&set, &files, &unfiltered(0));
        let report = &outcomes[0].report;
        let fix = report.rules.iter().find(|r| r.id == "fix-alpha").unwrap();
        assert_eq!(fix.status, FileStatus::Changed);
        assert!(fix.matches > 0);
        assert_eq!(fix.findings, 0, "transform rules produce no findings");
        let scan = report.rules.iter().find(|r| r.id == "scan-beta").unwrap();
        assert_eq!(scan.status, FileStatus::Matched);
        assert_eq!(report.status, FileStatus::Changed);
        assert!(outcomes[0].output.is_none(), "rules with ids never write");
    }

    #[test]
    fn unparsable_file_errors_once_per_rule_one_lex() {
        let set = set3();
        let files = vec![(
            "bad.c".to_string(),
            "alpha beta gamma void broken( {\n".to_string(),
        )];
        let outcomes = collect(&set, &files, &unfiltered(0));
        let report = &outcomes[0].report;
        assert_eq!(report.status, FileStatus::Error);
        assert_eq!(report.rules.len(), 3);
        assert!(report.rules.iter().all(|r| r.status == FileStatus::Error));
        assert_eq!(outcomes[0].parses, 1, "the parse failure is cached");
        let err = report.error.as_deref().unwrap();
        assert!(err.starts_with("rule r-alpha:"), "{err}");
    }

    #[test]
    fn zero_budget_times_rules_out() {
        let set = set3();
        let files = vec![(
            "f.c".to_string(),
            "void f(void) { alpha(1); }\n".to_string(),
        )];
        let opts = CorpusOptions {
            timeout_ms: Some(0),
            ..unfiltered(0)
        };
        let report = &collect(&set, &files, &opts)[0].report;
        assert_eq!(report.status, FileStatus::Timeout);
        assert!(report.rules.iter().all(|r| r.status == FileStatus::Timeout));
        // Quarantined attempts still record their elapsed time, so slow
        // files are visible to `--stats` whatever their status.
        assert!(
            report.rules.iter().all(|r| r.seconds > 0.0),
            "{:?}",
            report.rules
        );
        assert!(report.seconds > 0.0);
    }

    #[test]
    fn error_outcomes_record_seconds() {
        let set = set3();
        let files = vec![(
            "bad.c".to_string(),
            "alpha beta gamma void broken( {\n".to_string(),
        )];
        let outcomes = collect(&set, &files, &unfiltered(0));
        assert_eq!(outcomes[0].report.status, FileStatus::Error);
        assert!(outcomes[0].report.rules.iter().all(|r| r.seconds > 0.0));
        // And the per-rule seconds survive the report JSON round trip.
        let report = ApplyReport {
            patch: String::new(),
            patch_hash: 0,
            threads: 1,
            prefilter: true,
            resumed: 0,
            total_seconds: 0.0,
            metrics: None,
            lints: Vec::new(),
            explain: None,
            files: outcomes.iter().map(|o| o.report.clone()).collect(),
        };
        let back = ApplyReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.files[0].rules, report.files[0].rules);
    }

    #[test]
    fn outcome_order_is_deterministic_across_thread_counts() {
        let set = set3();
        let files: Vec<(String, String)> = (0..6)
            .map(|i| {
                (
                    format!("f{i}.c"),
                    "void f(void) {\n    alpha(1);\n    beta(2);\n    gamma(3);\n}\n".to_string(),
                )
            })
            .collect();
        type FileDigest = (String, Vec<String>, Vec<(String, u32, u32, String)>);
        let runs: Vec<Vec<FileDigest>> = [1, 4, 8]
            .iter()
            .map(|&t| {
                collect(&set, &files, &unfiltered(t))
                    .iter()
                    .map(|o| {
                        (
                            o.report.name.clone(),
                            o.report.rules.iter().map(|r| r.id.clone()).collect(),
                            o.report.findings.iter().map(key).collect(),
                        )
                    })
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
        // Rule order within a file is ascending by id, not completion.
        assert_eq!(runs[0][0].1, ["r-alpha", "r-beta", "r-gamma"]);
    }

    #[test]
    fn scan_corpus_resumes_and_carries_rule_outcomes() {
        let set = set3();
        let hit = (
            "hit.c".to_string(),
            "void f(void) {\n    alpha(1);\n}\n".to_string(),
        );
        let first = scan_corpus(
            &set,
            &mut MemorySource::new(vec![hit.clone()]),
            &CorpusOptions::default(),
            None,
            |_, _, _| {},
        )
        .unwrap();
        assert_eq!(first.patch_hash, set.hash);
        assert_eq!(first.files[0].status, FileStatus::Matched);
        assert!(!first.files[0].rules.is_empty());

        // Round-trip through JSON (the CLI resume path) and re-scan.
        let prior = ApplyReport::from_json(&first.to_json()).unwrap();
        let mut sunk = Vec::new();
        let second = scan_corpus(
            &set,
            &mut MemorySource::new(vec![hit]),
            &CorpusOptions::default(),
            Some(&prior),
            |_, _, o| sunk.push(o.resumed),
        )
        .unwrap();
        assert_eq!(second.resumed, 1);
        assert_eq!(sunk, [true], "unchanged file resumed, not run");
        assert_eq!(second.files[0].rules, prior.files[0].rules);
        assert_eq!(second.files[0].findings, prior.files[0].findings);
    }

    /// Per-rule counterpart of the corpus determinism test: the
    /// (file × rule) unit pool must yield the same sink stream, report
    /// and per-rule rows whatever the thread count and batch size.
    #[test]
    fn scan_corpus_identical_across_threads_and_batch_sizes() {
        let set = set3();
        let files: Vec<(String, String)> = (0..9)
            .map(|i| {
                let body = match i % 3 {
                    0 => "void f(void) {\n    alpha(1);\n    beta(2);\n}\n",
                    1 => "void f(void) {\n    gamma(3);\n}\n",
                    _ => "void f(void) {\n    delta(4);\n}\n",
                };
                (format!("s{i}.c"), body.to_string())
            })
            .collect();
        type Digest = (Vec<String>, Vec<(String, String, usize, Vec<RuleOutcome>)>);
        let mut runs: Vec<Digest> = Vec::new();
        for threads in [1, 2, 4] {
            for max_files in [1, 4, 100] {
                let mut sunk = Vec::new();
                let report = scan_corpus(
                    &set,
                    &mut MemorySource::new(files.clone()),
                    &CorpusOptions {
                        threads,
                        batch: crate::corpus::BatchOptions {
                            max_files,
                            max_bytes: usize::MAX,
                        },
                        ..Default::default()
                    },
                    None,
                    |name, _, o| {
                        sunk.push(format!("{name}:{}:{}", o.report.status, o.report.matches))
                    },
                )
                .unwrap();
                let digest = report
                    .files
                    .iter()
                    .map(|f| {
                        // Wall-clock seconds are the one field allowed to vary.
                        let rules = f
                            .rules
                            .iter()
                            .map(|r| RuleOutcome {
                                seconds: 0.0,
                                ..r.clone()
                            })
                            .collect();
                        (f.name.clone(), f.status.to_string(), f.matches, rules)
                    })
                    .collect();
                runs.push((sunk, digest));
            }
        }
        for r in &runs[1..] {
            assert_eq!(r.0, runs[0].0, "sink stream differs");
            assert_eq!(r.1, runs[0].1, "report sequence differs");
        }
        let expect: Vec<String> = (0..9).map(|i| format!("s{i}.c")).collect();
        let names: Vec<String> = runs[0].1.iter().map(|d| d.0.clone()).collect();
        assert_eq!(names, expect, "report keeps walk order");
    }

    /// A source that records, at each read, how many files it has handed
    /// out beyond those the sink has seen.
    struct Counting<'a> {
        inner: MemorySource,
        read: usize,
        sunk: &'a std::cell::Cell<usize>,
        ahead: Vec<usize>,
    }

    impl crate::corpus::FileSource for Counting<'_> {
        fn next_batch(&mut self, opts: &crate::corpus::BatchOptions) -> Vec<(String, String)> {
            self.ahead.push(self.read - self.sunk.get());
            let batch = self.inner.next_batch(opts);
            self.read += batch.len();
            batch
        }
    }

    #[test]
    fn walker_stays_one_batch_ahead_of_a_slow_sink() {
        let set = CompiledRuleSet::from_sources(&[src("r", &report_rule("old_api"))]).unwrap();
        let text: String = (0..100)
            .map(|i| format!("void f{i}(int x) {{\n    old_api(x);\n}}\n"))
            .collect();
        let files = (0..60).map(|i| (format!("f{i}.c"), text.clone()));
        let sunk = std::cell::Cell::new(0);
        let mut source = Counting {
            inner: MemorySource::new(files),
            read: 0,
            sunk: &sunk,
            ahead: Vec::new(),
        };
        let batch = crate::corpus::BatchOptions {
            max_files: 4,
            max_bytes: usize::MAX,
        };
        let opts = CorpusOptions {
            threads: 1,
            batch,
            ..Default::default()
        };
        scan_corpus(&set, &mut source, &opts, None, |_, _, _| {
            sunk.set(sunk.get() + 1)
        })
        .unwrap();
        assert_eq!(sunk.get(), 60);
        let most = source.ahead.iter().copied().max().unwrap();
        assert!(
            most <= batch.max_files,
            "walker ran {most} files ahead of the sink"
        );
    }

    #[test]
    fn rule_outcome_json_round_trips() {
        let r = RuleOutcome {
            id: "x\"y".into(),
            status: FileStatus::Matched,
            matches: 3,
            findings: 2,
            suppressed: 1,
            seconds: 1.25e-3,
            kill_stage: Some(KillStage::Completed),
        };
        let read = |r: &RuleOutcome| {
            let mut text = String::new();
            r.write_json(&mut text);
            RuleOutcome::from_json(&crate::report::json::parse(&text).unwrap()).unwrap()
        };
        assert_eq!(read(&r), r);
        // Entries without the stage (older reports) parse to None.
        let r2 = RuleOutcome {
            kill_stage: None,
            ..r.clone()
        };
        assert_eq!(read(&r2), r2);
    }
}
