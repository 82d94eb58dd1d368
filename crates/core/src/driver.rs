//! The per-file pipeline: every corpus run, apply or scan, is a run of
//! a [`CompiledRuleSet`] over files, and `run_file` does all the work
//! for one file.
//!
//! One pass of the set's merged prefilter decides which rules may match
//! the text at all; the survivors share one [`FileContext`] (parse tree,
//! CFG cache, line table, suppression index — built once) and each runs
//! through [`Patcher::apply_ctx`] with matcher panics caught. A
//! rules-directory rule's patcher labels its findings and attempts with
//! the rule's id as it makes them, so the `--explain` filter and
//! `// spatch-ignore <id>` both match on the id. Suppressed findings
//! are then dropped, and every (file × rule) attempt records its kill
//! stage. The context dies when the function returns, so a corpus run
//! holds at most one parse tree per worker.
//!
//! The streaming driver around it is [`scan_corpus`](crate::scan_corpus);
//! [`apply_to_files`] is its in-memory shorthand for one patch.

use crate::compile::CompiledPatch;
use crate::context::FileContext;
use crate::corpus::{CorpusOptions, MemorySource};
use crate::explain::{self, ExplainConfig, KillStage, RuleAttempt};
use crate::findings::Finding;
use crate::orchestrate::{ApplyError, Deadline, Patcher};
use crate::report::{FileReport, FileStatus};
use crate::ruleset::{CompiledRuleSet, ScanRule};
use crate::scan::RuleOutcome;
use cocci_smpl::{Rule, SemanticPatch};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a corpus run hands its sink for one file: the outcome of the
/// file's rules, or of a file that did not run (resumed, or unreadable).
#[derive(Debug, Clone)]
pub struct FileOutcome {
    /// The file's report entry: status, counts, kept findings, per-rule
    /// rows (rules with ids only), kill stage. The report keeps it as the
    /// sink leaves it.
    pub report: FileReport,
    /// Patched text when an `--sp-file` patch changed the file. Rules
    /// loaded with ids never write; a change shows as their `changed`
    /// per-rule row.
    pub output: Option<String>,
    /// Every (file × rule) attempt with the stage that ended it: pruned
    /// rules first, then the survivors', in rule order.
    pub attempts: Vec<RuleAttempt>,
    /// Times the file's original text was parsed — the "N rules, one
    /// parse" guarantee says this stays ≤ 1 however many rules survived.
    /// Texts a patch rewrote have contexts of their own and count in
    /// neither this nor `cfg_builds`.
    pub parses: usize,
    /// Per-function CFGs of the original text built (shared across
    /// flow-sensitive rules).
    pub cfg_builds: usize,
    /// The file was skipped by `--resume`: `report` is its previous row
    /// with zero seconds, and nothing ran.
    pub resumed: bool,
}

impl FileOutcome {
    /// The outcome of a file that ran nothing: `report` alone.
    pub(crate) fn new(report: FileReport) -> FileOutcome {
        FileOutcome {
            report,
            output: None,
            attempts: Vec::new(),
            parses: 0,
            cfg_builds: 0,
            resumed: false,
        }
    }
}

/// Apply `patch` to every `(name, text)` pair using `threads` worker
/// threads (0 = number of available CPUs), without the prefilter.
/// Outcomes are returned in input order. A patch compile error is
/// returned once, at run level.
pub fn apply_to_files(
    patch: &SemanticPatch,
    files: &[(String, String)],
    threads: usize,
) -> Result<Vec<FileOutcome>, ApplyError> {
    let set = CompiledRuleSet::from_patch(CompiledPatch::compile(patch)?, 0);
    let opts = CorpusOptions {
        threads,
        no_prefilter: true,
        ..Default::default()
    };
    let mut outcomes = Vec::with_capacity(files.len());
    crate::scan_corpus(
        &set,
        &mut MemorySource::new(files.iter().cloned()),
        &opts,
        None,
        |_, _, o| outcomes.push(o.clone()),
    )?;
    Ok(outcomes)
}

thread_local! {
    /// Set while this thread runs inside [`catch_matcher_panics`]: the
    /// panic hook stays silent for it (the payload is captured and
    /// surfaced as the file's error entry), so one pathological file
    /// does not spray "thread panicked" noise over a corpus run.
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Chain a once-installed hook in front of the default one that
/// suppresses output only for threads currently inside the catch.
fn install_quiet_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

/// Run `f`, converting a panic into an ordinary [`ApplyError`] so one
/// pathological file maps to a `failed` report entry instead of
/// poisoning the whole corpus run (the worker thread — and with it the
/// scoped-thread driver — would otherwise die with it).
pub(crate) fn catch_matcher_panics<T>(
    name: &str,
    f: impl FnOnce() -> Result<T, ApplyError>,
) -> Result<T, ApplyError> {
    install_quiet_panic_hook();
    QUIET_PANICS.with(|q| q.set(true));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    QUIET_PANICS.with(|q| q.set(false));
    match caught {
        Ok(result) => result,
        Err(payload) => {
            cocci_trace::count(cocci_trace::Counter::Panics, 1);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            Err(ApplyError::new(format!("{name}: matcher panicked: {msg}")))
        }
    }
}

/// The `Prefilter` attempts of a rule the sieve pruned: one under a
/// rule's id, or one per transform rule of an `--sp-file` patch with
/// the absent required atoms as the `--explain` detail.
fn prefilter_attempts(
    rule: &ScanRule,
    name: &str,
    text: &str,
    explain: Option<&ExplainConfig>,
) -> Vec<RuleAttempt> {
    let wants = |label: &str| explain.is_some_and(|cfg| cfg.matches(name, label));
    if rule.has_id {
        let id = &rule.meta.id;
        return vec![RuleAttempt {
            rule: id.clone(),
            stage: KillStage::Prefilter,
            detail: wants(id)
                .then(|| "merged prefilter: no required atom of this rule occurs".to_string()),
        }];
    }
    let compiled = &rule.compiled;
    let mut attempts = Vec::new();
    for (ri, r) in compiled.patch.rules.iter().enumerate() {
        let Rule::Transform(t) = r else { continue };
        let label = t.name.as_deref().unwrap_or("<anonymous>");
        let detail = wants(label).then(|| match compiled.rule_atoms(ri) {
            Some(atoms) => {
                let absent: Vec<&str> = atoms
                    .iter()
                    .filter(|a| !text.contains(a.as_str()))
                    .map(String::as_str)
                    .collect();
                format!("missing required atom(s): {}", absent.join(", "))
            }
            None => "prefilter rejected the file".to_string(),
        });
        attempts.push(RuleAttempt {
            rule: label.to_string(),
            stage: KillStage::Prefilter,
            detail,
        });
    }
    attempts
}

/// Store the funnel counters (and `--explain` instant events) for
/// attempts of one file — the single record point per attempt, so the
/// `--stats` funnel, the report metrics, and the per-outcome stages
/// reconcile exactly.
fn record_attempts(name: &str, attempts: &[RuleAttempt]) {
    for a in attempts {
        explain::record_attempt(a.stage, name, &a.rule, a.detail.as_deref());
    }
}

/// Finding counts grouped by rule label (small lists; no hashing).
fn count_by_rule(findings: &[Finding]) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = Vec::new();
    for f in findings {
        match out.iter_mut().find(|(r, _)| *r == f.rule) {
            Some((_, n)) => *n += 1,
            None => out.push((f.rule.clone(), 1)),
        }
    }
    out
}

/// Drop suppressed findings, and upgrade each completed attempt whose
/// label's findings all vanished to `Suppressed`. Returns the kept
/// findings and the suppressed count.
fn suppress(
    ctx: &mut FileContext,
    patcher: &Patcher,
    findings: Vec<Finding>,
    attempts: &mut [RuleAttempt],
) -> (Vec<Finding>, usize) {
    if findings.is_empty() {
        return (findings, 0);
    }
    let pre = count_by_rule(&findings);
    let (kept, suppressed) = ctx.suppressions().filter(findings);
    cocci_trace::count(cocci_trace::Counter::Suppressions, suppressed as u64);
    if suppressed > 0 {
        let post = count_by_rule(&kept);
        let count = |list: &[(String, usize)], rule: &str| {
            list.iter().find(|(r, _)| r == rule).map_or(0, |(_, n)| *n)
        };
        for a in attempts {
            let before = count(&pre, &a.rule);
            if a.stage == KillStage::Completed && before > 0 && count(&post, &a.rule) == 0 {
                a.stage = KillStage::Suppressed;
                if a.detail.is_some() || patcher.explain_wants(ctx.name(), &a.rule) {
                    a.detail = Some(format!("all {before} finding(s) suppressed inline"));
                }
            }
        }
    }
    (kept, suppressed)
}

/// Run every rule of `set` over one file (see the module docs). `hash`
/// is the text's [`content_hash`](crate::content_hash), computed once by
/// the caller.
pub(crate) fn run_file(
    set: &CompiledRuleSet,
    name: String,
    text: &Arc<str>,
    hash: u64,
    opts: &CorpusOptions,
) -> FileOutcome {
    let t0 = Instant::now();
    let surviving: Vec<usize> = if opts.no_prefilter {
        (0..set.len()).collect()
    } else {
        let _span = cocci_trace::span(cocci_trace::Phase::Prefilter);
        set.surviving_rules(text)
    };
    let mut out = FileOutcome::new(FileReport::new(name, FileStatus::Pruned, hash));
    let explain = opts.explain.as_deref();
    let mut alive = surviving.iter().copied().peekable();
    for (ri, rule) in set.rules.iter().enumerate() {
        if alive.next_if_eq(&ri).is_none() {
            let pruned = prefilter_attempts(rule, &out.report.name, text, explain);
            record_attempts(&out.report.name, &pruned);
            out.attempts.extend(pruned);
            out.report.rules_pruned += usize::from(rule.has_id);
        }
    }
    if surviving.is_empty() {
        cocci_trace::count(cocci_trace::Counter::FilesPruned, 1);
    } else {
        let mut ctx = FileContext::new(out.report.name.clone(), Arc::clone(text));
        let deadline = opts.timeout_ms.map(|ms| Deadline {
            start: t0,
            budget: Duration::from_millis(ms),
        });
        for &ri in &surviving {
            run_rule(&set.rules[ri], &mut ctx, opts, deadline, &mut out);
        }
        out.parses = ctx.parses();
        out.cfg_builds = ctx.cfg_builds();
    }
    out.report.kill_stage = out.attempts.iter().map(|a| a.stage).max();
    out.report.seconds = t0.elapsed().as_secs_f64();
    out
}

/// Run one surviving rule through the shared context and fold its
/// attributed results into `out`. `deadline` is the file's, shared by
/// all its rules.
fn run_rule(
    rule: &ScanRule,
    ctx: &mut FileContext,
    opts: &CorpusOptions,
    deadline: Option<Deadline>,
    out: &mut FileOutcome,
) {
    // The rule's own time: what the context builds for every rule (the
    // parse above all) is charged to none.
    let t0 = Instant::now();
    let shared0 = ctx.shared_time();
    let mut patcher = Patcher::from_compiled(Arc::clone(&rule.compiled));
    patcher.deadline = deadline;
    patcher.explain = opts.explain.clone();
    if rule.has_id {
        // The id keys the merged report, the explain filter and the
        // suppression markers, and the message override wins.
        patcher.id = Some(rule.meta.id.clone());
        patcher.message = rule.meta.message.clone();
    }
    let res = catch_matcher_panics(&out.report.name, || patcher.apply_ctx(ctx));
    // Timeout and parse failures store their attempts before erroring;
    // other errors leave none and stay out of the funnel.
    let mut attempts = std::mem::take(&mut patcher.last_stats.attempts);
    let findings = std::mem::take(&mut patcher.last_stats.findings);
    let (status, matches, kept, suppressed) = match res {
        Ok(output) => {
            let matches: usize = patcher.last_stats.matches_per_rule.iter().sum();
            let (kept, suppressed) = suppress(ctx, &patcher, findings, &mut attempts);
            out.report.witnesses += patcher.last_stats.witnesses;
            let status = if output.is_some() {
                FileStatus::Changed
            } else if matches > 0 {
                FileStatus::Matched
            } else {
                FileStatus::Unmatched
            };
            if !rule.has_id {
                out.output = output;
            }
            (status, matches, kept, suppressed)
        }
        Err(e) => {
            if out.report.error.is_none() {
                out.report.error = Some(match rule.has_id {
                    true => format!("rule {}: {e}", rule.meta.id),
                    false => e.message,
                });
            }
            let status = match e.timed_out {
                true => FileStatus::Timeout,
                false => FileStatus::Error,
            };
            (status, 0, Vec::new(), 0)
        }
    };
    record_attempts(ctx.name(), &attempts);
    if rule.has_id {
        let shared = ctx.shared_time() - shared0;
        out.report.rules.push(RuleOutcome {
            id: rule.meta.id.clone(),
            status,
            matches,
            findings: kept.len(),
            suppressed,
            seconds: t0.elapsed().saturating_sub(shared).as_secs_f64(),
            kill_stage: attempts.iter().map(|a| a.stage).max(),
        });
    }
    out.report.status = out.report.status.max(status);
    out.report.matches += matches;
    out.report.suppressed += suppressed;
    out.report.findings.extend(kept);
    out.attempts.extend(attempts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::content_hash;
    use cocci_smpl::parse_semantic_patch;

    /// Run `patch` over `files` through the corpus driver.
    fn run(patch: &str, files: &[(String, String)], opts: CorpusOptions) -> Vec<FileOutcome> {
        let patch = parse_semantic_patch(patch).unwrap();
        let set = CompiledRuleSet::from_patch(CompiledPatch::compile(&patch).unwrap(), 0);
        crate::scan::tests::collect(&set, files, &opts)
    }

    #[test]
    fn parallel_driver_patches_all_files() {
        let patch = parse_semantic_patch("@@ @@\n- old_api(42);\n+ new_api(42);\n").unwrap();
        let files: Vec<(String, String)> = (0..32)
            .map(|i| {
                (
                    format!("f{i}.c"),
                    "void f(void) { old_api(42); done(); }\n".to_string(),
                )
            })
            .collect();
        let outcomes = apply_to_files(&patch, &files, 4).unwrap();
        assert_eq!(outcomes.len(), 32);
        for o in &outcomes {
            assert!(o.report.error.is_none(), "{:?}", o.report.error);
            let out = o.output.as_ref().expect("patched");
            assert!(out.contains("new_api(42);"));
            assert!(!out.contains("old_api"));
        }
    }

    #[test]
    fn results_keep_input_order() {
        let patch = parse_semantic_patch("@@ @@\n- a();\n+ b();\n").unwrap();
        let files: Vec<(String, String)> = (0..8)
            .map(|i| (format!("f{i}.c"), "void g(void) { a(); }\n".to_string()))
            .collect();
        let outcomes = apply_to_files(&patch, &files, 3).unwrap();
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.report.name, format!("f{i}.c"));
        }
    }

    #[test]
    fn unmatched_files_return_none() {
        let patch = parse_semantic_patch("@@ @@\n- nothing_here();\n+ x();\n").unwrap();
        let files = vec![("f.c".to_string(), "void g(void) { other(); }\n".to_string())];
        let outcomes = apply_to_files(&patch, &files, 1).unwrap();
        assert!(outcomes[0].output.is_none());
        assert!(outcomes[0].report.error.is_none());
        assert_eq!(outcomes[0].report.status, FileStatus::Unmatched);
    }

    #[test]
    fn compile_error_surfaces_once_at_run_level() {
        let patch =
            parse_semantic_patch("@@\nidentifier f =~ \"bad(regex\";\n@@\n- f();\n+ g();\n")
                .unwrap();
        let files: Vec<(String, String)> = (0..16)
            .map(|i| (format!("f{i}.c"), "void f(void) {}\n".to_string()))
            .collect();
        let err = apply_to_files(&patch, &files, 4).unwrap_err();
        assert!(err.to_string().contains("regex"), "{err}");
    }

    #[test]
    fn prefilter_prunes_without_parsing() {
        let patch = "@@ @@\n- old_api(1);\n+ new_api(1);\n";
        let files = vec![
            ("hit.c".to_string(), "void f(void) { old_api(1); }\n".into()),
            ("miss.c".to_string(), "void f(void) { other(); }\n".into()),
            // Would be a parse error — the prefilter skips it before the
            // parser ever sees it.
            ("broken.c".to_string(), "void f( {".into()),
        ];
        let opts = |no_prefilter| CorpusOptions {
            threads: 2,
            no_prefilter,
            ..Default::default()
        };
        let outcomes = run(patch, &files, opts(false));
        assert!(outcomes[0].output.is_some());
        assert_eq!(outcomes[0].report.status, FileStatus::Changed);
        for o in &outcomes[1..] {
            assert_eq!(o.report.status, FileStatus::Pruned);
            assert!(o.report.error.is_none());
            assert_eq!(o.parses, 0);
        }
        // Same batch without the prefilter: the broken file errors.
        let outcomes = run(patch, &files, opts(true));
        assert_eq!(outcomes[1].report.status, FileStatus::Unmatched);
        assert!(outcomes[2].report.error.is_some());
    }

    #[test]
    fn zero_time_budget_times_every_file_out() {
        let patch = "@@ @@\n- a();\n+ b();\n";
        let files = vec![("f.c".to_string(), "void g(void) { a(); }\n".to_string())];
        let opts = |timeout_ms| CorpusOptions {
            threads: 1,
            no_prefilter: true,
            timeout_ms: Some(timeout_ms),
            ..Default::default()
        };
        let outcomes = run(patch, &files, opts(0));
        assert_eq!(outcomes[0].report.status, FileStatus::Timeout);
        assert!(outcomes[0].output.is_none());
        let err = outcomes[0].report.error.as_deref().unwrap();
        assert!(err.contains("budget"), "{err}");
        // A generous budget does not trip.
        let outcomes = run(patch, &files, opts(60_000));
        assert_eq!(outcomes[0].report.status, FileStatus::Changed);
        assert!(outcomes[0].output.is_some());
    }

    #[test]
    fn time_budget_spans_every_rule_of_a_file() {
        // One budget per file: the first rule's parse alone spends 1 ms,
        // so the second rule times out at its boundary.
        let rule = |id: &str, callee: &str| {
            let text = format!("@scan@\nexpression e;\nposition p;\n@@\n{callee}(e)@p;\n");
            (format!("{id}.cocci"), id.to_string(), text)
        };
        let set =
            CompiledRuleSet::from_sources(&[rule("r-alpha", "alpha"), rule("r-beta", "beta")])
                .unwrap();
        let text: String = (0..2_000)
            .map(|i| format!("void f{i}(int x) {{\n    alpha(x + {i});\n    beta(x * {i});\n}}\n"))
            .collect();
        let opts = CorpusOptions {
            threads: 1,
            timeout_ms: Some(1),
            ..Default::default()
        };
        let outcomes = crate::scan::tests::collect(&set, &[("big.c".to_string(), text)], &opts);
        let r = &outcomes[0].report;
        assert_eq!(r.rules.len(), 2, "both rules survive the prefilter");
        assert_eq!(r.rules[1].status, FileStatus::Timeout, "{:?}", r.rules);
        assert_eq!(r.status, FileStatus::Timeout);
        let err = r.error.as_deref().unwrap();
        assert!(err.contains("budget (1 ms)"), "{err}");
    }

    #[test]
    fn matcher_panics_map_to_failed_outcomes() {
        // The guard converts a panic into an ordinary ApplyError (the
        // report-side contract for one pathological file), instead of
        // letting it poison the scoped-thread driver.
        let err = catch_matcher_panics::<()>("weird.c", || panic!("synthetic blowup")).unwrap_err();
        assert!(err.message.contains("weird.c"), "{err}");
        assert!(err.message.contains("synthetic blowup"), "{err}");
        assert!(err.message.contains("panicked"), "{err}");
        assert!(!err.timed_out);
        // String payloads are extracted too.
        let owned = String::from("owned payload");
        let err = catch_matcher_panics::<()>("s.c", move || panic!("{owned}")).unwrap_err();
        assert!(err.message.contains("owned payload"), "{err}");
        // Ordinary results pass through untouched.
        assert_eq!(catch_matcher_panics("f.c", || Ok(7)).unwrap(), 7);
        let plain = catch_matcher_panics::<()>("f.c", || Err(ApplyError::new("x"))).unwrap_err();
        assert_eq!(plain.message, "x");
    }

    #[test]
    fn flow_outcomes_carry_witness_counts_and_rewrite_both_arms() {
        // A metavariable that binds differently in the two arms forks
        // one witness per path; each drives its own rewrite.
        let patch =
            parse_semantic_patch("@@\nexpression e;\n@@\na();\n...\n- b(e);\n+ c(e);\n").unwrap();
        let files = vec![(
            "f.c".to_string(),
            "void f(int x) {\n    a();\n    if (x) {\n        b(1);\n    } else {\n        b(2);\n    }\n    done();\n}\n"
                .to_string(),
        )];
        let outcomes = apply_to_files(&patch, &files, 1).unwrap();
        assert!(
            outcomes[0].report.error.is_none(),
            "{:?}",
            outcomes[0].report.error
        );
        assert_eq!(
            outcomes[0].report.witnesses, 2,
            "one witness per path binding"
        );
        let out = outcomes[0].output.as_ref().expect("both arms rewritten");
        assert!(out.contains("c(1);"), "{out}");
        assert!(out.contains("c(2);"), "{out}");
        assert!(!out.contains("b(1)") && !out.contains("b(2)"), "{out}");
    }

    #[test]
    fn suppression_markers_drop_findings_from_outcomes() {
        let patch = parse_semantic_patch("@scan@\nexpression e;\nposition p;\n@@\nold_api(e)@p;\n")
            .unwrap();
        let files = vec![(
            "s.c".to_string(),
            "void f(void) {\n    old_api(1); // spatch-ignore scan\n\n    old_api(2);\n}\n"
                .to_string(),
        )];
        let outcomes = apply_to_files(&patch, &files, 1).unwrap();
        let r = &outcomes[0].report;
        assert_eq!(r.matches, 2, "matching still sees both sites");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].line, 4);
        assert_eq!(r.suppressed, 1);
        // A marker naming a different rule suppresses nothing.
        let files = vec![(
            "s.c".to_string(),
            "void f(void) {\n    old_api(1); // spatch-ignore other-rule\n}\n".to_string(),
        )];
        let outcomes = apply_to_files(&patch, &files, 1).unwrap();
        assert_eq!(outcomes[0].report.findings.len(), 1);
        assert_eq!(outcomes[0].report.suppressed, 0);
    }

    #[test]
    fn outcomes_carry_content_hashes() {
        let patch = parse_semantic_patch("@@ @@\n- a();\n+ b();\n").unwrap();
        let files = vec![
            ("f.c".to_string(), "void g(void) { a(); }\n".to_string()),
            ("g.c".to_string(), "void g(void) { a(); }\n".to_string()),
            ("h.c".to_string(), "void h(void) { x(); }\n".to_string()),
        ];
        let outcomes = apply_to_files(&patch, &files, 1).unwrap();
        let hash = |i: usize| outcomes[i].report.hash;
        assert_eq!(hash(0), hash(1), "same text, same hash");
        assert_ne!(hash(0), hash(2));
        assert_eq!(hash(0), content_hash("void g(void) { a(); }\n"));
    }

    #[test]
    fn outcomes_carry_timings() {
        let patch = parse_semantic_patch("@@ @@\n- a();\n+ b();\n").unwrap();
        let files = vec![("f.c".to_string(), "void g(void) { a(); }\n".to_string())];
        let outcomes = apply_to_files(&patch, &files, 1).unwrap();
        assert!(outcomes[0].report.seconds > 0.0);
    }
}
