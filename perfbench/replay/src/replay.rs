//! The traced per-layer replay.
//!
//! Replays a generated workload in-process, single-threaded, through
//! each layer's public entry point, with a span around every call:
//!
//! | span               | entry point |
//! |--------------------|-------------|
//! | `corpus.walk`      | `WalkSource::discover` + `next_batch` reads |
//! | `compile.load`     | `CompiledRuleSet::load_dir` / `parse_semantic_patch` + `CompiledPatch::compile` |
//! | `lint.lint`        | `lint_ruleset` / `lint_patch` |
//! | `prefilter.sieve`  | `CompiledRuleSet::surviving_rules` / `CompiledPatch::may_match` |
//! | `cast.lex`         | `lexer::lex` |
//! | `cast.parse`       | `FileContext::parse` (lexes again inside) |
//! | `flow.cfg`         | `CfgCache::get_or_build` over every function |
//! | `core.orchestrate` | `Patcher::apply_ctx` on the memoized context |
//! | `core.report`      | `ApplyReport::to_json` (+ `to_sarif_with` for the scan) |
//!
//! Around it, the same inputs run through the library drivers the CLI
//! uses (`scan_corpus` / `apply_to_corpus_resumed` at one worker, the
//! CLI's diff sink, then the report serializers): once to warm caches
//! and produce the report the `core.report` span serializes, and once
//! more, timed, as the in-process end-to-end CPU time that
//! `replay.unattributed_frac` compares the layer self times against.
//! Work with no layer span — driver bookkeeping, the diff sink — is
//! what that fraction exposes.

use crate::spans::Recorder;
use cocci_cast::lexer::{lex, LexMode};
use cocci_cast::parser::ParseOptions;
use cocci_cast::visit::walk_functions;
use cocci_core::corpus::{apply_to_corpus_resumed, BatchOptions, CorpusOptions, FileSource};
use cocci_core::{
    scan_corpus, to_sarif_with, ApplyReport, CompiledPatch, CompiledRuleSet, FileContext, Patcher,
    SarifRule, WalkSource,
};
use cocci_lint::{lint_patch, lint_ruleset, LintConfig};
use cocci_smpl::parse_semantic_patch;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The tree every run walks, relative to the workload directory (the
/// process's working directory), so file names match the CLI's.
const TREE: &str = "tree";
const PATCH: &str = "patch.cocci";
const RULES: &str = "rules";

/// Rules of either shape behind one sieve/compiled-patch view.
enum Rules {
    Set(CompiledRuleSet),
    Patch(Arc<CompiledPatch>),
}

impl Rules {
    fn len(&self) -> usize {
        match self {
            Rules::Set(s) => s.len(),
            Rules::Patch(_) => 1,
        }
    }

    fn surviving(&self, text: &str) -> Vec<usize> {
        match self {
            Rules::Set(s) => s.surviving_rules(text),
            Rules::Patch(p) => {
                if p.may_match(text) {
                    vec![0]
                } else {
                    Vec::new()
                }
            }
        }
    }

    fn compiled(&self, i: usize) -> &Arc<CompiledPatch> {
        match self {
            Rules::Set(s) => &s.rules[i].compiled,
            Rules::Patch(p) => p,
        }
    }
}

/// SARIF tool metadata for every loaded rule, as the CLI builds it.
fn sarif_rules(set: &CompiledRuleSet) -> Vec<SarifRule> {
    set.rules
        .iter()
        .map(|r| SarifRule {
            id: r.meta.id.clone(),
            level: r.meta.severity.as_str(),
            description: r
                .meta
                .message
                .clone()
                .unwrap_or_else(|| format!("semantic-patch rule {}", r.meta.id)),
        })
        .collect()
}

/// What serializing the run's report costs and yields.
fn serialize(report: &ApplyReport, sarif: Option<&[SarifRule]>) -> usize {
    let json = black_box(report.to_json());
    let sarif = sarif.map_or(0, |rules| black_box(to_sarif_with(report, rules)).len());
    json.len() + sarif
}

/// User+system CPU seconds this process has used, all threads (live
/// and exited) included. `/proc` reports them in USER_HZ ticks, which
/// Linux fixes at 100 per second.
fn process_cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => Ok((u + s) / 100.0),
        _ => Err("cannot read CPU time from /proc/self/stat".to_string()),
    }
}

/// One in-process end-to-end run at one worker thread, as the CLI
/// performs it, its diff sink included, with the output kept in
/// memory. Returns the report, the SARIF rule table (scan only), and
/// the CPU seconds of every thread: the streaming driver's producer
/// walks and sieves beside its worker, so wall time would hide part of
/// the work the layers account for.
fn end_to_end(scan: bool) -> Result<(ApplyReport, Option<Vec<SarifRule>>, f64), String> {
    let cpu0 = process_cpu_seconds()?;
    let cfg = LintConfig::default();
    let targets = [PathBuf::from(TREE)];
    let opts = CorpusOptions {
        threads: 1,
        ..Default::default()
    };
    let (report, rules) = if scan {
        let set = CompiledRuleSet::load_dir(Path::new(RULES)).map_err(|e| e.to_string())?;
        let lints = lint_ruleset(&set, &cfg);
        let mut src = WalkSource::discover(&targets, &[]);
        let mut report =
            scan_corpus(&set, &mut src, &opts, None, |_, _, _| {}).map_err(|e| e.to_string())?;
        report.patch = RULES.to_string();
        report.lints = lints.into_iter().map(|l| l.finding).collect();
        (report, Some(sarif_rules(&set)))
    } else {
        let text = std::fs::read_to_string(PATCH).map_err(|e| e.to_string())?;
        let patch = parse_semantic_patch(&text).map_err(|e| e.to_string())?;
        let lints = lint_patch(&patch, PATCH, Some(&text), &cfg);
        let mut src = WalkSource::discover(&targets, &[]);
        let mut diff_bytes = 0usize;
        let mut report = apply_to_corpus_resumed(&patch, &mut src, &opts, None, |name, old, o| {
            if let Some(new) = &o.output {
                diff_bytes += black_box(crate::cli_diff::unified_diff(name, old, new, 3)).len();
            }
        })
        .map_err(|e| e.to_string())?;
        black_box(diff_bytes);
        report.patch = PATCH.to_string();
        report.patch_hash = cocci_core::content_hash(&text);
        report.lints = lints.into_iter().map(|l| l.finding).collect();
        (report, None)
    };
    serialize(&report, rules.as_deref());
    let cpu = process_cpu_seconds()? - cpu0;
    Ok((report, rules, cpu))
}

/// Counts the layer pass accumulates.
#[derive(Default)]
struct Tally {
    files: usize,
    bytes: usize,
    pairs: usize,
    surviving_pairs: usize,
    files_pruned: usize,
    parsed_files: usize,
    parsed_bytes: usize,
    tokens: usize,
    allocs: u64,
    cfgs: usize,
    attempts: usize,
    yielding: usize,
    matches: usize,
    edits: usize,
    findings: usize,
    report_bytes: usize,
    errors: Vec<String>,
}

/// The per-file layers: sieve, lex, parse, CFG build, then every
/// surviving rule through `apply_ctx` on the memoized context.
fn replay_file(rec: &mut Recorder, rules: &Rules, name: String, text: String, t: &mut Tally) {
    let surviving = rec.span("prefilter.sieve", |_| rules.surviving(&text));
    t.pairs += rules.len();
    t.surviving_pairs += surviving.len();
    if surviving.is_empty() {
        t.files_pruned += 1;
        return;
    }
    let mut ctx = FileContext::new(name.as_str(), text.as_str());
    let opts = ParseOptions {
        pattern: false,
        lang: rules.compiled(surviving[0]).patch.lang,
    };
    t.tokens += rec.span("cast.lex", |_| {
        lex(&text, LexMode::C).map_or(0, |toks| toks.len())
    });
    let before = crate::ALLOC.snapshot();
    let parsed = rec.span("cast.parse", |_| ctx.parse(opts));
    t.allocs += crate::ALLOC.snapshot().delta(before).allocs;
    t.parsed_files += 1;
    t.parsed_bytes += text.len();
    let flow = surviving
        .iter()
        .any(|&i| rules.compiled(i).rules.iter().any(|r| r.flow.is_some()));
    if let (Ok(tu), true) = (&parsed, flow) {
        rec.span("flow.cfg", |_| {
            walk_functions(tu, &mut |f| {
                ctx.cfgs().get_or_build(f);
            })
        });
    }
    let cfgs = ctx.cfg_builds();
    t.cfgs += cfgs;
    for &i in &surviving {
        let mut patcher = Patcher::from_compiled(Arc::clone(rules.compiled(i)));
        let res = rec.span("core.orchestrate", |_| patcher.apply_ctx(&mut ctx));
        if let Err(e) = res {
            t.errors.push(format!("{name}: {e}"));
        }
        let stats = &patcher.last_stats;
        t.attempts += stats.attempts.len();
        t.yielding += stats.matches_per_rule.iter().filter(|&&m| m > 0).count();
        t.matches += stats.matches_per_rule.iter().sum::<usize>();
        t.edits += stats.edits;
        t.findings += stats.findings.len();
    }
    if ctx.cfg_builds() != cfgs {
        t.errors
            .push(format!("{name}: CFGs built inside apply_ctx"));
    }
}

/// Replay the workload in the current directory: the scan when it
/// holds `rules/`, else the apply of `patch.cocci`. Returns the
/// per-layer metrics (all but `pool.cpu_util`, which needs the child
/// process) as a JSON object, and writes every span to `spans_out`.
pub fn run(spans_out: &Path) -> Result<String, String> {
    let scan = Path::new(RULES).is_dir();
    let (report, sarif, _) = end_to_end(scan)?;
    let mut rec = Recorder::new();
    let mut t = Tally::default();
    rec.span("replay", |rec| -> Result<(), String> {
        let files = rec.span("corpus.walk", |_| {
            let mut src = WalkSource::discover(&[PathBuf::from(TREE)], &[]);
            let mut files = Vec::new();
            loop {
                let batch = src.next_batch(&BatchOptions::default());
                if batch.is_empty() {
                    break files;
                }
                files.extend(batch);
            }
        });
        t.files = files.len();
        t.bytes = files.iter().map(|(_, text)| text.len()).sum();
        let cfg = LintConfig::default();
        let rules = if scan {
            let set = rec
                .span("compile.load", |_| {
                    CompiledRuleSet::load_dir(Path::new(RULES))
                })
                .map_err(|e| e.to_string())?;
            rec.span("lint.lint", |_| black_box(lint_ruleset(&set, &cfg)));
            Rules::Set(set)
        } else {
            let (text, patch) = rec.span("compile.load", |_| -> Result<_, String> {
                let text = std::fs::read_to_string(PATCH).map_err(|e| e.to_string())?;
                let patch = parse_semantic_patch(&text).map_err(|e| e.to_string())?;
                let compiled = CompiledPatch::compile(&patch).map_err(|e| e.to_string())?;
                Ok((text, compiled))
            })?;
            rec.span("lint.lint", |_| {
                black_box(lint_patch(&patch.patch, PATCH, Some(&text), &cfg))
            });
            Rules::Patch(Arc::new(patch))
        };
        for (name, text) in files {
            rec.span("file", |rec| replay_file(rec, &rules, name, text, &mut t));
        }
        t.report_bytes = rec.span("core.report", |_| serialize(&report, sarif.as_deref()));
        Ok(())
    })?;
    let (_, _, e2e_cpu_s) = end_to_end(scan)?;
    if !t.errors.is_empty() {
        return Err(format!("replay failed: {}", t.errors.join("; ")));
    }
    std::fs::write(spans_out, rec.to_tsv()).map_err(|e| e.to_string())?;

    let own = rec.self_seconds();
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let lex_s = s("cast.lex");
    // `FileContext::parse` lexes again inside its span; its self time
    // excluding lex takes the separately timed lex of the same files out.
    let parse_self = (s("cast.parse") - lex_s).max(0.0);
    let layers = [
        "corpus.walk",
        "compile.load",
        "lint.lint",
        "prefilter.sieve",
        "cast.parse",
        "flow.cfg",
        "core.orchestrate",
        "core.report",
    ];
    let layer_sum: f64 = layers.iter().map(|n| s(n)).sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    m.insert("corpus.walk_s", s("corpus.walk"));
    m.insert("corpus.files", t.files as f64);
    m.insert("corpus.bytes", t.bytes as f64);
    m.insert("compile.load_s", s("compile.load"));
    m.insert("lint.lint_s", s("lint.lint"));
    m.insert("prefilter.sieve_s", s("prefilter.sieve"));
    m.insert(
        "prefilter.survival_ratio",
        ratio(t.surviving_pairs as f64, t.pairs as f64),
    );
    m.insert(
        "prefilter.files_pruned_frac",
        ratio(t.files_pruned as f64, t.files as f64),
    );
    m.insert("cast.lex_s", lex_s);
    m.insert("cast.tokens_per_s", ratio(t.tokens as f64, lex_s));
    m.insert("cast.parse_s", parse_self);
    m.insert(
        "cast.parse_mb_per_s",
        ratio(t.parsed_bytes as f64 / 1e6, rec.total_seconds("cast.parse")),
    );
    m.insert(
        "cast.allocs_per_file",
        ratio(t.allocs as f64, t.parsed_files as f64),
    );
    m.insert("flow.cfg_s", s("flow.cfg"));
    m.insert("flow.cfgs_built", t.cfgs as f64);
    m.insert("core.orchestrate_s", s("core.orchestrate"));
    m.insert(
        "core.us_per_match",
        ratio(s("core.orchestrate") * 1e6, t.matches as f64),
    );
    m.insert("core.matches", t.matches as f64);
    m.insert("core.edits", t.edits as f64);
    m.insert("core.findings", t.findings as f64);
    m.insert(
        "core.match_yield",
        ratio(t.yielding as f64, t.attempts as f64),
    );
    m.insert("core.report_s", s("core.report"));
    m.insert("core.report_bytes", t.report_bytes as f64);
    m.insert(
        "replay.unattributed_frac",
        1.0 - ratio(layer_sum, e2e_cpu_s),
    );
    m.insert("replay.e2e_cpu_s", e2e_cpu_s);

    let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    Ok(format!("{{{}}}", body.join(", ")))
}
