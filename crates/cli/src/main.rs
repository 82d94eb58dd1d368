//! `spatch` — command-line front end for the semantic-patch engine,
//! mirroring Coccinelle's `spatch` usage:
//!
//! ```text
//! spatch --sp-file patch.cocci file1.c src/ ...
//!
//! Options:
//!   --sp-file <FILE>    semantic patch to apply (required)
//!   --mode <M>          `patch` (rewrite) or `report` (findings only);
//!                       auto-detected: a transformation-free patch (no
//!                       `-`/`+` lines) selects report mode
//!   --format <F>        report-mode output: `text` (grep-style
//!                       `file:line:col: rule: message`), `json` (the
//!                       apply report with embedded findings), or
//!                       `sarif` (SARIF 2.1.0 for CI ingestion)
//!   --in-place          rewrite files on disk instead of printing a diff
//!   -o <FILE>           write the single patched file here
//!   -j, --jobs <N>      worker threads (default: all cores)
//!   --report <FILE>     write a machine-readable JSON apply report
//!   --resume <FILE>     skip files whose content hash is unchanged
//!                       since this previous report (incremental re-apply)
//!   --timeout-ms <N>    per-file time budget; over-budget files are
//!                       recorded with a `timeout` status
//!   --ignore <PAT>      extra .gitignore-style exclusion (repeatable)
//!   --no-prefilter      disable the literal-atom pre-scan
//!   --trace-out <FILE>  write a Chrome trace-event JSON profile of the
//!                       run (open in Perfetto / about:tracing)
//!   --stats             print per-phase/per-rule aggregates, the match
//!                       funnel, slowest files, and pool utilization to
//!                       stderr
//!   --explain[=GLOB[:RULE]]
//!                       trace per-attempt kill stages: annotate per-file
//!                       output and embed an `explain` block in the JSON
//!                       report, optionally filtered by file glob and
//!                       rule id
//!   --quiet             suppress per-file match reports
//! ```
//!
//! Targets may be files **or directories**: directories are walked
//! recursively (C/C++/CUDA extensions, honouring each root's
//! `.gitignore` plus `--ignore` patterns) and streamed through the
//! engine in bounded-memory batches — a GADGET-scale tree is one
//! command. Without `--in-place`/`-o`, a unified diff of every changed
//! file is printed to stdout — the traditional spatch workflow of
//! reviewing the change before enacting it.
//!
//! **Scan mode** (`spatch scan --rules <dir> <targets...>`) lints a
//! corpus with a whole directory of rules in one pass: every `*.cocci`
//! file is compiled once, each target file is parsed once however many
//! rules survive the merged prefilter, and findings merge into one
//! report (text/JSON/SARIF) attributed per rule id. Scan never writes
//! files. `--resume`, `-j`, `--ignore`, `--timeout-ms`,
//! `--no-prefilter`, `--report`, and `--format` behave as in
//! patch/report mode.
//!
//! **Lint mode** (`spatch lint <patch.cocci|rules-dir>`) statically
//! analyses the *rules themselves* (`cocci-lint`): unused or unbindable
//! metavariables, unsatisfiable `=~` constraints, bad `depends on`
//! edges, dead disjunction branches, prefilter-invisible rules,
//! unroutable quantified dots, duplicate rules. Diagnostics print as
//! text/JSON/SARIF; per-class levels move with `--deny/--warn/--allow
//! <ID>`. Exit 0 when clean (warnings allowed), 1 on deny-level
//! findings, 2 when the rules cannot be loaded at all. Scan and apply
//! run the same analysis at load time — warnings go to stderr and
//! deny-level findings refuse the run before the corpus walk
//! (`--no-lint` skips it); surviving diagnostics land in the JSON
//! report's `lints` block.

mod diff;
mod telemetry;

/// Small blocks come from per-thread free lists, and a block freed on
/// another thread goes back to the thread that allocated it (see
/// `cocci_alloc`); `--stats` prints its counters.
#[global_allocator]
static ALLOC: cocci_alloc::SlabAlloc = cocci_alloc::SlabAlloc::new();

use cocci_core::{
    scan_corpus, ApplyError, ApplyReport, CompiledPatch, CompiledRuleSet, CorpusOptions,
    ExplainConfig, FileOutcome, FileReport, FileStatus, Finding, KillStage, RunMetrics, SarifIndex,
    WalkSource, JSON_TAIL, SARIF_TAIL,
};
use cocci_lint::{
    has_deny, lint_duplicates, lint_patch, lint_ruleset, Lint, LintConfig, LintLevel,
};
use cocci_smpl::{parse_semantic_patch, SemanticPatch};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// Run mode: rewrite matches, report them, or scan a rules directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Apply edits (the traditional spatch behaviour).
    Patch,
    /// Emit findings; never touch a file.
    Report,
    /// `spatch scan`: a rules directory's findings, attributed per rule.
    Scan,
}

/// Report-mode output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Grep-style `file:line:col: rule: message` lines.
    Text,
    /// The apply report JSON with embedded findings.
    Json,
    /// SARIF 2.1.0.
    Sarif,
}

#[derive(Default)]
struct Args {
    /// `spatch scan ...` — rule-collection scan mode.
    scan: bool,
    /// `spatch lint ...` — rule static-analysis mode.
    lint: bool,
    /// Skip the load-time rule lint in scan/apply.
    no_lint: bool,
    /// `--deny/--warn/--allow <ID>` overrides, in flag order.
    lint_overrides: Vec<(String, LintLevel)>,
    /// Scan mode's `--rules <dir>`.
    rules: Option<PathBuf>,
    sp_file: Option<PathBuf>,
    targets: Vec<PathBuf>,
    in_place: bool,
    output: Option<PathBuf>,
    threads: usize,
    quiet: bool,
    report: Option<PathBuf>,
    resume: Option<PathBuf>,
    timeout_ms: Option<u64>,
    ignore: Vec<String>,
    no_prefilter: bool,
    mode: Option<Mode>,
    format: Option<Format>,
    /// Chrome trace-event JSON destination (enables tracing).
    trace_out: Option<PathBuf>,
    /// Print the aggregate stats table (enables tracing).
    stats: bool,
    /// `--explain[=FILE_GLOB[:RULE_ID]]`: trace per-attempt kill stages
    /// (empty string = every attempt). Enables tracing.
    explain: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: spatch --sp-file <patch.cocci> [--mode patch|report] [--format text|json|sarif] \
         [--in-place] [-o FILE] [-j N] [--report FILE] \
         [--resume FILE] [--timeout-ms N] [--ignore PAT]... [--no-prefilter] \
         [--trace-out FILE] [--stats] [--explain[=GLOB[:RULE]]] [--quiet] <files-or-dirs...>\n\
         \x20      spatch scan --rules <dir> [--format text|json|sarif] [-j N] [--report FILE] \
         [--resume FILE] [--timeout-ms N] [--ignore PAT]... [--no-prefilter] \
         [--no-lint] [--deny ID]... [--warn ID]... [--allow ID]... \
         [--trace-out FILE] [--stats] [--explain[=GLOB[:RULE]]] [--quiet] <files-or-dirs...>\n\
         \x20      spatch lint [--format text|json|sarif] [--deny ID]... [--warn ID]... \
         [--allow ID]... [--stats] [--quiet] <patch.cocci|rules-dir>"
    );
    std::process::exit(2);
}

/// Build the lint enforcement config from `--deny/--warn/--allow` flags.
fn lint_config(args: &Args) -> Result<LintConfig, ExitCode> {
    let mut cfg = LintConfig::default();
    for (key, level) in &args.lint_overrides {
        if let Err(e) = cfg.set(key, *level) {
            eprintln!("spatch: {e}");
            return Err(ExitCode::from(2));
        }
    }
    Ok(cfg)
}

fn parse_args() -> Args {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    match it.peek().map(String::as_str) {
        Some("scan") => {
            a.scan = true;
            it.next();
        }
        Some("lint") => {
            a.lint = true;
            it.next();
        }
        _ => {}
    }
    let (scan, lint) = (a.scan, a.lint);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rules" if scan => {
                a.rules = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "--sp-file" if !scan && !lint => {
                a.sp_file = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "--deny" => a
                .lint_overrides
                .push((it.next().unwrap_or_else(|| usage()), LintLevel::Deny)),
            "--warn" => a
                .lint_overrides
                .push((it.next().unwrap_or_else(|| usage()), LintLevel::Warn)),
            "--allow" => a
                .lint_overrides
                .push((it.next().unwrap_or_else(|| usage()), LintLevel::Allow)),
            "--no-lint" if !lint => a.no_lint = true,
            "--mode" if !scan && !lint => {
                a.mode = Some(match it.next().as_deref() {
                    Some("patch") => Mode::Patch,
                    Some("report") => Mode::Report,
                    other => {
                        eprintln!("spatch: bad --mode {other:?} (expected patch|report)");
                        usage();
                    }
                })
            }
            "--format" => {
                a.format = Some(match it.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        eprintln!("spatch: bad --format {other:?} (expected text|json|sarif)");
                        usage();
                    }
                })
            }
            "--in-place" if !scan && !lint => a.in_place = true,
            "-o" if !scan && !lint => {
                a.output = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "-j" | "--jobs" => {
                a.threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--report" => a.report = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--resume" => a.resume = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--timeout-ms" => {
                a.timeout_ms = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--ignore" => a.ignore.push(it.next().unwrap_or_else(|| usage())),
            "--no-prefilter" => a.no_prefilter = true,
            "--trace-out" => {
                a.trace_out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "--stats" => a.stats = true,
            "--explain" if !lint => a.explain = Some(String::new()),
            other if other.starts_with("--explain=") && !lint => {
                a.explain = Some(other["--explain=".len()..].to_string())
            }
            "--quiet" => a.quiet = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option: {other}");
                usage();
            }
            other => a.targets.push(PathBuf::from(other)),
        }
    }
    if scan {
        if a.rules.is_none() {
            eprintln!("spatch: scan mode requires --rules <dir>");
            usage();
        }
    } else if lint {
        if a.targets.len() != 1 {
            eprintln!("spatch: lint mode takes exactly one patch file or rules directory");
            usage();
        }
    } else if a.sp_file.is_none() {
        usage();
    }
    if a.targets.is_empty() {
        usage();
    }
    // `--ignore` repeated with the identical pattern used to stack the
    // duplicate into the walker's pattern list (and re-evaluate it per
    // path); exact duplicates collapse, first occurrence wins.
    let mut seen = std::collections::HashSet::new();
    a.ignore.retain(|p| seen.insert(p.clone()));
    a
}

/// Load `--resume`'s previous report, refusing one produced by a
/// different patch / rule set (`expected_hash` mismatch): skipping
/// "unchanged" files is only sound against the very same rules.
fn load_resume(
    path: &std::path::Path,
    expected_hash: u64,
    what: &str,
) -> Result<ApplyReport, ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("spatch: cannot read resume report {}: {e}", path.display());
            return Err(ExitCode::from(2));
        }
    };
    let r = match ApplyReport::from_json(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("spatch: cannot parse resume report {}: {e}", path.display());
            return Err(ExitCode::from(2));
        }
    };
    if r.patch_hash != expected_hash {
        // A report without a hash (older spatch) cannot vouch for any
        // rules either — refuse rather than silently skip files the
        // current rules have never seen.
        eprintln!(
            "spatch: {} was not produced by this {what} ({}); refusing to resume from it",
            path.display(),
            if r.patch.is_empty() {
                format!("unknown {what}")
            } else {
                r.patch.clone()
            }
        );
        return Err(ExitCode::from(2));
    }
    Ok(r)
}

/// Print load-time lint diagnostics to stderr (deny lines always, warn
/// lines unless `--quiet`) and return `true` when deny-level findings
/// must refuse the run.
fn report_load_lints(lints: &[Lint], quiet: bool) -> bool {
    for l in lints {
        if l.level == LintLevel::Deny || !quiet {
            eprintln!("spatch: lint [{}]: {}", l.level, l.finding.text_line());
        }
    }
    has_deny(lints)
}

/// `spatch lint <patch.cocci|rules-dir>`: static analysis of the rules
/// themselves — nothing in the corpus is touched. Exit 0 clean, 1 on
/// deny-level findings, 2 when the rules cannot be loaded.
fn run_lint(args: &Args) -> ExitCode {
    let t0 = std::time::Instant::now();
    let target = &args.targets[0];
    let cfg = match lint_config(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    // Gather `(source, rule id, text)` triples: a directory's rule files
    // exactly as scan's loader lists them (validating each metadata
    // header as it would), or the single file itself.
    let listed = if target.is_dir() {
        cocci_core::rule_sources(target)
    } else {
        cocci_core::rule_source(target).map(|f| vec![f])
    };
    let files = match listed {
        Ok(files) => files,
        Err(e) => {
            eprintln!("spatch: {e}");
            return ExitCode::from(2);
        }
    };
    let mut sources: Vec<(String, String, String)> = Vec::with_capacity(files.len());
    for (path, stem, text) in files {
        let meta = match cocci_core::parse_rule_metadata(&text, &stem) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("spatch: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        sources.push((path, meta.id, text));
    }
    let mut patches: Vec<SemanticPatch> = Vec::new();
    for (src, _, text) in &sources {
        match parse_semantic_patch(text) {
            Ok(p) => patches.push(p),
            Err(e) => {
                eprintln!("spatch: {src}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let mut lints: Vec<Lint> = Vec::new();
    for ((src, _, text), patch) in sources.iter().zip(&patches) {
        lints.extend(lint_patch(patch, src, Some(text), &cfg));
    }
    let entries: Vec<(&str, &str, &SemanticPatch)> = sources
        .iter()
        .zip(&patches)
        .map(|((src, id, _), p)| (id.as_str(), src.as_str(), p))
        .collect();
    lints.extend(lint_duplicates(&entries, &cfg));

    let denies = lints.iter().filter(|l| l.level == LintLevel::Deny).count();
    let warns = lints.len() - denies;
    // The lint metrics block: per-class finding counts plus how long
    // the whole analysis took — CI's `lint_overhead_frac` gate reads
    // the wall-clock from here instead of timing the process.
    let total_seconds = t0.elapsed().as_secs_f64();
    let mut metrics = RunMetrics::default();
    metrics
        .counters
        .insert("lint_rule_files".to_string(), sources.len() as u64);
    metrics
        .counters
        .insert("lint_findings".to_string(), lints.len() as u64);
    for l in &lints {
        *metrics
            .counters
            .entry(format!("lint_{}", l.finding.rule))
            .or_insert(0) += 1;
    }
    let document = match args.format.unwrap_or(Format::Text) {
        Format::Text => lints.iter().map(|l| format!("{}\n", l.finding)).collect(),
        format => {
            // Reuse the apply-report shape: a lint run is a corpus run
            // that never walked any files, carrying only the `lints`
            // block (and its metrics) — so downstream JSON/SARIF
            // consumers need nothing new.
            let report = ApplyReport {
                patch: target.display().to_string(),
                patch_hash: 0,
                threads: 0,
                prefilter: false,
                resumed: 0,
                total_seconds,
                metrics: Some(metrics.clone()),
                lints: lints.iter().map(|l| l.finding.clone()).collect(),
                explain: None,
                files: Vec::new(),
            };
            if format == Format::Json {
                report.to_json()
            } else {
                cocci_core::to_sarif_with(&report, &cocci_lint::sarif_rules(&cfg))
            }
        }
    };
    let printed = write_document(std::io::stdout().lock(), &[&document]);
    if let Err(e) = &printed {
        eprintln!("spatch: cannot write to stdout: {e}");
    }
    if args.stats {
        eprintln!("spatch lint stats:");
        for (name, v) in &metrics.counters {
            eprintln!("  counter {name}: {v}");
        }
        eprintln!("  wall ms={:.3}", total_seconds * 1e3);
    }
    if !args.quiet {
        eprintln!(
            "spatch: lint: {} finding(s) ({denies} deny, {warns} warn) across {} rule file(s)",
            lints.len(),
            sources.len()
        );
    }
    if denies > 0 || printed.is_err() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// A rule set ready to run, with everything the run reports about it.
struct Loaded {
    /// The rules. An `--sp-file` compile error is a run-level error,
    /// reported once after the `--resume` report has been checked.
    set: Result<CompiledRuleSet, ApplyError>,
    /// `--resume` identity: the set hash, or the patch text's hash.
    hash: u64,
    /// The `--rules` directory or `--sp-file` path, as reports name it.
    label: String,
    /// Load-time lint diagnostics, embedded in the report.
    lints: Vec<Lint>,
    mode: Mode,
}

/// `spatch scan --rules <dir>`: compile the directory (N rules, one
/// parse per file) and lint it before touching the corpus.
fn load_scan(args: &Args) -> Result<Loaded, ExitCode> {
    let rules_dir = args.rules.as_ref().expect("validated in parse_args");
    let set = CompiledRuleSet::load_dir(rules_dir).map_err(|e| {
        eprintln!("spatch: {e}");
        ExitCode::from(2)
    })?;
    // A rule that can never match (or never bind) should fail here, not
    // hours into a walk.
    let lints = if args.no_lint {
        Vec::new()
    } else {
        lint_ruleset(&set, &lint_config(args)?)
    };
    if report_load_lints(&lints, args.quiet) {
        eprintln!(
            "spatch: {}: deny-level lint findings; fix the rules or pass --no-lint",
            rules_dir.display()
        );
        return Err(ExitCode::from(2));
    }
    Ok(Loaded {
        hash: set.hash,
        set: Ok(set),
        label: rules_dir.display().to_string(),
        lints,
        mode: Mode::Scan,
    })
}

/// `spatch --sp-file <patch>`: read, parse, lint, and compile the patch
/// into a one-entry rule set, and settle patch vs report mode.
fn load_patch(args: &Args) -> Result<Loaded, ExitCode> {
    let sp_file = args.sp_file.as_ref().expect("validated in parse_args");
    let fail = |msg: String| {
        eprintln!("spatch: {msg}");
        ExitCode::from(2)
    };
    let patch_text = std::fs::read_to_string(sp_file)
        .map_err(|e| fail(format!("cannot read {}: {e}", sp_file.display())))?;
    let patch = parse_semantic_patch(&patch_text)
        .map_err(|e| fail(format!("{}: {e}", sp_file.display())))?;

    // Lint at load, before anything else runs: deny-level diagnostics
    // mean every match would fail (or never happen) — refuse up front.
    let lints = if args.no_lint {
        Vec::new()
    } else {
        let label = sp_file.display().to_string();
        lint_patch(&patch, &label, Some(&patch_text), &lint_config(args)?)
    };
    if report_load_lints(&lints, args.quiet) {
        return Err(fail(format!(
            "{}: deny-level lint findings; fix the patch or pass --no-lint",
            sp_file.display()
        )));
    }

    // Report mode: explicit `--mode report`, or auto-detected from a
    // transformation-free patch (pure-context bodies can only ever
    // produce findings).
    let mode = args.mode.unwrap_or(if patch.is_report_only() {
        Mode::Report
    } else {
        Mode::Patch
    });
    if mode == Mode::Report && !patch.is_report_only() {
        // A transforming patch rewrites the in-memory text between
        // rules (sequential semantics), so findings of later rules
        // would carry line/col of an intermediate text no file on disk
        // ever has. Report mode therefore requires a
        // transformation-free patch, as upstream Coccinelle does.
        return Err(fail(
            "report mode needs a transformation-free patch \
             (this one has `-`/`+` lines; drop them or run in patch mode)"
                .to_string(),
        ));
    }
    if mode == Mode::Report && (args.in_place || args.output.is_some()) {
        return Err(fail(
            "report mode emits findings, never rewrites; \
             --in-place / -o make no sense with it"
                .to_string(),
        ));
    }
    if args.format.is_some() && mode != Mode::Report {
        return Err(fail(
            "--format only applies to report mode (--mode report)".to_string(),
        ));
    }
    // `-o` holds exactly one output file; a directory walk (or several
    // targets) could produce several changed files that would silently
    // overwrite each other in it.
    if args.output.is_some() && (args.targets.len() > 1 || args.targets[0].is_dir()) {
        return Err(fail(
            "-o takes a single input file; use --in-place (or diff mode) for \
             directories and multi-file runs"
                .to_string(),
        ));
    }
    let hash = cocci_core::content_hash(&patch_text);
    Ok(Loaded {
        set: CompiledPatch::compile(&patch).map(|c| CompiledRuleSet::from_patch(c, hash)),
        hash,
        label: sp_file.display().to_string(),
        lints,
        mode,
    })
}

/// Print one processed file's per-file line and, in patch mode, land
/// its rewrite: a diff on stdout, the file rewritten in place, or the
/// `-o` file. Returns a write failure to record against the file. A
/// failed stdout write is the run's, not the file's: `diffs` keeps the
/// first one, and no diff is written after it.
fn apply_file(
    args: &Args,
    mode: Mode,
    name: &str,
    original: &str,
    outcome: &FileOutcome,
    diffs: &mut std::io::Result<()>,
) -> Result<bool, String> {
    let r = &outcome.report;
    let Some(new_text) = &outcome.output else {
        if !args.quiet {
            let what = if r.status == FileStatus::Pruned {
                "no match (pruned)"
            } else if !r.findings.is_empty() {
                "matched, findings recorded"
            } else if r.matches > 0 {
                "matched, no edits"
            } else {
                "no match"
            };
            eprintln!("spatch: {name}: {what}");
        }
        return Ok(false);
    };
    if mode == Mode::Report {
        // A mixed patch's transform rules may still produce edits in
        // memory; report mode never surfaces them.
        return Ok(false);
    }
    if args.in_place {
        std::fs::write(name, new_text).map_err(|e| format!("cannot write: {e}"))?;
        if !args.quiet {
            // Flow-routed rules report per-path witnesses too: a
            // cross-branch binding that forked shows up once per
            // rewritten path.
            if r.witnesses > 0 {
                eprintln!(
                    "spatch: {name}: rewritten ({} matches, {} witnesses)",
                    r.matches, r.witnesses
                );
            } else {
                eprintln!("spatch: {name}: rewritten ({} matches)", r.matches);
            }
        }
    } else if let Some(out) = &args.output {
        std::fs::write(out, new_text)
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    } else if diffs.is_ok() {
        let diff = diff::unified_diff(name, original, new_text, 3);
        *diffs = std::io::stdout().lock().write_all(diff.as_bytes());
    }
    Ok(true)
}

/// Run a loaded rule set over the targets and report: the one path
/// behind apply (patch and report mode) and scan.
fn run(args: &Args, loaded: Loaded) -> ExitCode {
    let Loaded {
        set,
        hash,
        label,
        lints,
        mode,
    } = loaded;
    // Incremental re-runs: load the previous run's report up front so a
    // bad path fails before any work happens.
    let what = if mode == Mode::Scan {
        "rule set"
    } else {
        "semantic patch"
    };
    let previous = match &args.resume {
        Some(path) => match load_resume(path, hash, what) {
            Ok(r) => Some(r),
            Err(code) => return code,
        },
        None => None,
    };
    let explain_cfg = args
        .explain
        .as_deref()
        .map(|spec| Arc::new(ExplainConfig::parse(spec)));
    telemetry::init(args.trace_out.as_deref(), args.stats, explain_cfg.is_some());
    let mut source = WalkSource::discover(&args.targets, &args.ignore);
    let opts = CorpusOptions {
        threads: args.threads,
        no_prefilter: args.no_prefilter,
        timeout_ms: args.timeout_ms,
        explain: explain_cfg.clone(),
        ..Default::default()
    };
    let set = match set {
        Ok(s) => s,
        Err(e) => {
            // Patch compile error: run-level, reported exactly once.
            eprintln!("spatch: {label}: {e}");
            return ExitCode::from(2);
        }
    };

    // The sink runs while each file's text is still in memory: print the
    // diff / rewrite the file immediately, then let the text drop. Every
    // report row passes through it in walk order, resumed and unreadable
    // files too, and it renders the row's part of each output the run
    // ends with, so the end of the run is one write of each.
    let quiet = args.quiet;
    let format = (mode != Mode::Patch).then(|| args.format.unwrap_or(Format::Text));
    let sarif_rules = set.sarif_rules();
    let index = SarifIndex::new(&sarif_rules);
    let mut rendered = Rendered {
        rows: (args.report.is_some() || format == Some(Format::Json)).then(String::new),
        sarif: (format == Some(Format::Sarif)).then(String::new),
        text: (format == Some(Format::Text)).then(String::new),
        index: &index,
        rule_ids: BTreeSet::new(),
    };
    let lints: Vec<Finding> = lints.into_iter().map(|l| l.finding).collect();
    // The rule lints lead the SARIF results.
    rendered.results(&lints, None);
    let mut changed = 0usize;
    let mut diffs = Ok(());
    let mut heartbeat = telemetry::Heartbeat::new(source.remaining(), quiet);
    let run = scan_corpus(
        &set,
        &mut source,
        &opts,
        previous.as_ref(),
        |name, original, outcome| {
            heartbeat.tick(outcome.report.findings.len());
            if let (Some(cfg), false) = (&explain_cfg, quiet) {
                for a in outcome
                    .attempts
                    .iter()
                    .filter(|a| cfg.matches(name, &a.rule))
                {
                    eprintln!("spatch: explain: {name}: {a}");
                }
            }
            let r = &outcome.report;
            if outcome.resumed || r.error.is_some() {
                // Nothing ran, or the failure is reported once, from the
                // report below.
            } else if mode != Mode::Scan {
                match apply_file(args, mode, name, original, outcome, &mut diffs) {
                    Ok(wrote) => changed += usize::from(wrote),
                    // A file whose rewrite failed to land is an error,
                    // not a change: its row says so.
                    Err(e) => {
                        outcome.report.status = FileStatus::Error;
                        outcome.report.error = Some(e);
                    }
                }
            } else if !quiet {
                let (ran, pruned) = (r.rules.len(), r.rules_pruned);
                if r.findings.is_empty() && r.suppressed == 0 {
                    eprintln!("spatch: {name}: no findings ({ran} rule(s) ran, {pruned} pruned)");
                } else {
                    eprintln!(
                        "spatch: {name}: {} finding(s), {} suppressed ({ran} rule(s) ran, {pruned} pruned)",
                        r.findings.len(),
                        r.suppressed
                    );
                }
            }
            rendered.render(&outcome.report);
        },
    );
    heartbeat.finish();
    let mut report = match run {
        Ok(r) => r,
        Err(e) => {
            // A run-level error; per-file failures land in the report.
            eprintln!("spatch: {label}: {e}");
            return ExitCode::from(2);
        }
    };
    report.patch = label;
    report.lints = lints;
    if let Some(path) = &args.trace_out {
        if let Err(e) = telemetry::write_trace(path) {
            eprintln!("spatch: cannot write trace {}: {e}", path.display());
        } else if !quiet {
            eprintln!("spatch: trace written to {}", path.display());
        }
    }
    if args.stats {
        telemetry::print_stats(&report, ALLOC.stats());
    }

    // Every failed file — parse/rewrite/write errors and unreadable paths
    // alike — is in the report exactly once; report them from there.
    // Timeouts are warnings, not failures: the whole point of the budget
    // is that one pathological file must not sink the corpus run.
    let mut failures = 0usize;
    for f in &report.files {
        let fallback = match f.status {
            FileStatus::Error => {
                failures += 1;
                "unknown error"
            }
            FileStatus::Timeout => "timed out",
            _ => continue,
        };
        eprintln!(
            "spatch: {}: {}",
            f.name,
            f.error.as_deref().unwrap_or(fallback)
        );
    }
    if report.resumed > 0 && !quiet {
        eprintln!(
            "spatch: resumed: {} unchanged file(s) skipped via {}",
            report.resumed,
            args.resume
                .as_deref()
                .map(|p| p.display().to_string())
                .unwrap_or_default()
        );
    }
    // The report's head reads the whole run (counts, metrics, explain),
    // so it is written last, ahead of the rows rendered as files arrived.
    let mut json_head = String::new();
    if let Some(rows) = &rendered.rows {
        report.write_json_head(&mut json_head);
        if let Some(path) = &args.report {
            let written = std::fs::File::create(path)
                .and_then(|file| write_document(file, &[&json_head, rows, JSON_TAIL]));
            if let Err(e) = written {
                eprintln!("spatch: cannot write report {}: {e}", path.display());
                failures += 1;
            } else if !quiet {
                eprintln!("spatch: report written to {}", path.display());
            }
        }
    }

    // Findings are the product of scan and report mode. Text goes to
    // stdout grep-style; `json` emits the whole report (findings
    // embedded); `sarif` emits a SARIF 2.1.0 document for CI ingestion,
    // listing every rule with an id — findingless rules keep the output
    // shape stable run over run. Resumed files kept their findings in
    // the report, so every format sees the full set on incremental runs.
    let stdout = std::io::stdout();
    let printed = if let Some(text) = &rendered.text {
        write_document(stdout.lock(), &[text])
    } else if let (Some(Format::Json), Some(rows)) = (format, &rendered.rows) {
        write_document(stdout.lock(), &[&json_head, rows, JSON_TAIL])
    } else if let Some(results) = &rendered.sarif {
        let mut head = String::new();
        index.write_head(&mut head, rendered.rule_ids.iter().map(String::as_str));
        write_document(stdout.lock(), &[&head, results, SARIF_TAIL])
    } else {
        // Patch mode wrote its diffs as files arrived.
        diffs.and_then(|()| stdout.lock().flush())
    };
    if let Err(e) = printed {
        eprintln!("spatch: cannot write to stdout: {e}");
        failures += 1;
    }
    if !quiet {
        let total_findings: usize = report.files.iter().map(|f| f.findings.len()).sum();
        let suppressed: usize = report.files.iter().map(|f| f.suppressed).sum();
        let files = report.files.len();
        let summary = report.summary();
        match mode {
            Mode::Scan => eprintln!(
                "spatch: {total_findings} finding(s), {suppressed} suppressed, across {files} file(s) with {} rule(s), {failures} failure(s) ({summary})",
                set.len()
            ),
            Mode::Report => {
                let suppressed_note = if suppressed > 0 {
                    format!(" ({suppressed} suppressed)")
                } else {
                    String::new()
                };
                eprintln!(
                    "spatch: {total_findings} finding(s){suppressed_note} across {files} file(s), {failures} failure(s) ({summary})"
                );
            }
            Mode::Patch => eprintln!(
                "spatch: {changed}/{files} file(s) transformed, {failures} failure(s) ({summary})"
            ),
        }
    }
    // Every output is flushed. Freeing the report, most of it its
    // findings, and the rendered outputs took 42–60 ms at exit after a
    // 92,698-finding scan of 16 MB (2-core host); the process ends
    // instead.
    std::mem::forget((report, rendered, previous));
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The bodies of the outputs a run ends with, rendered row by row in
/// walk order: report rows (`--report`, `--format json`) joined by `,`,
/// SARIF results (the lints', then each file's) joined by `,`, and
/// grep-style finding lines, each only when the run writes it.
struct Rendered<'r> {
    rows: Option<String>,
    sarif: Option<String>,
    text: Option<String>,
    /// The SARIF rule descriptors, which set each result's level.
    index: &'r SarifIndex<'r>,
    /// Distinct rule ids of the results in `sarif`, which the SARIF head
    /// lists.
    rule_ids: BTreeSet<String>,
}

impl Rendered<'_> {
    /// Append `row` to each output.
    fn render(&mut self, row: &FileReport) {
        if let Some(rows) = &mut self.rows {
            if !rows.is_empty() {
                rows.push(',');
            }
            row.write_json(rows);
        }
        self.results(&row.findings, row.kill_stage);
        if let Some(lines) = &mut self.text {
            for f in &row.findings {
                let _ = writeln!(lines, "{f}");
            }
        }
    }

    /// Append `findings` to the SARIF results, if any.
    fn results(&mut self, findings: &[Finding], kill_stage: Option<KillStage>) {
        let Some(results) = &mut self.sarif else {
            return;
        };
        if findings.is_empty() {
            return;
        }
        if !results.is_empty() {
            results.push(',');
        }
        self.index.write_results(results, findings, kill_stage);
        for f in findings {
            if !self.rule_ids.contains(&f.rule) {
                self.rule_ids.insert(f.rule.clone());
            }
        }
    }
}

/// Write `parts` (a document's head, body and tail) back to back, and
/// flush.
fn write_document(mut out: impl std::io::Write, parts: &[&str]) -> std::io::Result<()> {
    for part in parts {
        out.write_all(part.as_bytes())?;
    }
    out.flush()
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.lint {
        return run_lint(&args);
    }
    let loaded = if args.scan {
        load_scan(&args)
    } else {
        load_patch(&args)
    };
    match loaded {
        Ok(loaded) => run(&args, loaded),
        Err(code) => code,
    }
}
