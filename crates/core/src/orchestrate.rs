//! Rule orchestration: running a whole semantic patch against one file.
//!
//! Rules execute **in order**, and each transformation rule's edits are
//! applied to the text before the next rule runs (Coccinelle's sequential
//! semantics — the unroll patch relies on rule `r1` seeing `p1`'s
//! substitutions). Rules communicate through:
//!
//! * the *matched set* — `depends on r` skips a rule unless `r` matched;
//! * *exported environments* — a rule that later rules inherit from
//!   (via `rule.var` metavariables or script inputs) exports one
//!   environment per match; dependent rules run once per environment.
//!   Environments form a linear chain (`cfe` → `cf2hf` → `hfe`), which
//!   covers every multi-rule patch in the paper; full cross-product
//!   semantics of upstream Coccinelle are intentionally not reproduced
//!   (documented in DESIGN.md).
//! * the shared script interpreter: `@initialize@` blocks populate
//!   globals, `@script@` rules compute new bindings per environment.

use crate::compile::CompiledPatch;
use crate::context::FileContext;
use crate::edits::EditSet;
use crate::env::{Env, ExportedEnv, Value};
use crate::explain::{AttemptProbe, ExplainConfig, KillStage, RuleAttempt};
use crate::findings::{self, Finding};
use crate::matcher::{MatchCtx, MatchState};
use crate::rewrite;
use crate::treesearch::{DistinctSeeds, TreeSearch};
use cocci_cast::ast::*;
use cocci_cast::parser::ParseOptions;
use cocci_script::{Interp, PosInfo, Program, Report, ScriptError, Value as ScriptValue};
use cocci_smpl::{
    Constraint, DepExpr, FreshPart, MetaDeclKind, Rule, ScriptRule, SemanticPatch, TransformRule,
};
use cocci_source::Span;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::treesearch::find_matches;

/// Error applying a semantic patch.
#[derive(Debug, Clone)]
pub struct ApplyError {
    /// Description.
    pub message: String,
    /// The file exceeded its per-file time budget (recorded as a
    /// `timeout` outcome by the driver, not a hard error).
    pub timed_out: bool,
}

impl ApplyError {
    /// An ordinary (non-timeout) apply error.
    pub fn new(message: impl Into<String>) -> ApplyError {
        ApplyError {
            message: message.into(),
            timed_out: false,
        }
    }

    /// A per-file time-budget violation.
    pub fn timeout(message: impl Into<String>) -> ApplyError {
        ApplyError {
            message: message.into(),
            timed_out: true,
        }
    }
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ApplyError {}

fn aerr(message: impl Into<String>) -> ApplyError {
    ApplyError::new(message)
}

/// A file's wall-clock budget. The driver starts it once per file, so
/// every rule run on the file spends from the same budget.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadline {
    /// When the file's run began.
    pub(crate) start: Instant,
    /// How long the file may take.
    pub(crate) budget: Duration,
}

/// Statistics from one application.
#[derive(Debug, Clone, Default)]
pub struct ApplyStats {
    /// Matches found per rule (by index).
    pub matches_per_rule: Vec<usize>,
    /// Total edits applied.
    pub edits: usize,
    /// Per-path witnesses produced by CFG-routed (statement-dots)
    /// rules — every match of such a rule is one witness, so forked
    /// cross-branch bindings count once per path.
    pub witnesses: usize,
    /// Findings produced by reporting-only rules (pure-context bodies)
    /// and by script rules via `coccilib.report.print_report` — one per
    /// match witness.
    pub findings: Vec<Finding>,
    /// One record per transform-rule attempt (and per timed-out rule
    /// boundary), in rule order: the kill stage that ended it, plus an
    /// `--explain` detail when the patcher's explain filter matched.
    /// Valid after `Ok` returns *and* after timeout/parse errors (the
    /// two attributable failure modes); other errors leave the previous
    /// application's records in place.
    pub attempts: Vec<RuleAttempt>,
}

/// Applies a parsed semantic patch to files.
///
/// The expensive, immutable per-patch artifacts (rule patterns, compiled
/// regexes, prefilters) live in a shared [`CompiledPatch`]; a `Patcher`
/// only adds the per-application mutable state (script-interpreter
/// globals, statistics), so building one from an existing compile is
/// cheap — the driver compiles once and hands every worker its own
/// `Patcher` over the same `Arc`.
pub struct Patcher {
    compiled: Arc<CompiledPatch>,
    /// Statistics of the most recent `apply` call.
    pub last_stats: ApplyStats,
    /// Per-file deadline, checked at rule boundaries. A file past it
    /// aborts with a timeout error instead of stalling the corpus run.
    pub(crate) deadline: Option<Deadline>,
    /// `--explain` filter: when set and matching a (file, rule)
    /// attempt, its [`RuleAttempt`] carries a human-readable detail
    /// (the always-on half records only the stage).
    pub explain: Option<Arc<ExplainConfig>>,
    /// The id of a rules-directory rule: its attempts and findings carry
    /// it in place of the inner SMPL rule names, and the explain filter
    /// matches it. `None` keeps the inner names.
    pub(crate) id: Option<String>,
    /// The rule's `// spatch-message:` override, which replaces the
    /// message of each of its findings.
    pub(crate) message: Option<String>,
}

impl Patcher {
    /// Compile a semantic patch (regex constraints validated eagerly) and
    /// wrap it in a fresh `Patcher`. Prefer [`CompiledPatch::compile`] +
    /// [`Patcher::from_compiled`] when applying to many files so the
    /// compile happens once.
    pub fn new(patch: &SemanticPatch) -> Result<Self, ApplyError> {
        Ok(Self::from_compiled(Arc::new(CompiledPatch::compile(
            patch,
        )?)))
    }

    /// A patcher over an already-compiled patch (no per-worker recompile).
    pub fn from_compiled(compiled: Arc<CompiledPatch>) -> Self {
        Patcher {
            compiled,
            last_stats: ApplyStats::default(),
            deadline: None,
            explain: None,
            id: None,
            message: None,
        }
    }

    /// The shared compiled patch.
    pub fn compiled(&self) -> &CompiledPatch {
        &self.compiled
    }

    /// Apply the patch to one file. Returns `Ok(Some(text))` when edits
    /// were made, `Ok(None)` when nothing matched.
    pub fn apply(&mut self, name: &str, src: &str) -> Result<Option<String>, ApplyError> {
        let mut ctx = FileContext::new(name, src);
        self.apply_ctx(&mut ctx)
    }

    /// Apply the patch against a shared [`FileContext`]. The context's
    /// caches (parse tree, CFGs, line table, suppression index) describe
    /// the **original** text and survive the call untouched: the scan
    /// driver applies N compiled rule sets through one context and the
    /// file is lexed/parsed once. Every rule reads the text it runs on
    /// through a context: once this patch's own edits land, later rules
    /// run on a fresh context of the rewritten text, whose parse, line
    /// table and CFGs they share in turn (sequential rule semantics);
    /// the returned `Some(text)` is the rewritten file.
    pub fn apply_ctx(&mut self, ctx: &mut FileContext) -> Result<Option<String>, ApplyError> {
        let opts = ParseOptions {
            pattern: false,
            lang: self.compiled.patch.lang,
        };
        let name = ctx.name().to_string();
        // The context of the text this patch's edits produced, replaced
        // whenever a rule's edits land; `None` while the text is `ctx`'s.
        let mut rewritten: Option<FileContext> = None;
        let mut interp = Interp::new();
        let mut matched: HashSet<String> = HashSet::new();
        let mut streams: Vec<ExportedEnv> = vec![ExportedEnv::new()];
        let mut stats = ApplyStats {
            matches_per_rule: vec![0; self.compiled.patch.rules.len()],
            edits: 0,
            witnesses: 0,
            findings: Vec::new(),
            attempts: Vec::new(),
        };
        let mut finalizers = Vec::new();
        // Auto-findings of reporting rules whose bindings feed a script
        // rule are *deferred*: if that script ends up authoring findings
        // (via `coccilib.report.print_report`), the generic `matched`
        // records are dropped — emitting both would double-report every
        // site — but a script that never reports must not silently
        // swallow the matches either.
        let mut deferred: Vec<(String, Vec<Finding>)> = Vec::new();
        let mut scripts_reporting: HashSet<String> = HashSet::new();

        // Clone the Arc handle (not the rules) so rule iteration does not
        // conflict with the `&self` borrows of the helper methods.
        let compiled = Arc::clone(&self.compiled);
        for (ri, rule) in compiled.patch.rules.iter().enumerate() {
            // Per-file time budget, checked at rule boundaries so a
            // pathological file aborts between rules instead of stalling
            // the whole corpus run.
            if let Some(Deadline { start, budget }) = self.deadline {
                if start.elapsed() >= budget {
                    cocci_trace::count(cocci_trace::Counter::Timeouts, 1);
                    let rule_label = self.label(rule.name().unwrap_or("<anonymous>"));
                    stats.attempts.push(RuleAttempt {
                        rule: rule_label.to_string(),
                        stage: KillStage::Timeout,
                        detail: self.explain_detail(&name, rule_label, || {
                            Some(format!(
                                "budget {} ms expired before this rule",
                                budget.as_millis()
                            ))
                        }),
                    });
                    self.last_stats = stats;
                    return Err(ApplyError::timeout(format!(
                        "{name}: exceeded per-file time budget ({} ms) before rule {}",
                        budget.as_millis(),
                        rule.name().unwrap_or("<anonymous>"),
                    )));
                }
            }
            let edited = rewritten.is_some();
            let cur = rewritten.as_mut().unwrap_or(&mut *ctx);
            let program = || compiled.rules[ri].program();
            match rule {
                Rule::Initialize(_) => {
                    program()
                        .and_then(|p| interp.run_block_program(p))
                        .map_err(|e| aerr(format!("{name}: initialize block: {e}")))?;
                }
                Rule::Finalize(_) => finalizers.push(ri),
                Rule::Script(s) => {
                    if !deps_ok(s.depends.as_ref(), &matched) {
                        continue;
                    }
                    let reports = Self::run_script_rule(
                        s,
                        program(),
                        &mut interp,
                        &mut streams,
                        &mut matched,
                        cur,
                    )?;
                    // `coccilib.report.print_report` calls become findings,
                    // attributed to this script rule.
                    if let (Some(n), false) = (&s.name, reports.is_empty()) {
                        scripts_reporting.insert(n.clone());
                    }
                    let rule_label = self.label(s.name.as_deref().unwrap_or("<script>"));
                    stats.findings.extend(reports.into_iter().map(|r| Finding {
                        path: r.pos.file,
                        line: r.pos.line.max(0) as u32,
                        col: r.pos.column.max(0) as u32,
                        end_line: r.pos.line_end.max(0) as u32,
                        end_col: r.pos.column_end.max(0) as u32,
                        rule: rule_label.to_string(),
                        message: self.message.clone().unwrap_or(r.message),
                        bindings: Vec::new(),
                    }));
                }
                Rule::Transform(t) => {
                    if !deps_ok(t.depends.as_ref(), &matched) {
                        continue;
                    }
                    // Each text parses once, through its context (the
                    // original's is cached across scan rule sets too).
                    let tu = match cur.parse(opts) {
                        Ok(tu) => tu,
                        Err(e) => {
                            let msg = if edited {
                                format!("cannot parse target (after transformation): {e}")
                            } else {
                                format!("cannot parse target: {e}")
                            };
                            let rule_label = self.label(t.name.as_deref().unwrap_or("<anonymous>"));
                            stats.attempts.push(RuleAttempt {
                                rule: rule_label.to_string(),
                                stage: KillStage::Parse,
                                detail: self
                                    .explain_detail(&name, rule_label, || Some(msg.clone())),
                            });
                            self.last_stats = stats;
                            return Err(aerr(format!("{name}: {msg}")));
                        }
                    };
                    // Contradictory witness groups are already rejected
                    // inside run_transform_rule (before they could claim
                    // territory or export environments), so every match
                    // here is one whose edits landed in the returned
                    // set. A non-zero witness_group marks a CFG path
                    // witness; tree matches keep 0 and are not counted
                    // as witnesses.
                    let (all_matches, new_streams, edits, probe) =
                        self.run_transform_rule(ri, t, &tu, cur, &streams)?;
                    let rule_label = self.label(t.name.as_deref().unwrap_or("<anonymous>"));
                    let stage = probe.stage(!all_matches.is_empty());
                    stats.attempts.push(RuleAttempt {
                        rule: rule_label.to_string(),
                        stage,
                        detail: self.explain_detail(&name, rule_label, || probe.detail(stage)),
                    });
                    stats.matches_per_rule[ri] = all_matches.len();
                    stats.witnesses += all_matches.iter().filter(|m| m.witness_group != 0).count();
                    // Reporting-only rules (pure-context bodies) route
                    // their witnesses to findings: one finding per
                    // witness, anchored at the rule's first bound
                    // position metavariable (or the match root), with
                    // line/col resolved against the *current* text.
                    // Rules whose bindings feed a script rule defer
                    // theirs (see `deferred` above).
                    if self.compiled.rules[ri].report_only && !all_matches.is_empty() {
                        let rule_name = t.name.as_deref().unwrap_or("<anonymous>");
                        let r = cur.resolver();
                        let mut auto = Vec::with_capacity(all_matches.len());
                        for m in &all_matches {
                            let mut f = findings::finding_for_match(
                                rule_label,
                                &t.metavars,
                                m,
                                &r,
                                cur.text(),
                            );
                            if let Some(msg) = &self.message {
                                f.message = msg.clone();
                            }
                            auto.push(f);
                        }
                        let feeds_script = t
                            .name
                            .as_ref()
                            .is_some_and(|n| self.compiled.script_inherited_from.contains(n));
                        if feeds_script {
                            deferred.push((rule_name.to_string(), auto));
                        } else {
                            stats.findings.extend(auto);
                        }
                    }
                    if !all_matches.is_empty() {
                        if let Some(n) = &t.name {
                            matched.insert(n.clone());
                        }
                        if let Some(ns) = new_streams {
                            streams = ns;
                        }
                        if !edits.is_empty() {
                            stats.edits += edits.len();
                            let _render = cocci_trace::span(cocci_trace::Phase::Render);
                            let text = edits.apply(cur.text()).map_err(|e| {
                                aerr(format!(
                                    "{name}: rule {}: {e}",
                                    t.name.as_deref().unwrap_or("<anonymous>")
                                ))
                            })?;
                            // Later rules run on the new text, through a
                            // context of its own. When one of them parses
                            // it, the context splices its parse from this
                            // text's; else there is nothing to hand over.
                            let parsed_later = compiled.patch.rules[ri + 1..]
                                .iter()
                                .any(|r| matches!(r, Rule::Transform(_)));
                            rewritten = Some(if parsed_later {
                                cur.after_edits(text, &edits)
                            } else {
                                FileContext::new(name.as_str(), text)
                            });
                        }
                    }
                }
            }
        }
        // Settle the deferred auto-findings: a rule whose inheriting
        // script reported keeps only the script's messages; if no such
        // script reported anything, the generic findings stand in so
        // the matches do not silently vanish from report output.
        for (rname, auto) in deferred {
            let authored = compiled.patch.rules.iter().any(|r| match r {
                Rule::Script(s) => {
                    s.inputs.iter().any(|(_, from, _)| *from == rname)
                        && s.name
                            .as_ref()
                            .is_some_and(|n| scripts_reporting.contains(n))
                }
                _ => false,
            });
            if !authored {
                stats.findings.extend(auto);
            }
        }
        for ri in finalizers {
            compiled.rules[ri]
                .program()
                .and_then(|p| interp.run_block_program(p))
                .map_err(|e| aerr(format!("{name}: finalize block: {e}")))?;
        }
        self.last_stats = stats;
        Ok(rewritten.map(|c| c.text().to_string()))
    }

    /// The label the attempts and findings of inner rule `inner` carry:
    /// the rule's id when it has one, else `inner`.
    fn label<'s>(&'s self, inner: &'s str) -> &'s str {
        self.id.as_deref().unwrap_or(inner)
    }

    /// Whether the `--explain` filter is set and matches this
    /// (file, rule) attempt — i.e. whether details should be kept.
    pub fn explain_wants(&self, file: &str, rule: &str) -> bool {
        self.explain.as_ref().is_some_and(|c| c.matches(file, rule))
    }

    /// The `--explain` detail for one (file, rule) attempt: `None`
    /// unless the explain filter is set and matches — the cheap always-on
    /// half never assembles detail strings.
    fn explain_detail(
        &self,
        file: &str,
        rule: &str,
        make: impl FnOnce() -> Option<String>,
    ) -> Option<String> {
        let cfg = self.explain.as_ref()?;
        if cfg.matches(file, rule) {
            make()
        } else {
            None
        }
    }

    /// Run script rule `s`, whose parsed body is `program`, once per
    /// environment of `streams` that has its inputs. Returns its
    /// `coccilib.report.print_report` calls, in order.
    fn run_script_rule(
        s: &ScriptRule,
        program: Result<&Program, ScriptError>,
        interp: &mut Interp,
        streams: &mut Vec<ExportedEnv>,
        matched: &mut HashSet<String>,
        cur: &mut FileContext,
    ) -> Result<Vec<Report>, ApplyError> {
        let mut reports = Vec::new();
        let mut new_streams = Vec::new();
        let mut any = false;
        // The current text's resolver is built lazily (most script rules
        // inherit no positions). Positions were bound against the
        // current text of their rule's run; report mode is restricted to
        // transformation-free patches, so the text — and with it the
        // line table — cannot have moved since.
        for ex in streams.iter() {
            // Gather inputs; environments lacking them pass through
            // unchanged (the script does not run for them).
            let mut inputs = BTreeMap::new();
            let mut complete = true;
            for (local, from, var) in &s.inputs {
                match ex.get(from, var) {
                    Some(Value::Pos {
                        file: pf,
                        span,
                        resolved,
                    }) => {
                        // Exported positions carry their bind-time
                        // line/col (the text may have been rewritten
                        // since); resolving the raw span against the
                        // current text is only a fallback for
                        // positions that never crossed the export path.
                        let (line, column, line_end, column_end) = match resolved {
                            Some(rp) => (rp.line, rp.col, rp.end_line, rp.end_col),
                            None => {
                                let r = cur.resolver();
                                let (line, column) = r.line_col(span.start);
                                let (line_end, column_end) = r.line_col(span.end);
                                (line, column, line_end, column_end)
                            }
                        };
                        inputs.insert(
                            local.clone(),
                            // Coccinelle hands scripts a *list* of
                            // positions per metavariable; this engine
                            // binds one site per witness, so the list
                            // is a singleton — `p[0]`.
                            ScriptValue::List(vec![ScriptValue::Pos(PosInfo {
                                file: pf.to_string(),
                                line: i64::from(line),
                                column: i64::from(column),
                                line_end: i64::from(line_end),
                                column_end: i64::from(column_end),
                            })]),
                        );
                    }
                    Some(v) => {
                        inputs.insert(local.clone(), ScriptValue::Str(v.render("")));
                    }
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                new_streams.push(ex.clone());
                continue;
            }
            let run = program
                .clone()
                .and_then(|p| interp.run_program(p, inputs))
                .map_err(|e| aerr(format!("{}: script rule: {e}", cur.name())))?;
            reports.extend(interp.take_reports());
            match run {
                Some(outputs) => {
                    let mut ex2 = ex.clone();
                    if let Some(rname) = &s.name {
                        for (k, v) in outputs {
                            ex2.bind(rname, &k, Value::Text(v.render()));
                        }
                    }
                    new_streams.push(ex2);
                    any = true;
                }
                None => {
                    // Dict-miss idiom: drop this environment.
                }
            }
        }
        if any {
            if let Some(n) = &s.name {
                matched.insert(n.clone());
            }
        }
        // Environments lacking the script's inputs passed through above;
        // the rest survive only if the script kept them (a script that
        // drops every environment leaves none).
        *streams = new_streams;
        Ok(reports)
    }

    /// Run one transformation rule over all seed environments. Returns
    /// the surviving matches (contradictory witness groups already
    /// rejected), (when the rule is inherited from) the new environment
    /// stream, the emitted edit set for those matches, ready to
    /// apply, and the attempt probe for kill-stage attribution.
    #[allow(clippy::type_complexity)]
    fn run_transform_rule(
        &self,
        ri: usize,
        t: &TransformRule,
        tu: &TranslationUnit,
        cur: &mut FileContext,
        streams: &[ExportedEnv],
    ) -> Result<
        (
            Vec<MatchState>,
            Option<Vec<ExportedEnv>>,
            EditSet,
            AttemptProbe,
        ),
        ApplyError,
    > {
        // The variables later rules read from this one: a match exports
        // only those.
        let exports = t
            .name
            .as_ref()
            .and_then(|n| self.compiled.inherited_from.get(n));
        let has_inherited = t.metavars.iter().any(|m| m.inherited_from.is_some());

        // Build seeds: one per stream env when inheriting, else a single
        // empty seed. Constant-set metavariables multiply seeds.
        let base_seeds: Vec<(Option<&ExportedEnv>, Env)> = if has_inherited {
            let mut seeds = Vec::new();
            'outer: for ex in streams {
                let mut env = Env::new();
                for mv in &t.metavars {
                    if let Some(from) = &mv.inherited_from {
                        match ex.get(from, &mv.name) {
                            Some(v) => env.bind(&mv.name, v.clone()),
                            None => continue 'outer,
                        }
                    }
                }
                seeds.push((Some(ex), env));
            }
            seeds
        } else {
            vec![(None, Env::new())]
        };

        let mut seeds = Vec::new();
        for (ex, env) in base_seeds {
            let mut variants = vec![env];
            for mv in &t.metavars {
                if mv.kind == MetaDeclKind::Constant {
                    if let Some(Constraint::Set(vals)) = &mv.constraint {
                        let mut next = Vec::new();
                        for v in vals {
                            if let Ok(i) = v.parse::<i128>() {
                                for base in &variants {
                                    let mut e = base.clone();
                                    e.bind(&mv.name, Value::Int(i));
                                    next.push(e);
                                }
                            }
                        }
                        if !next.is_empty() {
                            variants = next;
                        }
                    }
                }
            }
            for v in variants {
                seeds.push((ex, v));
            }
        }

        let text = cur.text_arc();
        let src: &str = &text;
        let ctx = MatchCtx::new(cur.name_arc(), src, &self.compiled.rules[ri].metavars);

        // Flow-sensitive rules route through the CFG path engine
        // (all-paths dots semantics); everything else stays on the tree
        // matcher. The search (per-function CFGs + span indexes) is
        // built once and reused across all seed environments, and the
        // text's CFGs build once, no matter how many flow-routed rules
        // (of how many patches) run on it.
        let mut flow_search = self.compiled.rules[ri]
            .flow
            .as_ref()
            .map(|fp| crate::flowmatch::FlowSearch::with_cache(fp, tu, cur.cfgs()));

        let mut all_matches: Vec<MatchState> = Vec::new();
        let mut new_streams: Vec<ExportedEnv> = Vec::new();
        let mut claimed = Claims::default();
        let mut edits = EditSet::new();
        let mut probe = AttemptProbe::default();
        let rule_label = t.name.as_deref().unwrap_or("<anonymous>");
        // A report-only body has no `-`/`+` lines, so its matches have no
        // edits and skip the rewriter.
        let report_only = self.compiled.rules[ri].report_only;
        let rewrite_span =
            || (!report_only).then(|| cocci_trace::span(cocci_trace::Phase::Rewrite));
        let member_edits = |m: &MatchState| -> Result<EditSet, ApplyError> {
            let mut set = EditSet::new();
            if !report_only {
                rewrite::emit_edits(&t.body, m, src, &mut set)
                    .map_err(|e| aerr(format!("rewrite: {e}")))?;
            }
            Ok(set)
        };
        // Tree route: a rule with token atoms tries only the roots that
        // hold its rarest one, and from the second seed on, pinned
        // positions and duplicate seeds narrow or skip the search (see
        // `treesearch`).
        let token_atoms = &self.compiled.rules[ri].token_atoms;
        let mut tree = TreeSearch::new(&t.body.pattern, tu);
        let mut distinct = (flow_search.is_none() && seeds.len() > 1 && !reference_search())
            .then(DistinctSeeds::default);
        for (si, (ex, seed)) in seeds.iter().enumerate() {
            let mut found = match &mut flow_search {
                Some(fs) => {
                    let _span = cocci_trace::span_with(cocci_trace::Phase::FlowMatch, rule_label);
                    fs.find(&ctx, seed, &mut probe)
                }
                None => {
                    let _span = cocci_trace::span_with(cocci_trace::Phase::TreeMatch, rule_label);
                    if si == 0 && !token_atoms.is_empty() && !reference_search() {
                        tree.pin_atoms(cur.atom_pin(token_atoms));
                    }
                    if let Some(n) = distinct.as_mut().and_then(|d| d.twin(seed, src)) {
                        // An equal earlier seed matched at these roots,
                        // and each is now claimed or blocked: count what
                        // the skipped search would have (n anchor hits,
                        // n blocked groups).
                        #[cfg(test)]
                        seed_check::duplicate(&ctx, &t.body.pattern, tu, seed, n, &claimed);
                        probe.anchors += n as u64;
                        probe.group_blocked += n as u64;
                        continue;
                    }
                    let pinned = if si > 0 && distinct.is_some() {
                        tree.pinned(&ctx, seed)
                    } else {
                        None
                    };
                    #[cfg(test)]
                    seed_check::pinned(&ctx, &t.body.pattern, tu, seed, pinned.as_deref());
                    let found = pinned
                        .or_else(|| {
                            let held = tree.atom_pinned(&ctx, seed);
                            #[cfg(any(test, debug_assertions))]
                            check_atom_pinned(&ctx, &t.body.pattern, tu, seed, held.as_deref());
                            held
                        })
                        .unwrap_or_else(|| find_matches(&ctx, &t.body.pattern, tu, seed));
                    if let Some(d) = &mut distinct {
                        d.searched(
                            found.len(),
                            found.iter().all(|m| !match_root(m).is_synthetic()),
                        );
                    }
                    // Tree route: a full-pattern match *is* the anchor
                    // hit (no separate gap/binding stages).
                    probe.anchors += found.len() as u64;
                    found
                }
            };
            for m in &mut found {
                // Fresh identifiers computed per match.
                for mv in &t.metavars {
                    if let MetaDeclKind::FreshIdentifier(parts) = &mv.kind {
                        let mut text = String::new();
                        for p in parts {
                            match p {
                                FreshPart::Lit(l) => text.push_str(l),
                                FreshPart::MetaRef(r) => match m.env.get(r) {
                                    Some(v) => text.push_str(&v.render(src)),
                                    None => {
                                        return Err(aerr(format!(
                                            "fresh identifier `{}` references unbound `{r}`",
                                            mv.name
                                        )))
                                    }
                                },
                            }
                        }
                        m.env.bind(
                            &mv.name,
                            Value::Ident {
                                name: text.into(),
                                span: Span::SYNTHETIC,
                            },
                        );
                    }
                }
            }
            // Sibling witnesses forked from one anchor attempt (adjacent
            // in `found`, shared non-zero group id) are handled as a
            // group, and a tree match (group 0) as a group of one. For
            // tree matches and patterns with a *forall* gap the group is
            // all or nothing — forall siblings jointly discharge the
            // all-paths obligation, so if an earlier claim blocks any
            // sibling, or their rewrites contradict, keeping a subset
            // would rewrite only some of the attempt's arms. Pure-`exists`
            // patterns fork one *independent* witness per surviving path:
            // there only the individually blocked/contradicting siblings
            // drop.
            let atomic_groups = self.compiled.rules[ri]
                .flow
                .as_ref()
                .map(|fp| fp.has_forall_gap())
                .unwrap_or(true);
            let mut it = found.into_iter().peekable();
            while let Some(first) = it.next() {
                let gid = first.witness_group;
                let mut members = vec![first];
                if gid != 0 {
                    while it.peek().map(|m| m.witness_group == gid).unwrap_or(false) {
                        members.push(it.next().expect("peeked"));
                    }
                }
                let member_blocked = |m: &MatchState| {
                    let root = match_root(m);
                    !root.is_synthetic() && claimed.blocks(root, m)
                };
                if gid == 0 || atomic_groups {
                    if members.iter().any(member_blocked) {
                        probe.group_blocked += 1;
                        continue;
                    }
                    // Contradictory rewrites (a forked metavariable
                    // substituted into a *shared* anchor's replacement
                    // or insertion) reject the group here, before it
                    // claims territory, exports environments, or counts
                    // as matched — the clean no-match outcome the
                    // pre-fork engine gave. Each member's edits land in
                    // their own set so cross-member contradictions are
                    // visible (same-offset insertions with different
                    // text never trip a single merged set).
                    let member_sets = {
                        let _rewrite = rewrite_span();
                        members
                            .iter()
                            .map(member_edits)
                            .collect::<Result<Vec<_>, _>>()?
                    };
                    let contradictory = member_sets
                        .iter()
                        .enumerate()
                        .any(|(i, a)| member_sets[i + 1..].iter().any(|b| a.conflicts_with(b)));
                    if contradictory {
                        probe.contradictory += 1;
                        continue;
                    }
                    for set in member_sets {
                        edits.merge(set);
                    }
                } else {
                    // Independent exists witnesses: drop blocked ones,
                    // then keep a maximal consistent set in source
                    // order (a later witness whose edits contradict an
                    // accepted sibling's drops alone).
                    let before = members.len();
                    members.retain(|m| !member_blocked(m));
                    probe.group_blocked += (before - members.len()) as u64;
                    let mut accepted_sets: Vec<EditSet> = Vec::new();
                    let mut kept = Vec::with_capacity(members.len());
                    let _rewrite = rewrite_span();
                    for m in members {
                        let set = member_edits(&m)?;
                        if accepted_sets.iter().all(|a| !a.conflicts_with(&set)) {
                            accepted_sets.push(set);
                            kept.push(m);
                        } else {
                            probe.contradictory += 1;
                        }
                    }
                    members = kept;
                    for set in accepted_sets {
                        edits.merge(set);
                    }
                }
                for m in members {
                    let root = match_root(&m);
                    if !root.is_synthetic() {
                        claimed.insert(root, m.witness_group);
                    }
                    if let Some(vars) = exports {
                        let mut ex2 = ex.map(|e| (*e).clone()).unwrap_or_default();
                        let mut detached = Env::new();
                        for (k, v) in vars.iter().filter_map(|&k| Some((k, m.env.get(k)?))) {
                            let dv = match v {
                                // Freshly bound positions resolve now,
                                // against the text this rule matched
                                // (later rules may rewrite it); a
                                // position inherited already-resolved
                                // keeps its bind-time coordinates.
                                Value::Pos {
                                    file: pf,
                                    span,
                                    resolved: None,
                                } => {
                                    let r = cur.resolver();
                                    let (line, col) = r.line_col(span.start);
                                    let (end_line, end_col) = r.line_col(span.end);
                                    Value::Pos {
                                        file: pf.clone(),
                                        span: *span,
                                        resolved: Some(crate::env::ResolvedPos {
                                            line,
                                            col,
                                            end_line,
                                            end_col,
                                        }),
                                    }
                                }
                                v => v.detach(src),
                            };
                            detached.bind(k, dv);
                        }
                        if let Some(n) = &t.name {
                            ex2.absorb(n, &detached);
                        }
                        new_streams.push(ex2);
                    }
                    all_matches.push(m);
                }
            }
        }
        let streams_out = if exports.is_some() && !new_streams.is_empty() {
            Some(new_streams)
        } else {
            None
        };
        Ok((all_matches, streams_out, edits, probe))
    }
}

/// The roots one rule's matches claimed, each with its witness group.
#[derive(Default)]
struct Claims {
    /// Claims sorted by start; equal starts keep insertion order, so the
    /// matches of one walk, which arrive in source order, append.
    sorted: Vec<(Span, u32)>,
    /// Length of the longest claimed root: a claim starting more than
    /// this far before a root ends before it.
    longest: u32,
    /// Every claim in insertion order, for the reference scan.
    #[cfg(test)]
    all: Vec<(Span, u32)>,
}

impl Claims {
    fn insert(&mut self, root: Span, group: u32) {
        let at = self.sorted.partition_point(|(c, _)| c.start <= root.start);
        self.sorted.insert(at, (root, group));
        self.longest = self.longest.max(root.len());
        #[cfg(test)]
        self.all.push((root, group));
    }

    /// Whether an overlapping earlier claim blocks match `m`, whose root
    /// is `root`. Sibling witnesses forked from one CFG anchor attempt
    /// deliberately share source territory (the common anchors);
    /// matches with the same non-zero witness group never block each
    /// other — each rewrites its own per-path sites.
    fn blocks(&self, root: Span, m: &MatchState) -> bool {
        let from = root.start.saturating_sub(self.longest);
        let lo = self.sorted.partition_point(|(c, _)| c.start < from);
        let hi = self.sorted.partition_point(|(c, _)| c.start < root.end);
        let blocked = self.sorted[lo..hi]
            .iter()
            .any(|&(c, g)| overlaps(c, root) && !(m.witness_group != 0 && g == m.witness_group));
        #[cfg(test)]
        assert_eq!(blocked, claims_conflict(&self.all, root, m), "at {root:?}");
        blocked
    }
}

/// The linear scan [`Claims::blocks`] must agree with.
#[cfg(test)]
fn claims_conflict(claimed: &[(Span, u32)], root: Span, m: &MatchState) -> bool {
    claimed
        .iter()
        .any(|&(c, g)| overlaps(c, root) && !(m.witness_group != 0 && g == m.witness_group))
}

/// Evaluate a dependency expression against the matched-rule set.
fn deps_ok(dep: Option<&DepExpr>, matched: &HashSet<String>) -> bool {
    match dep {
        None => true,
        Some(DepExpr::Rule(n)) => matched.contains(n),
        Some(DepExpr::Not(n)) => !matched.contains(n),
        Some(DepExpr::And(parts)) => parts.iter().all(|p| deps_ok(Some(p), matched)),
        Some(DepExpr::Or(parts)) => parts.iter().any(|p| deps_ok(Some(p), matched)),
    }
}

/// Root source span of a match (merge of all pair spans).
fn match_root(m: &MatchState) -> Span {
    m.pairs
        .iter()
        .filter(|p| !p.src.is_synthetic() && !p.src.is_empty())
        .fold(Span::SYNTHETIC, |acc, p| acc.merge(p.src))
}

fn overlaps(a: Span, b: Span) -> bool {
    a.start < b.end && b.start < a.end
}

/// Debug builds (and so every debug test run, whichever crate drives the
/// engine) and this crate's own tests check that an atom-pinned search
/// returned exactly what the full walk returns: the same roots in the
/// same order, with the same pairs and bindings.
#[cfg(any(test, debug_assertions))]
fn check_atom_pinned(
    ctx: &MatchCtx,
    pattern: &cocci_smpl::Pattern,
    tu: &TranslationUnit,
    seed: &Env,
    held: Option<&[MatchState]>,
) {
    if let Some(found) = held {
        let expected = find_matches(ctx, pattern, tu, seed);
        assert_eq!(
            format!("{found:?}"),
            format!("{expected:?}"),
            "atom-pinned search differs from the walk in {}",
            ctx.file
        );
        #[cfg(test)]
        seed_check::atom_pinned();
    }
}

/// Whether to run the reference loop (every tree seed through
/// [`find_matches`], no pins or duplicate skipping): only ever in tests.
#[cfg(not(test))]
fn reference_search() -> bool {
    false
}

#[cfg(test)]
use seed_check::reference_search;

/// Test-only checks that the tree route's seed search is a drop-in for
/// the reference loop, which sends every seed through [`find_matches`].
#[cfg(test)]
pub(crate) mod seed_check {
    use super::*;
    use cocci_smpl::Pattern;
    use std::cell::Cell;

    thread_local! {
        static REFERENCE: Cell<bool> = const { Cell::new(false) };
        static PINNED: Cell<usize> = const { Cell::new(0) };
        static DUPLICATES: Cell<usize> = const { Cell::new(0) };
        static ATOM_PINNED: Cell<usize> = const { Cell::new(0) };
    }

    /// Whether this thread runs the reference loop.
    pub(crate) fn reference_search() -> bool {
        REFERENCE.with(Cell::get)
    }

    /// Run the reference loop on this thread (or stop).
    pub(crate) fn set_reference(on: bool) {
        REFERENCE.with(|r| r.set(on));
    }

    /// (pinned searches, skipped duplicates) checked on this thread so
    /// far.
    pub(crate) fn counts() -> (usize, usize) {
        (PINNED.with(Cell::get), DUPLICATES.with(Cell::get))
    }

    /// Atom-pinned searches checked on this thread so far.
    pub(crate) fn atom_pins() -> usize {
        ATOM_PINNED.with(Cell::get)
    }

    /// Count one atom-pinned search checked against `find_matches`.
    pub(super) fn atom_pinned() {
        ATOM_PINNED.with(|c| c.set(c.get() + 1));
    }

    /// A pinned search returned exactly what `find_matches` returns.
    pub(super) fn pinned(
        ctx: &MatchCtx,
        pattern: &Pattern,
        tu: &TranslationUnit,
        seed: &Env,
        pinned: Option<&[MatchState]>,
    ) {
        if let Some(found) = pinned {
            let expected = find_matches(ctx, pattern, tu, seed);
            assert_eq!(format!("{found:?}"), format!("{expected:?}"));
            PINNED.with(|c| c.set(c.get() + 1));
        }
    }

    /// A skipped duplicate would have found `n` matches, each blocked by
    /// a claim.
    pub(super) fn duplicate(
        ctx: &MatchCtx,
        pattern: &Pattern,
        tu: &TranslationUnit,
        seed: &Env,
        n: usize,
        claimed: &Claims,
    ) {
        let expected = find_matches(ctx, pattern, tu, seed);
        assert_eq!(expected.len(), n);
        for m in &expected {
            let root = match_root(m);
            assert!(!root.is_synthetic() && claimed.blocks(root, m));
        }
        DUPLICATES.with(|c| c.set(c.get() + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocci_smpl::parse_semantic_patch;

    #[test]
    fn unparsable_scripts_fail_each_file_they_run_on() {
        // A body parses once per compiled patch; its parse error is kept
        // and fails every file the rule runs on, with the message a parse
        // per run gave.
        let patch = parse_semantic_patch(
            "@r@\nexpression e;\n@@\nalpha(e);\n\n@script:python s@\nx << r.e;\n@@\ny = x $ 1\n",
        )
        .unwrap();
        let mut patcher = Patcher::new(&patch).unwrap();
        for name in ["a.c", "b.c"] {
            let err = patcher
                .apply(name, "void f(void) { alpha(1); }\n")
                .unwrap_err();
            assert_eq!(
                err.message,
                format!("{name}: script rule: script error: unexpected character `$` in script")
            );
        }
        // Where no environment reaches the script, it never runs.
        let out = patcher.apply("c.c", "void f(void) { beta(1); }\n");
        assert_eq!(out.unwrap(), None);
        let patch =
            parse_semantic_patch("@initialize:python@ @@\nN = $\n\n@@ @@\n- alpha();\n+ beta();\n")
                .unwrap();
        let mut patcher = Patcher::new(&patch).unwrap();
        for name in ["a.c", "b.c"] {
            let err = patcher.apply(name, "void f(void) {}\n").unwrap_err();
            assert_eq!(
                err.message,
                format!(
                    "{name}: initialize block: script error: unexpected character `$` in script"
                )
            );
        }
    }

    #[test]
    fn claim_index_answers_like_the_scan() {
        let group = |g: u32| MatchState {
            witness_group: g,
            ..Default::default()
        };
        // Same-group siblings overlap one another and arrive out of
        // start order; a long claim reaches far past later starts.
        let mut claims = Claims::default();
        for (start, end, g) in [
            (40, 60, 3),
            (10, 50, 3),
            (20, 30, 3),
            (70, 75, 0),
            (0, 5, 0),
        ] {
            claims.insert(Span::new(start, end), g);
        }
        // `blocks` asserts agreement with the scan on every query.
        for start in 0..80 {
            for end in start + 1..=80 {
                for g in [0, 3, 4] {
                    claims.blocks(Span::new(start, end), &group(g));
                }
            }
        }
        assert!(!claims.blocks(Span::new(12, 18), &group(3)), "siblings");
        assert!(claims.blocks(Span::new(12, 18), &group(4)));
        assert!(claims.blocks(Span::new(12, 18), &group(0)));
        assert!(!claims.blocks(Span::new(60, 70), &group(0)), "gap");
        assert!(claims.blocks(Span::new(74, 80), &group(3)));
    }
}
