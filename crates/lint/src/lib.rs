//! `cocci-lint`: load-time static analysis for semantic-patch rules.
//!
//! A semantic patch is a program, and like any program it can be subtly
//! wrong in ways that parse and even compile: a metavariable that is
//! declared but never used, a `+` line referencing a metavariable no
//! `-`/context line can ever bind, an `=~` constraint whose regex cannot
//! match any identifier, a `depends on` edge pointing at a rule that runs
//! *later*. Each of these either silently weakens the rule or guarantees
//! a run-time failure on every file of a large corpus — exactly the kind
//! of defect worth refusing **before** a multi-hour scan starts walking.
//!
//! This crate analyses parsed [`SemanticPatch`]es (pre-compile, so even
//! patches the engine refuses to load can be linted) and emits structured
//! diagnostics as [`cocci_core::findings::Finding`]s, which reuse the
//! engine's text/JSON/SARIF writers. Eight lint classes with stable ids:
//!
//! | id    | default | meaning                                              |
//! |-------|---------|------------------------------------------------------|
//! | SPL01 | warn    | metavariable declared but never used                  |
//! | SPL02 | deny    | `+`-only metavariable can never be bound; script input references an unknown rule or undeclared metavariable |
//! | SPL03 | deny    | `=~` regex can never match an identifier (or is invalid) |
//! | SPL04 | deny    | `depends on` names an unknown rule or one that runs at/after the dependent (a cycle under in-order execution) |
//! | SPL05 | warn    | disjunction branch is dead (duplicate, or shadowed by an earlier catch-all metavariable branch) |
//! | SPL06 | warn    | rule exports no prefilter atoms — the literal sieve cannot prune any file for it |
//! | SPL07 | deny    | `when exists`/`when strict` dots cannot lower to a CFG-routable pattern (the engine refuses such patches at load) |
//! | SPL08 | warn    | rule duplicates an earlier rule's normalized pattern under a second id |
//!
//! SPL07 is calibrated to *exactly* predict `CompiledPatch::compile`'s
//! quantified-dots refusal: it fires iff compilation would fail with the
//! "CFG-routable" error (property-tested in `tests/tests/lint.rs`).
//!
//! `spatch lint` exposes the analysis as a subcommand; scan and apply run
//! it automatically at load (`--no-lint` opts out) and refuse deny-level
//! diagnostics before the corpus walk.

use std::collections::HashMap;
use std::fmt;

use cocci_cast::render::{render_expr, render_stmt};
use cocci_cast::{visit, DotsQuant, Expr, Item, Stmt};
use cocci_core::compile::CompiledRule;
use cocci_core::findings::{Finding, SarifRule};
use cocci_core::{flowmatch, CompiledRuleSet};
use cocci_smpl::prefilter;
use cocci_smpl::{
    Annot, Constraint, DepExpr, FreshPart, MetaDeclKind, Pattern, Rule, SemanticPatch,
    TransformRule,
};

/// How a lint class is enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintLevel {
    /// Suppressed entirely — the diagnostic is not even reported.
    Allow,
    /// Reported, does not fail the run.
    Warn,
    /// Reported and fails the run (exit 1 from `spatch lint`; scan/apply
    /// refuse the patch before walking the corpus).
    Deny,
}

impl fmt::Display for LintLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintLevel::Allow => "allow",
            LintLevel::Warn => "warn",
            LintLevel::Deny => "deny",
        })
    }
}

/// Descriptor of one lint class.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Stable id (`SPL01` … `SPL08`).
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line summary (used as the SARIF rule description).
    pub summary: &'static str,
    /// Default enforcement level.
    pub default: LintLevel,
}

/// All lint classes, ascending by id.
pub const LINTS: [LintInfo; 8] = [
    LintInfo {
        id: "SPL01",
        name: "unused-metavar",
        summary: "metavariable is declared but never used",
        default: LintLevel::Warn,
    },
    LintInfo {
        id: "SPL02",
        name: "unbindable-metavar",
        summary: "metavariable used in `+` context can never be bound, or a script \
                  input references an unknown rule or undeclared metavariable",
        default: LintLevel::Deny,
    },
    LintInfo {
        id: "SPL03",
        name: "unsatisfiable-regex",
        summary: "`=~` constraint can never match an identifier",
        default: LintLevel::Deny,
    },
    LintInfo {
        id: "SPL04",
        name: "bad-dependency",
        summary: "`depends on` names an unknown rule or one that runs at/after the \
                  dependent rule",
        default: LintLevel::Deny,
    },
    LintInfo {
        id: "SPL05",
        name: "subsumed-branch",
        summary: "disjunction branch is dead: duplicate of, or shadowed by, an \
                  earlier branch",
        default: LintLevel::Warn,
    },
    LintInfo {
        id: "SPL06",
        name: "no-prefilter",
        summary: "rule has no prefilter atoms; the literal sieve cannot prune any \
                  corpus file for it",
        default: LintLevel::Warn,
    },
    LintInfo {
        id: "SPL07",
        name: "unroutable-dots",
        summary: "`when exists`/`when strict` dots cannot lower to a CFG-routable \
                  pattern; the engine refuses the patch at load",
        default: LintLevel::Deny,
    },
    LintInfo {
        id: "SPL08",
        name: "duplicate-rule",
        summary: "rule duplicates an earlier rule's normalized pattern under a \
                  second id",
        default: LintLevel::Warn,
    },
];

/// Look up a lint descriptor by id (`SPL03`) or name (`unsatisfiable-regex`),
/// case-insensitively.
pub fn lint_info(key: &str) -> Option<&'static LintInfo> {
    LINTS
        .iter()
        .find(|l| l.id.eq_ignore_ascii_case(key) || l.name.eq_ignore_ascii_case(key))
}

/// Per-run enforcement configuration: the default level of each class,
/// overridden per id by `--deny/--warn/--allow`.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    overrides: HashMap<&'static str, LintLevel>,
}

impl LintConfig {
    /// Override the level of one lint, addressed by id or name.
    pub fn set(&mut self, key: &str, level: LintLevel) -> Result<(), String> {
        match lint_info(key) {
            Some(info) => {
                self.overrides.insert(info.id, level);
                Ok(())
            }
            None => Err(format!(
                "unknown lint `{key}` (known: SPL01..SPL08, or names like `unused-metavar`)"
            )),
        }
    }

    /// Effective level of the lint with this id.
    pub fn level(&self, id: &str) -> LintLevel {
        match self.overrides.get(id) {
            Some(l) => *l,
            None => lint_info(id).map_or(LintLevel::Warn, |i| i.default),
        }
    }
}

/// One diagnostic: a lint id, its effective level, and the rendered
/// finding (pointing into the rule source file, lint id as the rule name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Stable class id (`SPL01` … `SPL08`).
    pub id: &'static str,
    /// Effective level under the run's [`LintConfig`].
    pub level: LintLevel,
    /// The diagnostic in the engine's common findings shape.
    pub finding: Finding,
}

/// Whether any diagnostic in `lints` is deny-level.
pub fn has_deny(lints: &[Lint]) -> bool {
    lints.iter().any(|l| l.level == LintLevel::Deny)
}

/// SARIF rule descriptors for every lint class not allowed-away under
/// `cfg` (deny maps to SARIF `error`, warn to `warning`).
pub fn sarif_rules(cfg: &LintConfig) -> Vec<SarifRule> {
    LINTS
        .iter()
        .filter(|l| cfg.level(l.id) != LintLevel::Allow)
        .map(|l| SarifRule {
            id: l.id.to_string(),
            level: match cfg.level(l.id) {
                LintLevel::Deny => "error",
                _ => "warning",
            },
            description: format!("{}: {}", l.name, l.summary),
        })
        .collect()
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Word-boundary occurrences of `needle` in `hay`. Rule lines and
/// metavariable names are short, so a plain byte scan beats setting up a
/// substring searcher per call.
fn word_count(hay: &str, needle: &str) -> usize {
    let (hay, needle) = (hay.as_bytes(), needle.as_bytes());
    let Some(&first) = needle.first() else {
        return 0;
    };
    if needle.len() > hay.len() {
        return 0;
    }
    (0..=hay.len() - needle.len())
        .filter(|&at| {
            let end = at + needle.len();
            hay[at] == first
                && &hay[at..end] == needle
                && (at == 0 || !is_word(hay[at - 1]))
                && hay.get(end).is_none_or(|&b| !is_word(b))
        })
        .count()
}

fn mk(id: &'static str, level: LintLevel, source: &str, line: u32, message: String) -> Lint {
    Lint {
        id,
        level,
        finding: Finding {
            path: source.to_string(),
            line,
            col: 1,
            end_line: line,
            end_col: 1,
            rule: id.to_string(),
            message,
            bindings: Vec::new(),
        },
    }
}

/// Collect `(name, negated)` leaves of a dependency expression.
fn dep_leaves<'a>(d: &'a DepExpr, out: &mut Vec<(&'a str, bool)>) {
    match d {
        DepExpr::Rule(n) => out.push((n, false)),
        DepExpr::Not(n) => out.push((n, true)),
        DepExpr::And(cs) | DepExpr::Or(cs) => {
            for c in cs {
                dep_leaves(c, out);
            }
        }
    }
}

/// Append a dependency expression to `sig` in a canonical prefix form.
fn push_dep(sig: &mut String, d: &DepExpr) {
    match d {
        DepExpr::Rule(n) => {
            sig.push('r');
            sig.push_str(n);
        }
        DepExpr::Not(n) => {
            sig.push('!');
            sig.push_str(n);
        }
        DepExpr::And(cs) | DepExpr::Or(cs) => {
            sig.push(if matches!(d, DepExpr::And(_)) {
                '&'
            } else {
                '/'
            });
            sig.push('(');
            for c in cs {
                push_dep(sig, c);
                sig.push(',');
            }
            sig.push(')');
        }
    }
}

/// Append one metavariable declaration to `sig`.
fn push_decl(sig: &mut String, m: &cocci_smpl::MetaDecl) {
    sig.push_str(match &m.kind {
        MetaDeclKind::Type => "ty",
        MetaDeclKind::Identifier => "id",
        MetaDeclKind::FreshIdentifier(_) => "fresh",
        MetaDeclKind::Expression => "exp",
        MetaDeclKind::ExpressionList => "expl",
        MetaDeclKind::Statement => "stm",
        MetaDeclKind::StatementList => "stml",
        MetaDeclKind::ParameterList => "parl",
        MetaDeclKind::Constant => "const",
        MetaDeclKind::Function => "fn",
        MetaDeclKind::Symbol => "sym",
        MetaDeclKind::Position => "pos",
        MetaDeclKind::PragmaInfo => "pragma",
    });
    if let MetaDeclKind::FreshIdentifier(parts) = &m.kind {
        sig.push('(');
        for p in parts {
            match p {
                FreshPart::Lit(s) => {
                    sig.push('"');
                    sig.push_str(s);
                }
                FreshPart::MetaRef(n) => {
                    sig.push('$');
                    sig.push_str(n);
                }
            }
        }
        sig.push(')');
    }
    sig.push(' ');
    sig.push_str(&m.name);
    match &m.constraint {
        None => {}
        Some(Constraint::Regex(re)) => {
            sig.push_str("=~");
            sig.push_str(re);
        }
        Some(Constraint::NotRegex(re)) => {
            sig.push_str("!~");
            sig.push_str(re);
        }
        Some(Constraint::Set(vals)) => {
            sig.push_str("={");
            for v in vals {
                sig.push_str(v);
                sig.push(',');
            }
            sig.push('}');
        }
    }
    if let Some(from) = &m.inherited_from {
        sig.push('<');
        sig.push_str(from);
    }
    sig.push(';');
}

/// Normalized signature of a patch's transform rules: per-line annotation
/// plus the line's token texts (so indentation and intra-line spacing do
/// not matter), together with metavariable and dependency shape. Two
/// rules with equal signatures match and rewrite identically. `None` when
/// the patch has no transform rule (nothing to deduplicate).
pub fn patch_signature(patch: &SemanticPatch) -> Option<String> {
    let mut sig = String::with_capacity(256);
    write_signature(patch, &mut sig).then_some(sig)
}

/// Append [`patch_signature`]'s text to `sig`; `false` when the patch
/// has no transform rule.
fn write_signature(patch: &SemanticPatch, sig: &mut String) -> bool {
    let mut transforms = 0usize;
    for rule in &patch.rules {
        if let Rule::Transform(t) = rule {
            transforms += 1;
            if transforms > 1 {
                sig.push('\u{1f}');
            }
            if let Some(d) = &t.depends {
                push_dep(sig, d);
            }
            sig.push('|');
            for m in &t.metavars {
                push_decl(sig, m);
            }
            sig.push('|');
            for l in &t.body.lines {
                sig.push(match l.annot {
                    Annot::Context => ' ',
                    Annot::Minus => '-',
                    Annot::Plus => '+',
                });
                if l.tokens.is_empty() {
                    // Lines that do not lex in isolation (comment-only
                    // `+` lines): fall back to collapsed text.
                    for w in l.text.split_whitespace() {
                        sig.push(' ');
                        sig.push_str(w);
                    }
                } else {
                    for tok in &l.tokens {
                        sig.push(' ');
                        sig.push_str(tok.text(&t.body.raw));
                    }
                }
                sig.push('\n');
            }
        }
    }
    transforms > 0
}

/// A 64-bit hash of a signature text: one multiply-rotate round per
/// 8-byte word.
fn sig_hash(sig: &str) -> u64 {
    sig.as_bytes().chunks(8).fold(sig.len() as u64, |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Lint one parsed patch (classes SPL01–SPL07). `source` names the rule
/// file in diagnostics; `text` (the raw patch source, when available)
/// anchors findings at rule header lines. Allowed-away classes are
/// omitted from the result.
pub fn lint_patch(
    patch: &SemanticPatch,
    source: &str,
    text: Option<&str>,
    cfg: &LintConfig,
) -> Vec<Lint> {
    lint_patch_impl(patch, source, text, cfg, None)
}

/// Worker behind [`lint_patch`] and [`lint_ruleset`]. `compiled`, when
/// given, is aligned with `patch.rules` and answers SPL06's "does this
/// transform rule export prefilter atoms?" from the compile-time cache,
/// sparing a second pattern walk per rule.
fn lint_patch_impl(
    patch: &SemanticPatch,
    source: &str,
    text: Option<&str>,
    cfg: &LintConfig,
    compiled: Option<&[CompiledRule]>,
) -> Vec<Lint> {
    let mut out = Vec::new();
    let mut emit = |id: &'static str, line: u32, message: String| {
        let level = cfg.level(id);
        if level != LintLevel::Allow {
            out.push(mk(id, level, source, line, message));
        }
    };

    // Metavariables referenced outside their declaring rule: inherited
    // declarations of later rules and script inputs. A reference
    // anywhere counts as "used" for SPL01.
    let mut external: Vec<(&str, &str)> = Vec::new();
    for rule in &patch.rules {
        match rule {
            Rule::Transform(t) => {
                for m in &t.metavars {
                    if let Some(from) = &m.inherited_from {
                        external.push((from.as_str(), m.name.as_str()));
                    }
                }
            }
            Rule::Script(s) => {
                for (_, from, var) in &s.inputs {
                    external.push((from.as_str(), var.as_str()));
                }
            }
            _ => {}
        }
    }

    // First occurrence index of every named rule, for SPL04 ordering.
    // Built only when some rule actually declares a dependency.
    let mut name_index: HashMap<&str, usize> = HashMap::new();
    let any_depends = patch.rules.iter().any(|rule| match rule {
        Rule::Transform(t) => t.depends.is_some(),
        Rule::Script(s) => s.depends.is_some(),
        _ => false,
    });
    if any_depends {
        for (i, rule) in patch.rules.iter().enumerate() {
            if let Some(n) = rule.name() {
                name_index.entry(n).or_insert(i);
            }
        }
    }

    // Metavariables each named earlier rule exports — mirror of the
    // compile-time registry, for the SPL02 script-input check. Only
    // populated when a script rule exists to consume it.
    let mut exported: HashMap<&str, Vec<&str>> = HashMap::new();
    let any_script = patch.rules.iter().any(|r| matches!(r, Rule::Script(_)));

    for (ri, rule) in patch.rules.iter().enumerate() {
        let rn = rule.name().unwrap_or("<anonymous>");
        // The parser recorded where the rule's header sits in `text`.
        let line = text.map_or(1, |_| rule.header_line() as u32);

        // SPL04: dependency edges, for transform and script rules alike.
        let depends = match rule {
            Rule::Transform(t) => t.depends.as_ref(),
            Rule::Script(s) => s.depends.as_ref(),
            _ => None,
        };
        if let Some(dep) = depends {
            let mut leaves = Vec::new();
            dep_leaves(dep, &mut leaves);
            for (n, negated) in leaves {
                match name_index.get(n) {
                    None => emit(
                        "SPL04",
                        line,
                        format!("rule {rn}: depends on unknown rule `{n}`"),
                    ),
                    Some(&di) if di >= ri && !negated => emit(
                        "SPL04",
                        line,
                        format!(
                            "rule {rn}: depends on rule `{n}` which runs at or after it — \
                             rules execute in order, so this dependency can never be \
                             satisfied"
                        ),
                    ),
                    Some(&di) if di >= ri && negated => emit(
                        "SPL04",
                        line,
                        format!(
                            "rule {rn}: `depends on !{n}` references rule `{n}` which runs \
                             at or after it — the negation is always true (dead constraint)"
                        ),
                    ),
                    Some(_) => {}
                }
            }
        }

        match rule {
            Rule::Transform(t) => {
                let no_atoms = compiled
                    .and_then(|rules| rules.get(ri)?.atoms.as_ref())
                    .map(|atoms| atoms.is_empty());
                lint_transform(t, rn, line, &external, no_atoms, &mut emit);
                if any_script {
                    if let Some(name) = &t.name {
                        exported
                            .entry(name.as_str())
                            .or_default()
                            .extend(t.metavars.iter().map(|m| m.name.as_str()));
                    }
                }
            }
            Rule::Script(s) => {
                // SPL02 (script half): inputs must resolve to an earlier
                // rule's exports — the same condition the compiler
                // refuses on; linting reports it pre-compile.
                for (local, from, var) in &s.inputs {
                    match exported.get(from.as_str()) {
                        None => emit(
                            "SPL02",
                            line,
                            format!(
                                "script rule {rn}: input `{local} << {from}.{var}` references \
                                 unknown rule `{from}` (no earlier rule has that name)"
                            ),
                        ),
                        Some(vars) if !vars.contains(&var.as_str()) => emit(
                            "SPL02",
                            line,
                            format!(
                                "script rule {rn}: input `{local} << {from}.{var}` references \
                                 undeclared metavariable `{var}` of rule `{from}`"
                            ),
                        ),
                        Some(_) => {}
                    }
                }
                if let Some(name) = &s.name {
                    exported
                        .entry(name.as_str())
                        .or_default()
                        .extend(s.outputs.iter().map(String::as_str));
                }
            }
            _ => {}
        }
    }
    out
}

/// Classes SPL01/SPL02/SPL03/SPL05/SPL06/SPL07 for one transform rule.
/// `no_atoms`, when known from the compile-time cache, answers SPL06
/// without re-walking the pattern.
fn lint_transform(
    t: &TransformRule,
    rn: &str,
    line: u32,
    external: &[(&str, &str)],
    no_atoms: Option<bool>,
    emit: &mut impl FnMut(&'static str, u32, String),
) {
    // Occurrence counts over body lines in one pass, split by
    // bindability: context and `-` lines can bind a metavariable, `+`
    // lines only consume.
    let count_in = |name: &str| -> (usize, usize) {
        let mut bindable = 0;
        let mut plus = 0;
        for l in &t.body.lines {
            let n = word_count(&l.text, name);
            if l.annot == Annot::Plus {
                plus += n;
            } else {
                bindable += n;
            }
        }
        (bindable, plus)
    };

    for m in &t.metavars {
        let (bindable, plus) = count_in(&m.name);
        let fresh_ref = t.metavars.iter().any(|o| {
            matches!(&o.kind, MetaDeclKind::FreshIdentifier(parts)
                if parts.iter().any(|p| matches!(p, FreshPart::MetaRef(r) if r == &m.name)))
        });
        let used_externally = t
            .name
            .as_deref()
            .is_some_and(|n| external.contains(&(n, m.name.as_str())));

        // SPL01: declared but never referenced — not in the body, not by
        // a fresh-identifier template, not inherited by a later rule or
        // script.
        if bindable + plus == 0 && !fresh_ref && !used_externally {
            emit(
                "SPL01",
                line,
                format!(
                    "rule {rn}: metavariable `{}` is declared but never used",
                    m.name
                ),
            );
        }

        // SPL02: referenced only from `+` lines, so no match can ever
        // bind it — substitution fails on every match at run time.
        // Fresh identifiers are synthesized, `symbol` is a literal name,
        // positions bind at match sites, and inherited metavariables are
        // bound by their source rule; none of those need a local binding
        // occurrence.
        let needs_binding = !matches!(
            m.kind,
            MetaDeclKind::FreshIdentifier(_) | MetaDeclKind::Symbol | MetaDeclKind::Position
        ) && m.inherited_from.is_none();
        if needs_binding && plus > 0 && bindable == 0 {
            emit(
                "SPL02",
                line,
                format!(
                    "rule {rn}: metavariable `{}` appears only in `+` lines and can never \
                     be bound — substitution would fail on every match",
                    m.name
                ),
            );
        }

        // SPL03: an `=~` constraint on an identifier-valued metavariable
        // whose regex admits no string over the identifier alphabet
        // `[A-Za-z0-9_]` — the rule parses and compiles but can never
        // match. Invalid regexes are reported here too (the compiler
        // would refuse them later with less context).
        let identifier_valued = matches!(
            m.kind,
            MetaDeclKind::Identifier | MetaDeclKind::Function | MetaDeclKind::Symbol
        );
        match &m.constraint {
            Some(Constraint::Regex(re)) | Some(Constraint::NotRegex(re)) => {
                match cocci_rex::Regex::new(re) {
                    Err(err) => emit(
                        "SPL03",
                        line,
                        format!("rule {rn}: invalid regex on `{}`: {err}", m.name),
                    ),
                    Ok(compiled)
                        if identifier_valued
                            && matches!(m.constraint, Some(Constraint::Regex(_)))
                            && !compiled.can_match_identifier() =>
                    {
                        emit(
                            "SPL03",
                            line,
                            format!(
                                "rule {rn}: `=~ \"{re}\"` on `{}` can never match — identifiers \
                                 draw only on [A-Za-z0-9_]",
                                m.name
                            ),
                        );
                    }
                    Ok(_) => {}
                }
            }
            _ => {}
        }
    }

    // SPL05: dead disjunction branches. Every disjunction opens with a
    // `\(` token, so a body without that text has none.
    if t.body.raw.contains("\\(") {
        lint_disjunctions(t, rn, line, emit);
    }

    // SPL06: no guaranteed literal atoms — the corpus prefilter cannot
    // prune a single file for this rule, forcing a parse of everything.
    // Worth knowing before pointing the rule at a million-file tree.
    if no_atoms.unwrap_or_else(|| prefilter::rule_atoms(t).is_empty()) {
        emit(
            "SPL06",
            line,
            format!(
                "rule {rn}: no prefilter atoms — the literal sieve cannot prune any corpus \
                 file for this rule; every file will be parsed"
            ),
        );
    }

    // SPL07: quantified dots the engine cannot route through the CFG.
    // Mirrors the compile-time refusal exactly: compilation computes a
    // flow lowering only for `Pattern::Stmts` with top-level dots, and
    // refuses when any explicit quantifier exists without one.
    let quants = t.body.pattern.statement_dots_quants();
    if quants.iter().any(|q| *q != DotsQuant::Default) {
        let routable = match &t.body.pattern {
            Pattern::Stmts(stmts) => {
                t.body.pattern.has_statement_dots() && flowmatch::lower_pattern(stmts).is_some()
            }
            _ => false,
        };
        if !routable {
            emit(
                "SPL07",
                line,
                format!(
                    "rule {rn}: `when exists` / `when strict` need a CFG-routable pattern \
                     (simple statement anchors around top-level dots) — the engine refuses \
                     this patch at load"
                ),
            );
        }
    }
}

/// SPL05 over every disjunction in the rule's pattern: a branch whose
/// normalized rendering equals an earlier branch's is a dead arm, and a
/// bare `expression`-metavariable branch shadows everything after it.
fn lint_disjunctions(
    t: &TransformRule,
    rn: &str,
    line: u32,
    emit: &mut impl FnMut(&'static str, u32, String),
) {
    let mut disjs: Vec<&Expr> = Vec::new();
    let mut groups: Vec<&Vec<Vec<Stmt>>> = Vec::new();

    fn collect<'a>(
        stmts: &'a [Stmt],
        disjs: &mut Vec<&'a Expr>,
        groups: &mut Vec<&'a Vec<Vec<Stmt>>>,
    ) {
        for s in stmts {
            visit::walk_stmt(s, &mut |st| {
                if let Stmt::PatGroup {
                    conj: false,
                    branches,
                    ..
                } = st
                {
                    groups.push(branches);
                }
            });
            visit::deep_stmt_exprs(s, &mut |e| {
                if matches!(e, Expr::Disj { .. }) {
                    disjs.push(e);
                }
            });
        }
    }

    match &t.body.pattern {
        Pattern::Expr(e) => visit::walk_expr(e, &mut |sub| {
            if matches!(sub, Expr::Disj { .. }) {
                disjs.push(sub);
            }
        }),
        Pattern::Stmts(stmts) => collect(stmts, &mut disjs, &mut groups),
        Pattern::Items(items) => {
            for it in items {
                if let Item::Function(f) = it {
                    collect(&f.body.stmts, &mut disjs, &mut groups);
                }
            }
        }
    }

    for d in disjs {
        let Expr::Disj { branches, .. } = d else {
            continue;
        };
        let mut seen: Vec<(String, usize)> = Vec::new();
        for (bi, b) in branches.iter().enumerate() {
            let norm = render_expr(b);
            if let Some((_, fi)) = seen.iter().find(|(s, _)| *s == norm) {
                emit(
                    "SPL05",
                    line,
                    format!(
                        "rule {rn}: disjunction branch {} duplicates branch {} (dead arm)",
                        bi + 1,
                        fi + 1
                    ),
                );
            } else {
                seen.push((norm, bi));
            }
        }
        // A bare `expression` metavariable matches any expression; every
        // branch after it is unreachable.
        if let Some(ci) = branches.iter().position(|b| {
            b.unparen().as_ident().is_some_and(|id| {
                t.metavar(id.name.as_str())
                    .is_some_and(|m| m.kind == MetaDeclKind::Expression)
            })
        }) {
            if ci + 1 < branches.len() {
                emit(
                    "SPL05",
                    line,
                    format!(
                        "rule {rn}: disjunction branch {} is a bare `expression` \
                         metavariable that matches anything — the {} later branch(es) \
                         are dead",
                        ci + 1,
                        branches.len() - ci - 1
                    ),
                );
            }
        }
    }

    for branches in groups {
        let mut seen: Vec<(String, usize)> = Vec::new();
        for (bi, b) in branches.iter().enumerate() {
            let norm = b.iter().map(render_stmt).collect::<Vec<_>>().join(" ");
            if let Some((_, fi)) = seen.iter().find(|(s, _)| *s == norm) {
                emit(
                    "SPL05",
                    line,
                    format!(
                        "rule {rn}: pattern-group branch {} duplicates branch {} (dead arm)",
                        bi + 1,
                        fi + 1
                    ),
                );
            } else {
                seen.push((norm, bi));
            }
        }
    }
}

/// SPL08 across a set of rules: the same normalized pattern signature
/// registered under two different ids. Entries are `(id, source, patch)`
/// in scan order; the first occurrence wins, later ones are flagged.
pub fn lint_duplicates(entries: &[(&str, &str, &SemanticPatch)], cfg: &LintConfig) -> Vec<Lint> {
    let level = cfg.level("SPL08");
    if level == LintLevel::Allow {
        return Vec::new();
    }
    // Signatures are compared by hash, written one after another into one
    // buffer, and equal hashes are confirmed by comparing the texts.
    let mut sig = String::new();
    let mut keyed: Vec<(u64, usize)> = Vec::with_capacity(entries.len());
    for (i, (_, _, patch)) in entries.iter().enumerate() {
        sig.clear();
        if write_signature(patch, &mut sig) {
            keyed.push((sig_hash(&sig), i));
        }
    }
    keyed.sort_unstable();
    // (later entry, first entry with its signature) in entry order.
    let mut twins: Vec<(usize, usize)> = Vec::new();
    for same_hash in keyed
        .chunk_by(|a, b| a.0 == b.0)
        .filter(|run| run.len() > 1)
    {
        let mut firsts: Vec<(usize, Option<String>)> = Vec::new();
        for &(_, i) in same_hash {
            let sig = patch_signature(entries[i].2);
            match firsts.iter().find(|(_, s)| *s == sig) {
                Some(&(fi, _)) => twins.push((i, fi)),
                None => firsts.push((i, sig)),
            }
        }
    }
    twins.sort_unstable();
    let mut out = Vec::new();
    for (i, fi) in twins {
        let (id, source, _) = entries[i];
        let (first_id, first_src, _) = entries[fi];
        if first_id != id {
            out.push(mk(
                "SPL08",
                level,
                source,
                1,
                format!(
                    "rule `{id}` duplicates rule `{first_id}` ({first_src}): \
                     identical normalized pattern under a second id"
                ),
            ));
        }
    }
    out
}

/// Lint every rule of a compiled scan set (SPL01–SPL07 per rule, SPL08
/// across the set). Used by scan-mode lint-at-load, where the patches
/// are already parsed and compiled.
pub fn lint_ruleset(set: &CompiledRuleSet, cfg: &LintConfig) -> Vec<Lint> {
    let mut out = Vec::new();
    for r in &set.rules {
        // SPL06 reads the prefilter atoms the compiler already extracted
        // instead of re-walking each rule's pattern.
        out.extend(lint_patch_impl(
            &r.compiled.patch,
            &r.meta.source,
            Some(&r.meta.text),
            cfg,
            Some(&r.compiled.rules),
        ));
    }
    let entries: Vec<(&str, &str, &SemanticPatch)> = set
        .rules
        .iter()
        .map(|r| {
            (
                r.meta.id.as_str(),
                r.meta.source.as_str(),
                &r.compiled.patch,
            )
        })
        .collect();
    out.extend(lint_duplicates(&entries, cfg));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocci_smpl::parse_semantic_patch;

    fn lint_src(src: &str) -> Vec<Lint> {
        let patch = parse_semantic_patch(src).expect("fixture parses");
        lint_patch(&patch, "fixture.cocci", Some(src), &LintConfig::default())
    }

    fn ids(lints: &[Lint]) -> Vec<&'static str> {
        lints.iter().map(|l| l.id).collect()
    }

    #[test]
    fn spl01_unused_metavar_fires() {
        let l = lint_src(
            "@r@\nexpression e;\nidentifier dead;\n@@\n- old_probe(e);\n+ new_probe(e);\n",
        );
        assert_eq!(ids(&l), vec!["SPL01"]);
        assert_eq!(l[0].level, LintLevel::Warn);
        assert!(
            l[0].finding.message.contains("`dead`"),
            "{}",
            l[0].finding.message
        );
        assert_eq!(l[0].finding.path, "fixture.cocci");
        assert_eq!(l[0].finding.line, 1, "anchored at the @r@ header");
        assert_eq!(l[0].finding.rule, "SPL01");
    }

    #[test]
    fn spl01_clean_when_all_metavars_used() {
        let l = lint_src("@r@\nexpression e;\n@@\n- old_probe(e);\n+ new_probe(e);\n");
        assert!(l.is_empty(), "{l:?}");
    }

    #[test]
    fn spl01_fresh_template_reference_counts_as_use() {
        // `f` appears in the body; `g` only on a `+` line, but it is a
        // fresh identifier (synthesized, not bound) — no SPL01, no SPL02.
        let l = lint_src(
            "@r@\nidentifier f;\nfresh identifier g = \"wrap_\" ## f;\n@@\n- reg(f);\n+ reg(g);\n",
        );
        assert!(l.is_empty(), "{l:?}");
    }

    #[test]
    fn spl01_script_inheritance_counts_as_use() {
        // `p` is consumed by the script even though the transform body
        // also uses it; removing the body use entirely still keeps the
        // declaration referenced (via `a.p`), so no SPL01 for `p`.
        let src = "@a@\nidentifier f;\nposition p;\n@@\n- probe(f)@p;\n\n\
                   @script:python s@\nwhere << a.p;\n@@\nprint(where)\n";
        let l = lint_src(src);
        assert!(l.is_empty(), "{l:?}");
    }

    #[test]
    fn spl02_plus_only_metavar_fires() {
        let l = lint_src("@r@\nidentifier g;\n@@\n- old_call();\n+ g();\n");
        assert_eq!(ids(&l), vec!["SPL02"]);
        assert_eq!(l[0].level, LintLevel::Deny);
        assert!(l[0].finding.message.contains("can never be bound"));
    }

    #[test]
    fn spl02_clean_when_bound_in_minus() {
        let l = lint_src("@r@\nidentifier g;\n@@\n- old_call(g);\n+ new_call(g);\n");
        assert!(l.is_empty(), "{l:?}");
    }

    #[test]
    fn spl02_script_input_unknown_rule_fires() {
        let src = "@a@\nexpression e;\n@@\n- f(e);\n\n\
                   @script:python s@\nx << nope.e;\n@@\nprint(x)\n";
        let l = lint_src(src);
        assert_eq!(ids(&l), vec!["SPL02"]);
        assert!(l[0].finding.message.contains("unknown rule `nope`"));
    }

    #[test]
    fn spl02_script_input_undeclared_metavar_fires() {
        let src = "@a@\nexpression e;\n@@\n- f(e);\n\n\
                   @script:python s@\nx << a.missing;\n@@\nprint(x)\n";
        let l = lint_src(src);
        assert_eq!(ids(&l), vec!["SPL02"]);
        assert!(l[0]
            .finding
            .message
            .contains("undeclared metavariable `missing`"));
    }

    #[test]
    fn spl03_unsatisfiable_regex_fires() {
        let l = lint_src("@r@\nidentifier f =~ \"foo-bar\";\n@@\n- f();\n");
        assert_eq!(ids(&l), vec!["SPL03"]);
        assert_eq!(l[0].level, LintLevel::Deny);
        assert!(l[0].finding.message.contains("can never match"));
    }

    #[test]
    fn spl03_satisfiable_regex_clean() {
        let l = lint_src("@r@\nidentifier f =~ \"^probe_\";\n@@\n- f();\n");
        assert!(l.is_empty(), "{l:?}");
    }

    #[test]
    fn spl03_expression_regex_not_flagged() {
        // `=~` on an expression binds rendered text that may contain
        // characters outside the identifier alphabet — out of scope.
        let l = lint_src("@r@\nexpression e =~ \"foo-bar\";\n@@\n- probe(e);\n");
        assert!(l.is_empty(), "{l:?}");
    }

    #[test]
    fn spl04_unknown_dependency_fires() {
        let src = "@a@\nexpression e;\n@@\n- f(e);\n\n\
                   @b depends on nope@\nexpression x;\n@@\n- g(x);\n";
        let l = lint_src(src);
        assert_eq!(ids(&l), vec!["SPL04"]);
        assert!(l[0].finding.message.contains("unknown rule `nope`"));
        assert_eq!(l[0].finding.line, 6, "anchored at the @b …@ header");
    }

    #[test]
    fn spl04_forward_dependency_fires() {
        let src = "@a depends on b@\nexpression e;\n@@\n- f(e);\n\n\
                   @b@\nexpression x;\n@@\n- g(x);\n";
        let l = lint_src(src);
        assert_eq!(ids(&l), vec!["SPL04"]);
        assert!(l[0].finding.message.contains("never be satisfied"));
    }

    #[test]
    fn spl04_backward_dependency_clean() {
        let src = "@a@\nexpression e;\n@@\n- f(e);\n\n\
                   @b depends on a@\nexpression x;\n@@\n- g(x);\n";
        let l = lint_src(src);
        assert!(l.is_empty(), "{l:?}");
    }

    #[test]
    fn spl05_duplicate_branch_fires() {
        let l = lint_src("@r@\nexpression e;\n@@\n- \\( foo(e) \\| foo(e) \\)\n+ bar(e);\n");
        assert_eq!(ids(&l), vec!["SPL05"]);
        assert!(l[0].finding.message.contains("duplicates branch 1"));
    }

    #[test]
    fn spl05_catchall_metavar_branch_fires() {
        let l = lint_src("@r@\nexpression e;\n@@\n- probe(\\( e \\| foo() \\));\n");
        assert!(ids(&l).contains(&"SPL05"), "{l:?}");
        let m = &l.iter().find(|l| l.id == "SPL05").unwrap().finding.message;
        assert!(m.contains("matches anything"), "{m}");
    }

    #[test]
    fn spl05_distinct_branches_clean() {
        // (wrapped in `probe(…)` so the rule keeps a guaranteed prefilter
        // atom — a bare disjunction would also fire SPL06)
        let l = lint_src("@r@\nexpression e;\n@@\n- probe(\\( foo(e) \\| bar(e) \\));\n");
        assert!(l.is_empty(), "{l:?}");
    }

    #[test]
    fn spl06_no_atoms_fires() {
        let l = lint_src("@r@\nexpression e1;\nexpression e2;\n@@\n- e1 = e2;\n");
        assert_eq!(ids(&l), vec!["SPL06"]);
        assert_eq!(l[0].level, LintLevel::Warn);
    }

    #[test]
    fn spl06_literal_atom_clean() {
        let l = lint_src("@r@\nexpression e1;\nexpression e2;\n@@\n- probe(e1, e2);\n");
        assert!(l.is_empty(), "{l:?}");
    }

    #[test]
    fn spl07_unroutable_quantified_dots_fires() {
        // `when exists` on dots nested in a sub-block: only the tree
        // matcher would visit them, so the engine refuses at compile —
        // and the lint predicts it.
        let src = "@r@\n@@\n- probe_begin();\n- { ... when exists }\n";
        let patch = parse_semantic_patch(src).expect("parses");
        let l = lint_patch(&patch, "f.cocci", Some(src), &LintConfig::default());
        assert!(ids(&l).contains(&"SPL07"), "{l:?}");
        assert!(cocci_core::CompiledPatch::compile(&patch).is_err());
    }

    #[test]
    fn spl07_routable_quantified_dots_clean() {
        let src = "@@\nexpression b;\n@@\n- probe_begin(b);\n+ probe_enter(b);\n\
                   ... when exists\nprobe_end(b);\n";
        let patch = parse_semantic_patch(src).expect("parses");
        let l = lint_patch(&patch, "f.cocci", Some(src), &LintConfig::default());
        assert!(!ids(&l).contains(&"SPL07"), "{l:?}");
        assert!(cocci_core::CompiledPatch::compile(&patch).is_ok());
    }

    #[test]
    fn spl08_duplicate_rules_fire() {
        let a = parse_semantic_patch("@@\nexpression e;\n@@\n- f(e);\n+ g(e);\n").unwrap();
        let b = parse_semantic_patch("@@\nexpression e;\n@@\n-   f( e );\n+   g( e );\n").unwrap();
        let c = parse_semantic_patch("@@\nexpression e;\n@@\n- h(e);\n+ g(e);\n").unwrap();
        let cfg = LintConfig::default();
        let entries = vec![
            ("first", "rules/first.cocci", &a),
            ("second", "rules/second.cocci", &b),
            ("third", "rules/third.cocci", &c),
        ];
        let l = lint_duplicates(&entries, &cfg);
        assert_eq!(ids(&l), vec!["SPL08"]);
        assert!(l[0].finding.message.contains("duplicates rule `first`"));
        assert_eq!(l[0].finding.path, "rules/second.cocci");
    }

    #[test]
    fn every_rule_anchors_at_its_own_header() {
        // An anonymous rule and a script rule anchor where the parser
        // read their headers.
        let src = "// leading comment\n@@\nexpression e, dead;\n@@\n- f(e);\n+ g(e);\n\n\
                   @script:python s depends on nope@\n@@\nprint(1)\n";
        let l = lint_src(src);
        let at: Vec<(&str, u32)> = l.iter().map(|l| (l.id, l.finding.line)).collect();
        assert_eq!(at, [("SPL01", 2), ("SPL04", 8)]);
    }

    #[test]
    fn spl08_same_id_not_flagged() {
        // The same id twice is a *load* error (duplicate id), not a lint;
        // and re-listing one patch under one id is not a duplicate.
        let a = parse_semantic_patch("@@\nexpression e;\n@@\n- f(e);\n+ g(e);\n").unwrap();
        let entries = vec![("only", "a.cocci", &a), ("only", "b.cocci", &a)];
        assert!(lint_duplicates(&entries, &LintConfig::default()).is_empty());
    }

    #[test]
    fn config_overrides_and_allow_suppression() {
        let mut cfg = LintConfig::default();
        cfg.set("SPL01", LintLevel::Deny).unwrap();
        cfg.set("unsatisfiable-regex", LintLevel::Allow).unwrap();
        assert!(cfg.set("SPL99", LintLevel::Deny).is_err());
        let src = "@r@\nidentifier dead;\nidentifier f =~ \"foo-bar\";\n@@\n- f();\n";
        let patch = parse_semantic_patch(src).unwrap();
        let l = lint_patch(&patch, "x.cocci", Some(src), &cfg);
        // SPL03 allowed away; SPL01 upgraded to deny.
        assert_eq!(ids(&l), vec!["SPL01"]);
        assert_eq!(l[0].level, LintLevel::Deny);
        assert!(has_deny(&l));
    }

    #[test]
    fn sarif_rule_descriptors_follow_config() {
        let mut cfg = LintConfig::default();
        cfg.set("SPL06", LintLevel::Allow).unwrap();
        let rules = sarif_rules(&cfg);
        assert_eq!(rules.len(), LINTS.len() - 1);
        assert!(!rules.iter().any(|r| r.id == "SPL06"));
        let spl02 = rules.iter().find(|r| r.id == "SPL02").unwrap();
        assert_eq!(spl02.level, "error");
        let spl01 = rules.iter().find(|r| r.id == "SPL01").unwrap();
        assert_eq!(spl01.level, "warning");
    }

    #[test]
    fn lint_ruleset_covers_rules_and_duplicates() {
        let set = CompiledRuleSet::from_sources(&[
            (
                "rules/a.cocci".to_string(),
                "a".to_string(),
                "@r@\nexpression e;\nidentifier dead;\n@@\n- f(e);\n".to_string(),
            ),
            (
                "rules/b.cocci".to_string(),
                "b".to_string(),
                "@r@\nexpression e;\nidentifier dead;\n@@\n- f(e);\n".to_string(),
            ),
        ])
        .expect("compiles");
        let l = lint_ruleset(&set, &LintConfig::default());
        let mut got = ids(&l);
        got.sort_unstable();
        assert_eq!(got, vec!["SPL01", "SPL01", "SPL08"]);
    }

    #[test]
    fn word_count_respects_boundaries() {
        assert_eq!(word_count("f(e, ee, e2, e)", "e"), 2);
        assert_eq!(word_count("probe(x)@p;", "p"), 1);
        assert_eq!(word_count("", "e"), 0);
        assert_eq!(word_count("eee", "e"), 0);
    }

    #[test]
    fn lint_info_lookup_by_id_and_name() {
        assert_eq!(lint_info("spl07").unwrap().id, "SPL07");
        assert_eq!(lint_info("duplicate-rule").unwrap().id, "SPL08");
        assert!(lint_info("SPL42").is_none());
    }
}
