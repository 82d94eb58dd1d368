//! Rule-body processing: line annotations, the two-slice model, pattern
//! classification.
//!
//! SMPL marks removals and additions per *line* (`-`/`+` in the first
//! column). The body is processed into:
//!
//! * the **minus slice** — body text with `+` lines blanked and the
//!   annotation column replaced by a space, *preserving byte offsets*, so
//!   that spans of the parsed pattern AST index directly into the body;
//! * per-line records ([`BodyLine`]) with annotation, text, and lexed
//!   tokens (used by the transformer to render `+` material with
//!   metavariable substitution);
//! * **plus groups** — maximal runs of `+` lines with their anchor offset
//!   in body coordinates (used for insertions at statement/item list
//!   positions);
//! * the classified [`Pattern`] (expression / statement-sequence /
//!   item-sequence), parsed with the rule's metavariables in scope.

use crate::MetaDecl;
use cocci_cast::lexer::{lex, LexMode};
use cocci_cast::parser::{
    parse_expression, parse_statements, parse_translation_unit, MetaKind, MetaLookup, ParseOptions,
};
use cocci_cast::{visit, DotsQuant, Expr, ForInit, Item, Lang, Punct, Stmt, Token, TokenKind};

/// Per-line annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Annot {
    /// Context line: must match, is kept.
    Context,
    /// `-` line: must match, is removed.
    Minus,
    /// `+` line: is added.
    Plus,
}

/// One line of a rule body.
#[derive(Debug, Clone)]
pub struct BodyLine {
    /// Annotation from the first column.
    pub annot: Annot,
    /// Byte offset of the line start in body coordinates.
    pub start: u32,
    /// Byte offset one past the line end (excluding `\n`).
    pub end: u32,
    /// Line text with the annotation column replaced by a space.
    pub text: String,
    /// Tokens of this line (offsets in body coordinates). Empty when the
    /// line does not lex in isolation (e.g. a comment-only `+` line).
    pub tokens: Vec<Token>,
}

/// A maximal run of `+` lines.
#[derive(Debug, Clone)]
pub struct PlusGroup {
    /// Index range of the lines in [`RuleBody::lines`].
    pub lines: (usize, usize),
    /// Byte offset (body coordinates) where the group begins — used to
    /// locate the insertion point relative to the pattern.
    pub anchor: u32,
}

/// The classified pattern of a rule body.
#[derive(Debug, Clone)]
pub enum Pattern {
    /// A single expression pattern — matched against every subexpression.
    Expr(Expr),
    /// A statement-sequence pattern — matched inside blocks (and, when
    /// composed solely of directives/declarations, against the top level
    /// too).
    Stmts(Vec<Stmt>),
    /// An item-sequence pattern — matched against the top level.
    Items(Vec<Item>),
}

impl Pattern {
    /// Whether the pattern contains `...` between statements at the top
    /// level of its sequence — the construct whose faithful (CTL)
    /// semantics is "along every control-flow path" rather than "some
    /// gap in the statement list". Rules with such a pattern are
    /// *flow-sensitive*: the engine routes them through CFG path
    /// matching when it can lower them (see `cocci-core`'s `flowmatch`).
    ///
    /// Dots nested inside a braced sub-block (the LIKWID-style
    /// `{ ... }` body) are matched per-block by the tree matcher and do
    /// not mark the rule.
    pub fn has_statement_dots(&self) -> bool {
        match self {
            Pattern::Stmts(stmts) => stmts.iter().any(|s| matches!(s, Stmt::Dots { .. })),
            Pattern::Expr(_) | Pattern::Items(_) => false,
        }
    }

    /// The path quantifiers of every statement dots in the pattern —
    /// top-level *and* nested inside compound statements or function
    /// bodies — in traversal order (`when exists` → `Exists`,
    /// `when strict` → `Strict`, bare dots → `Default`). Empty for
    /// patterns without statement dots. The compile-time guard uses
    /// this to refuse quantifiers in positions only the tree matcher
    /// would see (where they would silently read as plain dots).
    pub fn statement_dots_quants(&self) -> Vec<DotsQuant> {
        let mut out = Vec::new();
        let mut collect = |stmts: &[Stmt]| {
            for s in stmts {
                visit::walk_stmt(s, &mut |st| {
                    if let Stmt::Dots { quant, .. } = st {
                        out.push(*quant);
                    }
                });
            }
        };
        match self {
            Pattern::Stmts(stmts) => collect(stmts),
            Pattern::Items(items) => {
                for it in items {
                    if let Item::Function(f) = it {
                        collect(&f.body.stmts);
                    }
                }
            }
            Pattern::Expr(_) => {}
        }
        out
    }
}

/// A processed rule body.
#[derive(Debug, Clone)]
pub struct RuleBody {
    /// Original body text (annotation columns intact).
    pub raw: String,
    /// Minus-slice text: `+` lines blanked, annotation columns blanked.
    pub minus_slice: String,
    /// Per-line records.
    pub lines: Vec<BodyLine>,
    /// Maximal `+` runs.
    pub plus_groups: Vec<PlusGroup>,
    /// The parsed pattern.
    pub pattern: Pattern,
}

struct DeclLookup<'a>(&'a [MetaDecl]);

impl MetaLookup for DeclLookup<'_> {
    fn kind(&self, name: &str) -> Option<MetaKind> {
        self.0
            .iter()
            .find(|d| d.name == name)
            .map(|d| d.kind.parse_kind())
    }
}

impl RuleBody {
    /// Process `raw` into a rule body, parsing the pattern with the given
    /// metavariables in scope.
    pub fn new(
        raw: &str,
        rule_name: Option<&str>,
        metavars: &[MetaDecl],
        lang: Lang,
    ) -> Result<RuleBody, String> {
        let mut lines = Vec::new();
        let mut minus_slice = String::with_capacity(raw.len());
        let mut offset = 0u32;
        for (idx, line) in raw.split('\n').enumerate() {
            let (annot, display) = classify_line(line);
            let start = offset;
            let end = offset + line.len() as u32;
            // Build the minus-slice fragment for this line.
            match annot {
                Annot::Plus => {
                    minus_slice.extend(std::iter::repeat_n(' ', line.len()));
                }
                Annot::Minus => {
                    minus_slice.push(' ');
                    minus_slice.push_str(&line[1..]);
                }
                Annot::Context => minus_slice.push_str(line),
            }
            if idx + 1 != raw.split('\n').count() {
                minus_slice.push('\n');
            }
            // Lex the display text for substitution-time token info.
            let tokens = lex(&display, LexMode::Smpl)
                .map(|ts| {
                    ts.into_iter()
                        .filter(|t| t.kind != TokenKind::Eof)
                        .map(|mut t| {
                            t.span.start += start;
                            t.span.end += start;
                            t
                        })
                        .collect()
                })
                .unwrap_or_default();
            lines.push(BodyLine {
                annot,
                start,
                end,
                text: display,
                tokens,
            });
            offset = end + 1; // newline
        }
        debug_assert_eq!(minus_slice.len(), raw.len());

        // Plus groups.
        let mut plus_groups = Vec::new();
        let mut i = 0usize;
        while i < lines.len() {
            if lines[i].annot == Annot::Plus {
                let begin = i;
                while i < lines.len() && lines[i].annot == Annot::Plus {
                    i += 1;
                }
                plus_groups.push(PlusGroup {
                    lines: (begin, i),
                    anchor: lines[begin].start,
                });
            } else {
                i += 1;
            }
        }

        let lookup = DeclLookup(metavars);
        let pattern = classify_body(&minus_slice, lang, &lookup).map_err(|e| {
            format!(
                "cannot parse body of rule {}: {e}",
                rule_name.unwrap_or("<anonymous>")
            )
        })?;

        Ok(RuleBody {
            raw: raw.to_string(),
            minus_slice,
            lines,
            plus_groups,
            pattern,
        })
    }

    /// Whether the body is **pure context**: no `-` or `+` line at all,
    /// so matching it can never produce an edit. Such rules are compiled
    /// as *reporting-only* — their match witnesses become findings
    /// (`file:line:col` diagnostics) instead of rewrites.
    pub fn is_pure_context(&self) -> bool {
        self.lines.iter().all(|l| l.annot == Annot::Context)
    }

    /// Index of the line containing body offset `off`.
    pub fn line_of_offset(&self, off: u32) -> usize {
        match self.lines.binary_search_by(|l| l.start.cmp(&off)) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
    }

    /// Whether all tokens within `span` (body coordinates) lie on `-`
    /// lines. Spans with no tokens return `false`.
    pub fn span_all_minus(&self, span: cocci_source::Span) -> bool {
        let mut any = false;
        for l in &self.lines {
            if l.end <= span.start || l.start >= span.end {
                continue;
            }
            for t in &l.tokens {
                if t.span.start >= span.start && t.span.end <= span.end {
                    any = true;
                    if l.annot != Annot::Minus {
                        return false;
                    }
                }
            }
        }
        any
    }

    /// Whether any token within `span` lies on a `-` line.
    pub fn span_has_minus(&self, span: cocci_source::Span) -> bool {
        self.lines.iter().any(|l| {
            l.annot == Annot::Minus
                && l.tokens
                    .iter()
                    .any(|t| t.span.start >= span.start && t.span.end <= span.end)
        })
    }

    /// The index of the first `+` line whose `...` stands for code: an
    /// argument, expression or statement run. The rewriter ties dots to
    /// what they matched only on context and `-` lines, so such a line
    /// would be copied verbatim, which is not C. Varargs `...` closing a
    /// parameter list is legal. Each `+` group holding a `...` is parsed
    /// on its own (with `metavars` in scope); a group that does not
    /// parse alone allows only the `, ...)` of a parameter list.
    pub fn plus_dots_line(&self, metavars: &[MetaDecl], lang: Lang) -> Option<usize> {
        let is_dots = |t: &Token| t.kind == TokenKind::Punct(Punct::Ellipsis);
        self.plus_groups.iter().find_map(|g| {
            let lines = &self.lines[g.lines.0..g.lines.1];
            let tokens: Vec<&Token> = lines.iter().flat_map(|l| &l.tokens).collect();
            if !tokens.iter().any(|t| is_dots(t)) {
                return None;
            }
            let text: Vec<&str> = lines.iter().map(|l| l.text.as_str()).collect();
            let base = lines[0].start;
            let at = match classify_body(&text.join("\n"), lang, &DeclLookup(metavars)) {
                Ok(pattern) => code_dots(&pattern).map(|at| base + at),
                Err(_) => tokens.iter().enumerate().find_map(|(i, t)| {
                    let param_end = i > 0
                        && matches!(
                            tokens[i - 1].kind,
                            TokenKind::Punct(Punct::Comma | Punct::LParen)
                        )
                        && tokens
                            .get(i + 1)
                            .is_some_and(|n| n.kind == TokenKind::Punct(Punct::RParen));
                    (is_dots(t) && !param_end).then_some(t.span.start)
                }),
            };
            at.map(|at| self.line_of_offset(at))
        })
    }

    /// Whether any `+` group's anchor falls strictly inside `span`.
    pub fn span_has_interior_plus(&self, span: cocci_source::Span) -> bool {
        self.plus_groups
            .iter()
            .any(|g| g.anchor > span.start && g.anchor < span.end)
    }
}

/// The offset of the first `...` in `pattern` that stands for code:
/// statement dots, expression dots (arguments, initializers, operands)
/// and `for` header dots. Varargs is a parameter list's flag, no node.
fn code_dots(pattern: &Pattern) -> Option<u32> {
    let mut at = Vec::new();
    match pattern {
        Pattern::Expr(e) => expr_dots(e, &mut at),
        Pattern::Stmts(stmts) => stmts.iter().for_each(|s| stmt_dots(s, &mut at)),
        Pattern::Items(items) => {
            for it in items {
                match it {
                    Item::Function(f) => f.body.stmts.iter().for_each(|s| stmt_dots(s, &mut at)),
                    Item::Decl(d) => {
                        for dr in &d.declarators {
                            let exprs = dr.array.iter().flatten().chain(&dr.init);
                            exprs.for_each(|e| expr_dots(e, &mut at));
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    at.into_iter().min()
}

fn expr_dots(e: &Expr, at: &mut Vec<u32>) {
    visit::walk_expr(e, &mut |x| {
        if let Expr::Dots { span } = x {
            at.push(span.start);
        }
    });
}

fn stmt_dots(s: &Stmt, at: &mut Vec<u32>) {
    visit::walk_stmt(s, &mut |st| {
        match st {
            Stmt::Dots { span, .. } => at.push(span.start),
            Stmt::For {
                init: Some(init), ..
            } => {
                if let ForInit::Dots { span } = &**init {
                    at.push(span.start);
                }
            }
            _ => {}
        }
        visit::stmt_exprs(st, &mut |e| {
            if let Expr::Dots { span } = e {
                at.push(span.start);
            }
        });
    });
}

/// Determine the annotation of a raw body line and produce its display
/// text (annotation column replaced by a space so offsets line up).
fn classify_line(line: &str) -> (Annot, String) {
    match line.as_bytes().first() {
        Some(b'-') => (Annot::Minus, format!(" {}", &line[1..])),
        Some(b'+') => (Annot::Plus, format!(" {}", &line[1..])),
        _ => (Annot::Context, line.to_string()),
    }
}

/// Classify the minus slice into one of the three pattern levels.
///
/// Order matters: expressions first (`a[x][y][z]`, `k<<<b,t>>>(el)`), then
/// statement sequences (covers declarations and directive+block shapes),
/// then item sequences (function definitions, attribute-prefixed
/// functions).
pub fn classify_body(
    minus_slice: &str,
    lang: Lang,
    meta: &dyn MetaLookup,
) -> Result<Pattern, String> {
    let opts = ParseOptions {
        pattern: true,
        lang,
    };
    let mut errors = Vec::new();
    match parse_expression(minus_slice, opts, meta) {
        Ok(e) => return Ok(Pattern::Expr(e)),
        Err(e) => errors.push(format!("as expression: {e}")),
    }
    match parse_statements(minus_slice, opts, meta) {
        Ok(stmts) if !stmts.is_empty() => return Ok(Pattern::Stmts(stmts)),
        Ok(_) => errors.push("as statements: empty".into()),
        Err(e) => errors.push(format!("as statements: {e}")),
    }
    match parse_translation_unit(minus_slice, opts, meta) {
        Ok(tu) if !tu.items.is_empty() => return Ok(Pattern::Items(tu.items)),
        Ok(_) => errors.push("as items: empty".into()),
        Err(e) => errors.push(format!("as items: {e}")),
    }
    Err(errors.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetaDecl, MetaDeclKind};

    fn mv(name: &str, kind: MetaDeclKind) -> MetaDecl {
        MetaDecl {
            name: name.into(),
            kind,
            constraint: None,
            inherited_from: None,
        }
    }

    #[test]
    fn minus_slice_preserves_offsets() {
        let raw = "x = 1;\n- y = 2;\n+ z = 3;";
        let body = RuleBody::new(raw, None, &[], Lang::C).unwrap();
        assert_eq!(body.minus_slice.len(), raw.len());
        assert!(body.minus_slice.contains("x = 1;"));
        assert!(body.minus_slice.contains("  y = 2;"));
        assert!(!body.minus_slice.contains('z'));
    }

    #[test]
    fn classifies_expression_pattern() {
        let body = RuleBody::new(
            "a[x][y][z]",
            None,
            &[
                mv("a", MetaDeclKind::Symbol),
                mv("x", MetaDeclKind::Expression),
                mv("y", MetaDeclKind::Expression),
                mv("z", MetaDeclKind::Expression),
            ],
            Lang::Cpp,
        )
        .unwrap();
        assert!(matches!(body.pattern, Pattern::Expr(_)));
    }

    #[test]
    fn classifies_statement_pattern() {
        let body = RuleBody::new(
            "#pragma omp ...\n{\n+ START();\n...\n+ STOP();\n}",
            None,
            &[],
            Lang::C,
        )
        .unwrap();
        match &body.pattern {
            Pattern::Stmts(stmts) => {
                assert_eq!(stmts.len(), 2);
                assert!(matches!(stmts[0], Stmt::Directive(_)));
                assert!(matches!(stmts[1], Stmt::Block(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn classifies_item_pattern() {
        let body = RuleBody::new(
            "T f (PL) { SL }",
            None,
            &[
                mv("T", MetaDeclKind::Type),
                mv("f", MetaDeclKind::Identifier),
                mv("PL", MetaDeclKind::ParameterList),
                mv("SL", MetaDeclKind::StatementList),
            ],
            Lang::C,
        )
        .unwrap();
        match &body.pattern {
            Pattern::Items(items) => {
                assert_eq!(items.len(), 1);
                assert!(matches!(items[0], Item::Function(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plus_groups_and_anchors() {
        let raw = "ctx();\n+ one();\n+ two();\nmore();\n+ three();";
        let body = RuleBody::new(raw, None, &[], Lang::C).unwrap();
        assert_eq!(body.plus_groups.len(), 2);
        assert_eq!(body.plus_groups[0].lines, (1, 3));
        assert_eq!(body.plus_groups[1].lines, (4, 5));
        // First group anchored after `ctx();` line.
        assert_eq!(body.plus_groups[0].anchor, 7);
    }

    #[test]
    fn span_annotation_queries() {
        // `- y = 2;` occupies bytes 7..15 (line 2).
        let raw = "x = 1;\n- y = 2;";
        let body = RuleBody::new(raw, None, &[], Lang::C).unwrap();
        let whole = cocci_source::Span::new(0, raw.len() as u32);
        assert!(body.span_has_minus(whole));
        assert!(!body.span_all_minus(whole));
        let minus_line = cocci_source::Span::new(7, 15);
        assert!(body.span_all_minus(minus_line));
    }

    #[test]
    fn statement_dots_mark_flow_sensitivity() {
        let flow = RuleBody::new("a();\n...\nb();", None, &[], Lang::C).unwrap();
        assert!(flow.pattern.has_statement_dots());
        // Dots nested inside a braced sub-block stay tree territory.
        let nested = RuleBody::new("#pragma omp ...\n{\n...\n}", None, &[], Lang::C).unwrap();
        assert!(!nested.pattern.has_statement_dots());
        // Expression-level dots are not statement dots.
        let expr = RuleBody::new("f(...)", None, &[], Lang::C).unwrap();
        assert!(!expr.pattern.has_statement_dots());
    }

    #[test]
    fn line_of_offset_lookup() {
        let raw = "a();\nb();\nc();";
        let body = RuleBody::new(raw, None, &[], Lang::C).unwrap();
        assert_eq!(body.line_of_offset(0), 0);
        assert_eq!(body.line_of_offset(6), 1);
        assert_eq!(body.line_of_offset(11), 2);
    }
}
