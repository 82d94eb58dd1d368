//! `cocci-smpl`: the Semantic Patch Language.
//!
//! A semantic patch is a sequence of *rules*. Each rule has a header
//! declaring metavariables, followed by a transformation body written as
//! annotated C/C++ (`-` lines removed, `+` lines added, unannotated lines
//! as matching context). This crate parses semantic patch files into
//! structured [`SemanticPatch`] values; matching and transformation live
//! in `cocci-core`.
//!
//! Supported SMPL subset (everything exercised by the paper's Section-3
//! use cases, plus headroom):
//!
//! * rule headers `@name@`, `@@`, `@name depends on other@`
//! * metavariable kinds: `type`, `identifier`, `fresh identifier` (with
//!   `##` concatenation), `expression`, `expression list`, `statement`,
//!   `statement list`, `parameter list`, `constant`, `function`, `symbol`,
//!   `position`, `pragmainfo`
//! * constraints: `=~ "regex"` and value sets `= {a,b}` / `= {4}`
//! * inherited metavariables `rule.name`
//! * pattern operators: `...` dots, `\( … \| … \)` disjunction,
//!   `\( … \& … \)` conjunction, `@pos` position attachment
//! * script rules `@initialize:<lang>@`, `@script:<lang> name@` with
//!   `local << rule.remote;` inputs and bare `out;` output declarations
//! * `#spatch --c++[=NN]` option lines selecting the C++ dialect
//!
//! Deviations from upstream Coccinelle are documented in DESIGN.md: the
//! disjunction syntax is always the escaped `\( \| \)` form (the
//! column-zero bare-parenthesis form is not supported), and script rules
//! are interpreted by `cocci-script` (a Python-subset interpreter) rather
//! than CPython.

mod body;
mod parse;
pub mod prefilter;

pub use body::{classify_body, Annot, BodyLine, Pattern, PlusGroup, RuleBody};
pub use parse::{parse_semantic_patch, SmplError};

use cocci_cast::{Lang, MetaKind};

/// A whole semantic patch file.
#[derive(Debug, Clone)]
pub struct SemanticPatch {
    /// Rules in declaration order.
    pub rules: Vec<Rule>,
    /// Language dialect selected by `#spatch` options.
    pub lang: Lang,
}

impl SemanticPatch {
    /// Find a rule by name.
    pub fn rule(&self, name: &str) -> Option<&Rule> {
        self.rules.iter().find(|r| r.name() == Some(name))
    }

    /// Whether the patch is **transformation-free**: every transform
    /// rule's body is pure context (no `-`/`+` lines), so applying it
    /// can only ever produce findings, never edits. `spatch` auto-selects
    /// report mode for such patches.
    pub fn is_report_only(&self) -> bool {
        self.rules.iter().all(|r| match r {
            Rule::Transform(t) => t.is_report_only(),
            _ => true,
        })
    }
}

/// One rule of a semantic patch.
#[derive(Debug, Clone)]
pub enum Rule {
    /// A transformation (or pure-match) rule.
    Transform(TransformRule),
    /// A script rule computing new bindings from inherited ones.
    Script(ScriptRule),
    /// An `@initialize:<lang>@` block run before matching starts.
    Initialize(ScriptBlock),
    /// A `@finalize:<lang>@` block run after all rules.
    Finalize(ScriptBlock),
}

impl Rule {
    /// The rule's name, if it has one.
    pub fn name(&self) -> Option<&str> {
        match self {
            Rule::Transform(t) => t.name.as_deref(),
            Rule::Script(s) => s.name.as_deref(),
            Rule::Initialize(_) | Rule::Finalize(_) => None,
        }
    }

    /// The 1-based line of the rule's `@…@` header in the patch source.
    pub fn header_line(&self) -> usize {
        match self {
            Rule::Transform(t) => t.header_line,
            Rule::Script(s) => s.header_line,
            Rule::Initialize(b) | Rule::Finalize(b) => b.header_line,
        }
    }
}

/// Dependency expression in `depends on …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepExpr {
    /// The named rule must have matched.
    Rule(String),
    /// Negation: the named rule must *not* have matched.
    Not(String),
    /// All conjuncts must hold.
    And(Vec<DepExpr>),
    /// Any disjunct must hold.
    Or(Vec<DepExpr>),
}

/// A transformation rule.
#[derive(Debug, Clone)]
pub struct TransformRule {
    /// Rule name (`@name@`); anonymous rules have none.
    pub name: Option<String>,
    /// `depends on` expression, if any.
    pub depends: Option<DepExpr>,
    /// Declared metavariables.
    pub metavars: Vec<MetaDecl>,
    /// The annotated body.
    pub body: RuleBody,
    /// 1-based line of the `@…@` header in the patch source.
    pub header_line: usize,
}

impl TransformRule {
    /// Look up a metavariable declaration by (local) name.
    pub fn metavar(&self, name: &str) -> Option<&MetaDecl> {
        self.metavars.iter().find(|m| m.name == name)
    }

    /// Whether the rule's pattern is flow-sensitive: it contains `...`
    /// in statement position, whose faithful semantics ("along every
    /// control-flow path") needs CFG path matching rather than
    /// tree-sequence gaps. See [`Pattern::has_statement_dots`].
    pub fn is_flow_sensitive(&self) -> bool {
        self.body.pattern.has_statement_dots()
    }

    /// Whether the rule is reporting-only: its body is pure context
    /// (see [`RuleBody::is_pure_context`]), so its matches route to
    /// findings instead of edits.
    pub fn is_report_only(&self) -> bool {
        self.body.is_pure_context()
    }
}

/// Kinds of metavariable declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaDeclKind {
    /// `type T;`
    Type,
    /// `identifier f;`
    Identifier,
    /// `fresh identifier x = "pre" ## f;`
    FreshIdentifier(Vec<FreshPart>),
    /// `expression e;`
    Expression,
    /// `expression list el;`
    ExpressionList,
    /// `statement S;`
    Statement,
    /// `statement list SL;`
    StatementList,
    /// `parameter list PL;`
    ParameterList,
    /// `constant k;`
    Constant,
    /// `function f;`
    Function,
    /// `symbol s;` (matches only that very identifier)
    Symbol,
    /// `position p;`
    Position,
    /// `pragmainfo pi;`
    PragmaInfo,
}

impl MetaDeclKind {
    /// The parser-visible kind for pattern-body parsing.
    pub fn parse_kind(&self) -> MetaKind {
        match self {
            MetaDeclKind::Type => MetaKind::Type,
            MetaDeclKind::Identifier
            | MetaDeclKind::FreshIdentifier(_)
            | MetaDeclKind::Constant
            | MetaDeclKind::Function
            | MetaDeclKind::Symbol => MetaKind::Ident,
            MetaDeclKind::Expression => MetaKind::Expr,
            MetaDeclKind::ExpressionList => MetaKind::ExprList,
            MetaDeclKind::Statement => MetaKind::Stmt,
            MetaDeclKind::StatementList => MetaKind::StmtList,
            MetaDeclKind::ParameterList => MetaKind::ParamList,
            MetaDeclKind::Position => MetaKind::Pos,
            MetaDeclKind::PragmaInfo => MetaKind::PragmaInfo,
        }
    }
}

/// A fragment of a `fresh identifier` definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreshPart {
    /// A string literal fragment.
    Lit(String),
    /// A reference to another metavariable of the same rule.
    MetaRef(String),
}

/// Constraint attached to a metavariable declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// `=~ "regex"` — the bound identifier must match.
    Regex(String),
    /// `!~ "regex"` — must not match.
    NotRegex(String),
    /// `= {a, b, 4}` — the bound value's text must be one of these.
    Set(Vec<String>),
}

/// One metavariable declaration.
#[derive(Debug, Clone)]
pub struct MetaDecl {
    /// Local name.
    pub name: String,
    /// Kind.
    pub kind: MetaDeclKind,
    /// Optional constraint.
    pub constraint: Option<Constraint>,
    /// For inherited metavariables `rule.name`: the source rule.
    pub inherited_from: Option<String>,
}

/// A script rule.
#[derive(Debug, Clone)]
pub struct ScriptRule {
    /// Rule name (needed for other rules to inherit its outputs).
    pub name: Option<String>,
    /// Script language tag (informational; `cocci-script` interprets all).
    pub lang: String,
    /// `depends on` expression, if any.
    pub depends: Option<DepExpr>,
    /// Inputs: `(local, source_rule, remote)` from `local << rule.remote;`.
    pub inputs: Vec<(String, String, String)>,
    /// Output metavariable names (bare declarations).
    pub outputs: Vec<String>,
    /// The script source.
    pub code: String,
    /// 1-based line of the `@…@` header in the patch source.
    pub header_line: usize,
}

/// An initialize/finalize block.
#[derive(Debug, Clone)]
pub struct ScriptBlock {
    /// Script language tag.
    pub lang: String,
    /// The script source.
    pub code: String,
    /// 1-based line of the `@…@` header in the patch source.
    pub header_line: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIKWID: &str = r#"
@@ @@
#include <omp.h>
+ #include <likwid-marker.h>

@@ @@
#pragma omp ...
{
+ LIKWID_MARKER_START(__func__);
...
+ LIKWID_MARKER_STOP(__func__);
}
"#;

    #[test]
    fn parses_likwid_patch() {
        let sp = parse_semantic_patch(LIKWID).unwrap();
        assert_eq!(sp.rules.len(), 2);
        match &sp.rules[0] {
            Rule::Transform(t) => {
                assert!(t.name.is_none());
                assert!(t.metavars.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_metavar_decls() {
        let src = r#"
@p0@
type T;
identifier i,l;
constant k={4};
statement A,B,C,D;
@@
A
"#;
        let sp = parse_semantic_patch(src).unwrap();
        match &sp.rules[0] {
            Rule::Transform(t) => {
                assert_eq!(t.name.as_deref(), Some("p0"));
                assert_eq!(t.metavars.len(), 8);
                let k = t.metavar("k").unwrap();
                assert_eq!(k.kind, MetaDeclKind::Constant);
                assert_eq!(k.constraint, Some(Constraint::Set(vec!["4".to_string()])));
                assert_eq!(t.metavar("C").unwrap().kind, MetaDeclKind::Statement);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_regex_constraint_and_fresh() {
        let src = r#"
@@
type T;
identifier f =~ "kernel";
parameter list PL;
statement list SL;
fresh identifier f512 = "avx512_" ## f;
@@
T f (PL) { SL }
"#;
        let sp = parse_semantic_patch(src).unwrap();
        match &sp.rules[0] {
            Rule::Transform(t) => {
                assert_eq!(
                    t.metavar("f").unwrap().constraint,
                    Some(Constraint::Regex("kernel".into()))
                );
                match &t.metavar("f512").unwrap().kind {
                    MetaDeclKind::FreshIdentifier(parts) => {
                        assert_eq!(
                            parts,
                            &vec![
                                FreshPart::Lit("avx512_".into()),
                                FreshPart::MetaRef("f".into())
                            ]
                        );
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_inherited_and_depends() {
        let src = r#"
@c@
type T;
function f;
parameter list PL;
@@
- T f(PL) { ... }

@d depends on c@
type c.T;
function c.f;
parameter list c.PL;
@@
T f(PL) { ... }
"#;
        let sp = parse_semantic_patch(src).unwrap();
        match &sp.rules[1] {
            Rule::Transform(t) => {
                assert_eq!(t.name.as_deref(), Some("d"));
                assert_eq!(t.depends, Some(DepExpr::Rule("c".into())));
                assert_eq!(t.metavar("T").unwrap().inherited_from.as_deref(), Some("c"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_script_rules() {
        let src = r#"
@initialize:python@ @@
C2HF = { "curand_uniform_double": "rocrand_uniform_double" }

@cfe@
identifier fn;
expression list el;
position p;
@@
fn@p(el)

@script:python cf2hf@
fn << cfe.fn;
nf;
@@
coccinelle.nf = cocci.make_ident(C2HF[fn]);

@hfe@
identifier cfe.fn;
identifier cf2hf.nf;
position cfe.p;
@@
- fn@p
+ nf
(...)
"#;
        let sp = parse_semantic_patch(src).unwrap();
        assert_eq!(sp.rules.len(), 4);
        assert!(matches!(&sp.rules[0], Rule::Initialize(b) if b.code.contains("C2HF")));
        match &sp.rules[2] {
            Rule::Script(s) => {
                assert_eq!(s.name.as_deref(), Some("cf2hf"));
                assert_eq!(
                    s.inputs,
                    vec![("fn".to_string(), "cfe".to_string(), "fn".to_string())]
                );
                assert_eq!(s.outputs, vec!["nf".to_string()]);
                assert!(s.code.contains("make_ident"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spatch_option_line_sets_lang() {
        let src = "#spatch --c++=23\n@tomultiindex@\nsymbol a;\nexpression x,y,z;\n@@\n- a[x][y][z]\n+ a[x, y, z]\n";
        let sp = parse_semantic_patch(src).unwrap();
        assert_eq!(sp.lang, Lang::Cpp);
    }

    #[test]
    fn body_annotations_recorded() {
        let sp = parse_semantic_patch(LIKWID).unwrap();
        match &sp.rules[1] {
            Rule::Transform(t) => {
                let plus_lines: Vec<_> = t
                    .body
                    .lines
                    .iter()
                    .filter(|l| l.annot == Annot::Plus)
                    .collect();
                assert_eq!(plus_lines.len(), 2);
                assert!(plus_lines[0].text.contains("LIKWID_MARKER_START"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn when_exists_and_strict_carry_through_the_pattern() {
        use cocci_cast::DotsQuant;
        let src = "@@\nexpression b;\n@@\n- probe_begin(b);\n+ probe_enter(b);\n... when exists\nprobe_end(b);\n";
        let sp = parse_semantic_patch(src).unwrap();
        let Rule::Transform(t) = &sp.rules[0] else {
            panic!("transform rule expected");
        };
        assert!(t.is_flow_sensitive());
        assert_eq!(
            t.body.pattern.statement_dots_quants(),
            vec![DotsQuant::Exists]
        );

        let strict = src.replace("when exists", "when strict");
        let sp = parse_semantic_patch(&strict).unwrap();
        let Rule::Transform(t) = &sp.rules[0] else {
            panic!("transform rule expected");
        };
        assert_eq!(
            t.body.pattern.statement_dots_quants(),
            vec![DotsQuant::Strict]
        );

        let plain = src.replace(" when exists", "");
        let sp = parse_semantic_patch(&plain).unwrap();
        let Rule::Transform(t) = &sp.rules[0] else {
            panic!("transform rule expected");
        };
        assert_eq!(
            t.body.pattern.statement_dots_quants(),
            vec![DotsQuant::Default]
        );
    }

    #[test]
    fn pure_context_bodies_classify_as_report_only() {
        // Context-only body (a position metavariable pins the site).
        let sp =
            parse_semantic_patch("@r@\nexpression e;\nposition p;\n@@\nold_api(e)@p;\n").unwrap();
        let Rule::Transform(t) = &sp.rules[0] else {
            panic!("transform rule expected");
        };
        assert!(t.is_report_only());
        assert!(sp.is_report_only());

        // Any `-` or `+` line makes the rule (and patch) transforming.
        for body in [
            "- old_api(e);\n+ new_api(e);\n",
            "+ extra();\nold_api(e);\n",
        ] {
            let sp = parse_semantic_patch(&format!("@r@\nexpression e;\n@@\n{body}")).unwrap();
            let Rule::Transform(t) = &sp.rules[0] else {
                panic!("transform rule expected");
            };
            assert!(!t.is_report_only(), "{body}");
            assert!(!sp.is_report_only(), "{body}");
        }

        // A mixed patch (one reporting rule, one transforming rule) is
        // not transformation-free.
        let sp = parse_semantic_patch(
            "@a@\nexpression e;\n@@\nold_api(e);\n\n@b@\n@@\n- gone();\n+ here();\n",
        )
        .unwrap();
        assert!(!sp.is_report_only());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_semantic_patch("not a patch at all").is_err());
        assert!(parse_semantic_patch("@r@\nbogus metavar decl\n@@\nx\n").is_err());
    }
}
