//! Metavariable binding environments.
//!
//! Both environments are flat: a short vector of bindings in the order
//! they were made, searched linearly. A rule binds a handful of
//! metavariables, and a rule chain exports a handful more, so comparing a
//! few `u32` keys costs less than walking a tree, and a small environment
//! is one small allocation, where a B-tree map allocates an eleven-slot
//! leaf (2 KB here) for its first entry, and most tries fail and drop it.
//! Binding order also makes backtracking cheap: while a try runs its
//! bindings only grow, so the matcher undoes a failed alternative by
//! truncating to the length it had before (see `matcher`).

use cocci_cast::ast::{Expr, Param, Stmt, Type};
use cocci_cast::render;
use cocci_source::{Span, Symbol};

/// The value bound to a metavariable.
#[derive(Debug, Clone)]
pub enum Value {
    /// A bound expression (spans point into the target file).
    Expr(Expr),
    /// A bound expression list (argument run).
    ExprList(Vec<Expr>),
    /// A bound statement (boxed, so that a binding slot is no larger
    /// than an expression).
    Stmt(Box<Stmt>),
    /// A bound statement list.
    StmtList(Vec<Stmt>),
    /// A bound type.
    Type(Type),
    /// A bound parameter list.
    Params(Vec<Param>),
    /// A bound identifier (name + where it occurred).
    Ident {
        /// The identifier text (interned).
        name: Symbol,
        /// Source occurrence (synthetic for script/fresh-made idents).
        span: Span,
    },
    /// Synthesized text (script outputs, fresh identifiers, pragmainfo
    /// replacements).
    Text(String),
    /// A bound integer constant.
    Int(i128),
    /// A bound position: the source span of the matched occurrence plus
    /// the identity of the file it was matched in. Carrying the file is
    /// what makes inherited positions (`position cfe.p`) compare
    /// correctly: an offset alone would spuriously equate positions
    /// from different files of a corpus. (`Arc<str>`: positions ride
    /// along every environment clone during CFG witness forking, so the
    /// name is shared, not re-allocated.)
    Pos {
        /// Name of the target file the position was bound in.
        file: std::sync::Arc<str>,
        /// Byte span of the matched occurrence.
        span: Span,
        /// Line/column resolution captured when the position crossed a
        /// rule boundary (see [`ResolvedPos`]). `None` until export.
        resolved: Option<ResolvedPos>,
    },
    /// A bound `pragmainfo` (pragma payload remainder).
    Pragma(String),
    /// A value exported across a rule boundary after the target text may
    /// have changed: keeps the AST for structural comparison but renders
    /// from captured text (the old spans would be stale).
    Detached {
        /// The original value (for structural equality).
        ast: Box<Value>,
        /// Text captured at export time.
        text: String,
    },
}

impl Value {
    /// Render the value as target-language text, slicing the original
    /// source where the binding has real spans (preserving formatting),
    /// falling back to the canonical renderer for synthetic nodes.
    pub fn render(&self, src: &str) -> String {
        let slice = |span: Span| -> Option<String> {
            if span.is_synthetic() || span.end as usize > src.len() {
                None
            } else {
                Some(src[span.start as usize..span.end as usize].to_string())
            }
        };
        match self {
            Value::Expr(e) => slice(e.span()).unwrap_or_else(|| render::render_expr(e)),
            Value::ExprList(es) => {
                let merged = es
                    .iter()
                    .fold(Span::SYNTHETIC, |acc, e| acc.merge(e.span()));
                slice(merged).unwrap_or_else(|| {
                    es.iter()
                        .map(render::render_expr)
                        .collect::<Vec<_>>()
                        .join(", ")
                })
            }
            Value::Stmt(s) => slice(s.span()).unwrap_or_else(|| render::render_stmt(s)),
            Value::StmtList(ss) => {
                let merged = ss
                    .iter()
                    .fold(Span::SYNTHETIC, |acc, s| acc.merge(s.span()));
                slice(merged).unwrap_or_else(|| {
                    ss.iter()
                        .map(render::render_stmt)
                        .collect::<Vec<_>>()
                        .join("\n")
                })
            }
            Value::Type(t) => slice(t.span).unwrap_or_else(|| render::render_type(t)),
            Value::Params(ps) => {
                let merged = ps.iter().fold(Span::SYNTHETIC, |acc, p| acc.merge(p.span));
                slice(merged).unwrap_or_else(|| {
                    ps.iter()
                        .map(render::render_param)
                        .collect::<Vec<_>>()
                        .join(", ")
                })
            }
            Value::Ident { name, .. } => name.as_str().to_string(),
            Value::Text(t) => t.clone(),
            Value::Int(i) => i.to_string(),
            Value::Pos { file, span, .. } => format!("<pos:{file}:{}-{}>", span.start, span.end),
            Value::Pragma(p) => p.clone(),
            Value::Detached { text, .. } => text.clone(),
        }
    }

    /// Detach the value from `src`: capture its rendering so it stays
    /// valid after the target text changes, keeping the AST for
    /// structural comparison. Values that carry no spans are returned
    /// unchanged.
    pub fn detach(&self, src: &str) -> Value {
        match self {
            Value::Ident { .. }
            | Value::Text(_)
            | Value::Int(_)
            | Value::Pos { .. }
            | Value::Pragma(_)
            | Value::Detached { .. } => self.clone(),
            other => Value::Detached {
                ast: Box::new(other.clone()),
                text: other.render(src),
            },
        }
    }

    /// Unwrap a detached value to its structural core.
    pub fn structural(&self) -> &Value {
        match self {
            Value::Detached { ast, .. } => ast.structural(),
            other => other,
        }
    }
}

/// Line/column coordinates of a position, captured at the moment it was
/// exported across a rule boundary. Later rules may rewrite the
/// in-memory text and shift byte offsets, so a consumer (the script
/// reporting API, chiefly) must use this bind-time resolution rather
/// than re-resolving the stale span against the current text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedPos {
    /// 1-based start line.
    pub line: u32,
    /// 1-based start column.
    pub col: u32,
    /// 1-based end line.
    pub end_line: u32,
    /// 1-based end column.
    pub end_col: u32,
}

/// A metavariable environment: local bindings of the rule currently being
/// matched.
///
/// Keyed by interned [`Symbol`], so every lookup during matching is a
/// handful of `u32` compares instead of string comparisons. Lookups search
/// from the newest binding, so a binding pushed over an older one of the
/// same name hides it until a rollback truncates it away. Symbol ids
/// reflect interning order (which varies with thread scheduling), so
/// [`Env::iter`] sorts by resolved name: user-visible binding order stays
/// alphabetical and deterministic.
#[derive(Debug, Clone, Default)]
pub struct Env {
    slots: Vec<(Symbol, Value)>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a binding.
    pub fn get(&self, name: impl Into<Symbol>) -> Option<&Value> {
        let name = name.into();
        self.slots
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }

    /// Insert a binding, replacing the newest binding of `name` if there
    /// is one.
    pub fn bind(&mut self, name: impl Into<Symbol>, value: Value) {
        let name = name.into();
        match self.slots.iter_mut().rev().find(|(k, _)| *k == name) {
            Some((_, slot)) => *slot = value,
            None => self.slots.push((name, value)),
        }
    }

    /// Append a binding of `name` without looking for an older one: the
    /// caller knows `name` is unbound, or means to hide its binding until
    /// a rollback.
    pub(crate) fn push(&mut self, name: Symbol, value: Value) {
        self.slots.push((name, value));
    }

    /// Number of slots, bindings and hidden ones alike: a rollback mark.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Drop every slot from `len` on.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.slots.truncate(len);
    }

    /// Whether `name` is bound.
    pub fn is_bound(&self, name: impl Into<Symbol>) -> bool {
        self.get(name).is_some()
    }

    /// The visible bindings (the newest of each name), in binding order.
    fn visible(&self) -> impl Iterator<Item = (Symbol, &Value)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(i, (k, _))| !self.slots[i + 1..].iter().any(|(later, _)| later == k))
            .map(|(_, (k, v))| (*k, v))
    }

    /// Iterate bindings in name (alphabetical) order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Value)> {
        let mut v: Vec<(Symbol, &Value)> = self.visible().collect();
        v.sort_by_key(|(k, _)| k.as_str());
        v.into_iter()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.visible().count()
    }

    /// Whether there are no bindings.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Exported environment accumulated along the rule chain: bindings
/// qualified by rule name, as visible to later rules via `rule.var`.
#[derive(Debug, Clone, Default)]
pub struct ExportedEnv {
    slots: Vec<((Symbol, Symbol), Value)>,
}

impl ExportedEnv {
    /// Empty exported environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up `rule.var`.
    pub fn get(&self, rule: impl Into<Symbol>, var: impl Into<Symbol>) -> Option<&Value> {
        let key = (rule.into(), var.into());
        self.slots.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Record `rule.var = value`.
    pub fn bind(&mut self, rule: impl Into<Symbol>, var: impl Into<Symbol>, value: Value) {
        let key = (rule.into(), var.into());
        match self.slots.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => *slot = value,
            None => self.slots.push((key, value)),
        }
    }

    /// Merge a rule's local bindings under its name.
    pub fn absorb(&mut self, rule: impl Into<Symbol>, env: &Env) {
        let rule = rule.into();
        for (k, v) in env.iter() {
            self.bind(rule, k, v.clone());
        }
    }

    /// Number of qualified bindings.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocci_cast::ast::Ident;

    #[test]
    fn render_slices_source_for_real_spans() {
        let src = "foo(  a+b , c )";
        let e = Expr::Ident(Ident {
            name: "weird".into(),
            span: Span::new(6, 9), // "a+b"
        });
        assert_eq!(Value::Expr(e).render(src), "a+b");
    }

    #[test]
    fn render_falls_back_for_synthetic() {
        let e = Expr::Ident(Ident::synthetic("x"));
        assert_eq!(Value::Expr(e).render("unrelated"), "x");
    }

    #[test]
    fn text_and_int_render() {
        assert_eq!(Value::Text("hipMalloc".into()).render(""), "hipMalloc");
        assert_eq!(Value::Int(42).render(""), "42");
        assert_eq!(
            Value::Pragma("omp parallel".into()).render(""),
            "omp parallel"
        );
    }

    #[test]
    fn pos_renders_with_file_and_span() {
        let p = Value::Pos {
            file: "dir/a.c".into(),
            span: Span::new(4, 9),
            resolved: None,
        };
        assert_eq!(p.render(""), "<pos:dir/a.c:4-9>");
        // Positions are self-contained: detaching is the identity.
        assert!(matches!(p.detach("whatever"), Value::Pos { .. }));
    }

    #[test]
    fn env_bind_and_lookup() {
        let mut env = Env::new();
        env.bind("T", Value::Text("double".into()));
        assert!(env.is_bound("T"));
        assert_eq!(env.get("T").unwrap().render(""), "double");
        assert!(!env.is_bound("U"));
    }

    #[test]
    fn env_push_hides_until_truncated() {
        let mut env = Env::new();
        env.bind("el", Value::Text("a".into()));
        env.bind("T", Value::Text("double".into()));
        let mark = env.slots();
        env.push(Symbol::intern("el"), Value::Int(7));
        assert_eq!(env.get("el").unwrap().render(""), "7");
        assert_eq!(env.len(), 2);
        let seen: Vec<String> = env
            .iter()
            .map(|(k, v)| format!("{k}={}", v.render("")))
            .collect();
        assert_eq!(seen, ["T=double", "el=7"]);
        // `bind` replaces the newest binding of a name.
        env.bind("el", Value::Int(8));
        assert_eq!(env.get("el").unwrap().render(""), "8");
        env.truncate(mark);
        assert_eq!(env.get("el").unwrap().render(""), "a");
        assert_eq!(env.len(), 2);
    }

    #[test]
    fn exported_env_chain() {
        let mut env = Env::new();
        env.bind(
            "fn",
            Value::Ident {
                name: "cudaMalloc".into(),
                span: Span::SYNTHETIC,
            },
        );
        let mut ex = ExportedEnv::new();
        ex.absorb("cfe", &env);
        assert_eq!(ex.get("cfe", "fn").unwrap().render(""), "cudaMalloc");
        assert!(ex.get("other", "fn").is_none());
    }
}
