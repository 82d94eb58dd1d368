//! Pattern matching: SMPL pattern ASTs against target-code ASTs.
//!
//! The matcher implements Coccinelle's metavariable semantics:
//!
//! * first occurrence of a metavariable **binds**, later occurrences must
//!   match a structurally equal term (span-insensitive);
//! * `...` dots match any run of list elements, shortest first; a list
//!   metavariable matches its bound run, or else binds one, longest first;
//! * `\( … \| … \)` disjunction tries branches in order;
//! * `\( … \& … \)` conjunction requires all branches to match the *same*
//!   statement — an expression branch matches when the statement
//!   *contains* occurrences of the expression (all occurrences recorded,
//!   which is what lets the unroll rules rewrite every `i+1` in a bound
//!   statement);
//! * the **const-fold isomorphism**: when structural matching fails, two
//!   sides that both fold to the same integer constant match (so pattern
//!   `i+k-1` with `k=4` matches source `i+3`);
//! * position metavariables bind source offsets; inherited positions
//!   constrain matching to the recorded location.
//!
//! Every successful sub-match records a *correspondence pair* (pattern
//! span → source span) that the rewriter uses to anchor edits.
//!
//! Statement sequences, expression lists and parameter lists share one
//! list loop behind [`match_stmt_seq`], [`match_expr_list`] and
//! [`match_params`]: a run is paired, and cloned into its binding, once
//! the rest of the pattern accepts it, so a long run costs linear time.
//!
//! **The trail.** While a try runs, its [`MatchState`] only grows:
//! `bind_or_check` binds only names that are unbound, a list
//! metavariable binds only where it is unbound (or pushes a binding that
//! hides an older, non-list one), and pairs and choices are only pushed,
//! or inserted after the point where an alternative began. So an
//! alternative that fails is undone by truncating the bindings, pairs and
//! choices to the lengths noted before it (`MatchState::mark` and
//! `MatchState::rollback`), not by trying it on a clone of the whole
//! state. Each list element and run length, each disjunction branch,
//! each conjunction branch and containment probe, each attribute and each
//! `when !=` probe costs what it adds, not a copy of everything bound so
//! far. A sub-match that fails leaves what it bound in place, as before:
//! only the caller that tries an alternative rolls back, so the
//! const-fold and additive fallbacks of [`match_expr`] read the state
//! exactly as a failed structural match left it. Debug builds
//! fingerprint the state at every mark and assert that each rollback
//! restores it, so every debug test checks the invariant.
//!
//! A pattern identifier's metavariable kind and constraint come from the
//! rule's [`Metavars`] table, built once per compiled rule and searched by
//! symbol.

use crate::env::{Env, Value};
use cocci_cast::ast::*;
use cocci_cast::eq;
use cocci_cast::fold::eval_const;
use cocci_cast::visit;
use cocci_rex::Regex;
use cocci_smpl::{Constraint, MetaDecl, MetaDeclKind};
use cocci_source::{Span, Symbol};
use std::collections::HashMap;
use std::sync::Arc;

/// What a correspondence pair refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairKind {
    /// Expression occurrence.
    Expr,
    /// Statement.
    Stmt,
    /// Block (braces included).
    Block,
    /// Loop/`for` header region.
    Header,
    /// Attribute group.
    Attr,
    /// Top-level item.
    Item,
    /// A dots run (source span covers the skipped region).
    Dots,
    /// Preprocessor directive.
    Directive,
}

/// One pattern-to-source correspondence.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    /// Span in the rule body (pattern coordinates).
    pub pat: Span,
    /// Span in the target file.
    pub src: Span,
    /// What kind of node the pair links.
    pub kind: PairKind,
}

/// Accumulated state of one match attempt.
#[derive(Debug, Clone, Default)]
pub struct MatchState {
    /// Metavariable bindings.
    pub env: Env,
    /// Correspondence pairs.
    pub pairs: Vec<Pair>,
    /// Disjunction branch choices: (group pattern span, branch index).
    pub choices: Vec<(Span, usize)>,
    /// Witness family this match belongs to. `0` for tree-matcher
    /// matches; every CFG path witness carries its anchor attempt's
    /// non-zero id, shared by siblings forked from that attempt, so
    /// downstream overlap-claiming treats them as one match family
    /// (each witness rewrites its own source sites) instead of
    /// discarding all but the first.
    pub witness_group: u32,
}

impl MatchState {
    /// All source spans paired with pattern span `pat`.
    pub fn srcs_for(&self, pat: Span) -> Vec<Span> {
        self.pairs
            .iter()
            .filter(|p| p.pat == pat)
            .map(|p| p.src)
            .collect()
    }

    /// First source span paired with pattern span `pat`.
    pub fn src_for(&self, pat: Span) -> Option<Span> {
        self.pairs.iter().find(|p| p.pat == pat).map(|p| p.src)
    }

    /// Chosen branch of the pattern group at `span`.
    pub fn choice_for(&self, span: Span) -> Option<usize> {
        self.choices
            .iter()
            .find(|(s, _)| *s == span)
            .map(|(_, i)| *i)
    }

    /// Note where the state stands before trying an alternative.
    pub(crate) fn mark(&self) -> Mark {
        Mark {
            env: self.env.slots(),
            pairs: self.pairs.len(),
            choices: self.choices.len(),
            #[cfg(debug_assertions)]
            snapshot: self.fingerprint(),
        }
    }

    /// Undo everything the alternative tried since `mark` added.
    pub(crate) fn rollback(&mut self, mark: &Mark) {
        self.env.truncate(mark.env);
        self.pairs.truncate(mark.pairs);
        self.choices.truncate(mark.choices);
        #[cfg(debug_assertions)]
        assert_eq!(
            self.fingerprint(),
            mark.snapshot,
            "a rollback must restore the state its mark saw: {self:?}"
        );
    }

    /// A hash of the state's `Debug` text, taken without allocating (so
    /// the check leaves allocation counts alone).
    #[cfg(debug_assertions)]
    fn fingerprint(&self) -> u64 {
        use std::fmt::Write;
        use std::hash::Hasher;
        struct Fingerprint(std::collections::hash_map::DefaultHasher);
        impl Write for Fingerprint {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.0.write(s.as_bytes());
                Ok(())
            }
        }
        let mut h = Fingerprint(Default::default());
        write!(h, "{self:?}").expect("hashing cannot fail");
        h.0.finish()
    }
}

/// The lengths of a [`MatchState`]'s bindings, pairs and choices before an
/// alternative (see the module docs on the trail).
pub(crate) struct Mark {
    env: usize,
    pairs: usize,
    choices: usize,
    /// The whole state's fingerprint, to check that the rollback
    /// restores it.
    #[cfg(debug_assertions)]
    snapshot: u64,
}

/// A rule's metavariable declarations keyed by interned name, with their
/// constraints' regexes compiled. Built once per compiled rule: the
/// matcher looks each pattern identifier up by symbol, a few `u32`
/// compares, instead of resolving the symbol through the interner's lock
/// and comparing strings.
#[derive(Debug, Clone, Default)]
pub struct Metavars {
    decls: Vec<Metavar>,
}

#[derive(Debug, Clone)]
struct Metavar {
    name: Symbol,
    kind: MetaDeclKind,
    check: Check,
}

/// A declaration's constraint on the text its value renders to.
#[derive(Debug, Clone)]
enum Check {
    None,
    /// `=~`: the text must match (without a compiled regex, nothing does).
    Regex(Option<Regex>),
    /// `!~`: the text must not match (without a compiled regex, all pass).
    NotRegex(Option<Regex>),
    /// `= { ... }`: the text must be one of these.
    Set(Vec<String>),
}

impl Metavars {
    /// The table of `decls`; `regexes` holds the compiled `=~` / `!~`
    /// constraints keyed by metavariable name. A name declared twice
    /// resolves to its first declaration.
    pub fn new(decls: &[MetaDecl], regexes: &HashMap<String, Regex>) -> Metavars {
        let decls = decls
            .iter()
            .map(|d| Metavar {
                name: Symbol::intern(&d.name),
                kind: d.kind.clone(),
                check: match &d.constraint {
                    None => Check::None,
                    Some(Constraint::Regex(_)) => Check::Regex(regexes.get(&d.name).cloned()),
                    Some(Constraint::NotRegex(_)) => Check::NotRegex(regexes.get(&d.name).cloned()),
                    Some(Constraint::Set(vals)) => Check::Set(vals.clone()),
                },
            })
            .collect();
        Metavars { decls }
    }

    fn find(&self, name: Symbol) -> Option<&Metavar> {
        self.decls.iter().find(|d| d.name == name)
    }
}

/// Matching context: the rule's metavariables and the target file.
pub struct MatchCtx<'a> {
    /// Target file name — the identity recorded into position bindings
    /// so inherited positions compare correctly across a corpus. Every
    /// position binding shares this one allocation.
    pub(crate) file: Arc<str>,
    /// Target file text (for constraint checks on source slices).
    pub(crate) src: &'a str,
    /// The metavariables of the rule being matched.
    metavars: &'a Metavars,
}

impl<'a> MatchCtx<'a> {
    /// A context for matching the rule whose metavariables are `metavars`
    /// against `src`, the text of file `file`.
    pub fn new(file: impl Into<Arc<str>>, src: &'a str, metavars: &'a Metavars) -> Self {
        MatchCtx {
            file: file.into(),
            src,
            metavars,
        }
    }

    /// Kind of metavariable `name`, if declared.
    pub fn kind(&self, name: Symbol) -> Option<&MetaDeclKind> {
        self.metavars.find(name).map(|d| &d.kind)
    }

    /// Check the declaration constraint of `name`, if it has one,
    /// against the text `value` renders to (rendered only then).
    fn check_constraint(&self, name: Symbol, value: &Value) -> bool {
        let Some(d) = self.metavars.find(name) else {
            return true;
        };
        let text = || value.render(self.src);
        match &d.check {
            Check::None => true,
            Check::Regex(re) => re.as_ref().is_some_and(|re| re.is_match(&text())),
            Check::NotRegex(re) => re.as_ref().is_none_or(|re| !re.is_match(&text())),
            Check::Set(vals) => vals.contains(&text()),
        }
    }

    /// A position binding of `span` in this file.
    fn pos(&self, span: Span) -> Value {
        Value::Pos {
            file: Arc::clone(&self.file),
            span,
            resolved: None,
        }
    }
}

/// Span-insensitive equality between two bound values.
pub(crate) fn value_eq(a: &Value, b: &Value) -> bool {
    let a = a.structural();
    let b = b.structural();
    match (a, b) {
        (Value::Expr(x), Value::Expr(y)) => eq::expr_eq(x, y),
        (Value::Stmt(x), Value::Stmt(y)) => eq::stmt_eq(x, y),
        (Value::Type(x), Value::Type(y)) => eq::type_eq(x, y),
        (Value::Ident { name: x, .. }, Value::Ident { name: y, .. }) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Text(x), Value::Text(y)) => x == y,
        (
            Value::Pos {
                file: fx, span: sx, ..
            },
            Value::Pos {
                file: fy, span: sy, ..
            },
        ) => fx == fy && sx == sy,
        (Value::Pragma(x), Value::Pragma(y)) => x == y,
        (Value::ExprList(x), Value::ExprList(y)) => list_eq(x, y),
        (Value::StmtList(x), Value::StmtList(y)) => list_eq(x, y),
        (Value::Params(x), Value::Params(y)) => list_eq(x, y),
        // Cross-representation comparisons (script outputs, sizeof text).
        (Value::Ident { name, .. }, Value::Text(t))
        | (Value::Text(t), Value::Ident { name, .. }) => name.as_str() == t,
        (Value::Type(ty), Value::Text(t)) | (Value::Text(t), Value::Type(ty)) => {
            cocci_cast::render::render_type(ty) == *t
        }
        _ => false,
    }
}

/// Bind `name` to `value`, or check consistency with an existing binding.
fn bind_or_check(
    ctx: &MatchCtx,
    st: &mut MatchState,
    name: impl Into<Symbol>,
    value: Value,
) -> bool {
    let name = name.into();
    if let Some(existing) = st.env.get(name) {
        return value_eq(existing, &value);
    }
    if !ctx.check_constraint(name, &value) {
        return false;
    }
    st.env.push(name, value);
    true
}

/// Fold an expression to an integer constant, resolving bound constant
/// metavariables through the environment.
fn fold_with_env(e: &Expr, env: &Env) -> Option<i128> {
    match e {
        Expr::Ident(id) => match env.get(id.name) {
            Some(Value::Int(v)) => Some(*v),
            _ => None,
        },
        Expr::Paren { inner, .. } => fold_with_env(inner, env),
        Expr::Unary { op, expr, .. } => {
            let v = fold_with_env(expr, env)?;
            match op {
                UnOp::Neg => Some(-v),
                UnOp::Pos => Some(v),
                UnOp::BitNot => Some(!v),
                UnOp::Not => Some(i128::from(v == 0)),
                _ => None,
            }
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let a = fold_with_env(lhs, env)?;
            let b = fold_with_env(rhs, env)?;
            // Reuse eval_const's operator semantics by rebuilding a
            // literal expression.
            let lit = |v: i128| Expr::IntLit {
                value: v,
                raw: v.to_string().into(),
                span: Span::SYNTHETIC,
            };
            eval_const(&Expr::Binary {
                op: *op,
                lhs: Box::new(lit(a)),
                rhs: Box::new(lit(b)),
                span: Span::SYNTHETIC,
            })
        }
        _ => eval_const(e),
    }
}

// ---- expressions ----

/// Match an expression pattern against a source expression.
pub fn match_expr(ctx: &MatchCtx, pat: &Expr, src: &Expr, st: &mut MatchState) -> bool {
    if match_expr_inner(ctx, pat, src, st) {
        return true;
    }
    // Const-fold isomorphism: whole-expression fold.
    if let (Some(a), Some(b)) = (fold_with_env(pat, &st.env), eval_const(src)) {
        return a == b;
    }
    // Additive-normalization isomorphism: `i + k - 1` with `k = 4` must
    // match `i + 3`. Both sides are flattened into signed additive terms;
    // constant terms are summed and compared, non-constant residues must
    // match pairwise. Requires an explicit constant term on both sides so
    // that `i + 0` does not silently match a bare `i`.
    match_additive(ctx, pat, src, st)
}

fn flatten_additive<'e>(e: &'e Expr, sign: i128, out: &mut Vec<(i128, &'e Expr)>) {
    match e.unparen() {
        Expr::Binary {
            op: BinOp::Add,
            lhs,
            rhs,
            ..
        } => {
            flatten_additive(lhs, sign, out);
            flatten_additive(rhs, sign, out);
        }
        Expr::Binary {
            op: BinOp::Sub,
            lhs,
            rhs,
            ..
        } => {
            flatten_additive(lhs, sign, out);
            flatten_additive(rhs, -sign, out);
        }
        other => out.push((sign, other)),
    }
}

fn match_additive(ctx: &MatchCtx, pat: &Expr, src: &Expr, st: &mut MatchState) -> bool {
    let additive = |e: &Expr| {
        matches!(
            e.unparen(),
            Expr::Binary {
                op: BinOp::Add | BinOp::Sub,
                ..
            }
        )
    };
    if !additive(pat) || !additive(src) {
        return false;
    }
    let mut pts = Vec::new();
    flatten_additive(pat, 1, &mut pts);
    let mut sts = Vec::new();
    flatten_additive(src, 1, &mut sts);

    let mut pat_const = 0i128;
    let mut pat_residue = Vec::new();
    let mut pat_has_const = false;
    for (sign, term) in pts {
        match fold_with_env(term, &st.env) {
            Some(v) => {
                pat_const += sign * v;
                pat_has_const = true;
            }
            None => pat_residue.push((sign, term)),
        }
    }
    let mut src_const = 0i128;
    let mut src_residue = Vec::new();
    let mut src_has_const = false;
    for (sign, term) in sts {
        match eval_const(term) {
            Some(v) => {
                src_const += sign * v;
                src_has_const = true;
            }
            None => src_residue.push((sign, term)),
        }
    }
    if !pat_has_const || !src_has_const {
        return false;
    }
    if pat_const != src_const || pat_residue.len() != src_residue.len() {
        return false;
    }
    let mark = st.mark();
    for ((ps, pe), (ss, se)) in pat_residue.iter().zip(&src_residue) {
        if ps != ss || !match_expr(ctx, pe, se, st) {
            st.rollback(&mark);
            return false;
        }
    }
    true
}

fn match_expr_inner(ctx: &MatchCtx, pat: &Expr, src: &Expr, st: &mut MatchState) -> bool {
    let pat = pat.unparen();
    let src_e = src.unparen();
    match pat {
        Expr::Dots { .. } => true,
        Expr::Disj { branches, span } => {
            for (i, b) in branches.iter().enumerate() {
                let mark = st.mark();
                if match_expr(ctx, b, src, st) {
                    st.choices.push((*span, i));
                    return true;
                }
                st.rollback(&mark);
            }
            false
        }
        Expr::PosAnn { inner, pos, .. } => {
            match_expr(ctx, inner, src, st) && bind_or_check(ctx, st, pos, ctx.pos(src.span()))
        }
        Expr::Ident(id) => match ctx.kind(id.name) {
            Some(MetaDeclKind::Expression) | Some(MetaDeclKind::ExpressionList) => {
                bind_or_check(ctx, st, id.name, Value::Expr(src.clone()))
            }
            Some(MetaDeclKind::Identifier)
            | Some(MetaDeclKind::Function)
            | Some(MetaDeclKind::FreshIdentifier(_)) => match src_e {
                Expr::Ident(s) => bind_or_check(
                    ctx,
                    st,
                    id.name,
                    Value::Ident {
                        name: s.name,
                        span: s.span,
                    },
                ),
                _ => false,
            },
            Some(MetaDeclKind::Constant) => match eval_const(src_e) {
                Some(v) => {
                    // Set constraints compare the folded value's text.
                    bind_or_check(ctx, st, id.name, Value::Int(v))
                }
                None => match src_e {
                    Expr::StrLit { raw, .. } | Expr::FloatLit { raw, .. } => {
                        bind_or_check(ctx, st, id.name, Value::Text(raw.as_str().to_string()))
                    }
                    _ => false,
                },
            },
            Some(MetaDeclKind::Symbol) => matches!(src_e, Expr::Ident(s) if s.name == id.name),
            Some(MetaDeclKind::Type) => false,
            _ => matches!(src_e, Expr::Ident(s) if s.name == id.name),
        },
        Expr::IntLit { value, .. } => {
            matches!(src_e, Expr::IntLit { value: sv, .. } if sv == value)
        }
        Expr::FloatLit { raw, .. } => {
            matches!(src_e, Expr::FloatLit { raw: sr, .. } if sr == raw)
        }
        Expr::StrLit { raw, .. } => {
            matches!(src_e, Expr::StrLit { raw: sr, .. } if sr == raw)
        }
        Expr::CharLit { raw, .. } => {
            matches!(src_e, Expr::CharLit { raw: sr, .. } if sr == raw)
        }
        Expr::Unary { op, expr, .. } => match src_e {
            Expr::Unary {
                op: so, expr: se, ..
            } => op == so && match_expr(ctx, expr, se, st),
            _ => false,
        },
        Expr::PostIncDec { expr, inc, .. } => match src_e {
            Expr::PostIncDec {
                expr: se, inc: si, ..
            } => inc == si && match_expr(ctx, expr, se, st),
            _ => false,
        },
        Expr::Binary { op, lhs, rhs, .. } => match src_e {
            Expr::Binary {
                op: so,
                lhs: sl,
                rhs: sr,
                ..
            } => op == so && match_expr(ctx, lhs, sl, st) && match_expr(ctx, rhs, sr, st),
            _ => false,
        },
        Expr::Assign { op, lhs, rhs, .. } => match src_e {
            Expr::Assign {
                op: so,
                lhs: sl,
                rhs: sr,
                ..
            } => op == so && match_expr(ctx, lhs, sl, st) && match_expr(ctx, rhs, sr, st),
            _ => false,
        },
        Expr::Ternary {
            cond,
            then_val,
            else_val,
            ..
        } => match src_e {
            Expr::Ternary {
                cond: sc,
                then_val: stv,
                else_val: sev,
                ..
            } => {
                match_expr(ctx, cond, sc, st)
                    && match_expr(ctx, then_val, stv, st)
                    && match_expr(ctx, else_val, sev, st)
            }
            _ => false,
        },
        Expr::Call { callee, args, .. } => match src_e {
            Expr::Call {
                callee: sc,
                args: sa,
                ..
            } => match_expr(ctx, callee, sc, st) && match_expr_list(ctx, args, sa, st),
            _ => false,
        },
        Expr::KernelCall {
            callee,
            config,
            args,
            ..
        } => match src_e {
            Expr::KernelCall {
                callee: sc,
                config: sg,
                args: sa,
                ..
            } => {
                match_expr(ctx, callee, sc, st)
                    && match_expr_list(ctx, config, sg, st)
                    && match_expr_list(ctx, args, sa, st)
            }
            _ => false,
        },
        Expr::Index { base, indices, .. } => match src_e {
            Expr::Index {
                base: sb,
                indices: si,
                ..
            } => match_expr(ctx, base, sb, st) && match_expr_list(ctx, indices, si, st),
            _ => false,
        },
        Expr::Member {
            base, arrow, field, ..
        } => match src_e {
            Expr::Member {
                base: sb,
                arrow: sa,
                field: sf,
                ..
            } => {
                arrow == sa
                    && match ctx.kind(field.name) {
                        Some(MetaDeclKind::Identifier) => bind_or_check(
                            ctx,
                            st,
                            field.name,
                            Value::Ident {
                                name: sf.name,
                                span: sf.span,
                            },
                        ),
                        _ => field.name == sf.name,
                    }
                    && match_expr(ctx, base, sb, st)
            }
            _ => false,
        },
        Expr::Cast { ty, expr, .. } => match src_e {
            Expr::Cast {
                ty: sty, expr: se, ..
            } => match_type(ctx, ty, sty, st) && match_expr(ctx, expr, se, st),
            _ => false,
        },
        Expr::Sizeof { arg, .. } => match src_e {
            Expr::Sizeof { arg: sa, .. } => {
                // The operand is kept as raw text; a metavariable name as
                // the whole operand binds/checks against it.
                if ctx.kind(*arg).is_some() {
                    bind_or_check(ctx, st, arg, Value::Text(sa.as_str().to_string()))
                } else {
                    sa == arg
                }
            }
            _ => false,
        },
        Expr::InitList { elems, .. } => match src_e {
            Expr::InitList { elems: se, .. } => match_expr_list(ctx, elems, se, st),
            _ => false,
        },
        Expr::Paren { .. } => unreachable!("unparen applied"),
    }
}

// ---- types ----

/// Match a type pattern against a source type.
pub fn match_type(ctx: &MatchCtx, pat: &Type, src: &Type, st: &mut MatchState) -> bool {
    match (&pat.kind, &src.kind) {
        (TypeKind::Meta { name }, _) => bind_or_check(ctx, st, name, Value::Type(src.clone())),
        // Qualifier-insensitivity isomorphism: an unqualified pattern
        // matches a qualified source type.
        (_, TypeKind::Qualified { inner, .. })
            if !matches!(pat.kind, TypeKind::Qualified { .. }) =>
        {
            match_type(ctx, pat, inner, st)
        }
        (
            TypeKind::Named {
                name: pn,
                template_args: pt,
            },
            TypeKind::Named {
                name: sn,
                template_args: tt,
            },
        ) => {
            // A type-metavariable name cannot appear here (handled by
            // Meta); identifier metavariables as type names bind.
            if let Some(MetaDeclKind::Identifier) = ctx.kind(*pn) {
                return pt.is_none()
                    && bind_or_check(
                        ctx,
                        st,
                        pn,
                        Value::Ident {
                            name: *sn,
                            span: src.span,
                        },
                    );
            }
            pn == sn && pt == tt
        }
        (TypeKind::Ptr(pi), TypeKind::Ptr(si)) => match_type(ctx, pi, si, st),
        (TypeKind::Ref(pi), TypeKind::Ref(si)) => match_type(ctx, pi, si, st),
        (
            TypeKind::Qualified {
                quals: pq,
                inner: pi,
            },
            TypeKind::Qualified {
                quals: sq,
                inner: si,
            },
        ) => pq == sq && match_type(ctx, pi, si, st),
        (
            TypeKind::Record {
                keyword: pk,
                name: pn,
                ..
            },
            TypeKind::Record {
                keyword: sk,
                name: sn,
                ..
            },
        ) => pk == sk && pn == sn,
        _ => false,
    }
}

// ---- directives ----

/// Match a directive pattern (pragma/include) against a source directive.
pub fn match_directive(
    ctx: &MatchCtx,
    pat: &Directive,
    src: &Directive,
    st: &mut MatchState,
) -> bool {
    if pat.kind != src.kind {
        return false;
    }
    let ok = match pat.kind {
        DirectiveKind::Include => pat.payload == src.payload,
        DirectiveKind::Pragma => {
            let pat_words: Vec<&str> = pat.payload.split_whitespace().collect();
            let src_words: Vec<&str> = src.payload.split_whitespace().collect();
            match_pragma_words(ctx, &pat_words, &src_words, st)
        }
        _ => pat.raw.trim() == src.raw.trim(),
    };
    if ok {
        st.pairs.push(Pair {
            pat: pat.span,
            src: src.span,
            kind: PairKind::Directive,
        });
    }
    ok
}

fn match_pragma_words(ctx: &MatchCtx, pats: &[&str], srcs: &[&str], st: &mut MatchState) -> bool {
    let Some((p0, rest)) = pats.split_first() else {
        return srcs.is_empty();
    };
    if *p0 == "..." {
        // Dots: match the rest of the payload (must be final).
        return rest.is_empty();
    }
    let kind = ctx.kind(Symbol::intern(p0));
    if let Some(MetaDeclKind::PragmaInfo) = kind {
        // Binds the remainder of the payload; must be final.
        if !rest.is_empty() {
            return false;
        }
        return bind_or_check(ctx, st, *p0, Value::Pragma(srcs.join(" ")));
    }
    if let Some(MetaDeclKind::Identifier) = kind {
        let Some((s0, srest)) = srcs.split_first() else {
            return false;
        };
        return bind_or_check(
            ctx,
            st,
            *p0,
            Value::Ident {
                name: Symbol::intern(s0),
                span: Span::SYNTHETIC,
            },
        ) && match_pragma_words(ctx, rest, srest, st);
    }
    match srcs.split_first() {
        Some((s0, srest)) if s0 == p0 => match_pragma_words(ctx, rest, srest, st),
        _ => false,
    }
}

// ---- statements ----

/// Match a statement pattern against a source statement.
pub fn match_stmt(ctx: &MatchCtx, pat: &Stmt, src: &Stmt, st: &mut MatchState) -> bool {
    let matched = match pat {
        Stmt::MetaStmt { name, pos, .. } => {
            bind_or_check(ctx, st, name, Value::Stmt(Box::new(src.clone())))
                && pos.is_none_or(|p| bind_or_check(ctx, st, p, ctx.pos(src.span())))
        }
        Stmt::PatGroup {
            conj,
            branches,
            span,
        } => {
            if *conj {
                match_conj(ctx, branches, src, st)
            } else {
                let mut ok = false;
                for (i, b) in branches.iter().enumerate() {
                    if b.len() != 1 {
                        continue;
                    }
                    let mark = st.mark();
                    if match_stmt(ctx, &b[0], src, st) {
                        st.choices.push((*span, i));
                        ok = true;
                        break;
                    }
                    st.rollback(&mark);
                }
                ok
            }
        }
        Stmt::Expr { expr, .. } => match src {
            Stmt::Expr { expr: se, .. } => match_expr(ctx, expr, se, st),
            _ => false,
        },
        Stmt::Decl(pd) => match src {
            Stmt::Decl(sd) => match_decl(ctx, pd, sd, st),
            _ => false,
        },
        Stmt::Block(pb) => match src {
            Stmt::Block(sb) => match_block(ctx, pb, sb, st),
            _ => false,
        },
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => match src {
            Stmt::If {
                cond: sc,
                then_branch: stb,
                else_branch: seb,
                ..
            } => {
                match_expr(ctx, cond, sc, st)
                    && match_stmt(ctx, then_branch, stb, st)
                    && match (else_branch, seb) {
                        (None, None) => true,
                        (Some(p), Some(s)) => match_stmt(ctx, p, s, st),
                        _ => false,
                    }
            }
            _ => false,
        },
        Stmt::While { cond, body, .. } => match src {
            Stmt::While {
                cond: sc, body: sb, ..
            } => match_expr(ctx, cond, sc, st) && match_stmt(ctx, body, sb, st),
            _ => false,
        },
        Stmt::DoWhile { body, cond, .. } => match src {
            Stmt::DoWhile {
                body: sb, cond: sc, ..
            } => match_expr(ctx, cond, sc, st) && match_stmt(ctx, body, sb, st),
            _ => false,
        },
        Stmt::For {
            init,
            cond,
            step,
            body,
            header_span,
            ..
        } => match src {
            Stmt::For {
                init: si,
                cond: sc,
                step: ss,
                body: sb,
                header_span: shs,
                ..
            } => {
                let ok = match_for_init(ctx, init.as_deref(), si.as_deref(), st)
                    && match_opt_expr(ctx, cond.as_ref(), sc.as_ref(), st)
                    && match_opt_expr(ctx, step.as_ref(), ss.as_ref(), st)
                    && match_stmt(ctx, body, sb, st);
                if ok {
                    st.pairs.push(Pair {
                        pat: *header_span,
                        src: *shs,
                        kind: PairKind::Header,
                    });
                }
                ok
            }
            _ => false,
        },
        Stmt::RangeFor {
            ty,
            by_ref,
            var,
            range,
            body,
            ..
        } => match src {
            Stmt::RangeFor {
                ty: sty,
                by_ref: sbr,
                var: sv,
                range: sr,
                body: sb,
                ..
            } => {
                by_ref == sbr
                    && match_type(ctx, ty, sty, st)
                    && match_ident(ctx, var, sv, st)
                    && match_expr(ctx, range, sr, st)
                    && match_stmt(ctx, body, sb, st)
            }
            _ => false,
        },
        Stmt::Return { value, .. } => match src {
            Stmt::Return { value: sv, .. } => match_opt_expr(ctx, value.as_ref(), sv.as_ref(), st),
            _ => false,
        },
        Stmt::Break { .. } => matches!(src, Stmt::Break { .. }),
        Stmt::Continue { .. } => matches!(src, Stmt::Continue { .. }),
        Stmt::Goto { label, .. } => match src {
            Stmt::Goto { label: sl, .. } => match_ident(ctx, label, sl, st),
            _ => false,
        },
        Stmt::Label { label, stmt, .. } => match src {
            Stmt::Label {
                label: sl,
                stmt: ss,
                ..
            } => match_ident(ctx, label, sl, st) && match_stmt(ctx, stmt, ss, st),
            _ => false,
        },
        Stmt::Switch {
            scrutinee, body, ..
        } => match src {
            Stmt::Switch {
                scrutinee: se,
                body: sb,
                ..
            } => match_expr(ctx, scrutinee, se, st) && match_stmt(ctx, body, sb, st),
            _ => false,
        },
        Stmt::Case { value, stmt, .. } => match src {
            Stmt::Case {
                value: sv,
                stmt: ss,
                ..
            } => {
                match_opt_expr(ctx, value.as_ref(), sv.as_ref(), st)
                    && match_stmt(ctx, stmt, ss, st)
            }
            _ => false,
        },
        Stmt::Directive(pd) => match src {
            Stmt::Directive(sd) => match_directive(ctx, pd, sd, st),
            _ => false,
        },
        Stmt::Empty { .. } => matches!(src, Stmt::Empty { .. }),
        Stmt::Dots { .. } | Stmt::MetaStmtList { .. } => {
            unreachable!("sequence elements handled by the list loop")
        }
    };
    if matched {
        st.pairs.push(Pair {
            pat: pat.span(),
            src: src.span(),
            kind: PairKind::Stmt,
        });
    }
    matched
}

/// Conjunction: all branches must match the same source statement. A
/// single-expression branch falls back to *containment*: all occurrences
/// of the expression within the statement are matched and recorded.
fn match_conj(ctx: &MatchCtx, branches: &[Vec<Stmt>], src: &Stmt, st: &mut MatchState) -> bool {
    for b in branches {
        if b.len() != 1 {
            return false;
        }
        let mark = st.mark();
        if match_stmt(ctx, &b[0], src, st) {
            continue;
        }
        st.rollback(&mark);
        // Containment fallback for expression branches.
        if let Stmt::Expr { expr: pat_e, .. } = &b[0] {
            let mut found = Vec::new();
            visit::deep_stmt_exprs(src, &mut |se| {
                // Top-level occurrences only: skip when an enclosing
                // occurrence already matched (e.g. `i+1` inside `a[i+1]`
                // matches once, not per-subtree — handled by span overlap
                // check below).
                let mark = st.mark();
                if match_expr(ctx, pat_e, se, st) {
                    let span = se.span();
                    let overlaps = found
                        .iter()
                        .any(|s: &Span| s.contains(span) || span.contains(*s));
                    if !overlaps {
                        found.push(span);
                        st.pairs.push(Pair {
                            pat: pat_e.span(),
                            src: span,
                            kind: PairKind::Expr,
                        });
                        return;
                    }
                }
                st.rollback(&mark);
            });
            if found.is_empty() {
                return false;
            }
            continue;
        }
        return false;
    }
    true
}

fn match_ident(ctx: &MatchCtx, pat: &Ident, src: &Ident, st: &mut MatchState) -> bool {
    match ctx.kind(pat.name) {
        Some(MetaDeclKind::Identifier)
        | Some(MetaDeclKind::Function)
        | Some(MetaDeclKind::FreshIdentifier(_)) => bind_or_check(
            ctx,
            st,
            pat.name,
            Value::Ident {
                name: src.name,
                span: src.span,
            },
        ),
        Some(MetaDeclKind::Symbol) => pat.name == src.name,
        _ => pat.name == src.name,
    }
}

fn match_opt_expr(
    ctx: &MatchCtx,
    pat: Option<&Expr>,
    src: Option<&Expr>,
    st: &mut MatchState,
) -> bool {
    match (pat, src) {
        (None, None) => true,
        // `...` in an optional header slot matches presence or absence.
        (Some(Expr::Dots { .. }), _) => true,
        (Some(p), Some(s)) => match_expr(ctx, p, s, st),
        _ => false,
    }
}

fn match_for_init(
    ctx: &MatchCtx,
    pat: Option<&ForInit>,
    src: Option<&ForInit>,
    st: &mut MatchState,
) -> bool {
    match (pat, src) {
        (None, None) => true,
        (Some(ForInit::Dots { .. }), _) => true,
        (Some(ForInit::Decl(pd)), Some(ForInit::Decl(sd))) => match_decl(ctx, pd, sd, st),
        (Some(ForInit::Expr(pe)), Some(ForInit::Expr(se))) => match_expr(ctx, pe, se, st),
        _ => false,
    }
}

fn match_decl(ctx: &MatchCtx, pat: &Declaration, src: &Declaration, st: &mut MatchState) -> bool {
    // Pattern specifiers must all appear, in order, among source
    // specifiers (a pattern without `static` still matches a static decl).
    let mut si = 0usize;
    for ps in &pat.specifiers {
        match src.specifiers[si..].iter().position(|s| s.name == ps.name) {
            Some(k) => si += k + 1,
            None => return false,
        }
    }
    if !match_type(ctx, &pat.ty, &src.ty, st) {
        return false;
    }
    if pat.declarators.len() != src.declarators.len() {
        return false;
    }
    for (pd, sd) in pat.declarators.iter().zip(&src.declarators) {
        if pd.ptr != sd.ptr || pd.reference != sd.reference {
            return false;
        }
        if !match_ident(ctx, &pd.name, &sd.name, st) {
            return false;
        }
        if pd.array.len() != sd.array.len() {
            return false;
        }
        for (pa, sa) in pd.array.iter().zip(&sd.array) {
            match (pa, sa) {
                (None, None) => {}
                (Some(p), Some(s)) => {
                    if !match_expr(ctx, p, s, st) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        match (&pd.init, &sd.init) {
            (None, None) => {}
            (None, Some(_)) => return false,
            (Some(_), None) => return false,
            (Some(p), Some(s)) => {
                if !match_expr(ctx, p, s, st) {
                    return false;
                }
            }
        }
        // Function-prototype declarators.
        match (&pd.fn_params, &sd.fn_params) {
            (None, None) => {}
            (Some(pp), Some(sp)) => {
                if !match_params(ctx, pp, false, sp, false, st) {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

/// Match a block: the pattern statement sequence must cover the entire
/// source block (dots absorb).
pub fn match_block(ctx: &MatchCtx, pat: &Block, src: &Block, st: &mut MatchState) -> bool {
    let ok = match_stmt_seq(ctx, &pat.stmts, &src.stmts, true, src.span, st);
    if ok {
        st.pairs.push(Pair {
            pat: pat.span,
            src: src.span,
            kind: PairKind::Block,
        });
    }
    ok
}

/// `when != e`: whether any `forbidden` expression matches an expression
/// that `walk` visits, under `st`'s bindings (a probe never binds into
/// `st`: the probes share one copy of it, rolled back after each).
pub(crate) fn when_not_hit<'a>(
    ctx: &MatchCtx,
    forbidden: &[Expr],
    st: &MatchState,
    walk: impl FnOnce(&mut dyn FnMut(&'a Expr)),
) -> bool {
    let mut probe = st.clone();
    let mark = probe.mark();
    let mut hit = false;
    walk(&mut |sub| {
        hit = hit
            || forbidden.iter().any(|f| {
                let matched = match_expr(ctx, f, sub, &mut probe);
                probe.rollback(&mark);
                matched
            });
    });
    hit
}

// ---- lists ----

/// Match a pattern statement sequence against source statements.
///
/// With `require_full`, the pattern must consume every source statement
/// (block semantics); otherwise trailing source statements may remain
/// (window semantics).
///
/// `enclosing` is the span of the enclosing block (used to give empty
/// dots runs a real anchor position).
pub fn match_stmt_seq(
    ctx: &MatchCtx,
    pats: &[Stmt],
    srcs: &[Stmt],
    require_full: bool,
    enclosing: Span,
    st: &mut MatchState,
) -> bool {
    let end = enclosing.end.saturating_sub(1);
    match_list(ctx, pats, srcs, require_full, end, st)
}

/// Match a pattern expression list (arguments, launch config, indices)
/// against a source list, honouring `...` and `expression list`
/// metavariables.
pub fn match_expr_list(ctx: &MatchCtx, pats: &[Expr], srcs: &[Expr], st: &mut MatchState) -> bool {
    match_list(ctx, pats, srcs, true, u32::MAX, st)
}

/// Match pattern parameters (with `parameter list` metavariables and the
/// pattern-mode `(...)` any-params form) against source parameters.
pub fn match_params(
    ctx: &MatchCtx,
    pats: &[Param],
    pat_varargs: bool,
    srcs: &[Param],
    src_varargs: bool,
    st: &mut MatchState,
) -> bool {
    // Pattern `(...)`: matches any parameter list.
    if pats.is_empty() && pat_varargs {
        return true;
    }
    if pat_varargs != src_varargs && !pat_varargs {
        return false;
    }
    match_list(ctx, pats, srcs, true, u32::MAX, st)
}

/// What the list loop does with one pattern element.
enum Arm {
    /// `...`: takes a run of source elements, shortest first.
    Dots(Span),
    /// A list metavariable: matches the run it is bound to, or else takes
    /// a run, longest first. `pair` is the pattern span of a statement
    /// list, whose run records a pair.
    List { name: Symbol, pair: Option<Span> },
    /// Matches exactly one source element.
    One,
}

/// An element of the lists [`match_list`] matches: a statement, an
/// expression or a parameter.
trait ListElem: Clone {
    /// The value that binds a list metavariable to a run.
    const LIST: fn(Vec<Self>) -> Value;
    /// Span-insensitive equality.
    const SAME: fn(&Self, &Self) -> bool;
    /// The element's source span.
    const SPAN: fn(&Self) -> Span;
    /// Match one pattern element against one source element.
    const ONE: fn(&MatchCtx, &Self, &Self, &mut MatchState) -> bool;
    /// The arm this pattern element takes.
    fn arm(&self, ctx: &MatchCtx) -> Arm;
    /// The run a list metavariable is bound to, when `v` is a list of
    /// this element.
    fn bound(v: &Value) -> Option<&[Self]>;
    /// The one element a plain use of a list metavariable bound it to
    /// (`el` in `el + 1`), when `v` is such an element.
    fn one(v: &Value) -> Option<&Self>;
    /// Whether matching `rest` may read list metavariable `name`.
    fn names(rest: &[Self], name: Symbol) -> bool;
    /// Whether these dots may skip source element `s`.
    fn may_skip(&self, _: &MatchCtx, _s: &Self, _: &MatchState) -> bool {
        true
    }
}

/// Span-insensitive equality of two lists.
fn list_eq<E: ListElem>(a: &[E], b: &[E]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| E::SAME(x, y))
}

/// The one list loop: match pattern elements `pats` against source
/// elements `srcs`. With `require_full`, the pattern must consume every
/// source element; an empty run with no element after it sits at `end`.
///
/// A run that dots or an unbound list metavariable takes is accepted
/// once the rest of the pattern matches the elements after it. Only
/// then is its pair inserted at its old index, with its span folded
/// once, and only then is the run cloned into its binding, unless the
/// rest of the pattern names the list and must see it bound. So one
/// long run costs linear time, not a fold and a copy per run length.
fn match_list<E: ListElem>(
    ctx: &MatchCtx,
    pats: &[E],
    srcs: &[E],
    require_full: bool,
    end: u32,
    st: &mut MatchState,
) -> bool {
    let Some((p0, rest)) = pats.split_first() else {
        return !require_full || srcs.is_empty();
    };
    let go = |after: &[E], st: &mut MatchState| match_list(ctx, rest, after, require_full, end, st);
    let (list, pair) = match p0.arm(ctx) {
        Arm::Dots(span) => (None, Some(span)),
        Arm::List { name, pair } => {
            // A bound name matches what it is bound to: its run, or the
            // one element a plain use bound. A binding of another kind
            // refuses.
            if let Some(v) = st.env.get(name).map(Value::structural) {
                let run = match (E::bound(v), E::one(v)) {
                    (Some(run), _) => run,
                    (None, Some(one)) => std::slice::from_ref(one),
                    (None, None) => return false,
                };
                let n = run.len();
                return n <= srcs.len() && list_eq(run, &srcs[..n]) && go(&srcs[n..], st);
            }
            (Some(name), pair)
        }
        Arm::One => {
            let Some((s0, srest)) = srcs.split_first() else {
                return false;
            };
            let mark = st.mark();
            if E::ONE(ctx, p0, s0, st) && go(srest, st) {
                return true;
            }
            st.rollback(&mark);
            return false;
        }
    };
    let early = list.filter(|&name| E::names(rest, name));
    for i in 0..=srcs.len() {
        let n = if list.is_some() { srcs.len() - i } else { i };
        // Dots: shorter runs passed, so only the element this run adds
        // can fail, and then every longer run fails too.
        if list.is_none() && n > 0 && !p0.may_skip(ctx, &srcs[n - 1], st) {
            break;
        }
        let mark = st.mark();
        if let Some(name) = early {
            st.env.push(name, E::LIST(srcs[..n].to_vec()));
        }
        if go(&srcs[n..], st) {
            if let Some(name) = list.filter(|_| early.is_none()) {
                st.env.push(name, E::LIST(srcs[..n].to_vec()));
            }
            if let Some(pat) = pair {
                let src = match &srcs[..n] {
                    [] => Span::empty(srcs.first().map_or(end, |s| E::SPAN(s).start)),
                    run => run
                        .iter()
                        .fold(Span::SYNTHETIC, |acc, s| acc.merge(E::SPAN(s))),
                };
                let pair = Pair {
                    pat,
                    src,
                    kind: PairKind::Dots,
                };
                st.pairs.insert(mark.pairs, pair);
            }
            return true;
        }
        st.rollback(&mark);
    }
    false
}

impl ListElem for Stmt {
    const LIST: fn(Vec<Stmt>) -> Value = Value::StmtList;
    const SAME: fn(&Stmt, &Stmt) -> bool = eq::stmt_eq;
    const SPAN: fn(&Stmt) -> Span = Stmt::span;
    const ONE: fn(&MatchCtx, &Stmt, &Stmt, &mut MatchState) -> bool = match_stmt;

    fn arm(&self, _: &MatchCtx) -> Arm {
        match self {
            // The path quantifier (`when exists` / `when strict`) is a
            // CFG notion; the tree-sequence reading of dots ignores it.
            Stmt::Dots { span, .. } => Arm::Dots(*span),
            Stmt::MetaStmtList { name, span } => Arm::List {
                name: *name,
                pair: Some(*span),
            },
            _ => Arm::One,
        }
    }

    fn bound(v: &Value) -> Option<&[Stmt]> {
        match v {
            Value::StmtList(run) => Some(run),
            _ => None,
        }
    }

    fn one(v: &Value) -> Option<&Stmt> {
        match v {
            Value::Stmt(s) => Some(s),
            _ => None,
        }
    }

    fn names(rest: &[Stmt], name: Symbol) -> bool {
        rest.iter().any(|p| {
            let mut found = false;
            visit::walk_stmt(p, &mut |s| {
                found |= matches!(s, Stmt::MetaStmtList { name: n, .. } if *n == name)
            });
            found
        })
    }

    /// `when != e`: no skipped statement may contain e.
    fn may_skip(&self, ctx: &MatchCtx, s: &Stmt, st: &MatchState) -> bool {
        let Stmt::Dots { when_not, .. } = self else {
            return true;
        };
        when_not.is_empty() || !when_not_hit(ctx, when_not, st, |f| visit::deep_stmt_exprs(s, f))
    }
}

impl ListElem for Expr {
    const LIST: fn(Vec<Expr>) -> Value = Value::ExprList;
    const SAME: fn(&Expr, &Expr) -> bool = eq::expr_eq;
    const SPAN: fn(&Expr) -> Span = Expr::span;
    const ONE: fn(&MatchCtx, &Expr, &Expr, &mut MatchState) -> bool = match_expr;

    fn arm(&self, ctx: &MatchCtx) -> Arm {
        match self.unparen() {
            Expr::Dots { span } => Arm::Dots(*span),
            Expr::Ident(id) if ctx.kind(id.name) == Some(&MetaDeclKind::ExpressionList) => {
                Arm::List {
                    name: id.name,
                    pair: None,
                }
            }
            _ => Arm::One,
        }
    }

    fn bound(v: &Value) -> Option<&[Expr]> {
        match v {
            Value::ExprList(run) => Some(run),
            _ => None,
        }
    }

    fn one(v: &Value) -> Option<&Expr> {
        match v {
            Value::Expr(e) => Some(e),
            _ => None,
        }
    }

    /// A nested list, a plain use (`el + 1`) and a `sizeof` operand all
    /// read the binding.
    fn names(rest: &[Expr], name: Symbol) -> bool {
        let mut found = false;
        for p in rest {
            visit::walk_expr(p, &mut |e| {
                found |= match e {
                    Expr::Ident(id) => id.name == name,
                    Expr::Sizeof { arg, .. } => *arg == name,
                    _ => false,
                }
            });
        }
        found
    }
}

impl ListElem for Param {
    const LIST: fn(Vec<Param>) -> Value = Value::Params;
    const SAME: fn(&Param, &Param) -> bool = eq::param_eq;
    const SPAN: fn(&Param) -> Span = |p| p.span;
    /// A parameter matches by type, and by name when the pattern names
    /// it.
    const ONE: fn(&MatchCtx, &Param, &Param, &mut MatchState) -> bool = |ctx, p, s, st| {
        match_type(ctx, &p.ty, &s.ty, st)
            && match (&p.name, &s.name) {
                (None, _) => true,
                (Some(pn), Some(sn)) => match_ident(ctx, pn, sn, st),
                (Some(_), None) => false,
            }
    };

    fn arm(&self, _: &MatchCtx) -> Arm {
        match &self.name {
            Some(id) if self.meta_list => Arm::List {
                name: id.name,
                pair: None,
            },
            _ => Arm::One,
        }
    }

    fn bound(v: &Value) -> Option<&[Param]> {
        match v {
            Value::Params(run) => Some(run),
            _ => None,
        }
    }

    /// No plain use binds a parameter list to one parameter.
    fn one(_: &Value) -> Option<&Param> {
        None
    }

    fn names(rest: &[Param], name: Symbol) -> bool {
        rest.iter()
            .any(|p| p.meta_list && p.name.as_ref().is_some_and(|n| n.name == name))
    }
}

// ---- attributes, functions, items ----

/// Match an attribute pattern against a source attribute group.
pub fn match_attribute(
    ctx: &MatchCtx,
    pat: &Attribute,
    src: &Attribute,
    st: &mut MatchState,
) -> bool {
    if pat.items.len() != src.items.len() {
        return false;
    }
    for (pi, si) in pat.items.iter().zip(&src.items) {
        if !match_ident(ctx, &pi.name, &si.name, st) {
            return false;
        }
        match (&pi.args, &si.args) {
            (None, None) => {}
            (Some(pa), Some(sa)) => {
                if !match_expr_list(ctx, pa, sa, st) {
                    return false;
                }
            }
            _ => return false,
        }
    }
    st.pairs.push(Pair {
        pat: pat.span,
        src: src.span,
        kind: PairKind::Attr,
    });
    true
}

/// Match a function-definition pattern against a source function.
pub fn match_function(
    ctx: &MatchCtx,
    pat: &FunctionDef,
    src: &FunctionDef,
    st: &mut MatchState,
) -> bool {
    // Specifiers: pattern's must all appear in order.
    let mut si = 0usize;
    for ps in &pat.specifiers {
        match src.specifiers[si..].iter().position(|s| s.name == ps.name) {
            Some(k) => si += k + 1,
            None => return false,
        }
    }
    // Attributes: each pattern attribute must match a distinct source
    // attribute, in order; extra source attributes are allowed only when
    // the pattern declares none of its own at that position.
    let mut sa = 0usize;
    for pattr in &pat.attrs {
        let mut matched = false;
        while sa < src.attrs.len() {
            let mark = st.mark();
            sa += 1;
            if match_attribute(ctx, pattr, &src.attrs[sa - 1], st) {
                matched = true;
                break;
            }
            st.rollback(&mark);
        }
        if !matched {
            return false;
        }
    }
    if !match_type(ctx, &pat.ret, &src.ret, st) {
        return false;
    }
    if !match_ident(ctx, &pat.name, &src.name, st) {
        return false;
    }
    if !match_params(ctx, &pat.params, pat.varargs, &src.params, src.varargs, st) {
        return false;
    }
    if !match_block(ctx, &pat.body, &src.body, st) {
        return false;
    }
    st.pairs.push(Pair {
        pat: pat.span,
        src: src.span,
        kind: PairKind::Item,
    });
    true
}

/// Match an item pattern against a source item.
pub fn match_item(ctx: &MatchCtx, pat: &Item, src: &Item, st: &mut MatchState) -> bool {
    let ok = match (pat, src) {
        (Item::Function(pf), Item::Function(sf)) => match_function(ctx, pf, sf, st),
        (Item::Decl(pd), Item::Decl(sd)) => match_decl(ctx, pd, sd, st),
        (Item::Directive(pd), Item::Directive(sd)) => return match_directive(ctx, pd, sd, st),
        _ => false,
    };
    if ok {
        st.pairs.push(Pair {
            pat: pat.span(),
            src: src.span(),
            kind: PairKind::Item,
        });
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocci_cast::parser::{parse_expression, parse_statements, NoMeta, ParseOptions};
    use cocci_smpl::{Constraint, MetaDecl, MetaDeclKind};

    fn decls(list: &[(&str, MetaDeclKind)]) -> Vec<MetaDecl> {
        list.iter()
            .map(|(n, k)| MetaDecl {
                name: n.to_string(),
                kind: k.clone(),
                constraint: None,
                inherited_from: None,
            })
            .collect()
    }

    struct DeclsLookup<'a>(&'a [MetaDecl]);
    impl cocci_cast::MetaLookup for DeclsLookup<'_> {
        fn kind(&self, name: &str) -> Option<cocci_cast::MetaKind> {
            self.0
                .iter()
                .find(|d| d.name == name)
                .map(|d| d.kind.parse_kind())
        }
    }

    fn pat_expr(src: &str, ds: &[MetaDecl]) -> Expr {
        parse_expression(src, ParseOptions::pattern(), &DeclsLookup(ds)).unwrap()
    }

    fn src_expr(src: &str) -> Expr {
        parse_expression(src, ParseOptions::cpp(), &NoMeta).unwrap()
    }

    fn try_match(pat: &str, src: &str, ds: Vec<MetaDecl>) -> Option<MatchState> {
        let p = pat_expr(pat, &ds);
        let s = src_expr(src);
        let regexes = HashMap::new();
        let metavars = Metavars::new(&ds, &regexes);
        let ctx = MatchCtx::new("t.c", src, &metavars);
        let mut st = MatchState::default();
        if match_expr(&ctx, &p, &s, &mut st) {
            Some(st)
        } else {
            None
        }
    }

    #[test]
    fn expr_metavar_binds_whole_subterm() {
        let ds = decls(&[("x", MetaDeclKind::Expression)]);
        let st = try_match("f(x)", "f(a[i] + 1)", ds).unwrap();
        assert_eq!(st.env.get("x").unwrap().render("f(a[i] + 1)"), "a[i] + 1");
    }

    #[test]
    fn repeated_metavar_must_agree() {
        let ds = decls(&[("x", MetaDeclKind::Expression)]);
        assert!(try_match("f(x, x)", "f(a+1, a+1)", ds.clone()).is_some());
        assert!(try_match("f(x, x)", "f(a+1, a+2)", ds).is_none());
    }

    #[test]
    fn ident_metavar_only_matches_identifiers() {
        let ds = decls(&[("f", MetaDeclKind::Identifier)]);
        assert!(try_match("f(1)", "foo(1)", ds.clone()).is_some());
        assert!(try_match("f(1)", "(p->fn)(1)", ds).is_none());
    }

    #[test]
    fn symbol_matches_literally() {
        let ds = decls(&[("a", MetaDeclKind::Symbol)]);
        assert!(try_match("a[0]", "a[0]", ds.clone()).is_some());
        assert!(try_match("a[0]", "b[0]", ds).is_none());
    }

    #[test]
    fn const_fold_isomorphism() {
        let ds = decls(&[
            ("i", MetaDeclKind::Identifier),
            ("l", MetaDeclKind::Identifier),
        ]);
        let mut with_k = decls(&[
            ("i", MetaDeclKind::Identifier),
            ("l", MetaDeclKind::Identifier),
        ]);
        with_k.push(MetaDecl {
            name: "k".into(),
            kind: MetaDeclKind::Constant,
            constraint: Some(Constraint::Set(vec!["4".into()])),
            inherited_from: None,
        });
        // Pre-bind k=4 (orchestrator seeds set-constrained constants).
        let p = pat_expr("i+k-1 < l", &with_k);
        let s = src_expr("i+3 < n");
        let regexes = HashMap::new();
        let metavars = Metavars::new(&with_k, &regexes);
        let ctx = MatchCtx::new("t.c", "i+3 < n", &metavars);
        let mut st = MatchState::default();
        st.env.bind("k", Value::Int(4));
        assert!(match_expr(&ctx, &p, &s, &mut st));
        assert_eq!(st.env.get("l").unwrap().render("i+3 < n"), "n");
        let _ = ds;
    }

    #[test]
    fn expr_list_metavar_captures_args() {
        let ds = decls(&[
            ("fn", MetaDeclKind::Identifier),
            ("el", MetaDeclKind::ExpressionList),
        ]);
        let src = "curand_init(seed, tid, 0, &state)";
        let st = try_match("fn(el)", src, ds).unwrap();
        assert_eq!(
            st.env.get("el").unwrap().render(src),
            "seed, tid, 0, &state"
        );
    }

    #[test]
    fn dots_in_args() {
        let ds = decls(&[]);
        assert!(try_match("f(..., 7)", "f(1, 2, 7)", ds.clone()).is_some());
        assert!(try_match("f(..., 7)", "f(7)", ds.clone()).is_some());
        assert!(try_match("f(..., 7)", "f(7, 8)", ds).is_none());
    }

    #[test]
    fn kernel_call_pattern() {
        let ds = decls(&[
            ("k", MetaDeclKind::Identifier),
            ("b", MetaDeclKind::Expression),
            ("t", MetaDeclKind::Expression),
            ("x", MetaDeclKind::Expression),
            ("y", MetaDeclKind::Expression),
            ("el", MetaDeclKind::ExpressionList),
        ]);
        let src = "saxpy<<<grid, block, 0, stream>>>(n, a, xs, ys)";
        let st = try_match("k<<<b,t,x,y>>>(el)", src, ds).unwrap();
        assert_eq!(st.env.get("k").unwrap().render(src), "saxpy");
        assert_eq!(st.env.get("el").unwrap().render(src), "n, a, xs, ys");
    }

    #[test]
    fn multi_index_pattern() {
        let ds = decls(&[
            ("a", MetaDeclKind::Symbol),
            ("x", MetaDeclKind::Expression),
            ("y", MetaDeclKind::Expression),
            ("z", MetaDeclKind::Expression),
        ]);
        let src = "a[i][j+1][k*2]";
        let st = try_match("a[x][y][z]", src, ds).unwrap();
        assert_eq!(st.env.get("y").unwrap().render(src), "j+1");
    }

    #[test]
    fn position_annotation_binds_offset() {
        let ds = decls(&[
            ("fn", MetaDeclKind::Identifier),
            ("el", MetaDeclKind::ExpressionList),
            ("p", MetaDeclKind::Position),
        ]);
        let src = "  foo(1)";
        let p = pat_expr("fn@p(el)", &ds);
        let s = src_expr(src);
        let regexes = HashMap::new();
        let metavars = Metavars::new(&ds, &regexes);
        let ctx = MatchCtx::new("t.c", src, &metavars);
        let mut st = MatchState::default();
        assert!(match_expr(&ctx, &p, &s, &mut st));
        match st.env.get("p").unwrap() {
            Value::Pos { file, span, .. } => {
                assert_eq!(file.as_ref(), "t.c");
                // `fn@p(el)` annotates the callee identifier, so the
                // span covers `foo`.
                assert_eq!((span.start, span.end), (2, 5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inherited_position_constrains() {
        let ds = decls(&[
            ("fn", MetaDeclKind::Identifier),
            ("el", MetaDeclKind::ExpressionList),
            ("p", MetaDeclKind::Position),
        ]);
        let src = "foo(1)";
        let p = pat_expr("fn@p(el)", &ds);
        let s = src_expr(src);
        let regexes = HashMap::new();
        let metavars = Metavars::new(&ds, &regexes);
        let ctx = MatchCtx::new("t.c", src, &metavars);
        let mut st = MatchState::default();
        st.env.bind(
            "p",
            Value::Pos {
                file: "t.c".into(),
                span: Span::new(99, 105),
                resolved: None,
            },
        );
        assert!(!match_expr(&ctx, &p, &s, &mut st));
        // The *right* inherited position does match.
        let mut st = MatchState::default();
        st.env.bind(
            "p",
            Value::Pos {
                file: "t.c".into(),
                span: Span::new(0, 3),
                resolved: None,
            },
        );
        assert!(match_expr(&ctx, &p, &s, &mut st));
        // Same span in a *different file* refuses: positions carry file
        // identity, so offset collisions across a corpus cannot alias.
        let mut st = MatchState::default();
        st.env.bind(
            "p",
            Value::Pos {
                file: "other.c".into(),
                span: Span::new(0, 3),
                resolved: None,
            },
        );
        assert!(!match_expr(&ctx, &p, &s, &mut st));
    }

    #[test]
    fn stmt_seq_with_dots() {
        let ds = decls(&[("x", MetaDeclKind::Expression)]);
        let pats =
            parse_statements("a(); ... b(x);", ParseOptions::pattern(), &DeclsLookup(&ds)).unwrap();
        let src_text = "{ a(); mid1(); mid2(); b(42); after(); }";
        let srcs = parse_statements(src_text, ParseOptions::c(), &NoMeta).unwrap();
        let Stmt::Block(b) = &srcs[0] else { panic!() };
        let regexes = HashMap::new();
        let metavars = Metavars::new(&ds, &regexes);
        let ctx = MatchCtx::new("t.c", src_text, &metavars);
        let mut st = MatchState::default();
        assert!(match_stmt_seq(
            &ctx, &pats, &b.stmts, false, b.span, &mut st
        ));
        assert_eq!(st.env.get("x").unwrap().render(src_text), "42");
    }

    #[test]
    fn stmt_metavar_rebinding_requires_equality() {
        let ds = decls(&[("A", MetaDeclKind::Statement)]);
        let pats = parse_statements("A A", ParseOptions::pattern(), &DeclsLookup(&ds)).unwrap();
        let same = "{ x = f(1); x = f(1); }";
        let srcs = parse_statements(same, ParseOptions::c(), &NoMeta).unwrap();
        let Stmt::Block(b) = &srcs[0] else { panic!() };
        let regexes = HashMap::new();
        let metavars = Metavars::new(&ds, &regexes);
        let ctx = MatchCtx::new("t.c", same, &metavars);
        let mut st = MatchState::default();
        assert!(match_stmt_seq(&ctx, &pats, &b.stmts, true, b.span, &mut st));

        let diff = "{ x = f(1); x = f(2); }";
        let srcs2 = parse_statements(diff, ParseOptions::c(), &NoMeta).unwrap();
        let Stmt::Block(b2) = &srcs2[0] else { panic!() };
        let metavars2 = Metavars::new(&ds, &regexes);
        let ctx2 = MatchCtx::new("t.c", diff, &metavars2);
        let mut st2 = MatchState::default();
        assert!(!match_stmt_seq(
            &ctx2, &pats, &b2.stmts, true, b2.span, &mut st2
        ));
    }

    #[test]
    fn statement_list_named_twice_binds_before_the_rest() {
        // The run binds as the second `SL` is matched, so it must equal
        // the first run; elsewhere the binding lands with the accepted run.
        let ds = decls(&[("SL", MetaDeclKind::StatementList)]);
        let pats = parse_statements(
            "lock(); SL mid(); SL",
            ParseOptions::pattern(),
            &DeclsLookup(&ds),
        )
        .unwrap();
        let regexes = HashMap::new();
        for (text, bound) in [
            ("{ lock(); x = 1; mid(); x = 1; tail(); }", Some("x = 1;")),
            ("{ lock(); x = 1; mid(); y = 2; }", None),
        ] {
            let srcs = parse_statements(text, ParseOptions::c(), &NoMeta).unwrap();
            let Stmt::Block(b) = &srcs[0] else { panic!() };
            let metavars = Metavars::new(&ds, &regexes);
            let ctx = MatchCtx::new("t.c", text, &metavars);
            let mut st = MatchState::default();
            let matched = match_stmt_seq(&ctx, &pats, &b.stmts, false, b.span, &mut st);
            let got = matched.then(|| st.env.get("SL").unwrap().render(text));
            assert_eq!(got.as_deref(), bound, "{text}");
        }
    }

    #[test]
    fn failed_runs_roll_back_to_the_binding_they_hid() {
        // `el` is already bound to an expression, so each `el` matches
        // exactly that expression, which `b` is not: the match fails and
        // leaves the binding as it was.
        let ds = decls(&[("el", MetaDeclKind::ExpressionList)]);
        let src = "f(b, c)";
        let p = pat_expr("f(el, el)", &ds);
        let regexes = HashMap::new();
        let metavars = Metavars::new(&ds, &regexes);
        let ctx = MatchCtx::new("t.c", src, &metavars);
        let mut st = MatchState::default();
        st.env.bind("el", Value::Expr(src_expr("a")));
        let before = format!("{st:?}");
        assert!(!match_expr(&ctx, &p, &src_expr(src), &mut st));
        assert_eq!(format!("{st:?}"), before);
        assert_eq!(st.env.get("el").unwrap().render(""), "a");
    }

    #[test]
    fn expression_list_named_twice_binds_one_run() {
        let ds = decls(&[("el", MetaDeclKind::ExpressionList)]);
        let src = "f(a, b, a, b)";
        let st = try_match("f(el, el)", src, ds.clone()).unwrap();
        assert_eq!(st.env.get("el").unwrap().render(src), "a, b");
        assert!(try_match("f(el, el)", "f(a, b, a, c)", ds).is_none());
    }

    #[test]
    fn parameter_list_named_twice_binds_one_run() {
        let ds = decls(&[("PL", MetaDeclKind::ParameterList)]);
        let pats =
            parse_statements("int f(PL, PL);", ParseOptions::pattern(), &DeclsLookup(&ds)).unwrap();
        let regexes = HashMap::new();
        for (text, bound) in [
            (
                "int f(int a, char *b, int a, char *b);",
                Some("int a, char *b"),
            ),
            ("int f(int a, char *b, int a, char *c);", None),
        ] {
            let srcs = parse_statements(text, ParseOptions::c(), &NoMeta).unwrap();
            let metavars = Metavars::new(&ds, &regexes);
            let ctx = MatchCtx::new("t.c", text, &metavars);
            let mut st = MatchState::default();
            let matched = match_stmt(&ctx, &pats[0], &srcs[0], &mut st);
            let got = matched.then(|| st.env.get("PL").unwrap().render(text));
            assert_eq!(got.as_deref(), bound, "{text}");
        }
    }

    #[test]
    fn expression_list_is_bound_where_the_rest_of_its_list_uses_it() {
        // A later element that reads the list, in a nested list or as a
        // plain expression, sees the run bound, as it did when every run
        // bound before the rest of the list.
        let ds = decls(&[
            ("el", MetaDeclKind::ExpressionList),
            ("x", MetaDeclKind::Expression),
        ]);
        let src = "f(a, g(a))";
        let st = try_match("f(el, g(el))", src, ds.clone()).unwrap();
        assert_eq!(st.env.get("el").unwrap().render(src), "a");
        assert!(try_match("f(el, g(el))", "f(a, g(b))", ds.clone()).is_none());
        // A bound list never equals a plain expression, so a plain use
        // after the list refuses instead of binding `el` afresh.
        assert!(try_match("f(el, el + 1)", "f(a, a + 1)", ds.clone()).is_none());
        assert!(try_match("f(el, x + 1)", "f(a, a + 1)", ds).is_some());
    }

    #[test]
    fn list_metavariable_bound_by_a_plain_use_matches_that_element() {
        // The plain use binds `el` to one expression, and the list
        // position then matches exactly that expression: a second,
        // different binding would rewrite the first call to `g(b);`.
        let patch = cocci_smpl::parse_semantic_patch(
            "@@\nexpression list el;\n@@\n- f(el + 1, el);\n+ g(el);\n",
        )
        .unwrap();
        let mut patcher = crate::Patcher::new(&patch).unwrap();
        for (text, want) in [
            ("void h(void) { f(a + 1, b); }\n", None),
            (
                "void h(void) { f(a + 1, a); }\n",
                Some("void h(void) { g(a); }\n"),
            ),
        ] {
            let out = patcher.apply("t.c", text).unwrap();
            assert_eq!(out.as_deref(), want, "{text}");
        }
    }

    #[test]
    fn empty_argument_dots_rewrite_without_arguments() {
        // The dots of an empty argument list pair with an empty run, so
        // the re-rendered call copies no argument text.
        let patch = cocci_smpl::parse_semantic_patch("@@\n@@\n- f\n+ g\n  (...);\n").unwrap();
        let mut patcher = crate::Patcher::new(&patch).unwrap();
        for (text, want) in [
            ("void h(void) { f(); }\n", "void h(void) { g(); }\n"),
            ("void h(void) { f(1, 2); }\n", "void h(void) { g(1, 2); }\n"),
        ] {
            let out = patcher.apply("t.c", text).unwrap();
            assert_eq!(out.as_deref(), Some(want));
        }
    }

    #[test]
    fn conjunction_containment() {
        let ds = decls(&[
            ("A", MetaDeclKind::Statement),
            ("i", MetaDeclKind::Identifier),
        ]);
        let pats = parse_statements(
            r"\( A \& i+1 \)",
            ParseOptions::pattern(),
            &DeclsLookup(&ds),
        )
        .unwrap();
        let src_text = "y[i+1] = a * x[i+1];";
        let srcs = parse_statements(src_text, ParseOptions::c(), &NoMeta).unwrap();
        let regexes = HashMap::new();
        let metavars = Metavars::new(&ds, &regexes);
        let ctx = MatchCtx::new("t.c", src_text, &metavars);
        let mut st = MatchState::default();
        assert!(match_stmt(&ctx, &pats[0], &srcs[0], &mut st));
        // Both occurrences of i+1 recorded.
        let Stmt::PatGroup { branches, .. } = &pats[0] else {
            panic!()
        };
        let Stmt::Expr { expr, .. } = &branches[1][0] else {
            panic!()
        };
        assert_eq!(st.srcs_for(expr.span()).len(), 2);
    }

    #[test]
    fn pragma_dots_and_pragmainfo() {
        let ds = decls(&[("pi", MetaDeclKind::PragmaInfo)]);
        let regexes = HashMap::new();
        let mk = |payload: &str| Directive {
            kind: DirectiveKind::Pragma,
            raw: format!("#pragma {payload}"),
            payload: payload.to_string(),
            span: Span::new(0, 1),
        };
        let metavars = Metavars::new(&ds, &regexes);
        let ctx = MatchCtx::new("t.c", "", &metavars);
        // dots form
        let pat = mk("omp ...");
        let mut st = MatchState::default();
        assert!(match_directive(
            &ctx,
            &pat,
            &mk("omp parallel for"),
            &mut st
        ));
        assert!(!match_directive(&ctx, &pat, &mk("acc kernels"), &mut st));
        // pragmainfo capture
        let pat2 = mk("acc pi");
        let mut st2 = MatchState::default();
        assert!(match_directive(
            &ctx,
            &pat2,
            &mk("acc kernels copy(a)"),
            &mut st2
        ));
        assert_eq!(st2.env.get("pi").unwrap().render(""), "kernels copy(a)");
    }

    #[test]
    fn regex_constraint_on_identifier() {
        let mut ds = decls(&[]);
        ds.push(MetaDecl {
            name: "f".into(),
            kind: MetaDeclKind::Identifier,
            constraint: Some(Constraint::Regex("kernel".into())),
            inherited_from: None,
        });
        let mut regexes = HashMap::new();
        regexes.insert("f".to_string(), Regex::new("kernel").unwrap());
        let src = "my_kernel_fn(1)";
        let p = pat_expr("f(1)", &ds);
        let s = src_expr(src);
        let metavars = Metavars::new(&ds, &regexes);
        let ctx = MatchCtx::new("t.c", src, &metavars);
        let mut st = MatchState::default();
        assert!(match_expr(&ctx, &p, &s, &mut st));

        let src2 = "other_fn(1)";
        let s2 = src_expr(src2);
        let metavars2 = Metavars::new(&ds, &regexes);
        let ctx2 = MatchCtx::new("t.c", src2, &metavars2);
        let mut st2 = MatchState::default();
        assert!(!match_expr(&ctx2, &p, &s2, &mut st2));
    }

    #[test]
    fn disjunction_tries_branches() {
        let ds = decls(&[
            ("elem", MetaDeclKind::Identifier),
            ("k", MetaDeclKind::Identifier),
        ]);
        let st = try_match(r"\( elem == k \| k == elem \)", "key == x", ds.clone());
        assert!(st.is_some());
        let st2 = try_match(r"\( elem == k \| k == elem \)", "a != b", ds);
        assert!(st2.is_none());
    }
}
