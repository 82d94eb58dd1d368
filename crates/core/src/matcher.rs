//! Pattern matching: SMPL pattern ASTs against target-code ASTs.
//!
//! The matcher implements Coccinelle's metavariable semantics:
//!
//! * first occurrence of a metavariable **binds**, later occurrences must
//!   match a structurally equal term (span-insensitive);
//! * `...` dots match any run of statements/arguments (shortest-first);
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

use crate::env::{Env, Value};
use cocci_cast::ast::*;
use cocci_cast::eq;
use cocci_cast::fold::eval_const;
use cocci_cast::visit;
use cocci_rex::Regex;
use cocci_smpl::{Constraint, MetaDecl, MetaDeclKind};
use cocci_source::{Span, Symbol};
use std::collections::HashMap;

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
}

/// Matching context: the rule's metavariable declarations, compiled regex
/// constraints, and the target source text.
pub struct MatchCtx<'a> {
    /// Target file name — the identity recorded into position bindings
    /// so inherited positions compare correctly across a corpus.
    pub file: &'a str,
    /// Target file text (for constraint checks on source slices).
    pub src: &'a str,
    /// Metavariable declarations of the rule being matched.
    pub decls: &'a [MetaDecl],
    /// Compiled `=~` / `!~` regexes keyed by metavariable name.
    pub regexes: &'a HashMap<String, Regex>,
}

impl<'a> MatchCtx<'a> {
    /// Kind of metavariable `name`, if declared.
    pub fn kind(&self, name: impl AsRef<str>) -> Option<&MetaDeclKind> {
        let name = name.as_ref();
        self.decls.iter().find(|d| d.name == name).map(|d| &d.kind)
    }

    /// Check the declaration constraint of `name` against bound text.
    fn check_constraint(&self, name: &str, text: &str) -> bool {
        let Some(decl) = self.decls.iter().find(|d| d.name == name) else {
            return true;
        };
        match &decl.constraint {
            None => true,
            Some(Constraint::Regex(_)) => self
                .regexes
                .get(name)
                .map(|re| re.is_match(text))
                .unwrap_or(false),
            Some(Constraint::NotRegex(_)) => self
                .regexes
                .get(name)
                .map(|re| !re.is_match(text))
                .unwrap_or(true),
            Some(Constraint::Set(vals)) => vals.iter().any(|v| v == text),
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
        (Value::ExprList(x), Value::ExprList(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| eq::expr_eq(p, q))
        }
        (Value::StmtList(x), Value::StmtList(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| eq::stmt_eq(p, q))
        }
        (Value::Params(x), Value::Params(y)) => eq::params_eq(x, y),
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
    let text = value.render(ctx.src);
    if !ctx.check_constraint(name.as_str(), &text) {
        return false;
    }
    st.env.bind(name, value);
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
    let mut attempt = st.clone();
    for ((ps, pe), (ss, se)) in pat_residue.iter().zip(&src_residue) {
        if ps != ss || !match_expr(ctx, pe, se, &mut attempt) {
            return false;
        }
    }
    *st = attempt;
    true
}

fn match_expr_inner(ctx: &MatchCtx, pat: &Expr, src: &Expr, st: &mut MatchState) -> bool {
    let pat = pat.unparen();
    let src_e = src.unparen();
    match pat {
        Expr::Dots { .. } => true,
        Expr::Disj { branches, span } => {
            for (i, b) in branches.iter().enumerate() {
                let mut attempt = st.clone();
                if match_expr(ctx, b, src, &mut attempt) {
                    attempt.choices.push((*span, i));
                    *st = attempt;
                    return true;
                }
            }
            false
        }
        Expr::PosAnn { inner, pos, .. } => {
            if !match_expr(ctx, inner, src, st) {
                return false;
            }
            bind_or_check(
                ctx,
                st,
                pos,
                Value::Pos {
                    file: ctx.file.into(),
                    span: src.span(),
                    resolved: None,
                },
            )
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
                if ctx.kind(arg).is_some() {
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

/// Match a pattern expression list (arguments, launch config, indices)
/// against a source list, honouring `...` and `expression list`
/// metavariables.
pub fn match_expr_list(ctx: &MatchCtx, pats: &[Expr], srcs: &[Expr], st: &mut MatchState) -> bool {
    fn list_span(srcs: &[Expr]) -> Span {
        srcs.iter()
            .fold(Span::SYNTHETIC, |acc, e| acc.merge(e.span()))
    }
    fn go(ctx: &MatchCtx, pats: &[Expr], srcs: &[Expr], st: &mut MatchState) -> bool {
        let Some((p0, rest)) = pats.split_first() else {
            return srcs.is_empty();
        };
        match p0.unparen() {
            Expr::Dots { span } => {
                for k in 0..=srcs.len() {
                    let mut attempt = st.clone();
                    let consumed = &srcs[..k];
                    let src_span = if consumed.is_empty() {
                        Span::empty(srcs.first().map(|e| e.span().start).unwrap_or(u32::MAX))
                    } else {
                        list_span(consumed)
                    };
                    attempt.pairs.push(Pair {
                        pat: *span,
                        src: src_span,
                        kind: PairKind::Dots,
                    });
                    if go(ctx, rest, &srcs[k..], &mut attempt) {
                        *st = attempt;
                        return true;
                    }
                }
                false
            }
            Expr::Ident(id) if ctx.kind(id.name) == Some(&MetaDeclKind::ExpressionList) => {
                // Bound: must match exactly that run length.
                if let Some(Value::ExprList(bound)) =
                    st.env.get(id.name).map(|v| v.structural().clone())
                {
                    if bound.len() > srcs.len() {
                        return false;
                    }
                    for (b, s) in bound.iter().zip(srcs) {
                        if !eq::expr_eq(b, s) {
                            return false;
                        }
                    }
                    return go(ctx, rest, &srcs[bound.len()..], st);
                }
                for k in (0..=srcs.len()).rev() {
                    // Greedy: an expression-list metavariable usually
                    // captures "all the remaining arguments".
                    let mut attempt = st.clone();
                    attempt
                        .env
                        .bind(id.name, Value::ExprList(srcs[..k].to_vec()));
                    if go(ctx, rest, &srcs[k..], &mut attempt) {
                        *st = attempt;
                        return true;
                    }
                }
                false
            }
            _ => {
                let Some((s0, srest)) = srcs.split_first() else {
                    return false;
                };
                let mut attempt = st.clone();
                if match_expr(ctx, p0, s0, &mut attempt) && go(ctx, rest, srest, &mut attempt) {
                    *st = attempt;
                    return true;
                }
                false
            }
        }
    }
    go(ctx, pats, srcs, st)
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
            if let Some(MetaDeclKind::Identifier) = ctx.kind(pn) {
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
    if let Some(MetaDeclKind::PragmaInfo) = ctx.kind(p0) {
        // Binds the remainder of the payload; must be final.
        if !rest.is_empty() {
            return false;
        }
        return bind_or_check(ctx, st, *p0, Value::Pragma(srcs.join(" ")));
    }
    if let Some(MetaDeclKind::Identifier) = ctx.kind(p0) {
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
            if !bind_or_check(ctx, st, name, Value::Stmt(src.clone())) {
                false
            } else if let Some(p) = pos {
                bind_or_check(
                    ctx,
                    st,
                    p,
                    Value::Pos {
                        file: ctx.file.into(),
                        span: src.span(),
                        resolved: None,
                    },
                )
            } else {
                true
            }
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
                    let mut attempt = st.clone();
                    if match_stmt(ctx, &b[0], src, &mut attempt) {
                        attempt.choices.push((*span, i));
                        *st = attempt;
                        ok = true;
                        break;
                    }
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
            unreachable!("sequence elements handled in match_stmt_seq")
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
        let mut attempt = st.clone();
        if match_stmt(ctx, &b[0], src, &mut attempt) {
            *st = attempt;
            continue;
        }
        // Containment fallback for expression branches.
        if let Stmt::Expr { expr: pat_e, .. } = &b[0] {
            let mut found = Vec::new();
            let mut working = st.clone();
            visit::deep_stmt_exprs(src, &mut |se| {
                // Top-level occurrences only: skip when an enclosing
                // occurrence already matched (e.g. `i+1` inside `a[i+1]`
                // matches once, not per-subtree — handled by span overlap
                // check below).
                let mut attempt = working.clone();
                if match_expr(ctx, pat_e, se, &mut attempt) {
                    let span = se.span();
                    let overlaps = found
                        .iter()
                        .any(|s: &Span| s.contains(span) || span.contains(*s));
                    if !overlaps {
                        found.push(span);
                        working = attempt;
                        working.pairs.push(Pair {
                            pat: pat_e.span(),
                            src: span,
                            kind: PairKind::Expr,
                        });
                    }
                }
            });
            if found.is_empty() {
                return false;
            }
            *st = working;
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
/// `st`).
pub(crate) fn when_not_hit<'a>(
    ctx: &MatchCtx,
    forbidden: &[Expr],
    st: &MatchState,
    walk: impl FnOnce(&mut dyn FnMut(&'a Expr)),
) -> bool {
    let mut hit = false;
    walk(&mut |sub| {
        hit = hit
            || forbidden
                .iter()
                .any(|f| match_expr(ctx, f, sub, &mut st.clone()));
    });
    hit
}

/// The source span of the run `srcs[..k]` that dots or a statement list
/// consumed; an empty run sits at the first statement, or at the end of
/// the enclosing block when there is none.
fn run_span(srcs: &[Stmt], k: usize, enclosing: Span) -> Span {
    match &srcs[..k] {
        [] => Span::empty(
            srcs.first()
                .map(|s| s.span().start)
                .unwrap_or(enclosing.end.saturating_sub(1)),
        ),
        run => run
            .iter()
            .fold(Span::SYNTHETIC, |acc, s| acc.merge(s.span())),
    }
}

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
    let Some((p0, rest)) = pats.split_first() else {
        return !require_full || srcs.is_empty();
    };
    // A dots or statement-list run gets its pair once the rest of the
    // pattern accepts it (nothing reads pairs while matching), so the
    // run's span is folded once per match, not once per run length.
    match p0 {
        // The path quantifier (`when exists` / `when strict`) is a CFG
        // notion; the tree-sequence reading of dots ignores it.
        Stmt::Dots { span, when_not, .. } => {
            for k in 0..=srcs.len() {
                // `when != e`: no skipped statement may contain e.
                // Shorter runs passed, so only the statement this run
                // adds can fail, and then every longer run fails too.
                if k > 0
                    && !when_not.is_empty()
                    && when_not_hit(ctx, when_not, st, |f| {
                        visit::deep_stmt_exprs(&srcs[k - 1], f)
                    })
                {
                    break;
                }
                let mut attempt = st.clone();
                if match_stmt_seq(ctx, rest, &srcs[k..], require_full, enclosing, &mut attempt) {
                    let pair = Pair {
                        pat: *span,
                        src: run_span(srcs, k, enclosing),
                        kind: PairKind::Dots,
                    };
                    attempt.pairs.insert(st.pairs.len(), pair);
                    *st = attempt;
                    return true;
                }
            }
            false
        }
        Stmt::MetaStmtList { name, span } => {
            // Bound: must match that exact run; else try runs
            // (greedy — a statement-list metavariable usually captures
            // "the whole body").
            if let Some(Value::StmtList(bound)) = st.env.get(name).map(|v| v.structural().clone()) {
                if bound.len() > srcs.len() {
                    return false;
                }
                for (b, s) in bound.iter().zip(srcs) {
                    if !eq::stmt_eq(b, s) {
                        return false;
                    }
                }
                return match_stmt_seq(
                    ctx,
                    rest,
                    &srcs[bound.len()..],
                    require_full,
                    enclosing,
                    st,
                );
            }
            // The run is cloned into its binding once accepted, unless
            // the rest of the pattern names the list and must see it bound.
            let rest_names_list = rest.iter().any(|p| {
                let mut found = false;
                visit::walk_stmt(p, &mut |s| {
                    found |= matches!(s, Stmt::MetaStmtList { name: n, .. } if n == name)
                });
                found
            });
            let bind = |st: &mut MatchState, k: usize| {
                st.env.bind(name, Value::StmtList(srcs[..k].to_vec()))
            };
            for k in (0..=srcs.len()).rev() {
                let mut attempt = st.clone();
                if rest_names_list {
                    bind(&mut attempt, k);
                }
                if match_stmt_seq(ctx, rest, &srcs[k..], require_full, enclosing, &mut attempt) {
                    if !rest_names_list {
                        bind(&mut attempt, k);
                    }
                    let pair = Pair {
                        pat: *span,
                        src: run_span(srcs, k, enclosing),
                        kind: PairKind::Dots,
                    };
                    attempt.pairs.insert(st.pairs.len(), pair);
                    *st = attempt;
                    return true;
                }
            }
            false
        }
        _ => {
            let Some((s0, srest)) = srcs.split_first() else {
                return false;
            };
            let mut attempt = st.clone();
            if match_stmt(ctx, p0, s0, &mut attempt)
                && match_stmt_seq(ctx, rest, srest, require_full, enclosing, &mut attempt)
            {
                *st = attempt;
                return true;
            }
            false
        }
    }
}

// ---- parameters ----

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
    fn go(ctx: &MatchCtx, pats: &[Param], srcs: &[Param], st: &mut MatchState) -> bool {
        let Some((p0, rest)) = pats.split_first() else {
            return srcs.is_empty();
        };
        if p0.meta_list {
            let name = p0
                .name
                .as_ref()
                .map(|n| n.name)
                .unwrap_or_else(|| Symbol::intern(""));
            if let Some(Value::Params(bound)) = st.env.get(name).map(|v| v.structural().clone()) {
                let n = bound.len();
                if n > srcs.len() || !eq::params_eq(&bound, &srcs[..n]) {
                    return false;
                }
                return go(ctx, rest, &srcs[n..], st);
            }
            for k in (0..=srcs.len()).rev() {
                let mut attempt = st.clone();
                attempt.env.bind(name, Value::Params(srcs[..k].to_vec()));
                if go(ctx, rest, &srcs[k..], &mut attempt) {
                    *st = attempt;
                    return true;
                }
            }
            return false;
        }
        let Some((s0, srest)) = srcs.split_first() else {
            return false;
        };
        let mut attempt = st.clone();
        if !match_type(ctx, &p0.ty, &s0.ty, &mut attempt) {
            return false;
        }
        match (&p0.name, &s0.name) {
            (None, _) => {}
            (Some(pn), Some(sn)) => {
                if !match_ident(ctx, pn, sn, &mut attempt) {
                    return false;
                }
            }
            (Some(_), None) => return false,
        }
        if go(ctx, rest, srest, &mut attempt) {
            *st = attempt;
            return true;
        }
        false
    }
    if pat_varargs != src_varargs && !pat_varargs {
        return false;
    }
    go(ctx, pats, srcs, st)
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
            let mut attempt = st.clone();
            if match_attribute(ctx, pattr, &src.attrs[sa], &mut attempt) {
                *st = attempt;
                sa += 1;
                matched = true;
                break;
            }
            sa += 1;
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
        let ctx = MatchCtx {
            file: "t.c",
            src,
            decls: &ds,
            regexes: &regexes,
        };
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
        let ctx = MatchCtx {
            file: "t.c",
            src: "i+3 < n",
            decls: &with_k,
            regexes: &regexes,
        };
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
        let ctx = MatchCtx {
            file: "t.c",
            src,
            decls: &ds,
            regexes: &regexes,
        };
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
        let ctx = MatchCtx {
            file: "t.c",
            src,
            decls: &ds,
            regexes: &regexes,
        };
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
        let ctx = MatchCtx {
            file: "t.c",
            src: src_text,
            decls: &ds,
            regexes: &regexes,
        };
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
        let ctx = MatchCtx {
            file: "t.c",
            src: same,
            decls: &ds,
            regexes: &regexes,
        };
        let mut st = MatchState::default();
        assert!(match_stmt_seq(&ctx, &pats, &b.stmts, true, b.span, &mut st));

        let diff = "{ x = f(1); x = f(2); }";
        let srcs2 = parse_statements(diff, ParseOptions::c(), &NoMeta).unwrap();
        let Stmt::Block(b2) = &srcs2[0] else { panic!() };
        let ctx2 = MatchCtx {
            file: "t.c",
            src: diff,
            decls: &ds,
            regexes: &regexes,
        };
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
            let ctx = MatchCtx {
                file: "t.c",
                src: text,
                decls: &ds,
                regexes: &regexes,
            };
            let mut st = MatchState::default();
            let matched = match_stmt_seq(&ctx, &pats, &b.stmts, false, b.span, &mut st);
            let got = matched.then(|| st.env.get("SL").unwrap().render(text));
            assert_eq!(got.as_deref(), bound, "{text}");
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
        let ctx = MatchCtx {
            file: "t.c",
            src: src_text,
            decls: &ds,
            regexes: &regexes,
        };
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
        let ctx = MatchCtx {
            file: "t.c",
            src: "",
            decls: &ds,
            regexes: &regexes,
        };
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
        let ctx = MatchCtx {
            file: "t.c",
            src,
            decls: &ds,
            regexes: &regexes,
        };
        let mut st = MatchState::default();
        assert!(match_expr(&ctx, &p, &s, &mut st));

        let src2 = "other_fn(1)";
        let s2 = src_expr(src2);
        let ctx2 = MatchCtx {
            file: "t.c",
            src: src2,
            decls: &ds,
            regexes: &regexes,
        };
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
