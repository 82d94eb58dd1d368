//! Span-insensitive structural equality.
//!
//! Needed by the matcher for bound-metavariable re-matching: when a
//! `statement` metavariable `A` is already bound, a later occurrence of
//! `A` in the pattern must match only statements *structurally equal* to
//! the binding — the paper's unroll-removal rule `r1` relies on exactly
//! this (`A` followed by `- A A A`). Derived `PartialEq` on the AST
//! compares spans, so it cannot be used for this purpose.

use crate::ast::*;

/// Structural equality of expressions, ignoring spans and parentheses at
/// the top level of each operand.
pub fn expr_eq(a: &Expr, b: &Expr) -> bool {
    use Expr::*;
    match (a.unparen(), b.unparen()) {
        (Ident(x), Ident(y)) => x.name == y.name,
        (IntLit { value: x, .. }, IntLit { value: y, .. }) => x == y,
        (FloatLit { raw: x, .. }, FloatLit { raw: y, .. }) => x == y,
        (StrLit { raw: x, .. }, StrLit { raw: y, .. }) => x == y,
        (CharLit { raw: x, .. }, CharLit { raw: y, .. }) => x == y,
        (
            Unary {
                op: o1, expr: e1, ..
            },
            Unary {
                op: o2, expr: e2, ..
            },
        ) => o1 == o2 && expr_eq(e1, e2),
        (
            PostIncDec {
                expr: e1, inc: i1, ..
            },
            PostIncDec {
                expr: e2, inc: i2, ..
            },
        ) => i1 == i2 && expr_eq(e1, e2),
        (
            Binary {
                op: o1,
                lhs: l1,
                rhs: r1,
                ..
            },
            Binary {
                op: o2,
                lhs: l2,
                rhs: r2,
                ..
            },
        ) => o1 == o2 && expr_eq(l1, l2) && expr_eq(r1, r2),
        (
            Assign {
                op: o1,
                lhs: l1,
                rhs: r1,
                ..
            },
            Assign {
                op: o2,
                lhs: l2,
                rhs: r2,
                ..
            },
        ) => o1 == o2 && expr_eq(l1, l2) && expr_eq(r1, r2),
        (
            Ternary {
                cond: c1,
                then_val: t1,
                else_val: e1,
                ..
            },
            Ternary {
                cond: c2,
                then_val: t2,
                else_val: e2,
                ..
            },
        ) => expr_eq(c1, c2) && expr_eq(t1, t2) && expr_eq(e1, e2),
        (
            Call {
                callee: c1,
                args: a1,
                ..
            },
            Call {
                callee: c2,
                args: a2,
                ..
            },
        ) => expr_eq(c1, c2) && exprs_eq(a1, a2),
        (
            KernelCall {
                callee: c1,
                config: g1,
                args: a1,
                ..
            },
            KernelCall {
                callee: c2,
                config: g2,
                args: a2,
                ..
            },
        ) => expr_eq(c1, c2) && exprs_eq(g1, g2) && exprs_eq(a1, a2),
        (
            Index {
                base: b1,
                indices: i1,
                ..
            },
            Index {
                base: b2,
                indices: i2,
                ..
            },
        ) => expr_eq(b1, b2) && exprs_eq(i1, i2),
        (
            Member {
                base: b1,
                arrow: ar1,
                field: f1,
                ..
            },
            Member {
                base: b2,
                arrow: ar2,
                field: f2,
                ..
            },
        ) => ar1 == ar2 && f1.name == f2.name && expr_eq(b1, b2),
        (
            Cast {
                ty: t1, expr: e1, ..
            },
            Cast {
                ty: t2, expr: e2, ..
            },
        ) => type_eq(t1, t2) && expr_eq(e1, e2),
        (Sizeof { arg: a1, .. }, Sizeof { arg: a2, .. }) => a1 == a2,
        (InitList { elems: e1, .. }, InitList { elems: e2, .. }) => exprs_eq(e1, e2),
        (Dots { .. }, Dots { .. }) => true,
        (
            PosAnn {
                inner: i1, pos: p1, ..
            },
            PosAnn {
                inner: i2, pos: p2, ..
            },
        ) => p1 == p2 && expr_eq(i1, i2),
        _ => false,
    }
}

fn exprs_eq(a: &[Expr], b: &[Expr]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| expr_eq(x, y))
}

/// Structural equality of types, ignoring spans.
pub fn type_eq(a: &Type, b: &Type) -> bool {
    use TypeKind::*;
    match (&a.kind, &b.kind) {
        (
            Named {
                name: n1,
                template_args: t1,
            },
            Named {
                name: n2,
                template_args: t2,
            },
        ) => n1 == n2 && t1 == t2,
        (
            Record {
                keyword: k1,
                name: n1,
                ..
            },
            Record {
                keyword: k2,
                name: n2,
                ..
            },
        ) => k1 == k2 && n1 == n2,
        (Ptr(i1), Ptr(i2)) | (Ref(i1), Ref(i2)) => type_eq(i1, i2),
        (
            Qualified {
                quals: q1,
                inner: i1,
            },
            Qualified {
                quals: q2,
                inner: i2,
            },
        ) => q1 == q2 && type_eq(i1, i2),
        (Meta { name: n1 }, Meta { name: n2 }) => n1 == n2,
        _ => false,
    }
}

/// Structural equality of statements, ignoring spans.
pub fn stmt_eq(a: &Stmt, b: &Stmt) -> bool {
    use Stmt::*;
    match (a, b) {
        (Expr { expr: e1, .. }, Expr { expr: e2, .. }) => expr_eq(e1, e2),
        (Decl(d1), Decl(d2)) => decl_eq(d1, d2),
        (Block(b1), Block(b2)) => block_eq(b1, b2),
        (
            If {
                cond: c1,
                then_branch: t1,
                else_branch: e1,
                ..
            },
            If {
                cond: c2,
                then_branch: t2,
                else_branch: e2,
                ..
            },
        ) => {
            expr_eq(c1, c2)
                && stmt_eq(t1, t2)
                && match (e1, e2) {
                    (None, None) => true,
                    (Some(x), Some(y)) => stmt_eq(x, y),
                    _ => false,
                }
        }
        (
            While {
                cond: c1, body: b1, ..
            },
            While {
                cond: c2, body: b2, ..
            },
        ) => expr_eq(c1, c2) && stmt_eq(b1, b2),
        (
            DoWhile {
                cond: c1, body: b1, ..
            },
            DoWhile {
                cond: c2, body: b2, ..
            },
        ) => expr_eq(c1, c2) && stmt_eq(b1, b2),
        (
            For {
                init: i1,
                cond: c1,
                step: s1,
                body: b1,
                ..
            },
            For {
                init: i2,
                cond: c2,
                step: s2,
                body: b2,
                ..
            },
        ) => {
            for_init_eq(i1.as_deref(), i2.as_deref())
                && opt_expr_eq(c1.as_ref(), c2.as_ref())
                && opt_expr_eq(s1.as_ref(), s2.as_ref())
                && stmt_eq(b1, b2)
        }
        (
            RangeFor {
                ty: t1,
                var: v1,
                range: r1,
                body: b1,
                by_ref: br1,
                ..
            },
            RangeFor {
                ty: t2,
                var: v2,
                range: r2,
                body: b2,
                by_ref: br2,
                ..
            },
        ) => {
            type_eq(t1, t2)
                && v1.name == v2.name
                && br1 == br2
                && expr_eq(r1, r2)
                && stmt_eq(b1, b2)
        }
        (Return { value: v1, .. }, Return { value: v2, .. }) => {
            opt_expr_eq(v1.as_ref(), v2.as_ref())
        }
        (Break { .. }, Break { .. }) => true,
        (Continue { .. }, Continue { .. }) => true,
        (Goto { label: l1, .. }, Goto { label: l2, .. }) => l1.name == l2.name,
        (
            Label {
                label: l1,
                stmt: s1,
                ..
            },
            Label {
                label: l2,
                stmt: s2,
                ..
            },
        ) => l1.name == l2.name && stmt_eq(s1, s2),
        (
            Switch {
                scrutinee: e1,
                body: b1,
                ..
            },
            Switch {
                scrutinee: e2,
                body: b2,
                ..
            },
        ) => expr_eq(e1, e2) && stmt_eq(b1, b2),
        (
            Case {
                value: v1,
                stmt: s1,
                ..
            },
            Case {
                value: v2,
                stmt: s2,
                ..
            },
        ) => opt_expr_eq(v1.as_ref(), v2.as_ref()) && stmt_eq(s1, s2),
        (Directive(d1), Directive(d2)) => d1.kind == d2.kind && d1.payload == d2.payload,
        (Empty { .. }, Empty { .. }) => true,
        (Dots { .. }, Dots { .. }) => true,
        (MetaStmt { name: n1, .. }, MetaStmt { name: n2, .. }) => n1 == n2,
        (MetaStmtList { name: n1, .. }, MetaStmtList { name: n2, .. }) => n1 == n2,
        _ => false,
    }
}

fn opt_expr_eq(a: Option<&Expr>, b: Option<&Expr>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => expr_eq(x, y),
        _ => false,
    }
}

fn for_init_eq(a: Option<&ForInit>, b: Option<&ForInit>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(ForInit::Decl(d1)), Some(ForInit::Decl(d2))) => decl_eq(d1, d2),
        (Some(ForInit::Expr(e1)), Some(ForInit::Expr(e2))) => expr_eq(e1, e2),
        (Some(ForInit::Dots { .. }), Some(ForInit::Dots { .. })) => true,
        _ => false,
    }
}

/// Structural equality of blocks.
pub fn block_eq(a: &Block, b: &Block) -> bool {
    a.stmts.len() == b.stmts.len() && a.stmts.iter().zip(&b.stmts).all(|(x, y)| stmt_eq(x, y))
}

/// Structural equality of declarations.
pub fn decl_eq(a: &Declaration, b: &Declaration) -> bool {
    a.specifiers.len() == b.specifiers.len()
        && a.specifiers
            .iter()
            .zip(&b.specifiers)
            .all(|(x, y)| x.name == y.name)
        && type_eq(&a.ty, &b.ty)
        && a.declarators.len() == b.declarators.len()
        && a.declarators
            .iter()
            .zip(&b.declarators)
            .all(|(x, y)| declarator_eq(x, y))
}

fn declarator_eq(a: &Declarator, b: &Declarator) -> bool {
    a.name.name == b.name.name
        && a.ptr == b.ptr
        && a.reference == b.reference
        && a.array.len() == b.array.len()
        && a.array.iter().zip(&b.array).all(|(x, y)| match (x, y) {
            (None, None) => true,
            (Some(p), Some(q)) => expr_eq(p, q),
            _ => false,
        })
        && match (&a.init, &b.init) {
            (None, None) => true,
            (Some(p), Some(q)) => expr_eq(p, q),
            _ => false,
        }
        && match (&a.fn_params, &b.fn_params) {
            (None, None) => true,
            (Some(p), Some(q)) => params_eq(p, q),
            _ => false,
        }
}

/// Structural equality of parameter lists: same length, and pairwise
/// [`param_eq`].
pub fn params_eq(a: &[Param], b: &[Param]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| param_eq(x, y))
}

/// Structural equality of parameters: an equal type and the same name.
pub fn param_eq(a: &Param, b: &Param) -> bool {
    type_eq(&a.ty, &b.ty) && a.name.as_ref().map(|n| n.name) == b.name.as_ref().map(|n| n.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expression, parse_statements, NoMeta, ParseOptions};

    fn e(src: &str) -> Expr {
        parse_expression(src, ParseOptions::cpp(), &NoMeta).unwrap()
    }

    fn s(src: &str) -> Stmt {
        parse_statements(src, ParseOptions::cpp(), &NoMeta)
            .unwrap()
            .remove(0)
    }

    #[test]
    fn same_text_different_spans_equal() {
        assert!(expr_eq(&e("a[i] + b * 2"), &e("a[i]  +  b*2")));
    }

    #[test]
    fn parens_ignored_at_operand_level() {
        assert!(expr_eq(&e("(a) + b"), &e("a + b")));
        assert!(expr_eq(&e("((x))"), &e("x")));
    }

    #[test]
    fn different_structure_unequal() {
        assert!(!expr_eq(&e("a + b"), &e("a - b")));
        assert!(!expr_eq(&e("f(x)"), &e("f(x, y)")));
        assert!(!expr_eq(&e("a.f"), &e("a->f")));
    }

    #[test]
    fn int_literals_compare_by_value() {
        assert!(expr_eq(&e("0x10"), &e("16")));
        assert!(expr_eq(&e("10L"), &e("10")));
    }

    #[test]
    fn stmt_equality() {
        assert!(stmt_eq(&s("x = a[i+0];"), &s("x = a[i+0] ;")));
        assert!(!stmt_eq(&s("x = a[i+0];"), &s("x = a[i+1];")));
        assert!(stmt_eq(
            &s("for (int i = 0; i < n; ++i) { s += a[i]; }"),
            &s("for (int i=0; i<n; ++i) { s += a[i]; }")
        ));
    }

    #[test]
    fn decl_equality() {
        assert!(stmt_eq(&s("double x = 0;"), &s("double x = 0;")));
        assert!(!stmt_eq(&s("double x = 0;"), &s("float x = 0;")));
        assert!(!stmt_eq(&s("double x = 0;"), &s("double y = 0;")));
        // Prototypes compare their parameter lists.
        assert!(stmt_eq(&s("void f(int x);"), &s("void f(int x);")));
        assert!(!stmt_eq(&s("void f(int x);"), &s("void f(double x);")));
        assert!(!stmt_eq(&s("void f(int x);"), &s("void f(int y);")));
        assert!(!stmt_eq(&s("void f(int x);"), &s("void f(int x, int y);")));
    }
}
