//! Read-only AST visitors.
//!
//! The matcher uses these to search for subexpression occurrences (the
//! conjunction semantics of the unroll rules: "a statement *containing*
//! `i+1`"), and `cocci-flow` uses them to enumerate statements when
//! building control-flow graphs.

use crate::ast::*;

/// Call `f` on `e` and every subexpression of `e`, pre-order.
pub fn walk_expr<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(e);
    match e {
        Expr::Ident(_)
        | Expr::IntLit { .. }
        | Expr::FloatLit { .. }
        | Expr::StrLit { .. }
        | Expr::CharLit { .. }
        | Expr::Sizeof { .. }
        | Expr::Dots { .. } => {}
        Expr::Paren { inner, .. } => walk_expr(inner, f),
        Expr::Unary { expr, .. } => walk_expr(expr, f),
        Expr::PostIncDec { expr, .. } => walk_expr(expr, f),
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Assign { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Ternary {
            cond,
            then_val,
            else_val,
            ..
        } => {
            walk_expr(cond, f);
            walk_expr(then_val, f);
            walk_expr(else_val, f);
        }
        Expr::Call { callee, args, .. } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::KernelCall {
            callee,
            config,
            args,
            ..
        } => {
            walk_expr(callee, f);
            for c in config {
                walk_expr(c, f);
            }
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Index { base, indices, .. } => {
            walk_expr(base, f);
            for i in indices {
                walk_expr(i, f);
            }
        }
        Expr::Member { base, .. } => walk_expr(base, f),
        Expr::Cast { expr, .. } => walk_expr(expr, f),
        Expr::InitList { elems, .. } => {
            for e2 in elems {
                walk_expr(e2, f);
            }
        }
        Expr::Disj { branches, .. } => {
            for b in branches {
                walk_expr(b, f);
            }
        }
        Expr::PosAnn { inner, .. } => walk_expr(inner, f),
    }
}

/// Call `f` on `s` and every nested statement, pre-order.
pub fn walk_stmt<'a>(s: &'a Stmt, f: &mut dyn FnMut(&'a Stmt)) {
    f(s);
    child_stmts(s, &mut |c| walk_stmt(c, f));
}

/// Call `f` on each statement directly nested in `s`, in source order.
pub fn child_stmts<'a>(s: &'a Stmt, f: &mut dyn FnMut(&'a Stmt)) {
    match s {
        Stmt::Block(b) => b.stmts.iter().for_each(f),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            f(then_branch);
            if let Some(e) = else_branch {
                f(e);
            }
        }
        Stmt::While { body, .. }
        | Stmt::DoWhile { body, .. }
        | Stmt::For { body, .. }
        | Stmt::RangeFor { body, .. }
        | Stmt::Switch { body, .. } => f(body),
        Stmt::Label { stmt, .. } | Stmt::Case { stmt, .. } => f(stmt),
        Stmt::PatGroup { branches, .. } => branches.iter().flatten().for_each(f),
        _ => {}
    }
}

/// Call `f` on every expression directly contained in `s` (not descending
/// into nested statements — combine with [`walk_stmt`] for a deep walk).
pub fn stmt_exprs<'a>(s: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    match s {
        Stmt::Expr { expr, .. } => walk_expr(expr, f),
        Stmt::Decl(d) => {
            for dr in &d.declarators {
                for a in dr.array.iter().flatten() {
                    walk_expr(a, f);
                }
                if let Some(init) = &dr.init {
                    walk_expr(init, f);
                }
            }
        }
        Stmt::If { cond, .. } | Stmt::While { cond, .. } | Stmt::DoWhile { cond, .. } => {
            walk_expr(cond, f)
        }
        Stmt::For {
            init, cond, step, ..
        } => {
            if let Some(i) = init {
                for_init_exprs(i, f);
            }
            if let Some(c) = cond {
                walk_expr(c, f);
            }
            if let Some(st) = step {
                walk_expr(st, f);
            }
        }
        Stmt::RangeFor { range, .. } => walk_expr(range, f),
        Stmt::Return { value: Some(v), .. } => walk_expr(v, f),
        Stmt::Switch { scrutinee, .. } => walk_expr(scrutinee, f),
        Stmt::Case { value: Some(v), .. } => walk_expr(v, f),
        _ => {}
    }
}

/// Call `f` on every expression a `for` loop's init clause evaluates.
pub fn for_init_exprs<'a>(init: &'a ForInit, f: &mut dyn FnMut(&'a Expr)) {
    match init {
        ForInit::Expr(e) => walk_expr(e, f),
        ForInit::Decl(d) => {
            for dr in &d.declarators {
                if let Some(i) = &dr.init {
                    walk_expr(i, f);
                }
            }
        }
        ForInit::Dots { .. } => {}
    }
}

/// Call `f` on every expression anywhere inside `s`, including nested
/// statements.
pub fn deep_stmt_exprs<'a>(s: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    walk_stmt(s, &mut |st| stmt_exprs(st, f));
}

/// Call `f` on every function definition in the unit (descending into
/// namespaces and extern blocks).
pub fn walk_functions<'a>(tu: &'a TranslationUnit, f: &mut dyn FnMut(&'a FunctionDef)) {
    fn rec<'a>(items: &'a [Item], f: &mut dyn FnMut(&'a FunctionDef)) {
        for it in items {
            match it {
                Item::Function(fd) => f(fd),
                Item::Namespace { items, .. } | Item::ExternBlock { items, .. } => rec(items, f),
                _ => {}
            }
        }
    }
    rec(&tu.items, f);
}

/// Call `f` on every expression in the unit (function bodies and
/// initializers), item by item in source order.
pub fn walk_all_exprs<'a>(tu: &'a TranslationUnit, f: &mut dyn FnMut(&'a Expr)) {
    fn rec<'a>(items: &'a [Item], f: &mut dyn FnMut(&'a Expr)) {
        for it in items {
            match it {
                Item::Namespace { items, .. } | Item::ExternBlock { items, .. } => rec(items, f),
                _ => item_exprs(it, f),
            }
        }
    }
    rec(&tu.items, f);
}

/// Call `f` on every expression [`walk_all_exprs`] visits in one item
/// (a function body or a declaration's initializers), in the same order.
/// Namespaces and extern blocks are not entered.
pub fn item_exprs<'a>(item: &'a Item, f: &mut dyn FnMut(&'a Expr)) {
    match item {
        Item::Function(fd) => {
            for st in &fd.body.stmts {
                deep_stmt_exprs(st, f);
            }
        }
        Item::Decl(d) => {
            for dr in &d.declarators {
                if let Some(init) = &dr.init {
                    walk_expr(init, f);
                }
            }
        }
        Item::Namespace { .. } | Item::ExternBlock { .. } | Item::Directive(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_statements, parse_translation_unit, NoMeta, ParseOptions};

    #[test]
    fn walk_expr_counts_subexprs() {
        let s = parse_statements("x = a[i] + f(b, c);", ParseOptions::c(), &NoMeta)
            .unwrap()
            .remove(0);
        let mut count = 0;
        deep_stmt_exprs(&s, &mut |_| count += 1);
        // assign, x, a[i]+f(..), a[i], a, i, f(b,c), f, b, c
        assert_eq!(count, 10);
    }

    #[test]
    fn walk_stmt_visits_nested() {
        let s = parse_statements(
            "if (a) { x = 1; while (b) y = 2; } else z = 3;",
            ParseOptions::c(),
            &NoMeta,
        )
        .unwrap()
        .remove(0);
        let mut n = 0;
        walk_stmt(&s, &mut |_| n += 1);
        // if, block, x=1, while, y=2, z=3
        assert_eq!(n, 6);
    }

    #[test]
    fn walk_functions_finds_all() {
        let tu = parse_translation_unit(
            "int f(void) { return 1; }\nstatic double g(int x) { return x; }",
            ParseOptions::c(),
            &NoMeta,
        )
        .unwrap();
        let mut names = Vec::new();
        walk_functions(&tu, &mut |fd| names.push(fd.name.name));
        assert_eq!(names, vec!["f", "g"]);
    }
}
