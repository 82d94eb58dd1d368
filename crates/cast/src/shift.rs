//! Moving a parsed tree's spans.
//!
//! Edits that change a text's length leave the nodes outside them as
//! they were, but at other offsets. [`shift_item`] moves every span of
//! an item's subtree through a map from old offsets to new ones, so a
//! tree of the old text serves the new one without a parse.
//! The map must be monotone for the result to be a well-formed tree.
//! Synthetic spans stay synthetic.

use crate::ast::*;
use cocci_source::Span;

/// Move every span of `item` (its subtree included) through `map`.
pub fn shift_item(item: &mut Item, map: &impl Fn(u32) -> u32) {
    Shift(map).item(item)
}

/// The pass: one method per node type, each moving the node's own spans
/// and recursing into its children. Every pattern, of a struct or of an
/// enum variant, names all of its fields, so a field added to the AST
/// fails to compile here until this pass moves it too (or names it
/// `_`).
struct Shift<'m, F>(&'m F);

impl<F: Fn(u32) -> u32> Shift<'_, F> {
    fn span(&self, s: &mut Span) {
        if !s.is_synthetic() {
            s.start = (self.0)(s.start);
            s.end = (self.0)(s.end);
        }
    }

    fn ident(&self, i: &mut Ident) {
        let Ident { name: _, span } = i;
        self.span(span);
    }

    fn directive(&self, d: &mut Directive) {
        let Directive {
            kind: _,
            raw: _,
            payload: _,
            span,
        } = d;
        self.span(span);
    }

    fn item(&self, item: &mut Item) {
        match item {
            Item::Directive(d) => self.directive(d),
            Item::Function(f) => self.function(f),
            Item::Decl(d) => self.decl(d),
            Item::Namespace { name, items, span } => {
                if let Some(n) = name {
                    self.ident(n);
                }
                items.iter_mut().for_each(|i| self.item(i));
                self.span(span);
            }
            Item::ExternBlock { items, span } => {
                items.iter_mut().for_each(|i| self.item(i));
                self.span(span);
            }
        }
    }

    fn function(&self, f: &mut FunctionDef) {
        let FunctionDef {
            attrs,
            specifiers,
            ret,
            name,
            params,
            varargs: _,
            body,
            span,
            sig_span,
        } = f;
        attrs.iter_mut().for_each(|a| self.attribute(a));
        specifiers.iter_mut().for_each(|s| self.ident(s));
        self.ty(ret);
        self.ident(name);
        params.iter_mut().for_each(|p| self.param(p));
        self.block(body);
        self.span(span);
        self.span(sig_span);
    }

    fn attribute(&self, a: &mut Attribute) {
        let Attribute { items, span } = a;
        for AttrItem { name, args, span } in items {
            self.ident(name);
            args.iter_mut().flatten().for_each(|e| self.expr(e));
            self.span(span);
        }
        self.span(span);
    }

    fn param(&self, p: &mut Param) {
        let Param {
            ty,
            name,
            meta_list: _,
            span,
        } = p;
        self.ty(ty);
        if let Some(n) = name {
            self.ident(n);
        }
        self.span(span);
    }

    fn decl(&self, d: &mut Declaration) {
        let Declaration {
            attrs,
            specifiers,
            ty,
            declarators,
            span,
        } = d;
        attrs.iter_mut().for_each(|a| self.attribute(a));
        specifiers.iter_mut().for_each(|s| self.ident(s));
        self.ty(ty);
        for Declarator {
            name,
            ptr: _,
            reference: _,
            array,
            init,
            fn_params,
            span,
        } in declarators
        {
            self.ident(name);
            array.iter_mut().flatten().for_each(|e| self.expr(e));
            if let Some(e) = init {
                self.expr(e);
            }
            fn_params.iter_mut().flatten().for_each(|p| self.param(p));
            self.span(span);
        }
        self.span(span);
    }

    fn ty(&self, t: &mut Type) {
        let Type { kind, span } = t;
        match kind {
            TypeKind::Ptr(inner)
            | TypeKind::Ref(inner)
            | TypeKind::Qualified { quals: _, inner } => self.ty(inner),
            TypeKind::Named {
                name: _,
                template_args: _,
            }
            | TypeKind::Record {
                keyword: _,
                name: _,
                raw_body: _,
            }
            | TypeKind::Meta { name: _ } => {}
        }
        self.span(span);
    }

    fn block(&self, b: &mut Block) {
        let Block { stmts, span } = b;
        stmts.iter_mut().for_each(|s| self.stmt(s));
        self.span(span);
    }

    fn stmt(&self, s: &mut Stmt) {
        match s {
            Stmt::Expr { expr, span } => {
                self.expr(expr);
                self.span(span);
            }
            Stmt::Decl(d) => self.decl(d),
            Stmt::Block(b) => self.block(b),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => {
                self.expr(cond);
                self.stmt(then_branch);
                if let Some(e) = else_branch {
                    self.stmt(e);
                }
                self.span(span);
            }
            Stmt::While { cond, body, span } | Stmt::DoWhile { body, cond, span } => {
                self.expr(cond);
                self.stmt(body);
                self.span(span);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
                header_span,
            } => {
                match init.as_deref_mut() {
                    Some(ForInit::Decl(d)) => self.decl(d),
                    Some(ForInit::Expr(e)) => self.expr(e),
                    Some(ForInit::Dots { span }) => self.span(span),
                    None => {}
                }
                cond.iter_mut().chain(step).for_each(|e| self.expr(e));
                self.stmt(body);
                self.span(span);
                self.span(header_span);
            }
            Stmt::RangeFor {
                ty,
                by_ref: _,
                var,
                range,
                body,
                span,
            } => {
                self.ty(ty);
                self.ident(var);
                self.expr(range);
                self.stmt(body);
                self.span(span);
            }
            Stmt::Return { value, span } => {
                if let Some(e) = value {
                    self.expr(e);
                }
                self.span(span);
            }
            Stmt::Break { span }
            | Stmt::Continue { span }
            | Stmt::Empty { span }
            | Stmt::MetaStmt {
                name: _,
                pos: _,
                span,
            }
            | Stmt::MetaStmtList { name: _, span } => self.span(span),
            Stmt::Goto { label, span } => {
                self.ident(label);
                self.span(span);
            }
            Stmt::Label { label, stmt, span } => {
                self.ident(label);
                self.stmt(stmt);
                self.span(span);
            }
            Stmt::Switch {
                scrutinee,
                body,
                span,
            } => {
                self.expr(scrutinee);
                self.stmt(body);
                self.span(span);
            }
            Stmt::Case { value, stmt, span } => {
                if let Some(e) = value {
                    self.expr(e);
                }
                self.stmt(stmt);
                self.span(span);
            }
            Stmt::Directive(d) => self.directive(d),
            Stmt::Dots {
                span,
                when_not,
                quant: _,
            } => {
                when_not.iter_mut().for_each(|e| self.expr(e));
                self.span(span);
            }
            Stmt::PatGroup {
                conj: _,
                branches,
                span,
            } => {
                branches.iter_mut().flatten().for_each(|s| self.stmt(s));
                self.span(span);
            }
        }
    }

    fn expr(&self, e: &mut Expr) {
        match e {
            Expr::Ident(i) => self.ident(i),
            Expr::IntLit {
                value: _,
                raw: _,
                span,
            }
            | Expr::FloatLit { raw: _, span }
            | Expr::StrLit { raw: _, span }
            | Expr::CharLit { raw: _, span }
            | Expr::Sizeof { arg: _, span }
            | Expr::Dots { span } => self.span(span),
            Expr::Paren { inner: x, span }
            | Expr::Unary {
                op: _,
                expr: x,
                span,
            }
            | Expr::PostIncDec {
                expr: x,
                inc: _,
                span,
            }
            | Expr::PosAnn {
                inner: x,
                pos: _,
                span,
            } => {
                self.expr(x);
                self.span(span);
            }
            Expr::Binary {
                op: _,
                lhs,
                rhs,
                span,
            }
            | Expr::Assign {
                op: _,
                lhs,
                rhs,
                span,
            } => {
                self.expr(lhs);
                self.expr(rhs);
                self.span(span);
            }
            Expr::Ternary {
                cond,
                then_val,
                else_val,
                span,
            } => {
                self.expr(cond);
                self.expr(then_val);
                self.expr(else_val);
                self.span(span);
            }
            Expr::Call { callee, args, span } => {
                self.expr(callee);
                args.iter_mut().for_each(|a| self.expr(a));
                self.span(span);
            }
            Expr::KernelCall {
                callee,
                config,
                args,
                span,
            } => {
                self.expr(callee);
                config.iter_mut().chain(args).for_each(|a| self.expr(a));
                self.span(span);
            }
            Expr::Index {
                base,
                indices,
                span,
            } => {
                self.expr(base);
                indices.iter_mut().for_each(|i| self.expr(i));
                self.span(span);
            }
            Expr::Member {
                base,
                arrow: _,
                field,
                span,
            } => {
                self.expr(base);
                self.ident(field);
                self.span(span);
            }
            Expr::Cast { ty, expr, span } => {
                self.ty(ty);
                self.expr(expr);
                self.span(span);
            }
            Expr::InitList { elems: xs, span } | Expr::Disj { branches: xs, span } => {
                xs.iter_mut().for_each(|x| self.expr(x));
                self.span(span);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_translation_unit, NoMeta, ParseOptions};

    #[test]
    fn shifting_by_a_constant_equals_parsing_after_padding() {
        let src = "__attribute__((aligned(8))) static int g[4] = {1, 2};\n\
                   #pragma omp simd\n\
                   int f(int *p, ...) {\n  for (int i = 0; i < n; i++) { p[i] = (long)q->r ? s : t; }\n\
                   \x20 switch (x) { case 1: k<<<1, 2>>>(a); break; default: goto out; }\n\
                   out: do { --x; } while (x--);\n  return sizeof(x);\n}\n";
        let tu = parse_translation_unit(src, ParseOptions::c(), &NoMeta).unwrap();
        let padded = format!("/* seven */{src}");
        let want = parse_translation_unit(&padded, ParseOptions::c(), &NoMeta).unwrap();
        let mut items = tu.items;
        for item in &mut items {
            shift_item(item, &|o| o + 11);
        }
        assert_eq!(format!("{items:?}"), format!("{:?}", want.items));
    }
}
