//! Prefilter-atom extraction: the set of literal substrings a target file
//! **must** contain for a rule's pattern to possibly match.
//!
//! The corpus driver uses these atoms as a cheap pre-scan: a file missing
//! any required atom of every transform rule cannot match the patch and is
//! skipped before lexing/parsing. Soundness is the contract — an atom is
//! emitted only when *every* successful match of the pattern implies the
//! atom appears verbatim (contiguously) in the file:
//!
//! * non-metavariable identifiers match by name equality, so their name is
//!   required (`::`-qualified names are split into segments, which are the
//!   contiguous pieces);
//! * `symbol` metavariables match only their own name;
//! * string/float literals match by raw-text equality;
//! * **int and char literals are excluded** — the const-fold isomorphism
//!   compares values, so pattern `4` matches source `0x4` and `'a'`
//!   matches `97`;
//! * a ternary's atoms are required only when its condition yields one:
//!   a condition without atoms may fold, and the ternary folds with it
//!   (`1 ? 5 : foo` matches `5`);
//! * operators are excluded — the additive-normalization isomorphism can
//!   match `x - 1` against `x + -1` (the CUDA `<<<` launch marker is the
//!   one exception: kernel-call patterns never fold);
//! * concrete statement forms require their keyword (`for`, `return`, …);
//! * directives require their words (pragma metavariable words excluded);
//! * disjunction branches contribute only their **intersection**;
//!   conjunction branches contribute their union;
//! * identifier-kind metavariables with an `=~` constraint contribute the
//!   regex's [`required_literals`](cocci_rex::Regex::required_literals) —
//!   the bound source identifier must contain a match, hence its
//!   guaranteed literal factors.
//!
//! An empty atom set means "cannot prefilter" (the rule may match any
//! file), never "matches nothing".

use crate::{Constraint, MetaDecl, MetaDeclKind, Pattern, TransformRule};
use cocci_cast::ast::*;
use cocci_rex::Regex;
use std::collections::HashMap;

/// Required atoms for one transform rule's pattern, sorted and deduped.
///
/// Every atom must appear as a substring of a file for the rule to have
/// any chance of matching it. An empty vector means the rule cannot be
/// prefiltered.
pub fn rule_atoms(rule: &TransformRule) -> Vec<String> {
    pattern_atoms(&rule.body.pattern, &rule.metavars, None)
        .into_iter()
        .map(|a| a.text)
        .collect()
}

/// One required atom of a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The literal text every file a match is found in contains.
    pub text: String,
    /// Whether every match also holds the atom as one whole identifier
    /// token inside the node it matched at: a non-metavariable
    /// identifier, type or field name, or a `symbol` metavariable, on a
    /// path every match walks. String and float literals, `::` segments
    /// and multi-word names, keywords, directive words and `=~` factors
    /// are text only.
    pub token: bool,
}

impl Atom {
    /// A text-only atom.
    fn text(text: impl Into<String>) -> Atom {
        Atom {
            text: text.into(),
            token: false,
        }
    }
}

/// Required atoms for a classified pattern with `metavars` in scope,
/// sorted by text and deduplicated (an atom is a token atom when any of
/// its required occurrences is one).
///
/// `regexes` lets a caller that has already compiled the rule's `=~`
/// constraints (keyed by metavariable name) share them; without it, any
/// regex constraint encountered is compiled on the spot (and skipped if
/// invalid — an invalid constraint fails the rule's real compile anyway).
pub fn pattern_atoms(
    pattern: &Pattern,
    metavars: &[MetaDecl],
    regexes: Option<&HashMap<String, Regex>>,
) -> Vec<Atom> {
    let cx = Cx { metavars, regexes };
    let mut out = Vec::new();
    match pattern {
        Pattern::Expr(e) => cx.expr(e, &mut out),
        Pattern::Stmts(stmts) => cx.stmt_seq(stmts, &mut out),
        Pattern::Items(items) => {
            for it in items {
                cx.item(it, &mut out);
            }
        }
    }
    out.retain(|a| !a.text.is_empty());
    // Token occurrences sort first, so the one kept holds the flag.
    out.sort_by(|a, b| a.text.cmp(&b.text).then(b.token.cmp(&a.token)));
    out.dedup_by(|later, kept| later.text == kept.text);
    out
}

struct Cx<'a> {
    metavars: &'a [MetaDecl],
    regexes: Option<&'a HashMap<String, Regex>>,
}

impl Cx<'_> {
    fn decl(&self, name: &str) -> Option<&MetaDecl> {
        self.metavars.iter().find(|d| d.name == name)
    }

    fn kind(&self, name: &str) -> Option<&MetaDeclKind> {
        self.decl(name).map(|d| &d.kind)
    }

    /// Atoms guaranteed by a bound identifier-kind metavariable: the
    /// literal factors of its `=~` constraint, if any.
    fn regex_atoms(&self, name: &str, out: &mut Vec<Atom>) {
        if let Some(compiled) = self.regexes.and_then(|m| m.get(name)) {
            if matches!(
                self.decl(name).and_then(|d| d.constraint.as_ref()),
                Some(Constraint::Regex(_))
            ) {
                out.extend(compiled.required_literals().iter().map(Atom::text));
            }
            return;
        }
        if let Some(decl) = self.decl(name) {
            if let Some(Constraint::Regex(re)) = &decl.constraint {
                if let Ok(re) = Regex::new(re) {
                    out.extend(re.required_literals().iter().map(Atom::text));
                }
            }
        }
    }

    /// An identifier occurrence that, per `match_ident`, either binds an
    /// identifier-kind metavariable or must appear literally.
    fn ident(&self, id: &Ident, out: &mut Vec<Atom>) {
        match self.kind(id.name.as_str()) {
            Some(
                MetaDeclKind::Identifier
                | MetaDeclKind::Function
                | MetaDeclKind::FreshIdentifier(_),
            ) => self.regex_atoms(id.name.as_str(), out),
            // Symbols and undeclared names match only themselves.
            _ => push_name(id.name.as_str(), out),
        }
    }

    fn expr(&self, e: &Expr, out: &mut Vec<Atom>) {
        match e {
            Expr::Ident(id) => match self.kind(id.name.as_str()) {
                Some(
                    MetaDeclKind::Expression
                    | MetaDeclKind::ExpressionList
                    | MetaDeclKind::Constant
                    | MetaDeclKind::Type,
                ) => {}
                Some(
                    MetaDeclKind::Identifier
                    | MetaDeclKind::Function
                    | MetaDeclKind::FreshIdentifier(_),
                ) => self.regex_atoms(id.name.as_str(), out),
                Some(MetaDeclKind::Symbol) => push_name(id.name.as_str(), out),
                // Undeclared (or non-expression-kind) names fall through to
                // literal identifier matching in the matcher.
                _ => push_name(id.name.as_str(), out),
            },
            // Value-compared under the const-fold isomorphism (`4` ≘ `0x4`,
            // `'a'` ≘ `97`).
            Expr::IntLit { .. } | Expr::CharLit { .. } => {}
            Expr::FloatLit { raw, .. } | Expr::StrLit { raw, .. } => {
                out.push(Atom::text(raw.as_str()))
            }
            Expr::Paren { inner, .. } => self.expr(inner, out),
            Expr::Unary { expr, .. } => self.expr(expr, out),
            Expr::PostIncDec { expr, .. } => self.expr(expr, out),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs, out);
                self.expr(rhs, out);
            }
            Expr::Assign { lhs, rhs, .. } => {
                self.expr(lhs, out);
                self.expr(rhs, out);
            }
            Expr::Ternary {
                cond,
                then_val,
                else_val,
                ..
            } => {
                // Whatever yields an atom never folds; a condition that
                // yields none may, and then the arms are not required.
                let cond_atoms = self.atoms_of(|o| self.expr(cond, o));
                if !cond_atoms.is_empty() {
                    out.extend(cond_atoms);
                    self.expr(then_val, out);
                    self.expr(else_val, out);
                }
            }
            Expr::Call { callee, args, .. } => {
                self.expr(callee, out);
                self.expr_list(args, out);
            }
            Expr::KernelCall {
                callee,
                config,
                args,
                ..
            } => {
                // Kernel launches never const-fold, so the launch marker
                // itself is a required (and highly selective) atom.
                out.push(Atom::text("<<<"));
                self.expr(callee, out);
                self.expr_list(config, out);
                self.expr_list(args, out);
            }
            Expr::Index { base, indices, .. } => {
                self.expr(base, out);
                self.expr_list(indices, out);
            }
            Expr::Member { base, field, .. } => {
                self.expr(base, out);
                match self.kind(field.name.as_str()) {
                    Some(MetaDeclKind::Identifier) => self.regex_atoms(field.name.as_str(), out),
                    _ => push_name(field.name.as_str(), out),
                }
            }
            Expr::Cast { ty, expr, .. } => {
                self.ty(ty, out);
                self.expr(expr, out);
            }
            Expr::Sizeof { arg, .. } => {
                out.push(Atom::text("sizeof"));
                if self.kind(arg.as_str()).is_none() && !arg.as_str().contains(char::is_whitespace)
                {
                    // The operand is compared as raw text: one identifier
                    // is one token of the source operand.
                    out.push(Atom {
                        text: arg.as_str().to_string(),
                        token: is_identifier(arg.as_str()),
                    });
                }
            }
            Expr::InitList { elems, .. } => self.expr_list(elems, out),
            Expr::Dots { .. } => {}
            Expr::Disj { branches, .. } => {
                intersect_branches(
                    out,
                    branches.iter().map(|b| self.atoms_of(|o| self.expr(b, o))),
                );
            }
            Expr::PosAnn { inner, .. } => self.expr(inner, out),
        }
    }

    fn expr_list(&self, list: &[Expr], out: &mut Vec<Atom>) {
        for e in list {
            self.expr(e, out);
        }
    }

    fn ty(&self, t: &Type, out: &mut Vec<Atom>) {
        match &t.kind {
            TypeKind::Named { name, .. } => {
                if matches!(self.kind(name.as_str()), Some(MetaDeclKind::Identifier)) {
                    self.regex_atoms(name.as_str(), out);
                } else {
                    push_name(name.as_str(), out);
                }
            }
            TypeKind::Record { keyword, name, .. } => {
                out.push(Atom::text(keyword.as_str()));
                if let Some(n) = name {
                    push_name(n.as_str(), out);
                }
            }
            TypeKind::Ptr(inner) | TypeKind::Ref(inner) => self.ty(inner, out),
            TypeKind::Qualified { quals, inner } => {
                out.extend(quals.iter().map(|q| Atom::text(q.as_str())));
                self.ty(inner, out);
            }
            TypeKind::Meta { .. } => {}
        }
    }

    fn directive(&self, d: &Directive, out: &mut Vec<Atom>) {
        match d.kind {
            DirectiveKind::Include => {
                out.push(Atom::text("include"));
                out.push(Atom::text(d.payload.as_str()));
            }
            DirectiveKind::Pragma => {
                out.push(Atom::text("pragma"));
                for word in d.payload.split_whitespace() {
                    if word == "..." {
                        continue;
                    }
                    match self.kind(word) {
                        Some(MetaDeclKind::Identifier) => self.regex_atoms(word, out),
                        Some(_) => {}
                        None => out.push(Atom::text(word)),
                    }
                }
            }
            // Define/Other match by exact raw-text equality, so every word
            // is required (metavariables are *not* substituted there).
            _ => out.extend(d.raw.split_whitespace().map(Atom::text)),
        }
    }

    fn decl_atoms(&self, d: &Declaration, out: &mut Vec<Atom>) {
        for s in &d.specifiers {
            push_name(s.name.as_str(), out);
        }
        for a in &d.attrs {
            self.attr(a, out);
        }
        self.ty(&d.ty, out);
        for dr in &d.declarators {
            self.ident(&dr.name, out);
            for ext in dr.array.iter().flatten() {
                self.expr(ext, out);
            }
            if let Some(init) = &dr.init {
                self.expr(init, out);
            }
            if let Some(params) = &dr.fn_params {
                self.params(params, out);
            }
        }
    }

    fn attr(&self, a: &Attribute, out: &mut Vec<Atom>) {
        out.push(Atom::text("__attribute__"));
        for item in &a.items {
            self.ident(&item.name, out);
            if let Some(args) = &item.args {
                self.expr_list(args, out);
            }
        }
    }

    fn params(&self, params: &[Param], out: &mut Vec<Atom>) {
        for p in params {
            if p.meta_list {
                continue;
            }
            self.ty(&p.ty, out);
            if let Some(n) = &p.name {
                self.ident(n, out);
            }
        }
    }

    fn stmt_seq(&self, stmts: &[Stmt], out: &mut Vec<Atom>) {
        for s in stmts {
            self.stmt(s, out);
        }
    }

    fn stmt(&self, s: &Stmt, out: &mut Vec<Atom>) {
        match s {
            Stmt::Expr { expr, .. } => self.expr(expr, out),
            Stmt::Decl(d) => self.decl_atoms(d, out),
            Stmt::Block(b) => self.stmt_seq(&b.stmts, out),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                out.push(Atom::text("if"));
                self.expr(cond, out);
                self.stmt(then_branch, out);
                if let Some(e) = else_branch {
                    out.push(Atom::text("else"));
                    self.stmt(e, out);
                }
            }
            Stmt::While { cond, body, .. } => {
                out.push(Atom::text("while"));
                self.expr(cond, out);
                self.stmt(body, out);
            }
            Stmt::DoWhile { body, cond, .. } => {
                out.push(Atom::text("do"));
                out.push(Atom::text("while"));
                self.expr(cond, out);
                self.stmt(body, out);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                out.push(Atom::text("for"));
                match init.as_deref() {
                    Some(ForInit::Decl(d)) => self.decl_atoms(d, out),
                    Some(ForInit::Expr(e)) => self.expr(e, out),
                    Some(ForInit::Dots { .. }) | None => {}
                }
                self.opt_expr(cond.as_ref(), out);
                self.opt_expr(step.as_ref(), out);
                self.stmt(body, out);
            }
            Stmt::RangeFor {
                ty,
                var,
                range,
                body,
                ..
            } => {
                out.push(Atom::text("for"));
                self.ty(ty, out);
                self.ident(var, out);
                self.expr(range, out);
                self.stmt(body, out);
            }
            Stmt::Return { value, .. } => {
                out.push(Atom::text("return"));
                self.opt_expr(value.as_ref(), out);
            }
            Stmt::Break { .. } => out.push(Atom::text("break")),
            Stmt::Continue { .. } => out.push(Atom::text("continue")),
            Stmt::Goto { label, .. } => {
                out.push(Atom::text("goto"));
                self.ident(label, out);
            }
            Stmt::Label { label, stmt, .. } => {
                self.ident(label, out);
                self.stmt(stmt, out);
            }
            Stmt::Switch {
                scrutinee, body, ..
            } => {
                out.push(Atom::text("switch"));
                self.expr(scrutinee, out);
                self.stmt(body, out);
            }
            Stmt::Case { value, stmt, .. } => {
                match value {
                    Some(v) => {
                        out.push(Atom::text("case"));
                        self.expr(v, out);
                    }
                    None => out.push(Atom::text("default")),
                }
                self.stmt(stmt, out);
            }
            Stmt::Directive(d) => self.directive(d, out),
            Stmt::Empty { .. }
            | Stmt::Dots { .. }
            | Stmt::MetaStmt { .. }
            | Stmt::MetaStmtList { .. } => {}
            Stmt::PatGroup { conj, branches, .. } => {
                // The matcher only considers single-statement branches;
                // others can never match and are skipped here too.
                let viable = branches.iter().filter(|b| b.len() == 1);
                if *conj {
                    for b in viable {
                        self.stmt(&b[0], out);
                    }
                } else {
                    intersect_branches(out, viable.map(|b| self.atoms_of(|o| self.stmt(&b[0], o))));
                }
            }
        }
    }

    fn opt_expr(&self, e: Option<&Expr>, out: &mut Vec<Atom>) {
        // `...` in an optional slot matches presence *or* absence.
        if let Some(e) = e {
            if !matches!(e, Expr::Dots { .. }) {
                self.expr(e, out);
            }
        }
    }

    fn item(&self, it: &Item, out: &mut Vec<Atom>) {
        match it {
            Item::Directive(d) => self.directive(d, out),
            Item::Function(f) => {
                for s in &f.specifiers {
                    push_name(s.name.as_str(), out);
                }
                for a in &f.attrs {
                    self.attr(a, out);
                }
                self.ty(&f.ret, out);
                self.ident(&f.name, out);
                self.params(&f.params, out);
                self.stmt_seq(&f.body.stmts, out);
            }
            Item::Decl(d) => self.decl_atoms(d, out),
            // Namespace / extern-block patterns never match (`match_item`
            // has no arm for them), so they constrain nothing.
            Item::Namespace { .. } | Item::ExternBlock { .. } => {}
        }
    }

    fn atoms_of(&self, f: impl FnOnce(&mut Vec<Atom>)) -> Vec<Atom> {
        let mut v = Vec::new();
        f(&mut v);
        v
    }
}

/// Push a (possibly `::`-qualified, possibly multi-word) name as its
/// contiguous segments. A name that is one identifier word is a token
/// atom: the matcher compares it by equality with a node the parser built
/// from one identifier token.
fn push_name(name: &str, out: &mut Vec<Atom>) {
    if is_identifier(name) {
        out.push(Atom {
            text: name.to_string(),
            token: true,
        });
        return;
    }
    for word in name.split_whitespace() {
        for seg in word.split("::") {
            if !seg.is_empty() {
                out.push(Atom::text(seg));
            }
        }
    }
}

/// Whether `s` is one C identifier (ASCII letters, digits and `_`, not
/// starting with a digit).
fn is_identifier(s: &str) -> bool {
    s.bytes().next().is_some_and(|b| !b.is_ascii_digit())
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Extend `out` with the intersection of the branch atom sets: only an
/// atom required by *every* branch is required by the disjunction, and it
/// is a token atom only when every branch holds it as one.
fn intersect_branches(out: &mut Vec<Atom>, branches: impl Iterator<Item = Vec<Atom>>) {
    let mut common: Option<Vec<Atom>> = None;
    for b in branches {
        common = Some(match common {
            None => b,
            Some(prev) => prev
                .into_iter()
                .filter(|a| b.iter().any(|x| x.text == a.text))
                .map(|mut a| {
                    a.token &= b.iter().any(|x| x.text == a.text && x.token);
                    a
                })
                .collect(),
        });
    }
    if let Some(c) = common {
        out.extend(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_semantic_patch;
    use crate::Rule;

    fn atoms_of_patch(src: &str) -> Vec<Vec<String>> {
        let sp = parse_semantic_patch(src).unwrap();
        sp.rules
            .iter()
            .filter_map(|r| match r {
                Rule::Transform(t) => Some(rule_atoms(t)),
                _ => None,
            })
            .collect()
    }

    /// The token atoms of each transform rule of a patch.
    fn token_atoms_of_patch(src: &str) -> Vec<Vec<String>> {
        let sp = parse_semantic_patch(src).unwrap();
        sp.rules
            .iter()
            .filter_map(|r| match r {
                Rule::Transform(t) => Some(
                    pattern_atoms(&t.body.pattern, &t.metavars, None)
                        .into_iter()
                        .filter(|a| a.token)
                        .map(|a| a.text)
                        .collect(),
                ),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn token_atoms_are_whole_identifiers() {
        // Callee, field and type names are tokens; the string literal and
        // the statement keyword are text only.
        let a = token_atoms_of_patch(
            "@@\nexpression e;\n@@\n- if (p->len) log_it(\"x\", (size_t)e);\n+ f(e);\n",
        );
        assert_eq!(a, [["len", "log_it", "p", "size_t"]]);
        // `::` segments and multi-word type names stay text only.
        let a = token_atoms_of_patch(
            "#spatch --c++\n@@\nidentifier v;\n@@\n- unsigned long v = ns::get();\n+ auto v = get();\n",
        );
        assert_eq!(a, [Vec::<String>::new()]);
        // A `symbol` is a token; an `=~` factor is text only.
        let a =
            token_atoms_of_patch("@@\nsymbol a;\nidentifier f =~ \"^cu\";\n@@\n- f(a)\n+ g(a)\n");
        assert_eq!(a, [["a"]]);
    }

    #[test]
    fn disjunction_keeps_a_token_only_if_every_branch_has_it() {
        // `a` is a token in the first branch and only a regex factor in
        // the second: the disjunction requires the text, not the token.
        let src = "@@\nidentifier f =~ \"a\";\n@@\n- \\( foo(a) \\| foo(f) \\)\n+ bar()\n";
        let sp = parse_semantic_patch(src).unwrap();
        let Rule::Transform(t) = &sp.rules[0] else {
            unreachable!()
        };
        let atoms = pattern_atoms(&t.body.pattern, &t.metavars, None);
        let tagged: Vec<(&str, bool)> = atoms.iter().map(|a| (a.text.as_str(), a.token)).collect();
        assert_eq!(tagged, [("a", false), ("foo", true)]);
        // Within one branch, one token occurrence makes the atom a token.
        let a = token_atoms_of_patch("@@\n@@\n- foo(\"foo\", foo)\n+ bar()\n");
        assert_eq!(a, [["foo"]]);
    }

    #[test]
    fn call_rename_requires_callee() {
        let a = atoms_of_patch("@@\nexpression e;\n@@\n- old_api(e);\n+ new_api(e);\n");
        assert_eq!(a, vec![vec!["old_api".to_string()]]);
    }

    #[test]
    fn int_literals_are_not_required() {
        // `4` matches `0x4` under const folding; only the callee is safe.
        let a = atoms_of_patch("@@ @@\n- f(4);\n+ g(4);\n");
        assert_eq!(a, vec![vec!["f".to_string()]]);
        // `'a'` folds to 97 the same way.
        let a = atoms_of_patch("@@ @@\n- f('a');\n+ g(1);\n");
        assert_eq!(a, vec![vec!["f".to_string()]]);
    }

    #[test]
    fn ternary_arms_are_required_only_behind_an_atom_condition() {
        // `1 ? 5 : foo` folds to 5, so `foo` is not required ...
        let a = atoms_of_patch("@@ @@\n- x = 1 ? 5 : foo;\n+ x = 6;\n");
        assert_eq!(a, vec![vec!["x".to_string()]]);
        // ... but a condition that yields an atom never folds.
        let a = atoms_of_patch("@@ @@\n- x = c ? 5 : foo;\n+ x = 6;\n");
        assert_eq!(
            a,
            vec![vec!["c".to_string(), "foo".to_string(), "x".to_string()]]
        );
    }

    #[test]
    fn pragma_and_include_words() {
        let a = atoms_of_patch(
            "@@ @@\n#include <omp.h>\n+ #include <likwid-marker.h>\n\n@@ @@\n#pragma omp ...\n{\n+ S();\n...\n}\n",
        );
        assert_eq!(a[0], ["<omp.h>", "include"]);
        assert_eq!(a[1], ["omp", "pragma"]);
    }

    #[test]
    fn regex_constraint_contributes_literal_factors() {
        let a = atoms_of_patch(
            "@@\ntype T;\nidentifier f =~ \"kernel\";\nparameter list PL;\nstatement list SL;\n@@\nT f (PL) { SL }\n",
        );
        assert_eq!(a, vec![vec!["kernel".to_string()]]);
    }

    #[test]
    fn disjunction_takes_branch_intersection() {
        let a = atoms_of_patch("@@\nexpression e;\n@@\n- \\( foo(e) \\| bar(e) \\)\n+ baz(e);\n");
        assert_eq!(a, vec![Vec::<String>::new()]);
        let b =
            atoms_of_patch("@@\nexpression e;\n@@\n- \\( foo(e, a) \\| foo(a, e) \\)\n+ baz(e);\n");
        assert_eq!(b, vec![vec!["a".to_string(), "foo".to_string()]]);
    }

    #[test]
    fn symbol_metavariable_is_required() {
        let a = atoms_of_patch(
            "#spatch --c++=23\n@@\nsymbol a;\nexpression x,y,z;\n@@\n- a[x][y][z]\n+ a[x, y, z]\n",
        );
        assert_eq!(a, vec![vec!["a".to_string()]]);
    }

    #[test]
    fn kernel_launch_marker_required() {
        let a = atoms_of_patch(
            "#spatch --c++\n@@\nexpression k,b,t;\nexpression list el;\n@@\n- k<<<b,t>>>(el)\n+ hipLaunchKernelGGL(k, b, t, 0, 0, el)\n",
        );
        assert_eq!(a, vec![vec!["<<<".to_string()]]);
    }

    #[test]
    fn attribute_pattern_atoms() {
        let a = atoms_of_patch(
            "@@\nidentifier f;\ntype T;\n@@\n__attribute__((target(...,\"avx512\",...)))\nT f(...)\n{\n+ setup();\n...\n}\n",
        );
        assert_eq!(
            a,
            vec![vec![
                "\"avx512\"".to_string(),
                "__attribute__".to_string(),
                "target".to_string()
            ]]
        );
    }
}
