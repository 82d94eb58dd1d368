//! The tree matcher's search: where a rule's pattern is tried, and how a
//! rule that runs once per inherited environment avoids re-walking the
//! file for each one. A rule that lowers to a CFG pattern never comes
//! here, whatever the size of the function: `flowmatch` tries it at CFG
//! nodes.
//!
//! [`for_each_root`] is the only code that knows where a pattern is
//! tried. It hands out every candidate root of a pattern in a text, each
//! once, in this order:
//!
//! * an expression pattern: every subexpression, in
//!   [`walk_all_exprs`](visit::walk_all_exprs) order;
//! * a one-statement pattern: every statement of every block, with the
//!   blocks in search order (every function body, then every block
//!   nested in one); then, per function in pre-order, every non-block
//!   statement that no block lists: an unbraced `if`/`else` branch, a
//!   loop or `switch` body, a label's or `case`'s statement;
//! * a longer statement pattern: every window of every block, in the
//!   same block order (only the first window when the pattern opens with
//!   dots);
//! * an item pattern: the item windows of the top level, then those of
//!   each namespace and extern block.
//!
//! [`try_root`] tries a pattern at one root, and [`find_matches`] tries
//! it at every root. A directive- or declaration-only statement pattern
//! is also tried at the top level, read as a block of owned clones of the
//! items; those roots borrow the clones, so they stay out of the
//! enumeration.
//!
//! Each root is tried once. A one-statement pattern used to be tried at
//! every statement of a block twice, as a window start and again as a
//! nested statement. The second try matched the same statement from the
//! same seed as the first, so the two matches had equal roots and witness
//! group 0, and the later one was always dropped: by the earlier match's
//! claim, or by the same claim that dropped both (see
//! `Patcher::run_transform_rule`). Dropping the second try changes no
//! match, finding, edit, exported environment, kill stage or `--explain`
//! text; only the internal probe counts of anchor hits and blocked groups
//! lose the duplicates.
//!
//! A rule that inherits from earlier rules runs once per seed, so walking
//! per seed makes its cost seeds × file size. Two exact shortcuts bring it
//! down to the distinct seeds and the roots each can reach:
//!
//! * [`TreeSearch`] pins a seed that binds an inherited position the
//!   pattern requires. A position binds only where a matched node's span
//!   equals the bound span, so only roots whose subtree covers that span
//!   can match. A span index over the roots, built the first time a
//!   pinned seed needs it, finds them, and they are tried in walk order:
//!   the matches come out exactly as the full walk returns them.
//! * [`DistinctSeeds`] recognises a seed whose bindings equal an earlier
//!   seed's. Such a seed finds the same roots again, which the caller's
//!   claims already cover (see `Patcher::run_transform_rule`).

use crate::env::{Env, Value};
use crate::matcher::{self, value_eq, MatchCtx, MatchState, Pair, PairKind};
use cocci_cast::ast::*;
use cocci_cast::visit;
use cocci_smpl::Pattern;
use cocci_source::{Span, Symbol};
use std::collections::HashMap;
use std::mem::discriminant;

/// Find all matches of a pattern in a translation unit, starting from a
/// seed environment.
pub fn find_matches(
    ctx: &MatchCtx,
    pattern: &Pattern,
    tu: &TranslationUnit,
    seed: &Env,
) -> Vec<MatchState> {
    let mut out = Vec::new();
    for_each_root(pattern, tu, &mut |root| {
        try_root(ctx, pattern, root, seed, &mut out)
    });
    // Directive- and declaration-only patterns also match the top level
    // (the include-insertion and API-translation rules need this).
    if let Pattern::Stmts(pats) = pattern {
        let only_toplevel_shapes = pats
            .iter()
            .all(|p| matches!(p, Stmt::Directive(_) | Stmt::Decl(_) | Stmt::Dots { .. }));
        if only_toplevel_shapes {
            let pseudo = Block {
                stmts: tu
                    .items
                    .iter()
                    .map(|it| match it {
                        Item::Directive(d) => Stmt::Directive(d.clone()),
                        Item::Decl(d) => Stmt::Decl(d.clone()),
                        other => Stmt::Empty { span: other.span() },
                    })
                    .collect(),
                span: tu.span,
            };
            block_roots(pats, &pseudo, &mut |root| {
                try_root(ctx, pattern, root, seed, &mut out)
            });
        }
    }
    out
}

/// A place a pattern is tried.
#[derive(Clone, Copy)]
pub(crate) enum Root<'t> {
    /// A subexpression (expression patterns).
    Expr(&'t Expr),
    /// One statement (one-statement patterns).
    Stmt(&'t Stmt),
    /// A block's statements from a window start on, with the span of the
    /// block.
    Window(&'t [Stmt], Span),
    /// An item list from a window start on (item patterns).
    Items(&'t [Item]),
}

/// Call `f` on every root of `pattern` in `tu`, each once, in the order
/// the module docs give.
pub(crate) fn for_each_root<'t>(
    pattern: &Pattern,
    tu: &'t TranslationUnit,
    f: &mut dyn FnMut(Root<'t>),
) {
    match pattern {
        Pattern::Expr(_) => visit::walk_all_exprs(tu, &mut |e| f(Root::Expr(e))),
        Pattern::Stmts(pats) => {
            let mut fns = Vec::new();
            visit::walk_functions(tu, &mut |func| fns.push(func));
            stmt_roots(pats, &fns, f);
        }
        Pattern::Items(pats) => item_roots(pats, &tu.items, f),
    }
}

/// The roots of statement pattern `pats` in the functions `fns`: those of
/// every block (the function bodies, then every block nested in one),
/// then, for a one-statement pattern, every statement no block lists.
fn stmt_roots<'t>(pats: &[Stmt], fns: &[&'t FunctionDef], f: &mut dyn FnMut(Root<'t>)) {
    let mut blocks: Vec<&Block> = fns.iter().map(|func| &func.body).collect();
    for func in fns {
        for s in &func.body.stmts {
            visit::walk_stmt(s, &mut |st| {
                if let Stmt::Block(inner) = st {
                    blocks.push(inner);
                }
            });
        }
    }
    for block in blocks {
        block_roots(pats, block, f);
    }
    if single_stmt(pats) {
        for func in fns {
            for s in &func.body.stmts {
                unlisted_stmts(s, f);
            }
        }
    }
}

/// The roots of statement pattern `pats` in one block. A one-statement
/// pattern is tried at each statement: its one-statement window consumes
/// exactly that statement. A longer pattern is tried at each window
/// start, or only at the first when it opens with dots; an empty block
/// has one, empty, window.
fn block_roots<'t>(pats: &[Stmt], block: &'t Block, f: &mut dyn FnMut(Root<'t>)) {
    if single_stmt(pats) {
        block.stmts.iter().for_each(|s| f(Root::Stmt(s)));
    } else if matches!(pats.first(), Some(Stmt::Dots { .. })) {
        f(Root::Window(&block.stmts, block.span));
    } else {
        for start in 0..block.stmts.len().max(1) {
            f(Root::Window(&block.stmts[start..], block.span));
        }
    }
}

/// Every non-block statement nested in `s` that no block lists, in
/// pre-order.
fn unlisted_stmts<'t>(s: &'t Stmt, f: &mut dyn FnMut(Root<'t>)) {
    let children_listed = matches!(s, Stmt::Block(_));
    visit::child_stmts(s, &mut |c| {
        if !children_listed && !matches!(c, Stmt::Block(_)) {
            f(Root::Stmt(c));
        }
        unlisted_stmts(c, f);
    });
}

/// Whether a statement pattern is one statement, which consumes exactly
/// the statement it starts at.
fn single_stmt(pats: &[Stmt]) -> bool {
    pats.len() == 1 && !matches!(pats[0], Stmt::Dots { .. } | Stmt::MetaStmtList { .. })
}

/// The item windows of `items`, then those of each namespace and extern
/// block among them.
fn item_roots<'t>(pats: &[Item], items: &'t [Item], f: &mut dyn FnMut(Root<'t>)) {
    if pats.is_empty() {
        return;
    }
    for start in 0..(items.len() + 1).saturating_sub(pats.len()) {
        f(Root::Items(&items[start..]));
    }
    for it in items {
        if let Item::Namespace { items, .. } | Item::ExternBlock { items, .. } = it {
            item_roots(pats, items, f);
        }
    }
}

/// Try `pattern` at `root` from `seed`, and push the match if it matches.
pub(crate) fn try_root(
    ctx: &MatchCtx,
    pattern: &Pattern,
    root: Root,
    seed: &Env,
    out: &mut Vec<MatchState>,
) {
    let mut st = MatchState {
        env: seed.clone(),
        ..Default::default()
    };
    let matched = match (pattern, root) {
        (Pattern::Expr(pat), Root::Expr(e)) => {
            let matched = matcher::match_expr(ctx, pat, e, &mut st);
            if matched {
                // Record the root pair for the rewriter.
                st.pairs.push(Pair {
                    pat: pat.span(),
                    src: e.span(),
                    kind: PairKind::Expr,
                });
            }
            matched
        }
        (Pattern::Stmts(pats), Root::Stmt(s)) => matcher::match_stmt(ctx, &pats[0], s, &mut st),
        (Pattern::Stmts(pats), Root::Window(srcs, enclosing)) => {
            matcher::match_stmt_seq(ctx, pats, srcs, false, enclosing, &mut st)
        }
        (Pattern::Items(pats), Root::Items(items)) => pats
            .iter()
            .zip(items)
            .all(|(p, it)| matcher::match_item(ctx, p, it, &mut st)),
        _ => unreachable!("roots are enumerated from their pattern"),
    };
    if matched {
        out.push(st);
    }
}

/// Position metavariables that every match of `pattern` binds at a node
/// inside its root.
///
/// Only one-expression and one-statement patterns qualify: a
/// multi-statement window consumes statements after its start. Only
/// positions attached on a path that every successful match walks count.
/// That excludes disjunction and conjunction branches, `when` clauses, and
/// ternary arms (a constant condition folds a ternary without matching
/// its arms). No node on such a path folds to a constant, so neither
/// folding isomorphism can skip the annotated node.
fn required_positions(pattern: &Pattern) -> Vec<Symbol> {
    let mut out = Vec::new();
    match pattern {
        Pattern::Expr(e) => expr_positions(e, &mut out),
        Pattern::Stmts(pats) if pats.len() == 1 => match &pats[0] {
            Stmt::Expr { expr, .. }
            | Stmt::Return {
                value: Some(expr), ..
            } => expr_positions(expr, &mut out),
            Stmt::MetaStmt { pos: Some(p), .. } => out.push(*p),
            _ => {}
        },
        _ => {}
    }
    out
}

fn expr_positions(e: &Expr, out: &mut Vec<Symbol>) {
    let all = |es: &[Expr], out: &mut Vec<Symbol>| es.iter().for_each(|x| expr_positions(x, out));
    match e {
        Expr::PosAnn { inner, pos, .. } => {
            out.push(*pos);
            expr_positions(inner, out);
        }
        Expr::Paren { inner: x, .. }
        | Expr::Unary { expr: x, .. }
        | Expr::PostIncDec { expr: x, .. }
        | Expr::Member { base: x, .. }
        | Expr::Cast { expr: x, .. }
        | Expr::Ternary { cond: x, .. } => expr_positions(x, out),
        Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
            expr_positions(lhs, out);
            expr_positions(rhs, out);
        }
        Expr::Call { callee, args, .. } => {
            expr_positions(callee, out);
            all(args, out);
        }
        Expr::KernelCall {
            callee,
            config,
            args,
            ..
        } => {
            expr_positions(callee, out);
            all(config, out);
            all(args, out);
        }
        Expr::Index { base, indices, .. } => {
            expr_positions(base, out);
            all(indices, out);
        }
        Expr::InitList { elems, .. } => all(elems, out),
        // Disjunction branches are alternatives; leaves bind nothing.
        _ => {}
    }
}

/// Smallest span covering every node of a pinnable root's subtree.
fn hull(root: Root) -> Span {
    let mut hull = Span::SYNTHETIC;
    match root {
        Root::Expr(e) => visit::walk_expr(e, &mut |sub| hull = hull.merge(sub.span())),
        Root::Stmt(s) => visit::walk_stmt(s, &mut |st| {
            hull = hull.merge(st.span());
            visit::stmt_exprs(st, &mut |e| hull = hull.merge(e.span()));
        }),
        Root::Window(..) | Root::Items(_) => {
            unreachable!("only expression and one-statement patterns are pinned")
        }
    }
    hull
}

/// The roots of one pinnable pattern over one text, indexed by the span
/// their subtree covers.
struct RootIndex<'a> {
    /// Every root, in [`for_each_root`] order.
    roots: Vec<Root<'a>>,
    /// (subtree span, position in `roots`), sorted by span start.
    by_start: Vec<(Span, u32)>,
    /// Max subtree end over an implicit segment tree on `by_start`: node
    /// 1 covers everything, node `n` has children `2n` and `2n + 1`, and
    /// leaf `i` is node `leaves + i`.
    max_end: Vec<u32>,
    leaves: usize,
}

impl<'a> RootIndex<'a> {
    fn new(pattern: &Pattern, tu: &'a TranslationUnit) -> RootIndex<'a> {
        let mut roots = Vec::new();
        let mut by_start: Vec<(Span, u32)> = Vec::new();
        for_each_root(pattern, tu, &mut |root| {
            by_start.push((hull(root), roots.len() as u32));
            roots.push(root);
        });
        by_start.sort_by_key(|(h, _)| h.start);
        let leaves = by_start.len().next_power_of_two();
        let mut max_end = vec![0; 2 * leaves];
        for (i, (h, _)) in by_start.iter().enumerate() {
            max_end[leaves + i] = h.end;
        }
        for n in (1..leaves).rev() {
            max_end[n] = max_end[2 * n].max(max_end[2 * n + 1]);
        }
        RootIndex {
            roots,
            by_start,
            max_end,
            leaves,
        }
    }

    /// The roots whose subtree covers `pin`, in walk order.
    fn containing(&self, pin: Span) -> Vec<Root<'a>> {
        // Roots starting after the pin cannot cover it (synthetic hulls
        // sort last and are never reached).
        let starts_before = self.by_start.partition_point(|(h, _)| h.start <= pin.start);
        let mut hits = Vec::new();
        self.collect(1, 0, self.leaves, starts_before, pin.end, &mut hits);
        hits.sort_unstable();
        hits.into_iter().map(|i| self.roots[i as usize]).collect()
    }

    fn collect(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        limit: usize,
        end: u32,
        hits: &mut Vec<u32>,
    ) {
        if lo >= limit || self.max_end[node] < end {
            return;
        }
        if hi - lo == 1 {
            hits.push(self.by_start[lo].1);
            return;
        }
        let mid = (lo + hi) / 2;
        self.collect(2 * node, lo, mid, limit, end, hits);
        self.collect(2 * node + 1, mid, hi, limit, end, hits);
    }
}

/// The tree route's pinned search for one rule over one text: a seed
/// that binds a required position from this file is tried only at the
/// roots covering it.
pub(crate) struct TreeSearch<'a> {
    pattern: &'a Pattern,
    tu: &'a TranslationUnit,
    /// Positions every match binds inside its root (on first use).
    pins: Option<Vec<Symbol>>,
    /// Candidate roots by span (for the first pinned seed).
    index: Option<RootIndex<'a>>,
}

impl<'a> TreeSearch<'a> {
    /// A search over `tu`; nothing is computed until a seed needs it.
    pub(crate) fn new(pattern: &'a Pattern, tu: &'a TranslationUnit) -> TreeSearch<'a> {
        TreeSearch {
            pattern,
            tu,
            pins: None,
            index: None,
        }
    }

    /// The matches of `seed` when it binds a required position in this
    /// file: exactly what [`find_matches`] returns, in the same order.
    /// `None` when the seed pins nothing (search the whole file).
    pub(crate) fn pinned(&mut self, ctx: &MatchCtx, seed: &Env) -> Option<Vec<MatchState>> {
        let pattern = self.pattern;
        let pins = self.pins.get_or_insert_with(|| required_positions(pattern));
        let pin = pins.iter().find_map(|p| match seed.get(*p) {
            Some(Value::Pos { file: pf, span, .. })
                if **pf == *ctx.file && !span.is_synthetic() =>
            {
                Some(*span)
            }
            _ => None,
        })?;
        let tu = self.tu;
        let index = self
            .index
            .get_or_insert_with(|| RootIndex::new(pattern, tu));
        let mut out = Vec::new();
        for root in index.containing(pin) {
            try_root(ctx, pattern, root, seed, &mut out);
        }
        Some(out)
    }
}

/// The seeds a rule already searched on the tree route, for recognising
/// a seed equal to an earlier one.
///
/// Seeds are bucketed by a cheap key (each binding's name and rendered
/// text) and confirmed binding by binding: same names, same
/// representation, and [`value_eq`]. The matcher reads a seed only
/// through such comparisons, so equal seeds find the same roots. A missed
/// duplicate costs a search, never output.
#[derive(Default)]
pub(crate) struct DistinctSeeds<'s> {
    buckets: HashMap<String, Vec<usize>>,
    searched: Vec<Searched<'s>>,
    /// The key of the seed being searched, when it has no twin.
    pending: Option<(String, &'s Env)>,
}

struct Searched<'s> {
    seed: &'s Env,
    /// Matches its search returned.
    matches: usize,
    /// Whether every match root is a real span, and so ends up claimed
    /// or blocked by a claim.
    claimable: bool,
}

impl<'s> DistinctSeeds<'s> {
    /// The match count of an earlier seed equal to `seed`, when every one
    /// of its matches had a claimable root. Otherwise `seed` must be
    /// searched, and [`searched`](Self::searched) records the result.
    pub(crate) fn twin(&mut self, seed: &'s Env, src: &str) -> Option<usize> {
        self.pending = None;
        let key = seed_key(seed, src);
        let twin = self.buckets.get(&key).and_then(|bucket| {
            bucket
                .iter()
                .map(|&i| &self.searched[i])
                .find(|s| same_bindings(s.seed, seed))
        });
        match twin {
            Some(t) if t.claimable => Some(t.matches),
            // A synthetic root is never claimed: a duplicate would match
            // there again, so it is searched (and not recorded).
            Some(_) => None,
            None => {
                self.pending = Some((key, seed));
                None
            }
        }
    }

    /// Record the search of the seed last passed to
    /// [`twin`](Self::twin); `claimable` says whether every match root is
    /// a real span.
    pub(crate) fn searched(&mut self, matches: usize, claimable: bool) {
        if let Some((key, seed)) = self.pending.take() {
            self.buckets
                .entry(key)
                .or_default()
                .push(self.searched.len());
            self.searched.push(Searched {
                seed,
                matches,
                claimable,
            });
        }
    }
}

fn seed_key(seed: &Env, src: &str) -> String {
    let mut key = String::new();
    for (name, v) in seed.iter() {
        key.push_str(name.as_str());
        key.push('\0');
        key.push_str(&v.render(src));
        key.push('\u{1}');
    }
    key
}

fn same_bindings(a: &Env, b: &Env) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((ka, va), (kb, vb))| {
            ka == kb
                && discriminant(va) == discriminant(vb)
                && discriminant(va.structural()) == discriminant(vb.structural())
                && value_eq(va, vb)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::ExplainConfig;
    use crate::orchestrate::seed_check;
    use crate::Patcher;
    use cocci_cast::parser::{parse_translation_unit, NoMeta, ParseOptions};
    use cocci_smpl::{parse_semantic_patch, Rule, SemanticPatch, TransformRule};
    use cocci_workloads::gen::{self, cuda_codebase, CodebaseSpec};
    use cocci_workloads::patches::{self, UC78_CUDA_HIP_FULL, UC7_CUDA_HIP};
    use std::sync::Arc;

    /// What one run of a patch over some files produced.
    struct Run {
        /// Pinned searches and skipped duplicate seeds, each checked
        /// against `find_matches` as it ran.
        pinned: usize,
        duplicates: usize,
        /// The rewritten text of each file.
        outputs: Vec<Option<String>>,
    }

    /// Apply `patch` to each file with the seed search and with the
    /// reference loop (every seed through `find_matches`). Outputs and
    /// statistics — matches per rule, edits, findings, attempts with
    /// their `--explain` details — must agree exactly.
    fn same_as_reference(patch: &str, files: &[(&str, &str)]) -> Run {
        let patch = parse_semantic_patch(patch).unwrap();
        let mut patcher = Patcher::new(&patch).unwrap();
        patcher.explain = Some(Arc::new(ExplainConfig::default()));
        let before = seed_check::counts();
        let mut outputs = Vec::new();
        for (name, text) in files {
            let mut run = |reference: bool| {
                seed_check::set_reference(reference);
                let out = patcher.apply(name, text);
                seed_check::set_reference(false);
                let summary = format!("{out:?}\n{:?}", patcher.last_stats);
                (out.unwrap(), summary)
            };
            let (out, searched) = run(false);
            let (_, reference) = run(true);
            assert_eq!(searched, reference, "{name}");
            outputs.push(out);
        }
        let after = seed_check::counts();
        Run {
            pinned: after.0 - before.0,
            duplicates: after.1 - before.1,
            outputs,
        }
    }

    fn rule<'p>(patch: &'p SemanticPatch, name: &str) -> &'p TransformRule {
        patch
            .rules
            .iter()
            .find_map(|r| match r {
                Rule::Transform(t) if t.name.as_deref() == Some(name) => Some(t),
                _ => None,
            })
            .unwrap()
    }

    /// Rule `r` records every call's callee and position; `t` rewrites
    /// the call at an inherited position.
    const CALL_AT: &str = r#"
@r@
identifier fn;
position p;
@@
fn@p(...)

@t@
identifier r.fn;
position r.p;
@@
- fn@p(...)
+ gone()
"#;

    #[test]
    fn uc7_and_uc78_match_the_reference_loop() {
        let files = cuda_codebase(&CodebaseSpec {
            files: 3,
            functions_per_file: 12,
            seed: 7,
        });
        let files: Vec<(&str, &str)> = files
            .iter()
            .map(|f| (f.name.as_str(), f.text.as_str()))
            .collect();
        for patch in [UC7_CUDA_HIP, UC78_CUDA_HIP_FULL] {
            let run = same_as_reference(patch, &files);
            // `hfe` pins every seed after its first; `hte`'s seeds
            // repeat `c_t = __half`, `i = h`.
            assert!(run.pinned > 0, "{} pinned", run.pinned);
            assert!(run.duplicates > 0, "{} duplicates", run.duplicates);
            for out in &run.outputs {
                let out = out.as_deref().unwrap();
                assert!(!out.contains("curand_uniform_double"), "{out}");
                assert!(!out.contains("__half"), "{out}");
            }
        }
    }

    #[test]
    fn every_use_case_matches_the_reference_loop() {
        // UC4's `d`, UC5's `r1` and UC9's last rule inherit too (items,
        // statements, pragma payloads).
        let spec = CodebaseSpec {
            files: 2,
            functions_per_file: 6,
            seed: 0xE1,
        };
        for (uc, patch) in patches::ALL {
            let files = match *uc {
                "UC1" => gen::omp_codebase(&spec),
                "UC2" => gen::kernel_codebase(&spec),
                "UC3" | "UC4" => gen::multiversion_codebase(&spec),
                "UC5-p0" | "UC5-p1r1" => gen::unrolled_codebase(&spec, 4),
                "UC6" => gen::stencil_codebase(&spec),
                "UC7" | "UC8" => gen::cuda_codebase(&spec),
                "UC9" => gen::openacc_codebase(&spec),
                "UC10" => gen::raw_loop_codebase(&spec),
                _ => gen::librsb_codebase(&CodebaseSpec {
                    functions_per_file: 24,
                    ..spec
                }),
            };
            let files: Vec<(&str, &str)> = files
                .iter()
                .map(|f| (f.name.as_str(), f.text.as_str()))
                .collect();
            let run = same_as_reference(patch, &files);
            assert!(run.outputs.iter().any(Option::is_some), "{uc}");
        }
    }

    #[test]
    fn position_inside_a_disjunction_branch_does_not_pin() {
        // The second branch matches without binding `p`: `foo(0)` is
        // rewritten under the seed pinned to `foo(1)`.
        let patch = r#"
@r@
identifier fn;
position p;
@@
fn@p(1)

@t@
identifier r.fn;
position r.p;
expression e;
@@
- \( fn@p(e) \| fn(0) \)
+ gone()
"#;
        let src = "void f(void) { bar(1); foo(1); foo(0); }\n";
        let run = same_as_reference(patch, &[("d.c", src)]);
        assert_eq!(run.pinned, 0);
        let out = run.outputs[0].as_deref().unwrap();
        assert_eq!(out, "void f(void) { gone(); gone(); gone(); }\n");
    }

    #[test]
    fn position_on_a_nested_subexpression_pins_its_enclosing_roots() {
        let patch = r#"
@r@
expression e;
position p;
@@
g(e@p)

@t@
expression r.e;
position r.p;
@@
- g(e@p)
+ h(e)
"#;
        let src = "void f(int a, int b) { x = g(a) + g(b); y = k(g(a)); g(g(b)); }\n";
        let run = same_as_reference(patch, &[("n.c", src)]);
        assert!(run.pinned > 0);
        let out = run.outputs[0].as_deref().unwrap();
        assert!(out.contains("x = h(a) + h(b); y = k(h(a));"), "{out}");
    }

    #[test]
    fn statement_positions_pin_block_windows_and_nested_statements() {
        let src = "void f(int a) {\n  log(a);\n  if (a) log(a);\n  { log(a); log(b); }\n  while (a) log(b);\n}\n";
        let on_call = r#"
@r@
expression e;
position p;
@@
log(e)@p;

@t@
expression r.e;
position r.p;
@@
- log(e)@p;
+ trace(e);
"#;
        let run = same_as_reference(on_call, &[("s.c", src)]);
        assert!(run.pinned > 0);
        assert_eq!(
            run.outputs[0].as_deref(),
            Some(src.replace("log(", "trace(").as_str())
        );
        let on_statement = r#"
@u@
statement S;
position p;
@@
log(a);
S@p;

@w@
statement u.S;
position u.p;
@@
- S@p;
+ wrapped();
"#;
        let run = same_as_reference(on_statement, &[("s.c", src)]);
        assert!(run.pinned > 0);
        let out = run.outputs[0].as_deref().unwrap();
        assert!(
            out.contains("  wrapped();\n  { log(a); wrapped(); }"),
            "{out}"
        );
    }

    #[test]
    fn position_from_another_file_does_not_pin() {
        let patch = parse_semantic_patch(CALL_AT).unwrap();
        let t = rule(&patch, "t");
        let src = "void f(void) { foo(1); foo(2); }\n";
        let tu = parse_translation_unit(src, ParseOptions::c(), &NoMeta).unwrap();
        let regexes = HashMap::new();
        let ctx = MatchCtx {
            file: "this.c",
            src,
            decls: &t.metavars,
            regexes: &regexes,
        };
        let second = src.rfind("foo").unwrap() as u32;
        for (file, pins) in [("this.c", true), ("other.c", false)] {
            let mut seed = Env::new();
            seed.bind(
                "fn",
                Value::Ident {
                    name: "foo".into(),
                    span: Span::SYNTHETIC,
                },
            );
            seed.bind(
                "p",
                Value::Pos {
                    file: file.into(),
                    span: Span::new(second, second + 3),
                    resolved: None,
                },
            );
            let expected = find_matches(&ctx, &t.body.pattern, &tu, &seed);
            let pinned = TreeSearch::new(&t.body.pattern, &tu).pinned(&ctx, &seed);
            assert_eq!(pinned.is_some(), pins, "{file}");
            match pinned {
                Some(found) => {
                    assert_eq!(found.len(), 1);
                    assert_eq!(format!("{found:?}"), format!("{expected:?}"));
                }
                None => assert!(expected.is_empty()),
            }
        }
    }

    #[test]
    fn find_matches_tries_each_statement_once() {
        let patch = parse_semantic_patch("@r@\nexpression e;\n@@\nfoo(e);\n").unwrap();
        let r = rule(&patch, "r");
        let src = "void f(int x) { foo(1); if (x) foo(2); { foo(3); } }\n";
        let tu = parse_translation_unit(src, ParseOptions::c(), &NoMeta).unwrap();
        let regexes = HashMap::new();
        let ctx = MatchCtx {
            file: "once.c",
            src,
            decls: &r.metavars,
            regexes: &regexes,
        };
        // The body's statements, the nested block's, then the unbraced
        // branch that no block lists.
        let bound: Vec<String> = find_matches(&ctx, &r.body.pattern, &tu, &Env::new())
            .iter()
            .map(|m| m.env.get("e").unwrap().render(src))
            .collect();
        assert_eq!(bound, ["1", "3", "2"]);
    }

    #[test]
    fn duplicate_seeds_with_a_synthetic_root_are_searched_again() {
        // Tree-read `...` matches an empty run, whose root is synthetic
        // and never claimed: each duplicate matches there again.
        let patch = r#"
@r@
identifier fn;
@@
fn(...);

@t@
identifier r.fn;
@@
... when != zzz()
"#;
        let src = "void a(void) { foo(); foo(); foo(); }\nvoid b(void) { }\n";
        let run = same_as_reference(patch, &[("s.c", src)]);
        assert_eq!(run.duplicates, 0);
    }

    #[test]
    fn constant_set_variants_deduplicate_per_value() {
        let patch = r#"
@r@
expression e;
@@
foo(e);

@t@
expression r.e;
constant k = {1, 2};
@@
- bar(e, k);
+ baz(e, k);
"#;
        let src = "void f(void) { foo(x); foo(x); foo(y); bar(x, 1); bar(x, 2); bar(y, 2); bar(x, 3); }\n";
        let run = same_as_reference(patch, &[("k.c", src)]);
        // Seeds (x,1) and (x,2) repeat once each.
        assert_eq!(run.duplicates, 2);
        let out = run.outputs[0].as_deref().unwrap();
        assert!(
            out.contains("baz(x, 1); baz(x, 2); baz(y, 2); bar(x, 3);"),
            "{out}"
        );
    }

    #[test]
    fn multi_statement_windows_are_not_pinned() {
        let patch = r#"
@r@
expression e;
position p;
@@
bar(e)@p;

@t@
expression r.e;
position r.p;
@@
- bar(e)@p;
- baz(e);
+ qux(e);

@u@
expression r.e;
@@
- baz(e);
- bar(e);
+ quux(e);
"#;
        let src = "void f(void) { bar(a); baz(a); bar(a); baz(b); bar(b); baz(b); }\n";
        let run = same_as_reference(patch, &[("m.c", src)]);
        assert_eq!(run.pinned, 0);
        assert!(run.duplicates > 0);
    }

    #[test]
    fn top_level_declarations_deduplicate() {
        let src = "__half g;\n__half g;\n__half h;\n\
                   void f(void) { __half h; double r; r = curand_uniform_double(s); }\n\
                   void k(void) { __half h; }\n";
        let run = same_as_reference(UC7_CUDA_HIP, &[("g.cu", src)]);
        assert!(run.duplicates > 0);
        let out = run.outputs[0].as_deref().unwrap();
        assert!(!out.contains("__half"), "{out}");
    }

    #[test]
    fn report_only_inheriting_rule_keeps_its_findings() {
        let patch = r#"
@r@
identifier fn =~ "^cu";
position p;
@@
fn@p(...)

@t@
identifier r.fn;
position r.p;
@@
fn@p(...)

@u@
identifier r.fn;
@@
fn(...)
"#;
        let src = "void f(void) { cuA(1); cuB(cuA(2)); other(cuA(3)); }\n";
        let patch_ast = parse_semantic_patch(patch).unwrap();
        let mut patcher = Patcher::new(&patch_ast).unwrap();
        patcher.apply("f.c", src).unwrap();
        let findings = patcher.last_stats.findings.len();
        assert!(findings > 0);
        let run = same_as_reference(patch, &[("f.c", src)]);
        assert!(run.pinned > 0);
        assert!(run.duplicates > 0);
    }

    #[test]
    fn required_positions_follow_only_unavoidable_paths() {
        let patch = parse_semantic_patch(
            r#"
@a@
expression e;
position p;
@@
f(-(e@p), x)

@b@
expression e;
position p;
@@
c ? e@p : 0

@c@
expression e;
position p;
@@
(e@p) ? 1 : 0

@d@
statement S;
position p;
@@
S@p

@e@
expression e;
position p;
@@
bar(e)@p;
baz(e);
"#,
        )
        .unwrap();
        let pins = |name: &str| required_positions(&rule(&patch, name).body.pattern);
        let p = Symbol::intern("p");
        assert_eq!(pins("a"), vec![p]);
        assert!(pins("b").is_empty(), "a ternary arm may fold away");
        assert_eq!(pins("c"), vec![p]);
        assert_eq!(pins("d"), vec![p]);
        assert!(pins("e").is_empty(), "multi-statement windows");
    }

    #[test]
    fn root_index_finds_exactly_the_covering_roots_in_walk_order() {
        let src = "int t = w(1);\n\
                   void f(int a) { x = g(a, h(a + 1)) * k; if (a) y = -a; }\n\
                   void e(void) { }\n";
        let tu = parse_translation_unit(src, ParseOptions::c(), &NoMeta).unwrap();
        let pattern = Pattern::Expr(Expr::Dots {
            span: Span::SYNTHETIC,
        });
        let index = RootIndex::new(&pattern, &tu);
        let mut all = Vec::new();
        visit::walk_all_exprs(&tu, &mut |e| all.push(e));
        assert_eq!(index.roots.len(), all.len());
        for probe in &all {
            let pin = probe.span();
            let got: Vec<Span> = index
                .containing(pin)
                .into_iter()
                .map(|r| match r {
                    Root::Expr(e) => e.span(),
                    _ => unreachable!(),
                })
                .collect();
            let want: Vec<Span> = all
                .iter()
                .map(|e| e.span())
                .filter(|s| s.contains(pin))
                .collect();
            assert_eq!(got, want, "{pin:?}");
        }

        // A one-statement pattern: each statement is a root once, the
        // blocks' statements first, then those no block lists. The
        // `else` block is not a root: no block lists it.
        let src = "void s(int a) {\n  x = 1;\n  if (a) y = 2; else { z = 3; }\n  \
                   { w = 4; while (a) a--; }\n  L: q = 5;\n}\n";
        let tu = parse_translation_unit(src, ParseOptions::c(), &NoMeta).unwrap();
        let pattern = Pattern::Stmts(vec![Stmt::Empty {
            span: Span::SYNTHETIC,
        }]);
        let index = RootIndex::new(&pattern, &tu);
        let span_of = |r: &Root| match r {
            Root::Stmt(s) => s.span(),
            _ => unreachable!(),
        };
        let text = |s: Span| &src[s.start as usize..s.end as usize];
        let roots: Vec<&str> = index.roots.iter().map(|r| text(span_of(r))).collect();
        assert_eq!(
            roots,
            [
                "x = 1;",
                "if (a) y = 2; else { z = 3; }",
                "{ w = 4; while (a) a--; }",
                "L: q = 5;",
                "z = 3;",
                "w = 4;",
                "while (a) a--;",
                "y = 2;",
                "a--;",
                "q = 5;",
            ]
        );
        let mut all = Vec::new();
        visit::walk_functions(&tu, &mut |f| {
            for s in &f.body.stmts {
                visit::walk_stmt(s, &mut |st| all.push(st.span()));
            }
        });
        for pin in all {
            let got: Vec<Span> = index.containing(pin).iter().map(span_of).collect();
            let want: Vec<Span> = index
                .roots
                .iter()
                .map(span_of)
                .filter(|s| s.contains(pin))
                .collect();
            assert!(!want.is_empty(), "{}", text(pin));
            assert_eq!(got, want, "{}", text(pin));
        }
    }
}
