//! Path quantification over a CFG — the model-checking core behind
//! statement dots.
//!
//! Coccinelle's defining semantics for `...` between statements is
//! "along **every** control-flow path" — a CTL `AF`-style obligation
//! discharged by model checking over the function's CFG. This module
//! provides the graph side of that check and leaves "does this node
//! match a pattern?" to the caller as node predicates.
//!
//! [`walk_gap`] is the quantified reachability core. From a set of start
//! nodes, do the paths reach a *satisfying* node through *clean*
//! intermediate nodes before falling off the function exit? Under
//! [`Quant::Forall`] every path must; under [`Quant::Exists`] one is
//! enough.
//!
//! **Loop cut-points.** Traversal never expands a node twice, so every
//! cycle is explored exactly once and cut where it closes. This is the
//! terminating-loop reading upstream Coccinelle gives `...`: the paths
//! that matter are the acyclic unwindings plus whatever leaves the loop,
//! not the infinite self-loop.

use crate::graph::{Cfg, NodeId};

/// How a gap walk quantifies over control-flow paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quant {
    /// Every path must reach a satisfying node (CTL `AF`-like — the
    /// default semantics of statement dots).
    Forall,
    /// Some path must reach a satisfying node (`EF`-like — the
    /// `when exists` variant).
    Exists,
}

/// Why a gap walk failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapFailure {
    /// A path reached the function exit without meeting a satisfying
    /// node (only possible under [`Quant::Forall`]).
    Escaped,
    /// A path crossed a node the `clean` predicate rejects (a `when !=`
    /// violation) before any satisfying node.
    Unclean(NodeId),
    /// No satisfying node is reachable at all.
    NoHit,
}

/// Walk the gap between two pattern anchors.
///
/// From every node in `starts`, follow successor edges. A node where
/// `sat` holds is a **hit**: the path ends there successfully and the
/// node is reported (paths do not continue *through* hits — dots skip
/// only non-matching code). A non-hit node must be `clean` to be
/// crossed. Reaching the exit node without a hit is an *escape*.
///
/// Under [`Quant::Forall`] an escape or an unclean crossing fails the
/// whole walk; under [`Quant::Exists`] such paths are merely pruned.
/// Either way the distinct first-hit nodes are returned (ordered by
/// node id); an empty hit set is the failure [`GapFailure::NoHit`].
pub fn walk_gap(
    cfg: &Cfg,
    starts: &[NodeId],
    quant: Quant,
    sat: &mut dyn FnMut(NodeId) -> bool,
    clean: &mut dyn FnMut(NodeId) -> bool,
) -> Result<Vec<NodeId>, GapFailure> {
    let mut visited = vec![false; cfg.len()];
    let mut hits: Vec<NodeId> = Vec::new();
    let mut stack: Vec<NodeId> = Vec::new();
    for &s in starts {
        if !visited[s.index()] {
            visited[s.index()] = true;
            stack.push(s);
        }
    }
    while let Some(n) = stack.pop() {
        if sat(n) {
            hits.push(n);
            continue; // hits terminate their path
        }
        if n == cfg.exit() {
            if quant == Quant::Forall {
                return Err(GapFailure::Escaped);
            }
            continue;
        }
        if !clean(n) {
            if quant == Quant::Forall {
                return Err(GapFailure::Unclean(n));
            }
            continue;
        }
        for &succ in cfg.succs(n) {
            if !visited[succ.index()] {
                visited[succ.index()] = true;
                stack.push(succ);
            }
        }
    }
    if hits.is_empty() {
        return Err(GapFailure::NoHit);
    }
    hits.sort_by_key(|n| n.index());
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cfg;
    use crate::graph::NodeKind;
    use cocci_cast::parser::{parse_translation_unit, NoMeta, ParseOptions};
    use cocci_cast::Item;

    /// A function's CFG with the source it was built from.
    struct Func {
        cfg: Cfg,
        src: &'static str,
    }

    fn cfg_of(src: &'static str) -> Func {
        let tu = parse_translation_unit(src, ParseOptions::c(), &NoMeta).unwrap();
        match &tu.items[0] {
            Item::Function(f) => Func {
                cfg: build_cfg(f),
                src,
            },
            other => panic!("{other:?}"),
        }
    }

    impl Func {
        /// Whether `n` is a statement node whose source text contains
        /// `needle`.
        fn has(&self, n: NodeId, needle: &str) -> bool {
            let span = self.cfg.span(n);
            self.cfg.kind(n) == NodeKind::Stmt
                && self.src[span.start as usize..span.end as usize].contains(needle)
        }

        fn node(&self, needle: &str) -> NodeId {
            self.cfg
                .nodes()
                .find(|&n| self.has(n, needle))
                .unwrap_or_else(|| panic!("no statement node reads {needle}"))
        }
    }

    fn gap(f: &Func, from: &str, to: &str, quant: Quant) -> Result<Vec<NodeId>, GapFailure> {
        let a = f.node(from);
        walk_gap(
            &f.cfg,
            f.cfg.succs(a),
            quant,
            &mut |n| f.has(n, to),
            &mut |_| true,
        )
    }

    #[test]
    fn straightline_gap_reaches() {
        let cfg = cfg_of("void f(void) { a(); mid(); b(); }");
        let hits = gap(&cfg, "a()", "b()", Quant::Forall).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn forall_fails_on_early_return_escape() {
        let cfg = cfg_of("void f(int x) { a(); if (x) return; b(); }");
        assert_eq!(
            gap(&cfg, "a()", "b()", Quant::Forall),
            Err(GapFailure::Escaped)
        );
        // The same gap holds existentially.
        assert_eq!(gap(&cfg, "a()", "b()", Quant::Exists).unwrap().len(), 1);
    }

    #[test]
    fn forall_holds_when_both_branches_hit() {
        let cfg = cfg_of("void f(int x) { a(); if (x) { b(); } else { b(); } done(); }");
        let hits = gap(&cfg, "a()", "b()", Quant::Forall).unwrap();
        assert_eq!(hits.len(), 2, "one hit per branch");
    }

    #[test]
    fn loop_is_cut_and_exit_path_checked() {
        // The zero-iteration path skips the loop body, so a hit that only
        // exists inside the body does not hold on all paths…
        let cfg = cfg_of("void f(int n) { a(); while (n) { b(); } }");
        assert_eq!(
            gap(&cfg, "a()", "b()", Quant::Forall),
            Err(GapFailure::Escaped)
        );
        // …but a hit after the loop does (back edges are cut, not
        // followed forever).
        let cfg2 = cfg_of("void f(int n) { a(); while (n) { step(); } b(); }");
        assert_eq!(gap(&cfg2, "a()", "b()", Quant::Forall).unwrap().len(), 1);
    }

    #[test]
    fn unclean_node_fails_forall_but_prunes_exists() {
        let f = cfg_of("void f(int x) { a(); if (x) { bad(); b(); } else { b(); } }");
        let starts = f.cfg.succs(f.node("a()"));
        let forbidden = f.node("bad()");
        let res = walk_gap(
            &f.cfg,
            starts,
            Quant::Forall,
            &mut |n| f.has(n, "b()"),
            &mut |n| n != forbidden,
        );
        assert_eq!(res, Err(GapFailure::Unclean(forbidden)));
        let res = walk_gap(
            &f.cfg,
            starts,
            Quant::Exists,
            &mut |n| f.has(n, "b()"),
            &mut |n| n != forbidden,
        );
        assert_eq!(res.unwrap().len(), 1, "else-branch path survives");
    }

    #[test]
    fn no_hit_anywhere() {
        let cfg = cfg_of("void f(void) { a(); mid(); }");
        assert_eq!(
            gap(&cfg, "a()", "b()", Quant::Exists),
            Err(GapFailure::NoHit)
        );
    }

    #[test]
    fn hits_do_not_leak_through() {
        // First-hit semantics: the path ends at the first satisfying
        // node; the second b() is a separate anchor site, not a hit of
        // this gap.
        let cfg = cfg_of("void f(void) { a(); b(); b(); }");
        let hits = gap(&cfg, "a()", "b()", Quant::Forall).unwrap();
        assert_eq!(hits.len(), 1);
    }
}
