//! `cocci-flow`: intra-procedural control-flow graphs and path walks.
//!
//! A semantic patch is "applied taking into account … the control flow of
//! the target programming language" (paper, §1). This crate provides the
//! control-flow substrate: CFG construction from a
//! [`FunctionDef`](cocci_cast::FunctionDef), where each node keeps its
//! kind, source span and successors, and the path layer: [`walk_gap`] is
//! the CTL-ish core `cocci-core`'s `flowmatch` module uses to give
//! statement dots their faithful "along every control-flow path"
//! semantics.

mod build;
mod graph;
mod path;

pub use build::build_cfg;
pub use graph::{Cfg, NodeId, NodeKind};
pub use path::{walk_gap, GapFailure, Quant};

#[cfg(test)]
mod tests {
    use super::*;
    use cocci_cast::parser::{parse_translation_unit, NoMeta, ParseOptions};
    use cocci_cast::Item;

    fn cfg_of(src: &str) -> Cfg {
        let tu = parse_translation_unit(src, ParseOptions::c(), &NoMeta).unwrap();
        match &tu.items[0] {
            Item::Function(f) => build_cfg(f),
            other => panic!("{other:?}"),
        }
    }

    /// Nodes reachable from the entry: a gap walk that never hits but
    /// records every node it visits.
    fn reachable(cfg: &Cfg) -> Vec<bool> {
        let mut seen = vec![false; cfg.len()];
        let res = walk_gap(
            cfg,
            &[cfg.entry()],
            Quant::Exists,
            &mut |n| {
                seen[n.index()] = true;
                false
            },
            &mut |_| true,
        );
        assert_eq!(res, Err(GapFailure::NoHit));
        seen
    }

    /// Edges a depth-first walk from the entry finds closing back onto
    /// its own path: one per loop in the structured graphs the builder
    /// makes.
    fn back_edges(cfg: &Cfg) -> usize {
        fn dfs(cfg: &Cfg, n: NodeId, on_path: &mut [Option<bool>]) -> usize {
            on_path[n.index()] = Some(true);
            let mut count = 0;
            for &s in cfg.succs(n) {
                match on_path[s.index()] {
                    None => count += dfs(cfg, s, on_path),
                    Some(true) => count += 1,
                    Some(false) => {}
                }
            }
            on_path[n.index()] = Some(false);
            count
        }
        dfs(cfg, cfg.entry(), &mut vec![None; cfg.len()])
    }

    #[test]
    fn straightline_cfg() {
        let cfg = cfg_of("void f(void) { a(); b(); c(); }");
        // entry -> a -> b -> c -> exit
        assert!(cfg.len() >= 5);
        assert!(reachable(&cfg).iter().all(|&r| r));
        assert_eq!(back_edges(&cfg), 0);
    }

    #[test]
    fn if_join() {
        let cfg = cfg_of("void f(int x) { if (x) a(); else b(); c(); }");
        // the `if` node has two successors
        let cond = cfg
            .nodes()
            .find(|&n| matches!(cfg.kind(n), NodeKind::Branch))
            .unwrap();
        assert_eq!(cfg.succs(cond).len(), 2);
        assert_eq!(back_edges(&cfg), 0);
    }

    #[test]
    fn while_loop_detected() {
        let cfg = cfg_of("void f(int n) { int i = 0; while (i < n) { i++; } done(); }");
        assert_eq!(back_edges(&cfg), 1);
    }

    #[test]
    fn for_loop_detected() {
        let cfg = cfg_of("void f(int n) { for (int i = 0; i < n; ++i) { work(i); } }");
        assert_eq!(back_edges(&cfg), 1);
    }

    #[test]
    fn nested_loops() {
        let cfg = cfg_of(
            "void f(int n) { for (int i = 0; i < n; ++i) { for (int j = 0; j < n; ++j) { w(i, j); } } }",
        );
        assert_eq!(back_edges(&cfg), 2);
    }

    #[test]
    fn break_exits_loop() {
        let src = "void f(int n) { while (1) { if (n) break; g(); } h(); }";
        let cfg = cfg_of(src);
        let reach = reachable(&cfg);
        // h() must be reachable through the break edge.
        let h_reachable = cfg.nodes().any(|n| {
            let span = cfg.span(n);
            reach[n.index()]
                && cfg.kind(n) == NodeKind::Stmt
                && src[span.start as usize..span.end as usize].contains("h()")
        });
        assert!(h_reachable);
    }

    #[test]
    fn do_while_loops_once_minimum() {
        let cfg = cfg_of("void f(int n) { do { g(); } while (n); }");
        assert_eq!(back_edges(&cfg), 1);
    }

    #[test]
    fn goto_and_labels() {
        let cfg = cfg_of("void f(int n) { start: if (n) goto start; end(); }");
        assert_eq!(back_edges(&cfg), 1);
    }

    #[test]
    fn continue_edge() {
        let cfg =
            cfg_of("void f(int n) { for (int i = 0; i < n; ++i) { if (i % 2) continue; g(i); } }");
        assert_eq!(back_edges(&cfg), 1);
        assert!(reachable(&cfg).iter().all(|&r| r));
    }

    #[test]
    fn return_goes_to_exit() {
        let cfg = cfg_of("int f(int n) { if (n) return 1; return 0; }");
        // Exit has at least two predecessors (both returns).
        let preds = cfg
            .nodes()
            .filter(|&n| cfg.succs(n).contains(&cfg.exit()))
            .count();
        assert!(preds >= 2);
    }

    #[test]
    fn switch_fanout() {
        let cfg = cfg_of(
            "void f(int n) { switch (n) { case 0: a(); break; case 1: b(); break; default: c(); } d(); }",
        );
        let sw = cfg
            .nodes()
            .find(|&n| matches!(cfg.kind(n), NodeKind::Branch))
            .unwrap();
        assert!(cfg.succs(sw).len() >= 3);
    }
}
