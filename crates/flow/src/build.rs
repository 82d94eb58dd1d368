//! CFG construction from a function AST.

use crate::graph::{Cfg, NodeId, NodeKind};
use cocci_cast::ast::*;
use cocci_source::{Span, Symbol};
use std::collections::HashMap;

/// Build the control-flow graph of a function body.
pub fn build_cfg(f: &FunctionDef) -> Cfg {
    let mut b = Builder {
        g: Cfg::new(),
        break_targets: Vec::new(),
        continue_targets: Vec::new(),
        labels: HashMap::new(),
        pending_gotos: Vec::new(),
    };
    let entry = b.g.entry();
    let exit = b.g.exit();
    let after = b.stmts(&f.body.stmts, entry);
    b.connect(after, exit);
    // Resolve forward gotos; an unknown label falls to the exit so the
    // graph stays connected.
    for (from, label) in std::mem::take(&mut b.pending_gotos) {
        let target = b.labels.get(&label).copied().unwrap_or(exit);
        b.g.edge(from, target);
    }
    b.g
}

struct Builder {
    g: Cfg,
    break_targets: Vec<NodeId>,
    continue_targets: Vec<NodeId>,
    labels: HashMap<Symbol, NodeId>,
    pending_gotos: Vec<(NodeId, Symbol)>,
}

/// The "current frontier": the node control flows out of, or `None` when
/// flow has terminated (after return/break/continue/goto).
type Frontier = Option<NodeId>;

impl Builder {
    fn connect(&mut self, from: Frontier, to: NodeId) {
        if let Some(f) = from {
            self.g.edge(f, to);
        }
    }

    /// Add a node reached from `pred`.
    fn node(&mut self, kind: NodeKind, span: Span, pred: NodeId) -> NodeId {
        let n = self.g.add(kind, span);
        self.g.edge(pred, n);
        n
    }

    fn stmts(&mut self, stmts: &[Stmt], mut cur: NodeId) -> Frontier {
        let mut frontier = Some(cur);
        for s in stmts {
            if frontier.is_none() {
                // Dead code after a jump: still build nodes (labels may
                // revive flow) starting from nowhere.
                cur = self.g.add(NodeKind::Join, s.span());
            }
            frontier = self.stmt(s, cur);
            if let Some(f) = frontier {
                cur = f;
            }
        }
        frontier
    }

    /// A loop body entered from `from`, where `break` leaves to `brk` and
    /// `continue` goes to `cont`.
    fn loop_body(&mut self, body: &Stmt, from: NodeId, brk: NodeId, cont: NodeId) -> Frontier {
        self.break_targets.push(brk);
        self.continue_targets.push(cont);
        let end = self.stmt(body, from);
        self.break_targets.pop();
        self.continue_targets.pop();
        end
    }

    /// Add `s` to the graph, reached from `pred`. Returns the new
    /// frontier.
    fn stmt(&mut self, s: &Stmt, pred: NodeId) -> Frontier {
        match s {
            Stmt::Expr { .. }
            | Stmt::Decl(_)
            | Stmt::Empty { .. }
            | Stmt::Dots { .. }
            | Stmt::MetaStmt { .. }
            | Stmt::MetaStmtList { .. }
            | Stmt::PatGroup { .. } => Some(self.node(NodeKind::Stmt, s.span(), pred)),
            Stmt::Directive(d) => Some(self.node(NodeKind::Directive, d.span, pred)),
            Stmt::Block(b) => self.stmts(&b.stmts, pred),
            Stmt::If {
                then_branch,
                else_branch,
                span,
                ..
            } => {
                let c = self.node(NodeKind::Branch, *span, pred);
                let join = self.g.add(NodeKind::Join, *span);
                let t_end = self.stmt(then_branch, c);
                self.connect(t_end, join);
                let e_end = match else_branch {
                    Some(e) => self.stmt(e, c),
                    None => Some(c),
                };
                self.connect(e_end, join);
                Some(join)
            }
            Stmt::While { body, span, .. } | Stmt::RangeFor { body, span, .. } => {
                let header = self.node(NodeKind::Branch, *span, pred);
                let exit = self.g.add(NodeKind::Join, *span);
                self.g.edge(header, exit);
                let b_end = self.loop_body(body, header, exit, header);
                self.connect(b_end, header);
                Some(exit)
            }
            Stmt::DoWhile { body, span, .. } => {
                let exit = self.g.add(NodeKind::Join, *span);
                let check = self.g.add(NodeKind::Branch, *span);
                // Body entered unconditionally.
                let body_entry = self.node(NodeKind::Join, *span, pred);
                let b_end = self.loop_body(body, body_entry, exit, check);
                self.connect(b_end, check);
                self.g.edge(check, body_entry);
                self.g.edge(check, exit);
                Some(exit)
            }
            Stmt::For {
                init,
                cond,
                body,
                span,
                ..
            } => {
                let cur = match init {
                    Some(_) => self.node(NodeKind::ForInit, *span, pred),
                    None => pred,
                };
                let header = self.node(NodeKind::Branch, *span, cur);
                let exit = self.g.add(NodeKind::Join, *span);
                if cond.is_some() {
                    self.g.edge(header, exit);
                }
                let step = self.g.add(NodeKind::ForStep, *span);
                let b_end = self.loop_body(body, header, exit, step);
                self.connect(b_end, step);
                self.g.edge(step, header);
                Some(exit)
            }
            Stmt::Return { span, .. } => {
                let n = self.node(NodeKind::Stmt, *span, pred);
                let exit = self.g.exit();
                self.g.edge(n, exit);
                None
            }
            Stmt::Break { span } => {
                let n = self.node(NodeKind::Stmt, *span, pred);
                if let Some(&t) = self.break_targets.last() {
                    self.g.edge(n, t);
                }
                None
            }
            Stmt::Continue { span } => {
                let n = self.node(NodeKind::Stmt, *span, pred);
                if let Some(&t) = self.continue_targets.last() {
                    self.g.edge(n, t);
                }
                None
            }
            Stmt::Goto { label, span } => {
                let n = self.node(NodeKind::Stmt, *span, pred);
                self.pending_gotos.push((n, label.name));
                None
            }
            Stmt::Label { label, stmt, span } => {
                let n = self.node(NodeKind::Join, *span, pred);
                self.labels.insert(label.name, n);
                self.stmt(stmt, n)
            }
            Stmt::Switch { body, span, .. } => {
                let sw = self.node(NodeKind::Branch, *span, pred);
                let exit = self.g.add(NodeKind::Join, *span);
                self.break_targets.push(exit);
                // Flatten the switch body: each `case` gets an edge from
                // the switch head; fallthrough connects consecutive cases.
                let mut frontier: Frontier = None;
                let mut has_default = false;
                if let Stmt::Block(b) = body.as_ref() {
                    for s in &b.stmts {
                        if let Stmt::Case { value, stmt, span } = s {
                            has_default |= value.is_none();
                            let c = self.node(NodeKind::Join, *span, sw);
                            self.connect(frontier, c);
                            frontier = self.stmt(stmt, c);
                        } else if let Some(f) = frontier {
                            frontier = self.stmt(s, f);
                        }
                    }
                } else {
                    frontier = self.stmt(body, sw);
                }
                self.connect(frontier, exit);
                if !has_default {
                    self.g.edge(sw, exit);
                }
                self.break_targets.pop();
                Some(exit)
            }
            Stmt::Case { stmt, span, .. } => {
                // Case outside a switch body (unusual); treat as label.
                let n = self.node(NodeKind::Join, *span, pred);
                self.stmt(stmt, n)
            }
        }
    }
}
