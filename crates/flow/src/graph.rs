//! CFG data structure.

use cocci_source::Span;

/// Index of a node in a [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a CFG node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Synthetic function entry.
    Entry,
    /// Synthetic function exit.
    Exit,
    /// A simple statement (expression, declaration, return, …).
    Stmt,
    /// A branching construct's decision point (`if`, `while`, `for`
    /// condition, `switch` scrutinee).
    Branch,
    /// A pragma or other directive in statement position.
    Directive,
    /// A no-op join point inserted for structure (loop headers after the
    /// body, if-joins).
    Join,
}

/// An intra-procedural control-flow graph: each node's kind, source
/// span and successors, which is all that matching reads.
#[derive(Debug, Clone)]
pub struct Cfg {
    kinds: Vec<NodeKind>,
    spans: Vec<Span>,
    succs: Vec<Vec<NodeId>>,
    entry: NodeId,
    exit: NodeId,
}

impl Cfg {
    /// Create a graph containing only entry and exit nodes.
    pub(crate) fn new() -> Self {
        let mut g = Cfg {
            kinds: Vec::new(),
            spans: Vec::new(),
            succs: Vec::new(),
            entry: NodeId(0),
            exit: NodeId(0),
        };
        g.entry = g.add(NodeKind::Entry, Span::SYNTHETIC);
        g.exit = g.add(NodeKind::Exit, Span::SYNTHETIC);
        g
    }

    pub(crate) fn add(&mut self, kind: NodeKind, span: Span) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.spans.push(span);
        self.succs.push(Vec::new());
        id
    }

    pub(crate) fn edge(&mut self, from: NodeId, to: NodeId) {
        let succs = &mut self.succs[from.index()];
        if !succs.contains(&to) {
            succs.push(to);
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the graph has only entry/exit.
    pub fn is_empty(&self) -> bool {
        self.kinds.len() <= 2
    }

    /// Entry node.
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// Exit node.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// Iterate all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// Kind of `n`.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    /// Source span of `n`.
    pub fn span(&self, n: NodeId) -> Span {
        self.spans[n.index()]
    }

    /// Successors of `n`, each once, in the order their edges were added.
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.succs[n.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_graph_edges() {
        let mut g = Cfg::new();
        let a = g.add(NodeKind::Stmt, Span::SYNTHETIC);
        let b = g.add(NodeKind::Stmt, Span::SYNTHETIC);
        g.edge(g.entry(), a);
        g.edge(a, b);
        g.edge(b, g.exit());
        assert_eq!(g.succs(a), &[b]);
        assert_eq!(g.succs(b), &[g.exit()]);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = Cfg::new();
        let a = g.add(NodeKind::Stmt, Span::SYNTHETIC);
        g.edge(g.entry(), a);
        g.edge(g.entry(), a);
        assert_eq!(g.succs(g.entry()).len(), 1);
    }
}
