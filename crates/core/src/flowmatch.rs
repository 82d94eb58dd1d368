//! CFG path matching for statement-dots patterns.
//!
//! The tree matcher reads `A ... B` as "a gap in a statement list",
//! which silently mis-handles control flow: it matches across an early
//! `return` (the dots swallow the `if (x) return;` even though one path
//! never reaches `B`) and refuses patterns whose `B` sits inside both
//! arms of a branch. The paper's semantics — and upstream Coccinelle's —
//! is **"along every control-flow path"**, a CTL obligation checked over
//! the function CFG.
//!
//! This module supplies that semantics. A rule body whose pattern is a
//! top-level statement sequence with dots is *lowered*
//! ([`lower_pattern`]) into alternating [`FlowStep::Anchor`] /
//! [`FlowStep::Gap`] steps. A [`FlowSearch`] then matches them per
//! function:
//!
//! 1. take the function's CFG (`cocci-flow`) from the text's
//!    [`CfgCache`], building it on first use;
//! 2. every CFG node whose statement tree-matches the first anchor seeds
//!    a match attempt — expression-level matching *is* the node
//!    predicate, so metavariables, isomorphisms and constraints all keep
//!    working;
//! 3. each gap is discharged with [`cocci_flow::walk_gap`] under its
//!    quantifier — [`Quant::Forall`] by default and for `when strict`
//!    (every path from the anchor must reach a node matching the next
//!    anchor; first-hit semantics, loops cut at their back edges,
//!    no `when != e` violation, no escape through the function exit),
//!    [`Quant::Exists`] for `when exists` (one such path suffices,
//!    escaping/unclean paths are merely pruned);
//! 4. the hits on the different paths are bound into **witnesses**:
//!    hits whose metavariable bindings agree share one witness (their
//!    environments reconcile at the join), while hits that bind a
//!    metavariable differently *fork* — each binding-compatible group
//!    becomes its own `(env, pairs)` witness, and every witness drives
//!    its own rewrite (upstream Coccinelle's per-path witness
//!    semantics). Sibling witnesses forked from one anchor attempt are
//!    deduplicated by their bound source spans and share a
//!    [`MatchState::witness_group`] id so downstream overlap claiming
//!    keeps them together.
//!
//! [`FlowSearch::find`] adds what it tried into the rule's
//! [`AttemptProbe`]: an anchor hit per attempt, and a gap kill or binding
//! kill per attempt that dies, classified by its first failure.
//!
//! Every function takes this route, whatever its size: the CFG has one
//! node per simple statement and branch, and each gap walk expands a node
//! at most once, so a long function costs linear time per anchor attempt
//! and never changes the reading of its dots.

use crate::env::Env;
use crate::explain::AttemptProbe;
use crate::matcher::{self, MatchCtx, MatchState, Pair, PairKind};
use cocci_cast::ast::*;
use cocci_cast::visit;
use cocci_flow::{build_cfg, walk_gap, Cfg, NodeId, NodeKind, Quant};
use cocci_source::Span;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cache of one text's built CFGs, keyed by function span. The graphs
/// depend only on the text — not on the rule being matched — so each
/// [`FileContext`](crate::FileContext) carries one of these and every
/// flow-routed rule run on that text reuses the same graphs instead of
/// rebuilding them.
#[derive(Debug, Default)]
pub struct CfgCache {
    map: HashMap<Span, Arc<Cfg>>,
    builds: usize,
    build_time: Duration,
}

impl CfgCache {
    /// The cached CFG for `f`, building (and counting a build) on first
    /// use.
    pub fn get_or_build(&mut self, f: &FunctionDef) -> Arc<Cfg> {
        self.map
            .entry(f.span)
            .or_insert_with(|| {
                self.builds += 1;
                let _span = cocci_trace::span(cocci_trace::Phase::CfgBuild);
                let t0 = Instant::now();
                let cfg = Arc::new(build_cfg(f));
                self.build_time += t0.elapsed();
                cfg
            })
            .clone()
    }

    /// How many CFGs were actually built (cache misses).
    pub fn builds(&self) -> usize {
        self.builds
    }

    /// Time spent building them.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }
}

/// Cap on the witnesses one anchor attempt may fork. Each gap can
/// multiply bindings, so a crafted file with wide branching at every
/// gap could otherwise explode the combination cross-product inside a
/// single rule — where the per-file timeout (checked at rule
/// boundaries) cannot interrupt it. Forall attempts over the cap
/// refuse conservatively (no match, never a wrong rewrite); exists
/// attempts truncate (each witness is independently sound).
pub const MAX_WITNESSES_PER_ATTEMPT: usize = 256;

/// What first killed the current anchor attempt, for kill-stage
/// attribution ([`crate::explain`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum KillClass {
    #[default]
    None,
    /// A gap walk failed: an escaped path, an unclean `when !=` node, or
    /// no path reaching the next anchor.
    Gap,
    /// Witness bindings failed to reconcile (merge failure or
    /// cross-product refusal at [`MAX_WITNESSES_PER_ATTEMPT`]).
    Binding,
}

/// One step of a lowered statement-dots pattern.
#[derive(Debug, Clone)]
pub enum FlowStep {
    /// A concrete statement pattern, matched at a single CFG node with
    /// the ordinary tree matcher (boxed: a `Stmt` dwarfs the gap
    /// variant, and steps are only walked, never bulk-stored).
    Anchor(Box<Stmt>),
    /// Statement dots: a quantified gap to the next anchor.
    Gap {
        /// `when != e` constraints — no skipped node may contain a
        /// match of any of these expressions.
        when_not: Vec<Expr>,
        /// Pattern span of the `...` token (anchors the dots pair).
        span: Span,
        /// Path quantifier: `Forall` for the default and `when strict`
        /// readings, `Exists` for `when exists`.
        quant: Quant,
    },
}

/// A statement-dots pattern lowered for CFG matching: anchors strictly
/// alternating with gaps, starting and ending on an anchor.
#[derive(Debug, Clone)]
pub struct FlowPattern {
    /// The alternating steps (`Anchor, Gap, Anchor, [Gap, Anchor]…`).
    pub steps: Vec<FlowStep>,
}

impl FlowPattern {
    /// Whether any gap quantifies over *all* paths (`Forall`). Sibling
    /// witnesses of such a pattern jointly discharge the all-paths
    /// obligation and must stand or fall together; a pure-`exists`
    /// pattern's witnesses are independent (each surviving path
    /// suffices on its own).
    pub fn has_forall_gap(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s, FlowStep::Gap { quant, .. } if *quant == Quant::Forall))
    }
}

/// Whether `s` is an anchor the CFG engine can match at a single node.
///
/// Only statements that lower to exactly one CFG node qualify; compound
/// statements (branches, loops, blocks, pattern groups) and statements
/// that may also match at the file top level (declarations, directives)
/// keep the tree route so no existing behaviour is lost.
fn is_simple_anchor(s: &Stmt) -> bool {
    matches!(
        s,
        Stmt::Expr { .. }
            | Stmt::Return { .. }
            | Stmt::Break { .. }
            | Stmt::Continue { .. }
            | Stmt::Goto { .. }
            | Stmt::Empty { .. }
    )
}

/// Lower a top-level statement sequence into a [`FlowPattern`].
///
/// Returns `None` when the pattern is not CFG-routable — no interior
/// dots, anchors the engine cannot pin to one node, guarded
/// leading/trailing dots — in which case the rule stays on the tree
/// matcher.
pub fn lower_pattern(pats: &[Stmt]) -> Option<FlowPattern> {
    // Leading/trailing unguarded dots are window padding under the tree
    // matcher's start-anywhere semantics; drop them. Guarded or
    // quantified ones carry constraints the lowering would lose —
    // refuse.
    let mut slice = pats;
    while let Some((
        Stmt::Dots {
            when_not, quant, ..
        },
        rest,
    )) = slice.split_first()
    {
        if !when_not.is_empty() || *quant != DotsQuant::Default {
            return None;
        }
        slice = rest;
    }
    while let Some((
        Stmt::Dots {
            when_not, quant, ..
        },
        rest,
    )) = slice.split_last()
    {
        if !when_not.is_empty() || *quant != DotsQuant::Default {
            return None;
        }
        slice = rest;
    }
    if slice.len() < 3 {
        return None; // need at least `A ... B`
    }
    let mut steps = Vec::with_capacity(slice.len());
    for (i, s) in slice.iter().enumerate() {
        let expect_anchor = i % 2 == 0;
        match s {
            Stmt::Dots {
                when_not,
                span,
                quant,
            } => {
                if expect_anchor {
                    return None; // consecutive dots
                }
                steps.push(FlowStep::Gap {
                    when_not: when_not.clone(),
                    span: *span,
                    quant: match quant {
                        DotsQuant::Exists => Quant::Exists,
                        DotsQuant::Default | DotsQuant::Strict => Quant::Forall,
                    },
                });
            }
            other => {
                if !expect_anchor || !is_simple_anchor(other) {
                    return None; // consecutive anchors or compound anchor
                }
                steps.push(FlowStep::Anchor(Box::new(other.clone())));
            }
        }
    }
    if slice.len().is_multiple_of(2) {
        return None; // must end on an anchor
    }
    Some(FlowPattern { steps })
}

/// A lowered pattern prepared against one translation unit: every
/// function's CFG and span→statement index looked up once, reusable
/// across seed environments (a rule inheriting metavariables runs once
/// per exported environment — the CFGs depend only on the text).
pub struct FlowSearch<'t> {
    fp: &'t FlowPattern,
    fns: Vec<FnData<'t>>,
    /// Next [`MatchState::witness_group`] id — unique across every
    /// `find` call on this search, so sibling witnesses of one anchor
    /// attempt stay grouped even when a rule runs under several seed
    /// environments.
    next_group: u32,
}

/// Per-function precomputed matching substrate.
struct FnData<'t> {
    cfg: Arc<Cfg>,
    by_span: HashMap<Span, &'t Stmt>,
}

impl<'t> FlowSearch<'t> {
    /// Prepare `fp` against `tu`. CFGs come from (and land in) the
    /// text's [`CfgCache`]: N rules applied to the same parse build each
    /// function's graph once instead of N times. The span index is
    /// rebuilt per search (it borrows this search's `tu`).
    pub fn with_cache(fp: &'t FlowPattern, tu: &'t TranslationUnit, cache: &mut CfgCache) -> Self {
        let mut fns = Vec::new();
        visit::walk_functions(tu, &mut |f| {
            let mut by_span = HashMap::new();
            for s in &f.body.stmts {
                visit::walk_stmt(s, &mut |st| {
                    by_span.insert(st.span(), st);
                });
            }
            fns.push(FnData {
                cfg: cache.get_or_build(f),
                by_span,
            });
        });
        FlowSearch {
            fp,
            fns,
            next_group: 1,
        }
    }

    /// All match witnesses across the prepared functions for one seed
    /// environment (an anchor attempt whose paths bind differently
    /// yields several sibling witnesses sharing a `witness_group`).
    /// Anchor hits, gap kills and binding kills add into `probe`.
    pub fn find(
        &mut self,
        ctx: &MatchCtx,
        seed: &Env,
        probe: &mut AttemptProbe,
    ) -> Vec<MatchState> {
        let mut out = Vec::new();
        for data in &self.fns {
            let m = FnMatcher {
                ctx,
                fp: self.fp,
                cfg: &data.cfg,
                by_span: &data.by_span,
                kill: Cell::new(KillClass::None),
            };
            m.run(seed, &mut self.next_group, probe, &mut out);
        }
        out
    }
}

/// Per-function matcher state: the CFG plus a span-indexed view of the
/// function's statements (CFG nodes carry spans, not AST pointers).
struct FnMatcher<'a> {
    ctx: &'a MatchCtx<'a>,
    fp: &'a FlowPattern,
    cfg: &'a Cfg,
    by_span: &'a HashMap<Span, &'a Stmt>,
    /// What first killed the current anchor attempt.
    kill: Cell<KillClass>,
}

impl<'a> FnMatcher<'a> {
    /// Record `class` as what killed the current attempt, unless an
    /// earlier failure inside it already did.
    fn classify(&self, class: KillClass) {
        if self.kill.get() == KillClass::None {
            self.kill.set(class);
        }
    }

    /// The source statement a CFG node stands for, when it stands for
    /// exactly one (entry/exit/join nodes stand for none, branch nodes
    /// for a compound construct anchors never pin). A `for` loop's init
    /// and step nodes stand for the loop.
    fn stmt_at(&self, n: NodeId) -> Option<&'a Stmt> {
        match self.cfg.kind(n) {
            NodeKind::Stmt | NodeKind::Directive | NodeKind::ForInit | NodeKind::ForStep => {
                self.by_span.get(&self.cfg.span(n)).copied()
            }
            _ => None,
        }
    }

    /// The expressions a node evaluates, for `when !=` scans: a simple
    /// statement contributes its whole expression tree, a branch node
    /// only its condition/scrutinee (the arms are separate nodes), and a
    /// `for` loop's init and step nodes only their own clause.
    fn violates_when(&self, n: NodeId, when_not: &[Expr], st: &MatchState) -> bool {
        let stmt = self.by_span.get(&self.cfg.span(n)).copied();
        match (self.cfg.kind(n), stmt) {
            (NodeKind::Stmt | NodeKind::Directive, Some(s)) => {
                matcher::when_not_hit(self.ctx, when_not, st, |f| visit::stmt_exprs(s, f))
            }
            (NodeKind::ForInit, Some(Stmt::For { init: Some(i), .. })) => {
                matcher::when_not_hit(self.ctx, when_not, st, |f| visit::for_init_exprs(i, f))
            }
            (NodeKind::ForStep, Some(Stmt::For { step: Some(e), .. }))
            | (NodeKind::Branch, Some(Stmt::For { cond: Some(e), .. }))
            | (NodeKind::Branch, Some(Stmt::If { cond: e, .. }))
            | (NodeKind::Branch, Some(Stmt::While { cond: e, .. }))
            | (NodeKind::Branch, Some(Stmt::DoWhile { cond: e, .. }))
            | (NodeKind::Branch, Some(Stmt::Switch { scrutinee: e, .. })) => {
                matcher::when_not_hit(self.ctx, when_not, st, |f| visit::walk_expr(e, f))
            }
            _ => false,
        }
    }

    /// Seed an attempt at every node matching the first anchor. An
    /// attempt that forks yields several sibling witnesses; they are
    /// deduplicated by bound source spans and stamped with a shared
    /// `witness_group` id.
    fn run(
        &self,
        seed: &Env,
        next_group: &mut u32,
        probe: &mut AttemptProbe,
        out: &mut Vec<MatchState>,
    ) {
        let FlowStep::Anchor(first) = &self.fp.steps[0] else {
            return;
        };
        for n in self.cfg.nodes() {
            let Some(s) = self.stmt_at(n) else { continue };
            let mut st = MatchState {
                env: seed.clone(),
                ..Default::default()
            };
            if !matcher::match_stmt(self.ctx, first, s, &mut st) {
                continue;
            }
            probe.anchors += 1;
            self.kill.set(KillClass::None);
            let mut witnesses = self.advance(1, n, st);
            if witnesses.is_empty() {
                // Classified by the first failure site inside the
                // attempt; an unclassified refusal is a gap death (the
                // advance either discharges a gap or reconciles
                // bindings — nothing else empties the witness set).
                match self.kill.get() {
                    KillClass::Binding => probe.binding_kills += 1,
                    _ => probe.gap_kills += 1,
                }
            }
            dedup_witnesses(&mut witnesses);
            // Every CFG witness gets its attempt's id — siblings share
            // it (downstream group handling), and a non-zero id is what
            // marks a match as a path witness at all (tree matches keep
            // 0).
            if !witnesses.is_empty() {
                if witnesses.len() > 1 {
                    // Siblings beyond the first are forked per-path
                    // witnesses — the telemetry for join-fork pressure.
                    cocci_trace::count(
                        cocci_trace::Counter::WitnessesForked,
                        (witnesses.len() - 1) as u64,
                    );
                }
                let id = *next_group;
                *next_group = id.wrapping_add(1).max(1);
                for w in &mut witnesses {
                    w.witness_group = id;
                }
            }
            out.extend(witnesses);
        }
    }

    /// Discharge steps `i..` starting from the anchor matched at `from`.
    /// Returns the completed witnesses — empty when the gap fails (a
    /// path escapes or violates a `when !=` under `Forall`, or no path
    /// reaches the next anchor), one witness when every hit binds
    /// consistently, several when paths bind a metavariable differently
    /// and the match forks.
    fn advance(&self, i: usize, from: NodeId, st: MatchState) -> Vec<MatchState> {
        if i >= self.fp.steps.len() {
            return vec![st];
        }
        let FlowStep::Gap {
            when_not,
            span,
            quant,
        } = &self.fp.steps[i]
        else {
            unreachable!("lowered steps alternate anchor/gap");
        };
        let FlowStep::Anchor(next) = &self.fp.steps[i + 1] else {
            unreachable!("lowered steps end on an anchor");
        };
        let Ok(mut hits) = walk_gap(
            self.cfg,
            self.cfg.succs(from),
            *quant,
            &mut |m| {
                self.stmt_at(m)
                    .map(|s| {
                        let mut probe = st.clone();
                        matcher::match_stmt(self.ctx, next, s, &mut probe)
                    })
                    .unwrap_or(false)
            },
            &mut |m| when_not.is_empty() || !self.violates_when(m, when_not, &st),
        ) else {
            self.classify(KillClass::Gap);
            return Vec::new();
        };
        // Deterministic source order for binding and rewriting.
        hits.sort_by_key(|&m| self.cfg.span(m).start);
        let from_end = self.stmt_at(from).map(|s| s.span().end).unwrap_or(0);
        // The dots pair spans the contiguous source region between the
        // anchor and the earliest hit *after* it. Hits that precede the
        // anchor in the source (loop back-edge hits) must not collapse
        // the span — they are unreachable by forward text anyway; with
        // no forward hit at all the region is genuinely empty.
        let dots_src = |hit_starts: &mut dyn Iterator<Item = u32>| -> Span {
            match hit_starts.filter(|&s| s >= from_end).min() {
                Some(s) => Span::new(from_end, s),
                None => Span::empty(from_end),
            }
        };

        if *quant == Quant::Exists {
            // Existential gap: each surviving path's hit is its own
            // witness — one succeeding path suffices, so a hit whose
            // continuation fails is dropped, not fatal. Truncating at
            // the witness cap is sound for the same reason.
            let mut out = Vec::new();
            for m in hits {
                if out.len() >= MAX_WITNESSES_PER_ATTEMPT {
                    break;
                }
                let Some(s) = self.stmt_at(m) else { continue };
                let mut w = st.clone();
                if !matcher::match_stmt(self.ctx, next, s, &mut w) {
                    continue;
                }
                w.pairs.push(Pair {
                    pat: *span,
                    src: dots_src(&mut std::iter::once(self.cfg.span(m).start)),
                    kind: PairKind::Dots,
                });
                out.extend(self.advance(i + 2, m, w));
            }
            out.truncate(MAX_WITNESSES_PER_ATTEMPT);
            return out;
        }

        // Forall gap: partition the hits into binding-compatible groups.
        // Hits whose bindings reconcile share one witness (the old
        // join-point reconciliation); a hit no existing group accepts
        // forks a fresh witness from the pre-gap state.
        let mut groups: Vec<(MatchState, Vec<NodeId>)> = Vec::new();
        'hits: for m in hits {
            let Some(s) = self.stmt_at(m) else {
                self.classify(KillClass::Gap);
                return Vec::new(); // sat only holds on statement nodes
            };
            for (gst, gh) in &mut groups {
                let mut attempt = gst.clone();
                if matcher::match_stmt(self.ctx, next, s, &mut attempt) {
                    *gst = attempt;
                    gh.push(m);
                    continue 'hits;
                }
            }
            let mut fresh = st.clone();
            if !matcher::match_stmt(self.ctx, next, s, &mut fresh) {
                // Unreachable (the sat predicate bound this hit from
                // `st`); refuse conservatively rather than drop a path.
                self.classify(KillClass::Gap);
                return Vec::new();
            }
            groups.push((fresh, vec![m]));
        }

        let mut out = Vec::new();
        for (mut gst, gh) in groups {
            gst.pairs.push(Pair {
                pat: *span,
                src: dots_src(&mut gh.iter().map(|&m| self.cfg.span(m).start)),
                kind: PairKind::Dots,
            });
            let base_pairs = gst.pairs.len();
            let base_choices = gst.choices.len();
            // The remaining steps must hold from every hit of the
            // group. Advance from each hit *independently* — a deeper
            // gap may fork per-path witnesses there, and binding one
            // hit's fork before walking the next would make the other
            // hit's alternative paths unreachable.
            let mut per_hit: Vec<Vec<MatchState>> = Vec::with_capacity(gh.len());
            for &m in &gh {
                let conts = self.advance(i + 2, m, gst.clone());
                if conts.is_empty() {
                    // Dead hit: real control-flow paths whose remaining
                    // obligation failed — under the all-paths reading
                    // the *whole* attempt refuses (dropping just this
                    // group would silently rewrite a subset of arms).
                    return Vec::new();
                }
                per_hit.push(conts);
            }
            // Combine one continuation per hit where the bindings
            // reconcile: each combined witness then covers every hit's
            // paths (the reconciled join, possibly several bindings).
            let mut combined = per_hit[0].clone();
            for conts in &per_hit[1..] {
                let mut next = Vec::new();
                for c in &combined {
                    for w in conts {
                        if let Some(m) = merge_witnesses(c, w, base_pairs, base_choices) {
                            next.push(m);
                        }
                    }
                    if next.len() > MAX_WITNESSES_PER_ATTEMPT {
                        // Cross-product blow-up on a pathological
                        // input: refuse the attempt (a forall witness
                        // subset cannot be soundly truncated).
                        self.classify(KillClass::Binding);
                        return Vec::new();
                    }
                }
                combined = next;
                if combined.is_empty() {
                    break;
                }
            }
            if !combined.is_empty() {
                out.extend(combined);
            } else {
                // No single binding covers every hit's continuation —
                // fork per hit instead: the sibling witnesses jointly
                // cover all paths (each hit's continuation on its own
                // arm).
                for conts in per_hit {
                    out.extend(conts);
                }
            }
            if out.len() > MAX_WITNESSES_PER_ATTEMPT {
                // Pathological fan-out: refuse the attempt (a forall
                // witness subset cannot be soundly truncated).
                self.classify(KillClass::Binding);
                return Vec::new();
            }
        }
        out
    }
}

/// Merge two witnesses that extend the same base state (`a` and `b`
/// each carry the base's pairs/choices as a prefix of the given
/// lengths). Fails when their metavariable bindings disagree.
fn merge_witnesses(
    a: &MatchState,
    b: &MatchState,
    base_pairs: usize,
    base_choices: usize,
) -> Option<MatchState> {
    let mut merged = a.clone();
    for (k, v) in b.env.iter() {
        match merged.env.get(k) {
            Some(existing) => {
                if !matcher::value_eq(existing, v) {
                    return None;
                }
            }
            None => merged.env.bind(k, v.clone()),
        }
    }
    merged
        .pairs
        .extend(b.pairs.iter().skip(base_pairs).cloned());
    merged
        .choices
        .extend(b.choices.iter().skip(base_choices).cloned());
    Some(merged)
}

/// Drop witnesses whose correspondence pairs cover exactly the same
/// pattern→source spans as an earlier sibling — forking can reach the
/// same rewrite through different binding orders, and duplicate
/// witnesses would double-count matches (their edits are already
/// idempotent).
fn dedup_witnesses(witnesses: &mut Vec<MatchState>) {
    if witnesses.len() < 2 {
        return;
    }
    let key = |w: &MatchState| -> Vec<(u32, u32, u32, u32)> {
        let mut k: Vec<(u32, u32, u32, u32)> = w
            .pairs
            .iter()
            .map(|p| (p.pat.start, p.pat.end, p.src.start, p.src.end))
            .collect();
        k.sort_unstable();
        k
    };
    let mut seen: Vec<Vec<(u32, u32, u32, u32)>> = Vec::new();
    witnesses.retain(|w| {
        let k = key(w);
        if seen.contains(&k) {
            false
        } else {
            seen.push(k);
            true
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::Metavars;
    use cocci_cast::parser::{
        parse_statements, parse_translation_unit, MetaKind, MetaLookup, NoMeta, ParseOptions,
    };
    use cocci_smpl::{MetaDecl, MetaDeclKind};
    use std::collections::HashMap as Map;

    struct DeclsLookup<'a>(&'a [MetaDecl]);
    impl MetaLookup for DeclsLookup<'_> {
        fn kind(&self, name: &str) -> Option<MetaKind> {
            self.0
                .iter()
                .find(|d| d.name == name)
                .map(|d| d.kind.parse_kind())
        }
    }

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

    fn lowered(pat: &str, ds: &[MetaDecl]) -> Option<FlowPattern> {
        let pats = parse_statements(pat, ParseOptions::pattern(), &DeclsLookup(ds)).unwrap();
        lower_pattern(&pats)
    }

    fn flow_match(pat: &str, src: &str, ds: Vec<MetaDecl>) -> Vec<MatchState> {
        let pats = parse_statements(pat, ParseOptions::pattern(), &DeclsLookup(&ds)).unwrap();
        let fp = lower_pattern(&pats).expect("pattern lowers");
        let tu = parse_translation_unit(src, ParseOptions::c(), &NoMeta).unwrap();
        let regexes = Map::new();
        let metavars = Metavars::new(&ds, &regexes);
        let ctx = MatchCtx::new("t.c", src, &metavars);
        FlowSearch::with_cache(&fp, &tu, &mut CfgCache::default()).find(
            &ctx,
            &Env::new(),
            &mut AttemptProbe::default(),
        )
    }

    #[test]
    fn lowering_accepts_simple_alternation() {
        let fp = lowered("a(); ... b();", &[]).unwrap();
        assert_eq!(fp.steps.len(), 3);
        assert!(matches!(fp.steps[1], FlowStep::Gap { .. }));
        let fp = lowered("a(); ... b(); ... return;", &[]).unwrap();
        assert_eq!(fp.steps.len(), 5);
    }

    #[test]
    fn lowering_refuses_non_routable_shapes() {
        // No interior dots.
        assert!(lowered("a(); b();", &[]).is_none());
        // Consecutive anchors around the dots.
        assert!(lowered("a(); b(); ... c();", &[]).is_none());
        // Compound anchor.
        assert!(lowered("a(); ... while (x) { b(); }", &[]).is_none());
        // Declarations keep the tree route (they can match top level).
        assert!(lowered("int x = 0; ... b();", &[]).is_none());
        // Statement metavariables keep the tree route too.
        let ds = decls(&[("A", MetaDeclKind::Statement)]);
        assert!(lowered("A ... b();", &ds).is_none());
        // Guarded leading dots would lose their constraint.
        assert!(lowered("... when != g() a(); ... b();", &[]).is_none());
        // Quantified leading dots would lose their quantifier too.
        assert!(lowered("... when exists a(); ... b();", &[]).is_none());
    }

    #[test]
    fn lowering_trims_window_padding_dots() {
        let fp = lowered("... a(); ... b(); ...", &[]).unwrap();
        assert_eq!(fp.steps.len(), 3);
    }

    #[test]
    fn all_paths_refuses_early_return() {
        let ms = flow_match(
            "a(); ... b();",
            "void f(int x) { a(); if (x) return; b(); }",
            vec![],
        );
        assert!(ms.is_empty(), "escaping path must kill the match");
    }

    #[test]
    fn cross_branch_hits_reconcile() {
        let ds = decls(&[("e", MetaDeclKind::Expression)]);
        let ms = flow_match(
            "a(); ... b(e);",
            "void f(int x) { a(); if (x) { b(1); } else { b(1); } done(); }",
            ds,
        );
        assert_eq!(ms.len(), 1);
        // Both hits recorded as pairs of the same pattern statement.
        let stmt_pairs = ms[0]
            .pairs
            .iter()
            .filter(|p| p.kind == PairKind::Stmt)
            .count();
        assert!(stmt_pairs >= 3, "anchor + two hits, got {stmt_pairs}");
    }

    #[test]
    fn inconsistent_bindings_fork_per_path_witnesses() {
        let ds = decls(&[("e", MetaDeclKind::Expression)]);
        let ms = flow_match(
            "a(); ... b(e);",
            "void f(int x) { a(); if (x) { b(1); } else { b(2); } done(); }",
            ds,
        );
        assert_eq!(ms.len(), 2, "one witness per binding of e");
        // Sibling witnesses share one non-zero group id, so downstream
        // overlap claiming keeps both.
        assert_ne!(ms[0].witness_group, 0);
        assert_eq!(ms[0].witness_group, ms[1].witness_group);
        // Each witness pairs the post-gap anchor with its own branch
        // site — that is what lets both arms rewrite.
        let own_site = |m: &MatchState| {
            m.pairs
                .iter()
                .filter(|p| p.kind == PairKind::Stmt)
                .map(|p| p.src)
                .max_by_key(|s| s.start)
                .unwrap()
        };
        assert_ne!(own_site(&ms[0]), own_site(&ms[1]));
    }

    #[test]
    fn forked_group_with_failed_continuation_refuses_whole_match() {
        // Gap 1 forks on e (b(1) vs b(2)); the e=2 group's continuation
        // then fails — the else path never reaches c(2). Those are real
        // paths with an unmet obligation, so under the all-paths reading
        // the whole attempt must refuse, not rewrite just the then arm.
        let ds = decls(&[("e", MetaDeclKind::Expression)]);
        let ms = flow_match(
            "a(); ... b(e); ... c(e);",
            "void f(int x) { a(); if (x) { b(1); c(1); } else { b(2); } done(); }",
            ds.clone(),
        );
        assert!(ms.is_empty(), "a dead forked group must kill the attempt");
        // When both groups complete, both witnesses survive.
        let ms = flow_match(
            "a(); ... b(e); ... c(e);",
            "void f(int x) { a(); if (x) { b(1); c(1); } else { b(2); c(2); } }",
            ds,
        );
        assert_eq!(ms.len(), 2, "both forked chains complete");
    }

    #[test]
    fn later_gap_forks_combine_across_reconciled_hits() {
        let ds = decls(&[("e", MetaDeclKind::Expression)]);
        // The first gap's two b() hits reconcile into one group; the
        // second gap then forks on e. Each binding must combine across
        // *both* b() hits (binding one hit's fork before walking the
        // other would make the alternative arm unreachable).
        let ms = flow_match(
            "a(); ... b(); ... c(e);",
            "void f(int x, int y) { a(); if (x) { b(); } else { b(); } if (y) { c(p); } else { c(q); } }",
            ds.clone(),
        );
        assert_eq!(ms.len(), 2, "e forks at the second gap, not refused");
        // When no single binding covers every hit's continuation, the
        // group forks per hit instead: one witness per arm.
        let ms = flow_match(
            "a(); ... b(); ... c(e);",
            "void f(int x) { a(); if (x) { b(); c(p); } else { b(); c(q); } }",
            ds,
        );
        assert_eq!(ms.len(), 2, "one witness per arm's continuation");
    }

    #[test]
    fn pre_bound_conflict_still_refuses() {
        // `e` is pinned at the first anchor, so the else arm's b(r) is
        // not a hit at all: that path escapes and kills the match — the
        // forking semantics only forks on *unbound* disagreement.
        let ds = decls(&[("e", MetaDeclKind::Expression)]);
        let ms = flow_match(
            "a(e); ... b(e);",
            "void f(int x) { a(p); if (x) { b(p); } else { b(r); } }",
            ds,
        );
        assert!(ms.is_empty(), "the b(r) path never reaches a hit");
    }

    #[test]
    fn exists_dots_allow_escaping_paths() {
        let fp = lowered("a(); ... when exists b();", &[]).unwrap();
        let FlowStep::Gap { quant, .. } = &fp.steps[1] else {
            panic!("step 1 is the gap");
        };
        assert_eq!(*quant, Quant::Exists);
        let src = "void f(int x) { a(); if (x) return; b(); }";
        let ms = flow_match("a(); ... when exists b();", src, vec![]);
        assert_eq!(ms.len(), 1, "some path reaches b()");
        // The default all-paths reading refuses the very same gap.
        let ms = flow_match("a(); ... b();", src, vec![]);
        assert!(ms.is_empty());
    }

    #[test]
    fn strict_dots_spell_the_default_all_paths_reading() {
        let fp = lowered("a(); ... when strict b();", &[]).unwrap();
        let FlowStep::Gap { quant, .. } = &fp.steps[1] else {
            panic!("step 1 is the gap");
        };
        assert_eq!(*quant, Quant::Forall);
        let ms = flow_match(
            "a(); ... when strict b();",
            "void f(int x) { a(); if (x) return; b(); }",
            vec![],
        );
        assert!(ms.is_empty(), "strict refuses the escaping path");
    }

    #[test]
    fn exists_forks_one_witness_per_surviving_path() {
        let ds = decls(&[("e", MetaDeclKind::Expression)]);
        let ms = flow_match(
            "a(); ... when exists b(e);",
            "void f(int x) { a(); if (x) { b(1); } else { b(2); } }",
            ds,
        );
        assert_eq!(ms.len(), 2, "each surviving path is its own witness");
        assert_ne!(ms[0].witness_group, 0);
        assert_eq!(ms[0].witness_group, ms[1].witness_group);
    }

    #[test]
    fn long_function_gets_the_short_function_answer() {
        // Function size never changes what dots mean: 12,000 padding
        // statements give the same answer as 100 under every quantifier,
        // with and without a path that returns early.
        let func = |escape: &str, pads: usize| {
            let mut body = format!("a(); {escape}");
            for i in 0..pads {
                body.push_str(&format!("f{}(); ", i % 7));
            }
            format!("void f(int x) {{ {body}b(); }}")
        };
        for (escape, want) in [("if (x) return; ", [0, 0, 1]), ("", [1, 1, 1])] {
            for (pattern, want) in [
                "a(); ... b();",
                "a(); ... when strict b();",
                "a(); ... when exists b();",
            ]
            .into_iter()
            .zip(want)
            {
                let short = flow_match(pattern, &func(escape, 100), vec![]).len();
                let long = flow_match(pattern, &func(escape, 12_000), vec![]).len();
                assert_eq!((short, long), (want, want), "{pattern} after {escape:?}");
            }
        }
    }

    #[test]
    fn back_edge_hits_keep_the_forward_dots_region() {
        // The do-while body's b() is reached through the loop back edge
        // and *precedes* the anchor in the source; the post-loop b() is
        // the forward hit. The dots span must cover the forward region
        // (anchor end → forward hit), not collapse to empty because the
        // back-edge hit's offset is smaller.
        let src = "void f(int n) { do { b(); a(); } while (n); b(); }";
        let ms = flow_match("a(); ... b();", src, vec![]);
        assert_eq!(ms.len(), 1);
        let dots: Vec<_> = ms[0]
            .pairs
            .iter()
            .filter(|p| p.kind == PairKind::Dots)
            .collect();
        assert_eq!(dots.len(), 1);
        let d = dots[0].src;
        assert!(!d.is_empty(), "back-edge hit collapsed the dots span");
        let text = &src[d.start as usize..d.end as usize];
        assert!(
            text.contains("while (n)"),
            "span covers the loop tail: {text:?}"
        );
    }

    #[test]
    fn when_not_checks_skipped_nodes_and_branch_conditions() {
        // Violation inside a skipped simple statement.
        let ms = flow_match(
            "a(); ... when != g() b();",
            "void f(void) { a(); g(); b(); }",
            vec![],
        );
        assert!(ms.is_empty());
        // Violation inside a skipped branch condition.
        let ms = flow_match(
            "a(); ... when != g() b();",
            "void f(int x) { a(); if (g()) { x = 1; } b(); }",
            vec![],
        );
        assert!(ms.is_empty());
        // Clean gap matches.
        let ms = flow_match(
            "a(); ... when != g() b();",
            "void f(void) { a(); mid(); b(); }",
            vec![],
        );
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn when_not_skips_a_for_body_the_path_never_enters() {
        // Every path from a() hits a b() before the loop body's g(): the
        // loop's init and step nodes must not count the body against
        // the gap.
        let ms = flow_match(
            "a(); ... when != g() b();",
            "void f(int n) { int i; a(); for (i = 0; i < n; i++) { b(); g(); } b(); }",
            vec![],
        );
        assert_eq!(ms.len(), 1);
        // A `for` header still counts.
        let ms = flow_match(
            "a(); ... when != g() b();",
            "void f(int n) { int i; a(); for (i = g(); i < n; i++) { s(); } b(); }",
            vec![],
        );
        assert!(ms.is_empty());
    }

    #[test]
    fn when_not_checks_each_for_clause_at_its_own_node() {
        // Every path from a() reaches a b() before the step `i = g()`
        // runs, so only the init and condition are on the gap.
        let pat = "a(); ... when != g() b();";
        let ms = flow_match(
            pat,
            "void f(int n) { int i; a(); for (i = 0; i < n; i = g()) { b(); } b(); }",
            vec![],
        );
        assert_eq!(ms.len(), 1);
        // The init and the condition run before any b().
        for header in ["i = g(); i < n; i++", "i = 0; g(); i++"] {
            let src = format!("void f(int n) {{ int i; a(); for ({header}) {{ b(); }} b(); }}");
            assert!(flow_match(pat, &src, vec![]).is_empty(), "{header}");
        }
        // A step the gap walks through counts: the path to the b() after
        // the loop runs the body, then the step.
        let ms = flow_match(
            pat,
            "void f(int n) { int i; for (i = 0; i < n; i = g()) { a(); } b(); }",
            vec![],
        );
        assert!(ms.is_empty());
    }

    #[test]
    fn loop_body_hit_fails_zero_iteration_path() {
        let ms = flow_match(
            "a(); ... b();",
            "void f(int n) { a(); while (n) { b(); } }",
            vec![],
        );
        assert!(ms.is_empty(), "zero-iteration path escapes without b()");
        let ms = flow_match(
            "a(); ... b();",
            "void f(int n) { a(); while (n) { step(); } b(); }",
            vec![],
        );
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn three_anchor_chain() {
        let ms = flow_match(
            "a(); ... b(); ... c();",
            "void f(int x) { a(); if (x) { b(); } else { b(); } c(); }",
            vec![],
        );
        assert_eq!(ms.len(), 1);
        let ms = flow_match(
            "a(); ... b(); ... c();",
            "void f(int x) { a(); if (x) { b(); c(); } else { b(); } done(); }",
            vec![],
        );
        assert!(ms.is_empty(), "else-branch b() never reaches c()");
    }
}
