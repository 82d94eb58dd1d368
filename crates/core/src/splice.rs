//! Reparse only what a rule rewrote.
//!
//! A transform rule's edits touch a statement or two per function, yet
//! every later rule needs a tree of the whole new text. [`splice`] builds
//! that tree from the previous text's. For each edit it finds the
//! smallest run of adjacent list elements that overlap or touch it:
//! statements of the innermost enclosing block, or items at top level or
//! inside a `namespace`/`extern` block. It parses each run's new text in
//! place, splices the result into the old tree, and moves the spans of
//! every other node by the edits' length changes. The identifier and
//! typedef tables follow the same way.
//!
//! A run's text reaches from the end of the element before it (or the
//! list's opening brace) to the start of the element after it (or the
//! list's closing brace), so every edit lies inside some run's text and
//! the tokens around a run are untouched. The result equals a full parse
//! of the new text, or there is none and the caller parses in full:
//! - when a run's old or new text holds `typedef`, since the typedefs
//!   declared before an offset decide how the text after it parses;
//! - when a run does not lex and parse to exactly its own extent: a
//!   comment, literal or directive that would run past its end, or an
//!   `else` that lost its `if`;
//! - when a run would start at a `namespace`'s opening brace that a
//!   comment hides from the backward scan for it.
//!
//! The element before a run is never a directive: a directive runs to
//! the end of its line, so an edit on that line would extend it, and the
//! run takes the directive in. Debug builds check every splice against a
//! full parse of the new text: the tree with its spans, the identifier
//! table and the typedef table.

use cocci_cast::ast::{Block, Item, Stmt, TranslationUnit};
use cocci_cast::parser::{
    parse_items_at, parse_stmts_at, parse_with_tables, Lang, NoMeta, ParseOptions, UnitParse,
};
use cocci_cast::shift::shift_item;
use cocci_source::{Span, Symbol};
use std::sync::Arc;

/// What a rewritten text's context takes over from the text before it.
pub(crate) struct Prior {
    /// The dialect the old tree was parsed in.
    pub(crate) lang: Lang,
    /// The old text.
    pub(crate) text: Arc<str>,
    /// The old text's tree, identifier table and typedef table.
    pub(crate) tu: Arc<TranslationUnit>,
    pub(crate) idents: Arc<Vec<(Symbol, u32)>>,
    pub(crate) typedefs: Arc<Vec<(Symbol, u32)>>,
    /// The edits that made the new text: each one's old span and the
    /// length of its replacement, in any order.
    pub(crate) edits: Vec<(Span, u32)>,
}

/// The parse of `text`, which `prior.edits` made from the text `prior`
/// describes, built from `prior`'s parse; `None` when some run declines
/// (see the module docs). The old tree is cloned only while another
/// holder shares it.
pub(crate) fn splice(mut prior: Prior, text: &str) -> Option<UnitParse> {
    prior
        .edits
        .sort_unstable_by_key(|(span, _)| (span.start, span.end));
    let old = &*prior.text;
    let mut planner = Planner {
        old,
        runs: Vec::new(),
        path: Vec::new(),
    };
    let items = List::Items(&prior.tu.items);
    planner.plan(items, Some(0), old.len() as u32, &prior.edits)?;
    let mut runs = planner.runs;
    runs.sort_unstable_by_key(|r| r.old.start);
    debug_assert!(runs.windows(2).all(|w| w[0].old.end <= w[1].old.start));

    // Each run's new text, parsed in place.
    let mut shift = 0i64;
    let mut nodes = Vec::with_capacity(runs.len());
    let mut idents = Vec::with_capacity(runs.len());
    // The unit starts at its first token, which may precede its first
    // item's span (`extern "C"` before a declaration). Tokens before the
    // first run keep their offsets; a run that starts the text brings
    // its own first token, or when it kept none, leaves the first
    // element after it in front.
    let mut first_token = Some(prior.tu.span.start);
    for r in &runs {
        let new = Span::new(
            (r.old.start as i64 + shift) as u32,
            (r.old.end as i64 + shift + r.delta) as u32,
        );
        shift += r.delta;
        let new_text = text.get(new.start as usize..new.end as usize)?;
        if old[r.old.start as usize..r.old.end as usize].contains("typedef")
            || new_text.contains("typedef")
        {
            return None;
        }
        let typedefs = prior
            .typedefs
            .iter()
            .filter(|&&(_, at)| at <= r.old.start)
            .map(|&(name, _)| name);
        let (run_nodes, run_idents, first) = if r.items {
            let f = parse_items_at(text, new, typedefs, prior.lang).ok()?;
            (Nodes::Items(f.nodes), f.idents, f.first)
        } else {
            let f = parse_stmts_at(text, new, typedefs, prior.lang).ok()?;
            (Nodes::Stmts(f.nodes), f.idents, f.first)
        };
        if r.old.start == 0 {
            first_token = first;
        }
        nodes.push(run_nodes);
        idents.push(run_idents);
    }
    if old.len() as i64 + shift != text.len() as i64 {
        debug_assert!(false, "the runs' length changes miss an edit");
        return None;
    }

    // Every offset at or past a run's old end moves by the length
    // changes of the runs up to it.
    let ends: Vec<u32> = runs.iter().map(|r| r.old.end).collect();
    let moved: Vec<i64> = std::iter::once(0)
        .chain(runs.iter().scan(0, |d, r| {
            *d += r.delta;
            Some(*d)
        }))
        .collect();
    let at = |off: u32| ends.partition_point(|&end| end <= off);
    let remap = |off: u32| (off as i64 + moved[at(off)]) as u32;

    let mut tu = Arc::try_unwrap(prior.tu).unwrap_or_else(|shared| (*shared).clone());
    for item in &mut tu.items {
        let span = item.span();
        let (first, last) = (at(span.start), at(span.end));
        if first != last {
            shift_item(item, &remap);
        } else if moved[first] != 0 {
            let d = moved[first];
            shift_item(item, &|off| (off as i64 + d) as u32);
        }
    }
    for (r, run_nodes) in runs.iter().zip(nodes).rev() {
        match (list_mut(&mut tu.items, &r.path), run_nodes) {
            (ListMut::Items(v), Nodes::Items(new)) => drop(v.splice(r.lo..r.hi, new)),
            (ListMut::Stmts(v), Nodes::Stmts(new)) => drop(v.splice(r.lo..r.hi, new)),
            _ => unreachable!("a run's nodes are of its list's kind"),
        }
    }
    let len = text.len() as u32;
    let start = first_token.unwrap_or_else(|| tu.items.first().map_or(len, |i| i.span().start));
    tu.span = Span::new(start, len);

    let old_idents = &prior.idents;
    let mut all = Vec::with_capacity(old_idents.len() + idents.iter().map(Vec::len).sum::<usize>());
    let (mut from, mut d) = (0, 0i64);
    for (r, run_idents) in runs.iter().zip(idents) {
        let upto = old_idents.partition_point(|&(_, at)| at < r.old.start);
        all.extend(
            old_idents[from..upto]
                .iter()
                .map(|&(s, at)| (s, (at as i64 + d) as u32)),
        );
        all.extend(run_idents);
        from = old_idents.partition_point(|&(_, at)| at < r.old.end);
        d += r.delta;
    }
    all.extend(
        old_idents[from..]
            .iter()
            .map(|&(s, at)| (s, (at as i64 + d) as u32)),
    );
    let typedefs = prior
        .typedefs
        .iter()
        .map(|&(name, at)| (name, remap(at)))
        .collect();
    let unit = UnitParse {
        tu,
        idents: all,
        typedefs,
    };
    if cfg!(debug_assertions) {
        assert_same_as_full_parse(text, prior.lang, &unit);
    }
    Some(unit)
}

/// Panic unless `unit` equals a full parse of `text`: the tree with its
/// spans, the identifier table and the typedef table.
pub(crate) fn assert_same_as_full_parse(text: &str, lang: Lang, unit: &UnitParse) {
    let opts = ParseOptions {
        pattern: false,
        lang,
    };
    let full = parse_with_tables(text, opts, &NoMeta)
        .unwrap_or_else(|e| panic!("a splice parsed a text that the full parse rejects: {e}"));
    let (got, want) = (format!("{:?}", unit.tu), format!("{:?}", full.tu));
    if got != want {
        let at = got
            .bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()));
        let around = |s: &str| {
            let b = s.as_bytes();
            String::from_utf8_lossy(&b[at.saturating_sub(300)..(at + 300).min(b.len())])
                .into_owned()
        };
        panic!(
            "the spliced tree differs from the full parse at byte {at} of its Debug form\n\
             spliced: {}\n   full: {}",
            around(&got),
            around(&want)
        );
    }
    assert_eq!(unit.idents, full.idents, "the spliced identifier table");
    assert_eq!(unit.typedefs, full.typedefs, "the spliced typedef table");
}

/// One run of list elements to parse again.
struct Run {
    /// Steps from the translation unit's items to the run's list: an
    /// element index, then which of that element's lists.
    path: Vec<(u32, u32)>,
    /// Whether the list holds items (else statements).
    items: bool,
    /// The run's elements, `lo..hi` of the old list.
    lo: usize,
    hi: usize,
    /// The old text the run's new text replaces.
    old: Span,
    /// New length minus old length.
    delta: i64,
}

/// A run's parsed nodes.
enum Nodes {
    Items(Vec<Item>),
    Stmts(Vec<Stmt>),
}

/// A list of the old tree.
#[derive(Clone, Copy)]
enum List<'t> {
    Items(&'t [Item]),
    Stmts(&'t [Stmt]),
}

/// A list of the tree being spliced.
enum ListMut<'t> {
    Items(&'t mut Vec<Item>),
    Stmts(&'t mut Vec<Stmt>),
}

/// An inner list of an element: the list, its opening offset (just past
/// its `{`, when known) and its end (its `}`).
type Inner<'t> = (List<'t>, Option<u32>, u32);

impl<'t> List<'t> {
    fn len(self) -> usize {
        match self {
            List::Items(v) => v.len(),
            List::Stmts(v) => v.len(),
        }
    }

    fn span(self, k: usize) -> Span {
        match self {
            List::Items(v) => v[k].span(),
            List::Stmts(v) => v[k].span(),
        }
    }

    fn is_directive(self, k: usize) -> bool {
        match self {
            List::Items(v) => matches!(v[k], Item::Directive(_)),
            List::Stmts(v) => matches!(v[k], Stmt::Directive(_)),
        }
    }

    /// The lists directly inside element `k`, in source order.
    fn inner(self, k: usize, old: &str) -> Vec<Inner<'t>> {
        let block = |b: &'t Block| {
            (
                List::Stmts(&b.stmts),
                Some(b.span.start + 1),
                b.span.end - 1,
            )
        };
        match self {
            List::Items(v) => match &v[k] {
                Item::Function(f) => vec![block(&f.body)],
                Item::Namespace { items, span, .. } | Item::ExternBlock { items, span } => {
                    vec![(
                        List::Items(items),
                        open_brace(old, items, *span),
                        span.end - 1,
                    )]
                }
                Item::Directive(_) | Item::Decl(_) => Vec::new(),
            },
            List::Stmts(v) => {
                let mut blocks = Vec::new();
                stmt_blocks(&v[k], &mut blocks);
                blocks.into_iter().map(block).collect()
            }
        }
    }
}

/// The offset just past a `namespace` or `extern` block's `{`, found by
/// scanning back over whitespace from its first item (or its `}`);
/// `None` when something else, a comment say, comes first.
fn open_brace(old: &str, items: &[Item], span: Span) -> Option<u32> {
    let before = items.first().map_or(span.end - 1, |i| i.span().start) as usize;
    let head = &old.as_bytes()[span.start as usize..before];
    let brace = head.iter().rposition(|b| !b.is_ascii_whitespace())?;
    (head[brace] == b'{').then_some(span.start + brace as u32 + 1)
}

/// The blocks whose statements form the lists directly below `s`: `s`
/// itself when it is a block, else the blocks that its sub-statements
/// reach without passing through another list, in source order.
fn stmt_blocks<'t>(s: &'t Stmt, out: &mut Vec<&'t Block>) {
    match s {
        Stmt::Block(b) => out.push(b),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            stmt_blocks(then_branch, out);
            if let Some(e) = else_branch {
                stmt_blocks(e, out);
            }
        }
        Stmt::While { body, .. }
        | Stmt::DoWhile { body, .. }
        | Stmt::For { body, .. }
        | Stmt::RangeFor { body, .. }
        | Stmt::Switch { body, .. }
        | Stmt::Label { stmt: body, .. }
        | Stmt::Case { stmt: body, .. } => stmt_blocks(body, out),
        _ => {}
    }
}

/// [`stmt_blocks`] over a tree being spliced.
fn stmt_blocks_mut<'t>(s: &'t mut Stmt, out: &mut Vec<&'t mut Block>) {
    match s {
        Stmt::Block(b) => out.push(b),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            stmt_blocks_mut(then_branch, out);
            if let Some(e) = else_branch {
                stmt_blocks_mut(e, out);
            }
        }
        Stmt::While { body, .. }
        | Stmt::DoWhile { body, .. }
        | Stmt::For { body, .. }
        | Stmt::RangeFor { body, .. }
        | Stmt::Switch { body, .. }
        | Stmt::Label { stmt: body, .. }
        | Stmt::Case { stmt: body, .. } => stmt_blocks_mut(body, out),
        _ => {}
    }
}

/// The list at `path` below `items`.
fn list_mut<'t>(items: &'t mut Vec<Item>, path: &[(u32, u32)]) -> ListMut<'t> {
    let mut list = ListMut::Items(items);
    for &(k, c) in path {
        list = match list {
            ListMut::Items(v) => match &mut v[k as usize] {
                Item::Function(f) => ListMut::Stmts(&mut f.body.stmts),
                Item::Namespace { items, .. } | Item::ExternBlock { items, .. } => {
                    ListMut::Items(items)
                }
                Item::Directive(_) | Item::Decl(_) => unreachable!("a path steps into a list"),
            },
            ListMut::Stmts(v) => {
                let mut blocks = Vec::new();
                stmt_blocks_mut(&mut v[k as usize], &mut blocks);
                ListMut::Stmts(&mut blocks.swap_remove(c as usize).stmts)
            }
        };
    }
    list
}

/// The first index in `0..n` where `pred` turns false (`pred` holds on a
/// prefix).
fn partition(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Finds the runs, list by list from the top.
struct Planner<'a> {
    old: &'a str,
    runs: Vec<Run>,
    /// The path to the list being planned.
    path: Vec<(u32, u32)>,
}

impl Planner<'_> {
    /// Plan the runs for `edits`, which all lie within `list`'s bounds
    /// (`open`, when known, to `close`), sorted.
    fn plan(
        &mut self,
        list: List<'_>,
        open: Option<u32>,
        close: u32,
        edits: &[(Span, u32)],
    ) -> Option<()> {
        let n = list.len();
        // Element ranges edits touch at this level, and edits that lie
        // inside one list of one element: (element, list, edit range).
        let mut level: Vec<(usize, usize)> = Vec::new();
        let mut deeper: Vec<(usize, usize, usize, usize)> = Vec::new();
        for (x, &(edit, _)) in edits.iter().enumerate() {
            let lo = partition(n, |k| list.span(k).end < edit.start);
            let hi = partition(n, |k| list.span(k).start <= edit.end);
            if hi == lo + 1 {
                let el = list.span(lo);
                if el.start < edit.start && edit.end < el.end {
                    let inside = list
                        .inner(lo, self.old)
                        .iter()
                        .position(|&(_, open, close)| {
                            open.unwrap_or(el.start + 1) <= edit.start && edit.end <= close
                        });
                    if let Some(c) = inside {
                        match deeper.last_mut() {
                            Some(g) if (g.0, g.1) == (lo, c) => g.3 = x + 1,
                            _ => deeper.push((lo, c, x, x + 1)),
                        }
                        continue;
                    }
                }
            }
            level.push((lo, hi));
        }
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for (mut lo, hi) in level {
            if lo > 0 && list.is_directive(lo - 1) {
                lo -= 1;
            }
            match runs.last_mut() {
                Some(last) if lo <= last.1 => *last = (last.0.min(lo), last.1.max(hi)),
                _ => runs.push((lo, hi)),
            }
        }
        for (k, c, from, to) in deeper {
            if runs.iter().any(|&(lo, hi)| lo <= k && k < hi) {
                continue;
            }
            let (inner, open, close) = list.inner(k, self.old)[c];
            self.path.push((k as u32, c as u32));
            self.plan(inner, open, close, &edits[from..to])?;
            self.path.pop();
        }
        for (lo, hi) in runs {
            let start = if lo == 0 {
                open?
            } else {
                list.span(lo - 1).end
            };
            let end = if hi == n { close } else { list.span(hi).start };
            // Every edit that starts inside the run's text lies inside
            // it: the others lie inside elements outside the run.
            let first = edits.partition_point(|(e, _)| e.start < start);
            let last = edits.partition_point(|(e, _)| e.start <= end);
            let delta = edits[first..last]
                .iter()
                .map(|&(e, len)| len as i64 - e.len() as i64)
                .sum();
            self.runs.push(Run {
                path: self.path.clone(),
                items: matches!(list, List::Items(_)),
                lo,
                hi,
                old: Span::new(start, end),
                delta,
            });
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edits::EditSet;
    use cocci_cast::lexer::{lex, LexMode};
    use cocci_cast::token::{Punct, Token, TokenKind};
    use cocci_workloads::gen::{branchy_codebase, cuda_codebase, omp_codebase, CodebaseSpec};
    use cocci_workloads::rng::SplitMix64;

    /// Declarations, a namespace, an `extern "C"` block, directives,
    /// labels and a `switch` around generated code.
    fn framed(code: &str) -> String {
        let head = r#"#include <stdio.h>
typedef double real_t;
extern "C" {
int ext_call(int);
}
/* a comment before the code */
"#;
        let tail = r#"namespace ns {
void inner(real_t a) {
    real_t b = a;
    switch (n) {
    case 1:
        g(b);
        break;
    default:
        do { b = b - 1; } while (b > 0);
    }
#pragma omp barrier
out: g(a); // a trailing comment
}
}
"#;
        format!("{head}{code}{tail}")
    }

    /// Splice the parse of `old` after `edits`; a splice is checked
    /// against a full parse of the new text.
    fn spliced(old: &str, edits: &EditSet, lang: Lang) -> Option<UnitParse> {
        let opts = ParseOptions {
            pattern: false,
            lang,
        };
        let full = parse_with_tables(old, opts, &NoMeta).unwrap();
        let new = edits.apply(old).unwrap();
        let prior = Prior {
            lang,
            text: old.into(),
            tu: Arc::new(full.tu),
            idents: Arc::new(full.idents),
            typedefs: Arc::new(full.typedefs),
            edits: edits.changes(),
        };
        let unit = splice(prior, &new)?;
        assert_same_as_full_parse(&new, lang, &unit);
        Some(unit)
    }

    fn edit(old: &str, at: &str, len: usize, text: &str) -> EditSet {
        let start = old
            .find(at)
            .unwrap_or_else(|| panic!("{at:?} not in the text")) as u32;
        let mut edits = EditSet::new();
        edits.replace(Span::new(start, start + len as u32), text);
        edits
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Replace,
        Insert,
        Delete,
        Comment,
        Directive,
    }

    const OPS: [Op; 5] = [
        Op::Replace,
        Op::Insert,
        Op::Delete,
        Op::Comment,
        Op::Directive,
    ];

    fn ends_statement(t: &Token) -> bool {
        matches!(
            t.kind,
            TokenKind::Punct(Punct::Semi | Punct::LBrace | Punct::RBrace)
        )
    }

    /// One random edit of `op`'s kind at token boundaries of `old`.
    fn random_edit(
        rng: &mut SplitMix64,
        old: &str,
        toks: &[Token],
        op: Op,
    ) -> (Span, &'static str) {
        let mut pick = |pred: &dyn Fn(&Token) -> bool| {
            let hits: Vec<usize> = (0..toks.len()).filter(|&i| pred(&toks[i])).collect();
            hits[rng.gen_range(0..hits.len())]
        };
        let one_of =
            |rng: &mut SplitMix64, texts: &[&'static str]| texts[rng.gen_range(0..texts.len())];
        match op {
            Op::Replace => {
                let i = pick(&|t| matches!(t.kind, TokenKind::Ident | TokenKind::IntLit));
                (toks[i].span, one_of(rng, &["alpha", "beta2", "q", "7"]))
            }
            Op::Insert => {
                let i = pick(&ends_statement);
                let text = [
                    "\n    probe(2);",
                    "\n    int ins_v = 1;",
                    " { g(3); }",
                    "\nint glob_v;",
                ];
                (Span::empty(toks[i].span.end), one_of(rng, &text))
            }
            Op::Delete => {
                let j = pick(&|t| t.is(Punct::Semi));
                let from = (0..j).rev().find(|&k| ends_statement(&toks[k]));
                let from = from.map_or(0, |k| toks[k].span.end);
                (Span::new(from, toks[j].span.end), "")
            }
            Op::Comment => {
                let i = pick(&|t| t.kind != TokenKind::Eof);
                (
                    Span::empty(toks[i].span.end),
                    one_of(rng, &[" /* c */", " // c\n"]),
                )
            }
            Op::Directive => {
                let i =
                    pick(&|t| ends_statement(t) && old[t.span.end as usize..].starts_with('\n'));
                (Span::empty(toks[i].span.end + 1), "#pragma omp simd\n")
            }
        }
    }

    #[test]
    fn splices_of_random_edits_equal_full_parses() {
        let spec = CodebaseSpec {
            files: 2,
            functions_per_file: 4,
            seed: 0x5EED,
        };
        let mut files: Vec<(String, Lang)> = Vec::new();
        for f in cuda_codebase(&spec) {
            // A first item whose span starts past the unit's first token.
            let lead = "extern \"C\" int lead(int);\n";
            files.push((format!("{lead}{}", framed(&f.text)), Lang::Cpp));
        }
        for f in branchy_codebase(&spec)
            .into_iter()
            .chain(omp_codebase(&spec))
        {
            files.push((framed(&f.text), Lang::C));
        }
        let mut rng = SplitMix64::seed_from_u64(0x5911CE);
        let (mut by_op, mut top, mut nested, mut declined) = ([0usize; 5], 0, 0, 0);
        for case in 0..600 {
            let (old, lang) = &files[case % files.len()];
            let toks = lex(old, LexMode::C).unwrap();
            // The brace depth at each token's start.
            let depth: Vec<usize> = toks
                .iter()
                .scan(0usize, |d, t| {
                    let here = *d;
                    match t.kind {
                        TokenKind::Punct(Punct::LBrace) => *d += 1,
                        TokenKind::Punct(Punct::RBrace) => *d -= 1,
                        _ => {}
                    }
                    Some(here)
                })
                .collect();
            let mut edits = EditSet::new();
            let mut made = Vec::new();
            for _ in 0..rng.gen_range(1..4) {
                let op = OPS[rng.gen_range(0..OPS.len())];
                let (span, text) = random_edit(&mut rng, old, &toks, op);
                edits.replace(span, text);
                made.push((op, span));
            }
            if edits.apply(old).is_err() {
                continue;
            }
            if spliced(old, &edits, *lang).is_none() {
                declined += 1;
                continue;
            }
            for (op, span) in made {
                by_op[op as usize] += 1;
                let at = toks.partition_point(|t| t.span.end <= span.start);
                match depth[at.min(depth.len() - 1)] {
                    0 => top += 1,
                    1 => {}
                    _ => nested += 1,
                }
            }
        }
        // Every kind of edit spliced, at top level and in nested blocks,
        // and most cases did.
        assert!(by_op.iter().all(|&n| n > 0), "{by_op:?}");
        assert!(top > 0 && nested > 0, "top {top}, nested {nested}");
        assert!(declined < 300, "{declined} of 600 declined");
    }

    #[test]
    fn edits_that_touch_a_typedef_fall_back() {
        let spec = CodebaseSpec {
            files: 1,
            functions_per_file: 3,
            seed: 7,
        };
        let old = framed(&branchy_codebase(&spec)[0].text);
        let typedef = "typedef double real_t;";
        let insert = format!("typedef int tdx_t;\n{typedef}");
        for edits in [
            // Rename, delete and add a typedef.
            edit(&old, "real_t;", 6, "real_u"),
            edit(&old, typedef, typedef.len() + 1, ""),
            edit(&old, typedef, typedef.len(), &insert),
            edit(&old, "buf[0] = buf[0]", 0, "typedef int tdy_t;\n    "),
        ] {
            assert!(spliced(&old, &edits, Lang::C).is_none(), "{edits:?}");
        }
        // An edit next to a typedef but not in it splices.
        let after = edit(&old, "extern \"C\"", 0, "int after_td;\n");
        assert!(spliced(&old, &after, Lang::C).is_some());
    }

    #[test]
    fn runs_that_would_not_lex_or_parse_alone_fall_back() {
        let old = "void f(int x) {\n    a(); b();\n    if (x) c(); else d();\n}\n";
        // A line comment that would swallow the next statement.
        assert!(spliced(old, &edit(old, "a();", 0, "// "), Lang::C).is_none());
        // An unterminated block comment, a string running past the run.
        assert!(spliced(old, &edit(old, "a();", 0, "/* "), Lang::C).is_none());
        // An `else` that lost its `if` (the full parse fails too).
        let lost = edit(old, "if (x) c(); ", "if (x) c(); ".len(), "");
        assert!(spliced(old, &lost, Lang::C).is_none());
        assert!(lost.apply(old).is_ok_and(|new| parse_with_tables(
            &new,
            ParseOptions::c(),
            &NoMeta
        )
        .is_err()));
        // Edits inside one statement of a block, or between statements,
        // splice.
        assert!(spliced(old, &edit(old, "b", 1, "bb"), Lang::C).is_some());
        assert!(spliced(old, &edit(old, " b();", 0, "\n    z();"), Lang::C).is_some());
        assert!(spliced(old, &edit(old, "}\n", 0, "e();\n"), Lang::C).is_some());
    }

    #[test]
    fn the_unit_starts_at_its_first_token() {
        // `extern "C"` opens the first item, whose span starts after it.
        let old = "extern \"C\" int f(int);\n\nvoid g(void) {\n    a();\n}\n";
        let decl = "extern \"C\" int f(int);";
        for (edits, start) in [
            // An edit past the first item, and one inside it.
            (edit(old, "a()", 1, "b"), 0),
            (edit(old, "f(int)", 1, "ff"), 0),
            // The first item goes, and the next one leads.
            (edit(old, decl, decl.len(), ""), 2),
            (edit(old, decl, decl.len(), "/* gone */"), 12),
        ] {
            let unit = spliced(old, &edits, Lang::Cpp).unwrap_or_else(|| panic!("{edits:?}"));
            assert_eq!(unit.tu.span.start, start, "{edits:?}");
        }
    }

    #[test]
    fn an_edit_on_a_directive_line_takes_the_directive_in() {
        let old = "void f(void) {\n#pragma omp simd   \n    a();\n}\n";
        let at = old.find("   \n").unwrap() + 3;
        let mut edits = EditSet::new();
        edits.insert(at as u32, " x");
        let unit = spliced(old, &edits, Lang::C).unwrap();
        let Item::Function(f) = &unit.tu.items[0] else {
            panic!("{:?}", unit.tu)
        };
        let Stmt::Directive(d) = &f.body.stmts[0] else {
            panic!("{:?}", f.body)
        };
        assert_eq!(d.raw, "#pragma omp simd    x");
    }
}
