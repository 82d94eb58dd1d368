//! Edit generation: from a match and the rule body's `-`/`+` annotations
//! to concrete span edits on the target file.
//!
//! The rewrite walks the pattern recursively, consulting the per-line
//! annotations of the rule body ([`cocci_smpl::RuleBody`]) and the
//! correspondence pairs recorded by the matcher:
//!
//! * a pattern element whose tokens are all on `-` lines **deletes** its
//!   paired source span (expanded to whole lines when that leaves the line
//!   blank);
//! * a mixed element is **re-rendered**: the element's body lines are
//!   emitted skipping `-` lines, with metavariables replaced by their
//!   bindings (sliced from the original source, so unchanged inner code
//!   keeps its formatting) and `...` replaced by the source text its dots
//!   matched; the result replaces the paired source span.
//!   Structured statements recurse instead when the edits are confined to
//!   a header or a block body, keeping diffs minimal;
//! * `+` line groups anchored *between* pattern elements are insertions
//!   at the corresponding list position, indented like their context.

use crate::edits::{expand_to_full_lines, line_indent, line_start, next_line_start, EditSet};
use crate::matcher::{MatchState, PairKind};
use cocci_cast::ast::*;
use cocci_cast::token::{Punct, TokenKind};
use cocci_smpl::{Annot, PlusGroup, RuleBody};
use cocci_source::Span;

/// Generate edits for one match of a rule.
pub fn emit_edits(
    body: &RuleBody,
    st: &MatchState,
    src: &str,
    edits: &mut EditSet,
) -> Result<(), String> {
    let rw = Rewriter { body, st, src };
    match &body.pattern {
        cocci_smpl::Pattern::Expr(e) => rw.rewrite_expr_root(e, edits),
        cocci_smpl::Pattern::Stmts(stmts) => rw.rewrite_stmt_list(stmts, None, edits),
        cocci_smpl::Pattern::Items(items) => rw.rewrite_item_list(items, edits),
    }
}

struct Rewriter<'a> {
    body: &'a RuleBody,
    st: &'a MatchState,
    src: &'a str,
}

impl<'a> Rewriter<'a> {
    // ---- queries ----

    fn has_edits(&self, span: Span) -> bool {
        self.body.span_has_minus(span) || self.body.span_has_interior_plus(span)
    }

    fn all_minus(&self, span: Span) -> bool {
        self.body.span_all_minus(span)
    }

    /// Line range (inclusive lo, inclusive hi) covering `span`.
    fn line_range(&self, span: Span) -> (usize, usize) {
        (
            self.body.line_of_offset(span.start),
            self.body.line_of_offset(span.end.saturating_sub(1)),
        )
    }

    // ---- rendering ----

    /// Render body lines `[lo..=hi]`, skipping `-` lines, substituting
    /// metavariables and dots; join with spaces (intra-statement) or
    /// newlines.
    fn render_lines(&self, lo: usize, hi: usize, newline_join: bool) -> String {
        let mut parts = Vec::new();
        for idx in lo..=hi.min(self.body.lines.len() - 1) {
            let line = &self.body.lines[idx];
            if line.annot == Annot::Minus {
                continue;
            }
            let text = self.substitute_line(idx);
            let trimmed = text.trim();
            if !trimmed.is_empty() {
                parts.push(trimmed.to_string());
            }
        }
        if newline_join {
            return parts.join("\n");
        }
        // Space-join fragments, except where a space would split a
        // postfix form (`nf` + `(...)` must render `nf(...)`).
        let mut out = String::new();
        for p in parts {
            let no_space = out.is_empty()
                || out.ends_with('(')
                || out.ends_with('[')
                || matches!(
                    p.as_bytes().first(),
                    Some(b'(' | b')' | b'[' | b']' | b',' | b';')
                );
            if !no_space {
                out.push(' ');
            }
            out.push_str(&p);
        }
        out
    }

    /// Render a `+` group as full lines with the given indentation.
    fn render_group(&self, group: &PlusGroup, indent: &str) -> String {
        let mut out = String::new();
        for idx in group.lines.0..group.lines.1 {
            let text = self.substitute_line(idx);
            let trimmed = text.trim_end();
            let trimmed = trimmed.trim_start();
            out.push_str(indent);
            out.push_str(trimmed);
            out.push('\n');
        }
        out
    }

    /// Render one body line with metavariable / dots substitution.
    fn substitute_line(&self, idx: usize) -> String {
        let line = &self.body.lines[idx];
        let mut out = String::new();
        let base = line.start;
        let mut cursor = 0usize; // offset within line.text
        let mut skip_ident_after_at = false;
        let mut last_was_empty_subst = false;
        for (ti, tok) in line.tokens.iter().enumerate() {
            let rel_start = (tok.span.start - base) as usize;
            let rel_end = (tok.span.end - base) as usize;
            // Copy inter-token text.
            if rel_start > cursor {
                out.push_str(&line.text[cursor..rel_start]);
            }
            cursor = rel_end;
            let text = &line.text[rel_start..rel_end];
            if skip_ident_after_at && tok.kind == TokenKind::Ident {
                skip_ident_after_at = false;
                continue;
            }
            match tok.kind {
                TokenKind::Punct(Punct::At) => {
                    // `expr@pos` position annotations are pattern-only:
                    // drop the `@` and the following identifier.
                    if line
                        .tokens
                        .get(ti + 1)
                        .map(|t| t.kind == TokenKind::Ident)
                        .unwrap_or(false)
                    {
                        skip_ident_after_at = true;
                    }
                }
                TokenKind::Ident => {
                    if let Some(v) = self.st.env.get(text) {
                        out.push_str(&v.render(self.src));
                    } else {
                        out.push_str(text);
                    }
                    last_was_empty_subst = false;
                }
                TokenKind::Punct(Punct::Ellipsis) => {
                    let replacement = self.dots_text(tok.span);
                    if replacement.is_empty() {
                        last_was_empty_subst = true;
                    } else {
                        out.push_str(&replacement);
                        last_was_empty_subst = false;
                    }
                }
                TokenKind::Punct(Punct::Comma) if last_was_empty_subst => {
                    // `f(..., x)` with empty dots: swallow the comma.
                    last_was_empty_subst = false;
                }
                TokenKind::Directive => {
                    out.push_str(&self.substitute_words(text));
                    last_was_empty_subst = false;
                }
                _ => {
                    out.push_str(text);
                    last_was_empty_subst = false;
                }
            }
        }
        if cursor < line.text.len() {
            out.push_str(&line.text[cursor..]);
        }
        out
    }

    /// Word-level metavariable substitution inside directive text
    /// (`#pragma omp po` → `#pragma omp kernels copy(a)`).
    fn substitute_words(&self, text: &str) -> String {
        let mut out = String::new();
        let bytes = text.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i];
            if c == b'_' || c.is_ascii_alphabetic() {
                let start = i;
                while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                let word = &text[start..i];
                match self.st.env.get(word) {
                    Some(v) => out.push_str(&v.render(self.src)),
                    None => out.push_str(word),
                }
            } else {
                out.push(c as char);
                i += 1;
            }
        }
        out
    }

    /// The source text matched by the dots at pattern span `span`.
    fn dots_text(&self, span: Span) -> String {
        for p in &self.st.pairs {
            if p.kind == PairKind::Dots && p.pat == span {
                if p.src.is_synthetic() || p.src.is_empty() {
                    return String::new();
                }
                return self.src[p.src.start as usize..p.src.end as usize].to_string();
            }
        }
        "...".to_string()
    }

    /// Distinct source spans paired with `pat_span`, in pair order. CFG
    /// path matches can pair one pattern statement with several source
    /// sites (a hit on each branch of a join); tree matches pair one.
    fn distinct_srcs(&self, pat_span: Span) -> Vec<Span> {
        let mut out: Vec<Span> = Vec::new();
        for s in self.st.srcs_for(pat_span) {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    /// Replace every source span paired with pattern span `pat_span` by
    /// the re-rendered element (all paired sites get the same
    /// replacement — they matched under one shared environment).
    fn replace_element(
        &self,
        pat_span: Span,
        newline_join: bool,
        edits: &mut EditSet,
    ) -> Result<(), String> {
        let srcs = self.distinct_srcs(pat_span);
        if srcs.is_empty() {
            return Err(format!(
                "no source correspondence for pattern span {pat_span}"
            ));
        }
        let (lo, hi) = self.line_range(pat_span);
        let replacement = self.render_lines(lo, hi, newline_join);
        for src_span in srcs {
            edits.replace(src_span, replacement.clone());
        }
        Ok(())
    }

    // ---- expression root ----

    fn rewrite_expr_root(&self, e: &Expr, edits: &mut EditSet) -> Result<(), String> {
        if !self.has_edits(Span::new(0, self.body.raw.len() as u32))
            && self.body.plus_groups.is_empty()
        {
            return Ok(());
        }
        let src_span = self
            .st
            .src_for(e.span())
            .ok_or_else(|| "expression pattern without root pair".to_string())?;
        if self.all_minus(e.span()) && self.body.plus_groups.is_empty() {
            edits.delete(expand_to_full_lines(self.src, src_span));
            return Ok(());
        }
        let replacement = self.render_lines(0, self.body.lines.len() - 1, false);
        edits.replace(src_span, replacement);
        Ok(())
    }

    // ---- statement lists ----

    /// Rewrite a pattern statement list. `enclosing` is the pattern block
    /// span when the list is a block body (used to claim plus groups).
    fn rewrite_stmt_list(
        &self,
        stmts: &[Stmt],
        enclosing: Option<Span>,
        edits: &mut EditSet,
    ) -> Result<(), String> {
        let spans: Vec<Span> = stmts.iter().map(|s| s.span()).collect();
        self.rewrite_element_list(
            &spans,
            enclosing,
            edits,
            &mut |i, edits| self.rewrite_stmt(&stmts[i], edits),
            &mut |i| {
                // Dots / statement-list metavariables are never deletable
                // elements themselves.
                !matches!(stmts[i], Stmt::Dots { .. } | Stmt::MetaStmtList { .. })
            },
        )
    }

    /// Shared list-rewrite algorithm for statement and item lists.
    ///
    /// 1. Plus groups adjacent to an all-minus element become in-place
    ///    *replacements* of that element (keeps one-line files intact);
    /// 2. remaining all-minus elements are deleted (expanded to blank
    ///    lines);
    /// 3. mixed elements recurse;
    /// 4. remaining plus groups are line-based gap insertions.
    fn rewrite_element_list(
        &self,
        spans: &[Span],
        enclosing: Option<Span>,
        edits: &mut EditSet,
        rewrite_child: &mut dyn FnMut(usize, &mut EditSet) -> Result<(), String>,
        deletable: &mut dyn FnMut(usize) -> bool,
    ) -> Result<(), String> {
        let region = enclosing.unwrap_or(Span::new(0, self.body.raw.len() as u32));
        let in_region = |g: &PlusGroup| g.anchor >= region.start && g.anchor <= region.end;
        let inside_child = |g: &PlusGroup| {
            spans
                .iter()
                .any(|sp| g.anchor > sp.start && g.anchor < sp.end)
        };

        let is_replacement_target =
            |i: usize| self.all_minus(spans[i]) && !self.body.span_has_interior_plus(spans[i]);

        // Pass A: pair groups with adjacent all-minus elements.
        let mut replaced_elems: Vec<usize> = Vec::new();
        let mut claimed_groups: Vec<usize> = Vec::new();
        for (gi, g) in self.body.plus_groups.iter().enumerate() {
            if !in_region(g) || inside_child(g) {
                continue;
            }
            let preceding = spans
                .iter()
                .enumerate()
                .filter(|(_, sp)| sp.end <= g.anchor)
                .map(|(i, _)| i)
                .next_back();
            let following = spans
                .iter()
                .enumerate()
                .find(|(_, sp)| sp.start >= g.anchor)
                .map(|(i, _)| i);
            let target = [preceding, following].into_iter().flatten().find(|&i| {
                is_replacement_target(i) && deletable(i) && !replaced_elems.contains(&i)
            });
            if let Some(i) = target {
                let srcs = self.distinct_srcs(spans[i]);
                if !srcs.is_empty() {
                    for src_span in srcs {
                        let indent = line_indent(self.src, src_span.start);
                        let mut lines = Vec::new();
                        for idx in g.lines.0..g.lines.1 {
                            lines.push(self.substitute_line(idx).trim().to_string());
                        }
                        let replacement = lines.join(&format!("\n{indent}"));
                        edits.replace(src_span, replacement);
                    }
                    replaced_elems.push(i);
                    claimed_groups.push(gi);
                }
            }
        }

        // Pass B: delete remaining all-minus elements (every paired
        // source site — path matches may pair several).
        for (i, sp) in spans.iter().enumerate() {
            if replaced_elems.contains(&i) || !deletable(i) {
                continue;
            }
            if self.all_minus(*sp) && !self.body.span_has_interior_plus(*sp) {
                for src_span in self.distinct_srcs(*sp) {
                    edits.delete(expand_to_full_lines(self.src, src_span));
                }
            }
        }

        // Pass C: mixed elements recurse.
        for (i, sp) in spans.iter().enumerate() {
            if replaced_elems.contains(&i) {
                continue;
            }
            if self.all_minus(*sp) && !self.body.span_has_interior_plus(*sp) && deletable(i) {
                continue;
            }
            if self.has_edits(*sp) {
                rewrite_child(i, edits)?;
            }
        }

        // Pass D: remaining groups are gap insertions.
        for (gi, g) in self.body.plus_groups.iter().enumerate() {
            if claimed_groups.contains(&gi) || !in_region(g) || inside_child(g) {
                continue;
            }
            self.insert_group_in_list(g, spans, enclosing, edits)?;
        }
        Ok(())
    }

    /// Insert a plus group at the list position corresponding to its
    /// anchor.
    fn insert_group_in_list(
        &self,
        g: &PlusGroup,
        elem_spans: &[Span],
        enclosing: Option<Span>,
        edits: &mut EditSet,
    ) -> Result<(), String> {
        // Before the first element whose span starts at/after the anchor.
        for &sp in elem_spans {
            if sp.start >= g.anchor {
                if let Some(pair) = self.st.pairs.iter().find(|p| p.pat == sp) {
                    let src_span = pair.src;
                    // Code before the region on its line; indentation does
                    // not count (a body's dots start at their first
                    // statement, after it).
                    let at = (src_span.start as usize).min(self.src.len());
                    let line_head = &self.src[line_start(self.src, at as u32) as usize..at];
                    let mid_line = !line_head.trim().is_empty();
                    if pair.kind == PairKind::Dots && mid_line {
                        // A dots region that begins right after the
                        // preceding statement's semicolon (the CFG
                        // route's gap span, or tree dots on a shared
                        // line): inserting at the *line* start would
                        // land before that statement, so splice onto
                        // the end of its line instead.
                        let indent = line_indent(
                            self.src,
                            src_span.end.saturating_sub(1).max(src_span.start),
                        );
                        let rendered = self.render_group(g, &indent);
                        edits.insert(
                            src_span.start,
                            format!("\n{}", rendered.trim_end_matches('\n')),
                        );
                        return Ok(());
                    }
                    let pos = line_start(self.src, src_span.start);
                    let indent = line_indent(self.src, src_span.start);
                    edits.insert(pos, self.render_group(g, &indent));
                    return Ok(());
                }
            }
        }
        // After the last element that ends before the anchor.
        for &sp in elem_spans.iter().rev() {
            if sp.end <= g.anchor {
                if let Some(src_span) = self.st.src_for(sp) {
                    if src_span.is_empty() {
                        // Empty dots run: insert at its anchor offset.
                        let indent = line_indent(self.src, src_span.start);
                        edits.insert(
                            src_span.start,
                            format!("\n{}", self.render_group(g, &indent)),
                        );
                    } else {
                        let pos = next_line_start(self.src, src_span.end.saturating_sub(1));
                        let indent = line_indent(self.src, src_span.end.saturating_sub(1));
                        edits.insert(pos, self.render_group(g, &indent));
                    }
                    return Ok(());
                }
            }
        }
        // Fall back to the enclosing block's braces.
        if let Some(block_pat) = enclosing {
            if let Some(block_src) = self.st.src_for(block_pat) {
                let pos = next_line_start(self.src, block_src.start);
                let indent = line_indent(self.src, block_src.start);
                edits.insert(pos, self.render_group(g, &format!("{indent}    ")));
                return Ok(());
            }
        }
        Err("plus group with no insertion anchor".to_string())
    }

    // ---- single statements ----

    fn rewrite_stmt(&self, s: &Stmt, edits: &mut EditSet) -> Result<(), String> {
        match s {
            Stmt::Block(b) => self.rewrite_stmt_list(&b.stmts, Some(b.span), edits),
            Stmt::For {
                body: fbody,
                header_span,
                ..
            } => {
                let header_edits = self.body.span_has_minus(*header_span)
                    || self
                        .body
                        .plus_groups
                        .iter()
                        .any(|g| g.anchor > header_span.start && g.anchor < header_span.end);
                if header_edits {
                    let src_header = self
                        .st
                        .src_for(*header_span)
                        .ok_or_else(|| "for-header without correspondence".to_string())?;
                    let (lo, hi) = self.line_range(*header_span);
                    edits.replace(src_header, self.render_lines(lo, hi, false));
                }
                if self.has_edits(fbody.span()) {
                    self.rewrite_stmt(fbody, edits)?;
                }
                Ok(())
            }
            Stmt::While { body, span, .. }
            | Stmt::DoWhile { body, span, .. }
            | Stmt::RangeFor { body, span, .. }
            | Stmt::Switch { body, span, .. } => {
                // Recurse when edits are confined to the body; otherwise
                // re-render the whole statement.
                if self.edits_confined_to(&[body.span()], *span) {
                    self.rewrite_stmt(body, edits)
                } else {
                    self.replace_element(*span, false, edits)
                }
            }
            Stmt::If {
                then_branch,
                else_branch,
                span,
                ..
            } => {
                let mut subs = vec![then_branch.span()];
                if let Some(e) = else_branch {
                    subs.push(e.span());
                }
                if self.edits_confined_to(&subs, *span) {
                    if self.has_edits(then_branch.span()) {
                        self.rewrite_stmt(then_branch, edits)?;
                    }
                    if let Some(e) = else_branch {
                        if self.has_edits(e.span()) {
                            self.rewrite_stmt(e, edits)?;
                        }
                    }
                    Ok(())
                } else {
                    self.replace_element(*span, false, edits)
                }
            }
            Stmt::PatGroup {
                conj,
                branches,
                span,
            } => self.rewrite_pat_group(*conj, branches, *span, edits),
            Stmt::Label { stmt, .. } | Stmt::Case { stmt, .. } => self.rewrite_stmt(stmt, edits),
            Stmt::Dots { .. } | Stmt::MetaStmtList { .. } => Ok(()),
            // Leaf statements: re-render the whole element.
            _ => self.replace_element(s.span(), false, edits),
        }
    }

    /// Whether all `-` tokens and interior `+` anchors of `outer` fall
    /// within one of the `inner` spans.
    fn edits_confined_to(&self, inner: &[Span], outer: Span) -> bool {
        for line in &self.body.lines {
            if line.annot != Annot::Minus {
                continue;
            }
            for t in &line.tokens {
                if t.span.start >= outer.start && t.span.end <= outer.end {
                    let covered = inner
                        .iter()
                        .any(|sp| t.span.start >= sp.start && t.span.end <= sp.end);
                    if !covered {
                        return false;
                    }
                }
            }
        }
        for g in &self.body.plus_groups {
            if g.anchor > outer.start && g.anchor < outer.end {
                let covered = inner
                    .iter()
                    .any(|sp| g.anchor > sp.start && g.anchor < sp.end);
                if !covered {
                    return false;
                }
            }
        }
        true
    }

    fn rewrite_pat_group(
        &self,
        conj: bool,
        branches: &[Vec<Stmt>],
        group_span: Span,
        edits: &mut EditSet,
    ) -> Result<(), String> {
        let matched_src = self.st.src_for(group_span);
        if conj {
            // A statement branch that is entirely minus (a `- B`
            // statement metavariable included) deletes the matched
            // statement.
            let deletes = branches.iter().any(|b| {
                b.len() == 1 && !matches!(&b[0], Stmt::Expr { .. }) && self.all_minus(b[0].span())
            });
            if deletes {
                if let Some(src_span) = matched_src {
                    edits.delete(expand_to_full_lines(self.src, src_span));
                    return Ok(());
                }
            }
            // Otherwise expression branches with edits rewrite every
            // contained occurrence.
            for (bi, b) in branches.iter().enumerate() {
                if b.len() != 1 {
                    continue;
                }
                if let Stmt::Expr { expr, .. } = &b[0] {
                    let bspan = expr.span();
                    if !self.body.span_has_minus(bspan) {
                        continue;
                    }
                    let (lo, _) = self.line_range(bspan);
                    // Include adjacent plus lines up to the next branch.
                    let hi = self.branch_region_end(branches, bi, group_span);
                    let replacement = self.render_lines(lo, hi, false);
                    for occ in self.st.srcs_for(bspan) {
                        if replacement.is_empty() {
                            edits.delete(occ);
                        } else {
                            edits.replace(occ, replacement.clone());
                        }
                    }
                }
            }
            Ok(())
        } else {
            // Disjunction: rewrite only the chosen branch.
            let Some(choice) = self.st.choice_for(group_span) else {
                return Ok(());
            };
            let b = &branches[choice];
            if b.is_empty() {
                return Ok(());
            }
            let bspan = b.iter().fold(Span::SYNTHETIC, |acc, s| acc.merge(s.span()));
            if !self.body.span_has_minus(bspan)
                && !self
                    .body
                    .plus_groups
                    .iter()
                    .any(|g| g.anchor > bspan.start && g.anchor < group_span.end)
            {
                return Ok(());
            }
            if self.all_minus(bspan) {
                // Whole branch removed; adjacent plus lines replace the
                // matched statement.
                let (lo, _) = self.line_range(bspan);
                let hi = self.branch_region_end(branches, choice, group_span);
                let replacement = self.render_lines(lo, hi, false);
                if let Some(src_span) = matched_src {
                    if replacement.is_empty() {
                        edits.delete(expand_to_full_lines(self.src, src_span));
                    } else {
                        edits.replace(src_span, replacement);
                    }
                }
                return Ok(());
            }
            // Mixed branch: recurse into its statements.
            self.rewrite_stmt_list(b, Some(group_span), edits)
        }
    }

    /// Last line of the branch region: through any plus lines that follow
    /// the branch but precede the next branch.
    fn branch_region_end(&self, branches: &[Vec<Stmt>], bi: usize, group_span: Span) -> usize {
        let bspan = branches[bi]
            .iter()
            .fold(Span::SYNTHETIC, |acc, s| acc.merge(s.span()));
        let next_start = branches
            .get(bi + 1)
            .and_then(|nb| nb.first())
            .map(|s| s.span().start)
            .unwrap_or(group_span.end);
        let mut hi = self.body.line_of_offset(bspan.end.saturating_sub(1));
        for g in &self.body.plus_groups {
            if g.anchor >= bspan.end && g.anchor < next_start {
                hi = hi.max(g.lines.1.saturating_sub(1));
            }
        }
        hi
    }

    // ---- items ----

    fn rewrite_item_list(&self, items: &[Item], edits: &mut EditSet) -> Result<(), String> {
        let spans: Vec<Span> = items.iter().map(|i| i.span()).collect();
        self.rewrite_element_list(
            &spans,
            None,
            edits,
            &mut |i, edits| self.rewrite_item(&items[i], edits),
            &mut |_| true,
        )
    }

    fn rewrite_item(&self, item: &Item, edits: &mut EditSet) -> Result<(), String> {
        match item {
            Item::Function(f) => {
                // Attribute deletions.
                let mut attr_spans = Vec::new();
                for a in &f.attrs {
                    attr_spans.push(a.span);
                    if self.all_minus(a.span) {
                        if let Some(src_span) = self.st.src_for(a.span) {
                            edits.delete(expand_to_full_lines(self.src, src_span));
                        }
                    }
                }
                let mut confined_regions = attr_spans.clone();
                confined_regions.push(f.body.span);
                if self.edits_confined_to(&confined_regions, f.span) {
                    if self.has_edits(f.body.span) {
                        self.rewrite_stmt_list(&f.body.stmts, Some(f.body.span), edits)?;
                    }
                    Ok(())
                } else {
                    // Signature or mixed edits: re-render the whole item.
                    self.replace_element(f.span, true, edits)
                }
            }
            Item::Decl(d) => self.replace_element(d.span, false, edits),
            Item::Directive(d) => self.replace_element(d.span, true, edits),
            Item::Namespace { .. } | Item::ExternBlock { .. } => Ok(()),
        }
    }
}
