//! Span-based edit sets and their application to source text.
//!
//! Every transformation the engine performs is expressed as a set of
//! byte-span edits against the *original* file text (delete, replace,
//! insert). Applying the set splices all edits in one pass, preserving all
//! untouched bytes — this is what makes the output a minimal diff of the
//! input, like Coccinelle's.

use cocci_source::{FnvBuild, Span};
use std::collections::HashMap;
use std::fmt;

/// One edit: replace `span` with `replacement`. An empty span is a pure
/// insertion at that offset; an empty replacement is a deletion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// Byte range to replace.
    pub span: Span,
    /// Replacement text.
    pub replacement: String,
    /// Tie-break for multiple insertions at the same offset (stable order
    /// of emission).
    pub seq: u32,
}

/// Overlapping-edit conflict.
#[derive(Debug, Clone)]
pub struct EditConflict {
    /// First edit's span.
    pub a: Span,
    /// Second edit's span.
    pub b: Span,
}

impl fmt::Display for EditConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conflicting edits at {} and {}", self.a, self.b)
    }
}

impl std::error::Error for EditConflict {}

/// A collection of edits to one file.
#[derive(Debug, Default, Clone)]
pub struct EditSet {
    edits: Vec<Edit>,
    /// Indices into `edits` by span: a duplicate can only share its span.
    by_span: HashMap<Span, Vec<usize>, FnvBuild>,
    next_seq: u32,
}

impl EditSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded edits.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// Whether no edits were recorded.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Record a replacement. Exact duplicates are dropped.
    pub fn replace(&mut self, span: Span, replacement: impl Into<String>) {
        let replacement = replacement.into();
        let same_span = self.by_span.entry(span).or_default();
        if same_span
            .iter()
            .any(|&i| self.edits[i].replacement == replacement)
        {
            return;
        }
        same_span.push(self.edits.len());
        self.edits.push(Edit {
            span,
            replacement,
            seq: self.next_seq,
        });
        self.next_seq += 1;
    }

    /// Record a deletion.
    pub fn delete(&mut self, span: Span) {
        self.replace(span, "");
    }

    /// Record an insertion at `offset`.
    pub fn insert(&mut self, offset: u32, text: impl Into<String>) {
        self.replace(Span::empty(offset), text);
    }

    /// Absorb every edit of `other` (exact duplicates still dropped,
    /// relative order of same-offset insertions preserved).
    pub fn merge(&mut self, other: EditSet) {
        let mut incoming = other.edits;
        incoming.sort_by_key(|e| e.seq);
        for e in incoming {
            self.replace(e.span, e.replacement);
        }
    }

    /// Each edit's span and the byte length of its replacement, in no
    /// particular order: what a parse of the edited text needs to reuse
    /// the parse of the text the edits apply to.
    pub(crate) fn changes(&self) -> Vec<(Span, u32)> {
        self.edits
            .iter()
            .map(|e| (e.span, e.replacement.len() as u32))
            .collect()
    }

    /// Sorted copy of the edits (application order).
    fn sorted(&self) -> Vec<Edit> {
        let mut edits = self.edits.clone();
        // Sort by start; insertions at equal offsets keep emission order;
        // an insertion at X sorts before a replacement starting at X.
        edits.sort_by(|a, b| {
            a.span
                .start
                .cmp(&b.span.start)
                .then(a.span.end.cmp(&b.span.end))
                .then(a.seq.cmp(&b.seq))
        });
        edits
    }

    /// First pair of conflicting edits in sorted order, if any:
    /// overlapping non-empty ranges, or an insertion point strictly
    /// inside a replacement.
    fn find_conflict(sorted: &[Edit]) -> Option<EditConflict> {
        for w in sorted.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if !a.span.is_empty() && !b.span.is_empty() && b.span.start < a.span.end {
                return Some(EditConflict {
                    a: a.span,
                    b: b.span,
                });
            }
            if !a.span.is_empty()
                && b.span.is_empty()
                && b.span.start > a.span.start
                && b.span.start < a.span.end
            {
                return Some(EditConflict {
                    a: a.span,
                    b: b.span,
                });
            }
        }
        None
    }

    /// Whether this set and `other` — two *independently derived* edit
    /// sets — contradict each other: overlapping edits, an insertion
    /// point strictly inside the other's replacement, or insertions at
    /// the same offset with different text. The last case is legal
    /// *within* one set (several `+` groups may stack at one point) but
    /// across two sets it means they disagree about what belongs there
    /// (the sibling-witness contradiction check relies on this).
    pub fn conflicts_with(&self, other: &EditSet) -> bool {
        self.edits.iter().any(|a| {
            other.edits.iter().any(|b| {
                if a.span == b.span {
                    return a.replacement != b.replacement;
                }
                let overlap = !a.span.is_empty()
                    && !b.span.is_empty()
                    && a.span.start < b.span.end
                    && b.span.start < a.span.end;
                let a_inside_b = a.span.is_empty()
                    && !b.span.is_empty()
                    && a.span.start > b.span.start
                    && a.span.start < b.span.end;
                let b_inside_a = b.span.is_empty()
                    && !a.span.is_empty()
                    && b.span.start > a.span.start
                    && b.span.start < a.span.end;
                overlap || a_inside_b || b_inside_a
            })
        })
    }

    /// Apply all edits to `src`. Returns the patched text, or a conflict
    /// if two non-identical edits overlap.
    pub fn apply(&self, src: &str) -> Result<String, EditConflict> {
        let edits = self.sorted();
        if let Some(c) = Self::find_conflict(&edits) {
            return Err(c);
        }
        let mut out = String::with_capacity(src.len() + 64);
        let mut cursor = 0usize;
        for e in &edits {
            let start = e.span.start as usize;
            let end = e.span.end as usize;
            if start > cursor {
                out.push_str(&src[cursor..start]);
            }
            out.push_str(&e.replacement);
            cursor = cursor.max(end);
        }
        if cursor < src.len() {
            out.push_str(&src[cursor..]);
        }
        Ok(out)
    }
}

/// Expand `span` so that deleting it also removes now-blank lines: if the
/// bytes before it on its line are all whitespace and the bytes after it
/// up to (and including) the newline are all whitespace, the expanded span
/// covers the full line(s).
pub fn expand_to_full_lines(src: &str, span: Span) -> Span {
    let bytes = src.as_bytes();
    let mut start = span.start as usize;
    let mut end = span.end as usize;
    // Scan left to line start; bail if non-whitespace found.
    let mut ls = start;
    while ls > 0 && bytes[ls - 1] != b'\n' {
        ls -= 1;
    }
    if src[ls..start].chars().all(|c| c == ' ' || c == '\t') {
        // Scan right to past newline; bail if non-whitespace found.
        let mut le = end;
        while le < bytes.len() && bytes[le] != b'\n' {
            le += 1;
        }
        if src[end..le].chars().all(|c| c == ' ' || c == '\t') {
            start = ls;
            end = if le < bytes.len() { le + 1 } else { le };
        }
    }
    Span::new(start as u32, end as u32)
}

/// Leading whitespace of the line containing `offset`.
pub fn line_indent(src: &str, offset: u32) -> String {
    let bytes = src.as_bytes();
    let mut ls = offset as usize;
    while ls > 0 && bytes[ls - 1] != b'\n' {
        ls -= 1;
    }
    let mut i = ls;
    while i < bytes.len() && (bytes[i] == b' ' || bytes[i] == b'\t') {
        i += 1;
    }
    src[ls..i].to_string()
}

/// Offset of the start of the line containing `offset`.
pub fn line_start(src: &str, offset: u32) -> u32 {
    let bytes = src.as_bytes();
    let mut ls = offset as usize;
    while ls > 0 && bytes[ls - 1] != b'\n' {
        ls -= 1;
    }
    ls as u32
}

/// Offset just past the newline ending the line containing `offset` (or
/// end of text).
pub fn next_line_start(src: &str, offset: u32) -> u32 {
    let bytes = src.as_bytes();
    let mut i = offset as usize;
    while i < bytes.len() && bytes[i] != b'\n' {
        i += 1;
    }
    if i < bytes.len() {
        (i + 1) as u32
    } else {
        i as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_and_insert() {
        let mut es = EditSet::new();
        es.replace(Span::new(4, 7), "world");
        es.insert(0, ">> ");
        assert_eq!(es.apply("say foo now").unwrap(), ">> say world now");
    }

    #[test]
    fn deletion() {
        let mut es = EditSet::new();
        es.delete(Span::new(3, 7));
        assert_eq!(es.apply("abcdefghi").unwrap(), "abchi");
    }

    #[test]
    fn duplicate_edits_are_idempotent() {
        let mut es = EditSet::new();
        es.delete(Span::new(0, 2));
        es.delete(Span::new(0, 2));
        assert_eq!(es.len(), 1);
        assert_eq!(es.apply("xxrest").unwrap(), "rest");
        // Same span with other text, or same text at another span: kept.
        es.replace(Span::new(0, 2), "y");
        es.replace(Span::new(2, 4), "");
        assert_eq!(es.len(), 3);
    }

    #[test]
    fn overlapping_edits_conflict() {
        let mut es = EditSet::new();
        es.replace(Span::new(0, 5), "A");
        es.replace(Span::new(3, 8), "B");
        assert!(es.apply("0123456789").is_err());
    }

    #[test]
    fn insertions_at_same_offset_keep_order() {
        let mut es = EditSet::new();
        es.insert(5, "one ");
        es.insert(5, "two ");
        assert_eq!(es.apply("01234XYZ").unwrap(), "01234one two XYZ");
    }

    #[test]
    fn insertion_inside_replacement_conflicts() {
        let mut es = EditSet::new();
        es.replace(Span::new(0, 6), "NEW");
        es.insert(3, "x");
        assert!(es.apply("abcdef...").is_err());
    }

    #[test]
    fn conflicts_with_answers_the_named_cases() {
        let set = |edits: &[(u32, u32, &str)]| {
            let mut s = EditSet::new();
            for &(start, end, text) in edits {
                s.replace(Span::new(start, end), text);
            }
            s
        };
        let repl = set(&[(2, 6, "R")]);
        // Overlap, an insertion strictly inside, same-offset insertions
        // with different text.
        assert!(repl.conflicts_with(&set(&[(5, 9, "S")])));
        assert!(repl.conflicts_with(&set(&[(4, 4, "i")])));
        assert!(set(&[(3, 3, "a")]).conflicts_with(&set(&[(3, 3, "b")])));
        // The same edit, insertions at a replacement's ends, disjoint
        // ranges.
        assert!(!repl.conflicts_with(&set(&[(2, 6, "R")])));
        assert!(!repl.conflicts_with(&set(&[(2, 2, "i"), (6, 6, "j")])));
        assert!(!repl.conflicts_with(&set(&[(6, 9, "S"), (0, 2, "")])));
        // Same span, other text.
        assert!(repl.conflicts_with(&set(&[(2, 6, "Q")])));
    }

    #[test]
    fn expand_to_full_lines_blank_line_removal() {
        let src = "keep;\n    doomed;\nkeep2;\n";
        // "doomed;" spans 10..17.
        let got = expand_to_full_lines(src, Span::new(10, 17));
        assert_eq!(got, Span::new(6, 18));
        let mut es = EditSet::new();
        es.delete(got);
        assert_eq!(es.apply(src).unwrap(), "keep;\nkeep2;\n");
    }

    #[test]
    fn expand_keeps_span_when_line_shared() {
        let src = "a; b;\n";
        // Deleting just "a;" must not take the whole line.
        let got = expand_to_full_lines(src, Span::new(0, 2));
        assert_eq!(got, Span::new(0, 2));
    }

    #[test]
    fn indent_helpers() {
        let src = "x\n    indented();\n";
        assert_eq!(line_indent(src, 8), "    ");
        assert_eq!(line_start(src, 8), 2);
        assert_eq!(next_line_start(src, 8), 18);
    }
}
