//! Minimal unified-diff rendering (line-based LCS).
//!
//! `spatch` traditionally prints its transformations as a unified diff;
//! this module provides that output without external dependencies. It
//! uses only `std` and no `crate::` paths, so benchmarks compile it by
//! path and price exactly what the CLI prints.
//!
//! The edit script is the traceback of the longest-common-subsequence
//! table. When the lines the two texts share appear in the same order on
//! both sides, that traceback is found in O(n + m) (`linear_ops`). This
//! holds whenever no rewritten line's old text survives in the new text
//! and no new line's text already occurs in the old one. Any other pair
//! of texts fills the O(n·m) table (`lcs_ops`), which is also the tests'
//! reference.

use std::collections::HashSet;

/// Produce a unified diff between `a` and `b` labelled with `name`.
/// Returns an empty string when the texts are identical.
pub fn unified_diff(name: &str, a: &str, b: &str, context: usize) -> String {
    if a == b {
        return String::new();
    }
    let al: Vec<&str> = a.lines().collect();
    let bl: Vec<&str> = b.lines().collect();
    let ops = diff_ops(&al, &bl);

    let mut out = String::new();
    out.push_str(&format!("--- a/{name}\n+++ b/{name}\n"));

    // Group ops into hunks with `context` lines of context.
    let mut i = 0usize;
    while i < ops.len() {
        if let Op::Equal(_, _) = ops[i] {
            i += 1;
            continue;
        }
        // Start of a change run; back up for leading context.
        let hunk_start = i;
        let mut hunk_end = i;
        let mut gap = 0usize;
        let mut j = i + 1;
        while j < ops.len() {
            match ops[j] {
                Op::Equal(_, _) => {
                    gap += 1;
                    if gap > 2 * context {
                        break;
                    }
                }
                _ => {
                    gap = 0;
                    hunk_end = j;
                }
            }
            j += 1;
        }

        // Collect hunk ops with surrounding context.
        let lead = hunk_start.saturating_sub(context);
        let tail = (hunk_end + context + 1).min(ops.len());
        let hunk = &ops[lead..tail];

        let (mut a_start, mut b_start) = (usize::MAX, usize::MAX);
        let (mut a_count, mut b_count) = (0usize, 0usize);
        for op in hunk {
            match *op {
                Op::Equal(ai, bi) => {
                    a_start = a_start.min(ai);
                    b_start = b_start.min(bi);
                    a_count += 1;
                    b_count += 1;
                }
                Op::Delete(ai) => {
                    a_start = a_start.min(ai);
                    a_count += 1;
                }
                Op::Insert(bi) => {
                    b_start = b_start.min(bi);
                    b_count += 1;
                }
            }
        }
        if a_start == usize::MAX {
            a_start = 0;
        }
        if b_start == usize::MAX {
            b_start = 0;
        }
        out.push_str(&format!(
            "@@ -{},{} +{},{} @@\n",
            a_start + 1,
            a_count,
            b_start + 1,
            b_count
        ));
        for op in hunk {
            match *op {
                Op::Equal(ai, _) => {
                    out.push(' ');
                    out.push_str(al[ai]);
                    out.push('\n');
                }
                Op::Delete(ai) => {
                    out.push('-');
                    out.push_str(al[ai]);
                    out.push('\n');
                }
                Op::Insert(bi) => {
                    out.push('+');
                    out.push_str(bl[bi]);
                    out.push('\n');
                }
            }
        }
        i = tail;
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Equal(usize, usize),
    Delete(usize),
    Insert(usize),
}

/// The edit script turning `a` into `b`: [`lcs_ops`]'s, computed in
/// linear time whenever [`linear_ops`] can.
fn diff_ops(a: &[&str], b: &[&str]) -> Vec<Op> {
    linear_ops(a, b).unwrap_or_else(|| lcs_ops(a, b))
}

/// [`lcs_ops`]'s traceback in O(n + m), or `None` when the lines the two
/// sides share do not form the same sequence on both.
///
/// Call a line *shared* when its text occurs anywhere on the other side;
/// an unshared line is in no common subsequence. Let S be the shared
/// lines of `a` in order, and suppose the shared lines of `b` are S too.
/// Then from (0, 0) the traceback stays synchronised: the rest of each
/// side holds the same suffix S_k of S, and the rest's LCS is |S_k|. At
/// such a point it
/// - deletes an unshared `a` line: dropping it costs nothing, and the
///   tie with inserting goes to Delete;
/// - otherwise inserts an unshared `b` line: deleting the shared `a`
///   line instead would leave only |S_k| − 1;
/// - otherwise pairs the two shared lines, both the head of S_k.
///
/// The condition is file-wide. Old `X E A` against new `A E X` holds two
/// edits whose own lines share no text, but X and A are shared across
/// them, so this returns `None` and the table decides.
fn linear_ops(a: &[&str], b: &[&str]) -> Option<Vec<Op>> {
    let in_a: HashSet<&str> = a.iter().copied().collect();
    let in_b: HashSet<&str> = b.iter().copied().collect();
    let shared_a: Vec<bool> = a.iter().map(|l| in_b.contains(l)).collect();
    let shared_b: Vec<bool> = b.iter().map(|l| in_a.contains(l)).collect();
    let seq_a = a.iter().zip(&shared_a).filter(|p| *p.1).map(|p| p.0);
    let seq_b = b.iter().zip(&shared_b).filter(|p| *p.1).map(|p| p.0);
    if !seq_a.eq(seq_b) {
        return None;
    }
    let mut ops = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        while i < a.len() && !shared_a[i] {
            ops.push(Op::Delete(i));
            i += 1;
        }
        while j < b.len() && !shared_b[j] {
            ops.push(Op::Insert(j));
            j += 1;
        }
        if i == a.len() {
            return Some(ops);
        }
        ops.push(Op::Equal(i, j));
        i += 1;
        j += 1;
    }
}

/// The O(n·m) reference: fill the LCS table, then trace it back from
/// (0, 0), taking Equal whenever the lines agree and Delete on ties.
fn lcs_ops(a: &[&str], b: &[&str]) -> Vec<Op> {
    let n = a.len();
    let m = b.len();
    // LCS table.
    let mut lcs = vec![0u32; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[idx(i, j)] = if a[i] == b[j] {
                lcs[idx(i + 1, j + 1)] + 1
            } else {
                lcs[idx(i + 1, j)].max(lcs[idx(i, j + 1)])
            };
        }
    }
    let mut ops = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < n && j < m {
        if a[i] == b[j] {
            ops.push(Op::Equal(i, j));
            i += 1;
            j += 1;
        } else if lcs[idx(i + 1, j)] >= lcs[idx(i, j + 1)] {
            ops.push(Op::Delete(i));
            i += 1;
        } else {
            ops.push(Op::Insert(j));
            j += 1;
        }
    }
    while i < n {
        ops.push(Op::Delete(i));
        i += 1;
    }
    while j < m {
        ops.push(Op::Insert(j));
        j += 1;
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_produce_nothing() {
        assert_eq!(unified_diff("f.c", "a\nb\n", "a\nb\n", 3), "");
    }

    #[test]
    fn single_line_change() {
        let d = unified_diff("f.c", "one\ntwo\nthree\n", "one\nTWO\nthree\n", 1);
        assert!(d.contains("--- a/f.c"));
        assert!(d.contains("-two"));
        assert!(d.contains("+TWO"));
        assert!(d.contains(" one"));
        assert!(d.contains(" three"));
    }

    #[test]
    fn insertion_only() {
        let d = unified_diff("f.c", "a\nc\n", "a\nb\nc\n", 0);
        assert!(d.contains("+b"));
        // No deletion lines (the `---` header does not count).
        assert!(!d
            .lines()
            .any(|l| l.starts_with('-') && !l.starts_with("---")));
    }

    #[test]
    fn deletion_only() {
        let d = unified_diff("f.c", "a\nb\nc\n", "a\nc\n", 0);
        assert!(d.contains("-b"));
    }

    #[test]
    fn lines_shared_across_edits_take_the_table() {
        // Each edit's own lines share no text, but X and A occur on both
        // sides in opposite orders: only the table gives these bytes.
        let (a, b) = (["X", "E", "A"], ["A", "E", "X"]);
        assert_eq!(linear_ops(&a, &b), None);
        assert_eq!(
            unified_diff("f.c", "X\nE\nA\n", "A\nE\nX\n", 3),
            "--- a/f.c\n+++ b/f.c\n@@ -1,3 +1,3 @@\n-X\n-E\n A\n+E\n+X\n"
        );
    }

    /// Whenever the linear traceback applies, it equals the table's, on
    /// seeded random line sequences over small alphabets.
    #[test]
    fn linear_traceback_equals_the_table() {
        let mut state = 0x5EED_u64;
        let mut next = |bound: u64| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        const LETTERS: [&str; 12] = ["a", "b", "c", "d", "e", "f", "U", "V", "W", "X", "Y", "Z"];
        let (mut linear, mut cases) = (0usize, 0usize);
        for _ in 0..200_000 {
            let alphabet = 1 + next(6) as usize;
            let a: Vec<&str> = (0..next(9))
                .map(|_| LETTERS[next(alphabet as u64) as usize])
                .collect();
            // Half the cases edit `a` the way a rewrite does: replace,
            // drop or add lines, often with text from a disjoint set.
            let b: Vec<&str> = if next(2) == 0 {
                (0..next(9))
                    .map(|_| LETTERS[next(alphabet as u64) as usize])
                    .collect()
            } else {
                let mut b = Vec::new();
                for &line in &a {
                    match next(4) {
                        0 => {}
                        1 => b.push(LETTERS[6 + next(6) as usize]),
                        _ => b.push(line),
                    }
                    if next(4) == 0 {
                        b.push(LETTERS[next(12) as usize]);
                    }
                }
                b
            };
            cases += 1;
            if let Some(ops) = linear_ops(&a, &b) {
                linear += 1;
                assert_eq!(ops, lcs_ops(&a, &b), "a={a:?} b={b:?}");
            }
        }
        assert!(
            linear >= 1_000,
            "linear path applied in {linear} of {cases}"
        );
    }

    #[test]
    fn distant_changes_get_separate_hunks() {
        let a: String = (0..40).map(|i| format!("line{i}\n")).collect();
        let b = a
            .replace("line3\n", "LINE3\n")
            .replace("line36\n", "LINE36\n");
        let d = unified_diff("f.c", &a, &b, 2);
        assert_eq!(d.matches("@@").count() / 2 * 2, d.matches("@@").count());
        assert!(d.matches("@@ -").count() >= 2, "{d}");
    }
}
