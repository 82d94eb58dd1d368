//! Inline finding suppression: `// spatch-ignore [rule-id]` comments.
//!
//! A finding is suppressed when its line — or the line immediately above
//! it — carries a suppression marker naming the finding's rule, or a
//! bare marker (which silences every rule on that line). This is the
//! lint-tool convention (`NOLINT`, `noqa`, `eslint-disable-line`):
//!
//! ```c
//! old_api(1); // spatch-ignore use-new-api   <- this rule, this line
//! // spatch-ignore                           <- all rules, next line
//! old_api(2);
//! ```
//!
//! Suppressed findings are *counted*, not silently dropped:
//! [`FileReport`](crate::FileReport) and the text output surface how
//! many findings each file (and in scan mode, each rule) suppressed.

use crate::findings::Finding;
use std::collections::HashMap;

/// The comment marker introducing a suppression.
pub const MARKER: &str = "spatch-ignore";

/// Per-rule or blanket suppression scope on one line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Scope {
    /// Bare `// spatch-ignore`: every rule.
    All,
    /// `// spatch-ignore id [id ...]`: only the named rules.
    Rules(Vec<String>),
}

/// Line-indexed suppression markers of one file.
#[derive(Debug, Clone, Default)]
pub struct SuppressionIndex {
    /// 1-based line number → scope.
    lines: HashMap<u32, Scope>,
}

impl SuppressionIndex {
    /// Scan `text` for `// spatch-ignore` (also accepted inside block
    /// comments and after other trailing content). Rule ids after the
    /// marker are whitespace/comma separated.
    ///
    /// One search runs over the whole text; line numbers are counted only
    /// up to each hit. Only a line's first marker counts.
    pub fn parse(text: &str) -> SuppressionIndex {
        let mut lines = HashMap::new();
        // The line number of the text from `counted` on.
        let (mut counted, mut line_no) = (0, 1);
        // Where the last line holding a marker ends.
        let mut line_end = 0;
        for (hit, _) in text.match_indices(MARKER) {
            if hit < line_end {
                continue;
            }
            let start = text[..hit].rfind('\n').map_or(0, |nl| nl + 1);
            line_no += text.as_bytes()[counted..start]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            counted = start;
            line_end = text[hit..].find('\n').map_or(text.len(), |nl| hit + nl + 1);
            // The line as `str::lines` yields it (its `\r\n` stripped).
            let line = text[start..line_end].lines().next().unwrap_or("");
            let at = hit - start;
            // Require a comment introducer before the marker so the
            // string literal "spatch-ignore" in ordinary code does not
            // suppress anything.
            let before = &line[..at];
            if !before.contains("//") && !before.contains("/*") {
                continue;
            }
            let rest = line[at + MARKER.len()..]
                .trim_end_matches("*/")
                .trim()
                .trim_matches(':')
                .trim();
            let ids: Vec<String> = rest
                .split([' ', '\t', ','])
                .filter(|s| !s.is_empty())
                .map(|s| s.to_string())
                .collect();
            let scope = if ids.is_empty() {
                Scope::All
            } else {
                Scope::Rules(ids)
            };
            lines.insert(line_no as u32, scope);
        }
        SuppressionIndex { lines }
    }

    /// True if the file carries no markers at all.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Is `rule` suppressed at 1-based `line` (marker on the line itself
    /// or the line above)?
    pub fn suppresses(&self, rule: &str, line: u32) -> bool {
        let hit = |l: u32| match self.lines.get(&l) {
            Some(Scope::All) => true,
            Some(Scope::Rules(ids)) => ids.iter().any(|id| id == rule),
            None => false,
        };
        hit(line) || (line > 1 && hit(line - 1))
    }

    /// Split `findings` into kept and suppressed-count, honouring each
    /// finding's own rule id and line.
    pub fn filter(&self, findings: Vec<Finding>) -> (Vec<Finding>, usize) {
        if self.lines.is_empty() {
            return (findings, 0);
        }
        let before = findings.len();
        let kept: Vec<Finding> = findings
            .into_iter()
            .filter(|f| !self.suppresses(&f.rule, f.line))
            .collect();
        let suppressed = before - kept.len();
        (kept, suppressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, line: u32) -> Finding {
        Finding {
            path: "a.c".into(),
            line,
            col: 1,
            end_line: line,
            end_col: 2,
            rule: rule.into(),
            message: "matched".into(),
            bindings: Vec::new(),
        }
    }

    #[test]
    fn same_line_and_line_above() {
        let idx = SuppressionIndex::parse(
            "old_api(1); // spatch-ignore use-new\n// spatch-ignore\nold_api(2);\nold_api(3);\n",
        );
        assert!(idx.suppresses("use-new", 1));
        assert!(!idx.suppresses("other", 1));
        // Bare marker on line 2 silences everything on lines 2 and 3.
        assert!(idx.suppresses("use-new", 3));
        assert!(idx.suppresses("other", 3));
        assert!(!idx.suppresses("use-new", 4));
    }

    #[test]
    fn marker_needs_comment_introducer() {
        let idx = SuppressionIndex::parse("char *s = \"spatch-ignore\";\n");
        assert!(!idx.suppresses("any", 1));
        let idx = SuppressionIndex::parse("f(); /* spatch-ignore r1 */\n");
        assert!(idx.suppresses("r1", 1));
        assert!(!idx.suppresses("r2", 1));
    }

    #[test]
    fn multiple_ids_and_separators() {
        let idx = SuppressionIndex::parse("g(); // spatch-ignore a, b c\n");
        for r in ["a", "b", "c"] {
            assert!(idx.suppresses(r, 1), "{r}");
        }
        assert!(!idx.suppresses("d", 1));
    }

    #[test]
    fn filter_counts() {
        let idx = SuppressionIndex::parse("x; // spatch-ignore r1\ny;\n");
        let (kept, suppressed) =
            idx.filter(vec![finding("r1", 1), finding("r2", 1), finding("r1", 3)]);
        assert_eq!(suppressed, 1);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|f| !(f.rule == "r1" && f.line == 1)));
    }

    /// The line-by-line reading the one-search scan replaces.
    fn per_line(text: &str) -> HashMap<u32, Scope> {
        let mut lines = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            let Some(at) = line.find(MARKER) else {
                continue;
            };
            let before = &line[..at];
            if !before.contains("//") && !before.contains("/*") {
                continue;
            }
            let rest = line[at + MARKER.len()..]
                .trim_end_matches("*/")
                .trim()
                .trim_matches(':')
                .trim();
            let ids: Vec<String> = rest
                .split([' ', '\t', ','])
                .filter(|s| !s.is_empty())
                .map(|s| s.to_string())
                .collect();
            let scope = if ids.is_empty() {
                Scope::All
            } else {
                Scope::Rules(ids)
            };
            lines.insert((i + 1) as u32, scope);
        }
        lines
    }

    #[test]
    fn one_search_reads_lines_like_the_per_line_scan() {
        for text in [
            "",
            "spatch-ignore",
            "// spatch-ignore",
            "a; // spatch-ignore r1 /* spatch-ignore r2 */\nb;\n",
            "\"spatch-ignore\" // spatch-ignore r3\n",
            "x;\r\n/* spatch-ignore r4 */\r\ny; // spatch-ignore\r\n",
            "\n\n\n  // spatch-ignore: a,b\tc\n\n// spatch-ignore",
            "/* spatch-ignore r5 */\r",
            "héllo // spatch-ignore r6\nwörld /* spatch-ignorespatch-ignore */\n",
        ] {
            assert_eq!(
                SuppressionIndex::parse(text).lines,
                per_line(text),
                "{text:?}"
            );
        }
    }

    #[test]
    fn empty_index_is_free() {
        let idx = SuppressionIndex::parse("no markers here\n");
        assert!(idx.is_empty());
        let (kept, suppressed) = idx.filter(vec![finding("r", 1)]);
        assert_eq!((kept.len(), suppressed), (1, 0));
    }
}
