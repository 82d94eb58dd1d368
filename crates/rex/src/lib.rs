//! `cocci-rex`: a small, self-contained regular-expression engine.
//!
//! SMPL metavariable declarations may constrain identifiers with
//! `identifier f =~ "kernel";` — Coccinelle delegates these to PCRE. This
//! workspace has no third-party regex dependency, so we implement the
//! fragment of regex syntax actually needed for semantic patching (and a
//! little more):
//!
//! * literals, `.`, escaped metacharacters (`\.`, `\*`, …) and the classes
//!   `\d \w \s` (plus negations `\D \W \S`)
//! * character classes `[abc]`, ranges `[a-z]`, negation `[^...]`
//! * grouping `( ... )` and alternation `a|b`
//! * quantifiers `*`, `+`, `?` and bounded `{m}`, `{m,}`, `{m,n}`
//! * anchors `^` and `$`
//!
//! The implementation is the classic two-stage pipeline: a recursive-descent
//! parser producing a small AST ([`ast::Node`]), compiled to a Thompson NFA
//! (`nfa::Program`) executed by a Pike-style virtual machine. Matching is
//! therefore linear in `text.len() * program.len()` with no exponential
//! blow-up, which matters because semantic patches are applied to thousands
//! of identifiers in large codebases.
//!
//! Matching semantics follow Coccinelle/PCRE convention for `=~`:
//! **unanchored search** — the pattern may match anywhere in the identifier
//! unless `^`/`$` anchors say otherwise.
//!
//! ```
//! use cocci_rex::Regex;
//! let re = Regex::new("rsb__BCSR_spmv_[sd]asa").unwrap();
//! assert!(re.is_match("rsb__BCSR_spmv_dasa_double"));
//! assert!(!re.is_match("rsb__BCSR_spmv_xasa"));
//! ```

mod ast;
mod multi;
mod nfa;
mod parser;

pub use ast::{ClassItem, Node};
pub use multi::MultiLiteral;
pub use parser::ParseError;

use nfa::Program;

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    prog: Program,
    required: Vec<String>,
}

impl Regex {
    /// Compile `pattern`. Returns a [`ParseError`] describing the first
    /// syntax problem encountered.
    pub fn new(pattern: &str) -> Result<Self, ParseError> {
        let node = parser::parse(pattern)?;
        let prog = Program::compile(&node);
        let mut required = Vec::new();
        let mut run = Vec::new();
        collect_factors(&node, &mut run, &mut required);
        flush_run(&mut run, &mut required);
        required.sort();
        required.dedup();
        Ok(Regex {
            pattern: pattern.to_string(),
            prog,
            required,
        })
    }

    /// The original pattern text.
    pub fn as_str(&self) -> &str {
        &self.pattern
    }

    /// Literal factors every match necessarily contains, derived from the
    /// AST (maximal literal runs outside alternations and `min = 0`
    /// repeats). Any text matched by the pattern — and therefore any text
    /// *containing* a match — contains each factor as a substring, which
    /// makes these usable as a cheap pre-scan before running the NFA, or
    /// as file-level prefilter atoms for `=~`-constrained metavariables.
    pub fn required_literals(&self) -> &[String] {
        &self.required
    }

    /// Unanchored search: does the pattern match anywhere in `text`?
    pub fn is_match(&self, text: &str) -> bool {
        self.prog.search(text.as_bytes()).is_some()
    }

    /// Unanchored search returning the byte range of the leftmost match.
    pub fn find(&self, text: &str) -> Option<(usize, usize)> {
        self.prog.search(text.as_bytes())
    }

    /// Anchored match: does the pattern match the *entire* `text`?
    pub fn is_full_match(&self, text: &str) -> bool {
        self.prog
            .search(text.as_bytes())
            .map(|(s, e)| s == 0 && e == text.len())
            .unwrap_or(false)
    }

    /// Can the pattern match *some* string built only from bytes
    /// satisfying `allowed`? Computed by NFA reachability with anchors
    /// treated as passable, so `false` is definitive ("no string over
    /// this alphabet matches") while `true` may over-approximate —
    /// exactly the direction an emptiness lint needs to stay sound.
    pub fn matchable_over(&self, allowed: impl Fn(u8) -> bool) -> bool {
        self.prog.reachable_match(&allowed)
    }

    /// Can the pattern match anywhere in *some* C identifier? Identifiers
    /// draw on `[A-Za-z0-9_]` only, so an `=~` constraint failing this
    /// check can never accept any bound identifier — the rule it guards
    /// is unsatisfiable.
    pub fn can_match_identifier(&self) -> bool {
        self.matchable_over(|b| b.is_ascii_alphanumeric() || b == b'_')
    }
}

/// Append the pending literal run to `out` (if non-empty and valid UTF-8).
fn flush_run(run: &mut Vec<u8>, out: &mut Vec<String>) {
    if run.is_empty() {
        return;
    }
    if let Ok(s) = String::from_utf8(std::mem::take(run)) {
        out.push(s);
    } else {
        run.clear();
    }
}

/// Walk `node` in sequence context, growing the current literal run with
/// guaranteed bytes and flushing it whenever contiguity can no longer be
/// proven. Alternation contributes nothing (no single branch is
/// guaranteed); a repeat with `min >= 1` contributes its body's factors.
fn collect_factors(node: &Node, run: &mut Vec<u8>, out: &mut Vec<String>) {
    match node {
        Node::Byte(b) => run.push(*b),
        Node::Class { items, negated } if !negated && items.len() == 1 => match items[0] {
            // A one-byte class is as good as a literal.
            ClassItem::Byte(b) => run.push(b),
            ClassItem::Range(lo, hi) if lo == hi => run.push(lo),
            _ => flush_run(run, out),
        },
        Node::Concat(children) => {
            for c in children {
                collect_factors(c, run, out);
            }
        }
        Node::Repeat { node, min, .. } => {
            flush_run(run, out);
            if *min >= 1 {
                let mut inner = Vec::new();
                collect_factors(node, &mut inner, out);
                flush_run(&mut inner, out);
            }
        }
        // Anchors are zero-width but flushing around them is still sound
        // (it only shortens factors, never invents them).
        Node::Empty
        | Node::AnyByte
        | Node::Class { .. }
        | Node::Alt(_)
        | Node::StartAnchor
        | Node::EndAnchor => flush_run(run, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(p: &str) -> Regex {
        Regex::new(p).unwrap()
    }

    #[test]
    fn literal_substring_search() {
        let r = re("kernel");
        assert!(r.is_match("kernel"));
        assert!(r.is_match("my_kernel_fn"));
        assert!(!r.is_match("kern"));
    }

    #[test]
    fn dot_matches_any_but_newline() {
        let r = re("a.c");
        assert!(r.is_match("abc"));
        assert!(r.is_match("a-c"));
        assert!(!r.is_match("a\nc"));
        assert!(!r.is_match("ac"));
    }

    #[test]
    fn star_plus_question() {
        assert!(re("ab*c").is_match("ac"));
        assert!(re("ab*c").is_match("abbbc"));
        assert!(re("ab+c").is_match("abc"));
        assert!(!re("ab+c").is_match("ac"));
        assert!(re("ab?c").is_match("ac"));
        assert!(re("ab?c").is_match("abc"));
        assert!(!re("ab?c").is_match("abbc"));
    }

    #[test]
    fn alternation_and_groups() {
        let r = re("foo(bar|baz)+");
        assert!(r.is_match("foobar"));
        assert!(r.is_match("foobazbar"));
        assert!(!r.is_match("foo"));
    }

    #[test]
    fn classes_and_ranges() {
        let r = re("[a-f0-9]+");
        assert!(r.is_match("deadbeef42"));
        let neg = re("^[^x]+$");
        assert!(neg.is_match("abc"));
        assert!(!neg.is_match("axc"));
    }

    #[test]
    fn class_with_literal_dash_and_bracket() {
        let r = re("[a\\-b]");
        assert!(r.is_match("-"));
        let r2 = re("[\\]]");
        assert!(r2.is_match("]"));
    }

    #[test]
    fn anchors() {
        assert!(re("^abc$").is_full_match("abc"));
        assert!(!re("^abc$").is_match("xabc"));
        assert!(re("abc$").is_match("xabc"));
        assert!(re("^abc").is_match("abcx"));
        assert!(!re("^abc").is_match("xabc"));
    }

    #[test]
    fn bounded_repetition() {
        let r = re("^a{2,3}$");
        assert!(!r.is_match("a"));
        assert!(r.is_match("aa"));
        assert!(r.is_match("aaa"));
        assert!(!r.is_match("aaaa"));
        let exact = re("^x{3}$");
        assert!(exact.is_match("xxx"));
        assert!(!exact.is_match("xx"));
        let open = re("^y{2,}$");
        assert!(open.is_match("yyyy"));
        assert!(!open.is_match("y"));
    }

    #[test]
    fn escapes_and_perl_classes() {
        assert!(re("a\\.b").is_match("a.b"));
        assert!(!re("a\\.b").is_match("axb"));
        assert!(re("\\d+").is_match("var123"));
        assert!(!re("^\\d+$").is_match("12a"));
        assert!(re("\\w+").is_match("under_score9"));
        assert!(re("\\s").is_match("a b"));
        assert!(re("^\\S+$").is_match("dense"));
    }

    #[test]
    fn paper_librsb_pattern() {
        // The regex from the paper's compiler-bug workaround use case.
        let r = re("rsb__BCSR_spmv_sasa_double_complex_[CH]__t[NTC]_r1_c1_uu_s[HS]_dE_uG");
        assert!(r.is_match("rsb__BCSR_spmv_sasa_double_complex_C__tN_r1_c1_uu_sH_dE_uG"));
        assert!(r.is_match("rsb__BCSR_spmv_sasa_double_complex_H__tC_r1_c1_uu_sS_dE_uG"));
        assert!(!r.is_match("rsb__BCSR_spmv_sasa_double_complex_X__tN_r1_c1_uu_sH_dE_uG"));
    }

    #[test]
    fn leftmost_match_position() {
        let r = re("b+");
        assert_eq!(r.find("aabbbcc"), Some((2, 5)));
        assert_eq!(r.find("nope"), None);
    }

    #[test]
    fn empty_pattern_matches_empty() {
        let r = re("");
        assert!(r.is_match(""));
        assert!(r.is_match("anything"));
        assert_eq!(r.find("xy"), Some((0, 0)));
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::new("a(b").is_err());
        assert!(Regex::new("a)b").is_err());
        assert!(Regex::new("[abc").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("a{2,1}").is_err());
        assert!(Regex::new("a\\").is_err());
    }

    #[test]
    fn required_literals_plain_word() {
        assert_eq!(re("kernel").required_literals(), ["kernel"]);
        assert_eq!(
            re("^rsb__BCSR_spmv_").required_literals(),
            ["rsb__BCSR_spmv_"]
        );
    }

    #[test]
    fn required_literals_split_by_classes_and_repeats() {
        let r = re("foo[0-9]+bar");
        assert_eq!(r.required_literals(), ["bar", "foo"]);
        // `min = 0` repeats guarantee nothing, `min >= 1` guarantee the body.
        assert_eq!(re("a(xyz)*b").required_literals(), ["a", "b"]);
        let plus = re("(xyz)+");
        assert_eq!(plus.required_literals(), ["xyz"]);
    }

    #[test]
    fn required_literals_skip_alternation() {
        assert_eq!(re("pre(foo|bar)post").required_literals(), ["post", "pre"]);
        assert!(re("foo|bar").required_literals().is_empty());
    }

    #[test]
    fn required_literals_are_sound_on_matches() {
        let r = re("rsb__BCSR_spmv_sasa_double_complex_[CH]__t[NTC]_r1_c1_uu_s[HS]_dE_uG");
        let hay = "rsb__BCSR_spmv_sasa_double_complex_C__tN_r1_c1_uu_sH_dE_uG";
        assert!(r.is_match(hay));
        for lit in r.required_literals() {
            assert!(hay.contains(lit.as_str()), "{lit:?} missing from match");
        }
        // One-byte classes count as literals.
        assert_eq!(re("a[x]b").required_literals(), ["axb"]);
    }

    #[test]
    fn identifier_matchability() {
        // Satisfiable over [A-Za-z0-9_]: plain words, classes, digits.
        for p in ["kernel", "^[0-9]+$", "\\w+", "a.c", "x|y-z", "foo_[0-9]"] {
            assert!(re(p).can_match_identifier(), "{p}");
        }
        // Definitely unsatisfiable: every accepting path needs a byte
        // outside the identifier alphabet.
        for p in ["foo-bar", "[^a-zA-Z0-9_]", "a\\.b", "\\s", "a б"] {
            assert!(!re(p).can_match_identifier(), "{p}");
        }
        // Anchors are passable (sound under-approximation of emptiness):
        // `^foo$` stays "satisfiable".
        assert!(re("^foo$").can_match_identifier());
        // General alphabets work too.
        assert!(re("[0-9]+").matchable_over(|b| b.is_ascii_digit()));
        assert!(!re("[a-z]").matchable_over(|b| b.is_ascii_digit()));
    }

    #[test]
    fn no_exponential_blowup() {
        // Classic pathological case for backtracking engines.
        let r = re("^(a*)*b$");
        let text = "a".repeat(200);
        assert!(!r.is_match(&text));
        let ok = format!("{}b", "a".repeat(200));
        assert!(r.is_match(&ok));
    }
}
