//! The explain engine: per-attempt match funnels and kill-stage
//! attribution.
//!
//! Every (file × rule) **attempt** the engine makes either completes
//! (rewrote the file or reported findings) or dies at exactly one
//! pipeline stage. This module gives that decision a name — a
//! [`KillStage`] — and two surfaces built on it:
//!
//! - **The cheap half, always computed:** each attempt stores one
//!   `KillStage` into its outcome ([`FileOutcome`](crate::FileOutcome),
//!   [`RuleOutcome`](crate::RuleOutcome)) and bumps the funnel counters
//!   in `cocci-trace` (one relaxed atomic add per attempt when tracing
//!   is on, nothing otherwise). `--stats` renders them as a funnel
//!   table: attempts → survived prefilter → parsed → anchored → gaps
//!   clean → bindings consistent → completed.
//! - **Full traces, opt-in:** `spatch --explain [FILE_GLOB[:RULE_ID]]`
//!   additionally materializes an [`AttemptTrace`] per matching attempt
//!   — stage plus a human-readable detail (which required atoms were
//!   absent, the gap-walk failure, the conflicting edit) — annotated in
//!   per-file text output and embedded as an `explain` block in the
//!   JSON report. Kill sites also emit Chrome-trace instant events
//!   (ring-buffered like spans) so Perfetto shows where attempts die.
//!
//! The funnel is exact by construction: counters and per-outcome
//! stages are stored at the same single point per attempt
//! ([`record_attempt`]), so the `--stats` table, the report `metrics`
//! counters, and the sum of per-file outcomes always reconcile.

use crate::report::json::{self, Fields, Str, Value};
use std::fmt::{self, Write as _};

/// The pipeline stage that ended one (file × rule) attempt. `Completed`
/// means the attempt survived the whole funnel (rewrote or reported).
///
/// Variants are ordered by funnel depth: a stage kills an attempt
/// before every later stage could have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KillStage {
    /// The literal-atom prefilter proved the rule cannot match.
    Prefilter,
    /// The target file would not parse.
    Parse,
    /// The pattern anchor hit nothing in the file.
    Anchor,
    /// Every anchor hit died walking a dots gap (quantifier
    /// unsatisfied, escaped node, `when !=` kill).
    GapWalk,
    /// Witness-group binding conflicts killed every match.
    Bindings,
    /// The surviving matches produced conflicting edits.
    EditConflict,
    /// Every finding was dropped by inline `spatch-ignore` markers.
    Suppressed,
    /// The per-file time budget expired.
    Timeout,
    /// Survived: the attempt rewrote the file or reported findings
    /// (or matched with nothing to change).
    Completed,
}

impl KillStage {
    /// Every stage, in funnel order (`Completed` last).
    pub const ALL: [KillStage; 9] = [
        KillStage::Prefilter,
        KillStage::Parse,
        KillStage::Anchor,
        KillStage::GapWalk,
        KillStage::Bindings,
        KillStage::EditConflict,
        KillStage::Suppressed,
        KillStage::Timeout,
        KillStage::Completed,
    ];

    /// Stable identifier used in reports, stats, and traces.
    pub fn name(self) -> &'static str {
        match self {
            KillStage::Prefilter => "prefilter",
            KillStage::Parse => "parse",
            KillStage::Anchor => "anchor",
            KillStage::GapWalk => "gap_walk",
            KillStage::Bindings => "bindings",
            KillStage::EditConflict => "edit_conflict",
            KillStage::Suppressed => "suppressed",
            KillStage::Timeout => "timeout",
            KillStage::Completed => "completed",
        }
    }

    /// Parse the [`name`](KillStage::name) spelling back.
    pub fn parse(s: &str) -> Option<KillStage> {
        KillStage::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The `cocci-trace` kill counter for this stage (`None` for
    /// `Completed`: survivors are `attempts - Σ kills`).
    pub fn counter(self) -> Option<cocci_trace::Counter> {
        use cocci_trace::Counter;
        match self {
            KillStage::Prefilter => Some(Counter::KillPrefilter),
            KillStage::Parse => Some(Counter::KillParse),
            KillStage::Anchor => Some(Counter::KillAnchor),
            KillStage::GapWalk => Some(Counter::KillGapWalk),
            KillStage::Bindings => Some(Counter::KillBindings),
            KillStage::EditConflict => Some(Counter::KillEditConflict),
            KillStage::Suppressed => Some(Counter::KillSuppressed),
            KillStage::Timeout => Some(Counter::KillTimeout),
            KillStage::Completed => None,
        }
    }
}

impl fmt::Display for KillStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Record the end of one (file × rule) attempt: bump the funnel
/// counters and, at kill sites, emit a Chrome-trace instant event so
/// Perfetto shows where the attempt died. One relaxed atomic probe
/// when tracing is off; the detail string is only assembled when it
/// will actually be recorded.
pub fn record_attempt(stage: KillStage, file: &str, rule: &str, detail: Option<&str>) {
    if !cocci_trace::is_enabled() {
        return;
    }
    cocci_trace::count(cocci_trace::Counter::Attempts, 1);
    if let Some(counter) = stage.counter() {
        cocci_trace::count(counter, 1);
        let label = match detail {
            Some(d) => format!("{file}: {rule}: {d}"),
            None => format!("{file}: {rule}"),
        };
        cocci_trace::instant(counter.name(), Some(&label));
    }
}

/// One transform-rule attempt inside a single file application, before
/// the driver knows the file name: the orchestrator records these into
/// [`ApplyStats`](crate::orchestrate::ApplyStats) and the per-file
/// pipeline turns them into counters ([`record_attempt`]) and — under
/// `--explain` — [`AttemptTrace`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleAttempt {
    /// Rule name (`<anonymous>` if unnamed) or scan rule id.
    pub rule: String,
    /// The stage that ended the attempt.
    pub stage: KillStage,
    /// Stage-specific context, assembled only when `--explain` asked
    /// for this (file, rule).
    pub detail: Option<String>,
}

/// What the matcher saw during one transform-rule run, for kill-stage
/// attribution: how many anchors hit and where the failed attempts
/// died. The stage is resolved deepest-first — the funnel records how
/// far the rule's *best* attempt got.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttemptProbe {
    /// Anchor hits (flow route: CFG nodes matching the first anchor;
    /// tree route: full-pattern matches).
    pub anchors: u64,
    /// Flow attempts killed discharging a gap.
    pub gap_kills: u64,
    /// Flow attempts killed reconciling witness bindings.
    pub binding_kills: u64,
    /// Witness groups dropped by an earlier match's territory claim.
    pub group_blocked: u64,
    /// Witness groups dropped for contradictory member edits.
    pub contradictory: u64,
}

impl AttemptProbe {
    /// Resolve the stage for a rule whose final match set came out as
    /// `matched` (non-empty means the attempt completed).
    pub fn stage(&self, matched: bool) -> KillStage {
        if matched {
            KillStage::Completed
        } else if self.group_blocked + self.contradictory > 0 {
            KillStage::EditConflict
        } else if self.binding_kills > 0 {
            KillStage::Bindings
        } else if self.gap_kills > 0 {
            KillStage::GapWalk
        } else {
            KillStage::Anchor
        }
    }

    /// The `--explain` detail line for a killed attempt (`None` when
    /// nothing beyond the stage name is known).
    pub fn detail(&self, stage: KillStage) -> Option<String> {
        match stage {
            KillStage::Anchor => Some(match self.anchors {
                0 => "no anchor hit".to_string(),
                n => format!("{n} anchor hit(s), no match survived"),
            }),
            KillStage::GapWalk => Some(format!(
                "{} of {} anchor attempt(s) died in gap walks",
                self.gap_kills, self.anchors
            )),
            KillStage::Bindings => Some(format!(
                "{} attempt(s) failed witness binding reconciliation",
                self.binding_kills
            )),
            KillStage::EditConflict => Some(format!(
                "{} group(s) blocked by earlier claims, {} contradictory",
                self.group_blocked, self.contradictory
            )),
            _ => None,
        }
    }
}

/// One funnel row label and the kill stages consumed *up to and
/// including* that row. `--stats` and the report `explain` block both
/// derive the table from the same counters through [`funnel_rows`].
const FUNNEL: [(&str, KillStage); 6] = [
    ("survived_prefilter", KillStage::Prefilter),
    ("parsed", KillStage::Parse),
    ("anchored", KillStage::Anchor),
    ("gaps_clean", KillStage::GapWalk),
    ("bindings_consistent", KillStage::Bindings),
    // Edit conflicts, suppressions, and timeouts all land between
    // "bindings consistent" and done.
    ("completed", KillStage::Timeout),
];

/// Compute the funnel table from a counter lookup (name → value):
/// `attempts` first, then each survivor row as attempts minus every
/// kill at or before that row's stage.
pub fn funnel_rows(counter: impl Fn(&str) -> u64) -> Vec<(&'static str, u64)> {
    let attempts = counter("attempts");
    let mut rows = vec![("attempts", attempts)];
    for (label, through) in FUNNEL {
        let killed: u64 = KillStage::ALL
            .iter()
            .filter(|s| **s <= through)
            .filter_map(|s| s.counter())
            .map(|c| counter(c.name()))
            .sum();
        rows.push((label, attempts.saturating_sub(killed)));
    }
    rows
}

/// One fully-traced attempt: the rule, the stage that ended it, and a
/// human-readable reason. Produced only under `--explain` (the cheap
/// half stores just the stage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptTrace {
    /// Target file of the attempt.
    pub file: String,
    /// Rule id (scan) or rule name (apply; `<anonymous>` if unnamed).
    pub rule: String,
    /// The stage that ended the attempt.
    pub stage: KillStage,
    /// Stage-specific context: absent prefilter atoms, the parse
    /// error, the gap-walk failure, the conflicting edit spans, ...
    pub detail: Option<String>,
}

impl AttemptTrace {
    /// The `--explain` text-annotation line (after `file: `).
    pub fn text(&self) -> String {
        match &self.detail {
            Some(d) => format!("{} [{}] {}", self.rule, self.stage, d),
            None => format!("{} [{}]", self.rule, self.stage),
        }
    }

    /// Write as one entry of the explain block's `"attempts"` array.
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"file\": {}, \"rule\": {}, \"stage\": \"{}\"",
            Str(&self.file),
            Str(&self.rule),
            self.stage
        );
        if let Some(d) = &self.detail {
            let _ = write!(out, ", \"detail\": {}", Str(d));
        }
        out.push('}');
    }

    fn from_json(v: &Value) -> Result<AttemptTrace, String> {
        let f = Fields::new(v, "explain attempt")?;
        Ok(AttemptTrace {
            file: f.str("file")?,
            rule: f.str("rule")?,
            stage: f.req("stage", |v| KillStage::parse(v.as_str()?))?,
            detail: f.opt_str("detail").map(str::to_string),
        })
    }
}

/// Attempt traces kept in a report's `explain` block before the rest
/// are counted as dropped — bounds report size on huge corpora the
/// same way the trace rings bound span memory.
pub const EXPLAIN_ATTEMPT_CAP: usize = 4096;

/// The report-embedded `explain` block: the traced attempts (capped at
/// [`EXPLAIN_ATTEMPT_CAP`], sorted by file then rule so the block is
/// byte-identical across thread counts) plus how many were dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExplainBlock {
    /// Traced attempts, ascending by (file, rule).
    pub attempts: Vec<AttemptTrace>,
    /// Attempts beyond the cap, counted instead of stored.
    pub dropped: u64,
}

impl ExplainBlock {
    /// Add every trace, keeping the block sorted and capped.
    pub fn extend(&mut self, traces: impl IntoIterator<Item = AttemptTrace>) {
        for t in traces {
            if self.attempts.len() < EXPLAIN_ATTEMPT_CAP {
                self.attempts.push(t);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Deterministic order for report embedding.
    pub fn finish(&mut self) {
        self.attempts
            .sort_by(|a, b| a.file.cmp(&b.file).then(a.rule.cmp(&b.rule)));
    }

    /// Write as the report's `"explain"` value.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"attempts\": [");
        json::join(out, ", ", &self.attempts, |out, a| a.write_json(out));
        out.push(']');
        if self.dropped > 0 {
            let _ = write!(out, ", \"dropped\": {}", self.dropped);
        }
        out.push('}');
    }

    /// Parse the report's `"explain"` value back.
    pub fn from_json(v: &Value) -> Result<ExplainBlock, String> {
        let f = Fields::new(v, "explain")?;
        Ok(ExplainBlock {
            attempts: f.list("attempts", AttemptTrace::from_json)?,
            dropped: f.num("dropped") as u64,
        })
    }
}

/// What `--explain [FILE_GLOB[:RULE_ID]]` asked to trace. With no
/// filter every attempt is traced; `FILE_GLOB` narrows by target file
/// (`*`/`?` wildcards, matched against the reported path and, for
/// convenience, its basename), `:RULE_ID` by rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExplainConfig {
    /// File filter (glob), `None` for all files.
    pub file_glob: Option<String>,
    /// Rule filter (exact id/name), `None` for all rules.
    pub rule: Option<String>,
}

impl ExplainConfig {
    /// Parse the flag's optional `FILE_GLOB[:RULE_ID]` value. An empty
    /// spec traces everything; `:rule` alone filters by rule only.
    pub fn parse(spec: &str) -> ExplainConfig {
        let (glob, rule) = match spec.rsplit_once(':') {
            Some((g, r)) => (g, Some(r)),
            None => (spec, None),
        };
        let non_empty = |s: &str| (!s.is_empty()).then(|| s.to_string());
        ExplainConfig {
            file_glob: non_empty(glob),
            rule: rule.and_then(non_empty),
        }
    }

    /// Should this (file, rule) attempt be traced?
    pub fn matches(&self, file: &str, rule: &str) -> bool {
        if let Some(r) = &self.rule {
            if r != rule {
                return false;
            }
        }
        match &self.file_glob {
            None => true,
            Some(g) => {
                glob_match(g, file)
                    || file
                        .rsplit(['/', '\\'])
                        .next()
                        .is_some_and(|base| glob_match(g, base))
            }
        }
    }
}

/// Minimal glob matcher: `*` matches any run (including `/`), `?` one
/// character, everything else literally.
fn glob_match(pat: &str, name: &str) -> bool {
    let p: Vec<char> = pat.chars().collect();
    let n: Vec<char> = name.chars().collect();
    // Iterative backtracking over the last `*`.
    let (mut pi, mut ni) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while ni < n.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = pi;
            mark = ni;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            mark += 1;
            ni = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for s in KillStage::ALL {
            assert_eq!(KillStage::parse(s.name()), Some(s), "{s}");
        }
        assert_eq!(KillStage::parse("bogus"), None);
        // Every kill stage has a counter; only Completed does not.
        for s in KillStage::ALL {
            assert_eq!(s.counter().is_none(), s == KillStage::Completed, "{s}");
        }
    }

    #[test]
    fn funnel_rows_are_monotone_and_exact() {
        let counters: std::collections::BTreeMap<&str, u64> = [
            ("attempts", 100),
            ("kill_prefilter", 40),
            ("kill_parse", 5),
            ("kill_anchor", 20),
            ("kill_gap_walk", 10),
            ("kill_bindings", 3),
            ("kill_edit_conflict", 1),
            ("kill_suppressed", 2),
            ("kill_timeout", 4),
        ]
        .into_iter()
        .collect();
        let rows = funnel_rows(|name| counters.get(name).copied().unwrap_or(0));
        let values: Vec<u64> = rows.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, [100, 60, 55, 35, 25, 22, 15]);
        assert!(values.windows(2).all(|w| w[0] >= w[1]), "monotone funnel");
        assert_eq!(rows[0].0, "attempts");
        assert_eq!(rows.last().unwrap().0, "completed");
    }

    #[test]
    fn explain_config_parses_and_filters() {
        let all = ExplainConfig::parse("");
        assert!(all.matches("src/a.c", "r1"));

        let by_file = ExplainConfig::parse("src/*.c");
        assert!(by_file.matches("src/a.c", "r1"));
        assert!(!by_file.matches("lib/a.h", "r1"));

        let by_both = ExplainConfig::parse("*.c:r1");
        assert!(by_both.matches("deep/dir/x.c", "r1"), "basename matching");
        assert!(!by_both.matches("deep/dir/x.c", "r2"));

        let by_rule = ExplainConfig::parse(":r2");
        assert!(by_rule.matches("anything.c", "r2"));
        assert!(!by_rule.matches("anything.c", "r1"));
    }

    #[test]
    fn glob_matcher_handles_stars_and_questions() {
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a*c", "abc"));
        assert!(glob_match("a*c", "ac"));
        assert!(!glob_match("a*c", "abd"));
        assert!(glob_match("file_?.c", "file_1.c"));
        assert!(!glob_match("file_?.c", "file_10.c"));
        assert!(glob_match("src/*/x.c", "src/deep/x.c"));
    }

    #[test]
    fn explain_block_json_round_trips_sorted_and_capped() {
        let mut block = ExplainBlock::default();
        block.extend([
            AttemptTrace {
                file: "b.c".into(),
                rule: "r2".into(),
                stage: KillStage::GapWalk,
                detail: Some("escaped node at 3:1".into()),
            },
            AttemptTrace {
                file: "a.c".into(),
                rule: "r1".into(),
                stage: KillStage::Completed,
                detail: None,
            },
        ]);
        block.finish();
        assert_eq!(block.attempts[0].file, "a.c", "sorted by file");
        let mut text = String::new();
        block.write_json(&mut text);
        let back = ExplainBlock::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, block);

        let mut big = ExplainBlock::default();
        big.extend((0..EXPLAIN_ATTEMPT_CAP + 7).map(|i| AttemptTrace {
            file: format!("f{i}.c"),
            rule: "r".into(),
            stage: KillStage::Anchor,
            detail: None,
        }));
        assert_eq!(big.attempts.len(), EXPLAIN_ATTEMPT_CAP);
        assert_eq!(big.dropped, 7);
    }
}
