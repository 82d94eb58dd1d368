//! The findings subsystem: reporting-only rules and their diagnostics.
//!
//! Several of the paper's use cases are *inspections*, not rewrites —
//! "find every call site of X on some path" — and upstream Coccinelle
//! ships a `report`/`org` mode for exactly that. A rule whose body is
//! pure context (no `+`/`-` lines) transforms nothing; instead, every
//! match witness it produces becomes a [`Finding`]: a `file:line:col`
//! record carrying the rule name, a message, and the witness's
//! metavariable bindings. Position metavariables (`position p;` bound
//! with `@p`) pin the finding to the annotated occurrence; without one
//! the finding anchors at the match root.
//!
//! Byte spans resolve to 1-based line/column through the text's line
//! table at emit time ([`Resolver`]); findings then flow through
//! the driver ([`FileOutcome`](crate::FileOutcome)), the apply report
//! ([`FileReport`](crate::report::FileReport), JSON round trip,
//! `--resume` carries them forward for unchanged files), and out of the
//! CLI as grep-style text, report JSON, or SARIF 2.1.0
//! ([`to_sarif_with`]) for CI ingestion.

use crate::env::Value;
use crate::explain::KillStage;
use crate::matcher::MatchState;
use crate::report::json::{self, Fields, Str};
use crate::report::{ApplyReport, Fnv};
use cocci_smpl::{MetaDecl, MetaDeclKind};
use cocci_source::Span;
use std::collections::{BTreeSet, HashMap};
use std::fmt::{self, Write as _};

/// One diagnostic produced by a reporting-only rule (or by a script
/// rule's `coccilib.report.print_report`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Target file the finding points into.
    pub path: String,
    /// 1-based start line.
    pub line: u32,
    /// 1-based start column (byte-oriented).
    pub col: u32,
    /// 1-based end line (inclusive position of the span end).
    pub end_line: u32,
    /// 1-based end column.
    pub end_col: u32,
    /// Name of the rule that produced the finding (`<anonymous>` for
    /// nameless rules).
    pub rule: String,
    /// Human-readable message.
    pub message: String,
    /// Rendered metavariable bindings of the witness, in declaration
    /// order (position metavariables excluded — they are the location).
    pub bindings: Vec<(String, String)>,
}

impl fmt::Display for Finding {
    /// The grep-style text form: `file:line:col: rule: message`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

impl Finding {
    /// The grep-style text form ([`Display`](fmt::Display)) as a string.
    pub fn text_line(&self) -> String {
        self.to_string()
    }

    /// A stable identity for set comparison across output formats.
    pub fn key(&self) -> (String, u32, u32, String, String) {
        (
            self.path.clone(),
            self.line,
            self.col,
            self.rule.clone(),
            self.message.clone(),
        )
    }
}

/// Line/column resolution for one target file.
pub struct Resolver {
    /// The file's name, the path of its findings.
    name: String,
    /// Byte offset at which each line starts; `line_starts[0] == 0`.
    line_starts: Vec<u32>,
    /// Length of the text: later offsets clamp to it.
    len: u32,
}

impl Resolver {
    /// Precompute the line table of file `name`'s `text`.
    pub fn new(name: &str, text: &str) -> Resolver {
        let mut line_starts = vec![0];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        Resolver {
            name: name.to_string(),
            line_starts,
            len: text.len() as u32,
        }
    }

    /// 1-based line/column of a byte offset. Offsets past the end of the
    /// text clamp to its end.
    pub fn line_col(&self, offset: u32) -> (u32, u32) {
        let offset = offset.min(self.len);
        let line = self.line_starts.partition_point(|&start| start <= offset) - 1;
        (line as u32 + 1, offset - self.line_starts[line] + 1)
    }
}

/// Build the finding for one match witness of a reporting-only rule.
///
/// The anchor span is the first *declared* position metavariable bound
/// to a [`Value::Pos`] in the witness (declaration order — the rule
/// author's primary position), falling back to the merge of the
/// witness's real source pairs when the rule declares none.
pub fn finding_for_match(
    rule: &str,
    decls: &[MetaDecl],
    m: &MatchState,
    resolver: &Resolver,
    src: &str,
) -> Finding {
    let pos_span = decls
        .iter()
        .filter(|d| matches!(d.kind, MetaDeclKind::Position))
        .find_map(|d| match m.env.get(&d.name) {
            Some(Value::Pos { span, .. }) => Some(*span),
            _ => None,
        });
    let span = pos_span.unwrap_or_else(|| {
        m.pairs
            .iter()
            .filter(|p| !p.src.is_synthetic() && !p.src.is_empty())
            .fold(Span::SYNTHETIC, |acc, p| acc.merge(p.src))
    });
    let span = if span.is_synthetic() {
        Span::empty(0)
    } else {
        span
    };
    let (line, col) = resolver.line_col(span.start);
    let (end_line, end_col) = resolver.line_col(span.end);
    let mut bindings = Vec::new();
    for d in decls {
        if matches!(d.kind, MetaDeclKind::Position) {
            continue;
        }
        if let Some(v) = m.env.get(&d.name) {
            bindings.push((d.name.clone(), v.render(src)));
        }
    }
    Finding {
        path: resolver.name.clone(),
        line,
        col,
        end_line,
        end_col,
        rule: rule.to_string(),
        message: "matched".to_string(),
        bindings,
    }
}

/// Write one finding as a JSON object (used inside apply reports).
pub fn write_finding(out: &mut String, f: &Finding) {
    let _ = write!(
        out,
        "{{\"path\": {}, \"line\": {}, \"col\": {}, \"end_line\": {}, \"end_col\": {}, \"rule\": {}, \"message\": {}",
        Str(&f.path),
        f.line,
        f.col,
        f.end_line,
        f.end_col,
        Str(&f.rule),
        Str(&f.message),
    );
    if !f.bindings.is_empty() {
        // An array of [name, value] pairs, not an object: the JSON reader
        // keeps objects in a BTreeMap, which would lose the documented
        // declaration order across a round trip.
        out.push_str(", \"bindings\": [");
        json::join(out, ", ", &f.bindings, |out, (k, v)| {
            let _ = write!(out, "[{}, {}]", Str(k), Str(v));
        });
        out.push(']');
    }
    out.push('}');
}

/// Parse one finding back from its JSON object form.
pub fn finding_from_json(v: &json::Value) -> Result<Finding, String> {
    let f = Fields::new(v, "finding")?;
    let pair = |b: &json::Value| match b.as_array() {
        Some([json::Value::Str(k), json::Value::Str(v)]) => Ok((k.clone(), v.clone())),
        _ => Err("finding: binding entry not a [name, value] pair".to_string()),
    };
    Ok(Finding {
        path: f.str("path")?,
        line: f.num("line") as u32,
        col: f.num("col") as u32,
        end_line: f.num("end_line") as u32,
        end_col: f.num("end_col") as u32,
        rule: f.str("rule")?,
        message: f.str("message")?,
        bindings: f.list("bindings", pair)?,
    })
}

/// Presentation metadata for one rule in SARIF output — the bridge
/// between a scan rule set's [`RuleMeta`](crate::RuleMeta) and the
/// `tool.driver.rules` section.
#[derive(Debug, Clone)]
pub struct SarifRule {
    /// The SARIF `ruleId`.
    pub id: String,
    /// The SARIF `level` (`error` | `warning` | `note`).
    pub level: &'static str,
    /// Short description shown by SARIF viewers.
    pub description: String,
}

/// `path` as an RFC 3986 URI reference: every byte outside the
/// unreserved set and `/` is percent-encoded, so a space, `#`, `%` or
/// non-ASCII byte cannot end or change the reference.
fn uri_reference(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    for b in path.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~' | b'/') {
            out.push(char::from(b));
        } else {
            let _ = write!(out, "%{b:02X}");
        }
    }
    out
}

/// The rule descriptors of one SARIF document, indexed by id (the first
/// descriptor given for an id wins): the tool section the head lists,
/// and the `level` each result reads.
pub struct SarifIndex<'a> {
    by_id: HashMap<&'a str, &'a SarifRule>,
}

/// The SARIF text after the last result.
pub const SARIF_TAIL: &str = "\n    ]\n  }]\n}\n";

impl<'a> SarifIndex<'a> {
    /// Index `rules`.
    pub fn new(rules: &'a [SarifRule]) -> SarifIndex<'a> {
        let mut by_id = HashMap::with_capacity(rules.len());
        for r in rules {
            by_id.entry(r.id.as_str()).or_insert(r);
        }
        SarifIndex { by_id }
    }

    /// Write the SARIF text before the first result. The tool section
    /// lists the descriptor ids and `finding_rules` (the rule ids of
    /// every finding the document holds), once each, sorted; an id
    /// without a descriptor gets a generated entry.
    pub fn write_head<'i>(
        &self,
        out: &mut String,
        finding_rules: impl IntoIterator<Item = &'i str>,
    ) {
        let mut rule_ids: BTreeSet<&str> = finding_rules.into_iter().collect();
        rule_ids.extend(self.by_id.keys());
        out.push_str("{\n");
        out.push_str("  \"version\": \"2.1.0\",\n");
        out.push_str(
            "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
        );
        out.push_str("  \"runs\": [{\n");
        out.push_str("    \"tool\": {\"driver\": {\"name\": \"spatch\", \"informationUri\": \"https://coccinelle.gitlabpages.inria.fr/website/\", \"rules\": [");
        json::join(out, ", ", &rule_ids, |out, &id| {
            let _ = write!(
                out,
                "{{\"id\": {}, \"shortDescription\": {{\"text\": ",
                Str(id)
            );
            let _ = match self.by_id.get(id) {
                Some(r) => write!(
                    out,
                    "{}}}, \"defaultConfiguration\": {{\"level\": \"{}\"}}}}",
                    Str(&r.description),
                    r.level
                ),
                None => write!(out, "{}}}}}", Str(&format!("semantic-patch rule {id}"))),
            };
        });
        out.push_str("]}},\n");
        out.push_str("    \"results\": [");
    }

    /// Write one file's findings as results, each on a line of its own
    /// and joined by `,`; `kill_stage` is the file's funnel stage (`None`
    /// for the rule lints). A document joins the non-empty pieces of its
    /// lints and then of each file by `,`, between the head and
    /// [`SARIF_TAIL`].
    pub fn write_results(
        &self,
        out: &mut String,
        findings: &[Finding],
        kill_stage: Option<KillStage>,
    ) {
        // A file's findings share its path: encode its URI once.
        let mut uri: (Option<&str>, String) = (None, String::new());
        json::join(out, ",", findings, |out, f| {
            if uri.0 != Some(f.path.as_str()) {
                uri = (Some(&f.path), uri_reference(&f.path));
            }
            let level = self.by_id.get(f.rule.as_str()).map_or("note", |r| r.level);
            // A content-derived fingerprint so result trackers can match
            // findings across runs even as unrelated lines shift.
            let mut fingerprint = Fnv::new();
            let _ = write!(
                fingerprint,
                "{}:{}:{}:{}:{}",
                f.path, f.line, f.col, f.rule, f.message
            );
            // The URI is percent-encoded ASCII: it needs no JSON escapes.
            let _ = write!(
                out,
                "\n      {{\"ruleId\": {}, \"level\": \"{}\", \"message\": {{\"text\": {}}}, \
                 \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
                 \"region\": {{\"startLine\": {}, \"startColumn\": {}, \"endLine\": {}, \"endColumn\": {}}}}}}}], \
                 \"partialFingerprints\": {{\"spatchFinding/v1\": \"{:016x}\"}}",
                Str(&f.rule),
                level,
                Str(&f.message),
                uri.1,
                f.line.max(1),
                f.col.max(1),
                f.end_line.max(1),
                f.end_col.max(1),
                fingerprint.0,
            );
            if let Some(k) = kill_stage {
                let _ = write!(out, ", \"properties\": {{\"killStage\": \"{}\"}}", k.name());
            }
            out.push('}');
        });
    }
}

/// Render every finding of a report as a SARIF 2.1.0 document, the
/// interchange format CI systems (GitHub code scanning among them)
/// ingest: one run, one rule entry per distinct rule id, one result per
/// finding with a single physical location. `rules` entries supply the
/// SARIF `level` and description for their ids (scan mode passes every
/// loaded rule, so the tool section is complete — and byte-stable —
/// even for rules with zero findings this run). Finding rule ids
/// without a descriptor still get a generated entry, and their results
/// sit at `note`. Artifact URIs are percent-encoded paths; fingerprints
/// hash the raw path.
///
/// The document is [`SarifIndex::write_head`], the results of the lints
/// and then of each file ([`SarifIndex::write_results`]), and
/// [`SARIF_TAIL`].
pub fn to_sarif_with(report: &ApplyReport, rules: &[SarifRule]) -> String {
    let index = SarifIndex::new(rules);
    // Lint diagnostics ride along as ordinary results: their "rule" is
    // the lint id and their location points into the rule source file.
    // Corpus findings carry their file's funnel kill stage along so CI
    // result processors can group by how far the attempt got.
    let pieces = std::iter::once((&report.lints, None))
        .chain(report.files.iter().map(|f| (&f.findings, f.kill_stage)))
        .filter(|(findings, _)| !findings.is_empty());
    let mut out = String::new();
    index.write_head(
        &mut out,
        pieces
            .clone()
            .flat_map(|(findings, _)| findings)
            .map(|f| f.rule.as_str()),
    );
    json::join(&mut out, ",", pieces, |out, (findings, kill_stage)| {
        index.write_results(out, findings, kill_stage)
    });
    out.push_str(SARIF_TAIL);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{FileReport, FileStatus};

    fn sample_finding() -> Finding {
        Finding {
            path: "src/a.c".into(),
            line: 3,
            col: 5,
            end_line: 3,
            end_col: 14,
            rule: "r".into(),
            message: "matched".into(),
            // Deliberately out of alphabetical order: the round trip
            // must preserve declaration order, not sort.
            bindings: vec![("z".into(), "q + 1".into()), ("a".into(), "w".into())],
        }
    }

    #[test]
    fn text_line_is_grep_style() {
        assert_eq!(sample_finding().text_line(), "src/a.c:3:5: r: matched");
    }

    #[test]
    fn finding_json_round_trips() {
        let f = sample_finding();
        let mut j = String::new();
        write_finding(&mut j, &f);
        let v = json::parse(&j).unwrap();
        let back = finding_from_json(&v).unwrap();
        assert_eq!(back, f);
        // Bindings are optional in the wire form.
        let bare = r#"{"path": "x.c", "line": 1, "col": 2, "end_line": 1, "end_col": 3,
            "rule": "r", "message": "m"}"#;
        let back = finding_from_json(&json::parse(bare).unwrap()).unwrap();
        assert!(back.bindings.is_empty());
        // Malformed binding entries are loud errors, not silent drops.
        let bad = r#"{"path": "x.c", "line": 1, "col": 2, "end_line": 1, "end_col": 3,
            "rule": "r", "message": "m", "bindings": [["only-one"]]}"#;
        assert!(finding_from_json(&json::parse(bad).unwrap()).is_err());
    }

    #[test]
    fn resolver_maps_offsets_to_line_col() {
        let r = Resolver::new("a.c", "int x;\nint y;\n");
        assert_eq!(r.line_col(0), (1, 1));
        assert_eq!(r.line_col(4), (1, 5));
        assert_eq!(r.line_col(7), (2, 1));
        assert_eq!(r.line_col(12), (2, 6));
        assert_eq!(r.line_col(13), (2, 7));
        // Past the end clamps to the end.
        assert_eq!(Resolver::new("a.c", "ab").line_col(100), (1, 3));
        // An empty text is one empty line.
        assert_eq!(Resolver::new("e.c", "").line_col(0), (1, 1));
    }

    #[test]
    fn sarif_has_required_shape() {
        let report = ApplyReport {
            patch: "p.cocci".into(),
            patch_hash: 1,
            threads: 1,
            prefilter: true,
            resumed: 0,
            total_seconds: 0.0,
            metrics: None,
            lints: Vec::new(),
            explain: None,
            files: vec![FileReport {
                name: "src/a.c".into(),
                status: FileStatus::Matched,
                matches: 1,
                witnesses: 0,
                seconds: 0.0,
                hash: 1,
                error: None,
                findings: vec![sample_finding()],
                rules: Vec::new(),
                rules_pruned: 0,
                suppressed: 0,
                kill_stage: Some(crate::explain::KillStage::Completed),
            }],
        };
        let sarif = to_sarif_with(&report, &[]);
        let v = json::parse(&sarif).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o.get("version").unwrap().as_str(), Some("2.1.0"));
        let runs = o.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 1);
        let run = runs[0].as_object().unwrap();
        let results = run.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 1);
        let res = results[0].as_object().unwrap();
        assert_eq!(res.get("ruleId").unwrap().as_str(), Some("r"));
        let loc = res.get("locations").unwrap().as_array().unwrap()[0]
            .as_object()
            .unwrap()
            .get("physicalLocation")
            .unwrap()
            .as_object()
            .unwrap();
        let region = loc.get("region").unwrap().as_object().unwrap();
        assert_eq!(region.get("startLine").unwrap().as_f64(), Some(3.0));
        // The tool section names every distinct rule once.
        let driver = run
            .get("tool")
            .unwrap()
            .as_object()
            .unwrap()
            .get("driver")
            .unwrap()
            .as_object()
            .unwrap();
        assert_eq!(driver.get("name").unwrap().as_str(), Some("spatch"));
        assert_eq!(driver.get("rules").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn sarif_uris_percent_encode_reserved_bytes() {
        assert_eq!(uri_reference("src/a-b_c.~1.c"), "src/a-b_c.~1.c");
        assert_eq!(uri_reference("sarif/a b#1%.c"), "sarif/a%20b%231%25.c");
        assert_eq!(uri_reference("d\\é?.c"), "d%5C%C3%A9%3F.c");
        let f = Finding {
            path: "sarif/a b#1%.c".into(),
            ..sample_finding()
        };
        let report = ApplyReport {
            patch: "p.cocci".into(),
            patch_hash: 1,
            threads: 1,
            prefilter: true,
            resumed: 0,
            total_seconds: 0.0,
            metrics: None,
            lints: vec![f.clone()],
            explain: None,
            files: Vec::new(),
        };
        let v = json::parse(&to_sarif_with(&report, &[])).unwrap();
        let at = |v: &json::Value, key: &str| v.as_object().unwrap()[key].clone();
        let first = |v: json::Value| v.as_array().unwrap()[0].clone();
        let result = first(at(&first(at(&v, "runs")), "results"));
        let location = at(&first(at(&result, "locations")), "physicalLocation");
        let uri = at(&at(&location, "artifactLocation"), "uri");
        assert_eq!(uri.as_str(), Some("sarif/a%20b%231%25.c"));
        // The fingerprint and the text form keep the raw path.
        let raw = crate::report::content_hash("sarif/a b#1%.c:3:5:r:matched");
        let fingerprint = at(&at(&result, "partialFingerprints"), "spatchFinding/v1");
        assert_eq!(fingerprint.as_str(), Some(format!("{raw:016x}").as_str()));
        assert_eq!(f.text_line(), "sarif/a b#1%.c:3:5: r: matched");
    }

    #[test]
    fn sarif_rule_metadata_sets_levels_and_lists_findingless_rules() {
        let report = ApplyReport {
            patch: "rules/".into(),
            patch_hash: 1,
            threads: 1,
            prefilter: true,
            resumed: 0,
            total_seconds: 0.0,
            metrics: None,
            lints: Vec::new(),
            explain: None,
            files: vec![FileReport {
                name: "src/a.c".into(),
                status: FileStatus::Matched,
                matches: 1,
                witnesses: 0,
                seconds: 0.0,
                hash: 1,
                error: None,
                findings: vec![sample_finding()],
                rules: Vec::new(),
                rules_pruned: 0,
                suppressed: 0,
                kill_stage: None,
            }],
        };
        let rules = vec![
            SarifRule {
                id: "r".into(),
                level: "warning",
                description: "old API is deprecated".into(),
            },
            // A loaded rule with zero findings this run still appears in
            // the tool section (keeps the output shape rule-stable).
            SarifRule {
                id: "quiet-rule".into(),
                level: "error",
                description: "never fired".into(),
            },
        ];
        let sarif = to_sarif_with(&report, &rules);
        let v = json::parse(&sarif).unwrap();
        let run = v
            .as_object()
            .unwrap()
            .get("runs")
            .unwrap()
            .as_array()
            .unwrap()[0]
            .as_object()
            .unwrap()
            .clone();
        let listed = run
            .get("tool")
            .unwrap()
            .as_object()
            .unwrap()
            .get("driver")
            .unwrap()
            .as_object()
            .unwrap()
            .get("rules")
            .unwrap()
            .as_array()
            .unwrap()
            .to_vec();
        let ids: Vec<&str> = listed
            .iter()
            .map(|r| r.as_object().unwrap().get("id").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(ids, ["quiet-rule", "r"], "sorted, findingless included");
        let r_entry = listed[1].as_object().unwrap();
        assert_eq!(
            r_entry
                .get("defaultConfiguration")
                .unwrap()
                .as_object()
                .unwrap()
                .get("level")
                .unwrap()
                .as_str(),
            Some("warning")
        );
        let result = run.get("results").unwrap().as_array().unwrap()[0]
            .as_object()
            .unwrap()
            .clone();
        assert_eq!(result.get("level").unwrap().as_str(), Some("warning"));
    }
}
