//! The report's JSON text: the apply/scan report and its SARIF rendering
//! pinned byte for byte on a fixture that carries every optional block,
//! and the `--resume` reader (`ApplyReport::from_json`) fuzzed with
//! mutants of that text.

use cocci_core::{
    to_sarif_with, ApplyReport, AttemptTrace, ExplainBlock, FileReport, FileStatus, Finding,
    KillStage, PoolMetrics, RuleOutcome, RunMetrics, SarifRule,
};
use cocci_tests::{Runner, SplitMix64};

/// Every escape class the writer knows, plus characters it passes
/// through unchanged (`/`, non-ASCII).
const ESCAPES: &str = "q\"b\\s/n\nt\tr\rc\u{1}\u{1f}é😀";

fn finding(path: &str, line: u32, rule: &str, message: &str, bindings: &[(&str, &str)]) -> Finding {
    Finding {
        path: path.into(),
        line,
        col: 5,
        end_line: line,
        end_col: 17,
        rule: rule.into(),
        message: message.into(),
        bindings: bindings
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    }
}

fn row(name: &str, status: FileStatus, seconds: f64, hash: u64) -> FileReport {
    FileReport {
        name: name.into(),
        status,
        matches: 0,
        witnesses: 0,
        seconds,
        hash,
        error: None,
        findings: Vec::new(),
        rules: Vec::new(),
        rules_pruned: 0,
        suppressed: 0,
        kill_stage: None,
    }
}

/// A report with every optional block: metrics with phases, counters
/// and pool; lints; an explain block with dropped attempts; per-rule
/// rows; a finding with bindings; `timeout` and `error` rows.
fn fixture() -> ApplyReport {
    let changed = FileReport {
        matches: 3,
        witnesses: 2,
        error: None,
        findings: vec![finding(
            "src/a.c",
            12,
            "use-new-api",
            ESCAPES,
            &[("e", "q + 1"), ("f", "x[\"k\"]")],
        )],
        rules: vec![
            RuleOutcome {
                id: "use-new-api".into(),
                status: FileStatus::Matched,
                matches: 3,
                findings: 1,
                suppressed: 1,
                seconds: 2.5e-4,
                kill_stage: Some(KillStage::Completed),
            },
            RuleOutcome {
                id: "no-old-free".into(),
                status: FileStatus::Unmatched,
                matches: 0,
                findings: 0,
                suppressed: 0,
                seconds: 1e-5,
                kill_stage: None,
            },
        ],
        rules_pruned: 2,
        suppressed: 1,
        kill_stage: Some(KillStage::Completed),
        ..row(
            "src/a.c",
            FileStatus::Changed,
            1.5e-3,
            0xDEAD_BEEF_CAFE_0123,
        )
    };
    let timeout = FileReport {
        error: Some("exceeded per-file time budget (5 ms)".into()),
        kill_stage: Some(KillStage::Timeout),
        ..row("slow.c", FileStatus::Timeout, 0.0625, 7)
    };
    let error = FileReport {
        error: Some(format!("cannot parse {ESCAPES}")),
        ..row(ESCAPES, FileStatus::Error, 5e-5, 0)
    };
    let pruned = FileReport {
        kill_stage: Some(KillStage::Prefilter),
        ..row("src/skip.c", FileStatus::Pruned, 2e-6, 0x0123)
    };
    let pairs = |kv: &[(&str, u64)]| kv.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    ApplyReport {
        patch: format!("rules/{ESCAPES}"),
        patch_hash: 0xFEED_FACE_0000_0042,
        threads: 2,
        prefilter: true,
        resumed: 1,
        total_seconds: 0.125,
        metrics: Some(RunMetrics {
            phase_counts: pairs(&[("parse", 3), ("tree_match", 5)]),
            phase_ns: pairs(&[("parse", 1_200_000), ("tree_match", 800_000)]),
            counters: pairs(&[("attempts", 9), ("files_parsed", 3)]),
            pool: Some(PoolMetrics {
                workers: 2,
                steals: 7,
                idle_ns: 50_000_000,
                queue_depth_max: 12,
            }),
        }),
        lints: vec![finding(
            "rules/old.cocci",
            1,
            "SPL01",
            "rule r: metavariable `x` is declared but never used",
            &[],
        )],
        explain: Some(ExplainBlock {
            attempts: vec![
                AttemptTrace {
                    file: "src/a.c".into(),
                    rule: "no-old-free".into(),
                    stage: KillStage::Anchor,
                    detail: Some(format!("no anchor hit: {ESCAPES}")),
                },
                AttemptTrace {
                    file: "src/a.c".into(),
                    rule: "use-new-api".into(),
                    stage: KillStage::Completed,
                    detail: None,
                },
            ],
            dropped: 3,
        }),
        files: vec![changed, pruned, timeout, error],
    }
}

fn sarif_rules() -> Vec<SarifRule> {
    vec![
        SarifRule {
            id: "use-new-api".into(),
            level: "warning",
            description: format!("old API: {ESCAPES}"),
        },
        SarifRule {
            id: "quiet-rule".into(),
            level: "error",
            description: "never fired".into(),
        },
    ]
}

#[test]
fn report_json_bytes_are_pinned() {
    let expect = r#"{
  "patch": "rules/q\"b\\s/n\nt\tr\rc\u0001\u001fé😀",
  "patch_hash": "feedface00000042",
  "threads": 2,
  "prefilter": true,
  "resumed": 1,
  "total_seconds": 1.25e-1,
  "counts": {"pruned": 1, "unmatched": 0, "matched": 0, "changed": 1, "timeout": 1, "error": 1},
  "metrics": {"phases": {"parse": {"count": 3, "ns": 1200000}, "tree_match": {"count": 5, "ns": 800000}}, "counters": {"attempts": 9, "files_parsed": 3}, "pool": {"workers": 2, "steals": 7, "idle_ns": 50000000, "queue_depth_max": 12}},
  "lints": [{"path": "rules/old.cocci", "line": 1, "col": 5, "end_line": 1, "end_col": 17, "rule": "SPL01", "message": "rule r: metavariable `x` is declared but never used"}],
  "explain": {"attempts": [{"file": "src/a.c", "rule": "no-old-free", "stage": "anchor", "detail": "no anchor hit: q\"b\\s/n\nt\tr\rc\u0001\u001fé😀"}, {"file": "src/a.c", "rule": "use-new-api", "stage": "completed"}], "dropped": 3},
  "files": [
    {"name": "src/a.c", "status": "changed", "matches": 3, "witnesses": 2, "seconds": 1.5e-3, "hash": "deadbeefcafe0123", "suppressed": 1, "rules_pruned": 2, "kill_stage": "completed", "rules": [{"id": "use-new-api", "status": "matched", "matches": 3, "findings": 1, "suppressed": 1, "seconds": 2.5e-4, "kill_stage": "completed"}, {"id": "no-old-free", "status": "unmatched", "matches": 0, "findings": 0, "suppressed": 0, "seconds": 1e-5}], "findings": [{"path": "src/a.c", "line": 12, "col": 5, "end_line": 12, "end_col": 17, "rule": "use-new-api", "message": "q\"b\\s/n\nt\tr\rc\u0001\u001fé😀", "bindings": [["e", "q + 1"], ["f", "x[\"k\"]"]]}]},
    {"name": "src/skip.c", "status": "pruned", "matches": 0, "witnesses": 0, "seconds": 2e-6, "hash": "0000000000000123", "kill_stage": "prefilter"},
    {"name": "slow.c", "status": "timeout", "matches": 0, "witnesses": 0, "seconds": 6.25e-2, "hash": "0000000000000007", "error": "exceeded per-file time budget (5 ms)", "kill_stage": "timeout"},
    {"name": "q\"b\\s/n\nt\tr\rc\u0001\u001fé😀", "status": "error", "matches": 0, "witnesses": 0, "seconds": 5e-5, "hash": "0000000000000000", "error": "cannot parse q\"b\\s/n\nt\tr\rc\u0001\u001fé😀"}
  ]
}
"#;
    let text = fixture().to_json();
    assert_eq!(text, expect);
}

#[test]
fn sarif_bytes_are_pinned() {
    let expect = r#"{
  "version": "2.1.0",
  "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
  "runs": [{
    "tool": {"driver": {"name": "spatch", "informationUri": "https://coccinelle.gitlabpages.inria.fr/website/", "rules": [{"id": "SPL01", "shortDescription": {"text": "semantic-patch rule SPL01"}}, {"id": "quiet-rule", "shortDescription": {"text": "never fired"}, "defaultConfiguration": {"level": "error"}}, {"id": "use-new-api", "shortDescription": {"text": "old API: q\"b\\s/n\nt\tr\rc\u0001\u001fé😀"}, "defaultConfiguration": {"level": "warning"}}]}},
    "results": [
      {"ruleId": "SPL01", "level": "note", "message": {"text": "rule r: metavariable `x` is declared but never used"}, "locations": [{"physicalLocation": {"artifactLocation": {"uri": "rules/old.cocci"}, "region": {"startLine": 1, "startColumn": 5, "endLine": 1, "endColumn": 17}}}], "partialFingerprints": {"spatchFinding/v1": "777d9534f8c4a204"}},
      {"ruleId": "use-new-api", "level": "warning", "message": {"text": "q\"b\\s/n\nt\tr\rc\u0001\u001fé😀"}, "locations": [{"physicalLocation": {"artifactLocation": {"uri": "src/a.c"}, "region": {"startLine": 12, "startColumn": 5, "endLine": 12, "endColumn": 17}}}], "partialFingerprints": {"spatchFinding/v1": "aa1d06c424712578"}, "properties": {"killStage": "completed"}}
    ]
  }]
}
"#;
    let text = to_sarif_with(&fixture(), &sarif_rules());
    assert_eq!(text, expect);
}

/// Python's `json.dump` (default `ensure_ascii`) writes a character
/// outside the Basic Multilingual Plane as a UTF-16 surrogate-pair
/// escape. `--resume` must read such a report back to the original
/// name, or the file never matches its previous entry.
#[test]
fn python_escaped_non_bmp_name_reads_back() {
    let mut report = fixture();
    report.files.truncate(1);
    report.files[0].name = "src/😀.c".into();
    let text = report.to_json().replace('😀', "\\ud83d\\ude00");
    assert!(text.contains(r#""name": "src/\ud83d\ude00.c""#));
    let back = ApplyReport::from_json(&text).unwrap();
    assert_eq!(back.files[0].name, "src/😀.c");
}

/// Bytes a mutation may write: JSON punctuation, escape letters, hex
/// digits, number and literal characters, whitespace.
const ALPHABET: &[u8] = b"{}[]:,\"\\/ubfnrt0123456789aAcdeEF+-.ls \n\t";

/// One to three random edits of `text`: a byte substitution, a
/// truncation, a range deleted or duplicated, an insertion, or the whole
/// text wrapped in up to 2,000 `[`.
fn mutate(rng: &mut SplitMix64, text: &[u8]) -> Vec<u8> {
    let mut b = text.to_vec();
    for _ in 0..rng.gen_range(1..4) {
        let at = rng.gen_range(0..b.len() + 1);
        let end = (at + rng.gen_range(1..48)).min(b.len());
        let token = |rng: &mut SplitMix64| ALPHABET[rng.gen_range(0..ALPHABET.len())];
        match rng.gen_range(0..6) {
            0 if at < b.len() => b[at] = token(rng),
            1 => b.truncate(at),
            2 => drop(b.drain(at..end)),
            3 => {
                let dup = b[at..end].to_vec();
                b.splice(at..at, dup);
            }
            4 => {
                let ins: Vec<u8> = (0..rng.gen_range(1..7)).map(|_| token(rng)).collect();
                b.splice(at..at, ins);
            }
            _ => {
                let depth = rng.gen_range(1..2001);
                let close = if rng.gen_bool(0.5) { depth } else { 0 };
                b = [vec![b'['; depth], b, vec![b']'; close]].concat();
            }
        }
    }
    b
}

/// The `--resume` reader on mutants of a full report: it never panics
/// or overflows the stack, and whatever it accepts is a fixed point of
/// write-then-read.
#[test]
fn report_reader_survives_mutants() {
    let seed = fixture().to_json();
    let parsed = std::cell::Cell::new(0usize);
    let cases = 12_000;
    Runner::new("report_reader_survives_mutants")
        .cases(cases)
        .run(|rng| {
            let mutant = String::from_utf8_lossy(&mutate(rng, seed.as_bytes())).into_owned();
            if let Ok(report) = ApplyReport::from_json(&mutant) {
                parsed.set(parsed.get() + 1);
                let once = report.to_json();
                let again = ApplyReport::from_json(&once)
                    .unwrap_or_else(|e| panic!("own output unreadable: {e}\n{once}"));
                assert_eq!(again.to_json(), once, "not a fixed point:\n{mutant}");
            }
        });
    assert!(parsed.get() > cases / 20, "{} mutants parsed", parsed.get());
}
