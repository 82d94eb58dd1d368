//! Machine-readable apply reports.
//!
//! A corpus run produces an [`ApplyReport`]: one [`FileReport`] per file
//! (outcome, match count, wall-clock seconds) plus run-level metadata.
//! The report serializes to JSON ([`ApplyReport::to_json`]) for CI bots
//! and round-trips back ([`ApplyReport::from_json`]) through the
//! workspace's one JSON layer, [`cocci_trace::json`].

use crate::explain::{ExplainBlock, KillStage};
use crate::findings::{finding_from_json, write_finding, Finding};
use crate::scan::RuleOutcome;
use json::{Fields, Str, Value};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

pub use cocci_trace::json;

/// Classified outcome of one file. Ordered by severity: a file's status
/// is the most severe of its rules' statuses (`pruned` when none ran).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileStatus {
    /// Skipped by the prefilter before lexing/parsing.
    Pruned,
    /// Fully processed, zero matches.
    Unmatched,
    /// Matched at least one rule but produced no edits (pure-match rules).
    Matched,
    /// Edits were produced; [`FileOutcome::output`](crate::FileOutcome)
    /// holds the new text of an `--sp-file` patch.
    Changed,
    /// Exceeded the per-file time budget (`--timeout-ms`); abandoned at
    /// a rule boundary so the corpus run could move on.
    Timeout,
    /// Failed (parse error, edit conflict, unreadable file).
    Error,
}

impl FileStatus {
    /// All statuses, in display order.
    pub const ALL: [FileStatus; 6] = [
        FileStatus::Pruned,
        FileStatus::Unmatched,
        FileStatus::Matched,
        FileStatus::Changed,
        FileStatus::Timeout,
        FileStatus::Error,
    ];

    /// Stable string form used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            FileStatus::Pruned => "pruned",
            FileStatus::Unmatched => "unmatched",
            FileStatus::Matched => "matched",
            FileStatus::Changed => "changed",
            FileStatus::Timeout => "timeout",
            FileStatus::Error => "error",
        }
    }

    /// Parse the JSON string form.
    pub fn parse(s: &str) -> Option<FileStatus> {
        FileStatus::ALL.into_iter().find(|st| st.as_str() == s)
    }

    /// Whether `--resume` may copy this status forward for an unchanged
    /// file. Completed outcomes (pruned / unmatched / matched / changed)
    /// skip; `timeout` and `error` describe a *failed attempt*, not the
    /// file, so those files are re-attempted — a larger budget or a
    /// fixed engine may well succeed on the identical text.
    pub fn resumable(self) -> bool {
        !matches!(self, FileStatus::Timeout | FileStatus::Error)
    }
}

impl fmt::Display for FileStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// FNV-1a hash of a file's text — the content identity `--resume` uses
/// to skip unchanged files across runs.
pub fn content_hash(text: &str) -> u64 {
    let mut h = Fnv::new();
    let _ = h.write_str(text);
    h.0
}

/// FNV-1a over everything written into it, so a hash of formatted
/// fields needs no `String` of them.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        Ok(())
    }
}

/// Per-file entry of an apply report.
#[derive(Debug, Clone)]
pub struct FileReport {
    /// File name/path as processed.
    pub name: String,
    /// Classified outcome.
    pub status: FileStatus,
    /// Matches found across rules (0 unless fully processed).
    pub matches: usize,
    /// Per-path witnesses from CFG-routed (statement-dots) rules —
    /// forked cross-branch bindings count once per path.
    pub witnesses: usize,
    /// Wall-clock seconds spent on this file.
    pub seconds: f64,
    /// FNV-1a hash of the original file text (0 = unknown, e.g. an
    /// unreadable file); lets `--resume` skip unchanged files.
    pub hash: u64,
    /// Error message when `status` is [`FileStatus::Error`] or
    /// [`FileStatus::Timeout`].
    pub error: Option<String>,
    /// Findings from reporting-only rules (and script `print_report`
    /// calls). `--resume` carries them forward for unchanged files.
    pub findings: Vec<Finding>,
    /// Per-rule outcomes of the rules with ids (rules-directory runs;
    /// empty for an `--sp-file` patch).
    pub rules: Vec<RuleOutcome>,
    /// Rules with ids the merged prefilter pruned for this file.
    pub rules_pruned: usize,
    /// Findings dropped by `// spatch-ignore` markers.
    pub suppressed: usize,
    /// Deepest funnel stage reached across this file's rule attempts
    /// (`None` for files with no recorded attempts — errors outside the
    /// match pipeline, or reports from older builds).
    pub kill_stage: Option<KillStage>,
}

impl FileReport {
    /// A row with `status` and `hash` and nothing found, run or timed.
    pub(crate) fn new(name: String, status: FileStatus, hash: u64) -> FileReport {
        FileReport {
            name,
            status,
            matches: 0,
            witnesses: 0,
            seconds: 0.0,
            hash,
            error: None,
            findings: Vec::new(),
            rules: Vec::new(),
            rules_pruned: 0,
            suppressed: 0,
            kill_stage: None,
        }
    }

    /// Write as one row of the report's `"files"` array, on a line of
    /// its own. The rows of a report are joined by `,` between
    /// [`ApplyReport::write_json_head`] and [`JSON_TAIL`].
    pub fn write_json(&self, out: &mut String) {
        // The hash rides as a hex string: u64 does not survive the f64
        // number path of the JSON reader.
        let _ = write!(
            out,
            "\n    {{\"name\": {}, \"status\": \"{}\", \"matches\": {}, \"witnesses\": {}, \"seconds\": {:e}, \"hash\": \"{:016x}\"",
            Str(&self.name),
            self.status,
            self.matches,
            self.witnesses,
            self.seconds,
            self.hash
        );
        if let Some(e) = &self.error {
            let _ = write!(out, ", \"error\": {}", Str(e));
        }
        if self.suppressed > 0 {
            let _ = write!(out, ", \"suppressed\": {}", self.suppressed);
        }
        if self.rules_pruned > 0 {
            let _ = write!(out, ", \"rules_pruned\": {}", self.rules_pruned);
        }
        if let Some(k) = self.kill_stage {
            let _ = write!(out, ", \"kill_stage\": \"{}\"", k.name());
        }
        if !self.rules.is_empty() {
            out.push_str(", \"rules\": [");
            json::join(out, ", ", &self.rules, |out, r| r.write_json(out));
            out.push(']');
        }
        if !self.findings.is_empty() {
            out.push_str(", \"findings\": [");
            json::join(out, ", ", &self.findings, write_finding);
            out.push(']');
        }
        out.push('}');
    }

    fn from_json(v: &Value) -> Result<FileReport, String> {
        let f = Fields::new(v, "report: file entry")?;
        Ok(FileReport {
            name: f.str("name")?,
            status: f.req("status", |v| FileStatus::parse(v.as_str()?))?,
            matches: f.num("matches") as usize,
            witnesses: f.num("witnesses") as usize,
            seconds: f.num("seconds"),
            hash: f.hex("hash"),
            error: f.opt_str("error").map(str::to_string),
            findings: f.list("findings", finding_from_json)?,
            rules: f.list("rules", RuleOutcome::from_json)?,
            rules_pruned: f.num("rules_pruned") as usize,
            suppressed: f.num("suppressed") as usize,
            kill_stage: f.opt_str("kill_stage").and_then(KillStage::parse),
        })
    }
}

/// Scheduler-health numbers of one [`WorkQueue`](crate::pool::WorkQueue)
/// (one corpus run), carried in a [`RunMetrics`] block.
///
/// Kept unconditionally — they are updated under the queue's lock, on the
/// push path and the already-blocking wait path — so scheduler health is
/// observable even in untraced runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Worker threads the queue was sized for.
    pub workers: usize,
    /// Nanoseconds spent blocked waiting for work, summed over workers.
    pub idle_ns: u64,
    /// High-water mark of queued-but-unpopped units.
    pub queue_depth_max: u64,
}

impl PoolMetrics {
    /// Fraction of the team's wall-clock budget spent idle (`0..=1`).
    pub fn idle_frac(&self, wall_seconds: f64) -> f64 {
        let budget_ns = wall_seconds * 1e9 * self.workers.max(1) as f64;
        if budget_ns <= 0.0 {
            return 0.0;
        }
        (self.idle_ns as f64 / budget_ns).clamp(0.0, 1.0)
    }

    /// Utilization percentage (100 − idle share) for display.
    pub fn utilization_pct(&self, wall_seconds: f64) -> f64 {
        (1.0 - self.idle_frac(wall_seconds)) * 100.0
    }
}

/// Aggregated telemetry for one run, embedded in the report JSON when
/// tracing was enabled (`--stats` / `--trace-out`). The daemon and CI
/// consume this block instead of re-deriving numbers from trace files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Phase name -> spans recorded.
    pub phase_counts: BTreeMap<String, u64>,
    /// Phase name -> total nanoseconds across all threads.
    pub phase_ns: BTreeMap<String, u64>,
    /// Counter name -> value (see `cocci_trace::Counter`).
    pub counters: BTreeMap<String, u64>,
    /// Worker pool health (absent for in-process batch runs that never
    /// built a pool).
    pub pool: Option<PoolMetrics>,
}

impl RunMetrics {
    /// Build a metrics block from a collected trace snapshot plus an
    /// optional pool snapshot.
    pub fn from_trace(data: &cocci_trace::TraceData, pool: Option<PoolMetrics>) -> RunMetrics {
        let mut phase_counts = BTreeMap::new();
        let mut phase_ns = BTreeMap::new();
        for (name, total) in data.phase_totals() {
            phase_counts.insert(name.to_string(), total.count);
            phase_ns.insert(name.to_string(), total.total_ns);
        }
        let counters = data
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        RunMetrics {
            phase_counts,
            phase_ns,
            counters,
            pool,
        }
    }

    /// Total nanoseconds recorded for one phase (0 if never entered).
    pub fn phase_total_ns(&self, phase: &str) -> u64 {
        self.phase_ns.get(phase).copied().unwrap_or(0)
    }

    /// Counter value by name (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Write as a JSON object (nanosecond totals ride as numbers; they
    /// stay far below the f64 53-bit integer limit).
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"phases\": {");
        json::join(out, ", ", &self.phase_counts, |out, (name, count)| {
            let ns = self.phase_total_ns(name);
            let _ = write!(out, "{}: {{\"count\": {count}, \"ns\": {ns}}}", Str(name));
        });
        out.push_str("}, \"counters\": {");
        json::join(out, ", ", &self.counters, |out, (name, v)| {
            let _ = write!(out, "{}: {v}", Str(name));
        });
        out.push('}');
        if let Some(pool) = &self.pool {
            let _ = write!(
                out,
                ", \"pool\": {{\"workers\": {}, \"idle_ns\": {}, \"queue_depth_max\": {}}}",
                pool.workers, pool.idle_ns, pool.queue_depth_max
            );
        }
        out.push('}');
    }

    /// Parse the JSON object form back.
    pub fn from_json(v: &Value) -> Result<RunMetrics, String> {
        let f = Fields::new(v, "metrics")?;
        let mut phase_counts = BTreeMap::new();
        let mut phase_ns = BTreeMap::new();
        for (name, pv) in f.members("phases") {
            let phase = Fields::new(pv, "metrics: phase entry")?;
            phase_counts.insert(name.clone(), phase.num("count") as u64);
            phase_ns.insert(name.clone(), phase.num("ns") as u64);
        }
        let counters = f.members("counters");
        let pool = f
            .get("pool")
            .and_then(|p| Fields::new(p, "metrics: pool").ok());
        Ok(RunMetrics {
            phase_counts,
            phase_ns,
            counters: counters
                .map(|(name, v)| (name.clone(), v.as_f64().unwrap_or(0.0) as u64))
                .collect(),
            pool: pool.map(|p| PoolMetrics {
                workers: p.num("workers") as usize,
                idle_ns: p.num("idle_ns") as u64,
                queue_depth_max: p.num("queue_depth_max") as u64,
            }),
        })
    }
}

/// The JSON text after a report's last row.
pub const JSON_TAIL: &str = "\n  ]\n}\n";

/// A whole corpus run, ready for JSON serialization.
#[derive(Debug, Clone)]
pub struct ApplyReport {
    /// Semantic-patch identifier (the `--sp-file` path, typically).
    pub patch: String,
    /// [`content_hash`] of the semantic-patch *text* (0 = unknown, as
    /// in reports from older builds). `--resume` refuses a previous
    /// report whose patch hash does not match the current patch —
    /// including the unknown case: skipping "unchanged" files is only
    /// sound against the very same patch.
    pub patch_hash: u64,
    /// Worker threads used (0 = all cores at run time).
    pub threads: usize,
    /// Whether the prefilter was enabled.
    pub prefilter: bool,
    /// Files skipped by `--resume` because their content hash matched
    /// the previous report (their entries carry the copied status).
    pub resumed: usize,
    /// Total wall-clock seconds for the run.
    pub total_seconds: f64,
    /// Aggregated telemetry (phase totals, counters, pool health);
    /// present when the run was traced (`--stats` / `--trace-out`).
    pub metrics: Option<RunMetrics>,
    /// Rule-lint diagnostics from the load-time static analysis
    /// (`cocci-lint` via the CLI): each finding points into a *rule
    /// source file*, with the lint id as its rule name. Empty when
    /// linting was clean, skipped (`--no-lint`), or predates this field.
    pub lints: Vec<Finding>,
    /// Full per-attempt traces (file × rule × kill stage), present only
    /// when the run was started with `--explain`; capped at
    /// [`crate::explain::EXPLAIN_ATTEMPT_CAP`] entries.
    pub explain: Option<ExplainBlock>,
    /// Per-file entries, in processing order.
    pub files: Vec<FileReport>,
}

impl ApplyReport {
    /// Number of files with the given status.
    pub fn count(&self, status: FileStatus) -> usize {
        self.files.iter().filter(|f| f.status == status).count()
    }

    /// Fraction of files the prefilter pruned (0.0 when no files).
    pub fn prune_rate(&self) -> f64 {
        if self.files.is_empty() {
            0.0
        } else {
            self.count(FileStatus::Pruned) as f64 / self.files.len() as f64
        }
    }

    /// One-line human summary (`3 changed, 2 pruned, …`).
    pub fn summary(&self) -> String {
        let counts: Vec<String> = FileStatus::ALL
            .into_iter()
            .map(|s| format!("{} {s}", self.count(s)))
            .collect();
        format!("{} file(s): {}", self.files.len(), counts.join(", "))
    }

    /// Serialize to JSON: the head, every row and the tail.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json_head(&mut out);
        json::join(&mut out, ",", &self.files, |out, f| f.write_json(out));
        out.push_str(JSON_TAIL);
        out
    }

    /// Write the JSON text before the first row: the run fields,
    /// `counts` (read from `files`), the optional `metrics`, `lints` and
    /// `explain` blocks, and the opening of the `"files"` array.
    pub fn write_json_head(&self, out: &mut String) {
        out.push_str("{\n");
        let _ = write!(
            out,
            "  \"patch\": {},\n  \"patch_hash\": \"{:016x}\",\n  \"threads\": {},\n  \"prefilter\": {},\n  \"resumed\": {},\n  \"total_seconds\": {:e},\n  \"counts\": {{",
            Str(&self.patch),
            self.patch_hash,
            self.threads,
            self.prefilter,
            self.resumed,
            self.total_seconds
        );
        json::join(out, ", ", FileStatus::ALL, |out, s| {
            let _ = write!(out, "\"{s}\": {}", self.count(s));
        });
        out.push('}');
        if let Some(m) = &self.metrics {
            out.push_str(",\n  \"metrics\": ");
            m.write_json(out);
        }
        if !self.lints.is_empty() {
            out.push_str(",\n  \"lints\": [");
            json::join(out, ", ", &self.lints, write_finding);
            out.push(']');
        }
        if let Some(ex) = &self.explain {
            out.push_str(",\n  \"explain\": ");
            ex.write_json(out);
        }
        out.push_str(",\n  \"files\": [");
    }

    /// Parse a report back from its JSON form.
    pub fn from_json(text: &str) -> Result<ApplyReport, String> {
        let v = json::parse(text)?;
        let f = Fields::new(&v, "report")?;
        Ok(ApplyReport {
            patch: f.str("patch")?,
            patch_hash: f.hex("patch_hash"),
            threads: f.req("threads", Value::as_f64)? as usize,
            prefilter: f.req("prefilter", Value::as_bool)?,
            resumed: f.num("resumed") as usize,
            total_seconds: f.num("total_seconds"),
            metrics: f.get("metrics").map(RunMetrics::from_json).transpose()?,
            lints: f.list("lints", finding_from_json)?,
            explain: f.get("explain").map(ExplainBlock::from_json).transpose()?,
            files: (f.req("files", Value::as_array)?.iter())
                .map(FileReport::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ApplyReport {
        ApplyReport {
            patch: "p.cocci".into(),
            patch_hash: content_hash("@@ @@\n- a();\n"),
            threads: 4,
            prefilter: true,
            resumed: 1,
            total_seconds: 0.25,
            metrics: Some(RunMetrics {
                phase_counts: [("parse".to_string(), 3), ("tree_match".to_string(), 5)]
                    .into_iter()
                    .collect(),
                phase_ns: [
                    ("parse".to_string(), 1_200_000),
                    ("tree_match".to_string(), 800_000),
                ]
                .into_iter()
                .collect(),
                counters: [
                    ("files_parsed".to_string(), 3),
                    ("files_pruned".to_string(), 1),
                ]
                .into_iter()
                .collect(),
                pool: Some(PoolMetrics {
                    workers: 4,
                    idle_ns: 50_000_000,
                    queue_depth_max: 12,
                }),
            }),
            lints: vec![Finding {
                path: "rules/old.cocci".into(),
                line: 1,
                col: 1,
                end_line: 1,
                end_col: 1,
                rule: "SPL01".into(),
                message: "rule r: metavariable `x` is declared but never used".into(),
                bindings: Vec::new(),
            }],
            explain: Some(ExplainBlock {
                attempts: vec![crate::explain::AttemptTrace {
                    file: "a/b.c".into(),
                    rule: "use-new-api".into(),
                    stage: KillStage::Completed,
                    detail: None,
                }],
                dropped: 0,
            }),
            files: vec![
                FileReport {
                    name: "a/b.c".into(),
                    status: FileStatus::Changed,
                    matches: 3,
                    witnesses: 2,
                    seconds: 1e-4,
                    hash: 0xDEADBEEFCAFE0123,
                    error: None,
                    findings: vec![Finding {
                        path: "a/b.c".into(),
                        line: 3,
                        col: 5,
                        end_line: 3,
                        end_col: 12,
                        rule: "scan".into(),
                        message: "matched".into(),
                        bindings: vec![("e".into(), "q".into())],
                    }],
                    rules: vec![
                        RuleOutcome {
                            id: "use-new-api".into(),
                            status: FileStatus::Matched,
                            matches: 2,
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
                            kill_stage: Some(KillStage::Anchor),
                        },
                    ],
                    rules_pruned: 3,
                    suppressed: 1,
                    kill_stage: Some(KillStage::Completed),
                },
                FileReport {
                    name: "a/skip.c".into(),
                    status: FileStatus::Pruned,
                    matches: 0,
                    witnesses: 0,
                    seconds: 2e-6,
                    hash: content_hash("void f(void) {}\n"),
                    error: None,
                    findings: Vec::new(),
                    rules: Vec::new(),
                    rules_pruned: 0,
                    suppressed: 0,
                    kill_stage: Some(KillStage::Prefilter),
                },
                FileReport {
                    name: "slow.c".into(),
                    status: FileStatus::Timeout,
                    matches: 0,
                    witnesses: 0,
                    seconds: 1.0,
                    hash: 7,
                    error: Some("exceeded per-file time budget".into()),
                    findings: Vec::new(),
                    rules: Vec::new(),
                    rules_pruned: 0,
                    suppressed: 0,
                    kill_stage: Some(KillStage::Timeout),
                },
                FileReport {
                    name: "bad.c".into(),
                    status: FileStatus::Error,
                    matches: 0,
                    witnesses: 0,
                    seconds: 5e-5,
                    hash: 0,
                    error: Some("cannot parse \"target\"".into()),
                    findings: Vec::new(),
                    rules: Vec::new(),
                    rules_pruned: 0,
                    suppressed: 0,
                    kill_stage: None,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample();
        let json = r.to_json();
        let back = ApplyReport::from_json(&json).unwrap();
        assert_eq!(back.patch, r.patch);
        assert_eq!(back.threads, r.threads);
        assert_eq!(back.prefilter, r.prefilter);
        assert_eq!(back.files.len(), r.files.len());
        for s in FileStatus::ALL {
            assert_eq!(back.count(s), r.count(s), "{s}");
        }
        assert_eq!(back.files[0].matches, 3);
        assert_eq!(
            back.files[3].error.as_deref(),
            Some("cannot parse \"target\"")
        );
        // Findings survive the round trip exactly.
        assert_eq!(back.files[0].findings, r.files[0].findings);
        assert!(back.files[1].findings.is_empty());
        // Scan-mode fields (per-rule outcomes, prune/suppression counts)
        // survive too; legacy entries default to empty/zero.
        assert_eq!(back.files[0].rules, r.files[0].rules);
        assert_eq!(back.files[0].rules_pruned, 3);
        assert_eq!(back.files[0].suppressed, 1);
        assert!(back.files[1].rules.is_empty());
        assert_eq!(back.files[1].suppressed, 0);
        // Hashes and the resumed count survive the round trip exactly.
        assert_eq!(back.resumed, 1);
        assert_eq!(back.patch_hash, r.patch_hash);
        assert_eq!(back.files[0].hash, 0xDEADBEEFCAFE0123);
        assert_eq!(back.files[1].hash, r.files[1].hash);
        assert_eq!(back.files[3].hash, 0);
        assert_eq!(back.files[2].status, FileStatus::Timeout);
        // The metrics block survives exactly.
        assert_eq!(back.metrics, r.metrics);
        // Lint findings survive exactly; reports without the block
        // (older runs, clean lints) parse to an empty list.
        assert_eq!(back.lints, r.lints);
        // Kill stages and the explain block survive exactly; legacy
        // entries without them parse to None.
        assert_eq!(back.files[0].kill_stage, Some(KillStage::Completed));
        assert_eq!(back.files[1].kill_stage, Some(KillStage::Prefilter));
        assert_eq!(back.files[3].kill_stage, None);
        let ex = back.explain.as_ref().unwrap();
        assert_eq!(ex.attempts.len(), 1);
        assert_eq!(ex.attempts[0].rule, "use-new-api");
        assert_eq!(ex.attempts[0].stage, KillStage::Completed);
        let mut bare = sample();
        bare.explain = None;
        let back = ApplyReport::from_json(&bare.to_json()).unwrap();
        assert!(back.explain.is_none());
        let mut clean = sample();
        clean.lints = Vec::new();
        let back = ApplyReport::from_json(&clean.to_json()).unwrap();
        assert!(back.lints.is_empty());
    }

    #[test]
    fn metrics_block_round_trips_and_is_optional() {
        let r = sample();
        let m = r.metrics.as_ref().unwrap();
        assert_eq!(m.phase_total_ns("parse"), 1_200_000);
        assert_eq!(m.phase_total_ns("flow_match"), 0);
        assert_eq!(m.counter("files_parsed"), 3);
        assert_eq!(m.counter("timeouts"), 0);
        let pool = m.pool.as_ref().unwrap();
        // 50ms idle over a 0.25s x 4-worker budget = 5% idle.
        assert!((pool.idle_frac(r.total_seconds) - 0.05).abs() < 1e-9);
        assert!((pool.utilization_pct(r.total_seconds) - 95.0).abs() < 1e-9);
        // A report without a metrics block parses to None.
        let mut bare = sample();
        bare.metrics = None;
        let back = ApplyReport::from_json(&bare.to_json()).unwrap();
        assert!(back.metrics.is_none());
        // Older reports carry the pool's `steals`; the reader skips it.
        let old = json::parse(
            r#"{"phases": {}, "counters": {}, "pool": {"workers": 2, "steals": 7, "idle_ns": 5, "queue_depth_max": 3}}"#,
        )
        .unwrap();
        let pool = RunMetrics::from_json(&old).unwrap().pool.unwrap();
        assert_eq!(
            (pool.workers, pool.idle_ns, pool.queue_depth_max),
            (2, 5, 3)
        );
    }

    #[test]
    fn counts_and_rates() {
        let r = sample();
        assert_eq!(r.count(FileStatus::Changed), 1);
        assert_eq!(r.count(FileStatus::Timeout), 1);
        assert_eq!(r.count(FileStatus::Unmatched), 0);
        assert!((r.prune_rate() - 1.0 / 4.0).abs() < 1e-9);
        assert!(r.summary().contains("4 file(s)"));
    }

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        assert_eq!(content_hash(""), 0xcbf29ce484222325);
        assert_eq!(content_hash("abc"), content_hash("abc"));
        assert_ne!(content_hash("abc"), content_hash("abd"));
        // Reports written without a hash field (older runs) parse as 0.
        let legacy = r#"{"patch": "p", "threads": 1, "prefilter": false,
            "files": [{"name": "x.c", "status": "unmatched", "matches": 0, "seconds": 0}]}"#;
        let back = ApplyReport::from_json(legacy).unwrap();
        assert_eq!(back.files[0].hash, 0);
        assert_eq!(back.resumed, 0);
    }

    #[test]
    fn json_parser_handles_the_basics() {
        let v = json::parse(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null}"#).unwrap();
        let o = v.as_object().unwrap();
        let a = o.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(o.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(o.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(o.get("d"), Some(&json::Value::Null));
        assert!(json::parse("{\"unterminated\": ").is_err());
        assert!(json::parse("[1,]").is_err());
    }

    #[test]
    fn json_parser_caps_nesting_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(json::parse(&nested(json::MAX_DEPTH)).is_ok());
        let err = json::parse(&nested(json::MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Far past the cap, unclosed: an error, not a stack overflow.
        assert!(json::parse(&"[".repeat(200_000)).is_err());
        assert!(json::parse(&"{\"a\": ".repeat(200_000)).is_err());
    }

    #[test]
    fn status_string_round_trip() {
        for s in FileStatus::ALL {
            assert_eq!(FileStatus::parse(s.as_str()), Some(s));
        }
        assert_eq!(FileStatus::parse("bogus"), None);
    }
}
