//! Machine-readable apply reports.
//!
//! A corpus run produces an [`ApplyReport`]: one [`FileReport`] per file
//! (outcome, match count, wall-clock seconds) plus run-level metadata.
//! The report serializes to JSON ([`ApplyReport::to_json`]) for CI bots
//! and round-trips back ([`ApplyReport::from_json`]) via a minimal
//! in-house JSON parser — the workspace builds offline with zero
//! crates.io dependencies, so there is no serde to lean on.

use crate::explain::{ExplainBlock, KillStage};
use crate::findings::{finding_from_json, finding_to_json, Finding};
use crate::pool::PoolStats;
use crate::scan::RuleOutcome;
use std::collections::BTreeMap;
use std::fmt;

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
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
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

/// Pool scheduler-health numbers carried in a [`RunMetrics`] block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Worker threads the queue was sized for.
    pub workers: usize,
    /// Units taken from a neighbour's shard, summed over workers.
    pub steals: u64,
    /// Nanoseconds spent blocked waiting for work, summed over workers.
    pub idle_ns: u64,
    /// High-water mark of queued-but-unpopped units.
    pub queue_depth_max: u64,
}

impl PoolMetrics {
    /// Collapse a per-worker [`PoolStats`] snapshot into report totals.
    pub fn from_stats(stats: &PoolStats) -> PoolMetrics {
        PoolMetrics {
            workers: stats.workers,
            steals: stats.total_steals(),
            idle_ns: stats.total_idle_ns(),
            queue_depth_max: stats.queue_depth_max,
        }
    }

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
    /// Work-stealing pool health (absent for in-process batch runs that
    /// never built a pool).
    pub pool: Option<PoolMetrics>,
}

impl RunMetrics {
    /// Build a metrics block from a collected trace snapshot plus an
    /// optional pool snapshot.
    pub fn from_trace(data: &cocci_trace::TraceData, pool: Option<&PoolStats>) -> RunMetrics {
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
            pool: pool.map(PoolMetrics::from_stats),
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

    /// Serialize as a JSON object (nanosecond totals ride as numbers;
    /// they stay far below the f64 53-bit integer limit).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"phases\": {");
        for (i, (name, count)) in self.phase_counts.iter().enumerate() {
            let ns = self.phase_total_ns(name);
            let _ = write!(
                out,
                "{}{}: {{\"count\": {count}, \"ns\": {ns}}}",
                if i == 0 { "" } else { ", " },
                json::escape(name)
            );
        }
        out.push_str("}, \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {v}",
                if i == 0 { "" } else { ", " },
                json::escape(name)
            );
        }
        out.push('}');
        if let Some(pool) = &self.pool {
            let _ = write!(
                out,
                ", \"pool\": {{\"workers\": {}, \"steals\": {}, \"idle_ns\": {}, \"queue_depth_max\": {}}}",
                pool.workers, pool.steals, pool.idle_ns, pool.queue_depth_max
            );
        }
        out.push('}');
        out
    }

    /// Parse the JSON object form back.
    pub fn from_json(v: &json::Value) -> Result<RunMetrics, String> {
        let obj = v.as_object().ok_or("metrics: expected a JSON object")?;
        let mut phase_counts = BTreeMap::new();
        let mut phase_ns = BTreeMap::new();
        if let Some(phases) = obj.get("phases").and_then(json::Value::as_object) {
            for (name, pv) in phases {
                let po = pv.as_object().ok_or("metrics: phase entry not an object")?;
                let count = po.get("count").and_then(json::Value::as_f64).unwrap_or(0.0);
                let ns = po.get("ns").and_then(json::Value::as_f64).unwrap_or(0.0);
                phase_counts.insert(name.clone(), count as u64);
                phase_ns.insert(name.clone(), ns as u64);
            }
        }
        let mut counters = BTreeMap::new();
        if let Some(cs) = obj.get("counters").and_then(json::Value::as_object) {
            for (name, cv) in cs {
                counters.insert(name.clone(), cv.as_f64().unwrap_or(0.0) as u64);
            }
        }
        let pool = obj
            .get("pool")
            .and_then(json::Value::as_object)
            .map(|po| PoolMetrics {
                workers: po
                    .get("workers")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0) as usize,
                steals: po
                    .get("steals")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0) as u64,
                idle_ns: po
                    .get("idle_ns")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0) as u64,
                queue_depth_max: po
                    .get("queue_depth_max")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0) as u64,
            });
        Ok(RunMetrics {
            phase_counts,
            phase_ns,
            counters,
            pool,
        })
    }
}

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

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        let _ = write!(
            out,
            "  \"patch\": {},\n  \"patch_hash\": \"{:016x}\",\n  \"threads\": {},\n  \"prefilter\": {},\n  \"resumed\": {},\n  \"total_seconds\": {:e},\n  \"counts\": {{",
            json::escape(&self.patch),
            self.patch_hash,
            self.threads,
            self.prefilter,
            self.resumed,
            self.total_seconds
        );
        for (i, s) in FileStatus::ALL.into_iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{s}\": {}",
                if i == 0 { "" } else { ", " },
                self.count(s)
            );
        }
        out.push('}');
        if let Some(m) = &self.metrics {
            let _ = write!(out, ",\n  \"metrics\": {}", m.to_json());
        }
        if !self.lints.is_empty() {
            out.push_str(",\n  \"lints\": [");
            for (i, l) in self.lints.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&finding_to_json(l));
            }
            out.push(']');
        }
        if let Some(ex) = &self.explain {
            let _ = write!(out, ",\n  \"explain\": {}", ex.to_json());
        }
        out.push_str(",\n  \"files\": [");
        for (i, f) in self.files.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // The hash rides as a hex string: u64 does not survive the
            // f64 number path of the minimal JSON parser.
            let _ = write!(
                out,
                "\n    {{\"name\": {}, \"status\": \"{}\", \"matches\": {}, \"witnesses\": {}, \"seconds\": {:e}, \"hash\": \"{:016x}\"",
                json::escape(&f.name),
                f.status,
                f.matches,
                f.witnesses,
                f.seconds,
                f.hash
            );
            if let Some(e) = &f.error {
                let _ = write!(out, ", \"error\": {}", json::escape(e));
            }
            if f.suppressed > 0 {
                let _ = write!(out, ", \"suppressed\": {}", f.suppressed);
            }
            if f.rules_pruned > 0 {
                let _ = write!(out, ", \"rules_pruned\": {}", f.rules_pruned);
            }
            if let Some(k) = f.kill_stage {
                let _ = write!(out, ", \"kill_stage\": \"{}\"", k.name());
            }
            if !f.rules.is_empty() {
                out.push_str(", \"rules\": [");
                for (j, r) in f.rules.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&r.to_json());
                }
                out.push(']');
            }
            if !f.findings.is_empty() {
                out.push_str(", \"findings\": [");
                for (j, fd) in f.findings.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&finding_to_json(fd));
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a report back from its JSON form.
    pub fn from_json(text: &str) -> Result<ApplyReport, String> {
        let v = json::parse(text)?;
        let obj = v.as_object().ok_or("report: expected a JSON object")?;
        let patch = obj
            .get("patch")
            .and_then(json::Value::as_str)
            .ok_or("report: missing \"patch\"")?
            .to_string();
        let patch_hash = obj
            .get("patch_hash")
            .and_then(json::Value::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .unwrap_or(0);
        let threads = obj
            .get("threads")
            .and_then(json::Value::as_f64)
            .ok_or("report: missing \"threads\"")? as usize;
        let prefilter = obj
            .get("prefilter")
            .and_then(json::Value::as_bool)
            .ok_or("report: missing \"prefilter\"")?;
        let total_seconds = obj
            .get("total_seconds")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0);
        let resumed = obj
            .get("resumed")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as usize;
        let metrics = match obj.get("metrics") {
            Some(mv) => Some(RunMetrics::from_json(mv)?),
            None => None,
        };
        let mut lints = Vec::new();
        if let Some(arr) = obj.get("lints").and_then(json::Value::as_array) {
            for lv in arr {
                lints.push(finding_from_json(lv)?);
            }
        }
        let explain = match obj.get("explain") {
            Some(ev) => Some(ExplainBlock::from_json(ev)?),
            None => None,
        };
        let mut files = Vec::new();
        for fv in obj
            .get("files")
            .and_then(json::Value::as_array)
            .ok_or("report: missing \"files\"")?
        {
            let fo = fv.as_object().ok_or("report: file entry not an object")?;
            let name = fo
                .get("name")
                .and_then(json::Value::as_str)
                .ok_or("report: file entry missing \"name\"")?
                .to_string();
            let status = fo
                .get("status")
                .and_then(json::Value::as_str)
                .and_then(FileStatus::parse)
                .ok_or("report: file entry has bad \"status\"")?;
            let matches = fo
                .get("matches")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0) as usize;
            let witnesses = fo
                .get("witnesses")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0) as usize;
            let seconds = fo
                .get("seconds")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0);
            let hash = fo
                .get("hash")
                .and_then(json::Value::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or(0);
            let error = fo
                .get("error")
                .and_then(json::Value::as_str)
                .map(str::to_string);
            let mut findings = Vec::new();
            if let Some(arr) = fo.get("findings").and_then(json::Value::as_array) {
                for fv in arr {
                    findings.push(finding_from_json(fv)?);
                }
            }
            let suppressed = fo
                .get("suppressed")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0) as usize;
            let rules_pruned = fo
                .get("rules_pruned")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0) as usize;
            let kill_stage = fo
                .get("kill_stage")
                .and_then(json::Value::as_str)
                .and_then(KillStage::parse);
            let mut rules = Vec::new();
            if let Some(arr) = fo.get("rules").and_then(json::Value::as_array) {
                for rv in arr {
                    rules.push(RuleOutcome::from_json(rv)?);
                }
            }
            files.push(FileReport {
                name,
                status,
                matches,
                witnesses,
                seconds,
                hash,
                error,
                findings,
                rules,
                rules_pruned,
                suppressed,
                kill_stage,
            });
        }
        Ok(ApplyReport {
            patch,
            patch_hash,
            threads,
            prefilter,
            resumed,
            total_seconds,
            metrics,
            lints,
            explain,
            files,
        })
    }
}

/// Minimal JSON reader/writer — just enough for apply reports and bench
/// files; not a general-purpose implementation.
pub mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (parsed as `f64`).
        Num(f64),
        /// String.
        Str(String),
        /// Array.
        Arr(Vec<Value>),
        /// Object (key order not preserved).
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric payload, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The boolean payload, if this is a boolean.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }

        /// The members, if this is an object.
        pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
            match self {
                Value::Obj(o) => Some(o),
                _ => None,
            }
        }
    }

    /// Escape `s` as a JSON string literal (quotes included).
    pub fn escape(s: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Deepest `[`/`{` nesting [`parse`] accepts. Reports nest a few
    /// levels; the parser recurses once per level, so an untrusted
    /// `--resume` file must not choose the stack depth.
    pub const MAX_DEPTH: usize = 128;

    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("json: trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("json: expected `{}` at byte {pos}", c as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        skip_ws(b, pos);
        if depth >= MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
            return Err(format!(
                "json: nesting deeper than {MAX_DEPTH} levels at byte {pos}"
            ));
        }
        match b.get(*pos) {
            None => Err("json: unexpected end of input".into()),
            Some(b'{') => {
                *pos += 1;
                let mut map = BTreeMap::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(map));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    expect(b, pos, b':')?;
                    let val = parse_value(b, pos, depth + 1)?;
                    map.insert(key, val);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(map));
                        }
                        _ => return Err(format!("json: expected `,` or `}}` at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut arr = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(arr));
                }
                loop {
                    arr.push(parse_value(b, pos, depth + 1)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(arr));
                        }
                        _ => return Err(format!("json: expected `,` or `]` at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
                s.parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| format!("json: bad number `{s}` at byte {start}"))
            }
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("json: expected string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("json: unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .ok_or("json: truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err("json: bad escape".into()),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte safe).
                    let start = *pos;
                    *pos += 1;
                    while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                        *pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
                }
            }
        }
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
                    steals: 7,
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
