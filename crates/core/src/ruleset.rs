//! Rule collections: the unit every corpus run executes.
//!
//! `spatch scan --rules <dir>` lints a corpus with N rules in one pass.
//! [`CompiledRuleSet::load_dir`] reads every `*.cocci` file of the
//! directory, parses per-rule metadata from its leading comment lines,
//! compiles each patch once ([`CompiledPatch`]), refuses duplicate rule
//! ids, and merges every rule's prefilter atoms into one [`AtomSieve`]
//! so a single scan of a file's text yields the set of rules that may
//! match it.
//!
//! Applying one `--sp-file` patch is the same run over a one-entry set
//! ([`CompiledRuleSet::from_patch`]). The only difference is
//! attribution, fixed per rule by the constructor: a rules-directory
//! rule has an id its findings, attempts, errors, and per-rule report
//! rows are labelled with; a lone patch keeps its inner SMPL rule names
//! and gets no per-rule rows.
//!
//! # Rule file metadata
//!
//! A rule file may carry header comments before its first `@` line:
//!
//! ```text
//! // spatch-rule: use-new-api        (id; default: the file stem)
//! // spatch-severity: warning       (error | warning | note; default note)
//! // spatch-message: old_api is deprecated   (default: the rule's own)
//! @@ ... @@
//! ```
//!
//! Rules are **sorted by id** after loading, whatever the directory
//! iteration order — reports, SARIF output, and `--resume` hashes must
//! be identical across platforms and filesystems.

use crate::compile::{AtomSieve, CompiledPatch};
use crate::findings::SarifRule;
use crate::orchestrate::ApplyError;
use crate::report::content_hash;
use std::path::Path;
use std::sync::Arc;

/// Severity a scan rule attaches to its findings (the SARIF `level`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Severity {
    /// SARIF `error`.
    Error,
    /// SARIF `warning`.
    Warning,
    /// SARIF `note` (the default).
    #[default]
    Note,
}

impl Severity {
    /// The SARIF / report-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }

    /// Parse the spelling used in `// spatch-severity:` headers.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "error" => Some(Severity::Error),
            "warning" => Some(Severity::Warning),
            "note" | "info" => Some(Severity::Note),
            _ => None,
        }
    }
}

/// Identity and presentation metadata of one scan rule.
#[derive(Debug, Clone)]
pub struct RuleMeta {
    /// Unique rule id (`// spatch-rule:` header, default the file stem).
    pub id: String,
    /// Finding severity (`// spatch-severity:` header).
    pub severity: Severity,
    /// Message override for this rule's findings (`// spatch-message:`);
    /// `None` keeps each finding's own message.
    pub message: Option<String>,
    /// The file the rule was loaded from (display only).
    pub source: String,
    /// The rule file's text, which load-time lints anchor their lines in
    /// (empty for an `--sp-file` patch).
    pub text: String,
}

/// One member of a [`CompiledRuleSet`].
#[derive(Debug, Clone)]
pub struct ScanRule {
    /// Identity/severity/message metadata.
    pub meta: RuleMeta,
    /// The compiled patch, shareable across driver workers.
    pub compiled: Arc<CompiledPatch>,
    /// Loaded from a rules directory, so results are attributed to
    /// `meta.id`; `false` for an `--sp-file` patch, whose results keep
    /// their inner rule names. Fixed by the set's constructor.
    pub(crate) has_id: bool,
}

/// Semantic patches compiled once and prefiltered together: a directory
/// of rules, or one `--sp-file` patch. Rules are sorted by id; `hash`
/// identifies the exact rule texts for `--resume`.
#[derive(Debug, Clone)]
pub struct CompiledRuleSet {
    /// The rules, ascending by `meta.id`.
    pub rules: Vec<ScanRule>,
    /// Identity of the whole set: FNV-1a over every `id\0text\0` pair in
    /// sorted order, or [`content_hash`] of the text of a lone patch.
    /// Reports record it as `patch_hash`.
    pub hash: u64,
    /// Merged prefilter: unit `i` is `rules[i]`.
    sieve: AtomSieve,
}

/// The `*.cocci` files directly under `dir` (directories so named are
/// skipped) as `(path, file stem, text)` triples in path order: what
/// [`CompiledRuleSet::load_dir`] compiles and `spatch lint` lints.
pub fn rule_sources(dir: &Path) -> Result<Vec<(String, String, String)>, ApplyError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ApplyError::new(format!("cannot read rules dir {}: {e}", dir.display())))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().and_then(|x| x.to_str()) == Some("cocci"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(ApplyError::new(format!(
            "rules dir {} contains no .cocci files",
            dir.display()
        )));
    }
    paths.iter().map(|p| rule_source(p)).collect()
}

/// One rule file as a `(path, file stem, text)` triple.
pub fn rule_source(path: &Path) -> Result<(String, String, String), ApplyError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ApplyError::new(format!("cannot read {}: {e}", path.display())))?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("rule")
        .to_string();
    Ok((path.display().to_string(), stem, text))
}

impl CompiledRuleSet {
    /// Load and compile every `*.cocci` file directly under `dir`.
    /// Errors name the offending file; duplicate rule ids refuse the
    /// whole set.
    pub fn load_dir(dir: &Path) -> Result<CompiledRuleSet, ApplyError> {
        Self::from_sources(&rule_sources(dir)?)
    }

    /// Compile a set from in-memory sources: `(display name, default id,
    /// patch text)` triples. This is what tests, benches, and
    /// [`load_dir`](CompiledRuleSet::load_dir) share.
    pub fn from_sources(
        sources: &[(String, String, String)],
    ) -> Result<CompiledRuleSet, ApplyError> {
        let mut rules = Vec::with_capacity(sources.len());
        for (source, default_id, text) in sources {
            let mut meta = parse_rule_metadata(text, default_id)
                .map_err(|e| ApplyError::new(format!("{source}: {e}")))?;
            meta.source = source.clone();
            meta.text = text.clone();
            let patch = cocci_smpl::parse_semantic_patch(text)
                .map_err(|e| ApplyError::new(format!("{source}: {e}")))?;
            let compiled = CompiledPatch::compile(&patch)
                .map_err(|e| ApplyError::new(format!("{source}: {}", e.message)))?;
            rules.push((meta, Arc::new(compiled)));
        }
        // Deterministic rule order: sorted by id, whatever order the
        // filesystem handed the files back in.
        rules.sort_by(|a, b| a.0.id.cmp(&b.0.id));
        for w in rules.windows(2) {
            if w[0].0.id == w[1].0.id {
                return Err(ApplyError::new(format!(
                    "duplicate rule id `{}` ({} and {})",
                    w[0].0.id, w[0].0.source, w[1].0.source
                )));
            }
        }
        let mut identity = String::new();
        for (meta, _) in &rules {
            identity.push_str(&meta.id);
            identity.push('\0');
            identity.push_str(&meta.text);
            identity.push('\0');
        }
        let hash = content_hash(&identity);
        let units: Vec<_> = rules.iter().map(|(_, c)| c.sieve_unit()).collect();
        let sieve = AtomSieve::build(&units);
        Ok(CompiledRuleSet {
            rules: rules
                .into_iter()
                .map(|(meta, compiled)| ScanRule {
                    meta,
                    compiled,
                    has_id: true,
                })
                .collect(),
            hash,
            sieve,
        })
    }

    /// A one-entry set for a single `--sp-file` patch: no rule id, the
    /// patch's own prefilter, and `hash` as the set identity — the
    /// [`content_hash`] of the patch text (0 when unknown).
    pub fn from_patch(compiled: CompiledPatch, hash: u64) -> CompiledRuleSet {
        let sieve = compiled.sieve.clone();
        CompiledRuleSet {
            rules: vec![ScanRule {
                meta: RuleMeta {
                    id: String::new(),
                    severity: Severity::default(),
                    message: None,
                    source: String::new(),
                    text: String::new(),
                },
                compiled: Arc::new(compiled),
                has_id: false,
            }],
            hash,
            sieve,
        }
    }

    /// Number of rules in the set.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True for a set with no rules (refused by `load_dir`).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Indices of rules that may match `text` — a **single pass** of the
    /// merged automaton over the text, however many rules the set holds.
    /// Sound the same way [`CompiledPatch::may_match`] is: a rule not in
    /// the result would find zero matches.
    pub fn surviving_rules(&self, text: &str) -> Vec<usize> {
        self.sieve.surviving(text)
    }

    /// SARIF tool metadata for every rule with an id (none for an
    /// `--sp-file` patch, whose findings name their inner rules).
    pub fn sarif_rules(&self) -> Vec<SarifRule> {
        let with_id = self.rules.iter().filter(|r| r.has_id);
        with_id
            .map(|r| SarifRule {
                id: r.meta.id.clone(),
                level: r.meta.severity.as_str(),
                description: r
                    .meta
                    .message
                    .clone()
                    .unwrap_or_else(|| format!("semantic-patch rule {}", r.meta.id)),
            })
            .collect()
    }
}

/// Parse `// spatch-*:` headers from the leading comment lines of a rule
/// file. Stops at the first non-comment, non-blank line. A
/// `spatch-severity:` value outside the accepted spellings is an error:
/// silently defaulting would demote a rule the author meant to be an
/// `error` down to `note` without anyone noticing.
pub fn parse_rule_metadata(text: &str, default_id: &str) -> Result<RuleMeta, String> {
    let mut meta = RuleMeta {
        id: default_id.to_string(),
        severity: Severity::default(),
        message: None,
        source: String::new(),
        text: String::new(),
    };
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Some(comment) = trimmed.strip_prefix("//") else {
            break;
        };
        let comment = comment.trim();
        if let Some(v) = comment.strip_prefix("spatch-rule:") {
            let v = v.trim();
            if !v.is_empty() {
                meta.id = v.to_string();
            }
        } else if let Some(v) = comment.strip_prefix("spatch-severity:") {
            let v = v.trim();
            match Severity::parse(v) {
                Some(s) => meta.severity = s,
                None => {
                    return Err(format!(
                        "bad spatch-severity `{v}` (expected error|warning|note|info)"
                    ))
                }
            }
        } else if let Some(v) = comment.strip_prefix("spatch-message:") {
            let v = v.trim();
            if !v.is_empty() {
                meta.message = Some(v.to_string());
            }
        }
    }
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(id: &str, text: &str) -> (String, String, String) {
        (format!("{id}.cocci"), id.to_string(), text.to_string())
    }

    const REPORT_A: &str = "@@\nexpression e;\n@@\nalpha(e);\n";
    const REPORT_B: &str = "@@\nexpression e;\n@@\nbeta(e);\n";

    #[test]
    fn sources_sort_by_id_and_survive_prefilter() {
        let set =
            CompiledRuleSet::from_sources(&[src("zz", REPORT_B), src("aa", REPORT_A)]).unwrap();
        assert_eq!(set.rules[0].meta.id, "aa");
        assert_eq!(set.rules[1].meta.id, "zz");
        assert_eq!(set.surviving_rules("void f(void){ alpha(1); }"), [0]);
        assert_eq!(set.surviving_rules("void f(void){ beta(1); }"), [1]);
        assert_eq!(set.surviving_rules("alpha(1); beta(2);"), [0, 1]);
        assert!(set.surviving_rules("gamma(3);").is_empty());
    }

    #[test]
    fn surviving_agrees_with_per_rule_may_match() {
        let set = CompiledRuleSet::from_sources(&[
            src("a", REPORT_A),
            src("b", REPORT_B),
            src("c", "@@\nexpression x, y;\n@@\nx = y;\n"),
        ])
        .unwrap();
        for text in [
            "alpha(1);",
            "beta(2);",
            "int q; q = 3;",
            "nothing here",
            "alpha beta gamma",
        ] {
            let merged = set.surviving_rules(text);
            let individual: Vec<usize> = set
                .rules
                .iter()
                .enumerate()
                .filter(|(_, r)| r.compiled.may_match(text))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(merged, individual, "text {text:?}");
        }
    }

    #[test]
    fn duplicate_ids_refuse() {
        let err = CompiledRuleSet::from_sources(&[
            ("x.cocci".into(), "same".into(), REPORT_A.into()),
            ("y.cocci".into(), "same".into(), REPORT_B.into()),
        ])
        .unwrap_err();
        assert!(err.message.contains("duplicate rule id `same`"), "{err}");
        assert!(err.message.contains("x.cocci"), "{err}");
        assert!(err.message.contains("y.cocci"), "{err}");
    }

    #[test]
    fn metadata_headers() {
        let text = "// spatch-rule: use-beta\n// spatch-severity: error\n\
                    // spatch-message: alpha is deprecated\n@@\nexpression e;\n@@\nalpha(e);\n";
        let set = CompiledRuleSet::from_sources(&[src("file-stem", text)]).unwrap();
        let meta = &set.rules[0].meta;
        assert_eq!(meta.id, "use-beta");
        assert_eq!(meta.severity, Severity::Error);
        assert_eq!(meta.message.as_deref(), Some("alpha is deprecated"));
    }

    #[test]
    fn metadata_stops_at_first_rule_line() {
        // A comment *after* the body must not override the id.
        let text = "@@\nexpression e;\n@@\nalpha(e);\n// spatch-rule: late\n";
        let set = CompiledRuleSet::from_sources(&[src("stem", text)]).unwrap();
        assert_eq!(set.rules[0].meta.id, "stem");
        assert_eq!(set.rules[0].meta.severity, Severity::Note);
    }

    #[test]
    fn unparsable_source_names_the_file() {
        let err = CompiledRuleSet::from_sources(&[(
            "broken.cocci".into(),
            "broken".into(),
            "@@\nnot a metavar decl\n".into(),
        )])
        .unwrap_err();
        assert!(err.message.contains("broken.cocci"), "{err}");
    }

    #[test]
    fn bad_severity_is_a_load_error_naming_the_file() {
        // Silently defaulting would demote an intended `error` rule.
        let text = "// spatch-severity: critical\n@@\nexpression e;\n@@\nalpha(e);\n";
        let err = CompiledRuleSet::from_sources(&[("sev.cocci".into(), "sev".into(), text.into())])
            .unwrap_err();
        assert!(err.message.contains("sev.cocci"), "{err}");
        assert!(
            err.message.contains("bad spatch-severity `critical`"),
            "{err}"
        );
        // All accepted spellings still parse.
        for (v, want) in [
            ("error", Severity::Error),
            ("warning", Severity::Warning),
            ("note", Severity::Note),
            ("info", Severity::Note),
        ] {
            let text = format!("// spatch-severity: {v}\n@@\nexpression e;\n@@\nalpha(e);\n");
            let meta = parse_rule_metadata(&text, "x").unwrap();
            assert_eq!(meta.severity, want, "{v}");
        }
    }

    #[test]
    fn hash_is_order_independent_but_text_sensitive() {
        let a = CompiledRuleSet::from_sources(&[src("a", REPORT_A), src("b", REPORT_B)]).unwrap();
        let b = CompiledRuleSet::from_sources(&[src("b", REPORT_B), src("a", REPORT_A)]).unwrap();
        assert_eq!(a.hash, b.hash);
        let c = CompiledRuleSet::from_sources(&[src("a", REPORT_B), src("b", REPORT_B)]).unwrap();
        assert_ne!(a.hash, c.hash);
    }

    #[test]
    fn load_dir_round_trip() {
        let dir = std::env::temp_dir().join(format!("cocci-ruleset-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b-rule.cocci"), REPORT_B).unwrap();
        std::fs::write(
            dir.join("a-rule.cocci"),
            format!("// spatch-severity: warning\n{REPORT_A}"),
        )
        .unwrap();
        std::fs::write(dir.join("notes.txt"), "not a rule").unwrap();
        let set = CompiledRuleSet::load_dir(&dir).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.rules[0].meta.id, "a-rule");
        assert_eq!(set.rules[0].meta.severity, Severity::Warning);
        assert_eq!(set.rules[1].meta.id, "b-rule");
        assert!(set.rules[1].meta.source.ends_with("b-rule.cocci"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_refuses() {
        let dir = std::env::temp_dir().join(format!("cocci-ruleset-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = CompiledRuleSet::load_dir(&dir).unwrap_err();
        assert!(err.message.contains("no .cocci files"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
