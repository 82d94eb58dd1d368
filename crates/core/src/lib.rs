//! `cocci-core`: the semantic-patch engine — matching, transformation,
//! rule orchestration, and one streaming corpus driver.
//!
//! This is the paper's primary contribution rebuilt in Rust. The pipeline
//! for one file is:
//!
//! 1. parse the target file with `cocci-cast`;
//! 2. for each rule of the semantic patch (in order), honouring
//!    `depends on` and inherited-metavariable seeding, find all matches of
//!    the rule's pattern — flow-sensitive rules (statement dots) go
//!    through CFG path matching ([`flowmatch`], all-paths semantics over
//!    `cocci-flow` graphs), everything else through the tree matcher
//!    ([`matcher`]);
//! 3. for each match, generate span edits from the rule body's `-`/`+`
//!    annotations ([`rewrite`]);
//! 4. splice all edits into the original text ([`edits`]), yielding a
//!    minimal diff.
//!
//! Patches are compiled **once** per run ([`compile::CompiledPatch`]:
//! regex constraints, inheritance graph, per-rule prefilter atoms) into a
//! [`CompiledRuleSet`] — a directory of rules for `spatch scan`, or a
//! one-entry set for one `--sp-file` patch — shared immutably across
//! workers. Every run then goes through the same two pieces: the
//! per-file pipeline in [`driver`] (merged prefilter, one shared parse,
//! every surviving rule, attribution, suppression, kill stages) and the
//! streaming corpus driver [`scan_corpus`], whose work unit is the file
//! and which emits a machine-readable [`ApplyReport`]. File sources
//! (directory walks, in-memory lists) live in [`corpus`].
//!
//! ```
//! use cocci_core::Patcher;
//! let patch = cocci_smpl::parse_semantic_patch(
//!     "@@ @@\n- old_api(42);\n+ new_api(42);\n",
//! ).unwrap();
//! let mut patcher = Patcher::new(&patch).unwrap();
//! let out = patcher.apply("demo.c", "void f(void) { old_api(42); }\n").unwrap();
//! assert_eq!(out.unwrap(), "void f(void) { new_api(42); }\n");
//! ```

pub mod compile;
pub mod context;
pub mod corpus;
pub mod driver;
pub mod edits;
pub mod env;
pub mod explain;
pub mod findings;
pub mod flowmatch;
pub mod matcher;
pub mod orchestrate;
pub mod pool;
pub mod report;
pub mod rewrite;
pub mod ruleset;
pub mod scan;
mod splice;
pub mod suppress;
mod treesearch;

pub use compile::CompiledPatch;
pub use context::FileContext;
pub use corpus::{
    apply_to_corpus_resumed, BatchOptions, CorpusOptions, FileSource, IgnoreSet, MemorySource,
    WalkSource,
};
pub use driver::{apply_to_files, FileOutcome};
pub use edits::{Edit, EditConflict, EditSet};
pub use env::{Env, ExportedEnv, Value};
pub use explain::{AttemptTrace, ExplainBlock, ExplainConfig, KillStage};
pub use findings::{to_sarif_with, Finding, SarifIndex, SarifRule, SARIF_TAIL};
pub use flowmatch::{CfgCache, FlowPattern, FlowSearch, FlowStep};
pub use matcher::{MatchCtx, MatchState, Metavars, Pair, PairKind};
pub use orchestrate::{ApplyError, Patcher};
pub use pool::{resolve_threads, ResultSlots, WorkQueue};
pub use report::{
    content_hash, ApplyReport, FileReport, FileStatus, PoolMetrics, RunMetrics, JSON_TAIL,
};
pub use ruleset::{
    parse_rule_metadata, rule_source, rule_sources, CompiledRuleSet, RuleMeta, ScanRule, Severity,
};
pub use scan::{scan_corpus, RuleOutcome};
pub use suppress::SuppressionIndex;
