//! Corpus abstraction: streaming file sources for codebase-scale runs.
//!
//! A GADGET-scale tree does not fit in memory. [`FileSource`] streams
//! files in **bounded-memory batches**: a source yields at most
//! [`BatchOptions::max_files`] files / `max_bytes` bytes of text per
//! call. The driver ([`scan_corpus`]) asks for one file at a time,
//! queues it for the workers and records outcomes into an
//! [`ApplyReport`], dropping each file's text once it is sunk. It reads
//! the next file only when what is read but not yet sunk fits in one
//! batch, so at most one batch of text, plus the file being read, is in
//! memory however far the workers lag.
//!
//! Two sources are provided:
//!
//! * [`MemorySource`] — wraps an in-memory list (tests, benches,
//!   [`apply_to_files`](crate::apply_to_files));
//! * [`WalkSource`] — walks directories with `.gitignore`-style
//!   filtering ([`IgnoreSet`]) and a C/C++/CUDA extension filter. Paths
//!   are enumerated eagerly (cheap — a path is ~100 bytes), file *text*
//!   is read lazily per batch, which is where the memory goes.

use crate::compile::CompiledPatch;
use crate::driver::FileOutcome;
use crate::explain::{self, ExplainConfig};
use crate::orchestrate::ApplyError;
use crate::report::ApplyReport;
use crate::ruleset::CompiledRuleSet;
use crate::scan::scan_corpus;
use cocci_smpl::SemanticPatch;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Batch size limits for streaming sources.
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Maximum files per batch.
    pub max_files: usize,
    /// Maximum total text bytes per batch (at least one file is always
    /// yielded, so a single oversized file still goes through).
    pub max_bytes: usize,
}

impl BatchOptions {
    /// Whether a batch of `files` files and `bytes` bytes is full before
    /// a file of `next` bytes (a batch always takes its first file).
    pub(crate) fn full(&self, files: usize, bytes: usize, next: usize) -> bool {
        files > 0 && (files >= self.max_files || bytes + next > self.max_bytes)
    }
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            max_files: 512,
            max_bytes: 16 * 1024 * 1024,
        }
    }
}

/// A source of files to patch, pulled in bounded batches.
pub trait FileSource {
    /// The next batch of files, or an empty vector when exhausted.
    fn next_batch(&mut self, opts: &BatchOptions) -> Vec<(String, String)>;

    /// Drain `(name, message)` pairs for files that could not be read.
    fn take_errors(&mut self) -> Vec<(String, String)> {
        Vec::new()
    }
}

/// An in-memory file list as a (single- or multi-batch) source.
pub struct MemorySource {
    files: VecDeque<(String, String)>,
}

impl MemorySource {
    /// Wrap an in-memory list.
    pub fn new(files: impl IntoIterator<Item = (String, String)>) -> Self {
        MemorySource {
            files: files.into_iter().collect(),
        }
    }
}

impl FileSource for MemorySource {
    fn next_batch(&mut self, opts: &BatchOptions) -> Vec<(String, String)> {
        let mut batch = Vec::new();
        let mut bytes = 0usize;
        while let Some((_, text)) = self.files.front() {
            let len = text.len();
            if opts.full(batch.len(), bytes, len) {
                break;
            }
            bytes += len;
            batch.push(self.files.pop_front().unwrap());
        }
        batch
    }
}

/// File extensions the walker considers patchable.
pub const SOURCE_EXTENSIONS: [&str; 10] = [
    "c", "h", "cc", "cpp", "cxx", "hpp", "hh", "cu", "cuh", "inl",
];

/// A directory/file walker source with ignore filtering.
///
/// Directories are walked recursively in sorted order; a `.gitignore` at
/// each walk root is honoured, plus any extra patterns supplied by the
/// caller. Explicitly listed files bypass both the extension filter and
/// the ignore set (you asked for them by name).
pub struct WalkSource {
    /// Files to read, in walk order, with each path the walk could not
    /// find or list in its place, as a `(name, message)` failure.
    pending: VecDeque<Result<PathBuf, (String, String)>>,
    errors: Vec<(String, String)>,
}

impl WalkSource {
    /// Discover all candidate files under `paths` (files and/or directory
    /// roots), applying `extra_ignore` patterns (gitignore syntax) on top
    /// of each root's own `.gitignore`.
    pub fn discover(paths: &[PathBuf], extra_ignore: &[String]) -> WalkSource {
        let mut src = WalkSource {
            pending: VecDeque::new(),
            errors: Vec::new(),
        };
        for p in paths {
            if p.is_dir() {
                let mut ignore = IgnoreSet::new(extra_ignore.iter().map(String::as_str));
                let gi = p.join(".gitignore");
                if let Ok(text) = std::fs::read_to_string(&gi) {
                    ignore.add_lines(&text);
                }
                src.walk_dir(p, Path::new(""), &ignore);
            } else if p.exists() {
                src.pending.push_back(Ok(p.clone()));
            } else {
                src.pending.push_back(Err((
                    p.display().to_string(),
                    "no such file or directory".to_string(),
                )));
            }
        }
        src
    }

    /// Number of report rows still to come: one per file discovered and
    /// not yet read, per path the walk could not find or list, and per
    /// read failure not yet taken.
    pub fn remaining(&self) -> usize {
        self.pending.len() + self.errors.len()
    }

    fn walk_dir(&mut self, abs: &Path, rel: &Path, ignore: &IgnoreSet) {
        let mut entries: Vec<(String, PathBuf, bool)> = match std::fs::read_dir(abs) {
            Ok(rd) => rd
                .filter_map(|e| e.ok())
                .map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    let is_dir = e.file_type().map(|t| t.is_dir()).unwrap_or(false);
                    (name, e.path(), is_dir)
                })
                .collect(),
            Err(e) => {
                self.pending
                    .push_back(Err((abs.display().to_string(), e.to_string())));
                return;
            }
        };
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, path, is_dir) in entries {
            if name.starts_with('.') {
                continue; // dotfiles: .git, .gitignore itself, editors' litter
            }
            let rel_child = if rel.as_os_str().is_empty() {
                PathBuf::from(&name)
            } else {
                rel.join(&name)
            };
            let rel_str = rel_child.to_string_lossy().replace('\\', "/");
            if ignore.is_ignored(&rel_str, is_dir) {
                continue;
            }
            if is_dir {
                self.walk_dir(&path, &rel_child, ignore);
            } else {
                let ext = path
                    .extension()
                    .map(|e| e.to_string_lossy().to_ascii_lowercase());
                if matches!(&ext, Some(e) if SOURCE_EXTENSIONS.contains(&e.as_str())) {
                    self.pending.push_back(Ok(path));
                }
            }
        }
    }
}

impl FileSource for WalkSource {
    fn next_batch(&mut self, opts: &BatchOptions) -> Vec<(String, String)> {
        let mut batch: Vec<(String, String)> = Vec::new();
        let mut bytes = 0usize;
        while let Some(next) = self.pending.front() {
            // A failed path waits while the batch is full, so that its
            // error comes after the files walked before it.
            let size = match next {
                Ok(path) => std::fs::metadata(path).map_or(0, |m| m.len() as usize),
                Err(_) => 0,
            };
            if opts.full(batch.len(), bytes, size) {
                break;
            }
            let path = match self.pending.pop_front().expect("front is some") {
                Ok(path) => path,
                Err(failed) => {
                    self.errors.push(failed);
                    continue;
                }
            };
            let name = path.display().to_string();
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    bytes += text.len();
                    batch.push((name, text));
                }
                Err(e) => self.errors.push((name, e.to_string())),
            }
        }
        batch
    }

    fn take_errors(&mut self) -> Vec<(String, String)> {
        std::mem::take(&mut self.errors)
    }
}

/// A `.gitignore`-style pattern set (subset: `*`, `?`, `**`, leading `/`
/// anchoring, trailing `/` directory-only, `!` negation, `#` comments).
/// The last matching pattern wins, as in git.
#[derive(Debug, Clone, Default)]
pub struct IgnoreSet {
    patterns: Vec<IgnorePattern>,
}

#[derive(Debug, Clone)]
struct IgnorePattern {
    /// Slash-separated glob, leading `/` stripped.
    glob: String,
    /// Pattern started with `!` (re-include).
    negated: bool,
    /// Pattern ended with `/` (directories only).
    dir_only: bool,
    /// Pattern contained a `/` (anchored to the root) or started with one.
    anchored: bool,
}

impl IgnoreSet {
    /// Build from pattern lines (gitignore syntax).
    pub fn new<'a>(lines: impl IntoIterator<Item = &'a str>) -> IgnoreSet {
        let mut set = IgnoreSet::default();
        for l in lines {
            set.add_line(l);
        }
        set
    }

    /// Add every line of a `.gitignore` file.
    pub fn add_lines(&mut self, text: &str) {
        for l in text.lines() {
            self.add_line(l);
        }
    }

    /// Add one pattern line; comments and blanks are skipped.
    pub fn add_line(&mut self, line: &str) {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return;
        }
        let (negated, rest) = match line.strip_prefix('!') {
            Some(r) => (true, r),
            None => (false, line),
        };
        let (dir_only, rest) = match rest.strip_suffix('/') {
            Some(r) => (true, r),
            None => (false, rest),
        };
        // A separator anywhere (now that the trailing one is gone) anchors
        // the pattern to the walk root, per gitignore semantics.
        let anchored = rest.contains('/');
        let glob = rest.trim_start_matches('/').to_string();
        if glob.is_empty() {
            return;
        }
        self.patterns.push(IgnorePattern {
            glob,
            negated,
            dir_only,
            anchored,
        });
    }

    /// Whether root-relative `path` (using `/` separators) is ignored.
    /// `is_dir` enables directory-only patterns (and lets the walker
    /// prune whole subtrees).
    pub fn is_ignored(&self, path: &str, is_dir: bool) -> bool {
        let mut ignored = false;
        for p in &self.patterns {
            if p.dir_only && !is_dir {
                continue;
            }
            let subject: &str = if p.anchored {
                path
            } else {
                // Unanchored patterns match the basename at any depth.
                path.rsplit('/').next().unwrap_or(path)
            };
            if glob_match(&p.glob, subject) {
                ignored = !p.negated;
            }
        }
        ignored
    }
}

/// Match a gitignore-style glob against a `/`-separated path, segment
/// by segment with [`explain::glob_match`](crate::explain): `*` and `?`
/// do not cross separators; a `**` segment spans any number of segments.
fn glob_match(glob: &str, path: &str) -> bool {
    fn segs_match(pats: &[&str], segs: &[&str]) -> bool {
        match pats.first() {
            None => segs.is_empty(),
            Some(&"**") => (0..=segs.len()).any(|k| segs_match(&pats[1..], &segs[k..])),
            Some(p) => match segs.first() {
                Some(s) if explain::glob_match(p, s) => segs_match(&pats[1..], &segs[1..]),
                _ => false,
            },
        }
    }
    let pats: Vec<&str> = glob.split('/').collect();
    let segs: Vec<&str> = path.split('/').collect();
    segs_match(&pats, &segs)
}

/// Options for a streaming corpus run.
#[derive(Debug, Clone, Default)]
pub struct CorpusOptions {
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Disable the compile-time prefilter (it is on by default — pruning
    /// is sound, see [`CompiledPatch::may_match`]).
    pub no_prefilter: bool,
    /// Per-file wall-clock budget in milliseconds, checked at rule
    /// boundaries; over-budget files are recorded with a `timeout`
    /// status instead of stalling the run.
    pub timeout_ms: Option<u64>,
    /// `--explain` filter: collect full attempt traces (stage + detail)
    /// for matching (file, rule) attempts into the report's `explain`
    /// block. `None` keeps only the cheap per-outcome stages.
    pub explain: Option<Arc<ExplainConfig>>,
    /// Batch limits.
    pub batch: BatchOptions,
}

/// Apply `patch` to every file of `source`: compile it into a one-entry
/// [`CompiledRuleSet`] and run [`scan_corpus`]. `sink` sees each file's
/// name, original text, and outcome (`output` holds the patched text),
/// as [`scan_corpus`] describes; a compile error surfaces here once,
/// before any file is touched.
///
/// `previous` skips unchanged files as [`scan_corpus`] describes. The
/// returned report's `patch_hash` is 0 (the patch text is unknown here):
/// callers resuming from it must record and check the patch text's
/// [`content_hash`](crate::content_hash) themselves, as `spatch --resume`
/// does.
pub fn apply_to_corpus_resumed(
    patch: &SemanticPatch,
    source: &mut dyn FileSource,
    opts: &CorpusOptions,
    previous: Option<&ApplyReport>,
    sink: impl FnMut(&str, &str, &mut FileOutcome),
) -> Result<ApplyReport, ApplyError> {
    let set = CompiledRuleSet::from_patch(CompiledPatch::compile(patch)?, 0);
    scan_corpus(&set, source, opts, previous, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FileStatus;
    use cocci_smpl::parse_semantic_patch;

    #[test]
    fn memory_source_respects_batch_limits() {
        let files: Vec<(String, String)> = (0..10)
            .map(|i| (format!("f{i}.c"), "x".repeat(100)))
            .collect();
        let mut src = MemorySource::new(files);
        let opts = BatchOptions {
            max_files: 4,
            max_bytes: usize::MAX,
        };
        let sizes: Vec<usize> = std::iter::from_fn(|| {
            let b = src.next_batch(&opts);
            (!b.is_empty()).then_some(b.len())
        })
        .collect();
        assert_eq!(sizes, [4, 4, 2]);

        let mut src = MemorySource::new(vec![
            ("a.c".to_string(), "x".repeat(600)),
            ("b.c".to_string(), "x".repeat(600)),
        ]);
        let opts = BatchOptions {
            max_files: 100,
            max_bytes: 1000,
        };
        // Byte cap: one 600-byte file per batch (first always yielded).
        assert_eq!(src.next_batch(&opts).len(), 1);
        assert_eq!(src.next_batch(&opts).len(), 1);
        assert!(src.next_batch(&opts).is_empty());
    }

    #[test]
    fn gitignore_globs() {
        assert!(glob_match("*.tmp", "x.tmp"));
        assert!(!glob_match("*.tmp", "x.tmpz"));
        assert!(glob_match("a?c", "abc"));
        assert!(!glob_match("*", "a/b"));
        assert!(glob_match("**/gen.c", "deep/down/gen.c"));
        assert!(glob_match("**/gen.c", "gen.c"));
        assert!(glob_match("build/**", "build/x/y.c"));
    }

    #[test]
    fn ignore_set_semantics() {
        let set = IgnoreSet::new(["build/", "*.tmp", "!keep.tmp", "# comment", "docs/*.c"]);
        assert!(set.is_ignored("build", true));
        assert!(!set.is_ignored("build", false)); // dir-only
        assert!(set.is_ignored("deep/scratch.tmp", false)); // basename match
        assert!(!set.is_ignored("deep/keep.tmp", false)); // negation wins (last match)
        assert!(set.is_ignored("docs/x.c", false)); // anchored
        assert!(!set.is_ignored("other/docs/x.c", false)); // anchored ≠ nested
    }

    #[test]
    fn ignore_globs_do_not_backtrack_per_star() {
        // Twelve stars against a 48-character name with no final `b`:
        // retrying every split at each star would take hours.
        let set = IgnoreSet::new([format!("{}*b", "*a".repeat(11)).as_str()]);
        let name = "a".repeat(48);
        let t0 = std::time::Instant::now();
        assert!(!set.is_ignored(&name, false));
        assert!(set.is_ignored(&format!("deep/{name}b"), false));
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn ignore_glob_question_mark_is_one_character() {
        // `?` stands for one character of a name, however many bytes it
        // takes in UTF-8.
        let set = IgnoreSet::new(["?.c", "d?t/"]);
        assert!(set.is_ignored("é.c", false));
        assert!(set.is_ignored("src/ß.c", false));
        assert!(!set.is_ignored("éé.c", false));
        assert!(set.is_ignored("dät", true));
    }

    #[test]
    fn corpus_run_streams_and_reports() {
        let patch = parse_semantic_patch("@@ @@\n- old_api(1);\n+ new_api(1);\n").unwrap();
        let mut files = vec![(
            "miss0.c".to_string(),
            "void f(void) { other(); }\n".to_string(),
        )];
        for i in 0..5 {
            files.push((
                format!("hit{i}.c"),
                "void f(void) { old_api(1); }\n".to_string(),
            ));
        }
        let mut src = MemorySource::new(files);
        let mut seen = Vec::new();
        let report = apply_to_corpus_resumed(
            &patch,
            &mut src,
            &CorpusOptions {
                threads: 2,
                batch: BatchOptions {
                    max_files: 2,
                    max_bytes: usize::MAX,
                },
                ..Default::default()
            },
            None,
            |name, _text, outcome| seen.push((name.to_string(), outcome.output.is_some())),
        )
        .unwrap();
        assert_eq!(report.files.len(), 6);
        assert_eq!(report.count(FileStatus::Changed), 5);
        assert_eq!(report.count(FileStatus::Pruned), 1);
        assert_eq!(seen.len(), 6);
        assert!(report.total_seconds > 0.0);
        // Round-trip through JSON preserves the counts.
        let back = ApplyReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.count(FileStatus::Changed), 5);
    }

    #[test]
    fn resume_skips_unchanged_files_and_copies_status() {
        let patch = parse_semantic_patch("@@ @@\n- old_api(1);\n+ new_api(1);\n").unwrap();
        let hit = (
            "hit.c".to_string(),
            "void f(void) { old_api(1); }\n".to_string(),
        );
        let miss = (
            "miss.c".to_string(),
            "void f(void) { other(); }\n".to_string(),
        );
        let first = apply_to_corpus_resumed(
            &patch,
            &mut MemorySource::new(vec![hit.clone(), miss.clone()]),
            &CorpusOptions::default(),
            None,
            |_, _, _| {},
        )
        .unwrap();
        assert_eq!(first.resumed, 0);

        // Second run: `hit.c` was modified (its previous hash no longer
        // matches), `miss.c` is unchanged and must be skipped.
        let hit2 = (
            "hit.c".to_string(),
            "void f(void) { old_api(1); done(); }\n".to_string(),
        );
        let mut sunk = Vec::new();
        let second = apply_to_corpus_resumed(
            &patch,
            &mut MemorySource::new(vec![hit2, miss.clone()]),
            &CorpusOptions::default(),
            Some(&first),
            |name, _, o| sunk.push((name.to_string(), o.resumed)),
        )
        .unwrap();
        assert_eq!(second.resumed, 1);
        assert_eq!(
            sunk,
            [("hit.c".to_string(), false), ("miss.c".to_string(), true)],
            "only the changed file reruns"
        );
        let miss_entry = second.files.iter().find(|f| f.name == "miss.c").unwrap();
        assert_eq!(miss_entry.status, FileStatus::Pruned, "status copied");
        assert_eq!(miss_entry.seconds, 0.0);
        // Round-tripping the report through JSON keeps resume viable.
        let back = ApplyReport::from_json(&second.to_json()).unwrap();
        assert_eq!(back.resumed, 1);
        assert_eq!(
            back.files.iter().find(|f| f.name == "miss.c").unwrap().hash,
            miss_entry.hash
        );
    }

    #[test]
    fn resume_carries_findings_forward_for_unchanged_files() {
        // Reporting-only patch: matches become findings, not edits.
        let patch = parse_semantic_patch("@scan@\nexpression e;\nposition p;\n@@\nold_api(e)@p;\n")
            .unwrap();
        let hit = (
            "hit.c".to_string(),
            "void f(void) {\n    old_api(1);\n}\n".to_string(),
        );
        let first = apply_to_corpus_resumed(
            &patch,
            &mut MemorySource::new(vec![hit.clone()]),
            &CorpusOptions::default(),
            None,
            |_, _, _| {},
        )
        .unwrap();
        assert_eq!(first.files[0].status, FileStatus::Matched);
        assert_eq!(first.files[0].findings.len(), 1);
        assert_eq!(first.files[0].findings[0].line, 2);
        assert_eq!(first.files[0].findings[0].col, 5);

        // Resume over the unchanged file: skipped, but the findings ride
        // along — an incremental report still shows the full set.
        let second = apply_to_corpus_resumed(
            &patch,
            &mut MemorySource::new(vec![hit]),
            &CorpusOptions::default(),
            Some(&first),
            |_, _, _| {},
        )
        .unwrap();
        assert_eq!(second.resumed, 1);
        assert_eq!(second.files[0].findings, first.files[0].findings);
        // And they survive the JSON round trip the CLI resume path uses.
        let back = ApplyReport::from_json(&second.to_json()).unwrap();
        assert_eq!(back.files[0].findings, first.files[0].findings);
    }

    #[test]
    fn resume_retries_previously_timed_out_and_failed_files() {
        let patch = parse_semantic_patch("@@ @@\n- old_api(1);\n+ new_api(1);\n").unwrap();
        let hit = (
            "hit.c".to_string(),
            "void f(void) { old_api(1); }\n".to_string(),
        );
        // First run under a zero budget: the file times out.
        let first = apply_to_corpus_resumed(
            &patch,
            &mut MemorySource::new(vec![hit.clone()]),
            &CorpusOptions {
                timeout_ms: Some(0),
                ..Default::default()
            },
            None,
            |_, _, _| {},
        )
        .unwrap();
        assert_eq!(first.count(FileStatus::Timeout), 1);

        // Resuming without the budget must re-attempt the unchanged
        // file rather than copying the timeout forward.
        let second = apply_to_corpus_resumed(
            &patch,
            &mut MemorySource::new(vec![hit.clone()]),
            &CorpusOptions::default(),
            Some(&first),
            |_, _, _| {},
        )
        .unwrap();
        assert_eq!(second.resumed, 0, "a failed attempt is not resumable");
        assert_eq!(second.count(FileStatus::Changed), 1);

        // `error` statuses re-run too.
        let mut prior = second.clone();
        prior.files[0].status = FileStatus::Error;
        prior.files[0].error = Some("synthetic".into());
        let third = apply_to_corpus_resumed(
            &patch,
            &mut MemorySource::new(vec![hit.clone()]),
            &CorpusOptions::default(),
            Some(&prior),
            |_, _, _| {},
        )
        .unwrap();
        assert_eq!(third.resumed, 0);
        assert_eq!(third.count(FileStatus::Changed), 1);

        // A completed status still skips, as before.
        let fourth = apply_to_corpus_resumed(
            &patch,
            &mut MemorySource::new(vec![hit]),
            &CorpusOptions::default(),
            Some(&second),
            |_, _, _| {},
        )
        .unwrap();
        assert_eq!(fourth.resumed, 1);
    }

    #[test]
    fn walker_discovers_filters_and_reads() {
        let root = std::env::temp_dir().join(format!("cocci-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("src/deep")).unwrap();
        std::fs::create_dir_all(root.join("build")).unwrap();
        std::fs::write(root.join(".gitignore"), "build/\n*.skip.c\n").unwrap();
        std::fs::write(root.join("src/a.c"), "void a(void) {}\n").unwrap();
        std::fs::write(root.join("src/deep/b.cu"), "void b(void) {}\n").unwrap();
        std::fs::write(root.join("src/x.skip.c"), "void x(void) {}\n").unwrap();
        std::fs::write(root.join("src/notes.md"), "# not source\n").unwrap();
        std::fs::write(root.join("build/gen.c"), "void g(void) {}\n").unwrap();

        let mut src = WalkSource::discover(std::slice::from_ref(&root), &[]);
        assert_eq!(src.remaining(), 2);
        let batch = src.next_batch(&BatchOptions::default());
        let names: Vec<&str> = batch.iter().map(|f| f.0.as_str()).collect();
        assert!(names[0].ends_with("src/a.c"), "{names:?}");
        assert!(names[1].ends_with("src/deep/b.cu"), "{names:?}");
        assert!(src.next_batch(&BatchOptions::default()).is_empty());
        assert!(src.take_errors().is_empty());

        // Extra ignore patterns stack on the root's .gitignore.
        let mut src =
            WalkSource::discover(std::slice::from_ref(&root), &["deep/".to_string()]).pending;
        assert_eq!(src.len(), 1);
        src.clear();

        // Missing paths surface as errors, not panics.
        let mut src = WalkSource::discover(&[root.join("nope.c")], &[]);
        assert!(src.next_batch(&BatchOptions::default()).is_empty());
        let errs = src.take_errors();
        assert_eq!(errs.len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unreadable_paths_keep_their_walk_order_place() {
        let root = std::env::temp_dir().join(format!("cocci-walk-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("dir")).unwrap();
        let text = "void f(void) { old_api(1); }\n";
        for name in ["a.c", "c.c", "dir/d.c"] {
            std::fs::write(root.join(name), text).unwrap();
        }
        // Not UTF-8: found by the walk, but not readable as text.
        std::fs::write(root.join("dir/b.c"), b"void f(void) { old_api(\xff); }\n").unwrap();
        let targets = ["a.c", "missing.c", "dir", "c.c"].map(|t| root.join(t));
        let mut src = WalkSource::discover(&targets, &[]);
        assert_eq!(src.remaining(), 5);
        let patch = parse_semantic_patch("@@ @@\n- old_api(1);\n+ new_api(1);\n").unwrap();
        let report = apply_to_corpus_resumed(
            &patch,
            &mut src,
            &CorpusOptions::default(),
            None,
            |_, _, _| {},
        )
        .unwrap();
        let prefix = format!("{}/", root.display());
        let names: Vec<&str> = report
            .files
            .iter()
            .map(|f| f.name.strip_prefix(&prefix).unwrap())
            .collect();
        assert_eq!(names, ["a.c", "missing.c", "dir/b.c", "dir/d.c", "c.c"]);
        assert_eq!(report.count(FileStatus::Error), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn every_row_reaches_the_sink_which_may_edit_it() {
        let root = std::env::temp_dir().join(format!("cocci-walk-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let text = "void f(void) { old_api(1); }\n";
        std::fs::write(root.join("a.c"), text).unwrap();
        std::fs::write(root.join("b.c"), b"void f(void) { old_api(\xff); }\n").unwrap();
        std::fs::write(root.join("c.c"), text).unwrap();
        let targets = ["a.c", "missing.c", "b.c", "c.c"].map(|t| root.join(t));
        let patch = parse_semantic_patch("@@ @@\n- old_api(1);\n+ new_api(1);\n").unwrap();
        let prefix = format!("{}/", root.display());
        let run = |previous: Option<&ApplyReport>| {
            let mut src = WalkSource::discover(&targets, &[]);
            let mut rows = Vec::new();
            let report = apply_to_corpus_resumed(
                &patch,
                &mut src,
                &CorpusOptions::default(),
                previous,
                |name, text, o| {
                    let name = name.strip_prefix(&prefix).unwrap().to_string();
                    rows.push((name.clone(), text.len(), o.resumed, o.report.status));
                    // A sink that could not land `a.c`'s rewrite says so.
                    if name == "a.c" {
                        o.report.status = FileStatus::Error;
                        o.report.error = Some("cannot write".into());
                    }
                },
            )
            .unwrap();
            (rows, report)
        };
        let (rows, first) = run(None);
        let (changed, error) = (FileStatus::Changed, FileStatus::Error);
        let n = text.len();
        assert_eq!(
            rows,
            [
                ("a.c".to_string(), n, false, changed),
                ("missing.c".to_string(), 0, false, error),
                ("b.c".to_string(), 0, false, error),
                ("c.c".to_string(), n, false, changed),
            ]
        );
        assert_eq!(first.files[0].status, error);
        assert_eq!(first.files[0].error.as_deref(), Some("cannot write"));
        assert_eq!(first.count(FileStatus::Error), 3);
        // Resumed: `c.c` is unchanged; `a.c`'s error row is not resumable.
        let (rows, second) = run(Some(&first));
        assert_eq!(rows[0], ("a.c".to_string(), n, false, changed));
        assert_eq!(rows[3], ("c.c".to_string(), n, true, changed));
        assert_eq!(second.resumed, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The streaming pool must not leak scheduling into observable
    /// output: whatever the thread count, batch size, or completion order,
    /// the sink stream and the report are byte-identical — for a
    /// one-entry set (an `--sp-file` patch) and a three-rule set alike —
    /// and a thread count larger than any single batch still engages
    /// every worker.
    #[test]
    fn corpus_output_identical_across_threads_and_batch_sizes() {
        let patch = parse_semantic_patch("@@ @@\n- old_api(1);\n+ new_api(1);\n").unwrap();
        let one = CompiledRuleSet::from_patch(CompiledPatch::compile(&patch).unwrap(), 0);
        let rule = |id: &str, callee: &str| {
            let text = format!("@scan@\nexpression e;\nposition p;\n@@\n{callee}(e)@p;\n");
            (format!("{id}.cocci"), id.to_string(), text)
        };
        let three = CompiledRuleSet::from_sources(&[
            rule("r-alpha", "alpha"),
            rule("r-beta", "beta"),
            rule("r-gamma", "gamma"),
        ])
        .unwrap();
        let files: Vec<(String, String)> = (0..12)
            .map(|i| {
                let body = match i % 4 {
                    0 => "void f(void) { other(); }\n".to_string(),
                    1 => format!("void f{i}(void) {{ old_api(1); }}\n"),
                    2 => "void f(void) {\n    alpha(1);\n    beta(2);\n}\n".to_string(),
                    _ => format!("void f{i}(void) {{\n    gamma(3);\n    old_api(1);\n}}\n"),
                };
                (format!("f{i:02}.c"), body)
            })
            .collect();
        for set in [&one, &three] {
            let mut runs = Vec::new();
            for threads in [1, 2, 4] {
                for max_files in [1, 3, 100] {
                    let mut sunk = Vec::new();
                    let opts = CorpusOptions {
                        threads,
                        batch: BatchOptions {
                            max_files,
                            max_bytes: usize::MAX,
                        },
                        ..Default::default()
                    };
                    let source = &mut MemorySource::new(files.clone());
                    let report = scan_corpus(set, source, &opts, None, |name, text, o| {
                        let findings = o.report.findings.clone();
                        sunk.push((
                            name.to_string(),
                            text.to_string(),
                            o.output.clone(),
                            findings,
                        ))
                    })
                    .unwrap();
                    let digest: Vec<(String, String, usize, usize)> = report
                        .files
                        .iter()
                        .map(|f| {
                            (
                                f.name.clone(),
                                f.status.to_string(),
                                f.matches,
                                f.rules.len(),
                            )
                        })
                        .collect();
                    runs.push((sunk, digest));
                }
            }
            for r in &runs[1..] {
                assert_eq!(r.0, runs[0].0, "sink stream differs");
                assert_eq!(r.1, runs[0].1, "report sequence differs");
            }
            // And the sink saw the files in walk order, not completion order.
            let names: Vec<&str> = runs[0].0.iter().map(|s| s.0.as_str()).collect();
            let expect: Vec<String> = (0..12).map(|i| format!("f{i:02}.c")).collect();
            assert_eq!(names, expect);
        }
    }
}
